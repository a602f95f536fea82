//! `stob-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                 [--expected FILE] [--out DIR]`
//!
//! Runs one workload for about `--seconds` of passes and prints, as the
//! last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics, or with `--trace 1`
//! the per-layer metrics. A human-readable report goes to stderr; a
//! traced run also writes its spans, counters and span profile to
//! `DIR/<workload>.spans.json` (default `.bench_out`). Exits non-zero
//! when any operation failed or an output check did not hold.

use netsim::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use stob_benchmark::catalog::{self, END_TO_END};
use stob_benchmark::trace::spans_json;
use stob_benchmark::{
    median, peak_rss_mb, percentile, workloads, Measured, Runner, Size, DEFAULT_SEED,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    expected: Option<String>,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        expected: None,
        out: ".bench_out".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad.clone())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            "--expected" => a.expected = Some(value),
            "--out" => a.out = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    if !(0.0..=3600.0).contains(&a.seconds) {
        return Err("--seconds must be within 0..=3600".to_string());
    }
    Ok(a)
}

/// Expected output digest of `workload` at the default seed.
fn expected_digest(path: &Option<String>, workload: &str) -> Result<String, String> {
    let text = match path {
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?,
        None => include_str!("../expected.json").to_string(),
    };
    let json = Json::parse(&text).map_err(|e| format!("expected digests: {e}"))?;
    json.get(workload)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(format!("no expected digest for {workload}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stob-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    stob_benchmark::pin_knobs(threads);

    let expected = if args.seed == DEFAULT_SEED {
        match expected_digest(&args.expected, &args.workload) {
            Ok(d) => Some(d),
            Err(e) => {
                eprintln!("stob-benchmark: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };

    let w = args.workload.as_str();
    let mut r = Runner::new(args.trace, args.seconds);
    if let Err(e) = workloads::run(w, args.seed, &Size::FULL, &mut r) {
        eprintln!("stob-benchmark: {e}");
        return ExitCode::from(2);
    }

    let mut problems = check_outputs(&r, expected.as_deref());
    eprintln!(
        "[{w}] seed={} threads={} passes={} digest={}{}",
        args.seed,
        threads,
        r.passes.len(),
        r.passes[0].pass.digest(),
        if expected.is_some() {
            " (checked against expected.json)"
        } else {
            " (invariants only)"
        }
    );
    report_passes(w, &r);
    let metrics = if args.trace {
        let metrics = per_layer_metrics(w, &r, &mut problems);
        write_spans(&args, threads, &r);
        metrics
    } else {
        end_to_end_metrics(w, &r)
    };

    let attempted: u64 = r.passes.iter().map(|m| m.pass.ops).sum();
    let correct = problems.is_empty();
    // A wrong output fails every operation of the run.
    let failed: u64 = if correct {
        r.passes.iter().map(|m| m.pass.failed).sum()
    } else {
        attempted
    };
    for p in &problems {
        eprintln!("[{w}] CHECK FAILED: {p}");
    }
    eprintln!(
        "[{w}] attempted={attempted} failed={failed} fail_ratio={:.4}",
        failed as f64 / attempted.max(1) as f64
    );
    let result = Json::obj()
        .set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics);
    println!("{}", result.to_string_compact());
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every pass must produce the same outputs, equal at the default seed
/// to the expected digest, and keep the workload's invariants.
fn check_outputs(r: &Runner, expected: Option<&str>) -> Vec<String> {
    let mut problems = Vec::new();
    let digests: Vec<String> = r.passes.iter().map(|m| m.pass.digest()).collect();
    if digests.iter().any(|d| *d != digests[0]) {
        problems.push(format!("passes disagree on their outputs: {digests:?}"));
    }
    if let Some(exp) = expected {
        if exp != digests[0] {
            problems.push(format!("output digest {} != expected {exp}", digests[0]));
        }
    }
    for m in &r.passes {
        problems.extend(m.pass.problems.iter().cloned());
    }
    problems.dedup();
    problems
}

fn untraced(r: &Runner) -> Vec<&Measured> {
    r.passes.iter().filter(|m| m.traced.is_none()).collect()
}

/// Stage times, the spread of pass times and per-operation latency.
fn report_passes(w: &str, r: &Runner) {
    let passes = untraced(r);
    let mut stage_names: Vec<&str> = Vec::new();
    for (n, _) in passes.iter().flat_map(|m| &m.pass.stages) {
        if !stage_names.contains(n) {
            stage_names.push(n);
        }
    }
    for n in stage_names {
        let v: Vec<f64> = passes
            .iter()
            .flat_map(|m| &m.pass.stages)
            .filter(|s| s.0 == n)
            .map(|s| s.1)
            .collect();
        eprintln!(
            "[{w}] {n}: median {:.4} s over {} passes",
            median(&v),
            v.len()
        );
    }
    let mut setups = r.setup_samples.clone();
    setups.sort_by(f64::total_cmp);
    eprintln!(
        "[{w}] set-up time (s): min {:.3e} median {:.3e} max {:.3e} over {} samples",
        setups[0],
        r.setup_s(),
        setups[setups.len() - 1],
        setups.len()
    );
    let walls: Vec<String> = passes.iter().map(|m| format!("{:.4}", m.wall_s)).collect();
    eprintln!("[{w}] pass wall times (s): {}", walls.join(" "));
    // Packets per second is a fixed multiple of `ops_per_s` (a pass's op
    // and packet counts are pinned by its digest), so it is reported here
    // rather than gated as a metric of its own.
    let op_stage: f64 = passes.iter().map(|m| m.pass.op_stage_s).sum();
    let pkts: u64 = passes.iter().map(|m| m.pass.pkts).sum();
    let pkts_name = match w {
        "closed-world" => "captured_pkts_per_s",
        "defense-suite" => "defended_pkts_per_s",
        "fleet" => "egress_pkts_per_s",
        _ => "replayed_pkts_per_s",
    };
    eprintln!("[{w}] {pkts_name}: {:.1}", pkts as f64 / op_stage);
    let op_ms: Vec<f64> = passes
        .iter()
        .flat_map(|m| m.pass.op_ms.iter().copied())
        .collect();
    eprintln!(
        "[{w}] per-operation latency over {} samples: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms",
        op_ms.len(),
        percentile(&op_ms, 50.0),
        percentile(&op_ms, 90.0),
        percentile(&op_ms, 99.0)
    );
}

/// The end-to-end metrics, from the untraced passes.
fn end_to_end_metrics(w: &str, r: &Runner) -> Json {
    let passes = untraced(r);
    let walls: Vec<f64> = passes.iter().map(|m| m.wall_s).collect();
    let op_stage: f64 = passes.iter().map(|m| m.pass.op_stage_s).sum();
    let ops: u64 = passes.iter().map(|m| m.pass.ops).sum();
    let op_ms: Vec<f64> = passes
        .iter()
        .flat_map(|m| m.pass.op_ms.iter().copied())
        .collect();
    let values: BTreeMap<&str, f64> = [
        ("setup_s", r.setup_s()),
        ("run_s", median(&walls)),
        ("peak_rss_mb", peak_rss_mb()),
        ("ops_per_s", ops as f64 / op_stage),
        ("op_p50_ms", percentile(&op_ms, 50.0)),
    ]
    .into_iter()
    .collect();
    let mut metrics = Json::obj();
    for m in &END_TO_END {
        let v = values[m.name];
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        eprintln!(
            "[{w}] {:<12} {v:>16.6} {:<4} ({better} is better)",
            m.name, m.unit
        );
        metrics = metrics.set(m.name, Json::obj().set("value", v).set("unit", m.unit));
    }
    metrics
}

/// The per-layer metrics, as medians over the traced passes. A metric
/// whose layer does no work in this workload reads 0; one the program
/// no longer emits where it should is left out and named as absent.
/// Counts that differ between passes are a failed check.
fn per_layer_metrics(w: &str, r: &Runner, problems: &mut Vec<String>) -> Json {
    let traced: Vec<&Measured> = r.passes.iter().filter(|m| m.traced.is_some()).collect();
    let ledgers: Vec<BTreeMap<String, f64>> = traced
        .iter()
        .map(|m| catalog::ledger(m.traced.as_ref().expect("traced pass"), &m.pass, &r.setup))
        .collect();
    let traced_wall = median(&traced.iter().map(|m| m.wall_s).collect::<Vec<_>>());
    let untraced_wall = median(&untraced(r).iter().map(|m| m.wall_s).collect::<Vec<_>>());
    let overhead = traced_wall - untraced_wall;
    eprintln!(
        "[{w}] tracing overhead: {overhead:+.4} s per pass (traced {traced_wall:.4} s, untraced {untraced_wall:.4} s)"
    );
    let mut metrics = Json::obj();
    let mut absent = Vec::new();
    for lm in catalog::per_layer() {
        let measured = lm.workloads.contains(&w);
        let vals: Vec<f64> = ledgers
            .iter()
            .filter_map(|l| l.get(&lm.name).copied())
            .collect();
        let value = if lm.name == "bench.trace_overhead_s" {
            overhead
        } else if !measured {
            0.0
        } else if vals.len() < ledgers.len() {
            absent.push(lm.name);
            continue;
        } else {
            if lm.unit == "count" && vals.iter().any(|v| *v != vals[0]) {
                problems.push(format!(
                    "count {} differs between passes: {vals:?}",
                    lm.name
                ));
            }
            median(&vals)
        };
        if measured {
            eprintln!("[{w}] {:<52} {value:>16.6} {}", lm.name, lm.unit);
        }
        metrics = metrics.set(
            &lm.name,
            Json::obj().set("value", value).set("unit", lm.unit),
        );
    }
    if !absent.is_empty() {
        eprintln!("[{w}] absent (the program no longer emits them): {absent:?}");
    }
    if let Some(t) = traced.last().and_then(|m| m.traced.as_ref()) {
        let selfs = catalog::self_times(t);
        let total: f64 = selfs.iter().map(|s| s.1).sum();
        eprintln!("[{w}] where the time goes (self time of one traced pass, {total:.4} s in all):");
        for (name, s) in selfs.iter().filter(|s| s.1 > 0.0) {
            eprintln!("[{w}]   {:>6.2}%  {s:>10.4} s  {name}", 100.0 * s / total);
        }
    }
    metrics
}

/// Write the set-up spans and, per traced pass, its spans, the program's
/// counters and its span profile.
fn write_spans(args: &Args, threads: usize, r: &Runner) {
    let passes = r
        .passes
        .iter()
        .filter_map(|m| m.traced.as_ref().map(|t| (m.wall_s, t)))
        .map(|(wall_s, t)| {
            let counters = t
                .counters
                .iter()
                .fold(Json::obj(), |j, (k, v)| j.set(k, *v));
            let profile = t.profile.iter().fold(Json::obj(), |j, (k, v)| j.set(k, *v));
            Json::obj()
                .set("wall_s", wall_s)
                .set("spans", spans_json(&t.spans))
                .set("counters", counters)
                .set("profile_wall_s", profile)
        })
        .collect();
    let doc = Json::obj()
        .set("workload", args.workload.as_str())
        .set("seed", args.seed)
        .set("threads", threads as u64)
        .set("setup", spans_json(&r.setup.spans))
        .set("passes", Json::Arr(passes));
    let path = format!("{}/{}.spans.json", args.out, args.workload);
    match std::fs::create_dir_all(&args.out)
        .and_then(|_| std::fs::write(&path, doc.to_string_compact()))
    {
        Ok(()) => eprintln!("[{}] spans written to {path}", args.workload),
        Err(e) => eprintln!("[{}] could not write {path}: {e}", args.workload),
    }
}
