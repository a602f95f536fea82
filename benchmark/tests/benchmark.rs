//! The benchmark's own checks: its composed Table 2 grid equals
//! `run_table2`, its counts and digests repeat across thread counts and
//! traced runs, its expected digests hold and a corrupted one fails the
//! run, and `BENCHMARK.json` lists exactly the metrics it prints.

use netsim::json::Json;
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Mutex;
use stob_bench::{run_table2, Table2Config};
use stob_benchmark::catalog::{self, END_TO_END};
use stob_benchmark::workloads::{self, table2_composed, NAMES};
use stob_benchmark::{pin_knobs, Runner, Size};
use traces::statgen::generate_corpus;
use traces::{paper_sites, Dataset};

/// The program's counters and thread override are process-wide: tests
/// that run workloads take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn composed_grid_equals_run_table2_cell_for_cell() {
    let _g = serial();
    std::env::set_var("STOB_PLACEMENT", "app");
    let sites = paper_sites();
    let names = sites.iter().map(|s| s.name.to_string()).collect();
    let dataset = Dataset::new(generate_corpus(&sites, 8, 3), names);
    let cfg = Table2Config {
        trees: 6,
        repeats: 2,
        seed: 11,
    };
    let reference = run_table2(&dataset, &cfg);
    let (composed, _) = table2_composed(&dataset, &cfg, None, None);
    assert_eq!(reference.len(), 16);
    assert_eq!(composed.len(), reference.len());
    for (a, b) in composed.iter().zip(&reference) {
        assert_eq!((a.countermeasure, a.n), (b.countermeasure, b.n));
        assert_eq!(
            a.mean.to_bits(),
            b.mean.to_bits(),
            "{:?} n={}",
            b.countermeasure,
            b.n
        );
        assert_eq!(
            a.std.to_bits(),
            b.std.to_bits(),
            "{:?} n={}",
            b.countermeasure,
            b.n
        );
    }
}

/// Run one traced workload (an untraced then a traced pass) at a small
/// size. Returns the pass digests and the traced pass's count metrics.
fn traced_run(workload: &str, threads: usize) -> (Vec<String>, BTreeMap<String, f64>) {
    pin_knobs(threads);
    let mut r = Runner::new(true, 0.0);
    workloads::run(workload, 5, &Size::SMALL, &mut r).expect("known workload");
    netsim::par::set_threads(0);
    assert_eq!(r.passes.len(), 2);
    for m in &r.passes {
        assert!(
            m.pass.problems.is_empty(),
            "{workload}: {:?}",
            m.pass.problems
        );
        assert_eq!(m.pass.failed, 0, "{workload}");
    }
    let digests = r.passes.iter().map(|m| m.pass.digest()).collect();
    let traced = &r.passes[1];
    let ledger = catalog::ledger(
        traced.traced.as_ref().expect("second pass is traced"),
        &traced.pass,
        &r.setup,
    );
    let counts = catalog::per_layer()
        .into_iter()
        .filter(|m| m.unit == "count" && m.workloads.contains(&workload))
        .filter_map(|m| ledger.get(&m.name).map(|v| (m.name, *v)))
        .collect();
    (digests, counts)
}

#[test]
fn counts_and_digests_repeat_across_threads_and_traced_runs() {
    let _g = serial();
    for w in NAMES {
        let runs: Vec<_> = [1, 2, 1].iter().map(|&t| traced_run(w, t)).collect();
        let (digests, counts) = &runs[0];
        // Traced and untraced passes agree.
        assert!(digests.iter().all(|d| d == &digests[0]), "{w}: {digests:?}");
        assert!(!counts.is_empty(), "{w}: no counts");
        for (d, c) in &runs[1..] {
            assert_eq!(d, digests, "{w}: digests differ");
            assert_eq!(c, counts, "{w}: counts differ");
        }
    }
}

#[test]
fn an_unaudited_visit_or_replay_fails_the_check() {
    let _g = serial();
    pin_knobs(1);
    std::env::remove_var("STOB_AUDIT");
    let runs: Vec<_> = ["closed-world", "multipath"]
        .iter()
        .map(|w| {
            let mut r = Runner::new(false, 0.0);
            workloads::run(w, 5, &Size::SMALL, &mut r).expect("known workload");
            (w, r)
        })
        .collect();
    std::env::set_var("STOB_AUDIT", "1");
    netsim::par::set_threads(0);
    for (w, r) in runs {
        assert!(
            r.passes[0]
                .pass
                .problems
                .iter()
                .any(|p| p.contains("auditor")),
            "{w}: an auditor that is off must be a failed check"
        );
    }
}

fn bench_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(j: &Json, key: &str) -> Vec<(String, String)> {
    j.req_arr(key)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.req_str("name").expect("name").to_string(),
                m.req_str("unit").expect("unit").to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let j = bench_json();
    let workloads: Vec<&str> = j
        .req_arr("workloads")
        .expect("workloads")
        .iter()
        .map(|w| w.req_str("name").expect("name"))
        .collect();
    assert_eq!(workloads, NAMES);
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(names_and_units(&j, "end_to_end"), e2e);
    for (m, jm) in END_TO_END
        .iter()
        .zip(j.req_arr("end_to_end").expect("end_to_end"))
    {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(jm.req_str("better").expect("better"), better, "{}", m.name);
    }
    let layers: Vec<(String, String)> = catalog::per_layer()
        .into_iter()
        .map(|m| (m.name, m.unit.to_string()))
        .collect();
    assert_eq!(names_and_units(&j, "per_layer"), layers);
}

/// Run the benchmark binary at the default seed for one pass.
fn run_cli(workload: &str, expected: &str) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_stob-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .args(["--expected", expected])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    (
        out.status.success(),
        Json::parse(last).expect("result is JSON"),
    )
}

#[test]
fn expected_digests_hold_and_a_corrupted_one_fails_the_run() {
    let good = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
    let text = std::fs::read_to_string(good).expect("expected.json");
    let dir = env!("CARGO_TARGET_TMPDIR");
    for w in NAMES {
        let (ok, r) = run_cli(w, good);
        assert!(ok, "{w}: {}", r.to_string_compact());
        assert_eq!(r.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(r.req_u64("failed").ok(), Some(0));

        // Flip one hex digit of this workload's digest.
        let digest = Json::parse(&text)
            .expect("expected.json parses")
            .req_str(w)
            .expect("digest")
            .to_string();
        let last = digest.chars().last().expect("digest digit");
        let flipped = format!(
            "{}{}",
            &digest[..digest.len() - 1],
            if last == '0' { '1' } else { '0' }
        );
        let bad = format!("{dir}/expected-{w}.json");
        std::fs::write(&bad, text.replace(&digest, &flipped)).expect("write corrupted copy");
        let (ok, r) = run_cli(w, &bad);
        assert!(!ok, "{w}: a corrupted digest must fail the command");
        assert_eq!(r.get("correct").and_then(Json::as_bool), Some(false));
        let attempted = r.req_u64("attempted").expect("attempted");
        assert!(attempted > 0);
        assert_eq!(
            r.req_u64("failed").ok(),
            Some(attempted),
            "{w}: fail_ratio must be 1"
        );
    }
}

#[test]
fn layer_map_names_only_reported_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json");
    let map = Json::parse(&std::fs::read_to_string(path).expect("layers.json"))
        .expect("layers.json parses");
    let layer_names: Vec<String> = catalog::per_layer().into_iter().map(|m| m.name).collect();
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    for w in NAMES {
        assert!(
            map.get("workloads").and_then(|ws| ws.get(w)).is_some(),
            "{w}"
        );
    }
    for layer in map.req_arr("layers").expect("layers") {
        for m in layer.req_arr("metrics").expect("metrics") {
            let m = m.as_str().expect("metric name");
            // The 26 per-cell figures are listed by pattern.
            if !m.contains('<') {
                assert!(
                    layer_names.iter().any(|n| n == m),
                    "{m} is not a per-layer metric"
                );
            }
        }
        for mv in layer.req_arr("moves").expect("moves") {
            let pair = mv.as_arr().expect("[metric, workload]");
            assert!(e2e.contains(&pair[0].as_str().expect("metric")), "{mv:?}");
            assert!(
                NAMES.contains(&pair[1].as_str().expect("workload")),
                "{mv:?}"
            );
        }
        for w in layer.req_arr("no_change_on").expect("no_change_on") {
            assert!(NAMES.contains(&w.as_str().expect("workload")), "{w:?}");
        }
    }
}
