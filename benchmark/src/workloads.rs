//! The four workloads. Each builds its inputs from the seed in set-up,
//! then runs passes through the workspace's public APIs.

use crate::trace::{span, Tracer};
use crate::{bits, Pass, Runner, Size};
use defenses::emulate::{self, EmulateConfig};
use defenses::front::FrontConfig;
use defenses::machines::front_machine;
use defenses::overhead::{bandwidth_overhead, latency_overhead};
use defenses::{defend_all, FrontDefense, TraceBank};
use netsim::json::Json;
use netsim::{par, Nanos, SimRng};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use stob::defense::{Defense, Placement};
use stob::policy::DelaySpec;
use stob::sockopt::{publish_machine_json, publish_splitter_json};
use stob::{
    run_fleet, splitter_to_json, FleetConfig, ObfuscationPolicy, PolicyKey, PolicyRegistry,
    SplitterSpec,
};
use stob_bench::suite::DefenseKind;
use stob_bench::{run_table2, Table2Cell, Table2Config};
use traces::loader::{load_page_supervised, LoaderConfig};
use traces::sanitize::sanitize;
use traces::statgen::generate_corpus;
use traces::{paper_sites, Dataset, Trace};
use wf::eval::EvalConfig;
use wf::features::extract_all;
use wf::forest::{Forest, ForestConfig};
use wf::metrics::{accuracy, mean_std};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["closed-world", "defense-suite", "fleet", "multipath"];

/// Set up and measure workload `name`.
pub fn run(name: &str, seed: u64, size: &Size, r: &mut Runner) -> Result<(), String> {
    match name {
        "closed-world" => closed_world(seed, size, r),
        "defense-suite" => defense_suite(seed, size, r),
        "fleet" => fleet(seed, size, r),
        "multipath" => multipath(seed, size, r),
        _ => return Err(format!("unknown workload {name:?}")),
    }
    Ok(())
}

/// Order-dependent checksum of a trace list (identity and every packet),
/// one multiply per word so that checking outputs stays cheap next to
/// the work it checks.
pub fn traces_checksum<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |w: u64| h = (h ^ w).wrapping_mul(0x1000_0000_01b3).rotate_left(29);
    for t in traces {
        mix(t.label as u64);
        mix(t.visit as u64);
        for p in &t.packets {
            mix(p.ts.as_nanos());
            mix(u64::from(p.size) << 8 | p.dir as u64);
        }
    }
    h
}

fn hex(h: u64) -> String {
    format!("{h:#018x}")
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn balanced(d: &Dataset) -> bool {
    let counts = d.per_class_counts();
    counts.iter().all(|&c| c == counts[0] && c > 0)
}

// ---------------------------------------------------------------------
// closed-world: the Table 2 pipeline
// ---------------------------------------------------------------------

struct ClosedWorld {
    sites: Vec<traces::SiteProfile>,
    names: Vec<String>,
    jobs: Vec<(usize, usize)>,
    loader: LoaderConfig,
    table2: Table2Config,
    seed: u64,
}

impl ClosedWorld {
    fn new(seed: u64, size: &Size) -> ClosedWorld {
        let sites = paper_sites();
        let names = sites.iter().map(|s| s.name.to_string()).collect();
        // Visit-major order: `par_map` hands each worker a contiguous
        // chunk, and this way every chunk holds every site.
        let n_sites = sites.len();
        let jobs = (0..size.visits)
            .flat_map(|v| (0..n_sites).map(move |label| (label, v)))
            .collect();
        ClosedWorld {
            sites,
            names,
            jobs,
            loader: LoaderConfig::default(),
            table2: Table2Config {
                trees: size.trees,
                repeats: size.repeats,
                seed,
            },
            seed,
        }
    }
}

fn closed_world(seed: u64, size: &Size, r: &mut Runner) {
    let input = r.inputs(|_| ClosedWorld::new(seed, size));
    r.measure(
        || drop(black_box(ClosedWorld::new(seed, size))),
        |tr| {
            span(tr, "bench.pass", 0, None, |root| {
                closed_world_pass(&input, tr, root)
            })
        },
    );
}

fn closed_world_pass(w: &ClosedWorld, tr: Option<&Tracer>, root: Option<usize>) -> Pass {
    let mut pass = Pass::default();
    let t_load = Instant::now();
    let visits = par::par_map(&w.jobs, |i, &(label, visit)| {
        span(tr, "traces.loader.load_page", i as u64, root, |_| {
            let t0 = Instant::now();
            let out = load_page_supervised(&w.sites[label], label, visit, w.seed, &w.loader);
            (out, secs(t0) * 1e3)
        })
    });
    pass.op_stage_s = secs(t_load);
    pass.stages.push(("load_s", pass.op_stage_s));

    let mut per_site: Vec<(Vec<Trace>, Vec<bool>)> = vec![(Vec::new(), Vec::new()); w.sites.len()];
    for ((out, ms), &(label, visit)) in visits.into_iter().zip(&w.jobs) {
        pass.ops += 1;
        pass.op_ms.push(ms);
        let (trace, ok) = match out {
            Ok(o) => {
                // `pin_knobs` turns the auditor on: a visit it did not
                // check is a broken set-up, not a clean visit.
                if o.audit.checks == 0 {
                    pass.problems
                        .push(format!("visit {label}/{visit}: the auditor made no checks"));
                }
                (o.trace, o.complete && o.audit.clean())
            }
            Err(e) => {
                pass.problems.push(e.to_string());
                (Trace::new(label, visit, Vec::new()), false)
            }
        };
        pass.failed += u64::from(!ok);
        pass.pkts += trace.len() as u64;
        per_site[label].0.push(trace);
        per_site[label].1.push(ok);
    }

    let t0 = Instant::now();
    let (kept, reports, per_class) = span(tr, "traces.sanitize.sanitize", 0, root, |_| {
        sanitize(per_site)
    });
    pass.stages.push(("sanitize_s", secs(t0)));
    let dataset = Dataset::new(kept, w.names.clone());
    let dropped_errors: usize = reports.iter().map(|r| r.dropped_errors).sum();
    let dropped_outliers: usize = reports.iter().map(|r| r.dropped_outliers).sum();
    for (k, v) in [
        ("traces.sanitize.kept", dataset.len()),
        ("traces.sanitize.dropped_errors", dropped_errors),
        ("traces.sanitize.dropped_outliers", dropped_outliers),
    ] {
        pass.counts.insert(k.to_string(), v as f64);
    }
    if per_class < 2 || !balanced(&dataset) {
        pass.problems.push(format!(
            "sanitized dataset unusable: {:?} traces per class",
            dataset.per_class_counts()
        ));
        return pass;
    }

    let t0 = Instant::now();
    let cells = match tr {
        None => run_table2(&dataset, &w.table2),
        Some(_) => {
            let (cells, work) = table2_composed(&dataset, &w.table2, tr, root);
            pass.counts.extend(work);
            cells
        }
    };
    pass.stages.push(("grid_s", secs(t0)));
    if cells.len() != 16 || cells.iter().any(|c| !(0.0..=1.0).contains(&c.mean)) {
        pass.problems
            .push("Table 2 grid incomplete or out of range".into());
    }
    pass.outputs = Json::obj()
        .set(
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        Json::Arr(vec![
                            c.countermeasure.name().into(),
                            (c.n as u64).into(),
                            bits(c.mean).into(),
                            bits(c.std).into(),
                        ])
                    })
                    .collect(),
            ),
        )
        .set("per_class", per_class as u64)
        .set("dropped_errors", dropped_errors as u64)
        .set("dropped_outliers", dropped_outliers as u64)
        .set("dataset", hex(traces_checksum(&dataset.traces)));
    pass
}

/// `stob_bench::run_table2` at app placement, composed from the public
/// parts of `wf::evaluate` (`extract_all`, `Dataset::stratified_split`,
/// `Forest::fit`, `Forest::predict_rows`) so each is its own span.
/// Returns the cells and the grid's work counts.
pub fn table2_composed(
    dataset: &Dataset,
    cfg: &Table2Config,
    tr: Option<&Tracer>,
    parent: Option<usize>,
) -> (Vec<Table2Cell>, Vec<(String, f64)>) {
    let eval = EvalConfig {
        forest: ForestConfig {
            n_trees: cfg.trees,
            ..ForestConfig::default()
        },
        repeats: cfg.repeats,
        seed: cfg.seed,
        ..EvalConfig::default()
    };
    let mut work = [0u64; 5];
    let mut cells = Vec::new();
    for (ci, (cm, n)) in emulate::section3_grid().into_iter().enumerate() {
        let id = ci as u64;
        let cell = span(tr, "bench.grid_cell", id, parent, |cell| {
            let em = EmulateConfig {
                first_n: n,
                ..EmulateConfig::default()
            };
            let root = SimRng::new(cfg.seed).fork(n as u64).fork(cm as u64);
            let rows = span(tr, "defenses.emulate.apply_all", id, cell, |_| {
                emulate::apply_all(cm, &dataset.traces, &em, &root)
            });
            work[0] += dataset.traces.iter().map(|t| t.len() as u64).sum::<u64>();
            work[1] += rows.iter().map(|d| d.trace.len() as u64).sum::<u64>();
            let defended = Dataset::new(
                rows.into_iter().map(|d| d.trace).collect(),
                dataset.class_names.clone(),
            );
            let view = defended.truncated(n);

            let features = span(tr, "wf.features.extract_all", id, cell, |_| {
                extract_all(&view.traces, &eval.features)
            });
            work[2] += features.len() as u64;
            let k = view.n_classes();
            let labels: Vec<usize> = view.traces.iter().map(|t| t.label).collect();
            let mut scores = Vec::with_capacity(eval.repeats);
            for rep in 0..eval.repeats {
                let mut rng = SimRng::new(eval.seed).fork(rep as u64 + 1);
                let (train_idx, test_idx) =
                    span(tr, "traces.dataset.stratified_split", id, cell, |_| {
                        view.stratified_split(eval.test_frac, &mut rng)
                    });
                let x_train: Vec<Vec<f64>> =
                    train_idx.iter().map(|&i| features[i].clone()).collect();
                let y_train: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
                let forest = span(tr, "wf.forest.fit", id, cell, |_| {
                    Forest::fit(&x_train, &y_train, k, &eval.forest, &mut rng)
                });
                let boot = ((x_train.len() as f64) * eval.forest.bootstrap_frac)
                    .round()
                    .max(1.0);
                work[3] += eval.forest.n_trees as u64 * boot as u64;
                let rows: Vec<&[f64]> = test_idx.iter().map(|&i| features[i].as_slice()).collect();
                let pred = span(tr, "wf.forest.predict_rows", id, cell, |_| {
                    forest.predict_rows(&rows)
                });
                work[4] += rows.len() as u64;
                let truth: Vec<usize> = test_idx.iter().map(|&i| labels[i]).collect();
                scores.push(accuracy(&pred, &truth));
            }
            let (mean, std) = mean_std(&scores);
            Table2Cell {
                countermeasure: cm,
                n,
                mean,
                std,
            }
        });
        cells.push(cell);
    }
    let names = [
        "defenses.emulate.pkts_in",
        "defenses.emulate.pkts_out",
        "wf.features.rows",
        "wf.forest.fit.tree_samples",
        "wf.forest.predict_rows.samples",
    ];
    let work = names
        .iter()
        .zip(work)
        .map(|(k, v)| (k.to_string(), v as f64))
        .collect();
    (cells, work)
}

// ---------------------------------------------------------------------
// defense-suite: every suite row at both placements, in batch
// ---------------------------------------------------------------------

/// The 26 (row, placement) cells, in the order the defense matrix uses.
pub fn suite_cells() -> Vec<(DefenseKind, Placement)> {
    DefenseKind::WITH_MACHINES
        .iter()
        .flat_map(|&k| Placement::ALL.iter().map(move |&p| (k, p)))
        .collect()
}

/// The defense-suite corpus and the 26 cells' defense specs.
fn suite_inputs(
    seed: u64,
    size: &Size,
    tr: Option<&Tracer>,
) -> (Vec<Trace>, Vec<Box<dyn Defense>>) {
    let corpus = span(tr, "traces.statgen.generate_corpus", 0, None, |_| {
        generate_corpus(&paper_sites(), size.suite_visits, seed)
    });
    let specs = suite_cells()
        .iter()
        .enumerate()
        .map(|(ci, (kind, _))| {
            span(tr, "stob_bench.suite.spec", ci as u64, None, |_| {
                kind.spec()
            })
        })
        .collect();
    (corpus, specs)
}

fn defense_suite(seed: u64, size: &Size, r: &mut Runner) {
    let (corpus, specs) = r.inputs(|tr| suite_inputs(seed, size, tr));
    let bank = r.inputs(|tr| {
        span(tr, "defenses.TraceBank.new", 0, None, |_| {
            TraceBank::new(&corpus)
        })
    });
    let cells = suite_cells();
    let in_pkts: u64 = corpus.iter().map(|t| t.len() as u64).sum();
    let root = SimRng::new(seed);
    let setup = || {
        let (corpus, specs) = suite_inputs(seed, size, None);
        black_box(TraceBank::new(&corpus));
        black_box(specs);
    };
    r.measure(setup, |tr| {
        span(tr, "bench.pass", 0, None, |pass_span| {
            let mut pass = Pass::default();
            let mut out_cells = Vec::with_capacity(cells.len());
            let mut pkts_out = [0u64; 2];
            let t_stage = Instant::now();
            for (ci, (&(kind, placement), spec)) in cells.iter().zip(&specs).enumerate() {
                let id = ci as u64;
                let t0 = Instant::now();
                let rows = span(tr, "defenses.backend.defend_all", id, pass_span, |_| {
                    defend_all(
                        spec.as_ref(),
                        placement,
                        &corpus,
                        Some(&bank),
                        &root.fork(id + 1),
                        seed ^ ((id + 1) << 32),
                    )
                });
                pass.op_ms.push(secs(t0) * 1e3);
                let (bw, lat) = span(tr, "defenses.overhead", id, pass_span, |_| {
                    corpus
                        .iter()
                        .zip(&rows)
                        .fold((0.0, 0.0), |(bw, lat), (t, d)| {
                            (bw + bandwidth_overhead(t, d), lat + latency_overhead(t, d))
                        })
                });
                let mut out = 0u64;
                let mut dummies = 0u64;
                for (t, d) in corpus.iter().zip(&rows) {
                    pass.ops += 1;
                    out += d.trace.len() as u64;
                    dummies += d.dummy_pkts as u64;
                    let ok = d.trace.is_well_formed()
                        && d.trace.label == t.label
                        && d.trace.visit == t.visit;
                    pass.failed += u64::from(!ok);
                }
                pkts_out[usize::from(placement == Placement::Stack)] += out;
                pass.pkts += in_pkts;
                out_cells.push(Json::Arr(vec![
                    kind.key().into(),
                    placement.name().into(),
                    out.into(),
                    dummies.into(),
                    hex(traces_checksum(rows.iter().map(|d| &d.trace))).into(),
                    bits(bw).into(),
                    bits(lat).into(),
                ]));
            }
            pass.op_stage_s = secs(t_stage);
            pass.stages.push(("defend_s", pass.op_stage_s));
            pass.counts.insert(
                "defenses.defend_all.app.pkts_out".into(),
                pkts_out[0] as f64,
            );
            pass.counts.insert(
                "defenses.defend_all.stack.pkts_out".into(),
                pkts_out[1] as f64,
            );
            pass.counts
                .insert("defenses.pkts_in".into(), in_pkts as f64);
            pass.outputs = Json::obj()
                .set("corpus", hex(traces_checksum(&corpus)))
                .set("cells", Json::Arr(out_cells));
            pass
        })
    });
}

// ---------------------------------------------------------------------
// fleet: streamed per-packet enforcement across ~10^5 resident flows
// ---------------------------------------------------------------------

/// Fleet quick's per-flow shape: the whole population starts within a
/// millisecond, so nearly every flow is resident at once.
fn fleet_config(seed: u64, flows: u64) -> FleetConfig {
    FleetConfig {
        seed,
        flows,
        shards: 0,
        sites: 256,
        pkts_per_flow: (12, 24),
        gap_ns: (20_000, 400_000),
        window: Nanos::from_millis(1),
    }
}

/// FRONT as the fleet campaign configures it.
fn fleet_front() -> FrontConfig {
    FrontConfig {
        n_client: 4,
        n_server: 10,
        w_min: 0.5,
        w_max: 2.0,
        dummy_size: 1514,
    }
}

/// The fleet campaign's registry: a delay default, FRONT on `d % 4 == 1`,
/// split+delay on `d % 4 == 2`, and machine FRONT published as JSON
/// through the sockopt control plane on `d % 4 == 3`.
fn fleet_registry(sites: u32, machine_json: &str, tr: Option<&Tracer>) -> PolicyRegistry {
    let reg = PolicyRegistry::new();
    let mut delay = ObfuscationPolicy::passthrough("fleet-delay");
    delay.delay = DelaySpec::UniformFraction {
        lo_frac: 0.05,
        hi_frac: 0.20,
    };
    span(tr, "stob.registry.bind_defense", 0, None, |_| {
        reg.bind_defense(PolicyKey::Default, Arc::new(delay), Placement::Stack)
    });
    let front = Arc::new(FrontDefense::new(fleet_front()));
    let split = Arc::new(ObfuscationPolicy::split_and_delay("fleet-split"));
    for d in 0..sites {
        let key = PolicyKey::Destination(d);
        let id = u64::from(d);
        match d % 4 {
            1 => span(tr, "stob.registry.bind_defense", id, None, |_| {
                reg.bind_defense(key, front.clone(), Placement::Stack)
            }),
            2 => span(tr, "stob.registry.bind_defense", id, None, |_| {
                reg.bind_defense(key, split.clone(), Placement::Stack)
            }),
            3 => span(tr, "stob.sockopt.publish_machine_json", id, None, |_| {
                publish_machine_json(&reg, key, machine_json, Placement::Stack)
                    .map(drop)
                    .expect("generated FRONT machine passes control-plane validation")
            }),
            _ => {}
        }
    }
    reg
}

fn fleet(seed: u64, size: &Size, r: &mut Runner) {
    let cfg = fleet_config(seed, size.flows);
    let setup = |tr: Option<&Tracer>| {
        let text = front_machine(&fleet_front()).to_json().to_string_compact();
        fleet_registry(cfg.sites, &text, tr)
    };
    let reg = r.inputs(setup);
    r.measure(
        || drop(black_box(setup(None))),
        |tr| {
            span(tr, "bench.pass", 0, None, |root| {
                let mut pass = Pass::default();
                let t0 = Instant::now();
                let rep = span(tr, "stob.fleet.run_fleet", 0, root, |_| {
                    run_fleet(&cfg, &reg)
                });
                pass.op_stage_s = secs(t0);
                pass.op_ms.push(pass.op_stage_s * 1e3);
                pass.stages.push(("run_fleet_s", pass.op_stage_s));
                pass.ops = cfg.flows;
                pass.pkts = rep.egress_pkts;
                if !rep.clean() || rep.flows != cfg.flows {
                    pass.failed = cfg.flows;
                    pass.problems.push(format!(
                        "{} of {} flows done, {} audit violations",
                        rep.flows,
                        cfg.flows,
                        rep.audit.violations.len()
                    ));
                }
                if rep.audit.checks == 0 {
                    pass.problems
                        .push("run_fleet's auditor made no checks".into());
                }
                if rep.peak_resident < cfg.flows / 2 {
                    pass.problems
                        .push(format!("only {} flows resident at peak", rep.peak_resident));
                }
                let fields = [
                    ("flows", rep.flows),
                    ("egress_pkts", rep.egress_pkts),
                    ("egress_bytes", rep.egress_bytes),
                    ("dummy_pkts", rep.dummy_pkts),
                    ("dummy_bytes", rep.dummy_bytes),
                    ("peak_resident", rep.peak_resident),
                    ("sim_end_ns", rep.sim_end.as_nanos()),
                    ("events", rep.events),
                    ("arena_high_water", rep.arena_high_water),
                    ("audit_checks", rep.audit.checks),
                    ("audit_violations", rep.audit.violations.len() as u64),
                ];
                let mut out = Json::obj().set("checksum", hex(rep.checksum));
                for (k, v) in fields {
                    out = out.set(k, v);
                    pass.counts.insert(format!("stob.fleet.{k}"), v as f64);
                }
                pass.outputs = out;
                pass
            })
        },
    );
}

// ---------------------------------------------------------------------
// multipath: one stack-placement cell of the multipath matrix
// ---------------------------------------------------------------------

/// Legs, fault scenario, XOR parity group and observation prefix of the
/// cell (the multipath matrix's `prefix_cap`).
const MP_PIPES: usize = 4;
const MP_SCENARIO: &str = "outage-storm";
const MP_FEC: u32 = 4;
const MP_PREFIX: usize = 150;

/// The clipped statgen corpus, and the padded-random splitter as the
/// control plane hands it back after a JSON publish.
fn multipath_inputs(seed: u64, size: &Size, tr: Option<&Tracer>) -> (Dataset, SplitterSpec) {
    let view = span(tr, "traces.statgen.generate_corpus", 0, None, |_| {
        let sites = paper_sites();
        let names = sites.iter().map(|s| s.name.to_string()).collect();
        Dataset::new(generate_corpus(&sites, size.mp_visits, seed), names).truncated(MP_PREFIX)
    });
    let reg = PolicyRegistry::new();
    let text = splitter_to_json(&SplitterSpec::PaddedRandom).to_string_pretty();
    span(tr, "stob.sockopt.publish_splitter_json", 0, None, |_| {
        publish_splitter_json(&reg, PolicyKey::Destination(1), &text)
            .expect("padded-random splitter passes control-plane validation")
    });
    let spec = span(tr, "stob.registry.resolve_splitter", 0, None, |_| {
        reg.resolve_splitter(0, 1)
            .expect("just-published splitter resolves")
    });
    (view, spec)
}

fn multipath(seed: u64, size: &Size, r: &mut Runner) {
    let (view, spec) = r.inputs(|tr| multipath_inputs(seed, size, tr));
    let eval = EvalConfig {
        forest: ForestConfig {
            n_trees: size.mp_trees,
            ..ForestConfig::default()
        },
        repeats: size.mp_repeats,
        seed,
        ..EvalConfig::default()
    };
    let root_rng = SimRng::new(seed);
    let setup = || drop(black_box(multipath_inputs(seed, size, None)));
    r.measure(setup, |tr| {
        span(tr, "bench.pass", 0, None, |root| {
            let mut pass = Pass::default();
            // `replay_multipath` returns no audit report, so the
            // auditor's violation counter (bumped by every network the
            // auditor is on in) is read around the replays.
            let violations = netsim::telemetry::counter("netsim.audit.violations");
            let violations_before = violations.get();
            if !netsim::audit::Auditor::new().enabled() {
                pass.problems
                    .push("the auditor is off for the replays".into());
            }
            let t_stage = Instant::now();
            let replays = par::par_map(&view.traces, |ti, t| {
                span(
                    tr,
                    "stob_bench.multipath.replay_multipath",
                    ti as u64,
                    root,
                    |_| {
                        let seed = root_rng.fork(ti as u64 + 1).next_u64();
                        let t0 = Instant::now();
                        let out = catch_unwind(AssertUnwindSafe(|| {
                            stob_bench::multipath::replay_multipath(
                                t,
                                &spec,
                                MP_PIPES,
                                MP_SCENARIO,
                                Some(MP_FEC),
                                seed,
                            )
                        }));
                        (out, secs(t0) * 1e3)
                    },
                )
            });
            pass.op_stage_s = secs(t_stage);
            pass.stages.push(("replay_s", pass.op_stage_s));
            let tripped = violations.get() - violations_before;
            if tripped > 0 {
                pass.problems
                    .push(format!("the replays tripped the auditor {tripped} times"));
            }

            let mut merged = Vec::with_capacity(replays.len());
            let mut legs: Vec<Vec<Trace>> = vec![Vec::new(); MP_PIPES];
            let mut leg_pkts = vec![0u64; MP_PIPES];
            for ((out, ms), t) in replays.into_iter().zip(&view.traces) {
                pass.ops += 1;
                pass.op_ms.push(ms);
                let (m, per_leg) = match out {
                    Ok(v) => v,
                    Err(_) => {
                        pass.failed += 1;
                        (
                            Trace::new(t.label, t.visit, Vec::new()),
                            vec![Trace::new(t.label, t.visit, Vec::new()); MP_PIPES],
                        )
                    }
                };
                let leg_sum: usize = per_leg.iter().map(Trace::len).sum();
                if leg_sum != m.len() {
                    pass.failed += 1;
                    pass.problems.push(format!(
                        "trace {}/{}: legs carry {leg_sum} packets, merged view {}",
                        t.label,
                        t.visit,
                        m.len()
                    ));
                }
                pass.pkts += m.len() as u64;
                for (i, l) in per_leg.into_iter().enumerate() {
                    leg_pkts[i] += l.len() as u64;
                    legs[i].push(l);
                }
                merged.push(m);
            }
            let merged = Dataset::new(merged, view.class_names.clone());
            let legs: Vec<Dataset> = legs
                .into_iter()
                .map(|l| Dataset::new(l, view.class_names.clone()))
                .collect();
            if !balanced(&merged) {
                pass.problems.push("merged view classes unbalanced".into());
            }
            let t0 = Instant::now();
            let rep = span(tr, "wf.vantage.evaluate_vantage", 0, root, |_| {
                wf::evaluate_vantage(&merged, &legs, &eval)
            });
            pass.stages.push(("vantage_s", secs(t0)));
            let accs = std::iter::once(&rep.merged).chain(&rep.per_path);
            if accs.clone().any(|a| !(0.0..=1.0).contains(&a.mean)) {
                pass.problems.push("vantage accuracy out of range".into());
            }
            pass.outputs = Json::obj()
                .set(
                    "accuracy",
                    Json::Arr(
                        accs.flat_map(|a| [bits(a.mean).into(), bits(a.std).into()])
                            .collect(),
                    ),
                )
                .set("merged_pkts", pass.pkts)
                .set("leg_pkts", leg_pkts);
            pass
        })
    });
}
