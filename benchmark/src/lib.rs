//! Stob's benchmark: four workloads that drive the workspace's public
//! APIs end to end, timed in host wall-clock time, plus a traced mode
//! that splits each workload into its layers.
//!
//! A run builds its workload's inputs, then repeats whole passes of the
//! workload until the requested time is used; between passes it times
//! the workload's set-up again (the median is `setup_s`). Every pass's
//! deterministic outputs are hashed; all passes of a run must agree, and
//! at the default seed they must equal the digests stored in
//! `expected.json`. At any other seed the workload's invariants are
//! checked instead.
//!
//! Simulated quantities (sim time, the `stack::cpu` cost model) are never
//! reported as a speed: they enter only as checked outputs and counts.

pub mod catalog;
pub mod trace;
pub mod workloads;

use netsim::json::Json;
use std::collections::BTreeMap;
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Instant;
use trace::{Span, Tracer};

/// Seed whose outputs are pinned by `expected.json`.
pub const DEFAULT_SEED: u64 = 1;

/// Pin the program's environment knobs for a run: the worker thread
/// count, app placement for Table 2, the runtime invariant auditor on in
/// every simulated network (release builds leave it off unless
/// `STOB_AUDIT=1`), and no environment-selected faults or flow traces.
pub fn pin_knobs(threads: usize) {
    std::env::set_var("STOB_THREADS", threads.to_string());
    std::env::set_var("STOB_PLACEMENT", "app");
    std::env::set_var("STOB_AUDIT", "1");
    for knob in ["STOB_FAULTS", "STOB_TRACE_OUT"] {
        std::env::remove_var(knob);
    }
    netsim::par::set_threads(threads);
}

/// Set-up is timed in samples of at least `SETUP_SAMPLE_S` (a fast
/// set-up is repeated within a sample, so a microsecond set-up is timed
/// over thousands of calls): `SETUP_FIRST_SAMPLES` before the first pass,
/// and after every pass enough samples to take `SETUP_SHARE` of its time.
/// A shared host swings between fast and slow spells lasting about a
/// second, and a short set-up feels each spell in full; samples spread
/// evenly over the run let `setup_s`, their median, see all of them
/// rather than the moment the process started.
const SETUP_SAMPLE_S: f64 = 20e-3;
const SETUP_FIRST_SAMPLES: usize = 3;
const SETUP_SHARE: f64 = 0.1;

/// Input sizes of the four workloads.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `closed-world`: visits per paper site.
    pub visits: usize,
    /// `closed-world`: forest size and repeats of each Table 2 cell.
    pub trees: usize,
    pub repeats: usize,
    /// `defense-suite`: statgen visits per site.
    pub suite_visits: usize,
    /// `fleet`: flows per campaign.
    pub flows: u64,
    /// `multipath`: statgen visits per site, and the vantage forest.
    pub mp_visits: usize,
    pub mp_trees: usize,
    pub mp_repeats: usize,
}

impl Size {
    /// The benchmark's sizes; `expected.json` pins their outputs.
    pub const FULL: Size = Size {
        visits: 40,
        trees: 30,
        repeats: 3,
        suite_visits: 20,
        flows: 120_000,
        mp_visits: 20,
        mp_trees: 20,
        mp_repeats: 3,
    };

    /// A few-second size for the benchmark's own tests.
    pub const SMALL: Size = Size {
        visits: 6,
        trees: 8,
        repeats: 2,
        suite_visits: 4,
        flows: 4_000,
        mp_visits: 3,
        mp_trees: 8,
        mp_repeats: 2,
    };
}

/// What one pass of a workload did.
#[derive(Debug)]
pub struct Pass {
    /// Operations attempted: visits, defended traces, flows or replays.
    pub ops: u64,
    /// Operations that panicked, came back incomplete or tripped the
    /// auditor.
    pub failed: u64,
    /// Packets those operations carried.
    pub pkts: u64,
    /// Wall seconds of the stage that performs the operations.
    pub op_stage_s: f64,
    /// Wall milliseconds of each operation, where each is its own call.
    pub op_ms: Vec<f64>,
    /// Named stage times, for the report.
    pub stages: Vec<(&'static str, f64)>,
    /// Deterministic outputs; their hash is the pass digest.
    pub outputs: Json,
    /// Deterministic work counts read from the outputs.
    pub counts: BTreeMap<String, f64>,
    /// Broken invariants.
    pub problems: Vec<String>,
}

impl Default for Pass {
    fn default() -> Self {
        Pass {
            ops: 0,
            failed: 0,
            pkts: 0,
            op_stage_s: 0.0,
            op_ms: Vec::new(),
            stages: Vec::new(),
            outputs: Json::Null,
            counts: BTreeMap::new(),
            problems: Vec::new(),
        }
    }
}

impl Pass {
    pub fn digest(&self) -> String {
        format!("{:#018x}", fnv(self.outputs.to_string_compact().as_bytes()))
    }
}

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Hex rendering of an `f64`'s bits, so digests compare values bit for bit.
pub fn bits(x: f64) -> String {
    format!("{:#018x}", x.to_bits())
}

/// The spans, counters and span profile of one traced pass.
#[derive(Debug, Default)]
pub struct Traced {
    pub spans: Vec<Span>,
    pub counters: BTreeMap<String, f64>,
    pub profile: BTreeMap<String, f64>,
}

/// One measured pass.
#[derive(Debug)]
pub struct Measured {
    pub pass: Pass,
    pub wall_s: f64,
    pub traced: Option<Traced>,
}

/// Drives set-up and passes, and keeps what they measured.
pub struct Runner {
    trace: bool,
    seconds: f64,
    /// Wall time of one whole set-up of the workload, per sample; their
    /// median is `setup_s`.
    pub setup_samples: Vec<f64>,
    /// Spans and counter deltas of building the measured inputs.
    pub setup: Traced,
    pub passes: Vec<Measured>,
}

impl Runner {
    pub fn new(trace: bool, seconds: f64) -> Runner {
        Runner {
            trace,
            seconds,
            setup_samples: Vec::new(),
            setup: Traced::default(),
            passes: Vec::new(),
        }
    }

    /// Build the inputs the passes use. A traced run traces the build
    /// and keeps the counters it moved. (`measure` times set-up.)
    pub fn inputs<T>(&mut self, build: impl FnOnce(Option<&Tracer>) -> T) -> T {
        let tracer = self.trace.then(Tracer::default);
        let before = trace::counters();
        let value = build(tracer.as_ref());
        for (k, v) in trace::counters() {
            let delta = v - before.get(&k).copied().unwrap_or(0.0);
            *self.setup.counters.entry(k).or_default() += delta;
        }
        if let Some(t) = tracer {
            let base = self.setup.spans.len();
            self.setup
                .spans
                .extend(t.into_spans().into_iter().map(|mut s| {
                    s.parent = s.parent.map(|p| p + base);
                    s
                }));
        }
        value
    }

    /// Repeat passes until the run's time is used (at least one pass),
    /// sampling `setup` — the workload's whole set-up, results dropped —
    /// before the first pass and between passes (see `SETUP_SAMPLE_S`).
    /// A traced run alternates untraced and traced passes, so it also
    /// measures what tracing costs; the program's counters and span
    /// profile are reset before each traced pass.
    pub fn measure(
        &mut self,
        setup: impl FnMut() + Send,
        mut pass: impl FnMut(Option<&Tracer>) -> Pass,
    ) {
        let (ask, asked) = mpsc::channel::<usize>();
        let (answer, answered) = mpsc::channel::<Vec<f64>>();
        std::thread::scope(|scope| {
            scope.spawn(move || setup_sampler(setup, asked, answer));
            let mut samples = std::mem::take(&mut self.setup_samples);
            let mut sample = |n: usize| {
                ask.send(n).expect("set-up sampler is running");
                samples.extend(answered.recv().expect("set-up sampler answers"));
            };
            sample(SETUP_FIRST_SAMPLES);

            let min_passes = if self.trace { 2 } else { 1 };
            let start = Instant::now();
            while self.passes.len() < min_passes || start.elapsed().as_secs_f64() < self.seconds {
                let traced = self.trace && self.passes.len() % 2 == 1;
                if traced {
                    netsim::telemetry::reset();
                }
                let tracer = traced.then(Tracer::default);
                let t0 = Instant::now();
                let p = pass(tracer.as_ref());
                let wall_s = t0.elapsed().as_secs_f64();
                let traced = tracer.map(|t| Traced {
                    spans: t.into_spans(),
                    counters: trace::counters(),
                    profile: trace::profile(),
                });
                self.passes.push(Measured {
                    pass: p,
                    wall_s,
                    traced,
                });
                sample((SETUP_SHARE * wall_s / SETUP_SAMPLE_S).round().max(1.0) as usize);
            }
            self.setup_samples = samples;
            // Closing the channel ends the sampler; the scope joins it.
            drop(ask);
        });
    }

    /// Median time of one whole set-up.
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_samples)
    }
}

/// Time `setup` on a thread of its own, so that its allocations come from
/// a heap the passes never touch: a microsecond set-up timed on the main
/// thread runs up to twice as slow after some passes as after others.
/// Answers each request for `n` samples with their per-call times.
fn setup_sampler(mut setup: impl FnMut(), asked: Receiver<usize>, answer: Sender<Vec<f64>>) {
    // Calibrate the batch on a tenth of a sample, so that a cold first
    // call does not shrink every sample.
    let t0 = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || t0.elapsed().as_secs_f64() < SETUP_SAMPLE_S / 10.0 {
        setup();
        calls += 1;
    }
    let batch =
        (calls as f64 * SETUP_SAMPLE_S / t0.elapsed().as_secs_f64()).clamp(1.0, 1e7) as usize;
    for n in asked {
        let samples = (0..n)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..batch {
                    setup();
                }
                t0.elapsed().as_secs_f64() / batch as f64
            })
            .collect();
        if answer.send(samples).is_err() {
            return;
        }
    }
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        netsim::percentile(v, p)
    }
}

/// Peak resident memory of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
