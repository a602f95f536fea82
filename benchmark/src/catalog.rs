//! Which metrics the benchmark reports, and how a traced pass's spans and
//! counters become per-layer metrics.

use crate::trace::span_stats;
use crate::workloads::suite_cells;
use crate::{Pass, Traced};
use std::collections::BTreeMap;

/// An end-to-end metric: name, unit, and whether higher is better.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        higher_is_better: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        higher_is_better: false,
    },
];

/// A per-layer metric and the workloads whose layers produce it. On every
/// other workload the layer does no work and the metric reads 0.
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub workloads: &'static [&'static str],
}

const CW: &[&str] = &["closed-world"];
const DS: &[&str] = &["defense-suite"];
const FL: &[&str] = &["fleet"];
const MP: &[&str] = &["multipath"];
const CW_MP: &[&str] = &["closed-world", "multipath"];
const CW_DS: &[&str] = &["closed-world", "defense-suite"];
const DS_FL: &[&str] = &["defense-suite", "fleet"];
const FL_MP: &[&str] = &["fleet", "multipath"];
const ALL: &[&str] = &crate::workloads::NAMES;

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<LayerMetric> {
    let fixed: &[(&str, &str, &[&str])] = &[
        // traces.loader
        ("traces.loader.load_page.busy_s", "s", CW),
        ("traces.loader.load_page.self_s", "s", CW),
        ("traces.loader.load_page.calls", "count", CW),
        // stack.net + netsim.event
        ("stack.net.event_loop.busy_s", "s", CW_MP),
        ("stack.net.events", "count", CW_MP),
        ("netsim.wheel.cascades", "count", CW_MP),
        ("stack.net.host_ns_per_event", "ns", CW_MP),
        ("netsim.wheel.cascades_per_event", "ratio", CW_MP),
        // stack.tcp / cc / egress / qdisc / nic
        ("stack.egress.segments", "count", CW_MP),
        ("stack.tcp.retransmits", "count", CW),
        ("stack.tcp.retransmits_per_segment", "ratio", CW),
        ("stack.cc.loss_events", "count", CW),
        ("stack.qdisc.enqueued", "count", CW_MP),
        ("stack.nic.packets_tx", "count", CW_MP),
        ("stack.nic.segments_tx", "count", CW_MP),
        // traces.sanitize
        ("traces.sanitize.sanitize.busy_s", "s", CW),
        ("traces.sanitize.kept", "count", CW),
        ("traces.sanitize.dropped_errors", "count", CW),
        ("traces.sanitize.dropped_outliers", "count", CW),
        // defenses.emulate
        ("defenses.emulate.apply_all.busy_s", "s", CW),
        ("defenses.emulate.traces", "count", CW_DS),
        ("defenses.emulate.pkts_in", "count", CW),
        ("defenses.emulate.pkts_out", "count", CW),
        // wf.features
        ("wf.features.extract_all.busy_s", "s", CW),
        ("wf.features.rows", "count", CW),
        ("wf.features.ns_per_trace", "ns", CW),
        // wf.forest
        ("traces.dataset.stratified_split.busy_s", "s", CW),
        ("wf.forest.fit.busy_s", "s", CW),
        ("wf.forest.fit.tree_samples", "count", CW),
        ("wf.forest.fit.ns_per_tree_sample", "ns", CW),
        ("wf.forest.predict_rows.busy_s", "s", CW),
        ("wf.forest.predict_rows.samples", "count", CW),
        ("wf.forest.predict_rows.ns_per_sample", "ns", CW),
        // defenses.backend / stob.defense / stack.egress / stob.machine
        ("defenses.defend_all.app.busy_s", "s", DS),
        ("defenses.defend_all.stack.busy_s", "s", DS),
        ("defenses.defend_all.app.pkts_out", "count", DS),
        ("defenses.defend_all.stack.pkts_out", "count", DS),
        ("defenses.overhead.busy_s", "s", DS),
        ("defense.machine.transitions", "count", DS_FL),
        ("defense.machine.pad_pkts", "count", DS_FL),
        // stob.fleet + netsim.pool
        ("stob.fleet.run_fleet.busy_s", "s", FL),
        ("stob.fleet.events", "count", FL),
        ("stob.fleet.egress_pkts", "count", FL),
        ("stob.fleet.dummy_pkts", "count", FL),
        ("stob.fleet.peak_resident", "count", FL),
        ("stob.fleet.arena_high_water", "count", FL),
        ("stob.fleet.audit_checks", "count", FL),
        ("netsim.pool.arena_allocs", "count", FL),
        ("stob.fleet.host_ns_per_event", "ns", FL),
        ("stob.fleet.host_ns_per_egress_pkt", "ns", FL),
        // stob.registry / stob.sockopt / netsim.json
        ("stob.sockopt.publish_machine_json.busy_s", "s", FL),
        ("stob.sockopt.publish_splitter_json.busy_s", "s", MP),
        ("stob.registry.resolutions", "count", FL_MP),
        ("stob.registry.defense_binds", "count", FL),
        ("stob.registry.machine_binds", "count", FL),
        ("stob.registry.splitter_binds", "count", MP),
        // stack.mux + netsim.multilink / fault
        ("stob_bench.multipath.replay_multipath.busy_s", "s", MP),
        ("stob_bench.multipath.replay_multipath.self_s", "s", MP),
        ("stob_bench.multipath.replay_multipath.calls", "count", MP),
        ("stack.mux.tx_pkts", "count", MP),
        ("stack.mux.parity_pkts", "count", MP),
        ("stack.mux.fec_recovered", "count", MP),
        ("stack.mux.failovers", "count", MP),
        ("stack.mux.hello_retries", "count", MP),
        ("stack.mux.dup_drops", "count", MP),
        ("stack.net.pipe_pkts", "count", MP),
        ("stack.net.pipe_drops", "count", MP),
        ("stack.mux.parity_per_tx", "ratio", MP),
        // wf.vantage
        ("wf.vantage.evaluate_vantage.busy_s", "s", MP),
        // the benchmark itself
        ("bench.trace_overhead_s", "s", ALL),
    ];
    let mut out: Vec<LayerMetric> = fixed
        .iter()
        .map(|&(name, unit, workloads)| LayerMetric {
            name: name.to_string(),
            unit,
            workloads,
        })
        .collect();
    // One host-cost figure per defense-suite cell.
    let at = out
        .iter()
        .position(|m| m.name == "defenses.overhead.busy_s")
        .expect("catalog lists defenses.overhead.busy_s");
    let cells = suite_cells()
        .into_iter()
        .map(|(kind, placement)| LayerMetric {
            name: cell_metric(kind.key(), placement.name()),
            unit: "ns",
            workloads: DS,
        });
    out.splice(at..at, cells);
    out
}

fn cell_metric(key: &str, placement: &str) -> String {
    format!("defenses.defend_all.{key}.{placement}.ns_per_pkt")
}

/// The benchmark spans that the program's event loop runs inside (the
/// `stack.net.event_loop` span of the program's own profile): a visit
/// and a replay.
const RUNS_EVENT_LOOP: [&str; 2] = [
    "traces.loader.load_page",
    "stob_bench.multipath.replay_multipath",
];

/// Self time of benchmark span `name`, less the program's event loop
/// where that runs inside it.
fn own_self_s(name: &str, self_s: f64, event_loop: Option<f64>) -> f64 {
    match event_loop {
        Some(ev) if RUNS_EVENT_LOOP.contains(&name) => (self_s - ev).max(0.0),
        _ => self_s,
    }
}

/// Every number one traced pass yields, by metric name: the benchmark's
/// span totals (`<span>.busy_s`, `.self_s`, `.calls`), the program's span
/// profile (`<path>.busy_s`), the program's counters and the pass's own
/// counts (set-up counters included), and the ratios derived from them.
pub fn ledger(t: &Traced, pass: &Pass, setup: &Traced) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    for (path, wall) in &t.profile {
        m.insert(format!("{path}.busy_s"), *wall);
    }
    let event_loop = t.profile.get("stack.net.event_loop").copied();
    for spans in [&setup.spans, &t.spans] {
        for (name, s) in span_stats(spans) {
            m.insert(format!("{name}.busy_s"), s.busy_s);
            m.insert(
                format!("{name}.self_s"),
                own_self_s(name, s.self_s, event_loop),
            );
            m.insert(format!("{name}.calls"), s.calls as f64);
        }
    }
    for counters in [&setup.counters, &t.counters, &pass.counts] {
        for (k, v) in counters {
            *m.entry(k.clone()).or_default() += v;
        }
    }

    // Defense-suite cells, by span id.
    let in_pkts = m.get("defenses.pkts_in").copied();
    let cells = suite_cells();
    for s in t
        .spans
        .iter()
        .filter(|s| s.name == "defenses.backend.defend_all")
    {
        let (kind, placement) = cells[s.id as usize];
        let busy = s.end - s.start;
        *m.entry(format!("defenses.defend_all.{}.busy_s", placement.name()))
            .or_default() += busy;
        if let Some(n) = in_pkts {
            m.insert(cell_metric(kind.key(), placement.name()), busy * 1e9 / n);
        }
    }

    let ratios: [(&str, &str, &str, f64); 9] = [
        (
            "stack.net.host_ns_per_event",
            "stack.net.event_loop.busy_s",
            "stack.net.events",
            1e9,
        ),
        (
            "netsim.wheel.cascades_per_event",
            "netsim.wheel.cascades",
            "stack.net.events",
            1.0,
        ),
        (
            "stack.tcp.retransmits_per_segment",
            "stack.tcp.retransmits",
            "stack.egress.segments",
            1.0,
        ),
        (
            "wf.features.ns_per_trace",
            "wf.features.extract_all.busy_s",
            "wf.features.rows",
            1e9,
        ),
        (
            "wf.forest.fit.ns_per_tree_sample",
            "wf.forest.fit.busy_s",
            "wf.forest.fit.tree_samples",
            1e9,
        ),
        (
            "wf.forest.predict_rows.ns_per_sample",
            "wf.forest.predict_rows.busy_s",
            "wf.forest.predict_rows.samples",
            1e9,
        ),
        (
            "stob.fleet.host_ns_per_event",
            "stob.fleet.run_fleet.busy_s",
            "stob.fleet.events",
            1e9,
        ),
        (
            "stob.fleet.host_ns_per_egress_pkt",
            "stob.fleet.run_fleet.busy_s",
            "stob.fleet.egress_pkts",
            1e9,
        ),
        (
            "stack.mux.parity_per_tx",
            "stack.mux.parity_pkts",
            "stack.mux.tx_pkts",
            1.0,
        ),
    ];
    for (name, num, den, scale) in ratios {
        if let (Some(a), Some(b)) = (m.get(num), m.get(den)) {
            if *b > 0.0 {
                m.insert(name.to_string(), a * scale / b);
            }
        }
    }
    m
}

/// Self time per span of one traced pass, for the "where the time goes"
/// table: the benchmark's spans, and the program's event loop as a child
/// of the visit or replay that runs it.
pub fn self_times(t: &Traced) -> Vec<(String, f64)> {
    let event_loop = t.profile.get("stack.net.event_loop").copied();
    let mut v: Vec<(String, f64)> = span_stats(&t.spans)
        .into_iter()
        .map(|(name, s)| (name.to_string(), own_self_s(name, s.self_s, event_loop)))
        .collect();
    if let Some(ev) = event_loop {
        v.push(("stack.net.event_loop".to_string(), ev));
    }
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
    v
}
