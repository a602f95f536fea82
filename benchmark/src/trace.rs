//! The benchmark's own spans, and snapshots of the counters and span
//! profile the program already keeps.
//!
//! Spans are recorded from the benchmark's code around each call it
//! makes into a layer's public function; nothing inside the crates is
//! instrumented. A span has a name, a start, an end, a parent span and an
//! id shared by the spans of one visit, trace, cell or replay. Spans stay
//! in memory until the run ends.

use netsim::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// In-memory span recorder for one pass (or one set-up). Shared by the
/// worker threads of a parallel stage, hence the mutex.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a traced call panicked")
    }

    fn open(&self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let now = self.t0.elapsed().as_secs_f64();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            id,
            parent,
            start: now,
            end: now,
        });
        spans.len() - 1
    }

    fn close(&self, idx: usize) {
        let now = self.t0.elapsed().as_secs_f64();
        self.lock()[idx].end = now;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("a traced call panicked")
    }
}

/// Run `f` inside a span when tracing, or just run it. `f` receives the
/// new span's index, to pass as the parent of the spans it opens.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> R,
) -> R {
    match tracer {
        None => f(None),
        Some(t) => {
            let idx = t.open(name, id, parent);
            let out = f(Some(idx));
            t.close(idx);
            out
        }
    }
}

/// Summed wall time, self time and call count of the spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    pub busy_s: f64,
    pub self_s: f64,
    pub calls: u64,
}

/// Busy and self time per span name. A span's self time is its duration
/// minus the part of it that its child spans cover (children may run in
/// parallel, so covered time is the union of their intervals).
pub fn span_stats(spans: &[Span]) -> BTreeMap<&'static str, SpanStat> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let busy = s.end - s.start;
        let e = out.entry(s.name).or_default();
        e.busy_s += busy;
        e.self_s += (busy - covered(kids, s.start, s.end)).max(0.0);
        e.calls += 1;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if b <= a {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// The program's counters and gauges (`netsim::telemetry::metrics_json`)
/// by name. Only names the program has emitted in this process appear.
pub fn counters() -> BTreeMap<String, f64> {
    let snap = netsim::telemetry::metrics_json();
    let mut out = BTreeMap::new();
    for section in ["counters", "gauges"] {
        if let Some(Json::Obj(entries)) = snap.get(section) {
            for (k, v) in entries {
                out.insert(k.clone(), v.as_f64().unwrap_or(0.0));
            }
        }
    }
    out
}

/// The program's own span profile (`netsim::telemetry::wall_profile_json`)
/// as wall seconds per span path.
pub fn profile() -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Json::Obj(entries) = netsim::telemetry::wall_profile_json() {
        for (k, v) in entries {
            out.insert(k, v.get("wall_secs").and_then(Json::as_f64).unwrap_or(0.0));
        }
    }
    out
}

/// Spans as JSON, for the file a traced run writes when it ends.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                let j = Json::obj()
                    .set("name", s.name)
                    .set("id", s.id)
                    .set("start_s", s.start)
                    .set("end_s", s.end);
                match s.parent {
                    Some(p) => j.set("parent", p as u64),
                    None => j,
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            sp("root", None, 0.0, 10.0),
            sp("kid", Some(0), 1.0, 4.0),
            sp("kid", Some(0), 2.0, 5.0),
            sp("kid", Some(0), 8.0, 12.0),
        ];
        let st = span_stats(&spans);
        assert_eq!(st["root"].busy_s, 10.0);
        // Children cover [1, 5] and [8, 10] of the root.
        assert_eq!(st["root"].self_s, 4.0);
        assert_eq!(st["kid"].calls, 3);
        assert_eq!(st["kid"].busy_s, 10.0);
        assert_eq!(st["kid"].self_s, 10.0);
    }
}
