//! Layer recording: spans around each call into a layer, plus named
//! counters, on top of `respec_trace::Trace`.
//!
//! Span names are the layer metric stems (`opt.coarsen`, `sim.busy`, …);
//! the text before the first `.` is the layer. Spans named `root:*` are
//! the attribution roots: the time a root does not hand to a child span is
//! the run's unattributed time.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use respec_trace::{EventKind, Span, Trace, TraceEvent};

/// Span and counter sink for one measured phase. A disabled recorder
/// records nothing, so the untraced runs pay for neither spans nor counts.
pub struct Rec {
    trace: Trace,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Rec {
    pub fn new(enabled: bool) -> Rec {
        Rec {
            trace: if enabled {
                Trace::new()
            } else {
                Trace::disabled()
            },
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Opens a span named after a layer metric stem (or `root:*`).
    pub fn span(&self, name: &'static str) -> Span {
        let layer = name.split(['.', ':']).next().unwrap_or(name);
        self.trace.span(layer, name)
    }

    /// Adds `v` to a named counter (no-op when disabled).
    pub fn add(&self, name: &'static str, v: f64) {
        if self.enabled() {
            *self
                .counts
                .lock()
                .expect("counter lock")
                .entry(name)
                .or_insert(0.0) += v;
        }
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .lock()
            .expect("counter lock")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Self seconds per span name, plus the attribution totals.
    pub fn self_times(&self) -> SelfTimes {
        self_times(&self.trace.events())
    }
}

/// Result of [`self_times`].
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Self seconds per span name, roots excluded.
    pub by_name: HashMap<String, f64>,
    /// Summed duration of the `root:*` spans.
    pub wall_s: f64,
    /// Summed self time of the `root:*` spans: time no layer claimed.
    pub unattributed_s: f64,
    /// Summed self time of the layer spans nested under a root.
    pub attributed_s: f64,
}

/// A span's self time is its duration minus the part of it that child
/// spans on the same thread cover. Spans are RAII guards, so on one thread
/// they nest properly and a stack recovers each span's parent.
pub fn self_times(events: &[TraceEvent]) -> SelfTimes {
    let mut spans: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .collect();
    spans.sort_by_key(|e| (e.tid, e.t_ns, std::cmp::Reverse(e.dur_ns)));
    let mut child_ns = vec![0u64; spans.len()];
    let mut under_root = vec![false; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let (tid, start) = (spans[i].tid, spans[i].t_ns);
        while let Some(&top) = stack.last() {
            let t = spans[top];
            if t.tid == tid && t.t_ns + t.dur_ns > start {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            child_ns[parent] += spans[i].dur_ns;
            under_root[i] = under_root[parent] || spans[parent].name.starts_with("root:");
        }
        stack.push(i);
    }
    let mut out = SelfTimes::default();
    for (i, span) in spans.iter().enumerate() {
        let self_s = span.dur_ns.saturating_sub(child_ns[i]) as f64 * 1e-9;
        if span.name.starts_with("root:") {
            out.wall_s += span.dur_ns as f64 * 1e-9;
            out.unattributed_s += self_s;
        } else {
            if under_root[i] {
                out.attributed_s += self_s;
            }
            *out.by_name.entry(span.name.clone()).or_insert(0.0) += self_s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, t_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Span,
            name: name.to_string(),
            category: "test",
            t_ns,
            dur_ns,
            tid,
            metrics: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let events = vec![
            span("root:run", 1, 0, 1000),
            span("tune.wall", 1, 100, 600),
            span("sim.busy", 1, 150, 200),
            span("frontend.busy", 1, 800, 150),
            // A worker thread's span overlaps the tune but is not its child.
            span("sim.busy", 2, 120, 500),
        ];
        let t = self_times(&events);
        assert!((t.wall_s - 1e-6).abs() < 1e-12);
        assert!((t.unattributed_s - 250e-9).abs() < 1e-12);
        assert!((t.attributed_s - 750e-9).abs() < 1e-12);
        assert!((t.by_name["tune.wall"] - 400e-9).abs() < 1e-12);
        assert!((t.by_name["sim.busy"] - 700e-9).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Rec::new(false);
        drop(rec.span("root:run"));
        rec.add("sim.runs", 1.0);
        assert_eq!(rec.count("sim.runs"), 0.0);
        assert_eq!(rec.self_times().wall_s, 0.0);
    }
}
