//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer's public API: a layer name, a label, start and end, the
//! parent span, and an operation id shared by every span of one compile
//! pass, request or session. Nothing is written until [`Tracer::take_spans`]
//! drains the table at the end of the run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (ids start at 1).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Operation id shared by all spans of one pass, request or session.
    pub op: u64,
    /// Layer name, after the module the call enters (`core.search`).
    pub layer: &'static str,
    /// Free-form detail (chain, model or step name).
    pub label: String,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has been opened but not yet closed.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    op: u64,
    layer: &'static str,
    start: Instant,
}

impl Open {
    /// This span's id, for use as a child's parent.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The operation this span belongs to.
    pub fn op(&self) -> u64 {
        self.op
    }
}

/// Span recorder. A disabled tracer still times spans (callers use the
/// durations) but records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_span: AtomicU64,
    next_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_span: AtomicU64::new(1),
            next_op: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh operation id.
    pub fn new_op(&self) -> u64 {
        self.next_op.fetch_add(1, Ordering::Relaxed)
    }

    /// Open a span of `layer` under `parent` (or a root span of `op`).
    pub fn open(&self, layer: &'static str, op: u64, parent: Option<&Open>) -> Open {
        Open {
            id: self.next_span.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(Open::id),
            op: parent.map_or(op, Open::op),
            layer,
            start: Instant::now(),
        }
    }

    /// Close a span, recording it when enabled. Returns its duration in
    /// seconds.
    pub fn close(&self, open: Open, label: impl Into<String>) -> f64 {
        let end = Instant::now();
        if self.enabled {
            let span = Span {
                id: open.id,
                parent: open.parent,
                op: open.op,
                layer: open.layer,
                label: label.into(),
                start_ns: open.start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
            };
            self.spans
                .lock()
                .expect("a span writer panicked while holding the span table")
                .push(span);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Drain every recorded span, ordered by id.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a span writer panicked while holding the span table"),
        );
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span, in nanoseconds and in `spans` order: its
/// duration minus the part of its interval covered by its direct
/// children (overlapping children are counted once, and children are
/// clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals over a span table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded for the layer.
    pub spans: u64,
    /// Summed span durations, ms.
    pub total_ms: f64,
    /// Summed self times, ms.
    pub self_ms: f64,
}

/// Group a span table by layer.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.layer).or_default();
        t.spans += 1;
        t.total_ms += s.dur_ns() as f64 / 1e6;
        t.self_ms += self_ns as f64 / 1e6;
    }
    out
}

/// Spans whose direct children sum to more than the span itself —
/// impossible for sequential children, so any hit is a tracing bug or a
/// child recorded against the wrong parent. Returns the offending ids.
pub fn overfull_parents(spans: &[Span]) -> Vec<u64> {
    let mut child_sum: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_sum.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .filter(|s| child_sum.get(&s.id).is_some_and(|&c| c > s.dur_ns()))
        .map(|s| s.id)
        .collect()
}

/// The span table as JSON rows.
pub fn spans_json(spans: &[Span]) -> serde_json::Value {
    let selfs = self_times(spans);
    serde_json::Value::Array(
        spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                serde_json::json!({
                    "id": s.id,
                    "parent": s.parent.map_or(serde_json::Value::Null, serde_json::Value::from),
                    "op": s.op,
                    "layer": s.layer,
                    "label": s.label.clone(),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_ns": self_ns,
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            layer: "l",
            label: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,70).
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 15, 25),
            span(4, Some(1), 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        // Two overlapping children [10,30) and [20,50), plus one that
        // runs past the parent's end [90,120): covered = 40 + 10.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 50);
        // Child durations sum to 20 + 30 + 30 = 80 ≤ 100: not overfull.
        assert!(overfull_parents(&spans).is_empty());
        let over = vec![
            span(1, None, 0, 10),
            span(2, Some(1), 0, 8),
            span(3, Some(1), 2, 9),
        ];
        assert_eq!(overfull_parents(&over), vec![1]);
    }

    #[test]
    fn tracer_records_only_when_enabled_and_shares_the_op_id() {
        for enabled in [false, true] {
            let t = Tracer::new(enabled);
            let op = t.new_op();
            let root = t.open("pass", op, None);
            let child = t.open("child", 0, Some(&root));
            assert_eq!(child.op(), op);
            let child_s = t.close(child, "c");
            let root_s = t.close(root, "r");
            assert!(root_s >= child_s);
            let spans = t.take_spans();
            if enabled {
                assert_eq!(spans.len(), 2);
                assert_eq!(spans[1].parent, Some(spans[0].id));
                assert!(spans.iter().all(|s| s.op == op));
                let totals = layer_totals(&spans);
                assert!(totals["pass"].self_ms <= totals["pass"].total_ms);
            } else {
                assert!(spans.is_empty());
            }
        }
    }
}
