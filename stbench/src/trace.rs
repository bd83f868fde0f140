//! In-memory spans recorded from the benchmark's own files, around calls
//! into each layer (choosing-metrics §4). Spans inside the program are a
//! later change; this is the ruler they will be checked against.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; `NO_SPAN` when there is none.
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

/// One timed interval. Spans of one frame share `stream` and `frame`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (`NO_SPAN` for a root).
    pub parent: SpanId,
    pub stream: u32,
    pub frame: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans into memory until the round ends. A disabled tracer reads
/// no clock and stores nothing, so the tracing-off rounds pay one branch
/// per call site.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled: false,
        }
    }

    /// A recording tracer with room for `capacity` spans up front, so the
    /// timed window does not pay for vector growth.
    pub fn on(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            enabled: true,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: SpanId, stream: u32, frame: u32) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            stream,
            frame,
        });
        (self.spans.len() - 1) as SpanId
    }

    #[inline]
    pub fn close(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Time `f` as a span.
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        stream: u32,
        frame: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, stream, frame);
        let result = f();
        self.close(id);
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: usize,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times: each span's duration minus the part its direct
    /// children cover.
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn add(&mut self, other: &SpanTotals) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }

    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Aggregate spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_SPAN {
            child_ns[span.parent as usize] += span.duration_ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        by_name.entry(span.name).or_default().add(&SpanTotals {
            count: 1,
            total_ns: span.duration_ns(),
            self_ns: span.duration_ns().saturating_sub(children),
        });
    }
    by_name
}

/// Spans as a JSON array of `{name, start_ns, end_ns, parent, stream,
/// frame_index}` objects (`parent` is an index into the array, or null).
pub fn spans_to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|span| {
                Value::obj([
                    ("name", Value::str(span.name)),
                    ("start_ns", Value::Num(span.start_ns as f64)),
                    ("end_ns", Value::Num(span.end_ns as f64)),
                    (
                        "parent",
                        if span.parent == NO_SPAN {
                            Value::Null
                        } else {
                            Value::Num(span.parent as f64)
                        },
                    ),
                    ("stream", Value::Num(span.stream as f64)),
                    ("frame_index", Value::Num(span.frame as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            stream: 0,
            frame: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("frame", 0, 100, NO_SPAN),
            span("infer", 10, 70, 0),
            span("gemm", 20, 50, 1),
            span("send", 70, 90, 0),
        ];
        let t = totals(&spans);
        assert_eq!(t["frame"].self_ns, 100 - 60 - 20);
        assert_eq!(t["infer"].self_ns, 60 - 30);
        assert_eq!(t["gemm"].self_ns, 30);
        assert_eq!(t["send"].total_ns, 20);
        // Self times of a tree add up to its root's duration.
        let sum: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        let id = tracer.open("frame", NO_SPAN, 0, 0);
        assert_eq!(id, NO_SPAN);
        tracer.close(id);
        assert_eq!(tracer.span("infer", id, 0, 0, || 7), 7);
        assert!(tracer.into_spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_and_orders() {
        let mut tracer = Tracer::on(4);
        let frame = tracer.open("frame", NO_SPAN, 3, 9);
        tracer.span("infer", frame, 3, 9, || std::hint::black_box(1 + 1));
        tracer.close(frame);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let json = spans_to_json(&spans).render();
        assert!(json.contains("\"frame_index\":9"), "{json}");
    }
}
