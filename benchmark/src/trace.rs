//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing here reaches into a crate: spans inside
//! the program are a later change (ROADMAP item 5).

use ensembler_tensor::JsonValue;
use std::time::Instant;

/// One timed call: which layer function, when, caused by which span, on
/// behalf of which operation. Spans of one `predict` share its `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.function` of the public call the span wraps.
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, in the same log.
    pub parent: Option<usize>,
    /// Operation identifier shared by the spans of one request; `None` for
    /// a stand-alone kernel or codec probe.
    pub op: Option<u64>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An append-only span list. Each caller thread owns one (no lock on the
/// timed path); [`SpanLog::absorb`] merges them when the window ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from `epoch`; logs that will be
    /// merged must share it.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Opens a span now and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: Option<u64>) -> usize {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another log's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self times (ms) of every span called `name`.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let self_ns = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent, op}`.
    pub fn to_json(&self) -> JsonValue {
        let opt = |v: Option<u64>| v.map_or(JsonValue::Null, |v| JsonValue::Number(v as f64));
        JsonValue::Array(
            self.spans
                .iter()
                .map(|s| {
                    JsonValue::Object(vec![
                        ("name".to_string(), JsonValue::String(s.name.to_string())),
                        ("start_ns".to_string(), JsonValue::Number(s.start_ns as f64)),
                        ("end_ns".to_string(), JsonValue::Number(s.end_ns as f64)),
                        ("parent".to_string(), opt(s.parent.map(|p| p as u64))),
                        ("op".to_string(), opt(s.op)),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct child spans cover. Children may overlap one another (parallel
/// legs) and are clipped to the parent, so covered time is the length of the
/// *union* of the clipped child intervals, never a plain sum.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let lo = span.start_ns.max(p.start_ns);
            let hi = span.end_ns.min(p.end_ns);
            if lo < hi {
                children[parent].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: None,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(30, 70, Some(0)),
            span(35, 40, Some(2)), // grandchild: only its own parent pays
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 35, 5]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
        let spans = [
            span(100, 200, None),
            span(110, 160, Some(0)),
            span(140, 180, Some(0)), // overlaps the first by 20
            span(190, 250, Some(0)), // runs past the parent: clipped to 10
            span(0, 50, Some(0)),    // entirely outside: covers nothing
        ];
        // union = [110,180] + [190,200] = 80
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn a_leaf_span_is_all_self_time() {
        assert_eq!(self_times_ns(&[span(5, 9, None)]), vec![4]);
    }

    #[test]
    fn absorb_rebases_parent_indices() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        let root = a.open("predict", None, Some(0));
        a.span("stage", Some(root), Some(0), || ());
        a.close(root);
        let mut b = SpanLog::new(epoch);
        let root_b = b.open("predict", None, Some(1));
        b.span("stage", Some(root_b), Some(1), || ());
        b.close(root_b);
        a.absorb(b);
        let parents: Vec<Option<usize>> = a.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
        assert_eq!(a.durations_ms("stage").len(), 2);
        for (span, own) in a.spans().iter().zip(self_times_ns(a.spans())) {
            assert!(own <= span.end_ns - span.start_ns);
        }
    }
}
