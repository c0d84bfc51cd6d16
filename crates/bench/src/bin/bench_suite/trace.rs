//! Spans recorded by the traced pass.
//!
//! The benchmark measures every layer from outside: a span is opened around
//! a call into a layer's public function, never inside the repo's code.
//! Spans live in one pre-sized `Vec` (no allocation while a span is open
//! once the capacity holds) and are written as JSON when the run ends.

use crate::json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Shared by the spans of one operation (an epoch, a request batch, a
    /// delta).
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, op_id: u64) -> usize {
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn end(&mut self, idx: usize) -> u64 {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = now;
        self.spans[idx].duration_ns()
    }

    /// Times one call as a span and hands back its result.
    pub fn span<T>(&mut self, name: &'static str, layer: &'static str, op_id: u64, call: impl FnOnce() -> T) -> T {
        let idx = self.begin(name, layer, op_id);
        let out = call();
        self.end(idx);
        out
    }

    /// Records time a callee accumulated on its own (a scorer wrapper that
    /// is called from inside the layer under test) as one child span of
    /// `parent`, so the parent's self time excludes it.
    pub fn child_total(&mut self, parent: usize, name: &'static str, layer: &'static str, total_ns: u64) {
        let start = self.spans[parent].start_ns;
        let op_id = self.spans[parent].op_id;
        self.spans.push(Span {
            name,
            layer,
            start_ns: start,
            end_ns: start + total_ns,
            parent: Some(parent),
            op_id,
        });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the time its direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self times (ns) of every span called `name`.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let own = self.self_times_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64)
            .collect()
    }

    /// Sum of the durations of `name` spans per operation, in op order.
    pub fn sum_per_op_ns(&self, name: &str) -> Vec<f64> {
        let mut sums: Vec<(u64, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match sums.last_mut() {
                Some((op, total)) if *op == s.op_id => *total += s.duration_ns() as f64,
                _ => sums.push((s.op_id, s.duration_ns() as f64)),
            }
        }
        sums.into_iter().map(|(_, total)| total).collect()
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"name\": {}, \"layer\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}{}\n",
                json::quote(s.name),
                json::quote(s.layer),
                s.start_ns,
                s.end_ns,
                s.op_id,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tracer from explicit `(name, start, end, parent)` rows.
    fn fixture(rows: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::with_capacity(rows.len());
        for &(name, start_ns, end_ns, parent) in rows {
            t.spans.push(Span {
                name,
                layer: "test",
                start_ns,
                end_ns,
                parent,
                op_id: 0,
            });
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = fixture(&[
            ("op", 0, 100, None),
            ("a", 10, 40, Some(0)),
            ("b", 50, 70, Some(0)),
            ("b.inner", 55, 60, Some(2)),
        ]);
        // op: 100 - 30 - 20; the grandchild is charged to `b` only.
        assert_eq!(t.self_times_ns(), vec![50, 30, 15, 5]);
        assert_eq!(t.self_ns("b"), vec![15.0]);
    }

    #[test]
    fn children_longer_than_the_parent_saturate_at_zero() {
        let t = fixture(&[("eval", 0, 10, None), ("score", 0, 12, Some(0))]);
        assert_eq!(t.self_times_ns()[0], 0);
    }

    #[test]
    fn live_spans_nest_and_sum_per_op() {
        let mut t = Tracer::with_capacity(8);
        for op in 0..2u64 {
            let e = t.begin("epoch", "train", op);
            t.span("step", "core", op, || std::hint::black_box(1 + 1));
            t.span("step", "core", op, || std::hint::black_box(2 + 2));
            t.end(e);
        }
        assert_eq!(t.spans().len(), 6);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[4].parent, Some(3));
        assert_eq!(t.sum_per_op_ns("step").len(), 2);
        let own = t.self_times_ns();
        assert!(own[0] <= t.spans()[0].duration_ns());
        let parsed = json::parse(&t.to_json()).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), 6);
    }

    #[test]
    fn accumulated_callee_time_becomes_a_child() {
        let mut t = fixture(&[("eval", 100, 200, None)]);
        t.child_total(0, "score", "eval", 60);
        assert_eq!(t.self_ns("eval"), vec![40.0]);
        assert_eq!(t.durations_ns("score"), vec![60.0]);
    }
}
