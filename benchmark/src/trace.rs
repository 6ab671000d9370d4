//! In-memory spans around the calls into each layer.
//!
//! The benchmark records a span at every layer boundary it crosses *from
//! outside* (spans inside the program are a later change). Two kinds:
//!
//! * a **plain** span is one interval — an episode, a solve, a runtime
//!   run, a twin replay — opened and closed on the benchmark's main thread;
//! * an **aggregate** span stands for a boundary crossed 10⁵–10⁶ times per
//!   episode (protocol callbacks, codec calls, oracle checks): the probe
//!   that wraps it keeps a count and a busy-time sum and reports them as
//!   one span under the plain span they ran inside. Recording a million
//!   individual spans would cost more than the work being traced.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its children cover: the union of plain children (clipped to the
//! parent), plus the busy time of aggregate children, never below zero.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Boundary name, `layer.what`.
    pub name: &'static str,
    /// Interval start.
    pub start_ns: u64,
    /// Interval end.
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
    /// Which operation of the episode (solve / advance / instance index).
    pub op_id: u64,
    /// Whether this span sums many crossings (see the module docs).
    pub aggregate: bool,
    /// Crossings this span stands for: 1 for a plain span.
    pub count: u64,
    /// Time spent inside the boundary: the duration for a plain span, the
    /// summed call time for an aggregate.
    pub busy_ns: u64,
}

/// Token for an open span; hand it back to [`Tracer::exit`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

/// Span recorder. Disabled, it still times (the workloads read their
/// durations from it) but keeps nothing.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { origin: Instant::now(), enabled, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a plain span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u64) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            let start_ns = self.ns(started);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                op_id,
                aggregate: false,
                count: 1,
                busy_ns: 0,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, started }
    }

    /// Closes `open` and returns how long it was open.
    pub fn exit(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(i) = open.index {
            assert_eq!(self.stack.pop(), Some(i), "spans must close innermost first");
            let end_ns = self.ns(now);
            let span = &mut self.spans[i];
            span.end_ns = end_ns;
            span.busy_ns = end_ns - span.start_ns;
        }
        now.duration_since(open.started)
    }

    /// Runs `f` inside a plain span; returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        let open = self.enter(name, op_id);
        let out = f(self);
        (out, self.exit(open))
    }

    /// Records what a probe counted while the innermost open span ran.
    pub fn aggregate(&mut self, name: &'static str, count: u64, busy: Duration) {
        let Some(&parent) = self.stack.last() else { return };
        if count == 0 {
            return;
        }
        let (start_ns, op_id) = (self.spans[parent].start_ns, self.spans[parent].op_id);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: self.ns(Instant::now()),
            parent: Some(parent),
            op_id,
            aggregate: true,
            count,
            busy_ns: busy.as_nanos() as u64,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut rows: Vec<(&'static str, u64, u64)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(r) => {
                    r.1 += self_ns;
                    r.2 += span.count;
                }
                None => rows.push((span.name, self_ns, span.count)),
            }
        }
        rows
    }

    /// The spans as a JSON document (see the README for the layout).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        let _ = writeln!(out, "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op_id\": {}, \"aggregate\": {}, \"count\": {}, \
                 \"busy_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.op_id, s.aggregate, s.count, s.busy_ns
            );
            out.push_str(if i + 1 == self.spans.len() { "\n" } else { ",\n" });
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span (same order as `spans`).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if s.aggregate {
                return s.busy_ns;
            }
            // Union of the plain children, clipped to this span.
            let mut intervals: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| &spans[c])
                .filter(|c| !c.aggregate)
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in intervals {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            let aggregated: u64 = children[i]
                .iter()
                .map(|&c| &spans[c])
                .filter(|c| c.aggregate)
                .map(|c| c.busy_ns)
                .sum();
            (s.end_ns - s.start_ns).saturating_sub(covered).saturating_sub(aggregated)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
            aggregate: false,
            count: 1,
            busy_ns: end - start,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // root 0..100 ⊃ child 10..60 ⊃ grandchild 20..30
        let spans = vec![plain(0, 100, None), plain(10, 60, Some(0)), plain(20, 30, Some(1))];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn overlapping_children_are_counted_by_their_union() {
        // Children 10..50 and 30..70 overlap on 30..50; a third sticks out
        // past the parent and is clipped.
        let spans = vec![
            plain(0, 100, None),
            plain(10, 50, Some(0)),
            plain(30, 70, Some(0)),
            plain(90, 140, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn aggregate_children_subtract_their_busy_time_and_never_go_negative() {
        let mut agg = plain(0, 100, Some(0));
        agg.aggregate = true;
        agg.count = 1000;
        agg.busy_ns = 30;
        let spans = vec![plain(0, 100, None), plain(0, 20, Some(0)), agg.clone()];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
        // Busy time summed over two threads can exceed the interval.
        agg.busy_ns = 170;
        let spans = vec![plain(0, 100, None), agg];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn tracer_nests_by_call_order_and_a_disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(true);
        let ((), outer) = t.time("outer", 7, |t| {
            let ((), _) = t.time("inner", 8, |t| {
                t.aggregate("calls", 5, Duration::from_nanos(1));
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (None, Some(0), Some(1))
        );
        assert_eq!((spans[2].count, spans[2].op_id), (5, 8));
        assert!(spans[0].end_ns - spans[0].start_ns <= outer.as_nanos() as u64);
        assert!(t.to_json("w", 1).contains("\"name\": \"calls\""));

        let mut off = Tracer::new(false);
        let (v, _) = off.time("outer", 0, |_| 3);
        off.aggregate("calls", 5, Duration::from_nanos(1));
        assert_eq!((v, off.spans().len()), (3, 0));
    }
}
