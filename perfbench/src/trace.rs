//! In-memory span recorder for the traced replay.
//!
//! Spans are kept in memory while the replay runs and written out once, when
//! the benchmark ends. Timestamps are offsets from the tracer's origin, read
//! through `sla_netlist::wallclock::now()` like every other clock read of the
//! workspace.

use sla_netlist::wallclock::{self, StatsInstant};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer span name, such as `core.single_node`.
    pub name: &'static str,
    /// Offset of the span start from the tracer origin.
    pub start: Duration,
    /// Offset of the span end from the tracer origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or pipeline operation) the span belongs to.
    pub request: u64,
}

/// Records nested spans of a single-threaded replay.
pub struct Tracer {
    origin: StatsInstant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[must_use]
pub struct Open(usize);

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: wallclock::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tags the spans opened from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            request: self.request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Open(id)
    }

    /// Closes `span`, which must be the innermost open span, and returns
    /// its duration.
    pub fn exit(&mut self, span: Open) -> Duration {
        let popped = self.open.pop();
        assert_eq!(popped, Some(span.0), "spans must close innermost first");
        let closed = &mut self.spans[span.0];
        closed.end = self.origin.elapsed();
        closed.end - closed.start
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let result = f();
        self.exit(open);
        result
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover. Spans of one thread nest without overlapping,
    /// so the children's durations add up to the covered time.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_time) {
            let own = (span.end - span.start).saturating_sub(*children);
            *out.entry(span.name).or_default() += own;
        }
        out
    }

    /// Durations of every span named `name`, in opening order.
    #[cfg(test)]
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// The spans as JSON lines: name, start and end in nanoseconds, parent
    /// index (`-1` for a root span) and request id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos(),
                parent,
                span.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        t.span("inner", || {
            let mut x = 0u64;
            for i in 0..100_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
            x
        });
        t.exit(outer);
        let selfs = t.self_times();
        let outer_total = t.durations("outer")[0];
        let inner_total = t.durations("inner")[0];
        assert_eq!(selfs["outer"] + selfs["inner"], outer_total);
        assert_eq!(selfs["inner"], inner_total);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
