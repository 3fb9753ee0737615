//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into a
//! layer's public functions; the program itself is not instrumented.
//! Each span has a name, a start, an end, the span that caused it, the id
//! of the request it belongs to (0 outside serving traffic), and the
//! thread it ran on.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// A small id of the calling thread, for telling `par` lanes apart.
    static LANE: u64 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

fn lane() -> u64 {
    LANE.with(|l| *l)
}

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span, times in nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `model.train.AE`.
    pub name: Cow<'static, str>,
    /// Start.
    pub start_ns: u64,
    /// End (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request id shared by every span of one request.
    pub request: u64,
    /// The thread the span ran on.
    pub lane: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { t0: Instant::now(), spans: Mutex::new(Vec::with_capacity(1 << 12)) }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` receives the span's id so that calls it
    /// makes can name it as their parent.
    pub fn span<R>(
        &self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("span log poisoned by a panicking thread");
            let now = self.now_ns();
            spans.push(Span {
                name: name.into(),
                start_ns: now,
                end_ns: now,
                parent,
                request: 0,
                lane: lane(),
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span log poisoned by a panicking thread")[id].end_ns = end;
        out
    }

    /// Record an already-timed span (serving requests are timed by the
    /// generator and logged after the fact). The name is static so that a
    /// span per request costs no allocation.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("span log poisoned by a panicking thread");
        spans.push(Span {
            name: Cow::Borrowed(name),
            start_ns,
            end_ns,
            parent,
            request,
            lane: lane(),
        });
        spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned by a panicking thread").clone()
    }
}

/// Total duration of the spans whose name satisfies `pred`, in seconds.
pub fn sum_s(spans: &[Span], pred: impl Fn(&str) -> bool) -> f64 {
    spans.iter().filter(|s| pred(&s.name)).map(|s| s.dur_ns()).sum::<u64>() as f64 * 1e-9
}

/// Length of the union of `intervals`, in nanoseconds.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match open {
            Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                open = Some((s, e));
            }
            None => open = Some((s, e)),
        }
    }
    total + open.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of it that its
/// children cover.
pub fn self_ns(spans: &[Span], id: SpanId) -> u64 {
    let children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(spans[id].start_ns), s.end_ns.min(spans[id].end_ns)))
        .collect();
    spans[id].dur_ns() - union_ns(children)
}

/// Sum of self times along the blocking path below `id`: the span's own
/// self time, plus, for each group of overlapping children (a parallel
/// fan-out), the blocking paths of the children that ran on the lane of
/// the child that ended last (a lane runs its share of a fan-out one item
/// after another).
pub fn blocking_self_ns(spans: &[Span], id: SpanId) -> u64 {
    let mut children: Vec<SpanId> =
        (0..spans.len()).filter(|&c| spans[c].parent == Some(id)).collect();
    children.sort_by_key(|&c| spans[c].start_ns);
    let mut total = self_ns(spans, id);
    let mut group: Vec<SpanId> = Vec::new();
    let mut group_end = 0;
    let mut close = |group: &mut Vec<SpanId>| {
        if let Some(&last) = group.iter().max_by_key(|&&c| spans[c].end_ns) {
            let lane = spans[last].lane;
            total += group
                .iter()
                .filter(|&&c| spans[c].lane == lane)
                .map(|&c| blocking_self_ns(spans, c))
                .sum::<u64>();
        }
        group.clear();
    };
    for c in children {
        if !group.is_empty() && spans[c].start_ns >= group_end {
            close(&mut group);
        }
        group_end = if group.is_empty() { spans[c].end_ns } else { group_end.max(spans[c].end_ns) };
        group.push(c);
    }
    close(&mut group);
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name: name.into(), start_ns, end_ns, parent, request: 0, lane: 0 }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span("run", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a: union 10..60
            span("c", 80, 90, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 50 - 10);
        assert_eq!(self_ns(&spans, 3), 10);
    }

    #[test]
    fn blocking_path_follows_the_last_finisher_of_a_fan_out() {
        let mut spans = vec![
            span("run", 0, 100, None),
            span("prep", 0, 20, Some(0)),
            span("m1", 20, 70, Some(0)),
            span("m2", 20, 95, Some(0)),
            span("m2.train", 20, 90, Some(3)),
        ];
        (spans[2].lane, spans[3].lane, spans[4].lane) = (1, 2, 2);
        // run self 5 (95..100) + prep 20 + m2 (self 5 + train 70).
        assert_eq!(blocking_self_ns(&spans, 0), 5 + 20 + 5 + 70);
        assert_eq!(blocking_self_ns(&spans, 0), 100);
        assert!((sum_s(&spans, |n| n.starts_with('m')) - 195e-9).abs() < 1e-15);
    }

    #[test]
    fn blocking_path_follows_the_lane_that_finished_last() {
        // Three items on two lanes: lane 1 runs a then c, lane 2 runs b.
        let mut spans = vec![
            span("fan", 0, 100, None),
            span("a", 0, 40, Some(0)),
            span("b", 0, 60, Some(0)),
            span("c", 40, 100, Some(0)),
        ];
        (spans[1].lane, spans[2].lane, spans[3].lane) = (1, 2, 1);
        assert_eq!(blocking_self_ns(&spans, 0), 40 + 60);
    }
}
