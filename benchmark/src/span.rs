//! Outside-in tracing: the benchmark wraps each call it makes into a layer
//! crate in a span (name, start, end, parent). Spans stay in memory until
//! the run ends; self time is a span's duration minus the part of it that
//! its children cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span, so children on any thread can name it as
/// their parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// One finished span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only runs
/// its closure, so untraced runs pay one branch per wrapped call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives the
    /// new span's id (`None` when tracing is off) to pass to its children.
    pub fn span<T>(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        // Ids only need to be unique; they publish no other data.
        let id = SpanId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a thread panicked while recording a span"),
        )
    }
}

/// Self time of each span, in the order of `spans`: its duration minus the
/// union of its children's intervals clipped to its own. Children that ran
/// at the same time on different threads are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Count, total and self time of every span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id: SpanId(id),
            parent: parent.map(SpanId),
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // root [0,100) > mid [10,60) > leaf [20,50); second child [70,90).
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "mid", 10, 60),
            span(3, Some(2), "leaf", 20, 50),
            span(4, Some(1), "other", 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["root"].self_ns, 30);
        assert_eq!(totals["mid"].total_ns, 50);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_siblings_are_counted_once() {
        // Two workers ran children of the same parent at the same time.
        let spans = vec![
            span(1, None, "core.matrix", 0, 100),
            span(2, Some(1), "job", 10, 80),
            span(3, Some(1), "job", 20, 90),
            span(4, Some(1), "job", 95, 120), // runs past its parent: clipped
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 80 - 5);
        assert_eq!(totals_by_name(&spans)["job"].total_ns, 70 + 70 + 25);
    }

    #[test]
    fn sibling_spans_from_two_worker_threads() {
        let tracer = Tracer::new(true);
        let barrier = Barrier::new(2);
        tracer.span(None, "parent", |parent| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        tracer.span(parent, "worker", |_| {
                            // Both children are open before either closes.
                            barrier.wait();
                            barrier.wait();
                        })
                    });
                }
            });
        });
        let spans = tracer.drain();
        assert_eq!(spans.len(), 3);
        let (workers, parents): (Vec<&Span>, Vec<&Span>) =
            spans.iter().partition(|s| s.name == "worker");
        let parent = parents[0];
        assert!(workers.iter().all(|w| w.parent == Some(parent.id)));
        let overlap_start = workers.iter().map(|w| w.start_ns).max().unwrap();
        let overlap_end = workers.iter().map(|w| w.end_ns).min().unwrap();
        assert!(overlap_start < overlap_end, "children must overlap");
        let union = workers.iter().map(|w| w.end_ns).max().unwrap()
            - workers.iter().map(|w| w.start_ns).min().unwrap();
        let totals = totals_by_name(&spans);
        assert_eq!(totals["parent"].self_ns, parent.duration_ns() - union);
        assert!(totals["worker"].total_ns > union, "the sum double-counts");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let v = tracer.span(None, "x", |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(tracer.drain().is_empty());
    }
}
