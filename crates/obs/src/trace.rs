//! Per-query span tracing, a bounded ring of recent traces, and a
//! slow-query log.
//!
//! A [`Trace`] is created at request dispatch and threaded (by shared
//! handle) through the layers a request crosses: cache lookup, scatter,
//! per-shard search, gather, why-not phases. Each layer opens a
//! [`SpanGuard`] that records its wall time on drop, or stamps an
//! externally-timed span with [`Trace::add_span_elapsed`] (used by pool
//! workers that already measured their own duration).
//!
//! Finished traces go into a [`TraceLog`]: a fixed-capacity ring of the
//! most recent traces plus a top-N slowest list. The ring uses one tiny
//! per-slot mutex (never contended across slots) so readers can scrape
//! `GET /debug/slow` without pausing writers; the query hot path itself
//! holds no lock while spans are open — span records are appended under
//! the trace's own uncontended mutex only at span close.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sentinel parent id for root spans.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span inside a trace.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u32,
    pub parent: u32,
    pub name: String,
    /// Offset from the trace start, nanoseconds.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// The work count the span's layer reported, if it reports one (the
    /// top-k's `postings` span: objects scored; its `scatter` span: k-NN
    /// nodes expanded).
    pub count: Option<u64>,
}

struct TraceInner {
    label: String,
    started: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRecord>>,
}

/// A shared handle to an in-flight trace. Cloning is cheap (`Arc`).
#[derive(Clone)]
pub struct Trace {
    inner: Arc<TraceInner>,
}

impl Trace {
    pub fn new(label: impl Into<String>) -> Trace {
        Trace {
            inner: Arc::new(TraceInner {
                label: label.into(),
                started: Instant::now(),
                next_id: AtomicU32::new(0),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.inner.started.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Open a root span; it records itself when the guard drops.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard {
        self.span_with_parent(NO_PARENT, name)
    }

    fn span_with_parent(&self, parent: u32, name: impl Into<String>) -> SpanGuard {
        SpanGuard {
            trace: self.clone(),
            id: self.inner.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.into(),
            start_ns: self.now_ns(),
            count: None,
        }
    }

    /// Record a span that ends now and started `dur_ns` ago (for work
    /// timed externally, e.g. inside a pool worker). Returns the span id.
    pub fn add_span_elapsed(&self, parent: u32, name: impl Into<String>, dur_ns: u64) -> u32 {
        let end = self.now_ns();
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(SpanRecord {
            id,
            parent,
            name: name.into(),
            start_ns: end.saturating_sub(dur_ns),
            dur_ns,
            count: None,
        });
        id
    }

    fn push(&self, rec: SpanRecord) {
        self.inner.spans.lock().unwrap_or_else(|e| e.into_inner()).push(rec);
    }

    pub fn elapsed_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Close the trace: copy out the recorded spans with the total elapsed
    /// time. The handle stays usable (other clones may still be alive),
    /// so `finish` takes `&self`.
    pub fn finish(&self) -> FinishedTrace {
        let total_ns = self.now_ns();
        let mut spans = self.inner.spans.lock().unwrap_or_else(|e| e.into_inner()).clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        FinishedTrace {
            label: self.inner.label.clone(),
            total_ns,
            spans,
            seq: 0,
        }
    }
}

/// RAII span: records its duration into the owning trace on drop.
pub struct SpanGuard {
    trace: Trace,
    id: u32,
    parent: u32,
    name: String,
    start_ns: u64,
    count: Option<u64>,
}

impl SpanGuard {
    /// Attaches the layer's work count to the span.
    pub fn set_count(&mut self, count: u64) {
        self.count = Some(count);
    }

    /// The id of this span, usable as a parent for externally-timed spans.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Open a child span of this one.
    pub fn child(&self, name: impl Into<String>) -> SpanGuard {
        self.trace.span_with_parent(self.id, name)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = self.trace.now_ns();
        self.trace.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            count: self.count,
        });
    }
}

/// A completed trace: label, total latency, and the closed spans sorted by
/// start offset.
#[derive(Clone, Debug)]
pub struct FinishedTrace {
    pub label: String,
    pub total_ns: u64,
    pub spans: Vec<SpanRecord>,
    /// Monotone admission number assigned by the [`TraceLog`].
    pub seq: u64,
}

impl FinishedTrace {
    /// Children of `parent` (use [`NO_PARENT`] for roots), in start order.
    pub fn children_of(&self, parent: u32) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == parent)
    }
}

struct SlowLog {
    cap: usize,
    /// Fast-path admission floor: the smallest total_ns currently kept.
    /// Traces faster than this skip the lock entirely once the log is full.
    floor_ns: AtomicU64,
    entries: Mutex<Vec<Arc<FinishedTrace>>>,
}

impl SlowLog {
    fn new(cap: usize) -> SlowLog {
        SlowLog {
            cap,
            floor_ns: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        }
    }

    fn offer(&self, t: &Arc<FinishedTrace>) {
        if self.cap == 0 || t.total_ns < self.floor_ns.load(Ordering::Relaxed) {
            return;
        }
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.push(Arc::clone(t));
        entries.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.seq.cmp(&b.seq)));
        entries.truncate(self.cap);
        if entries.len() == self.cap {
            self.floor_ns
                .store(entries.last().map(|e| e.total_ns).unwrap_or(0), Ordering::Relaxed);
        }
    }

    fn slowest(&self) -> Vec<Arc<FinishedTrace>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// Bounded store of finished traces: a ring of the most recent plus the
/// top-N slowest.
pub struct TraceLog {
    ring: Vec<Mutex<Option<Arc<FinishedTrace>>>>,
    head: AtomicUsize,
    seq: AtomicU64,
    slow: SlowLog,
}

impl TraceLog {
    /// `ring_cap` bounds the recent-trace ring; `slow_cap` bounds the
    /// slow-query log. Either may be 0 to disable that half.
    pub fn new(ring_cap: usize, slow_cap: usize) -> TraceLog {
        TraceLog {
            ring: (0..ring_cap).map(|_| Mutex::new(None)).collect(),
            head: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            slow: SlowLog::new(slow_cap),
        }
    }

    /// Admit a finished trace; returns the shared handle (with its
    /// admission `seq` stamped) so callers can render it inline.
    pub fn record(&self, mut t: FinishedTrace) -> Arc<FinishedTrace> {
        t.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let t = Arc::new(t);
        if !self.ring.is_empty() {
            let slot = self.head.fetch_add(1, Ordering::Relaxed) % self.ring.len();
            *self.ring[slot].lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&t));
        }
        self.slow.offer(&t);
        t
    }

    /// Number of traces admitted so far.
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// True when both capacities are 0 — nothing offered would be
    /// retained, so callers can skip building traces entirely.
    pub fn is_disabled(&self) -> bool {
        self.ring.is_empty() && self.slow.cap == 0
    }

    /// The retained recent traces, most recent first.
    pub fn recent(&self) -> Vec<Arc<FinishedTrace>> {
        let mut out: Vec<Arc<FinishedTrace>> = self
            .ring
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        out.sort_by_key(|t| std::cmp::Reverse(t.seq));
        out
    }

    /// The slow-query log, slowest first.
    pub fn slowest(&self) -> Vec<Arc<FinishedTrace>> {
        self.slow.slowest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sort() {
        let t = Trace::new("q1");
        {
            let root = t.span("dispatch");
            {
                let _lookup = root.child("cache_lookup");
            }
            let scatter = root.child("scatter");
            t.add_span_elapsed(scatter.id(), "shard0", 1000);
            t.add_span_elapsed(scatter.id(), "shard1", 2000);
        }
        let f = t.finish();
        assert_eq!(f.spans.len(), 5);
        let roots: Vec<_> = f.children_of(NO_PARENT).collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "dispatch");
        let kids: Vec<_> = f.children_of(roots[0].id).map(|s| s.name.clone()).collect();
        assert!(kids.contains(&"cache_lookup".to_string()));
        assert!(kids.contains(&"scatter".to_string()));
        let scatter_id = f.spans.iter().find(|s| s.name == "scatter").unwrap().id;
        assert_eq!(f.children_of(scatter_id).count(), 2);
        assert!(f.total_ns >= f.spans.iter().map(|s| s.dur_ns).max().unwrap());
    }

    #[test]
    fn ring_wraps_and_keeps_most_recent() {
        let log = TraceLog::new(4, 0);
        for i in 0..10 {
            log.record(Trace::new(format!("t{i}")).finish());
        }
        let recent = log.recent();
        assert_eq!(recent.len(), 4);
        assert_eq!(recent[0].label, "t9");
        assert_eq!(recent[3].label, "t6");
        assert_eq!(log.recorded(), 10);
    }

    #[test]
    fn slow_log_keeps_top_n_by_duration() {
        let log = TraceLog::new(2, 3);
        for (label, ns) in [("a", 50), ("b", 500), ("c", 10), ("d", 300), ("e", 400), ("f", 5)] {
            let mut f = Trace::new(label).finish();
            f.total_ns = ns;
            log.record(f);
        }
        let slow = log.slowest();
        let labels: Vec<_> = slow.iter().map(|t| t.label.as_str()).collect();
        assert_eq!(labels, vec!["b", "e", "d"]);
    }

    #[test]
    fn zero_capacity_is_safe() {
        let log = TraceLog::new(0, 0);
        log.record(Trace::new("x").finish());
        assert!(log.recent().is_empty());
        assert!(log.slowest().is_empty());
    }
}
