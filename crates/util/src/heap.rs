//! Heap helpers for best-first search and top-k maintenance.
//!
//! Two pieces:
//!
//! * [`Scored`] — a `(score, payload)` pair ordered by score then payload,
//!   giving deterministic tie-breaking inside `BinaryHeap`. The spatial
//!   keyword top-k algorithm (paper §3.3) pops the *highest-bound* entry
//!   first, so `BinaryHeap<Scored<T>>` (a max-heap) is the natural fit.
//! * [`TopK`] — a bounded collector that keeps the k best-scored items seen
//!   so far, with the *threshold* (current k-th best score) exposed so
//!   search can prune.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::float::OrderedF64;

/// A score/payload pair with a total order: by score, ties broken towards
/// the *smaller* payload (a greater `Scored` has higher score, or equal
/// score and smaller payload).
///
/// The payload tie-break keeps heap pop order deterministic across runs and
/// matches the workspace-wide ranking convention (score descending, id
/// ascending), which the paper's ranking definition needs — ranks must be
/// total for the rank-update sweep of the preference-adjustment module to
/// be exact.
#[derive(Clone, Debug)]
pub struct Scored<T> {
    /// The ordering key (e.g. a score or score upper bound).
    pub score: OrderedF64,
    /// The carried item.
    pub item: T,
}

impl<T> Scored<T> {
    /// Creates a new scored entry.
    #[inline]
    pub fn new(score: f64, item: T) -> Self {
        Scored {
            score: OrderedF64(score),
            item,
        }
    }
}

impl<T: Eq> PartialEq for Scored<T> {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.item == other.item
    }
}

impl<T: Eq> Eq for Scored<T> {}

impl<T: Ord> PartialOrd for Scored<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for Scored<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .cmp(&other.score)
            .then_with(|| other.item.cmp(&self.item))
    }
}

/// Bounded top-k collector: retains the `k` items with the highest scores.
///
/// Internally a min-heap of size ≤ k over [`Scored`] entries (the *worst*
/// retained item sits at the top so it can be evicted in O(log k)).
/// Ties on score are broken towards the *smaller* payload, matching the
/// deterministic ranking used across the workspace.
///
/// ```
/// use yask_util::TopK;
/// let mut t = TopK::new(2);
/// t.push(0.1, 10u64);
/// t.push(0.9, 20);
/// t.push(0.5, 30);
/// let out = t.into_sorted_vec();
/// assert_eq!(out.len(), 2);
/// assert_eq!(out[0].item, 20); // best first
/// assert_eq!(out[1].item, 30);
/// ```
#[derive(Clone, Debug)]
pub struct TopK<T: Ord> {
    k: usize,
    // Min-heap via Reverse ordering on Scored.
    heap: BinaryHeap<std::cmp::Reverse<Scored<T>>>,
}

impl<T: Ord> TopK<T> {
    /// Creates a collector retaining the best `k` items. `k == 0` retains
    /// nothing. Nothing is reserved up front: `k` may come straight from
    /// a client, and the heap grows only with the items actually pushed.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::new(),
        }
    }

    /// Number of items currently retained (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no items are retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True when k items are retained, i.e. the collector is saturated and
    /// [`threshold`](Self::threshold) is meaningful for pruning.
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The k-th best score so far, or `-inf` while unsaturated.
    ///
    /// Best-first search can stop as soon as its frontier upper bound drops
    /// to or below this threshold — with deterministic tie-breaking the
    /// retained set can no longer change.
    pub fn threshold(&self) -> f64 {
        if self.is_full() {
            self.heap
                .peek()
                .map(|e| e.0.score.get())
                .unwrap_or(f64::NEG_INFINITY)
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Offers an item; returns `true` if it was retained.
    pub fn push(&mut self, score: f64, item: T) -> bool {
        if self.k == 0 {
            return false;
        }
        let entry = std::cmp::Reverse(Scored::new(score, item));
        if self.heap.len() < self.k {
            self.heap.push(entry);
            true
        } else if let Some(worst) = self.heap.peek() {
            // Higher score wins; on equal score the smaller item wins, and
            // Reverse flips Scored's ordering, so compare directly.
            if entry.0 > worst.0 {
                self.heap.pop();
                self.heap.push(entry);
                true
            } else {
                false
            }
        } else {
            false
        }
    }

    /// Drains into a vector sorted best-first.
    pub fn into_sorted_vec(self) -> Vec<Scored<T>> {
        let mut v: Vec<Scored<T>> = self.heap.into_iter().map(|r| r.0).collect();
        v.sort_by(|a, b| b.cmp(a));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scored_orders_by_score_then_item() {
        let a = Scored::new(0.5, 1u32);
        let b = Scored::new(0.5, 2u32);
        let c = Scored::new(0.6, 0u32);
        // Equal score: the smaller item is the greater (better) entry.
        assert!(a > b);
        assert!(b < c);
        assert_eq!(a, Scored::new(0.5, 1u32));
    }

    #[test]
    fn binary_heap_pops_highest_first() {
        let mut h = BinaryHeap::new();
        h.push(Scored::new(0.2, 2u32));
        h.push(Scored::new(0.9, 9u32));
        h.push(Scored::new(0.5, 5u32));
        assert_eq!(h.pop().unwrap().item, 9);
        assert_eq!(h.pop().unwrap().item, 5);
        assert_eq!(h.pop().unwrap().item, 2);
    }

    #[test]
    fn topk_keeps_best() {
        let mut t = TopK::new(3);
        for (s, i) in [(0.1, 1u64), (0.7, 2), (0.3, 3), (0.9, 4), (0.5, 5)] {
            t.push(s, i);
        }
        let v = t.into_sorted_vec();
        let items: Vec<u64> = v.iter().map(|s| s.item).collect();
        assert_eq!(items, vec![4, 2, 5]);
    }

    #[test]
    fn topk_threshold_tracks_kth_best() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), f64::NEG_INFINITY);
        t.push(0.4, 1u64);
        assert_eq!(t.threshold(), f64::NEG_INFINITY); // not yet saturated
        t.push(0.8, 2);
        assert_eq!(t.threshold(), 0.4);
        t.push(0.6, 3);
        assert_eq!(t.threshold(), 0.6);
    }

    #[test]
    fn topk_tie_break_prefers_smaller_item() {
        let mut t = TopK::new(1);
        t.push(0.5, 7u64);
        // Equal score, smaller id: replaces.
        assert!(t.push(0.5, 3));
        // Equal score, larger id: rejected.
        assert!(!t.push(0.5, 9));
        let v = t.into_sorted_vec();
        assert_eq!(v[0].item, 3);
    }

    #[test]
    fn topk_zero_capacity() {
        let mut t = TopK::new(0);
        assert!(!t.push(1.0, 1u32));
        assert!(t.is_empty());
        assert!(t.is_full());
        assert!(t.into_sorted_vec().is_empty());
    }

    #[test]
    fn topk_reserves_nothing_for_a_huge_k() {
        let t: TopK<u64> = TopK::new(u32::MAX as usize);
        assert!(t.heap.capacity() < 1024, "reserved {}", t.heap.capacity());
    }

    #[test]
    fn topk_matches_full_sort() {
        // Deterministic pseudo-random battery.
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let items: Vec<(f64, u64)> = (0..500).map(|i| (next(), i)).collect();
        let mut t = TopK::new(25);
        for &(s, i) in &items {
            t.push(s, i);
        }
        let got: Vec<u64> = t.into_sorted_vec().into_iter().map(|s| s.item).collect();

        let mut sorted = items.clone();
        sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        let want: Vec<u64> = sorted.into_iter().take(25).map(|(_, i)| i).collect();
        assert_eq!(got, want);
    }
}
