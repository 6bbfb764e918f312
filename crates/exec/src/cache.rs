//! The bounded LRU answer cache and its canonical keys.
//!
//! Two cacheable computations dominate the service's hot path: top-k
//! results (the `/query` endpoint) and why-not answers (explanations and
//! refinements with their result previews, which cost orders of
//! magnitude more than a top-k). Both are pure functions of the
//! *canonicalized* request — the corpus is immutable — so an LRU keyed by
//! canonical bits is exact, never stale.
//!
//! Canonicalization: coordinates and weights key by their IEEE bits with
//! `-0.0` folded into `0.0` (NaN is rejected at the API boundary);
//! keyword sets are already sorted and deduplicated; desired-object sets
//! are sorted for the set-semantic refinement kinds (and kept literal for
//! explanations — see [`AnswerKey::of`]). Two sessions
//! asking the same why-not question therefore share one cache entry —
//! the `(session, desired-set)` key space collapses into
//! `(canonical query, desired-set, λ)`.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use yask_core::{CombinedRefinement, Explanation, KeywordRefinement, PreferenceRefinement};
use yask_index::ObjectId;
use yask_query::{Query, RankedObject};

/// `f64` → canonical key bits (`-0.0` and `0.0` collapse).
#[inline]
fn canon_bits(f: f64) -> u64 {
    if f == 0.0 {
        0.0f64.to_bits()
    } else {
        f.to_bits()
    }
}

/// Canonical identity of a top-k query: location, weights, k, keywords.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryKey {
    x: u64,
    y: u64,
    ws: u64,
    k: usize,
    doc: Box<[u32]>,
}

impl QueryKey {
    /// Canonicalizes a query.
    pub fn of(q: &Query) -> Self {
        QueryKey {
            x: canon_bits(q.loc.x),
            y: canon_bits(q.loc.y),
            ws: canon_bits(q.weights.ws()),
            k: q.k,
            doc: q.doc.raw().into(),
        }
    }
}

/// Which why-not computation a cache entry answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WhyNotKind {
    /// Explanations only.
    Explain,
    /// Preference-adjusted refinement (Definition 2).
    Preference,
    /// Keyword-adapted refinement (Definition 3).
    Keyword,
    /// Both models chained.
    Combined,
}

impl WhyNotKind {
    /// Every kind, in discriminant order: `ALL[kind as usize] == kind`,
    /// so per-kind arrays index by `kind as usize`.
    pub const ALL: [WhyNotKind; 4] = [
        WhyNotKind::Explain,
        WhyNotKind::Preference,
        WhyNotKind::Keyword,
        WhyNotKind::Combined,
    ];

    /// The module's name wherever it is exported: the `module` label of
    /// the why-not histograms, the `whynot_<label>` routes and spans.
    pub fn label(self) -> &'static str {
        match self {
            WhyNotKind::Explain => "explain",
            WhyNotKind::Preference => "preference",
            WhyNotKind::Keyword => "keyword",
            WhyNotKind::Combined => "combined",
        }
    }
}

/// Canonical identity of one why-not question.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AnswerKey {
    query: QueryKey,
    missing: Box<[u32]>,
    lambda: u64,
    kind: WhyNotKind,
}

impl AnswerKey {
    /// Canonicalizes a why-not question. The refinement models are
    /// set-semantic in the desired objects, so their keys sort + dedup
    /// the list; explanations are one *per input entry in input order*,
    /// so that kind keys by the literal list — a permuted or duplicated input must not share a
    /// cache entry whose payload would then diverge from the engine's.
    pub fn of(q: &Query, missing: &[ObjectId], lambda: f64, kind: WhyNotKind) -> Self {
        let mut ids: Vec<u32> = missing.iter().map(|m| m.0).collect();
        if kind != WhyNotKind::Explain {
            ids.sort_unstable();
            ids.dedup();
        }
        AnswerKey {
            query: QueryKey::of(q),
            missing: ids.into(),
            lambda: canon_bits(lambda),
            kind,
        }
    }
}

/// A cached why-not result (variant matches [`WhyNotKind`]). Each
/// refinement carries beside it its refined query's top-k — the result
/// preview the server renders — read off the same request table.
#[derive(Clone, Debug)]
pub enum CachedAnswer {
    /// Explanations only.
    Explain(Vec<Explanation>),
    /// Preference-adjusted refinement and its preview.
    Preference(PreferenceRefinement, Vec<RankedObject>),
    /// Keyword-adapted refinement and its preview.
    Keyword(KeywordRefinement, Vec<RankedObject>),
    /// Both models chained, and the preview.
    Combined(CombinedRefinement, Vec<RankedObject>),
}

/// Counter snapshot of one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Values inserted.
    pub insertions: u64,
    /// Values evicted by capacity pressure.
    pub evictions: u64,
    /// Live entries.
    pub len: usize,
    /// Capacity bound.
    pub cap: usize,
}

impl CacheSnapshot {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Slot<V> {
    value: V,
    stamp: u64,
}

/// A bounded least-recently-used map with hit/miss/eviction counters.
///
/// Recency is a lazily compacted queue of `(stamp, key)` touches: each
/// get/insert stamps the entry and appends to the queue; eviction pops
/// stale queue entries (stamp no longer current) until it finds the true
/// LRU victim. Amortized O(1) per operation.
pub struct LruCache<K, V> {
    cap: usize,
    map: HashMap<K, Slot<V>>,
    order: VecDeque<(u64, K)>,
    clock: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `cap` entries (`cap ≥ 1`).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        LruCache {
            cap,
            map: HashMap::with_capacity(cap.min(1024)),
            order: VecDeque::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    /// Looks up `key`, counting a hit or miss and refreshing recency.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.clock += 1;
        let clock = self.clock;
        match self.map.get_mut(key) {
            Some(slot) => {
                slot.stamp = clock;
                let value = slot.value.clone();
                self.order.push_back((clock, key.clone()));
                self.hits += 1;
                self.maybe_compact();
                Some(value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the LRU entry on overflow.
    pub fn insert(&mut self, key: K, value: V) {
        self.clock += 1;
        self.order.push_back((self.clock, key.clone()));
        self.map.insert(
            key,
            Slot {
                value,
                stamp: self.clock,
            },
        );
        self.insertions += 1;
        while self.map.len() > self.cap {
            self.evict_one();
        }
        self.maybe_compact();
    }

    fn evict_one(&mut self) {
        while let Some((stamp, key)) = self.order.pop_front() {
            let current = self.map.get(&key).is_some_and(|s| s.stamp == stamp);
            if current {
                self.map.remove(&key);
                self.evictions += 1;
                return;
            }
        }
    }

    /// Bounds the recency queue: it may hold stale touches, but never
    /// more than a small multiple of the live entry count.
    fn maybe_compact(&mut self) {
        if self.order.len() > 4 * self.cap.max(16) {
            let map = &self.map;
            self.order
                .retain(|(stamp, key)| map.get(key).is_some_and(|s| s.stamp == *stamp));
        }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            len: self.map.len(),
            cap: self.cap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::Point;
    use yask_text::KeywordSet;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10)); // 1 is now most recent
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        let s = c.snapshot();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, 2);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        assert_eq!(c.get(&1), None);
        c.insert(1, 1);
        assert_eq!(c.get(&1), Some(1));
        assert_eq!(c.get(&1), Some(1));
        let s = c.snapshot();
        assert_eq!((s.hits, s.misses, s.insertions), (2, 1, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reinsert_refreshes_without_growth() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.snapshot().evictions, 0);
    }

    #[test]
    fn recency_queue_stays_bounded() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        for i in 0..4 {
            c.insert(i, i);
        }
        for _ in 0..10_000 {
            c.get(&0);
        }
        assert!(c.order.len() <= 4 * 16 + 1, "queue grew: {}", c.order.len());
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn heavy_churn_respects_capacity() {
        let mut c: LruCache<u32, u32> = LruCache::new(8);
        for i in 0..1000 {
            c.insert(i, i);
            if i % 3 == 0 {
                c.get(&i.saturating_sub(4));
            }
        }
        assert_eq!(c.len(), 8);
        let s = c.snapshot();
        assert_eq!(s.insertions, 1000);
        assert_eq!(s.evictions, 1000 - 8);
    }

    #[test]
    fn query_key_canonicalizes() {
        let a = Query::new(Point::new(0.0, 0.5), KeywordSet::from_raw([2, 1, 2]), 3);
        let b = Query::new(Point::new(-0.0, 0.5), KeywordSet::from_raw([1, 2]), 3);
        assert_eq!(QueryKey::of(&a), QueryKey::of(&b));
        let c = Query::new(Point::new(0.0, 0.5), KeywordSet::from_raw([1, 2]), 4);
        assert_ne!(QueryKey::of(&a), QueryKey::of(&c));
    }

    #[test]
    fn answer_key_sorts_and_dedups_missing_for_refinements() {
        let q = Query::new(Point::new(0.1, 0.2), KeywordSet::from_raw([1]), 2);
        for kind in [WhyNotKind::Preference, WhyNotKind::Keyword, WhyNotKind::Combined] {
            let a = AnswerKey::of(&q, &[ObjectId(5), ObjectId(2), ObjectId(5)], 0.5, kind);
            let b = AnswerKey::of(&q, &[ObjectId(2), ObjectId(5)], 0.5, kind);
            assert_eq!(a, b, "{kind:?}");
        }
        let a = AnswerKey::of(&q, &[ObjectId(2), ObjectId(5)], 0.5, WhyNotKind::Preference);
        let c = AnswerKey::of(&q, &[ObjectId(2), ObjectId(5)], 0.6, WhyNotKind::Preference);
        assert_ne!(a, c);
        let d = AnswerKey::of(&q, &[ObjectId(2), ObjectId(5)], 0.5, WhyNotKind::Explain);
        assert_ne!(a, d);
    }

    #[test]
    fn answer_key_keeps_literal_missing_for_explanations() {
        // Explanations are one per input entry in input order: permuted
        // or duplicated inputs have different answers, so different keys.
        let q = Query::new(Point::new(0.1, 0.2), KeywordSet::from_raw([1]), 2);
        let kind = WhyNotKind::Explain;
        let ab = AnswerKey::of(&q, &[ObjectId(2), ObjectId(5)], 0.5, kind);
        let ba = AnswerKey::of(&q, &[ObjectId(5), ObjectId(2)], 0.5, kind);
        let aa = AnswerKey::of(&q, &[ObjectId(2), ObjectId(2)], 0.5, kind);
        assert_ne!(ab, ba);
        assert_ne!(ab, aa);
        assert_eq!(ab, AnswerKey::of(&q, &[ObjectId(2), ObjectId(5)], 0.5, kind));
    }
}
