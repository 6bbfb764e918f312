//! The executor's metrics surface.
//!
//! Lock-free counters updated on every query and every write batch —
//! per-shard search timings, traversal work and applied write ops,
//! scatter and scan-fallback counts, batch/rebalance totals — snapshotted
//! together with pool queue depth, cache counters and the current epoch's
//! corpus occupancy into one [`ExecSnapshot`] that the server exports
//! through `/stats`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use yask_index::{CopyStats, RTree};
use yask_obs::{Histogram, HistogramSnapshot};

use crate::cache::{CacheSnapshot, WhyNotKind};
use crate::observe::WorkloadSnapshot;

/// The shape of one shard tree in the pinned epoch: live objects, node
/// count and estimated resident bytes (node frames + entry vectors +
/// keyword-count maps, excluding the shared corpus). Summed across shards
/// this is the executor's whole index footprint — with the global tree
/// gone there is nothing else. `arena_chunks`/`arena_bytes` describe the
/// persistent node slab behind the tree (freed slack included; chunks may
/// be shared with older epochs).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ShardShape {
    pub(crate) objects: usize,
    pub(crate) nodes: usize,
    pub(crate) bytes: usize,
    pub(crate) arena_chunks: usize,
    pub(crate) arena_bytes: usize,
}

impl ShardShape {
    pub(crate) fn of(tree: &RTree) -> Self {
        let s = tree.stats();
        ShardShape {
            objects: s.objects,
            nodes: s.nodes,
            bytes: s.bytes,
            arena_chunks: s.chunks,
            arena_bytes: s.arena_bytes,
        }
    }
}

/// Per-shard accumulators.
#[derive(Default)]
pub(crate) struct ShardCounters {
    queries: AtomicU64,
    nanos: AtomicU64,
    nodes_expanded: AtomicU64,
    objects_scored: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
    /// Per-shard search latency distribution (same samples `nanos` sums).
    search: Histogram,
}

impl ShardCounters {
    pub(crate) fn record(&self, elapsed: Duration, nodes: usize, objects: usize) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.nodes_expanded.fetch_add(nodes as u64, Ordering::Relaxed);
        self.objects_scored
            .fetch_add(objects as u64, Ordering::Relaxed);
        self.search.record(elapsed);
    }

    pub(crate) fn record_writes(&self, inserts: usize, deletes: usize) {
        self.inserts.fetch_add(inserts as u64, Ordering::Relaxed);
        self.deletes.fetch_add(deletes as u64, Ordering::Relaxed);
    }
}

/// Snapshots of the per-module why-not latency histograms, indexed by
/// `WhyNotKind as usize`.
#[derive(Clone, Debug, Default)]
pub struct WhyNotHistSnapshots(pub [HistogramSnapshot; 4]);

impl WhyNotHistSnapshots {
    /// One module's latency distribution.
    pub fn of(&self, kind: WhyNotKind) -> &HistogramSnapshot {
        &self.0[kind as usize]
    }

    /// The modules with their exported label values, in
    /// [`WhyNotKind::ALL`] order.
    pub fn iter_named(&self) -> [(&'static str, &HistogramSnapshot); 4] {
        WhyNotKind::ALL.map(|kind| (kind.label(), self.of(kind)))
    }
}

/// Executor-wide accumulators.
#[derive(Default)]
pub(crate) struct ExecCounters {
    pub(crate) shards: Vec<ShardCounters>,
    /// Uncached top-k compute latency (the cold path).
    pub(crate) topk: Histogram,
    /// Top-k cache *hit* latency — so hit/miss cost compares honestly.
    pub(crate) topk_hit: Histogram,
    /// Per-module why-not latencies, indexed by `WhyNotKind as usize`.
    pub(crate) whynot: [Histogram; 4],
    queries: AtomicU64,
    scatter_queries: AtomicU64,
    scan_fallbacks: AtomicU64,
    batches: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
    rebalances: AtomicU64,
    index_chunks_copied: AtomicU64,
    index_chunks_created: AtomicU64,
    index_copy_bytes: AtomicU64,
}

impl ExecCounters {
    pub(crate) fn new(shards: usize) -> Self {
        ExecCounters {
            shards: (0..shards).map(|_| ShardCounters::default()).collect(),
            ..ExecCounters::default()
        }
    }

    /// Counts one computed top-k: `gathered` when every shard replied,
    /// otherwise the exact-scan fallback answered it.
    pub(crate) fn record_query(&self, gathered: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if gathered {
            self.scatter_queries.fetch_add(1, Ordering::Relaxed);
        } else {
            self.scan_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_batch(&self, inserts: usize, deletes: usize, rebalanced: bool) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inserts.fetch_add(inserts as u64, Ordering::Relaxed);
        self.deletes.fetch_add(deletes as u64, Ordering::Relaxed);
        if rebalanced {
            self.rebalances.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accumulates one batch's tree copy-on-write bill (the arena chunks
    /// the batch's spines copied or created). Rebalance rebuilds are not
    /// billed here — they are counted by `rebalances` and are not
    /// path-copying work.
    pub(crate) fn record_index_copy(&self, copy: &CopyStats) {
        self.index_chunks_copied
            .fetch_add(copy.chunks_copied as u64, Ordering::Relaxed);
        self.index_chunks_created
            .fetch_add(copy.chunks_created as u64, Ordering::Relaxed);
        self.index_copy_bytes
            .fetch_add(copy.bytes_copied as u64, Ordering::Relaxed);
    }
}

/// Point-in-time view of one shard's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardSnapshot {
    /// Objects indexed by the shard.
    pub objects: usize,
    /// Reachable KcR-tree nodes in the shard.
    pub nodes: usize,
    /// Estimated resident bytes of the shard tree (nodes + entries +
    /// keyword-count maps; the shared corpus is excluded).
    pub index_bytes: usize,
    /// Searches the shard has run.
    pub queries: u64,
    /// Total search wall-clock, microseconds.
    pub total_us: f64,
    /// Mean search wall-clock, microseconds (0 with no queries).
    pub mean_us: f64,
    /// Median search wall-clock, microseconds (bucket-midpoint estimate,
    /// ≤ ~1.6 % relative error; 0 with no queries).
    pub p50_us: f64,
    /// 99th-percentile search wall-clock, microseconds (same estimator).
    pub p99_us: f64,
    /// Tree nodes expanded across all searches.
    pub nodes_expanded: u64,
    /// Objects exactly scored across all searches.
    pub objects_scored: u64,
    /// Inserts routed to this shard.
    pub inserts: u64,
    /// Deletes routed to this shard.
    pub deletes: u64,
    /// Chunks in the shard tree's persistent node arena (some may be
    /// physically shared with older epochs' trees).
    pub arena_chunks: usize,
    /// Approximate resident bytes of the shard's node slab, freed slack
    /// included (`arena_bytes ≥ index_bytes`).
    pub arena_bytes: usize,
}

/// Point-in-time view of the whole executor.
#[derive(Clone, Debug, Default)]
pub struct ExecSnapshot {
    /// Configured shard count (at least 1).
    pub shards: usize,
    /// Worker threads serving the scatter pool (at least 1).
    pub workers: usize,
    /// Jobs submitted to the pool but not yet started.
    pub queue_depth: usize,
    /// Highest queue depth any submit ever observed — saturation between
    /// `/stats` scrapes would be invisible in the point-in-time sample.
    pub queue_depth_max: usize,
    /// Highest queue depth observed in the last minute — the reset-safe
    /// cousin of `queue_depth_max` (a day-old spike ages out of this
    /// one), and the health surface's overload input.
    pub queue_depth_max_1m: usize,
    /// Submits that found the bounded queue full and ran the job inline
    /// on the caller instead — nonzero means the pool is saturated and
    /// backpressure is reaching submitters.
    pub queue_saturated: usize,
    /// Top-k queries computed (cache hits are counted by the caches). A
    /// why-not answer's result preview comes off its request table and
    /// is not one.
    pub queries: u64,
    /// Queries computed by scatter-gather.
    pub scatter_queries: u64,
    /// Top-k answered by the exact scan because a shard reply went
    /// missing (a shard job panicked or was dropped). 0 on a healthy
    /// executor at any shard count.
    pub scan_fallbacks: u64,
    /// The published corpus epoch (0 until the first write batch).
    pub epoch: u64,
    /// Live objects in the current epoch.
    pub live_objects: usize,
    /// Tombstoned slots in the current epoch.
    pub tombstones: usize,
    /// Write batches applied.
    pub batches: u64,
    /// Objects inserted across all batches.
    pub inserts: u64,
    /// Objects deleted across all batches.
    pub deletes: u64,
    /// Shard rebalances (full STR re-splits) triggered by size skew.
    pub rebalances: u64,
    /// Total reachable index nodes across all shard trees — with the
    /// global tree removed, this *is* the executor's entire tree count.
    pub index_nodes: usize,
    /// Total estimated index bytes across all shard trees.
    pub index_bytes: usize,
    /// Arena chunks *copied* by path-copying tree updates across all
    /// batches — the tree-side analogue of the corpus `chunks_copied`.
    pub index_chunks_copied: u64,
    /// Arena chunks freshly created by tree updates across all batches.
    pub index_chunks_created: u64,
    /// Bytes deep-copied by path-copying tree updates across all batches.
    /// Per batch this is O(spine × chunk), independent of tree size — the
    /// number that used to be the whole touched shard.
    pub index_copy_bytes: u64,
    /// Per-shard search counters.
    pub per_shard: Vec<ShardSnapshot>,
    /// Top-k result cache counters.
    pub topk_cache: CacheSnapshot,
    /// Why-not answer cache counters.
    pub answer_cache: CacheSnapshot,
    /// Uncached top-k compute latency distribution.
    pub topk_hist: HistogramSnapshot,
    /// Top-k cache-hit latency distribution.
    pub topk_hit_hist: HistogramSnapshot,
    /// Per-module why-not latency distributions.
    pub whynot_hists: WhyNotHistSnapshots,
    /// Per-shard search latency distributions, parallel to `per_shard`
    /// (kept out of [`ShardSnapshot`] so that stays `Copy`).
    pub shard_search_hists: Vec<HistogramSnapshot>,
    /// The workload observatory's view: windowed rates/quantiles per
    /// route, per-cell heat, keyword sketch.
    pub workload: WorkloadSnapshot,
    /// Out-of-core pager counters; `None` when
    /// [`crate::ExecConfig::resident_budget`] is unset (fully resident).
    pub pager: Option<PagerSnapshot>,
}

/// Out-of-core serving counters: the aggregated decoded-chunk caches and
/// run files of the live paged shard trees. They aggregate over trees
/// still alive (superseded epochs drop out once their last reader
/// unpins, and their run files are freed with them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagerSnapshot {
    /// Decoded-chunk cache hits across live paged trees.
    pub chunk_hits: u64,
    /// Chunk faults (one run read plus its decode) across live paged trees.
    pub chunk_misses: u64,
    /// Decoded chunks evicted across live paged trees.
    pub chunk_evictions: u64,
    /// Decoded chunks currently resident across live paged trees.
    pub resident_chunks: usize,
    /// Total arena chunks across live paged trees.
    pub chunk_count: usize,
    /// The per-tree decoded-chunk byte budget.
    pub budget_bytes: usize,
    /// Paged trees currently alive (includes pinned past epochs).
    pub paged_trees: usize,
    /// Run bytes held in the live paged trees' files.
    pub disk_bytes: u64,
}

impl ExecCounters {
    /// The counter-derived half of a snapshot over the pinned epoch's
    /// shard `shapes`. Everything the counters cannot see — pool, caches,
    /// corpus occupancy, observatory, pager — is left at its default for
    /// the executor to fill in with struct-update syntax.
    pub(crate) fn snapshot(&self, shapes: &[ShardShape]) -> ExecSnapshot {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let shard_search_hists: Vec<HistogramSnapshot> =
            self.shards.iter().map(|c| c.search.snapshot()).collect();
        let per_shard = self
            .shards
            .iter()
            .zip(shapes)
            .zip(&shard_search_hists)
            .map(|((c, shape), search)| {
                let queries = load(&c.queries);
                let total_us = load(&c.nanos) as f64 / 1_000.0;
                ShardSnapshot {
                    objects: shape.objects,
                    nodes: shape.nodes,
                    index_bytes: shape.bytes,
                    queries,
                    total_us,
                    mean_us: if queries == 0 {
                        0.0
                    } else {
                        total_us / queries as f64
                    },
                    p50_us: search.p50() as f64 / 1_000.0,
                    p99_us: search.p99() as f64 / 1_000.0,
                    nodes_expanded: load(&c.nodes_expanded),
                    objects_scored: load(&c.objects_scored),
                    inserts: load(&c.inserts),
                    deletes: load(&c.deletes),
                    arena_chunks: shape.arena_chunks,
                    arena_bytes: shape.arena_bytes,
                }
            })
            .collect();
        ExecSnapshot {
            shards: shapes.len(),
            queries: load(&self.queries),
            scatter_queries: load(&self.scatter_queries),
            scan_fallbacks: load(&self.scan_fallbacks),
            batches: load(&self.batches),
            inserts: load(&self.inserts),
            deletes: load(&self.deletes),
            rebalances: load(&self.rebalances),
            index_nodes: shapes.iter().map(|s| s.nodes).sum(),
            index_bytes: shapes.iter().map(|s| s.bytes).sum(),
            index_chunks_copied: load(&self.index_chunks_copied),
            index_chunks_created: load(&self.index_chunks_created),
            index_copy_bytes: load(&self.index_copy_bytes),
            per_shard,
            topk_hist: self.topk.snapshot(),
            topk_hit_hist: self.topk_hit.snapshot(),
            whynot_hists: WhyNotHistSnapshots(std::array::from_fn(|i| self.whynot[i].snapshot())),
            shard_search_hists,
            ..ExecSnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = ExecCounters::new(2);
        c.record_query(true);
        c.record_query(false);
        c.shards[0].record(Duration::from_micros(100), 5, 20);
        c.shards[0].record(Duration::from_micros(300), 7, 30);
        c.shards[1].record(Duration::from_micros(50), 1, 2);
        c.shards[1].record_writes(3, 1);
        c.record_batch(3, 1, false);
        c.record_batch(0, 2, true);
        c.record_index_copy(&CopyStats {
            chunks_copied: 2,
            chunks_created: 1,
            bytes_copied: 4096,
        });
        let s = c.snapshot(&[
            ShardShape { objects: 10, nodes: 3, bytes: 900, arena_chunks: 1, arena_bytes: 950 },
            ShardShape { objects: 12, nodes: 4, bytes: 1100, arena_chunks: 2, arena_bytes: 1300 },
        ]);
        assert_eq!(s.shards, 2);
        assert_eq!(s.queries, 2);
        assert_eq!(s.scatter_queries, 1);
        assert_eq!(s.scan_fallbacks, 1);
        assert_eq!(s.per_shard.len(), 2);
        assert_eq!(s.per_shard[0].queries, 2);
        assert!((s.per_shard[0].mean_us - 200.0).abs() < 1e-9);
        assert_eq!(s.per_shard[0].nodes_expanded, 12);
        assert_eq!(s.per_shard[1].objects, 12);
        assert_eq!(s.per_shard[1].nodes, 4);
        assert_eq!(s.per_shard[1].index_bytes, 1100);
        assert_eq!(s.index_nodes, 7);
        assert_eq!(s.index_bytes, 2000);
        assert_eq!(s.per_shard[1].inserts, 3);
        assert_eq!(s.per_shard[1].deletes, 1);
        assert_eq!(s.per_shard[1].arena_chunks, 2);
        assert_eq!(s.per_shard[1].arena_bytes, 1300);
        assert_eq!(s.index_chunks_copied, 2);
        assert_eq!(s.index_chunks_created, 1);
        assert_eq!(s.index_copy_bytes, 4096);
        assert_eq!((s.batches, s.inserts, s.deletes, s.rebalances), (2, 3, 3, 1));
        // The shard histogram sampled the same searches the counters did.
        assert_eq!(s.shard_search_hists.len(), 2);
        assert_eq!(s.shard_search_hists[0].count, 2);
        assert_eq!(s.shard_search_hists[1].count, 1);
        assert!(s.per_shard[0].p50_us > 0.0);
        assert!(s.per_shard[0].p99_us >= s.per_shard[0].p50_us);
        // p50 of {100µs, 300µs} is the lower sample, within bucket error.
        assert!((s.per_shard[0].p50_us - 100.0).abs() / 100.0 < 0.025);
    }

    #[test]
    fn whynot_hists_route_by_kind() {
        let c = ExecCounters::new(1);
        c.whynot[WhyNotKind::Explain as usize].record(Duration::from_micros(10));
        c.whynot[WhyNotKind::Keyword as usize].record(Duration::from_micros(20));
        c.whynot[WhyNotKind::Keyword as usize].record(Duration::from_micros(30));
        let s = c.snapshot(&[ShardShape::default()]).whynot_hists;
        assert_eq!(s.of(WhyNotKind::Explain).count, 1);
        assert_eq!(s.of(WhyNotKind::Keyword).count, 2);
        assert_eq!(s.of(WhyNotKind::Preference).count, 0);
        let named: Vec<&str> = s.iter_named().iter().map(|(n, _)| *n).collect();
        assert_eq!(named, ["explain", "preference", "keyword", "combined"]);
        for (i, kind) in WhyNotKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "per-kind arrays index by discriminant");
        }
    }
}
