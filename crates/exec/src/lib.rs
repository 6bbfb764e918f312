//! `yask_exec` — sharded, concurrent query execution for YASK.
//!
//! The seed system funnels every request through one [`yask_core::Yask`]
//! facade wrapping a single tree. This crate is the execution layer
//! a production deployment needs between the paper's algorithms and the
//! server (after the distributable sub-index designs of QDR-Tree and the
//! retrieval/answering split of SemaSK — see PAPERS.md). It never
//! constructs a `Yask`: that type stays the independent reference the
//! property suites compare every answer against.
//!
//! * [`shard`] — STR-style spatial partitioning of the corpus into K
//!   shards, one R-tree per shard, built in parallel over the *shared*
//!   corpus so shards keep global object ids and globally comparable
//!   scores;
//! * [`pool`] — a fixed crossbeam-channel worker pool with queue-depth
//!   accounting;
//! * [`search`] — the served top-k: the objects on the query keywords'
//!   posting lists scored once on the calling thread, then a keyword-free
//!   k-NN per shard ([`yask_query::knn_bounded`], the one best-first
//!   loop) scattered to the pool under one shared, lock-free score bound
//!   that the posting list's k-th score seeds and every shard's best-k
//!   certificates raise; the gather's merge is exactly the scan's answer
//!   (property-tested for K ∈ {1, 2, 3} and paged trees);
//! * why-not — [`Executor::whynot_on`] takes a [`CorpusPin`] (an epoch
//!   number and its corpus, no tree), builds each request's table
//!   ([`yask_core::SegmentSet`]: `U`'s posting lists, then one pass over
//!   the pinned corpus version; a traced module records it as a
//!   `request_table` span)
//!   and runs `yask_core`'s table form of the module on it: explain's
//!   top-k and ranks, every refinement rank and each refinement's result
//!   preview come off that table, so the why-not path reads no shard tree
//!   (its argument type holds none) and the executor needs **no global
//!   tree** — property-tested equal to `yask_core::Yask` for
//!   K ∈ {1, 2, 4, 8};
//! * [`cache`] — bounded LRU caches for top-k results and why-not
//!   answers, keyed by canonicalized `(query, k, λ, desired-set)` bits,
//!   with hit/miss/eviction counters;
//! * [`executor`] — the [`Executor`] facade tying it together: one
//!   engine for every shard count (`shards = 1` is a one-cell partition
//!   run through the same scatter-gather, deadlines and failpoints). The
//!   executor is *writable*: engine epochs are published through an
//!   arc-swap-style cell, [`Executor::apply_batch`] derives the next
//!   epoch copy-on-write with shard-aware write routing (inserts go to
//!   their owning STR cell, deletes to the shard that indexed them), the
//!   answer caches are invalidated by epoch tags, and a skew trigger
//!   re-splits the STR partition when writes unbalance it;
//! * [`stats`] — the [`ExecSnapshot`] metrics surface (per-shard
//!   timings and write deltas, queue depth with a high-water mark, cache
//!   rates, epoch and rebalance counters, plus lock-free latency
//!   histograms from `yask_obs` for top-k, cache hits, per-shard search
//!   and each why-not module) the server exports via `/stats` and
//!   `/metrics`; a why-not answer's result preview is part of its module
//!   and counts as no top-k query. The two traced entry points,
//!   [`Executor::top_k_deadline_on_traced`] and [`Executor::whynot_on`],
//!   additionally thread a `yask_obs::Trace` through cache lookup →
//!   scatter → per-shard search → gather, and cache lookup → why-not
//!   module, for per-query span trees;
//! * [`observe`] — the workload observatory. Sliding-window rates and
//!   p50/p99 per route (1 s / 10 s / 1 m), exponentially-decayed
//!   query/write heat per STR cell with a skew ratio, and a keyword
//!   top-N sketch, all recorded inline on the hot paths and snapshotted
//!   as [`WorkloadSnapshot`] on the [`ExecSnapshot`] — the inputs for
//!   `/debug/health`, `/debug/heatmap` and future load shedding /
//!   workload-aware cache admission;
//! * [`admission`] — the hand on the valve those signals feed: per-route
//!   admission decisions (shed expensive why-not first, degrade top-k
//!   before shedding it, hot cells at a reduced budget) with shed /
//!   degraded / deadline counters for `/stats` and `/metrics`;
//! * [`deadline`] — a monotonic request budget threaded from the HTTP
//!   layer through scatter-gather ([`yask_query::topk_tree_bounded`]
//!   saturates the shared bound on expiry so late shards drain through
//!   the existing prune path) and the why-not modules (which cancel
//!   instead), with partial results always explicitly flagged and kept
//!   out of the caches.

#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod deadline;
pub mod executor;
pub mod observe;
pub mod pool;
pub mod search;
pub mod shard;
pub mod stats;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionSnapshot, AdmitDecision, OverloadLevel,
    Pressure, Route, ShedCount, ShedReason,
};
pub use cache::{AnswerKey, CacheSnapshot, CachedAnswer, LruCache, QueryKey, WhyNotKind};
pub use deadline::Deadline;
pub use executor::{CorpusPin, EngineHandle, ExecConfig, Executor, TopKOutcome, UpdateOutcome};
pub use observe::{RouteWindows, WorkloadSnapshot, WINDOW_HORIZONS_SECS};
pub use pool::WorkerPool;
pub use shard::{ShardDeltas, ShardedIndex};
pub use stats::{ExecSnapshot, PagerSnapshot, ShardSnapshot, WhyNotHistSnapshots};
