//! The scatter-gather executor: the concurrency layer between the YASK
//! engine and the server.
//!
//! An [`Executor`] owns the current *engine epoch* — one [`ShardedIndex`]
//! of `shards ≥ 1` R-trees — published through an arc-swap-style
//! [`EpochCell`]. Top-k ([`Executor::top_k_deadline_on_traced`]) scores
//! the objects on the query keywords' posting lists on the calling
//! thread, over the corpus version the shard trees index, then scatters
//! a keyword-free k-NN to the shard trees under the bound that pass
//! seeds, by the same code at every shard count. The why-not modules
//! (explain, preference adjustment, keyword adaptation, combined) read
//! no tree: behind one
//! cached, traced call, [`Executor::whynot_on`], each request builds its
//! request table ([`yask_core::SegmentSet`]) in one pass over the pinned
//! corpus version and runs `yask_core`'s table form of the module on the
//! calling thread — explain's top-k and ranks and every refinement's
//! result preview included. It takes a [`CorpusPin`] — an epoch number
//! and its corpus, no tree — so a why-not session that outlives its epoch
//! keeps alive only the corpus chunks unique to its version, never a
//! superseded epoch's shard trees or their paged sources. The per-module
//! methods (`explain_on`, `refine_*_on`, and the current-epoch mirrors of
//! `yask_core::Yask`) are thin calls into it. There is no global
//! tree, so index memory and per-batch copy-on-write work cover the
//! shard trees only. Readers pin an epoch for the duration of a query, so
//! a concurrent write batch never tears the corpus or the trees out from
//! under an in-flight computation;
//! [`Executor::apply_batch`] derives the next epoch copy-on-write (only
//! *touched* shard trees cloned) and publishes it atomically. The two
//! LRU answer caches key by `(epoch, canonical request)`, so entries
//! computed against a superseded corpus version can never be served —
//! invalidation is a generation tag, not a scan. Every result is
//! bit-identical to what a freshly built [`yask_core::Yask`] (one tree
//! over the same live corpus) would produce — sharding, caching and
//! incremental maintenance are transparent optimizations, proven
//! equivalent by the property suites in `tests/` and the ingest crate's
//! oracle, which hold `Yask` as the reference.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use yask_obs::trace::SpanGuard;
use yask_obs::Trace;
use yask_core::{
    explain_given, refine_combined_on, refine_keywords_on, refine_preference_with_segments,
    request_table, CombinedRefinement, Explanation, KeywordRefinement, PreferenceRefinement,
    WhyNotAnswer, WhyNotError, YaskConfig,
};
use yask_index::{Corpus, ObjectId};
use yask_query::{topk_postings, topk_scan, Query, RankedObject, ScoreParams};
use yask_util::EpochCell;

use yask_pager::{page_out_tree, PagedNodeSource};

use crate::admission::Pressure;
use crate::cache::{AnswerKey, CachedAnswer, LruCache, QueryKey, WhyNotKind};
use crate::deadline::Deadline;
use crate::observe::Workload;
use crate::pool::WorkerPool;
use crate::shard::ShardedIndex;
use crate::stats::{ExecCounters, ExecSnapshot, PagerSnapshot, ShardShape};

/// Pending-job bound for the scatter pool's backpressure path
/// ([`WorkerPool::submit_or_run`]): once this many jobs are queued,
/// scatter callers run their shard searches inline instead of deepening
/// the queue.
const QUEUE_CAP: usize = 1024;

/// Half-life of the observatory's per-cell heat decay: a query's
/// contribution to its cell's heat halves every `HEAT_HALF_LIFE`.
const HEAT_HALF_LIFE: Duration = Duration::from_secs(60);

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// Shard count (clamped to at least 1). One shard is a one-cell
    /// partition served by the same scatter-gather as any other count.
    pub shards: usize,
    /// Worker threads for the scatter pool; 0 (the [`Default`]) resolves
    /// to the shard count.
    pub workers: usize,
    /// Top-k result cache capacity; 0 disables the cache.
    pub topk_cache: usize,
    /// Why-not answer cache capacity; 0 disables the cache.
    pub answer_cache: usize,
    /// Rebalance trigger: after a write batch, when the largest shard
    /// exceeds `rebalance_skew ×` the ideal (live / shards) size, the STR
    /// partition is re-split from scratch. Values ≤ 1 make any imbalance
    /// eligible; [`f64::INFINITY`] disables rebalancing.
    pub rebalance_skew: f64,
    /// Rebalancing is suppressed below this live-object count (tiny
    /// corpora are always "skewed" by integer effects).
    pub rebalance_min: usize,
    /// Out-of-core serving: when set, every published shard tree's node
    /// arena is written to an unlinked temp file of that tree's own (one
    /// run per arena chunk) and served by faulting chunks on access, one
    /// read per fault, keeping at most this many bytes of decoded chunks
    /// resident *per tree*. The file is freed with the tree. Answers stay
    /// byte-identical to fully resident serving; only the memory/latency
    /// trade moves. `None` (the default) keeps every arena resident.
    pub resident_budget: Option<usize>,
    /// Engine configuration: scoring model, tree parameters, keyword
    /// options and default λ.
    pub yask: YaskConfig,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            shards: 4,
            workers: 0, // resolves to the shard count
            topk_cache: 1024,
            answer_cache: 256,
            rebalance_skew: 2.0,
            rebalance_min: 128,
            resident_budget: None,
            yask: YaskConfig::default(),
        }
    }
}

/// The executor's out-of-core substrate: the per-tree decoded-chunk
/// budget plus a registry of the live paged trees' sources for stats
/// aggregation. Each paged tree owns its run file (see
/// [`PagedNodeSource`]), so a superseded tree's disk is freed with it.
struct Pager {
    budget: usize,
    sources: Mutex<Vec<std::sync::Weak<PagedNodeSource>>>,
}

impl Pager {
    /// Pages out one resident tree, registering its chunk cache. The
    /// registry first drops the entries of trees no epoch holds any
    /// more, so it stays bounded by the live trees without a snapshot.
    fn page_tree(&self, tree: &mut yask_index::RTree) {
        if tree.is_paged() {
            return;
        }
        let src = page_out_tree(tree, self.budget).expect("page out shard tree");
        let mut sources = self.sources.lock();
        sources.retain(|w| w.strong_count() > 0);
        sources.push(Arc::downgrade(&src));
    }

    /// Pages out every resident tree of an index about to be published.
    /// Trees already paged (epoch-shared, untouched by the batch) keep
    /// their source — and their warm chunk cache.
    fn page_index(&self, index: &mut ShardedIndex) {
        index.page_resident_trees(|t| self.page_tree(t));
    }

    fn snapshot(&self) -> PagerSnapshot {
        let mut snap = PagerSnapshot {
            budget_bytes: self.budget,
            ..PagerSnapshot::default()
        };
        let mut sources = self.sources.lock();
        sources.retain(|w| {
            let Some(s) = w.upgrade() else { return false };
            let st = s.stats();
            snap.chunk_hits += st.hits;
            snap.chunk_misses += st.misses;
            snap.chunk_evictions += st.evictions;
            snap.resident_chunks += st.resident_chunks;
            snap.chunk_count += st.chunk_count;
            snap.disk_bytes += st.disk_bytes;
            snap.paged_trees += 1;
            true
        });
        snap
    }
}

/// One published engine epoch: a consistent corpus version with the
/// shard trees built over exactly its live objects.
struct EngineState {
    /// The epoch number and its corpus: all a why-not session pins.
    version: CorpusPin,
    params: ScoreParams,
    /// The shard trees disjointly covering the corpus: top-k is computed
    /// from these. Why-not reads only the pinned corpus, through the
    /// request table (`compute_whynot`), and touches no tree.
    index: ShardedIndex,
    /// Index shape (per-shard node/byte counters), computed lazily on
    /// the first `/stats` call against this epoch and cached — the trees
    /// are immutable once published, and walking every node per poll
    /// would make monitoring cost scale with corpus size.
    shapes: std::sync::OnceLock<Vec<ShardShape>>,
}

impl EngineState {
    fn new(epoch: u64, params: ScoreParams, index: ShardedIndex) -> Self {
        EngineState {
            version: CorpusPin(Arc::new((epoch, index.corpus().clone()))),
            params,
            index,
            shapes: std::sync::OnceLock::new(),
        }
    }

    fn shard_shapes(&self) -> &[ShardShape] {
        self.shapes
            .get_or_init(|| self.index.shards().iter().map(|t| ShardShape::of(t)).collect())
    }
}

/// A pinned engine epoch: a consistent corpus version, its shard trees
/// and its scoring configuration, valid however many write batches are
/// published while the pin is held. Cloning shares the pin (one
/// refcount); the `*_on` executor methods answer queries against a
/// pinned epoch instead of the current one. It keeps the epoch's trees
/// (and, out of core, their paged sources) alive, so it is held for one
/// request; a why-not session keeps only [`EngineHandle::version`].
#[derive(Clone)]
pub struct EngineHandle(Arc<EngineState>);

impl EngineHandle {
    /// The pinned epoch number.
    pub fn epoch(&self) -> u64 {
        self.0.version.epoch()
    }

    /// The pinned corpus version without the trees: what a why-not
    /// session keeps and [`Executor::whynot_on`] answers over.
    pub fn version(&self) -> CorpusPin {
        self.0.version.clone()
    }

    /// The pinned corpus version.
    pub fn corpus(&self) -> &Corpus {
        self.0.index.corpus()
    }

    /// The scoring configuration of the pinned epoch.
    pub fn score_params(&self) -> ScoreParams {
        self.0.params
    }
}

/// A pinned corpus version — an epoch number and its corpus — and
/// nothing else: no shard tree, index or pager source. The substrate of
/// per-epoch why-not sessions (paper §3.3 caches the initial query),
/// whose follow-up questions keep answering over the corpus version their
/// initial query ran on even after later deletes. Every pin of one epoch
/// shares one allocation, and a pin outliving its epoch keeps alive only
/// the corpus chunks unique to its version.
#[derive(Clone)]
pub struct CorpusPin(Arc<(u64, Corpus)>);

impl CorpusPin {
    /// The pinned epoch number.
    pub fn epoch(&self) -> u64 {
        self.0 .0
    }

    /// The pinned corpus version.
    pub fn corpus(&self) -> &Corpus {
        &self.0 .1
    }
}

/// What a write batch did to the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The newly published epoch.
    pub epoch: u64,
    /// Whether the batch tripped the skew trigger and the STR partition
    /// was re-split.
    pub rebalanced: bool,
}

/// A top-k answer that may have been truncated by a deadline.
#[derive(Clone, Debug)]
pub struct TopKOutcome {
    /// The merged result list — exact when `complete`, a best-effort
    /// prefix otherwise.
    pub results: Vec<RankedObject>,
    /// True when every shard ran its search to completion. Partial
    /// results never enter the top-k cache.
    pub complete: bool,
}

/// A cache keyed by `(epoch, canonical request)` — the epoch tag is the
/// invalidation mechanism.
type EpochCache<K, V> = Option<Mutex<LruCache<(u64, K), Arc<V>>>>;

/// One module through [`Executor::whynot_on`] with no trace or deadline,
/// unwrapped to its own answer type: `$kind` names both the
/// [`WhyNotKind`] and the [`CachedAnswer`] variant it tags.
macro_rules! module_on {
    ($exec:expr, $handle:expr, $kind:ident, $query:expr, $missing:expr, $lambda:expr) => {
        match &*$exec.whynot_on(
            &$handle.version(), WhyNotKind::$kind, $query, $missing, $lambda, None, None,
        )? {
            CachedAnswer::$kind(answer, ..) => Ok(answer.clone()),
            _ => unreachable!("kind-tagged cache entry"),
        }
    };
}

/// Computes one why-not module over a pinned corpus version: one pass
/// over it into the request table (which validates the request), then
/// `yask_core`'s table form of the module on the calling thread — no
/// tree is read and no pool thread is parked. Explanations
/// take the top-k and each desired object's rank off the table; each
/// refinement's result preview is its refined query's top-k off the same
/// table. Why-not answers are all-or-nothing (a partial refinement is not
/// a refinement), so the deadline *cancels*: it is checked after the
/// table pass and before every candidate count, and on expiry the
/// computation unwinds to [`WhyNotError::DeadlineExceeded`]. Under a
/// traced module span the table pass records a `request_table` child
/// span counting the objects that share a keyword with `U`.
#[allow(clippy::too_many_arguments)]
fn compute_whynot(
    corpus: &Corpus,
    params: &ScoreParams,
    kind: WhyNotKind,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
    deadline: Option<Deadline>,
    module_span: Option<&SpanGuard>,
) -> Result<CachedAnswer, WhyNotError> {
    let expired = || deadline.is_some_and(|d| d.expired());
    // Explanations never read λ: they validate under 0.
    let table_lambda = if kind == WhyNotKind::Explain { 0.0 } else { lambda };
    let table = {
        let mut span = module_span.map(|s| s.child("request_table"));
        let table = request_table(corpus, params, query, missing, table_lambda)?;
        if let Some(span) = &mut span {
            span.set_count(table.touching() as u64);
        }
        table
    };
    if expired() {
        return Err(WhyNotError::DeadlineExceeded);
    }
    Ok(match kind {
        WhyNotKind::Explain => CachedAnswer::Explain(explain_given(
            corpus,
            params,
            query,
            missing,
            &table.top_k(query),
            &table.ranks(query, missing),
        )),
        WhyNotKind::Preference => {
            let r = refine_preference_with_segments(corpus, query, missing, lambda, &table)?;
            let preview = table.top_k(&r.query);
            CachedAnswer::Preference(r, preview)
        }
        WhyNotKind::Keyword => {
            let r = refine_keywords_on(corpus, &expired, query, missing, lambda, &table)?;
            let preview = table.top_k(&r.query);
            CachedAnswer::Keyword(r, preview)
        }
        WhyNotKind::Combined => {
            let r = refine_combined_on(corpus, &expired, query, missing, lambda, &table)?;
            let preview = table.top_k(&r.query);
            CachedAnswer::Combined(r, preview)
        }
    })
}

/// The sharded, concurrent, caching, *writable* query executor.
pub struct Executor {
    state: EpochCell<EngineState>,
    config: ExecConfig,
    pool: WorkerPool,
    /// Serializes write batches; readers never take it.
    writer: Mutex<()>,
    // Values are Arc'd so a cache hit only bumps a refcount inside the
    // lock; the deep clone happens after the guard drops. Keys carry the
    // epoch the entry was computed against: superseded entries can never
    // hit and age out through normal LRU pressure.
    topk_cache: EpochCache<QueryKey, Vec<RankedObject>>,
    answer_cache: EpochCache<AnswerKey, CachedAnswer>,
    counters: ExecCounters,
    /// The workload observatory.
    workload: Workload,
    /// Out-of-core substrate (None when `config.resident_budget` is
    /// unset — the fully resident default).
    pager: Option<Pager>,
}

impl Executor {
    /// Builds the executor over a corpus: `config.shards` shard trees
    /// (built in parallel) and nothing else — the shard trees are the
    /// whole index.
    pub fn new(corpus: Corpus, config: ExecConfig) -> Self {
        Executor::new_at_epoch(corpus, config, 0)
    }

    /// [`Executor::new`] starting from a given epoch number — used after
    /// a write-ahead-log replay so the in-memory epoch continues the
    /// durable one instead of restarting at zero.
    pub fn new_at_epoch(corpus: Corpus, mut config: ExecConfig, epoch: u64) -> Self {
        config.shards = config.shards.max(1);
        config.workers = if config.workers == 0 {
            config.shards
        } else {
            config.workers
        };
        let params = ScoreParams::new(corpus.space()).with_model(config.yask.model);
        let pager = config.resident_budget.map(|budget| Pager { budget, sources: Mutex::default() });
        let mut index = ShardedIndex::build(corpus, config.shards, config.yask.tree_params);
        if let Some(p) = &pager {
            p.page_index(&mut index);
        }
        let pool = WorkerPool::with_capacity(config.workers, QUEUE_CAP);
        Executor {
            counters: ExecCounters::new(config.shards),
            workload: Workload::new(config.shards, HEAT_HALF_LIFE),
            topk_cache: (config.topk_cache > 0).then(|| Mutex::new(LruCache::new(config.topk_cache))),
            answer_cache: (config.answer_cache > 0)
                .then(|| Mutex::new(LruCache::new(config.answer_cache))),
            state: EpochCell::from(EngineState::new(epoch, params, index)),
            config,
            pool,
            writer: Mutex::new(()),
            pager,
        }
    }

    /// Builds with the default configuration (4 shards, 4 workers).
    pub fn with_defaults(corpus: Corpus) -> Self {
        Executor::new(corpus, ExecConfig::default())
    }

    /// Pins the current engine epoch (white-box tests, demo tooling).
    pub fn engine(&self) -> EngineHandle {
        EngineHandle(self.state.load())
    }

    /// The current epoch's corpus version.
    pub fn corpus(&self) -> Corpus {
        self.state.load().index.corpus().clone()
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.state.load().version.epoch()
    }

    /// The executor configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.config.shards
    }

    // -- writes -------------------------------------------------------------

    /// Applies one validated write batch and publishes the next epoch.
    ///
    /// `corpus` is the next corpus version (derived through
    /// [`Corpus::with_updates`] from the current epoch's version),
    /// `inserted` its freshly appended slots and `deleted` the newly
    /// tombstoned ones. Trees are derived *persistently* through
    /// [`yask_index::RTree::with_updates`]: the next epoch's tree shares
    /// every node-arena chunk the batch's root-to-leaf paths did not
    /// write into with the previous epoch's, so per-batch write
    /// amplification is O(spine), independent of tree (and shard) size.
    /// Inserts are first routed to their owning STR cell and deletes to
    /// the shard that indexed them; untouched shards are shared
    /// wholesale. The copy bill is accumulated into the
    /// `index_chunks_copied`/`index_copy_bytes` snapshot counters. The
    /// skew trigger may re-split the partition. In-flight readers keep
    /// the previous epoch; both caches are invalidated by the epoch tag.
    ///
    /// Validation (ids live, locations finite, no duplicate deletes) is
    /// the caller's job — the ingest layer rejects bad batches before the
    /// write-ahead log ever sees them.
    pub fn apply_batch(
        &self,
        corpus: Corpus,
        inserted: &[ObjectId],
        deleted: &[ObjectId],
    ) -> UpdateOutcome {
        let _guard = self.writer.lock();
        let t0 = Instant::now();
        let cur = self.state.load();

        // Copy-on-write routing, then the rebalance check.
        let (mut index, deltas, copy) = cur.index.apply(corpus.clone(), inserted, deleted);
        for (i, &(ins, del)) in deltas.iter().enumerate() {
            self.counters.shards[i].record_writes(ins, del);
            self.workload.record_write_cell(i, ins + del);
        }
        self.counters.record_index_copy(&copy);
        let rebalanced = self.skew_exceeded(&index);
        if rebalanced {
            index = ShardedIndex::build(corpus, self.config.shards, self.config.yask.tree_params);
        }

        // Out-of-core: the batch's touched trees materialized back to
        // resident form to mutate; page them out again before publishing.
        // Untouched (epoch-shared) trees are already paged and keep
        // their warm chunk caches.
        if let Some(p) = &self.pager {
            p.page_index(&mut index);
        }

        let epoch = cur.version.epoch() + 1;
        self.counters
            .record_batch(inserted.len(), deleted.len(), rebalanced);
        self.state.store(Arc::new(EngineState::new(epoch, cur.params, index)));
        self.workload.record_write(t0.elapsed());
        UpdateOutcome { epoch, rebalanced }
    }

    fn skew_exceeded(&self, sharded: &ShardedIndex) -> bool {
        let live = sharded.len();
        if sharded.shard_count() < 2 || live < self.config.rebalance_min {
            return false;
        }
        let ideal = (live as f64 / sharded.shard_count() as f64).max(1.0);
        sharded.max_shard_len() as f64 > self.config.rebalance_skew * ideal
    }

    // -- top-k --------------------------------------------------------------

    /// Runs a spatial keyword top-k query: answer cache first, then the
    /// scatter-gather computation, all against one pinned epoch.
    pub fn top_k(&self, query: &Query) -> Vec<RankedObject> {
        self.top_k_on(&self.engine(), query)
    }

    /// [`Executor::top_k`] against a *pinned* epoch instead of the
    /// current one (per-epoch sessions). The cache still works: keys
    /// carry the pinned epoch, so entries never leak across versions.
    pub fn top_k_on(&self, handle: &EngineHandle, query: &Query) -> Vec<RankedObject> {
        self.top_k_deadline_on_traced(handle, query, None, None)
            .results
    }

    /// [`Executor::top_k_on`] with an optional [`Trace`] collecting spans
    /// for the cache lookup, the scatter and each shard's search, under
    /// an optional [`Deadline`]: the shard searches stop expanding once
    /// the budget is spent and the outcome is flagged partial. Partial
    /// results are *not* cached — the cache stores exact answers only.
    /// The latency histograms record either way; tracing only adds span
    /// bookkeeping for requests that opted in (or are sampled into the
    /// server's trace ring).
    pub fn top_k_deadline_on_traced(
        &self,
        handle: &EngineHandle,
        query: &Query,
        trace: Option<&Trace>,
        deadline: Option<Deadline>,
    ) -> TopKOutcome {
        let state = &handle.0;
        let t0 = Instant::now();
        // Heat tracks *demand* (cache hits included): where queries land,
        // not where compute happens.
        self.workload.record_query(state.index.route(query.loc), query.doc.raw());
        let key = self
            .topk_cache
            .as_ref()
            .map(|_| (state.version.epoch(), QueryKey::of(query)));
        if let (Some(cache), Some(key)) = (&self.topk_cache, &key) {
            let hit = {
                let _span = trace.map(|t| t.span("cache_lookup"));
                cache.lock().get(key)
            };
            if let Some(hit) = hit {
                self.counters.topk_hit.record(t0.elapsed());
                self.workload.record_topk_hit(t0.elapsed());
                return TopKOutcome {
                    results: (*hit).clone(),
                    complete: true,
                };
            }
        }
        let (result, complete) = self.top_k_uncached(state, query, trace, deadline);
        if complete {
            if let (Some(cache), Some(key)) = (&self.topk_cache, key) {
                let value = Arc::new(result.clone());
                cache.lock().insert(key, value);
            }
        }
        TopKOutcome {
            results: result,
            complete,
        }
    }

    /// Probes the top-k cache for this query at the pinned epoch *or any
    /// of the `lookback` epochs before it* — the degraded-mode read
    /// path: when the engine is overloaded, a slightly stale cached
    /// answer (flagged `degraded` by the server) beats either queueing
    /// more work or a 429. Returns the hit and its age in epochs
    /// (0 = current, i.e. not actually stale).
    pub fn cached_topk_stale(
        &self,
        handle: &EngineHandle,
        query: &Query,
        lookback: u64,
    ) -> Option<(Vec<RankedObject>, u64)> {
        let cache = self.topk_cache.as_ref()?;
        let epoch = handle.epoch();
        let key = QueryKey::of(query);
        let mut cache = cache.lock();
        for age in 0..=lookback.min(epoch) {
            if let Some(hit) = cache.get(&(epoch - age, key.clone())) {
                return Some(((*hit).clone(), age));
            }
        }
        None
    }

    /// The uncached top-k computation: the hybrid, or the scan oracle
    /// when a shard reply went missing.
    fn top_k_uncached(
        &self,
        state: &EngineState,
        query: &Query,
        trace: Option<&Trace>,
        deadline: Option<Deadline>,
    ) -> (Vec<RankedObject>, bool) {
        let t0 = Instant::now();
        let gathered = self.scatter_gather(state, query, trace, deadline);
        self.counters.record_query(gathered.is_some());
        let (result, complete) = match gathered {
            Some(gathered) => gathered,
            // A shard reply went missing (its job panicked or was
            // dropped): stay exact by falling back to the scan oracle
            // over the pinned corpus version — unless the deadline is
            // already spent, in which case the honest answer is an empty
            // partial, not a late exact scan.
            None if deadline.is_some_and(|d| d.expired()) => (Vec::new(), false),
            None => (topk_scan(state.index.corpus(), &state.params, query), true),
        };
        self.counters.topk.record(t0.elapsed());
        self.workload.record_topk(t0.elapsed());
        (result, complete)
    }

    /// The hybrid top-k: the posting-list half on the calling thread,
    /// then the k-NN half fanned out to every shard and merged with it,
    /// recording the work counters (and, when a trace rides along, a
    /// `postings` span counting the objects it scored, then a `scatter`
    /// span counting the k-NN nodes expanded, with one span per shard
    /// plus a `gather` span for the merge under it). Returns `None` if
    /// any shard result went missing; the bool is false when a deadline
    /// cut a shard's search short.
    fn scatter_gather(
        &self,
        state: &EngineState,
        query: &Query,
        trace: Option<&Trace>,
        deadline: Option<Deadline>,
    ) -> Option<(Vec<RankedObject>, bool)> {
        let corpus = state.index.corpus();
        let found = {
            let mut span = trace.map(|t| t.span("postings"));
            let (found, scored) = topk_postings(corpus, &state.params, query);
            self.counters.record_postings(scored);
            if let Some(span) = &mut span {
                span.set_count(scored as u64);
            }
            found
        };
        let mut scatter = trace.map(|t| t.span("scatter"));
        let mut knn_nodes = 0u64;
        let gathered = crate::search::hybrid_topk(
            state.index.shards(),
            corpus,
            &self.pool,
            state.params,
            query,
            found,
            deadline,
            |i, stats, elapsed| {
                self.counters.shards[i].record(elapsed, stats.nodes_expanded, stats.objects_scored);
                knn_nodes += stats.nodes_expanded as u64;
                if let (Some(t), Some(sc)) = (trace, &scatter) {
                    t.add_span_elapsed(
                        sc.id(),
                        format!("shard{i}"),
                        elapsed.as_nanos().min(u64::MAX as u128) as u64,
                    );
                }
            },
            |gather_elapsed| {
                if let (Some(t), Some(sc)) = (trace, &scatter) {
                    t.add_span_elapsed(
                        sc.id(),
                        "gather",
                        gather_elapsed.as_nanos().min(u64::MAX as u128) as u64,
                    );
                }
            },
        );
        self.counters.record_knn_nodes(knn_nodes);
        if let Some(span) = &mut scatter {
            span.set_count(knn_nodes);
        }
        gathered
    }

    /// Viewport query: all objects in `rect` passing the keyword filter,
    /// id-ascending (per-shard ranges concatenate in shard order, so the
    /// result is sorted for a deterministic, shard-count-independent
    /// answer).
    pub fn viewport(
        &self,
        rect: &yask_geo::Rect,
        doc: &yask_text::KeywordSet,
        mode: yask_query::MatchMode,
    ) -> Vec<ObjectId> {
        let state = self.state.load();
        let mut ids: Vec<ObjectId> = state
            .index
            .shards()
            .iter()
            .flat_map(|tree| yask_query::range_keyword_tree(tree, rect, doc, mode))
            .collect();
        ids.sort_unstable();
        ids
    }

    // -- why-not (cached) ---------------------------------------------------

    /// The one why-not path: answers module `kind` about `missing` over
    /// the corpus version `pin` holds, through the answer cache. The pin
    /// carries no tree, so this path cannot read one; the STR cell the
    /// demand heat is charged to and the [`ScoreParams`] (the same in
    /// every epoch) come from the current epoch. The cache key carries
    /// the pinned epoch, and errors are returned but never cached. The
    /// per-module latency histogram samples every computed (non-cache-hit)
    /// run, errors included — a failing module still spent the time. A
    /// deadline that expired before the compute starts (time burned
    /// queueing) returns [`WhyNotError::DeadlineExceeded`] — but a cache
    /// hit is served regardless, since it costs nothing. The returned
    /// variant is the one `kind` names; a refinement's carries its refined
    /// query's top-k, the result preview, read off the same request table.
    #[allow(clippy::too_many_arguments)]
    pub fn whynot_on(
        &self,
        pin: &CorpusPin,
        kind: WhyNotKind,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
        trace: Option<&Trace>,
        deadline: Option<Deadline>,
    ) -> Result<Arc<CachedAnswer>, WhyNotError> {
        let cur = self.state.load();
        self.workload.record_query(cur.index.route(query.loc), query.doc.raw());
        let key = self
            .answer_cache
            .as_ref()
            .map(|_| (pin.epoch(), AnswerKey::of(query, missing, lambda, kind)));
        if let (Some(cache), Some(key)) = (&self.answer_cache, &key) {
            let hit = {
                let _span = trace.map(|t| t.span("cache_lookup"));
                cache.lock().get(key)
            };
            if let Some(hit) = hit {
                return Ok(hit);
            }
        }
        if deadline.is_some_and(|d| d.expired()) {
            return Err(WhyNotError::DeadlineExceeded);
        }
        let computed = {
            let span = trace.map(|t| t.span(format!("whynot_{}", kind.label())));
            let t0 = Instant::now();
            let computed = compute_whynot(
                pin.corpus(), &cur.params, kind, query, missing, lambda, deadline, span.as_ref(),
            );
            self.counters.whynot[kind as usize].record(t0.elapsed());
            self.workload.record_whynot(kind, t0.elapsed());
            computed
        };
        let value = Arc::new(computed?);
        if let (Some(cache), Some(key)) = (&self.answer_cache, key) {
            cache.lock().insert(key, Arc::clone(&value));
        }
        Ok(value)
    }

    /// Cached why-not explanations.
    pub fn explain(
        &self,
        query: &Query,
        desired: &[ObjectId],
    ) -> Result<Vec<Explanation>, WhyNotError> {
        self.explain_on(&self.engine(), query, desired)
    }

    /// [`Executor::explain`] against a pinned epoch. Explanations never
    /// read λ, so they key by 0.
    pub fn explain_on(
        &self,
        handle: &EngineHandle,
        query: &Query,
        desired: &[ObjectId],
    ) -> Result<Vec<Explanation>, WhyNotError> {
        module_on!(self, handle, Explain, query, desired, 0.0)
    }

    /// Cached preference-adjusted refinement (Definition 2).
    pub fn refine_preference(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<PreferenceRefinement, WhyNotError> {
        self.refine_preference_on(&self.engine(), query, missing, lambda)
    }

    /// [`Executor::refine_preference`] against a pinned epoch.
    pub fn refine_preference_on(
        &self,
        handle: &EngineHandle,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<PreferenceRefinement, WhyNotError> {
        module_on!(self, handle, Preference, query, missing, lambda)
    }

    /// Cached keyword-adapted refinement (Definition 3).
    pub fn refine_keywords(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<KeywordRefinement, WhyNotError> {
        self.refine_keywords_on(&self.engine(), query, missing, lambda)
    }

    /// [`Executor::refine_keywords`] against a pinned epoch.
    pub fn refine_keywords_on(
        &self,
        handle: &EngineHandle,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<KeywordRefinement, WhyNotError> {
        module_on!(self, handle, Keyword, query, missing, lambda)
    }

    /// Cached combined refinement.
    pub fn refine_combined(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<CombinedRefinement, WhyNotError> {
        self.refine_combined_on(&self.engine(), query, missing, lambda)
    }

    /// [`Executor::refine_combined`] against a pinned epoch.
    pub fn refine_combined_on(
        &self,
        handle: &EngineHandle,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<CombinedRefinement, WhyNotError> {
        module_on!(self, handle, Combined, query, missing, lambda)
    }

    /// The full why-not answer with the engine's default λ.
    pub fn answer(&self, query: &Query, missing: &[ObjectId]) -> Result<WhyNotAnswer, WhyNotError> {
        self.answer_with_lambda(query, missing, self.config.yask.default_lambda)
    }

    /// The full why-not answer with an explicit λ: explanations and both
    /// refinements, each a cached module call on one pinned epoch, plus
    /// the recommendation.
    pub fn answer_with_lambda(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<WhyNotAnswer, WhyNotError> {
        let handle = self.engine();
        Ok(WhyNotAnswer::assemble(
            self.explain_on(&handle, query, missing)?,
            self.refine_preference_on(&handle, query, missing, lambda)?,
            self.refine_keywords_on(&handle, query, missing, lambda)?,
        ))
    }

    // -- admission inputs ---------------------------------------------------

    /// The cheap point sample the admission check reads per request: a
    /// few relaxed atomic loads plus one window fold, no snapshot
    /// allocation.
    pub fn pressure(&self) -> Pressure {
        Pressure {
            queue_depth_1m: self.pool.queue_depth_max_windowed(60),
            topk_p99_ms: self.workload.topk_p99_10s_ns() as f64 / 1e6,
            hot_cell_ratio: 1.0,
        }
    }

    /// [`Executor::pressure`] plus the hot-cell term for the STR cell
    /// this query routes to.
    pub fn pressure_for(&self, handle: &EngineHandle, query: &Query) -> Pressure {
        Pressure {
            hot_cell_ratio: self.workload.cell_heat_ratio(handle.0.index.route(query.loc)),
            ..self.pressure()
        }
    }

    // -- metrics ------------------------------------------------------------

    /// Snapshots every counter the executor maintains.
    pub fn stats(&self) -> ExecSnapshot {
        let state = self.state.load();
        let corpus = state.index.corpus();
        ExecSnapshot {
            workers: self.pool.workers(),
            queue_depth: self.pool.queue_depth(),
            queue_depth_max: self.pool.queue_depth_max(),
            queue_depth_max_1m: self.pool.queue_depth_max_windowed(60),
            queue_saturated: self.pool.saturated_submits(),
            epoch: state.version.epoch(),
            live_objects: corpus.len(),
            tombstones: corpus.tombstones(),
            topk_cache: self
                .topk_cache
                .as_ref()
                .map(|c| c.lock().snapshot())
                .unwrap_or_default(),
            answer_cache: self
                .answer_cache
                .as_ref()
                .map(|c| c.lock().snapshot())
                .unwrap_or_default(),
            workload: self.workload.snapshot(),
            pager: self.pager.as_ref().map(|p| p.snapshot()),
            ..self.counters.snapshot(state.shard_shapes())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::{Point, Space};
    use yask_index::CorpusBuilder;
    use yask_query::topk_scan;
    use yask_text::KeywordSet;
    use yask_util::Xoshiro256;

    fn random_corpus(n: usize, seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            let doc = KeywordSet::from_raw((0..1 + rng.below(4)).map(|_| rng.below(12) as u32));
            b.push(Point::new(rng.next_f64(), rng.next_f64()), doc, format!("o{i}"));
        }
        b.build()
    }

    fn ks(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_raw(ids.iter().copied())
    }

    #[test]
    fn out_of_core_executor_matches_resident_and_prices_faults() {
        let corpus = random_corpus(400, 90);
        let resident = Executor::with_defaults(corpus.clone());
        // Budget of one byte per tree: worst case, every chunk access
        // faults a run from the tree's file.
        let paged = Executor::new(
            corpus.clone(),
            ExecConfig {
                resident_budget: Some(1),
                topk_cache: 0,
                answer_cache: 0,
                ..ExecConfig::default()
            },
        );
        let params = resident.engine().score_params();
        let mut rng = Xoshiro256::seed_from_u64(13);
        for _ in 0..10 {
            let q = Query::new(
                Point::new(rng.next_f64(), rng.next_f64()),
                ks(&[rng.below(12) as u32, rng.below(12) as u32]),
                1 + rng.below(8),
            );
            assert_eq!(resident.top_k(&q), paged.top_k(&q));
            let all = topk_scan(&corpus, &params, &q.with_k(corpus.len()));
            let missing = vec![all[q.k + 1].id];
            let a = resident.answer(&q, &missing).unwrap();
            let b = paged.answer(&q, &missing).unwrap();
            assert_eq!(a.explanations.len(), b.explanations.len());
            assert_eq!(a.preference.penalty, b.preference.penalty);
            assert_eq!(a.keyword.penalty, b.keyword.penalty);
            assert_eq!(a.recommended, b.recommended);
        }
        let s = paged.stats();
        let p = s.pager.expect("paged executor exposes pager stats");
        assert!(p.chunk_misses > 0, "one-byte budget must fault: {p:?}");
        assert!(p.disk_bytes > 0, "paged trees hold their runs on disk: {p:?}");
        assert_eq!(p.paged_trees, 4);
        assert!(resident.stats().pager.is_none());
    }

    /// Every why-not module reads its request table and no shard tree: on
    /// a paged executor whose one-byte budget faults on any tree read,
    /// one question per module touches no chunk. Each refinement's
    /// preview is its refined query's exact top-k.
    #[test]
    fn whynot_reads_no_tree() {
        let corpus = random_corpus(400, 92);
        let paged = Executor::new(
            corpus.clone(),
            ExecConfig {
                resident_budget: Some(1),
                topk_cache: 0,
                answer_cache: 0,
                ..ExecConfig::default()
            },
        );
        let handle = paged.engine();
        let params = handle.score_params();
        let q = Query::new(Point::new(0.3, 0.6), ks(&[1, 5]), 4);
        let all = topk_scan(&corpus, &params, &q.with_k(corpus.len()));
        let missing = vec![all[q.k + 3].id];
        let chunks = || {
            let p = paged.stats().pager.expect("paged executor exposes pager stats");
            p.chunk_hits + p.chunk_misses
        };
        // The first snapshot walks each tree once for its shape.
        chunks();
        for kind in WhyNotKind::ALL {
            let before = chunks();
            let answer = paged
                .whynot_on(&handle.version(), kind, &q, &missing, 0.5, None, None)
                .unwrap();
            assert_eq!(chunks(), before, "{kind:?} read a tree");
            let (refined, preview) = match &*answer {
                CachedAnswer::Explain(_) => continue,
                CachedAnswer::Preference(r, p) => (&r.query, p),
                CachedAnswer::Keyword(r, p) => (&r.query, p),
                CachedAnswer::Combined(r, p) => (&r.query, p),
            };
            assert_eq!(preview, &topk_scan(&corpus, &params, refined), "{kind:?}");
        }
    }

    #[test]
    fn out_of_core_survives_write_batches() {
        let corpus = random_corpus(300, 91);
        let exec = Executor::new(
            corpus.clone(),
            ExecConfig {
                resident_budget: Some(4096),
                ..ExecConfig::default()
            },
        );
        let (v1, new_ids) = corpus.with_updates(
            [(Point::new(0.31, 0.62), ks(&[2, 4]), "fresh".to_owned())],
            &[ObjectId(7)],
        );
        exec.apply_batch(v1.clone(), &new_ids, &[ObjectId(7)]);
        let params = exec.engine().score_params();
        let mut rng = Xoshiro256::seed_from_u64(14);
        for _ in 0..8 {
            let q = Query::new(
                Point::new(rng.next_f64(), rng.next_f64()),
                ks(&[rng.below(12) as u32]),
                1 + rng.below(6),
            );
            let got: Vec<ObjectId> = exec.top_k(&q).iter().map(|r| r.id).collect();
            let want: Vec<ObjectId> = topk_scan(&v1, &params, &q).iter().map(|r| r.id).collect();
            assert_eq!(got, want);
        }
    }

    /// The paged-source registry drops a superseded tree's entry before
    /// it registers the next one, so with no `/stats` poll (no snapshot)
    /// a hundred one-object batches leave it bounded by the live trees.
    #[test]
    fn the_paged_source_registry_stays_bounded_without_snapshots() {
        let mut corpus = random_corpus(500, 95);
        let exec = Executor::new(
            corpus.clone(),
            ExecConfig {
                shards: 2,
                resident_budget: Some(4096),
                ..ExecConfig::default()
            },
        );
        for i in 0..100u32 {
            let (next, new_ids) = corpus.with_updates(
                [(Point::new(0.5, 0.5), ks(&[i % 12]), format!("w{i}"))],
                &[],
            );
            exec.apply_batch(next.clone(), &new_ids, &[]);
            corpus = next;
        }
        let sources = exec.pager.as_ref().unwrap().sources.lock();
        let live = sources.iter().filter(|w| w.strong_count() > 0).count();
        assert_eq!(live, 2);
        assert!(sources.len() <= 2 * live, "{} entries for {live} live trees", sources.len());
    }

    /// Each paged tree owns its run file, so the disk a write batch's
    /// re-paged trees take is given back when the trees they replace are
    /// dropped: twenty one-object batches leave the run bytes where the
    /// build put them.
    #[test]
    fn paged_writes_give_their_disk_back() {
        let mut corpus = random_corpus(2000, 93);
        let exec = Executor::new(
            corpus.clone(),
            ExecConfig {
                shards: 2,
                resident_budget: Some(4096),
                ..ExecConfig::default()
            },
        );
        let pager = || exec.stats().pager.expect("paged executor exposes pager stats");
        let built = pager();
        assert_eq!(built.paged_trees, 2);
        assert!(built.disk_bytes > 0, "{built:?}");
        for i in 0..20u32 {
            let (next, new_ids) = corpus.with_updates(
                [(Point::new(0.5, 0.5), ks(&[i % 12]), format!("w{i}"))],
                &[ObjectId(i)],
            );
            exec.apply_batch(next.clone(), &new_ids, &[ObjectId(i)]);
            corpus = next;
            let p = pager();
            assert_eq!(p.paged_trees, 2, "batch {i}: {p:?}");
            assert!(
                p.disk_bytes * 2 <= built.disk_bytes * 3,
                "batch {i}: run bytes grew from {} to {}",
                built.disk_bytes,
                p.disk_bytes
            );
        }
    }

    #[test]
    fn sharded_top_k_matches_scan() {
        let corpus = random_corpus(350, 51);
        let exec = Executor::with_defaults(corpus.clone());
        let params = exec.engine().score_params();
        let mut rng = Xoshiro256::seed_from_u64(4);
        for _ in 0..20 {
            let q = Query::new(
                Point::new(rng.next_f64(), rng.next_f64()),
                ks(&[rng.below(12) as u32, rng.below(12) as u32]),
                1 + rng.below(8),
            );
            let got: Vec<ObjectId> = exec.top_k(&q).iter().map(|r| r.id).collect();
            let want: Vec<ObjectId> = topk_scan(&corpus, &params, &q).iter().map(|r| r.id).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn topk_cache_hits_on_repeat() {
        let corpus = random_corpus(200, 52);
        let exec = Executor::with_defaults(corpus);
        let q = Query::new(Point::new(0.3, 0.3), ks(&[1, 2]), 5);
        let a = exec.top_k(&q);
        let b = exec.top_k(&q);
        assert_eq!(a, b);
        let s = exec.stats();
        assert_eq!(s.topk_cache.hits, 1);
        assert_eq!(s.topk_cache.misses, 1);
        assert_eq!(s.queries, 1, "second call must not recompute");
    }

    #[test]
    fn latency_histograms_sample_compute_and_hit_paths() {
        let corpus = random_corpus(200, 71);
        let exec = Executor::with_defaults(corpus.clone());
        let q = Query::new(Point::new(0.3, 0.3), ks(&[1, 2]), 5);
        exec.top_k(&q); // cold: compute histogram
        exec.top_k(&q); // warm: hit histogram
        let all = topk_scan(&corpus, &exec.engine().score_params(), &q.with_k(corpus.len()));
        let missing = vec![all[q.k + 1].id];
        exec.answer(&q, &missing).unwrap();
        let s = exec.stats();
        assert_eq!(s.topk_hist.count, 1, "one cold compute");
        assert_eq!(s.topk_hit_hist.count, 1, "one cache hit");
        assert!(s.topk_hist.sum_ns > 0);
        // The full answer is three module runs; combined never ran.
        for kind in [WhyNotKind::Explain, WhyNotKind::Preference, WhyNotKind::Keyword] {
            assert_eq!(s.whynot_hists.of(kind).count, 1, "{kind:?}");
        }
        assert_eq!(s.whynot_hists.of(WhyNotKind::Combined).count, 0);
        // Scatter ran once over 4 shards: each shard histogram sampled once.
        assert!(s.shard_search_hists.iter().all(|h| h.count == 1));
    }

    #[test]
    fn traced_query_yields_span_tree() {
        let corpus = random_corpus(300, 72);
        let exec = Executor::with_defaults(corpus.clone());
        let q = Query::new(Point::new(0.4, 0.4), ks(&[2, 3]), 5);
        let handle = exec.engine();

        let trace = Trace::new("topk");
        exec.top_k_deadline_on_traced(&handle, &q, Some(&trace), None);
        let f = trace.finish();
        let names: Vec<&str> = f.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"cache_lookup"), "{names:?}");
        assert!(names.contains(&"scatter"), "{names:?}");
        assert!(names.contains(&"gather"), "{names:?}");
        let scatter = f.spans.iter().find(|s| s.name == "scatter").unwrap();
        let shard_spans = f
            .spans
            .iter()
            .filter(|s| s.parent == scatter.id && s.name.starts_with("shard"))
            .count();
        assert_eq!(shard_spans, 4, "{names:?}");

        // The cache-hit path records the lookup span only.
        let trace2 = Trace::new("topk-hit");
        exec.top_k_deadline_on_traced(&handle, &q, Some(&trace2), None);
        let f2 = trace2.finish();
        assert_eq!(f2.spans.len(), 1);
        assert_eq!(f2.spans[0].name, "cache_lookup");

        // A traced why-not run records its module span, one per module.
        let all = topk_scan(&corpus, &exec.engine().score_params(), &q.with_k(corpus.len()));
        let missing = vec![all[q.k + 1].id];
        let trace3 = Trace::new("whynot");
        let kinds = [WhyNotKind::Explain, WhyNotKind::Preference, WhyNotKind::Keyword];
        for kind in kinds {
            exec.whynot_on(&handle.version(), kind, &q, &missing, 0.5, Some(&trace3), None)
                .unwrap();
        }
        let f3 = trace3.finish();
        let names: Vec<&str> = f3.spans.iter().map(|s| s.name.as_str()).collect();
        for kind in kinds {
            let span = format!("whynot_{}", kind.label());
            assert!(names.contains(&span.as_str()), "{span} missing: {names:?}");
            // Each module's table pass is a child span counting the
            // objects that share a keyword with U.
            let module = f3.spans.iter().find(|s| s.name == span).unwrap();
            let table: Vec<_> = f3.children_of(module.id).filter(|s| s.name == "request_table").collect();
            assert_eq!(table.len(), 1, "{span}: {names:?}");
            assert!(table[0].count.is_some_and(|c| c > 0), "{span}: {:?}", table[0]);
        }
    }

    #[test]
    fn answer_cache_hits_on_repeat() {
        let corpus = random_corpus(250, 53);
        let exec = Executor::with_defaults(corpus.clone());
        let q = Query::new(Point::new(0.2, 0.7), ks(&[2, 3]), 4);
        let all = topk_scan(&corpus, &exec.engine().score_params(), &q.with_k(corpus.len()));
        let missing = vec![all[q.k + 2].id];
        let a = exec.answer(&q, &missing).unwrap();
        let b = exec.answer(&q, &missing).unwrap();
        assert_eq!(a.preference.penalty, b.preference.penalty);
        assert_eq!(a.keyword.penalty, b.keyword.penalty);
        // One answer is three module entries: the repeat hits all three.
        let s = exec.stats();
        assert_eq!(s.answer_cache.hits, 3);
        assert_eq!(s.answer_cache.misses, 3);
    }

    #[test]
    fn errors_are_not_cached() {
        let corpus = random_corpus(60, 54);
        let exec = Executor::with_defaults(corpus);
        let q = Query::new(Point::new(0.5, 0.5), ks(&[1]), 3);
        for _ in 0..2 {
            assert!(matches!(
                exec.answer(&q, &[]),
                Err(WhyNotError::EmptyMissingSet)
            ));
        }
        let s = exec.stats();
        assert_eq!(s.answer_cache.insertions, 0);
        assert_eq!(s.answer_cache.misses, 2);
    }

    #[test]
    fn explain_cache_respects_missing_order_and_multiplicity() {
        let corpus = random_corpus(200, 59);
        let exec = Executor::with_defaults(corpus.clone());
        let q = Query::new(Point::new(0.4, 0.4), ks(&[1, 2]), 3);
        let all = topk_scan(&corpus, &exec.engine().score_params(), &q.with_k(corpus.len()));
        let (a, b) = (all[q.k].id, all[q.k + 1].id);
        // Warm the cache with [a, b], then ask permuted and duplicated
        // variants: each must match the engine exactly, never a reordered
        // or shortened cached payload.
        for missing in [vec![a, b], vec![b, a], vec![a, a]] {
            let via_exec = exec.explain(&q, &missing).unwrap();
            let via_engine =
                yask_core::explain(&corpus, &exec.engine().score_params(), &q, &missing).unwrap();
            assert_eq!(via_exec.len(), via_engine.len(), "{missing:?}");
            for (x, y) in via_exec.iter().zip(&via_engine) {
                assert_eq!(x.object, y.object, "{missing:?}");
                assert_eq!(x.rank, y.rank, "{missing:?}");
            }
        }
    }

    #[test]
    fn default_workers_match_shard_count() {
        let corpus = random_corpus(80, 60);
        let exec = Executor::new(
            corpus,
            ExecConfig {
                shards: 6,
                ..ExecConfig::default()
            },
        );
        assert_eq!(exec.config().workers, 6);
        assert_eq!(exec.stats().workers, 6);
    }

    #[test]
    fn single_shard_config_scatters_like_any_other() {
        let corpus = random_corpus(120, 55);
        let exec = Executor::new(
            corpus.clone(),
            ExecConfig {
                shards: 1,
                ..ExecConfig::default()
            },
        );
        assert_eq!(exec.shard_count(), 1);
        let q = Query::new(Point::new(0.4, 0.6), ks(&[1]), 5);
        let got: Vec<ObjectId> = exec.top_k(&q).iter().map(|r| r.id).collect();
        let want: Vec<ObjectId> = topk_scan(&corpus, &exec.engine().score_params(), &q)
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(got, want);
        let s = exec.stats();
        assert_eq!(s.workers, 1);
        assert_eq!(s.scatter_queries, 1);
        assert_eq!(s.scan_fallbacks, 0);
        assert_eq!(s.per_shard.len(), 1);
        assert_eq!((s.per_shard[0].objects, s.per_shard[0].queries), (120, 1));
    }

    #[test]
    fn caches_can_be_disabled() {
        let corpus = random_corpus(100, 56);
        let exec = Executor::new(
            corpus,
            ExecConfig {
                topk_cache: 0,
                answer_cache: 0,
                ..ExecConfig::default()
            },
        );
        let q = Query::new(Point::new(0.5, 0.5), ks(&[2]), 3);
        exec.top_k(&q);
        exec.top_k(&q);
        let s = exec.stats();
        assert_eq!(s.queries, 2, "cacheless executor recomputes");
        assert_eq!(s.topk_cache.hits + s.topk_cache.misses, 0);
    }

    #[test]
    fn stats_expose_per_shard_work() {
        let corpus = random_corpus(400, 57);
        let exec = Executor::with_defaults(corpus);
        let q = Query::new(Point::new(0.5, 0.5), ks(&[1, 2, 3]), 10);
        exec.top_k(&q);
        let s = exec.stats();
        assert_eq!(s.shards, 4);
        assert_eq!(s.workers, 4);
        assert_eq!(s.per_shard.len(), 4);
        assert_eq!(s.per_shard.iter().map(|p| p.objects).sum::<usize>(), 400);
        assert_eq!(s.per_shard.iter().map(|p| p.queries).sum::<u64>(), 4);
        // The keyword half scored on the calling thread; the shards' k-NN
        // half may have pruned at their roots under its bound.
        assert!(s.postings_scored > 0);
        assert_eq!(s.knn_nodes_expanded, s.per_shard.iter().map(|p| p.nodes_expanded).sum::<u64>());
    }

    #[test]
    fn concurrent_queries_stay_exact() {
        let corpus = random_corpus(500, 58);
        let exec = std::sync::Arc::new(Executor::new(
            corpus.clone(),
            ExecConfig {
                shards: 4,
                workers: 2, // fewer workers than shards: jobs queue up
                topk_cache: 0,
                ..ExecConfig::default()
            },
        ));
        let params = exec.engine().score_params();
        let mut handles = Vec::new();
        for t in 0..6u64 {
            let exec = exec.clone();
            let corpus = corpus.clone();
            handles.push(std::thread::spawn(move || {
                let mut rng = Xoshiro256::seed_from_u64(100 + t);
                for _ in 0..10 {
                    let q = Query::new(
                        Point::new(rng.next_f64(), rng.next_f64()),
                        KeywordSet::from_raw([rng.below(12) as u32]),
                        1 + rng.below(6),
                    );
                    let got: Vec<ObjectId> = exec.top_k(&q).iter().map(|r| r.id).collect();
                    let want: Vec<ObjectId> =
                        topk_scan(&corpus, &params, &q).iter().map(|r| r.id).collect();
                    assert_eq!(got, want);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(exec.stats().scatter_queries, 60);
    }

    // -- live updates --------------------------------------------------------

    #[test]
    fn apply_batch_publishes_a_new_epoch_and_stays_exact() {
        let corpus = random_corpus(300, 61);
        let exec = Executor::with_defaults(corpus.clone());
        assert_eq!(exec.epoch(), 0);
        let (v1, new_ids) = corpus.with_updates(
            [
                (Point::new(0.41, 0.43), ks(&[1, 2]), "fresh-a".to_owned()),
                (Point::new(0.77, 0.11), ks(&[3]), "fresh-b".to_owned()),
            ],
            &[ObjectId(4), ObjectId(200)],
        );
        let outcome = exec.apply_batch(v1.clone(), &new_ids, &[ObjectId(4), ObjectId(200)]);
        assert_eq!(outcome.epoch, 1);
        assert_eq!(exec.epoch(), 1);
        assert_eq!(exec.corpus().len(), 300);
        // Every query against the new epoch equals a scan of the new
        // corpus version (tombstones invisible, inserts visible).
        let params = exec.engine().score_params();
        let mut rng = Xoshiro256::seed_from_u64(9);
        for _ in 0..15 {
            let q = Query::new(
                Point::new(rng.next_f64(), rng.next_f64()),
                ks(&[rng.below(12) as u32]),
                1 + rng.below(9),
            );
            let got: Vec<ObjectId> = exec.top_k(&q).iter().map(|r| r.id).collect();
            let want: Vec<ObjectId> = topk_scan(&v1, &params, &q).iter().map(|r| r.id).collect();
            assert_eq!(got, want);
        }
        let s = exec.stats();
        assert_eq!((s.epoch, s.batches, s.inserts, s.deletes), (1, 1, 2, 2));
        assert_eq!(s.live_objects, 300);
        assert_eq!(s.tombstones, 2);
        assert_eq!(s.per_shard.iter().map(|p| p.inserts).sum::<u64>(), 2);
        assert_eq!(s.per_shard.iter().map(|p| p.deletes).sum::<u64>(), 2);
    }

    #[test]
    fn readers_pin_an_epoch_across_a_concurrent_batch() {
        let corpus = random_corpus(150, 62);
        let exec = Executor::with_defaults(corpus.clone());
        // Pin epoch 0, then publish epoch 1 deleting object 3.
        let pinned = exec.engine();
        let (v1, _) = corpus.with_updates(std::iter::empty(), &[ObjectId(3)]);
        exec.apply_batch(v1, &[], &[ObjectId(3)]);
        // The pin still sees the old corpus version in full.
        assert_eq!(pinned.epoch(), 0);
        assert!(pinned.corpus().contains(ObjectId(3)));
        assert_eq!(pinned.corpus().len(), 150);
        // New loads see the new epoch.
        assert_eq!(exec.engine().epoch(), 1);
        assert!(!exec.corpus().contains(ObjectId(3)));
    }

    /// Satellite regression: after a delete, a previously cached top-k
    /// answer containing that object must not be served.
    #[test]
    fn topk_cache_is_invalidated_by_deletes() {
        let corpus = random_corpus(200, 63);
        let exec = Executor::with_defaults(corpus.clone());
        let q = Query::new(Point::new(0.5, 0.5), ks(&[1]), 5);
        let warm = exec.top_k(&q); // cold miss; cached under epoch 0
        let victim = warm[0].id;
        let (v1, _) = corpus.with_updates(std::iter::empty(), &[victim]);
        exec.apply_batch(v1.clone(), &[], &[victim]);
        let after = exec.top_k(&q);
        assert!(
            after.iter().all(|r| r.id != victim),
            "deleted object served from a stale cache entry"
        );
        // And the refreshed answer is the exact scan of the new version.
        let want: Vec<ObjectId> = topk_scan(&v1, &exec.engine().score_params(), &q)
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(after.iter().map(|r| r.id).collect::<Vec<_>>(), want);
        // Both computations were misses (epoch-tagged keys never collide);
        // a repeat of the new query hits.
        let s0 = exec.stats();
        assert_eq!(s0.topk_cache.misses, 2);
        exec.top_k(&q);
        assert_eq!(exec.stats().topk_cache.hits, s0.topk_cache.hits + 1);
    }

    /// Satellite regression: the why-not answer cache is epoch-tagged too
    /// — a cached answer about an object that was then deleted must not
    /// be served (the engine now reports it foreign).
    #[test]
    fn answer_cache_is_invalidated_by_deletes() {
        let corpus = random_corpus(250, 64);
        let exec = Executor::with_defaults(corpus.clone());
        let q = Query::new(Point::new(0.3, 0.6), ks(&[2, 4]), 4);
        let all = topk_scan(&corpus, &exec.engine().score_params(), &q.with_k(corpus.len()));
        let missing = vec![all[q.k + 3].id];
        let warm = exec.answer(&q, &missing).unwrap(); // cached under epoch 0
        assert!(warm.preference.penalty >= 0.0);
        let (v1, _) = corpus.with_updates(std::iter::empty(), &missing);
        exec.apply_batch(v1, &[], &missing);
        // The same question against the new epoch is recomputed, and the
        // engine correctly rejects the now-dead object instead of echoing
        // the stale cached answer.
        assert!(matches!(
            exec.answer(&q, &missing),
            Err(WhyNotError::ForeignObject(_))
        ));
        let s = exec.stats();
        assert_eq!(s.answer_cache.hits, 0);
    }

    #[test]
    fn skewed_growth_triggers_rebalance() {
        // Uniform corpus, then hammer one corner with inserts until the
        // owning shard trips the skew trigger.
        let corpus = random_corpus(200, 65);
        let exec = Executor::new(
            corpus.clone(),
            ExecConfig {
                shards: 4,
                rebalance_skew: 1.5,
                rebalance_min: 64,
                ..ExecConfig::default()
            },
        );
        let mut current = corpus;
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut rebalanced = false;
        for i in 0..400 {
            let (next, ids) = current.with_updates(
                [(
                    Point::new(0.02 + 0.01 * rng.next_f64(), 0.02 + 0.01 * rng.next_f64()),
                    ks(&[1]),
                    format!("corner{i}"),
                )],
                &[],
            );
            let outcome = exec.apply_batch(next.clone(), &ids, &[]);
            current = next;
            if outcome.rebalanced {
                rebalanced = true;
                break;
            }
        }
        assert!(rebalanced, "corner growth never tripped the skew trigger");
        assert!(exec.stats().rebalances >= 1);
        // After the re-split the partition is balanced again and queries
        // remain exact.
        let s = exec.stats();
        let max = s.per_shard.iter().map(|p| p.objects).max().unwrap();
        let live = s.live_objects;
        assert!(
            (max as f64) <= 1.5 * (live as f64 / 4.0).max(1.0),
            "still skewed after rebalance: max {max} of {live}"
        );
        let q = Query::new(Point::new(0.03, 0.03), ks(&[1]), 8);
        let got: Vec<ObjectId> = exec.top_k(&q).iter().map(|r| r.id).collect();
        let want: Vec<ObjectId> = topk_scan(&current, &exec.engine().score_params(), &q)
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn concurrent_keyword_refinements_do_not_wedge_the_pool() {
        // Two keyword refinements race on a pool with exactly one thread
        // per shard: both count ranks on their own threads, scatter only
        // their top-k searches, complete, and agree with the
        // `yask_core::Yask` oracle.
        let corpus = random_corpus(300, 77);
        let exec = std::sync::Arc::new(Executor::new(
            corpus.clone(),
            ExecConfig {
                shards: 4,
                workers: 4,
                answer_cache: 0, // force both threads to really compute
                ..ExecConfig::default()
            },
        ));
        let oracle = yask_core::Yask::new(corpus, YaskConfig::default());
        let q = Query::new(Point::new(0.4, 0.6), KeywordSet::from_raw([1u32, 3]), 4);
        let missing = vec![oracle.top_k(&q.with_k(oracle.corpus().len()))[q.k + 2].id];
        let mut handles = Vec::new();
        for _ in 0..2 {
            let exec = std::sync::Arc::clone(&exec);
            let (q, missing) = (q.clone(), missing.clone());
            handles.push(std::thread::spawn(move || {
                exec.refine_keywords(&q, &missing, 0.5).expect("refinement")
            }));
        }
        let want = oracle.refine_keywords(&q, &missing, 0.5).unwrap();
        for h in handles {
            let got = h.join().expect("refinement thread");
            assert!((got.penalty - want.penalty).abs() < 1e-12);
            assert_eq!(got.query.doc, want.query.doc);
            assert_eq!(got.query.k, want.query.k);
        }
    }

    #[test]
    fn observatory_tracks_demand_per_routed_cell() {
        let corpus = random_corpus(400, 80);
        let exec = Executor::with_defaults(corpus.clone());
        // Fire queries at one fixed point: every touch must land in the
        // cell the router assigns that point, cache hits included.
        let p = Point::new(0.21, 0.84);
        let cell = exec.engine().0.index.route(p);
        let q = Query::new(p, ks(&[3, 5]), 5);
        for _ in 0..10 {
            exec.top_k(&q);
        }
        let wl = exec.stats().workload;
        assert_eq!(wl.query_touches[cell], 10);
        assert_eq!(wl.query_touches.iter().sum::<u64>(), 10);
        assert!(wl.query_heat[cell] > 9.9, "all heat in the routed cell");
        assert!((wl.query_skew - 4.0).abs() < 0.01, "skew={}", wl.query_skew);
        // Windows saw 1 compute and 9 cache hits, all within the minute.
        assert_eq!(wl.topk.h60.count, 1);
        assert_eq!(wl.topk_hit.h60.count, 9);
        assert!(wl.topk.h60.rate_per_sec() > 0.0);
        // The keyword sketch counted both query keywords per call.
        assert_eq!(wl.keyword_total, 20);
        assert_eq!(wl.hot_keywords.len(), 2);
        assert_eq!(wl.hot_keywords[0].1, 10);
    }

    #[test]
    fn observatory_tracks_writes_and_whynot() {
        let corpus = random_corpus(300, 81);
        let exec = Executor::with_defaults(corpus.clone());
        let q = Query::new(Point::new(0.5, 0.5), ks(&[1, 2]), 4);
        let all = topk_scan(&corpus, &exec.engine().score_params(), &q.with_k(corpus.len()));
        let missing = vec![all[q.k + 1].id];
        exec.answer(&q, &missing).unwrap();
        let (v1, ids) = corpus.with_updates(
            [(Point::new(0.1, 0.1), ks(&[1]), "w0".to_owned())],
            &[ObjectId(7)],
        );
        exec.apply_batch(v1, &ids, &[ObjectId(7)]);
        let wl = exec.stats().workload;
        // The full answer ran explain and both refinements once each;
        // their windows and the demand heat (one touch per module) saw it.
        let named = wl.whynot_named();
        assert_eq!(named.map(|(_, w)| w.h60.count), [1, 1, 1, 0]);
        assert_eq!(wl.query_touches.iter().sum::<u64>(), 3);
        // One batch with 2 ops: write window sampled once, write heat
        // counted both ops across the routed cells.
        assert_eq!(wl.writes.h60.count, 1);
        assert_eq!(wl.write_touches.iter().sum::<u64>(), 2);
        assert!(wl.writes.h60.sum_ns > 0);
    }

    #[test]
    fn concurrent_reads_during_writes_never_tear() {
        // Readers race a writer applying batches; every read must be
        // internally consistent (scores computable, k results, no panic on
        // dead slots) — the epoch pin guarantees it.
        let corpus = random_corpus(300, 66);
        let exec = std::sync::Arc::new(Executor::with_defaults(corpus.clone()));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let exec = exec.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut rng = Xoshiro256::seed_from_u64(500 + t);
                let mut reads = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let q = Query::new(
                        Point::new(rng.next_f64(), rng.next_f64()),
                        KeywordSet::from_raw([rng.below(12) as u32]),
                        5,
                    );
                    let r = exec.top_k(&q);
                    assert!(r.len() <= 5);
                    for w in r.windows(2) {
                        assert!(w[0].score >= w[1].score, "unsorted result");
                    }
                    reads += 1;
                }
                reads
            }));
        }
        let mut current = corpus;
        let mut rng = Xoshiro256::seed_from_u64(42);
        for i in 0..60 {
            let live = current.live_ids();
            let victim = live[rng.below(live.len())];
            let (next, ids) = current.with_updates(
                [(
                    Point::new(rng.next_f64(), rng.next_f64()),
                    KeywordSet::from_raw([rng.below(12) as u32]),
                    format!("w{i}"),
                )],
                &[victim],
            );
            exec.apply_batch(next.clone(), &ids, &[victim]);
            current = next;
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in handles {
            assert!(h.join().unwrap() > 0, "reader did no work");
        }
        assert_eq!(exec.epoch(), 60);
    }
}
