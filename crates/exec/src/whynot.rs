//! Why-not answers from the shard trees alone — no global KcR-tree
//! anywhere.
//!
//! The seed engine answered why-not questions on a single tree over the
//! whole corpus; the sharded executor used to keep that tree *next to*
//! the shard trees, doubling index memory and write amplification. This
//! module derives every module's answer from the shard trees, exactly:
//!
//! * **explain** — the top-k comes from the usual scatter-gather; each
//!   desired object's exact rank comes from one scan of the corpus, as
//!   in [`yask_core::explain`]. Classification and rendering are delegated
//!   back to [`yask_core::explain_given`], so the output is
//!   byte-identical to the single-tree path.
//! * **preference adjustment** — the request's weight-plane table
//!   ([`SegmentSet`](yask_core::SegmentSet)) is one id-ordered pass over
//!   the live corpus, and the candidate sweep runs on it unchanged in
//!   `yask_core`. Each refinement builds its own table, which also
//!   supplies its initial ranks.
//! * **keyword adaptation** — `yask_core`'s one evaluator, run by a
//!   [`TreeRefinementEngine`] over the shard trees on the calling thread:
//!   the cheap bounds are summed over the shards, and the exact counts
//!   are taken shard after shard under one running total that abandons a
//!   candidate once it is provably hopeless.
//!
//! Exactness rests on two facts, pinned by the property suite in
//! `tests/whynot_sharded.rs`: per-shard outrank counts sum to the global
//! count (disjoint cover, shared total order), and the pruning only ever
//! discards candidates whose true penalty is at least the best — so the
//! search picks the same winner, after the same number of evaluations,
//! as on one global tree.

use yask_core::{
    explain_given, refine_combined_on, request_table, validate_desired, CombinedRefinement,
    Explanation, KeywordOptions, KeywordRefinement, PreferenceRefinement, RefinementEngine,
    TreeRefinementEngine, WhyNotError,
};
use yask_index::{Corpus, ObjectId, RTree};
use yask_query::{ranks_of_scan, topk_scan, Query, RankedObject, ScoreParams};

use crate::deadline::Deadline;
use crate::pool::WorkerPool;
use crate::search::scatter_topk_bounded;
use crate::shard::ShardedIndex;

/// One why-not computation's view of the sharded index: the shard trees,
/// the worker pool to scatter the top-k on, and the engine configuration.
pub(crate) struct ShardFanout<'a> {
    sharded: &'a ShardedIndex,
    trees: Vec<&'a RTree>,
    pool: &'a WorkerPool,
    params: ScoreParams,
    opts: KeywordOptions,
    /// Why-not answers are all-or-nothing (a partial refinement is not a
    /// refinement), so the deadline *cancels* instead of truncating:
    /// each phase boundary and candidate evaluation checks it, and on
    /// expiry the whole computation unwinds to
    /// [`WhyNotError::DeadlineExceeded`].
    deadline: Option<Deadline>,
}

impl<'a> ShardFanout<'a> {
    pub(crate) fn new(
        sharded: &'a ShardedIndex,
        pool: &'a WorkerPool,
        params: ScoreParams,
        opts: KeywordOptions,
        deadline: Option<Deadline>,
    ) -> Self {
        ShardFanout {
            sharded,
            trees: sharded.shards().iter().map(|t| &**t).collect(),
            pool,
            params,
            opts,
            deadline,
        }
    }

    fn corpus(&self) -> &Corpus {
        self.sharded.corpus()
    }

    fn check_deadline(&self) -> Result<(), WhyNotError> {
        match self.deadline {
            Some(d) if d.expired() => Err(WhyNotError::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    /// Both refinement models over the shard trees, under the deadline.
    fn engine(&self) -> TreeRefinementEngine<'_, impl Fn() -> bool> {
        let deadline = self.deadline;
        TreeRefinementEngine::new(
            self.corpus(),
            &self.trees,
            self.params,
            self.opts,
            move || deadline.is_some_and(|d| d.expired()),
        )
    }

    /// Scatter-gather top-k without touching the executor's query
    /// counters — the why-not modules' internal result-set computation,
    /// not a user query. Under a deadline the late shards observe expiry
    /// through the shared-bound gating path; an incomplete result-set is
    /// useless to a why-not module, so it cancels.
    fn top_k(&self, query: &Query) -> Result<Vec<RankedObject>, WhyNotError> {
        match scatter_topk_bounded(
            self.sharded.shards(),
            self.pool,
            self.params,
            query,
            self.deadline,
            |_, _, _| {},
            |_| {},
        ) {
            Some((result, complete)) => {
                if complete {
                    Ok(result)
                } else {
                    Err(WhyNotError::DeadlineExceeded)
                }
            }
            // A shard job died (panic): stay exact via the scan oracle —
            // unless the budget is already spent.
            None => {
                self.check_deadline()?;
                Ok(topk_scan(self.corpus(), &self.params, query))
            }
        }
    }

    /// Sharded explanation generation (paper §3.3).
    pub(crate) fn explain(
        &self,
        query: &Query,
        desired: &[ObjectId],
    ) -> Result<Vec<Explanation>, WhyNotError> {
        let corpus = self.corpus();
        validate_desired(corpus, desired)?;
        let top = self.top_k(query)?;
        self.check_deadline()?;
        let ranks = ranks_of_scan(corpus, &self.params, query, desired);
        Ok(explain_given(
            corpus,
            &self.params,
            query,
            desired,
            &top,
            &ranks,
        ))
    }

    /// Preference adjustment (Definition 2): validate, build the
    /// request's weight-plane table in one pass over the live corpus,
    /// then sweep it.
    pub(crate) fn refine_preference(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<PreferenceRefinement, WhyNotError> {
        self.check_deadline()?;
        let table = request_table(self.corpus(), &self.params, query, missing, lambda)?;
        self.engine().preference(query, missing, lambda, &table)
    }

    /// Keyword adaptation (Definition 3) over a table built for this
    /// request alone.
    pub(crate) fn refine_keywords(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<KeywordRefinement, WhyNotError> {
        self.check_deadline()?;
        let table = request_table(self.corpus(), &self.params, query, missing, lambda)?;
        self.engine().keywords(query, missing, lambda, &table)
    }

    /// Combined refinement: the chaining logic runs in `yask_core` over
    /// the shard trees' [`TreeRefinementEngine`].
    pub(crate) fn refine_combined(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<CombinedRefinement, WhyNotError> {
        refine_combined_on(&self.engine(), query, missing, lambda)
    }
}
