//! Why-not answers over the sharded index — no global KcR-tree anywhere,
//! and no tree read by any refinement.
//!
//! * **explain** — the top-k comes from the usual scatter-gather; each
//!   desired object's exact rank comes from one scan of the corpus, as
//!   in [`yask_core::explain`]. Classification and rendering are delegated
//!   back to [`yask_core::explain_given`], so the output is
//!   byte-identical to the single-tree path.
//! * **preference, keyword and combined refinement** — each request
//!   builds its request table ([`SegmentSet`](yask_core::SegmentSet)),
//!   one id-ordered pass over the live corpus under the query location
//!   and the keyword universe `q.doc ∪ M.doc`, and runs `yask_core`'s
//!   module on it unchanged, on the calling thread. The table answers
//!   every rank the module asks for, bit-identical to a corpus scan, so
//!   the answers and work counts do not depend on the shard count —
//!   pinned by the property suite in `tests/whynot_sharded.rs`.

use yask_core::{
    explain_given, refine_combined_on, refine_keywords_on, refine_preference_with_segments,
    request_table, validate_desired, CombinedRefinement, Explanation, KeywordRefinement,
    PreferenceRefinement, WhyNotError,
};
use yask_index::{Corpus, ObjectId};
use yask_query::{ranks_of_scan, topk_scan, Query, RankedObject, ScoreParams};

use crate::deadline::Deadline;
use crate::pool::WorkerPool;
use crate::search::scatter_topk_bounded;
use crate::shard::ShardedIndex;

/// One why-not computation's view of the sharded index: the corpus and
/// shard trees, the worker pool to scatter the top-k on, and the scoring
/// configuration.
pub(crate) struct ShardFanout<'a> {
    sharded: &'a ShardedIndex,
    pool: &'a WorkerPool,
    params: ScoreParams,
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
        deadline: Option<Deadline>,
    ) -> Self {
        ShardFanout {
            sharded,
            pool,
            params,
            deadline,
        }
    }

    fn corpus(&self) -> &Corpus {
        self.sharded.corpus()
    }

    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| d.expired())
    }

    fn check_deadline(&self) -> Result<(), WhyNotError> {
        if self.expired() {
            return Err(WhyNotError::DeadlineExceeded);
        }
        Ok(())
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
    /// request table in one pass over the live corpus, then sweep it.
    pub(crate) fn refine_preference(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<PreferenceRefinement, WhyNotError> {
        self.check_deadline()?;
        let table = request_table(self.corpus(), &self.params, query, missing, lambda)?;
        refine_preference_with_segments(self.corpus(), query, missing, lambda, &table)
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
        refine_keywords_on(
            self.corpus(),
            &|| self.expired(),
            query,
            missing,
            lambda,
            &table,
        )
    }

    /// Combined refinement: the chaining logic runs in `yask_core` over
    /// one request table.
    pub(crate) fn refine_combined(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<CombinedRefinement, WhyNotError> {
        refine_combined_on(
            self.corpus(),
            &self.params,
            &|| self.expired(),
            query,
            missing,
            lambda,
        )
    }
}
