//! Per-shard why-not fan-out: the three why-not modules computed from the
//! shard trees alone — no global KcR-tree anywhere.
//!
//! The seed engine answered why-not questions on a single tree over the
//! whole corpus; the sharded executor used to keep that tree *next to*
//! the shard trees, doubling index memory and write amplification. This
//! module re-derives every module's answer from the shard trees, exactly:
//!
//! * **explain** — the top-k comes from the usual scatter-gather; each
//!   desired object's exact rank is `1 +` the sum of per-shard outrank
//!   counts (the shards disjointly cover the live corpus, so the counts
//!   add). Classification and rendering are delegated back to
//!   [`yask_core::explain_given`], so the output is byte-identical to the
//!   scan path.
//! * **preference adjustment** — does not fan out: the request's
//!   weight-plane table ([`SegmentSet`]) is one id-ordered pass over the
//!   live corpus, cheaper than per-shard pieces plus the sort that merged
//!   them, and the candidate sweep runs on it unchanged in `yask_core`.
//!   The same table supplies the initial ranks of both refinements (the
//!   full answer builds it once for both halves).
//! * **keyword adaptation** — the candidate enumeration, Δdoc
//!   termination and best-tracking run unchanged in
//!   [`yask_core::refine_keywords_eval`]; only the rank evaluation is
//!   swapped: cheap bounds are summed across shards, and exact counts
//!   are fanned per shard under a shared [`SharedOutrank`] accumulator —
//!   once early shards' counts alone prove a candidate hopeless, late
//!   shards abort their descents mid-count ("late shards prune"). The
//!   fan-out is *batched per refinement*: one pool submit spawns a
//!   long-lived evaluation worker per shard, and every surviving
//!   candidate is then a channel send/recv round — not a fresh pool
//!   round-trip per candidate, which dominated submit overhead at high
//!   shard counts. Candidates still evaluate strictly one at a time, so
//!   best-penalty evolution, pruning decisions and the final winner are
//!   bit-identical to the per-candidate scatter.
//!
//! Exactness rests on two facts, pinned by the property suite in
//! `tests/whynot_sharded.rs`: per-shard outrank counts sum to the global
//! count (disjoint cover, shared total order), and the pruning here only
//! ever discards candidates whose true penalty is at least the best — so
//! the skeleton picks the same winner it would on one global tree.

use std::sync::Arc;

use crossbeam::channel::unbounded;
use yask_core::{
    explain_given, refine_combined_on, refine_keywords_eval, refine_preference_with_segments,
    request_table, validate_desired, BoundStats, CombinedRefinement, Explanation, KeywordOptions,
    KeywordRefinement, OutrankRequest, PreferenceRefinement, RankEvaluator, RefinementEngine,
    SegmentSet, WhyNotAnswer, WhyNotError,
};
use yask_index::{Corpus, ObjectId};
use yask_query::{rank_of_scan, topk_scan, Query, RankedObject, ScoreParams};

use crate::bound::SharedOutrank;
use crate::deadline::Deadline;
use crate::pool::WorkerPool;
use crate::search::scatter_topk_bounded;
use crate::shard::ShardedIndex;

/// One candidate × missing-object exact-rank request handed to a shard's
/// resident evaluation worker. The query is fixed per refinement and
/// captured by the worker; only the candidate-specific parts travel.
struct EvalJob {
    doc: yask_text::KeywordSet,
    missing: ObjectId,
    score: f64,
    shared: Arc<SharedOutrank>,
    reply: crossbeam::channel::Sender<(Option<usize>, BoundStats)>,
}

/// One why-not computation's view of the sharded index: the shard trees,
/// the worker pool to scatter on, and the engine configuration.
pub(crate) struct ShardFanout<'a> {
    sharded: &'a ShardedIndex,
    pool: &'a WorkerPool,
    params: ScoreParams,
    opts: KeywordOptions,
    /// Why-not answers are all-or-nothing (a partial refinement is not a
    /// refinement), so the deadline *cancels* instead of truncating:
    /// each phase boundary and candidate evaluation checks it, and on
    /// expiry the whole computation unwinds to
    /// [`WhyNotError::DeadlineExceeded`] after draining its workers.
    deadline: Option<Deadline>,
}

impl<'a> ShardFanout<'a> {
    pub(crate) fn new(
        sharded: &'a ShardedIndex,
        pool: &'a WorkerPool,
        params: ScoreParams,
        opts: KeywordOptions,
    ) -> Self {
        ShardFanout {
            sharded,
            pool,
            params,
            opts,
            deadline: None,
        }
    }

    pub(crate) fn with_deadline(mut self, deadline: Option<Deadline>) -> Self {
        self.deadline = deadline;
        self
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

    /// Exact ranks of `targets` under `query`: one job per shard counts
    /// the outranking objects in its tree, the gather sums the counts.
    fn ranks(&self, query: &Query, targets: &[ObjectId]) -> Vec<usize> {
        let corpus = self.corpus();
        let scores: Vec<f64> = targets
            .iter()
            .map(|&m| self.params.score(corpus.get(m), query))
            .collect();
        let expected = self.sharded.shard_count();
        let (tx, rx) = unbounded();
        for tree in self.sharded.shards() {
            let tree = Arc::clone(tree);
            let q = query.clone();
            let params = self.params;
            let targets = targets.to_vec();
            let scores = scores.clone();
            let tx = tx.clone();
            self.pool.submit(move || {
                let ev = RankEvaluator {
                    tree: &tree,
                    params: &params,
                };
                let mut stats = BoundStats::default();
                let counts: Vec<usize> = targets
                    .iter()
                    .zip(&scores)
                    .map(|(&m, &s_m)| ev.outrank_exact(&q, &q.doc, m, s_m, &mut stats))
                    .collect();
                let _ = tx.send(counts);
            });
        }
        drop(tx);
        let mut totals = vec![0usize; targets.len()];
        let mut gathered = 0usize;
        while let Ok(counts) = rx.recv() {
            for (t, c) in totals.iter_mut().zip(counts) {
                *t += c;
            }
            gathered += 1;
        }
        if gathered != expected {
            // A shard count went missing: recompute by scanning.
            return targets
                .iter()
                .map(|&m| rank_of_scan(corpus, &self.params, query, m))
                .collect();
        }
        totals.iter().map(|c| c + 1).collect()
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
        let ranks = self.ranks(query, desired);
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
        self.preference(query, missing, lambda, &table)
    }

    /// Sharded keyword adaptation (Definition 3) over a table built for
    /// this request alone (see [`RefinementEngine::keywords`]).
    pub(crate) fn refine_keywords(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<KeywordRefinement, WhyNotError> {
        self.check_deadline()?;
        let table = request_table(self.corpus(), &self.params, query, missing, lambda)?;
        self.keywords(query, missing, lambda, &table)
    }

    /// Sharded combined refinement: the chaining logic runs in
    /// `yask_core` over this fan-out as its [`RefinementEngine`].
    pub(crate) fn refine_combined(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<CombinedRefinement, WhyNotError> {
        refine_combined_on(self, query, missing, lambda)
    }

    /// The full why-not answer (explanations + both refinements + the
    /// recommendation), mirroring `Yask::answer_with_lambda`.
    pub(crate) fn answer(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<WhyNotAnswer, WhyNotError> {
        let explanations = self.explain(query, missing)?;
        self.check_deadline()?;
        let table = request_table(self.corpus(), &self.params, query, missing, lambda)?;
        let preference = self.preference(query, missing, lambda, &table)?;
        let keyword = self.keywords(query, missing, lambda, &table)?;
        Ok(WhyNotAnswer::assemble(explanations, preference, keyword))
    }
}

impl RefinementEngine for ShardFanout<'_> {
    fn corpus(&self) -> &Corpus {
        self.sharded.corpus()
    }

    fn score_params(&self) -> ScoreParams {
        self.params
    }

    /// Sweeps the request's table; nothing fans out.
    fn preference(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
        table: &SegmentSet,
    ) -> Result<PreferenceRefinement, WhyNotError> {
        self.check_deadline()?;
        refine_preference_with_segments(self.corpus(), query, missing, lambda, table)
    }

    /// Sharded keyword adaptation (Definition 3): the shared candidate
    /// skeleton with per-shard rank evaluation under a cross-shard abort
    /// bound. The per-shard evaluation workers are spawned **once** for
    /// the whole refinement (one pool submit per shard); each candidate
    /// evaluation is then one channel round-trip per shard rather than a
    /// fresh pool job — the submit overhead no longer scales with the
    /// candidate count.
    fn keywords(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
        table: &SegmentSet,
    ) -> Result<KeywordRefinement, WhyNotError> {
        self.check_deadline()?;
        let corpus = self.corpus();
        let live = corpus.len();

        // Long-lived evaluation workers, fed over channels; they exit
        // when the request senders drop at the end of this function
        // (including on error paths). Each worker *owns a set of shard
        // trees* (round-robin partition over at most the pool's thread
        // count): a resident worker parks one pool thread for the whole
        // refinement, so claiming more threads than the pool has would
        // strand the extra workers in the queue and deadlock the gather.
        // With workers ≥ shards (the default) this is one shard each.
        // The resident guard serializes refinements: two interleaved
        // worker groups could each hold threads the other needs.
        let _resident = self.pool.resident_guard();
        let shard_count = self.sharded.shard_count();
        let worker_slots = self.pool.workers().min(shard_count).max(1);
        let mut shard_txs = Vec::with_capacity(worker_slots);
        for w in 0..worker_slots {
            let (jtx, jrx) = unbounded::<EvalJob>();
            let trees: Vec<_> = self
                .sharded
                .shards()
                .iter()
                .skip(w)
                .step_by(worker_slots)
                .map(Arc::clone)
                .collect();
            let params = self.params;
            let q = query.clone();
            self.pool.submit(move || {
                while let Ok(job) = jrx.recv() {
                    let mut bs = BoundStats::default();
                    let mut total = Some(0usize);
                    for tree in &trees {
                        let ev = RankEvaluator {
                            tree,
                            params: &params,
                        };
                        match ev.outrank_exact_gated(
                            &q, &job.doc, job.missing, job.score, &*job.shared, &mut bs,
                        ) {
                            Some(c) => total = total.map(|t| t + c),
                            None => {
                                // The shared total crossed the hopeless
                                // limit mid-descent: the candidate is
                                // dead, no point counting later shards.
                                total = None;
                                break;
                            }
                        }
                    }
                    let _ = job.reply.send((total, bs));
                }
            });
            shard_txs.push(jtx);
        }

        // The candidate-evaluation callback cannot return an error, so
        // expiry mid-refinement raises this flag and *prunes* every
        // remaining candidate — the skeleton then drains in a few cheap
        // iterations, the resident workers exit when `shard_txs` drops,
        // and the (now meaningless) result is discarded for the error.
        let deadline_hit = std::cell::Cell::new(false);
        let result = refine_keywords_eval(
            corpus,
            &self.params,
            query,
            missing,
            lambda,
            self.opts,
            table,
            |req, stats| {
                if deadline_hit.get() || self.deadline.is_some_and(|d| d.expired()) {
                    deadline_hit.set(true);
                    return None;
                }
                // Phase 1: cheap depth-limited bounds, summed across the
                // shard trees on the calling thread (each touches at most
                // a few node levels).
                let mut lb = 0usize;
                for tree in self.sharded.shards() {
                    let ev = RankEvaluator {
                        tree,
                        params: &self.params,
                    };
                    let mut bs = BoundStats::default();
                    let (l, _u) = ev.outrank_bounds(
                        req.query,
                        req.doc,
                        req.missing,
                        req.score,
                        self.opts.bound_depth,
                        &mut bs,
                    );
                    stats.absorb(&bs);
                    lb += l;
                }
                if req.penalty_if(lb) >= req.best_penalty {
                    return None; // prunable: cannot beat the best
                }

                // Phase 2: exact counts — one request to each shard's
                // resident worker, all feeding the shared accumulator so
                // late shards abort as soon as the global total proves
                // the candidate hopeless.
                let shared = Arc::new(SharedOutrank::new(hopeless_limit(req, live)));
                let (reply_tx, reply_rx) = unbounded();
                let mut expected = 0usize;
                for jtx in &shard_txs {
                    let sent = jtx.send(EvalJob {
                        doc: req.doc.clone(),
                        missing: req.missing,
                        score: req.score,
                        shared: Arc::clone(&shared),
                        reply: reply_tx.clone(),
                    });
                    // A dead worker (job panic) just lowers the expected
                    // reply count; the short gather below falls back.
                    if sent.is_ok() {
                        expected += 1;
                    }
                }
                drop(reply_tx);
                let mut total = 0usize;
                let mut aborted = false;
                let mut gathered = 0usize;
                while let Ok((count, bs)) = reply_rx.recv() {
                    stats.absorb(&bs);
                    gathered += 1;
                    match count {
                        Some(c) => total += c,
                        None => aborted = true,
                    }
                }
                if aborted {
                    // The global count crossed the hopeless limit: prune.
                    return None;
                }
                if gathered != expected || expected != worker_slots {
                    // A shard worker died: recount exactly by scanning.
                    let mut count = 0usize;
                    for o in corpus.iter() {
                        if o.id == req.missing {
                            continue;
                        }
                        let s = self.params.score_with_doc(o, req.query, req.doc);
                        if ScoreParams::ranks_before(s, o.id, req.score, req.missing) {
                            count += 1;
                        }
                    }
                    return Some(count);
                }
                Some(total)
            },
        );
        if deadline_hit.get() {
            return Err(WhyNotError::DeadlineExceeded);
        }
        result
    }
}

/// The smallest outrank count at which the candidate's penalty already
/// meets the best complete penalty — the abort limit of one
/// [`SharedOutrank`]. Counts only grow and `penalty_if` is monotone in
/// the count, so any descent whose accumulated total reaches this limit
/// can stop: the candidate cannot win. [`usize::MAX`] when even the
/// maximum possible count (`live − 1`) keeps the candidate viable.
fn hopeless_limit(req: &OutrankRequest<'_>, live: usize) -> usize {
    if !req.best_penalty.is_finite() || req.penalty_if(live) < req.best_penalty {
        return usize::MAX;
    }
    let (mut lo, mut hi) = (0usize, live);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if req.penalty_if(mid) >= req.best_penalty {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_core::PenaltyContext;
    use yask_text::KeywordSet;

    #[test]
    fn hopeless_limit_matches_linear_search() {
        let ctx = PenaltyContext::new(3, 13, 0.5);
        let doc = KeywordSet::from_raw([1u32]);
        let q = Query::new(yask_geo::Point::new(0.0, 0.0), doc.clone(), 3);
        for best in [0.2, 0.5, 0.75, 1.0, f64::INFINITY] {
            for doc_term in [0.0, 0.1, 0.4] {
                let req = OutrankRequest {
                    ctx: &ctx,
                    query: &q,
                    doc: &doc,
                    missing: ObjectId(0),
                    score: 0.5,
                    lambda: 0.5,
                    best_penalty: best,
                    doc_term,
                };
                let got = hopeless_limit(&req, 40);
                let want = (0..=40)
                    .find(|&c| req.penalty_if(c) >= best)
                    .unwrap_or(usize::MAX);
                assert_eq!(got, want, "best={best} doc_term={doc_term}");
            }
        }
    }
}
