//! Keyword adaptation — the why-not module of Definition 3.
//!
//! Given the initial query `q` and missing set `M`, find the refined
//! query `q′ = (loc, doc′, k′, ~w)` minimizing the Eqn (4) penalty whose
//! result contains all of `M`. The optimized bound-and-prune algorithm of
//! reference \[6\]:
//!
//! 1. enumerate candidate keyword sets from `q.doc ∪ M.doc` in
//!    non-decreasing edit distance (`Δdoc`) order ([`candidates`](self));
//! 2. for each candidate, bound the missing objects' ranks by a shallow
//!    KcR-tree descent ([`bounds`](self)); prune the candidate when the penalty
//!    lower bound already meets the best complete penalty;
//! 3. resolve surviving candidates to exact ranks (full bound-guided
//!    descent, abandoned once the count proves the candidate hopeless)
//!    and update the best;
//! 4. stop pulling candidates once the `Δdoc` term alone reaches the best
//!    penalty (or a perfect penalty of 0 is found).
//!
//! [`refine_keywords_naive`] evaluates every enumerated candidate by a
//! full database scan — the baseline of experiment E8 and the
//! differential-testing oracle.

pub mod bounds;
pub(crate) mod candidates;

use yask_index::{Corpus, ObjectId, RTree};
use yask_query::{Query, ScoreParams};
use yask_text::KeywordSet;

use crate::common::{build_context, request_table};
use crate::error::WhyNotError;
use crate::penalty::{keyword_penalty, PenaltyContext};
use crate::pref::segment::SegmentSet;
use bounds::{BoundStats, RankEvaluator};
use candidates::CandidateGen;

/// Work counters for the keyword-adaptation experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KeywordStats {
    /// Candidates produced by the generator.
    pub enumerated: usize,
    /// Candidates discarded by the cheap bound pass alone.
    pub bound_pruned: usize,
    /// Candidates fully evaluated to exact ranks.
    pub exact_evaluated: usize,
    /// KcR-tree nodes resolved purely by their bounds.
    pub nodes_resolved: usize,
    /// KcR-tree nodes descended into.
    pub nodes_descended: usize,
    /// Objects scored exactly at leaves.
    pub objects_scored: usize,
    /// True when the candidate budget truncated the search (the returned
    /// refinement is then best-effort rather than provably optimal).
    pub truncated: bool,
}

impl KeywordStats {
    /// Folds tree descents' counters in.
    fn absorb(&mut self, b: &BoundStats) {
        self.nodes_resolved += b.nodes_resolved;
        self.nodes_descended += b.nodes_descended;
        self.objects_scored += b.objects_scored;
    }
}

/// A keyword-adapted refined query with its cost breakdown.
#[derive(Clone, Debug)]
pub struct KeywordRefinement {
    /// The refined query: original location and weights, new `doc′`/`k′`.
    pub query: Query,
    /// Eqn (4) penalty (exact).
    pub penalty: f64,
    /// `R(M, q′)`.
    pub rank: usize,
    /// `R(M, q)`.
    pub initial_rank: usize,
    /// `Δk`.
    pub delta_k: usize,
    /// `Δdoc` — edit operations from `q.doc` to `q′.doc`.
    pub delta_doc: usize,
    /// `|q.doc ∪ M.doc|` — the Δdoc normalizer.
    pub doc_norm: usize,
    /// Work counters.
    pub stats: KeywordStats,
}

/// Tuning knobs; the defaults match the experiments in DESIGN.md.
#[derive(Clone, Copy, Debug)]
pub struct KeywordOptions {
    /// Hard cap on enumerated candidates (a safety valve for λ = 1, where
    /// the Δdoc term cannot terminate enumeration).
    pub candidate_budget: usize,
    /// Depth of the cheap bound pass (levels of the KcR-tree).
    pub bound_depth: usize,
}

impl Default for KeywordOptions {
    fn default() -> Self {
        KeywordOptions {
            candidate_budget: 200_000,
            bound_depth: 2,
        }
    }
}

/// One candidate × missing-object outrank evaluation request, handed to
/// the evaluator of the candidate search.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OutrankRequest<'a> {
    /// The why-not penalty context (for `k_term` when bounding).
    pub ctx: &'a PenaltyContext,
    /// The initial query (location, weights, tie-break identity).
    pub query: &'a Query,
    /// The candidate keyword set `doc′`.
    pub doc: &'a KeywordSet,
    /// The missing object whose outrank count is requested.
    pub missing: ObjectId,
    /// `ST(m, q′)` — the missing object's score under `doc′`.
    pub score: f64,
    /// λ of the request.
    pub lambda: f64,
    /// Best complete penalty found so far (∞ before the first).
    pub best_penalty: f64,
    /// The candidate's fixed `(1 − λ)·Δdoc/norm` penalty term.
    pub doc_term: f64,
}

impl OutrankRequest<'_> {
    /// The Eqn (4) penalty this candidate would have if the missing
    /// object's outrank count were `count` — used by evaluators to decide
    /// whether a partial count already proves the candidate hopeless
    /// (`penalty_if(count) >= best_penalty`; counts only grow and the
    /// penalty is monotone in the count, so the test is sound midway).
    #[inline]
    pub fn penalty_if(&self, count: usize) -> f64 {
        self.lambda * self.ctx.k_term(count + 1) + self.doc_term
    }

    /// The smallest outrank count at which the candidate's penalty
    /// already meets the best complete penalty. Counts only grow and
    /// [`OutrankRequest::penalty_if`] is monotone in the count, so an
    /// exact count can stop once its running total reaches this limit:
    /// the candidate cannot win. [`usize::MAX`] when even the largest
    /// possible count (`live − 1`) keeps the candidate viable.
    pub fn hopeless_limit(&self, live: usize) -> usize {
        if !self.best_penalty.is_finite() || self.penalty_if(live) < self.best_penalty {
            return usize::MAX;
        }
        let (mut lo, mut hi) = (0usize, live);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.penalty_if(mid) >= self.best_penalty {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

/// Optimized keyword adaptation over a KcR-tree (see module docs).
pub fn refine_keywords(
    tree: &RTree,
    params: &ScoreParams,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
) -> Result<KeywordRefinement, WhyNotError> {
    refine_keywords_with(tree, params, query, missing, lambda, KeywordOptions::default())
}

/// [`refine_keywords`] with explicit options.
pub fn refine_keywords_with(
    tree: &RTree,
    params: &ScoreParams,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
    opts: KeywordOptions,
) -> Result<KeywordRefinement, WhyNotError> {
    let corpus = tree.corpus();
    let table = request_table(corpus, params, query, missing, lambda)?;
    refine_keywords_on(corpus, &[tree], params, opts, &|| false, query, missing, lambda, &table)
}

/// The one exact evaluator of keyword adaptation, over KcR-trees that
/// disjointly cover `corpus` (the engine's one tree, or the executor's
/// shard trees), reading the initial ranks off the request's
/// [`SegmentSet`] (built under `query`'s location and keywords).
///
/// Each candidate × missing-object rank is resolved in two phases on the
/// calling thread: the depth-limited bounds are summed over the trees,
/// and a candidate whose penalty lower bound already meets the best is
/// pruned; otherwise the exact counts are taken tree after tree under one
/// running total, and the descent stops — pruning the candidate — as
/// soon as that total reaches [`OutrankRequest::hopeless_limit`]. The
/// counts of disjoint trees add, and a candidate is pruned exactly when
/// its exact penalty is at least the best so far, so the answer and the
/// enumerated / pruned / exact-evaluated counts do not depend on how the
/// corpus is split into trees. `expired` is consulted before every
/// evaluation; once it holds, the search ends with
/// [`WhyNotError::DeadlineExceeded`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_keywords_on(
    corpus: &Corpus,
    trees: &[&RTree],
    params: &ScoreParams,
    opts: KeywordOptions,
    expired: &dyn Fn() -> bool,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
    table: &SegmentSet,
) -> Result<KeywordRefinement, WhyNotError> {
    let live = corpus.len();
    let evaluators: Vec<_> = trees.iter().map(|&tree| RankEvaluator { tree, params }).collect();
    refine_keywords_eval(
        corpus,
        params,
        query,
        missing,
        lambda,
        opts,
        table,
        |req, stats| {
            if expired() {
                return Err(WhyNotError::DeadlineExceeded);
            }
            let (q, doc, m, s_m) = (req.query, req.doc, req.missing, req.score);
            let mut bs = BoundStats::default();
            let lb: usize = evaluators
                .iter()
                .map(|ev| ev.outrank_bounds(q, doc, m, s_m, opts.bound_depth, &mut bs).0)
                .sum();
            let outrank = if req.penalty_if(lb) >= req.best_penalty {
                None // prunable: cannot beat the best
            } else {
                let limit = req.hopeless_limit(live);
                evaluators.iter().try_fold(0, |total, ev| {
                    ev.outrank_exact(q, doc, m, s_m, limit - total, &mut bs)
                        .map(|c| total + c)
                })
            };
            stats.absorb(&bs);
            Ok(outrank)
        },
    )
}

/// Naive baseline: every candidate's ranks are computed by scanning the
/// whole database (no tree, no bounds, no candidate pruning beyond the
/// shared Δdoc termination rule).
pub fn refine_keywords_naive(
    corpus: &Corpus,
    params: &ScoreParams,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
) -> Result<KeywordRefinement, WhyNotError> {
    refine_keywords_naive_with(corpus, params, query, missing, lambda, KeywordOptions::default())
}

/// [`refine_keywords_naive`] with explicit options.
pub fn refine_keywords_naive_with(
    corpus: &Corpus,
    params: &ScoreParams,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
    opts: KeywordOptions,
) -> Result<KeywordRefinement, WhyNotError> {
    let table = request_table(corpus, params, query, missing, lambda)?;
    refine_keywords_eval(
        corpus,
        params,
        query,
        missing,
        lambda,
        opts,
        &table,
        |req, stats| {
            let mut outrank = 0usize;
            for o in corpus.iter() {
                if o.id == req.missing {
                    continue;
                }
                stats.objects_scored += 1;
                let s = params.score_with_doc(o, req.query, req.doc);
                if ScoreParams::ranks_before(s, o.id, req.score, req.missing) {
                    outrank += 1;
                }
            }
            Ok(Some(outrank))
        },
    )
}

/// The candidate-search skeleton shared by the tree evaluator and the
/// naive scan.
///
/// Enumeration order, Δdoc termination, budget handling and best-tracking
/// live here and are identical for both; the evaluator only answers "what
/// is the exact outrank count of this missing object under this
/// candidate" (`Some(count)`) or "this candidate is provably unable to
/// beat [`OutrankRequest::best_penalty`]" (`None`), and an evaluator
/// error ends the search.
///
/// The initial ranks `R(M, q)` come from `table`, the request's
/// [`SegmentSet`] built under `query`'s location and keywords; candidate
/// evaluation never reads it.
#[allow(clippy::too_many_arguments)]
fn refine_keywords_eval<F>(
    corpus: &Corpus,
    params: &ScoreParams,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
    opts: KeywordOptions,
    table: &SegmentSet,
    mut eval_outrank: F,
) -> Result<KeywordRefinement, WhyNotError>
where
    F: FnMut(&OutrankRequest<'_>, &mut KeywordStats) -> Result<Option<usize>, WhyNotError>,
{
    let (ctx, _) = build_context(corpus, table, query, missing, lambda)?;
    let ctx = &ctx;
    // Universe U = q.doc ∪ M.doc.
    let m_doc = missing
        .iter()
        .fold(KeywordSet::empty(), |acc, &m| acc.union(&corpus.get(m).doc));
    let universe = query.doc.union(&m_doc);
    let doc_norm = universe.len().max(1);

    let mut gen = CandidateGen::new(&query.doc, &universe);
    let mut stats = KeywordStats::default();
    let mut best: Option<(KeywordSet, usize, usize, f64)> = None; // (doc, Δdoc, rank, penalty)

    'batches: while let Some((d, batch)) = gen.next_batch() {
        let doc_term = (1.0 - lambda) * d as f64 / doc_norm as f64;
        if let Some((_, _, _, best_penalty)) = &best {
            // Termination: the Δdoc term alone can no longer improve.
            if doc_term >= *best_penalty {
                break;
            }
        }
        for doc in batch {
            if stats.enumerated >= opts.candidate_budget {
                if best.is_some() {
                    stats.truncated = true;
                    break 'batches;
                }
                return Err(WhyNotError::CandidateBudgetExhausted(opts.candidate_budget));
            }
            stats.enumerated += 1;
            let best_penalty = best.as_ref().map_or(f64::INFINITY, |b| b.3);

            // Evaluate the worst missing rank, allowing per-object pruning.
            let mut worst = 0usize;
            let mut pruned = false;
            for &m in missing {
                let s_m = params.score_with_doc(corpus.get(m), query, &doc);
                let req = OutrankRequest {
                    ctx,
                    query,
                    doc: &doc,
                    missing: m,
                    score: s_m,
                    lambda,
                    best_penalty,
                    doc_term,
                };
                match eval_outrank(&req, &mut stats)? {
                    Some(outrank) => worst = worst.max(outrank + 1),
                    None => {
                        pruned = true;
                        break;
                    }
                }
            }
            if pruned {
                stats.bound_pruned += 1;
                continue;
            }
            stats.exact_evaluated += 1;
            let penalty = keyword_penalty(ctx, d, doc_norm, worst);
            if penalty < best_penalty {
                let stop = penalty == 0.0;
                best = Some((doc, d, worst, penalty));
                if stop {
                    break 'batches; // perfect refinement at minimal Δdoc
                }
            }
        }
    }

    let (doc, delta_doc, rank, penalty) = best.expect("Δdoc = 0 candidate always evaluates");
    let k_new = ctx.refined_k(rank);
    Ok(KeywordRefinement {
        query: query.with_doc(doc).with_k(k_new),
        penalty,
        rank,
        initial_rank: ctx.r_m_q,
        delta_k: rank.saturating_sub(ctx.k0),
        delta_doc,
        doc_norm,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::{Point, Space};
    use yask_index::{CorpusBuilder, RTreeParams};
    use yask_query::topk_scan;
    use yask_util::Xoshiro256;

    fn ks(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_raw(ids.iter().copied())
    }

    fn random_corpus(n: usize, vocab: u32, seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            let doc = KeywordSet::from_raw(
                (0..1 + rng.below(4)).map(|_| rng.below(vocab as usize) as u32),
            );
            b.push(Point::new(rng.next_f64(), rng.next_f64()), doc, format!("o{i}"));
        }
        b.build()
    }

    fn pick_missing(corpus: &Corpus, params: &ScoreParams, q: &Query, m: usize) -> Vec<ObjectId> {
        let all = topk_scan(corpus, params, &q.with_k(corpus.len()));
        all[q.k + 2..q.k + 2 + m].iter().map(|r| r.id).collect()
    }

    #[test]
    fn refinement_revives_missing_objects() {
        let corpus = random_corpus(200, 15, 41);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let q = Query::new(Point::new(0.3, 0.3), ks(&[1, 2]), 5);
        let missing = pick_missing(&corpus, &params, &q, 2);
        let r = refine_keywords(&tree, &params, &q, &missing, 0.5).unwrap();
        let result = topk_scan(&corpus, &params, &r.query);
        for m in &missing {
            assert!(
                result.iter().any(|x| x.id == *m),
                "object {m} not revived by {:?}",
                r.query
            );
        }
        assert!(r.penalty <= 0.5 + 1e-12, "worse than the k-only refinement");
        assert_eq!(r.query.k, r.rank.max(q.k));
        assert_eq!(r.query.weights, q.weights, "keyword mode must not touch weights");
        assert_eq!(r.query.loc, q.loc);
    }

    #[test]
    fn optimized_equals_naive() {
        for seed in 0..6 {
            let corpus = random_corpus(120, 10, 50 + seed);
            let params = ScoreParams::new(corpus.space());
            let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
            let q = Query::new(Point::new(0.6, 0.4), ks(&[1, 3]), 4);
            let missing = pick_missing(&corpus, &params, &q, 1);
            for lambda in [0.2, 0.5, 0.8] {
                let a = refine_keywords(&tree, &params, &q, &missing, lambda).unwrap();
                let b =
                    refine_keywords_naive(&corpus, &params, &q, &missing, lambda).unwrap();
                assert!(
                    (a.penalty - b.penalty).abs() < 1e-12,
                    "seed {seed} λ={lambda}: {} vs {}",
                    a.penalty,
                    b.penalty
                );
                assert_eq!(a.query.doc, b.query.doc, "seed {seed} λ={lambda}");
                assert_eq!(a.query.k, b.query.k, "seed {seed} λ={lambda}");
            }
        }
    }

    #[test]
    fn pruning_actually_prunes() {
        let corpus = random_corpus(400, 12, 60);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let q = Query::new(Point::new(0.5, 0.5), ks(&[2, 4, 6]), 5);
        let missing = pick_missing(&corpus, &params, &q, 1);
        let r = refine_keywords(&tree, &params, &q, &missing, 0.5).unwrap();
        let naive = refine_keywords_naive(&corpus, &params, &q, &missing, 0.5).unwrap();
        // Same enumeration, but the optimized path must touch far fewer
        // objects thanks to node bounds + candidate pruning.
        assert_eq!(r.stats.enumerated, naive.stats.enumerated);
        assert!(
            r.stats.objects_scored < naive.stats.objects_scored / 2,
            "bounds saved too little: {} vs {}",
            r.stats.objects_scored,
            naive.stats.objects_scored
        );
    }

    #[test]
    fn perfect_refinement_is_found_when_possible() {
        // Missing object's doc matches a refined query exactly and is
        // co-located with the query: the adapted keywords should revive it
        // within the original k at some small Δdoc.
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        b.push(Point::new(0.01, 0.0), ks(&[1]), "t1");
        b.push(Point::new(0.02, 0.0), ks(&[1]), "t2");
        b.push(Point::new(0.0, 0.0), ks(&[5]), "target"); // best spot, keyword 5
        let corpus = b.build();
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
        let q = Query::new(Point::new(0.0, 0.0), ks(&[1]), 2);
        let r = refine_keywords(&tree, &params, &q, &[ObjectId(2)], 0.5).unwrap();
        // Swapping keyword 1 → 5 (or adding 5) revives the target within
        // k = 2, so Δk = 0.
        assert_eq!(r.delta_k, 0);
        assert!(r.rank <= 2);
        assert!(r.query.doc.contains(yask_text::KeywordId(5)));
    }

    #[test]
    fn budget_truncation_is_flagged() {
        let corpus = random_corpus(60, 8, 61);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
        let q = Query::new(Point::new(0.5, 0.5), ks(&[1, 2]), 3);
        let missing = pick_missing(&corpus, &params, &q, 1);
        // Budget 1 evaluates exactly the Δdoc = 0 candidate and must flag
        // truncation when the second candidate is requested.
        let opts = KeywordOptions {
            candidate_budget: 1,
            bound_depth: 2,
        };
        let r = refine_keywords_with(&tree, &params, &q, &missing, 1.0, opts).unwrap();
        assert!(r.stats.truncated);
        assert_eq!(r.delta_doc, 0);
        // Budget 0 cannot even evaluate Δdoc = 0 → error.
        let err = refine_keywords_with(
            &tree,
            &params,
            &q,
            &missing,
            1.0,
            KeywordOptions {
                candidate_budget: 0,
                bound_depth: 2,
            },
        )
        .unwrap_err();
        assert_eq!(err, WhyNotError::CandidateBudgetExhausted(0));
    }

    #[test]
    fn lambda_zero_never_pays_edit_ops() {
        // λ = 0 makes k changes free and edits costly: optimum is Δdoc = 0.
        let corpus = random_corpus(150, 10, 62);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let q = Query::new(Point::new(0.2, 0.2), ks(&[1, 2]), 3);
        let missing = pick_missing(&corpus, &params, &q, 1);
        let r = refine_keywords(&tree, &params, &q, &missing, 0.0).unwrap();
        assert_eq!(r.delta_doc, 0);
        assert_eq!(r.query.doc, q.doc);
        assert_eq!(r.penalty, 0.0);
        assert_eq!(r.query.k, r.initial_rank.max(q.k));
    }

    #[test]
    fn hopeless_limit_matches_linear_search() {
        let ctx = PenaltyContext::new(3, 13, 0.5);
        let doc = ks(&[1]);
        let q = Query::new(Point::new(0.0, 0.0), doc.clone(), 3);
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
                let want = (0..=40)
                    .find(|&c| req.penalty_if(c) >= best)
                    .unwrap_or(usize::MAX);
                assert_eq!(req.hopeless_limit(40), want, "best={best} doc_term={doc_term}");
            }
        }
    }

    #[test]
    fn errors_propagate() {
        let corpus = random_corpus(50, 8, 63);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
        let q = Query::new(Point::new(0.5, 0.5), ks(&[1]), 3);
        assert_eq!(
            refine_keywords(&tree, &params, &q, &[], 0.5).unwrap_err(),
            WhyNotError::EmptyMissingSet
        );
        assert_eq!(
            refine_keywords(&tree, &params, &q, &[ObjectId(999)], 0.5).unwrap_err(),
            WhyNotError::ForeignObject(ObjectId(999))
        );
        assert_eq!(
            refine_keywords(&tree, &params, &q, &[ObjectId(1)], 2.0).unwrap_err(),
            WhyNotError::InvalidLambda(2.0)
        );
    }
}
