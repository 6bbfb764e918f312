//! Keyword adaptation — the why-not module of Definition 3.
//!
//! Given the initial query `q` and missing set `M`, find the refined
//! query `q′ = (loc, doc′, k′, ~w)` minimizing the Eqn (4) penalty whose
//! result contains all of `M`, after reference \[6\]'s candidate search:
//!
//! 1. enumerate candidate keyword sets from `U = q.doc ∪ M.doc` in
//!    non-decreasing edit distance (`Δdoc`) order ([`candidates`](self));
//! 2. count each missing object's outranking objects under the candidate
//!    — read off the request table ([`SegmentSet`]), whose signatures fix
//!    every object's similarity to any keyword set inside `U`, so no
//!    object is re-scored and no tree is read;
//! 3. prune the candidate as soon as one count makes its penalty at least
//!    the best complete penalty; otherwise update the best;
//! 4. stop pulling candidates once the `Δdoc` term alone reaches the best
//!    penalty (or a perfect penalty of 0 is found).
//!
//! [`refine_keywords_naive`] counts every candidate's ranks by a full
//! database scan — the baseline of experiment E8 and the
//! differential-testing oracle.

pub(crate) mod candidates;

use yask_index::{Corpus, ObjectId};
use yask_query::{Query, ScoreParams};
use yask_text::KeywordSet;

use crate::common::{build_context, request_table, universe};
use crate::error::WhyNotError;
use crate::penalty::keyword_penalty;
use crate::pref::segment::SegmentSet;
use candidates::CandidateGen;

/// Hard cap on enumerated candidates: a safety valve for λ = 1, where the
/// Δdoc term cannot terminate enumeration.
pub const CANDIDATE_BUDGET: usize = 200_000;

/// Work counters for the keyword-adaptation experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KeywordStats {
    /// Candidates produced by the generator.
    pub enumerated: usize,
    /// Candidates discarded because one missing object's exact count
    /// already made their penalty at least the best so far.
    pub bound_pruned: usize,
    /// Candidates evaluated to exact ranks for every missing object.
    pub exact_evaluated: usize,
    /// Objects whose textual part depends on the candidate: those sharing
    /// a keyword with `U`, scored once per request by the request table
    /// (the naive scan counts every object it scores).
    pub objects_scored: usize,
    /// True when the candidate budget truncated the search (the returned
    /// refinement is then best-effort rather than provably optimal).
    pub truncated: bool,
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

/// Keyword adaptation over the request table (see module docs).
pub fn refine_keywords(
    corpus: &Corpus,
    params: &ScoreParams,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
) -> Result<KeywordRefinement, WhyNotError> {
    let table = request_table(corpus, params, query, missing, lambda)?;
    refine_keywords_on(corpus, &|| false, query, missing, lambda, &table)
}

/// Keyword adaptation over the request's [`SegmentSet`] (built under
/// `query`'s location and a universe holding `q.doc ∪ M.doc`, e.g. by
/// [`request_table`]) — the entry point of callers that share one table
/// between several modules. Every initial and candidate rank is read off
/// the table, so the answer and the enumerated / pruned / exact-evaluated
/// counts equal a corpus scan's. `expired` is consulted before every
/// count; once it holds, the search ends with
/// [`WhyNotError::DeadlineExceeded`].
pub fn refine_keywords_on(
    corpus: &Corpus,
    expired: &dyn Fn() -> bool,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
    table: &SegmentSet,
) -> Result<KeywordRefinement, WhyNotError> {
    let mut r = search(
        corpus,
        query,
        missing,
        lambda,
        table,
        CANDIDATE_BUDGET,
        |doc, m, _| {
            if expired() {
                return Err(WhyNotError::DeadlineExceeded);
            }
            Ok(table.outranking(doc, query.weights, m))
        },
    )?;
    r.stats.objects_scored = table.touching();
    Ok(r)
}

/// Naive baseline: every candidate's ranks are computed by scanning the
/// whole database and re-scoring every object (no request table; the same
/// candidate search and Δdoc termination rule).
pub fn refine_keywords_naive(
    corpus: &Corpus,
    params: &ScoreParams,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
) -> Result<KeywordRefinement, WhyNotError> {
    let table = request_table(corpus, params, query, missing, lambda)?;
    search(
        corpus,
        query,
        missing,
        lambda,
        &table,
        CANDIDATE_BUDGET,
        |doc, m, stats| {
            let s_m = params.score_with_doc(corpus.get(m), query, doc);
            let mut outrank = 0usize;
            for o in corpus.iter() {
                if o.id == m {
                    continue;
                }
                stats.objects_scored += 1;
                let s = params.score_with_doc(o, query, doc);
                if ScoreParams::ranks_before(s, o.id, s_m, m) {
                    outrank += 1;
                }
            }
            Ok(outrank)
        },
    )
}

/// The candidate search shared by the request table and the naive scan.
///
/// Enumeration order, Δdoc termination, pruning, the budget and
/// best-tracking live here and are identical for both; the evaluator only
/// answers "how many objects outrank missing object `m` under candidate
/// `doc`", and an evaluator error ends the search.
/// A candidate is pruned as soon as one missing object's count makes its
/// penalty at least the best complete penalty — the penalty is monotone
/// in the count, so the candidate cannot win.
///
/// The initial ranks `R(M, q)` come from `table`.
fn search<F>(
    corpus: &Corpus,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
    table: &SegmentSet,
    budget: usize,
    mut count: F,
) -> Result<KeywordRefinement, WhyNotError>
where
    F: FnMut(&KeywordSet, ObjectId, &mut KeywordStats) -> Result<usize, WhyNotError>,
{
    let (ctx, _) = build_context(corpus, table, query, missing, lambda)?;
    let universe = universe(corpus, query, missing);
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
            if stats.enumerated >= budget {
                if best.is_some() {
                    stats.truncated = true;
                    break 'batches;
                }
                return Err(WhyNotError::CandidateBudgetExhausted(budget));
            }
            stats.enumerated += 1;
            let best_penalty = best.as_ref().map_or(f64::INFINITY, |b| b.3);
            // The worst missing rank, pruning on the first hopeless count.
            let mut worst = 0usize;
            let mut pruned = false;
            for &m in missing {
                let outrank = count(&doc, m, &mut stats)?;
                if lambda * ctx.k_term(outrank + 1) + doc_term >= best_penalty {
                    pruned = true;
                    break;
                }
                worst = worst.max(outrank + 1);
            }
            if pruned {
                stats.bound_pruned += 1;
                continue;
            }
            stats.exact_evaluated += 1;
            let penalty = keyword_penalty(&ctx, d, doc_norm, worst);
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
    use yask_index::CorpusBuilder;
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
        let q = Query::new(Point::new(0.3, 0.3), ks(&[1, 2]), 5);
        let missing = pick_missing(&corpus, &params, &q, 2);
        let r = refine_keywords(&corpus, &params, &q, &missing, 0.5).unwrap();
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
            let q = Query::new(Point::new(0.6, 0.4), ks(&[1, 3]), 4);
            let missing = pick_missing(&corpus, &params, &q, 1);
            for lambda in [0.2, 0.5, 0.8] {
                let a = refine_keywords(&corpus, &params, &q, &missing, lambda).unwrap();
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
        let q = Query::new(Point::new(0.5, 0.5), ks(&[2, 4, 6]), 5);
        let missing = pick_missing(&corpus, &params, &q, 1);
        let r = refine_keywords(&corpus, &params, &q, &missing, 0.5).unwrap();
        let naive = refine_keywords_naive(&corpus, &params, &q, &missing, 0.5).unwrap();
        // Same enumeration, but the request table scores each object
        // sharing a keyword with U once, where the scan re-scores the
        // corpus for every count.
        assert_eq!(r.stats.enumerated, naive.stats.enumerated);
        assert!(
            r.stats.objects_scored < naive.stats.objects_scored / 2,
            "the table saved too little: {} vs {}",
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
        let q = Query::new(Point::new(0.0, 0.0), ks(&[1]), 2);
        let r = refine_keywords(&corpus, &params, &q, &[ObjectId(2)], 0.5).unwrap();
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
        let q = Query::new(Point::new(0.5, 0.5), ks(&[1, 2]), 3);
        let missing = pick_missing(&corpus, &params, &q, 1);
        let table = request_table(&corpus, &params, &q, &missing, 1.0).unwrap();
        let with_budget = |budget| {
            search(&corpus, &q, &missing, 1.0, &table, budget, |doc, m, _| {
                Ok(table.outranking(doc, q.weights, m))
            })
        };
        // Budget 1 evaluates exactly the Δdoc = 0 candidate and must flag
        // truncation when the second candidate is requested.
        let r = with_budget(1).unwrap();
        assert!(r.stats.truncated);
        assert_eq!(r.delta_doc, 0);
        // Budget 0 cannot even evaluate Δdoc = 0 → error.
        let err = with_budget(0).unwrap_err();
        assert_eq!(err, WhyNotError::CandidateBudgetExhausted(0));
    }

    #[test]
    fn lambda_zero_never_pays_edit_ops() {
        // λ = 0 makes k changes free and edits costly: optimum is Δdoc = 0.
        let corpus = random_corpus(150, 10, 62);
        let params = ScoreParams::new(corpus.space());
        let q = Query::new(Point::new(0.2, 0.2), ks(&[1, 2]), 3);
        let missing = pick_missing(&corpus, &params, &q, 1);
        let r = refine_keywords(&corpus, &params, &q, &missing, 0.0).unwrap();
        assert_eq!(r.delta_doc, 0);
        assert_eq!(r.query.doc, q.doc);
        assert_eq!(r.penalty, 0.0);
        assert_eq!(r.query.k, r.initial_rank.max(q.k));
    }

    #[test]
    fn errors_propagate() {
        let corpus = random_corpus(50, 8, 63);
        let params = ScoreParams::new(corpus.space());
        let q = Query::new(Point::new(0.5, 0.5), ks(&[1]), 3);
        assert_eq!(
            refine_keywords(&corpus, &params, &q, &[], 0.5).unwrap_err(),
            WhyNotError::EmptyMissingSet
        );
        assert_eq!(
            refine_keywords(&corpus, &params, &q, &[ObjectId(999)], 0.5).unwrap_err(),
            WhyNotError::ForeignObject(ObjectId(999))
        );
        assert_eq!(
            refine_keywords(&corpus, &params, &q, &[ObjectId(1)], 2.0).unwrap_err(),
            WhyNotError::InvalidLambda(2.0)
        );
    }
}
