//! Preference adjustment — the why-not module of Definition 2.
//!
//! Given the initial query `q` and missing set `M`, find the refined
//! query `q′ = (loc, doc, k′, ~w′)` minimizing the Eqn (3) penalty whose
//! result contains all of `M`:
//!
//! 1. transform every object into a [`segment::Segment`] in the weight
//!    plane (score is linear in `ws` because `ws + wt = 1`) — one scoring
//!    pass, the request's [`SegmentSet`], which is also where the initial
//!    ranks `R(M, q)` are read;
//! 2. the optimal `~w′` points at an intersection between a missing
//!    object's segment and another segment (or stays at `~w`), so the
//!    intersection abscissae are the candidate weights;
//! 3. sweep the candidates left-to-right maintaining each missing object's
//!    rank incrementally (the rank-update theorem of \[5\]) — or, in the
//!    [`refine_preference_filtered`] variant, first narrow the crossing
//!    partners with the paper's *two range queries* over an R-tree built
//!    on the `(a_o, b_o)` score parts;
//! 4. re-rank the winning weights exactly — read off the same table with
//!    the engine's score expression, bit-identical to a corpus scan — and
//!    return the refined query with its exact penalty.
//!
//! [`refine_preference_naive`] re-ranks every candidate from scratch and
//! is the baseline of experiment E6 as well as the differential-testing
//! oracle.

pub mod segment;
pub(crate) mod sweep;

use yask_geo::{Point, Rect};
use yask_index::{Corpus, CorpusBuilder, ObjectId, RTree, RTreeParams};
use yask_query::{Query, ScoreParams, Weights};
use yask_text::KeywordSet;

use crate::common::{build_context, request_table};
use crate::error::WhyNotError;
use crate::penalty::{preference_penalty, PenaltyContext};
use segment::{Segment, SegmentSet};
use sweep::{candidate_weights, collect_events, naive_ranks, sweep_ranks, Event};

/// A preference-adjusted refined query with its cost breakdown.
#[derive(Clone, Debug)]
pub struct PreferenceRefinement {
    /// The refined query: original location and keywords, new `k′`/`~w′`.
    pub query: Query,
    /// Eqn (3) penalty of the refinement (exact).
    pub penalty: f64,
    /// `R(M, q′)` — worst missing rank under the refined weights.
    pub rank: usize,
    /// `R(M, q)` — worst missing rank under the initial query.
    pub initial_rank: usize,
    /// `Δk = max(0, R(M, q′) − q.k)`.
    pub delta_k: usize,
    /// `Δ~w = ‖~w − ~w′‖₂`.
    pub delta_w: f64,
    /// Candidate weights evaluated.
    pub candidates: usize,
}

/// Which candidate-partner discovery strategy to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Strategy {
    /// Scan all objects per missing object for crossings; sweep ranks.
    Sweep,
    /// Range-query filter over an `(a, b)` R-tree; sweep ranks.
    FilteredSweep,
    /// Scan for crossings; re-rank every candidate from scratch.
    Naive,
}

/// Optimized preference adjustment (crossing scan + rank-update sweep).
pub fn refine_preference(
    corpus: &Corpus,
    params: &ScoreParams,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
) -> Result<PreferenceRefinement, WhyNotError> {
    refine(corpus, params, query, missing, lambda, Strategy::Sweep)
}

/// Preference adjustment with the paper's two-range-query candidate
/// filter: a transient R-tree over the `(a_o, b_o)` score parts returns,
/// for each missing object, exactly the objects whose segments can cross
/// its segment inside `(0, 1)`.
pub fn refine_preference_filtered(
    corpus: &Corpus,
    params: &ScoreParams,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
) -> Result<PreferenceRefinement, WhyNotError> {
    refine(corpus, params, query, missing, lambda, Strategy::FilteredSweep)
}

/// Naive baseline: same candidates, full re-rank per candidate.
pub fn refine_preference_naive(
    corpus: &Corpus,
    params: &ScoreParams,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
) -> Result<PreferenceRefinement, WhyNotError> {
    refine(corpus, params, query, missing, lambda, Strategy::Naive)
}

/// Preference adjustment over the request's [`SegmentSet`] (built under
/// `query`'s location and keywords, e.g. by [`request_table`]) — the
/// entry point of callers that share one table between several modules:
/// the full answer, the combined refinement's chains and the sharded
/// executor. Bit-identical to [`refine_preference`], which builds the
/// same table itself.
pub fn refine_preference_with_segments(
    corpus: &Corpus,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
    segments: &SegmentSet,
) -> Result<PreferenceRefinement, WhyNotError> {
    refine_on_segments(corpus, query, missing, lambda, segments, Strategy::Sweep)
}

fn refine(
    corpus: &Corpus,
    params: &ScoreParams,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
    strategy: Strategy,
) -> Result<PreferenceRefinement, WhyNotError> {
    let segments = request_table(corpus, params, query, missing, lambda)?;
    refine_on_segments(corpus, query, missing, lambda, &segments, strategy)
}

fn refine_on_segments(
    corpus: &Corpus,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
    set: &SegmentSet,
    strategy: Strategy,
) -> Result<PreferenceRefinement, WhyNotError> {
    let (ctx, _initial_ranks) = build_context(corpus, set, query, missing, lambda)?;
    // Segment positions are *live-scan* positions, not id slots — with
    // tombstones in the corpus the two differ, so the missing objects are
    // located by searching the (id-ascending) set order.
    let segments: &[Segment] = set.segments();
    let missing_idx: Vec<usize> = missing
        .iter()
        .map(|&m| set.index_of(m).expect("missing object validated live"))
        .collect();

    // Candidate discovery.
    let events_per_m: Vec<Vec<Event>> = match strategy {
        Strategy::Sweep | Strategy::Naive => missing_idx
            .iter()
            .map(|&m| collect_events(segments, m, 0..segments.len()))
            .collect(),
        Strategy::FilteredSweep => {
            let filter = RangeFilter::build(segments);
            missing_idx
                .iter()
                .map(|&m| collect_events(segments, m, filter.crossing_partners(segments, m)))
                .collect()
        }
    };
    let ws0 = query.weights.ws();
    let candidates = candidate_weights(&events_per_m, ws0);

    // Rank evaluation at every candidate.
    let worst_ranks = match strategy {
        Strategy::Naive => naive_ranks(segments, &missing_idx, &candidates),
        _ => sweep_ranks(segments, &missing_idx, &events_per_m, &candidates),
    };

    // Pick the penalty-minimal candidate (first wins on exact ties, and
    // candidates are sorted, so the choice is deterministic).
    let w_init = query.weights;
    let mut best_i = 0usize;
    let mut best_penalty = f64::INFINITY;
    for (i, (&w, &r)) in candidates.iter().zip(&worst_ranks).enumerate() {
        let p = preference_penalty(&ctx, &w_init, &Weights::from_ws(w), r);
        if p < best_penalty {
            best_penalty = p;
            best_i = i;
        }
    }

    Ok(finalize(
        set,
        query,
        missing,
        &ctx,
        Weights::from_ws(candidates[best_i]),
        candidates.len(),
    ))
}

/// Re-ranks the winning weights with the engine's score expression and
/// assembles the refinement. This removes any dependence on the segment
/// evaluation order (`Segment::eval` rounds differently): the returned
/// `k′` provably revives all of `M` under the engine's own ranking.
fn finalize(
    set: &SegmentSet,
    query: &Query,
    missing: &[ObjectId],
    ctx: &PenaltyContext,
    w_new: Weights,
    candidates: usize,
) -> PreferenceRefinement {
    let rank = *set
        .ranks(w_new, missing)
        .iter()
        .max()
        .expect("missing set non-empty");
    let k_new = ctx.refined_k(rank);
    let penalty = preference_penalty(ctx, &query.weights, &w_new, rank);
    PreferenceRefinement {
        query: query.reweighted(w_new).with_k(k_new),
        penalty,
        rank,
        initial_rank: ctx.r_m_q,
        delta_k: rank.saturating_sub(ctx.k0),
        delta_w: query.weights.l2_distance(&w_new),
        candidates,
    }
}

/// The paper's two-range-query filter: an R-tree over `(a_o, b_o)` points
/// with empty keyword sets (only its spatial range query runs).
/// A segment crosses `m`'s segment inside `(0, 1)` iff its point lies in
/// one of the two open quadrants "textually better & spatially worse" /
/// "textually worse & spatially better" relative to `(a_m, b_m)`.
struct RangeFilter {
    tree: RTree,
}

impl RangeFilter {
    fn build(segments: &[Segment]) -> Self {
        let mut b = CorpusBuilder::with_capacity(segments.len());
        for s in segments {
            b.push(Point::new(s.a, s.b), KeywordSet::empty(), "");
        }
        RangeFilter {
            tree: RTree::bulk_load(b.build(), RTreeParams::default()),
        }
    }

    fn crossing_partners(&self, segments: &[Segment], m_idx: usize) -> Vec<usize> {
        let m = segments[m_idx];
        // Closed query rectangles; boundary hits (equal a or b) produce no
        // interior crossing and are discarded by `Segment::crossing`.
        let q1 = Rect::from_coords(-1.0, m.b, m.a, 2.0); // a ≤ a_m, b ≥ b_m
        let q2 = Rect::from_coords(m.a, -1.0, 2.0, m.b); // a ≥ a_m, b ≤ b_m
        let mut ids: Vec<usize> = self
            .tree
            .range(&q1)
            .into_iter()
            .chain(self.tree.range(&q2))
            .map(|o| o.index())
            .filter(|&i| i != m_idx && m.crosses(&segments[i]))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::Space;
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

    /// Picks objects that rank just outside the top-k as the missing set.
    fn pick_missing(corpus: &Corpus, params: &ScoreParams, q: &Query, m: usize) -> Vec<ObjectId> {
        let all = topk_scan(corpus, params, &q.with_k(corpus.len()));
        all[q.k + 2..q.k + 2 + m].iter().map(|r| r.id).collect()
    }

    #[test]
    fn refinement_revives_missing_objects() {
        let corpus = random_corpus(300, 20, 1);
        let params = ScoreParams::new(corpus.space());
        let q = Query::new(Point::new(0.4, 0.4), ks(&[1, 2, 3]), 5);
        let missing = pick_missing(&corpus, &params, &q, 2);
        let r = refine_preference(&corpus, &params, &q, &missing, 0.5).unwrap();
        // Every missing object must appear in the refined query's top-k′.
        let result = topk_scan(&corpus, &params, &r.query);
        for m in &missing {
            assert!(
                result.iter().any(|x| x.id == *m),
                "object {m} not revived by {:?}",
                r.query
            );
        }
        assert!(r.penalty >= 0.0 && r.penalty <= 1.0 + 1e-12);
        assert_eq!(r.query.k, r.rank.max(q.k));
    }

    #[test]
    fn all_strategies_agree() {
        for seed in 0..8 {
            let corpus = random_corpus(150, 15, 100 + seed);
            let params = ScoreParams::new(corpus.space());
            let q = Query::new(Point::new(0.3, 0.6), ks(&[1, 2]), 4);
            let missing = pick_missing(&corpus, &params, &q, 2);
            let a = refine_preference(&corpus, &params, &q, &missing, 0.5).unwrap();
            let b = refine_preference_naive(&corpus, &params, &q, &missing, 0.5).unwrap();
            let c = refine_preference_filtered(&corpus, &params, &q, &missing, 0.5).unwrap();
            assert!((a.penalty - b.penalty).abs() < 1e-12, "seed {seed}: sweep vs naive");
            assert!((a.penalty - c.penalty).abs() < 1e-12, "seed {seed}: sweep vs filtered");
            assert_eq!(a.query.weights, b.query.weights, "seed {seed}");
            assert_eq!(a.query.weights, c.query.weights, "seed {seed}");
            assert_eq!(a.query.k, b.query.k, "seed {seed}");
        }
    }

    #[test]
    fn refined_penalty_never_exceeds_k_only_refinement() {
        // Keeping the weights and just raising k is always a valid
        // refinement; the optimum can only be at least as good.
        let corpus = random_corpus(200, 12, 7);
        let params = ScoreParams::new(corpus.space());
        let q = Query::new(Point::new(0.7, 0.2), ks(&[2, 5]), 3);
        let missing = pick_missing(&corpus, &params, &q, 1);
        for lambda in [0.1, 0.5, 0.9] {
            let r = refine_preference(&corpus, &params, &q, &missing, lambda).unwrap();
            let k_only = lambda * 1.0; // Δk = R(M,q) − k ⇒ k-term = 1, w-term = 0.
            assert!(
                r.penalty <= k_only + 1e-12,
                "λ={lambda}: {} > {k_only}",
                r.penalty
            );
        }
    }

    #[test]
    fn lambda_extremes_choose_the_cheap_dimension() {
        let corpus = random_corpus(200, 12, 8);
        let params = ScoreParams::new(corpus.space());
        let q = Query::new(Point::new(0.2, 0.3), ks(&[1, 4]), 3);
        let missing = pick_missing(&corpus, &params, &q, 1);
        // λ = 0: modifying k is free, so the optimum keeps the weights.
        let r0 = refine_preference(&corpus, &params, &q, &missing, 0.0).unwrap();
        assert_eq!(r0.delta_w, 0.0, "λ=0 should not move weights");
        assert_eq!(r0.penalty, 0.0);
        // λ = 1: modifying weights is free; penalty is the k-term only.
        let r1 = refine_preference(&corpus, &params, &q, &missing, 1.0).unwrap();
        let k_term = r1.delta_k as f64 / (r1.initial_rank - q.k) as f64;
        assert!((r1.penalty - k_term).abs() < 1e-12);
    }

    #[test]
    fn errors_propagate() {
        let corpus = random_corpus(50, 8, 9);
        let params = ScoreParams::new(corpus.space());
        let q = Query::new(Point::new(0.5, 0.5), ks(&[1]), 3);
        assert_eq!(
            refine_preference(&corpus, &params, &q, &[], 0.5).unwrap_err(),
            WhyNotError::EmptyMissingSet
        );
        let top = topk_scan(&corpus, &params, &q)[0].id;
        assert!(matches!(
            refine_preference(&corpus, &params, &q, &[top], 0.5).unwrap_err(),
            WhyNotError::NotMissing(_, _)
        ));
    }

    #[test]
    fn range_filter_finds_exactly_the_crossing_partners() {
        let corpus = random_corpus(120, 10, 10);
        let params = ScoreParams::new(corpus.space());
        let q = Query::new(Point::new(0.4, 0.1), ks(&[1, 3]), 3);
        let segments: Vec<Segment> = corpus
            .iter()
            .map(|o| {
                let (a, b) = params.parts(o, &q);
                Segment::new(a, b)
            })
            .collect();
        let filter = RangeFilter::build(&segments);
        for m in [5usize, 50, 100] {
            let mut got = filter.crossing_partners(&segments, m);
            got.sort_unstable();
            let want: Vec<usize> = (0..segments.len())
                .filter(|&i| i != m && segments[m].crossing(&segments[i]).is_some())
                .collect();
            assert_eq!(got, want, "m = {m}");
        }
    }

    #[test]
    fn weights_already_optimal_keeps_them() {
        // Missing object is simply ranked k+1 with no crossing that helps;
        // the refinement should fall back to increasing k.
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        // Four objects on a line, all with identical keywords: ranking is
        // purely spatial at every ws, so no weight change helps.
        for i in 0..4 {
            b.push(Point::new(0.1 * (i as f64 + 1.0), 0.0), ks(&[1]), format!("o{i}"));
        }
        let corpus = b.build();
        let params = ScoreParams::new(corpus.space());
        let q = Query::with_weights(Point::new(0.0, 0.0), ks(&[1]), 2, Weights::balanced());
        let missing = vec![ObjectId(3)];
        let r = refine_preference(&corpus, &params, &q, &missing, 0.5).unwrap();
        assert_eq!(r.delta_w, 0.0);
        assert_eq!(r.query.k, 4);
        assert_eq!(r.rank, 4);
    }
}
