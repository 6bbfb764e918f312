//! Combined refinement — "users can apply the two refinement functions
//! simultaneously to find better solutions" (paper §3.2).
//!
//! The demo lets a user chain the two models; this module automates the
//! chaining. A combined refinement applies keyword adaptation and
//! preference adjustment **in sequence** (both orders are explored): the
//! first stage refines one parameter, the second stage then refines the
//! other against the first stage's query. The combined penalty extends
//! Eqns (3)/(4) in the natural way — the shared `Δk` term plus *both*
//! modification terms, each normalized as in its own equation and the
//! pair averaged so the total stays within `[0, 1]`:
//!
//! ```text
//! Penalty(q, q″) = λ·Δk/(R(M,q) − q.k)
//!                + (1 − λ)·(Δ~w/norm_w + Δdoc/norm_doc) / 2
//! ```
//!
//! Single-model refinements are special cases (the other term is 0 but
//! the averaging halves the modification cost), so the combined penalty
//! is *not* directly comparable to the single-model penalties — it is
//! reported alongside them and [`CombinedRefinement::order`] records
//! which chaining won.
//!
//! Every rank the chains ask for — both stages' initial ranks, both
//! stages' searches and the final exact rank of each chained query — is
//! read off one request table ([`SegmentSet`]). A refinement never moves
//! the location and only ever picks keywords inside `U = q.doc ∪ M.doc`,
//! and the table answers any such keywords under any weights, so one
//! request pays one scoring pass.

use yask_index::{Corpus, ObjectId};
use yask_query::{Query, ScoreParams};

use crate::common::{build_context, request_table, universe};
use crate::error::WhyNotError;
use crate::keyword::refine_keywords_on;
use crate::penalty::PenaltyContext;
use crate::pref::refine_preference_with_segments;
use crate::pref::segment::SegmentSet;

/// Which chaining order produced the best combined refinement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CombineOrder {
    /// Keywords first, then weights.
    KeywordsThenWeights,
    /// Weights first, then keywords.
    WeightsThenKeywords,
}

/// A refined query that may modify keywords *and* weights (plus `k`).
#[derive(Clone, Debug)]
pub struct CombinedRefinement {
    /// The refined query `q″ = (loc, doc′, k″, ~w′)`.
    pub query: Query,
    /// The combined penalty (see module docs).
    pub penalty: f64,
    /// `R(M, q″)`.
    pub rank: usize,
    /// `R(M, q)`.
    pub initial_rank: usize,
    /// `Δk`.
    pub delta_k: usize,
    /// `Δ~w`.
    pub delta_w: f64,
    /// `Δdoc`.
    pub delta_doc: usize,
    /// The winning chaining order.
    pub order: CombineOrder,
}

/// Runs both chaining orders and returns the lower-penalty combination.
pub fn refine_combined(
    corpus: &Corpus,
    params: &ScoreParams,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
) -> Result<CombinedRefinement, WhyNotError> {
    let table = request_table(corpus, params, query, missing, lambda)?;
    refine_combined_on(corpus, &|| false, query, missing, lambda, &table)
}

/// Combined refinement over the request's [`SegmentSet`] (built under
/// `query`'s location and a universe holding `q.doc ∪ M.doc`, e.g. by
/// [`request_table`]), like the preference and keyword forms, under a
/// deadline check: once `expired` returns true, a stage fails with
/// [`WhyNotError::DeadlineExceeded`].
///
/// A stage error other than stage 2's `NotMissing` (e.g. an expired
/// deadline) fails the whole request: half of the search is not an
/// answer.
pub fn refine_combined_on(
    corpus: &Corpus,
    expired: &dyn Fn() -> bool,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
    table: &SegmentSet,
) -> Result<CombinedRefinement, WhyNotError> {
    let (ctx, _) = build_context(corpus, table, query, missing, lambda)?;
    // Δdoc normalizer is fixed by the *initial* query (Eqn 4).
    let doc_norm = universe(corpus, query, missing).len().max(1);
    let stages = Stages {
        corpus,
        table,
        expired,
        missing,
        lambda,
    };

    let kw_first = stages.keywords_then_weights(query)?;
    let w_first = stages.weights_then_keywords(query)?;
    let [a, b] = [
        (CombineOrder::KeywordsThenWeights, kw_first),
        (CombineOrder::WeightsThenKeywords, w_first),
    ]
    .map(|(order, refined)| assemble(table, query, missing, &ctx, refined, doc_norm, order));
    // Keywords-first wins ties.
    Ok(if a.penalty <= b.penalty { a } else { b })
}

/// The two single-model refinements of one combined request, both over
/// its one table.
struct Stages<'a> {
    corpus: &'a Corpus,
    table: &'a SegmentSet,
    expired: &'a dyn Fn() -> bool,
    missing: &'a [ObjectId],
    lambda: f64,
}

impl Stages<'_> {
    /// Preference adjustment (Definition 2) of `query`.
    fn preference(&self, query: &Query) -> Result<Query, WhyNotError> {
        if (self.expired)() {
            return Err(WhyNotError::DeadlineExceeded);
        }
        refine_preference_with_segments(self.corpus, query, self.missing, self.lambda, self.table)
            .map(|r| r.query)
    }

    /// Keyword adaptation (Definition 3) of `query`.
    fn keywords(&self, query: &Query) -> Result<Query, WhyNotError> {
        refine_keywords_on(
            self.corpus,
            self.expired,
            query,
            self.missing,
            self.lambda,
            self.table,
        )
        .map(|r| r.query)
    }

    /// Stage 1 keywords, stage 2 weights.
    fn keywords_then_weights(&self, query: &Query) -> Result<Query, WhyNotError> {
        // Stage 2 refines the weights of the keyword-adapted query at the
        // *original* k — if the adapted query already revives everything
        // within q.k, preference adjustment would reject the request
        // (nothing is missing any more), so keep the stage-1 result in
        // that case.
        let stage2_base = self.keywords(query)?.with_k(query.k);
        match self.preference(&stage2_base) {
            Err(WhyNotError::NotMissing(_, _)) => Ok(stage2_base),
            refined => refined,
        }
    }

    /// Stage 1 weights, stage 2 keywords.
    fn weights_then_keywords(&self, query: &Query) -> Result<Query, WhyNotError> {
        let stage2_base = self.preference(query)?.with_k(query.k);
        match self.keywords(&stage2_base) {
            Err(WhyNotError::NotMissing(_, _)) => Ok(stage2_base),
            refined => refined,
        }
    }
}

/// Finalizes a chained query: exact rank, minimal k″, combined penalty.
fn assemble(
    table: &SegmentSet,
    initial: &Query,
    missing: &[ObjectId],
    ctx: &PenaltyContext,
    refined: Query,
    doc_norm: usize,
    order: CombineOrder,
) -> CombinedRefinement {
    let probe = refined.with_k(initial.k);
    let rank = *table
        .ranks(&probe, missing)
        .iter()
        .max()
        .expect("missing non-empty");
    let k_new = ctx.refined_k(rank);
    let delta_w = initial.weights.l2_distance(&refined.weights);
    let delta_doc = initial.doc.edit_distance(&refined.doc);
    let penalty = ctx.lambda * ctx.k_term(rank)
        + (1.0 - ctx.lambda)
            * (delta_w / initial.weights.penalty_normalizer()
                + delta_doc as f64 / doc_norm as f64)
            / 2.0;
    CombinedRefinement {
        query: probe.with_k(k_new),
        penalty,
        rank,
        initial_rank: ctx.r_m_q,
        delta_k: rank.saturating_sub(ctx.k0),
        delta_w,
        delta_doc,
        order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyword::refine_keywords;
    use crate::pref::refine_preference;
    use yask_geo::{Point, Space};
    use yask_index::CorpusBuilder;
    use yask_query::topk_scan;
    use yask_text::KeywordSet;
    use yask_util::Xoshiro256;

    fn ks(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_raw(ids.iter().copied())
    }

    fn random_corpus(n: usize, seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            let doc = KeywordSet::from_raw((0..1 + rng.below(4)).map(|_| rng.below(12) as u32));
            b.push(Point::new(rng.next_f64(), rng.next_f64()), doc, format!("o{i}"));
        }
        b.build()
    }

    fn scenario(seed: u64) -> (Corpus, ScoreParams, Query, Vec<ObjectId>) {
        let corpus = random_corpus(300, seed);
        let params = ScoreParams::new(corpus.space());
        let q = Query::new(Point::new(0.4, 0.4), ks(&[1, 2]), 5);
        let all = topk_scan(&corpus, &params, &q.with_k(corpus.len()));
        let missing = vec![all[q.k + 4].id];
        (corpus, params, q, missing)
    }

    #[test]
    fn combined_refinement_revives_missing() {
        for seed in [1u64, 2, 3] {
            let (corpus, params, q, missing) = scenario(seed);
            let r = refine_combined(&corpus, &params, &q, &missing, 0.5).unwrap();
            let res = topk_scan(&corpus, &params, &r.query);
            for m in &missing {
                assert!(res.iter().any(|x| x.id == *m), "seed {seed}");
            }
            assert!((0.0..=1.0 + 1e-12).contains(&r.penalty), "seed {seed}");
            assert_eq!(r.query.k, r.rank.max(q.k));
        }
    }

    #[test]
    fn combined_is_at_most_the_k_only_penalty() {
        // Keeping both parameters and raising k costs λ·1 under the
        // combined metric too; the optimum can only improve on it.
        let (corpus, params, q, missing) = scenario(4);
        for lambda in [0.2, 0.5, 0.8] {
            let r = refine_combined(&corpus, &params, &q, &missing, lambda).unwrap();
            assert!(r.penalty <= lambda + 1e-12, "λ={lambda}: {}", r.penalty);
        }
    }

    #[test]
    fn combined_can_beat_both_single_models() {
        // At minimum, the combined penalty (with its halved modification
        // term) is no worse than the halved-equivalent of the winning
        // single model for the same modification.
        let (corpus, params, q, missing) = scenario(5);
        let lambda = 0.5;
        let pref = refine_preference(&corpus, &params, &q, &missing, lambda).unwrap();
        let kw = refine_keywords(&corpus, &params, &q, &missing, lambda).unwrap();
        let comb = refine_combined(&corpus, &params, &q, &missing, lambda).unwrap();
        // The single-model refinements embed into the combined space with
        // their modification term halved; the combined optimum explores a
        // superset of chains starting from those, so it is bounded by the
        // *translated* single penalties.
        let pref_translated = lambda * (pref.delta_k as f64 / (pref.initial_rank - q.k) as f64)
            + (1.0 - lambda) * (pref.delta_w / q.weights.penalty_normalizer()) / 2.0;
        let kw_translated = lambda * (kw.delta_k as f64 / (kw.initial_rank - q.k) as f64)
            + (1.0 - lambda) * (kw.delta_doc as f64 / kw.doc_norm as f64) / 2.0;
        assert!(
            comb.penalty <= pref_translated.min(kw_translated) + 1e-9,
            "combined {} vs translated pref {} / kw {}",
            comb.penalty,
            pref_translated,
            kw_translated
        );
    }

    #[test]
    fn order_is_reported_and_query_shape_valid() {
        let (corpus, params, q, missing) = scenario(6);
        let r = refine_combined(&corpus, &params, &q, &missing, 0.5).unwrap();
        assert!(matches!(
            r.order,
            CombineOrder::KeywordsThenWeights | CombineOrder::WeightsThenKeywords
        ));
        // Location is never modified by any refinement model.
        assert_eq!(r.query.loc, q.loc);
        // Deltas agree with the returned query.
        assert_eq!(r.delta_doc, q.doc.edit_distance(&r.query.doc));
        assert!((r.delta_w - q.weights.l2_distance(&r.query.weights)).abs() < 1e-12);
    }

    #[test]
    fn a_failed_chain_fails_the_request() {
        // The deadline expires after the first `ok_checks` checks: inside
        // the keywords-first chain, or inside the weights-first chain once
        // the first has finished. Either way the error reaches the caller:
        // a half-searched answer must not be returned (or cached) as Ok.
        let (corpus, params, q, missing) = scenario(8);
        let table = request_table(&corpus, &params, &q, &missing, 0.5).unwrap();
        let checks = std::cell::Cell::new(0usize);
        let counting = || {
            checks.set(checks.get() + 1);
            false
        };
        let want = refine_combined_on(&corpus, &counting, &q, &missing, 0.5, &table).unwrap();
        let total = checks.get();
        assert!(total > 2, "both chains consult the deadline");
        for ok_checks in 0..total {
            let left = std::cell::Cell::new(ok_checks);
            let expiring = || match left.get() {
                0 => true,
                n => {
                    left.set(n - 1);
                    false
                }
            };
            assert_eq!(
                refine_combined_on(&corpus, &expiring, &q, &missing, 0.5, &table).unwrap_err(),
                WhyNotError::DeadlineExceeded,
                "{ok_checks} passed deadline check(s)"
            );
        }
        let r = refine_combined(&corpus, &params, &q, &missing, 0.5).unwrap();
        assert_eq!(
            (r.penalty.to_bits(), r.query.doc),
            (want.penalty.to_bits(), want.query.doc)
        );
    }

    #[test]
    fn errors_propagate() {
        let (corpus, params, q, _) = scenario(7);
        assert_eq!(
            refine_combined(&corpus, &params, &q, &[], 0.5).unwrap_err(),
            WhyNotError::EmptyMissingSet
        );
        assert_eq!(
            refine_combined(&corpus, &params, &q, &[ObjectId(9999)], 0.5).unwrap_err(),
            WhyNotError::ForeignObject(ObjectId(9999))
        );
    }
}
