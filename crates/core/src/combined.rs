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
//! Every rank the chains ask for — both stages' initial ranks and the
//! final exact rank of each chained query — is read off a weight-plane
//! [`SegmentSet`]. A refinement never moves the location, and a table
//! answers any weights, so one request needs at most three tables, one
//! per keyword set it meets: `q.doc`, the keywords-first chain's doc and
//! the weights-first chain's final doc. They are built on first use and
//! dropped with the request.

use yask_geo::Point;
use yask_index::{Corpus, ObjectId, RTree};
use yask_query::{Query, ScoreParams};

use crate::common::{build_context, request_table};
use crate::error::WhyNotError;
use crate::keyword::{refine_keywords_on, KeywordOptions, KeywordRefinement};
use crate::penalty::PenaltyContext;
use crate::pref::segment::SegmentSet;
use crate::pref::{refine_preference_with_segments, PreferenceRefinement};

/// The two single-model refinements behind one interface, so the chaining
/// logic of the combined model is written once. [`TreeRefinementEngine`]
/// is its one implementation; the interface is the seam a test uses to
/// substitute a failing engine.
///
/// Both take the request's [`SegmentSet`] for the stage's query (built
/// under its location and keywords) and read the initial ranks off it.
pub trait RefinementEngine {
    /// The corpus version the engine answers against.
    fn corpus(&self) -> &Corpus;
    /// The scoring configuration.
    fn score_params(&self) -> ScoreParams;
    /// Preference-adjusted refinement (Definition 2).
    fn preference(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
        table: &SegmentSet,
    ) -> Result<PreferenceRefinement, WhyNotError>;
    /// Keyword-adapted refinement (Definition 3).
    fn keywords(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
        table: &SegmentSet,
    ) -> Result<KeywordRefinement, WhyNotError>;
}

/// Both models over KcR-trees that disjointly cover one corpus — `Yask`'s
/// one tree, or the executor's shard trees: preference adjustment sweeps
/// the request's table, keyword adaptation counts ranks tree after tree.
/// Once `expired` returns true, both fail with
/// [`WhyNotError::DeadlineExceeded`].
pub struct TreeRefinementEngine<'a, X> {
    corpus: &'a Corpus,
    trees: &'a [&'a RTree],
    params: ScoreParams,
    opts: KeywordOptions,
    expired: X,
}

impl<'a, X: Fn() -> bool> TreeRefinementEngine<'a, X> {
    /// Wraps the trees with the engine's scoring and keyword-search
    /// options and its deadline check.
    pub fn new(
        corpus: &'a Corpus,
        trees: &'a [&'a RTree],
        params: ScoreParams,
        opts: KeywordOptions,
        expired: X,
    ) -> Self {
        TreeRefinementEngine {
            corpus,
            trees,
            params,
            opts,
            expired,
        }
    }
}

impl<X: Fn() -> bool> RefinementEngine for TreeRefinementEngine<'_, X> {
    fn corpus(&self) -> &Corpus {
        self.corpus
    }

    fn score_params(&self) -> ScoreParams {
        self.params
    }

    fn preference(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
        table: &SegmentSet,
    ) -> Result<PreferenceRefinement, WhyNotError> {
        if (self.expired)() {
            return Err(WhyNotError::DeadlineExceeded);
        }
        refine_preference_with_segments(self.corpus, query, missing, lambda, table)
    }

    fn keywords(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
        table: &SegmentSet,
    ) -> Result<KeywordRefinement, WhyNotError> {
        refine_keywords_on(
            self.corpus,
            self.trees,
            &self.params,
            self.opts,
            &self.expired,
            query,
            missing,
            lambda,
            table,
        )
    }
}

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
    tree: &RTree,
    params: &ScoreParams,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
) -> Result<CombinedRefinement, WhyNotError> {
    refine_combined_with(tree, params, query, missing, lambda, KeywordOptions::default())
}

/// [`refine_combined`] with explicit keyword-search options.
pub fn refine_combined_with(
    tree: &RTree,
    params: &ScoreParams,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
    opts: KeywordOptions,
) -> Result<CombinedRefinement, WhyNotError> {
    let trees = [tree];
    let engine = TreeRefinementEngine::new(tree.corpus(), &trees, *params, opts, || false);
    refine_combined_on(&engine, query, missing, lambda)
}

/// Runs both chaining orders on a [`RefinementEngine`] and returns the
/// lower-penalty combination.
///
/// A stage error other than stage 2's `NotMissing` (e.g. an expired
/// deadline) fails the whole request: half of the search is not an
/// answer.
pub fn refine_combined_on<E: RefinementEngine>(
    engine: &E,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
) -> Result<CombinedRefinement, WhyNotError> {
    let params = engine.score_params();
    let corpus = engine.corpus();
    let mut tables = Tables {
        corpus,
        params,
        loc: query.loc,
        built: vec![request_table(corpus, &params, query, missing, lambda)?],
    };
    let (ctx, _) = build_context(corpus, tables.get(query), query, missing, lambda)?;

    // Δdoc normalizer is fixed by the *initial* query (Eqn 4).
    let m_doc = missing
        .iter()
        .fold(yask_text::KeywordSet::empty(), |acc, &m| {
            acc.union(&corpus.get(m).doc)
        });
    let doc_norm = query.doc.union(&m_doc).len().max(1);

    let kw_first = chain_keywords_then_weights(engine, &mut tables, query, missing, lambda)?;
    let w_first = chain_weights_then_keywords(engine, &mut tables, query, missing, lambda)?;
    let [a, b] = [
        (CombineOrder::KeywordsThenWeights, kw_first),
        (CombineOrder::WeightsThenKeywords, w_first),
    ]
    .map(|(order, refined)| assemble(&mut tables, query, missing, &ctx, refined, doc_norm, order));
    // Keywords-first wins ties.
    Ok(if a.penalty <= b.penalty { a } else { b })
}

/// The weight-plane tables of one combined request, one per keyword set,
/// built on first use. The location is fixed for the request.
struct Tables<'a> {
    corpus: &'a Corpus,
    params: ScoreParams,
    loc: Point,
    built: Vec<SegmentSet>,
}

impl Tables<'_> {
    /// The table serving `query`'s location and keywords.
    fn get(&mut self, query: &Query) -> &SegmentSet {
        assert_eq!(query.loc, self.loc, "a refinement never moves the query");
        match self.built.iter().position(|t| t.serves(query)) {
            Some(i) => &self.built[i],
            None => {
                self.built
                    .push(SegmentSet::build_live(self.corpus, &self.params, query));
                self.built.last().expect("just pushed")
            }
        }
    }
}

/// Stage 1 keywords, stage 2 weights.
fn chain_keywords_then_weights<E: RefinementEngine>(
    engine: &E,
    tables: &mut Tables<'_>,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
) -> Result<Query, WhyNotError> {
    let kw = engine.keywords(query, missing, lambda, tables.get(query))?;
    // Stage 2 refines the weights of the keyword-adapted query at the
    // *original* k — if the adapted query already revives everything
    // within q.k, preference adjustment would reject the request (nothing
    // is missing any more), so keep the stage-1 result in that case.
    let stage2_base = kw.query.with_k(query.k);
    match engine.preference(&stage2_base, missing, lambda, tables.get(&stage2_base)) {
        Ok(pref) => Ok(pref.query),
        Err(WhyNotError::NotMissing(_, _)) => Ok(stage2_base),
        Err(e) => Err(e),
    }
}

/// Stage 1 weights, stage 2 keywords.
fn chain_weights_then_keywords<E: RefinementEngine>(
    engine: &E,
    tables: &mut Tables<'_>,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
) -> Result<Query, WhyNotError> {
    let pref = engine.preference(query, missing, lambda, tables.get(query))?;
    let stage2_base = pref.query.with_k(query.k);
    match engine.keywords(&stage2_base, missing, lambda, tables.get(&stage2_base)) {
        Ok(kw) => Ok(kw.query),
        Err(WhyNotError::NotMissing(_, _)) => Ok(stage2_base),
        Err(e) => Err(e),
    }
}

/// Finalizes a chained query: exact rank, minimal k″, combined penalty.
fn assemble(
    tables: &mut Tables<'_>,
    initial: &Query,
    missing: &[ObjectId],
    ctx: &PenaltyContext,
    refined: Query,
    doc_norm: usize,
    order: CombineOrder,
) -> CombinedRefinement {
    let probe = refined.with_k(initial.k);
    let rank = *tables
        .get(&probe)
        .ranks(probe.weights, missing)
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
    use crate::keyword::refine_keywords_with;
    use crate::pref::refine_preference;
    use yask_geo::Space;
    use yask_index::{CorpusBuilder, RTreeParams};
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

    fn scenario(seed: u64) -> (Corpus, ScoreParams, RTree, Query, Vec<ObjectId>) {
        let corpus = random_corpus(300, seed);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let q = Query::new(Point::new(0.4, 0.4), ks(&[1, 2]), 5);
        let all = topk_scan(&corpus, &params, &q.with_k(corpus.len()));
        let missing = vec![all[q.k + 4].id];
        (corpus, params, tree, q, missing)
    }

    #[test]
    fn combined_refinement_revives_missing() {
        for seed in [1u64, 2, 3] {
            let (corpus, params, tree, q, missing) = scenario(seed);
            let r = refine_combined(&tree, &params, &q, &missing, 0.5).unwrap();
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
        let (_, params, tree, q, missing) = scenario(4);
        for lambda in [0.2, 0.5, 0.8] {
            let r = refine_combined(&tree, &params, &q, &missing, lambda).unwrap();
            assert!(r.penalty <= lambda + 1e-12, "λ={lambda}: {}", r.penalty);
        }
    }

    #[test]
    fn combined_can_beat_both_single_models() {
        // At minimum, the combined penalty (with its halved modification
        // term) is no worse than the halved-equivalent of the winning
        // single model for the same modification.
        let (corpus, params, tree, q, missing) = scenario(5);
        let lambda = 0.5;
        let pref = refine_preference(&corpus, &params, &q, &missing, lambda).unwrap();
        let kw = refine_keywords_with(
            &tree,
            &params,
            &q,
            &missing,
            lambda,
            KeywordOptions::default(),
        )
        .unwrap();
        let comb = refine_combined(&tree, &params, &q, &missing, lambda).unwrap();
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
        let (_, params, tree, q, missing) = scenario(6);
        let r = refine_combined(&tree, &params, &q, &missing, 0.5).unwrap();
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

    /// A tree engine whose preference model fails with an expired
    /// deadline once `ok_calls` calls have succeeded.
    struct ExpiringEngine<'a> {
        inner: TreeRefinementEngine<'a, fn() -> bool>,
        ok_calls: std::cell::Cell<usize>,
    }

    impl RefinementEngine for ExpiringEngine<'_> {
        fn corpus(&self) -> &Corpus {
            self.inner.corpus()
        }
        fn score_params(&self) -> ScoreParams {
            self.inner.score_params()
        }
        fn preference(
            &self,
            query: &Query,
            missing: &[ObjectId],
            lambda: f64,
            table: &SegmentSet,
        ) -> Result<PreferenceRefinement, WhyNotError> {
            match self.ok_calls.get() {
                0 => Err(WhyNotError::DeadlineExceeded),
                n => {
                    self.ok_calls.set(n - 1);
                    self.inner.preference(query, missing, lambda, table)
                }
            }
        }
        fn keywords(
            &self,
            query: &Query,
            missing: &[ObjectId],
            lambda: f64,
            table: &SegmentSet,
        ) -> Result<KeywordRefinement, WhyNotError> {
            self.inner.keywords(query, missing, lambda, table)
        }
    }

    #[test]
    fn a_failed_chain_fails_the_request() {
        // One success lets the keywords-first chain finish; the deadline
        // then expires inside the weights-first chain. With no success
        // both chains fail. Either way the error reaches the caller: a
        // half-searched answer must not be returned (or cached) as Ok.
        let (corpus, params, tree, q, missing) = scenario(8);
        let trees = [&tree];
        for ok_calls in [1, 0] {
            let engine = ExpiringEngine {
                inner: TreeRefinementEngine::new(
                    &corpus,
                    &trees,
                    params,
                    KeywordOptions::default(),
                    || false,
                ),
                ok_calls: std::cell::Cell::new(ok_calls),
            };
            assert_eq!(
                refine_combined_on(&engine, &q, &missing, 0.5).unwrap_err(),
                WhyNotError::DeadlineExceeded,
                "{ok_calls} successful preference call(s)"
            );
        }
    }

    #[test]
    fn errors_propagate() {
        let (_, params, tree, q, _) = scenario(7);
        assert_eq!(
            refine_combined(&tree, &params, &q, &[], 0.5).unwrap_err(),
            WhyNotError::EmptyMissingSet
        );
        assert_eq!(
            refine_combined(&tree, &params, &q, &[ObjectId(9999)], 0.5).unwrap_err(),
            WhyNotError::ForeignObject(ObjectId(9999))
        );
    }
}
