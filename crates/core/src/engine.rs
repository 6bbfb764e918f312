//! The [`Yask`] facade: top-k querying plus the full why-not engine.
//!
//! Mirrors the server-side query processor of Fig 1: one spatial keyword
//! top-k query engine over an R-tree and the corpus's posting lists, and
//! one why-not engine with its
//! three modules (explanation generator, preference adjustment, keyword
//! adaptation), which read the corpus — a refinement's ranks come from
//! the request table, never from the tree.

use yask_index::{Corpus, ObjectId, RTree, RTreeParams};
use yask_query::{topk_tree, Query, RankedObject, ScoreParams};
use yask_text::SimilarityModel;

use crate::combined::{refine_combined, CombinedRefinement};
use crate::common::request_table;
use crate::error::WhyNotError;
use crate::explain::{explain, Explanation};
use crate::keyword::{refine_keywords, refine_keywords_on, KeywordRefinement};
use crate::pref::{refine_preference, refine_preference_with_segments, PreferenceRefinement};

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct YaskConfig {
    /// R-tree fanout.
    pub tree_params: RTreeParams,
    /// Textual similarity model (Jaccard in the paper).
    pub model: SimilarityModel,
    /// Default λ when the caller does not specify one.
    pub default_lambda: f64,
}

impl Default for YaskConfig {
    fn default() -> Self {
        YaskConfig {
            tree_params: RTreeParams::default(),
            model: SimilarityModel::Jaccard,
            default_lambda: 0.5,
        }
    }
}

/// Which refinement model produced the recommended query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecommendedModel {
    /// Preference adjustment won (lower penalty).
    Preference,
    /// Keyword adaptation won.
    Keyword,
}

/// The combined answer to one why-not question: explanations plus both
/// refined queries, with the lower-penalty one flagged — the demo lets
/// "users apply the two refinement functions simultaneously to find
/// better solutions".
#[derive(Clone, Debug)]
pub struct WhyNotAnswer {
    /// Per-object explanations.
    pub explanations: Vec<Explanation>,
    /// The preference-adjusted refinement (Definition 2).
    pub preference: PreferenceRefinement,
    /// The keyword-adapted refinement (Definition 3).
    pub keyword: KeywordRefinement,
    /// Which of the two has the lower penalty.
    pub recommended: RecommendedModel,
}

impl WhyNotAnswer {
    /// Bundles the three modules' outputs and applies the one
    /// recommendation rule — preference wins ties — shared by the
    /// single-tree engine and the sharded fan-out, so the recommended
    /// model can never diverge between the two paths.
    pub fn assemble(
        explanations: Vec<Explanation>,
        preference: PreferenceRefinement,
        keyword: KeywordRefinement,
    ) -> Self {
        let recommended = if preference.penalty <= keyword.penalty {
            RecommendedModel::Preference
        } else {
            RecommendedModel::Keyword
        };
        WhyNotAnswer {
            explanations,
            preference,
            keyword,
            recommended,
        }
    }
}

/// The YASK engine.
pub struct Yask {
    tree: RTree,
    params: ScoreParams,
    config: YaskConfig,
}

impl Yask {
    /// Builds the engine over a corpus (bulk-loads the R-tree).
    pub fn new(corpus: Corpus, config: YaskConfig) -> Self {
        let params = ScoreParams::new(corpus.space()).with_model(config.model);
        Yask {
            tree: RTree::bulk_load(corpus, config.tree_params),
            params,
            config,
        }
    }

    /// Builds with the default configuration.
    pub fn with_defaults(corpus: Corpus) -> Self {
        Yask::new(corpus, YaskConfig::default())
    }

    /// Wraps an already-built R-tree — the ingest path's constructor:
    /// applying a write batch clones the previous epoch's tree, mutates it
    /// incrementally, and republishes it here without a bulk load.
    pub fn from_tree(tree: RTree, config: YaskConfig) -> Self {
        let params = ScoreParams::new(tree.corpus().space()).with_model(config.model);
        Yask {
            tree,
            params,
            config,
        }
    }

    /// The corpus.
    pub fn corpus(&self) -> &Corpus {
        self.tree.corpus()
    }

    /// The scoring configuration.
    pub fn score_params(&self) -> ScoreParams {
        self.params
    }

    /// The shared R-tree.
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// The configuration.
    pub fn config(&self) -> &YaskConfig {
        &self.config
    }

    /// Runs a spatial keyword top-k query (Definition 1).
    pub fn top_k(&self, query: &Query) -> Vec<RankedObject> {
        topk_tree(&self.tree, &self.params, query)
    }

    /// Viewport query (the demo's Panel-1 grey markers): all objects in
    /// `rect`, optionally filtered by keywords under `mode`.
    pub fn viewport(
        &self,
        rect: &yask_geo::Rect,
        doc: &yask_text::KeywordSet,
        mode: yask_query::MatchMode,
    ) -> Vec<ObjectId> {
        yask_query::range_keyword_tree(&self.tree, rect, doc, mode)
    }

    /// Explains why each desired object is (not) in the result.
    pub fn explain(
        &self,
        query: &Query,
        desired: &[ObjectId],
    ) -> Result<Vec<Explanation>, WhyNotError> {
        explain(self.corpus(), &self.params, query, desired)
    }

    /// Preference-adjusted refinement (Definition 2).
    pub fn refine_preference(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<PreferenceRefinement, WhyNotError> {
        refine_preference(self.corpus(), &self.params, query, missing, lambda)
    }

    /// Keyword-adapted refinement (Definition 3).
    pub fn refine_keywords(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<KeywordRefinement, WhyNotError> {
        refine_keywords(self.corpus(), &self.params, query, missing, lambda)
    }

    /// Combined refinement: both models chained, as the demo's "apply the
    /// two refinement functions simultaneously" (see [`crate::combined`]).
    pub fn refine_combined(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<CombinedRefinement, WhyNotError> {
        refine_combined(self.corpus(), &self.params, query, missing, lambda)
    }

    /// Full why-not answer: explanations + both refinements + the
    /// recommendation, using the configured default λ.
    pub fn answer(&self, query: &Query, missing: &[ObjectId]) -> Result<WhyNotAnswer, WhyNotError> {
        self.answer_with_lambda(query, missing, self.config.default_lambda)
    }

    /// [`Yask::answer`] with an explicit λ.
    pub fn answer_with_lambda(
        &self,
        query: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<WhyNotAnswer, WhyNotError> {
        let explanations = self.explain(query, missing)?;
        // One request table serves both refinements.
        let table = request_table(self.corpus(), &self.params, query, missing, lambda)?;
        let preference =
            refine_preference_with_segments(self.corpus(), query, missing, lambda, &table)?;
        let keyword = refine_keywords_on(self.corpus(), &|| false, query, missing, lambda, &table)?;
        Ok(WhyNotAnswer::assemble(explanations, preference, keyword))
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

    #[test]
    fn top_k_matches_scan() {
        let corpus = random_corpus(200, 91);
        let yask = Yask::with_defaults(corpus.clone());
        let q = Query::new(Point::new(0.4, 0.4), ks(&[1, 2]), 6);
        let got: Vec<ObjectId> = yask.top_k(&q).iter().map(|r| r.id).collect();
        let want: Vec<ObjectId> = topk_scan(&corpus, &yask.score_params(), &q)
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn answer_bundles_everything() {
        let corpus = random_corpus(250, 92);
        let yask = Yask::with_defaults(corpus.clone());
        let q = Query::new(Point::new(0.2, 0.7), ks(&[2, 3]), 5);
        let params = yask.score_params();
        let all = topk_scan(&corpus, &params, &q.with_k(corpus.len()));
        let missing = vec![all[q.k + 3].id];
        let ans = yask.answer(&q, &missing).unwrap();
        assert_eq!(ans.explanations.len(), 1);
        assert!(ans.preference.penalty >= 0.0);
        assert!(ans.keyword.penalty >= 0.0);
        let best = match ans.recommended {
            RecommendedModel::Preference => ans.preference.penalty,
            RecommendedModel::Keyword => ans.keyword.penalty,
        };
        assert!(best <= ans.preference.penalty && best <= ans.keyword.penalty);
        // Both refinements must revive the missing object.
        for refined in [&ans.preference.query, &ans.keyword.query] {
            let res = topk_scan(&corpus, &params, refined);
            assert!(res.iter().any(|r| r.id == missing[0]), "{refined:?}");
        }
    }

    #[test]
    fn viewport_queries_work_through_facade() {
        let corpus = random_corpus(150, 95);
        let yask = Yask::with_defaults(corpus.clone());
        let rect = yask_geo::Rect::from_coords(0.2, 0.2, 0.8, 0.8);
        let ids = yask.viewport(&rect, &ks(&[1]), yask_query::MatchMode::Any);
        for id in &ids {
            let o = corpus.get(*id);
            assert!(rect.contains_point(&o.loc));
            assert!(o.doc.contains(yask_text::KeywordId(1)));
        }
        // Empty filter under All = pure spatial viewport.
        let all = yask.viewport(&rect, &yask_text::KeywordSet::empty(), yask_query::MatchMode::All);
        assert!(all.len() >= ids.len());
    }

    #[test]
    fn errors_surface_through_facade() {
        let corpus = random_corpus(40, 93);
        let yask = Yask::with_defaults(corpus);
        let q = Query::new(Point::new(0.5, 0.5), ks(&[1]), 3);
        assert!(matches!(
            yask.answer(&q, &[]),
            Err(WhyNotError::EmptyMissingSet)
        ));
        let top = yask.top_k(&q)[0].id;
        assert!(matches!(
            yask.answer(&q, &[top]),
            Err(WhyNotError::NotMissing(_, _))
        ));
    }

    #[test]
    fn config_model_is_respected() {
        let corpus = random_corpus(50, 94);
        let cfg = YaskConfig {
            model: SimilarityModel::Dice,
            ..YaskConfig::default()
        };
        let yask = Yask::new(corpus, cfg);
        assert_eq!(yask.score_params().model, SimilarityModel::Dice);
        assert_eq!(yask.config().default_lambda, 0.5);
    }
}
