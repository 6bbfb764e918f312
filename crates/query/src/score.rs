//! The ranking function `ST` (Eqn 1) and its node-level bounds.

use yask_geo::{Rect, Space};
use yask_index::{KcAug, ObjectId, SpatioTextualObject, TextStats};
use yask_text::{KeywordSet, SimilarityModel};

use crate::query::Query;

/// A scored result entry. Result vectors are sorted best-first; an entry's
/// rank is its position + 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankedObject {
    /// The object.
    pub id: ObjectId,
    /// Its `ST` score under the query.
    pub score: f64,
}

/// Server-side scoring configuration: the data space (for `SDist`
/// normalization) and the similarity model (for `TSim`).
///
/// The per-query weights live in [`Query`]; everything else about the
/// ranking function is a system parameter, exactly as in the demo where
/// "the system ... leaves the weighting vector ~w as a system parameter on
/// the server" and Jaccard is the fixed model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreParams {
    /// The normalized data space.
    pub space: Space,
    /// The textual similarity model (default Jaccard).
    pub model: SimilarityModel,
}

impl ScoreParams {
    /// Creates scoring parameters with the paper's Jaccard default.
    pub fn new(space: Space) -> Self {
        ScoreParams {
            space,
            model: SimilarityModel::Jaccard,
        }
    }

    /// Overrides the similarity model (footnote 1 of the paper).
    pub fn with_model(mut self, model: SimilarityModel) -> Self {
        self.model = model;
        self
    }

    /// The spatial/textual components of the score:
    /// `(1 − SDist(o, q), TSim(o, q))`, both in `[0, 1]`.
    ///
    /// These are the `(a_o, b_o)` coordinates that the preference-
    /// adjustment module maps to segments in the weight plane.
    #[inline]
    pub fn parts(&self, o: &SpatioTextualObject, q: &Query) -> (f64, f64) {
        let a = 1.0 - self.space.sdist(&q.loc, &o.loc);
        let b = self.model.similarity(&q.doc, &o.doc);
        (a, b)
    }

    /// `ST(o, q)` — Eqn (1).
    #[inline]
    pub fn score(&self, o: &SpatioTextualObject, q: &Query) -> f64 {
        let (a, b) = self.parts(o, q);
        q.weights.ws() * a + q.weights.wt() * b
    }

    /// Score with an explicit keyword set substituted for `q.doc` — used
    /// by the keyword-adaptation module to score candidates without
    /// cloning the query.
    #[inline]
    pub fn score_with_doc(&self, o: &SpatioTextualObject, q: &Query, doc: &KeywordSet) -> f64 {
        let a = 1.0 - self.space.sdist(&q.loc, &o.loc);
        let b = self.model.similarity(doc, &o.doc);
        q.weights.ws() * a + q.weights.wt() * b
    }

    /// Upper bound of `ST(o, q)` over all objects `o` inside a node with
    /// rectangle `mbr` and summary `aug`.
    #[inline]
    pub fn node_upper(&self, mbr: &Rect, aug: &KcAug, q: &Query) -> f64 {
        self.node_upper_with_doc(mbr, aug, q, &q.doc)
    }

    /// [`ScoreParams::node_upper`] with a substituted keyword set.
    #[inline]
    pub fn node_upper_with_doc(&self, mbr: &Rect, aug: &KcAug, q: &Query, doc: &KeywordSet) -> f64 {
        self.stats_upper(mbr, aug.text_stats(doc), q)
    }

    /// [`ScoreParams::node_upper`] from a node's [`TextStats`] as given —
    /// the form a search that bounds through a weaker view of the
    /// summary (e.g. [`TextStats::without_intersection`]) calls.
    #[inline]
    pub(crate) fn stats_upper(&self, mbr: &Rect, text: TextStats, q: &Query) -> f64 {
        let a = 1.0 - self.space.sdist_min(&q.loc, mbr);
        let b = text.upper(self.model);
        q.weights.ws() * a + q.weights.wt() * b
    }

    /// Lower bound counterpart: every object below the node scores at
    /// least this much.
    #[inline]
    pub fn node_lower(&self, mbr: &Rect, aug: &KcAug, q: &Query) -> f64 {
        self.node_lower_with_doc(mbr, aug, q, &q.doc)
    }

    /// [`ScoreParams::node_lower`] with a substituted keyword set.
    #[inline]
    pub fn node_lower_with_doc(&self, mbr: &Rect, aug: &KcAug, q: &Query, doc: &KeywordSet) -> f64 {
        let a = 1.0 - self.space.sdist_max(&q.loc, mbr);
        let b = aug.sim_lower(doc, self.model);
        q.weights.ws() * a + q.weights.wt() * b
    }

    /// True when object `x` ranks strictly better than object `y` under
    /// the workspace total order (score descending, id ascending).
    #[inline]
    pub fn ranks_before(score_x: f64, x: ObjectId, score_y: f64, y: ObjectId) -> bool {
        score_x > score_y || (score_x == score_y && x < y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::Point;
    use yask_index::CorpusBuilder;

    fn ks(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_raw(ids.iter().copied())
    }

    fn fixture() -> (yask_index::Corpus, ScoreParams) {
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        b.push(Point::new(0.0, 0.0), ks(&[1, 2]), "near-match");
        b.push(Point::new(1.0, 1.0), ks(&[1, 2]), "far-match");
        b.push(Point::new(0.0, 0.0), ks(&[9]), "near-miss");
        let corpus = b.build();
        let params = ScoreParams::new(corpus.space());
        (corpus, params)
    }

    #[test]
    fn score_combines_parts_linearly() {
        let (corpus, params) = fixture();
        let q = Query::with_weights(
            Point::new(0.0, 0.0),
            ks(&[1, 2]),
            1,
            crate::Weights::from_ws(0.3),
        );
        let o = corpus.get(ObjectId(0));
        let (a, b) = params.parts(o, &q);
        assert_eq!(a, 1.0); // co-located
        assert_eq!(b, 1.0); // identical keywords
        assert!((params.score(o, &q) - 1.0).abs() < 1e-12);

        let far = corpus.get(ObjectId(1));
        let (a, b) = params.parts(far, &q);
        assert!((a - 0.0).abs() < 1e-12); // opposite corner of unit space
        assert_eq!(b, 1.0);
        assert!((params.score(far, &q) - 0.7).abs() < 1e-12); // wt · 1
    }

    #[test]
    fn perfect_score_requires_both_components() {
        let (corpus, params) = fixture();
        let q = Query::new(Point::new(0.0, 0.0), ks(&[1, 2]), 1);
        let near_miss = corpus.get(ObjectId(2));
        // Same location but no keyword overlap: score = ws only.
        assert!((params.score(near_miss, &q) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn score_with_doc_overrides_keywords() {
        let (corpus, params) = fixture();
        let q = Query::new(Point::new(0.0, 0.0), ks(&[1, 2]), 1);
        let near_miss = corpus.get(ObjectId(2));
        let s = params.score_with_doc(near_miss, &q, &ks(&[9]));
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn node_bounds_bracket_member_scores() {
        let (corpus, params) = fixture();
        let q = Query::new(Point::new(0.2, 0.1), ks(&[1, 9]), 1);
        let objs: Vec<&yask_index::SpatioTextualObject> = corpus.iter().collect();
        let aug = KcAug::for_leaf(&objs);
        let mut mbr = Rect::EMPTY;
        for o in &objs {
            mbr.expand(&Rect::point(o.loc));
        }
        let ub = params.node_upper(&mbr, &aug, &q);
        let lb = params.node_lower(&mbr, &aug, &q);
        assert!(lb <= ub);
        for o in &objs {
            let s = params.score(o, &q);
            assert!(s <= ub + 1e-12, "{s} > {ub}");
            assert!(s + 1e-12 >= lb, "{s} < {lb}");
        }
    }

    #[test]
    fn ranks_before_total_order() {
        let a = ObjectId(1);
        let b = ObjectId(2);
        assert!(ScoreParams::ranks_before(0.9, b, 0.8, a));
        assert!(ScoreParams::ranks_before(0.8, a, 0.8, b)); // tie → smaller id
        assert!(!ScoreParams::ranks_before(0.8, b, 0.8, a));
        assert!(!ScoreParams::ranks_before(0.7, a, 0.8, b));
    }

    #[test]
    fn model_override_changes_scores() {
        let (corpus, _) = fixture();
        let params = ScoreParams::new(corpus.space()).with_model(SimilarityModel::Dice);
        let q = Query::new(Point::new(0.0, 0.0), ks(&[1]), 1);
        let o = corpus.get(ObjectId(0)); // doc {1,2}
        let (_, b) = params.parts(o, &q);
        // Dice: 2·1/(1+2) = 2/3 vs Jaccard 1/2.
        assert!((b - 2.0 / 3.0).abs() < 1e-12);
    }
}
