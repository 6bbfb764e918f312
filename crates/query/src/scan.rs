//! Linear-scan baseline and exact rank oracles.
//!
//! Scoring every object is the ground truth that the index-backed engines
//! are tested against, the baseline of the engine-comparison experiment
//! (E5), and the rank oracle `R(M, q)` that the why-not penalty functions
//! (Eqns 3–4) are defined in terms of.

use yask_index::{Corpus, ObjectId};
use yask_util::TopK;

use crate::query::Query;
use crate::score::{RankedObject, ScoreParams};

/// Exact top-k by scoring every object. Ties break towards smaller ids.
pub fn topk_scan(corpus: &Corpus, params: &ScoreParams, q: &Query) -> Vec<RankedObject> {
    let mut heap: TopK<ObjectId> = TopK::new(q.k);
    for o in corpus.iter() {
        heap.push(params.score(o, q), o.id);
    }
    crate::score::ranked(heap)
}

/// The exact rank of `target` under `q` (1-based; rank 1 = best), over the
/// whole database — the `R({o}, q)` of the paper's penalty functions.
pub fn rank_of_scan(corpus: &Corpus, params: &ScoreParams, q: &Query, target: ObjectId) -> usize {
    let target_score = params.score(corpus.get(target), q);
    let mut better = 0usize;
    for o in corpus.iter() {
        if o.id == target {
            continue;
        }
        if ScoreParams::ranks_before(params.score(o, q), o.id, target_score, target) {
            better += 1;
        }
    }
    better + 1
}

/// Ranks of several targets in one pass; the maximum entry is the paper's
/// `R(M, q)` ("the lowest rank of the missing objects under q").
pub fn ranks_of_scan(
    corpus: &Corpus,
    params: &ScoreParams,
    q: &Query,
    targets: &[ObjectId],
) -> Vec<usize> {
    let scored: Vec<(f64, ObjectId)> = targets
        .iter()
        .map(|&t| (params.score(corpus.get(t), q), t))
        .collect();
    let mut better = vec![0usize; targets.len()];
    for o in corpus.iter() {
        let s = params.score(o, q);
        for (i, &(ts, t)) in scored.iter().enumerate() {
            if o.id != t && ScoreParams::ranks_before(s, o.id, ts, t) {
                better[i] += 1;
            }
        }
    }
    better.iter().map(|b| b + 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::{Point, Space};
    use yask_index::CorpusBuilder;
    use yask_text::KeywordSet;

    fn ks(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_raw(ids.iter().copied())
    }

    fn corpus() -> Corpus {
        // Four objects along the diagonal with varying keyword overlap.
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        b.push(Point::new(0.0, 0.0), ks(&[1, 2]), "o0"); // near, strong text
        b.push(Point::new(0.5, 0.5), ks(&[1, 2]), "o1"); // mid, strong text
        b.push(Point::new(0.1, 0.1), ks(&[9]), "o2"); // near, no text
        b.push(Point::new(0.9, 0.9), ks(&[9]), "o3"); // far, no text
        b.build()
    }

    #[test]
    fn topk_orders_best_first() {
        let c = corpus();
        let params = ScoreParams::new(c.space());
        let q = Query::new(Point::new(0.0, 0.0), ks(&[1, 2]), 4);
        let res = topk_scan(&c, &params, &q);
        assert_eq!(res.len(), 4);
        assert_eq!(res[0].id, ObjectId(0));
        for w in res.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn topk_truncates_to_k() {
        let c = corpus();
        let params = ScoreParams::new(c.space());
        let q = Query::new(Point::new(0.0, 0.0), ks(&[1, 2]), 2);
        assert_eq!(topk_scan(&c, &params, &q).len(), 2);
    }

    #[test]
    fn topk_k_exceeds_n() {
        let c = corpus();
        let params = ScoreParams::new(c.space());
        let q = Query::new(Point::new(0.0, 0.0), ks(&[1]), 100);
        assert_eq!(topk_scan(&c, &params, &q).len(), 4);
    }

    #[test]
    fn rank_of_agrees_with_topk_positions() {
        let c = corpus();
        let params = ScoreParams::new(c.space());
        let q = Query::new(Point::new(0.0, 0.0), ks(&[1, 2]), 4);
        let res = topk_scan(&c, &params, &q);
        for (i, r) in res.iter().enumerate() {
            assert_eq!(rank_of_scan(&c, &params, &q, r.id), i + 1);
        }
    }

    #[test]
    fn ranks_of_matches_individual_ranks() {
        let c = corpus();
        let params = ScoreParams::new(c.space());
        let q = Query::new(Point::new(0.3, 0.3), ks(&[1, 9]), 2);
        let targets = [ObjectId(0), ObjectId(2), ObjectId(3)];
        let batch = ranks_of_scan(&c, &params, &q, &targets);
        for (i, &t) in targets.iter().enumerate() {
            assert_eq!(batch[i], rank_of_scan(&c, &params, &q, t));
        }
    }

    #[test]
    fn tie_break_by_id() {
        // Two objects with identical location and keywords → identical
        // score; the smaller id must rank first.
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        b.push(Point::new(0.5, 0.5), ks(&[1]), "a");
        b.push(Point::new(0.5, 0.5), ks(&[1]), "b");
        let c = b.build();
        let params = ScoreParams::new(c.space());
        let q = Query::new(Point::new(0.2, 0.2), ks(&[1]), 2);
        let res = topk_scan(&c, &params, &q);
        assert_eq!(res[0].id, ObjectId(0));
        assert_eq!(res[1].id, ObjectId(1));
        assert_eq!(rank_of_scan(&c, &params, &q, ObjectId(0)), 1);
        assert_eq!(rank_of_scan(&c, &params, &q, ObjectId(1)), 2);
    }

    #[test]
    fn empty_corpus_returns_nothing() {
        let c = CorpusBuilder::new().build();
        let params = ScoreParams::new(c.space());
        let q = Query::new(Point::new(0.0, 0.0), ks(&[1]), 3);
        assert!(topk_scan(&c, &params, &q).is_empty());
    }
}
