//! Experiment E5's bound views: the paper's KcR-tree search, kept off the
//! served path.
//!
//! The served top-k reads no keyword bound (see [`crate::topk`]). E5
//! still compares the bounds the paper compares — the SetR-tree's, which
//! knows each node's keyword intersection and union (both implied by the
//! KcR-tree's counts), against the IR-tree's, which knows the union only
//! ([`TextStats::without_intersection`]). It does so by running the one
//! best-first loop, [`topk_tree_bounded`], under a node bound read off
//! the KcR-tree summaries of an on-demand side table
//! ([`KcAug::side_table`]): the tree itself stores none. Any view that
//! only loosens the stats keeps the answer exact and changes only how
//! many nodes are expanded, which is what E5 measures.

use yask_geo::Rect;
use yask_index::{KcAug, RTree, TextStats};

use crate::bound::SharedBound;
use crate::query::Query;
use crate::score::{RankedObject, ScoreParams};
use crate::topk::{topk_tree_bounded, TraversalStats};

/// The paper's best-first top-k on `tree` (which must index every live
/// object of its corpus), bounding each node by its distance bound plus
/// the textual bound of `view` applied to the node's [`TextStats`] from
/// `table` (the tree's [`KcAug::side_table`]).
pub fn topk_tree_with_view(
    tree: &RTree,
    params: &ScoreParams,
    q: &Query,
    table: &[KcAug],
    view: impl Fn(TextStats) -> TextStats,
) -> (Vec<RankedObject>, TraversalStats) {
    let upper = |id: yask_index::NodeId, node: &yask_index::Node| {
        stats_upper(
            params,
            &node.mbr,
            view(table[id.index()].text_stats(&q.doc)),
            q,
        )
    };
    let (out, stats, _) = topk_tree_bounded(tree, params, q, upper, &SharedBound::new(), || false);
    (out, stats)
}

/// Upper bound of `ST(o, q)` over all objects `o` inside a node with
/// rectangle `mbr` whose keywords have [`TextStats`] `text` against the
/// query's.
fn stats_upper(params: &ScoreParams, mbr: &Rect, text: TextStats, q: &Query) -> f64 {
    let a = 1.0 - params.space.sdist_min(&q.loc, mbr);
    let b = text.upper(params.model);
    q.weights.ws() * a + q.weights.wt() * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Weights;
    use crate::scan::topk_scan;
    use yask_geo::{Point, Space};
    use yask_index::{Corpus, CorpusBuilder, RTreeParams};
    use yask_text::KeywordSet;
    use yask_util::Xoshiro256;

    fn random_corpus(n: usize, vocab: u32, seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            let loc = Point::new(rng.next_f64(), rng.next_f64());
            let nk = 1 + rng.below(6);
            let doc = KeywordSet::from_raw((0..nk).map(|_| rng.below(vocab as usize) as u32));
            b.push(loc, doc, format!("o{i}"));
        }
        b.build()
    }

    fn random_query(rng: &mut Xoshiro256, vocab: u32) -> Query {
        let loc = Point::new(rng.next_f64(), rng.next_f64());
        let nk = 1 + rng.below(4);
        let doc = KeywordSet::from_raw((0..nk).map(|_| rng.below(vocab as usize) as u32));
        Query::with_weights(
            loc,
            doc,
            1 + rng.below(20),
            Weights::from_ws(rng.range_f64(0.05, 0.95)),
        )
    }

    /// No information about a node at all (a plain R-tree's bound): the
    /// textual upper bound degenerates to 1.
    fn plain(s: TextStats) -> TextStats {
        TextStats {
            max_inter: s.q_len,
            min_inter: 0,
            int_len: 0,
            uni_len: usize::MAX / 4,
            ..s
        }
    }

    #[test]
    fn every_view_matches_the_scan() {
        let corpus = random_corpus(400, 25, 11);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let table = KcAug::side_table(&tree);
        let mut rng = Xoshiro256::seed_from_u64(5);
        for case in 0..40 {
            let q = random_query(&mut rng, 25);
            let want = topk_scan(&corpus, &params, &q);
            for (name, got) in [
                (
                    "setr",
                    topk_tree_with_view(&tree, &params, &q, &table, std::convert::identity).0,
                ),
                (
                    "ir",
                    topk_tree_with_view(
                        &tree,
                        &params,
                        &q,
                        &table,
                        TextStats::without_intersection,
                    )
                    .0,
                ),
                (
                    "plain",
                    topk_tree_with_view(&tree, &params, &q, &table, plain).0,
                ),
            ] {
                assert_eq!(got, want, "{name} diverged on case {case} (q = {q:?})");
            }
        }
    }

    #[test]
    fn tighter_bounds_expand_fewer_nodes() {
        // The SetR view is at least as tight as the IR view, which is at
        // least as tight as no information.
        let corpus = random_corpus(2000, 40, 21);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(16, 6));
        let table = KcAug::side_table(&tree);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let (mut set, mut ir, mut none) = (0, 0, 0);
        for _ in 0..20 {
            let q = random_query(&mut rng, 40);
            let nodes = |view: fn(TextStats) -> TextStats| {
                topk_tree_with_view(&tree, &params, &q, &table, view)
                    .1
                    .nodes_expanded
            };
            set += nodes(std::convert::identity);
            ir += nodes(TextStats::without_intersection);
            none += nodes(plain);
        }
        assert!(set <= ir, "SetR expanded {set} > IR {ir}");
        assert!(ir <= none, "IR expanded {ir} > plain {none}");
    }

    #[test]
    fn node_bounds_bracket_member_scores() {
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        b.push(
            Point::new(0.0, 0.0),
            KeywordSet::from_raw([1, 2]),
            "near-match",
        );
        b.push(
            Point::new(1.0, 1.0),
            KeywordSet::from_raw([1, 2]),
            "far-match",
        );
        b.push(Point::new(0.0, 0.0), KeywordSet::from_raw([9]), "near-miss");
        let corpus = b.build();
        let params = ScoreParams::new(corpus.space());
        let q = Query::new(Point::new(0.2, 0.1), KeywordSet::from_raw([1, 9]), 1);
        let objs: Vec<&yask_index::SpatioTextualObject> = corpus.iter().collect();
        let aug = KcAug::for_leaf(&objs);
        let mut mbr = Rect::EMPTY;
        for o in &objs {
            mbr.expand(&Rect::point(o.loc));
        }
        let ub = stats_upper(&params, &mbr, aug.text_stats(&q.doc), &q);
        for o in &objs {
            let s = params.score(o, &q);
            assert!(s <= ub + 1e-12, "{s} > {ub}");
        }
    }
}
