//! The best-first top-k algorithm of paper §3.3.
//!
//! "To process a spatial keyword top-k query, we maintain a priority queue
//! `Q` that is initialized with the SetR-tree root node. In each iteration
//! of query processing, we pop up the first element in `Q` and report it
//! as a result if it is an object; otherwise, we unfold it and put its
//! children into `Q`. The process continues until `k` objects are
//! retrieved."
//!
//! Nodes are keyed by their score *upper bound* (spatial min-distance +
//! textual bound from the node's keyword counts), objects by their exact
//! score; the first `k` objects popped are exactly the top-k. The tree's
//! one summary implies the SetR-tree's intersection and union sets, so
//! the served search bounds exactly as the SetR-tree does. The one loop
//! takes a *view* of each node's [`TextStats`]: the served entry points
//! pass the identity, and [`topk_tree_with_view`] with
//! [`TextStats::without_intersection`] runs the IR-tree's looser bound
//! over the same nodes — only the number of node expansions differs,
//! which is what experiment E5 measures.

use std::collections::BinaryHeap;

use yask_index::{Node, NodeId, NodeKind, ObjectId, RTree, TextStats};
use yask_util::Scored;

use crate::query::Query;
use crate::score::{RankedObject, ScoreParams};

/// Traversal counters for bound-quality experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Internal/leaf nodes popped and expanded.
    pub nodes_expanded: usize,
    /// Objects whose exact score was computed.
    pub objects_scored: usize,
    /// Total heap pushes (nodes + objects).
    pub heap_pushes: usize,
}

/// Heap entry: node (by bound) or object (by exact score).
///
/// Derive order puts `Node < Object`; combined with [`Scored`]'s
/// smaller-item-wins tie-break, a node popping at the same key as an
/// object pops *first* — required for correctness, because the node may
/// still contain an equal-scored object with a smaller id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Entry {
    Node(NodeId),
    Object(ObjectId),
}

/// Runs the best-first top-k search.
pub fn topk_tree(tree: &RTree, params: &ScoreParams, q: &Query) -> Vec<RankedObject> {
    topk_tree_with_stats(tree, params, q).0
}

/// [`topk_tree`] with traversal statistics.
///
/// On top of the paper's pop-and-unfold loop, the search maintains the
/// best `k` object scores seen so far ([`yask_util::TopK`]) and skips any
/// push that provably cannot enter the final result: an object already
/// beaten by `k` seen objects, or a node whose upper bound falls strictly
/// below the current `k`-th score. Neither prune can discard a true
/// result (the `k` witnesses are in the heap or the output), so the
/// answer is unchanged — only the heap traffic shrinks.
pub fn topk_tree_with_stats(
    tree: &RTree,
    params: &ScoreParams,
    q: &Query,
) -> (Vec<RankedObject>, TraversalStats) {
    topk_tree_with_view(tree, params, q, std::convert::identity)
}

/// [`topk_tree_with_stats`] bounding every node through `view` of its
/// [`TextStats`]. Any view that only loosens the stats (such as
/// [`TextStats::without_intersection`]) keeps the answer exact and
/// changes only how many nodes are expanded.
pub fn topk_tree_with_view(
    tree: &RTree,
    params: &ScoreParams,
    q: &Query,
    view: impl Fn(TextStats) -> TextStats,
) -> (Vec<RankedObject>, TraversalStats) {
    let upper = |node: &Node| params.stats_upper(&node.mbr, view(node.aug().text_stats(&q.doc)), q);
    let mut stats = TraversalStats::default();
    let mut out = Vec::with_capacity(q.k.min(tree.len()));
    let Some(root) = tree.root() else {
        return (out, stats);
    };
    let _guard = tree.read_guard();
    let mut heap: BinaryHeap<Scored<Entry>> = BinaryHeap::new();
    let mut seen: yask_util::TopK<ObjectId> = yask_util::TopK::new(q.k);
    let root_node = tree.node(root);
    heap.push(Scored::new(upper(root_node), Entry::Node(root)));
    stats.heap_pushes += 1;

    while let Some(top) = heap.pop() {
        match top.item {
            Entry::Object(id) => {
                out.push(RankedObject {
                    id,
                    score: top.score.get(),
                });
                if out.len() == q.k {
                    break;
                }
            }
            Entry::Node(n) => {
                // The bound may have gone stale while queued; re-check.
                if seen.is_full() && top.score.get() < seen.threshold() {
                    continue;
                }
                stats.nodes_expanded += 1;
                match &tree.node(n).kind {
                    NodeKind::Leaf(entries) => {
                        for &id in entries {
                            let s = params.score(tree.corpus().get(id), q);
                            stats.objects_scored += 1;
                            // Not retained ⇒ k better objects already seen
                            // ⇒ cannot be in the answer.
                            if seen.push(s, id) {
                                stats.heap_pushes += 1;
                                heap.push(Scored::new(s, Entry::Object(id)));
                            }
                        }
                    }
                    NodeKind::Internal(children) => {
                        for &c in children {
                            let ub = upper(tree.node(c));
                            if seen.is_full() && ub < seen.threshold() {
                                continue;
                            }
                            stats.heap_pushes += 1;
                            heap.push(Scored::new(ub, Entry::Node(c)));
                        }
                    }
                }
            }
        }
    }
    (out, stats)
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
        let k = 1 + rng.below(20);
        let ws = rng.range_f64(0.05, 0.95);
        Query::with_weights(loc, doc, k, Weights::from_ws(ws))
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

    /// The central correctness battery: every bound view must agree with
    /// the scan baseline on score *and* order for many random queries.
    #[test]
    fn all_engines_match_scan() {
        let corpus = random_corpus(400, 25, 11);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let mut rng = Xoshiro256::seed_from_u64(5);
        for case in 0..40 {
            let q = random_query(&mut rng, 25);
            let want = topk_scan(&corpus, &params, &q);
            for (name, got) in [
                ("setr", topk_tree(&tree, &params, &q)),
                (
                    "ir",
                    topk_tree_with_view(&tree, &params, &q, TextStats::without_intersection).0,
                ),
                ("plain", topk_tree_with_view(&tree, &params, &q, plain).0),
            ] {
                assert_eq!(
                    got.iter().map(|r| r.id).collect::<Vec<_>>(),
                    want.iter().map(|r| r.id).collect::<Vec<_>>(),
                    "{name} diverged on case {case} (q = {q:?})"
                );
                for (g, w) in got.iter().zip(&want) {
                    assert!((g.score - w.score).abs() < 1e-9, "{name} score mismatch");
                }
            }
        }
    }

    #[test]
    fn tighter_bounds_expand_fewer_nodes() {
        // The SetR view is at least as tight as the IR view, which is at
        // least as tight as no information — expansion counts must
        // reflect it.
        let corpus = random_corpus(2000, 40, 21);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(16, 6));
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut set_total = 0usize;
        let mut ir_total = 0usize;
        let mut plain_total = 0usize;
        for _ in 0..20 {
            let q = random_query(&mut rng, 40);
            set_total += topk_tree_with_stats(&tree, &params, &q).1.nodes_expanded;
            ir_total += topk_tree_with_view(&tree, &params, &q, TextStats::without_intersection)
                .1
                .nodes_expanded;
            plain_total += topk_tree_with_view(&tree, &params, &q, plain)
                .1
                .nodes_expanded;
        }
        assert!(
            set_total <= ir_total,
            "SetR expanded {set_total} > IR {ir_total}"
        );
        assert!(
            ir_total <= plain_total,
            "IR expanded {ir_total} > plain {plain_total}"
        );
    }

    #[test]
    fn empty_tree_returns_empty() {
        let corpus = random_corpus(0, 5, 1);
        let params = ScoreParams::new(corpus.space());
        let t = RTree::bulk_load(corpus, RTreeParams::default());
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::from_raw([1]), 5);
        let (res, stats) = topk_tree_with_stats(&t, &params, &q);
        assert!(res.is_empty());
        assert_eq!(stats.nodes_expanded, 0);
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let corpus = random_corpus(10, 5, 2);
        let params = ScoreParams::new(corpus.space());
        let t = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::from_raw([1]), 50);
        let res = topk_tree(&t, &params, &q);
        assert_eq!(res.len(), 10);
        let scan = topk_scan(&corpus, &params, &q);
        assert_eq!(
            res.iter().map(|r| r.id).collect::<Vec<_>>(),
            scan.iter().map(|r| r.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_query_doc_ranks_by_distance_only() {
        let corpus = random_corpus(100, 10, 4);
        let params = ScoreParams::new(corpus.space());
        let t = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::empty(), 5);
        let res = topk_tree(&t, &params, &q);
        let scan = topk_scan(&corpus, &params, &q);
        assert_eq!(
            res.iter().map(|r| r.id).collect::<Vec<_>>(),
            scan.iter().map(|r| r.id).collect::<Vec<_>>()
        );
        // Nearest by distance must come first.
        let nearest = t.nearest(&q.loc, 1)[0].1;
        assert_eq!(res[0].id, nearest);
    }

    #[test]
    fn works_on_insertion_built_tree() {
        let corpus = random_corpus(150, 15, 6);
        let params = ScoreParams::new(corpus.space());
        let t = RTree::build_by_insertion(corpus.clone(), RTreeParams::new(6, 2));
        t.validate().unwrap();
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..10 {
            let q = random_query(&mut rng, 15);
            let got: Vec<ObjectId> = topk_tree(&t, &params, &q).iter().map(|r| r.id).collect();
            let want: Vec<ObjectId> =
                topk_scan(&corpus, &params, &q).iter().map(|r| r.id).collect();
            assert_eq!(got, want);
        }
    }
}
