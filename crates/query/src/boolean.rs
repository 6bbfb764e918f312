//! Boolean (conjunctive) spatial keyword queries.
//!
//! The spatial keyword querying survey the paper builds on (its reference
//! \[2\]) distinguishes *ranking* queries — Eqn (1), implemented in
//! [`crate::topk`] — from **boolean kNN queries**, where only objects
//! containing *all* query keywords qualify and qualifying objects are
//! ranked by the same score. Both modes matter in practice ("find cafes
//! that definitely have wifi *and* parking, nearest first").
//!
//! The index prunes conjunctive queries aggressively: a subtree can
//! contain a qualifying object only if every query keyword appears in its
//! union keyword set (`TextStats::max_inter == |q.doc|`), i.e. has a
//! non-zero count in the node's keyword-count map.

use std::collections::BinaryHeap;

use yask_index::{Corpus, NodeId, NodeKind, ObjectId, RTree};
use yask_util::{Scored, TopK};

use crate::query::Query;
use crate::score::{RankedObject, ScoreParams};

/// Exact boolean top-k by scan: filter on containment, rank by `ST`.
pub fn boolean_topk_scan(corpus: &Corpus, params: &ScoreParams, q: &Query) -> Vec<RankedObject> {
    let mut heap: TopK<ObjectId> = TopK::new(q.k);
    for o in corpus.iter() {
        if q.doc.is_subset_of(&o.doc) {
            heap.push(params.score(o, q), o.id);
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|s| RankedObject {
            id: s.item,
            score: s.score.get(),
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Entry {
    Node(NodeId),
    Object(ObjectId),
}

/// Boolean top-k over the tree: subtrees missing any query keyword are
/// pruned outright; qualifying objects stream out best-first.
///
/// Note the result may hold fewer than `k` objects — conjunctive
/// semantics can be unsatisfiable.
pub fn boolean_topk_tree(tree: &RTree, params: &ScoreParams, q: &Query) -> Vec<RankedObject> {
    let mut out = Vec::new();
    let Some(root) = tree.root() else {
        return out;
    };
    let _guard = tree.read_guard();
    let q_len = q.doc.len();
    let mut heap: BinaryHeap<Scored<Entry>> = BinaryHeap::new();
    let root_node = tree.node(root);
    if root_node.aug().text_stats(&q.doc).max_inter == q_len {
        heap.push(Scored::new(
            params.node_upper(&root_node.mbr, root_node.aug(), q),
            Entry::Node(root),
        ));
    }
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
            Entry::Node(n) => match &tree.node(n).kind {
                NodeKind::Leaf(entries) => {
                    for &id in entries {
                        let o = tree.corpus().get(id);
                        if q.doc.is_subset_of(&o.doc) {
                            heap.push(Scored::new(params.score(o, q), Entry::Object(id)));
                        }
                    }
                }
                NodeKind::Internal(children) => {
                    for &c in children {
                        let child = tree.node(c);
                        // Conjunctive prune: every query keyword must
                        // appear somewhere below this child.
                        if child.aug().text_stats(&q.doc).max_inter < q_len {
                            continue;
                        }
                        heap.push(Scored::new(
                            params.node_upper(&child.mbr, child.aug(), q),
                            Entry::Node(c),
                        ));
                    }
                }
            },
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Weights;
    use yask_geo::{Point, Space};
    use yask_index::{CorpusBuilder, RTreeParams};
    use yask_text::KeywordSet;
    use yask_util::Xoshiro256;

    fn random_corpus(n: usize, vocab: u32, seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            let doc = KeywordSet::from_raw(
                (0..1 + rng.below(6)).map(|_| rng.below(vocab as usize) as u32),
            );
            b.push(Point::new(rng.next_f64(), rng.next_f64()), doc, format!("o{i}"));
        }
        b.build()
    }

    #[test]
    fn tree_matches_scan_on_random_data() {
        let corpus = random_corpus(500, 12, 61);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let mut rng = Xoshiro256::seed_from_u64(62);
        for _ in 0..30 {
            let doc = KeywordSet::from_raw((0..1 + rng.below(3)).map(|_| rng.below(12) as u32));
            let q = Query::with_weights(
                Point::new(rng.next_f64(), rng.next_f64()),
                doc,
                1 + rng.below(10),
                Weights::from_ws(rng.range_f64(0.1, 0.9)),
            );
            let got: Vec<ObjectId> =
                boolean_topk_tree(&tree, &params, &q).iter().map(|r| r.id).collect();
            let want: Vec<ObjectId> =
                boolean_topk_scan(&corpus, &params, &q).iter().map(|r| r.id).collect();
            assert_eq!(got, want, "q = {q:?}");
        }
    }

    #[test]
    fn every_result_contains_all_keywords() {
        let corpus = random_corpus(300, 8, 63);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::from_raw([1, 3]), 10);
        for r in boolean_topk_tree(&tree, &params, &q) {
            assert!(q.doc.is_subset_of(&corpus.get(r.id).doc));
        }
    }

    #[test]
    fn unsatisfiable_conjunction_returns_empty() {
        let corpus = random_corpus(100, 5, 64);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        // Keyword 99 exists nowhere.
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::from_raw([1, 99]), 5);
        assert!(boolean_topk_tree(&tree, &params, &q).is_empty());
        assert!(boolean_topk_scan(&corpus, &params, &q).is_empty());
    }

    #[test]
    fn empty_doc_matches_everything() {
        // An empty conjunction is vacuously satisfied: pure spatial kNN.
        let corpus = random_corpus(50, 5, 65);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let q = Query::new(Point::new(0.2, 0.8), KeywordSet::empty(), 5);
        let got = boolean_topk_tree(&tree, &params, &q);
        assert_eq!(got.len(), 5);
        let want = boolean_topk_scan(&corpus, &params, &q);
        assert_eq!(
            got.iter().map(|r| r.id).collect::<Vec<_>>(),
            want.iter().map(|r| r.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fewer_than_k_matches_are_all_returned() {
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        b.push(Point::new(0.1, 0.1), KeywordSet::from_raw([1, 2]), "both");
        b.push(Point::new(0.2, 0.2), KeywordSet::from_raw([1]), "only1");
        b.push(Point::new(0.3, 0.3), KeywordSet::from_raw([2]), "only2");
        let corpus = b.build();
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
        let q = Query::new(Point::new(0.0, 0.0), KeywordSet::from_raw([1, 2]), 10);
        let got = boolean_topk_tree(&tree, &params, &q);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, ObjectId(0));
    }
}
