//! Incremental best-first enumeration.
//!
//! [`IncrementalSearch`] is the top-k algorithm of §3.3 *without* the `k`
//! cut-off: it yields objects one at a time in exact rank order. The
//! why-not engine uses it to compute `R(M, q)` — "the lowest rank of the
//! missing objects under the query q" — by pulling results until every
//! missing object has surfaced, paying only for the ranks actually
//! reached instead of scoring the whole database.

use std::collections::BinaryHeap;

use yask_index::{NodeId, NodeKind, ObjectId, RTree};
use yask_util::Scored;

use crate::query::Query;
use crate::score::{RankedObject, ScoreParams};

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Entry {
    Node(NodeId),
    Object(ObjectId),
}

/// A lazy, rank-ordered stream of query results.
pub struct IncrementalSearch<'t> {
    tree: &'t RTree,
    params: ScoreParams,
    query: Query,
    heap: BinaryHeap<Scored<Entry>>,
    yielded: usize,
}

impl<'t> IncrementalSearch<'t> {
    /// Starts a search; `q.k` is ignored (the stream is unbounded).
    pub fn new(tree: &'t RTree, params: ScoreParams, query: Query) -> Self {
        let mut heap = BinaryHeap::new();
        if let Some(root) = tree.root() {
            let node = tree.node(root);
            heap.push(Scored::new(
                params.node_upper(&node.mbr, node.aug(), &query),
                Entry::Node(root),
            ));
        }
        IncrementalSearch {
            tree,
            params,
            query,
            heap,
            yielded: 0,
        }
    }

    /// Number of objects yielded so far — the rank of the last result.
    pub fn yielded(&self) -> usize {
        self.yielded
    }

    /// Pulls results until `target` surfaces; returns its 1-based rank,
    /// or `None` if the stream ends first (object not indexed).
    pub fn rank_of(&mut self, target: ObjectId) -> Option<usize> {
        for r in self.by_ref() {
            if r.id == target {
                return Some(self.yielded);
            }
        }
        None
    }
}

impl Iterator for IncrementalSearch<'_> {
    type Item = RankedObject;

    fn next(&mut self) -> Option<RankedObject> {
        while let Some(top) = self.heap.pop() {
            match top.item {
                Entry::Object(id) => {
                    self.yielded += 1;
                    return Some(RankedObject {
                        id,
                        score: top.score.get(),
                    });
                }
                Entry::Node(n) => match &self.tree.node(n).kind {
                    NodeKind::Leaf(entries) => {
                        for &id in entries {
                            let s = self.params.score(self.tree.corpus().get(id), &self.query);
                            self.heap.push(Scored::new(s, Entry::Object(id)));
                        }
                    }
                    NodeKind::Internal(children) => {
                        for &c in children {
                            let child = self.tree.node(c);
                            let ub =
                                self.params
                                    .node_upper(&child.mbr, child.aug(), &self.query);
                            self.heap.push(Scored::new(ub, Entry::Node(c)));
                        }
                    }
                },
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{rank_of_scan, topk_scan};
    use yask_geo::{Point, Space};
    use yask_index::{Corpus, CorpusBuilder, RTreeParams};
    use yask_text::KeywordSet;
    use yask_util::Xoshiro256;

    fn corpus(n: usize, seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            let doc = KeywordSet::from_raw((0..1 + rng.below(4)).map(|_| rng.below(12) as u32));
            b.push(Point::new(rng.next_f64(), rng.next_f64()), doc, format!("o{i}"));
        }
        b.build()
    }

    #[test]
    fn stream_matches_full_ranking() {
        let c = corpus(120, 1);
        let params = ScoreParams::new(c.space());
        let tree = RTree::bulk_load(c.clone(), RTreeParams::new(8, 3));
        let q = Query::new(Point::new(0.4, 0.6), KeywordSet::from_raw([1, 3]), 1);
        let streamed: Vec<ObjectId> =
            IncrementalSearch::new(&tree, params, q.clone()).map(|r| r.id).collect();
        assert_eq!(streamed.len(), 120);
        let want: Vec<ObjectId> = topk_scan(&c, &params, &q.with_k(120))
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(streamed, want);
    }

    #[test]
    fn rank_of_matches_scan_oracle() {
        let c = corpus(200, 2);
        let params = ScoreParams::new(c.space());
        let tree = RTree::bulk_load(c.clone(), RTreeParams::new(8, 3));
        let q = Query::new(Point::new(0.2, 0.8), KeywordSet::from_raw([2, 5]), 1);
        let mut rng = Xoshiro256::seed_from_u64(9);
        for _ in 0..20 {
            let target = ObjectId(rng.below(200) as u32);
            let mut search = IncrementalSearch::new(&tree, params, q.clone());
            let got = search.rank_of(target).unwrap();
            assert_eq!(got, rank_of_scan(&c, &params, &q, target));
        }
    }

    #[test]
    fn rank_of_unindexed_object_is_none() {
        let c = corpus(20, 3);
        let params = ScoreParams::new(c.space());
        // Index only the first 10 objects.
        let ids: Vec<ObjectId> = (0..10).map(ObjectId).collect();
        let tree =
            RTree::bulk_load_subset(c.clone(), &ids, RTreeParams::new(4, 2));
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::from_raw([1]), 1);
        let mut search = IncrementalSearch::new(&tree, params, q);
        assert_eq!(search.rank_of(ObjectId(15)), None);
        assert_eq!(search.yielded(), 10);
    }

    #[test]
    fn empty_tree_stream_is_empty() {
        let c = corpus(0, 4);
        let params = ScoreParams::new(c.space());
        let tree = RTree::bulk_load(c, RTreeParams::default());
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::from_raw([1]), 1);
        assert_eq!(IncrementalSearch::new(&tree, params, q).count(), 0);
    }

    #[test]
    fn yielded_counts_progress() {
        let c = corpus(50, 5);
        let params = ScoreParams::new(c.space());
        let tree = RTree::bulk_load(c, RTreeParams::new(8, 3));
        let q = Query::new(Point::new(0.1, 0.1), KeywordSet::from_raw([1]), 1);
        let mut s = IncrementalSearch::new(&tree, params, q);
        assert_eq!(s.yielded(), 0);
        s.next();
        s.next();
        assert_eq!(s.yielded(), 2);
    }
}
