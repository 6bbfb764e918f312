//! Rank evaluation over the KcR-tree.
//!
//! For a candidate keyword set `doc′` and a missing object `m` with score
//! `s_m = ST(m, q′)`, the rank of `m` is `1 +` the number of objects
//! outranking it. The KcR-tree turns that count into a tree descent
//! (reference \[6\]):
//!
//! * a node whose score *lower* bound exceeds `s_m` contributes its whole
//!   `cnt` — every object below it outranks `m` (strictly, so tie-breaking
//!   cannot matter);
//! * a node whose score *upper* bound is below `s_m` contributes nothing;
//! * otherwise the node is *uncertain*. The keyword-count map refines the
//!   uncertain case: objects containing **no** candidate keyword score at
//!   most `ws·(1 − SDist_min)`; when even that is below `s_m`, at most
//!   [`yask_index::KcAug::matched_upper`] objects of the node can outrank
//!   `m`. Uncertain nodes are resolved by descending — to exact
//!   object-level comparisons in [`RankEvaluator::outrank_exact`], or cut
//!   off at a depth limit in [`RankEvaluator::outrank_bounds`], which
//!   returns an interval used for pruning candidates cheaply.

use yask_index::{NodeKind, ObjectId, RTree};
use yask_query::{Query, ScoreParams};
use yask_text::KeywordSet;

/// Work counters for the pruning-effectiveness experiment (E8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoundStats {
    /// Nodes whose bounds resolved them without descent.
    pub nodes_resolved: usize,
    /// Nodes descended into.
    pub nodes_descended: usize,
    /// Objects compared exactly at leaves.
    pub objects_scored: usize,
}

/// An admission gate consulted while an exact outrank descent counts
/// outranking objects.
///
/// The single-tree path uses [`NoGate`]; the sharded path (in
/// `yask_exec`) hands every shard's descent the same shared accumulator,
/// so the *cross-shard* running total — not just the local one — decides
/// when the candidate is already hopeless and late shards stop counting.
pub trait OutrankGate {
    /// Accounts `n` newly found outranking objects. Returns `false` when
    /// the accumulated total is already hopeless: the descent aborts and
    /// the candidate is pruned without finishing the count.
    fn add(&self, n: usize) -> bool;
}

/// The gate that never aborts: plain exact evaluation.
pub struct NoGate;

impl OutrankGate for NoGate {
    #[inline]
    fn add(&self, _n: usize) -> bool {
        true
    }
}

/// Shared state for rank computations against one KcR-tree.
pub struct RankEvaluator<'a> {
    /// The tree to count ranks in (the global tree, or one shard's).
    pub tree: &'a RTree,
    /// The engine's scoring configuration.
    pub params: &'a ScoreParams,
}

enum NodeVerdict {
    AllOutrank,
    NoneOutrank,
    Uncertain,
}

impl<'a> RankEvaluator<'a> {
    fn classify(
        &self,
        node: &yask_index::Node,
        q: &Query,
        doc: &KeywordSet,
        s_m: f64,
    ) -> NodeVerdict {
        let lb = self.params.node_lower_with_doc(&node.mbr, node.aug(), q, doc);
        if lb > s_m {
            return NodeVerdict::AllOutrank;
        }
        let ub = self.params.node_upper_with_doc(&node.mbr, node.aug(), q, doc);
        if ub < s_m {
            return NodeVerdict::NoneOutrank;
        }
        NodeVerdict::Uncertain
    }

    /// The maximum number of objects below an uncertain node that could
    /// possibly outrank `s_m`, refined with the keyword-count map.
    fn uncertain_upper(
        &self,
        node: &yask_index::Node,
        q: &Query,
        doc: &KeywordSet,
        s_m: f64,
    ) -> usize {
        let aug = node.aug();
        // Best possible score of an object with zero textual similarity.
        let no_kw_best =
            q.weights.ws() * (1.0 - self.params.space.sdist_min(&q.loc, &node.mbr));
        if no_kw_best < s_m {
            aug.matched_upper(doc) as usize
        } else {
            aug.cnt() as usize
        }
    }

    /// Exact outrank count for missing object `m` with score `s_m` under
    /// candidate keywords `doc` (the query contributes location, weights
    /// and tie-break identity; its own doc is ignored).
    pub fn outrank_exact(
        &self,
        q: &Query,
        doc: &KeywordSet,
        m: ObjectId,
        s_m: f64,
        stats: &mut BoundStats,
    ) -> usize {
        self.outrank_exact_gated(q, doc, m, s_m, &NoGate, stats)
            .expect("NoGate never aborts")
    }

    /// [`RankEvaluator::outrank_exact`] consulting an [`OutrankGate`]
    /// after every counted increment. Returns `None` when the gate
    /// aborted the descent (the candidate is hopeless); the partial count
    /// accumulated so far lives in the gate, not the return value.
    pub fn outrank_exact_gated(
        &self,
        q: &Query,
        doc: &KeywordSet,
        m: ObjectId,
        s_m: f64,
        gate: &impl OutrankGate,
        stats: &mut BoundStats,
    ) -> Option<usize> {
        let Some(root) = self.tree.root() else {
            return Some(0);
        };
        let _guard = self.tree.read_guard();
        let mut count = 0usize;
        let mut stack = vec![root];
        while let Some(nid) = stack.pop() {
            let node = self.tree.node(nid);
            match self.classify(node, q, doc, s_m) {
                NodeVerdict::AllOutrank => {
                    stats.nodes_resolved += 1;
                    count += node.aug().cnt() as usize;
                    if !gate.add(node.aug().cnt() as usize) {
                        return None;
                    }
                }
                NodeVerdict::NoneOutrank => {
                    stats.nodes_resolved += 1;
                }
                NodeVerdict::Uncertain => {
                    stats.nodes_descended += 1;
                    match &node.kind {
                        NodeKind::Leaf(entries) => {
                            let mut found = 0usize;
                            for &id in entries {
                                if id == m {
                                    continue;
                                }
                                stats.objects_scored += 1;
                                let s = self
                                    .params
                                    .score_with_doc(self.tree.corpus().get(id), q, doc);
                                if ScoreParams::ranks_before(s, id, s_m, m) {
                                    found += 1;
                                }
                            }
                            count += found;
                            if !gate.add(found) {
                                return None;
                            }
                        }
                        NodeKind::Internal(children) => stack.extend_from_slice(children),
                    }
                }
            }
        }
        Some(count)
    }

    /// Depth-limited `(lower, upper)` bounds on the outrank count; cheap
    /// (touches at most the top `max_depth` levels) and sound — used to
    /// prune candidates whose penalty lower bound is already hopeless.
    pub fn outrank_bounds(
        &self,
        q: &Query,
        doc: &KeywordSet,
        m: ObjectId,
        s_m: f64,
        max_depth: usize,
        stats: &mut BoundStats,
    ) -> (usize, usize) {
        let Some(root) = self.tree.root() else {
            return (0, 0);
        };
        let _guard = self.tree.read_guard();
        let mut lb = 0usize;
        let mut ub = 0usize;
        let mut stack = vec![(root, 0usize)];
        while let Some((nid, depth)) = stack.pop() {
            let node = self.tree.node(nid);
            match self.classify(node, q, doc, s_m) {
                NodeVerdict::AllOutrank => {
                    stats.nodes_resolved += 1;
                    lb += node.aug().cnt() as usize;
                    ub += node.aug().cnt() as usize;
                }
                NodeVerdict::NoneOutrank => {
                    stats.nodes_resolved += 1;
                }
                NodeVerdict::Uncertain => match &node.kind {
                    NodeKind::Leaf(entries) => {
                        stats.nodes_descended += 1;
                        for &id in entries {
                            if id == m {
                                continue;
                            }
                            stats.objects_scored += 1;
                            let s =
                                self.params.score_with_doc(self.tree.corpus().get(id), q, doc);
                            if ScoreParams::ranks_before(s, id, s_m, m) {
                                lb += 1;
                                ub += 1;
                            }
                        }
                    }
                    NodeKind::Internal(children) => {
                        if depth + 1 < max_depth {
                            stats.nodes_descended += 1;
                            stack.extend(children.iter().map(|&c| (c, depth + 1)));
                        } else {
                            // Cut off: the node stays uncertain.
                            stats.nodes_resolved += 1;
                            ub += self.uncertain_upper(node, q, doc, s_m);
                        }
                    }
                },
            }
        }
        (lb, ub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::{Point, Space};
    use yask_index::{Corpus, CorpusBuilder, RTreeParams};
    use yask_util::Xoshiro256;

    fn random_corpus(n: usize, vocab: u32, seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            let doc = KeywordSet::from_raw(
                (0..1 + rng.below(5)).map(|_| rng.below(vocab as usize) as u32),
            );
            b.push(Point::new(rng.next_f64(), rng.next_f64()), doc, format!("o{i}"));
        }
        b.build()
    }

    /// The scan oracle for the outrank count.
    fn outrank_scan(
        corpus: &Corpus,
        params: &ScoreParams,
        q: &Query,
        doc: &KeywordSet,
        m: ObjectId,
    ) -> usize {
        let s_m = params.score_with_doc(corpus.get(m), q, doc);
        corpus
            .iter()
            .filter(|o| {
                o.id != m
                    && ScoreParams::ranks_before(
                        params.score_with_doc(o, q, doc),
                        o.id,
                        s_m,
                        m,
                    )
            })
            .count()
    }

    #[test]
    fn exact_count_matches_scan_oracle() {
        let corpus = random_corpus(300, 20, 31);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let ev = RankEvaluator {
            tree: &tree,
            params: &params,
        };
        let mut rng = Xoshiro256::seed_from_u64(32);
        for _ in 0..25 {
            let q = Query::new(
                Point::new(rng.next_f64(), rng.next_f64()),
                KeywordSet::from_raw((0..2).map(|_| rng.below(20) as u32)),
                3,
            );
            let doc =
                KeywordSet::from_raw((0..1 + rng.below(3)).map(|_| rng.below(20) as u32));
            let m = ObjectId(rng.below(300) as u32);
            let s_m = params.score_with_doc(corpus.get(m), &q, &doc);
            let mut stats = BoundStats::default();
            let got = ev.outrank_exact(&q, &doc, m, s_m, &mut stats);
            assert_eq!(got, outrank_scan(&corpus, &params, &q, &doc, m));
            // The tree must have skipped something on typical queries.
            assert!(stats.objects_scored <= 300);
        }
    }

    #[test]
    fn bounds_bracket_exact_at_every_depth() {
        let corpus = random_corpus(250, 15, 33);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let ev = RankEvaluator {
            tree: &tree,
            params: &params,
        };
        let q = Query::new(Point::new(0.4, 0.4), KeywordSet::from_raw([1, 2]), 3);
        let doc = KeywordSet::from_raw([1, 5]);
        for m_raw in [0u32, 50, 120, 249] {
            let m = ObjectId(m_raw);
            let s_m = params.score_with_doc(corpus.get(m), &q, &doc);
            let mut st = BoundStats::default();
            let exact = ev.outrank_exact(&q, &doc, m, s_m, &mut st);
            let mut prev_width = usize::MAX;
            for depth in 1..=5 {
                let mut st = BoundStats::default();
                let (lb, ub) = ev.outrank_bounds(&q, &doc, m, s_m, depth, &mut st);
                assert!(lb <= exact, "depth {depth}: lb {lb} > exact {exact}");
                assert!(ub >= exact, "depth {depth}: ub {ub} < exact {exact}");
                let width = ub - lb;
                assert!(width <= prev_width, "bounds must tighten with depth");
                prev_width = width;
            }
        }
    }

    #[test]
    fn deep_bounds_converge_to_exact() {
        let corpus = random_corpus(150, 10, 34);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
        let ev = RankEvaluator {
            tree: &tree,
            params: &params,
        };
        let q = Query::new(Point::new(0.2, 0.7), KeywordSet::from_raw([3]), 2);
        let doc = KeywordSet::from_raw([3, 7]);
        let m = ObjectId(42);
        let s_m = params.score_with_doc(corpus.get(m), &q, &doc);
        let mut st = BoundStats::default();
        let exact = ev.outrank_exact(&q, &doc, m, s_m, &mut st);
        let mut st2 = BoundStats::default();
        let (lb, ub) = ev.outrank_bounds(&q, &doc, m, s_m, 64, &mut st2);
        assert_eq!(lb, exact);
        assert_eq!(ub, exact);
    }

    #[test]
    fn empty_tree_counts_zero() {
        let corpus = CorpusBuilder::new().build();
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus, RTreeParams::default());
        let ev = RankEvaluator {
            tree: &tree,
            params: &params,
        };
        let q = Query::new(Point::new(0.0, 0.0), KeywordSet::from_raw([1]), 1);
        let mut st = BoundStats::default();
        assert_eq!(
            ev.outrank_exact(&q, &KeywordSet::from_raw([1]), ObjectId(0), 0.5, &mut st),
            0
        );
    }
}
