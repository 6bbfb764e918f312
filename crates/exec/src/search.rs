//! Per-shard best-first top-k with cross-shard pruning.
//!
//! [`shard_topk`] is the scatter half of scatter-gather: the same
//! pop-and-unfold loop as [`yask_query::topk_tree_with_stats`], extended
//! with a [`SharedBound`] consulted at every node expansion and object
//! scoring. The bound carries certificates published by *other* shards'
//! searches, so a shard whose best upper bound already trails the global
//! k-th best score returns after touching only its root.
//!
//! Exactness: the bound only ever prunes entries scoring *strictly* below
//! k known real object scores, so nothing the prune discards can belong
//! to the global top-k under the workspace total order (score descending,
//! id ascending) — equal-scored candidates are kept and the gather merge
//! breaks their ties by id, exactly as a single tree would.

use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use yask_index::{NodeId, NodeKind, ObjectId, RTree};
use yask_query::{Query, RankedObject, ScoreParams, TraversalStats};
use yask_util::Scored;

use crate::bound::SharedBound;
use crate::deadline::{Deadline, DEADLINE_STRIDE};
use crate::pool::WorkerPool;

/// Heap entry: node (keyed by score upper bound) or object (exact score).
/// Derive order puts `Node < Object`, which [`Scored`]'s tie-break turns
/// into "node pops first on an equal key" — required because the node may
/// still hold an equal-scored object with a smaller id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Entry {
    Node(NodeId),
    Object(ObjectId),
}

/// Runs the shard-local best-first top-k, pruning against `shared` and
/// publishing this shard's own best-k certificates into it. Returns the
/// shard's top-k (best-first) and its traversal counters.
pub fn shard_topk(
    tree: &RTree,
    params: &ScoreParams,
    q: &Query,
    shared: &SharedBound,
) -> (Vec<RankedObject>, TraversalStats) {
    let (out, stats, _) = shard_topk_bounded(tree, params, q, shared, None);
    (out, stats)
}

/// [`shard_topk`] with an optional [`Deadline`]: the expansion loop
/// consults the deadline every [`DEADLINE_STRIDE`] node expansions and,
/// once it passes, *saturates* the shared bound (raises it to `+inf`)
/// so every sibling shard's search drains through the existing
/// bound-gating prunes instead of needing its own cancellation channel.
/// The third return is `true` when the search ran to completion; a
/// `false` result is a best-effort prefix of the shard's top-k and must
/// be flagged partial by the caller.
pub fn shard_topk_bounded(
    tree: &RTree,
    params: &ScoreParams,
    q: &Query,
    shared: &SharedBound,
    deadline: Option<Deadline>,
) -> (Vec<RankedObject>, TraversalStats, bool) {
    let mut stats = TraversalStats::default();
    let mut out = Vec::with_capacity(q.k.min(tree.len()));
    if deadline.is_some_and(|d| d.expired()) {
        shared.raise(f64::INFINITY);
        return (out, stats, false);
    }
    let Some(root) = tree.root() else {
        return (out, stats, true);
    };
    let mut heap: BinaryHeap<Scored<Entry>> = BinaryHeap::new();
    let mut seen: yask_util::TopK<ObjectId> = yask_util::TopK::new(q.k);
    let root_node = tree.node(root);
    let root_ub = params.node_upper(&root_node.mbr, root_node.aug(), q);
    if root_ub < shared.get() {
        return (out, stats, true);
    }
    heap.push(Scored::new(root_ub, Entry::Node(root)));
    stats.heap_pushes += 1;

    while let Some(top) = heap.pop() {
        if let Some(d) = deadline {
            if stats.nodes_expanded % DEADLINE_STRIDE == 0 && d.expired() {
                // Out of budget: flag the prefix partial and saturate
                // the shared bound so the sibling shards' searches
                // prune everything and drain fast.
                shared.raise(f64::INFINITY);
                return (out, stats, false);
            }
        }
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
                // Both bounds may have tightened while the entry was
                // queued; re-check before paying for the expansion.
                if seen.is_full() && top.score.get() < seen.threshold() {
                    continue;
                }
                if top.score.get() < shared.get() {
                    continue;
                }
                stats.nodes_expanded += 1;
                match &tree.node(n).kind {
                    NodeKind::Leaf(entries) => {
                        for &id in entries {
                            let s = params.score(tree.corpus().get(id), q);
                            stats.objects_scored += 1;
                            if s < shared.get() {
                                continue;
                            }
                            // Not retained locally ⇒ k better objects in
                            // this shard alone ⇒ out of the global top-k.
                            if seen.push(s, id) {
                                stats.heap_pushes += 1;
                                heap.push(Scored::new(s, Entry::Object(id)));
                                if seen.is_full() {
                                    shared.raise(seen.threshold());
                                }
                            }
                        }
                    }
                    NodeKind::Internal(children) => {
                        let global = shared.get();
                        for &c in children {
                            let child = tree.node(c);
                            let ub = params.node_upper(&child.mbr, child.aug(), q);
                            if (seen.is_full() && ub < seen.threshold()) || ub < global {
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
    (out, stats, true)
}

/// The one scatter-gather loop both top-k entry points share (the
/// user-facing `Executor` path and the why-not fan-out's internal
/// result-set computation): fan `query` out to every shard tree on the
/// pool, gather the per-shard lists, merge. `observe` fires once per
/// gathered shard with its index, traversal counters and wall-clock (the
/// executor records them; the why-not path passes a no-op). Returns
/// `None` when any shard's result went missing (a worker died
/// mid-query) — callers fall back to an exact scan.
///
/// Under a deadline (`Some`), the second return is `true` only when
/// every shard ran its search to completion: a `false` means at least
/// one shard hit the deadline and the merged list is a best-effort
/// partial answer.
pub(crate) fn scatter_topk_bounded(
    shards: &[Arc<RTree>],
    pool: &WorkerPool,
    params: ScoreParams,
    query: &Query,
    deadline: Option<Deadline>,
    mut observe: impl FnMut(usize, &TraversalStats, Duration),
    on_gather: impl FnOnce(Duration),
) -> Option<(Vec<RankedObject>, bool)> {
    let bound = Arc::new(SharedBound::new());
    let expected = shards.len();
    let (tx, rx) = crossbeam::channel::unbounded();
    for (i, tree) in shards.iter().enumerate() {
        let tree = Arc::clone(tree);
        let q = query.clone();
        let bound = Arc::clone(&bound);
        let tx = tx.clone();
        // Backpressure point: at queue capacity the shard search runs
        // inline on the scatter caller instead of deepening the queue.
        pool.submit_or_run(move || {
            // Chaos hook: `error` drops this shard's reply (the gather
            // comes up short and the caller falls back to the exact
            // scan), `delay` stalls the shard, `panic` kills the
            // worker job (the pool's catch_unwind absorbs it).
            if yask_util::failpoint::eval("exec.shard") == Some(yask_util::failpoint::Action::Error)
            {
                return;
            }
            let t0 = Instant::now();
            let (result, stats, complete) = shard_topk_bounded(&tree, &params, &q, &bound, deadline);
            let _ = tx.send((i, result, stats, t0.elapsed(), complete));
        });
    }
    drop(tx);

    let mut candidates = Vec::with_capacity(expected * query.k.min(64));
    let mut gathered = 0usize;
    let mut complete = true;
    while let Ok((i, result, stats, elapsed, shard_complete)) = rx.recv() {
        observe(i, &stats, elapsed);
        candidates.extend(result);
        gathered += 1;
        complete &= shard_complete;
    }
    // The gather proper: the merge once every shard reported (waiting on
    // the slowest shard is charged to the scatter, not here).
    let t_gather = Instant::now();
    let merged = (gathered == expected).then(|| merge_topk(candidates, query.k));
    on_gather(t_gather.elapsed());
    merged.map(|m| (m, complete))
}

/// Merges per-shard top-k lists into the exact global top-k: the workspace
/// total order (score descending, id ascending) over the union, truncated
/// to `k`. Shards are disjoint, so ids never collide.
pub fn merge_topk(mut candidates: Vec<RankedObject>, k: usize) -> Vec<RankedObject> {
    candidates.sort_unstable_by(|a, b| {
        yask_util::OrderedF64(b.score)
            .cmp(&yask_util::OrderedF64(a.score))
            .then_with(|| a.id.cmp(&b.id))
    });
    candidates.truncate(k);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::{Point, Space};
    use yask_index::{Corpus, CorpusBuilder, RTree, RTreeParams};
    use yask_query::{topk_tree, Weights};
    use yask_text::KeywordSet;
    use yask_util::Xoshiro256;

    use crate::shard::ShardedIndex;

    fn random_corpus(n: usize, seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            let doc = KeywordSet::from_raw((0..1 + rng.below(5)).map(|_| rng.below(20) as u32));
            b.push(Point::new(rng.next_f64(), rng.next_f64()), doc, format!("o{i}"));
        }
        b.build()
    }

    fn random_query(rng: &mut Xoshiro256) -> Query {
        Query::with_weights(
            Point::new(rng.next_f64(), rng.next_f64()),
            KeywordSet::from_raw((0..1 + rng.below(3)).map(|_| rng.below(20) as u32)),
            1 + rng.below(12),
            Weights::from_ws(rng.range_f64(0.05, 0.95)),
        )
    }

    #[test]
    fn single_shard_with_idle_bound_matches_topk_tree() {
        let corpus = random_corpus(400, 31);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::default());
        let mut rng = Xoshiro256::seed_from_u64(1);
        for _ in 0..25 {
            let q = random_query(&mut rng);
            let bound = SharedBound::new();
            let (got, _) = shard_topk(&tree, &params, &q, &bound);
            let want = topk_tree(&tree, &params, &q);
            assert_eq!(
                got.iter().map(|r| r.id).collect::<Vec<_>>(),
                want.iter().map(|r| r.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn sharded_merge_equals_single_tree() {
        let corpus = random_corpus(600, 32);
        let params = ScoreParams::new(corpus.space());
        let single = RTree::bulk_load(corpus.clone(), RTreeParams::default());
        for shards in [2, 3, 5, 8] {
            let sharded = ShardedIndex::build(corpus.clone(), shards, RTreeParams::default());
            let mut rng = Xoshiro256::seed_from_u64(2);
            for case in 0..25 {
                let q = random_query(&mut rng);
                let bound = SharedBound::new();
                let mut all = Vec::new();
                for tree in sharded.shards() {
                    all.extend(shard_topk(tree, &params, &q, &bound).0);
                }
                let got = merge_topk(all, q.k);
                let want = topk_tree(&single, &params, &q);
                assert_eq!(
                    got.iter().map(|r| r.id).collect::<Vec<_>>(),
                    want.iter().map(|r| r.id).collect::<Vec<_>>(),
                    "shards = {shards}, case = {case}, q = {q:?}"
                );
                for (g, w) in got.iter().zip(&want) {
                    assert!((g.score - w.score).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn shared_bound_prunes_late_shards() {
        // Run the shards sequentially: once early shards have published a
        // full-k certificate, later shards expand (usually far) fewer
        // nodes than they would alone.
        let corpus = random_corpus(3000, 33);
        let params = ScoreParams::new(corpus.space());
        let sharded = ShardedIndex::build(corpus.clone(), 8, RTreeParams::default());
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut with_bound = 0usize;
        let mut without = 0usize;
        for _ in 0..15 {
            let q = random_query(&mut rng);
            let bound = SharedBound::new();
            for tree in sharded.shards() {
                with_bound += shard_topk(tree, &params, &q, &bound).1.nodes_expanded;
            }
            for tree in sharded.shards() {
                let idle = SharedBound::new();
                without += shard_topk(tree, &params, &q, &idle).1.nodes_expanded;
            }
        }
        assert!(
            with_bound < without,
            "shared bound never pruned: {with_bound} vs {without}"
        );
    }

    #[test]
    fn saturated_bound_skips_everything() {
        let corpus = random_corpus(100, 34);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::default());
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::from_raw([1]), 5);
        let bound = SharedBound::new();
        bound.raise(2.0); // above any reachable ST score
        let (res, stats) = shard_topk(&tree, &params, &q, &bound);
        assert!(res.is_empty());
        assert_eq!(stats.nodes_expanded, 0);
    }

    #[test]
    fn merge_breaks_ties_by_id() {
        let c = vec![
            RankedObject { id: ObjectId(7), score: 0.5 },
            RankedObject { id: ObjectId(3), score: 0.5 },
            RankedObject { id: ObjectId(1), score: 0.2 },
        ];
        let m = merge_topk(c, 2);
        assert_eq!(m[0].id, ObjectId(3));
        assert_eq!(m[1].id, ObjectId(7));
    }
}
