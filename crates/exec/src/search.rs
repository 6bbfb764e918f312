//! Scatter-gather top-k with cross-shard pruning.
//!
//! `scatter_topk_bounded` fans a query out to every shard tree, each
//! searched by the one best-first loop, [`yask_query::topk_tree_bounded`],
//! under one [`SharedBound`]. The bound carries certificates published by
//! *other* shards' searches, so a shard whose best upper bound already
//! trails the global k-th best score returns after touching only its
//! root. A deadline that passes mid-search saturates the bound, so the
//! sibling shards drain through the same prunes.
//!
//! Exactness: the bound only ever prunes entries scoring *strictly* below
//! k known real object scores, so nothing the prune discards can belong
//! to the global top-k under the workspace total order (score descending,
//! id ascending) — equal-scored candidates are kept and [`merge_topk`]
//! breaks their ties by id, exactly as a single tree would.

use std::sync::Arc;
use std::time::{Duration, Instant};

use yask_index::RTree;
use yask_query::{
    topk_tree_bounded, Query, RankedObject, ScoreParams, SharedBound, TraversalStats,
};

use crate::deadline::Deadline;
use crate::pool::WorkerPool;

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
            let (result, stats, complete) =
                topk_tree_bounded(&tree, &params, &q, std::convert::identity, &bound, || {
                    deadline.is_some_and(|d| d.expired())
                });
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
    use yask_index::{Corpus, CorpusBuilder, ObjectId, RTreeParams};
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

    /// One shard's search under `bound`, run to completion.
    fn search(
        tree: &RTree,
        params: &ScoreParams,
        q: &Query,
        bound: &SharedBound,
    ) -> (Vec<RankedObject>, TraversalStats) {
        let (out, stats, _) =
            topk_tree_bounded(tree, params, q, std::convert::identity, bound, || false);
        (out, stats)
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
                    all.extend(search(tree, &params, &q, &bound).0);
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
                with_bound += search(tree, &params, &q, &bound).1.nodes_expanded;
            }
            for tree in sharded.shards() {
                let idle = SharedBound::new();
                without += search(tree, &params, &q, &idle).1.nodes_expanded;
            }
        }
        assert!(
            with_bound < without,
            "shared bound never pruned: {with_bound} vs {without}"
        );
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
