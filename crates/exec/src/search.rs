//! The served top-k: the posting-list half on the calling thread, the
//! k-NN half scattered to the shards, and the gather's merge.
//!
//! The executor runs the keyword half of [`yask_query::topk`]'s exact
//! hybrid once, over the corpus version the shard trees index
//! ([`yask_query::topk_postings`]). `hybrid_topk` seeds one
//! [`yask_query::SharedBound`] with its k-th score and fans the k-NN
//! half out to every shard tree on the pool: each shard runs the one
//! best-first loop ([`yask_query::knn_bounded`]) under that bound, so a
//! shard whose nearest node already trails the posting list's k-th score
//! returns after touching only its root, and late shards prune against
//! early shards' results. A deadline that passes mid-search saturates
//! the bound, so the sibling shards drain through the same prunes.
//!
//! Exactness: the bound only ever prunes entries scoring *strictly*
//! below k known real object scores, so nothing the prune discards can
//! belong to the top-k under the workspace total order (score
//! descending, id ascending); [`yask_query::merge_hybrid`] merges the
//! halves by id and breaks ties by id, exactly as the single-tree hybrid
//! does.

use std::sync::Arc;
use std::time::{Duration, Instant};

use yask_index::{Corpus, RTree};
use yask_query::{
    knn_bounded, merge_hybrid, merge_topk, postings_bound, Query, RankedObject, ScoreParams,
    TraversalStats,
};

use crate::deadline::Deadline;
use crate::pool::WorkerPool;

/// The one served top-k at every shard count: given (i)'s list `found`
/// (the best `query.k` objects on the query keywords' posting lists),
/// fan the k-NN half out to every shard tree on the pool under the bound
/// `found` seeds, gather the per-shard lists and merge them with `found`.
/// `observe` fires once per gathered shard with its index, traversal
/// counters and wall-clock, which the executor records. Returns `None`
/// when any shard's result went missing (a worker died mid-query) —
/// callers fall back to an exact scan.
///
/// Under a deadline (`Some`), the second return is `true` only when
/// every shard ran its search to completion. A `false` means at least
/// one shard hit the deadline, and the answer is then a best-effort
/// partial: the objects the k-NN searches reached, ranked under their
/// true scores, with `found` left out — so when no shard got anywhere,
/// the partial is empty and the server answers 504.
#[allow(clippy::too_many_arguments)]
pub(crate) fn hybrid_topk(
    shards: &[Arc<RTree>],
    corpus: &Corpus,
    pool: &WorkerPool,
    params: ScoreParams,
    query: &Query,
    found: Vec<RankedObject>,
    deadline: Option<Deadline>,
    mut observe: impl FnMut(usize, &TraversalStats, Duration),
    on_gather: impl FnOnce(Duration),
) -> Option<(Vec<RankedObject>, bool)> {
    let bound = Arc::new(postings_bound(&found, query.k));
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
            let (result, stats, complete) = knn_bounded(&tree, &params, &q, &bound, || {
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
    let merged = (gathered == expected).then(|| {
        if complete {
            merge_hybrid(found, candidates, query.k)
        } else {
            for r in &mut candidates {
                r.score = params.score(corpus.get(r.id), query);
            }
            merge_topk(candidates, query.k)
        }
    });
    on_gather(t_gather.elapsed());
    merged.map(|m| (m, complete))
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::{Point, Space};
    use yask_index::{CorpusBuilder, RTreeParams};
    use yask_query::{topk_postings, topk_scan, SharedBound, Weights};
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

    /// One shard's k-NN under `bound`, run to completion.
    fn knn(tree: &RTree, params: &ScoreParams, q: &Query, bound: &SharedBound) -> (Vec<RankedObject>, TraversalStats) {
        let (out, stats, _) = knn_bounded(tree, params, q, bound, || false);
        (out, stats)
    }

    #[test]
    fn sharded_hybrid_equals_the_scan() {
        let corpus = random_corpus(600, 32);
        let params = ScoreParams::new(corpus.space());
        for shards in [2, 3, 5, 8] {
            let sharded = ShardedIndex::build(corpus.clone(), shards, RTreeParams::default());
            let mut rng = Xoshiro256::seed_from_u64(2);
            for case in 0..25 {
                let q = random_query(&mut rng);
                let (found, _) = topk_postings(&corpus, &params, &q);
                let bound = postings_bound(&found, q.k);
                let mut all = Vec::new();
                for tree in sharded.shards() {
                    all.extend(knn(tree, &params, &q, &bound).0);
                }
                let got = merge_hybrid(found, all, q.k);
                assert_eq!(got, topk_scan(&corpus, &params, &q), "shards = {shards}, case = {case}, q = {q:?}");
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
                with_bound += knn(tree, &params, &q, &bound).1.nodes_expanded;
            }
            for tree in sharded.shards() {
                without += knn(tree, &params, &q, &SharedBound::new()).1.nodes_expanded;
            }
        }
        assert!(
            with_bound < without,
            "shared bound never pruned: {with_bound} vs {without}"
        );
    }
}
