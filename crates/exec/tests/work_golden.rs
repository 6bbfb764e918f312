//! Golden work counts of the top-k: for one fixed seeded corpus and 64
//! fixed queries, the summed [`TraversalStats`] of the served hybrid
//! (posting objects scored, then the keyword-free k-NN's nodes, objects
//! and heap pushes), of the paper's search under the IR-tree bound view
//! of the KcR-tree side table, and of a two-shard hybrid — the posting
//! pass once, the k-NN per shard run sequentially under the bound it
//! seeds — must equal the numbers below. They were re-dumped when the
//! served search became the hybrid: "objects scored" now counts the
//! posting objects plus the k-NN's leaves, "nodes expanded" the k-NN's
//! descent. A change to what the loop prunes, expands or pushes moves
//! these; a refactor of the loop must not.

use yask_exec::ShardedIndex;
use yask_geo::{Point, Space};
use yask_index::{Corpus, CorpusBuilder, KcAug, RTree, RTreeParams, TextStats};
use yask_query::{
    knn_bounded, postings_bound, topk_postings, topk_tree_with_stats, topk_tree_with_view, Query,
    RankedObject, ScoreParams, SharedBound, TraversalStats, Weights,
};
use yask_text::KeywordSet;
use yask_util::Xoshiro256;

const QUERIES: usize = 64;

/// The shard k-NN with a shared bound and an already-expired (or never
/// expiring) budget.
fn search(
    tree: &RTree,
    params: &ScoreParams,
    q: &Query,
    shared: &SharedBound,
    expired: bool,
) -> (Vec<RankedObject>, TraversalStats, bool) {
    knn_bounded(tree, params, q, shared, || expired)
}

fn corpus() -> Corpus {
    let mut rng = Xoshiro256::seed_from_u64(32);
    let mut b = CorpusBuilder::with_capacity(4_000).with_space(Space::unit());
    for i in 0..4_000 {
        let (x, y) = (rng.next_f64(), rng.next_f64());
        // Every object names its cell in a 2×2, a 4×4 and an 8×8 grid
        // (keywords 0..84), so STR nodes share keywords and the
        // intersection half of the bound, which the IR-tree view drops,
        // has something to tighten; up to three more come from 84..144.
        let cells = [2u32, 4, 8].map(|g| (x * g as f64) as u32 * g + (y * g as f64) as u32);
        let grid = [cells[0], 4 + cells[1], 20 + cells[2]];
        let rest = (0..rng.below(4)).map(|_| 84 + rng.below(60) as u32);
        let doc = KeywordSet::from_raw(grid.into_iter().chain(rest));
        b.push(Point::new(x, y), doc, format!("o{i}"));
    }
    b.build()
}

fn queries() -> Vec<Query> {
    let mut rng = Xoshiro256::seed_from_u64(64);
    (0..QUERIES)
        .map(|_| {
            Query::with_weights(
                Point::new(rng.next_f64(), rng.next_f64()),
                KeywordSet::from_raw((0..1 + rng.below(4)).map(|_| rng.below(144) as u32)),
                1 + rng.below(20),
                Weights::from_ws(rng.range_f64(0.05, 0.95)),
            )
        })
        .collect()
}

fn absorb(total: &mut TraversalStats, s: TraversalStats) {
    total.nodes_expanded += s.nodes_expanded;
    total.objects_scored += s.objects_scored;
    total.heap_pushes += s.heap_pushes;
    total.postings_scored += s.postings_scored;
}

fn stats(
    nodes_expanded: usize,
    objects_scored: usize,
    heap_pushes: usize,
    postings_scored: usize,
) -> TraversalStats {
    TraversalStats {
        nodes_expanded,
        objects_scored,
        heap_pushes,
        postings_scored,
    }
}

#[test]
fn single_tree_work_matches_the_golden_counts() {
    let corpus = corpus();
    let params = ScoreParams::new(corpus.space());
    let tree = RTree::bulk_load(corpus, RTreeParams::new(16, 6));
    let table = KcAug::side_table(&tree);
    let mut served = TraversalStats::default();
    let mut ir = TraversalStats::default();
    for q in queries() {
        absorb(&mut served, topk_tree_with_stats(&tree, &params, &q).1);
        absorb(
            &mut ir,
            topk_tree_with_view(&tree, &params, &q, &table, TextStats::without_intersection).1,
        );
    }
    assert_eq!(served, stats(340, 22_615, 3_493, 19_735));
    assert_eq!(ir, stats(3_640, 46_796, 7_666, 0));
}

#[test]
fn sequential_two_shard_work_matches_the_golden_counts() {
    let corpus = corpus();
    let params = ScoreParams::new(corpus.space());
    let sharded = ShardedIndex::build(corpus.clone(), 2, RTreeParams::new(16, 6));
    let mut total = TraversalStats::default();
    for q in queries() {
        let (found, scored) = topk_postings(&corpus, &params, &q);
        total.postings_scored += scored;
        total.objects_scored += scored;
        let shared = postings_bound(&found, q.k);
        for tree in sharded.shards() {
            let (_, s, complete) = search(tree, &params, &q, &shared, false);
            assert!(complete);
            absorb(&mut total, s);
        }
    }
    assert_eq!(total, stats(202, 21_371, 1_238, 19_735));
}

#[test]
fn expired_search_returns_nothing_and_saturates_the_bound() {
    let corpus = corpus();
    let params = ScoreParams::new(corpus.space());
    let tree = RTree::bulk_load(corpus, RTreeParams::new(16, 6));
    let shared = SharedBound::new();
    let (out, s, complete) = search(&tree, &params, &queries()[0], &shared, true);
    assert!(!complete);
    assert!(out.is_empty());
    assert_eq!(s, TraversalStats::default());
    assert_eq!(shared.get(), f64::INFINITY);
}
