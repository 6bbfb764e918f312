//! Property tests: the sharded scatter-gather executor is *exactly* the
//! single-tree engine.
//!
//! For randomized corpora and queries, and every shard count K ∈
//! {1, 2, 3, 5, 8}, the executor's top-k must equal `topk_tree` on one
//! KcR-tree over the whole corpus: same ids, same score order, ties
//! broken identically (score descending, id ascending). The cache must
//! be transparent, and the shard partition must disjointly cover the
//! corpus.

use proptest::prelude::*;

use yask_core::YaskConfig;
use yask_exec::{ExecConfig, Executor, ShardedIndex};
use yask_geo::{Point, Space};
use yask_index::{Corpus, CorpusBuilder, ObjectId, RTree, RTreeParams};
use yask_query::{topk_scan, topk_tree, Query, ScoreParams, Weights};
use yask_text::KeywordSet;

const SHARD_COUNTS: [usize; 5] = [1, 2, 3, 5, 8];

#[derive(Debug, Clone)]
struct ArbCorpus {
    corpus: Corpus,
}

fn corpus(min: usize, max: usize) -> impl Strategy<Value = ArbCorpus> {
    proptest::collection::vec(
        (
            0.0f64..1.0,
            0.0f64..1.0,
            proptest::collection::vec(0u32..15, 1..=5),
        ),
        min..=max,
    )
    .prop_map(|objs| {
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        for (i, (x, y, kws)) in objs.into_iter().enumerate() {
            b.push(Point::new(x, y), KeywordSet::from_raw(kws), format!("o{i}"));
        }
        ArbCorpus { corpus: b.build() }
    })
}

fn query() -> impl Strategy<Value = Query> {
    (
        0.0f64..1.0,
        0.0f64..1.0,
        proptest::collection::vec(0u32..15, 1..=4),
        1usize..=10,
        0.05f64..0.95,
    )
        .prop_map(|(x, y, kws, k, ws)| {
            Query::with_weights(
                Point::new(x, y),
                KeywordSet::from_raw(kws),
                k,
                Weights::from_ws(ws),
            )
        })
}

fn ids(result: &[yask_query::RankedObject]) -> Vec<ObjectId> {
    result.iter().map(|r| r.id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole equivalence: executor top-k == single-tree top-k for
    /// every shard count, on ids, order, and scores.
    #[test]
    fn sharded_topk_equals_single_tree(c in corpus(10, 120), q in query()) {
        let tree = RTree::bulk_load(c.corpus.clone(), RTreeParams::default());
        let params = ScoreParams::new(c.corpus.space());
        let want = topk_tree(&tree, &params, &q);
        for shards in SHARD_COUNTS {
            let exec = Executor::new(
                c.corpus.clone(),
                ExecConfig {
                    shards,
                    workers: shards.min(4),
                    yask: YaskConfig::default(),
                    ..ExecConfig::default()
                },
            );
            let got = exec.top_k(&q);
            prop_assert_eq!(ids(&got), ids(&want), "shards = {}", shards);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g.score - w.score).abs() < 1e-12, "score drift at shards = {}", shards);
            }
        }
    }

    /// The viewport query has no scatter of its own (per-shard tree
    /// searches merged on the caller): it must equal `yask_core::Yask`
    /// over the same corpus for every shard count.
    #[test]
    fn viewport_equals_the_engine(
        c in corpus(10, 120),
        q in query(),
        (x0, y0, w, h) in (0.0f64..0.8, 0.0f64..0.8, 0.05f64..0.6, 0.05f64..0.6),
    ) {
        let engine = yask_core::Yask::with_defaults(c.corpus.clone());
        let rect = yask_geo::Rect::new(Point::new(x0, y0), Point::new(x0 + w, y0 + h));
        for shards in SHARD_COUNTS {
            let exec = Executor::new(
                c.corpus.clone(),
                ExecConfig { shards, workers: shards.min(4), ..ExecConfig::default() },
            );
            for mode in [yask_query::MatchMode::Any, yask_query::MatchMode::All] {
                let mut want = engine.viewport(&rect, &q.doc, mode);
                want.sort_unstable();
                prop_assert_eq!(
                    exec.viewport(&rect, &q.doc, mode), want,
                    "shards = {}, mode = {:?}", shards, mode
                );
            }
        }
    }

    /// Cache transparency: a repeated query returns the identical result
    /// and is served from the cache.
    #[test]
    fn cache_is_transparent(c in corpus(20, 80), q in query()) {
        let exec = Executor::new(
            c.corpus.clone(),
            ExecConfig { shards: 3, ..ExecConfig::default() },
        );
        let first = exec.top_k(&q);
        let second = exec.top_k(&q);
        prop_assert_eq!(&first, &second);
        let stats = exec.stats();
        prop_assert_eq!(stats.topk_cache.hits, 1);
        prop_assert_eq!(stats.queries, 1);
    }

    /// The STR partition is a disjoint cover for every shard count.
    #[test]
    fn partition_is_a_disjoint_cover(c in corpus(0, 100)) {
        for shards in SHARD_COUNTS {
            let sharded = ShardedIndex::build(c.corpus.clone(), shards, RTreeParams::default());
            prop_assert_eq!(sharded.shard_count(), shards);
            let mut seen: Vec<ObjectId> = sharded
                .shards()
                .iter()
                .flat_map(|t| t.object_ids())
                .collect();
            seen.sort_unstable();
            let want: Vec<ObjectId> = c.corpus.iter().map(|o| o.id).collect();
            prop_assert_eq!(seen, want, "shards = {}", shards);
            for tree in sharded.shards() {
                tree.validate().expect("shard invariants");
            }
        }
    }

    /// Why-not answers through the sharded executor equal a fresh
    /// single-tree engine's, and the answer cache serves repeats.
    #[test]
    fn cached_whynot_equals_engine(c in corpus(40, 100), q in query()) {
        let exec = Executor::new(
            c.corpus.clone(),
            ExecConfig { shards: 2, ..ExecConfig::default() },
        );
        let engine = yask_core::Yask::with_defaults(c.corpus.clone());
        // Pick the first object *below* the top-k as the missing one.
        let all = engine.top_k(&q.with_k(c.corpus.len()));
        prop_assume!(all.len() > q.k);
        let missing = vec![all[q.k].id];
        let via_exec = exec.answer_with_lambda(&q, &missing, 0.5);
        let via_engine = engine.answer_with_lambda(&q, &missing, 0.5);
        match (via_exec, via_engine) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.preference.penalty, b.preference.penalty);
                prop_assert_eq!(a.keyword.penalty, b.keyword.penalty);
                prop_assert_eq!(a.explanations.len(), b.explanations.len());
                // Repeat is a cache hit with the same payload: one hit per
                // module the answer is built from (explain, preference,
                // keywords).
                let again = exec.answer_with_lambda(&q, &missing, 0.5).unwrap();
                prop_assert_eq!(a.preference.penalty, again.preference.penalty);
                prop_assert_eq!(exec.stats().answer_cache.hits, 3);
            }
            (a, b) => prop_assert!(
                a.is_err() == b.is_err(),
                "executor and engine disagree on error"
            ),
        }
    }
}

/// Ties across shards: blocks of identical-doc objects at dyadic offsets
/// symmetric about the query point score bit-equal, the blocks land in
/// different shards, and `k` cuts inside the tied run. The merged answer
/// must still be the scan's: ties ranked id-ascending, none dropped by
/// the shared bound's "strictly below" prune.
#[test]
fn ties_across_shards_rank_by_id() {
    const TIED: usize = 24;
    let centre = Point::new(0.5, 0.5);
    let offsets = [(0.25, 0.5), (0.75, 0.5), (0.5, 0.25), (0.5, 0.75)];
    let mut rng = yask_util::Xoshiro256::seed_from_u64(41);
    let mut b = CorpusBuilder::new().with_space(Space::unit());
    let mut tied = Vec::new();
    for i in 0..300 {
        if i % 10 == 0 && tied.len() < TIED {
            // Interleaved ids: consecutive tied ids sit at different offsets.
            let (x, y) = offsets[tied.len() % offsets.len()];
            tied.push(ObjectId(b.len() as u32));
            b.push(
                Point::new(x, y),
                KeywordSet::from_raw([1, 2]),
                format!("t{i}"),
            );
        }
        let doc = KeywordSet::from_raw((0..1 + rng.below(3)).map(|_| rng.below(6) as u32));
        b.push(
            Point::new(rng.next_f64(), rng.next_f64()),
            doc,
            format!("o{i}"),
        );
    }
    let corpus = b.build();
    let params = ScoreParams::new(corpus.space());
    let base = Query::new(centre, KeywordSet::from_raw([1, 2, 3]), 1);

    // The tie exists: every tied object scores bit-equal.
    let full = topk_scan(&corpus, &params, &base.with_k(corpus.len()));
    let score_of = |id: ObjectId| full.iter().find(|r| r.id == id).unwrap().score;
    assert!(tied
        .iter()
        .all(|&id| score_of(id).to_bits() == score_of(tied[0]).to_bits()));
    // Cut inside the tied run.
    let first = full.iter().position(|r| tied.contains(&r.id)).unwrap();
    let q = base.with_k(first + TIED / 2);
    let want = topk_scan(&corpus, &params, &q);
    let kept = want.iter().filter(|r| tied.contains(&r.id)).count();
    assert!(0 < kept && kept < TIED, "cut misses the tied run: {kept}");

    for shards in [2, 3, 5] {
        let partition =
            ShardedIndex::build(corpus.clone(), shards, YaskConfig::default().tree_params);
        let mut spanned: Vec<usize> = tied.iter().map(|&id| partition.shard_of(id)).collect();
        spanned.sort_unstable();
        spanned.dedup();
        assert!(spanned.len() >= 2, "shards = {shards}: ties in one shard");

        let exec = Executor::new(
            corpus.clone(),
            ExecConfig {
                shards,
                workers: shards.min(4),
                ..ExecConfig::default()
            },
        );
        let got = exec.top_k(&q);
        assert_eq!(ids(&got), ids(&want), "shards = {shards}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.score.to_bits(), w.score.to_bits(), "shards = {shards}");
        }
    }
}
