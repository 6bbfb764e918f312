//! The served top-k — posting-list scores plus a keyword-free k-NN,
//! merged — against the exact scan, in ids and score bits. Corpora are
//! drawn on a coarse grid from a small vocabulary, so locations,
//! documents and scores tie; queries may have no keywords, `k` above the
//! live count, and `ws` at 0 or 1; some objects are tombstoned before the
//! build and more by a write batch after it. Every case runs on one tree
//! (`topk_tree`) and on executors with K ∈ {1, 2, 3} shards, resident
//! and paged through a one-byte budget.

use proptest::prelude::*;
use yask_exec::{ExecConfig, Executor};
use yask_geo::{Point, Space};
use yask_index::{Corpus, CorpusBuilder, ObjectId, RTree, RTreeParams};
use yask_query::{topk_scan, topk_tree, Query, RankedObject, ScoreParams, Weights};
use yask_text::KeywordSet;
use yask_util::Xoshiro256;

const VOCAB: usize = 6;

fn corpus(rng: &mut Xoshiro256, n: usize) -> Corpus {
    let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
    for i in 0..n {
        // A 5×5 grid and docs of 0–2 keywords out of 6: plenty of ties.
        let loc = Point::new(rng.below(5) as f64 / 4.0, rng.below(5) as f64 / 4.0);
        let doc = KeywordSet::from_raw((0..rng.below(3)).map(|_| rng.below(VOCAB) as u32));
        b.push(loc, doc, format!("o{i}"));
    }
    for _ in 0..n / 5 {
        b.kill(ObjectId(rng.below(n) as u32));
    }
    b.build()
}

fn query(rng: &mut Xoshiro256, live: usize) -> Query {
    let loc = Point::new(rng.below(9) as f64 / 8.0, rng.below(9) as f64 / 8.0);
    // Keywords 0..8: ids 6 and 7 are carried by no object.
    let doc = KeywordSet::from_raw((0..rng.below(4)).map(|_| rng.below(VOCAB + 2) as u32));
    let ws = [0.0, 1.0, 0.5, rng.range_f64(0.0, 1.0)][rng.below(4)];
    Query::with_weights(loc, doc, 1 + rng.below(live + 4), Weights::from_ws(ws))
}

fn bits(results: &[RankedObject]) -> Vec<(ObjectId, u64)> {
    results.iter().map(|r| (r.id, r.score.to_bits())).collect()
}

fn executors(corpus: &Corpus) -> Vec<(String, Executor)> {
    let mut out = Vec::new();
    for shards in [1, 2, 3] {
        for budget in [None, Some(1)] {
            let config = ExecConfig {
                shards,
                topk_cache: 0,
                resident_budget: budget,
                rebalance_skew: f64::INFINITY,
                ..ExecConfig::default()
            };
            out.push((
                format!("K={shards} budget={budget:?}"),
                Executor::new(corpus.clone(), config),
            ));
        }
    }
    out
}

fn check(corpus: &Corpus, execs: &[(String, Executor)], rng: &mut Xoshiro256) {
    let params = ScoreParams::new(corpus.space());
    let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
    for _ in 0..12 {
        let q = query(rng, corpus.len());
        let want = bits(&topk_scan(corpus, &params, &q));
        prop_assert_eq!(
            &bits(&topk_tree(&tree, &params, &q)),
            &want,
            "one tree, q = {:?}",
            q
        );
        for (name, exec) in execs {
            prop_assert_eq!(&bits(&exec.top_k(&q)), &want, "{}, q = {:?}", name, q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn the_hybrid_equals_the_scan_in_ids_and_score_bits(seed in 0u64..1_000_000, n in 1usize..90) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let v0 = corpus(&mut rng, n);
        let execs = executors(&v0);
        check(&v0, &execs, &mut rng);

        // A write batch: tombstones on the existing posting lists and
        // appended tails, published to every executor.
        let live = v0.live_ids();
        let deletes: Vec<ObjectId> = live.iter().copied().filter(|_| rng.chance(0.3)).collect();
        let inserts: Vec<(Point, KeywordSet, String)> = (0..rng.below(6))
            .map(|i| {
                let loc = Point::new(rng.below(5) as f64 / 4.0, rng.below(5) as f64 / 4.0);
                let doc = KeywordSet::from_raw((0..rng.below(3)).map(|_| rng.below(VOCAB) as u32));
                (loc, doc, format!("new{i}"))
            })
            .collect();
        let (v1, new_ids) = v0.with_updates(inserts, &deletes);
        for (_, exec) in &execs {
            exec.apply_batch(v1.clone(), &new_ids, &deletes);
        }
        if !v1.is_empty() {
            check(&v1, &execs, &mut rng);
        }
    }
}
