//! Property tests: the executor's why-not answers are *exactly*
//! [`yask_core::Yask`], the paper's single-tree engine.
//!
//! The executor holds no global KcR-tree and its why-not path reads no
//! shard tree: each request builds one request table of the pinned
//! corpus version, and explanations (top-k and ranks), keyword
//! adaptation's candidate counts, preference adjustment and combined
//! refinement all read it. `Yask` explains by scanning the corpus. These
//! tests pin the claim:
//! for K ∈ {1, 2, 4, 8}, on random corpora — with and without tombstones,
//! before and after live write batches — every why-not answer equals a
//! fresh `Yask` over the same corpus version, down to penalties, refined
//! queries, ranks and rendered messages. The executor never constructs a
//! `Yask`, so the oracle is an independent implementation; the shard
//! count must not matter, and `K = 1` is in the sweep because a one-cell
//! partition runs the same code.

use proptest::prelude::*;

use yask_core::{Explanation, Yask, YaskConfig};
use yask_exec::{ExecConfig, Executor};
use yask_geo::{Point, Space};
use yask_index::{Corpus, CorpusBuilder, ObjectId, RTreeParams};
use yask_query::{topk_scan, Query, Weights};
use yask_text::KeywordSet;
use yask_util::Xoshiro256;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[derive(Debug, Clone)]
struct ArbCorpus {
    corpus: Corpus,
}

fn corpus(min: usize, max: usize) -> impl Strategy<Value = ArbCorpus> {
    proptest::collection::vec(
        (
            0.0f64..1.0,
            0.0f64..1.0,
            proptest::collection::vec(0u32..12, 1..=4),
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
        proptest::collection::vec(0u32..12, 1..=3),
        1usize..=6,
        0.1f64..0.9,
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

fn exec_with(corpus: &Corpus, shards: usize) -> Executor {
    exec_with_config(corpus, shards, YaskConfig::default())
}

fn exec_with_config(corpus: &Corpus, shards: usize, yask: YaskConfig) -> Executor {
    Executor::new(
        corpus.clone(),
        ExecConfig {
            shards,
            workers: shards.min(4),
            yask,
            ..ExecConfig::default()
        },
    )
}

/// The independent reference: the paper's engine, one KcR-tree over the
/// whole corpus version.
fn oracle(corpus: &Corpus) -> Yask {
    Yask::new(corpus.clone(), YaskConfig::default())
}

/// Picks a missing set strictly below the top-k of the initial query, or
/// `None` when the corpus ranking leaves nothing to miss.
fn pick_missing(oracle: &Yask, q: &Query, m: usize) -> Option<Vec<ObjectId>> {
    let corpus = oracle.corpus();
    let all = topk_scan(corpus, &oracle.score_params(), &q.with_k(corpus.len()));
    if all.len() < q.k + 1 + m {
        return None;
    }
    Some(all[q.k + 1..q.k + 1 + m].iter().map(|r| r.id).collect())
}

fn assert_explanations_equal(a: &[Explanation], b: &[Explanation], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: explanation count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.object, y.object, "{label}");
        assert_eq!(x.rank, y.rank, "{label}: rank of {:?}", x.object);
        assert_eq!(x.reason, y.reason, "{label}: reason of {:?}", x.object);
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "{label}: score bits");
        assert_eq!(
            x.kth_score.to_bits(),
            y.kth_score.to_bits(),
            "{label}: kth score bits"
        );
        assert_eq!(x.message, y.message, "{label}: rendered message");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tentpole equivalence, keyword adaptation: the executor's
    /// refinement over its request table equals the single-tree engine's
    /// — same refined doc, same k′, bit-identical penalty, same
    /// enumerated / pruned / exact-evaluated counts — for every shard
    /// count. Neither side counts ranks on a tree, so the fanout-4 trees
    /// only vary the shard layout the answer must not depend on.
    #[test]
    fn sharded_keyword_refinement_matches_single_tree(c in corpus(30, 90), q in query()) {
        let config = YaskConfig {
            tree_params: RTreeParams::new(4, 2),
            ..YaskConfig::default()
        };
        let single = Yask::new(c.corpus.clone(), config);
        let Some(missing) = pick_missing(&single, &q, 1) else { return; };
        let want = single.refine_keywords(&q, &missing, 0.5);
        for shards in SHARD_COUNTS {
            let exec = exec_with_config(&c.corpus, shards, config);
            let got = exec.refine_keywords(&q, &missing, 0.5);
            match (&got, &want) {
                (Ok(g), Ok(w)) => {
                    prop_assert_eq!(&g.query.doc, &w.query.doc, "doc at K={}", shards);
                    prop_assert_eq!(g.query.k, w.query.k, "k at K={}", shards);
                    prop_assert_eq!(g.penalty.to_bits(), w.penalty.to_bits(),
                        "penalty at K={}: {} vs {}", shards, g.penalty, w.penalty);
                    prop_assert_eq!(g.rank, w.rank, "rank at K={}", shards);
                    prop_assert_eq!(g.delta_doc, w.delta_doc, "delta_doc at K={}", shards);
                    prop_assert_eq!(g.delta_k, w.delta_k, "delta_k at K={}", shards);
                    // A candidate is pruned exactly when its exact penalty
                    // is at least the best so far, whichever trees count.
                    prop_assert_eq!(
                        (g.stats.enumerated, g.stats.bound_pruned, g.stats.exact_evaluated),
                        (w.stats.enumerated, w.stats.bound_pruned, w.stats.exact_evaluated),
                        "search counts at K={}", shards
                    );
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "error at K={}", shards),
                _ => prop_assert!(false, "K={}: one path errored: {:?} vs {:?}", shards, got, want),
            }
        }
    }

    /// Tentpole equivalence, preference adjustment: the executor's sweep
    /// over its request table equals the single-tree engine's.
    #[test]
    fn sharded_pref_refinement_matches_single_tree(c in corpus(30, 90), q in query()) {
        let single = oracle(&c.corpus);
        let Some(missing) = pick_missing(&single, &q, 2) else { return; };
        let want = single.refine_preference(&q, &missing, 0.5);
        for shards in SHARD_COUNTS {
            let exec = exec_with(&c.corpus, shards);
            let got = exec.refine_preference(&q, &missing, 0.5);
            match (&got, &want) {
                (Ok(g), Ok(w)) => {
                    prop_assert_eq!(g.query.weights, w.query.weights, "weights at K={}", shards);
                    prop_assert_eq!(g.query.k, w.query.k, "k at K={}", shards);
                    prop_assert_eq!(g.penalty.to_bits(), w.penalty.to_bits(),
                        "penalty at K={}: {} vs {}", shards, g.penalty, w.penalty);
                    prop_assert_eq!(g.rank, w.rank, "rank at K={}", shards);
                    prop_assert_eq!(g.delta_w.to_bits(), w.delta_w.to_bits(), "Δw at K={}", shards);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "error at K={}", shards),
                _ => prop_assert!(false, "K={}: one path errored: {:?} vs {:?}", shards, got, want),
            }
        }
    }

    /// Tentpole equivalence, explanations: the top-k and exact ranks
    /// read off the request table yield the same ranks, classifications
    /// and rendered messages as the scan path.
    #[test]
    fn sharded_explain_matches_single_tree(c in corpus(30, 90), q in query()) {
        let single = oracle(&c.corpus);
        let Some(missing) = pick_missing(&single, &q, 2) else { return; };
        let want = single.explain(&q, &missing).expect("valid request");
        for shards in SHARD_COUNTS {
            let exec = exec_with(&c.corpus, shards);
            let got = exec.explain(&q, &missing).expect("valid request");
            assert_explanations_equal(&got, &want, &format!("K={shards}"));
        }
    }

    /// The composed endpoints (combined refinement, full answer) ride on
    /// the same three modules; one equivalence pass over them guards the
    /// chaining and recommendation glue.
    #[test]
    fn sharded_combined_and_answer_match(c in corpus(30, 70), q in query()) {
        let single = oracle(&c.corpus);
        let Some(missing) = pick_missing(&single, &q, 1) else { return; };
        let combined_want = single.refine_combined(&q, &missing, 0.5);
        let answer_want = single.answer_with_lambda(&q, &missing, 0.5);
        for shards in SHARD_COUNTS {
            let exec = exec_with(&c.corpus, shards);
            match (exec.refine_combined(&q, &missing, 0.5), &combined_want) {
                (Ok(g), Ok(w)) => {
                    prop_assert_eq!(g.penalty.to_bits(), w.penalty.to_bits(), "K={}", shards);
                    prop_assert_eq!(g.order, w.order, "K={}", shards);
                    prop_assert_eq!(&g.query.doc, &w.query.doc, "K={}", shards);
                    prop_assert_eq!(g.query.weights, w.query.weights, "K={}", shards);
                    prop_assert_eq!(g.query.k, w.query.k, "K={}", shards);
                }
                (Err(a), Err(b)) => prop_assert_eq!(&a, b, "K={}", shards),
                (a, b) => prop_assert!(false, "K={}: one path errored: {:?} vs {:?}", shards, a, b),
            }
            match (exec.answer_with_lambda(&q, &missing, 0.5), &answer_want) {
                (Ok(g), Ok(w)) => {
                    prop_assert_eq!(g.preference.penalty.to_bits(), w.preference.penalty.to_bits());
                    prop_assert_eq!(g.keyword.penalty.to_bits(), w.keyword.penalty.to_bits());
                    prop_assert_eq!(g.recommended, w.recommended, "K={}", shards);
                    assert_explanations_equal(&g.explanations, &w.explanations, &format!("answer K={shards}"));
                }
                (Err(a), Err(b)) => prop_assert_eq!(&a, b, "K={}", shards),
                (a, b) => prop_assert!(false, "K={}: one path errored: {:?} vs {:?}", shards, a, b),
            }
        }
    }
}

fn random_corpus(n: usize, seed: u64) -> Corpus {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
    for i in 0..n {
        let doc = KeywordSet::from_raw((0..1 + rng.below(4)).map(|_| rng.below(12) as u32));
        b.push(Point::new(rng.next_f64(), rng.next_f64()), doc, format!("o{i}"));
    }
    b.build()
}

fn ks(ids: &[u32]) -> KeywordSet {
    KeywordSet::from_raw(ids.iter().copied())
}

/// All three modules stay exact on corpora with tombstones (post-delete
/// epochs): fresh executors built over a corpus version carrying dead
/// slots agree with the oracle across every shard count and λ.
#[test]
fn tombstoned_corpora_stay_exact() {
    let base = random_corpus(150, 21);
    // Tombstone ~1/5 of the corpus.
    let victims: Vec<ObjectId> = (0..150).step_by(5).map(|i| ObjectId(i as u32)).collect();
    let (v1, _) = base.with_updates(std::iter::empty(), &victims);
    assert_eq!(v1.tombstones(), victims.len());

    let single = oracle(&v1);
    let mut rng = Xoshiro256::seed_from_u64(7);
    for (case, &dead) in victims.iter().enumerate().take(6) {
        let q = Query::new(
            Point::new(rng.next_f64(), rng.next_f64()),
            ks(&[rng.below(12) as u32, rng.below(12) as u32]),
            1 + rng.below(5),
        );
        let Some(missing) = pick_missing(&single, &q, 1) else {
            continue;
        };
        for lambda in [0.2, 0.5, 0.8] {
            let kw_want = single.refine_keywords(&q, &missing, lambda).unwrap();
            let pref_want = single.refine_preference(&q, &missing, lambda).unwrap();
            let ex_want = single.explain(&q, &missing).unwrap();
            for shards in SHARD_COUNTS {
                let exec = exec_with(&v1, shards);
                let kw = exec.refine_keywords(&q, &missing, lambda).unwrap();
                assert_eq!(kw.query.doc, kw_want.query.doc, "case {case} K={shards} λ={lambda}");
                assert_eq!(kw.query.k, kw_want.query.k, "case {case} K={shards} λ={lambda}");
                assert_eq!(
                    kw.penalty.to_bits(),
                    kw_want.penalty.to_bits(),
                    "case {case} K={shards} λ={lambda}"
                );
                let pref = exec.refine_preference(&q, &missing, lambda).unwrap();
                assert_eq!(pref.query.weights, pref_want.query.weights, "case {case} K={shards}");
                assert_eq!(
                    pref.penalty.to_bits(),
                    pref_want.penalty.to_bits(),
                    "case {case} K={shards} λ={lambda}"
                );
                let ex = exec.explain(&q, &missing).unwrap();
                assert_explanations_equal(&ex, &ex_want, &format!("case {case} K={shards}"));
            }
        }
        // A tombstoned id is foreign to every path.
        for shards in SHARD_COUNTS {
            let exec = exec_with(&v1, shards);
            assert!(
                matches!(
                    exec.explain(&q, &[dead]),
                    Err(yask_core::WhyNotError::ForeignObject(_))
                ),
                "K={shards}: dead object accepted"
            );
        }
    }
}

/// Satellite regression: why-not answers remain exact *after* live write
/// batches — the incrementally maintained shard trees answer identically
/// to a fresh single-tree engine built from the final corpus version.
#[test]
fn apply_batch_then_whynot_stays_exact() {
    let base = random_corpus(120, 22);
    let execs: Vec<Executor> = SHARD_COUNTS.iter().map(|&k| exec_with(&base, k)).collect();

    // A few epochs of mixed writes, applied identically everywhere.
    let mut corpus = base;
    let mut rng = Xoshiro256::seed_from_u64(9);
    for round in 0..5 {
        let live = corpus.live_ids();
        let victim = live[rng.below(live.len())];
        let (next, new_ids) = corpus.with_updates(
            [
                (
                    Point::new(rng.next_f64(), rng.next_f64()),
                    ks(&[rng.below(12) as u32]),
                    format!("w{round}a"),
                ),
                (
                    Point::new(rng.next_f64(), rng.next_f64()),
                    ks(&[rng.below(12) as u32, rng.below(12) as u32]),
                    format!("w{round}b"),
                ),
            ],
            &[victim],
        );
        for exec in &execs {
            exec.apply_batch(next.clone(), &new_ids, &[victim]);
        }
        corpus = next;
    }

    // Oracle: a fresh single-tree engine over the final version.
    let fresh = oracle(&corpus);
    for case in 0..6 {
        let q = Query::new(
            Point::new(rng.next_f64(), rng.next_f64()),
            ks(&[rng.below(12) as u32, rng.below(12) as u32]),
            1 + rng.below(4),
        );
        let Some(missing) = pick_missing(&fresh, &q, 1) else {
            continue;
        };
        let kw_want = fresh.refine_keywords(&q, &missing, 0.5).unwrap();
        let pref_want = fresh.refine_preference(&q, &missing, 0.5).unwrap();
        let ex_want = fresh.explain(&q, &missing).unwrap();
        for (exec, &shards) in execs.iter().zip(&SHARD_COUNTS) {
            assert_eq!(exec.epoch(), 5, "K={shards}");
            let kw = exec.refine_keywords(&q, &missing, 0.5).unwrap();
            assert_eq!(kw.query.doc, kw_want.query.doc, "case {case} K={shards}");
            assert_eq!(kw.penalty.to_bits(), kw_want.penalty.to_bits(), "case {case} K={shards}");
            let pref = exec.refine_preference(&q, &missing, 0.5).unwrap();
            assert_eq!(pref.query.weights, pref_want.query.weights, "case {case} K={shards}");
            assert_eq!(
                pref.penalty.to_bits(),
                pref_want.penalty.to_bits(),
                "case {case} K={shards}"
            );
            let ex = exec.explain(&q, &missing).unwrap();
            assert_explanations_equal(&ex, &ex_want, &format!("case {case} K={shards}"));
        }
    }
}

/// The executor's index footprint is the shard trees alone: per-shard
/// node counters sum to the snapshot totals, and the one-shard and
/// four-shard configurations index the same objects without a duplicate
/// global tree inflating either.
#[test]
fn index_counters_cover_exactly_the_shard_trees() {
    let corpus = random_corpus(400, 23);
    let single = exec_with(&corpus, 1);
    let s1 = single.stats();
    assert_eq!(s1.per_shard.len(), 1);
    assert_eq!(s1.index_nodes, s1.per_shard[0].nodes);
    assert!(s1.index_bytes > 0);

    let sharded = exec_with(&corpus, 4);
    let s4 = sharded.stats();
    assert_eq!(s4.per_shard.iter().map(|p| p.nodes).sum::<usize>(), s4.index_nodes);
    assert_eq!(
        s4.per_shard.iter().map(|p| p.index_bytes).sum::<usize>(),
        s4.index_bytes
    );
    assert_eq!(s4.per_shard.iter().map(|p| p.objects).sum::<usize>(), 400);
    // No hidden second index: the sharded total stays in the same
    // ballpark as one tree over the same objects (more roots, not 2×).
    assert!(
        s4.index_nodes < 2 * s1.index_nodes,
        "sharded executor still carries a global tree? {} vs {}",
        s4.index_nodes,
        s1.index_nodes
    );
}
