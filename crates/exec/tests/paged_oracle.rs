//! Property tests: the out-of-core executor is *exactly* the paper's
//! engine.
//!
//! For randomized corpora and queries, an executor whose shard trees are
//! served out of core ([`ExecConfig::resident_budget`]) must
//! answer top-k and every why-not module byte-identically to a fully
//! resident executor *and* to [`yask_core::Yask`] (one resident tree,
//! an implementation the executor shares no serving code with) — at
//! budgets from "everything fits" down to one byte, where every
//! node-chunk access faults through the pager. This is the oracle CI
//! runs: paging is a memory-placement decision, never an
//! answer-changing one.

use proptest::prelude::*;

use yask_core::{Yask, YaskConfig};
use yask_exec::{ExecConfig, Executor};
use yask_geo::{Point, Space};
use yask_index::{Corpus, CorpusBuilder, ObjectId, RTree, RTreeParams};
use yask_pager::page_out_tree;
use yask_query::{topk_tree, Query, ScoreParams, Weights};
use yask_text::KeywordSet;
use yask_util::Xoshiro256;

/// One byte (worst case: nothing stays decoded), one small chunk's
/// worth, and effectively unbounded (everything decodes once and stays).
const BUDGETS: [usize; 3] = [1, 4 * 1024, 1 << 30];

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
        1usize..=8,
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

/// `budget = None` is the fully resident executor.
fn exec(c: &Corpus, shards: usize, budget: Option<usize>) -> Executor {
    Executor::new(
        c.clone(),
        ExecConfig {
            shards,
            workers: shards.min(4),
            resident_budget: budget,
            // Caches off so every repeat recomputes through the pager.
            topk_cache: 0,
            answer_cache: 0,
            ..ExecConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Top-k equality at every budget, one shard and several.
    #[test]
    fn paged_topk_equals_resident(c in corpus(10, 120), q in query()) {
        let want = Yask::new(c.corpus.clone(), YaskConfig::default()).top_k(&q);
        for shards in [1usize, 3] {
            prop_assert_eq!(&exec(&c.corpus, shards, None).top_k(&q), &want, "shards = {}", shards);
            for budget in BUDGETS {
                let paged = exec(&c.corpus, shards, Some(budget));
                prop_assert_eq!(
                    &paged.top_k(&q), &want,
                    "shards = {}, budget = {}", shards, budget
                );
            }
        }
    }

    /// The full why-not surface — explanations, preference adjustment,
    /// keyword adaptation, and the recommended model — at the worst-case
    /// one-byte budget, where every tree read would fault. No why-not
    /// module reads a tree, so the answers touch no chunk at all.
    #[test]
    fn paged_whynot_equals_resident(c in corpus(40, 100), q in query()) {
        let oracle = Yask::new(c.corpus.clone(), YaskConfig::default());
        // Pick the first object below the top-k as the missing one.
        let all = oracle.top_k(&q.with_k(c.corpus.len()));
        prop_assume!(all.len() > q.k);
        let missing: Vec<ObjectId> = vec![all[q.k].id];
        let want = oracle.answer_with_lambda(&q, &missing, 0.5);
        for shards in [1usize, 3] {
            let paged = exec(&c.corpus, shards, Some(1));
            let chunks = |e: &Executor| {
                let p = e.stats().pager.expect("paged executor exposes pager stats");
                (p.chunk_hits, p.chunk_misses)
            };
            // The first snapshot walks each tree once for its shape.
            chunks(&paged);
            let before = chunks(&paged);
            let got = paged.answer_with_lambda(&q, &missing, 0.5);
            match (&want, got) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.explanations.len(), b.explanations.len());
                    for (x, y) in a.explanations.iter().zip(&b.explanations) {
                        prop_assert_eq!(x.rank, y.rank, "shards = {}", shards);
                        prop_assert_eq!(&x.message, &y.message, "shards = {}", shards);
                    }
                    prop_assert_eq!(a.preference.penalty.to_bits(), b.preference.penalty.to_bits());
                    prop_assert_eq!(a.preference.query.weights, b.preference.query.weights);
                    prop_assert_eq!(a.keyword.penalty.to_bits(), b.keyword.penalty.to_bits());
                    prop_assert_eq!(&a.keyword.query.doc, &b.keyword.query.doc);
                    prop_assert_eq!(a.keyword.query.k, b.keyword.query.k);
                    prop_assert_eq!(a.recommended, b.recommended, "shards = {}", shards);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, &b, "shards = {}", shards),
                (a, b) => prop_assert!(false, "shards = {}: {:?} vs {:?}", shards, a, b),
            }
            // The answers came off the request table: not one chunk was
            // read, hit or faulted.
            prop_assert_eq!(chunks(&paged), before, "shards = {}", shards);
        }
    }
}

/// Four threads search one paged tree at a one-byte budget: every chunk
/// access faults, each fault evicts a chunk another thread may be midway
/// through, and every answer must still equal the resident tree's. A
/// reader's node reference alone keeps its chunk alive.
#[test]
fn concurrent_readers_of_one_paged_tree_see_resident_answers() {
    let mut rng = Xoshiro256::seed_from_u64(28);
    let mut b = CorpusBuilder::new().with_space(Space::unit());
    for i in 0..3000 {
        let doc = KeywordSet::from_raw((0..1 + rng.below(4)).map(|_| rng.below(40) as u32));
        b.push(
            Point::new(rng.next_f64(), rng.next_f64()),
            doc,
            format!("o{i}"),
        );
    }
    let corpus = b.build();
    let params = ScoreParams::new(corpus.space());
    let resident = RTree::bulk_load(corpus, RTreeParams::default());
    let mut paged = resident.clone();
    let src = page_out_tree(&mut paged, 1).unwrap();

    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (paged, resident, start) = (&paged, &resident, &start);
            s.spawn(move || {
                let mut rng = Xoshiro256::seed_from_u64(t);
                start.wait();
                for _ in 0..40 {
                    let doc = KeywordSet::from_raw((0..2).map(|_| rng.below(40) as u32));
                    let q = Query::new(Point::new(rng.next_f64(), rng.next_f64()), doc, 10);
                    assert_eq!(
                        topk_tree(paged, &params, &q),
                        topk_tree(resident, &params, &q)
                    );
                }
            });
        }
    });
    let stats = src.stats();
    assert!(
        stats.evictions > 0,
        "a one-byte budget must evict: {stats:?}"
    );
    assert_eq!(stats.resident_chunks, 1, "{stats:?}");
}
