//! The corpus's posting lists against a scan of the corpus: after random
//! insert/delete batches, and after a restart that replays the write-ahead
//! log (with and without a checkpoint under it), every keyword's list is
//! ascending, names only objects carrying the keyword, and — its dead ids
//! skipped — equals the live objects carrying it, in id order.

use proptest::prelude::*;
use yask_exec::{ExecConfig, Executor};
use yask_geo::{Point, Space};
use yask_index::{Corpus, CorpusBuilder, ObjectId};
use yask_ingest::{checkpoint_path, CheckpointConfig, Ingestor, NewObject, Update};
use yask_text::KeywordSet;
use yask_util::Xoshiro256;

const VOCAB: usize = 12;

fn seed_corpus(n: usize, seed: u64) -> Corpus {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
    for i in 0..n {
        let doc = KeywordSet::from_raw((0..rng.below(4)).map(|_| rng.below(VOCAB) as u32));
        b.push(
            Point::new(rng.next_f64(), rng.next_f64()),
            doc,
            format!("seed{i}"),
        );
    }
    b.build()
}

fn assert_postings_match_scan(corpus: &Corpus, context: &str) {
    // Two ids past the vocabulary, and the top of the id space, carry
    // nothing.
    for kw in (0..VOCAB as u32 + 2).chain([u32::MAX]) {
        let list: Vec<ObjectId> = corpus.posting(kw).iter().collect();
        assert!(
            list.windows(2).all(|w| w[0] < w[1]),
            "{context}: kw {kw} not ascending"
        );
        assert!(
            list.iter()
                .all(|&id| corpus.get(id).doc.raw().contains(&kw)),
            "{context}: kw {kw} lists an object without it"
        );
        let live: Vec<ObjectId> = list.into_iter().filter(|&id| corpus.contains(id)).collect();
        let scan: Vec<ObjectId> = corpus
            .iter()
            .filter(|o| o.doc.raw().contains(&kw))
            .map(|o| o.id)
            .collect();
        assert_eq!(live, scan, "{context}: kw {kw}");
    }
}

/// Applies `batches` random batches of 1–3 ops through a WAL-backed
/// ingestor, checking the lists after each one; returns the final corpus.
fn churn(ingest: &Ingestor, exec: &Executor, rng: &mut Xoshiro256, batches: usize) -> Corpus {
    for b in 0..batches {
        let corpus = ingest.corpus();
        let mut live = corpus.live_ids();
        let batch: Vec<Update> = (0..1 + rng.below(3))
            .map(|j| {
                if !live.is_empty() && rng.chance(0.4) {
                    Update::Delete(live.swap_remove(rng.below(live.len())))
                } else {
                    Update::Insert(NewObject::new(
                        Point::new(rng.next_f64(), rng.next_f64()),
                        KeywordSet::from_raw((0..rng.below(4)).map(|_| rng.below(VOCAB) as u32)),
                        format!("b{b}-{j}"),
                    ))
                }
            })
            .collect();
        ingest.apply(exec, &batch).expect("batch applies");
        assert_postings_match_scan(&ingest.corpus(), &format!("batch {b}"));
    }
    ingest.corpus()
}

fn wal(tag: &str, seed: u64) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "yask-postings-{tag}-{}-{seed}.wal",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(checkpoint_path(&path)).ok();
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn posting_lists_equal_a_scan_through_batches_and_restarts(
        seed in 0u64..1_000_000,
        n in 0usize..60,
        batches in 1usize..25,
        checkpoint_every in 2u64..6,
    ) {
        for (tag, config) in [
            ("wal", CheckpointConfig::disabled()),
            ("ckpt", CheckpointConfig { max_wal_batches: checkpoint_every, ..CheckpointConfig::default() }),
        ] {
            let path = wal(tag, seed);
            let seed_corpus = seed_corpus(n, seed);
            assert_postings_match_scan(&seed_corpus, "bulk build");
            let ingest = Ingestor::with_wal_config(seed_corpus.clone(), &path, config).expect("open wal");
            let exec = Executor::new(ingest.corpus(), ExecConfig { shards: 2, ..ExecConfig::default() });
            let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5eed);
            let before = churn(&ingest, &exec, &mut rng, batches);
            drop((exec, ingest));

            // The restart replays the log over the seed (or over the last
            // checkpoint, which rebuilds the lists from live objects).
            let revived = Ingestor::with_wal_config(seed_corpus, &path, config).expect("replay");
            let after = revived.corpus();
            prop_assert_eq!(after.live_ids(), before.live_ids());
            assert_postings_match_scan(&after, &format!("{tag} restart"));
            drop(revived);
            std::fs::remove_file(&path).ok();
            std::fs::remove_file(checkpoint_path(&path)).ok();
        }
    }
}
