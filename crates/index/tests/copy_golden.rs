//! Golden copy-on-write bills: for one fixed seeded corpus and batch
//! sequence, the [`CopyStats`] of `Corpus::with_updates_counted` and of
//! `RTree::with_updates` must equal the numbers the two hand-written
//! containers produced before they were merged into
//! [`yask_index::ChunkedCow`] (dumped from commit 4a0b21b on a 64-bit
//! target; the byte bills include `size_of` terms). A change to the copy
//! rule — what counts as a first touch, what a chunk bills — moves these.

use yask_geo::Point;
use yask_index::{CopyStats, CorpusBuilder, ObjectId, RTree, RTreeParams};
use yask_text::KeywordSet;
use yask_util::Xoshiro256;

const BATCHES: usize = 40;

/// Runs the fixed sequence; returns per-batch `(corpus bill, tree bill)`.
fn run() -> Vec<(CopyStats, CopyStats)> {
    let mut rng = Xoshiro256::seed_from_u64(20);
    let mut b = CorpusBuilder::with_capacity(5_100);
    for i in 0..5_100 {
        let doc = KeywordSet::from_raw((0..1 + rng.below(4)).map(|_| rng.below(40) as u32));
        b.push(Point::new(rng.next_f64(), rng.next_f64()), doc, format!("o{i}"));
    }
    let mut corpus = b.build();
    let mut tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));

    let mut bills = Vec::with_capacity(BATCHES);
    for batch in 0..BATCHES {
        // Batch sizes cycle 1..=4 inserts and 0..=2 deletes, so tails
        // overflow, chunks get re-touched and condensation reinserts.
        let mut live = corpus.live_ids();
        let deletes: Vec<ObjectId> = (0..batch % 3)
            .map(|_| live.swap_remove(rng.below(live.len())))
            .collect();
        let inserts: Vec<(Point, KeywordSet, String)> = (0..1 + batch % 4)
            .map(|j| {
                let doc = KeywordSet::from_raw([rng.below(40) as u32, rng.below(40) as u32]);
                (Point::new(rng.next_f64(), rng.next_f64()), doc, format!("b{batch}-{j}"))
            })
            .collect();
        let (next_corpus, new_ids, corpus_bill) = corpus.with_updates_counted(inserts, &deletes);
        let (next_tree, tree_bill) = tree.with_updates(next_corpus.clone(), &new_ids, &deletes);
        bills.push((corpus_bill, tree_bill));
        (corpus, tree) = (next_corpus, next_tree);
    }
    tree.validate().unwrap();
    bills
}

fn stats(chunks_copied: usize, chunks_created: usize, bytes_copied: usize) -> CopyStats {
    CopyStats {
        chunks_copied,
        chunks_created,
        bytes_copied,
    }
}

#[test]
fn copy_bills_match_the_pre_merge_containers() {
    let bills = run();
    let mut corpus_total = CopyStats::default();
    let mut tree_total = CopyStats::default();
    for (c, t) in &bills {
        corpus_total.absorb(c);
        tree_total.absorb(t);
    }
    assert_eq!(corpus_total, stats(76, 1, 987_951));
    assert_eq!(tree_total, stats(404, 9, 1_660_040));
    assert_eq!(
        &bills[..4],
        &[
            (stats(1, 0, 18_520), stats(6, 0, 24_072)),
            (stats(2, 0, 38_740), stats(9, 0, 37_648)),
            (stats(3, 0, 58_548), stats(9, 1, 39_264)),
            (stats(1, 0, 18_976), stats(9, 0, 36_888)),
        ]
    );
}
