//! Property tests of the persistent chunked node arena: successive
//! epochs must *physically* share every chunk a batch's paths did not
//! write into (`Arc::ptr_eq`, surfaced as `shares_chunk`), the per-batch
//! copy bill must be O(spine) — bounded by the tree height, not the tree
//! size — and the delete hot path must stay linear over a 10k burst.

use yask_geo::{Point, Rect};
use yask_index::{Corpus, CorpusBuilder, ObjectId, RTree, RTreeParams, NODE_CHUNK_SIZE};
use yask_text::KeywordSet;
use yask_util::Xoshiro256;

const VOCAB: u64 = 40;

fn random_corpus(n: usize, seed: u64) -> Corpus {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut b = CorpusBuilder::with_capacity(n);
    for i in 0..n {
        let doc = KeywordSet::from_raw((0..1 + rng.below(4)).map(|_| rng.below(VOCAB as usize) as u32));
        b.push(Point::new(rng.next_f64(), rng.next_f64()), doc, format!("o{i}"));
    }
    b.build()
}

/// One random single-insert/single-delete batch against `(corpus, tree)`.
fn step(
    corpus: &Corpus,
    tree: &RTree,
    rng: &mut Xoshiro256,
    tag: usize,
) -> (Corpus, RTree, yask_index::CopyStats) {
    let live = corpus.live_ids();
    let victim = live[rng.below(live.len())];
    let (next_corpus, new_ids) = corpus.with_updates(
        [(
            Point::new(rng.next_f64(), rng.next_f64()),
            KeywordSet::from_raw([rng.below(VOCAB as usize) as u32]),
            format!("e{tag}"),
        )],
        &[victim],
    );
    let (next_tree, stats) = tree.with_updates(next_corpus.clone(), &new_ids, &[victim]);
    (next_corpus, next_tree, stats)
}

#[test]
fn successive_epochs_share_untouched_chunks() {
    let params = RTreeParams::new(8, 3);
    let mut corpus = random_corpus(20_000, 1);
    let mut tree = RTree::bulk_load(corpus.clone(), params);
    let total_chunks = tree.arena_chunk_count();
    assert!(total_chunks >= 8, "fixture too small: {total_chunks} chunks");
    let mut rng = Xoshiro256::seed_from_u64(2);

    for round in 0..20 {
        let (next_corpus, next_tree, stats) = step(&corpus, &tree, &mut rng, round);

        // Sharing is exact: common spine positions minus the copied
        // chunks are the same physical allocation in both epochs.
        let common = tree.arena_chunk_count().min(next_tree.arena_chunk_count());
        assert_eq!(
            next_tree.shared_chunk_count(&tree),
            common - stats.chunks_copied,
            "round {round}: sharing must equal common - copied"
        );
        // And `shares_chunk` agrees position by position.
        let shared_positions = (0..common)
            .filter(|&i| next_tree.shares_chunk(&tree, i))
            .count();
        assert_eq!(shared_positions, common - stats.chunks_copied);

        // A single-op batch touches O(spine) chunks: the delete spine,
        // the insert spine, condensation fallout and orphan reinsertion
        // are each height-bounded — nowhere near the whole arena.
        let h = next_tree.height();
        assert!(
            stats.chunks_copied + stats.chunks_created <= 4 * h + 4,
            "round {round}: copied {} + created {} chunks exceeds the \
             spine bound for height {h}",
            stats.chunks_copied,
            stats.chunks_created,
        );
        assert!(
            stats.chunks_copied < total_chunks / 2,
            "round {round}: copied {}/{total_chunks} chunks — not path-copying",
            stats.chunks_copied
        );
        (corpus, tree) = (next_corpus, next_tree);
    }
    tree.validate().unwrap();
}

#[test]
fn spine_copy_bytes_stay_height_bounded() {
    // The byte bill of a single-op batch never exceeds (spine × chunk):
    // each copied chunk costs at most its full resident size, and only a
    // height-bounded number of chunks is copied.
    let params = RTreeParams::new(8, 3);
    let corpus = random_corpus(30_000, 3);
    let tree = RTree::bulk_load(corpus.clone(), params);
    let node_bytes = std::mem::size_of::<yask_index::Node>();
    // Static per-chunk ceiling: full chunk of max-fanout nodes whose
    // keyword-count maps span the whole (small) test vocabulary.
    let chunk_ceiling = NODE_CHUNK_SIZE * (node_bytes + 4 * params.max_entries + 8 * VOCAB as usize);

    let mut rng = Xoshiro256::seed_from_u64(4);
    let (mut c, mut t) = (corpus, tree);
    for round in 0..10 {
        let (nc, nt, stats) = step(&c, &t, &mut rng, round);
        let h = nt.height();
        assert!(
            stats.bytes_copied <= (4 * h + 4) * chunk_ceiling,
            "round {round}: {} bytes copied exceeds height-bounded ceiling {}",
            stats.bytes_copied,
            (4 * h + 4) * chunk_ceiling
        );
        // The bill is also far below the resident arena: O(spine), not O(n).
        assert!(
            stats.bytes_copied < nt.arena_bytes() / 2,
            "round {round}: copied {} of {} arena bytes",
            stats.bytes_copied,
            nt.arena_bytes()
        );
        (c, t) = (nc, nt);
    }
}

#[test]
fn old_epochs_answer_queries_unchanged() {
    // Chained path-copying derivations never disturb published epochs:
    // every retained tree keeps answering range queries against *its*
    // corpus version, exactly.
    let params = RTreeParams::new(8, 3);
    let mut corpus = random_corpus(5_000, 5);
    let mut tree = RTree::bulk_load(corpus.clone(), params);
    let mut epochs = vec![(corpus.clone(), tree.clone())];
    let mut rng = Xoshiro256::seed_from_u64(6);
    for round in 0..8 {
        let (nc, nt, _) = step(&corpus, &tree, &mut rng, round);
        epochs.push((nc.clone(), nt.clone()));
        (corpus, tree) = (nc, nt);
    }
    let rect = Rect::from_coords(0.2, 0.3, 0.7, 0.8);
    for (i, (c, t)) in epochs.iter().enumerate() {
        t.validate().unwrap_or_else(|e| panic!("epoch {i}: {e}"));
        let mut got = t.range(&rect);
        got.sort();
        let mut want: Vec<ObjectId> = c
            .iter()
            .filter(|o| rect.contains_point(&o.loc))
            .map(|o| o.id)
            .collect();
        want.sort();
        assert_eq!(got, want, "epoch {i} answers drifted");
    }
}

#[test]
fn delete_burst_10k_stays_linear() {
    // Regression: delete condensation used to scan the free *list* per
    // visited node (`free.contains`), turning delete-heavy batches
    // quadratic in the number of accumulated frees. With the freed
    // bitset the whole burst is height-bounded work per op.
    let params = RTreeParams::new(8, 3);
    let corpus = random_corpus(12_000, 7);
    let mut tree = RTree::bulk_load(corpus.clone(), params);
    let mut rng = Xoshiro256::seed_from_u64(8);
    let mut live: Vec<ObjectId> = corpus.iter().map(|o| o.id).collect();
    rng.shuffle(&mut live);
    let start = std::time::Instant::now();
    for &id in live.iter().take(10_000) {
        assert!(tree.delete(id));
    }
    let elapsed = start.elapsed();
    assert_eq!(tree.len(), 2_000);
    assert!(tree.free_slots() > 0, "the burst must have freed slots");
    tree.validate().unwrap();
    // Generous wall-clock ceiling — the quadratic free-list scan blew
    // well past this; the bitset path finishes in well under a second.
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "10k-delete burst took {elapsed:?}"
    );
}
