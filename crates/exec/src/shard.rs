//! Spatial sharding: partition the corpus into K shards, one R-tree each.
//!
//! The partitioner is STR-style (Sort-Tile-Recursive, the same discipline
//! the bulk loader uses *inside* one tree): objects are sorted by
//! longitude and cut into vertical slices, and each slice is sorted by
//! latitude and cut into cells — giving K spatially compact, equally
//! sized shards. Compactness matters because the top-k's k-NN half
//! prunes a shard by its nodes' distance bounds: the tighter a shard's
//! rectangles, the earlier a shard drops out of a top-k search.
//!
//! Every shard tree is built with [`yask_index::RTree::bulk_load_subset`]
//! over the *shared* corpus, so shards keep global [`ObjectId`]s and score
//! in the global [`yask_geo::Space`] — per-shard results are directly
//! comparable and the merged top-k is exactly the single-tree answer.
//!
//! **Write routing.** The partition remembers its cut boundaries in a
//! router, so a live insert is routed to the STR cell that owns its
//! location and a delete to the shard that indexed it. [`ShardedIndex::apply`]
//! is copy-on-write at two granularities: untouched shard trees are
//! shared with the previous epoch by reference, and a *touched* shard
//! derives its next tree through [`yask_index::RTree::with_updates`] —
//! the persistent node arena copies only the chunks the batch's
//! root-to-leaf paths wrote into, so the write cost is O(spine), not
//! O(shard). The per-shard copy bills are summed into the returned
//! [`CopyStats`]. The slot → shard table is a third
//! [`yask_index::ChunkedCow`], so a batch copies only the assignment
//! chunks its inserts land in. Sustained one-sided growth skews the
//! partition, which the executor heals by rebuilding the index with a
//! fresh STR split (see `rebalance` in the executor).

use std::sync::Arc;

use yask_geo::Point;
use yask_index::{ChunkedCow, CopyStats, Corpus, ObjectId, RTree, RTreeParams};

/// Slots per assignment chunk (4 KiB of shard ids): inserts are appended
/// slots, so a batch touches the tail chunk and nothing else.
const ASSIGNMENT_CHUNK_SIZE: usize = 1024;

/// A corpus partitioned into K spatial shards, one R-tree per shard.
pub struct ShardedIndex {
    shards: Vec<Arc<RTree>>,
    /// Object index → shard index (meaningful for indexed slots only).
    assignment: ChunkedCow<u32, ASSIGNMENT_CHUNK_SIZE>,
    /// The STR cut boundaries that route new points to their owning cell.
    router: StrRouter,
    corpus: Corpus,
}

/// Per-shard op counts of one applied batch (inserts, deletes).
pub type ShardDeltas = Vec<(usize, usize)>;

impl ShardedIndex {
    /// Partitions `corpus` into `shards` STR cells and bulk-loads one
    /// R-tree per cell, building the trees on parallel threads.
    /// `shards` is clamped to at least 1; shards may be empty when the
    /// corpus has fewer live objects than shards.
    pub fn build(corpus: Corpus, shards: usize, params: RTreeParams) -> Self {
        let shards = shards.max(1);
        let (parts, router) = partition_str(&corpus, shards);

        let mut assignment = vec![0u32; corpus.slot_count()];
        for (s, ids) in parts.iter().enumerate() {
            for id in ids {
                assignment[id.index()] = s as u32;
            }
        }

        // One build thread per shard: STR bulk loads are independent and
        // CPU-bound, so the build parallelizes embarrassingly.
        let trees = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .map(|ids| {
                    let corpus = corpus.clone();
                    scope.spawn(move || RTree::bulk_load_subset(corpus, ids, params))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| Arc::new(h.join().expect("shard build thread panicked")))
                .collect::<Vec<_>>()
        });

        ShardedIndex {
            shards: trees,
            assignment: assignment.into_iter().collect(),
            router,
            corpus,
        }
    }

    /// The shard trees, in shard order.
    pub fn shards(&self) -> &[Arc<RTree>] {
        &self.shards
    }

    /// Applies `f` to every shard tree whose arena is still resident,
    /// republishing the result — the executor's out-of-core page-out
    /// hook. Already-paged trees (shared wholesale with the previous
    /// epoch) are left untouched, warm chunk caches included.
    pub fn page_resident_trees(&mut self, mut f: impl FnMut(&mut RTree)) {
        for slot in &mut self.shards {
            if !slot.is_paged() {
                let mut tree = (**slot).clone();
                f(&mut tree);
                *slot = Arc::new(tree);
            }
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding `id` (meaningful only for ids this index has
    /// seen: bulk-loaded or routed through [`ShardedIndex::apply`]).
    pub fn shard_of(&self, id: ObjectId) -> usize {
        *self.assignment.get(id.index()) as usize
    }

    /// The shard a *new* object at `p` would be routed to.
    pub fn route(&self, p: Point) -> usize {
        self.router.route(p, self.shards.len())
    }

    /// The shared corpus (the epoch this index was built for).
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Total indexed objects across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|t| t.len()).sum()
    }

    /// True when no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the largest shard.
    pub fn max_shard_len(&self) -> usize {
        self.shards.iter().map(|t| t.len()).max().unwrap_or(0)
    }

    /// Derives the next epoch's index: `inserted` ids (slots of `corpus`)
    /// are routed to their owning STR cells and `deleted` ids removed from
    /// the shards that indexed them. Untouched shard trees are shared with
    /// this epoch by reference; touched ones are derived persistently via
    /// [`yask_index::RTree::with_updates`], copying only the arena chunks
    /// the batch's paths wrote into. Returns the new index, the per-shard
    /// `(inserts, deletes)` deltas for the metrics surface, and the summed
    /// tree copy-on-write bill.
    pub fn apply(
        &self,
        corpus: Corpus,
        inserted: &[ObjectId],
        deleted: &[ObjectId],
    ) -> (ShardedIndex, ShardDeltas, CopyStats) {
        let k = self.shards.len();
        let mut ins: Vec<Vec<ObjectId>> = vec![Vec::new(); k];
        for &id in inserted {
            ins[self.router.route(corpus.get(id).loc, k)].push(id);
        }
        let mut del: Vec<Vec<ObjectId>> = vec![Vec::new(); k];
        for &id in deleted {
            del[self.shard_of(id)].push(id);
        }

        // The tree bill is what `apply` reports; the assignment table's
        // own (tail-chunk) copies are not part of it.
        let mut assignment = self.assignment.clone();
        let mut table_copy = CopyStats::default();
        while assignment.len() < corpus.slot_count() {
            assignment.push(0, &mut table_copy);
        }
        let mut deltas = Vec::with_capacity(k);
        let mut copy = CopyStats::default();
        let shards: Vec<Arc<RTree>> = (0..k)
            .map(|s| {
                deltas.push((ins[s].len(), del[s].len()));
                if ins[s].is_empty() && del[s].is_empty() {
                    // Untouched: share the tree with the previous epoch.
                    return Arc::clone(&self.shards[s]);
                }
                let (tree, stats) = self.shards[s].with_updates(corpus.clone(), &ins[s], &del[s]);
                copy.absorb(&stats);
                for &id in &ins[s] {
                    *assignment.make_mut(id.index(), &mut table_copy) = s as u32;
                }
                Arc::new(tree)
            })
            .collect();

        (
            ShardedIndex {
                shards,
                assignment,
                router: self.router.clone(),
                corpus,
            },
            deltas,
            copy,
        )
    }
}

/// The STR partition's cut boundaries, retained for write routing: a new
/// point binary-searches the longitude cuts to find its slice, then that
/// slice's latitude cuts to find its cell.
#[derive(Clone, Debug)]
struct StrRouter {
    /// Upper longitude boundary of each slice but the last (ascending).
    x_cuts: Vec<f64>,
    /// Per slice: upper latitude boundary of each cell but the last, plus
    /// the index of the slice's first cell in the global shard order.
    slices: Vec<(Vec<f64>, usize)>,
}

impl StrRouter {
    /// The shard owning `p`, clamped into `[0, shards)`.
    fn route(&self, p: Point, shards: usize) -> usize {
        let slice = self.x_cuts.partition_point(|&c| c <= p.x);
        let (y_cuts, first) = &self.slices[slice];
        let cell = y_cuts.partition_point(|&c| c <= p.y);
        (first + cell).min(shards - 1)
    }
}

/// Splits the corpus into `k` STR cells: `s = ⌊√k⌋` longitude slices, each
/// cut latitude-wise into its share of cells. Returns exactly `k` id
/// lists (some possibly empty) that disjointly cover the live corpus,
/// plus the router remembering the cut boundaries.
fn partition_str(corpus: &Corpus, k: usize) -> (Vec<Vec<ObjectId>>, StrRouter) {
    let mut ids: Vec<ObjectId> = corpus.iter().map(|o| o.id).collect();
    if k == 1 {
        return (
            vec![ids],
            StrRouter {
                x_cuts: Vec::new(),
                slices: vec![(Vec::new(), 0)],
            },
        );
    }

    // Sort by longitude (ties: latitude, then id — keeps the cut
    // deterministic for duplicate coordinates).
    let key = |id: &ObjectId| {
        let o = corpus.get(*id);
        (o.loc.x, o.loc.y, id.0)
    };
    ids.sort_unstable_by(|a, b| key(a).partial_cmp(&key(b)).expect("finite coordinates"));

    // s slices carrying ⌈k/s⌉ or ⌊k/s⌋ cells each, summing to exactly k.
    let s = (k as f64).sqrt().floor().max(1.0) as usize;
    let base = k / s;
    let extra = k % s; // the first `extra` slices carry one extra cell

    let n = ids.len();
    let mut out: Vec<Vec<ObjectId>> = Vec::with_capacity(k);
    let mut x_cuts: Vec<f64> = Vec::with_capacity(s.saturating_sub(1));
    let mut slices: Vec<(Vec<f64>, usize)> = Vec::with_capacity(s);
    let mut consumed_cells = 0usize;
    let mut offset = 0usize;
    for slice_idx in 0..s {
        let cells = base + usize::from(slice_idx < extra);
        // The slice's object count is proportional to its cell share.
        let end_cells = consumed_cells + cells;
        let slice_end = n * end_cells / k;
        if slice_idx + 1 < s {
            // Boundary = first longitude of the next slice; an empty tail
            // keeps everything in this slice.
            x_cuts.push(if slice_end < n {
                corpus.get(ids[slice_end]).loc.x
            } else {
                f64::INFINITY
            });
        }
        let slice = &mut ids[offset..slice_end];

        // Within the slice: sort by latitude, cut into `cells` runs.
        let key = |id: &ObjectId| {
            let o = corpus.get(*id);
            (o.loc.y, o.loc.x, id.0)
        };
        slice.sort_unstable_by(|a, b| key(a).partial_cmp(&key(b)).expect("finite coordinates"));
        let m = slice.len();
        let mut y_cuts: Vec<f64> = Vec::with_capacity(cells.saturating_sub(1));
        for c in 0..cells {
            let lo = m * c / cells;
            let hi = m * (c + 1) / cells;
            if c + 1 < cells {
                y_cuts.push(if hi < m {
                    corpus.get(slice[hi]).loc.y
                } else {
                    f64::INFINITY
                });
            }
            out.push(slice[lo..hi].to_vec());
        }
        slices.push((y_cuts, consumed_cells));

        consumed_cells = end_cells;
        offset = slice_end;
    }
    debug_assert_eq!(out.len(), k);
    (out, StrRouter { x_cuts, slices })
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::{Point, Space};
    use yask_index::CorpusBuilder;
    use yask_text::KeywordSet;
    use yask_util::Xoshiro256;

    fn random_corpus(n: usize, seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            let doc = KeywordSet::from_raw((0..1 + rng.below(4)).map(|_| rng.below(15) as u32));
            b.push(Point::new(rng.next_f64(), rng.next_f64()), doc, format!("o{i}"));
        }
        b.build()
    }

    #[test]
    fn partition_disjointly_covers_corpus() {
        let corpus = random_corpus(500, 7);
        for k in [1, 2, 3, 4, 5, 8, 16] {
            let sharded = ShardedIndex::build(corpus.clone(), k, RTreeParams::default());
            assert_eq!(sharded.shard_count(), k);
            assert_eq!(sharded.len(), corpus.len(), "k = {k}");
            let mut seen: Vec<ObjectId> = sharded
                .shards()
                .iter()
                .flat_map(|t| t.object_ids())
                .collect();
            seen.sort_unstable();
            let want: Vec<ObjectId> = corpus.iter().map(|o| o.id).collect();
            assert_eq!(seen, want, "k = {k}: shards must disjointly cover");
        }
    }

    #[test]
    fn assignment_matches_tree_membership() {
        let corpus = random_corpus(300, 8);
        let sharded = ShardedIndex::build(corpus.clone(), 4, RTreeParams::default());
        for (s, tree) in sharded.shards().iter().enumerate() {
            for id in tree.object_ids() {
                assert_eq!(sharded.shard_of(id), s);
            }
        }
    }

    #[test]
    fn router_agrees_with_partition() {
        // Every bulk-partitioned object must route to the shard that got
        // it — the cut boundaries and the partition are one discipline.
        let corpus = random_corpus(400, 12);
        for k in [1, 2, 3, 4, 6, 9] {
            let sharded = ShardedIndex::build(corpus.clone(), k, RTreeParams::default());
            for o in corpus.iter() {
                assert_eq!(
                    sharded.route(o.loc),
                    sharded.shard_of(o.id),
                    "k = {k}, object {:?} at {:?}",
                    o.id,
                    o.loc
                );
            }
        }
    }

    #[test]
    fn shards_are_balanced() {
        let corpus = random_corpus(800, 9);
        let sharded = ShardedIndex::build(corpus.clone(), 8, RTreeParams::default());
        let sizes: Vec<usize> = sharded.shards().iter().map(|t| t.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 2, "unbalanced shards: {sizes:?}");
    }

    #[test]
    fn shard_trees_validate_and_keep_global_ids() {
        let corpus = random_corpus(200, 10);
        let sharded = ShardedIndex::build(corpus.clone(), 5, RTreeParams::default());
        for tree in sharded.shards() {
            tree.validate().expect("shard tree invariants");
            // Trees share the global corpus (same chunk spine).
            assert!(tree.corpus().same_version(&corpus));
        }
    }

    #[test]
    fn more_shards_than_objects_leaves_empties() {
        let corpus = random_corpus(3, 11);
        let sharded = ShardedIndex::build(corpus.clone(), 8, RTreeParams::default());
        assert_eq!(sharded.shard_count(), 8);
        assert_eq!(sharded.len(), 3);
        assert!(sharded.shards().iter().any(|t| t.is_empty()));
    }

    #[test]
    fn empty_corpus_builds_empty_shards() {
        let corpus = CorpusBuilder::new().build();
        let sharded = ShardedIndex::build(corpus.clone(), 4, RTreeParams::default());
        assert!(sharded.is_empty());
        assert_eq!(sharded.shard_count(), 4);
        // Routing still lands in range on an empty partition.
        assert!(sharded.route(Point::new(0.3, 0.7)) < 4);
    }

    #[test]
    fn apply_routes_writes_and_shares_untouched_shards() {
        let corpus = random_corpus(240, 13);
        let sharded = ShardedIndex::build(corpus.clone(), 4, RTreeParams::default());
        let victim = ObjectId(17);
        let (v1, new_ids) = corpus.with_updates(
            [(
                Point::new(0.31, 0.62),
                KeywordSet::from_raw([2u32]),
                "new".to_owned(),
            )],
            &[victim],
        );
        let (next, deltas, copy) = sharded.apply(v1.clone(), &new_ids, &[victim]);
        assert_eq!(next.len(), corpus.len(), "one in, one out");
        assert_eq!(deltas.iter().map(|d| d.0).sum::<usize>(), 1);
        assert_eq!(deltas.iter().map(|d| d.1).sum::<usize>(), 1);
        // The insert landed where the router said it would.
        let target = sharded.route(Point::new(0.31, 0.62));
        assert_eq!(next.shard_of(new_ids[0]), target);
        assert!(next.shards()[target].object_ids().contains(&new_ids[0]));
        // The victim is gone from its shard.
        let home = sharded.shard_of(victim);
        assert!(!next.shards()[home].object_ids().contains(&victim));
        // Shards the batch did not touch are shared, not cloned.
        for s in 0..4 {
            let untouched = deltas[s] == (0, 0);
            assert_eq!(
                Arc::ptr_eq(&sharded.shards()[s], &next.shards()[s]),
                untouched,
                "shard {s}: deltas {deltas:?}"
            );
        }
        // Touched shards paid a bounded copy bill (the batch's spine
        // chunks, not the whole arena), and the untouched ones paid none.
        assert!(copy.chunks_copied + copy.chunks_created >= 1);
        let touched_chunks: usize = (0..4)
            .filter(|&s| deltas[s] != (0, 0))
            .map(|s| sharded.shards()[s].arena_chunk_count())
            .sum();
        assert!(
            copy.chunks_copied <= touched_chunks,
            "copied {} of {touched_chunks} touched-shard chunks",
            copy.chunks_copied
        );
        for tree in next.shards() {
            tree.validate().expect("shard invariants after apply");
        }
    }

    #[test]
    fn apply_shares_untouched_assignment_chunks_and_routes_deletes_identically() {
        let n = 2 * ASSIGNMENT_CHUNK_SIZE + 500;
        let corpus = random_corpus(n, 15);
        let sharded = ShardedIndex::build(corpus.clone(), 4, RTreeParams::default());
        assert_eq!(sharded.assignment.chunk_count(), 3);
        let victims = [ObjectId(5), ObjectId(ASSIGNMENT_CHUNK_SIZE as u32 + 9)];
        let (v1, new_ids) = corpus.with_updates(
            [(Point::new(0.7, 0.2), KeywordSet::from_raw([3u32]), "new".to_owned())],
            &victims,
        );
        let (next, deltas, _) = sharded.apply(v1.clone(), &new_ids, &victims);
        // The insert extended the tail chunk; the two full chunks — the
        // ones the deletes' slots live in — are the previous epoch's.
        assert!(next.assignment.shares_chunk(&sharded.assignment, 0));
        assert!(next.assignment.shares_chunk(&sharded.assignment, 1));
        assert!(!next.assignment.shares_chunk(&sharded.assignment, 2));
        assert_eq!(next.assignment.len(), v1.slot_count());
        // Deletes went to the shard that indexed them and nowhere else.
        let mut want = vec![0usize; 4];
        for v in victims {
            want[sharded.shard_of(v)] += 1;
            assert!(!next.shards()[sharded.shard_of(v)].object_ids().contains(&v));
        }
        assert_eq!(deltas.iter().map(|d| d.1).collect::<Vec<_>>(), want);
        // Every pre-existing slot keeps its shard.
        for i in 0..n as u32 {
            assert_eq!(next.shard_of(ObjectId(i)), sharded.shard_of(ObjectId(i)));
        }
        // A delete-only batch writes no assignment slot at all.
        let (v2, _) = v1.with_updates(std::iter::empty(), &[ObjectId(6)]);
        let (after, _, _) = next.apply(v2, &[], &[ObjectId(6)]);
        assert!(after.assignment.same_version(&next.assignment));
    }

    #[test]
    fn repeated_applies_keep_cover_exact() {
        let mut corpus = random_corpus(120, 14);
        let mut sharded = ShardedIndex::build(corpus.clone(), 3, RTreeParams::default());
        let mut rng = Xoshiro256::seed_from_u64(77);
        for round in 0..30 {
            let live = corpus.live_ids();
            let delete = live[rng.below(live.len())];
            let (v, new_ids) = corpus.with_updates(
                [(
                    Point::new(rng.next_f64(), rng.next_f64()),
                    KeywordSet::from_raw([rng.below(15) as u32]),
                    format!("r{round}"),
                )],
                &[delete],
            );
            let (next, _, _) = sharded.apply(v.clone(), &new_ids, &[delete]);
            sharded = next;
            corpus = v;
            let mut seen: Vec<ObjectId> = sharded
                .shards()
                .iter()
                .flat_map(|t| t.object_ids())
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, corpus.live_ids(), "round {round}");
        }
    }
}
