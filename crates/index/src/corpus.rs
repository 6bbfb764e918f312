//! The spatio-textual object corpus shared by all indexes.
//!
//! Paper §2.1: "Let `D` denote a database of spatial objects. Each object
//! `o ∈ D` is defined as a pair `(o.loc, o.doc)`." A [`Corpus`] is that
//! database plus the normalized [`Space`] in which `SDist` is computed.
//! Indexes and engines share one corpus through a cheap `Arc` clone, so the
//! shard trees and scans over the same data never duplicate object
//! payloads.
//!
//! **Liveness.** A corpus version may carry tombstones: a deleted object
//! keeps its slot (so [`ObjectId`]s stay stable across updates and ids
//! recorded in write-ahead logs, tree structures and sessions never shift)
//! but is skipped by [`Corpus::iter`], excluded from [`Corpus::len`], and
//! invisible to scans. [`Corpus::with_updates`] derives a new version with
//! objects appended and/or tombstoned — the persistent-snapshot primitive
//! the ingest layer's epochs are built on. [`Corpus::get`] still resolves
//! tombstoned slots (index maintenance needs the payload to unindex it);
//! use [`Corpus::contains`] to test liveness.
//!
//! **Chunked persistence.** Objects are stored in a [`ChunkedCow`] of
//! [`CHUNK_SIZE`]-object chunks — see [`crate::cow`] for the layout and
//! the one copy rule. Tombstones are a bitset beside them, in a second
//! container whose 512-byte chunks cover 4 096 slots each, so a delete
//! copies one bitset chunk rather than the objects around its slot,
//! and an insert is a push: [`Corpus::with_updates`] costs O(batch + touched
//! chunks), not O(n), and
//! [`Corpus::with_updates_counted`] reports the [`CopyStats`] bill, which
//! the ingest layer accumulates and `/stats` surfaces. The R-tree node
//! arena ([`crate::rtree`]) is the same container, so one epoch
//! derivation reports corpus-side and index-side write amplification in
//! one vocabulary.
//!
//! **Posting lists.** Every version also carries the inverted index of
//! its objects' keywords ([`Corpus::posting`]; layout, copy bill and
//! liveness in [`crate::postings`]). Two readers walk it: the served
//! top-k's keyword half (`topk_postings` in `yask_query`), which scores
//! every live object on the query keywords' lists, and the why-not
//! request table (`SegmentSet::build` in `yask_core`), which reads the
//! signatures of the objects on the lists of `U = q.doc ∪ M.doc` off
//! them instead of off the documents.

use std::fmt;

use yask_geo::{Point, Space};
use yask_text::KeywordSet;

use crate::cow::{ApproxBytes, ChunkedCow, CopyStats};
use crate::postings::{PostingList, Postings};

/// Objects per chunk. Deletes touch only the tombstone bitset, so this
/// prices inserts: a batch deep-copies the partial tail chunk it appends
/// to (names and documents included) and copies the spine, and every
/// corpus version a reader still pins keeps both. At 50 000 objects, 64
/// balances the two (≈ 4.6 KB of tail objects and a 6 KB spine per
/// insert, against ≈ 18 KB and 1.6 KB at 256), which matters when many
/// versions are pinned at once: yaskbench's `write_mix` holds about a
/// thousand.
pub const CHUNK_SIZE: usize = 64;

/// Identifier of an object in a [`Corpus`]: its position in the object
/// array. Dense ids keep rank tie-breaking deterministic and make
/// object-indexed scratch arrays (used by the why-not sweeps) trivial.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The raw array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// One spatial object: `(o.loc, o.doc)` plus an optional display name
/// (hotel name in the demo dataset).
#[derive(Clone, Debug, PartialEq)]
pub struct SpatioTextualObject {
    /// The object's id — always equal to its position in the corpus.
    pub id: ObjectId,
    /// `o.loc`.
    pub loc: Point,
    /// `o.doc`.
    pub doc: KeywordSet,
    /// Human-readable label used by explanations and the demo server.
    pub name: String,
}

impl ApproxBytes for SpatioTextualObject {
    /// Object struct, name and keyword ids.
    #[inline]
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<SpatioTextualObject>() + self.name.len() + 4 * self.doc.len()
    }
}

/// Tombstone words per bitset chunk: 4 096 slots, 512 bytes.
const DEAD_CHUNK: usize = 64;

/// An immutable, shareable database of spatial objects.
#[derive(Clone)]
pub struct Corpus {
    /// Every id slot's object, tombstoned ones included. Cloning a corpus
    /// clones one `Arc`; deriving a version shares every untouched chunk.
    slots: ChunkedCow<SpatioTextualObject, CHUNK_SIZE>,
    /// Tombstones: bit `i % 64` of word `i / 64` is set when slot `i` is
    /// deleted.
    dead: ChunkedCow<u64, DEAD_CHUNK>,
    /// Cached live-object count (`slot_count()` minus tombstones).
    live: usize,
    space: Space,
    /// For each keyword, the ids of the objects holding it.
    postings: Postings,
}

impl Corpus {
    /// Number of *live* objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the corpus has no live objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of id slots, including tombstoned ones — the exclusive upper
    /// bound on valid [`ObjectId`] indexes.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of tombstoned slots.
    #[inline]
    pub fn tombstones(&self) -> usize {
        self.slots.len() - self.live
    }

    /// Number of chunks in this version's spine.
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.slots.chunk_count()
    }

    /// True when both corpora are the *same version* (they share one
    /// chunk spine) — the chunked equivalent of pointer equality on the
    /// old flat object array.
    #[inline]
    pub fn same_version(&self, other: &Corpus) -> bool {
        self.slots.same_version(&other.slots)
    }

    /// True when `id` names an existing slot that has not been deleted.
    #[inline]
    pub fn contains(&self, id: ObjectId) -> bool {
        let i = id.index();
        i < self.slots.len() && (self.dead.get(i / 64) >> (i % 64)) & 1 == 0
    }

    /// The normalized data space (bounding box of all object locations
    /// unless overridden at build time).
    #[inline]
    pub fn space(&self) -> Space {
        self.space
    }

    /// The object stored in slot `id`. Panics on an out-of-range id;
    /// resolves tombstoned slots (the payload outlives the deletion so
    /// indexes can still locate the entry they must remove).
    #[inline]
    pub fn get(&self, id: ObjectId) -> &SpatioTextualObject {
        let i = id.index();
        assert!(i < self.slots.len(), "object id {id} out of range");
        self.slots.get(i)
    }

    /// All slots in id order, *including* tombstoned ones — callers that
    /// must skip deleted objects use [`Corpus::iter`].
    pub fn iter_slots(&self) -> impl Iterator<Item = &SpatioTextualObject> {
        self.slots.iter()
    }

    /// Iterates the live objects.
    pub fn iter(&self) -> impl Iterator<Item = &SpatioTextualObject> {
        (0..self.slots.chunk_count()).flat_map(move |ci| {
            // The chunk's tombstone words, read once per chunk.
            let first = ci * CHUNK_SIZE / 64;
            let dead: [u64; CHUNK_SIZE / 64] =
                std::array::from_fn(|w| if first + w < self.dead.len() { *self.dead.get(first + w) } else { 0 });
            self.slots
                .chunk(ci)
                .iter()
                .enumerate()
                .filter_map(move |(j, o)| ((dead[j / 64] >> (j % 64)) & 1 == 0).then_some(o))
        })
    }

    /// Ids of the live objects, ascending.
    pub fn live_ids(&self) -> Vec<ObjectId> {
        self.iter().map(|o| o.id).collect()
    }

    /// Keyword `kw`'s posting list: the ascending ids of the objects
    /// holding it, tombstoned ones included (a reader skips them with
    /// [`Corpus::contains`]). A keyword no object carries — any id
    /// beyond the lists — has an empty list.
    pub fn posting(&self, kw: u32) -> PostingList<'_> {
        self.postings.list(kw)
    }

    /// The union of all live object keyword sets — `D.doc`, used to
    /// normalize vocabulary-wide statistics.
    pub fn all_keywords(&self) -> KeywordSet {
        self.iter()
            .fold(KeywordSet::empty(), |acc, o| acc.union(&o.doc))
    }

    /// Looks up a live object by display name (linear scan; demo-scale
    /// only).
    pub fn find_by_name(&self, name: &str) -> Option<&SpatioTextualObject> {
        self.iter().find(|o| o.name == name)
    }

    /// Derives a new corpus version: `inserts` are appended to fresh slots
    /// (in iteration order) and `deletes` are tombstoned. The data space is
    /// carried over unchanged so score normalization stays stable across
    /// updates. Returns the new version and the ids assigned to the
    /// inserted objects.
    ///
    /// Panics when a delete targets an out-of-range or already-dead slot,
    /// or an insert location is non-finite — the ingest layer validates
    /// batches before applying them.
    pub fn with_updates(
        &self,
        inserts: impl IntoIterator<Item = (Point, KeywordSet, String)>,
        deletes: &[ObjectId],
    ) -> (Corpus, Vec<ObjectId>) {
        let (corpus, new_ids, _) = self.with_updates_counted(inserts, deletes);
        (corpus, new_ids)
    }

    /// [`Corpus::with_updates`] reporting the copy-on-write work the
    /// derivation performed: only the chunks the batch touched are
    /// deep-copied, everything else is shared by `Arc` with `self`. The
    /// bill covers the object chunks inserts append to, the tombstone
    /// chunks deletes touch and the posting-list tails inserts append to.
    pub fn with_updates_counted(
        &self,
        inserts: impl IntoIterator<Item = (Point, KeywordSet, String)>,
        deletes: &[ObjectId],
    ) -> (Corpus, Vec<ObjectId>, CopyStats) {
        let mut next = self.clone();
        let mut stats = CopyStats::default();

        for &id in deletes {
            // Liveness is checked against the *working* version, not
            // `self`: a batch that deletes the same slot twice must trip
            // this assert on the second occurrence.
            assert!(next.contains(id), "delete of unknown or dead object {id:?}");
            let i = id.index();
            *next.dead.make_mut(i / 64, &mut stats) |= 1 << (i % 64);
            next.live -= 1;
        }

        let mut new_ids = Vec::new();
        for (loc, doc, name) in inserts {
            assert!(loc.is_finite(), "object location must be finite: {loc:?}");
            let id = ObjectId(u32::try_from(next.slots.len()).expect("corpus exceeds u32 ids"));
            next.postings.append(id, doc.raw(), &mut stats);
            let object = SpatioTextualObject { id, loc, doc, name };
            if id.index() % 64 == 0 {
                next.dead.push(0, &mut stats);
            }
            next.slots.push(object, &mut stats);
            next.live += 1;
            new_ids.push(id);
        }
        (next, new_ids, stats)
    }
}

impl fmt::Debug for Corpus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Corpus")
            .field("len", &self.len())
            .field("slots", &self.slot_count())
            .field("chunks", &self.chunk_count())
            .field("space", &self.space)
            .finish()
    }
}

/// Builder assembling a [`Corpus`], assigning dense ids in push order.
#[derive(Default)]
pub struct CorpusBuilder {
    slots: Vec<SpatioTextualObject>,
    dead: Vec<u64>,
    space_override: Option<Space>,
}

impl CorpusBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CorpusBuilder::default()
    }

    /// Creates a builder expecting `n` objects.
    pub fn with_capacity(n: usize) -> Self {
        CorpusBuilder {
            slots: Vec::with_capacity(n),
            dead: Vec::with_capacity(n.div_ceil(64)),
            space_override: None,
        }
    }

    /// Forces a specific data space instead of the fitted bounding box
    /// (useful when several corpora must share one normalization, e.g. in
    /// scalability sweeps).
    pub fn with_space(mut self, space: Space) -> Self {
        self.space_override = Some(space);
        self
    }

    /// Adds an object; returns its id. Non-finite locations are rejected.
    pub fn push(&mut self, loc: Point, doc: KeywordSet, name: impl Into<String>) -> ObjectId {
        assert!(loc.is_finite(), "object location must be finite: {loc:?}");
        let id = ObjectId(u32::try_from(self.slots.len()).expect("corpus exceeds u32 ids"));
        let name = name.into();
        let object = SpatioTextualObject { id, loc, doc, name };
        if id.index() % 64 == 0 {
            self.dead.push(0);
        }
        self.slots.push(object);
        id
    }

    /// Tombstones a previously pushed slot — used when reloading a corpus
    /// version that already carried deletions (e.g. from the page store).
    pub fn kill(&mut self, id: ObjectId) {
        assert!(id.index() < self.slots.len(), "kill of unknown slot {id:?}");
        self.dead[id.index() / 64] |= 1 << (id.index() % 64);
    }

    /// Number of objects pushed so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Finalizes the corpus, fitting the data space if not overridden,
    /// and builds the posting lists of the live objects. An empty corpus
    /// gets the unit space.
    pub fn build(self) -> Corpus {
        // The space fits *all* slots, dead ones included, so reloading a
        // corpus that carries tombstones reproduces the original space.
        let space = self.space_override.unwrap_or_else(|| {
            Space::from_points(self.slots.iter().map(|o| o.loc)).unwrap_or_else(Space::unit)
        });
        let dead = &self.dead;
        let live_docs = self
            .slots
            .iter()
            .filter(|o| (dead[o.id.index() / 64] >> (o.id.index() % 64)) & 1 == 0)
            .map(|o| (o.id.0, o.doc.raw()));
        let postings = Postings::build(live_docs.clone());
        let live = live_docs.count();
        Corpus {
            slots: self.slots.into_iter().collect(),
            dead: self.dead.into_iter().collect(),
            live,
            space,
            postings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ks(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_raw(ids.iter().copied())
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = CorpusBuilder::new();
        let a = b.push(Point::new(0.0, 0.0), ks(&[1]), "a");
        let c = b.push(Point::new(1.0, 1.0), ks(&[2]), "c");
        assert_eq!(a, ObjectId(0));
        assert_eq!(c, ObjectId(1));
        let corpus = b.build();
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.get(a).name, "a");
        assert_eq!(corpus.get(c).doc, ks(&[2]));
    }

    #[test]
    fn space_fits_objects() {
        let mut b = CorpusBuilder::new();
        b.push(Point::new(-1.0, 2.0), ks(&[]), "p");
        b.push(Point::new(3.0, 8.0), ks(&[]), "q");
        let corpus = b.build();
        let bounds = corpus.space().bounds();
        assert!(bounds.contains_point(&Point::new(-1.0, 2.0)));
        assert!(bounds.contains_point(&Point::new(3.0, 8.0)));
    }

    #[test]
    fn space_override_is_respected() {
        let forced = Space::unit();
        let mut b = CorpusBuilder::new().with_space(forced);
        b.push(Point::new(100.0, 100.0), ks(&[]), "far");
        let corpus = b.build();
        assert_eq!(corpus.space(), forced);
    }

    #[test]
    fn empty_corpus_has_unit_space() {
        let corpus = CorpusBuilder::new().build();
        assert!(corpus.is_empty());
        assert_eq!(corpus.space(), Space::unit());
        assert!(corpus.all_keywords().is_empty());
        assert_eq!(corpus.chunk_count(), 0);
    }

    #[test]
    fn all_keywords_is_union() {
        let mut b = CorpusBuilder::new();
        b.push(Point::new(0.0, 0.0), ks(&[1, 2]), "a");
        b.push(Point::new(0.1, 0.1), ks(&[2, 3]), "b");
        let corpus = b.build();
        assert_eq!(corpus.all_keywords(), ks(&[1, 2, 3]));
    }

    #[test]
    fn find_by_name_works() {
        let mut b = CorpusBuilder::new();
        b.push(Point::new(0.0, 0.0), ks(&[1]), "Starbucks");
        let corpus = b.build();
        assert_eq!(corpus.find_by_name("Starbucks").unwrap().id, ObjectId(0));
        assert!(corpus.find_by_name("Nowhere").is_none());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_location_rejected() {
        let mut b = CorpusBuilder::new();
        b.push(Point::new(f64::NAN, 0.0), ks(&[]), "bad");
    }

    #[test]
    fn with_updates_appends_and_tombstones() {
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        b.push(Point::new(0.1, 0.1), ks(&[1]), "a");
        b.push(Point::new(0.2, 0.2), ks(&[2]), "b");
        b.push(Point::new(0.3, 0.3), ks(&[3]), "c");
        let v0 = b.build();
        let (v1, new_ids) = v0.with_updates(
            [(Point::new(0.4, 0.4), ks(&[4]), "d".to_owned())],
            &[ObjectId(1)],
        );
        // The old version is untouched.
        assert_eq!(v0.len(), 3);
        assert!(v0.contains(ObjectId(1)));
        // The new version: 3 live (a, c, d), 4 slots, b tombstoned.
        assert_eq!(new_ids, vec![ObjectId(3)]);
        assert_eq!(v1.len(), 3);
        assert_eq!(v1.slot_count(), 4);
        assert_eq!(v1.tombstones(), 1);
        assert!(!v1.contains(ObjectId(1)));
        assert!(v1.contains(ObjectId(3)));
        assert!(!v1.contains(ObjectId(4)), "out of range is not contained");
        // Dead slots keep their payload but vanish from iteration.
        assert_eq!(v1.get(ObjectId(1)).name, "b");
        let names: Vec<&str> = v1.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["a", "c", "d"]);
        assert_eq!(v1.live_ids(), vec![ObjectId(0), ObjectId(2), ObjectId(3)]);
        assert!(v1.find_by_name("b").is_none());
        assert_eq!(v1.all_keywords(), ks(&[1, 3, 4]));
        // Space is carried over, not refitted.
        assert_eq!(v1.space(), v0.space());
    }

    #[test]
    #[should_panic(expected = "unknown or dead")]
    fn with_updates_rejects_double_delete() {
        let mut b = CorpusBuilder::new();
        b.push(Point::new(0.0, 0.0), ks(&[1]), "a");
        let (v1, _) = b.build().with_updates(std::iter::empty(), &[ObjectId(0)]);
        let _ = v1.with_updates(std::iter::empty(), &[ObjectId(0)]);
    }

    #[test]
    #[should_panic(expected = "unknown or dead")]
    fn with_updates_rejects_duplicate_delete_within_one_batch() {
        let mut b = CorpusBuilder::new();
        b.push(Point::new(0.0, 0.0), ks(&[1]), "a");
        b.push(Point::new(0.1, 0.1), ks(&[2]), "b");
        let _ = b
            .build()
            .with_updates(std::iter::empty(), &[ObjectId(0), ObjectId(0)]);
    }

    #[test]
    fn builder_kill_builds_tombstoned_corpus() {
        let mut b = CorpusBuilder::new();
        let a = b.push(Point::new(0.0, 0.0), ks(&[1]), "a");
        b.push(Point::new(1.0, 1.0), ks(&[2]), "b");
        b.kill(a);
        let corpus = b.build();
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus.slot_count(), 2);
        assert!(!corpus.contains(a));
        // Space still fits the dead slot (id stability across reloads).
        assert!(corpus.space().bounds().contains_point(&Point::new(0.0, 0.0)));
    }

    #[test]
    fn corpus_is_cheap_to_clone() {
        let mut b = CorpusBuilder::new();
        for i in 0..100 {
            b.push(Point::new(i as f64, 0.0), ks(&[i]), format!("o{i}"));
        }
        let corpus = b.build();
        let clone = corpus.clone();
        assert_eq!(clone.len(), corpus.len());
        // Same chunk spine behind both.
        assert!(corpus.same_version(&clone));
    }

    fn big_corpus(n: usize) -> Corpus {
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            b.push(
                Point::new((i % 97) as f64 / 97.0, (i % 89) as f64 / 89.0),
                ks(&[(i % 23) as u32]),
                format!("obj-{i}"),
            );
        }
        b.build()
    }

    #[test]
    fn builder_fills_fixed_size_chunks() {
        let n = 3 * CHUNK_SIZE + 17;
        let corpus = big_corpus(n);
        assert_eq!(corpus.chunk_count(), 4);
        assert_eq!(corpus.slot_count(), n);
        // Iteration order is id order across chunk boundaries.
        let ids: Vec<u32> = corpus.iter().map(|o| o.id.0).collect();
        assert_eq!(ids, (0..n as u32).collect::<Vec<_>>());
        assert_eq!(corpus.get(ObjectId(CHUNK_SIZE as u32)).name, format!("obj-{CHUNK_SIZE}"));
    }

    #[test]
    fn with_updates_copies_only_touched_chunks() {
        let n = 8 * CHUNK_SIZE;
        let v0 = big_corpus(n);
        // One delete in chunk 2, one insert extending the (full) tail:
        // the insert opens a fresh slot chunk, the first chunk of the
        // posting-tail directory and keyword 1's first tail block, so
        // exactly one pre-existing chunk is deep-copied.
        let (v1, ids, stats) = v0.with_updates_counted(
            [(Point::new(0.5, 0.5), ks(&[1]), "new".to_owned())],
            &[ObjectId((2 * CHUNK_SIZE + 3) as u32)],
        );
        assert_eq!(ids, vec![ObjectId(n as u32)]);
        assert_eq!(stats.chunks_copied, 1);
        assert_eq!(stats.chunks_created, 3);
        assert!(stats.bytes_copied > 0);
        assert!(
            stats.bytes_copied < 3 * CHUNK_SIZE * 64,
            "copied more than ~one chunk: {} bytes",
            stats.bytes_copied
        );
        // A second single-object batch on the new version touches the
        // (now partial) tail slot chunk and the one posting-tail
        // directory chunk, and opens keyword 2's first tail block.
        let (_, _, stats2) = v1.with_updates_counted(
            [(Point::new(0.6, 0.6), ks(&[2]), "new2".to_owned())],
            &[],
        );
        assert_eq!(stats2.chunks_copied, 2);
        assert_eq!(stats2.chunks_created, 1);
    }

    #[test]
    fn copy_work_is_flat_in_corpus_size() {
        // The acceptance bar: at a fixed batch size, bytes copied per
        // batch must not grow with n — once n fills the 4 096-slot
        // tombstone chunk the delete touches.
        let small = big_corpus(4_096);
        let large = big_corpus(16_384);
        let batch = [(Point::new(0.5, 0.5), ks(&[1]), "x".to_owned())];
        let (_, _, s_small) =
            small.with_updates_counted(batch.clone(), &[ObjectId(7)]);
        let (_, _, s_large) = large.with_updates_counted(batch, &[ObjectId(7)]);
        assert_eq!(s_small.chunks_copied, s_large.chunks_copied);
        assert_eq!(s_small.bytes_copied, s_large.bytes_copied);
    }

    #[test]
    fn repeated_deletes_in_one_chunk_copy_it_once() {
        let v0 = big_corpus(2 * CHUNK_SIZE);
        let victims: Vec<ObjectId> = (0..10).map(|i| ObjectId(i * 3)).collect();
        let (v1, _, stats) = v0.with_updates_counted(std::iter::empty(), &victims);
        assert_eq!(stats.chunks_copied, 1, "all victims live in chunk 0");
        assert_eq!(v1.tombstones(), 10);
        assert_eq!(v0.tombstones(), 0, "old version untouched");
        // Untouched chunks are shared, not copied: deriving again from v0
        // bills the same single chunk.
        let (_, _, again) = v0.with_updates_counted(std::iter::empty(), &[ObjectId(1)]);
        assert_eq!(again.chunks_copied, 1);
    }

    #[test]
    fn copy_stats_absorb_accumulates() {
        let mut total = CopyStats::default();
        total.absorb(&CopyStats {
            chunks_copied: 2,
            chunks_created: 1,
            bytes_copied: 100,
        });
        total.absorb(&CopyStats {
            chunks_copied: 1,
            chunks_created: 0,
            bytes_copied: 50,
        });
        assert_eq!(
            total,
            CopyStats {
                chunks_copied: 3,
                chunks_created: 1,
                bytes_copied: 150,
            }
        );
    }

    #[test]
    fn iter_slots_includes_tombstones() {
        let v0 = big_corpus(CHUNK_SIZE + 5);
        let (v1, _) =
            v0.with_updates(std::iter::empty(), &[ObjectId(3), ObjectId(CHUNK_SIZE as u32 + 4)]);
        assert_eq!(v1.iter_slots().count(), CHUNK_SIZE + 5);
        assert_eq!(v1.iter().count(), CHUNK_SIZE + 3);
        // iter_slots stays in id order.
        let ids: Vec<u32> = v1.iter_slots().map(|o| o.id.0).collect();
        assert_eq!(ids, (0..(CHUNK_SIZE + 5) as u32).collect::<Vec<_>>());
    }
}
