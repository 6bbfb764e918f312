//! Out-of-core R-tree arenas: [`PagedNodeSource`] serves a tree's node
//! chunks from a run file of its own instead of resident memory.
//!
//! A resident tree is *paged out* by encoding every arena chunk into one
//! contiguous run of a temp file that belongs to that tree alone
//! ([`PagedNodeSource::build`]) and handing the tree the resulting source
//! ([`page_out_tree`]). The file is unlinked as soon as it is created:
//! its open handle keeps it alive, and dropping the last holder of the
//! tree closes it, which frees every run. From then on `RTree::node`
//! faults whole chunks — 16 nodes at a time — through a decoded-chunk
//! cache bounded by a byte budget; a fault is one read of the chunk's
//! run plus its decode, under the cache's lock. The cache hands out
//! clones of the `Arc` it holds: a reader's `NodeRef` pins its chunk,
//! eviction drops only the cache's reference, and an evicted chunk is
//! freed when its last reader lets go. Decoded bytes alive at any moment
//! are the cache's (bounded by the budget) plus at most one evicted
//! chunk per live node reference. There is one cache level, and
//! [`PagedStats`] counts it: decoded-chunk hits, faults and evictions,
//! what a query actually pays, plus the run bytes the file holds.
//!
//! The encoding is exact: keyword-count summaries round-trip
//! bit-identically via [`KcAug::encode`] / [`KcAug::decode`] and MBR
//! coordinates via `f64` bit patterns, so a paged
//! tree answers every query byte-identically to its resident original
//! (property-tested by the out-of-core oracle suite). The run file is
//! private to one process, so its format carries no version.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use yask_index::{KcAug, Node, NodeChunk, NodeKind, NodeSource, RTree, RTreeParams};
use yask_geo::{Point, Rect};
use yask_index::{NodeId, ObjectId};

/// Chunk-cache counters for one paged arena. `misses` is the number of
/// chunk faults (each one reads and decodes a chunk's run); `evictions`
/// counts decoded chunks dropped to stay inside the budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagedStats {
    /// Chunk lookups answered from the decoded-chunk cache.
    pub hits: u64,
    /// Chunk faults: lookups that had to read and decode the chunk's run.
    pub misses: u64,
    /// Decoded chunks evicted to stay inside the byte budget.
    pub evictions: u64,
    /// Chunks currently decoded and cached.
    pub resident_chunks: usize,
    /// Total chunks in the arena.
    pub chunk_count: usize,
    /// The resident byte budget the cache is bounded by.
    pub budget_bytes: usize,
    /// Bytes of encoded runs in the tree's file.
    pub disk_bytes: u64,
}

struct CacheEntry {
    chunk: Arc<NodeChunk>,
    last_used: u64,
    bytes: usize,
}

struct Cache {
    /// The tree's run file; faults read it under the cache's lock.
    file: File,
    entries: HashMap<usize, CacheEntry>,
    cached_bytes: usize,
    tick: u64,
}

/// A [`NodeSource`] that faults arena chunks from the tree's run file on
/// access, keeping at most `budget_bytes` of decoded chunks resident.
pub struct PagedNodeSource {
    /// Per-chunk `(offset, length)` of the chunk's run in the file.
    directory: Vec<(u64, usize)>,
    budget_bytes: usize,
    arena_bytes: usize,
    disk_bytes: u64,
    state: Mutex<Cache>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PagedNodeSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedNodeSource")
            .field("chunks", &self.directory.len())
            .field("budget_bytes", &self.budget_bytes)
            .field("arena_bytes", &self.arena_bytes)
            .finish_non_exhaustive()
    }
}

impl PagedNodeSource {
    /// Encodes every chunk of a resident `tree` as one run of a fresh,
    /// unlinked temp file and returns a source serving them with at most
    /// `budget_bytes` of decoded chunks resident. The tree itself is not
    /// modified — pass the result to [`RTree::page_out`] (or use
    /// [`page_out_tree`]).
    pub fn build(tree: &RTree, budget_bytes: usize) -> io::Result<Arc<Self>> {
        assert!(!tree.is_paged(), "building a paged source from a paged tree");
        let file = run_file()?;
        let mut run = Vec::new();
        let mut directory = Vec::with_capacity(tree.arena_chunk_count());
        let mut disk_bytes = 0;
        for ci in 0..tree.arena_chunk_count() {
            run.clear();
            encode_chunk(tree.arena_chunk(ci), &mut run);
            (&file).write_all(&run)?;
            directory.push((disk_bytes, run.len()));
            disk_bytes += run.len() as u64;
        }
        Ok(Arc::new(PagedNodeSource {
            directory,
            budget_bytes,
            arena_bytes: tree.arena_bytes(),
            disk_bytes,
            state: Mutex::new(Cache {
                file,
                entries: HashMap::new(),
                cached_bytes: 0,
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }))
    }

    /// Chunk-cache counters (see [`PagedStats`]).
    pub fn stats(&self) -> PagedStats {
        let st = self.state.lock();
        PagedStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_chunks: st.entries.len(),
            chunk_count: self.directory.len(),
            budget_bytes: self.budget_bytes,
            disk_bytes: self.disk_bytes,
        }
    }
}

/// Creates a tree's run file in the temp directory and unlinks it at
/// once: the handle keeps the file alive, and closing it frees the runs.
fn run_file() -> io::Result<File> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "yask-runs-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let file = OpenOptions::new().read(true).write(true).create_new(true).open(&path)?;
    std::fs::remove_file(&path)?;
    Ok(file)
}

/// One chunk fault: a single read of the chunk's run, then its decode.
fn fault(file: &mut File, (offset, len): (u64, usize)) -> io::Result<NodeChunk> {
    yask_util::failpoint::fire("pager.read")?;
    let mut run = vec![0u8; len];
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(&mut run)?;
    decode_chunk(&run)
}

impl NodeSource for PagedNodeSource {
    fn chunk_count(&self) -> usize {
        self.directory.len()
    }

    fn approx_bytes(&self) -> usize {
        self.arena_bytes
    }

    fn chunk(&self, ci: usize) -> Arc<NodeChunk> {
        let mut st = self.state.lock();
        st.tick += 1;
        let tick = st.tick;
        if let Some(e) = st.entries.get_mut(&ci) {
            e.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&e.chunk);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let chunk = fault(&mut st.file, self.directory[ci])
            .map(Arc::new)
            .unwrap_or_else(|e| panic!("paged arena chunk {ci} unreadable: {e}"));
        let bytes = chunk.approx_bytes();
        st.cached_bytes += bytes;
        st.entries.insert(ci, CacheEntry { chunk: Arc::clone(&chunk), last_used: tick, bytes });
        // Evict least-recently-used chunks down to the budget, always
        // keeping the chunk just faulted in. A victim a reader still
        // holds lives on in that reader's `Arc` only.
        while st.cached_bytes > self.budget_bytes && st.entries.len() > 1 {
            let lru = st
                .entries
                .iter()
                .filter(|(k, _)| **k != ci)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("len > 1 so a victim exists");
            let victim = st.entries.remove(&lru).expect("victim present");
            st.cached_bytes -= victim.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        chunk
    }
}

/// Writes a resident `tree`'s arena to a run file of its own and switches
/// the tree to serve reads through it, returning the source for stats
/// polling.
pub fn page_out_tree(tree: &mut RTree, budget_bytes: usize) -> io::Result<Arc<PagedNodeSource>> {
    let source = PagedNodeSource::build(tree, budget_bytes)?;
    tree.page_out(source.clone());
    Ok(source)
}

// ---------------------------------------------------------------------------
// Chunk codec: one chunk is one run of little-endian fields
// ---------------------------------------------------------------------------

const KIND_LEAF: u8 = 0;
const KIND_INTERNAL: u8 = 1;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_chunk(nodes: &[Node], out: &mut Vec<u8>) {
    put_u32(out, nodes.len() as u32);
    for n in nodes {
        for v in [n.mbr.lo.x, n.mbr.lo.y, n.mbr.hi.x, n.mbr.hi.y] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        match n.aug_opt() {
            None => out.push(0),
            Some(a) => {
                out.push(1);
                // The augmentation's length prefix, patched once encoded.
                let at = out.len();
                put_u32(out, 0);
                a.encode(out);
                let len = (out.len() - at - 4) as u32;
                out[at..at + 4].copy_from_slice(&len.to_le_bytes());
            }
        }
        match &n.kind {
            NodeKind::Leaf(entries) => {
                out.push(KIND_LEAF);
                put_u32(out, entries.len() as u32);
                entries.iter().for_each(|id| put_u32(out, id.0));
            }
            NodeKind::Internal(children) => {
                out.push(KIND_INTERNAL);
                put_u32(out, children.len() as u32);
                children.iter().for_each(|id| put_u32(out, id.0));
            }
        }
    }
}

fn corrupt(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// Takes `N` bytes off the front of `buf`, advancing it.
fn take<const N: usize>(buf: &mut &[u8]) -> io::Result<[u8; N]> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or_else(|| corrupt("run ends mid-chunk"))?;
    *buf = rest;
    Ok(*head)
}

fn take_u32(buf: &mut &[u8]) -> io::Result<u32> {
    take(buf).map(u32::from_le_bytes)
}

fn take_f64(buf: &mut &[u8]) -> io::Result<f64> {
    take(buf).map(f64::from_le_bytes)
}

/// Takes `n` ids, `n` already checked against the fan-out bound.
fn take_ids<T>(buf: &mut &[u8], n: usize, id: fn(u32) -> T) -> io::Result<Vec<T>> {
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(id(take_u32(buf)?));
    }
    Ok(ids)
}

/// Decodes one chunk's run. Every length is checked against its bound
/// before anything is reserved for it, so a corrupt run is an `Err`,
/// never a panic or an outsized allocation.
fn decode_chunk(mut buf: &[u8]) -> io::Result<NodeChunk> {
    let buf = &mut buf;
    let count = take_u32(buf)? as usize;
    if count > yask_index::NODE_CHUNK_SIZE {
        return Err(corrupt(format!("implausible chunk node count {count}")));
    }
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        let lo = Point { x: take_f64(buf)?, y: take_f64(buf)? };
        let hi = Point { x: take_f64(buf)?, y: take_f64(buf)? };
        let mbr = Rect { lo, hi };
        let aug = match take::<1>(buf)?[0] {
            0 => None,
            1 => {
                let len = take_u32(buf)? as usize;
                if len > 1 << 24 {
                    return Err(corrupt(format!("implausible augmentation length {len}")));
                }
                let (mut aug, rest) =
                    buf.split_at_checked(len).ok_or_else(|| corrupt("run ends mid-augmentation"))?;
                *buf = rest;
                let a = KcAug::decode(&mut aug)
                    .ok_or_else(|| corrupt("augmentation failed to decode"))?;
                if !aug.is_empty() {
                    return Err(corrupt("augmentation decode left trailing bytes"));
                }
                Some(a)
            }
            t => return Err(corrupt(format!("bad augmentation presence tag {t}"))),
        };
        let tag = take::<1>(buf)?[0];
        let n = take_u32(buf)? as usize;
        if n > RTreeParams::MAX_FANOUT {
            return Err(corrupt(format!("entry count {n} exceeds the fan-out bound")));
        }
        let kind = match tag {
            KIND_LEAF => NodeKind::Leaf(take_ids(buf, n, ObjectId)?),
            KIND_INTERNAL => NodeKind::Internal(take_ids(buf, n, NodeId)?),
            t => return Err(corrupt(format!("bad node kind tag {t}"))),
        };
        nodes.push(Node::from_parts(mbr, aug, kind));
    }
    if !buf.is_empty() {
        return Err(corrupt("trailing bytes after the chunk"));
    }
    Ok(NodeChunk::from_nodes(nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use yask_geo::Point;
    use yask_index::{Corpus, CorpusBuilder};
    use yask_text::KeywordSet;

    fn corpus(n: usize) -> Corpus {
        let mut b = CorpusBuilder::new();
        for i in 0..n {
            let x = (i as f64 * 37.0) % 100.0;
            let y = (i as f64 * 53.0) % 100.0;
            let doc = KeywordSet::from_raw((0..3).map(|j| ((i + j * 7) % 23) as u32));
            b.push(Point { x, y }, doc, format!("obj{i}"));
        }
        b.build()
    }

    fn tree(n: usize) -> RTree {
        RTree::bulk_load(corpus(n), RTreeParams::default())
    }

    #[test]
    fn paged_tree_answers_reads_identically() {
        let resident = tree(500);
        let mut paged = resident.clone();
        let src = page_out_tree(&mut paged, resident.arena_bytes() / 4).unwrap();
        assert!(paged.is_paged());

        let probe = Rect::new(Point { x: 10.0, y: 10.0 }, Point { x: 60.0, y: 70.0 });
        assert_eq!(resident.range(&probe), paged.range(&probe));
        assert_eq!(resident.object_ids(), paged.object_ids());
        paged.validate().unwrap();

        let s = src.stats();
        assert!(s.misses > 0, "reads must fault chunks: {s:?}");
        assert!(s.evictions > 0, "a 25% budget must evict: {s:?}");
        assert!(s.resident_chunks < s.chunk_count);
        assert!(s.disk_bytes > 0, "the runs live in the tree's file: {s:?}");
    }

    #[test]
    fn a_held_chunk_pins_only_itself() {
        let resident = RTree::bulk_load(corpus(500), RTreeParams::new(4, 2));
        let mut paged = resident.clone();
        let src = page_out_tree(&mut paged, 1).unwrap();
        // A long-running reader holds chunk 0 while every other chunk
        // faults through a one-byte budget.
        let held = src.chunk(0);
        let count = src.stats().chunk_count;
        assert!(count >= 3, "fixture too small: {count} chunks");
        let faulted: Vec<std::sync::Weak<NodeChunk>> = (1..count)
            .map(|ci| Arc::downgrade(&src.chunk(ci)))
            .collect();
        assert_eq!(src.stats().resident_chunks, 1);
        let (evicted, cached) = faulted.split_at(count - 2);
        assert!(
            evicted.iter().all(|w| w.upgrade().is_none()),
            "an evicted chunk outlived its readers"
        );
        assert!(cached[0].upgrade().is_some(), "the last fault stays cached");
        // The reader's chunk was evicted too, and lives on in its Arc only.
        assert_eq!(Arc::strong_count(&held), 1);
        assert_eq!(held.nodes().len(), resident.arena_chunk(0).len());
    }

    #[test]
    fn structure_survives_the_round_trip_exactly() {
        let resident = tree(300);
        let mut paged = resident.clone();
        page_out_tree(&mut paged, 1).unwrap();
        // Budget of one byte: every chunk access is a fault, the cache
        // holds exactly one chunk at a time.
        assert_eq!(resident.structure(), paged.structure());
    }

    #[test]
    fn mutation_materializes_the_tree_back_to_resident() {
        let resident = tree(200);
        let mut paged = resident.clone();
        page_out_tree(&mut paged, resident.arena_bytes() / 2).unwrap();
        assert!(paged.is_paged());

        let c2 = corpus(201);
        let (next, stats) = paged.with_updates(c2, &[ObjectId(200)], &[]);
        assert!(!next.is_paged(), "mutation must materialize");
        assert!(stats.chunks_copied > 0, "materialization bills copies: {stats:?}");
        next.validate().unwrap();
        assert_eq!(next.len(), 201);
    }

    #[test]
    fn paged_trees_refuse_chunk_sharing_questions() {
        // A paged tree has no resident spine; answering `false` / `0`
        // from an empty one would be a lie. `same_arena` is the defined
        // question.
        let resident = tree(300);
        let mut paged = resident.clone();
        page_out_tree(&mut paged, resident.arena_bytes()).unwrap();
        assert!(paged.same_arena(&paged.clone()));
        assert!(!paged.same_arena(&resident));
        let refused = |f: &dyn Fn()| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
        };
        assert!(refused(&|| {
            paged.shares_chunk(&resident, 0);
        }));
        assert!(refused(&|| {
            resident.shared_chunk_count(&paged);
        }));
        assert!(refused(&|| {
            paged.arena_chunk(0);
        }));
    }

    #[test]
    fn decode_rejects_an_entry_count_above_the_fan_out_bound() {
        let ids = (0..3).map(ObjectId).collect();
        let node = Node::from_parts(Rect::EMPTY, None, NodeKind::Leaf(ids));
        let mut bytes = Vec::new();
        encode_chunk(&[node], &mut bytes);
        assert_eq!(decode_chunk(&bytes).unwrap().nodes()[0].entries().len(), 3);
        // node count, MBR, absent-augmentation tag, kind tag — then the
        // entry count's low byte.
        let count_at = 4 + 32 + 1 + 1;
        assert_eq!(bytes[count_at], 3);
        bytes[count_at] = RTreeParams::MAX_FANOUT as u8 + 1;
        let err = decode_chunk(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("fan-out"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every strict prefix of a valid run, the run with a byte
        /// appended, and random bytes decode to `Err` without panicking;
        /// the full run decodes to a chunk that encodes back to the same
        /// bytes.
        #[test]
        fn the_run_decoder_rejects_truncations_and_noise(
            n in 1usize..120,
            fanout in 4usize..12,
            noise in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            let tree = RTree::bulk_load(corpus(n), RTreeParams::new(fanout, 2));
            for ci in 0..tree.arena_chunk_count().min(3) {
                let mut run = Vec::new();
                encode_chunk(tree.arena_chunk(ci), &mut run);
                let mut again = Vec::new();
                encode_chunk(decode_chunk(&run).unwrap().nodes(), &mut again);
                prop_assert_eq!(&again, &run);
                for cut in 0..run.len() {
                    prop_assert!(decode_chunk(&run[..cut]).is_err(), "prefix of {} bytes decoded", cut);
                }
                let mut long = run.clone();
                long.push(0);
                prop_assert!(decode_chunk(&long).is_err());
                // A flipped byte anywhere decodes or errs, never panics.
                for flip in noise.chunks_exact(2) {
                    let mut bent = run.clone();
                    bent[flip[0] as usize * run.len() / 256] = flip[1];
                    let _ = decode_chunk(&bent);
                }
            }
            prop_assert!(decode_chunk(&noise).is_err());
        }
    }

    #[test]
    fn narrow_fanout_tree_pages_too() {
        let resident = RTree::bulk_load(corpus(150), RTreeParams::new(8, 3));
        let mut paged = resident.clone();
        page_out_tree(&mut paged, resident.arena_bytes() / 4).unwrap();
        assert_eq!(resident.structure(), paged.structure());
        paged.validate().unwrap();
    }
}
