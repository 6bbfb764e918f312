//! Out-of-core R-tree arenas: [`PagedNodeSource`] serves a tree's node
//! chunks through the [`BufferPool`] instead of resident memory.
//!
//! A resident tree is *paged out* by encoding every arena chunk into its
//! own byte stream in the page file ([`PagedNodeSource::build`]) and
//! handing the tree the resulting source ([`page_out_tree`]). From then
//! on `RTree::node` faults whole chunks — 16 nodes at a time — through a
//! small decoded-chunk cache bounded by a byte budget, which in turn
//! reads 4 KiB pages through the buffer pool. The cache hands out clones
//! of the `Arc` it holds: a reader's `NodeRef` pins its chunk, eviction
//! drops only the cache's reference, and an evicted chunk is freed when
//! its last reader lets go. Decoded bytes alive at any moment are the
//! cache's (bounded by the budget) plus at most one evicted chunk per
//! live node reference. Two cache levels, two sets of counters:
//!
//! * chunk level ([`PagedStats`]) — decoded-chunk hits / faults /
//!   evictions, what a query actually pays;
//! * page level ([`crate::PoolStats`]) — buffer-pool hits / misses, what
//!   the disk actually pays.
//!
//! The encoding is exact: keyword-count summaries round-trip
//! bit-identically via [`KcAug::encode`] / [`KcAug::decode`] and MBR
//! coordinates via `f64` bit patterns, so a paged
//! tree answers every query byte-identically to its resident original
//! (property-tested by the out-of-core oracle suite).

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use yask_index::{KcAug, Node, NodeChunk, NodeKind, NodeSource, RTree, RTreeParams};
use yask_geo::{Point, Rect};
use yask_index::{NodeId, ObjectId};

use crate::buffer_pool::BufferPool;
use crate::codec::{StreamReader, StreamWriter};
use crate::page::PageId;

/// Chunk-cache counters for one paged arena. `misses` is the number of
/// chunk faults (each one decodes a full chunk through the buffer pool);
/// `evictions` counts decoded chunks dropped to stay inside the budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagedStats {
    /// Chunk lookups answered from the decoded-chunk cache.
    pub hits: u64,
    /// Chunk faults: lookups that had to decode the chunk from pages.
    pub misses: u64,
    /// Decoded chunks evicted to stay inside the byte budget.
    pub evictions: u64,
    /// Chunks currently decoded and cached.
    pub resident_chunks: usize,
    /// Total chunks in the arena.
    pub chunk_count: usize,
    /// The resident byte budget the cache is bounded by.
    pub budget_bytes: usize,
}

struct CacheEntry {
    chunk: Arc<NodeChunk>,
    last_used: u64,
    bytes: usize,
}

struct Cache {
    entries: HashMap<usize, CacheEntry>,
    cached_bytes: usize,
    tick: u64,
}

/// A [`NodeSource`] that faults arena chunks through the buffer pool on
/// access, keeping at most `budget_bytes` of decoded chunks resident.
pub struct PagedNodeSource {
    pool: Arc<BufferPool>,
    /// Per-chunk `(first page, stream length)` of the encoded chunk.
    directory: Vec<(PageId, u64)>,
    budget_bytes: usize,
    arena_bytes: usize,
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
    /// Encodes every chunk of a resident `tree` into `pool`'s page file
    /// and returns a source serving them with at most `budget_bytes` of
    /// decoded chunks resident. The tree itself is not modified — pass
    /// the result to [`RTree::page_out`] (or use [`page_out_tree`]).
    pub fn build(
        pool: Arc<BufferPool>,
        tree: &RTree,
        budget_bytes: usize,
    ) -> io::Result<Arc<Self>> {
        assert!(!tree.is_paged(), "building a paged source from a paged tree");
        let arena_bytes = tree.arena_bytes();
        let mut directory = Vec::with_capacity(tree.arena_chunk_count());
        for ci in 0..tree.arena_chunk_count() {
            let mut w = StreamWriter::new(&pool)?;
            encode_chunk(&mut w, tree.arena_chunk(ci))?;
            directory.push(w.finish()?);
        }
        Ok(Arc::new(PagedNodeSource {
            pool,
            directory,
            budget_bytes,
            arena_bytes,
            state: Mutex::new(Cache {
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
        }
    }

    /// The buffer pool the encoded chunks live in.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    fn fault(&self, ci: usize) -> io::Result<Arc<NodeChunk>> {
        let (first, len) = self.directory[ci];
        let mut r = StreamReader::new(&self.pool, first, len)?;
        decode_chunk(&mut r).map(Arc::new)
    }
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
        let chunk = self
            .fault(ci)
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

/// Encodes a resident `tree`'s arena into `pool` and switches the tree
/// to serve reads through it, returning the source for stats polling.
pub fn page_out_tree(
    pool: &Arc<BufferPool>,
    tree: &mut RTree,
    budget_bytes: usize,
) -> io::Result<Arc<PagedNodeSource>> {
    let source = PagedNodeSource::build(Arc::clone(pool), tree, budget_bytes)?;
    tree.page_out(source.clone());
    Ok(source)
}

// ---------------------------------------------------------------------------
// Chunk codec
// ---------------------------------------------------------------------------

const KIND_LEAF: u8 = 0;
const KIND_INTERNAL: u8 = 1;

fn encode_chunk(w: &mut StreamWriter<'_>, nodes: &[Node]) -> io::Result<()> {
    w.write_u32(nodes.len() as u32)?;
    let mut aug_buf = Vec::new();
    for n in nodes {
        w.write_f64(n.mbr.lo.x)?;
        w.write_f64(n.mbr.lo.y)?;
        w.write_f64(n.mbr.hi.x)?;
        w.write_f64(n.mbr.hi.y)?;
        match n.aug_opt() {
            None => w.write_u8(0)?,
            Some(a) => {
                w.write_u8(1)?;
                aug_buf.clear();
                a.encode(&mut aug_buf);
                w.write_u32(aug_buf.len() as u32)?;
                w.write_bytes(&aug_buf)?;
            }
        }
        match &n.kind {
            NodeKind::Leaf(entries) => {
                w.write_u8(KIND_LEAF)?;
                w.write_u32(entries.len() as u32)?;
                for id in entries {
                    w.write_u32(id.0)?;
                }
            }
            NodeKind::Internal(children) => {
                w.write_u8(KIND_INTERNAL)?;
                w.write_u32(children.len() as u32)?;
                for id in children {
                    w.write_u32(id.0)?;
                }
            }
        }
    }
    Ok(())
}

fn corrupt(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

fn decode_chunk(r: &mut StreamReader<'_>) -> io::Result<NodeChunk> {
    let count = r.read_u32()? as usize;
    if count > yask_index::NODE_CHUNK_SIZE {
        return Err(corrupt(format!("implausible chunk node count {count}")));
    }
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        let lo = Point { x: r.read_f64()?, y: r.read_f64()? };
        let hi = Point { x: r.read_f64()?, y: r.read_f64()? };
        let mbr = Rect { lo, hi };
        let aug = match r.read_u8()? {
            0 => None,
            1 => {
                let len = r.read_u32()? as usize;
                if len > 1 << 24 {
                    return Err(corrupt(format!("implausible augmentation length {len}")));
                }
                let mut buf = vec![0u8; len];
                r.read_bytes(&mut buf)?;
                let mut cursor = buf.as_slice();
                let a = KcAug::decode(&mut cursor)
                    .ok_or_else(|| corrupt("augmentation failed to decode"))?;
                if !cursor.is_empty() {
                    return Err(corrupt("augmentation decode left trailing bytes"));
                }
                Some(a)
            }
            t => return Err(corrupt(format!("bad augmentation presence tag {t}"))),
        };
        let tag = r.read_u8()?;
        let n = r.read_u32()? as usize;
        if n > RTreeParams::MAX_FANOUT {
            return Err(corrupt(format!("entry count {n} exceeds the fan-out bound")));
        }
        let kind = match tag {
            KIND_LEAF => {
                let mut e = Vec::with_capacity(n);
                for _ in 0..n {
                    e.push(ObjectId(r.read_u32()?));
                }
                NodeKind::Leaf(e)
            }
            KIND_INTERNAL => {
                let mut c = Vec::with_capacity(n);
                for _ in 0..n {
                    c.push(NodeId(r.read_u32()?));
                }
                NodeKind::Internal(c)
            }
            t => return Err(corrupt(format!("bad node kind tag {t}"))),
        };
        nodes.push(Node::from_parts(mbr, aug, kind));
    }
    Ok(NodeChunk::from_nodes(nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::Point;
    use yask_index::{Corpus, CorpusBuilder};
    use yask_text::KeywordSet;

    fn pool() -> Arc<BufferPool> {
        let dir = std::env::temp_dir().join(format!(
            "yask-paged-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.yask");
        let _ = std::fs::remove_file(&path);
        Arc::new(BufferPool::create(&path, 64).unwrap())
    }

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
        let p = pool();
        let src = page_out_tree(&p, &mut paged, resident.arena_bytes() / 4).unwrap();
        assert!(paged.is_paged());

        let probe = Rect::new(Point { x: 10.0, y: 10.0 }, Point { x: 60.0, y: 70.0 });
        assert_eq!(resident.range(&probe), paged.range(&probe));
        assert_eq!(resident.object_ids(), paged.object_ids());
        paged.validate().unwrap();

        let s = src.stats();
        assert!(s.misses > 0, "reads must fault chunks: {s:?}");
        assert!(s.evictions > 0, "a 25% budget must evict: {s:?}");
        assert!(s.resident_chunks < s.chunk_count);
    }

    #[test]
    fn a_held_chunk_pins_only_itself() {
        let resident = RTree::bulk_load(corpus(500), RTreeParams::new(4, 2));
        let mut paged = resident.clone();
        let src = page_out_tree(&pool(), &mut paged, 1).unwrap();
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
        let p = pool();
        page_out_tree(&p, &mut paged, 1).unwrap();
        // Budget of one byte: every chunk access is a fault, the cache
        // holds exactly one chunk at a time.
        assert_eq!(resident.structure(), paged.structure());
    }

    #[test]
    fn mutation_materializes_the_tree_back_to_resident() {
        let resident = tree(200);
        let mut paged = resident.clone();
        let p = pool();
        page_out_tree(&p, &mut paged, resident.arena_bytes() / 2).unwrap();
        assert!(paged.is_paged());

        let c2 = corpus(201);
        let (next, stats) = paged.with_updates(c2, &[ObjectId(200)], &[]);
        assert!(!next.is_paged(), "mutation must materialize");
        assert!(stats.chunks_copied > 0, "materialization bills copies: {stats:?}");
        next.validate().unwrap();
        assert_eq!(next.len(), 201);
    }

    #[test]
    fn pool_counters_price_the_faults() {
        let resident = tree(400);
        let mut paged = resident.clone();
        let p = pool();
        page_out_tree(&p, &mut paged, 1).unwrap();
        let before = p.stats();
        let _ = paged.object_ids();
        let after = p.stats();
        assert!(
            after.hits + after.misses > before.hits + before.misses,
            "chunk faults must be priced on the buffer pool: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn paged_trees_refuse_chunk_sharing_questions() {
        // A paged tree has no resident spine; answering `false` / `0`
        // from an empty one would be a lie. `same_arena` is the defined
        // question.
        let resident = tree(300);
        let mut paged = resident.clone();
        page_out_tree(&pool(), &mut paged, resident.arena_bytes()).unwrap();
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
        let p = pool();
        let ids = (0..3).map(ObjectId).collect();
        let node = Node::from_parts(Rect::EMPTY, None, NodeKind::Leaf(ids));
        let mut w = StreamWriter::new(&p).unwrap();
        encode_chunk(&mut w, &[node]).unwrap();
        let (first, len) = w.finish().unwrap();
        let mut bytes = vec![0u8; len as usize];
        StreamReader::new(&p, first, len).unwrap().read_bytes(&mut bytes).unwrap();

        let decode = |bytes: &[u8]| {
            let mut w = StreamWriter::new(&p).unwrap();
            w.write_bytes(bytes).unwrap();
            let (first, len) = w.finish().unwrap();
            decode_chunk(&mut StreamReader::new(&p, first, len).unwrap())
        };
        assert_eq!(decode(&bytes).unwrap().nodes()[0].entries().len(), 3);
        // node count, MBR, absent-augmentation tag, kind tag — then the
        // entry count's low byte.
        let count_at = 4 + 32 + 1 + 1;
        assert_eq!(bytes[count_at], 3);
        bytes[count_at] = RTreeParams::MAX_FANOUT as u8 + 1;
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("fan-out"), "{err}");
    }

    #[test]
    fn narrow_fanout_tree_pages_too() {
        let resident = RTree::bulk_load(corpus(150), RTreeParams::new(8, 3));
        let mut paged = resident.clone();
        let p = pool();
        page_out_tree(&p, &mut paged, resident.arena_bytes() / 4).unwrap();
        assert_eq!(resident.structure(), paged.structure());
        paged.validate().unwrap();
    }
}
