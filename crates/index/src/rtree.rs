//! The arena-based R-tree the shards serve from.
//!
//! A node carries its MBR and its entries and nothing else: no keyword
//! summary. The served top-k scores its keyword half off the corpus's
//! posting lists and descends the tree on distance alone, so nothing
//! served reads a keyword bound; the KcR-tree's keyword counts (paper
//! Fig 2) are computed on demand from the leaves for the experiments
//! that compare bounds ([`crate::KcAug::side_table`]). Supported
//! operations:
//!
//! * [`RTree::bulk_load`] — Sort-Tile-Recursive packing (see [`crate::bulk`]),
//! * [`RTree::insert`] — Guttman insertion with quadratic splits,
//! * [`RTree::delete`] — with subtree condensation and reinsertion,
//! * [`RTree::with_updates`] — persistent path-copying batch derivation,
//! * [`RTree::range`] — the spatial range query,
//! * [`RTree::validate`] — full structural invariant check.
//!
//! **Persistent chunked arena.** Nodes live in a [`ChunkedCow`] of
//! [`NODE_CHUNK_SIZE`]-node chunks — the same container as the
//! [`Corpus`]; see [`crate::cow`] for the layout and the one copy rule.
//! `NodeId`s are stable flat indexes, so splits never move nodes and the
//! traversal code in the query and why-not crates can hold plain ids.
//! Two tree versions structurally share every chunk no root-to-leaf
//! spine, split, or condensation wrote into, which makes
//! [`RTree::with_updates`] O(spine × chunk), not O(n), and the work is
//! reported as a [`CopyStats`] the executor accumulates onto `/stats`.
//!
//! Freed slots are tracked by a free-list stack plus a bitset
//! (`RTree::dealloc` never writes the slot itself — older versions may
//! still share the chunk, so tombstoning in place would force a pointless
//! chunk copy; the slot is rewritten only when `RTree::alloc` reuses it).
//!
//! **Out of core.** A tree can instead serve its chunks from a
//! [`NodeSource`] ([`RTree::page_out`]), which faults them in on demand
//! and may evict them again. [`RTree::node`] returns a [`NodeRef`]: a
//! plain borrow of the spine on a resident tree, and on a paged tree the
//! chunk's `Arc` plus an offset. The refcount is the pin — an evicted
//! chunk stays alive exactly as long as some `NodeRef` still holds it —
//! so traversals need no read section and the source's budget bounds
//! its cache, not its readers.

use std::ops::Deref;
use std::sync::Arc;

use yask_geo::{Point, Rect};

use crate::corpus::{Corpus, ObjectId};
use crate::cow::{ApproxBytes, Chunk, ChunkedCow, CopyStats};

/// Nodes per arena chunk. The value balances two costs: a batch's copy
/// bill is O(spine × chunk bytes), so big chunks overpay per touched path
/// (at default fanout 32, a whole 20k-object shard tree is ~160 nodes —
/// a 256-node chunk would make "path copying" copy the entire tree);
/// tiny chunks bloat the spine
/// (one `Arc` per chunk, spine copied per batch). Bulk loads place nodes
/// in DFS order (see `RTree::relayout_dfs`), so a root-to-leaf spine
/// touches one chunk per level rather than the one tail chunk every
/// internal node would share in level order.
pub const NODE_CHUNK_SIZE: usize = 16;

/// Identifier of a node in the tree arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Leaf/internal payload of a node.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// Object entries (ids into the corpus).
    Leaf(Vec<ObjectId>),
    /// Child node ids.
    Internal(Vec<NodeId>),
}

/// One R-tree node: bounding rectangle and entries.
#[derive(Clone, Debug)]
pub struct Node {
    /// Minimum bounding rectangle of everything below this node.
    pub mbr: Rect,
    /// Entries.
    pub kind: NodeKind,
}

impl Node {
    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf(_))
    }

    /// Leaf entries. Panics on internal nodes.
    pub fn entries(&self) -> &[ObjectId] {
        match &self.kind {
            NodeKind::Leaf(e) => e,
            NodeKind::Internal(_) => panic!("entries() on internal node"),
        }
    }

    /// Child ids. Panics on leaf nodes.
    pub fn children(&self) -> &[NodeId] {
        match &self.kind {
            NodeKind::Internal(c) => c,
            NodeKind::Leaf(_) => panic!("children() on leaf node"),
        }
    }

    /// Number of entries (objects or children).
    pub fn entry_count(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(e) => e.len(),
            NodeKind::Internal(c) => c.len(),
        }
    }
}

impl ApproxBytes for Node {
    /// Frame and entry vector.
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Node>() + 4 * self.entry_count()
    }
}

/// One chunk of the node arena: [`NODE_CHUNK_SIZE`] consecutive slots
/// (fewer in the arena's last chunk).
pub type NodeChunk = Chunk<Node, NODE_CHUNK_SIZE>;

impl NodeChunk {
    /// Rebuilds a chunk from decoded nodes (the paged-arena load path).
    pub fn from_nodes(nodes: Vec<Node>) -> Self {
        Chunk::from_items(nodes)
    }

    /// The nodes of this chunk, in slot order.
    pub fn nodes(&self) -> &[Node] {
        self.items()
    }
}

/// The resident node arena.
type NodeArena = ChunkedCow<Node, NODE_CHUNK_SIZE>;

/// Where a tree's nodes live.
#[derive(Clone, Debug)]
enum Arena {
    /// In memory, copy-on-write per chunk.
    Resident(NodeArena),
    /// Out of core: reads fault chunks through the source, and any
    /// mutation first [`RTree::materialize`]s the tree back to resident.
    Paged(Arc<dyn NodeSource>),
}

/// A fault-in provider of arena chunks — the out-of-core backing of a
/// paged tree. Implementations (e.g. `yask_pager`'s run-file-backed
/// source) cache decoded chunks under a resident budget and may evict
/// them again. A chunk is handed out as a clone of the `Arc` the cache
/// holds, so eviction only drops the cache's reference: a reader keeps
/// its chunk alive for as long as it holds it, and the chunk is freed
/// when the last holder lets go.
pub trait NodeSource: Send + Sync + std::fmt::Debug {
    /// Number of chunks in the paged arena (spine length).
    fn chunk_count(&self) -> usize;

    /// Approximate decoded bytes of the whole arena (the resident
    /// equivalent of [`RTree::arena_bytes`]).
    fn approx_bytes(&self) -> usize;

    /// Chunk `ci`, faulted in if it is not cached.
    fn chunk(&self, ci: usize) -> Arc<NodeChunk>;
}

/// A node of the arena, as [`RTree::node`] hands it out; derefs to
/// [`Node`]. Resident nodes are borrowed from the chunk spine (no
/// refcount traffic); a paged node holds its chunk's `Arc`, which keeps
/// the chunk alive across any eviction while the reference lives.
pub struct NodeRef<'a>(Backing<'a>);

enum Backing<'a> {
    Resident(&'a Node),
    Paged(Arc<NodeChunk>, usize),
}

impl Deref for NodeRef<'_> {
    type Target = Node;

    #[inline]
    fn deref(&self) -> &Node {
        match &self.0 {
            Backing::Resident(node) => node,
            Backing::Paged(chunk, offset) => &chunk.items()[*offset],
        }
    }
}

/// Fanout parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RTreeParams {
    /// Maximum entries per node (at most [`RTreeParams::MAX_FANOUT`]).
    pub max_entries: usize,
    /// Minimum entries per non-root node after deletion condensation.
    pub min_entries: usize,
}

impl RTreeParams {
    /// The widest fan-out a tree can have: the bound the paged arena's
    /// chunk decoder holds a stored entry count to, so a corrupt count is
    /// rejected instead of sizing an allocation no real node needs.
    pub const MAX_FANOUT: usize = 64;

    /// Creates parameters, checking `2 ≤ min ≤ max/2` and `max ≤ 64`.
    pub fn new(max_entries: usize, min_entries: usize) -> Self {
        assert!(
            max_entries <= Self::MAX_FANOUT,
            "fanout {max_entries} exceeds 64 (the entry count chunk decoding accepts)"
        );
        assert!(min_entries >= 2, "min_entries must be ≥ 2");
        assert!(
            min_entries * 2 <= max_entries,
            "min_entries {min_entries} must be ≤ max_entries/2 ({max_entries}/2)"
        );
        RTreeParams {
            max_entries,
            min_entries,
        }
    }
}

impl Default for RTreeParams {
    /// Fanout 32/12, the classic 40% minimum fill.
    fn default() -> Self {
        RTreeParams::new(32, 12)
    }
}

/// The R-tree. See the module docs for the operations and the
/// persistent arena layout.
#[derive(Clone, Debug)]
pub struct RTree {
    corpus: Corpus,
    arena: Arena,
    /// Total allocated slots (including freed ones) — the exclusive upper
    /// bound on valid `NodeId` indexes.
    slots: usize,
    /// Freed slot stack, popped by [`RTree::alloc`] for reuse.
    free: Vec<u32>,
    /// Freed-slot bitset (one bit per slot) — O(1) membership for the
    /// delete condensation path, where a linear `free.contains` scan made
    /// delete-heavy batches quadratic.
    freed: Vec<u64>,
    root: Option<NodeId>,
    /// Number of levels (0 for an empty tree; 1 for a root-leaf tree).
    height: usize,
    /// Number of indexed objects.
    len: usize,
    /// True when the tree is known to index exactly its corpus's live
    /// objects: set by [`RTree::bulk_load`] and
    /// [`RTree::build_by_insertion`], kept by [`RTree::with_updates`],
    /// cleared by any other change to the tree or its corpus.
    whole: bool,
    params: RTreeParams,
    /// Copy-on-write work since the last [`RTree::reset_copy_stats`].
    copy: CopyStats,
}

impl RTree {
    /// Creates an empty tree over `corpus` (no objects indexed yet).
    pub fn new(corpus: Corpus, params: RTreeParams) -> Self {
        RTree {
            corpus,
            arena: Arena::Resident(std::iter::empty().collect()),
            slots: 0,
            free: Vec::new(),
            freed: Vec::new(),
            root: None,
            height: 0,
            len: 0,
            whole: false,
            params,
            copy: CopyStats::default(),
        }
    }

    /// Bulk-loads every object of the corpus (STR packing).
    pub fn bulk_load(corpus: Corpus, params: RTreeParams) -> Self {
        let ids: Vec<ObjectId> = corpus.iter().map(|o| o.id).collect();
        let mut t = Self::bulk_load_subset(corpus, &ids, params);
        t.whole = true;
        t
    }

    /// Bulk-loads a subset of the corpus (STR packing).
    pub fn bulk_load_subset(corpus: Corpus, ids: &[ObjectId], params: RTreeParams) -> Self {
        crate::bulk::str_bulk_load(corpus, ids, params)
    }

    /// Builds by repeated insertion — used by tests to exercise the
    /// dynamic path against the bulk path.
    pub fn build_by_insertion(corpus: Corpus, params: RTreeParams) -> Self {
        let ids: Vec<ObjectId> = corpus.iter().map(|o| o.id).collect();
        let mut t = RTree::new(corpus, params);
        for id in ids {
            t.insert(id);
        }
        t.whole = true;
        t
    }

    // -- accessors ---------------------------------------------------------

    /// The corpus this tree indexes.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Swaps in a newer version of the corpus. The new version must keep
    /// every existing slot (ids are positional), which every corpus
    /// derived through [`Corpus::with_updates`] does; the tree itself is
    /// untouched — follow up with [`RTree::insert`] / [`RTree::delete`]
    /// for the objects that changed.
    pub fn set_corpus(&mut self, corpus: Corpus) {
        assert!(
            corpus.slot_count() >= self.corpus.slot_count(),
            "corpus version shrank: {} < {} slots",
            corpus.slot_count(),
            self.corpus.slot_count()
        );
        self.corpus = corpus;
        self.whole = false;
    }

    /// Root node id, `None` for an empty tree.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// A node. On a paged tree this may fault the chunk in from disk, and
    /// the returned [`NodeRef`] keeps that chunk alive while it lives.
    #[inline]
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        NodeRef(match &self.arena {
            Arena::Resident(nodes) => Backing::Resident(nodes.get(id.index())),
            Arena::Paged(src) => {
                let (ci, offset) = NodeArena::locate(id.index());
                Backing::Paged(src.chunk(ci), offset)
            }
        })
    }

    /// True when the arena is served out-of-core through a
    /// [`NodeSource`] instead of resident chunks.
    pub fn is_paged(&self) -> bool {
        matches!(self.arena, Arena::Paged(_))
    }

    /// Switches the arena to out-of-core backing: `source` must hold
    /// exactly this tree's chunks (same count, same slot layout),
    /// typically built by encoding a resident tree into a run file.
    /// Reads fault chunks through the source from now on; the first
    /// mutation [`RTree::materialize`]s the tree back to resident form.
    pub fn page_out(&mut self, source: Arc<dyn NodeSource>) {
        assert!(!self.is_paged(), "tree is already paged");
        assert_eq!(
            source.chunk_count(),
            self.arena_chunk_count(),
            "paged source shape does not match the arena spine"
        );
        self.arena = Arena::Paged(source);
    }

    /// Rebuilds the resident chunk spine from the paged source and drops
    /// the source — the inverse of [`RTree::page_out`]. No-op on
    /// resident trees. The copy is billed to [`RTree::copy_stats`] like
    /// any other arena materialization work.
    pub fn materialize(&mut self) {
        let Arena::Paged(src) = &self.arena else { return };
        let nodes: NodeArena = (0..src.chunk_count())
            .flat_map(|ci| src.chunk(ci).items().to_vec())
            .collect();
        self.copy.chunks_copied += nodes.chunk_count();
        self.copy.bytes_copied += nodes.approx_bytes();
        self.arena = Arena::Resident(nodes);
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree is known to index exactly the live objects of
    /// its corpus — a whole-corpus build, and the versions
    /// [`RTree::with_updates`] derives from one. A shard, a subset load,
    /// or a tree changed through [`RTree::insert`], [`RTree::delete`] or
    /// [`RTree::set_corpus`] is not.
    pub fn is_whole(&self) -> bool {
        self.whole
    }

    /// True when no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height in levels (0 when empty, 1 for a single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Fanout parameters.
    pub fn params(&self) -> RTreeParams {
        self.params
    }

    // -- arena introspection ------------------------------------------------

    /// Number of chunks in the node arena's spine.
    pub fn arena_chunk_count(&self) -> usize {
        match &self.arena {
            Arena::Resident(nodes) => nodes.chunk_count(),
            Arena::Paged(src) => src.chunk_count(),
        }
    }

    /// The resident arena. Panics on a paged tree: its chunks live
    /// behind the [`NodeSource`], so there is no resident spine to export
    /// or compare — [`RTree::same_arena`] is the question that is defined
    /// for both.
    fn resident(&self) -> &NodeArena {
        match &self.arena {
            Arena::Resident(nodes) => nodes,
            Arena::Paged(_) => panic!("resident arena access on a paged tree"),
        }
    }

    /// Borrows the nodes of resident arena chunk `ci` — the export
    /// surface the paged-source builder encodes from. Panics on a paged
    /// tree.
    pub fn arena_chunk(&self, ci: usize) -> &[Node] {
        self.resident().chunk(ci)
    }

    /// Total allocated node slots, including freed ones.
    pub fn arena_slots(&self) -> usize {
        self.slots
    }

    /// Number of freed (reusable) node slots.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Approximate resident bytes of the whole node slab — every
    /// allocated slot, freed ones included (their payload is retained
    /// until reuse; see the module docs). Compare with
    /// [`crate::TreeStats::bytes`], which counts reachable nodes only.
    pub fn arena_bytes(&self) -> usize {
        match &self.arena {
            Arena::Resident(nodes) => nodes.approx_bytes(),
            Arena::Paged(src) => src.approx_bytes(),
        }
    }

    /// True when both trees are the *same arena version* (they share one
    /// chunk spine, or one paged source) — the tree equivalent of
    /// [`Corpus::same_version`].
    pub fn same_arena(&self, other: &Self) -> bool {
        match (&self.arena, &other.arena) {
            (Arena::Resident(a), Arena::Resident(b)) => a.same_version(b),
            (Arena::Paged(a), Arena::Paged(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// True when chunk `i` is physically shared (one allocation) between
    /// both trees — the assertion surface of the epoch-sharing tests.
    /// Panics when either tree is paged.
    pub fn shares_chunk(&self, other: &Self, i: usize) -> bool {
        self.resident().shares_chunk(other.resident(), i)
    }

    /// Number of spine positions whose chunk is physically shared with
    /// `other`. For a tree derived by [`RTree::with_updates`] this equals
    /// the common spine length minus the chunks the batch copied. Panics
    /// when either tree is paged.
    pub fn shared_chunk_count(&self, other: &Self) -> usize {
        self.resident().shared_chunk_count(other.resident())
    }

    /// Copy-on-write work performed by this tree instance since it was
    /// built, cloned from another tree, or last
    /// [`RTree::reset_copy_stats`].
    pub fn copy_stats(&self) -> CopyStats {
        self.copy
    }

    /// Resets the copy-on-write counters (e.g. at the start of a batch).
    pub fn reset_copy_stats(&mut self) {
        self.copy = CopyStats::default();
    }

    /// All indexed object ids (DFS order).
    pub fn object_ids(&self) -> Vec<ObjectId> {
        let mut out = Vec::with_capacity(self.len);
        if let Some(root) = self.root {
            let mut stack = vec![root];
            while let Some(n) = stack.pop() {
                match &self.node(n).kind {
                    NodeKind::Leaf(entries) => out.extend_from_slice(entries),
                    NodeKind::Internal(children) => stack.extend_from_slice(children),
                }
            }
        }
        out
    }

    /// Iterates every live (reachable) node id with its depth (root = 0).
    pub fn walk(&self) -> Vec<(NodeId, usize)> {
        let mut out = Vec::new();
        if let Some(root) = self.root {
            let mut stack = vec![(root, 0usize)];
            while let Some((n, d)) = stack.pop() {
                out.push((n, d));
                if let NodeKind::Internal(children) = &self.node(n).kind {
                    stack.extend(children.iter().map(|&c| (c, d + 1)));
                }
            }
        }
        out
    }

    /// Repacks the arena: live nodes move to slots `0..live` in DFS
    /// ([`RTree::walk`]) order, freed slack is dropped, and the chunk
    /// spine is rebuilt fresh (nothing shared with prior versions).
    ///
    /// DFS order is what keeps the copy-on-write bill of *later* batches
    /// small. A level-order layout (the natural output of STR bulk
    /// loading) packs the whole internal level into the tail chunks,
    /// which sit on every root-to-leaf spine, so every batch would
    /// re-copy them all. In DFS order each internal lands beside its own
    /// subtree, and a batch copies the few chunks its spine crosses.
    ///
    /// Called at the end of bulk loading; incremental updates do not pay
    /// the full-rewrite cost (their allocations interleave naturally).
    pub(crate) fn relayout_dfs(&mut self) {
        self.materialize();
        let Some(root) = self.root else { return };
        let order = self.walk();
        let mut remap = vec![u32::MAX; self.slots];
        for (new, (old, _)) in order.iter().enumerate() {
            remap[old.index()] = u32::try_from(new).expect("node arena overflow");
        }
        let packed: NodeArena = order
            .iter()
            .map(|(old, _)| {
                let mut node = Node::clone(&self.node(*old));
                if let NodeKind::Internal(children) = &mut node.kind {
                    for c in children {
                        *c = NodeId(remap[c.index()]);
                    }
                }
                node
            })
            .collect();
        self.arena = Arena::Resident(packed);
        self.slots = order.len();
        self.free.clear();
        self.freed.clear();
        self.root = Some(NodeId(remap[root.index()]));
    }

    // -- spatial queries ----------------------------------------------------

    /// All indexed objects whose location lies inside `rect`.
    pub fn range(&self, rect: &Rect) -> Vec<ObjectId> {
        let mut out = Vec::new();
        let Some(root) = self.root else {
            return out;
        };
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let node = self.node(n);
            if !node.mbr.intersects(rect) {
                continue;
            }
            match &node.kind {
                NodeKind::Leaf(entries) => {
                    for &id in entries {
                        if rect.contains_point(&self.corpus.get(id).loc) {
                            out.push(id);
                        }
                    }
                }
                NodeKind::Internal(children) => stack.extend_from_slice(children),
            }
        }
        out
    }

    // -- construction internals ---------------------------------------------

    /// The resident arena and the bill its copy-on-write work goes on.
    /// Mutators [`RTree::materialize`] first, so a paged arena here is a
    /// bug.
    fn resident_mut(&mut self) -> (&mut NodeArena, &mut CopyStats) {
        match &mut self.arena {
            Arena::Resident(nodes) => (nodes, &mut self.copy),
            Arena::Paged(_) => panic!("mutation of a paged arena"),
        }
    }

    /// Mutable access to a node, copy-on-write at chunk granularity.
    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        let (nodes, copy) = self.resident_mut();
        nodes.make_mut(id.index(), copy)
    }

    /// Allocates a node holding `kind`, reusing a freed slot first. Its
    /// MBR starts empty — callers [`RTree::refresh`] it once the entries
    /// are final.
    pub(crate) fn alloc(&mut self, kind: NodeKind) -> NodeId {
        let node = Node {
            mbr: Rect::EMPTY,
            kind,
        };
        if let Some(slot) = self.free.pop() {
            self.clear_freed(slot);
            *self.node_mut(NodeId(slot)) = node;
            NodeId(slot)
        } else {
            let slot = u32::try_from(self.slots).expect("node arena overflow");
            let (nodes, copy) = self.resident_mut();
            nodes.push(node, copy);
            self.slots += 1;
            NodeId(slot)
        }
    }

    /// Frees a slot *without* writing it: older tree versions may still
    /// share the chunk, so a tombstone write would force a chunk copy for
    /// nothing. The stale payload stays until [`RTree::alloc`] reuses the
    /// slot (at which point the write pays the copy-on-write bill if the
    /// chunk is still shared).
    fn dealloc(&mut self, id: NodeId) {
        debug_assert!(!self.is_freed(id.0), "double free of node {id:?}");
        self.set_freed(id.0);
        self.free.push(id.0);
    }

    #[inline]
    fn is_freed(&self, slot: u32) -> bool {
        self.freed
            .get(slot as usize / 64)
            .is_some_and(|w| (w >> (slot % 64)) & 1 == 1)
    }

    fn set_freed(&mut self, slot: u32) {
        let w = slot as usize / 64;
        if w >= self.freed.len() {
            self.freed.resize(w + 1, 0);
        }
        self.freed[w] |= 1u64 << (slot % 64);
    }

    fn clear_freed(&mut self, slot: u32) {
        self.freed[slot as usize / 64] &= !(1u64 << (slot % 64));
    }

    pub(crate) fn set_root(&mut self, root: Option<NodeId>, height: usize, len: usize) {
        self.root = root;
        self.height = height;
        self.len = len;
    }

    /// Recomputes the MBR of a node from its entries.
    pub(crate) fn refresh(&mut self, n: NodeId) {
        let mbr = self.compute_mbr(n);
        self.node_mut(n).mbr = mbr;
    }

    fn compute_mbr(&self, n: NodeId) -> Rect {
        let mut mbr = Rect::EMPTY;
        match &self.node(n).kind {
            NodeKind::Leaf(entries) => {
                for &id in entries {
                    mbr.expand(&Rect::point(self.corpus.get(id).loc));
                }
            }
            NodeKind::Internal(children) => {
                for &c in children {
                    mbr.expand(&self.node(c).mbr);
                }
            }
        }
        mbr
    }

    // -- batch derivation ----------------------------------------------------

    /// Derives the next tree version from a write batch, persistently:
    /// the returned tree shares every arena chunk this batch's
    /// delete/insert paths did not write into with `self` (which stays
    /// fully usable — older epochs keep answering queries against it).
    ///
    /// `corpus` is the next corpus version (derived through
    /// [`Corpus::with_updates`] from this tree's version), `inserted` its
    /// freshly appended slots and `deleted` the newly tombstoned ones
    /// (which must all be indexed here). The returned [`CopyStats`] is
    /// the batch's actual copy bill — O(height × chunk) per routed op,
    /// independent of tree size. A whole tree ([`RTree::is_whole`]) is
    /// given every insert and delete of the batch, and stays whole.
    pub fn with_updates(
        &self,
        corpus: Corpus,
        inserted: &[ObjectId],
        deleted: &[ObjectId],
    ) -> (Self, CopyStats) {
        let mut next = self.clone();
        next.reset_copy_stats();
        next.set_corpus(corpus);
        for &id in deleted {
            let removed = next.delete(id);
            debug_assert!(removed, "delete {id:?} missed the tree");
        }
        for &id in inserted {
            next.insert(id);
        }
        next.whole = self.whole;
        let stats = next.copy_stats();
        (next, stats)
    }

    // -- insertion -----------------------------------------------------------

    /// Inserts one object (must belong to this tree's corpus and not be
    /// indexed already — enforced only by `validate`, not here, to keep
    /// the hot path lean).
    pub fn insert(&mut self, id: ObjectId) {
        assert!(id.index() < self.corpus.slot_count(), "foreign object id {id:?}");
        self.materialize();
        match self.root {
            None => {
                let root = self.alloc(NodeKind::Leaf(vec![id]));
                self.refresh(root);
                self.root = Some(root);
                self.height = 1;
            }
            Some(root) => {
                if let Some(sibling) = self.insert_rec(root, id) {
                    // Root split: grow a new root above.
                    let new_root = self.alloc(NodeKind::Internal(vec![root, sibling]));
                    self.refresh(new_root);
                    self.root = Some(new_root);
                    self.height += 1;
                }
            }
        }
        self.len += 1;
        self.whole = false;
    }

    /// Recursive insert; returns a newly created sibling when `n` split.
    fn insert_rec(&mut self, n: NodeId, id: ObjectId) -> Option<NodeId> {
        let is_leaf = self.node(n).is_leaf();
        if is_leaf {
            if let NodeKind::Leaf(entries) = &mut self.node_mut(n).kind {
                entries.push(id);
            }
        } else {
            let child = self.choose_subtree(n, &self.corpus.get(id).loc);
            if let Some(new_child) = self.insert_rec(child, id) {
                if let NodeKind::Internal(children) = &mut self.node_mut(n).kind {
                    children.push(new_child);
                }
            }
        }
        if self.node(n).entry_count() > self.params.max_entries {
            let sibling = self.split(n);
            self.refresh(n);
            self.refresh(sibling);
            Some(sibling)
        } else {
            self.refresh(n);
            None
        }
    }

    /// Guttman's ChooseLeaf heuristic: least MBR enlargement, ties by
    /// least area, then first-listed.
    fn choose_subtree(&self, n: NodeId, p: &Point) -> NodeId {
        let node = self.node(n);
        let children = node.children();
        let target = Rect::point(*p);
        let mut best = children[0];
        let mut best_enl = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for &c in children {
            let mbr = self.node(c).mbr;
            let enl = mbr.enlargement(&target);
            let area = mbr.area();
            if enl < best_enl || (enl == best_enl && area < best_area) {
                best = c;
                best_enl = enl;
                best_area = area;
            }
        }
        best
    }

    /// Quadratic split: moves roughly half the entries of `n` into a new
    /// sibling node, which is returned (summaries of both are stale —
    /// caller must `refresh`).
    fn split(&mut self, n: NodeId) -> NodeId {
        let rects: Vec<Rect> = match &self.node(n).kind {
            NodeKind::Leaf(entries) => entries
                .iter()
                .map(|&id| Rect::point(self.corpus.get(id).loc))
                .collect(),
            NodeKind::Internal(children) => children
                .iter()
                .map(|&c| self.node(c).mbr)
                .collect(),
        };
        let (g1, g2) = quadratic_partition(&rects, self.params.min_entries);
        let node = self.node_mut(n);
        let sibling_kind = match &mut node.kind {
            NodeKind::Leaf(entries) => {
                let (keep, give) = partition_by_index(entries, &g1, &g2);
                *entries = keep;
                NodeKind::Leaf(give)
            }
            NodeKind::Internal(children) => {
                let (keep, give) = partition_by_index(children, &g1, &g2);
                *children = keep;
                NodeKind::Internal(give)
            }
        };
        self.alloc(sibling_kind)
    }

    // -- deletion -------------------------------------------------------------

    /// Deletes one object; returns `false` when it was not indexed.
    ///
    /// Underflowing nodes are dissolved and every object below them is
    /// re-inserted (the classic condense-tree strategy, simplified to
    /// object-granularity reinsertion, which preserves all invariants).
    pub fn delete(&mut self, id: ObjectId) -> bool {
        let Some(root) = self.root else {
            return false;
        };
        self.materialize();
        let p = self.corpus.get(id).loc;
        let mut path = Vec::with_capacity(self.height);
        if !self.find_path(root, &p, id, &mut path) {
            return false;
        }
        // Remove the entry from its leaf.
        let leaf = *path.last().expect("path is never empty");
        if let NodeKind::Leaf(entries) = &mut self.node_mut(leaf).kind {
            entries.retain(|&e| e != id);
        }
        self.len -= 1;
        self.whole = false;

        // Condense bottom-up, collecting orphaned objects.
        let mut orphans: Vec<ObjectId> = Vec::new();
        for i in (1..path.len()).rev() {
            let node = path[i];
            let parent = path[i - 1];
            if self.node(node).entry_count() < self.params.min_entries {
                self.collect_objects(node, &mut orphans);
                if let NodeKind::Internal(children) = &mut self.node_mut(parent).kind {
                    children.retain(|&c| c != node);
                }
                self.dealloc_subtree(node);
            }
        }
        for &n in path.iter().rev() {
            // Nodes dissolved above are in the freed set; skip them — a
            // bitset probe, not a free-list scan, so delete-heavy batches
            // stay linear.
            if !self.is_freed(n.0) {
                self.refresh(n);
            }
        }

        // Shrink the root while it is an internal node with one child.
        while let Some(r) = self.root {
            enum Shrink {
                Promote(NodeId),
                Empty,
                Done,
            }
            let action = match &self.node(r).kind {
                NodeKind::Internal(children) if children.len() == 1 => Shrink::Promote(children[0]),
                NodeKind::Internal(children) if children.is_empty() => Shrink::Empty,
                NodeKind::Leaf(entries) if entries.is_empty() => Shrink::Empty,
                _ => Shrink::Done,
            };
            match action {
                Shrink::Promote(only) => {
                    self.dealloc(r);
                    self.root = Some(only);
                    self.height -= 1;
                }
                Shrink::Empty => {
                    self.dealloc(r);
                    self.root = None;
                    self.height = 0;
                }
                Shrink::Done => break,
            }
        }

        // Reinsert orphans (objects that lived under dissolved nodes).
        let reinserted = orphans.len();
        self.len -= reinserted;
        for oid in orphans {
            self.insert(oid);
        }
        true
    }

    /// Extends `path` with the root-first spine from `n` down to the leaf
    /// containing `(p, id)`; returns `false` (leaving `path` as it found
    /// it) when the object is not under `n`. Appending and backtracking
    /// with pops keeps this O(depth) — the old build-by-`insert(0)`
    /// shifted every ancestor per level.
    fn find_path(&self, n: NodeId, p: &Point, id: ObjectId, path: &mut Vec<NodeId>) -> bool {
        let node = self.node(n);
        if !node.mbr.contains_point(p) {
            return false;
        }
        path.push(n);
        match &node.kind {
            NodeKind::Leaf(entries) => {
                if entries.contains(&id) {
                    return true;
                }
            }
            NodeKind::Internal(children) => {
                for &c in children {
                    if self.find_path(c, p, id, path) {
                        return true;
                    }
                }
            }
        }
        path.pop();
        false
    }

    /// Collects every object below `n` (no per-level child clones — the
    /// borrows are all shared).
    fn collect_objects(&self, n: NodeId, out: &mut Vec<ObjectId>) {
        match &self.node(n).kind {
            NodeKind::Leaf(entries) => out.extend_from_slice(entries),
            NodeKind::Internal(children) => {
                for &c in children {
                    self.collect_objects(c, out);
                }
            }
        }
    }

    /// Frees every node of the subtree rooted at `n`. Iterative with an
    /// explicit stack: the child ids are read once per node before its
    /// slot is freed, so no child vector is ever cloned.
    fn dealloc_subtree(&mut self, n: NodeId) {
        let mut stack = vec![n];
        while let Some(id) = stack.pop() {
            if let NodeKind::Internal(children) = &self.node(id).kind {
                stack.extend_from_slice(children);
            }
            self.dealloc(id);
        }
    }

    // -- topology export ----------------------------------------------------

    /// Exports the reachable tree structure in a topology-only form (no
    /// MBRs — derived data; freed arena slots
    /// and chunk boundaries don't appear either, so the export is
    /// independent of the slab layout). Tests compare trees through it:
    /// two trees with equal exports have the same shape, whatever their
    /// arena history or node source.
    pub fn structure(&self) -> TreeStructure {
        let mut nodes = Vec::new();
        let mut remap: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        // First pass: assign dense ids in walk order.
        let walk = self.walk();
        for (i, &(nid, _)) in walk.iter().enumerate() {
            remap.insert(nid.0, i as u32);
        }
        for &(nid, _) in &walk {
            let node = self.node(nid);
            nodes.push(match &node.kind {
                NodeKind::Leaf(entries) => StructNode {
                    is_leaf: true,
                    entries: entries.iter().map(|e| e.0).collect(),
                },
                NodeKind::Internal(children) => StructNode {
                    is_leaf: false,
                    entries: children.iter().map(|c| remap[&c.0]).collect(),
                },
            });
        }
        TreeStructure {
            nodes,
            root: self.root.map(|r| remap[&r.0]),
            height: self.height,
            len: self.len,
        }
    }

    // -- validation -------------------------------------------------------------

    /// Checks every structural invariant; returns a description of the
    /// first violation.
    ///
    /// Checked: reachable-node entry counts (≥1, ≤ max); uniform leaf
    /// depth; exact MBRs; each object indexed exactly
    /// once; `len` consistent; free list disjoint from reachable nodes
    /// and consistent with the freed bitset.
    pub fn validate(&self) -> Result<(), String> {
        // Free list / bitset consistency holds even for an empty tree.
        let mut free_sorted = self.free.clone();
        free_sorted.sort_unstable();
        free_sorted.dedup();
        if free_sorted.len() != self.free.len() {
            return Err("duplicate slots on the free list".into());
        }
        for &f in &self.free {
            if !self.is_freed(f) {
                return Err(format!("free-list slot {f} not in the freed bitset"));
            }
            if f as usize >= self.slots {
                return Err(format!("free-list slot {f} beyond the arena ({})", self.slots));
            }
        }
        let freed_bits: usize = (0..self.slots).filter(|&s| self.is_freed(s as u32)).count();
        if freed_bits != self.free.len() {
            return Err(format!(
                "freed bitset has {freed_bits} bits but the free list {} slots",
                self.free.len()
            ));
        }

        let Some(root) = self.root else {
            return if self.len == 0 && self.height == 0 {
                Ok(())
            } else {
                Err(format!("empty root but len={} height={}", self.len, self.height))
            };
        };
        let mut seen_objects: std::collections::HashMap<ObjectId, u32> =
            std::collections::HashMap::new();
        let mut reachable: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut leaf_depths: Vec<usize> = Vec::new();
        let mut stack = vec![(root, 0usize)];
        while let Some((n, depth)) = stack.pop() {
            if !reachable.insert(n.0) {
                return Err(format!("node {n:?} reachable twice"));
            }
            let node = self.node(n);
            let count = node.entry_count();
            if count == 0 {
                return Err(format!("empty node {n:?}"));
            }
            if count > self.params.max_entries {
                return Err(format!("node {n:?} overflows: {count}"));
            }
            let mbr = self.compute_mbr(n);
            if mbr != node.mbr {
                return Err(format!("node {n:?} stale mbr: {:?} != {:?}", node.mbr, mbr));
            }
            match &node.kind {
                NodeKind::Leaf(entries) => {
                    leaf_depths.push(depth);
                    for &id in entries {
                        if id.index() >= self.corpus.slot_count() {
                            return Err(format!("foreign object {id:?}"));
                        }
                        *seen_objects.entry(id).or_insert(0) += 1;
                    }
                }
                NodeKind::Internal(children) => {
                    for &c in children {
                        if !node.mbr.contains_rect(&self.node(c).mbr) {
                            return Err(format!("child {c:?} escapes parent {n:?} mbr"));
                        }
                        stack.push((c, depth + 1));
                    }
                }
            }
        }
        if let Some(&d0) = leaf_depths.first() {
            if leaf_depths.iter().any(|&d| d != d0) {
                return Err("leaves at different depths".into());
            }
            if d0 + 1 != self.height {
                return Err(format!("height {} but leaf depth {}", self.height, d0));
            }
        }
        let total: u32 = seen_objects.values().sum();
        if total as usize != self.len {
            return Err(format!("len {} but {} entries", self.len, total));
        }
        if let Some((id, n)) = seen_objects.iter().find(|(_, &n)| n > 1) {
            return Err(format!("object {id:?} indexed {n} times"));
        }
        for f in &self.free {
            if reachable.contains(f) {
                return Err(format!("free node {f} is reachable"));
            }
        }
        Ok(())
    }
}

/// Topology-only export of a tree (see [`RTree::structure`]). `entries`
/// holds object ids for leaves and dense node indexes for internal nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct TreeStructure {
    /// Nodes in a root-first walk order, re-indexed densely.
    pub nodes: Vec<StructNode>,
    /// Index of the root node, `None` for an empty tree.
    pub root: Option<u32>,
    /// Tree height.
    pub height: usize,
    /// Indexed object count.
    pub len: usize,
}

/// One node of a [`TreeStructure`].
#[derive(Clone, Debug, PartialEq)]
pub struct StructNode {
    /// Leaf (entries are object ids) or internal (entries are node
    /// indexes).
    pub is_leaf: bool,
    /// Entry payload.
    pub entries: Vec<u32>,
}

/// Splits `items` into (kept, given) according to index groups `g1`/`g2`.
fn partition_by_index<T: Copy>(items: &[T], g1: &[usize], g2: &[usize]) -> (Vec<T>, Vec<T>) {
    (
        g1.iter().map(|&i| items[i]).collect(),
        g2.iter().map(|&i| items[i]).collect(),
    )
}

/// Guttman's quadratic split over entry rectangles: returns two disjoint,
/// covering index groups, each of size ≥ `min_entries`.
fn quadratic_partition(rects: &[Rect], min_entries: usize) -> (Vec<usize>, Vec<usize>) {
    let n = rects.len();
    debug_assert!(n >= 2);
    // Seed selection: the pair wasting the most area if grouped together.
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..n {
        for j in (i + 1)..n {
            let waste = rects[i].union(&rects[j]).area() - rects[i].area() - rects[j].area();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    let mut g1 = vec![s1];
    let mut g2 = vec![s2];
    let mut mbr1 = rects[s1];
    let mut mbr2 = rects[s2];
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != s1 && i != s2).collect();

    while !remaining.is_empty() {
        // Forced assignment when one group must absorb all that remains.
        if g1.len() + remaining.len() == min_entries {
            for i in remaining.drain(..) {
                g1.push(i);
                mbr1.expand(&rects[i]);
            }
            break;
        }
        if g2.len() + remaining.len() == min_entries {
            for i in remaining.drain(..) {
                g2.push(i);
                mbr2.expand(&rects[i]);
            }
            break;
        }
        // PickNext: the entry with the strongest group preference.
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &i)| {
                let d1 = mbr1.enlargement(&rects[i]);
                let d2 = mbr2.enlargement(&rects[i]);
                (pos, (d1 - d2).abs())
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite enlargement"))
            .expect("remaining non-empty");
        let i = remaining.swap_remove(pos);
        let d1 = mbr1.enlargement(&rects[i]);
        let d2 = mbr2.enlargement(&rects[i]);
        // Resolve: less enlargement, then smaller area, then fewer entries.
        let to_g1 = match d1.partial_cmp(&d2).expect("finite") {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                if mbr1.area() != mbr2.area() {
                    mbr1.area() < mbr2.area()
                } else {
                    g1.len() <= g2.len()
                }
            }
        };
        if to_g1 {
            g1.push(i);
            mbr1.expand(&rects[i]);
        } else {
            g2.push(i);
            mbr2.expand(&rects[i]);
        }
    }
    (g1, g2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;
    use yask_text::KeywordSet;
    use yask_util::Xoshiro256;

    fn random_corpus(n: usize, seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut b = CorpusBuilder::with_capacity(n);
        for i in 0..n {
            let loc = Point::new(rng.next_f64(), rng.next_f64());
            let nkw = 1 + rng.below(5);
            let doc = KeywordSet::from_raw((0..nkw).map(|_| rng.below(30) as u32));
            b.push(loc, doc, format!("obj{i}"));
        }
        b.build()
    }

    #[test]
    fn params_validation() {
        let p = RTreeParams::default();
        assert_eq!(p.max_entries, 32);
        assert_eq!(p.min_entries, 12);
    }

    #[test]
    #[should_panic(expected = "exceeds 64")]
    fn params_reject_wide_fanout() {
        RTreeParams::new(128, 32);
    }

    #[test]
    #[should_panic(expected = "min_entries")]
    fn params_reject_large_min() {
        RTreeParams::new(10, 6);
    }

    #[test]
    fn empty_tree_behaves() {
        let t = RTree::new(random_corpus(0, 1), RTreeParams::default());
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.arena_chunk_count(), 0);
        assert!(t.range(&Rect::from_coords(0.0, 0.0, 1.0, 1.0)).is_empty());
        t.validate().unwrap();
    }

    #[test]
    fn insert_small_and_validate() {
        let corpus = random_corpus(10, 2);
        let t = RTree::build_by_insertion(corpus, RTreeParams::new(4, 2));
        assert_eq!(t.len(), 10);
        t.validate().unwrap();
        let mut ids = t.object_ids();
        ids.sort();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn insertion_splits_grow_height() {
        let corpus = random_corpus(200, 3);
        let t = RTree::build_by_insertion(corpus, RTreeParams::new(8, 3));
        assert!(t.height() >= 3, "height = {}", t.height());
        t.validate().unwrap();
    }

    #[test]
    fn bulk_load_validates_across_sizes_and_fanouts() {
        for n in [0usize, 1, 2, 5, 33, 100, 1000] {
            let corpus = random_corpus(n, 42 + n as u64);
            let t = RTree::bulk_load(corpus.clone(), RTreeParams::default());
            assert_eq!(t.len(), n);
            t.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            let t2 = RTree::bulk_load(corpus, RTreeParams::new(8, 3));
            t2.validate()
                .unwrap_or_else(|e| panic!("fanout 8 n={n}: {e}"));
        }
    }

    #[test]
    fn range_matches_scan() {
        let corpus = random_corpus(300, 7);
        let t = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let rect = Rect::from_coords(0.2, 0.2, 0.6, 0.7);
        let mut got = t.range(&rect);
        got.sort();
        let mut want: Vec<ObjectId> = corpus
            .iter()
            .filter(|o| rect.contains_point(&o.loc))
            .map(|o| o.id)
            .collect();
        want.sort();
        assert_eq!(got, want);
        assert!(!got.is_empty(), "degenerate fixture");
    }

    #[test]
    fn delete_removes_and_revalidates() {
        let corpus = random_corpus(120, 9);
        let mut t = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let mut rng = Xoshiro256::seed_from_u64(99);
        let mut ids: Vec<ObjectId> = corpus.iter().map(|o| o.id).collect();
        rng.shuffle(&mut ids);
        for (i, id) in ids.iter().enumerate() {
            assert!(t.delete(*id), "delete {id:?}");
            t.validate()
                .unwrap_or_else(|e| panic!("after deleting {} objects: {e}", i + 1));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        // Deleting again reports absence.
        assert!(!t.delete(ids[0]));
    }

    #[test]
    fn mixed_insert_delete_stays_consistent() {
        let corpus = random_corpus(200, 10);
        let mut t = RTree::new(corpus.clone(), RTreeParams::new(6, 2));
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut live: Vec<ObjectId> = Vec::new();
        let mut next = 0usize;
        for step in 0..400 {
            if next < 200 && (live.is_empty() || rng.chance(0.6)) {
                let id = corpus.get(ObjectId(next as u32)).id;
                t.insert(id);
                live.push(id);
                next += 1;
            } else {
                let pos = rng.below(live.len());
                let id = live.swap_remove(pos);
                assert!(t.delete(id));
            }
            if step % 50 == 0 {
                t.validate().unwrap_or_else(|e| panic!("step {step}: {e}"));
            }
        }
        t.validate().unwrap();
        assert_eq!(t.len(), live.len());
        let mut got = t.object_ids();
        got.sort();
        live.sort();
        assert_eq!(got, live);
    }

    #[test]
    fn corpus_version_swap_supports_incremental_updates() {
        use yask_text::KeywordSet;
        let corpus = random_corpus(60, 21);
        let mut t = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        // Publish a new corpus version: two inserts, one delete.
        let (v1, new_ids) = corpus.with_updates(
            [
                (Point::new(0.5, 0.5), KeywordSet::from_raw([1u32]), "n0".to_owned()),
                (Point::new(0.9, 0.1), KeywordSet::from_raw([2u32]), "n1".to_owned()),
            ],
            &[ObjectId(7)],
        );
        t.set_corpus(v1.clone());
        assert!(t.delete(ObjectId(7)), "dead slot still locatable for unindexing");
        for &id in &new_ids {
            t.insert(id);
        }
        t.validate().unwrap();
        assert_eq!(t.len(), 61);
        let mut got = t.object_ids();
        got.sort();
        assert_eq!(got, v1.live_ids());
    }

    #[test]
    #[should_panic(expected = "shrank")]
    fn corpus_version_swap_rejects_shrinking() {
        let big = random_corpus(10, 22);
        let small = random_corpus(5, 23);
        let mut t = RTree::bulk_load(big, RTreeParams::default());
        t.set_corpus(small);
    }

    #[test]
    fn quadratic_partition_respects_minimum() {
        let rects: Vec<Rect> = (0..10)
            .map(|i| Rect::point(Point::new(i as f64, 0.0)))
            .collect();
        let (g1, g2) = quadratic_partition(&rects, 4);
        assert!(g1.len() >= 4, "g1 = {g1:?}");
        assert!(g2.len() >= 4, "g2 = {g2:?}");
        assert_eq!(g1.len() + g2.len(), 10);
        let mut all: Vec<usize> = g1.iter().chain(&g2).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn node_accessors_panic_on_wrong_kind() {
        let corpus = random_corpus(3, 11);
        let t = RTree::bulk_load(corpus, RTreeParams::default());
        let root = t.root().unwrap();
        let node = t.node(root);
        assert!(node.is_leaf());
        assert_eq!(node.entries().len(), 3);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| node.children().len()));
        assert!(r.is_err());
    }

    #[test]
    fn structure_export_is_dense() {
        let corpus = random_corpus(300, 13);
        let t = RTree::bulk_load(corpus, RTreeParams::new(8, 3));
        let s = t.structure();
        assert_eq!(s.len, 300);
        assert_eq!(s.root, Some(0), "the root comes first in walk order");
        let leaf_entries: usize =
            s.nodes.iter().filter(|n| n.is_leaf).map(|n| n.entries.len()).sum();
        assert_eq!(leaf_entries, 300);
        for n in s.nodes.iter().filter(|n| !n.is_leaf) {
            assert!(n.entries.iter().all(|&c| (c as usize) < s.nodes.len()));
        }
        let empty = RTree::bulk_load(random_corpus(0, 14), RTreeParams::default());
        assert_eq!(empty.structure().root, None);
    }

    #[test]
    fn walk_covers_all_nodes() {
        let corpus = random_corpus(100, 12);
        let t = RTree::bulk_load(corpus, RTreeParams::new(8, 3));
        let walked = t.walk();
        assert!(walked.iter().any(|&(_, d)| d == 0));
        let max_d = walked.iter().map(|&(_, d)| d).max().unwrap();
        assert_eq!(max_d + 1, t.height());
    }

    // -- persistent arena ----------------------------------------------------

    #[test]
    fn clone_shares_the_whole_arena() {
        let corpus = random_corpus(2000, 31);
        let t = RTree::bulk_load(corpus, RTreeParams::new(4, 2));
        assert!(t.arena_chunk_count() >= 2, "fixture too small to chunk");
        let c = t.clone();
        assert!(t.same_arena(&c));
        assert_eq!(t.shared_chunk_count(&c), t.arena_chunk_count());
    }

    #[test]
    fn mutation_after_clone_leaves_the_original_intact() {
        let corpus = random_corpus(500, 32);
        let t = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
        let before = t.structure();
        let mut derived = t.clone();
        derived.reset_copy_stats();
        let mut rng = Xoshiro256::seed_from_u64(8);
        for _ in 0..40 {
            let live = derived.object_ids();
            let victim = live[rng.below(live.len())];
            assert!(derived.delete(victim));
        }
        derived.validate().unwrap();
        // The original is byte-for-byte untouched and still validates.
        t.validate().unwrap();
        assert_eq!(t.structure(), before);
        // The two versions diverged but still share untouched chunks.
        assert!(!derived.same_arena(&t));
        let stats = derived.copy_stats();
        assert!(stats.chunks_copied >= 1);
        assert!(stats.bytes_copied > 0);
    }

    #[test]
    fn with_updates_shares_untouched_chunks() {
        let corpus = random_corpus(10_000, 33);
        let t = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
        let old_chunks = t.arena_chunk_count();
        assert!(old_chunks >= 8, "fixture too small: {old_chunks} chunks");
        let (v1, new_ids) = corpus.with_updates(
            [(Point::new(0.5, 0.5), KeywordSet::from_raw([1u32]), "n".to_owned())],
            &[ObjectId(3)],
        );
        let (next, stats) = t.with_updates(v1.clone(), &new_ids, &[ObjectId(3)]);
        next.validate().unwrap();
        t.validate().unwrap();
        assert_eq!(next.len(), t.len());
        // Shared = common spine minus exactly the copied chunks.
        let common = old_chunks.min(next.arena_chunk_count());
        assert_eq!(next.shared_chunk_count(&t), common - stats.chunks_copied);
        assert!(
            stats.chunks_copied < old_chunks,
            "single-op batch copied every chunk ({old_chunks})"
        );
        // Queries on both versions reflect their own corpus.
        assert!(t.object_ids().contains(&ObjectId(3)));
        assert!(!next.object_ids().contains(&ObjectId(3)));
        assert!(next.object_ids().contains(&new_ids[0]));
    }

    #[test]
    fn freed_slots_are_reused_before_growing_the_arena() {
        let corpus = random_corpus(150, 34);
        let mut t = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
        let slots_before = t.arena_slots();
        let mut rng = Xoshiro256::seed_from_u64(3);
        // Deleting frees slots...
        for _ in 0..60 {
            let live = t.object_ids();
            assert!(t.delete(live[rng.below(live.len())]));
        }
        assert!(t.free_slots() > 0);
        let free_after_deletes = t.free_slots();
        // ...and re-inserting consumes them before the slab grows.
        let dead: Vec<ObjectId> = (0..corpus.slot_count() as u32)
            .map(ObjectId)
            .filter(|id| !t.object_ids().contains(id))
            .collect();
        for id in dead {
            t.insert(id);
        }
        t.validate().unwrap();
        assert!(t.free_slots() < free_after_deletes);
        assert_eq!(t.arena_slots(), slots_before.max(t.arena_slots()));
    }
}
