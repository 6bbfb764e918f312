//! The KcR-tree index of YASK.
//!
//! The demo paper's server (Fig 1) is built on "R-tree based index"
//! structures. Here that is one arena-based R-tree whose nodes carry the
//! KcR-tree summary ([`KcAug`], paper Fig 2): a keyword → count map plus
//! an object count `cnt`. The counts imply the SetR-tree's per-node
//! intersection and union keyword sets, so the one summary gives the
//! tight Jaccard bounds of the top-k engine (paper §3.3) *and* bounds on
//! *how many* objects in a subtree outrank a given score — the engine of
//! the keyword-adaptation why-not module. The IR-tree of Cong et al. \[4\]
//! survives only as a weaker bound view,
//! [`TextStats::without_intersection`] (see [`aug`]).
//!
//! Construction is either STR bulk loading ([`RTree::bulk_load`]) or
//! dynamic insertion with quadratic splits ([`RTree::insert`]); deletion
//! with subtree reinsertion is supported. The tree maintains its
//! summaries incrementally and can [`RTree::validate`] the full set of
//! structural + summary invariants (used heavily by the proptest suite).

#![forbid(unsafe_code)]

pub mod aug;
pub mod bulk;
pub mod corpus;
pub mod cow;
pub mod rtree;
pub mod stats;

pub use aug::{KcAug, TextStats};
pub use corpus::{Corpus, CorpusBuilder, ObjectId, SpatioTextualObject, CHUNK_SIZE};
pub use cow::{ApproxBytes, Chunk, ChunkedCow, CopyStats};
pub use rtree::{
    ArenaReadGuard, Node, NodeChunk, NodeId, NodeKind, NodeSource, RTree, RTreeParams, StructNode,
    TreeStructure, NODE_CHUNK_SIZE,
};
pub use stats::TreeStats;
