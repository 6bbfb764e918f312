//! R-tree family indexes for YASK.
//!
//! The demo paper's server (Fig 1) is built on "R-tree based index"
//! structures; three augmented variants appear across the papers YASK
//! packages, all implemented here over one generic arena-based R-tree:
//!
//! * **plain R-tree** ([`aug::NoAug`]) — the structural baseline,
//! * **SetR-tree** ([`aug::SetAug`]) — every node carries the intersection
//!   and union of the keyword sets of the objects below it, giving tight
//!   Jaccard bounds for the top-k engine (paper §3.3),
//! * **KcR-tree** ([`aug::KcAug`]) — every node carries a keyword → count
//!   map plus an object count `cnt` (paper Fig 2), enabling bounds on *how
//!   many* objects in a subtree outrank a given score — the engine of the
//!   keyword-adaptation why-not module,
//! * **IR-tree** ([`aug::IrAug`]) — per-node inverted file (keyword →
//!   child bitmap) in the spirit of Cong et al. \[4\]; textually weaker for
//!   Jaccard (it lacks intersection information), which is exactly why the
//!   paper swaps in the SetR-tree. Kept as the comparison engine.
//!
//! Construction is either STR bulk loading ([`RTree::bulk_load`]) or
//! dynamic insertion with quadratic splits ([`RTree::insert`]); deletion
//! with subtree reinsertion is supported. Every variant maintains its
//! augmentation incrementally and can [`RTree::validate`] the full set of
//! structural + augmentation invariants (used heavily by the proptest
//! suite).

#![forbid(unsafe_code)]

pub mod aug;
pub mod bulk;
pub mod corpus;
pub mod cow;
pub mod rtree;
pub mod stats;

pub use aug::{AugCodec, Augmentation, IrAug, KcAug, NoAug, SetAug, TextStats, TextualBound};
pub use corpus::{Corpus, CorpusBuilder, ObjectId, SpatioTextualObject, CHUNK_SIZE};
pub use cow::{ApproxBytes, Chunk, ChunkedCow, CopyStats};
pub use rtree::{
    ArenaReadGuard, Node, NodeChunk, NodeId, NodeKind, NodeSource, RTree, RTreeParams, StructNode,
    TreeStructure, NODE_CHUNK_SIZE,
};
pub use stats::TreeStats;

/// A plain (unaugmented) R-tree.
pub type PlainRTree = RTree<NoAug>;
/// The SetR-tree of reference \[6\]: intersection/union keyword sets per node.
pub type SetRTree = RTree<SetAug>;
/// The KcR-tree of references \[6, 9\]: keyword-count maps per node (Fig 2).
pub type KcRTree = RTree<KcAug>;
/// The IR-tree of reference \[4\]: per-node inverted files.
pub type IrTree = RTree<IrAug>;
