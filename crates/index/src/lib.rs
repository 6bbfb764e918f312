//! The spatial index of YASK.
//!
//! The demo paper's server (Fig 1) is built on "R-tree based index"
//! structures. Here that is two pieces over one shared [`Corpus`]:
//!
//! * the corpus's posting lists ([`Corpus::posting`], see [`postings`]):
//!   for each keyword, the ascending ids of the objects holding it, in
//!   one counting-sorted CSR array plus copy-on-write tails for later
//!   inserts;
//! * an arena-based R-tree ([`RTree`]) whose nodes carry an MBR and their
//!   entries only.
//!
//! The served top-k scores every object on a query keyword's posting
//! list and adds a keyword-free k-NN descent of the tree; the why-not
//! request table reads its keyword signatures off the lists; the
//! viewport descends the tree by MBR and tests each object inside it
//! against the query keywords. No served
//! search reads a keyword bound, so no node carries one. The KcR-tree's
//! keyword → count summary (paper Fig 2, [`KcAug`]) is computed on
//! demand as a side table ([`KcAug::side_table`]) for the experiments
//! that compare the SetR-tree and IR-tree bounds ([`TextStats`], see
//! [`aug`]). The why-not modules read no tree: they rank off a
//! per-request table over the corpus.
//!
//! Construction is either STR bulk loading ([`RTree::bulk_load`]) or
//! dynamic insertion with quadratic splits ([`RTree::insert`]); deletion
//! with subtree reinsertion is supported. The tree maintains its MBRs
//! incrementally and can [`RTree::validate`] its structural invariants
//! (used heavily by the proptest suite).

#![forbid(unsafe_code)]

pub mod aug;
pub mod bulk;
pub mod corpus;
pub mod cow;
pub mod postings;
pub mod rtree;
pub mod stats;

pub use aug::{KcAug, TextStats};
pub use corpus::{Corpus, CorpusBuilder, ObjectId, SpatioTextualObject, CHUNK_SIZE};
pub use cow::{ApproxBytes, Chunk, ChunkedCow, CopyStats};
pub use postings::{PostingList, MAX_KEYWORD};
pub use rtree::{
    Node, NodeChunk, NodeId, NodeKind, NodeRef, NodeSource, RTree, RTreeParams, StructNode,
    TreeStructure, NODE_CHUNK_SIZE,
};
pub use stats::TreeStats;
