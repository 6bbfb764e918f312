//! Disk substrate for YASK (the "Hard Disk" box of the paper's Fig 1).
//!
//! The demo's server keeps its R-tree based indexes on disk; this crate
//! is that layer, built bottom-up:
//!
//! * [`page`] — fixed-size 4 KiB pages and page ids;
//! * [`mod@file`] — a [`file::PageFile`]: allocate / read / write pages of a
//!   single backing file;
//! * [`buffer_pool`] — an LRU read cache with write-through semantics and
//!   hit/miss statistics ([`buffer_pool::BufferPool`]);
//! * [`codec`] — little-endian primitive encoding helpers plus paged
//!   byte-stream reader/writer that span records across pages;
//! * [`checkpoint`] — WAL-compaction snapshots (`YASKPG03`): a corpus
//!   epoch plus the vocabulary, written atomically, so the ingest layer
//!   can truncate its log and bound restart-replay time;
//! * [`paged`] — the out-of-core node arena: each tree's arena chunks
//!   encoded as one run per chunk in an unlinked file of the tree's own,
//!   faulted back on demand — one read per fault — through one
//!   byte-budgeted decoded-chunk cache ([`PagedNodeSource`]). It uses no
//!   page, pool or stream above: those serve the WAL and checkpoints.

#![forbid(unsafe_code)]

pub mod buffer_pool;
pub mod checkpoint;
pub mod codec;
pub mod file;
pub mod page;
pub mod paged;

pub use buffer_pool::{BufferPool, PoolStats};
pub use paged::{page_out_tree, PagedNodeSource, PagedStats};
pub use checkpoint::{load_checkpoint, load_checkpoint_with_stats, save_checkpoint, Checkpoint};
pub use file::PageFile;
pub use page::{PageId, PAGE_SIZE};
