//! `yask_ingest` — live corpus updates for YASK.
//!
//! The seed system was read-only: `str_bulk_load` ran once and every
//! layer above assumed a frozen corpus. Real spatial keyword services
//! never are — POIs are added, edited and retired continuously (the
//! premise behind update-friendly index designs like QDR-Tree; see
//! PAPERS.md). This crate is the write path that makes the whole stack
//! writable without stalling reads:
//!
//! * [`update`] — the [`Update`] operations ([`NewObject`] inserts,
//!   tombstoning deletes), batch validation, and [`IngestError`];
//! * [`wal`] — a write-ahead log persisted through the `yask_pager` page
//!   store: append, `fsync`-on-commit (two-phase: data pages, then the
//!   header), replay on startup — updates survive restarts;
//! * [`ingestor`] — the [`Ingestor`] coordinator running the write
//!   protocol (validate → log → derive the next corpus version → publish
//!   on the [`yask_exec::Executor`]), folding the log into
//!   `yask_pager` checkpoint snapshots past the [`CheckpointConfig`]
//!   thresholds so restart replay is bounded by the checkpoint interval.
//!
//! The pieces it builds on live one layer down: versioned corpora with
//! stable ids and tombstones in `yask_index` ([`yask_index::Corpus`]),
//! and epoch snapshots + shard-aware write routing + epoch-tagged cache
//! invalidation + skew-triggered rebalancing in `yask_exec`. Readers pin
//! an epoch for the duration of a query, so in-flight top-k and why-not
//! computations never observe a torn corpus; writers serialize on the
//! ingestor and publish whole epochs.
//!
//! The oracle property (`tests/oracle.rs`): any interleaving of inserts,
//! deletes, and top-k / why-not queries on the sharded executor is
//! indistinguishable from rebuilding a single tree over the surviving
//! corpus at every query point, and a WAL replay after a restart
//! reproduces the same corpus epoch.

#![forbid(unsafe_code)]

pub mod ingestor;
pub mod update;
pub mod wal;

pub use ingestor::{
    checkpoint_path, ApplyOutcome, CheckpointConfig, CheckpointStats, GroupError,
    IngestHistSnapshots, Ingestor,
};
pub use update::{validate_batch, IngestError, NewObject, Update};
pub use wal::{GroupCommitConfig, Wal, WalHistSnapshots, WalStats};
