//! The write path coordinator: validation → WAL commit → epoch publish.
//!
//! One [`Ingestor`] owns the authoritative (writer-side) corpus version
//! and the optional write-ahead log; the read path lives in the
//! [`Executor`]'s epoch cell. [`Ingestor::apply_group`] runs the full
//! write protocol for a group of batches, and [`Ingestor::apply`] is its
//! one-batch case:
//!
//! 1. **validate** each batch against the version its predecessors leave
//!    (bad batches never reach the log, so the log always replays) and
//!    **derive** the next corpus version (tombstones + appended slots),
//!    staged but not yet adopted,
//! 2. **log + fsync** the batches ([`crate::wal`]'s two-phase commit),
//! 3. **publish** each staged version via [`Executor::apply_batch`] —
//!    incremental tree maintenance, shard routing, epoch swap, cache
//!    invalidation.
//!
//! A crash after step 2 but before step 3 is safe: replay at startup
//! reapplies the batch deterministically, so the durable epoch and the
//! in-memory epoch reconverge.
//!
//! **Checkpointing.** Without compaction the log grows without bound and
//! restart-replay time scales with the full update history. A durable
//! ingestor therefore folds the current epoch into a `yask_pager`
//! checkpoint snapshot ([`yask_pager::save_checkpoint`], atomic
//! write-then-rename) whenever the log exceeds the [`CheckpointConfig`]
//! thresholds, then truncates the log over the new base
//! ([`crate::wal::Wal::reset`]). Recovery loads **snapshot, then tail**:
//! the checkpoint corpus at its epoch plus only the records committed
//! after it — restart time is bounded by the checkpoint interval, not
//! history length. The crash window between the snapshot rename and the
//! log truncation is closed at recovery: the log's `base_epoch` lags the
//! snapshot's epoch, so the covered prefix is simply skipped — the log
//! bytes themselves are left untouched (a rewrite during recovery could
//! itself be interrupted and lose acknowledged batches) until the next
//! checkpoint truncates them atomically. Checkpoint *failures* never
//! fail the write that triggered them (the batch is already durable in
//! the log); they are counted in [`CheckpointStats::failures`], kept in
//! [`CheckpointStats::last_error`], and the next threshold crossing retries.

use std::path::{Path, PathBuf};
use std::time::Instant;

use parking_lot::Mutex;
use yask_exec::{Executor, WINDOW_HORIZONS_SECS};
use yask_index::{CopyStats, Corpus, ObjectId};
use yask_obs::{Histogram, HistogramSnapshot, SlidingWindow, WindowSnapshot};
use yask_pager::{load_checkpoint_with_stats, save_checkpoint, Checkpoint, PoolStats};

use crate::update::{apply_batch, apply_batch_counted, validate_batch, IngestError, Update};
use crate::wal::{encoded_len, GroupCommitConfig, Wal, WalStats};

/// The checkpoint file a WAL at `wal_path` compacts into
/// (`<wal_path>.ckpt`).
pub fn checkpoint_path(wal_path: &Path) -> PathBuf {
    let mut os = wal_path.as_os_str().to_owned();
    os.push(".ckpt");
    PathBuf::from(os)
}

/// When to fold the write-ahead log into a checkpoint snapshot. The
/// check runs after every durable commit; crossing *either* threshold
/// triggers a checkpoint.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointConfig {
    /// Checkpoint once the log holds at least this many payload bytes.
    pub max_wal_bytes: u64,
    /// Checkpoint once the log holds at least this many batches — this
    /// bounds restart replay to `max_wal_batches` records.
    pub max_wal_batches: u64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            max_wal_bytes: 4 << 20,
            max_wal_batches: 4096,
        }
    }
}

impl CheckpointConfig {
    /// Never checkpoint automatically ([`Ingestor::checkpoint_now`] still
    /// works).
    pub fn disabled() -> Self {
        CheckpointConfig {
            max_wal_bytes: u64::MAX,
            max_wal_batches: u64::MAX,
        }
    }
}

/// Checkpoint activity counters, surfaced by `/stats` (`ingest.checkpoints`,
/// `checkpoint_epoch`, `checkpoint_failures`, `checkpoint_last_error`,
/// `checkpoint_pool_*`) and `/metrics` (`yask_checkpoints_total`,
/// `yask_checkpoint_failures_total`, …).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints taken since startup.
    pub checkpoints: u64,
    /// Epoch of the most recent checkpoint (0 before the first).
    pub last_epoch: u64,
    /// Checkpoint attempts that failed since startup, automatic or
    /// [`Ingestor::checkpoint_now`]. While this climbs the log is not
    /// being truncated: it — and recovery time — grow without bound.
    pub failures: u64,
    /// The most recent checkpoint failure, if the latest attempt failed
    /// (cleared by the next success). The triggering write batch is
    /// unaffected — it is already durable in the log.
    pub last_error: Option<String>,
    /// Cumulative buffer-pool counters of every checkpoint file touched
    /// — snapshot saves plus the recovery load, summed, so `/metrics`
    /// can price checkpoint I/O alongside the WAL and shard pools.
    pub pool: PoolStats,
}

/// Failure of a group application, carrying the outcomes of the chunks
/// that were already durably committed *and* published before the error:
/// the corpus, log and executor are consistent on that prefix, and a
/// caller can resubmit exactly the batches beyond `applied.len()` —
/// blindly retrying the whole group would double-apply the prefix's
/// inserts.
#[derive(Debug)]
pub struct GroupError {
    /// Outcomes of the batches applied before the failure (batch order).
    pub applied: Vec<ApplyOutcome>,
    /// The underlying failure.
    pub error: IngestError,
}

impl std::fmt::Display for GroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "group failed after {} applied batches: {}",
            self.applied.len(),
            self.error
        )
    }
}

impl std::error::Error for GroupError {}

/// What one committed batch did.
#[derive(Clone, Debug)]
pub struct ApplyOutcome {
    /// The epoch the batch published (== durable batch count).
    pub epoch: u64,
    /// Ids assigned to the batch's inserts, in batch order.
    pub inserted: Vec<ObjectId>,
    /// Ids the batch tombstoned.
    pub deleted: Vec<ObjectId>,
    /// Whether the executor re-split the STR partition afterwards.
    pub rebalanced: bool,
}

type VocabSource = Box<dyn Fn() -> Vec<String> + Send>;

/// Latency histogram snapshots of the full write path, for `/metrics`:
/// the log's commit timings plus the ingestor's own phases.
#[derive(Clone, Debug, Default)]
pub struct IngestHistSnapshots {
    /// Whole durable WAL commits (encode + data write + both fsyncs).
    pub wal_append: HistogramSnapshot,
    /// Individual commit-path `fsync` calls (two per commit group).
    pub wal_fsync: HistogramSnapshot,
    /// Checkpoint folds: snapshot write + log truncation.
    pub checkpoint: HistogramSnapshot,
    /// Executor publishes ([`Executor::apply_batch`]): incremental tree
    /// maintenance + epoch swap, one sample per batch.
    pub write_apply: HistogramSnapshot,
}

struct WriterState {
    corpus: Corpus,
    epoch: u64,
    wal: Option<Wal>,
    /// `<wal>.ckpt`; `None` disables checkpointing (volatile ingestor).
    ckpt_path: Option<PathBuf>,
    ckpt_config: CheckpointConfig,
    ckpt_stats: CheckpointStats,
    /// Supplies the vocabulary words (id order) embedded in snapshots;
    /// set by the service layer, which owns the vocabulary.
    vocab_source: Option<VocabSource>,
    /// Vocabulary recovered from the checkpoint at startup — the
    /// fallback payload for later snapshots when no source is set.
    recovered_vocab: Option<Vec<String>>,
    /// Cumulative chunk copy-on-write work of every applied batch.
    copy: CopyStats,
    /// Times checkpoint folds (snapshot write + log truncation).
    checkpoint_hist: Histogram,
    /// Times executor publishes, one sample per batch.
    apply_hist: Histogram,
    /// Sliding-window twin of `apply_hist`: recent publish rate and
    /// latency for the health surface, where since-boot histograms
    /// cannot distinguish "slow now" from "slow once".
    apply_window: SlidingWindow,
}

impl WriterState {
    /// The one constructor: a writer at `epoch` over `corpus` with no log
    /// and checkpointing disabled; a durable ingestor overrides the log
    /// fields.
    fn volatile(corpus: Corpus, epoch: u64) -> Self {
        WriterState {
            corpus,
            epoch,
            wal: None,
            ckpt_path: None,
            ckpt_config: CheckpointConfig::disabled(),
            ckpt_stats: CheckpointStats::default(),
            vocab_source: None,
            recovered_vocab: None,
            copy: CopyStats::default(),
            checkpoint_hist: Histogram::new(),
            apply_hist: Histogram::new(),
            apply_window: SlidingWindow::standard(),
        }
    }

    /// Runs one checkpoint: durable snapshot first, then the log
    /// truncation. Requires a log and a checkpoint path (a volatile
    /// ingestor has nothing to attempt, so its error is not counted).
    /// Timed into the checkpoint histogram even on failure — the stall
    /// was real — and a failed attempt is counted and kept in
    /// `last_error` whoever asked for it.
    fn checkpoint(&mut self) -> Result<u64, IngestError> {
        let path = self
            .ckpt_path
            .clone()
            .ok_or_else(|| IngestError::WalCorrupt("no checkpoint path configured".into()))?;
        let t0 = Instant::now();
        let result = self.checkpoint_inner(&path);
        self.checkpoint_hist.record(t0.elapsed());
        if let Err(e) = &result {
            self.ckpt_stats.failures += 1;
            self.ckpt_stats.last_error = Some(e.to_string());
        }
        result
    }

    fn checkpoint_inner(&mut self, path: &Path) -> Result<u64, IngestError> {
        let vocab = match (&self.vocab_source, &self.recovered_vocab) {
            (Some(source), _) => source(),
            (None, Some(recovered)) => recovered.clone(),
            (None, None) => Vec::new(),
        };
        let epoch = self.epoch;
        let pool = save_checkpoint(
            path,
            &Checkpoint {
                corpus: self.corpus.clone(),
                epoch,
                vocab,
            },
        )?;
        self.ckpt_stats.pool += pool;
        let wal = self
            .wal
            .as_mut()
            .ok_or_else(|| IngestError::WalCorrupt("checkpoint without a log".into()))?;
        wal.reset(self.corpus.slot_count() as u64, epoch)?;
        self.ckpt_stats.checkpoints += 1;
        self.ckpt_stats.last_epoch = epoch;
        self.ckpt_stats.last_error = None;
        Ok(epoch)
    }

    /// Checkpoints when the log has outgrown the thresholds; failures
    /// are recorded, never raised (the triggering batch is already
    /// durable and published).
    fn maybe_checkpoint(&mut self) {
        if self.ckpt_path.is_none() {
            return;
        }
        let Some(wal) = &self.wal else { return };
        if wal.bytes() < self.ckpt_config.max_wal_bytes
            && wal.batches() < self.ckpt_config.max_wal_batches
        {
            return;
        }
        let _ = self.checkpoint();
    }
}

/// The serialized write path of a live YASK deployment.
pub struct Ingestor {
    inner: Mutex<WriterState>,
}

impl Ingestor {
    /// A volatile ingestor (no log): updates apply to the running engine
    /// but do not survive a restart.
    pub fn new(corpus: Corpus) -> Self {
        Ingestor {
            inner: Mutex::new(WriterState::volatile(corpus, 0)),
        }
    }

    /// A durable ingestor with the default [`CheckpointConfig`]: opens
    /// (or creates) the write-ahead log at `path`, loads the checkpoint
    /// snapshot at [`checkpoint_path`] when one exists, and replays only
    /// the log records committed after it — so restart time is bounded by
    /// the checkpoint interval, not by history length. Build the
    /// [`Executor`] over [`Ingestor::corpus`] at [`Ingestor::epoch`]
    /// afterwards.
    pub fn with_wal(seed: Corpus, path: &Path) -> Result<Self, IngestError> {
        Ingestor::with_wal_config(seed, path, CheckpointConfig::default())
    }

    /// [`Ingestor::with_wal`] with explicit checkpoint thresholds.
    pub fn with_wal_config(
        seed: Corpus,
        path: &Path,
        config: CheckpointConfig,
    ) -> Result<Self, IngestError> {
        let ckpt_path = checkpoint_path(path);
        let snapshot = load_checkpoint_with_stats(&ckpt_path).map_err(|e| match e.kind() {
            std::io::ErrorKind::InvalidData => IngestError::WalCorrupt(e.to_string()),
            _ => IngestError::Io(e),
        })?;
        let (snapshot, load_pool) = match snapshot {
            Some((ck, pool)) => (Some(ck), pool),
            None => (None, PoolStats::default()),
        };

        // Establish the base (corpus state the log's tail applies on top
        // of) and the tail records themselves.
        let (wal, tail, base_corpus, base_epoch, recovered_vocab) = match snapshot {
            None if !path.exists() => {
                let wal = Wal::create(path, seed.slot_count() as u64, 0)?;
                (wal, Vec::new(), seed, 0u64, None)
            }
            None => {
                let (wal, batches) = Wal::open_existing(path)?;
                if wal.base_epoch() != 0 {
                    // The log was truncated against a checkpoint that has
                    // since disappeared: its records are not enough.
                    return Err(IngestError::WalCorrupt(format!(
                        "log expects a checkpoint at epoch {} but none exists",
                        wal.base_epoch()
                    )));
                }
                if wal.base_slots() != seed.slot_count() as u64 {
                    return Err(IngestError::WalBaseMismatch {
                        wal: wal.base_slots(),
                        corpus: seed.slot_count() as u64,
                    });
                }
                (wal, batches, seed, 0u64, None)
            }
            Some(ck) => {
                let slots = ck.corpus.slot_count() as u64;
                if !path.exists() {
                    let wal = Wal::create(path, slots, ck.epoch)?;
                    (wal, Vec::new(), ck.corpus, ck.epoch, Some(ck.vocab))
                } else {
                    let (wal, batches) = Wal::open_existing(path)?;
                    if wal.base_epoch() > ck.epoch {
                        return Err(IngestError::WalCorrupt(format!(
                            "log base epoch {} is ahead of checkpoint epoch {}",
                            wal.base_epoch(),
                            ck.epoch
                        )));
                    }
                    // Crash window: the snapshot landed but the log was
                    // not truncated. Skip the records the snapshot
                    // already covers — and deliberately do *not* rewrite
                    // the log here: a reset-then-reappend could itself be
                    // interrupted between its two publishes, losing
                    // already-acknowledged tail batches. The stale log
                    // stays valid as-is (this skip runs on every open)
                    // until the next checkpoint truncates it atomically
                    // behind a snapshot that covers everything.
                    let skip = (ck.epoch - wal.base_epoch()) as usize;
                    if batches.len() < skip {
                        return Err(IngestError::WalCorrupt(format!(
                            "checkpoint at epoch {} covers {} records the log does not hold",
                            ck.epoch, skip
                        )));
                    }
                    let tail = batches[skip..].to_vec();
                    if skip == 0 && wal.base_slots() != slots {
                        return Err(IngestError::WalBaseMismatch {
                            wal: wal.base_slots(),
                            corpus: slots,
                        });
                    }
                    (wal, tail, ck.corpus, ck.epoch, Some(ck.vocab))
                }
            }
        };

        let mut corpus = base_corpus;
        let mut epoch = base_epoch;
        for batch in &tail {
            // A committed batch was validated before it was logged; a
            // batch that no longer validates means the log or base corpus
            // was swapped underneath us.
            validate_batch(&corpus, batch).map_err(|e| {
                IngestError::WalCorrupt(format!("batch {} fails replay: {e}", epoch + 1))
            })?;
            let (next, _, _) = apply_batch(&corpus, batch);
            corpus = next;
            epoch += 1;
        }
        debug_assert_eq!(epoch, wal.base_epoch() + wal.batches());
        Ok(Ingestor {
            inner: Mutex::new(WriterState {
                wal: Some(wal),
                ckpt_path: Some(ckpt_path),
                ckpt_config: config,
                ckpt_stats: CheckpointStats {
                    pool: load_pool,
                    ..CheckpointStats::default()
                },
                recovered_vocab,
                ..WriterState::volatile(corpus, epoch)
            }),
        })
    }

    /// The current (writer-side) corpus version.
    pub fn corpus(&self) -> Corpus {
        self.inner.lock().corpus.clone()
    }

    /// The current epoch (committed batch count).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Write-ahead-log counters; `None` when running without a log.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.inner.lock().wal.as_ref().map(|w| w.stats())
    }

    /// Checkpoint activity counters.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.inner.lock().ckpt_stats.clone()
    }

    /// Latency histogram snapshots of the write path. A volatile
    /// ingestor (no log) reports empty WAL histograms.
    pub fn latency_snapshots(&self) -> IngestHistSnapshots {
        let inner = self.inner.lock();
        let wal = inner.wal.as_ref().map(|w| w.hist_snapshots()).unwrap_or_default();
        IngestHistSnapshots {
            wal_append: wal.append,
            wal_fsync: wal.fsync,
            checkpoint: inner.checkpoint_hist.snapshot(),
            write_apply: inner.apply_hist.snapshot(),
        }
    }

    /// Sliding-window view of executor publishes at the standard
    /// 1 s / 10 s / 1 m horizons ([`WINDOW_HORIZONS_SECS`] order) — the
    /// recent-rate counterpart of the since-boot
    /// [`IngestHistSnapshots::write_apply`] histogram, feeding
    /// `/debug/health`'s write-side verdict.
    pub fn write_apply_windows(&self) -> [WindowSnapshot; 3] {
        let inner = self.inner.lock();
        WINDOW_HORIZONS_SECS.map(|h| inner.apply_window.snapshot(h))
    }

    /// Cumulative chunk copy-on-write work of every batch applied since
    /// startup — divided by the batch count this proves per-batch write
    /// cost is O(batch + touched chunks), independent of corpus size.
    pub fn copy_stats(&self) -> CopyStats {
        self.inner.lock().copy
    }

    /// The vocabulary recovered from the checkpoint snapshot at startup
    /// (id order), if one was loaded.
    pub fn recovered_vocab(&self) -> Option<Vec<String>> {
        self.inner.lock().recovered_vocab.clone()
    }

    /// Installs the snapshot vocabulary source: called at checkpoint time
    /// to embed the current string → id intern order. The service layer
    /// owns the vocabulary, so it supplies the closure.
    pub fn set_vocab_source(&self, source: impl Fn() -> Vec<String> + Send + 'static) {
        self.inner.lock().vocab_source = Some(Box::new(source));
    }

    /// Forces a checkpoint immediately (admin / test hook): snapshots the
    /// current epoch and truncates the log. Errors when the ingestor is
    /// volatile.
    pub fn checkpoint_now(&self) -> Result<u64, IngestError> {
        self.inner.lock().checkpoint()
    }

    /// Applies one batch through the full write protocol (see the module
    /// docs) and publishes the resulting epoch on `exec`: the one-batch
    /// case of [`Ingestor::apply_group`]. Batches from concurrent callers
    /// serialize on the writer lock; readers are never blocked.
    pub fn apply(&self, exec: &Executor, batch: &[Update]) -> Result<ApplyOutcome, IngestError> {
        self.commit(exec, &[batch], GroupCommitConfig::default())
            .map(|mut outcomes| outcomes.remove(0))
            .map_err(|e| e.error)
    }

    /// Applies several batches with *group commit*: the batches are
    /// validated (each against the corpus as its predecessors leave it),
    /// chunked by the config's window/size limits, and every chunk is
    /// committed under **one** two-phase fsync pair
    /// ([`Wal::append_group`]) before its batches publish their epochs —
    /// amortizing the two syncs that dominate small-batch write latency
    /// while keeping one epoch per batch, exactly as if the batches had
    /// been applied one by one.
    ///
    /// **Admission** is all-or-nothing: if *any* batch fails validation
    /// the whole group is rejected before anything reaches the log, so
    /// the log never carries a batch that cannot replay. **Durability
    /// and publication** then proceed chunk by chunk (each chunk's
    /// commit is atomic): if an I/O error interrupts a later chunk, the
    /// chunks before it are already durable *and* published — the log,
    /// the in-memory corpus and the executor stay mutually consistent on
    /// that prefix, and the returned [`GroupError`] carries that prefix's
    /// outcomes, so a retry resubmits exactly the batches beyond
    /// `applied.len()` (resubmitting the whole group would double-apply
    /// the prefix's inserts).
    pub fn apply_group(
        &self,
        exec: &Executor,
        batches: &[Vec<Update>],
        config: GroupCommitConfig,
    ) -> Result<Vec<ApplyOutcome>, GroupError> {
        let batches: Vec<&[Update]> = batches.iter().map(Vec::as_slice).collect();
        self.commit(exec, &batches, config)
    }

    /// The one write protocol behind [`Ingestor::apply`] and
    /// [`Ingestor::apply_group`]: validate and derive → log → publish
    /// (see the module docs).
    fn commit(
        &self,
        exec: &Executor,
        batches: &[&[Update]],
        config: GroupCommitConfig,
    ) -> Result<Vec<ApplyOutcome>, GroupError> {
        let mut inner = self.inner.lock();
        // Validate the whole group up front against the evolving corpus.
        let mut staged = Vec::with_capacity(batches.len());
        let mut probe = inner.corpus.clone();
        for &batch in batches {
            if let Err(error) = validate_batch(&probe, batch) {
                return Err(GroupError {
                    applied: Vec::new(),
                    error,
                });
            }
            let (next, inserted, deleted, copy) = apply_batch_counted(&probe, batch);
            probe = next.clone();
            staged.push((next, inserted, deleted, copy));
        }

        // Chunk into commit groups within the window/size caps (a single
        // oversized batch still commits alone).
        let max_batches = config.max_batches.max(1);
        let mut outcomes = Vec::with_capacity(batches.len());
        let mut start = 0usize;
        while start < batches.len() {
            let mut end = start;
            let mut bytes = 0usize;
            while end < batches.len() && end - start < max_batches {
                let len = encoded_len(batches[end]);
                if end > start && bytes + len > config.max_bytes {
                    break;
                }
                bytes += len;
                end += 1;
            }
            if let Some(wal) = &mut inner.wal {
                if let Err(e) = wal.append_group(&batches[start..end]) {
                    // Earlier chunks are durable and published; hand the
                    // caller their outcomes so only the suffix retries.
                    return Err(GroupError {
                        applied: outcomes,
                        error: e.into(),
                    });
                }
            }
            for (corpus, inserted, deleted, copy) in staged.drain(..end - start) {
                // Copy work is billed only once the batch is durable and
                // published — a failed suffix must not inflate /stats.
                inner.copy.absorb(&copy);
                inner.corpus = corpus.clone();
                inner.epoch += 1;
                let t0 = Instant::now();
                let outcome = exec.apply_batch(corpus, &inserted, &deleted);
                let dt = t0.elapsed();
                inner.apply_hist.record(dt);
                inner.apply_window.record(dt);
                debug_assert_eq!(
                    outcome.epoch, inner.epoch,
                    "executor epoch diverged from the durable epoch"
                );
                outcomes.push(ApplyOutcome {
                    epoch: inner.epoch,
                    inserted,
                    deleted,
                    rebalanced: outcome.rebalanced,
                });
            }
            start = end;
        }
        inner.maybe_checkpoint();
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::NewObject;
    use yask_exec::ExecConfig;
    use yask_geo::{Point, Space};
    use yask_index::CorpusBuilder;
    use yask_text::KeywordSet;
    use yask_util::Xoshiro256;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("yask-ingestor-{}-{}", std::process::id(), name));
        p
    }

    fn random_corpus(n: usize, seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            let doc = KeywordSet::from_raw((0..1 + rng.below(4)).map(|_| rng.below(12) as u32));
            b.push(Point::new(rng.next_f64(), rng.next_f64()), doc, format!("o{i}"));
        }
        b.build()
    }

    fn insert(x: f64, y: f64, name: &str) -> Update {
        Update::Insert(NewObject::new(
            Point::new(x, y),
            KeywordSet::from_raw([1u32, 2]),
            name,
        ))
    }

    #[test]
    fn volatile_apply_updates_executor_and_rejects_bad_batches() {
        let corpus = random_corpus(100, 1);
        let exec = Executor::new(corpus.clone(), ExecConfig::default());
        let ingest = Ingestor::new(corpus);
        let out = ingest
            .apply(&exec, &[insert(0.4, 0.4, "new"), Update::Delete(ObjectId(3))])
            .unwrap();
        assert_eq!(out.epoch, 1);
        assert_eq!(out.inserted, vec![ObjectId(100)]);
        assert_eq!(out.deleted, vec![ObjectId(3)]);
        assert_eq!(exec.epoch(), 1);
        assert_eq!(exec.corpus().len(), 100);
        assert!(!exec.corpus().contains(ObjectId(3)));
        // The dead id is now rejected, and the failed batch burns no epoch.
        assert!(matches!(
            ingest.apply(&exec, &[Update::Delete(ObjectId(3))]),
            Err(IngestError::DeadObject(ObjectId(3)))
        ));
        assert_eq!(ingest.epoch(), 1);
        assert_eq!(exec.epoch(), 1);
        assert!(ingest.wal_stats().is_none());
    }

    #[test]
    fn wal_replay_reconverges_corpus_and_epoch() {
        let path = tmp("replay.wal");
        std::fs::remove_file(&path).ok();
        let seed = random_corpus(60, 2);
        let final_corpus;
        {
            let ingest = Ingestor::with_wal(seed.clone(), &path).unwrap();
            let exec = Executor::new_at_epoch(ingest.corpus(), ExecConfig::default(), ingest.epoch());
            ingest.apply(&exec, &[insert(0.1, 0.9, "a")]).unwrap();
            ingest
                .apply(&exec, &[Update::Delete(ObjectId(5)), insert(0.6, 0.2, "b")])
                .unwrap();
            ingest.apply(&exec, &[Update::Delete(ObjectId(60))]).unwrap();
            assert_eq!(ingest.epoch(), 3);
            final_corpus = ingest.corpus();
        }
        // "Restart": replay the log over the seed.
        let revived = Ingestor::with_wal(seed, &path).unwrap();
        assert_eq!(revived.epoch(), 3);
        assert_eq!(revived.wal_stats().unwrap().batches, 3);
        let got = revived.corpus();
        assert_eq!(got.slot_count(), final_corpus.slot_count());
        assert_eq!(got.len(), final_corpus.len());
        for o in final_corpus.iter_slots() {
            assert_eq!(got.contains(o.id), final_corpus.contains(o.id), "{:?}", o.id);
            assert_eq!(got.get(o.id).loc, o.loc);
            assert_eq!(got.get(o.id).doc, o.doc);
            assert_eq!(got.get(o.id).name, o.name);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_amortizes_fsyncs_and_replays() {
        let path = tmp("group-replay.wal");
        std::fs::remove_file(&path).ok();
        let seed = random_corpus(80, 5);
        let batches: Vec<Vec<Update>> = vec![
            vec![insert(0.1, 0.2, "g0"), Update::Delete(ObjectId(3))],
            vec![insert(0.5, 0.5, "g1")],
            vec![insert(0.9, 0.1, "g2"), Update::Delete(ObjectId(7))],
            vec![Update::Delete(ObjectId(11))],
            vec![insert(0.3, 0.8, "g4")],
        ];
        let final_corpus;
        {
            let ingest = Ingestor::with_wal(seed.clone(), &path).unwrap();
            let exec = Executor::new_at_epoch(ingest.corpus(), ExecConfig::default(), 0);
            let cfg = GroupCommitConfig {
                max_batches: 2, // force ⌈5/2⌉ = 3 commit groups
                ..GroupCommitConfig::default()
            };
            let outcomes = ingest.apply_group(&exec, &batches, cfg).unwrap();
            // One epoch per batch, in order, exactly as serial applies.
            assert_eq!(
                outcomes.iter().map(|o| o.epoch).collect::<Vec<_>>(),
                vec![1, 2, 3, 4, 5]
            );
            assert_eq!(exec.epoch(), 5);
            let stats = ingest.wal_stats().unwrap();
            assert_eq!(stats.batches, 5);
            assert_eq!(stats.groups, 3, "5 batches in 3 fsync pairs");
            final_corpus = ingest.corpus();
        }
        // Restart: replay reconverges to the same corpus and epoch.
        let revived = Ingestor::with_wal(seed, &path).unwrap();
        assert_eq!(revived.epoch(), 5);
        assert_eq!(revived.wal_stats().unwrap().groups, 3);
        let got = revived.corpus();
        assert_eq!(got.slot_count(), final_corpus.slot_count());
        assert_eq!(got.live_ids(), final_corpus.live_ids());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_with_an_invalid_batch_is_rejected_whole() {
        let path = tmp("group-reject.wal");
        std::fs::remove_file(&path).ok();
        let seed = random_corpus(20, 6);
        let ingest = Ingestor::with_wal(seed, &path).unwrap();
        let exec = Executor::new(ingest.corpus(), ExecConfig { shards: 1, ..ExecConfig::default() });
        let batches = vec![
            vec![insert(0.1, 0.1, "ok")],
            vec![Update::Delete(ObjectId(999))], // invalid: foreign id
        ];
        let err = ingest
            .apply_group(&exec, &batches, GroupCommitConfig::default())
            .unwrap_err();
        assert!(err.applied.is_empty(), "validation failure applies nothing");
        assert!(err.to_string().contains("after 0 applied batches"), "{err}");
        // Nothing was logged or published — not even the valid prefix.
        assert_eq!(ingest.epoch(), 0);
        assert_eq!(exec.epoch(), 0);
        assert_eq!(ingest.wal_stats().unwrap().batches, 0);
        assert_eq!(ingest.wal_stats().unwrap().groups, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_size_cap_splits_oversized_groups() {
        let seed = random_corpus(30, 7);
        let ingest = Ingestor::new(seed); // volatile: chunking still applies
        let exec = Executor::new(ingest.corpus(), ExecConfig { shards: 1, ..ExecConfig::default() });
        let batches: Vec<Vec<Update>> =
            (0..4).map(|i| vec![insert(0.2, 0.2, &format!("s{i}"))]).collect();
        let cfg = GroupCommitConfig {
            max_batches: 64,
            max_bytes: 1, // every batch overflows the cap → one per group
        };
        let outcomes = ingest.apply_group(&exec, &batches, cfg).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert_eq!(ingest.epoch(), 4);
        assert!(ingest.wal_stats().is_none(), "volatile ingestor has no log");
    }

    /// Deletes the WAL plus its checkpoint sidecar.
    fn clean(path: &std::path::Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(checkpoint_path(path)).ok();
    }

    fn assert_same_corpus(got: &Corpus, want: &Corpus) {
        assert_eq!(got.slot_count(), want.slot_count());
        assert_eq!(got.len(), want.len());
        assert_eq!(got.space(), want.space());
        for (a, b) in want.iter_slots().zip(got.iter_slots()) {
            assert_eq!(a.loc, b.loc);
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.name, b.name);
            assert_eq!(want.contains(a.id), got.contains(b.id), "{:?}", a.id);
        }
    }

    #[test]
    fn checkpoint_threshold_folds_log_and_bounds_replay() {
        let path = tmp("ckpt-threshold.wal");
        clean(&path);
        let seed = random_corpus(40, 9);
        let config = CheckpointConfig {
            max_wal_batches: 3,
            max_wal_bytes: u64::MAX,
        };
        let final_corpus;
        {
            let ingest = Ingestor::with_wal_config(seed.clone(), &path, config).unwrap();
            let exec = Executor::new(ingest.corpus(), ExecConfig { shards: 1, ..ExecConfig::default() });
            for i in 0..8 {
                ingest
                    .apply(&exec, &[insert(0.1 + 0.1 * (i % 5) as f64, 0.2, &format!("c{i}"))])
                    .unwrap();
            }
            // 8 batches at a 3-batch threshold: checkpoints at 3 and 6.
            let cs = ingest.checkpoint_stats();
            assert_eq!(cs.checkpoints, 2, "{cs:?}");
            assert_eq!(cs.last_epoch, 6);
            assert!(cs.last_error.is_none());
            let ws = ingest.wal_stats().unwrap();
            assert_eq!(ws.base_epoch, 6);
            assert_eq!(ws.batches, 2, "only post-checkpoint records remain");
            final_corpus = ingest.corpus();
        }
        // Restart: snapshot-then-tail — only 2 records replay, yet the
        // epoch and corpus are exactly the pre-restart ones.
        let revived = Ingestor::with_wal_config(seed, &path, config).unwrap();
        assert_eq!(revived.epoch(), 8);
        let ws = revived.wal_stats().unwrap();
        assert_eq!(ws.base_epoch, 6);
        assert_eq!(ws.batches, 2);
        assert_same_corpus(&revived.corpus(), &final_corpus);
        clean(&path);
    }

    #[test]
    fn checkpoint_now_truncates_and_vocab_round_trips() {
        let path = tmp("ckpt-now.wal");
        clean(&path);
        let seed = random_corpus(30, 10);
        let final_corpus;
        {
            let ingest = Ingestor::with_wal(seed.clone(), &path).unwrap();
            ingest.set_vocab_source(|| vec!["clean".to_owned(), "spa".to_owned()]);
            let exec = Executor::new(ingest.corpus(), ExecConfig { shards: 1, ..ExecConfig::default() });
            ingest.apply(&exec, &[insert(0.3, 0.3, "a")]).unwrap();
            ingest
                .apply(&exec, &[Update::Delete(ObjectId(2)), insert(0.4, 0.4, "b")])
                .unwrap();
            assert_eq!(ingest.checkpoint_now().unwrap(), 2);
            let ws = ingest.wal_stats().unwrap();
            assert_eq!((ws.base_epoch, ws.batches, ws.bytes), (2, 0, 0));
            // Post-checkpoint writes land in the truncated log.
            ingest.apply(&exec, &[insert(0.5, 0.5, "c")]).unwrap();
            assert_eq!(ingest.wal_stats().unwrap().batches, 1);
            final_corpus = ingest.corpus();
        }
        let revived = Ingestor::with_wal(seed, &path).unwrap();
        assert_eq!(revived.epoch(), 3);
        assert_same_corpus(&revived.corpus(), &final_corpus);
        assert_eq!(
            revived.recovered_vocab().unwrap(),
            vec!["clean".to_owned(), "spa".to_owned()]
        );
        clean(&path);
    }

    #[test]
    fn volatile_ingestor_cannot_checkpoint() {
        let ingest = Ingestor::new(random_corpus(10, 11));
        assert!(ingest.checkpoint_now().is_err());
        assert_eq!(ingest.checkpoint_stats(), CheckpointStats::default());
    }

    #[test]
    fn crash_between_snapshot_and_truncate_recovers_and_completes() {
        // Simulated kill after the snapshot rename but before the log
        // truncation: the log still carries every record, its base epoch
        // lagging the snapshot's. Recovery must skip the covered prefix
        // — leaving the log bytes untouched, so a kill *during* recovery
        // can never lose acknowledged batches — and the next checkpoint
        // completes the truncation atomically.
        let path = tmp("ckpt-crash.wal");
        clean(&path);
        let seed = random_corpus(25, 12);
        let final_corpus;
        let final_epoch;
        {
            let ingest = Ingestor::with_wal(seed.clone(), &path).unwrap();
            let exec = Executor::new(ingest.corpus(), ExecConfig { shards: 1, ..ExecConfig::default() });
            ingest.apply(&exec, &[insert(0.2, 0.7, "x")]).unwrap();
            ingest.apply(&exec, &[Update::Delete(ObjectId(4))]).unwrap();
            ingest.apply(&exec, &[insert(0.9, 0.1, "y")]).unwrap();
            final_corpus = ingest.corpus();
            final_epoch = ingest.epoch();
            // "Crash": write the snapshot by hand, do NOT touch the log.
            save_checkpoint(
                &checkpoint_path(&path),
                &Checkpoint {
                    corpus: ingest.corpus(),
                    epoch: ingest.epoch(),
                    vocab: Vec::new(),
                },
            )
            .unwrap();
        }
        let revived = Ingestor::with_wal(seed.clone(), &path).unwrap();
        assert_eq!(revived.epoch(), final_epoch);
        assert_same_corpus(&revived.corpus(), &final_corpus);
        // Recovery left the log bytes alone: the covered prefix is
        // skipped in memory, never rewritten on disk.
        let ws = revived.wal_stats().unwrap();
        assert_eq!(ws.base_epoch, 0);
        assert_eq!(ws.batches, 3);
        // A second restart over the untouched window is still exact.
        drop(revived);
        let again = Ingestor::with_wal(seed.clone(), &path).unwrap();
        assert_eq!(again.epoch(), final_epoch);
        assert_same_corpus(&again.corpus(), &final_corpus);
        // The *next* checkpoint completes the truncation atomically
        // (snapshot-first, then reset).
        again.checkpoint_now().unwrap();
        let ws = again.wal_stats().unwrap();
        assert_eq!((ws.base_epoch, ws.batches), (final_epoch, 0));
        drop(again);
        let last = Ingestor::with_wal(seed, &path).unwrap();
        assert_eq!(last.epoch(), final_epoch);
        assert_same_corpus(&last.corpus(), &final_corpus);
        clean(&path);
    }

    #[test]
    fn missing_checkpoint_for_truncated_log_is_corrupt() {
        let path = tmp("ckpt-missing.wal");
        clean(&path);
        let seed = random_corpus(20, 13);
        {
            let ingest = Ingestor::with_wal(seed.clone(), &path).unwrap();
            let exec = Executor::new(ingest.corpus(), ExecConfig { shards: 1, ..ExecConfig::default() });
            ingest.apply(&exec, &[insert(0.5, 0.5, "z")]).unwrap();
            ingest.checkpoint_now().unwrap();
        }
        // Delete the snapshot the truncated log depends on.
        std::fs::remove_file(checkpoint_path(&path)).unwrap();
        match Ingestor::with_wal(seed, &path) {
            Err(IngestError::WalCorrupt(why)) => {
                assert!(why.contains("checkpoint"), "{why}")
            }
            Err(other) => panic!("expected WalCorrupt, got {other}"),
            Ok(_) => panic!("truncated log without its checkpoint accepted"),
        }
        clean(&path);
    }

    #[test]
    fn copy_stats_accumulate_per_batch_work() {
        let seed = random_corpus(600, 14);
        let chunks_before = seed.chunk_count();
        let ingest = Ingestor::new(seed);
        let exec = Executor::new(ingest.corpus(), ExecConfig { shards: 1, ..ExecConfig::default() });
        assert_eq!(ingest.copy_stats(), CopyStats::default());
        ingest
            .apply(&exec, &[insert(0.5, 0.5, "a"), Update::Delete(ObjectId(3))])
            .unwrap();
        let s = ingest.copy_stats();
        // One delete in chunk 0, one insert in the tail chunk: two chunks
        // copied, far less than the whole corpus.
        assert_eq!(s.chunks_copied, 2);
        assert!(s.bytes_copied > 0);
        assert!(chunks_before >= 2, "corpus too small for the bound to mean anything");
        ingest.apply(&exec, &[insert(0.6, 0.6, "b")]).unwrap();
        assert!(ingest.copy_stats().chunks_copied > s.chunks_copied);
    }

    #[test]
    fn write_path_histograms_sample_every_phase() {
        let path = tmp("hist-phases.wal");
        clean(&path);
        let seed = random_corpus(30, 15);
        let ingest = Ingestor::with_wal(seed, &path).unwrap();
        let exec = Executor::new(ingest.corpus(), ExecConfig { shards: 1, ..ExecConfig::default() });
        assert_eq!(ingest.latency_snapshots().wal_append.count, 0);
        ingest.apply(&exec, &[insert(0.2, 0.2, "h0")]).unwrap();
        ingest.apply(&exec, &[insert(0.3, 0.3, "h1")]).unwrap();
        ingest.checkpoint_now().unwrap();
        let h = ingest.latency_snapshots();
        assert_eq!(h.wal_append.count, 2, "one sample per durable commit");
        assert_eq!(h.wal_fsync.count, 4, "two fsyncs per commit");
        assert_eq!(h.write_apply.count, 2, "one sample per published batch");
        assert_eq!(h.checkpoint.count, 1);
        assert!(h.checkpoint.sum_ns > 0);
        // The windowed twin saw the same two publishes (they just
        // happened, so they sit inside every horizon) and its horizons
        // nest.
        let [w1, w10, w60] = ingest.write_apply_windows();
        assert_eq!(w60.count, 2, "windowed view counts both publishes");
        assert!(w1.count <= w10.count && w10.count <= w60.count);
        assert_eq!(w60.sum_ns > 0, h.write_apply.sum_ns > 0);
        // Volatile ingestors still time publishes, just not the log.
        let volatile = Ingestor::new(random_corpus(10, 16));
        let exec2 = Executor::new(volatile.corpus(), ExecConfig { shards: 1, ..ExecConfig::default() });
        volatile.apply(&exec2, &[insert(0.4, 0.4, "v0")]).unwrap();
        let hv = volatile.latency_snapshots();
        assert_eq!(hv.wal_append.count, 0);
        assert_eq!(hv.write_apply.count, 1);
        clean(&path);
    }

    #[test]
    fn rejected_batches_never_reach_the_wal() {
        let path = tmp("reject.wal");
        std::fs::remove_file(&path).ok();
        let seed = random_corpus(10, 3);
        let ingest = Ingestor::with_wal(seed.clone(), &path).unwrap();
        let exec = Executor::new(ingest.corpus(), ExecConfig { shards: 1, ..ExecConfig::default() });
        assert!(ingest.apply(&exec, &[Update::Delete(ObjectId(99))]).is_err());
        assert!(ingest.apply(&exec, &[]).is_err());
        assert_eq!(ingest.wal_stats().unwrap().batches, 0);
        drop(ingest);
        let revived = Ingestor::with_wal(seed, &path).unwrap();
        assert_eq!(revived.epoch(), 0);
        std::fs::remove_file(&path).ok();
    }
}
