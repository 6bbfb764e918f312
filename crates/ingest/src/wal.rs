//! The write-ahead log, persisted through the `yask_pager` page store.
//!
//! One commit = one *group* of batches. [`Wal::append_group`] serializes
//! every batch of the group into the sequential data pages after the
//! committed tail, syncs them once, then publishes the new committed
//! length in the header page and syncs again — the classic two-phase
//! append, so a crash between the phases leaves a torn tail that the
//! header simply does not cover and replay ignores. Updates therefore
//! survive restarts exactly up to the last completed commit
//! (`fsync`-on-commit durability). [`Wal::append`] is the group of one.
//!
//! **Group commit.** The two syncs dominate small-batch write latency
//! (yaskbench's `write_mix` reports their p50 as `ingest.wal_fsync_us`),
//! so coalescing N batches under one sync pair amortizes the expensive part
//! N-fold while leaving the record format — and therefore replay —
//! completely unchanged: each batch keeps its own record and its own
//! epoch. [`GroupCommitConfig`] bounds how many batches/bytes one commit
//! may coalesce; the `groups` counter (batches ÷ groups = amortization
//! factor) is surfaced through [`WalStats`] and `/stats`.
//!
//! **Checkpointing.** The log applies on top of a *base*: the corpus
//! state at `base_epoch` with `base_slots` id slots — the seed corpus
//! for a fresh deployment (`base_epoch = 0`), or the latest
//! `yask_pager` checkpoint snapshot after the ingest layer folds the
//! log into one. [`Wal::reset`] truncates the log to empty over a new
//! base (one header publish + sync), which is how a checkpoint
//! atomically claims every record before it; recovery then replays only
//! the records committed after the checkpoint.
//!
//! File layout (4 KiB pages via [`BufferPool`]):
//!
//! | page | contents                                                     |
//! |------|--------------------------------------------------------------|
//! | 0    | header: magic, base slot count, committed bytes, batch count, group count, base epoch |
//! | 1…   | raw record bytes, sequential (byte `b` lives in page `1 + b/PAGE_SIZE`) |
//!
//! Record encoding (little-endian): per batch a `u32` op count, then per
//! op a tag byte — `0` = insert (`f64 x`, `f64 y`, `u32` name length +
//! UTF-8 bytes, `u32` keyword count + `u32` ids), `1` = delete (`u32`
//! slot id).

use std::io;
use std::path::Path;
use std::time::Instant;

use yask_geo::Point;
use yask_obs::{Histogram, HistogramSnapshot};
use yask_index::ObjectId;
use yask_pager::{BufferPool, PageId, PoolStats, PAGE_SIZE};
use yask_text::KeywordSet;

use crate::update::{IngestError, NewObject, Update};

const MAGIC: &[u8; 8] = b"YASKWAL1";
const TAG_INSERT: u8 = 0;
const TAG_DELETE: u8 = 1;
/// Upper bound on one record's variable payloads — a guard against
/// replaying a corrupt length as a multi-gigabyte allocation.
const MAX_FIELD: u32 = 1 << 24;

/// Counters of the durable log, surfaced by `/stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Committed batches *in the log* — records since the base. The
    /// durable epoch is `base_epoch + batches`.
    pub batches: u64,
    /// Committed payload bytes (since the base).
    pub bytes: u64,
    /// Commit groups flushed — each paid exactly one two-phase fsync
    /// pair, so `batches / groups` is the fsync amortization factor.
    pub groups: u64,
    /// The epoch the log's records apply on top of: 0 for a fresh log,
    /// the checkpoint epoch after a [`Wal::reset`].
    pub base_epoch: u64,
    /// Buffer-pool cache counters of the log file's pool — the log's
    /// page I/O, priced the same way the shard pager's is.
    pub pool: PoolStats,
}

/// Bounds on how much one group commit may coalesce.
#[derive(Clone, Copy, Debug)]
pub struct GroupCommitConfig {
    /// Maximum batches per commit group (the window).
    pub max_batches: usize,
    /// Maximum encoded payload bytes per commit group (the size cap); a
    /// single oversized batch still commits alone.
    pub max_bytes: usize,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            max_batches: 64,
            max_bytes: 256 * 1024,
        }
    }
}

/// Latency histogram snapshots of the log's commit path, for `/metrics`.
#[derive(Clone, Debug, Default)]
pub struct WalHistSnapshots {
    /// Whole durable commits ([`Wal::append_group`] / [`Wal::append`]):
    /// encode + data write + both fsyncs.
    pub append: HistogramSnapshot,
    /// Individual `fsync` calls on the commit path (two per group).
    pub fsync: HistogramSnapshot,
}

/// The append-only, replayable write-ahead log.
pub struct Wal {
    pool: BufferPool,
    base_slots: u64,
    base_epoch: u64,
    committed_bytes: u64,
    batches: u64,
    groups: u64,
    /// Times whole commits; recorded even when the commit errors (the
    /// latency was paid either way).
    append_hist: Histogram,
    /// Times each commit-path `fsync` individually, so sync cost and
    /// encode/write cost separate in the histograms.
    fsync_hist: Histogram,
}

impl Wal {
    /// Opens the log at `path`, creating it when absent. `base_slots` is
    /// the slot count of the corpus the log's batches apply on top of; an
    /// existing log recorded for a different base is rejected. Returns
    /// the log plus every committed batch, in commit order, for replay.
    pub fn open_or_create(
        path: &Path,
        base_slots: u64,
    ) -> Result<(Wal, Vec<Vec<Update>>), IngestError> {
        if path.exists() {
            let (wal, replayed) = Wal::open_existing(path)?;
            if wal.base_slots != base_slots {
                return Err(IngestError::WalBaseMismatch {
                    wal: wal.base_slots,
                    corpus: base_slots,
                });
            }
            Ok((wal, replayed))
        } else {
            Ok((Wal::create(path, base_slots, 0)?, Vec::new()))
        }
    }

    /// Creates a fresh, empty log whose records will apply on top of the
    /// corpus state at `base_epoch` with `base_slots` slots.
    pub fn create(path: &Path, base_slots: u64, base_epoch: u64) -> Result<Wal, IngestError> {
        let pool = BufferPool::create(path, 64)?;
        let header = pool.allocate()?;
        debug_assert_eq!(header, PageId(0));
        let wal = Wal {
            pool,
            base_slots,
            base_epoch,
            committed_bytes: 0,
            batches: 0,
            groups: 0,
            append_hist: Histogram::new(),
            fsync_hist: Histogram::new(),
        };
        wal.write_header(0, 0, 0)?;
        wal.pool.sync()?;
        Ok(wal)
    }

    /// Opens an existing log without a base expectation — the caller
    /// (checkpoint-aware recovery) inspects [`Wal::base_slots`] /
    /// [`Wal::base_epoch`] itself. Returns every committed batch, in
    /// commit order, for replay.
    pub fn open_existing(path: &Path) -> Result<(Wal, Vec<Vec<Update>>), IngestError> {
        let pool = BufferPool::open(path, 64)?;
        let header = pool.read(PageId(0))?;
        if &header[..8] != MAGIC {
            return Err(IngestError::WalCorrupt("bad magic".into()));
        }
        let word = |i: usize| u64::from_le_bytes(header[i..i + 8].try_into().expect("header word"));
        let base_slots = word(8);
        let committed_bytes = word(16);
        let batches = word(24);
        let groups = word(32);
        let base_epoch = word(40);
        // Plausibility-check the header words before they size any
        // allocation: a rotted header must be a WalCorrupt error, not a
        // capacity panic or a multi-gigabyte allocation during replay.
        let data_capacity = pool.page_count().saturating_sub(1) * PAGE_SIZE as u64;
        if committed_bytes > data_capacity {
            return Err(IngestError::WalCorrupt(format!(
                "header claims {committed_bytes} committed bytes but the file holds {data_capacity}"
            )));
        }
        // Every batch is at least its 4-byte op count.
        if batches > committed_bytes / 4 {
            return Err(IngestError::WalCorrupt(format!(
                "header claims {batches} batches in {committed_bytes} bytes"
            )));
        }
        // Every group commits at least one batch (pre-group-commit files
        // carry 0 here, which is fine).
        if groups > batches {
            return Err(IngestError::WalCorrupt(format!(
                "header claims {groups} groups for {batches} batches"
            )));
        }
        let wal = Wal {
            pool,
            base_slots,
            base_epoch,
            committed_bytes,
            batches,
            groups,
            append_hist: Histogram::new(),
            fsync_hist: Histogram::new(),
        };
        let replayed = wal.replay()?;
        Ok((wal, replayed))
    }

    /// Committed batch count since the base — the durable epoch is
    /// [`Wal::base_epoch`] plus this.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Slot count of the corpus state the log's records apply on top of.
    pub fn base_slots(&self) -> u64 {
        self.base_slots
    }

    /// Epoch of the corpus state the log's records apply on top of.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// Committed payload bytes.
    pub fn bytes(&self) -> u64 {
        self.committed_bytes
    }

    /// Commit groups flushed (each = one two-phase fsync pair).
    pub fn groups(&self) -> u64 {
        self.groups
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WalStats {
        WalStats {
            batches: self.batches,
            bytes: self.committed_bytes,
            groups: self.groups,
            base_epoch: self.base_epoch,
            pool: self.pool.stats(),
        }
    }

    /// Truncates the log to empty over a new base — the atomic tail of
    /// a checkpoint: once the snapshot for `base_epoch` is durably on
    /// disk, one header publish (+ sync) discards every record the
    /// snapshot already covers. A crash *before* this publish leaves the
    /// old header claiming the full record run, which recovery resolves
    /// by skipping the records the snapshot covers (the log bytes stay
    /// untouched until the next checkpoint truncates them).
    pub fn reset(&mut self, base_slots: u64, base_epoch: u64) -> io::Result<()> {
        let (old_slots, old_epoch) = (self.base_slots, self.base_epoch);
        self.base_slots = base_slots;
        self.base_epoch = base_epoch;
        if let Err(e) = self.write_header(0, 0, 0).and_then(|()| self.pool.sync()) {
            // Failed publish: keep describing the on-disk state.
            self.base_slots = old_slots;
            self.base_epoch = old_epoch;
            return Err(e);
        }
        self.committed_bytes = 0;
        self.batches = 0;
        self.groups = 0;
        Ok(())
    }

    /// Appends one batch and commits it durably — a group of one.
    pub fn append(&mut self, batch: &[Update]) -> io::Result<()> {
        self.append_group(&[batch])
    }

    /// Appends a *group* of batches under one durable commit: every
    /// batch's record is written past the committed tail, the data pages
    /// sync once, and one header publish (plus its sync) makes the whole
    /// group visible to replay — two fsyncs total instead of two per
    /// batch. Each batch keeps its own record, so replay still yields one
    /// epoch per batch in order.
    ///
    /// The in-memory counters advance only after the header commit fully
    /// succeeds: a failed commit leaves them on the old tail, so a retry
    /// rewrites the same bytes at the same offset (idempotent) instead of
    /// silently making the failed group durable behind the caller's back.
    /// A crash between the phases leaves the *entire group* invisible —
    /// group commit trades per-batch durability latency for atomicity of
    /// the group, never for torn batches.
    pub fn append_group(&mut self, batches: &[&[Update]]) -> io::Result<()> {
        if batches.is_empty() {
            return Ok(());
        }
        let t0 = Instant::now();
        let result = self.commit_group(batches);
        self.append_hist.record(t0.elapsed());
        result
    }

    fn commit_group(&mut self, batches: &[&[Update]]) -> io::Result<()> {
        let mut payload = Vec::new();
        for batch in batches {
            payload.extend_from_slice(&encode_batch(batch));
        }
        // Phase 1: the record bytes, beyond the committed tail. The
        // failpoints model each fault the two-phase commit is supposed
        // to survive: a failed payload write/sync leaves the group
        // invisible, a failed header write/sync leaves the *whole group*
        // invisible (counters don't advance), and a crash between the
        // phases is the torn-header case recovery resolves by replaying
        // only up to the old committed tail.
        yask_util::failpoint::fire("wal.write.payload")?;
        self.write_at(self.committed_bytes, &payload)?;
        yask_util::failpoint::fire("wal.sync.payload")?;
        self.sync_timed()?;
        // Phase 2: publish the new tail.
        let next_bytes = self.committed_bytes + payload.len() as u64;
        let next_batches = self.batches + batches.len() as u64;
        let next_groups = self.groups + 1;
        yask_util::failpoint::fire("wal.write.header")?;
        self.write_header(next_bytes, next_batches, next_groups)?;
        yask_util::failpoint::fire("wal.sync.header")?;
        self.sync_timed()?;
        self.committed_bytes = next_bytes;
        self.batches = next_batches;
        self.groups = next_groups;
        Ok(())
    }

    /// One commit-path `fsync`, timed into the fsync histogram.
    fn sync_timed(&self) -> io::Result<()> {
        let t0 = Instant::now();
        let result = self.pool.sync();
        self.fsync_hist.record(t0.elapsed());
        result
    }

    /// Snapshots of the commit-path latency histograms.
    pub fn hist_snapshots(&self) -> WalHistSnapshots {
        WalHistSnapshots {
            append: self.append_hist.snapshot(),
            fsync: self.fsync_hist.snapshot(),
        }
    }

    fn write_header(&self, committed_bytes: u64, batches: u64, groups: u64) -> io::Result<()> {
        let mut page = vec![0u8; PAGE_SIZE];
        page[..8].copy_from_slice(MAGIC);
        page[8..16].copy_from_slice(&self.base_slots.to_le_bytes());
        page[16..24].copy_from_slice(&committed_bytes.to_le_bytes());
        page[24..32].copy_from_slice(&batches.to_le_bytes());
        page[32..40].copy_from_slice(&groups.to_le_bytes());
        page[40..48].copy_from_slice(&self.base_epoch.to_le_bytes());
        self.pool.write(PageId(0), &page)
    }

    /// Writes `data` at byte offset `off` of the sequential data area,
    /// allocating pages as needed and read-modify-writing the partial
    /// head page.
    fn write_at(&self, mut off: u64, mut data: &[u8]) -> io::Result<()> {
        while !data.is_empty() {
            let page_idx = 1 + off / PAGE_SIZE as u64;
            while self.pool.page_count() <= page_idx {
                self.pool.allocate()?;
            }
            let within = (off % PAGE_SIZE as u64) as usize;
            let take = data.len().min(PAGE_SIZE - within);
            let mut page = if within == 0 && take == PAGE_SIZE {
                vec![0u8; PAGE_SIZE]
            } else {
                self.pool.read(PageId(page_idx))?.to_vec()
            };
            page[within..within + take].copy_from_slice(&data[..take]);
            self.pool.write(PageId(page_idx), &page)?;
            off += take as u64;
            data = &data[take..];
        }
        Ok(())
    }

    /// Decodes every committed batch from the data pages.
    fn replay(&self) -> Result<Vec<Vec<Update>>, IngestError> {
        let mut bytes = Vec::with_capacity(self.committed_bytes as usize);
        let mut remaining = self.committed_bytes;
        let mut page_idx = 1u64;
        while remaining > 0 {
            let page = self
                .pool
                .read(PageId(page_idx))
                .map_err(|e| IngestError::WalCorrupt(format!("missing data page: {e}")))?;
            let take = (remaining as usize).min(PAGE_SIZE);
            bytes.extend_from_slice(&page[..take]);
            remaining -= take as u64;
            page_idx += 1;
        }
        let mut cursor = Cursor { bytes: &bytes, pos: 0 };
        let mut out = Vec::with_capacity(self.batches as usize);
        for _ in 0..self.batches {
            out.push(decode_batch(&mut cursor)?);
        }
        if cursor.pos as u64 != self.committed_bytes {
            return Err(IngestError::WalCorrupt(format!(
                "{} committed bytes but batches end at {}",
                self.committed_bytes, cursor.pos
            )));
        }
        Ok(out)
    }
}

/// Encoded record size of one batch (for group-commit chunking).
pub(crate) fn encoded_len(batch: &[Update]) -> usize {
    batch
        .iter()
        .map(|op| match op {
            Update::Insert(o) => 1 + 16 + 4 + o.name.len() + 4 + 4 * o.doc.len(),
            Update::Delete(_) => 1 + 4,
        })
        .sum::<usize>()
        + 4
}

fn encode_batch(batch: &[Update]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * batch.len() + 4);
    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for op in batch {
        match op {
            Update::Insert(o) => {
                out.push(TAG_INSERT);
                out.extend_from_slice(&o.loc.x.to_le_bytes());
                out.extend_from_slice(&o.loc.y.to_le_bytes());
                out.extend_from_slice(&(o.name.len() as u32).to_le_bytes());
                out.extend_from_slice(o.name.as_bytes());
                out.extend_from_slice(&(o.doc.len() as u32).to_le_bytes());
                for kw in o.doc.raw() {
                    out.extend_from_slice(&kw.to_le_bytes());
                }
            }
            Update::Delete(id) => {
                out.push(TAG_DELETE);
                out.extend_from_slice(&id.0.to_le_bytes());
            }
        }
    }
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&[u8], IngestError> {
        if self.pos + n > self.bytes.len() {
            return Err(IngestError::WalCorrupt("record truncated".into()));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, IngestError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, IngestError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn f64(&mut self) -> Result<f64, IngestError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

fn decode_batch(c: &mut Cursor<'_>) -> Result<Vec<Update>, IngestError> {
    let n = c.u32()?;
    // Every op is at least its 1-byte tag + 4-byte id: a rotted count
    // must fail here, not size a huge allocation.
    if n > MAX_FIELD || n as usize > c.remaining() / 5 {
        return Err(IngestError::WalCorrupt(format!("implausible batch size {n}")));
    }
    let mut batch = Vec::with_capacity(n as usize);
    for _ in 0..n {
        match c.u8()? {
            TAG_INSERT => {
                let x = c.f64()?;
                let y = c.f64()?;
                let name_len = c.u32()?;
                if name_len > MAX_FIELD {
                    return Err(IngestError::WalCorrupt(format!(
                        "implausible name length {name_len}"
                    )));
                }
                let name = String::from_utf8(c.take(name_len as usize)?.to_vec())
                    .map_err(|e| IngestError::WalCorrupt(e.to_string()))?;
                let kws = c.u32()?;
                if kws > MAX_FIELD || kws as usize > c.remaining() / 4 {
                    return Err(IngestError::WalCorrupt(format!(
                        "implausible keyword count {kws}"
                    )));
                }
                let mut ids = Vec::with_capacity(kws as usize);
                for _ in 0..kws {
                    ids.push(c.u32()?);
                }
                batch.push(Update::Insert(NewObject {
                    loc: Point::new(x, y),
                    doc: KeywordSet::from_raw(ids),
                    name,
                }));
            }
            TAG_DELETE => batch.push(Update::Delete(ObjectId(c.u32()?))),
            tag => return Err(IngestError::WalCorrupt(format!("unknown record tag {tag}"))),
        }
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("yask-wal-{}-{}", std::process::id(), name));
        p
    }

    fn insert(x: f64, name: &str, kws: &[u32]) -> Update {
        Update::Insert(NewObject::new(
            Point::new(x, 0.5),
            KeywordSet::from_raw(kws.iter().copied()),
            name,
        ))
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = tmp("roundtrip.wal");
        std::fs::remove_file(&path).ok();
        let batches = vec![
            vec![insert(0.1, "hôtel-α", &[1, 2, 3]), Update::Delete(ObjectId(7))],
            vec![Update::Delete(ObjectId(9))],
            vec![insert(0.2, "", &[])],
        ];
        {
            let (mut wal, replayed) = Wal::open_or_create(&path, 50).unwrap();
            assert!(replayed.is_empty());
            for b in &batches {
                wal.append(b).unwrap();
            }
            assert_eq!(wal.batches(), 3);
            assert!(wal.bytes() > 0);
        }
        let (wal, replayed) = Wal::open_or_create(&path, 50).unwrap();
        assert_eq!(wal.batches(), 3);
        assert_eq!(replayed, batches);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn many_small_commits_span_pages() {
        let path = tmp("span.wal");
        std::fs::remove_file(&path).ok();
        let n = 400usize; // enough payload to cross several 4 KiB pages
        {
            let (mut wal, _) = Wal::open_or_create(&path, 0).unwrap();
            for i in 0..n {
                wal.append(&[insert(i as f64 / n as f64, &format!("obj-{i}"), &[i as u32])])
                    .unwrap();
            }
        }
        let (wal, replayed) = Wal::open_or_create(&path, 0).unwrap();
        assert_eq!(wal.batches(), n as u64);
        assert_eq!(replayed.len(), n);
        for (i, b) in replayed.iter().enumerate() {
            match &b[0] {
                Update::Insert(o) => assert_eq!(o.name, format!("obj-{i}")),
                other => panic!("unexpected record {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_replays_batch_per_batch() {
        let path = tmp("group.wal");
        std::fs::remove_file(&path).ok();
        let batches: Vec<Vec<Update>> = vec![
            vec![insert(0.1, "a", &[1]), Update::Delete(ObjectId(2))],
            vec![insert(0.2, "b", &[2, 3])],
            vec![Update::Delete(ObjectId(4))],
        ];
        {
            let (mut wal, _) = Wal::open_or_create(&path, 20).unwrap();
            let refs: Vec<&[Update]> = batches.iter().map(Vec::as_slice).collect();
            wal.append_group(&refs).unwrap();
            // One fsync pair, three durable batches.
            assert_eq!(wal.batches(), 3);
            assert_eq!(wal.groups(), 1);
            // Appending a single batch afterwards is a group of one.
            wal.append(&[insert(0.3, "c", &[5])]).unwrap();
            assert_eq!(wal.batches(), 4);
            assert_eq!(wal.groups(), 2);
            assert_eq!(wal.stats().groups, 2);
            // Empty groups are a no-op, not a counted flush.
            wal.append_group(&[]).unwrap();
            assert_eq!(wal.groups(), 2);
        }
        let (wal, replayed) = Wal::open_or_create(&path, 20).unwrap();
        assert_eq!(wal.groups(), 2);
        assert_eq!(replayed.len(), 4, "one epoch per batch survives replay");
        assert_eq!(replayed[..3], batches[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn commit_latency_histograms_count_appends_and_fsyncs() {
        let path = tmp("hist.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open_or_create(&path, 10).unwrap();
        assert_eq!(wal.hist_snapshots().append.count, 0);
        for i in 0..3 {
            wal.append(&[insert(0.1 * i as f64, &format!("h{i}"), &[i as u32])]).unwrap();
        }
        // Empty groups are a no-op: no commit, nothing recorded.
        wal.append_group(&[]).unwrap();
        let h = wal.hist_snapshots();
        assert_eq!(h.append.count, 3, "one sample per durable commit");
        assert_eq!(h.fsync.count, 6, "two fsyncs per commit");
        assert!(h.append.sum_ns >= h.fsync.sum_ns, "commits contain their fsyncs");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn encoded_len_matches_encoding() {
        let batches = vec![
            vec![insert(0.1, "hôtel-α", &[1, 2, 3]), Update::Delete(ObjectId(7))],
            vec![Update::Delete(ObjectId(9))],
            vec![insert(0.2, "", &[])],
            vec![],
        ];
        for b in &batches {
            assert_eq!(encoded_len(b), encode_batch(b).len(), "{b:?}");
        }
    }

    #[test]
    fn reset_truncates_over_a_new_base() {
        let path = tmp("reset.wal");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, _) = Wal::open_or_create(&path, 10).unwrap();
            for i in 0..4 {
                wal.append(&[insert(0.1 * i as f64, &format!("r{i}"), &[i as u32])]).unwrap();
            }
            assert_eq!((wal.base_epoch(), wal.batches()), (0, 4));
            // Checkpoint at epoch 4 with 12 slots: the log empties.
            wal.reset(12, 4).unwrap();
            assert_eq!((wal.base_slots(), wal.base_epoch()), (12, 4));
            assert_eq!((wal.batches(), wal.bytes(), wal.groups()), (0, 0, 0));
            assert_eq!(wal.stats().base_epoch, 4);
            // Post-reset appends land on the new base.
            wal.append(&[Update::Delete(ObjectId(2))]).unwrap();
        }
        let (wal, replayed) = Wal::open_existing(&path).unwrap();
        assert_eq!((wal.base_slots(), wal.base_epoch(), wal.batches()), (12, 4, 1));
        assert_eq!(replayed, vec![vec![Update::Delete(ObjectId(2))]]);
        // The pre-checkpoint base no longer matches: open_or_create with
        // the old base is a mismatch.
        assert!(matches!(
            Wal::open_or_create(&path, 10),
            Err(IngestError::WalBaseMismatch { wal: 12, corpus: 10 })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn base_mismatch_is_rejected() {
        let path = tmp("base.wal");
        std::fs::remove_file(&path).ok();
        let (_, _) = Wal::open_or_create(&path, 10).unwrap();
        let err = match Wal::open_or_create(&path, 11) {
            Err(e) => e,
            Ok(_) => panic!("base mismatch accepted"),
        };
        assert!(matches!(err, IngestError::WalBaseMismatch { wal: 10, corpus: 11 }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_beyond_the_header_is_invisible() {
        // Simulate a crash after phase 1 (data written) but before phase 2
        // (header publish): hand-write garbage into the data area without
        // updating the header. Replay must see only the committed prefix.
        let path = tmp("torn.wal");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, _) = Wal::open_or_create(&path, 5).unwrap();
            wal.append(&[Update::Delete(ObjectId(1))]).unwrap();
            // Phase-1-only write: bytes land after the committed tail.
            wal.write_at(wal.bytes(), &[0xFF; 64]).unwrap();
            wal.pool.sync().unwrap();
        }
        let (wal, replayed) = Wal::open_or_create(&path, 5).unwrap();
        assert_eq!(wal.batches(), 1);
        assert_eq!(replayed, vec![vec![Update::Delete(ObjectId(1))]]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn implausible_header_words_are_corrupt_not_a_panic() {
        let path = tmp("header.wal");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, _) = Wal::open_or_create(&path, 5).unwrap();
            wal.append(&[Update::Delete(ObjectId(1))]).unwrap();
        }
        let pristine = std::fs::read(&path).unwrap();
        // Rot the committed-bytes word, then the batch-count word: both
        // must surface as WalCorrupt, never size an allocation.
        for (offset, label) in [(16usize, "bytes"), (24usize, "batches")] {
            let mut bytes = pristine.clone();
            bytes[offset..offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            match Wal::open_or_create(&path, 5) {
                Err(IngestError::WalCorrupt(why)) => {
                    assert!(why.contains("header claims"), "{label}: {why}")
                }
                Err(other) => panic!("{label}: wrong error {other}"),
                Ok(_) => panic!("{label}: rotted header accepted"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let path = tmp("magic.wal");
        std::fs::remove_file(&path).ok();
        let (_, _) = Wal::open_or_create(&path, 0).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match Wal::open_or_create(&path, 0) {
            Err(IngestError::WalCorrupt(_)) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("corrupt magic accepted"),
        }
        std::fs::remove_file(&path).ok();
    }
}
