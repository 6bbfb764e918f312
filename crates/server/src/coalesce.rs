//! The time-window write coalescer: the server's write endpoints all
//! funnel through one [`WriteCoalescer`], which gathers the batches of
//! concurrent requests into a single [`Ingestor::apply_group`] call — so
//! small writes share one two-phase fsync pair *by default*, not only
//! when a client hand-assembles a bulk request.
//!
//! **Leader election.** A submitting thread enqueues its batch, then
//! takes the leader lock. If its reply already arrived while it waited,
//! a concurrent leader served it — done. Otherwise it *is* the leader:
//! it sleeps the coalescing window (giving stragglers time to enqueue),
//! drains the queue, and commits everything in one group. Replies are
//! delivered before the lock is released, so every follower wakes to a
//! finished verdict; a thread that finds the queue already drained
//! becomes the next leader. No thread can starve: each submitter either
//! receives a reply or leads its own commit.
//!
//! **Per-request error isolation.** Group admission in the ingest layer
//! is all-or-nothing — one malformed batch would reject the whole group,
//! poisoning innocent concurrent requests. When a group is rejected at
//! validation (nothing logged, nothing published), the leader falls back
//! to applying each batch individually, so every request gets exactly
//! the verdict it would have gotten alone. I/O failures mid-group keep
//! the ingest layer's prefix semantics: already-durable batches return
//! their outcomes, the suffix callers get the error.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use parking_lot::Mutex;
use yask_exec::Executor;
use yask_ingest::{ApplyOutcome, GroupCommitConfig, IngestError, Ingestor, Update};

/// Knobs of the server-side write coalescer.
#[derive(Clone, Copy, Debug)]
pub struct CoalesceConfig {
    /// How long a leader waits for concurrent writes to join its commit
    /// group. Zero disables the wait: coalescing then happens only
    /// "naturally" (requests that queued while a previous commit was in
    /// flight). The window is latency *added to every write*, so keep it
    /// at fsync scale.
    pub window: Duration,
    /// Bounds on one commit group (forwarded to the ingest layer).
    pub group: GroupCommitConfig,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            window: Duration::from_millis(1),
            group: GroupCommitConfig::default(),
        }
    }
}

/// How a coalesced write failed.
#[derive(Debug)]
pub enum WriteError {
    /// The batch itself was rejected at validation — the caller's fault,
    /// with the precise ingest error (maps to 4xx).
    Rejected(IngestError),
    /// The commit group hit an I/O failure before this batch became
    /// durable (maps to 500; the batch may be retried).
    Failed(String),
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::Rejected(e) => write!(f, "{e}"),
            WriteError::Failed(why) => write!(f, "write group failed: {why}"),
        }
    }
}

type Reply = Result<ApplyOutcome, WriteError>;

struct Pending {
    batch: Vec<Update>,
    reply: mpsc::Sender<Reply>,
}

/// The shared coalescer (one per [`crate::YaskService`]).
pub struct WriteCoalescer {
    queue: Mutex<Vec<Pending>>,
    /// Held by the thread currently committing a group; serializes
    /// commits and doubles as the "was I served?" barrier for followers.
    leader: Mutex<()>,
    config: CoalesceConfig,
    groups: AtomicU64,
    batches: AtomicU64,
}

impl WriteCoalescer {
    /// Creates a coalescer with the given knobs.
    pub fn new(config: CoalesceConfig) -> Self {
        WriteCoalescer {
            queue: Mutex::new(Vec::new()),
            leader: Mutex::new(()),
            config,
            groups: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    /// Commit groups led so far (each = one `apply_group` call).
    pub fn groups(&self) -> u64 {
        self.groups.load(Ordering::Relaxed)
    }

    /// Batches submitted so far; `batches / groups` is the coalescing
    /// factor.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Submits one batch, blocking until it is durably applied (or
    /// rejected). Concurrent submitters within the window share one
    /// commit group — and one fsync pair.
    pub fn submit(
        &self,
        ingest: &Ingestor,
        exec: &Executor,
        batch: Vec<Update>,
    ) -> Result<ApplyOutcome, WriteError> {
        let (tx, rx) = mpsc::channel();
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.queue.lock().push(Pending { batch, reply: tx });

        let _leader = self.leader.lock();
        if let Ok(reply) = rx.try_recv() {
            // A concurrent leader coalesced us into its group.
            return reply;
        }

        // We lead this group: wait for stragglers, then drain and commit.
        if !self.config.window.is_zero() {
            std::thread::sleep(self.config.window);
        }
        let pending: Vec<Pending> = std::mem::take(&mut *self.queue.lock());
        debug_assert!(!pending.is_empty(), "leader's own batch must be queued");

        let batches: Vec<Vec<Update>> = pending.iter().map(|p| p.batch.clone()).collect();
        match ingest.apply_group(exec, &batches, self.config.group) {
            Ok(outcomes) => {
                self.groups.fetch_add(1, Ordering::Relaxed);
                for (p, outcome) in pending.iter().zip(outcomes) {
                    let _ = p.reply.send(Ok(outcome));
                }
            }
            Err(e) if e.applied.is_empty() && is_rejection(&e.error) => {
                // Validation rejected the group before anything was
                // logged. Apply per batch so a malformed request cannot
                // poison its groupmates — each apply is then its own
                // commit group, and the counter says so (the reported
                // batches/groups ratio must not claim amortization the
                // fallback path did not deliver).
                self.groups.fetch_add(pending.len() as u64, Ordering::Relaxed);
                for p in &pending {
                    let verdict = ingest
                        .apply(exec, &p.batch)
                        .map_err(WriteError::Rejected);
                    let _ = p.reply.send(verdict);
                }
            }
            Err(e) => {
                // I/O failure mid-group: the durable prefix gets its
                // outcomes, the suffix gets the error.
                self.groups.fetch_add(1, Ordering::Relaxed);
                let why = e.error.to_string();
                let mut applied = e.applied.into_iter();
                for p in &pending {
                    let verdict = match applied.next() {
                        Some(outcome) => Ok(outcome),
                        None => Err(WriteError::Failed(why.clone())),
                    };
                    let _ = p.reply.send(verdict);
                }
            }
        }
        rx.recv().expect("leader serves its own batch")
    }
}

/// True for admission failures (the batch's own fault, nothing durable)
/// as opposed to I/O failures of the log.
fn is_rejection(e: &IngestError) -> bool {
    matches!(
        e,
        IngestError::EmptyBatch
            | IngestError::UnknownObject(_)
            | IngestError::DeadObject(_)
            | IngestError::DuplicateDelete(_)
            | IngestError::NonFiniteLocation
            | IngestError::KeywordOutOfRange(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use yask_exec::ExecConfig;
    use yask_geo::{Point, Space};
    use yask_index::{CorpusBuilder, ObjectId};
    use yask_ingest::NewObject;
    use yask_text::KeywordSet;

    fn corpus(n: usize) -> yask_index::Corpus {
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            b.push(
                Point::new((i % 10) as f64 / 10.0, (i % 7) as f64 / 7.0),
                KeywordSet::from_raw([(i % 5) as u32]),
                format!("o{i}"),
            );
        }
        b.build()
    }

    fn insert(name: &str) -> Update {
        Update::Insert(NewObject::new(
            Point::new(0.4, 0.6),
            KeywordSet::from_raw([1u32]),
            name,
        ))
    }

    fn harness(window: Duration) -> (Arc<Ingestor>, Arc<Executor>, Arc<WriteCoalescer>) {
        let c = corpus(60);
        let ingest = Arc::new(Ingestor::new(c.clone()));
        let exec = Arc::new(Executor::new(c, ExecConfig { shards: 1, ..ExecConfig::default() }));
        let coalescer = Arc::new(WriteCoalescer::new(CoalesceConfig {
            window,
            group: GroupCommitConfig::default(),
        }));
        (ingest, exec, coalescer)
    }

    #[test]
    fn single_writes_apply_and_count() {
        let (ingest, exec, co) = harness(Duration::ZERO);
        let out = co.submit(&ingest, &exec, vec![insert("a")]).unwrap();
        assert_eq!(out.epoch, 1);
        assert_eq!(out.inserted, vec![ObjectId(60)]);
        let out = co.submit(&ingest, &exec, vec![Update::Delete(ObjectId(3))]).unwrap();
        assert_eq!(out.epoch, 2);
        assert_eq!((co.groups(), co.batches()), (2, 2));
    }

    #[test]
    fn concurrent_writes_share_a_commit_group() {
        // A generous window so all threads join the first leader's group.
        let (ingest, exec, co) = harness(Duration::from_millis(120));
        let mut handles = Vec::new();
        for i in 0..6 {
            let (ingest, exec, co) = (Arc::clone(&ingest), Arc::clone(&exec), Arc::clone(&co));
            handles.push(std::thread::spawn(move || {
                co.submit(&ingest, &exec, vec![insert(&format!("c{i}"))]).unwrap()
            }));
        }
        let outcomes: Vec<ApplyOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every batch applied, one epoch each, all ids distinct.
        let mut epochs: Vec<u64> = outcomes.iter().map(|o| o.epoch).collect();
        epochs.sort_unstable();
        assert_eq!(epochs, vec![1, 2, 3, 4, 5, 6]);
        let mut ids: Vec<u32> = outcomes.iter().map(|o| o.inserted[0].0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 6, "duplicate ids from coalesced inserts");
        assert_eq!(ingest.epoch(), 6);
        // Coalescing actually happened: fewer groups than batches.
        assert_eq!(co.batches(), 6);
        assert!(
            co.groups() < 6,
            "6 sequentially-fsynced groups despite a 120 ms window"
        );
    }

    #[test]
    fn bad_batch_does_not_poison_its_groupmates() {
        let (ingest, exec, co) = harness(Duration::from_millis(120));
        let good = {
            let (ingest, exec, co) = (Arc::clone(&ingest), Arc::clone(&exec), Arc::clone(&co));
            std::thread::spawn(move || co.submit(&ingest, &exec, vec![insert("good")]))
        };
        // Give the first thread time to become leader and start waiting.
        std::thread::sleep(Duration::from_millis(30));
        let bad = {
            let (ingest, exec, co) = (Arc::clone(&ingest), Arc::clone(&exec), Arc::clone(&co));
            std::thread::spawn(move || {
                co.submit(&ingest, &exec, vec![Update::Delete(ObjectId(9999))])
            })
        };
        let good = good.join().unwrap().expect("valid batch must succeed");
        assert_eq!(good.inserted, vec![ObjectId(60)]);
        match bad.join().unwrap() {
            Err(WriteError::Rejected(IngestError::UnknownObject(id))) => {
                assert_eq!(id, ObjectId(9999))
            }
            other => panic!("expected per-batch rejection, got {other:?}"),
        }
        assert_eq!(ingest.epoch(), 1, "only the valid batch became an epoch");
    }
}
