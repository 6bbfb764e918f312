//! The write operations a corpus accepts, and their validation.

use yask_geo::Point;
use yask_index::{Corpus, ObjectId};
use yask_text::KeywordSet;

/// A new spatio-textual object, before it has an id.
#[derive(Clone, Debug, PartialEq)]
pub struct NewObject {
    /// `o.loc`.
    pub loc: Point,
    /// `o.doc`.
    pub doc: KeywordSet,
    /// Display name.
    pub name: String,
}

impl NewObject {
    /// Convenience constructor.
    pub fn new(loc: Point, doc: KeywordSet, name: impl Into<String>) -> Self {
        NewObject {
            loc,
            doc,
            name: name.into(),
        }
    }
}

/// One corpus write operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Update {
    /// Add an object (a fresh id is assigned on apply).
    Insert(NewObject),
    /// Tombstone an existing live object.
    Delete(ObjectId),
}

/// Why a write batch was rejected. Validation runs *before* the batch
/// reaches the write-ahead log, so the log never records a batch that
/// cannot replay.
#[derive(Debug)]
pub enum IngestError {
    /// The batch contains no operations.
    EmptyBatch,
    /// A delete names a slot that does not exist.
    UnknownObject(ObjectId),
    /// A delete names a slot that is already tombstoned.
    DeadObject(ObjectId),
    /// The batch deletes the same live object twice — a malformed
    /// request, not a state conflict.
    DuplicateDelete(ObjectId),
    /// An insert carries a non-finite location.
    NonFiniteLocation,
    /// An insert carries a keyword id beyond
    /// [`yask_index::MAX_KEYWORD`], the largest a corpus indexes.
    KeywordOutOfRange(u32),
    /// The write-ahead log on disk does not belong to this base corpus
    /// (its recorded base slot count differs).
    WalBaseMismatch {
        /// Slot count recorded in the log header.
        wal: u64,
        /// Slot count of the corpus the caller supplied.
        corpus: u64,
    },
    /// The log file is corrupt.
    WalCorrupt(String),
    /// An I/O failure in the log.
    Io(std::io::Error),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::EmptyBatch => write!(f, "write batch is empty"),
            IngestError::UnknownObject(id) => write!(f, "object {id} does not exist"),
            IngestError::DeadObject(id) => write!(f, "object {id} is already deleted"),
            IngestError::DuplicateDelete(id) => {
                write!(f, "batch deletes object {id} more than once")
            }
            IngestError::NonFiniteLocation => write!(f, "insert location must be finite"),
            IngestError::KeywordOutOfRange(kw) => write!(
                f,
                "insert keyword id {kw} is beyond the largest a corpus indexes ({})",
                yask_index::MAX_KEYWORD
            ),
            IngestError::WalBaseMismatch { wal, corpus } => write!(
                f,
                "write-ahead log belongs to a corpus with {wal} base slots, not {corpus}"
            ),
            IngestError::WalCorrupt(why) => write!(f, "write-ahead log corrupt: {why}"),
            IngestError::Io(e) => write!(f, "write-ahead log I/O: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

/// Validates `batch` against a corpus version: every delete must target a
/// live slot (duplicates within the batch count as dead), every insert a
/// finite location and keyword ids no larger than
/// [`yask_index::MAX_KEYWORD`]. Inserts appended by the same batch are not yet
/// addressable — a batch cannot delete an object it inserts.
pub fn validate_batch(corpus: &Corpus, batch: &[Update]) -> Result<(), IngestError> {
    if batch.is_empty() {
        return Err(IngestError::EmptyBatch);
    }
    // Hash set, not a scan: a 1 MiB bulk request can carry ~10^5 deletes,
    // and validation runs under the global writer lock.
    let mut seen_deletes: yask_util::FxHashSet<u32> = yask_util::FxHashSet::default();
    for op in batch {
        match op {
            Update::Insert(o) => {
                if !o.loc.is_finite() {
                    return Err(IngestError::NonFiniteLocation);
                }
                if let Some(&kw) = o.doc.raw().iter().find(|&&kw| kw > yask_index::MAX_KEYWORD) {
                    return Err(IngestError::KeywordOutOfRange(kw));
                }
            }
            Update::Delete(id) => {
                if id.index() >= corpus.slot_count() {
                    return Err(IngestError::UnknownObject(*id));
                }
                if !corpus.contains(*id) {
                    return Err(IngestError::DeadObject(*id));
                }
                if !seen_deletes.insert(id.0) {
                    return Err(IngestError::DuplicateDelete(*id));
                }
            }
        }
    }
    Ok(())
}

/// Applies a *validated* batch to a corpus version; returns the next
/// version plus the ids assigned to the batch's inserts and the ids it
/// tombstoned.
pub fn apply_batch(corpus: &Corpus, batch: &[Update]) -> (Corpus, Vec<ObjectId>, Vec<ObjectId>) {
    let (next, inserted, deleted, _) = apply_batch_counted(corpus, batch);
    (next, inserted, deleted)
}

/// [`apply_batch`] also reporting the chunk copy-on-write work the
/// derivation performed ([`yask_index::CopyStats`]) — the ingest layer
/// accumulates it so `/stats` can prove write cost stays O(batch), not
/// O(n).
pub fn apply_batch_counted(
    corpus: &Corpus,
    batch: &[Update],
) -> (Corpus, Vec<ObjectId>, Vec<ObjectId>, yask_index::CopyStats) {
    let inserts = batch.iter().filter_map(|op| match op {
        Update::Insert(o) => Some((o.loc, o.doc.clone(), o.name.clone())),
        Update::Delete(_) => None,
    });
    let deletes: Vec<ObjectId> = batch
        .iter()
        .filter_map(|op| match op {
            Update::Delete(id) => Some(*id),
            Update::Insert(_) => None,
        })
        .collect();
    let (next, new_ids, copy) = corpus.with_updates_counted(inserts, &deletes);
    (next, new_ids, deletes, copy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::Space;
    use yask_index::CorpusBuilder;

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        b.push(Point::new(0.1, 0.1), KeywordSet::from_raw([1u32]), "a");
        b.push(Point::new(0.2, 0.2), KeywordSet::from_raw([2u32]), "b");
        b.build()
    }

    fn insert(x: f64, y: f64) -> Update {
        Update::Insert(NewObject::new(
            Point::new(x, y),
            KeywordSet::from_raw([3u32]),
            "new",
        ))
    }

    #[test]
    fn validation_rejects_bad_batches() {
        let c = corpus();
        assert!(matches!(
            validate_batch(&c, &[]),
            Err(IngestError::EmptyBatch)
        ));
        assert!(matches!(
            validate_batch(&c, &[Update::Delete(ObjectId(9))]),
            Err(IngestError::UnknownObject(ObjectId(9)))
        ));
        assert!(matches!(
            validate_batch(&c, &[Update::Delete(ObjectId(0)), Update::Delete(ObjectId(0))]),
            Err(IngestError::DuplicateDelete(ObjectId(0)))
        ));
        assert!(matches!(
            validate_batch(&c, &[insert(f64::NAN, 0.0)]),
            Err(IngestError::NonFiniteLocation)
        ));
        let (dead, _) = c.with_updates(std::iter::empty(), &[ObjectId(1)]);
        assert!(matches!(
            validate_batch(&dead, &[Update::Delete(ObjectId(1))]),
            Err(IngestError::DeadObject(ObjectId(1)))
        ));
    }

    #[test]
    fn apply_assigns_ids_in_batch_order() {
        let c = corpus();
        let batch = vec![
            insert(0.3, 0.3),
            Update::Delete(ObjectId(0)),
            insert(0.4, 0.4),
        ];
        validate_batch(&c, &batch).unwrap();
        let (next, inserted, deleted) = apply_batch(&c, &batch);
        assert_eq!(inserted, vec![ObjectId(2), ObjectId(3)]);
        assert_eq!(deleted, vec![ObjectId(0)]);
        assert_eq!(next.len(), 3);
        assert_eq!(next.slot_count(), 4);
    }

    #[test]
    fn errors_render() {
        for (e, needle) in [
            (IngestError::EmptyBatch, "empty"),
            (IngestError::UnknownObject(ObjectId(3)), "o3"),
            (IngestError::DeadObject(ObjectId(4)), "deleted"),
            (IngestError::DuplicateDelete(ObjectId(5)), "more than once"),
            (IngestError::NonFiniteLocation, "finite"),
            (IngestError::WalBaseMismatch { wal: 1, corpus: 2 }, "base slots"),
            (IngestError::WalCorrupt("bad".into()), "corrupt"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
