//! Checkpoint snapshots — the WAL-compaction format (`YASKPG03`).
//!
//! A checkpoint folds a whole corpus *epoch* into one self-contained
//! file so the write-ahead log can be truncated to the records committed
//! after it: restart recovery loads the snapshot and replays only the
//! log tail, bounding restart time by the checkpoint interval instead of
//! the full update history.
//!
//! The file holds two paged streams and a header:
//!
//! * the **corpus stream** — space bounds, slot count, then every slot
//!   with a liveness flag (tombstones are kept so ids stay positional);
//! * the **vocabulary** as interned at the checkpoint — WAL records and
//!   object docs reference keyword *ids*, which are only meaningful
//!   under the string → id order they were interned in;
//! * the **epoch** the snapshot represents (the durable batch count at
//!   the moment of the checkpoint), in the header.
//!
//! No tree topology is stored: the engines rebuild their shard trees
//! from the corpus at startup anyway, and a checkpoint that carried one
//! fixed tree shape could not serve every shard configuration.
//!
//! Layout (page 0 written last):
//!
//! | field        | bytes  | contents                         |
//! |--------------|--------|----------------------------------|
//! | magic        | 0..8   | `YASKPG03`                       |
//! | epoch        | 8..16  | durable batch count              |
//! | corpus_first | 16..24 | first page of the corpus stream  |
//! | corpus_len   | 24..32 | corpus stream byte length        |
//! | vocab_first  | 32..40 | first page of the vocab stream   |
//! | vocab_len    | 40..48 | vocab stream byte length         |
//!
//! Every length read back from disk is checked against the bytes left
//! in its stream before it sizes an allocation, so a rotted file loads
//! as `InvalidData` rather than aborting the process.
//!
//! [`save_checkpoint`] is **atomic**: the snapshot is written and synced
//! to `<path>.tmp` and renamed over `path`, so a crash mid-write leaves
//! either the previous checkpoint or none — never a torn one. Loaders
//! ignore stray `.tmp` files by construction (they only open `path`).

use std::io;
use std::path::{Path, PathBuf};

use yask_geo::{Point, Rect, Space};
use yask_index::{Corpus, CorpusBuilder};
use yask_text::KeywordSet;

use crate::buffer_pool::{BufferPool, PoolStats};
use crate::codec::{StreamReader, StreamWriter};
use crate::page::{PageId, PAGE_SIZE};

const MAGIC: &[u8; 8] = b"YASKPG03";
/// Guard against sizing allocations from a rotted word count.
const MAX_WORDS: u64 = 1 << 24;
/// Fewest bytes one corpus slot can occupy in the stream: liveness
/// flag, two coordinates, an empty name's length, an empty doc's length.
const MIN_SLOT_BYTES: u64 = 1 + 8 + 8 + 4 + 4;

fn corrupt(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

/// One recovery point: the corpus version at `epoch` plus the
/// vocabulary words in intern (id) order.
#[derive(Debug)]
pub struct Checkpoint {
    /// The corpus version the snapshot captured (tombstones included).
    pub corpus: Corpus,
    /// The durable epoch (batch count) the snapshot represents.
    pub epoch: u64,
    /// Vocabulary words in id order; empty when the deployment does not
    /// persist a vocabulary.
    pub vocab: Vec<String>,
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Atomically and *durably* writes `checkpoint` to `path`: write
/// `.tmp`, sync it, rename over `path`, then fsync the parent directory
/// so the rename itself survives a crash. The directory sync matters —
/// the caller truncates its write-ahead log on the strength of this
/// snapshot existing, and a rename whose metadata never reached the
/// journal would leave a truncated log pointing at a checkpoint that is
/// not there.
///
/// Returns the ephemeral buffer pool's cache counters so the caller can
/// price the checkpoint's I/O (sequential stream writes mostly miss).
pub fn save_checkpoint(path: &Path, checkpoint: &Checkpoint) -> io::Result<PoolStats> {
    let tmp = tmp_path(path);
    let io_stats;
    {
        let pool = BufferPool::create(&tmp, 64)?;
        let header_page = pool.allocate()?; // page 0, filled in last
        debug_assert_eq!(header_page, PageId(0));

        let (corpus_first, corpus_len) = write_corpus_stream(&pool, &checkpoint.corpus)?;

        let mut w = StreamWriter::new(&pool)?;
        w.write_u64(checkpoint.vocab.len() as u64)?;
        for word in &checkpoint.vocab {
            w.write_str(word)?;
        }
        let (vocab_first, vocab_len) = w.finish()?;

        let mut header = vec![0u8; PAGE_SIZE];
        header[..8].copy_from_slice(MAGIC);
        header[8..16].copy_from_slice(&checkpoint.epoch.to_le_bytes());
        header[16..24].copy_from_slice(&corpus_first.0.to_le_bytes());
        header[24..32].copy_from_slice(&corpus_len.to_le_bytes());
        header[32..40].copy_from_slice(&vocab_first.0.to_le_bytes());
        header[40..48].copy_from_slice(&vocab_len.to_le_bytes());
        pool.write(header_page, &header)?;
        // Chaos hooks, one per durability step the atomicity argument
        // leans on: a failed tmp sync or rename must leave the previous
        // checkpoint (or its absence) fully intact, and a failed
        // directory sync must surface as an error so the caller does
        // *not* truncate its log on an unanchored rename.
        yask_util::failpoint::fire("checkpoint.tmp.sync")?;
        pool.sync()?;
        io_stats = pool.stats();
    }
    yask_util::failpoint::fire("checkpoint.rename")?;
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        yask_util::failpoint::fire("checkpoint.dirsync")?;
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(io_stats)
}

/// Loads the checkpoint at `path`; `Ok(None)` when no checkpoint exists
/// (a leftover `.tmp` from an interrupted save does not count).
pub fn load_checkpoint(path: &Path) -> io::Result<Option<Checkpoint>> {
    Ok(load_checkpoint_with_stats(path)?.map(|(c, _)| c))
}

/// [`load_checkpoint`] that also reports the cache counters of the pool
/// the snapshot was read through, so recovery I/O shows up on `/stats`.
pub fn load_checkpoint_with_stats(path: &Path) -> io::Result<Option<(Checkpoint, PoolStats)>> {
    if !path.exists() {
        return Ok(None);
    }
    let pool = BufferPool::open(path, 64)?;
    let header = pool.read(PageId(0))?;
    if &header[..8] != MAGIC {
        return Err(corrupt("checkpoint: bad magic".into()));
    }
    let word = |i: usize| u64::from_le_bytes(header[i..i + 8].try_into().expect("header word"));
    let epoch = word(8);
    let corpus = read_corpus_stream(&pool, PageId(word(16)), word(24))?;

    let mut r = StreamReader::new(&pool, PageId(word(32)), word(40))?;
    let n = r.read_u64()?;
    if n > MAX_WORDS {
        return Err(corrupt(format!("checkpoint: implausible vocabulary size {n}")));
    }
    let mut vocab = Vec::with_capacity(n as usize);
    for _ in 0..n {
        vocab.push(r.read_str()?);
    }
    Ok(Some((Checkpoint { corpus, epoch, vocab }, pool.stats())))
}

/// Writes one corpus as a paged stream: space bounds, slot count, then
/// every slot (tombstoned ones flagged dead — object ids are positional,
/// so dropping dead slots would shift every id recorded elsewhere).
fn write_corpus_stream(pool: &BufferPool, corpus: &Corpus) -> io::Result<(PageId, u64)> {
    let mut w = StreamWriter::new(pool)?;
    let bounds = corpus.space().bounds();
    w.write_f64(bounds.lo.x)?;
    w.write_f64(bounds.lo.y)?;
    w.write_f64(bounds.hi.x)?;
    w.write_f64(bounds.hi.y)?;
    w.write_u64(corpus.slot_count() as u64)?;
    for o in corpus.iter_slots() {
        w.write_u8(u8::from(corpus.contains(o.id)))?;
        w.write_f64(o.loc.x)?;
        w.write_f64(o.loc.y)?;
        w.write_str(&o.name)?;
        w.write_u32(o.doc.len() as u32)?;
        for kw in o.doc.raw() {
            w.write_u32(*kw)?;
        }
    }
    w.finish()
}

/// Reads back a corpus stream written by [`write_corpus_stream`].
fn read_corpus_stream(pool: &BufferPool, first: PageId, len: u64) -> io::Result<Corpus> {
    let mut r = StreamReader::new(pool, first, len)?;
    let lo = Point::new(r.read_f64()?, r.read_f64()?);
    let hi = Point::new(r.read_f64()?, r.read_f64()?);
    let n = r.read_u64()?;
    if n > r.remaining() / MIN_SLOT_BYTES {
        return Err(corrupt(format!(
            "checkpoint: {n} corpus slots cannot fit in {} bytes",
            r.remaining()
        )));
    }
    let mut b = CorpusBuilder::with_capacity(n as usize).with_space(Space::new(Rect::new(lo, hi)));
    for _ in 0..n {
        let live = r.read_u8()? != 0;
        let x = r.read_f64()?;
        let y = r.read_f64()?;
        let name = r.read_str()?;
        let k = u64::from(r.read_u32()?);
        if k > r.remaining() / 4 {
            return Err(corrupt(format!(
                "checkpoint: {k} keywords cannot fit in {} bytes",
                r.remaining()
            )));
        }
        let mut kws = Vec::with_capacity(k as usize);
        for _ in 0..k {
            let kw = r.read_u32()?;
            if kw > yask_index::MAX_KEYWORD {
                return Err(corrupt(format!("checkpoint: implausible keyword id {kw}")));
            }
            kws.push(kw);
        }
        let id = b.push(Point::new(x, y), KeywordSet::from_raw(kws), name);
        if !live {
            b.kill(id);
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::{Point, Space};
    use yask_index::{CorpusBuilder, ObjectId};
    use yask_text::KeywordSet;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("yask-ckpt-{}-{}", std::process::id(), name));
        p
    }

    fn corpus_with_tombstones(n: usize) -> Corpus {
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            b.push(
                Point::new((i % 13) as f64 / 13.0, (i % 7) as f64 / 7.0),
                KeywordSet::from_raw([(i % 5) as u32, (i % 9) as u32]),
                format!("hôtel-{i}"),
            );
        }
        let c = b.build();
        let (c, _) = c.with_updates(std::iter::empty(), &[ObjectId(1), ObjectId(4)]);
        c
    }

    #[test]
    fn checkpoint_round_trips() {
        let path = tmp("roundtrip.ckpt");
        std::fs::remove_file(&path).ok();
        let corpus = corpus_with_tombstones(300);
        let ck = Checkpoint {
            corpus: corpus.clone(),
            epoch: 42,
            vocab: vec!["clean".into(), "spa".into(), "hôtel".into()],
        };
        save_checkpoint(&path, &ck).unwrap();
        let loaded = load_checkpoint(&path).unwrap().expect("checkpoint exists");
        assert_eq!(loaded.epoch, 42);
        assert_eq!(loaded.vocab, ck.vocab);
        assert_eq!(loaded.corpus.slot_count(), corpus.slot_count());
        assert_eq!(loaded.corpus.len(), corpus.len());
        assert_eq!(loaded.corpus.space(), corpus.space());
        for (a, b) in corpus.iter_slots().zip(loaded.corpus.iter_slots()) {
            assert_eq!(a.loc, b.loc);
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.name, b.name);
            assert_eq!(corpus.contains(a.id), loaded.corpus.contains(b.id));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn absent_checkpoint_is_none_and_tmp_is_ignored() {
        let path = tmp("absent.ckpt");
        std::fs::remove_file(&path).ok();
        assert!(load_checkpoint(&path).unwrap().is_none());
        // A torn `.tmp` from a crashed save must not count as a
        // checkpoint.
        std::fs::write(tmp_path(&path), b"torn mid-write").unwrap();
        assert!(load_checkpoint(&path).unwrap().is_none());
        std::fs::remove_file(tmp_path(&path)).ok();
    }

    #[test]
    fn save_replaces_atomically() {
        let path = tmp("replace.ckpt");
        std::fs::remove_file(&path).ok();
        let c = corpus_with_tombstones(50);
        save_checkpoint(&path, &Checkpoint { corpus: c.clone(), epoch: 1, vocab: vec![] }).unwrap();
        save_checkpoint(&path, &Checkpoint { corpus: c, epoch: 2, vocab: vec!["w".into()] })
            .unwrap();
        let loaded = load_checkpoint(&path).unwrap().unwrap();
        assert_eq!(loaded.epoch, 2);
        assert_eq!(loaded.vocab, vec!["w".to_owned()]);
        assert!(!tmp_path(&path).exists(), "tmp must be renamed away");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_magic_is_invalid_data() {
        let path = tmp("magic.ckpt");
        std::fs::remove_file(&path).ok();
        let c = corpus_with_tombstones(10);
        save_checkpoint(&path, &Checkpoint { corpus: c, epoch: 3, vocab: vec![] }).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    /// Saves a small checkpoint, XORs `mask` into the little-endian word
    /// of `width` bytes at `offset` within the corpus stream, and loads
    /// it back. Offsets stay on the stream's first page.
    fn load_with_stomped_corpus_word(
        tag: &str,
        offset: usize,
        width: usize,
        mask: u64,
    ) -> io::Error {
        let path = tmp(tag);
        std::fs::remove_file(&path).ok();
        let c = corpus_with_tombstones(10);
        save_checkpoint(&path, &Checkpoint { corpus: c, epoch: 5, vocab: vec![] }).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let page = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let at = page * PAGE_SIZE + 8 + offset;
        assert!(offset + width <= crate::codec::PAYLOAD, "stomp must stay on the first page");
        for (i, b) in bytes[at..at + width].iter_mut().enumerate() {
            *b ^= (mask >> (8 * i)) as u8;
        }
        std::fs::write(&path, &bytes).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        err
    }

    #[test]
    fn rotted_slot_count_is_invalid_data() {
        // Bytes 32..40 of the corpus stream: the slot count, after the
        // four space-bound coordinates.
        let err = load_with_stomped_corpus_word("slots.ckpt", 32, 8, 0xFF << 56);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn rotted_keyword_count_is_invalid_data() {
        // Slot 0: flag, x, y, then the name, then its keyword count.
        let name_len = corpus_with_tombstones(10).get(ObjectId(0)).name.len();
        let offset = 40 + 1 + 8 + 8 + 4 + name_len;
        let err = load_with_stomped_corpus_word("keywords.ckpt", offset, 4, 0xFF << 24);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn rotted_keyword_id_is_invalid_data() {
        // Slot 0's first keyword id, right after its keyword count: a
        // corrupt id must not size the posting directory.
        let o = corpus_with_tombstones(10).get(ObjectId(0)).clone();
        assert!(!o.doc.is_empty(), "fixture object has keywords");
        let offset = 40 + 1 + 8 + 8 + 4 + o.name.len() + 4;
        let err = load_with_stomped_corpus_word("keyword-id.ckpt", offset, 4, 0xFF << 24);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("keyword id"), "{err}");
    }
}
