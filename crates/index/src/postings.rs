//! The corpus's inverted index: for each keyword, the ascending ids of
//! the objects holding it.
//!
//! **Layout.** A bulk-built corpus stores its lists as one flat CSR
//! array (SNIPPETS.md #1's `*_start`/`*_len` slicing): `ids` holds every
//! list back to back, keyword `kw`'s list is `ids[start[kw]..start[kw +
//! 1]]`, and the corpus build fills both with one counting sort over
//! the live objects — there is no per-keyword allocation for the
//! bulk-loaded part. Ids appended later go to per-keyword *tails* behind
//! a keyword-indexed [`ChunkedCow`] directory, each tail itself a
//! [`ChunkedCow`] of id blocks. A write batch copies only the directory
//! chunks it appends through and the last block of each tail it appends
//! to, and bills them to its [`CopyStats`], like every other per-epoch
//! table: the bill does not grow with the ids appended before it. Ids
//! only grow, so a list is its CSR run followed by its tail, ascending
//! throughout.
//!
//! **Liveness.** A delete only tombstones its slot, and the id stays on
//! its lists, exactly as the slot stays in the corpus: readers skip dead
//! ids with [`crate::Corpus::contains`]. A restart rebuilds the lists
//! from the live objects (the checkpoint loader goes through
//! [`crate::CorpusBuilder`]), which drops them.
//!
//! A keyword id nobody carries — beyond every list, such as the ids a
//! read gives words the vocabulary does not know — has an empty list.

use std::sync::Arc;

use crate::corpus::ObjectId;
use crate::cow::{ApproxBytes, ChunkedCow, CopyStats};

/// The largest keyword id a corpus holds. The CSR offsets and the tail
/// directory are indexed by keyword id, so the largest id sizes them:
/// this caps them at 16 M keywords (64 MiB of offsets, 384 MiB of tail
/// handles). The vocabulary hands ids out from 0 and the service stops
/// interning at the cap; batch validation refuses a larger id, and the
/// loaders of stored corpora and write-ahead logs reject one as corrupt
/// rather than size an allocation by it.
pub const MAX_KEYWORD: u32 = (1 << 24) - 1;

/// Keywords per chunk of the tail directory. A one-object batch appends
/// to one tail per keyword of its object, so it copies at most that many
/// chunks of 16 tail handles; smaller chunks would lengthen the spine
/// every batch copies.
const TAIL_CHUNK: usize = 16;

/// Ids per block of one keyword's tail — the corpus's own object chunk
/// size, so a tail's spine is never longer than the object spine the
/// same insert copies.
const TAIL_BLOCK: usize = 64;

/// The ids appended to one keyword's list since the corpus was built:
/// a persistent list of [`TAIL_BLOCK`]-id blocks, so an append copies
/// the tail's last block and its spine, never its earlier ids. `None`
/// until the first append, so an untouched directory slot allocates
/// nothing.
#[derive(Clone, Debug, Default)]
struct Tail(Option<ChunkedCow<u32, TAIL_BLOCK>>);

impl ApproxBytes for Tail {
    /// The handle alone: copying a directory chunk clones handles, and
    /// the blocks behind them stay shared until an append copies one,
    /// which the block bills itself.
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Tail>()
    }
}

/// The inverted index of one corpus version. Cloning shares the CSR
/// arrays and the tail directory.
#[derive(Clone, Debug)]
pub(crate) struct Postings {
    /// `start[kw]..start[kw + 1]` slices keyword `kw`'s built list out of
    /// `ids`; one entry per keyword plus one.
    start: Arc<[u32]>,
    /// Every built list, back to back.
    ids: Arc<[u32]>,
    /// Ids appended since the build, by keyword.
    tails: ChunkedCow<Tail, TAIL_CHUNK>,
}

impl Postings {
    /// Counting-sort build over `docs`, the `(id, keywords)` of every
    /// live object in ascending id order.
    pub(crate) fn build<'a>(docs: impl Iterator<Item = (u32, &'a [u32])> + Clone) -> Self {
        let keywords = docs
            .clone()
            .flat_map(|(_, doc)| doc)
            .max()
            .map_or(0, |&kw| keyword_slot(kw) + 1);
        let mut start = vec![0u32; keywords + 1];
        for (_, doc) in docs.clone() {
            for &kw in doc {
                start[kw as usize + 1] += 1;
            }
        }
        for kw in 0..keywords {
            start[kw + 1] += start[kw];
        }
        let mut fill = start.clone();
        let mut ids = vec![0u32; start[keywords] as usize];
        for (id, doc) in docs {
            for &kw in doc {
                ids[fill[kw as usize] as usize] = id;
                fill[kw as usize] += 1;
            }
        }
        Postings {
            start: start.into(),
            ids: ids.into(),
            tails: std::iter::empty().collect(),
        }
    }

    /// Appends `id` (larger than every id listed so far) to the list of
    /// each keyword in `doc`, billing the directory chunks and tail
    /// blocks it copies. A keyword beyond the directory grows it once,
    /// to that keyword.
    pub(crate) fn append(&mut self, id: ObjectId, doc: &[u32], stats: &mut CopyStats) {
        for &kw in doc {
            let kw = keyword_slot(kw);
            let missing = (kw + 1).saturating_sub(self.tails.len());
            self.tails.extend(std::iter::repeat_with(Tail::default).take(missing), stats);
            let tail = self.tails.make_mut(kw, stats);
            tail.0
                .get_or_insert_with(|| std::iter::empty().collect())
                .push(id.0, stats);
        }
    }

    /// Keyword `kw`'s list, dead ids included.
    pub(crate) fn list(&self, kw: u32) -> PostingList<'_> {
        let kw = kw as usize;
        let built = match (self.start.get(kw), self.start.get(kw + 1)) {
            (Some(&lo), Some(&hi)) => &self.ids[lo as usize..hi as usize],
            _ => &[],
        };
        let appended = if kw < self.tails.len() {
            self.tails.get(kw).0.as_ref()
        } else {
            None
        };
        PostingList { built, appended }
    }
}

/// The directory slot of keyword `kw`. Panics beyond [`MAX_KEYWORD`]:
/// ids that reach a corpus come from a vocabulary or a loader that
/// bounds them.
fn keyword_slot(kw: u32) -> usize {
    assert!(kw <= MAX_KEYWORD, "keyword id {kw} beyond MAX_KEYWORD");
    kw as usize
}

/// One keyword's posting list: the ascending ids of the objects that
/// carried the keyword when they were added, tombstoned ones included
/// (skip them with [`crate::Corpus::contains`]).
#[derive(Clone, Copy, Debug)]
pub struct PostingList<'a> {
    built: &'a [u32],
    appended: Option<&'a ChunkedCow<u32, TAIL_BLOCK>>,
}

impl<'a> PostingList<'a> {
    /// Number of ids on the list, dead ones included.
    pub fn len(&self) -> usize {
        self.built.len() + self.appended.map_or(0, ChunkedCow::len)
    }

    /// True when no object ever carried the keyword in this version.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + 'a {
        self.built
            .iter()
            .chain(self.appended.into_iter().flat_map(ChunkedCow::iter))
            .map(|&id| ObjectId(id))
    }
}

#[cfg(test)]
mod tests {
    use crate::{CorpusBuilder, ObjectId};
    use yask_geo::{Point, Space};
    use yask_text::KeywordSet;

    fn insert(kw: u32) -> [(Point, KeywordSet, String); 1] {
        [(Point::new(0.5, 0.5), KeywordSet::from_raw([kw]), "x".to_owned())]
    }

    #[test]
    fn a_hot_keyword_costs_every_batch_the_same() {
        // Every insert carries keyword 0 while the previous version
        // lives, so each batch copies what it touches. The bill repeats
        // with the period of the longest chunk it touches (the 4 096
        // slots of one tombstone chunk) once the first batch has opened
        // the directory: the ids already on keyword 0's tail cost
        // nothing.
        let mut v = CorpusBuilder::new().with_space(Space::unit()).build();
        let bills: Vec<usize> = (0..3 * 4096)
            .map(|_| {
                let (next, _, stats) = v.with_updates_counted(insert(0), &[]);
                v = next;
                stats.bytes_copied
            })
            .collect();
        assert_eq!(bills[4096..2 * 4096], bills[2 * 4096..]);
        assert_eq!(v.posting(0).len(), 3 * 4096);
        assert!(v.posting(0).iter().map(|id| id.0).eq(0..3 * 4096));
    }

    #[test]
    fn a_high_keyword_grows_the_directory_once() {
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        b.push(Point::new(0.1, 0.1), KeywordSet::from_raw([3]), "a");
        let v0 = b.build();
        let kw = 1 << 18;
        // The directory opens every chunk up to `kw` and the keyword its
        // first tail block; the object lands in the shared slot chunk.
        let (v1, _, stats) = v0.with_updates_counted(insert(kw), &[]);
        assert_eq!(stats.chunks_created, (kw as usize + 1).div_ceil(16) + 1);
        assert_eq!(stats.chunks_copied, 1);
        let (v2, _, stats) = v1.with_updates_counted(insert(kw), &[]);
        assert_eq!(stats.chunks_created, 0);
        assert_eq!(v2.posting(kw).iter().collect::<Vec<_>>(), [ObjectId(1), ObjectId(2)]);
        assert_eq!(v2.posting(3).iter().collect::<Vec<_>>(), [ObjectId(0)]);
        assert!(v2.posting(kw - 1).is_empty() && v2.posting(kw + 1).is_empty());
    }
}
