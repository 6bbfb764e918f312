//! The one chunked copy-on-write container behind every per-slot table
//! that is versioned per epoch: the corpus's object slots, tombstone
//! bitset and posting-list tails, the R-tree's node arena, and the
//! executor's shard-assignment table.
//!
//! **Layout.** Elements live in fixed-size chunks (`N` each, a power of
//! two) behind individual `Arc`s, with the chunk spine itself behind one
//! more `Arc`. Indexes are stable flat positions: `i >> BITS` selects the
//! chunk, `i & MASK` the offset, so [`ChunkedCow::get`] is a shift, a
//! mask and three dependent loads (spine slot → chunk → element). All
//! chunks except the last hold exactly `N` elements.
//!
//! **The copy rule — stated once.** Cloning a container clones one `Arc`;
//! the clone and the original are the *same version*. The first mutation
//! after a clone copies the spine (a pointer array), and the first touch
//! of a chunk still shared with another version deep-copies that chunk
//! and bills it to the caller's [`CopyStats`]; later touches of the same
//! chunk mutate in place, unbilled. Two versions therefore *structurally
//! share* every chunk neither wrote into, a derived version costs
//! O(touched chunks) rather than O(len), and older versions never change.
//! [`ChunkedCow::make_mut`], [`ChunkedCow::push`] and
//! [`ChunkedCow::extend`] are the only ways to write, so the rule cannot
//! be bypassed per user.

use std::sync::Arc;

/// What one derivation duplicated — the observable proof that a write is
/// O(batch + touched chunks), not O(n): at a fixed batch size these
/// numbers stay flat as the container grows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CopyStats {
    /// Pre-existing chunks deep-copied because the batch touched them.
    pub chunks_copied: usize,
    /// Fresh chunks appended for pushes that overflowed the tail.
    pub chunks_created: usize,
    /// Approximate heap bytes of the deep-copied chunks — the batch's
    /// actual copy-on-write bill.
    pub bytes_copied: usize,
}

impl CopyStats {
    /// Folds another derivation's counters in (cumulative accounting).
    pub fn absorb(&mut self, other: &CopyStats) {
        self.chunks_copied += other.chunks_copied;
        self.chunks_created += other.chunks_created;
        self.bytes_copied += other.bytes_copied;
    }
}

/// Approximate resident bytes of one stored element — the unit the copy
/// bill and the arena-size gauges are counted in.
pub trait ApproxBytes {
    /// Inline size plus owned heap payload.
    fn approx_bytes(&self) -> usize;
}

impl ApproxBytes for u32 {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<u32>()
    }
}

impl ApproxBytes for u64 {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<u64>()
    }
}

/// One fixed-capacity run of consecutive slots.
#[derive(Clone, Debug)]
pub struct Chunk<T, const N: usize> {
    items: Vec<T>,
}

impl<T, const N: usize> Chunk<T, N> {
    /// Wraps already-assembled elements (at most `N`) as a chunk — the
    /// load path of chunks decoded from a run file.
    pub fn from_items(items: Vec<T>) -> Self {
        assert!(items.len() <= N, "oversized chunk: {} > {N}", items.len());
        Chunk { items }
    }

    /// The chunk's elements, in slot order.
    #[inline]
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

impl<T: ApproxBytes, const N: usize> Chunk<T, N> {
    /// Approximate resident bytes of the chunk's elements.
    pub fn approx_bytes(&self) -> usize {
        self.items.iter().map(T::approx_bytes).sum()
    }
}

/// A persistent vector of `T` in `N`-element copy-on-write chunks. See
/// the module docs for the layout and the copy rule.
#[derive(Clone, Debug)]
pub struct ChunkedCow<T, const N: usize> {
    spine: Arc<[Arc<Chunk<T, N>>]>,
    len: usize,
}

impl<T, const N: usize> ChunkedCow<T, N> {
    const BITS: u32 = {
        assert!(N.is_power_of_two(), "chunk size must be a power of two");
        N.trailing_zeros()
    };
    const MASK: usize = N - 1;

    /// Splits a flat index into `(chunk, offset)`.
    #[inline]
    pub fn locate(i: usize) -> (usize, usize) {
        (i >> Self::BITS, i & Self::MASK)
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing was pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `i`. Panics when `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> &T {
        let (ci, offset) = Self::locate(i);
        &self.spine[ci].items[offset]
    }

    /// All elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.spine.iter().flat_map(|c| c.items.iter())
    }

    /// Number of chunks in this version's spine.
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.spine.len()
    }

    /// The elements of chunk `ci`, in slot order.
    pub fn chunk(&self, ci: usize) -> &[T] {
        &self.spine[ci].items
    }

    /// True when both containers are the *same version* (one spine).
    #[inline]
    pub fn same_version(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.spine, &other.spine)
    }

    /// True when chunk `ci` is one physical allocation in both versions.
    pub fn shares_chunk(&self, other: &Self, ci: usize) -> bool {
        match (self.spine.get(ci), other.spine.get(ci)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Number of spine positions whose chunk is physically shared with
    /// `other`: the common spine length minus the chunks either version
    /// copied since they diverged.
    pub fn shared_chunk_count(&self, other: &Self) -> usize {
        (0..self.chunk_count())
            .filter(|&ci| self.shares_chunk(other, ci))
            .count()
    }
}

impl<T: ApproxBytes, const N: usize> ChunkedCow<T, N> {
    /// Approximate resident bytes of every element, shared chunks counted
    /// in full.
    pub fn approx_bytes(&self) -> usize {
        self.spine.iter().map(|c| c.approx_bytes()).sum()
    }
}

impl<T: Clone + ApproxBytes, const N: usize> ChunkedCow<T, N> {
    /// Mutable access to chunk `ci` under the copy rule.
    fn chunk_mut(&mut self, ci: usize, stats: &mut CopyStats) -> &mut Chunk<T, N> {
        let slot = &mut Arc::make_mut(&mut self.spine)[ci];
        if Arc::get_mut(slot).is_none() {
            stats.chunks_copied += 1;
            stats.bytes_copied += slot.approx_bytes();
        }
        Arc::make_mut(slot)
    }

    /// Mutable access to the element at `i`; the first touch of a chunk
    /// still shared with another version copies it and bills `stats`.
    pub fn make_mut(&mut self, i: usize, stats: &mut CopyStats) -> &mut T {
        let (ci, offset) = Self::locate(i);
        &mut self.chunk_mut(ci, stats).items[offset]
    }

    /// Appends `value`. A full tail opens a fresh chunk (billed as
    /// created); extending a shared partial tail copies it first.
    pub fn push(&mut self, value: T, stats: &mut CopyStats) {
        self.extend([value], stats);
    }

    /// Appends every element of `values` under [`ChunkedCow::push`]'s
    /// rule, rebuilding the spine once for all the chunks it opens rather
    /// than once per chunk.
    pub fn extend(&mut self, values: impl IntoIterator<Item = T>, stats: &mut CopyStats) {
        let mut values = values.into_iter().peekable();
        if values.peek().is_none() {
            return;
        }
        let room = self.spine.len() * N - self.len;
        if room > 0 {
            let last = self.spine.len() - 1;
            let items = &mut self.chunk_mut(last, stats).items;
            let before = items.len();
            items.extend(values.by_ref().take(room));
            self.len += items.len() - before;
        }
        if values.peek().is_some() {
            let fresh: ChunkedCow<T, N> = values.collect();
            stats.chunks_created += fresh.chunk_count();
            self.len += fresh.len;
            self.spine = self.spine.iter().chain(fresh.spine.iter()).cloned().collect();
        }
    }
}

/// Packs the elements into full chunks (the last may be partial); the
/// result shares nothing with any other version.
impl<T, const N: usize> FromIterator<T> for ChunkedCow<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter().peekable();
        let mut spine = Vec::new();
        let mut len = 0;
        while iter.peek().is_some() {
            let mut items = Vec::with_capacity(N);
            items.extend(iter.by_ref().take(N));
            len += items.len();
            spine.push(Arc::new(Chunk { items }));
        }
        ChunkedCow {
            spine: spine.into(),
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use yask_util::Xoshiro256;

    const N: usize = 4;

    /// One live version next to what it must read as, which physical
    /// chunk (by token) each spine position must hold, and which spine.
    struct Version {
        cow: ChunkedCow<u32, N>,
        model: Vec<u32>,
        chunk_tokens: Vec<u64>,
        spine_token: u64,
    }

    /// The reference copy rule: physical chunks are tokens, `holders`
    /// counts the live versions referencing each, and a write to a chunk
    /// with more than one holder must be billed as a copy.
    #[derive(Default)]
    struct Model {
        holders: HashMap<u64, usize>,
        next_token: u64,
        expected: CopyStats,
    }

    impl Model {
        fn fresh(&mut self) -> u64 {
            self.next_token += 1;
            self.holders.insert(self.next_token, 1);
            self.next_token
        }

        /// A write lands in chunk `ci` of `v`.
        fn touch(&mut self, v: &mut Version, ci: usize) {
            v.spine_token = self.fresh();
            let holders = self.holders.get_mut(&v.chunk_tokens[ci]).unwrap();
            if *holders > 1 {
                *holders -= 1;
                v.chunk_tokens[ci] = self.fresh();
                let chunk_len = v.model.len().min((ci + 1) * N) - ci * N;
                self.expected.chunks_copied += 1;
                self.expected.bytes_copied += 4 * chunk_len;
            }
        }
    }

    fn check(versions: &[Version]) {
        for v in versions {
            assert_eq!(v.cow.len(), v.model.len());
            assert_eq!(v.cow.iter().copied().collect::<Vec<_>>(), v.model);
            assert_eq!(v.cow.chunk_count(), v.model.len().div_ceil(N));
            for (i, want) in v.model.iter().enumerate() {
                assert_eq!(v.cow.get(i), want);
            }
            for ci in 0..v.cow.chunk_count() {
                assert_eq!(v.cow.chunk(ci), &v.model[ci * N..v.model.len().min((ci + 1) * N)]);
            }
            assert_eq!(v.cow.approx_bytes(), 4 * v.model.len());
        }
        for a in versions {
            for b in versions {
                assert_eq!(a.cow.same_version(&b.cow), a.spine_token == b.spine_token);
                let shared = a.chunk_tokens.iter().zip(&b.chunk_tokens).filter(|(x, y)| x == y);
                assert_eq!(a.cow.shared_chunk_count(&b.cow), shared.count());
            }
        }
    }

    #[test]
    fn every_version_reads_its_model_and_copies_are_billed_exactly() {
        for seed in 0..20 {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let mut m = Model::default();
            let spine_token = m.fresh();
            let mut versions = vec![Version {
                cow: std::iter::empty().collect(),
                model: Vec::new(),
                chunk_tokens: Vec::new(),
                spine_token,
            }];
            let mut stats = CopyStats::default();
            for step in 0..400u32 {
                let vi = rng.below(versions.len());
                match rng.below(10) {
                    0..=3 => {
                        let v = &mut versions[vi];
                        let ci = v.model.len() / N;
                        if ci == v.chunk_tokens.len() {
                            v.chunk_tokens.push(m.fresh());
                            m.expected.chunks_created += 1;
                        }
                        m.touch(v, ci);
                        v.model.push(step);
                        v.cow.push(step, &mut stats);
                    }
                    4..=6 if !versions[vi].model.is_empty() => {
                        let v = &mut versions[vi];
                        let i = rng.below(v.model.len());
                        m.touch(v, i / N);
                        v.model[i] = step;
                        *v.cow.make_mut(i, &mut stats) = step;
                    }
                    7..=8 if versions.len() < 6 => {
                        let v = &versions[vi];
                        for t in &v.chunk_tokens {
                            *m.holders.get_mut(t).unwrap() += 1;
                        }
                        versions.push(Version {
                            cow: v.cow.clone(),
                            model: v.model.clone(),
                            chunk_tokens: v.chunk_tokens.clone(),
                            spine_token: v.spine_token,
                        });
                    }
                    9 if versions.len() > 1 => {
                        let v = versions.swap_remove(vi);
                        for t in &v.chunk_tokens {
                            *m.holders.get_mut(t).unwrap() -= 1;
                        }
                    }
                    _ => {}
                }
                check(&versions);
                assert_eq!(stats, m.expected, "seed {seed} step {step}");
            }
            assert!(stats.chunks_copied > 0 && stats.chunks_created > 0);
        }
    }

    #[test]
    fn extend_fills_the_tail_then_opens_its_chunks() {
        let v0: ChunkedCow<u32, N> = (0..6).collect();
        let mut v1 = v0.clone();
        let mut stats = CopyStats::default();
        v1.extend(std::iter::empty(), &mut stats);
        assert!(v1.same_version(&v0));
        v1.extend(6..15, &mut stats);
        assert!(v1.iter().copied().eq(0..15));
        assert_eq!(v1.chunk_count(), 4);
        assert_eq!(
            stats,
            CopyStats {
                chunks_copied: 1,
                chunks_created: 2,
                bytes_copied: 8,
            }
        );
        assert!(v1.shares_chunk(&v0, 0));
        assert!(v0.iter().copied().eq(0..6));
    }

    #[test]
    fn from_iter_packs_full_chunks() {
        let cow: ChunkedCow<u32, N> = (0..10).collect();
        assert_eq!(cow.len(), 10);
        assert_eq!(cow.chunk_count(), 3);
        assert_eq!(cow.chunk(2), &[8, 9]);
        assert_eq!(ChunkedCow::<u32, N>::locate(9), (2, 1));
        let empty: ChunkedCow<u32, N> = std::iter::empty().collect();
        assert!(empty.is_empty());
        assert_eq!(empty.chunk_count(), 0);
    }
}
