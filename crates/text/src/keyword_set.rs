//! Immutable sorted keyword sets with merge-based set algebra.
//!
//! `o.doc` and `q.doc` are sets of keywords (paper §2.1). Representing them
//! as sorted `Box<[u32]>` keeps them compact (2 words + payload), makes
//! intersection/union sizes a linear merge, and gives deterministic
//! iteration order — which every index bound in this workspace leans on.

use std::fmt;

use crate::vocab::KeywordId;

/// An immutable, duplicate-free, sorted set of keyword ids.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct KeywordSet {
    ids: Box<[u32]>,
}

impl KeywordSet {
    /// The empty set.
    pub fn empty() -> Self {
        KeywordSet::default()
    }

    /// Builds a set from arbitrary ids (sorted + deduplicated here).
    pub fn from_ids<I: IntoIterator<Item = KeywordId>>(iter: I) -> Self {
        let mut v: Vec<u32> = iter.into_iter().map(|k| k.0).collect();
        v.sort_unstable();
        v.dedup();
        KeywordSet { ids: v.into() }
    }

    /// Builds from raw `u32`s (test/fixture convenience).
    pub fn from_raw<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        KeywordSet::from_ids(iter.into_iter().map(KeywordId))
    }

    /// Number of keywords.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the set has no keywords.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Sorted raw ids.
    #[inline]
    pub fn raw(&self) -> &[u32] {
        &self.ids
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = KeywordId> + '_ {
        self.ids.iter().map(|&v| KeywordId(v))
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, id: KeywordId) -> bool {
        self.ids.binary_search(&id.0).is_ok()
    }

    /// `|self ∩ other|` — linear merge for comparable sizes, per-element
    /// binary search when one side is much smaller (queries against the
    /// huge union sets of upper R-tree nodes hit this path, turning an
    /// O(|union|) walk into O(|q|·log|union|)).
    pub fn intersection_size(&self, other: &KeywordSet) -> usize {
        let (small, large) = if self.len() <= other.len() {
            (&self.ids, &other.ids)
        } else {
            (&other.ids, &self.ids)
        };
        if large.len() >= 16 * small.len().max(1) {
            return small
                .iter()
                .filter(|v| large.binary_search(v).is_ok())
                .count();
        }
        // Branch-free merge: every step advances the side(s) holding the
        // smaller id and counts a match, with no data-dependent jump.
        let (mut i, mut j, mut n) = (0, 0, 0);
        let (a, b) = (small, large);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            n += usize::from(x == y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        n
    }

    /// `|self ∪ other|` without materializing the union.
    #[inline]
    pub fn union_size(&self, other: &KeywordSet) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }

    /// Materialized intersection.
    pub fn intersection(&self, other: &KeywordSet) -> KeywordSet {
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.ids, &other.ids);
        let mut out = Vec::with_capacity(a.len().min(b.len()));
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        KeywordSet { ids: out.into() }
    }

    /// Materialized union.
    pub fn union(&self, other: &KeywordSet) -> KeywordSet {
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.ids, &other.ids);
        let mut out = Vec::with_capacity(a.len() + b.len());
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        KeywordSet { ids: out.into() }
    }

    /// Materialized difference `self \ other`.
    pub fn difference(&self, other: &KeywordSet) -> KeywordSet {
        let out: Vec<u32> = self
            .ids
            .iter()
            .copied()
            .filter(|v| other.ids.binary_search(v).is_err())
            .collect();
        KeywordSet { ids: out.into() }
    }

    /// True when every keyword of `self` is in `other`.
    pub fn is_subset_of(&self, other: &KeywordSet) -> bool {
        self.intersection_size(other) == self.len()
    }

    /// Insert/delete edit distance between keyword sets — the `Δdoc` of
    /// Eqn (4): the minimum number of single-keyword insertions and
    /// deletions transforming `self` into `other`, which for sets is
    /// `|self| + |other| − 2·|self ∩ other|` (the symmetric difference).
    pub fn edit_distance(&self, other: &KeywordSet) -> usize {
        self.len() + other.len() - 2 * self.intersection_size(other)
    }

    /// Jaccard similarity — Eqn (2) of the paper. Two empty sets have
    /// similarity 0 by convention (an empty query matches nothing).
    pub fn jaccard(&self, other: &KeywordSet) -> f64 {
        let inter = self.intersection_size(other);
        let union = self.len() + other.len() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }
}

impl fmt::Debug for KeywordSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeywordSet{:?}", self.ids)
    }
}

impl FromIterator<KeywordId> for KeywordSet {
    fn from_iter<I: IntoIterator<Item = KeywordId>>(iter: I) -> Self {
        KeywordSet::from_ids(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ks(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_raw(ids.iter().copied())
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let s = ks(&[5, 1, 3, 1, 5]);
        assert_eq!(s.raw(), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn membership() {
        let s = ks(&[2, 4, 6]);
        assert!(s.contains(KeywordId(4)));
        assert!(!s.contains(KeywordId(5)));
        assert!(!KeywordSet::empty().contains(KeywordId(0)));
    }

    #[test]
    fn intersection_and_union_sizes() {
        let a = ks(&[1, 2, 3, 4]);
        let b = ks(&[3, 4, 5]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.union_size(&b), 5);
        assert_eq!(a.intersection(&b).raw(), &[3, 4]);
        assert_eq!(a.union(&b).raw(), &[1, 2, 3, 4, 5]);
        assert_eq!(a.difference(&b).raw(), &[1, 2]);
    }

    #[test]
    fn empty_set_algebra() {
        let a = ks(&[1, 2]);
        let e = KeywordSet::empty();
        assert_eq!(a.intersection_size(&e), 0);
        assert_eq!(a.union_size(&e), 2);
        assert_eq!(e.union(&a), a);
        assert_eq!(e.difference(&a), e);
        assert!(e.is_subset_of(&a));
        assert!(!a.is_subset_of(&e));
    }

    #[test]
    fn jaccard_matches_paper_eqn2() {
        // |{a,b} ∩ {b,c}| / |{a,b} ∪ {b,c}| = 1/3
        let a = ks(&[0, 1]);
        let b = ks(&[1, 2]);
        assert!((a.jaccard(&b) - 1.0 / 3.0).abs() < 1e-12);
        // Identical sets → 1.
        assert_eq!(a.jaccard(&a), 1.0);
        // Disjoint sets → 0.
        assert_eq!(a.jaccard(&ks(&[7, 8])), 0.0);
        // Empty vs empty → 0 by convention.
        assert_eq!(KeywordSet::empty().jaccard(&KeywordSet::empty()), 0.0);
    }

    #[test]
    fn edit_distance_is_symmetric_difference() {
        let a = ks(&[1, 2, 3]);
        let b = ks(&[2, 3, 4, 5]);
        // Delete 1, insert 4, insert 5 → 3 operations.
        assert_eq!(a.edit_distance(&b), 3);
        assert_eq!(b.edit_distance(&a), 3);
        assert_eq!(a.edit_distance(&a), 0);
        assert_eq!(a.edit_distance(&KeywordSet::empty()), 3);
    }

    #[test]
    fn subset_checks() {
        let a = ks(&[1, 2]);
        let b = ks(&[1, 2, 3]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
    }

    #[test]
    fn from_iterator_collects() {
        let s: KeywordSet = [KeywordId(3), KeywordId(1)].into_iter().collect();
        assert_eq!(s.raw(), &[1, 3]);
    }

    #[test]
    fn iter_yields_sorted_keyword_ids() {
        let s = ks(&[9, 4, 7]);
        let got: Vec<u32> = s.iter().map(|k| k.0).collect();
        assert_eq!(got, vec![4, 7, 9]);
    }
}
