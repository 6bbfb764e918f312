//! Candidate keyword-set enumeration in edit-distance order.
//!
//! Candidates are drawn from the universe `U = q.doc ∪ M.doc` (reference
//! [6] shows keywords outside `U` are dominated: they cannot raise a
//! missing object's similarity but always cost an edit operation). A
//! candidate is obtained by deleting a subset of `q.doc` and inserting a
//! subset of `U \ q.doc`; its `Δdoc` is the number of operations.
//!
//! [`CandidateGen`] yields candidates in **batches of equal `Δdoc`**, in
//! non-decreasing `Δdoc` order. Because the penalty's keyword term
//! `(1 − λ)·Δdoc/|U|` is monotone in `Δdoc` and the rank term is
//! non-negative, the caller can stop pulling batches as soon as that term
//! alone reaches the best complete penalty found — the termination rule of
//! the candidate search.

use yask_text::KeywordSet;

/// Batch-wise candidate generator (see module docs).
pub(crate) struct CandidateGen {
    /// `q.doc`, sorted.
    base: Vec<u32>,
    /// `U \ q.doc`, sorted.
    addable: Vec<u32>,
    /// Next `Δdoc` to emit.
    next_d: usize,
}

impl CandidateGen {
    /// Creates the generator for initial keywords `base` over universe
    /// `base ∪ addable`.
    pub fn new(query_doc: &KeywordSet, universe: &KeywordSet) -> Self {
        let base: Vec<u32> = query_doc.raw().to_vec();
        let addable: Vec<u32> = universe.difference(query_doc).raw().to_vec();
        CandidateGen {
            base,
            addable,
            next_d: 0,
        }
    }

    /// Largest meaningful `Δdoc`: delete everything and insert everything.
    pub fn max_delta(&self) -> usize {
        self.base.len() + self.addable.len()
    }

    /// Number of candidates in the batch for a given `Δdoc` (before the
    /// empty-set filter) — used for budget accounting.
    pub fn batch_size(&self, d: usize) -> usize {
        let mut total = 0usize;
        for n_del in 0..=d.min(self.base.len()) {
            let n_ins = d - n_del;
            if n_ins > self.addable.len() {
                continue;
            }
            total = total.saturating_add(
                binomial(self.base.len(), n_del).saturating_mul(binomial(self.addable.len(), n_ins)),
            );
        }
        total
    }

    /// The next batch: `(Δdoc, candidates)` with every candidate at that
    /// exact edit distance, deterministic lexicographic order, empty sets
    /// filtered out. `None` once the universe is exhausted.
    pub fn next_batch(&mut self) -> Option<(usize, Vec<KeywordSet>)> {
        while self.next_d <= self.max_delta() {
            let d = self.next_d;
            self.next_d += 1;
            let mut out = Vec::with_capacity(self.batch_size(d));
            for n_del in 0..=d.min(self.base.len()) {
                let n_ins = d - n_del;
                if n_ins > self.addable.len() {
                    continue;
                }
                for del in combinations(self.base.len(), n_del) {
                    for ins in combinations(self.addable.len(), n_ins) {
                        let mut kws: Vec<u32> = self
                            .base
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| !del.contains(i))
                            .map(|(_, &w)| w)
                            .collect();
                        kws.extend(ins.iter().map(|&i| self.addable[i]));
                        if kws.is_empty() {
                            continue;
                        }
                        out.push(KeywordSet::from_raw(kws));
                    }
                }
            }
            if !out.is_empty() {
                return Some((d, out));
            }
            // A batch can be empty only when the sole candidate was the
            // empty set (d == |base|, no insertions possible elsewhere) —
            // keep advancing.
        }
        None
    }
}

/// All k-combinations of `0..n` in lexicographic order.
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    if k > n {
        return Vec::new();
    }
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.clone());
        // Advance the rightmost index that can still move.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// `n choose k` with saturation (budget accounting only).
fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i + 1) as u128;
        if acc > usize::MAX as u128 {
            return usize::MAX;
        }
    }
    acc as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ks(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_raw(ids.iter().copied())
    }

    #[test]
    fn combinations_enumerate_lexicographically() {
        assert_eq!(combinations(3, 0), vec![Vec::<usize>::new()]);
        assert_eq!(combinations(3, 1), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(combinations(4, 2).len(), 6);
        assert_eq!(combinations(4, 2)[0], vec![0, 1]);
        assert_eq!(combinations(4, 2)[5], vec![2, 3]);
        assert!(combinations(2, 3).is_empty());
    }

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(20, 10), 184_756);
    }

    #[test]
    fn first_batch_is_the_original_doc() {
        let mut g = CandidateGen::new(&ks(&[1, 2]), &ks(&[1, 2, 3, 4]));
        let (d, batch) = g.next_batch().unwrap();
        assert_eq!(d, 0);
        assert_eq!(batch, vec![ks(&[1, 2])]);
    }

    #[test]
    fn delta_one_batch_has_all_single_edits() {
        let mut g = CandidateGen::new(&ks(&[1, 2]), &ks(&[1, 2, 3, 4]));
        g.next_batch();
        let (d, batch) = g.next_batch().unwrap();
        assert_eq!(d, 1);
        // Deletions: {2}, {1}; insertions: {1,2,3}, {1,2,4}.
        let set: std::collections::HashSet<KeywordSet> = batch.into_iter().collect();
        assert_eq!(set.len(), 4);
        assert!(set.contains(&ks(&[2])));
        assert!(set.contains(&ks(&[1])));
        assert!(set.contains(&ks(&[1, 2, 3])));
        assert!(set.contains(&ks(&[1, 2, 4])));
    }

    #[test]
    fn every_candidate_has_the_declared_edit_distance() {
        let base = ks(&[1, 2, 3]);
        let mut g = CandidateGen::new(&base, &ks(&[1, 2, 3, 4, 5]));
        let mut seen = std::collections::HashSet::new();
        while let Some((d, batch)) = g.next_batch() {
            for c in batch {
                assert_eq!(base.edit_distance(&c), d, "candidate {c:?}");
                assert!(!c.is_empty());
                assert!(seen.insert(c), "duplicate candidate");
            }
        }
        // Non-empty subsets of a 5-element universe: 2^5 − 1.
        assert_eq!(seen.len(), 31);
    }

    #[test]
    fn batch_size_accounts_match_actual() {
        let mut g = CandidateGen::new(&ks(&[1, 2]), &ks(&[1, 2, 3, 4, 5]));
        let sizes: Vec<usize> = (0..=g.max_delta()).map(|d| g.batch_size(d)).collect();
        let mut actual = vec![0usize; g.max_delta() + 1];
        while let Some((d, batch)) = g.next_batch() {
            // batch_size counts the empty set too; add it back where it
            // occurs (d == |base| with no insertions).
            actual[d] = batch.len() + usize::from(d == 2);
        }
        assert_eq!(sizes, actual);
    }

    #[test]
    fn exhausts_and_returns_none() {
        let mut g = CandidateGen::new(&ks(&[7]), &ks(&[7]));
        // Universe = {7}: candidates are just {7} at d=0; d=1 is the empty
        // set (filtered) → None afterwards.
        assert_eq!(g.next_batch().unwrap().1, vec![ks(&[7])]);
        assert!(g.next_batch().is_none());
        assert!(g.next_batch().is_none());
    }

    #[test]
    fn empty_query_doc_enumerates_insertions_only() {
        let mut g = CandidateGen::new(&KeywordSet::empty(), &ks(&[1, 2]));
        let (d0, b0) = g.next_batch().unwrap();
        // d=0 would be the empty set (filtered), so the first batch is d=1.
        assert_eq!(d0, 1);
        assert_eq!(b0.len(), 2);
        let (d1, b1) = g.next_batch().unwrap();
        assert_eq!(d1, 2);
        assert_eq!(b1, vec![ks(&[1, 2])]);
    }
}
