//! Set-similarity models.
//!
//! The paper adopts Jaccard (Eqn (2)) "without loss of generality" and
//! notes (footnote 1) that other textual similarity models can be
//! supported. [`SimilarityModel`] is that extension point: every model here
//! maps a `(query, object)` keyword-set pair to a score in `[0, 1]`, and
//! the query engine is generic over the choice.

use crate::keyword_set::KeywordSet;

/// The available set-similarity models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SimilarityModel {
    /// `|A ∩ B| / |A ∪ B|` — the paper's default (Eqn (2)).
    #[default]
    Jaccard,
    /// `2|A ∩ B| / (|A| + |B|)` — Sørensen–Dice.
    Dice,
    /// `|A ∩ B| / min(|A|, |B|)` — overlap (Szymkiewicz–Simpson).
    Overlap,
    /// `|A ∩ B| / sqrt(|A|·|B|)` — set cosine.
    Cosine,
}

impl SimilarityModel {
    /// All models, for parameter sweeps.
    pub const ALL: [SimilarityModel; 4] = [
        SimilarityModel::Jaccard,
        SimilarityModel::Dice,
        SimilarityModel::Overlap,
        SimilarityModel::Cosine,
    ];

    /// Short stable name (used in bench output and the HTTP API).
    pub fn name(self) -> &'static str {
        match self {
            SimilarityModel::Jaccard => "jaccard",
            SimilarityModel::Dice => "dice",
            SimilarityModel::Overlap => "overlap",
            SimilarityModel::Cosine => "cosine",
        }
    }

    /// Parses a model name as produced by [`SimilarityModel::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "jaccard" => Some(SimilarityModel::Jaccard),
            "dice" => Some(SimilarityModel::Dice),
            "overlap" => Some(SimilarityModel::Overlap),
            "cosine" => Some(SimilarityModel::Cosine),
            _ => None,
        }
    }

    /// Computes the similarity of two keyword sets under this model.
    /// Result is in `[0, 1]`; any model scores 0 when either set is empty.
    pub fn similarity(self, a: &KeywordSet, b: &KeywordSet) -> f64 {
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        // One intersection; the union follows as |a| + |b| − |a ∩ b|.
        let n = a.intersection_size(b);
        let inter = n as f64;
        match self {
            SimilarityModel::Jaccard => inter / (a.len() + b.len() - n) as f64,
            SimilarityModel::Dice => 2.0 * inter / (a.len() + b.len()) as f64,
            SimilarityModel::Overlap => inter / a.len().min(b.len()) as f64,
            SimilarityModel::Cosine => inter / ((a.len() * b.len()) as f64).sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ks(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_raw(ids.iter().copied())
    }

    #[test]
    fn jaccard_matches_keyword_set_impl() {
        let a = ks(&[1, 2, 3]);
        let b = ks(&[2, 3, 4]);
        assert_eq!(
            SimilarityModel::Jaccard.similarity(&a, &b),
            a.jaccard(&b)
        );
    }

    #[test]
    fn all_models_in_unit_interval() {
        let a = ks(&[1, 2, 3, 4, 5]);
        let b = ks(&[4, 5, 6]);
        for m in SimilarityModel::ALL {
            let s = m.similarity(&a, &b);
            assert!((0.0..=1.0).contains(&s), "{m:?} gave {s}");
        }
    }

    #[test]
    fn identical_sets_score_one() {
        let a = ks(&[1, 2]);
        for m in SimilarityModel::ALL {
            assert!((m.similarity(&a, &a) - 1.0).abs() < 1e-12, "{m:?}");
        }
    }

    #[test]
    fn empty_sets_score_zero() {
        let a = ks(&[1]);
        let e = KeywordSet::empty();
        for m in SimilarityModel::ALL {
            assert_eq!(m.similarity(&a, &e), 0.0);
            assert_eq!(m.similarity(&e, &a), 0.0);
        }
    }

    #[test]
    fn dice_and_cosine_values() {
        let a = ks(&[1, 2]);
        let b = ks(&[2, 3, 4]);
        // inter=1, |a|=2, |b|=3.
        assert!((SimilarityModel::Dice.similarity(&a, &b) - 2.0 / 5.0).abs() < 1e-12);
        assert!(
            (SimilarityModel::Cosine.similarity(&a, &b) - 1.0 / 6.0_f64.sqrt()).abs() < 1e-12
        );
        assert!((SimilarityModel::Overlap.similarity(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn name_parse_round_trip() {
        for m in SimilarityModel::ALL {
            assert_eq!(SimilarityModel::parse(m.name()), Some(m));
        }
        assert_eq!(SimilarityModel::parse("bm25"), None);
    }

    #[test]
    fn one_intersection_kernel_is_bit_equal_to_the_two_pass_formula() {
        // Every pair of subsets of {0..6}: the single-intersection kernel
        // must give the same integers and the same f64 bits as the old
        // formula, which intersected twice (once for the union).
        let subset = |mask: u32| KeywordSet::from_raw((0..7).filter(|i| mask & (1 << i) != 0));
        for ma in 0..128u32 {
            let a = subset(ma);
            for mb in 0..128u32 {
                let b = subset(mb);
                let naive = (ma & mb).count_ones() as usize;
                assert_eq!(a.intersection_size(&b), naive, "{a:?} ∩ {b:?}");
                for m in SimilarityModel::ALL {
                    let old = if a.is_empty() || b.is_empty() {
                        0.0
                    } else {
                        let inter = a.intersection_size(&b) as f64;
                        match m {
                            SimilarityModel::Jaccard => inter / a.union_size(&b) as f64,
                            SimilarityModel::Dice => 2.0 * inter / (a.len() + b.len()) as f64,
                            SimilarityModel::Overlap => inter / a.len().min(b.len()) as f64,
                            SimilarityModel::Cosine => inter / ((a.len() * b.len()) as f64).sqrt(),
                        }
                    };
                    assert_eq!(
                        m.similarity(&a, &b).to_bits(),
                        old.to_bits(),
                        "{m:?} {a:?} {b:?}"
                    );
                }
            }
        }
    }
}
