//! The node summary: what every R-tree node knows about the keywords of
//! the objects below it.
//!
//! The tree stores one summary, the KcR-tree's [`KcAug`] (paper Fig 2):
//! a keyword → count map plus the object count `cnt`, computed from the
//! objects below a leaf ([`KcAug::for_leaf`]) or from the child
//! summaries of an internal node ([`KcAug::for_internal`]).
//!
//! All textual score bounds funnel through [`TextStats`], which captures
//! the only quantities the similarity bounds need. Soundness argument (for
//! any object `o` in the node, `N.int ⊆ o.doc ⊆ N.uni`):
//!
//! * `|o.doc ∩ q| ≤ |N.uni ∩ q|` (= `max_inter`) and `≥ |N.int ∩ q|`
//!   (= `min_inter`);
//! * `|o.doc| ≥ |N.int|` and `≤ |N.uni|`;
//! * the bound for each model is the model evaluated at the extremal
//!   consistent configuration, which can only over/under-shoot the true
//!   value (verified exhaustively by property tests in this module and in
//!   the query crate).
//!
//! The counts imply the SetR-tree's two sets: a keyword with
//! `count == cnt` is in *every* object (node intersection), a keyword with
//! `count > 0` is in *some* object (node union). So one summary yields
//! both bound views the paper compares:
//!
//! | View | Stats | Knows |
//! |------|-------|-------|
//! | SetR-tree bound | [`KcAug::text_stats`] | `N.int` and `N.uni` |
//! | IR-tree bound | [`TextStats::without_intersection`] | `N.uni` only |
//!
//! Every served search uses the SetR-tree view. The IR-tree view has
//! pessimistic zeros for `min_inter`/`int_len` — the formal reason the
//! paper replaces the IR-tree with the SetR-tree for Jaccard scoring — and
//! survives only for the bound-tightness comparison of experiment E5.
//! Only top-k reads these bounds, and only their upper side: no why-not
//! module reads a tree (keyword adaptation counts ranks off its request
//! table).

use yask_text::{KeywordSet, SimilarityModel};

use crate::corpus::SpatioTextualObject;

/// The five integers every set-similarity bound needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TextStats {
    /// `|q|`.
    pub q_len: usize,
    /// `|N.uni ∩ q|` — best possible match count.
    pub max_inter: usize,
    /// `|N.int ∩ q|` — guaranteed match count.
    pub min_inter: usize,
    /// `|N.int|` — minimum object doc size.
    pub int_len: usize,
    /// `|N.uni|` — maximum object doc size.
    pub uni_len: usize,
}

impl TextStats {
    /// The IR-tree's view of these stats: it keeps only the union side,
    /// so the intersection fields are pessimistic zeros.
    pub fn without_intersection(self) -> Self {
        TextStats {
            min_inter: 0,
            int_len: 0,
            ..self
        }
    }

    /// Upper bound of the model similarity consistent with these stats.
    pub fn upper(&self, model: SimilarityModel) -> f64 {
        if self.q_len == 0 || self.max_inter == 0 {
            return 0.0;
        }
        let m = self.max_inter as f64;
        let q = self.q_len as f64;
        // The object that realizes the best similarity has at least
        // max(int_len, max_inter, 1) keywords.
        let min_len = self.int_len.max(self.max_inter).max(1) as f64;
        let v = match model {
            SimilarityModel::Jaccard => {
                // |o ∪ q| ≥ |o| + |q| − |o ∩ q| ≥ min_len + q − m.
                m / (min_len + q - m).max(1.0)
            }
            SimilarityModel::Dice => 2.0 * m / (min_len + q),
            SimilarityModel::Overlap => m / min_len.min(q).max(1.0),
            SimilarityModel::Cosine => m / (min_len * q).sqrt(),
        };
        v.min(1.0)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    let (head, rest) = buf.split_at_checked(4)?;
    *buf = rest;
    Some(u32::from_le_bytes(head.try_into().ok()?))
}

/// KcR-tree node summary (paper Fig 2): "each KcR-tree node is associated
/// with a key-value map, where each key is a keyword in the union set of
/// the keywords of the objects indexed by this node, and its corresponding
/// value is the number of objects in this node that contain this keyword.
/// In addition, each KcR-tree node has a `cnt` value that stores the number
/// of objects that are indexed by this node."
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KcAug {
    /// `(keyword, object count)` sorted by keyword.
    counts: Box<[(u32, u32)]>,
    /// Number of objects below the node.
    cnt: u32,
    /// `#{kw : count(kw) == cnt}` — the size of the implicit intersection
    /// set, precomputed because every bound needs it.
    int_len: u32,
}

impl KcAug {
    /// Summary of a leaf node from the objects it stores. `objects` is
    /// never empty.
    pub fn for_leaf(objects: &[&SpatioTextualObject]) -> Self {
        let mut map: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
        for o in objects {
            for kw in o.doc.raw() {
                *map.entry(*kw).or_insert(0) += 1;
            }
        }
        KcAug::finish(map.into_iter().collect(), objects.len() as u32)
    }

    /// Summary of an internal node from its children's summaries.
    /// `children` is never empty.
    pub fn for_internal(children: &[&Self]) -> Self {
        let mut map: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
        let mut cnt = 0;
        for c in children {
            cnt += c.cnt;
            for &(kw, n) in c.counts.iter() {
                *map.entry(kw).or_insert(0) += n;
            }
        }
        KcAug::finish(map.into_iter().collect(), cnt)
    }

    /// Estimated heap bytes owned by this summary beyond its inline size
    /// — feeds the per-shard index memory counters on `/stats`.
    pub fn heap_bytes(&self) -> usize {
        8 * self.counts.len()
    }

    /// Number of objects below the node (`cnt` in Fig 2).
    pub fn cnt(&self) -> u32 {
        self.cnt
    }

    /// The keyword-count map, sorted by keyword id.
    pub fn counts(&self) -> &[(u32, u32)] {
        &self.counts
    }

    /// Number of objects below the node containing keyword `kw`.
    pub fn count(&self, kw: u32) -> u32 {
        match self.counts.binary_search_by_key(&kw, |e| e.0) {
            Ok(i) => self.counts[i].1,
            Err(_) => 0,
        }
    }

    /// The [`TextStats`] of this node against query keywords `q`, read
    /// off the implied intersection and union sets.
    pub fn text_stats(&self, q: &KeywordSet) -> TextStats {
        let mut max_inter = 0;
        let mut min_inter = 0;
        for &kw in q.raw() {
            let c = self.count(kw);
            if c > 0 {
                max_inter += 1;
                if c == self.cnt {
                    min_inter += 1;
                }
            }
        }
        TextStats {
            q_len: q.len(),
            max_inter,
            min_inter,
            int_len: self.int_len as usize,
            uni_len: self.counts.len(),
        }
    }

    /// Upper bound of `model.similarity(q, o.doc)` over objects `o` below
    /// this node.
    pub fn sim_upper(&self, q: &KeywordSet, model: SimilarityModel) -> f64 {
        self.text_stats(q).upper(model)
    }

    /// Appends the exact byte form the paged arena stores: `cnt`, the
    /// pair count, then every `(keyword, count)` pair in stored (sorted)
    /// order, all little-endian `u32`s.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.cnt);
        put_u32(out, self.counts.len() as u32);
        for &(kw, n) in self.counts.iter() {
            put_u32(out, kw);
            put_u32(out, n);
        }
    }

    /// Decodes one summary off the front of `buf`, advancing it, so that
    /// `decode(encode(a)) == a` exactly. `None` on truncated input.
    pub fn decode(buf: &mut &[u8]) -> Option<Self> {
        let cnt = take_u32(buf)?;
        let n = take_u32(buf)? as usize;
        // Reserve no more pairs than the bytes left can hold.
        let mut pairs = Vec::with_capacity(n.min(buf.len() / 8));
        for _ in 0..n {
            let kw = take_u32(buf)?;
            let count = take_u32(buf)?;
            pairs.push((kw, count));
        }
        // `finish` re-sorts (already sorted — encoded in stored order)
        // and recomputes the derived `int_len`, which is a pure function
        // of (counts, cnt), so the round trip is exact.
        Some(KcAug::finish(pairs, cnt))
    }

    fn finish(mut pairs: Vec<(u32, u32)>, cnt: u32) -> Self {
        pairs.sort_unstable_by_key(|e| e.0);
        let int_len = pairs.iter().filter(|e| e.1 == cnt).count() as u32;
        KcAug {
            counts: pairs.into(),
            cnt,
            int_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusBuilder, ObjectId};
    use yask_geo::Point;

    fn ks(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_raw(ids.iter().copied())
    }

    fn objects(docs: &[&[u32]]) -> Vec<SpatioTextualObject> {
        let mut b = CorpusBuilder::new();
        for (i, d) in docs.iter().enumerate() {
            b.push(Point::new(i as f64, 0.0), ks(d), format!("o{i}"));
        }
        b.build().iter_slots().cloned().collect()
    }

    /// The test oracle: the SetR-tree's stats, from the intersection and
    /// union of the objects' keyword sets computed directly.
    fn set_stats(objs: &[&SpatioTextualObject], q: &KeywordSet) -> TextStats {
        let mut int = objs[0].doc.clone();
        let mut uni = objs[0].doc.clone();
        for o in &objs[1..] {
            int = int.intersection(&o.doc);
            uni = uni.union(&o.doc);
        }
        TextStats {
            q_len: q.len(),
            max_inter: uni.intersection_size(q),
            min_inter: int.intersection_size(q),
            int_len: int.len(),
            uni_len: uni.len(),
        }
    }

    #[test]
    fn implied_sets_of_leaf_and_internal() {
        let objs = objects(&[&[1, 2, 3], &[2, 3], &[2, 4]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        let a = KcAug::for_leaf(&refs);
        let b = KcAug::for_leaf(&refs[..1]);
        let merged = KcAug::for_internal(&[&a, &b]);
        // int = {2}, uni = {1, 2, 3, 4} for the leaf and the merge alike.
        for node in [&a, &merged] {
            let s = node.text_stats(&ks(&[1, 2, 3, 4]));
            assert_eq!((s.min_inter, s.int_len, s.max_inter, s.uni_len), (1, 1, 4, 4));
        }
    }

    #[test]
    fn kc_aug_counts_match_fig2_shape() {
        // Fig 2: R1 = {o1, o2, o3} with Chinese×2, restaurant×3, cnt=3.
        // Keywords: 0 = Chinese, 1 = restaurant, 2 = Spanish.
        let objs = objects(&[&[0, 1], &[0, 1], &[1]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        let r1 = KcAug::for_leaf(&refs);
        assert_eq!(r1.cnt(), 3);
        assert_eq!(r1.count(0), 2);
        assert_eq!(r1.count(1), 3);
        assert_eq!(r1.count(2), 0);

        // R2 = {o4, o5}: Spanish×2, restaurant×2, cnt=2.
        let objs2 = objects(&[&[2, 1], &[2, 1]]);
        let refs2: Vec<&SpatioTextualObject> = objs2.iter().collect();
        let r2 = KcAug::for_leaf(&refs2);
        assert_eq!(r2.cnt(), 2);
        assert_eq!(r2.count(2), 2);
        assert_eq!(r2.count(1), 2);

        // R3 = {R1, R2}: Chinese×2, Spanish×2, restaurant×5, cnt=5.
        let r3 = KcAug::for_internal(&[&r1, &r2]);
        assert_eq!(r3.cnt(), 5);
        assert_eq!(r3.count(0), 2);
        assert_eq!(r3.count(2), 2);
        assert_eq!(r3.count(1), 5);
    }

    #[test]
    fn kc_aug_recovers_set_aug_stats() {
        let objs = objects(&[&[1, 2, 3], &[2, 3], &[2, 4, 5]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        let kc = KcAug::for_leaf(&refs);
        for q in [ks(&[2]), ks(&[1, 2]), ks(&[3, 4, 9]), ks(&[7])] {
            let want = set_stats(&refs, &q);
            assert_eq!(want, kc.text_stats(&q), "q = {q:?}");
            // The IR-tree view is the union side alone.
            let ir = kc.text_stats(&q).without_intersection();
            assert_eq!((ir.max_inter, ir.uni_len), (want.max_inter, want.uni_len));
            assert_eq!((ir.min_inter, ir.int_len), (0, 0), "q = {q:?}");
        }
    }

    #[test]
    fn bounds_bracket_exact_similarity_all_models() {
        // Node over three docs; check every model, several queries, and
        // the oracle's stats beside both views of the summary.
        let objs = objects(&[&[1, 2, 3], &[2, 3, 4], &[2, 5]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        let kc = KcAug::for_leaf(&refs);
        let queries = [ks(&[2]), ks(&[2, 3]), ks(&[1, 5]), ks(&[6, 7]), ks(&[1, 2, 3, 4, 5])];
        for model in SimilarityModel::ALL {
            for q in &queries {
                let set = set_stats(&refs, q);
                let ir = kc.text_stats(q).without_intersection();
                for (name, ub) in [
                    ("set", set.upper(model)),
                    ("kc", kc.sim_upper(q, model)),
                    ("ir", ir.upper(model)),
                ] {
                    for o in &objs {
                        let s = model.similarity(q, &o.doc);
                        assert!(
                            s <= ub + 1e-12,
                            "{name} {model:?} q={q:?} o={:?}: {s} > ub {ub}",
                            o.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn setr_bounds_tighter_than_ir() {
        // The reason the paper swaps the IR-tree for the SetR-tree: with
        // intersection info the Jaccard upper bound can only be tighter.
        let objs = objects(&[&[1, 2, 3, 4], &[1, 2, 3, 5]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        let kc = KcAug::for_leaf(&refs);
        let q = ks(&[1, 9]);
        let set_ub = set_stats(&refs, &q).upper(SimilarityModel::Jaccard);
        assert_eq!(kc.sim_upper(&q, SimilarityModel::Jaccard), set_ub);
        let ir_ub = kc.text_stats(&q).without_intersection().upper(SimilarityModel::Jaccard);
        assert!(set_ub <= ir_ub);
        assert!(set_ub < ir_ub, "expected strictly tighter: {set_ub} vs {ir_ub}");
    }

    #[test]
    fn object_ids_are_stable_in_fixture() {
        let objs = objects(&[&[1], &[2]]);
        assert_eq!(objs[0].id, ObjectId(0));
        assert_eq!(objs[1].id, ObjectId(1));
    }

    fn roundtrip(a: &KcAug) {
        let mut bytes = Vec::new();
        a.encode(&mut bytes);
        let mut cursor = bytes.as_slice();
        let back = KcAug::decode(&mut cursor).expect("decodes");
        assert_eq!(&back, a);
        assert!(cursor.is_empty(), "decoder must consume exactly its bytes");
    }

    #[test]
    fn codec_roundtrips_leaves_and_internals() {
        let objs = objects(&[&[1, 2, 3], &[2, 3, 9], &[3]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        let leaf = KcAug::for_leaf(&refs);
        roundtrip(&leaf);
        roundtrip(&KcAug::for_internal(&[&leaf, &KcAug::for_leaf(&refs[..1])]));

        // Single-keyword edge.
        let one = objects(&[&[7]]);
        let one_refs: Vec<&SpatioTextualObject> = one.iter().collect();
        roundtrip(&KcAug::for_leaf(&one_refs));
    }

    #[test]
    fn codec_layout_is_cnt_then_sorted_pairs() {
        let objs = objects(&[&[9, 4], &[4]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        let mut bytes = Vec::new();
        KcAug::for_leaf(&refs).encode(&mut bytes);
        let words: Vec<u32> = bytes
            .chunks(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect();
        assert_eq!(words, [2, 2, 4, 2, 9, 1]);
    }

    #[test]
    fn kc_codec_restores_the_derived_intersection_length() {
        // Both objects share keyword 3, so int_len must survive the trip
        // (it is recomputed, not serialized).
        let objs = objects(&[&[3, 4], &[3, 5]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        let a = KcAug::for_leaf(&refs);
        assert_eq!(a.int_len, 1);
        let mut bytes = Vec::new();
        a.encode(&mut bytes);
        let back = KcAug::decode(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.int_len, 1);
    }

    #[test]
    fn codec_rejects_truncated_input() {
        let objs = objects(&[&[1, 2, 3]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        let mut bytes = Vec::new();
        KcAug::for_leaf(&refs).encode(&mut bytes);
        for cut in 0..bytes.len() {
            let mut cursor = &bytes[..cut];
            assert!(KcAug::decode(&mut cursor).is_none(), "cut at {cut}");
        }
    }
}
