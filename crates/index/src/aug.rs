//! Node augmentations: what each R-tree variant stores per node.
//!
//! The generic [`crate::RTree`] delegates everything textual to an
//! [`Augmentation`]: a summary computed from the objects below a leaf
//! ([`Augmentation::for_leaf`]) or from child summaries
//! ([`Augmentation::for_internal`]). Four variants:
//!
//! | Aug      | Tree      | Per-node payload                                  |
//! |----------|-----------|---------------------------------------------------|
//! | [`NoAug`]| R-tree    | nothing                                           |
//! | [`SetAug`]| SetR-tree| intersection + union keyword sets                 |
//! | [`KcAug`]| KcR-tree  | keyword → count map + object count `cnt` (Fig 2)  |
//! | [`IrAug`]| IR-tree   | union keywords + inverted file (kw → child bitmap)|
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
//! The KcR-tree recovers the same sets implicitly: a keyword with
//! `count == cnt` is in *every* object (node intersection), a keyword with
//! `count > 0` is in *some* object (node union) — so [`KcAug`] produces
//! exactly the same [`TextStats`] as [`SetAug`], plus counting information
//! no other variant has. The IR-tree only knows the union side, so its
//! `min_inter`/`int_len` are pessimistic zeros — the formal reason the
//! paper replaces the IR-tree with the SetR-tree for Jaccard scoring.
//!
//! **What the service runs.** Only [`KcAug`] is served: every shard tree
//! is a KcR-tree, and the preference module's candidate index is a plain
//! [`NoAug`] R-tree. [`SetAug`] and [`IrAug`] exist for the bound-tightness
//! comparison of experiment E5 (`experiments.rs`) and the ablation
//! benches; no served route reaches them.

use yask_text::{KeywordSet, SimilarityModel};

use crate::corpus::SpatioTextualObject;

/// Per-node summary maintained by the generic R-tree.
pub trait Augmentation: Clone + std::fmt::Debug + PartialEq {
    /// Summary of a leaf node from the objects it stores. `objects` is
    /// never empty.
    fn for_leaf(objects: &[&SpatioTextualObject]) -> Self;

    /// Summary of an internal node from its children's summaries.
    /// `children` is never empty.
    fn for_internal(children: &[&Self]) -> Self;

    /// Estimated heap bytes owned by this summary beyond its inline size
    /// — feeds the per-shard index memory counters on `/stats`.
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Textual-similarity bounds over all objects below a node.
pub trait TextualBound {
    /// The [`TextStats`] of this node against query keywords `q`.
    fn text_stats(&self, q: &KeywordSet) -> TextStats;

    /// Upper bound of `model.similarity(q, o.doc)` over objects `o` below
    /// this node.
    fn sim_upper(&self, q: &KeywordSet, model: SimilarityModel) -> f64 {
        self.text_stats(q).upper(model)
    }

    /// Lower bound counterpart of [`TextualBound::sim_upper`].
    fn sim_lower(&self, q: &KeywordSet, model: SimilarityModel) -> f64 {
        self.text_stats(q).lower(model)
    }
}

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
    /// Stats representing *no information* about the node (plain R-tree):
    /// the upper bound degenerates to 1 and the lower bound to 0.
    pub fn unknown(q_len: usize) -> Self {
        TextStats {
            q_len,
            max_inter: q_len,
            min_inter: 0,
            int_len: 0,
            uni_len: usize::MAX / 4,
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

    /// Lower bound of the model similarity consistent with these stats.
    pub fn lower(&self, model: SimilarityModel) -> f64 {
        if self.q_len == 0 || self.min_inter == 0 {
            return 0.0;
        }
        let g = self.min_inter as f64;
        let q = self.q_len as f64;
        let max_len = self.uni_len.max(1) as f64;
        let v = match model {
            SimilarityModel::Jaccard => g / (max_len + q - g).max(1.0),
            SimilarityModel::Dice => 2.0 * g / (max_len + q),
            SimilarityModel::Overlap => g / max_len.min(q).max(1.0),
            SimilarityModel::Cosine => g / (max_len * q).sqrt(),
        };
        v.clamp(0.0, 1.0)
    }
}

// ---------------------------------------------------------------------------
// AugCodec — byte serialization for the paged arena
// ---------------------------------------------------------------------------

/// Exact byte serialization of an augmentation, so a paged (out-of-core)
/// arena chunk decodes to a node byte-identical to its resident
/// original. Integers are little-endian; every collection is
/// length-prefixed and written in its canonical (sorted) stored order,
/// so `decode(encode(a)) == a` exactly.
pub trait AugCodec: Sized {
    /// Appends the encoded form to `out`.
    fn encode_aug(&self, out: &mut Vec<u8>);

    /// Decodes one augmentation off the front of `buf`, advancing it.
    /// `None` on truncated or malformed input.
    fn decode_aug(buf: &mut &[u8]) -> Option<Self>;
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    let (head, rest) = buf.split_at_checked(4)?;
    *buf = rest;
    Some(u32::from_le_bytes(head.try_into().ok()?))
}

fn take_u64(buf: &mut &[u8]) -> Option<u64> {
    let (head, rest) = buf.split_at_checked(8)?;
    *buf = rest;
    Some(u64::from_le_bytes(head.try_into().ok()?))
}

fn put_keyword_set(out: &mut Vec<u8>, s: &KeywordSet) {
    put_u32(out, s.len() as u32);
    for &kw in s.raw() {
        put_u32(out, kw);
    }
}

fn take_keyword_set(buf: &mut &[u8]) -> Option<KeywordSet> {
    let n = take_u32(buf)? as usize;
    let mut kws = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        kws.push(take_u32(buf)?);
    }
    Some(KeywordSet::from_raw(kws))
}

impl AugCodec for NoAug {
    fn encode_aug(&self, _out: &mut Vec<u8>) {}

    fn decode_aug(_buf: &mut &[u8]) -> Option<Self> {
        Some(NoAug)
    }
}

impl AugCodec for SetAug {
    fn encode_aug(&self, out: &mut Vec<u8>) {
        put_keyword_set(out, &self.int);
        put_keyword_set(out, &self.uni);
    }

    fn decode_aug(buf: &mut &[u8]) -> Option<Self> {
        let int = take_keyword_set(buf)?;
        let uni = take_keyword_set(buf)?;
        Some(SetAug { int, uni })
    }
}

impl AugCodec for KcAug {
    fn encode_aug(&self, out: &mut Vec<u8>) {
        put_u32(out, self.cnt);
        put_u32(out, self.counts.len() as u32);
        for &(kw, n) in self.counts.iter() {
            put_u32(out, kw);
            put_u32(out, n);
        }
    }

    fn decode_aug(buf: &mut &[u8]) -> Option<Self> {
        let cnt = take_u32(buf)?;
        let n = take_u32(buf)? as usize;
        let mut pairs = Vec::with_capacity(n.min(1 << 16));
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
}

impl AugCodec for IrAug {
    fn encode_aug(&self, out: &mut Vec<u8>) {
        put_keyword_set(out, &self.uni);
        put_u32(out, self.inv.len() as u32);
        for &(kw, bits) in self.inv.iter() {
            put_u32(out, kw);
            put_u64(out, bits);
        }
    }

    fn decode_aug(buf: &mut &[u8]) -> Option<Self> {
        let uni = take_keyword_set(buf)?;
        let n = take_u32(buf)? as usize;
        let mut inv = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let kw = take_u32(buf)?;
            let bits = take_u64(buf)?;
            inv.push((kw, bits));
        }
        Some(IrAug { uni, inv: inv.into() })
    }
}

// ---------------------------------------------------------------------------
// NoAug — plain R-tree
// ---------------------------------------------------------------------------

/// No textual augmentation: the plain R-tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoAug;

impl Augmentation for NoAug {
    fn for_leaf(_objects: &[&SpatioTextualObject]) -> Self {
        NoAug
    }

    fn for_internal(_children: &[&Self]) -> Self {
        NoAug
    }
}

impl TextualBound for NoAug {
    fn text_stats(&self, q: &KeywordSet) -> TextStats {
        TextStats::unknown(q.len())
    }
}

// ---------------------------------------------------------------------------
// SetAug — SetR-tree
// ---------------------------------------------------------------------------

/// SetR-tree augmentation: "each SetR-tree node has pointers to the
/// intersection set and the union set of the keyword sets of all objects
/// indexed by the node" (paper §3.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetAug {
    int: KeywordSet,
    uni: KeywordSet,
}

impl SetAug {
    /// The intersection of all object keyword sets below the node.
    pub fn intersection(&self) -> &KeywordSet {
        &self.int
    }

    /// The union of all object keyword sets below the node.
    pub fn union(&self) -> &KeywordSet {
        &self.uni
    }
}

impl Augmentation for SetAug {
    fn for_leaf(objects: &[&SpatioTextualObject]) -> Self {
        let mut it = objects.iter();
        let first = it.next().expect("leaf augmentation over empty object set");
        let mut int = first.doc.clone();
        let mut uni = first.doc.clone();
        for o in it {
            int = int.intersection(&o.doc);
            uni = uni.union(&o.doc);
        }
        SetAug { int, uni }
    }

    fn for_internal(children: &[&Self]) -> Self {
        let mut it = children.iter();
        let first = it.next().expect("internal augmentation over empty child set");
        let mut int = first.int.clone();
        let mut uni = first.uni.clone();
        for c in it {
            int = int.intersection(&c.int);
            uni = uni.union(&c.uni);
        }
        SetAug { int, uni }
    }

    fn heap_bytes(&self) -> usize {
        4 * (self.int.len() + self.uni.len())
    }
}

impl TextualBound for SetAug {
    fn text_stats(&self, q: &KeywordSet) -> TextStats {
        TextStats {
            q_len: q.len(),
            max_inter: self.uni.intersection_size(q),
            min_inter: self.int.intersection_size(q),
            int_len: self.int.len(),
            uni_len: self.uni.len(),
        }
    }
}

// ---------------------------------------------------------------------------
// KcAug — KcR-tree
// ---------------------------------------------------------------------------

/// KcR-tree augmentation (paper Fig 2): "each KcR-tree node is associated
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

    /// Σ over query keywords of `count(kw)`, clamped at `cnt`: an upper
    /// bound on the number of objects below the node containing *at least
    /// one* query keyword (i.e. with non-zero set similarity).
    pub fn matched_upper(&self, q: &KeywordSet) -> u32 {
        let mut sum: u64 = 0;
        for kw in q.raw() {
            sum += self.count(*kw) as u64;
        }
        sum.min(self.cnt as u64) as u32
    }

    /// A lower bound on the number of objects below the node containing at
    /// least one query keyword: by inclusion–exclusion it is at least the
    /// maximum single-keyword count.
    pub fn matched_lower(&self, q: &KeywordSet) -> u32 {
        q.raw().iter().map(|&kw| self.count(kw)).max().unwrap_or(0)
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

impl Augmentation for KcAug {
    fn for_leaf(objects: &[&SpatioTextualObject]) -> Self {
        let mut map: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
        for o in objects {
            for kw in o.doc.raw() {
                *map.entry(*kw).or_insert(0) += 1;
            }
        }
        KcAug::finish(map.into_iter().collect(), objects.len() as u32)
    }

    fn for_internal(children: &[&Self]) -> Self {
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

    fn heap_bytes(&self) -> usize {
        8 * self.counts.len()
    }
}

impl TextualBound for KcAug {
    fn text_stats(&self, q: &KeywordSet) -> TextStats {
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
}

// ---------------------------------------------------------------------------
// IrAug — IR-tree
// ---------------------------------------------------------------------------

/// IR-tree augmentation in the spirit of Cong et al. \[4\]: each node stores
/// an inverted file mapping keywords to the set of child slots whose
/// subtree contains the keyword (here a `u64` bitmap — node fanout is
/// capped at 64). The union keyword set is the posting dictionary.
///
/// Crucially there is *no intersection information*, so Jaccard bounds are
/// strictly looser than the SetR-tree's — which is the paper's stated
/// reason for not using the IR-tree with Jaccard similarity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IrAug {
    uni: KeywordSet,
    /// `(keyword, child bitmap)` sorted by keyword. For a leaf node the
    /// bits index objects in entry order; for an internal node, children.
    inv: Box<[(u32, u64)]>,
}

impl IrAug {
    /// The union of keywords below this node (the posting dictionary).
    pub fn union(&self) -> &KeywordSet {
        &self.uni
    }

    /// The posting bitmap for a keyword (0 when absent).
    pub fn postings(&self, kw: u32) -> u64 {
        match self.inv.binary_search_by_key(&kw, |e| e.0) {
            Ok(i) => self.inv[i].1,
            Err(_) => 0,
        }
    }

    /// Bitmap of child slots whose subtree contains at least one keyword
    /// of `q` — lets a traversal compute per-child match counts without
    /// touching the children (the I/O-saving trick of the IR-tree).
    pub fn children_matching(&self, q: &KeywordSet) -> u64 {
        let mut mask = 0;
        for &kw in q.raw() {
            mask |= self.postings(kw);
        }
        mask
    }

    /// For child slot `slot`, the number of query keywords present in that
    /// child's subtree (its `max_inter` seen from the parent).
    pub fn child_match_count(&self, q: &KeywordSet, slot: usize) -> usize {
        debug_assert!(slot < 64);
        let bit = 1u64 << slot;
        q.raw()
            .iter()
            .filter(|&&kw| self.postings(kw) & bit != 0)
            .count()
    }

    fn from_keyword_sets<'a, I: Iterator<Item = &'a KeywordSet>>(sets: I) -> Self {
        let mut map: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        let mut uni = KeywordSet::empty();
        for (slot, doc) in sets.enumerate() {
            assert!(slot < 64, "IR-tree fanout exceeds 64");
            for &kw in doc.raw() {
                *map.entry(kw).or_insert(0) |= 1 << slot;
            }
            uni = uni.union(doc);
        }
        IrAug {
            uni,
            inv: map.into_iter().collect::<Vec<_>>().into(),
        }
    }
}

impl Augmentation for IrAug {
    fn for_leaf(objects: &[&SpatioTextualObject]) -> Self {
        IrAug::from_keyword_sets(objects.iter().map(|o| &o.doc))
    }

    fn for_internal(children: &[&Self]) -> Self {
        IrAug::from_keyword_sets(children.iter().map(|c| &c.uni))
    }

    fn heap_bytes(&self) -> usize {
        4 * self.uni.len() + 12 * self.inv.len()
    }
}

impl TextualBound for IrAug {
    fn text_stats(&self, q: &KeywordSet) -> TextStats {
        TextStats {
            q_len: q.len(),
            max_inter: self.uni.intersection_size(q),
            min_inter: 0,
            int_len: 0,
            uni_len: self.uni.len(),
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

    #[test]
    fn set_aug_leaf_and_internal() {
        let objs = objects(&[&[1, 2, 3], &[2, 3], &[2, 4]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        let a = SetAug::for_leaf(&refs);
        assert_eq!(a.intersection(), &ks(&[2]));
        assert_eq!(a.union(), &ks(&[1, 2, 3, 4]));

        let b = SetAug::for_leaf(&refs[..1]);
        let merged = SetAug::for_internal(&[&a, &b]);
        assert_eq!(merged.intersection(), &ks(&[2]));
        assert_eq!(merged.union(), &ks(&[1, 2, 3, 4]));
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
        let set = SetAug::for_leaf(&refs);
        let kc = KcAug::for_leaf(&refs);
        for q in [ks(&[2]), ks(&[1, 2]), ks(&[3, 4, 9]), ks(&[7])] {
            assert_eq!(set.text_stats(&q), kc.text_stats(&q), "q = {q:?}");
        }
    }

    #[test]
    fn kc_matched_bounds() {
        let objs = objects(&[&[1, 2], &[2], &[3]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        let kc = KcAug::for_leaf(&refs);
        let q = ks(&[1, 2]);
        // Objects with ≥1 query keyword: o0, o1 → 2. Bounds must bracket.
        assert!(kc.matched_lower(&q) <= 2);
        assert!(kc.matched_upper(&q) >= 2);
        assert_eq!(kc.matched_upper(&ks(&[9])), 0);
        assert_eq!(kc.matched_lower(&ks(&[9])), 0);
        // Sum clamps at cnt.
        assert!(kc.matched_upper(&ks(&[1, 2, 3])) <= 3);
    }

    #[test]
    fn ir_aug_postings_and_masks() {
        let objs = objects(&[&[1, 2], &[2, 3], &[4]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        let ir = IrAug::for_leaf(&refs);
        assert_eq!(ir.postings(2), 0b011);
        assert_eq!(ir.postings(4), 0b100);
        assert_eq!(ir.postings(9), 0);
        assert_eq!(ir.children_matching(&ks(&[1, 4])), 0b101);
        assert_eq!(ir.child_match_count(&ks(&[2, 3]), 1), 2);
        assert_eq!(ir.child_match_count(&ks(&[2, 3]), 2), 0);
        assert_eq!(ir.union(), &ks(&[1, 2, 3, 4]));
    }

    #[test]
    fn ir_internal_merges_child_unions() {
        let objs = objects(&[&[1], &[2]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        let a = IrAug::for_leaf(&refs[..1]);
        let b = IrAug::for_leaf(&refs[1..]);
        let p = IrAug::for_internal(&[&a, &b]);
        assert_eq!(p.postings(1), 0b01);
        assert_eq!(p.postings(2), 0b10);
    }

    #[test]
    fn bounds_bracket_exact_similarity_all_models() {
        // Node over three docs; check every model, several queries, and
        // all three informative augmentations.
        let objs = objects(&[&[1, 2, 3], &[2, 3, 4], &[2, 5]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        let set = SetAug::for_leaf(&refs);
        let kc = KcAug::for_leaf(&refs);
        let ir = IrAug::for_leaf(&refs);
        let queries = [ks(&[2]), ks(&[2, 3]), ks(&[1, 5]), ks(&[6, 7]), ks(&[1, 2, 3, 4, 5])];
        for model in SimilarityModel::ALL {
            for q in &queries {
                for (name, lb, ub) in [
                    ("set", set.sim_lower(q, model), set.sim_upper(q, model)),
                    ("kc", kc.sim_lower(q, model), kc.sim_upper(q, model)),
                    ("ir", ir.sim_lower(q, model), ir.sim_upper(q, model)),
                ] {
                    assert!(lb <= ub + 1e-12, "{name} {model:?} {q:?}: lb>{ub}");
                    for o in &objs {
                        let s = model.similarity(q, &o.doc);
                        assert!(
                            s <= ub + 1e-12,
                            "{name} {model:?} q={q:?} o={:?}: {s} > ub {ub}",
                            o.id
                        );
                        assert!(
                            s + 1e-12 >= lb,
                            "{name} {model:?} q={q:?} o={:?}: {s} < lb {lb}",
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
        let set = SetAug::for_leaf(&refs);
        let ir = IrAug::for_leaf(&refs);
        let q = ks(&[1, 9]);
        let set_ub = set.sim_upper(&q, SimilarityModel::Jaccard);
        let ir_ub = ir.sim_upper(&q, SimilarityModel::Jaccard);
        assert!(set_ub <= ir_ub);
        assert!(set_ub < ir_ub, "expected strictly tighter: {set_ub} vs {ir_ub}");
    }

    #[test]
    fn no_aug_is_vacuous() {
        let objs = objects(&[&[1]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        let a = NoAug::for_leaf(&refs);
        let q = ks(&[1, 2]);
        assert_eq!(a.sim_upper(&q, SimilarityModel::Jaccard), 1.0);
        assert_eq!(a.sim_lower(&q, SimilarityModel::Jaccard), 0.0);
        // Empty query still scores zero.
        assert_eq!(a.sim_upper(&KeywordSet::empty(), SimilarityModel::Jaccard), 0.0);
    }

    #[test]
    fn object_ids_are_stable_in_fixture() {
        let objs = objects(&[&[1], &[2]]);
        assert_eq!(objs[0].id, ObjectId(0));
        assert_eq!(objs[1].id, ObjectId(1));
    }

    fn roundtrip<A: AugCodec + PartialEq + std::fmt::Debug>(a: &A) {
        let mut bytes = Vec::new();
        a.encode_aug(&mut bytes);
        let mut cursor = bytes.as_slice();
        let back = A::decode_aug(&mut cursor).expect("decodes");
        assert_eq!(&back, a);
        assert!(cursor.is_empty(), "decoder must consume exactly its bytes");
    }

    #[test]
    fn codec_roundtrips_every_variant() {
        let objs = objects(&[&[1, 2, 3], &[2, 3, 9], &[3]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        roundtrip(&NoAug::for_leaf(&refs));
        roundtrip(&SetAug::for_leaf(&refs));
        roundtrip(&KcAug::for_leaf(&refs));
        roundtrip(&IrAug::for_leaf(&refs));

        // Single-keyword edge.
        let one = objects(&[&[7]]);
        let one_refs: Vec<&SpatioTextualObject> = one.iter().collect();
        roundtrip(&SetAug::for_leaf(&one_refs));
        roundtrip(&KcAug::for_leaf(&one_refs));
        roundtrip(&IrAug::for_leaf(&one_refs));
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
        a.encode_aug(&mut bytes);
        let back = KcAug::decode_aug(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.int_len, 1);
    }

    #[test]
    fn codec_rejects_truncated_input() {
        let objs = objects(&[&[1, 2, 3]]);
        let refs: Vec<&SpatioTextualObject> = objs.iter().collect();
        let mut bytes = Vec::new();
        SetAug::for_leaf(&refs).encode_aug(&mut bytes);
        for cut in 0..bytes.len() {
            let mut cursor = &bytes[..cut];
            assert!(SetAug::decode_aug(&mut cursor).is_none(), "cut at {cut}");
        }
    }
}
