//! Objects as segments in the weight plane.
//!
//! Because `ws + wt = 1`, the score of an object `o` as a function of the
//! spatial weight is linear:
//!
//! ```text
//! ST(o, q)(ws) = ws · a_o + (1 − ws) · b_o = b_o + ws · (a_o − b_o)
//! ```
//!
//! with `a_o = 1 − SDist(o, q)` and `b_o = TSim(o, q)`. Over the open
//! interval `ws ∈ (0, 1)` each object is therefore a *segment* — the
//! transform at the heart of reference \[5\]. Two objects swap rank exactly
//! where their segments intersect, so the optimal refined weight vector
//! must point at an intersection of a missing object's segment with
//! another segment (or stay at the initial weights).
//!
//! The request table is also the why-not modules' rank oracle. Every
//! keyword set a request meets — `q.doc`, and every candidate `doc′` of
//! keyword adaptation — is a subset of the universe `U = q.doc ∪ M.doc`,
//! and a set similarity reads only `|doc′ ∩ o.doc|`, `|doc′|` and
//! `|o.doc|`. So a table under `(q.loc, U)` that records each object's
//! spatial part `a_o` and its *signature* `(o.doc ∩ U, |o.doc|)` fixes
//! `b_o = TSim(o, doc′)` for every `doc′ ⊆ U` at once: objects with one
//! signature share one `b`, read off a representative document.
//! [`SegmentSet`] thereby answers `R(M, q′)` and the top-k for any
//! keywords inside `U` and any weights, and hands the preference sweep
//! the segments of any such keyword set, all bit-identical to a corpus
//! scan.
//!
//! The build reads `o.doc ∩ U` off `U`'s posting lists
//! ([`Corpus::posting`]), not off the documents: the lists mark each
//! listed slot's bits, then one id-ascending pass over the live objects
//! computes `a_o` and keys each object by its bits and `|o.doc|` (the
//! length sits in the document's slice pointer). Only a new signature's
//! first member has its document read, to clone it as the group's
//! representative — the keyword-first reading of an inverted index that
//! QDR-Tree argues for (PAPERS.md).

use yask_geo::Point;
use yask_index::{Corpus, ObjectId};
use yask_query::{Query, RankedObject, ScoreParams, Weights};
use yask_text::{KeywordSet, SimilarityModel};
use yask_util::{FxHashMap, TopK};

/// An object's segment in the weight plane: endpoints `(0, b)` and
/// `(1, a)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Score at `ws = 1` (pure spatial): `1 − SDist(o, q)`.
    pub a: f64,
    /// Score at `ws = 0` (pure textual): `TSim(o, q)`.
    pub b: f64,
}

impl Segment {
    /// Creates a segment from score parts.
    #[inline]
    pub fn new(a: f64, b: f64) -> Self {
        Segment { a, b }
    }

    /// The score at spatial weight `ws` — evaluated as `b + ws·(a − b)`
    /// uniformly everywhere in this module, so comparisons between
    /// segments are bit-for-bit reproducible.
    #[inline]
    pub fn eval(&self, ws: f64) -> f64 {
        self.b + ws * (self.a - self.b)
    }

    /// Slope `a − b`.
    #[inline]
    pub fn slope(&self) -> f64 {
        self.a - self.b
    }

    /// True when the two segments are the same line (equal at every `ws`).
    #[inline]
    pub fn same_line(&self, other: &Segment) -> bool {
        self.a == other.a && self.b == other.b
    }

    /// The interior intersection of the two segments: the `ws ∈ (0, 1)`
    /// where they tie, or `None` when parallel, identical, or crossing
    /// outside the open interval.
    pub fn crossing(&self, other: &Segment) -> Option<f64> {
        let ds = self.slope() - other.slope();
        if ds == 0.0 {
            return None;
        }
        let ws = (other.b - self.b) / ds;
        (ws > 0.0 && ws < 1.0).then_some(ws)
    }

    /// True when [`Segment::crossing`] would return `Some` — the paper's
    /// two-range-query condition: the segments cross inside `(0, 1)` iff
    /// one is textually better (`b` higher) while the other is spatially
    /// better (`a` higher). Used by the range-filtered candidate search.
    pub fn crosses(&self, other: &Segment) -> bool {
        (other.b > self.b && other.a < self.a) || (other.b < self.b && other.a > self.a)
    }
}

/// The objects sharing one signature: a representative document and the
/// members' spatial parts and table positions, in id order.
#[derive(Clone, Debug)]
struct Group {
    doc: KeywordSet,
    a: Vec<f64>,
    pos: Vec<u32>,
}

impl Group {
    fn new(doc: KeywordSet) -> Self {
        Group {
            doc,
            a: Vec::new(),
            pos: Vec::new(),
        }
    }
}

/// The request table of one why-not request: every live object's spatial
/// part and signature under one `(q.loc, U)` (see the module docs), in
/// id-ascending order.
///
/// It is everything a why-not request reads of the corpus: the ranks
/// every module asks for ([`SegmentSet::ranks`]), the top-k of the
/// initial query and of each refined query ([`SegmentSet::top_k`]), and
/// the preference sweep's segments — no index tree. Id order makes the
/// table's position tie-break identical to the engine's id tie-break —
/// the property the rank-update theorem's exactness rests on. Group 0
/// holds the objects sharing no keyword with `U`, whose similarity to
/// any `doc′ ⊆ U` is 0. A table lives for one why-not request and is
/// dropped with it (20 B per live object).
#[derive(Clone, Debug)]
pub struct SegmentSet {
    loc: Point,
    universe: KeywordSet,
    model: SimilarityModel,
    ids: Vec<ObjectId>,
    sig: Vec<u32>,
    groups: Vec<Group>,
}

impl SegmentSet {
    /// The table of the live objects of the corpus under location `loc`
    /// and keyword universe `universe`. Bit `j` of a slot's signature is
    /// set by walking the posting list of `U`'s `j`-th keyword (built run
    /// and appended tail), into a slot-indexed scratch array of
    /// `⌈|U|/64⌉` words per slot; dead ids on the lists set bits nobody
    /// reads. One id-ascending pass over the live objects then computes
    /// each spatial part and groups the object by its bits and `|o.doc|`
    /// — an object with no bit set goes to group 0 — so groups appear in
    /// order of their first member's id. No document is read but the one
    /// a new signature clones as its representative.
    pub fn build(corpus: &Corpus, params: &ScoreParams, loc: Point, universe: KeywordSet) -> Self {
        let u = universe.raw();
        // One bit per keyword of U, then |o.doc|: exact for any |U|.
        let words = u.len().div_ceil(64);
        let mut bits = vec![0u64; corpus.slot_count() * words];
        for (j, &kw) in u.iter().enumerate() {
            for id in corpus.posting(kw).iter() {
                bits[id.index() * words + j / 64] |= 1 << (j % 64);
            }
        }
        let mut key = vec![0u64; words + 1];
        let mut index: FxHashMap<Box<[u64]>, u32> = FxHashMap::default();
        let mut groups = vec![Group::new(KeywordSet::empty())];
        let mut ids = Vec::with_capacity(corpus.len());
        let mut sig = Vec::with_capacity(corpus.len());
        // Corpus iteration is id-ascending already; skip the sort.
        for (p, o) in corpus.iter().enumerate() {
            let slot = &bits[o.id.index() * words..][..words];
            let g = if slot.iter().any(|&w| w != 0) {
                key[..words].copy_from_slice(slot);
                key[words] = o.doc.len() as u64;
                match index.get(&key[..]) {
                    Some(&g) => g,
                    None => {
                        let g = groups.len() as u32;
                        index.insert(key.clone().into(), g);
                        groups.push(Group::new(o.doc.clone()));
                        g
                    }
                }
            } else {
                0
            };
            let group = &mut groups[g as usize];
            group.a.push(1.0 - params.space.sdist(&loc, &o.loc));
            group.pos.push(p as u32);
            ids.push(o.id);
            sig.push(g);
        }
        SegmentSet {
            loc,
            universe,
            model: params.model,
            ids,
            sig,
            groups,
        }
    }

    /// True when the table was built under `query`'s location and a
    /// universe holding its keywords — the queries whose ranks
    /// [`SegmentSet::ranks`] and top-k [`SegmentSet::top_k`] answer.
    pub fn serves(&self, query: &Query) -> bool {
        self.loc == query.loc && query.doc.is_subset_of(&self.universe)
    }

    /// Number of live objects sharing a keyword with `U` — the objects
    /// whose textual part depends on the candidate keywords (the count of
    /// an executor trace's `request_table` span).
    pub fn touching(&self) -> usize {
        self.ids.len() - self.groups[0].pos.len()
    }

    /// Each group's textual part `TSim(o, doc)`, read off its
    /// representative — exact for any `doc ⊆ U`.
    fn sims(&self, doc: &KeywordSet) -> Vec<f64> {
        assert!(
            doc.is_subset_of(&self.universe),
            "keywords outside the table's universe"
        );
        self.groups
            .iter()
            .map(|g| self.model.similarity(doc, &g.doc))
            .collect()
    }

    /// The number of objects ranking before the object at position `p`,
    /// whose score is `s`, under the textual parts `sims` and weights `w`.
    /// A score tie goes to the smaller position, which is the smaller id
    /// ([`ScoreParams::ranks_before`]).
    fn count_before(&self, sims: &[f64], w: Weights, s: f64, p: usize) -> usize {
        let ws = w.ws();
        let p = p as u32;
        self.groups
            .iter()
            .zip(sims)
            .map(|(g, &b)| {
                let tb = w.wt() * b;
                g.a.iter()
                    .zip(&g.pos)
                    .map(|(&a, &q)| {
                        let x = ws * a + tb;
                        usize::from((x > s) | ((x == s) & (q < p)))
                    })
                    .sum::<usize>()
            })
            .sum()
    }

    /// Exact ranks of `targets` (each in the table) under `query`'s
    /// location, keywords and weights, aligned with `targets` —
    /// bit-identical to a corpus scan of `query` when the table
    /// [`serves`](SegmentSet::serves) it.
    pub fn ranks(&self, query: &Query, targets: &[ObjectId]) -> Vec<usize> {
        assert!(self.serves(query), "rank table built for another query");
        targets
            .iter()
            .map(|&t| self.outranking(&query.doc, query.weights, t) + 1)
            .collect()
    }

    /// The top-`query.k` objects under `query`'s keywords and weights,
    /// best first: one [`TopK`] pass over the groups, scoring each object
    /// with `ScoreParams::score`'s expression `ws·a + wt·b` over its
    /// stored parts — bit-identical to `topk_scan` of `query` when the
    /// table [`serves`](SegmentSet::serves) it.
    pub fn top_k(&self, query: &Query) -> Vec<RankedObject> {
        assert!(self.serves(query), "top-k table built for another query");
        let (ws, wt) = (query.weights.ws(), query.weights.wt());
        let mut heap = TopK::new(query.k);
        for (g, b) in self.groups.iter().zip(self.sims(&query.doc)) {
            let tb = wt * b;
            for (&a, &p) in g.a.iter().zip(&g.pos) {
                heap.push(ws * a + tb, self.ids[p as usize]);
            }
        }
        heap.into_sorted_vec()
            .into_iter()
            .map(|s| RankedObject {
                id: s.item,
                score: s.score.get(),
            })
            .collect()
    }

    /// The number of objects outranking `m` under the table's location,
    /// keywords `doc ⊆ U` and weights `w`. `m`'s score is
    /// `ScoreParams::score`'s expression `ws·a + wt·b` over its stored
    /// parts.
    pub(crate) fn outranking(&self, doc: &KeywordSet, w: Weights, m: ObjectId) -> usize {
        let p = self.index_of(m).expect("rank target is a live object");
        let sims = self.sims(doc);
        let g = self.sig[p] as usize;
        let group = &self.groups[g];
        let k = group
            .pos
            .binary_search(&(p as u32))
            .expect("member of its group");
        let s = w.ws() * group.a[k] + w.wt() * sims[g];
        self.count_before(&sims, w, s, p)
    }

    /// The segments of every object under keywords `doc ⊆ U`, in
    /// id-ascending order: `(a_o, TSim(o, doc))`, equal to
    /// `ScoreParams::parts` of `query.with_doc(doc)`.
    pub fn segments(&self, doc: &KeywordSet) -> Vec<Segment> {
        let mut out = vec![Segment::new(0.0, 0.0); self.ids.len()];
        for (g, b) in self.groups.iter().zip(self.sims(doc)) {
            for (&a, &p) in g.a.iter().zip(&g.pos) {
                out[p as usize] = Segment::new(a, b);
            }
        }
        out
    }

    /// The table position of an object id.
    pub fn index_of(&self, id: ObjectId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_endpoints() {
        let s = Segment::new(0.8, 0.2);
        assert_eq!(s.eval(0.0), 0.2);
        assert_eq!(s.eval(1.0), 0.8);
        assert!((s.eval(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn crossing_basic() {
        // s: 0.2 → 0.8; t: 0.8 → 0.2 — they cross at ws = 0.5.
        let s = Segment::new(0.8, 0.2);
        let t = Segment::new(0.2, 0.8);
        let ws = s.crossing(&t).unwrap();
        assert!((ws - 0.5).abs() < 1e-12);
        assert!((s.eval(ws) - t.eval(ws)).abs() < 1e-12);
        assert!(s.crosses(&t));
        assert!(t.crosses(&s));
    }

    #[test]
    fn parallel_and_identical_lines_do_not_cross() {
        let s = Segment::new(0.6, 0.2);
        let t = Segment::new(0.7, 0.3); // same slope
        assert_eq!(s.crossing(&t), None);
        assert!(!s.crosses(&t));
        assert_eq!(s.crossing(&s), None);
        assert!(s.same_line(&s));
        assert!(!s.same_line(&t));
    }

    #[test]
    fn crossing_outside_unit_interval_rejected() {
        // Lines crossing at ws = 2 (outside).
        let s = Segment::new(0.5, 0.3); // slope 0.2
        let t = Segment::new(0.45, 0.35); // slope 0.1; cross: 0.05/0.1...
        let ws_raw = (t.b - s.b) / (s.slope() - t.slope());
        assert!(!(0.0..=1.0).contains(&ws_raw) || s.crossing(&t).is_some());
        // Dominated segment (better on both axes) never crosses.
        let dom = Segment::new(0.9, 0.8);
        assert_eq!(
            s.crossing(&dom).is_some(),
            s.crosses(&dom),
            "crossing and crosses() must agree"
        );
        assert!(!s.crosses(&dom));
    }

    use yask_geo::Space;
    use yask_index::CorpusBuilder;
    use yask_query::{ranks_of_scan, topk_scan};
    use yask_util::Xoshiro256;

    /// A corpus built for ties: locations on a coarse grid (duplicate
    /// locations, and spatial parts that round to one score under many
    /// weights), documents from a small vocabulary (duplicate documents,
    /// duplicate signatures), plus a few tombstones.
    fn tie_corpus(rng: &mut Xoshiro256, n: usize, vocab: usize) -> Corpus {
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        for i in 0..n {
            let loc = Point::new(rng.below(5) as f64 / 4.0, rng.below(5) as f64 / 4.0);
            let doc: Vec<u32> = (0..rng.below(4)).map(|_| rng.below(vocab) as u32).collect();
            b.push(loc, KeywordSet::from_raw(doc), format!("o{i}"));
        }
        let dead: Vec<ObjectId> = (0..3).map(|_| ObjectId(rng.below(n) as u32)).collect();
        b.build().with_updates(std::iter::empty(), &dead).0
    }

    /// Every `doc′` over the first eight keywords of `U` (all of `U` when
    /// it is that small) under every model and the
    /// given weights: the table's ranks and top-k (k ∈ {1, 3, n, n + 3})
    /// equal the scan's, ids and score bits, and its segments equal
    /// `ScoreParams::parts` of `q.with_doc(doc′)`.
    fn assert_table_equals_scan(corpus: &Corpus, q: &Query, universe: &KeywordSet, ws: &[f64]) {
        let u = &universe.raw()[..universe.len().min(8)];
        let targets: Vec<ObjectId> = corpus.live_ids().into_iter().step_by(7).collect();
        for model in SimilarityModel::ALL {
            let params = ScoreParams::new(corpus.space()).with_model(model);
            let table = SegmentSet::build(corpus, &params, q.loc, universe.clone());
            for mask in 0..1u32 << u.len() {
                let doc = KeywordSet::from_raw(
                    (0..u.len()).filter(|i| mask & (1 << i) != 0).map(|i| u[i]),
                );
                let probe = q.with_doc(doc.clone());
                assert!(table.serves(&probe));
                let want: Vec<Segment> = corpus
                    .iter()
                    .map(|o| {
                        let (a, b) = params.parts(o, &probe);
                        Segment::new(a, b)
                    })
                    .collect();
                assert_eq!(table.segments(&doc), want, "{model:?} {doc:?}");
                for &w in ws {
                    let probe = probe.reweighted(Weights::from_ws(w));
                    assert_eq!(
                        table.ranks(&probe, &targets),
                        ranks_of_scan(corpus, &params, &probe, &targets),
                        "{model:?} {doc:?} ws = {w}"
                    );
                    let n = corpus.len();
                    for k in [1, 3, n, n + 3] {
                        let probe = probe.with_k(k);
                        let bits = |r: Vec<RankedObject>| -> Vec<(ObjectId, u64)> {
                            r.iter().map(|r| (r.id, r.score.to_bits())).collect()
                        };
                        assert_eq!(
                            bits(table.top_k(&probe)),
                            bits(topk_scan(corpus, &params, &probe)),
                            "{model:?} {doc:?} ws = {w} k = {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn table_ranks_equal_the_scan_under_any_weights() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        for _ in 0..6 {
            let corpus = tie_corpus(&mut rng, 90, 6);
            let q = Query::new(
                Point::new(rng.below(5) as f64 / 4.0, rng.next_f64()),
                KeywordSet::from_raw([rng.below(6) as u32]),
                3,
            );
            let live = corpus.live_ids();
            let missing = corpus.get(live[rng.below(live.len())]);
            let universe = q
                .doc
                .union(&missing.doc)
                .union(&KeywordSet::from_raw([7u32]));
            let mut ws = vec![0.0, 1.0, 0.5, 1.0 / 3.0];
            ws.extend((0..3).map(|_| rng.next_f64()));
            assert_table_equals_scan(&corpus, &q, &universe, &ws);
        }
    }

    #[test]
    fn table_is_exact_past_sixty_four_universe_keywords() {
        let mut rng = Xoshiro256::seed_from_u64(10);
        // Documents reach keyword ids past 64 positions of U, so the
        // signature spans two key words.
        let corpus = tie_corpus(&mut rng, 120, 90);
        let universe = KeywordSet::from_raw(0..80u32);
        let q = Query::new(Point::new(0.5, 0.25), KeywordSet::from_raw([3u32, 70]), 3);
        let table = SegmentSet::build(
            &corpus,
            &ScoreParams::new(corpus.space()),
            q.loc,
            universe.clone(),
        );
        assert!(table.touching() > 0);
        assert!(!table.serves(&q.with_doc(KeywordSet::from_raw([85u32]))));
        assert_table_equals_scan(&corpus, &q, &universe, &[0.0, 0.3, 1.0]);
        // Docs over the upper keyword word alone.
        let high = KeywordSet::from_raw(64..80u32);
        let params = ScoreParams::new(corpus.space());
        for doc in [KeywordSet::from_raw([3u32, 66, 79]), high] {
            let probe = q.with_doc(doc);
            let targets = corpus.live_ids();
            assert_eq!(
                table.ranks(&probe, &targets),
                ranks_of_scan(&corpus, &params, &probe, &targets)
            );
        }
    }

    #[test]
    fn positions_skip_tombstones() {
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        for i in 0..10 {
            b.push(
                Point::new(0.5, 0.5),
                KeywordSet::from_raw([i % 2]),
                format!("o{i}"),
            );
        }
        let (corpus, _) = b.build().with_updates(std::iter::empty(), &[ObjectId(3)]);
        let params = ScoreParams::new(corpus.space());
        let table = SegmentSet::build(
            &corpus,
            &params,
            Point::new(0.0, 0.0),
            KeywordSet::from_raw([1u32]),
        );
        assert_eq!(table.index_of(ObjectId(4)), Some(3));
        assert_eq!(table.index_of(ObjectId(3)), None);
        assert_eq!(table.touching(), 4, "the odd ids but the tombstone");
        assert_eq!(table.segments(&KeywordSet::from_raw([1u32])).len(), 9);
    }

    #[test]
    fn table_reads_list_tails_and_skips_dead_listed_slots() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let built = tie_corpus(&mut rng, 80, 6);
        // Objects inserted after the build sit on the lists' tails.
        let inserts: Vec<(Point, KeywordSet, String)> = (0..40)
            .map(|i| {
                let loc = Point::new(rng.below(5) as f64 / 4.0, rng.below(5) as f64 / 4.0);
                let doc: Vec<u32> = (0..1 + rng.below(3)).map(|_| rng.below(6) as u32).collect();
                (loc, KeywordSet::from_raw(doc), format!("t{i}"))
            })
            .collect();
        let (grown, _) = built.with_updates(inserts, &[]);
        // Keyword 9 is beyond every list; `u32::MAX − 1` is an id a read
        // gives a word the vocabulary does not know.
        let unknown = u32::MAX - 1;
        let universe = KeywordSet::from_raw([1u32, 2, 4, 9, unknown]);
        // Tombstone the first and last live holders of each of U's
        // keywords: one on the built run of its list, one on the tail.
        // (Found by a scan, so the setup does not lean on the lists.)
        let holders = |c: &Corpus, kw: u32| -> Vec<ObjectId> {
            c.iter().filter(|o| o.doc.raw().contains(&kw)).map(|o| o.id).collect()
        };
        let tail_start = built.slot_count() as u32;
        let mut dead = Vec::new();
        for kw in [1u32, 2, 4] {
            let live = holders(&grown, kw);
            assert!(live[0].0 < tail_start && live[live.len() - 1].0 >= tail_start);
            dead.extend([live[0], live[live.len() - 1]]);
        }
        dead.sort();
        dead.dedup();
        let (corpus, _) = grown.with_updates(std::iter::empty(), &dead);
        for kw in [1u32, 2, 4] {
            assert!(holders(&corpus, kw).iter().any(|id| id.0 >= tail_start), "{kw} lives on a tail");
        }
        let q = Query::new(Point::new(0.25, 0.75), KeywordSet::from_raw([2u32, unknown]), 3);
        assert_table_equals_scan(&corpus, &q, &universe, &[0.0, 0.4, 1.0]);
        let table = SegmentSet::build(
            &corpus,
            &ScoreParams::new(corpus.space()),
            q.loc,
            universe.clone(),
        );
        let touching = corpus
            .iter()
            .filter(|o| o.doc.intersection_size(&universe) > 0)
            .count();
        assert_eq!(table.touching(), touching);
    }

    #[test]
    fn crosses_agrees_with_crossing_on_grid() {
        // Exhaustive agreement check on a coarse grid of segment pairs.
        let vals = [0.0, 0.25, 0.5, 0.75, 1.0];
        for &a1 in &vals {
            for &b1 in &vals {
                for &a2 in &vals {
                    for &b2 in &vals {
                        let s = Segment::new(a1, b1);
                        let t = Segment::new(a2, b2);
                        assert_eq!(
                            s.crossing(&t).is_some(),
                            s.crosses(&t),
                            "({a1},{b1}) vs ({a2},{b2})"
                        );
                    }
                }
            }
        }
    }
}
