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
//! The same `(a_o, b_o)` table is also the why-not modules' rank oracle:
//! `ST(o, q′) = ws′·a_o + wt′·b_o` for *any* weights `~w′` as long as
//! `q′` keeps the location and keywords the table was built under, so
//! `SegmentSet::ranks` answers every `R(M, q′)` a request asks for
//! without re-scoring the corpus.

use yask_geo::Point;
use yask_index::{Corpus, ObjectId};
use yask_query::{Query, ScoreParams, Weights};
use yask_text::KeywordSet;

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

/// The weight-plane table of one request: every live object's segment
/// under one `(q.loc, q.doc)`, in id-ascending order.
///
/// Id order makes the sweep's index tie-break identical to the engine's
/// id tie-break — the property the rank-update theorem's exactness rests
/// on. A table lives for one why-not request and is dropped with it (it
/// costs 20 B per live object).
#[derive(Clone, Debug)]
pub struct SegmentSet {
    loc: Point,
    doc: KeywordSet,
    ids: Vec<ObjectId>,
    segments: Vec<Segment>,
}

impl SegmentSet {
    /// Transforms every live object of the corpus under `query`'s
    /// location and keywords: one scoring pass, id-ascending.
    pub fn build_live(corpus: &Corpus, params: &ScoreParams, query: &Query) -> Self {
        // Corpus iteration is id-ascending already; skip the sort.
        let mut ids = Vec::with_capacity(corpus.len());
        let mut segments = Vec::with_capacity(corpus.len());
        for o in corpus.iter() {
            let (a, b) = params.parts(o, query);
            ids.push(o.id);
            segments.push(Segment::new(a, b));
        }
        SegmentSet {
            loc: query.loc,
            doc: query.doc.clone(),
            ids,
            segments,
        }
    }

    /// True when the table was built under `query`'s location and
    /// keywords — the queries whose ranks [`SegmentSet::ranks`] answers.
    pub(crate) fn serves(&self, query: &Query) -> bool {
        self.loc == query.loc && self.doc == query.doc
    }

    /// Exact ranks of `targets` (each in the table) under the table's
    /// location and keywords and the weights `w`, aligned with `targets`.
    ///
    /// Each score is `ScoreParams::score`'s expression `ws·a + wt·b` over
    /// the stored parts and ties go through [`ScoreParams::ranks_before`],
    /// so the ranks are bit-identical to a corpus scan of any query the
    /// table [`serves`](SegmentSet::serves).
    pub(crate) fn ranks(&self, w: Weights, targets: &[ObjectId]) -> Vec<usize> {
        let (ws, wt) = (w.ws(), w.wt());
        let score = |s: &Segment| ws * s.a + wt * s.b;
        let scored: Vec<(f64, ObjectId)> = targets
            .iter()
            .map(|&t| {
                let i = self.index_of(t).expect("rank target is a live object");
                (score(&self.segments[i]), t)
            })
            .collect();
        let mut better = vec![0usize; targets.len()];
        for (&id, seg) in self.ids.iter().zip(&self.segments) {
            let s = score(seg);
            for (n, &(ts, t)) in better.iter_mut().zip(&scored) {
                if id != t && ScoreParams::ranks_before(s, id, ts, t) {
                    *n += 1;
                }
            }
        }
        better.into_iter().map(|n| n + 1).collect()
    }

    /// The segments, in id-ascending order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The segment index of an object id.
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

    #[test]
    fn table_ranks_equal_the_scan_under_any_weights() {
        use yask_geo::Space;
        use yask_index::CorpusBuilder;
        use yask_query::ranks_of_scan;
        use yask_util::Xoshiro256;

        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        for i in 0..120 {
            // Keywords from a vocabulary of 4 and a coarse location grid,
            // so exact score ties (and the id tie-break) are common.
            b.push(
                Point::new(rng.below(5) as f64 / 4.0, rng.below(5) as f64 / 4.0),
                KeywordSet::from_raw([rng.below(4) as u32]),
                format!("o{i}"),
            );
        }
        let (corpus, _) = b
            .build()
            .with_updates(std::iter::empty(), &[ObjectId(7), ObjectId(60)]);
        let params = ScoreParams::new(corpus.space());
        let q = Query::new(Point::new(0.25, 0.75), KeywordSet::from_raw([1u32, 3]), 3);

        let table = SegmentSet::build_live(&corpus, &params, &q);
        assert!(table.serves(&q));
        assert!(!table.serves(&q.with_doc(KeywordSet::from_raw([1u32]))));
        assert_eq!(
            table.index_of(ObjectId(8)),
            Some(7),
            "positions skip tombstones"
        );
        assert_eq!(table.index_of(ObjectId(7)), None);
        assert_eq!(table.segments().len(), 118);
        let targets = [ObjectId(0), ObjectId(5), ObjectId(61), ObjectId(119)];
        for ws in [0.0, 0.1, 0.25, 0.5, 1.0 / 3.0, 0.8, 1.0] {
            let probe = q.reweighted(Weights::from_ws(ws));
            assert_eq!(
                table.ranks(probe.weights, &targets),
                ranks_of_scan(&corpus, &params, &probe, &targets),
                "ws = {ws}"
            );
        }
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
