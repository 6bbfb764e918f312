//! The paper's *two range queries* (§3.3) for the preference module's
//! filtered variant, [`refine_preference_filtered`](super::refine_preference_filtered):
//! a transient R-tree over the `(a_o, b_o)` score parts of one request —
//! not the index — that returns, for each missing object, exactly the
//! objects whose segments can cross its segment inside `(0, 1)`.

use yask_geo::{Point, Rect};
use yask_index::{CorpusBuilder, RTree, RTreeParams};
use yask_text::KeywordSet;

use super::segment::Segment;

/// The paper's two-range-query filter: an R-tree over `(a_o, b_o)` points
/// with empty keyword sets (only its spatial range query runs).
/// A segment crosses `m`'s segment inside `(0, 1)` iff its point lies in
/// one of the two open quadrants "textually better & spatially worse" /
/// "textually worse & spatially better" relative to `(a_m, b_m)`.
pub(crate) struct RangeFilter {
    tree: RTree,
}

impl RangeFilter {
    pub(crate) fn build(segments: &[Segment]) -> Self {
        let mut b = CorpusBuilder::with_capacity(segments.len());
        for s in segments {
            b.push(Point::new(s.a, s.b), KeywordSet::empty(), "");
        }
        RangeFilter {
            tree: RTree::bulk_load(b.build(), RTreeParams::default()),
        }
    }

    pub(crate) fn crossing_partners(&self, segments: &[Segment], m_idx: usize) -> Vec<usize> {
        let m = segments[m_idx];
        // Closed query rectangles; boundary hits (equal a or b) produce no
        // interior crossing and are discarded by `Segment::crossing`.
        let q1 = Rect::from_coords(-1.0, m.b, m.a, 2.0); // a ≤ a_m, b ≥ b_m
        let q2 = Rect::from_coords(m.a, -1.0, 2.0, m.b); // a ≥ a_m, b ≤ b_m
        let mut ids: Vec<usize> = self
            .tree
            .range(&q1)
            .into_iter()
            .chain(self.tree.range(&q2))
            .map(|o| o.index())
            .filter(|&i| i != m_idx && m.crosses(&segments[i]))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::Space;
    use yask_query::{Query, ScoreParams};
    use yask_util::Xoshiro256;

    #[test]
    fn range_filter_finds_exactly_the_crossing_partners() {
        let mut rng = Xoshiro256::seed_from_u64(10);
        let mut b = CorpusBuilder::with_capacity(120).with_space(Space::unit());
        for i in 0..120 {
            let doc: Vec<u32> = (0..1 + rng.below(4))
                .map(|_| rng.below(10) as u32)
                .collect();
            b.push(
                Point::new(rng.next_f64(), rng.next_f64()),
                KeywordSet::from_raw(doc),
                format!("o{i}"),
            );
        }
        let corpus = b.build();
        let params = ScoreParams::new(corpus.space());
        let q = Query::new(Point::new(0.4, 0.1), KeywordSet::from_raw([1, 3]), 3);
        let segments: Vec<Segment> = corpus
            .iter()
            .map(|o| {
                let (a, b) = params.parts(o, &q);
                Segment::new(a, b)
            })
            .collect();
        let filter = RangeFilter::build(&segments);
        for m in [5usize, 50, 100] {
            let mut got = filter.crossing_partners(&segments, m);
            got.sort_unstable();
            let want: Vec<usize> = (0..segments.len())
                .filter(|&i| i != m && segments[m].crossing(&segments[i]).is_some())
                .collect();
            assert_eq!(got, want, "m = {m}");
        }
    }
}
