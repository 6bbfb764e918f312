//! Spatio-textual range queries.
//!
//! "All objects inside this map viewport that mention *harbour*" — the
//! workhorse query behind the demo's map panel (grey/green markers in a
//! viewport). Objects inside a rectangle whose keyword sets match the
//! query keywords under a [`MatchMode`], pruned by both the MBRs and the
//! nodes' keyword counts.

use yask_geo::Rect;
use yask_index::{Corpus, NodeKind, ObjectId, RTree};
use yask_text::KeywordSet;

/// How the query keywords must match an object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchMode {
    /// At least one query keyword present (disjunctive). An empty query
    /// set matches nothing under this mode.
    Any,
    /// Every query keyword present (conjunctive). An empty query set
    /// matches everything (vacuous truth).
    All,
}

/// Scan oracle for [`range_keyword_tree`].
pub fn range_keyword_scan(
    corpus: &Corpus,
    rect: &Rect,
    doc: &KeywordSet,
    mode: MatchMode,
) -> Vec<ObjectId> {
    corpus
        .iter()
        .filter(|o| rect.contains_point(&o.loc) && matches(doc, &o.doc, mode))
        .map(|o| o.id)
        .collect()
}

fn matches(query: &KeywordSet, doc: &KeywordSet, mode: MatchMode) -> bool {
    match mode {
        MatchMode::Any => query.intersection_size(doc) > 0,
        MatchMode::All => query.is_subset_of(doc),
    }
}

/// Index-backed spatio-textual range query: descends only subtrees whose
/// MBR intersects `rect` *and* whose keyword summary can still satisfy
/// the match mode.
pub fn range_keyword_tree(
    tree: &RTree,
    rect: &Rect,
    doc: &KeywordSet,
    mode: MatchMode,
) -> Vec<ObjectId> {
    let mut out = Vec::new();
    let Some(root) = tree.root() else {
        return out;
    };
    let _guard = tree.read_guard();
    let mut stack = vec![root];
    while let Some(nid) = stack.pop() {
        let node = tree.node(nid);
        if !node.mbr.intersects(rect) {
            continue;
        }
        let stats = node.aug().text_stats(doc);
        let viable = match mode {
            MatchMode::Any => stats.max_inter > 0,
            MatchMode::All => stats.max_inter == doc.len(),
        };
        if !viable {
            continue;
        }
        match &node.kind {
            NodeKind::Leaf(entries) => {
                for &id in entries {
                    let o = tree.corpus().get(id);
                    if rect.contains_point(&o.loc) && matches(doc, &o.doc, mode) {
                        out.push(id);
                    }
                }
            }
            NodeKind::Internal(children) => stack.extend_from_slice(children),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::{Point, Space};
    use yask_index::{CorpusBuilder, RTreeParams};
    use yask_util::Xoshiro256;

    fn random_corpus(n: usize, vocab: u32, seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            let doc = KeywordSet::from_raw(
                (0..1 + rng.below(5)).map(|_| rng.below(vocab as usize) as u32),
            );
            b.push(Point::new(rng.next_f64(), rng.next_f64()), doc, format!("o{i}"));
        }
        b.build()
    }

    #[test]
    fn tree_matches_scan_both_modes() {
        let corpus = random_corpus(400, 10, 71);
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let mut rng = Xoshiro256::seed_from_u64(72);
        for _ in 0..20 {
            let x0 = rng.next_f64() * 0.7;
            let y0 = rng.next_f64() * 0.7;
            let rect = Rect::from_coords(x0, y0, x0 + 0.3, y0 + 0.3);
            let doc = KeywordSet::from_raw((0..1 + rng.below(3)).map(|_| rng.below(10) as u32));
            for mode in [MatchMode::Any, MatchMode::All] {
                let mut want = range_keyword_scan(&corpus, &rect, &doc, mode);
                want.sort();
                let mut got = range_keyword_tree(&tree, &rect, &doc, mode);
                got.sort();
                assert_eq!(got, want, "{mode:?} rect {rect:?}");
            }
        }
    }

    #[test]
    fn any_mode_with_empty_doc_matches_nothing() {
        let corpus = random_corpus(50, 5, 73);
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
        let all = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert!(range_keyword_tree(&tree, &all, &KeywordSet::empty(), MatchMode::Any).is_empty());
    }

    #[test]
    fn all_mode_with_empty_doc_is_pure_spatial_range() {
        let corpus = random_corpus(80, 5, 74);
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
        let rect = Rect::from_coords(0.25, 0.25, 0.75, 0.75);
        let mut got = range_keyword_tree(&tree, &rect, &KeywordSet::empty(), MatchMode::All);
        got.sort();
        let mut want = tree.range(&rect);
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn disjoint_rect_is_empty() {
        let corpus = random_corpus(50, 5, 75);
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
        let rect = Rect::from_coords(5.0, 5.0, 6.0, 6.0);
        assert!(range_keyword_tree(&tree, &rect, &KeywordSet::from_raw([1]), MatchMode::Any)
            .is_empty());
    }
}
