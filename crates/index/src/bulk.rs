//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! The standard packing algorithm: sort entries by x, cut into vertical
//! slices of ~√(n/M) tiles, sort each slice by y, and chunk into nodes of
//! capacity `M`. The procedure repeats level by level (nodes become the
//! next level's entries, positioned at their MBR centers) until a single
//! root remains. Bulk-built trees are near-100% full, which is what the
//! benchmark sweeps want for fair index comparisons.

use yask_geo::Point;

use crate::corpus::{Corpus, ObjectId};
use crate::rtree::{NodeKind, RTree, RTreeParams};

/// Bulk-loads `ids` from `corpus` into a fresh tree.
pub fn str_bulk_load(corpus: Corpus, ids: &[ObjectId], params: RTreeParams) -> RTree {
    let mut tree = RTree::new(corpus, params);
    if ids.is_empty() {
        return tree;
    }

    // Level 0: pack objects into leaves.
    let items: Vec<(Point, ObjectId)> = ids
        .iter()
        .map(|&id| (tree.corpus().get(id).loc, id))
        .collect();
    let groups = str_pack(items, params.max_entries);
    let mut level: Vec<crate::rtree::NodeId> = groups
        .into_iter()
        .map(|entries| {
            let id = tree.alloc(NodeKind::Leaf(entries));
            tree.refresh(id);
            id
        })
        .collect();
    let mut height = 1;

    // Upper levels: pack nodes by MBR center until one remains.
    while level.len() > 1 {
        let items: Vec<(Point, crate::rtree::NodeId)> = level
            .iter()
            .map(|&n| (tree.node(n).mbr.center(), n))
            .collect();
        let groups = str_pack(items, params.max_entries);
        level = groups
            .into_iter()
            .map(|children| {
                let id = tree.alloc(NodeKind::Internal(children));
                tree.refresh(id);
                id
            })
            .collect();
        height += 1;
    }

    tree.set_root(Some(level[0]), height, ids.len());
    // Level-order allocation clusters the count-heavy internal level into
    // the tail chunks — which sit on every root-to-leaf spine, so later
    // batches would re-copy the whole level each time. Repack in DFS
    // order to spread internals among their own (cheap) leaves.
    tree.relayout_dfs();
    // A fresh bulk build is not copy-on-write work; report a clean slate
    // so the first derived epoch's stats measure only its own batch.
    tree.reset_copy_stats();
    tree
}

/// Packs positioned items into groups of at most `cap`, STR-style.
///
/// Guarantees: every group non-empty, sizes ≤ cap, all items covered, and
/// at most one group per slice smaller than cap.
fn str_pack<T>(mut items: Vec<(Point, T)>, cap: usize) -> Vec<Vec<T>> {
    let n = items.len();
    debug_assert!(n > 0 && cap > 0);
    let n_groups = n.div_ceil(cap);
    let n_slices = (n_groups as f64).sqrt().ceil() as usize;
    let slice_len = n.div_ceil(n_slices);

    items.sort_by(|a, b| {
        a.0.x
            .partial_cmp(&b.0.x)
            .expect("finite x")
            .then(a.0.y.partial_cmp(&b.0.y).expect("finite y"))
    });

    let mut out = Vec::with_capacity(n_groups);
    let mut rest = items;
    while !rest.is_empty() {
        let take = slice_len.min(rest.len());
        let mut slice: Vec<(Point, T)> = rest.drain(..take).collect();
        slice.sort_by(|a, b| {
            a.0.y
                .partial_cmp(&b.0.y)
                .expect("finite y")
                .then(a.0.x.partial_cmp(&b.0.x).expect("finite x"))
        });
        let mut slice_rest = slice;
        while !slice_rest.is_empty() {
            let take = cap.min(slice_rest.len());
            out.push(slice_rest.drain(..take).map(|(_, t)| t).collect());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::Rect;

    #[test]
    fn pack_sizes_respect_cap() {
        let items: Vec<(Point, usize)> = (0..97)
            .map(|i| (Point::new((i % 13) as f64, (i / 13) as f64), i))
            .collect();
        let groups = str_pack(items, 10);
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, 97);
        assert!(groups.iter().all(|g| !g.is_empty() && g.len() <= 10));
    }

    #[test]
    fn pack_single_item() {
        let groups = str_pack(vec![(Point::new(0.0, 0.0), 7u32)], 8);
        assert_eq!(groups, vec![vec![7]]);
    }

    #[test]
    fn pack_exact_multiple() {
        // 100 items, cap 10 → 4 slices of 25 → 3 groups per slice
        // (10 + 10 + 5): slice boundaries may leave one short group each.
        let items: Vec<(Point, usize)> = (0..100)
            .map(|i| (Point::new(i as f64, 0.0), i))
            .collect();
        let groups = str_pack(items, 10);
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, 100);
        assert!(groups.len() >= 10 && groups.len() <= 12, "{}", groups.len());
        assert!(groups.iter().all(|g| !g.is_empty() && g.len() <= 10));
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pack_groups_are_spatially_coherent() {
        // A 10×10 grid with cap 10 should produce column-ish groups whose
        // MBRs are thin — a sanity check that tiling actually tiles.
        let items: Vec<(Point, usize)> = (0..100)
            .map(|i| (Point::new((i / 10) as f64, (i % 10) as f64), i))
            .collect();
        let lookup: Vec<Point> = (0..100)
            .map(|i| Point::new((i / 10) as f64, (i % 10) as f64))
            .collect();
        let groups = str_pack(items, 10);
        for g in &groups {
            let mut mbr = Rect::EMPTY;
            for &i in g {
                mbr.expand(&Rect::point(lookup[i]));
            }
            assert!(
                mbr.area() <= 9.0 * 2.0,
                "group mbr too large: {:?}",
                mbr
            );
        }
    }
}
