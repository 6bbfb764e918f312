//! Property tests for the dynamic KcR-tree mutators (ISSUE 3 satellite):
//! an arbitrary interleaving of `insert` / `delete` followed by a top-k
//! query must equal a fresh `str_bulk_load` of the surviving objects.
//!
//! These low-level mutators were previously exercised only at the unit
//! level; the ingest layer now leans on them for every write batch, so
//! the equivalence is checked property-style here: same corpus, one tree
//! maintained incrementally, one bulk-loaded from the survivor set, and
//! both must validate and answer identically (ids, order, scores).

use proptest::prelude::*;

use yask::index::{Corpus, CorpusBuilder, ObjectId, RTree, RTreeParams};
use yask::query::{topk_tree, Query, ScoreParams, Weights};
use yask_geo::{Point, Space};
use yask_text::KeywordSet;

#[derive(Debug, Clone)]
struct Workload {
    corpus: Corpus,
    /// Op stream over object slots: `(slot, is_insert)`. Ops that do not
    /// apply (inserting an indexed slot, deleting an unindexed one) are
    /// skipped, so every stream is valid.
    ops: Vec<(usize, bool)>,
    query: Query,
}

fn workload() -> impl Strategy<Value = Workload> {
    (
        proptest::collection::vec(
            (
                0.0f64..1.0,
                0.0f64..1.0,
                proptest::collection::vec(0u32..12, 1..=4),
            ),
            8..=60,
        ),
        proptest::collection::vec((0usize..60, any::<bool>()), 20..=120),
        (
            0.0f64..1.0,
            0.0f64..1.0,
            proptest::collection::vec(0u32..12, 1..=3),
            1usize..=8,
            0.1f64..0.9,
        ),
    )
        .prop_map(|(objs, ops, (qx, qy, qkw, k, ws))| {
            let mut b = CorpusBuilder::new().with_space(Space::unit());
            for (i, (x, y, kws)) in objs.into_iter().enumerate() {
                b.push(Point::new(x, y), KeywordSet::from_raw(kws), format!("o{i}"));
            }
            Workload {
                corpus: b.build(),
                ops,
                query: Query::with_weights(
                    Point::new(qx, qy),
                    KeywordSet::from_raw(qkw),
                    k,
                    Weights::from_ws(ws),
                ),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Interleaved insert/delete + top-k == fresh STR bulk load of the
    /// survivors.
    #[test]
    fn interleaved_mutations_equal_fresh_bulk_load(w in workload()) {
        let params = RTreeParams::new(6, 2); // small fanout: deep trees, many splits/condenses
        let n = w.corpus.len();
        let mut tree = RTree::new(w.corpus.clone(), params);
        let mut indexed = vec![false; n];
        for &(slot, is_insert) in &w.ops {
            let slot = slot % n;
            if is_insert && !indexed[slot] {
                tree.insert(ObjectId(slot as u32));
                indexed[slot] = true;
            } else if !is_insert && indexed[slot] {
                prop_assert!(tree.delete(ObjectId(slot as u32)));
                indexed[slot] = false;
            }
        }
        tree.validate().expect("incremental tree invariants");

        let survivors: Vec<ObjectId> = (0..n)
            .filter(|&i| indexed[i])
            .map(|i| ObjectId(i as u32))
            .collect();
        let fresh = RTree::bulk_load_subset(w.corpus.clone(), &survivors, params);
        fresh.validate().expect("bulk tree invariants");
        prop_assert_eq!(tree.len(), fresh.len());

        let mut a = tree.object_ids();
        let mut b = fresh.object_ids();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b, "indexed sets diverge");

        let score = ScoreParams::new(w.corpus.space());
        let got = topk_tree(&tree, &score, &w.query);
        let want = topk_tree(&fresh, &score, &w.query);
        prop_assert_eq!(got.len(), want.len());
        for (g, v) in got.iter().zip(&want) {
            prop_assert_eq!(g.id, v.id, "top-k ids diverge");
            prop_assert!((g.score - v.score).abs() < 1e-12, "score drift");
        }
    }

    /// Delete-everything round trip: inserting all then deleting all in a
    /// scrambled order leaves an empty, valid tree.
    #[test]
    fn full_round_trip_empties_the_tree(w in workload()) {
        let params = RTreeParams::new(4, 2);
        let n = w.corpus.len();
        let mut tree = RTree::new(w.corpus.clone(), params);
        for i in 0..n {
            tree.insert(ObjectId(i as u32));
        }
        // Deletion order scrambled by the op stream.
        let mut order: Vec<usize> = (0..n).collect();
        for (pos, &(r, _)) in w.ops.iter().enumerate() {
            order.swap(pos % n, r % n);
        }
        for &i in &order {
            prop_assert!(tree.delete(ObjectId(i as u32)));
        }
        prop_assert!(tree.is_empty());
        prop_assert_eq!(tree.height(), 0);
        tree.validate().expect("empty tree invariants");
    }
}
