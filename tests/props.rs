//! Property-based tests (proptest) over the workspace's core invariants.
//!
//! Strategy-generated corpora, queries and keyword sets drive the
//! soundness properties that the hand-written tests can only spot-check:
//! index/scan agreement, bound soundness, penalty ranges, refinement
//! optimality vs the naive oracles, and serialization round trips.

use proptest::prelude::*;

use yask::index::{KcAug, RTree, RTreeParams, TextStats};
use yask::prelude::*;
use yask::query::{rank_of_scan, topk_scan, topk_tree};
use yask::server::Json;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn keyword_set(max_id: u32, max_len: usize) -> impl Strategy<Value = KeywordSet> {
    proptest::collection::vec(0..max_id, 0..=max_len)
        .prop_map(KeywordSet::from_raw)
}

#[derive(Debug, Clone)]
struct ArbCorpus {
    corpus: Corpus,
}

fn corpus(min: usize, max: usize) -> impl Strategy<Value = ArbCorpus> {
    proptest::collection::vec(
        (
            0.0f64..1.0,
            0.0f64..1.0,
            proptest::collection::vec(0u32..20, 1..=6),
        ),
        min..=max,
    )
    .prop_map(|objs| {
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        for (i, (x, y, kws)) in objs.into_iter().enumerate() {
            b.push(Point::new(x, y), KeywordSet::from_raw(kws), format!("o{i}"));
        }
        ArbCorpus { corpus: b.build() }
    })
}

fn query() -> impl Strategy<Value = Query> {
    (
        0.0f64..1.0,
        0.0f64..1.0,
        proptest::collection::vec(0u32..20, 1..=4),
        1usize..=8,
        0.05f64..0.95,
    )
        .prop_map(|(x, y, kws, k, ws)| {
            Query::with_weights(
                Point::new(x, y),
                KeywordSet::from_raw(kws),
                k,
                Weights::from_ws(ws),
            )
        })
}

// ---------------------------------------------------------------------------
// KeywordSet algebra
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn keyword_set_algebra_laws(a in keyword_set(40, 10), b in keyword_set(40, 10)) {
        // |A∪B| + |A∩B| = |A| + |B|.
        prop_assert_eq!(
            a.union_size(&b) + a.intersection_size(&b),
            a.len() + b.len()
        );
        // Materialized ops agree with size ops.
        prop_assert_eq!(a.union(&b).len(), a.union_size(&b));
        prop_assert_eq!(a.intersection(&b).len(), a.intersection_size(&b));
        // Difference partitions the union.
        prop_assert_eq!(
            a.difference(&b).len() + b.difference(&a).len() + a.intersection_size(&b),
            a.union_size(&b)
        );
        // Edit distance is a metric on sets (symmetry + identity).
        prop_assert_eq!(a.edit_distance(&b), b.edit_distance(&a));
        prop_assert_eq!(a.edit_distance(&a), 0);
        // Jaccard symmetric, in [0,1].
        let j = a.jaccard(&b);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert_eq!(j, b.jaccard(&a));
    }

    #[test]
    fn edit_distance_triangle_inequality(
        a in keyword_set(15, 8),
        b in keyword_set(15, 8),
        c in keyword_set(15, 8)
    ) {
        prop_assert!(a.edit_distance(&c) <= a.edit_distance(&b) + b.edit_distance(&c));
    }
}

// ---------------------------------------------------------------------------
// Index correctness
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn topk_matches_scan_on_arbitrary_corpora(c in corpus(1, 120), q in query()) {
        let params = ScoreParams::new(c.corpus.space());
        let tree = RTree::bulk_load(c.corpus.clone(), RTreeParams::new(4, 2));
        tree.validate().unwrap();
        let got: Vec<ObjectId> =
            topk_tree(&tree, &params, &q).iter().map(|r| r.id).collect();
        let want: Vec<ObjectId> =
            topk_scan(&c.corpus, &params, &q).iter().map(|r| r.id).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn node_bounds_are_sound_for_random_nodes(
        docs in proptest::collection::vec(
            proptest::collection::vec(0u32..15, 1..=6), 1..=10
        ),
        q in keyword_set(15, 4)
    ) {
        let mut b = CorpusBuilder::new();
        for (i, kws) in docs.iter().enumerate() {
            b.push(Point::new(i as f64, 0.0), KeywordSet::from_raw(kws.clone()), format!("o{i}"));
        }
        let corpus = b.build();
        let objs: Vec<&yask::index::SpatioTextualObject> = corpus.iter().collect();
        // The oracle: the node's intersection and union keyword sets,
        // computed straight from the objects.
        let (mut int, mut uni) = (objs[0].doc.clone(), objs[0].doc.clone());
        for o in &objs[1..] {
            int = int.intersection(&o.doc);
            uni = uni.union(&o.doc);
        }
        let set = TextStats {
            q_len: q.len(),
            max_inter: uni.intersection_size(&q),
            min_inter: int.intersection_size(&q),
            int_len: int.len(),
            uni_len: uni.len(),
        };
        let kc = KcAug::for_leaf(&objs);
        prop_assert_eq!(kc.text_stats(&q), set);
        let ir = kc.text_stats(&q).without_intersection();
        for model in SimilarityModel::ALL {
            for (aug_name, lb, ub) in [
                ("set", set.lower(model), set.upper(model)),
                ("kc", kc.sim_lower(&q, model), kc.sim_upper(&q, model)),
                ("ir", ir.lower(model), ir.upper(model)),
            ] {
                prop_assert!(lb <= ub + 1e-12, "{} {:?}", aug_name, model);
                for o in &objs {
                    let s = model.similarity(&q, &o.doc);
                    prop_assert!(s <= ub + 1e-12, "{} {:?}: {} > {}", aug_name, model, s, ub);
                    prop_assert!(s + 1e-12 >= lb, "{} {:?}: {} < {}", aug_name, model, s, lb);
                }
            }
        }
    }

    #[test]
    fn insertion_and_bulk_load_index_the_same_set(c in corpus(1, 80)) {
        let bulk = RTree::bulk_load(c.corpus.clone(), RTreeParams::new(4, 2));
        let dynamic = RTree::build_by_insertion(c.corpus.clone(), RTreeParams::new(4, 2));
        bulk.validate().unwrap();
        dynamic.validate().unwrap();
        let mut a = bulk.object_ids();
        let mut b = dynamic.object_ids();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------------
// Why-not refinement optimality and validity
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn preference_refinement_is_valid_and_optimal_vs_naive(
        c in corpus(20, 80),
        q in query(),
        lambda in 0.0f64..=1.0,
        offset in 0usize..5
    ) {
        let corpus = &c.corpus;
        let params = ScoreParams::new(corpus.space());
        prop_assume!(corpus.len() > q.k + offset + 1);
        let missing = yask::data::pick_missing(corpus, &params, &q, 1, offset);

        let fast = yask::core::refine_preference(corpus, &params, &q, &missing, lambda);
        let slow = yask::core::refine_preference_naive(corpus, &params, &q, &missing, lambda);
        match (fast, slow) {
            (Ok(f), Ok(s)) => {
                prop_assert!((f.penalty - s.penalty).abs() < 1e-9,
                    "sweep {} vs naive {}", f.penalty, s.penalty);
                // Validity: the refined query revives the missing object.
                let res = topk_scan(corpus, &params, &f.query);
                prop_assert!(res.iter().any(|r| r.id == missing[0]));
                prop_assert!((0.0..=1.0 + 1e-9).contains(&f.penalty));
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "disagree: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }

    #[test]
    fn keyword_refinement_is_valid_and_optimal_vs_naive(
        c in corpus(20, 60),
        q in query(),
        lambda in 0.05f64..=0.95,
        offset in 0usize..4
    ) {
        let corpus = &c.corpus;
        let params = ScoreParams::new(corpus.space());
        prop_assume!(corpus.len() > q.k + offset + 1);
        let missing = yask::data::pick_missing(corpus, &params, &q, 1, offset);
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));

        let fast = yask::core::refine_keywords(&tree, &params, &q, &missing, lambda);
        let slow = yask::core::refine_keywords_naive(corpus, &params, &q, &missing, lambda);
        match (fast, slow) {
            (Ok(f), Ok(s)) => {
                prop_assert!((f.penalty - s.penalty).abs() < 1e-9,
                    "prune {} vs naive {}", f.penalty, s.penalty);
                prop_assert_eq!(&f.query.doc, &s.query.doc);
                let res = topk_scan(corpus, &params, &f.query);
                prop_assert!(res.iter().any(|r| r.id == missing[0]));
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "disagree: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }

    #[test]
    fn explanation_ranks_are_exact(c in corpus(5, 60), q in query(), idx in 0usize..60) {
        let corpus = &c.corpus;
        prop_assume!(idx < corpus.len());
        let params = ScoreParams::new(corpus.space());
        let target = ObjectId(idx as u32);
        let ex = yask::core::explain(corpus, &params, &q, &[target]).unwrap();
        prop_assert_eq!(ex[0].rank, rank_of_scan(corpus, &params, &q, target));
        let in_result = ex[0].rank <= q.k;
        prop_assert_eq!(matches!(ex[0].reason, MissingReason::InResult), in_result);
    }
}

// ---------------------------------------------------------------------------
// JSON round trips
// ---------------------------------------------------------------------------

fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (-1.0e9f64..1.0e9).prop_map(|v| Json::Num((v * 1000.0).round() / 1000.0)),
        "[a-zA-Z0-9 _\\-\"\\\\/\u{00e9}\u{4e16}]{0,20}".prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
            proptest::collection::vec(("[a-z]{1,8}", inner), 0..6).prop_map(|pairs| {
                // Deduplicate keys so parse(print(x)) == x.
                let mut seen = std::collections::HashSet::new();
                Json::Obj(
                    pairs
                        .into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .collect(),
                )
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_print_parse_round_trip(v in arb_json()) {
        let text = v.to_string();
        let parsed = Json::parse(&text).unwrap();
        prop_assert_eq!(parsed, v);
    }
}

// ---------------------------------------------------------------------------
// Penalty function ranges
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn penalties_always_in_unit_interval(
        k0 in 1usize..50,
        gap in 1usize..100,
        lambda in 0.0f64..=1.0,
        ws0 in 0.0f64..=1.0,
        ws1 in 0.0f64..=1.0,
        dd in 0usize..20,
        r_new_frac in 0.0f64..=1.0
    ) {
        let r_m_q = k0 + gap;
        let ctx = yask::core::PenaltyContext::new(k0, r_m_q, lambda);
        // r_new anywhere between 1 and R(M,q).
        let r_new = 1 + ((r_m_q - 1) as f64 * r_new_frac) as usize;
        let w0 = Weights::from_ws(ws0);
        let w1 = Weights::from_ws(ws1);
        let p = yask::core::preference_penalty(&ctx, &w0, &w1, r_new);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&p), "pref {}", p);
        let norm = (dd + 5).max(1);
        let p = yask::core::keyword_penalty(&ctx, dd.min(norm), norm, r_new);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&p), "kw {}", p);
    }
}
