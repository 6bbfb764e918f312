//! Reproductions of the concrete artifacts in the paper: the Fig 2
//! KcR-tree example, the two motivating examples (§1), and the formal
//! properties of the definitions in §2.

use yask::index::{RTree, RTreeParams};
use yask::prelude::*;

/// Paper Fig 2: five objects in two leaves under one root, with the
/// exact keyword-count maps printed in the figure.
///
/// o1, o2 = {Chinese, restaurant}; o3 = {restaurant};
/// o4, o5 = {Spanish, restaurant}.
/// R1 = {o1,o2,o3}: Chinese 2, restaurant 3, cnt 3.
/// R2 = {o4,o5}:    Spanish 2, restaurant 2, cnt 2.
/// R3 = {R1,R2}:    Chinese 2, Spanish 2, restaurant 5, cnt 5.
#[test]
fn fig2_kcr_tree_example() {
    let mut vocab = Vocabulary::new();
    let chinese = vocab.intern("chinese");
    let restaurant = vocab.intern("restaurant");
    let spanish = vocab.intern("spanish");
    let ks = |ids: &[KeywordId]| KeywordSet::from_ids(ids.iter().copied());

    // Left cluster (o1..o3) and right cluster (o4, o5): STR with fanout 3
    // packs them into exactly the paper's two leaves.
    let mut b = CorpusBuilder::new();
    b.push(Point::new(0.10, 0.10), ks(&[chinese, restaurant]), "o1");
    b.push(Point::new(0.12, 0.30), ks(&[chinese, restaurant]), "o2");
    b.push(Point::new(0.14, 0.50), ks(&[restaurant]), "o3");
    b.push(Point::new(0.80, 0.20), ks(&[spanish, restaurant]), "o4");
    b.push(Point::new(0.82, 0.40), ks(&[spanish, restaurant]), "o5");
    let corpus = b.build();

    // Fanout 4 / min 2: STR slices the five objects by x into the paper's
    // two leaves ({o1,o2,o3} left, {o4,o5} right).
    let tree = RTree::bulk_load(corpus, RTreeParams::new(4, 2));
    tree.validate().unwrap();
    assert_eq!(tree.height(), 2, "one root over two leaves");

    // The tree stores no keyword counts: the KcR-tree's maps come off
    // the side table built from its leaves.
    let table = yask::index::KcAug::side_table(&tree);
    let root_id = tree.root().unwrap();
    let r3 = &table[root_id.index()];
    assert_eq!(r3.cnt(), 5);
    assert_eq!(r3.count(chinese.0), 2);
    assert_eq!(r3.count(spanish.0), 2);
    assert_eq!(r3.count(restaurant.0), 5);

    let root = tree.node(root_id);
    let children = root.children();
    assert_eq!(children.len(), 2);
    let (mut r1, mut r2) = (None, None);
    for &c in children {
        let node = &table[c.index()];
        match node.cnt() {
            3 => r1 = Some(node),
            2 => r2 = Some(node),
            n => panic!("unexpected leaf size {n}"),
        }
    }
    let r1 = r1.expect("R1 leaf");
    let r2 = r2.expect("R2 leaf");
    assert_eq!(r1.count(chinese.0), 2);
    assert_eq!(r1.count(restaurant.0), 3);
    assert_eq!(r1.count(spanish.0), 0);
    assert_eq!(r2.count(spanish.0), 2);
    assert_eq!(r2.count(restaurant.0), 2);
    assert_eq!(r2.count(chinese.0), 0);
}

/// Paper Example 1 (Bob): the missing Starbucks is revived by preference
/// adjustment, and the refined query minimally modifies the original.
#[test]
fn example1_bob_preference_adjustment() {
    let mut vocab = Vocabulary::new();
    let mut kws =
        |words: &[&str]| KeywordSet::from_ids(words.iter().map(|w| vocab.intern(w)));
    let coffee = kws(&["coffee"]);
    let mut b = CorpusBuilder::new().with_space(Space::unit());
    b.push(Point::new(0.02, 0.01), kws(&["coffee", "espresso", "bakery", "wifi"]), "Starbucks");
    b.push(Point::new(0.30, 0.25), kws(&["coffee"]), "Corner Coffee");
    b.push(Point::new(0.35, 0.20), kws(&["coffee"]), "Java Express");
    b.push(Point::new(0.25, 0.35), kws(&["coffee"]), "Bean Scene");
    let corpus = b.build();
    let engine = Yask::with_defaults(corpus);

    // Text-heavy weights: Starbucks' diluted Jaccard loses to the
    // single-keyword cafes despite being closest.
    let q = Query::with_weights(Point::new(0.0, 0.0), coffee, 3, Weights::from_ws(0.1));
    let top = engine.top_k(&q);
    let starbucks = engine.corpus().find_by_name("Starbucks").unwrap().id;
    assert!(
        !top.iter().any(|r| r.id == starbucks),
        "fixture: Starbucks must be missing initially"
    );

    let r = engine.refine_preference(&q, &[starbucks], 0.5).unwrap();
    let revived = engine.top_k(&r.query);
    assert!(revived.iter().any(|r| r.id == starbucks));
    // The refinement shifted weight towards spatial proximity.
    assert!(
        r.query.weights.ws() > 0.1,
        "expected more spatial weight, got {}",
        r.query.weights.ws()
    );
    assert!(r.penalty <= 0.5, "penalty {} too high", r.penalty);
}

/// Paper Example 2 (Carol): the missing luxury hotel is revived by
/// keyword adaptation with a minimal edit.
#[test]
fn example2_carol_keyword_adaptation() {
    let mut vocab = Vocabulary::new();
    let mut kws =
        |words: &[&str]| KeywordSet::from_ids(words.iter().map(|w| vocab.intern(w)));
    let mut b = CorpusBuilder::new().with_space(Space::unit());
    // Local hotels described exactly as Carol queried.
    b.push(Point::new(0.10, 0.10), kws(&["clean", "comfortable"]), "Local A");
    b.push(Point::new(0.12, 0.11), kws(&["clean", "comfortable"]), "Local B");
    b.push(Point::new(0.11, 0.13), kws(&["clean", "comfortable"]), "Local C");
    // The international hotel is described by "luxury" instead.
    b.push(Point::new(0.10, 0.12), kws(&["luxury", "spa", "pool"]), "International");
    let corpus = b.build();
    let engine = Yask::with_defaults(corpus);

    let q = Query::new(Point::new(0.1, 0.1), kws(&["clean", "comfortable"]), 3);
    let top = engine.top_k(&q);
    let intl = engine.corpus().find_by_name("International").unwrap().id;
    assert!(!top.iter().any(|r| r.id == intl));

    let r = engine.refine_keywords(&q, &[intl], 0.5).unwrap();
    let revived = engine.top_k(&r.query);
    assert!(revived.iter().any(|r| r.id == intl), "refined {:?}", r.query);
    // The adapted keywords must involve the hotel's own vocabulary.
    let m_doc = &engine.corpus().get(intl).doc;
    assert!(
        r.query.doc.intersection_size(m_doc) > 0 || r.delta_doc == 0,
        "adaptation should adopt keywords describing the hotel"
    );
}

/// Definition 1: the result is exactly the k highest-scoring objects.
#[test]
fn definition1_topk_is_exact() {
    let (corpus, _) = yask::data::hk_hotels();
    let engine = Yask::with_defaults(corpus.clone());
    let params = engine.score_params();
    let q = Query::new(Point::new(114.16, 22.28), KeywordSet::from_raw([0, 5, 9]), 10);
    let top = engine.top_k(&q);
    // Every non-result object scores no better than the worst result.
    let worst = top.last().unwrap();
    for o in corpus.iter() {
        if top.iter().any(|r| r.id == o.id) {
            continue;
        }
        let s = params.score(o, &q);
        assert!(
            !ScoreParams::ranks_before(s, o.id, worst.score, worst.id),
            "object {} should have been in the result",
            o.name
        );
    }
}

/// Eqn (1) invariants: ws + wt = 1, scores within [0, 1].
#[test]
fn eqn1_score_bounds() {
    let (corpus, _) = yask::data::hk_hotels();
    let params = ScoreParams::new(corpus.space());
    for ws in [0.0, 0.3, 0.5, 0.8, 1.0] {
        let w = Weights::from_ws(ws);
        assert!((w.ws() + w.wt() - 1.0).abs() < 1e-12);
        let q = Query::with_weights(
            Point::new(114.17, 22.30),
            KeywordSet::from_raw([1, 2]),
            3,
            w,
        );
        for o in corpus.iter().take(100) {
            let s = params.score(o, &q);
            assert!((0.0..=1.0 + 1e-12).contains(&s), "score {s}");
        }
    }
}

/// Definitions 2 & 3: the refined queries of both models always contain
/// every missing object in their result.
#[test]
fn definitions_2_and_3_revival_guarantee() {
    let (corpus, vocab) = yask::data::hk_hotels();
    let engine = Yask::with_defaults(corpus.clone());
    let params = engine.score_params();
    let doc = KeywordSet::from_ids(["wifi", "harbour"].iter().map(|w| vocab.lookup(w).unwrap()));
    let q = Query::new(Point::new(114.18, 22.29), doc, 5);
    for offset in [0usize, 3, 10, 40] {
        for m_count in [1usize, 2, 3] {
            let missing = yask::data::pick_missing(&corpus, &params, &q, m_count, offset);
            let answer = engine.answer(&q, &missing).unwrap();
            for refined in [&answer.preference.query, &answer.keyword.query] {
                let res = engine.top_k(refined);
                for m in &missing {
                    assert!(
                        res.iter().any(|r| r.id == *m),
                        "offset {offset} count {m_count}: {m} not revived by {refined:?}"
                    );
                }
            }
        }
    }
}
