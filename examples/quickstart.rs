//! Quickstart: issue a spatial keyword top-k query, lose a hotel, ask why,
//! and get both refined queries — the full YASK loop in one file.
//!
//! Run with: `cargo run --release --example quickstart`

use yask::prelude::*;

fn main() {
    // 1. Load the demo dataset (the 539-hotel Hong Kong stand-in) and
    //    build the engine: one R-tree and the corpus's posting lists serve
    //    the top-k engine; the why-not modules read the corpus.
    let (corpus, vocab) = yask::data::hk_hotels();
    let engine = Yask::with_defaults(corpus);
    println!("database: {} hotels", engine.corpus().len());

    // 2. Issue a top-5 query near Tsim Sha Tsui for "clean comfortable".
    let doc = KeywordSet::from_ids(
        ["clean", "comfortable"]
            .iter()
            .map(|w| vocab.lookup(w).expect("vocabulary term")),
    );
    let query = Query::new(Point::new(114.172, 22.297), doc, 5);
    let result = engine.top_k(&query);
    println!("\ntop-{} for \"clean comfortable\" near TST:", query.k);
    for (i, r) in result.iter().enumerate() {
        println!(
            "  {}. {:<42} score {:.4}",
            i + 1,
            engine.corpus().get(r.id).name,
            r.score
        );
    }

    // 3. Pick a hotel that is *not* in the result and ask why.
    let missing = engine
        .corpus()
        .iter()
        .filter(|o| !result.iter().any(|r| r.id == o.id))
        .find(|o| o.name.contains("Harbour"))
        .expect("some Harbour hotel is missing");
    println!("\nwhy not \"{}\"?", missing.name);

    let answer = engine
        .answer(&query, &[missing.id])
        .expect("valid why-not question");
    println!("  {}", answer.explanations[0].message);

    // 4. The two refinement models (paper Definitions 2 and 3).
    let p = &answer.preference;
    println!(
        "\npreference adjustment: w = <{:.3}, {:.3}>, k = {} (penalty {:.4})",
        p.query.weights.ws(),
        p.query.weights.wt(),
        p.query.k,
        p.penalty
    );
    let kw = &answer.keyword;
    let words: Vec<&str> = kw.query.doc.iter().map(|id| vocab.resolve(id)).collect();
    println!(
        "keyword adaptation:    doc = [{}], k = {} (penalty {:.4})",
        words.join(", "),
        kw.query.k,
        kw.penalty
    );
    println!("recommended model:     {:?}", answer.recommended);

    // 5. Verify the recommendation revives the hotel.
    let refined = match answer.recommended {
        yask::core::engine::RecommendedModel::Preference => &p.query,
        yask::core::engine::RecommendedModel::Keyword => &kw.query,
    };
    let revived = engine.top_k(refined);
    assert!(
        revived.iter().any(|r| r.id == missing.id),
        "refined query must revive the missing hotel"
    );
    println!(
        "\nrefined query revives \"{}\" at rank {} of top-{}",
        missing.name,
        revived.iter().position(|r| r.id == missing.id).unwrap() + 1,
        refined.k
    );
}
