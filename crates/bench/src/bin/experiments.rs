//! Regenerates every table/figure of the evaluation (DESIGN.md §2).
//!
//! Usage:
//!
//! ```text
//! experiments                 # all experiments, quick sizes
//! experiments --full          # all experiments, paper-scale sizes
//! experiments e2 e5 e10       # a subset
//! ```
//!
//! Output is a sequence of paper-style tables; EXPERIMENTS.md records one
//! captured run together with the expected shapes.

use std::sync::Arc;

use yask_bench::{fmt_us, print_table, std_corpus, time_us};
use yask_core::{
    explain, refine_keywords, refine_keywords_naive, refine_preference,
    refine_preference_naive, Yask,
};
use yask_data::{gen_queries, gen_selective_queries, hk_hotels, pick_missing, DatasetStats};
use yask_geo::Point;
use yask_index::{KcAug, ObjectId, RTree, RTreeParams, TextStats};
use yask_query::{
    topk_scan, topk_tree, topk_tree_with_stats, topk_tree_with_view, Query, ScoreParams,
};
use yask_server::{http_post, HttpServer, Json, YaskService};
use yask_text::KeywordSet;
use yask_core::pref::refine_preference_filtered;

struct Config {
    /// Base corpus size for the performance experiments.
    n: usize,
    /// Corpus size where O(n²)-ish naive baselines are still feasible.
    n_naive: usize,
    /// Repetitions per measurement point.
    reps: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let cfg = if full {
        Config { n: 100_000, n_naive: 5_000, reps: 10 }
    } else {
        Config { n: 20_000, n_naive: 2_000, reps: 5 }
    };
    let wanted: Vec<&str> = args.iter().filter(|a| !a.starts_with("--")).map(|s| s.as_str()).collect();
    let run = |id: &str| wanted.is_empty() || wanted.contains(&id) || wanted.contains(&"all");

    println!(
        "YASK experiments — N = {} (naive baselines at N = {}), {} reps",
        cfg.n, cfg.n_naive, cfg.reps
    );

    if run("fig2") || run("e1") {
        fig2();
    }
    if run("e2") {
        e2_topk_vs_k(&cfg);
    }
    if run("e3") {
        e3_topk_vs_doc(&cfg);
    }
    if run("e4") {
        e4_scalability(&cfg);
    }
    if run("e5") {
        e5_engines(&cfg);
    }
    if run("e6") {
        e6_pref_performance(&cfg);
    }
    if run("e7") {
        e7_pref_lambda();
    }
    if run("e8") {
        e8_keyword_performance(&cfg);
    }
    if run("e9") {
        e9_keyword_lambda();
    }
    if run("e10") {
        e10_effectiveness(&cfg);
    }
    if run("e11") {
        e11_explanations();
    }
    if run("e12") {
        e12_server(&cfg);
    }
    if run("e13") {
        e13_dataset();
    }
    if run("e14") {
        e14_combined(&cfg);
    }
    if run("e15") {
        e15_ablation(&cfg);
    }
    if run("e16") {
        e16_similarity_models(&cfg);
    }
}

/// E16: the similarity-model extension point (paper footnote 1): latency
/// and result agreement of the alternative set-similarity models.
fn e16_similarity_models(cfg: &Config) {
    use yask_text::SimilarityModel;
    let corpus = std_corpus(cfg.n);
    let tree = RTree::bulk_load(corpus.clone(), RTreeParams::default());
    let queries = gen_selective_queries(&corpus, 20, 3, 10, 47);
    let jaccard = ScoreParams::new(corpus.space());
    let jaccard_results: Vec<Vec<ObjectId>> = queries
        .iter()
        .map(|q| topk_tree(&tree, &jaccard, q).iter().map(|r| r.id).collect())
        .collect();
    let mut rows = Vec::new();
    for model in SimilarityModel::ALL {
        let params = ScoreParams::new(corpus.space()).with_model(model);
        let mut t = time_us(cfg.reps, || {
            for q in &queries {
                std::hint::black_box(topk_tree(&tree, &params, q));
            }
        });
        // Overlap with the Jaccard top-k: how much does the model choice
        // change what users actually see?
        let mut shared = 0usize;
        let mut total = 0usize;
        for (q, jr) in queries.iter().zip(&jaccard_results) {
            let ids: Vec<ObjectId> = topk_tree(&tree, &params, q).iter().map(|r| r.id).collect();
            shared += ids.iter().filter(|id| jr.contains(id)).count();
            total += jr.len();
        }
        rows.push(vec![
            model.name().to_string(),
            fmt_us(t.median() / queries.len() as f64),
            format!("{:.0}%", 100.0 * shared as f64 / total.max(1) as f64),
        ]);
    }
    print_table(
        &format!(
            "E16 — similarity models (footnote 1 extension; N = {}, k = 10)",
            cfg.n
        ),
        &["model", "latency", "top-k overlap vs jaccard"],
        &rows,
    );
}

/// E14: combined refinement ("apply the two refinement functions
/// simultaneously") vs the single models, over many scenarios.
fn e14_combined(cfg: &Config) {
    let corpus = std_corpus(cfg.n_naive * 2);
    let params = ScoreParams::new(corpus.space());
    let queries = gen_queries(&corpus, 20, 2, 5, 37);
    let mut rows = Vec::new();
    for lambda in [0.3, 0.5, 0.7] {
        let (mut pref_sum, mut kw_sum, mut comb_sum) = (0.0, 0.0, 0.0);
        let mut comb_wins = 0usize;
        let mut total = 0usize;
        for (i, q) in queries.iter().enumerate() {
            let missing = pick_missing(&corpus, &params, q, 1, i % 8);
            let Ok(pref) = refine_preference(&corpus, &params, q, &missing, lambda) else {
                continue;
            };
            let kw = refine_keywords(&corpus, &params, q, &missing, lambda).unwrap();
            let comb = yask_core::refine_combined(&corpus, &params, q, &missing, lambda).unwrap();
            total += 1;
            pref_sum += pref.penalty;
            kw_sum += kw.penalty;
            comb_sum += comb.penalty;
            // Compare in the combined metric (single models halve their
            // modification term when embedded — see core::combined docs).
            let pref_t = lambda * (pref.delta_k as f64 / (pref.initial_rank - q.k) as f64)
                + (1.0 - lambda) * (pref.delta_w / q.weights.penalty_normalizer()) / 2.0;
            let kw_t = lambda * (kw.delta_k as f64 / (kw.initial_rank - q.k) as f64)
                + (1.0 - lambda) * (kw.delta_doc as f64 / kw.doc_norm as f64) / 2.0;
            if comb.penalty < pref_t.min(kw_t) - 1e-12 {
                comb_wins += 1;
            }
        }
        rows.push(vec![
            format!("{lambda:.1}"),
            total.to_string(),
            format!("{:.4}", pref_sum / total as f64),
            format!("{:.4}", kw_sum / total as f64),
            format!("{:.4}", comb_sum / total as f64),
            format!("{:.0}%", 100.0 * comb_wins as f64 / total as f64),
        ]);
    }
    print_table(
        &format!(
            "E14 — combined refinement vs single models (N = {}, avg penalties; combined \
             metric not directly comparable across columns)",
            cfg.n_naive * 2
        ),
        &["λ", "scenarios", "pref", "keyword", "combined", "strictly better"],
        &rows,
    );
}

/// E15: design-choice ablation — the R-tree fanout.
fn e15_ablation(cfg: &Config) {
    let corpus = std_corpus(cfg.n);
    let params = ScoreParams::new(corpus.space());
    let queries = gen_selective_queries(&corpus, 20, 3, 10, 41);
    let mut rows = Vec::new();
    for (max, min) in [(8usize, 3usize), (16, 6), (32, 12), (64, 25)] {
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(max, min));
        let mut t = time_us(cfg.reps, || {
            for q in &queries {
                std::hint::black_box(topk_tree(&tree, &params, q));
            }
        });
        let expanded: usize = queries
            .iter()
            .map(|q| topk_tree_with_stats(&tree, &params, q).1.nodes_expanded)
            .sum();
        rows.push(vec![
            max.to_string(),
            fmt_us(t.median() / queries.len() as f64),
            format!("{:.1}", expanded as f64 / queries.len() as f64),
            tree.stats().nodes.to_string(),
        ]);
    }
    print_table(
        &format!("E15a — fanout ablation (KcR-tree, N = {}, k = 10)", cfg.n),
        &["fanout", "query", "nodes expanded", "total nodes"],
        &rows,
    );
}

/// E1 / Fig 2: the exact KcR-tree example of the paper.
fn fig2() {
    use yask_index::CorpusBuilder;
    use yask_text::Vocabulary;
    let mut vocab = Vocabulary::new();
    let chinese = vocab.intern("Chinese");
    let restaurant = vocab.intern("restaurant");
    let spanish = vocab.intern("Spanish");
    let ks = |ids: &[yask_text::KeywordId]| KeywordSet::from_ids(ids.iter().copied());

    let mut b = CorpusBuilder::new();
    b.push(Point::new(0.10, 0.10), ks(&[chinese, restaurant]), "o1");
    b.push(Point::new(0.12, 0.30), ks(&[chinese, restaurant]), "o2");
    b.push(Point::new(0.14, 0.50), ks(&[restaurant]), "o3");
    b.push(Point::new(0.80, 0.20), ks(&[spanish, restaurant]), "o4");
    b.push(Point::new(0.82, 0.40), ks(&[spanish, restaurant]), "o5");
    let tree = RTree::bulk_load(b.build(), RTreeParams::new(4, 2));

    // The tree stores no keyword counts; the side table rebuilds the
    // paper's maps from the leaves.
    let table = KcAug::side_table(&tree);
    let mut rows = Vec::new();
    let render = |id: yask_index::NodeId, name: &str, rows: &mut Vec<Vec<String>>| {
        let aug = &table[id.index()];
        let mut kws: Vec<String> = aug
            .counts()
            .iter()
            .map(|&(kw, n)| format!("{} {}", vocab.resolve(yask_text::KeywordId(kw)), n))
            .collect();
        kws.sort();
        rows.push(vec![name.to_owned(), kws.join(", "), format!("cnt={}", aug.cnt())]);
    };
    let root_id = tree.root().unwrap();
    render(root_id, "R3 (root)", &mut rows);
    for (i, &c) in tree.node(root_id).children().iter().enumerate() {
        render(c, &format!("R{}", i + 1), &mut rows);
    }
    print_table(
        "Fig 2 — KcR-tree keyword-count maps (paper example)",
        &["node", "keyword-count map", "cnt"],
        &rows,
    );
}

/// E2: top-k latency vs k (panel-5 "query response time" series), for
/// both selective (rare-term) and common (frequency-weighted) keywords.
fn e2_topk_vs_k(cfg: &Config) {
    let corpus = std_corpus(cfg.n);
    let params = ScoreParams::new(corpus.space());
    let tree = RTree::bulk_load(corpus.clone(), RTreeParams::default());
    let selective = gen_selective_queries(&corpus, 20, 3, 1, 7);
    let common = gen_queries(&corpus, 20, 3, 1, 7);
    let mut rows = Vec::new();
    for k in [1usize, 5, 10, 20, 50] {
        let mut cells = vec![k.to_string()];
        for queries in [&selective, &common] {
            let mut tree_t = time_us(cfg.reps, || {
                for q in queries {
                    std::hint::black_box(topk_tree(&tree, &params, &q.with_k(k)));
                }
            });
            let mut scan_t = time_us(cfg.reps, || {
                for q in queries {
                    std::hint::black_box(topk_scan(&corpus, &params, &q.with_k(k)));
                }
            });
            let per = queries.len() as f64;
            cells.push(fmt_us(tree_t.median() / per));
            cells.push(fmt_us(scan_t.median() / per));
            cells.push(format!("{:.1}x", scan_t.median() / tree_t.median()));
        }
        rows.push(cells);
    }
    print_table(
        &format!(
            "E2 — top-k latency vs k (N = {}, |q.doc| = 3; selective vs common keywords)",
            cfg.n
        ),
        &["k", "tree(sel)", "scan(sel)", "spd(sel)", "tree(com)", "scan(com)", "spd(com)"],
        &rows,
    );
}

/// E3: top-k latency vs |q.doc|.
fn e3_topk_vs_doc(cfg: &Config) {
    let corpus = std_corpus(cfg.n);
    let params = ScoreParams::new(corpus.space());
    let tree = RTree::bulk_load(corpus.clone(), RTreeParams::default());
    let mut rows = Vec::new();
    for doc_len in 1usize..=5 {
        let queries = gen_selective_queries(&corpus, 20, doc_len, 10, 11);
        let mut t = time_us(cfg.reps, || {
            for q in &queries {
                std::hint::black_box(topk_tree(&tree, &params, q));
            }
        });
        let expanded: usize = queries
            .iter()
            .map(|q| topk_tree_with_stats(&tree, &params, q).1.nodes_expanded)
            .sum();
        rows.push(vec![
            doc_len.to_string(),
            fmt_us(t.median() / queries.len() as f64),
            format!("{:.1}", expanded as f64 / queries.len() as f64),
        ]);
    }
    print_table(
        &format!("E3 — top-k latency vs |q.doc| (N = {}, k = 10)", cfg.n),
        &["|q.doc|", "KcR-tree", "nodes expanded"],
        &rows,
    );
}

/// E4: scalability in N (build + query).
fn e4_scalability(cfg: &Config) {
    let sizes = if cfg.n >= 100_000 {
        vec![10_000usize, 50_000, 100_000, 250_000]
    } else {
        vec![5_000usize, 10_000, 20_000, 50_000]
    };
    let mut rows = Vec::new();
    for &n in &sizes {
        let corpus = std_corpus(n);
        let params = ScoreParams::new(corpus.space());
        let t0 = std::time::Instant::now();
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::default());
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let queries = gen_selective_queries(&corpus, 20, 3, 10, 13);
        let mut t = time_us(cfg.reps, || {
            for q in &queries {
                std::hint::black_box(topk_tree(&tree, &params, q));
            }
        });
        let stats = tree.stats();
        rows.push(vec![
            n.to_string(),
            format!("{build_ms:.1}ms"),
            fmt_us(t.median() / queries.len() as f64),
            stats.nodes.to_string(),
            format!("{:.0}%", stats.avg_leaf_fill * 100.0),
        ]);
    }
    print_table(
        "E4 — scalability vs N (KcR-tree, k = 10, |q.doc| = 3)",
        &["N", "build", "query", "nodes", "leaf fill"],
        &rows,
    );
}

/// E5: engine comparison (bound tightness in action). One tree and its
/// KcR-tree side table serve every bound row: the keyword counts give the
/// SetR-tree's bound as is (so the SetR-tree and KcR-tree rows run the
/// same search), and the IR-tree's bound is the same stats seen without
/// the intersection side. The served hybrid (posting lists plus a
/// keyword-free k-NN) and the scan are the two baselines.
fn e5_engines(cfg: &Config) {
    let corpus = std_corpus(cfg.n);
    let params = ScoreParams::new(corpus.space());
    let tree = RTree::bulk_load(corpus.clone(), RTreeParams::default());
    let queries = gen_selective_queries(&corpus, 20, 3, 10, 17);
    let per = queries.len() as f64;
    let table = KcAug::side_table(&tree);

    let mut rows = Vec::new();
    let identity: fn(TextStats) -> TextStats = std::convert::identity;
    for (name, view) in [
        ("SetR-tree", identity),
        ("KcR-tree", identity),
        ("IR-tree", TextStats::without_intersection),
    ] {
        let mut t = time_us(cfg.reps, || {
            for q in &queries {
                std::hint::black_box(topk_tree_with_view(&tree, &params, q, &table, view));
            }
        });
        let nodes: usize = queries
            .iter()
            .map(|q| topk_tree_with_view(&tree, &params, q, &table, view).1.nodes_expanded)
            .sum();
        rows.push(vec![
            name.to_string(),
            fmt_us(t.median() / per),
            format!("{:.1}", nodes as f64 / per),
        ]);
    }
    {
        let mut t = time_us(cfg.reps, || {
            for q in &queries {
                std::hint::black_box(topk_tree(&tree, &params, q));
            }
        });
        let nodes: usize = queries
            .iter()
            .map(|q| topk_tree_with_stats(&tree, &params, q).1.nodes_expanded)
            .sum();
        rows.push(vec![
            "hybrid (served)".into(),
            fmt_us(t.median() / per),
            format!("{:.1}", nodes as f64 / per),
        ]);
    }
    {
        let mut t = time_us(cfg.reps, || {
            for q in &queries {
                std::hint::black_box(topk_scan(&corpus, &params, q));
            }
        });
        rows.push(vec!["scan".into(), fmt_us(t.median() / per), "-".into()]);
    }
    print_table(
        &format!("E5 — engine comparison (N = {}, k = 10, |q.doc| = 3)", cfg.n),
        &["engine", "latency", "nodes expanded"],
        &rows,
    );
}

/// E6: preference-adjustment performance vs |M|.
fn e6_pref_performance(cfg: &Config) {
    let corpus = std_corpus(cfg.n);
    let params = ScoreParams::new(corpus.space());
    let small = std_corpus(cfg.n_naive);
    let small_params = ScoreParams::new(small.space());
    let q = &gen_queries(&corpus, 1, 3, 10, 19)[0];
    let q_small = &gen_queries(&small, 1, 3, 10, 19)[0];

    let mut rows = Vec::new();
    for m_count in [1usize, 2, 4, 8] {
        let missing = pick_missing(&corpus, &params, q, m_count, 5);
        let missing_small = pick_missing(&small, &small_params, q_small, m_count, 5);
        let mut sweep = time_us(cfg.reps, || {
            std::hint::black_box(
                refine_preference(&corpus, &params, q, &missing, 0.5).unwrap(),
            );
        });
        let mut filtered = time_us(cfg.reps, || {
            std::hint::black_box(
                refine_preference_filtered(&corpus, &params, q, &missing, 0.5).unwrap(),
            );
        });
        let mut sweep_small = time_us(cfg.reps, || {
            std::hint::black_box(
                refine_preference(&small, &small_params, q_small, &missing_small, 0.5)
                    .unwrap(),
            );
        });
        let mut naive_small = time_us(cfg.reps, || {
            std::hint::black_box(
                refine_preference_naive(&small, &small_params, q_small, &missing_small, 0.5)
                    .unwrap(),
            );
        });
        rows.push(vec![
            m_count.to_string(),
            fmt_us(sweep.median()),
            fmt_us(filtered.median()),
            fmt_us(sweep_small.median()),
            fmt_us(naive_small.median()),
            format!("{:.1}x", naive_small.median() / sweep_small.median()),
        ]);
    }
    print_table(
        &format!(
            "E6 — preference adjustment vs |M| (sweep/filtered at N = {}, naive compared at N = {})",
            cfg.n, cfg.n_naive
        ),
        &["|M|", "sweep", "range-filtered", "sweep@naiveN", "naive@naiveN", "speedup"],
        &rows,
    );
}

/// E7: the λ sweep for Eqn (3) on the HK demo dataset.
fn e7_pref_lambda() {
    let (corpus, _) = hk_hotels();
    let params = ScoreParams::new(corpus.space());
    let q = Query::new(Point::new(114.172, 22.297), KeywordSet::from_raw([1, 2]), 3);
    let missing = (0..30)
        .map(|off| pick_missing(&corpus, &params, &q, 1, off))
        .find(|m| {
            refine_preference(&corpus, &params, &q, m, 0.5)
                .map(|r| r.delta_w > 0.0)
                .unwrap_or(false)
        })
        .unwrap_or_else(|| pick_missing(&corpus, &params, &q, 1, 5));
    let mut rows = Vec::new();
    for lambda in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let r = refine_preference(&corpus, &params, &q, &missing, lambda).unwrap();
        rows.push(vec![
            format!("{lambda:.1}"),
            format!("{:.4}", r.query.weights.ws()),
            r.query.k.to_string(),
            format!("{:.4}", r.delta_w),
            r.delta_k.to_string(),
            format!("{:.4}", r.penalty),
        ]);
    }
    print_table(
        "E7 — preference adjustment vs λ (HK-539, Eqn 3)",
        &["λ", "ws'", "k'", "Δw", "Δk", "penalty"],
        &rows,
    );
}

/// E8: keyword-adaptation performance and pruning — the request table
/// against the naive scan.
fn e8_keyword_performance(cfg: &Config) {
    let corpus = std_corpus(cfg.n_naive * 4);
    let params = ScoreParams::new(corpus.space());
    let mut rows = Vec::new();
    for doc_len in [2usize, 3, 4] {
        let q = &gen_queries(&corpus, 1, doc_len, 5, 23)[0];
        let missing = pick_missing(&corpus, &params, q, 1, 4);
        let mut fast = time_us(cfg.reps, || {
            std::hint::black_box(refine_keywords(&corpus, &params, q, &missing, 0.5).unwrap());
        });
        let mut naive = time_us(cfg.reps, || {
            std::hint::black_box(
                refine_keywords_naive(&corpus, &params, q, &missing, 0.5).unwrap(),
            );
        });
        let r = refine_keywords(&corpus, &params, q, &missing, 0.5).unwrap();
        let n = refine_keywords_naive(&corpus, &params, q, &missing, 0.5).unwrap();
        rows.push(vec![
            doc_len.to_string(),
            fmt_us(fast.median()),
            fmt_us(naive.median()),
            format!("{:.1}x", naive.median() / fast.median()),
            r.stats.enumerated.to_string(),
            r.stats.bound_pruned.to_string(),
            r.stats.exact_evaluated.to_string(),
            r.stats.objects_scored.to_string(),
            n.stats.enumerated.to_string(),
            n.stats.exact_evaluated.to_string(),
            n.stats.objects_scored.to_string(),
        ]);
    }
    print_table(
        &format!(
            "E8 — keyword adaptation vs |q.doc| (N = {}, request table vs naive scan)",
            cfg.n_naive * 4
        ),
        &[
            "|q.doc|", "table", "naive", "speedup", "cands", "pruned", "exact", "scored",
            "naive cands", "naive exact", "naive scored",
        ],
        &rows,
    );
}

/// E9: the λ sweep for Eqn (4) on the HK demo dataset.
fn e9_keyword_lambda() {
    let (corpus, vocab) = hk_hotels();
    let params = ScoreParams::new(corpus.space());
    let doc = KeywordSet::from_ids(
        ["clean", "comfortable"].iter().map(|w| vocab.lookup(w).unwrap()),
    );
    let q = Query::new(Point::new(114.172, 22.297), doc, 3);
    let missing = pick_missing(&corpus, &params, &q, 1, 5);
    let mut rows = Vec::new();
    for lambda in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let r = refine_keywords(&corpus, &params, &q, &missing, lambda).unwrap();
        let words: Vec<&str> = r.query.doc.iter().map(|id| vocab.resolve(id)).collect();
        rows.push(vec![
            format!("{lambda:.1}"),
            r.delta_doc.to_string(),
            r.query.k.to_string(),
            r.delta_k.to_string(),
            format!("{:.4}", r.penalty),
            words.join(" "),
        ]);
    }
    print_table(
        "E9 — keyword adaptation vs λ (HK-539, Eqn 4)",
        &["λ", "Δdoc", "k'", "Δk", "penalty", "refined doc"],
        &rows,
    );
}

/// E10: refinement effectiveness over many why-not scenarios.
fn e10_effectiveness(cfg: &Config) {
    let mut rows = Vec::new();
    let scenarios: &[(&str, yask_index::Corpus)] = &[
        ("HK-539", hk_hotels().0),
        ("synthetic", std_corpus(cfg.n_naive * 2)),
    ];
    for (name, corpus) in scenarios {
        let params = ScoreParams::new(corpus.space());
        let engine = Yask::with_defaults(corpus.clone());
        let queries = gen_queries(corpus, 25, 2, 5, 29);
        let mut revived = 0usize;
        let mut total = 0usize;
        let mut pref_pen = 0.0;
        let mut kw_pen = 0.0;
        let mut pref_wins = 0usize;
        for (i, q) in queries.iter().enumerate() {
            let missing = pick_missing(corpus, &params, q, 1 + i % 2, i % 10);
            let Ok(ans) = engine.answer(q, &missing) else {
                continue;
            };
            total += 1;
            pref_pen += ans.preference.penalty;
            kw_pen += ans.keyword.penalty;
            if ans.preference.penalty <= ans.keyword.penalty {
                pref_wins += 1;
            }
            let ok = [&ans.preference.query, &ans.keyword.query].iter().all(|rq| {
                let res = engine.top_k(rq);
                missing.iter().all(|m| res.iter().any(|r| r.id == *m))
            });
            if ok {
                revived += 1;
            }
        }
        rows.push(vec![
            name.to_string(),
            total.to_string(),
            format!("{:.0}%", 100.0 * revived as f64 / total.max(1) as f64),
            format!("{:.4}", pref_pen / total.max(1) as f64),
            format!("{:.4}", kw_pen / total.max(1) as f64),
            format!("{:.0}%", 100.0 * pref_wins as f64 / total.max(1) as f64),
        ]);
    }
    print_table(
        "E10 — refinement effectiveness (λ = 0.5)",
        &["dataset", "scenarios", "revival", "avg pref penalty", "avg kw penalty", "pref wins"],
        &rows,
    );
}

/// E11: explanation generator latency and reason distribution.
fn e11_explanations() {
    let (corpus, _) = hk_hotels();
    let params = ScoreParams::new(corpus.space());
    let queries = gen_queries(&corpus, 10, 2, 3, 31);
    let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
    let mut t = yask_util::Summary::new();
    for q in &queries {
        for idx in (0..corpus.len()).step_by(11) {
            let target = ObjectId(idx as u32);
            let t0 = std::time::Instant::now();
            let ex = explain(&corpus, &params, q, &[target]).unwrap();
            t.record_duration(t0.elapsed());
            *counts.entry(format!("{:?}", ex[0].reason)).or_insert(0) += 1;
        }
    }
    let total: usize = counts.values().sum();
    let mut rows: Vec<Vec<String>> = counts
        .into_iter()
        .map(|(reason, n)| {
            vec![
                reason,
                n.to_string(),
                format!("{:.1}%", 100.0 * n as f64 / total as f64),
            ]
        })
        .collect();
    rows.push(vec![
        "latency".into(),
        fmt_us(t.median()),
        format!("p95 {}", fmt_us(t.percentile(95.0))),
    ]);
    print_table(
        "E11 — explanations on HK-539 (reason distribution + latency)",
        &["reason", "count", "share"],
        &rows,
    );
}

/// E12: end-to-end HTTP latency (the panel-5 "query response time").
fn e12_server(cfg: &Config) {
    let service = Arc::new(YaskService::hk_demo());
    let server = HttpServer::spawn(0, 4, service.into_handler()).expect("bind");
    let addr = server.addr();
    let payload = Json::obj([
        ("x", Json::Num(114.172)),
        ("y", Json::Num(22.297)),
        ("keywords", Json::Arr(vec![Json::str("clean"), Json::str("wifi")])),
        ("k", Json::Num(3.0)),
    ]);
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let reqs_per_thread = 10 * cfg.reps;
        let t0 = std::time::Instant::now();
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let payload = payload.clone();
                std::thread::spawn(move || {
                    for _ in 0..reqs_per_thread {
                        let (status, _) = http_post(addr, "/query", &payload).unwrap();
                        assert_eq!(status, 200);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = (threads * reqs_per_thread) as f64;
        let secs = t0.elapsed().as_secs_f64();
        rows.push(vec![
            threads.to_string(),
            format!("{:.0} req/s", total / secs),
            fmt_us(secs * 1e6 / total * threads as f64),
        ]);
    }
    print_table(
        "E12 — HTTP /query end-to-end (HK-539, 4 workers)",
        &["client threads", "throughput", "latency"],
        &rows,
    );
}

/// E13: the dataset description table.
fn e13_dataset() {
    let (corpus, _) = hk_hotels();
    let hk = DatasetStats::of(&corpus);
    let synthetic = std_corpus(20_000);
    let syn = DatasetStats::of(&synthetic);
    let row = |name: &str, s: &DatasetStats| {
        vec![
            name.to_owned(),
            s.objects.to_string(),
            s.distinct_keywords.to_string(),
            format!("{:.2}", s.avg_doc),
            format!("{}..{}", s.min_doc, s.max_doc),
            format!("{:.4}x{:.4}", s.extent.0, s.extent.1),
        ]
    };
    print_table(
        "E13 — datasets",
        &["dataset", "objects", "vocab", "avg |doc|", "|doc| range", "extent"],
        &[row("HK-539 (booking.com stand-in)", &hk), row("synthetic-20k", &syn)],
    );
}
