//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **R-tree fanout** — the bound-tightness / traversal-cost trade-off
//!   (smaller nodes ⇒ tighter keyword summaries ⇒ fewer expansions, but
//!   more nodes to touch);
//! * **keyword-adaptation bound depth** — how deep the cheap bound pass
//!   descends before declaring a candidate uncertain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use yask_bench::std_corpus;
use yask_core::keyword::{refine_keywords_with, KeywordOptions};
use yask_data::{gen_queries, gen_selective_queries, pick_missing};
use yask_index::{RTree, RTreeParams};
use yask_query::{topk_tree, ScoreParams};

fn bench_fanout(c: &mut Criterion) {
    let corpus = std_corpus(20_000);
    let params = ScoreParams::new(corpus.space());
    let queries = gen_selective_queries(&corpus, 8, 3, 10, 17);

    let mut g = c.benchmark_group("ablation_fanout");
    g.sample_size(15).measurement_time(Duration::from_secs(3));
    for (max, min) in [(8usize, 3usize), (16, 6), (32, 12), (64, 25)] {
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(max, min));
        g.bench_with_input(BenchmarkId::new("query", max), &max, |b, _| {
            b.iter(|| {
                for q in &queries {
                    black_box(topk_tree(&tree, &params, q));
                }
            })
        });
    }
    g.finish();
}

fn bench_bound_depth(c: &mut Criterion) {
    let corpus = std_corpus(8_000);
    let params = ScoreParams::new(corpus.space());
    let tree = RTree::bulk_load(corpus.clone(), RTreeParams::default());
    let q = &gen_queries(&corpus, 1, 3, 5, 23)[0];
    let missing = pick_missing(&corpus, &params, q, 1, 4);

    let mut g = c.benchmark_group("ablation_bound_depth");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for depth in [1usize, 2, 4, 8] {
        let opts = KeywordOptions {
            bound_depth: depth,
            ..KeywordOptions::default()
        };
        g.bench_with_input(BenchmarkId::new("refine", depth), &depth, |b, _| {
            b.iter(|| {
                black_box(
                    refine_keywords_with(&tree, &params, q, &missing, 0.5, opts).unwrap(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fanout, bench_bound_depth);
criterion_main!(benches);
