//! Criterion benches for experiments E2 (top-k vs k), E3 (vs |q.doc|)
//! and E5 (engine comparison: the one tree under its SetR-tree and
//! IR-tree bound views). The `experiments` binary prints the
//! corresponding paper-style tables; these benches track regressions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use yask_bench::std_corpus;
use yask_data::gen_selective_queries;
use yask_index::{RTree, RTreeParams, TextStats};
use yask_query::{topk_scan, topk_tree, topk_tree_with_view, ScoreParams};

const N: usize = 20_000;

fn bench_topk_vs_k(c: &mut Criterion) {
    let corpus = std_corpus(N);
    let params = ScoreParams::new(corpus.space());
    let tree = RTree::bulk_load(corpus.clone(), RTreeParams::default());
    let queries = gen_selective_queries(&corpus, 8, 3, 1, 7);

    let mut g = c.benchmark_group("e2_topk_vs_k");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    for k in [1usize, 10, 50] {
        g.bench_with_input(BenchmarkId::new("setr", k), &k, |b, &k| {
            b.iter(|| {
                for q in &queries {
                    black_box(topk_tree(&tree, &params, &q.with_k(k)));
                }
            })
        });
        g.bench_with_input(BenchmarkId::new("scan", k), &k, |b, &k| {
            b.iter(|| {
                for q in &queries {
                    black_box(topk_scan(&corpus, &params, &q.with_k(k)));
                }
            })
        });
    }
    g.finish();
}

fn bench_topk_vs_doc(c: &mut Criterion) {
    let corpus = std_corpus(N);
    let params = ScoreParams::new(corpus.space());
    let tree = RTree::bulk_load(corpus.clone(), RTreeParams::default());

    let mut g = c.benchmark_group("e3_topk_vs_doc");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    for doc_len in [1usize, 3, 5] {
        let queries = gen_selective_queries(&corpus, 8, doc_len, 10, 11);
        g.bench_with_input(BenchmarkId::new("setr", doc_len), &doc_len, |b, _| {
            b.iter(|| {
                for q in &queries {
                    black_box(topk_tree(&tree, &params, q));
                }
            })
        });
    }
    g.finish();
}

fn bench_engines(c: &mut Criterion) {
    let corpus = std_corpus(N);
    let params = ScoreParams::new(corpus.space());
    let tree = RTree::bulk_load(corpus.clone(), RTreeParams::default());
    let queries = gen_selective_queries(&corpus, 8, 3, 10, 17);

    let mut g = c.benchmark_group("e5_engines");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    g.bench_function("setr", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(topk_tree(&tree, &params, q));
            }
        })
    });
    g.bench_function("kcr", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(topk_tree(&tree, &params, q));
            }
        })
    });
    g.bench_function("ir", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(topk_tree_with_view(
                    &tree,
                    &params,
                    q,
                    TextStats::without_intersection,
                ));
            }
        })
    });
    g.bench_function("scan", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(topk_scan(&corpus, &params, q));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_topk_vs_k, bench_topk_vs_doc, bench_engines);
criterion_main!(benches);
