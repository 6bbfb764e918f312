//! Criterion bench for experiment E8: keyword adaptation — KcR-tree
//! bound-and-prune vs the naive full-scan baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use yask_bench::std_corpus;
use yask_core::{refine_keywords, refine_keywords_naive};
use yask_data::{gen_queries, pick_missing};
use yask_index::{RTree, RTreeParams};
use yask_query::ScoreParams;

fn bench_kw(c: &mut Criterion) {
    let corpus = std_corpus(8_000);
    let params = ScoreParams::new(corpus.space());
    let tree = RTree::bulk_load(corpus.clone(), RTreeParams::default());

    let mut g = c.benchmark_group("e8_keyword");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for doc_len in [2usize, 4] {
        let q = &gen_queries(&corpus, 1, doc_len, 5, 23)[0];
        let missing = pick_missing(&corpus, &params, q, 1, 4);
        g.bench_with_input(BenchmarkId::new("kcr_prune", doc_len), &doc_len, |b, _| {
            b.iter(|| black_box(refine_keywords(&tree, &params, q, &missing, 0.5).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("naive", doc_len), &doc_len, |b, _| {
            b.iter(|| {
                black_box(refine_keywords_naive(&corpus, &params, q, &missing, 0.5).unwrap())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kw);
criterion_main!(benches);
