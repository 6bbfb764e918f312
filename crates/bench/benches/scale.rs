//! Criterion bench for experiment E4: query latency scalability in N.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use yask_bench::std_corpus;
use yask_data::gen_selective_queries;
use yask_index::{RTree, RTreeParams};
use yask_query::{topk_tree, ScoreParams};

fn bench_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("e4_scale");
    g.sample_size(15).measurement_time(Duration::from_secs(3));
    for n in [5_000usize, 20_000, 50_000] {
        let corpus = std_corpus(n);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::default());
        let queries = gen_selective_queries(&corpus, 8, 3, 10, 13);
        g.throughput(Throughput::Elements(queries.len() as u64));
        g.bench_with_input(BenchmarkId::new("query", n), &n, |b, _| {
            b.iter(|| {
                for q in &queries {
                    black_box(topk_tree(&tree, &params, q));
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
