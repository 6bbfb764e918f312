//! Criterion bench for the index-construction side of experiment E4:
//! bulk-load cost of the KcR-tree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use yask_bench::std_corpus;
use yask_index::{RTree, RTreeParams};

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("e4_index_build");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    for n in [5_000usize, 20_000] {
        let corpus = std_corpus(n);
        g.throughput(Throughput::Elements(n as u64));
        let tp = RTreeParams::default();
        g.bench_with_input(BenchmarkId::new("kcr", n), &n, |b, _| {
            b.iter(|| black_box(RTree::bulk_load(corpus.clone(), tp)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
