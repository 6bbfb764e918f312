//! Ablation bench for the design choice DESIGN.md calls out: the R-tree
//! fanout — the bound-tightness / traversal-cost trade-off (smaller nodes
//! ⇒ tighter keyword summaries ⇒ fewer expansions, but more nodes to
//! touch).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use yask_bench::std_corpus;
use yask_data::gen_selective_queries;
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

criterion_group!(benches, bench_fanout);
criterion_main!(benches);
