//! Node-layout microbench: cold traversal cost over the chunked arena.
//!
//! The persistent arena keeps nodes in 256-slot chunks allocated level
//! by level at bulk-load time, so a cold root-to-leaf walk touches a
//! handful of dense allocations instead of pointer-chased heap nodes.
//! This microbench puts a number on the layout: cold range scans and
//! served top-10 searches with an empty keyword set (pure distance
//! ranking, through the one best-first loop) over (a) a freshly
//! bulk-loaded tree —
//! densely packed chunks — and (b) the same tree after a heavy
//! insert/delete churn — fragmented arena with freed slack and
//! path-copied chunks. The spread between the two rows is the layout's
//! cost of fragmentation; both are single-threaded trend lines, to be
//! compared only between runs on the same host.
//!
//! Run with: `cargo bench --bench index_layout` (append `-- --smoke`
//! for CI short-iteration mode).

use std::time::Instant;

use yask_bench::{fmt_us, print_table, std_corpus};
use yask_geo::{Point, Rect};
use yask_index::{RTree, RTreeParams};
use yask_query::{topk_tree, Query, ScoreParams};
use yask_text::KeywordSet;
use yask_util::{Summary, Xoshiro256};

fn scan_workload(reps: usize, seed: u64) -> Vec<(Rect, Point)> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..reps)
        .map(|_| {
            let cx = rng.next_f64();
            let cy = rng.next_f64();
            let half = 0.02 + 0.08 * rng.next_f64();
            (
                Rect::from_coords(cx - half, cy - half, cx + half, cy + half),
                Point::new(cx, cy),
            )
        })
        .collect()
}

fn measure(tree: &RTree, probes: &[(Rect, Point)]) -> (Summary, Summary) {
    let params = ScoreParams::new(tree.corpus().space());
    let mut range_lat = Summary::new();
    let mut topk_lat = Summary::new();
    for (rect, p) in probes {
        let t0 = Instant::now();
        std::hint::black_box(tree.range(rect));
        range_lat.record_duration(t0.elapsed());
        let q = Query::new(*p, KeywordSet::empty(), 10);
        let t0 = Instant::now();
        std::hint::black_box(topk_tree(tree, &params, &q));
        topk_lat.record_duration(t0.elapsed());
    }
    (range_lat, topk_lat)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, probes_n, churn) = if smoke {
        (vec![5_000usize], 60usize, 400usize)
    } else {
        (vec![20_000, 50_000], 400, 4_000)
    };
    let probes = scan_workload(probes_n, 17);
    let params = RTreeParams::default();

    let mut rows: Vec<Vec<String>> = Vec::new();
    for n in sizes {
        let corpus = std_corpus(n);
        let tree = RTree::bulk_load(corpus.clone(), params);
        let (range_lat, topk_lat) = measure(&tree, &probes);
        rows.push(vec![
            format!("bulk/n={n}"),
            fmt_us(range_lat.mean()),
            fmt_us(topk_lat.mean()),
            format!("{}", tree.arena_chunk_count()),
            format!("{}", tree.free_slots()),
        ]);

        // Churn: alternating single-op insert/delete epochs fragment the
        // arena (freed slots, path-copied chunks) without changing n.
        let mut rng = Xoshiro256::seed_from_u64(29);
        let (mut c, mut t) = (corpus, tree);
        for i in 0..churn {
            let live = c.live_ids();
            let victim = live[rng.below(live.len())];
            let (nc, new_ids) = c.with_updates(
                [(
                    Point::new(rng.next_f64(), rng.next_f64()),
                    yask_text::KeywordSet::from_raw([rng.below(5_000) as u32]),
                    format!("churn-{i}"),
                )],
                &[victim],
            );
            let (nt, _) = t.with_updates(nc.clone(), &new_ids, &[victim]);
            (c, t) = (nc, nt);
        }
        let (range_lat, topk_lat) = measure(&t, &probes);
        rows.push(vec![
            format!("churned/n={n}"),
            fmt_us(range_lat.mean()),
            fmt_us(topk_lat.mean()),
            format!("{}", t.arena_chunk_count()),
            format!("{}", t.free_slots()),
        ]);
    }

    print_table(
        &format!(
            "index node-layout microbench (range + spatial top-10 cold scans, {probes_n} probes, churn = {churn} epochs)"
        ),
        &["bench", "range", "top-10 spatial", "chunks", "free slots"],
        &rows,
    );
}
