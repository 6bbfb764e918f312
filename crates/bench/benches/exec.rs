//! E9 — the execution subsystem: scatter-gather shard scaling and answer
//! cache effectiveness.
//!
//! Measures executor top-k latency at 1/2/4/8 shards, cold (caches off)
//! and warm (cache pre-populated), over the standard clustered corpus.
//! Every row carries wall-clock mean/p95 from the harness plus p50/p99
//! read back from the executor's own `yask_obs` latency histograms — the
//! numbers `/metrics` serves, cross-checked against the harness here.
//! A final pair of rows prices span tracing: the same cold 4-shard run
//! untraced vs. with a full per-query trace recorded into a `TraceLog`
//! (the server's ambient-tracing path); `trace_overhead_pct` must stay
//! small (budget: < 5 % on the mean). A second pair prices the workload
//! observatory (sliding windows + heat map + keyword sketch) the same
//! way: `obs_overhead_pct`, budget < 3 %. Besides the console table,
//! results land in `BENCH_exec.json` so CI can archive the perf
//! trajectory (`bench_check` gates regressions against the committed
//! artifact).
//!
//! Run with: `cargo bench --bench exec` (append `-- --smoke` for the CI
//! short-iteration mode; `YASK_BENCH_OUT` overrides the artifact path).

use std::time::Instant;

use yask_bench::{fmt_us, print_table, std_corpus};
use yask_core::YaskConfig;
use yask_exec::{ExecConfig, Executor};
use yask_geo::Point;
use yask_obs::{HistogramSnapshot, Trace, TraceLog};
use yask_query::{Query, Weights};
use yask_server::Json;
use yask_text::KeywordSet;
use yask_util::{Summary, Xoshiro256};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn workload(n_queries: usize, seed: u64) -> Vec<Query> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..n_queries)
        .map(|_| {
            Query::with_weights(
                Point::new(rng.next_f64(), rng.next_f64()),
                KeywordSet::from_raw((0..2 + rng.below(3)).map(|_| rng.below(5_000) as u32)),
                10,
                Weights::from_ws(rng.range_f64(0.2, 0.8)),
            )
        })
        .collect()
}

/// Times `reps` queries (round-robin over the workload) through `f`.
fn measure(reps: usize, queries: &[Query], mut f: impl FnMut(&Query)) -> Summary {
    let mut s = Summary::new();
    for i in 0..reps {
        let q = &queries[i % queries.len()];
        let t0 = Instant::now();
        f(q);
        s.record_duration(t0.elapsed());
    }
    s
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, reps) = if smoke { (4_000, 60) } else { (30_000, 400) };
    let corpus = std_corpus(n);
    let queries = workload(64, 7);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut results: Vec<Json> = Vec::new();
    // `s` is the harness wall clock; `hist` is the executor's own latency
    // histogram for the measured path (what `/metrics` exports), so the
    // artifact records both views of the same run.
    let mut record = |name: String, shards: usize, mode: &str, s: &mut Summary, hist: &HistogramSnapshot| {
        let (mean, p95, reps) = (s.mean(), s.percentile(95.0), s.len());
        let (p50, p99) = (hist.p50() as f64 / 1_000.0, hist.p99() as f64 / 1_000.0);
        rows.push(vec![
            name.clone(),
            fmt_us(mean),
            fmt_us(p95),
            fmt_us(p50),
            fmt_us(p99),
            reps.to_string(),
        ]);
        results.push(Json::obj([
            ("name", Json::str(name)),
            ("shards", Json::Num(shards as f64)),
            ("mode", Json::str(mode)),
            ("mean_us", Json::Num(mean)),
            ("p95_us", Json::Num(p95)),
            ("hist_p50_us", Json::Num(p50)),
            ("hist_p99_us", Json::Num(p99)),
            ("hist_count", Json::Num(hist.count as f64)),
            ("reps", Json::Num(reps as f64)),
        ]));
    };

    for shards in SHARD_COUNTS {
        // Cold: caches disabled, every query is a full computation.
        let cold_exec = Executor::new(
            corpus.clone(),
            ExecConfig {
                shards,
                workers: shards,
                topk_cache: 0,
                answer_cache: 0,
                yask: YaskConfig::default(),
                ..ExecConfig::default()
            },
        );
        let mut cold = measure(reps, &queries, |q| {
            std::hint::black_box(cold_exec.top_k(q));
        });
        let cold_hist = cold_exec.stats().topk_hist;
        record(format!("topk/shards={shards}/cold"), shards, "cold", &mut cold, &cold_hist);

        // Warm: cache enabled and pre-populated with the whole workload.
        let warm_exec = Executor::new(
            corpus.clone(),
            ExecConfig {
                shards,
                workers: shards,
                topk_cache: 1024,
                answer_cache: 0,
                yask: YaskConfig::default(),
                ..ExecConfig::default()
            },
        );
        for q in &queries {
            warm_exec.top_k(q);
        }
        let mut warm = measure(reps, &queries, |q| {
            std::hint::black_box(warm_exec.top_k(q));
        });
        // Warm queries are cache hits: the hit histogram is their record.
        let warm_hist = warm_exec.stats().topk_hit_hist;
        record(format!("topk/shards={shards}/warm"), shards, "warm", &mut warm, &warm_hist);
    }

    // Tracing overhead at the default shard count: a fresh executor per
    // mode keeps the histograms per-run. The traced side builds a span
    // tree per query and records it into a live TraceLog, exactly like a
    // server with ambient tracing on. The two modes are interleaved
    // rep-by-rep — back-to-back blocks of identical cold runs differ by
    // several percent from machine drift alone, which would swamp the
    // effect being priced — and the within-rep order alternates, because
    // both executors read the same shared corpus chunks and whichever
    // side runs second inherits a warm CPU cache.
    let overhead_config = ExecConfig {
        shards: 4,
        workers: 4,
        topk_cache: 0,
        answer_cache: 0,
        yask: YaskConfig::default(),
        ..ExecConfig::default()
    };
    let base_exec = Executor::new(corpus.clone(), overhead_config);
    let traced_exec = Executor::new(corpus.clone(), overhead_config);
    let log = TraceLog::new(256, 16);
    for q in &queries {
        std::hint::black_box(base_exec.top_k(q));
        std::hint::black_box(traced_exec.top_k(q));
    }
    // Rebuild both executors so the measured histograms exclude warmup.
    let base_exec = Executor::new(corpus.clone(), overhead_config);
    let traced_exec = Executor::new(corpus.clone(), overhead_config);
    let (base_handle, traced_handle) = (base_exec.engine(), traced_exec.engine());
    let mut base = Summary::new();
    let mut traced = Summary::new();
    let run_base = |q: &Query, base: &mut Summary| {
        let t0 = Instant::now();
        std::hint::black_box(base_exec.top_k_on(&base_handle, q));
        base.record_duration(t0.elapsed());
    };
    let run_traced = |q: &Query, traced: &mut Summary| {
        let t0 = Instant::now();
        let t = Trace::new("bench/topk");
        std::hint::black_box(traced_exec.top_k_deadline_on_traced(&traced_handle, q, Some(&t), None));
        log.record(t.finish());
        traced.record_duration(t0.elapsed());
    };
    // The pair is cheap relative to the full sweep, so it gets extra
    // reps: the comparison is mean-vs-mean and the cold tail (multi-ms
    // outliers) puts the noise floor of a 400-rep mean near ±5 % — far
    // above the effect being priced.
    let overhead_reps = reps * 16;
    for i in 0..overhead_reps {
        let q = &queries[i % queries.len()];
        if i % 2 == 0 {
            run_base(q, &mut base);
            run_traced(q, &mut traced);
        } else {
            run_traced(q, &mut traced);
            run_base(q, &mut base);
        }
    }
    let base_hist = base_exec.stats().topk_hist;
    record("topk/shards=4/untraced".to_owned(), 4, "untraced", &mut base, &base_hist);
    let traced_hist = traced_exec.stats().topk_hist;
    record("topk/shards=4/traced".to_owned(), 4, "traced", &mut traced, &traced_hist);
    let trace_overhead_pct = (traced.mean() - base.mean()) / base.mean() * 100.0;

    // Workload-observatory overhead, priced the same way: the full
    // `top_k` entry path (heat map touch + keyword sketch + window
    // record per query) with the observatory off vs. on, caches
    // disabled, rep-interleaved with alternating within-rep order at the
    // same 16× reps. Budget: < 3 % on the mean.
    let obs_off_config = ExecConfig {
        shards: 4,
        workers: 4,
        topk_cache: 0,
        answer_cache: 0,
        observatory: false,
        yask: YaskConfig::default(),
        ..ExecConfig::default()
    };
    let obs_on_config = ExecConfig {
        observatory: true,
        ..obs_off_config
    };
    let off_exec = Executor::new(corpus.clone(), obs_off_config);
    let on_exec = Executor::new(corpus.clone(), obs_on_config);
    for q in &queries {
        std::hint::black_box(off_exec.top_k(q));
        std::hint::black_box(on_exec.top_k(q));
    }
    let off_exec = Executor::new(corpus.clone(), obs_off_config);
    let on_exec = Executor::new(corpus.clone(), obs_on_config);
    let mut obs_off = Summary::new();
    let mut obs_on = Summary::new();
    let run_off = |q: &Query, s: &mut Summary| {
        let t0 = Instant::now();
        std::hint::black_box(off_exec.top_k(q));
        s.record_duration(t0.elapsed());
    };
    let run_on = |q: &Query, s: &mut Summary| {
        let t0 = Instant::now();
        std::hint::black_box(on_exec.top_k(q));
        s.record_duration(t0.elapsed());
    };
    for i in 0..overhead_reps {
        let q = &queries[i % queries.len()];
        if i % 2 == 0 {
            run_off(q, &mut obs_off);
            run_on(q, &mut obs_on);
        } else {
            run_on(q, &mut obs_on);
            run_off(q, &mut obs_off);
        }
    }
    let off_hist = off_exec.stats().topk_hist;
    record("topk/shards=4/obs_off".to_owned(), 4, "obs_off", &mut obs_off, &off_hist);
    let on_hist = on_exec.stats().topk_hist;
    record("topk/shards=4/obs_on".to_owned(), 4, "obs_on", &mut obs_on, &on_hist);
    let obs_overhead_pct = (obs_on.mean() - obs_off.mean()) / obs_off.mean() * 100.0;
    // Summary rows go last so the `record` closure's borrow of `rows`
    // has ended by the time they're pushed.
    for (label, pct) in [
        ("trace overhead", trace_overhead_pct),
        ("observatory overhead", obs_overhead_pct),
    ] {
        rows.push(vec![
            label.to_owned(),
            format!("{pct:+.2}%"),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }

    print_table(
        &format!("E9 exec scatter-gather (n = {n}, k = 10)"),
        &["bench", "mean", "p95", "hist p50", "hist p99", "reps"],
        &rows,
    );

    // Default to the workspace root regardless of cargo's bench CWD.
    let out = std::env::var("YASK_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_exec.json", env!("CARGO_MANIFEST_DIR")));
    let doc = Json::obj([
        ("experiment", Json::str("exec_scatter_gather")),
        ("host", yask_bench::host_info()),
        ("corpus", Json::Num(n as f64)),
        ("k", Json::Num(10.0)),
        ("reps", Json::Num(reps as f64)),
        ("smoke", Json::Bool(smoke)),
        // Mean regression of the traced 4-shard cold run vs. untraced —
        // the span-tracing budget is < 5 %.
        ("trace_overhead_pct", Json::Num(trace_overhead_pct)),
        // Mean regression with the workload observatory recording on the
        // full top_k entry path vs. off — budget is < 3 %.
        ("obs_overhead_pct", Json::Num(obs_overhead_pct)),
        ("traces_recorded", Json::Num(log.recorded() as f64)),
        ("results", Json::Arr(results)),
    ]);
    std::fs::write(&out, format!("{doc}\n")).expect("write bench artifact");
    println!("\nwrote {out}");
}
