//! E10 — the why-not fan-out: keyword + preference refinement latency
//! across shard counts, cold and warm.
//!
//! Measures the executor's two refinement models at 1/2/4/8 shards over
//! the standard clustered corpus. Preference sweeps one weight-plane
//! table of the live corpus at every K; keywords count exact ranks over
//! the shard trees, one after another on the calling thread; `shards =
//! 1` is the same code over a one-cell partition. Cold disables the
//! answer cache; warm pre-populates it with the whole workload. Results
//! land in `BENCH_whynot.json` so CI archives the perf trajectory.
//!
//! **Single-core caveat** (same as BENCH_exec.json / BENCH_ingest.json):
//! on a one-core bench host the fan-out can only add scatter overhead —
//! the shard rows measure the *cost ceiling* of the parallel machinery,
//! not the speedup; re-measure on multi-core before tuning the default
//! shard count. The memory win is independent of core count: the global
//! tree is gone at every K.
//!
//! Run with: `cargo bench --bench whynot_sharded` (append `-- --smoke`
//! for the CI short-iteration mode; `YASK_BENCH_OUT` overrides the
//! artifact path).

use std::time::Instant;

use yask_bench::{fmt_us, print_table, std_corpus};
use yask_exec::{ExecConfig, Executor, WhyNotKind};
use yask_geo::Point;
use yask_index::ObjectId;
use yask_obs::HistogramSnapshot;
use yask_query::{topk_scan, Query, Weights};
use yask_server::Json;
use yask_text::KeywordSet;
use yask_util::{Summary, Xoshiro256};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const LAMBDA: f64 = 0.5;

/// Why-not cases: a query plus one genuinely missing object each.
fn workload(exec: &Executor, n_cases: usize, seed: u64) -> Vec<(Query, Vec<ObjectId>)> {
    let corpus = exec.corpus();
    let params = exec.engine().score_params();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n_cases);
    while out.len() < n_cases {
        let q = Query::with_weights(
            Point::new(rng.next_f64(), rng.next_f64()),
            KeywordSet::from_raw((0..2 + rng.below(2)).map(|_| rng.below(5_000) as u32)),
            10,
            Weights::from_ws(rng.range_f64(0.3, 0.7)),
        );
        // The object a handful of ranks past k is the classic why-not case.
        let all = topk_scan(&corpus, &params, &q.with_k(q.k + 8));
        if all.len() > q.k + 4 {
            let missing = vec![all[q.k + 4].id];
            out.push((q, missing));
        }
    }
    out
}

fn measure(
    reps: usize,
    cases: &[(Query, Vec<ObjectId>)],
    mut f: impl FnMut(&Query, &[ObjectId]),
) -> Summary {
    let mut s = Summary::new();
    for i in 0..reps {
        let (q, missing) = &cases[i % cases.len()];
        let t0 = Instant::now();
        f(q, missing);
        s.record_duration(t0.elapsed());
    }
    s
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, cases_n, reps) = if smoke { (4_000, 12, 24) } else { (20_000, 32, 120) };
    let corpus = std_corpus(n);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut results: Vec<Json> = Vec::new();
    // `hist` is the executor's per-module why-not latency histogram (the
    // series `/metrics` exports as yask_whynot_latency_seconds). It only
    // samples computed runs, so warm (cache-hit) rows pass None.
    let mut record = |name: String,
                      shards: usize,
                      model: &str,
                      mode: &str,
                      s: &mut Summary,
                      index_bytes: usize,
                      hist: Option<&HistogramSnapshot>| {
        let (mean, p95, reps) = (s.mean(), s.percentile(95.0), s.len());
        let quantiles = hist.map(|h| (h.p50() as f64 / 1_000.0, h.p99() as f64 / 1_000.0));
        rows.push(vec![
            name.clone(),
            fmt_us(mean),
            fmt_us(p95),
            quantiles.map_or_else(|| "-".into(), |(p50, _)| fmt_us(p50)),
            quantiles.map_or_else(|| "-".into(), |(_, p99)| fmt_us(p99)),
            reps.to_string(),
        ]);
        let mut fields = vec![
            ("name", Json::str(name)),
            ("shards", Json::Num(shards as f64)),
            ("model", Json::str(model)),
            ("mode", Json::str(mode)),
            ("mean_us", Json::Num(mean)),
            ("p95_us", Json::Num(p95)),
            ("reps", Json::Num(reps as f64)),
            ("index_bytes", Json::Num(index_bytes as f64)),
        ];
        if let Some((p50, p99)) = quantiles {
            fields.push(("hist_p50_us", Json::Num(p50)));
            fields.push(("hist_p99_us", Json::Num(p99)));
        }
        results.push(Json::obj(fields));
    };

    for shards in SHARD_COUNTS {
        // Cold: answer cache off, every request is a full computation.
        let cold = Executor::new(
            corpus.clone(),
            ExecConfig {
                shards,
                workers: shards,
                topk_cache: 0,
                answer_cache: 0,
                ..ExecConfig::default()
            },
        );
        let index_bytes = cold.stats().index_bytes;
        let cases = workload(&cold, cases_n, 11);
        let mut kw = measure(reps, &cases, |q, m| {
            std::hint::black_box(cold.refine_keywords(q, m, LAMBDA).ok());
        });
        let kw_hist = cold.stats().whynot_hists.of(WhyNotKind::Keyword).clone();
        record(
            format!("keyword/shards={shards}/cold"),
            shards,
            "keyword",
            "cold",
            &mut kw,
            index_bytes,
            Some(&kw_hist),
        );
        let mut pref = measure(reps, &cases, |q, m| {
            std::hint::black_box(cold.refine_preference(q, m, LAMBDA).ok());
        });
        let pref_hist = cold.stats().whynot_hists.of(WhyNotKind::Preference).clone();
        record(
            format!("preference/shards={shards}/cold"),
            shards,
            "preference",
            "cold",
            &mut pref,
            index_bytes,
            Some(&pref_hist),
        );

        // Warm: answer cache on and pre-populated with the workload.
        let warm_exec = Executor::new(
            corpus.clone(),
            ExecConfig {
                shards,
                workers: shards,
                topk_cache: 0,
                answer_cache: 1024,
                ..ExecConfig::default()
            },
        );
        for (q, m) in &cases {
            let _ = warm_exec.refine_keywords(q, m, LAMBDA);
            let _ = warm_exec.refine_preference(q, m, LAMBDA);
        }
        let mut kw_warm = measure(reps, &cases, |q, m| {
            std::hint::black_box(warm_exec.refine_keywords(q, m, LAMBDA).ok());
        });
        record(
            format!("keyword/shards={shards}/warm"),
            shards,
            "keyword",
            "warm",
            &mut kw_warm,
            index_bytes,
            None,
        );
        let mut pref_warm = measure(reps, &cases, |q, m| {
            std::hint::black_box(warm_exec.refine_preference(q, m, LAMBDA).ok());
        });
        record(
            format!("preference/shards={shards}/warm"),
            shards,
            "preference",
            "warm",
            &mut pref_warm,
            index_bytes,
            None,
        );
    }

    print_table(
        &format!("E10 why-not sharded fan-out (n = {n}, k = 10, λ = {LAMBDA})"),
        &["bench", "mean", "p95", "hist p50", "hist p99", "reps"],
        &rows,
    );

    // Default to the workspace root regardless of cargo's bench CWD.
    let out = std::env::var("YASK_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_whynot.json", env!("CARGO_MANIFEST_DIR")));
    let doc = Json::obj([
        ("experiment", Json::str("whynot_sharded_fanout")),
        ("host", yask_bench::host_info()),
        ("corpus", Json::Num(n as f64)),
        ("k", Json::Num(10.0)),
        ("lambda", Json::Num(LAMBDA)),
        ("reps", Json::Num(reps as f64)),
        ("smoke", Json::Bool(smoke)),
        (
            "note",
            Json::str(
                "single-core bench host: sharded rows measure fan-out overhead, not speedup; \
                 re-measure on multi-core before tuning the default shard count. index_bytes \
                 shows the memory side: the shard trees are the whole index (no global tree).",
            ),
        ),
        ("results", Json::Arr(results)),
    ]);
    std::fs::write(&out, format!("{doc}\n")).expect("write bench artifact");
    println!("\nwrote {out}");
}
