//! The traced pass (`--trace 1`): where the time of a request goes.
//!
//! A fixed number of generated operations is timed at four depths — an
//! *onion replay* of one request stream:
//!
//! 1. the HTTP round trip (span `http`, recorded by the client), and
//!    inside it
//! 2. `YaskService::handle` (span `server.handle`, recorded by a wrapper
//!    around the handler, so depths 1 and 2 nest in real time); then,
//!    replayed outside the request,
//! 3. the same operation called directly on an identically configured
//!    replica `Executor` / `Ingestor` (`exec.topk`, `core.<module>`,
//!    `ingest.apply`), and
//! 4. the same query run by `yask_query::topk_tree` on one bulk-loaded
//!    KcR-tree (`index.tree_topk`).
//!
//! Replayed spans are grafted under the span of the depth above, so one
//! rule — self time = span minus the interval its children cover — gives
//! every layer's share. Counts come from `/stats` before and after the
//! HTTP pass, from the replica's own counters, and from the work
//! counters on returned refinements. The operation count is fixed by
//! `--seed`, `--seconds` and the workload, so counts repeat exactly.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

use yask_core::{Yask, YaskConfig};
use yask_exec::{EngineHandle, ExecSnapshot, Executor};
use yask_index::ObjectId;
use yask_ingest::{CheckpointConfig, Ingestor};
use yask_query::{topk_tree_with_stats, Query, ScoreParams};
use yask_server::Json;

use crate::driver::Driver;
use crate::gen::{Op, WhyNot, Workload};
use crate::run::{self, median, stat, Outcome, RunConfig};
use crate::span::{self, Span};
use crate::system::{self, TraceCtx};

/// Queries replayed on the single tree per 10 s of `--seconds`, at most.
const TREE_REPLAYS_PER_10S: usize = 1_000;

/// Work counters summed over the replayed why-not questions.
#[derive(Default)]
struct WhyNotWork {
    questions: u64,
    pref_candidates: u64,
    kw_enumerated: u64,
    kw_exact: u64,
    kw_pruned: u64,
    kw_scored: u64,
}

/// Runs `f` and returns how long it took, in nanoseconds.
fn timed(f: impl FnOnce()) -> u64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as u64
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean search time of the slowest shard between two replica snapshots.
fn slowest_shard_us(before: &ExecSnapshot, after: &ExecSnapshot) -> f64 {
    before
        .per_shard
        .iter()
        .zip(&after.per_shard)
        .map(|(b, a)| ratio(a.total_us - b.total_us, (a.queries - b.queries) as f64))
        .fold(0.0, f64::max)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let scale = run::scale(cfg.workload, cfg.smoke);
    let mut out = Outcome::default();
    let ctx = TraceCtx::new();
    let dir = cfg.out_dir.join("data-traced");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the run's data directory");

    let (corpus, system, _) = system::set_up(
        cfg.workload,
        scale.n,
        &dir,
        scale.checkpoint_every,
        Some(ctx.clone()),
    );

    // The inner depths: one bulk-loaded tree (also the why-not oracle's
    // index) and a replica of the service's execution layer.
    let t0 = Instant::now();
    let tree = Yask::new(corpus.clone(), YaskConfig::default());
    out.set("index.build_s", t0.elapsed().as_secs_f64());
    let params = ScoreParams::new(corpus.space());
    let budget = (cfg.workload == Workload::ReadOocore).then(|| system::oocore_budget(&corpus));
    let replica = Executor::new(corpus.clone(), system::exec_config(budget));
    let replica_log = (cfg.workload == Workload::WriteMix).then(|| {
        Ingestor::with_wal_config(
            corpus.clone(),
            &dir.join("replica.wal"),
            CheckpointConfig {
                max_wal_batches: scale.checkpoint_every,
                ..CheckpointConfig::default()
            },
        )
        .expect("open the replica's write-ahead log")
    });
    // `read_oocore` also replays on a resident twin: the difference per
    // fault is what one chunk fault costs.
    let resident_twin = budget.map(|_| Executor::new(corpus.clone(), system::exec_config(None)));

    let mut driver = Driver::new(cfg.workload, &corpus, cfg.seed, &system, &dir);
    let mut ops_total = ((scale.trace_ops as f64 * cfg.seconds / 10.0).ceil() as usize).max(10);
    if cfg.workload == Workload::WhynotSession {
        ops_total = ops_total.div_ceil(5) * 5; // whole sessions
    }

    // A fixed warm-up, then an untraced reference pass (a quarter of
    // the count) for the tracing overhead, then the traced pass.
    let warm = driver.plan(scale.trace_warm_ops.div_ceil(5) * 5);
    driver.run_block(&system, &warm, None);
    driver.reset_samples();
    let reference = driver.plan((ops_total / 4).div_ceil(5) * 5);
    driver.run_block(&system, &reference, None);
    let reference_p50 = median(driver.latency_us.get("query").map_or(&[][..], |v| v));
    driver.reset_samples();

    let ops = driver.plan(ops_total);
    let stats_before = run::fetch_stats(&mut driver);
    let hists_before = system.service.ingestor().latency_snapshots();
    ctx.enabled.store(true, Ordering::Release);
    let secs = driver.run_block(&system, &ops, Some(&ctx));
    ctx.enabled.store(false, Ordering::Release);
    let stats_after = run::fetch_stats(&mut driver);
    let hists_after = system.service.ingestor().latency_snapshots();
    run::client_metrics(&mut out, &driver, &[ops.len() as f64 / secs]);

    // -- depth 3: replay on the replica. Each depth is its own loop, so
    // one depth's working set does not evict the other's from the CPU
    // caches between two operations. --
    let handle_of: BTreeMap<u64, Span> = ctx
        .rec
        .snapshot()
        .into_iter()
        .filter(|s| s.name == "server.handle")
        .filter_map(|s| s.parent.map(|p| (p, s)))
        .collect();
    // The replica first catches up on the writes the service took
    // before the traced pass, so ids and epochs line up from here on.
    if let Some(log) = &replica_log {
        for update in warm.iter().chain(&reference).filter_map(Op::to_update) {
            log.apply(&replica, &[update])
                .expect("the replica applies what the server applied");
        }
    }
    let replica_before = replica.stats();
    let mut pinned: EngineHandle = replica.engine();
    let mut session_query = None;
    let mut work = WhyNotWork::default();
    let lambda = YaskConfig::default().default_lambda;
    // The `exec.topk` span of each traced query, for depth 4 to hang from.
    let mut exec_spans: Vec<(Query, u64)> = Vec::new();
    for req in &driver.traced {
        let Some(handle_span) = handle_of.get(&req.http_span) else {
            continue;
        };
        match &req.op {
            Op::Query(spec) => {
                let q = spec.to_query();
                pinned = replica.engine();
                let ns = timed(|| {
                    std::hint::black_box(replica.top_k_on(&pinned, &q));
                });
                exec_spans.push((q.clone(), ctx.rec.graft("exec.topk", 0, ns, handle_span)));
                session_query = Some(q);
            }
            Op::WhyNot { kind, missing } => {
                let Some(q) = &session_query else { continue };
                let m = [ObjectId(*missing)];
                let mut refined = None;
                let (name, ns): (&'static str, u64) = match kind {
                    WhyNot::Explain => (
                        "core.explain",
                        timed(|| {
                            std::hint::black_box(replica.explain_on(&pinned, q, &m).ok());
                        }),
                    ),
                    WhyNot::Preference => (
                        "core.preference",
                        timed(|| {
                            if let Ok(r) = replica.refine_preference_on(&pinned, q, &m, lambda) {
                                work.pref_candidates += r.candidates as u64;
                                refined = Some(r.query);
                            }
                        }),
                    ),
                    WhyNot::Keywords => (
                        "core.keywords",
                        timed(|| {
                            if let Ok(r) = replica.refine_keywords_on(&pinned, q, &m, lambda) {
                                work.kw_enumerated += r.stats.enumerated as u64;
                                work.kw_exact += r.stats.exact_evaluated as u64;
                                work.kw_pruned += r.stats.bound_pruned as u64;
                                work.kw_scored += r.stats.objects_scored as u64;
                                refined = Some(r.query);
                            }
                        }),
                    ),
                    WhyNot::Combined => (
                        "core.combined",
                        timed(|| {
                            if let Ok(r) = replica.refine_combined_on(&pinned, q, &m, lambda) {
                                refined = Some(r.query);
                            }
                        }),
                    ),
                };
                work.questions += u64::from(*kind == WhyNot::Keywords);
                ctx.rec.graft(name, 0, ns, handle_span);
                // The API previews the refined query's result as well.
                if let Some(rq) = refined {
                    let topk_ns = timed(|| {
                        std::hint::black_box(replica.top_k_on(&pinned, &rq));
                    });
                    ctx.rec.graft("exec.refined_topk", ns, topk_ns, handle_span);
                }
            }
            op => {
                let (Some(log), Some(update)) = (&replica_log, op.to_update()) else {
                    continue;
                };
                let ns = timed(|| {
                    log.apply(&replica, std::slice::from_ref(&update))
                        .expect("the replica applies what the server applied");
                });
                ctx.rec.graft("ingest.apply", 0, ns, handle_span);
            }
        }
    }
    let replica_after = replica.stats();

    // -- depth 4: the same queries on one bulk-loaded KcR-tree. A cached
    // workload sends tens of thousands of repeats; a bounded prefix of
    // them says all there is to say about the tree. --
    exec_spans.truncate((TREE_REPLAYS_PER_10S as f64 * cfg.seconds / 10.0).ceil() as usize);
    let (mut nodes, mut scored, mut results) = (0u64, 0u64, 0u64);
    for (q, exec_span) in &exec_spans {
        let mut stats = yask_query::TraversalStats::default();
        let ns = timed(|| {
            let (top, s) = topk_tree_with_stats(tree.tree(), &params, q);
            results += top.len() as u64;
            stats = s;
        });
        ctx.rec
            .graft("index.tree_topk", 0, ns, &ctx.rec.get(*exec_span));
        nodes += stats.nodes_expanded as u64;
        scored += stats.objects_scored as u64;
    }
    let tree_queries = exec_spans.len() as u64;
    let twin_us: Vec<f64> = resident_twin
        .iter()
        .flat_map(|twin| {
            exec_spans.iter().map(|(q, _)| {
                timed(|| {
                    std::hint::black_box(twin.top_k(q));
                }) as f64
                    / 1e3
            })
        })
        .collect();

    // -- JSON cost, on the very bodies that crossed the wire --
    let (mut parse_us, mut render_us) = (Vec::new(), Vec::new());
    for req in &driver.traced {
        let body = req.op.body(1);
        if !body.is_empty() {
            let t0 = Instant::now();
            std::hint::black_box(Json::parse(&body).ok());
            parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        if let Ok(doc) = Json::parse(&req.body) {
            let t0 = Instant::now();
            std::hint::black_box(doc.to_string());
            render_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }

    // -- spans to disk, then self times --
    let spans = ctx.rec.snapshot();
    let trace_path = cfg
        .out_dir
        .join(format!("trace-{}.jsonl", cfg.workload.name()));
    if let Err(e) = span::write_jsonl(&trace_path, &spans) {
        driver.fail(format!("write {}: {e}", trace_path.display()));
    }
    let own = span::self_us_by_name(&spans);
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    };
    let none = Vec::new();
    out.set_n(
        "server.edge_self_us",
        median(own.get("http").unwrap_or(&none)),
        driver.traced.len(),
    );
    out.set(
        "server.api_self_us",
        median(own.get("server.handle").unwrap_or(&none)),
    );
    out.set_n("server.json_parse_us", median(&parse_us), parse_us.len());
    out.set_n("server.json_render_us", median(&render_us), render_us.len());
    let topk = durations("exec.topk");
    out.set_n("exec.topk_us", median(&topk), topk.len());
    let shard_us = slowest_shard_us(&replica_before, &replica_after);
    out.set("exec.shard_search_us", shard_us);
    // Mean against mean: the per-shard counters only give totals.
    out.set(
        "exec.self_us",
        if shard_us > 0.0 {
            (mean(&topk) - shard_us).max(0.0)
        } else {
            0.0
        },
    );
    out.set_n(
        "index.tree_topk_us",
        median(&durations("index.tree_topk")),
        tree_queries as usize,
    );
    for kind in WhyNot::ALL {
        let d = durations(&format!("core.{}", kind.name()));
        out.set_n(&format!("core.{}_us", kind.name()), median(&d), d.len());
    }
    let applies = durations("ingest.apply");
    out.set_n("ingest.apply_us", median(&applies), applies.len());

    // -- counts --
    let delta = |path: &[&str]| stat(&stats_after, path) - stat(&stats_before, path);
    let q = tree_queries as f64;
    out.set("index.nodes_expanded_per_query", ratio(nodes as f64, q));
    out.set("index.objects_scored_per_query", ratio(scored as f64, q));
    out.set(
        "index.objects_scored_per_result",
        ratio(scored as f64, results as f64),
    );
    out.set("index.bytes", stat(&stats_after, &["exec", "index_bytes"]));
    let arena: f64 = stats_after
        .get("exec")
        .and_then(|e| e.get("per_shard"))
        .and_then(Json::as_array)
        .map_or(0.0, |shards| {
            shards.iter().map(|s| stat(s, &["arena_bytes"])).sum()
        });
    out.set("index.arena_bytes", arena);
    out.set("server.shed", delta(&["admission", "shed_total"]));
    out.set(
        "exec.queue_depth_max",
        stat(&stats_after, &["exec", "queue_depth_max"]),
    );
    let hits = delta(&["exec", "topk_cache", "hits"]);
    out.set(
        "exec.cache_hit_rate",
        ratio(hits, hits + delta(&["exec", "topk_cache", "misses"])),
    );
    out.set(
        "exec.cache_evictions",
        delta(&["exec", "topk_cache", "evictions"]),
    );
    let answer_hits = delta(&["exec", "answer_cache", "hits"]);
    out.set(
        "exec.answer_cache_hit_rate",
        ratio(
            answer_hits,
            answer_hits + delta(&["exec", "answer_cache", "misses"]),
        ),
    );
    out.set("exec.rebalances", delta(&["exec", "rebalances"]));
    let batches = delta(&["exec", "batches"]);
    out.set(
        "index.copy_bytes_per_batch",
        ratio(delta(&["exec", "index_copy_bytes"]), batches),
    );
    out.set(
        "index.chunks_copied_per_batch",
        ratio(delta(&["exec", "index_chunks_copied"]), batches),
    );
    out.set(
        "index.corpus_copy_bytes_per_batch",
        ratio(delta(&["ingest", "copy_bytes"]), batches),
    );
    out.set(
        "server.coalesce_batches_per_group",
        ratio(
            delta(&["ingest", "coalesce_batches"]),
            delta(&["ingest", "coalesce_groups"]),
        ),
    );
    out.set("ingest.checkpoints", delta(&["ingest", "checkpoints"]));
    out.set(
        "pager.wal_pool_accesses",
        delta(&["ingest", "wal_pool_hits"]) + delta(&["ingest", "wal_pool_misses"]),
    );
    out.set(
        "pager.checkpoint_pool_accesses",
        delta(&["ingest", "checkpoint_pool_hits"]) + delta(&["ingest", "checkpoint_pool_misses"]),
    );
    let served = delta(&["exec", "queries"]);
    let faults = delta(&["exec", "pager", "chunk_misses"]);
    let chunk_hits = delta(&["exec", "pager", "chunk_hits"]);
    out.set("pager.chunk_faults_per_query", ratio(faults, served));
    out.set(
        "pager.chunk_hit_rate",
        ratio(chunk_hits, chunk_hits + faults),
    );
    out.set(
        "pager.chunk_evictions",
        delta(&["exec", "pager", "chunk_evictions"]),
    );
    out.set(
        "pager.pool_misses_per_query",
        ratio(delta(&["exec", "pager", "pool_misses"]), served),
    );
    out.set(
        "pager.resident_chunks",
        stat(&stats_after, &["exec", "pager", "resident_chunks"]),
    );
    if let (Some(b), Some(a)) = (&replica_before.pager, &replica_after.pager) {
        let per_query = ratio((a.chunk_misses - b.chunk_misses) as f64, topk.len() as f64);
        out.set(
            "pager.fault_us",
            ratio((mean(&topk) - mean(&twin_us)).max(0.0), per_query),
        );
    }

    // -- the write path's own histograms (service side, HTTP pass) --
    let writes = driver.writes.writes as f64;
    out.set(
        "exec.apply_batch_us",
        hists_after.write_apply.p50() as f64 / 1e3,
    );
    out.set(
        "ingest.wal_append_us",
        hists_after.wal_append.p50() as f64 / 1e3,
    );
    out.set(
        "ingest.wal_fsync_us",
        hists_after.wal_fsync.p50() as f64 / 1e3,
    );
    out.set(
        "ingest.fsyncs_per_write",
        ratio(
            hists_after
                .wal_fsync
                .count
                .saturating_sub(hists_before.wal_fsync.count) as f64,
            writes,
        ),
    );
    out.set(
        "ingest.checkpoint_total_s",
        hists_after
            .checkpoint
            .sum_ns
            .saturating_sub(hists_before.checkpoint.sum_ns) as f64
            / 1e9,
    );

    // -- why-not work per question --
    let questions = work.questions as f64;
    out.set(
        "core.pref_candidates_per_question",
        ratio(work.pref_candidates as f64, questions),
    );
    out.set(
        "core.kw_enumerated_per_question",
        ratio(work.kw_enumerated as f64, questions),
    );
    out.set(
        "core.kw_exact_evaluated_per_question",
        ratio(work.kw_exact as f64, questions),
    );
    out.set(
        "core.kw_bound_pruned_ratio",
        ratio(work.kw_pruned as f64, work.kw_enumerated as f64),
    );
    out.set(
        "core.kw_objects_scored_per_question",
        ratio(work.kw_scored as f64, questions),
    );

    // -- the tracing itself --
    let traced_p50 = out.metrics.get("query_p50_us").copied().unwrap_or(0.0);
    out.set(
        "obs.trace_overhead_pct",
        ratio((traced_p50 - reference_p50) * 100.0, reference_p50),
    );
    out.set("obs.spans", spans.len() as f64);
    out.set("obs.traced_requests", driver.traced.len() as f64);

    drop((replica_log, resident_twin));
    run::finish(cfg, &scale, &corpus, system, driver, &dir, &mut out);
    out
}
