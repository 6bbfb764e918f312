//! The declared surface of the benchmark: workload and metric names,
//! units and better-directions. `BENCHMARK.json` at the repository root
//! repeats these lists for the driver; a unit test keeps the two equal.

/// One declared metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median; `None` for
    /// per-layer metrics, which are reported but never gated.
    pub bound: Option<f64>,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The workloads, in run order, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "read_cached",
        "Zipf(1.0) over 256 queries, top-k cache hits: engine work is ~0, so the HTTP edge (parse, JSON, session, writev) is all the time; index changes must not show here",
    ),
    (
        "read_cold",
        "every query distinct, cache on but never hits: KcR-tree descent under 2-shard scatter-gather dominates and the edge is small; edge changes must not show here",
    ),
    (
        "read_oocore",
        "distinct queries with resident_budget = 25% of the largest shard arena: working set exceeds the chunk cache, so pager fault+decode dominates (read_cold is the in-memory twin)",
    ),
    (
        "whynot_session",
        "query then explain/preference/keywords/combined on one missing object ranked k+1..k+40, all distinct so the answer cache misses: the paper's why-not modules and their shard fan-out dominate",
    ),
    (
        "write_mix",
        "80% queries from a 2048-query pool, 20% insert/delete on a WAL-backed service with checkpoints, then crash-restart: read, write and space costs trade against each other here",
    ),
];

/// End-to-end metrics: client-observed over HTTP with tracing off, and
/// meaningful (never 0) on every workload, because the driver gates each
/// of them on each workload. The bounds are the widest the contract
/// allows: on the 2-core sandbox the same commit, same seeds, measured
/// twenty minutes apart moved by up to 14 % (README, "Measured spread").
pub const END_TO_END: [MetricSpec; 4] = [
    gated("query_p50_us", "us", "lower", 0.25),
    gated("ops_s", "1/s", "higher", 0.25),
    gated("rss_peak_mb", "MB", "lower", 0.25),
    gated("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics (layer = crate name, `http` = the client's view of
/// one operation type). Reported by the traced pass; 0 where the layer
/// does no work on a workload.
pub const PER_LAYER: [MetricSpec; 67] = [
    // -- client view of the operations that only some workloads issue --
    layer("http.explain_p50_us", "us", "lower"),
    layer("http.preference_p50_us", "us", "lower"),
    layer("http.keywords_p50_us", "us", "lower"),
    layer("http.combined_p50_us", "us", "lower"),
    layer("http.write_p50_us", "us", "lower"),
    layer("http.write_p99_us", "us", "lower"),
    layer("http.write_ops_s", "1/s", "higher"),
    layer("http.recovery_s", "s", "lower"),
    layer("http.disk_bytes_per_user_byte", "ratio", "lower"),
    // -- server: the HTTP edge and the API layer --
    layer("server.query_p99_us", "us", "lower"),
    layer("server.edge_self_us", "us", "lower"),
    layer("server.api_self_us", "us", "lower"),
    layer("server.json_parse_us", "us", "lower"),
    layer("server.json_render_us", "us", "lower"),
    layer("server.resp_bytes", "bytes", "lower"),
    layer("server.accepts", "count", "lower"),
    layer("server.shed", "count", "lower"),
    layer("server.sessions_peak", "count", "lower"),
    layer("server.coalesce_batches_per_group", "ratio", "higher"),
    // -- exec: scatter-gather, caches, write publication --
    layer("exec.topk_us", "us", "lower"),
    layer("exec.self_us", "us", "lower"),
    layer("exec.shard_search_us", "us", "lower"),
    layer("exec.queue_depth_max", "count", "lower"),
    layer("exec.cache_hit_rate", "ratio", "higher"),
    layer("exec.cache_evictions", "count", "lower"),
    layer("exec.answer_cache_hit_rate", "ratio", "higher"),
    layer("exec.apply_batch_us", "us", "lower"),
    layer("exec.rebalances", "count", "lower"),
    // -- index + query: the KcR-tree and its best-first search --
    layer("index.tree_topk_us", "us", "lower"),
    layer("index.nodes_expanded_per_query", "count", "lower"),
    layer("index.objects_scored_per_query", "count", "lower"),
    layer("index.objects_scored_per_result", "ratio", "lower"),
    layer("index.build_s", "s", "lower"),
    layer("index.bytes", "bytes", "lower"),
    layer("index.arena_bytes", "bytes", "lower"),
    layer("index.copy_bytes_per_batch", "bytes", "lower"),
    layer("index.chunks_copied_per_batch", "count", "lower"),
    layer("index.corpus_copy_bytes_per_batch", "bytes", "lower"),
    // -- core: the why-not modules, called directly on the executor --
    layer("core.explain_us", "us", "lower"),
    layer("core.preference_us", "us", "lower"),
    layer("core.keywords_us", "us", "lower"),
    layer("core.combined_us", "us", "lower"),
    layer("core.pref_candidates_per_question", "count", "lower"),
    layer("core.kw_enumerated_per_question", "count", "lower"),
    layer("core.kw_exact_evaluated_per_question", "count", "lower"),
    layer("core.kw_bound_pruned_ratio", "ratio", "higher"),
    layer("core.kw_objects_scored_per_question", "count", "lower"),
    // -- ingest: WAL, checkpoints, recovery --
    layer("ingest.apply_us", "us", "lower"),
    layer("ingest.wal_append_us", "us", "lower"),
    layer("ingest.wal_fsync_us", "us", "lower"),
    layer("ingest.fsyncs_per_write", "ratio", "lower"),
    layer("ingest.wal_bytes_per_write", "bytes", "lower"),
    layer("ingest.checkpoints", "count", "lower"),
    layer("ingest.checkpoint_total_s", "s", "lower"),
    layer("ingest.write_stall_max_us", "us", "lower"),
    layer("ingest.recovery_replayed_batches", "count", "lower"),
    // -- pager: out-of-core chunk cache and the buffer pools --
    layer("pager.chunk_faults_per_query", "count", "lower"),
    layer("pager.chunk_hit_rate", "ratio", "higher"),
    layer("pager.chunk_evictions", "count", "lower"),
    layer("pager.pool_misses_per_query", "count", "lower"),
    layer("pager.resident_chunks", "count", "lower"),
    layer("pager.fault_us", "us", "lower"),
    layer("pager.wal_pool_accesses", "count", "lower"),
    layer("pager.checkpoint_pool_accesses", "count", "lower"),
    // -- the benchmark's own tracing --
    layer("obs.trace_overhead_pct", "%", "lower"),
    layer("obs.spans", "count", "lower"),
    layer("obs.traced_requests", "count", "higher"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use yask_server::Json;

    fn declared(list: &Json) -> Vec<(String, String, String, Option<f64>)> {
        list.as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_owned(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_owned(),
                    m.get("better")
                        .and_then(Json::as_str)
                        .expect("better")
                        .to_owned(),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn specs(list: &[MetricSpec]) -> Vec<(String, String, String, Option<f64>)> {
        list.iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.to_owned(),
                    m.bound,
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// binary prints. They must declare the same things.
    #[test]
    fn benchmark_json_matches_the_declared_surface() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(doc.get("end_to_end").unwrap()), specs(&END_TO_END));
        assert_eq!(declared(doc.get("per_layer").unwrap()), specs(&PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap().to_owned(),
                    w.get("why").and_then(Json::as_str).unwrap().to_owned(),
                )
            })
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| ((*n).to_owned(), (*w).to_owned()))
            .collect();
        assert_eq!(workloads, want);
        let generated: Vec<&str> = crate::gen::Workload::ALL.iter().map(|w| w.name()).collect();
        let declared: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            generated, declared,
            "the generator and the declaration name the same workloads"
        );
        assert_eq!(
            doc.get("paths").and_then(Json::as_array).map(|p| p.len()),
            Some(1),
            "the benchmark lives in one directory"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|(n, _)| *n));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{m:?}");
            assert!(m.better == "lower" || m.better == "higher", "{m:?}");
        }
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200, "{name}: why is {} chars", why.len());
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }
}
