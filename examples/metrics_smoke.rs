//! Observability smoke (ISSUE 7 acceptance, CI's scrape step): boot the
//! YASK web service, drive one traced query and one why-not question
//! through the HTTP surface, then scrape `GET /metrics` and validate the
//! whole payload with the same Prometheus text-exposition parser the
//! unit tests use — every family declared, every sample well-formed,
//! every histogram series consistent — then reads `GET /stats` and checks
//! the counters it shares with `/metrics` agree. Finishes by checking the
//! slow-query log (`GET /debug/slow`) carries the span trees it just
//! produced.
//!
//! Run with: `cargo run --release --example metrics_smoke`

use std::sync::Arc;

use yask::obs::validate_exposition;
use yask::server::{http_get_text, http_post, HttpServer, Json, YaskService};

fn main() {
    let service = Arc::new(YaskService::hk_demo());
    let server = HttpServer::spawn(0, 4, service.clone().into_handler()).expect("bind server");
    let addr = server.addr();
    println!("YASK server listening on http://{addr}/");

    // One query and one why-not explanation so every request-path
    // histogram (top-k, per-shard search, why-not module) has samples.
    let (status, reply) = http_post(
        addr,
        "/query",
        &Json::obj([
            ("x", Json::Num(114.172)),
            ("y", Json::Num(22.297)),
            (
                "keywords",
                Json::Arr(vec![Json::str("clean"), Json::str("comfortable")]),
            ),
            ("k", Json::Num(3.0)),
        ]),
    )
    .expect("query");
    assert_eq!(status, 200, "POST /query failed: {reply}");
    let session = reply.get("session").unwrap().as_f64().unwrap();
    let top: Vec<String> = reply
        .get("results")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|r| r.get("name").unwrap().as_str().unwrap().to_owned())
        .collect();
    let missing = service
        .engine()
        .corpus()
        .iter()
        .map(|o| o.name.clone())
        .find(|n| !top.contains(n))
        .unwrap();
    let (status, reply) = http_post(
        addr,
        "/whynot/explain",
        &Json::obj([
            ("session", Json::Num(session)),
            ("missing", Json::Arr(vec![Json::str(missing)])),
        ]),
    )
    .expect("explain");
    assert_eq!(status, 200, "POST /whynot/explain failed: {reply}");

    // The scrape: the full payload must parse as valid exposition.
    let (status, text) = http_get_text(addr, "/metrics").expect("scrape /metrics");
    assert_eq!(status, 200);
    let summary = validate_exposition(&text)
        .unwrap_or_else(|e| panic!("/metrics is not valid Prometheus exposition: {e}"));
    println!(
        "GET /metrics -> {} families, {} histograms, {} samples",
        summary.families, summary.histograms, summary.samples
    );
    for family in [
        "yask_queries_total",
        "yask_cache_hits_total",
        "yask_sessions_live",
        "yask_topk_latency_seconds",
        "yask_shard_search_latency_seconds",
        "yask_whynot_latency_seconds",
        "yask_wal_append_latency_seconds",
        "yask_write_apply_latency_seconds",
        "yask_shed_total",
        "yask_deadline_exceeded_total",
        "yask_degraded_answers_total",
    ] {
        assert!(summary.has_family(family), "missing family {family}");
    }
    assert!(
        summary.histograms >= 8,
        "expected >= 8 histogram families, got {}",
        summary.histograms
    );

    // `/stats` is the same sample list folded into JSON: the counters the
    // two requests moved must read the same over the real socket under
    // either name. This is how a newly added metric is verified too.
    let (status, stats) = http_get_text(addr, "/stats").expect("scrape /stats");
    assert_eq!(status, 200);
    let stats = Json::parse(&stats).expect("parse /stats");
    let pairs: [(&[&str], &str); 3] = [
        (&["exec", "queries"], "yask_queries_total"),
        (&["exec", "topk_cache", "misses"], r#"yask_cache_misses_total{cache="topk"}"#),
        (&["sessions", "live"], "yask_sessions_live"),
    ];
    for (path, series) in pairs {
        let on_stats = path
            .iter()
            .try_fold(&stats, |node, key| node.get(key))
            .and_then(Json::as_f64);
        let on_metrics = text
            .lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse::<f64>().ok());
        assert!(on_stats.is_some(), "/stats has no {path:?}");
        assert_eq!(on_stats, on_metrics, "/stats {path:?} != /metrics {series}");
    }
    println!("GET /stats -> exec.queries, exec.topk_cache.misses, sessions.live match /metrics");

    // Both requests ran with ambient tracing on, so the slow-query log
    // must hold their span trees.
    let (status, slow) = http_get_text(addr, "/debug/slow").expect("scrape /debug/slow");
    assert_eq!(status, 200);
    let slow = Json::parse(&slow).expect("parse /debug/slow");
    let recorded = slow.get("recorded").unwrap().as_usize().unwrap();
    let slowest = slow.get("slowest").unwrap().as_array().unwrap();
    assert!(recorded >= 2, "expected >= 2 recorded traces, got {recorded}");
    assert!(!slowest.is_empty(), "slow-query log is empty");
    assert!(
        slowest[0].get("spans").unwrap().as_array().unwrap().len() > 1,
        "slowest trace has no span tree"
    );
    println!("GET /debug/slow -> {recorded} traces recorded");
    println!("metrics smoke OK");
}
