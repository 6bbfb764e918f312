//! Overload survival, end to end: a YASK service configured with a
//! demo-dial trip wire (top-k p99 limit of zero — the very first
//! completed query "overloads" the engine) walks through the whole
//! robustness surface:
//!
//! 1. a healthy query is admitted and establishes a why-not session;
//! 2. the admission valve flips: why-not requests — the most expensive
//!    route — are shed with `429` + `Retry-After`, while top-k keeps
//!    being served on the degraded budget;
//! 3. the bundled client's retry loop honors the server's hint
//!    (capped exponential backoff with jitter when there is none);
//! 4. a request deadline (`x-yask-deadline-ms`) expires mid-scatter
//!    and maps to a clean `504`, trace preserved in the slow log;
//! 5. `/debug/health` names the exact signal, observed value and limit
//!    that tripped, and `/stats` + `/metrics` carry the shed grid;
//! 6. the spike ages out of its 10 s window and the valve reopens on
//!    its own — no restart, no counter reset.
//!
//! Run with: `cargo run --release --example overload_demo`

use std::sync::Arc;
use std::time::Duration;

use yask::exec::AdmissionConfig;
use yask::server::{
    http_get, http_get_text, http_post, http_post_retry, http_post_with_headers, HttpServer,
    Json, RetryPolicy, ServiceConfig, YaskService,
};

fn query_body() -> Json {
    Json::obj([
        ("x", Json::Num(114.172)),
        ("y", Json::Num(22.297)),
        (
            "keywords",
            Json::Arr(vec![Json::str("clean"), Json::str("comfortable")]),
        ),
        ("k", Json::Num(3.0)),
    ])
}

fn main() {
    let (corpus, vocab) = yask::data::hk_hotels();
    // The demo dial: a p99 limit of zero means any completed top-k
    // counts as overload for the next 10 s — deterministic theater, but
    // every code path below is the production one.
    let service = Arc::new(YaskService::with_config(
        corpus,
        vocab,
        ServiceConfig {
            admission: AdmissionConfig {
                max_queue_depth: usize::MAX,
                max_topk_p99: Duration::ZERO,
                ..AdmissionConfig::default()
            },
            default_deadline: None,
            ..ServiceConfig::default()
        },
    ));
    // The accept-boundary policy: at the critical level the listener
    // sheds with a canned 503 before reading; under any overload the
    // keep-alive idle timeout shrinks so parked connections stop
    // holding worker threads.
    let server = HttpServer::spawn_with_policy(
        0,
        4,
        service.clone().into_handler(),
        service.conn_policy(),
    )
    .expect("bind server");
    let addr = server.addr();
    println!("YASK server listening on http://{addr}/  (overload trip wire: p99 > 0)");

    // 1. Healthy: the first query is admitted normally.
    let (status, reply) = http_post(addr, "/query", &query_body()).expect("query");
    println!("\nPOST /query -> {status} (admitted while healthy)");
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
    let whynot = Json::obj([
        ("session", Json::Num(session)),
        ("missing", Json::Arr(vec![Json::str(missing)])),
    ]);

    // 2. That query's latency tripped the wire: why-not is shed first.
    let reply = http_post_with_headers(addr, "/whynot/explain", &whynot, &[]).expect("whynot");
    println!(
        "\nPOST /whynot/explain -> {} retry-after={:?}\n  {}",
        reply.status,
        reply.retry_after,
        reply.body.get("error").and_then(|e| e.as_str()).unwrap_or("")
    );
    assert_eq!(reply.status, 429, "why-not must be shed under overload");

    // 3. The client-side answer: retry with backoff, honoring the hint.
    println!("\nretrying with the bundled backoff client (honors Retry-After)...");
    let reply = http_post_retry(
        addr,
        "/whynot/explain",
        &whynot,
        &RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        },
    )
    .expect("retry");
    println!("  final status after retries: {} (still overloaded — expected)", reply.status);

    // Top-k is never refused at this level — it runs on the degraded
    // budget instead.
    let (status, _) = http_post(addr, "/query", &query_body()).expect("query");
    println!("\nPOST /query -> {status} (admitted on the degraded budget)");

    // 4. Deadlines: a zero budget expires before any shard finishes.
    // (A fresh query — the one above is already in the top-k cache, and
    // a cached answer beats any deadline.)
    let uncached = Json::obj([
        ("x", Json::Num(114.01)),
        ("y", Json::Num(22.51)),
        ("keywords", Json::Arr(vec![Json::str("quiet")])),
        ("k", Json::Num(7.0)),
    ]);
    let reply = http_post_with_headers(
        addr,
        "/query",
        &uncached,
        &[("x-yask-deadline-ms", "0")],
    )
    .expect("deadline query");
    println!(
        "\nPOST /query (x-yask-deadline-ms: 0) -> {} ({})",
        reply.status,
        reply.body.get("error").and_then(|e| e.as_str()).unwrap_or("")
    );
    assert_eq!(reply.status, 504);

    // 5. The operator surfaces: health names the tripped signal...
    let (_, health) = http_get(addr, "/debug/health").expect("health");
    let reasons = health.get("reasons").unwrap().as_array().unwrap();
    println!(
        "\nGET /debug/health -> overloaded={} admission_level={}",
        health.get("overloaded").unwrap(),
        health.get("admission_level").unwrap()
    );
    for r in reasons {
        println!(
            "  signal={} observed={} limit={}",
            r.get("signal").unwrap(),
            r.get("observed").unwrap(),
            r.get("limit").unwrap()
        );
    }
    // ...and /stats + /metrics carry the shed/degrade/deadline grid.
    let (_, stats) = http_get(addr, "/stats").expect("stats");
    let admission = stats.get("admission").unwrap();
    println!(
        "GET /stats -> shed_total={} degraded_admits={} deadline_exceeded={}",
        admission.get("shed_total").unwrap(),
        admission.get("degraded_admits").unwrap(),
        admission.get("deadline_exceeded").unwrap()
    );
    let (_, metrics) = http_get_text(addr, "/metrics").expect("metrics");
    for line in metrics.lines().filter(|l| {
        l.starts_with("yask_shed_total{") || l.starts_with("yask_deadline_exceeded_total")
    }) {
        println!("  {line}");
    }

    // 6. Self-clear: the spike ages out of the 10 s p99 window.
    println!("\nwaiting for the latency spike to age out of its 10 s window...");
    std::thread::sleep(Duration::from_millis(10_500));
    let (_, health) = http_get(addr, "/debug/health").expect("health");
    println!(
        "GET /debug/health -> overloaded={} admission_level={}",
        health.get("overloaded").unwrap(),
        health.get("admission_level").unwrap()
    );
    let reply = http_post_with_headers(addr, "/whynot/explain", &whynot, &[]).expect("whynot");
    println!("POST /whynot/explain -> {} (the valve reopened on its own)", reply.status);
    assert_eq!(reply.status, 200);
    println!("\noverload demo OK");
}
