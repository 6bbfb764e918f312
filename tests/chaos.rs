//! The fault-injection (chaos) suite — ISSUE 9 acceptance.
//!
//! Every test arms `yask::util::failpoint` hooks compiled into the
//! fragile paths (WAL two-phase commit, checkpoint rename dance, pager
//! I/O, shard scatter jobs) and asserts the *oracle invariant* the
//! subsystem advertises: a failed WAL commit is invisible to replay, a
//! failed checkpoint leaves the previous one intact, a dead or stalled
//! shard never corrupts a top-k answer, an expired deadline never leaks
//! pool workers, and an overloaded server sheds — then recovers — on
//! its own.
//!
//! The suite is **opt-in**: it runs only with `YASK_CHAOS=1` (CI has a
//! dedicated job) because the tests sleep through real overload windows
//! and serialize on the global failpoint registry. Without the variable
//! every test passes as a no-op skip, so `cargo test` stays fast and
//! deterministic. Failpoints are compiled out in release, so the suite
//! also skips itself under `--release`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use yask::exec::{Deadline, TopKOutcome};
use yask::ingest::{checkpoint_path, CheckpointConfig};
use yask::pager::load_checkpoint;
use yask::prelude::*;
use yask::query::topk_scan;
use yask::server::{
    http_get, http_post, http_post_retry, http_post_with_headers, HttpServer, Json, Request,
    RetryPolicy, ServiceConfig, YaskService,
};
use yask::util::failpoint;

// --- harness ------------------------------------------------------------

static SERIAL: Mutex<()> = Mutex::new(());

/// Serializes chaos tests (the failpoint registry is process-global) and
/// guarantees every armed point is cleared again even when an assert
/// panics mid-test.
struct ChaosGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        failpoint::clear_all();
    }
}

fn chaos() -> Option<ChaosGuard> {
    if std::env::var("YASK_CHAOS").ok().as_deref() != Some("1") {
        eprintln!("chaos test skipped: set YASK_CHAOS=1 to run");
        return None;
    }
    if !cfg!(debug_assertions) {
        eprintln!("chaos test skipped: failpoints are compiled out in release builds");
        return None;
    }
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::clear_all();
    Some(ChaosGuard(guard))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("yask-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn small_corpus(n: usize) -> Corpus {
    let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
    for i in 0..n {
        let x = (i as f64 * 0.137).fract();
        let y = (i as f64 * 0.311).fract();
        let doc = KeywordSet::from_raw([(i % 7) as u32, ((i + 3) % 7) as u32]);
        b.push(Point::new(x, y), doc, format!("seed{i}"));
    }
    b.build()
}

fn insert(name: &str) -> Vec<Update> {
    vec![Update::Insert(NewObject::new(
        Point::new(0.5, 0.5),
        KeywordSet::from_raw([1, 2]),
        name,
    ))]
}

fn live_names(corpus: &Corpus) -> Vec<String> {
    corpus.iter().map(|o| o.name.clone()).collect()
}

fn exec_config(shards: usize) -> ExecConfig {
    // Caches off: every query must actually scatter, or the fault under
    // test is papered over by a cache hit.
    ExecConfig {
        shards,
        topk_cache: 0,
        answer_cache: 0,
        ..ExecConfig::default()
    }
}

// --- WAL commit faults --------------------------------------------------

#[test]
fn wal_fsync_error_rejects_the_batch_and_preserves_the_log() {
    let Some(_g) = chaos() else { return };
    let wal = tmp("fsync.wal");
    let seed = small_corpus(40);
    let exec = Executor::new(seed.clone(), exec_config(2));
    let ing = Ingestor::with_wal(seed.clone(), &wal).unwrap();

    ing.apply(&exec, &insert("alpha")).unwrap();
    assert_eq!(ing.epoch(), 1);

    // The payload fsync fails once: the batch must be rejected whole —
    // no epoch, no corpus change, nothing for replay to see.
    failpoint::cfg_times("wal.sync.payload", failpoint::Action::Error, 1);
    assert!(ing.apply(&exec, &insert("beta")).is_err());
    assert_eq!(ing.epoch(), 1);
    assert!(!live_names(&ing.corpus()).contains(&"beta".to_string()));
    assert!(failpoint::hits("wal.sync.payload") >= 1);

    // The commit is idempotent at the old tail: a plain retry lands the
    // same batch cleanly.
    ing.apply(&exec, &insert("beta")).unwrap();
    assert_eq!(ing.epoch(), 2);

    // Restart oracle: replay reproduces exactly the committed epochs.
    drop(ing);
    let reopened = Ingestor::with_wal(seed, &wal).unwrap();
    assert_eq!(reopened.epoch(), 2);
    let names = live_names(&reopened.corpus());
    assert!(names.contains(&"alpha".to_string()));
    assert!(names.contains(&"beta".to_string()));
    std::fs::remove_file(&wal).ok();
}

#[test]
fn torn_wal_tail_is_invisible_to_replay() {
    let Some(_g) = chaos() else { return };
    let wal = tmp("torn.wal");
    let seed = small_corpus(40);
    let exec = Executor::new(seed.clone(), exec_config(2));
    let ing = Ingestor::with_wal(seed.clone(), &wal).unwrap();
    ing.apply(&exec, &insert("alpha")).unwrap();

    // Phase 1 (payload write + sync) succeeds, phase 2 (header publish)
    // fails: the record's bytes ARE on disk past the committed tail —
    // the torn-rename analogue for the log. Replay must stop at the
    // last published header and never surface the torn record.
    failpoint::cfg_times("wal.write.header", failpoint::Action::Error, 1);
    assert!(ing.apply(&exec, &insert("torn")).is_err());
    drop(ing); // simulated crash: no retry, straight to recovery

    let reopened = Ingestor::with_wal(seed.clone(), &wal).unwrap();
    assert_eq!(reopened.epoch(), 1, "torn tail must not replay");
    assert!(!live_names(&reopened.corpus()).contains(&"torn".to_string()));

    // The recovered log is writable: the next commit overwrites the
    // torn bytes at the same offset.
    let exec2 = Executor::new_at_epoch(reopened.corpus(), exec_config(2), reopened.epoch());
    reopened.apply(&exec2, &insert("gamma")).unwrap();
    assert_eq!(reopened.epoch(), 2);
    drop(reopened);
    let again = Ingestor::with_wal(seed, &wal).unwrap();
    assert_eq!(again.epoch(), 2);
    assert!(live_names(&again.corpus()).contains(&"gamma".to_string()));
    std::fs::remove_file(&wal).ok();
}

#[test]
fn panic_during_wal_append_is_survivable_and_recoverable() {
    let Some(_g) = chaos() else { return };
    let wal = tmp("panic.wal");
    let seed = small_corpus(40);
    let exec = Executor::new(seed.clone(), exec_config(2));
    let ing = Ingestor::with_wal(seed.clone(), &wal).unwrap();
    ing.apply(&exec, &insert("alpha")).unwrap();

    // A worker crashes inside the append (before any byte is written).
    failpoint::cfg_times("wal.write.payload", failpoint::Action::Panic, 1);
    let result = catch_unwind(AssertUnwindSafe(|| ing.apply(&exec, &insert("boom"))));
    assert!(result.is_err(), "armed panic point must unwind");

    // The ingestor survives the unwind (locks are poison-transparent)
    // and the panicked batch left no trace.
    assert_eq!(ing.epoch(), 1);
    ing.apply(&exec, &insert("beta")).unwrap();
    assert_eq!(ing.epoch(), 2);

    drop(ing);
    let reopened = Ingestor::with_wal(seed, &wal).unwrap();
    assert_eq!(reopened.epoch(), 2);
    let names = live_names(&reopened.corpus());
    assert!(names.contains(&"beta".to_string()));
    assert!(!names.contains(&"boom".to_string()));
    std::fs::remove_file(&wal).ok();
}

// --- checkpoint faults --------------------------------------------------

#[test]
fn checkpoint_faults_leave_the_previous_checkpoint_intact() {
    let Some(_g) = chaos() else { return };
    let wal = tmp("ckpt.wal");
    let ckpt = checkpoint_path(&wal);
    let _ = std::fs::remove_file(&ckpt);
    let seed = small_corpus(40);
    let exec = Executor::new(seed.clone(), exec_config(2));
    let ing = Ingestor::with_wal_config(seed.clone(), &wal, CheckpointConfig::disabled()).unwrap();
    ing.apply(&exec, &insert("alpha")).unwrap();
    ing.apply(&exec, &insert("beta")).unwrap();
    ing.checkpoint_now().unwrap();
    assert_eq!(load_checkpoint(&ckpt).unwrap().unwrap().epoch, 2);

    ing.apply(&exec, &insert("gamma")).unwrap();

    // Fault the two steps *before* the rename lands: after either
    // failure the previous checkpoint must still load at its old epoch.
    for point in ["checkpoint.tmp.sync", "checkpoint.rename"] {
        failpoint::cfg_times(point, failpoint::Action::Error, 1);
        assert!(ing.checkpoint_now().is_err(), "{point} must fail the save");
        let survivor = load_checkpoint(&ckpt).unwrap().unwrap();
        assert_eq!(survivor.epoch, 2, "{point} clobbered the old checkpoint");
        assert_eq!(survivor.corpus.len(), seed.len() + 2);
    }

    // The directory sync fires *after* the rename: the new snapshot is
    // visible, but its rename is unanchored — the save must report the
    // error so the log is NOT truncated on its strength.
    let batches_before = ing.wal_stats().unwrap().batches;
    failpoint::cfg_times("checkpoint.dirsync", failpoint::Action::Error, 1);
    assert!(ing.checkpoint_now().is_err(), "dirsync failure must surface");
    assert_eq!(
        ing.wal_stats().unwrap().batches,
        batches_before,
        "log truncated on an unanchored rename"
    );

    // Faults cleared: the save lands and the snapshot advances.
    assert_eq!(ing.checkpoint_now().unwrap(), 3);
    assert_eq!(load_checkpoint(&ckpt).unwrap().unwrap().epoch, 3);

    // Recovery from the fresh checkpoint + empty tail reproduces state.
    drop(ing);
    let reopened = Ingestor::with_wal(seed, &wal).unwrap();
    assert_eq!(reopened.epoch(), 3);
    assert!(live_names(&reopened.corpus()).contains(&"gamma".to_string()));
    std::fs::remove_file(&wal).ok();
    std::fs::remove_file(&ckpt).ok();
}

/// The automatic path: `maybe_checkpoint` swallows a checkpoint failure
/// so the write that crossed the threshold still succeeds — which made a
/// full disk invisible (an unbounded WAL with every dashboard green).
/// The failure must be counted and shown on both `/stats` and `/metrics`.
#[test]
fn swallowed_checkpoint_failure_is_counted_on_both_surfaces() {
    let Some(_g) = chaos() else { return };
    let wal = tmp("ckpt-auto.wal");
    let ckpt = checkpoint_path(&wal);
    let _ = std::fs::remove_file(&ckpt);
    let (corpus, vocab) = yask::data::hk_hotels();
    let config = ServiceConfig {
        exec: exec_config(2),
        checkpoint: CheckpointConfig { max_wal_batches: 2, max_wal_bytes: u64::MAX },
        ..ServiceConfig::default()
    };
    let service = YaskService::with_wal(corpus, vocab, config, &wal).unwrap();
    let call = |method: &str, path: &str, body: Option<Json>| {
        service.handle(&Request {
            method: method.into(),
            path: path.into(),
            query: String::new(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: body.map(|b| b.to_string().into_bytes()).unwrap_or_default(),
        })
    };
    let insert = |name: &str| {
        let body = Json::obj([
            ("x", Json::Num(114.17)),
            ("y", Json::Num(22.3)),
            ("name", Json::str(name)),
            ("keywords", Json::Arr(vec![Json::str("clean")])),
        ]);
        call("POST", "/objects", Some(body)).status
    };
    // (checkpoints, failures, last_error) off `/stats`, the failure
    // counter off `/metrics`.
    let read = || {
        let stats = Json::parse(std::str::from_utf8(&call("GET", "/stats", None).body).unwrap()).unwrap();
        let ingest = stats.get("ingest").unwrap().clone();
        let metrics = String::from_utf8(call("GET", "/metrics", None).body).unwrap();
        let exported = metrics
            .lines()
            .find_map(|l| l.strip_prefix("yask_checkpoint_failures_total "))
            .expect("yask_checkpoint_failures_total missing")
            .parse::<f64>()
            .unwrap();
        (
            ingest.get("checkpoints").unwrap().as_f64().unwrap(),
            ingest.get("checkpoint_failures").unwrap().as_f64().unwrap(),
            ingest.get("checkpoint_last_error").unwrap().clone(),
            exported,
        )
    };

    assert_eq!(insert("one"), 200);
    assert_eq!(read(), (0.0, 0.0, Json::Null, 0.0));

    // The second batch crosses the threshold with the snapshot's fsync
    // failing: the write is already durable in the log and succeeds; the
    // failure shows on both surfaces.
    failpoint::cfg("checkpoint.tmp.sync", failpoint::Action::Error);
    assert_eq!(insert("two"), 200, "a failed checkpoint must not fail the write");
    let (checkpoints, failures, last_error, exported) = read();
    assert_eq!((checkpoints, failures, exported), (0.0, 1.0, 1.0));
    assert!(last_error.as_str().is_some_and(|e| !e.is_empty()), "last_error: {last_error}");

    // Disarmed: the next crossing retries, succeeds and clears the
    // error; the failure stays counted.
    failpoint::clear("checkpoint.tmp.sync");
    assert_eq!(insert("three"), 200);
    assert_eq!(read(), (1.0, 1.0, Json::Null, 1.0));

    drop(service);
    for path in [wal.clone(), ckpt, PathBuf::from(format!("{}.vocab", wal.display()))] {
        std::fs::remove_file(path).ok();
    }
}

// --- shard scatter faults -----------------------------------------------

/// One shard is a one-cell partition on the same scatter path, so every
/// shard fault case runs there too — a K=1 executor must evaluate the
/// `exec.shard` failpoint and honour deadlines like any other.
const CHAOS_SHARD_COUNTS: [usize; 2] = [1, 4];

#[test]
fn shard_error_falls_back_to_the_exact_scan() {
    let Some(_g) = chaos() else { return };
    let (corpus, _vocab) = yask::data::hk_hotels();
    let params = ScoreParams::new(corpus.space());
    let q = Query::new(Point::new(114.17, 22.30), KeywordSet::from_raw([0, 1]), 5);
    let want: Vec<ObjectId> = topk_scan(&corpus, &params, &q).iter().map(|r| r.id).collect();
    for shards in CHAOS_SHARD_COUNTS {
        let exec = Executor::new(corpus.clone(), exec_config(shards));

        // Healthy traffic never touches the fallback, at any shard count.
        for _ in 0..3 {
            let got: Vec<ObjectId> = exec.top_k(&q).iter().map(|r| r.id).collect();
            assert_eq!(got, want, "K={shards}");
        }
        let s = exec.stats();
        assert_eq!((s.scatter_queries, s.scan_fallbacks), (3, 0), "K={shards}");

        // One shard drops its reply: the gather comes up short and the
        // executor must fall back to the exact scan — same answer, no
        // hole — and say so on its counter.
        let hits = failpoint::hits("exec.shard");
        failpoint::cfg_times("exec.shard", failpoint::Action::Error, 1);
        let got: Vec<ObjectId> = exec.top_k(&q).iter().map(|r| r.id).collect();
        assert_eq!(got, want, "K={shards}: fallback answer diverged from the scan oracle");
        assert!(failpoint::hits("exec.shard") > hits, "K={shards}: failpoint never fired");
        assert_eq!(exec.stats().scan_fallbacks, 1, "K={shards}");

        // And with the fault gone the scatter path agrees too.
        let got: Vec<ObjectId> = exec.top_k(&q).iter().map(|r| r.id).collect();
        assert_eq!(got, want, "K={shards}");
        let s = exec.stats();
        assert_eq!((s.scatter_queries, s.scan_fallbacks), (4, 1), "K={shards}");
    }
}

#[test]
fn shard_panic_leaves_the_pool_alive() {
    let Some(_g) = chaos() else { return };
    let (corpus, _vocab) = yask::data::hk_hotels();
    let params = ScoreParams::new(corpus.space());
    let q = Query::new(Point::new(114.17, 22.30), KeywordSet::from_raw([0, 1]), 5);
    let want: Vec<ObjectId> = topk_scan(&corpus, &params, &q).iter().map(|r| r.id).collect();
    for shards in CHAOS_SHARD_COUNTS {
        let exec = Executor::new(corpus.clone(), exec_config(shards));

        // A shard job panics mid-query. The pool's catch_unwind absorbs
        // it, the gather comes up short, the caller falls back to the scan.
        failpoint::cfg_times("exec.shard", failpoint::Action::Panic, 1);
        let got: Vec<ObjectId> = exec.top_k(&q).iter().map(|r| r.id).collect();
        assert_eq!(got, want, "K={shards}");
        assert_eq!(exec.stats().scan_fallbacks, 1, "K={shards}: panic never reached a shard job");

        // The pool survived: every worker still answers, repeatedly.
        for _ in 0..8 {
            let got: Vec<ObjectId> = exec.top_k(&q).iter().map(|r| r.id).collect();
            assert_eq!(got, want, "K={shards}: pool lost workers after a shard panic");
        }
        assert_eq!(exec.stats().scatter_queries, 8, "K={shards}");
    }
}

/// A chunk fault that cannot read its run unwinds the shard job that
/// hit it; the gather comes up short and the caller answers from the
/// exact scan. The pool and the paged trees keep serving afterwards.
#[test]
fn chunk_fault_io_error_reaches_the_scan_fallback() {
    let Some(_g) = chaos() else { return };
    // Under a one-byte budget every chunk fault reads its run from the
    // tree's file, where the `pager.read` failpoint fires.
    let corpus = small_corpus(20_000);
    let params = ScoreParams::new(corpus.space());
    let q = Query::new(Point::new(0.3, 0.7), KeywordSet::from_raw([1, 4]), 10);
    let want: Vec<ObjectId> = topk_scan(&corpus, &params, &q)
        .iter()
        .map(|r| r.id)
        .collect();
    for shards in CHAOS_SHARD_COUNTS {
        let exec = Executor::new(
            corpus.clone(),
            ExecConfig {
                resident_budget: Some(1),
                ..exec_config(shards)
            },
        );

        let hits = failpoint::hits("pager.read");
        failpoint::cfg_times("pager.read", failpoint::Action::Error, 1);
        let got: Vec<ObjectId> = exec.top_k(&q).iter().map(|r| r.id).collect();
        assert!(
            failpoint::hits("pager.read") > hits,
            "K={shards}: no chunk fault reached the page file"
        );
        assert_eq!(
            got, want,
            "K={shards}: fallback answer diverged from the scan oracle"
        );
        assert_eq!(exec.stats().scan_fallbacks, 1, "K={shards}");

        // Unarmed, the shards answer again: the pool is alive.
        let got: Vec<ObjectId> = exec.top_k(&q).iter().map(|r| r.id).collect();
        assert_eq!(got, want, "K={shards}");
        let s = exec.stats();
        assert_eq!((s.scatter_queries, s.scan_fallbacks), (1, 1), "K={shards}");
    }
}

/// A why-not request reads no tree: explanations, refinements and the
/// refined query's result preview all come off its request table. With a
/// chunk fault armed, `/whynot/explain` and `/whynot/keywords` answer 200
/// with the unarmed bodies and never reach a run file; disarmed, the
/// server keeps serving. (A fault in a top-k's scatter is
/// `chunk_fault_io_error_reaches_the_scan_fallback`.)
#[test]
fn an_armed_chunk_fault_never_reaches_a_whynot_request() {
    let Some(_g) = chaos() else { return };
    // Under a one-byte budget any tree read would fault a run from the
    // tree's file, where the `pager.read` failpoint fires.
    let corpus = small_corpus(20_000);
    let vocab = Vocabulary::from_words((0..7).map(|i| format!("w{i}")));
    let params = ScoreParams::new(corpus.space());
    let q = Query::new(Point::new(0.3, 0.7), KeywordSet::from_raw([1, 4]), 10);
    let missing = topk_scan(&corpus, &params, &q.with_k(16))[15].id;
    let service = std::sync::Arc::new(YaskService::with_config(
        corpus,
        vocab,
        ServiceConfig {
            exec: ExecConfig {
                resident_budget: Some(1),
                ..exec_config(2)
            },
            default_deadline: None,
            ..ServiceConfig::default()
        },
    ));
    let server = HttpServer::spawn_with_policy(
        0,
        2,
        service.clone().into_handler(),
        service.conn_policy(),
    )
    .unwrap();
    let addr = server.addr();
    let query = Json::obj([
        ("x", Json::Num(0.3)),
        ("y", Json::Num(0.7)),
        ("keywords", Json::Arr(vec![Json::str("w1"), Json::str("w4")])),
        ("k", Json::Num(10.0)),
    ]);
    let (status, reply) = http_post(addr, "/query", &query).unwrap();
    assert_eq!(status, 200);
    let whynot = Json::obj([
        ("session", reply.get("session").unwrap().clone()),
        ("missing", Json::Arr(vec![Json::Num(missing.0 as f64)])),
    ]);
    let paths = ["/whynot/explain", "/whynot/keywords"];
    // The answer cache is off, so every request below computes afresh.
    let unarmed: Vec<String> = paths
        .iter()
        .map(|path| {
            let (status, body) = http_post(addr, path, &whynot).unwrap();
            assert_eq!(status, 200, "{path}: {body:?}");
            body.to_string()
        })
        .collect();

    let hits = failpoint::hits("pager.read");
    failpoint::cfg_times("pager.read", failpoint::Action::Error, 1);
    for (path, want) in paths.iter().zip(&unarmed) {
        // The client's read timeout turns a reply that never comes into
        // an error here rather than a hung test.
        let (status, body) =
            http_post(addr, path, &whynot).expect("a reply, not a dropped request");
        assert_eq!(status, 200, "{path}: {body:?}");
        assert_eq!(&body.to_string(), want, "{path}: armed answer differs");
    }
    assert_eq!(
        failpoint::hits("pager.read"),
        hits,
        "a why-not request reached the page file"
    );
    failpoint::clear("pager.read");

    // Disarmed, plain queries are still served.
    let (status, _) = http_post(addr, "/query", &query).unwrap();
    assert_eq!(status, 200);
}

#[test]
fn expired_deadlines_mid_scatter_leak_no_workers() {
    let Some(_g) = chaos() else { return };
    let (corpus, _vocab) = yask::data::hk_hotels();
    let params = ScoreParams::new(corpus.space());
    let q = Query::new(Point::new(114.17, 22.30), KeywordSet::from_raw([0, 1]), 5);
    let want: Vec<ObjectId> = topk_scan(&corpus, &params, &q).iter().map(|r| r.id).collect();
    for shards in CHAOS_SHARD_COUNTS {
        let exec = Executor::new(corpus.clone(), exec_config(shards));
        let handle = exec.engine();

        // Stalled shards + a 1 ms budget: every query comes back partial.
        failpoint::cfg("exec.shard", failpoint::Action::Delay(15));
        for _ in 0..6 {
            let TopKOutcome { complete, .. } = exec.top_k_deadline_on_traced(
                &handle,
                &q,
                None,
                Some(Deadline::after(Duration::from_millis(1))),
            );
            assert!(
                !complete,
                "K={shards}: a 1ms budget against 15ms shard stalls must truncate"
            );
        }
        failpoint::clear("exec.shard");

        // The regression this guards: expired deadlines must drain through
        // the pool, not strand jobs. The queue returns to empty...
        let mut drained = false;
        for _ in 0..100 {
            if exec.stats().queue_depth == 0 {
                drained = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(drained, "K={shards}: scatter queue never drained after deadline expiry");

        // ...and the very same pool still produces exact, complete answers.
        let out = exec.top_k_deadline_on_traced(&handle, &q, None, None);
        assert!(out.complete, "K={shards}");
        let got: Vec<ObjectId> = out.results.iter().map(|r| r.id).collect();
        assert_eq!(got, want, "K={shards}");
    }
}

// --- end-to-end overload + deadline over HTTP ---------------------------

fn overload_service() -> std::sync::Arc<YaskService> {
    let (corpus, vocab) = yask::data::hk_hotels();
    // Latency trigger only (queue limit effectively infinite): any
    // top-k p99 over 5 ms in the 10 s window flips the admission valve
    // (and with it the health verdict) to Overloaded — never Critical,
    // so the accept boundary stays open and the shed is per-route.
    std::sync::Arc::new(YaskService::with_config(
        corpus,
        vocab,
        ServiceConfig {
            exec: exec_config(2),
            admission: yask::exec::AdmissionConfig {
                max_queue_depth: usize::MAX,
                max_topk_p99: Duration::from_millis(5),
                ..yask::exec::AdmissionConfig::default()
            },
            default_deadline: None,
            ..ServiceConfig::default()
        },
    ))
}

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

#[test]
fn overload_sheds_whynot_first_then_self_clears() {
    let Some(_g) = chaos() else { return };
    let service = overload_service();
    let server = HttpServer::spawn_with_policy(
        0,
        4,
        service.clone().into_handler(),
        service.conn_policy(),
    )
    .unwrap();
    let addr = server.addr();

    // Establish a session while healthy.
    let (status, reply) = http_post(addr, "/query", &query_body()).unwrap();
    assert_eq!(status, 200);
    let session = reply.get("session").unwrap().as_f64().unwrap();
    let missing = service
        .engine()
        .corpus()
        .iter()
        .map(|o| o.name.clone())
        .find(|n| {
            !reply.get("results").unwrap().as_array().unwrap().iter().any(|r| {
                r.get("name").unwrap().as_str() == Some(n.as_str())
            })
        })
        .unwrap();
    let whynot = Json::obj([
        ("session", Json::Num(session)),
        ("missing", Json::Arr(vec![Json::str(missing)])),
    ]);
    let (status, _) = http_post(addr, "/whynot/explain", &whynot).unwrap();
    assert_eq!(status, 200, "healthy service must answer why-not");

    // Inject the incident: stalled shards push the 10 s top-k p99 far
    // over the 5 ms trip wire.
    failpoint::cfg("exec.shard", failpoint::Action::Delay(25));
    for _ in 0..3 {
        let (status, _) = http_post(addr, "/query", &query_body()).unwrap();
        assert_eq!(status, 200);
    }
    failpoint::clear("exec.shard");

    // Why-not is the first load to drop: 429 with the Retry-After hint.
    let reply = http_post_with_headers(addr, "/whynot/explain", &whynot, &[]).unwrap();
    assert_eq!(reply.status, 429, "overloaded service must shed why-not: {:?}", reply.body);
    assert_eq!(reply.retry_after, Some(1), "shed reply must carry Retry-After");

    // The bundled client honors the hint: it sleeps and retries, and
    // while the overload persists it surfaces the final shed reply.
    let reply = http_post_retry(
        addr,
        "/whynot/explain",
        &whynot,
        &RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        },
    )
    .unwrap();
    assert_eq!(reply.status, 429);

    // Top-k keeps being served — admitted on the degraded budget, never
    // refused. (The response's `degraded` flag stays false when the
    // search still completes inside the budget: it marks answers that
    // are actually stale or truncated, not the admission path.)
    let (status, reply) = http_post(addr, "/query", &query_body()).unwrap();
    assert_eq!(status, 200, "top-k must survive overload");
    assert_eq!(reply.get("complete").and_then(|c| c.as_bool()), Some(true));

    // The health surface tells the same story, machine-parseably.
    let (status, health) = http_get(addr, "/debug/health").unwrap();
    assert_eq!(status, 200);
    assert_eq!(health.get("overloaded").unwrap().as_bool(), Some(true));
    assert_eq!(health.get("admission_level").unwrap().as_str(), Some("overloaded"));
    let reasons = health.get("reasons").unwrap().as_array().unwrap();
    assert!(reasons
        .iter()
        .any(|r| r.get("signal").unwrap().as_str() == Some("topk_p99_10s")));

    // The shed grid reached /stats and /metrics.
    let (status, stats) = http_get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let admission = stats.get("admission").unwrap();
    assert!(admission.get("shed_total").unwrap().as_f64().unwrap() >= 2.0);
    assert!(
        admission.get("degraded_admits").unwrap().as_f64().unwrap() >= 1.0,
        "the overloaded top-k must have gone through the degraded budget"
    );
    let (status, text) = yask::server::http_get_text(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(text.contains("yask_shed_total{route=\"whynot\""), "shed grid missing from /metrics");

    // Self-clear: the spike ages out of the 10 s window — no restart,
    // no counter reset — and the same why-not question is admitted.
    std::thread::sleep(Duration::from_millis(10_500));
    let (status, health) = http_get(addr, "/debug/health").unwrap();
    assert_eq!(status, 200);
    assert_eq!(health.get("overloaded").unwrap().as_bool(), Some(false));
    assert_eq!(health.get("admission_level").unwrap().as_str(), Some("normal"));
    let (status, _) = http_post(addr, "/whynot/explain", &whynot).unwrap();
    assert_eq!(status, 200, "the valve must reopen once the spike ages out");
}

#[test]
fn header_deadline_expiry_maps_to_504_and_is_counted() {
    let Some(_g) = chaos() else { return };
    let (corpus, vocab) = yask::data::hk_hotels();
    let service = std::sync::Arc::new(YaskService::with_config(
        corpus,
        vocab,
        ServiceConfig {
            exec: exec_config(2),
            default_deadline: None,
            ..ServiceConfig::default()
        },
    ));
    let server = HttpServer::spawn_with_policy(
        0,
        4,
        service.clone().into_handler(),
        service.conn_policy(),
    )
    .unwrap();
    let addr = server.addr();

    // Every shard stalls past the 1 ms budget: no shard finishes, so
    // the partial answer is empty and the request gets a clean 504.
    failpoint::cfg("exec.shard", failpoint::Action::Delay(25));
    let reply = http_post_with_headers(
        addr,
        "/query",
        &query_body(),
        &[("x-yask-deadline-ms", "1")],
    )
    .unwrap();
    assert_eq!(reply.status, 504, "expired deadline must be a 504: {:?}", reply.body);
    failpoint::clear("exec.shard");

    // The expiry is counted for the operator...
    let (status, stats) = http_get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let admission = stats.get("admission").unwrap();
    assert!(admission.get("deadline_exceeded").unwrap().as_f64().unwrap() >= 1.0);

    // ...and the timed-out request still left its span tree in the
    // slow-query log — the trace of a 504 is exactly the one you want.
    let (status, slow) = yask::server::http_get_text(addr, "/debug/slow").unwrap();
    assert_eq!(status, 200);
    let slow = Json::parse(&slow).unwrap();
    assert!(slow.get("recorded").unwrap().as_usize().unwrap() >= 1);

    // A generous budget on the same path completes normally.
    let reply = http_post_with_headers(
        addr,
        "/query",
        &query_body(),
        &[("x-yask-deadline-ms", "30000")],
    )
    .unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.body.get("complete").and_then(|c| c.as_bool()), Some(true));
}

// --- pager faults -------------------------------------------------------

#[test]
fn pager_read_faults_surface_as_errors_not_corruption() {
    let Some(_g) = chaos() else { return };
    let path = tmp("pager.db");
    let mut f = yask::pager::PageFile::create(&path).unwrap();
    let id = f.allocate().unwrap();
    let mut data = vec![0u8; yask::pager::PAGE_SIZE];
    data[7] = 0xEE;
    f.write_page(id, &data).unwrap();

    // Reads and syncs fail loudly while armed...
    failpoint::cfg_times("pager.read", failpoint::Action::Error, 1);
    assert!(f.read_page(id).is_err());
    failpoint::cfg_times("pager.sync", failpoint::Action::Error, 1);
    assert!(f.sync().is_err());

    // ...and the stored bytes are untouched once the fault clears.
    assert_eq!(f.read_page(id).unwrap()[7], 0xEE);
    f.sync().unwrap();

    // A faulted write must not tear the page either.
    failpoint::cfg_times("pager.write", failpoint::Action::Error, 1);
    let mut other = vec![0u8; yask::pager::PAGE_SIZE];
    other[7] = 0x11;
    assert!(f.write_page(id, &other).is_err());
    assert_eq!(f.read_page(id).unwrap()[7], 0xEE, "failed write tore the page");
    std::fs::remove_file(&path).ok();
}
