//! The YASK REST API (the server side of the demo's Fig 1).
//!
//! Routes:
//!
//! | Method | Path                 | Purpose                                   |
//! |--------|----------------------|-------------------------------------------|
//! | GET    | `/`                  | landing page (map placeholder)            |
//! | GET    | `/health`            | liveness + object count                   |
//! | GET    | `/stats`             | dataset + executor + ingest statistics    |
//! | GET    | `/metrics`           | Prometheus text exposition                |
//! | GET    | `/debug/slow`        | slow-query log with span trees            |
//! | GET    | `/debug/health`      | windowed rates + overload verdict         |
//! | GET    | `/debug/heatmap`     | per-STR-cell query/write heat + skew      |
//! | POST   | `/query`             | spatial keyword top-k query → session id  |
//! | POST   | `/whynot/explain`    | explanations for desired objects          |
//! | POST   | `/whynot/preference` | preference-adjusted refined query         |
//! | POST   | `/whynot/keywords`   | keyword-adapted refined query             |
//! | POST   | `/whynot/combined`   | both models chained                       |
//! | POST   | `/viewport`          | objects in a rectangle (map panel)        |
//! | POST   | `/session/close`     | the user gave up asking why-not questions |
//! | POST   | `/objects`           | insert one object (live corpus update)    |
//! | DELETE | `/objects/{id}`      | delete one object                         |
//! | POST   | `/ingest`            | bulk insert/delete batch (one epoch)      |
//!
//! `/stats` and `/metrics` render nothing by hand: both call
//! `YaskService::observe` once (one executor snapshot, one pass over the
//! session map) and fold the sample list [`crate::metrics`] declares —
//! `/stats` into JSON, `/metrics` into Prometheus text. A new counter is
//! added there, not here.
//!
//! `/query` caches the initial query in the [`SessionStore`] **pinned to
//! the engine epoch it ran against**; the why-not endpoints reference it
//! by session id and keep answering over that pinned corpus version —
//! mirroring the paper's "server caches users' initial spatial keyword
//! queries", now stable under concurrent deletes (a session citing a
//! later-deleted object is no longer invalidated; it answers against its
//! epoch until it is closed or expires). The four `/whynot/*` routes are
//! one handler: `whynot_kind` maps the path to the module, the
//! executor answers it through one cached call
//! ([`Executor::whynot_on`]) — a refinement together with its refined
//! query's result preview, both off one request table, so a why-not
//! request reads no shard tree — and the answer's variant picks the
//! rendering. The write endpoints run the
//! `yask_ingest` protocol — validate → write-ahead log (when configured)
//! → publish a new engine epoch — funnelled through the
//! [`WriteCoalescer`], so concurrent small writes share one group-commit
//! fsync pair by default.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use yask_core::{Explanation, Session, SessionId, SessionStore, WhyNotError, YaskConfig};
use yask_data::DatasetStats;
use yask_exec::{
    AdmissionConfig, AdmissionController, AdmitDecision, CachedAnswer, CorpusPin, Deadline,
    EngineHandle, ExecConfig, Executor, OverloadLevel, Route, RouteWindows, WhyNotKind,
};
use yask_geo::Point;
use yask_index::{Corpus, ObjectId};
use yask_ingest::{CheckpointConfig, IngestError, Ingestor, NewObject, Update};
use yask_obs::{FinishedTrace, Trace, TraceLog, WindowSnapshot, NO_PARENT};
use yask_query::{Query, RankedObject};
use yask_text::{KeywordId, KeywordSet, Vocabulary};

use crate::coalesce::{CoalesceConfig, WriteCoalescer, WriteError};
use crate::http::{ConnControl, ConnPolicy, Handler, Request, Response};
use crate::json::Json;
use crate::metrics::{describe, render_metrics, render_stats, Observed};

/// Service-level configuration: the execution subsystem plus session
/// lifecycle and write-path policy.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// The executor (shards, workers, caches, engine).
    pub exec: ExecConfig,
    /// Session time-to-live (the paper's "until users give up").
    pub session_ttl: Duration,
    /// The write coalescer (window + group-commit bounds).
    pub coalesce: CoalesceConfig,
    /// When to fold the write-ahead log into a checkpoint snapshot
    /// (durable deployments only).
    pub checkpoint: CheckpointConfig,
    /// Capacity of the recent-trace ring buffer behind `/debug/slow`.
    /// 0 disables ambient tracing: query and why-not requests then run
    /// untraced unless they opt in with `?trace=1`.
    pub trace_ring: usize,
    /// How many slowest traces (by total latency) the slow-query log
    /// keeps with their full span trees. 0 disables the slow log.
    pub slow_log: usize,
    /// Admission control: when to shed or degrade requests instead of
    /// queueing them. `GET /debug/health` reports the service as
    /// overloaded exactly when this valve is above `Normal`.
    pub admission: AdmissionConfig,
    /// Default deadline budget for query and why-not requests; a
    /// request overrides it with the `x-yask-deadline-ms` header.
    /// `None` = run to completion.
    pub default_deadline: Option<Duration>,
    /// Keep-alive idle timeout under normal load.
    pub idle_timeout: Duration,
    /// Keep-alive idle timeout while overloaded: parked connections
    /// stop holding worker threads exactly when threads are scarce.
    pub overloaded_idle_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            exec: ExecConfig::default(),
            session_ttl: Duration::from_secs(600),
            coalesce: CoalesceConfig::default(),
            checkpoint: CheckpointConfig::default(),
            trace_ring: 256,
            slow_log: 16,
            admission: AdmissionConfig::default(),
            default_deadline: Some(Duration::from_secs(5)),
            idle_timeout: Duration::from_secs(10),
            overloaded_idle_timeout: Duration::from_secs(1),
        }
    }
}

/// The stateful YASK web service.
pub struct YaskService {
    exec: Executor,
    ingest: Ingestor,
    coalescer: WriteCoalescer,
    sessions: SessionStore<CorpusPin>,
    vocab: Arc<Mutex<Vocabulary>>,
    /// Sidecar the vocabulary is snapshotted to before every durable
    /// write batch. The WAL records keyword *ids*, which are
    /// intern-order-dependent — without the string → id map persisted
    /// alongside, a replayed object's keywords would bind to whatever ids
    /// the post-restart intern order happens to assign.
    vocab_path: Option<std::path::PathBuf>,
    /// Vocabulary size at the last snapshot: the vocabulary is
    /// append-only, so an unchanged length means the sidecar is current
    /// and the write path skips the serialize + fsync + rename.
    vocab_persisted: std::sync::atomic::AtomicUsize,
    /// Finished query traces: a recent ring plus the slow-query log
    /// (`ServiceConfig::trace_ring` / `slow_log`), served by
    /// `GET /debug/slow`.
    traces: TraceLog,
    /// Admission policy + shed/degrade counters, shared by the HTTP
    /// edge (accept-boundary shedding) and the per-request check.
    admission: AdmissionController,
    /// Default deadline budget for read requests (header-overridable).
    default_deadline: Option<Duration>,
    /// Keep-alive idle timeouts: normal and overloaded.
    idle_timeout: Duration,
    overloaded_idle_timeout: Duration,
    /// When the service was built; `/metrics` exports the monotonic
    /// uptime so scrapers can spot restarts without a counter reset.
    started: Instant,
}

type ApiResult = Result<Json, (u16, String)>;

/// How many epochs back a *degraded* top-k admission may serve a stale
/// cached answer from (flagged `degraded: true`).
const DEGRADED_LOOKBACK: u64 = 4;

/// A resolved why-not request: its session (pinning the corpus version
/// to answer over) and the missing-object ids.
type WhyNotTarget = (Arc<Session<CorpusPin>>, Vec<ObjectId>);

/// Handle to a background session-eviction thread; dropping it stops the
/// sweeper and joins the thread.
pub struct SessionSweeper {
    // Dropping the sender wakes the sweeper's recv_timeout immediately.
    stop: Option<std::sync::mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for SessionSweeper {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl YaskService {
    /// Builds the service over a corpus and its vocabulary with the
    /// engine configuration (default executor: 4 shards, caches on).
    pub fn new(corpus: Corpus, vocab: Vocabulary, config: YaskConfig) -> Self {
        YaskService::with_config(
            corpus,
            vocab,
            ServiceConfig {
                exec: ExecConfig {
                    yask: config,
                    ..ExecConfig::default()
                },
                ..ServiceConfig::default()
            },
        )
    }

    /// Builds the service with full control over execution and sessions.
    /// Updates accepted through the write endpoints apply to the running
    /// engine but are volatile; use [`YaskService::with_wal`] for
    /// restart-surviving updates.
    pub fn with_config(corpus: Corpus, vocab: Vocabulary, config: ServiceConfig) -> Self {
        // No log, no fsync pair to amortize: a volatile service never
        // waits the coalescing window (batching still happens naturally
        // while a previous commit holds the leader lock).
        let coalesce = CoalesceConfig {
            window: Duration::ZERO,
            ..config.coalesce
        };
        YaskService::assemble(
            Executor::new(corpus.clone(), config.exec),
            Ingestor::new(corpus),
            Arc::new(Mutex::new(vocab)),
            None,
            ServiceConfig { coalesce, ..config },
        )
    }

    /// Builds the service with a durable write path: the write-ahead log
    /// at `wal_path` is opened (created when absent), the checkpoint
    /// snapshot next to it is loaded when one exists, and only the log
    /// records committed after the checkpoint are replayed before the
    /// engine starts — the service resumes at the epoch it crashed or
    /// shut down at, with restart time bounded by the checkpoint
    /// interval (`config.checkpoint`).
    pub fn with_wal(
        corpus: Corpus,
        vocab: Vocabulary,
        config: ServiceConfig,
        wal_path: &std::path::Path,
    ) -> Result<Self, IngestError> {
        // The WAL's keyword ids are only meaningful under the vocabulary
        // they were interned into; restore its snapshot before replay.
        let vocab_path = {
            let mut os = wal_path.as_os_str().to_owned();
            os.push(".vocab");
            std::path::PathBuf::from(os)
        };
        // The snapshots must extend the seed vocabulary verbatim —
        // anything else means the log belongs to a different seed.
        let verify_extends = |current: &Vocabulary, loaded: Vocabulary| {
            for (id, word) in current.iter() {
                if loaded.lookup(word) != Some(id) {
                    return Err(IngestError::WalCorrupt(format!(
                        "vocabulary snapshot does not cover word {word:?}"
                    )));
                }
            }
            Ok(loaded)
        };
        let vocab = match load_vocab_snapshot(&vocab_path)? {
            None => vocab,
            Some(loaded) => verify_extends(&vocab, loaded)?,
        };
        let ingest = Ingestor::with_wal_config(corpus, wal_path, config.checkpoint)?;
        // The checkpoint embeds the vocabulary too; if it is ahead of the
        // sidecar (e.g. the sidecar was lost), prefer it.
        let vocab = match ingest.recovered_vocab() {
            Some(words) if words.len() > vocab.len() => {
                verify_extends(&vocab, Vocabulary::from_words(words))?
            }
            _ => vocab,
        };
        let exec = Executor::new_at_epoch(ingest.corpus(), config.exec, ingest.epoch());
        let vocab = Arc::new(Mutex::new(vocab));
        // Checkpoints embed the vocabulary as interned at snapshot time.
        let vocab_for_ckpt = Arc::clone(&vocab);
        ingest.set_vocab_source(move || {
            vocab_for_ckpt
                .lock()
                .iter()
                .map(|(_, word)| word.to_owned())
                .collect()
        });
        Ok(YaskService::assemble(exec, ingest, vocab, Some(vocab_path), config))
    }

    /// The one constructor behind [`YaskService::with_config`] and
    /// [`YaskService::with_wal`]: the engine, the write path and the
    /// vocabulary come built, everything else from `config`. The
    /// vocabulary as passed in counts as persisted: a durable service
    /// resumes from it, and a volatile one (no `vocab_path`) never reads
    /// the count.
    fn assemble(
        exec: Executor,
        ingest: Ingestor,
        vocab: Arc<Mutex<Vocabulary>>,
        vocab_path: Option<std::path::PathBuf>,
        config: ServiceConfig,
    ) -> Self {
        let vocab_persisted = std::sync::atomic::AtomicUsize::new(vocab.lock().len());
        YaskService {
            exec,
            ingest,
            coalescer: WriteCoalescer::new(config.coalesce),
            sessions: SessionStore::new(config.session_ttl),
            vocab,
            vocab_path,
            vocab_persisted,
            traces: TraceLog::new(config.trace_ring, config.slow_log),
            admission: AdmissionController::new(config.admission),
            default_deadline: config.default_deadline,
            idle_timeout: config.idle_timeout,
            overloaded_idle_timeout: config.overloaded_idle_timeout,
            started: Instant::now(),
        }
    }

    /// The demo deployment: the 539-hotel Hong Kong stand-in dataset on
    /// the sharded executor.
    pub fn hk_demo() -> Self {
        let (corpus, vocab) = yask_data::hk_hotels();
        YaskService::new(corpus, vocab, YaskConfig::default())
    }

    /// Pins the current engine epoch (for white-box tests).
    pub fn engine(&self) -> EngineHandle {
        self.exec.engine()
    }

    /// The current corpus version.
    pub fn corpus(&self) -> Corpus {
        self.exec.corpus()
    }

    /// The execution subsystem.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// The write path coordinator.
    pub fn ingestor(&self) -> &Ingestor {
        &self.ingest
    }

    /// The admission controller (policy + shed/degrade counters).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The connection policy for
    /// [`crate::http::HttpServer::spawn_with_policy`]: at the critical
    /// overload level connections are refused with a canned `503` +
    /// `Retry-After` *before their request is read* — the cheapest
    /// possible shed — and while merely overloaded the keep-alive idle
    /// timeout shrinks so parked connections release worker threads
    /// exactly when threads are scarce.
    pub fn conn_policy(self: &Arc<Self>) -> ConnPolicy {
        let service = Arc::clone(self);
        Arc::new(move || {
            let p = service.exec.pressure();
            if service.admission.shed_at_accept(&p) {
                service.admission.count_accept_shed();
                return ConnControl {
                    idle_timeout: service.overloaded_idle_timeout,
                    shed: Some(service.admission.config().retry_after_secs),
                };
            }
            ConnControl {
                idle_timeout: if service.admission.level(&p) == OverloadLevel::Normal {
                    service.idle_timeout
                } else {
                    service.overloaded_idle_timeout
                },
                shed: None,
            }
        })
    }

    /// The configured session time-to-live.
    pub fn session_ttl(&self) -> Duration {
        self.sessions.ttl()
    }

    /// Live session count.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Spawns a background thread sweeping expired sessions every
    /// `period`, independent of request traffic. Optional hygiene: the
    /// store already bounds itself (every session call, `/health` and
    /// `/stats` expire the front; `create` also holds the
    /// [`yask_core::MAX_SESSIONS`] cap); the sweeper only releases
    /// expired sessions' corpus pins on a server that receives none of
    /// those — e.g. one taking only writes, where each pin keeps alive
    /// the corpus chunks unique to its version (no tree). The sweeper
    /// stops when the returned handle drops.
    pub fn spawn_session_sweeper(self: &Arc<Self>, period: Duration) -> SessionSweeper {
        let service = Arc::clone(self);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            // Sleeps the whole period; the channel disconnecting (handle
            // dropped) wakes and ends the loop immediately.
            while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(period) {
                service.sessions.evict_expired();
            }
        });
        SessionSweeper {
            stop: Some(tx),
            thread: Some(thread),
        }
    }

    /// Wraps the service as an [`Handler`] for [`crate::HttpServer`].
    pub fn into_handler(self: Arc<Self>) -> Handler {
        Arc::new(move |req: &Request| self.handle(req))
    }

    /// Whether query/why-not requests are traced without asking for it.
    fn tracing_enabled(&self) -> bool {
        !self.traces.is_disabled()
    }

    /// Classifies a request for admission: the routes that queue engine
    /// or durability work. Debug/metrics/health surfaces are never shed
    /// — an operator must be able to see *why* requests are refused.
    fn admission_route(req: &Request) -> Option<Route> {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/query") => Some(Route::TopK),
            ("POST", path) if whynot_kind(path).is_some() => Some(Route::WhyNot),
            ("POST", "/objects" | "/ingest") => Some(Route::Write),
            ("DELETE", p) if p.starts_with("/objects/") => Some(Route::Write),
            _ => None,
        }
    }

    /// The request's deadline budget: the `x-yask-deadline-ms` header
    /// when present, else the configured default (`None` = unlimited).
    fn request_deadline(&self, req: &Request) -> Result<Option<Deadline>, (u16, String)> {
        match req.header("x-yask-deadline-ms") {
            None => Ok(self.default_deadline.map(Deadline::after)),
            Some(raw) => {
                let ms: u64 = raw.trim().parse().map_err(|_| {
                    (400, format!("x-yask-deadline-ms: {raw:?} is not a millisecond count"))
                })?;
                Ok(Some(Deadline::after(Duration::from_millis(ms))))
            }
        }
    }

    /// Routes one request.
    pub fn handle(&self, req: &Request) -> Response {
        // Admission runs before body parsing and before any trace or
        // engine work: a shed request costs the server one pressure
        // sample and one canned response.
        let mut degraded = false;
        let mut deadline: Option<Deadline> = None;
        if let Some(route) = Self::admission_route(req) {
            match self.admission.decide(route, &self.exec.pressure()) {
                AdmitDecision::Admit => {}
                AdmitDecision::Degrade { deadline: budget } => {
                    degraded = true;
                    deadline = Some(budget);
                }
                AdmitDecision::Shed { reason, retry_after_secs } => {
                    return Response::error(
                        429,
                        &format!(
                            "overloaded: shedding {} requests ({})",
                            route.label(),
                            reason.label()
                        ),
                    )
                    .with_retry_after(retry_after_secs);
                }
            }
            // Reads run on a wall-clock budget; the degraded budget (if
            // any) only ever tightens the request's own.
            if route != Route::Write {
                let requested = match self.request_deadline(req) {
                    Ok(d) => d,
                    Err((status, message)) => return Response::error(status, &message),
                };
                deadline = match (deadline, requested) {
                    (Some(a), Some(b)) => Some(tighter(a, b)),
                    (a, b) => a.or(b),
                };
            }
        }
        // The read paths carry a per-query trace when ambient tracing is
        // on (`trace_ring`/`slow_log` > 0) or the request opted in with
        // `?trace=1`; other routes never pay for one.
        let whynot = whynot_kind(&req.path).filter(|_| req.method == "POST");
        let traced_route = whynot.is_some() || (req.method == "POST" && req.path == "/query");
        let inline = req.query_flag("trace");
        let trace = (traced_route && (self.tracing_enabled() || inline))
            .then(|| Trace::new(req.path.clone()));
        let t = trace.as_ref();
        let result = if let Some(kind) = whynot {
            self.with_body(req, |s, b| s.whynot(kind, b, t, deadline))
        } else {
            match (req.method.as_str(), req.path.as_str()) {
                ("GET", "/") => return Response::html(LANDING_PAGE),
                ("GET", "/metrics") => return self.metrics(),
                ("GET", "/health") => self.health(),
                ("GET", "/stats") => self.stats(),
                ("GET", "/debug/slow") => self.debug_slow(),
                ("GET", "/debug/health") => self.debug_health(),
                ("GET", "/debug/heatmap") => self.debug_heatmap(),
                ("POST", "/query") => self.with_body(req, |s, b| s.query(b, t, deadline, degraded)),
                ("POST", "/viewport") => self.with_body(req, |s, b| s.viewport(b)),
                ("POST", "/session/close") => self.with_body(req, |s, b| s.close(b)),
                ("POST", "/objects") => self.with_body(req, |s, b| s.insert_object(b)),
                ("POST", "/ingest") => self.with_body(req, |s, b| s.bulk_ingest(b)),
                ("DELETE", path) if path.starts_with("/objects/") => {
                    self.delete_object(&path["/objects/".len()..])
                }
                ("GET", _) | ("POST", _) => Err((404, format!("no route {} {}", req.method, req.path))),
                _ => Err((405, format!("method {} not allowed", req.method))),
            }
        };
        // Record after the handler so the trace covers the whole request
        // (body parse included in total, spans cover the engine work).
        let finished = trace.map(|tr| self.traces.record(tr.finish()));
        let result = match (result, finished) {
            (Ok(Json::Obj(mut fields)), Some(f)) if inline => {
                fields.push(("trace".to_owned(), render_trace(&f)));
                Ok(Json::Obj(fields))
            }
            (r, _) => r,
        };
        match result {
            Ok(body) => Response::json(body),
            Err((status, message)) => Response::error(status, &message),
        }
    }

    /// Everything one `/stats` or `/metrics` scrape reads, gathered once:
    /// one [`Executor::stats`] call and one pass over the session map
    /// (live and pinned counts under a single lock) — the only place the
    /// service does work proportional to the live session count.
    pub(crate) fn observe(&self) -> Observed {
        let corpus = self.exec.corpus();
        let exec = self.exec.stats();
        // Pinned = still answering against an epoch older than the
        // published one.
        let (sessions_live, sessions_pinned) = self
            .sessions
            .len_and_count_where(|session| session.pin.epoch() < exec.epoch);
        Observed {
            dataset: None,
            corpus_slots: corpus.slot_count(),
            corpus_chunks: corpus.chunk_count(),
            exec,
            admission: self.admission.snapshot(),
            ingest_epoch: self.ingest.epoch(),
            ingest_hists: self.ingest.latency_snapshots(),
            wal: self.ingest.wal_stats(),
            ckpt: self.ingest.checkpoint_stats(),
            corpus_copy: self.ingest.copy_stats(),
            coalesce_groups: self.coalescer.groups(),
            coalesce_batches: self.coalescer.batches(),
            sessions_live,
            sessions_pinned,
            sessions_evicted: self.sessions.evictions(),
            traces_recorded: self.traces.recorded(),
            uptime_seconds: self.started.elapsed().as_secs_f64(),
        }
    }

    /// `GET /metrics` — the Prometheus text exposition (not JSON).
    fn metrics(&self) -> Response {
        let observed = self.observe();
        let text = render_metrics(&describe(&observed), &observed);
        Response::text("text/plain; version=0.0.4; charset=utf-8", text)
    }

    /// `GET /stats` — the same samples as `/metrics`, nested as JSON,
    /// plus the corpus summary (a full corpus scan only this route pays).
    fn stats(&self) -> ApiResult {
        let dataset = Some(DatasetStats::of(&self.exec.corpus()));
        Ok(render_stats(&describe(&Observed { dataset, ..self.observe() })))
    }

    /// `GET /debug/slow` — the slow-query log: the N slowest traced
    /// requests with their full span trees, plus the recent-trace count.
    fn debug_slow(&self) -> ApiResult {
        Ok(Json::obj([
            ("recorded", Json::Num(self.traces.recorded() as f64)),
            (
                "slowest",
                Json::Arr(self.traces.slowest().iter().map(|t| render_trace(t)).collect()),
            ),
        ]))
    }

    /// `GET /debug/health` — the overload surface: windowed rates and
    /// latency quantiles per route (1 s / 10 s / 1 m), queue depth, and
    /// the admission valve's verdict — `overloaded` is its level being
    /// above `Normal`, `reasons` the [`AdmissionConfig`] limits crossed.
    /// Both triggers judge *windowed* observations, so the verdict
    /// clears on its own as a spike ages out.
    fn debug_health(&self) -> ApiResult {
        let s = self.exec.stats();
        let pressure = self.exec.pressure();
        let level = self.admission.level(&pressure);
        let limits = self.admission.config();
        let limit_ms = limits.max_topk_p99.as_secs_f64() * 1e3;
        // Each reason is machine-parseable: the signal that fired, the
        // observed value, and the exact threshold it crossed — alerting
        // rules key off `signal`, humans read `message`.
        let reason = |signal: &str, observed: f64, limit: f64, message: String| {
            Json::obj([
                ("signal", Json::str(signal)),
                ("observed", Json::Num(observed)),
                ("limit", Json::Num(limit)),
                ("message", Json::str(message)),
            ])
        };
        let mut reasons = Vec::new();
        if pressure.queue_depth_1m > limits.max_queue_depth {
            reasons.push(reason(
                "queue_depth_1m",
                pressure.queue_depth_1m as f64,
                limits.max_queue_depth as f64,
                format!(
                    "queue depth reached {} in the last minute (limit {})",
                    pressure.queue_depth_1m, limits.max_queue_depth
                ),
            ));
        }
        if pressure.topk_p99_ms > limit_ms {
            let p99_ms = pressure.topk_p99_ms;
            reasons.push(reason(
                "topk_p99_10s",
                p99_ms,
                limit_ms,
                format!("top-k p99 {p99_ms:.1}ms over the last 10s (limit {limit_ms:.1}ms)"),
            ));
        }
        let overloaded = level != OverloadLevel::Normal;
        let w = &s.workload;
        let mut routes = vec![
            ("topk".to_owned(), render_route_windows(&w.topk)),
            ("topk_hit".to_owned(), render_route_windows(&w.topk_hit)),
        ];
        for (module, rw) in w.whynot_named() {
            routes.push((format!("whynot_{module}"), render_route_windows(rw)));
        }
        routes.push(("writes".to_owned(), render_route_windows(&w.writes)));
        let write_apply = self.ingest.write_apply_windows();
        Ok(Json::obj([
            ("status", Json::str(if overloaded { "overloaded" } else { "ok" })),
            ("overloaded", Json::Bool(overloaded)),
            ("reasons", Json::Arr(reasons)),
            // What the admission valve currently does about it.
            (
                "admission_level",
                Json::str(match level {
                    OverloadLevel::Normal => "normal",
                    OverloadLevel::Overloaded => "overloaded",
                    OverloadLevel::Critical => "critical",
                }),
            ),
            ("uptime_seconds", Json::Num(self.started.elapsed().as_secs_f64())),
            (
                "queue",
                Json::obj([
                    ("depth", Json::Num(s.queue_depth as f64)),
                    ("max_since_boot", Json::Num(s.queue_depth_max as f64)),
                    ("max_1m", Json::Num(s.queue_depth_max_1m as f64)),
                ]),
            ),
            (
                "limits",
                Json::obj([
                    ("max_queue_depth", Json::Num(limits.max_queue_depth as f64)),
                    ("max_topk_p99_ms", Json::Num(limit_ms)),
                ]),
            ),
            ("routes", Json::Obj(routes)),
            (
                "write_apply",
                Json::Obj(
                    ["1s", "10s", "1m"]
                        .iter()
                        .zip(write_apply.iter())
                        .map(|(name, snap)| ((*name).to_owned(), render_window(snap)))
                        .collect(),
                ),
            ),
        ]))
    }

    /// `GET /debug/heatmap` — where the demand lands: per-STR-cell query
    /// and write heat (exponentially decayed), raw touch counts, the
    /// shard skew ratios, and the hottest query keywords resolved back
    /// to words.
    fn debug_heatmap(&self) -> ApiResult {
        let s = self.exec.stats();
        let w = &s.workload;
        let vocab = self.vocab.lock();
        let hot: Vec<Json> = w
            .hot_keywords
            .iter()
            .map(|&(id, count)| {
                Json::obj([
                    ("keyword", Json::str(vocab.resolve(KeywordId(id)))),
                    ("count", Json::Num(count as f64)),
                ])
            })
            .collect();
        drop(vocab);
        let cells: Vec<Json> = (0..w.query_heat.len())
            .map(|i| {
                Json::obj([
                    ("cell", Json::Num(i as f64)),
                    ("query_heat", Json::Num(w.query_heat[i])),
                    ("write_heat", Json::Num(w.write_heat[i])),
                    ("query_touches", Json::Num(w.query_touches[i] as f64)),
                    ("write_touches", Json::Num(w.write_touches[i] as f64)),
                ])
            })
            .collect();
        Ok(Json::obj([
            ("cells", Json::Arr(cells)),
            // Skew = hottest cell / mean cell: 0 cold, 1 balanced,
            // `cells` fully concentrated.
            ("query_skew", Json::Num(w.query_skew)),
            ("write_skew", Json::Num(w.write_skew)),
            ("half_life_seconds", Json::Num(w.heat_half_life.as_secs_f64())),
            ("hot_keywords", Json::Arr(hot)),
            ("keyword_total", Json::Num(w.keyword_total as f64)),
        ]))
    }

    fn with_body(&self, req: &Request, f: impl Fn(&Self, &Json) -> ApiResult) -> ApiResult {
        let text = req
            .body_str()
            .ok_or_else(|| (400, "body is not UTF-8".to_owned()))?;
        let body = Json::parse(text).map_err(|e| (400, e.to_string()))?;
        f(self, &body)
    }

    fn health(&self) -> ApiResult {
        Ok(Json::obj([
            ("status", Json::str("ok")),
            ("objects", Json::Num(self.exec.corpus().len() as f64)),
            ("sessions", Json::Num(self.sessions.len() as f64)),
        ]))
    }

    /// Interns a JSON keyword array into a [`KeywordSet`].
    fn intern_keywords(&self, words: &[Json]) -> Result<KeywordSet, (u16, String)> {
        let mut vocab = self.vocab.lock();
        let ids = words
            .iter()
            .map(|w| {
                w.as_str()
                    .map(|s| vocab.intern(&s.to_lowercase()))
                    .ok_or_else(|| (400, "keywords must be strings".to_owned()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(KeywordSet::from_ids(ids))
    }

    /// Maps a why-not failure to its HTTP status: an expired deadline is
    /// a `504` (counted), everything else a `400` validation error.
    fn whynot_status(&self, e: WhyNotError) -> (u16, String) {
        if matches!(e, WhyNotError::DeadlineExceeded) {
            self.admission.count_deadline_exceeded();
            (504, e.to_string())
        } else {
            (400, e.to_string())
        }
    }

    fn query(
        &self,
        body: &Json,
        trace: Option<&Trace>,
        deadline: Option<Deadline>,
        degraded: bool,
    ) -> ApiResult {
        let x = field_f64(body, "x")?;
        let y = field_f64(body, "y")?;
        let k = body
            .get("k")
            .and_then(Json::as_usize)
            .filter(|&k| k >= 1)
            .ok_or_else(|| (400, "field 'k' must be a positive integer".to_owned()))?;
        let words = body
            .get("keywords")
            .and_then(Json::as_array)
            .ok_or_else(|| (400, "field 'keywords' must be an array".to_owned()))?;
        let doc = self.intern_keywords(words)?;

        let query = Query::new(Point::new(x, y), doc, k);
        // Pin the engine epoch the query runs against. The session keeps
        // only its corpus version (no tree): follow-up why-not questions
        // keep answering over exactly that version, however many writes
        // land in the meantime.
        let handle = self.exec.engine();
        // Hot-cell-aware priority: re-judge now that the query's target
        // cell is known (`Pressure::hot_cell_ratio`) — the flash-crowd
        // cell is what *creates* the overload, so it takes the budget
        // cut even while the engine still reads as healthy overall.
        let (deadline, degraded) = if degraded {
            (deadline, true)
        } else {
            match self.admission.decide(Route::TopK, &self.exec.pressure_for(&handle, &query)) {
                AdmitDecision::Admit => (deadline, false),
                AdmitDecision::Degrade { deadline: budget } => {
                    (Some(deadline.map_or(budget, |d| tighter(d, budget))), true)
                }
                AdmitDecision::Shed { reason, retry_after_secs } => {
                    return Err((
                        429,
                        format!(
                            "overloaded: top-k shed ({}); retry after {retry_after_secs}s",
                            reason.label()
                        ),
                    ));
                }
            }
        };
        // A degraded admission may serve a stale-epoch cached answer
        // instead of queueing any work — explicitly marked, with its
        // age in epochs, so the client knows what it got.
        if degraded {
            if let Some((results, age)) =
                self.exec.cached_topk_stale(&handle, &query, DEGRADED_LOOKBACK)
            {
                if age > 0 {
                    self.admission.count_degraded_answer();
                }
                let rendered = render_results(handle.corpus(), &results);
                let session = self.sessions.create(query, handle.version());
                return Ok(Json::obj([
                    ("session", Json::Num(session.0 as f64)),
                    ("degraded", Json::Bool(age > 0)),
                    ("stale_epochs", Json::Num(age as f64)),
                    ("complete", Json::Bool(true)),
                    ("results", rendered),
                ]));
            }
        }
        let out = self.exec.top_k_deadline_on_traced(&handle, &query, trace, deadline);
        if !out.complete && out.results.is_empty() {
            // Nothing finished inside the budget: a clean 504 (the trace
            // is still recorded into the slow log by `handle`).
            self.admission.count_deadline_exceeded();
            return Err((504, "deadline expired before any shard finished".to_owned()));
        }
        if !out.complete {
            self.admission.count_degraded_answer();
        }
        let complete = out.complete;
        let rendered = render_results(handle.corpus(), &out.results);
        let session = self.sessions.create(query, handle.version());
        Ok(Json::obj([
            ("session", Json::Num(session.0 as f64)),
            ("degraded", Json::Bool(!complete)),
            ("complete", Json::Bool(complete)),
            ("results", rendered),
        ]))
    }

    /// `POST /whynot/{explain,preference,keywords,combined}`: one module
    /// of the why-not engine, answered over the session's pinned corpus
    /// version by one executor call. Explanations never read λ, so
    /// explain neither parses one nor keys the cache by it (it passes 0);
    /// the three refinements also render their refined query's top-k,
    /// which the executor read off the same request table and cached
    /// beside the refinement — the handler only renders.
    fn whynot(
        &self,
        kind: WhyNotKind,
        body: &Json,
        trace: Option<&Trace>,
        deadline: Option<Deadline>,
    ) -> ApiResult {
        let (session, missing) = self.session_and_missing(body)?;
        let pin = &session.pin;
        let lambda = match kind {
            WhyNotKind::Explain => 0.0,
            _ => optional_lambda(body, self.exec.config().yask.default_lambda)?,
        };
        let answer = self
            .exec
            .whynot_on(pin, kind, &session.query, &missing, lambda, trace, deadline)
            .map_err(|e| self.whynot_status(e))?;
        let (results, mut fields) = match &*answer {
            CachedAnswer::Explain(explanations) => {
                return Ok(Json::obj([(
                    "explanations",
                    Json::Arr(explanations.iter().map(render_explanation).collect()),
                )]))
            }
            CachedAnswer::Preference(r, results) => (
                results,
                vec![
                    (
                        "refined",
                        Json::obj([
                            ("k", Json::Num(r.query.k as f64)),
                            ("ws", Json::Num(r.query.weights.ws())),
                            ("wt", Json::Num(r.query.weights.wt())),
                        ]),
                    ),
                    ("penalty", Json::Num(r.penalty)),
                    ("rank", Json::Num(r.rank as f64)),
                    ("initial_rank", Json::Num(r.initial_rank as f64)),
                    ("delta_k", Json::Num(r.delta_k as f64)),
                    ("delta_w", Json::Num(r.delta_w)),
                ],
            ),
            CachedAnswer::Keyword(r, results) => (
                results,
                vec![
                    (
                        "refined",
                        Json::obj([
                            ("k", Json::Num(r.query.k as f64)),
                            ("keywords", self.words(&r.query.doc)),
                        ]),
                    ),
                    ("penalty", Json::Num(r.penalty)),
                    ("rank", Json::Num(r.rank as f64)),
                    ("initial_rank", Json::Num(r.initial_rank as f64)),
                    ("delta_k", Json::Num(r.delta_k as f64)),
                    ("delta_doc", Json::Num(r.delta_doc as f64)),
                ],
            ),
            CachedAnswer::Combined(r, results) => (
                results,
                vec![
                    (
                        "refined",
                        Json::obj([
                            ("k", Json::Num(r.query.k as f64)),
                            ("ws", Json::Num(r.query.weights.ws())),
                            ("wt", Json::Num(r.query.weights.wt())),
                            ("keywords", self.words(&r.query.doc)),
                        ]),
                    ),
                    ("penalty", Json::Num(r.penalty)),
                    ("rank", Json::Num(r.rank as f64)),
                    ("delta_k", Json::Num(r.delta_k as f64)),
                    ("delta_w", Json::Num(r.delta_w)),
                    ("delta_doc", Json::Num(r.delta_doc as f64)),
                    ("order", Json::str(format!("{:?}", r.order))),
                ],
            ),
        };
        fields.push(("results", render_results(pin.corpus(), results)));
        Ok(Json::obj(fields))
    }

    /// Resolves a refined keyword set back to its words.
    fn words(&self, doc: &KeywordSet) -> Json {
        let vocab = self.vocab.lock();
        Json::Arr(doc.iter().map(|id| Json::str(vocab.resolve(id))).collect())
    }

    /// The map panel's object listing: all objects in a rectangle,
    /// optionally keyword-filtered (`mode` = "any" | "all").
    fn viewport(&self, body: &Json) -> ApiResult {
        let x0 = field_f64(body, "x0")?;
        let y0 = field_f64(body, "y0")?;
        let x1 = field_f64(body, "x1")?;
        let y1 = field_f64(body, "y1")?;
        if x0 > x1 || y0 > y1 {
            return Err((400, "inverted viewport rectangle".to_owned()));
        }
        let mode = match body.get("mode").and_then(Json::as_str).unwrap_or("all") {
            "any" => yask_query::MatchMode::Any,
            "all" => yask_query::MatchMode::All,
            other => return Err((400, format!("unknown mode {other:?}"))),
        };
        let words = body
            .get("keywords")
            .and_then(Json::as_array)
            .unwrap_or(&[]);
        let doc = self.intern_keywords(words)?;
        let rect = yask_geo::Rect::from_coords(x0, y0, x1, y1);
        let found = self.exec.viewport(&rect, &doc, mode);
        let corpus = self.exec.corpus();
        Ok(Json::obj([(
            "objects",
            Json::Arr(
                found
                    .iter()
                    .map(|&id| {
                        let o = corpus.get(id);
                        Json::obj([
                            ("id", Json::Num(id.0 as f64)),
                            ("name", Json::str(o.name.clone())),
                            ("x", Json::Num(o.loc.x)),
                            ("y", Json::Num(o.loc.y)),
                        ])
                    })
                    .collect(),
            ),
        )]))
    }

    fn close(&self, body: &Json) -> ApiResult {
        let id = session_id(body)?;
        Ok(Json::obj([("closed", Json::Bool(self.sessions.remove(id)))]))
    }

    // -- live corpus updates ------------------------------------------------

    /// Snapshots the vocabulary next to the WAL (durable services only).
    /// Runs *before* the batch is logged — a snapshot that is a superset
    /// of what the log references is harmless, the reverse is not — and
    /// skips the serialize + fsync when no word was interned since the
    /// last snapshot (the vocabulary is append-only, so equal length
    /// means equal content).
    fn persist_vocab(&self) -> Result<(), (u16, String)> {
        use std::sync::atomic::Ordering;
        let Some(path) = &self.vocab_path else {
            return Ok(());
        };
        // The lock is held across the file write: two concurrent writers
        // must not let an older (shorter) snapshot land after a newer one.
        // Growth is rare, so the occasional fsync under the lock is fine.
        let vocab = self.vocab.lock();
        if vocab.len() == self.vocab_persisted.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut out = Vec::new();
        out.extend_from_slice(VOCAB_MAGIC);
        out.extend_from_slice(&(vocab.len() as u32).to_le_bytes());
        for (_, word) in vocab.iter() {
            out.extend_from_slice(&(word.len() as u32).to_le_bytes());
            out.extend_from_slice(word.as_bytes());
        }
        write_vocab_snapshot(path, &out)
            .map_err(|e| (500, format!("persist vocabulary snapshot: {e}")))?;
        self.vocab_persisted.store(vocab.len(), Ordering::Release);
        Ok(())
    }

    /// Parses one `{x, y, name?, keywords?}` insert payload.
    fn parse_new_object(&self, body: &Json) -> Result<NewObject, (u16, String)> {
        let x = field_f64(body, "x")?;
        let y = field_f64(body, "y")?;
        let name = body
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned();
        let words = body
            .get("keywords")
            .and_then(Json::as_array)
            .unwrap_or(&[]);
        let doc = self.intern_keywords(words)?;
        Ok(NewObject::new(Point::new(x, y), doc, name))
    }

    /// Runs one batch through the write coalescer (concurrent requests
    /// share a group commit), mapping failures to HTTP statuses.
    fn coalesced_write(&self, batch: Vec<Update>) -> Result<yask_ingest::ApplyOutcome, (u16, String)> {
        self.coalescer
            .submit(&self.ingest, &self.exec, batch)
            .map_err(|e| match e {
                WriteError::Rejected(inner) => ingest_status(inner),
                WriteError::Failed(why) => (500, why),
            })
    }

    /// `POST /objects` — insert one object.
    fn insert_object(&self, body: &Json) -> ApiResult {
        let obj = self.parse_new_object(body)?;
        self.persist_vocab()?;
        let out = self.coalesced_write(vec![Update::Insert(obj)])?;
        Ok(Json::obj([
            ("id", Json::Num(out.inserted[0].0 as f64)),
            ("epoch", Json::Num(out.epoch as f64)),
            ("rebalanced", Json::Bool(out.rebalanced)),
        ]))
    }

    /// `DELETE /objects/{id}` — tombstone one object. Sessions whose
    /// cached results reference it stay valid: they pinned their epoch at
    /// creation and keep answering against it.
    fn delete_object(&self, raw_id: &str) -> ApiResult {
        let id: u32 = raw_id
            .parse()
            .map_err(|_| (400, format!("invalid object id {raw_id:?}")))?;
        let out = self.coalesced_write(vec![Update::Delete(ObjectId(id))])?;
        Ok(Json::obj([
            ("deleted", Json::Num(id as f64)),
            ("epoch", Json::Num(out.epoch as f64)),
            ("rebalanced", Json::Bool(out.rebalanced)),
        ]))
    }

    /// `POST /ingest` — a bulk `{inserts: […], deletes: […]}` batch,
    /// committed as one epoch (and one WAL record).
    fn bulk_ingest(&self, body: &Json) -> ApiResult {
        let mut batch: Vec<Update> = Vec::new();
        if let Some(items) = body.get("inserts").and_then(Json::as_array) {
            for item in items {
                batch.push(Update::Insert(self.parse_new_object(item)?));
            }
        }
        if let Some(items) = body.get("deletes").and_then(Json::as_array) {
            for item in items {
                let idx = item
                    .as_usize()
                    .ok_or_else(|| (400, "deletes are non-negative object ids".to_owned()))?;
                let idx = u32::try_from(idx)
                    .map_err(|_| (400, format!("object id {idx} out of range")))?;
                batch.push(Update::Delete(ObjectId(idx)));
            }
        }
        self.persist_vocab()?;
        let out = self.coalesced_write(batch)?;
        Ok(Json::obj([
            ("epoch", Json::Num(out.epoch as f64)),
            (
                "inserted",
                Json::Arr(out.inserted.iter().map(|id| Json::Num(id.0 as f64)).collect()),
            ),
            ("deleted", Json::Num(out.deleted.len() as f64)),
            ("rebalanced", Json::Bool(out.rebalanced)),
        ]))
    }

    /// Resolves a why-not request body to its session and the
    /// missing-object ids — names and liveness resolve against the corpus
    /// version of the epoch the session pinned at creation, so a session
    /// keeps addressing objects deleted after its initial query.
    fn session_and_missing(
        &self,
        body: &Json,
    ) -> Result<WhyNotTarget, (u16, String)> {
        let id = session_id(body)?;
        let session = self
            .sessions
            .get(id)
            .ok_or_else(|| (410, format!("session {id} unknown or expired")))?;
        let raw = body
            .get("missing")
            .and_then(Json::as_array)
            .ok_or_else(|| (400, "field 'missing' must be an array".to_owned()))?;
        let corpus = session.pin.corpus();
        let mut missing = Vec::with_capacity(raw.len());
        for item in raw {
            let id = match item {
                Json::Num(_) => {
                    let idx = item
                        .as_usize()
                        .ok_or_else(|| (400, "object ids are non-negative integers".to_owned()))?;
                    if idx >= corpus.slot_count() {
                        return Err((400, format!("object id {idx} out of range")));
                    }
                    if !corpus.contains(ObjectId(idx as u32)) {
                        return Err((410, format!("object id {idx} was deleted")));
                    }
                    ObjectId(idx as u32)
                }
                Json::Str(name) => corpus
                    .find_by_name(name)
                    .map(|o| o.id)
                    .ok_or_else(|| (400, format!("no object named {name:?}")))?,
                _ => return Err((400, "missing entries are ids or names".to_owned())),
            };
            missing.push(id);
        }
        Ok((session, missing))
    }
}

/// The `/whynot/*` routes: the module each path asks for.
fn whynot_kind(path: &str) -> Option<WhyNotKind> {
    match path {
        "/whynot/explain" => Some(WhyNotKind::Explain),
        "/whynot/preference" => Some(WhyNotKind::Preference),
        "/whynot/keywords" => Some(WhyNotKind::Keyword),
        "/whynot/combined" => Some(WhyNotKind::Combined),
        _ => None,
    }
}

/// Renders a ranked result list against the corpus version it was
/// computed on (the session's pinned epoch for why-not answers).
fn render_results(corpus: &Corpus, results: &[RankedObject]) -> Json {
    Json::Arr(
        results
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let o = corpus.get(r.id);
                Json::obj([
                    ("rank", Json::Num((i + 1) as f64)),
                    ("id", Json::Num(r.id.0 as f64)),
                    ("name", Json::str(o.name.clone())),
                    ("x", Json::Num(o.loc.x)),
                    ("y", Json::Num(o.loc.y)),
                    ("score", Json::Num(r.score)),
                ])
            })
            .collect(),
    )
}

/// The tighter of two deadlines (less remaining budget wins).
fn tighter(a: Deadline, b: Deadline) -> Deadline {
    if a.remaining() <= b.remaining() {
        a
    } else {
        b
    }
}

fn field_f64(body: &Json, name: &str) -> Result<f64, (u16, String)> {
    body.get(name)
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite())
        .ok_or_else(|| (400, format!("field '{name}' must be a finite number")))
}

/// The `session` field: a non-negative integer id, nothing else (a
/// fractional or negative number must not alias another session).
fn session_id(body: &Json) -> Result<SessionId, (u16, String)> {
    body.get("session")
        .and_then(Json::as_u64)
        .map(SessionId)
        .ok_or_else(|| (400, "field 'session' must be a non-negative integer".to_owned()))
}

const VOCAB_MAGIC: &[u8; 8] = b"YASKVOC1";

/// Atomically (write-temp, fsync, rename) replaces the vocabulary
/// snapshot at `path`.
fn write_vocab_snapshot(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = {
        let mut os = path.as_os_str().to_owned();
        os.push(".tmp");
        std::path::PathBuf::from(os)
    };
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)
}

/// Loads the vocabulary snapshot at `path`; `Ok(None)` when absent.
fn load_vocab_snapshot(
    path: &std::path::Path,
) -> Result<Option<Vocabulary>, IngestError> {
    if !path.exists() {
        return Ok(None);
    }
    let bytes = std::fs::read(path)?;
    let corrupt = |why: &str| IngestError::WalCorrupt(format!("vocabulary snapshot: {why}"));
    if bytes.len() < 12 || &bytes[..8] != VOCAB_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let mut words = Vec::with_capacity(count.min(1 << 20));
    let mut pos = 12usize;
    for _ in 0..count {
        if pos + 4 > bytes.len() {
            return Err(corrupt("truncated"));
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        pos += 4;
        if pos + len > bytes.len() {
            return Err(corrupt("truncated word"));
        }
        let word = std::str::from_utf8(&bytes[pos..pos + len]).map_err(|_| corrupt("not UTF-8"))?;
        words.push(word.to_owned());
        pos += len;
    }
    Ok(Some(Vocabulary::from_words(words)))
}

/// Maps a rejected or failed write batch to an HTTP status.
fn ingest_status(e: IngestError) -> (u16, String) {
    let status = match &e {
        IngestError::EmptyBatch
        | IngestError::NonFiniteLocation
        | IngestError::DuplicateDelete(_) => 400,
        IngestError::UnknownObject(_) => 404,
        IngestError::DeadObject(_) => 410,
        IngestError::WalBaseMismatch { .. } | IngestError::WalCorrupt(_) | IngestError::Io(_) => {
            500
        }
    };
    (status, e.to_string())
}

fn optional_lambda(body: &Json, default: f64) -> Result<f64, (u16, String)> {
    match body.get("lambda") {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .filter(|l| (0.0..=1.0).contains(l))
            .ok_or_else(|| (400, "field 'lambda' must be in [0, 1]".to_owned())),
    }
}

/// Renders one windowed aggregate as `{count, rate, p50_us, p99_us,
/// max_us}`.
fn render_window(w: &WindowSnapshot) -> Json {
    Json::obj([
        ("count", Json::Num(w.count as f64)),
        ("rate", Json::Num(w.rate_per_sec())),
        ("p50_us", Json::Num(w.p50() as f64 / 1e3)),
        ("p99_us", Json::Num(w.p99() as f64 / 1e3)),
        ("max_us", Json::Num(w.max_ns as f64 / 1e3)),
    ])
}

/// Renders one route's three standard horizons keyed `"1s"`, `"10s"`,
/// `"1m"`.
fn render_route_windows(rw: &RouteWindows) -> Json {
    Json::Obj(
        rw.iter_named()
            .iter()
            .map(|(name, snap)| ((*name).to_owned(), render_window(snap)))
            .collect(),
    )
}

/// Renders a finished trace as `{label, total_us, spans}` with each span
/// carrying its id and parent id (`null` for roots) so clients can
/// rebuild the tree.
fn render_trace(t: &FinishedTrace) -> Json {
    Json::obj([
        ("label", Json::str(t.label.clone())),
        ("total_us", Json::Num(t.total_ns as f64 / 1_000.0)),
        (
            "spans",
            Json::Arr(
                t.spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("id", Json::Num(s.id as f64)),
                            (
                                "parent",
                                if s.parent == NO_PARENT {
                                    Json::Null
                                } else {
                                    Json::Num(s.parent as f64)
                                },
                            ),
                            ("name", Json::str(s.name.clone())),
                            ("start_us", Json::Num(s.start_ns as f64 / 1_000.0)),
                            ("dur_us", Json::Num(s.dur_ns as f64 / 1_000.0)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn render_explanation(e: &Explanation) -> Json {
    Json::obj([
        ("id", Json::Num(e.object.0 as f64)),
        ("name", Json::str(e.name.clone())),
        ("rank", Json::Num(e.rank as f64)),
        ("k", Json::Num(e.k as f64)),
        ("score", Json::Num(e.score)),
        ("spatial", Json::Num(e.spatial_part)),
        ("textual", Json::Num(e.textual_part)),
        ("reason", Json::str(format!("{:?}", e.reason))),
        ("message", Json::str(e.message.clone())),
    ])
}

/// The browser landing page — a text substitute for the Google-Maps GUI
/// of the demo (Figs 3–5); see DESIGN.md §3.
const LANDING_PAGE: &str = r#"<!doctype html>
<html><head><title>YASK — why-not spatial keyword queries</title></head>
<body>
<h1>YASK</h1>
<p>A whY-not question Answering engine for Spatial Keyword query services.</p>
<p>POST /query {"x":114.17,"y":22.30,"keywords":["clean","comfortable"],"k":3}</p>
<p>POST /whynot/explain {"session":ID,"missing":["Hotel Name"]}</p>
<p>POST /whynot/preference | /whynot/keywords | /whynot/combined {"session":ID,"missing":[...],"lambda":0.5}</p>
<p>POST /session/close {"session":ID}</p>
<p>POST /objects {"x":114.18,"y":22.31,"name":"New Hotel","keywords":["clean","spa"]}</p>
<p>DELETE /objects/ID</p>
<p>POST /ingest {"inserts":[...],"deletes":[ID,...]}</p>
</body></html>
"#;

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> YaskService {
        YaskService::hk_demo()
    }

    fn post(service: &YaskService, path: &str, body: Json) -> (u16, Json) {
        let req = Request {
            method: "POST".into(),
            path: path.into(),
            query: String::new(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: body.to_string().into_bytes(),
        };
        let resp = service.handle(&req);
        let parsed = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        (resp.status, parsed)
    }

    fn get(service: &YaskService, path: &str) -> (u16, Json) {
        let req = Request {
            method: "GET".into(),
            path: path.into(),
            query: String::new(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: vec![],
        };
        let resp = service.handle(&req);
        if resp.content_type.starts_with("text/html") {
            return (resp.status, Json::Null);
        }
        let parsed = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        (resp.status, parsed)
    }

    fn tst_query(service: &YaskService, k: usize) -> (u64, Vec<String>) {
        let (status, body) = post(
            service,
            "/query",
            Json::obj([
                ("x", Json::Num(114.172)),
                ("y", Json::Num(22.297)),
                ("keywords", Json::Arr(vec![Json::str("clean"), Json::str("comfortable")])),
                ("k", Json::Num(k as f64)),
            ]),
        );
        assert_eq!(status, 200, "{body}");
        let session = body.get("session").unwrap().as_f64().unwrap() as u64;
        let names = body
            .get("results")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r.get("name").unwrap().as_str().unwrap().to_owned())
            .collect();
        (session, names)
    }

    #[test]
    fn health_and_stats() {
        let s = service();
        let (status, body) = get(&s, "/health");
        assert_eq!(status, 200);
        assert_eq!(body.get("objects").unwrap().as_usize(), Some(539));
        let (status, body) = get(&s, "/stats");
        assert_eq!(status, 200);
        assert!(body.get("distinct_keywords").unwrap().as_usize().unwrap() > 50);
    }

    #[test]
    fn query_creates_session_with_k_results() {
        let s = service();
        let (session, names) = tst_query(&s, 3);
        assert!(session >= 1);
        assert_eq!(names.len(), 3);
        assert_eq!(s.session_count(), 1);
    }

    #[test]
    fn largest_accepted_k_returns_every_object() {
        // The collector must not reserve k slots up front: a client's k
        // would otherwise size a 64 GiB allocation per shard search.
        let s = service();
        let (_, names) = tst_query(&s, u32::MAX as usize);
        assert_eq!(names.len(), 539);
    }

    #[test]
    fn full_why_not_flow_over_the_api() {
        let s = service();
        let (session, top_names) = tst_query(&s, 3);

        // Find a hotel not in the result to ask about (by name).
        let corpus = s.corpus();
        let missing_name = corpus
            .iter()
            .map(|o| o.name.clone())
            .find(|n| !top_names.contains(n))
            .unwrap();

        let (status, body) = post(
            &s,
            "/whynot/explain",
            Json::obj([
                ("session", Json::Num(session as f64)),
                ("missing", Json::Arr(vec![Json::str(missing_name.clone())])),
            ]),
        );
        assert_eq!(status, 200, "{body}");
        let ex = &body.get("explanations").unwrap().as_array().unwrap()[0];
        assert_eq!(ex.get("name").unwrap().as_str(), Some(missing_name.as_str()));
        assert!(ex.get("rank").unwrap().as_usize().unwrap() > 3);
        let initial = s.sessions.get(SessionId(session)).unwrap().query.clone();
        let params = s.exec.engine().score_params();

        for path in ["/whynot/preference", "/whynot/keywords", "/whynot/combined"] {
            let (status, body) = post(
                &s,
                path,
                Json::obj([
                    ("session", Json::Num(session as f64)),
                    ("missing", Json::Arr(vec![Json::str(missing_name.clone())])),
                    ("lambda", Json::Num(0.5)),
                ]),
            );
            assert_eq!(status, 200, "{path}: {body}");
            let penalty = body.get("penalty").unwrap().as_f64().unwrap();
            assert!((0.0..=1.0).contains(&penalty), "{path}");
            // The refined result must contain the missing hotel.
            let revived = body
                .get("results")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .any(|r| r.get("name").unwrap().as_str() == Some(missing_name.as_str()));
            assert!(revived, "{path} did not revive {missing_name}");
            // The results are the exact top-k of the refined query the
            // response returns: ids and scores.
            let refined = body.get("refined").unwrap();
            let mut q = initial.with_k(refined.get("k").unwrap().as_usize().unwrap());
            if let Some(ws) = refined.get("ws") {
                q = q.reweighted(yask_query::Weights::from_ws(ws.as_f64().unwrap()));
            }
            if let Some(words) = refined.get("keywords") {
                let vocab = s.vocab.lock();
                q = q.with_doc(KeywordSet::from_raw(words.as_array().unwrap().iter().map(
                    |w| vocab.lookup(w.as_str().unwrap()).unwrap().0,
                )));
            }
            let want: Vec<(f64, f64)> = yask_query::topk_scan(&corpus, &params, &q)
                .iter()
                .map(|r| (r.id.0 as f64, r.score))
                .collect();
            let got: Vec<(f64, f64)> = body
                .get("results")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|r| {
                    let num = |key| r.get(key).unwrap().as_f64().unwrap();
                    (num("id"), num("score"))
                })
                .collect();
            assert_eq!(got, want, "{path}");
        }

        let (status, body) = post(
            &s,
            "/session/close",
            Json::obj([("session", Json::Num(session as f64))]),
        );
        assert_eq!(status, 200);
        assert_eq!(body.get("closed").unwrap().as_bool(), Some(true));
        assert_eq!(s.session_count(), 0);
    }

    #[test]
    fn explain_never_reads_lambda() {
        // λ weighs the refinements' penalties only: explain neither parses
        // nor validates it, while a refinement still rejects λ ∉ [0, 1].
        let s = service();
        let (session, top_names) = tst_query(&s, 3);
        let missing = s
            .corpus()
            .iter()
            .map(|o| o.name.clone())
            .find(|n| !top_names.contains(n))
            .unwrap();
        let ask = |path: &str, lambda: Option<f64>| {
            let mut fields = vec![
                ("session", Json::Num(session as f64)),
                ("missing", Json::Arr(vec![Json::str(missing.clone())])),
            ];
            fields.extend(lambda.map(|l| ("lambda", Json::Num(l))));
            post(&s, path, Json::obj(fields))
        };
        let (status, plain) = ask("/whynot/explain", None);
        assert_eq!(status, 200, "{plain}");
        let (status, with_lambda) = ask("/whynot/explain", Some(7.0));
        assert_eq!(status, 200, "{with_lambda}");
        assert!(plain.get("explanations").is_some());
        assert_eq!(with_lambda.get("explanations"), plain.get("explanations"));
        let (status, body) = ask("/whynot/preference", Some(7.0));
        assert_eq!(status, 400, "{body}");
    }

    #[test]
    fn viewport_lists_objects_in_rect() {
        let s = service();
        // Whole city, no filter.
        let (status, body) = post(
            &s,
            "/viewport",
            Json::obj([
                ("x0", Json::Num(114.0)),
                ("y0", Json::Num(22.0)),
                ("x1", Json::Num(115.0)),
                ("y1", Json::Num(23.0)),
            ]),
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("objects").unwrap().as_array().unwrap().len(), 539);
        // Keyword-filtered subset.
        let (status, body) = post(
            &s,
            "/viewport",
            Json::obj([
                ("x0", Json::Num(114.0)),
                ("y0", Json::Num(22.0)),
                ("x1", Json::Num(115.0)),
                ("y1", Json::Num(23.0)),
                ("keywords", Json::Arr(vec![Json::str("spa")])),
                ("mode", Json::str("any")),
            ]),
        );
        assert_eq!(status, 200);
        let n = body.get("objects").unwrap().as_array().unwrap().len();
        assert!(n > 0 && n < 539, "spa filter returned {n}");
        // Inverted rect rejected.
        let (status, _) = post(
            &s,
            "/viewport",
            Json::obj([
                ("x0", Json::Num(115.0)),
                ("y0", Json::Num(22.0)),
                ("x1", Json::Num(114.0)),
                ("y1", Json::Num(23.0)),
            ]),
        );
        assert_eq!(status, 400);
    }

    #[test]
    fn bad_requests_get_400() {
        let s = service();
        // Not JSON.
        let req = Request {
            method: "POST".into(),
            path: "/query".into(),
            query: String::new(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: b"not json".to_vec(),
        };
        assert_eq!(s.handle(&req).status, 400);
        // Missing fields.
        let (status, _) = post(&s, "/query", Json::obj([("x", Json::Num(1.0))]));
        assert_eq!(status, 400);
        // Bad k.
        let (status, _) = post(
            &s,
            "/query",
            Json::obj([
                ("x", Json::Num(114.0)),
                ("y", Json::Num(22.0)),
                ("keywords", Json::Arr(vec![])),
                ("k", Json::Num(0.0)),
            ]),
        );
        assert_eq!(status, 400);
    }

    #[test]
    fn unknown_session_is_410() {
        let s = service();
        let (status, _) = post(
            &s,
            "/whynot/explain",
            Json::obj([
                ("session", Json::Num(999.0)),
                ("missing", Json::Arr(vec![Json::Num(1.0)])),
            ]),
        );
        assert_eq!(status, 410);
    }

    #[test]
    fn unknown_route_and_method() {
        let s = service();
        let (status, _) = get(&s, "/nope");
        assert_eq!(status, 404);
        let req = Request {
            method: "DELETE".into(),
            path: "/query".into(),
            query: String::new(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: vec![],
        };
        assert_eq!(s.handle(&req).status, 405);
    }

    #[test]
    fn unknown_missing_name_is_400() {
        let s = service();
        let (session, _) = tst_query(&s, 3);
        let (status, body) = post(
            &s,
            "/whynot/explain",
            Json::obj([
                ("session", Json::Num(session as f64)),
                ("missing", Json::Arr(vec![Json::str("No Such Hotel")])),
            ]),
        );
        assert_eq!(status, 400);
        assert!(body.get("error").unwrap().as_str().unwrap().contains("No Such Hotel"));
    }

    #[test]
    fn stats_expose_exec_metrics() {
        let s = service();
        let (_, _) = tst_query(&s, 3);
        let (status, body) = get(&s, "/stats");
        assert_eq!(status, 200);
        let exec = body.get("exec").unwrap();
        assert_eq!(exec.get("shards").unwrap().as_usize(), Some(4));
        assert_eq!(exec.get("workers").unwrap().as_usize(), Some(4));
        assert_eq!(exec.get("scatter_queries").unwrap().as_usize(), Some(1));
        assert_eq!(exec.get("scan_fallbacks").unwrap().as_usize(), Some(0));
        let topk = exec.get("topk_cache").unwrap();
        assert_eq!(topk.get("misses").unwrap().as_usize(), Some(1));
        let per_shard = exec.get("per_shard").unwrap().as_array().unwrap();
        assert_eq!(per_shard.len(), 4);
        let objects: usize = per_shard
            .iter()
            .map(|p| p.get("objects").unwrap().as_usize().unwrap())
            .sum();
        assert_eq!(objects, 539);
    }

    /// Satellite: `/stats` proves the global tree is gone — the index
    /// footprint is exactly the per-shard node/byte counters summed, and
    /// the per-shard live counts stay tombstone-adjusted after deletes.
    #[test]
    fn stats_expose_per_shard_index_shape() {
        let s = service();
        let (status, body) = get(&s, "/stats");
        assert_eq!(status, 200);
        let exec = body.get("exec").unwrap();
        let per_shard = exec.get("per_shard").unwrap().as_array().unwrap();
        let nodes: usize = per_shard
            .iter()
            .map(|p| p.get("nodes").unwrap().as_usize().unwrap())
            .sum();
        let bytes: usize = per_shard
            .iter()
            .map(|p| p.get("index_bytes").unwrap().as_usize().unwrap())
            .sum();
        assert!(nodes > 0);
        assert!(bytes > 0);
        assert_eq!(exec.get("index_nodes").unwrap().as_usize(), Some(nodes));
        assert_eq!(exec.get("index_bytes").unwrap().as_usize(), Some(bytes));
        // Arena view: every shard reports its chunked node slab, which
        // holds at least the reachable bytes; no batch has been applied
        // yet, so the tree-copy counters are zero.
        for p in per_shard {
            let arena = p.get("arena_bytes").unwrap().as_usize().unwrap();
            let reachable = p.get("index_bytes").unwrap().as_usize().unwrap();
            assert!(arena >= reachable, "arena {arena} < reachable {reachable}");
        }
        assert_eq!(exec.get("index_chunks_copied").unwrap().as_usize(), Some(0));
        assert_eq!(exec.get("index_copy_bytes").unwrap().as_usize(), Some(0));
        // A one-shard deployment of the same corpus reports one tree;
        // the sharded executor holds only its shards — no global tree on
        // top (the sharded node total stays in the same ballpark instead
        // of doubling).
        let (corpus, vocab) = yask_data::hk_hotels();
        let single = YaskService::with_config(
            corpus,
            vocab,
            ServiceConfig {
                exec: ExecConfig { shards: 1, ..ExecConfig::default() },
                session_ttl: Duration::from_secs(60),
                ..ServiceConfig::default()
            },
        );
        let single_nodes = single.executor().stats().index_nodes;
        assert!(single_nodes > 0);
        assert!(
            nodes < 2 * single_nodes,
            "sharded index carries a hidden global tree: {nodes} vs single {single_nodes}"
        );

        // Tombstone adjustment: delete one object, live counts follow.
        let live_before = exec.get("live_objects").unwrap().as_usize().unwrap();
        let del = Request {
            method: "DELETE".into(),
            path: "/objects/0".into(),
            query: String::new(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: Vec::new(),
        };
        assert_eq!(s.handle(&del).status, 200);
        let (_, body) = get(&s, "/stats");
        let exec = body.get("exec").unwrap();
        assert_eq!(
            exec.get("live_objects").unwrap().as_usize(),
            Some(live_before - 1)
        );
        assert_eq!(exec.get("tombstones").unwrap().as_usize(), Some(1));
        // The delete batch paid a bounded path-copy bill, now visible in
        // the cumulative tree-copy counters.
        assert!(exec.get("index_chunks_copied").unwrap().as_usize().unwrap() >= 1);
        assert!(exec.get("index_copy_bytes").unwrap().as_usize().unwrap() > 0);
        let objects: usize = exec
            .get("per_shard")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p.get("objects").unwrap().as_usize().unwrap())
            .sum();
        assert_eq!(objects, live_before - 1, "per-shard live counts adjust");
    }

    /// Satellite: the WAL group counter is surfaced (0 groups for a
    /// volatile deployment, but the field must exist).
    #[test]
    fn stats_expose_wal_groups() {
        let s = service();
        let (_, body) = get(&s, "/stats");
        let ingest = body.get("ingest").unwrap();
        assert_eq!(ingest.get("wal_groups").unwrap().as_usize(), Some(0));
        assert_eq!(ingest.get("durable").unwrap(), &Json::Bool(false));
    }

    #[test]
    fn repeated_query_is_served_from_the_cache() {
        let s = service();
        let (_, names_a) = tst_query(&s, 3);
        let (_, names_b) = tst_query(&s, 3);
        assert_eq!(names_a, names_b);
        let exec = s.executor().stats();
        assert_eq!(exec.topk_cache.hits, 1);
        assert_eq!(exec.queries, 1, "second query must come from the cache");
    }

    /// Past the TTL a session is gone without any sweep: a why-not on it
    /// is 410, and that lookup expires the other idle sessions too.
    #[test]
    fn session_ttl_is_configurable() {
        let s = ttl_service(Duration::from_millis(40));
        assert_eq!(s.session_ttl(), Duration::from_millis(40));
        let (asked, _) = tst_query(&s, 2);
        let (_, _) = tst_query(&s, 2);
        assert_eq!(s.session_count(), 2);
        std::thread::sleep(Duration::from_millis(80));
        let (status, _) = post(
            &s,
            "/whynot/explain",
            Json::obj([
                ("session", Json::Num(asked as f64)),
                ("missing", Json::Arr(vec![Json::Num(1.0)])),
            ]),
        );
        assert_eq!(status, 410);
        assert_eq!(s.session_count(), 0, "the lookup expires every idle session");
        let (_, _) = tst_query(&s, 2);
        assert_eq!(s.session_count(), 1, "only the new session is left");
        let (_, stats) = get(&s, "/stats");
        let evicted = stats.get("sessions").unwrap().get("evicted").unwrap();
        assert_eq!(evicted.get("ttl").unwrap().as_usize(), Some(2));
        assert_eq!(evicted.get("cap").unwrap().as_usize(), Some(0));
    }

    /// A server taking only writes past the TTL: the first scrape
    /// expires the session, so `/stats` counts neither it nor the
    /// superseded epoch it pinned.
    #[test]
    fn expired_pins_drop_without_session_traffic() {
        let s = ttl_service(Duration::from_millis(40));
        let (_, _) = tst_query(&s, 2);
        let ids: Vec<u32> = s.corpus().iter().map(|o| o.id.0).take(3).collect();
        let (status, _) = delete(&s, &format!("/objects/{}", ids[0]));
        assert_eq!(status, 200);
        let (_, stats) = get(&s, "/stats");
        assert_eq!(stats.get("sessions").unwrap().get("pinned_epochs").unwrap().as_usize(), Some(1));
        std::thread::sleep(Duration::from_millis(80));
        for id in &ids[1..] {
            let (status, _) = delete(&s, &format!("/objects/{id}"));
            assert_eq!(status, 200);
        }
        let (_, stats) = get(&s, "/stats");
        let sessions = stats.get("sessions").unwrap();
        assert_eq!(sessions.get("live").unwrap().as_usize(), Some(0));
        assert_eq!(sessions.get("pinned_epochs").unwrap().as_usize(), Some(0));
        assert_eq!(sessions.get("evicted").unwrap().get("ttl").unwrap().as_usize(), Some(1));
        let (_, health) = get(&s, "/health");
        assert_eq!(health.get("sessions").unwrap().as_usize(), Some(0));
    }

    fn ttl_service(ttl: Duration) -> YaskService {
        let (corpus, vocab) = yask_data::hk_hotels();
        YaskService::with_config(
            corpus,
            vocab,
            ServiceConfig {
                exec: ExecConfig { shards: 1, ..ExecConfig::default() },
                session_ttl: ttl,
                ..ServiceConfig::default()
            },
        )
    }

    /// A session id is a non-negative integer: `1.9` must not address
    /// `s1`, nor `-1` saturate to `s0`.
    #[test]
    fn session_ids_must_be_non_negative_integers() {
        let s = service();
        let (session, _) = tst_query(&s, 3);
        assert_eq!(session, 1);
        for bad in [Json::Num(1.9), Json::Num(-1.0), Json::str("1")] {
            let (status, body) = post(
                &s,
                "/whynot/explain",
                Json::obj([
                    ("session", bad.clone()),
                    ("missing", Json::Arr(vec![Json::Num(1.0)])),
                ]),
            );
            assert_eq!(status, 400, "explain with session {bad}: {body}");
            let (status, body) = post(&s, "/session/close", Json::obj([("session", bad.clone())]));
            assert_eq!(status, 400, "close with session {bad}: {body}");
        }
        assert_eq!(s.session_count(), 1, "no malformed id closed the session");
    }

    #[test]
    fn background_sweeper_evicts_without_traffic() {
        let (corpus, vocab) = yask_data::hk_hotels();
        let s = Arc::new(YaskService::with_config(
            corpus,
            vocab,
            ServiceConfig {
                exec: ExecConfig { shards: 1, ..ExecConfig::default() },
                session_ttl: Duration::from_millis(30),
                ..ServiceConfig::default()
            },
        ));
        let _sweeper = s.spawn_session_sweeper(Duration::from_millis(10));
        let (_, _) = tst_query(&s, 2);
        assert_eq!(s.session_count(), 1);
        // No requests from here on: the sweeper alone must evict.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while s.session_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(s.session_count(), 0, "sweeper never fired");
    }

    fn delete(service: &YaskService, path: &str) -> (u16, Json) {
        let req = Request {
            method: "DELETE".into(),
            path: path.into(),
            query: String::new(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: vec![],
        };
        let resp = service.handle(&req);
        let parsed = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        (resp.status, parsed)
    }

    #[test]
    fn insert_object_is_immediately_queryable() {
        let s = service();
        // Insert a hotel at the test query location with both keywords —
        // at distance 0 with full textual match it must take rank 1.
        let (status, body) = post(
            &s,
            "/objects",
            Json::obj([
                ("x", Json::Num(114.172)),
                ("y", Json::Num(22.297)),
                ("name", Json::str("Fresh Hotel")),
                (
                    "keywords",
                    Json::Arr(vec![Json::str("clean"), Json::str("comfortable")]),
                ),
            ]),
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("id").unwrap().as_usize(), Some(539));
        assert_eq!(body.get("epoch").unwrap().as_usize(), Some(1));
        let (_, names) = tst_query(&s, 3);
        assert_eq!(names[0], "Fresh Hotel");
        let (_, health) = get(&s, "/health");
        assert_eq!(health.get("objects").unwrap().as_usize(), Some(540));
    }

    /// Satellite: per-epoch sessions. Deleting an object a session's
    /// cached results cite no longer kills the session — it pinned its
    /// epoch at creation and keeps answering against it, while *new*
    /// sessions see the post-delete corpus.
    #[test]
    fn delete_keeps_pinned_sessions_answering() {
        let s = service();
        let (session, names) = tst_query(&s, 3);
        let corpus = s.corpus();
        let top_id = corpus.find_by_name(&names[0]).unwrap().id;
        // A hotel outside the session's top-3 to ask why-not about.
        let missing_id = corpus
            .iter()
            .map(|o| o.id)
            .find(|&id| {
                let name = &corpus.get(id).name;
                id != top_id && !names.contains(name)
            })
            .unwrap();
        drop(corpus);
        // Delete the top result out from under the session, and the
        // missing object too — both stay alive in the pinned epoch.
        let (status, body) = delete(&s, &format!("/objects/{}", top_id.0));
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("epoch").unwrap().as_usize(), Some(1));
        let (status, _) = delete(&s, &format!("/objects/{}", missing_id.0));
        assert_eq!(status, 200);
        assert_eq!(s.session_count(), 1, "pinned session must survive the deletes");
        // The session still answers why-not questions — even *about* the
        // deleted missing object, which is alive in its pinned epoch.
        let (status, body) = post(
            &s,
            "/whynot/explain",
            Json::obj([
                ("session", Json::Num(session as f64)),
                ("missing", Json::Arr(vec![Json::Num(missing_id.0 as f64)])),
            ]),
        );
        assert_eq!(status, 200, "{body}");
        let ex = &body.get("explanations").unwrap().as_array().unwrap()[0];
        assert!(ex.get("rank").unwrap().as_usize().unwrap() > 3);
        // /stats counts the session as pinned to a superseded epoch.
        let (_, stats) = get(&s, "/stats");
        let sessions = stats.get("sessions").unwrap();
        assert_eq!(sessions.get("live").unwrap().as_usize(), Some(1));
        assert_eq!(sessions.get("pinned_epochs").unwrap().as_usize(), Some(1));
        // A new query no longer returns the deleted hotel, and its *new*
        // session (pinned to the post-delete epoch) rejects the dead id.
        let (session2, names2) = tst_query(&s, 3);
        assert!(!names2.contains(&names[0]), "deleted hotel still served");
        let (status, body) = post(
            &s,
            "/whynot/explain",
            Json::obj([
                ("session", Json::Num(session2 as f64)),
                ("missing", Json::Arr(vec![Json::Num(top_id.0 as f64)])),
            ]),
        );
        assert_eq!(status, 410, "{body}");
        // The old session's refinements also run on the pinned epoch: the
        // deleted hotel is revivable there.
        let (status, body) = post(
            &s,
            "/whynot/preference",
            Json::obj([
                ("session", Json::Num(session as f64)),
                ("missing", Json::Arr(vec![Json::Num(missing_id.0 as f64)])),
                ("lambda", Json::Num(0.5)),
            ]),
        );
        assert_eq!(status, 200, "{body}");
        let revived = body
            .get("results")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .any(|r| r.get("id").unwrap().as_usize() == Some(missing_id.0 as usize));
        assert!(revived, "pinned refinement must revive the deleted hotel");
        // Closing the pinned session releases its epoch.
        let (status, _) = post(
            &s,
            "/session/close",
            Json::obj([("session", Json::Num(session as f64))]),
        );
        assert_eq!(status, 200);
        let (_, stats) = get(&s, "/stats");
        let sessions = stats.get("sessions").unwrap();
        assert_eq!(sessions.get("pinned_epochs").unwrap().as_usize(), Some(0));
        // Deleting again: already gone.
        let (status, _) = delete(&s, &format!("/objects/{}", top_id.0));
        assert_eq!(status, 410);
        // Unknown id and malformed id.
        let (status, _) = delete(&s, "/objects/99999");
        assert_eq!(status, 404);
        let (status, _) = delete(&s, "/objects/abc");
        assert_eq!(status, 400);
    }

    /// A session pins its corpus version, not the engine: on a paged
    /// two-shard service, writes landing after a session's query leave
    /// only the current epoch's trees paged while the session lives, and
    /// the session still answers about an object deleted since.
    #[test]
    fn a_live_session_keeps_no_superseded_tree() {
        let (corpus, vocab) = yask_data::hk_hotels();
        let s = YaskService::with_config(
            corpus,
            vocab,
            ServiceConfig {
                exec: ExecConfig {
                    shards: 2,
                    resident_budget: Some(1 << 20),
                    ..ExecConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let (session, names) = tst_query(&s, 3);
        let corpus = s.corpus();
        let gone: Vec<ObjectId> = corpus
            .iter()
            .filter(|o| !names.contains(&o.name))
            .map(|o| o.id)
            .take(4)
            .collect();
        drop(corpus);
        for i in 0..4 {
            let hotel = Json::obj([
                ("x", Json::Num(114.17 + 0.01 * i as f64)),
                ("y", Json::Num(22.30)),
                ("name", Json::str(format!("Late Hotel {i}"))),
                ("keywords", Json::Arr(vec![Json::str("clean")])),
            ]);
            let (status, body) = post(&s, "/objects", hotel);
            assert_eq!(status, 200, "{body}");
        }
        for id in &gone {
            let (status, body) = delete(&s, &format!("/objects/{}", id.0));
            assert_eq!(status, 200, "{body}");
        }
        let (_, stats) = get(&s, "/stats");
        let sessions = stats.get("sessions").unwrap();
        assert_eq!(sessions.get("pinned_epochs").unwrap().as_usize(), Some(1));
        let pager = stats.get("exec").and_then(|e| e.get("pager")).expect("exec.pager");
        assert_eq!(
            pager.get("paged_trees").and_then(Json::as_usize),
            Some(2),
            "a live session must not keep a superseded epoch's trees paged: {pager}"
        );
        let (status, body) = post(
            &s,
            "/whynot/explain",
            Json::obj([
                ("session", Json::Num(session as f64)),
                ("missing", Json::Arr(vec![Json::Num(gone[0].0 as f64)])),
            ]),
        );
        assert_eq!(status, 200, "{body}");
        let ex = &body.get("explanations").unwrap().as_array().unwrap()[0];
        assert!(ex.get("rank").unwrap().as_usize().unwrap() > 3);
    }

    #[test]
    fn bulk_ingest_is_one_epoch_and_stats_report_it() {
        let s = service();
        let inserts = Json::Arr(
            (0..3)
                .map(|i| {
                    Json::obj([
                        ("x", Json::Num(114.1 + 0.01 * i as f64)),
                        ("y", Json::Num(22.3)),
                        ("name", Json::str(format!("Bulk {i}"))),
                        ("keywords", Json::Arr(vec![Json::str("bulk")])),
                    ])
                })
                .collect::<Vec<_>>(),
        );
        let (status, body) = post(
            &s,
            "/ingest",
            Json::obj([
                ("inserts", inserts),
                ("deletes", Json::Arr(vec![Json::Num(7.0), Json::Num(9.0)])),
            ]),
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("epoch").unwrap().as_usize(), Some(1), "one batch, one epoch");
        let ids: Vec<usize> = body
            .get("inserted")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_usize().unwrap())
            .collect();
        assert_eq!(ids, vec![539, 540, 541]);
        assert_eq!(body.get("deleted").unwrap().as_usize(), Some(2));

        let (status, stats) = get(&s, "/stats");
        assert_eq!(status, 200);
        assert_eq!(stats.get("objects").unwrap().as_usize(), Some(540));
        let ingest = stats.get("ingest").unwrap();
        assert_eq!(ingest.get("epoch").unwrap().as_usize(), Some(1));
        assert_eq!(ingest.get("slots").unwrap().as_usize(), Some(542));
        assert_eq!(ingest.get("tombstones").unwrap().as_usize(), Some(2));
        assert_eq!(ingest.get("durable").unwrap().as_bool(), Some(false));
        let exec = stats.get("exec").unwrap();
        assert_eq!(exec.get("epoch").unwrap().as_usize(), Some(1));
        assert_eq!(exec.get("batches").unwrap().as_usize(), Some(1));
        assert_eq!(exec.get("inserts").unwrap().as_usize(), Some(3));
        assert_eq!(exec.get("deletes").unwrap().as_usize(), Some(2));
        // An empty batch is rejected.
        let (status, _) = post(&s, "/ingest", Json::obj([]));
        assert_eq!(status, 400);
    }

    #[test]
    fn wal_backed_service_survives_restart() {
        let mut path = std::env::temp_dir();
        path.push(format!("yask-api-{}.wal", std::process::id()));
        std::fs::remove_file(&path).ok();
        let config = ServiceConfig {
            exec: ExecConfig { shards: 1, ..ExecConfig::default() },
            ..ServiceConfig::default()
        };
        {
            let (corpus, vocab) = yask_data::hk_hotels();
            let s = YaskService::with_wal(corpus, vocab, config, &path).unwrap();
            // A query interns a brand-new word *before* the insert does:
            // without the vocabulary snapshot the replayed insert would
            // rebind to whatever id the post-restart intern order assigns.
            let (status, _) = post(
                &s,
                "/query",
                Json::obj([
                    ("x", Json::Num(114.2)),
                    ("y", Json::Num(22.3)),
                    ("keywords", Json::Arr(vec![Json::str("gymnasium")])),
                    ("k", Json::Num(1.0)),
                ]),
            );
            assert_eq!(status, 200);
            let (status, _) = post(
                &s,
                "/objects",
                Json::obj([
                    ("x", Json::Num(114.2)),
                    ("y", Json::Num(22.3)),
                    ("name", Json::str("Durable Hotel")),
                    ("keywords", Json::Arr(vec![Json::str("durable")])),
                ]),
            );
            assert_eq!(status, 200);
            let (status, _) = delete(&s, "/objects/0");
            assert_eq!(status, 200);
        }
        // Restart: same seed corpus + log ⇒ same epoch and contents.
        let (corpus, vocab) = yask_data::hk_hotels();
        let s = YaskService::with_wal(corpus, vocab, config, &path).unwrap();
        assert_eq!(s.ingestor().epoch(), 2);
        assert_eq!(s.executor().epoch(), 2);
        let corpus = s.corpus();
        assert_eq!(corpus.len(), 539); // 539 + 1 − 1
        assert!(corpus.find_by_name("Durable Hotel").is_some());
        assert!(!corpus.contains(yask_index::ObjectId(0)));
        // The replayed object is still *keyword*-searchable: "durable"
        // resolves to the id the WAL recorded, not to "gymnasium"'s.
        let (status, body) = post(
            &s,
            "/query",
            Json::obj([
                ("x", Json::Num(114.2)),
                ("y", Json::Num(22.3)),
                ("keywords", Json::Arr(vec![Json::str("durable")])),
                ("k", Json::Num(1.0)),
            ]),
        );
        assert_eq!(status, 200);
        let top = &body.get("results").unwrap().as_array().unwrap()[0];
        assert_eq!(top.get("name").unwrap().as_str(), Some("Durable Hotel"));
        assert_eq!(top.get("score").unwrap().as_f64(), Some(1.0), "{body}");
        let (_, stats) = get(&s, "/stats");
        let ingest = stats.get("ingest").unwrap();
        assert_eq!(ingest.get("durable").unwrap().as_bool(), Some(true));
        assert_eq!(ingest.get("wal_batches").unwrap().as_usize(), Some(2));
        std::fs::remove_file(&path).ok();
        let mut vocab_path = path.clone();
        vocab_path.as_mut_os_string().push(".vocab");
        std::fs::remove_file(&vocab_path).ok();
    }

    /// Tentpole: concurrent small writes share one group commit (and so
    /// one two-phase fsync pair) by default — no opt-in bulk request.
    #[test]
    fn concurrent_inserts_coalesce_into_group_commits() {
        let mut path = std::env::temp_dir();
        path.push(format!("yask-api-coalesce-{}.wal", std::process::id()));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(yask_ingest::checkpoint_path(&path)).ok();
        let (corpus, vocab) = yask_data::hk_hotels();
        let config = ServiceConfig {
            exec: ExecConfig { shards: 1, ..ExecConfig::default() },
            coalesce: crate::coalesce::CoalesceConfig {
                window: Duration::from_millis(150),
                ..Default::default()
            },
            ..ServiceConfig::default()
        };
        let s = Arc::new(YaskService::with_wal(corpus, vocab, config, &path).unwrap());
        let mut handles = Vec::new();
        for i in 0..5 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                post(
                    &s,
                    "/objects",
                    Json::obj([
                        ("x", Json::Num(114.1 + 0.01 * i as f64)),
                        ("y", Json::Num(22.3)),
                        ("name", Json::str(format!("Coalesced {i}"))),
                        ("keywords", Json::Arr(vec![Json::str("co")])),
                    ]),
                )
            }));
        }
        let mut ids = Vec::new();
        for h in handles {
            let (status, body) = h.join().unwrap();
            assert_eq!(status, 200, "{body}");
            ids.push(body.get("id").unwrap().as_usize().unwrap());
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5, "coalesced inserts must get distinct ids");
        assert_eq!(s.ingestor().epoch(), 5, "one epoch per insert survives coalescing");
        let (_, stats) = get(&s, "/stats");
        let ingest = stats.get("ingest").unwrap();
        assert_eq!(ingest.get("coalesce_batches").unwrap().as_usize(), Some(5));
        let groups = ingest.get("wal_groups").unwrap().as_usize().unwrap();
        assert!(
            groups < 5,
            "5 writes inside a 150 ms window paid {groups} fsync pairs"
        );
        std::fs::remove_file(&path).ok();
        let mut vocab_path = path.clone();
        vocab_path.as_mut_os_string().push(".vocab");
        std::fs::remove_file(&vocab_path).ok();
    }

    /// Tentpole: `/stats` surfaces the checkpoint + chunk counters, the
    /// WAL folds into a snapshot past the threshold, and a restart
    /// replays only the post-checkpoint tail.
    #[test]
    fn checkpointing_service_truncates_wal_and_restarts_from_snapshot() {
        let mut path = std::env::temp_dir();
        path.push(format!("yask-api-ckpt-{}.wal", std::process::id()));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(yask_ingest::checkpoint_path(&path)).ok();
        let config = ServiceConfig {
            exec: ExecConfig { shards: 1, ..ExecConfig::default() },
            checkpoint: yask_ingest::CheckpointConfig {
                max_wal_batches: 2,
                max_wal_bytes: u64::MAX,
            },
            ..ServiceConfig::default()
        };
        {
            let (corpus, vocab) = yask_data::hk_hotels();
            let s = YaskService::with_wal(corpus, vocab, config, &path).unwrap();
            for i in 0..5 {
                let (status, _) = post(
                    &s,
                    "/objects",
                    Json::obj([
                        ("x", Json::Num(114.15 + 0.01 * i as f64)),
                        ("y", Json::Num(22.29)),
                        ("name", Json::str(format!("Ckpt Hotel {i}"))),
                        ("keywords", Json::Arr(vec![Json::str("checkpointed")])),
                    ]),
                );
                assert_eq!(status, 200);
            }
            let (_, stats) = get(&s, "/stats");
            let ingest = stats.get("ingest").unwrap();
            // 5 batches, threshold 2: checkpoints at epochs 2 and 4.
            assert_eq!(ingest.get("checkpoints").unwrap().as_usize(), Some(2));
            assert_eq!(ingest.get("checkpoint_epoch").unwrap().as_usize(), Some(4));
            assert_eq!(ingest.get("wal_base_epoch").unwrap().as_usize(), Some(4));
            assert_eq!(ingest.get("wal_batches").unwrap().as_usize(), Some(1));
            // Chunk counters: the hk corpus spans chunks and every batch
            // billed some copy work.
            assert!(ingest.get("chunks").unwrap().as_usize().unwrap() >= 2);
            assert!(ingest.get("chunks_copied").unwrap().as_usize().unwrap() >= 5);
            assert!(ingest.get("copy_bytes").unwrap().as_usize().unwrap() > 0);
        }
        // Restart: the snapshot carries epochs 1–4 (and the vocabulary,
        // so "checkpointed" still resolves); only epoch 5 replays.
        let (corpus, vocab) = yask_data::hk_hotels();
        let s = YaskService::with_wal(corpus, vocab, config, &path).unwrap();
        assert_eq!(s.ingestor().epoch(), 5);
        assert_eq!(s.corpus().len(), 544);
        let (status, body) = post(
            &s,
            "/query",
            Json::obj([
                ("x", Json::Num(114.16)),
                ("y", Json::Num(22.29)),
                ("keywords", Json::Arr(vec![Json::str("checkpointed")])),
                ("k", Json::Num(5.0)),
            ]),
        );
        assert_eq!(status, 200);
        let results = body.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 5, "replayed + snapshotted inserts all searchable");
        for r in results {
            assert!(r
                .get("name")
                .unwrap()
                .as_str()
                .unwrap()
                .starts_with("Ckpt Hotel"));
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(yask_ingest::checkpoint_path(&path)).ok();
        let mut vocab_path = path.clone();
        vocab_path.as_mut_os_string().push(".vocab");
        std::fs::remove_file(&vocab_path).ok();
    }

    #[test]
    fn landing_page_is_html() {
        let s = service();
        let req = Request {
            method: "GET".into(),
            path: "/".into(),
            query: String::new(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: vec![],
        };
        let resp = s.handle(&req);
        assert_eq!(resp.status, 200);
        assert!(resp.content_type.starts_with("text/html"));
        assert!(String::from_utf8(resp.body).unwrap().contains("YASK"));
    }

    /// POST with a query string (the in-process analogue of `?trace=1`).
    fn post_q(service: &YaskService, path: &str, query: &str, body: Json) -> (u16, Json) {
        let req = Request {
            method: "POST".into(),
            path: path.into(),
            query: query.into(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: body.to_string().into_bytes(),
        };
        let resp = service.handle(&req);
        let parsed = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        (resp.status, parsed)
    }

    fn get_raw(service: &YaskService, path: &str) -> Response {
        service.handle(&Request {
            method: "GET".into(),
            path: path.into(),
            query: String::new(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: vec![],
        })
    }

    /// Tentpole: `/metrics` serves a valid Prometheus exposition covering
    /// the executor, cache, ingest and session counters plus all eight
    /// latency histogram families — checked with the same parser the CI
    /// smoke step runs against a live server.
    #[test]
    fn metrics_exposition_validates_and_covers_the_service() {
        let s = service();
        let (session, names) = tst_query(&s, 3);
        let corpus = s.corpus();
        let missing = corpus
            .iter()
            .map(|o| o.name.clone())
            .find(|n| !names.contains(n))
            .unwrap();
        drop(corpus);
        let (status, _) = post(
            &s,
            "/whynot/explain",
            Json::obj([
                ("session", Json::Num(session as f64)),
                ("missing", Json::Arr(vec![Json::str(missing)])),
            ]),
        );
        assert_eq!(status, 200);
        let (status, _) = post(
            &s,
            "/objects",
            Json::obj([
                ("x", Json::Num(114.1)),
                ("y", Json::Num(22.3)),
                ("name", Json::str("Metrics Hotel")),
                ("keywords", Json::Arr(vec![Json::str("metrics")])),
            ]),
        );
        assert_eq!(status, 200);

        let resp = get_raw(&s, "/metrics");
        assert_eq!(resp.status, 200);
        assert!(resp.content_type.starts_with("text/plain"), "{}", resp.content_type);
        let text = String::from_utf8(resp.body).unwrap();
        yask_obs::validate_exposition(&text).expect("exposition must validate");
        // Which families exist is the drift test's business
        // (`metrics::tests`); this one checks the requests were counted.
        // The query ran: its sample must be in the top-k histogram, and
        // the 4 shard families each carry 4 labelled series.
        assert!(text.contains("yask_queries_total 1"), "query not counted");
        assert!(text.contains("yask_scatter_queries_total 1"), "scatter not counted");
        assert!(text.contains("yask_scan_fallbacks_total 0"), "healthy run fell back");
        assert!(
            text.contains("yask_topk_latency_seconds_count 1"),
            "top-k latency sample missing"
        );
        assert!(text.contains(r#"yask_shard_queries_total{shard="3"}"#));
        assert!(text.contains(r#"yask_whynot_latency_seconds_count{module="explain"} 1"#));
        assert!(text.contains("yask_write_apply_latency_seconds_count 1"));
        // The observatory / build-info families carry live samples.
        assert!(text.contains("yask_build_info{version="));
        assert!(text.contains(r#"yask_route_rate{route="topk",window="1m"}"#));
        assert!(text.contains(r#"yask_route_p99_seconds{route="whynot_explain",window="10s"}"#));
        assert!(text.contains(r#"yask_cell_query_heat{cell="0"}"#));
        assert!(text.contains(r#"yask_cell_write_touches_total{cell="0"}"#));
        // Buffer-pool families declare both pools even on a volatile
        // service (all-zero series, never absent).
        for pool in ["wal", "checkpoint"] {
            assert!(
                text.contains(&format!(r#"yask_pager_misses_total{{pool="{pool}"}}"#)),
                "pool={pool} series missing"
            );
        }
    }

    /// Out-of-core serving end to end: a service whose executor runs
    /// under a one-byte resident budget answers queries identically to
    /// the demo corpus' resident service, and the pager's faults and run
    /// bytes are priced on `/stats` (`exec.pager`) and `/metrics`
    /// (`yask_paged_*`).
    #[test]
    fn out_of_core_service_answers_and_prices_faults() {
        let resident = service();
        let (corpus, vocab) = yask_data::hk_hotels();
        let paged = YaskService::with_config(
            corpus,
            vocab,
            ServiceConfig {
                exec: ExecConfig {
                    resident_budget: Some(1),
                    topk_cache: 0,
                    answer_cache: 0,
                    ..ExecConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let query = Json::obj([
            ("x", Json::Num(114.17)),
            ("y", Json::Num(22.30)),
            ("keywords", Json::Arr(vec![Json::str("clean"), Json::str("wifi")])),
            ("k", Json::Num(3.0)),
        ]);
        let (sa, a) = post(&resident, "/query", query.clone());
        let (sb, b) = post(&paged, "/query", query);
        assert_eq!((sa, sb), (200, 200));
        assert_eq!(
            a.get("results").map(|r| r.to_string()),
            b.get("results").map(|r| r.to_string()),
            "paged service must answer byte-identically"
        );

        let (status, stats) = get(&paged, "/stats");
        assert_eq!(status, 200);
        let pager = stats.get("exec").and_then(|e| e.get("pager")).expect("exec.pager");
        let num = |k: &str| pager.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
        assert!(num("paged_trees") >= 1.0, "pager: {pager}");
        assert!(num("chunk_misses") > 0.0, "one-byte budget must fault: {pager}");
        assert!(num("disk_bytes") > 0.0, "paged trees hold their runs on disk: {pager}");
        // Resident service: pager is null, families still render.
        let (_, rstats) = get(&resident, "/stats");
        assert!(
            matches!(rstats.get("exec").and_then(|e| e.get("pager")), Some(Json::Null)),
            "resident service must report pager: null"
        );

        let resp = get_raw(&paged, "/metrics");
        let text = String::from_utf8(resp.body).unwrap();
        yask_obs::validate_exposition(&text).expect("exposition must validate");
        let gauge = |name: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(&format!("{name} ")))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        // The faults and the run bytes behind them, on the second surface.
        assert!(gauge("yask_paged_chunk_misses") > 0.0, "no chunk faults exported");
        assert!(gauge("yask_paged_disk_bytes") > 0.0, "no run bytes exported");
        assert!(!text.contains(r#"pool="shard""#), "the shard pool series is back");
        assert!(text.contains("yask_paged_trees "), "paged tree gauge missing");
    }

    /// Tentpole: every traced request lands in the slow-query log with
    /// its span tree; `/debug/slow` serves them slowest-first.
    #[test]
    fn debug_slow_returns_span_trees() {
        let s = service();
        let (session, names) = tst_query(&s, 3);
        let corpus = s.corpus();
        let missing = corpus
            .iter()
            .map(|o| o.name.clone())
            .find(|n| !names.contains(n))
            .unwrap();
        drop(corpus);
        let (status, _) = post(
            &s,
            "/whynot/explain",
            Json::obj([
                ("session", Json::Num(session as f64)),
                ("missing", Json::Arr(vec![Json::str(missing)])),
            ]),
        );
        assert_eq!(status, 200);

        let (status, body) = get(&s, "/debug/slow");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("recorded").unwrap().as_usize(), Some(2));
        let slowest = body.get("slowest").unwrap().as_array().unwrap();
        assert_eq!(slowest.len(), 2);
        let labels: Vec<&str> = slowest
            .iter()
            .map(|t| t.get("label").unwrap().as_str().unwrap())
            .collect();
        assert!(labels.contains(&"/query"), "{labels:?}");
        assert!(labels.contains(&"/whynot/explain"), "{labels:?}");
        // Slowest-first ordering.
        let times: Vec<f64> = slowest
            .iter()
            .map(|t| t.get("total_us").unwrap().as_f64().unwrap())
            .collect();
        assert!(times[0] >= times[1], "{times:?}");
        // The /query trace carries the span tree: a scatter root with one
        // child per shard plus the gather step.
        let query_trace = slowest
            .iter()
            .find(|t| t.get("label").unwrap().as_str() == Some("/query"))
            .unwrap();
        let spans = query_trace.get("spans").unwrap().as_array().unwrap();
        let name_of = |s: &Json| s.get("name").unwrap().as_str().unwrap().to_owned();
        assert!(spans.iter().any(|s| name_of(s) == "cache_lookup"));
        let scatter = spans.iter().find(|s| name_of(s) == "scatter").unwrap();
        let scatter_id = scatter.get("id").unwrap().as_usize().unwrap();
        assert_eq!(scatter.get("parent").unwrap(), &Json::Null, "scatter is a root");
        let children: Vec<String> = spans
            .iter()
            .filter(|s| s.get("parent").unwrap().as_usize() == Some(scatter_id))
            .map(name_of)
            .collect();
        for shard in ["shard0", "shard1", "shard2", "shard3", "gather"] {
            assert!(children.contains(&shard.to_owned()), "{children:?} lacks {shard}");
        }
    }

    /// Tentpole: `?trace=1` returns the span tree inline with the
    /// response — even on a deployment with tracing rings disabled.
    #[test]
    fn trace_flag_inlines_the_span_tree() {
        let (corpus, vocab) = yask_data::hk_hotels();
        let s = YaskService::with_config(
            corpus,
            vocab,
            ServiceConfig {
                trace_ring: 0,
                slow_log: 0,
                ..ServiceConfig::default()
            },
        );
        // Untraced by default: no ring, no flag, no trace.
        let (_, _) = tst_query(&s, 3);
        assert_eq!(s.traces.recorded(), 0, "disabled rings must not trace");
        let (_, body) = get(&s, "/debug/slow");
        assert!(body.get("slowest").unwrap().as_array().unwrap().is_empty());

        // Opting in per-request still works (fresh coordinates dodge the
        // top-k cache so the engine actually runs).
        let (status, body) = post_q(
            &s,
            "/query",
            "trace=1",
            Json::obj([
                ("x", Json::Num(114.15)),
                ("y", Json::Num(22.28)),
                ("keywords", Json::Arr(vec![Json::str("clean")])),
                ("k", Json::Num(2.0)),
            ]),
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.get("results").is_some(), "normal payload still present");
        let trace = body.get("trace").unwrap();
        assert_eq!(trace.get("label").unwrap().as_str(), Some("/query"));
        assert!(trace.get("total_us").unwrap().as_f64().unwrap() > 0.0);
        let spans = trace.get("spans").unwrap().as_array().unwrap();
        assert!(
            spans.iter().any(|sp| sp.get("name").unwrap().as_str() == Some("scatter")),
            "{spans:?}"
        );
        // Without the flag the response shape is unchanged.
        let (_, body) = post(
            &s,
            "/query",
            Json::obj([
                ("x", Json::Num(114.16)),
                ("y", Json::Num(22.28)),
                ("keywords", Json::Arr(vec![Json::str("clean")])),
                ("k", Json::Num(2.0)),
            ]),
        );
        assert!(body.get("trace").is_none());
    }

    /// Tentpole: `/debug/heatmap` reports per-cell heat whose skew ratio
    /// matches the hand-computed value for a deliberately skewed
    /// workload — every query at one point of a 4-shard deployment lands
    /// in one STR cell, so skew = hottest/mean = 4.0 exactly (all
    /// recordings share one decay generation within the test).
    #[test]
    fn heatmap_reports_hand_computed_skew_for_a_skewed_workload() {
        let s = service(); // 4 shards
        for _ in 0..12 {
            // Identical queries: 1 compute + 11 cache hits — the heat
            // map tracks *demand*, so all 12 must land.
            let (_, _) = tst_query(&s, 3);
        }
        let (status, body) = get(&s, "/debug/heatmap");
        assert_eq!(status, 200, "{body}");
        assert!(body.get("enabled").is_none(), "{body}");
        let cells = body.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 4, "one heat cell per shard");
        let touches: Vec<usize> = cells
            .iter()
            .map(|c| c.get("query_touches").unwrap().as_usize().unwrap())
            .collect();
        assert_eq!(touches.iter().sum::<usize>(), 12, "{touches:?}");
        assert_eq!(touches.iter().filter(|&&t| t > 0).count(), 1, "{touches:?}");
        // Hand-computed skew: heat [12x, 0, 0, 0] → max/mean = 4.
        let skew = body.get("query_skew").unwrap().as_f64().unwrap();
        assert!((skew - 4.0).abs() < 1e-9, "skew {skew} != 4.0");
        // The query keywords dominate the hot-keyword sketch.
        let hot = body.get("hot_keywords").unwrap().as_array().unwrap();
        let words: Vec<&str> = hot
            .iter()
            .map(|h| h.get("keyword").unwrap().as_str().unwrap())
            .collect();
        assert!(words.contains(&"clean"), "{words:?}");
        assert!(words.contains(&"comfortable"), "{words:?}");
        assert_eq!(hot[0].get("count").unwrap().as_usize(), Some(12));
        assert_eq!(body.get("keyword_total").unwrap().as_usize(), Some(24));
        // A write touches its owning cell.
        let (status, _) = post(
            &s,
            "/objects",
            Json::obj([
                ("x", Json::Num(114.172)),
                ("y", Json::Num(22.297)),
                ("name", Json::str("Heat Hotel")),
                ("keywords", Json::Arr(vec![Json::str("hot")])),
            ]),
        );
        assert_eq!(status, 200);
        let (_, body) = get(&s, "/debug/heatmap");
        let write_total: usize = body
            .get("cells")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|c| c.get("write_touches").unwrap().as_usize().unwrap())
            .sum();
        assert_eq!(write_total, 1);
        assert!(body.get("write_skew").unwrap().as_f64().unwrap() > 1.0);
        // /stats carries the same skew summary.
        let (_, stats) = get(&s, "/stats");
        let workload = stats.get("exec").unwrap().get("workload").unwrap();
        let stats_skew = workload.get("query_skew").unwrap().as_f64().unwrap();
        assert!((stats_skew - 4.0).abs() < 1e-9, "{stats_skew}");
    }

    /// Tentpole: the `/debug/health` verdict flips from ok to overloaded
    /// when a windowed observation crosses its configured threshold.
    #[test]
    fn debug_health_verdict_flips_on_threshold() {
        let (corpus, vocab) = yask_data::hk_hotels();
        // Latency trigger only: any completed top-k (p99 > 0) overloads.
        let s = YaskService::with_config(
            corpus,
            vocab,
            ServiceConfig {
                admission: AdmissionConfig {
                    max_queue_depth: usize::MAX,
                    max_topk_p99: Duration::ZERO,
                    ..AdmissionConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let (status, body) = get(&s, "/debug/health");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(body.get("overloaded").unwrap().as_bool(), Some(false));
        assert!(body.get("reasons").unwrap().as_array().unwrap().is_empty());
        assert!(body.get("observatory").is_none(), "{body}");
        let (_, _) = tst_query(&s, 3);
        let (_, body) = get(&s, "/debug/health");
        assert_eq!(body.get("status").unwrap().as_str(), Some("overloaded"), "{body}");
        let reasons = body.get("reasons").unwrap().as_array().unwrap();
        assert_eq!(reasons.len(), 1);
        // Machine-parseable: the signal, the observed value and the
        // exact limit it crossed, next to the human message.
        assert_eq!(reasons[0].get("signal").unwrap().as_str(), Some("topk_p99_10s"));
        assert_eq!(reasons[0].get("limit").unwrap().as_f64(), Some(0.0));
        assert!(reasons[0].get("observed").unwrap().as_f64().unwrap() > 0.0);
        assert!(
            reasons[0].get("message").unwrap().as_str().unwrap().contains("top-k p99"),
            "{reasons:?}"
        );
        // The windowed surfaces are all present.
        let routes = body.get("routes").unwrap();
        let topk_1m = routes.get("topk").unwrap().get("1m").unwrap();
        assert_eq!(topk_1m.get("count").unwrap().as_usize(), Some(1));
        assert!(topk_1m.get("rate").unwrap().as_f64().unwrap() > 0.0);
        assert!(routes.get("whynot_explain").is_some());
        assert!(body.get("write_apply").unwrap().get("1m").is_some());

        // Queue trigger: a scatter query's submits push the windowed
        // depth max to ≥ 1, over a limit of 0.
        let (corpus, vocab) = yask_data::hk_hotels();
        let s = YaskService::with_config(
            corpus,
            vocab,
            ServiceConfig {
                admission: AdmissionConfig {
                    max_queue_depth: 0,
                    max_topk_p99: Duration::from_secs(3600),
                    ..AdmissionConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let (_, _) = tst_query(&s, 3);
        let (_, body) = get(&s, "/debug/health");
        assert_eq!(body.get("status").unwrap().as_str(), Some("overloaded"), "{body}");
        let reasons = body.get("reasons").unwrap().as_array().unwrap();
        assert_eq!(reasons[0].get("signal").unwrap().as_str(), Some("queue_depth_1m"));
        assert_eq!(reasons[0].get("limit").unwrap().as_f64(), Some(0.0));
        assert!(reasons[0].get("observed").unwrap().as_f64().unwrap() >= 1.0);
        assert!(
            reasons[0].get("message").unwrap().as_str().unwrap().contains("queue depth"),
            "{reasons:?}"
        );
        assert!(body.get("queue").unwrap().get("max_1m").unwrap().as_usize().unwrap() >= 1);
    }

    /// Satellite: `/stats` carries the pool high-water mark and per-shard
    /// latency percentiles next to the means.
    #[test]
    fn stats_expose_queue_depth_max_and_percentiles() {
        let s = service();
        let (_, _) = tst_query(&s, 3);
        let (_, body) = get(&s, "/stats");
        let exec = body.get("exec").unwrap();
        assert!(exec.get("queue_depth_max").unwrap().as_usize().is_some());
        for p in exec.get("per_shard").unwrap().as_array().unwrap() {
            assert_eq!(p.get("queries").unwrap().as_usize(), Some(1));
            let p50 = p.get("p50_us").unwrap().as_f64().unwrap();
            let p99 = p.get("p99_us").unwrap().as_f64().unwrap();
            let mean = p.get("mean_us").unwrap().as_f64().unwrap();
            assert!(p50 > 0.0 && p99 >= p50, "p50 {p50} p99 {p99}");
            // One sample: every estimator sits in the same bucket, so the
            // quantiles track the mean within the bucket error bound.
            assert!((p50 - mean).abs() / mean < 0.05, "p50 {p50} vs mean {mean}");
        }
    }
}
