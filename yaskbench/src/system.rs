//! The system under test: the corpus, the real `YaskService`, and the
//! real HTTP server in this process, built the way every workload
//! prescribes (2 shards, 2 scatter workers, 2 HTTP workers — this host
//! has 2 cores, so load generator + server keep at most 2 threads busy).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use yask_exec::{ExecConfig, Executor};
use yask_index::Corpus;
use yask_ingest::CheckpointConfig;
use yask_server::http::Handler;
use yask_server::{HttpServer, Request, ServerHandle, ServiceConfig, SessionSweeper, YaskService};

use crate::gen::{self, Workload};
use crate::span::Recorder;

/// Sessions live 5 s and are swept every second, so session memory
/// reaches a steady state inside one run.
const SESSION_TTL: Duration = Duration::from_secs(5);
const SWEEP_PERIOD: Duration = Duration::from_secs(1);
/// `read_oocore` keeps this share of the largest shard arena resident.
const OOCORE_BUDGET_SHARE: f64 = 0.25;

/// Shared between the client thread and the wrapped request handler
/// during a traced pass: the recorder, whether it is recording, and the
/// `http` span (and request id) of the one request in flight.
pub struct TraceCtx {
    pub rec: Recorder,
    pub enabled: AtomicBool,
    pub current_span: AtomicU64,
    pub current_request: AtomicU64,
}

impl TraceCtx {
    pub fn new() -> Arc<TraceCtx> {
        Arc::new(TraceCtx {
            rec: Recorder::new(),
            enabled: AtomicBool::new(false),
            current_span: AtomicU64::new(0),
            current_request: AtomicU64::new(0),
        })
    }
}

pub struct System {
    pub service: Arc<YaskService>,
    pub server: ServerHandle,
    _sweeper: SessionSweeper,
}

/// The executor configuration every workload shares.
pub fn exec_config(resident_budget: Option<usize>) -> ExecConfig {
    ExecConfig {
        shards: 2,
        workers: 2,
        resident_budget,
        ..ExecConfig::default()
    }
}

fn service_config(resident_budget: Option<usize>, checkpoint_every: u64) -> ServiceConfig {
    ServiceConfig {
        exec: exec_config(resident_budget),
        session_ttl: SESSION_TTL,
        checkpoint: CheckpointConfig {
            max_wal_batches: checkpoint_every,
            ..CheckpointConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// The resident budget of `read_oocore`: a quarter of the largest shard
/// arena, measured on a resident build of the same shards.
pub fn oocore_budget(corpus: &Corpus) -> usize {
    let resident = Executor::new(corpus.clone(), exec_config(None));
    let largest = resident
        .stats()
        .per_shard
        .iter()
        .map(|s| s.arena_bytes)
        .max()
        .unwrap_or(0);
    ((largest as f64 * OOCORE_BUDGET_SHARE) as usize).max(1)
}

/// Where the durable files of `write_mix` live.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join("yask.wal")
}

/// Builds the service for `workload` over `corpus`. `dir` receives the
/// write-ahead log of `write_mix` (reopened, not recreated, when one is
/// already there — that is the restart path).
pub fn build_service(
    workload: Workload,
    corpus: &Corpus,
    dir: &Path,
    checkpoint_every: u64,
) -> YaskService {
    match workload {
        Workload::WriteMix => YaskService::with_wal(
            corpus.clone(),
            gen::vocabulary(),
            service_config(None, checkpoint_every),
            &wal_path(dir),
        )
        .expect("open the write-ahead log"),
        Workload::ReadOocore => YaskService::with_config(
            corpus.clone(),
            gen::vocabulary(),
            service_config(Some(oocore_budget(corpus)), checkpoint_every),
        ),
        _ => YaskService::with_config(
            corpus.clone(),
            gen::vocabulary(),
            service_config(None, checkpoint_every),
        ),
    }
}

/// Puts `service` behind the HTTP server. With a trace context the
/// handler is wrapped so each request records a `server.handle` span
/// under the client's `http` span — recorded from here, around the call
/// into the layer, not from inside the program.
pub fn serve(service: YaskService, trace: Option<Arc<TraceCtx>>) -> System {
    let service = Arc::new(service);
    let sweeper = service.spawn_session_sweeper(SWEEP_PERIOD);
    let handler: Handler = match trace {
        None => Arc::clone(&service).into_handler(),
        Some(ctx) => {
            let service = Arc::clone(&service);
            Arc::new(move |req: &Request| {
                if !ctx.enabled.load(Ordering::Acquire) {
                    return service.handle(req);
                }
                let span = ctx.rec.open(
                    "server.handle",
                    Some(ctx.current_span.load(Ordering::Acquire)),
                    ctx.current_request.load(Ordering::Acquire),
                );
                let response = service.handle(req);
                ctx.rec.close(span);
                response
            })
        }
    };
    let server = HttpServer::spawn(0, 2, handler).expect("bind the HTTP server");
    System {
        service,
        server,
        _sweeper: sweeper,
    }
}

/// One full set-up — corpus generation, bulk load (and page-out or log
/// creation), server up — and how long it took.
pub fn set_up(
    workload: Workload,
    n: usize,
    dir: &Path,
    checkpoint_every: u64,
    trace: Option<Arc<TraceCtx>>,
) -> (Corpus, System, f64) {
    let t0 = Instant::now();
    let corpus = gen::corpus(n);
    let system = serve(
        build_service(workload, &corpus, dir, checkpoint_every),
        trace,
    );
    (corpus, system, t0.elapsed().as_secs_f64())
}
