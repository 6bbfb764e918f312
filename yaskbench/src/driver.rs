//! The closed-loop load generator: takes operations from the seeded
//! generator, sends each over the one keep-alive connection, times it
//! from the first byte written to the last byte read, and keeps what the
//! correctness gate and the space accounting need.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use yask_index::Corpus;
use yask_ingest::{checkpoint_path, WalStats};
use yask_server::Json;

use crate::client::{Client, Reply};
use crate::gen::{Generator, Op, QuerySpec, WhyNot, Workload};
use crate::system::{wal_path, System, TraceCtx};

/// Every 64th `/query` response is kept for the scan oracle.
const QUERY_CHECK_STRIDE: u64 = 64;
/// Why-not sessions kept for the single-tree oracle.
const SESSION_CHECKS: usize = 32;
/// The live-session count is sampled this often (in requests).
const SESSION_SAMPLE_STRIDE: u64 = 256;

/// A `/query` response kept for verification, with the corpus version
/// the driver knows the server had acknowledged at that moment.
pub struct QueryCheck {
    pub spec: QuerySpec,
    pub corpus: Corpus,
    pub body: String,
}

/// A why-not session kept for verification: its query, the missing
/// object, and the four answers in [`WhyNot::ALL`] order.
pub struct SessionCheck {
    pub spec: QuerySpec,
    pub missing: u32,
    pub bodies: Vec<String>,
}

/// Response bodies kept by a traced pass (for the JSON render timing);
/// copying every body of a 10⁴-request pass would itself disturb it.
const TRACED_BODIES: usize = 2_000;

/// One request of a traced pass: what was sent, the client's `http`
/// span, and (for the first [`TRACED_BODIES`]) what came back.
pub struct TracedRequest {
    pub op: Op,
    pub http_span: u64,
    pub body: String,
}

/// Space and stall accounting of the write path, sampled after every
/// acknowledged write (one client, so nothing races the samples).
#[derive(Default)]
pub struct WriteAccount {
    pub writes: u64,
    /// JSON payload bytes of acknowledged inserts plus the id text of
    /// acknowledged deletes: what the user handed over.
    pub user_bytes: u64,
    /// Log payload bytes committed. The log is reset by the checkpoint
    /// its own commit triggers before the client can look, so the batch
    /// that trips a checkpoint is not seen (one in `checkpoint_every`).
    pub wal_bytes: u64,
    /// Bytes of every checkpoint file written.
    pub checkpoint_bytes: u64,
    /// Slowest write during which a checkpoint ran.
    pub stall_max_us: f64,
    last: WalStats,
}

pub struct Driver {
    workload: Workload,
    pub client: Client,
    gen: Generator,
    session: u64,
    /// Latency samples in microseconds by operation label.
    pub latency_us: BTreeMap<&'static str, Vec<f64>>,
    pub response_bytes: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    queries: u64,
    sessions: u64,
    pub query_checks: Vec<QueryCheck>,
    pub session_checks: Vec<SessionCheck>,
    /// The driver's own model of the corpus: the base plus every write
    /// the server acknowledged, applied in acknowledgement order.
    pub model: Corpus,
    pub writes: WriteAccount,
    pub sessions_peak: usize,
    pub traced: Vec<TracedRequest>,
    /// The checkpoint file beside the service's write-ahead log.
    checkpoint_file: std::path::PathBuf,
}

impl Driver {
    pub fn new(
        workload: Workload,
        corpus: &Corpus,
        seed: u64,
        system: &System,
        wal_dir: &std::path::Path,
    ) -> Driver {
        Driver {
            workload,
            client: Client::new(system.server.addr()),
            gen: Generator::new(workload, corpus, seed),
            session: 0,
            latency_us: BTreeMap::new(),
            response_bytes: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            queries: 0,
            sessions: 0,
            query_checks: Vec::new(),
            session_checks: Vec::new(),
            model: corpus.clone(),
            writes: WriteAccount {
                last: system.service.ingestor().wal_stats().unwrap_or_default(),
                ..WriteAccount::default()
            },
            sessions_peak: 0,
            traced: Vec::new(),
            checkpoint_file: checkpoint_path(&wal_path(wal_dir)),
        }
    }

    /// Generates the next `count` operations (untimed: picking a missing
    /// object ranks the whole corpus).
    pub fn plan(&mut self, count: usize) -> Vec<Op> {
        (0..count).map(|_| self.gen.next_op()).collect()
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Drops the samples gathered so far (end of warm-up); the model,
    /// the session and the checks carry on.
    pub fn reset_samples(&mut self) {
        self.latency_us.clear();
        self.response_bytes.clear();
        self.sessions_peak = 0;
        self.writes = WriteAccount {
            last: self.writes.last,
            ..WriteAccount::default()
        };
    }

    /// Runs `ops` back to back and returns the wall time they took.
    /// With a trace context each request is wrapped in an `http` span.
    pub fn run_block(&mut self, system: &System, ops: &[Op], trace: Option<&Arc<TraceCtx>>) -> f64 {
        let mut request = Vec::with_capacity(512);
        let t0 = Instant::now();
        for op in ops {
            request.clear();
            op.render(self.session, &mut request);
            self.run_op(system, op, &request, trace);
        }
        t0.elapsed().as_secs_f64()
    }

    fn run_op(&mut self, system: &System, op: &Op, request: &[u8], trace: Option<&Arc<TraceCtx>>) {
        self.attempted += 1;
        if let Err(e) = self.client.ready() {
            return self.fail(format!("connect: {e}"));
        }
        let http_span = trace.map(|ctx| {
            let span = ctx.rec.open("http", None, self.attempted);
            ctx.current_span.store(span, Ordering::Release);
            ctx.current_request.store(self.attempted, Ordering::Release);
            span
        });
        let t0 = Instant::now();
        let reply = self.client.round_trip(request);
        let micros = t0.elapsed().as_secs_f64() * 1e6;
        if let (Some(ctx), Some(span)) = (trace, http_span) {
            ctx.rec.close(span);
        }
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => return self.fail(format!("{}: transport: {e}", op.label())),
        };
        if !(200..300).contains(&reply.status) {
            let body = self.client.body(&reply).to_owned();
            return self.fail(format!("{}: HTTP {}: {body}", op.label(), reply.status));
        }
        self.latency_us.entry(op.label()).or_default().push(micros);
        self.response_bytes.push(reply.bytes as f64);
        if self.attempted % SESSION_SAMPLE_STRIDE == 0 {
            self.sessions_peak = self.sessions_peak.max(system.service.session_count());
        }
        if let (Some(_), Some(span)) = (trace, http_span) {
            let keep = self.traced.len() < TRACED_BODIES;
            self.traced.push(TracedRequest {
                op: op.clone(),
                http_span: span,
                body: if keep {
                    self.client.body(&reply).to_owned()
                } else {
                    String::new()
                },
            });
        }
        match op {
            Op::Query(spec) => self.after_query(spec, &reply),
            Op::WhyNot { kind, missing } => self.after_whynot(*kind, *missing, &reply),
            Op::Insert(_) | Op::Delete(_) => self.after_write(system, op, &reply, micros),
        }
    }

    fn after_query(&mut self, spec: &QuerySpec, reply: &Reply) {
        self.queries += 1;
        if self.queries % QUERY_CHECK_STRIDE == 0 {
            self.query_checks.push(QueryCheck {
                spec: spec.clone(),
                corpus: self.model.clone(),
                body: self.client.body(reply).to_owned(),
            });
        }
        if self.workload != Workload::WhynotSession {
            return;
        }
        // The follow-up questions name the session the server opened.
        let body = self.client.body(reply);
        match Json::parse(body)
            .ok()
            .and_then(|j| j.get("session").and_then(Json::as_f64))
        {
            Some(id) => self.session = id as u64,
            None => return self.fail("query response carries no session id".to_owned()),
        }
        self.sessions += 1;
        if self.session_checks.len() < SESSION_CHECKS && self.sessions % 4 == 1 {
            self.session_checks.push(SessionCheck {
                spec: spec.clone(),
                missing: 0,
                bodies: Vec::new(),
            });
        }
    }

    fn after_whynot(&mut self, kind: WhyNot, missing: u32, reply: &Reply) {
        // The check in progress is the last one, still short of 4 answers.
        let body = self.client.body(reply).to_owned();
        if let Some(check) = self
            .session_checks
            .last_mut()
            .filter(|c| c.bodies.len() < 4)
        {
            debug_assert_eq!(WhyNot::ALL[check.bodies.len()], kind);
            check.missing = missing;
            check.bodies.push(body);
        }
    }

    fn after_write(&mut self, system: &System, op: &Op, reply: &Reply, micros: f64) {
        let acked = Json::parse(self.client.body(reply)).ok();
        self.writes.user_bytes += match op {
            Op::Delete(id) => id.to_string().len(),
            _ => op.body(0).len(),
        } as u64;
        let update = op.to_update().expect("after_write is called for writes");
        let (next, inserted, _) = yask_ingest::update::apply_batch(&self.model, &[update]);
        self.model = next;
        // The generator numbers its inserts the way the server hands out
        // slots; a server that disagrees has lost or reordered a write.
        if let Some(id) = inserted.first() {
            let got = acked
                .as_ref()
                .and_then(|j| j.get("id"))
                .and_then(Json::as_f64);
            if got != Some(id.0 as f64) {
                self.fail(format!(
                    "insert acknowledged as id {got:?}, the model expects {}",
                    id.0
                ));
            }
        }
        self.writes.writes += 1;
        let Some(now) = system.service.ingestor().wal_stats() else {
            return;
        };
        let last = self.writes.last;
        if now.base_epoch != last.base_epoch {
            self.writes.stall_max_us = self.writes.stall_max_us.max(micros);
            self.writes.wal_bytes += now.bytes;
            self.writes.checkpoint_bytes +=
                std::fs::metadata(&self.checkpoint_file).map_or(0, |m| m.len());
        } else {
            self.writes.wal_bytes += now.bytes - last.bytes;
        }
        self.writes.last = now;
    }
}
