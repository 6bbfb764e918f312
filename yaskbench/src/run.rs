//! One run of one workload: set-up, warm-up, the measured phase, the
//! correctness gate, and the metrics by name.
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics for
//! `--seconds` seconds of closed-loop load, in blocks: the next block's
//! operations are generated while the clock is stopped, so generator
//! work (ranking the corpus to pick a missing object, say) is never
//! charged to the server. A traced run (`--trace 1`, see `traced.rs`)
//! replays a fixed number of operations at several depths and yields
//! the per-layer metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use yask_server::Json;

use crate::client::Client;
use crate::driver::Driver;
use crate::gen::{Op, Workload};
use crate::oracle;
use crate::system::{self, System};

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where the run may write (log files, page files, traces).
    pub out_dir: PathBuf,
}

/// What a run measured. `counts[name]` is the number of samples behind
/// `metrics[name]` where that means something.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub counts: BTreeMap<String, usize>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn set_n(&mut self, name: &str, value: f64, n: usize) {
        self.set(name, value);
        self.counts.insert(name.to_owned(), n);
    }
}

/// The sizes of a run, calibrated on the reference host (2 cores) so a
/// block holds roughly half a second of work and a traced run lasts
/// about as long as an untraced one.
pub struct Scale {
    pub n: usize,
    /// Operations per measured block of an untraced run.
    pub block: usize,
    /// Warm-up of an untraced run, in seconds; `None` = 5 % of `--seconds`.
    pub warmup_s: Option<f64>,
    /// The traced HTTP pass' fixed operation count per 10 s of
    /// `--seconds`, and the fixed warm-up count before it.
    pub trace_ops: usize,
    pub trace_warm_ops: usize,
    /// `write_mix` checkpoints every this many log batches, so several
    /// checkpoint cycles complete inside one run.
    pub checkpoint_every: u64,
    pub setups: usize,
    pub restart_checks: usize,
}

pub fn scale(workload: Workload, smoke: bool) -> Scale {
    // `read_cached` is the one workload whose per-request cost depends
    // on how many sessions are alive (the service scans them on every
    // request), and it opens them by the thousand per second: its
    // warm-up lasts until the session store has reached its plateau —
    // the 5 s time-to-live plus one 1 s sweep.
    let (block, warmup_s, trace_ops, trace_warm_ops) = match workload {
        Workload::ReadCached => (1_000, Some(6.0), 16_000, 13_000),
        Workload::ReadCold => (200, None, 900, 45),
        Workload::ReadOocore => (20, None, 140, 10),
        Workload::WhynotSession => (40, None, 200, 10),
        Workload::WriteMix => (100, None, 750, 40),
    };
    if smoke {
        Scale {
            n: 5_000,
            block: (block / 10).max(10),
            warmup_s: None,
            trace_ops: (trace_ops / 2).max(50),
            trace_warm_ops: 10,
            checkpoint_every: 4,
            setups: 1,
            restart_checks: 8,
        }
    } else {
        Scale {
            n: 50_000,
            block,
            warmup_s,
            trace_ops,
            trace_warm_ops,
            checkpoint_every: 48,
            setups: 21,
            restart_checks: 64,
        }
    }
}

/// Sorted copy, then the value at quantile `q` (nearest rank).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `GET /stats`, parsed.
pub fn fetch_stats(driver: &mut Driver) -> Json {
    match driver.client.round_trip(b"GET /stats HTTP/1.1\r\n\r\n") {
        Ok(reply) if reply.status == 200 => {
            Json::parse(driver.client.body(&reply)).unwrap_or(Json::Null)
        }
        _ => Json::Null,
    }
}

/// A number inside a `/stats` document (0 when absent or null).
pub fn stat(stats: &Json, path: &[&str]) -> f64 {
    oracle::field(stats, path).unwrap_or(0.0)
}

/// A fresh, empty directory for one set-up's durable files.
fn fresh_dir(out_dir: &Path, round: usize) -> PathBuf {
    let dir = out_dir.join(format!("data-{round}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the run's data directory");
    dir
}

pub fn run(cfg: &RunConfig) -> Outcome {
    if cfg.trace {
        return crate::traced::run(cfg);
    }
    let scale = scale(cfg.workload, cfg.smoke);
    let mut out = Outcome::default();

    let dir = fresh_dir(&cfg.out_dir, 0);
    let (corpus, system, first_setup) =
        system::set_up(cfg.workload, scale.n, &dir, scale.checkpoint_every, None);
    let mut driver = Driver::new(cfg.workload, &corpus, cfg.seed, &system, &dir);

    // Warm-up, unrecorded: 5 % of the time unless the workload says more.
    let mut warm = 0.0;
    while warm < scale.warmup_s.unwrap_or(cfg.seconds * 0.05) {
        let ops = driver.plan(scale.block);
        warm += driver.run_block(&system, &ops, None);
    }
    driver.reset_samples();

    let mut block_ops_s = Vec::new();
    let mut timed = 0.0;
    while timed < cfg.seconds {
        let ops = driver.plan(scale.block);
        let secs = driver.run_block(&system, &ops, None);
        block_ops_s.push(ops.len() as f64 / secs);
        timed += secs;
    }
    // Peak memory is that of one system under load: it is read before
    // the repeated set-ups and the oracles allocate anything.
    out.set("rss_peak_mb", rss_peak_mb());
    client_metrics(&mut out, &driver, &block_ops_s);

    // Set-up time is the median of several set-ups (the one that served
    // and throw-away repeats), so one slow start does not decide it.
    let mut setup_s = vec![first_setup];
    for round in 1..scale.setups {
        let spare = fresh_dir(&cfg.out_dir, round);
        setup_s.push(system::set_up(cfg.workload, scale.n, &spare, scale.checkpoint_every, None).2);
    }
    out.set_n("setup_s", median(&setup_s), setup_s.len());

    finish(cfg, &scale, &corpus, system, driver, &dir, &mut out);
    out
}

/// The client-observed metrics of a measured phase.
pub fn client_metrics(out: &mut Outcome, driver: &Driver, block_ops_s: &[f64]) {
    let none = Vec::new();
    let of = |label: &str| driver.latency_us.get(label).unwrap_or(&none);
    let queries = of("query");
    out.set_n("query_p50_us", median(queries), queries.len());
    out.set_n(
        "server.query_p99_us",
        quantile(queries, 0.99),
        queries.len(),
    );
    // Throughput is the median over blocks, so one stalled block (a
    // noisy neighbour, a checkpoint) does not move it.
    out.set_n("ops_s", median(block_ops_s), block_ops_s.len());
    for label in ["explain", "preference", "keywords", "combined", "write"] {
        let samples = of(label);
        out.set_n(
            &format!("http.{label}_p50_us"),
            median(samples),
            samples.len(),
        );
    }
    let writes = of("write");
    out.set_n("http.write_p99_us", quantile(writes, 0.99), writes.len());
    let write_secs: f64 = writes.iter().sum::<f64>() / 1e6;
    if write_secs > 0.0 {
        out.set_n(
            "http.write_ops_s",
            writes.len() as f64 / write_secs,
            writes.len(),
        );
    }
    let w = &driver.writes;
    if w.user_bytes > 0 {
        out.set(
            "http.disk_bytes_per_user_byte",
            (w.wal_bytes + w.checkpoint_bytes) as f64 / w.user_bytes as f64,
        );
        out.set(
            "ingest.wal_bytes_per_write",
            w.wal_bytes as f64 / w.writes as f64,
        );
        out.set("ingest.write_stall_max_us", w.stall_max_us);
    }
    out.set_n(
        "server.resp_bytes",
        median(&driver.response_bytes),
        driver.response_bytes.len(),
    );
    out.set("server.accepts", driver.client.connects as f64);
    out.set("server.sessions_peak", driver.sessions_peak as f64);
}

/// The end of every run: the `write_mix` crash-restart, the oracles,
/// and the failure tally.
pub fn finish(
    cfg: &RunConfig,
    scale: &Scale,
    corpus: &yask_index::Corpus,
    system: System,
    mut driver: Driver,
    dir: &Path,
    out: &mut Outcome,
) {
    let mut errors = oracle::verify_queries(&driver.query_checks);
    errors.extend(oracle::verify_sessions(corpus, &driver.session_checks));
    let checked = driver.query_checks.len() + driver.session_checks.len() * 4;
    out.counts.insert("oracle_checks".to_owned(), checked);

    if cfg.workload == Workload::WriteMix {
        // The crash: the service goes away with no shutdown and no final
        // checkpoint; whatever the log and the last checkpoint hold is
        // what survives.
        let model = driver.model.clone();
        let planned = driver.plan(scale.restart_checks * 8);
        drop(system);
        let t0 = Instant::now();
        let service = system::build_service(cfg.workload, corpus, dir, scale.checkpoint_every);
        let replayed = service.ingestor().wal_stats().map_or(0, |w| w.batches);
        let system = system::serve(service, None);
        let mut client = Client::new(system.server.addr());
        let queries: Vec<Op> = planned
            .into_iter()
            .filter(|op| matches!(op, Op::Query(_)))
            .take(scale.restart_checks)
            .collect();
        let mut first = true;
        for op in &queries {
            let Op::Query(spec) = op else { continue };
            let mut request = Vec::new();
            op.render(0, &mut request);
            match client.round_trip(&request) {
                Ok(reply) if reply.status == 200 => {
                    if first {
                        out.set("http.recovery_s", t0.elapsed().as_secs_f64());
                        first = false;
                    }
                    if let Err(e) = oracle::verify_against_model(&model, spec, client.body(&reply))
                    {
                        errors.push(e);
                    }
                }
                Ok(reply) => errors.push(format!("restart: HTTP {}", reply.status)),
                Err(e) => errors.push(format!("restart: transport: {e}")),
            }
        }
        out.set("ingest.recovery_replayed_batches", replayed as f64);
        out.counts
            .insert("restart_checks".to_owned(), queries.len());
        driver.attempted += queries.len() as u64;
    } else {
        drop(system);
    }

    for e in errors {
        driver.fail(e);
    }
    out.attempted = driver.attempted;
    out.failed = driver.failed;
    out.failures = std::mem::take(&mut driver.failures);
}
