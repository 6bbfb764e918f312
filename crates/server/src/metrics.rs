//! Every metric of the service, declared once.
//!
//! `describe` turns one `Observed` — everything a scrape reads,
//! gathered once by `YaskService::observe` — into a flat list of
//! `Sample`s. A sample carries up to two names: its `/stats` location
//! and its Prometheus family + labels. Both surfaces are folds over that
//! list: `render_stats` nests the samples by path into JSON,
//! `render_metrics` groups them by family into one text exposition
//! (format 0.0.4) and appends the eight `yask_obs` latency histogram
//! families. Metric names are `yask_`-prefixed; per-shard series carry a
//! `shard` label, per-module why-not series a `module` label, and
//! durations are exported in seconds per Prometheus convention.
//!
//! **Adding a metric** is one line in `describe`: `/stats` path, family,
//! help, value. Give a value both names unless it is derived from
//! something already exported (rates, means, quantiles, totals) or has
//! no JSON shape (histograms); the drift test below compares both
//! surfaces sample by sample and pins the one-sided samples to an
//! explicit list, so a one-sided addition is a visible decision.

use yask_core::Evictions;
use yask_data::DatasetStats;
use yask_exec::{AdmissionSnapshot, CacheSnapshot, ExecSnapshot, ShardSnapshot};
use yask_index::CopyStats;
use yask_ingest::{CheckpointStats, IngestHistSnapshots, WalStats};
use yask_obs::prom::{LabelledHistogram, LabelledValue, PromText};
use yask_pager::PoolStats;

use crate::json::Json;

/// Everything one scrape reads. `YaskService::observe` fills it in one
/// pass; `/stats`, `/metrics` and the drift test all consume the same
/// value, so the two surfaces cannot disagree within a scrape.
#[derive(Default)]
pub(crate) struct Observed {
    /// The corpus summary costs a full corpus scan, so only `/stats`
    /// (which has always paid it) asks for it; `None` skips its samples.
    pub dataset: Option<DatasetStats>,
    pub corpus_slots: usize,
    pub corpus_chunks: usize,
    pub exec: ExecSnapshot,
    pub admission: AdmissionSnapshot,
    pub ingest_epoch: u64,
    pub ingest_hists: IngestHistSnapshots,
    pub wal: Option<WalStats>,
    pub ckpt: CheckpointStats,
    pub corpus_copy: CopyStats,
    pub coalesce_groups: u64,
    pub coalesce_batches: u64,
    pub sessions_live: usize,
    pub sessions_pinned: usize,
    pub sessions_evicted: Evictions,
    pub traces_recorded: u64,
    pub uptime_seconds: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    Counter,
    Gauge,
}

#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Value {
    Num(f64),
    /// A JSON bool on `/stats`, 0/1 on `/metrics`.
    Bool(bool),
    /// A string or `null`; `/stats`-only.
    Text(Option<String>),
}

type Labels = Vec<(&'static str, String)>;

/// One series of a declaration: `/stats` path, labels, value.
type Series = (String, Labels, Value);

pub(crate) struct Family {
    pub name: &'static str,
    pub kind: Kind,
    pub help: &'static str,
}

pub(crate) struct Sample {
    /// Dotted `/stats` location from the root (`exec.per_shard.0.queries`:
    /// an all-digit segment indexes an array); empty = not on `/stats`.
    pub path: String,
    /// Index into [`Samples::families`]; `None` = not on `/metrics`.
    pub family: Option<usize>,
    pub labels: Labels,
    pub value: Value,
}

/// The declared metrics of one scrape. A family is listed even when it
/// has no series this scrape (zero shards, nothing shed yet), so it
/// renders header-only instead of flapping out of existence.
#[derive(Default)]
pub(crate) struct Samples {
    pub families: Vec<Family>,
    pub samples: Vec<Sample>,
}

impl Samples {
    fn family(
        &mut self,
        name: &'static str,
        kind: Kind,
        help: &'static str,
        series: impl IntoIterator<Item = Series>,
    ) {
        let family = Some(self.families.len());
        self.families.push(Family { name, kind, help });
        self.samples.extend(
            series.into_iter().map(|(path, labels, value)| Sample { path, family, labels, value }),
        );
    }

    fn counter(&mut self, path: &str, name: &'static str, help: &'static str, value: u64) {
        self.family(name, Kind::Counter, help, [(path.into(), vec![], Value::Num(value as f64))]);
    }

    fn gauge(&mut self, path: &str, name: &'static str, help: &'static str, value: f64) {
        self.family(name, Kind::Gauge, help, [(path.into(), vec![], Value::Num(value))]);
    }

    /// `/stats`-only samples (any labels are ignored).
    fn stats_only(&mut self, series: impl IntoIterator<Item = Series>) {
        self.samples.extend(
            series.into_iter().map(|(path, labels, value)| Sample { path, family: None, labels, value }),
        );
    }
}

fn label(key: &'static str, value: impl ToString) -> Labels {
    vec![(key, value.to_string())]
}

/// The one place a metric is written down.
#[rustfmt::skip] // a table: one metric per line
pub(crate) fn describe(o: &Observed) -> Samples {
    use Kind::{Counter, Gauge};
    use Value::{Bool, Num, Text};
    let mut s = Samples::default();
    let (e, a, wal) = (&o.exec, &o.admission, o.wal.unwrap_or_default());
    let stat = |path: &str, v: f64| (path.to_owned(), vec![], Num(v));

    if let Some(d) = &o.dataset {
        s.stats_only([stat("objects", d.objects as f64), stat("distinct_keywords", d.distinct_keywords as f64), stat("avg_doc", d.avg_doc), stat("max_doc", d.max_doc as f64)]);
    }

    // -- query path: pool and top-k counters
    s.gauge("exec.shards", "yask_shards", "Configured shard count", e.shards as f64);
    s.gauge("exec.workers", "yask_workers", "Scatter pool worker threads", e.workers as f64);
    s.gauge("exec.queue_depth", "yask_queue_depth", "Pool jobs submitted but not yet started", e.queue_depth as f64);
    s.gauge("exec.queue_depth_max", "yask_queue_depth_max", "Highest queue depth any submit ever observed", e.queue_depth_max as f64);
    s.gauge("exec.queue_depth_max_1m", "yask_queue_depth_max_1m", "Highest queue depth any submit observed in the last minute", e.queue_depth_max_1m as f64);
    s.counter("exec.queue_saturated", "yask_queue_saturated_total", "Submits that ran inline because the bounded pool queue was full", e.queue_saturated as u64);
    s.counter("exec.queries", "yask_queries_total", "Top-k queries computed (cache hits excluded)", e.queries);
    s.counter("exec.scatter_queries", "yask_scatter_queries_total", "Queries computed by scatter-gather across shards", e.scatter_queries);
    s.counter("exec.scan_fallbacks", "yask_scan_fallbacks_total", "Top-k answered by the exact scan because a shard reply went missing", e.scan_fallbacks);

    // -- corpus / epochs
    s.gauge("exec.epoch", "yask_epoch", "Published corpus epoch", e.epoch as f64);
    s.gauge("exec.live_objects", "yask_live_objects", "Live objects in the current epoch", e.live_objects as f64);
    s.gauge("exec.tombstones", "yask_tombstones", "Tombstoned slots in the current epoch", e.tombstones as f64);

    // -- write path; the index_* trio is the path-copying trees' write
    // amplification, O(spine) per batch
    s.counter("exec.batches", "yask_write_batches_total", "Write batches applied", e.batches);
    s.counter("exec.inserts", "yask_inserts_total", "Objects inserted across all batches", e.inserts);
    s.counter("exec.deletes", "yask_deletes_total", "Objects deleted across all batches", e.deletes);
    s.counter("exec.rebalances", "yask_rebalances_total", "Skew-triggered shard re-splits", e.rebalances);
    s.gauge("exec.index_nodes", "yask_index_nodes", "Reachable tree nodes across all shards", e.index_nodes as f64);
    s.gauge("exec.index_bytes", "yask_index_bytes", "Estimated index bytes across all shards", e.index_bytes as f64);
    s.counter("exec.index_chunks_copied", "yask_index_chunks_copied_total", "Arena chunks copied by path-copying tree updates", e.index_chunks_copied);
    s.counter("exec.index_chunks_created", "yask_index_chunks_created_total", "Arena chunks freshly created by tree updates", e.index_chunks_created);
    s.counter("exec.index_copy_bytes", "yask_index_copy_bytes_total", "Bytes deep-copied by path-copying tree updates", e.index_copy_bytes);

    // -- caches: `exec.<cache>_cache.<key>` ↔ `{cache="<cache>"}`
    let cache = |key: &str, f: fn(&CacheSnapshot) -> f64| -> Vec<Series> {
        [("topk", &e.topk_cache), ("answer", &e.answer_cache)].iter()
            .map(|(name, c)| (format!("exec.{name}_cache.{key}"), label("cache", name), Num(f(c)))).collect()
    };
    s.family("yask_cache_hits_total", Counter, "Answer cache hits by cache", cache("hits", |c| c.hits as f64));
    s.family("yask_cache_misses_total", Counter, "Answer cache misses by cache", cache("misses", |c| c.misses as f64));
    s.family("yask_cache_insertions_total", Counter, "Answer cache insertions by cache", cache("insertions", |c| c.insertions as f64));
    s.family("yask_cache_evictions_total", Counter, "Answer cache evictions by cache", cache("evictions", |c| c.evictions as f64));
    s.stats_only(cache("hit_rate", CacheSnapshot::hit_rate));
    s.family("yask_cache_entries", Gauge, "Live answer cache entries by cache", cache("len", |c| c.len as f64));
    s.family("yask_cache_capacity", Gauge, "Answer cache capacity bound by cache", cache("cap", |c| c.cap as f64));

    // -- out-of-core shard pager. `/stats` nests it under `exec.pager`,
    // `null` while every tree is resident; `/metrics` exports zeros then.
    // The decoded-chunk numbers aggregate the *live* paged trees (a
    // re-paged shard starts fresh), so they are gauges, not counters.
    let pg = e.pager.unwrap_or_default();
    let pager = |key: &str| if e.pager.is_some() { format!("exec.pager.{key}") } else { String::new() };
    if e.pager.is_none() {
        s.stats_only([("exec.pager".into(), vec![], Text(None))]);
    }
    s.gauge(&pager("paged_trees"), "yask_paged_trees", "Shard trees currently served out-of-core", pg.paged_trees as f64);
    s.gauge(&pager("budget_bytes"), "yask_paged_budget_bytes", "Decoded-chunk resident budget per paged tree", pg.budget_bytes as f64);
    s.gauge(&pager("chunk_hits"), "yask_paged_chunk_hits", "Node-chunk reads served from the decoded cache (live paged trees)", pg.chunk_hits as f64);
    s.gauge(&pager("chunk_misses"), "yask_paged_chunk_misses", "Node-chunk faults decoded through the pager (live paged trees)", pg.chunk_misses as f64);
    s.gauge(&pager("chunk_evictions"), "yask_paged_chunk_evictions", "Decoded node chunks evicted under the resident budget (live paged trees)", pg.chunk_evictions as f64);
    s.gauge(&pager("resident_chunks"), "yask_paged_chunks_resident", "Node chunks currently decoded in memory across paged trees", pg.resident_chunks as f64);
    s.gauge(&pager("chunk_count"), "yask_paged_chunks", "Node chunks across all paged trees", pg.chunk_count as f64);
    s.gauge(&pager("disk_bytes"), "yask_paged_disk_bytes", "Run bytes held in the live paged trees' files", pg.disk_bytes as f64);

    // -- buffer pools, one series per pool: the WAL's live pool and the
    // cumulative counters of every checkpoint file written or recovered
    // from. Monotonic for the life of the process.
    let pool = |key: &str, f: fn(&PoolStats) -> u64| -> Vec<Series> {
        vec![(format!("ingest.wal_pool_{key}"), label("pool", "wal"), Num(f(&wal.pool) as f64)),
             (format!("ingest.checkpoint_pool_{key}"), label("pool", "checkpoint"), Num(f(&o.ckpt.pool) as f64))]
    };
    s.family("yask_pager_hits_total", Counter, "Buffer-pool page reads served from cache, by pool", pool("hits", |p| p.hits));
    s.family("yask_pager_misses_total", Counter, "Buffer-pool page reads that went to disk, by pool", pool("misses", |p| p.misses));
    s.family("yask_pager_evictions_total", Counter, "Buffer-pool frames evicted to make room, by pool", pool("evictions", |p| p.evictions));

    // -- workload observatory (heat and skew per STR cell); the full
    // surface lives at /debug/heatmap and /debug/health.
    let w = &e.workload;
    let workload = |key: &str| format!("exec.workload.{key}");
    s.gauge(&workload("query_skew"), "yask_query_heat_skew", "Query heat skew: hottest cell over mean cell (0 when cold)", w.query_skew);
    s.gauge(&workload("write_skew"), "yask_write_heat_skew", "Write heat skew: hottest cell over mean cell (0 when cold)", w.write_skew);
    let cells = |key: &str, values: &[f64]| -> Vec<Series> {
        values.iter().enumerate()
            .map(|(i, &v)| (workload(&format!("{key}.{i}")), label("cell", i), Num(v))).collect()
    };
    let as_f64 = |touches: &[u64]| touches.iter().map(|&t| t as f64).collect::<Vec<_>>();
    s.family("yask_cell_query_heat", Gauge, "Exponentially decayed query touches per STR cell", cells("query_heat", &w.query_heat));
    s.family("yask_cell_write_heat", Gauge, "Exponentially decayed write ops per STR cell", cells("write_heat", &w.write_heat));
    s.family("yask_cell_query_touches_total", Counter, "Query touches routed per STR cell since startup", cells("query_touches", &as_f64(&w.query_touches)));
    s.family("yask_cell_write_touches_total", Counter, "Write ops routed per STR cell since startup", cells("write_touches", &as_f64(&w.write_touches)));
    s.stats_only([stat("exec.workload.topk_rate_1m", w.topk.h60.rate_per_sec()), stat("exec.workload.topk_p99_us_10s", w.topk.h10.p99() as f64 / 1e3)]);
    // Windowed rate and quantiles per route at the 1 s / 10 s / 1 m
    // horizons; `/debug/health` is their JSON surface.
    let mut routes = vec![("topk".to_owned(), &w.topk), ("topk_hit".to_owned(), &w.topk_hit)];
    routes.extend(w.whynot_named().map(|(module, rw)| (format!("whynot_{module}"), rw)));
    routes.push(("writes".to_owned(), &w.writes));
    let windows = |f: fn(&yask_obs::WindowSnapshot) -> f64| -> Vec<Series> {
        routes.iter().flat_map(|(route, rw)| rw.iter_named().map(|(window, snap)| {
            (String::new(), vec![("route", route.clone()), ("window", window.to_owned())], Num(f(snap)))
        })).collect()
    };
    s.family("yask_route_rate", Gauge, "Windowed request rate per route (events per second)", windows(|w| w.rate_per_sec()));
    s.family("yask_route_p50_seconds", Gauge, "Windowed median latency per route", windows(|w| w.p50() as f64 / 1e9));
    s.family("yask_route_p99_seconds", Gauge, "Windowed p99 latency per route", windows(|w| w.p99() as f64 / 1e9));

    // -- per shard: `exec.per_shard.<i>.<key>` ↔ `{shard="<i>"}`
    let shard = |key: &str, f: fn(&ShardSnapshot) -> f64| -> Vec<Series> {
        e.per_shard.iter().enumerate()
            .map(|(i, p)| (format!("exec.per_shard.{i}.{key}"), label("shard", i), Num(f(p)))).collect()
    };
    s.family("yask_shard_objects", Gauge, "Objects indexed per shard", shard("objects", |p| p.objects as f64));
    s.family("yask_shard_nodes", Gauge, "Reachable tree nodes per shard", shard("nodes", |p| p.nodes as f64));
    s.family("yask_shard_index_bytes", Gauge, "Estimated index bytes per shard", shard("index_bytes", |p| p.index_bytes as f64));
    s.family("yask_shard_queries_total", Counter, "Searches run per shard", shard("queries", |p| p.queries as f64));
    s.stats_only([shard("mean_us", |p| p.mean_us), shard("p50_us", |p| p.p50_us), shard("p99_us", |p| p.p99_us), shard("total_us", |p| p.total_us)].concat());
    s.family("yask_shard_nodes_expanded_total", Counter, "Tree nodes expanded per shard", shard("nodes_expanded", |p| p.nodes_expanded as f64));
    s.family("yask_shard_objects_scored_total", Counter, "Objects exactly scored per shard", shard("objects_scored", |p| p.objects_scored as f64));
    s.family("yask_shard_inserts_total", Counter, "Inserts routed per shard", shard("inserts", |p| p.inserts as f64));
    s.family("yask_shard_deletes_total", Counter, "Deletes routed per shard", shard("deletes", |p| p.deletes as f64));
    s.family("yask_shard_arena_chunks", Gauge, "Chunks in the shard tree's persistent node arena", shard("arena_chunks", |p| p.arena_chunks as f64));
    s.family("yask_shard_arena_bytes", Gauge, "Resident bytes of the shard's node slab, freed slack included", shard("arena_bytes", |p| p.arena_bytes as f64));

    // -- admission / load shedding: the `(route, reason)` shed grid plus
    // degraded/deadline totals
    s.stats_only([stat("admission.shed_total", a.shed_total as f64)]);
    s.counter("admission.degraded_admits", "yask_degraded_admits_total", "Requests admitted at the degraded deadline budget", a.degraded_admits);
    s.counter("admission.degraded_answers", "yask_degraded_answers_total", "Responses served degraded (stale cache hit or truncated search)", a.degraded_answers);
    s.counter("admission.deadline_exceeded", "yask_deadline_exceeded_total", "Requests whose deadline budget expired (504s)", a.deadline_exceeded);
    s.stats_only(a.shed.iter().enumerate().flat_map(|(i, c)| [
        (format!("admission.shed.{i}.route"), vec![], Text(Some(c.route.into()))),
        (format!("admission.shed.{i}.reason"), vec![], Text(Some(c.reason.into()))),
    ]));
    s.family("yask_shed_total", Counter, "Requests refused by admission control, by route and reason", a.shed.iter().enumerate().map(|(i, c)| {
        (format!("admission.shed.{i}.count"), vec![("route", c.route.to_owned()), ("reason", c.reason.to_owned())], Num(c.count as f64))
    }));

    // -- sessions / traces / build
    s.gauge("sessions.live", "yask_sessions_live", "Live why-not sessions", o.sessions_live as f64);
    s.gauge("sessions.pinned_epochs", "yask_sessions_pinned_epochs", "Sessions still answering against a superseded epoch", o.sessions_pinned as f64);
    let evicted = |reason: &str, n: u64| (format!("sessions.evicted.{reason}"), label("reason", reason), Num(n as f64));
    s.family("yask_sessions_evicted_total", Counter, "Why-not sessions the store evicted, by reason", [evicted("ttl", o.sessions_evicted.ttl), evicted("cap", o.sessions_evicted.cap)]);
    s.counter("traces_recorded", "yask_traces_recorded_total", "Query traces recorded into the ring", o.traces_recorded);
    s.gauge("uptime_seconds", "yask_uptime_seconds", "Seconds since the service started (monotonic clock)", o.uptime_seconds);
    s.family("yask_build_info", Gauge, "Build metadata carried as labels; the value is always 1", [(String::new(), label("version", env!("CARGO_PKG_VERSION")), Num(1.0))]);

    // -- ingest: corpus occupancy, WAL (gauges: the log truncates at
    // checkpoints), checkpoints, corpus copy-on-write, coalescer.
    // `ingest.epoch` / `ingest.tombstones` repeat the exec values.
    s.stats_only([stat("ingest.epoch", o.ingest_epoch as f64), stat("ingest.tombstones", e.tombstones as f64)]);
    s.gauge("ingest.slots", "yask_corpus_slots", "Object slots in the current epoch, tombstoned included", o.corpus_slots as f64);
    s.family("yask_wal_durable", Gauge, "1 when a write-ahead log is configured", [("ingest.durable".into(), vec![], Bool(o.wal.is_some()))]);
    s.gauge("ingest.wal_batches", "yask_wal_batches", "Committed batches in the log since its base", wal.batches as f64);
    s.gauge("ingest.wal_bytes", "yask_wal_bytes", "Committed payload bytes in the log", wal.bytes as f64);
    s.gauge("ingest.wal_groups", "yask_wal_groups", "Commit groups flushed since the log base", wal.groups as f64);
    s.gauge("ingest.wal_base_epoch", "yask_wal_base_epoch", "Epoch the log's records apply on top of", wal.base_epoch as f64);
    s.counter("ingest.checkpoints", "yask_checkpoints_total", "Checkpoint snapshots taken", o.ckpt.checkpoints);
    s.gauge("ingest.checkpoint_epoch", "yask_checkpoint_epoch", "Epoch of the most recent checkpoint", o.ckpt.last_epoch as f64);
    s.counter("ingest.checkpoint_failures", "yask_checkpoint_failures_total", "Checkpoint attempts that failed (the log keeps growing until one succeeds)", o.ckpt.failures);
    s.stats_only([("ingest.checkpoint_last_error".into(), vec![], Text(o.ckpt.last_error.clone()))]);
    // Chunked-corpus write amplification: divided by exec.batches this
    // stays flat as the corpus grows.
    s.gauge("ingest.chunks", "yask_corpus_chunks", "Chunks in the current epoch's corpus", o.corpus_chunks as f64);
    s.counter("ingest.chunks_copied", "yask_corpus_chunks_copied_total", "Corpus chunks copied deriving new epochs", o.corpus_copy.chunks_copied as u64);
    s.counter("ingest.copy_bytes", "yask_corpus_copy_bytes_total", "Corpus bytes copied deriving new epochs", o.corpus_copy.bytes_copied as u64);
    s.counter("ingest.coalesce_groups", "yask_coalesce_groups_total", "Write groups flushed by the request coalescer", o.coalesce_groups);
    s.counter("ingest.coalesce_batches", "yask_coalesce_batches_total", "Write batches admitted through the request coalescer", o.coalesce_batches);
    s
}

impl Value {
    fn json(&self) -> Json {
        match self {
            Value::Num(v) => Json::Num(*v),
            Value::Bool(b) => Json::Bool(*b),
            Value::Text(t) => t.clone().map_or(Json::Null, Json::Str),
        }
    }

    fn number(&self) -> f64 {
        match self {
            Value::Num(v) => *v,
            Value::Bool(b) => *b as u8 as f64,
            Value::Text(_) => f64::NAN,
        }
    }
}

/// The `/stats` fold: every sample with a path, nested by its segments.
pub(crate) fn render_stats(samples: &Samples) -> Json {
    let mut root = Json::Obj(Vec::new());
    for sample in samples.samples.iter().filter(|s| !s.path.is_empty()) {
        let mut node = &mut root;
        for segment in sample.path.split('.') {
            node = match segment.parse::<usize>() {
                Ok(i) => {
                    if !matches!(node, Json::Arr(_)) {
                        *node = Json::Arr(Vec::new());
                    }
                    let Json::Arr(items) = node else { unreachable!("just made an array") };
                    if items.len() <= i {
                        items.resize(i + 1, Json::Null);
                    }
                    &mut items[i]
                }
                Err(_) => {
                    if !matches!(node, Json::Obj(_)) {
                        *node = Json::Obj(Vec::new());
                    }
                    let Json::Obj(fields) = node else { unreachable!("just made an object") };
                    let at = fields.iter().position(|(key, _)| key == segment).unwrap_or_else(|| {
                        fields.push((segment.to_owned(), Json::Null));
                        fields.len() - 1
                    });
                    &mut fields[at].1
                }
            };
        }
        *node = sample.value.json();
    }
    root
}

/// The `/metrics` fold: one family per declaration, header-only when it
/// has no series, then the latency histograms.
pub(crate) fn render_metrics(samples: &Samples, o: &Observed) -> String {
    let mut p = PromText::new();
    for (i, family) in samples.families.iter().enumerate() {
        let series: Vec<LabelledValue> = samples
            .samples
            .iter()
            .filter(|s| s.family == Some(i))
            .map(|s| (s.labels.clone(), s.value.number()))
            .collect();
        match family.kind {
            Kind::Counter => p.counter_family(family.name, family.help, &series),
            Kind::Gauge => p.gauge_family(family.name, family.help, &series),
        }
    }
    let e = &o.exec;
    p.histogram("yask_topk_latency_seconds", "Uncached top-k compute latency", &e.topk_hist);
    p.histogram("yask_topk_cache_hit_latency_seconds", "Top-k cache hit latency", &e.topk_hit_hist);
    let shard_hists: Vec<LabelledHistogram> =
        e.shard_search_hists.iter().enumerate().map(|(i, h)| (label("shard", i), h.clone())).collect();
    p.histogram_family("yask_shard_search_latency_seconds", "Per-shard search latency", &shard_hists);
    let whynot_hists: Vec<LabelledHistogram> =
        e.whynot_hists.iter_named().iter().map(|(name, h)| (label("module", name), (*h).clone())).collect();
    p.histogram_family("yask_whynot_latency_seconds", "Why-not answering latency by module", &whynot_hists);
    p.histogram(
        "yask_wal_append_latency_seconds",
        "Durable WAL commit latency (encode + write + both fsyncs)",
        &o.ingest_hists.wal_append,
    );
    p.histogram(
        "yask_wal_fsync_latency_seconds",
        "Individual commit-path fsync latency",
        &o.ingest_hists.wal_fsync,
    );
    p.histogram(
        "yask_checkpoint_latency_seconds",
        "Checkpoint fold latency (snapshot write + log truncation)",
        &o.ingest_hists.checkpoint,
    );
    p.histogram(
        "yask_write_apply_latency_seconds",
        "Executor batch publish latency",
        &o.ingest_hists.write_apply,
    );
    p.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    use yask_exec::ExecConfig;
    use yask_obs::validate_exposition;

    use crate::api::{ServiceConfig, YaskService};
    use crate::http::Request;

    /// Every `/stats` path with its JSON type, captured from the parent
    /// of the commit that introduced [`describe`] (a WAL-backed, paged,
    /// observatory-on service after a query, an explain and an insert),
    /// plus the `sessions.evicted` block added since, less the shard
    /// pager's five `exec.pager.pool_*` paths (its buffer pool is gone)
    /// and plus `exec.pager.disk_bytes`: 114 paths. Paths may be added,
    /// not removed or retyped, except with the mechanism they measured:
    /// yaskbench and dashboards read them.
    const GOLDEN_STATS: &[(&str, &str)] = &[
        ("admission", "obj"),
        ("admission.deadline_exceeded", "num"),
        ("admission.degraded_admits", "num"),
        ("admission.degraded_answers", "num"),
        ("admission.shed", "arr"),
        ("admission.shed.0", "obj"),
        ("admission.shed.0.count", "num"),
        ("admission.shed.0.reason", "str"),
        ("admission.shed.0.route", "str"),
        ("admission.shed_total", "num"),
        ("avg_doc", "num"),
        ("distinct_keywords", "num"),
        ("exec", "obj"),
        ("exec.answer_cache", "obj"),
        ("exec.answer_cache.cap", "num"),
        ("exec.answer_cache.evictions", "num"),
        ("exec.answer_cache.hit_rate", "num"),
        ("exec.answer_cache.hits", "num"),
        ("exec.answer_cache.insertions", "num"),
        ("exec.answer_cache.len", "num"),
        ("exec.answer_cache.misses", "num"),
        ("exec.batches", "num"),
        ("exec.deletes", "num"),
        ("exec.epoch", "num"),
        ("exec.index_bytes", "num"),
        ("exec.index_chunks_copied", "num"),
        ("exec.index_chunks_created", "num"),
        ("exec.index_copy_bytes", "num"),
        ("exec.index_nodes", "num"),
        ("exec.inserts", "num"),
        ("exec.live_objects", "num"),
        ("exec.pager", "obj"),
        ("exec.pager.budget_bytes", "num"),
        ("exec.pager.chunk_count", "num"),
        ("exec.pager.chunk_evictions", "num"),
        ("exec.pager.chunk_hits", "num"),
        ("exec.pager.chunk_misses", "num"),
        ("exec.pager.disk_bytes", "num"),
        ("exec.pager.paged_trees", "num"),
        ("exec.pager.resident_chunks", "num"),
        ("exec.per_shard", "arr"),
        ("exec.per_shard.0", "obj"),
        ("exec.per_shard.0.arena_bytes", "num"),
        ("exec.per_shard.0.arena_chunks", "num"),
        ("exec.per_shard.0.deletes", "num"),
        ("exec.per_shard.0.index_bytes", "num"),
        ("exec.per_shard.0.inserts", "num"),
        ("exec.per_shard.0.mean_us", "num"),
        ("exec.per_shard.0.nodes", "num"),
        ("exec.per_shard.0.nodes_expanded", "num"),
        ("exec.per_shard.0.objects", "num"),
        ("exec.per_shard.0.objects_scored", "num"),
        ("exec.per_shard.0.p50_us", "num"),
        ("exec.per_shard.0.p99_us", "num"),
        ("exec.per_shard.0.queries", "num"),
        ("exec.per_shard.0.total_us", "num"),
        ("exec.queries", "num"),
        ("exec.queue_depth", "num"),
        ("exec.queue_depth_max", "num"),
        ("exec.queue_depth_max_1m", "num"),
        ("exec.queue_saturated", "num"),
        ("exec.rebalances", "num"),
        ("exec.scan_fallbacks", "num"),
        ("exec.scatter_queries", "num"),
        ("exec.shards", "num"),
        ("exec.tombstones", "num"),
        ("exec.topk_cache", "obj"),
        ("exec.topk_cache.cap", "num"),
        ("exec.topk_cache.evictions", "num"),
        ("exec.topk_cache.hit_rate", "num"),
        ("exec.topk_cache.hits", "num"),
        ("exec.topk_cache.insertions", "num"),
        ("exec.topk_cache.len", "num"),
        ("exec.topk_cache.misses", "num"),
        ("exec.workers", "num"),
        ("exec.workload", "obj"),
        ("exec.workload.query_heat", "arr"),
        ("exec.workload.query_heat.0", "num"),
        ("exec.workload.query_skew", "num"),
        ("exec.workload.topk_p99_us_10s", "num"),
        ("exec.workload.topk_rate_1m", "num"),
        ("exec.workload.write_heat", "arr"),
        ("exec.workload.write_heat.0", "num"),
        ("exec.workload.write_skew", "num"),
        ("ingest", "obj"),
        ("ingest.checkpoint_epoch", "num"),
        ("ingest.checkpoint_pool_evictions", "num"),
        ("ingest.checkpoint_pool_hits", "num"),
        ("ingest.checkpoint_pool_misses", "num"),
        ("ingest.checkpoints", "num"),
        ("ingest.chunks", "num"),
        ("ingest.chunks_copied", "num"),
        ("ingest.coalesce_batches", "num"),
        ("ingest.coalesce_groups", "num"),
        ("ingest.copy_bytes", "num"),
        ("ingest.durable", "bool"),
        ("ingest.epoch", "num"),
        ("ingest.slots", "num"),
        ("ingest.tombstones", "num"),
        ("ingest.wal_base_epoch", "num"),
        ("ingest.wal_batches", "num"),
        ("ingest.wal_bytes", "num"),
        ("ingest.wal_groups", "num"),
        ("ingest.wal_pool_evictions", "num"),
        ("ingest.wal_pool_hits", "num"),
        ("ingest.wal_pool_misses", "num"),
        ("max_doc", "num"),
        ("objects", "num"),
        ("sessions", "obj"),
        ("sessions.evicted", "obj"),
        ("sessions.evicted.cap", "num"),
        ("sessions.evicted.ttl", "num"),
        ("sessions.live", "num"),
        ("sessions.pinned_epochs", "num"),
    ];

    /// Every `/metrics` family with its type, label keys and help string,
    /// captured from the same run, plus `yask_sessions_evicted_total` and
    /// `yask_paged_disk_bytes`: 82 families. Additions allowed, changes
    /// not.
    const GOLDEN_FAMILIES: &[(&str, &str, &[&str], &str)] = &[
        ("yask_build_info", "gauge", &["version"], "Build metadata carried as labels; the value is always 1"),
        ("yask_cache_entries", "gauge", &["cache"], "Live answer cache entries by cache"),
        ("yask_cache_evictions_total", "counter", &["cache"], "Answer cache evictions by cache"),
        ("yask_cache_hits_total", "counter", &["cache"], "Answer cache hits by cache"),
        ("yask_cache_insertions_total", "counter", &["cache"], "Answer cache insertions by cache"),
        ("yask_cache_misses_total", "counter", &["cache"], "Answer cache misses by cache"),
        ("yask_cell_query_heat", "gauge", &["cell"], "Exponentially decayed query touches per STR cell"),
        ("yask_cell_query_touches_total", "counter", &["cell"], "Query touches routed per STR cell since startup"),
        ("yask_cell_write_heat", "gauge", &["cell"], "Exponentially decayed write ops per STR cell"),
        ("yask_cell_write_touches_total", "counter", &["cell"], "Write ops routed per STR cell since startup"),
        ("yask_checkpoint_epoch", "gauge", &[], "Epoch of the most recent checkpoint"),
        ("yask_checkpoint_latency_seconds", "histogram", &[], "Checkpoint fold latency (snapshot write + log truncation)"),
        ("yask_checkpoints_total", "counter", &[], "Checkpoint snapshots taken"),
        ("yask_coalesce_batches_total", "counter", &[], "Write batches admitted through the request coalescer"),
        ("yask_coalesce_groups_total", "counter", &[], "Write groups flushed by the request coalescer"),
        ("yask_corpus_chunks_copied_total", "counter", &[], "Corpus chunks copied deriving new epochs"),
        ("yask_corpus_copy_bytes_total", "counter", &[], "Corpus bytes copied deriving new epochs"),
        ("yask_deadline_exceeded_total", "counter", &[], "Requests whose deadline budget expired (504s)"),
        ("yask_degraded_admits_total", "counter", &[], "Requests admitted at the degraded deadline budget"),
        ("yask_degraded_answers_total", "counter", &[], "Responses served degraded (stale cache hit or truncated search)"),
        ("yask_deletes_total", "counter", &[], "Objects deleted across all batches"),
        ("yask_epoch", "gauge", &[], "Published corpus epoch"),
        ("yask_index_bytes", "gauge", &[], "Estimated index bytes across all shards"),
        ("yask_index_chunks_copied_total", "counter", &[], "Arena chunks copied by path-copying tree updates"),
        ("yask_index_chunks_created_total", "counter", &[], "Arena chunks freshly created by tree updates"),
        ("yask_index_copy_bytes_total", "counter", &[], "Bytes deep-copied by path-copying tree updates"),
        ("yask_index_nodes", "gauge", &[], "Reachable tree nodes across all shards"),
        ("yask_inserts_total", "counter", &[], "Objects inserted across all batches"),
        ("yask_live_objects", "gauge", &[], "Live objects in the current epoch"),
        ("yask_paged_budget_bytes", "gauge", &[], "Decoded-chunk resident budget per paged tree"),
        ("yask_paged_chunk_evictions", "gauge", &[], "Decoded node chunks evicted under the resident budget (live paged trees)"),
        ("yask_paged_chunk_hits", "gauge", &[], "Node-chunk reads served from the decoded cache (live paged trees)"),
        ("yask_paged_chunk_misses", "gauge", &[], "Node-chunk faults decoded through the pager (live paged trees)"),
        ("yask_paged_chunks", "gauge", &[], "Node chunks across all paged trees"),
        ("yask_paged_chunks_resident", "gauge", &[], "Node chunks currently decoded in memory across paged trees"),
        ("yask_paged_disk_bytes", "gauge", &[], "Run bytes held in the live paged trees' files"),
        ("yask_paged_trees", "gauge", &[], "Shard trees currently served out-of-core"),
        ("yask_pager_evictions_total", "counter", &["pool"], "Buffer-pool frames evicted to make room, by pool"),
        ("yask_pager_hits_total", "counter", &["pool"], "Buffer-pool page reads served from cache, by pool"),
        ("yask_pager_misses_total", "counter", &["pool"], "Buffer-pool page reads that went to disk, by pool"),
        ("yask_queries_total", "counter", &[], "Top-k queries computed (cache hits excluded)"),
        ("yask_query_heat_skew", "gauge", &[], "Query heat skew: hottest cell over mean cell (0 when cold)"),
        ("yask_queue_depth", "gauge", &[], "Pool jobs submitted but not yet started"),
        ("yask_queue_depth_max", "gauge", &[], "Highest queue depth any submit ever observed"),
        ("yask_queue_depth_max_1m", "gauge", &[], "Highest queue depth any submit observed in the last minute"),
        ("yask_queue_saturated_total", "counter", &[], "Submits that ran inline because the bounded pool queue was full"),
        ("yask_rebalances_total", "counter", &[], "Skew-triggered shard re-splits"),
        ("yask_route_p50_seconds", "gauge", &["route", "window"], "Windowed median latency per route"),
        ("yask_route_p99_seconds", "gauge", &["route", "window"], "Windowed p99 latency per route"),
        ("yask_route_rate", "gauge", &["route", "window"], "Windowed request rate per route (events per second)"),
        ("yask_scan_fallbacks_total", "counter", &[], "Top-k answered by the exact scan because a shard reply went missing"),
        ("yask_scatter_queries_total", "counter", &[], "Queries computed by scatter-gather across shards"),
        ("yask_sessions_evicted_total", "counter", &["reason"], "Why-not sessions the store evicted, by reason"),
        ("yask_sessions_live", "gauge", &[], "Live why-not sessions"),
        ("yask_sessions_pinned_epochs", "gauge", &[], "Sessions still answering against a superseded epoch"),
        ("yask_shard_deletes_total", "counter", &["shard"], "Deletes routed per shard"),
        ("yask_shard_index_bytes", "gauge", &["shard"], "Estimated index bytes per shard"),
        ("yask_shard_inserts_total", "counter", &["shard"], "Inserts routed per shard"),
        ("yask_shard_nodes_expanded_total", "counter", &["shard"], "Tree nodes expanded per shard"),
        ("yask_shard_objects", "gauge", &["shard"], "Objects indexed per shard"),
        ("yask_shard_objects_scored_total", "counter", &["shard"], "Objects exactly scored per shard"),
        ("yask_shard_queries_total", "counter", &["shard"], "Searches run per shard"),
        ("yask_shard_search_latency_seconds", "histogram", &["shard"], "Per-shard search latency"),
        ("yask_shards", "gauge", &[], "Configured shard count"),
        ("yask_shed_total", "counter", &["reason", "route"], "Requests refused by admission control, by route and reason"),
        ("yask_tombstones", "gauge", &[], "Tombstoned slots in the current epoch"),
        ("yask_topk_cache_hit_latency_seconds", "histogram", &[], "Top-k cache hit latency"),
        ("yask_topk_latency_seconds", "histogram", &[], "Uncached top-k compute latency"),
        ("yask_traces_recorded_total", "counter", &[], "Query traces recorded into the ring"),
        ("yask_uptime_seconds", "gauge", &[], "Seconds since the service started (monotonic clock)"),
        ("yask_wal_append_latency_seconds", "histogram", &[], "Durable WAL commit latency (encode + write + both fsyncs)"),
        ("yask_wal_base_epoch", "gauge", &[], "Epoch the log's records apply on top of"),
        ("yask_wal_batches", "gauge", &[], "Committed batches in the log since its base"),
        ("yask_wal_bytes", "gauge", &[], "Committed payload bytes in the log"),
        ("yask_wal_durable", "gauge", &[], "1 when a write-ahead log is configured"),
        ("yask_wal_fsync_latency_seconds", "histogram", &[], "Individual commit-path fsync latency"),
        ("yask_wal_groups", "gauge", &[], "Commit groups flushed since the log base"),
        ("yask_whynot_latency_seconds", "histogram", &["module"], "Why-not answering latency by module"),
        ("yask_workers", "gauge", &[], "Scatter pool worker threads"),
        ("yask_write_apply_latency_seconds", "histogram", &[], "Executor batch publish latency"),
        ("yask_write_batches_total", "counter", &[], "Write batches applied"),
        ("yask_write_heat_skew", "gauge", &[], "Write heat skew: hottest cell over mean cell (0 when cold)"),
    ];

    /// The samples that deliberately carry only one name. `/stats`-only:
    /// values derived from something already exported (rates, means,
    /// quantiles, totals of a labelled family), repeats of an `exec`
    /// value under `ingest`, strings, `null` placeholders of an absent
    /// block, and the corpus summary only `/stats` scans for.
    /// `/metrics`-only: label-carried build metadata and the per-route
    /// windows whose JSON surface is `/debug/health`. Array indices are
    /// written `*`. Adding a line here is a decision, not an accident.
    const ONE_SIDED: &[&str] = &[
        "admission.shed.*.reason",
        "admission.shed.*.route",
        "admission.shed_total",
        "avg_doc",
        "distinct_keywords",
        "exec.answer_cache.hit_rate",
        "exec.per_shard.*.mean_us",
        "exec.per_shard.*.p50_us",
        "exec.per_shard.*.p99_us",
        "exec.per_shard.*.total_us",
        "exec.topk_cache.hit_rate",
        "exec.workload.topk_p99_us_10s",
        "exec.workload.topk_rate_1m",
        "ingest.checkpoint_last_error",
        "ingest.epoch",
        "ingest.tombstones",
        "max_doc",
        "objects",
        "yask_build_info",
        "yask_route_p50_seconds",
        "yask_route_p99_seconds",
        "yask_route_rate",
    ];

    fn request(method: &str, path: &str, body: Option<Json>) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            query: String::new(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: body.map(|b| b.to_string().into_bytes()).unwrap_or_default(),
        }
    }

    /// A durable, paged, observatory-on service that has served a query,
    /// an explain and an insert — every block of both surfaces is live.
    fn exercised_service(wal: &std::path::Path) -> YaskService {
        let (corpus, vocab) = yask_data::hk_hotels();
        let config = ServiceConfig {
            exec: ExecConfig { resident_budget: Some(1 << 20), ..ExecConfig::default() },
            ..ServiceConfig::default()
        };
        let service = YaskService::with_wal(corpus, vocab, config, wal).unwrap();
        let post = |path: &str, body: Json| {
            let response = service.handle(&request("POST", path, Some(body)));
            assert_eq!(response.status, 200, "{path}");
            Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap()
        };
        let reply = post(
            "/query",
            Json::obj([
                ("x", Json::Num(114.172)),
                ("y", Json::Num(22.297)),
                ("keywords", Json::Arr(vec![Json::str("clean")])),
                ("k", Json::Num(3.0)),
            ]),
        );
        let top: Vec<&str> = reply.get("results").unwrap().as_array().unwrap().iter()
            .map(|r| r.get("name").unwrap().as_str().unwrap())
            .collect();
        let missing = service.corpus().iter().map(|o| o.name.clone())
            .find(|n| !top.contains(&n.as_str()))
            .unwrap();
        post(
            "/whynot/explain",
            Json::obj([
                ("session", reply.get("session").unwrap().clone()),
                ("missing", Json::Arr(vec![Json::str(missing)])),
            ]),
        );
        post(
            "/objects",
            Json::obj([
                ("x", Json::Num(114.1)),
                ("y", Json::Num(22.3)),
                ("name", Json::str("Drift Hotel")),
                ("keywords", Json::Arr(vec![Json::str("drift")])),
            ]),
        );
        service
    }

    fn at<'a>(stats: &'a Json, path: &str) -> Option<&'a Json> {
        path.split('.').try_fold(stats, |node, segment| match node {
            Json::Arr(items) => items.get(segment.parse::<usize>().ok()?),
            node => node.get(segment),
        })
    }

    fn json_type(j: &Json) -> &'static str {
        match j {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "num",
            Json::Str(_) => "str",
            Json::Arr(_) => "arr",
            Json::Obj(_) => "obj",
        }
    }

    /// A parsed exposition: `family → (type, help)` and every
    /// non-histogram series as `(family, sorted labels) → value`.
    #[derive(Default)]
    struct Exposition {
        families: BTreeMap<String, (String, String)>,
        label_keys: BTreeMap<String, BTreeSet<BTreeSet<String>>>,
        series: BTreeMap<(String, Vec<(String, String)>), f64>,
    }

    fn parse_exposition(text: &str) -> Exposition {
        let mut x = Exposition::default();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').unwrap();
                x.families.entry(name.into()).or_default().1 = help.into();
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').unwrap();
                x.families.entry(name.into()).or_default().0 = kind.into();
            } else {
                let (series, value) = line.rsplit_once(' ').unwrap();
                let (name, labels) = series.split_once('{').unwrap_or((series, ""));
                let mut labels: Vec<(String, String)> = labels
                    .trim_end_matches('}')
                    .split("\",")
                    .filter(|kv| !kv.is_empty())
                    .map(|kv| {
                        let (k, v) = kv.split_once("=\"").unwrap();
                        (k.to_owned(), v.trim_end_matches('"').to_owned())
                    })
                    .filter(|(k, _)| k != "le")
                    .collect();
                labels.sort();
                let family = ["_bucket", "_sum", "_count"]
                    .iter()
                    .filter_map(|suffix| name.strip_suffix(suffix))
                    .find(|base| x.families.get(*base).is_some_and(|f| f.0 == "histogram"))
                    .unwrap_or(name);
                x.label_keys
                    .entry(family.to_owned())
                    .or_default()
                    .insert(labels.iter().map(|(k, _)| k.clone()).collect());
                if family == name {
                    x.series.insert((name.to_owned(), labels), value.parse().unwrap());
                }
            }
        }
        x
    }

    /// (c) of the drift test, also run on the empty observation: nothing
    /// the parent commit exported is missing, retyped, relabelled or
    /// reworded.
    fn assert_golden_families(x: &Exposition) {
        for (family, kind, labels, help) in GOLDEN_FAMILIES {
            let (got_kind, got_help) = x.families.get(*family).unwrap_or_else(|| panic!("{family} missing"));
            assert_eq!((got_kind.as_str(), got_help.as_str()), (*kind, *help), "{family}");
            let want: BTreeSet<String> = labels.iter().map(|l| (*l).to_owned()).collect();
            for got in x.label_keys.get(*family).into_iter().flatten() {
                assert_eq!(got, &want, "{family} label keys");
            }
        }
    }

    /// One `observe()`, both folds: every two-named sample reads the same
    /// on `/stats` and `/metrics`, the one-sided samples are exactly
    /// [`ONE_SIDED`], and nothing in the golden lists went away.
    #[test]
    fn stats_and_metrics_are_two_views_of_one_sample_list() {
        let wal = std::env::temp_dir().join(format!("yask-drift-{}.wal", std::process::id()));
        let service = exercised_service(&wal);
        let observed = Observed {
            dataset: Some(yask_data::DatasetStats::of(&service.corpus())),
            ..service.observe()
        };
        let samples = describe(&observed);
        let stats = render_stats(&samples);
        let text = render_metrics(&samples, &observed);
        let summary = validate_exposition(&text).expect("exposition must validate");
        assert_eq!(summary.histograms, 8);
        let exposition = parse_exposition(&text);

        // (a) same value under both names.
        let mut both = 0;
        let mut one_sided = BTreeSet::new();
        for sample in &samples.samples {
            let family = sample.family.map(|i| samples.families[i].name);
            match (sample.path.as_str(), family) {
                ("", None) => panic!("a sample with no name at all"),
                ("", Some(family)) => drop(one_sided.insert(family.to_owned())),
                (path, None) => {
                    let generic: Vec<&str> = path
                        .split('.')
                        .map(|seg| if seg.parse::<usize>().is_ok() { "*" } else { seg })
                        .collect();
                    one_sided.insert(generic.join("."));
                }
                (path, Some(family)) => {
                    both += 1;
                    let on_stats = match at(&stats, path) {
                        Some(Json::Num(v)) => *v,
                        Some(Json::Bool(b)) => *b as u8 as f64,
                        other => panic!("{path}: {other:?} is not a number"),
                    };
                    let mut labels: Vec<(String, String)> =
                        sample.labels.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect();
                    labels.sort();
                    let on_metrics = exposition
                        .series
                        .get(&(family.to_owned(), labels))
                        .unwrap_or_else(|| panic!("{family}{:?} not exported", sample.labels));
                    assert_eq!(on_stats, *on_metrics, "{path} vs {family}{:?}", sample.labels);
                }
            }
        }
        assert!(both > 100, "only {both} samples carry both names");
        // The activity above is visible through either name.
        assert_eq!(at(&stats, "exec.queries"), Some(&Json::Num(1.0)));
        assert_eq!(at(&stats, "exec.batches"), Some(&Json::Num(1.0)));
        assert_eq!(exposition.series[&("yask_sessions_live".to_owned(), vec![])], 1.0);

        // (b) the one-sided samples are the declared ones, no more, no fewer.
        let declared: BTreeSet<String> = ONE_SIDED.iter().map(|s| (*s).to_owned()).collect();
        assert_eq!(one_sided, declared);

        // (c) the golden surface is a subset of what is rendered.
        assert_eq!((GOLDEN_STATS.len(), GOLDEN_FAMILIES.len()), (114, 82));
        for (path, kind) in GOLDEN_STATS {
            let got = at(&stats, path).unwrap_or_else(|| panic!("/stats lost {path}"));
            assert_eq!(json_type(got), *kind, "/stats {path}");
        }
        assert_golden_families(&exposition);
        // Absent blocks are `null`, not missing (a resident executor),
        // and the durable flag stays a bool.
        let bare = render_stats(&describe(&Observed::default()));
        assert_eq!(at(&bare, "exec.pager"), Some(&Json::Null));
        assert_eq!(at(&bare, "exec.workload.query_skew"), Some(&Json::Num(0.0)));
        assert_eq!(at(&bare, "ingest.durable"), Some(&Json::Bool(false)));
        assert_eq!(at(&bare, "ingest.checkpoint_last_error"), Some(&Json::Null));

        drop(service);
        for suffix in ["", ".ckpt", ".vocab"] {
            std::fs::remove_file(format!("{}{suffix}", wal.display())).ok();
        }
    }

    /// (d): the fully-empty observation — zero shards, nothing recorded — still declares every family. Zero-sample
    /// families render header-only rather than vanishing, so a scraper
    /// never sees one appear out of nowhere.
    #[test]
    fn empty_observation_declares_every_family() {
        let observed = Observed::default();
        let text = render_metrics(&describe(&observed), &observed);
        let summary = validate_exposition(&text).expect("exposition must validate");
        assert_eq!(summary.histograms, 8, "histogram families: {}", summary.histograms);
        assert_golden_families(&parse_exposition(&text));
        assert!(!text.contains("yask_shard_queries_total{"), "zero shards, yet a shard series");
        assert!(text.contains("yask_build_info{version="));
    }

    #[test]
    fn admission_counters_render_the_shed_grid() {
        use yask_exec::ShedCount;
        let observed = Observed {
            admission: AdmissionSnapshot {
                shed: vec![
                    ShedCount { route: "whynot", reason: "topk_p99", count: 3 },
                    ShedCount { route: "topk", reason: "accept", count: 2 },
                ],
                shed_total: 5,
                degraded_admits: 4,
                degraded_answers: 2,
                deadline_exceeded: 1,
            },
            ..Observed::default()
        };
        let samples = describe(&observed);
        let text = render_metrics(&samples, &observed);
        validate_exposition(&text).expect("exposition must validate");
        assert!(text.contains(r#"yask_shed_total{route="whynot",reason="topk_p99"} 3"#));
        assert!(text.contains(r#"yask_shed_total{route="topk",reason="accept"} 2"#));
        assert!(text.contains("yask_deadline_exceeded_total 1"));
        assert!(text.contains("yask_degraded_answers_total 2"));
        assert!(text.contains("yask_degraded_admits_total 4"));
        let stats = render_stats(&samples);
        assert_eq!(at(&stats, "admission.shed.0.route"), Some(&Json::str("whynot")));
        assert_eq!(at(&stats, "admission.shed.1.count"), Some(&Json::Num(2.0)));
        assert_eq!(at(&stats, "admission.shed_total"), Some(&Json::Num(5.0)));
    }

    #[test]
    fn workload_observatory_renders_windowed_gauges() {
        use yask_exec::WorkloadSnapshot;
        let observed = Observed {
            exec: ExecSnapshot {
                workload: WorkloadSnapshot {
                    query_heat: vec![8.0, 0.0],
                    write_heat: vec![0.0, 2.0],
                    query_touches: vec![8, 0],
                    write_touches: vec![0, 2],
                    query_skew: 2.0,
                    write_skew: 2.0,
                    ..Default::default()
                },
                queue_depth_max_1m: 7,
                ..Default::default()
            },
            uptime_seconds: 12.5,
            ..Observed::default()
        };
        let samples = describe(&observed);
        let text = render_metrics(&samples, &observed);
        validate_exposition(&text).expect("exposition must validate");
        // Every route appears at every horizon.
        for route in [
            "topk", "topk_hit", "whynot_explain", "whynot_preference", "whynot_keyword",
            "whynot_combined", "writes",
        ] {
            for window in ["1s", "10s", "1m"] {
                let needle = format!(r#"yask_route_rate{{route="{route}",window="{window}"}}"#);
                assert!(text.contains(&needle), "{needle} missing");
            }
        }
        assert!(text.contains(r#"yask_cell_query_heat{cell="0"} 8"#));
        assert!(text.contains(r#"yask_cell_write_heat{cell="1"} 2"#));
        assert!(text.contains(r#"yask_cell_query_touches_total{cell="0"} 8"#));
        assert!(text.contains("yask_query_heat_skew 2"));
        assert!(text.contains("yask_queue_depth_max_1m 7"));
        assert!(text.contains("yask_uptime_seconds 12.5"));
        let stats = render_stats(&samples);
        assert_eq!(at(&stats, "exec.workload.write_heat"), Some(&Json::Arr(vec![Json::Num(0.0), Json::Num(2.0)])));
    }
}
