//! The executor's workload observatory — *recent* behaviour per route,
//! and *where* the demand lands.
//!
//! PR 7's counters and histograms are all since-boot; this module adds
//! the time-local view those can't give — sliding-window rates and
//! quantiles per query route (1 s / 10 s / 1 m horizons), per-STR-cell
//! query/write heat with exponential decay, and a keyword-frequency
//! sketch. Everything is recorded inline on the hot paths with the same
//! lock-free discipline as the histograms (a handful of relaxed atomic
//! ops per sample; the keyword sketch takes one short mutex per query,
//! off the per-shard fan-out). The [`WorkloadSnapshot`] feeds
//! `/debug/health`, `/debug/heatmap` and the windowed `/metrics`
//! gauges, and is the load-bearing input for load shedding and
//! workload-aware cache admission (the roadmap item "replicated shards
//! and admission-controlled tiered caching") without committing to
//! those policies here.

use std::time::Duration;

use yask_obs::{HeatMap, SlidingWindow, TopKSketch, WindowSnapshot};

use crate::cache::WhyNotKind;

/// Horizons exported everywhere windows appear, in seconds.
pub const WINDOW_HORIZONS_SECS: [usize; 3] = [1, 10, 60];

/// How many keywords the hot-keyword sketch tracks (error ≤ total/65).
const KEYWORD_SKETCH_CAP: usize = 64;

/// How many hot keywords a snapshot reports.
const KEYWORD_TOP_N: usize = 16;

/// The live recording side, owned by the executor (one per process).
pub(crate) struct Workload {
    /// Uncached top-k compute latency.
    topk: SlidingWindow,
    /// Top-k cache-hit latency.
    topk_hit: SlidingWindow,
    /// Per-module why-not compute latency, indexed by `WhyNotKind as usize`.
    whynot: [SlidingWindow; 4],
    /// Whole write-batch publish latency.
    writes: SlidingWindow,
    /// Query touches per STR cell (top-k and why-not demand, cache hits
    /// included — the heat map tracks demand, not compute).
    query_heat: HeatMap,
    /// Write ops routed per STR cell.
    write_heat: HeatMap,
    /// Keyword frequencies across query keyword sets.
    keywords: TopKSketch,
}

impl Workload {
    pub(crate) fn new(cells: usize, heat_half_life: Duration) -> Workload {
        Workload {
            topk: SlidingWindow::standard(),
            topk_hit: SlidingWindow::standard(),
            whynot: std::array::from_fn(|_| SlidingWindow::standard()),
            writes: SlidingWindow::standard(),
            query_heat: HeatMap::new(cells, heat_half_life),
            write_heat: HeatMap::new(cells, heat_half_life),
            keywords: TopKSketch::new(KEYWORD_SKETCH_CAP),
        }
    }

    pub(crate) fn record_topk(&self, elapsed: Duration) {
        self.topk.record(elapsed);
    }

    pub(crate) fn record_topk_hit(&self, elapsed: Duration) {
        self.topk_hit.record(elapsed);
    }

    pub(crate) fn record_whynot(&self, kind: WhyNotKind, elapsed: Duration) {
        self.whynot[kind as usize].record(elapsed);
    }

    pub(crate) fn record_write(&self, elapsed: Duration) {
        self.writes.record(elapsed);
    }

    /// One query landed in `cell`; its keyword set feeds the sketch.
    pub(crate) fn record_query(&self, cell: usize, keyword_ids: &[u32]) {
        self.query_heat.record(cell);
        self.keywords.record_all(keyword_ids.iter().copied());
    }

    /// `ops` write operations were routed to `cell` by one batch.
    pub(crate) fn record_write_cell(&self, cell: usize, ops: usize) {
        if ops > 0 {
            self.write_heat.record_many(cell, ops as u64);
        }
    }

    /// Top-k compute p99 over the last 10 s, in nanoseconds — the cheap
    /// point read the admission check makes per request (one window
    /// fold, no full snapshot).
    pub(crate) fn topk_p99_10s_ns(&self) -> u64 {
        self.topk.snapshot(10).p99()
    }

    /// `cell`'s query heat over the mean cell heat (1.0 when idle or
    /// out of range) — the hot-cell admission signal.
    pub(crate) fn cell_heat_ratio(&self, cell: usize) -> f64 {
        let heats = self.query_heat.heats();
        if heats.is_empty() {
            return 1.0;
        }
        let mean = heats.iter().sum::<f64>() / heats.len() as f64;
        if mean <= f64::EPSILON {
            return 1.0;
        }
        heats.get(cell).copied().unwrap_or(0.0) / mean
    }

    pub(crate) fn snapshot(&self) -> WorkloadSnapshot {
        let query_heat = self.query_heat.heats();
        let write_heat = self.write_heat.heats();
        WorkloadSnapshot {
            topk: RouteWindows::of(&self.topk),
            topk_hit: RouteWindows::of(&self.topk_hit),
            whynot: std::array::from_fn(|i| RouteWindows::of(&self.whynot[i])),
            writes: RouteWindows::of(&self.writes),
            query_skew: HeatMap::skew_of(&query_heat),
            write_skew: HeatMap::skew_of(&write_heat),
            query_heat,
            write_heat,
            query_touches: self.query_heat.touches(),
            write_touches: self.write_heat.touches(),
            heat_half_life: self.query_heat.half_life(),
            hot_keywords: self.keywords.top(KEYWORD_TOP_N),
            keyword_total: self.keywords.total(),
        }
    }
}

/// One route's windowed aggregates at the three standard horizons.
#[derive(Clone, Debug, Default)]
pub struct RouteWindows {
    pub h1: WindowSnapshot,
    pub h10: WindowSnapshot,
    pub h60: WindowSnapshot,
}

impl RouteWindows {
    fn of(w: &SlidingWindow) -> RouteWindows {
        RouteWindows {
            h1: w.snapshot(WINDOW_HORIZONS_SECS[0]),
            h10: w.snapshot(WINDOW_HORIZONS_SECS[1]),
            h60: w.snapshot(WINDOW_HORIZONS_SECS[2]),
        }
    }

    /// The horizons with their exported label values, in a fixed order.
    pub fn iter_named(&self) -> [(&'static str, &WindowSnapshot); 3] {
        [("1s", &self.h1), ("10s", &self.h10), ("1m", &self.h60)]
    }
}

/// Point-in-time view of the observatory, carried on
/// [`crate::ExecSnapshot`].
#[derive(Clone, Debug, Default)]
pub struct WorkloadSnapshot {
    /// Uncached top-k compute latency windows.
    pub topk: RouteWindows,
    /// Top-k cache-hit latency windows.
    pub topk_hit: RouteWindows,
    /// Per-module why-not latency windows (see
    /// [`WorkloadSnapshot::whynot_named`] for the label order).
    pub whynot: [RouteWindows; 4],
    /// Write-batch publish latency windows.
    pub writes: RouteWindows,
    /// Decayed query touches per STR cell ("demand now").
    pub query_heat: Vec<f64>,
    /// Decayed write ops per STR cell.
    pub write_heat: Vec<f64>,
    /// Raw since-boot query touches per cell.
    pub query_touches: Vec<u64>,
    /// Raw since-boot write ops per cell.
    pub write_touches: Vec<u64>,
    /// Query-heat skew ratio: hottest cell / mean cell (0 when cold,
    /// 1 balanced, `cells` fully concentrated).
    pub query_skew: f64,
    /// Write-heat skew ratio, same scale.
    pub write_skew: f64,
    /// The decay half-life both heat maps use.
    pub heat_half_life: Duration,
    /// Top keywords by estimated frequency, count-descending.
    pub hot_keywords: Vec<(u32, u64)>,
    /// Total keyword occurrences the sketch has seen.
    pub keyword_total: u64,
}

impl WorkloadSnapshot {
    /// The why-not modules with their exported label values, in
    /// [`WhyNotKind::ALL`] order.
    pub fn whynot_named(&self) -> [(&'static str, &RouteWindows); 4] {
        WhyNotKind::ALL.map(|kind| (kind.label(), &self.whynot[kind as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_record_independently() {
        let w = Workload::new(4, Duration::from_secs(60));
        w.record_topk(Duration::from_micros(500));
        w.record_topk_hit(Duration::from_micros(3));
        w.record_whynot(WhyNotKind::Keyword, Duration::from_millis(2));
        w.record_write(Duration::from_millis(1));
        let s = w.snapshot();
        assert_eq!(s.topk.h60.count, 1);
        assert_eq!(s.topk_hit.h60.count, 1);
        assert_eq!(s.writes.h60.count, 1);
        let named = s.whynot_named();
        assert_eq!(named[2].0, "keyword");
        assert_eq!(named[2].1.h60.count, 1);
        assert_eq!(named[0].1.h60.count, 0);
        // The horizons nest: anything in 1 s is also in 10 s and 1 m.
        assert!(s.topk.h1.count <= s.topk.h10.count);
        assert!(s.topk.h10.count <= s.topk.h60.count);
    }

    #[test]
    fn heat_and_keywords_accumulate() {
        let w = Workload::new(4, Duration::from_secs(3600));
        for _ in 0..30 {
            w.record_query(2, &[7, 9]);
        }
        w.record_query(0, &[7]);
        w.record_write_cell(1, 5);
        w.record_write_cell(3, 0); // no-op
        let s = w.snapshot();
        assert_eq!(s.query_touches, vec![1, 0, 30, 0]);
        assert_eq!(s.write_touches, vec![0, 5, 0, 0]);
        assert!(s.query_skew > 3.0, "30/31 of demand in one of 4 cells");
        assert_eq!(s.write_skew, 4.0);
        assert_eq!(s.hot_keywords[0].0, 7);
        assert_eq!(s.hot_keywords[0].1, 31);
        assert_eq!(s.keyword_total, 61);
    }
}
