//! Admission control and load shedding over the workload observatory.
//!
//! PR 8 gave the engine eyes — windowed queue depth, per-route latency
//! quantiles, per-cell heat with a skew ratio, and an overload verdict.
//! This module is the hand on the valve: every request is classified
//! into a [`Route`] and judged against the live [`Pressure`] sample
//! *before any work is queued*, producing an [`AdmitDecision`]:
//!
//! * **Admit** — run as usual.
//! * **Degrade** — run, but at a reduced deadline budget, and allow the
//!   server to satisfy the request from a cached (possibly stale-epoch)
//!   answer marked `degraded: true`. Top-k queries degrade before they
//!   shed — a slightly stale answer beats a 429 for a read — and
//!   queries into *hot cells* (cell heat far above the mean) degrade
//!   first, QDR-Tree-style: the flash crowd pays the budget cut, not
//!   the long tail.
//! * **Shed** — refuse with `429`/`503` + `Retry-After` before the
//!   request touches the pool. Expensive why-not refinements shed
//!   first (each holds a server thread for many rank counts), writes
//!   next, plain top-k last, and at the *critical* level the server
//!   sheds at the connection-accept boundary with a canned response.
//!
//! The controller is policy + counters only — it owns no queues and
//! takes no locks; one decision is a handful of atomic loads. The
//! shed/degraded/deadline counters it accumulates surface on `/stats`
//! and `/metrics` (`yask_shed_total{route,reason}` and friends).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::deadline::Deadline;

/// Request classes with distinct shedding priorities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Plain top-k queries — shed last (degrade first).
    TopK,
    /// Why-not refinements (all five modules) — the most expensive
    /// work per request, shed first.
    WhyNot,
    /// Object writes — shed only at the critical level.
    Write,
}

impl Route {
    /// Stable label for counters and metrics series.
    pub fn label(&self) -> &'static str {
        match self {
            Route::TopK => "topk",
            Route::WhyNot => "whynot",
            Route::Write => "write",
        }
    }

    fn index(&self) -> usize {
        match self {
            Route::TopK => 0,
            Route::WhyNot => 1,
            Route::Write => 2,
        }
    }
}

/// Why a request was shed, for the `reason` label of
/// `yask_shed_total` and the `Retry-After` response body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// Windowed pool queue depth over the limit.
    QueueDepth,
    /// Windowed top-k p99 over the limit.
    TopkP99,
    /// Shed at the connection-accept boundary (critical level).
    Accept,
}

impl ShedReason {
    /// Stable label for counters and metrics series.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueDepth => "queue_depth",
            ShedReason::TopkP99 => "topk_p99",
            ShedReason::Accept => "accept",
        }
    }

    fn index(&self) -> usize {
        match self {
            ShedReason::QueueDepth => 0,
            ShedReason::TopkP99 => 1,
            ShedReason::Accept => 2,
        }
    }
}

const ROUTES: [Route; 3] = [Route::TopK, Route::WhyNot, Route::Write];
const REASONS: [ShedReason; 3] = [
    ShedReason::QueueDepth,
    ShedReason::TopkP99,
    ShedReason::Accept,
];

/// A cheap point sample of the overload signals, taken per decision
/// (a few atomic loads — no histogram merges, no snapshot allocation).
#[derive(Clone, Copy, Debug, Default)]
pub struct Pressure {
    /// Highest pool queue depth any submit observed in the last minute.
    pub queue_depth_1m: usize,
    /// Top-k latency p99 over the last 10 s, in milliseconds.
    pub topk_p99_ms: f64,
    /// This query's STR-cell heat over the mean cell heat (1.0 =
    /// average; routes without a location report 1.0).
    pub hot_cell_ratio: f64,
}

/// How loaded the engine is, derived from a [`Pressure`] sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OverloadLevel {
    /// All signals under their limits.
    Normal,
    /// At least one signal over its limit: shed why-not, degrade top-k.
    Overloaded,
    /// Both signals over, or the queue at twice its limit: shed at the
    /// accept boundary, refuse writes.
    Critical,
}

/// Thresholds and budgets for admission decisions. The depth/latency
/// limits intentionally mirror the `/debug/health` overload verdict
/// (`ServiceConfig::overload`) so the operator sees the same numbers
/// flip the health surface and the valve.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Queue-depth limit (windowed max over the last minute).
    pub max_queue_depth: usize,
    /// Top-k p99 limit over the last 10 s.
    pub max_topk_p99: Duration,
    /// A query's cell is *hot* when its heat exceeds the mean cell heat
    /// by this factor; hot-cell queries run at the degraded budget even
    /// before the engine is overloaded.
    pub hot_cell_ratio: f64,
    /// Deadline budget for degraded admissions.
    pub degraded_budget: Duration,
    /// `Retry-After` seconds handed to shed clients.
    pub retry_after_secs: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_queue_depth: 128,
            max_topk_p99: Duration::from_millis(500),
            hot_cell_ratio: 8.0,
            degraded_budget: Duration::from_millis(100),
            retry_after_secs: 1,
        }
    }
}

/// The verdict for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Run as usual.
    Admit,
    /// Run under `deadline`; stale-epoch cached answers are acceptable
    /// and the response must carry `degraded: true` if one is served
    /// or the budget truncates the search.
    Degrade { deadline: Deadline },
    /// Refuse with `429` (route shed) or `503` (accept shed) and
    /// `Retry-After: retry_after_secs`.
    Shed {
        reason: ShedReason,
        retry_after_secs: u64,
    },
}

/// Policy + counters. Shared by the HTTP edge (accept-boundary
/// shedding, idle-timeout shrink) and the per-request admission check.
pub struct AdmissionController {
    config: AdmissionConfig,
    /// Shed counts, `[route][reason]`.
    shed: [[AtomicU64; 3]; 3],
    /// Requests admitted at the degraded budget.
    degraded_admits: AtomicU64,
    /// Responses served degraded (stale cache hit or truncated search).
    degraded_answers: AtomicU64,
    /// Requests that ran out of deadline budget (504s).
    deadline_exceeded: AtomicU64,
}

/// One `(route, reason, count)` cell of the shed counter grid.
#[derive(Clone, Copy, Debug)]
pub struct ShedCount {
    pub route: &'static str,
    pub reason: &'static str,
    pub count: u64,
}

/// Counter snapshot for `/stats` and `/metrics`.
#[derive(Clone, Debug, Default)]
pub struct AdmissionSnapshot {
    /// Every non-zero-capable `(route, reason)` cell, in fixed order.
    pub shed: Vec<ShedCount>,
    /// Total sheds across the grid.
    pub shed_total: u64,
    pub degraded_admits: u64,
    pub degraded_answers: u64,
    pub deadline_exceeded: u64,
}

impl AdmissionController {
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            shed: Default::default(),
            degraded_admits: AtomicU64::new(0),
            degraded_answers: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Classifies a pressure sample against the thresholds.
    pub fn level(&self, p: &Pressure) -> OverloadLevel {
        let depth_over = p.queue_depth_1m > self.config.max_queue_depth;
        let p99_over = p.topk_p99_ms > self.config.max_topk_p99.as_secs_f64() * 1e3;
        let depth_critical = p.queue_depth_1m > self.config.max_queue_depth.saturating_mul(2);
        if (depth_over && p99_over) || depth_critical {
            OverloadLevel::Critical
        } else if depth_over || p99_over {
            OverloadLevel::Overloaded
        } else {
            OverloadLevel::Normal
        }
    }

    /// The per-request admission check. Counts sheds; the caller maps
    /// `Shed` to 429/503 + `Retry-After` without queueing any work.
    pub fn decide(&self, route: Route, p: &Pressure) -> AdmitDecision {
        let level = self.level(p);
        let dominant = if p.queue_depth_1m > self.config.max_queue_depth {
            ShedReason::QueueDepth
        } else {
            ShedReason::TopkP99
        };
        match (route, level) {
            // Why-not refinements are the first load to drop.
            (Route::WhyNot, OverloadLevel::Overloaded | OverloadLevel::Critical) => {
                self.count_shed(route, dominant)
            }
            // Writes survive overload (they are cheap and durable) but
            // not the critical level.
            (Route::Write, OverloadLevel::Critical) => self.count_shed(route, dominant),
            (Route::Write, _) => AdmitDecision::Admit,
            // Top-k: degrade under overload, shed only when critical.
            (Route::TopK, OverloadLevel::Critical) => self.count_shed(route, dominant),
            (Route::TopK, OverloadLevel::Overloaded) => self.degrade(),
            // Hot-cell queries run on a budget even before overload:
            // the flash crowd is what *creates* the overload, so its
            // cells take the budget cut first.
            (Route::TopK, OverloadLevel::Normal)
                if p.hot_cell_ratio > self.config.hot_cell_ratio =>
            {
                self.degrade()
            }
            (_, OverloadLevel::Normal) => AdmitDecision::Admit,
        }
    }

    /// Should the HTTP edge refuse this connection before reading from
    /// it? True only at the critical level; counted per refused
    /// request under the `accept` reason.
    pub fn shed_at_accept(&self, p: &Pressure) -> bool {
        self.level(p) == OverloadLevel::Critical
    }

    /// Counts one accept-boundary shed (the edge could not know the
    /// route — it never read the request — so it lands on `TopK`,
    /// the least-shed route, keeping the grid honest about severity).
    pub fn count_accept_shed(&self) {
        self.shed[Route::TopK.index()][ShedReason::Accept.index()]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one degraded answer actually served (stale cache hit or
    /// deadline-truncated top-k flagged `degraded: true`). Why-not
    /// answers, result previews included, are exact or a 504 and never
    /// count.
    pub fn count_degraded_answer(&self) {
        self.degraded_answers.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request whose deadline expired (a 504).
    pub fn count_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    fn degrade(&self) -> AdmitDecision {
        self.degraded_admits.fetch_add(1, Ordering::Relaxed);
        AdmitDecision::Degrade {
            deadline: Deadline::after(self.config.degraded_budget),
        }
    }

    fn count_shed(&self, route: Route, reason: ShedReason) -> AdmitDecision {
        self.shed[route.index()][reason.index()].fetch_add(1, Ordering::Relaxed);
        AdmitDecision::Shed {
            reason,
            retry_after_secs: self.config.retry_after_secs,
        }
    }

    /// Counter snapshot for `/stats` and `/metrics`.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let mut shed = Vec::with_capacity(9);
        let mut total = 0;
        for route in ROUTES {
            for reason in REASONS {
                let count = self.shed[route.index()][reason.index()].load(Ordering::Relaxed);
                total += count;
                shed.push(ShedCount {
                    route: route.label(),
                    reason: reason.label(),
                    count,
                });
            }
        }
        AdmissionSnapshot {
            shed,
            shed_total: total,
            degraded_admits: self.degraded_admits.load(Ordering::Relaxed),
            degraded_answers: self.degraded_answers.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calm() -> Pressure {
        Pressure {
            queue_depth_1m: 0,
            topk_p99_ms: 1.0,
            hot_cell_ratio: 1.0,
        }
    }

    #[test]
    fn calm_traffic_is_admitted_everywhere() {
        let ac = AdmissionController::new(AdmissionConfig::default());
        for route in ROUTES {
            assert_eq!(ac.decide(route, &calm()), AdmitDecision::Admit);
        }
        assert!(!ac.shed_at_accept(&calm()));
        assert_eq!(ac.snapshot().shed_total, 0);
    }

    #[test]
    fn overload_sheds_whynot_first_and_degrades_topk() {
        let ac = AdmissionController::new(AdmissionConfig::default());
        let p = Pressure {
            queue_depth_1m: 200, // over 128, under 256
            ..calm()
        };
        assert_eq!(ac.level(&p), OverloadLevel::Overloaded);
        assert!(matches!(
            ac.decide(Route::WhyNot, &p),
            AdmitDecision::Shed {
                reason: ShedReason::QueueDepth,
                ..
            }
        ));
        assert!(matches!(
            ac.decide(Route::TopK, &p),
            AdmitDecision::Degrade { .. }
        ));
        assert_eq!(ac.decide(Route::Write, &p), AdmitDecision::Admit);
        let snap = ac.snapshot();
        assert_eq!(snap.shed_total, 1);
        assert_eq!(snap.degraded_admits, 1);
    }

    #[test]
    fn latency_overload_carries_its_own_reason() {
        let ac = AdmissionController::new(AdmissionConfig::default());
        let p = Pressure {
            topk_p99_ms: 750.0, // over the 500 ms limit
            ..calm()
        };
        assert!(matches!(
            ac.decide(Route::WhyNot, &p),
            AdmitDecision::Shed {
                reason: ShedReason::TopkP99,
                ..
            }
        ));
    }

    #[test]
    fn critical_level_sheds_everything_and_the_accept_boundary() {
        let ac = AdmissionController::new(AdmissionConfig::default());
        let both = Pressure {
            queue_depth_1m: 200,
            topk_p99_ms: 750.0,
            hot_cell_ratio: 1.0,
        };
        assert_eq!(ac.level(&both), OverloadLevel::Critical);
        let deep = Pressure {
            queue_depth_1m: 300, // > 2 × 128 alone
            ..calm()
        };
        assert_eq!(ac.level(&deep), OverloadLevel::Critical);
        for route in ROUTES {
            assert!(matches!(
                ac.decide(route, &both),
                AdmitDecision::Shed { .. }
            ));
        }
        assert!(ac.shed_at_accept(&both));
        ac.count_accept_shed();
        let snap = ac.snapshot();
        assert_eq!(snap.shed_total, 4);
        assert!(snap
            .shed
            .iter()
            .any(|c| c.reason == "accept" && c.count == 1));
    }

    #[test]
    fn hot_cells_degrade_before_the_engine_is_overloaded() {
        let ac = AdmissionController::new(AdmissionConfig::default());
        let hot = Pressure {
            hot_cell_ratio: 20.0,
            ..calm()
        };
        assert_eq!(ac.level(&hot), OverloadLevel::Normal);
        assert!(matches!(
            ac.decide(Route::TopK, &hot),
            AdmitDecision::Degrade { .. }
        ));
        // Hot cells never shed whole routes on their own.
        assert_eq!(ac.decide(Route::WhyNot, &hot), AdmitDecision::Admit);
        assert_eq!(ac.snapshot().degraded_admits, 1);
    }

    #[test]
    fn degraded_deadline_reflects_the_configured_budget() {
        let config = AdmissionConfig {
            degraded_budget: Duration::from_secs(5),
            ..AdmissionConfig::default()
        };
        let ac = AdmissionController::new(config);
        let hot = Pressure {
            hot_cell_ratio: 100.0,
            ..calm()
        };
        match ac.decide(Route::TopK, &hot) {
            AdmitDecision::Degrade { deadline } => {
                assert!(deadline.remaining() > Duration::from_secs(4));
                assert!(deadline.remaining() <= Duration::from_secs(5));
            }
            other => panic!("expected Degrade, got {other:?}"),
        }
    }

    #[test]
    fn counters_accumulate_by_route_and_reason() {
        let ac = AdmissionController::new(AdmissionConfig::default());
        let p = Pressure {
            queue_depth_1m: 200,
            ..calm()
        };
        for _ in 0..3 {
            let _ = ac.decide(Route::WhyNot, &p);
        }
        ac.count_degraded_answer();
        ac.count_deadline_exceeded();
        ac.count_deadline_exceeded();
        let snap = ac.snapshot();
        assert_eq!(snap.shed_total, 3);
        assert!(snap
            .shed
            .iter()
            .any(|c| c.route == "whynot" && c.reason == "queue_depth" && c.count == 3));
        assert_eq!(snap.degraded_answers, 1);
        assert_eq!(snap.deadline_exceeded, 2);
    }
}
