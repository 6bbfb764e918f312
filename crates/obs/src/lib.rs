//! # yask_obs — observability kernel
//!
//! Zero-dependency building blocks the engine uses to explain where its
//! own time goes:
//!
//! - [`hist`]: lock-free log-bucketed latency [`Histogram`]s (atomic
//!   buckets, ≤ ~1.6 % relative quantile error, mergeable
//!   [`HistogramSnapshot`]s yielding p50/p90/p99/p99.9).
//! - [`trace`]: per-query span [`Trace`]s collected into a bounded
//!   [`TraceLog`] ring with a top-N slow-query log.
//! - [`window`]: lock-free [`SlidingWindow`] aggregators (ring of
//!   epoch-stamped sub-windows) giving *recent* rates and p50/p99 over
//!   1 s / 10 s / 1 m horizons, plus a windowed high-water
//!   [`WindowedMax`].
//! - [`heat`]: exponentially-decayed per-cell [`HeatMap`]s (query/write
//!   touches per STR shard cell, skew ratio) and a Misra–Gries keyword
//!   [`TopKSketch`].
//! - [`prom`]: Prometheus text exposition writer ([`PromText`]) and the
//!   validating parser ([`validate_exposition`]) shared by tests and the
//!   CI smoke check.
//!
//! Everything here is `std`-only so the crate can sit under the query
//! hot path without pulling dependencies into `exec` or `ingest`.

#![forbid(unsafe_code)]

pub mod heat;
pub mod hist;
pub mod prom;
pub mod trace;
pub mod window;

pub use heat::{HeatMap, TopKSketch};
pub use hist::{Histogram, HistogramSnapshot};
pub use prom::{validate_exposition, ExpositionSummary, PromText};
pub use trace::{FinishedTrace, SpanRecord, Trace, TraceLog, NO_PARENT};
pub use window::{SlidingWindow, WindowSnapshot, WindowedMax};
