//! Shared utilities for the YASK workspace.
//!
//! This crate is the lowest layer of the workspace and deliberately has no
//! dependencies. It provides the small, performance-sensitive building
//! blocks that the index, query and why-not layers lean on:
//!
//! * [`float`] — total ordering for `f64` scores ([`OrderedF64`]) plus
//!   tolerant float comparison helpers, so ranking code never has to deal
//!   with `PartialOrd` escape hatches.
//! * [`hash`] — an FxHash-style fast hasher ([`hash::FxHashMap`],
//!   [`hash::FxHashSet`]) used for small integer keys (keyword ids, node
//!   ids) where SipHash is measurably slow.
//! * [`heap`] — a bounded top-k max/min heap ([`heap::TopK`]) and scored
//!   priority-queue entries ([`heap::Scored`]) for best-first search.
//! * [`stats`] — streaming summary statistics and percentile helpers used
//!   by the benchmark harness.
//! * [`rng`] — a tiny deterministic RNG ([`rng::SplitMix64`],
//!   [`rng::Xoshiro256`]) and a Zipf sampler, so fixtures and datasets are
//!   reproducible without depending on `rand`'s version churn.
//! * [`epoch`] — an arc-swap-style snapshot cell ([`EpochCell`]) that the
//!   execution layer uses to publish whole engine epochs to readers.
//! * [`failpoint`] — a named fault-injection registry (error / delay /
//!   panic-once), compile-time no-op in release builds, used by the
//!   chaos test suite to certify crash and overload behaviour.

#![forbid(unsafe_code)]

pub mod epoch;
pub mod failpoint;
pub mod float;
pub mod hash;
pub mod heap;
pub mod rng;
pub mod stats;

pub use epoch::EpochCell;
pub use float::{approx_eq, approx_le, OrderedF64};
pub use hash::{FxHashMap, FxHashSet};
pub use heap::{Scored, TopK};
pub use rng::{SplitMix64, Xoshiro256, Zipf};
pub use stats::Summary;
