//! Datasets for YASK.
//!
//! The demonstration uses "a small and focussed data set containing hotels
//! in Hong Kong … crawled from booking.com and contains some 539 hotels"
//! whose keywords were "extracted from the facilities and user comments"
//! (paper §4). That crawl is not redistributable, so [`hk`] provides a
//! **deterministic stand-in**: 539 synthetic hotels whose locations follow
//! a mixture of Gaussians centred on real Hong Kong districts and whose
//! keyword sets are Zipf-skewed draws from a 110-term facility/comment
//! vocabulary with per-district biases (see DESIGN.md §3 for why this
//! preserves the behaviour the algorithms care about).
//!
//! [`synth`] scales the same recipe to arbitrary sizes for the
//! performance sweeps, and adds workload helpers (random queries, missing
//! object selection). [`stats`] summarizes a dataset the way experiment
//! E13 reports it.

#![forbid(unsafe_code)]

pub mod hk;
pub mod stats;
pub mod synth;
pub mod vocabularies;

pub use hk::{hk_hotels, HK_HOTEL_COUNT, HK_SEED};
pub use stats::DatasetStats;
pub use synth::{gen_queries, gen_selective_queries, pick_missing, SpatialDistribution,
                SynthConfig};
