//! The spatial keyword top-k query engine of YASK (paper §2.1, §3.3).
//!
//! A spatial keyword top-k query `q = (loc, doc, k, ~w)` retrieves the `k`
//! objects maximizing
//!
//! ```text
//! ST(o, q) = ws · (1 − SDist(o, q)) + wt · TSim(o, q)        (Eqn 1)
//! ```
//!
//! with `SDist` the normalized Euclidean distance and `TSim` the Jaccard
//! similarity (Eqn 2) by default. This crate provides:
//!
//! * [`Query`] / [`Weights`] — query parameters with the paper's
//!   `ws + wt = 1` invariant,
//! * [`ScoreParams`] — the scoring function plus node-level upper/lower
//!   bounds from a KcR-tree node's keyword counts,
//! * [`topk`] — the best-first priority-queue algorithm of §3.3, with
//!   traversal statistics and an optional weaker bound view; the same
//!   loop serves the sharded executor under a [`SharedBound`] and a
//!   deadline,
//! * [`bound`] — the [`SharedBound`] score certificate searches prune
//!   against,
//! * [`range`] — the viewport (range + keyword filter) query,
//! * [`scan`] — the exact linear-scan baseline and rank oracles.
//!
//! Ranking is a *total* order: score descending, object id ascending on
//! ties. Every algorithm in the workspace (and every test comparing them)
//! uses this same order, which is what makes the why-not modules' rank
//! arithmetic exact.

#![forbid(unsafe_code)]

pub mod bound;
pub mod query;
pub mod range;
pub mod scan;
pub mod score;
pub mod topk;

pub use bound::SharedBound;
pub use query::{Query, Weights};
pub use range::{range_keyword_scan, range_keyword_tree, MatchMode};
pub use scan::{rank_of_scan, ranks_of_scan, topk_scan};
pub use score::{RankedObject, ScoreParams};
pub use topk::{
    topk_tree, topk_tree_bounded, topk_tree_with_stats, topk_tree_with_view, TraversalStats,
};
