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
//!   traversal statistics and an optional weaker bound view,
//! * [`scan`] — the exact linear-scan baseline and rank oracles,
//! * [`iter`] — incremental best-first enumeration (objects stream out in
//!   rank order), which the why-not engine uses to locate missing objects'
//!   ranks without fixing `k` in advance.
//!
//! Ranking is a *total* order: score descending, object id ascending on
//! ties. Every algorithm in the workspace (and every test comparing them)
//! uses this same order, which is what makes the why-not modules' rank
//! arithmetic exact.

#![forbid(unsafe_code)]

pub mod boolean;
pub mod iter;
pub mod query;
pub mod range;
pub mod scan;
pub mod score;
pub mod topk;

pub use boolean::{boolean_topk_scan, boolean_topk_tree};
pub use iter::IncrementalSearch;
pub use query::{Query, Weights};
pub use range::{range_keyword_scan, range_keyword_tree, MatchMode};
pub use scan::{rank_of_scan, ranks_of_scan, topk_scan};
pub use score::{RankedObject, ScoreParams};
pub use topk::{topk_tree, topk_tree_with_stats, topk_tree_with_view, TraversalStats};
