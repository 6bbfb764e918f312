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
//! * [`ScoreParams`] — the scoring function plus the distance-only node
//!   bound the served search descends on,
//! * [`topk`] — the served top-k: the objects on the query keywords'
//!   posting lists, scored exactly, plus a keyword-free k-NN by the one
//!   best-first loop of §3.3, which the sharded executor runs per shard
//!   under a [`SharedBound`] and a deadline,
//! * [`view`] — experiment E5's bound views: the same loop under the
//!   KcR-tree's keyword bounds, read off an on-demand side table,
//! * [`bound`] — the [`SharedBound`] score certificate searches prune
//!   against,
//! * [`range`] — the viewport (range + posting-list filter) query,
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
pub mod view;

pub use bound::SharedBound;
pub use query::{Query, Weights};
pub use range::{range_keyword_scan, range_keyword_tree, MatchMode};
pub use scan::{rank_of_scan, ranks_of_scan, topk_scan};
pub use score::{RankedObject, ScoreParams};
pub use topk::{
    knn_bounded, merge_hybrid, merge_topk, postings_bound, topk_postings, topk_tree,
    topk_tree_bounded, topk_tree_with_stats, TraversalStats,
};
pub use view::topk_tree_with_view;
