//! # YASK — a why-not question answering engine for spatial keyword queries
//!
//! A from-scratch Rust reproduction of *“YASK: A Why-Not Question
//! Answering Engine for Spatial Keyword Query Services”* (Chen, Xu,
//! Jensen, Li — PVLDB 9(13), VLDB 2016), including every substrate the
//! system depends on: the index (keyword posting lists and an R-tree; the
//! KcR-tree's keyword counts, which also give the SetR-tree's bounds, as
//! an on-demand side table), the spatial keyword top-k engine, the two why-not
//! refinement models (preference adjustment and keyword adaptation), the
//! explanation generator, a disk pager, and the browser–server web
//! service.
//!
//! This crate is a facade: it re-exports the public API of the workspace
//! crates and provides the [`prelude`]. See `README.md` for a tour and
//! `DESIGN.md` for the system inventory.
//!
//! ## Quick start
//!
//! ```
//! use yask::prelude::*;
//!
//! // The demo dataset: 539 Hong Kong hotels (deterministic stand-in).
//! let (corpus, vocab) = yask::data::hk_hotels();
//! let engine = Yask::with_defaults(corpus);
//!
//! // Carol's query: top-3 hotels near the conference venue described as
//! // "clean" and "comfortable" (paper Example 2).
//! let doc = KeywordSet::from_ids(
//!     ["clean", "comfortable"].iter().map(|w| vocab.lookup(w).unwrap()),
//! );
//! let q = Query::new(Point::new(114.172, 22.297), doc, 3);
//! let top = engine.top_k(&q);
//! assert_eq!(top.len(), 3);
//!
//! // Why is some other hotel missing? Ask, and get both refinements.
//! let missing = engine.corpus().iter().map(|o| o.id)
//!     .find(|id| !top.iter().any(|r| r.id == *id)).unwrap();
//! if let Ok(answer) = engine.answer(&q, &[missing]) {
//!     assert!(answer.preference.penalty <= 1.0);
//!     assert!(answer.keyword.penalty <= 1.0);
//! }
//! ```

#![forbid(unsafe_code)]

/// Shared utilities (ordered floats, fast hashing, heaps, RNG, stats).
pub use yask_util as util;

/// Observability kernel (latency histograms, span tracing, Prometheus
/// text exposition).
pub use yask_obs as obs;

/// Geometry substrate (points, rectangles, normalized space).
pub use yask_geo as geo;

/// Text substrate (vocabulary, keyword sets, similarity models).
pub use yask_text as text;

/// The index (the corpus with its keyword posting lists, and one R-tree).
pub use yask_index as index;

/// Disk substrate (page file, buffer pool, checkpoints, paged node arena).
pub use yask_pager as pager;

/// The spatial keyword top-k query engine.
pub use yask_query as query;

/// The why-not engine (explanations + both refinement models).
pub use yask_core as core;

/// The execution subsystem (sharding, scatter-gather, answer caches).
pub use yask_exec as exec;

/// The ingest subsystem (live updates: epochs, WAL, write routing).
pub use yask_ingest as ingest;

/// Datasets (HK hotels stand-in, synthetic workloads).
pub use yask_data as data;

/// The browser–server web service (HTTP + JSON).
pub use yask_server as server;

/// The commonly used types in one import.
pub mod prelude {
    pub use yask_core::{
        explain, refine_combined, refine_keywords, refine_preference, CombinedRefinement,
        Explanation, MissingReason, SessionStore, WhyNotError, Yask, YaskConfig,
    };
    pub use yask_exec::{ExecConfig, ExecSnapshot, Executor, ShardedIndex};
    pub use yask_geo::{Point, Rect, Space};
    pub use yask_ingest::{IngestError, Ingestor, NewObject, Update};
    pub use yask_index::{Corpus, CorpusBuilder, ObjectId, RTree, RTreeParams};
    pub use yask_query::{Query, RankedObject, ScoreParams, Weights};
    pub use yask_text::{KeywordId, KeywordSet, SimilarityModel, Vocabulary};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_compose() {
        let (corpus, _) = crate::data::hk_hotels();
        let engine = Yask::with_defaults(corpus);
        let q = Query::new(Point::new(114.17, 22.30), KeywordSet::from_raw([0, 1]), 5);
        assert_eq!(engine.top_k(&q).len(), 5);
    }
}
