//! The YASK why-not engine — the paper's primary contribution.
//!
//! Given an initial spatial keyword top-k query `q` and a set `M` of
//! desired-but-missing objects, the engine answers the *why-not question*
//! three ways (paper §2.2, §3.3):
//!
//! * [`mod@explain`] — the **explanation generator**: why is each object of
//!   `M` missing (too far? weak keywords? just missed?), with its exact
//!   rank under `q`;
//! * [`pref`] — the **preference-adjusted** refined query (Definition 2):
//!   the `(k′, ~w′)` minimizing the penalty of Eqn (3) whose result
//!   contains all of `M`, found by mapping objects to segments in the
//!   weight plane and sweeping their intersection points with a
//!   rank-update argument (after reference \[5\]);
//! * [`keyword`] — the **keyword-adapted** refined query (Definition 3):
//!   the `(doc′, k′)` minimizing the penalty of Eqn (4), found by
//!   enumerating candidate keyword sets in edit-distance order (after
//!   reference \[6\]).
//!
//! Both refinements — and [`combined`], which chains them — read every
//! rank off one request table ([`SegmentSet`]): one pass over the corpus
//! under `q.loc` and the keyword universe `U = q.doc ∪ M.doc` records each
//! object's spatial part and keyword signature, which fixes its score
//! under any keywords inside `U` and any weights. No why-not module reads
//! an index tree; the R-tree serves top-k alone.
//!
//! [`engine::Yask`] packages all three behind one facade together with the
//! top-k engine, and [`session`] provides the query cache the demo server
//! keeps "until users give up asking follow-up why-not questions".
//!
//! Both refinement modules come with naive baselines
//! ([`pref::refine_preference_naive`], [`keyword::refine_keywords_naive`])
//! used for differential testing and for the speedup experiments E6/E8.

#![forbid(unsafe_code)]

pub mod combined;
pub(crate) mod common;
pub mod engine;
pub mod error;
pub mod explain;
pub mod keyword;
pub mod penalty;
pub mod pref;
pub mod session;

pub use combined::{refine_combined, refine_combined_on, CombineOrder, CombinedRefinement};
pub use common::request_table;
pub use engine::{RecommendedModel, WhyNotAnswer, Yask, YaskConfig};
pub use error::WhyNotError;
pub use explain::{explain, explain_given, Explanation, MissingReason};
pub use keyword::{
    refine_keywords, refine_keywords_naive, refine_keywords_on, KeywordRefinement, KeywordStats,
};
pub use penalty::{keyword_penalty, preference_penalty, PenaltyContext};
pub use pref::segment::SegmentSet;
pub use pref::{
    refine_preference, refine_preference_naive, refine_preference_with_segments,
    PreferenceRefinement,
};
pub use session::{Evictions, Session, SessionId, SessionStore, MAX_SESSIONS};
