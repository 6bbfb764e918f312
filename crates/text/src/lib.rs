//! Text substrate for YASK.
//!
//! Objects and queries carry *keyword sets* (`o.doc`, `q.doc` in the
//! paper). This crate provides:
//!
//! * [`Vocabulary`] — string interning: every distinct keyword string maps
//!   to a dense [`KeywordId`], so sets are integer sets from here up.
//! * [`KeywordSet`] — an immutable sorted set of keyword ids with the set
//!   algebra (intersection/union sizes, edit distance) that the Jaccard
//!   model (Eqn (2)) and the keyword-adaptation penalty (Eqn (4)) need.
//! * [`similarity`] — Jaccard plus the alternative set-similarity models
//!   the paper's footnote 1 alludes to (Dice, overlap, cosine).
//! * [`tokenizer`] — the keyword extraction used when loading raw text
//!   (lower-casing, punctuation splitting, stopword removal, dedup).

#![forbid(unsafe_code)]

pub mod keyword_set;
pub mod similarity;
pub mod tokenizer;
pub mod vocab;

pub use keyword_set::KeywordSet;
pub use similarity::SimilarityModel;
pub use tokenizer::tokenize;
pub use vocab::{KeywordId, Vocabulary};
