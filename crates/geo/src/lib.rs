//! Geometry substrate for YASK.
//!
//! The paper's ranking function (Eqn (1)) uses a *normalized* Euclidean
//! distance `SDist(o, q) ∈ [0, 1]`. This crate provides:
//!
//! * [`Point`] — a 2-D point with Euclidean distance,
//! * [`Rect`] — an axis-aligned rectangle (R-tree MBR) with min/max
//!   point-distance and the usual area/overlap algebra,
//! * [`Space`] — the data-space bounding box that turns raw distances into
//!   the normalized `SDist` used everywhere above this crate.
//!
//! All types are plain `Copy` data; nothing here allocates.

#![forbid(unsafe_code)]

pub mod point;
pub mod rect;
pub mod space;

pub use point::Point;
pub use rect::Rect;
pub use space::Space;
