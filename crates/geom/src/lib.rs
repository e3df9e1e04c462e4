//! Geometric substrate for distribution-aware dataset search.
//!
//! This crate provides the low-level geometry the paper's data structures are
//! built from (Section 2 of the paper):
//!
//! * [`Point`] — points in `R^d` with a small runtime dimension.
//! * [`Rect`] — axis-parallel hyper-rectangles, including orthants (one or
//!   both bounds at ±∞) and the strict-containment relation `⊂⊂` used by the
//!   range-predicate structure (Section 4.3).
//! * [`CoordGrid`] — the per-dimension coordinate sets induced by a sample,
//!   with predecessor/successor lookups, enumeration of all combinatorially
//!   different rectangles, maximal-rectangle queries and one-step expansions.
//! * [`EpsNet`] — a centrally symmetric ε-net of unit vectors on `S^{d-1}`
//!   (Section 2, used by the Pref structures of Section 5).
//!
//! Everything here is deterministic and allocation-conscious; the paper's
//! index structures (crate `dds-core`) compose these primitives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod epsnet;
mod grid;
mod point;
mod rect;

pub use epsnet::EpsNet;
pub use grid::CoordGrid;
pub use point::Point;
pub use rect::Rect;
