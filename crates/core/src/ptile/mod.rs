//! Percentile-aware indexing (the Ptile problem, Sections 4 and Appendix C).
//!
//! | Type | Paper result | Predicate shape |
//! |------|--------------|-----------------|
//! | [`PtileThresholdIndex`] | Theorem 4.4 (Algorithms 1–2) | one `M_R(P) ≥ a_θ` |
//! | [`PtileRangeIndex`] | Theorem 4.11 (Algorithms 3–4) | one `M_R(P) ∈ [a_θ, b_θ]` |
//! | [`PtileMultiIndex`] | Theorem C.8 | conjunctions (and, via DNF, any logical expression) of `m` range predicates |
//! | [`ExactCPtile1D`] | Theorem C.5 | exact answers in `R¹` for a θ fixed at build time |
//! | [`DynamicPtileIndex`] | Remark 1 after Theorem 4.11 | range predicates with synopsis insertion/deletion: a Bentley–Saxe log of frozen [`PtileRangeIndex`] levels |
//!
//! All approximate structures share the guarantee shape: no false negatives
//! (with probability `1 − φ`), and every reported dataset satisfies the
//! predicate up to the additive [`slack`](PtileThresholdIndex::slack)
//! `2(ε + δ)`, where ε is the (per-build, measured) sampling error and δ
//! the synopsis error.

mod coreset;
mod dynamic;
mod exact1d;
mod multi;
mod params;
mod range;
mod routing;
mod threshold;

pub use dynamic::DynamicPtileIndex;
pub use exact1d::ExactCPtile1D;
pub use multi::{MultiQueryError, PtileMultiIndex};
pub use params::PtileBuildParams;
pub use range::PtileRangeIndex;
pub use routing::RoutingSynopsis;
pub use threshold::PtileThresholdIndex;
