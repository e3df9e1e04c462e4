//! Reusable per-query scratch state.
//!
//! Every read-only query path in this crate takes `&self` and keeps its
//! transient state — reported-dataset flags, degenerate-hit buffers, the
//! lifted query orthant, DNF accumulators and the per-call predicate
//! masks — in a [`QueryScratch`] instead of `self` or fresh heap
//! allocations. The convenience `query` methods create a scratch per call;
//! the `*_with` variants accept one from the caller, so a query loop (or a
//! worker thread of the batch APIs, via `dds_pool::par_map_with`) allocates
//! its buffers once and reuses them for every query.
//!
//! Scratch is *state, never input*: each query resets every field it reads
//! before use, so answers are independent of whatever ran on the scratch
//! before — the property that keeps the parallel batch APIs bit-identical
//! to sequential execution (pinned by `tests/batch_equivalence.rs`).

use crate::bitset::BitSet;
use dds_rangetree::Region;
use std::sync::Arc;

/// Reusable buffers for the `&self` query paths.
///
/// One scratch serves every index family (threshold, range, multi, the
/// mixed engine): fields are disjoint per concern and each query path
/// resets the ones it touches. Create one per query loop / worker thread:
///
/// ```
/// use dds_core::pool::BuildOptions;
/// use dds_core::ptile::{PtileBuildParams, PtileThresholdIndex};
/// use dds_core::scratch::QueryScratch;
/// use dds_geom::{Point, Rect};
/// use dds_synopsis::ExactSynopsis;
///
/// let synopses = vec![
///     ExactSynopsis::new(vec![Point::one(1.0), Point::one(7.0)]),
///     ExactSynopsis::new(vec![Point::one(4.0), Point::one(6.0)]),
/// ];
/// let index = PtileThresholdIndex::build_opts(
///     &synopses,
///     PtileBuildParams::exact_centralized(),
///     &BuildOptions::serial(),
/// );
/// let mut scratch = QueryScratch::new();
/// for lo in 0..5 {
///     // Identical answers to `index.query(..)`, no per-query buffers.
///     let hits = index.query_with(&Rect::interval(lo as f64, 8.0), 0.4, &mut scratch);
///     assert!(!hits.is_empty());
/// }
/// ```
#[derive(Clone, Debug)]
pub struct QueryScratch {
    /// Reported-dataset flags (replaces the per-query `vec![false; N]`).
    pub(crate) reported: BitSet,
    /// Id buffer for degenerate-band / empty-slab reporting.
    pub(crate) hits: Vec<usize>,
    /// The lifted query orthant, rebuilt in place per query.
    pub(crate) region: Region,
    /// Cross-clause dedup set for DNF loops.
    pub(crate) seen: BitSet,
    /// Clause intersection accumulator for DNF loops.
    pub(crate) acc: BitSet,
    /// The mixed engine's masks for one evaluation, one per distinct
    /// predicate of the query plan (emptied after every evaluation).
    pub(crate) masks: Vec<Arc<BitSet>>,
}

impl Default for QueryScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self {
            reported: BitSet::new(0),
            hits: Vec::new(),
            // `Region` has no empty constructor (dim >= 1); start at 1 and
            // let the first query `reset` it to the right arity.
            region: Region::all(1),
            seen: BitSet::new(0),
            acc: BitSet::new(0),
            masks: Vec::new(),
        }
    }

    /// Resets the reported flags to an empty universe of `n` datasets and
    /// clears the hit buffer — the common preamble of the leaf queries.
    pub(crate) fn reset_reported(&mut self, n: usize) {
        self.reported.reset(n);
        self.hits.clear();
    }
}
