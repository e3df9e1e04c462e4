//! Orthogonal search substrate for distribution-aware dataset search.
//!
//! Section 2 of the paper assumes dynamic range trees with the interface
//! `Report(R, I)`, `ReportFirst(R, I)`, point insertion and deletion. The
//! paper's index structures (crate `dds-core`) lift rectangles and weights
//! into points of `R^{2d}`, `R^{4d}` or `R^{4md+m}` and only interact with
//! the search structure through that interface. The crate holds:
//!
//! * [`KdTree`] — the one orthogonal search backend, a frozen bounding-box
//!   kd-tree laid out for reading: one 64-byte arena record per node
//!   (header plus the node box as `f32`, rounded **outward** so pruning and
//!   whole-subtree acceptance stay sound while exact `f64` point tests
//!   decide everything else — answers are bit-identical to exact boxes,
//!   only pruning power is lost, and only on coordinates needing more than
//!   24 bits), the points row-major in tree order, and a `u32` label per
//!   point that a hit reports (the input index by default;
//!   [`KdTree::build_labeled`] stores the caller's). It supports `report`,
//!   `count` and the single-pass `report_while` the query loops of
//!   Algorithms 2 and 4 use. It substitutes for the literal multi-level
//!   range tree, whose `O(n log^{k−1} n)` space is not viable in the
//!   `4d + 2` lifted dimensions (ablation A2 measured a static range tree
//!   against it in 3-d; the README keeps the table).
//! * [`SortedScores`] / [`DynScores`] — the 1-dimensional structures used by
//!   the Pref index (Algorithms 5–6): threshold reporting over static or
//!   dynamic score sets.
//!
//! The orthogonal structures ([`OrthoIndex`]) are frozen after their build.
//! A [`report_while`](OrthoIndex::report_while) whose callback returns
//! `false` is `ReportFirst`. The paper deletes points only in the query loops of
//! Algorithms 2 and 4 (delete a reported dataset's points, keep querying,
//! re-insert them at the end); `dds-core` runs each loop as one filtered
//! `report_while` pass with a reported-dataset mask. It inserts points only
//! for Remark 1's dynamic synopses, which `dds-core` realizes one level up,
//! as a Bentley–Saxe log of frozen indexes over whole datasets
//! (`DynamicPtileIndex`).
//!
//! All query shapes are [`Region`]s: axis-parallel boxes with *per-bound
//! strictness*, because the paper's orthants mix closed and open bounds
//! (e.g. `R' = [R⁻,∞) × (−∞,R⁻) × (−∞,R⁺] × (R⁺,∞)` in Algorithm 4). A
//! region stores each strict bound as the equivalent closed one (`x > v` as
//! `x ≥ v.next_up()`), so every structure tests `lo ≤ x ≤ hi` alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod brute;
mod kdtree;
mod region;
mod scores;

pub use brute::BruteForce;
pub use kdtree::KdTree;
pub use region::Region;
pub use scores::{DynScores, SortedScores};

/// Read-only orthogonal search over a fixed point set. Item identifiers are
/// the indexes of the points in the build input (`0..n`), unless the
/// structure was built with caller-chosen labels ([`KdTree::build_labeled`]).
pub trait OrthoIndex {
    /// Number of points the structure was built over.
    fn len(&self) -> usize;

    /// True if the structure holds no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimension of the indexed points.
    fn dim(&self) -> usize;

    /// Appends the ids of all points inside `region` to `out`.
    fn report(&self, region: &Region, out: &mut Vec<usize>);

    /// Streaming filtered reporting: calls `f(id)` for every point inside
    /// `region`, stopping early when `f` returns `false` (stopping at the
    /// first call is the paper's `ReportFirst`). The default materializes
    /// `report`; backends override with a single-pass traversal.
    fn report_while(&self, region: &Region, f: &mut dyn FnMut(usize) -> bool) {
        let mut ids = Vec::new();
        self.report(region, &mut ids);
        for id in ids {
            if !f(id) {
                return;
            }
        }
    }

    /// Counts points inside `region`.
    fn count(&self, region: &Region) -> usize;
}

/// Indexes constructible from a batch of points.
pub trait BuildableIndex: OrthoIndex + Sized {
    /// Builds the index over `points` (row-major coordinates). Ids are
    /// assigned in input order: point `i` gets id `i`.
    fn build(dim: usize, points: Vec<Vec<f64>>) -> Self;
}
