//! Approximate Ptile index for general range predicates — Algorithms 3
//! and 4, Theorem 4.11 (with the per-dataset error budgets of Remark 2).
//!
//! Unlike the threshold structure, a range predicate `θ = [a_θ, b_θ]` must
//! be decided against the **maximal** canonical rectangle inside the query
//! `R` (Figure 2 of the paper shows why any-rectangle matching
//! over-reports). Algorithm 3 therefore stores *pairs* `(ρ, ρ̂)` with no
//! canonical rectangle strictly between them, and Algorithm 4 searches for
//! pairs with `ρ ⊆ R ⊂⊂ ρ̂` — which forces `ρ` to be maximal (Lemma 4.5).
//!
//! Implementation notes:
//!
//! * Only pairs where `ρ̂` strictly contains `ρ` on every facet are ever
//!   matchable, and for grid rectangles the unique such canonical partner is
//!   the **one-step expansion** `ρ̂ = ∏_h [prev(ρ⁻_h), next(ρ⁺_h)]` — exactly
//!   the `ρ̂_R` built in Lemma 4.6. We therefore store one pair per
//!   rectangle (`|Q_i| = |R_i|`); `dds_geom::CoordGrid::is_canonical_pair`
//!   validates the equivalence against the paper's literal definition in
//!   tests. ±∞ expansion facets play the role of the paper's bounding-box
//!   projections `S̄_i`.
//! * Per-dataset error budgets `c_i = ε_i + δ_i` are folded into two weight
//!   coordinates, `w⁺ = w + c_i` (checked against `a_θ`) and `w⁻ = w − c_i`
//!   (checked against `b_θ`) — Remark 2 with known budgets; lifted points
//!   live in `R^{4d+2}`.
//! * When `a_θ ≤ c_i`, a dataset whose sample has no point in `R` (no
//!   canonical rectangle inside `R`) also qualifies. Per dimension `h` an
//!   auxiliary structure keeps *empty slabs* — triples
//!   `(c, next(c), c_i)` of consecutive coordinates plus the budget — and
//!   reports datasets with a slab strictly covering `R`'s `h`-extent and
//!   budget reaching `a_θ`. A dataset matches the auxiliary structures iff
//!   it has no canonical rectangle inside `R`, so main and auxiliary
//!   answers never overlap.

use super::coreset::{build_coreset, rect_weights};
use super::routing::{sorted_sample_axes, RoutingSynopsis};
use super::PtileBuildParams;
use crate::framework::Interval;
use crate::pool::{par_map, BuildOptions};
use crate::scratch::QueryScratch;
use dds_geom::Rect;
use dds_rangetree::{KdTree, OrthoIndex, Region};
use dds_synopsis::PercentileSynopsis;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-dataset build output: the lifted pair points, the per-dimension
/// empty-slab triples and the achieved budget. Computed independently per
/// dataset (own RNG stream), so datasets can build on worker threads in any
/// order and merge back deterministically.
struct RangePart {
    /// Lifted pairs, row-major (`4d + 2` coordinates each).
    lifted: Vec<f64>,
    /// `slabs[h]` = row-major `(lo, hi, ε_i + δ_i)` triples for dimension `h`.
    slabs: Vec<Vec<f64>>,
    eps_i: f64,
    delta_i: f64,
    /// Per-axis sorted weight-sample coordinates, feeding the build-wide
    /// [`RoutingSynopsis`]; `None` when the sample carries a `NaN`.
    axes: Option<Vec<Vec<f64>>>,
}

/// Approximate percentile-range index (Theorem 4.11).
///
/// ```
/// use dds_core::ptile::{PtileBuildParams, PtileRangeIndex};
/// use dds_core::framework::Interval;
/// use dds_core::pool::BuildOptions;
/// use dds_geom::{Point, Rect};
/// use dds_synopsis::ExactSynopsis;
///
/// // The paper's Section-4.3 running example.
/// let synopses = vec![
///     ExactSynopsis::new(vec![Point::one(1.0), Point::one(7.0), Point::one(9.0)]),
///     ExactSynopsis::new(vec![
///         Point::one(2.0), Point::one(4.0), Point::one(6.0), Point::one(10.0),
///     ]),
/// ];
/// let index = PtileRangeIndex::build_opts(
///     &synopses,
///     PtileBuildParams::exact_centralized(),
///     &BuildOptions::serial(),
/// );
/// // Between 20% and 40% of the points in [3, 8]: only the first dataset
/// // (mass 1/3); the second (mass 1/2) exceeds the upper bound.
/// let hits = index.query(&Rect::interval(3.0, 8.0), Interval::new(0.2, 0.4));
/// assert_eq!(hits, vec![0]);
/// ```
#[derive(Clone, Debug)]
pub struct PtileRangeIndex {
    dim: usize,
    n_datasets: usize,
    eps_max: f64,
    delta_max: f64,
    /// Per-dataset combined budget `ε_i + δ_i`.
    combined: Vec<f64>,
    max_combined: f64,
    /// Lifted pairs in `R^{4d+2}`: `(ρ⁻, ρ̂⁻, ρ⁺, ρ̂⁺, w⁺, w⁻)`, each
    /// labelled with its dataset — a hit *is* the dataset index.
    tree: KdTree,
    /// Per dimension: empty-slab triples `(c_j, c_{j+1}, ε_i + δ_i)`,
    /// labelled likewise.
    aux: Vec<KdTree>,
    /// Mass-bound synopsis over the weight samples, for the shard routing
    /// fast path; `None` when a sample coordinate was `NaN`.
    routing: Option<RoutingSynopsis>,
}

impl PtileRangeIndex {
    /// Builds the index (Algorithm 3 with one-step-expansion pairs) with a
    /// uniform synopsis error bound `params.delta`. Per-dataset work units
    /// run on `opts.threads` scoped threads, with bit-identical results for
    /// every thread count; [`BuildOptions::serial`] builds on the calling
    /// thread.
    ///
    /// # Panics
    /// Panics if `synopses` is empty or dimensions are inconsistent.
    pub fn build_opts<S: PercentileSynopsis + Sync>(
        synopses: &[S],
        params: PtileBuildParams,
        opts: &BuildOptions,
    ) -> Self {
        Self::build_with_deltas_opts(synopses, None, params, opts)
    }

    /// [`build_opts`](Self::build_opts) with per-dataset synopsis error
    /// bounds (`deltas[i] = δ_i`, Remark 2 with known budgets).
    ///
    /// # Panics
    /// Panics if `synopses` is empty, dimensions are inconsistent, or
    /// `deltas` has the wrong arity.
    pub fn build_with_deltas_opts<S: PercentileSynopsis + Sync>(
        synopses: &[S],
        deltas: Option<&[f64]>,
        params: PtileBuildParams,
        opts: &BuildOptions,
    ) -> Self {
        Self::check_build_inputs(synopses, deltas);
        let n = synopses.len();
        let params = &params;
        let parts = par_map(opts, synopses, |i, syn| {
            Self::dataset_part(i, syn, deltas, params, n)
        });
        Self::from_parts(synopses[0].dim(), parts, opts.threads)
    }

    fn check_build_inputs<S: PercentileSynopsis>(synopses: &[S], deltas: Option<&[f64]>) {
        assert!(!synopses.is_empty(), "repository must be non-empty");
        let dim = synopses[0].dim();
        assert!(
            synopses.iter().all(|s| s.dim() == dim),
            "synopses must share the schema dimension"
        );
        if let Some(d) = deltas {
            assert_eq!(d.len(), synopses.len(), "one delta per synopsis");
        }
    }

    /// One dataset's build work unit (Algorithm 3 lines 3–7): pure function
    /// of `(i, synopsis, params)` — its RNG is seeded per dataset, so the
    /// unit computes the same part on any thread in any order.
    fn dataset_part<S: PercentileSynopsis>(
        i: usize,
        syn: &S,
        deltas: Option<&[f64]>,
        params: &PtileBuildParams,
        n: usize,
    ) -> RangePart {
        let dim = syn.dim();
        let mut rng = StdRng::seed_from_u64(params.dataset_seed(i));
        let cs = build_coreset(syn, params, n, &mut rng);
        let eps_i = super::params::effective_eps(cs.eps_i, params.eps_override);
        let delta_i = deltas.map_or(params.delta, |d| d[i]);
        let c_i = eps_i + delta_i;
        let rects = cs.grid.enumerate_rects();
        let weights = rect_weights(&cs.sample, &rects);
        let mut lifted = Vec::with_capacity(rects.len() * (4 * dim + 2));
        for (rect, w) in rects.iter().zip(weights) {
            let hat = cs.grid.one_step_expansion(rect);
            lifted.extend_from_slice(rect.lo());
            lifted.extend_from_slice(hat.lo());
            lifted.extend_from_slice(rect.hi());
            lifted.extend_from_slice(hat.hi());
            lifted.push(w + c_i);
            lifted.push(w - c_i);
        }
        let mut slabs = vec![Vec::new(); dim];
        for (h, slabs_h) in slabs.iter_mut().enumerate() {
            for (lo, hi) in cs.grid.empty_slabs(h) {
                slabs_h.extend_from_slice(&[lo, hi, c_i]);
            }
        }
        let axes = sorted_sample_axes(dim, &cs.sample);
        RangePart {
            lifted,
            slabs,
            eps_i,
            delta_i,
            axes,
        }
    }

    /// Deterministic merge: parts are concatenated in dataset order, so the
    /// lifted array, its dataset labels and the aux structures match the
    /// serial build exactly regardless of which worker produced which part.
    fn from_parts(dim: usize, parts: Vec<RangePart>, threads: usize) -> Self {
        let n = parts.len();
        let lifted_dim = 4 * dim + 2;
        let mut lifted: Vec<f64> = Vec::new();
        let mut owner: Vec<u32> = Vec::new();
        let mut aux_points: Vec<Vec<f64>> = vec![Vec::new(); dim];
        let mut aux_owner: Vec<Vec<u32>> = vec![Vec::new(); dim];
        let mut combined: Vec<f64> = Vec::with_capacity(n);
        let mut eps_max: f64 = 0.0;
        let mut delta_max: f64 = 0.0;
        let mut sample_axes: Vec<Option<Vec<Vec<f64>>>> = Vec::with_capacity(n);
        for (i, mut part) in parts.into_iter().enumerate() {
            sample_axes.push(part.axes.take());
            eps_max = eps_max.max(part.eps_i);
            delta_max = delta_max.max(part.delta_i);
            combined.push(part.eps_i + part.delta_i);
            owner.extend(std::iter::repeat_n(
                i as u32,
                part.lifted.len() / lifted_dim,
            ));
            lifted.append(&mut part.lifted);
            for (h, mut slabs_h) in part.slabs.drain(..).enumerate() {
                aux_owner[h].extend(std::iter::repeat_n(i as u32, slabs_h.len() / 3));
                aux_points[h].append(&mut slabs_h);
            }
        }
        let tree = KdTree::build_labeled(lifted_dim, lifted, owner, threads);
        let aux = aux_points
            .into_iter()
            .zip(aux_owner)
            .map(|(pts, owner)| KdTree::build_labeled(3, pts, owner, threads))
            .collect();
        let max_combined = combined.iter().fold(0.0f64, |a, &b| a.max(b));
        let routing = RoutingSynopsis::from_sorted_samples(dim, &sample_axes);
        PtileRangeIndex {
            dim,
            n_datasets: n,
            eps_max,
            delta_max,
            combined,
            max_combined,
            tree,
            aux,
            routing,
        }
    }

    /// Schema dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed datasets `N`.
    pub fn n_datasets(&self) -> usize {
        self.n_datasets
    }

    /// Achieved sampling error ε (maximum over datasets).
    pub fn eps(&self) -> f64 {
        self.eps_max
    }

    /// Synopsis error bound δ (maximum over datasets).
    pub fn delta(&self) -> f64 {
        self.delta_max
    }

    /// Worst-case query margin `max_i (ε_i + δ_i)`.
    pub fn margin(&self) -> f64 {
        self.max_combined
    }

    /// The build's [`RoutingSynopsis`] — a sound upper bound on the
    /// fraction of any one dataset's weight sample inside a rectangle,
    /// consumed by the shard routing fast path. `None` when a sample
    /// coordinate was `NaN` (interval reasoning would be unsound).
    pub fn routing_synopsis(&self) -> Option<&RoutingSynopsis> {
        self.routing.as_ref()
    }

    /// Global guarantee band (Lemma 4.8 / Remark 2): every reported `j` has
    /// `a_θ − slack_for(j) ≤ M_R(P_j) ≤ b_θ + slack_for(j)` and
    /// `slack_for(j) ≤ slack()`.
    pub fn slack(&self) -> f64 {
        2.0 * self.max_combined
    }

    /// Per-dataset guarantee band `2(ε_j + δ_j)`.
    pub fn slack_for(&self, j: usize) -> f64 {
        2.0 * self.combined[j]
    }

    /// Number of lifted pair points.
    pub fn lifted_points(&self) -> usize {
        self.tree.len()
    }

    /// Heap footprint in bytes of the search structures: the lifted tree,
    /// the aux trees (arena, coordinates and labels each) and the
    /// per-dataset budgets.
    pub fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes()
            + self.aux.iter().map(KdTree::memory_bytes).sum::<usize>()
            + self.combined.len() * 8
    }

    /// Answers `Π = Pred_{M_R, θ}` for a general interval θ (Algorithm 4).
    ///
    /// Read-only: the index can be shared (`&self`, e.g. behind an `Arc`)
    /// across query threads. Allocates a fresh [`QueryScratch`] per call;
    /// query loops should prefer [`query_with`](Self::query_with).
    pub fn query(&self, r: &Rect, theta: Interval) -> Vec<usize> {
        self.query_with(r, theta, &mut QueryScratch::new())
    }

    /// [`query`](Self::query) with caller-provided scratch: identical
    /// answers, no per-query buffer allocations.
    pub fn query_with(&self, r: &Rect, theta: Interval, scratch: &mut QueryScratch) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_cb_with(r, theta, scratch, &mut |j| out.push(j));
        out
    }

    /// Callback variant of [`query`](Self::query) (delay instrumentation).
    pub fn query_cb(&self, r: &Rect, theta: Interval, f: &mut dyn FnMut(usize)) {
        self.query_cb_with(r, theta, &mut QueryScratch::new(), f)
    }

    /// [`query_cb`](Self::query_cb) with caller-provided scratch.
    pub fn query_cb_with(
        &self,
        r: &Rect,
        theta: Interval,
        scratch: &mut QueryScratch,
        f: &mut dyn FnMut(usize),
    ) {
        assert_eq!(r.dim(), self.dim, "query rectangle dimension mismatch");
        scratch.reset_reported(self.n_datasets);
        let QueryScratch {
            reported,
            hits,
            region,
            ..
        } = scratch;
        self.orthant_into(r, theta, region);
        self.tree.report_while(region, &mut |j| {
            if reported.insert(j) {
                f(j);
            }
            true
        });
        // Zero-mass corner case: datasets with no canonical rectangle inside
        // R qualify iff their personal band reaches 0, i.e. a_θ ≤ ε_i + δ_i.
        if theta.lo <= self.max_combined {
            for h in 0..self.dim {
                region.reset(3);
                region.set_hi(0, r.lo_at(h), true);
                region.set_lo(1, r.hi_at(h), true);
                region.set_lo(2, theta.lo, false);
                hits.clear();
                self.aux[h].report(region, hits);
                for &j in hits.iter() {
                    if reported.insert(j) {
                        f(j);
                    }
                }
            }
        }
    }

    /// The `R^{4d}` orthant of Algorithm 4 line 1 plus the weight bands:
    /// `ρ⁻ ≥ R⁻`, `ρ̂⁻ < R⁻`, `ρ⁺ ≤ R⁺`, `ρ̂⁺ > R⁺`, `w⁺ ≥ a_θ`,
    /// `w⁻ ≤ b_θ` (per-dataset margins pre-folded into `w±`), written into
    /// a reused region buffer.
    fn orthant_into(&self, r: &Rect, theta: Interval, region: &mut Region) {
        let d = self.dim;
        region.reset(4 * d + 2);
        for h in 0..d {
            region.set_lo(h, r.lo_at(h), false);
            region.set_hi(d + h, r.lo_at(h), true);
            region.set_hi(2 * d + h, r.hi_at(h), false);
            region.set_lo(3 * d + h, r.hi_at(h), true);
        }
        region.set_lo(4 * d, theta.lo, false);
        region.set_hi(4 * d + 1, theta.hi, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_geom::Point;
    use dds_synopsis::ExactSynopsis;

    fn figure1_synopses() -> Vec<ExactSynopsis> {
        vec![
            ExactSynopsis::new(vec![Point::one(1.0), Point::one(7.0), Point::one(9.0)]),
            ExactSynopsis::new(vec![
                Point::one(2.0),
                Point::one(4.0),
                Point::one(6.0),
                Point::one(10.0),
            ]),
        ]
    }

    fn exact_index() -> PtileRangeIndex {
        let idx = PtileRangeIndex::build_opts(
            &figure1_synopses(),
            PtileBuildParams::exact_centralized(),
            &BuildOptions::serial(),
        );
        assert_eq!(idx.eps(), 0.0);
        idx
    }

    #[test]
    fn figure3_running_example() {
        // Section 4.3 running example: R = [3, 8], θ = [0.2, 0.4].
        // S1's maximal interval is [7, 7] with weight 1/3 ∈ θ → report 0.
        // S2's maximal interval is [4, 6] with weight 2/4 > 0.4 → do not
        // report 1 (the threshold structure would, via [4, 4]).
        let idx = exact_index();
        let hits = idx.query(&Rect::interval(3.0, 8.0), Interval::new(0.2, 0.4));
        assert_eq!(hits, vec![0]);
    }

    #[test]
    fn figure2_maximality_guard() {
        // Figure 2 scenario: a dataset with a small-weight sub-rectangle
        // inside R must NOT be reported when its true mass exceeds b_θ.
        // Dataset: 10 points, 9 clustered in [5, 6], 1 at 2.0. R = [1, 7],
        // true mass = 1.0; θ = [0.0, 0.2]. The interval [2, 2] has weight
        // 0.1 ∈ θ but is not maximal.
        let mut pts = vec![Point::one(2.0)];
        pts.extend((0..9).map(|i| Point::one(5.0 + i as f64 * 0.1)));
        let syn = vec![ExactSynopsis::new(pts)];
        let idx = PtileRangeIndex::build_opts(
            &syn,
            PtileBuildParams::exact_centralized(),
            &BuildOptions::serial(),
        );
        assert_eq!(idx.eps(), 0.0);
        let hits = idx.query(&Rect::interval(1.0, 7.0), Interval::new(0.0, 0.2));
        assert!(hits.is_empty(), "non-maximal rectangle must not fire");
    }

    #[test]
    fn two_sided_band_excludes_high_mass() {
        let idx = exact_index();
        // θ = [0.4, 0.6]: only dataset 1 (mass 0.5).
        let hits = idx.query(&Rect::interval(3.0, 8.0), Interval::new(0.4, 0.6));
        assert_eq!(hits, vec![1]);
    }

    #[test]
    fn zero_band_reports_empty_datasets() {
        let idx = exact_index();
        // R = [2.5, 3.5] contains no point of S1 (mass 0) and none of S2
        // (mass 0). θ = [0, 0.1] must report both via the empty-slab path.
        let mut hits = idx.query(&Rect::interval(2.5, 3.5), Interval::new(0.0, 0.1));
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
        // Same R with θ = [0.2, 0.4]: nobody qualifies.
        assert!(idx
            .query(&Rect::interval(2.5, 3.5), Interval::new(0.2, 0.4))
            .is_empty());
    }

    #[test]
    fn zero_band_does_not_double_report() {
        let idx = exact_index();
        // R = [3, 8] with θ = [0, 1]: both datasets have mass > 0 and must
        // appear exactly once (main structure), not again via aux.
        let mut hits = idx.query(&Rect::interval(3.0, 8.0), Interval::new(0.0, 1.0));
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn repeated_queries_are_stable() {
        let idx = exact_index();
        for _ in 0..5 {
            let hits = idx.query(&Rect::interval(3.0, 8.0), Interval::new(0.2, 0.4));
            assert_eq!(hits, vec![0]);
        }
    }

    #[test]
    fn threshold_queries_work_via_range_structure() {
        let idx = exact_index();
        let mut hits = idx.query(&Rect::interval(3.0, 8.0), Interval::new(0.2, 1.0));
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn query_boundary_on_sample_coordinates() {
        // Query facets exactly on data coordinates: the strict bounds on
        // ρ̂ keep maximality decisions exact.
        let idx = exact_index();
        // R = [4, 6] over S2: maximal interval [4, 6], weight 0.5.
        let hits = idx.query(&Rect::interval(4.0, 6.0), Interval::new(0.45, 0.55));
        assert_eq!(hits, vec![1]);
        // S1 has no point in [4, 6] → only reported when 0 is in the band.
        let mut zero = idx.query(&Rect::interval(4.0, 6.0), Interval::new(0.0, 0.1));
        zero.sort_unstable();
        assert_eq!(zero, vec![0]);
    }

    #[test]
    fn per_dataset_deltas_two_sided() {
        // Coarse synopsis for dataset 0 (δ = 0.2), sharp for dataset 1.
        // θ = [0.5, 0.52] over R = [3, 8]: masses are 1/3 and 1/2.
        //  - dataset 0: band [0.3, 0.72] ∋ 1/3 → reported;
        //  - dataset 1: band [0.5, 0.52] ∋ 1/2 → reported.
        let idx = PtileRangeIndex::build_with_deltas_opts(
            &figure1_synopses(),
            Some(&[0.2, 0.0]),
            PtileBuildParams::exact_centralized(),
            &BuildOptions::serial(),
        );
        let mut hits = idx.query(&Rect::interval(3.0, 8.0), Interval::new(0.5, 0.52));
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
        // θ = [0.52, 0.6]: dataset 1's sharp weight (0.5) misses the bar;
        // dataset 0's budget-lifted weight (1/3 + 0.2 ≈ 0.533) clears it.
        let hits = idx.query(&Rect::interval(3.0, 8.0), Interval::new(0.52, 0.6));
        assert_eq!(hits, vec![0]);
        assert_eq!(idx.slack_for(1), 0.0);
    }
}
