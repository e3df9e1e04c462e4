//! Approximate Ptile index for threshold predicates — Algorithms 1 and 2,
//! Theorem 4.4 (with the per-dataset error budgets of Remark 2).
//!
//! Construction (Algorithm 1): for every dataset draw an ε-sample `S_i`
//! from its synopsis, enumerate the canonical rectangles `R_i` of `S_i`,
//! and lift every rectangle `ρ` to the weighted point
//! `q_ρ = (ρ⁻, ρ⁺, w⁺) ∈ R^{2d+1}` where `w⁺ = w + ε_i + δ_i` folds the
//! dataset's own sampling error `ε_i` and synopsis error `δ_i` into the
//! weight `w = |ρ ∩ S_i| / |S_i|`. The paper's query-time subtraction
//! `a_θ − ε − δ` (Algorithm 2, line 1) is algebraically identical with
//! global errors and strictly sharper with heterogeneous ones: this is the
//! "per-dataset δ_i" refinement of Remark 2 with *known* budgets.
//!
//! Query (Algorithm 2): the orthant
//! `R' = ∏_h [R⁻_h, ∞) × ∏_h (−∞, R⁺_h] × [a_θ, ∞)` matches a lifted point
//! iff its rectangle fits inside `R` with weight at least
//! `a_θ − ε_i − δ_i`. Datasets whose combined budget reaches `a_θ` are
//! reported unconditionally (their sample may legitimately be empty inside
//! `R`). Where Algorithm 2 takes one point, deletes every lifted point of
//! its dataset and repeats, distinct dataset indexes are enumerated
//! output-sensitively with a single filtered traversal over points labelled
//! by their dataset and a reported-dataset mask: the same answers, with a
//! tree that never changes after the build.

use super::coreset::{build_coreset, rect_weights};
use super::PtileBuildParams;
use crate::pool::{par_map, BuildOptions};
use crate::scratch::QueryScratch;
use dds_geom::Rect;
use dds_rangetree::{KdTree, OrthoIndex, Region, SortedScores};
use dds_synopsis::PercentileSynopsis;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-dataset build output of Algorithm 1 (see `RangePart` in `range.rs`
/// for the merging discipline).
struct ThresholdPart {
    /// Lifted points, row-major in `R^{2d+1}`.
    lifted: Vec<f64>,
    eps_i: f64,
    delta_i: f64,
}

/// Approximate percentile-threshold index (Theorem 4.4).
#[derive(Clone, Debug)]
pub struct PtileThresholdIndex {
    dim: usize,
    n_datasets: usize,
    eps_max: f64,
    delta_max: f64,
    /// Per-dataset combined budget `ε_i + δ_i`.
    combined: Vec<f64>,
    /// The same budgets, ordered, for the degenerate-band lookup.
    degenerate: SortedScores,
    /// Lifted points in `R^{2d+1}` (last coordinate = `w + ε_i + δ_i`),
    /// each labelled with its dataset.
    tree: KdTree,
}

impl PtileThresholdIndex {
    /// Builds the index with a uniform synopsis error bound `params.delta`
    /// (Algorithm 1). Per-dataset work units run on `opts.threads` threads
    /// (caller included), with bit-identical results for every thread count;
    /// [`BuildOptions::serial`] builds on the calling thread.
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

    /// [`build_opts`](Self::build_opts) with *per-dataset* synopsis error
    /// bounds (`deltas[i] = δ_i`, Remark 2 with known budgets).
    ///
    /// # Panics
    /// Panics if `synopses` is empty, dimensions are inconsistent, or
    /// `deltas` (when given) has the wrong arity.
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

    /// One dataset's Algorithm-1 work unit; pure function of
    /// `(i, synopsis, params)` with a per-dataset RNG stream.
    fn dataset_part<S: PercentileSynopsis>(
        i: usize,
        syn: &S,
        deltas: Option<&[f64]>,
        params: &PtileBuildParams,
        n: usize,
    ) -> ThresholdPart {
        let dim = syn.dim();
        let mut rng = StdRng::seed_from_u64(params.dataset_seed(i));
        let cs = build_coreset(syn, params, n, &mut rng);
        let eps_i = super::params::effective_eps(cs.eps_i, params.eps_override);
        let delta_i = deltas.map_or(params.delta, |d| d[i]);
        let rects = cs.grid.enumerate_rects();
        let weights = rect_weights(&cs.sample, &rects);
        let mut lifted = Vec::with_capacity(rects.len() * (2 * dim + 1));
        for (rect, w) in rects.iter().zip(weights) {
            lifted.extend_from_slice(rect.lo());
            lifted.extend_from_slice(rect.hi());
            lifted.push(w + eps_i + delta_i);
        }
        ThresholdPart {
            lifted,
            eps_i,
            delta_i,
        }
    }

    /// Deterministic dataset-order merge (see `RangePart`).
    fn from_parts(dim: usize, parts: Vec<ThresholdPart>, threads: usize) -> Self {
        let n = parts.len();
        let lifted_dim = 2 * dim + 1;
        let mut lifted: Vec<f64> = Vec::new();
        let mut owner: Vec<u32> = Vec::new();
        let mut combined: Vec<f64> = Vec::with_capacity(n);
        let mut eps_max: f64 = 0.0;
        let mut delta_max: f64 = 0.0;
        for (i, mut part) in parts.into_iter().enumerate() {
            eps_max = eps_max.max(part.eps_i);
            delta_max = delta_max.max(part.delta_i);
            combined.push(part.eps_i + part.delta_i);
            owner.extend(std::iter::repeat_n(
                i as u32,
                part.lifted.len() / lifted_dim,
            ));
            lifted.append(&mut part.lifted);
        }
        let tree = KdTree::build_labeled(lifted_dim, lifted, owner, threads);
        let degenerate = SortedScores::build(&combined);
        PtileThresholdIndex {
            dim,
            n_datasets: n,
            eps_max,
            delta_max,
            combined,
            degenerate,
            tree,
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

    /// Worst-case query margin `max_i (ε_i + δ_i)`; per-dataset margins are
    /// folded into the structure and are usually smaller.
    pub fn margin(&self) -> f64 {
        self.combined.iter().fold(0.0f64, |a, &b| a.max(b))
    }

    /// Global guarantee band: every reported dataset `j` satisfies
    /// `M_R(P_j) ≥ a_θ − slack_for(j) ≥ a_θ − slack()` (Lemma 4.2 /
    /// Remark 2), with probability `1 − φ`; every dataset with
    /// `M_R(P_j) ≥ a_θ` is reported.
    pub fn slack(&self) -> f64 {
        2.0 * self.margin()
    }

    /// Per-dataset guarantee band `2(ε_j + δ_j)`.
    pub fn slack_for(&self, j: usize) -> f64 {
        2.0 * self.combined[j]
    }

    /// Number of lifted points `|Q| = Σ_i |R_i|` (space accounting, E8).
    pub fn lifted_points(&self) -> usize {
        self.tree.len()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes() + self.combined.len() * 8
    }

    /// Answers `Π = Pred_{M_R, [a_θ, 1]}` (Algorithm 2): returns dataset
    /// indexes, every qualifying dataset included, every reported dataset
    /// within its [`slack_for`](Self::slack_for) band.
    ///
    /// Read-only: the index can be shared (`&self`, e.g. behind an `Arc`)
    /// across query threads. Allocates a fresh [`QueryScratch`] per call;
    /// query loops should prefer [`query_with`](Self::query_with).
    pub fn query(&self, r: &Rect, a_theta: f64) -> Vec<usize> {
        self.query_with(r, a_theta, &mut QueryScratch::new())
    }

    /// [`query`](Self::query) with caller-provided scratch: identical
    /// answers, no per-query buffer allocations.
    pub fn query_with(&self, r: &Rect, a_theta: f64, scratch: &mut QueryScratch) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_cb_with(r, a_theta, scratch, &mut |j| out.push(j));
        out
    }

    /// Callback variant of [`query`](Self::query), used by the delay
    /// instrumentation (Remark 3): `f` is invoked once per reported index,
    /// in enumeration order.
    pub fn query_cb(&self, r: &Rect, a_theta: f64, f: &mut dyn FnMut(usize)) {
        self.query_cb_with(r, a_theta, &mut QueryScratch::new(), f)
    }

    /// [`query_cb`](Self::query_cb) with caller-provided scratch.
    pub fn query_cb_with(
        &self,
        r: &Rect,
        a_theta: f64,
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
        // Degenerate band, per dataset: when a_θ ≤ ε_i + δ_i the dataset is
        // within the guarantee band even if its sample misses R entirely.
        self.degenerate.report_at_least(a_theta, hits);
        for &j in hits.iter() {
            reported.insert(j);
            f(j);
        }
        self.orthant_into(r, a_theta, region);
        self.tree.report_while(region, &mut |j| {
            if reported.insert(j) {
                f(j);
            }
            true
        });
    }

    /// Writes the lifted orthant `R'` of Algorithm 2 line 1 plus the weight
    /// bound into a reused region buffer (per-dataset margins are already
    /// folded into the weight coordinate).
    fn orthant_into(&self, r: &Rect, w_lo: f64, region: &mut Region) {
        let d = self.dim;
        region.reset(2 * d + 1);
        for h in 0..d {
            region.set_lo(h, r.lo_at(h), false);
            region.set_hi(d + h, r.hi_at(h), false);
        }
        region.set_lo(2 * d, w_lo, false);
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

    fn exact_index() -> PtileThresholdIndex {
        PtileThresholdIndex::build_opts(
            &figure1_synopses(),
            PtileBuildParams::exact_centralized(),
            &BuildOptions::serial(),
        )
    }

    #[test]
    fn figure1() {
        // The running example of Section 4.2: R = [3, 8], θ = [0.2, 1]
        // must report both datasets (masses 1/3 and 2/4).
        let idx = exact_index();
        assert_eq!(idx.eps(), 0.0, "tiny supports are indexed exactly");
        let mut hits = idx.query(&Rect::interval(3.0, 8.0), 0.2);
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn threshold_excludes_low_mass_datasets() {
        let idx = exact_index();
        // θ = [0.4, 1]: only dataset 1 (mass 0.5) qualifies.
        let hits = idx.query(&Rect::interval(3.0, 8.0), 0.4);
        assert_eq!(hits, vec![1]);
        // θ = [0.6, 1]: nobody.
        assert!(idx.query(&Rect::interval(3.0, 8.0), 0.6).is_empty());
    }

    #[test]
    fn repeated_queries_are_stable() {
        // Repeated identical queries must be stable (shared-read path).
        let idx = exact_index();
        for _ in 0..5 {
            let mut hits = idx.query(&Rect::interval(3.0, 8.0), 0.2);
            hits.sort_unstable();
            assert_eq!(hits, vec![0, 1]);
        }
    }

    #[test]
    fn no_duplicates_in_output() {
        let idx = exact_index();
        let hits = idx.query(&Rect::interval(0.0, 20.0), 0.5);
        let mut dedup = hits.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(hits.len(), dedup.len());
    }

    #[test]
    fn tiny_threshold_reports_everything() {
        let idx = exact_index();
        // A query region containing no point at all, but a_θ = 0: the band
        // [a−slack, 1] admits every dataset, and the theorem only promises a
        // superset — report all.
        let mut hits = idx.query(&Rect::interval(500.0, 600.0), 0.0);
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn empty_region_with_real_threshold_reports_nothing() {
        let idx = exact_index();
        assert!(idx.query(&Rect::interval(500.0, 600.0), 0.2).is_empty());
    }

    #[test]
    fn per_dataset_deltas_shrink_bands_individually() {
        // Dataset 0 published a coarse synopsis (δ_0 = 0.3), dataset 1 a
        // sharp one (δ_1 = 0). θ = [0.4, 1] over R = [3, 8]:
        //  - dataset 0 (mass 1/3): its personal band reaches 0.4 − 0.3 →
        //    reported;
        //  - dataset 1 (mass 1/2 ≥ 0.4): reported outright, with a zero
        //    personal slack.
        let syns = figure1_synopses();
        let idx = PtileThresholdIndex::build_with_deltas_opts(
            &syns,
            Some(&[0.3, 0.0]),
            PtileBuildParams::exact_centralized(),
            &BuildOptions::serial(),
        );
        let mut hits = idx.query(&Rect::interval(3.0, 8.0), 0.4);
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
        assert!((idx.slack_for(0) - 0.6).abs() < 1e-12);
        assert_eq!(idx.slack_for(1), 0.0);
        // At a_θ = 0.81 neither the coarse budget (1/3 + 0.3) nor the sharp
        // dataset (0.5) reaches the bar.
        assert!(idx.query(&Rect::interval(3.0, 8.0), 0.81).is_empty());
        // With a *global* δ = 0.3 the sharp dataset would be dragged into
        // the widened answer of θ = [0.75, 1] (0.5 + 0.3 ≥ 0.75); with
        // per-dataset budgets it is not.
        let hits = idx.query(&Rect::interval(3.0, 8.0), 0.75);
        assert!(!hits.contains(&1), "sharp dataset must keep its tight band");
    }
}
