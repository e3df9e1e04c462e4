//! Per-dataset coreset construction shared by the Ptile builders.
//!
//! For each dataset the builders draw an ε-sample from its synopsis
//! (Algorithm 1 line 4 / Algorithm 3 line 4), build the coordinate grid of
//! canonical rectangles and compute rectangle weights `|ρ ∩ S_i| / |S_i|`
//! with a small orthogonal-counting structure (as in the paper's analysis,
//! Appendix C.2, which uses "an additional static range tree on `S_i` for
//! counting queries").
//!
//! ### Decoupling weights from the grid
//!
//! The paper uses one sample for both purposes; its size is forced down by
//! the `O(s^{2d})` canonical-rectangle blow-up, which makes the sampling
//! error ε the binding cost. We instead draw a *large* weight sample `S_i`
//! (error `ε_i^samp` from the ε-sample theorem) and build the grid from `s`
//! per-dimension **quantile coordinates** of that sample. Rectangle weights
//! stay exact w.r.t. the large sample; the only new error is grid
//! coarsening — the mass that fits between consecutive grid coordinates —
//! which is **measured exactly** on the sample and added to the dataset's
//! budget:
//!
//! `ε_i = ε_i^samp + Σ_h 2·(max mass strictly between adjacent grid
//! coordinates of dimension h)`.
//!
//! For any query `R`, the maximal grid rectangle `ρ ⊆ R` misses at most the
//! two boundary gaps per dimension, so `|w(ρ) − M_R(P_i)| ≤ ε_i`; all the
//! index guarantees go through with the per-dataset budget `ε_i + δ_i`
//! exactly as in the paper.

use super::PtileBuildParams;
use dds_geom::{CoordGrid, Point, Rect};
use dds_rangetree::{BuildableIndex, KdTree, OrthoIndex, Region};
use dds_synopsis::{eps_sample_size, sample_error_bound, PercentileSynopsis};
use rand::rngs::StdRng;

/// Cap on the weight-sample size (keeps per-dataset build cost bounded).
const MAX_WEIGHT_SAMPLE: usize = 512;

/// The sampled coreset of one dataset.
pub(crate) struct DatasetCoreset {
    /// The (multi)sample `S_i` (kept for weight counting).
    pub sample: Vec<Point>,
    /// Quantile-coordinate grid of the sample.
    pub grid: CoordGrid,
    /// Achieved error bound ε_i = sampling + measured grid coarsening
    /// (0 when the synopsis support was taken exactly and fits the grid).
    pub eps_i: f64,
}

/// Largest per-dimension coordinate count `s` with
/// `(s(s+1)/2)^d ≤ budget` — the grid resolution allowed by the rectangle
/// budget.
pub(crate) fn max_coords_for_budget(budget: usize, dim: usize) -> usize {
    debug_assert!(dim >= 1);
    let per_dim = (budget as f64).powf(1.0 / dim as f64).max(1.0);
    // Solve s(s+1)/2 <= per_dim.
    let s = ((8.0 * per_dim + 1.0).sqrt() - 1.0) / 2.0;
    (s.floor() as usize).max(1)
}

/// Per-dimension quantile coordinates: `s` evenly spaced order statistics
/// (always including the min, and the max when `s ≥ 2`). Returns the
/// selected coordinates and the maximum sample mass a query boundary can
/// miss: strictly between two adjacent selected coordinates, strictly below
/// the first or strictly above the last (the tails are empty unless
/// `s = 1`, which keeps only the min).
fn quantile_coords(sorted: &[f64], s: usize) -> (Vec<f64>, f64) {
    let m = sorted.len();
    debug_assert!(m >= 1);
    if m <= s {
        let mut coords = sorted.to_vec();
        coords.dedup();
        return (coords, 0.0);
    }
    let mut coords = Vec::with_capacity(s);
    for i in 0..s {
        let rank = (i as f64 * (m - 1) as f64 / (s - 1).max(1) as f64).round() as usize;
        coords.push(sorted[rank.min(m - 1)]);
    }
    coords.dedup();
    // Measured max gap: the largest count of sample values strictly between
    // adjacent selected coordinates, or strictly outside the extreme ones.
    let below = sorted.partition_point(|x| *x < coords[0]);
    let above = m - sorted.partition_point(|x| *x <= coords[coords.len() - 1]);
    let mut max_gap = below.max(above);
    for w in coords.windows(2) {
        let lo = sorted.partition_point(|x| *x <= w[0]);
        let hi = sorted.partition_point(|x| *x < w[1]);
        max_gap = max_gap.max(hi.saturating_sub(lo));
    }
    (coords, max_gap as f64 / m as f64)
}

/// Builds the coreset of one dataset.
pub(crate) fn build_coreset<S: PercentileSynopsis>(
    synopsis: &S,
    params: &PtileBuildParams,
    n_datasets: usize,
    rng: &mut StdRng,
) -> DatasetCoreset {
    let dim = synopsis.dim();
    let phi_i = (params.phi / params.phi_denominator(n_datasets) as f64).clamp(1e-12, 0.5);
    let m_desired = eps_sample_size(params.eps, phi_i).min(MAX_WEIGHT_SAMPLE);
    // Exact-support shortcut: taking all points of a small finite support
    // incurs zero sampling error (and makes the paper's toy examples exact).
    let (sample, eps_samp) = match synopsis.all_points() {
        Some(all) if all.len() <= m_desired => (all.to_vec(), 0.0),
        _ => (
            synopsis.sample(m_desired, rng),
            sample_error_bound(m_desired, phi_i),
        ),
    };
    // Grid resolution from the rectangle budget; coordinates are sample
    // quantiles, coarsening error measured exactly.
    let s_cap = max_coords_for_budget(params.max_rects_per_dataset, dim);
    let mut coords = Vec::with_capacity(dim);
    let mut gap_total = 0.0;
    for h in 0..dim {
        let mut xs: Vec<f64> = sample.iter().map(|p| p[h]).collect();
        xs.sort_unstable_by(|a, b| a.total_cmp(b));
        let (c, gap) = quantile_coords(&xs, s_cap);
        coords.push(c);
        gap_total += 2.0 * gap;
    }
    DatasetCoreset {
        grid: CoordGrid::from_coords(coords),
        sample,
        eps_i: eps_samp + gap_total,
    }
}

/// Weights `|ρ ∩ S_i| / |S_i|` for a batch of rectangles, via an
/// orthogonal-counting structure over the sample.
pub(crate) fn rect_weights(sample: &[Point], rects: &[Rect]) -> Vec<f64> {
    debug_assert!(!sample.is_empty());
    let dim = sample[0].dim();
    let n = sample.len() as f64;
    if dim == 1 {
        // Fast path: two binary searches per interval.
        let mut xs: Vec<f64> = sample.iter().map(|p| p[0]).collect();
        xs.sort_unstable_by(|a, b| a.total_cmp(b));
        return rects
            .iter()
            .map(|r| {
                let lo = xs.partition_point(|x| *x < r.lo_at(0));
                let hi = xs.partition_point(|x| *x <= r.hi_at(0));
                (hi - lo) as f64 / n
            })
            .collect();
    }
    let counter = KdTree::build(dim, sample.iter().map(|p| p.as_slice().to_vec()).collect());
    rects
        .iter()
        .map(|r| {
            let region = Region::closed(r.lo().to_vec(), r.hi().to_vec());
            counter.count(&region) as f64 / n
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_synopsis::ExactSynopsis;
    use rand::{Rng, SeedableRng};

    #[test]
    fn budget_cap_formula() {
        // d=1: s(s+1)/2 <= 4096 -> s = 90.
        assert_eq!(max_coords_for_budget(4096, 1), 90);
        // d=2: per-dim budget 64 -> s(s+1)/2 <= 64 -> s = 10.
        assert_eq!(max_coords_for_budget(4096, 2), 10);
        assert!(max_coords_for_budget(1, 3) >= 1);
        // The cap really bounds the rectangle count.
        for (budget, d) in [(100usize, 1usize), (1000, 2), (5000, 3)] {
            let s = max_coords_for_budget(budget, d);
            let count = (s * (s + 1) / 2).pow(d as u32);
            assert!(count <= budget, "budget {budget} d={d}: count {count}");
        }
    }

    #[test]
    fn quantile_coords_cover_extremes_and_measure_gaps() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (coords, gap) = quantile_coords(&xs, 11);
        assert_eq!(coords.first(), Some(&0.0));
        assert_eq!(coords.last(), Some(&99.0));
        assert_eq!(coords.len(), 11);
        // 10 windows over 100 points: ~9 strictly-between points each.
        assert!((gap - 0.09).abs() < 0.02, "gap {gap}");
        // Small inputs are taken whole.
        let (coords, gap) = quantile_coords(&[1.0, 2.0, 3.0], 10);
        assert_eq!(coords, vec![1.0, 2.0, 3.0]);
        assert_eq!(gap, 0.0);
    }

    #[test]
    fn one_coordinate_charges_the_mass_above_it() {
        // s = 1 keeps only the min; the three values above it are a tail
        // no grid rectangle can reach.
        let (coords, gap) = quantile_coords(&[0.0, 1.0, 1.0, 2.0], 1);
        assert_eq!(coords, vec![0.0]);
        assert_eq!(gap, 0.75);
        // At s = 2 the max is selected, so only the interior gap counts.
        let (coords, gap) = quantile_coords(&[0.0, 1.0, 1.0, 2.0], 2);
        assert_eq!(coords, vec![0.0, 2.0]);
        assert_eq!(gap, 0.5);
    }

    #[test]
    fn small_supports_are_taken_exactly() {
        let syn = ExactSynopsis::new(vec![Point::one(1.0), Point::one(7.0), Point::one(9.0)]);
        let mut rng = StdRng::seed_from_u64(1);
        let params = PtileBuildParams::exact_centralized();
        let cs = build_coreset(&syn, &params, 10, &mut rng);
        assert_eq!(cs.eps_i, 0.0);
        assert_eq!(cs.sample.len(), 3);
        assert_eq!(cs.grid.coords(0), &[1.0, 7.0, 9.0]);
    }

    #[test]
    fn large_supports_get_measured_budgets() {
        let pts: Vec<Point> = (0..100_000).map(|i| Point::one(i as f64)).collect();
        let syn = ExactSynopsis::new(pts);
        let mut rng = StdRng::seed_from_u64(2);
        let params = PtileBuildParams::default();
        let cs = build_coreset(&syn, &params, 100, &mut rng);
        assert!(cs.sample.len() <= MAX_WEIGHT_SAMPLE);
        assert!(cs.grid.coords(0).len() <= 90, "grid respects the budget");
        assert!(cs.eps_i > 0.0 && cs.eps_i < 1.0);
        // Budget = sampling + measured gaps; both parts should be modest.
        assert!(cs.eps_i < 0.35, "eps_i = {}", cs.eps_i);
    }

    #[test]
    fn grid_weight_error_is_within_budget() {
        // Empirical check of the coreset contract: for random query
        // intervals, |w(maximal grid rect) − M_R(P)| ≤ ε_i.
        let mut rng = StdRng::seed_from_u64(3);
        let pts: Vec<Point> = (0..20_000)
            .map(|_| Point::one(rng.gen_range(0.0f64..100.0).powf(1.3)))
            .collect();
        let syn = ExactSynopsis::new(pts.clone());
        let params = PtileBuildParams::default().with_rect_budget(496);
        let cs = build_coreset(&syn, &params, 50, &mut rng);
        let m = cs.sample.len() as f64;
        for _ in 0..200 {
            let a = rng.gen_range(0.0..300.0);
            let b = a + rng.gen_range(0.0..150.0);
            let r = Rect::interval(a, b);
            let truth = r.mass(&pts);
            let w = match cs.grid.maximal_rect_in(&r) {
                Some(rect) => rect.count_inside(&cs.sample) as f64 / m,
                None => 0.0,
            };
            assert!(
                (truth - w).abs() <= cs.eps_i + 1e-9,
                "R=[{a},{b}] truth={truth} w={w} eps_i={}",
                cs.eps_i
            );
        }
    }

    #[test]
    fn weights_match_direct_counting() {
        let sample = vec![
            Point::two(1.0, 1.0),
            Point::two(2.0, 2.0),
            Point::two(3.0, 3.0),
            Point::two(2.0, 2.0), // duplicate (with-replacement sampling)
        ];
        let rects = vec![
            Rect::from_bounds(&[0.0, 0.0], &[2.5, 2.5]),
            Rect::from_bounds(&[3.0, 3.0], &[3.0, 3.0]),
        ];
        let w = rect_weights(&sample, &rects);
        assert_eq!(w, vec![0.75, 0.25]);
    }
}
