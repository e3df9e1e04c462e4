//! ε-sample synopses: fixed-size uniform samples.
//!
//! By the ε-sample theorem (Section 2, [53] / [17] in the paper) a uniform
//! sample of size `O(ε⁻² log φ⁻¹)` is, with probability `1 − φ`, an
//! ε-sample for the range space of axis-parallel rectangles: every
//! rectangle's mass in the sample deviates from its mass in the dataset by
//! at most ε. [`UniformSampleSynopsis`] is that synopsis; [`eps_sample_size`]
//! and [`sample_error_bound`] expose the size/error bookkeeping used by the
//! index builders.

use crate::{PercentileSynopsis, PrefSynopsis};
use dds_geom::{Point, Rect};
use rand::{Rng, RngCore};

/// Sample size sufficient for an ε-sample over rectangles with failure
/// probability φ: `ceil(C · ε⁻² · ln(2/φ))` with the constant `C = 0.5`
/// of the additive-Hoeffding form used per canonical rectangle.
pub fn eps_sample_size(eps: f64, phi: f64) -> usize {
    assert!(eps > 0.0 && eps <= 1.0, "eps must be in (0, 1]");
    assert!(phi > 0.0 && phi < 1.0, "phi must be in (0, 1)");
    (0.5 * (2.0 / phi).ln() / (eps * eps)).ceil() as usize
}

/// Inverse of [`eps_sample_size`]: the ε guaranteed by a sample of size `m`
/// with failure probability φ.
pub fn sample_error_bound(m: usize, phi: f64) -> f64 {
    assert!(m > 0, "empty sample has no error bound");
    assert!(phi > 0.0 && phi < 1.0, "phi must be in (0, 1)");
    (0.5 * (2.0 / phi).ln() / m as f64).sqrt().min(1.0)
}

/// A uniform sample of a dataset, used as a federated synopsis.
#[derive(Clone, Debug)]
pub struct UniformSampleSynopsis {
    sample: Vec<Point>,
    dim: usize,
    /// Size of the original dataset (needed for rank-scaled top-k scores).
    original_len: usize,
    /// Failure probability used for the advertised error bound.
    phi: f64,
}

impl UniformSampleSynopsis {
    /// Draws a with-replacement uniform sample of size `m` from `points`.
    ///
    /// # Panics
    /// Panics if `points` is empty or `m == 0`.
    pub fn from_points(points: &[Point], m: usize, phi: f64, rng: &mut dyn RngCore) -> Self {
        assert!(!points.is_empty(), "cannot sample an empty dataset");
        assert!(m > 0, "sample size must be positive");
        let dim = points[0].dim();
        let sample = (0..m)
            .map(|_| points[rng.gen_range(0..points.len())].clone())
            .collect();
        UniformSampleSynopsis {
            sample,
            dim,
            original_len: points.len(),
            phi,
        }
    }

    /// Size of the summarized dataset.
    pub fn original_len(&self) -> usize {
        self.original_len
    }
}

impl PercentileSynopsis for UniformSampleSynopsis {
    fn dim(&self) -> usize {
        self.dim
    }

    fn sample(&self, n: usize, rng: &mut dyn RngCore) -> Vec<Point> {
        (0..n)
            .map(|_| self.sample[rng.gen_range(0..self.sample.len())].clone())
            .collect()
    }

    fn mass(&self, r: &Rect) -> f64 {
        r.mass(&self.sample)
    }

    fn all_points(&self) -> Option<&[Point]> {
        Some(&self.sample)
    }

    fn percentile_delta(&self) -> Option<f64> {
        Some(sample_error_bound(self.sample.len(), self.phi))
    }

    fn memory_bytes(&self) -> usize {
        self.sample.len() * (self.dim * 8 + 24)
    }
}

impl PrefSynopsis for UniformSampleSynopsis {
    fn dim(&self) -> usize {
        self.dim
    }

    /// Rank-scaled estimate: the k-th largest of `n` original points sits at
    /// quantile `1 - k/n`; we read the corresponding order statistic of the
    /// sample.
    fn score(&self, v: &[f64], k: usize) -> f64 {
        if k == 0 || k > self.original_len {
            return f64::NEG_INFINITY;
        }
        let m = self.sample.len();
        let scaled = ((k as f64 / self.original_len as f64) * m as f64).round() as usize;
        let k_s = scaled.clamp(1, m);
        let mut scores: Vec<f64> = self.sample.iter().map(|p| p.dot(v)).collect();
        let (_, kth, _) = scores.select_nth_unstable_by(k_s - 1, |a, b| b.total_cmp(a));
        *kth
    }

    fn memory_bytes(&self) -> usize {
        self.sample.len() * (self.dim * 8 + 24)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn size_and_bound_are_inverse() {
        let eps = 0.1;
        let phi = 0.01;
        let m = eps_sample_size(eps, phi);
        assert!(sample_error_bound(m, phi) <= eps + 1e-9);
        // One fewer sample must not satisfy the bound (tightness).
        assert!(sample_error_bound(m.saturating_sub(2).max(1), phi) > eps - 0.05);
    }

    #[test]
    fn sample_mass_tracks_exact_mass() {
        let mut rng = StdRng::seed_from_u64(13);
        let points: Vec<Point> = (0..5000)
            .map(|_| Point::one(rng.gen_range(0.0..1.0)))
            .collect();
        let syn = UniformSampleSynopsis::from_points(&points, 2000, 0.01, &mut rng);
        let r = Rect::interval(0.25, 0.75);
        let exact = r.mass(&points);
        let approx = syn.mass(&r);
        assert!(
            (exact - approx).abs() < 0.05,
            "exact {exact} vs approx {approx}"
        );
        assert!(syn.percentile_delta().unwrap() < 0.05);
    }

    #[test]
    fn rank_scaled_score_is_close() {
        let mut rng = StdRng::seed_from_u64(29);
        let points: Vec<Point> = (0..4000)
            .map(|_| Point::one(rng.gen_range(0.0..1.0)))
            .collect();
        let syn = UniformSampleSynopsis::from_points(&points, 1500, 0.01, &mut rng);
        // k = 400 of 4000 → the 0.9 quantile ≈ 0.9 for uniform data.
        let est = PrefSynopsis::score(&syn, &[1.0], 400);
        assert!((est - 0.9).abs() < 0.05, "estimate {est}");
        // k beyond the original size can never match.
        assert_eq!(PrefSynopsis::score(&syn, &[1.0], 4001), f64::NEG_INFINITY);
    }
}
