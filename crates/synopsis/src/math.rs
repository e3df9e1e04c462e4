//! Small numeric kernel: error function, normal CDF/quantile, Box–Muller
//! sampling. Implemented locally because the workspace builds offline from
//! vendored shims only (README, "Build, test, bench") and so pulls no stats
//! dependency.

use rand::{Rng, RngCore};

/// Error function, Abramowitz & Stegun 7.1.26 (max absolute error 1.5e-7,
/// far below the synopsis errors we measure against it).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Standard normal CDF `Φ`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// CDF of `N(mu, sigma²)`; degenerates to a step function for `sigma = 0`.
pub fn normal_cdf_at(x: f64, mu: f64, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return if x >= mu { 1.0 } else { 0.0 };
    }
    normal_cdf((x - mu) / sigma)
}

/// Standard normal sample via Box–Muller.
pub fn standard_normal(rng: &mut dyn RngCore) -> f64 {
    // Avoid u1 = 0 exactly.
    let u1: f64 = loop {
        let u = rng.gen::<f64>();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Inverts a monotone non-decreasing CDF by bisection on `[lo, hi]`.
/// Returns `x` with `cdf(x) ≈ q` up to `tol` in argument.
pub fn invert_cdf(cdf: impl Fn(f64) -> f64, q: f64, mut lo: f64, mut hi: f64, tol: f64) -> f64 {
    debug_assert!(lo <= hi);
    for _ in 0..200 {
        if hi - lo <= tol {
            break;
        }
        let mid = 0.5 * (lo + hi);
        if cdf(mid) < q {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erf_reference_values() {
        // Reference values from standard tables.
        for (x, want) in [
            (0.0, 0.0),
            (0.5, 0.5204998778),
            (1.0, 0.8427007929),
            (2.0, 0.9953222650),
        ] {
            assert!((erf(x) - want).abs() < 2e-7, "erf({x})");
            assert!((erf(-x) + want).abs() < 2e-7, "erf(-{x})");
        }
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn degenerate_sigma_is_step() {
        assert_eq!(normal_cdf_at(1.0, 2.0, 0.0), 0.0);
        assert_eq!(normal_cdf_at(2.0, 2.0, 0.0), 1.0);
    }

    #[test]
    fn box_muller_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn cdf_inversion_recovers_quantiles() {
        let x = invert_cdf(normal_cdf, 0.975, -10.0, 10.0, 1e-9);
        assert!((x - 1.96).abs() < 1e-2);
    }
}
