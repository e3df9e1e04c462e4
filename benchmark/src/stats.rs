//! The harness's own arithmetic: exact-sample percentiles, a Zipf sampler
//! and a seeded Poisson arrival schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples beyond a percentile for it to be reported (choosing-metrics §1).
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Exact percentiles over a sample (no buckets): `q(0.99)` is the value at
/// rank `ceil(0.99·n)`.
pub struct Percentiles {
    sorted: Vec<f64>,
}

impl Percentiles {
    pub fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_unstable_by(f64::total_cmp);
        Percentiles { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `q`-quantile; 0 for an empty sample.
    pub fn q(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let rank = (q * n as f64).ceil() as usize;
        self.sorted[rank.clamp(1, n) - 1]
    }

    pub fn median(&self) -> f64 {
        self.q(0.5)
    }

    /// Whether at least [`MIN_SAMPLES_BEYOND`] samples lie beyond the
    /// `q`-quantile, i.e. whether it may be reported at all.
    pub fn supports(&self, q: f64) -> bool {
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        n >= rank + MIN_SAMPLES_BEYOND
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Percentiles::of(samples.to_vec()).median()
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Zipf over ranks `0..n`: `P(rank = r) ∝ 1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Due times (nanoseconds from the phase start) of a Poisson process at
/// `rate_per_s` over `seconds`: exponential gaps from a seeded generator,
/// so the same seed gives the same schedule.
pub fn poisson_schedule(rate_per_s: f64, seconds: f64, seed: u64) -> Vec<u64> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = seconds * 1e9;
    let mut due = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        // 1 − u ∈ (0, 1], so the logarithm is finite.
        t += -(1.0 - u).ln() / rate_per_s * 1e9;
        if t >= horizon {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_frequencies_follow_the_power_law() {
        let zipf = Zipf::new(1000, 1.1);
        let mut rng = StdRng::seed_from_u64(3);
        let draws = 200_000;
        let mut counts = vec![0usize; 1000];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let h: f64 = (1..=1000).map(|r| 1.0 / (r as f64).powf(1.1)).sum();
        for rank in [0usize, 1, 9, 99] {
            let expected = draws as f64 / ((rank + 1) as f64).powf(1.1) / h;
            let got = counts[rank] as f64;
            assert!(
                (got - expected).abs() < 0.1 * expected + 30.0,
                "rank {rank}: got {got}, expected {expected}"
            );
        }
        // Heavy head: the top 10 ranks carry more than a third of the draws.
        let head: usize = counts[..10].iter().sum();
        assert!(head * 3 > draws, "head share {head}/{draws}");
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate_and_repeats_per_seed() {
        let a = poisson_schedule(2000.0, 10.0, 42);
        let b = poisson_schedule(2000.0, 10.0, 42);
        let c = poisson_schedule(2000.0, 10.0, 43);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        // 20 000 expected arrivals, σ ≈ 141: ±3 % is > 4σ.
        let n = a.len() as f64;
        assert!((n - 20_000.0).abs() < 600.0, "{n} arrivals");
        assert!(*a.last().unwrap() < 10_000_000_000);
        // Exponential gaps: the mean gap is 1/rate and about 1/e of the
        // gaps exceed it.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean_gap = mean(&gaps);
        assert!(
            (mean_gap - 500_000.0).abs() < 25_000.0,
            "mean gap {mean_gap}"
        );
        let long = gaps.iter().filter(|&&g| g > 500_000.0).count() as f64 / gaps.len() as f64;
        assert!(
            (long - (-1.0f64).exp()).abs() < 0.02,
            "share of long gaps {long}"
        );
    }

    #[test]
    fn percentiles_are_exact_and_know_their_support() {
        let p = Percentiles::of((1..=1000).map(f64::from).collect());
        assert_eq!(p.median(), 500.0);
        assert_eq!(p.q(0.99), 990.0);
        assert_eq!(p.q(1.0), 1000.0);
        // 10 samples lie beyond rank 990 — exactly enough.
        assert!(p.supports(0.99));
        assert!(!p.supports(0.999));
        let small = Percentiles::of((1..=999).map(f64::from).collect());
        assert!(!small.supports(0.99), "999 samples leave 9 beyond p99");
        assert!(small.supports(0.5));
        assert_eq!(Percentiles::of(Vec::new()).q(0.5), 0.0);
        assert!(!Percentiles::of(Vec::new()).supports(0.5));
    }
}
