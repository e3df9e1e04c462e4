//! Empirical synopsis-error estimation.
//!
//! The paper treats the synopsis error δ as given (`Err_{S_{P_i}}(F) ≤ δ`).
//! For real synopses we *measure* it: probe random measure functions from
//! the class and take the worst observed deviation against the raw data.
//! Experiment E11 sweeps histogram resolution and shows the end-to-end
//! ε + 2δ band tracking this measured δ.

use crate::PercentileSynopsis;
use dds_geom::{Point, Rect};
use dds_pool::{mix_seed, par_map, BuildOptions};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Draws a random axis-parallel rectangle whose corners are data points
/// (plus jitter), a standard adversarial family for percentile probes.
fn random_rect(points: &[Point], rng: &mut dyn RngCore) -> Rect {
    let d = points[0].dim();
    let a = &points[rng.gen_range(0..points.len())];
    let b = &points[rng.gen_range(0..points.len())];
    let mut lo = Vec::with_capacity(d);
    let mut hi = Vec::with_capacity(d);
    for h in 0..d {
        let (l, u) = if a[h] <= b[h] {
            (a[h], b[h])
        } else {
            (b[h], a[h])
        };
        let jitter = (u - l).abs() * 0.01 + 1e-9;
        lo.push(l - rng.gen_range(0.0..jitter));
        hi.push(u + rng.gen_range(0.0..jitter));
    }
    Rect::from_bounds(&lo, &hi)
}

/// Estimates `Err_{S_P}(F_□^d) = max_R |M_R(P) − M_R(S_P)|` by probing
/// `trials` random rectangles. A lower bound on the true sup-error; grows
/// towards it with more trials.
pub fn estimate_percentile_error<S: PercentileSynopsis + ?Sized>(
    synopsis: &S,
    data: &[Point],
    trials: usize,
    rng: &mut dyn RngCore,
) -> f64 {
    assert!(!data.is_empty(), "need raw data to measure against");
    let mut worst: f64 = 0.0;
    for _ in 0..trials {
        let r = random_rect(data, rng);
        let exact = r.mass(data);
        let approx = synopsis.mass(&r);
        worst = worst.max((exact - approx).abs());
    }
    worst
}

/// Measures every synopsis of a federation against its raw dataset — the
/// per-dataset `δ_i` sweep of the federated setting — on a worker pool.
///
/// Dataset `i` probes `trials` rectangles drawn from its own RNG stream
/// (seeded `mix_seed(seed, i)`), so the result is independent of the thread
/// count and of the order in which workers claim datasets; `opts.threads`
/// controls the pool ([`BuildOptions::default`] uses every core, honoring
/// `DDS_THREADS`).
///
/// # Panics
/// Panics if `synopses` and `datas` have different lengths or any dataset
/// is empty.
pub fn estimate_percentile_errors<S: PercentileSynopsis + Sync>(
    synopses: &[S],
    datas: &[Vec<Point>],
    trials: usize,
    seed: u64,
    opts: &BuildOptions,
) -> Vec<f64> {
    assert_eq!(synopses.len(), datas.len(), "one raw dataset per synopsis");
    par_map(opts, synopses, |i, syn| {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, i as u64));
        estimate_percentile_error(syn, &datas[i], trials, &mut rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExactSynopsis, GridHistogram, UniformSampleSynopsis};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform_square(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::two(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect()
    }

    #[test]
    fn exact_synopsis_has_zero_error() {
        let data = uniform_square(500, 1);
        let syn = ExactSynopsis::new(data.clone());
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(estimate_percentile_error(&syn, &data, 50, &mut rng), 0.0);
    }

    #[test]
    fn finer_histograms_have_smaller_error() {
        let data = uniform_square(20_000, 3);
        let coarse = GridHistogram::from_points(&data, 4);
        let fine = GridHistogram::from_points(&data, 32);
        let mut rng = StdRng::seed_from_u64(4);
        let e_coarse = estimate_percentile_error(&coarse, &data, 100, &mut rng);
        let e_fine = estimate_percentile_error(&fine, &data, 100, &mut rng);
        assert!(
            e_fine < e_coarse,
            "fine {e_fine} should beat coarse {e_coarse}"
        );
    }

    #[test]
    fn batch_sweep_is_thread_count_independent() {
        let datas: Vec<Vec<Point>> = (0..6).map(|i| uniform_square(400, 10 + i)).collect();
        let synopses: Vec<GridHistogram> = datas
            .iter()
            .map(|d| GridHistogram::from_points(d, 8))
            .collect();
        let serial =
            estimate_percentile_errors(&synopses, &datas, 40, 0xD5, &BuildOptions::serial());
        assert_eq!(serial.len(), 6);
        assert!(serial.iter().all(|&d| d > 0.0));
        for threads in [2, 3, 8] {
            let par = estimate_percentile_errors(
                &synopses,
                &datas,
                40,
                0xD5,
                &BuildOptions::with_threads(threads),
            );
            assert_eq!(
                par.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                serial.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn sample_synopsis_error_within_advertised_bound() {
        let data = uniform_square(10_000, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let syn = UniformSampleSynopsis::from_points(&data, 4000, 0.01, &mut rng);
        let measured = estimate_percentile_error(&syn, &data, 200, &mut rng);
        let advertised = syn.percentile_delta().unwrap();
        assert!(
            measured <= advertised * 2.0,
            "measured {measured} advertised {advertised}"
        );
    }
}
