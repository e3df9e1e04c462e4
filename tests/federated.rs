//! Federated-setting integration tests (FPtile / FPref): histogram,
//! mixture and sample synopses with *measured* error δ; the end-to-end
//! ε + 2δ band of Theorems 4.4 / 4.11 / 5.4 must hold against the raw data.

mod common;

use common::{ball_repo, mixed_repo, point_sets};
use dds_core::framework::Interval;
use dds_core::guarantee::{check_pref, check_ptile};
use dds_core::pool::BuildOptions;
use dds_core::pref::{PrefBuildParams, PrefIndex};
use dds_core::ptile::{PtileBuildParams, PtileRangeIndex, PtileThresholdIndex};
use dds_synopsis::{
    error, EquiDepthHistogram, GaussianMixtureSynopsis, GridHistogram, NetCachePref,
    PercentileSynopsis, UniformSampleSynopsis,
};
use dds_workload::queries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Measures `max_i Err_{S_{P_i}}` over random rectangle probes.
fn measured_delta<S: PercentileSynopsis>(
    synopses: &[S],
    sets: &[Vec<dds_geom::Point>],
    rng: &mut StdRng,
) -> f64 {
    synopses
        .iter()
        .zip(sets)
        .map(|(s, pts)| error::estimate_percentile_error(s, pts, 60, rng))
        .fold(0.0, f64::max)
}

#[test]
fn grid_histogram_synopses_keep_the_band() {
    let repo = mixed_repo(30, 800, 1, 101);
    let sets = point_sets(&repo);
    let mut rng = StdRng::seed_from_u64(102);
    let synopses: Vec<GridHistogram> = sets
        .iter()
        .map(|pts| GridHistogram::from_points(pts, 48))
        .collect();
    // Measure δ and pad it: the probe is a lower bound on the sup-error.
    let delta = (1.5 * measured_delta(&synopses, &sets, &mut rng)).clamp(0.01, 0.5);
    let params = PtileBuildParams::federated(delta);
    let idx = PtileRangeIndex::build_opts(&synopses, params, &BuildOptions::serial());
    let slack = idx.slack();
    let bbox = dds_geom::Rect::from_bounds(&[0.0], &[100.0]);
    for q in 0..30 {
        let r = queries::random_rect(&mut rng, &bbox);
        let (a, b) = queries::random_theta(&mut rng, 0.1);
        let hits = idx.query(&r, Interval::new(a, b));
        let check = check_ptile(&sets, &r, Interval::new(a, b), &hits, slack);
        assert!(
            check.missed.is_empty(),
            "query {q}: recall violated (missed {:?}, delta {delta:.3})",
            check.missed
        );
        assert!(
            check.out_of_band.is_empty(),
            "query {q}: band violated ({:?}, slack {slack:.3})",
            check.out_of_band
        );
    }
}

#[test]
fn equi_depth_histograms_match_fainder_setting() {
    // The Fainder baseline's synopsis family: per-dataset quantile sketches.
    let repo = mixed_repo(30, 600, 1, 111);
    let sets = point_sets(&repo);
    let mut rng = StdRng::seed_from_u64(112);
    let synopses: Vec<EquiDepthHistogram> = sets
        .iter()
        .map(|pts| EquiDepthHistogram::from_points(pts, 64))
        .collect();
    let delta = (1.5 * measured_delta(&synopses, &sets, &mut rng)).clamp(0.01, 0.5);
    let idx = PtileThresholdIndex::build_opts(
        &synopses,
        PtileBuildParams::federated(delta),
        &BuildOptions::serial(),
    );
    let slack = idx.slack();
    let bbox = dds_geom::Rect::from_bounds(&[0.0], &[100.0]);
    for q in 0..30 {
        let r = queries::random_rect(&mut rng, &bbox);
        let a: f64 = rng.gen_range(0.05..0.8);
        let hits = idx.query(&r, a);
        let check = check_ptile(&sets, &r, Interval::new(a, 1.0), &hits, slack);
        assert!(
            check.missed.is_empty(),
            "query {q}: missed {:?}",
            check.missed
        );
        assert!(
            check.out_of_band.is_empty(),
            "query {q}: band violated {:?}",
            check.out_of_band
        );
    }
}

#[test]
fn mixture_synopses_keep_the_band_2d() {
    let repo = mixed_repo(16, 600, 2, 121);
    let sets = point_sets(&repo);
    let mut rng = StdRng::seed_from_u64(122);
    let synopses: Vec<GaussianMixtureSynopsis> = sets
        .iter()
        .map(|pts| GaussianMixtureSynopsis::fit(pts, 4, 8, &mut rng))
        .collect();
    // Mixtures on skewed data can be coarse; measure and pad generously.
    let delta = (1.5 * measured_delta(&synopses, &sets, &mut rng)).clamp(0.02, 0.6);
    let idx = PtileThresholdIndex::build_opts(
        &synopses,
        PtileBuildParams::federated(delta),
        &BuildOptions::serial(),
    );
    let slack = idx.slack();
    let bbox = dds_geom::Rect::from_bounds(&[0.0, 0.0], &[100.0, 100.0]);
    for q in 0..20 {
        let r = queries::random_rect(&mut rng, &bbox);
        let a: f64 = rng.gen_range(0.05..0.8);
        let hits = idx.query(&r, a);
        let check = check_ptile(&sets, &r, Interval::new(a, 1.0), &hits, slack);
        assert!(
            check.missed.is_empty(),
            "query {q}: missed {:?}",
            check.missed
        );
        assert!(
            check.out_of_band.is_empty(),
            "query {q}: band violated {:?}",
            check.out_of_band
        );
    }
}

#[test]
fn sample_synopses_advertised_delta_suffices() {
    let repo = mixed_repo(25, 2000, 1, 131);
    let sets = point_sets(&repo);
    let mut rng = StdRng::seed_from_u64(132);
    let synopses: Vec<UniformSampleSynopsis> = sets
        .iter()
        .map(|pts| UniformSampleSynopsis::from_points(pts, 600, 0.001, &mut rng))
        .collect();
    // Here δ comes from the ε-sample theorem, not from measurement.
    let delta = synopses
        .iter()
        .map(|s| s.percentile_delta().unwrap())
        .fold(0.0, f64::max);
    let idx = PtileThresholdIndex::build_opts(
        &synopses,
        PtileBuildParams::federated(delta),
        &BuildOptions::serial(),
    );
    let slack = idx.slack();
    let bbox = dds_geom::Rect::from_bounds(&[0.0], &[100.0]);
    for q in 0..30 {
        let r = queries::random_rect(&mut rng, &bbox);
        let a: f64 = rng.gen_range(0.05..0.8);
        let hits = idx.query(&r, a);
        let check = check_ptile(&sets, &r, Interval::new(a, 1.0), &hits, slack);
        assert!(
            check.missed.is_empty(),
            "query {q}: missed {:?}",
            check.missed
        );
        assert!(
            check.out_of_band.is_empty(),
            "query {q}: band violated {:?}",
            check.out_of_band
        );
    }
}

#[test]
fn federated_pref_with_direction_caches() {
    let repo = ball_repo(30, 300, 2, 141);
    let sets = point_sets(&repo);
    let k = 5;
    let synopses: Vec<NetCachePref> = sets
        .iter()
        .map(|pts| NetCachePref::build(pts, 0.05, 32))
        .collect();
    let delta = synopses[0].pref_delta().unwrap();
    let idx = PrefIndex::build_opts(
        &synopses,
        k,
        PrefBuildParams::federated(delta),
        &BuildOptions::serial(),
    );
    let slack = idx.slack();
    let mut rng = StdRng::seed_from_u64(142);
    for q in 0..30 {
        let v = queries::random_unit_vector(&mut rng, 2);
        let raw: Vec<Vec<dds_geom::Point>> = sets.clone();
        let a = queries::threshold_with_selectivity(&raw, &v, k, 0.3);
        let hits = idx.query(&v, a);
        let check = check_pref(&sets, &v, k, a, &hits, slack);
        assert!(
            check.missed.is_empty(),
            "query {q}: missed {:?}",
            check.missed
        );
        assert!(
            check.out_of_band.is_empty(),
            "query {q}: band violated {:?}",
            check.out_of_band
        );
    }
}

use dds_synopsis::PrefSynopsis;
