//! Integration tests for the approximate Ptile indexes (Theorems 4.4 and
//! 4.11): recall and error-band guarantees on mixed synthetic repositories,
//! centralized setting, against the exact linear-scan baseline.

mod common;

use common::{mixed_repo, point_sets, sorted};
use dds_core::baseline::LinearScanPtile;
use dds_core::framework::Interval;
use dds_core::guarantee::{check_ptile, GuaranteeCheck};
use dds_core::pool::BuildOptions;
use dds_core::ptile::{PtileBuildParams, PtileRangeIndex, PtileThresholdIndex};
use dds_workload::queries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_holds(check: &GuaranteeCheck, ctx: &str) {
    assert!(
        check.missed.is_empty(),
        "{ctx}: recall violated, missed {:?}",
        check.missed
    );
    assert!(
        check.out_of_band.is_empty(),
        "{ctx}: band violated for {:?}",
        check.out_of_band
    );
}

#[test]
fn threshold_index_guarantees_d1() {
    let repo = mixed_repo(60, 500, 1, 11);
    let sets = point_sets(&repo);
    let idx = PtileThresholdIndex::build_opts(
        &repo.exact_synopses(),
        PtileBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let slack = idx.slack();
    let mut rng = StdRng::seed_from_u64(12);
    let bbox = dds_geom::Rect::from_bounds(&[0.0], &[100.0]);
    for q in 0..40 {
        let r = queries::random_rect(&mut rng, &bbox);
        let a: f64 = rng.gen_range(0.05..0.9);
        let hits = idx.query(&r, a);
        let check = check_ptile(&sets, &r, Interval::new(a, 1.0), &hits, slack);
        assert_holds(&check, &format!("threshold d=1 query {q}"));
    }
}

#[test]
fn threshold_index_guarantees_d2() {
    let repo = mixed_repo(40, 400, 2, 21);
    let sets = point_sets(&repo);
    let idx = PtileThresholdIndex::build_opts(
        &repo.exact_synopses(),
        PtileBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let slack = idx.slack();
    let mut rng = StdRng::seed_from_u64(22);
    let bbox = dds_geom::Rect::from_bounds(&[0.0, 0.0], &[100.0, 100.0]);
    for q in 0..25 {
        let r = queries::random_rect(&mut rng, &bbox);
        let a: f64 = rng.gen_range(0.05..0.9);
        let hits = idx.query(&r, a);
        let check = check_ptile(&sets, &r, Interval::new(a, 1.0), &hits, slack);
        assert_holds(&check, &format!("threshold d=2 query {q}"));
    }
}

#[test]
fn range_index_guarantees_d1() {
    let repo = mixed_repo(50, 400, 1, 31);
    let sets = point_sets(&repo);
    let idx = PtileRangeIndex::build_opts(
        &repo.exact_synopses(),
        PtileBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let slack = idx.slack();
    let mut rng = StdRng::seed_from_u64(32);
    let bbox = dds_geom::Rect::from_bounds(&[0.0], &[100.0]);
    for q in 0..40 {
        let r = queries::random_rect(&mut rng, &bbox);
        let (a, b) = queries::random_theta(&mut rng, 0.05);
        let hits = idx.query(&r, Interval::new(a, b));
        let check = check_ptile(&sets, &r, Interval::new(a, b), &hits, slack);
        assert_holds(&check, &format!("range d=1 query {q} theta=[{a},{b}]"));
    }
}

#[test]
fn range_index_guarantees_d2() {
    let repo = mixed_repo(30, 300, 2, 41);
    let sets = point_sets(&repo);
    let idx = PtileRangeIndex::build_opts(
        &repo.exact_synopses(),
        PtileBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let slack = idx.slack();
    let mut rng = StdRng::seed_from_u64(42);
    let bbox = dds_geom::Rect::from_bounds(&[0.0, 0.0], &[100.0, 100.0]);
    for q in 0..25 {
        let r = queries::random_rect(&mut rng, &bbox);
        let (a, b) = queries::random_theta(&mut rng, 0.05);
        let hits = idx.query(&r, Interval::new(a, b));
        let check = check_ptile(&sets, &r, Interval::new(a, b), &hits, slack);
        assert_holds(&check, &format!("range d=2 query {q}"));
    }
}

#[test]
fn small_supports_make_answers_exact() {
    // Datasets small enough for the exact-support shortcut: the index must
    // agree with the exact baseline bit-for-bit.
    let repo = mixed_repo(40, 60, 1, 51);
    let scan = LinearScanPtile::build(&repo);
    let idx = PtileRangeIndex::build_opts(
        &repo.exact_synopses(),
        PtileBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    assert_eq!(idx.eps(), 0.0, "60-point datasets fit the budget exactly");
    let mut rng = StdRng::seed_from_u64(52);
    let bbox = dds_geom::Rect::from_bounds(&[0.0], &[100.0]);
    for _ in 0..40 {
        let r = queries::random_rect(&mut rng, &bbox);
        let (a, b) = queries::random_theta(&mut rng, 0.05);
        let theta = Interval::new(a, b);
        assert_eq!(
            sorted(idx.query(&r, theta)),
            sorted(scan.query(&r, theta)),
            "R={r:?} theta=[{a},{b}]"
        );
    }
}

#[test]
fn output_is_duplicate_free_and_queries_are_repeatable() {
    let repo = mixed_repo(30, 200, 1, 61);
    let idx = PtileThresholdIndex::build_opts(
        &repo.exact_synopses(),
        PtileBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let r = dds_geom::Rect::interval(10.0, 60.0);
    let first = sorted(idx.query(&r, 0.3));
    let mut dedup = first.clone();
    dedup.dedup();
    assert_eq!(first, dedup);
    for _ in 0..3 {
        assert_eq!(sorted(idx.query(&r, 0.3)), first);
    }
}

#[test]
fn selectivity_controls_output_size() {
    let repo = mixed_repo(60, 300, 1, 71);
    let sets = point_sets(&repo);
    let idx = PtileThresholdIndex::build_opts(
        &repo.exact_synopses(),
        PtileBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let mut rng = StdRng::seed_from_u64(72);
    // A rectangle sized to ~50% of a dataset's mass should report a healthy
    // fraction of the repository at a low threshold and much less at 0.9.
    let anchor = &sets[0];
    let r = queries::rect_with_selectivity(&mut rng, anchor, 0.5);
    let low = idx.query(&r, 0.05).len();
    let high = idx.query(&r, 0.9).len();
    assert!(low >= high, "low threshold reports at least as many");
}
