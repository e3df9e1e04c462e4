//! Integration tests for logical expressions (Theorem C.8) and the exact
//! 1-d structure (Theorem C.5).

mod common;

use common::{mixed_repo, point_sets, sorted};
use dds_core::framework::{ground_truth, Interval, LogicalExpr, Predicate, Repository};
use dds_core::guarantee::check_ptile_conjunction;
use dds_core::pool::BuildOptions;
use dds_core::ptile::{ExactCPtile1D, PtileBuildParams, PtileMultiIndex};
use dds_core::scratch::QueryScratch;
use dds_geom::Rect;
use dds_workload::queries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn multi_index_conjunction_guarantees() {
    let repo = mixed_repo(30, 300, 1, 301);
    let sets = point_sets(&repo);
    let idx = PtileMultiIndex::build_opts(
        &repo.exact_synopses(),
        2,
        PtileBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let slack = idx.slack();
    let mut rng = StdRng::seed_from_u64(302);
    let bbox = Rect::from_bounds(&[0.0], &[100.0]);
    for q in 0..20 {
        let r1 = queries::random_rect(&mut rng, &bbox);
        let r2 = queries::random_rect(&mut rng, &bbox);
        let a1: f64 = rng.gen_range(0.05..0.6);
        let a2: f64 = rng.gen_range(0.05..0.6);
        let preds = vec![(r1, Interval::new(a1, 1.0)), (r2, Interval::new(a2, 1.0))];
        let hits = idx.query(&preds);
        let check = check_ptile_conjunction(&sets, &preds, &hits, slack);
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
fn expression_queries_cover_ground_truth() {
    let repo = mixed_repo(25, 250, 1, 311);
    let idx = PtileMultiIndex::build_opts(
        &repo.exact_synopses(),
        2,
        PtileBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let mut rng = StdRng::seed_from_u64(312);
    let bbox = Rect::from_bounds(&[0.0], &[100.0]);
    for _ in 0..12 {
        let r1 = queries::random_rect(&mut rng, &bbox);
        let r2 = queries::random_rect(&mut rng, &bbox);
        let a1: f64 = rng.gen_range(0.1..0.6);
        let a2: f64 = rng.gen_range(0.1..0.6);
        let expr = LogicalExpr::Or(vec![
            LogicalExpr::Pred(Predicate::percentile_at_least(r1.clone(), a1)),
            LogicalExpr::And(vec![
                LogicalExpr::Pred(Predicate::percentile_at_least(r2.clone(), a2)),
                LogicalExpr::Pred(Predicate::percentile(r1.clone(), Interval::new(0.0, 0.5))),
            ]),
        ]);
        let hits = idx
            .query_expr_with(&expr, &mut QueryScratch::new())
            .expect("percentile expression");
        let truth = ground_truth(&repo, &expr);
        for i in truth {
            assert!(hits.contains(&i), "ground-truth index {i} missing");
        }
        // No duplicates in the union.
        let s = sorted(hits.clone());
        let mut d = s.clone();
        d.dedup();
        assert_eq!(s, d);
    }
}

#[test]
fn exact1d_matches_bruteforce_randomized() {
    let repo = mixed_repo(40, 300, 1, 321);
    let mut rng = StdRng::seed_from_u64(322);
    for trial in 0..6 {
        let (a, b) = queries::random_theta(&mut rng, 0.05);
        let theta = Interval::new(a, b);
        let idx = ExactCPtile1D::build(&repo, theta);
        for q in 0..20 {
            let lo: f64 = rng.gen_range(0.0..90.0);
            let hi: f64 = lo + rng.gen_range(0.0..40.0);
            let got = sorted(idx.query(lo, hi));
            let want: Vec<usize> = repo
                .point_sets()
                .enumerate()
                .filter(|(_, pts)| {
                    let cnt = pts.iter().filter(|p| lo <= p[0] && p[0] <= hi).count();
                    theta.contains(cnt as f64 / pts.len() as f64)
                })
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, want, "trial {trial} query {q} theta=[{a},{b}]");
        }
    }
}

#[test]
fn exact1d_one_sided_and_degenerate_thetas() {
    let repo = mixed_repo(20, 150, 1, 331);
    // One-sided: θ = [0.4, 1].
    let idx = ExactCPtile1D::build(&repo, Interval::new(0.4, 1.0));
    let got = sorted(idx.query(0.0, 100.0));
    assert_eq!(got.len(), 20, "full-range query matches everything at 100%");
    // Degenerate: θ = [1, 1] — only datasets fully inside R.
    let idx = ExactCPtile1D::build(&repo, Interval::new(1.0, 1.0));
    let got = idx.query(0.0, 100.0);
    assert_eq!(got.len(), 20);
    let none = idx.query(0.0, 0.000001);
    assert!(none.is_empty());
    // θ = [0, 0] — only datasets with nothing in R.
    let idx = ExactCPtile1D::build(&repo, Interval::new(0.0, 0.0));
    let got = idx.query(200.0, 300.0);
    assert_eq!(got.len(), 20, "nobody has mass beyond the domain");
}

#[test]
fn exact1d_on_tiny_explicit_repo() {
    // Fully hand-checkable instance.
    let repo = Repository::new(vec![
        dds_core::framework::Dataset::from_rows("x", vec![vec![1.0], vec![2.0], vec![3.0]]),
        dds_core::framework::Dataset::from_rows("y", vec![vec![2.0], vec![2.5]]),
    ]);
    let idx = ExactCPtile1D::build(&repo, Interval::new(0.5, 1.0));
    // R = [2, 3]: x has 2/3, y has 2/2 → both.
    assert_eq!(sorted(idx.query(2.0, 3.0)), vec![0, 1]);
    // R = [2.4, 3.5]: x has 1/3 (<0.5), y has 1/2 → y only.
    assert_eq!(idx.query(2.4, 3.5), vec![1]);
    // R = [4, 5]: nobody.
    assert!(idx.query(4.0, 5.0).is_empty());
}
