//! Build determinism: constructing the same index twice from the same
//! `StdRng` seed yields bit-identical answers — across every index family
//! the facade prelude exercises, on sampled (RNG-consuming) workloads, and
//! under the default worker pool (whatever `DDS_THREADS` / core count the
//! environment provides). Together with `parallel_equivalence.rs` this pins
//! the whole build pipeline as a pure function of `(data, params.seed)`.

mod common;

use common::{ball_repo, mixed_repo};
use distribution_aware_search::prelude::*;

/// Sampled Ptile workload: supports exceed the 512-point weight-sample cap,
/// so every build consumes its per-dataset RNG streams.
fn ptile_inputs() -> (Vec<dds_synopsis::ExactSynopsis>, PtileBuildParams) {
    let repo = mixed_repo(16, 1400, 1, 0xDE7);
    let params = PtileBuildParams::default()
        .with_rect_budget(200)
        .with_seed(0x5EED);
    (repo.exact_synopses(), params)
}

fn ptile_queries() -> Vec<(Rect, Interval)> {
    (0..10)
        .map(|q| {
            let lo = -5.0 + q as f64 * 8.0;
            (
                Rect::interval(lo, lo + 12.0),
                Interval::new(0.04 * q as f64, 0.15 + 0.08 * q as f64),
            )
        })
        .collect()
}

#[test]
fn ptile_threshold_builds_identically_twice() {
    let (syns, params) = ptile_inputs();
    let a = PtileThresholdIndex::build(&syns, params.clone());
    let b = PtileThresholdIndex::build(&syns, params);
    assert_eq!(a.eps().to_bits(), b.eps().to_bits());
    assert_eq!(a.memory_bytes(), b.memory_bytes());
    for (rect, theta) in ptile_queries() {
        assert_eq!(a.query(&rect, theta.lo), b.query(&rect, theta.lo));
    }
}

#[test]
fn ptile_range_builds_identically_twice() {
    let (syns, params) = ptile_inputs();
    let a = PtileRangeIndex::build(&syns, params.clone());
    let b = PtileRangeIndex::build(&syns, params);
    assert_eq!(a.eps().to_bits(), b.eps().to_bits());
    assert_eq!(a.slack().to_bits(), b.slack().to_bits());
    assert_eq!(a.lifted_points(), b.lifted_points());
    assert_eq!(a.memory_bytes(), b.memory_bytes());
    for (rect, theta) in ptile_queries() {
        assert_eq!(a.query(&rect, theta), b.query(&rect, theta));
    }
}

#[test]
fn ptile_multi_builds_identically_twice() {
    let (syns, params) = ptile_inputs();
    let a = PtileMultiIndex::build(&syns, 2, params.clone());
    let b = PtileMultiIndex::build(&syns, 2, params);
    assert_eq!(a.eps().to_bits(), b.eps().to_bits());
    assert_eq!(a.margin().to_bits(), b.margin().to_bits());
    assert_eq!(a.lifted_points(), b.lifted_points());
    for (rect, theta) in ptile_queries() {
        let q = [(rect, theta)];
        assert_eq!(a.query(&q), b.query(&q));
    }
}

#[test]
fn exact_1d_builds_identically_twice() {
    let repo = mixed_repo(12, 600, 1, 0xE4D);
    let a = ExactCPtile1D::build(&repo, Interval::new(0.3, 0.7));
    let b = ExactCPtile1D::build(&repo, Interval::new(0.3, 0.7));
    for q in 0..10 {
        let lo = q as f64 * 7.0;
        assert_eq!(a.query(lo, lo + 11.0), b.query(lo, lo + 11.0));
    }
}

#[test]
fn pref_indexes_build_identically_twice() {
    let repo = ball_repo(20, 400, 2, 0xBA11);
    let syns = repo.exact_synopses();
    let params = PrefBuildParams::exact_centralized().with_eps(0.04);
    let a = PrefIndex::build(&syns, 3, params.clone());
    let b = PrefIndex::build(&syns, 3, params.clone());
    assert_eq!(a.memory_bytes(), b.memory_bytes());
    let am = PrefMultiIndex::build(&syns, 3, 2, params.clone());
    let bm = PrefMultiIndex::build(&syns, 3, 2, params);
    for q in 0..12 {
        let angle = q as f64 * 0.5;
        let v = vec![angle.cos(), angle.sin()];
        let t = -0.5 + 0.1 * q as f64;
        assert_eq!(a.query(&v, t), b.query(&v, t));
        assert_eq!(
            am.query(&[(v.clone(), t), (vec![0.0, 1.0], t - 0.1)]),
            bm.query(&[(v.clone(), t), (vec![0.0, 1.0], t - 0.1)])
        );
    }
}

#[test]
fn mixed_engine_builds_identically_twice_under_default_pool() {
    // `MixedQueryEngine::build` uses `BuildOptions::default()` — whatever
    // thread count the environment resolves, two builds from one seed must
    // answer identically, bit for bit.
    let repo = mixed_repo(14, 900, 2, 0x217);
    let ptile = PtileBuildParams::default()
        .with_rect_budget(200)
        .with_seed(42);
    let pref = PrefBuildParams::exact_centralized().with_eps(0.05);
    let a = MixedQueryEngine::build_opts(
        &repo,
        &[1, 3],
        ptile.clone(),
        pref.clone(),
        &BuildOptions::default(),
    );
    let b = MixedQueryEngine::build_opts(&repo, &[1, 3], ptile, pref, &BuildOptions::default());
    assert_eq!(a.ptile_slack().to_bits(), b.ptile_slack().to_bits());
    assert_eq!(
        a.pref_slack(3).unwrap().to_bits(),
        b.pref_slack(3).unwrap().to_bits()
    );
    for q in 0..8 {
        let lo = q as f64 * 10.0;
        let expr = LogicalExpr::Or(vec![
            LogicalExpr::And(vec![
                LogicalExpr::Pred(Predicate::percentile_at_least(
                    Rect::from_bounds(&[lo, lo], &[lo + 20.0, lo + 20.0]),
                    0.2,
                )),
                LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0, 0.0], 1, 0.1 * q as f64)),
            ]),
            LogicalExpr::Pred(Predicate::topk_at_least(vec![0.0, 1.0], 3, 0.9)),
        ]);
        assert_eq!(
            a.try_query_with(&expr, &mut QueryScratch::new()).unwrap(),
            b.try_query_with(&expr, &mut QueryScratch::new()).unwrap()
        );
    }
    assert_eq!(a.index_queries(), b.index_queries());
}
