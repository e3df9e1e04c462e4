//! The mixed-expression engine at repository scale: every ground-truth
//! dataset of a percentile / top-k expression is reported, each once.

mod common;

use common::mixed_repo;
use dds_core::engine::MixedQueryEngine;
use dds_core::framework::{ground_truth, LogicalExpr, Predicate};
use dds_core::pool::BuildOptions;
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::scratch::QueryScratch;
use dds_geom::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn mixed_engine_covers_ground_truth_at_scale() {
    let repo = mixed_repo(40, 300, 1, 621);
    let engine = MixedQueryEngine::build_opts(
        &repo,
        &[1, 5],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized().with_eps(0.05),
        &BuildOptions::default(),
    );
    let mut rng = StdRng::seed_from_u64(622);
    for _ in 0..10 {
        let a = rng.gen_range(0.0..60.0);
        let b = a + rng.gen_range(5.0..40.0);
        let mass_bar: f64 = rng.gen_range(0.2..0.7);
        // Scores in this 1-d repo are raw coordinates; pick a bar from the
        // data range so both branches of the expression are non-trivial.
        let score_bar: f64 = rng.gen_range(20.0..90.0);
        let expr = LogicalExpr::Or(vec![
            LogicalExpr::And(vec![
                LogicalExpr::Pred(Predicate::percentile_at_least(
                    Rect::interval(a, b),
                    mass_bar,
                )),
                LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], 5, score_bar)),
            ]),
            LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], 1, 99.0)),
        ]);
        let hits = engine
            .try_query_with(&expr, &mut QueryScratch::new())
            .expect("all ranks indexed");
        for i in ground_truth(&repo, &expr) {
            assert!(hits.contains(&i), "missed ground-truth dataset {i}");
        }
        // No duplicates.
        let mut d = hits.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), hits.len());
    }
}
