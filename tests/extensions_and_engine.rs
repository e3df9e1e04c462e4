//! Integration tests for the Section-6 extensions (nearest-neighbor and
//! diversity dataset search) and the mixed-expression engine, at repository
//! scale.

mod common;

use common::{mixed_repo, point_sets};
use dds_core::engine::MixedQueryEngine;
use dds_core::extensions::{DiversityDatasetIndex, NnDatasetIndex};
use dds_core::framework::{ground_truth, LogicalExpr, Predicate};
use dds_core::pool::BuildOptions;
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::scratch::QueryScratch;
use dds_geom::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn nn_dataset_search_at_scale() {
    let repo = mixed_repo(60, 400, 2, 601);
    let sets = point_sets(&repo);
    let idx = NnDatasetIndex::build(&sets, 32);
    let mut rng = StdRng::seed_from_u64(602);
    for _ in 0..25 {
        let q = vec![rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)];
        let tau = rng.gen_range(0.5..15.0);
        let hits = idx.query(&q, tau);
        let qp = Point::new(q.clone());
        for (j, pts) in sets.iter().enumerate() {
            let d = pts
                .iter()
                .map(|p| p.dist(&qp))
                .fold(f64::INFINITY, f64::min);
            if d <= tau {
                assert!(hits.contains(&j), "missed dataset {j} at dist {d:.3}");
            }
        }
        for &j in &hits {
            let d = sets[j]
                .iter()
                .map(|p| p.dist(&qp))
                .fold(f64::INFINITY, f64::min);
            assert!(d <= tau + idx.band_for(j) + 1e-9, "band violated for {j}");
        }
    }
}

#[test]
fn diversity_search_recall_at_scale() {
    let repo = mixed_repo(30, 300, 2, 611);
    let sets = point_sets(&repo);
    let idx = DiversityDatasetIndex::build(&sets, 24);
    let mut rng = StdRng::seed_from_u64(612);
    for _ in 0..10 {
        let lo = vec![rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)];
        let hi = vec![
            lo[0] + rng.gen_range(10.0..50.0),
            lo[1] + rng.gen_range(10.0..50.0),
        ];
        let r = Rect::from_bounds(&lo, &hi);
        let tau = rng.gen_range(5.0..60.0);
        let hits = idx.query(&r, tau);
        for (j, pts) in sets.iter().enumerate() {
            let inside: Vec<&Point> = pts.iter().filter(|p| r.contains_point(p)).collect();
            let mut diam: f64 = 0.0;
            for a in 0..inside.len() {
                for b in (a + 1)..inside.len() {
                    diam = diam.max(inside[a].dist(inside[b]));
                }
            }
            if diam >= tau {
                assert!(hits.contains(&j), "missed dataset {j} with diam {diam:.2}");
            }
        }
    }
}

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
