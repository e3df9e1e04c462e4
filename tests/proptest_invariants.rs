//! Property-based tests (proptest) on the paper's core invariants, over
//! arbitrary small repositories and queries.

mod common;

use common::sorted;
use dds_core::framework::{Interval, Repository};
use dds_core::pool::BuildOptions;
use dds_core::pref::{PrefBuildParams, PrefIndex};
use dds_core::ptile::{ExactCPtile1D, PtileBuildParams, PtileRangeIndex, PtileThresholdIndex};
use dds_geom::{CoordGrid, Point, Rect};
use dds_synopsis::ExactSynopsis;
use proptest::prelude::*;

/// Strategy: a repository of 1-d datasets with coordinates on a small
/// integer grid (maximizing ties and boundary cases).
fn repo_1d() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec((-20i32..20).prop_map(|x| x as f64), 1..12),
        1..8,
    )
}

/// Strategy: a query interval with integer-ish bounds.
fn query_interval() -> impl Strategy<Value = (f64, f64)> {
    ((-25i32..25), (0i32..20)).prop_map(|(lo, w)| (lo as f64, (lo + w) as f64))
}

fn synopses_of(sets: &[Vec<f64>]) -> Vec<ExactSynopsis> {
    sets.iter()
        .map(|xs| ExactSynopsis::new(xs.iter().map(|&x| Point::one(x)).collect()))
        .collect()
}

fn brute_ptile(sets: &[Vec<f64>], lo: f64, hi: f64, theta: Interval) -> Vec<usize> {
    sets.iter()
        .enumerate()
        .filter(|(_, xs)| {
            let cnt = xs.iter().filter(|&&x| lo <= x && x <= hi).count();
            theta.contains(cnt as f64 / xs.len() as f64)
        })
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With tiny exact supports (ε = δ = 0) the threshold index IS exact.
    #[test]
    fn threshold_index_exact_on_small_supports(
        sets in repo_1d(),
        (lo, hi) in query_interval(),
        a_pct in 0u32..=100,
    ) {
        let a = a_pct as f64 / 100.0;
        let syns = synopses_of(&sets);
        let idx = PtileThresholdIndex::build_opts(&syns, PtileBuildParams::exact_centralized(), &BuildOptions::serial());
        prop_assert_eq!(idx.eps(), 0.0);
        let got = sorted(idx.query(&Rect::interval(lo, hi), a));
        // a == 0 is the report-everything band; the guarantee allows it.
        if a == 0.0 {
            prop_assert_eq!(got.len(), sets.len());
        } else {
            let want = brute_ptile(&sets, lo, hi, Interval::new(a, 1.0));
            prop_assert_eq!(got, want);
        }
    }

    /// Range index with exact supports: exact answers for positive bands,
    /// superset-with-band semantics always.
    #[test]
    fn range_index_exact_on_small_supports(
        sets in repo_1d(),
        (lo, hi) in query_interval(),
        a_pct in 1u32..=90,
        w_pct in 0u32..=50,
    ) {
        let a = a_pct as f64 / 100.0;
        let b = (a + w_pct as f64 / 100.0).min(1.0);
        let syns = synopses_of(&sets);
        let idx = PtileRangeIndex::build_opts(&syns, PtileBuildParams::exact_centralized(), &BuildOptions::serial());
        prop_assert_eq!(idx.eps(), 0.0);
        let theta = Interval::new(a, b);
        let got = sorted(idx.query(&Rect::interval(lo, hi), theta));
        let want = brute_ptile(&sets, lo, hi, theta);
        prop_assert_eq!(got, want);
    }

    /// The exact 1-d structure equals brute force for every θ and query.
    #[test]
    fn exact1d_always_exact(
        sets in repo_1d(),
        (lo, hi) in query_interval(),
        a_pct in 0u32..=100,
        w_pct in 0u32..=100,
    ) {
        let a = a_pct as f64 / 100.0;
        let b = (a + w_pct as f64 / 100.0).min(1.0);
        let repo = Repository::from_point_sets(
            sets.iter()
                .map(|xs| xs.iter().map(|&x| Point::one(x)).collect())
                .collect(),
        );
        let theta = Interval::new(a, b);
        let idx = ExactCPtile1D::build(&repo, theta);
        let got = sorted(idx.query(lo, hi));
        let want = brute_ptile(&sets, lo, hi, theta);
        prop_assert_eq!(got, want);
    }

    /// Canonical grid invariants: the maximal rectangle inside any query
    /// has the same sample intersection as the query, and its one-step
    /// expansion strictly contains the query's core.
    #[test]
    fn maximal_rect_invariants(
        xs in prop::collection::vec((-20i32..20).prop_map(|x| x as f64), 1..15),
        (lo, hi) in query_interval(),
    ) {
        let pts: Vec<Point> = xs.iter().map(|&x| Point::one(x)).collect();
        let grid = CoordGrid::from_points(&pts);
        let r = Rect::interval(lo, hi);
        match grid.maximal_rect_in(&r) {
            Some(max) => {
                prop_assert!(r.contains_rect(&max));
                prop_assert_eq!(max.count_inside(&pts), r.count_inside(&pts));
                let hat = grid.one_step_expansion(&max);
                prop_assert!(hat.strictly_contains(&r) || hat.contains_rect(&r));
                prop_assert!(grid.is_canonical_pair(&max, &hat));
            }
            None => {
                prop_assert_eq!(r.count_inside(&pts), 0);
                prop_assert!(grid.has_empty_dimension(&r));
            }
        }
    }

    /// Pref recall: every dataset whose true ω_k clears the threshold is
    /// reported; every report is within the 2ε band.
    #[test]
    fn pref_recall_and_band(
        sets in prop::collection::vec(
            prop::collection::vec((-100i32..100, -100i32..100), 1..10),
            1..8,
        ),
        vx in -100i32..100,
        vy in -100i32..100,
        k in 1usize..4,
        a_raw in -100i32..100,
    ) {
        prop_assume!(vx != 0 || vy != 0);
        let n = ((vx * vx + vy * vy) as f64).sqrt();
        let v = [vx as f64 / n, vy as f64 / n];
        let a = a_raw as f64 / 100.0;
        // Scale points into the unit ball.
        let datasets: Vec<Vec<Point>> = sets
            .iter()
            .map(|ps| {
                ps.iter()
                    .map(|&(x, y)| Point::two(x as f64 / 150.0, y as f64 / 150.0))
                    .collect()
            })
            .collect();
        let syns: Vec<ExactSynopsis> =
            datasets.iter().map(|d| ExactSynopsis::new(d.clone())).collect();
        let idx = PrefIndex::build_opts(&syns, k, PrefBuildParams::exact_centralized(), &BuildOptions::serial());
        let hits = idx.query(&v, a);
        for (i, d) in datasets.iter().enumerate() {
            let score = dds_workload::queries::exact_kth_score(d, &v, k);
            if score >= a {
                prop_assert!(hits.contains(&i), "missed {} (score {})", i, score);
            }
        }
        for &j in &hits {
            let score = dds_workload::queries::exact_kth_score(&datasets[j], &v, k);
            prop_assert!(score >= a - idx.slack() - 1e-9, "band violated for {}", j);
        }
    }

    /// Interval algebra sanity.
    #[test]
    fn interval_widening_monotone(a in 0.0f64..0.9, w in 0.0f64..0.1, s in 0.0f64..0.5) {
        let t = Interval::new(a, a + w);
        let wde = t.widened(s);
        prop_assert!(wde.lo <= t.lo && wde.hi >= t.hi);
        prop_assert!(wde.contains(a) && wde.contains(a + w));
    }
}
