//! Parallel-equivalence test layer: for every index family, building on the
//! worker pool with any thread count produces **bit-identical** structures
//! to the serial build — same query answers (including enumeration order),
//! same guarantee bands, same memory accounting. This is the contract that
//! lets `BuildOptions::default()` use every core unconditionally.

mod common;

use common::mixed_repo;
use dds_core::framework::Repository;
use distribution_aware_search::prelude::*;
use proptest::prelude::*;

/// The thread counts the determinism contract is pinned against.
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn synopses_1d(sets: &[Vec<f64>]) -> Vec<dds_synopsis::ExactSynopsis> {
    sets.iter()
        .map(|xs| dds_synopsis::ExactSynopsis::new(xs.iter().map(|&x| Point::one(x)).collect()))
        .collect()
}

/// Generated case: datasets, query interval `(lo, hi)`, band `(a, b)`, and
/// per-dataset synopsis errors `δ_i` (the first `datasets.len()` are used).
type PtileCase = (Vec<Vec<f64>>, (f64, f64), (f64, f64), Vec<f64>);

/// Strategy: a small 1-d repository on an integer grid (ties and boundary
/// cases), plus one query interval, a percentile band and per-dataset δs.
fn repo_and_query() -> impl Strategy<Value = PtileCase> {
    (
        prop::collection::vec(
            prop::collection::vec((-20i32..20).prop_map(|x| x as f64), 1..12),
            1..8,
        ),
        ((-25i32..25), (0i32..20)).prop_map(|(lo, w)| (lo as f64, (lo + w) as f64)),
        ((0u32..=100), (0u32..=100)).prop_map(|(a, w)| {
            let lo = a as f64 / 100.0;
            (lo, (lo + w as f64 / 100.0).min(1.0))
        }),
        prop::collection::vec((0u32..=30).prop_map(|d| d as f64 / 100.0), 7..8),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ptile family: range, threshold and multi-predicate structures agree
    /// with their serial builds for every thread count — range and
    /// threshold with a uniform δ and with per-dataset δs alike.
    #[test]
    fn ptile_builds_are_thread_count_invariant(
        (sets, (lo, hi), (a, b), deltas) in repo_and_query(),
    ) {
        let syns = synopses_1d(&sets);
        let params = PtileBuildParams::exact_centralized();
        let rect = Rect::interval(lo, hi);
        let theta = Interval::new(a, b);
        let serial = BuildOptions::serial();
        let delta_choices = [None, Some(&deltas[..syns.len()])];

        let range_serial = delta_choices.map(|d| {
            PtileRangeIndex::build_with_deltas_opts(&syns, d, params.clone(), &serial)
        });
        let thr_serial = delta_choices.map(|d| {
            PtileThresholdIndex::build_with_deltas_opts(&syns, d, params.clone(), &serial)
        });
        let multi_serial = PtileMultiIndex::build_opts(&syns, 2, params.clone(), &serial);
        let expr = LogicalExpr::Or(vec![
            LogicalExpr::Pred(Predicate::percentile_at_least(rect.clone(), a)),
            LogicalExpr::And(vec![
                LogicalExpr::Pred(Predicate::percentile_at_least(rect.clone(), a / 2.0)),
                LogicalExpr::Pred(Predicate::percentile_at_least(Rect::interval(lo - 5.0, hi + 5.0), b)),
            ]),
        ]);

        for t in THREADS {
            let opts = BuildOptions::with_threads(t);
            for (i, d) in delta_choices.into_iter().enumerate() {
                let range = PtileRangeIndex::build_with_deltas_opts(&syns, d, params.clone(), &opts);
                prop_assert_eq!(range.query(&rect, theta), range_serial[i].query(&rect, theta));
                prop_assert_eq!(range.slack().to_bits(), range_serial[i].slack().to_bits());
                prop_assert_eq!(range.margin().to_bits(), range_serial[i].margin().to_bits());
                prop_assert_eq!(range.memory_bytes(), range_serial[i].memory_bytes());

                let thr = PtileThresholdIndex::build_with_deltas_opts(&syns, d, params.clone(), &opts);
                prop_assert_eq!(thr.query(&rect, a), thr_serial[i].query(&rect, a));
                prop_assert_eq!(thr.slack().to_bits(), thr_serial[i].slack().to_bits());
                prop_assert_eq!(thr.margin().to_bits(), thr_serial[i].margin().to_bits());
                prop_assert_eq!(thr.memory_bytes(), thr_serial[i].memory_bytes());
            }

            let multi = PtileMultiIndex::build_opts(&syns, 2, params.clone(), &opts);
            prop_assert_eq!(
                multi.query(&[(rect.clone(), theta)]),
                multi_serial.query(&[(rect.clone(), theta)])
            );
            prop_assert_eq!(
                multi.query_expr(&expr).unwrap(),
                multi_serial.query_expr(&expr).unwrap()
            );
            prop_assert_eq!(multi.slack().to_bits(), multi_serial.slack().to_bits());
            prop_assert_eq!(multi.margin().to_bits(), multi_serial.margin().to_bits());
            prop_assert_eq!(multi.memory_bytes(), multi_serial.memory_bytes());
        }
    }

    /// Pref family and the mixed engine agree with their serial builds for
    /// every thread count.
    #[test]
    fn pref_and_engine_builds_are_thread_count_invariant(
        rows in prop::collection::vec(
            prop::collection::vec(
                ((-10i32..10), (-10i32..10)).prop_map(|(x, y)| vec![x as f64 / 10.0, y as f64 / 10.0]),
                1..8,
            ),
            1..6,
        ),
        dir in ((-10i32..=10), (-10i32..=10)),
        a_pct in -100i32..100,
    ) {
        prop_assume!(dir.0 != 0 || dir.1 != 0);
        let norm = ((dir.0 * dir.0 + dir.1 * dir.1) as f64).sqrt();
        let v = vec![dir.0 as f64 / norm, dir.1 as f64 / norm];
        let a = a_pct as f64 / 100.0;
        let repo = Repository::new(
            rows.iter()
                .enumerate()
                .map(|(i, r)| Dataset::from_rows(format!("d{i}"), r.clone()))
                .collect(),
        );
        let syns = repo.exact_synopses();
        let pref_params = PrefBuildParams::exact_centralized().with_eps(0.05);

        let pref_serial = PrefIndex::build_opts(&syns, 1, pref_params.clone(), &BuildOptions::serial());
        let multi_serial =
            PrefMultiIndex::build_opts(&syns, 1, 2, pref_params.clone(), &BuildOptions::serial());
        let engine_serial = MixedQueryEngine::build_opts(
            &repo,
            &[1],
            PtileBuildParams::exact_centralized(),
            pref_params.clone(),
            &BuildOptions::serial(),
        );
        let expr = LogicalExpr::Or(vec![
            LogicalExpr::Pred(Predicate::topk_at_least(v.clone(), 1, a)),
            LogicalExpr::Pred(Predicate::percentile_at_least(
                Rect::from_bounds(&[-0.5, -0.5], &[0.5, 0.5]),
                0.5,
            )),
        ]);
        let serial_hits = engine_serial.try_query_with(&expr, &mut QueryScratch::new()).unwrap();

        for t in THREADS {
            let opts = BuildOptions::with_threads(t);
            let pref = PrefIndex::build_opts(&syns, 1, pref_params.clone(), &opts);
            prop_assert_eq!(pref.query(&v, a), pref_serial.query(&v, a));
            prop_assert_eq!(pref.slack().to_bits(), pref_serial.slack().to_bits());
            prop_assert_eq!(pref.margin().to_bits(), pref_serial.margin().to_bits());
            prop_assert_eq!(pref.memory_bytes(), pref_serial.memory_bytes());

            let multi = PrefMultiIndex::build_opts(&syns, 1, 2, pref_params.clone(), &opts);
            prop_assert_eq!(
                multi.query(&[(v.clone(), a), (vec![0.0, 1.0], a - 0.2)]),
                multi_serial.query(&[(v.clone(), a), (vec![0.0, 1.0], a - 0.2)])
            );
            prop_assert_eq!(multi.slack().to_bits(), multi_serial.slack().to_bits());

            let engine = MixedQueryEngine::build_opts(
                &repo,
                &[1],
                PtileBuildParams::exact_centralized(),
                pref_params.clone(),
                &opts,
            );
            prop_assert_eq!(engine.try_query_with(&expr, &mut QueryScratch::new()).unwrap(), serial_hits.clone());
            prop_assert_eq!(
                engine.ptile_slack().to_bits(),
                engine_serial.ptile_slack().to_bits()
            );
            prop_assert_eq!(
                engine.pref_slack(1).unwrap().to_bits(),
                engine_serial.pref_slack(1).unwrap().to_bits()
            );
        }
    }
}

/// Large sampled datasets (support > the 512-point weight-sample cap), so
/// the per-dataset RNG streams are actually consumed: the sampled coresets —
/// and everything derived from them — must still be independent of the
/// thread count.
#[test]
fn sampled_builds_are_thread_count_invariant() {
    let repo = mixed_repo(24, 1500, 1, 0x9A12);
    let syns = repo.exact_synopses();
    let params = PtileBuildParams::default().with_rect_budget(200);

    let serial = PtileRangeIndex::build_opts(&syns, params.clone(), &BuildOptions::serial());
    assert!(serial.eps() > 0.0, "sampling path must be engaged");
    let queries: Vec<(Rect, Interval)> = (0..8)
        .map(|q| {
            let lo = q as f64 * 9.0;
            (
                Rect::interval(lo, lo + 15.0),
                Interval::new(0.05 * q as f64, 0.1 + 0.1 * q as f64),
            )
        })
        .collect();
    for t in [2usize, 3, 8] {
        let opts = BuildOptions::with_threads(t);
        let par = PtileRangeIndex::build_opts(&syns, params.clone(), &opts);
        assert_eq!(par.eps().to_bits(), serial.eps().to_bits());
        assert_eq!(par.margin().to_bits(), serial.margin().to_bits());
        assert_eq!(par.memory_bytes(), serial.memory_bytes());
        for (rect, theta) in &queries {
            assert_eq!(
                par.query(rect, *theta),
                serial.query(rect, *theta),
                "threads = {t}"
            );
        }
    }
}
