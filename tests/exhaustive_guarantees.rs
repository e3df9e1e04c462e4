//! Bounded-exhaustive guarantee checks: every query of a tiny world.
//!
//! The guarantee suites draw random rectangles over continuous data, so
//! ties, query bounds that sit exactly on data values and degenerate grids
//! are seldom drawn. Here every dataset is a small multiset over a small
//! value set (one of them holds −0.0, 0.0 and a subnormal), and every
//! query is enumerated: each interval or rectangle with endpoints on and
//! between the values, each θ on a rational grid, each direction of a
//! fixed set. The Ptile indexes run at rectangle
//! budgets {1, 2, 3, 8}, which reach the degenerate one-coordinate grid
//! (`s = 1`) at d = 1 and d = 2.
//!
//! Assertions: recall 1, and every false positive inside the reporting
//! index's own per-dataset band `slack_for(j)`; `ExactCPtile1D` equals the
//! ground truth; `PrefIndex` has recall 1.

use dds_core::framework::{Interval, Repository};
use dds_core::guarantee::check_pref;
use dds_core::pool::BuildOptions;
use dds_core::pref::{PrefBuildParams, PrefIndex};
use dds_core::ptile::{ExactCPtile1D, PtileBuildParams, PtileRangeIndex, PtileThresholdIndex};
use dds_geom::{Point, Rect};
use dds_synopsis::ExactSynopsis;

const BUDGETS: [usize; 4] = [1, 2, 3, 8];

/// Every multiset of `min..=max` values from `values`, as sorted vectors.
fn multisets(values: &[f64], min: usize, max: usize) -> Vec<Vec<f64>> {
    fn extend(
        values: &[f64],
        from: usize,
        len: usize,
        cur: &mut Vec<f64>,
        out: &mut Vec<Vec<f64>>,
    ) {
        if cur.len() == len {
            out.push(cur.clone());
            return;
        }
        for i in from..values.len() {
            cur.push(values[i]);
            extend(values, i, len, cur, out);
            cur.pop();
        }
    }
    let mut out = vec![];
    for len in min..=max {
        extend(values, 0, len, &mut vec![], &mut out);
    }
    out
}

/// The grid values, the midpoints between neighbours and one step of half
/// a spacing beyond either end: every query endpoint that can matter.
fn endpoints(values: &[f64]) -> Vec<f64> {
    let half = (values[1] - values[0]) / 2.0;
    let mut out = vec![values[0] - half];
    for &v in values {
        out.extend([v, v + half]);
    }
    out
}

/// Every interval `[lo, hi]` with `lo ≤ hi` drawn from `ends` (both
/// `[-0.0, 0.0]` and `[0.0, -0.0]` when `ends` holds both zeros).
fn intervals(ends: &[f64]) -> Vec<(f64, f64)> {
    let mut out = vec![];
    for &lo in ends {
        for &hi in ends {
            if lo <= hi {
                out.push((lo, hi));
            }
        }
    }
    out
}

/// θ lower and upper bounds: the multiples of 1/6 in [0, 1], which hold
/// every measure of a dataset of 1, 2, 3 or 6 points.
fn theta_grid() -> Vec<f64> {
    (0..=6).map(|i| f64::from(i) / 6.0).collect()
}

/// Every θ interval over [`theta_grid`].
fn thetas() -> Vec<Interval> {
    intervals(&theta_grid())
        .into_iter()
        .map(|(lo, hi)| Interval::new(lo, hi))
        .collect()
}

/// Recall 1 and per-dataset band: every `j` with `M ∈ θ` is reported, and
/// every reported `j` has `M ∈ θ` widened by `slack_for(j)`.
fn assert_banded(
    ctx: &str,
    measures: &[f64],
    theta: Interval,
    reported: &[usize],
    slack_for: impl Fn(usize) -> f64,
) {
    let mut is_reported = vec![false; measures.len()];
    for &j in reported {
        is_reported[j] = true;
    }
    for (j, &m) in measures.iter().enumerate() {
        if theta.contains(m) {
            assert!(is_reported[j], "{ctx}: missed dataset {j} (M = {m})");
        }
        if is_reported[j] {
            let band = theta.widened(slack_for(j) + 1e-9);
            assert!(
                band.contains(m),
                "{ctx}: dataset {j} (M = {m}) outside band ±{}",
                slack_for(j)
            );
        }
    }
}

/// Both Ptile indexes at every budget, over every rectangle of `rects` and
/// every θ of the grid.
fn check_ptile_world(name: &str, sets: &[Vec<Point>], rects: &[Rect]) {
    let synopses: Vec<ExactSynopsis> = sets.iter().map(|s| ExactSynopsis::new(s.clone())).collect();
    let thetas = thetas();
    let opts = BuildOptions::serial();
    for budget in BUDGETS {
        let params = PtileBuildParams::exact_centralized().with_rect_budget(budget);
        let range = PtileRangeIndex::build_opts(&synopses, params.clone(), &opts);
        let threshold = PtileThresholdIndex::build_opts(&synopses, params, &opts);
        for r in rects {
            let measures: Vec<f64> = sets.iter().map(|s| r.mass(s)).collect();
            for &theta in &thetas {
                let ctx = format!("{name} range budget {budget} R {r:?} θ {theta:?}");
                let hits = range.query(r, theta);
                assert_banded(&ctx, &measures, theta, &hits, |j| range.slack_for(j));
                if theta.hi == 1.0 {
                    let ctx = format!("{name} threshold budget {budget} R {r:?} a {}", theta.lo);
                    let hits = threshold.query(r, theta.lo);
                    assert_banded(&ctx, &measures, theta, &hits, |j| threshold.slack_for(j));
                }
            }
        }
    }
}

/// A subnormal: half the smallest normal `f64`.
const SUBNORMAL: f64 = f64::MIN_POSITIVE / 2.0;

/// 1-d worlds as `(values, min, max, query endpoints)`: every multiset of
/// `min..=max` points on `values`, queried with every interval over the
/// endpoints. Every multiset of ≤ 3 points on {0, 1, 2, 3} (34 datasets);
/// a tie-heavy world of every multiset of 4–6 points on {0, …, 4} (406);
/// and every multiset of ≤ 3 points on {−0.0, 0.0, a subnormal, 1.0}
/// (34), whose uneven values get their own endpoints: on each value,
/// between neighbours (nothing lies between the two zeros) and beyond
/// either end.
fn worlds_1d() -> Vec<(&'static [f64], usize, usize, Vec<f64>)> {
    let even: [(&'static [f64], usize, usize); 2] = [
        (&[0.0, 1.0, 2.0, 3.0], 1, 3),
        (&[0.0, 1.0, 2.0, 3.0, 4.0], 4, 6),
    ];
    let mut worlds: Vec<_> = even
        .into_iter()
        .map(|(values, min, max)| (values, min, max, endpoints(values)))
        .collect();
    let signed_zeros = [-1.0, -0.0, 0.0, SUBNORMAL / 2.0, SUBNORMAL, 0.5, 1.0, 2.0];
    worlds.push((&[-0.0, 0.0, SUBNORMAL, 1.0], 1, 3, signed_zeros.to_vec()));
    worlds
}

fn points_1d(values: &[f64], min: usize, max: usize) -> Vec<Vec<Point>> {
    multisets(values, min, max)
        .iter()
        .map(|s| s.iter().map(|&x| Point::one(x)).collect())
        .collect()
}

#[test]
fn ptile_indexes_hold_on_every_1d_query() {
    for (values, min, max, ends) in worlds_1d() {
        let rects: Vec<Rect> = intervals(&ends)
            .into_iter()
            .map(|(lo, hi)| Rect::interval(lo, hi))
            .collect();
        let name = format!("1-d, {min}–{max} points on {values:?}");
        check_ptile_world(&name, &points_1d(values, min, max), &rects);
    }
}

#[test]
fn exact_cptile_equals_the_truth_on_every_1d_query() {
    for (values, min, max, ends) in worlds_1d() {
        let sets = points_1d(values, min, max);
        let repo = Repository::from_point_sets(sets.clone());
        let rects = intervals(&ends);
        for theta in thetas() {
            let idx = ExactCPtile1D::build(&repo, theta);
            for &(lo, hi) in &rects {
                let r = Rect::interval(lo, hi);
                let want: Vec<usize> = (0..sets.len())
                    .filter(|&j| theta.contains(r.mass(&sets[j])))
                    .collect();
                let mut got = idx.query(lo, hi);
                got.sort_unstable();
                assert_eq!(got, want, "{values:?}: θ {theta:?} R [{lo}, {hi}]");
            }
        }
    }
}

/// 2-d: every multiset of 1–2 points on the 3 × 3 grid {0, 1, 2}² (54
/// datasets).
fn world_2d() -> Vec<Vec<Point>> {
    let cells: Vec<(f64, f64)> = (0..3)
        .flat_map(|x| (0..3).map(move |y| (f64::from(x), f64::from(y))))
        .collect();
    let index: Vec<f64> = (0..cells.len()).map(|i| i as f64).collect();
    multisets(&index, 1, 2)
        .into_iter()
        .map(|s| {
            s.iter()
                .map(|&i| {
                    let (x, y) = cells[i as usize];
                    Point::two(x, y)
                })
                .collect()
        })
        .collect()
}

#[test]
fn ptile_indexes_hold_on_every_2d_query() {
    let sets = world_2d();
    let sides = intervals(&endpoints(&[0.0, 1.0, 2.0]));
    let mut rects = vec![];
    for &(xlo, xhi) in &sides {
        for &(ylo, yhi) in &sides {
            rects.push(Rect::from_bounds(&[xlo, ylo], &[xhi, yhi]));
        }
    }
    check_ptile_world("2-d 1–2 on 3×3", &sets, &rects);
}

#[test]
fn pref_index_has_recall_one_on_every_direction() {
    // The 3 × 3 world moved into the unit ball: coordinates {−½, 0, ½}.
    let sets: Vec<Vec<Point>> = world_2d()
        .into_iter()
        .map(|s| {
            s.iter()
                .map(|p| Point::two(p[0] / 2.0 - 0.5, p[1] / 2.0 - 0.5))
                .collect()
        })
        .collect();
    let synopses: Vec<ExactSynopsis> = sets.iter().map(|s| ExactSynopsis::new(s.clone())).collect();
    // 16 directions between the axes, then the four axes, each also with
    // its zero component negated.
    let mut dirs: Vec<[f64; 2]> = (0..16)
        .map(|i| {
            let t = (2 * i + 1) as f64 * std::f64::consts::PI / 16.0;
            [t.cos(), t.sin()]
        })
        .collect();
    dirs.extend([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]);
    dirs.extend([[1.0, -0.0], [-0.0, 1.0], [-1.0, -0.0], [-0.0, -1.0]]);
    // Thresholds on and between every score an axis can give.
    let thresholds: Vec<f64> = (-4..=4).map(|i| f64::from(i) / 4.0).collect();
    for k in [1usize, 2] {
        let idx = PrefIndex::build_opts(
            &synopses,
            k,
            PrefBuildParams::exact_centralized(),
            &BuildOptions::serial(),
        );
        for u in &dirs {
            for &a in &thresholds {
                let hits = idx.query(u, a);
                let check = check_pref(&sets, u, k, a, &hits, idx.slack());
                assert!(
                    check.missed.is_empty(),
                    "k {k} u {u:?} a {a}: missed {:?}",
                    check.missed
                );
            }
        }
    }
}
