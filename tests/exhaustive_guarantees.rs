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
//!
//! The same worlds are then served through `ShardedEngine` at 1 and 3
//! round-robin shards, with routing off and on: recall 1 and false
//! positives within the service's band, routed answers byte-identical to
//! unrouted ones, and the box-skip counter equal to a brute-force count
//! over the raw points.

use dds_core::framework::{Interval, LogicalExpr, MeasureFunction, Predicate, Repository};
use dds_core::guarantee::check_pref;
use dds_core::pool::BuildOptions;
use dds_core::pref::{PrefBuildParams, PrefIndex};
use dds_core::ptile::{ExactCPtile1D, PtileBuildParams, PtileRangeIndex, PtileThresholdIndex};
use dds_core::shard::{Routing, ShardedEngine};
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
/// every reported `j` has `M ∈ θ` widened by `slack_for(j)`. `ctx` names
/// the query in a failure message; it is only formatted on failure.
fn assert_banded(
    ctx: &dyn Fn() -> String,
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
            assert!(is_reported[j], "{}: missed dataset {j} (M = {m})", ctx());
        }
        if is_reported[j] {
            let band = theta.widened(slack_for(j) + 1e-9);
            assert!(
                band.contains(m),
                "{}: dataset {j} (M = {m}) outside band ±{}",
                ctx(),
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
                let ctx = || format!("{name} range budget {budget} R {r:?} θ {theta:?}");
                let hits = range.query(r, theta);
                assert_banded(&ctx, &measures, theta, &hits, |j| range.slack_for(j));
                if theta.hi == 1.0 {
                    let ctx = || format!("{name} threshold budget {budget} R {r:?} a {}", theta.lo);
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

/// Rectangle budgets of the served worlds: the degenerate one-coordinate
/// grid (budget 1, whose tail charge makes the margin positive) and a
/// finer grid (budget 8). At d = 2 both give `s = 1`, so the 2-d world
/// runs budget 8 only.
const SERVED_BUDGETS_1D: [usize; 2] = [1, 8];

/// The served worlds' percentile θs: for each lower end on the grid, the
/// threshold `[a, 1]` and the point `[a, a]`. Routing reads only `a_θ`,
/// and the indexes' handling of every upper end is checked above.
fn served_thetas() -> Vec<Interval> {
    let grid = theta_grid();
    let mut out: Vec<Interval> = grid.iter().map(|&a| Interval::new(a, 1.0)).collect();
    out.extend(
        grid.iter()
            .filter(|&&a| a < 1.0)
            .map(|&a| Interval::new(a, a)),
    );
    out
}

/// One served world's shard layout: dataset `i` has global id `i` and
/// lives on shard `i % shards`.
fn serve(sets: &[Vec<Point>], shards: usize, budget: usize, routing: Routing) -> ShardedEngine {
    let mut svc = ShardedEngine::new(
        &[1],
        PtileBuildParams::exact_centralized().with_rect_budget(budget),
        PrefBuildParams::exact_centralized(),
    )
    .with_routing(routing);
    for s in 0..shards {
        let ids: Vec<u64> = (s..sets.len()).step_by(shards).map(|i| i as u64).collect();
        let members = ids.iter().map(|&i| sets[i as usize].clone()).collect();
        svc.try_add_shard_opts(
            &Repository::from_point_sets(members),
            &ids,
            &BuildOptions::serial(),
        )
        .expect("valid ingest");
    }
    svc
}

/// The brute-force box-skip count of one predicate: the shards on which,
/// for a percentile predicate, every point lies on one side of the
/// rectangle on some axis while the clamped `a_θ` exceeds the shard's
/// margin. A top-k predicate is never a box skip.
fn brute_box_skips(pred: &Predicate, shard_points: &[Vec<&Point>], margins: &[f64]) -> u64 {
    let MeasureFunction::Percentile(r) = &pred.measure else {
        return 0;
    };
    let misses = |points: &[&Point]| {
        (0..r.dim()).any(|h| {
            points.iter().all(|p| p[h] < r.lo_at(h)) || points.iter().all(|p| p[h] > r.hi_at(h))
        })
    };
    let lo = pred.theta.lo.max(0.0);
    shard_points
        .iter()
        .zip(margins)
        .filter(|&(points, &margin)| misses(points) && lo > margin)
        .count() as u64
}

/// Serves `sets` at 1 and 3 shards (no more shards than datasets), routed
/// and unrouted, at each of `budgets`, and answers every percentile query
/// `rects × served_thetas()` and every top-k (k = 1) query along `dirs` with θ over
/// `score_thetas`. Routed answers must equal unrouted ones; both have
/// recall 1 and false positives within the service's band; and the
/// routed engine's `shards_routed_past` advances by the brute-force box
/// skips of the queries.
fn check_served_world(
    name: &str,
    sets: &[Vec<Point>],
    budgets: &[usize],
    rects: &[Rect],
    dirs: &[Vec<f64>],
    score_thetas: &[Interval],
) {
    let mut preds: Vec<Predicate> = vec![];
    for r in rects {
        for theta in served_thetas() {
            preds.push(Predicate::percentile(r.clone(), theta));
        }
    }
    for v in dirs {
        for &theta in score_thetas {
            preds.push(Predicate {
                measure: MeasureFunction::TopK { v: v.clone(), k: 1 },
                theta,
            });
        }
    }
    let exprs: Vec<LogicalExpr> = preds.iter().cloned().map(LogicalExpr::Pred).collect();
    let measures: Vec<Vec<f64>> = preds
        .iter()
        .map(|p| sets.iter().map(|s| p.measure.eval(s)).collect())
        .collect();
    let opts = BuildOptions::serial();
    for &budget in budgets {
        for shards in [1, 3.min(sets.len())] {
            let ctx = |i: usize| format!("{name} budget {budget} shards {shards} {:?}", preds[i]);
            let off = serve(sets, shards, budget, Routing::Off);
            let full = serve(sets, shards, budget, Routing::Full);
            let unrouted = off.try_query_batch_opts(&exprs, &opts);
            let routed = full.try_query_batch_opts(&exprs, &opts);
            if let Some(i) = (0..exprs.len()).find(|&i| routed[i] != unrouted[i]) {
                panic!(
                    "{}: routed {:?} ≠ unrouted {:?}",
                    ctx(i),
                    routed[i],
                    unrouted[i]
                );
            }
            let shard_points: Vec<Vec<&Point>> = (0..shards)
                .map(|s| sets.iter().skip(s).step_by(shards).flatten().collect())
                .collect();
            let margins: Vec<f64> = (0..shards)
                .map(|s| full.shard_engine(s).ptile_margin())
                .collect();
            let want: Vec<u64> = preds
                .iter()
                .map(|p| brute_box_skips(p, &shard_points, &margins))
                .collect();
            if full.shards_routed_past() != want.iter().sum::<u64>() {
                // Replay query by query to name the first disagreement.
                for (i, e) in exprs.iter().enumerate() {
                    let before = full.shards_routed_past();
                    let _ = full.try_query_batch_opts(std::slice::from_ref(e), &opts);
                    let got = full.shards_routed_past() - before;
                    assert_eq!(got, want[i], "{}: box skips (margins {margins:?})", ctx(i));
                }
            }
            let ptile_slack = full.ptile_slack();
            let pref_slack = full.shard_engine(0).pref_slack(1).expect("rank 1");
            for (i, (pred, answer)) in preds.iter().zip(&unrouted).enumerate() {
                let slack = match pred.measure {
                    MeasureFunction::Percentile(_) => ptile_slack,
                    MeasureFunction::TopK { .. } => pref_slack,
                };
                let hits: Vec<usize> = answer
                    .as_ref()
                    .expect("every rank is indexed")
                    .iter()
                    .map(|&id| id as usize)
                    .collect();
                assert_banded(&|| ctx(i), &measures[i], pred.theta, &hits, |_| slack);
            }
        }
    }
}

#[test]
fn sharded_engine_holds_on_every_1d_query() {
    let dirs = [vec![1.0], vec![-1.0]];
    for (values, min, max, ends) in worlds_1d() {
        let rects: Vec<Rect> = intervals(&ends)
            .into_iter()
            .map(|(lo, hi)| Rect::interval(lo, hi))
            .collect();
        // Top-k scores along ±1 are the values and their negations.
        let mut score_ends: Vec<f64> = ends.iter().flat_map(|&x| [x, -x]).collect();
        score_ends.sort_by(f64::total_cmp);
        score_ends.dedup_by(|a, b| a.to_bits() == b.to_bits());
        let score_thetas: Vec<Interval> = intervals(&score_ends)
            .into_iter()
            .map(|(lo, hi)| Interval::new(lo, hi))
            .collect();
        let name = format!("served 1-d, {min}–{max} points on {values:?}");
        check_served_world(
            &name,
            &points_1d(values, min, max),
            &SERVED_BUDGETS_1D,
            &rects,
            &dirs,
            &score_thetas,
        );
    }
    // A bounded top-k θ far below one dataset's score: {0.05} qualifies
    // for θ = [0, 0.2] along +1, {0.9} lies far outside the 0.1 band.
    let sets = vec![vec![Point::one(0.05)], vec![Point::one(0.9)]];
    check_served_world(
        "served top-k upper bound",
        &sets,
        &SERVED_BUDGETS_1D,
        &[Rect::interval(0.0, 1.0)],
        &[vec![1.0]],
        &[Interval::new(0.0, 0.2)],
    );
}

#[test]
fn sharded_engine_holds_on_every_2d_query() {
    let sets = world_2d();
    let sides = intervals(&endpoints(&[0.0, 1.0, 2.0]));
    let mut rects = vec![];
    for &(xlo, xhi) in &sides {
        for &(ylo, yhi) in &sides {
            rects.push(Rect::from_bounds(&[xlo, ylo], &[xhi, yhi]));
        }
    }
    check_served_world("served 2-d 1–2 on 3×3", &sets, &[8], &rects, &[], &[]);
}
