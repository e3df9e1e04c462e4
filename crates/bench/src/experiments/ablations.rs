//! A1–A5 — ablations of the design choices argued in the module docs of
//! `dds_core::ptile` and `dds_rangetree`.

use super::setup::{clustered_workload, mixed_workload, ptile_queries};
use super::Scale;
use crate::table::{fmt_bytes, fmt_duration, Table};
use crate::timing::{median_duration, time};
use dds_core::framework::Interval;
use dds_core::guarantee::check_ptile;
use dds_core::pool::BuildOptions;
use dds_core::ptile::{PtileBuildParams, PtileThresholdIndex};
use dds_geom::{CoordGrid, Point, Rect};
use dds_rangetree::{BruteForce, BuildableIndex, KdTree, OrthoIndex, RangeTree, Region};
use dds_synopsis::{
    error, EquiDepthHistogram, GaussianMixtureSynopsis, GridHistogram, PercentileSynopsis,
    UniformSampleSynopsis,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A1 — one-step-expansion pairs vs the paper's literal pair enumeration:
/// pair counts and agreement of the query-matchable pair on random queries.
pub fn a1_pair_enumeration(_scale: Scale) -> Table {
    let mut table = Table::new(
        "A1 — canonical pairs: literal enumeration vs one-step expansion",
        &[
            "sample",
            "|R_i|",
            "literal pairs",
            "one-step pairs",
            "queries",
            "mismatches",
        ],
    );
    let mut rng = StdRng::seed_from_u64(0xA1);
    for s in [6usize, 10, 14, 18] {
        let pts: Vec<Point> = (0..s)
            .map(|_| Point::one(rng.gen_range(0.0..100.0)))
            .collect();
        // The literal enumeration needs the paper's bounding-box facet
        // projections S̄ to have matchable pairs near the extremes; build
        // both representations over the same box-augmented grid (queries
        // stay strictly inside the box).
        let bbox = Rect::interval(-10.0, 110.0);
        let grid = CoordGrid::with_box(&pts, &bbox);
        let rects = grid.enumerate_rects();
        // Literal Algorithm-3 enumeration: all canonical pairs.
        let mut literal: Vec<(Rect, Rect)> = Vec::new();
        for rho in &rects {
            for hat in &rects {
                if grid.is_canonical_pair(rho, hat) {
                    literal.push((rho.clone(), hat.clone()));
                }
            }
        }
        // One pair per rectangle.
        let onestep: Vec<(Rect, Rect)> = rects
            .iter()
            .map(|r| (r.clone(), grid.one_step_expansion(r)))
            .collect();
        // Agreement: for random queries, the matchable pair (ρ ⊆ R ⊂⊂ ρ̂)
        // must select the same maximal ρ in both representations.
        let mut mismatches = 0usize;
        let n_queries = 200;
        for _ in 0..n_queries {
            // Queries strictly inside the bounding box, per the paper's
            // WLOG assumption (Section 4.3). The ±∞-guard representation
            // also answers out-of-box queries; the literal one cannot.
            let a = rng.gen_range(-5.0..80.0);
            let b = a + rng.gen_range(0.0..25.0);
            let r = Rect::interval(a, b);
            let pick = |pairs: &[(Rect, Rect)]| -> Vec<Rect> {
                let mut hits: Vec<Rect> = pairs
                    .iter()
                    .filter(|(rho, hat)| r.contains_rect(rho) && hat.strictly_contains(&r))
                    .map(|(rho, _)| rho.clone())
                    .collect();
                hits.dedup_by(|x, y| x == y);
                hits
            };
            if pick(&literal) != pick(&onestep) {
                mismatches += 1;
            }
        }
        table.row(vec![
            s.to_string(),
            rects.len().to_string(),
            literal.len().to_string(),
            onestep.len().to_string(),
            n_queries.to_string(),
            mismatches.to_string(),
        ]);
    }
    table
}

/// A2 — orthogonal-search backend: kd-tree vs multi-level range tree vs
/// brute force, on the 3-dim lifted points of the threshold structure.
pub fn a2_backend(scale: Scale) -> Table {
    let mut table = Table::new(
        "A2 — search backend on lifted points (d=1 ⇒ 3 dims)",
        &[
            "points", "kd build", "kd/q", "rt build", "rt/q", "rt bytes", "brute/q",
        ],
    );
    let mut rng = StdRng::seed_from_u64(0xA2);
    let sweep = if scale.quick {
        vec![10_000usize]
    } else {
        vec![10_000usize, 50_000, 200_000]
    };
    for n in sweep {
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let lo = rng.gen_range(0.0..100.0);
                let hi = lo + rng.gen_range(0.0..20.0);
                vec![lo, hi, rng.gen_range(0.0..1.0)]
            })
            .collect();
        let (kd, t_kd) = time(|| KdTree::build(3, pts.clone()));
        let (rt, t_rt) = time(|| RangeTree::build(3, pts.clone()));
        let brute = BruteForce::build(3, pts.clone());
        let mut q_kd = Vec::new();
        let mut q_rt = Vec::new();
        let mut q_b = Vec::new();
        for _ in 0..scale.queries() {
            let a = rng.gen_range(0.0..80.0);
            let region = Region::all(3)
                .with_lo(0, a, false)
                .with_hi(1, a + 15.0, false)
                .with_lo(2, 0.7, false);
            let mut out = Vec::new();
            let (_, d) = time(|| kd.report(&region, &mut out));
            q_kd.push(d);
            out.clear();
            let (_, d) = time(|| rt.report(&region, &mut out));
            q_rt.push(d);
            out.clear();
            let (_, d) = time(|| brute.report(&region, &mut out));
            q_b.push(d);
        }
        table.row(vec![
            n.to_string(),
            fmt_duration(t_kd),
            fmt_duration(median_duration(q_kd)),
            fmt_duration(t_rt),
            fmt_duration(median_duration(q_rt)),
            fmt_bytes(rt.memory_bytes()),
            fmt_duration(median_duration(q_b)),
        ]);
    }
    table
}

/// A3 — lazy tombstoning vs the paper's eager group deletion in the
/// threshold query loop.
pub fn a3_lazy_vs_eager(scale: Scale) -> Table {
    let mut table = Table::new(
        "A3 — query enumeration strategy: lazy tombstones vs eager group deletion",
        &["N", "avg OUT", "lazy/q", "eager/q", "disagreements"],
    );
    let sweep = if scale.quick {
        vec![500usize]
    } else {
        vec![1000usize, 4000, 16000]
    };
    for n in sweep {
        let wl = clustered_workload(n, 300, 1, 0xA3);
        let params = PtileBuildParams::default().with_rect_budget(496);
        let mut idx =
            PtileThresholdIndex::build_opts(&wl.synopses, params, &BuildOptions::serial());
        let queries = ptile_queries(&wl, scale.queries(), 15, idx.margin(), 0xA3 + 1);
        let mut t_lazy = Vec::new();
        let mut t_eager = Vec::new();
        let mut out_total = 0usize;
        let mut disagreements = 0usize;
        for q in &queries {
            let (mut lazy, d) = time(|| idx.query(&q.rect, q.a));
            t_lazy.push(d);
            let (mut eager, d) = time(|| idx.query_eager(&q.rect, q.a));
            t_eager.push(d);
            out_total += lazy.len();
            lazy.sort_unstable();
            eager.sort_unstable();
            if lazy != eager {
                disagreements += 1;
            }
        }
        table.row(vec![
            n.to_string(),
            format!("{:.1}", out_total as f64 / queries.len() as f64),
            fmt_duration(median_duration(t_lazy)),
            fmt_duration(median_duration(t_eager)),
            disagreements.to_string(),
        ]);
    }
    table
}

/// A4 — the ε ↔ space tradeoff: rectangle budget sweep.
pub fn a4_eps_budget(scale: Scale) -> Table {
    let mut table = Table::new(
        "A4 — ε vs space: per-dataset rectangle budget sweep (threshold index)",
        &[
            "budget",
            "sample",
            "provable ε",
            "lifted",
            "bytes",
            "index/q",
            "precision",
        ],
    );
    let n = if scale.quick { 300 } else { 1000 };
    let wl = mixed_workload(n, 2000, 1, 0xA4);
    let queries = ptile_queries(&wl, scale.queries(), 10, 0.3, 0xA4 + 1);
    for budget in [28usize, 120, 496, 2016, 8128] {
        let params = PtileBuildParams::default().with_rect_budget(budget);
        let (idx, _build) =
            time(|| PtileThresholdIndex::build_opts(&wl.synopses, params, &BuildOptions::serial()));
        let mut t_q = Vec::new();
        let (mut exact, mut reported) = (0usize, 0usize);
        for q in &queries {
            let (hits, d) = time(|| idx.query(&q.rect, q.a));
            t_q.push(d);
            let check = check_ptile(
                &wl.sets,
                &q.rect,
                Interval::new(q.a, 1.0),
                &hits,
                idx.slack(),
            );
            exact += check.exact_out;
            reported += check.reported;
        }
        // Sample size implied by the budget for d=1: s(s+1)/2 <= budget.
        let sample = (((8.0 * budget as f64 + 1.0).sqrt() - 1.0) / 2.0).floor() as usize;
        table.row(vec![
            budget.to_string(),
            sample.to_string(),
            format!("{:.3}", idx.eps()),
            idx.lifted_points().to_string(),
            fmt_bytes(idx.memory_bytes()),
            fmt_duration(median_duration(t_q)),
            format!("{:.3}", exact as f64 / reported.max(1) as f64),
        ]);
    }
    table
}

/// A5 — synopsis families at comparable byte budgets: measured δ and
/// downstream precision.
pub fn a5_synopsis_families(scale: Scale) -> Table {
    let mut table = Table::new(
        "A5 — synopsis families at ~equal byte budget (federated threshold index)",
        &["synopsis", "bytes/ds", "measured δ", "missed", "precision"],
    );
    let n = if scale.quick { 150 } else { 400 };
    let wl = mixed_workload(n, 1500, 1, 0xA5);
    let mut rng = StdRng::seed_from_u64(0xA5 + 1);
    let queries = ptile_queries(&wl, scale.queries(), 12, 0.2, 0xA5 + 2);

    // ~2 KiB per dataset for every family.
    let families: Vec<(&str, Vec<Box<dyn PercentileSynopsis + Sync>>)> = vec![
        (
            "uniform sample (64 pts)",
            wl.sets
                .iter()
                .map(|p| {
                    Box::new(UniformSampleSynopsis::from_points(p, 64, 0.001, &mut rng))
                        as Box<dyn PercentileSynopsis + Sync>
                })
                .collect(),
        ),
        (
            "equi-depth hist (256)",
            wl.sets
                .iter()
                .map(|p| {
                    Box::new(EquiDepthHistogram::from_points(p, 256))
                        as Box<dyn PercentileSynopsis + Sync>
                })
                .collect(),
        ),
        (
            "equi-width grid (128)",
            wl.sets
                .iter()
                .map(|p| {
                    Box::new(GridHistogram::from_points(p, 128))
                        as Box<dyn PercentileSynopsis + Sync>
                })
                .collect(),
        ),
        (
            "gaussian mixture (8)",
            wl.sets
                .iter()
                .map(|p| {
                    Box::new(GaussianMixtureSynopsis::fit(p, 8, 10, &mut rng))
                        as Box<dyn PercentileSynopsis + Sync>
                })
                .collect(),
        ),
    ];
    for (name, synopses) in families {
        let deltas: Vec<f64> = synopses
            .iter()
            .zip(&wl.sets)
            .map(|(s, pts)| {
                (1.5 * error::estimate_percentile_error(s, pts, 60, &mut rng) + 0.01)
                    .clamp(0.01, 0.6)
            })
            .collect();
        let measured = deltas.iter().fold(0.0f64, |a, &b| a.max(b));
        let bytes = synopses.iter().map(|s| s.memory_bytes()).sum::<usize>() / n;
        let params = PtileBuildParams::default().with_rect_budget(496);
        let idx = PtileThresholdIndex::build_with_deltas_opts(
            &synopses,
            Some(&deltas),
            params,
            &BuildOptions::serial(),
        );
        let (mut missed, mut exact, mut reported) = (0usize, 0usize, 0usize);
        for q in &queries {
            let hits = idx.query(&q.rect, q.a);
            let check = check_ptile(
                &wl.sets,
                &q.rect,
                Interval::new(q.a, 1.0),
                &hits,
                idx.slack(),
            );
            missed += check.missed.len();
            exact += check.exact_out;
            reported += check.reported;
        }
        table.row(vec![
            name.to_string(),
            fmt_bytes(bytes),
            format!("{measured:.4}"),
            missed.to_string(),
            format!("{:.3}", exact as f64 / reported.max(1) as f64),
        ]);
    }
    table
}
