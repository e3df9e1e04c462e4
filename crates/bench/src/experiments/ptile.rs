//! E1 / E2 / E3 / E5 — the Ptile query-time and guarantee experiments
//! (Theorems 4.4, 4.11, C.8).

use super::setup::{clustered_workload, mixed_workload, ptile_queries};
use super::Scale;
use crate::table::{fmt_duration, Table};
use crate::timing::{median_duration, time};
use dds_core::baseline::{LinearScanPtile, SynopsisScanPtile};
use dds_core::framework::{Interval, Repository};
use dds_core::guarantee::{check_ptile, check_ptile_conjunction};
use dds_core::pool::BuildOptions;
use dds_core::ptile::{PtileBuildParams, PtileMultiIndex, PtileRangeIndex, PtileThresholdIndex};

fn bench_params() -> PtileBuildParams {
    // Moderate per-dataset rectangle budget; the empirical sampling margin
    // (validated by E2) keeps bands useful at this budget.
    // Budget 496 ⇒ 31 grid coordinates per dimension; with the decoupled
    // 512-point weight sample the measured per-dataset budgets land around
    // ε_i ≈ 0.18 (sampling ≈ 0.11 + grid gaps ≈ 0.07) — provable margins,
    // no empirical override needed.
    PtileBuildParams::default().with_rect_budget(496)
}

/// E1 — Theorem 4.4 shape: index query time grows polylogarithmically in N
/// while both scan baselines grow linearly.
pub fn e1_threshold_query_scaling(scale: Scale) -> Table {
    let mut table = Table::new(
        "E1 — Ptile threshold: query time vs N (Thm 4.4 vs Ω(N) baselines; d=1)",
        &[
            "N",
            "build",
            "lifted",
            "index/q",
            "per-out",
            "exact-scan/q",
            "fainder/q",
            "avg OUT",
        ],
    );
    for n in scale.n_sweep() {
        let wl = clustered_workload(n, 400, 1, 0xE1);
        let (idx, build) = time(|| {
            PtileThresholdIndex::build_opts(&wl.synopses, bench_params(), &BuildOptions::serial())
        });
        let queries = ptile_queries(&wl, scale.queries(), 10, idx.margin(), 0xE1 + 1);
        let repo = Repository::from_point_sets(wl.sets.clone());
        let scan = LinearScanPtile::build(&repo);
        let fainder = SynopsisScanPtile::new(wl.synopses.clone(), 0.0);

        let mut t_idx = Vec::new();
        let mut t_scan = Vec::new();
        let mut t_fainder = Vec::new();
        let mut out_total = 0usize;
        for q in &queries {
            let (hits, d) = time(|| idx.query(&q.rect, q.a));
            t_idx.push(d);
            out_total += hits.len();
            let theta = Interval::new(q.a, 1.0);
            let (_, d) = time(|| scan.query(&q.rect, theta));
            t_scan.push(d);
            let (_, d) = time(|| fainder.query(&q.rect, theta));
            t_fainder.push(d);
        }
        let avg_out = out_total as f64 / queries.len() as f64;
        let per_out = median_duration(t_idx.clone()).as_secs_f64() * 1e6 / (1.0 + avg_out);
        table.row(vec![
            n.to_string(),
            fmt_duration(build),
            idx.lifted_points().to_string(),
            fmt_duration(median_duration(t_idx)),
            format!("{per_out:.1}us"),
            fmt_duration(median_duration(t_scan)),
            fmt_duration(median_duration(t_fainder)),
            format!("{avg_out:.1}"),
        ]);
    }
    table
}

/// E2 — Theorem 4.4 guarantee: recall = 1 and band compliance, centralized.
pub fn e2_threshold_guarantees(scale: Scale) -> Table {
    let mut table = Table::new(
        "E2 — Ptile threshold guarantees (Thm 4.4): recall and ε-band, centralized",
        &[
            "N",
            "d",
            "queries",
            "missed",
            "band viol.",
            "exact out",
            "reported",
            "precision",
        ],
    );
    for (n, d) in [(2000usize, 1usize), (1000, 2)] {
        let n = if scale.quick { n / 4 } else { n };
        let wl = mixed_workload(n, 400, d, 0xE2);
        let idx =
            PtileThresholdIndex::build_opts(&wl.synopses, bench_params(), &BuildOptions::serial());
        let queries = ptile_queries(&wl, scale.queries(), 12, idx.margin(), 0xE2 + 1);
        let slack = idx.slack();
        let mut missed = 0usize;
        let mut viol = 0usize;
        let mut exact = 0usize;
        let mut reported = 0usize;
        for q in &queries {
            let hits = idx.query(&q.rect, q.a);
            let check = check_ptile(&wl.sets, &q.rect, Interval::new(q.a, 1.0), &hits, slack);
            missed += check.missed.len();
            viol += check.out_of_band.len();
            exact += check.exact_out;
            reported += check.reported;
        }
        table.row(vec![
            n.to_string(),
            d.to_string(),
            queries.len().to_string(),
            missed.to_string(),
            viol.to_string(),
            exact.to_string(),
            reported.to_string(),
            format!("{:.3}", exact as f64 / reported.max(1) as f64),
        ]);
    }
    table
}

/// E3 — Theorem 4.11: range predicates, query scaling plus guarantees.
pub fn e3_range_queries(scale: Scale) -> Table {
    let mut table = Table::new(
        "E3 — Ptile range predicates (Thm 4.11): scaling and two-sided band",
        &[
            "N",
            "build",
            "index/q",
            "exact-scan/q",
            "missed",
            "band viol.",
            "precision",
        ],
    );
    for n in scale.n_sweep() {
        let wl = clustered_workload(n, 400, 1, 0xE3);
        let (idx, build) = time(|| {
            PtileRangeIndex::build_opts(&wl.synopses, bench_params(), &BuildOptions::serial())
        });
        let queries = ptile_queries(&wl, scale.queries(), 10, idx.margin(), 0xE3 + 1);
        let repo = Repository::from_point_sets(wl.sets.clone());
        let scan = LinearScanPtile::build(&repo);
        let slack = idx.slack();
        let mut t_idx = Vec::new();
        let mut t_scan = Vec::new();
        let (mut missed, mut viol, mut exact, mut reported) = (0usize, 0usize, 0usize, 0usize);
        for q in &queries {
            let (hits, d) = time(|| idx.query(&q.rect, q.theta));
            t_idx.push(d);
            let (_, d) = time(|| scan.query(&q.rect, q.theta));
            t_scan.push(d);
            let check = check_ptile(&wl.sets, &q.rect, q.theta, &hits, slack);
            missed += check.missed.len();
            viol += check.out_of_band.len();
            exact += check.exact_out;
            reported += check.reported;
        }
        table.row(vec![
            n.to_string(),
            fmt_duration(build),
            fmt_duration(median_duration(t_idx)),
            fmt_duration(median_duration(t_scan)),
            missed.to_string(),
            viol.to_string(),
            format!("{:.3}", exact as f64 / reported.max(1) as f64),
        ]);
    }
    table
}

/// E5 — Theorem C.8: conjunctions of two range predicates.
pub fn e5_multi_predicates(scale: Scale) -> Table {
    let mut table = Table::new(
        "E5 — logical expressions, m = 2 conjunctions (Thm C.8)",
        &[
            "N",
            "build",
            "lifted",
            "index/q",
            "missed",
            "band viol.",
            "avg OUT",
        ],
    );
    let sweep = if scale.quick {
        vec![250, 500]
    } else {
        vec![500, 1000, 2000, 4000]
    };
    for n in sweep {
        let wl = clustered_workload(n, 300, 1, 0xE5);
        let params = PtileBuildParams::default()
            .with_rect_budget(4096) // per-slot budget 64 after the m-th root
            .with_empirical_eps(0.2);
        let (idx, build) =
            time(|| PtileMultiIndex::build_opts(&wl.synopses, 2, params, &BuildOptions::serial()));
        let qs = ptile_queries(&wl, scale.queries(), 20, idx.margin(), 0xE5 + 1);
        let slack = idx.slack();
        let mut t_idx = Vec::new();
        let (mut missed, mut viol, mut out_total) = (0usize, 0usize, 0usize);
        let mut n_queries = 0usize;
        for pair in qs.chunks(2) {
            if pair.len() < 2 {
                break;
            }
            let preds = vec![
                (pair[0].rect.clone(), pair[0].theta),
                (pair[1].rect.clone(), pair[1].theta),
            ];
            let (hits, d) = time(|| idx.query(&preds));
            t_idx.push(d);
            out_total += hits.len();
            n_queries += 1;
            let check = check_ptile_conjunction(&wl.sets, &preds, &hits, slack);
            missed += check.missed.len();
            viol += check.out_of_band.len();
        }
        table.row(vec![
            n.to_string(),
            fmt_duration(build),
            idx.lifted_points().to_string(),
            fmt_duration(median_duration(t_idx)),
            missed.to_string(),
            viol.to_string(),
            format!("{:.1}", out_total as f64 / n_queries.max(1) as f64),
        ]);
    }
    table
}
