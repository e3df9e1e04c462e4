//! E6 / E7 — the Pref experiments (Theorems 5.4 and D.4).

use super::setup::{ball_workload, pref_queries};
use super::Scale;
use crate::table::{fmt_duration, Table};
use crate::timing::{median_duration, time};
use dds_core::baseline::LinearScanPref;
use dds_core::framework::Repository;
use dds_core::guarantee::check_pref;
use dds_core::pool::BuildOptions;
use dds_core::pref::{PrefBuildParams, PrefIndex, PrefMultiIndex};

/// E6 — Theorem 5.4 shape: `O(log N + OUT)` queries vs the Ω(𝒩) scan, with
/// recall/band accounting.
pub fn e6_pref_scaling(scale: Scale) -> Table {
    let mut table = Table::new(
        "E6 — Pref threshold queries (Thm 5.4): scaling vs linear scan (d=2, k=10)",
        &[
            "N",
            "build",
            "dirs",
            "index/q",
            "scan/q",
            "missed",
            "band viol.",
            "avg OUT",
        ],
    );
    let k = 10;
    for n in scale.n_sweep() {
        let wl = ball_workload(n, 300, 2, 0xE6);
        let qs = pref_queries(&wl, k, scale.queries(), 0.01, 0xE6 + 1);
        let params = PrefBuildParams::exact_centralized().with_eps(0.05);
        let (idx, build) =
            time(|| PrefIndex::build_opts(&wl.synopses, k, params, &BuildOptions::serial()));
        let repo = Repository::from_point_sets(wl.sets.clone());
        let scan = LinearScanPref::build(&repo);
        let slack = idx.slack();
        let mut t_idx = Vec::new();
        let mut t_scan = Vec::new();
        let (mut missed, mut viol, mut out_total) = (0usize, 0usize, 0usize);
        for (v, a) in &qs {
            let (hits, d) = time(|| idx.query(v, *a));
            t_idx.push(d);
            let (_, d) = time(|| scan.query(v, k, *a));
            t_scan.push(d);
            let check = check_pref(&wl.sets, v, k, *a, &hits, slack);
            missed += check.missed.len();
            viol += check.out_of_band.len();
            out_total += hits.len();
        }
        table.row(vec![
            n.to_string(),
            fmt_duration(build),
            idx.directions().to_string(),
            fmt_duration(median_duration(t_idx)),
            fmt_duration(median_duration(t_scan)),
            missed.to_string(),
            viol.to_string(),
            format!("{:.1}", out_total as f64 / qs.len() as f64),
        ]);
    }
    table
}

/// E7 — Theorem D.4: conjunctions of two Pref predicates with lazy `T_V`
/// materialization; the first query on a direction tuple pays the build,
/// repeats are cheap.
pub fn e7_pref_multi(scale: Scale) -> Table {
    let mut table = Table::new(
        "E7 — Pref conjunctions, m = 2 (Thm D.4): lazy T_V materialization",
        &[
            "N",
            "score table",
            "first/q",
            "cached/q",
            "trees built",
            "missed",
            "avg OUT",
        ],
    );
    let k = 5;
    let sweep = if scale.quick {
        vec![500, 1000]
    } else {
        vec![1000, 4000, 16000]
    };
    for n in sweep {
        let wl = ball_workload(n, 200, 2, 0xE7);
        let qs = pref_queries(&wl, k, scale.queries(), 0.02, 0xE7 + 1);
        let params = PrefBuildParams::exact_centralized().with_eps(0.1);
        let (idx, build) = time(|| {
            PrefMultiIndex::build_opts(&wl.synopses, k, 2, params, &BuildOptions::serial())
        });
        let slack = idx.slack();
        let mut t_first = Vec::new();
        let mut t_cached = Vec::new();
        let (mut missed, mut out_total, mut n_q) = (0usize, 0usize, 0usize);
        for pair in qs.chunks(2) {
            if pair.len() < 2 {
                break;
            }
            let conj = [
                (pair[0].0.clone(), pair[0].1),
                (pair[1].0.clone(), pair[1].1),
            ];
            let (hits, d1) = time(|| idx.query(&conj));
            t_first.push(d1);
            let (_, d2) = time(|| idx.query(&conj));
            t_cached.push(d2);
            out_total += hits.len();
            n_q += 1;
            // Conjunction-level recall: every dataset clearing both legs
            // must be reported.
            let qualifies_both: Vec<usize> = (0..wl.sets.len())
                .filter(|&i| {
                    conj.iter().all(|(v, a)| {
                        dds_workload::queries::exact_kth_score(&wl.sets[i], v, k) >= *a
                    })
                })
                .collect();
            missed += qualifies_both.iter().filter(|i| !hits.contains(i)).count();
            let _ = slack;
        }
        table.row(vec![
            n.to_string(),
            fmt_duration(build),
            fmt_duration(median_duration(t_first)),
            fmt_duration(median_duration(t_cached)),
            idx.materialized_trees().to_string(),
            missed.to_string(),
            format!("{:.1}", out_total as f64 / n_q.max(1) as f64),
        ]);
    }
    table
}
