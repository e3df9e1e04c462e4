//! E12 — batch query throughput over the worker pool.
//!
//! The read side of a dataset-search service is read-mostly and highly
//! concurrent; after the `&self` refactor one [`MixedQueryEngine`] serves
//! any number of reader threads. This experiment measures the
//! `try_query_batch_opts` fan-out (`dds_pool::par_map_with`, per-worker
//! scratch, shared predicate-mask cache) against sequential one-at-a-time
//! execution: a threads × batch-size sweep with a speedup column, plus a
//! measured before/after allocation count for the scratch-reuse path
//! (fresh [`QueryScratch`] per query vs one reused scratch).
//!
//! Every batch row asserts bit-identical answers to the sequential
//! baseline, so the table doubles as a determinism check (the contract
//! `tests/batch_equivalence.rs` pins at small scale).

use super::setup::{mixed_workload, ptile_queries};
use super::Scale;
use crate::alloc::count_allocations;
use crate::table::{fmt_duration, Table};
use crate::timing::time;
use dds_core::engine::MixedQueryEngine;
use dds_core::framework::{LogicalExpr, Predicate, Repository};
use dds_core::pool::BuildOptions;
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::scratch::QueryScratch;

/// Expressions per distinct predicate set: batches repeat predicates (as
/// real workloads do — popular filters recur), so the shared mask cache
/// has cross-expression hits to exploit.
const DISTINCT_SHAPES: usize = 24;

fn bench_params() -> PtileBuildParams {
    PtileBuildParams::default().with_rect_budget(496)
}

/// A mixed expression pool over the standard 1-d workload: percentile
/// range/threshold literals anchored on real data plus top-1 score
/// thresholds, combined into 2–3-literal DNF shapes.
fn expression_pool(wl: &super::setup::Workload, margin: f64) -> Vec<LogicalExpr> {
    let qs = ptile_queries(wl, DISTINCT_SHAPES, 10, margin, 0xB12 + 1);
    qs.iter()
        .enumerate()
        .map(|(i, q)| {
            let score_bar = 20.0 + 60.0 * (i as f64 / DISTINCT_SHAPES as f64);
            LogicalExpr::Or(vec![
                LogicalExpr::And(vec![
                    LogicalExpr::Pred(Predicate::percentile(q.rect.clone(), q.theta)),
                    LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], 1, score_bar)),
                ]),
                LogicalExpr::Pred(Predicate::percentile_at_least(q.rect.clone(), q.a)),
            ])
        })
        .collect()
}

/// E12 — batch query throughput: threads × batch-size sweep. "speedup" is
/// sequential one-at-a-time time over this row's batch time (same batch);
/// "=seq" asserts bit-identical results. The engine's cross-call mask
/// cache is invalidated before every timed row, so rows are comparable
/// (cache-warmth effects are E14's subject, not this table's). The two allocation columns meter
/// a sequential loop with a fresh scratch per query vs one reused scratch
/// (threads = 1 row only; `n/a` without the counting allocator, i.e.
/// anywhere but the `experiments` binary).
pub fn e12_batch_query_throughput(scale: Scale) -> Table {
    let mut table = Table::new(
        "E12 — batch query throughput (try_query_batch_opts over dds-pool; shared mask cache)",
        &[
            "N",
            "batch",
            "threads",
            "total",
            "/query",
            "speedup",
            "=seq",
            "allocs/q fresh",
            "allocs/q reused",
        ],
    );
    let n = if scale.smoke {
        300
    } else if scale.quick {
        1000
    } else {
        4000
    };
    let wl = mixed_workload(n, 300, 1, 0xB12);
    let repo = Repository::from_point_sets(wl.sets.clone());
    let engine = MixedQueryEngine::build_opts(
        &repo,
        &[1],
        bench_params(),
        PrefBuildParams::exact_centralized().with_eps(0.05),
        &BuildOptions::default(),
    );
    let pool = expression_pool(&wl, engine.ptile_slack() / 2.0);
    let batch_sizes: &[usize] = if scale.smoke {
        &[8, 32]
    } else if scale.quick {
        &[32, 128]
    } else {
        &[64, 256, 1024]
    };
    for &batch in batch_sizes {
        let exprs: Vec<LogicalExpr> = (0..batch).map(|i| pool[i % pool.len()].clone()).collect();
        // Sequential baseline: one-at-a-time queries, fresh scratch each —
        // exactly what a naive caller would write.
        let (sequential, t_seq) = time(|| {
            exprs
                .iter()
                .map(|e| engine.try_query_with(e, &mut QueryScratch::new()))
                .collect::<Vec<_>>()
        });
        // Allocation metering (timing excluded from the sweep rows).
        let (_, allocs_fresh) = count_allocations(|| {
            for e in &exprs {
                let _ = engine.try_query_with(e, &mut QueryScratch::new());
            }
        });
        let (_, allocs_reused) = count_allocations(|| {
            let mut scratch = QueryScratch::new();
            for e in &exprs {
                let _ = engine.try_query_with(e, &mut scratch);
            }
        });
        let fmt_allocs = |a: Option<u64>| {
            a.map_or("n/a".to_string(), |total| {
                format!("{:.1}", total as f64 / batch as f64)
            })
        };
        for threads in [1usize, 2, 4, 8] {
            let opts = BuildOptions::with_threads(threads);
            // The mask cache is cross-call since PR 4: invalidate before
            // each timed row so every row starts cold and the speedup
            // column compares thread counts, not cache warmth (in-batch
            // dedup still applies — that is the row's own cache fill).
            engine.mask_cache().invalidate();
            let (answers, t_batch) = time(|| engine.try_query_batch_opts(&exprs, &opts));
            assert_eq!(
                answers, sequential,
                "batch answers must be bit-identical to sequential (batch {batch}, threads {threads})"
            );
            let speedup = t_seq.as_secs_f64() / t_batch.as_secs_f64().max(1e-12);
            let (af, ar) = if threads == 1 {
                (fmt_allocs(allocs_fresh), fmt_allocs(allocs_reused))
            } else {
                ("—".to_string(), "—".to_string())
            };
            table.row(vec![
                n.to_string(),
                batch.to_string(),
                threads.to_string(),
                fmt_duration(t_batch),
                fmt_duration(t_batch / batch as u32),
                format!("{speedup:.2}x"),
                "✓".to_string(),
                af,
                ar,
            ]);
        }
    }
    table
}
