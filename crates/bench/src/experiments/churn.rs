//! E16 — shard lifecycle under churn: split, merge, and rebalance.
//!
//! The operational story behind `ShardedEngine`'s lifecycle ops: a
//! service starts from a **skewed** partition
//! ([`RepoSpec::shards_skewed`] — one oversized head shard and a tail of
//! small ones, the realistic bad case), measures per-shard load over a
//! query batch, lets [`rebalance_plan_with`] propose splits from those
//! counters, applies the plan, and then survives rounds of ongoing churn
//! (split the largest shard, merge the two smallest) with queries
//! interleaved throughout. Every row asserts **`=unsharded`**: the
//! served answers stay bit-identical to a single unsharded engine across
//! every transition — the `tests/shard_equivalence.rs` contract at
//! experiment scale. The `max/min` column is the dataset-count balance
//! factor, showing the rebalance actually flattening the skew.
//!
//! [`RepoSpec::shards_skewed`]: dds_workload::RepoSpec::shards_skewed
//! [`rebalance_plan_with`]: dds_core::shard::ShardedEngine::rebalance_plan_with

use super::setup::ptile_queries;
use super::Scale;
use crate::table::{fmt_duration, Table};
use crate::timing::time;
use dds_core::engine::MixedQueryEngine;
use dds_core::framework::{LogicalExpr, Predicate, Repository};
use dds_core::pool::BuildOptions;
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::scratch::QueryScratch;
use dds_core::shard::{GlobalId, RebalanceAction, RebalanceConfig, ShardedEngine};
use dds_workload::RepoSpec;

/// Distinct query shapes; batches cycle through them (as in E12/E14).
const DISTINCT_SHAPES: usize = 24;

fn bench_params() -> PtileBuildParams {
    PtileBuildParams::default().with_rect_budget(496)
}

fn pref_params() -> PrefBuildParams {
    PrefBuildParams::exact_centralized().with_eps(0.05)
}

/// The same mixed DNF shapes E14 uses, seeded independently.
fn expression_pool(wl: &super::setup::Workload, margin: f64) -> Vec<LogicalExpr> {
    let qs = ptile_queries(wl, DISTINCT_SHAPES, 10, margin, 0xE16 + 1);
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

/// E16 — lifecycle churn: skewed start, counter-driven rebalance, then
/// split/merge rounds, each phase timed and asserted byte-identical to
/// the unsharded baseline.
pub fn e16_shard_churn(scale: Scale) -> Table {
    let mut table = Table::new(
        "E16 — shard lifecycle under churn (skewed start → rebalance → split/merge rounds; answers pinned to unsharded)",
        &[
            "N",
            "threads",
            "phase",
            "shards",
            "max/min",
            "transitions",
            "total",
            "/query",
            "=unsharded",
        ],
    );
    let n = if scale.smoke {
        300
    } else if scale.quick {
        1000
    } else {
        4000
    };
    let batch = if scale.smoke {
        32
    } else if scale.quick {
        128
    } else {
        256
    };
    let rounds = if scale.smoke {
        2
    } else if scale.quick {
        3
    } else {
        5
    };
    let spec = RepoSpec::mixed(n, 300, 1, 0xE16);
    let wl = super::setup::mixed_workload(n, 300, 1, 0xE16);
    let unsharded_engine = MixedQueryEngine::build_opts(
        &Repository::from_point_sets(wl.sets.clone()),
        &[1],
        bench_params().with_phi_datasets(n),
        pref_params(),
        &BuildOptions::default(),
    );
    let pool = expression_pool(&wl, unsharded_engine.ptile_slack() / 2.0);
    let exprs: Vec<LogicalExpr> = (0..batch).map(|i| pool[i % pool.len()].clone()).collect();
    let baseline: Vec<Vec<GlobalId>> = exprs
        .iter()
        .map(|e| {
            e_to_ids(
                unsharded_engine
                    .try_query_with(e, &mut QueryScratch::new())
                    .expect("rank 1 is indexed in this workload"),
            )
        })
        .collect();
    let thread_counts: &[usize] = if scale.smoke { &[1, 4] } else { &[1, 4, 8] };
    for &threads in thread_counts {
        let opts = BuildOptions::with_threads(threads);
        // The skewed start: a heavy head shard and a small tail — what a
        // catalog that grew in place looks like before any rebalancing.
        let mut svc = ShardedEngine::new(&[1], bench_params().with_phi_datasets(n), pref_params());
        for shard in spec.shards_skewed(3) {
            svc.try_add_shard_opts(
                &Repository::from_point_sets(shard.sets),
                &shard.global_ids,
                &opts,
            )
            .expect("valid ingest");
        }
        let mut row =
            |svc: &ShardedEngine, phase: &str, transitions: String, total: std::time::Duration| {
                table.row(vec![
                    n.to_string(),
                    threads.to_string(),
                    phase.to_string(),
                    svc.n_shards().to_string(),
                    balance_factor(svc),
                    transitions,
                    fmt_duration(total),
                    fmt_duration(total / batch as u32),
                    "✓".to_string(),
                ]);
            };
        // Phase 1 — query the skewed layout. This also warms the
        // per-shard query-load counters the rebalance planner reads.
        let t = run_and_assert(&svc, &exprs, &opts, &baseline, "skewed");
        row(&svc, "skewed", "—".to_string(), t);
        // Phase 2 — counter-driven rebalance: the oversized head shard
        // must propose a split (upper half of its ascending ids).
        let cfg = RebalanceConfig {
            max_datasets: n / 3,
            merge_under: 0, // merges exercised by the churn rounds below
            hot_factor: 4.0,
        };
        let plan = svc.rebalance_plan_with(&cfg);
        let splits = plan
            .iter()
            .filter(|a| matches!(a, RebalanceAction::Split { .. }))
            .count();
        assert!(
            splits >= 1,
            "the skewed head shard must exceed max_datasets = {} and propose a split",
            cfg.max_datasets
        );
        svc.apply_rebalance_opts(&plan, &opts)
            .expect("a freshly computed plan applies cleanly");
        let t = run_and_assert(&svc, &exprs, &opts, &baseline, "rebalanced");
        row(&svc, "rebalanced", format!("{splits} split(s)"), t);
        // Phase 3 — ongoing churn: each round splits the largest shard
        // and merges the two smallest, with the batch re-run (and
        // re-asserted) after the storm. Shard count is conserved per
        // round; answers never move.
        for round in 1..=rounds {
            let loads = svc.shard_loads();
            let largest = loads
                .iter()
                .max_by_key(|l| (l.datasets, l.shard))
                .expect("service is non-empty");
            let mut ids = svc.global_ids(largest.shard).to_vec();
            ids.sort_unstable();
            let move_ids = ids.split_off(ids.len() / 2);
            svc.try_split_shard_opts(largest.shard, &move_ids, &opts)
                .expect("the largest shard always has two sides to split");
            let mut by_size = svc.shard_loads();
            by_size.sort_by_key(|l| (l.datasets, l.shard));
            let (a, b) = (by_size[0].shard, by_size[1].shard);
            svc.try_merge_shards_opts(a, b, &opts)
                .expect("two distinct live shards always merge");
            assert_eq!(svc.n_datasets(), n, "churn conserves the catalog");
            let phase = format!("churn r{round}");
            let t = run_and_assert(&svc, &exprs, &opts, &baseline, &phase);
            row(&svc, &phase, "1 split + 1 merge".to_string(), t);
        }
        let stats = svc.stats_snapshot();
        assert!(
            stats.splits as usize > rounds && stats.merges as usize >= rounds,
            "lifetime counters must record every transition (splits {}, merges {})",
            stats.splits,
            stats.merges
        );
    }
    table
}

/// Times one batch and asserts every answer equals the unsharded
/// baseline's — the determinism contract this experiment exists to show
/// surviving churn.
fn run_and_assert(
    svc: &ShardedEngine,
    exprs: &[LogicalExpr],
    opts: &BuildOptions,
    baseline: &[Vec<GlobalId>],
    phase: &str,
) -> std::time::Duration {
    let (answers, t) = time(|| svc.try_query_batch_opts(exprs, opts));
    for (i, answer) in answers.iter().enumerate() {
        assert_eq!(
            answer.as_ref().expect("no missing ranks in this workload"),
            &baseline[i],
            "answers must match unsharded after '{phase}' (expr {i})"
        );
    }
    t
}

/// Dataset-count balance: largest shard over smallest, the skew the
/// rebalance plan exists to flatten.
fn balance_factor(svc: &ShardedEngine) -> String {
    let loads = svc.shard_loads();
    let max = loads.iter().map(|l| l.datasets).max().unwrap_or(0);
    let min = loads.iter().map(|l| l.datasets).min().unwrap_or(0);
    if min == 0 {
        "n/a".to_string()
    } else {
        format!("{:.1}", max as f64 / min as f64)
    }
}

/// Canonical answer form: ascending global ids.
fn e_to_ids(hits: Vec<usize>) -> Vec<GlobalId> {
    let mut ids: Vec<GlobalId> = hits.into_iter().map(|j| j as GlobalId).collect();
    ids.sort_unstable();
    ids
}
