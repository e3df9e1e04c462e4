//! E18 — synopsis routing: how much more does the mass bound prune than
//! the bounding box, and at what (zero) cost to answers?
//!
//! The setup mirrors production traffic where routing matters: a catalog
//! partitioned **round-robin** over shards (each shard sees the full
//! flavour mix, so every shard's per-attribute bounding box spans
//! essentially the whole value range — the box tier is blind), queried by
//! a *selective* stream ([`RequestStreamSpec::selective`]): narrow
//! interior rectangles asking `percentile_at_least` with a θ lower bound
//! far above the build's sampling margin. Sweeps rectangle width
//! (selectivity) × shard count, and for each row runs the same batch on
//! three engines over identical shard layouts:
//!
//! * **unrouted** — `Routing::Off`, the correctness reference;
//! * **box** — `Routing::BoxOnly`, the pre-synopsis engine;
//! * **full** — box tier + synopsis mass bound (the default).
//!
//! Columns report the per-row (expression, shard) skip counts of each
//! tier and the full engine's batch time. `=unrouted` asserts all three
//! engines answered the entire batch **byte-identically** — the
//! zero-false-negative claim at experiment scale. At the sharpest
//! configuration (most shards, narrowest rectangles) the run additionally
//! asserts the synopsis tier skipped at least 3× what the box tier did —
//! the headline pruning win this layer exists for.

use super::Scale;
use crate::table::{fmt_duration, Table};
use crate::timing::time;
use dds_core::framework::{LogicalExpr, Repository};
use dds_core::pool::BuildOptions;
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::shard::{Routing, ShardedEngine};
use dds_workload::{RepoSpec, RequestStreamSpec, SelectiveShape};

fn bench_params(n: usize) -> PtileBuildParams {
    PtileBuildParams::default()
        .with_rect_budget(496)
        .with_phi_datasets(n)
}

/// One engine per routing configuration over the same round-robin layout.
fn build_engine(spec: &RepoSpec, k: usize, n: usize, routing: Routing) -> ShardedEngine {
    let mut svc = ShardedEngine::new(
        &[1],
        bench_params(n),
        PrefBuildParams::exact_centralized().with_eps(0.05),
    )
    .with_routing(routing);
    for shard in spec.shards(k) {
        svc.try_add_shard_opts(
            &Repository::from_point_sets(shard.sets),
            &shard.global_ids,
            &BuildOptions::default(),
        )
        .expect("valid ingest");
    }
    svc
}

/// E18 — selectivity × shard-count sweep of the two routing tiers, with a
/// byte-identity assertion against the unrouted engine on every row.
pub fn e18_selective_routing(scale: Scale) -> Table {
    let mut table = Table::new(
        "E18 — synopsis routing (selective streams; box-tier vs mass-bound skips; three-engine byte-identity)",
        &[
            "N",
            "shards",
            "width%",
            "batch",
            "total",
            "/query",
            "box skips",
            "syn skips",
            "=unrouted",
        ],
    );
    let n = if scale.smoke {
        120
    } else if scale.quick {
        400
    } else {
        2000
    };
    let batch = if scale.smoke {
        24
    } else if scale.quick {
        64
    } else {
        256
    };
    let spec = RepoSpec::mixed(n, 300, 1, 0xE18);
    // Widest → narrowest, so the asserted headline row runs last.
    let widths: &[f64] = if scale.smoke {
        &[0.30, 0.02]
    } else {
        &[0.30, 0.10, 0.02]
    };
    let shard_counts: &[usize] = &[2, 4, 8];
    for &k in shard_counts {
        let unrouted = build_engine(&spec, k, n, Routing::Off);
        let box_only = build_engine(&spec, k, n, Routing::BoxOnly);
        let full = build_engine(&spec, k, n, Routing::Full);
        for &width in widths {
            let exprs: Vec<LogicalExpr> = RequestStreamSpec::selective(batch, 0xE18)
                .with_selective_shape(SelectiveShape {
                    width_pct: width,
                    theta_lo: 0.6,
                })
                .exprs(&spec);
            let opts = BuildOptions::default();
            let expected = unrouted.try_query_batch_opts(&exprs, &opts);
            let box_before = (
                box_only.shards_routed_past(),
                box_only.shards_routed_by_synopsis(),
            );
            let box_answers = box_only.try_query_batch_opts(&exprs, &opts);
            assert_eq!(
                box_only.shards_routed_by_synopsis(),
                box_before.1,
                "the box-only engine must never take a synopsis skip"
            );
            let full_before = (full.shards_routed_past(), full.shards_routed_by_synopsis());
            let (answers, t) = time(|| full.try_query_batch_opts(&exprs, &opts));
            let box_skips = full.shards_routed_past() - full_before.0;
            let syn_skips = full.shards_routed_by_synopsis() - full_before.1;
            // Zero false negatives, engine for engine, expression for
            // expression: routing is pure pruning.
            assert_eq!(
                answers, expected,
                "full routing diverged from unrouted (shards {k}, width {width})"
            );
            assert_eq!(
                box_answers, expected,
                "box-only routing diverged from unrouted (shards {k}, width {width})"
            );
            if k == *shard_counts.last().unwrap() && width == *widths.last().unwrap() {
                assert!(
                    syn_skips > 0 && syn_skips >= 3 * box_skips,
                    "the mass bound must out-prune the box ≥3× on narrow interior \
                     traffic at {k} shards (box {box_skips}, synopsis {syn_skips})"
                );
            }
            table.row(vec![
                n.to_string(),
                k.to_string(),
                format!("{:.0}%", width * 100.0),
                batch.to_string(),
                fmt_duration(t),
                fmt_duration(t / batch as u32),
                box_skips.to_string(),
                syn_skips.to_string(),
                "✓".to_string(),
            ]);
        }
    }
    table
}
