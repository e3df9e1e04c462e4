//! E18 — synopsis routing: how much more does the mass bound prune than
//! box disjointness alone, and at what (zero) cost to answers?
//!
//! The setup mirrors production traffic where routing matters: a catalog
//! partitioned **round-robin** over shards (each shard sees the full
//! flavour mix, so every shard's per-attribute sample box spans
//! essentially the whole value range — box skips are rare), queried by
//! a *selective* stream ([`RequestStreamSpec::selective`]): narrow
//! interior rectangles asking `percentile_at_least` with a θ lower bound
//! far above the build's sampling margin. Sweeps rectangle width
//! (selectivity) × shard count, and for each row runs the same batch on
//! two engines over identical shard layouts:
//!
//! * **unrouted** — `Routing::Off`, the correctness reference;
//! * **full** — the synopsis mass bound (the default).
//!
//! The full engine decides every skip from each shard's routing synopsis
//! and counts two disjoint kinds: *box skips* (`shards_routed_past`:
//! every clause's rectangle misses the synopsis's sample box on some
//! axis, which on these exact builds is the raw-point box) and *synopsis
//! skips* (`shards_routed_by_synopsis`: the rest, proven by interior
//! mass). So one engine yields both per-row (expression, shard) skip
//! counts; the columns report them beside the
//! full engine's batch time. `=unrouted` asserts both engines answered
//! the entire batch **byte-identically** — the zero-false-negative claim
//! at experiment scale. At the sharpest
//! configuration (most shards, narrowest rectangles) the run additionally
//! asserts the synopsis skips are at least 3× the box skips —
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

/// E18 — selectivity × shard-count sweep of the two skip counts, with a
/// byte-identity assertion against the unrouted engine on every row.
pub fn e18_selective_routing(scale: Scale) -> Table {
    let mut table = Table::new(
        "E18 — synopsis routing (selective streams; box vs interior-mass skips; full ≡ unrouted byte-identity)",
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
            let full_before = (full.shards_routed_past(), full.shards_routed_by_synopsis());
            let (answers, t) = time(|| full.try_query_batch_opts(&exprs, &opts));
            let box_skips = full.shards_routed_past() - full_before.0;
            let syn_skips = full.shards_routed_by_synopsis() - full_before.1;
            // Zero false negatives, expression for expression: routing
            // is pure pruning.
            assert_eq!(
                answers, expected,
                "full routing diverged from unrouted (shards {k}, width {width})"
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
