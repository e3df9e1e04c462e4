//! Shard-equivalence layer: a [`ShardedEngine`] must be indistinguishable
//! from a single unsharded [`MixedQueryEngine`] over the same datasets —
//! same answer sets (as stable global ids, canonically ascending), same
//! per-expression errors — for **every shard count × thread count**. This
//! is the contract that makes sharding a pure scaling decision: re-sharding
//! a catalog can never change what a query returns.
//!
//! Also pins the service-cache behaviours the sharding PR introduced: the
//! cross-call mask cache stays within its capacity bound, and a shard
//! rebuild invalidates exactly that shard's entries (requeries recompute
//! against the new data, other shards keep hitting their caches).
//!
//! The lifecycle layer extends the contract to **transitions**: a split or
//! merge must be indistinguishable from building the resulting layout from
//! scratch (exact and φ-anchored sampled builds alike), and a long random
//! interleaving of split/merge/rebuild/query churn must stay byte-identical
//! to the unsharded reference throughout, with cache invalidation scoped to
//! exactly the shards each transition touched.

mod common;

use dds_core::framework::Repository;
use distribution_aware_search::prelude::*;
use proptest::prelude::*;

/// Shard counts × thread counts the equivalence contract is pinned against.
const SHARDS: [usize; 4] = [1, 2, 3, 8];
const THREADS: [usize; 3] = [1, 2, 8];

fn dataset_1d(i: usize, xs: &[f64]) -> Dataset {
    Dataset::from_rows(format!("d{i}"), xs.iter().map(|&x| vec![x]).collect())
}

fn build_params() -> (PtileBuildParams, PrefBuildParams) {
    (
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    )
}

/// The unsharded reference engine over all datasets.
fn unsharded(sets: &[Vec<f64>]) -> MixedQueryEngine {
    let (ptile, pref) = build_params();
    MixedQueryEngine::build_opts(
        &Repository::new(
            sets.iter()
                .enumerate()
                .map(|(i, xs)| dataset_1d(i, xs))
                .collect(),
        ),
        &[1],
        ptile,
        pref,
        &BuildOptions::serial(),
    )
}

/// A sharded engine over the same datasets: round-robin partition into (at
/// most) `k` shards, global id = unsharded dataset index.
fn sharded(sets: &[Vec<f64>], k: usize) -> ShardedEngine {
    sharded_with_routing(sets, k, Routing::Full)
}

/// [`sharded`] with the bounding-box routing fast path switched
/// explicitly (routing defaults to on; the off position only exists for
/// the routed ≡ unrouted equivalence pins below).
fn sharded_with_routing(sets: &[Vec<f64>], k: usize, routing: Routing) -> ShardedEngine {
    let (ptile, pref) = build_params();
    let mut svc = ShardedEngine::new(&[1], ptile, pref).with_routing(routing);
    let k = k.min(sets.len()).max(1);
    for s in 0..k {
        let members: Vec<usize> = (s..sets.len()).step_by(k).collect();
        svc.try_add_shard_opts(
            &Repository::new(members.iter().map(|&i| dataset_1d(i, &sets[i])).collect()),
            &members.iter().map(|&i| i as GlobalId).collect::<Vec<_>>(),
            &BuildOptions::serial(),
        )
        .expect("valid ingest");
    }
    svc
}

/// What the sharded engine must return for one expression: the unsharded
/// answer as ascending global ids, errors passed through.
fn reference(
    engine: &MixedQueryEngine,
    expr: &LogicalExpr,
) -> Result<Vec<GlobalId>, dds_core::engine::EngineError> {
    engine
        .try_query_with(expr, &mut QueryScratch::new())
        .map(|hits| {
            let mut ids: Vec<GlobalId> = hits.into_iter().map(|j| j as GlobalId).collect();
            ids.sort_unstable();
            ids
        })
}

/// Generated case: 1-d datasets plus query-shape scalars (the same grid
/// workload the batch-equivalence layer uses).
type ShardCase = (Vec<Vec<f64>>, Vec<(f64, f64, f64, f64)>);

fn repo_and_batch() -> impl Strategy<Value = ShardCase> {
    (
        prop::collection::vec(
            prop::collection::vec((-20i32..20).prop_map(|x| x as f64), 1..10),
            1..7,
        ),
        prop::collection::vec(
            ((-25i32..25), (0i32..15), (0u32..=100), (0u32..=60)).prop_map(|(lo, w, a, bw)| {
                (lo as f64, w as f64, a as f64 / 100.0, bw as f64 / 100.0)
            }),
            1..10,
        ),
    )
}

/// A mixed expression (percentile + top-k literals) from one query shape.
/// Every third shape asks for an unindexed preference rank, so error
/// preservation is exercised inside the same batches.
fn mixed_expr(i: usize, lo: f64, w: f64, a: f64, bw: f64) -> LogicalExpr {
    let rect = Rect::interval(lo, lo + w);
    let rank = if i % 3 == 2 { 4 } else { 1 };
    LogicalExpr::Or(vec![
        LogicalExpr::And(vec![
            LogicalExpr::Pred(Predicate::percentile(
                rect.clone(),
                Interval::new(a, (a + bw).min(1.0)),
            )),
            LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], rank, lo + w * a)),
        ]),
        LogicalExpr::Pred(Predicate::percentile_at_least(rect, a)),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `ShardedEngine::{try_query_with, try_query_batch_opts}` ≡ a single
    /// unsharded engine,
    /// for every shard count × thread count — including the expressions
    /// that error on an unindexed rank.
    #[test]
    fn sharded_matches_unsharded((sets, shapes) in repo_and_batch()) {
        let reference_engine = unsharded(&sets);
        let exprs: Vec<LogicalExpr> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(lo, w, a, bw))| mixed_expr(i, lo, w, a, bw))
            .collect();
        let expected: Vec<_> = exprs.iter().map(|e| reference(&reference_engine, e)).collect();
        for k in SHARDS {
            let svc = sharded(&sets, k);
            prop_assert_eq!(svc.n_datasets(), sets.len());
            // Single-query scatter path (caller scratch reused across shards).
            let mut scratch = QueryScratch::new();
            let singles: Vec<_> = exprs.iter().map(|e| svc.try_query_with(e, &mut scratch)).collect();
            prop_assert_eq!(&singles, &expected, "single queries, shards = {}", k);
            for t in THREADS {
                let batch = svc.try_query_batch_opts(&exprs, &BuildOptions::with_threads(t));
                prop_assert_eq!(&batch, &expected, "shards = {}, threads = {}", k, t);
            }
            // The batches above warmed every shard cache; a repeat batch is
            // answered from cache and must still be bit-identical.
            let warm = svc.try_query_batch_opts(&exprs, &BuildOptions::with_threads(2));
            prop_assert_eq!(&warm, &expected, "warm-cache repeat, shards = {}", k);
        }
    }

    /// The bounding-box routing fast path (PR 5) must be invisible in
    /// answers: the same shard layout with routing off is bit-identical —
    /// single and batch paths, including the error-carrying expressions
    /// (routing declines those outright). Note `sharded_matches_unsharded`
    /// above already pins the routed engine against the *unsharded*
    /// reference; this pins routed ≡ unrouted on equal layouts directly.
    #[test]
    fn routed_matches_unrouted((sets, shapes) in repo_and_batch()) {
        let exprs: Vec<LogicalExpr> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(lo, w, a, bw))| mixed_expr(i, lo, w, a, bw))
            .collect();
        for k in [1usize, 2, 3] {
            let routed = sharded(&sets, k);
            let unrouted = sharded_with_routing(&sets, k, Routing::Off);
            let mut scratch = QueryScratch::new();
            for e in &exprs {
                prop_assert_eq!(
                    routed.try_query_with(e, &mut scratch),
                    unrouted.try_query_with(e, &mut scratch),
                    "single query, shards = {}", k
                );
            }
            prop_assert_eq!(
                routed.try_query_batch_opts(&exprs, &BuildOptions::with_threads(2)),
                unrouted.try_query_batch_opts(&exprs, &BuildOptions::with_threads(2)),
                "batch, shards = {}", k
            );
            prop_assert_eq!(unrouted.shards_routed_past(), 0);
        }
    }

    /// Rebuilding one shard re-lands new data under the same global ids:
    /// requeries must agree with an unsharded engine over the *updated*
    /// dataset collection, at every thread count — the
    /// rebuild-then-requery invalidation case.
    #[test]
    fn rebuild_then_requery_matches_updated_unsharded(
        (mut sets, shapes) in repo_and_batch(),
        shift in (1i32..15).prop_map(|s| s as f64),
    ) {
        prop_assume!(sets.len() >= 2);
        let exprs: Vec<LogicalExpr> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(lo, w, a, bw))| mixed_expr(i, lo, w, a, bw))
            .collect();
        let k = 2usize;
        let mut svc = sharded(&sets, k);
        // Warm the caches on the original data — including an
        // invalidation probe that routing can never skip (θ lower bound 0
        // is within every margin, so every shard must be consulted).
        let probe = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(-1e6, 1e6),
            0.0,
        ));
        let _ = svc.try_query_batch_opts(&exprs, &BuildOptions::with_threads(2));
        let _ = svc.try_query_with(&probe, &mut QueryScratch::new());
        let (_, misses_before) = svc.cache_stats();
        // Shard 0 (datasets 0, 2, 4, …) re-lands with every value shifted.
        let members: Vec<usize> = (0..sets.len()).step_by(k).collect();
        for &i in &members {
            for x in &mut sets[i] {
                *x += shift;
            }
        }
        svc.try_rebuild_shard_opts(
            0,
            &Repository::new(members.iter().map(|&i| dataset_1d(i, &sets[i])).collect()),
            &members.iter().map(|&i| i as GlobalId).collect::<Vec<_>>(),
            &BuildOptions::serial(),
        ).expect("valid rebuild");
        let updated_reference = unsharded(&sets);
        let expected: Vec<_> = exprs.iter().map(|e| reference(&updated_reference, e)).collect();
        for t in THREADS {
            let requeried = svc.try_query_batch_opts(&exprs, &BuildOptions::with_threads(t));
            prop_assert_eq!(&requeried, &expected, "threads = {}", t);
        }
        // The probe could not have been served from its warm pre-rebuild
        // mask: the rebuilt shard's cache was invalidated, so it
        // recomputes (misses advance) while shard 1 keeps hitting.
        let _ = svc.try_query_with(&probe, &mut QueryScratch::new());
        let (_, misses_after) = svc.cache_stats();
        prop_assert!(misses_after > misses_before, "rebuild must invalidate");
    }
}

/// Sampled builds (ε_i > 0: each dataset's support exceeds the sample
/// budget, so the RNG really draws) are also shard-count invariant —
/// because shard engines seed per-dataset sampling by **global id** and
/// the φ-split is anchored to the catalog size. This is exactly the
/// regime where positional seeding or per-shard φ accounting would break
/// equivalence.
#[test]
fn sampled_builds_match_unsharded_across_shard_counts() {
    let n = 6usize;
    // 60 deterministic points per dataset, spread so thresholds land near
    // mass boundaries (any sample mismatch flips some answer below).
    let sets: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..60)
                .map(|j| ((i * 13 + j * 7) % 97) as f64 - 20.0)
                .collect()
        })
        .collect();
    // ε = 0.4 makes the admissible sample (~23 points) smaller than the
    // 60-point supports, so the sampling path is engaged for real.
    let ptile = PtileBuildParams::default()
        .with_eps(0.4)
        .with_phi_datasets(n);
    let pref = PrefBuildParams::exact_centralized();
    let reference_engine = MixedQueryEngine::build_opts(
        &Repository::new(
            sets.iter()
                .enumerate()
                .map(|(i, xs)| dataset_1d(i, xs))
                .collect(),
        ),
        &[1],
        ptile.clone(),
        pref.clone(),
        &BuildOptions::serial(),
    );
    assert!(
        reference_engine.ptile_slack() > 0.0,
        "sampling must actually be engaged for this test to mean anything"
    );
    let exprs: Vec<LogicalExpr> = (0..40)
        .map(|q| {
            LogicalExpr::Pred(Predicate::percentile_at_least(
                Rect::interval(-20.0 + q as f64 * 2.0, -10.0 + q as f64 * 2.0),
                0.05 * (q % 19) as f64,
            ))
        })
        .collect();
    let expected: Vec<_> = exprs
        .iter()
        .map(|e| reference(&reference_engine, e))
        .collect();
    for k in [1usize, 2, 3] {
        let mut svc = ShardedEngine::new(&[1], ptile.clone(), pref.clone());
        for s in 0..k.min(n) {
            let members: Vec<usize> = (s..n).step_by(k.min(n)).collect();
            svc.try_add_shard_opts(
                &Repository::new(members.iter().map(|&i| dataset_1d(i, &sets[i])).collect()),
                &members.iter().map(|&i| i as GlobalId).collect::<Vec<_>>(),
                &BuildOptions::serial(),
            )
            .expect("valid ingest");
        }
        assert!(svc.ptile_slack() > 0.0, "shards sample too (k = {k})");
        for t in THREADS {
            assert_eq!(
                svc.try_query_batch_opts(&exprs, &BuildOptions::with_threads(t)),
                expected,
                "sampled equivalence, shards = {k}, threads = {t}"
            );
        }
    }
}

/// The routing fast path really engages (the proptests above only prove
/// it is answer-invisible): value-separated shards let a narrow predicate
/// skip every shard but its own, and the skipped shards' caches are never
/// touched.
#[test]
fn routing_skips_value_separated_shards_and_spares_their_caches() {
    // Shard s holds datasets living in [100s, 100s + 20]: disjoint boxes.
    let (ptile, pref) = build_params();
    let mut svc = ShardedEngine::new(&[1], ptile, pref);
    let mut scratch = QueryScratch::new();
    for s in 0..3usize {
        let base = 100.0 * s as f64;
        svc.try_add_shard_opts(
            &Repository::new(vec![
                dataset_1d(2 * s, &[base, base + 10.0]),
                dataset_1d(2 * s + 1, &[base + 15.0, base + 20.0]),
            ]),
            &[2 * s as GlobalId, 2 * s as GlobalId + 1],
            &BuildOptions::serial(),
        )
        .expect("valid ingest");
    }
    // One narrow query per shard band: each consults exactly one shard.
    for s in 0..3usize {
        let base = 100.0 * s as f64;
        let expr = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(base - 5.0, base + 25.0),
            0.9,
        ));
        assert_eq!(
            svc.try_query_with(&expr, &mut scratch),
            Ok(vec![2 * s as GlobalId, 2 * s as GlobalId + 1]),
            "band {s}"
        );
    }
    assert_eq!(
        svc.shards_routed_past(),
        6,
        "each of the 3 queries skipped the 2 foreign shards"
    );
    let (_, misses) = svc.cache_stats();
    assert_eq!(misses, 3, "each shard computed only its own band's mask");
    // A query beyond every box consults nobody.
    let far = LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::interval(900.0, 950.0),
        0.5,
    ));
    assert_eq!(svc.try_query_with(&far, &mut scratch), Ok(vec![]));
    assert_eq!(svc.shards_routed_past(), 9);
}

/// Every counter a scatter unit can move: cache hits and misses, index
/// walks, both routing tiers and the per-shard query loads.
type UnitCounters = ((u64, u64), u64, u64, u64, Vec<ShardLoad>);

fn unit_counters(svc: &ShardedEngine) -> UnitCounters {
    (
        svc.cache_stats(),
        svc.index_queries(),
        svc.shards_routed_past(),
        svc.shards_routed_by_synopsis(),
        svc.shard_loads(),
    )
}

/// The batch path settles routed-away and cache-resident units inline and
/// fans only index walks out to the pool. None of that may show: at every
/// thread count a batch answers byte-identically to per-expression
/// `try_query_with` on a twin engine, and moves every counter exactly as
/// that sequential run does — on cold, fully warm and partially warm
/// (one shard rebuilt) caches, for DNFs mixing resident and fresh
/// predicates, with a wrong-dimension error in the batch. (Unindexed-rank
/// errors stay out: `try_query_with` stops at the first shard's error
/// while a batch scatters every shard, so their counters differ by design;
/// `sharded_matches_unsharded` pins their answers.)
#[test]
fn inline_and_fanned_out_units_match_sequential_queries() {
    // Dataset i lives in shard i % 3's band [100 s, 100 s + 20]: narrow
    // queries route away from the two foreign shards.
    let sets: Vec<Vec<f64>> = (0..9)
        .map(|i| {
            let base = 100.0 * (i % 3) as f64;
            (0..5)
                .map(|j| base + ((i * 7 + j * 3) % 21) as f64)
                .collect()
        })
        .collect();
    let band = |s: usize, a: f64| {
        let base = 100.0 * s as f64;
        Predicate::percentile_at_least(Rect::interval(base - 5.0, base + 25.0), a)
    };
    let wide = |a: f64| Predicate::percentile_at_least(Rect::interval(-10.0, 400.0), a);
    let top = |t: f64| Predicate::topk_at_least(vec![1.0], 1, t);
    let pred = LogicalExpr::Pred;
    let wrong_dim = pred(Predicate::topk_at_least(vec![1.0, 0.0], 1, 0.0));
    let first: Vec<LogicalExpr> = vec![
        pred(band(0, 0.5)),
        pred(wide(0.3)),
        pred(top(50.0)),
        LogicalExpr::Or(vec![pred(band(1, 0.5)), pred(top(150.0))]),
        wrong_dim.clone(),
        pred(band(2, 0.5)),
        pred(wide(0.3)),
    ];
    // Once `first` has run, each of these mixes resident predicates with
    // ones no shard has computed yet.
    let mixed: Vec<LogicalExpr> = vec![
        LogicalExpr::And(vec![pred(wide(0.3)), pred(top(120.0))]),
        LogicalExpr::Or(vec![pred(band(0, 0.5)), pred(wide(0.6))]),
        LogicalExpr::Or(vec![pred(top(50.0)), pred(top(80.0))]),
        LogicalExpr::And(vec![pred(band(2, 0.5)), pred(band(2, 0.8))]),
        wrong_dim,
        pred(wide(0.3)),
    ];
    let both: Vec<LogicalExpr> = first.iter().chain(&mixed).cloned().collect();

    for t in THREADS {
        let opts = BuildOptions::with_threads(t);
        let mut batched = sharded(&sets, 3);
        let mut sequential = sharded(&sets, 3);
        let mut scratch = QueryScratch::new();
        let mut check = |batched: &ShardedEngine, sequential: &ShardedEngine, exprs, what| {
            let got = batched.try_query_batch_opts(exprs, &opts);
            let want: Vec<_> = exprs
                .iter()
                .map(|e| sequential.try_query_with(e, &mut scratch))
                .collect();
            assert_eq!(got, want, "{what}, threads = {t}");
            assert_eq!(
                unit_counters(batched),
                unit_counters(sequential),
                "{what} counters, threads = {t}"
            );
            got
        };
        let cold = check(&batched, &sequential, &first, "cold caches");
        assert!(matches!(
            cold[4],
            Err(EngineError::DimensionMismatch {
                expected: 1,
                got: 2
            })
        ));
        assert!(cold[0].as_ref().is_ok_and(|ids| !ids.is_empty()));
        assert!(
            batched.shards_routed_past() > 0,
            "the band queries must route"
        );
        let walks = batched.index_queries();
        check(&batched, &sequential, &first, "fully warm caches");
        assert_eq!(
            batched.index_queries(),
            walks,
            "a warm repeat walks no index"
        );
        check(&batched, &sequential, &mixed, "partly resident DNFs");
        // Shard 0 re-lands on the same data: its cache goes stale while
        // shards 1 and 2 stay resident.
        let members: Vec<usize> = (0..sets.len()).step_by(3).collect();
        let repo = || Repository::new(members.iter().map(|&i| dataset_1d(i, &sets[i])).collect());
        let ids: Vec<GlobalId> = members.iter().map(|&i| i as GlobalId).collect();
        for svc in [&mut batched, &mut sequential] {
            svc.try_rebuild_shard_opts(0, &repo(), &ids, &BuildOptions::serial())
                .expect("valid rebuild");
        }
        check(&batched, &sequential, &both, "partially warm caches");
    }
}

/// A sharded engine built from scratch over an explicit shard layout
/// (`layout[s]` = shard `s`'s global ids) — the "rebuilt" side of the
/// transition-equivalence pins.
fn engine_with_layout(
    sets: &[Vec<f64>],
    layout: &[Vec<GlobalId>],
    ptile: &PtileBuildParams,
    pref: &PrefBuildParams,
) -> ShardedEngine {
    let mut svc = ShardedEngine::new(&[1], ptile.clone(), pref.clone());
    for ids in layout {
        svc.try_add_shard_opts(
            &Repository::new(
                ids.iter()
                    .map(|&i| dataset_1d(i as usize, &sets[i as usize]))
                    .collect(),
            ),
            ids,
            &BuildOptions::serial(),
        )
        .expect("valid ingest");
    }
    svc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Split-then-query and merge-then-query ≡ the same layout rebuilt
    /// from scratch (and both ≡ the unsharded reference), for exact
    /// builds across shard counts {2, 3, 8} × thread counts {1, 4} —
    /// including the MissingRank-carrying expressions, which transitions
    /// must preserve exactly like hits.
    #[test]
    fn split_and_merge_match_rebuilt_from_scratch((sets, shapes) in repo_and_batch()) {
        prop_assume!(sets.len() >= 2);
        let exprs: Vec<LogicalExpr> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(lo, w, a, bw))| mixed_expr(i, lo, w, a, bw))
            .collect();
        let reference_engine = unsharded(&sets);
        let expected: Vec<_> = exprs.iter().map(|e| reference(&reference_engine, e)).collect();
        let (ptile, pref) = build_params();
        for k in [2usize, 3, 8] {
            let mut svc = sharded(&sets, k);
            // Split the first divisible shard, moving the upper half of
            // its ascending ids to a new shard.
            if let Some(s) = (0..svc.n_shards()).find(|&s| svc.global_ids(s).len() >= 2) {
                let mut ids = svc.global_ids(s).to_vec();
                ids.sort_unstable();
                let move_ids = ids.split_off(ids.len() / 2);
                let born = svc.try_split_shard_opts(s, &move_ids, &BuildOptions::serial()).expect("valid split");
                prop_assert_eq!(born, svc.n_shards() - 1, "the new shard lands last");
            }
            // Merge the outermost pair, naming the higher index first —
            // the merged result must not depend on argument order.
            if svc.n_shards() >= 2 {
                let survivor = svc.try_merge_shards_opts(svc.n_shards() - 1, 0, &BuildOptions::serial()).expect("valid merge");
                prop_assert_eq!(survivor, 0, "the merged shard lands at min(a, b)");
            }
            prop_assert_eq!(svc.n_datasets(), sets.len(), "transitions conserve the catalog");
            // The exact post-transition layout, rebuilt from scratch.
            let layout: Vec<Vec<GlobalId>> =
                (0..svc.n_shards()).map(|s| svc.global_ids(s).to_vec()).collect();
            let fresh = engine_with_layout(&sets, &layout, &ptile, &pref);
            for t in [1usize, 4] {
                let opts = BuildOptions::with_threads(t);
                let churned = svc.try_query_batch_opts(&exprs, &opts);
                prop_assert_eq!(
                    &churned, &expected,
                    "transitioned vs unsharded, shards = {}, threads = {}", k, t
                );
                prop_assert_eq!(
                    &churned, &fresh.try_query_batch_opts(&exprs, &opts),
                    "transitioned vs rebuilt-from-scratch, shards = {}, threads = {}", k, t
                );
            }
        }
    }

    /// The same transition-equivalence pin for **φ-anchored sampled
    /// builds** (ε > 0, the regime where per-shard φ accounting or
    /// positional sampling seeds would break it): split-then-query and
    /// merge-then-query stay bit-identical to the unsharded sampled
    /// reference and to the post-transition layout rebuilt from scratch —
    /// and so does a head-heavy layout after `rebalance_plan_with` →
    /// `apply_rebalance_opts`.
    #[test]
    fn sampled_split_and_merge_match_rebuilt_from_scratch(salt in 0usize..1000) {
        let n = 6usize;
        let sets: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..60)
                    .map(|j| ((i * 13 + j * 7 + salt) % 97) as f64 - 20.0)
                    .collect()
            })
            .collect();
        // ε = 0.4 keeps the admissible sample below the 60-point
        // supports, so the seeded sampling path is engaged for real; the
        // φ-split is anchored to the catalog size.
        let ptile = PtileBuildParams::default().with_eps(0.4).with_phi_datasets(n);
        let pref = PrefBuildParams::exact_centralized();
        let reference_engine = MixedQueryEngine::build_opts(
            &Repository::new(
                sets.iter()
                    .enumerate()
                    .map(|(i, xs)| dataset_1d(i, xs))
                    .collect(),
            ),
            &[1],
            ptile.clone(),
            pref.clone(),
            &BuildOptions::serial(),
        );
        prop_assert!(reference_engine.ptile_slack() > 0.0, "sampling must engage");
        // Percentile sweep plus MissingRank probes (every third asks for
        // an unindexed rank) — errors must survive transitions too.
        let exprs: Vec<LogicalExpr> = (0..18)
            .map(|q| {
                if q % 3 == 2 {
                    LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], 4, 0.0))
                } else {
                    LogicalExpr::Pred(Predicate::percentile_at_least(
                        Rect::interval(-20.0 + q as f64 * 4.0, -8.0 + q as f64 * 4.0),
                        0.05 * (q % 19) as f64,
                    ))
                }
            })
            .collect();
        let expected: Vec<_> = exprs.iter().map(|e| reference(&reference_engine, e)).collect();
        // A transitioned engine ≡ the unsharded reference ≡ its own
        // layout rebuilt from scratch, at threads {1, 4}.
        let check = |svc: &ShardedEngine, start: &str| {
            let layout: Vec<Vec<GlobalId>> =
                (0..svc.n_shards()).map(|s| svc.global_ids(s).to_vec()).collect();
            let fresh = engine_with_layout(&sets, &layout, &ptile, &pref);
            for t in [1usize, 4] {
                let opts = BuildOptions::with_threads(t);
                let churned = svc.try_query_batch_opts(&exprs, &opts);
                prop_assert_eq!(
                    &churned, &expected,
                    "sampled transition vs unsharded, start = {}, threads = {}", start, t
                );
                prop_assert_eq!(
                    &churned, &fresh.try_query_batch_opts(&exprs, &opts),
                    "sampled transition vs rebuilt, start = {}, threads = {}", start, t
                );
            }
        };
        for k in [2usize, 3, 8] {
            let k_eff = k.min(n);
            let round_robin: Vec<Vec<GlobalId>> = (0..k_eff)
                .map(|s| (s..n).step_by(k_eff).map(|i| i as GlobalId).collect())
                .collect();
            let mut svc = engine_with_layout(&sets, &round_robin, &ptile, &pref);
            prop_assert!(svc.ptile_slack() > 0.0, "shards sample too (k = {})", k);
            if let Some(s) = (0..svc.n_shards()).find(|&s| svc.global_ids(s).len() >= 2) {
                let mut ids = svc.global_ids(s).to_vec();
                ids.sort_unstable();
                let move_ids = ids.split_off(ids.len() / 2);
                svc.try_split_shard_opts(s, &move_ids, &BuildOptions::serial()).expect("valid split");
            }
            if svc.n_shards() >= 2 {
                svc.try_merge_shards_opts(svc.n_shards() - 1, 0, &BuildOptions::serial()).expect("valid merge");
            }
            check(&svc, &format!("round-robin over {k} shards"));
        }
        // A head-heavy start: one oversized shard and a small tail. The
        // planner must split the head (here it also merges the tail
        // pair); the applied plan changes no answer.
        let head_heavy: Vec<Vec<GlobalId>> = vec![vec![0, 1, 2, 3], vec![4], vec![5]];
        let mut svc = engine_with_layout(&sets, &head_heavy, &ptile, &pref);
        prop_assert_eq!(
            &svc.try_query_batch_opts(&exprs, &BuildOptions::serial()), &expected,
            "head-heavy layout vs unsharded before the rebalance"
        );
        let plan = svc.rebalance_plan_with(&RebalanceConfig {
            max_datasets: 2,
            merge_under: 2,
            hot_factor: 4.0,
        });
        prop_assert!(
            plan.iter().any(|a| matches!(a, RebalanceAction::Split { .. })),
            "the head shard must propose a split: {:?}", plan
        );
        svc.apply_rebalance_opts(&plan, &BuildOptions::serial())
            .expect("a freshly computed plan applies cleanly");
        check(&svc, "head-heavy, rebalanced");
    }
}

/// The churn soak: a long random interleaving of split / merge / rebuild /
/// query-batch steps stays byte-identical to an unsharded reference engine
/// throughout, every transition's cache invalidation is scoped to exactly
/// the shards it touched, and a repeated batch is answered entirely from
/// warm caches (`index_queries` advances by 0).
#[test]
fn churn_soak_stays_byte_identical_to_unsharded_reference() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    // 8 datasets keyed by global id; rebuild steps mutate them in place.
    let mut sets: Vec<Vec<f64>> = (0..8usize)
        .map(|i| {
            (0..6)
                .map(|j| ((i * 11 + j * 5) % 37) as f64 - 10.0)
                .collect()
        })
        .collect();
    let mut svc = sharded(&sets, 3);
    let mut reference_engine = unsharded(&sets);
    // Mixed workload, MissingRank probes included (every third shape).
    let exprs: Vec<LogicalExpr> = (0..9)
        .map(|i| mixed_expr(i, -12.0 + i as f64 * 3.0, 8.0, 0.1 * (i % 7) as f64, 0.3))
        .collect();
    let generations = |svc: &ShardedEngine| -> Vec<u64> {
        (0..svc.n_shards())
            .map(|s| svc.shard_engine(s).mask_cache().generation())
            .collect()
    };
    let mut performed = 0usize;
    for step in 0..70 {
        let action = rng.gen_range(0u8..4);
        let before = generations(&svc);
        if action == 0 && svc.n_shards() < 6 {
            // Split a random divisible shard, moving a uniform random
            // strict subset of its ids.
            let divisible: Vec<usize> = (0..svc.n_shards())
                .filter(|&s| svc.global_ids(s).len() >= 2)
                .collect();
            if let Some(&s) = divisible
                .get(rng.gen_range(0..divisible.len().max(1)))
                .filter(|_| !divisible.is_empty())
            {
                let mut ids = svc.global_ids(s).to_vec();
                let m = rng.gen_range(1..ids.len());
                for i in 0..m {
                    let j = rng.gen_range(i..ids.len());
                    ids.swap(i, j);
                }
                svc.try_split_shard_opts(s, &ids[..m], &BuildOptions::serial())
                    .expect("valid split");
                let after = generations(&svc);
                // Only the split shard's (carried) cache was invalidated;
                // the new shard starts with an empty cache.
                for i in 0..before.len() {
                    if i == s {
                        assert!(after[i] > before[i], "step {step}: split bumps shard {s}");
                    } else {
                        assert_eq!(after[i], before[i], "step {step}: shard {i} untouched");
                    }
                }
                assert_eq!(
                    svc.shard_engine(svc.n_shards() - 1).mask_cache().len(),
                    0,
                    "step {step}: the new shard's cache starts empty"
                );
                performed += 1;
            }
        } else if action == 1 && svc.n_shards() >= 2 {
            // Merge a random distinct pair.
            let a = rng.gen_range(0..svc.n_shards());
            let b = (a + 1 + rng.gen_range(0..svc.n_shards() - 1)) % svc.n_shards();
            let (lo, hi) = (a.min(b), a.max(b));
            let survivor = svc
                .try_merge_shards_opts(a, b, &BuildOptions::serial())
                .expect("valid merge");
            assert_eq!(survivor, lo, "step {step}: survivor is min(a, b)");
            let after = generations(&svc);
            // Survivor bumped; every other shard's cache untouched
            // (indices past the absorbed shard shift down by one).
            for (i, gen) in after.iter().enumerate() {
                let old = if i < hi { i } else { i + 1 };
                if i == lo {
                    assert!(*gen > before[old], "step {step}: merge bumps {lo}");
                } else {
                    assert_eq!(*gen, before[old], "step {step}: shard {i} untouched");
                }
            }
            performed += 1;
        } else if action == 2 {
            // Re-land a random shard under its own ids with every value
            // shifted — a real data change, so the reference moves too.
            let s = rng.gen_range(0..svc.n_shards());
            let ids = svc.global_ids(s).to_vec();
            for &id in &ids {
                for x in &mut sets[id as usize] {
                    *x += 1.0;
                }
            }
            svc.try_rebuild_shard_opts(
                s,
                &Repository::new(
                    ids.iter()
                        .map(|&i| dataset_1d(i as usize, &sets[i as usize]))
                        .collect(),
                ),
                &ids,
                &BuildOptions::serial(),
            )
            .expect("valid rebuild");
            reference_engine = unsharded(&sets);
            let after = generations(&svc);
            for i in 0..before.len() {
                if i == s {
                    assert!(after[i] > before[i], "step {step}: rebuild bumps shard {s}");
                } else {
                    assert_eq!(after[i], before[i], "step {step}: shard {i} untouched");
                }
            }
            performed += 1;
        } else {
            // Query step: the churned engine answers byte-identically to
            // the unsharded reference, and a repeat batch is pure cache
            // (index_queries advances by 0, answers still identical).
            let threads = if rng.gen_range(0u8..2) == 0 { 1 } else { 4 };
            let opts = BuildOptions::with_threads(threads);
            let expected: Vec<_> = exprs
                .iter()
                .map(|e| reference(&reference_engine, e))
                .collect();
            let got = svc.try_query_batch_opts(&exprs, &opts);
            assert_eq!(got, expected, "step {step}: churned ≡ unsharded");
            let warm_index_queries = svc.index_queries();
            let repeat = svc.try_query_batch_opts(&exprs, &opts);
            assert_eq!(repeat, expected, "step {step}: warm repeat identical");
            assert_eq!(
                svc.index_queries(),
                warm_index_queries,
                "step {step}: a repeated batch is answered entirely from cache"
            );
            performed += 1;
        }
        assert_eq!(
            svc.n_datasets(),
            sets.len(),
            "step {step}: catalog conserved"
        );
    }
    assert!(
        performed >= 50,
        "the soak must actually churn ({performed} steps)"
    );
    let stats = svc.stats_snapshot();
    assert!(
        stats.splits >= 1 && stats.merges >= 1,
        "both transition kinds occurred"
    );
    // Synopsis bookkeeping survives the churn: every shard's engine —
    // whichever mix of add/split/merge/rebuild produced it — carries a
    // routing synopsis (this soak has no NaN data), and a narrow
    // high-threshold query still answers identically to the reference
    // through whatever pruning those synopses now prove.
    for s in 0..svc.n_shards() {
        assert!(
            svc.shard_engine(s).routing_synopsis().is_some(),
            "shard {s} lost its routing synopsis across transitions"
        );
    }
    let narrow = LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::interval(3.0, 5.0),
        0.9,
    ));
    assert_eq!(
        svc.try_query_with(&narrow, &mut QueryScratch::new()),
        reference(&reference_engine, &narrow),
        "post-churn selective query must match the unsharded reference"
    );
}

/// A sharded engine over a workload-crate repository mix, round-robin by
/// global id, with the routing tiers switched explicitly — the build the
/// selective-stream equivalence pins below share.
fn sharded_from_spec(
    spec: &dds_workload::RepoSpec,
    k: usize,
    ptile: &PtileBuildParams,
    routing: Routing,
) -> ShardedEngine {
    let mut svc = ShardedEngine::new(&[1], ptile.clone(), PrefBuildParams::exact_centralized())
        .with_routing(routing);
    for shard in spec.shards(k) {
        svc.try_add_shard_opts(
            &Repository::from_point_sets(shard.sets),
            &shard.global_ids,
            &BuildOptions::serial(),
        )
        .expect("valid ingest");
    }
    svc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Selective streams (narrow interior rectangles, θ lower bound well
    /// above any sampling margin) are the traffic the synopsis tier was
    /// built to prune — and the pruning must be invisible: full routing ≡
    /// box-only ≡ unrouted, bit for bit, for exact **and** φ-anchored
    /// sampled builds, shards {2, 3, 8} × threads {1, 4}.
    #[test]
    fn selective_streams_prune_without_changing_answers(salt in 0u64..1000) {
        let n = 12usize;
        let spec = dds_workload::RepoSpec::mixed(n, 60, 1, salt);
        let exprs = dds_workload::RequestStreamSpec::selective(18, salt).exprs(&spec);
        let params = [
            PtileBuildParams::exact_centralized(),
            PtileBuildParams::default().with_eps(0.4).with_phi_datasets(n),
        ];
        for (p, ptile) in params.iter().enumerate() {
            for k in [2usize, 3, 8] {
                let full = sharded_from_spec(&spec, k, ptile, Routing::Full);
                let box_only = sharded_from_spec(&spec, k, ptile, Routing::BoxOnly);
                let unrouted = sharded_from_spec(&spec, k, ptile, Routing::Off);
                let mut scratch = QueryScratch::new();
                for (i, e) in exprs.iter().enumerate() {
                    let want = unrouted.try_query_with(e, &mut scratch);
                    prop_assert_eq!(
                        full.try_query_with(e, &mut scratch), want.clone(),
                        "full vs unrouted, params {}, shards {}, expr {}", p, k, i
                    );
                    prop_assert_eq!(
                        box_only.try_query_with(e, &mut scratch), want,
                        "box-only vs unrouted, params {}, shards {}, expr {}", p, k, i
                    );
                }
                for t in [1usize, 4] {
                    let opts = BuildOptions::with_threads(t);
                    let want = unrouted.try_query_batch_opts(&exprs, &opts);
                    prop_assert_eq!(
                        full.try_query_batch_opts(&exprs, &opts), want.clone(),
                        "full batch, params {}, shards {}, threads {}", p, k, t
                    );
                    prop_assert_eq!(
                        box_only.try_query_batch_opts(&exprs, &opts), want,
                        "box-only batch, params {}, shards {}, threads {}", p, k, t
                    );
                }
                prop_assert_eq!(unrouted.shards_routed_past(), 0);
                prop_assert_eq!(unrouted.shards_routed_by_synopsis(), 0);
                prop_assert_eq!(box_only.shards_routed_by_synopsis(), 0);
            }
        }
    }
}

/// The synopsis tier really engages on selective traffic (the proptest
/// above only proves it is answer-invisible): at a realistic round-robin
/// flavour mix every shard's bounding box overlaps the narrow interior
/// windows, so the box tier prunes nothing while the mass bound prunes
/// most scatter units.
#[test]
fn selective_streams_engage_the_synopsis_tier() {
    let n = 12usize;
    let spec = dds_workload::RepoSpec::mixed(n, 60, 1, 0xE18);
    let exprs = dds_workload::RequestStreamSpec::selective(18, 0xE18).exprs(&spec);
    let ptile = PtileBuildParams::exact_centralized();
    let svc = sharded_from_spec(&spec, 8, &ptile, Routing::Full);
    let _ = svc.try_query_batch_opts(&exprs, &BuildOptions::serial());
    assert!(
        svc.shards_routed_by_synopsis() > 0,
        "narrow interior windows must trip the mass bound"
    );
    assert!(
        svc.shards_routed_by_synopsis() > svc.shards_routed_past(),
        "the box tier cannot see interior gaps ({} box vs {} synopsis)",
        svc.shards_routed_past(),
        svc.shards_routed_by_synopsis()
    );
}

/// The cross-call cache respects its capacity bound under a workload with
/// far more distinct predicates than slots — and the bounded cache never
/// changes answers (evicted masks recompute identically).
#[test]
fn mask_cache_stays_within_capacity_bound() {
    let sets: Vec<Vec<f64>> = (0..6)
        .map(|i| (0..8).map(|j| (i * 7 + j * 3) as f64 - 15.0).collect())
        .collect();
    let (ptile, pref) = build_params();
    // Routing off: this test counts every (expression, shard) lookup
    // against the capacity bound, so no scatter unit may be skipped.
    let mut svc = ShardedEngine::new(&[1], ptile, pref)
        .with_cache_capacity(4)
        .with_routing(Routing::Off);
    for s in 0..2 {
        let members: Vec<usize> = (s..sets.len()).step_by(2).collect();
        svc.try_add_shard_opts(
            &Repository::new(members.iter().map(|&i| dataset_1d(i, &sets[i])).collect()),
            &members.iter().map(|&i| i as GlobalId).collect::<Vec<_>>(),
            &BuildOptions::default(),
        )
        .expect("valid ingest");
    }
    let reference_engine = unsharded(&sets);
    // 30 distinct percentile predicates stream through a 4-slot cache.
    let exprs: Vec<LogicalExpr> = (0..30)
        .map(|i| {
            LogicalExpr::Pred(Predicate::percentile_at_least(
                Rect::interval(-20.0 + i as f64, -10.0 + 2.0 * i as f64),
                0.2,
            ))
        })
        .collect();
    for round in 0..3 {
        let got = svc.try_query_batch_opts(&exprs, &BuildOptions::with_threads(2));
        let expected: Vec<_> = exprs
            .iter()
            .map(|e| reference(&reference_engine, e))
            .collect();
        assert_eq!(got, expected, "round {round}");
    }
    for s in 0..svc.n_shards() {
        let cache = svc.shard_engine(s).mask_cache();
        assert_eq!(cache.capacity(), 4);
        assert!(
            cache.len() <= cache.capacity(),
            "shard {s}: the bound holds after heavy eviction churn"
        );
    }
    let (hits, misses) = svc.cache_stats();
    assert!(misses >= 30 * 2, "evictions force recomputation");
    assert!(hits + misses == 3 * 30 * 2, "every lookup is counted");
}
