//! Pins the umbrella crate's public API: everything here goes through
//! `distribution_aware_search` only — no direct `dds_*` imports — so a
//! missing `prelude` re-export or a renamed facade module breaks this test
//! at compile time.

use distribution_aware_search::prelude::*;

/// Example 1.1 shaped repository: rows are (quality score, position).
fn repo() -> Repository {
    Repository::new(vec![
        Dataset::from_rows(
            "census_a",
            vec![vec![0.9, 2.0], vec![0.8, 3.0], vec![0.7, 4.0]],
        ),
        Dataset::from_rows("census_b", vec![vec![0.3, 2.5], vec![0.2, 3.5]]),
        Dataset::from_rows("remote_c", vec![vec![0.9, 40.0], vec![0.8, 41.0]]),
    ])
}

#[test]
fn ptile_indexes_through_the_facade() {
    let repo = repo();
    let syns = repo.exact_synopses();

    let threshold = PtileThresholdIndex::build(&syns, PtileBuildParams::exact_centralized());
    let region = Rect::from_bounds(&[0.0, 0.0], &[1.0, 10.0]);
    let mut hits = threshold.query(&region, 0.5);
    hits.sort_unstable();
    assert_eq!(hits, vec![0, 1], "all of a and b sit at positions <= 10");

    let range = PtileRangeIndex::build(&syns, PtileBuildParams::exact_centralized());
    let mut hits = range.query(&region, Interval::new(0.5, 1.0));
    hits.sort_unstable();
    assert_eq!(hits, vec![0, 1]);
}

#[test]
fn exact_1d_and_multi_through_the_facade() {
    let repo = Repository::new(vec![
        Dataset::from_rows("x", vec![vec![1.0], vec![7.0], vec![9.0]]),
        Dataset::from_rows("y", vec![vec![2.0], vec![4.0], vec![6.0], vec![10.0]]),
    ]);
    let exact = ExactCPtile1D::build(&repo, Interval::new(0.5, 1.0));
    let mut hits = exact.query(3.0, 9.0);
    hits.sort_unstable();
    assert_eq!(hits, vec![0, 1], "both have >= 50% of mass in [3, 9]");

    let syns = repo.exact_synopses();
    let multi = PtileMultiIndex::build(&syns, 2, PtileBuildParams::exact_centralized());
    let q1 = (Rect::interval(0.0, 5.0), Interval::new(0.2, 1.0));
    let q2 = (Rect::interval(5.0, 11.0), Interval::new(0.2, 1.0));
    let mut hits = multi.query(&[q1, q2]);
    hits.sort_unstable();
    assert_eq!(hits, vec![0, 1]);
}

#[test]
fn pref_indexes_through_the_facade() {
    let repo = repo();
    let syns = repo.exact_synopses();

    let idx = PrefIndex::build(
        &syns,
        1,
        PrefBuildParams::exact_centralized().with_eps(0.02),
    );
    // Quality direction: datasets whose best score clears 0.5.
    let hits = idx.query(&[1.0, 0.0], 0.5);
    assert!(hits.contains(&0) && hits.contains(&2));
    assert!(idx.slack() >= 0.0);

    let multi = PrefMultiIndex::build(&syns, 1, 2, PrefBuildParams::exact_centralized());
    let hits = multi.query(&[(vec![1.0, 0.0], 0.5)]);
    assert!(hits.contains(&0) && hits.contains(&2));
}

#[test]
fn mixed_engine_and_synopsis_traits_through_the_facade() {
    let repo = repo();
    let engine = MixedQueryEngine::build_opts(
        &repo,
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized().with_eps(0.02),
        &BuildOptions::default(),
    );
    let expr = LogicalExpr::And(vec![
        LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::from_bounds(&[0.0, 0.0], &[1.0, 10.0]),
            0.5,
        )),
        LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0, 0.0], 1, 0.5)),
    ]);
    let hits = engine
        .try_query_with(&expr, &mut QueryScratch::new())
        .expect("rank 1 is indexed");
    assert!(hits.contains(&0), "census_a has the mass and the quality");

    // The synopsis traits are re-exported; calling a trait method through
    // the prelude pins them.
    let syns = repo.exact_synopses();
    let everywhere = Rect::from_bounds(&[-1e9, -1e9], &[1e9, 1e9]);
    assert!((PercentileSynopsis::mass(&syns[0], &everywhere) - 1.0).abs() < 1e-9);
    assert!(syns[0].score(&[1.0, 0.0], 1) >= 0.9 - 1e-9);

    // The per-crate facade modules stay addressable too.
    let p = distribution_aware_search::geom::Point::two(0.5, 0.5);
    assert_eq!(p.dim(), 2);
}

#[test]
fn sharded_engine_through_the_facade() {
    // The sharding layer is addressable entirely through the prelude:
    // partition a generated repository, ingest the shards, and get stable
    // global ids back (ascending, = unsharded dataset indexes here).
    let spec = RepoSpec::mixed(9, 40, 1, 0xFAC);
    let mut svc = ShardedEngine::new(
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    )
    .with_cache_capacity(64);
    let mut scratch = QueryScratch::new();
    for shard in spec.shards(3) {
        svc.try_add_shard_opts(
            &Repository::from_point_sets(shard.sets),
            &shard.global_ids,
            &BuildOptions::default(),
        )
        .expect("valid ingest");
    }
    assert_eq!((svc.n_shards(), svc.n_datasets()), (3, 9));
    let expr = LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::interval(0.0, 100.0),
        0.5,
    ));
    let ids: Vec<GlobalId> = svc
        .try_query_with(&expr, &mut scratch)
        .expect("rank 1 is indexed");
    assert_eq!(ids, (0..9).collect::<Vec<GlobalId>>());
    // The per-shard mask caches saw one miss each; a repeat hits.
    let (h0, m0) = svc.cache_stats();
    assert_eq!((h0, m0), (0, 3));
    assert_eq!(svc.try_query_with(&expr, &mut scratch).unwrap().len(), 9);
    assert_eq!(svc.cache_stats(), (3, 3));
    // A standalone MaskCache is constructible through the prelude too.
    assert_eq!(MaskCache::new(16).capacity(), 16);
}

#[test]
fn served_engine_through_the_facade() {
    // The serving layer is addressable entirely through the prelude:
    // serve an empty engine on a loopback port, ingest through the
    // client, query, read stats, shut down gracefully.
    let svc = ShardedEngine::new(
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    );
    let server = DdsServer::serve(svc, "127.0.0.1:0", ServerConfig::default())
        .expect("bind a loopback port");
    let mut client = DdsClient::connect(server.local_addr()).expect("connect");
    let spec = RepoSpec::mixed(6, 30, 1, 0xFACE);
    for shard in spec.shards(2) {
        client
            .add_shard(&Repository::from_point_sets(shard.sets), &shard.global_ids)
            .expect("ingest");
    }
    let expr = LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::interval(0.0, 100.0),
        0.5,
    ));
    assert_eq!(
        client.query(&expr).expect("transport"),
        Ok((0..6).collect::<Vec<GlobalId>>())
    );
    let stats: ServerStats = client.stats().expect("stats");
    assert_eq!((stats.n_shards, stats.n_datasets), (2, 6));
    // The typed error surface is addressable too.
    match client.add_shard(
        &Repository::new(vec![Dataset::from_rows("dup", vec![vec![1.0]])]),
        &[0],
    ) {
        Err(ClientError::Server(e)) => assert!(e.message.contains("already served")),
        other => panic!("expected a typed ingest rejection, got {other:?}"),
    }
    client.shutdown_server().expect("shutdown");
    server.shutdown();
    // IngestError and ShardedStats are plain prelude values as well.
    let _: IngestError = IngestError::DuplicateId(3);
    let snap: ShardedStats = ShardedEngine::new(
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    )
    .stats_snapshot();
    assert_eq!(snap.n_shards, 0);
}

#[test]
fn typed_errors_through_the_facade() {
    // The unified error surface: `EngineError` and `IngestError` both
    // arrive via the prelude (backed by `dds_core::error`), and the
    // panic-free `try_query*` paths speak it on both engines.
    let repo = repo(); // 2-d datasets
    let engine = MixedQueryEngine::build_opts(
        &repo,
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
        &BuildOptions::default(),
    );
    let wrong_dim = LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::interval(0.0, 1.0), // 1-d against the 2-d schema
        0.5,
    ));
    match engine.try_query_with(&wrong_dim, &mut QueryScratch::new()) {
        Err(EngineError::DimensionMismatch { expected, got }) => {
            assert_eq!((expected, got), (2, 1));
        }
        other => panic!("expected a typed dimension mismatch, got {other:?}"),
    }
    let mut svc = ShardedEngine::new(
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    );
    svc.try_add_shard_opts(&repo, &[0, 1, 2], &BuildOptions::default())
        .expect("valid ingest");
    assert!(matches!(
        svc.try_query_with(&wrong_dim, &mut QueryScratch::new()),
        Err(EngineError::DimensionMismatch {
            expected: 2,
            got: 1
        })
    ));
    // The serving-layer knobs introduced alongside it are prelude values.
    let _rl = RateLimit {
        burst: 8,
        per_sec: 2,
    };
    let _cc = ClientConfig {
        timeout: Some(std::time::Duration::from_secs(1)),
        ..ClientConfig::default()
    };
}

#[test]
fn quickstart_docs_scenario_through_the_facade() {
    // Mirrors the `src/lib.rs` doctest so the README/quickstart snippet is
    // also covered by `cargo test` proper.
    let datasets = vec![
        Dataset::from_rows("a", vec![vec![1.0], vec![7.0], vec![9.0]]),
        Dataset::from_rows("b", vec![vec![2.0], vec![4.0], vec![6.0], vec![10.0]]),
        Dataset::from_rows("c", vec![vec![100.0], vec![200.0]]),
    ];
    let repo = Repository::new(datasets);
    let index = PtileThresholdIndex::build(
        &repo.exact_synopses(),
        PtileBuildParams::exact_centralized(),
    );
    let mut hits = index.query(&Rect::from_bounds(&[3.0], &[8.0]), 0.2);
    hits.sort_unstable();
    assert_eq!(hits, vec![0, 1]);
}

#[test]
fn benchmark_adapter_surface() {
    // `benchmark/` is a package outside the workspace, so tier-1 cannot see
    // a rename that stops `benchmark/src/sut.rs` compiling. This pins, with
    // the same argument shapes, every engine/index spelling that file calls.
    use distribution_aware_search::core::pool::par_map_with;
    use distribution_aware_search::geom::EpsNet;
    use distribution_aware_search::rangetree::{KdTree, OrthoIndex, Region, SortedScores};

    let opts = BuildOptions::default();
    assert_eq!(BuildOptions::serial().threads, 1);
    assert_eq!(BuildOptions::with_threads(3).threads, 3);
    let all = LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::interval(0.0, 100.0),
        0.5,
    ));
    let mut scratch = QueryScratch::new();

    // ShardedEngine: ingest, both query paths, the three lifecycle ops.
    let mut engine = ShardedEngine::new(
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::default(),
    );
    let shards = RepoSpec::mixed(6, 40, 1, 0xBE7C).shards(2);
    let repos: Vec<Repository> = shards
        .iter()
        .map(|s| Repository::from_point_sets(s.sets.clone()))
        .collect();
    for (shard, repo) in shards.iter().zip(&repos) {
        engine
            .try_add_shard_opts(repo, &shard.global_ids, &opts)
            .expect("generated shards ingest cleanly");
    }
    let single = engine.try_query_with(&all, &mut scratch);
    assert_eq!(single, Ok((0..6).collect::<Vec<GlobalId>>()));
    let batch = engine.try_query_batch_opts(std::slice::from_ref(&all), &BuildOptions::serial());
    assert_eq!(batch, vec![single.clone()]);
    let ids0 = &shards[0].global_ids;
    assert_eq!(
        engine.try_rebuild_shard_opts(0, &repos[0], ids0, &opts),
        Ok(())
    );
    assert_eq!(engine.try_split_shard_opts(0, &ids0[..1], &opts), Ok(2));
    assert_eq!(engine.try_merge_shards_opts(0, 2, &opts), Ok(0));
    assert_eq!(engine.try_query_with(&all, &mut scratch), single);
    assert_eq!(engine.shard_loads().len(), engine.n_shards());
    assert!(engine.ptile_slack() >= 0.0);
    let stats = engine.stats_snapshot();
    assert_eq!((stats.n_shards, stats.splits, stats.merges), (2, 1, 1));
    assert!(engine.telemetry().scatter.count() > 0);

    // MixedQueryEngine, reached the way the adapter reaches it.
    let shard0 = engine.shard_engine(0);
    assert!(shard0.pref_slack(1).is_some());
    shard0.mask_cache().invalidate();
    let local = shard0.try_query_with(&all, &mut scratch);
    let local_batch = shard0.try_query_batch_opts(std::slice::from_ref(&all), &opts);
    assert_eq!(local_batch, vec![local]);

    // The bare indexes and the kernels under them.
    let synopses = repos[0].exact_synopses();
    let ptile =
        PtileRangeIndex::build_opts(&synopses, PtileBuildParams::exact_centralized(), &opts);
    let everything = Rect::interval(0.0, 100.0);
    let hits = ptile.query_with(&everything, Interval::new(0.5, 1.0), &mut scratch);
    assert_eq!(hits.len(), repos[0].len());
    assert!(ptile.lifted_points() > 0 && ptile.memory_bytes() > 0 && ptile.margin() >= 0.0);
    let pref = PrefIndex::build_opts(&synopses, 1, PrefBuildParams::default(), &opts);
    assert_eq!(pref.query(&[1.0], f64::NEG_INFINITY).len(), repos[0].len());
    assert!(pref.directions() > 0 && pref.memory_bytes() > 0);
    let doubled = par_map_with(&opts, &[1usize, 2, 3], || (), |(), _, &i| 2 * i);
    assert_eq!(doubled, vec![2, 4, 6]);
    let tree = KdTree::build_par(1, vec![vec![0.0], vec![1.0], vec![2.0]], opts.threads);
    let mut region = Region::all(1);
    region.set_lo(0, 0.5, false);
    let mut out = Vec::new();
    tree.report(&region, &mut out);
    SortedScores::build(&[0.1, 0.9, 0.5]).report_at_least(0.5, &mut out);
    out.sort_unstable();
    // Both kernels report ids {1, 2}, appended to the same buffer.
    assert_eq!(out, vec![1, 1, 2, 2]);
    // The flat, labeled constructor the Ptile indexes build through.
    let labeled = KdTree::build_labeled(1, vec![0.0, 1.0, 2.0], vec![7, 7, 9], opts.threads);
    out.clear();
    labeled.report(&region, &mut out);
    out.sort_unstable();
    assert_eq!(out, vec![7, 9]);
    assert_eq!(EpsNet::new(2, 0.1).nearest(&[1.0, 0.0]).1.dim(), 2);
}
