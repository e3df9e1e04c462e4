//! E19 — per-stage serving latency under a replayed request mix.
//!
//! Replays a seeded [`RequestStreamSpec`] mix (singles and batches)
//! against a live loopback server, then asks the server itself for the
//! numbers: the `Metrics` wire op returns the lock-free per-stage
//! histograms (decode, admission-queue wait, execute, response write,
//! plus the engine's routing and per-scatter-unit timers) that the
//! request path recorded while serving. The table is the p50/p99/p999
//! of each stage straight from those snapshots — the observability the
//! telemetry layer exists to provide, exercised end to end. The smoke
//! run asserts the histograms are non-empty and quantile-monotone, so
//! CI fails if a stage silently stops recording.

use super::Scale;
use crate::table::{fmt_duration, Table};
use dds_core::framework::Repository;
use dds_core::pool::BuildOptions;
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::shard::ShardedEngine;
use dds_server::{DdsClient, DdsServer, ServerConfig};
use dds_workload::{RepoSpec, RequestStreamSpec};
use std::time::Duration;

/// E19 — replay a request mix, then read the server's own per-stage
/// latency histograms back through the `Metrics` op.
pub fn e19_stage_latency(scale: Scale) -> Table {
    let mut table = Table::new(
        "E19 — per-stage serving latency (Metrics op: lock-free histograms)",
        &["stage", "samples", "p50", "p99", "p999"],
    );
    let (n_datasets, requests) = if scale.smoke {
        (12, 60)
    } else if scale.quick {
        (24, 300)
    } else {
        (48, 2000)
    };

    let spec = RepoSpec::mixed(n_datasets, 60, 1, 0xE19);
    let mut engine = ShardedEngine::new(
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    );
    for shard in spec.shards(3) {
        engine
            .try_add_shard_opts(
                &Repository::from_point_sets(shard.sets),
                &shard.global_ids,
                &BuildOptions::default(),
            )
            .expect("valid ingest");
    }
    // Zero threshold so the replay also populates the slow-query ring —
    // the trace row below then reports real records, not an empty log.
    let cfg = ServerConfig {
        slow_query_threshold: Duration::ZERO,
        slow_log_capacity: 16,
        ..ServerConfig::default()
    };
    let server = DdsServer::serve(engine, "127.0.0.1:0", cfg).expect("bind loopback");
    let mut client = DdsClient::connect(server.local_addr()).expect("connect");

    // The replay mix: popular shapes with repeats (cache hits), replayed
    // as singles plus one whole-stream batch so both execution paths
    // land in the histograms.
    let exprs = RequestStreamSpec::new(requests, 0xE19)
        .with_shapes(6)
        .exprs(&spec);
    for expr in &exprs {
        client.query(expr).expect("replayed query").expect("hits");
    }
    client.query_batch(&exprs).expect("replayed batch");

    let report = client.metrics().expect("metrics op");
    for (stage, snap) in report.stages() {
        let total = snap.total();
        assert!(total > 0, "stage `{stage}` recorded no samples");
        let p50 = snap.quantile(0.5).expect("p50");
        let p99 = snap.quantile(0.99).expect("p99");
        let p999 = snap.quantile(0.999).expect("p999");
        assert!(
            p50 <= p99 && p99 <= p999,
            "stage `{stage}` quantiles must be monotone ({p50} {p99} {p999})"
        );
        table.row(vec![
            stage.to_string(),
            total.to_string(),
            fmt_duration(Duration::from_nanos(p50)),
            fmt_duration(Duration::from_nanos(p99)),
            fmt_duration(Duration::from_nanos(p999)),
        ]);
    }

    // The slow-query ring saw the replay (threshold 0 traces everything);
    // surface how much of the tail it retained.
    let traces = &report.slow_queries;
    assert!(!traces.is_empty(), "zero threshold must trace requests");
    table.row(vec![
        "slow-query ring".into(),
        traces.len().to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    server.shutdown();
    table
}
