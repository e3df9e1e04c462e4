//! E15 — zero-allocation serving steady state.
//!
//! The readiness-based server holds every session's request and response
//! buffers in a size-classed pool and the client reuses one scratch
//! buffer per direction, so once warm, a control-op round trip (ping)
//! touches the allocator **zero** times across *both* ends — client
//! encode, server read, server encode, client read all run inside
//! retained capacity. This experiment pins that with the counting
//! allocator (the same harness E12 uses for scratch reuse): the ping row
//! **asserts** zero allocations per round trip when the counter is
//! installed, so a regression fails the smoke run instead of quietly
//! costing two mallocs per frame at every deployment. Query round trips
//! are metered too (reported, not asserted: the engine's answer path
//! legitimately allocates its result vectors).

use super::Scale;
use crate::alloc::count_allocations;
use crate::table::{fmt_duration, Table};
use crate::timing::time;
use dds_core::framework::{LogicalExpr, Predicate, Repository};
use dds_core::pool::BuildOptions;
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::shard::ShardedEngine;
use dds_geom::Rect;
use dds_server::{DdsClient, DdsServer, ServerConfig};
use dds_workload::RepoSpec;

/// E15 — served round trips over a warm session: ping is asserted
/// allocation-free end to end (when the counting allocator is installed);
/// query-path allocations are reported alongside.
pub fn e15_serving_allocations(scale: Scale) -> Table {
    let mut table = Table::new(
        "E15 — serving steady state (readiness loop + buffer pool + client scratch)",
        &["op", "round trips", "total", "per op", "allocs/op"],
    );
    let (warm, measured) = if scale.smoke {
        (64, 100)
    } else if scale.quick {
        (128, 500)
    } else {
        (512, 2000)
    };

    let spec = RepoSpec::mixed(12, 60, 1, 0xE15);
    let mut engine = ShardedEngine::new(
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    );
    for shard in spec.shards(2) {
        engine
            .try_add_shard_opts(
                &Repository::from_point_sets(shard.sets),
                &shard.global_ids,
                &BuildOptions::default(),
            )
            .expect("valid ingest");
    }
    let server =
        DdsServer::serve(engine, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let mut client = DdsClient::connect(server.local_addr()).expect("connect");
    let expr = LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::interval(0.0, 100.0),
        0.5,
    ));

    // Warm both ends: session buffers reach their steady capacity, the
    // client scratch grows to fit, lazy thread-startup allocations
    // (parkers, channel nodes) happen now instead of inside the meter.
    for _ in 0..warm {
        client.ping().expect("warm ping");
        client.query(&expr).expect("warm query").expect("rank 1");
    }

    let fmt_allocs = |a: Option<u64>| {
        a.map_or("n/a".to_string(), |total| {
            format!("{:.2}", total as f64 / measured as f64)
        })
    };

    let ((), t_ping) = time(|| {
        for _ in 0..measured {
            client.ping().expect("measured ping");
        }
    });
    let (_, ping_allocs) = count_allocations(|| {
        for _ in 0..measured {
            client.ping().expect("metered ping");
        }
    });
    // The regression gate: a warm control-op round trip is allocation-free
    // end to end. (Outside the experiments binary the counter is absent
    // and this stays un-asserted rather than vacuously green.)
    if let Some(total) = ping_allocs {
        assert_eq!(
            total, 0,
            "steady-state ping round trips must not allocate (got {total} over {measured})"
        );
    }
    table.row(vec![
        "ping".into(),
        measured.to_string(),
        fmt_duration(t_ping),
        fmt_duration(t_ping / measured as u32),
        fmt_allocs(ping_allocs),
    ]);

    let ((), t_query) = time(|| {
        for _ in 0..measured {
            client.query(&expr).expect("measured query").expect("hits");
        }
    });
    let (_, query_allocs) = count_allocations(|| {
        for _ in 0..measured {
            client.query(&expr).expect("metered query").expect("hits");
        }
    });
    table.row(vec![
        "query".into(),
        measured.to_string(),
        fmt_duration(t_query),
        fmt_duration(t_query / measured as u32),
        fmt_allocs(query_allocs),
    ]);

    let stats = server.shutdown();
    assert!(
        stats.buffers_reused > 0 || stats.sessions_opened <= 1,
        "the pool should have served at least the stats/reconnect traffic"
    );
    table
}
