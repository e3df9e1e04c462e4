//! Zero-allocation serving steady state: once a session is warm, a
//! control-op round trip (ping) touches the allocator **zero** times
//! across *both* ends — client encode, server read, server encode, client
//! read all run inside retained capacity (the session buffer pool and the
//! client's per-direction scratch).
//!
//! This binary installs its own counting `#[global_allocator]` and holds a
//! single test, so nothing else allocates in the process while the meter
//! reads. The counter is process-wide: the server's I/O and executor
//! threads are metered too. Before the zero is trusted, the test checks
//! the meter is live — a warm query must count at least one allocation —
//! so it cannot pass vacuously.

use dds_core::framework::{LogicalExpr, Predicate, Repository};
use dds_core::pool::BuildOptions;
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::shard::ShardedEngine;
use dds_geom::Rect;
use dds_server::{DdsClient, DdsServer, ServerConfig};
use dds_workload::RepoSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations observed since process start (monotone).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers every operation to `System`; only adds a relaxed counter
// increment on the allocation paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (on any thread) while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_ping_round_trips_allocate_nothing() {
    const WARM: usize = 64;
    const ROUNDS: usize = 20;
    const PINGS_PER_ROUND: usize = 100;

    let mut engine = ShardedEngine::new(
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    );
    for shard in RepoSpec::mixed(12, 60, 1, 0xA110C).shards(2) {
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
    // client scratch grows to fit, and lazy thread-startup allocations
    // happen now instead of inside the meter.
    for _ in 0..WARM {
        client.ping().expect("warm ping");
        client.query(&expr).expect("warm query").expect("rank 1");
    }

    // The meter is live: a warm query still allocates its answer vectors.
    let per_query = allocations_during(|| {
        client.query(&expr).expect("metered query").expect("rank 1");
    });
    assert!(
        per_query >= 1,
        "the counting allocator must see a warm query's allocations"
    );

    for round in 0..ROUNDS {
        let allocs = allocations_during(|| {
            for _ in 0..PINGS_PER_ROUND {
                client.ping().expect("metered ping");
            }
        });
        assert_eq!(
            allocs, 0,
            "round {round}: warm ping round trips must not allocate \
             ({allocs} allocations over {PINGS_PER_ROUND} pings)"
        );
    }

    server.shutdown();
}
