//! Pins the [`ServerStats`] append-only wire contract itself: the
//! counter count and the exact serialization order must match the table
//! in `PROTOCOL.md`. A future counter added anywhere but the END of the
//! list fails here — silently reordering would corrupt every deployed
//! client's decoding.

use dds_core::framework::{Dataset, Repository};
use dds_core::pool::BuildOptions;
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::shard::ShardedEngine;
use dds_server::wire::Writer;
use dds_server::{DdsClient, DdsServer, Response, ServerConfig, ServerStats};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The canonical order, read from PROTOCOL.md's stats list (the code
/// span after "Current order:"). New counters append; nothing moves.
fn field_order() -> Vec<&'static str> {
    const DOC: &str = include_str!("../PROTOCOL.md");
    let after = DOC
        .split("Current order:")
        .nth(1)
        .expect("PROTOCOL.md lists the order");
    let list = after.split('`').nth(1).expect("the order is one code span");
    list.split(',').map(str::trim).collect()
}

/// Each counter of `stats` by field name, read off its `Debug` output so
/// that no name here is typed by hand.
fn by_name(stats: &ServerStats) -> HashMap<String, u64> {
    let debug = format!("{stats:?}");
    let fields = debug
        .trim_start_matches("ServerStats {")
        .trim_end_matches('}');
    fields
        .split(',')
        .map(|kv| {
            let (k, v) = kv.split_once(':').expect("name: value");
            (k.trim().to_string(), v.trim().parse().expect("a u64"))
        })
        .collect()
}

/// A stats value whose every counter holds its own 1-based position in
/// the canonical order — so the raw payload reveals exactly which field
/// was serialized where.
fn position_stamped() -> ServerStats {
    ServerStats {
        requests: 1,
        queries: 2,
        batch_queries: 3,
        batch_exprs: 4,
        admin_ops: 5,
        busy_rejections: 6,
        unavailable_rejections: 7,
        wire_errors: 8,
        jobs_admitted: 9,
        jobs_dequeued: 10,
        jobs_completed: 11,
        bytes_in: 12,
        bytes_out: 13,
        sessions_opened: 14,
        sessions_active: 15,
        cache_hits: 16,
        cache_misses: 17,
        index_queries: 18,
        shards_routed_past: 19,
        n_shards: 20,
        n_datasets: 21,
        executor_panics: 22,
        sessions_throttled: 23,
        buffers_reused: 24,
        shard_splits: 25,
        shard_merges: 26,
        sessions_reaped: 27,
        retries_attempted: 28,
        requests_deduped: 29,
        shards_routed_by_synopsis: 30,
    }
}

#[test]
fn stats_frame_serializes_every_counter_in_protocol_md_order() {
    let field_order = field_order();
    let stamped = by_name(&position_stamped());
    let mut w = Writer::new();
    Response::Stats(position_stamped()).encode_to(&mut w);
    let payload = w.into_bytes();
    // Payload grammar: count:u32, then count × u64, all little-endian.
    let count = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
    assert_eq!(
        count,
        field_order.len(),
        "counter count drifted from PROTOCOL.md's table"
    );
    assert_eq!(payload.len(), 4 + 8 * count, "payload is exactly the list");
    for (i, name) in field_order.iter().enumerate() {
        let off = 4 + 8 * i;
        let got = u64::from_le_bytes(payload[off..off + 8].try_into().unwrap());
        assert_eq!(
            got,
            (i + 1) as u64,
            "slot {i} of the stats frame must hold `{name}` — a counter \
             was inserted or reordered instead of appended"
        );
        assert_eq!(
            stamped.get(*name),
            Some(&got),
            "PROTOCOL.md names `{name}` at slot {i}, but the frame holds another counter there"
        );
    }
}

#[test]
fn newest_counters_sit_at_the_end_of_the_frame() {
    // The append-only rule in action: the newest counter is the LAST
    // slot, so a pre-existing client decoding only the prefix it knows
    // still reads every older counter correctly.
    let field_order = field_order();
    let tail = &field_order[field_order.len() - 4..];
    assert_eq!(
        tail,
        &[
            "sessions_reaped",
            "retries_attempted",
            "requests_deduped",
            "shards_routed_by_synopsis"
        ]
    );
}

#[test]
fn stats_round_trip_is_lossless_at_the_current_width() {
    let stamped = position_stamped();
    let mut w = Writer::new();
    let op = Response::Stats(stamped).encode_to(&mut w);
    match Response::decode(op, &w.into_bytes()).expect("decode") {
        Response::Stats(got) => assert_eq!(got, position_stamped()),
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn sessions_active_is_a_gauge_that_returns_to_zero() {
    // Every other field in the frame is a monotonic counter;
    // `sessions_active` alone is a gauge (documented in PROTOCOL.md).
    // Pin the gauge behavior: it rises with live connections and falls
    // back to exactly zero once every client is gone, while the
    // `sessions_opened` counter keeps its high-water history.
    let mut engine = ShardedEngine::new(
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    );
    engine
        .try_add_shard_opts(
            &Repository::new(vec![Dataset::from_rows("d", vec![vec![1.0]])]),
            &[0],
            &BuildOptions::serial(),
        )
        .expect("valid ingest");
    let server = DdsServer::serve(engine, "127.0.0.1:0", ServerConfig::default()).expect("bind");

    let mut clients: Vec<DdsClient> = (0..3)
        .map(|_| DdsClient::connect(server.local_addr()).expect("connect"))
        .collect();
    for c in &mut clients {
        c.ping().expect("ping");
    }
    let stats = server.stats();
    assert_eq!(stats.sessions_active, 3);
    assert_eq!(stats.sessions_opened, 3);

    drop(clients);
    // Disconnects are observed by the I/O threads asynchronously.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = server.stats();
        if stats.sessions_active == 0 {
            assert_eq!(stats.sessions_opened, 3, "the counter keeps history");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sessions_active stuck at {} after all clients disconnected",
            stats.sessions_active
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
}
