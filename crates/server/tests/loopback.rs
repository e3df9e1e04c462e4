//! Loopback integration: a served [`ShardedEngine`] must be
//! indistinguishable from the same engine in-process — byte-identical
//! query/batch answers and preserved `EngineError`s, under concurrent
//! clients, across the full ingest → query → rebuild → stats → shutdown
//! lifecycle — and overload must surface as a typed `Busy` (bounded
//! admission), never as unbounded buffering.

use dds_core::engine::EngineError;
use dds_core::framework::{Interval, LogicalExpr, MeasureFunction, Predicate, Repository};
use dds_core::pool::BuildOptions;
use dds_core::pref::PrefBuildParams;
use dds_core::ptile::PtileBuildParams;
use dds_core::scratch::QueryScratch;
use dds_core::shard::ShardedEngine;
use dds_geom::{Point, Rect};
use dds_server::protocol::{Request, Response, ServerErrorKind};
use dds_server::wire::{
    encode_frame_into, read_frame_into, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use dds_server::{ClientError, DdsClient, DdsServer, RateLimit, ServerConfig};
use dds_workload::{RepoSpec, RequestStreamSpec};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn params() -> (PtileBuildParams, PrefBuildParams) {
    (
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
    )
}

/// Builds the same sharded engine twice: one to serve, one in-process
/// reference (identical builds are deterministic).
fn engine_pair(spec: &RepoSpec, shards: usize) -> (ShardedEngine, ShardedEngine) {
    let build = || {
        let (ptile, pref) = params();
        let mut svc = ShardedEngine::new(&[1], ptile, pref);
        for shard in spec.shards(shards) {
            svc.try_add_shard_opts(
                &Repository::from_point_sets(shard.sets),
                &shard.global_ids,
                &BuildOptions::serial(),
            )
            .expect("valid ingest");
        }
        svc
    };
    (build(), build())
}

/// Sends a request without waiting for the response (for queue-filling).
fn send_raw(stream: &mut TcpStream, req: &Request) {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, PROTOCOL_VERSION, DEFAULT_MAX_FRAME_LEN, |w| {
        req.encode_to(w)
    })
    .expect("raw encode");
    stream.write_all(&frame).expect("raw send");
}

/// Reads one response frame.
fn read_resp(stream: &mut TcpStream) -> Response {
    let mut body = Vec::new();
    let (_, op) = read_frame_into(stream, DEFAULT_MAX_FRAME_LEN, &mut body).expect("raw read");
    Response::decode(op, &body).expect("decode response")
}

fn wide_query() -> LogicalExpr {
    LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::interval(0.0, 100.0),
        0.2,
    ))
}

/// Polls the server's stats until `pred` holds (the cross-thread
/// rendezvous used by the backpressure and drain tests).
fn await_stats(
    addr: std::net::SocketAddr,
    pred: impl Fn(&dds_server::ServerStats) -> bool,
    what: &str,
) -> dds_server::ServerStats {
    let mut client = DdsClient::connect(addr).expect("stats connection");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().expect("stats call");
        if pred(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn served_answers_are_identical_to_in_process_under_concurrent_clients() {
    let spec = RepoSpec::mixed(18, 50, 1, 0xC0FFEE);
    let (local, served) = engine_pair(&spec, 3);
    // 30 requests over 5 popular shapes; every 5th asks for an unindexed
    // rank, so MissingRank propagation is exercised inside the stream.
    let exprs = RequestStreamSpec::new(30, 11)
        .with_shapes(5)
        .with_missing_rank_every(5, 9)
        .exprs(&spec);
    let expected: Vec<_> = exprs
        .iter()
        .map(|e| local.try_query_with(e, &mut QueryScratch::new()))
        .collect();
    assert!(
        expected
            .iter()
            .any(|r| r == &Err(EngineError::MissingRank(9))),
        "the stream must contain error answers for this test to bite"
    );
    let expected_batch = local.try_query_batch_opts(&exprs, &BuildOptions::serial());
    assert_eq!(expected, expected_batch, "sanity: batch ≡ singles locally");

    let server =
        DdsServer::serve(served, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let exprs = Arc::new(exprs);
    let expected = Arc::new(expected);
    std::thread::scope(|s| {
        for c in 0..3 {
            let exprs = Arc::clone(&exprs);
            let expected = Arc::clone(&expected);
            s.spawn(move || {
                let mut client = DdsClient::connect(addr).expect("client connect");
                client.ping().expect("ping");
                // Singles, in a per-client rotation so clients interleave
                // different expressions concurrently.
                for i in 0..exprs.len() {
                    let j = (i + c * 7) % exprs.len();
                    let got = client.query(&exprs[j]).expect("query transport");
                    assert_eq!(got, expected[j], "client {c}, expr {j}");
                }
                // The whole stream as one batch: input-ordered, identical.
                let got = client.query_batch(&exprs).expect("batch transport");
                assert_eq!(&got, &*expected, "client {c} batch");
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.queries, 90, "3 clients × 30 singles");
    assert_eq!(stats.batch_queries, 3);
    assert_eq!(stats.batch_exprs, 90);
    assert_eq!(stats.busy_rejections, 0, "default depth absorbs this load");
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    assert_eq!(stats.n_shards, 3);
    assert_eq!(stats.n_datasets, 18);
    server.shutdown();
}

#[test]
fn ingest_query_rebuild_stats_shutdown_round_trip() {
    // The server starts EMPTY: the whole catalog arrives through the
    // client, and a local mirror applies the same ops for equivalence.
    let (ptile, pref) = params();
    let mut local = ShardedEngine::new(&[1], ptile, pref);
    let served = {
        let (ptile, pref) = params();
        ShardedEngine::new(&[1], ptile, pref)
    };
    let server =
        DdsServer::serve(served, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let mut client = DdsClient::connect(server.local_addr()).expect("connect");

    let spec = RepoSpec::mixed(12, 40, 1, 0x5EED);
    let exprs = RequestStreamSpec::new(12, 3).exprs(&spec);

    // Ingest shard by shard through the wire, mirroring locally.
    for shard in spec.shards(3) {
        let repo = Repository::from_point_sets(shard.sets);
        let served_idx = client.add_shard(&repo, &shard.global_ids).expect("add");
        let local_idx = local
            .try_add_shard_opts(&repo, &shard.global_ids, &BuildOptions::serial())
            .expect("valid ingest");
        assert_eq!(served_idx, local_idx, "shard indexes agree");
    }
    let compare = |client: &mut DdsClient, local: &ShardedEngine| {
        for e in &exprs {
            assert_eq!(
                client.query(e).expect("transport"),
                local.try_query_with(e, &mut QueryScratch::new())
            );
        }
        assert_eq!(
            client.query_batch(&exprs).expect("transport"),
            local.try_query_batch_opts(&exprs, &BuildOptions::serial())
        );
    };
    compare(&mut client, &local);

    // Rejected ingest: duplicate global id — typed, state untouched.
    let dup = Repository::from_point_sets(RepoSpec::mixed(1, 20, 1, 1).build());
    match client.add_shard(&dup, &[0]) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.kind, ServerErrorKind::Ingest);
            assert!(e.message.contains("already served"), "{}", e.message);
        }
        other => panic!("expected a typed ingest rejection, got {other:?}"),
    }
    compare(&mut client, &local);

    // Rebuild shard 1 with shifted data under the same ids.
    let refreshed = RepoSpec::mixed(12, 40, 1, 0x5EFF).shards(3).swap_remove(1);
    let repo = Repository::from_point_sets(refreshed.sets);
    client
        .rebuild_shard(1, &repo, &refreshed.global_ids)
        .expect("rebuild");
    local
        .try_rebuild_shard_opts(1, &repo, &refreshed.global_ids, &BuildOptions::serial())
        .expect("valid rebuild");
    compare(&mut client, &local);

    // A rebuild of a shard that does not exist is typed too.
    match client.rebuild_shard(9, &repo, &refreshed.global_ids) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.kind, ServerErrorKind::Ingest);
            assert!(e.message.contains("no such shard"), "{}", e.message);
        }
        other => panic!("expected a typed rebuild rejection, got {other:?}"),
    }

    // Stats reflect the engine and the transport.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.n_shards, 3);
    assert_eq!(stats.n_datasets, 12);
    assert_eq!(stats.admin_ops, 6, "3 adds + 1 rejected add + 2 rebuilds");
    assert_eq!(
        (stats.cache_hits, stats.cache_misses),
        local.cache_stats(),
        "served cache counters mirror the local engine's"
    );

    // Remote shutdown, then reap: the server thread set is gone after.
    client.shutdown_server().expect("shutdown ack");
    server.wait_shutdown();
    let final_stats = server.shutdown();
    assert!(final_stats.requests >= stats.requests);
}

#[test]
fn live_split_and_merge_keep_concurrent_answers_byte_identical() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let spec = RepoSpec::mixed(12, 40, 1, 0xBEEF);
    let (local, served) = engine_pair(&spec, 2);
    // A popular-shape stream with MissingRank probes: transitions must
    // preserve errors exactly like hits.
    let exprs = RequestStreamSpec::new(20, 17)
        .with_shapes(5)
        .with_missing_rank_every(5, 9)
        .exprs(&spec);
    let expected: Vec<_> = exprs
        .iter()
        .map(|e| local.try_query_with(e, &mut QueryScratch::new()))
        .collect();
    let move_ids: Vec<u64> = {
        // Shard 0 serves the even ids (round-robin over 2 shards); the
        // split moves the upper half of them to a new shard.
        let ids = spec.shards(2).swap_remove(0).global_ids;
        ids[ids.len() / 2..].to_vec()
    };
    let server =
        DdsServer::serve(served, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let exprs = Arc::new(exprs);
    let expected = Arc::new(expected);
    let churned = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Readers hammer the stream for as long as the churn runs — every
        // answer must be byte-identical to the static in-process engine,
        // whichever side of a transition it lands on.
        for c in 0..3 {
            let exprs = Arc::clone(&exprs);
            let expected = Arc::clone(&expected);
            let churned = &churned;
            s.spawn(move || {
                let mut client = DdsClient::connect(addr).expect("reader connect");
                let mut finish_after = false;
                loop {
                    for (j, e) in exprs.iter().enumerate() {
                        let got = client.query(e).expect("query transport");
                        assert_eq!(got, expected[j], "reader {c}, expr {j}");
                    }
                    let got = client.query_batch(&exprs).expect("batch transport");
                    assert_eq!(&got, &*expected, "reader {c} batch");
                    if finish_after {
                        return;
                    }
                    // One more full pass after the churn completes, so the
                    // post-merge layout is definitely exercised.
                    finish_after = churned.load(Ordering::Acquire);
                }
            });
        }
        // The admin drives a split and a merge through the wire while the
        // readers run.
        let mut admin = DdsClient::connect(addr).expect("admin connect");
        let born = admin.split_shard(0, &move_ids).expect("split");
        assert_eq!(born, 2, "the new shard lands at the end");
        // Let the readers observe the 3-shard layout for a moment.
        std::thread::sleep(Duration::from_millis(50));
        let survivor = admin.merge_shards(2, 1).expect("merge");
        assert_eq!(survivor, 1, "merge survives at min(a, b)");
        churned.store(true, Ordering::Release);
    });
    let stats = server.stats();
    assert_eq!(stats.shard_splits, 1);
    assert_eq!(stats.shard_merges, 1);
    assert_eq!(stats.admin_ops, 2, "one split + one merge");
    assert_eq!(stats.n_shards, 2, "3 after the split, 2 after the merge");
    assert_eq!(stats.n_datasets, 12, "transitions conserve the catalog");
    server.shutdown();
}

#[test]
fn schema_mismatch_queries_get_typed_errors_not_panics() {
    let spec = RepoSpec::mixed(6, 30, 2, 77);
    let (_, served) = engine_pair(&spec, 2);
    let server = DdsServer::serve(served, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = DdsClient::connect(server.local_addr()).expect("connect");
    // 1-d query against a 2-d catalog: in-process this would panic the
    // engine's dimension assert; served traffic gets a typed *permanent*
    // error (InvalidQuery, not the transient Unavailable).
    match client.query(&wide_query()) {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ServerErrorKind::InvalidQuery),
        other => panic!("expected a typed schema error, got {other:?}"),
    }
    // The server survived and still answers well-formed queries.
    let ok = LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::from_bounds(&[0.0, 0.0], &[100.0, 100.0]),
        0.2,
    ));
    assert!(client.query(&ok).expect("transport").is_ok());
    server.shutdown();
}

#[test]
fn bounded_topk_theta_is_answered_over_the_wire() {
    // θ's upper end travels on the wire and bounds a top-k answer: {0.05}
    // qualifies for θ = [0, 0.2] along +1, while {0.9} is far outside the
    // ε band (0.1) above it.
    let (ptile, pref) = params();
    let mut svc = ShardedEngine::new(&[1], ptile, pref);
    svc.try_add_shard_opts(
        &Repository::from_point_sets(vec![vec![Point::one(0.05)], vec![Point::one(0.9)]]),
        &[0, 1],
        &BuildOptions::serial(),
    )
    .expect("valid ingest");
    let server = DdsServer::serve(svc, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = DdsClient::connect(server.local_addr()).expect("connect");
    let expr = LogicalExpr::Pred(Predicate {
        measure: MeasureFunction::TopK { v: vec![1.0], k: 1 },
        theta: Interval::new(0.0, 0.2),
    });
    assert_eq!(client.query(&expr).expect("transport"), Ok(vec![0]));
    server.shutdown();
}

#[test]
fn full_admission_queue_answers_busy_with_bounded_memory() {
    let spec = RepoSpec::mixed(4, 30, 1, 9);
    let (local, served) = engine_pair(&spec, 1);
    let cfg = ServerConfig {
        queue_depth: 2,
        executors: 1,
        allow_sleep: true,
        ..ServerConfig::default()
    };
    let server = DdsServer::serve(served, "127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();

    // Occupy the only executor...
    let mut sleeper = TcpStream::connect(addr).expect("sleeper");
    send_raw(&mut sleeper, &Request::Sleep { ms: 1500 });
    await_stats(addr, |s| s.jobs_dequeued == 1, "the sleep to start");
    // ...then fill both queue slots with unread queries...
    let mut q1 = TcpStream::connect(addr).expect("q1");
    send_raw(&mut q1, &Request::Query(wide_query()));
    let mut q2 = TcpStream::connect(addr).expect("q2");
    send_raw(&mut q2, &Request::Query(wide_query()));
    await_stats(addr, |s| s.jobs_admitted == 3, "the queue to fill");

    // ...so the next request must bounce with a typed Busy, unexecuted.
    let mut overflow = DdsClient::connect(addr).expect("overflow client");
    match overflow.query(&wide_query()) {
        Err(ClientError::Busy) => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    let stats = await_stats(addr, |s| s.busy_rejections == 1, "the busy count");
    assert_eq!(
        stats.jobs_admitted, 3,
        "the bounced request was never queued"
    );

    // Backpressure is not loss: everything admitted completes and
    // answers, and the bounced client just retries successfully.
    assert_eq!(read_resp(&mut sleeper), Response::Done);
    let expected = Response::Hits(local.try_query_with(&wide_query(), &mut QueryScratch::new()));
    assert_eq!(read_resp(&mut q1), expected);
    assert_eq!(read_resp(&mut q2), expected);
    let retried = overflow.query(&wide_query()).expect("retry after drain");
    assert_eq!(
        retried,
        local.try_query_with(&wide_query(), &mut QueryScratch::new())
    );
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_admitted_work_and_gates_new_work() {
    let spec = RepoSpec::mixed(4, 30, 1, 13);
    let (local, served) = engine_pair(&spec, 1);
    let cfg = ServerConfig {
        queue_depth: 4,
        executors: 1,
        allow_sleep: true,
        ..ServerConfig::default()
    };
    let server = DdsServer::serve(served, "127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();

    // In-flight work: a sleep executing, a query admitted behind it.
    let mut sleeper = TcpStream::connect(addr).expect("sleeper");
    send_raw(&mut sleeper, &Request::Sleep { ms: 600 });
    await_stats(addr, |s| s.jobs_dequeued == 1, "the sleep to start");
    let mut queued = TcpStream::connect(addr).expect("queued");
    send_raw(&mut queued, &Request::Query(wide_query()));
    await_stats(addr, |s| s.jobs_admitted == 2, "the query to be admitted");

    // A bystander connection from before the shutdown...
    let mut bystander = DdsClient::connect(addr).expect("bystander");
    bystander.ping().expect("ping");
    // ...and the shutdown itself, via the wire.
    let mut admin = DdsClient::connect(addr).expect("admin");
    admin.shutdown_server().expect("shutdown ack");

    // New work on a surviving connection is gated with a typed error
    // (poll: the gate flips just after the shutdown ack is sent).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match bystander.query(&wide_query()) {
            Err(ClientError::Server(e)) if e.kind == ServerErrorKind::Unavailable => break,
            Ok(_) => assert!(Instant::now() < deadline, "shutdown gate never closed"),
            other => panic!("expected Unavailable, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // Reap: drains the queue first, so the admitted work was executed and
    // answered — nothing admitted is ever dropped.
    let stats = server.shutdown();
    assert_eq!(stats.jobs_completed, 2, "sleep + admitted query both ran");
    assert!(stats.unavailable_rejections >= 1);
    assert_eq!(read_resp(&mut sleeper), Response::Done);
    assert_eq!(
        read_resp(&mut queued),
        Response::Hits(local.try_query_with(&wide_query(), &mut QueryScratch::new()))
    );
}

#[test]
fn sixty_four_idle_connections_are_served_by_two_io_threads() {
    // The scale-out contract: the I/O thread pool is FIXED (2 here) and
    // strictly smaller than the connection count (64), yet every session
    // is live — answered when it speaks, parked for free when idle. The
    // old thread-per-connection design would need 64 session threads.
    let spec = RepoSpec::mixed(4, 20, 1, 3);
    let (local, served) = engine_pair(&spec, 1);
    let cfg = ServerConfig {
        io_threads: 2,
        ..ServerConfig::default()
    };
    let server = DdsServer::serve(served, "127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();

    const N: usize = 64;
    let mut clients: Vec<DdsClient> = (0..N)
        .map(|i| DdsClient::connect(addr).unwrap_or_else(|e| panic!("client {i}: {e}")))
        .collect();
    // Every connection is answered while the other 63 sit idle.
    for (i, c) in clients.iter_mut().enumerate() {
        c.ping().unwrap_or_else(|e| panic!("ping {i}: {e}"));
    }
    let stats = clients[0].stats().expect("stats");
    assert_eq!(stats.sessions_active, N as u64, "all 64 sessions live");
    assert_eq!(stats.sessions_opened, N as u64);
    // Work still round-trips through the executor pool for every one of
    // them — parked sessions come back for their completions.
    let expected = local.try_query_with(&wide_query(), &mut QueryScratch::new());
    for (i, c) in clients.iter_mut().enumerate() {
        let got = c
            .query(&wide_query())
            .unwrap_or_else(|e| panic!("query {i}: {e}"));
        assert_eq!(got, expected, "client {i}");
    }
    drop(clients);
    // The sessions drain as the closes are noticed (<= 1 tolerates the
    // stats poller's own connection).
    await_stats(addr, |s| s.sessions_active <= 1, "sessions to drain");
    let final_stats = server.shutdown();
    assert_eq!(final_stats.sessions_active, 0, "no session leaked");
}

#[test]
fn reconnect_storm_leaves_stats_consistent_and_reuses_buffers() {
    let spec = RepoSpec::mixed(4, 20, 1, 5);
    let (_, served) = engine_pair(&spec, 1);
    let server = DdsServer::serve(served, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    #[cfg(target_os = "linux")]
    let fds_before = std::fs::read_dir("/proc/self/fd").unwrap().count();

    const CYCLES: usize = 100;
    for i in 0..CYCLES {
        let mut c = DdsClient::connect(addr).unwrap_or_else(|e| panic!("cycle {i}: {e}"));
        c.ping().unwrap_or_else(|e| panic!("ping {i}: {e}"));
        // Half the cycles drop with a request the client never awaits,
        // so the server also sees mid-session disappearances.
        if i % 2 == 0 {
            let mut raw = TcpStream::connect(addr).expect("raw");
            send_raw(&mut raw, &Request::Ping { token: i as u64 });
        }
    }
    let stats = await_stats(
        addr,
        |s| s.sessions_active <= 1 && s.sessions_opened >= (CYCLES + CYCLES / 2) as u64,
        "the storm to drain",
    );
    assert_eq!(stats.wire_errors, 0, "clean closes are not wire errors");
    assert!(
        stats.buffers_reused > 0,
        "a warm pool must serve reconnects from recycled buffers"
    );

    // Tolerant fd-leak check: other tests in this process open and close
    // sockets concurrently, so poll until the count settles near the
    // baseline instead of demanding an instant exact match.
    #[cfg(target_os = "linux")]
    {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let fds_now = std::fs::read_dir("/proc/self/fd").unwrap().count();
            if fds_now <= fds_before + 16 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "fd count never settled: {fds_before} before the storm, {fds_now} after"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    let final_stats = server.shutdown();
    assert_eq!(final_stats.sessions_active, 0, "no session leaked");
    assert!(final_stats.sessions_opened >= (CYCLES + CYCLES / 2) as u64);
}

#[test]
fn exhausted_rate_limits_answer_typed_throttled_errors() {
    let spec = RepoSpec::mixed(4, 20, 1, 7);
    let (local, served) = engine_pair(&spec, 1);
    // per_sec: 0 — the burst is all a session gets, so the drill is
    // fully deterministic.
    let cfg = ServerConfig {
        rate_limit: Some(RateLimit {
            burst: 3,
            per_sec: 0,
        }),
        ..ServerConfig::default()
    };
    let server = DdsServer::serve(served, "127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();

    let mut client = DdsClient::connect(addr).expect("connect");
    let expected = local.try_query_with(&wide_query(), &mut QueryScratch::new());
    for i in 0..3 {
        let got = client
            .query(&wide_query())
            .unwrap_or_else(|e| panic!("in-budget {i}: {e}"));
        assert_eq!(got, expected);
    }
    // The fourth work op exceeds the burst: typed, transient, counted.
    match client.query(&wide_query()) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.kind, ServerErrorKind::Throttled);
            assert!(e.message.contains("rate limit"), "{}", e.message);
        }
        other => panic!("expected a typed throttle, got {other:?}"),
    }
    // Control ops are never throttled: the session can still observe the
    // server (and see itself counted).
    client.ping().expect("ping is not throttled");
    let stats = client.stats().expect("stats is not throttled");
    assert_eq!(stats.sessions_throttled, 1);
    assert_eq!(stats.queries, 3, "the throttled query never executed");
    // Budgets are per session: a fresh connection has its own bucket.
    let mut fresh = DdsClient::connect(addr).expect("fresh connect");
    assert_eq!(fresh.query(&wide_query()).expect("fresh budget"), expected);
    server.shutdown();
}

#[test]
fn rate_limit_tokens_refill_over_time() {
    let spec = RepoSpec::mixed(4, 20, 1, 9);
    let (local, served) = engine_pair(&spec, 1);
    // One-token bucket refilling at 2/s: a back-to-back second query is
    // throttled, a 700ms wait buys the token back.
    let cfg = ServerConfig {
        rate_limit: Some(RateLimit {
            burst: 1,
            per_sec: 2,
        }),
        ..ServerConfig::default()
    };
    let server = DdsServer::serve(served, "127.0.0.1:0", cfg).expect("bind");
    let mut client = DdsClient::connect(server.local_addr()).expect("connect");
    let expected = local.try_query_with(&wide_query(), &mut QueryScratch::new());
    assert_eq!(client.query(&wide_query()).expect("first"), expected);
    match client.query(&wide_query()) {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ServerErrorKind::Throttled),
        other => panic!("expected a throttle before the refill, got {other:?}"),
    }
    std::thread::sleep(Duration::from_millis(700));
    assert_eq!(client.query(&wide_query()).expect("after refill"), expected);
    server.shutdown();
}

#[test]
fn metrics_report_per_stage_latencies_without_touching_answers() {
    let spec = RepoSpec::mixed(12, 40, 1, 0x713);
    let (local, served) = engine_pair(&spec, 2);
    let exprs = RequestStreamSpec::new(20, 7).with_shapes(4).exprs(&spec);
    let expected: Vec<_> = exprs
        .iter()
        .map(|e| local.try_query_with(e, &mut QueryScratch::new()))
        .collect();

    // A zero threshold turns every request into a slow-query trace, so
    // the ring is demonstrably populated; answers must be unchanged.
    let cfg = ServerConfig {
        slow_query_threshold: Duration::ZERO,
        slow_log_capacity: 8,
        ..ServerConfig::default()
    };
    let server = DdsServer::serve(served, "127.0.0.1:0", cfg).expect("bind loopback");
    let mut client = DdsClient::connect(server.local_addr()).expect("connect");
    for (e, want) in exprs.iter().zip(&expected) {
        assert_eq!(&client.query(e).expect("query"), want);
    }

    let report = client.metrics().expect("metrics");
    for (stage, snap) in report.stages() {
        assert!(snap.total() > 0, "stage {stage} recorded nothing");
        let p50 = snap.quantile(0.5).expect("p50");
        let p99 = snap.quantile(0.99).expect("p99");
        let p999 = snap.quantile(0.999).expect("p999");
        assert!(
            p50 <= p99 && p99 <= p999,
            "{stage}: p50 {p50} p99 {p99} p999 {p999}"
        );
    }

    // The ring holds the most recent traces in sequence order, and every
    // trace carries real sizes and consistent stage sums.
    let traces = &report.slow_queries;
    assert!(!traces.is_empty() && traces.len() <= 8, "{}", traces.len());
    for w in traces.windows(2) {
        assert!(w[0].seq < w[1].seq, "seqs must ascend");
    }
    for t in traces {
        assert!(t.bytes_in > 0 && t.bytes_out > 0);
        assert!(t.total_ns >= t.decode_ns && t.total_ns >= t.write_ns);
    }
    assert!(
        traces
            .iter()
            .any(|t| t.shards_scattered + t.shards_skipped_box + t.shards_skipped_synopsis > 0),
        "query traces must see shard routing"
    );

    // The Prometheus-style rendering names every stage and the ring.
    let text = report.render_text();
    for (stage, _) in report.stages() {
        assert!(text.contains(&format!("stage=\"{stage}\"")), "{stage}");
    }
    assert!(text.contains("dds_slow_queries_recent"));
    server.shutdown();
}

/// A client holding a reply always finds that reply's trace: the server
/// publishes each response's trace before the write that can complete it,
/// so the slow log read right after a reply already holds it — exactly
/// once, never zero and never twice.
#[test]
fn every_reply_is_traced_before_the_client_holds_it() {
    const QUERIES: usize = 2000;
    let spec = RepoSpec::mixed(6, 20, 1, 0x7ACE);
    let (_, served) = engine_pair(&spec, 2);
    let cfg = ServerConfig {
        slow_query_threshold: Duration::ZERO,
        slow_log_capacity: QUERIES + 16,
        ..ServerConfig::default()
    };
    let server = DdsServer::serve(served, "127.0.0.1:0", cfg).expect("bind loopback");
    let mut client = DdsClient::connect(server.local_addr()).expect("connect");
    let query_traces = |server: &DdsServer| {
        server
            .metrics()
            .slow_queries
            .iter()
            .filter(|t| t.opcode == dds_server::protocol::opcode::QUERY)
            .count()
    };
    for i in 0..QUERIES {
        client.query(&wide_query()).expect("query").expect("answer");
        assert_eq!(
            query_traces(&server),
            i + 1,
            "after reply {} the slow log must hold its trace, once",
            i + 1
        );
    }
    server.shutdown();
}
