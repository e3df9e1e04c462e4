//! The traced pass of one workload: the per-layer metrics.
//!
//! Every layer is timed from here, around calls into its public functions,
//! on the same fixed sample (the first reads of the closed-phase stream),
//! single-threaded, each replay starting from cold mask caches so every
//! layer sees the cache evolve exactly as the served engine did. Spans are
//! kept in memory and written out when the pass ends. A layer's self time
//! is its span minus the spans of the layer below on the same request.

use crate::alloc;
use crate::driver;
use crate::run::{self, Bench, Outcome};
use crate::stats::{self, mean, median, Percentiles};
use crate::sut::{self, Answer, Connection, Expr, Request};
use crate::workloads::{Observed, StreamId, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Rungs of the open-loop ladder: `half_qps × 1.25^k`, up to 1.2 × the
/// closed-loop throughput `half_qps` was frozen from.
const LADDER_RUNGS: usize = 5;
/// The ladder's latency limit, in multiples of the frozen `closed_p50_us`.
/// (On this box the open-loop p99 at the `half` rate already sits at 5–8 ×
/// the closed-loop median: sleeping clients wake cold threads.)
const KNEE_LIMIT: f64 = 10.0;
/// Pings behind `server.client.ping_ns`.
const PINGS: usize = 256;
/// Index probes synthesised when the sample has too few leaves of a kind.
const PROBES: usize = 256;

pub struct Config {
    pub seed: u64,
    /// The open-loop ladder gets half of this; the sample-bound probes take
    /// what they take.
    pub seconds: f64,
    pub check: bool,
    /// Requests in the traced sample.
    pub sample: usize,
    pub trace_out: Option<PathBuf>,
}

/// A timed interval, nanoseconds since the pass's first measurement.
#[derive(Clone, Copy, Debug)]
struct Span {
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Span) {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let span = Span {
        start_ns: sut::ns(start.duration_since(epoch)),
        end_ns: sut::ns(end.duration_since(epoch)),
    };
    (out, span)
}

/// The spans of one pass: `{workload, request, layer, parent, start_ns,
/// end_ns}`, one JSON object per line when written.
struct Spans {
    workload: &'static str,
    rows: Vec<(usize, &'static str, &'static str, Span)>,
}

impl Spans {
    fn push(&mut self, request: usize, layer: &'static str, parent: &'static str, span: Span) {
        self.rows.push((request, layer, parent, span));
    }

    fn write(&self, path: &PathBuf) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (request, layer, parent, span) in &self.rows {
            writeln!(
                out,
                "{{\"workload\":\"{}\",\"request\":{request},\"layer\":\"{layer}\",\"parent\":\"{parent}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.workload, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Replays the sample through `f`, one span per request under `layer`.
fn replay<T>(
    spans: &mut Spans,
    layer: &'static str,
    parent: &'static str,
    sample: &[&Expr],
    mut f: impl FnMut(usize, &Expr) -> T,
) -> (Vec<f64>, Vec<T>) {
    let mut ns = Vec::with_capacity(sample.len());
    let mut outs = Vec::with_capacity(sample.len());
    for (r, expr) in sample.iter().enumerate() {
        let (out, span) = timed(|| f(r, expr));
        spans.push(r, layer, parent, span);
        ns.push(span.ns());
        outs.push(out);
    }
    (ns, outs)
}

/// The sample sent over one connection, one request after the other.
fn served_replay(
    spans: &mut Spans,
    layer: &'static str,
    conn: &mut sut::Client,
    sample: &[&Expr],
) -> (Vec<f64>, Vec<Result<Answer, String>>) {
    alloc::mark_client_thread(true);
    let out = replay(spans, layer, "", sample, |_, expr| {
        match conn.send(&Request::Query(expr.clone())) {
            sut::Reply::Hits(answer) => Ok(answer),
            other => Err(format!("{other:?}")),
        }
    });
    alloc::mark_client_thread(false);
    out
}

/// The 99th percentile of `latencies_us`; a full run fails if fewer than
/// ten samples lie beyond it (then it may not be reported at all).
fn p99_us(out: &mut Outcome, what: &str, latencies_us: Vec<f64>, check: bool) -> f64 {
    let p = Percentiles::of(latencies_us);
    if !check && !p.supports(0.99) {
        out.violations.push(format!(
            "{what}: {} samples leave fewer than {} beyond the 99th percentile",
            p.len(),
            stats::MIN_SAMPLES_BEYOND
        ));
    }
    p.q(0.99)
}

/// The median time of `n` calls of `f`, nanoseconds.
fn probe_ns<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let ns: Vec<f64> = (0..n).map(|_| timed(&mut f).1.ns()).collect();
    median(&ns)
}

fn diff(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// What the open-loop rate ladder found.
struct Ladder {
    knee_qps: f64,
    /// Timer lateness of the generator at the `half` rate.
    lateness_p99_us: f64,
    half_p99_us: f64,
    high_p50_us: f64,
    high_p99_us: f64,
}

/// The open-loop rate ladder: `half_qps × 1.25^k`, every rung timed from
/// due times. Its first rung is the `half` rate and its third the `high`
/// rate; the knee is the highest rung (from the bottom, without a gap)
/// whose p99 stays under [`KNEE_LIMIT`] × the frozen `closed_p50_us` and
/// whose backlog is not growing when the rung ends.
fn ladder(w: &Workload, bench: &Bench, cfg: &Config, out: &mut Outcome) -> Ladder {
    let rung_s = cfg.seconds / 2.0 / LADDER_RUNGS as f64;
    let limit_us = KNEE_LIMIT * w.seed_closed_p50_us;
    let generator = w.generator(&bench.cat, cfg.seed);
    let mut conns = bench.connect(sut::default_threads());
    let mut found = Ladder {
        knee_qps: 0.0,
        lateness_p99_us: 0.0,
        half_p99_us: 0.0,
        high_p50_us: 0.0,
        high_p99_us: 0.0,
    };
    let mut holding = true;
    for rung in 0..LADDER_RUNGS {
        let rate = w.half_qps * 1.25f64.powi(rung as i32);
        let schedule = stats::poisson_schedule(rate, rung_s, cfg.seed ^ (0xC0FE + rung as u64));
        let stream = generator.stream(StreamId::Ladder, rung, schedule.len().max(1));
        let phase = driver::open_loop(&mut conns, &stream, &schedule);
        out.attempted += phase.samples.len();
        out.failed += phase.failed();
        let p50 = median(&phase.latencies_us(false));
        let p99 = p99_us(out, "ladder rung", phase.latencies_us(false), cfg.check);
        let mut in_order: Vec<&driver::Sample> = phase.samples.iter().collect();
        in_order.sort_by_key(|s| s.index);
        let tail = (in_order.len() / 10).max(1);
        let closing: Vec<f64> = in_order[in_order.len() - tail..]
            .iter()
            .map(|s| s.late_ns as f64 / 1e3)
            .collect();
        let backlog_us = median(&closing);
        if rung == 0 {
            found.half_p99_us = p99;
            found.lateness_p99_us = Percentiles::of(
                phase
                    .samples
                    .iter()
                    .filter(|s| s.on_time)
                    .map(|s| s.late_ns as f64 / 1e3)
                    .collect(),
            )
            .q(0.99);
        }
        if rung == 2 {
            (found.high_p50_us, found.high_p99_us) = (p50, p99);
        }
        holding &= p99 <= limit_us && backlog_us <= limit_us;
        if holding {
            found.knee_qps = rate;
        }
        out.notes.push(format!(
            "ladder rung {rate:.0}/s: p50 {p50:.0} us, p99 {p99:.0} us (limit {limit_us:.0}), closing backlog {backlog_us:.0} us, {} samples",
            phase.samples.len()
        ));
    }
    found
}

pub fn traced(w: &Workload, cfg: &Config) -> (Outcome, String) {
    let mut out = Outcome::default();
    let mut spans = Spans {
        workload: w.name,
        rows: Vec::new(),
    };
    let threads = sut::default_threads();

    // The sample: the first reads of the closed-phase stream.
    let mut bench = Bench::start(w, cfg.seed, 1, None);
    let mut lab = bench.twins.swap_remove(0);
    let cat = Arc::clone(&bench.cat);
    let generator = w.generator(&cat, cfg.seed);
    let stream = generator.stream(StreamId::Closed, 0, cfg.sample * 2 + 16);
    let sample: Vec<&Expr> = stream
        .iter()
        .filter_map(|r| match r {
            Request::Query(expr) => Some(expr),
            Request::Write => None,
        })
        .take(cfg.sample)
        .collect();
    let n = sample.len() as f64;

    // Served, tracing off: the baseline `trace.overhead_pct` compares with;
    // a closed-loop burst at full concurrency for the tail and the lifecycle
    // ops (the two numbers too unsteady on a shared host to carry a bound);
    // then the open-loop ladder.
    let (rtt_plain, _) = served_replay(
        &mut spans,
        "server.client.rtt.untraced",
        &mut bench.connect(1)[0],
        &sample,
    );
    let burst_s = cfg.seconds / 6.0;
    let burst_stream =
        generator.stream(StreamId::Closed, 1, run::stream_len(w, burst_s, cfg.check));
    let mut conns = bench.connect(threads);
    let burst = driver::closed_loop(
        &mut conns,
        &burst_stream,
        std::time::Duration::from_secs_f64(burst_s),
        0,
    );
    out.attempted += burst.samples.len();
    out.failed += burst.failed();
    let closed_p99_us = p99_us(
        &mut out,
        "closed_p99_us",
        burst.latencies_us(false),
        cfg.check,
    );
    let mut write_ms = burst.latencies_us(true);
    write_ms.iter_mut().for_each(|us| *us /= 1e3);
    let idle_ops = if w.write_every == 0 {
        4
    } else {
        bench.writes.pending()
    };
    let idle_ms = run::lifecycle_ops(&mut out, &mut conns[0], idle_ops);
    if w.write_every == 0 {
        write_ms = idle_ms;
    }
    out.notes.push(format!(
        "closed burst: {} reads, {} lifecycle ops",
        burst.latencies_us(false).len(),
        write_ms.len()
    ));
    drop(conns);
    let ladder_found = ladder(w, &bench, cfg, &mut out);
    bench.served.stop();

    // Served, every request leaving its exact stage nanoseconds behind.
    let bench = Bench::start(w, cfg.seed, 0, Some(sample.len() + 64));
    let served = &bench.served;
    let mut conn = bench.connect(1).remove(0);
    let before = served.counters();
    let first_rtt_row = spans.rows.len();
    let ((rtt, answers), server_allocs) = alloc::server_side_calls(|| {
        served_replay(&mut spans, "server.client.rtt", &mut conn, &sample)
    });
    let counters = served.counters().since(&before);
    let stages = served.query_traces();
    let ping_ns = probe_ns(PINGS, || conn.ping().expect("ping"));
    drop(conn);
    let (gen_s, index_mb, ingest_ms) = (
        bench.gen_s,
        bench.index_bytes as f64 / 1e6,
        bench.shard_ingest_ms,
    );
    bench.served.stop();
    out.attempted += answers.len();
    let ids: Vec<&[u64]> = answers
        .iter()
        .map(|a| match a {
            Ok(Ok(ids)) => ids.as_slice(),
            Ok(Err(e)) | Err(e) => {
                out.failed += 1;
                out.notes.push(format!("traced sample: {e}"));
                &[]
            }
        })
        .collect();
    if stages.len() != sample.len() {
        out.violations.push(format!(
            "the server traced {} queries for {} sent",
            stages.len(),
            sample.len()
        ));
    }
    let stage =
        |f: fn(&sut::StageNs) -> u64| -> Vec<f64> { stages.iter().map(|s| f(s) as f64).collect() };
    let (decode, queue, execute, write, total) = (
        stage(|s| s.decode),
        stage(|s| s.queue),
        stage(|s| s.execute),
        stage(|s| s.write),
        stage(|s| s.total),
    );
    for (r, s) in stages.iter().enumerate().take(sample.len()) {
        // The server reports durations, not clock readings: its stages are
        // laid end to end from the start of the request's rtt span.
        let mut at = spans.rows[first_rtt_row + r].3.start_ns;
        for (layer, ns) in [
            ("server.server.decode", s.decode),
            ("server.server.queue", s.queue),
            ("server.server.execute", s.execute),
            ("server.server.write", s.write),
        ] {
            spans.push(
                r,
                layer,
                "server.client.rtt",
                Span {
                    start_ns: at,
                    end_ns: at + ns,
                },
            );
            at += ns;
        }
    }

    // Wire codec on the sampled requests and their real answers.
    let codec: Vec<sut::CodecNs> = sample
        .iter()
        .zip(&ids)
        .map(|(expr, ids)| sut::codec_times(expr, ids))
        .collect();
    let codec_col = |f: fn(&sut::CodecNs) -> f64| -> Vec<f64> { codec.iter().map(f).collect() };
    let client_codec: Vec<f64> = codec
        .iter()
        .map(|c| (c.encode_req + c.decode_resp) as f64)
        .collect();

    // The lab: an in-process engine every layer below the wire is probed on.
    let mut scratch = sut::Scratch::new();
    lab.reset_caches();
    let (batch, _) = replay(
        &mut spans,
        "core.shard.batch",
        "server.server.execute",
        &sample,
        |_, e| lab.query_as_served(e),
    );
    lab.reset_caches();
    let lab_before = lab.counters();
    let mut evaluated: Vec<Vec<usize>> = Vec::with_capacity(sample.len());
    let (shard, lab_answers) = replay(
        &mut spans,
        "core.shard.query",
        "core.shard.batch",
        &sample,
        |_, e| {
            let units = lab.evaluated_units();
            let answer = lab.query(e, &mut scratch);
            let after = lab.evaluated_units();
            evaluated.push((0..units.len()).filter(|&s| after[s] > units[s]).collect());
            answer
        },
    );
    let lab_counters = lab.counters().since(&lab_before);
    let mismatches = lab_answers
        .iter()
        .zip(&answers)
        .filter(|(lab, served)| served.as_ref() != Ok(*lab))
        .count();
    if mismatches > 0 {
        out.failed += mismatches;
        out.violations.push(format!(
            "mirror: {mismatches} of {} traced answers differ from the in-process engine",
            sample.len()
        ));
    }
    lab.reset_caches();
    let (engine_sum, _) = replay(
        &mut spans,
        "core.engine.query",
        "core.shard.query",
        &sample,
        |r, e| {
            evaluated[r]
                .iter()
                .map(|&s| lab.shard_query_cached(s, e))
                .sum::<usize>()
        },
    );
    lab.reset_caches();
    let mut warm = Vec::with_capacity(sample.len());
    let (cold, _) = replay(
        &mut spans,
        "core.engine.query.shard0",
        "",
        &sample,
        |_, e| {
            let hits = lab.shard_query_cached(0, e);
            warm.push(timed(|| lab.shard_query_cached(0, e)).1.ns());
            hits
        },
    );
    let (_, warm_allocs) = alloc::server_side_calls(|| {
        sample
            .iter()
            .map(|e| lab.shard_query_cached(0, e))
            .sum::<usize>()
    });
    let (uncached, _) = replay(
        &mut spans,
        "core.engine.uncached.shard0",
        "",
        &sample,
        |_, e| lab.shard_query_uncached(0, e, &mut scratch),
    );

    // Index and kernel: standalone structures over shard 0.
    let index = sut::IndexLab::build(&cat, &w.engine);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1AB);
    let kernel = sut::KernelLab::build(
        &mut rng,
        cat.dim,
        index.lifted_points(),
        cat.bounds.0,
        cat.bounds.1,
        index.ptile_margin(),
    );
    let scores = sut::ScoresLab::build(&mut rng, cat.shards[0].ids.len());
    let net = sut::NetLab::build(cat.dim);
    let mut hits = Vec::new();
    let (mut ptile_ns, mut ptile_hits, mut pref_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut price_index = |e: &Expr, scratch: &mut sut::Scratch| {
        for leaf in sut::leaves(e) {
            let (found, span) = timed(|| index.query(&leaf, scratch));
            if leaf.is_ptile() {
                ptile_ns.push(span.ns());
                ptile_hits.push(found as f64);
            } else {
                pref_ns.push(span.ns());
            }
        }
    };
    let (mut kd_ns, mut kd_hits, mut net_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut price_kernels = |r: usize, e: &Expr, spans: &mut Spans| {
        for leaf in sut::leaves(e) {
            if let (Some(found), span) = timed(|| kernel.report(&leaf, &mut hits)) {
                spans.push(r, "rangetree.kd_report", "core.index.query.shard0", span);
                kd_ns.push(span.ns());
                kd_hits.push(found as f64);
            }
            if let Some(v) = leaf.direction() {
                net_ns.push(timed(|| net.nearest(v)).1.ns());
            }
        }
    };
    let (index_sum, _) = replay(
        &mut spans,
        "core.index.query.shard0",
        "core.engine.uncached.shard0",
        &sample,
        |_, e| price_index(e, &mut scratch),
    );
    for (r, e) in sample.iter().enumerate() {
        price_kernels(r, e, &mut spans);
    }
    // A workload whose stream never reaches an index still prices it, with
    // generated probes.
    let seen = sample
        .iter()
        .flat_map(|e| sut::leaves(e))
        .fold((0, 0), |(p, t), leaf| {
            if leaf.is_ptile() {
                (p + 1, t)
            } else {
                (p, t + 1)
            }
        });
    for (percentile, seen) in [(true, seen.0), (false, seen.1)] {
        if seen >= PROBES / 4 {
            continue;
        }
        for (r, e) in generator.probes(percentile, PROBES).iter().enumerate() {
            price_index(e, &mut scratch);
            price_kernels(r, e, &mut spans);
        }
    }
    let answer_sizes: Vec<f64> = ids.iter().map(|a| a.len() as f64).collect();
    let answer_share = median(&answer_sizes) / cat.n_datasets as f64;
    let scores_ns = probe_ns(PROBES, || {
        scores.report_top(answer_share.clamp(0.01, 1.0), &mut hits)
    });
    let fanout_ns = probe_ns(PROBES, || sut::pool_fanout(lab.n_shards(), threads));
    let options_ns = probe_ns(PROBES, sut::default_threads);

    // Lifecycle ops on the lab, once each (they are tens of milliseconds).
    let (_, rebuild) = timed(|| lab.rebuild_shard(&cat, 0));
    let (new_shard, split) = timed(|| lab.split_shard(&cat, 0));
    let (_, merge) = timed(|| lab.merge_shards(0, new_shard));

    // The stacked budget. Rows above the engine are per-request spans;
    // below it, shard 0's shares scale the engine row.
    let rtt_p50 = median(&rtt);
    let socket = diff(&diff(&rtt, &client_codec), &total);
    let shard_self = diff(&shard, &engine_sum);
    let engine_self = diff(&uncached, &index_sum);
    let (batch_p50, fanout) = (median(&batch), fanout_ns);
    let scatter_wall = (batch_p50 - fanout - options_ns).max(0.0);
    let below_shard = median(&engine_sum).max(1.0);
    let shard_part = median(&shard_self).max(0.0);
    let index_share = (median(&index_sum) / median(&uncached).max(1.0)).clamp(0.0, 1.0);
    let miss_share = 1.0 - lab_counters.hit_ratio();
    let scale = scatter_wall / (shard_part + below_shard);
    let index_row = below_shard * index_share * miss_share * scale;
    let engine_row = below_shard * scale - index_row;
    let rows: Vec<(&str, f64)> = vec![
        (
            "client codec (encode request + decode response)",
            median(&client_codec),
        ),
        (
            "socket and reactor (rtt - client codec - server total)",
            median(&socket),
        ),
        ("server decode", median(&decode)),
        ("server queue", median(&queue)),
        ("server write", median(&write)),
        (
            "pool options (DDS_THREADS + available_parallelism)",
            options_ns,
        ),
        ("pool fan-out (spawn + join, no work)", fanout),
        ("shard self (DNF, routing, gather)", shard_part * scale),
        ("engine self (mask cache, bitset algebra)", engine_row),
        ("index (Ptile/Pref query on a cache miss)", index_row),
    ];
    let explained: f64 = rows.iter().map(|(_, ns)| ns).sum();
    let unexplained = rtt_p50 - explained;
    let unexplained_pct = 100.0 * unexplained / rtt_p50.max(1.0);
    let mut ladder = format!(
        "stacked budget, {} ({} requests, one connection, medians):\n  {:<58} {:>10.0} ns\n",
        w.name,
        sample.len(),
        "server.client.rtt_ns",
        rtt_p50
    );
    for (name, ns) in &rows {
        ladder += &format!(
            "    {name:<56} {ns:>10.0} ns  {:>5.1} %\n",
            100.0 * ns / rtt_p50.max(1.0)
        );
    }
    ladder += &format!(
        "    {:<56} {:>10.0} ns  {:>5.1} %\n      (server execute {:.0} ns against the same call in process {:.0} ns; \
         the scatter ran at {:.2} x its sequential time)\n",
        "unexplained",
        unexplained,
        unexplained_pct,
        median(&execute),
        batch_p50,
        scale
    );

    let seen = Observed {
        hit_ratio: Some(counters.hit_ratio()),
        skip_ratio: Some(counters.skip_ratio()),
        engine_share_of_rtt: Some(median(&shard) / rtt_p50.max(1.0)),
        ..Observed::default()
    };
    out.violations.extend(w.shape.violations(&seen, cfg.check));

    let mb = |bytes: usize| bytes as f64 / 1e6;
    out.metrics = vec![
        ("rangetree.kd_build_ms", kernel.build_ms),
        ("rangetree.kd_report_ns", median(&kd_ns)),
        ("rangetree.kd_hits_per_report", mean(&kd_hits)),
        ("rangetree.scores_report_ns", scores_ns),
        ("geom.epsnet_nearest_ns", median(&net_ns)),
        ("synopsis.exact_build_ms", index.synopses_ms),
        ("pool.options_ns", options_ns),
        ("pool.fanout_ns", fanout_ns),
        ("core.ptile.build_ms", index.ptile_build_ms),
        ("core.ptile.query_ns", median(&ptile_ns)),
        ("core.ptile.hits_per_query", mean(&ptile_hits)),
        ("core.ptile.lifted_points", index.lifted_points() as f64),
        ("core.ptile.mem_mb", mb(index.ptile_mem_bytes())),
        ("core.ptile.margin", index.ptile_margin()),
        ("core.pref.build_ms", index.pref_build_ms),
        ("core.pref.query_ns", median(&pref_ns)),
        ("core.pref.directions", index.pref_directions() as f64),
        ("core.pref.mem_mb", mb(index.pref_mem_bytes())),
        ("core.engine.query_cold_ns", median(&cold)),
        ("core.engine.query_warm_ns", median(&warm)),
        ("core.engine.self_ns", median(&engine_self)),
        (
            "core.engine.index_queries_per_req",
            lab_counters.index_queries as f64 / n,
        ),
        ("core.engine.allocs_per_query", warm_allocs as f64 / n),
        ("core.cache.hit_ratio", counters.hit_ratio()),
        ("core.shard.query_ns", median(&shard)),
        ("core.shard.batch_ns", batch_p50),
        ("core.shard.self_ns", median(&shard_self)),
        ("core.shard.route_skip_ratio", counters.skip_ratio()),
        ("core.shard.synopsis_skip_share", counters.synopsis_share()),
        (
            "core.shard.scatter_units_per_req",
            counters.scatter_units as f64 / n,
        ),
        ("core.shard.ingest_ms", ingest_ms),
        ("core.shard.rebuild_ms", rebuild.ns() / 1e6),
        ("core.shard.split_ms", split.ns() / 1e6),
        ("core.shard.merge_ms", merge.ns() / 1e6),
        ("core.shard.space_amp", index_mb / mb(cat.raw_bytes())),
        (
            "server.protocol.encode_req_ns",
            median(&codec_col(|c| c.encode_req as f64)),
        ),
        (
            "server.protocol.decode_req_ns",
            median(&codec_col(|c| c.decode_req as f64)),
        ),
        (
            "server.protocol.encode_resp_ns",
            median(&codec_col(|c| c.encode_resp as f64)),
        ),
        (
            "server.protocol.decode_resp_ns",
            median(&codec_col(|c| c.decode_resp as f64)),
        ),
        (
            "server.protocol.req_bytes",
            median(&codec_col(|c| c.req_bytes as f64)),
        ),
        (
            "server.protocol.resp_bytes",
            median(&codec_col(|c| c.resp_bytes as f64)),
        ),
        ("server.server.decode_ns", median(&decode)),
        ("server.server.queue_ns", median(&queue)),
        ("server.server.execute_ns", median(&execute)),
        ("server.server.write_ns", median(&write)),
        ("server.server.allocs_per_req", server_allocs as f64 / n),
        (
            "server.server.buffers_reused_per_req",
            counters.buffers_reused as f64 / n,
        ),
        ("server.server.busy_share", counters.busy as f64 / n),
        ("server.client.rtt_ns", rtt_p50),
        ("server.client.ping_ns", ping_ns),
        ("server.socket_ns", median(&socket)),
        ("stack.unexplained_ns", unexplained),
        ("stack.unexplained_pct", unexplained_pct),
        ("closed_p99_us", closed_p99_us),
        ("write_p50_ms", median(&write_ms)),
        ("open_half_p99_us", ladder_found.half_p99_us),
        ("open_high_p50_us", ladder_found.high_p50_us),
        ("open_high_p99_us", ladder_found.high_p99_us),
        ("server.knee_qps", ladder_found.knee_qps),
        ("gen.lateness_p99_us", ladder_found.lateness_p99_us),
        (
            "trace.overhead_pct",
            100.0 * (rtt_p50 - median(&rtt_plain)) / median(&rtt_plain).max(1.0),
        ),
        (
            "workload.answer_ids_p50",
            answer_share * cat.n_datasets as f64,
        ),
        ("workload.gen_s", gen_s),
    ];
    out.notes
        .push(format!("traced sample: {} requests; {seen}", sample.len()));
    if let Some(path) = &cfg.trace_out {
        match spans.write(path) {
            Ok(()) => out.notes.push(format!(
                "{} spans written to {}",
                spans.rows.len(),
                path.display()
            )),
            Err(e) => out
                .violations
                .push(format!("writing spans to {}: {e}", path.display())),
        }
    }
    (out, ladder)
}
