//! The untraced pass of one workload: set-up, warm-up, a closed phase and
//! an open phase at the frozen `half` rate, then the correctness oracle.
//! Yields the end-to-end metrics.

use crate::alloc;
use crate::driver::{self, Phase};
use crate::stats::{self, Percentiles};
use crate::sut::{self, Answer, Catalog, Client, Connection, Engine, Request, Served, WriteCycle};
use crate::workloads::{Observed, StreamId, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Answers of every `MIRROR_EVERY`-th closed-phase read are compared byte
/// for byte with the in-process mirror.
const MIRROR_EVERY: usize = 16;
/// A phase runs as this many slices, interleaved with the other phase's.
const ROUNDS: usize = 5;
/// Requests replayed through the oracle after the timed phases.
pub const ORACLE_SAMPLE: usize = 256;

#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    /// Measured seconds: half each for the closed and the open `half`
    /// phase.
    pub seconds: f64,
    /// `--check`: a scale model whose p99s and per-phase op counts are too
    /// thin to hold the full run's assertions to.
    pub check: bool,
    /// Engine builds per run; `setup_s` is the median over them.
    pub setups: usize,
}

/// What one pass measured.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: usize,
    pub failed: usize,
    /// Oracle failures, mirror mismatches and shape violations: any entry
    /// makes the run incorrect.
    pub violations: Vec<String>,
    /// Context printed for a person (sample counts, first failures).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// A served engine plus everything a pass needs around it.
pub struct Bench {
    pub cat: Arc<Catalog>,
    pub served: Served,
    /// In-process engines built beside the served one (identical builds).
    pub twins: Vec<Engine>,
    pub writes: Arc<WriteCycle>,
    /// One `setup_s` sample per engine built.
    pub setup_s: Vec<f64>,
    /// Live heap bytes the served engine and its server added.
    pub index_bytes: i64,
    pub gen_s: f64,
    /// Median ingest time of one shard.
    pub shard_ingest_ms: f64,
}

impl Bench {
    /// Generates the catalog, ingests it `1 + twins` times and serves the
    /// last build. `setup_s` is what a catalog operator waits for — every
    /// shard ingested via `try_add_shard_opts`, `DdsServer::serve`, the
    /// first ping answered — so each build's ingest time plus the one
    /// serve-to-first-ping time (about a millisecond) is one sample; the
    /// other builds stay in process as the mirror and the lab instead of
    /// being served and thrown away.
    pub fn start(w: &Workload, seed: u64, twins: usize, trace_capacity: Option<usize>) -> Bench {
        let t = Instant::now();
        let cat = Arc::new(w.catalog(seed));
        let gen_s = t.elapsed().as_secs_f64();
        let mut ingest_s = Vec::with_capacity(twins + 1);
        let mut shard_ms = Vec::new();
        let mut build = || {
            let t = Instant::now();
            let (engine, per_shard) = sut::build_engine(&cat, &w.engine);
            ingest_s.push(t.elapsed().as_secs_f64());
            shard_ms.extend(per_shard.iter().map(|d| sut::ms(*d)));
            engine
        };
        let twins: Vec<Engine> = (0..twins).map(|_| build()).collect();
        let writes = Arc::new(WriteCycle::new(Arc::clone(&cat)));
        let ((served, serve_s), index_bytes) = alloc::live_bytes_added(|| {
            let engine = build();
            let t = Instant::now();
            let served = Served::start(engine, trace_capacity);
            Client::connect(served.addr(), Arc::clone(&writes))
                .ping()
                .expect("first ping");
            (served, t.elapsed().as_secs_f64())
        });
        Bench {
            writes,
            cat,
            served,
            twins,
            setup_s: ingest_s.iter().map(|s| s + serve_s).collect(),
            index_bytes,
            gen_s,
            shard_ingest_ms: stats::median(&shard_ms),
        }
    }

    pub fn connect(&self, n: usize) -> Vec<Client> {
        (0..n)
            .map(|_| Client::connect(self.served.addr(), Arc::clone(&self.writes)))
            .collect()
    }
}

/// Stream length that a closed slice of `seconds` should not outrun. If a
/// faster machine does, the stream wraps; a repeat that many requests later
/// is far beyond the 1024-entry mask caches' reach, so even the cold
/// workloads stay cold.
pub fn stream_len(w: &Workload, seconds: f64, check: bool) -> usize {
    // `half_qps` is half the full-size closed-loop throughput; a scale
    // model answers several times faster.
    let headroom = if check { 12.0 } else { 3.0 };
    (w.half_qps * headroom * seconds) as usize + 64
}

/// One slice of a phase: the requests it drew from and what happened.
struct Slice {
    stream: Vec<Request>,
    phase: Phase,
}

fn reads(slices: &[Slice]) -> impl Iterator<Item = &driver::Sample> {
    slices
        .iter()
        .flat_map(|s| &s.phase.samples)
        .filter(|s| !s.write && !s.failed)
}

/// The second-best of a phase's per-slice values. Other tenants of the
/// host only ever slow a slice down, and do so in bursts: the second-best
/// of five slices ignores up to three disturbed slices and one lucky one,
/// while anything the system itself does all the time is in every slice.
fn quiet(mut per_slice: Vec<f64>, lower_is_better: bool) -> f64 {
    per_slice.sort_unstable_by(f64::total_cmp);
    if !lower_is_better {
        per_slice.reverse();
    }
    per_slice[1.min(per_slice.len() - 1)]
}

/// Pushes a phase's median read latency: per slice, then [`quiet`].
fn push_p50(out: &mut Outcome, name: &'static str, slices: &[Slice]) {
    let medians: Vec<f64> = slices
        .iter()
        .map(|slice| {
            let us: Vec<f64> = reads(std::slice::from_ref(slice))
                .map(|s| s.latency_ns as f64 / 1e3)
                .collect();
            stats::median(&us)
        })
        .collect();
    out.notes
        .push(format!("{name}: second-best of {medians:.0?}"));
    out.metrics.push((name, quiet(medians, true)));
}

/// Sends the next `ops` lifecycle ops of the write cycle on `conn`; returns
/// each one's client-observed latency in milliseconds.
pub fn lifecycle_ops(out: &mut Outcome, conn: &mut Client, ops: usize) -> Vec<f64> {
    let mut ms = Vec::with_capacity(ops);
    for _ in 0..ops {
        let t = Instant::now();
        out.attempted += 1;
        match conn.send(&Request::Write) {
            sut::Reply::Done => ms.push(sut::ms(t.elapsed())),
            other => {
                out.failed += 1;
                out.notes.push(format!("lifecycle op: {other:?}"));
            }
        }
    }
    ms
}

/// Sends `requests` one after the other on one connection.
pub fn ask_all(conn: &mut Client, requests: &[&Request]) -> Vec<Result<Answer, String>> {
    requests
        .iter()
        .map(|req| match conn.send(req) {
            sut::Reply::Hits(answer) => Ok(answer),
            sut::Reply::Done => Err("a read was answered as a lifecycle op".into()),
            sut::Reply::Failed(e) => Err(e),
        })
        .collect()
}

/// Recall, band and precision of `answers` against the raw datasets.
pub fn oracle(
    out: &mut Outcome,
    cat: &Catalog,
    mirror: &Engine,
    w: &Workload,
    sample: &[&Request],
    answers: &[Result<Answer, String>],
) -> f64 {
    let raw = cat.raw();
    let slacks = mirror.slacks(&w.engine.ranks);
    let (mut exact, mut reported, mut missed, mut out_of_band) = (0usize, 0usize, 0usize, 0usize);
    for (req, answer) in sample.iter().zip(answers) {
        let Request::Query(expr) = req else { continue };
        out.attempted += 1;
        match answer {
            Ok(Ok(ids)) => {
                let v = sut::verify(expr, ids, &raw, &slacks);
                exact += v.exact_out;
                reported += v.reported;
                missed += v.missed;
                out_of_band += v.out_of_band;
            }
            Ok(Err(e)) | Err(e) => {
                out.failed += 1;
                out.notes.push(format!("oracle sample: {e}"));
            }
        }
    }
    if missed > 0 {
        out.violations.push(format!(
            "oracle: {missed} qualifying datasets missed (recall < 1)"
        ));
    }
    if out_of_band > 0 {
        out.violations.push(format!(
            "oracle: {out_of_band} reported datasets outside the guarantee band"
        ));
    }
    out.notes.push(format!(
        "oracle: {} requests, {exact} qualifying / {reported} reported",
        sample.len()
    ));
    if reported == 0 {
        1.0
    } else {
        // False positives are reports beyond the qualifying ones; recall is
        // 1 here or the run has already failed.
        exact.min(reported) as f64 / reported as f64
    }
}

/// Byte-for-byte comparison of served answers with the in-process mirror.
fn compare_with_mirror(out: &mut Outcome, mirror: &Engine, slices: &[Slice]) {
    let mut scratch = sut::Scratch::new();
    let (mut compared, mut mismatches) = (0, 0);
    for slice in slices {
        for (index, served) in &slice.phase.kept {
            let Request::Query(expr) = &slice.stream[index % slice.stream.len()] else {
                continue;
            };
            compared += 1;
            if mirror.query(expr, &mut scratch) != *served {
                mismatches += 1;
            }
        }
    }
    out.notes
        .push(format!("mirror: {compared} served answers compared"));
    if mismatches > 0 {
        out.failed += mismatches;
        out.violations.push(format!(
            "mirror: {mismatches} of {compared} served answers differ from the in-process engine"
        ));
    }
}

fn tally(out: &mut Outcome, phase: &Phase) {
    out.attempted += phase.samples.len();
    out.failed += phase.failed();
    out.notes.extend(phase.failures.iter().cloned());
}

/// The first `n` distinct reads of `stream` (a heavy-headed stream repeats
/// its popular requests; the oracle should not count one answer many
/// times).
pub fn distinct_reads(stream: &[Request], n: usize) -> Vec<&Request> {
    let mut seen = std::collections::HashSet::new();
    stream
        .iter()
        .filter(|r| !r.is_write() && seen.insert(format!("{r:?}")))
        .take(n)
        .collect()
}

pub fn untraced(w: &Workload, cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let slice_s = cfg.seconds / 2.0 / ROUNDS as f64;
    let warm_s = (cfg.seconds / 10.0).min(1.0);

    let mut bench = Bench::start(w, cfg.seed, cfg.setups - 1, None);
    let mirror = bench.twins.swap_remove(0);
    bench.twins.clear();
    let t = Instant::now();
    let generator = w.generator(&bench.cat, cfg.seed);
    let warm = generator.stream(StreamId::WarmUp, 0, stream_len(w, warm_s, cfg.check));
    let closed_streams: Vec<Vec<Request>> = (0..ROUNDS)
        .map(|round| generator.stream(StreamId::Closed, round, stream_len(w, slice_s, cfg.check)))
        .collect();
    let half_plans: Vec<(Vec<u64>, Vec<Request>)> = (0..ROUNDS)
        .map(|round| {
            let at =
                stats::poisson_schedule(w.half_qps, slice_s, cfg.seed ^ (0x4A1F + round as u64));
            let stream = generator.stream(StreamId::OpenHalf, round, at.len());
            (at, stream)
        })
        .collect();
    out.notes.push(format!(
        "generated in {:.2} s (catalog) + {:.2} s (streams)",
        bench.gen_s,
        t.elapsed().as_secs_f64()
    ));

    let mut conns = bench.connect(sut::default_threads());
    driver::closed_loop(&mut conns, &warm, Duration::from_secs_f64(warm_s), 0);

    // The two phases take turns, slice by slice, so each sees the whole
    // run's weather rather than one stretch of it.
    let before = bench.served.counters();
    let (mut closed, mut half) = (Vec::new(), Vec::new());
    for (stream, (at, half_stream)) in closed_streams.into_iter().zip(half_plans) {
        let phase = driver::closed_loop(
            &mut conns,
            &stream,
            Duration::from_secs_f64(slice_s),
            MIRROR_EVERY,
        );
        closed.push(Slice { stream, phase });
        let phase = driver::open_loop(&mut conns, &half_stream, &at);
        half.push(Slice {
            stream: half_stream,
            phase,
        });
    }
    let timed = bench.served.counters().since(&before);

    // A stream may end mid-cycle (a split not yet merged back): put the
    // engine back on its ingested shard layout before the oracle looks.
    let pending = bench.writes.pending();
    lifecycle_ops(&mut out, &mut conns[0], pending);

    for slice in closed.iter().chain(&half) {
        tally(&mut out, &slice.phase);
    }
    compare_with_mirror(&mut out, &mirror, &closed);
    let sample = distinct_reads(&closed[0].stream, ORACLE_SAMPLE);
    let answers = ask_all(&mut conns[0], &sample);
    let precision = oracle(&mut out, &bench.cat, &mirror, w, &sample, &answers);
    drop(conns);

    // End-to-end metrics, in BENCHMARK.json's order.
    out.metrics.push(("setup_s", stats::median(&bench.setup_s)));
    out.notes.push(format!(
        "setup_s: median of {} builds: {:.3?}",
        bench.setup_s.len(),
        bench.setup_s
    ));
    out.metrics
        .push(("index_mb", bench.index_bytes as f64 / 1e6));
    let qps: Vec<f64> = closed
        .iter()
        .map(|s| reads(std::slice::from_ref(s)).count() as f64 / s.phase.elapsed.as_secs_f64())
        .collect();
    out.notes
        .push(format!("closed_qps: second-best of {qps:.0?}"));
    out.metrics.push(("closed_qps", quiet(qps, false)));
    push_p50(&mut out, "closed_p50_us", &closed);
    push_p50(&mut out, "open_half_p50_us", &half);
    out.metrics.push(("precision", precision));

    // Shape: is this still the workload it claims to be?
    let answer_sizes: Vec<f64> = reads(&closed).map(|s| s.ids as f64).collect();
    let median_ids = stats::median(&answer_sizes);
    let writes_in = |slices: &[Slice]| {
        slices
            .iter()
            .flat_map(|s| &s.phase.samples)
            .filter(|s| s.write)
            .count()
    };
    let seen = Observed {
        hit_ratio: Some(timed.hit_ratio()),
        median_answer_share: Some(median_ids / bench.cat.n_datasets as f64),
        skip_ratio: Some(timed.skip_ratio()),
        nonempty_share: Some(
            reads(&closed).filter(|s| s.ids > 0).count() as f64
                / reads(&closed).count().max(1) as f64,
        ),
        engine_share_of_rtt: None,
        writes: vec![
            ("closed", writes_in(&closed)),
            ("open half", writes_in(&half)),
        ],
    };
    out.violations.extend(w.shape.violations(&seen, cfg.check));
    out.notes
        .push(format!("shape: median answer {median_ids:.0} ids; {seen}"));
    let open_sends = || half.iter().flat_map(|s| &s.phase.samples);
    let timer_late = Percentiles::of(
        open_sends()
            .filter(|s| s.on_time)
            .map(|s| s.late_ns as f64 / 1e3)
            .collect(),
    );
    out.notes.push(format!(
        "open half: generator lateness p99 {:.0} us over {} on-time sends; {} found every connection busy",
        timer_late.q(0.99),
        timer_late.len(),
        open_sends().filter(|s| !s.on_time).count()
    ));
    bench.served.stop();
    out
}
