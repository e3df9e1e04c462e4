//! Request/response payload codecs — the grammar of `PROTOCOL.md`.
//!
//! Each message has one encoder, `encode_to` (into a caller's, typically
//! pooled, [`Writer`]; [`crate::wire::encode_frame_into`] frames it), and
//! one decoder, `decode`. Each wire table is written once: the opcodes in
//! [`opcode`], the stats counter order in `ServerStats::slots`, the
//! error-kind tags and names in `ERROR_KINDS`; the unit tests check the
//! opcodes, the retry classes and (in `tests/stats_contract.rs`) the
//! counter order against `PROTOCOL.md` itself.
//!
//! Encoding is explicit per type (no serde, no derive): every enum gets a
//! written-down discriminant, every float travels as its IEEE-754 bit
//! pattern (so answers survive the wire *bit-identically*, `-0.0`
//! included), every sequence is count-prefixed with the count checked
//! against the remaining bytes. Decoding **validates semantics** as well
//! as syntax: anything that would panic the engine — NaN intervals,
//! inverted rectangles, empty datasets, expressions whose DNF expansion
//! explodes — is rejected here as a typed [`WireError`], which the server
//! answers with a [`Response::Error`] instead of dying.

use crate::wire::{Reader, WireError, Writer};
use dds_core::engine::EngineError;
use dds_core::framework::{Dataset, Interval, LogicalExpr, MeasureFunction, Predicate};
use dds_core::shard::GlobalId;
use dds_core::telemetry::{bucket_bounds, HistogramSnapshot, QueryTrace, BUCKETS};
use dds_geom::Rect;
use std::fmt;

/// Deepest `And`/`Or` nesting a decoded expression may have (the decoder
/// recurses, so unbounded nesting would be a remote stack overflow).
pub const MAX_EXPR_DEPTH: usize = 64;

/// Most DNF clauses a decoded expression may expand to — the engine's own
/// `LogicalExpr::to_dnf` bound, enforced here so a hostile expression is
/// rejected with a typed error instead of panicking an executor.
pub const MAX_DNF_CLAUSES: u64 = dds_core::framework::MAX_DNF_CLAUSES;

/// Request opcodes.
pub mod opcode {
    /// Single query expression.
    pub const QUERY: u8 = 0x01;
    /// Batch of query expressions.
    pub const QUERY_BATCH: u8 = 0x02;
    /// Ingest a new shard.
    pub const ADD_SHARD: u8 = 0x03;
    /// Replace an existing shard.
    pub const REBUILD_SHARD: u8 = 0x04;
    /// Server statistics snapshot.
    pub const STATS: u8 = 0x05;
    /// Liveness check.
    pub const PING: u8 = 0x06;
    /// Graceful shutdown.
    pub const SHUTDOWN: u8 = 0x07;
    /// Hold an executor for a bounded time (testing aid).
    pub const SLEEP: u8 = 0x08;
    /// Divide one shard in two (lifecycle admin op).
    pub const SPLIT_SHARD: u8 = 0x09;
    /// Coalesce two shards into one (lifecycle admin op).
    pub const MERGE_SHARDS: u8 = 0x0A;
    /// Telemetry snapshot: stage latency histograms + slow-query traces.
    pub const METRICS: u8 = 0x0B;

    /// Response: single-query answer.
    pub const HITS: u8 = 0x81;
    /// Response: batch answer.
    pub const BATCH_HITS: u8 = 0x82;
    /// Response: shard ingested.
    pub const SHARD_ADDED: u8 = 0x83;
    /// Response: op completed with no payload (rebuild, sleep, shutdown).
    pub const DONE: u8 = 0x84;
    /// Response: statistics snapshot.
    pub const STATS_REPLY: u8 = 0x85;
    /// Response: liveness echo.
    pub const PONG: u8 = 0x86;
    /// Response: admission queue full — retry later.
    pub const BUSY: u8 = 0x87;
    /// Response: typed request-level failure.
    pub const ERROR: u8 = 0x88;
    /// Response: telemetry snapshot.
    pub const METRICS_REPLY: u8 = 0x89;
}

/// Longest an executor may be held by a [`Request::Sleep`] (ms).
pub const MAX_SLEEP_MS: u32 = 10_000;

/// `Sleep` ms value that makes the executor **panic deliberately**
/// instead of sleeping — the panic drill, for exercising the server's
/// panic isolation end to end (the job is answered with a typed
/// `internal` error and the executor survives). Like `Sleep` itself it
/// is inert unless the server opts in (`ServerConfig::allow_sleep`).
pub const PANIC_DRILL_MS: u32 = u32::MAX;

/// A decoded client request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Answer one expression.
    Query(LogicalExpr),
    /// Answer a batch of expressions (input-ordered results).
    QueryBatch(Vec<LogicalExpr>),
    /// Ingest a new shard under caller-assigned stable global ids.
    AddShard {
        /// Client-chosen retry token; `0` means "no dedup". A nonzero id
        /// is remembered by the server's dedup window: a retransmission
        /// (same id) replays the recorded answer instead of ingesting
        /// twice, which is what makes a retried `AddShard` safe.
        request_id: u64,
        /// The shard's datasets (validated: non-empty, one schema, finite
        /// coordinates).
        datasets: Vec<Dataset>,
        /// `global_ids[i]` names `datasets[i]` forever.
        global_ids: Vec<GlobalId>,
    },
    /// Replace shard `shard`'s contents.
    RebuildShard {
        /// Index returned by the original AddShard.
        shard: u32,
        /// Retry token, like [`Request::AddShard`]'s (`0` = no dedup).
        request_id: u64,
        /// Replacement datasets.
        datasets: Vec<Dataset>,
        /// Replacement ids (re-using the replaced shard's ids is normal).
        global_ids: Vec<GlobalId>,
    },
    /// Server statistics snapshot (answered by the session directly — it
    /// never occupies an executor or an admission slot).
    Stats,
    /// Liveness check echoing `token` (session-direct, like Stats).
    Ping {
        /// Echoed verbatim in the Pong.
        token: u64,
    },
    /// Graceful shutdown: stop admitting, drain the queue, exit.
    Shutdown,
    /// Hold an executor for `ms` milliseconds (capped at
    /// [`MAX_SLEEP_MS`]). A testing aid for backpressure drills — it goes
    /// through the admission queue like real work.
    Sleep {
        /// Milliseconds to hold the executor.
        ms: u32,
    },
    /// Divide shard `shard` in two: the datasets whose global ids are in
    /// `move_ids` land in a new shard (the `ShardAdded` answer carries
    /// its index). Answers never change — ids are stable and sampling is
    /// seeded by id.
    SplitShard {
        /// The shard to divide.
        shard: u32,
        /// Ids moving to the new shard.
        move_ids: Vec<GlobalId>,
    },
    /// Coalesce shards `a` and `b` into one (the `ShardAdded` answer
    /// carries the surviving index, `min(a, b)`; shards past `max(a, b)`
    /// shift down by one).
    MergeShards {
        /// One shard of the pair.
        a: u32,
        /// The other shard.
        b: u32,
    },
    /// Telemetry snapshot: per-stage latency histograms and recent
    /// slow-query traces (session-direct, like Stats — it must work even
    /// while the admission queue is saturated, which is exactly when you
    /// want to look at the latency histograms). The append-only Stats
    /// frame is untouched: counters and histograms evolve independently.
    Metrics,
}

/// Whether a request whose **fate is unknown** (the connection died
/// after the frame — or part of it — went out, and no answer came back)
/// may be re-sent. This is the contract every retrying layer — the
/// client's [`RetryPolicy`](crate::client::RetryPolicy) today, a routing
/// tier re-issuing requests tomorrow — keys off; the full table lives in
/// `PROTOCOL.md`.
///
/// Note the asymmetry with *answered* rejections: `Busy`, `throttled`
/// and `unavailable` answers mean nothing was executed or buffered, so
/// after one of those **any** op may be retried. Classification only
/// gates the unknown-fate case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetrySafety {
    /// Re-sending can never change served state beyond what one
    /// execution would: reads (`Query`, `QueryBatch`, `Stats`, `Ping`)
    /// and the data-free lifecycle admin ops (`SplitShard`,
    /// `MergeShards`), whose rejections are permanent-error-typed — a
    /// duplicate of a committed transition names stale state and is
    /// answered with the same `invalid-query` error every time.
    Safe,
    /// Safe **only** when the request carries a nonzero `request_id` for
    /// the server's dedup window (`AddShard`, `RebuildShard`): without
    /// one, a retry of an applied-but-unanswered ingest double-ingests.
    SafeIfDeduped,
    /// Never re-send on unknown fate: `Shutdown` (a duplicate hits the
    /// next server generation) and `Sleep` (occupies an executor per
    /// copy).
    Unsafe,
}

impl Request {
    /// This op's [`RetrySafety`] class.
    pub fn retry_safety(&self) -> RetrySafety {
        match self {
            Request::Query(_)
            | Request::QueryBatch(_)
            | Request::Stats
            | Request::Metrics
            | Request::Ping { .. }
            | Request::SplitShard { .. }
            | Request::MergeShards { .. } => RetrySafety::Safe,
            Request::AddShard { .. } | Request::RebuildShard { .. } => RetrySafety::SafeIfDeduped,
            Request::Shutdown | Request::Sleep { .. } => RetrySafety::Unsafe,
        }
    }

    /// The nonzero retry token of a dedup-capable op, if it carries one.
    pub fn dedup_id(&self) -> Option<u64> {
        match self {
            Request::AddShard { request_id, .. } | Request::RebuildShard { request_id, .. }
                if *request_id != 0 =>
            {
                Some(*request_id)
            }
            _ => None,
        }
    }
}

/// A server response.
// `Stats` dwarfs the other variants (one u64 per counter, newest-last),
// but responses are short-lived stack temporaries encoded straight onto
// the wire — boxing would buy nothing except an allocation on the stats
// path.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Single-query answer — exactly the in-process
    /// `ShardedEngine::try_query_with` result, errors included.
    Hits(Result<Vec<GlobalId>, EngineError>),
    /// Batch answer — exactly `ShardedEngine::try_query_batch_opts`,
    /// input-ordered.
    BatchHits(Vec<Result<Vec<GlobalId>, EngineError>>),
    /// Shard ingested at this index.
    ShardAdded {
        /// Index usable in a later RebuildShard.
        shard: u32,
    },
    /// Op completed with no payload.
    Done,
    /// Statistics snapshot.
    Stats(ServerStats),
    /// Liveness echo.
    Pong {
        /// The request's token.
        token: u64,
    },
    /// The bounded admission queue is full; nothing was executed or
    /// buffered — retry later. This is the backpressure signal.
    Busy,
    /// Typed request-level failure (malformed payload, rejected ingest,
    /// server shutting down).
    Error(ServerError),
    /// Telemetry snapshot: stage latency histograms + slow-query traces.
    Metrics(MetricsReport),
}

/// What kind of request-level failure a [`Response::Error`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerErrorKind {
    /// The request violated the wire grammar or a semantic bound.
    Protocol,
    /// A shard ingest was rejected (`dds_core::shard::IngestError`).
    Ingest,
    /// The server is shutting down; no work was done. Transient — a
    /// retry against a live server would succeed.
    Unavailable,
    /// The request is well-formed but can never succeed against the
    /// served data (e.g. a query whose dimensions don't match the served
    /// schema). Permanent — retrying the same request is pointless.
    InvalidQuery,
    /// The server failed while producing the answer: an executor panicked
    /// executing the request, or the answer could not be shipped within
    /// the protocol's frame bound. The server itself stays up.
    Internal,
    /// The session exhausted its token-bucket rate limit
    /// (`ServerConfig::rate_limit`); nothing was executed or buffered.
    /// Transient, like `Busy` — back off and retry; the bucket refills at
    /// the configured rate.
    Throttled,
}

/// Every [`ServerErrorKind`] with its display name, indexed by its wire
/// tag (`PROTOCOL.md`'s `server_err`).
const ERROR_KINDS: [(ServerErrorKind, &str); 6] = [
    (ServerErrorKind::Protocol, "protocol"),
    (ServerErrorKind::Ingest, "ingest"),
    (ServerErrorKind::Unavailable, "unavailable"),
    (ServerErrorKind::InvalidQuery, "invalid-query"),
    (ServerErrorKind::Internal, "internal"),
    (ServerErrorKind::Throttled, "throttled"),
];

impl ServerErrorKind {
    /// This kind's wire tag: its index in [`ERROR_KINDS`].
    fn tag(self) -> u8 {
        let tag = ERROR_KINDS.iter().position(|&(k, _)| k == self);
        tag.expect("every kind is listed") as u8
    }

    /// Whether this kind means "the server refused to do the work right
    /// now, try again" (`Unavailable`, `Throttled`) rather than "this
    /// request can never succeed as sent" (everything else). Transient
    /// answers executed and buffered **nothing**, so any op — ingest
    /// included — may be retried after one.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ServerErrorKind::Unavailable | ServerErrorKind::Throttled
        )
    }
}

impl fmt::Display for ServerErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(ERROR_KINDS[self.tag() as usize].1)
    }
}

/// A typed request-level failure, serialized as kind + human-readable
/// message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerError {
    /// Failure class (clients branch on this).
    pub kind: ServerErrorKind,
    /// Human-readable detail (the `Display` of the underlying error).
    pub message: String,
}

impl ServerError {
    /// Convenience constructor.
    pub fn new(kind: ServerErrorKind, message: impl Into<String>) -> Self {
        ServerError {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error: {}", self.kind, self.message)
    }
}

impl std::error::Error for ServerError {}

/// Aggregated server counters, all monotone except the gauges
/// (`sessions_active`, `n_shards`, `n_datasets`). Serialized as a
/// count-prefixed `u64` list so a newer server can append fields without
/// breaking an older client (unknown trailing fields are skipped).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Frames received and parsed as requests (every opcode).
    pub requests: u64,
    /// Single queries executed.
    pub queries: u64,
    /// Batch queries executed.
    pub batch_queries: u64,
    /// Expressions across executed batches.
    pub batch_exprs: u64,
    /// Shard ingests executed (add + rebuild, successful or rejected).
    pub admin_ops: u64,
    /// Requests refused with [`Response::Busy`] (admission queue full).
    pub busy_rejections: u64,
    /// Requests refused because the server was shutting down.
    pub unavailable_rejections: u64,
    /// Frames that failed to decode (typed error answered).
    pub wire_errors: u64,
    /// Jobs accepted into the admission queue.
    pub jobs_admitted: u64,
    /// Jobs taken off the queue by an executor.
    pub jobs_dequeued: u64,
    /// Jobs fully executed (their response was produced).
    pub jobs_completed: u64,
    /// Payload bytes received (frame prefixes included).
    pub bytes_in: u64,
    /// Payload bytes sent (frame prefixes included).
    pub bytes_out: u64,
    /// Connections accepted over the server lifetime.
    pub sessions_opened: u64,
    /// Connections currently open.
    pub sessions_active: u64,
    /// Mask-cache hits across shards (`MaskCache` counters).
    pub cache_hits: u64,
    /// Mask-cache misses across shards.
    pub cache_misses: u64,
    /// Underlying index queries across shards.
    pub index_queries: u64,
    /// (expression, shard) scatter units routed past as box skips: each
    /// clause's rectangle misses the shard synopsis's sample box on some
    /// axis.
    pub shards_routed_past: u64,
    /// Shards currently served.
    pub n_shards: u64,
    /// Datasets currently served.
    pub n_datasets: u64,
    /// Jobs whose execution panicked (answered with a typed `internal`
    /// error; the executor survives).
    pub executor_panics: u64,
    /// Work requests refused with a typed `throttled` error (the
    /// session's token bucket was empty).
    pub sessions_throttled: u64,
    /// Session buffers served from the [`crate::buffer::BufferPool`]
    /// instead of the allocator.
    pub buffers_reused: u64,
    /// Shard splits committed over the engine lifetime.
    pub shard_splits: u64,
    /// Shard merges committed over the engine lifetime.
    pub shard_merges: u64,
    /// Sessions closed by the stall deadline
    /// (`ServerConfig::stall_timeout`): the peer sat mid-frame or
    /// mid-flush past the deadline and its slot was reclaimed.
    pub sessions_reaped: u64,
    /// Work requests recognized as retransmissions — a nonzero
    /// `request_id` the dedup window had already seen (whether the
    /// original was still in flight or already answered).
    pub retries_attempted: u64,
    /// Retransmissions answered by **replaying** the recorded response
    /// instead of executing again — the duplicate ingests that did not
    /// happen. The newest counters are serialized **last**: the stats
    /// list extends by appending, so older clients keep decoding the
    /// prefix they know.
    pub requests_deduped: u64,
    /// The other routed (expression, shard) scatter units: those only the
    /// synopsis's interior mass bound proves silent (disjoint from
    /// `shards_routed_past`). Appended after `requests_deduped` per the
    /// newest-last rule.
    pub shards_routed_by_synopsis: u64,
}

impl ServerStats {
    /// Every counter in wire order — the one place that order is written
    /// (`PROTOCOL.md`'s `stats` list). New counters append; nothing moves.
    fn slots(&mut self) -> [&mut u64; 30] {
        [
            &mut self.requests,
            &mut self.queries,
            &mut self.batch_queries,
            &mut self.batch_exprs,
            &mut self.admin_ops,
            &mut self.busy_rejections,
            &mut self.unavailable_rejections,
            &mut self.wire_errors,
            &mut self.jobs_admitted,
            &mut self.jobs_dequeued,
            &mut self.jobs_completed,
            &mut self.bytes_in,
            &mut self.bytes_out,
            &mut self.sessions_opened,
            &mut self.sessions_active,
            &mut self.cache_hits,
            &mut self.cache_misses,
            &mut self.index_queries,
            &mut self.shards_routed_past,
            &mut self.n_shards,
            &mut self.n_datasets,
            &mut self.executor_panics,
            &mut self.sessions_throttled,
            &mut self.buffers_reused,
            &mut self.shard_splits,
            &mut self.shard_merges,
            &mut self.sessions_reaped,
            &mut self.retries_attempted,
            &mut self.requests_deduped,
            &mut self.shards_routed_by_synopsis,
        ]
    }
}

/// Number of histograms a metrics frame must carry, in this fixed order:
/// `decode`, `queue`, `execute`, `write` (the server request lifecycle),
/// then `routing`, `scatter` (the engine's scatter path). A newer server
/// may append further histograms; decoders skip the extras.
pub const METRICS_HISTOGRAMS: usize = 6;

/// The Metrics answer: per-stage latency histogram snapshots plus the
/// recent slow-query traces. Counters live in the (append-only, untouched)
/// [`ServerStats`] frame; this frame is the *latency-distribution* view —
/// the two evolve independently.
///
/// Wire layout: a count-prefixed histogram list (each histogram is
/// self-delimiting — its own bucket count, which must be [`BUCKETS`] for
/// the histograms this build knows, then that many `u64` counts) followed
/// by a count-prefixed [`QueryTrace`] list. At least
/// [`METRICS_HISTOGRAMS`] histograms are required; extras are skipped, so
/// the list extends by appending like the stats frame.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsReport {
    /// Frame → typed request decode time.
    pub decode: HistogramSnapshot,
    /// Admission-queue wait (enqueue → executor dequeue).
    pub queue: HistogramSnapshot,
    /// Engine execution time in the executor pool.
    pub execute: HistogramSnapshot,
    /// Response encode + socket write time.
    pub write: HistogramSnapshot,
    /// Engine routing-decision time per query (`routing_skip`).
    pub routing: HistogramSnapshot,
    /// Engine per-scatter-unit execution time (one expression × one
    /// shard); its total doubles as "scatter units evaluated".
    pub scatter: HistogramSnapshot,
    /// Recent slow-query traces, oldest first.
    pub slow_queries: Vec<QueryTrace>,
}

impl MetricsReport {
    /// The histograms in wire order, labelled.
    pub fn stages(&self) -> [(&'static str, &HistogramSnapshot); METRICS_HISTOGRAMS] {
        [
            ("decode", &self.decode),
            ("queue", &self.queue),
            ("execute", &self.execute),
            ("write", &self.write),
            ("routing", &self.routing),
            ("scatter", &self.scatter),
        ]
    }

    /// Prometheus-style text rendering for scraping: one cumulative
    /// `_bucket{stage=…,le=…}` series per stage (zero-count buckets are
    /// elided; the `+Inf` bucket and `_count` always appear), p50/p99/p999
    /// summary gauges, and the retained slow-query count.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("# TYPE dds_stage_latency_ns histogram\n");
        for (stage, h) in self.stages() {
            let mut cumulative = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative = cumulative.saturating_add(c);
                let le = bucket_bounds(i).1;
                let _ = writeln!(
                    out,
                    "dds_stage_latency_ns_bucket{{stage=\"{stage}\",le=\"{le}\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                out,
                "dds_stage_latency_ns_bucket{{stage=\"{stage}\",le=\"+Inf\"}} {cumulative}"
            );
            let _ = writeln!(
                out,
                "dds_stage_latency_ns_count{{stage=\"{stage}\"}} {cumulative}"
            );
        }
        out.push_str("# TYPE dds_stage_latency_ns_quantile gauge\n");
        for (stage, h) in self.stages() {
            for (label, q) in [("0.5", 0.5), ("0.99", 0.99), ("0.999", 0.999)] {
                if let Some(v) = h.quantile(q) {
                    let _ = writeln!(
                        out,
                        "dds_stage_latency_ns_quantile{{stage=\"{stage}\",q=\"{label}\"}} {v}"
                    );
                }
            }
        }
        out.push_str("# TYPE dds_slow_queries_recent gauge\n");
        let _ = writeln!(out, "dds_slow_queries_recent {}", self.slow_queries.len());
        out
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

fn put_rect(w: &mut Writer, r: &Rect) {
    w.put_u32(r.dim() as u32);
    for h in 0..r.dim() {
        w.put_f64(r.lo_at(h));
    }
    for h in 0..r.dim() {
        w.put_f64(r.hi_at(h));
    }
}

fn get_rect(r: &mut Reader) -> Result<Rect, WireError> {
    let dim = r.u32()? as usize;
    if dim == 0 {
        return Err(WireError::BadValue {
            context: "rectangle dimension must be >= 1",
        });
    }
    // Each of the 2·dim facets is 8 bytes; bound the allocation first.
    let needed = dim.saturating_mul(16);
    if needed > r.remaining() {
        return Err(WireError::Truncated {
            needed,
            have: r.remaining(),
        });
    }
    let mut lo = Vec::with_capacity(dim);
    let mut hi = Vec::with_capacity(dim);
    for _ in 0..dim {
        lo.push(r.f64()?);
    }
    for _ in 0..dim {
        hi.push(r.f64()?);
    }
    for h in 0..dim {
        if lo[h].is_nan() || hi[h].is_nan() {
            return Err(WireError::BadValue {
                context: "NaN rectangle facet",
            });
        }
        if lo[h] > hi[h] {
            return Err(WireError::BadValue {
                context: "inverted rectangle (lo > hi)",
            });
        }
    }
    Ok(Rect::from_bounds(&lo, &hi))
}

fn put_predicate(w: &mut Writer, p: &Predicate) {
    match &p.measure {
        MeasureFunction::Percentile(r) => {
            w.put_u8(0x00);
            put_rect(w, r);
        }
        MeasureFunction::TopK { v, k } => {
            w.put_u8(0x01);
            w.put_u64(*k as u64);
            w.put_count(v.len());
            for x in v {
                w.put_f64(*x);
            }
        }
    }
    w.put_f64(p.theta.lo);
    w.put_f64(p.theta.hi);
}

fn get_predicate(r: &mut Reader) -> Result<Predicate, WireError> {
    let measure = match r.u8()? {
        0x00 => MeasureFunction::Percentile(get_rect(r)?),
        0x01 => {
            let k = r.u64()? as usize;
            let n = r.count(8)?;
            if n == 0 {
                return Err(WireError::BadValue {
                    context: "empty preference vector",
                });
            }
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let x = r.f64()?;
                if !x.is_finite() {
                    return Err(WireError::BadValue {
                        context: "non-finite preference vector coordinate",
                    });
                }
                v.push(x);
            }
            MeasureFunction::TopK { v, k }
        }
        tag => {
            return Err(WireError::BadTag {
                context: "measure function",
                tag,
            })
        }
    };
    let lo = r.f64()?;
    let hi = r.f64()?;
    if lo.is_nan() || hi.is_nan() {
        return Err(WireError::BadValue {
            context: "NaN interval endpoint",
        });
    }
    if lo > hi {
        return Err(WireError::BadValue {
            context: "inverted interval (lo > hi)",
        });
    }
    Ok(Predicate {
        measure,
        theta: Interval::new(lo, hi),
    })
}

fn put_expr(w: &mut Writer, expr: &LogicalExpr) {
    match expr {
        LogicalExpr::Pred(p) => {
            w.put_u8(0x00);
            put_predicate(w, p);
        }
        LogicalExpr::And(xs) => {
            w.put_u8(0x01);
            w.put_count(xs.len());
            for x in xs {
                put_expr(w, x);
            }
        }
        LogicalExpr::Or(xs) => {
            w.put_u8(0x02);
            w.put_count(xs.len());
            for x in xs {
                put_expr(w, x);
            }
        }
    }
}

fn get_expr_at(r: &mut Reader, depth: usize) -> Result<LogicalExpr, WireError> {
    if depth > MAX_EXPR_DEPTH {
        return Err(WireError::BadValue {
            context: "expression nests too deeply",
        });
    }
    match r.u8()? {
        0x00 => Ok(LogicalExpr::Pred(get_predicate(r)?)),
        tag @ (0x01 | 0x02) => {
            let n = r.count(1)?;
            // Zero-child connectives are rejected outright: an empty `Or`
            // contributes a zero factor to the DNF clause product, which
            // would let an otherwise-explosive `And` slip past the
            // MAX_DNF_CLAUSES check while `to_dnf` still materializes the
            // huge intermediate accumulator (a remote OOM primitive).
            if n == 0 {
                return Err(WireError::BadValue {
                    context: "zero-child connective (And/Or needs at least one child)",
                });
            }
            let mut xs = Vec::with_capacity(n);
            for _ in 0..n {
                xs.push(get_expr_at(r, depth + 1)?);
            }
            Ok(if tag == 0x01 {
                LogicalExpr::And(xs)
            } else {
                LogicalExpr::Or(xs)
            })
        }
        tag => Err(WireError::BadTag {
            context: "logical expression",
            tag,
        }),
    }
}

fn get_expr(r: &mut Reader) -> Result<LogicalExpr, WireError> {
    let expr = get_expr_at(r, 0)?;
    // The engine's own saturating pre-expansion bound (clamped factors,
    // so every intermediate of the expansion is covered, not just its
    // final size): `to_dnf` checks the same bound and panics — here a
    // hostile expression gets a typed rejection instead.
    if expr.dnf_clause_bound() > MAX_DNF_CLAUSES {
        return Err(WireError::BadValue {
            context: "expression expands past the DNF clause bound",
        });
    }
    Ok(expr)
}

// ---------------------------------------------------------------------------
// Datasets / shards
// ---------------------------------------------------------------------------

fn put_dataset(w: &mut Writer, ds: &Dataset) {
    w.put_str(ds.name());
    w.put_u32(ds.dim() as u32);
    w.put_count(ds.len());
    for p in ds.points() {
        for h in 0..ds.dim() {
            w.put_f64(p[h]);
        }
    }
}

fn get_dataset(r: &mut Reader) -> Result<Dataset, WireError> {
    let name = r.str_()?;
    let dim = r.u32()? as usize;
    if dim == 0 {
        return Err(WireError::BadValue {
            context: "dataset dimension must be >= 1",
        });
    }
    let n = r.count(dim.saturating_mul(8))?;
    if n == 0 {
        return Err(WireError::BadValue {
            context: "datasets must be non-empty",
        });
    }
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row = Vec::with_capacity(dim);
        for _ in 0..dim {
            let x = r.f64()?;
            if !x.is_finite() {
                return Err(WireError::BadValue {
                    context: "non-finite dataset coordinate",
                });
            }
            row.push(x);
        }
        rows.push(row);
    }
    Ok(Dataset::from_rows(name, rows))
}

fn put_ids(w: &mut Writer, ids: &[GlobalId]) {
    w.put_count(ids.len());
    for &id in ids {
        w.put_u64(id);
    }
}

fn get_ids(r: &mut Reader) -> Result<Vec<GlobalId>, WireError> {
    let n = r.count(8)?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(r.u64()?);
    }
    Ok(ids)
}

fn put_shard_data(w: &mut Writer, datasets: &[Dataset], global_ids: &[GlobalId]) {
    w.put_count(datasets.len());
    for ds in datasets {
        put_dataset(w, ds);
    }
    put_ids(w, global_ids);
}

fn get_shard_data(r: &mut Reader) -> Result<(Vec<Dataset>, Vec<GlobalId>), WireError> {
    let n = r.count(13)?; // name len + dim + count + >= 1 coordinate
    if n == 0 {
        return Err(WireError::BadValue {
            context: "a shard must hold at least one dataset",
        });
    }
    let mut datasets = Vec::with_capacity(n);
    for _ in 0..n {
        datasets.push(get_dataset(r)?);
    }
    let dim = datasets[0].dim();
    if datasets.iter().any(|d| d.dim() != dim) {
        return Err(WireError::BadValue {
            context: "datasets in one shard must share the schema dimension",
        });
    }
    Ok((datasets, get_ids(r)?))
}

// ---------------------------------------------------------------------------
// Engine results
// ---------------------------------------------------------------------------

fn put_engine_error(w: &mut Writer, e: &EngineError) {
    match e {
        EngineError::MissingRank(k) => {
            w.put_u8(0x00);
            w.put_u64(*k as u64);
        }
        EngineError::DimensionMismatch { expected, got } => {
            w.put_u8(0x01);
            w.put_u64(*expected as u64);
            w.put_u64(*got as u64);
        }
    }
}

fn get_engine_error(r: &mut Reader) -> Result<EngineError, WireError> {
    match r.u8()? {
        0x00 => Ok(EngineError::MissingRank(r.u64()? as usize)),
        0x01 => Ok(EngineError::DimensionMismatch {
            expected: r.u64()? as usize,
            got: r.u64()? as usize,
        }),
        tag => Err(WireError::BadTag {
            context: "engine error",
            tag,
        }),
    }
}

fn put_engine_result(w: &mut Writer, res: &Result<Vec<GlobalId>, EngineError>) {
    match res {
        Ok(ids) => {
            w.put_u8(0x00);
            put_ids(w, ids);
        }
        Err(e) => {
            w.put_u8(0x01);
            put_engine_error(w, e);
        }
    }
}

fn get_engine_result(r: &mut Reader) -> Result<Result<Vec<GlobalId>, EngineError>, WireError> {
    match r.u8()? {
        0x00 => Ok(Ok(get_ids(r)?)),
        0x01 => Ok(Err(get_engine_error(r)?)),
        tag => Err(WireError::BadTag {
            context: "engine result",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

fn put_histogram(w: &mut Writer, h: &HistogramSnapshot) {
    w.put_count(BUCKETS);
    for &c in &h.counts {
        w.put_u64(c);
    }
}

fn get_histogram(r: &mut Reader) -> Result<HistogramSnapshot, WireError> {
    let n = r.count(8)?;
    if n != BUCKETS {
        return Err(WireError::BadValue {
            context: "histogram bucket count does not match this build",
        });
    }
    let mut counts = [0u64; BUCKETS];
    for c in counts.iter_mut() {
        *c = r.u64()?;
    }
    Ok(HistogramSnapshot::from_counts(counts))
}

fn put_trace(w: &mut Writer, t: &QueryTrace) {
    w.put_u64(t.seq);
    w.put_u8(t.opcode);
    w.put_u64(t.decode_ns);
    w.put_u64(t.queue_ns);
    w.put_u64(t.execute_ns);
    w.put_u64(t.write_ns);
    w.put_u64(t.total_ns);
    w.put_u32(t.shards_scattered);
    w.put_u32(t.shards_skipped_box);
    w.put_u32(t.shards_skipped_synopsis);
    w.put_u64(t.bytes_in);
    w.put_u64(t.bytes_out);
}

/// Fixed encoded size of one [`QueryTrace`]: seq + opcode + 5 stage/total
/// nanos + 3 shard counts + 2 byte counts.
const TRACE_WIRE_LEN: usize = 8 + 1 + 5 * 8 + 3 * 4 + 2 * 8;

fn get_trace(r: &mut Reader) -> Result<QueryTrace, WireError> {
    Ok(QueryTrace {
        seq: r.u64()?,
        opcode: r.u8()?,
        decode_ns: r.u64()?,
        queue_ns: r.u64()?,
        execute_ns: r.u64()?,
        write_ns: r.u64()?,
        total_ns: r.u64()?,
        shards_scattered: r.u32()?,
        shards_skipped_box: r.u32()?,
        shards_skipped_synopsis: r.u32()?,
        bytes_in: r.u64()?,
        bytes_out: r.u64()?,
    })
}

fn put_metrics(w: &mut Writer, m: &MetricsReport) {
    w.put_count(METRICS_HISTOGRAMS);
    for (_, h) in m.stages() {
        put_histogram(w, h);
    }
    w.put_count(m.slow_queries.len());
    for t in &m.slow_queries {
        put_trace(w, t);
    }
}

fn get_metrics(r: &mut Reader) -> Result<MetricsReport, WireError> {
    // Each histogram is at least a bucket count (4 bytes); the loose
    // minimum keeps the hostile-count guard while letting a future server
    // append histograms with a different bucket scheme.
    let n = r.count(4)?;
    if n < METRICS_HISTOGRAMS {
        return Err(WireError::BadValue {
            context: "metrics snapshot is missing histograms",
        });
    }
    let decode = get_histogram(r)?;
    let queue = get_histogram(r)?;
    let execute = get_histogram(r)?;
    let write = get_histogram(r)?;
    let routing = get_histogram(r)?;
    let scatter = get_histogram(r)?;
    // Skip appended histograms a newer server may ship (self-delimiting:
    // bucket count, then that many u64s).
    for _ in METRICS_HISTOGRAMS..n {
        let buckets = r.count(8)?;
        for _ in 0..buckets {
            r.u64()?;
        }
    }
    let n_traces = r.count(TRACE_WIRE_LEN)?;
    let mut slow_queries = Vec::with_capacity(n_traces);
    for _ in 0..n_traces {
        slow_queries.push(get_trace(r)?);
    }
    Ok(MetricsReport {
        decode,
        queue,
        execute,
        write,
        routing,
        scatter,
        slow_queries,
    })
}

// ---------------------------------------------------------------------------
// Requests / responses
// ---------------------------------------------------------------------------

impl Request {
    /// Encodes the payload into a caller-provided [`Writer`] (whose
    /// backing buffer is typically pooled — see
    /// [`Writer::from_vec`](crate::wire::Writer::from_vec)), returning
    /// the opcode.
    pub fn encode_to(&self, w: &mut Writer) -> u8 {
        match self {
            Request::Query(expr) => {
                put_expr(w, expr);
                opcode::QUERY
            }
            Request::QueryBatch(exprs) => {
                w.put_count(exprs.len());
                for e in exprs {
                    put_expr(w, e);
                }
                opcode::QUERY_BATCH
            }
            Request::AddShard {
                request_id,
                datasets,
                global_ids,
            } => {
                w.put_u64(*request_id);
                put_shard_data(w, datasets, global_ids);
                opcode::ADD_SHARD
            }
            Request::RebuildShard {
                shard,
                request_id,
                datasets,
                global_ids,
            } => {
                w.put_u32(*shard);
                w.put_u64(*request_id);
                put_shard_data(w, datasets, global_ids);
                opcode::REBUILD_SHARD
            }
            Request::Stats => opcode::STATS,
            Request::Ping { token } => {
                w.put_u64(*token);
                opcode::PING
            }
            Request::Shutdown => opcode::SHUTDOWN,
            Request::Sleep { ms } => {
                w.put_u32(*ms);
                opcode::SLEEP
            }
            Request::SplitShard { shard, move_ids } => {
                w.put_u32(*shard);
                put_ids(w, move_ids);
                opcode::SPLIT_SHARD
            }
            Request::MergeShards { a, b } => {
                w.put_u32(*a);
                w.put_u32(*b);
                opcode::MERGE_SHARDS
            }
            Request::Metrics => opcode::METRICS,
        }
    }

    /// Decodes and validates a request payload. Rejections are typed; the
    /// payload must be fully consumed.
    pub fn decode(op: u8, payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let req = match op {
            opcode::QUERY => Request::Query(get_expr(&mut r)?),
            opcode::QUERY_BATCH => {
                let n = r.count(1)?;
                let mut exprs = Vec::with_capacity(n);
                for _ in 0..n {
                    exprs.push(get_expr(&mut r)?);
                }
                Request::QueryBatch(exprs)
            }
            opcode::ADD_SHARD => {
                let request_id = r.u64()?;
                let (datasets, global_ids) = get_shard_data(&mut r)?;
                Request::AddShard {
                    request_id,
                    datasets,
                    global_ids,
                }
            }
            opcode::REBUILD_SHARD => {
                let shard = r.u32()?;
                let request_id = r.u64()?;
                let (datasets, global_ids) = get_shard_data(&mut r)?;
                Request::RebuildShard {
                    shard,
                    request_id,
                    datasets,
                    global_ids,
                }
            }
            opcode::STATS => Request::Stats,
            opcode::PING => Request::Ping { token: r.u64()? },
            opcode::SHUTDOWN => Request::Shutdown,
            opcode::SLEEP => Request::Sleep { ms: r.u32()? },
            opcode::SPLIT_SHARD => {
                let shard = r.u32()?;
                let move_ids = get_ids(&mut r)?;
                if move_ids.is_empty() {
                    return Err(WireError::BadValue {
                        context: "a split must move at least one id",
                    });
                }
                Request::SplitShard { shard, move_ids }
            }
            opcode::MERGE_SHARDS => Request::MergeShards {
                a: r.u32()?,
                b: r.u32()?,
            },
            opcode::METRICS => Request::Metrics,
            tag => {
                return Err(WireError::BadTag {
                    context: "request opcode",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the payload into a caller-provided [`Writer`], returning
    /// the opcode (the session layer passes its pooled write buffers).
    pub fn encode_to(&self, w: &mut Writer) -> u8 {
        match self {
            Response::Hits(res) => {
                put_engine_result(w, res);
                opcode::HITS
            }
            Response::BatchHits(results) => {
                w.put_count(results.len());
                for res in results {
                    put_engine_result(w, res);
                }
                opcode::BATCH_HITS
            }
            Response::ShardAdded { shard } => {
                w.put_u32(*shard);
                opcode::SHARD_ADDED
            }
            Response::Done => opcode::DONE,
            Response::Stats(stats) => {
                let mut stats = *stats;
                let slots = stats.slots();
                w.put_count(slots.len());
                for x in slots {
                    w.put_u64(*x);
                }
                opcode::STATS_REPLY
            }
            Response::Pong { token } => {
                w.put_u64(*token);
                opcode::PONG
            }
            Response::Busy => opcode::BUSY,
            Response::Error(e) => {
                w.put_u8(e.kind.tag());
                w.put_str(&e.message);
                opcode::ERROR
            }
            Response::Metrics(m) => {
                put_metrics(w, m);
                opcode::METRICS_REPLY
            }
        }
    }

    /// Decodes a response payload (the client side of the codec).
    pub fn decode(op: u8, payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let resp = match op {
            opcode::HITS => Response::Hits(get_engine_result(&mut r)?),
            opcode::BATCH_HITS => {
                let n = r.count(1)?;
                let mut results = Vec::with_capacity(n);
                for _ in 0..n {
                    results.push(get_engine_result(&mut r)?);
                }
                Response::BatchHits(results)
            }
            opcode::SHARD_ADDED => Response::ShardAdded { shard: r.u32()? },
            opcode::DONE => Response::Done,
            opcode::STATS_REPLY => {
                let n = r.count(8)?;
                let mut stats = ServerStats::default();
                let slots = stats.slots();
                let known = slots.len();
                if n < known {
                    return Err(WireError::BadValue {
                        context: "stats snapshot is missing fields",
                    });
                }
                for slot in slots {
                    *slot = r.u64()?;
                }
                // Skip the fields a newer server appends.
                for _ in known..n {
                    r.u64()?;
                }
                Response::Stats(stats)
            }
            opcode::PONG => Response::Pong { token: r.u64()? },
            opcode::BUSY => Response::Busy,
            opcode::ERROR => {
                let tag = r.u8()?;
                let (kind, _) = *ERROR_KINDS.get(tag as usize).ok_or(WireError::BadTag {
                    context: "error kind",
                    tag,
                })?;
                Response::Error(ServerError {
                    kind,
                    message: r.str_()?,
                })
            }
            opcode::METRICS_REPLY => Response::Metrics(get_metrics(&mut r)?),
            tag => {
                return Err(WireError::BadTag {
                    context: "response opcode",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn expr() -> LogicalExpr {
        LogicalExpr::Or(vec![
            LogicalExpr::And(vec![
                LogicalExpr::Pred(Predicate::percentile(
                    Rect::from_bounds(&[-1.0, 0.0], &[1.0, 10.0]),
                    Interval::new(0.25, 0.75),
                )),
                LogicalExpr::Pred(Predicate::topk_at_least(vec![0.6, 0.8], 3, -0.0)),
            ]),
            LogicalExpr::Pred(Predicate::percentile_at_least(
                Rect::interval(2.0, 4.0),
                0.9,
            )),
        ])
    }

    /// `(opcode, payload)` of one `encode_to` call.
    fn encoded(encode_to: impl FnOnce(&mut Writer) -> u8) -> (u8, Vec<u8>) {
        let mut w = Writer::new();
        let op = encode_to(&mut w);
        (op, w.into_bytes())
    }

    /// Encode → decode → encode must be the identity on bytes (the codec
    /// is deterministic, so byte equality is structural equality).
    fn round_trip_request(req: &Request) {
        let (op, bytes) = encoded(|w| req.encode_to(w));
        let decoded = Request::decode(op, &bytes).expect("valid request decodes");
        let (op2, bytes2) = encoded(|w| decoded.encode_to(w));
        assert_eq!((op, bytes), (op2, bytes2));
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request::Query(expr()));
        round_trip_request(&Request::QueryBatch(vec![expr(), expr()]));
        round_trip_request(&Request::AddShard {
            request_id: 0,
            datasets: vec![
                Dataset::from_rows("a", vec![vec![1.0, 2.0], vec![3.0, 4.0]]),
                Dataset::from_rows("ü", vec![vec![-5.0, 0.5]]),
            ],
            global_ids: vec![3, 9],
        });
        round_trip_request(&Request::AddShard {
            request_id: u64::MAX,
            datasets: vec![Dataset::from_rows("dedup", vec![vec![1.0]])],
            global_ids: vec![11],
        });
        round_trip_request(&Request::RebuildShard {
            shard: 2,
            request_id: 0xDEAD_BEEF,
            datasets: vec![Dataset::from_rows("b", vec![vec![0.0]])],
            global_ids: vec![7],
        });
        round_trip_request(&Request::Stats);
        round_trip_request(&Request::Ping { token: u64::MAX });
        round_trip_request(&Request::Shutdown);
        round_trip_request(&Request::Sleep { ms: 250 });
        round_trip_request(&Request::SplitShard {
            shard: 1,
            move_ids: vec![9, 3, u64::MAX],
        });
        round_trip_request(&Request::MergeShards { a: 2, b: 0 });
        round_trip_request(&Request::Metrics);
    }

    #[test]
    fn empty_splits_are_rejected_at_decode() {
        let mut w = Writer::new();
        w.put_u32(0); // shard
        w.put_u32(0); // zero ids to move
        assert!(matches!(
            Request::decode(opcode::SPLIT_SHARD, &w.into_bytes()),
            Err(WireError::BadValue {
                context: "a split must move at least one id",
            })
        ));
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Hits(Ok(vec![1, 5, 9])),
            Response::Hits(Err(EngineError::MissingRank(7))),
            Response::Hits(Err(EngineError::DimensionMismatch {
                expected: 2,
                got: 5,
            })),
            Response::BatchHits(vec![
                Ok(vec![]),
                Err(EngineError::MissingRank(2)),
                Err(EngineError::DimensionMismatch {
                    expected: 1,
                    got: 3,
                }),
            ]),
            Response::ShardAdded { shard: 4 },
            Response::Done,
            Response::Stats(ServerStats {
                requests: 10,
                bytes_in: 999,
                n_shards: 3,
                sessions_throttled: 17,
                buffers_reused: 23,
                shard_splits: 4,
                shard_merges: 2,
                sessions_reaped: 6,
                retries_attempted: 12,
                requests_deduped: 8,
                shards_routed_by_synopsis: 17,
                ..Default::default()
            }),
            Response::Pong { token: 42 },
            Response::Busy,
            Response::Error(ServerError::new(ServerErrorKind::Ingest, "id 5 in use")),
            Response::Error(ServerError::new(ServerErrorKind::Throttled, "rate limited")),
            Response::Metrics(MetricsReport::default()),
            Response::Metrics({
                let mut m = MetricsReport::default();
                m.decode.counts[0] = 3;
                m.queue.counts[10] = u64::MAX;
                m.execute.counts[63] = 1;
                m.write.counts[1] = 9;
                m.routing.counts[5] = 2;
                m.scatter.counts[30] = 7;
                m.slow_queries = vec![
                    QueryTrace::default(),
                    QueryTrace {
                        seq: u64::MAX,
                        opcode: 0x02,
                        decode_ns: 1,
                        queue_ns: 2,
                        execute_ns: 3,
                        write_ns: 4,
                        total_ns: 10,
                        shards_scattered: 5,
                        shards_skipped_box: 6,
                        shards_skipped_synopsis: 7,
                        bytes_in: 100,
                        bytes_out: u64::MAX,
                    },
                ];
                m
            }),
        ];
        for resp in responses {
            let (op, bytes) = encoded(|w| resp.encode_to(w));
            let decoded = Response::decode(op, &bytes).expect("valid response decodes");
            assert_eq!(decoded, resp);
            let (op2, bytes2) = encoded(|w| decoded.encode_to(w));
            assert_eq!((op, bytes), (op2, bytes2));
        }
    }

    #[test]
    fn semantic_validation_rejects_engine_poison() {
        // NaN interval: would panic Interval::new in-process.
        let mut w = Writer::new();
        w.put_u8(0x00); // Pred
        w.put_u8(0x00); // Percentile
        w.put_u32(1);
        w.put_f64(0.0);
        w.put_f64(1.0);
        w.put_f64(f64::NAN);
        w.put_f64(1.0);
        let bytes = w.into_bytes();
        assert!(matches!(
            Request::decode(opcode::QUERY, &bytes),
            Err(WireError::BadValue { .. })
        ));
        // Deep nesting is bounded.
        let mut w = Writer::new();
        for _ in 0..(MAX_EXPR_DEPTH + 2) {
            w.put_u8(0x01); // And
            w.put_u32(1);
        }
        w.put_u8(0x00);
        let bytes = w.into_bytes();
        assert!(matches!(
            Request::decode(opcode::QUERY, &bytes),
            Err(WireError::BadValue {
                context: "expression nests too deeply"
            })
        ));
        // DNF explosion is bounded: And of 7 binary Ors → 2^7 clauses.
        let or = LogicalExpr::Or(vec![
            LogicalExpr::Pred(Predicate::percentile_at_least(
                Rect::interval(0.0, 1.0),
                0.5,
            )),
            LogicalExpr::Pred(Predicate::percentile_at_least(
                Rect::interval(1.0, 2.0),
                0.5,
            )),
        ]);
        let bomb = LogicalExpr::And(vec![or; 7]);
        let (op, bytes) = encoded(|w| Request::Query(bomb).encode_to(w));
        assert!(matches!(
            Request::decode(op, &bytes),
            Err(WireError::BadValue {
                context: "expression expands past the DNF clause bound"
            })
        ));
        // An empty dataset would panic Dataset::new.
        let mut w = Writer::new();
        w.put_u64(0); // request_id (no dedup)
        w.put_u32(1); // one dataset
        w.put_str("empty");
        w.put_u32(1); // dim
        w.put_u32(0); // no points
        w.put_u32(0); // no ids
        let bytes = w.into_bytes();
        assert!(matches!(
            Request::decode(opcode::ADD_SHARD, &bytes),
            Err(WireError::BadValue { .. })
        ));
    }

    #[test]
    fn zero_child_connectives_cannot_bypass_the_dnf_bound() {
        // A zero-child connective is rejected at decode.
        let mut w = Writer::new();
        w.put_u8(0x02); // Or
        w.put_u32(0); // no children
        assert!(matches!(
            Request::decode(opcode::QUERY, &w.into_bytes()),
            Err(WireError::BadValue {
                context: "zero-child connective (And/Or needs at least one child)"
            })
        ));
        // The bypass shape: And([Or(100 preds) × 3, Or([])]) has a DNF
        // clause *product* of zero (the empty Or), but to_dnf would
        // materialize the ~10^6-clause intermediate accumulator before
        // reaching the zero factor. It must never pass decode.
        let pred = || {
            LogicalExpr::Pred(Predicate::percentile_at_least(
                Rect::interval(0.0, 1.0),
                0.5,
            ))
        };
        let wide_or = LogicalExpr::Or((0..100).map(|_| pred()).collect());
        let bomb = LogicalExpr::And(vec![
            wide_or.clone(),
            wide_or.clone(),
            wide_or,
            LogicalExpr::Or(vec![]),
        ]);
        let (op, bytes) = encoded(|w| Request::Query(bomb.clone()).encode_to(w));
        assert!(matches!(
            Request::decode(op, &bytes),
            Err(WireError::BadValue { .. })
        ));
        // Defense in depth: even if zero-child connectives were ever
        // admitted again, the engine's clamped clause bound still trips
        // (every prefix product is <= the counted total), so `to_dnf`
        // refuses the expression up front instead of OOMing — pinned by
        // `dnf_bound_is_checked_before_expansion` in dds_core.
        assert!(bomb.dnf_clause_bound() > MAX_DNF_CLAUSES);
    }

    /// The cells of each body row of the first table after `heading` in
    /// `PROTOCOL.md`, the document the codec is checked against.
    fn protocol_md_rows(heading: &str) -> Vec<Vec<String>> {
        const DOC: &str = include_str!("../PROTOCOL.md");
        let at = DOC
            .find(heading)
            .unwrap_or_else(|| panic!("no {heading:?}"));
        DOC[at..]
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .skip(2) // header and separator
            .map(|l| {
                l.trim_matches('|')
                    .split('|')
                    .map(|c| c.trim().into())
                    .collect()
            })
            .collect()
    }

    /// The opcode of a table cell such as `` `0x0A` ``.
    fn opcode_cell(cell: &str) -> u8 {
        let hex = cell.trim_matches('`').trim_start_matches("0x");
        u8::from_str_radix(hex, 16).unwrap_or_else(|_| panic!("bad opcode cell {cell:?}"))
    }

    #[test]
    fn retry_safety_classification_matches_the_protocol_table() {
        let names: HashMap<u8, String> = protocol_md_rows("### Requests")
            .into_iter()
            .map(|row| (opcode_cell(&row[0]), row[1].clone()))
            .collect();
        let classes: HashMap<String, RetrySafety> = protocol_md_rows("## Retry safety")
            .into_iter()
            .map(|row| {
                let class = match row[1].trim_matches('*') {
                    "safe" => RetrySafety::Safe,
                    "safe iff deduped" => RetrySafety::SafeIfDeduped,
                    "unsafe" => RetrySafety::Unsafe,
                    other => panic!("unknown retry class {other:?}"),
                };
                (row[0].clone(), class)
            })
            .collect();
        let shard = (vec![Dataset::from_rows("d", vec![vec![1.0]])], vec![0u64]);
        let cases: Vec<(Request, Option<u64>)> = vec![
            (Request::Query(expr()), None),
            (Request::QueryBatch(vec![expr()]), None),
            (Request::Stats, None),
            (Request::Metrics, None),
            (Request::Ping { token: 1 }, None),
            (
                Request::SplitShard {
                    shard: 0,
                    move_ids: vec![1],
                },
                None,
            ),
            (Request::MergeShards { a: 0, b: 1 }, None),
            (
                Request::AddShard {
                    request_id: 0,
                    datasets: shard.0.clone(),
                    global_ids: shard.1.clone(),
                },
                None,
            ),
            (
                Request::AddShard {
                    request_id: 42,
                    datasets: shard.0.clone(),
                    global_ids: shard.1.clone(),
                },
                Some(42),
            ),
            (
                Request::RebuildShard {
                    shard: 0,
                    request_id: 7,
                    datasets: shard.0,
                    global_ids: shard.1,
                },
                Some(7),
            ),
            (Request::Shutdown, None),
            (Request::Sleep { ms: 1 }, None),
        ];
        let mut covered = HashSet::new();
        for (req, dedup) in cases {
            let name = &names[&req.encode_to(&mut Writer::new())];
            let safety = classes
                .get(name)
                .unwrap_or_else(|| panic!("{name} has no class"));
            assert_eq!(req.retry_safety(), *safety, "{req:?}");
            assert_eq!(req.dedup_id(), dedup, "{req:?}");
            covered.insert(name.clone());
        }
        // One case per listed op, and one class per op.
        assert_eq!(covered, names.values().cloned().collect());
        assert_eq!(covered, classes.keys().cloned().collect());
    }

    #[test]
    fn decoders_accept_exactly_the_opcodes_protocol_md_lists() {
        let listed = |heading| -> HashSet<u8> {
            let rows = protocol_md_rows(heading);
            rows.iter().map(|row| opcode_cell(&row[0])).collect()
        };
        let (requests, responses) = (listed("### Requests"), listed("### Responses"));
        for op in 0..=u8::MAX {
            let unknown = matches!(
                Request::decode(op, &[]),
                Err(WireError::BadTag {
                    context: "request opcode",
                    ..
                })
            );
            assert_eq!(unknown, !requests.contains(&op), "request opcode {op:#04x}");
            let unknown = matches!(
                Response::decode(op, &[]),
                Err(WireError::BadTag {
                    context: "response opcode",
                    ..
                })
            );
            assert_eq!(
                unknown,
                !responses.contains(&op),
                "response opcode {op:#04x}"
            );
        }
    }

    #[test]
    fn trailing_bytes_and_bad_opcodes_are_rejected() {
        let (op, mut bytes) = encoded(|w| Request::Ping { token: 1 }.encode_to(w));
        bytes.push(0xFF);
        assert!(matches!(
            Request::decode(op, &bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
        assert!(matches!(
            Request::decode(0x7F, &[]),
            Err(WireError::BadTag {
                context: "request opcode",
                ..
            })
        ));
        assert!(matches!(
            Response::decode(0x00, &[]),
            Err(WireError::BadTag {
                context: "response opcode",
                ..
            })
        ));
    }
}
