//! Blocking client for the `dds-server` wire protocol.
//!
//! One request in flight per connection: every call writes a frame, reads
//! the answering frame, and surfaces the transport/protocol layer as a
//! typed [`ClientError`] while passing the *engine's* answers — including
//! `EngineError`s — through untouched, so a served
//! [`query`](DdsClient::query) returns exactly the in-process
//! `ShardedEngine::try_query_with` result (pinned byte-identical by the loopback
//! tests).
//!
//! The connection reuses one scratch buffer per direction across calls
//! (frames are encoded with [`crate::wire::encode_frame_into`] and read
//! with [`crate::wire::read_frame_into`]), so a warmed-up client
//! allocates nothing per round trip — the other half of the server's
//! zero-allocation steady state, pinned together by the
//! `steady_state_allocs` test's counting allocator.
//!
//! # Self-healing
//!
//! With a [`RetryPolicy`] installed ([`DdsClient::with_retry`]) the
//! client heals around transport faults: a dead connection is dropped and
//! re-dialed, attempts back off exponentially with deterministic jitter,
//! and the whole loop is bounded by a deadline and an attempt cap. What
//! may be *re-sent* is governed by the wire op's
//! [`RetrySafety`] class — reads and
//! data-free admin ops always, ingests only under a dedup `request_id`
//! (which this client stamps automatically), `Shutdown`/`Sleep` never.
//! An answered transient rejection (`Busy`, `throttled`, `unavailable`)
//! executed nothing and is retryable for any op. A call that exhausts its
//! budget surfaces [`ClientError::DeadlineExceeded`] wrapping the last
//! underlying failure.

use crate::protocol::{MetricsReport, Request, Response, RetrySafety, ServerError, ServerStats};
use crate::wire::{
    encode_frame_into, read_frame_into, FrameReadError, WireError, DEFAULT_MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use dds_core::engine::EngineError;
use dds_core::framework::{LogicalExpr, Repository};
use dds_core::shard::GlobalId;
use std::fmt;
use std::io::{self, Write};
use std::net::{IpAddr, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// A query answer exactly as the in-process engine would return it.
pub type EngineResult = Result<Vec<GlobalId>, EngineError>;

/// Connection options for [`DdsClient::connect_with`].
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Socket read **and** write timeout for every call; `None` (the
    /// default) blocks indefinitely — unless a [`RetryPolicy`] is
    /// installed, in which case a per-attempt timeout is derived from the
    /// policy so one stalled attempt cannot eat the whole deadline. An
    /// expired timeout surfaces as [`ClientError::TimedOut`] — the
    /// connection is dropped afterwards, since an abandoned response may
    /// still arrive and desynchronise the stream.
    pub timeout: Option<Duration>,
    /// Upper bound on a frame body this client accepts and emits.
    pub max_frame_len: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            timeout: None,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }
}

/// How a [`DdsClient`] retries around transport faults and transient
/// rejections. Install with [`DdsClient::with_retry`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total budget for one logical call, attempts and backoffs
    /// included. Past it the call fails with
    /// [`ClientError::DeadlineExceeded`].
    pub deadline: Duration,
    /// Most attempts one logical call makes (≥ 1; the first attempt
    /// counts).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt (capped at
    /// 1 s), with deterministic jitter in `[base/2, base)` of the
    /// current value.
    pub base_backoff: Duration,
    /// Seeds the backoff-jitter sequence — two clients retrying the
    /// same failure pattern from the same seed sleep identically.
    ///
    /// Deliberately **not** used for `request_id` generation: the
    /// server's dedup window is shared by every client, so ids drawn
    /// from a shared default seed would collide across clients and a
    /// second client's ingest would be misread as a retransmission of
    /// the first's. Request ids come from a per-client entropy-seeded
    /// generator instead (see [`DdsClient::connect_with`]).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            deadline: Duration::from_secs(10),
            max_attempts: 8,
            base_backoff: Duration::from_millis(20),
            jitter_seed: 0x5EED_5EED,
        }
    }
}

/// Why a client call failed *before* producing an engine answer.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure other than the peer going away (connect refused,
    /// a genuine local I/O fault).
    Io(io::Error),
    /// The socket timeout expired mid-call (explicit
    /// [`ClientConfig::timeout`], or the per-attempt timeout a
    /// [`RetryPolicy`] derives). The connection is no longer usable: the
    /// response may arrive later and desynchronise the stream.
    TimedOut,
    /// The peer went away: a clean close between frames, a reset, or a
    /// broken pipe. Distinct from [`Io`](Self::Io) so a retry layer can
    /// tell "reconnect and try again" from "something is locally wrong".
    ConnectionClosed,
    /// The response violated the wire grammar.
    Wire(WireError),
    /// The server's admission queue was full; the request was not
    /// executed — retry later (the typed backpressure signal).
    Busy,
    /// The server answered a typed request-level error (protocol
    /// rejection, refused ingest, rate-limit throttling, shutting down).
    Server(ServerError),
    /// The server answered with a well-formed but unexpected response
    /// kind.
    UnexpectedResponse {
        /// What the call was waiting for.
        expected: &'static str,
        /// What arrived instead (debug rendering).
        got: String,
    },
    /// The [`RetryPolicy`] budget ran out. `last` is the failure of the
    /// final attempt — the thing that would have been returned without a
    /// policy.
    DeadlineExceeded {
        /// Attempts made (the first one included).
        attempts: u32,
        /// The final attempt's failure.
        last: Box<ClientError>,
    },
}

impl ClientError {
    /// Whether retrying *could* help: the fault was in transport or an
    /// explicitly transient server answer (`Busy`,
    /// `unavailable`/`throttled`), rather than a permanent rejection, a
    /// grammar violation, or an already-exhausted retry budget.
    ///
    /// Note this classifies the **error**, not the op: a transient error
    /// after an op of unknown fate is only actually retryable if the op
    /// is retry-safe (see [`RetrySafety`]) — the retry loop
    /// enforces that half.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Io(_)
            | ClientError::TimedOut
            | ClientError::ConnectionClosed
            | ClientError::Busy => true,
            ClientError::Server(e) => e.kind.is_transient(),
            ClientError::Wire(_)
            | ClientError::UnexpectedResponse { .. }
            | ClientError::DeadlineExceeded { .. } => false,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::TimedOut => {
                write!(f, "request timed out (ClientConfig::timeout)")
            }
            ClientError::ConnectionClosed => {
                write!(f, "the server closed the connection")
            }
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Busy => write!(f, "server busy: admission queue full, retry later"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::UnexpectedResponse { expected, got } => {
                write!(f, "expected a {expected} response, got {got}")
            }
            ClientError::DeadlineExceeded { attempts, last } => {
                write!(
                    f,
                    "retry deadline exceeded after {attempts} attempts: {last}"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            ClientError::Server(e) => Some(e),
            ClientError::DeadlineExceeded { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        // Platforms disagree on what an expired socket timeout reads as:
        // Unix surfaces EAGAIN (WouldBlock), Windows WSAETIMEDOUT
        // (TimedOut). Both mean the same thing here.
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::TimedOut,
            k if crate::wire::is_disconnect_kind(k) => ClientError::ConnectionClosed,
            _ => ClientError::Io(e),
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<FrameReadError> for ClientError {
    fn from(e: FrameReadError) -> Self {
        match e {
            FrameReadError::Eof => ClientError::ConnectionClosed,
            FrameReadError::Io(e) => e.into(),
            FrameReadError::Wire(e) => ClientError::Wire(e),
        }
    }
}

/// Where an attempt's failure left the request — the input to the
/// retry-safety decision.
enum Fate {
    /// The connection could not even be established: nothing was sent,
    /// so a retry is always safe.
    NotSent,
    /// The transport died after (part of) the frame went out and before
    /// an answer came back. Re-sending is gated on the op's
    /// [`RetrySafety`].
    Unknown,
    /// The server *answered* — with `Busy` or a typed error. Nothing is
    /// pending; whether to retry depends only on the answer's
    /// transience.
    Answered,
}

struct AttemptError {
    err: ClientError,
    fate: Fate,
}

/// Advances a splitmix64 state and returns the next output.
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-client entropy seeding the `request_id` generator.
///
/// The server's dedup window is shared by **all** clients, so request
/// ids must be unique across clients, not just within one — a collision
/// makes a fresh ingest read as a retransmission, silently replaying
/// another client's answer. Three independent sources are mixed so no
/// single coincidence collides two clients: a process-unique counter
/// (two clients in one process always differ), the connection's local
/// ephemeral port + address (two single-client processes on one host
/// differ), and the wall clock at nanosecond grain (distinct hosts
/// differ).
fn request_id_seed(stream: &TcpStream) -> u64 {
    static CLIENT_SEQ: AtomicU64 = AtomicU64::new(1);
    let mut seq = CLIENT_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut seed = splitmix_next(&mut seq);
    if let Ok(t) = SystemTime::now().duration_since(UNIX_EPOCH) {
        let mut clock = t.as_nanos() as u64;
        seed ^= splitmix_next(&mut clock);
    }
    if let Ok(local) = stream.local_addr() {
        let mut addr = u64::from(local.port());
        match local.ip() {
            IpAddr::V4(ip) => addr ^= u64::from(u32::from(ip)) << 16,
            IpAddr::V6(ip) => {
                let bits = u128::from(ip);
                addr ^= (bits as u64) ^ ((bits >> 64) as u64);
            }
        }
        seed ^= splitmix_next(&mut addr);
    }
    seed
}

/// A blocking connection to a [`DdsServer`](crate::DdsServer) over a
/// plain `TcpStream`.
///
/// To drive the retry loop through deterministic chaos, connect through
/// a [`ChaosProxy`](crate::ChaosProxy) instead of to the server: the
/// proxy's faults reach the client as dead or stalled connections.
#[derive(Debug)]
pub struct DdsClient {
    conn: Option<TcpStream>,
    /// The resolved peer, kept for reconnects.
    peer: SocketAddr,
    cfg: ClientConfig,
    retry: Option<RetryPolicy>,
    /// splitmix64 state for backoff jitter (seeded by
    /// [`RetryPolicy::jitter_seed`]).
    rng: u64,
    /// splitmix64 state for `request_id` generation, seeded with
    /// per-client entropy at connect time. Request ids land in the
    /// server's **shared** dedup window, so two clients must never emit
    /// the same id stream — which is why this state is independent of
    /// the (defaultable, hence collidable) `jitter_seed`.
    id_rng: u64,
    retries: u64,
    /// Encoded request frame, reused across calls.
    scratch_out: Vec<u8>,
    /// Response frame payload, reused across calls.
    scratch_in: Vec<u8>,
}

impl DdsClient {
    /// Connects to a server with default options (no timeout, no
    /// retries).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<DdsClient, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects to a server with explicit [`ClientConfig`] options.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        cfg: ClientConfig,
    ) -> Result<DdsClient, ClientError> {
        // Dial once eagerly (callers expect connect errors here, not on
        // the first call) and remember the resolved peer for reconnects.
        let stream = TcpStream::connect(addr)?;
        let peer = stream.peer_addr()?;
        let id_rng = request_id_seed(&stream);
        let mut client = DdsClient {
            conn: None,
            peer,
            cfg,
            retry: None,
            rng: 0x5EED_5EED,
            id_rng,
            retries: 0,
            scratch_out: Vec::new(),
            scratch_in: Vec::new(),
        };
        client.configure(&stream)?;
        client.conn = Some(stream);
        Ok(client)
    }

    /// Installs a [`RetryPolicy`]: calls reconnect and retry around
    /// transport faults within the policy's budget, and ingest calls are
    /// stamped with dedup `request_id`s so their retries are safe.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.rng = policy.jitter_seed;
        self.retry = Some(policy);
        self
    }

    /// Transport-level retries performed so far (reconnect + re-send
    /// cycles and backoffs after transient rejections; successful first
    /// attempts don't count).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn next_rand(&mut self) -> u64 {
        splitmix_next(&mut self.rng)
    }

    /// A fresh nonzero dedup token for one logical ingest call (reused
    /// verbatim across that call's attempts). Drawn from the
    /// entropy-seeded per-client stream, never from the jitter rng —
    /// see [`request_id_seed`].
    fn next_request_id(&mut self) -> u64 {
        loop {
            let id = splitmix_next(&mut self.id_rng);
            if id != 0 {
                return id;
            }
        }
    }

    /// The socket budget for one attempt: the explicit
    /// [`ClientConfig::timeout`], or — with a retry policy and none set
    /// — `deadline / max_attempts` (floored at 10 ms) so a stalled
    /// attempt cannot eat the whole budget.
    fn attempt_timeout(&self) -> Option<Duration> {
        self.cfg.timeout.or_else(|| {
            self.retry
                .map(|p| (p.deadline / p.max_attempts.max(1)).max(Duration::from_millis(10)))
        })
    }

    /// Applies socket options to a fresh connection.
    fn configure(&self, stream: &TcpStream) -> Result<(), ClientError> {
        let _ = stream.set_nodelay(true);
        let timeout = self.attempt_timeout();
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(())
    }

    /// Dials the remembered peer. The dial is bounded by the per-attempt
    /// timeout clipped to `remaining` (what is left of the retry
    /// deadline): a black-holed peer that silently drops SYNs fails this
    /// attempt within budget instead of blocking for the OS connect
    /// timeout.
    fn reconnect(&mut self, remaining: Option<Duration>) -> Result<(), ClientError> {
        let budget = match (self.attempt_timeout(), remaining) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let stream = match budget {
            // connect_timeout rejects a zero duration, and a nearly-spent
            // deadline should still buy one real dial — floor at 10 ms
            // (the deadline check in the retry loop ends the call).
            Some(t) => TcpStream::connect_timeout(&self.peer, t.max(Duration::from_millis(10)))?,
            None => TcpStream::connect(self.peer)?,
        };
        self.configure(&stream)?;
        self.conn = Some(stream);
        Ok(())
    }

    /// One wire round trip on the current connection.
    fn exchange(&mut self, req: &Request) -> Result<Response, ClientError> {
        let conn = self.conn.as_mut().expect("exchange requires a connection");
        encode_frame_into(
            &mut self.scratch_out,
            PROTOCOL_VERSION,
            self.cfg.max_frame_len,
            |w| req.encode_to(w),
        )?;
        conn.write_all(&self.scratch_out)?;
        let (version, opcode) =
            read_frame_into(conn, self.cfg.max_frame_len, &mut self.scratch_in)?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::UnsupportedVersion { got: version }.into());
        }
        Ok(Response::decode(opcode, &self.scratch_in)?)
    }

    /// One attempt: ensure a connection, do the round trip, classify the
    /// failure's fate. Any transport or wire failure poisons the
    /// connection (the stream can no longer be trusted to be in sync).
    /// `remaining` bounds a reconnect dial (what is left of the retry
    /// deadline; `None` = no deadline).
    fn attempt(
        &mut self,
        req: &Request,
        remaining: Option<Duration>,
    ) -> Result<Response, AttemptError> {
        if self.conn.is_none() {
            self.reconnect(remaining).map_err(|err| AttemptError {
                err,
                fate: Fate::NotSent,
            })?;
        }
        match self.exchange(req) {
            Ok(Response::Busy) => Err(AttemptError {
                err: ClientError::Busy,
                fate: Fate::Answered,
            }),
            Ok(Response::Error(e)) => Err(AttemptError {
                err: ClientError::Server(e),
                fate: Fate::Answered,
            }),
            Ok(resp) => Ok(resp),
            Err(err) => {
                self.conn = None;
                Err(AttemptError {
                    err,
                    fate: Fate::Unknown,
                })
            }
        }
    }

    /// One request/response round trip, healed by the retry policy when
    /// one is installed.
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let policy = match self.retry {
            Some(p) => p,
            None => return self.attempt(req, None).map_err(|a| a.err),
        };
        // Whether this op may be re-sent when its fate is unknown.
        let resend_safe = match req.retry_safety() {
            RetrySafety::Safe => true,
            RetrySafety::SafeIfDeduped => req.dedup_id().is_some(),
            RetrySafety::Unsafe => false,
        };
        let start = Instant::now();
        let mut attempts = 0u32;
        let mut backoff = policy.base_backoff.max(Duration::from_millis(1));
        loop {
            attempts += 1;
            let remaining = policy.deadline.saturating_sub(start.elapsed());
            let AttemptError { err, fate } = match self.attempt(req, Some(remaining)) {
                Ok(resp) => return Ok(resp),
                Err(a) => a,
            };
            let retryable = match fate {
                Fate::NotSent => err.is_transient(),
                Fate::Answered => err.is_transient(),
                Fate::Unknown => resend_safe && err.is_transient(),
            };
            if !retryable {
                return Err(err);
            }
            if attempts >= policy.max_attempts.max(1) || start.elapsed() >= policy.deadline {
                return Err(ClientError::DeadlineExceeded {
                    attempts,
                    last: Box::new(err),
                });
            }
            self.retries += 1;
            // Deterministic decorrelated jitter in [backoff/2, backoff),
            // clipped to what is left of the deadline.
            let half = (backoff / 2).as_millis().max(1) as u64;
            let jittered = Duration::from_millis(half + self.next_rand() % half);
            let remaining = policy.deadline.saturating_sub(start.elapsed());
            std::thread::sleep(jittered.min(remaining));
            backoff = (backoff * 2).min(Duration::from_secs(1));
        }
    }

    fn unexpected<T>(expected: &'static str, got: Response) -> Result<T, ClientError> {
        Err(ClientError::UnexpectedResponse {
            expected,
            got: format!("{got:?}"),
        })
    }

    /// Answers one expression — the served `ShardedEngine::try_query_with`.
    pub fn query(&mut self, expr: &LogicalExpr) -> Result<EngineResult, ClientError> {
        match self.call(&Request::Query(expr.clone()))? {
            Response::Hits(res) => Ok(res),
            other => Self::unexpected("hits", other),
        }
    }

    /// Answers a batch — the served `ShardedEngine::try_query_batch_opts`,
    /// input-ordered.
    pub fn query_batch(&mut self, exprs: &[LogicalExpr]) -> Result<Vec<EngineResult>, ClientError> {
        match self.call(&Request::QueryBatch(exprs.to_vec()))? {
            Response::BatchHits(res) => Ok(res),
            other => Self::unexpected("batch hits", other),
        }
    }

    /// Ingests a new shard; returns its index for later rebuilds. A
    /// rejected ingest surfaces as
    /// [`ClientError::Server`] with kind `Ingest`. With a retry policy
    /// installed the request carries a generated dedup `request_id`, so
    /// its retries cannot double-ingest.
    pub fn add_shard(
        &mut self,
        repo: &Repository,
        global_ids: &[GlobalId],
    ) -> Result<usize, ClientError> {
        let request_id = if self.retry.is_some() {
            self.next_request_id()
        } else {
            0
        };
        self.add_shard_with_id(request_id, repo, global_ids)
    }

    /// [`add_shard`](Self::add_shard) under an explicit caller-chosen
    /// `request_id` (`0` = no dedup). Callers that retry a failed
    /// logical ingest **across calls** should pass the same id each
    /// time: the server's dedup window then guarantees at most one
    /// ingest no matter how many times the request is re-sent —
    /// uniqueness across *distinct* ingests is the caller's
    /// responsibility.
    pub fn add_shard_with_id(
        &mut self,
        request_id: u64,
        repo: &Repository,
        global_ids: &[GlobalId],
    ) -> Result<usize, ClientError> {
        let req = Request::AddShard {
            request_id,
            datasets: repo.datasets().to_vec(),
            global_ids: global_ids.to_vec(),
        };
        match self.call(&req)? {
            Response::ShardAdded { shard } => Ok(shard as usize),
            other => Self::unexpected("shard-added", other),
        }
    }

    /// Replaces shard `shard`'s contents. Dedup `request_id` handling as
    /// in [`add_shard`](Self::add_shard).
    pub fn rebuild_shard(
        &mut self,
        shard: usize,
        repo: &Repository,
        global_ids: &[GlobalId],
    ) -> Result<(), ClientError> {
        let request_id = if self.retry.is_some() {
            self.next_request_id()
        } else {
            0
        };
        let req = Request::RebuildShard {
            shard: shard as u32,
            request_id,
            datasets: repo.datasets().to_vec(),
            global_ids: global_ids.to_vec(),
        };
        match self.call(&req)? {
            Response::Done => Ok(()),
            other => Self::unexpected("done", other),
        }
    }

    /// Divides shard `shard` in two: datasets whose global ids are in
    /// `move_ids` land in a new shard, whose index is returned. Served
    /// answers never change across the transition. A rejection (unknown
    /// shard, id not held, empty side) surfaces as
    /// [`ClientError::Server`] with kind `InvalidQuery` — the op carries
    /// no data, so a rejection means the request named state that doesn't
    /// match the served catalog.
    pub fn split_shard(
        &mut self,
        shard: usize,
        move_ids: &[GlobalId],
    ) -> Result<usize, ClientError> {
        let req = Request::SplitShard {
            shard: shard as u32,
            move_ids: move_ids.to_vec(),
        };
        match self.call(&req)? {
            Response::ShardAdded { shard } => Ok(shard as usize),
            other => Self::unexpected("shard-added", other),
        }
    }

    /// Coalesces shards `a` and `b` into one; returns the surviving
    /// index, `min(a, b)` (shards past `max(a, b)` shift down by one).
    /// Rejections surface like [`split_shard`](Self::split_shard)'s.
    pub fn merge_shards(&mut self, a: usize, b: usize) -> Result<usize, ClientError> {
        let req = Request::MergeShards {
            a: a as u32,
            b: b as u32,
        };
        match self.call(&req)? {
            Response::ShardAdded { shard } => Ok(shard as usize),
            other => Self::unexpected("shard-added", other),
        }
    }

    /// Fetches the server's aggregated statistics.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Self::unexpected("stats", other),
        }
    }

    /// Fetches the server's telemetry snapshot: per-stage latency
    /// histograms (decode, queue wait, execute, response write, engine
    /// routing, per-scatter-unit execution) plus the recent slow-query
    /// traces. `report.render_text()` gives a Prometheus-style rendering
    /// for scraping. Like [`stats`](Self::stats) it is answered by the
    /// session directly, so it works even while the admission queue is
    /// saturated — exactly when the histograms are most interesting.
    pub fn metrics(&mut self) -> Result<MetricsReport, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(report) => Ok(report),
            other => Self::unexpected("metrics", other),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let token = 0x70_6F_6E_67;
        match self.call(&Request::Ping { token })? {
            Response::Pong { token: t } if t == token => Ok(()),
            other => Self::unexpected("pong", other),
        }
    }

    /// Asks the server to shut down gracefully (admitted work is drained
    /// and answered before the server exits). Never re-sent by the retry
    /// policy — a duplicate would hit the next server generation.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Done => Ok(()),
            other => Self::unexpected("done", other),
        }
    }

    /// Holds one executor for `ms` milliseconds (capped server-side) — a
    /// testing aid for backpressure drills. Never re-sent by the retry
    /// policy.
    pub fn sleep(&mut self, ms: u32) -> Result<(), ClientError> {
        match self.call(&Request::Sleep { ms })? {
            Response::Done => Ok(()),
            other => Self::unexpected("done", other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Two clients built with the **default** retry policy must not emit
    /// the same `request_id` stream: the server's dedup window is shared
    /// across clients, so a collision would misread one client's ingest
    /// as a retransmission of the other's and silently replay the wrong
    /// answer (the cross-client dedup-collision bug).
    #[test]
    fn default_policy_clients_draw_disjoint_request_id_streams() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // Keep the accepted sockets alive so connects succeed.
        let mut accepted = Vec::new();
        let mut ids = |_: ()| -> Vec<u64> {
            let mut c = DdsClient::connect(addr).expect("connect");
            accepted.push(listener.accept().expect("accept").0);
            c = c.with_retry(RetryPolicy::default());
            (0..32).map(|_| c.next_request_id()).collect()
        };
        let a = ids(());
        let b = ids(());
        assert_ne!(a, b, "identical id streams collide in the dedup window");
        let overlap: Vec<_> = a.iter().filter(|id| b.contains(id)).collect();
        assert!(
            overlap.is_empty(),
            "cross-client request_id overlap: {overlap:?}"
        );
        // And the jitter sequence stays deterministic from its seed —
        // entropy went into the id stream, not the backoff schedule.
        let mut j1 = DdsClient::connect(addr).expect("connect");
        accepted.push(listener.accept().expect("accept").0);
        let mut j2 = DdsClient::connect(addr).expect("connect");
        accepted.push(listener.accept().expect("accept").0);
        j1 = j1.with_retry(RetryPolicy::default());
        j2 = j2.with_retry(RetryPolicy::default());
        let s1: Vec<u64> = (0..8).map(|_| j1.next_rand()).collect();
        let s2: Vec<u64> = (0..8).map(|_| j2.next_rand()).collect();
        assert_eq!(s1, s2, "jitter must stay seed-deterministic");
    }
}
