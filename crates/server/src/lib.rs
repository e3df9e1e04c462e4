//! `dds-server` — a network-facing query service over the sharded
//! distribution-aware search engine.
//!
//! The paper frames dataset search as a service a data marketplace
//! exposes to searchers; `dds_core::shard::ShardedEngine` is that service
//! in-process, and this crate puts it behind a wire boundary using **std
//! only** (`std::net`, a vendored `poll(2)` shim — no async runtime, no
//! serde; POSIX-only because of the readiness loop):
//!
//! * [`wire`] — length-prefixed, versioned frames with checked primitive
//!   codecs; malformed, truncated and oversized input surface as typed
//!   [`wire::WireError`]s, never panics. Grammar in `PROTOCOL.md`.
//! * [`protocol`] — explicit encode/decode for query expressions, hits,
//!   errors, admin ops, the aggregated [`protocol::ServerStats`] and the
//!   telemetry [`protocol::MetricsReport`] (per-stage latency histogram
//!   snapshots + slow-query traces, with a Prometheus-style
//!   `render_text`);
//!   decoding also validates the semantic bounds that would panic the
//!   engine (NaN intervals, DNF explosions, empty datasets).
//! * [`reactor`] — the level-triggered readiness loop ([`poll(2)`] via
//!   the vendored `poll-shim`) plus a cross-thread [`reactor::Waker`].
//! * [`buffer`] — the size-classed session [`buffer::BufferPool`]:
//!   steady-state serving allocates nothing per frame, and a warm pool
//!   makes reconnect storms allocation-free too.
//! * [`server`] — [`DdsServer`]: a listener, a fixed pool of I/O threads
//!   driving session state machines over nonblocking sockets (thousands
//!   of idle connections per thread), a **bounded admission queue**
//!   (overload answers a typed [`protocol::Response::Busy`] instead of
//!   buffering unboundedly — the backpressure contract), optional
//!   per-session token-bucket [`RateLimit`]s (a typed `throttled` error,
//!   never silent drops), a fixed executor pool running jobs on the
//!   engine's `dds_pool`-backed batch paths, and graceful shutdown
//!   (gate + drain: everything admitted is answered).
//! * [`client`] — [`DdsClient`]: a blocking connection with single/batch
//!   query calls, admin calls (`add_shard`, `rebuild_shard`, `stats`,
//!   `metrics`, `shutdown_server`), configurable socket timeouts
//!   ([`ClientConfig`]),
//!   and an optional self-healing [`RetryPolicy`] (reconnect, exponential
//!   backoff with deterministic jitter, deadline, and dedup `request_id`s
//!   so retried ingests cannot double-apply).
//! * [`fault`] — deterministic fault injection: a seeded
//!   [`fault::FaultPlan`] (torn writes, resets, stalls, trickle,
//!   delayed connects) applied by the [`fault::ChaosProxy`] harness, so
//!   every network failure a test exercises is reproducible from its
//!   seed.
//!
//! Served answers are **byte-identical** to in-process `ShardedEngine`
//! answers — `EngineError`s included — under concurrent clients; the
//! loopback integration tests pin this.
//!
//! [`poll(2)`]: https://man7.org/linux/man-pages/man2/poll.2.html
//!
//! ```no_run
//! use dds_core::pref::PrefBuildParams;
//! use dds_core::ptile::PtileBuildParams;
//! use dds_core::shard::ShardedEngine;
//! use dds_server::{DdsClient, DdsServer, ServerConfig};
//!
//! let engine = ShardedEngine::new(
//!     &[1],
//!     PtileBuildParams::exact_centralized(),
//!     PrefBuildParams::exact_centralized(),
//! );
//! let server = DdsServer::serve(engine, "127.0.0.1:0", ServerConfig::default())?;
//! let mut client = DdsClient::connect(server.local_addr())?;
//! client.ping()?;
//! client.shutdown_server()?;
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod client;
pub mod fault;
pub mod protocol;
pub mod reactor;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, ClientError, DdsClient, EngineResult, RetryPolicy};
pub use fault::{ChaosProxy, FaultPlan};
pub use protocol::{
    MetricsReport, Request, Response, RetrySafety, ServerError, ServerErrorKind, ServerStats,
};
pub use server::{DdsServer, RateLimit, ServerConfig};
pub use wire::{WireError, PROTOCOL_VERSION};
