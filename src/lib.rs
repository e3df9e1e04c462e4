//! # Distribution-Aware Dataset Search
//!
//! Umbrella crate re-exporting the workspace libraries that implement
//! *"A Theoretical Framework for Distribution-Aware Dataset Search"*
//! (PODS 2025): percentile-aware (**Ptile**) and preference-aware (**Pref**)
//! indexing over repositories of datasets, in both the centralized and the
//! federated (synopsis-only) setting.
//!
//! See the individual crates for the full APIs:
//!
//! * [`geom`] — geometric substrate (rectangles, coordinate grids, ε-nets).
//! * [`rangetree`] — orthogonal search structures (a frozen kd-tree, sorted
//!   score lists).
//! * [`synopsis`] — dataset synopses (samples, histograms, mixtures) with
//!   measured error.
//! * [`workload`] — seeded data and query generators used by tests, examples
//!   and benchmarks.
//! * [`core`] — the paper's data structures: Ptile/Pref indexes, baselines,
//!   lower-bound reductions.
//!
//! ## Quickstart
//!
//! ```
//! use distribution_aware_search::prelude::*;
//!
//! // Three tiny 1-d datasets.
//! let datasets = vec![
//!     Dataset::from_rows("a", vec![vec![1.0], vec![7.0], vec![9.0]]),
//!     Dataset::from_rows("b", vec![vec![2.0], vec![4.0], vec![6.0], vec![10.0]]),
//!     Dataset::from_rows("c", vec![vec![100.0], vec![200.0]]),
//! ];
//! let repo = Repository::new(datasets);
//!
//! // Centralized percentile search: which datasets have >= 20% of their
//! // points inside [3, 8]?
//! let index = PtileThresholdIndex::build_opts(
//!     &repo.exact_synopses(),
//!     PtileBuildParams::exact_centralized(),
//!     &BuildOptions::serial(),
//! );
//! let mut hits = index.query(&Rect::from_bounds(&[3.0], &[8.0]), 0.2);
//! hits.sort_unstable();
//! assert_eq!(hits, vec![0, 1]);
//! ```
//!
//! ## Threading
//!
//! Index construction runs on a scoped std-thread worker pool. Every index
//! has exactly one constructor, `build_opts`, taking a
//! [`prelude::BuildOptions`] (thread count; the default resolves
//! `DDS_THREADS` and falls back to all available cores), and so do the two
//! engines. Serial callers pass `&BuildOptions::serial()`, which runs every
//! work unit on the calling thread.
//! The thread count **never** changes results: parallel builds are
//! bit-identical to serial ones for every index family.
//!
//! ## Sharding
//!
//! [`prelude::ShardedEngine`] scales past one index: one engine per
//! repository shard, scatter/gather queries over the same pool, answers as
//! **stable global dataset ids** in ascending order — bit-identical to a
//! single unsharded engine at every shard count × thread count (for exact
//! builds unconditionally; for sampled builds, per-dataset RNGs are seeded
//! by global id and the φ-split can be anchored with
//! `PtileBuildParams::with_phi_datasets` — see `dds_core::shard`). Each
//! shard keeps a bounded, generation-tagged cross-call predicate-mask
//! cache ([`prelude::MaskCache`]); rebuilding a shard invalidates only its
//! own cache entries. A per-shard mass-bound synopsis lets queries route
//! past shards that provably cannot match — answer-invisible, on by
//! default ([`prelude::Routing`]). Each engine
//! operation has one spelling: ingest and lifecycle calls are
//! `try_*_opts` (typed [`prelude::IngestError`], explicit pool), queries
//! are `try_query_with` (caller scratch) and `try_query_batch_opts`.
//!
//! ## Serving
//!
//! [`server`] (`dds-server`) puts a `ShardedEngine` behind a TCP
//! boundary: a hand-rolled length-prefixed wire protocol
//! (`crates/server/PROTOCOL.md`), a fixed pool of readiness-driven I/O
//! threads (nonblocking sockets over `poll(2)` — thousands of idle
//! connections per thread, no async runtime), a size-classed session
//! buffer pool (steady-state serving allocates nothing per frame), a
//! bounded admission queue whose overflow answers a typed `Busy`
//! (backpressure with bounded memory), optional per-session token-bucket
//! rate limits ([`prelude::RateLimit`], a typed `throttled` error),
//! graceful drain-on-shutdown, and a blocking [`prelude::DdsClient`]
//! (socket timeouts via [`prelude::ClientConfig`]) whose served answers
//! are **byte-identical** to the in-process engine's — typed
//! [`prelude::EngineError`]s included.
//!
//! ## Errors
//!
//! Fallibility is typed at the core boundary: `dds_core::error` gathers
//! [`prelude::EngineError`] (query-time: unindexed ranks, schema
//! dimension mismatches — returned, never panicked, by the `try_query*`
//! paths of both engines) and [`prelude::IngestError`]
//! (ingest-time: duplicate or malformed shard content) in one module.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dds_core as core;
pub use dds_geom as geom;
pub use dds_rangetree as rangetree;
pub use dds_server as server;
pub use dds_synopsis as synopsis;
pub use dds_workload as workload;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use dds_core::bitset::BitSet;
    pub use dds_core::cache::MaskCache;
    pub use dds_core::engine::MixedQueryEngine;
    pub use dds_core::error::{EngineError, IngestError};
    pub use dds_core::framework::{
        Dataset, Interval, LogicalExpr, MeasureFunction, Predicate, Repository,
    };
    pub use dds_core::pool::BuildOptions;
    pub use dds_core::pref::{PrefBuildParams, PrefIndex, PrefMultiIndex};
    pub use dds_core::ptile::{
        ExactCPtile1D, PtileBuildParams, PtileMultiIndex, PtileRangeIndex, PtileThresholdIndex,
    };
    pub use dds_core::scratch::QueryScratch;
    pub use dds_core::shard::{GlobalId, Routing, ShardLoad, ShardedEngine, ShardedStats};
    pub use dds_core::telemetry::{HistogramSnapshot, LatencyHistogram, QueryTrace, SlowQueryLog};
    pub use dds_geom::{Point, Rect};
    pub use dds_server::{
        ChaosProxy, ClientConfig, ClientError, DdsClient, DdsServer, FaultPlan, MetricsReport,
        RateLimit, RetryPolicy, ServerConfig, ServerStats,
    };
    pub use dds_synopsis::{PercentileSynopsis, PrefSynopsis};
    pub use dds_workload::{RepoShard, RepoSpec, RequestStreamSpec};
}
