//! Distribution-aware dataset search — the data structures of
//! *"A Theoretical Framework for Distribution-Aware Dataset Search"*
//! (PODS 2025).
//!
//! Given a repository `P = {P_1, …, P_N}` of datasets in `R^d`, the crate
//! builds indexes answering *distribution-aware* queries:
//!
//! * **Ptile** — percentile predicates `|P_j ∩ R| / |P_j| ∈ θ` for a query
//!   rectangle `R` ([`ptile`]): threshold predicates (Theorem 4.4), general
//!   range predicates (Theorem 4.11), logical expressions over several
//!   predicates (Theorem C.8), an exact 1-d structure (Theorem C.5) and a
//!   dynamic variant (Remark 1).
//! * **Pref** — top-k preference predicates `ω_k(P_j, v) ≥ a_θ` for a query
//!   unit vector `v` ([`pref`]): single predicates (Theorem 5.4), logical
//!   expressions (Theorem D.4) and a dynamic variant.
//!
//! Both work *centralized* (exact synopses, δ = 0) and *federated* (any
//! synopsis with error δ — see `dds-synopsis`), with the paper's guarantee
//! shape: the returned set `J` contains every qualifying dataset, and every
//! reported dataset satisfies the predicate up to an additive `ε + 2δ`.
//!
//! Supporting modules: [`framework`] (measure functions / predicates /
//! logical expressions / repositories), [`baseline`] (the Ω(N) scans the
//! paper compares against), [`lowerbound`] (the Section 3 reductions,
//! executable), [`guarantee`] (recall / error-band checkers used by tests
//! and experiments), [`delay`] (enumeration-delay instrumentation,
//! Remark 3), [`pool`] (deterministic worker-pool builds *and* batch
//! queries — every index offers a `*_opts` constructor taking a
//! [`pool::BuildOptions`] whose thread count never changes results),
//! [`bitset`] (packed `u64` hit masks for the DNF query loops), [`scratch`]
//! (reusable per-query state behind the `&self` query paths and the
//! batch APIs), [`cache`] (the bounded, generation-tagged
//! cross-call predicate-mask cache), [`shard`] (the scatter/gather service
//! layer: one engine per repository shard, stable global dataset ids),
//! [`telemetry`] (lock-free log₂ latency histograms, stage-timing sets,
//! and the bounded slow-query trace log — recorded strictly outside the
//! answer path), [`error`] (the typed query/ingest error surface in one
//! place).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod bitset;
pub mod cache;
pub mod delay;
pub mod engine;

/// The crate's typed failure surface, unified: everything a query or an
/// ingest can reject with, re-exported from one place.
///
/// Queries fail with [`error::EngineError`] (an unindexed preference
/// rank, a wrong-dimension predicate); ingest fails with
/// [`error::IngestError`] (id collisions, schema mismatches, arity
/// bugs). Services and the facade prelude import both from here instead
/// of reaching into [`engine`] and [`shard`] separately.
pub mod error {
    pub use crate::engine::EngineError;
    pub use crate::shard::IngestError;
}
pub mod extensions;
pub mod framework;
pub mod guarantee;
pub mod lowerbound;
pub mod pool;
pub mod pref;
pub mod ptile;
pub mod scratch;
pub mod shard;
pub mod telemetry;
