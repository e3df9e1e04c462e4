//! Seeded workload generators for the distribution-aware dataset search
//! experiments.
//!
//! The paper's evaluation substrate (open-data-style repositories, Example
//! 1.1) is substituted by controllable synthetic workloads. Everything here
//! is deterministic given a seed, so tests, examples and benchmarks
//! reproduce exactly.
//!
//! * [`datasets`] — point-cloud generators (uniform, Gaussian clusters,
//!   Zipf-skewed, correlated, unit-ball) used as repository datasets.
//! * [`repository`] — whole-repository builders mixing dataset flavours with
//!   varying sizes.
//! * [`scenario`] — the economist scenario of Example 1.1: city crime
//!   incidents for percentile queries and neighborhood quality-of-life
//!   vectors for preference queries.
//! * [`queries`] — query-workload generators: rectangles with target
//!   selectivity, random unit vectors, thresholds from score quantiles.
//! * [`requests`] — served-request streams: popular mixed-expression
//!   shapes repeating across many requests, optionally salted with
//!   unindexed-rank errors (the traffic a `dds-server` instance sees).
//!   A stream describes *what* is asked, never the network it crosses:
//!   fault injection is `dds-server`'s `FaultPlan` behind its
//!   `ChaosProxy`.
//! * [`setint`] — uniform set-intersection instances for the lower-bound
//!   reduction (Section 3.1 / Appendix B.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod queries;
pub mod repository;
pub mod requests;
pub mod scenario;
pub mod setint;

pub use repository::{RepoFlavor, RepoShard, RepoSpec};
pub use requests::{RequestStreamSpec, SelectiveShape};
pub use scenario::CityScenario;
pub use setint::UniformSetInstance;
