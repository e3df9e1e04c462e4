//! Experiment harness for the paper reproduction.
//!
//! The paper is a theory paper — its "evaluation" is the set of theorems in
//! Sections 3–5 and Appendices C–D. Every experiment here regenerates one
//! theorem's claim (or one figure's construction) as a measurable table;
//! the `EXPERIMENTS` table of the `experiments` binary (printed by its
//! usage message) maps experiment ids to paper claims.
//!
//! Run with `cargo run --release -p dds-bench --bin experiments -- --all`
//! (or `--eN` / `--aN` selections, `--quick` for smaller sweeps). Served,
//! end-to-end numbers are the job of the repository's benchmark
//! (`BENCHMARK.json`, `benchmark/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;
pub mod timing;

pub use table::Table;
pub use timing::{median_duration, time};
