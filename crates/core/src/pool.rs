//! Worker-pool build support.
//!
//! Every `*_opts` build path in this crate fans its per-dataset /
//! per-direction work units out over [`par_map`], a deterministic
//! work-stealing parallel map on scoped std threads (see `dds-pool` for the
//! mechanism). Three invariants make the thread count unobservable:
//!
//! 1. each work unit draws from its own `StdRng` seeded with
//!    [`mix_seed`]`(params.seed, unit_index)` — no shared sequential stream;
//! 2. chunk results are merged back in index order, so lifted-point arrays,
//!    owner tables and score tables come out in the serial order;
//! 3. the kd-tree constructions splice parallel subtrees in serial
//!    DFS-preorder position (`KdTree::build_par`).
//!
//! Consequently `build_opts(…, &BuildOptions::with_threads(t))` is
//! **bit-identical** to `build_opts(…, &BuildOptions::serial())` for every
//! `t` — pinned by `tests/parallel_equivalence.rs` — and
//! [`BuildOptions::default`] can safely use all available cores
//! (`DDS_THREADS` overrides).

pub use dds_pool::{mix_seed, par_map, par_map_with, BuildOptions};
