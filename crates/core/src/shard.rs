//! Sharded repository service: scatter/gather over per-shard engines.
//!
//! The ROADMAP north-star is a catalog holding millions of datasets; one
//! [`MixedQueryEngine`] per repository *shard* keeps build times and index
//! memory per-shard-sized while queries fan out over all of them. The
//! `&self` query paths make the fan-out trivial: every shard engine is
//! read-shared across the worker pool with no locks.
//!
//! [`ShardedEngine`] owns the shard engines plus a **shard map** — each
//! shard carries the **stable global dataset ids** of its members, so hits
//! translate from shard-local indexes to ids that survive adding and
//! rebuilding shards (a shard-local index is meaningless outside its
//! shard; a [`GlobalId`] names the same dataset forever).
//!
//! Gather is canonicalized: hits come back in **ascending global-id
//! order**, and per-dataset sampling RNGs are seeded by **global id**
//! (not shard-local position, via `PtileBuildParams::seed_ids`), so a
//! dataset draws the same sample wherever it lands. The answer is then
//! independent of the thread count unconditionally, and of the shard
//! count/assignment as well once the φ-split is anchored
//! (`PtileBuildParams::with_phi_datasets`, or any build where every
//! dataset's support is used exactly — ε_i = 0 — which needs no
//! anchoring). `tests/shard_equivalence.rs` pins both regimes against a
//! single unsharded engine; without φ anchoring, a sampled build's
//! per-dataset sample *size* depends on the local shard size, so answers
//! agree with the unsharded engine only up to each dataset's guarantee
//! band.
//!
//! Each shard keeps its own cross-call [`MaskCache`];
//! [`try_rebuild_shard_opts`](ShardedEngine::try_rebuild_shard_opts)
//! carries the cache over to the replacement engine and bumps its
//! generation, so a rebuild invalidates **only that shard's entries** while
//! every other shard keeps serving cached masks.
//!
//! # One spelling per operation
//!
//! Ingest and lifecycle operations are `try_*_opts`: a typed
//! [`IngestError`] and an explicit [`BuildOptions`]
//! (`&BuildOptions::default()` is all cores with the `DDS_THREADS`
//! override). Queries are [`try_query_with`](ShardedEngine::try_query_with)
//! (caller-provided [`QueryScratch`]) and
//! [`try_query_batch_opts`](ShardedEngine::try_query_batch_opts). The
//! thread count never changes an answer.
//!
//! # Shard lifecycle
//!
//! A production catalog lives under churn: hot shards divide, cold shards
//! coalesce. Each shard retains its ingested datasets, so the lifecycle
//! operations are self-contained —
//! [`try_split_shard_opts`](ShardedEngine::try_split_shard_opts) divides
//! one shard in two (the datasets whose ids are in the assignment move to
//! a new shard),
//! [`try_merge_shards_opts`](ShardedEngine::try_merge_shards_opts)
//! coalesces two into one. Which shard to split or merge is the
//! caller's call; [`shard_loads`](ShardedEngine::shard_loads) reports
//! each shard's size and query load to decide it by. Both transitions
//! follow the validate→build→commit discipline of ingest: a failing
//! transition leaves the service untouched, and because global ids are
//! stable and sampling is seeded by global id, **no transition can change
//! any answer** — pinned by the split ≡ rebuilt / merge ≡ rebuilt
//! proptests and the churn soak in `tests/shard_equivalence.rs`. Cache
//! generations travel with the transitions the same way rebuilds carry
//! them: the surviving side of a split and the surviving slot of a merge
//! inherit the old shard's [`MaskCache`] with its generation bumped, so
//! invalidation stays scoped to the shards that changed.
//!
//! # Shard routing
//!
//! Every shard's engine carries one ingest-time summary, its **routing
//! synopsis** — per attribute, equi-depth histogram bins over the build's
//! per-dataset weight samples with a per-bin *max-mass envelope* (the
//! largest fraction of any one member dataset's sample inside the bin;
//! built by the shard's Ptile index,
//! [`RoutingSynopsis`](crate::ptile::RoutingSynopsis)). Its first and last
//! bin edges per axis are the shard's sample bounding box; on an exact
//! build (every dataset's support is its sample) that is the bounding box
//! of the shard's raw points.
//!
//! **The mass-bound contract.** The range index reports dataset `j` for a
//! percentile predicate `(R, θ)` through its main structure only when
//! some canonical rectangle `ρ ⊆ R` has sample weight
//! `w(ρ) = |ρ ∩ S_j| / |S_j|` with `w(ρ) + (ε_j + δ_j) ≥ a_θ` (the
//! per-dataset budgets are pre-folded into the lifted weight
//! coordinates), and through the zero-mass empty-slab path only when
//! `a_θ ≤ ε_j + δ_j`. Both are impossible — for **every** member dataset
//! at once — whenever an upper bound `U ≥ max_j |R ∩ S_j| / |S_j|`
//! satisfies `U + margin < a_θ` (clamped to `a_θ ≥ 0`, with `margin =
//! max_j (ε_j + δ_j)`, [`MixedQueryEngine::ptile_margin`]): the main path
//! needs `w(ρ) ≥ a_θ − c_j > U ≥ w(ρ)`, a contradiction, and the aux
//! path needs `a_θ ≤ c_j ≤ margin < a_θ`, likewise. So the skip can
//! never route away a hit — soundness needs only that `U` really is an
//! upper bound, which the synopsis guarantees by construction: partial
//! bins are counted fully (an interval sums the envelope over every bin
//! it touches), axes combine by `min` (a rectangle is contained in each
//! of its axis slabs; a product would *under*-state correlated data),
//! and the envelope is computed over the same weight samples the lifted
//! weights are measured against.
//!
//! An expression's scatter onto a shard is skipped only when **every**
//! DNF clause contains a skip-proving percentile literal; each literal's
//! bound is computed once per shard, and the per-clause θ clamps once per
//! query. The skips are counted in two disjoint kinds.
//! [`shards_routed_past`](ShardedEngine::shards_routed_past) counts *box
//! skips*: every clause has a literal whose rectangle misses the sample
//! box on some axis (`U = 0`, so the rule reduces to `a_θ > margin`).
//! [`shards_routed_by_synopsis`](ShardedEngine::shards_routed_by_synopsis)
//! counts the other skips, which need the envelope's interior mass. On an
//! exact build the sample box is the raw-point box; on a sampled build it
//! can be smaller, so more of the same skips count as box skips.
//!
//! Routing is answer-preserving bit for bit — pinned routed ≡ unrouted by
//! `tests/shard_equivalence.rs` — and never engages for expressions that
//! would error (an unindexed preference rank must still be reported even
//! if every shard is otherwise skippable). A `NaN` sample coordinate
//! leaves its shard without a synopsis (scatter-everywhere, answers
//! unaffected). [`with_routing`](ShardedEngine::with_routing) switches
//! routing: [`Routing::Off`] disables it entirely (the correctness
//! reference), [`Routing::Full`] (the default) routes by the synopsis and
//! splits its skips between the two counters (the box-vs-synopsis ratio
//! the E18 experiment reports). The synopsis threads through the whole
//! lifecycle for free: add/rebuild/split/merge each rebuild the shard's
//! engine, and the engine's Ptile build carries its synopsis with it.

use crate::cache::MaskCache;
use crate::engine::{expr_dim_mismatch, DnfPlan, EngineError, MixedQueryEngine};
use crate::framework::{Dataset, LogicalExpr, MeasureFunction, Repository};
use crate::pool::{par_map_with, BuildOptions};
use crate::pref::PrefBuildParams;
use crate::ptile::PtileBuildParams;
use crate::scratch::QueryScratch;
use crate::telemetry::EngineTelemetry;
use dds_geom::Rect;
use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A stable dataset identifier: assigned at ingest, never reinterpreted
/// when shards are added or rebuilt (unlike a shard-local index).
pub type GlobalId = u64;

/// Why a shard ingest or lifecycle transition
/// ([`ShardedEngine::try_add_shard_opts`],
/// [`try_rebuild_shard_opts`](ShardedEngine::try_rebuild_shard_opts),
/// [`try_split_shard_opts`](ShardedEngine::try_split_shard_opts),
/// [`try_merge_shards_opts`](ShardedEngine::try_merge_shards_opts)) was
/// rejected. Every rejection leaves the service exactly as it was;
/// services (e.g. `dds-server`) serialize these via
/// [`Display`](fmt::Display).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// `global_ids.len() != repo.len()`.
    ArityMismatch {
        /// Datasets in the shard being ingested.
        datasets: usize,
        /// Global ids supplied for them.
        ids: usize,
    },
    /// The shard's schema dimension differs from the dimension already
    /// served by other shards (queries are service-wide, so every shard
    /// must share one schema).
    SchemaMismatch {
        /// Dimension served by the existing shards.
        expected: usize,
        /// Dimension of the rejected shard.
        got: usize,
    },
    /// A global id appears twice within the ingested shard.
    DuplicateId(GlobalId),
    /// A global id is already served by a *different* shard.
    IdInUse(GlobalId),
    /// The shard index passed to a rebuild does not exist.
    NoSuchShard {
        /// Requested shard index.
        shard: usize,
        /// Shards currently served.
        n_shards: usize,
    },
    /// Ingesting would grow the catalog past the declared
    /// `PtileBuildParams::with_phi_datasets` anchor, silently diluting the
    /// union-bound failure probability.
    PhiAnchorExceeded {
        /// The declared anchor.
        anchor: usize,
        /// Catalog size the ingest would reach.
        prospective: usize,
    },
    /// A split assignment names a global id the shard does not hold.
    IdNotInShard {
        /// The id the assignment asked to move.
        id: GlobalId,
        /// The shard being split.
        shard: usize,
    },
    /// A split assignment would leave one side empty: it moves none, or
    /// all, of the shard's datasets.
    EmptySplitSide {
        /// The shard being split.
        shard: usize,
        /// Datasets the assignment moves to the new shard.
        moving: usize,
        /// Datasets the shard holds.
        datasets: usize,
    },
    /// A merge named the same shard on both sides.
    MergeWithSelf {
        /// The shard named twice.
        shard: usize,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::ArityMismatch { datasets, ids } => write!(
                f,
                "need one global id per dataset in the shard: got {ids} ids for {datasets} datasets"
            ),
            IngestError::SchemaMismatch { expected, got } => write!(
                f,
                "shard schema dimension {got} differs from the served dimension {expected}"
            ),
            IngestError::DuplicateId(id) => {
                write!(f, "global id {id} repeats within the shard")
            }
            IngestError::IdInUse(id) => {
                write!(f, "global id {id} is already served by another shard")
            }
            IngestError::NoSuchShard { shard, n_shards } => {
                write!(f, "no such shard: {shard} (service has {n_shards})")
            }
            IngestError::PhiAnchorExceeded {
                anchor,
                prospective,
            } => write!(
                f,
                "phi_datasets anchor ({anchor}) must be an upper bound on the catalog \
                 ({prospective} datasets after this ingest)"
            ),
            IngestError::IdNotInShard { id, shard } => {
                write!(f, "global id {id} is not held by shard {shard}")
            }
            IngestError::EmptySplitSide {
                shard,
                moving,
                datasets,
            } => write!(
                f,
                "split of shard {shard} leaves a side empty \
                 (assignment moves {moving} of its {datasets} datasets)"
            ),
            IngestError::MergeWithSelf { shard } => {
                write!(f, "cannot merge shard {shard} with itself")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// A cheap point-in-time counter snapshot of a [`ShardedEngine`] — the
/// surface a serving layer (e.g. `dds-server`) polls per stats request
/// without touching any index structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Shards currently served.
    pub n_shards: u64,
    /// Datasets across all shards.
    pub n_datasets: u64,
    /// Underlying index queries summed across shard engines.
    pub index_queries: u64,
    /// Mask-cache hits summed across shards.
    pub cache_hits: u64,
    /// Mask-cache misses summed across shards.
    pub cache_misses: u64,
    /// (expression, shard) scatter units routed past as box skips: every
    /// clause's rectangle misses the shard's sample box on some axis.
    pub shards_routed_past: u64,
    /// The other routed scatter units, which only the synopsis's interior
    /// mass bound proves silent (disjoint from `shards_routed_past`).
    pub shards_routed_by_synopsis: u64,
    /// Lifecycle splits committed over the service lifetime.
    pub splits: u64,
    /// Lifecycle merges committed over the service lifetime.
    pub merges: u64,
}

/// One shard's size and query load, as reported by
/// [`ShardedEngine::shard_loads`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// The shard's index.
    pub shard: usize,
    /// Datasets the shard holds.
    pub datasets: usize,
    /// (expression, shard) scatter units this shard evaluated (skipped
    /// units don't count — routing removed their load). Carried across
    /// rebuilds; reset to zero by a split or merge, so a transitioned
    /// shard re-measures its load.
    pub queries: u64,
}

/// One repository shard: its engine plus the shard map back to global ids.
#[derive(Debug)]
struct Shard {
    engine: MixedQueryEngine,
    /// `global_ids[local]` is the stable id of the shard's `local`-th
    /// dataset — the gather-side translation table.
    global_ids: Vec<GlobalId>,
    /// The ingested datasets (`datasets[local]` carries id
    /// `global_ids[local]`), retained so lifecycle transitions
    /// (split/merge) can rebuild replacement engines without the caller
    /// re-supplying data.
    datasets: Vec<Dataset>,
    /// (expression, shard) scatter units this shard evaluated — the load
    /// signal `shard_loads` reports. Carried across rebuilds (the shard
    /// keeps its identity), reset by split/merge (a transitioned shard
    /// re-measures).
    queries: AtomicU64,
}

/// Whether the routing fast path runs (see the module docs). Routing
/// never changes answers — `Off` exists as the reference path of the
/// full ≡ unrouted equivalence tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Routing {
    /// No routing: every expression scatters to every shard.
    Off,
    /// Route by the synopsis mass bound, counting box skips apart.
    #[default]
    Full,
}

/// How the routing fast path disposed of one (expression, shard) unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Skip {
    /// Not provably silent — evaluate the shard.
    No,
    /// A box skip: every clause has a literal whose rectangle misses the
    /// synopsis's sample box (counted by
    /// [`ShardedEngine::shards_routed_past`]).
    Box,
    /// Any other skip, proven by the interior mass bound (counted by
    /// [`ShardedEngine::shards_routed_by_synopsis`]).
    Synopsis,
}

/// One expression's routable percentile literals, per DNF clause, for the
/// per-shard loop: each literal's clamped threshold lower bound `a_θ` and
/// its query rectangle, borrowed from the DNF plan.
type RoutingPlan<'a> = Vec<Vec<(f64, &'a Rect)>>;

/// One expression ready to scatter: its DNF plan (expanded, keyed and
/// snapped once, shared by the routing check and every shard's
/// evaluation) and the routing verdicts — `skip[s]` says how shard `s` was
/// proven silent, `None` scatters everywhere.
struct QueryPlan {
    dnf: DnfPlan,
    skip: Option<Vec<Skip>>,
}

/// A sharded mixed-query service: one [`MixedQueryEngine`] per repository
/// shard, scatter/gather query paths, stable [`GlobalId`] answers and
/// per-shard cross-call [`MaskCache`]s.
///
/// ```
/// use dds_core::framework::{Dataset, LogicalExpr, Predicate, Repository};
/// use dds_core::pool::BuildOptions;
/// use dds_core::pref::PrefBuildParams;
/// use dds_core::ptile::PtileBuildParams;
/// use dds_core::scratch::QueryScratch;
/// use dds_core::shard::ShardedEngine;
/// use dds_geom::Rect;
///
/// let mut svc = ShardedEngine::new(
///     &[1],
///     PtileBuildParams::exact_centralized(),
///     PrefBuildParams::exact_centralized(),
/// );
/// // Two ingest batches become two shards; ids are caller-assigned.
/// let opts = BuildOptions::default();
/// svc.try_add_shard_opts(
///     &Repository::new(vec![Dataset::from_rows("a", vec![vec![1.0], vec![2.0]])]),
///     &[10],
///     &opts,
/// )?;
/// svc.try_add_shard_opts(
///     &Repository::new(vec![Dataset::from_rows("b", vec![vec![1.5], vec![50.0]])]),
///     &[20],
///     &opts,
/// )?;
/// let expr = LogicalExpr::Pred(Predicate::percentile_at_least(
///     Rect::interval(0.0, 3.0),
///     0.9,
/// ));
/// // Both of dataset 10's points are in [0, 3]; only half of 20's.
/// assert_eq!(svc.try_query_with(&expr, &mut QueryScratch::new())?, vec![10]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Shard>,
    /// Every global id currently served, for uniqueness enforcement.
    ids_in_use: HashSet<GlobalId>,
    /// Build parameters shared by every shard engine, so answers cannot
    /// drift between shards built at different times.
    ks: Vec<usize>,
    ptile_params: PtileBuildParams,
    pref_params: PrefBuildParams,
    /// Per-shard mask-cache bound (entries, not bytes).
    cache_capacity: usize,
    /// The SipHash keys of every shard's [`MaskCache`]: a query digests
    /// each predicate's cache key once, and every shard looks it up.
    hasher: RandomState,
    /// Whether the routing fast path runs (see the module docs); set by
    /// [`with_routing`](Self::with_routing).
    routing: Routing,
    /// (expression, shard) scatter units routed past as box skips. Data-
    /// dependent, not timing-dependent, so the count is deterministic for
    /// a given workload.
    routed_past: AtomicU64,
    /// The other routed scatter units (disjoint from `routed_past`; total
    /// skipped is the sum).
    routed_by_synopsis: AtomicU64,
    /// Lifecycle splits committed (`&mut self` ops, so a plain counter).
    splits: u64,
    /// Lifecycle merges committed.
    merges: u64,
    /// Wall-clock timers for the scatter path (routing decisions,
    /// per-scatter-unit execution). Lock-free atomics recorded from
    /// `&self`, like the routing counters above — but timing-dependent,
    /// so strictly observational: nothing here may influence an answer.
    telemetry: EngineTelemetry,
}

impl ShardedEngine {
    /// An empty service; shards arrive via
    /// [`try_add_shard_opts`](Self::try_add_shard_opts).
    /// Every shard engine is built with these parameters and Pref ranks,
    /// and a default-capacity [`MaskCache`]. Any `seed_ids` on
    /// `ptile_params` are replaced per shard with the shard's global ids
    /// (stable-identity sampling); set
    /// `ptile_params.with_phi_datasets(catalog_size)` to anchor sampled
    /// builds to a declared catalog size (see the module docs).
    ///
    /// # Panics
    /// Panics if `ks` is empty.
    pub fn new(ks: &[usize], ptile_params: PtileBuildParams, pref_params: PrefBuildParams) -> Self {
        assert!(!ks.is_empty(), "need at least one preference rank");
        ShardedEngine {
            shards: Vec::new(),
            ids_in_use: HashSet::new(),
            ks: ks.to_vec(),
            ptile_params,
            pref_params,
            cache_capacity: crate::cache::DEFAULT_MASK_CACHE_CAPACITY,
            hasher: RandomState::new(),
            routing: Routing::default(),
            routed_past: AtomicU64::new(0),
            routed_by_synopsis: AtomicU64::new(0),
            splits: 0,
            merges: 0,
            telemetry: EngineTelemetry::new(),
        }
    }

    /// Sets the per-shard mask-cache capacity (builder-style; applies to
    /// shards added afterwards).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "mask cache needs capacity >= 1");
        self.cache_capacity = capacity;
        self
    }

    /// Switches the routing fast path (builder-style; default
    /// [`Routing::Full`]). Never changes answers.
    pub fn with_routing(mut self, routing: Routing) -> Self {
        self.routing = routing;
        self
    }

    /// Ingests one shard: builds its engine on the `opts` worker pool and
    /// records `global_ids[i]` as the stable id of `repo`'s `i`-th dataset.
    /// Returns the shard's index (for
    /// [`try_rebuild_shard_opts`](Self::try_rebuild_shard_opts)). A
    /// rejected ingest (`global_ids.len() != repo.len()`, an id already
    /// served by this engine, a schema mismatch, …) returns the typed
    /// [`IngestError`] and leaves the service untouched.
    pub fn try_add_shard_opts(
        &mut self,
        repo: &Repository,
        global_ids: &[GlobalId],
        opts: &BuildOptions,
    ) -> Result<usize, IngestError> {
        // Validate, then build (which can still panic on pathological
        // parameters), then commit — a failing ingest leaves the service
        // state untouched.
        self.validate_ids(repo, global_ids, None)?;
        let shard = self.build_shard(repo.clone(), global_ids.to_vec(), None, 0, opts);
        self.ids_in_use.extend(global_ids.iter().copied());
        self.shards.push(shard);
        Ok(self.shards.len() - 1)
    }

    /// Replaces shard `shard`'s contents (incremental ingest: a data
    /// refresh re-lands the shard). The replacement engine **inherits the
    /// shard's mask cache with its generation bumped**: the shard's stale
    /// masks are invalidated (and its hit/miss accounting continues),
    /// while every other shard's cache is untouched. A rejected rebuild
    /// (`shard` out of range, `global_ids.len() != repo.len()`, an id
    /// already served by a *different* shard — re-using the replaced
    /// shard's ids is the normal case) returns the typed [`IngestError`]
    /// and leaves the service — including the shard being replaced —
    /// untouched.
    pub fn try_rebuild_shard_opts(
        &mut self,
        shard: usize,
        repo: &Repository,
        global_ids: &[GlobalId],
        opts: &BuildOptions,
    ) -> Result<(), IngestError> {
        self.check_shard(shard)?;
        // Validate against every *other* shard, then build — until the
        // commit below the old shard keeps serving with intact uniqueness
        // bookkeeping.
        self.validate_ids(repo, global_ids, Some(shard))?;
        let old = &self.shards[shard];
        let replacement = self.build_shard(
            repo.clone(),
            global_ids.to_vec(),
            Some(Arc::clone(old.engine.mask_cache())),
            old.queries.load(Ordering::Relaxed),
            opts,
        );
        // Commit: swap ids, invalidate the carried-over cache, install.
        for id in &self.shards[shard].global_ids {
            self.ids_in_use.remove(id);
        }
        self.ids_in_use.extend(global_ids.iter().copied());
        self.shards[shard].engine.mask_cache().invalidate();
        self.shards[shard] = replacement;
        Ok(())
    }

    /// Divides shard `shard` in two: the datasets whose global ids are in
    /// `move_ids` (the *assignment*) move to a new shard whose index is
    /// returned; the rest stay where they are. Ids and per-dataset
    /// sampling seeds are untouched, so no answer changes — pinned by
    /// `tests/shard_equivalence.rs`. The staying side inherits the shard's
    /// [`MaskCache`] with its generation bumped; the new shard starts with
    /// a fresh cache; every other shard's cache is untouched. A rejected
    /// split (`shard` out of range, an id not held by the shard, an
    /// assignment leaving a side empty) returns the typed [`IngestError`]
    /// and leaves the service — including the shard it named — untouched.
    pub fn try_split_shard_opts(
        &mut self,
        shard: usize,
        move_ids: &[GlobalId],
        opts: &BuildOptions,
    ) -> Result<usize, IngestError> {
        self.check_shard(shard)?;
        // Validate the assignment: distinct ids, every one held by the
        // split shard, neither side empty.
        let src = &self.shards[shard];
        let held: HashSet<GlobalId> = src.global_ids.iter().copied().collect();
        let mut moving = HashSet::with_capacity(move_ids.len());
        for &id in move_ids {
            if !moving.insert(id) {
                return Err(IngestError::DuplicateId(id));
            }
            if !held.contains(&id) {
                return Err(IngestError::IdNotInShard { id, shard });
            }
        }
        if move_ids.is_empty() || move_ids.len() == src.global_ids.len() {
            return Err(IngestError::EmptySplitSide {
                shard,
                moving: move_ids.len(),
                datasets: src.global_ids.len(),
            });
        }
        // Partition in shard-local order — the staying/moving orders (and
        // with them every observable detail of the two sides) depend only
        // on the assignment as a *set*, not on `move_ids`' order.
        let mut stay_sets = Vec::with_capacity(src.global_ids.len() - move_ids.len());
        let mut stay_ids = Vec::with_capacity(stay_sets.capacity());
        let mut move_sets = Vec::with_capacity(move_ids.len());
        let mut moved_ids = Vec::with_capacity(move_ids.len());
        for (ds, &id) in src.datasets.iter().zip(&src.global_ids) {
            if moving.contains(&id) {
                move_sets.push(ds.clone());
                moved_ids.push(id);
            } else {
                stay_sets.push(ds.clone());
                stay_ids.push(id);
            }
        }
        // Build both replacement shards before touching any state (a
        // build panic leaves the old shard serving).
        let staying = self.build_shard(
            Repository::new(stay_sets),
            stay_ids,
            Some(Arc::clone(src.engine.mask_cache())),
            0,
            opts,
        );
        let moved = self.build_shard(Repository::new(move_sets), moved_ids, None, 0, opts);
        // Commit. The id set is unchanged, so `ids_in_use` needs no edit;
        // the carried-over cache is invalidated (generation bump) while
        // every other shard's cache — the fresh one included — is not.
        self.shards[shard].engine.mask_cache().invalidate();
        self.shards[shard] = staying;
        self.shards.push(moved);
        self.splits += 1;
        Ok(self.shards.len() - 1)
    }

    /// Coalesces shards `a` and `b` into one, returning the surviving
    /// index `min(a, b)` (shards past `max(a, b)` shift down by one; the
    /// merged shard holds the lower-indexed shard's datasets followed by
    /// the higher-indexed one's). No id changes, so no answer changes —
    /// pinned by `tests/shard_equivalence.rs`. The surviving slot inherits
    /// the lower-indexed shard's [`MaskCache`] with its generation bumped;
    /// the absorbed shard's cache is dropped. A rejected merge (`a` or `b`
    /// out of range, `a == b`) returns the typed [`IngestError`] and
    /// leaves the service untouched.
    pub fn try_merge_shards_opts(
        &mut self,
        a: usize,
        b: usize,
        opts: &BuildOptions,
    ) -> Result<usize, IngestError> {
        self.check_shard(a)?;
        self.check_shard(b)?;
        if a == b {
            return Err(IngestError::MergeWithSelf { shard: a });
        }
        let (lo, hi) = (a.min(b), a.max(b));
        // The merged contents are lo's datasets then hi's, regardless of
        // argument order — observable state depends on the pair, not on
        // which side was named first.
        let mut datasets = self.shards[lo].datasets.clone();
        datasets.extend(self.shards[hi].datasets.iter().cloned());
        let mut global_ids = self.shards[lo].global_ids.clone();
        global_ids.extend_from_slice(&self.shards[hi].global_ids);
        let cache = Arc::clone(self.shards[lo].engine.mask_cache());
        let merged = self.build_shard(Repository::new(datasets), global_ids, Some(cache), 0, opts);
        // Commit: same id set, so `ids_in_use` is untouched; only the
        // surviving slot's (carried) cache generation is bumped.
        self.shards[lo].engine.mask_cache().invalidate();
        self.shards[lo] = merged;
        self.shards.remove(hi);
        self.merges += 1;
        Ok(lo)
    }

    /// Per-shard size and query-load counters: the signal a caller
    /// reads to decide which shards to split or merge.
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardLoad {
                shard,
                datasets: s.global_ids.len(),
                queries: s.queries.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Number of shards currently served.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total datasets across all shards.
    pub fn n_datasets(&self) -> usize {
        self.shards.iter().map(|s| s.engine.n_datasets()).sum()
    }

    /// The schema dimension served, or `None` while no shard is loaded.
    pub fn dim(&self) -> Option<usize> {
        self.shards.first().map(|s| s.engine.dim())
    }

    /// Checks every expression's predicate dimensionalities against the
    /// served schema, reporting the first mismatch as a typed
    /// [`EngineError::DimensionMismatch`]. A no-op while no shard is
    /// loaded (an empty service has no schema to violate). The serving
    /// tier (`dds-server`) runs this up front so a whole request —
    /// batches included — is rejected all-or-nothing before any scatter.
    pub fn schema_check(&self, exprs: &[LogicalExpr]) -> Result<(), EngineError> {
        let Some(dim) = self.dim() else {
            return Ok(());
        };
        for expr in exprs {
            if let Some((expected, got)) = expr_dim_mismatch(expr, dim) {
                return Err(EngineError::DimensionMismatch { expected, got });
            }
        }
        Ok(())
    }

    /// The stable ids of shard `shard`'s datasets, in shard-local order.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn global_ids(&self, shard: usize) -> &[GlobalId] {
        &self.shards[shard].global_ids
    }

    /// Read access to shard `shard`'s engine (per-shard instrumentation:
    /// its `index_queries`, its [`MaskCache`] bounds and counters). Hits
    /// returned by the shard engine directly are shard-local — translate
    /// them through [`global_ids`](Self::global_ids) before mixing with
    /// service-level answers.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn shard_engine(&self, shard: usize) -> &MixedQueryEngine {
        &self.shards[shard].engine
    }

    /// Underlying index queries summed across every shard engine — each is
    /// an `AtomicU64`, so the aggregate survives concurrent scatter
    /// workers (and advances by the number of distinct *uncached*
    /// predicates per shard).
    pub fn index_queries(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.index_queries()).sum()
    }

    /// Mask-cache `(hits, misses)` summed across every shard's
    /// [`MaskCache`] — lifetime totals, surviving shard rebuilds (a
    /// rebuilt shard keeps its cache object).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), s| {
            let c = s.engine.mask_cache();
            (h + c.hits(), m + c.misses())
        })
    }

    /// (expression, shard) scatter units routed past as box skips over the
    /// service lifetime: every DNF clause has a percentile literal whose
    /// rectangle misses the shard's sample box on some axis while `a_θ`
    /// exceeds the shard's [`ptile_margin`](MixedQueryEngine::ptile_margin)
    /// (see the module docs).
    pub fn shards_routed_past(&self) -> u64 {
        self.routed_past.load(Ordering::Relaxed)
    }

    /// Scatter units routed past that are not box skips: the synopsis's
    /// interior mass bound proved them silent (disjoint from
    /// [`shards_routed_past`](Self::shards_routed_past); total skipped is
    /// the sum).
    pub fn shards_routed_by_synopsis(&self) -> u64 {
        self.routed_by_synopsis.load(Ordering::Relaxed)
    }

    /// The engine's scatter-path latency histograms (routing decisions,
    /// per-scatter-unit execution). Observational only — see
    /// [`EngineTelemetry`].
    pub fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    /// A cheap counter snapshot (no index structure is touched) — the
    /// per-request stats surface of a serving layer.
    pub fn stats_snapshot(&self) -> ShardedStats {
        let (cache_hits, cache_misses) = self.cache_stats();
        ShardedStats {
            n_shards: self.n_shards() as u64,
            n_datasets: self.n_datasets() as u64,
            index_queries: self.index_queries(),
            cache_hits,
            cache_misses,
            shards_routed_past: self.shards_routed_past(),
            shards_routed_by_synopsis: self.shards_routed_by_synopsis(),
            splits: self.splits,
            merges: self.merges,
        }
    }

    /// The loosest Ptile guarantee band across shards (each shard states
    /// its own achieved band; a service-level statement must take the max).
    pub fn ptile_slack(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| s.engine.ptile_slack())
            .fold(0.0, f64::max)
    }

    /// Answers one expression with caller-provided scratch (reused across
    /// the sequential per-shard scatter): schema-checks it against the
    /// served dimension (typed [`EngineError::DimensionMismatch`] instead
    /// of a panic deep inside a shard's indexes), scatters it over every
    /// shard (through each shard's cross-call mask cache) and gathers the
    /// hits as **ascending stable global ids**. A shard error (every shard
    /// is built with the same ranks, so shards fail alike) is reported
    /// once.
    pub fn try_query_with(
        &self,
        expr: &LogicalExpr,
        scratch: &mut QueryScratch,
    ) -> Result<Vec<GlobalId>, EngineError> {
        let plan = self.plan(expr)?;
        let mut out = Vec::new();
        for s in 0..self.shards.len() {
            if !self.routed_away(&plan, s) {
                self.scatter_unit(&plan, s, scratch, &mut out)?;
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Answers a slice of expressions: every `(expression, shard)` pair is
    /// one scatter unit, gathered back **input-ordered** — `result[i]`
    /// answers `exprs[i]`, as ascending global ids, bit-identical to
    /// [`try_query_with`](Self::try_query_with) on each expression at
    /// every shard count × thread count (pinned by
    /// `tests/shard_equivalence.rs`). Each expression is schema-checked
    /// independently, so a wrong-dimension expression yields
    /// `Err(DimensionMismatch)` *in its slot* while the rest of the batch
    /// is still scattered and answered.
    ///
    /// Only index work fans out. One pass on the calling thread settles
    /// every unit that needs none: units the routing plan proves silent
    /// (a counter bump) and units whose every predicate mask is resident
    /// in the shard's cache (one counted lookup, then the bitset algebra).
    /// The remaining units — the ones that must walk an index — run on the
    /// `opts` worker pool via `dds_pool::par_map_with` (per-worker scratch;
    /// a single remaining unit runs inline). `threads` counts the calling
    /// thread: caller plus `threads − 1` helpers, so the caller walks
    /// indexes too rather than waiting on the helpers. Cache counters come
    /// out as a sequential run's: a resident unit counts the hits its
    /// lookups would have, and a declined one counts nothing before it fans
    /// out.
    pub fn try_query_batch_opts(
        &self,
        exprs: &[LogicalExpr],
        opts: &BuildOptions,
    ) -> Vec<Result<Vec<GlobalId>, EngineError>> {
        if self.shards.is_empty() {
            return exprs.iter().map(|_| Ok(Vec::new())).collect();
        }
        // Planned once per expression, shared read-only by every
        // (expression, shard) scatter unit — the workers never re-expand.
        let plans: Vec<Result<QueryPlan, EngineError>> =
            exprs.iter().map(|e| self.plan(e)).collect();
        let mut results: Vec<Result<Vec<GlobalId>, EngineError>> = plans
            .iter()
            .map(|p| p.as_ref().map(|_| Vec::new()).map_err(EngineError::clone))
            .collect();
        let mut scratch = QueryScratch::new();
        let mut index_work: Vec<(usize, usize)> = Vec::new();
        for (e, (plan, result)) in plans.iter().zip(&mut results).enumerate() {
            let (Ok(plan), Ok(out)) = (plan, result) else {
                continue;
            };
            for s in 0..self.shards.len() {
                if !self.routed_away(plan, s) && !self.resident_unit(plan, s, &mut scratch, out) {
                    index_work.push((e, s));
                }
            }
        }
        // Scatter the index walks; flattening both dimensions keeps the
        // pool busy even when the batch is smaller than the worker count.
        let partials = par_map_with(
            opts,
            &index_work,
            QueryScratch::new,
            |scratch, _, &(e, s)| {
                let plan = plans[e].as_ref().expect("only planned expressions scatter");
                let mut ids = Vec::new();
                self.scatter_unit(plan, s, scratch, &mut ids).map(|()| ids)
            },
        );
        // Gather: every shard of an expression fails alike (same ranks,
        // same plan), so any unit's error is the expression's answer.
        for (&(e, _), partial) in index_work.iter().zip(partials) {
            if let Ok(acc) = &mut results[e] {
                match partial {
                    Ok(mut ids) => acc.append(&mut ids),
                    Err(err) => results[e] = Err(err),
                }
            }
        }
        for ids in results.iter_mut().flatten() {
            ids.sort_unstable();
        }
        results
    }

    /// The per-expression front half of both query paths: the schema
    /// verdict (taken before DNF expansion or routing — a mismatched
    /// expression must neither expand nor touch shard synopses built for a
    /// different dimension), one DNF plan — cache keys digested under
    /// the shards' shared hasher, top-k directions snapped on the shards'
    /// shared ε-net — and the routing verdicts under the routing timer.
    fn plan(&self, expr: &LogicalExpr) -> Result<QueryPlan, EngineError> {
        self.schema_check(std::slice::from_ref(expr))?;
        let net = self.shards.first().map(|s| s.engine.pref_net());
        let dnf = DnfPlan::new(expr.to_dnf(), &self.hasher, net);
        let routing_started = std::time::Instant::now();
        let skip = self.routing_skip(expr, &dnf);
        self.telemetry
            .routing
            .record_duration(routing_started.elapsed());
        Ok(QueryPlan { dnf, skip })
    }

    /// Whether the plan's routing verdicts prove shard `s` silent; a
    /// skipped unit only bumps its tier's counter.
    fn routed_away(&self, plan: &QueryPlan, s: usize) -> bool {
        match plan.skip.as_ref().map_or(Skip::No, |sk| sk[s]) {
            Skip::Box => self.routed_past.fetch_add(1, Ordering::Relaxed),
            Skip::Synopsis => self.routed_by_synopsis.fetch_add(1, Ordering::Relaxed),
            Skip::No => return false,
        };
        true
    }

    /// One `(expression, shard)` scatter unit the routing plan did not
    /// skip: the shard records the load, evaluates the plan through its
    /// mask cache under the scatter timer, and its hits are appended to
    /// `out` as global ids (shard-local order).
    fn scatter_unit(
        &self,
        plan: &QueryPlan,
        s: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<GlobalId>,
    ) -> Result<(), EngineError> {
        let shard = &self.shards[s];
        shard.queries.fetch_add(1, Ordering::Relaxed);
        let unit_started = std::time::Instant::now();
        let answered = shard
            .engine
            .query_cached_plan(&plan.dnf, scratch, |j| out.push(shard.global_ids[j]));
        self.telemetry
            .scatter
            .record_duration(unit_started.elapsed());
        answered
    }

    /// [`scatter_unit`](Self::scatter_unit) for a unit whose every mask is
    /// resident in the shard's cache; `false` (nothing recorded, counted
    /// or appended) when some mask is not.
    fn resident_unit(
        &self,
        plan: &QueryPlan,
        s: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<GlobalId>,
    ) -> bool {
        let shard = &self.shards[s];
        let unit_started = std::time::Instant::now();
        let resident = shard
            .engine
            .query_resident_plan(&plan.dnf, scratch, |j| out.push(shard.global_ids[j]));
        if resident {
            shard.queries.fetch_add(1, Ordering::Relaxed);
            self.telemetry
                .scatter
                .record_duration(unit_started.elapsed());
        }
        resident
    }

    /// The routing verdicts for one expression (whose caller-made DNF plan
    /// is passed in, so the expansion is paid once per query): `skip[s]`
    /// says how shard `s` was proven silent, if it was. `None` means
    /// "scatter everywhere" (routing disabled, nothing skippable, or the
    /// expression may error — error answers must come from the shards,
    /// not be routed away).
    fn routing_skip(&self, expr: &LogicalExpr, dnf: &DnfPlan) -> Option<Vec<Skip>> {
        if self.routing == Routing::Off || self.shards.is_empty() || !self.ranks_indexed(expr) {
            return None;
        }
        let plan = self.routing_plan(dnf)?;
        let skip: Vec<Skip> = self
            .shards
            .iter()
            .map(|s| Self::shard_skip(&plan, s))
            .collect();
        skip.iter().any(|&v| v != Skip::No).then_some(skip)
    }

    /// Pre-clamps one expression's DNF into per-clause routable literals,
    /// hoisting the θ clamp out of the per-shard loop. `None` means some
    /// clause has no routable percentile literal of the served dimension —
    /// that clause can never be proven silent, so no shard is skippable
    /// and the per-shard work would be wasted. (The plan holds no empty clause: one contributes nothing by
    /// the DNF evaluation contract, so it never blocks a skip.)
    fn routing_plan<'a>(&self, dnf: &'a DnfPlan) -> Option<RoutingPlan<'a>> {
        let dim = self.dim()?;
        let mut clauses = Vec::new();
        for clause in dnf.clauses() {
            let mut lits = Vec::new();
            for p in clause {
                if let MeasureFunction::Percentile(r) = &p.measure {
                    // A dimension mismatch panics in the engine; never
                    // route it away.
                    if r.dim() == dim {
                        lits.push((p.theta.clamp_to_unit().lo, r));
                    }
                }
            }
            if lits.is_empty() {
                return None;
            }
            clauses.push(lits);
        }
        Some(clauses)
    }

    /// The verdict for one shard against a pre-clamped plan, read from the
    /// shard's routing synopsis alone: each literal's mass bound `U` is
    /// computed once. A clause is *silent* when some literal has
    /// `U + margin < a_θ`, and *box-silent* when some literal has `U = 0`
    /// (its rectangle misses the synopsis's sample box on some axis) and
    /// `a_θ > margin`; box-silent implies silent. The shard is a
    /// [`Skip::Box`] when every clause is box-silent, a
    /// [`Skip::Synopsis`] when every clause is silent but some clause is
    /// not box-silent. See the module docs for the soundness argument.
    fn shard_skip(plan: &RoutingPlan<'_>, shard: &Shard) -> Skip {
        let Some(syn) = shard.engine.routing_synopsis() else {
            // A NaN sample coordinate: interval reasoning is unsound.
            return Skip::No;
        };
        let margin = shard.engine.ptile_margin();
        let mut every_box = true;
        for lits in plan {
            let (mut silent, mut box_silent) = (false, false);
            for &(lo, rect) in lits {
                let u = syn.mass_bound(rect);
                silent |= u + margin < lo;
                if u == 0.0 && lo > margin {
                    box_silent = true;
                    break;
                }
            }
            if !silent {
                return Skip::No;
            }
            every_box &= box_silent;
        }
        if every_box {
            Skip::Box
        } else {
            Skip::Synopsis
        }
    }

    /// True iff every preference rank the expression uses is indexed —
    /// i.e. no shard can answer it with `MissingRank` (shards share `ks`,
    /// so they fail alike).
    fn ranks_indexed(&self, expr: &LogicalExpr) -> bool {
        match expr {
            LogicalExpr::Pred(p) => match &p.measure {
                MeasureFunction::TopK { k, .. } => self.ks.contains(k),
                MeasureFunction::Percentile(_) => true,
            },
            LogicalExpr::And(xs) | LogicalExpr::Or(xs) => xs.iter().all(|x| self.ranks_indexed(x)),
        }
    }

    /// Validates a shard's ids without touching any state: one per
    /// dataset, distinct, and none served by another shard (ids in
    /// `exempt` — the shard being replaced — don't count). Also checks the
    /// schema dimension against the served shards and a declared φ anchor
    /// against the prospective catalog size, so the union-bound failure
    /// probability can never be silently diluted by ingesting past the
    /// anchor. An error here leaves the service exactly as it was.
    fn validate_ids(
        &self,
        repo: &Repository,
        global_ids: &[GlobalId],
        exempt: Option<usize>,
    ) -> Result<(), IngestError> {
        if global_ids.len() != repo.len() {
            return Err(IngestError::ArityMismatch {
                datasets: repo.len(),
                ids: global_ids.len(),
            });
        }
        if let Some(expected) = self
            .shards
            .iter()
            .enumerate()
            .find(|(s, _)| Some(*s) != exempt)
            .map(|(_, s)| s.engine.dim())
        {
            if repo.dim() != expected {
                return Err(IngestError::SchemaMismatch {
                    expected,
                    got: repo.dim(),
                });
            }
        }
        if let Some(d) = self.ptile_params.phi_datasets {
            let replaced = exempt.map_or(0, |s| self.shards[s].engine.n_datasets());
            let prospective = self.n_datasets() - replaced + repo.len();
            if prospective > d {
                return Err(IngestError::PhiAnchorExceeded {
                    anchor: d,
                    prospective,
                });
            }
        }
        // Hashed exempt set: the normal rebuild reuses every replaced id,
        // so a linear scan per id would make validation quadratic in the
        // shard size.
        let exempt: HashSet<GlobalId> = exempt
            .map(|s| self.shards[s].global_ids.iter().copied().collect())
            .unwrap_or_default();
        let mut fresh = HashSet::with_capacity(global_ids.len());
        for &id in global_ids {
            if !fresh.insert(id) {
                return Err(IngestError::DuplicateId(id));
            }
            if self.ids_in_use.contains(&id) && !exempt.contains(&id) {
                return Err(IngestError::IdInUse(id));
            }
        }
        Ok(())
    }

    /// `Err(NoSuchShard)` unless `shard` names a served shard.
    fn check_shard(&self, shard: usize) -> Result<(), IngestError> {
        let n_shards = self.shards.len();
        if shard >= n_shards {
            return Err(IngestError::NoSuchShard { shard, n_shards });
        }
        Ok(())
    }

    /// The one place a [`Shard`] is made. Builds its engine with the
    /// service-wide parameters, seeding every dataset's sampling RNG by its
    /// **global id** (not its shard-local position): a dataset draws the
    /// same sample wherever it lands, so re-sharding cannot perturb sampled
    /// builds. `carried_cache` is the [`MaskCache`] of the shard this one
    /// replaces (the caller bumps its generation at commit), `None` a
    /// fresh one; `queries` the load counter to start from. `repo`'s
    /// datasets are retained for later lifecycle transitions.
    fn build_shard(
        &self,
        repo: Repository,
        global_ids: Vec<GlobalId>,
        carried_cache: Option<Arc<MaskCache>>,
        queries: u64,
        opts: &BuildOptions,
    ) -> Shard {
        let cache = carried_cache.unwrap_or_else(|| {
            Arc::new(MaskCache::with_hasher(
                self.cache_capacity,
                self.hasher.clone(),
            ))
        });
        let engine = MixedQueryEngine::build_opts(
            &repo,
            &self.ks,
            self.ptile_params.clone().with_seed_ids(global_ids.clone()),
            self.pref_params.clone(),
            opts,
        )
        .with_mask_cache(cache);
        // A query snaps its top-k directions once, on shard 0's ε-net, for
        // every shard: all shards of one schema must build the same net.
        if let Some(first) = self.shards.first().filter(|s| s.engine.dim() == repo.dim()) {
            let (net, theirs) = (engine.pref_net(), first.engine.pref_net());
            assert!(
                (theirs.dim(), theirs.eps(), theirs.len()) == (net.dim(), net.eps(), net.len()),
                "shards must share one ε-net"
            );
        }
        Shard {
            engine,
            global_ids,
            datasets: repo.into_datasets(),
            queries: AtomicU64::new(queries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Dataset, Predicate};
    use dds_geom::Rect;

    fn dataset(name: &str, xs: &[f64]) -> Dataset {
        Dataset::from_rows(name, xs.iter().map(|&x| vec![x]).collect())
    }

    /// Ingests `datasets` as one shard on the default pool; the tests below
    /// only add valid shards through it.
    fn add(svc: &mut ShardedEngine, datasets: Vec<Dataset>, ids: &[GlobalId]) -> usize {
        svc.try_add_shard_opts(&Repository::new(datasets), ids, &BuildOptions::default())
            .expect("valid ingest")
    }

    fn query(svc: &ShardedEngine, expr: &LogicalExpr) -> Result<Vec<GlobalId>, EngineError> {
        svc.try_query_with(expr, &mut QueryScratch::new())
    }

    fn query_batch(
        svc: &ShardedEngine,
        exprs: &[LogicalExpr],
    ) -> Vec<Result<Vec<GlobalId>, EngineError>> {
        svc.try_query_batch_opts(exprs, &BuildOptions::default())
    }

    fn service() -> ShardedEngine {
        let mut svc = ShardedEngine::new(
            &[1],
            PtileBuildParams::exact_centralized(),
            PrefBuildParams::exact_centralized(),
        );
        // Global ids deliberately out of shard-local order and
        // non-contiguous: the shard map must do real translation.
        add(
            &mut svc,
            vec![
                dataset("low", &[1.0, 2.0, 3.0]),
                dataset("high", &[90.0, 95.0]),
            ],
            &[7, 3],
        );
        add(&mut svc, vec![dataset("mid", &[48.0, 52.0])], &[5]);
        svc
    }

    fn low_expr() -> LogicalExpr {
        LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(0.0, 10.0),
            0.9,
        ))
    }

    /// A percentile predicate overlapping both test shards' value boxes
    /// (shard 0 spans [1, 95], shard 1 [48, 52]), for the cache-counter
    /// tests that must scatter everywhere.
    fn wide_expr() -> LogicalExpr {
        LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(0.0, 60.0),
            0.9,
        ))
    }

    /// A query snaps each top-k direction once, on shard 0's ε-net, and
    /// hands that net index to every shard — sound only because every
    /// shard built the very same net.
    #[test]
    fn all_shards_share_one_eps_net() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let dataset_2d = |i: usize| {
            let rows = (0..4)
                .map(|j| vec![(i * 5 + j) as f64, (i * 3 + 2 * j) as f64 % 7.0])
                .collect();
            Dataset::from_rows(format!("d{i}"), rows)
        };
        let mut svc = ShardedEngine::new(
            &[1, 2],
            PtileBuildParams::exact_centralized(),
            PrefBuildParams::exact_centralized(),
        );
        for s in 0..3u64 {
            add(
                &mut svc,
                (0..2).map(|j| dataset_2d((2 * s + j) as usize)).collect(),
                &[2 * s, 2 * s + 1],
            );
        }
        let net = svc.shards[0].engine.pref_net();
        let mut rng = StdRng::seed_from_u64(0xE95);
        let probes: Vec<Vec<f64>> = (0..1000)
            .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
            .collect();
        for shard in &svc.shards[1..] {
            let theirs = shard.engine.pref_net();
            assert_eq!((theirs.dim(), theirs.eps()), (net.dim(), net.eps()));
            for v in &probes {
                assert_eq!(theirs.nearest(v).0, net.nearest(v).0, "direction {v:?}");
            }
        }
    }

    #[test]
    fn hits_come_back_as_sorted_global_ids() {
        let svc = service();
        assert_eq!(svc.n_shards(), 2);
        assert_eq!(svc.n_datasets(), 3);
        assert_eq!(svc.dim(), Some(1));
        assert_eq!(query(&svc, &low_expr()), Ok(vec![7]));
        // A predicate matching all three datasets gathers across shards in
        // ascending id order, not ingest order.
        let all = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(0.0, 100.0),
            0.9,
        ));
        assert_eq!(query(&svc, &all), Ok(vec![3, 5, 7]));
    }

    #[test]
    fn batch_is_input_ordered_and_matches_single_queries() {
        let svc = service();
        let exprs = vec![
            low_expr(),
            LogicalExpr::Pred(Predicate::percentile_at_least(
                Rect::interval(40.0, 60.0),
                0.9,
            )),
        ];
        let singles: Vec<_> = exprs.iter().map(|e| query(&svc, e)).collect();
        assert_eq!(singles, vec![Ok(vec![7]), Ok(vec![5])]);
        for threads in [1, 2, 8] {
            assert_eq!(
                svc.try_query_batch_opts(&exprs, &BuildOptions::with_threads(threads)),
                singles,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn missing_rank_errors_gather_once() {
        let svc = service();
        let bad = LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], 9, 0.0));
        assert_eq!(query(&svc, &bad), Err(EngineError::MissingRank(9)));
        let batch = query_batch(&svc, &[low_expr(), bad]);
        assert_eq!(batch[0], Ok(vec![7]));
        assert_eq!(batch[1], Err(EngineError::MissingRank(9)));
    }

    #[test]
    fn empty_service_answers_empty() {
        let svc = ShardedEngine::new(
            &[1],
            PtileBuildParams::exact_centralized(),
            PrefBuildParams::exact_centralized(),
        );
        assert_eq!(svc.dim(), None);
        assert_eq!(query(&svc, &low_expr()), Ok(vec![]));
        assert_eq!(query_batch(&svc, &[low_expr()]), vec![Ok(vec![])]);
        // No shards → no schema to violate: a 3-d expression passes.
        let wide = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::from_bounds(&[0.0; 3], &[1.0; 3]),
            0.5,
        ));
        assert_eq!(svc.schema_check(std::slice::from_ref(&wide)), Ok(()));
    }

    #[test]
    fn dimension_mismatch_is_typed_on_every_query_path() {
        let svc = service();
        let bad = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::from_bounds(&[0.0, 0.0], &[1.0, 1.0]),
            0.5,
        ));
        let want = EngineError::DimensionMismatch {
            expected: 1,
            got: 2,
        };
        assert_eq!(
            svc.schema_check(std::slice::from_ref(&bad)),
            Err(want.clone())
        );
        assert_eq!(query(&svc, &bad), Err(want.clone()));
        // Batch: the bad slot errs, the good slots still answer — at
        // every thread count.
        for threads in [1, 2, 8] {
            let batch = svc.try_query_batch_opts(
                &[low_expr(), bad.clone(), wide_expr()],
                &BuildOptions::with_threads(threads),
            );
            assert_eq!(batch[0], Ok(vec![7]), "threads = {threads}");
            assert_eq!(batch[1], Err(want.clone()), "threads = {threads}");
            assert_eq!(batch[2], Ok(vec![5, 7]), "threads = {threads}");
        }
        // The service keeps serving afterwards.
        assert_eq!(query(&svc, &low_expr()), Ok(vec![7]));
    }

    #[test]
    fn duplicate_global_ids_are_rejected() {
        let mut svc = service();
        let err = svc
            .try_add_shard_opts(
                &Repository::new(vec![dataset("dup", &[1.0, 2.0])]),
                &[5],
                &BuildOptions::default(),
            )
            .expect_err("id 5 is taken");
        // `dds-server` sends this text over the wire.
        assert!(err.to_string().contains("already served"), "{err}");
    }

    #[test]
    fn try_ingest_reports_typed_errors_and_leaves_state_intact() {
        let opts = BuildOptions::default();
        let mut svc = service();
        let repo = Repository::new(vec![dataset("dup", &[1.0, 2.0])]);
        assert_eq!(
            svc.try_add_shard_opts(&repo, &[5], &opts),
            Err(IngestError::IdInUse(5))
        );
        assert_eq!(
            svc.try_add_shard_opts(&repo, &[9, 9], &opts),
            Err(IngestError::ArityMismatch {
                datasets: 1,
                ids: 2
            })
        );
        assert_eq!(svc.try_add_shard_opts(&repo, &[9], &opts), Ok(2));
        assert_eq!(
            svc.try_rebuild_shard_opts(9, &repo, &[9], &opts),
            Err(IngestError::NoSuchShard {
                shard: 9,
                n_shards: 3
            })
        );
        let two_d = Repository::new(vec![Dataset::from_rows("flat", vec![vec![1.0, 2.0]])]);
        assert_eq!(
            svc.try_add_shard_opts(&two_d, &[40], &opts),
            Err(IngestError::SchemaMismatch {
                expected: 1,
                got: 2
            })
        );
        assert_eq!(
            svc.try_rebuild_shard_opts(0, &two_d, &[40, 41], &opts),
            Err(IngestError::ArityMismatch {
                datasets: 1,
                ids: 2
            })
        );
        // A duplicate within the shard is distinguished from a clash with
        // another shard.
        assert_eq!(
            svc.try_add_shard_opts(
                &Repository::new(vec![dataset("a", &[1.0]), dataset("b", &[2.0])]),
                &[77, 77],
                &opts
            ),
            Err(IngestError::DuplicateId(77))
        );
        // The rejections above changed nothing; only the one successful
        // add landed (its dataset "dup" spans [1, 2], so it answers the
        // low-band query under id 9).
        assert_eq!((svc.n_shards(), svc.n_datasets()), (3, 4));
        assert_eq!(query(&svc, &low_expr()), Ok(vec![7, 9]));
    }

    #[test]
    fn phi_anchor_rejection_is_typed() {
        let mut svc = ShardedEngine::new(
            &[1],
            PtileBuildParams::default().with_phi_datasets(2),
            PrefBuildParams::exact_centralized(),
        );
        add(
            &mut svc,
            vec![dataset("a", &[1.0]), dataset("b", &[2.0])],
            &[0, 1],
        );
        assert_eq!(
            svc.try_add_shard_opts(
                &Repository::new(vec![dataset("c", &[3.0])]),
                &[2],
                &BuildOptions::default()
            ),
            Err(IngestError::PhiAnchorExceeded {
                anchor: 2,
                prospective: 3
            })
        );
    }

    #[test]
    fn ingest_errors_display_and_box() {
        let errors: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(IngestError::IdInUse(5)),
            Box::new(IngestError::DuplicateId(5)),
            Box::new(IngestError::NoSuchShard {
                shard: 9,
                n_shards: 2,
            }),
        ];
        assert!(errors[0].to_string().contains("already served"));
        assert!(errors[1].to_string().contains("repeats within"));
        assert!(errors[2].to_string().contains("no such shard: 9"));
    }

    #[test]
    fn rebuild_swaps_data_keeps_other_shards_and_reuses_ids() {
        let mut svc = service();
        // Shard 1's dataset moves from the middle to the low band; its id
        // may be reused because the rebuild releases it first.
        svc.try_rebuild_shard_opts(
            1,
            &Repository::new(vec![dataset("mid2", &[4.0, 6.0])]),
            &[5],
            &BuildOptions::default(),
        )
        .expect("valid rebuild");
        assert_eq!(query(&svc, &low_expr()), Ok(vec![5, 7]));
    }

    #[test]
    fn rebuild_invalidates_only_that_shards_cache() {
        let mut svc = service();
        // An expression overlapping both shards' value boxes, so the
        // routing fast path scatters it everywhere and the counters below
        // measure pure cache behaviour.
        let exprs = vec![wide_expr()];
        let _ = svc.try_query_batch_opts(&exprs, &BuildOptions::serial());
        let (_, misses_cold) = svc.cache_stats();
        assert_eq!(misses_cold, 2, "one mask per shard, both cold");
        let _ = svc.try_query_batch_opts(&exprs, &BuildOptions::serial());
        let (hits_warm, misses_warm) = svc.cache_stats();
        assert_eq!((hits_warm, misses_warm), (2, 2), "second batch all cached");
        svc.try_rebuild_shard_opts(
            1,
            &Repository::new(vec![dataset("mid2", &[47.0, 53.0])]),
            &[5],
            &BuildOptions::default(),
        )
        .expect("valid rebuild");
        let _ = svc.try_query_batch_opts(&exprs, &BuildOptions::serial());
        let (hits_after, misses_after) = svc.cache_stats();
        assert_eq!(
            (hits_after, misses_after),
            (3, 3),
            "shard 0 hits its cache; rebuilt shard 1 recomputes"
        );
        assert_eq!(svc.shards_routed_past(), 0, "wide_expr overlaps every box");
    }

    #[test]
    fn routing_skips_provably_disjoint_shards() {
        let svc = service();
        // low_expr's rectangle [0, 10] is disjoint from shard 1's value
        // box [48, 52] and the threshold 0.9 clears the (exact) margin 0,
        // so shard 1 is provably uninvolved.
        assert_eq!(query(&svc, &low_expr()), Ok(vec![7]));
        assert_eq!(svc.shards_routed_past(), 1);
        // Batch path skips too — and the skipped shard's cache is never
        // touched (only shard 0 records a lookup).
        let _ = svc.try_query_batch_opts(&[low_expr()], &BuildOptions::serial());
        assert_eq!(svc.shards_routed_past(), 2);
        let (h, m) = svc.cache_stats();
        assert_eq!(m, 1, "only shard 0 computed a mask");
        assert_eq!(h + m, 2, "two scatter-side lookups on shard 0 in total");
        // A rectangle beyond every shard: all shards skipped, empty answer.
        let far = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(200.0, 300.0),
            0.5,
        ));
        assert_eq!(query(&svc, &far), Ok(vec![]));
        assert_eq!(svc.shards_routed_past(), 4);
    }

    #[test]
    fn routing_matches_unrouted_answers() {
        let routed = service();
        let unrouted = {
            let mut svc = ShardedEngine::new(
                &[1],
                PtileBuildParams::exact_centralized(),
                PrefBuildParams::exact_centralized(),
            )
            .with_routing(Routing::Off);
            add(
                &mut svc,
                vec![
                    dataset("low", &[1.0, 2.0, 3.0]),
                    dataset("high", &[90.0, 95.0]),
                ],
                &[7, 3],
            );
            add(&mut svc, vec![dataset("mid", &[48.0, 52.0])], &[5]);
            svc
        };
        let exprs: Vec<LogicalExpr> = (0..12)
            .map(|i| {
                LogicalExpr::Pred(Predicate::percentile_at_least(
                    Rect::interval(i as f64 * 20.0 - 40.0, i as f64 * 20.0 - 20.0),
                    0.4,
                ))
            })
            .collect();
        assert_eq!(query_batch(&routed, &exprs), query_batch(&unrouted, &exprs));
        assert_eq!(unrouted.shards_routed_past(), 0, "routing really was off");
        assert!(routed.shards_routed_past() > 0, "routing really engaged");
    }

    #[test]
    fn routing_never_swallows_missing_rank_errors() {
        let svc = service();
        // Every shard's box is disjoint from [200, 300], but the top-k
        // literal uses an unindexed rank: the typed error must survive —
        // routing declines expressions that can error.
        let expr = LogicalExpr::And(vec![
            LogicalExpr::Pred(Predicate::percentile_at_least(
                Rect::interval(200.0, 300.0),
                0.9,
            )),
            LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], 9, 0.0)),
        ]);
        assert_eq!(query(&svc, &expr), Err(EngineError::MissingRank(9)));
        assert_eq!(svc.shards_routed_past(), 0);
        assert_eq!(
            query_batch(&svc, &[expr]),
            vec![Err(EngineError::MissingRank(9))]
        );
    }

    #[test]
    fn routing_respects_sampling_margins() {
        // A sampled build has margin > 0: thresholds at or below it must
        // not route (the empty-slab path may legitimately report a
        // zero-mass dataset), larger thresholds may.
        let sets: Vec<Vec<f64>> = (0..2)
            .map(|i| (0..80).map(|j| (i * 200 + j) as f64).collect())
            .collect();
        let mut svc = ShardedEngine::new(
            &[1],
            PtileBuildParams::default()
                .with_eps(0.4)
                .with_phi_datasets(2),
            PrefBuildParams::exact_centralized(),
        );
        for (i, xs) in sets.iter().enumerate() {
            add(
                &mut svc,
                vec![dataset(&format!("d{i}"), xs)],
                &[i as GlobalId],
            );
        }
        let margins: Vec<f64> = (0..svc.n_shards())
            .map(|s| svc.shard_engine(s).ptile_margin())
            .collect();
        let min_margin = margins.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        let max_margin = margins.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(min_margin > 0.0, "sampling must be engaged");
        assert!(max_margin < 0.99, "margin left no routable threshold");
        // Disjoint rectangle, threshold below every shard's margin: no
        // skip (each shard must be consulted for the zero-mass corner
        // case).
        let below = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(500.0, 600.0),
            min_margin / 2.0,
        ));
        let _ = query(&svc, &below);
        assert_eq!(svc.shards_routed_past(), 0);
        // Threshold above every shard's margin: both shards skipped.
        let above = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(500.0, 600.0),
            (max_margin + 0.01).min(1.0),
        ));
        assert_eq!(query(&svc, &above), Ok(vec![]));
        assert_eq!(svc.shards_routed_past(), 2);
    }

    #[test]
    fn synopsis_routes_past_interior_gaps_the_box_cannot_see() {
        // Shard 0's datasets sit at the two extremes of the value range,
        // so its bounding box [0, 100] overlaps an interior query the
        // shard can never answer — only the mass bound can prove it
        // silent. Shard 1 lives inside the query and answers it.
        let mut svc = ShardedEngine::new(
            &[1],
            PtileBuildParams::exact_centralized(),
            PrefBuildParams::exact_centralized(),
        );
        add(
            &mut svc,
            vec![
                dataset("lo", &[0.0, 1.0, 2.0, 3.0]),
                dataset("hi", &[97.0, 98.0, 99.0, 100.0]),
            ],
            &[1, 2],
        );
        add(&mut svc, vec![dataset("mid", &[49.0, 50.0, 51.0])], &[3]);
        let interior = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(40.0, 60.0),
            0.6,
        ));
        assert_eq!(query(&svc, &interior), Ok(vec![3]));
        assert_eq!(svc.shards_routed_past(), 0, "the box overlaps [40, 60]");
        assert_eq!(svc.shards_routed_by_synopsis(), 1);
        // The batch path classifies identically, and the skipped shard's
        // cache is never touched.
        let _ = svc.try_query_batch_opts(std::slice::from_ref(&interior), &BuildOptions::serial());
        assert_eq!(svc.shards_routed_by_synopsis(), 2);
        let (_, m) = svc.cache_stats();
        assert_eq!(m, 1, "only shard 1 ever computed a mask");
        assert_eq!(
            svc.stats_snapshot().shards_routed_by_synopsis,
            2,
            "snapshot carries the new counter"
        );
    }

    #[test]
    fn stats_snapshot_aggregates_counters() {
        let svc = service();
        let _ = query(&svc, &low_expr());
        let snap = svc.stats_snapshot();
        assert_eq!(snap.n_shards, 2);
        assert_eq!(snap.n_datasets, 3);
        assert_eq!(snap.shards_routed_past, 1);
        assert_eq!(
            snap.shards_routed_by_synopsis, 0,
            "a box-tier skip never counts against the synopsis tier"
        );
        assert_eq!(snap.cache_misses, 1);
        assert!(snap.index_queries >= 1);
        assert_eq!((snap.splits, snap.merges), (0, 0));
    }

    #[test]
    fn split_then_merge_preserves_answers() {
        let opts = BuildOptions::default();
        let mut svc = service();
        let all = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(0.0, 100.0),
            0.9,
        ));
        let before = query(&svc, &all);
        assert_eq!(before, Ok(vec![3, 5, 7]));
        // Shard 0 holds ids {7, 3}; move 3 out into its own shard.
        let new = svc
            .try_split_shard_opts(0, &[3], &opts)
            .expect("valid split");
        assert_eq!(new, 2);
        assert_eq!(svc.n_shards(), 3);
        assert_eq!(svc.global_ids(0), &[7]);
        assert_eq!(svc.global_ids(2), &[3]);
        assert_eq!(svc.n_datasets(), 3, "splits conserve the catalog");
        assert_eq!(query(&svc, &all), before);
        assert_eq!(query(&svc, &low_expr()), Ok(vec![7]));
        // Merge it back; the surviving slot is min(0, 2) = 0 and the
        // merged shard appends the absorbed shard's datasets.
        assert_eq!(
            svc.try_merge_shards_opts(2, 0, &opts).expect("valid merge"),
            0
        );
        assert_eq!(svc.n_shards(), 2);
        assert_eq!(svc.global_ids(0), &[7, 3]);
        assert_eq!(query(&svc, &all), before);
        let snap = svc.stats_snapshot();
        assert_eq!((snap.splits, snap.merges), (1, 1));
    }

    #[test]
    fn split_rejections_are_typed_and_leave_state_intact() {
        let opts = BuildOptions::default();
        let mut svc = service();
        assert_eq!(
            svc.try_split_shard_opts(9, &[7], &opts),
            Err(IngestError::NoSuchShard {
                shard: 9,
                n_shards: 2
            })
        );
        assert_eq!(
            svc.try_split_shard_opts(0, &[5], &opts),
            Err(IngestError::IdNotInShard { id: 5, shard: 0 })
        );
        assert_eq!(
            svc.try_split_shard_opts(0, &[7, 7], &opts),
            Err(IngestError::DuplicateId(7))
        );
        assert_eq!(
            svc.try_split_shard_opts(0, &[], &opts),
            Err(IngestError::EmptySplitSide {
                shard: 0,
                moving: 0,
                datasets: 2
            })
        );
        assert_eq!(
            svc.try_split_shard_opts(0, &[7, 3], &opts),
            Err(IngestError::EmptySplitSide {
                shard: 0,
                moving: 2,
                datasets: 2
            })
        );
        // A one-dataset shard can never split.
        assert_eq!(
            svc.try_split_shard_opts(1, &[5], &opts),
            Err(IngestError::EmptySplitSide {
                shard: 1,
                moving: 1,
                datasets: 1
            })
        );
        assert_eq!((svc.n_shards(), svc.n_datasets()), (2, 3));
        assert_eq!(query(&svc, &low_expr()), Ok(vec![7]));
    }

    #[test]
    fn merge_rejections_are_typed_and_leave_state_intact() {
        let opts = BuildOptions::default();
        let mut svc = service();
        assert_eq!(
            svc.try_merge_shards_opts(0, 9, &opts),
            Err(IngestError::NoSuchShard {
                shard: 9,
                n_shards: 2
            })
        );
        assert_eq!(
            svc.try_merge_shards_opts(1, 1, &opts),
            Err(IngestError::MergeWithSelf { shard: 1 })
        );
        assert_eq!((svc.n_shards(), svc.n_datasets()), (2, 3));
        assert_eq!(query(&svc, &low_expr()), Ok(vec![7]));
    }

    #[test]
    fn split_rejection_displays_the_wire_message() {
        let mut svc = service();
        let err = svc
            .try_split_shard_opts(9, &[7], &BuildOptions::default())
            .expect_err("shard 9 does not exist");
        assert!(err.to_string().contains("no such shard"), "{err}");
    }

    #[test]
    fn merge_rejection_displays_the_wire_message() {
        let mut svc = service();
        let err = svc
            .try_merge_shards_opts(0, 0, &BuildOptions::default())
            .expect_err("a shard cannot merge with itself");
        assert!(
            err.to_string().contains("cannot merge shard 0 with itself"),
            "{err}"
        );
    }

    #[test]
    fn transitions_scope_cache_invalidation_to_the_touched_shards() {
        let opts = BuildOptions::default();
        let mut svc = service();
        let _ = svc.try_query_batch_opts(&[wide_expr()], &BuildOptions::serial());
        let gen0 = svc.shard_engine(0).mask_cache().generation();
        let gen1 = svc.shard_engine(1).mask_cache().generation();
        // Split shard 0: its carried cache bumps, shard 1's does not, and
        // the new shard starts on a fresh cache object.
        svc.try_split_shard_opts(0, &[3], &opts)
            .expect("valid split");
        assert_eq!(svc.shard_engine(0).mask_cache().generation(), gen0 + 1);
        assert_eq!(svc.shard_engine(1).mask_cache().generation(), gen1);
        assert_eq!(svc.shard_engine(2).mask_cache().len(), 0);
        // Merge shards 1 and 2: the surviving slot (1) carries shard 1's
        // cache bumped again; shard 0 is untouched.
        let merged = svc.try_merge_shards_opts(1, 2, &opts).expect("valid merge");
        assert_eq!(merged, 1);
        assert_eq!(svc.shard_engine(0).mask_cache().generation(), gen0 + 1);
        assert_eq!(svc.shard_engine(1).mask_cache().generation(), gen1 + 1);
    }

    #[test]
    fn shard_loads_count_evaluated_units_and_reset_on_transition() {
        let opts = BuildOptions::default();
        let mut svc = service();
        // low_expr routes past shard 1, so only shard 0 records load.
        let _ = query(&svc, &low_expr());
        let _ = svc.try_query_batch_opts(&[low_expr()], &BuildOptions::serial());
        let loads = svc.shard_loads();
        assert_eq!(loads[0].queries, 2);
        assert_eq!(loads[1].queries, 0);
        assert_eq!(loads[0].datasets, 2);
        // A rebuild keeps the counter (the shard keeps its identity)...
        svc.try_rebuild_shard_opts(
            0,
            &Repository::new(vec![
                dataset("low", &[1.0, 2.0, 3.0]),
                dataset("high", &[90.0, 95.0]),
            ]),
            &[7, 3],
            &opts,
        )
        .expect("valid rebuild");
        assert_eq!(svc.shard_loads()[0].queries, 2);
        // ...while a split resets both sides.
        svc.try_split_shard_opts(0, &[3], &opts)
            .expect("valid split");
        assert_eq!(svc.shard_loads()[0].queries, 0);
        assert_eq!(svc.shard_loads()[2].queries, 0);
    }
}
