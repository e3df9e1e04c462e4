//! Mixed-expression query engine.
//!
//! Appendix C.4 handles logical expressions of percentile predicates and
//! Appendix D.1 logical expressions of preference predicates. A practical
//! discovery system needs both in one expression — Example 1.1's economist
//! wants regional coverage (Ptile) *and* quality-of-life neighborhoods
//! (Pref) at once. [`MixedQueryEngine`] answers arbitrary
//! [`LogicalExpr`]s over both predicate kinds by DNF expansion: within a
//! conjunctive clause it intersects per-predicate index answers, across
//! clauses it unions (both operations preserve the superset-plus-band
//! guarantee shape, as the appendices note for the homogeneous cases).

use crate::bitset::BitSet;
use crate::cache::{CacheKey, DigestMap, MaskCache};
use crate::framework::{Interval, LogicalExpr, MeasureFunction, Predicate, Repository};
use crate::pool::{par_map_with, BuildOptions};
use crate::pref::{PrefBuildParams, PrefIndex};
use crate::ptile::{PtileBuildParams, PtileRangeIndex};
use crate::scratch::QueryScratch;
use dds_geom::EpsNet;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bit-exact encoding of a predicate, the words of its [`CacheKey`]. Encodes
/// the measure discriminant, then every float as its IEEE-754 bit pattern
/// (`f64::to_bits`), so `-0.0 != 0.0` keys differ — a false negative only
/// costs a redundant query, never a wrong answer. Written into `key`
/// (cleared first), a buffer reused across a plan's predicates.
fn predicate_words(pred: &Predicate, key: &mut Vec<u64>) {
    key.clear();
    match &pred.measure {
        MeasureFunction::Percentile(r) => {
            key.push(0);
            key.push(r.dim() as u64);
            for h in 0..r.dim() {
                key.push(r.lo_at(h).to_bits());
                key.push(r.hi_at(h).to_bits());
            }
        }
        MeasureFunction::TopK { v, k } => {
            key.push(1);
            key.push(*k as u64);
            key.extend(v.iter().map(|x| x.to_bits()));
        }
    }
    key.push(pred.theta.lo.to_bits());
    key.push(pred.theta.hi.to_bits());
}

/// One distinct predicate of a [`DnfPlan`] with the engine-invariant work
/// done: its cache key, digested once, and for a top-k predicate the ε-net
/// vector its direction snaps to.
#[derive(Debug)]
struct PlannedPred {
    pred: Predicate,
    key: CacheKey,
    snap: Option<usize>,
}

/// An expression's DNF, planned once and evaluable on any engine that
/// shares the plan's ε-net and mask-cache keys — every shard of a
/// `ShardedEngine`. DNF expansion repeats predicates across clauses
/// (distributing `p ∧ (q ∨ r)` puts `p` in both); the plan keeps each
/// distinct predicate once, in first-appearance order, so an evaluation
/// fetches each mask once with no per-call memo.
#[derive(Debug)]
pub(crate) struct DnfPlan {
    preds: Vec<PlannedPred>,
    /// The non-empty clauses, as indexes into `preds` (an empty clause
    /// contributes nothing).
    clauses: Vec<Vec<usize>>,
}

impl DnfPlan {
    /// Plans `dnf`: cache keys digested under `hasher`, top-k directions
    /// snapped on `net` (`None` only when no engine will evaluate the plan).
    /// The caller has schema-checked the expression, so every direction has
    /// the net's dimension.
    pub(crate) fn new(
        dnf: Vec<Vec<Predicate>>,
        hasher: &RandomState,
        net: Option<&EpsNet>,
    ) -> Self {
        let mut preds: Vec<PlannedPred> = Vec::new();
        let mut index: DigestMap<usize> = DigestMap::default();
        let mut clauses = Vec::with_capacity(dnf.len());
        let mut words = Vec::new();
        for clause in dnf.into_iter().filter(|c| !c.is_empty()) {
            let mut planned = Vec::with_capacity(clause.len());
            for pred in clause {
                predicate_words(&pred, &mut words);
                let key = CacheKey::new(&words, hasher);
                let slot = *index.entry(key.clone()).or_insert_with(|| {
                    let snap = match &pred.measure {
                        MeasureFunction::TopK { v, .. } => net.map(|n| n.nearest(v).0),
                        MeasureFunction::Percentile(_) => None,
                    };
                    preds.push(PlannedPred { pred, key, snap });
                    preds.len() - 1
                });
                planned.push(slot);
            }
            clauses.push(planned);
        }
        DnfPlan { preds, clauses }
    }

    /// The clauses, each as its predicates (repeats included).
    pub(crate) fn clauses(&self) -> impl Iterator<Item = impl Iterator<Item = &Predicate>> {
        self.clauses
            .iter()
            .map(|c| c.iter().map(|&i| &self.preds[i].pred))
    }

    fn keys(&self) -> impl Iterator<Item = &CacheKey> + Clone {
        self.preds.iter().map(|p| &p.key)
    }
}

/// Errors answering a mixed expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A preference predicate uses a rank `k` the engine has no index for.
    MissingRank(usize),
    /// A predicate's dimensionality (rectangle facets or preference-vector
    /// length) does not match the engine's schema dimension. Returned by
    /// the `try_query*` paths and by
    /// [`ShardedEngine::schema_check`](crate::shard::ShardedEngine::schema_check);
    /// the checked paths surface it instead of panicking deep inside the
    /// underlying indexes.
    DimensionMismatch {
        /// The schema dimension the engine was built over.
        expected: usize,
        /// The dimensionality the offending predicate carries.
        got: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::MissingRank(k) => {
                write!(
                    f,
                    "no Pref index built for k = {k}; add it to the engine params"
                )
            }
            EngineError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "query dimension {got} does not match the served schema (dim = {expected})"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The first predicate in `expr` whose dimensionality disagrees with
/// `dim`, as `(expected, got)`. Percentile predicates carry their
/// rectangle's facet count, preference predicates their direction-vector
/// length.
pub(crate) fn expr_dim_mismatch(expr: &LogicalExpr, dim: usize) -> Option<(usize, usize)> {
    match expr {
        LogicalExpr::Pred(p) => {
            let got = match &p.measure {
                MeasureFunction::Percentile(r) => r.dim(),
                MeasureFunction::TopK { v, .. } => v.len(),
            };
            (got != dim).then_some((dim, got))
        }
        LogicalExpr::And(xs) | LogicalExpr::Or(xs) => {
            xs.iter().find_map(|x| expr_dim_mismatch(x, dim))
        }
    }
}

/// A combined index answering logical expressions that mix percentile and
/// top-k preference predicates over one repository.
///
/// All query paths take `&self`: one engine can serve concurrent readers
/// (e.g. behind an `Arc`), and
/// [`try_query_batch_opts`](Self::try_query_batch_opts) fans a slice of
/// expressions out over the worker pool. Batch calls share the
/// engine's **cross-call** [`MaskCache`]: a predicate repeated across
/// batches (the read-mostly catalog workload) queries its underlying index
/// only until cached, bounded by the cache capacity and invalidated via
/// the cache's generation tag.
#[derive(Debug)]
pub struct MixedQueryEngine {
    n_datasets: usize,
    ptile: PtileRangeIndex,
    /// One Pref index per supported rank `k`.
    pref: HashMap<usize, PrefIndex>,
    /// Underlying index queries issued over the engine's lifetime (after
    /// per-call memoization; distinct from the number of DNF literals seen).
    /// Atomic so the instrumentation survives concurrent `&self` queries.
    index_queries: AtomicU64,
    /// Cross-call predicate-mask cache used by the batch (and sharded)
    /// query paths. Behind an `Arc` so a shard rebuild can carry the cache
    /// (and its counters) over to the replacement engine.
    mask_cache: Arc<MaskCache>,
}

impl MixedQueryEngine {
    /// Builds the engine over a centralized repository, with Pref support
    /// for each rank in `ks`, on the `opts` worker pool (pass
    /// `&BuildOptions::default()` for all available cores with the
    /// `DDS_THREADS` override). The thread count never affects results.
    ///
    /// # Panics
    /// Panics if the repository is empty or `ks` is empty.
    pub fn build_opts(
        repo: &Repository,
        ks: &[usize],
        ptile_params: PtileBuildParams,
        pref_params: PrefBuildParams,
        opts: &BuildOptions,
    ) -> Self {
        assert!(!ks.is_empty(), "need at least one preference rank");
        let synopses = repo.exact_synopses();
        let ptile = PtileRangeIndex::build_opts(&synopses, ptile_params, opts);
        let pref = ks
            .iter()
            .map(|&k| {
                (
                    k,
                    PrefIndex::build_opts(&synopses, k, pref_params.clone(), opts),
                )
            })
            .collect();
        MixedQueryEngine {
            n_datasets: repo.len(),
            ptile,
            pref,
            index_queries: AtomicU64::new(0),
            mask_cache: Arc::new(MaskCache::with_default_capacity()),
        }
    }

    /// Replaces the engine's cross-call mask cache (builder-style).
    /// Crate-internal on purpose: cache keys encode only the predicate,
    /// not the repository, so attaching one cache to engines over
    /// different data would silently serve the wrong masks. The only
    /// legitimate use is the shard-rebuild carry-over
    /// (`ShardedEngine::try_rebuild_shard_opts`), which invalidates the cache's
    /// generation as it hands it to the replacement engine.
    pub(crate) fn with_mask_cache(mut self, cache: Arc<MaskCache>) -> Self {
        self.mask_cache = cache;
        self
    }

    /// The engine's cross-call predicate-mask cache (hit/miss counters,
    /// capacity bound, generation tag). Shared by every
    /// [`try_query_batch_opts`](Self::try_query_batch_opts) call.
    pub fn mask_cache(&self) -> &Arc<MaskCache> {
        &self.mask_cache
    }

    /// Number of datasets the engine indexes.
    pub fn n_datasets(&self) -> usize {
        self.n_datasets
    }

    /// The schema dimension `d` the engine was built over. Every
    /// predicate in a query must carry this dimensionality; the
    /// `try_query*` paths reject mismatches with a typed
    /// [`EngineError::DimensionMismatch`].
    pub fn dim(&self) -> usize {
        self.ptile.dim()
    }

    /// Checks every expression's predicate dimensionalities against the
    /// engine schema, reporting the first mismatch as a typed error before
    /// any index is touched. (The serving tier checks whole requests with
    /// [`ShardedEngine::schema_check`](crate::shard::ShardedEngine::schema_check).)
    fn schema_check(&self, exprs: &[LogicalExpr]) -> Result<(), EngineError> {
        let dim = self.dim();
        for expr in exprs {
            if let Some((expected, got)) = expr_dim_mismatch(expr, dim) {
                return Err(EngineError::DimensionMismatch { expected, got });
            }
        }
        Ok(())
    }

    /// Total underlying index queries issued so far. DNF expansion can
    /// repeat one predicate in many clauses; this counts post-memoization
    /// queries, so it measures real index work. Batch calls go through the
    /// **cross-call** [`MaskCache`], so a batch advances the counter by
    /// the number of distinct predicates *not already cached* — repeating
    /// an identical batch advances it by 0 while the masks stay resident
    /// (see [`mask_cache`](Self::mask_cache) for the hit/miss split).
    pub fn index_queries(&self) -> u64 {
        self.index_queries.load(Ordering::Relaxed)
    }

    /// The Ptile guarantee band.
    pub fn ptile_slack(&self) -> f64 {
        self.ptile.slack()
    }

    /// The worst per-dataset Ptile budget `max_i (ε_i + δ_i)` — the
    /// threshold below which the zero-mass corner case can report a
    /// dataset with no sample point inside the query rectangle. The shard
    /// routing fast path (`dds_core::shard`) may only skip an engine when
    /// a predicate's clamped lower bound strictly exceeds this.
    pub fn ptile_margin(&self) -> f64 {
        self.ptile.margin()
    }

    /// The Ptile build's routing synopsis (per-axis mass-bound envelope
    /// over the weight samples), if one could be built — `None` when a
    /// sample coordinate was `NaN`. The shard routing fast path
    /// (`dds_core::shard`) combines it with
    /// [`ptile_margin`](Self::ptile_margin) to prove shards silent for
    /// selective percentile predicates.
    pub fn routing_synopsis(&self) -> Option<&crate::ptile::RoutingSynopsis> {
        self.ptile.routing_synopsis()
    }

    /// The Pref guarantee band for rank `k` (if indexed).
    pub fn pref_slack(&self, k: usize) -> Option<f64> {
        self.pref.get(&k).map(PrefIndex::slack)
    }

    /// The ε-net every Pref index of this engine snaps query directions to
    /// (all are built with the engine's `(dim, eps)`, so they share it).
    pub(crate) fn pref_net(&self) -> &EpsNet {
        self.pref
            .values()
            .next()
            .expect("the engine indexes at least one rank")
            .net()
    }

    /// Plans `expr` for this engine (keys under its cache's hasher,
    /// directions on its net). The caller has schema-checked `expr`.
    fn plan(&self, expr: &LogicalExpr) -> DnfPlan {
        DnfPlan::new(
            expr.to_dnf(),
            self.mask_cache.hasher(),
            Some(self.pref_net()),
        )
    }

    /// Answers a logical expression over percentile and preference
    /// predicates: a superset of `q_Π(P)`, every reported dataset within
    /// each touched predicate's band. Schema-checks the expression first
    /// ([`EngineError::DimensionMismatch`] on a wrong-dimension predicate
    /// instead of a panic deep inside the underlying indexes).
    ///
    /// Read-only: the engine can be shared (`&self`, e.g. behind an `Arc`)
    /// across query threads. The caller-provided scratch — the reported
    /// flags, DNF accumulators, predicate masks and the lifted orthant
    /// buffers — is reused across calls; it never affects answers.
    /// This path does not consult the cross-call [`MaskCache`].
    pub fn try_query_with(
        &self,
        expr: &LogicalExpr,
        scratch: &mut QueryScratch,
    ) -> Result<Vec<usize>, EngineError> {
        self.schema_check(std::slice::from_ref(expr))?;
        let mut out = Vec::new();
        self.eval_plan(&self.plan(expr), scratch, None, |j| out.push(j))?;
        Ok(out)
    }

    /// Answers a slice of expressions on the `opts` worker pool: per-worker
    /// reusable scratch, plus the engine's **cross-call** [`MaskCache`] so
    /// predicates repeated across the batch — or across *earlier batches*
    /// — query their underlying index once per cache residency.
    ///
    /// Results come back in input order and are **bit-identical** to calling
    /// [`try_query_with`](Self::try_query_with) on each expression
    /// sequentially, for every thread count (pinned by
    /// `tests/batch_equivalence.rs`): cached masks are exactly the masks
    /// the indexes would recompute. Each expression is schema-checked
    /// independently, so a wrong-dimension expression yields
    /// `Err(DimensionMismatch)` *in its slot* while the rest of the batch
    /// is still answered.
    pub fn try_query_batch_opts(
        &self,
        exprs: &[LogicalExpr],
        opts: &BuildOptions,
    ) -> Vec<Result<Vec<usize>, EngineError>> {
        let dim = self.dim();
        par_map_with(opts, exprs, QueryScratch::new, |scratch, _, expr| {
            if let Some((expected, got)) = expr_dim_mismatch(expr, dim) {
                return Err(EngineError::DimensionMismatch { expected, got });
            }
            let mut out = Vec::new();
            self.eval_plan(&self.plan(expr), scratch, Some(&self.mask_cache), |j| {
                out.push(j)
            })?;
            Ok(out)
        })
    }

    /// [`try_query_with`](Self::try_query_with) on a plan made by the
    /// caller, through the cross-call [`MaskCache`] — the per-shard query
    /// path of [`ShardedEngine`](crate::shard::ShardedEngine), which plans
    /// each expression once for routing and for every shard. `emit` gets
    /// the shard-local answer.
    pub(crate) fn query_cached_plan(
        &self,
        plan: &DnfPlan,
        scratch: &mut QueryScratch,
        emit: impl FnMut(usize),
    ) -> Result<(), EngineError> {
        self.eval_plan(plan, scratch, Some(&self.mask_cache), emit)
    }

    /// [`query_cached_plan`](Self::query_cached_plan) when every predicate's
    /// mask is already resident in the cache: answers through `emit` and
    /// returns `true` after one lookup that counts exactly the hits the
    /// cached path would. Returns `false` — nothing emitted, counted or
    /// touched — when some mask would have to be computed or waited for.
    pub(crate) fn query_resident_plan(
        &self,
        plan: &DnfPlan,
        scratch: &mut QueryScratch,
        emit: impl FnMut(usize),
    ) -> bool {
        let mut masks = std::mem::take(&mut scratch.masks);
        let resident = self.mask_cache.get_resident(plan.keys(), &mut masks);
        if resident {
            self.combine(plan, &masks, scratch, emit);
        }
        masks.clear();
        scratch.masks = masks;
        resident
    }

    /// The evaluation behind every query path: each distinct predicate's
    /// mask, in first-appearance order — from `cache` when given, else
    /// computed — stopping at the first error, then the clause algebra.
    fn eval_plan(
        &self,
        plan: &DnfPlan,
        scratch: &mut QueryScratch,
        cache: Option<&MaskCache>,
        emit: impl FnMut(usize),
    ) -> Result<(), EngineError> {
        // The masks move out of the scratch while the leaf queries (which
        // borrow the scratch for their own buffers) run, and move back
        // afterwards so their capacity is kept.
        let mut masks = std::mem::take(&mut scratch.masks);
        let mut result = Ok(());
        for p in &plan.preds {
            let mask = match cache {
                None => self.compute_mask(p, scratch),
                Some(cache) => cache.get_or_compute(&p.key, || self.compute_mask(p, scratch)),
            };
            match mask {
                Ok(m) => masks.push(m),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if result.is_ok() {
            self.combine(plan, &masks, scratch, emit);
        }
        masks.clear();
        scratch.masks = masks;
        result
    }

    /// The clause algebra over one mask per distinct predicate: within a
    /// clause a word-wise AND (64 datasets at a time), across clauses a
    /// union. `emit` gets every answer once, clause by clause, ascending
    /// within a clause.
    fn combine(
        &self,
        plan: &DnfPlan,
        masks: &[Arc<BitSet>],
        scratch: &mut QueryScratch,
        mut emit: impl FnMut(usize),
    ) {
        let n = self.n_datasets;
        let dedup = plan.clauses.len() > 1;
        if dedup {
            scratch.seen.reset(n);
        }
        for clause in &plan.clauses {
            let hits = match clause[..] {
                [only] => &*masks[only],
                _ => {
                    scratch.acc.reset(n);
                    scratch.acc.set_all();
                    for &i in clause {
                        scratch.acc.and_assign(&masks[i]);
                    }
                    &scratch.acc
                }
            };
            for j in hits.iter_ones() {
                if !dedup || scratch.seen.insert(j) {
                    emit(j);
                }
            }
        }
    }

    /// Queries the underlying index for one predicate and packs the hits.
    fn compute_mask(
        &self,
        planned: &PlannedPred,
        scratch: &mut QueryScratch,
    ) -> Result<Arc<BitSet>, EngineError> {
        let pred = &planned.pred;
        let mut mask = BitSet::new(self.n_datasets);
        match &pred.measure {
            MeasureFunction::Percentile(r) => {
                let theta = Interval::new(
                    pred.theta.lo.max(0.0),
                    pred.theta.hi.min(1.0).max(pred.theta.lo.max(0.0)),
                );
                self.ptile.query_cb_with(r, theta, scratch, &mut |j| {
                    mask.insert(j);
                });
            }
            MeasureFunction::TopK { k, .. } => {
                let idx = self.pref.get(k).ok_or(EngineError::MissingRank(*k))?;
                let snap = planned
                    .snap
                    .expect("top-k directions are snapped when planned");
                idx.query_snapped_cb(snap, pred.theta.lo, &mut |j| {
                    mask.insert(j);
                });
            }
        }
        self.index_queries.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(mask))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{ground_truth, Dataset, Predicate};
    use dds_geom::Rect;

    /// 2-d repository: coordinate 0 is a quality score (unit range),
    /// coordinate 1 a position. Percentile predicates range over positions,
    /// preference predicates over the score axis `v = (1, 0)`:
    ///  ds0: all mass at positions A = [0, 10], top score 0.9
    ///  ds1: all mass in A, top score 0.2
    ///  ds2: all mass in B = [20, 30], top score 0.9
    fn repo() -> Repository {
        Repository::new(vec![
            Dataset::from_rows("d0", vec![vec![0.9, 5.0], vec![0.8, 6.0]]),
            Dataset::from_rows("d1", vec![vec![0.2, 5.0], vec![0.1, 6.0]]),
            Dataset::from_rows("d2", vec![vec![0.9, 25.0], vec![0.8, 26.0]]),
        ])
    }

    fn region_a() -> Rect {
        Rect::from_bounds(&[-1.0, 0.0], &[1.0, 10.0])
    }

    fn region_b() -> Rect {
        Rect::from_bounds(&[-1.0, 20.0], &[1.0, 30.0])
    }

    fn engine() -> MixedQueryEngine {
        MixedQueryEngine::build_opts(
            &repo(),
            &[1],
            PtileBuildParams::exact_centralized(),
            PrefBuildParams::exact_centralized().with_eps(0.02),
            &BuildOptions::default(),
        )
    }

    fn query(e: &MixedQueryEngine, expr: &LogicalExpr) -> Result<Vec<usize>, EngineError> {
        e.try_query_with(expr, &mut QueryScratch::new())
    }

    #[test]
    fn mixed_conjunction() {
        // Mass ≥ 0.5 in A AND top-1 score ≥ 0.5 → only ds0 and ds1 have the
        // mass; only ds0 clears the score.
        let e = engine();
        let expr = LogicalExpr::And(vec![
            LogicalExpr::Pred(Predicate::percentile_at_least(region_a(), 0.5)),
            LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0, 0.0], 1, 0.5)),
        ]);
        let hits = query(&e, &expr).unwrap();
        let truth = ground_truth(&repo(), &expr);
        assert_eq!(truth, vec![0]);
        // Superset of ground truth; the exact answer is contained.
        assert!(hits.contains(&0));
        // Every hit is within both bands.
        for &j in &hits {
            let mass = region_a().mass(repo().get(j).points());
            assert!(mass >= 0.5 - e.ptile_slack() - 1e-9);
        }
    }

    #[test]
    fn mixed_disjunction() {
        // Mass ≥ 0.9 in B OR top-1 score ≥ 0.8: ds2 (both), ds0 (score).
        let e = engine();
        let expr = LogicalExpr::Or(vec![
            LogicalExpr::Pred(Predicate::percentile_at_least(region_b(), 0.9)),
            LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0, 0.0], 1, 0.8)),
        ]);
        let mut hits = query(&e, &expr).unwrap();
        hits.sort_unstable();
        for i in ground_truth(&repo(), &expr) {
            assert!(hits.contains(&i));
        }
        assert!(!hits.contains(&1), "ds1 satisfies neither disjunct");
    }

    #[test]
    fn missing_rank_is_reported() {
        let e = engine();
        let expr = LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0, 0.0], 7, 0.1));
        assert_eq!(query(&e, &expr), Err(EngineError::MissingRank(7)));
    }

    #[test]
    fn repeated_predicates_query_indexes_once() {
        // `(a ∧ s) ∨ (b ∧ s)`: DNF expansion mentions the score predicate
        // in both clauses, but it must hit the Pref index only once.
        let e = engine();
        let score = Predicate::topk_at_least(vec![1.0, 0.0], 1, 0.5);
        let expr = LogicalExpr::Or(vec![
            LogicalExpr::And(vec![
                LogicalExpr::Pred(Predicate::percentile_at_least(region_a(), 0.5)),
                LogicalExpr::Pred(score.clone()),
            ]),
            LogicalExpr::And(vec![
                LogicalExpr::Pred(Predicate::percentile_at_least(region_b(), 0.5)),
                LogicalExpr::Pred(score.clone()),
            ]),
        ]);
        let mut hits = query(&e, &expr).unwrap();
        hits.sort_unstable();
        assert_eq!(
            e.index_queries(),
            3,
            "4 DNF literals, 3 distinct predicates → 3 index queries"
        );
        for i in ground_truth(&repo(), &expr) {
            assert!(hits.contains(&i));
        }
        // A second identical call queries the indexes again: the plan dedups
        // predicates within one call, and `try_query_with` bypasses the mask
        // cache.
        let again = query(&e, &expr).unwrap();
        assert_eq!(e.index_queries(), 6);
        let mut again = again;
        again.sort_unstable();
        assert_eq!(again, hits);
    }

    #[test]
    fn dimension_mismatch_is_typed_not_a_panic() {
        let e = engine();
        assert_eq!(e.dim(), 2);
        // A 1-d rectangle against the 2-d schema: typed error on every
        // query path, no panic.
        let bad = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::from_bounds(&[0.0], &[1.0]),
            0.5,
        ));
        let want = EngineError::DimensionMismatch {
            expected: 2,
            got: 1,
        };
        assert_eq!(query(&e, &bad), Err(want.clone()));
        assert_eq!(
            e.schema_check(std::slice::from_ref(&bad)),
            Err(want.clone())
        );
        // Nested inside a conjunction, and via a preference vector too.
        let nested = LogicalExpr::And(vec![
            LogicalExpr::Pred(Predicate::percentile_at_least(region_a(), 0.5)),
            LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0, 0.0, 0.0], 1, 0.5)),
        ]);
        assert_eq!(
            query(&e, &nested),
            Err(EngineError::DimensionMismatch {
                expected: 2,
                got: 3,
            })
        );
    }

    #[test]
    fn batch_dimension_mismatch_errs_per_slot() {
        let e = engine();
        let good = LogicalExpr::Pred(Predicate::percentile_at_least(region_a(), 0.5));
        let bad = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::from_bounds(&[0.0], &[1.0]),
            0.5,
        ));
        let res = e.try_query_batch_opts(&[good.clone(), bad, good], &BuildOptions::default());
        assert_eq!(res.len(), 3);
        assert!(res[0].is_ok());
        assert_eq!(
            res[1],
            Err(EngineError::DimensionMismatch {
                expected: 2,
                got: 1,
            })
        );
        assert_eq!(res[2], res[0]);
    }

    #[test]
    fn no_duplicates_across_clauses() {
        let e = engine();
        let p = Predicate::percentile_at_least(region_a(), 0.5);
        let expr = LogicalExpr::Or(vec![LogicalExpr::Pred(p.clone()), LogicalExpr::Pred(p)]);
        let hits = query(&e, &expr).unwrap();
        let mut dedup = hits.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(hits.len(), dedup.len());
    }
}
