//! Ptile with logical expressions over `m` predicates — Appendix C.4,
//! Theorem C.8.
//!
//! Conjunctions: every dataset contributes one lifted point per `m`-tuple of
//! canonical-rectangle pairs, in `R^{4md+m}` (the last `m` coordinates are
//! the per-slot weights); the query is the product of the per-predicate
//! orthants of Algorithm 4 plus the `m`-dimensional weight box. Disjunctions
//! are unions over DNF clauses with de-duplication, as the appendix notes.
//!
//! Clauses with fewer than `m` predicates are padded by repeating the first
//! predicate with the trivial interval `[0, 1]`. Queries where some
//! predicate's widened lower bound reaches 0 fall back to intersecting the
//! single-predicate range-index answers (still a correct superset with the
//! same per-predicate bands — the lifted structure cannot represent the
//! "no rectangle inside R" corner case across slots).

use super::coreset::{build_coreset, rect_weights};
use super::{PtileBuildParams, PtileRangeIndex};
use crate::bitset::BitSet;
use crate::framework::{Interval, LogicalExpr, MeasureFunction, Predicate};
use crate::pool::{par_map, par_map_with, BuildOptions};
use crate::scratch::QueryScratch;
use dds_geom::Rect;
use dds_rangetree::{KdTree, OrthoIndex, Region};
use dds_synopsis::PercentileSynopsis;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-dataset build output: the lifted `m`-tuples and the achieved budget.
struct TuplePart {
    /// Lifted tuples, row-major (`4md + 2m` coordinates each).
    lifted: Vec<f64>,
    eps_i: f64,
    c_i: f64,
}

/// Errors answering logical expressions with the multi-predicate structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MultiQueryError {
    /// A DNF clause holds more predicates than the structure's arity `m`.
    TooManyPredicates {
        /// Predicates in the offending clause.
        got: usize,
        /// Structure arity.
        max: usize,
    },
    /// The expression contains a non-percentile predicate.
    NonPercentile,
}

impl std::fmt::Display for MultiQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiQueryError::TooManyPredicates { got, max } => {
                write!(f, "clause has {got} predicates, structure supports {max}")
            }
            MultiQueryError::NonPercentile => {
                write!(f, "expression contains a non-percentile predicate")
            }
        }
    }
}

impl std::error::Error for MultiQueryError {}

/// Approximate Ptile index for conjunctions (and DNF expressions) of up to
/// `m` range predicates (Theorem C.8).
#[derive(Clone, Debug)]
pub struct PtileMultiIndex {
    dim: usize,
    m: usize,
    n_datasets: usize,
    eps_max: f64,
    delta: f64,
    /// `max_i (ε_i + δ_i)` over the tuple structure's coresets.
    max_combined: f64,
    /// Lifted tuples in `R^{4md+2m}` (per-slot weights `w±`), each labelled
    /// with its dataset.
    tree: KdTree,
    /// Single-predicate fallback for degenerate bands.
    fallback: PtileRangeIndex,
}

impl PtileMultiIndex {
    /// Builds the structure for conjunctions of up to `m` predicates.
    ///
    /// The per-dataset rectangle budget is re-split as `budget^(1/m)` so the
    /// `|R_i|^m` tuple blow-up stays within `params.max_rects_per_dataset`.
    /// Datasets × canonical rectangle tuples are enumerated on
    /// `opts.threads` scoped threads, with bit-identical results for every
    /// thread count.
    ///
    /// # Panics
    /// Panics if `synopses` is empty or `m == 0`.
    pub fn build_opts<S: PercentileSynopsis + Sync>(
        synopses: &[S],
        m: usize,
        params: PtileBuildParams,
        opts: &BuildOptions,
    ) -> Self {
        assert!(!synopses.is_empty(), "repository must be non-empty");
        assert!(m >= 1, "need at least one predicate slot");
        let inner = Self::per_slot_params(&params, m);
        let n = synopses.len();
        let params_ref = &params;
        let inner_ref = &inner;
        let parts = par_map(opts, synopses, |i, syn| {
            Self::dataset_part(i, syn, m, params_ref, inner_ref, n)
        });
        let fallback = PtileRangeIndex::build_opts(synopses, params.clone(), opts);
        Self::from_parts(
            synopses[0].dim(),
            m,
            params.delta,
            parts,
            fallback,
            opts.threads,
        )
    }

    /// The per-dataset rectangle budget re-split as `budget^(1/m)` so the
    /// `|R_i|^m` tuple blow-up stays within `params.max_rects_per_dataset`.
    fn per_slot_params(params: &PtileBuildParams, m: usize) -> PtileBuildParams {
        let tuple_budget = params.max_rects_per_dataset.max(1);
        let per_slot_budget = (tuple_budget as f64).powf(1.0 / m as f64).floor().max(1.0) as usize;
        PtileBuildParams {
            max_rects_per_dataset: per_slot_budget,
            ..params.clone()
        }
    }

    /// One dataset's tuple enumeration (Theorem C.8 preprocessing); pure
    /// function of `(i, synopsis, params)` with a per-dataset RNG stream.
    fn dataset_part<S: PercentileSynopsis>(
        i: usize,
        syn: &S,
        m: usize,
        params: &PtileBuildParams,
        inner: &PtileBuildParams,
        n: usize,
    ) -> TuplePart {
        let dim = syn.dim();
        let mut rng = StdRng::seed_from_u64(params.dataset_seed(i));
        let cs = build_coreset(syn, inner, n, &mut rng);
        let eps_i = super::params::effective_eps(cs.eps_i, params.eps_override);
        let c_i = eps_i + params.delta;
        let rects = cs.grid.enumerate_rects();
        let weights = rect_weights(&cs.sample, &rects);
        // Per-slot building block: (ρ⁻, ρ̂⁻, ρ⁺, ρ̂⁺).
        let blocks: Vec<(Vec<f64>, f64)> = rects
            .iter()
            .zip(&weights)
            .map(|(rect, &w)| {
                let hat = cs.grid.one_step_expansion(rect);
                let mut b = Vec::with_capacity(4 * dim);
                b.extend_from_slice(rect.lo());
                b.extend_from_slice(hat.lo());
                b.extend_from_slice(rect.hi());
                b.extend_from_slice(hat.hi());
                (b, w)
            })
            .collect();
        // Odometer over m slots.
        let mut lifted = Vec::with_capacity(blocks.len().pow(m as u32) * (4 * m * dim + 2 * m));
        let mut idx = vec![0usize; m];
        loop {
            for &s in &idx {
                lifted.extend_from_slice(&blocks[s].0);
            }
            for &s in &idx {
                lifted.push(blocks[s].1 + c_i);
                lifted.push(blocks[s].1 - c_i);
            }
            let mut slot = 0;
            loop {
                if slot == m {
                    break;
                }
                idx[slot] += 1;
                if idx[slot] < blocks.len() {
                    break;
                }
                idx[slot] = 0;
                slot += 1;
            }
            if slot == m {
                break;
            }
        }
        TuplePart { lifted, eps_i, c_i }
    }

    /// Deterministic dataset-order merge of the tuple parts.
    fn from_parts(
        dim: usize,
        m: usize,
        delta: f64,
        parts: Vec<TuplePart>,
        fallback: PtileRangeIndex,
        threads: usize,
    ) -> Self {
        let n = parts.len();
        let lifted_dim = 4 * m * dim + 2 * m;
        let mut lifted: Vec<f64> = Vec::new();
        let mut owner: Vec<u32> = Vec::new();
        let mut eps_max: f64 = 0.0;
        let mut max_combined: f64 = 0.0;
        for (i, mut part) in parts.into_iter().enumerate() {
            eps_max = eps_max.max(part.eps_i);
            max_combined = max_combined.max(part.c_i);
            owner.extend(std::iter::repeat_n(
                i as u32,
                part.lifted.len() / lifted_dim,
            ));
            lifted.append(&mut part.lifted);
        }
        let tree = KdTree::build_labeled(lifted_dim, lifted, owner, threads);
        PtileMultiIndex {
            dim,
            m,
            n_datasets: n,
            eps_max,
            delta,
            max_combined,
            tree,
            fallback,
        }
    }

    /// Predicate arity `m`.
    pub fn arity(&self) -> usize {
        self.m
    }

    /// Number of indexed datasets.
    pub fn n_datasets(&self) -> usize {
        self.n_datasets
    }

    /// Achieved sampling error of the tuple structure (the fallback index
    /// typically achieves a smaller ε; guarantees quote the worse one).
    pub fn eps(&self) -> f64 {
        self.eps_max.max(self.fallback.eps())
    }

    /// Synopsis error bound δ used at build time.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Worst-case query margin `max_i (ε_i + δ_i)` across the tuple
    /// structure and the fallback.
    pub fn margin(&self) -> f64 {
        self.max_combined.max(self.fallback.margin())
    }

    /// Guarantee band per predicate: `a_ℓ − slack ≤ M_{R_ℓ} ≤ b_ℓ + slack`.
    pub fn slack(&self) -> f64 {
        2.0 * self.margin()
    }

    /// Number of lifted tuple points.
    pub fn lifted_points(&self) -> usize {
        self.tree.len()
    }

    /// Heap footprint in bytes: the tuple tree plus the fallback index.
    pub fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes() + self.fallback.memory_bytes()
    }

    /// Answers a conjunction of up to `m` percentile range predicates.
    ///
    /// Read-only: the index can be shared (`&self`, e.g. behind an `Arc`)
    /// across query threads. Allocates a fresh [`QueryScratch`] per call;
    /// query loops should prefer [`query_with`](Self::query_with).
    ///
    /// # Panics
    /// Panics if `preds` is empty or longer than `m`.
    pub fn query(&self, preds: &[(Rect, Interval)]) -> Vec<usize> {
        self.query_with(preds, &mut QueryScratch::new())
    }

    /// [`query`](Self::query) with caller-provided scratch: identical
    /// answers, no per-query buffer allocations on the tuple path.
    ///
    /// # Panics
    /// Panics if `preds` is empty or longer than `m`.
    pub fn query_with(&self, preds: &[(Rect, Interval)], scratch: &mut QueryScratch) -> Vec<usize> {
        assert!(
            !preds.is_empty() && preds.len() <= self.m,
            "conjunction arity must be in 1..={}",
            self.m
        );
        // Degenerate bands (a_θ within some dataset's budget) cannot be
        // decided by the tuple structure: it has no zero-mass auxiliary.
        if preds.iter().any(|(_, t)| t.lo <= self.max_combined) {
            return self.query_by_intersection(preds, scratch);
        }
        scratch.reset_reported(self.n_datasets);
        let QueryScratch {
            reported, region, ..
        } = scratch;
        self.orthant_into(preds, region);
        let mut out = Vec::new();
        self.tree.report_while(region, &mut |j| {
            if reported.insert(j) {
                out.push(j);
            }
            true
        });
        out
    }

    /// Fallback: intersect single-predicate answers (correct superset with
    /// the same per-predicate bands; used when a widened band reaches 0).
    /// The clause accumulator is a packed bitset — word-wise AND per
    /// predicate instead of a byte-wise `Vec<bool>` zip.
    fn query_by_intersection(
        &self,
        preds: &[(Rect, Interval)],
        scratch: &mut QueryScratch,
    ) -> Vec<usize> {
        let mut acc: Option<BitSet> = None;
        for (r, theta) in preds {
            let mut mask = BitSet::new(self.n_datasets);
            // The fallback query borrows the scratch; collect its hits into
            // a local mask (the mask itself is per-predicate state, not
            // reusable scratch).
            self.fallback.query_cb_with(r, *theta, scratch, &mut |j| {
                mask.insert(j);
            });
            acc = Some(match acc {
                None => mask,
                Some(mut prev) => {
                    prev.and_assign(&mask);
                    prev
                }
            });
        }
        acc.map(|mask| mask.iter_ones().collect())
            .unwrap_or_default()
    }

    /// Answers an arbitrary logical expression over percentile predicates:
    /// DNF expansion, one conjunction query per clause, union of results
    /// (cross-clause dedup through a packed bitset).
    pub fn query_expr(&self, expr: &LogicalExpr) -> Result<Vec<usize>, MultiQueryError> {
        self.query_expr_with(expr, &mut QueryScratch::new())
    }

    /// [`query_expr`](Self::query_expr) with caller-provided scratch.
    pub fn query_expr_with(
        &self,
        expr: &LogicalExpr,
        scratch: &mut QueryScratch,
    ) -> Result<Vec<usize>, MultiQueryError> {
        let dnf = expr.to_dnf();
        // `seen` lives outside the scratch while per-clause queries use it.
        let mut seen = std::mem::take(&mut scratch.seen);
        seen.reset(self.n_datasets);
        let mut out = Vec::new();
        let mut result = Ok(());
        for clause in dnf {
            // Degenerate empty clauses (e.g. `And([])`) contribute nothing,
            // matching `MixedQueryEngine`; `query_with` would panic on an
            // empty conjunction.
            if clause.is_empty() {
                continue;
            }
            if clause.len() > self.m {
                result = Err(MultiQueryError::TooManyPredicates {
                    got: clause.len(),
                    max: self.m,
                });
                break;
            }
            let preds: Result<Vec<(Rect, Interval)>, MultiQueryError> = clause
                .iter()
                .map(|p: &Predicate| match &p.measure {
                    MeasureFunction::Percentile(r) => {
                        // Clamp percentile thresholds into [0, 1].
                        let theta = Interval::new(
                            p.theta.lo.max(0.0),
                            p.theta.hi.min(1.0).max(p.theta.lo.max(0.0)),
                        );
                        Ok((r.clone(), theta))
                    }
                    MeasureFunction::TopK { .. } => Err(MultiQueryError::NonPercentile),
                })
                .collect();
            let preds = match preds {
                Ok(p) => p,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            for j in self.query_with(&preds, scratch) {
                if seen.insert(j) {
                    out.push(j);
                }
            }
        }
        scratch.seen = seen;
        result.map(|()| out)
    }

    /// Batch variant of [`query_expr`](Self::query_expr): answers every
    /// expression on the `opts` worker pool, one reusable scratch per
    /// worker thread. Results come back in input order and are
    /// **bit-identical** to calling [`query_expr`](Self::query_expr) on
    /// each expression sequentially, for every thread count.
    pub fn query_expr_batch_opts(
        &self,
        exprs: &[LogicalExpr],
        opts: &BuildOptions,
    ) -> Vec<Result<Vec<usize>, MultiQueryError>> {
        par_map_with(opts, exprs, QueryScratch::new, |scratch, _, expr| {
            self.query_expr_with(expr, scratch)
        })
    }

    /// The query orthant over all `m` slots, written into a reused region
    /// buffer. Conjunctions shorter than `m` are padded with the trivial
    /// predicate (`θ = [0, 1]`) on the first rectangle.
    fn orthant_into(&self, preds: &[(Rect, Interval)], region: &mut Region) {
        let d = self.dim;
        let m = self.m;
        let trivial = Interval::new(0.0, 1.0);
        region.reset(4 * m * d + 2 * m);
        for l in 0..m {
            let (r, theta) = match preds.get(l) {
                Some((r, theta)) => (r, *theta),
                None => (&preds[0].0, trivial),
            };
            assert_eq!(r.dim(), d, "query rectangle dimension mismatch");
            let base = l * 4 * d;
            for h in 0..d {
                region.set_lo(base + h, r.lo_at(h), false);
                region.set_hi(base + d + h, r.lo_at(h), true);
                region.set_hi(base + 2 * d + h, r.hi_at(h), false);
                region.set_lo(base + 3 * d + h, r.hi_at(h), true);
            }
            region.set_lo(4 * m * d + 2 * l, theta.lo, false);
            region.set_hi(4 * m * d + 2 * l + 1, theta.hi, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_geom::Point;
    use dds_synopsis::ExactSynopsis;

    /// Three datasets with controlled masses in two disjoint regions
    /// A = [0, 10] and B = [20, 30]:
    ///  - ds0: 50% in A, 50% in B
    ///  - ds1: 100% in A
    ///  - ds2: 20% in A, 80% in B
    fn synopses() -> Vec<ExactSynopsis> {
        let spread = |lo: f64, n: usize| -> Vec<Point> {
            (0..n)
                .map(|i| Point::one(lo + 10.0 * (i as f64 + 0.5) / n as f64))
                .collect()
        };
        let mut ds0 = spread(0.0, 5);
        ds0.extend(spread(20.0, 5));
        let ds1 = spread(0.0, 10);
        let mut ds2 = spread(0.0, 2);
        ds2.extend(spread(20.0, 8));
        vec![
            ExactSynopsis::new(ds0),
            ExactSynopsis::new(ds1),
            ExactSynopsis::new(ds2),
        ]
    }

    fn index() -> PtileMultiIndex {
        PtileMultiIndex::build_opts(
            &synopses(),
            2,
            PtileBuildParams::exact_centralized(),
            &BuildOptions::serial(),
        )
    }

    fn region_a() -> Rect {
        Rect::interval(-1.0, 11.0)
    }

    fn region_b() -> Rect {
        Rect::interval(19.0, 31.0)
    }

    #[test]
    fn conjunction_of_two_predicates() {
        let idx = index();
        assert_eq!(idx.eps(), 0.0);
        // ≥ 40% in A and ≥ 40% in B: only ds0.
        let hits = idx.query(&[
            (region_a(), Interval::new(0.4, 1.0)),
            (region_b(), Interval::new(0.4, 1.0)),
        ]);
        assert_eq!(hits, vec![0]);
    }

    #[test]
    fn conjunction_with_two_sided_bands() {
        let idx = index();
        // Mass in A within [0.1, 0.3] and mass in B within [0.7, 0.9]: ds2.
        let hits = idx.query(&[
            (region_a(), Interval::new(0.1, 0.3)),
            (region_b(), Interval::new(0.7, 0.9)),
        ]);
        assert_eq!(hits, vec![2]);
    }

    #[test]
    fn single_predicate_clause_is_padded() {
        let idx = index();
        let mut hits = idx.query(&[(region_a(), Interval::new(0.4, 1.0))]);
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn degenerate_band_falls_back_to_intersection() {
        let idx = index();
        // Mass in B within [0, 0.1] (degenerate lower bound) and ≥ 0.9 in A:
        // ds1 (0 in B, 1.0 in A).
        let hits = idx.query(&[
            (region_b(), Interval::new(0.0, 0.1)),
            (region_a(), Interval::new(0.9, 1.0)),
        ]);
        assert_eq!(hits, vec![1]);
    }

    #[test]
    fn dnf_expression_union() {
        let idx = index();
        // (≥ 0.9 in A) OR (≥ 0.7 in B): ds1 ∪ ds2.
        let expr = LogicalExpr::Or(vec![
            LogicalExpr::Pred(Predicate::percentile_at_least(region_a(), 0.9)),
            LogicalExpr::Pred(Predicate::percentile_at_least(region_b(), 0.7)),
        ]);
        let mut hits = idx.query_expr(&expr).unwrap();
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2]);
    }

    #[test]
    fn oversized_clause_is_rejected() {
        let idx = index();
        let p = Predicate::percentile_at_least(region_a(), 0.5);
        let expr = LogicalExpr::And(vec![
            LogicalExpr::Pred(p.clone()),
            LogicalExpr::Pred(p.clone()),
            LogicalExpr::Pred(p),
        ]);
        assert_eq!(
            idx.query_expr(&expr),
            Err(MultiQueryError::TooManyPredicates { got: 3, max: 2 })
        );
    }

    #[test]
    fn non_percentile_predicate_is_rejected() {
        let idx = index();
        let expr = LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], 1, 0.5));
        assert_eq!(idx.query_expr(&expr), Err(MultiQueryError::NonPercentile));
    }
}
