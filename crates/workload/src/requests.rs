//! Served-request stream generators.
//!
//! A network-facing catalog sees *traffic*, not a query list: a small pool
//! of popular filter shapes repeats across many requests (the read-mostly
//! regime the cross-call mask caches exploit), with the occasional
//! malformed ask — here, a preference rank the service never indexed, so
//! error paths are exercised inside the same streams. Everything is
//! deterministic given the seed, like the rest of this crate.

use crate::queries;
use crate::repository::RepoSpec;
use dds_core::framework::{Interval, LogicalExpr, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape parameters of a *selective* request stream: narrow interior
/// rectangles with a threshold lower bound chosen well above typical
/// sampling margins. This is the regime where the routing synopsis earns
/// its keep — most shards hold little mass inside so small a window, yet
/// at realistic shard mixes every shard's bounding box still overlaps it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelectiveShape {
    /// Per-axis rectangle width as a fraction of the repository span
    /// (`0 < width_pct ≤ 1`).
    pub width_pct: f64,
    /// Threshold lower bound every shape asks for (`percentile_at_least`).
    pub theta_lo: f64,
}

impl Default for SelectiveShape {
    fn default() -> Self {
        SelectiveShape {
            width_pct: 0.03,
            theta_lo: 0.6,
        }
    }
}

/// Specification of a deterministic request stream over a repository's
/// value space: `n_requests` expressions cycling through `n_shapes`
/// popular shapes, optionally salting in queries for an unindexed rank.
#[derive(Clone, Debug)]
pub struct RequestStreamSpec {
    /// Requests in the stream.
    pub n_requests: usize,
    /// Distinct popular shapes the stream cycles through.
    pub n_shapes: usize,
    /// Preference rank used by the well-formed shapes (must be indexed by
    /// the serving engine for those requests to succeed).
    pub rank: usize,
    /// Every `missing_rank_every`-th request (1-based) swaps in this rank
    /// instead of [`rank`](Self::rank); `0` disables error salting.
    pub missing_rank_every: usize,
    /// The rank the error-salted requests ask for (expected unindexed).
    pub missing_rank: usize,
    /// RNG seed for the shape pool.
    pub seed: u64,
    /// `Some` switches the shape pool to pure narrow-rectangle
    /// percentile shapes (see [`SelectiveShape`]); `None` (the default)
    /// keeps the mixed `(percentile ∧ top-k) ∨ percentile` pool.
    pub selective: Option<SelectiveShape>,
}

impl RequestStreamSpec {
    /// A stream of `n_requests` over 6 popular shapes, rank 1, no error
    /// salting.
    pub fn new(n_requests: usize, seed: u64) -> Self {
        RequestStreamSpec {
            n_requests,
            n_shapes: 6,
            rank: 1,
            missing_rank_every: 0,
            missing_rank: 7,
            seed,
            selective: None,
        }
    }

    /// A *selective* stream of `n_requests` over 6 narrow interior
    /// percentile shapes (default [`SelectiveShape`]), no error salting —
    /// the routing-heavy traffic of the E18 experiment and the synopsis
    /// equivalence proptests.
    pub fn selective(n_requests: usize, seed: u64) -> Self {
        let mut spec = RequestStreamSpec::new(n_requests, seed);
        spec.selective = Some(SelectiveShape::default());
        spec
    }

    /// Overrides the selective shape parameters (builder-style); also
    /// switches the stream to selective shapes if it wasn't already.
    ///
    /// # Panics
    /// Panics unless `0 < width_pct ≤ 1` and `0 ≤ theta_lo ≤ 1`.
    pub fn with_selective_shape(mut self, shape: SelectiveShape) -> Self {
        assert!(
            shape.width_pct > 0.0 && shape.width_pct <= 1.0,
            "width_pct must be in (0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&shape.theta_lo),
            "theta_lo must be in [0, 1]"
        );
        self.selective = Some(shape);
        self
    }

    /// Sets the popular-shape pool size (builder-style).
    ///
    /// # Panics
    /// Panics if `n_shapes == 0`.
    pub fn with_shapes(mut self, n_shapes: usize) -> Self {
        assert!(n_shapes >= 1, "need at least one shape");
        self.n_shapes = n_shapes;
        self
    }

    /// Makes every `every`-th request ask for `missing_rank`
    /// (builder-style); `every == 0` disables salting.
    pub fn with_missing_rank_every(mut self, every: usize, missing_rank: usize) -> Self {
        self.missing_rank_every = every;
        self.missing_rank = missing_rank;
        self
    }

    /// Materializes the stream against `repo`'s value space: request `i`
    /// is shape `i % n_shapes`, except the error-salted slots. Each shape
    /// is a mixed expression — `(percentile ∧ top-k) ∨ percentile` — whose
    /// rectangles are drawn inside the repository bounding box, so streams
    /// exercise overlapping and disjoint shards alike.
    pub fn exprs(&self, repo: &RepoSpec) -> Vec<LogicalExpr> {
        assert!(self.n_shapes >= 1, "need at least one shape");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let bbox = repo.bbox();
        let dim = repo.dim;
        if let Some(shape) = self.selective {
            // Narrow rectangles centered on interior points (20–80% of
            // each axis span): they overlap typical shard bounding boxes
            // while holding little of any one dataset's mass.
            let shapes: Vec<LogicalExpr> = (0..self.n_shapes)
                .map(|_| {
                    let mut lo = Vec::with_capacity(dim);
                    let mut hi = Vec::with_capacity(dim);
                    for h in 0..dim {
                        let span = bbox.hi_at(h) - bbox.lo_at(h);
                        let c = bbox.lo_at(h) + span * rng.gen_range(0.2..0.8);
                        let half = 0.5 * shape.width_pct * span;
                        lo.push(c - half);
                        hi.push(c + half);
                    }
                    LogicalExpr::Pred(Predicate::percentile_at_least(
                        dds_geom::Rect::from_bounds(&lo, &hi),
                        shape.theta_lo,
                    ))
                })
                .collect();
            // No top-k literals, so error salting has nothing to rewrite;
            // the cycle structure matches the mixed pool's.
            return (0..self.n_requests)
                .map(|i| shapes[i % shapes.len()].clone())
                .collect();
        }
        let shapes: Vec<LogicalExpr> = (0..self.n_shapes)
            .map(|_| {
                let band = queries::random_rect(&mut rng, &bbox);
                let narrow = queries::random_rect(&mut rng, &bbox);
                let v = queries::random_unit_vector(&mut rng, dim);
                let a: f64 = rng.gen_range(0.05..0.6);
                let score = rng.gen_range(bbox.lo_at(0)..=bbox.hi_at(0));
                LogicalExpr::Or(vec![
                    LogicalExpr::And(vec![
                        LogicalExpr::Pred(Predicate::percentile(
                            band,
                            Interval::new(a, (a + 0.5).min(1.0)),
                        )),
                        LogicalExpr::Pred(Predicate::topk_at_least(v, self.rank, score)),
                    ]),
                    LogicalExpr::Pred(Predicate::percentile_at_least(narrow, a)),
                ])
            })
            .collect();
        (0..self.n_requests)
            .map(|i| {
                let mut expr = shapes[i % shapes.len()].clone();
                if self.missing_rank_every != 0 && (i + 1) % self.missing_rank_every == 0 {
                    expr = swap_rank(expr, self.missing_rank);
                }
                expr
            })
            .collect()
    }
}

/// Rewrites every top-k literal in the expression to ask for `rank`.
fn swap_rank(expr: LogicalExpr, rank: usize) -> LogicalExpr {
    match expr {
        LogicalExpr::Pred(mut p) => {
            if let dds_core::framework::MeasureFunction::TopK { k, .. } = &mut p.measure {
                *k = rank;
            }
            LogicalExpr::Pred(p)
        }
        LogicalExpr::And(xs) => {
            LogicalExpr::And(xs.into_iter().map(|x| swap_rank(x, rank)).collect())
        }
        LogicalExpr::Or(xs) => {
            LogicalExpr::Or(xs.into_iter().map(|x| swap_rank(x, rank)).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_cycle_shapes() {
        let repo = RepoSpec::mixed(8, 40, 2, 5);
        let spec = RequestStreamSpec::new(20, 99).with_shapes(4);
        let a = spec.exprs(&repo);
        let b = spec.exprs(&repo);
        assert_eq!(a.len(), 20);
        // Deterministic (structural compare via Debug: expressions carry
        // no NaN, and f64 Debug round-trips).
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Shape cycle: request 0 and 4 share a shape, 0 and 1 do not.
        assert_eq!(format!("{:?}", a[0]), format!("{:?}", a[4]));
        assert_ne!(format!("{:?}", a[0]), format!("{:?}", a[1]));
    }

    #[test]
    fn selective_streams_are_narrow_interior_and_deterministic() {
        let repo = RepoSpec::mixed(6, 30, 2, 11);
        let spec = RequestStreamSpec::selective(10, 21);
        let a = spec.exprs(&repo);
        let b = spec.exprs(&repo);
        assert_eq!(a.len(), 10);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let bbox = repo.bbox();
        for e in &a {
            let LogicalExpr::Pred(p) = e else {
                panic!("selective shapes are single predicates");
            };
            let dds_core::framework::MeasureFunction::Percentile(r) = &p.measure else {
                panic!("selective shapes are percentile predicates");
            };
            assert_eq!(p.theta.lo, SelectiveShape::default().theta_lo);
            for h in 0..repo.dim {
                let span = bbox.hi_at(h) - bbox.lo_at(h);
                let width = r.hi_at(h) - r.lo_at(h);
                assert!(
                    (width - SelectiveShape::default().width_pct * span).abs() < 1e-9,
                    "width {width} at axis {h}"
                );
                assert!(
                    r.lo_at(h) > bbox.lo_at(h) && r.hi_at(h) < bbox.hi_at(h),
                    "interior"
                );
            }
        }
        // The width override threads through and stays deterministic.
        let wide = RequestStreamSpec::selective(4, 21).with_selective_shape(SelectiveShape {
            width_pct: 0.3,
            theta_lo: 0.7,
        });
        let w = wide.exprs(&repo);
        assert_eq!(format!("{w:?}"), format!("{:?}", wide.exprs(&repo)));
        assert_ne!(format!("{:?}", w[0]), format!("{:?}", a[0]));
    }

    #[test]
    fn missing_rank_salting_hits_the_requested_slots() {
        let repo = RepoSpec::mixed(4, 30, 1, 7);
        let exprs = RequestStreamSpec::new(9, 3)
            .with_missing_rank_every(3, 11)
            .exprs(&repo);
        for (i, e) in exprs.iter().enumerate() {
            let has_missing = format!("{e:?}").contains("k: 11");
            assert_eq!(has_missing, (i + 1) % 3 == 0, "request {i}");
        }
    }
}
