//! Per-build routing synopsis: a compact, **sound** upper bound on how
//! much of any single dataset's weight sample can fall inside a query
//! rectangle.
//!
//! The shard routing layer (`dds_core::shard`) wants to answer "might this
//! shard report anything for this percentile predicate?" without touching
//! the shard's indexes. The range index reports dataset `j` through its
//! main structure only when some canonical rectangle `ρ ⊆ R` has sample
//! weight `w(ρ) = |ρ ∩ S_j| / |S_j|` with `w(ρ) + (ε_j + δ_j) ≥ a_θ`, and
//! through the zero-mass path only when `a_θ ≤ ε_j + δ_j`. So an upper
//! bound `U` on `max_j |R ∩ S_j| / |S_j|` proves a shard silent whenever
//! `U + max_j (ε_j + δ_j) < a_θ` — the quantity this synopsis bounds.
//!
//! Two deliberate conservatisms keep the bound sound by construction:
//!
//! * **Partial bins count fully.** Per axis the synopsis keeps shared bin
//!   edges (equi-depth over pooled per-dataset sample quantiles) and a
//!   per-bin *envelope* `env[b] = max_j |bin_b ∩ S_j| / |S_j|` with bins
//!   closed on both ends. A query interval sums the envelope over every
//!   bin it touches, even partially, so the axis total can only
//!   over-state the slab mass — and a value sitting exactly on a shared
//!   edge counts in both neighbouring bins, which again only loosens.
//! * **Axes combine by `min`, not product.** For any rectangle,
//!   `|R ∩ S_j| ≤ min_h |slab_h(R) ∩ S_j|` (the rectangle is contained in
//!   each of its axis slabs). A product of per-axis fractions would
//!   *under*-state correlated data — two points at `(0,0)` and `(1,1)`
//!   give the rectangle `[0, ½]²` true mass ½ but axis masses ½ each,
//!   product ¼ — so the product is **not** a bound; the min is.
//!
//! The envelope is built over the **weight samples** `S_j` (the same
//! samples the lifted pairs are weighted against), not the raw points: a
//! sampled build can place a larger *fraction* of `S_j` inside `R` than
//! the raw fraction, so a raw-point bound would not dominate the quantity
//! the reporting rule actually tests. Exact builds take the support as
//! their sample, so the two notions coincide there.
//!
//! The first and last bin edges of each axis are the pooled minimum and
//! maximum of every dataset's sample, so the synopsis also holds the
//! shard's sample bounding box: [`RoutingSynopsis::mass_bound`] is exactly
//! `0` for a rectangle that misses it on some axis, which is the box skip
//! the shard router counts apart (on an exact build, the raw-point box).
//!
//! A `NaN` sample coordinate makes interval reasoning unsound, so the
//! builder returns `None` and routing falls back to scatter-everywhere.

use dds_geom::{Point, Rect};

/// Bin budget per axis. 48 bins keep the synopsis a few hundred bytes per
/// axis while resolving selective interior predicates well below typical
/// thresholds.
pub(crate) const ROUTING_BINS: usize = 48;

/// Per-dataset quantile points pooled to place the shared bin edges. The
/// edges only steer pruning *power*, never soundness, so a small fixed
/// count per dataset keeps edge placement O(n) instead of sorting the
/// pooled samples.
const EDGE_QUANTILES_PER_DATASET: usize = 9;

/// A per-build mass-bound synopsis: shared per-axis bin edges plus the
/// per-bin max-mass envelope over the member datasets' weight samples.
///
/// Constructed by [`PtileRangeIndex`](super::PtileRangeIndex) builds and
/// consumed by the shard routing fast path via
/// [`MixedQueryEngine::routing_synopsis`](crate::engine::MixedQueryEngine::routing_synopsis).
#[derive(Clone, Debug)]
pub struct RoutingSynopsis {
    /// `edges[h]` — sorted, deduplicated bin edges of axis `h`
    /// (`len >= 1`; a single edge means every sample value coincides).
    edges: Vec<Vec<f64>>,
    /// `env[h][b]` — the largest fraction of any one dataset's weight
    /// sample inside bin `b = [edges[h][b], edges[h][b+1]]` (closed on
    /// both ends; a single-edge axis has one degenerate `[v, v]` bin).
    env: Vec<Vec<f64>>,
}

impl RoutingSynopsis {
    /// Builds the synopsis from per-dataset, per-axis **sorted** weight
    /// sample coordinates (`samples[j][h]`). Returns `None` when any
    /// dataset's axes are `None` (a `NaN` coordinate was seen) or when no
    /// dataset contributed a sample value.
    pub(crate) fn from_sorted_samples(
        dim: usize,
        samples: &[Option<Vec<Vec<f64>>>],
    ) -> Option<Self> {
        if samples.iter().any(Option::is_none) {
            return None;
        }
        let mut edges = Vec::with_capacity(dim);
        let mut env = Vec::with_capacity(dim);
        for h in 0..dim {
            // Edge placement: a few quantiles per dataset, pooled and
            // re-quantiled into the bin budget. Equi-depth over the pool
            // puts resolution where the data mass is.
            let mut pool: Vec<f64> = Vec::new();
            for s in samples.iter().flatten() {
                let xs = &s[h];
                if xs.is_empty() {
                    continue;
                }
                for q in 0..EDGE_QUANTILES_PER_DATASET {
                    let rank = q * (xs.len() - 1) / (EDGE_QUANTILES_PER_DATASET - 1).max(1);
                    pool.push(xs[rank]);
                }
            }
            if pool.is_empty() {
                return None;
            }
            pool.sort_unstable_by(f64::total_cmp);
            let mut e: Vec<f64> = (0..=ROUTING_BINS)
                .map(|b| pool[b * (pool.len() - 1) / ROUTING_BINS])
                .collect();
            e.dedup();
            // Envelope: per bin, the worst single-dataset closed-interval
            // mass fraction. An empty sample contributes nothing (its
            // mass is zero everywhere; its zero-mass reports are covered
            // by the margin term, not by this bound).
            let bins: Vec<(f64, f64)> = if e.len() == 1 {
                vec![(e[0], e[0])]
            } else {
                e.windows(2).map(|w| (w[0], w[1])).collect()
            };
            let mut env_h = vec![0.0f64; bins.len()];
            for s in samples.iter().flatten() {
                let xs = &s[h];
                if xs.is_empty() {
                    continue;
                }
                let m = xs.len() as f64;
                for (b, &(lo, hi)) in bins.iter().enumerate() {
                    let i0 = xs.partition_point(|&x| x < lo);
                    let i1 = xs.partition_point(|&x| x <= hi);
                    let frac = (i1 - i0) as f64 / m;
                    if frac > env_h[b] {
                        env_h[b] = frac;
                    }
                }
            }
            edges.push(e);
            env.push(env_h);
        }
        Some(RoutingSynopsis { edges, env })
    }

    /// Schema dimension the synopsis covers.
    pub fn dim(&self) -> usize {
        self.edges.len()
    }

    /// Bin count of axis `h` (at most `ROUTING_BINS`; fewer after edge
    /// deduplication).
    pub fn bins(&self, h: usize) -> usize {
        self.env[h].len()
    }

    /// An upper bound on `max_j |R ∩ S_j| / |S_j|` for the axis-aligned
    /// rectangle `R`: per axis the envelope sums over every touched bin
    /// (partial bins counted fully), the rectangle takes the `min` over
    /// axes, and the result is nudged up a hair for float safety before
    /// clamping to 1. The bound is exactly `0.0` when, and only when, `R`
    /// misses the sample box `[edges[h][0], edges[h].last()]` on some axis
    /// `h` (every bin holds a sample value, so a touched bin adds mass).
    ///
    /// # Panics
    /// Panics (in debug builds) if `rect.dim() != self.dim()`.
    pub fn mass_bound(&self, rect: &Rect) -> f64 {
        debug_assert_eq!(rect.dim(), self.dim());
        let mut best = 1.0f64;
        for (h, (e, env)) in self.edges.iter().zip(&self.env).enumerate() {
            let (a, b) = (rect.lo_at(h), rect.hi_at(h));
            if b < e[0] || a > e[e.len() - 1] {
                return 0.0;
            }
            let sum: f64 = if e.len() == 1 {
                env[0]
            } else {
                // Bin k spans [e[k], e[k+1]]; it is touched when the
                // closed intervals intersect.
                e.windows(2)
                    .zip(env)
                    .filter(|(w, _)| w[1] >= a && w[0] <= b)
                    .map(|(_, m)| m)
                    .sum()
            };
            // All-positive summation keeps the relative error tiny; the
            // nudge makes the bound safe against it. Clamping to 1 stays
            // sound because a sample fraction never exceeds 1.
            best = best.min((sum * (1.0 + 1e-12)).min(1.0));
        }
        best
    }
}

/// Per-axis sorted coordinates of one dataset's weight sample, or `None`
/// when a `NaN` coordinate was seen (interval reasoning over the sample
/// would then be unsound, so the build disables the synopsis).
pub(crate) fn sorted_sample_axes(dim: usize, sample: &[Point]) -> Option<Vec<Vec<f64>>> {
    let mut axes = vec![Vec::with_capacity(sample.len()); dim];
    for p in sample {
        for (h, axis) in axes.iter_mut().enumerate() {
            let x = p[h];
            if x.is_nan() {
                return None;
            }
            axis.push(x);
        }
    }
    for axis in &mut axes {
        axis.sort_unstable_by(f64::total_cmp);
    }
    Some(axes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axes_of(xs: &[f64]) -> Option<Vec<Vec<f64>>> {
        sorted_sample_axes(1, &xs.iter().map(|&x| Point::one(x)).collect::<Vec<_>>())
    }

    #[test]
    fn bound_dominates_every_single_dataset_mass() {
        // Two 1-d datasets with different concentrations.
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..50).map(|i| 40.0 + i as f64 * 0.2).collect();
        let samples = vec![axes_of(&a), axes_of(&b)];
        let syn = RoutingSynopsis::from_sorted_samples(1, &samples).unwrap();
        for (lo, hi) in [(0.0, 10.0), (40.0, 50.0), (42.0, 43.5), (-5.0, 200.0)] {
            let truth = |xs: &[f64]| {
                xs.iter().filter(|&&x| x >= lo && x <= hi).count() as f64 / xs.len() as f64
            };
            let worst = truth(&a).max(truth(&b));
            let bound = syn.mass_bound(&Rect::interval(lo, hi));
            assert!(
                bound >= worst,
                "bound {bound} must dominate true worst mass {worst} on [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn disjoint_interval_bounds_zero() {
        let a: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let syn = RoutingSynopsis::from_sorted_samples(1, &[axes_of(&a)]).unwrap();
        assert_eq!(syn.mass_bound(&Rect::interval(50.0, 60.0)), 0.0);
        assert_eq!(syn.mass_bound(&Rect::interval(-10.0, -1.0)), 0.0);
        // Touching the range endpoint is not disjoint.
        assert!(syn.mass_bound(&Rect::interval(19.0, 60.0)) > 0.0);
    }

    #[test]
    fn min_over_axes_not_product() {
        // Perfectly correlated 2-d data: the product-of-axes "bound"
        // would understate the diagonal rectangle's true mass.
        let pts: Vec<Point> = (0..10).map(|i| Point::two(i as f64, i as f64)).collect();
        let samples = vec![sorted_sample_axes(2, &pts)];
        let syn = RoutingSynopsis::from_sorted_samples(2, &samples).unwrap();
        // True mass of [0, 4.5]² is 0.5 (points 0..=4).
        let bound = syn.mass_bound(&Rect::from_bounds(&[0.0, 0.0], &[4.5, 4.5]));
        assert!(bound >= 0.5, "min-over-axes bound {bound} must cover 0.5");
    }

    #[test]
    fn nan_disables_the_synopsis() {
        assert!(axes_of(&[1.0, f64::NAN]).is_none());
        let samples = vec![axes_of(&[1.0, 2.0]), None];
        assert!(RoutingSynopsis::from_sorted_samples(1, &samples).is_none());
    }

    #[test]
    fn all_equal_values_make_a_degenerate_bin() {
        let syn = RoutingSynopsis::from_sorted_samples(1, &[axes_of(&[5.0, 5.0, 5.0])]).unwrap();
        assert_eq!(syn.bins(0), 1);
        assert_eq!(syn.mass_bound(&Rect::interval(4.0, 6.0)), 1.0);
        assert_eq!(syn.mass_bound(&Rect::interval(6.0, 7.0)), 0.0);
    }

    #[test]
    fn empty_samples_contribute_zero_mass() {
        let samples = vec![axes_of(&[1.0, 2.0, 3.0]), Some(vec![Vec::new()])];
        let syn = RoutingSynopsis::from_sorted_samples(1, &samples).unwrap();
        assert!(syn.mass_bound(&Rect::interval(1.0, 3.0)) >= 1.0 - 1e-9);
    }
}
