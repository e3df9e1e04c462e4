//! Axis-parallel query regions with per-bound strictness.

/// An axis-parallel box query `∏_h (lo_h, hi_h)` where each bound is
/// independently closed or open. Open bounds are required to express the
/// paper's query orthants faithfully (Algorithm 4 uses `(−∞, R⁻_h)` and
/// `(R⁺_h, ∞)` factors) without floating-point nudging.
#[derive(Clone, Debug, PartialEq)]
pub struct Region {
    lo: Vec<f64>,
    hi: Vec<f64>,
    lo_strict: Vec<bool>,
    hi_strict: Vec<bool>,
}

impl Region {
    /// Builds a region with explicit strictness flags.
    ///
    /// # Panics
    /// Panics on arity mismatches or empty dimension.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>, lo_strict: Vec<bool>, hi_strict: Vec<bool>) -> Self {
        assert!(!lo.is_empty(), "regions must have dimension >= 1");
        assert_eq!(lo.len(), hi.len(), "bound arity mismatch");
        assert_eq!(lo.len(), lo_strict.len(), "lo_strict arity mismatch");
        assert_eq!(lo.len(), hi_strict.len(), "hi_strict arity mismatch");
        Region {
            lo,
            hi,
            lo_strict,
            hi_strict,
        }
    }

    /// A fully closed box `[lo_1, hi_1] × … × [lo_d, hi_d]`.
    pub fn closed(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        let d = lo.len();
        Region::new(lo, hi, vec![false; d], vec![false; d])
    }

    /// The unbounded region over `dim` dimensions.
    pub fn all(dim: usize) -> Self {
        Region::closed(vec![f64::NEG_INFINITY; dim], vec![f64::INFINITY; dim])
    }

    /// Dimension of the region.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower bounds.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// True if the lower bound of dimension `h` is strict (open).
    #[inline]
    pub fn lo_strict(&self, h: usize) -> bool {
        self.lo_strict[h]
    }

    /// True if the upper bound of dimension `h` is strict (open).
    #[inline]
    pub fn hi_strict(&self, h: usize) -> bool {
        self.hi_strict[h]
    }

    /// Restricts dimension `h` to the (closed or strict) lower bound `v`.
    pub fn with_lo(mut self, h: usize, v: f64, strict: bool) -> Self {
        self.set_lo(h, v, strict);
        self
    }

    /// Restricts dimension `h` to the (closed or strict) upper bound `v`.
    pub fn with_hi(mut self, h: usize, v: f64, strict: bool) -> Self {
        self.set_hi(h, v, strict);
        self
    }

    /// In-place variant of [`with_lo`](Self::with_lo) for reused regions.
    #[inline]
    pub fn set_lo(&mut self, h: usize, v: f64, strict: bool) {
        self.lo[h] = v;
        self.lo_strict[h] = strict;
    }

    /// In-place variant of [`with_hi`](Self::with_hi) for reused regions.
    #[inline]
    pub fn set_hi(&mut self, h: usize, v: f64, strict: bool) {
        self.hi[h] = v;
        self.hi_strict[h] = strict;
    }

    /// Resets this region to [`Region::all`]`(dim)` **reusing its buffers**
    /// (no allocation once the buffers have grown to `dim`). Query scratch
    /// holds one `Region` and resets it per query instead of building a
    /// fresh orthant on the heap.
    pub fn reset(&mut self, dim: usize) {
        assert!(dim >= 1, "regions must have dimension >= 1");
        self.lo.clear();
        self.lo.resize(dim, f64::NEG_INFINITY);
        self.hi.clear();
        self.hi.resize(dim, f64::INFINITY);
        self.lo_strict.clear();
        self.lo_strict.resize(dim, false);
        self.hi_strict.clear();
        self.hi_strict.resize(dim, false);
    }

    /// True if the point `p` satisfies every bound.
    #[inline]
    pub fn contains(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.dim());
        for (h, &x) in p.iter().enumerate() {
            if self.lo_strict[h] {
                if x <= self.lo[h] {
                    return false;
                }
            } else if x < self.lo[h] {
                return false;
            }
            if self.hi_strict[h] {
                if x >= self.hi[h] {
                    return false;
                }
            } else if x > self.hi[h] {
                return false;
            }
        }
        true
    }

    /// Relates the closed box `[blo, bhi]` to dimensions `at..at + blo.len()`
    /// of the region in one pass: [`Overlap::Disjoint`] when no point of the
    /// box can satisfy the region (subtree pruning), [`Overlap::Contained`]
    /// when every point of the box does (whole-subtree reporting without
    /// per-point checks), [`Overlap::Partial`] otherwise.
    ///
    /// The box arrives as `f32` because that is how [`crate::KdTree`] stores
    /// node boxes; widening to `f64` is exact, so both decisions are exact
    /// for the box given.
    #[inline]
    pub(crate) fn classify_bbox(&self, at: usize, blo: &[f32], bhi: &[f32]) -> Overlap {
        let k = blo.len();
        debug_assert!(bhi.len() == k && at + k <= self.dim());
        let (rlo, rhi) = (&self.lo[at..at + k], &self.hi[at..at + k]);
        let (slo, shi) = (&self.lo_strict[at..at + k], &self.hi_strict[at..at + k]);
        let bhi = &bhi[..k];
        let mut contained = true;
        for h in 0..k {
            let (lo, hi) = (f64::from(blo[h]), f64::from(bhi[h]));
            // The highest value in the box must clear the lower bound and
            // the lowest value the upper bound, else nothing below matches.
            let below = if slo[h] { hi <= rlo[h] } else { hi < rlo[h] };
            let above = if shi[h] { lo >= rhi[h] } else { lo > rhi[h] };
            if below || above {
                return Overlap::Disjoint;
            }
            let lo_in = if slo[h] { lo > rlo[h] } else { lo >= rlo[h] };
            let hi_in = if shi[h] { hi < rhi[h] } else { hi <= rhi[h] };
            contained &= lo_in && hi_in;
        }
        if contained {
            Overlap::Contained
        } else {
            Overlap::Partial
        }
    }
}

/// How a closed box relates to a [`Region`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Overlap {
    /// No point of the box satisfies the region.
    Disjoint,
    /// Some points of the box may satisfy the region.
    Partial,
    /// Every point of the box satisfies the region.
    Contained,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_region_includes_boundary() {
        let r = Region::closed(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert!(r.contains(&[0.0, 1.0]));
        assert!(!r.contains(&[1.0001, 0.5]));
    }

    #[test]
    fn strict_bounds_exclude_boundary() {
        let r = Region::closed(vec![0.0], vec![1.0])
            .with_lo(0, 0.0, true)
            .with_hi(0, 1.0, true);
        assert!(!r.contains(&[0.0]));
        assert!(!r.contains(&[1.0]));
        assert!(r.contains(&[0.5]));
    }

    #[test]
    fn bbox_pruning_respects_strictness() {
        use Overlap::{Contained, Disjoint, Partial};
        // Region: x > 5 (strict).
        let r = Region::all(1).with_lo(0, 5.0, true);
        // A box ending exactly at 5 cannot contain a satisfying point.
        assert_eq!(r.classify_bbox(0, &[0.0], &[5.0]), Disjoint);
        assert_eq!(r.classify_bbox(0, &[0.0], &[5.5]), Partial);
        // Containment: a box starting exactly at 5 is not fully inside.
        assert_eq!(r.classify_bbox(0, &[5.0], &[9.0]), Partial);
        assert_eq!(r.classify_bbox(0, &[5.5], &[9.0]), Contained);
        // Closed variant accepts the boundary.
        let rc = Region::all(1).with_lo(0, 5.0, false);
        assert_eq!(rc.classify_bbox(0, &[0.0], &[5.0]), Partial);
        assert_eq!(rc.classify_bbox(0, &[5.0], &[9.0]), Contained);
        // Upper bounds mirror that, and `at` selects the dimensions tested.
        let ru = Region::all(3).with_hi(2, 5.0, true);
        assert_eq!(ru.classify_bbox(2, &[5.0], &[9.0]), Disjoint);
        assert_eq!(ru.classify_bbox(2, &[0.0], &[5.0]), Partial);
        assert_eq!(ru.classify_bbox(2, &[0.0], &[4.5]), Contained);
        assert_eq!(ru.classify_bbox(0, &[5.0, 0.0], &[9.0, 1.0]), Contained);
        let rcu = Region::all(1).with_hi(0, 5.0, false);
        assert_eq!(rcu.classify_bbox(0, &[5.0], &[9.0]), Partial);
        assert_eq!(rcu.classify_bbox(0, &[0.0], &[5.0]), Contained);
    }

    #[test]
    fn reset_reuses_buffers_across_dimensions() {
        let mut r = Region::all(4).with_lo(0, 3.0, true).with_hi(2, 8.0, false);
        r.reset(2);
        assert_eq!(r, Region::all(2));
        r.reset(6);
        assert_eq!(r, Region::all(6));
        r.set_lo(5, 1.0, false);
        assert!(!r.contains(&[0.0, 0.0, 0.0, 0.0, 0.0, 0.5]));
        assert!(r.contains(&[0.0, 0.0, 0.0, 0.0, 0.0, 1.0]));
    }

    #[test]
    fn algorithm4_style_orthant() {
        // d = 1 lifted to R^4: (rho_lo, rhohat_lo, rho_hi, rhohat_hi) with
        // conditions rho_lo >= 3, rhohat_lo < 3, rho_hi <= 8, rhohat_hi > 8.
        let r = Region::all(4)
            .with_lo(0, 3.0, false)
            .with_hi(1, 3.0, true)
            .with_hi(2, 8.0, false)
            .with_lo(3, 8.0, true);
        // The running example pair ([7,7],[1,9]) lifted to (7,1,7,9).
        assert!(r.contains(&[7.0, 1.0, 7.0, 9.0]));
        // A pair whose expansion stops exactly at the query boundary fails.
        assert!(!r.contains(&[7.0, 3.0, 7.0, 9.0]));
        assert!(!r.contains(&[7.0, 1.0, 7.0, 8.0]));
    }
}
