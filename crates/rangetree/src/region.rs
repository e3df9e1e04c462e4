//! Axis-parallel query regions, each bound kept in closed form.

/// An axis-parallel box query `∏_h (lo_h, hi_h)` where each bound is
/// independently closed or strict. Strict bounds are required to express
/// the paper's query orthants faithfully (Algorithm 4 uses `(−∞, R⁻_h)` and
/// `(R⁺_h, ∞)` factors).
///
/// # Closed form
///
/// Every bound is stored once, closed: a strict `x > v` is kept as
/// `x ≥ v.next_up()` and a strict `x < v` as `x ≤ v.next_down()`. No `f64`
/// lies strictly between `v` and its neighbour, so the two predicates agree
/// on every non-NaN coordinate, and every test in the crate is a plain
/// `lo ≤ x ≤ hi` per axis, combined with `&` over all axes and no early
/// exit. Signed zeros need no care: `0.0.next_up()` and `(-0.0).next_up()`
/// are both the least positive subnormal, which `±0.0` both fail.
///
/// The one bound with no closed equivalent is the **empty axis**: a strict
/// lower bound at `+∞` (or strict upper bound at `−∞`), which no value
/// satisfies — `∞.next_up()` is `∞` again and would admit a `+∞`
/// coordinate. Such a bound (and a `NaN` bound, which no literal comparison
/// satisfies either) is stored as `NaN`: every `≤` against it is false, so
/// the axis admits nothing and every box is disjoint from it. Algorithm 4
/// reaches it: its orthant sets a strict upper bound at `R⁻`, which is `−∞`
/// for an unbounded query rectangle.
///
/// A `NaN` coordinate satisfies no bound, as with the literal `>`/`≥`
/// predicates; the kd-tree refuses `NaN` at build, only
/// [`BruteForce`](crate::BruteForce) can hold one.
#[derive(Clone, Debug, PartialEq)]
pub struct Region {
    /// Closed lower bounds: axis `h` admits `x` iff `lo[h] ≤ x ≤ hi[h]`.
    lo: Vec<f64>,
    /// Closed upper bounds.
    hi: Vec<f64>,
}

/// The closed lower bound equivalent to `x ≥ v` or, if `strict`, `x > v`.
fn closed_lo(v: f64, strict: bool) -> f64 {
    match (strict, v) {
        (false, _) => v,
        (true, f64::INFINITY) => f64::NAN,
        (true, _) => v.next_up(),
    }
}

/// The closed upper bound equivalent to `x ≤ v` or, if `strict`, `x < v`.
fn closed_hi(v: f64, strict: bool) -> f64 {
    match (strict, v) {
        (false, _) => v,
        (true, f64::NEG_INFINITY) => f64::NAN,
        (true, _) => v.next_down(),
    }
}

impl Region {
    /// A fully closed box `[lo_1, hi_1] × … × [lo_d, hi_d]`.
    ///
    /// # Panics
    /// Panics on an arity mismatch or an empty dimension.
    pub fn closed(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert!(!lo.is_empty(), "regions must have dimension >= 1");
        assert_eq!(lo.len(), hi.len(), "bound arity mismatch");
        Region { lo, hi }
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
        self.lo[h] = closed_lo(v, strict);
    }

    /// In-place variant of [`with_hi`](Self::with_hi) for reused regions.
    #[inline]
    pub fn set_hi(&mut self, h: usize, v: f64, strict: bool) {
        self.hi[h] = closed_hi(v, strict);
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
    }

    /// True if the point `p` satisfies every bound. Tests every axis, with
    /// no early exit.
    #[inline]
    pub fn contains(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.dim());
        let mut inside = true;
        for ((&x, &lo), &hi) in p.iter().zip(&self.lo).zip(&self.hi) {
            inside &= (lo <= x) & (x <= hi);
        }
        inside
    }

    /// Relates the closed box `[blo, bhi]` to dimensions `at..at + blo.len()`
    /// of the region in one pass over every axis, returning
    /// `(meets, inside)`: `meets` is false when no point of the box can
    /// satisfy the region (subtree pruning), `inside` is true when every
    /// point of the box does (whole-subtree reporting without per-point
    /// checks). A box that meets the region but is not inside it overlaps
    /// it partially.
    ///
    /// The box arrives as `f32` because that is how [`crate::KdTree`] stores
    /// node boxes; widening to `f64` is exact, so both decisions are exact
    /// for the box given. The box must be NaN-free; a `NaN` (empty-axis)
    /// bound fails both of its comparisons, so it meets nothing.
    #[inline]
    pub(crate) fn classify_bbox(&self, at: usize, blo: &[f32], bhi: &[f32]) -> (bool, bool) {
        let k = blo.len();
        debug_assert!(bhi.len() == k && at + k <= self.dim());
        let (rlo, rhi) = (&self.lo[at..at + k], &self.hi[at..at + k]);
        let mut meets = true;
        let mut inside = true;
        for (((&blo, &bhi), &lo), &hi) in blo.iter().zip(bhi).zip(rlo).zip(rhi) {
            let (blo, bhi) = (f64::from(blo), f64::from(bhi));
            // The highest value in the box must clear the lower bound and
            // the lowest value the upper bound, else nothing in it matches.
            meets &= (lo <= bhi) & (blo <= hi);
            inside &= (lo <= blo) & (bhi <= hi);
        }
        (meets, inside)
    }
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
        const DISJOINT: (bool, bool) = (false, false);
        const PARTIAL: (bool, bool) = (true, false);
        const CONTAINED: (bool, bool) = (true, true);
        // Region: x > 5 (strict).
        let r = Region::all(1).with_lo(0, 5.0, true);
        // A box ending exactly at 5 cannot contain a satisfying point.
        assert_eq!(r.classify_bbox(0, &[0.0], &[5.0]), DISJOINT);
        assert_eq!(r.classify_bbox(0, &[0.0], &[5.5]), PARTIAL);
        // Containment: a box starting exactly at 5 is not fully inside.
        assert_eq!(r.classify_bbox(0, &[5.0], &[9.0]), PARTIAL);
        assert_eq!(r.classify_bbox(0, &[5.5], &[9.0]), CONTAINED);
        // Closed variant accepts the boundary.
        let rc = Region::all(1).with_lo(0, 5.0, false);
        assert_eq!(rc.classify_bbox(0, &[0.0], &[5.0]), PARTIAL);
        assert_eq!(rc.classify_bbox(0, &[5.0], &[9.0]), CONTAINED);
        // Upper bounds mirror that, and `at` selects the dimensions tested.
        let ru = Region::all(3).with_hi(2, 5.0, true);
        assert_eq!(ru.classify_bbox(2, &[5.0], &[9.0]), DISJOINT);
        assert_eq!(ru.classify_bbox(2, &[0.0], &[5.0]), PARTIAL);
        assert_eq!(ru.classify_bbox(2, &[0.0], &[4.5]), CONTAINED);
        assert_eq!(ru.classify_bbox(0, &[5.0, 0.0], &[9.0, 1.0]), CONTAINED);
        let rcu = Region::all(1).with_hi(0, 5.0, false);
        assert_eq!(rcu.classify_bbox(0, &[5.0], &[9.0]), PARTIAL);
        assert_eq!(rcu.classify_bbox(0, &[0.0], &[5.0]), CONTAINED);
        // The empty axis meets no box, not even one at its infinite bound.
        let empty = Region::all(1).with_hi(0, f64::NEG_INFINITY, true);
        assert_eq!(
            empty.classify_bbox(0, &[f32::NEG_INFINITY], &[0.0]),
            DISJOINT
        );
        let empty = Region::all(1).with_lo(0, f64::INFINITY, true);
        assert_eq!(empty.classify_bbox(0, &[0.0], &[f32::INFINITY]), DISJOINT);
    }

    #[test]
    fn strict_bounds_are_stored_closed() {
        let r = Region::all(2).with_lo(0, 1.0, true).with_hi(1, 1.0, true);
        assert_eq!(r.lo, [1.0f64.next_up(), f64::NEG_INFINITY]);
        assert_eq!(r.hi, [f64::INFINITY, 1.0f64.next_down()]);
        // A strict bound at the far infinity admits nothing, ±∞ included.
        let r = Region::all(2)
            .with_lo(0, f64::INFINITY, true)
            .with_hi(1, f64::NEG_INFINITY, true);
        assert!(r.lo[0].is_nan() && r.hi[1].is_nan());
        assert!(!r.contains(&[f64::INFINITY, 0.0]));
        assert!(!r.contains(&[0.0, f64::NEG_INFINITY]));
        // At the near infinity a strict bound excludes only that infinity.
        let r = Region::all(1).with_lo(0, f64::NEG_INFINITY, true);
        assert!(!r.contains(&[f64::NEG_INFINITY]) && r.contains(&[-f64::MAX]));
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
