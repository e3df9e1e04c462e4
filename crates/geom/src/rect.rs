//! Axis-parallel hyper-rectangles and orthants.

use crate::Point;
use std::fmt;

/// An axis-parallel hyper-rectangle `R = [lo_1, hi_1] × … × [lo_d, hi_d]`.
///
/// Bounds may be infinite, so the same type represents *orthants* (open
/// rectangles defined by a single corner, Section 2 of the paper). A
/// rectangle is always *valid*: `lo_h ≤ hi_h` for every dimension `h`.
#[derive(Clone, PartialEq)]
pub struct Rect {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Rect {
    /// Creates a rectangle from its two opposite corners.
    ///
    /// # Panics
    /// Panics if the corners have different dimensions, are empty, or if
    /// `lo_h > hi_h` for some `h`.
    pub fn from_bounds(lo: &[f64], hi: &[f64]) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner dimension mismatch");
        assert!(!lo.is_empty(), "rectangles must have dimension >= 1");
        for h in 0..lo.len() {
            assert!(
                lo[h] <= hi[h],
                "invalid rectangle: lo[{h}] = {} > hi[{h}] = {}",
                lo[h],
                hi[h]
            );
        }
        Rect {
            lo: lo.to_vec(),
            hi: hi.to_vec(),
        }
    }

    /// Creates the 1-dimensional rectangle (interval) `[lo, hi]`.
    pub fn interval(lo: f64, hi: f64) -> Self {
        Rect::from_bounds(&[lo], &[hi])
    }

    /// The rectangle covering all of `R^d`.
    pub fn full(dim: usize) -> Self {
        Rect {
            lo: vec![f64::NEG_INFINITY; dim],
            hi: vec![f64::INFINITY; dim],
        }
    }

    /// The smallest rectangle containing every point of `points`.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn bounding(points: &[Point]) -> Self {
        assert!(!points.is_empty(), "bounding box of an empty set");
        let d = points[0].dim();
        let mut lo = vec![f64::INFINITY; d];
        let mut hi = vec![f64::NEG_INFINITY; d];
        for p in points {
            assert_eq!(p.dim(), d, "mixed dimensions in bounding box");
            for h in 0..d {
                lo[h] = lo[h].min(p[h]);
                hi[h] = hi[h].max(p[h]);
            }
        }
        Rect { lo, hi }
    }

    /// The dimension `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner `R^-`.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner `R^+`.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// `R^-_h`.
    #[inline]
    pub fn lo_at(&self, h: usize) -> f64 {
        self.lo[h]
    }

    /// `R^+_h`.
    #[inline]
    pub fn hi_at(&self, h: usize) -> f64 {
        self.hi[h]
    }

    /// True if the (closed) rectangle contains `p`.
    #[inline]
    pub fn contains_point(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.dim());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(p)
            .all(|((lo, hi), x)| *lo <= *x && *x <= *hi)
    }

    /// True if `other ⊆ self` (closed containment; boundaries may touch).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        (0..self.dim()).all(|h| self.lo[h] <= other.lo[h] && other.hi[h] <= self.hi[h])
    }

    /// The strict containment `other ⊂⊂ self` of Section 4.3: `other ⊂ self`
    /// and the boundary of `other` does not intersect the boundary of
    /// `self` — i.e. every facet of `other` is strictly inside `self`.
    #[inline]
    pub fn strictly_contains(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        (0..self.dim()).all(|h| self.lo[h] < other.lo[h] && other.hi[h] < self.hi[h])
    }

    /// True if the two closed rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        (0..self.dim()).all(|h| self.lo[h] <= other.hi[h] && other.lo[h] <= self.hi[h])
    }

    /// Counts the points of `points` inside the rectangle. This is the
    /// numerator of the percentile measure function `M_R(P) = |R ∩ P| / |P|`.
    pub fn count_inside(&self, points: &[Point]) -> usize {
        points.iter().filter(|p| self.contains_point(p)).count()
    }

    /// The percentile measure `M_R(P) = |R ∩ P| / |P|` of a point set.
    ///
    /// Returns 0 for an empty set (the paper only applies measure functions
    /// where they are well-defined; 0 is a safe total extension for tooling).
    pub fn mass(&self, points: &[Point]) -> f64 {
        if points.is_empty() {
            return 0.0;
        }
        self.count_inside(points) as f64 / points.len() as f64
    }

    /// Volume of the rectangle (`∞` if unbounded, 0 if degenerate).
    pub fn volume(&self) -> f64 {
        (0..self.dim()).map(|h| self.hi[h] - self.lo[h]).product()
    }

    /// The center point. Meaningful only for bounded rectangles.
    pub fn center(&self) -> Point {
        Point::new(
            (0..self.dim())
                .map(|h| 0.5 * (self.lo[h] + self.hi[h]))
                .collect(),
        )
    }

    /// Intersection of two rectangles, or `None` if they are disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        let lo: Vec<f64> = (0..self.dim())
            .map(|h| self.lo[h].max(other.lo[h]))
            .collect();
        let hi: Vec<f64> = (0..self.dim())
            .map(|h| self.hi[h].min(other.hi[h]))
            .collect();
        Some(Rect { lo, hi })
    }

    /// The fraction of this rectangle's volume covered by `other`
    /// (0 if disjoint; 1 if `self ⊆ other`). Used by histogram synopses to
    /// apportion cell mass. Degenerate (zero-volume) rectangles count as
    /// fully covered when they intersect `other`.
    pub fn overlap_fraction(&self, other: &Rect) -> f64 {
        match self.intersection(other) {
            None => 0.0,
            Some(inter) => {
                let v = self.volume();
                if v == 0.0 || !v.is_finite() {
                    1.0
                } else {
                    (inter.volume() / v).clamp(0.0, 1.0)
                }
            }
        }
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R[")?;
        for h in 0..self.dim() {
            if h > 0 {
                write!(f, " × ")?;
            }
            write!(f, "[{}, {}]", self.lo[h], self.hi[h])?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_closed() {
        let outer = Rect::from_bounds(&[0.0, 0.0], &[10.0, 10.0]);
        let inner = Rect::from_bounds(&[0.0, 2.0], &[5.0, 8.0]);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        // Touching boundary: contained but not strictly.
        assert!(!outer.strictly_contains(&inner));
    }

    #[test]
    fn strict_containment_requires_all_facets_inside() {
        let outer = Rect::from_bounds(&[0.0, 0.0], &[10.0, 10.0]);
        let strict = Rect::from_bounds(&[1.0, 1.0], &[9.0, 9.0]);
        let touch_one = Rect::from_bounds(&[1.0, 0.0], &[9.0, 9.0]);
        assert!(outer.strictly_contains(&strict));
        assert!(!outer.strictly_contains(&touch_one));
        assert!(outer.contains_rect(&touch_one));
    }

    #[test]
    fn point_membership_includes_boundary() {
        let r = Rect::interval(1.0, 3.0);
        assert!(r.contains_point(&[1.0]));
        assert!(r.contains_point(&[3.0]));
        assert!(!r.contains_point(&[3.0001]));
    }

    #[test]
    fn mass_matches_paper_running_example() {
        // Figure 1: S2 = {2, 4, 6, 10}, R = [3, 8] -> mass 2/4.
        let s2: Vec<Point> = [2.0, 4.0, 6.0, 10.0]
            .iter()
            .map(|&x| Point::one(x))
            .collect();
        let r = Rect::interval(3.0, 8.0);
        assert_eq!(r.count_inside(&s2), 2);
        assert!((r.mass(&s2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn orthant_with_infinite_bounds() {
        let orthant = Rect::from_bounds(&[3.0, f64::NEG_INFINITY], &[f64::INFINITY, 8.0]);
        assert!(orthant.contains_point(&[100.0, -100.0]));
        assert!(!orthant.contains_point(&[2.0, 0.0]));
    }

    #[test]
    fn intersection_and_overlap() {
        let a = Rect::from_bounds(&[0.0, 0.0], &[4.0, 4.0]);
        let b = Rect::from_bounds(&[2.0, 2.0], &[6.0, 6.0]);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Rect::from_bounds(&[2.0, 2.0], &[4.0, 4.0]));
        assert!((a.overlap_fraction(&b) - 0.25).abs() < 1e-12);
        let far = Rect::from_bounds(&[10.0, 10.0], &[11.0, 11.0]);
        assert_eq!(a.intersection(&far), None);
        assert_eq!(a.overlap_fraction(&far), 0.0);
    }

    #[test]
    fn bounding_box() {
        let pts = vec![
            Point::two(1.0, 5.0),
            Point::two(-2.0, 3.0),
            Point::two(0.0, 7.0),
        ];
        let b = Rect::bounding(&pts);
        assert_eq!(b, Rect::from_bounds(&[-2.0, 3.0], &[1.0, 7.0]));
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_panic() {
        let _ = Rect::interval(2.0, 1.0);
    }
}
