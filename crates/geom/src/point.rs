//! Points in `R^d` with runtime dimension.

use std::fmt;
use std::ops::{Deref, Index};

/// A point in `R^d`. The dimension is a runtime value but is expected to be a
/// small constant (`d = O(1)` throughout the paper).
#[derive(Clone, PartialEq)]
pub struct Point {
    coords: Vec<f64>,
}

impl Point {
    /// Creates a point from its coordinates.
    ///
    /// # Panics
    /// Panics if `coords` is empty: the paper's structures are defined for
    /// `d ≥ 1`.
    pub fn new(coords: Vec<f64>) -> Self {
        assert!(!coords.is_empty(), "points must have dimension >= 1");
        Point { coords }
    }

    /// Creates a 1-dimensional point.
    pub fn one(x: f64) -> Self {
        Point { coords: vec![x] }
    }

    /// Creates a 2-dimensional point.
    pub fn two(x: f64, y: f64) -> Self {
        Point { coords: vec![x, y] }
    }

    /// The dimension `d` of the ambient space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// The `h`-th coordinate.
    #[inline]
    pub fn coord(&self, h: usize) -> f64 {
        self.coords[h]
    }

    /// Borrow the coordinates as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.coords
    }

    /// Inner product `⟨self, v⟩` — the *score* `ω(p, v)` of the paper
    /// (Section 1.2, preference measure functions).
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    #[inline]
    pub fn dot(&self, v: &[f64]) -> f64 {
        assert_eq!(
            self.coords.len(),
            v.len(),
            "dimension mismatch in dot product"
        );
        self.coords.iter().zip(v).map(|(a, b)| a * b).sum()
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.coords.iter().map(|c| c * c).sum::<f64>().sqrt()
    }

    /// Returns the point scaled by `s`.
    pub fn scaled(&self, s: f64) -> Point {
        Point {
            coords: self.coords.iter().map(|c| c * s).collect(),
        }
    }

    /// Returns a unit-norm copy of the point.
    ///
    /// # Panics
    /// Panics if the point is the origin.
    pub fn normalized(&self) -> Point {
        let n = self.norm();
        assert!(n > 0.0, "cannot normalize the origin");
        self.scaled(1.0 / n)
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{:?}", self.coords)
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Point::new(coords)
    }
}

impl From<&[f64]> for Point {
    fn from(coords: &[f64]) -> Self {
        Point::new(coords.to_vec())
    }
}

impl Index<usize> for Point {
    type Output = f64;
    #[inline]
    fn index(&self, h: usize) -> &f64 {
        &self.coords[h]
    }
}

impl Deref for Point {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        &self.coords
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_and_coords() {
        let p = Point::two(3.0, 4.0);
        assert_eq!(p.dim(), 2);
        assert_eq!(p.coord(0), 3.0);
        assert_eq!(p[1], 4.0);
    }

    #[test]
    fn dot_and_norm() {
        let p = Point::two(3.0, 4.0);
        assert_eq!(p.dot(&[1.0, 0.0]), 3.0);
        assert_eq!(p.norm(), 5.0);
        let u = p.normalized();
        assert!((u.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn empty_point_panics() {
        let _ = Point::new(vec![]);
    }

    #[test]
    #[should_panic]
    fn mismatched_dot_panics() {
        let _ = Point::one(1.0).dot(&[1.0, 2.0]);
    }
}
