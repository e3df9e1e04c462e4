//! Linear-scan reference implementation of the search traits.
//!
//! Used as ground truth in tests and as the Ω(N)-style baseline in
//! micro-benchmarks of the substrate itself.

use crate::{BuildableIndex, OrthoIndex, Region};

/// A brute-force orthogonal "index": stores the points and scans them.
#[derive(Clone, Debug)]
pub struct BruteForce {
    dim: usize,
    points: Vec<Vec<f64>>,
}

impl BuildableIndex for BruteForce {
    fn build(dim: usize, points: Vec<Vec<f64>>) -> Self {
        for p in &points {
            assert_eq!(p.len(), dim, "point dimension mismatch");
        }
        BruteForce { dim, points }
    }
}

impl OrthoIndex for BruteForce {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn report(&self, region: &Region, out: &mut Vec<usize>) {
        for (i, p) in self.points.iter().enumerate() {
            if region.contains(p) {
                out.push(i);
            }
        }
    }

    fn count(&self, region: &Region) -> usize {
        self.points.iter().filter(|p| region.contains(p)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_reports_and_counts() {
        let pts = vec![vec![1.0], vec![2.0], vec![3.0]];
        let b = BruteForce::build(1, pts);
        let region = Region::closed(vec![1.5], vec![3.5]);
        let mut out = vec![];
        b.report(&region, &mut out);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(b.count(&region), 2);
    }
}
