//! Pref baselines.

use crate::framework::Repository;
use dds_geom::Point;

/// Centralized exact baseline: per query, compute `ω_k(P_i, v)` for every
/// dataset by selection over all inner products. Query time Ω(𝒩).
#[derive(Clone, Debug)]
pub struct LinearScanPref {
    datasets: Vec<Vec<Point>>,
}

impl LinearScanPref {
    /// Snapshots the repository.
    pub fn build(repo: &Repository) -> Self {
        LinearScanPref {
            datasets: repo.point_sets().map(|p| p.to_vec()).collect(),
        }
    }

    /// Exact `ω_k(P_i, v)`.
    pub fn score(&self, i: usize, v: &[f64], k: usize) -> f64 {
        let pts = &self.datasets[i];
        if k == 0 || k > pts.len() {
            return f64::NEG_INFINITY;
        }
        let mut scores: Vec<f64> = pts.iter().map(|p| p.dot(v)).collect();
        let (_, kth, _) = scores.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
        *kth
    }

    /// Exact `q_Π(P)` for `Π = Pred_{M_{v,k}, [a, ∞)}`.
    pub fn query(&self, v: &[f64], k: usize, a: f64) -> Vec<usize> {
        (0..self.datasets.len())
            .filter(|&i| self.score(i, v, k) >= a)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Dataset;

    fn repo() -> Repository {
        Repository::new(vec![
            Dataset::from_rows("a", vec![vec![0.9, 0.0], vec![0.8, 0.1]]),
            Dataset::from_rows("b", vec![vec![0.5, 0.2], vec![0.4, -0.3]]),
        ])
    }

    #[test]
    fn exact_scan() {
        let scan = LinearScanPref::build(&repo());
        assert_eq!(scan.score(0, &[1.0, 0.0], 2), 0.8);
        assert_eq!(scan.query(&[1.0, 0.0], 1, 0.6), vec![0]);
        assert_eq!(scan.query(&[1.0, 0.0], 1, 0.4), vec![0, 1]);
        assert!(scan.query(&[1.0, 0.0], 3, -10.0).is_empty());
    }
}
