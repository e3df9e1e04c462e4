//! Ptile baselines.

use crate::framework::{Interval, Repository};
use dds_geom::Rect;
use dds_rangetree::{BuildableIndex, KdTree, OrthoIndex, Region};
use dds_synopsis::PercentileSynopsis;

/// Centralized exact baseline (Section 4.1, "the naive solution"): one
/// orthogonal counting structure per dataset; a query walks all `N`
/// datasets and computes `|P_i ∩ R| / |P_i|` exactly. Query time Ω(N).
#[derive(Clone, Debug)]
pub struct LinearScanPtile {
    trees: Vec<KdTree>,
    sizes: Vec<usize>,
    dim: usize,
}

impl LinearScanPtile {
    /// Builds per-dataset counting structures.
    pub fn build(repo: &Repository) -> Self {
        let trees: Vec<KdTree> = repo
            .point_sets()
            .map(|pts| {
                KdTree::build(
                    repo.dim(),
                    pts.iter().map(|p| p.as_slice().to_vec()).collect(),
                )
            })
            .collect();
        let sizes = repo.point_sets().map(|p| p.len()).collect();
        LinearScanPtile {
            trees,
            sizes,
            dim: repo.dim(),
        }
    }

    /// Exact percentile mass of dataset `i` in `r`.
    pub fn mass(&self, i: usize, r: &Rect) -> f64 {
        let region = Region::closed(r.lo().to_vec(), r.hi().to_vec());
        self.trees[i].count(&region) as f64 / self.sizes[i] as f64
    }

    /// Exact `q_Π(P)` for a percentile range predicate.
    pub fn query(&self, r: &Rect, theta: Interval) -> Vec<usize> {
        assert_eq!(r.dim(), self.dim, "query rectangle dimension mismatch");
        (0..self.trees.len())
            .filter(|&i| theta.contains(self.mass(i, r)))
            .collect()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.trees.iter().map(KdTree::memory_bytes).sum()
    }
}

/// Federated scan baseline in the spirit of Fainder \[8\]: evaluate every
/// synopsis' mass per query and keep datasets whose *widened* band
/// `[a − δ, b + δ]` admits the estimate (recall-preserving mode). Query
/// time Ω(N · cost(mass)).
#[derive(Clone, Debug)]
pub struct SynopsisScanPtile<S> {
    synopses: Vec<S>,
    delta: f64,
}

impl<S: PercentileSynopsis> SynopsisScanPtile<S> {
    /// Wraps a repository of synopses with error bound `delta`.
    pub fn new(synopses: Vec<S>, delta: f64) -> Self {
        assert!(!synopses.is_empty());
        assert!((0.0..1.0).contains(&delta));
        SynopsisScanPtile { synopses, delta }
    }

    /// Recall-preserving federated answer: supersets `q_Π(P)`, every
    /// reported `j` has `M_R(S_{P_j}) ∈ [a − δ, b + δ]` (hence
    /// `M_R(P_j) ∈ [a − 2δ, b + 2δ]`).
    pub fn query(&self, r: &Rect, theta: Interval) -> Vec<usize> {
        let widened = theta.widened(self.delta);
        self.synopses
            .iter()
            .enumerate()
            .filter(|(_, s)| widened.contains(s.mass(r)))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Dataset;
    use dds_synopsis::ExactSynopsis;

    fn repo() -> Repository {
        Repository::new(vec![
            Dataset::from_rows("a", vec![vec![1.0], vec![7.0], vec![9.0]]),
            Dataset::from_rows("b", vec![vec![2.0], vec![4.0], vec![6.0], vec![10.0]]),
        ])
    }

    #[test]
    fn linear_scan_is_exact() {
        let scan = LinearScanPtile::build(&repo());
        assert_eq!(
            scan.query(&Rect::interval(3.0, 8.0), Interval::new(0.2, 1.0)),
            vec![0, 1]
        );
        assert_eq!(
            scan.query(&Rect::interval(3.0, 8.0), Interval::new(0.2, 0.4)),
            vec![0]
        );
        assert!((scan.mass(1, &Rect::interval(3.0, 8.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn synopsis_scan_with_exact_synopses_is_exact() {
        let syns = repo().exact_synopses();
        let scan = SynopsisScanPtile::new(syns, 0.0);
        assert_eq!(
            scan.query(&Rect::interval(3.0, 8.0), Interval::new(0.2, 0.4)),
            vec![0]
        );
    }

    #[test]
    fn widened_band_preserves_recall_under_noise() {
        // A deliberately coarse synopsis: mass off by up to delta.
        #[derive(Clone)]
        struct Noisy(ExactSynopsis, f64);
        impl PercentileSynopsis for Noisy {
            fn dim(&self) -> usize {
                PercentileSynopsis::dim(&self.0)
            }
            fn sample(&self, n: usize, rng: &mut dyn rand::RngCore) -> Vec<dds_geom::Point> {
                self.0.sample(n, rng)
            }
            fn mass(&self, r: &Rect) -> f64 {
                (self.0.mass(r) + self.1).clamp(0.0, 1.0)
            }
            fn memory_bytes(&self) -> usize {
                0
            }
        }
        let syns: Vec<Noisy> = repo()
            .exact_synopses()
            .into_iter()
            .map(|s| Noisy(s, 0.08))
            .collect();
        let scan = SynopsisScanPtile::new(syns, 0.08);
        let r = Rect::interval(3.0, 8.0);
        // True masses 1/3 and 1/2; estimates +0.08 off. θ = [0.45, 0.55]
        // truly matches only dataset 1; its estimate (0.58) falls outside
        // θ, but inside the widened band, which keeps it.
        let truth = LinearScanPtile::build(&repo()).query(&r, Interval::new(0.45, 0.55));
        assert_eq!(truth, vec![1]);
        assert!(scan.query(&r, Interval::new(0.45, 0.55)).contains(&1));
    }
}
