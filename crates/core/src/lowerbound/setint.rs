//! Uniform set intersection → CPtile reduction (Appendix B.1, Figure 4).
//!
//! Every occurrence of universe element `u` as the `t`-th item overall of
//! set `S_i` (global position `t = k + m_{i-1}`) contributes two points to
//! the dataset `P_u`: `(−t, −t + M)` on the line `y = x + M` and
//! `(t, t − M)` on `y = x − M`, where `M = Σ|S_i|`. For a query pair
//! `(i, j)` there is a rectangle `ρ_{i,j}` whose intersection with the
//! construction is exactly `G_i ∪ G'_j` (set `i`'s upper-line points and
//! set `j`'s lower-line points), so
//! `u ∈ S_i ∩ S_j ⟺ |P_u ∩ ρ_{i,j}| = 2`. Because the instance is
//! uniform, every dataset has the same size `t = 2r`, and the CPtile query
//! `θ = [1.5/t, 1]` reports exactly the datasets with two points in the
//! rectangle.
//!
//! The CPtile oracle here is [`crate::ptile::PtileThresholdIndex`]: with
//! exact synopses and tiny per-dataset supports the builder indexes every
//! dataset exactly (ε = δ = 0), so the reduction answers are exact.

use crate::pool::BuildOptions;
use crate::ptile::{PtileBuildParams, PtileThresholdIndex};
use dds_geom::{Point, Rect};
use dds_synopsis::ExactSynopsis;

/// A set-intersection oracle backed by a CPtile index over the Figure 4
/// construction.
#[derive(Clone, Debug)]
pub struct SetIntersectionCPtile {
    index: PtileThresholdIndex,
    /// Prefix sizes `m_0 = 0, m_i = m_{i-1} + |S_i|`.
    prefix: Vec<usize>,
    /// Points per dataset (`2 · replication`, uniform).
    points_per_dataset: usize,
    /// Total size `M`.
    total: usize,
    /// Number of sets `g`.
    g: usize,
}

impl SetIntersectionCPtile {
    /// Builds the reduction instance from a *uniform* collection of sets
    /// over the universe `{0, …, universe−1}`.
    ///
    /// # Panics
    /// Panics if the collection is empty or not uniform (unequal dataset
    /// sizes would break the single-θ trick).
    pub fn build(sets: &[Vec<u64>], universe: u64) -> Self {
        assert!(!sets.is_empty(), "need at least one set");
        let total: usize = sets.iter().map(Vec::len).sum();
        let m = total as f64;
        let mut prefix = Vec::with_capacity(sets.len() + 1);
        prefix.push(0usize);
        for s in sets {
            prefix.push(prefix.last().unwrap() + s.len());
        }
        // P_u per universe element.
        let mut datasets: Vec<Vec<Point>> = vec![Vec::new(); universe as usize];
        for (i, s) in sets.iter().enumerate() {
            for (k, &u) in s.iter().enumerate() {
                let t = (k + 1 + prefix[i]) as f64;
                datasets[u as usize].push(Point::two(-t, -t + m));
                datasets[u as usize].push(Point::two(t, t - m));
            }
        }
        let sizes: Vec<usize> = datasets.iter().map(Vec::len).collect();
        let points_per_dataset = sizes[0];
        assert!(
            sizes.iter().all(|&s| s == points_per_dataset && s > 0),
            "collection must be uniform (every element in equally many sets)"
        );
        let synopses: Vec<ExactSynopsis> = datasets.into_iter().map(ExactSynopsis::new).collect();
        // Generous rectangle budget: datasets have 2r points each.
        let params = PtileBuildParams::exact_centralized()
            .with_rect_budget((points_per_dataset * (points_per_dataset + 1)).pow(2));
        let index = PtileThresholdIndex::build_opts(&synopses, params, &BuildOptions::serial());
        assert_eq!(
            index.eps(),
            0.0,
            "reduction datasets must be indexed exactly"
        );
        SetIntersectionCPtile {
            index,
            prefix,
            points_per_dataset,
            total,
            g: sets.len(),
        }
    }

    /// The query rectangle `ρ_{i,j}` of Figure 4: contains exactly `G_i`
    /// (upper line) and `G'_j` (lower line).
    pub fn query_rect(&self, i: usize, j: usize) -> Rect {
        let m = self.total as f64;
        let xlo = -(self.prefix[i + 1] as f64);
        let xhi = self.prefix[j + 1] as f64;
        let ylo = (self.prefix[j] + 1) as f64 - m;
        let yhi = m - (self.prefix[i] + 1) as f64;
        Rect::from_bounds(&[xlo, ylo], &[xhi, yhi])
    }

    /// Answers `S_i ∩ S_j` through the CPtile oracle: queries `ρ_{i,j}`
    /// with `θ = [1.5/t, 1]` and maps reported dataset indexes back to
    /// universe elements.
    ///
    /// # Panics
    /// Panics if `i` or `j` is out of range.
    pub fn intersect(&self, i: usize, j: usize) -> Vec<u64> {
        assert!(i < self.g && j < self.g, "set index out of range");
        let rect = self.query_rect(i, j);
        let a_theta = 1.5 / self.points_per_dataset as f64;
        let mut out: Vec<u64> = self
            .index
            .query(&rect, a_theta)
            .into_iter()
            .map(|u| u as u64)
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_geometry_isolates_gi_and_gpj() {
        // Two sets over a uniform universe: every element in both sets.
        let sets = vec![vec![0u64, 1, 2], vec![2u64, 0, 1]];
        let red = SetIntersectionCPtile::build(&sets, 3);
        let rect = red.query_rect(0, 1);
        // G_0 = upper-line points of set 0 (t = 1..3), G'_1 = lower-line
        // points of set 1 (t = 4..6).
        let m = 6.0;
        for t in [1.0, 2.0, 3.0] {
            assert!(rect.contains_point(&[-t, -t + m]), "G_0 point t={t}");
            assert!(
                !rect.contains_point(&[t, t - m]),
                "G'_0 point t={t} excluded"
            );
        }
        for t in [4.0, 5.0, 6.0] {
            assert!(rect.contains_point(&[t, t - m]), "G'_1 point t={t}");
            assert!(
                !rect.contains_point(&[-t, -t + m]),
                "G_1 point t={t} excluded"
            );
        }
    }

    #[test]
    fn intersections_match_bruteforce() {
        let sets = vec![
            vec![0u64, 2, 4],
            vec![1u64, 2, 3],
            vec![0u64, 3, 4],
            vec![1u64, 0, 2],
            vec![3u64, 1, 4],
        ];
        // Uniformity: every element 0..5 appears exactly 3 times.
        let mut counts = [0usize; 5];
        for s in &sets {
            for &u in s {
                counts[u as usize] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 3));
        let red = SetIntersectionCPtile::build(&sets, 5);
        for i in 0..sets.len() {
            for j in 0..sets.len() {
                let got = red.intersect(i, j);
                let mut want: Vec<u64> = sets[i]
                    .iter()
                    .filter(|u| sets[j].contains(u))
                    .copied()
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "sets {i} ∩ {j}");
            }
        }
    }
}
