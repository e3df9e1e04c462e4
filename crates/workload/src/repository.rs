//! Whole-repository builders.

use crate::datasets;
use dds_geom::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Flavour of a generated dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepoFlavor {
    /// Uniform over the repository box.
    Uniform,
    /// Gaussian blobs (2–4 clusters).
    Clustered,
    /// Zipf-skewed towards the low corner.
    Skewed,
    /// Correlated coordinates.
    Correlated,
    /// Uniform in the unit ball (for Pref workloads).
    UnitBall,
}

/// One shard of a partitioned repository: the datasets assigned to it plus
/// their **stable global ids** (the dataset's index in the unsharded
/// [`RepoSpec::build`] order), ready to feed a sharded engine's
/// `try_add_shard_opts(repo, global_ids, opts)` ingest path.
#[derive(Clone, Debug)]
pub struct RepoShard {
    /// `global_ids[i]` is the unsharded index of `sets[i]`.
    pub global_ids: Vec<u64>,
    /// The shard's datasets, in shard-local order.
    pub sets: Vec<Vec<Point>>,
}

/// Specification of a synthetic repository `P = {P_1, …, P_N}`.
#[derive(Clone, Debug)]
pub struct RepoSpec {
    /// Number of datasets `N`.
    pub n_datasets: usize,
    /// Minimum dataset size `n_i`.
    pub min_points: usize,
    /// Maximum dataset size `n_i` (inclusive).
    pub max_points: usize,
    /// Dimension `d` (constant across the repository — shared schema).
    pub dim: usize,
    /// Flavour cycle: dataset `i` uses `flavors[i % len]`.
    pub flavors: Vec<RepoFlavor>,
    /// RNG seed.
    pub seed: u64,
}

impl RepoSpec {
    /// A mixed-flavour repository in `[0, 100]^d` — the default workload of
    /// experiments E1–E5 and E8–E11.
    pub fn mixed(n_datasets: usize, points: usize, dim: usize, seed: u64) -> Self {
        RepoSpec {
            n_datasets,
            min_points: points / 2,
            max_points: points.max(2),
            dim,
            flavors: vec![
                RepoFlavor::Uniform,
                RepoFlavor::Clustered,
                RepoFlavor::Skewed,
                RepoFlavor::Correlated,
            ],
            seed,
        }
    }

    /// A unit-ball repository for Pref workloads (E6, E7).
    pub fn unit_ball(n_datasets: usize, points: usize, dim: usize, seed: u64) -> Self {
        RepoSpec {
            n_datasets,
            min_points: points / 2,
            max_points: points.max(2),
            dim,
            flavors: vec![RepoFlavor::UnitBall],
            seed,
        }
    }

    /// The data bounding box implied by the flavours.
    pub fn bbox(&self) -> Rect {
        if self.flavors == [RepoFlavor::UnitBall] {
            Rect::from_bounds(&vec![-1.0; self.dim], &vec![1.0; self.dim])
        } else {
            Rect::from_bounds(&vec![0.0; self.dim], &vec![100.0; self.dim])
        }
    }

    /// Materializes the repository.
    pub fn build(&self) -> Vec<Vec<Point>> {
        assert!(self.n_datasets > 0, "empty repository");
        assert!(self.min_points >= 1 && self.min_points <= self.max_points);
        assert!(!self.flavors.is_empty(), "need at least one flavour");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let bbox = self.bbox();
        (0..self.n_datasets)
            .map(|i| {
                let n = if self.min_points == self.max_points {
                    self.min_points
                } else {
                    rng.gen_range(self.min_points..=self.max_points)
                };
                match self.flavors[i % self.flavors.len()] {
                    RepoFlavor::Uniform => datasets::uniform_cube(&mut rng, n, &bbox),
                    RepoFlavor::Clustered => {
                        let c = rng.gen_range(2..=4);
                        datasets::gaussian_clusters(&mut rng, n, &bbox, c, 0.05)
                    }
                    RepoFlavor::Skewed => {
                        let alpha = rng.gen_range(1.5..4.0);
                        datasets::zipf_skewed(&mut rng, n, &bbox, alpha)
                    }
                    RepoFlavor::Correlated => {
                        let rho = rng.gen_range(0.6..0.99);
                        datasets::correlated(&mut rng, n, &bbox, rho)
                    }
                    RepoFlavor::UnitBall => datasets::unit_ball(&mut rng, n, self.dim),
                }
            })
            .collect()
    }

    /// Materializes the repository partitioned **round-robin** into at most
    /// `k` shards: dataset `i` of [`build`](Self::build) lands in shard
    /// `i % k` with global id `i`. Round-robin deliberately interleaves the
    /// flavour cycle across shards (each shard sees the realistic mix) and
    /// makes shard-local order differ from global order, so a sharded
    /// engine's id translation is actually exercised. The union of the
    /// shards is exactly the unsharded build; shards that would be empty
    /// (`k > n_datasets`) are dropped.
    pub fn shards(&self, k: usize) -> Vec<RepoShard> {
        assert!(k >= 1, "need at least one shard");
        let mut shards: Vec<RepoShard> = (0..k.min(self.n_datasets))
            .map(|_| RepoShard {
                global_ids: Vec::new(),
                sets: Vec::new(),
            })
            .collect();
        for (i, ds) in self.build().into_iter().enumerate() {
            let s = i % shards.len();
            shards[s].global_ids.push(i as u64);
            shards[s].sets.push(ds);
        }
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repositories_are_deterministic() {
        let spec = RepoSpec::mixed(10, 200, 2, 77);
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), y.len());
            assert!(x.iter().zip(y).all(|(p, q)| p.as_slice() == q.as_slice()));
        }
    }

    #[test]
    fn sizes_respect_bounds() {
        let spec = RepoSpec::mixed(20, 100, 1, 5);
        for ds in spec.build() {
            assert!(ds.len() >= 50 && ds.len() <= 100);
        }
    }

    #[test]
    fn shards_partition_the_unsharded_build() {
        let spec = RepoSpec::mixed(11, 60, 2, 31);
        let whole = spec.build();
        for k in [1, 2, 3, 8, 20] {
            let shards = spec.shards(k);
            assert_eq!(shards.len(), k.min(11), "k = {k}");
            let mut seen = vec![false; whole.len()];
            for (s, shard) in shards.iter().enumerate() {
                assert_eq!(shard.global_ids.len(), shard.sets.len());
                for (&gid, ds) in shard.global_ids.iter().zip(&shard.sets) {
                    assert_eq!(gid as usize % shards.len(), s, "round-robin assignment");
                    assert!(!std::mem::replace(&mut seen[gid as usize], true));
                    let orig = &whole[gid as usize];
                    assert_eq!(ds.len(), orig.len());
                    assert!(ds
                        .iter()
                        .zip(orig)
                        .all(|(p, q)| p.as_slice() == q.as_slice()));
                }
            }
            assert!(seen.iter().all(|&s| s), "every dataset lands in a shard");
        }
    }

    #[test]
    fn unit_ball_repo_is_in_ball() {
        let spec = RepoSpec::unit_ball(5, 100, 3, 9);
        for ds in spec.build() {
            assert!(ds.iter().all(|p| p.norm() <= 1.0 + 1e-12));
        }
    }
}
