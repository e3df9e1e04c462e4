//! Shared fixtures for the cross-crate integration tests.
#![allow(dead_code)] // each test binary uses a subset of these helpers

use dds_core::framework::Repository;
use dds_geom::Point;
use dds_workload::RepoSpec;

/// A deterministic mixed-flavour repository (N datasets, ~points each).
pub fn mixed_repo(n: usize, points: usize, dim: usize, seed: u64) -> Repository {
    Repository::from_point_sets(RepoSpec::mixed(n, points, dim, seed).build())
}

/// A deterministic unit-ball repository for Pref tests.
pub fn ball_repo(n: usize, points: usize, dim: usize, seed: u64) -> Repository {
    Repository::from_point_sets(RepoSpec::unit_ball(n, points, dim, seed).build())
}

/// Raw point sets of a repository (for the guarantee checkers).
pub fn point_sets(repo: &Repository) -> Vec<Vec<Point>> {
    repo.point_sets().map(|p| p.to_vec()).collect()
}

/// Sorted copy.
pub fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort_unstable();
    v
}
