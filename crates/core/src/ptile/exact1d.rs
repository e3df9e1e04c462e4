//! Exact CPtile in `R¹` for a θ fixed at build time — Appendix C.1,
//! Theorem C.5.
//!
//! Every point `p_j` of a sorted dataset is lifted to
//! `(q_j, r_j, p_j, s_j) ∈ R^4`, where `s_j` is the successor point and
//! `q_j` / `r_j` are the points `cb` and `ca − 1` positions to the left
//! (`ca = ⌈a_θ·n_i⌉`, `cb = ⌊b_θ·n_i⌋`). For a query interval
//! `R = [R⁻, R⁺]` the orthant
//! `q < R⁻ ∧ r ≥ R⁻ ∧ p ≤ R⁺ ∧ s > R⁺` matches **at most one lifted point
//! per dataset** — the one whose `p_j` is the largest point `≤ R⁺` — and it
//! matches iff `a_θ·n_i ≤ |P_i ∩ R| ≤ b_θ·n_i` exactly (Lemmas C.1/C.2).
//! Because matches are unique, a plain `report` is duplicate-free and
//! output-sensitive, and the structure needs no deletions.
//!
//! Sentinels: when `ca = 0`, a dataset with **no** point in `R` also
//! qualifies, represented by a `j = 0` lifted point
//! `(−∞, +∞, −∞, p_1)`.

use crate::framework::{Interval, Repository};
use dds_rangetree::{KdTree, OrthoIndex, Region};

/// Exact 1-d percentile index with fixed θ (Theorem C.5).
///
/// ```
/// use dds_core::framework::{Dataset, Interval, Repository};
/// use dds_core::ptile::ExactCPtile1D;
///
/// let repo = Repository::new(vec![
///     Dataset::from_rows("a", vec![vec![1.0], vec![7.0], vec![9.0]]),
///     Dataset::from_rows("b", vec![vec![2.0], vec![4.0], vec![6.0], vec![10.0]]),
/// ]);
/// // theta fixed at build time; queries are exact, no approximation band.
/// let index = ExactCPtile1D::build(&repo, Interval::new(0.2, 0.4));
/// assert_eq!(index.query(3.0, 8.0), vec![0]); // 1/3 in band, 1/2 not
/// ```
#[derive(Clone, Debug)]
pub struct ExactCPtile1D {
    theta: Interval,
    /// Lifted points in `R^4`, each labelled with its dataset.
    tree: KdTree,
    n_datasets: usize,
}

impl ExactCPtile1D {
    /// Builds the structure over a 1-dimensional repository.
    ///
    /// A `θ.hi` above 1 is read as 1.
    ///
    /// # Panics
    /// Panics if the repository is not 1-dimensional, `θ.lo ∉ [0, 1]` or
    /// `θ.hi < θ.lo`.
    pub fn build(repo: &Repository, theta: Interval) -> Self {
        assert_eq!(repo.dim(), 1, "the exact structure is for R^1");
        assert!(
            (0.0..=1.0).contains(&theta.lo) && theta.hi >= theta.lo,
            "theta must satisfy 0 <= a <= b"
        );
        let b_hi = theta.hi.min(1.0);
        let mut lifted: Vec<f64> = Vec::new();
        let mut owner: Vec<u32> = Vec::new();
        for (i, ds) in repo.datasets().iter().enumerate() {
            let mut xs: Vec<f64> = ds.points().iter().map(|p| p[0]).collect();
            xs.sort_unstable_by(|a, b| a.total_cmp(b));
            let n = xs.len();
            // Integer count bounds: a·n ≤ |P ∩ R| ⟺ |P ∩ R| ≥ ⌈a·n⌉ and
            // |P ∩ R| ≤ b·n ⟺ |P ∩ R| ≤ ⌊b·n⌋ (with float-safety nudges).
            let ca = ((theta.lo * n as f64) - 1e-9).ceil().max(0.0) as usize;
            let cb = ((b_hi * n as f64) + 1e-9).floor() as usize;
            if ca > n || ca > cb {
                // ca > n can never be met; ca > cb means no integer count
                // lies in [a·n, b·n] — the dataset can never qualify.
                continue;
            }
            if ca == 0 {
                // Sentinel for "no point ≤ R⁺" (count 0 qualifies).
                let s0 = xs[0];
                lifted.extend_from_slice(&[
                    f64::NEG_INFINITY,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    s0,
                ]);
                owner.push(i as u32);
            }
            for j in 1..=n {
                // One-based index j over sorted points.
                let p = xs[j - 1];
                let s = if j < n { xs[j] } else { f64::INFINITY };
                // r encodes "at least ca points in [R⁻, p_j]":
                // p_{j-ca+1} ≥ R⁻. If fewer than ca points exist, never.
                let r = if ca == 0 {
                    f64::INFINITY
                } else if j >= ca {
                    xs[j - ca]
                } else {
                    f64::NEG_INFINITY
                };
                // q encodes "at most cb points in [R⁻, p_j]":
                // p_{j-cb} < R⁻. If j ≤ cb, always.
                let q = if j > cb {
                    xs[j - cb - 1]
                } else {
                    f64::NEG_INFINITY
                };
                lifted.extend_from_slice(&[q, r, p, s]);
                owner.push(i as u32);
            }
        }
        ExactCPtile1D {
            theta,
            tree: KdTree::build_labeled(4, lifted, owner, 1),
            n_datasets: repo.len(),
        }
    }

    /// The fixed interval θ.
    pub fn theta(&self) -> Interval {
        self.theta
    }

    /// Number of indexed datasets.
    pub fn n_datasets(&self) -> usize {
        self.n_datasets
    }

    /// Number of lifted points (`𝒩` plus sentinels).
    pub fn lifted_points(&self) -> usize {
        self.tree.len()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes()
    }

    /// Exact `q_Π(P)` for `Π = Pred_{M_[lo,hi]}, θ` — every returned index
    /// satisfies the predicate exactly, none is missed (Lemma C.2).
    ///
    /// # Panics
    /// Panics on non-finite query bounds (lift sentinels use ±∞).
    pub fn query(&self, lo: f64, hi: f64) -> Vec<usize> {
        assert!(
            lo.is_finite() && hi.is_finite(),
            "query bounds must be finite"
        );
        assert!(lo <= hi, "invalid query interval");
        let region = Region::all(4)
            .with_hi(0, lo, true) // q < R⁻
            .with_lo(1, lo, false) // r ≥ R⁻
            .with_hi(2, hi, false) // p ≤ R⁺
            .with_lo(3, hi, true); // s > R⁺
        let mut hits = Vec::new();
        self.tree.report(&region, &mut hits);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Dataset;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn repo() -> Repository {
        Repository::new(vec![
            Dataset::from_rows("a", vec![vec![1.0], vec![7.0], vec![9.0]]),
            Dataset::from_rows("b", vec![vec![2.0], vec![4.0], vec![6.0], vec![10.0]]),
            Dataset::from_rows("c", vec![vec![100.0], vec![200.0]]),
        ])
    }

    fn brute(repo: &Repository, theta: Interval, lo: f64, hi: f64) -> Vec<usize> {
        repo.point_sets()
            .enumerate()
            .filter(|(_, pts)| {
                let cnt = pts.iter().filter(|p| lo <= p[0] && p[0] <= hi).count();
                theta.contains(cnt as f64 / pts.len() as f64)
            })
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn matches_bruteforce_on_running_example() {
        let repo = repo();
        for (a, b) in [(0.2, 1.0), (0.2, 0.4), (0.0, 0.5), (0.5, 1.0), (0.0, 0.0)] {
            let theta = Interval::new(a, b);
            let idx = ExactCPtile1D::build(&repo, theta);
            for (lo, hi) in [
                (3.0, 8.0),
                (0.0, 20.0),
                (2.5, 3.5),
                (1.0, 1.0),
                (9.0, 100.0),
                (150.0, 300.0),
            ] {
                let mut got = idx.query(lo, hi);
                got.sort_unstable();
                let want = brute(&repo, theta, lo, hi);
                assert_eq!(got, want, "theta=[{a},{b}] R=[{lo},{hi}]");
            }
        }
        // A seeded catalog of 240 datasets: coordinates on a coarse integer
        // grid (so ties are common), query bounds on and between grid
        // points, and θ with fractions of 20 (so a·n and b·n hit integer
        // counts exactly), covering a = 0 (the sentinel path) and
        // ⌈a·n⌉ > ⌊b·n⌋ (a dataset that can never qualify).
        let mut rng = StdRng::seed_from_u64(0xC5);
        let catalog = Repository::new(
            (0..240)
                .map(|i| {
                    let n = rng.gen_range(1..13);
                    let rows = (0..n)
                        .map(|_| vec![f64::from(rng.gen_range(0..9))])
                        .collect();
                    Dataset::from_rows(format!("d{i}"), rows)
                })
                .collect(),
        );
        let mut thetas = vec![(0.0, 0.0), (0.0, 0.25), (0.35, 0.4), (0.3, 0.3), (0.5, 1.5)];
        for _ in 0..12 {
            let a = f64::from(rng.gen_range(0..21)) / 20.0;
            let b = f64::from(rng.gen_range(0..21)) / 20.0;
            thetas.push((a.min(b), a.max(b)));
        }
        for (a, b) in thetas {
            let theta = Interval::new(a, b);
            let idx = ExactCPtile1D::build(&catalog, theta);
            for _ in 0..30 {
                let x = f64::from(rng.gen_range(-2..20)) / 2.0;
                let y = f64::from(rng.gen_range(-2..20)) / 2.0;
                let (lo, hi) = (x.min(y), x.max(y));
                let mut got = idx.query(lo, hi);
                got.sort_unstable();
                let want = brute(&catalog, theta, lo, hi);
                assert_eq!(got, want, "catalog theta=[{a},{b}] R=[{lo},{hi}]");
            }
        }
    }

    #[test]
    fn no_duplicates_reported() {
        let repo = repo();
        let idx = ExactCPtile1D::build(&repo, Interval::new(0.0, 1.0));
        let got = idx.query(-1000.0, 1000.0);
        let mut dedup = got.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(got.len(), dedup.len());
        assert_eq!(dedup.len(), 3, "theta [0,1] matches everything");
    }

    #[test]
    fn boundary_ties_are_exact() {
        // Query bounds exactly on data points.
        let repo = repo();
        let theta = Interval::new(0.5, 1.0);
        let idx = ExactCPtile1D::build(&repo, theta);
        let mut got = idx.query(4.0, 10.0);
        got.sort_unstable();
        assert_eq!(got, brute(&repo, theta, 4.0, 10.0));
    }

    #[test]
    fn duplicate_coordinates_in_dataset() {
        let repo = Repository::new(vec![Dataset::from_rows(
            "dups",
            vec![vec![5.0], vec![5.0], vec![5.0], vec![8.0]],
        )]);
        for (a, b) in [(0.5, 1.0), (0.75, 1.0), (0.0, 0.5)] {
            let theta = Interval::new(a, b);
            let idx = ExactCPtile1D::build(&repo, theta);
            for (lo, hi) in [(5.0, 5.0), (4.0, 6.0), (6.0, 9.0), (0.0, 4.0)] {
                let mut got = idx.query(lo, hi);
                got.sort_unstable();
                assert_eq!(
                    got,
                    brute(&repo, theta, lo, hi),
                    "θ=[{a},{b}] R=[{lo},{hi}]"
                );
            }
        }
    }
}
