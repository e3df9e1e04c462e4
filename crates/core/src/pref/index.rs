//! Approximate Pref index — Algorithms 5 and 6, Theorem 5.4.
//!
//! Construction (Algorithm 5): build an ε-net `C` on `S^{d-1}`; for every
//! net vector `v` query each synopsis for `γ_v^{(i)} = Score(v, k)` and keep
//! the `N` scores in a sorted array (the "1-dimensional range tree" `T_v`).
//!
//! Query (Algorithm 6): snap the query vector `u` to its nearest net vector
//! `v` and report every dataset with `γ_v^{(i)} ≥ a_θ − ε − δ`. By Lemma
//! 5.1 the snap costs at most ε in score (points in the unit ball), so the
//! answer contains every qualifying dataset and every reported dataset
//! scores at least `a_θ − 2ε − 2δ` (Lemma 5.2). A bounded `θ = [a_θ, b_θ]`
//! also caps the reported scores at `b_θ + ε + δ`, the same slice's other
//! end, so a reported dataset scores at most `b_θ + 2ε + 2δ`.

use crate::framework::Interval;
use crate::pool::{par_map, BuildOptions};
use dds_geom::EpsNet;
use dds_rangetree::SortedScores;
use dds_synopsis::PrefSynopsis;

/// Parameters for the Pref structures.
#[derive(Clone, Debug)]
pub struct PrefBuildParams {
    /// ε-net covering parameter (also the score error of vector snapping).
    pub eps: f64,
    /// Synopsis score error bound δ (`Err(F_k^d) ≤ δ`); 0 when exact.
    pub delta: f64,
}

impl Default for PrefBuildParams {
    fn default() -> Self {
        PrefBuildParams {
            eps: 0.05,
            delta: 0.0,
        }
    }
}

impl PrefBuildParams {
    /// Centralized setting (exact synopses).
    pub fn exact_centralized() -> Self {
        Self::default()
    }

    /// Federated setting over synopses with score error `delta`.
    pub fn federated(delta: f64) -> Self {
        assert!((0.0..1.0).contains(&delta), "delta must be in [0, 1)");
        PrefBuildParams {
            delta,
            ..Default::default()
        }
    }

    /// Overrides the net parameter ε.
    pub fn with_eps(mut self, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        self.eps = eps;
        self
    }
}

/// Approximate top-k preference index (Theorem 5.4).
///
/// ```
/// use dds_core::pool::BuildOptions;
/// use dds_core::pref::{PrefBuildParams, PrefIndex};
/// use dds_geom::Point;
/// use dds_synopsis::ExactSynopsis;
///
/// // Two datasets in the unit ball; scores along v = (1, 0).
/// let synopses = vec![
///     ExactSynopsis::new(vec![Point::two(0.9, 0.0), Point::two(0.8, 0.1)]),
///     ExactSynopsis::new(vec![Point::two(0.3, 0.2), Point::two(0.2, -0.3)]),
/// ];
/// // "At least 2 points scoring >= 0.6": only the first dataset
/// // (omega_2 = 0.8 vs 0.2).
/// let index = PrefIndex::build_opts(
///     &synopses,
///     2,
///     PrefBuildParams::exact_centralized(),
///     &BuildOptions::serial(),
/// );
/// assert_eq!(index.query(&[1.0, 0.0], 0.6), vec![0]);
/// ```
#[derive(Clone, Debug)]
pub struct PrefIndex {
    net: EpsNet,
    k: usize,
    /// `trees[i]` = sorted scores `Γ_v` for net vector `i`.
    trees: Vec<SortedScores>,
    eps: f64,
    delta: f64,
    n_datasets: usize,
}

impl PrefIndex {
    /// Builds the index over one synopsis per dataset (Algorithm 5). The
    /// per-net-direction score tables (the `O(ε^{-d+1})` structures `T_v`)
    /// are computed on `opts.threads` threads (caller included), with
    /// bit-identical results for every thread count.
    ///
    /// # Panics
    /// Panics if `synopses` is empty, dimensions differ, or `k == 0`.
    pub fn build_opts<S: PrefSynopsis + Sync>(
        synopses: &[S],
        k: usize,
        params: PrefBuildParams,
        opts: &BuildOptions,
    ) -> Self {
        let net = Self::check_and_net(synopses, k, &params);
        let trees = par_map(opts, net.vectors(), |_, v| {
            Self::direction_tree(synopses, v, k)
        });
        Self::assemble(net, k, trees, params, synopses.len())
    }

    fn check_and_net<S: PrefSynopsis>(
        synopses: &[S],
        k: usize,
        params: &PrefBuildParams,
    ) -> EpsNet {
        assert!(!synopses.is_empty(), "repository must be non-empty");
        assert!(k >= 1, "k must be positive");
        let dim = synopses[0].dim();
        assert!(
            synopses.iter().all(|s| s.dim() == dim),
            "synopses must share the schema dimension"
        );
        EpsNet::new(dim, params.eps)
    }

    /// One net direction's work unit: query every synopsis for
    /// `γ_v^{(i)} = Score(v, k)` and sort (the "1-d range tree" `T_v`).
    fn direction_tree<S: PrefSynopsis>(synopses: &[S], v: &[f64], k: usize) -> SortedScores {
        let scores: Vec<f64> = synopses.iter().map(|s| s.score(v, k)).collect();
        SortedScores::build(&scores)
    }

    fn assemble(
        net: EpsNet,
        k: usize,
        trees: Vec<SortedScores>,
        params: PrefBuildParams,
        n_datasets: usize,
    ) -> Self {
        PrefIndex {
            net,
            k,
            trees,
            eps: params.eps,
            delta: params.delta,
            n_datasets,
        }
    }

    /// The rank `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of indexed datasets `N`.
    pub fn n_datasets(&self) -> usize {
        self.n_datasets
    }

    /// Net parameter ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Synopsis error bound δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Query margin `ε + δ` (Algorithm 6 line 2).
    pub fn margin(&self) -> f64 {
        self.eps + self.delta
    }

    /// Guarantee band (Lemma 5.2): every reported `j` has
    /// `ω_k(P_j, u) ≥ a_θ − slack` with `slack = 2(ε + δ)`.
    pub fn slack(&self) -> f64 {
        2.0 * self.margin()
    }

    /// Number of ε-net directions (`O(ε^{-d+1})`).
    pub fn directions(&self) -> usize {
        self.net.len()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.trees.len() * (self.n_datasets * 12 + 48) + self.net.len() * (self.net.dim() * 8 + 24)
    }

    /// Answers `Π = Pred_{M_{u,k}, [a_θ, ∞)}` (Algorithm 6): dataset
    /// indexes, every qualifying dataset included, reported ones within the
    /// [`slack`](Self::slack) band.
    pub fn query(&self, u: &[f64], a_theta: f64) -> Vec<usize> {
        assert_eq!(u.len(), self.net.dim(), "query vector dimension mismatch");
        let theta = Interval {
            lo: a_theta,
            hi: f64::INFINITY,
        };
        let mut out = Vec::new();
        self.query_snapped_cb(self.net.nearest(u).0, theta, &mut |j| out.push(j));
        out
    }

    /// The ε-net the query vectors snap to (Algorithm 6, line 1). Every
    /// index built with the same `(dim, eps)` has the same net, so a caller
    /// querying several of them snaps a vector once.
    pub(crate) fn net(&self) -> &EpsNet {
        &self.net
    }

    /// [`query`](Self::query) for `θ = [a_θ, b_θ]` after the snap: reports
    /// every dataset whose score along net vector `vi` (an index into
    /// [`net`](Self::net)) lies in `[a_θ − ε − δ, b_θ + ε + δ]`, one slice
    /// of the direction's sorted scores. The snap moves a score by at most
    /// `ε + δ` either way, so both ends keep recall 1 and the band of
    /// Lemma 5.2.
    pub(crate) fn query_snapped_cb(&self, vi: usize, theta: Interval, f: &mut dyn FnMut(usize)) {
        let m = self.margin();
        for &j in self.trees[vi].ids_in(theta.lo - m, theta.hi + m) {
            f(j as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_geom::Point;
    use dds_synopsis::ExactSynopsis;

    /// Three tiny datasets in the unit ball with known top scores along
    /// (1, 0): 0.9 / 0.5 / 0.1, and second-largest 0.8 / 0.4 / 0.05.
    fn synopses() -> Vec<ExactSynopsis> {
        vec![
            ExactSynopsis::new(vec![Point::two(0.9, 0.0), Point::two(0.8, 0.1)]),
            ExactSynopsis::new(vec![Point::two(0.5, 0.2), Point::two(0.4, -0.3)]),
            ExactSynopsis::new(vec![Point::two(0.1, 0.4), Point::two(0.05, 0.9)]),
        ]
    }

    fn index(k: usize) -> PrefIndex {
        PrefIndex::build_opts(
            &synopses(),
            k,
            PrefBuildParams::exact_centralized(),
            &BuildOptions::serial(),
        )
    }

    #[test]
    fn top1_threshold_query() {
        let idx = index(1);
        let mut hits = idx.query(&[1.0, 0.0], 0.45);
        hits.sort_unstable();
        // ω_1 scores: 0.9, 0.5, 0.4·… dataset 2 top ≈ 0.1·/0.4-ish — only
        // 0 and 1 clear 0.45 (within the band possibly more; with exact
        // synopses and a net vector ≈ (1,0) the margin is ε).
        assert!(hits.contains(&0) && hits.contains(&1));
        // Dataset 2's ω_1 along (1,0) is 0.1 < 0.45 − slack → never reported.
        assert!(!hits.contains(&2));
    }

    #[test]
    fn k2_uses_second_largest() {
        let idx = index(2);
        // ω_2 along (1,0): 0.8, 0.4, 0.05.
        let hits = idx.query(&[1.0, 0.0], 0.7);
        assert_eq!(hits, vec![0]);
    }

    #[test]
    fn recall_holds_on_random_directions() {
        let syns = synopses();
        let idx = index(1);
        let dirs = [[0.6, 0.8], [0.0, 1.0], [-1.0, 0.0], [0.707, -0.707]];
        for v in dirs {
            for a in [-0.5, 0.0, 0.3, 0.8] {
                let hits = idx.query(&v, a);
                for (i, s) in syns.iter().enumerate() {
                    let truth = s.exact_score(&v, 1);
                    if truth >= a {
                        assert!(hits.contains(&i), "missed {i} at v={v:?} a={a}");
                    }
                }
                // Band check.
                for &j in &hits {
                    let truth = syns[j].exact_score(&v, 1);
                    assert!(
                        truth >= a - idx.slack() - 1e-9,
                        "out of band: {j} truth={truth} a={a}"
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_k_never_reports() {
        let idx = index(5);
        // All datasets have 2 points; ω_5 = −∞ everywhere.
        assert!(idx.query(&[1.0, 0.0], -10.0).is_empty());
    }
}
