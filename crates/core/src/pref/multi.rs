//! Pref with logical expressions over `m` threshold predicates —
//! Appendix D.1, Theorem D.4.
//!
//! The paper precomputes an `m`-dimensional range tree `T_V` for **every**
//! subset `V` of `m` net vectors (`O(ε^{-m(d-1)})` trees). We store the raw
//! per-direction score table (the same information) and materialize `T_V`
//! lazily on first use, memoized behind a lock — identical answers, and the
//! all-subsets preprocessing cost is only paid for direction tuples that
//! queries actually touch. Disjunctions are
//! handled by unioning conjunction answers, as in Appendix C.4.

use super::PrefBuildParams;
use crate::pool::{par_map, BuildOptions};
use dds_geom::EpsNet;
use dds_rangetree::{BuildableIndex, KdTree, OrthoIndex, Region};
use dds_synopsis::PrefSynopsis;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Approximate Pref index for conjunctions of up to `m` threshold
/// predicates (Theorem D.4).
#[derive(Debug)]
pub struct PrefMultiIndex {
    net: EpsNet,
    k: usize,
    m: usize,
    eps: f64,
    delta: f64,
    n_datasets: usize,
    /// `scores[v][i]` = `γ_v^{(i)}` for net vector `v`, dataset `i`.
    scores: Vec<Vec<f64>>,
    /// Lazily materialized `T_V`, keyed by the slot-ordered net indices.
    cache: Mutex<HashMap<Vec<u32>, Arc<KdTree>>>,
}

impl PrefMultiIndex {
    /// Builds the score table (Algorithm 5 applied to every net vector).
    ///
    /// # Panics
    /// Panics if `synopses` is empty, `k == 0` or `m == 0`.
    pub fn build<S: PrefSynopsis>(
        synopses: &[S],
        k: usize,
        m: usize,
        params: PrefBuildParams,
    ) -> Self {
        assert!(!synopses.is_empty(), "repository must be non-empty");
        assert!(k >= 1 && m >= 1);
        let dim = synopses[0].dim();
        let net = EpsNet::new(dim, params.eps);
        let scores = net
            .vectors()
            .iter()
            .map(|v| synopses.iter().map(|s| s.score(v, k)).collect())
            .collect();
        Self::assemble(net, k, m, params, synopses.len(), scores)
    }

    /// Worker-pool variant of [`build`](Self::build): the per-net-direction
    /// score rows are computed on `opts.threads` scoped threads.
    /// Bit-identical results for every thread count.
    ///
    /// # Panics
    /// Panics if `synopses` is empty, `k == 0` or `m == 0`.
    pub fn build_opts<S: PrefSynopsis + Sync>(
        synopses: &[S],
        k: usize,
        m: usize,
        params: PrefBuildParams,
        opts: &BuildOptions,
    ) -> Self {
        assert!(!synopses.is_empty(), "repository must be non-empty");
        assert!(k >= 1 && m >= 1);
        let dim = synopses[0].dim();
        let net = EpsNet::new(dim, params.eps);
        let scores = par_map(opts, net.vectors(), |_, v| {
            synopses.iter().map(|s| s.score(v, k)).collect()
        });
        Self::assemble(net, k, m, params, synopses.len(), scores)
    }

    fn assemble(
        net: EpsNet,
        k: usize,
        m: usize,
        params: PrefBuildParams,
        n_datasets: usize,
        scores: Vec<Vec<f64>>,
    ) -> Self {
        PrefMultiIndex {
            net,
            k,
            m,
            eps: params.eps,
            delta: params.delta,
            n_datasets,
            scores,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Predicate arity `m`.
    pub fn arity(&self) -> usize {
        self.m
    }

    /// The rank `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of indexed datasets.
    pub fn n_datasets(&self) -> usize {
        self.n_datasets
    }

    /// Query margin `ε + δ`.
    pub fn margin(&self) -> f64 {
        self.eps + self.delta
    }

    /// Guarantee band per predicate: reported `j` has
    /// `ω_k(P_j, u_ℓ) ≥ a_ℓ − 2(ε + δ)` for every ℓ.
    pub fn slack(&self) -> f64 {
        2.0 * self.margin()
    }

    /// Number of memoized direction tuples.
    pub fn materialized_trees(&self) -> usize {
        self.cache.lock().expect("cache lock poisoned").len()
    }

    /// Answers a conjunction of up to `m` threshold predicates
    /// `(u_ℓ, a_ℓ)`.
    ///
    /// # Panics
    /// Panics if `queries` is empty or longer than `m`.
    pub fn query(&self, queries: &[(Vec<f64>, f64)]) -> Vec<usize> {
        assert!(
            !queries.is_empty() && queries.len() <= self.m,
            "conjunction arity must be in 1..={}",
            self.m
        );
        // Snap every query vector to the net; the tuple of net indices keys
        // the memoized structure. Shorter conjunctions reuse slot 0's
        // direction with a trivially low threshold.
        let mut key: Vec<u32> = queries
            .iter()
            .map(|(u, _)| {
                assert_eq!(u.len(), self.net.dim(), "query vector dimension mismatch");
                self.net.nearest(u).0 as u32
            })
            .collect();
        while key.len() < self.m {
            key.push(key[0]);
        }
        let tree = self.materialize(&key);
        let mut region = Region::all(self.m);
        for (l, (_, a)) in queries.iter().enumerate() {
            region = region.with_lo(l, a - self.margin(), false);
        }
        let mut out = Vec::new();
        tree.report(&region, &mut out);
        out
    }

    fn materialize(&self, key: &[u32]) -> Arc<KdTree> {
        let mut cache = self.cache.lock().expect("cache lock poisoned");
        if let Some(t) = cache.get(key) {
            return Arc::clone(t);
        }
        let points: Vec<Vec<f64>> = (0..self.n_datasets)
            .map(|i| key.iter().map(|&v| self.scores[v as usize][i]).collect())
            .collect();
        let tree = Arc::new(KdTree::build(self.m, points));
        cache.insert(key.to_vec(), Arc::clone(&tree));
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_geom::Point;
    use dds_synopsis::ExactSynopsis;

    /// Datasets with controlled top-1 scores along x and y:
    ///  ds0: strong on x (0.9), weak on y (0.1)
    ///  ds1: strong on both (0.7, 0.7)
    ///  ds2: weak on x (0.1), strong on y (0.9)
    fn synopses() -> Vec<ExactSynopsis> {
        vec![
            ExactSynopsis::new(vec![Point::two(0.9, 0.0), Point::two(0.0, 0.1)]),
            ExactSynopsis::new(vec![Point::two(0.7, 0.0), Point::two(0.0, 0.7)]),
            ExactSynopsis::new(vec![Point::two(0.1, 0.0), Point::two(0.0, 0.9)]),
        ]
    }

    #[test]
    fn conjunction_selects_the_balanced_dataset() {
        let idx = PrefMultiIndex::build(&synopses(), 1, 2, PrefBuildParams::exact_centralized());
        let hits = idx.query(&[(vec![1.0, 0.0], 0.5), (vec![0.0, 1.0], 0.5)]);
        assert_eq!(hits, vec![1], "only ds1 clears 0.5 on both axes");
    }

    #[test]
    fn single_slot_conjunction() {
        let idx = PrefMultiIndex::build(&synopses(), 1, 2, PrefBuildParams::exact_centralized());
        let mut hits = idx.query(&[(vec![1.0, 0.0], 0.6)]);
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn trees_are_memoized() {
        let idx = PrefMultiIndex::build(&synopses(), 1, 2, PrefBuildParams::exact_centralized());
        assert_eq!(idx.materialized_trees(), 0);
        let q = [(vec![1.0, 0.0], 0.5), (vec![0.0, 1.0], 0.5)];
        let _ = idx.query(&q);
        assert_eq!(idx.materialized_trees(), 1);
        let _ = idx.query(&q);
        assert_eq!(idx.materialized_trees(), 1, "same tuple reuses the tree");
        let _ = idx.query(&[(vec![0.0, 1.0], 0.5), (vec![1.0, 0.0], 0.5)]);
        assert_eq!(idx.materialized_trees(), 2, "slot order matters");
    }

    #[test]
    fn recall_and_band_on_conjunctions() {
        let syns = synopses();
        let idx = PrefMultiIndex::build(&syns, 1, 2, PrefBuildParams::exact_centralized());
        let queries = [(vec![0.6, 0.8], 0.3), (vec![0.8, -0.6], -0.2)];
        let hits = idx.query(&queries);
        for (i, s) in syns.iter().enumerate() {
            let qualifies = queries.iter().all(|(v, a)| s.exact_score(v, 1) >= *a);
            if qualifies {
                assert!(hits.contains(&i), "missed qualifying dataset {i}");
            }
        }
        for &j in &hits {
            for (v, a) in &queries {
                let truth = syns[j].exact_score(v, 1);
                assert!(truth >= a - idx.slack() - 1e-9, "band violated for {j}");
            }
        }
    }
}
