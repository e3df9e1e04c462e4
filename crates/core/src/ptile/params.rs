//! Build parameters shared by the approximate Ptile structures.

use crate::pool::mix_seed;
use std::sync::Arc;

/// Parameters of Algorithms 1 and 3.
///
/// The paper draws `Θ(ε⁻² log(N/φ))` samples per dataset, yielding
/// `O(ε^{-4d} log^{2d}(N/φ))` canonical rectangles. On real hardware the
/// rectangle budget is the binding constraint, so the builder additionally
/// caps the per-dataset rectangle count ([`Self::max_rects_per_dataset`]),
/// derives the largest admissible sample size from it, and *reports the
/// achieved ε* (`eps_max` on the built index) computed from the actual
/// sample sizes — guarantees are always stated against achieved values, not
/// requested ones.
#[derive(Clone, Debug)]
pub struct PtileBuildParams {
    /// Requested sampling error ε (achieved ε may be larger if the
    /// rectangle budget binds; smaller if a dataset's support is used
    /// exactly).
    pub eps: f64,
    /// Overall failure probability φ (split evenly across datasets).
    pub phi: f64,
    /// Synopsis error bound δ (`Err_{S_{P_i}}(F_□^d) ≤ δ`); 0 in the
    /// centralized setting.
    pub delta: f64,
    /// Budget for `|R_i|`, the canonical rectangles per dataset.
    pub max_rects_per_dataset: usize,
    /// RNG seed for the sampling stage.
    pub seed: u64,
    /// Empirical-margin mode: use this ε at query time instead of the
    /// provable Hoeffding bound (which is often very conservative). May only
    /// *shrink* the margin; exact-support builds stay exact. Guarantees then
    /// hold empirically rather than provably — benchmark/marketplace code
    /// validates them against ground truth.
    pub eps_override: Option<f64>,
    /// Stable per-dataset seed identities: dataset `i`'s sampling RNG is
    /// seeded by `mix_seed(seed, seed_ids[i])` instead of
    /// `mix_seed(seed, i)`. A sharded build passes the shard's global
    /// dataset ids here, so a dataset draws the *same* sample wherever it
    /// lands — the prerequisite for sampled shard/unsharded equivalence.
    /// `None` keeps the positional default (equivalent to `seed_ids[i] = i`).
    pub seed_ids: Option<Arc<Vec<u64>>>,
    /// Fixes the denominator of the per-dataset failure-probability split
    /// `φ_i = φ / N`: with `Some(n)` the split uses `n` instead of the
    /// built repository's size. A sharded build over a declared catalog
    /// size keeps per-dataset sample sizes (and thus answers) identical to
    /// an unsharded build of that catalog; `None` splits over the local
    /// build (guarantees still hold, stated per build). The declared size
    /// must be an **upper bound** on the datasets actually indexed under
    /// it — a smaller denominator would silently dilute the union-bound φ
    /// — so builds assert `n ≥` their dataset count (and `ShardedEngine`
    /// asserts it against the whole catalog at every ingest).
    pub phi_datasets: Option<usize>,
}

impl Default for PtileBuildParams {
    fn default() -> Self {
        PtileBuildParams {
            eps: 0.1,
            phi: 0.01,
            delta: 0.0,
            max_rects_per_dataset: 4096,
            seed: 0x5EED,
            eps_override: None,
            seed_ids: None,
            phi_datasets: None,
        }
    }
}

impl PtileBuildParams {
    /// Centralized setting with exact synopses: δ = 0 and a small ε target.
    pub fn exact_centralized() -> Self {
        PtileBuildParams {
            eps: 0.05,
            delta: 0.0,
            ..Default::default()
        }
    }

    /// Federated setting over synopses with error bound `delta`.
    pub fn federated(delta: f64) -> Self {
        assert!((0.0..1.0).contains(&delta), "delta must be in [0, 1)");
        PtileBuildParams {
            delta,
            ..Default::default()
        }
    }

    /// Overrides the per-dataset rectangle budget.
    pub fn with_rect_budget(mut self, budget: usize) -> Self {
        assert!(budget >= 1);
        self.max_rects_per_dataset = budget;
        self
    }

    /// Overrides the requested sampling error.
    pub fn with_eps(mut self, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        self.eps = eps;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables empirical-margin mode (see [`Self::eps_override`]).
    pub fn with_empirical_eps(mut self, eps: f64) -> Self {
        assert!((0.0..1.0).contains(&eps));
        self.eps_override = Some(eps);
        self
    }

    /// Sets stable per-dataset seed identities (see [`Self::seed_ids`]).
    pub fn with_seed_ids(mut self, ids: Vec<u64>) -> Self {
        self.seed_ids = Some(Arc::new(ids));
        self
    }

    /// Fixes the φ-split denominator (see [`Self::phi_datasets`]).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn with_phi_datasets(mut self, n: usize) -> Self {
        assert!(n >= 1, "phi must split over at least one dataset");
        self.phi_datasets = Some(n);
        self
    }

    /// Dataset `i`'s seed identity: `seed_ids[i]` when [`Self::seed_ids`]
    /// is set, `i` otherwise.
    ///
    /// # Panics
    /// Panics if `seed_ids` is set but shorter than `i + 1`.
    pub(crate) fn seed_id(&self, i: usize) -> u64 {
        match &self.seed_ids {
            Some(ids) => {
                assert!(ids.len() > i, "seed_ids must cover every dataset");
                ids[i]
            }
            None => i as u64,
        }
    }

    /// Dataset `i`'s sampling-RNG seed, `mix_seed(seed, seed_id(i))`.
    pub(crate) fn dataset_seed(&self, i: usize) -> u64 {
        mix_seed(self.seed, self.seed_id(i))
    }

    /// The denominator of the φ split for a build of `n` datasets.
    ///
    /// # Panics
    /// Panics if a declared [`Self::phi_datasets`] is smaller than `n` —
    /// that would dilute the union-bound failure probability below the
    /// stated φ.
    pub(crate) fn phi_denominator(&self, n: usize) -> usize {
        match self.phi_datasets {
            Some(d) => {
                assert!(
                    d >= n,
                    "phi_datasets ({d}) must be an upper bound on the datasets built ({n})"
                );
                d
            }
            None => n,
        }
    }
}

/// Applies the empirical-margin override: it can only shrink the margin,
/// and exact builds (ε = 0) stay exact.
pub(crate) fn effective_eps(eps_max: f64, eps_override: Option<f64>) -> f64 {
    match eps_override {
        Some(e) if eps_max > 0.0 => e.min(eps_max),
        _ => eps_max,
    }
}
