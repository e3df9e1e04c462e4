//! Dataset synopses for federated distribution-aware search.
//!
//! In the paper's federated setting (Section 1.1) the index never sees the
//! raw datasets — only a synopsis `S_{P_i}` per dataset, with error
//! `Err_{S_{P_i}}(F) ≤ δ` with respect to a class of measure functions `F`.
//! Two synopsis capabilities are assumed:
//!
//! * for the percentile class `F_□^d` (Section 4): random sampling with
//!   replacement (`S_P.Sample(κ)`) and mass evaluation `M_R(S_P)` —
//!   captured by [`PercentileSynopsis`];
//! * for the top-k preference class `F_k^d` (Section 5): score estimation
//!   `S_P.Score(v, k) ≈ ω_k(P, v)` — captured by [`PrefSynopsis`].
//!
//! The paper lists histograms, mixture models, ε-samples and kernels as the
//! synopses used in practice; this crate implements that family:
//!
//! | Type | Percentile | Pref | Centralized? |
//! |------|-----------|------|--------------|
//! | [`ExactSynopsis`] | ✓ (δ = 0) | ✓ (δ = 0) | yes — realizes `S_{P_i} = P_i` |
//! | [`UniformSampleSynopsis`] | ✓ (ε-sample) | ✓ (rank-scaled) | no |
//! | [`GridHistogram`] | ✓ | ✓ (cell centers) | no |
//! | [`EquiDepthHistogram`] (d=1) | ✓ | ✓ | no — the synopsis of the Fainder baseline \[8\] |
//! | [`GaussianMixtureSynopsis`] | ✓ | ✓ (mixture quantiles) | no |
//! | [`NetCachePref`] | — | ✓ (direction cache, the "kernel" of [5, 37, 55]) | no |
//!
//! The error δ of a synopsis is a *measured* quantity here: [`error`]
//! estimates the percentile error `Err_{S_P}(F_□^d)` empirically against
//! the raw data, which is what experiment E11 sweeps. No estimator of the
//! preference error `Err_{S_P}(F_k^d)` exists; a Pref build takes δ as a
//! parameter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
mod exact;
mod histogram;
pub mod math;
mod mixture;
mod prefcache;
mod sample;

pub use exact::ExactSynopsis;
pub use histogram::{EquiDepthHistogram, GridHistogram};
pub use mixture::GaussianMixtureSynopsis;
pub use prefcache::NetCachePref;
pub use sample::{eps_sample_size, sample_error_bound, UniformSampleSynopsis};

use dds_geom::{Point, Rect};
use rand::RngCore;

/// A synopsis usable for the percentile class `F_□^d` (Ptile problems).
pub trait PercentileSynopsis {
    /// Dimension `d` of the summarized dataset.
    fn dim(&self) -> usize;

    /// Draws `n` random samples *with replacement* from the synopsis
    /// distribution — the paper's `S_P.Sample(κ)` (Section 4).
    fn sample(&self, n: usize, rng: &mut dyn RngCore) -> Vec<Point>;

    /// Evaluates `M_R(S_P) = Pr_{p ~ S_P}[p ∈ R]`.
    fn mass(&self, r: &Rect) -> f64;

    /// For synopses backed by an explicit finite point set (the exact
    /// synopsis, retained ε-samples): the full support. Index builders use
    /// this to take *all* points instead of re-sampling when the support is
    /// small, eliminating the sampling error ε for that dataset (this is
    /// what makes the paper's toy examples exact). `None` for continuous
    /// synopses such as histograms or mixtures.
    fn all_points(&self) -> Option<&[Point]> {
        None
    }

    /// A priori error bound δ with `Err_{S_P}(F_□^d) ≤ δ`, when known.
    /// `Some(0.0)` for exact synopses (centralized setting).
    fn percentile_delta(&self) -> Option<f64> {
        None
    }

    /// Approximate heap footprint in bytes (space experiments).
    fn memory_bytes(&self) -> usize;
}

/// A synopsis usable for the top-k preference class `F_k^d` (Pref problems).
pub trait PrefSynopsis {
    /// Dimension `d` of the summarized dataset.
    fn dim(&self) -> usize;

    /// Estimates `ω_k(P, v)`, the k-th largest inner product with the unit
    /// vector `v` — the paper's `S_P.Score(v, k)` (Section 5). Returns
    /// `-∞` when the summarized dataset has fewer than `k` points (such a
    /// dataset can never satisfy a threshold predicate).
    fn score(&self, v: &[f64], k: usize) -> f64;

    /// A priori error bound δ with `Err_{S_P}(F_k^d) ≤ δ`, when known.
    fn pref_delta(&self) -> Option<f64> {
        None
    }

    /// Approximate heap footprint in bytes.
    fn memory_bytes(&self) -> usize;
}

impl<T: PercentileSynopsis + ?Sized> PercentileSynopsis for Box<T> {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn sample(&self, n: usize, rng: &mut dyn RngCore) -> Vec<Point> {
        (**self).sample(n, rng)
    }
    fn mass(&self, r: &Rect) -> f64 {
        (**self).mass(r)
    }
    fn all_points(&self) -> Option<&[Point]> {
        (**self).all_points()
    }
    fn percentile_delta(&self) -> Option<f64> {
        (**self).percentile_delta()
    }
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }
}

impl<T: PrefSynopsis + ?Sized> PrefSynopsis for Box<T> {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn score(&self, v: &[f64], k: usize) -> f64 {
        (**self).score(v, k)
    }
    fn pref_delta(&self) -> Option<f64> {
        (**self).pref_delta()
    }
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }
}
