//! Halfspace reporting → CPref reduction (Appendix B.2, Theorem 3.5).
//!
//! Each input point `u_i` becomes a singleton dataset `P_i = {u_i}`; a
//! query halfspace `H = {x : ⟨x, w⟩ ≥ c}` becomes the Pref predicate
//! `Pred_{M_{w,1}, [c, ∞)}`, since `ω_1({u}, w) = ⟨u, w⟩`. (The paper's
//! appendix additionally normalizes so that `c ≥ 0` via a rotation; our
//! Pref structures accept arbitrary thresholds, so the reduction is
//! direct.)
//!
//! The CPref oracle is approximate (ε-net snapping), so the reporter
//! returns a *superset* of `U ∩ H` whose extras violate the halfspace by at
//! most `2ε` in score — exactly the approximation band of Theorem 5.4. The
//! exact answer is recovered by filtering the candidates, which costs
//! `O(OUT + extras)`; the lower bound says the extras cannot be avoided by
//! any near-linear exact structure in `d ≥ 5`.

use crate::pool::BuildOptions;
use crate::pref::{PrefBuildParams, PrefIndex};
use dds_geom::Point;
use dds_synopsis::ExactSynopsis;

/// Halfspace reporting through a CPref index over singleton datasets.
#[derive(Clone, Debug)]
pub struct HalfspaceReporter {
    index: PrefIndex,
    points: Vec<Point>,
}

impl HalfspaceReporter {
    /// Builds the reduction over `points` (assumed in the unit ball, as in
    /// Section 5), with Pref net parameter `eps`.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn build(points: Vec<Point>, eps: f64) -> Self {
        assert!(!points.is_empty(), "need at least one point");
        let synopses: Vec<ExactSynopsis> = points
            .iter()
            .map(|p| ExactSynopsis::new(vec![p.clone()]))
            .collect();
        let params = PrefBuildParams::exact_centralized().with_eps(eps);
        let index = PrefIndex::build_opts(&synopses, 1, params, &BuildOptions::serial());
        HalfspaceReporter { index, points }
    }

    /// Superset of `{i : ⟨u_i, w⟩ ≥ c}`; every extra index satisfies
    /// `⟨u_i, w⟩ ≥ c − 2ε` (the CPref band).
    pub fn candidates(&self, w: &[f64], c: f64) -> Vec<usize> {
        self.index.query(w, c)
    }

    /// Exact `U ∩ H`, obtained by filtering the CPref candidates.
    pub fn report(&self, w: &[f64], c: f64) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .candidates(w, c)
            .into_iter()
            .filter(|&i| self.points[i].dot(w) >= c)
            .collect();
        out.sort_unstable();
        out
    }

    /// The approximation band `2ε` of the candidates.
    pub fn band(&self) -> f64 {
        self.index.slack()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circle_points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                Point::two(0.9 * a.cos(), 0.9 * a.sin())
            })
            .collect()
    }

    #[test]
    fn reports_exactly_the_halfspace() {
        let pts = circle_points(60);
        let rep = HalfspaceReporter::build(pts.clone(), 0.05);
        for (w, c) in [
            ([1.0, 0.0], 0.5),
            ([0.0, 1.0], 0.0),
            ([0.707, 0.707], -0.3),
            ([-1.0, 0.0], 0.8),
        ] {
            let got = rep.report(&w, c);
            let want: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.dot(&w) >= c)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, want, "w={w:?} c={c}");
        }
    }

    #[test]
    fn candidates_are_supersets_within_band() {
        let pts = circle_points(40);
        let rep = HalfspaceReporter::build(pts.clone(), 0.1);
        let (w, c) = ([0.6, 0.8], 0.2);
        let cands = rep.candidates(&w, c);
        for (i, p) in pts.iter().enumerate() {
            if p.dot(&w) >= c {
                assert!(cands.contains(&i), "missed in-halfspace point {i}");
            }
        }
        for &i in &cands {
            assert!(
                pts[i].dot(&w) >= c - rep.band() - 1e-9,
                "candidate {i} outside the band"
            );
        }
    }
}
