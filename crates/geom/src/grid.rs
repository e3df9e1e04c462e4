//! Per-dimension coordinate grids induced by a sample.
//!
//! Sections 4.2 and 4.3 of the paper build, for every dataset, the set `R_i`
//! of *all combinatorially different hyper-rectangles defined by the sample
//! `S_i`*: rectangles whose facets pass through sample coordinates. Two
//! rectangles are combinatorially equivalent iff they contain the same
//! sample points and touch the same facet coordinates, so the canonical
//! representatives are exactly the products, over dimensions, of coordinate
//! pairs `(lo, hi)` with `lo ≤ hi` drawn from the per-dimension coordinate
//! sets. [`CoordGrid`] owns those coordinate sets and provides:
//!
//! * enumeration of the canonical rectangles (`R_i`),
//! * the *maximal* grid rectangle inside a query rectangle (Lemma 4.5),
//! * the *one-step expansion* `ρ̂` of a grid rectangle — the rectangle
//!   `ρ̂_R` built in Lemma 4.6 by pushing every facet outward to the next
//!   coordinate (±∞ when none exists, playing the role of the paper's
//!   bounding-box facet projections `S̄_i`),
//! * the canonical-pair predicate of Algorithm 3 (`ρ ⊆ ρ̂` with no
//!   `ρ' ∈ R_i` such that `ρ ⊂ ρ' ⊂⊂ ρ̂`), decided in `O(d log s)` via a
//!   closed form instead of scanning `R_i`.

use crate::{Point, Rect};

/// Sorted, de-duplicated per-dimension coordinate sets with ±∞ guards.
#[derive(Clone, Debug)]
pub struct CoordGrid {
    /// `coords[h]` is the strictly increasing list of finite coordinates in
    /// dimension `h`.
    coords: Vec<Vec<f64>>,
}

impl CoordGrid {
    /// Builds the grid from the coordinates of `points`.
    ///
    /// # Panics
    /// Panics if `points` is empty or the points have mixed dimensions.
    pub fn from_points(points: &[Point]) -> Self {
        assert!(
            !points.is_empty(),
            "cannot build a grid from an empty sample"
        );
        let d = points[0].dim();
        let mut coords = vec![Vec::with_capacity(points.len()); d];
        for p in points {
            assert_eq!(p.dim(), d, "mixed dimensions in grid sample");
            for h in 0..d {
                coords[h].push(p[h]);
            }
        }
        for c in &mut coords {
            c.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN coordinate"));
            c.dedup();
        }
        CoordGrid { coords }
    }

    /// Builds the grid from `points` plus the facet coordinates of a bounding
    /// box `bbox`. This mirrors the paper's projection set `S̄_i` (Section
    /// 4.3): projecting every sample onto the `2d` facets of the bounding box
    /// contributes, per dimension, exactly the box facet coordinates.
    pub fn with_box(points: &[Point], bbox: &Rect) -> Self {
        let mut grid = Self::from_points(points);
        assert_eq!(grid.dim(), bbox.dim(), "bounding box dimension mismatch");
        for h in 0..grid.dim() {
            grid.insert_coord(h, bbox.lo_at(h));
            grid.insert_coord(h, bbox.hi_at(h));
        }
        grid
    }

    /// Builds a grid directly from per-dimension coordinate lists.
    pub fn from_coords(mut coords: Vec<Vec<f64>>) -> Self {
        assert!(!coords.is_empty(), "grid must have dimension >= 1");
        for c in &mut coords {
            c.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN coordinate"));
            c.dedup();
            assert!(
                !c.is_empty(),
                "every dimension needs at least one coordinate"
            );
        }
        CoordGrid { coords }
    }

    fn insert_coord(&mut self, h: usize, x: f64) {
        debug_assert!(x.is_finite());
        match self.coords[h].binary_search_by(|c| c.partial_cmp(&x).unwrap()) {
            Ok(_) => {}
            Err(pos) => self.coords[h].insert(pos, x),
        }
    }

    /// Dimension of the ambient space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// The finite coordinates of dimension `h`, strictly increasing.
    #[inline]
    pub fn coords(&self, h: usize) -> &[f64] {
        &self.coords[h]
    }

    /// Smallest finite coordinate `≥ x` in dimension `h`, or `+∞`.
    #[inline]
    pub fn next_geq(&self, h: usize, x: f64) -> f64 {
        let c = &self.coords[h];
        match c.binary_search_by(|v| v.partial_cmp(&x).unwrap()) {
            Ok(i) => c[i],
            Err(i) if i < c.len() => c[i],
            Err(_) => f64::INFINITY,
        }
    }

    /// Smallest finite coordinate `> x` in dimension `h`, or `+∞`.
    #[inline]
    pub fn next_gt(&self, h: usize, x: f64) -> f64 {
        let c = &self.coords[h];
        // partition_point gives the first index with c[i] > x.
        let i = c.partition_point(|v| *v <= x);
        if i < c.len() {
            c[i]
        } else {
            f64::INFINITY
        }
    }

    /// Largest finite coordinate `≤ x` in dimension `h`, or `-∞`.
    #[inline]
    pub fn prev_leq(&self, h: usize, x: f64) -> f64 {
        let c = &self.coords[h];
        let i = c.partition_point(|v| *v <= x);
        if i > 0 {
            c[i - 1]
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Largest finite coordinate `< x` in dimension `h`, or `-∞`.
    #[inline]
    pub fn prev_lt(&self, h: usize, x: f64) -> f64 {
        let c = &self.coords[h];
        let i = c.partition_point(|v| *v < x);
        if i > 0 {
            c[i - 1]
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Enumerates all canonical (combinatorially different) rectangles.
    ///
    /// The count is `|R_i| = ∏_h m_h (m_h + 1) / 2` over the `m_h`
    /// coordinates of dimension `h`; callers control it through the sample
    /// size (`s = Θ(ε⁻² log(Nφ⁻¹))` per the paper, `O(s^{2d})` rectangles).
    pub fn enumerate_rects(&self) -> Vec<Rect> {
        let d = self.dim();
        // Per-dimension (lo, hi) pairs with lo <= hi.
        let pairs: Vec<Vec<(f64, f64)>> = self
            .coords
            .iter()
            .map(|c| {
                let mut v = Vec::with_capacity(c.len() * (c.len() + 1) / 2);
                for i in 0..c.len() {
                    for j in i..c.len() {
                        v.push((c[i], c[j]));
                    }
                }
                v
            })
            .collect();
        let total: usize = pairs.iter().map(Vec::len).product();
        let mut out = Vec::with_capacity(total);
        let mut idx = vec![0usize; d];
        let mut lo = vec![0.0; d];
        let mut hi = vec![0.0; d];
        'outer: loop {
            for h in 0..d {
                let (l, u) = pairs[h][idx[h]];
                lo[h] = l;
                hi[h] = u;
            }
            out.push(Rect::from_bounds(&lo, &hi));
            // Odometer increment.
            for h in 0..d {
                idx[h] += 1;
                if idx[h] < pairs[h].len() {
                    continue 'outer;
                }
                idx[h] = 0;
            }
            break;
        }
        out
    }

    /// The maximal canonical rectangle `ρ ⊆ R`, i.e. the unique grid
    /// rectangle with `ρ ∩ S = R ∩ S` whose facets are shrunk onto the grid.
    /// Returns `None` when no grid coordinate lies inside `R` in some
    /// dimension (then no canonical rectangle fits inside `R`).
    pub fn maximal_rect_in(&self, r: &Rect) -> Option<Rect> {
        debug_assert_eq!(self.dim(), r.dim());
        let d = self.dim();
        let mut lo = vec![0.0; d];
        let mut hi = vec![0.0; d];
        for h in 0..d {
            let l = self.next_geq(h, r.lo_at(h));
            let u = self.prev_leq(h, r.hi_at(h));
            if l > u {
                return None;
            }
            lo[h] = l;
            hi[h] = u;
        }
        Some(Rect::from_bounds(&lo, &hi))
    }

    /// The one-step expansion `ρ̂` of a grid rectangle `ρ`: every facet
    /// pushed outward to the adjacent coordinate (±∞ when none). This is the
    /// rectangle `ρ̂_R` of Lemma 4.6, and `(ρ, ρ̂)` is always a canonical
    /// pair.
    pub fn one_step_expansion(&self, rho: &Rect) -> Rect {
        debug_assert_eq!(self.dim(), rho.dim());
        let d = self.dim();
        let mut lo = vec![0.0; d];
        let mut hi = vec![0.0; d];
        for h in 0..d {
            lo[h] = self.prev_lt(h, rho.lo_at(h));
            hi[h] = self.next_gt(h, rho.hi_at(h));
        }
        Rect::from_bounds(&lo, &hi)
    }

    /// Decides the canonical-pair condition of Algorithm 3 in closed form:
    /// `ρ ⊆ ρ̂` and there is **no** grid rectangle `ρ'` with `ρ ⊂ ρ' ⊂⊂ ρ̂`.
    ///
    /// Closed form: let `ρ*` be the maximal grid rectangle strictly inside
    /// `ρ̂` (facet-wise `next_gt(ρ̂⁻)` / `prev_lt(ρ̂⁺)`). A violating `ρ'`
    /// exists iff `ρ*` exists, contains `ρ`, and differs from `ρ`.
    pub fn is_canonical_pair(&self, rho: &Rect, rho_hat: &Rect) -> bool {
        debug_assert_eq!(self.dim(), rho.dim());
        debug_assert_eq!(self.dim(), rho_hat.dim());
        if !rho_hat.contains_rect(rho) {
            return false;
        }
        let d = self.dim();
        for h in 0..d {
            let lo_star = self.next_gt(h, rho_hat.lo_at(h));
            let hi_star = self.prev_lt(h, rho_hat.hi_at(h));
            // No grid rectangle strictly inside rho_hat in dimension h, or
            // the strictly-inside window cannot cover rho in dimension h:
            // then no violating rho' exists and the pair is canonical.
            if lo_star > hi_star || lo_star > rho.lo_at(h) || hi_star < rho.hi_at(h) {
                return true;
            }
        }
        // rho* exists and contains rho; the pair is canonical iff rho* == rho.
        (0..d).all(|h| {
            self.next_gt(h, rho_hat.lo_at(h)) == rho.lo_at(h)
                && self.prev_lt(h, rho_hat.hi_at(h)) == rho.hi_at(h)
        })
    }

    /// The *empty slabs* of dimension `h`: maximal open intervals between
    /// consecutive coordinates (with ±∞ guards at the ends). A query
    /// rectangle whose `h`-extent fits strictly inside an empty slab contains
    /// no grid coordinate in dimension `h`, hence no canonical rectangle.
    /// Used by the range-predicate index to handle the zero-mass corner case.
    pub fn empty_slabs(&self, h: usize) -> Vec<(f64, f64)> {
        let c = &self.coords[h];
        let mut out = Vec::with_capacity(c.len() + 1);
        let mut prev = f64::NEG_INFINITY;
        for &x in c {
            out.push((prev, x));
            prev = x;
        }
        out.push((prev, f64::INFINITY));
        out
    }

    /// True if `r` contains no grid coordinate in at least one dimension —
    /// equivalently, no canonical rectangle fits inside `r`.
    pub fn has_empty_dimension(&self, r: &Rect) -> bool {
        (0..self.dim()).any(|h| self.next_geq(h, r.lo_at(h)) > r.hi_at(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_1d(xs: &[f64]) -> CoordGrid {
        CoordGrid::from_points(&xs.iter().map(|&x| Point::one(x)).collect::<Vec<_>>())
    }

    /// Brute-force version of the canonical-pair predicate, straight from the
    /// paper's definition, used to validate the closed form.
    fn is_canonical_pair_bruteforce(grid: &CoordGrid, rho: &Rect, rho_hat: &Rect) -> bool {
        if !rho_hat.contains_rect(rho) {
            return false;
        }
        !grid.enumerate_rects().iter().any(|rho_p| {
            rho_p.contains_rect(rho) && rho_p != rho && rho_hat.strictly_contains(rho_p)
        })
    }

    #[test]
    fn figure1_interval_enumeration() {
        // Paper Figure 1a: S1 = {1, 7, 9} yields 6 intervals.
        let g = grid_1d(&[1.0, 7.0, 9.0]);
        let rects = g.enumerate_rects();
        assert_eq!(rects.len(), 6);
        for (lo, hi) in [(1., 1.), (7., 7.), (9., 9.), (1., 7.), (1., 9.), (7., 9.)] {
            assert!(
                rects.contains(&Rect::interval(lo, hi)),
                "missing [{lo},{hi}]"
            );
        }
        // S2 = {2, 4, 6, 10} yields 10 intervals.
        let g2 = grid_1d(&[2.0, 4.0, 6.0, 10.0]);
        assert_eq!(g2.enumerate_rects().len(), 10);
    }

    #[test]
    fn duplicate_coordinates_are_deduped() {
        let g = grid_1d(&[5.0, 5.0, 5.0, 1.0]);
        assert_eq!(g.coords(0), &[1.0, 5.0]);
        assert_eq!(g.enumerate_rects().len(), 3);
    }

    #[test]
    fn successor_predecessor_lookups() {
        let g = grid_1d(&[2.0, 4.0, 6.0, 10.0]);
        assert_eq!(g.next_geq(0, 4.0), 4.0);
        assert_eq!(g.next_gt(0, 4.0), 6.0);
        assert_eq!(g.prev_leq(0, 4.0), 4.0);
        assert_eq!(g.prev_lt(0, 4.0), 2.0);
        assert_eq!(g.next_gt(0, 10.0), f64::INFINITY);
        assert_eq!(g.prev_lt(0, 2.0), f64::NEG_INFINITY);
        assert_eq!(g.next_geq(0, 3.0), 4.0);
        assert_eq!(g.prev_leq(0, 3.0), 2.0);
    }

    #[test]
    fn maximal_rect_matches_running_example() {
        // R = [3, 8] over S2 = {2, 4, 6, 10}: maximal interval is [4, 6].
        let g = grid_1d(&[2.0, 4.0, 6.0, 10.0]);
        let max = g.maximal_rect_in(&Rect::interval(3.0, 8.0)).unwrap();
        assert_eq!(max, Rect::interval(4.0, 6.0));
        // Over S1 = {1, 7, 9}: maximal interval is [7, 7].
        let g1 = grid_1d(&[1.0, 7.0, 9.0]);
        let max1 = g1.maximal_rect_in(&Rect::interval(3.0, 8.0)).unwrap();
        assert_eq!(max1, Rect::interval(7.0, 7.0));
        // A query between coordinates has no canonical rectangle.
        assert!(g1.maximal_rect_in(&Rect::interval(2.0, 6.0)).is_none());
        assert!(g1.has_empty_dimension(&Rect::interval(2.0, 6.0)));
        assert!(!g1.has_empty_dimension(&Rect::interval(3.0, 8.0)));
    }

    #[test]
    fn one_step_expansion_matches_lemma_4_6() {
        // Running example in Section 4.3: the pair ([7,7], [1,9]) is stored
        // for S1; [1, 9] is exactly the one-step expansion of [7, 7].
        let g1 = grid_1d(&[1.0, 7.0, 9.0]);
        let exp = g1.one_step_expansion(&Rect::interval(7.0, 7.0));
        assert_eq!(exp, Rect::interval(1.0, 9.0));
        // ([4,6], [2,10]) for S2.
        let g2 = grid_1d(&[2.0, 4.0, 6.0, 10.0]);
        let exp2 = g2.one_step_expansion(&Rect::interval(4.0, 6.0));
        assert_eq!(exp2, Rect::interval(2.0, 10.0));
        // Expanding past the extreme coordinates gives ±∞ facets.
        let exp3 = g2.one_step_expansion(&Rect::interval(2.0, 10.0));
        assert_eq!(exp3.lo_at(0), f64::NEG_INFINITY);
        assert_eq!(exp3.hi_at(0), f64::INFINITY);
    }

    #[test]
    fn canonical_pair_examples_from_paper() {
        let g1 = grid_1d(&[1.0, 7.0, 9.0]);
        // ([7,7],[1,9]) is canonical: [7,9] is not strictly inside [1,9].
        assert!(g1.is_canonical_pair(&Rect::interval(7.0, 7.0), &Rect::interval(1.0, 9.0)));
        let g2 = grid_1d(&[2.0, 4.0, 6.0, 10.0]);
        // ([4,6],[2,10]) is canonical.
        assert!(g2.is_canonical_pair(&Rect::interval(4.0, 6.0), &Rect::interval(2.0, 10.0)));
        // ([6,6],[2,10]) is NOT: [4,6] sits strictly between.
        assert!(!g2.is_canonical_pair(&Rect::interval(6.0, 6.0), &Rect::interval(2.0, 10.0)));
    }

    #[test]
    fn canonical_pair_closed_form_matches_bruteforce_1d() {
        let g = grid_1d(&[1.0, 3.0, 5.0, 8.0, 13.0]);
        let rects = g.enumerate_rects();
        for rho in &rects {
            for rho_hat in &rects {
                assert_eq!(
                    g.is_canonical_pair(rho, rho_hat),
                    is_canonical_pair_bruteforce(&g, rho, rho_hat),
                    "mismatch for rho={rho:?} rho_hat={rho_hat:?}"
                );
            }
        }
    }

    #[test]
    fn canonical_pair_closed_form_matches_bruteforce_2d() {
        let pts: Vec<Point> = vec![
            Point::two(1.0, 2.0),
            Point::two(3.0, 1.0),
            Point::two(5.0, 4.0),
        ];
        let g = CoordGrid::from_points(&pts);
        let rects = g.enumerate_rects();
        assert_eq!(rects.len(), 36); // (3*4/2)^2
        let mut canonical = 0;
        for rho in &rects {
            for rho_hat in &rects {
                let fast = g.is_canonical_pair(rho, rho_hat);
                let slow = is_canonical_pair_bruteforce(&g, rho, rho_hat);
                assert_eq!(fast, slow, "mismatch for rho={rho:?} rho_hat={rho_hat:?}");
                canonical += usize::from(fast);
            }
        }
        assert!(canonical > 0);
    }

    #[test]
    fn one_step_expansion_is_always_canonical() {
        let pts: Vec<Point> = vec![
            Point::two(1.0, 2.0),
            Point::two(3.0, 1.0),
            Point::two(5.0, 4.0),
            Point::two(2.0, 6.0),
        ];
        let g = CoordGrid::from_points(&pts);
        for rho in g.enumerate_rects() {
            let hat = g.one_step_expansion(&rho);
            assert!(
                g.is_canonical_pair(&rho, &hat),
                "one-step expansion not canonical for {rho:?} -> {hat:?}"
            );
        }
    }

    #[test]
    fn with_box_adds_facet_coordinates() {
        let pts = vec![Point::two(1.0, 2.0), Point::two(3.0, 4.0)];
        let bbox = Rect::from_bounds(&[0.0, 0.0], &[10.0, 10.0]);
        let g = CoordGrid::with_box(&pts, &bbox);
        assert_eq!(g.coords(0), &[0.0, 1.0, 3.0, 10.0]);
        assert_eq!(g.coords(1), &[0.0, 2.0, 4.0, 10.0]);
    }

    #[test]
    fn empty_slabs_cover_the_line() {
        let g = grid_1d(&[2.0, 4.0]);
        let slabs = g.empty_slabs(0);
        assert_eq!(
            slabs,
            vec![(f64::NEG_INFINITY, 2.0), (2.0, 4.0), (4.0, f64::INFINITY)]
        );
    }
}
