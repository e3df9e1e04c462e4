//! Randomized equivalence of the kd-tree against the brute-force reference,
//! including strict bounds, `f32`-hostile coordinates and the
//! early-stopping `report_while` that stands in for the paper's
//! `ReportFirst`.

use dds_rangetree::{BruteForce, BuildableIndex, KdTree, OrthoIndex, Region};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_points(rng: &mut StdRng, n: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-10.0..10.0)).collect())
        .collect()
}

/// Points with heavy coordinate ties, to exercise strict-bound handling.
fn gridded_points(rng: &mut StdRng, n: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-4i32..5) as f64).collect())
        .collect()
}

fn random_region(rng: &mut StdRng, dim: usize) -> Region {
    let mut region = Region::all(dim);
    for h in 0..dim {
        if rng.gen_bool(0.8) {
            let a = rng.gen_range(-6.0..6.0);
            let b = rng.gen_range(-6.0..6.0);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            region = region
                .with_lo(h, lo, rng.gen_bool(0.5))
                .with_hi(h, hi, rng.gen_bool(0.5));
        }
    }
    region
}

fn sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v
}

/// `report` (as a set), `count` and `report_while` (full pass, and an
/// early stop that sees exactly the first reported id) of `kd` against the
/// scan.
fn assert_matches_brute(kd: &KdTree, brute: &BruteForce, region: &Region) {
    let mut want = vec![];
    brute.report(region, &mut want);
    let want = sorted(want);
    let mut got = vec![];
    kd.report(region, &mut got);
    assert_eq!(sorted(got.clone()), want, "report under {region:?}");
    assert_eq!(kd.count(region), want.len(), "count under {region:?}");
    let mut streamed = vec![];
    kd.report_while(region, &mut |id| {
        streamed.push(id);
        true
    });
    assert_eq!(streamed, got, "report_while order under {region:?}");
    let mut first = vec![];
    kd.report_while(region, &mut |id| {
        first.push(id);
        false
    });
    assert_eq!(first, got[..got.len().min(1)], "early stop");
}

#[test]
fn kdtree_matches_bruteforce() {
    let mut rng = StdRng::seed_from_u64(42);
    for dim in [1usize, 2, 3, 4] {
        for trial in 0..8 {
            let pts = if trial % 2 == 0 {
                random_points(&mut rng, 300, dim)
            } else {
                gridded_points(&mut rng, 300, dim)
            };
            let brute = BruteForce::build(dim, pts.clone());
            let kd = KdTree::build(dim, pts.clone());
            for _ in 0..25 {
                let region = random_region(&mut rng, dim);
                let mut want = vec![];
                brute.report(&region, &mut want);
                let want = sorted(want);
                let mut got_kd = vec![];
                kd.report(&region, &mut got_kd);
                assert_eq!(sorted(got_kd), want, "kd report dim={dim}");
                assert_eq!(kd.count(&region), want.len(), "kd count dim={dim}");
            }
        }
    }
}

#[test]
fn report_while_visits_exactly_the_answer_set() {
    let mut rng = StdRng::seed_from_u64(77);
    for dim in [1usize, 3] {
        let pts = gridded_points(&mut rng, 300, dim);
        let kd = KdTree::build(dim, pts.clone());
        for _ in 0..20 {
            let region = random_region(&mut rng, dim);
            let mut want = vec![];
            BruteForce::build(dim, pts.clone()).report(&region, &mut want);
            let want = sorted(want);
            // Full traversal: the visited set equals the answer set.
            let mut got = vec![];
            kd.report_while(&region, &mut |id| {
                got.push(id);
                true
            });
            assert_eq!(sorted(got), want);
            // Early abort stops after exactly one callback.
            let mut count = 0;
            kd.report_while(&region, &mut |_| {
                count += 1;
                false
            });
            assert_eq!(count, usize::from(!want.is_empty()));
        }
    }
}

/// Coordinates chosen against the kd-tree's `f32` node boxes: values no
/// `f32` represents, values beyond its range (which round to `f32::MAX` or
/// ∞), both kinds of subnormal, signed zeros and infinite facets.
fn f32_hostile_values() -> Vec<f64> {
    let f32_max = f64::from(f32::MAX);
    vec![
        0.1,
        0.1f64.next_up(),
        -1.0 / 3.0,
        16_777_216.0,
        16_777_217.0,
        -16_777_217.0,
        1e300,
        -1e300,
        f64::MAX,
        f32_max,
        f32_max.next_up(),
        -f32_max.next_up(),
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -5e-324,
        1e-40,
        -1e-40,
        0.0,
        -0.0,
        0.5,
        2.0,
    ]
}

/// Query bounds on, and within one `f32` ulp on both sides of, every value
/// a box face can take.
fn bounds_around(values: &[f64]) -> Vec<f64> {
    let mut bounds = vec![];
    for &v in values {
        let f = v as f32;
        bounds.extend([v, v.next_down(), v.next_up()]);
        bounds.extend([f, f.next_down(), f.next_up()].map(f64::from));
    }
    bounds
}

#[test]
fn kdtree_matches_bruteforce_on_f32_hostile_coordinates() {
    let mut rng = StdRng::seed_from_u64(0xF32);
    let values = f32_hostile_values();
    let bounds = bounds_around(&values);
    // dim 7 spreads a node's box over two arena lines.
    for dim in [1usize, 2, 7] {
        let pts: Vec<Vec<f64>> = (0..240)
            .map(|_| {
                (0..dim)
                    .map(|_| values[rng.gen_range(0..values.len())])
                    .collect()
            })
            .collect();
        let brute = BruteForce::build(dim, pts.clone());
        let kd = KdTree::build(dim, pts);
        // Every bound on one axis, closed and strict, from below and above.
        for &b in &bounds {
            for strict in [false, true] {
                assert_matches_brute(&kd, &brute, &Region::all(dim).with_lo(0, b, strict));
                assert_matches_brute(&kd, &brute, &Region::all(dim).with_hi(0, b, strict));
            }
        }
        // Random boxes with faces drawn from the same bounds.
        for _ in 0..300 {
            let mut region = Region::all(dim);
            for h in 0..dim {
                if rng.gen_bool(0.6) {
                    let a = bounds[rng.gen_range(0..bounds.len())];
                    let b = bounds[rng.gen_range(0..bounds.len())];
                    region.set_lo(h, a.min(b), rng.gen_bool(0.5));
                    region.set_hi(h, a.max(b), rng.gen_bool(0.5));
                }
            }
            assert_matches_brute(&kd, &brute, &region);
        }
    }
}

#[test]
fn kdtree_matches_bruteforce_when_all_coordinates_are_equal() {
    // Every split is degenerate and every node box is one point that no
    // f32 represents.
    let pts = vec![vec![0.1, 16_777_217.0]; 100];
    let brute = BruteForce::build(2, pts.clone());
    let kd = KdTree::build(2, pts);
    for &b in &bounds_around(&[0.1]) {
        for strict in [false, true] {
            assert_matches_brute(&kd, &brute, &Region::all(2).with_lo(0, b, strict));
            assert_matches_brute(&kd, &brute, &Region::all(2).with_hi(0, b, strict));
        }
    }
}

#[test]
fn labeled_build_reports_labels_in_dfs_order() {
    let mut rng = StdRng::seed_from_u64(31);
    let dim = 3;
    let pts = gridded_points(&mut rng, 300, dim);
    let by_id = KdTree::build(dim, pts.clone());
    // Point `i` carries label `i % 5`.
    let labels = (0..pts.len() as u32).map(|i| i % 5).collect();
    let by_label = KdTree::build_labeled(dim, pts.concat(), labels, 1);
    assert_eq!(by_label.len(), pts.len());
    for _ in 0..25 {
        let region = random_region(&mut rng, dim);
        let mut ids = vec![];
        by_id.report(&region, &mut ids);
        let mut labels = vec![];
        by_label.report(&region, &mut labels);
        // Same points in the same traversal order, each reported as its label.
        let want: Vec<usize> = ids.iter().map(|id| id % 5).collect();
        assert_eq!(labels, want);
        assert_eq!(by_label.count(&region), ids.len());
    }
}

/// A region as its caller states it — one `(value, strict)` pair per
/// bound — tested with the literal `>`/`≥` and `<`/`≤` that each strict
/// flag names. `Region` keeps its bounds in closed form instead, so this is
/// the reference its normalisation is checked against (`BruteForce` calls
/// `Region::contains` and cannot be).
#[derive(Clone, Debug)]
struct Literal {
    lo: Vec<(f64, bool)>,
    hi: Vec<(f64, bool)>,
}

impl Literal {
    fn all(dim: usize) -> Self {
        Literal {
            lo: vec![(f64::NEG_INFINITY, false); dim],
            hi: vec![(f64::INFINITY, false); dim],
        }
    }

    fn contains(&self, p: &[f64]) -> bool {
        p.iter()
            .zip(&self.lo)
            .zip(&self.hi)
            .all(|((&x, &lo), &hi)| {
                let above = match lo {
                    (v, true) => x > v,
                    (v, false) => x >= v,
                };
                let below = match hi {
                    (v, true) => x < v,
                    (v, false) => x <= v,
                };
                above && below
            })
    }

    fn region(&self) -> Region {
        let mut region = Region::all(self.lo.len());
        for (h, (&(lo, lo_strict), &(hi, hi_strict))) in self.lo.iter().zip(&self.hi).enumerate() {
            region.set_lo(h, lo, lo_strict);
            region.set_hi(h, hi, hi_strict);
        }
        region
    }

    /// The ids of `pts` inside, ascending.
    fn answer(&self, pts: &[Vec<f64>]) -> Vec<usize> {
        (0..pts.len()).filter(|&i| self.contains(&pts[i])).collect()
    }
}

/// `Region::contains` on every point, and report/count of the kd-tree over
/// the NaN-free points, against the literal predicate.
fn assert_matches_literal(literal: &Literal, pts: &[Vec<f64>], probes: &[Vec<f64>], kd: &KdTree) {
    let region = literal.region();
    for p in probes.iter().chain(pts) {
        assert_eq!(
            region.contains(p),
            literal.contains(p),
            "contains({p:?}) under {literal:?}"
        );
    }
    let want = literal.answer(pts);
    let mut got = vec![];
    kd.report(&region, &mut got);
    assert_eq!(sorted(got), want, "report under {literal:?}");
    assert_eq!(kd.count(&region), want.len(), "count under {literal:?}");
}

/// The hostile values hold signed zeros, subnormals and ±∞, so the bounds
/// include a strict lower bound at +∞ and a strict upper bound at −∞ (the
/// empty axis) beside points at ±∞; a NaN bound and a NaN coordinate (which
/// only `contains` can meet) satisfy nothing, as with the literal predicates.
#[test]
fn closed_form_matches_the_literal_strict_predicates() {
    let mut rng = StdRng::seed_from_u64(0xC105ED);
    let values = f32_hostile_values();
    let mut bounds = bounds_around(&values);
    bounds.push(f64::NAN);
    // Single coordinates no tree can hold: NaN, probed through `contains`.
    let probes: Vec<Vec<f64>> = values.iter().chain([&f64::NAN]).map(|&v| vec![v]).collect();
    for dim in [1usize, 2, 7] {
        let mut pts: Vec<Vec<f64>> = (0..240)
            .map(|_| {
                (0..dim)
                    .map(|_| values[rng.gen_range(0..values.len())])
                    .collect()
            })
            .collect();
        // Every value on axis 0, so each bound meets its boundary point.
        pts.extend(values.iter().map(|&v| {
            let mut p = vec![0.5; dim];
            p[0] = v;
            p
        }));
        let kd = KdTree::build(dim, pts.clone());
        let probes: Vec<Vec<f64>> = probes
            .iter()
            .map(|p| {
                let mut q = vec![0.5; dim];
                q[0] = p[0];
                q
            })
            .collect();
        // Every bound on axis 0, closed and strict, lower and upper.
        for &b in &bounds {
            for strict in [false, true] {
                let mut lower = Literal::all(dim);
                lower.lo[0] = (b, strict);
                assert_matches_literal(&lower, &pts, &probes, &kd);
                let mut upper = Literal::all(dim);
                upper.hi[0] = (b, strict);
                assert_matches_literal(&upper, &pts, &probes, &kd);
            }
        }
        // Random boxes with faces drawn from the same bounds.
        for _ in 0..200 {
            let mut literal = Literal::all(dim);
            for h in 0..dim {
                if rng.gen_bool(0.6) {
                    let a = bounds[rng.gen_range(0..bounds.len())];
                    let b = bounds[rng.gen_range(0..bounds.len())];
                    literal.lo[h] = (a.min(b), rng.gen_bool(0.5));
                    literal.hi[h] = (a.max(b), rng.gen_bool(0.5));
                }
            }
            assert_matches_literal(&literal, &pts, &probes, &kd);
        }
    }
}
