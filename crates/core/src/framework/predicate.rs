//! Measure functions, predicates and logical expressions (Section 1.1).

use super::Repository;
use dds_geom::{Point, Rect};

/// A closed interval `θ = [a_θ, b_θ]` over measure values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Lower endpoint `a_θ`.
    pub lo: f64,
    /// Upper endpoint `b_θ`.
    pub hi: f64,
}

impl Interval {
    /// `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either endpoint is NaN.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "NaN interval endpoint");
        assert!(lo <= hi, "invalid interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The one-sided threshold interval `[a, +∞)` used by threshold
    /// predicates (for percentile measures this is equivalent to `[a, 1]`).
    pub fn at_least(a: f64) -> Self {
        Interval::new(a, f64::INFINITY)
    }

    /// Membership test `x ∈ θ`.
    #[inline]
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// θ as a percentile predicate is answered: clamped into `[0, 1]`, the
    /// lower end first, the upper end never below it. Every Ptile query
    /// path and the shard routing plan read θ through this one clamp.
    pub(crate) fn clamp_to_unit(&self) -> Interval {
        let lo = self.lo.max(0.0);
        Interval::new(lo, self.hi.min(1.0).max(lo))
    }

    /// The interval widened by `slack` on both sides (the ε + 2δ bands of
    /// the approximation guarantees).
    pub fn widened(&self, slack: f64) -> Interval {
        Interval::new(self.lo - slack, self.hi + slack)
    }
}

/// A measure function `M(P) ∈ R` (Section 1.1).
#[derive(Clone, Debug)]
pub enum MeasureFunction {
    /// The percentile measure `M_R(P) = |P ∩ R| / |P|` over an axis-parallel
    /// rectangle (class `F_□^d`).
    Percentile(Rect),
    /// The top-k preference measure `M_{v,k}(P) = ω_k(P, v)` — the k-th
    /// largest inner product with the unit vector `v` (class `F_k^d`).
    TopK {
        /// Query unit vector.
        v: Vec<f64>,
        /// Rank `k ≥ 1`.
        k: usize,
    },
}

impl MeasureFunction {
    /// Evaluates the measure on a raw dataset (ground truth).
    pub fn eval(&self, points: &[Point]) -> f64 {
        match self {
            MeasureFunction::Percentile(r) => r.mass(points),
            MeasureFunction::TopK { v, k } => {
                if *k == 0 || *k > points.len() {
                    return f64::NEG_INFINITY;
                }
                let mut scores: Vec<f64> = points.iter().map(|p| p.dot(v)).collect();
                let (_, kth, _) = scores.select_nth_unstable_by(*k - 1, |a, b| b.total_cmp(a));
                *kth
            }
        }
    }
}

/// A range/threshold predicate `Pred_{M,θ}(P) = M(P) ∈ θ`.
#[derive(Clone, Debug)]
pub struct Predicate {
    /// The measure function.
    pub measure: MeasureFunction,
    /// The interval θ.
    pub theta: Interval,
}

impl Predicate {
    /// Percentile range predicate.
    pub fn percentile(r: Rect, theta: Interval) -> Self {
        Predicate {
            measure: MeasureFunction::Percentile(r),
            theta,
        }
    }

    /// Percentile threshold predicate (`θ = [a, 1]`).
    pub fn percentile_at_least(r: Rect, a: f64) -> Self {
        Predicate::percentile(r, Interval::new(a, 1.0))
    }

    /// Preference threshold predicate (`ω_k(P, v) ≥ a`).
    pub fn topk_at_least(v: Vec<f64>, k: usize, a: f64) -> Self {
        Predicate {
            measure: MeasureFunction::TopK { v, k },
            theta: Interval::at_least(a),
        }
    }

    /// Ground-truth evaluation on a raw dataset.
    pub fn eval(&self, points: &[Point]) -> bool {
        self.theta.contains(self.measure.eval(points))
    }
}

/// Most DNF clauses [`LogicalExpr::to_dnf`] will expand to before
/// panicking — logical expressions are constant-size in the problem
/// definition, and every index layer sizes its per-clause scratch to this.
pub const MAX_DNF_CLAUSES: u64 = 64;

/// A logical expression `Π` over predicates (constant size), combining
/// conjunctions and disjunctions (Section 1.1).
#[derive(Clone, Debug)]
pub enum LogicalExpr {
    /// A single predicate.
    Pred(Predicate),
    /// Conjunction of sub-expressions.
    And(Vec<LogicalExpr>),
    /// Disjunction of sub-expressions.
    Or(Vec<LogicalExpr>),
}

impl LogicalExpr {
    /// Ground-truth evaluation `Π(P)` on a raw dataset.
    pub fn eval(&self, points: &[Point]) -> bool {
        match self {
            LogicalExpr::Pred(p) => p.eval(points),
            LogicalExpr::And(xs) => xs.iter().all(|x| x.eval(points)),
            LogicalExpr::Or(xs) => xs.iter().any(|x| x.eval(points)),
        }
    }

    /// Number of predicate leaves `m`.
    pub fn num_predicates(&self) -> usize {
        match self {
            LogicalExpr::Pred(_) => 1,
            LogicalExpr::And(xs) | LogicalExpr::Or(xs) => {
                xs.iter().map(LogicalExpr::num_predicates).sum()
            }
        }
    }

    /// An upper bound on the DNF clause count, computed **without
    /// expanding** (saturating arithmetic, so even an astronomically
    /// explosive expression cannot overflow). Every factor is clamped to
    /// ≥ 1, which makes each *prefix* product of an `And` bounded by the
    /// returned total — in particular, a zero-child `Or` (which
    /// contributes zero clauses to the final result) cannot hide the huge
    /// intermediate accumulators [`to_dnf`](Self::to_dnf) would
    /// materialize before reaching it.
    pub fn dnf_clause_bound(&self) -> u64 {
        match self {
            LogicalExpr::Pred(_) => 1,
            LogicalExpr::Or(xs) => xs
                .iter()
                .map(LogicalExpr::dnf_clause_bound)
                .fold(0u64, |a, b| a.saturating_add(b))
                .max(1),
            LogicalExpr::And(xs) => xs
                .iter()
                .map(|x| x.dnf_clause_bound().max(1))
                .fold(1u64, |a, b| a.saturating_mul(b)),
        }
    }

    /// Disjunctive normal form: a list of conjunctive clauses, each a list
    /// of predicates. The index layer answers each clause with the
    /// multi-predicate structure and unions the results (Appendix C.4
    /// observes disjunctions are straightforward given conjunctions).
    ///
    /// # Panics
    /// Panics if the expansion exceeds [`MAX_DNF_CLAUSES`] clauses —
    /// logical expressions are constant-size in the problem definition.
    /// The bound is checked via [`dnf_clause_bound`](Self::dnf_clause_bound)
    /// **before** anything is expanded, so even an expression whose huge
    /// expansion would collapse at the end (a wide `And` ending in an
    /// empty `Or`) panics immediately instead of materializing its
    /// intermediate clause accumulators first.
    pub fn to_dnf(&self) -> Vec<Vec<Predicate>> {
        assert!(
            self.dnf_clause_bound() <= MAX_DNF_CLAUSES,
            "logical expression expands too far"
        );
        self.dnf_rec()
    }

    fn dnf_rec(&self) -> Vec<Vec<Predicate>> {
        match self {
            LogicalExpr::Pred(p) => vec![vec![p.clone()]],
            LogicalExpr::Or(xs) => xs.iter().flat_map(LogicalExpr::dnf_rec).collect(),
            LogicalExpr::And(xs) => {
                let mut acc: Vec<Vec<Predicate>> = vec![vec![]];
                for x in xs {
                    let sub = x.dnf_rec();
                    let mut next = Vec::with_capacity(acc.len() * sub.len());
                    for clause in &acc {
                        for s in &sub {
                            let mut c = clause.clone();
                            c.extend(s.iter().cloned());
                            next.push(c);
                        }
                    }
                    acc = next;
                }
                acc
            }
        }
    }
}

/// Ground truth `q_Π(P) = {i : Π(P_i) = true}`, by brute force over the raw
/// repository. The reference answer for every experiment.
pub fn ground_truth(repo: &Repository, expr: &LogicalExpr) -> Vec<usize> {
    repo.point_sets()
        .enumerate()
        .filter(|(_, pts)| expr.eval(pts))
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Dataset;

    fn repo() -> Repository {
        Repository::new(vec![
            Dataset::from_rows("a", vec![vec![1.0], vec![7.0], vec![9.0]]),
            Dataset::from_rows("b", vec![vec![2.0], vec![4.0], vec![6.0], vec![10.0]]),
            Dataset::from_rows("c", vec![vec![100.0], vec![200.0]]),
        ])
    }

    #[test]
    fn percentile_measure_matches_figure1() {
        let r = Rect::interval(3.0, 8.0);
        let m = MeasureFunction::Percentile(r);
        let repo = repo();
        assert!((m.eval(repo.get(0).points()) - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.eval(repo.get(1).points()) - 0.5).abs() < 1e-12);
        assert_eq!(m.eval(repo.get(2).points()), 0.0);
    }

    #[test]
    fn topk_measure() {
        let repo = repo();
        let m = MeasureFunction::TopK { v: vec![1.0], k: 2 };
        assert_eq!(m.eval(repo.get(0).points()), 7.0);
        assert_eq!(m.eval(repo.get(2).points()), 100.0);
        let m_big = MeasureFunction::TopK { v: vec![1.0], k: 5 };
        assert_eq!(m_big.eval(repo.get(0).points()), f64::NEG_INFINITY);
    }

    #[test]
    fn ground_truth_single_predicate() {
        let repo = repo();
        let expr = LogicalExpr::Pred(Predicate::percentile_at_least(
            Rect::interval(3.0, 8.0),
            0.2,
        ));
        assert_eq!(ground_truth(&repo, &expr), vec![0, 1]);
    }

    #[test]
    fn logical_expressions_and_dnf() {
        let p1 = Predicate::percentile_at_least(Rect::interval(3.0, 8.0), 0.2);
        let p2 = Predicate::percentile_at_least(Rect::interval(90.0, 300.0), 0.9);
        let expr = LogicalExpr::Or(vec![
            LogicalExpr::Pred(p1.clone()),
            LogicalExpr::And(vec![LogicalExpr::Pred(p2.clone()), LogicalExpr::Pred(p1)]),
        ]);
        assert_eq!(expr.num_predicates(), 3);
        let dnf = expr.to_dnf();
        assert_eq!(dnf.len(), 2);
        assert_eq!(dnf[0].len(), 1);
        assert_eq!(dnf[1].len(), 2);
        let repo = repo();
        assert_eq!(ground_truth(&repo, &expr), vec![0, 1]);
    }

    #[test]
    fn dnf_bound_is_checked_before_expansion() {
        let pred = || {
            LogicalExpr::Pred(Predicate::percentile_at_least(
                Rect::interval(0.0, 1.0),
                0.5,
            ))
        };
        // Well within the bound: 2 × 2 = 4 clauses.
        let small_or = LogicalExpr::Or(vec![pred(), pred()]);
        let small = LogicalExpr::And(vec![small_or.clone(), small_or]);
        assert_eq!(small.dnf_clause_bound(), 4);
        assert_eq!(small.to_dnf().len(), 4);
        // A wide And ending in an EMPTY Or: the finished expansion would
        // hold zero clauses, but the intermediate accumulator would reach
        // ~100^3 clauses first. The pre-expansion bound clamps every
        // factor to >= 1, so each prefix product is covered and to_dnf
        // panics up front instead of materializing the intermediates.
        let wide_or = LogicalExpr::Or((0..100).map(|_| pred()).collect());
        let bomb = LogicalExpr::And(vec![
            wide_or.clone(),
            wide_or.clone(),
            wide_or,
            LogicalExpr::Or(vec![]),
        ]);
        assert!(bomb.dnf_clause_bound() > MAX_DNF_CLAUSES);
        let panicked = std::panic::catch_unwind(|| bomb.to_dnf());
        assert!(panicked.is_err(), "to_dnf must refuse the bomb up front");
    }

    #[test]
    fn interval_band_widening() {
        let t = Interval::new(0.2, 0.4);
        let w = t.widened(0.05);
        assert!(w.contains(0.16) && w.contains(0.44));
        assert!(!w.contains(0.46));
    }
}
