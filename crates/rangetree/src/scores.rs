//! One-dimensional score structures for the Pref index (Section 5).
//!
//! Algorithm 5 builds, per ε-net vector `v`, a "1-dimensional static range
//! tree" over the scores `γ_v^(i)`; Algorithm 6 reports all indexes with
//! score in `[a_θ − ε − δ, ∞)`. A sorted array with binary search is exactly
//! that structure ([`SortedScores`]); the dynamic variant (Remark 1 of
//! Theorem 5.4) is an ordered set ([`DynScores`]).

use std::cmp::Ordering;
use std::collections::BTreeSet;

/// `f64` wrapper with a total order (via `f64::total_cmp`), usable as an
/// ordered-collection key. NaN sorts above +∞ and is rejected at the API
/// boundary of the structures below.
#[derive(Clone, Copy, Debug, PartialEq)]
struct TotalF64(f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Static sorted score array: the per-vector structure `T_v` of Algorithm 5.
#[derive(Clone, Debug)]
pub struct SortedScores {
    /// Scores in ascending order.
    keys: Vec<f64>,
    /// `ids[i]` is the dataset index whose score is `keys[i]`.
    ids: Vec<u32>,
}

impl SortedScores {
    /// Builds from `scores[i]` = score of dataset `i`.
    ///
    /// # Panics
    /// Panics on NaN scores.
    pub fn build(scores: &[f64]) -> Self {
        assert!(scores.iter().all(|s| !s.is_nan()), "NaN score");
        assert!(scores.len() < u32::MAX as usize, "too many scores");
        let mut order: Vec<u32> = (0..scores.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| scores[a as usize].total_cmp(&scores[b as usize]));
        let keys = order.iter().map(|&i| scores[i as usize]).collect();
        SortedScores { keys, ids: order }
    }

    /// Number of scores.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Appends every dataset index with score `≥ t` — the `T_v.Report(I')`
    /// call of Algorithm 6. Output-sensitive: `O(log N + OUT)`.
    pub fn report_at_least(&self, t: f64, out: &mut Vec<usize>) {
        out.extend(self.ids_in(t, f64::INFINITY).iter().map(|&i| i as usize));
    }

    /// The dataset indexes with score in `[lo, hi]`, in ascending score
    /// order — one contiguous slice, so the allocation-free form of
    /// [`report_at_least`](Self::report_at_least). An upper end of +∞ costs
    /// no second search; one below `lo` yields nothing.
    pub fn ids_in(&self, lo: f64, hi: f64) -> &[u32] {
        let start = self.keys.partition_point(|k| *k < lo);
        let end = if hi == f64::INFINITY {
            self.keys.len()
        } else {
            self.keys.partition_point(|k| *k <= hi)
        };
        &self.ids[start..end.max(start)]
    }

    /// The scores in ascending order.
    pub fn keys(&self) -> &[f64] {
        &self.keys
    }
}

/// The set key of a score. `total_cmp` orders −0.0 below +0.0, so a −0.0
/// score (a dot product summed from −0.0) would fall below a threshold of
/// 0.0 that `<` admits; `+ 0.0` turns −0.0 into +0.0 and leaves every
/// other value as it is, so the set agrees with [`SortedScores`].
fn key(score: f64) -> TotalF64 {
    TotalF64(score + 0.0)
}

/// Dynamic ordered score set supporting synopsis insertion/deletion.
#[derive(Clone, Debug, Default)]
pub struct DynScores {
    set: BTreeSet<(TotalF64, usize)>,
}

impl DynScores {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Inserts `(score, id)`. Returns `false` if the exact pair is present.
    ///
    /// # Panics
    /// Panics on NaN.
    pub fn insert(&mut self, id: usize, score: f64) -> bool {
        assert!(!score.is_nan(), "NaN score");
        self.set.insert((key(score), id))
    }

    /// Removes `(score, id)`. Returns `false` if absent.
    pub fn remove(&mut self, id: usize, score: f64) -> bool {
        self.set.remove(&(key(score), id))
    }

    /// Appends every id with score `≥ t` in `O(log N + OUT)`.
    pub fn report_at_least(&self, t: f64, out: &mut Vec<usize>) {
        out.extend(self.set.range((TotalF64(t), 0)..).map(|&(_, id)| id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_scores_threshold_reporting() {
        let s = SortedScores::build(&[0.5, 0.9, 0.1, 0.7]);
        let mut out = vec![];
        s.report_at_least(0.6, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 3]);
        // Closed boundary included.
        let mut out2 = vec![];
        s.report_at_least(0.7, &mut out2);
        out2.sort_unstable();
        assert_eq!(out2, vec![1, 3]);
        let mut none = vec![];
        s.report_at_least(2.0, &mut none);
        assert!(none.is_empty());
        // A closed two-sided band is one slice; an inverted one is empty.
        assert_eq!(s.ids_in(0.5, 0.7), &[0, 3]);
        assert_eq!(s.ids_in(0.6, f64::INFINITY), &[3, 1]);
        assert!(s.ids_in(0.7, 0.6).is_empty());
    }

    #[test]
    fn dyn_scores_insert_remove() {
        let mut d = DynScores::new();
        d.insert(0, 0.5);
        d.insert(1, 0.9);
        d.insert(2, 0.1);
        assert!(d.remove(2, 0.1));
        assert!(!d.remove(2, 0.1));
        let mut out = vec![];
        d.report_at_least(0.5, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn negative_zero_scores_meet_a_zero_threshold() {
        // `Point::dot` of a point at the origin along a negative axis sums
        // to −0.0; the sorted and the dynamic structure must both admit it
        // at threshold 0.0, and the dynamic one must still remove it.
        let mut sorted = vec![];
        SortedScores::build(&[-0.0]).report_at_least(0.0, &mut sorted);
        assert_eq!(sorted, vec![0]);
        let mut d = DynScores::new();
        assert!(d.insert(0, -0.0));
        let mut out = vec![];
        d.report_at_least(0.0, &mut out);
        assert_eq!(out, vec![0]);
        let mut at_neg_zero = vec![];
        d.report_at_least(-0.0, &mut at_neg_zero);
        assert_eq!(at_neg_zero, vec![0]);
        assert!(d.remove(0, -0.0));
        assert!(d.is_empty());
    }

    #[test]
    fn duplicate_scores_are_kept_per_id() {
        let mut d = DynScores::new();
        d.insert(0, 0.5);
        d.insert(1, 0.5);
        let mut out = vec![];
        d.report_at_least(0.5, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn total_f64_orders_negative_zero_and_infinities() {
        let mut v = [
            TotalF64(f64::INFINITY),
            TotalF64(-0.0),
            TotalF64(0.0),
            TotalF64(f64::NEG_INFINITY),
        ];
        v.sort();
        assert_eq!(v[0].0, f64::NEG_INFINITY);
        assert_eq!(v[3].0, f64::INFINITY);
    }
}
