//! Dynamic Ptile index: synopsis insertion and deletion — Remark 1 after
//! Theorem 4.11.
//!
//! The range structure of Algorithm 3 decomposes over datasets, so the
//! classic logarithmic method (Bentley–Saxe) applies to whole datasets:
//! level `ℓ` is a frozen [`PtileRangeIndex`] over at most `2^ℓ` datasets.
//! An insertion builds the dataset's part once and merges levels like a
//! binary counter, rebuilding each merged level from the retained parts (no
//! resampling). A deletion sets one retired flag; queries run Algorithm 4 on
//! every level and filter retired datasets out, and a merge that touches a
//! retired dataset's level drops its part for good. Datasets are identified
//! by stable `u64` handles issued at insertion, which double as their seed
//! identities ([`PtileBuildParams::seed_ids`]).

use super::range::{PtileRangeIndex, RangePart};
use super::PtileBuildParams;
use crate::framework::Interval;
use crate::pool::{par_map, BuildOptions};
use crate::scratch::QueryScratch;
use dds_geom::Rect;
use dds_synopsis::PercentileSynopsis;

/// Stable handle of an inserted synopsis.
pub type SynopsisHandle = u64;

/// Dynamic percentile-range index over an evolving set of synopses.
///
/// ```
/// use dds_core::framework::Interval;
/// use dds_core::ptile::{DynamicPtileIndex, PtileBuildParams};
/// use dds_geom::{Point, Rect};
/// use dds_synopsis::ExactSynopsis;
///
/// let mut index = DynamicPtileIndex::new(1, PtileBuildParams::exact_centralized());
/// let a = index.insert_synopsis(&ExactSynopsis::new(vec![
///     Point::one(1.0), Point::one(7.0), Point::one(9.0),
/// ]));
/// let _b = index.insert_synopsis(&ExactSynopsis::new(vec![
///     Point::one(2.0), Point::one(4.0), Point::one(6.0), Point::one(10.0),
/// ]));
/// let hits = index.query(&Rect::interval(3.0, 8.0), Interval::new(0.2, 0.4));
/// assert_eq!(hits, vec![a]);
/// index.remove_synopsis(a);
/// assert!(index.query(&Rect::interval(3.0, 8.0), Interval::new(0.2, 0.4)).is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct DynamicPtileIndex {
    dim: usize,
    params: PtileBuildParams,
    /// `levels[ℓ]` holds at most `2^ℓ` datasets.
    levels: Vec<Option<Level>>,
    /// `retired[h]` for every handle ever issued (`len` = next handle).
    retired: Vec<bool>,
    /// Worst sampling error among synopses ever inserted (monotone, so
    /// guarantees quoted to callers never weaken retroactively).
    eps_max: f64,
    n_alive: usize,
}

/// One frozen Bentley–Saxe level: the static index over its datasets and
/// the parts it was built from, with their handles.
#[derive(Clone, Debug)]
struct Level {
    index: PtileRangeIndex,
    /// Label `j` of `index` is `parts[j]`, in ascending handle order.
    parts: Vec<(SynopsisHandle, RangePart)>,
}

impl DynamicPtileIndex {
    /// Creates an empty dynamic index for `dim`-dimensional datasets.
    pub fn new(dim: usize, params: PtileBuildParams) -> Self {
        assert!(dim >= 1);
        DynamicPtileIndex {
            dim,
            params,
            levels: Vec::new(),
            retired: Vec::new(),
            eps_max: 0.0,
            n_alive: 0,
        }
    }

    /// Number of currently indexed synopses.
    pub fn len(&self) -> usize {
        self.n_alive
    }

    /// True if no synopsis is indexed.
    pub fn is_empty(&self) -> bool {
        self.n_alive == 0
    }

    /// Achieved sampling error ε (monotone maximum over insertions).
    pub fn eps(&self) -> f64 {
        self.eps_max
    }

    /// Query margin `ε + δ`.
    pub fn margin(&self) -> f64 {
        self.eps_max + self.params.delta
    }

    /// Guarantee band `2(ε + δ)` (as in the static range index).
    pub fn slack(&self) -> f64 {
        2.0 * self.margin()
    }

    /// Inserts a synopsis; `Õ(1)` amortized per lifted point. The φ split
    /// uses a declared [`PtileBuildParams::phi_datasets`] anchor (and
    /// panics once the live datasets outgrow it, as a static build does),
    /// else `max(N, 16)` datasets.
    ///
    /// Sampling draws from the RNG stream a static build gives seed id
    /// `handle`, so an insertion's content depends only on `(handle, N)`:
    /// that lets [`insert_batch`](Self::insert_batch) build parts on
    /// worker threads and stay bit-identical to serial inserts.
    pub fn insert_synopsis<S: PercentileSynopsis>(&mut self, synopsis: &S) -> SynopsisHandle {
        let part = self.dataset_part(synopsis, self.retired.len() as u64, self.n_alive + 1);
        self.push(part, 1)
    }

    /// Bulk insertion on the worker pool: the per-synopsis parts (coreset
    /// sampling, canonical-rectangle pair enumeration, empty slabs) are
    /// computed on `opts.threads` threads (caller included) and applied in
    /// handle order. The resulting structure — handles, level contents, query
    /// answers, quoted `eps()` — is **bit-identical** to calling
    /// [`insert_synopsis`](Self::insert_synopsis) once per synopsis in
    /// order, for every thread count.
    pub fn insert_batch<S: PercentileSynopsis + Sync>(
        &mut self,
        synopses: &[S],
        opts: &BuildOptions,
    ) -> Vec<SynopsisHandle> {
        let base_handle = self.retired.len() as u64;
        let base_alive = self.n_alive;
        let this = &*self;
        // The j-th unit sees the budget the serial loop would have used at
        // its turn: N grows by one per preceding insertion.
        let parts = par_map(opts, synopses, |j, syn| {
            this.dataset_part(syn, base_handle + j as u64, base_alive + j + 1)
        });
        parts
            .into_iter()
            .map(|p| self.push(p, opts.threads))
            .collect()
    }

    /// One synopsis' part, built by the static index's own work unit with
    /// seed id `handle`, for a repository of `n` live datasets.
    fn dataset_part<S: PercentileSynopsis>(
        &self,
        synopsis: &S,
        handle: SynopsisHandle,
        n: usize,
    ) -> RangePart {
        assert_eq!(synopsis.dim(), self.dim, "synopsis dimension mismatch");
        let phi_n = match self.params.phi_datasets {
            Some(_) => n,
            None => n.max(16),
        };
        PtileRangeIndex::dataset_part(synopsis, handle, self.params.delta, &self.params, phi_n)
    }

    /// Issues the next handle to `part` and merges it into the levels like
    /// a binary counter: the carry absorbs every occupied level below the
    /// first empty one that can hold it, dropping retired parts, and that
    /// level is rebuilt from the carried parts (serial, in handle order —
    /// this is where the structure actually mutates).
    fn push(&mut self, part: RangePart, threads: usize) -> SynopsisHandle {
        let handle = self.retired.len() as u64;
        self.retired.push(false);
        self.n_alive += 1;
        self.eps_max = self.eps_max.max(part.eps_i);
        let mut carry = vec![(handle, part)];
        let mut level = 0;
        loop {
            if level == self.levels.len() {
                self.levels.push(None);
            }
            match self.levels[level].take() {
                None if carry.len() <= 1 << level => break,
                None => {}
                Some(l) => carry.extend(
                    l.parts
                        .into_iter()
                        .filter(|(h, _)| !self.retired[*h as usize]),
                ),
            }
            level += 1;
        }
        carry.sort_unstable_by_key(|&(h, _)| h);
        let parts = carry.iter().map(|(_, p)| p.clone()).collect();
        let index = PtileRangeIndex::from_parts(self.dim, parts, threads);
        self.levels[level] = Some(Level {
            index,
            parts: carry,
        });
        handle
    }

    /// Removes a synopsis by setting its retired flag. Returns `false` for
    /// unknown and already removed handles.
    pub fn remove_synopsis(&mut self, handle: SynopsisHandle) -> bool {
        let slot = usize::try_from(handle).ok();
        match slot.and_then(|h| self.retired.get_mut(h)) {
            Some(retired) if !*retired => {
                *retired = true;
                self.n_alive -= 1;
                true
            }
            _ => false,
        }
    }

    /// Answers `Π = Pred_{M_R, θ}` over the live synopses; same guarantees
    /// as the static range index. Read-only (`&self`): concurrent queries
    /// may run against one index between mutations.
    pub fn query(&self, r: &Rect, theta: Interval) -> Vec<SynopsisHandle> {
        assert_eq!(r.dim(), self.dim, "query rectangle dimension mismatch");
        let mut out = Vec::new();
        let mut scratch = QueryScratch::new();
        for level in self.levels.iter().flatten() {
            level.index.query_cb_with(r, theta, &mut scratch, &mut |j| {
                let h = level.parts[j].0;
                if !self.retired[h as usize] {
                    out.push(h);
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_geom::Point;
    use dds_synopsis::ExactSynopsis;

    fn syn(xs: &[f64]) -> ExactSynopsis {
        ExactSynopsis::new(xs.iter().map(|&x| Point::one(x)).collect())
    }

    #[test]
    fn insert_query_remove_cycle() {
        let mut idx = DynamicPtileIndex::new(1, PtileBuildParams::exact_centralized());
        let h1 = idx.insert_synopsis(&syn(&[1.0, 7.0, 9.0]));
        let h2 = idx.insert_synopsis(&syn(&[2.0, 4.0, 6.0, 10.0]));
        assert_eq!(idx.eps(), 0.0);
        // Running example: θ = [0.2, 0.4] over R = [3, 8] → only h1.
        let hits = idx.query(&Rect::interval(3.0, 8.0), Interval::new(0.2, 0.4));
        assert_eq!(hits, vec![h1]);
        // Remove h1: nothing left in the band.
        assert!(idx.remove_synopsis(h1));
        assert!(!idx.remove_synopsis(h1));
        let hits = idx.query(&Rect::interval(3.0, 8.0), Interval::new(0.2, 0.4));
        assert!(hits.is_empty());
        // h2 still answers a wider band.
        let hits = idx.query(&Rect::interval(3.0, 8.0), Interval::new(0.4, 0.6));
        assert_eq!(hits, vec![h2]);
    }

    #[test]
    fn many_inserts_trigger_merges_and_stay_correct() {
        let mut idx = DynamicPtileIndex::new(1, PtileBuildParams::exact_centralized());
        let mut handles = Vec::new();
        // Dataset i concentrates at [i, i+0.5] (mass 1 inside its slot).
        for i in 0..40 {
            let base = 10.0 * i as f64;
            handles.push(idx.insert_synopsis(&syn(&[base, base + 0.2, base + 0.4])));
        }
        for i in (0..40).step_by(7) {
            let base = 10.0 * i as f64;
            let hits = idx.query(
                &Rect::interval(base - 1.0, base + 1.0),
                Interval::new(0.9, 1.0),
            );
            assert_eq!(hits, vec![handles[i]], "query around dataset {i}");
        }
        // Remove half, re-check.
        for i in (0..40).step_by(2) {
            assert!(idx.remove_synopsis(handles[i]));
        }
        assert_eq!(idx.len(), 20);
        let hits = idx.query(&Rect::interval(-1.0, 1.0), Interval::new(0.9, 1.0));
        assert!(hits.is_empty(), "removed dataset must not report");
        let hits = idx.query(&Rect::interval(9.0, 11.0), Interval::new(0.9, 1.0));
        assert_eq!(hits, vec![handles[1]]);
    }

    #[test]
    fn zero_band_aux_path_is_dynamic_too() {
        let mut idx = DynamicPtileIndex::new(1, PtileBuildParams::exact_centralized());
        let h1 = idx.insert_synopsis(&syn(&[1.0, 9.0]));
        let h2 = idx.insert_synopsis(&syn(&[4.0, 5.0]));
        // R = [3, 6] has no mass from h1, full mass from h2.
        let mut hits = idx.query(&Rect::interval(3.0, 6.0), Interval::new(0.0, 0.2));
        hits.sort_unstable();
        assert_eq!(hits, vec![h1]);
        assert!(idx.remove_synopsis(h1));
        assert!(idx
            .query(&Rect::interval(3.0, 6.0), Interval::new(0.0, 0.2))
            .is_empty());
        let _ = h2;
    }

    #[test]
    fn levels_count_in_binary_and_merges_drop_retired_parts() {
        let mut idx = DynamicPtileIndex::new(1, PtileBuildParams::exact_centralized());
        let level_handles = |idx: &DynamicPtileIndex| -> Vec<Vec<SynopsisHandle>> {
            idx.levels
                .iter()
                .map(|l| l.iter().flat_map(|l| l.parts.iter().map(|p| p.0)).collect())
                .collect()
        };
        for i in 0..7 {
            idx.insert_synopsis(&syn(&[i as f64]));
        }
        // 7 = 0b111: levels of 1, 2 and 4 datasets, oldest highest.
        assert_eq!(
            level_handles(&idx),
            vec![vec![6], vec![4, 5], vec![0, 1, 2, 3]]
        );
        assert!(idx.remove_synopsis(1));
        assert!(idx.remove_synopsis(5));
        // The eighth dataset carries through every level; the two retired
        // parts are dropped and the six live ones fit the 8-slot level.
        idx.insert_synopsis(&syn(&[7.0]));
        assert_eq!(
            level_handles(&idx),
            vec![vec![], vec![], vec![], vec![0, 2, 3, 4, 6, 7]]
        );
        assert_eq!(idx.len(), 6);
        assert!(!idx.remove_synopsis(5), "a dropped part stays retired");
        assert!(!idx.remove_synopsis(8), "unknown handle");
    }
}
