//! Faithful static multi-level range tree (De Berg et al., cited in
//! Section 2 of the paper).
//!
//! Level `h` is a balanced binary tree over the points sorted by coordinate
//! `h`; every node owns an *associated structure* over the same point set
//! for dimensions `h+1..d`, and the last level is a sorted array. A query
//! decomposes the interval of dimension `h` into `O(log n)` canonical nodes
//! and recurses into their associated structures, giving
//! `O(log^d n + OUT)` reporting. Space is `O(n log^{d-1} n)`, which is why
//! this backend is only used for low lifted dimensions (exact 1-d CPtile,
//! ablation A2) while [`crate::KdTree`] serves the general case.

use crate::{BuildableIndex, OrthoIndex, Region};

const LEAF_SIZE: usize = 4;

/// Static multi-level range tree.
#[derive(Clone, Debug)]
pub struct RangeTree {
    dim: usize,
    points: Vec<Vec<f64>>,
    root: Option<Level>,
}

#[derive(Clone, Debug)]
enum Level {
    /// Last dimension: ids sorted by their coordinate.
    Last {
        h: usize,
        keys: Vec<f64>,
        ids: Vec<u32>,
    },
    /// Intermediate dimension: a BST with associated structures.
    Inner { h: usize, root: Box<BstNode> },
}

#[derive(Clone, Debug)]
struct BstNode {
    min: f64,
    max: f64,
    assoc: Level,
    /// `None` for internal nodes; leaf nodes keep their ids for direct
    /// filtering.
    leaf_ids: Option<Vec<u32>>,
    children: Option<(Box<BstNode>, Box<BstNode>)>,
}

/// One dimension of a region, as the closed bounds it keeps (see
/// [the closed form](Region#closed-form)): a key `x` satisfies it iff
/// `lo ≤ x ≤ hi`, and a `NaN` (empty-axis) bound fails every comparison.
struct DimBounds {
    lo: f64,
    hi: f64,
}

impl DimBounds {
    fn of(region: &Region, h: usize) -> Self {
        DimBounds {
            lo: region.lo()[h],
            hi: region.hi()[h],
        }
    }

    /// The whole closed interval `[min, max]` satisfies the bounds.
    #[inline]
    fn covers(&self, min: f64, max: f64) -> bool {
        (self.lo <= min) & (max <= self.hi)
    }

    /// The closed interval `[min, max]` is disjoint from the bounds.
    #[inline]
    fn disjoint(&self, min: f64, max: f64) -> bool {
        !((self.lo <= max) & (min <= self.hi))
    }

    /// Index range of satisfying keys in a sorted, NaN-free array.
    // `!(lo <= k)`, not `k < lo`: a NaN lower bound must put every key
    // below it.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn key_range(&self, keys: &[f64]) -> (usize, usize) {
        let start = keys.partition_point(|&k| !(self.lo <= k));
        let end = keys.partition_point(|&k| k <= self.hi);
        (start, end.max(start))
    }
}

impl RangeTree {
    fn build_level(points: &[Vec<f64>], idxs: &[u32], h: usize, dim: usize) -> Level {
        debug_assert!(!idxs.is_empty());
        let mut sorted: Vec<u32> = idxs.to_vec();
        sorted.sort_unstable_by(|&a, &b| points[a as usize][h].total_cmp(&points[b as usize][h]));
        if h + 1 == dim {
            let keys = sorted.iter().map(|&i| points[i as usize][h]).collect();
            Level::Last {
                h,
                keys,
                ids: sorted,
            }
        } else {
            let root = Self::build_bst(points, &sorted, h, dim);
            Level::Inner {
                h,
                root: Box::new(root),
            }
        }
    }

    fn build_bst(points: &[Vec<f64>], sorted: &[u32], h: usize, dim: usize) -> BstNode {
        let min = points[sorted[0] as usize][h];
        let max = points[sorted[sorted.len() - 1] as usize][h];
        let assoc = Self::build_level(points, sorted, h + 1, dim);
        if sorted.len() <= LEAF_SIZE {
            return BstNode {
                min,
                max,
                assoc,
                leaf_ids: Some(sorted.to_vec()),
                children: None,
            };
        }
        let mid = sorted.len() / 2;
        let left = Self::build_bst(points, &sorted[..mid], h, dim);
        let right = Self::build_bst(points, &sorted[mid..], h, dim);
        BstNode {
            min,
            max,
            assoc,
            leaf_ids: None,
            children: Some((Box::new(left), Box::new(right))),
        }
    }

    fn report_level(&self, level: &Level, region: &Region, out: &mut Vec<usize>) {
        match level {
            Level::Last { h, keys, ids } => {
                let b = DimBounds::of(region, *h);
                let (s, e) = b.key_range(keys);
                out.extend(ids[s..e].iter().map(|&i| i as usize));
            }
            Level::Inner { h, root } => self.report_bst(root, *h, region, out),
        }
    }

    fn report_bst(&self, node: &BstNode, h: usize, region: &Region, out: &mut Vec<usize>) {
        let b = DimBounds::of(region, h);
        if b.disjoint(node.min, node.max) {
            return;
        }
        if b.covers(node.min, node.max) {
            self.report_level(&node.assoc, region, out);
            return;
        }
        if let Some(ids) = &node.leaf_ids {
            out.extend(
                ids.iter()
                    .filter(|&&i| region.contains(&self.points[i as usize]))
                    .map(|&i| i as usize),
            );
            return;
        }
        let (l, r) = node.children.as_ref().expect("internal node has children");
        self.report_bst(l, h, region, out);
        self.report_bst(r, h, region, out);
    }

    fn count_level(&self, level: &Level, region: &Region) -> usize {
        match level {
            Level::Last { h, keys, .. } => {
                let b = DimBounds::of(region, *h);
                let (s, e) = b.key_range(keys);
                e - s
            }
            Level::Inner { h, root } => self.count_bst(root, *h, region),
        }
    }

    fn count_bst(&self, node: &BstNode, h: usize, region: &Region) -> usize {
        let b = DimBounds::of(region, h);
        if b.disjoint(node.min, node.max) {
            return 0;
        }
        if b.covers(node.min, node.max) {
            return self.count_level(&node.assoc, region);
        }
        if let Some(ids) = &node.leaf_ids {
            return ids
                .iter()
                .filter(|&&i| region.contains(&self.points[i as usize]))
                .count();
        }
        let (l, r) = node.children.as_ref().expect("internal node has children");
        self.count_bst(l, h, region) + self.count_bst(r, h, region)
    }

    /// Estimated heap footprint in bytes (space experiments, E8/A2).
    pub fn memory_bytes(&self) -> usize {
        fn level_bytes(level: &Level) -> usize {
            match level {
                Level::Last { keys, ids, .. } => keys.len() * 8 + ids.len() * 4 + 48,
                Level::Inner { root, .. } => bst_bytes(root),
            }
        }
        fn bst_bytes(node: &BstNode) -> usize {
            let mut b = std::mem::size_of::<BstNode>() + level_bytes(&node.assoc);
            if let Some(ids) = &node.leaf_ids {
                b += ids.len() * 4;
            }
            if let Some((l, r)) = &node.children {
                b += bst_bytes(l) + bst_bytes(r);
            }
            b
        }
        let base: usize = self.points.iter().map(|p| p.len() * 8 + 24).sum();
        base + self.root.as_ref().map_or(0, level_bytes)
    }
}

impl BuildableIndex for RangeTree {
    fn build(dim: usize, points: Vec<Vec<f64>>) -> Self {
        assert!(dim >= 1, "range tree requires dim >= 1");
        assert!(
            points.len() < u32::MAX as usize,
            "too many points for u32 ids"
        );
        for p in &points {
            assert_eq!(p.len(), dim, "point dimension mismatch");
            assert!(p.iter().all(|c| !c.is_nan()), "NaN coordinate");
        }
        let root = if points.is_empty() {
            None
        } else {
            let idxs: Vec<u32> = (0..points.len() as u32).collect();
            Some(Self::build_level(&points, &idxs, 0, dim))
        };
        RangeTree { dim, points, root }
    }
}

impl OrthoIndex for RangeTree {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn report(&self, region: &Region, out: &mut Vec<usize>) {
        assert_eq!(region.dim(), self.dim, "region dimension mismatch");
        if let Some(root) = &self.root {
            self.report_level(root, region, out);
        }
    }

    fn count(&self, region: &Region) -> usize {
        assert_eq!(region.dim(), self.dim, "region dimension mismatch");
        self.root
            .as_ref()
            .map_or(0, |r| self.count_level(r, region))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_scan_on_small_grid() {
        let pts: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![(i % 8) as f64, (i / 8) as f64])
            .collect();
        let t = RangeTree::build(2, pts.clone());
        let region = Region::closed(vec![1.0, 2.0], vec![4.0, 5.0]);
        let mut got = vec![];
        t.report(&region, &mut got);
        got.sort_unstable();
        let want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| region.contains(p))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, want);
        assert_eq!(t.count(&region), want.len());
    }

    #[test]
    fn strictness_in_last_level() {
        let pts = vec![vec![1.0, 5.0], vec![1.0, 6.0], vec![1.0, 7.0]];
        let t = RangeTree::build(2, pts);
        let region = Region::all(2).with_lo(1, 5.0, true).with_hi(1, 7.0, true);
        let mut out = vec![];
        t.report(&region, &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(t.count(&region), 1);
    }

    #[test]
    fn empty_tree() {
        let t = RangeTree::build(4, vec![]);
        assert_eq!(t.count(&Region::all(4)), 0);
    }
}
