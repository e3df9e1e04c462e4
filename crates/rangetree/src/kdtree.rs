//! Bounding-box kd-tree with per-subtree alive counts.
//!
//! This is the default backend behind the paper's `DRangeTreeConstruct` /
//! `Report` / `ReportFirst` interface (Section 2). Points live in a
//! reordered contiguous array; every node covers a contiguous range and
//! stores its bounding box plus the number of *alive* points below it, so
//! `ReportFirst` can skip exhausted subtrees in `O(1)` and deletions are
//! `O(depth)` count updates along the leaf-to-root path. The query loops of
//! Algorithms 2 and 4 use the single-pass `report_while` traversal (each
//! node visited once per query); the tombstone machinery serves the eager
//! Algorithm-2 variant, the dynamic wrapper and the ablations.

use crate::{BuildableIndex, DeletableIndex, OrthoIndex, Region};

const LEAF_SIZE: usize = 8;
const NONE: u32 = u32::MAX;
/// Subtrees smaller than this are built on the current thread: below a few
/// thousand points the spawn/join cost exceeds the partitioning work.
const PAR_BUILD_THRESHOLD: usize = 4096;

#[derive(Clone, Debug)]
struct Node {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
    start: u32,
    end: u32,
    left: u32,
    right: u32,
    parent: u32,
    alive: u32,
}

impl Node {
    #[inline]
    fn is_leaf(&self) -> bool {
        self.left == NONE
    }
}

/// A kd-tree over points in `R^D` with tombstone deletion.
#[derive(Clone, Debug)]
pub struct KdTree {
    dim: usize,
    /// Row-major coordinates in tree order (`n * dim`).
    coords: Vec<f64>,
    /// `ids[pos]` = original input index of the point at `pos`.
    ids: Vec<u32>,
    /// Inverse of `ids`.
    pos_of_id: Vec<u32>,
    /// Alive flag per position.
    alive: Vec<bool>,
    /// Leaf node index per position.
    leaf_of_pos: Vec<u32>,
    nodes: Vec<Node>,
    n_alive: usize,
}

impl KdTree {
    #[inline]
    fn point(&self, pos: usize) -> &[f64] {
        &self.coords[pos * self.dim..(pos + 1) * self.dim]
    }

    fn build_rec(
        nodes: &mut Vec<Node>,
        points: &[Vec<f64>],
        perm: &mut [u32],
        offset: usize,
        parent: u32,
        dim: usize,
        threads: usize,
    ) -> u32 {
        debug_assert!(!perm.is_empty());
        // Bounding box of the subtree.
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for &i in perm.iter() {
            let p = &points[i as usize];
            for h in 0..dim {
                lo[h] = lo[h].min(p[h]);
                hi[h] = hi[h].max(p[h]);
            }
        }
        let ni = nodes.len() as u32;
        let n_points = perm.len();
        nodes.push(Node {
            lo: lo.clone().into_boxed_slice(),
            hi: hi.clone().into_boxed_slice(),
            start: offset as u32,
            end: (offset + n_points) as u32,
            left: NONE,
            right: NONE,
            parent,
            alive: n_points as u32,
        });
        if n_points <= LEAF_SIZE {
            return ni;
        }
        // Split on the widest axis at the median. NaN-free by construction
        // (asserted at build); ±∞ coordinates order fine under total_cmp.
        let axis = (0..dim)
            .max_by(|&a, &b| (hi[a] - lo[a]).total_cmp(&(hi[b] - lo[b])))
            .expect("dim >= 1");
        let mid = n_points / 2;
        perm.select_nth_unstable_by(mid, |&a, &b| {
            points[a as usize][axis].total_cmp(&points[b as usize][axis])
        });
        let (left_perm, right_perm) = perm.split_at_mut(mid);
        if threads >= 2 && n_points >= PAR_BUILD_THRESHOLD {
            // Build the left subtree on a scoped worker and the right on the
            // current thread, splitting the thread budget. Each subtree is
            // built into a fresh node arena with local indices and spliced
            // back in serial DFS-preorder position, so the resulting node
            // array is bit-identical to the single-threaded build.
            let lt = threads / 2;
            let rt = threads - lt;
            let (left_nodes, right_nodes) = std::thread::scope(|s| {
                let handle = s.spawn(move || {
                    let mut ln = Vec::new();
                    Self::build_rec(&mut ln, points, left_perm, offset, NONE, dim, lt);
                    ln
                });
                let mut rn = Vec::new();
                Self::build_rec(&mut rn, points, right_perm, offset + mid, NONE, dim, rt);
                (handle.join().expect("kd-tree build worker panicked"), rn)
            });
            let l = Self::splice_subtree(nodes, left_nodes, ni);
            let r = Self::splice_subtree(nodes, right_nodes, ni);
            nodes[ni as usize].left = l;
            nodes[ni as usize].right = r;
            return ni;
        }
        let l = Self::build_rec(nodes, points, left_perm, offset, ni, dim, threads);
        let r = Self::build_rec(nodes, points, right_perm, offset + mid, ni, dim, threads);
        nodes[ni as usize].left = l;
        nodes[ni as usize].right = r;
        ni
    }

    /// Appends a subtree arena (indices local, root at 0 with parent
    /// `NONE`) to `nodes`, rebasing node links and attaching the root to
    /// `parent`. Returns the root's absolute index.
    fn splice_subtree(nodes: &mut Vec<Node>, subtree: Vec<Node>, parent: u32) -> u32 {
        let base = nodes.len() as u32;
        nodes.extend(subtree.into_iter().map(|mut node| {
            node.parent = if node.parent == NONE {
                parent
            } else {
                node.parent + base
            };
            if node.left != NONE {
                node.left += base;
                node.right += base;
            }
            node
        }));
        base
    }

    fn report_rec(&self, ni: u32, region: &Region, out: &mut Vec<usize>) {
        let node = &self.nodes[ni as usize];
        if node.alive == 0 || !region.intersects_bbox(&node.lo, &node.hi) {
            return;
        }
        if region.contains_bbox(&node.lo, &node.hi) {
            for pos in node.start..node.end {
                if self.alive[pos as usize] {
                    out.push(self.ids[pos as usize] as usize);
                }
            }
            return;
        }
        if node.is_leaf() {
            for pos in node.start..node.end {
                let pos = pos as usize;
                if self.alive[pos] && region.contains(self.point(pos)) {
                    out.push(self.ids[pos] as usize);
                }
            }
            return;
        }
        self.report_rec(node.left, region, out);
        self.report_rec(node.right, region, out);
    }

    fn report_first_rec(&self, ni: u32, region: &Region) -> Option<usize> {
        let node = &self.nodes[ni as usize];
        if node.alive == 0 || !region.intersects_bbox(&node.lo, &node.hi) {
            return None;
        }
        if region.contains_bbox(&node.lo, &node.hi) {
            // alive > 0, so an alive position exists in the range.
            for pos in node.start..node.end {
                if self.alive[pos as usize] {
                    return Some(self.ids[pos as usize] as usize);
                }
            }
            unreachable!("alive count positive but no alive point in range");
        }
        if node.is_leaf() {
            for pos in node.start..node.end {
                let pos = pos as usize;
                if self.alive[pos] && region.contains(self.point(pos)) {
                    return Some(self.ids[pos] as usize);
                }
            }
            return None;
        }
        self.report_first_rec(node.left, region)
            .or_else(|| self.report_first_rec(node.right, region))
    }

    fn count_rec(&self, ni: u32, region: &Region) -> usize {
        let node = &self.nodes[ni as usize];
        if node.alive == 0 || !region.intersects_bbox(&node.lo, &node.hi) {
            return 0;
        }
        if region.contains_bbox(&node.lo, &node.hi) {
            return node.alive as usize;
        }
        if node.is_leaf() {
            return (node.start..node.end)
                .filter(|&pos| {
                    let pos = pos as usize;
                    self.alive[pos] && region.contains(self.point(pos))
                })
                .count();
        }
        self.count_rec(node.left, region) + self.count_rec(node.right, region)
    }

    /// Marks every point alive again and recomputes all subtree counts in
    /// one `O(n + #nodes)` pass — much cheaper than per-point restores when
    /// a query session tombstoned a large fraction of the structure.
    pub fn restore_all(&mut self) {
        for a in &mut self.alive {
            *a = true;
        }
        self.n_alive = self.ids.len();
        // Children are created after their parent, so a reverse scan sees
        // children before parents.
        for ni in (0..self.nodes.len()).rev() {
            let node = &self.nodes[ni];
            let alive = if node.is_leaf() {
                node.end - node.start
            } else {
                self.nodes[node.left as usize].alive + self.nodes[node.right as usize].alive
            };
            self.nodes[ni].alive = alive;
        }
    }

    /// Estimated heap footprint in bytes (used by the space experiments).
    pub fn memory_bytes(&self) -> usize {
        self.coords.len() * 8
            + self.ids.len() * 4
            + self.pos_of_id.len() * 4
            + self.alive.len()
            + self.leaf_of_pos.len() * 4
            + self.nodes.len() * (std::mem::size_of::<Node>() + 2 * self.dim * 8)
    }
}

impl KdTree {
    /// Builds the tree with up to `threads` scoped worker threads splitting
    /// the subtree recursion. The node array, point order and every query
    /// answer are **bit-identical** to [`BuildableIndex::build`] regardless
    /// of `threads` (the parallel path splices subtrees back in serial
    /// DFS-preorder position).
    pub fn build_par(dim: usize, points: Vec<Vec<f64>>, threads: usize) -> Self {
        assert!(dim >= 1, "kd-tree requires dim >= 1");
        let n = points.len();
        assert!(n < u32::MAX as usize, "too many points for u32 ids");
        for p in &points {
            assert_eq!(p.len(), dim, "point dimension mismatch");
            assert!(p.iter().all(|c| !c.is_nan()), "NaN coordinate");
        }
        if n == 0 {
            return KdTree {
                dim,
                coords: vec![],
                ids: vec![],
                pos_of_id: vec![],
                alive: vec![],
                leaf_of_pos: vec![],
                nodes: vec![],
                n_alive: 0,
            };
        }
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::with_capacity(2 * n / LEAF_SIZE + 1);
        Self::build_rec(&mut nodes, &points, &mut perm, 0, NONE, dim, threads.max(1));
        // Materialize tree order.
        let mut coords = Vec::with_capacity(n * dim);
        let mut ids = Vec::with_capacity(n);
        for &i in &perm {
            coords.extend_from_slice(&points[i as usize]);
            ids.push(i);
        }
        let mut pos_of_id = vec![0u32; n];
        for (pos, &id) in ids.iter().enumerate() {
            pos_of_id[id as usize] = pos as u32;
        }
        let mut leaf_of_pos = vec![NONE; n];
        for (ni, node) in nodes.iter().enumerate() {
            if node.is_leaf() {
                for pos in node.start..node.end {
                    leaf_of_pos[pos as usize] = ni as u32;
                }
            }
        }
        debug_assert!(leaf_of_pos.iter().all(|&l| l != NONE));
        KdTree {
            dim,
            coords,
            ids,
            pos_of_id,
            alive: vec![true; n],
            leaf_of_pos,
            nodes,
            n_alive: n,
        }
    }
}

impl BuildableIndex for KdTree {
    fn build(dim: usize, points: Vec<Vec<f64>>) -> Self {
        Self::build_par(dim, points, 1)
    }
}

impl OrthoIndex for KdTree {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn report(&self, region: &Region, out: &mut Vec<usize>) {
        assert_eq!(region.dim(), self.dim, "region dimension mismatch");
        if !self.nodes.is_empty() {
            self.report_rec(0, region, out);
        }
    }

    fn report_first(&self, region: &Region) -> Option<usize> {
        assert_eq!(region.dim(), self.dim, "region dimension mismatch");
        if self.nodes.is_empty() {
            return None;
        }
        self.report_first_rec(0, region)
    }

    fn count(&self, region: &Region) -> usize {
        assert_eq!(region.dim(), self.dim, "region dimension mismatch");
        if self.nodes.is_empty() {
            return 0;
        }
        self.count_rec(0, region)
    }

    /// Single-pass filtered reporting: calls `f(id)` for every alive point
    /// inside `region`, in DFS order, aborting the whole traversal if `f`
    /// returns `false`. Visits every tree node at most once per call, so a
    /// whole query session costs one traversal — the enumeration loops of
    /// Algorithms 2 and 4 use this with a reported-dataset mask instead of
    /// physical deletions (same answers; `experiments --a3` compares the two).
    fn report_while(&self, region: &Region, f: &mut dyn FnMut(usize) -> bool) {
        assert_eq!(region.dim(), self.dim, "region dimension mismatch");
        if self.nodes.is_empty() {
            return;
        }
        let mut stack: Vec<u32> = vec![0];
        while let Some(ni) = stack.pop() {
            let node = &self.nodes[ni as usize];
            if node.alive == 0 || !region.intersects_bbox(&node.lo, &node.hi) {
                continue;
            }
            let full = region.contains_bbox(&node.lo, &node.hi);
            if full || node.is_leaf() {
                let (start, end) = (node.start, node.end);
                for pos in start..end {
                    let pos = pos as usize;
                    if !self.alive[pos] {
                        continue;
                    }
                    if !full && !region.contains(self.point(pos)) {
                        continue;
                    }
                    if !f(self.ids[pos] as usize) {
                        return;
                    }
                }
                continue;
            }
            let (l, r) = (node.left, node.right);
            stack.push(r);
            stack.push(l);
        }
    }
}

impl DeletableIndex for KdTree {
    fn delete(&mut self, id: usize) -> bool {
        let pos = self.pos_of_id[id] as usize;
        if !self.alive[pos] {
            return false;
        }
        self.alive[pos] = false;
        self.n_alive -= 1;
        let mut ni = self.leaf_of_pos[pos];
        while ni != NONE {
            self.nodes[ni as usize].alive -= 1;
            ni = self.nodes[ni as usize].parent;
        }
        true
    }

    fn restore(&mut self, id: usize) -> bool {
        let pos = self.pos_of_id[id] as usize;
        if self.alive[pos] {
            return false;
        }
        self.alive[pos] = true;
        self.n_alive += 1;
        let mut ni = self.leaf_of_pos[pos];
        while ni != NONE {
            self.nodes[ni as usize].alive += 1;
            ni = self.nodes[ni as usize].parent;
        }
        true
    }

    fn alive(&self) -> usize {
        self.n_alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points_2d(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
            .collect()
    }

    #[test]
    fn empty_tree_is_silent() {
        let t = KdTree::build(3, vec![]);
        let region = Region::all(3);
        let mut out = vec![];
        t.report(&region, &mut out);
        assert!(out.is_empty());
        assert_eq!(t.report_first(&region), None);
        assert_eq!(t.count(&region), 0);
    }

    #[test]
    fn report_matches_scan_on_grid() {
        let pts = grid_points_2d(100);
        let t = KdTree::build(2, pts.clone());
        let region = Region::closed(vec![2.0, 3.0], vec![5.0, 6.0]);
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
    fn delete_restore_roundtrip() {
        let pts = grid_points_2d(50);
        let mut t = KdTree::build(2, pts);
        let region = Region::closed(vec![0.0, 0.0], vec![9.0, 9.0]);
        assert_eq!(t.count(&region), 50);
        for id in 0..25 {
            assert!(t.delete(id));
        }
        assert!(!t.delete(3), "double delete must be a no-op");
        assert_eq!(t.count(&region), 25);
        assert_eq!(t.alive(), 25);
        let mut out = vec![];
        t.report(&region, &mut out);
        assert!(out.iter().all(|&id| id >= 25));
        for id in 0..25 {
            assert!(t.restore(id));
        }
        assert_eq!(t.count(&region), 50);
    }

    #[test]
    fn report_first_exhausts_without_duplicates() {
        // The Algorithm-2 usage pattern: repeatedly take one point and
        // delete it; every alive point must be produced exactly once.
        let pts = grid_points_2d(40);
        let mut t = KdTree::build(2, pts);
        let region = Region::closed(vec![0.0, 0.0], vec![4.0, 3.0]); // 5 x 4 grid corner
        let mut seen = std::collections::BTreeSet::new();
        while let Some(id) = t.report_first(&region) {
            assert!(seen.insert(id), "duplicate id {id}");
            assert!(t.delete(id));
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn strict_bounds_respected() {
        let pts = vec![vec![5.0], vec![6.0], vec![7.0]];
        let t = KdTree::build(1, pts);
        let strict = Region::all(1).with_lo(0, 5.0, true).with_hi(0, 7.0, true);
        let mut out = vec![];
        t.report(&strict, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        // Enough points to cross PAR_BUILD_THRESHOLD several levels deep.
        let n = 20_000;
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let x = (i as f64 * 0.7371) % 97.0;
                let y = (i as f64 * 1.3113) % 53.0;
                vec![x, y, (x * y) % 11.0]
            })
            .collect();
        let serial = KdTree::build(3, pts.clone());
        for threads in [2, 3, 8] {
            let par = KdTree::build_par(3, pts.clone(), threads);
            assert_eq!(par.ids, serial.ids, "threads = {threads}");
            assert_eq!(par.coords, serial.coords, "threads = {threads}");
            assert_eq!(par.nodes.len(), serial.nodes.len());
            for (a, b) in par.nodes.iter().zip(&serial.nodes) {
                assert_eq!(a.lo, b.lo);
                assert_eq!(a.hi, b.hi);
                assert_eq!(
                    (a.start, a.end, a.left, a.right, a.parent, a.alive),
                    (b.start, b.end, b.left, b.right, b.parent, b.alive)
                );
            }
            let region = Region::all(3)
                .with_lo(0, 30.0, false)
                .with_hi(1, 20.0, true);
            let mut got = vec![];
            let mut want = vec![];
            par.report(&region, &mut got);
            serial.report(&region, &mut want);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn infinite_coordinates_are_indexable() {
        // Lifted one-step expansions can have ±∞ facets.
        let pts = vec![
            vec![f64::NEG_INFINITY, 1.0],
            vec![2.0, f64::INFINITY],
            vec![3.0, 4.0],
        ];
        let t = KdTree::build(2, pts);
        let region = Region::all(2).with_hi(0, 0.0, false);
        let mut out = vec![];
        t.report(&region, &mut out);
        assert_eq!(out, vec![0]);
    }
}
