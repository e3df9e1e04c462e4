//! Frozen, flat, tree-ordered bounding-box kd-tree.
//!
//! This is the backend behind the paper's construct-and-`Report` range-tree
//! interface (Section 2), laid out for the one thing the served
//! indexes do with it: `report_while` over a structure that never changes
//! after the build (stopping it at the first hit is `ReportFirst`).
//!
//! # Layout
//!
//! Three flat arrays, nothing else on the read path:
//!
//! * **`arena`** — one record per node, nodes in DFS preorder. A record is
//!   `⌈dim / 6⌉` 64-byte, 64-byte-aligned [`Line`]s; a line holds the node
//!   header (`start, end, left, right`, in the record's first line) and six
//!   dimensions of the node's bounding box as `f32`. For the served Ptile
//!   index (`4d + 2 = 6` lifted dimensions) a node is exactly one cache
//!   line, so visiting a node is one memory access.
//! * **`coords`** — the exact `f64` points, row-major, in tree order: every
//!   node covers the contiguous range `start..end`.
//! * **`labels`** — one `u32` per point, in tree order. A hit reports
//!   `labels[pos]`; by default that is the point's input index (the id the
//!   [`OrthoIndex`] contract promises), and [`KdTree::build_labeled`] lets a
//!   caller store what it would otherwise look up from that id (the Ptile
//!   indexes store the owning dataset).
//!
//! # Why `f32` boxes are sound
//!
//! Node boxes are rounded **outward**: `lo` down, `hi` up, to the nearest
//! `f32` on that side, so the stored box is a superset of the true one. Each
//! node is classified once against the query region: *disjoint* (prune),
//! *contained* (report the whole range unchecked) or *partial* (descend; at
//! a leaf, test points). If the superset box is disjoint from the region so
//! is the true box, and if the superset box lies inside the region so does
//! the true box — a wider box can only prune or accept **less**, never
//! wrongly. Whatever is neither falls through to partial leaves, which test
//! the exact `f64` coordinates. Answers and their DFS order are therefore
//! bit-identical to a tree with exact boxes; what `f32` costs is pruning
//! power, and only for coordinates that need more than 24 significant bits
//! *and* a query bound that falls inside the rounding gap (±1e300 rounds to
//! `f32::MAX` / ∞ and prunes like an unbounded facet).
//!
//! The region side of each test is exact too: the [`Region`] keeps every
//! bound in closed form (a strict `x > v` as `x ≥ v.next_up()`, a strict
//! `x < v` as `x ≤ v.next_down()`, equivalent on every `f64`), so a box
//! test is `lo ≤ box_hi` and `box_lo ≤ hi` (meets) and `lo ≤ box_lo`,
//! `box_hi ≤ hi` (inside) on every axis, combined with `&` and no early
//! exit, and a point test is `lo ≤ x ≤ hi` likewise. The one strict bound
//! with no closed twin — `x > +∞` or `x < −∞`, the empty axis — is stored
//! as `NaN`, which fails every comparison: the root box does not meet it,
//! so the walk reports nothing without touching a point.
//!
//! # The kernel
//!
//! A query is one DFS over the arena. A node that does not meet the region
//! is pruned; one inside it reports its whole range unchecked; a partial
//! inner node pushes its children. A partial leaf (at most `LEAF_SIZE`
//! points) is scanned with a branch-free append: every point's label is
//! written to a stack buffer and the write position advances by the point
//! test's outcome, and the buffer is reported afterwards, so the branch a
//! hit costs is taken once per leaf, not once per point.

use crate::{BuildableIndex, OrthoIndex, Region};

const LEAF_SIZE: usize = 8;
const NONE: u32 = u32::MAX;
/// Subtrees smaller than this are built on the current thread: below a few
/// thousand points the spawn/join cost exceeds the partitioning work.
const PAR_BUILD_THRESHOLD: usize = 4096;
/// Box dimensions stored per arena line.
const LINE_DIMS: usize = 6;
/// Traversal stack slots. Median splits halve a range of fewer than 2³²
/// points down to `LEAF_SIZE` in at most 29 levels, and a DFS holds one
/// pending sibling per level.
const STACK_SLOTS: usize = 40;

/// One cache line of a node record: the header (meaningful in the record's
/// first line only) and `LINE_DIMS` dimensions of the outward-rounded box.
#[repr(C, align(64))]
#[derive(Clone, Copy, Debug, PartialEq)]
struct Line {
    start: u32,
    end: u32,
    left: u32,
    right: u32,
    lo: [f32; LINE_DIMS],
    hi: [f32; LINE_DIMS],
}

const _: () = assert!(std::mem::size_of::<Line>() == 64);

/// Largest `f32` not above `x`.
fn round_down(x: f64) -> f32 {
    let f = x as f32;
    if f64::from(f) > x {
        f.next_down()
    } else {
        f
    }
}

/// Smallest `f32` not below `x`.
fn round_up(x: f64) -> f32 {
    let f = x as f32;
    if f64::from(f) < x {
        f.next_up()
    } else {
        f
    }
}

/// Number of nodes the build creates over `n ≥ 1` points.
fn node_count(n: usize) -> usize {
    if n <= LEAF_SIZE {
        1
    } else {
        1 + node_count(n / 2) + node_count(n - n / 2)
    }
}

/// The read-only inputs of one build.
#[derive(Clone, Copy)]
struct Build<'a> {
    dim: usize,
    lines_per_node: usize,
    /// Row-major input points.
    coords: &'a [f64],
}

impl Build<'_> {
    /// Builds the subtree over the input points `perm` (tree positions
    /// `offset..offset + perm.len()`) into a fresh arena with local node
    /// indices, root at 0.
    fn subtree(self, perm: &mut [u32], offset: usize, threads: usize) -> Vec<Line> {
        let mut arena = Vec::with_capacity(node_count(perm.len()) * self.lines_per_node);
        let mut bbox = vec![0.0; 2 * self.dim];
        self.build_rec(&mut arena, &mut bbox, perm, offset, threads);
        arena
    }

    fn build_rec(
        self,
        arena: &mut Vec<Line>,
        bbox: &mut [f64],
        perm: &mut [u32],
        offset: usize,
        threads: usize,
    ) -> u32 {
        debug_assert!(!perm.is_empty());
        let dim = self.dim;
        // Exact bounding box of the subtree; rounded only when stored.
        let (lo, hi) = bbox.split_at_mut(dim);
        lo.fill(f64::INFINITY);
        hi.fill(f64::NEG_INFINITY);
        for &i in perm.iter() {
            let p = &self.coords[i as usize * dim..][..dim];
            for h in 0..dim {
                lo[h] = lo[h].min(p[h]);
                hi[h] = hi[h].max(p[h]);
            }
        }
        let head = arena.len();
        let n_points = perm.len();
        for (lo, hi) in lo.chunks(LINE_DIMS).zip(hi.chunks(LINE_DIMS)) {
            let mut line = Line {
                start: offset as u32,
                end: (offset + n_points) as u32,
                left: NONE,
                right: NONE,
                lo: [0.0; LINE_DIMS],
                hi: [0.0; LINE_DIMS],
            };
            for (stored, &x) in line.lo.iter_mut().zip(lo) {
                *stored = round_down(x);
            }
            for (stored, &x) in line.hi.iter_mut().zip(hi) {
                *stored = round_up(x);
            }
            arena.push(line);
        }
        let ni = (head / self.lines_per_node) as u32;
        if n_points <= LEAF_SIZE {
            return ni;
        }
        // Split on the widest axis at the median. NaN-free by construction
        // (asserted at build); ±∞ coordinates order fine under total_cmp.
        let axis = (0..dim)
            .max_by(|&a, &b| (hi[a] - lo[a]).total_cmp(&(hi[b] - lo[b])))
            .expect("dim >= 1");
        let mid = n_points / 2;
        let key = |i: u32| self.coords[i as usize * dim + axis];
        perm.select_nth_unstable_by(mid, |&a, &b| key(a).total_cmp(&key(b)));
        let (left_perm, right_perm) = perm.split_at_mut(mid);
        let (l, r) = if threads >= 2 && n_points >= PAR_BUILD_THRESHOLD {
            // Build the left subtree on a scoped worker and the right on the
            // current thread, splitting the thread budget. Each subtree is
            // built into a fresh arena with local indices and spliced back
            // in serial DFS-preorder position, so the resulting arena is
            // bit-identical to the single-threaded build.
            let lt = threads / 2;
            let rt = threads - lt;
            let (left, right) = std::thread::scope(|s| {
                let worker = s.spawn(move || self.subtree(left_perm, offset, lt));
                let right = self.subtree(right_perm, offset + mid, rt);
                (worker.join().expect("kd-tree build worker panicked"), right)
            });
            (self.splice(arena, left), self.splice(arena, right))
        } else {
            (
                self.build_rec(arena, bbox, left_perm, offset, threads),
                self.build_rec(arena, bbox, right_perm, offset + mid, threads),
            )
        };
        arena[head].left = l;
        arena[head].right = r;
        ni
    }

    /// Appends a subtree arena (local indices, root at 0) to `arena`,
    /// rebasing its child links. Returns the root's absolute index.
    fn splice(self, arena: &mut Vec<Line>, subtree: Vec<Line>) -> u32 {
        let base = (arena.len() / self.lines_per_node) as u32;
        arena.extend(subtree.into_iter().enumerate().map(|(k, mut line)| {
            if k % self.lines_per_node == 0 && line.left != NONE {
                line.left += base;
                line.right += base;
            }
            line
        }));
        base
    }
}

/// A read-only kd-tree over points in `R^D` (see the module docs for the
/// layout).
#[derive(Clone, Debug)]
pub struct KdTree {
    dim: usize,
    /// Arena lines per node record: `⌈dim / LINE_DIMS⌉`.
    lines_per_node: usize,
    /// Node records in DFS preorder.
    arena: Vec<Line>,
    /// Row-major coordinates in tree order (`n * dim`).
    coords: Vec<f64>,
    /// `labels[pos]` = what a hit at `pos` reports.
    labels: Vec<u32>,
}

impl KdTree {
    /// Builds the tree over `labels.len()` points given as one row-major
    /// buffer (`coords.len() == labels.len() * dim`), with up to `threads`
    /// scoped worker threads splitting the subtree recursion. A query
    /// reports `labels[i]` where a default build would report `i`; labels
    /// may repeat.
    ///
    /// The arena, point order and every query answer are **bit-identical**
    /// for every `threads` (the parallel path splices subtrees back in
    /// serial DFS-preorder position).
    ///
    /// # Panics
    /// Panics if `dim == 0`, the buffer lengths disagree, or a coordinate is
    /// `NaN`.
    pub fn build_labeled(dim: usize, coords: Vec<f64>, labels: Vec<u32>, threads: usize) -> Self {
        assert!(dim >= 1, "kd-tree requires dim >= 1");
        let n = labels.len();
        assert_eq!(coords.len(), n * dim, "point dimension mismatch");
        assert!(n < u32::MAX as usize, "too many points for u32 ids");
        assert!(coords.iter().all(|c| !c.is_nan()), "NaN coordinate");
        let lines_per_node = dim.div_ceil(LINE_DIMS);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let arena = if n == 0 {
            Vec::new()
        } else {
            let build = Build {
                dim,
                lines_per_node,
                coords: &coords,
            };
            build.subtree(&mut perm, 0, threads.max(1))
        };
        // Materialize tree order.
        let mut tree_coords = Vec::with_capacity(n * dim);
        let mut tree_labels = Vec::with_capacity(n);
        for &i in &perm {
            tree_coords.extend_from_slice(&coords[i as usize * dim..][..dim]);
            tree_labels.push(labels[i as usize]);
        }
        KdTree {
            dim,
            lines_per_node,
            arena,
            coords: tree_coords,
            labels: tree_labels,
        }
    }

    /// [`build_labeled`](Self::build_labeled) over one `Vec` per point, with
    /// the default labels: point `i` reports id `i`.
    pub fn build_par(dim: usize, points: Vec<Vec<f64>>, threads: usize) -> Self {
        let n = points.len();
        assert!(n < u32::MAX as usize, "too many points for u32 ids");
        let mut coords = Vec::with_capacity(n * dim);
        for p in &points {
            assert_eq!(p.len(), dim, "point dimension mismatch");
            coords.extend_from_slice(p);
        }
        Self::build_labeled(dim, coords, (0..n as u32).collect(), threads)
    }

    /// The traversal behind every query. Classifies each node once against
    /// `region`, testing every axis of every line of its record, and calls
    /// `visit(header, contained)` for every node whose points must be looked
    /// at: subtrees wholly inside the region (`contained`) and partially
    /// overlapping leaves. Subtrees are visited in DFS order; `visit`
    /// returning `false` aborts.
    #[inline]
    fn walk(&self, region: &Region, mut visit: impl FnMut(&Line, bool) -> bool) {
        assert_eq!(region.dim(), self.dim, "region dimension mismatch");
        if self.arena.is_empty() {
            return;
        }
        let lines_per_node = self.lines_per_node;
        let mut stack = [0u32; STACK_SLOTS];
        let mut top = 1;
        while top > 0 {
            top -= 1;
            let ni = stack[top] as usize;
            let record = &self.arena[ni * lines_per_node..][..lines_per_node];
            let mut meets = true;
            let mut inside = true;
            for (c, line) in record.iter().enumerate() {
                let at = c * LINE_DIMS;
                let k = LINE_DIMS.min(self.dim - at);
                let (m, i) = region.classify_bbox(at, &line.lo[..k], &line.hi[..k]);
                meets &= m;
                inside &= i;
            }
            let node = &record[0];
            if !meets {
                continue;
            }
            if !inside && node.left != NONE {
                stack[top] = node.right;
                stack[top + 1] = node.left;
                top += 2;
            } else if !visit(node, inside) {
                return;
            }
        }
    }

    /// Tests the points of a partially overlapping leaf against `region`
    /// and appends the labels of those inside to `hits`, in tree order,
    /// with no branch on the outcome: every label is written, and the
    /// write position advances only past those inside. Returns the number
    /// of hits.
    #[inline]
    fn scan_leaf(&self, node: &Line, region: &Region, hits: &mut [u32; LEAF_SIZE]) -> usize {
        let range = node.start as usize..node.end as usize;
        debug_assert!(range.len() <= LEAF_SIZE, "only leaves overlap partially");
        let mut n = 0;
        for (p, &label) in self.coords[range.start * self.dim..range.end * self.dim]
            .chunks_exact(self.dim)
            .zip(&self.labels[range])
        {
            // `n` counts hits among the points before this one, so it is
            // below LEAF_SIZE and the mask only spares a bounds check.
            hits[n % LEAF_SIZE] = label;
            n += usize::from(region.contains(p));
        }
        n
    }

    /// Heap footprint in bytes: arena, coordinates and labels.
    pub fn memory_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<Line>()
            + self.coords.len() * 8
            + self.labels.len() * 4
    }
}

impl BuildableIndex for KdTree {
    fn build(dim: usize, points: Vec<Vec<f64>>) -> Self {
        Self::build_par(dim, points, 1)
    }
}

impl OrthoIndex for KdTree {
    fn len(&self) -> usize {
        self.labels.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn report(&self, region: &Region, out: &mut Vec<usize>) {
        self.report_while(region, &mut |id| {
            out.push(id);
            true
        });
    }

    fn count(&self, region: &Region) -> usize {
        let mut total = 0;
        let mut hits = [0; LEAF_SIZE];
        self.walk(region, |node, contained| {
            total += if contained {
                (node.end - node.start) as usize
            } else {
                self.scan_leaf(node, region, &mut hits)
            };
            true
        });
        total
    }

    /// Single-pass filtered reporting: calls `f(label)` for every point
    /// inside `region`, in DFS order, aborting the whole traversal if `f`
    /// returns `false`. Visits every tree node at most once per call, so a
    /// whole query session costs one traversal — the enumeration loops of
    /// Algorithms 2 and 4 use this with a reported-dataset mask where the
    /// paper deletes the reported dataset's points.
    fn report_while(&self, region: &Region, f: &mut dyn FnMut(usize) -> bool) {
        let mut hits = [0; LEAF_SIZE];
        self.walk(region, |node, contained| {
            let labels = if contained {
                &self.labels[node.start as usize..node.end as usize]
            } else {
                let n = self.scan_leaf(node, region, &mut hits);
                &hits[..n]
            };
            labels.iter().all(|&label| f(label as usize))
        });
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
        // Enough points to cross PAR_BUILD_THRESHOLD several levels deep, in
        // 3 dimensions (one line per node) and 7 (two lines per node).
        let n = 20_000;
        for dim in [3usize, 7] {
            let pts: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let x = (i as f64 * 0.7371) % 97.0;
                    let y = (i as f64 * 1.3113) % 53.0;
                    let mut p = vec![x, y, (x * y) % 11.0];
                    p.extend((3..dim).map(|h| (x * h as f64 + y) % 7.0));
                    p
                })
                .collect();
            let serial = KdTree::build(dim, pts.clone());
            assert_eq!(serial.arena.len(), node_count(n) * dim.div_ceil(LINE_DIMS));
            for threads in [2, 3, 8] {
                let par = KdTree::build_par(dim, pts.clone(), threads);
                assert_eq!(par.arena, serial.arena, "threads = {threads}");
                assert_eq!(par.coords, serial.coords, "threads = {threads}");
                assert_eq!(par.labels, serial.labels, "threads = {threads}");
                let region = Region::all(dim)
                    .with_lo(0, 30.0, false)
                    .with_hi(1, 20.0, true);
                let mut got = vec![];
                let mut want = vec![];
                par.report(&region, &mut got);
                serial.report(&region, &mut want);
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn boxes_round_outward() {
        // 0.1 is not an f32; 1e300 overflows one; 1e-310 underflows one.
        for x in [0.1, -0.1, 1e300, -1e300, 1e-310, -1e-310, 0.0, -0.0, 2.5] {
            let (lo, hi) = (round_down(x), round_up(x));
            assert!(f64::from(lo) <= x && x <= f64::from(hi), "{x}");
            assert!(lo == hi || lo.next_up() == hi, "{x}: not the nearest pair");
        }
        assert_eq!(round_down(1e300), f32::MAX);
        assert_eq!(round_up(1e300), f32::INFINITY);
        assert_eq!(round_down(f64::NEG_INFINITY), f32::NEG_INFINITY);
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
