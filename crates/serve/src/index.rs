//! Spatial index over trajectory segments: a cache-flat forest of
//! per-trajectory 8-ary AABB trees in signature space, stored
//! structure-of-arrays for batched (autovectorizable) box tests, with a
//! best-first top-k query mode that stops ranking once the ambiguity
//! set is resolved.
//!
//! The linear diagnosis path scans every segment of every trajectory for
//! each query. A full ranked diagnosis needs the **exact** nearest
//! segment of *every* trajectory (not just the globally closest one), so
//! the index is organised the way the answer is: per trajectory. Each
//! trajectory's segments — contiguous along its polyline — are boxed
//! into a balanced 8-ary AABB tree, and a query runs branch-and-bound
//! down each tree: a subtree is skipped only when the distance from the
//! observation to its bounding box (a lower bound on the distance to
//! every segment inside, with a safety margin on top) already exceeds
//! the best distance found for that trajectory.
//!
//! ## Layout
//!
//! Nodes live in one breadth-first array per forest, all trajectories
//! pooled; the children of every internal node occupy **consecutive
//! ids**, so a whole sibling group is one contiguous slice. Bounding
//! boxes are stored plane-major — for each signature dimension `k`, the
//! lower corners of *all* nodes form one contiguous `f64` run, then the
//! upper corners — so testing the up-to-8 children of a node against
//! the query reads `2 × dim` short contiguous chunks instead of chasing
//! pointers. `SegmentIndex::child_box_dist2` computes all eight lanes
//! branchlessly in a shape the autovectorizer lowers to SIMD (and an
//! explicit SSE2 `core::arch` path is used on x86_64; a unit test pins
//! it to the scalar reference). Internal-node boxes are built bottom-up
//! as the union of their children's boxes — one O(n) pass over the node
//! array, not a per-node endpoint rescan.
//!
//! ## Exactness
//!
//! Descent is best-first (nearer child boxes explored before farther
//! siblings), so the running best converges in one dive and sibling
//! subtrees prune at the highest possible level. Results are
//! nonetheless **bit-identical** to the linear scan:
//!
//! * distances come from [`point_segment_distance2`] on the same
//!   coordinates, whose square root is bit-identical to the linear
//!   scan's
//!   [`point_segment_distance`](ft_core::geometry::point_segment_distance);
//! * the running best carries the segment index it came from, and a
//!   later segment replaces it only with a strictly smaller distance or
//!   an equal distance at a smaller index — the same winner the
//!   linear scan's first-wins rule picks, independent of visit order;
//! * a pruned subtree satisfies `box distance > best + slack`, and the
//!   box distance lower-bounds every segment inside, so a pruned
//!   segment could never have improved *or tied* the running best.
//!
//! Pruning compares **squared** distances against the squared slack-
//! padded bound — the comparison is monotone, so the decisions (and
//! therefore the results) are unchanged while the hot loop never takes
//! a square root.
//!
//! ## Top-k / early termination
//!
//! [`SegmentIndex::query_topk`] runs one global best-first search over
//! all trajectories, each keyed by its nearest *child* box distance —
//! a root's own box usually contains the query and bounds nothing,
//! while one batched test of its children still lower-bounds the true
//! distance but tightly enough to discard most of the frontier. A
//! trajectory's running best becomes *settled* — provably exact and
//! provably ahead of every unsettled trajectory — as soon as it drops
//! below the frontier bound minus `prune_slack`; settled trajectories drain
//! into the ranking in `(distance, trajectory index)` order, which is
//! exactly the order [`Diagnosis`] ranks a full scan. The search stops
//! once `k` trajectories are ranked **and** the winner's whole
//! ambiguity set (`distance ≤ best × ambiguity_ratio`) is settled, so
//! the rank-1 verdict and the reported ambiguity set are always
//! identical to the full ranking — only the deep tail is skipped.
//!
//! [`Diagnosis`]: ft_core::Diagnosis

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use ft_core::geometry::point_segment_distance2;
use ft_core::{
    ambiguity_threshold, topk_prefix_len, SegmentQuery, Signature, TopkRanking, TrajectorySet,
};

use crate::obs::Counter;

/// Default maximum number of segments per leaf node. The flat layout
/// makes segment exams cheap (squared-domain scan, contiguous endpoint
/// rows), so it pays to push work into leaves rather than into more
/// box tests.
const DEFAULT_LEAF_SIZE: usize = 16;

/// Children per internal node — one batched box test covers a whole
/// sibling group. Eight `f64` lanes fill two AVX registers (or four
/// SSE2 ones), and the plane arrays are padded so a full-width read at
/// any child base stays in bounds.
pub(crate) const BRANCH: usize = 8;

/// Conservative slack added to pruning bounds so floating-point rounding
/// can never skip a segment the linear scan would have preferred.
pub(crate) fn prune_slack(d: f64) -> f64 {
    1e-9 + 1e-12 * d.abs()
}

/// Instrumentation of one index query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Tree nodes whose bounding box was tested.
    pub nodes_visited: usize,
    /// Segments whose exact distance was computed.
    pub segments_examined: usize,
    /// `true` when a top-k query stopped before settling the full
    /// ranking (always `false` for full-ranking queries).
    pub early_exit: bool,
}

/// Observability handles an index records its per-query work into when
/// attached (see [`crate::obs::EngineMetrics`]); without them a query
/// touches no atomics.
#[derive(Debug, Clone)]
pub(crate) struct IndexCounters {
    /// `engine_index_nodes_visited_total`.
    pub nodes_visited: Arc<Counter>,
    /// `engine_index_segments_examined_total`.
    pub segments_examined: Arc<Counter>,
    /// `engine_topk_early_exit_total`.
    pub topk_early_exits: Arc<Counter>,
}

/// A flat structure-of-arrays forest of per-trajectory 8-ary AABB trees
/// over all segments of a [`TrajectorySet`].
#[derive(Debug, Clone)]
pub struct SegmentIndex {
    dim: usize,
    n_traj: usize,
    /// Plane-array stride: node count padded by [`BRANCH`] so a full
    /// 8-lane read at any child base never leaves the allocation.
    stride: usize,
    /// First child node id per node; `u32::MAX` marks a leaf. A node's
    /// children are the consecutive ids `child_base..child_base + child_count`.
    child_base: Vec<u32>,
    /// Number of children (0 for leaves, 2..=[`BRANCH`] for internal nodes).
    child_count: Vec<u8>,
    /// Segment range `[seg_lo, seg_hi)` covered by each node.
    seg_lo: Vec<u32>,
    seg_hi: Vec<u32>,
    /// Owning trajectory of each node.
    node_traj: Vec<u32>,
    /// Root node id per trajectory — also the start of its contiguous
    /// breadth-first node block (the next root bounds it).
    roots: Vec<u32>,
    /// Box planes, plane-major: for dimension `k`,
    /// `planes[2k·stride + node]` is the lower corner and
    /// `planes[(2k+1)·stride + node]` the upper.
    planes: Vec<f64>,
    /// Segment id → (start, end) deviation percentages; ids are
    /// trajectory-major, matching `TrajectorySet::all_segments`.
    seg_dev: Vec<(f64, f64)>,
    /// Flat endpoint store, stride `2 * dim`: `a` then `b`.
    coords: Vec<f64>,
    counters: Option<IndexCounters>,
}

impl SegmentIndex {
    /// Builds the index with the default leaf size.
    ///
    /// # Panics
    ///
    /// Panics if `set` is empty.
    pub fn build(set: &TrajectorySet) -> Self {
        Self::with_leaf_size(set, DEFAULT_LEAF_SIZE)
    }

    /// Builds the index with an explicit maximum leaf size (smaller
    /// leaves prune harder but test more boxes).
    ///
    /// # Panics
    ///
    /// Panics if `set` is empty or `leaf_size` is zero.
    pub fn with_leaf_size(set: &TrajectorySet, leaf_size: usize) -> Self {
        assert!(!set.is_empty(), "cannot index an empty trajectory set");
        assert!(leaf_size > 0, "leaf size must be positive");
        let dim = set.dim();
        let mut index = SegmentIndex {
            dim,
            n_traj: set.len(),
            stride: 0,
            child_base: Vec::new(),
            child_count: Vec::new(),
            seg_lo: Vec::new(),
            seg_hi: Vec::new(),
            node_traj: Vec::new(),
            roots: Vec::with_capacity(set.len()),
            planes: Vec::new(),
            seg_dev: Vec::with_capacity(set.total_segments()),
            coords: Vec::with_capacity(set.total_segments() * 2 * dim),
            counters: None,
        };
        for (_, _, d0, p0, d1, p1) in set.all_segments() {
            index.seg_dev.push((d0, d1));
            index.coords.extend_from_slice(p0);
            index.coords.extend_from_slice(p1);
        }
        // Tree shape first: per trajectory, a breadth-first node block
        // whose sibling groups are consecutive ids.
        let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        let mut seg_base = 0u32;
        for (ti, t) in set.views().enumerate() {
            let n = t.segment_count() as u32;
            let root = index.push_node(seg_base, seg_base + n, ti as u32);
            index.roots.push(root);
            queue.push_back(root);
            while let Some(nid) = queue.pop_front() {
                let (lo, hi) = (index.seg_lo[nid as usize], index.seg_hi[nid as usize]);
                let count = (hi - lo) as usize;
                if count <= leaf_size {
                    continue; // stays a leaf
                }
                let chunks = count.div_ceil(leaf_size).clamp(2, BRANCH);
                let size = (count.div_ceil(chunks)) as u32;
                index.child_base[nid as usize] = index.child_base.len() as u32;
                let mut created = 0u8;
                let mut clo = lo;
                while clo < hi {
                    let chi = (clo + size).min(hi);
                    let cid = index.push_node(clo, chi, ti as u32);
                    queue.push_back(cid);
                    created += 1;
                    clo = chi;
                }
                index.child_count[nid as usize] = created;
            }
            seg_base += n;
        }
        // Boxes second: one bottom-up pass. Children always carry
        // higher ids than their parent, so a reverse sweep sees every
        // child before its parent and internal boxes are unions of
        // already-final child boxes — no endpoint rescans.
        let n_nodes = index.child_base.len();
        index.stride = n_nodes + BRANCH;
        index.planes = vec![0.0; 2 * dim * index.stride];
        for nid in (0..n_nodes).rev() {
            index.refresh_box(nid);
        }
        #[cfg(debug_assertions)]
        index.debug_verify_boxes_against_rescan();
        index
    }

    /// Appends a node with no children yet and returns its id.
    fn push_node(&mut self, seg_lo: u32, seg_hi: u32, traj: u32) -> u32 {
        let id = self.child_base.len() as u32;
        self.child_base.push(u32::MAX);
        self.child_count.push(0);
        self.seg_lo.push(seg_lo);
        self.seg_hi.push(seg_hi);
        self.node_traj.push(traj);
        id
    }

    /// Recomputes node `nid`'s box: from its segment endpoints for a
    /// leaf, as the union of its children's (already current) boxes for
    /// an internal node. Exact either way — min/max over the same
    /// endpoint multiset gives the identical `f64` regardless of
    /// association, which is what lets the build skip the rescan.
    fn refresh_box(&mut self, nid: usize) {
        let dim = self.dim;
        let stride = self.stride;
        if self.child_base[nid] == u32::MAX {
            for k in 0..dim {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for s in self.seg_lo[nid]..self.seg_hi[nid] {
                    let base = s as usize * 2 * dim;
                    for &x in &[self.coords[base + k], self.coords[base + dim + k]] {
                        lo = lo.min(x);
                        hi = hi.max(x);
                    }
                }
                self.planes[2 * k * stride + nid] = lo;
                self.planes[(2 * k + 1) * stride + nid] = hi;
            }
        } else {
            let cb = self.child_base[nid] as usize;
            let cc = self.child_count[nid] as usize;
            for k in 0..dim {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for c in cb..cb + cc {
                    lo = lo.min(self.planes[2 * k * stride + c]);
                    hi = hi.max(self.planes[(2 * k + 1) * stride + c]);
                }
                self.planes[2 * k * stride + nid] = lo;
                self.planes[(2 * k + 1) * stride + nid] = hi;
            }
        }
    }

    /// Debug-build oracle: every node box must equal the box a direct
    /// rescan of its segment endpoints produces — the invariant the
    /// O(n) union build rests on.
    #[cfg(debug_assertions)]
    fn debug_verify_boxes_against_rescan(&self) {
        for nid in 0..self.child_base.len() {
            for k in 0..self.dim {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for s in self.seg_lo[nid]..self.seg_hi[nid] {
                    let base = s as usize * 2 * self.dim;
                    for &x in &[self.coords[base + k], self.coords[base + self.dim + k]] {
                        lo = lo.min(x);
                        hi = hi.max(x);
                    }
                }
                debug_assert_eq!(
                    self.planes[2 * k * self.stride + nid],
                    lo,
                    "union-built lower box plane diverged from the rescan oracle"
                );
                debug_assert_eq!(
                    self.planes[(2 * k + 1) * self.stride + nid],
                    hi,
                    "union-built upper box plane diverged from the rescan oracle"
                );
            }
        }
    }

    /// Attaches observability counters; every subsequent query adds its
    /// [`QueryStats`] to them. Without this call queries touch no
    /// atomics.
    pub(crate) fn set_counters(&mut self, counters: IndexCounters) {
        self.counters = Some(counters);
    }

    /// Number of indexed segments.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.seg_dev.len()
    }

    /// Squared distance from `q` to node `nid`'s box (zero inside) —
    /// scalar single-box twin of the batched kernel, for nodes read
    /// outside a sibling group (leaf trajectory roots in the
    /// [`SegmentIndex::query_topk`] frontier).
    #[inline]
    fn one_box_dist2(&self, nid: usize, q: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (k, &qk) in q.iter().enumerate() {
            let lo = self.planes[2 * k * self.stride + nid];
            let hi = self.planes[(2 * k + 1) * self.stride + nid];
            let delta = (lo - qk).max(qk - hi).max(0.0);
            acc += delta * delta;
        }
        acc
    }

    /// Squared distances from `q` to the eight box lanes starting at
    /// node id `base` — the whole sibling group of one internal node in
    /// one branchless pass over the SoA planes. Always computes all
    /// [`BRANCH`] lanes (the plane padding keeps the reads in bounds);
    /// callers consume only the real `child_count`.
    #[inline]
    fn child_box_dist2(&self, base: usize, q: &[f64], out: &mut [f64; BRANCH]) {
        Self::batch_box_dist2(&self.planes, self.stride, base, q, out);
    }

    /// Batched box test over a plane-major array (`planes[2k·stride +
    /// lane]` lower, `planes[(2k+1)·stride + lane]` upper): eight
    /// squared box distances starting at `base`. Requires
    /// `base + BRANCH <= stride`.
    #[inline]
    fn batch_box_dist2(
        planes: &[f64],
        stride: usize,
        base: usize,
        q: &[f64],
        out: &mut [f64; BRANCH],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            Self::batch_box_dist2_sse2(planes, stride, base, q, out);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self::batch_box_dist2_scalar(planes, stride, base, q, out);
        }
    }

    /// Scalar reference for the batched box test: branchless
    /// clamp-square-accumulate over fixed-width lanes, written so the
    /// autovectorizer can lower it to SIMD on any target. On x86_64 the
    /// hot path dispatches to the SSE2 twin instead, and this reference
    /// is exercised only by the parity test.
    #[cfg_attr(all(target_arch = "x86_64", not(test)), allow(dead_code))]
    #[inline]
    fn batch_box_dist2_scalar(
        planes: &[f64],
        stride: usize,
        base: usize,
        q: &[f64],
        out: &mut [f64; BRANCH],
    ) {
        out.fill(0.0);
        for (k, &qk) in q.iter().enumerate() {
            let lo = &planes[2 * k * stride + base..][..BRANCH];
            let hi = &planes[(2 * k + 1) * stride + base..][..BRANCH];
            for j in 0..BRANCH {
                let delta = (lo[j] - qk).max(qk - hi[j]).max(0.0);
                out[j] += delta * delta;
            }
        }
    }

    /// Explicit SSE2 path (baseline on x86_64, no feature detection
    /// needed): identical arithmetic to the scalar reference on the
    /// finite inputs the index holds, pinned by
    /// `simd_batch_matches_scalar_reference`.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn batch_box_dist2_sse2(
        planes: &[f64],
        stride: usize,
        base: usize,
        q: &[f64],
        out: &mut [f64; BRANCH],
    ) {
        use std::arch::x86_64::{
            _mm_add_pd, _mm_loadu_pd, _mm_max_pd, _mm_mul_pd, _mm_set1_pd, _mm_setzero_pd,
            _mm_storeu_pd, _mm_sub_pd,
        };
        debug_assert!(base + BRANCH <= stride);
        // SAFETY: every load reads two f64 lanes at `base + 2j` with
        // `base + BRANCH <= stride` guaranteed by the plane padding, and
        // loadu/storeu carry no alignment requirement.
        unsafe {
            let zero = _mm_setzero_pd();
            let mut acc = [zero; BRANCH / 2];
            for (k, &qk) in q.iter().enumerate() {
                let qv = _mm_set1_pd(qk);
                let lo_ptr = planes.as_ptr().add(2 * k * stride + base);
                let hi_ptr = planes.as_ptr().add((2 * k + 1) * stride + base);
                for (j, lane) in acc.iter_mut().enumerate() {
                    let lo = _mm_loadu_pd(lo_ptr.add(2 * j));
                    let hi = _mm_loadu_pd(hi_ptr.add(2 * j));
                    let delta =
                        _mm_max_pd(_mm_max_pd(_mm_sub_pd(lo, qv), _mm_sub_pd(qv, hi)), zero);
                    *lane = _mm_add_pd(*lane, _mm_mul_pd(delta, delta));
                }
            }
            for (j, lane) in acc.iter().enumerate() {
                _mm_storeu_pd(out.as_mut_ptr().add(2 * j), *lane);
            }
        }
    }

    /// Best `(distance, deviation)` per trajectory, as
    /// [`SegmentQuery::best_per_trajectory`], discarding statistics.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub(crate) fn query(&self, observed: &Signature) -> Vec<(f64, f64)> {
        self.query_stats(observed).0
    }

    /// `SegmentIndex::query` plus instrumentation: how many node boxes
    /// were tested and how many exact segment distances were computed.
    /// On a large bank `segments_examined` is a small fraction of
    /// `SegmentIndex::len` — that fraction *is* the speed-up.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn query_stats(&self, observed: &Signature) -> (Vec<(f64, f64)>, QueryStats) {
        assert_eq!(
            observed.dim(),
            self.dim,
            "signature dimension must match the index"
        );
        let q = observed.coords();
        let mut stats = QueryStats::default();
        let mut best = Vec::with_capacity(self.n_traj);
        let mut stack: Vec<(u32, f64)> = Vec::with_capacity(64);

        for &root in &self.roots {
            let mut cur = Best::none();
            stats.nodes_visited += 1;
            self.descend(root, q, &mut cur, &mut stack, &mut stats, f64::INFINITY);
            best.push((cur.dist, cur.dev));
        }
        self.record(&stats);
        (best, stats)
    }

    /// Best-first branch-and-bound over one trajectory's tree, using an
    /// explicit stack of `(node, squared box distance)` frontier
    /// entries. Entries are re-checked against the (improving) bound at
    /// pop time, so stale pushes prune instead of descending. `adm2` is
    /// an additional squared global bound (`f64::INFINITY` for an exact
    /// full-trajectory result): subtrees whose box lies beyond it are
    /// skipped, so the caller must prove such segments cannot matter —
    /// [`SegmentIndex::query_topk`] does, for its returned prefix.
    fn descend(
        &self,
        root: u32,
        q: &[f64],
        cur: &mut Best,
        stack: &mut Vec<(u32, f64)>,
        stats: &mut QueryStats,
        adm2: f64,
    ) {
        stack.clear();
        stack.push((root, 0.0));
        let mut lanes = [0.0f64; BRANCH];
        while let Some((nid, d2)) = stack.pop() {
            let bound = cur.dist + prune_slack(cur.dist);
            if d2 > (bound * bound).min(adm2) {
                continue;
            }
            let nid = nid as usize;
            let cb = self.child_base[nid];
            if cb == u32::MAX {
                self.scan_leaf(nid, q, cur, stats);
                continue;
            }
            let cnt = self.child_count[nid] as usize;
            self.child_box_dist2(cb as usize, q, &mut lanes);
            stats.nodes_visited += cnt;
            // Order the sibling group nearest-first (insertion sort on
            // at most eight lanes), then push farthest-first so the
            // nearest child pops next.
            let mut order = [0u8; BRANCH];
            for (j, slot) in order.iter_mut().enumerate().take(cnt) {
                *slot = j as u8;
            }
            for i in 1..cnt {
                let mut j = i;
                while j > 0 && lanes[order[j] as usize] < lanes[order[j - 1] as usize] {
                    order.swap(j, j - 1);
                    j -= 1;
                }
            }
            let bound2 = (bound * bound).min(adm2);
            for &oj in order[..cnt].iter().rev() {
                let d2 = lanes[oj as usize];
                if d2 <= bound2 {
                    stack.push((cb + oj as u32, d2));
                }
            }
        }
    }

    /// Exact scan of one leaf's segments, applying the linear scan's
    /// first-wins tie rule via the carried segment index.
    ///
    /// Candidates are ranked in the squared domain
    /// ([`point_segment_distance2`]) so the square root is paid only on
    /// improvements, not per segment. Squared comparison alone would be
    /// wrong at the last bit: two squared distances an ulp apart can
    /// round to the *same* square root, where the linear scan's tie rule
    /// kicks in. A relative band of `1e-14` around the incumbent is far
    /// wider than the ~1-ulp window in which correctly-rounded square
    /// roots can collide, so outside it the squared order is provably
    /// the rooted order, and inside it the exact rooted rule runs.
    #[inline]
    fn scan_leaf(&self, nid: usize, q: &[f64], cur: &mut Best, stats: &mut QueryStats) {
        const LO: f64 = 1.0 - 1e-14;
        const HI: f64 = 1.0 + 1e-14;
        let (lo, hi) = (self.seg_lo[nid] as usize, self.seg_hi[nid] as usize);
        let w = 2 * self.dim;
        stats.segments_examined += hi - lo;
        // One bounds check for the whole leaf; `chunks_exact` hands the
        // distance kernel fixed-width endpoint rows with no per-segment
        // slice arithmetic.
        for (i, seg) in self.coords[lo * w..hi * w].chunks_exact(w).enumerate() {
            let s = (lo + i) as u32;
            let (a, b) = seg.split_at(self.dim);
            let (dist2, tpar) = point_segment_distance2(q, a, b);
            if dist2 > cur.dist2 * HI {
                continue;
            }
            let dist = dist2.sqrt();
            if dist2 < cur.dist2 * LO || dist < cur.dist || (dist == cur.dist && s < cur.seg) {
                let (d0, d1) = self.seg_dev[s as usize];
                cur.dist = dist;
                cur.dist2 = dist2;
                cur.dev = d0 + tpar * (d1 - d0);
                cur.seg = s;
            }
        }
    }

    /// The `k` best trajectories — plus however many more the winner's
    /// ambiguity set needs — via one global best-first search that
    /// stops as soon as that prefix is provably settled. The returned
    /// ranking is bit-identical to sorting the full
    /// `SegmentIndex::query` result by `(distance, trajectory index)`
    /// and truncating (the [`SegmentQuery::topk_per_trajectory`] oracle);
    /// `early_exit` reports whether any work was actually skipped.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or `k == 0`.
    pub fn query_topk(
        &self,
        observed: &Signature,
        k: usize,
        ambiguity_ratio: f64,
    ) -> (TopkRanking, QueryStats) {
        // The search's working sets (frontier, settlement heaps,
        // deviation table, descent stack) live in a per-worker scratch
        // reused across every query the thread runs: after one warm-up
        // query per (thread, shard-size) pair, the only allocation left
        // per call is the returned ranking itself.
        TOPK_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => self.query_topk_with(observed, k, ambiguity_ratio, &mut scratch),
            // Unreachable re-entrancy (the search calls nothing that
            // queries), but a fresh scratch is always correct.
            Err(_) => {
                self.query_topk_with(observed, k, ambiguity_ratio, &mut TopkScratch::default())
            }
        })
    }

    fn query_topk_with(
        &self,
        observed: &Signature,
        k: usize,
        ambiguity_ratio: f64,
        scratch: &mut TopkScratch,
    ) -> (TopkRanking, QueryStats) {
        assert_eq!(
            observed.dim(),
            self.dim,
            "signature dimension must match the index"
        );
        assert!(k > 0, "top-k needs k >= 1");
        let q = observed.coords();
        let n = self.n_traj;
        let k_eff = k.min(n);
        let mut stats = QueryStats::default();
        let mut ranked: Vec<(usize, f64, f64)> = Vec::with_capacity(k_eff + 4);
        let TopkScratch {
            frontier,
            by_best,
            devs,
            smallest,
            stack,
            grows,
        } = scratch;
        let caps_in = (
            frontier.capacity(),
            by_best.capacity(),
            devs.capacity(),
            smallest.capacity(),
            stack.capacity(),
        );
        frontier.clear();
        by_best.clear();
        smallest.clear();
        stack.clear();
        devs.clear();
        devs.resize(n, 0.0);
        // Everything except the descent stack is bounded by the
        // trajectory count (or k), so one up-front reserve makes every
        // later same-shard query allocation-free; the stack adapts to
        // the deepest subtree actually descended and then sticks.
        frontier.reserve(n);
        by_best.reserve(n);
        smallest.reserve(k_eff + 1);
        // Global frontier over whole unexplored trajectories, tightest
        // known lower bound first. A root's own box is a poor key: a
        // long trajectory's box spans most of the signature space, so
        // the query usually sits *inside* it and the bound degenerates
        // to zero — the admission bound then discards almost nothing
        // and nearly every trajectory gets resolved. One batched test
        // of the root's children instead keys each trajectory by its
        // nearest child box: still a lower bound on the true distance
        // (every segment lives in some child), but tight enough that
        // most of the frontier dies to the admission cut below.
        // Trajectories resolve in full the first time their root is
        // reached, so the frontier never grows: a sorted vec walked by
        // cursor beats a heap, and keys stay squared (monotone in the
        // true distance) so the square root is paid once per
        // settlement check, not once per entry. Keys are the raw IEEE
        // bit patterns: squared distances are always non-negative,
        // where the bit order *is* the numeric order, so sorting and
        // comparing stay in cheap integer land.
        let mut lanes = [0.0f64; BRANCH];
        for &root in &self.roots {
            let nid = root as usize;
            stats.nodes_visited += 1;
            let cb = self.child_base[nid];
            let key = if cb == u32::MAX {
                self.one_box_dist2(nid, q)
            } else {
                let cnt = self.child_count[nid] as usize;
                stats.nodes_visited += cnt;
                self.child_box_dist2(cb as usize, q, &mut lanes);
                let mut min = f64::INFINITY;
                for &d2 in lanes.iter().take(cnt) {
                    min = min.min(d2);
                }
                min
            };
            frontier.push((key.to_bits(), root));
        }
        frontier.sort_unstable();
        let mut cursor = 0usize;
        // Exact per-trajectory results awaiting settlement, nearest
        // first. Each trajectory is resolved in full by one bounded
        // descent the first time its root pops, so entries are unique
        // and final — no staleness bookkeeping.
        // Global admission bound: once k_eff trajectories are resolved,
        // nothing farther than `max(k-th smallest result, smallest
        // result x ambiguity_ratio)` can appear in the returned prefix
        // (the resolved values over-estimate their true distances, so
        // this over-estimates both the k-th true distance and the
        // winner's ambiguity threshold). Subtrees beyond the
        // slack-padded square of that bound are discarded outright.
        let mut best_resolved = f64::INFINITY;
        let mut adm2 = f64::INFINITY;
        let mut stopped_early = false;
        while cursor < frontier.len() {
            let (bd2_bits, root) = frontier[cursor];
            let bd2 = f64::from_bits(bd2_bits);
            if bd2 > adm2 {
                // Sorted frontier: every remaining root is at least this
                // far, so the admission bound discards the whole tail at
                // once. The drain below settles what was resolved.
                break;
            }
            // Everything strictly below the slack-padded frontier bound
            // is exact (no unexplored box can reach it) and ahead of
            // every unresolved trajectory (whose true distance is at
            // least the bound minus rounding): settle it, in the full
            // ranking's (distance, trajectory) order.
            let bound = bd2.sqrt();
            let cut = bound - prune_slack(bound);
            while let Some(&Reverse((bd_bits, ti))) = by_best.peek() {
                let bd = f64::from_bits(bd_bits);
                if bd >= cut {
                    break;
                }
                by_best.pop();
                ranked.push((ti as usize, bd, devs[ti as usize]));
            }
            if ranked.len() >= k_eff {
                let threshold = ambiguity_threshold(ranked[0].1, ambiguity_ratio);
                if threshold < cut {
                    stopped_early = true;
                    break;
                }
            }
            cursor += 1;
            let ti = self.node_traj[root as usize] as usize;
            let mut cur = Best::none();
            self.descend(root, q, &mut cur, stack, &mut stats, adm2);
            devs[ti] = cur.dev;
            let dist_bits = cur.dist.to_bits();
            by_best.push(Reverse((dist_bits, ti as u32)));
            best_resolved = best_resolved.min(cur.dist);
            if smallest.len() < k_eff {
                smallest.push(dist_bits);
            } else if let Some(mut top) = smallest.peek_mut() {
                if dist_bits < *top {
                    *top = dist_bits;
                }
            }
            if smallest.len() == k_eff {
                let kth = f64::from_bits(*smallest.peek().expect("k_eff >= 1"));
                let a = kth.max(ambiguity_threshold(best_resolved, ambiguity_ratio));
                let pad = a + prune_slack(a);
                adm2 = pad * pad;
            }
        }
        if !stopped_early {
            // Frontier exhausted: settle every resolved trajectory in
            // (distance, trajectory) order. Admission-discarded
            // trajectories are provably outside the kept prefix, and
            // any admission-truncated value sorts beyond it, so the
            // trim below removes them.
            while let Some(Reverse((bd_bits, ti))) = by_best.pop() {
                ranked.push((ti as usize, f64::from_bits(bd_bits), devs[ti as usize]));
            }
        }
        // Trim settled extras down to the oracle's exact prefix length.
        let keep = topk_prefix_len(&ranked, k_eff, ambiguity_ratio);
        ranked.truncate(keep);
        stats.early_exit = ranked.len() < n;
        if stats.early_exit {
            if let Some(c) = &self.counters {
                c.topk_early_exits.inc();
            }
        }
        if caps_in
            != (
                frontier.capacity(),
                by_best.capacity(),
                devs.capacity(),
                smallest.capacity(),
                stack.capacity(),
            )
        {
            *grows += 1;
        }
        self.record(&stats);
        (
            TopkRanking {
                early_exit: stats.early_exit,
                ranked,
            },
            stats,
        )
    }

    /// Adds one query's stats to the attached counters, if any.
    #[inline]
    fn record(&self, stats: &QueryStats) {
        if let Some(c) = &self.counters {
            c.nodes_visited.add(stats.nodes_visited as u64);
            c.segments_examined.add(stats.segments_examined as u64);
        }
    }
}

/// Per-worker reusable working sets for [`SegmentIndex::query_topk`]:
/// the trajectory frontier, the two settlement heaps, the deviation
/// table, and the descent stack. One instance lives in a thread-local
/// and is cleared (capacity kept) at the top of every query, so a
/// batch worker allocates these once and then runs allocation-free —
/// `grows` counts the queries that had to enlarge *any* of them, which
/// a debug test pins to warm-up only.
#[derive(Default)]
struct TopkScratch {
    frontier: Vec<(u64, u32)>,
    by_best: BinaryHeap<Reverse<(u64, u32)>>,
    devs: Vec<f64>,
    smallest: BinaryHeap<u64>,
    stack: Vec<(u32, f64)>,
    grows: u64,
}

thread_local! {
    static TOPK_SCRATCH: RefCell<TopkScratch> = RefCell::new(TopkScratch::default());
}

/// How many [`SegmentIndex::query_topk`] calls on *this thread* had to
/// grow the reused scratch. Steady state is a constant: after one
/// warm-up query per shard size, subsequent queries reuse capacity.
/// Read by the scratch-reuse test; not a metric.
#[cfg(test)]
fn topk_scratch_grows() -> u64 {
    TOPK_SCRATCH.with(|cell| cell.borrow().grows)
}

/// Running per-trajectory best during descent; `seg` breaks exact
/// distance ties toward the lowest segment index, as the linear scan's
/// first-wins rule does. `dist` is always exactly `dist2.sqrt()` —
/// [`SegmentIndex::scan_leaf`] ranks candidates on `dist2` and keeps the
/// rooted value for the pruning bound and the reported result.
struct Best {
    dist: f64,
    dist2: f64,
    dev: f64,
    seg: u32,
}

impl Best {
    fn none() -> Self {
        Best {
            dist: f64::INFINITY,
            dist2: f64::INFINITY,
            dev: 0.0,
            seg: u32::MAX,
        }
    }
}

impl SegmentQuery for SegmentIndex {
    fn best_per_trajectory(&self, set: &TrajectorySet, observed: &Signature) -> Vec<(f64, f64)> {
        assert!(
            set.len() == self.n_traj && set.dim() == self.dim && set.total_segments() == self.len(),
            "index was built over a different trajectory set"
        );
        self.query(observed)
    }

    fn topk_per_trajectory(
        &self,
        set: &TrajectorySet,
        observed: &Signature,
        k: usize,
        ambiguity_ratio: f64,
    ) -> TopkRanking {
        assert!(
            set.len() == self.n_traj && set.dim() == self.dim && set.total_segments() == self.len(),
            "index was built over a different trajectory set"
        );
        self.query_topk(observed, k, ambiguity_ratio).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::{Diagnoser, DiagnoserConfig, FaultTrajectory, LinearScan, TestVector};

    fn sig(x: f64, y: f64) -> Signature {
        Signature::new(vec![x, y])
    }

    /// Two crossing trajectories, as in the ft-core diagnosis tests.
    fn cross_set() -> TrajectorySet {
        let a = FaultTrajectory::new(
            "A",
            vec![-20.0, -10.0, 0.0, 10.0, 20.0],
            vec![
                sig(-4.0, 0.0),
                sig(-2.0, 0.0),
                sig(0.0, 0.0),
                sig(2.0, 0.0),
                sig(4.0, 0.0),
            ],
        );
        let b = FaultTrajectory::new(
            "B",
            vec![-20.0, -10.0, 0.0, 10.0, 20.0],
            vec![
                sig(0.0, -4.0),
                sig(0.0, -2.0),
                sig(0.0, 0.0),
                sig(0.0, 2.0),
                sig(0.0, 4.0),
            ],
        );
        TrajectorySet::new(TestVector::pair(1.0, 2.0), vec![a, b])
    }

    /// Long dense trajectories fanned around the origin.
    fn fan_set(n: usize) -> TrajectorySet {
        let mut trajectories = Vec::new();
        for i in 0..n {
            let angle = i as f64 * 0.19;
            let (s, c) = angle.sin_cos();
            let devs: Vec<f64> = (-40..=40).map(|k| k as f64).collect();
            let points: Vec<Signature> = (-40..=40)
                .map(|k| {
                    let r = k as f64 / 5.0;
                    sig(c * r + 0.001 * i as f64, s * r)
                })
                .collect();
            trajectories.push(FaultTrajectory::new(format!("T{i}"), devs, points));
        }
        TrajectorySet::new(TestVector::pair(1.0, 2.0), trajectories)
    }

    #[test]
    fn index_shape() {
        let set = cross_set();
        let idx = SegmentIndex::build(&set);
        assert_eq!(idx.len(), 8);
        assert_eq!(idx.dim, 2);
        assert_eq!(idx.n_traj, 2);
        assert!(idx.child_base.len() >= 2);
    }

    #[test]
    fn sibling_groups_are_contiguous_and_bfs_ordered() {
        let set = fan_set(5);
        let idx = SegmentIndex::with_leaf_size(&set, 3);
        for nid in 0..idx.child_base.len() {
            let cb = idx.child_base[nid];
            if cb == u32::MAX {
                assert_eq!(idx.child_count[nid], 0);
                continue;
            }
            let cnt = idx.child_count[nid] as usize;
            assert!((2..=BRANCH).contains(&cnt));
            // Children follow their parent and partition its range.
            assert!(cb as usize > nid);
            assert_eq!(idx.seg_lo[cb as usize], idx.seg_lo[nid]);
            assert_eq!(idx.seg_hi[cb as usize + cnt - 1], idx.seg_hi[nid]);
            for c in 0..cnt - 1 {
                assert_eq!(idx.seg_hi[cb as usize + c], idx.seg_lo[cb as usize + c + 1]);
                assert_eq!(idx.node_traj[cb as usize + c], idx.node_traj[nid]);
            }
        }
    }

    #[test]
    fn union_boxes_match_rescan_oracle() {
        // The release-build check of what debug builds assert at build
        // time: internal boxes built as child unions must be *exactly*
        // the boxes a full endpoint rescan produces.
        for leaf in [1, 2, 4, 7] {
            let set = fan_set(9);
            let idx = SegmentIndex::with_leaf_size(&set, leaf);
            for nid in 0..idx.child_base.len() {
                for k in 0..idx.dim {
                    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                    for s in idx.seg_lo[nid]..idx.seg_hi[nid] {
                        let base = s as usize * 2 * idx.dim;
                        for &x in &[idx.coords[base + k], idx.coords[base + idx.dim + k]] {
                            lo = lo.min(x);
                            hi = hi.max(x);
                        }
                    }
                    assert_eq!(idx.planes[2 * k * idx.stride + nid], lo);
                    assert_eq!(idx.planes[(2 * k + 1) * idx.stride + nid], hi);
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_batch_matches_scalar_reference() {
        let set = fan_set(13);
        let idx = SegmentIndex::with_leaf_size(&set, 2);
        let queries = [
            sig(0.4, 0.1),
            sig(-3.0, 7.5),
            sig(0.0, 0.0),
            sig(123.0, -456.0),
        ];
        let mut checked = 0;
        for nid in 0..idx.child_base.len() {
            let cb = idx.child_base[nid];
            if cb == u32::MAX {
                continue;
            }
            for q in &queries {
                let mut scalar = [0.0f64; BRANCH];
                let mut simd = [0.0f64; BRANCH];
                SegmentIndex::batch_box_dist2_scalar(
                    &idx.planes,
                    idx.stride,
                    cb as usize,
                    q.coords(),
                    &mut scalar,
                );
                SegmentIndex::batch_box_dist2_sse2(
                    &idx.planes,
                    idx.stride,
                    cb as usize,
                    q.coords(),
                    &mut simd,
                );
                assert_eq!(scalar, simd, "lane drift at node {nid} query {q}");
                // The scalar single-box twin must agree lane for lane
                // on the real children (it keys the top-k frontier).
                let cnt = idx.child_count[nid] as usize;
                for (j, &lane) in simd.iter().enumerate().take(cnt) {
                    let one = idx.one_box_dist2(cb as usize + j, q.coords());
                    assert_eq!(one, lane, "single-box drift at node {nid} lane {j}");
                }
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn indexed_matches_linear_exactly() {
        let set = cross_set();
        let queries = [
            sig(3.0, 0.2),
            sig(-2.0, 0.0),
            sig(1.0, 1.0),
            sig(0.5, 3.0),
            sig(10.0, 0.0),
            sig(-7.3, -9.9),
            sig(0.0, 0.0),
        ];
        // Over a spread of leaf sizes, including degenerate 1-segment
        // leaves and everything-in-one-leaf.
        for leaf in [1, 2, 3, 8, 64] {
            let idx = SegmentIndex::with_leaf_size(&set, leaf);
            for q in &queries {
                let lin = LinearScan.best_per_trajectory(&set, q);
                let fast = idx.best_per_trajectory(&set, q);
                assert_eq!(lin, fast, "divergence at {q} (leaf {leaf})");
            }
        }
    }

    #[test]
    fn diagnose_with_index_is_byte_identical() {
        let set = cross_set();
        let idx = SegmentIndex::build(&set);
        let diag = Diagnoser::new(set, DiagnoserConfig::default());
        for q in [sig(3.0, 0.2), sig(1.0, 1.0), sig(-0.1, 2.3)] {
            assert_eq!(diag.diagnose(&q), diag.diagnose_with(&idx, &q));
        }
    }

    #[test]
    fn pruning_actually_skips_segments() {
        // Long dense trajectories: a query near one end must not touch
        // the far segments of any trajectory.
        let set = fan_set(32);
        let idx = SegmentIndex::build(&set);
        let (best, stats) = idx.query_stats(&sig(0.4, 0.1));
        assert_eq!(best.len(), 32);
        assert!(
            stats.segments_examined < idx.len() / 2,
            "weak pruning: examined {} of {}",
            stats.segments_examined,
            idx.len()
        );
        assert!(!stats.early_exit);
        // Exactness is not traded away.
        let lin = LinearScan.best_per_trajectory(&set, &sig(0.4, 0.1));
        assert_eq!(lin, best);
    }

    #[test]
    fn degenerate_flat_set_still_works() {
        // All points on one axis: zero extent along y.
        let t = FaultTrajectory::new(
            "A",
            vec![-10.0, 0.0, 10.0],
            vec![sig(-1.0, 0.0), sig(0.0, 0.0), sig(1.0, 0.0)],
        );
        let set = TrajectorySet::new(TestVector::pair(1.0, 2.0), vec![t]);
        let idx = SegmentIndex::build(&set);
        let lin = LinearScan.best_per_trajectory(&set, &sig(0.3, 5.0));
        assert_eq!(idx.query(&sig(0.3, 5.0)), lin);
    }

    #[test]
    fn zero_length_segments_are_indexed_exactly() {
        // Repeated points produce zero-length segments whose boxes are
        // single points; results must still match the linear scan
        // bit-for-bit (including the first-wins tie rule).
        let t = FaultTrajectory::new(
            "A",
            vec![-10.0, -5.0, 0.0, 5.0, 10.0],
            vec![
                sig(1.0, 1.0),
                sig(1.0, 1.0),
                sig(1.0, 1.0),
                sig(2.0, 2.0),
                sig(2.0, 2.0),
            ],
        );
        let set = TrajectorySet::new(TestVector::pair(1.0, 2.0), vec![t]);
        for leaf in [1, 2, 64] {
            let idx = SegmentIndex::with_leaf_size(&set, leaf);
            for q in [sig(1.0, 1.0), sig(0.0, 0.0), sig(3.0, 3.0)] {
                assert_eq!(idx.query(&q), LinearScan.best_per_trajectory(&set, &q));
            }
        }
    }

    #[test]
    fn topk_matches_full_ranking_prefix() {
        let set = fan_set(32);
        let idx = SegmentIndex::build(&set);
        let ratio = DiagnoserConfig::default().ambiguity_ratio;
        for q in &[sig(0.4, 0.1), sig(-6.0, 2.0), sig(0.0, 7.9), sig(3.3, 3.3)] {
            let full = LinearScan.topk_per_trajectory(&set, q, usize::MAX, ratio);
            for k in [1, 2, 5, 31, 32, 1000] {
                let (topk, stats) = idx.query_topk(q, k, ratio);
                let oracle = LinearScan.topk_per_trajectory(&set, q, k, ratio);
                assert_eq!(topk, oracle, "oracle drift at {q} k={k}");
                assert_eq!(
                    topk.ranked,
                    full.ranked[..topk.ranked.len()],
                    "not a prefix at {q} k={k}"
                );
                assert_eq!(stats.early_exit, topk.early_exit);
            }
        }
    }

    #[test]
    fn topk_early_exit_saves_work() {
        let set = fan_set(32);
        let idx = SegmentIndex::build(&set);
        let q = sig(0.4, 0.1);
        let (_, full_stats) = idx.query_stats(&q);
        let (topk, stats) = idx.query_topk(&q, 1, 1.05);
        assert!(topk.early_exit, "expected an early exit on a fan of 32");
        assert!(
            stats.segments_examined < full_stats.segments_examined,
            "top-k examined {} segments, full ranking {}",
            stats.segments_examined,
            full_stats.segments_examined
        );
    }

    #[test]
    fn topk_with_k_at_universe_is_the_full_ranking() {
        let set = fan_set(12);
        let idx = SegmentIndex::build(&set);
        let q = sig(-1.0, 2.5);
        let (topk, stats) = idx.query_topk(&q, 12, 1.5);
        assert!(!topk.early_exit);
        assert!(!stats.early_exit);
        assert_eq!(topk.ranked.len(), 12);
        let full = idx.query(&q);
        for &(ti, dist, dev) in &topk.ranked {
            assert_eq!((dist, dev), full[ti]);
        }
    }

    #[test]
    fn diagnose_topk_through_index_matches_linear_oracle() {
        let set = fan_set(16);
        let idx = SegmentIndex::build(&set);
        let diag = Diagnoser::new(set, DiagnoserConfig::default());
        for q in [sig(0.4, 0.1), sig(-2.0, -2.0), sig(6.0, 1.0)] {
            let full = diag.diagnose(&q);
            for k in [1, 3, 16] {
                let fast = diag.diagnose_topk(&idx, &q, k);
                let oracle = diag.diagnose_topk(&LinearScan, &q, k);
                assert_eq!(fast, oracle, "index/oracle drift at {q} k={k}");
                assert_eq!(fast.best(), full.best());
                assert_eq!(fast.ambiguity_set(), full.ambiguity_set());
            }
        }
    }

    #[test]
    fn attached_counters_accumulate_query_work() {
        let registry = crate::obs::MetricsRegistry::new();
        let set = fan_set(8);
        let mut idx = SegmentIndex::build(&set);
        idx.set_counters(IndexCounters {
            nodes_visited: registry.counter("engine_index_nodes_visited_total"),
            segments_examined: registry.counter("engine_index_segments_examined_total"),
            topk_early_exits: registry.counter("engine_topk_early_exit_total"),
        });
        let q = sig(0.4, 0.1);
        let (_, full) = idx.query_stats(&q);
        let (_, topk) = idx.query_topk(&q, 1, 1.05);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("engine_index_nodes_visited_total"),
            Some((full.nodes_visited + topk.nodes_visited) as u64)
        );
        assert_eq!(
            snap.counter("engine_index_segments_examined_total"),
            Some((full.segments_examined + topk.segments_examined) as u64)
        );
        assert_eq!(
            snap.counter("engine_topk_early_exit_total"),
            Some(u64::from(topk.early_exit))
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_set_rejected() {
        let set = TrajectorySet::new(TestVector::pair(1.0, 2.0), vec![]);
        let _ = SegmentIndex::build(&set);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn dimension_mismatch_rejected() {
        let idx = SegmentIndex::build(&cross_set());
        let _ = idx.query(&Signature::new(vec![1.0]));
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn topk_rejects_k_zero() {
        let idx = SegmentIndex::build(&cross_set());
        let _ = idx.query_topk(&sig(1.0, 1.0), 0, 1.5);
    }

    #[test]
    fn topk_scratch_is_allocation_free_after_warmup() {
        // Run a batch on a dedicated thread so no other test's queries
        // perturb this thread-local's grow counter.
        std::thread::spawn(|| {
            let set = fan_set(24);
            let idx = SegmentIndex::build(&set);
            let batch = |idx: &SegmentIndex| {
                for i in 0..200usize {
                    let x = (i as f64 * 0.37).sin() * 5.0;
                    let y = (i as f64 * 0.61).cos() * 5.0;
                    let k = 1 + i % 3;
                    let (ranking, _) = idx.query_topk(&sig(x, y), k, 1.0 + (i % 4) as f64 * 0.25);
                    assert!(!ranking.ranked.is_empty());
                }
            };
            // First pass warms the scratch (the descent stack adapts to
            // the deepest subtree the batch actually touches).
            batch(&idx);
            let warmed = topk_scratch_grows();
            assert!(warmed >= 1, "warm-up must have allocated something");
            // Steady state: an identical batch must never enlarge any
            // reused container — zero allocations beyond the returned
            // rankings themselves.
            batch(&idx);
            assert_eq!(
                topk_scratch_grows(),
                warmed,
                "steady-state top-k queries must not grow the scratch"
            );
        })
        .join()
        .unwrap();
    }
}
