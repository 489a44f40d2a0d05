//! The structure-of-arrays clip-and-accumulate kernel behind the serving
//! hot path.
//!
//! # Why a kernel plane
//!
//! The reference estimator folds [`Bucket::estimate_with_extension`] over an
//! AoS `Vec<Bucket>`: every bucket costs two early-exit branches, a `Rect`
//! construction, and scattered loads across a 56-byte struct, so the
//! per-bucket cost *is* the serving floor. [`BucketPlane`] stores the
//! seven per-bucket words the fold reads (`mx1/my1/mx2/my2/mcount/mex/mey`,
//! the extension amounts derived once from the average sizes) as separate
//! contiguous `f64` slices in Z-order of the bucket centres, with union
//! summaries over every 16 and every 4 consecutive buckets. One scan,
//! [`BucketPlane::accumulate_pruned`], prunes whole runs by their summaries
//! and classifies the survivors in a branchless min/max/clamp-to-zero form,
//! streaming cache lines instead of striding structs.
//!
//! The MBR columns, the Morton order and the block/quad union MBRs depend
//! on the partition alone. They live in a shared geometry that survives
//! `INSERT`/`DELETE` maintenance (which moves only counts and average
//! sizes), so re-serving after a write rebuilds only the weight columns.
//!
//! # The bit-identity contract
//!
//! Every accumulation in this module is **bit-identical** to the reference
//! AoS fold (`buckets.iter().map(estimate_with_extension).sum::<f64>()`,
//! which folds from Rust's `f64` additive identity `-0.0`). That is what
//! lets the kernel serve underneath every existing differential contract
//! (serving, parallel, wire-protocol goldens) without moving a
//! single bit. The derivation:
//!
//! 1. **The clip arithmetic is the same arithmetic.** For bucket `i` the
//!    reference computes `query.expanded(ex, ey)` (centre ± clamped
//!    half-extents), an `intersects` test, per-axis overlaps
//!    `(ehx.min(x2) - elx.max(x1)).max(0.0)`, and per-axis fractions
//!    `clamp(overlap/extent, 0, 1)` (degenerate axes count as 1). The
//!    kernel performs the *identical* operations in the identical order on
//!    the plane's columns — only the memory layout changed, so every term
//!    `t_i` matches the reference term bit for bit (IEEE-754 operations are
//!    deterministic).
//! 2. **Skipped zero terms are reconstructed exactly.** A strict in-order
//!    fold `-0.0 + t_0 + … + t_{n-1}` would serialise one `addsd` per
//!    bucket (~4 cycles each) even though almost every term of a selective
//!    query is zero. The kernel instead adds only the non-zero terms — in
//!    the same order — and repairs the one observable difference: IEEE-754
//!    addition of zeros. Adding `t = -0.0` never changes the accumulator;
//!    adding `t = +0.0` changes it only when it still holds `-0.0` (the
//!    fold identity), turning it into `+0.0`. So the skip-fold equals the
//!    strict fold **except** when the skip-fold ends at `-0.0` and at least
//!    one skipped term was `+0.0` — exactly repaired by a final `acc + 0.0`
//!    guarded by a "saw a skipped `+0.0`" flag.
//! 3. **Skipped-term signs are tracked without computing the terms.** A
//!    bucket is skipped when the branchless filter proves its term is some
//!    zero: the extended query misses the MBR (the reference early-returns
//!    literal `+0.0`), the count is `±0.0` (reference returns `+0.0`), or
//!    an axis with positive extent has zero overlap (the term is a product
//!    with a `+0.0` factor, so its sign is the sign of `count`). Hence a
//!    skipped term is `-0.0` **iff** the extended query intersects the MBR
//!    and `count < 0.0`; every other skipped term is `+0.0`. Buckets the
//!    filter cannot prove zero (including products that *underflow* to
//!    zero) compute the full term and re-test `t != 0.0`, so the flag is
//!    exact for them too.
//!
//! `count == -0.0` and NaN deserve a note: the filter treats `-0.0` counts
//! as zero-count buckets (`c != 0.0` is false) and records a `+0.0` skipped
//! term, matching the reference's literal `+0.0` early return. NaN
//! extension amounts collapse `(qhw + ex).max(0.0)` to `0.0` in both paths
//! (`f64::max` returns the non-NaN operand), and NaN counts survive the
//! `c != 0.0` filter so the NaN propagates into the sum exactly as the
//! reference propagates it.
//!
//! # Explicit SIMD
//!
//! With the `simd` cargo feature on x86_64, planes of at least 32 buckets
//! test four (AVX2, runtime-detected) or two (SSE2 baseline) block
//! summaries per compare. Under AVX2 a surviving block then gates its four
//! quads with one more compare and computes each surviving quad's four
//! terms at vector width with the scalar step's exact operation order;
//! under SSE2 surviving blocks run the scalar quad scan. The fold itself
//! is the same ascending-id replay either way, so bit-identity holds by
//! construction, and `tests/kernel_differential.rs` pins it.

use std::sync::Arc;

use minskew_geom::Rect;

use crate::{Bucket, ExtensionRule};

/// A query preprocessed for the kernel: centre and half-extents, the exact
/// intermediate values [`Rect::expanded`] derives before applying a
/// bucket's extension amounts.
///
/// Computing them once per query (instead of once per bucket) is
/// bit-identical because `expanded` derives them from the query alone.
#[derive(Debug, Clone, Copy)]
pub struct QueryPrep {
    cx: f64,
    cy: f64,
    hw: f64,
    hh: f64,
}

impl QueryPrep {
    /// Prepares `query` for accumulation.
    #[inline]
    pub fn new(query: &Rect) -> QueryPrep {
        let c = query.center();
        QueryPrep {
            cx: c.x,
            cy: c.y,
            hw: query.width() / 2.0,
            hh: query.height() / 2.0,
        }
    }
}

/// Buckets per pruning block of the Morton mirror: one coarse intersection
/// test can prove 16 terms zero at once (four AVX2 vectors).
const BLOCK: usize = 16;

/// Buckets per quad summary of the Morton mirror — the fine pruning level
/// below [`BLOCK`]. One block spans exactly `BLOCK / QUAD = 4` quads, so a
/// single four-wide vector compare tests all of a surviving block's quads.
const QUAD: usize = 4;

/// Structure-of-arrays mirror of a histogram's buckets plus the per-bucket
/// extension amounts under one [`ExtensionRule`].
///
/// Built lazily by [`crate::SpatialHistogram`]. The per-bucket columns
/// form a **Morton mirror** for the block-pruned scan
/// ([`BucketPlane::accumulate_pruned`]): the fold's inputs gathered in
/// Z-order of the bucket centres (`morder` maps mirror position → bucket
/// id), plus one coarse **block summary** per [`BLOCK`] consecutive
/// mirror positions — the union of the members' MBRs and the maxima of
/// their extension amounts. Z-order makes a block's members spatial
/// neighbours, so a selective query prunes almost every block with one
/// rectangle test. A computed-containment argument (IEEE-754 add/sub/max
/// are monotone, so the query extended by the block maxima contains every
/// member's extended query) proves a failed block test means every
/// member's term is exactly `+0.0`.
///
/// The plane has two parts. The geometry (every column derived from the
/// MBRs alone, `morder` included) is `Arc`-shared, column by column, by
/// the planes over one partition. The **weights** (counts, extension
/// amounts and their block/quad maxima) are the plane's own and are
/// rebuilt by one O(β) gather over the shared `morder`
/// (`BucketPlane::with_geometry`), so a data change that moves only
/// counts and average sizes never re-sorts the mirror.
#[derive(Debug, Clone)]
pub struct BucketPlane {
    pub(crate) geom: PlaneGeometry,
    /// The counts and extension amounts, `rule.amounts(avg_width,
    /// avg_height)`, gathered in mirror order (pads hold zeros). The
    /// amounts are the values [`crate::SpatialHistogram`] caches in its
    /// extension table, so using them is bit-identical to re-deriving them.
    mcount: Vec<f64>,
    mex: Vec<f64>,
    mey: Vec<f64>,
    /// Per-block maxima of `ex`/`ey` (NaN amounts are dropped by
    /// `f64::max`, matching how the members themselves collapse a NaN
    /// extension to zero), padded like the block unions.
    bex: Vec<f64>,
    bey: Vec<f64>,
    /// The same maxima per quad, padded like the quad unions.
    qex: Vec<f64>,
    qey: Vec<f64>,
}

/// The MBR-only half of a [`BucketPlane`]: the Morton order, the mirror
/// MBR columns and the block/quad union MBRs. None of it reads a count or
/// an average size, so it stays valid across every data change that
/// leaves the partition alone. Each column is an immutable `Arc<[_]>`, so
/// a clone shares the columns for the cost of refcount bumps while a plane
/// still holds every column's pointer and length inline, as the scan loops
/// read them.
#[derive(Debug, Clone)]
pub(crate) struct PlaneGeometry {
    /// Number of buckets the geometry was built over.
    len: usize,
    /// Morton mirror: bucket id at each mirror position (a permutation of
    /// `0..len` in Z-order of bucket centres, padded to a whole quad with
    /// the sentinel id `len`), and the MBRs gathered in that order.
    morder: Arc<[u32]>,
    mx1: Arc<[f64]>,
    my1: Arc<[f64]>,
    mx2: Arc<[f64]>,
    my2: Arc<[f64]>,
    /// Block union MBRs, `ceil(len / BLOCK)` real summaries padded to a
    /// coarse vector of four with never-intersecting sentinels.
    bx1: Arc<[f64]>,
    by1: Arc<[f64]>,
    bx2: Arc<[f64]>,
    by2: Arc<[f64]>,
    /// Quad union MBRs, `ceil(len / QUAD)` real summaries padded to a
    /// whole block window (`nblocks * 4`), so a surviving block can
    /// discard three quarters of its members with one more rectangle test
    /// (one vector compare covers a whole block's quads).
    qx1: Arc<[f64]>,
    qy1: Arc<[f64]>,
    qx2: Arc<[f64]>,
    qy2: Arc<[f64]>,
}

/// Classification of one bucket's term in the skip-zero fold: the exact
/// value when non-zero, otherwise the sign of the zero (module docs,
/// steps 2–3).
#[derive(Debug, Clone, Copy)]
enum Term {
    Live(f64),
    PosZero,
    NegZero,
}

/// The single source of truth for one bucket's term: the reference
/// arithmetic of [`Bucket::estimate_with_extension`], operation for
/// operation, classified for the skip-zero fold. The scalar scan and the
/// explained scan funnel through this function; the AVX2 quad step repeats
/// its operations lane-wise in the same order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn classify(x1: f64, y1: f64, x2: f64, y2: f64, c: f64, ex: f64, ey: f64, p: &QueryPrep) -> Term {
    // `Rect::expanded(ex, ey)` for this bucket, element-wise.
    let hw = (p.hw + ex).max(0.0);
    let hh = (p.hh + ey).max(0.0);
    let elx = p.cx - hw;
    let ehx = p.cx + hw;
    let ely = p.cy - hh;
    let ehy = p.cy + hh;
    // `extended.intersects(&mbr)`; non-short-circuiting so the filter
    // compiles branch-free.
    let inter = (elx <= x2) & (x1 <= ehx) & (ely <= y2) & (y1 <= ehy);
    // `extended.overlap_len(&mbr, axis)`, both axes.
    let ox = (ehx.min(x2) - elx.max(x1)).max(0.0);
    let oy = (ehy.min(y2) - ely.max(y1)).max(0.0);
    let w = x2 - x1;
    let h = y2 - y1;
    // The term can be non-zero only if the extended query intersects
    // the MBR, the count is non-zero, and every positive-extent axis
    // has positive overlap. No divisions are spent on proven zeros.
    let live = inter & (c != 0.0) & ((w <= 0.0) | (ox > 0.0)) & ((h <= 0.0) | (oy > 0.0));
    if live {
        // `axis_fraction` per axis, then the reference's product order.
        let fx = if w > 0.0 {
            (ox / w).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let fy = if h > 0.0 {
            (oy / h).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let t = c * fx * fy;
        if t != 0.0 {
            Term::Live(t)
        } else if t.to_bits() == 0 {
            // The product underflowed (or clamped) to a zero the filter
            // could not prove; its bit pattern decides.
            Term::PosZero
        } else {
            Term::NegZero
        }
    } else if inter & (c < 0.0) {
        // Skipped term: `-0.0` iff the query reaches the MBR of a
        // negative-count bucket, `+0.0` in every other case (module docs,
        // step 3).
        Term::NegZero
    } else {
        Term::PosZero
    }
}

/// Reusable per-caller scratch for the serving entry points
/// ([`crate::SpatialHistogram::estimate_count_indexed`] and
/// [`crate::SpatialHistogram::estimate_count_explained`]): allocation-free
/// once warm, one per worker over a shared immutable histogram.
///
/// It is the block-pruned scan's sparse term buffer: a dense per-bucket
/// value slot plus an id-space bitmask of which slots hold a term for the
/// current query. The scan visits buckets in Morton-mirror order but must
/// fold them in ascending bucket-id order to stay bit-identical to the
/// reference. The buffer makes that free: each non-zero term is scattered
/// into its bucket's slot and its id bit is set; the fold then walks the
/// mask words in ascending order, extracting set bits low-to-high —
/// exactly ascending id order, with no sort. Only the mask words are
/// cleared per query (`ceil(buckets / 64)` stores); value slots are gated
/// by the mask and never need clearing.
#[derive(Debug, Clone, Default)]
pub struct IndexScratch {
    vals: Vec<f64>,
    mask: Vec<u64>,
}

impl IndexScratch {
    /// Creates an empty scratch. Slots grow on first use per plane size
    /// and are then reused for every subsequent estimate.
    pub fn new() -> IndexScratch {
        IndexScratch::default()
    }

    /// Prepares the buffer for a plane of `n` buckets: grows the slots if
    /// needed and clears the mask words the fold will read. One spare
    /// value slot (id `n`) and one spare mask word absorb the branchless
    /// vector scatter's writes for pad and dead lanes; the fold never
    /// reads either.
    #[inline]
    fn reset(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if self.vals.len() < n + 1 {
            self.vals.resize(n + 1, 0.0);
            self.mask.resize(words + 1, 0);
        }
        for w in &mut self.mask[..words] {
            *w = 0;
        }
    }

    /// Records bucket `id`'s non-zero term.
    #[inline(always)]
    fn set(&mut self, id: usize, t: f64) {
        self.vals[id] = t;
        self.mask[id >> 6] |= 1u64 << (id & 63);
    }
}

/// One live bucket's contribution in a [`KernelExplain`] breakdown, in
/// ascending bucket-id order — the exact order the fold added it in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplainTerm {
    /// Bucket id (index into the histogram's bucket array).
    pub bucket: u32,
    /// The bucket's (possibly fractional) rectangle count.
    pub count: f64,
    /// Extension amounts the rule added to the query half-extents for this
    /// bucket (`ExtensionRule::amounts`).
    pub ex: f64,
    /// See [`ExplainTerm::ex`].
    pub ey: f64,
    /// Diagnostic clipped fraction `fx * fy` — the share of the bucket's
    /// MBR the extended query covers. Recomputed with the kernel's exact
    /// arithmetic for reporting; the headline estimate never reads it.
    pub fraction: f64,
    /// The term value from `classify`, bit for bit. The headline estimate
    /// is the ordered fold of exactly these values (plus the zero-sign
    /// repair) and nothing else.
    pub term: f64,
}

/// Pruning statistics from one explained scan: how much of the two-level
/// Morton-mirror hierarchy the query actually visited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneStats {
    /// Total 16-bucket blocks in the mirror.
    pub blocks: usize,
    /// Blocks rejected by the coarse union-MBR test (members never
    /// classified).
    pub blocks_pruned: usize,
    /// 4-bucket quads tested inside surviving blocks.
    pub quads_tested: usize,
    /// Quads rejected by the mid-level union-MBR test.
    pub quads_pruned: usize,
    /// Buckets that reached the scalar `classify` step.
    pub buckets_classified: usize,
}

/// The structured result of [`BucketPlane::accumulate_pruned_explained`]:
/// the estimate plus the evidence that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelExplain {
    /// The headline estimate — bit-identical to
    /// [`BucketPlane::accumulate_pruned`] for the same plane and query.
    pub estimate: f64,
    /// Live contributions in ascending bucket-id order (fold order).
    pub terms: Vec<ExplainTerm>,
    /// Whether any proven-`+0.0` term was skipped (the fold's zero-sign
    /// repair flag); exposed so [`KernelExplain::term_sum`] can replay the
    /// fold exactly.
    pub saw_pos_zero: bool,
    /// Block/quad pruning counters for this scan.
    pub prune: PruneStats,
}

impl KernelExplain {
    /// Re-folds the recorded terms exactly as the kernel did: ascending
    /// bucket-id order from a `-0.0` accumulator, then the `+0.0` repair
    /// iff a positive-zero term was skipped. Bit-identical to
    /// [`KernelExplain::estimate`] by construction — the differential suite
    /// pins it — so the breakdown provably *is* the estimate.
    pub fn term_sum(&self) -> f64 {
        let mut acc = -0.0f64;
        for t in &self.terms {
            acc += t.term;
        }
        if self.saw_pos_zero {
            acc + 0.0
        } else {
            acc
        }
    }
}

/// Padded column lengths for `n` buckets: the mirror is padded to a whole
/// quad (`n4`), the quad columns to a whole block's worth of quads (`nqp`),
/// and the block columns to a whole coarse vector (`nbp`), so the vector
/// scan never needs a scalar tail. Pads are sentinels (empty MBR, zero
/// count) that can never intersect a query; the scan masks them out of the
/// zero-sign flag with validity masks.
#[derive(Clone, Copy)]
struct Layout {
    n: usize,
    n4: usize,
    nbp: usize,
    nqp: usize,
}

impl Layout {
    fn new(n: usize) -> Layout {
        let nb = n.div_ceil(BLOCK);
        Layout {
            n,
            n4: if n == 0 { 0 } else { n.next_multiple_of(QUAD) },
            nbp: if nb == 0 { 0 } else { nb.next_multiple_of(4) },
            nqp: nb * (BLOCK / QUAD),
        }
    }
}

/// Raw bit patterns of a column.
fn bits(column: &[f64]) -> Vec<u64> {
    column.iter().map(|v| v.to_bits()).collect()
}

impl PlaneGeometry {
    /// Builds the geometry over the buckets' MBRs.
    pub(crate) fn build(buckets: &[Bucket]) -> PlaneGeometry {
        let Layout { n, n4, nbp, nqp } = Layout::new(buckets.len());

        // Morton mirror: gather the MBRs in Z-order of the bucket centres.
        // The schedule over the MBRs keys on exactly those centres; ties
        // keep id order, so the mirror is deterministic.
        let mbrs: Vec<Rect> = buckets.iter().map(|b| b.mbr).collect();
        let mut morder = crate::morton_schedule(&mbrs);
        let gather = |coord: fn(&Rect) -> f64| -> Vec<f64> {
            morder.iter().map(|&id| coord(&mbrs[id as usize])).collect()
        };
        let (mut mx1, mut my1, mut mx2, mut my2) = (
            gather(|r| r.lo.x),
            gather(|r| r.lo.y),
            gather(|r| r.hi.x),
            gather(|r| r.hi.y),
        );
        // Mirror pads: the empty rectangle. Its intersection test is false
        // against any (finite) query, so pads classify as dead lanes. Pad
        // `morder` entries map to the term buffer's spare slot `n`, which
        // the fold never reads — the branchless scatter can then store
        // every lane unconditionally.
        morder.resize(n4, n as u32);
        mx1.resize(n4, f64::INFINITY);
        my1.resize(n4, f64::INFINITY);
        mx2.resize(n4, f64::NEG_INFINITY);
        my2.resize(n4, f64::NEG_INFINITY);

        // Block unions over the mirror, per BLOCK members. They use
        // `f64::min`/`max`, which drop a NaN operand — consistent with the
        // member-level arithmetic, where a NaN coordinate can never satisfy
        // an intersection test. Block pads are empty-rectangle sentinels,
        // masked out of the coarse vector loop's results by its validity
        // mask.
        let (block, quad) = ((BLOCK, nbp), (QUAD, nqp));
        let inf = f64::INFINITY;
        let lo = |col: &[f64], runs| -> Arc<[f64]> {
            Arc::from(summary(&col[..n], runs, inf, f64::min, inf))
        };
        let hi = |col: &[f64], runs| -> Arc<[f64]> {
            Arc::from(summary(&col[..n], runs, -inf, f64::max, -inf))
        };
        let (bx1, by1, bx2, by2) = (
            lo(&mx1, block),
            lo(&my1, block),
            hi(&mx2, block),
            hi(&my2, block),
        );
        // Quad unions: the same at per-QUAD granularity. The containment
        // argument is level-agnostic — a quad's union contains its members
        // exactly as a block's contains its quads. Quad pads run out to a
        // whole block's window of quads, so the quad gate of the last
        // (ragged) block can load a full vector.
        let (qx1, qy1, qx2, qy2) = (
            lo(&mx1, quad),
            lo(&my1, quad),
            hi(&mx2, quad),
            hi(&my2, quad),
        );
        PlaneGeometry {
            len: n,
            morder: morder.into(),
            mx1: mx1.into(),
            my1: my1.into(),
            mx2: mx2.into(),
            my2: my2.into(),
            bx1,
            by1,
            bx2,
            by2,
            qx1,
            qy1,
            qx2,
            qy2,
        }
    }

    /// Number of buckets the geometry was built over.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// `true` when `other` shares this geometry's columns.
    #[cfg(test)]
    pub(crate) fn shares_columns(&self, other: &PlaneGeometry) -> bool {
        Arc::ptr_eq(&self.morder, &other.morder) && Arc::ptr_eq(&self.qy2, &other.qy2)
    }

    /// Heap bytes held by the geometry's columns.
    fn size_bytes(&self) -> usize {
        std::mem::size_of::<f64>()
            * (self.mx1.len()
                + self.my1.len()
                + self.mx2.len()
                + self.my2.len()
                + self.bx1.len()
                + self.by1.len()
                + self.bx2.len()
                + self.by2.len()
                + self.qx1.len()
                + self.qy1.len()
                + self.qx2.len()
                + self.qy2.len())
            + std::mem::size_of::<u32>() * self.morder.len()
    }
}

/// One summary column over the unpadded mirror column `col`, for `runs =
/// (group, padded)`: `combine` folded from `init` over each run of `group`
/// consecutive positions, in position order (the last run may be ragged),
/// then `pad` out to `padded` entries. Union MBRs fold with
/// `f64::min`/`max` and extension maxima with `f64::max`; both drop a NaN
/// operand.
fn summary(
    col: &[f64],
    (group, padded): (usize, usize),
    init: f64,
    combine: fn(f64, f64) -> f64,
    pad: f64,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(padded);
    out.extend(
        col.chunks(group)
            .map(|run| run.iter().fold(init, |acc, &v| combine(acc, v))),
    );
    out.resize(padded, pad);
    out
}

impl BucketPlane {
    /// Builds the plane for `buckets` under `rule`: a fresh geometry plus
    /// its weights.
    pub fn build(buckets: &[Bucket], rule: ExtensionRule) -> BucketPlane {
        BucketPlane::with_geometry(PlaneGeometry::build(buckets), buckets, rule)
    }

    /// Builds the plane's weights for `buckets` under `rule` over an
    /// existing `geom`, which must have been built over these buckets' MBRs.
    /// One O(β) pass gathers the counts and extension amounts through the
    /// shared `morder` — no Morton keys, no sort — so the result is
    /// column-for-column the plane [`BucketPlane::build`] would make.
    pub(crate) fn with_geometry(
        geom: PlaneGeometry,
        buckets: &[Bucket],
        rule: ExtensionRule,
    ) -> BucketPlane {
        // The SIMD scans index geometry and weight columns with one bound.
        assert_eq!(geom.len(), buckets.len(), "geometry of another partition");
        let Layout { n, n4, nbp, nqp } = Layout::new(buckets.len());
        // The mirror gathers in Z-order; pads are zero-count, zero-extension
        // dead lanes.
        let mut mcount = Vec::with_capacity(n4);
        let mut mex = Vec::with_capacity(n4);
        let mut mey = Vec::with_capacity(n4);
        for &id in &geom.morder[..n] {
            let b = &buckets[id as usize];
            let (x, y) = rule.amounts(b.avg_width, b.avg_height);
            mcount.push(b.count);
            mex.push(x);
            mey.push(y);
        }
        mcount.resize(n4, 0.0);
        mex.resize(n4, 0.0);
        mey.resize(n4, 0.0);
        // Block and quad extension maxima over the same runs as the
        // geometry's unions; pads carry zero amounts.
        let (block, quad) = ((BLOCK, nbp), (QUAD, nqp));
        let max = |col: &[f64], runs| summary(&col[..n], runs, f64::NEG_INFINITY, f64::max, 0.0);
        let (bex, bey) = (max(&mex, block), max(&mey, block));
        let (qex, qey) = (max(&mex, quad), max(&mey, quad));
        BucketPlane {
            geom,
            mcount,
            mex,
            mey,
            bex,
            bey,
            qex,
            qey,
        }
    }

    /// Number of buckets in the plane.
    #[inline]
    pub fn len(&self) -> usize {
        self.geom.len()
    }

    /// `true` when the plane holds no buckets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held by the plane's columns (capacity, not length —
    /// columns are built exactly-sized so the two coincide in practice),
    /// geometry and weights, including the Morton mirror and its block and
    /// quad summaries. A geometry shared with other planes is counted in
    /// full by each.
    pub fn size_bytes(&self) -> usize {
        self.geom.size_bytes()
            + std::mem::size_of::<f64>()
                * (self.mcount.capacity()
                    + self.mex.capacity()
                    + self.mey.capacity()
                    + self.bex.capacity()
                    + self.bey.capacity()
                    + self.qex.capacity()
                    + self.qey.capacity())
    }

    /// Every column of the plane, geometry then weights, by name and as
    /// raw bit patterns (`f64::to_bits`; `morder` widened to `u64`). Two
    /// planes serve the same bits when these agree; the differential
    /// suites compare a plane kept across data changes against a fresh
    /// [`BucketPlane::build`] this way.
    pub fn column_bits(&self) -> Vec<(&'static str, Vec<u64>)> {
        let g = &self.geom;
        vec![
            ("morder", g.morder.iter().map(|&id| u64::from(id)).collect()),
            ("mx1", bits(&g.mx1)),
            ("my1", bits(&g.my1)),
            ("mx2", bits(&g.mx2)),
            ("my2", bits(&g.my2)),
            ("bx1", bits(&g.bx1)),
            ("by1", bits(&g.by1)),
            ("bx2", bits(&g.bx2)),
            ("by2", bits(&g.by2)),
            ("qx1", bits(&g.qx1)),
            ("qy1", bits(&g.qy1)),
            ("qx2", bits(&g.qx2)),
            ("qy2", bits(&g.qy2)),
            ("mcount", bits(&self.mcount)),
            ("mex", bits(&self.mex)),
            ("mey", bits(&self.mey)),
            ("bex", bits(&self.bex)),
            ("bey", bits(&self.bey)),
            ("qex", bits(&self.qex)),
            ("qey", bits(&self.qey)),
        ]
    }

    /// `true` when the coarse block test proves every member of block `b`
    /// of the Morton mirror misses the query: the query extended by the
    /// block's extension maxima does not intersect the block's union MBR.
    /// By IEEE-754 monotonicity of add/sub/max, a member's extended query
    /// is contained in the block's, so a pruned block's members all have
    /// `inter == false` — their terms are all exactly `+0.0`.
    #[inline(always)]
    fn block_pruned(&self, b: usize, p: &QueryPrep) -> bool {
        let hw = (p.hw + self.bex[b]).max(0.0);
        let hh = (p.hh + self.bey[b]).max(0.0);
        !((p.cx - hw <= self.geom.bx2[b])
            & (self.geom.bx1[b] <= p.cx + hw)
            & (p.cy - hh <= self.geom.by2[b])
            & (self.geom.by1[b] <= p.cy + hh))
    }

    /// The same coarse test as [`BucketPlane::block_pruned`] one level
    /// down, over quad `q`'s union MBR and extension maxima.
    #[inline(always)]
    fn quad_pruned(&self, q: usize, p: &QueryPrep) -> bool {
        let hw = (p.hw + self.qex[q]).max(0.0);
        let hh = (p.hh + self.qey[q]).max(0.0);
        !((p.cx - hw <= self.geom.qx2[q])
            & (self.geom.qx1[q] <= p.cx + hw)
            & (p.cy - hh <= self.geom.qy2[q])
            & (self.geom.qy1[q] <= p.cy + hh))
    }

    /// Quad-gated scalar scan of one surviving block: each quad's union
    /// rectangle is tested before its members classify, so a block clipped
    /// by the query edge only pays for the quads the query reaches.
    #[inline(always)]
    fn scan_block_scalar(&self, b: usize, p: &QueryPrep, buf: &mut IndexScratch, saw: &mut bool) {
        let n = self.len();
        let nq = n.div_ceil(QUAD);
        for q in b * (BLOCK / QUAD)..((b + 1) * (BLOCK / QUAD)).min(nq) {
            if self.quad_pruned(q, p) {
                // A pruned quad skips only proven `+0.0` terms (quads are
                // never empty).
                *saw = true;
                continue;
            }
            for j in q * QUAD..((q + 1) * QUAD).min(n) {
                self.scan_one(j, p, buf, saw);
            }
        }
    }

    /// One Morton-mirror member's step of the pruned scan: a non-zero term
    /// is scattered into its bucket's slot of the term buffer (the fold
    /// later replays the slots in ascending id order straight off the
    /// bitmask), zero terms only touch the flag.
    #[inline(always)]
    fn scan_one(&self, j: usize, p: &QueryPrep, buf: &mut IndexScratch, saw: &mut bool) {
        let term = classify(
            self.geom.mx1[j],
            self.geom.my1[j],
            self.geom.mx2[j],
            self.geom.my2[j],
            self.mcount[j],
            self.mex[j],
            self.mey[j],
            p,
        );
        match term {
            Term::Live(t) => buf.set(self.geom.morder[j] as usize, t),
            Term::PosZero => *saw = true,
            Term::NegZero => {}
        }
    }

    /// Fold tail of the pruned scan: replays the collected non-zero terms
    /// in ascending bucket-id order — the order the strict reference fold
    /// adds them in — by walking the term buffer's bitmask words in
    /// ascending order and extracting set bits low-to-high. The mask *is*
    /// the order, so no sort happens on any path; cost is
    /// `ceil(buckets / 64)` word loads plus one add per surviving term.
    fn fold_masked(&self, buf: &IndexScratch, saw_pos_zero: bool) -> f64 {
        let words = self.len().div_ceil(64);
        let mut acc = -0.0f64;
        for w in 0..words {
            let mut m = buf.mask[w];
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                m &= m - 1;
                acc += buf.vals[(w << 6) | bit];
            }
        }
        if saw_pos_zero {
            acc + 0.0
        } else {
            acc
        }
    }

    /// The plane's one scan: the estimate over **all** buckets via the
    /// Morton mirror, bit-identical to the strict reference fold,
    /// sub-linear in the bucket count for selective queries, and
    /// allocation-free once `buf` is warm.
    ///
    /// The scan visits members of surviving blocks in mirror order,
    /// scattering non-zero terms into the term buffer's per-bucket slots;
    /// [`BucketPlane::fold_masked`] then replays them in ascending id
    /// order straight off the buffer's bitmask. The term *values* are
    /// order-independent (each is a pure function of one bucket and the
    /// query), the zero-sign flag is a commutative OR, and the non-zero
    /// terms are added in exactly the reference order — so the scan order
    /// is free to follow the mirror while the result stays bit-identical.
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    pub fn accumulate_pruned(&self, p: &QueryPrep, buf: &mut IndexScratch) -> f64 {
        self.accumulate_pruned_scalar(p, buf)
    }

    /// The plane's one scan: the estimate over **all** buckets via the
    /// Morton mirror, bit-identical to the strict reference fold,
    /// sub-linear in the bucket count for selective queries, and
    /// allocation-free once `buf` is warm.
    ///
    /// Under `simd`, planes of at least `2 * BLOCK` buckets run the coarse
    /// block tests four (AVX2) or two (SSE2) blocks per compare. AVX2 then
    /// gates a surviving block's quads with one compare and computes each
    /// surviving quad's terms at vector width in the scalar step's
    /// operation order; SSE2 runs the scalar quad scan. Either way the
    /// collected terms are the scalar terms bit for bit.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[allow(unsafe_code)] // sanctioned: runtime-feature-guarded dispatch
    pub fn accumulate_pruned(&self, p: &QueryPrep, buf: &mut IndexScratch) -> f64 {
        if self.len() < 2 * BLOCK {
            return self.accumulate_pruned_scalar(p, buf);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 code path is only entered when the running
            // CPU reports AVX2 support.
            unsafe { simd::accumulate_pruned_avx2(self, p, buf) }
        } else {
            simd::accumulate_pruned_sse2(self, p, buf)
        }
    }

    /// The portable block-pruned scan (always compiled; the bit-reference
    /// for the SIMD variants and the only body on default builds).
    fn accumulate_pruned_scalar(&self, p: &QueryPrep, buf: &mut IndexScratch) -> f64 {
        buf.reset(self.len());
        let mut saw_pos_zero = false;
        for b in 0..self.len().div_ceil(BLOCK) {
            if self.block_pruned(b, p) {
                // Every member's term is a proven `+0.0` (blocks are never
                // empty, so at least one `+0.0` was skipped).
                saw_pos_zero = true;
                continue;
            }
            self.scan_block_scalar(b, p, buf, &mut saw_pos_zero);
        }
        self.fold_masked(buf, saw_pos_zero)
    }

    /// Diagnostic clipped fraction `fx * fy` for mirror member `j`: the
    /// kernel's exact per-axis arithmetic, re-run purely for reporting.
    /// Never feeds the estimate — the term value always comes from
    /// `classify`.
    fn clip_fraction(&self, j: usize, p: &QueryPrep) -> f64 {
        let g = &self.geom;
        let (x1, y1, x2, y2) = (g.mx1[j], g.my1[j], g.mx2[j], g.my2[j]);
        let hw = (p.hw + self.mex[j]).max(0.0);
        let hh = (p.hh + self.mey[j]).max(0.0);
        let ox = ((p.cx + hw).min(x2) - (p.cx - hw).max(x1)).max(0.0);
        let oy = ((p.cy + hh).min(y2) - (p.cy - hh).max(y1)).max(0.0);
        let w = x2 - x1;
        let h = y2 - y1;
        let fx = if w > 0.0 {
            (ox / w).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let fy = if h > 0.0 {
            (oy / h).clamp(0.0, 1.0)
        } else {
            1.0
        };
        fx * fy
    }

    /// The explained twin of [`BucketPlane::accumulate_pruned`]: the same
    /// block-pruned scan — every term from `classify`, scattered through
    /// the same term buffer, folded by the same ascending-id mask walk —
    /// with the evidence recorded on the side. The headline estimate is
    /// therefore bit-identical to the serving path by construction, not by
    /// re-derivation.
    ///
    /// Always scalar, even under `simd`: the scalar scan is the bit
    /// reference the vector scans are pinned against.
    pub fn accumulate_pruned_explained(
        &self,
        p: &QueryPrep,
        buf: &mut IndexScratch,
    ) -> KernelExplain {
        buf.reset(self.len());
        let n = self.len();
        let nq = n.div_ceil(QUAD);
        let mut saw_pos_zero = false;
        let mut prune = PruneStats {
            blocks: n.div_ceil(BLOCK),
            ..PruneStats::default()
        };
        let mut terms = Vec::new();
        for b in 0..n.div_ceil(BLOCK) {
            if self.block_pruned(b, p) {
                saw_pos_zero = true;
                prune.blocks_pruned += 1;
                continue;
            }
            for q in b * (BLOCK / QUAD)..((b + 1) * (BLOCK / QUAD)).min(nq) {
                prune.quads_tested += 1;
                if self.quad_pruned(q, p) {
                    saw_pos_zero = true;
                    prune.quads_pruned += 1;
                    continue;
                }
                for j in q * QUAD..((q + 1) * QUAD).min(n) {
                    prune.buckets_classified += 1;
                    let term = classify(
                        self.geom.mx1[j],
                        self.geom.my1[j],
                        self.geom.mx2[j],
                        self.geom.my2[j],
                        self.mcount[j],
                        self.mex[j],
                        self.mey[j],
                        p,
                    );
                    match term {
                        Term::Live(t) => {
                            buf.set(self.geom.morder[j] as usize, t);
                            terms.push(ExplainTerm {
                                bucket: self.geom.morder[j],
                                count: self.mcount[j],
                                ex: self.mex[j],
                                ey: self.mey[j],
                                fraction: self.clip_fraction(j, p),
                                term: t,
                            });
                        }
                        Term::PosZero => saw_pos_zero = true,
                        Term::NegZero => {}
                    }
                }
            }
        }
        // The scan visits mirror order; report fold order.
        terms.sort_unstable_by_key(|t| t.bucket);
        let estimate = self.fold_masked(buf, saw_pos_zero);
        KernelExplain {
            estimate,
            terms,
            saw_pos_zero,
            prune,
        }
    }
}

/// Which kernel code path serves [`BucketPlane::accumulate_pruned`] on
/// this host — `"avx2"` / `"sse2"` under the `simd` feature on x86_64 (for
/// planes of at least 32 buckets), otherwise `"scalar-autovec"`. Recorded
/// in BENCH_estimate.json so committed numbers say what actually ran.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub fn simd_level() -> &'static str {
    if std::arch::is_x86_feature_detected!("avx2") {
        "avx2"
    } else {
        "sse2"
    }
}

/// Which kernel code path serves [`BucketPlane::accumulate_pruned`] on
/// this host — `"avx2"` / `"sse2"` under the `simd` feature on x86_64 (for
/// planes of at least 32 buckets), otherwise `"scalar-autovec"`. Recorded
/// in BENCH_estimate.json so committed numbers say what actually ran.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
pub fn simd_level() -> &'static str {
    "scalar-autovec"
}

/// Vectorised block-pruned scans over the Morton mirror. The vector
/// summary gates decide *which* blocks and quads can contribute, and the
/// AVX2 quad step repeats `classify`'s operations lane-wise in the same
/// order, so every collected term is the scalar term bit for bit. The
/// per-lane compare semantics agree with the scalar filter on every input
/// the plane can hold (finite MBRs; NaN counts and extension amounts
/// behave identically — see the module docs).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod simd {
    use core::arch::x86_64::*;

    use super::{BucketPlane, IndexScratch, QueryPrep};

    /// Per-query vector broadcasts shared by every AVX2 scan level, built
    /// once per [`accumulate_pruned_avx2`] call.
    #[derive(Clone, Copy)]
    struct QBcast {
        zero: __m256d,
        one: __m256d,
        cx: __m256d,
        cy: __m256d,
        hw: __m256d,
        hh: __m256d,
    }

    /// `extended.intersects(union)` over four summary rectangles at once —
    /// the shared block- and quad-level gate.
    ///
    /// # Safety
    ///
    /// The caller must ensure the running CPU supports AVX2 and that
    /// `i + 4` is within all six parallel summary columns.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn inter4_avx2(
        x1c: &[f64],
        y1c: &[f64],
        x2c: &[f64],
        y2c: &[f64],
        exc: &[f64],
        eyc: &[f64],
        i: usize,
        bc: &QBcast,
    ) -> i32 {
        // SAFETY: bounds guaranteed by the caller.
        unsafe {
            let ex = _mm256_loadu_pd(exc.as_ptr().add(i));
            let ey = _mm256_loadu_pd(eyc.as_ptr().add(i));
            let x1 = _mm256_loadu_pd(x1c.as_ptr().add(i));
            let x2 = _mm256_loadu_pd(x2c.as_ptr().add(i));
            let y1 = _mm256_loadu_pd(y1c.as_ptr().add(i));
            let y2 = _mm256_loadu_pd(y2c.as_ptr().add(i));
            let hw = _mm256_max_pd(_mm256_add_pd(bc.hw, ex), bc.zero);
            let hh = _mm256_max_pd(_mm256_add_pd(bc.hh, ey), bc.zero);
            let inter = _mm256_and_pd(
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_sub_pd(bc.cx, hw), x2),
                    _mm256_cmp_pd::<_CMP_LE_OQ>(x1, _mm256_add_pd(bc.cx, hw)),
                ),
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_sub_pd(bc.cy, hh), y2),
                    _mm256_cmp_pd::<_CMP_LE_OQ>(y1, _mm256_add_pd(bc.cy, hh)),
                ),
            );
            _mm256_movemask_pd(inter)
        }
    }

    /// Scan of one surviving block: a quad-level [`inter4_avx2`] gate
    /// drops the members of quads the query provably misses, then each
    /// surviving quad computes all four member *terms* at vector width.
    /// Quad and mirror columns are padded, so every load is full-width;
    /// validity masks keep pad lanes (which are dead by construction) out
    /// of the zero-sign flag.
    ///
    /// The per-lane operations mirror the scalar classification exactly:
    /// same operand order for every add/sub/min/max (the packed
    /// instructions return the second operand on ties and NaNs, just like
    /// their scalar twins here, and for a *live* lane every ordered
    /// compare that passed proves its operands non-NaN), divisions are
    /// true IEEE `divpd`, the clamp is blend-based so a NaN quotient
    /// survives like `f64::clamp`'s, and the `w > 0` / `h > 0` selects
    /// blend exactly where the scalar branches. A `±0.0` ambiguity cannot
    /// reach a computed term: a live lane with `w > 0` has strictly
    /// positive overlap, so the clamp input is never a signed zero. Live
    /// lanes are extracted in ascending lane order, preserving the mirror
    /// scan order; zero terms and dead lanes fold into the flag straight
    /// from the compare masks.
    ///
    /// # Safety
    ///
    /// The caller must ensure the running CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn scan_block_avx2(
        plane: &BucketPlane,
        blk: usize,
        bc: &QBcast,
        buf: &mut IndexScratch,
        saw_pos_zero: &mut bool,
    ) {
        let n = plane.len();
        let nq = n.div_ceil(super::QUAD);
        let q0 = blk * (super::BLOCK / super::QUAD);
        // Validity mask over the block's quad window: the last real block
        // may own fewer than four quads; the padded columns make the load
        // safe and the mask keeps pad quads out of the flag.
        let qvm = if q0 + 4 <= nq {
            0b1111
        } else {
            (1i32 << (nq - q0)) - 1
        };
        // SAFETY: quad columns are padded to a whole block window
        // (`nblocks * 4` summaries), so `q0 + 4` is in bounds.
        let qb = unsafe {
            let g = &plane.geom;
            inter4_avx2(
                &g.qx1, &g.qy1, &g.qx2, &g.qy2, &plane.qex, &plane.qey, q0, bc,
            )
        } & qvm;
        // A pruned quad skips only proven `+0.0` terms (quads are never
        // empty).
        *saw_pos_zero |= qb != qvm;
        let mut qbits = qb as u32;
        let mut tbuf = [0.0f64; 4];
        while qbits != 0 {
            let lane = qbits.trailing_zeros() as usize;
            qbits &= qbits - 1;
            let j = (q0 + lane) * super::QUAD;
            // Validity mask over the quad's members (the last real quad
            // may be ragged); pad lanes classify dead and are masked out
            // of the flag below.
            let vm = if j + 4 <= n {
                0b1111
            } else {
                (1i32 << (n - j)) - 1
            };
            // SAFETY: mirror columns are padded to a multiple of QUAD, so
            // `j + 4` is within them even on the ragged tail.
            let (live_bits, neg_bits, push_bits, posz_bits) = unsafe {
                let ex = _mm256_loadu_pd(plane.mex.as_ptr().add(j));
                let ey = _mm256_loadu_pd(plane.mey.as_ptr().add(j));
                let x1 = _mm256_loadu_pd(plane.geom.mx1.as_ptr().add(j));
                let x2 = _mm256_loadu_pd(plane.geom.mx2.as_ptr().add(j));
                let y1 = _mm256_loadu_pd(plane.geom.my1.as_ptr().add(j));
                let y2 = _mm256_loadu_pd(plane.geom.my2.as_ptr().add(j));
                let c = _mm256_loadu_pd(plane.mcount.as_ptr().add(j));
                let hw = _mm256_max_pd(_mm256_add_pd(bc.hw, ex), bc.zero);
                let hh = _mm256_max_pd(_mm256_add_pd(bc.hh, ey), bc.zero);
                let elx = _mm256_sub_pd(bc.cx, hw);
                let ehx = _mm256_add_pd(bc.cx, hw);
                let ely = _mm256_sub_pd(bc.cy, hh);
                let ehy = _mm256_add_pd(bc.cy, hh);
                let inter = _mm256_and_pd(
                    _mm256_and_pd(
                        _mm256_cmp_pd::<_CMP_LE_OQ>(elx, x2),
                        _mm256_cmp_pd::<_CMP_LE_OQ>(x1, ehx),
                    ),
                    _mm256_and_pd(
                        _mm256_cmp_pd::<_CMP_LE_OQ>(ely, y2),
                        _mm256_cmp_pd::<_CMP_LE_OQ>(y1, ehy),
                    ),
                );
                let ox = _mm256_max_pd(
                    _mm256_sub_pd(_mm256_min_pd(ehx, x2), _mm256_max_pd(elx, x1)),
                    bc.zero,
                );
                let oy = _mm256_max_pd(
                    _mm256_sub_pd(_mm256_min_pd(ehy, y2), _mm256_max_pd(ely, y1)),
                    bc.zero,
                );
                let w = _mm256_sub_pd(x2, x1);
                let h = _mm256_sub_pd(y2, y1);
                let wpos = _mm256_cmp_pd::<_CMP_GT_OQ>(w, bc.zero);
                let hpos = _mm256_cmp_pd::<_CMP_GT_OQ>(h, bc.zero);
                let live = _mm256_and_pd(
                    _mm256_and_pd(inter, _mm256_cmp_pd::<_CMP_NEQ_UQ>(c, bc.zero)),
                    _mm256_and_pd(
                        _mm256_or_pd(
                            _mm256_cmp_pd::<_CMP_LE_OQ>(w, bc.zero),
                            _mm256_cmp_pd::<_CMP_GT_OQ>(ox, bc.zero),
                        ),
                        _mm256_or_pd(
                            _mm256_cmp_pd::<_CMP_LE_OQ>(h, bc.zero),
                            _mm256_cmp_pd::<_CMP_GT_OQ>(oy, bc.zero),
                        ),
                    ),
                );
                let neg = _mm256_and_pd(inter, _mm256_cmp_pd::<_CMP_LT_OQ>(c, bc.zero));
                let live_bits = _mm256_movemask_pd(live);
                let (mut push_bits, mut posz_bits) = (0, 0);
                if live_bits != 0 {
                    // `(ox / w).clamp(0.0, 1.0)` with the scalar's exact
                    // semantics: compare-and-blend keeps a NaN quotient,
                    // and `w > 0` selects the division only where the
                    // scalar would take that branch.
                    let qx = _mm256_div_pd(ox, w);
                    let qx =
                        _mm256_blendv_pd(qx, bc.zero, _mm256_cmp_pd::<_CMP_LT_OQ>(qx, bc.zero));
                    let qx = _mm256_blendv_pd(qx, bc.one, _mm256_cmp_pd::<_CMP_GT_OQ>(qx, bc.one));
                    let fx = _mm256_blendv_pd(bc.one, qx, wpos);
                    let qy = _mm256_div_pd(oy, h);
                    let qy =
                        _mm256_blendv_pd(qy, bc.zero, _mm256_cmp_pd::<_CMP_LT_OQ>(qy, bc.zero));
                    let qy = _mm256_blendv_pd(qy, bc.one, _mm256_cmp_pd::<_CMP_GT_OQ>(qy, bc.one));
                    let fy = _mm256_blendv_pd(bc.one, qy, hpos);
                    // The reference's product order: `(c * fx) * fy`.
                    let t = _mm256_mul_pd(_mm256_mul_pd(c, fx), fy);
                    _mm256_storeu_pd(tbuf.as_mut_ptr(), t);
                    // `t != 0.0` is unordered-NEQ: a NaN term is pushed
                    // (EQ_OQ is false for NaN), matching the scalar. A
                    // live zero term was a `+0.0` iff its sign bit is
                    // clear — `movemask` reads exactly those bits.
                    let tz_bits = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(t, bc.zero));
                    push_bits = live_bits & !tz_bits;
                    posz_bits = live_bits & tz_bits & !_mm256_movemask_pd(t);
                }
                (live_bits, _mm256_movemask_pd(neg), push_bits, posz_bits)
            };
            // Dead lanes skip a `+0.0` term unless they are intersecting
            // negative-count buckets (module docs, step 3); live zero
            // terms contribute their computed sign. Pad lanes are masked
            // out — their skipped "terms" do not exist.
            *saw_pos_zero |= (((!live_bits & !neg_bits) | posz_bits) & vm) != 0;
            // Branchless scatter: every lane stores its term and ORs its
            // push bit into the mask, so the unpredictable push pattern
            // never feeds a branch. Non-push lanes OR a zero bit (a
            // no-op) and store to a slot the mask does not expose — each
            // bucket id is visited exactly once per query (the mirror is
            // a permutation), so the store cannot clobber a real term,
            // and pad lanes map to the buffer's spare slot.
            let pb = push_bits as u64;
            for (lane, &t) in tbuf.iter().enumerate() {
                // SAFETY: `morder` is padded to the mirror length, ids
                // are at most `n`, and the buffer holds `n + 1` value
                // slots plus a spare mask word (see `IndexScratch::reset`).
                unsafe {
                    let id = *plane.geom.morder.get_unchecked(j + lane) as usize;
                    *buf.vals.get_unchecked_mut(id) = t;
                    *buf.mask.get_unchecked_mut(id >> 6) |= ((pb >> lane) & 1) << (id & 63);
                }
            }
        }
    }

    /// AVX2 block-pruned scan: four coarse block tests per compare, a
    /// four-quad gate inside each surviving block, and the four member
    /// terms of each surviving quad at vector width
    /// ([`scan_block_avx2`]). The collected terms equal the scalar scan's
    /// bit for bit.
    ///
    /// # Safety
    ///
    /// The caller must ensure the running CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_pruned_avx2(
        plane: &BucketPlane,
        p: &QueryPrep,
        buf: &mut IndexScratch,
    ) -> f64 {
        buf.reset(plane.len());
        let nb = plane.len().div_ceil(super::BLOCK);
        let mut saw_pos_zero = false;
        let bc = QBcast {
            zero: _mm256_setzero_pd(),
            one: _mm256_set1_pd(1.0),
            cx: _mm256_set1_pd(p.cx),
            cy: _mm256_set1_pd(p.cy),
            hw: _mm256_set1_pd(p.hw),
            hh: _mm256_set1_pd(p.hh),
        };
        let mut b = 0usize;
        while b < nb {
            // Validity mask over real blocks in this coarse vector; the
            // padded block columns make the final load safe.
            let vm = if b + 4 <= nb {
                0b1111
            } else {
                (1i32 << (nb - b)) - 1
            };
            // SAFETY: block columns are padded to a multiple of four
            // summaries, so `b + 4` is in bounds even on the ragged tail.
            let bbits = unsafe {
                let g = &plane.geom;
                inter4_avx2(
                    &g.bx1, &g.by1, &g.bx2, &g.by2, &plane.bex, &plane.bey, b, &bc,
                )
            } & vm;
            // A pruned block skips only proven `+0.0` terms, and blocks
            // are never empty; pad blocks are masked out.
            saw_pos_zero |= bbits != vm;
            let mut ib = bbits as u32;
            while ib != 0 {
                let lane = ib.trailing_zeros() as usize;
                ib &= ib - 1;
                // SAFETY: same AVX2 witness as this function.
                unsafe {
                    scan_block_avx2(plane, b + lane, &bc, buf, &mut saw_pos_zero);
                }
            }
            b += 4;
        }
        plane.fold_masked(buf, saw_pos_zero)
    }

    /// SSE2 block-pruned scan, two blocks per coarse compare; the baseline
    /// twin of [`accumulate_pruned_avx2`].
    pub(super) fn accumulate_pruned_sse2(
        plane: &BucketPlane,
        p: &QueryPrep,
        buf: &mut IndexScratch,
    ) -> f64 {
        buf.reset(plane.len());
        let nb = plane.len().div_ceil(super::BLOCK);
        let mut saw_pos_zero = false;
        // SAFETY: SSE2 is statically available on every x86_64 target.
        unsafe {
            let zero = _mm_setzero_pd();
            let cx = _mm_set1_pd(p.cx);
            let cy = _mm_set1_pd(p.cy);
            let qhw = _mm_set1_pd(p.hw);
            let qhh = _mm_set1_pd(p.hh);
            let mut b = 0usize;
            while b + 2 <= nb {
                // SAFETY: all block columns have length `nb`, `b + 2 <= nb`.
                let bex = _mm_loadu_pd(plane.bex.as_ptr().add(b));
                let bey = _mm_loadu_pd(plane.bey.as_ptr().add(b));
                let bx1 = _mm_loadu_pd(plane.geom.bx1.as_ptr().add(b));
                let bx2 = _mm_loadu_pd(plane.geom.bx2.as_ptr().add(b));
                let by1 = _mm_loadu_pd(plane.geom.by1.as_ptr().add(b));
                let by2 = _mm_loadu_pd(plane.geom.by2.as_ptr().add(b));
                let hw = _mm_max_pd(_mm_add_pd(qhw, bex), zero);
                let hh = _mm_max_pd(_mm_add_pd(qhh, bey), zero);
                let elx = _mm_sub_pd(cx, hw);
                let ehx = _mm_add_pd(cx, hw);
                let ely = _mm_sub_pd(cy, hh);
                let ehy = _mm_add_pd(cy, hh);
                let inter = _mm_and_pd(
                    _mm_and_pd(_mm_cmple_pd(elx, bx2), _mm_cmple_pd(bx1, ehx)),
                    _mm_and_pd(_mm_cmple_pd(ely, by2), _mm_cmple_pd(by1, ehy)),
                );
                let inter_bits = _mm_movemask_pd(inter);
                saw_pos_zero |= inter_bits != 0b11;
                for lane in 0..2 {
                    if inter_bits & (1 << lane) != 0 {
                        plane.scan_block_scalar(b + lane, p, buf, &mut saw_pos_zero);
                    }
                }
                b += 2;
            }
            while b < nb {
                if plane.block_pruned(b, p) {
                    saw_pos_zero = true;
                } else {
                    plane.scan_block_scalar(b, p, buf, &mut saw_pos_zero);
                }
                b += 1;
            }
        }
        plane.fold_masked(buf, saw_pos_zero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minskew_geom::Point;

    fn reference(buckets: &[Bucket], rule: ExtensionRule, q: &Rect) -> f64 {
        let amounts: Vec<(f64, f64)> = buckets
            .iter()
            .map(|b| rule.amounts(b.avg_width, b.avg_height))
            .collect();
        buckets
            .iter()
            .zip(&amounts)
            .map(|(b, &(ex, ey))| b.estimate_with_extension(q, ex, ey))
            .sum()
    }

    fn bucket(x1: f64, y1: f64, x2: f64, y2: f64, count: f64, aw: f64, ah: f64) -> Bucket {
        Bucket {
            mbr: Rect::new(x1, y1, x2, y2),
            count,
            avg_width: aw,
            avg_height: ah,
        }
    }

    fn grid(side: usize) -> Vec<Bucket> {
        let mut out = Vec::new();
        for iy in 0..side {
            for ix in 0..side {
                let (x, y) = (ix as f64 * 10.0, iy as f64 * 10.0);
                out.push(bucket(
                    x,
                    y,
                    x + 10.0,
                    y + 10.0,
                    (ix * side + iy) as f64,
                    0.5,
                    1.5,
                ));
            }
        }
        out
    }

    fn queries() -> Vec<Rect> {
        vec![
            Rect::new(-500.0, -500.0, -400.0, -400.0),
            Rect::new(-10.0, -10.0, 200.0, 200.0),
            Rect::new(33.0, 41.0, 47.0, 55.0),
            Rect::new(9.9, 4.0, 10.1, 6.0),
            Rect::new(10.0, 0.0, 10.0, 80.0),
            Rect::from_point(Point::new(40.0, 40.0)),
            Rect::from_point(Point::new(-1.0, -1.0)),
            Rect::new(0.0, 0.0, 0.0, 80.0),
        ]
    }

    #[test]
    fn accumulate_matches_reference_bits() {
        for rule in [
            ExtensionRule::Minkowski,
            ExtensionRule::PaperLiteral,
            ExtensionRule::None,
        ] {
            for side in [1usize, 2, 3, 5, 8, 16] {
                let buckets = grid(side);
                let plane = BucketPlane::build(&buckets, rule);
                let mut scratch = IndexScratch::new();
                for q in queries() {
                    let p = QueryPrep::new(&q);
                    assert_eq!(
                        plane.accumulate_pruned(&p, &mut scratch).to_bits(),
                        reference(&buckets, rule, &q).to_bits(),
                        "rule={rule:?} side={side} q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn accumulate_matches_scalar_fold() {
        // Under `simd` this pins the vector scans against the scalar scan;
        // on default builds it is trivially true. Sizes straddle the
        // `2 * BLOCK` dispatch cut, and 33 and 49 end in a ragged quad and
        // block.
        let buckets = grid(7);
        let mut scratch = IndexScratch::new();
        for n in [31usize, 32, 33, 49] {
            for rule in [
                ExtensionRule::Minkowski,
                ExtensionRule::PaperLiteral,
                ExtensionRule::None,
            ] {
                let plane = BucketPlane::build(&buckets[..n], rule);
                for q in queries() {
                    let p = QueryPrep::new(&q);
                    let want = plane.accumulate_pruned_scalar(&p, &mut scratch).to_bits();
                    assert_eq!(
                        plane.accumulate_pruned(&p, &mut scratch).to_bits(),
                        want,
                        "n={n} rule={rule:?} q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_and_adversarial_buckets_match_reference() {
        // Zero counts, a -0.0 count, point/segment MBRs, NaN extension
        // amounts, negative counts (unreachable via builders but handled),
        // and tiny counts that can underflow the product.
        let buckets = [
            bucket(0.0, 0.0, 10.0, 10.0, 0.0, 1.0, 1.0),
            Bucket {
                mbr: Rect::new(0.0, 0.0, 4.0, 4.0),
                count: -0.0,
                avg_width: 1.0,
                avg_height: 1.0,
            },
            bucket(5.0, 0.0, 5.0, 10.0, 40.0, 0.0, 0.0),
            Bucket {
                mbr: Rect::from_point(Point::new(1.0, 1.0)),
                count: 7.0,
                avg_width: 0.0,
                avg_height: 0.0,
            },
            Bucket {
                mbr: Rect::new(2.0, 2.0, 8.0, 8.0),
                count: 9.0,
                avg_width: f64::NAN,
                avg_height: 1.0,
            },
            Bucket {
                mbr: Rect::new(0.0, 0.0, 1.0, 1.0),
                count: -3.0,
                avg_width: 0.1,
                avg_height: 0.1,
            },
            bucket(0.0, 0.0, 1e300, 1e300, 5e-324, 0.0, 0.0),
        ];
        // Repeat the set to 35 buckets, past the `2 * BLOCK` SIMD dispatch
        // cut with a ragged last quad and block, so the vector scans see
        // the adversarial lanes too.
        let buckets: Vec<Bucket> = buckets.iter().cycle().take(35).copied().collect();
        for rule in [
            ExtensionRule::Minkowski,
            ExtensionRule::PaperLiteral,
            ExtensionRule::None,
        ] {
            let plane = BucketPlane::build(&buckets, rule);
            for q in [
                Rect::new(0.0, 0.0, 10.0, 10.0),
                Rect::new(100.0, 100.0, 110.0, 110.0),
                Rect::new(4.0, 0.0, 6.0, 3.0),
                Rect::new(6.0, 0.0, 8.0, 10.0),
                Rect::from_point(Point::new(5.0, 5.0)),
                Rect::new(1.0, 1.0, 1.0, 1.0),
                Rect::new(10.0, 0.0, 12.0, 10.0),
            ] {
                let p = QueryPrep::new(&q);
                let want = reference(&buckets, rule, &q);
                let mut scratch = IndexScratch::new();
                let got = plane.accumulate_pruned(&p, &mut scratch);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "rule={rule:?} q={q} got={got} want={want}"
                );
            }
        }
    }

    #[test]
    fn empty_plane_returns_fold_identity() {
        let plane = BucketPlane::build(&[], ExtensionRule::Minkowski);
        let p = QueryPrep::new(&Rect::new(0.0, 0.0, 1.0, 1.0));
        // The reference fold over zero terms is Rust's `-0.0` identity.
        assert_eq!(
            plane
                .accumulate_pruned(&p, &mut IndexScratch::new())
                .to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn morton_mirror_is_a_permutation_with_consistent_blocks() {
        let buckets = grid(7); // 49 buckets: a ragged final block and quad
        let n = buckets.len();
        let plane = BucketPlane::build(&buckets, ExtensionRule::Minkowski);
        let mut seen = vec![false; n];
        for &id in &plane.geom.morder[..n] {
            assert!(!std::mem::replace(&mut seen[id as usize], true));
        }
        assert!(seen.iter().all(|&s| s));
        // Pads: sentinel ids out to a whole quad, block summaries out to
        // a whole coarse vector.
        assert_eq!(plane.geom.morder.len(), n.next_multiple_of(4));
        assert!(plane.geom.morder[n..].iter().all(|&id| id as usize == n));
        assert_eq!(plane.geom.bx1.len(), n.div_ceil(16));
        for (j, &id) in plane.geom.morder[..n].iter().enumerate() {
            let b = j / 16;
            let m = &buckets[id as usize].mbr;
            assert!(plane.geom.bx1[b] <= m.lo.x && m.hi.x <= plane.geom.bx2[b]);
            assert!(plane.geom.by1[b] <= m.lo.y && m.hi.y <= plane.geom.by2[b]);
            assert!(plane.bex[b] >= plane.mex[j] && plane.bey[b] >= plane.mey[j]);
        }
    }

    #[test]
    fn size_bytes_counts_all_columns() {
        // 16 buckets: 7 mirror f64 columns, one u32 id column, one block
        // summary padded to a coarse vector of four, and four quad
        // summaries (6 f64 each).
        let plane = BucketPlane::build(&grid(4), ExtensionRule::Minkowski);
        assert_eq!(
            plane.size_bytes(),
            16 * 7 * 8 + 16 * 4 + 4 * 6 * 8 + 4 * 6 * 8
        );
    }

    #[test]
    fn weights_over_a_kept_geometry_match_a_fresh_build() {
        // Counts and average sizes move, the MBRs stay: weights rebuilt
        // over the old geometry must equal a full build column for column
        // (49 buckets: ragged final block and quad; NaN and zero sizes).
        let mut buckets = grid(7);
        let geom = PlaneGeometry::build(&buckets);
        for (i, b) in buckets.iter_mut().enumerate() {
            b.count = if i % 5 == 0 {
                0.0
            } else {
                b.count * 1.5 + 0.25
            };
            b.avg_width = if i % 11 == 0 {
                f64::NAN
            } else {
                i as f64 * 0.3
            };
            b.avg_height = (i % 3) as f64;
        }
        for rule in [
            ExtensionRule::Minkowski,
            ExtensionRule::PaperLiteral,
            ExtensionRule::None,
        ] {
            let kept = BucketPlane::with_geometry(geom.clone(), &buckets, rule);
            assert_eq!(
                kept.column_bits(),
                BucketPlane::build(&buckets, rule).column_bits(),
                "rule={rule:?}"
            );
        }
    }
}
