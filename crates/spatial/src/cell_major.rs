//! Cell-major columnar point storage — the hot-path layout of the native
//! engine.
//!
//! [`crate::Grid`] keeps one heap-allocated id list per cell behind a hash
//! map, so every neighbor-cell visit in the core-point and outlier phases
//! costs a hash probe plus a pointer chase into a scattered allocation.
//! [`CellMajorStore`] instead *permutes* the points once so that each
//! cell's points occupy one contiguous run of a single columnar buffer:
//!
//! * coordinates are stored column-major (`col(k)[slot]` is dimension `k`
//!   of the point in `slot`), so a distance scan over a cell streams
//!   `d` dense `f64` slices instead of hopping between point rows;
//! * cells are sorted by [`CellCoord`], each described by a
//!   [`CellRecord`] `(coord, start..end)` — neighbor cells of a query
//!   cell tend to be nearby in the record table and in the buffer;
//! * `orig_ids` maps a slot back to the [`PointId`] of the source
//!   [`PointStore`], so per-point labels can be scattered back;
//! * every cell carries the tight bounding box of its *actual* points
//!   (tighter than the ε-cell box), enabling the pruned kernels below to
//!   skip whole cells whose contents provably cannot lie within ε.
//!
//! The layout is canonical for a given dataset and ε: cells ascend in
//! `CellCoord` order and slots within a cell ascend in original id, so
//! any two builds — whatever the thread count — produce byte-identical
//! buffers. Exactness of the pruning rests on two invariants that the
//! property tests pin:
//!
//! 1. **bbox containment** — every point of a cell lies inside the cell's
//!    stored bounding box, so `min_sq_dist_to_bbox(q, c) > ε²` implies no
//!    point of `c` is within ε of `q` (closed-ball semantics keep the
//!    `= ε²` case);
//! 2. **prune soundness** — a cell skipped by the bbox-to-bbox test can
//!    contain no point within ε of *any* point of the query cell, because
//!    box-to-box minimum distance lower-bounds every point pair.

use std::ops::Range;

use crate::cell::{cell_side, checked_cell_of, CellCoord, CellHashMap, MAX_DIMS};
use crate::distance::{
    accumulate_sq_dists_x4, sq_dists_2d_x8, sq_dists_3d_x4, KernelKind, LANES_2D, LANES_ND,
};
use crate::error::SpatialError;
use crate::neighbors::NeighborOffsets;
use crate::points::{PointId, PointStore};

/// One cell of a [`CellMajorStore`]: its coordinate and the slot range
/// its points occupy in the columnar buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRecord {
    /// The ε-cell coordinate.
    pub coord: CellCoord,
    /// First slot of the cell's run (inclusive).
    pub start: u32,
    /// One past the last slot of the cell's run.
    pub end: u32,
}

impl CellRecord {
    /// The slot range of this cell.
    #[inline]
    pub fn range(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    /// Number of points in this cell.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the cell is empty (never true for stored records).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Cell-contiguous columnar storage for one dataset and one ε.
///
/// Fields are `pub(crate)` so [`crate::mutable::MutableCellMajor`] can
/// maintain a slack-slot variant of the same layout in place; outside
/// this crate the store is immutable.
#[derive(Debug, Clone)]
pub struct CellMajorStore {
    pub(crate) dims: usize,
    pub(crate) eps: f64,
    pub(crate) side: f64,
    /// Slot count — the column stride. For a store built by
    /// [`CellMajorStore::build`] this equals the point count; a mutable
    /// wrapper may hold spare (non-live) slots, in which case only the
    /// slots inside some [`CellRecord`] run are meaningful.
    pub(crate) n: usize,
    /// Column-major coordinates: dimension `k` of slot `j` lives at
    /// `cols[k * n + j]`.
    pub(crate) cols: Vec<f64>,
    /// Slot → original [`PointId`] (a permutation of `0..n` for a batch
    /// build; spare slots of a mutable layout hold `PointId::MAX`).
    pub(crate) orig_ids: Vec<PointId>,
    /// Non-empty cells, ascending by coordinate (batch builds; a mutable
    /// layout may append cells out of order).
    pub(crate) cells: Vec<CellRecord>,
    /// Cell coordinate → index into `cells`.
    pub(crate) index: CellHashMap<u32>,
    /// Tight per-cell bounding boxes: cell `c`'s box spans
    /// `bbox_min[c*dims..(c+1)*dims]` .. `bbox_max[..]`.
    pub(crate) bbox_min: Vec<f64>,
    pub(crate) bbox_max: Vec<f64>,
}

/// Pass 1 of the two-pass streaming build: tallies how many points fall
/// in each ε-cell. Feed every batch of the stream through
/// [`CellMajorBuilder::count_batch`], then call
/// [`CellMajorBuilder::begin_scatter`] and replay the stream into the
/// resulting [`CellMajorScatter`].
///
/// The two passes are a counting sort by cell: pass 1 sizes the
/// cell-contiguous runs, pass 2 places each point directly into its
/// final slot. Because points are replayed in id order and each cell's
/// cursor advances monotonically, slots within a cell ascend in original
/// id — the exact canonical layout [`CellMajorStore::build`] defines —
/// while peak memory is the finished layout plus one batch, never the
/// whole raw input plus a sort buffer.
#[derive(Debug)]
pub struct CellMajorBuilder {
    dims: usize,
    eps: f64,
    side: f64,
    n: usize,
    counts: CellHashMap<u32>,
}

impl CellMajorBuilder {
    /// Starts a streaming build for `dims`-dimensional points at radius
    /// `eps`.
    ///
    /// # Errors
    ///
    /// Fails if `eps` is not finite and positive, `dims` is zero, or
    /// `dims` exceeds [`MAX_DIMS`].
    pub fn new(dims: usize, eps: f64) -> Result<Self, SpatialError> {
        if !eps.is_finite() || eps <= 0.0 {
            return Err(SpatialError::InvalidEpsilon { value: eps });
        }
        if dims == 0 {
            return Err(SpatialError::ZeroDims);
        }
        if dims > MAX_DIMS {
            return Err(SpatialError::TooManyDims { requested: dims });
        }
        Ok(Self {
            dims,
            eps,
            side: cell_side(eps, dims),
            n: 0,
            counts: CellHashMap::default(),
        })
    }

    /// Number of points counted so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no points have been counted yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of distinct non-empty ε-cells counted so far.
    pub fn num_cells(&self) -> usize {
        self.counts.len()
    }

    /// Per-cell point counts in the canonical cell-table order (records
    /// ascending by cell coordinate) — exactly the order
    /// [`Self::begin_scatter`] lays the cells out in, so a driver can
    /// plan per-cell shards from pass 1 alone, before (or without) ever
    /// running the scatter pass itself.
    pub fn cell_counts_sorted(&self) -> Vec<u32> {
        let mut keyed: Vec<(CellCoord, u32)> = Vec::with_capacity(self.counts.len());
        // xlint: ordered -- entries are sorted by coordinate just below
        keyed.extend(self.counts.iter().map(|(&coord, &k)| (coord, k)));
        keyed.sort_unstable_by_key(|&(coord, _)| coord);
        keyed.into_iter().map(|(_, k)| k).collect()
    }

    /// Tallies one flat row-major batch (`len * dims` coordinates) into
    /// the per-cell counts. Coordinates are validated here — the batch
    /// must be a whole number of points and every value finite — so the
    /// scatter pass can trust the replayed stream.
    pub fn count_batch(&mut self, coords: &[f64]) -> Result<(), SpatialError> {
        let counts = &mut self.counts;
        for_each_cell(coords, self.dims, self.side, self.n, |_, _, cell| {
            *counts.entry(cell).or_insert(0) += 1;
            Ok(())
        })?;
        self.n += coords.len() / self.dims;
        Ok(())
    }

    /// Folds another pass-1 tally into this one. Cell counts are sums, so
    /// the merge is order-insensitive: counting batch shards on separate
    /// workers and merging yields exactly the tally of one sequential
    /// pass, whatever the shard split — the count half of the parallel
    /// two-pass build.
    ///
    /// # Errors
    ///
    /// Fails with [`SpatialError::DimensionMismatch`] when the builders
    /// disagree on dimensionality, or [`SpatialError::StreamMismatch`]
    /// when they were configured with different ε (their cell tilings are
    /// incompatible).
    pub fn merge(&mut self, other: CellMajorBuilder) -> Result<(), SpatialError> {
        if other.dims != self.dims {
            return Err(SpatialError::DimensionMismatch {
                expected: self.dims,
                got: other.dims,
            });
        }
        if other.eps.to_bits() != self.eps.to_bits() {
            return Err(SpatialError::StreamMismatch);
        }
        // xlint: ordered -- additive merge into a map is order-insensitive
        for (coord, k) in other.counts {
            *self.counts.entry(coord).or_insert(0) += k;
        }
        self.n += other.n;
        Ok(())
    }

    /// Finishes pass 1: lays out the cell table (records ascending by
    /// coordinate, prefix-summed slot ranges) and allocates the columnar
    /// buffers at their final size, returning the pass-2 scatter state.
    pub fn begin_scatter(self) -> CellMajorScatter {
        let Self {
            dims,
            eps,
            side,
            n,
            counts,
        } = self;
        // xlint: ordered -- drained entries are sorted by coordinate just below
        let mut keyed: Vec<(CellCoord, u32)> = counts.into_iter().collect();
        keyed.sort_unstable_by_key(|&(coord, _)| coord);
        let mut cells = Vec::with_capacity(keyed.len());
        let mut cursors = Vec::with_capacity(keyed.len());
        let mut next = 0u32;
        for (coord, count) in keyed {
            cells.push(CellRecord {
                coord,
                start: next,
                end: next + count,
            });
            cursors.push(next);
            next += count;
        }
        let index = cells
            .iter()
            .enumerate()
            .map(|(i, c)| (c.coord, i as u32))
            .collect();
        CellMajorScatter {
            dims,
            eps,
            side,
            n,
            cols: vec![0.0f64; n * dims],
            orig_ids: vec![0; n],
            cells,
            index,
            cursors,
            filled: 0,
        }
    }
}

/// Pass 2 of the two-pass streaming build: scatters the replayed stream
/// into the cell-contiguous columns sized by [`CellMajorBuilder`].
///
/// Pass 2 only places points: each point's cell is hashed once, its
/// coordinates and id land in the next slot of that cell's run, and the
/// per-cell bounding boxes are computed afterwards in [`Self::finish`]
/// by one sweep over each finished run.
///
/// Any disagreement with pass 1 — a point landing in a cell that was
/// never counted, a cell receiving more points than counted, or the
/// stream ending short — yields [`SpatialError::StreamMismatch`] instead
/// of a corrupt layout.
#[derive(Debug)]
pub struct CellMajorScatter {
    dims: usize,
    eps: f64,
    side: f64,
    n: usize,
    cols: Vec<f64>,
    orig_ids: Vec<PointId>,
    cells: Vec<CellRecord>,
    index: CellHashMap<u32>,
    cursors: Vec<u32>,
    filled: usize,
}

impl CellMajorScatter {
    /// Places one flat row-major batch into the layout. Points are
    /// assigned ids by arrival order across the whole pass, so the
    /// stream must replay in the same order as the counting pass.
    pub fn scatter_batch(&mut self, coords: &[f64]) -> Result<(), SpatialError> {
        let Self {
            dims,
            side,
            n,
            cols,
            orig_ids,
            cells,
            index,
            cursors,
            filled,
            ..
        } = self;
        for_each_cell(coords, *dims, *side, *filled, |id, p, cell| {
            let ci = *index.get(&cell).ok_or(SpatialError::StreamMismatch)? as usize;
            let end = cells.get(ci).ok_or(SpatialError::StreamMismatch)?.end;
            let cursor = cursors.get_mut(ci).ok_or(SpatialError::StreamMismatch)?;
            if *cursor >= end {
                return Err(SpatialError::StreamMismatch);
            }
            let slot = *cursor as usize;
            *cursor += 1;
            for (k, &x) in p.iter().enumerate() {
                if let Some(out) = cols.get_mut(k * *n + slot) {
                    *out = x;
                }
            }
            if let Some(out) = orig_ids.get_mut(slot) {
                *out = id as PointId;
            }
            *filled = id + 1;
            Ok(())
        })
    }

    /// Number of points scattered so far.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Carves the scatter pass into `parts` independent shards, each
    /// owning a disjoint contiguous range of cells (and therefore a
    /// disjoint contiguous slot range of every output buffer). Shard
    /// boundaries are balanced by slot count, never splitting a cell.
    ///
    /// The returned [`CellLocator`] resolves each point of a batch to its
    /// cell index once; every shard then consumes those indices through
    /// [`ScatterShard::place_batch`], seeing every batch in counting-pass
    /// order and writing only the points of its own cells. Because a
    /// point's final slot is a pure function of its `(cell, arrival id)`
    /// — independent of which shard writes it — the assembled store is
    /// byte-identical to a sequential scatter for any `parts`. Finish
    /// with [`Self::finish_sharded`] after dropping the shards.
    ///
    /// Fewer than `parts` shards are returned when the store has fewer
    /// cells than `parts`; zero shards for an empty layout.
    pub fn shards(&mut self, parts: usize) -> (CellLocator<'_>, Vec<ScatterShard<'_>>) {
        let locator = CellLocator {
            dims: self.dims,
            side: self.side,
            index: &self.index,
        };
        if self.cells.is_empty() {
            return (locator, Vec::new());
        }
        // Greedy slot-balanced cell boundaries: cut after a cell once the
        // shard holds its fair share of slots.
        let parts = parts.max(1).min(self.cells.len());
        let mut cell_bounds: Vec<usize> = Vec::with_capacity(parts - 1);
        if parts > 1 {
            let target = (self.n as f64 / parts as f64).max(1.0);
            let mut next_cut = target;
            for (ci, rec) in self.cells.iter().enumerate().take(self.cells.len() - 1) {
                if f64::from(rec.end) >= next_cut && cell_bounds.len() + 1 < parts {
                    cell_bounds.push(ci + 1);
                    next_cut = (cell_bounds.len() + 1) as f64 * target;
                }
            }
        }
        let slot_cuts: Vec<usize> = cell_bounds
            .iter()
            .map(|&ci| self.cells.get(ci).map_or(self.n, |r| r.start as usize))
            .collect();

        // Split each coordinate column at the slot cuts; regroup the
        // per-dimension pieces into per-shard column sets below.
        let mut cols: Vec<std::vec::IntoIter<&mut [f64]>> = self
            .cols
            .chunks_mut(self.n.max(1))
            .take(self.dims)
            .map(|col| split_at_cuts(col, &slot_cuts).into_iter())
            .collect();
        let id_pieces = split_at_cuts(self.orig_ids.as_mut_slice(), &slot_cuts);
        let cursor_pieces = split_at_cuts(self.cursors.as_mut_slice(), &cell_bounds);

        let mut shards = Vec::with_capacity(parts);
        let mut cell_start = 0usize;
        let mut slot_start = 0usize;
        for (i, (orig_ids, cursors)) in id_pieces.into_iter().zip(cursor_pieces).enumerate() {
            let cell_end = cell_bounds.get(i).copied().unwrap_or(self.cells.len());
            let slot_end = slot_start + orig_ids.len();
            shards.push(ScatterShard {
                dims: self.dims,
                cell_range: cell_start as u32..cell_end as u32,
                slot_start,
                cells: &self.cells,
                cols: cols.iter_mut().filter_map(Iterator::next).collect(),
                orig_ids,
                cursors,
                seen: 0,
                filled: 0,
            });
            cell_start = cell_end;
            slot_start = slot_end;
        }
        (locator, shards)
    }

    /// Completes a sharded scatter pass. Instead of the sequential
    /// `filled == n` check (shards tally their own fills), this validates
    /// that every cell's cursor reached the end of its slot run — the
    /// cursors are the per-cell proof that each shard placed exactly the
    /// points pass 1 counted.
    pub fn finish_sharded(mut self) -> Result<CellMajorStore, SpatialError> {
        for (cursor, rec) in self.cursors.iter().zip(&self.cells) {
            if *cursor != rec.end {
                return Err(SpatialError::StreamMismatch);
            }
        }
        self.filled = self.n;
        self.finish()
    }

    /// Completes the build: checks that the replay delivered every
    /// counted point, then computes the tight per-cell bounding boxes.
    /// Fails with [`SpatialError::StreamMismatch`] when the replay
    /// delivered fewer points than the counting pass.
    pub fn finish(self) -> Result<CellMajorStore, SpatialError> {
        if self.filled != self.n {
            return Err(SpatialError::StreamMismatch);
        }
        let (bbox_min, bbox_max) = tight_bboxes(&self.cols, self.n, self.dims, &self.cells);
        Ok(CellMajorStore {
            dims: self.dims,
            eps: self.eps,
            side: self.side,
            n: self.n,
            cols: self.cols,
            orig_ids: self.orig_ids,
            cells: self.cells,
            index: self.index,
            bbox_min,
            bbox_max,
        })
    }
}

/// Tight bounding boxes of every cell's run `cells[c].range()` in the
/// column-major buffer `cols` (stride `n`), as `(bbox_min, bbox_max)`
/// with `dims` entries per cell. Each run is swept in slot order —
/// ascending arrival id — seeding the box with the first point, so the
/// boxes are bit-for-bit those of folding the points in one at a time,
/// signed zeros included. An empty run leaves its box at zero.
pub(crate) fn tight_bboxes(
    cols: &[f64],
    n: usize,
    dims: usize,
    cells: &[CellRecord],
) -> (Vec<f64>, Vec<f64>) {
    let mut bbox_min = vec![0.0f64; cells.len() * dims];
    let mut bbox_max = vec![0.0f64; cells.len() * dims];
    for k in 0..dims {
        let col = cols.get(k * n..(k + 1) * n).unwrap_or(&[]);
        for (ci, rec) in cells.iter().enumerate() {
            let Some((&first, rest)) = col.get(rec.range()).and_then(<[f64]>::split_first) else {
                continue;
            };
            let (mut mn, mut mx) = (first, first);
            for &x in rest {
                mn = mn.min(x);
                mx = mx.max(x);
            }
            if let Some(out) = bbox_min.get_mut(ci * dims + k) {
                *out = mn;
            }
            if let Some(out) = bbox_max.get_mut(ci * dims + k) {
                *out = mx;
            }
        }
    }
    (bbox_min, bbox_max)
}

/// Fails unless `coords` holds a whole number of `dims`-dimensional
/// points.
fn check_whole_points(coords: &[f64], dims: usize) -> Result<(), SpatialError> {
    if coords.len().is_multiple_of(dims) {
        Ok(())
    } else {
        Err(SpatialError::DimensionMismatch {
            expected: dims,
            got: coords.len() % dims,
        })
    }
}

/// Validates one flat row-major batch and calls `f(id, point, cell)` for
/// each point in order, `id` counting up from `first_id`.
///
/// # Errors
///
/// [`SpatialError::DimensionMismatch`] for a partial point,
/// [`SpatialError::NonFiniteCoordinate`] for a NaN or infinite
/// coordinate, [`SpatialError::CoordinateOutOfRange`] for one beyond the
/// exact cell range, or the first error `f` returns.
#[inline(always)]
fn for_each_cell(
    coords: &[f64],
    dims: usize,
    side: f64,
    first_id: usize,
    f: impl FnMut(usize, &[f64], CellCoord) -> Result<(), SpatialError>,
) -> Result<(), SpatialError> {
    check_whole_points(coords, dims)?;
    // A constant point length for d = 2 and d = 3 lets the compiler
    // unroll the cell computation and its hash. On a 2-core host it took
    // the one-thread streaming build of 2M 2-D points from 0.30 s to 0.20 s.
    match dims {
        2 => for_each_cell_of(coords, 2, side, first_id, f),
        3 => for_each_cell_of(coords, 3, side, first_id, f),
        _ => for_each_cell_of(coords, dims, side, first_id, f),
    }
}

/// The loop of [`for_each_cell`] over points of length `dims`.
#[inline(always)]
fn for_each_cell_of(
    coords: &[f64],
    dims: usize,
    side: f64,
    first_id: usize,
    mut f: impl FnMut(usize, &[f64], CellCoord) -> Result<(), SpatialError>,
) -> Result<(), SpatialError> {
    for (i, p) in coords.chunks_exact(dims).enumerate() {
        let id = first_id + i;
        f(id, p, checked_cell_of(p, side, id)?)?;
    }
    Ok(())
}

/// Splits `buf` at the given ascending absolute offsets, yielding
/// `cuts.len() + 1` contiguous exclusive pieces that cover it. Offsets
/// are clamped to the buffer, so malformed cuts shift coverage rather
/// than panic (the callers derive cuts from the cell table, which keeps
/// them consistent by construction).
fn split_at_cuts<'a, T>(mut buf: &'a mut [T], cuts: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(cuts.len() + 1);
    let mut prev = 0usize;
    for &cut in cuts {
        let mid = cut.saturating_sub(prev).min(buf.len());
        let (head, tail) = buf.split_at_mut(mid);
        out.push(head);
        buf = tail;
        prev = cut;
    }
    out.push(buf);
    out
}

/// Resolves points to their cell indices in a sharded scatter pass — the
/// one hash lookup per point that every [`ScatterShard`] then shares.
/// `Copy` and read-only, so a caller can resolve several batches of a
/// group on separate threads at once.
#[derive(Debug, Clone, Copy)]
pub struct CellLocator<'a> {
    dims: usize,
    side: f64,
    index: &'a CellHashMap<u32>,
}

impl CellLocator<'_> {
    /// Dimensionality of the points it locates.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Replaces `out` with the cell index of every point of one flat
    /// row-major batch whose first point has arrival id `first_id`. On
    /// failure `out` holds the indices of the points before the failing
    /// one.
    ///
    /// # Errors
    ///
    /// [`SpatialError::DimensionMismatch`] for a partial point,
    /// [`SpatialError::NonFiniteCoordinate`] for a NaN or infinite
    /// coordinate, [`SpatialError::CoordinateOutOfRange`] for one beyond
    /// the exact cell range, and [`SpatialError::StreamMismatch`] for a
    /// point in a cell pass 1 never counted.
    pub fn locate_batch(
        &self,
        coords: &[f64],
        first_id: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), SpatialError> {
        out.clear();
        out.reserve(coords.len() / self.dims);
        let index = self.index;
        for_each_cell(coords, self.dims, self.side, first_id, |_, _, cell| {
            out.push(*index.get(&cell).ok_or(SpatialError::StreamMismatch)?);
            Ok(())
        })
    }
}

/// One worker's slice of a partitioned scatter pass: a contiguous range
/// of cells plus exclusive `&mut` views of exactly the output buffer
/// segments those cells own. Produced by [`CellMajorScatter::shards`];
/// shards are `Send`, so a driver can run one per thread with no locks —
/// the cell ranges are disjoint, so there is nothing to contend on.
#[derive(Debug)]
pub struct ScatterShard<'a> {
    dims: usize,
    /// The cells this shard owns, as indices into the full table.
    cell_range: Range<u32>,
    /// First slot of the shard's buffer segments (`cells[cell_range.start].start`).
    slot_start: usize,
    /// The full cell table (shared, read-only).
    cells: &'a [CellRecord],
    /// Per-dimension column segments covering the shard's slots.
    cols: Vec<&'a mut [f64]>,
    orig_ids: &'a mut [PointId],
    /// Cursors of the owned cells (absolute slot values).
    cursors: &'a mut [u32],
    /// Points seen across the replay (the global arrival-id counter).
    seen: usize,
    /// Points this shard placed.
    filled: usize,
}

impl ScatterShard<'_> {
    /// The cell indices this shard owns.
    pub fn cell_range(&self) -> Range<usize> {
        self.cell_range.start as usize..self.cell_range.end as usize
    }

    /// Number of points this shard has placed so far.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Places the points of one batch that fall in this shard's cells,
    /// given the batch's cell indices from [`CellLocator::locate_batch`].
    /// Every shard must see every batch, in counting-pass order; points
    /// outside the shard's cell range only advance the arrival-id cursor.
    ///
    /// # Errors
    ///
    /// [`SpatialError::DimensionMismatch`] for a partial point, and
    /// [`SpatialError::StreamMismatch`] when `cells` does not hold one
    /// index per point or a cell receives more points than pass 1
    /// counted.
    pub fn place_batch(&mut self, coords: &[f64], cells: &[u32]) -> Result<(), SpatialError> {
        check_whole_points(coords, self.dims)?;
        if cells.len() * self.dims != coords.len() {
            return Err(SpatialError::StreamMismatch);
        }
        let first_id = self.seen;
        self.seen += cells.len();
        for (i, (p, &ci)) in coords.chunks_exact(self.dims).zip(cells).enumerate() {
            if !self.cell_range.contains(&ci) {
                continue;
            }
            let end = self
                .cells
                .get(ci as usize)
                .ok_or(SpatialError::StreamMismatch)?
                .end;
            let cursor = self
                .cursors
                .get_mut((ci - self.cell_range.start) as usize)
                .ok_or(SpatialError::StreamMismatch)?;
            if *cursor >= end {
                return Err(SpatialError::StreamMismatch);
            }
            let local_slot = *cursor as usize - self.slot_start;
            *cursor += 1;
            for (col, &x) in self.cols.iter_mut().zip(p) {
                if let Some(out) = col.get_mut(local_slot) {
                    *out = x;
                }
            }
            if let Some(out) = self.orig_ids.get_mut(local_slot) {
                *out = (first_id + i) as PointId;
            }
            self.filled += 1;
        }
        Ok(())
    }
}

impl CellMajorStore {
    /// Permutes `store` into cell-major layout for radius `eps`
    /// (paper Algorithm 1 plus the physical reorder).
    ///
    /// This is the materialized entry point over the two-pass streaming
    /// builder ([`CellMajorBuilder`] → [`CellMajorScatter`]) with the
    /// whole store as one batch, so the streaming and in-memory paths
    /// produce identical layouts by construction. The layout is fully
    /// determined by `(cell, id)` and therefore identical for any thread
    /// count: cells ascend by coordinate, slots within a cell ascend by
    /// original id.
    ///
    /// # Errors
    ///
    /// Fails if `eps` is not finite and positive.
    pub fn build(store: &PointStore, eps: f64) -> Result<Self, SpatialError> {
        let mut builder = CellMajorBuilder::new(store.dims(), eps)?;
        builder.count_batch(store.flat())?;
        let mut scatter = builder.begin_scatter();
        scatter.scatter_batch(store.flat())?;
        scatter.finish()
    }

    /// Dimensionality of the stored points.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The ε this store was built with.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Cell side length `l = ε/√d`.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the store holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of non-empty cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// The cell records, ascending by coordinate.
    pub fn cells(&self) -> &[CellRecord] {
        &self.cells
    }

    /// The record of cell `idx`, if in range.
    pub fn cell(&self, idx: usize) -> Option<&CellRecord> {
        self.cells.get(idx)
    }

    /// Index of the cell with coordinate `coord`, if non-empty.
    pub fn cell_index(&self, coord: &CellCoord) -> Option<u32> {
        self.index.get(coord).copied()
    }

    /// Slot → original point id permutation.
    pub fn orig_ids(&self) -> &[PointId] {
        &self.orig_ids
    }

    /// One coordinate column: dimension `k` of every slot, cell-major.
    pub fn col(&self, k: usize) -> &[f64] {
        self.cols.get(k * self.n..(k + 1) * self.n).unwrap_or(&[])
    }

    /// Copies the coordinates of `slot` into `out` (first `dims`
    /// entries); a gather across the columns.
    #[inline]
    pub fn point_into(&self, slot: usize, out: &mut [f64; MAX_DIMS]) {
        for (k, o) in out.iter_mut().take(self.dims).enumerate() {
            *o = self.cols.get(k * self.n + slot).copied().unwrap_or(0.0);
        }
    }

    /// Squared minimum distance from `q` to the tight bounding box of
    /// cell `idx` (0 when `q` lies inside). Lower-bounds the distance
    /// from `q` to every point of the cell — the per-point prune.
    #[inline]
    pub fn min_sq_dist_to_bbox(&self, q: &[f64], idx: usize) -> f64 {
        let base = idx * self.dims;
        let mut acc = 0.0;
        for (k, &x) in q.iter().enumerate().take(self.dims) {
            let lo = self.bbox_min.get(base + k).copied().unwrap_or(x);
            let hi = self.bbox_max.get(base + k).copied().unwrap_or(x);
            let gap = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                0.0
            };
            acc += gap * gap;
        }
        acc
    }

    /// Squared minimum distance between the tight bounding boxes of
    /// cells `a` and `b`. Lower-bounds every point pair across the two
    /// cells — the per-cell prune.
    #[inline]
    pub fn min_sq_dist_between_bboxes(&self, a: usize, b: usize) -> f64 {
        let (ab, bb) = (a * self.dims, b * self.dims);
        let mut acc = 0.0;
        for k in 0..self.dims {
            let alo = self.bbox_min.get(ab + k).copied().unwrap_or(0.0);
            let ahi = self.bbox_max.get(ab + k).copied().unwrap_or(0.0);
            let blo = self.bbox_min.get(bb + k).copied().unwrap_or(0.0);
            let bhi = self.bbox_max.get(bb + k).copied().unwrap_or(0.0);
            let gap = if ahi < blo {
                blo - ahi
            } else if bhi < alo {
                alo - bhi
            } else {
                0.0
            };
            acc += gap * gap;
        }
        acc
    }

    /// Resolves the non-empty neighbor cells of cell `idx` into `out`
    /// (cleared first), as indices into [`Self::cells`]. With
    /// `prune_eps_sq = Some(ε²)`, neighbor cells whose bounding box lies
    /// strictly farther than ε from this cell's bounding box are dropped
    /// — sound because the box distance lower-bounds every point pair.
    ///
    /// One hash probe per offset, amortized over every point of the
    /// cell.
    pub fn neighbors_into(
        &self,
        idx: usize,
        offsets: &NeighborOffsets,
        prune_eps_sq: Option<f64>,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let Some(rec) = self.cells.get(idx) else {
            return;
        };
        for off in offsets.iter() {
            let Some(ncoord) = NeighborOffsets::apply(&rec.coord, off) else {
                continue;
            };
            let Some(&nidx) = self.index.get(&ncoord) else {
                continue;
            };
            if let Some(eps_sq) = prune_eps_sq {
                if self.min_sq_dist_between_bboxes(idx, nidx as usize) > eps_sq {
                    continue;
                }
            }
            out.push(nidx);
        }
    }

    /// Counts slots of `range` within `ε` of `q` (closed ball, given
    /// `eps_sq = ε²`), stopping as soon as the count would reach `limit`.
    /// Returns `(count, comparisons)`; the comparison tally feeds the
    /// Lemma 6/8 accounting.
    #[inline]
    pub fn count_within(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        limit: usize,
    ) -> (usize, u64) {
        let mut count = 0usize;
        let mut comps = 0u64;
        match self.dims {
            2 => {
                let (qx, qy) = (
                    q.first().copied().unwrap_or(0.0),
                    q.get(1).copied().unwrap_or(0.0),
                );
                let xs = self.col(0).get(range.clone()).unwrap_or(&[]);
                let ys = self.col(1).get(range).unwrap_or(&[]);
                for (&x, &y) in xs.iter().zip(ys) {
                    comps += 1;
                    let (dx, dy) = (x - qx, y - qy);
                    if dx * dx + dy * dy <= eps_sq {
                        count += 1;
                        if count >= limit {
                            break;
                        }
                    }
                }
            }
            3 => {
                let (qx, qy, qz) = (
                    q.first().copied().unwrap_or(0.0),
                    q.get(1).copied().unwrap_or(0.0),
                    q.get(2).copied().unwrap_or(0.0),
                );
                let xs = self.col(0).get(range.clone()).unwrap_or(&[]);
                let ys = self.col(1).get(range.clone()).unwrap_or(&[]);
                let zs = self.col(2).get(range).unwrap_or(&[]);
                for ((&x, &y), &z) in xs.iter().zip(ys).zip(zs) {
                    comps += 1;
                    let (dx, dy, dz) = (x - qx, y - qy, z - qz);
                    if dx * dx + dy * dy + dz * dz <= eps_sq {
                        count += 1;
                        if count >= limit {
                            break;
                        }
                    }
                }
            }
            _ => {
                for slot in range {
                    comps += 1;
                    if self.sq_dist_to_slot(q, slot) <= eps_sq {
                        count += 1;
                        if count >= limit {
                            break;
                        }
                    }
                }
            }
        }
        (count, comps)
    }

    /// Whether any *flagged* slot of `range` lies within ε of `q`
    /// (`flags` is slot-indexed — the phase-5 "is this a core point"
    /// mask). With `early`, returns at the first hit; otherwise scans the
    /// whole range (the ablation mode). Returns `(hit, comparisons)`.
    #[inline]
    pub fn any_flagged_within(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        flags: &[bool],
        early: bool,
    ) -> (bool, u64) {
        let mut hit = false;
        let mut comps = 0u64;
        for slot in range {
            if !flags.get(slot).copied().unwrap_or(false) {
                continue;
            }
            comps += 1;
            if self.sq_dist_to_slot(q, slot) <= eps_sq {
                hit = true;
                if early {
                    break;
                }
            }
        }
        (hit, comps)
    }

    /// [`Self::count_within`] routed through the selected kernel.
    ///
    /// `Scalar` is the reference loop above; `Unrolled` computes squared
    /// distances in 8-lane (d = 2) / 4-lane (d ≥ 3) blocks, then *drains
    /// the block in slot order* when the count could reach `limit` inside
    /// it — so the `(count, comparisons)` pair is exactly what the scalar
    /// kernel returns, for every input. `Auto` resolves via
    /// [`KernelKind::resolve`]. Counter invariance across kernels is what
    /// keeps [`KernelCounters`]-style tallies comparable between runs.
    ///
    /// [`KernelCounters`]: https://docs.rs/dbscout-core
    #[inline]
    pub fn count_within_kernel(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        limit: usize,
        kernel: KernelKind,
    ) -> (usize, u64) {
        match kernel.resolve() {
            KernelKind::Unrolled => match self.dims {
                2 => self.count_within_2d_unrolled(q, range, eps_sq, limit),
                3 => self.count_within_3d_unrolled(q, range, eps_sq, limit),
                _ => self.count_within_generic_unrolled(q, range, eps_sq, limit),
            },
            _ => self.count_within(q, range, eps_sq, limit),
        }
    }

    /// [`Self::any_flagged_within`] routed through the selected kernel.
    /// The unrolled variant computes 4-lane distance blocks for any
    /// dimensionality but consults the flags (and tallies comparisons)
    /// per slot in order, so hits, early exits, and comparison counts
    /// match the scalar loop exactly.
    #[inline]
    pub fn any_flagged_within_kernel(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        flags: &[bool],
        early: bool,
        kernel: KernelKind,
    ) -> (bool, u64) {
        match kernel.resolve() {
            KernelKind::Unrolled => {
                self.any_flagged_within_unrolled(q, range, eps_sq, flags, early)
            }
            _ => self.any_flagged_within(q, range, eps_sq, flags, early),
        }
    }

    /// Appends every slot of `range` within ε of `q` (closed ball, given
    /// `eps_sq = ε²`) to `out`, in ascending slot order, returning the
    /// comparison tally. Unlike [`Self::count_within`] this reports the
    /// neighbor *identities* — what the incremental engine needs to bump
    /// per-point counts — and therefore never exits early: the tally is
    /// always `range.len()`, identical across kernels.
    #[inline]
    pub fn collect_within_kernel(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        kernel: KernelKind,
        out: &mut Vec<u32>,
    ) -> u64 {
        match kernel.resolve() {
            KernelKind::Unrolled => self.collect_within_unrolled(q, range, eps_sq, out),
            _ => self.collect_within(q, range, eps_sq, out),
        }
    }

    /// Scalar reference loop for [`Self::collect_within_kernel`].
    fn collect_within(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        out: &mut Vec<u32>,
    ) -> u64 {
        let comps = range.len() as u64;
        for slot in range {
            if self.sq_dist_to_slot(q, slot) <= eps_sq {
                out.push(slot as u32);
            }
        }
        comps
    }

    /// 4-lane unrolled collecting kernel: squared distances are computed
    /// per block, hits are pushed in slot order, so the output and the
    /// comparison tally are exactly the scalar loop's.
    fn collect_within_unrolled(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        out: &mut Vec<u32>,
    ) -> u64 {
        let comps = range.len() as u64;
        let mut slot = range.start;
        while slot + LANES_ND <= range.end {
            let d = self.sq_dists_x4_at(q, slot);
            for (i, &v) in d.iter().enumerate() {
                if v <= eps_sq {
                    out.push((slot + i) as u32);
                }
            }
            slot += LANES_ND;
        }
        for s in slot..range.end {
            if self.sq_dist_to_slot(q, s) <= eps_sq {
                out.push(s as u32);
            }
        }
        comps
    }

    /// 8-lane unrolled d = 2 counting kernel. The lane fast path accepts
    /// a whole block only when the count provably stays below `limit`
    /// (`count + hits < limit`); otherwise the block is drained in slot
    /// order so the early exit lands on the same comparison the scalar
    /// loop stops at.
    fn count_within_2d_unrolled(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        limit: usize,
    ) -> (usize, u64) {
        let (qx, qy) = (
            q.first().copied().unwrap_or(0.0),
            q.get(1).copied().unwrap_or(0.0),
        );
        let xs = self.col(0).get(range.clone()).unwrap_or(&[]);
        let ys = self.col(1).get(range).unwrap_or(&[]);
        let mut count = 0usize;
        let mut comps = 0u64;
        let mut xit = xs.chunks_exact(LANES_2D);
        let mut yit = ys.chunks_exact(LANES_2D);
        for (cx, cy) in xit.by_ref().zip(yit.by_ref()) {
            let (Ok(ax), Ok(ay)) = (
                <&[f64; LANES_2D]>::try_from(cx),
                <&[f64; LANES_2D]>::try_from(cy),
            ) else {
                break;
            };
            let d = sq_dists_2d_x8(qx, qy, ax, ay);
            let hits = d.iter().filter(|&&v| v <= eps_sq).count();
            if count + hits < limit {
                count += hits;
                comps += LANES_2D as u64;
            } else {
                for &v in &d {
                    comps += 1;
                    if v <= eps_sq {
                        count += 1;
                        if count >= limit {
                            return (count, comps);
                        }
                    }
                }
            }
        }
        for (&x, &y) in xit.remainder().iter().zip(yit.remainder()) {
            comps += 1;
            let (dx, dy) = (x - qx, y - qy);
            if dx * dx + dy * dy <= eps_sq {
                count += 1;
                if count >= limit {
                    break;
                }
            }
        }
        (count, comps)
    }

    /// 4-lane unrolled d = 3 counting kernel; same block/drain contract
    /// as the d = 2 kernel.
    fn count_within_3d_unrolled(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        limit: usize,
    ) -> (usize, u64) {
        let (qx, qy, qz) = (
            q.first().copied().unwrap_or(0.0),
            q.get(1).copied().unwrap_or(0.0),
            q.get(2).copied().unwrap_or(0.0),
        );
        let xs = self.col(0).get(range.clone()).unwrap_or(&[]);
        let ys = self.col(1).get(range.clone()).unwrap_or(&[]);
        let zs = self.col(2).get(range).unwrap_or(&[]);
        let mut count = 0usize;
        let mut comps = 0u64;
        let mut xit = xs.chunks_exact(LANES_ND);
        let mut yit = ys.chunks_exact(LANES_ND);
        let mut zit = zs.chunks_exact(LANES_ND);
        for ((cx, cy), cz) in xit.by_ref().zip(yit.by_ref()).zip(zit.by_ref()) {
            let (Ok(ax), Ok(ay), Ok(az)) = (
                <&[f64; LANES_ND]>::try_from(cx),
                <&[f64; LANES_ND]>::try_from(cy),
                <&[f64; LANES_ND]>::try_from(cz),
            ) else {
                break;
            };
            let d = sq_dists_3d_x4(qx, qy, qz, ax, ay, az);
            let hits = d.iter().filter(|&&v| v <= eps_sq).count();
            if count + hits < limit {
                count += hits;
                comps += LANES_ND as u64;
            } else {
                for &v in &d {
                    comps += 1;
                    if v <= eps_sq {
                        count += 1;
                        if count >= limit {
                            return (count, comps);
                        }
                    }
                }
            }
        }
        for ((&x, &y), &z) in xit
            .remainder()
            .iter()
            .zip(yit.remainder())
            .zip(zit.remainder())
        {
            comps += 1;
            let (dx, dy, dz) = (x - qx, y - qy, z - qz);
            if dx * dx + dy * dy + dz * dz <= eps_sq {
                count += 1;
                if count >= limit {
                    break;
                }
            }
        }
        (count, comps)
    }

    /// 4-lane unrolled counting kernel for any dimensionality:
    /// accumulates each dimension into four running lane totals, then
    /// applies the same block/drain contract as the specialized kernels.
    fn count_within_generic_unrolled(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        limit: usize,
    ) -> (usize, u64) {
        let mut count = 0usize;
        let mut comps = 0u64;
        let mut slot = range.start;
        while slot + LANES_ND <= range.end {
            let acc = self.sq_dists_x4_at(q, slot);
            let hits = acc.iter().filter(|&&v| v <= eps_sq).count();
            if count + hits < limit {
                count += hits;
                comps += LANES_ND as u64;
            } else {
                for &v in &acc {
                    comps += 1;
                    if v <= eps_sq {
                        count += 1;
                        if count >= limit {
                            return (count, comps);
                        }
                    }
                }
            }
            slot += LANES_ND;
        }
        for s in slot..range.end {
            comps += 1;
            if self.sq_dist_to_slot(q, s) <= eps_sq {
                count += 1;
                if count >= limit {
                    break;
                }
            }
        }
        (count, comps)
    }

    /// 4-lane unrolled flagged-scan kernel. Distances are computed per
    /// block (cheap, branch-free) but flags gate the per-slot verdicts in
    /// order, so the comparison tally and the `early` exit point are the
    /// scalar loop's exactly; blocks with no flagged slot are skipped
    /// without touching the columns, as the scalar loop skips them.
    fn any_flagged_within_unrolled(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        flags: &[bool],
        early: bool,
    ) -> (bool, u64) {
        let mut hit = false;
        let mut comps = 0u64;
        let mut slot = range.start;
        while slot + LANES_ND <= range.end {
            let flagged = (0..LANES_ND).any(|i| flags.get(slot + i).copied().unwrap_or(false));
            if flagged {
                let d = self.sq_dists_x4_at(q, slot);
                for (i, &v) in d.iter().enumerate() {
                    if !flags.get(slot + i).copied().unwrap_or(false) {
                        continue;
                    }
                    comps += 1;
                    if v <= eps_sq {
                        hit = true;
                        if early {
                            return (true, comps);
                        }
                    }
                }
            }
            slot += LANES_ND;
        }
        for s in slot..range.end {
            if !flags.get(s).copied().unwrap_or(false) {
                continue;
            }
            comps += 1;
            if self.sq_dist_to_slot(q, s) <= eps_sq {
                hit = true;
                if early {
                    break;
                }
            }
        }
        (hit, comps)
    }

    /// Squared distances from `q` to the four slots starting at `slot`,
    /// accumulated dimension-by-dimension in the scalar order (bit-equal
    /// to four [`Self::sq_dist_to_slot`] calls).
    #[inline]
    fn sq_dists_x4_at(&self, q: &[f64], slot: usize) -> [f64; LANES_ND] {
        let mut acc = [0.0f64; LANES_ND];
        for (k, &qk) in q.iter().enumerate().take(self.dims) {
            let base = k * self.n + slot;
            if let Ok(block) =
                <&[f64; LANES_ND]>::try_from(self.cols.get(base..base + LANES_ND).unwrap_or(&[]))
            {
                accumulate_sq_dists_x4(&mut acc, qk, block);
            }
        }
        acc
    }

    /// Squared distance from `q` to the point in `slot`.
    #[inline]
    fn sq_dist_to_slot(&self, q: &[f64], slot: usize) -> f64 {
        let mut acc = 0.0;
        for (k, &x) in q.iter().enumerate().take(self.dims) {
            let c = self.cols.get(k * self.n + slot).copied().unwrap_or(x);
            let d = c - x;
            acc += d * d;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::cell_of;
    use crate::distance::sq_dist;

    fn store_2d(points: &[[f64; 2]]) -> PointStore {
        PointStore::from_rows(2, points.iter().map(|p| p.to_vec())).unwrap()
    }

    fn gather_point(cm: &CellMajorStore, slot: usize) -> Vec<f64> {
        let mut buf = [0.0; MAX_DIMS];
        cm.point_into(slot, &mut buf);
        buf[..cm.dims()].to_vec()
    }

    #[test]
    fn permutation_is_a_bijection_preserving_coordinates() {
        let s = store_2d(&[[0.1, 0.1], [5.0, 5.0], [0.9, 0.9], [-3.0, 2.0], [5.1, 5.1]]);
        let cm = CellMajorStore::build(&s, 2f64.sqrt()).unwrap();
        assert_eq!(cm.len(), 5);
        let mut seen = [false; 5];
        for slot in 0..cm.len() {
            let id = cm.orig_ids()[slot];
            assert!(!seen[id as usize], "id {id} mapped twice");
            seen[id as usize] = true;
            assert_eq!(gather_point(&cm, slot), s.point(id));
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn cells_are_sorted_and_partition_the_slots() {
        let s = store_2d(&[[0.2, 0.2], [9.0, 9.0], [0.8, 0.8], [1.1, -0.3], [1.9, -0.9]]);
        let cm = CellMajorStore::build(&s, 2f64.sqrt()).unwrap();
        let mut next = 0u32;
        for w in cm.cells().windows(2) {
            assert!(w[0].coord < w[1].coord, "cells out of order");
        }
        for rec in cm.cells() {
            assert_eq!(rec.start, next, "gap before {:?}", rec.coord);
            assert!(rec.end > rec.start);
            next = rec.end;
        }
        assert_eq!(next as usize, cm.len());
    }

    #[test]
    fn ids_ascend_within_each_cell() {
        let s = store_2d(&[[0.3, 0.3], [0.1, 0.1], [0.2, 0.2], [7.0, 7.0]]);
        let cm = CellMajorStore::build(&s, 2f64.sqrt()).unwrap();
        for rec in cm.cells() {
            let ids = &cm.orig_ids()[rec.range()];
            for w in ids.windows(2) {
                assert!(w[0] < w[1], "ids not ascending in {:?}", rec.coord);
            }
        }
    }

    /// A 3-D store spread over many cells (most holding a few points),
    /// with negative coordinates and signed zeros.
    fn store_3d_many_cells(n: usize) -> PointStore {
        let rows = (0..n).map(|i| {
            let i = i as f64;
            vec![
                ((i * 0.37) % 23.0) - 11.0,
                ((i * 1.91) % 17.0) - 8.5,
                if (i as usize).is_multiple_of(5) {
                    -0.0
                } else {
                    ((i * 0.73) % 9.0) - 4.0
                },
            ]
        });
        PointStore::from_rows(3, rows).unwrap()
    }

    #[test]
    fn index_round_trips() {
        let s = store_2d(&[[0.5, 0.5], [10.0, -3.0]]);
        let cm = CellMajorStore::build(&s, 1.0).unwrap();
        for (i, rec) in cm.cells().iter().enumerate() {
            assert_eq!(cm.cell_index(&rec.coord), Some(i as u32));
        }
        assert_eq!(cm.cell_index(&CellCoord::from_slice(&[999, 999])), None);

        let s = store_3d_many_cells(700);
        let cm = CellMajorStore::build(&s, 1.0).unwrap();
        assert!(cm.num_cells() > 300, "{} cells", cm.num_cells());
        for (i, rec) in cm.cells().iter().enumerate() {
            assert_eq!(cm.cell_index(&rec.coord), Some(i as u32));
        }
        for (id, p) in s.iter() {
            let ci = cm.cell_index(&cell_of(p, cm.side())).unwrap() as usize;
            assert!(cm.orig_ids()[cm.cells()[ci].range()].contains(&id));
        }
        assert_eq!(
            cm.cell_index(&CellCoord::from_slice(&[999, 999, 999])),
            None
        );
    }

    #[test]
    fn bbox_contains_every_point_of_its_cell() {
        let s = store_2d(&[
            [0.11, 0.42],
            [0.35, 0.02],
            [0.21, 0.33],
            [4.0, 4.0],
            [4.2, 4.1],
        ]);
        let cm = CellMajorStore::build(&s, 2f64.sqrt()).unwrap();
        for (idx, rec) in cm.cells().iter().enumerate() {
            for slot in rec.range() {
                let p = gather_point(&cm, slot);
                assert_eq!(
                    cm.min_sq_dist_to_bbox(&p, idx),
                    0.0,
                    "point {p:?} escapes bbox of {:?}",
                    rec.coord
                );
            }
        }
    }

    #[test]
    fn point_to_bbox_lower_bounds_every_point_distance() {
        let s = store_2d(&[[0.1, 0.1], [0.4, 0.4], [2.0, 2.0], [2.3, 1.9]]);
        let cm = CellMajorStore::build(&s, 1.0).unwrap();
        let q = [5.0, -1.0];
        for (idx, rec) in cm.cells().iter().enumerate() {
            let lb = cm.min_sq_dist_to_bbox(&q, idx);
            for slot in rec.range() {
                let p = gather_point(&cm, slot);
                assert!(lb <= sq_dist(&q, &p) + 1e-12);
            }
        }
    }

    #[test]
    fn bbox_to_bbox_lower_bounds_every_point_pair() {
        let s = store_2d(&[[0.1, 0.1], [0.4, 0.4], [2.0, 2.0], [2.3, 1.9], [-3.0, 0.2]]);
        let cm = CellMajorStore::build(&s, 1.0).unwrap();
        for a in 0..cm.num_cells() {
            for b in 0..cm.num_cells() {
                let lb = cm.min_sq_dist_between_bboxes(a, b);
                for sa in cm.cells()[a].range() {
                    for sb in cm.cells()[b].range() {
                        let pa = gather_point(&cm, sa);
                        let pb = gather_point(&cm, sb);
                        assert!(lb <= sq_dist(&pa, &pb) + 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_neighbors_are_a_subset_losing_nothing_within_eps() {
        // Points in adjacent cells but far apart inside them: the pruned
        // list may drop cells, but never one holding a point within eps
        // of any point of the query cell.
        let eps = 0.5;
        let s = store_2d(&[
            [0.01, 0.01],
            [0.30, 0.30],
            [0.34, 0.01], // next cell over, within eps of [0.30, 0.30]
            [0.69, 0.69], // diagonal cell, corner region
            [3.0, 3.0],
        ]);
        let cm = CellMajorStore::build(&s, eps).unwrap();
        let offsets = NeighborOffsets::new(2).unwrap();
        let eps_sq = eps * eps;
        for idx in 0..cm.num_cells() {
            let mut all = Vec::new();
            let mut pruned = Vec::new();
            cm.neighbors_into(idx, &offsets, None, &mut all);
            cm.neighbors_into(idx, &offsets, Some(eps_sq), &mut pruned);
            assert!(pruned.iter().all(|n| all.contains(n)));
            // Soundness: every dropped neighbor has no point within eps
            // of any point of the query cell.
            for dropped in all.iter().filter(|n| !pruned.contains(n)) {
                for sa in cm.cells()[idx].range() {
                    let pa = gather_point(&cm, sa);
                    for sb in cm.cells()[*dropped as usize].range() {
                        let pb = gather_point(&cm, sb);
                        assert!(
                            sq_dist(&pa, &pb) > eps_sq,
                            "prune dropped a reachable pair {pa:?} {pb:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn count_within_matches_brute_force_and_respects_limit() {
        let s = store_2d(&[[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 0.0], [0.9, 0.0]]);
        let cm = CellMajorStore::build(&s, 10.0).unwrap(); // all one cell
        assert_eq!(cm.num_cells(), 1);
        let range = cm.cells()[0].range();
        let q = [0.0, 0.0];
        let (count, comps) = cm.count_within(&q, range.clone(), 0.25 * 0.25 + 1e-12, usize::MAX);
        assert_eq!(count, 3); // 0.0, 0.1, 0.2
        assert_eq!(comps, 5);
        let (count, comps) = cm.count_within(&q, range, 1.0, 2);
        assert_eq!(count, 2);
        assert!(comps <= 2, "early exit must stop scanning");
    }

    #[test]
    fn collect_within_matches_scalar_across_kernels_and_dims() {
        for dims in 2..=4usize {
            let rows: Vec<Vec<f64>> = (0..37)
                .map(|i| {
                    (0..dims)
                        .map(|k| ((i * (k + 3)) % 11) as f64 * 0.17)
                        .collect()
                })
                .collect();
            let s = PointStore::from_rows(dims, rows).unwrap();
            let cm = CellMajorStore::build(&s, 10.0).unwrap();
            let q: Vec<f64> = (0..dims).map(|k| 0.2 * k as f64).collect();
            for rec in cm.cells() {
                let eps_sq = 0.45;
                let mut scalar = Vec::new();
                let cs = cm.collect_within_kernel(
                    &q,
                    rec.range(),
                    eps_sq,
                    KernelKind::Scalar,
                    &mut scalar,
                );
                let mut unrolled = Vec::new();
                let cu = cm.collect_within_kernel(
                    &q,
                    rec.range(),
                    eps_sq,
                    KernelKind::Unrolled,
                    &mut unrolled,
                );
                assert_eq!(scalar, unrolled, "dims {dims} cell {:?}", rec.coord);
                assert_eq!(cs, cu);
                assert_eq!(cs, rec.len() as u64);
                // Hits ascend in slot order and match brute force.
                let brute: Vec<u32> = rec
                    .range()
                    .filter(|&slot| sq_dist(&gather_point(&cm, slot), &q) <= eps_sq)
                    .map(|slot| slot as u32)
                    .collect();
                assert_eq!(scalar, brute);
            }
        }
    }

    #[test]
    fn any_flagged_within_honors_flags_and_early_exit() {
        let s = store_2d(&[[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]);
        let cm = CellMajorStore::build(&s, 10.0).unwrap();
        let range = cm.cells()[0].range();
        let q = [0.0, 0.0];
        // No flags set: never a hit, zero comparisons.
        let (hit, comps) = cm.any_flagged_within(&q, range.clone(), 1.0, &[false; 3], true);
        assert!(!hit);
        assert_eq!(comps, 0);
        // Only the far slot flagged and out of range.
        let slot_of_02 = (0..3)
            .find(|&s| {
                let p = gather_point(&cm, s);
                (p[0] - 0.2).abs() < 1e-12
            })
            .unwrap();
        let mut flags = vec![false; 3];
        flags[slot_of_02] = true;
        let (hit, _) = cm.any_flagged_within(&q, range.clone(), 0.01, &flags, true);
        assert!(!hit);
        let (hit, _) = cm.any_flagged_within(&q, range, 0.05, &flags, true);
        assert!(hit);
    }

    #[test]
    fn three_d_and_generic_kernels_agree() {
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                vec![
                    (i % 4) as f64 * 0.3,
                    (i % 5) as f64 * 0.2,
                    (i % 3) as f64 * 0.4,
                ]
            })
            .collect();
        let s = PointStore::from_rows(3, rows).unwrap();
        let cm = CellMajorStore::build(&s, 10.0).unwrap();
        let range = cm.cells()[0].range();
        let q = [0.3, 0.2, 0.4];
        let (fast, _) = cm.count_within(&q, range.clone(), 0.3, usize::MAX);
        // Brute-force recount through the gathered rows.
        let slow = range
            .clone()
            .filter(|&slot| sq_dist(&gather_point(&cm, slot), &q) <= 0.3)
            .count();
        assert_eq!(fast, slow);
    }

    #[test]
    fn empty_store_builds_empty_layout() {
        let s = PointStore::new(2).unwrap();
        let cm = CellMajorStore::build(&s, 1.0).unwrap();
        assert!(cm.is_empty());
        assert_eq!(cm.num_cells(), 0);
        assert!(cm.cells().is_empty());
        assert!(cm.orig_ids().is_empty());
    }

    #[test]
    fn invalid_eps_rejected() {
        let s = store_2d(&[[0.0, 0.0]]);
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                CellMajorStore::build(&s, eps),
                Err(SpatialError::InvalidEpsilon { .. })
            ));
        }
    }

    fn assert_layout_identical(a: &CellMajorStore, b: &CellMajorStore) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.dims(), b.dims());
        assert_eq!(a.cells(), b.cells());
        assert_eq!(a.orig_ids(), b.orig_ids());
        for k in 0..a.dims() {
            assert_eq!(a.col(k), b.col(k), "column {k}");
        }
        assert_eq!(a.bbox_min, b.bbox_min);
        assert_eq!(a.bbox_max, b.bbox_max);
    }

    #[test]
    fn streaming_build_is_byte_identical_to_materialized_for_any_batching() {
        let pts: Vec<[f64; 2]> = (0..97)
            .map(|i| [((i * 37) % 50) as f64 * 0.3, ((i * 53) % 40) as f64 * 0.3])
            .collect();
        let s = store_2d(&pts);
        let eps = 1.5;
        let whole = CellMajorStore::build(&s, eps).unwrap();
        for batch in [1usize, 7, 16, 97, 1000] {
            let mut b = CellMajorBuilder::new(2, eps).unwrap();
            for chunk in s.flat().chunks(batch * 2) {
                b.count_batch(chunk).unwrap();
            }
            assert_eq!(b.len(), 97);
            let mut sc = b.begin_scatter();
            for chunk in s.flat().chunks(batch * 2) {
                sc.scatter_batch(chunk).unwrap();
            }
            assert_eq!(sc.filled(), 97);
            let streamed = sc.finish().unwrap();
            assert_layout_identical(&whole, &streamed);
        }
    }

    #[test]
    fn builder_validates_inputs() {
        assert!(matches!(
            CellMajorBuilder::new(0, 1.0),
            Err(SpatialError::ZeroDims)
        ));
        assert!(matches!(
            CellMajorBuilder::new(MAX_DIMS + 1, 1.0),
            Err(SpatialError::TooManyDims { .. })
        ));
        for eps in [0.0, -1.0, f64::NAN] {
            assert!(matches!(
                CellMajorBuilder::new(2, eps),
                Err(SpatialError::InvalidEpsilon { .. })
            ));
        }
        let mut b = CellMajorBuilder::new(2, 1.0).unwrap();
        assert!(matches!(
            b.count_batch(&[1.0, 2.0, 3.0]),
            Err(SpatialError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            b.count_batch(&[1.0, f64::NAN]),
            Err(SpatialError::NonFiniteCoordinate { point: 0, dim: 1 })
        ));
    }

    #[test]
    fn builder_counts_match_the_scattered_cell_table() {
        // The pass-1 accessors must describe exactly the cell table
        // `begin_scatter` will lay out: same cell count, same per-cell
        // counts, same canonical order.
        let pts: Vec<[f64; 2]> = (0..97)
            .map(|i| [((i * 37) % 50) as f64 * 0.3, ((i * 53) % 40) as f64 * 0.3])
            .collect();
        let s = store_2d(&pts);
        let mut b = CellMajorBuilder::new(2, 1.5).unwrap();
        for chunk in s.flat().chunks(16) {
            b.count_batch(chunk).unwrap();
        }
        let num_cells = b.num_cells();
        let counts = b.cell_counts_sorted();
        assert_eq!(counts.len(), num_cells);
        let mut sc = b.begin_scatter();
        for chunk in s.flat().chunks(16) {
            sc.scatter_batch(chunk).unwrap();
        }
        let cm = sc.finish().unwrap();
        assert_eq!(num_cells, cm.num_cells());
        let table_counts: Vec<u32> = cm.cells().iter().map(|r| r.len() as u32).collect();
        assert_eq!(counts, table_counts);
    }

    #[test]
    fn scatter_detects_replay_divergence() {
        // A point moving to a never-counted cell.
        let mut b = CellMajorBuilder::new(2, 1.0).unwrap();
        b.count_batch(&[0.1, 0.1, 0.2, 0.2]).unwrap();
        let mut sc = b.begin_scatter();
        assert!(matches!(
            sc.scatter_batch(&[50.0, 50.0]),
            Err(SpatialError::StreamMismatch)
        ));

        // A cell receiving more points than were counted.
        let mut b = CellMajorBuilder::new(2, 1.0).unwrap();
        b.count_batch(&[0.1, 0.1]).unwrap();
        let mut sc = b.begin_scatter();
        sc.scatter_batch(&[0.1, 0.1]).unwrap();
        assert!(matches!(
            sc.scatter_batch(&[0.15, 0.15]),
            Err(SpatialError::StreamMismatch)
        ));

        // The replay ending short.
        let mut b = CellMajorBuilder::new(2, 1.0).unwrap();
        b.count_batch(&[0.1, 0.1, 0.2, 0.2]).unwrap();
        let mut sc = b.begin_scatter();
        sc.scatter_batch(&[0.1, 0.1]).unwrap();
        assert!(matches!(sc.finish(), Err(SpatialError::StreamMismatch)));
    }

    #[test]
    fn empty_builder_finishes_into_an_empty_store() {
        let b = CellMajorBuilder::new(3, 1.0).unwrap();
        assert!(b.is_empty());
        let cm = b.begin_scatter().finish().unwrap();
        assert!(cm.is_empty());
        assert_eq!(cm.num_cells(), 0);
        assert_eq!(cm.dims(), 3);
    }

    #[test]
    fn merged_sharded_counts_build_the_same_layout() {
        let pts: Vec<[f64; 2]> = (0..61)
            .map(|i| [((i * 37) % 50) as f64 * 0.3, ((i * 53) % 40) as f64 * 0.3])
            .collect();
        let s = store_2d(&pts);
        let eps = 1.5;
        let whole = CellMajorStore::build(&s, eps).unwrap();
        for workers in [1usize, 2, 3, 5] {
            // Pass 1 on `workers` independent builders over batch shards,
            // merged in arbitrary (here: reverse) order.
            let batches: Vec<&[f64]> = s.flat().chunks(14).collect();
            let mut subs: Vec<CellMajorBuilder> = (0..workers)
                .map(|_| CellMajorBuilder::new(2, eps).unwrap())
                .collect();
            for (i, batch) in batches.iter().enumerate() {
                subs[i % workers].count_batch(batch).unwrap();
            }
            let mut merged = CellMajorBuilder::new(2, eps).unwrap();
            for sub in subs.into_iter().rev() {
                merged.merge(sub).unwrap();
            }
            assert_eq!(merged.len(), 61);
            let mut sc = merged.begin_scatter();
            for batch in &batches {
                sc.scatter_batch(batch).unwrap();
            }
            let streamed = sc.finish().unwrap();
            assert_layout_identical(&whole, &streamed);
        }
    }

    #[test]
    fn merge_rejects_incompatible_builders() {
        let mut b = CellMajorBuilder::new(2, 1.0).unwrap();
        assert!(matches!(
            b.merge(CellMajorBuilder::new(3, 1.0).unwrap()),
            Err(SpatialError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            b.merge(CellMajorBuilder::new(2, 2.0).unwrap()),
            Err(SpatialError::StreamMismatch)
        ));
    }

    /// Builds `s` through the sharded pass 2, `parts` shards, `batch`
    /// points per batch: each batch is located once, then every shard
    /// consumes the same index slice.
    fn sharded_build(s: &PointStore, eps: f64, parts: usize, batch: usize) -> CellMajorStore {
        let dims = s.dims();
        let mut b = CellMajorBuilder::new(dims, eps).unwrap();
        for chunk in s.flat().chunks(batch * dims) {
            b.count_batch(chunk).unwrap();
        }
        let mut sc = b.begin_scatter();
        let (locator, mut shards) = sc.shards(parts);
        assert!(!shards.is_empty() && shards.len() <= parts);
        // Shards partition the cell table.
        let mut next = 0usize;
        for shard in &shards {
            assert_eq!(shard.cell_range().start, next);
            next = shard.cell_range().end;
        }
        let mut cells = Vec::new();
        let mut first_id = 0;
        for chunk in s.flat().chunks(batch * dims) {
            locator.locate_batch(chunk, first_id, &mut cells).unwrap();
            assert_eq!(cells.len() * dims, chunk.len());
            first_id += cells.len();
            for shard in &mut shards {
                shard.place_batch(chunk, &cells).unwrap();
            }
        }
        let placed: usize = shards.iter().map(ScatterShard::filled).sum();
        assert_eq!(placed, s.len() as usize);
        drop(shards);
        sc.finish_sharded().unwrap()
    }

    #[test]
    fn sharded_scatter_is_byte_identical_to_sequential() {
        let pts: Vec<[f64; 2]> = (0..61)
            .map(|i| [((i * 37) % 50) as f64 * 0.3, ((i * 53) % 40) as f64 * 0.3])
            .collect();
        let s = store_2d(&pts);
        let eps = 1.5;
        let whole = CellMajorStore::build(&s, eps).unwrap();
        for parts in [1usize, 2, 3, 4, 7] {
            for batch in [1usize, 7, 61] {
                assert_layout_identical(&whole, &sharded_build(&s, eps, parts, batch));
            }
        }
        // 3-D, many cells: shard cuts land between many small runs.
        let s = store_3d_many_cells(700);
        let whole = CellMajorStore::build(&s, 1.0).unwrap();
        assert!(whole.num_cells() > 300);
        for parts in [2usize, 3, 8] {
            for batch in [1usize, 64, 700] {
                assert_layout_identical(&whole, &sharded_build(&s, 1.0, parts, batch));
            }
        }
    }

    #[test]
    fn bboxes_are_the_fold_of_each_run_in_id_order() {
        // The post-pass must reproduce folding points in one at a time
        // by arrival id, bit for bit (signed zeros included).
        let s = store_3d_many_cells(700);
        let cm = CellMajorStore::build(&s, 1.0).unwrap();
        for (ci, rec) in cm.cells().iter().enumerate() {
            for k in 0..3 {
                let mut ids = cm.orig_ids()[rec.range()].iter();
                let first = s.point(*ids.next().unwrap())[k];
                let (mut mn, mut mx) = (first, first);
                for &id in ids {
                    let x = s.point(id)[k];
                    mn = mn.min(x);
                    mx = mx.max(x);
                }
                assert_eq!(cm.bbox_min[ci * 3 + k].to_bits(), mn.to_bits());
                assert_eq!(cm.bbox_max[ci * 3 + k].to_bits(), mx.to_bits());
            }
        }
    }

    #[test]
    fn locator_and_shards_reject_bad_replays() {
        let mut b = CellMajorBuilder::new(2, 1.0).unwrap();
        b.count_batch(&[0.1, 0.1, 5.0, 5.0]).unwrap();
        let mut sc = b.begin_scatter();
        let (locator, mut shards) = sc.shards(2);
        let mut cells = Vec::new();
        assert!(matches!(
            locator.locate_batch(&[0.1, 0.1, 50.0, 50.0], 0, &mut cells),
            Err(SpatialError::StreamMismatch)
        ));
        assert!(matches!(
            locator.locate_batch(&[0.1, f64::INFINITY], 7, &mut cells),
            Err(SpatialError::NonFiniteCoordinate { point: 7, dim: 1 })
        ));
        assert!(matches!(
            locator.locate_batch(&[0.1], 0, &mut cells),
            Err(SpatialError::DimensionMismatch { .. })
        ));
        locator
            .locate_batch(&[0.1, 0.1, 5.0, 5.0], 0, &mut cells)
            .unwrap();
        // One index per point, or the shard refuses the batch.
        assert!(matches!(
            shards[0].place_batch(&[0.1, 0.1, 5.0, 5.0], &cells[..1]),
            Err(SpatialError::StreamMismatch)
        ));
        // A cell receiving more points than counted.
        let first = &mut shards[0];
        first.place_batch(&[0.1, 0.1], &cells[..1]).unwrap();
        assert!(matches!(
            first.place_batch(&[0.1, 0.1], &cells[..1]),
            Err(SpatialError::StreamMismatch)
        ));
    }

    #[test]
    fn finish_sharded_detects_a_short_replay() {
        let mut b = CellMajorBuilder::new(2, 1.0).unwrap();
        b.count_batch(&[0.1, 0.1, 5.0, 5.0]).unwrap();
        let mut sc = b.begin_scatter();
        let (locator, mut shards) = sc.shards(2);
        let mut cells = Vec::new();
        locator
            .locate_batch(&[0.1, 0.1, 5.0, 5.0], 0, &mut cells)
            .unwrap();
        // Only the first shard replays: its cells fill, the rest don't.
        if let Some(first) = shards.first_mut() {
            first.place_batch(&[0.1, 0.1, 5.0, 5.0], &cells).unwrap();
        }
        drop(shards);
        assert!(matches!(
            sc.finish_sharded(),
            Err(SpatialError::StreamMismatch)
        ));
    }

    #[test]
    fn empty_layout_yields_no_shards() {
        let b = CellMajorBuilder::new(2, 1.0).unwrap();
        let mut sc = b.begin_scatter();
        let (locator, shards) = sc.shards(4);
        assert!(shards.is_empty());
        // A replay with points is a mismatch, not silently dropped.
        assert!(matches!(
            locator.locate_batch(&[0.1, 0.1], 0, &mut Vec::new()),
            Err(SpatialError::StreamMismatch)
        ));
        assert!(sc.finish_sharded().unwrap().is_empty());
    }

    #[test]
    fn kernel_dispatch_matches_scalar_counts_and_comparisons() {
        for dims in [2usize, 3, 4] {
            let rows: Vec<Vec<f64>> = (0..37)
                .map(|i| {
                    (0..dims)
                        .map(|k| ((i * (k + 3)) % 11) as f64 * 0.21)
                        .collect()
                })
                .collect();
            let s = PointStore::from_rows(dims, rows).unwrap();
            let cm = CellMajorStore::build(&s, 25.0).unwrap(); // one big cell
            let range = cm.cells()[0].range();
            let q: Vec<f64> = (0..dims).map(|k| 0.21 * (k + 1) as f64).collect();
            for eps_sq in [0.0, 0.4, 1.0, 900.0] {
                for limit in [1usize, 3, 10, usize::MAX] {
                    let scalar = cm.count_within(&q, range.clone(), eps_sq, limit);
                    for kernel in [KernelKind::Scalar, KernelKind::Unrolled, KernelKind::Auto] {
                        let got = cm.count_within_kernel(&q, range.clone(), eps_sq, limit, kernel);
                        assert_eq!(got, scalar, "dims {dims} eps² {eps_sq} limit {limit}");
                    }
                }
            }
        }
    }

    #[test]
    fn flagged_kernel_dispatch_matches_scalar_hits_and_comparisons() {
        for dims in [2usize, 3, 4] {
            let rows: Vec<Vec<f64>> = (0..29)
                .map(|i| {
                    (0..dims)
                        .map(|k| ((i * (k + 2)) % 13) as f64 * 0.17)
                        .collect()
                })
                .collect();
            let s = PointStore::from_rows(dims, rows).unwrap();
            let cm = CellMajorStore::build(&s, 25.0).unwrap();
            let range = cm.cells()[0].range();
            let q: Vec<f64> = (0..dims).map(|_| 0.17).collect();
            for pattern in 0..4u32 {
                let flags: Vec<bool> = (0..cm.len())
                    .map(|slot| (slot as u32).wrapping_mul(pattern + 1).is_multiple_of(3))
                    .collect();
                for eps_sq in [0.0, 0.3, 900.0] {
                    for early in [true, false] {
                        let scalar =
                            cm.any_flagged_within(&q, range.clone(), eps_sq, &flags, early);
                        for kernel in [KernelKind::Scalar, KernelKind::Unrolled, KernelKind::Auto] {
                            let got = cm.any_flagged_within_kernel(
                                &q,
                                range.clone(),
                                eps_sq,
                                &flags,
                                early,
                                kernel,
                            );
                            assert_eq!(got, scalar, "dims {dims} pattern {pattern}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn layout_agrees_with_grid() {
        // Same cells, same per-cell id sets as the hash-keyed grid.
        let pts: Vec<[f64; 2]> = (0..60)
            .map(|i| [((i * 37) % 50) as f64 * 0.3, ((i * 53) % 40) as f64 * 0.3])
            .collect();
        let s = store_2d(&pts);
        let eps = 1.5;
        let grid = crate::Grid::build(&s, eps).unwrap();
        let cm = CellMajorStore::build(&s, eps).unwrap();
        assert_eq!(cm.num_cells(), grid.num_cells());
        for rec in cm.cells() {
            let ids = &cm.orig_ids()[rec.range()];
            assert_eq!(grid.points_in(&rec.coord), Some(ids));
        }
    }
}
