//! Incremental DBSCOUT — exact labels under insert *and* delete, an
//! extension beyond the paper.
//!
//! The batch algorithm answers "which points are outliers *now*"; GPS
//! workloads, the paper's motivating domain, grow and churn
//! continuously. This module maintains the Definition 2–3 labels
//! exactly under both mutation directions, with work localized to the
//! affected ε-neighborhood (the Ester et al. 1998 delta-evaluation
//! approach):
//!
//! * **Insertion is monotone**: neighbor counts only grow, so points
//!   only ever move Outlier → Covered → Core, never back. The new
//!   point's ε-neighbors each gain one neighbor — some cross the
//!   `minPts` threshold and become core — and every newly-core point
//!   immediately covers the former outliers in its own ε-ball.
//! * **Deletion is non-monotone**: ε-neighbors of the removed point
//!   lose one neighbor each, core points can drop below `minPts` and
//!   stop vouching for their surroundings, and points they covered may
//!   revert to outliers. The damage is confined to the 2-hop cell
//!   neighborhood of the removed point: the demoted cores, plus every
//!   Covered point within ε of a demoted (or removed) core, are
//!   re-evaluated against the post-removal core set.
//!
//! Each operation touches only the O(k_d) neighboring cells of the
//! affected points, so maintenance stays constant-time for fixed
//! parameters (amortized over bounded-density data).
//!
//! **The equivalence invariant**, pinned by a randomized property suite
//! over interleaved insert/delete/probe sequences: after *any* sequence
//! of operations, the live points carry byte-identical labels to a
//! from-scratch batch run on the surviving points.
//!
//! Live points sit in a [`MutableCellMajor`] — the slack-slot mutable
//! companion of the batch [`dbscout_spatial::CellMajorStore`] — so every
//! ε-neighborhood enumeration runs through the same audited counted
//! kernels as the batch fast path: bbox pruning via
//! `min_sq_dist_to_bbox`, [`KernelKind`] dispatch (scalar or
//! lane-unrolled), and [`KernelCounters`] accounting. Labels, exact
//! neighbor counts, and liveness are id-indexed side arrays.

use dbscout_spatial::cell::{cell_of, cell_side, checked_cell_of};
use dbscout_spatial::mutable::MutableCellMajor;
use dbscout_spatial::points::PointId;
use dbscout_spatial::{KernelKind, NeighborOffsets, PointStore, SpatialError};
use dbscout_telemetry::KernelCounters;

use crate::error::Result;
use crate::labels::{OutlierResult, PhaseTimings, PointLabel, RunStats};
use crate::params::DbscoutParams;

/// An exactly-maintained DBSCOUT state under point insertion and
/// removal.
///
/// Ids are issued consecutively from 0 and never recycled; removal
/// tombstones the id but keeps it addressable. Labels are exact after
/// every operation — equal to a batch run on the live points.
///
/// ```
/// use dbscout_core::incremental::IncrementalDbscout;
/// use dbscout_core::{DbscoutParams, PointLabel};
///
/// let params = DbscoutParams::new(1.0, 3).unwrap();
/// let mut inc = IncrementalDbscout::new(2, params).unwrap();
/// let lone = inc.insert(&[100.0, 100.0]).unwrap();
/// assert_eq!(inc.label(lone), PointLabel::Outlier);
/// let mut ids = Vec::new();
/// for i in 0..3 {
///     ids.push(inc.insert(&[i as f64 * 0.1, 0.0]).unwrap());
/// }
/// // The cluster is dense now; the far point is still the only outlier.
/// assert_eq!(inc.outliers(), vec![lone]);
/// // Deleting a cluster member dissolves it again: every survivor
/// // reverts to outlier, exactly as a batch run would label them.
/// assert!(inc.remove(ids[1]));
/// assert_eq!(inc.outliers().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalDbscout {
    params: DbscoutParams,
    side: f64,
    /// Every point ever inserted, by id — removed points keep their
    /// coordinates here (ids are never recycled), so `store()` and the
    /// delete path's "where was it" lookups stay O(1).
    all_points: PointStore,
    /// Live points only, in the mutable slack-slot layout the kernels
    /// scan.
    mstore: MutableCellMajor,
    offsets: NeighborOffsets,
    /// Exact ε-neighbor count per point (self included).
    counts: Vec<u32>,
    labels: Vec<PointLabel>,
    alive: Vec<bool>,
    num_alive: usize,
    /// The resolved distance kernel (never `Auto`).
    kernel: KernelKind,
    counters: KernelCounters,
}

impl IncrementalDbscout {
    /// An empty incremental detector for `dims`-dimensional points, with
    /// the `Auto` kernel.
    pub fn new(dims: usize, params: DbscoutParams) -> Result<Self> {
        Self::empty(dims, params, KernelKind::Auto)
    }

    /// Bulk-loads an initial dataset (equivalent to inserting every point
    /// in order) with the `Auto` kernel.
    pub fn from_store(store: &PointStore, params: DbscoutParams) -> Result<Self> {
        Self::from_store_with(store, params, KernelKind::Auto)
    }

    /// Bulk-loads an initial dataset with an explicit distance kernel.
    pub fn from_store_with(
        store: &PointStore,
        params: DbscoutParams,
        kernel: KernelKind,
    ) -> Result<Self> {
        let mut inc = Self::empty(store.dims(), params, kernel)?;
        inc.extend(store)?;
        Ok(inc)
    }

    fn empty(dims: usize, params: DbscoutParams, kernel: KernelKind) -> Result<Self> {
        let offsets = NeighborOffsets::new(dims)?;
        let mstore = MutableCellMajor::new(dims, params.eps)?;
        Ok(Self {
            params,
            side: cell_side(params.eps, dims),
            all_points: PointStore::new(dims)?,
            mstore,
            offsets,
            counts: Vec::new(),
            labels: Vec::new(),
            alive: Vec::new(),
            num_alive: 0,
            kernel: kernel.resolve(),
            counters: KernelCounters::new(),
        })
    }

    /// Number of live (non-removed) points.
    pub fn len(&self) -> usize {
        self.num_alive
    }

    /// Whether the detector holds no live points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slots ever allocated (live + removed); ids are always
    /// `0..total_inserted()`.
    pub fn total_inserted(&self) -> usize {
        self.labels.len()
    }

    /// Whether `id` is live (inserted and not removed).
    pub fn is_alive(&self, id: PointId) -> bool {
        self.alive.get(id as usize).copied().unwrap_or(false)
    }

    /// The configured parameters.
    pub fn params(&self) -> DbscoutParams {
        self.params
    }

    /// The resolved distance kernel (never `Auto`).
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// The current label of a point. Ids this detector never issued
    /// report [`PointLabel::Outlier`].
    pub fn label(&self, id: PointId) -> PointLabel {
        self.labels
            .get(id as usize)
            .copied()
            .unwrap_or(PointLabel::Outlier)
    }

    /// All current labels, indexed by point id.
    pub fn labels(&self) -> &[PointLabel] {
        &self.labels
    }

    /// Ids of all current live outliers, ascending.
    pub fn outliers(&self) -> Vec<PointId> {
        self.labels
            .iter()
            .zip(&self.alive)
            .enumerate()
            .filter(|&(_, (l, &alive))| alive && l.is_outlier())
            .map(|(i, _)| i as PointId)
            .collect()
    }

    /// Every point ever inserted, by id (removed points keep their
    /// coordinates; ids are never recycled).
    pub fn store(&self) -> &PointStore {
        &self.all_points
    }

    /// Kernel work counters accumulated over every operation so far
    /// (inserts, removals, probes), from the counted batch kernels (bbox
    /// prunes included).
    pub fn kernel_counters(&self) -> KernelCounters {
        self.counters
    }

    /// Cell-run relocations the mutable store performed.
    pub fn rebuilds(&self) -> u64 {
        self.mstore.rebuilds()
    }

    /// Whole-layout compactions the mutable store performed.
    pub fn compactions(&self) -> u64 {
        self.mstore.compactions()
    }

    /// The current state as a batch [`OutlierResult`] (one label per
    /// ever-issued id). Removed points are reported as
    /// [`PointLabel::Covered`] so they never surface in the outlier list;
    /// timings and distance counters are zero — the incremental engine
    /// spreads its work across operations (see [`Self::kernel_counters`]
    /// for the accumulated totals).
    pub fn snapshot(&self) -> OutlierResult {
        let labels: Vec<PointLabel> = self
            .labels
            .iter()
            .zip(&self.alive)
            .map(|(&l, &alive)| if alive { l } else { PointLabel::Covered })
            .collect();
        let min_pts = self.params.min_pts;
        let mut dense_cells = 0;
        let mut core_cells = 0;
        let ids = self.mstore.store().orig_ids();
        for (_, range) in self.mstore.live_ranges() {
            dense_cells += usize::from(range.len() >= min_pts);
            let has_core = range.clone().any(|slot| {
                ids.get(slot)
                    .and_then(|&id| self.labels.get(id as usize))
                    .map(|l| matches!(l, PointLabel::Core))
                    .unwrap_or(false)
            });
            core_cells += usize::from(has_core);
        }
        let stats = RunStats {
            num_cells: self.mstore.num_live_cells(),
            dense_cells,
            core_cells,
            ..RunStats::default()
        };
        OutlierResult::from_labels(labels, stats, PhaseTimings::default())
    }

    /// Rejects points the store would reject, without mutating it.
    fn validate(&self, point: &[f64]) -> Result<()> {
        if point.len() != self.all_points.dims() {
            return Err(SpatialError::DimensionMismatch {
                expected: self.all_points.dims(),
                got: point.len(),
            }
            .into());
        }
        checked_cell_of(point, self.side, self.total_inserted())?;
        Ok(())
    }

    /// Collects the ids of every live point within ε of `point` via the
    /// counted kernels: per neighbor cell, bbox prune then a
    /// kernel-dispatched columnar scan over the cell's live run.
    fn neighbors_of(&mut self, point: &[f64], out: &mut Vec<PointId>) {
        out.clear();
        let coord = cell_of(point, self.side);
        let eps_sq = self.params.eps_sq();
        let mut slots: Vec<u32> = Vec::new();
        for off in self.offsets.iter() {
            let Some(ncoord) = NeighborOffsets::apply(&coord, off) else {
                continue;
            };
            let store = self.mstore.store();
            let Some(ci) = store.cell_index(&ncoord) else {
                continue;
            };
            let Some(rec) = store.cells().get(ci as usize).copied() else {
                continue;
            };
            if rec.is_empty() {
                continue;
            }
            self.counters.cells_visited += 1;
            if store.min_sq_dist_to_bbox(point, ci as usize) > eps_sq {
                self.counters.bbox_prunes += 1;
                continue;
            }
            slots.clear();
            let comps =
                store.collect_within_kernel(point, rec.range(), eps_sq, self.kernel, &mut slots);
            self.counters.distance_evals += comps;
            let ids = store.orig_ids();
            for &slot in &slots {
                if let Some(&id) = ids.get(slot as usize) {
                    out.push(id);
                }
            }
        }
    }

    /// Inserts one point and restores all label invariants; returns the
    /// new point's id.
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch, non-finite coordinates, or a
    /// coordinate outside the exact cell range
    /// ([`dbscout_spatial::SpatialError`] via [`crate::DbscoutError`]);
    /// the state is unchanged then.
    pub fn insert(&mut self, point: &[f64]) -> Result<PointId> {
        self.validate(point)?;
        let id = self.all_points.push(point)?;
        let min_pts = self.params.min_pts as u32;

        // ε-neighbors among the live points (the new point is not in the
        // mutable store yet).
        let mut nbrs: Vec<PointId> = Vec::new();
        self.neighbors_of(point, &mut nbrs);
        let my_count = 1 + nbrs.len() as u32;
        let mut newly_core: Vec<PointId> = Vec::new();
        for &q in &nbrs {
            if let Some(cnt) = self.counts.get_mut(q as usize) {
                *cnt += 1;
                if *cnt == min_pts {
                    newly_core.push(q);
                }
            }
        }

        // Label the new point before registering it, so the coverage scan
        // only ever sees fully-labelled points.
        let label = if my_count >= min_pts {
            newly_core.push(id);
            PointLabel::Core
        } else if nbrs
            .iter()
            .any(|&q| self.labels.get(q as usize) == Some(&PointLabel::Core))
        {
            PointLabel::Covered
        } else {
            PointLabel::Outlier
        };
        self.mstore
            .insert(id, point)
            .map_err(crate::DbscoutError::from)?;
        self.counts.push(my_count);
        self.labels.push(label);
        self.alive.push(true);
        self.num_alive += 1;

        // Every newly-core point upgrades itself and rescues the former
        // outliers inside its ε-ball (monotone: no downgrade can occur).
        let mut cn: Vec<PointId> = Vec::new();
        for c in newly_core {
            if let Some(l) = self.labels.get_mut(c as usize) {
                *l = PointLabel::Core;
            }
            let cpoint = self.all_points.point(c).to_vec();
            self.neighbors_of(&cpoint, &mut cn);
            for &q in &cn {
                if self.labels.get(q as usize) == Some(&PointLabel::Outlier) {
                    if let Some(l) = self.labels.get_mut(q as usize) {
                        *l = PointLabel::Covered;
                    }
                }
            }
        }
        Ok(id)
    }

    /// Inserts a batch of points; returns the id of the first one (ids
    /// are consecutive).
    ///
    /// # Errors
    ///
    /// Fails on the first invalid point; earlier points of the batch
    /// remain inserted.
    pub fn extend(&mut self, store: &PointStore) -> Result<PointId> {
        let first = self.total_inserted() as PointId;
        for (_, p) in store.iter() {
            self.insert(p)?;
        }
        Ok(first)
    }

    /// Removes a live point and restores all label invariants for the
    /// remaining points; returns `false` if `id` was already removed (or
    /// never existed).
    ///
    /// Deletion is the non-monotone direction: ε-neighbors of the removed
    /// point lose one neighbor each, demoted core points stop vouching
    /// for their surroundings, and points they covered may revert to
    /// outliers. All effects are confined to the 2-hop cell neighborhood
    /// of the removed point, so the work stays constant for fixed
    /// parameters on bounded-density data.
    pub fn remove(&mut self, id: PointId) -> bool {
        if !self.is_alive(id) {
            return false;
        }
        let min_pts = self.params.min_pts as u32;
        let point = self.all_points.point(id).to_vec();

        // Unregister first, so every scan below sees the survivor set.
        self.mstore.remove(id);
        if let Some(a) = self.alive.get_mut(id as usize) {
            *a = false;
        }
        self.num_alive -= 1;

        // Decrement neighbor counts; collect core points that lost their
        // status, plus the removed point itself if it was core — their
        // coverage contributions vanish together.
        let mut lost_cores: Vec<PointId> = Vec::new();
        if self.labels.get(id as usize) == Some(&PointLabel::Core) {
            lost_cores.push(id);
        }
        let mut nbrs: Vec<PointId> = Vec::new();
        self.neighbors_of(&point, &mut nbrs);
        for &q in &nbrs {
            let demoted = match self.counts.get_mut(q as usize) {
                Some(cnt) => {
                    *cnt -= 1;
                    *cnt == min_pts - 1
                }
                None => false,
            };
            if demoted && self.labels.get(q as usize) == Some(&PointLabel::Core) {
                lost_cores.push(q);
            }
        }

        // First drop every lost core out of the Core class so the
        // coverage scans below see the post-removal core set...
        for &c in &lost_cores {
            if let Some(l) = self.labels.get_mut(c as usize) {
                *l = PointLabel::Covered; // provisional
            }
        }
        // ...then re-evaluate every live point that may have depended on
        // a lost core: the demoted points themselves and all Covered
        // points within ε of any lost core.
        let mut affected: Vec<PointId> = Vec::new();
        let mut cn: Vec<PointId> = Vec::new();
        for &c in &lost_cores {
            if c != id {
                affected.push(c);
            }
            let cpoint = self.all_points.point(c).to_vec();
            self.neighbors_of(&cpoint, &mut cn);
            for &r in &cn {
                if self.labels.get(r as usize) == Some(&PointLabel::Covered) {
                    affected.push(r);
                }
            }
        }
        affected.sort_unstable();
        affected.dedup();
        let mut rn: Vec<PointId> = Vec::new();
        for r in affected {
            if self.labels.get(r as usize) == Some(&PointLabel::Core) {
                continue; // still core through its own count
            }
            let rpoint = self.all_points.point(r).to_vec();
            self.neighbors_of(&rpoint, &mut rn);
            let covered = rn
                .iter()
                .any(|&q| self.labels.get(q as usize) == Some(&PointLabel::Core));
            let verdict = if covered {
                PointLabel::Covered
            } else {
                PointLabel::Outlier
            };
            if let Some(l) = self.labels.get_mut(r as usize) {
                *l = verdict;
            }
        }
        true
    }

    /// Classifies `point` as if it were inserted, without inserting it:
    /// the answer equals "insert, then read the label" (the probe point
    /// can tip a `minPts − 1` neighbor into core, which would cover it).
    /// The point set and labels are untouched; only telemetry counters
    /// advance, hence `&mut self`.
    ///
    /// # Errors
    ///
    /// Fails like [`Self::insert`].
    pub fn probe(&mut self, point: &[f64]) -> Result<PointLabel> {
        self.validate(point)?;
        let min_pts = self.params.min_pts as u32;
        let mut nbrs: Vec<PointId> = Vec::new();
        self.neighbors_of(point, &mut nbrs);
        if 1 + nbrs.len() as u32 >= min_pts {
            return Ok(PointLabel::Core);
        }
        // Covered if a neighbor is core already, or would become core
        // with the probe point as its one extra neighbor.
        let covered = nbrs.iter().any(|&q| {
            self.labels.get(q as usize) == Some(&PointLabel::Core)
                || self.counts.get(q as usize).copied() == Some(min_pts - 1)
        });
        Ok(if covered {
            PointLabel::Covered
        } else {
            PointLabel::Outlier
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::detect_outliers;

    fn params(eps: f64, min_pts: usize) -> DbscoutParams {
        DbscoutParams::new(eps, min_pts).unwrap()
    }

    #[test]
    fn single_point_is_outlier_unless_min_pts_one() {
        let mut inc = IncrementalDbscout::new(2, params(1.0, 2)).unwrap();
        let id = inc.insert(&[0.0, 0.0]).unwrap();
        assert_eq!(inc.label(id), PointLabel::Outlier);
        let mut inc = IncrementalDbscout::new(2, params(1.0, 1)).unwrap();
        let id = inc.insert(&[0.0, 0.0]).unwrap();
        assert_eq!(inc.label(id), PointLabel::Core);
    }

    #[test]
    fn labels_upgrade_monotonically_as_cluster_forms() {
        let mut inc = IncrementalDbscout::new(2, params(1.0, 4)).unwrap();
        let first = inc.insert(&[0.0, 0.0]).unwrap();
        assert_eq!(inc.label(first), PointLabel::Outlier);
        inc.insert(&[0.2, 0.0]).unwrap();
        inc.insert(&[0.0, 0.2]).unwrap();
        // Still below minPts = 4.
        assert_eq!(inc.label(first), PointLabel::Outlier);
        inc.insert(&[0.2, 0.2]).unwrap();
        // Now every point has 4 neighbors: all core.
        for i in 0..4 {
            assert_eq!(inc.label(i), PointLabel::Core, "point {i}");
        }
    }

    #[test]
    fn newly_core_point_rescues_distant_outlier() {
        // A border point beyond the forming cluster becomes covered the
        // moment its neighbor turns core.
        let mut inc = IncrementalDbscout::new(2, params(0.5, 5)).unwrap();
        let border = inc.insert(&[0.9, 0.0]).unwrap();
        for i in 0..5 {
            inc.insert(&[i as f64 * 0.1, 0.0]).unwrap();
        }
        // The chain 0.0..0.4 is core; 0.9 is within 0.5 of the core
        // at 0.4 but has only 2 neighbors.
        assert_eq!(inc.label(border), PointLabel::Covered);
    }

    #[test]
    fn matches_batch_after_every_insert() {
        // The exactness invariant, checked at every prefix.
        let pts: Vec<[f64; 2]> = vec![
            [0.0, 0.0],
            [10.0, 10.0],
            [0.3, 0.1],
            [0.1, 0.3],
            [0.2, 0.2],
            [1.2, 0.0],
            [10.1, 10.1],
            [10.2, 9.9],
            [0.15, 0.15],
            [2.0, 0.2],
            [10.05, 10.05],
        ];
        let p = params(1.0, 4);
        let mut inc = IncrementalDbscout::new(2, p).unwrap();
        let mut batch_store = PointStore::new(2).unwrap();
        for pt in &pts {
            inc.insert(pt).unwrap();
            batch_store.push(pt).unwrap();
            let batch = detect_outliers(&batch_store, p).unwrap();
            assert_eq!(
                inc.labels(),
                batch.labels.as_slice(),
                "diverged after {} inserts",
                batch_store.len()
            );
        }
    }

    #[test]
    fn from_store_equals_batch() {
        let store = PointStore::from_rows(
            2,
            (0..60).map(|i| vec![(i % 8) as f64 * 0.4, (i / 8) as f64 * 0.4]),
        )
        .unwrap();
        let p = params(1.0, 5);
        let batch = detect_outliers(&store, p).unwrap();
        for kernel in [KernelKind::Scalar, KernelKind::Unrolled] {
            let inc = IncrementalDbscout::from_store_with(&store, p, kernel).unwrap();
            assert_eq!(inc.labels(), batch.labels.as_slice(), "{kernel:?}");
            assert_eq!(inc.outliers(), batch.outliers, "{kernel:?}");
            assert_eq!(inc.len(), 60);
            assert_eq!(inc.kernel(), kernel);
        }
    }

    #[test]
    fn extend_matches_pointwise_inserts() {
        let store = PointStore::from_rows(
            2,
            (0..30).map(|i| vec![(i % 6) as f64 * 0.3, (i / 6) as f64 * 0.3]),
        )
        .unwrap();
        let p = params(1.0, 4);
        let mut batch = IncrementalDbscout::new(2, p).unwrap();
        let first = batch.extend(&store).unwrap();
        assert_eq!(first, 0);
        let pointwise = IncrementalDbscout::from_store(&store, p).unwrap();
        assert_eq!(batch.labels(), pointwise.labels());
        // Extending again starts at the next id.
        let second = batch.extend(&store).unwrap();
        assert_eq!(second, 30);
        assert_eq!(batch.len(), 60);
    }

    #[test]
    fn rejects_bad_input() {
        let mut inc = IncrementalDbscout::new(2, params(1.0, 3)).unwrap();
        assert!(inc.insert(&[1.0]).is_err());
        assert!(inc.insert(&[f64::NAN, 0.0]).is_err());
        assert!(inc.probe(&[1.0]).is_err());
        assert!(inc.probe(&[f64::INFINITY, 0.0]).is_err());
        assert!(inc.is_empty());
    }

    #[test]
    fn remove_reverts_labels() {
        // Build a minimal core configuration, then dismantle it.
        let mut inc = IncrementalDbscout::new(2, params(0.5, 3)).unwrap();
        let a = inc.insert(&[0.0, 0.0]).unwrap();
        let b = inc.insert(&[0.1, 0.0]).unwrap();
        let c = inc.insert(&[0.2, 0.0]).unwrap();
        // d reaches only c (dist 0.5 exactly; a and b are too far).
        let d = inc.insert(&[0.7, 0.0]).unwrap();
        assert_eq!(inc.label(a), PointLabel::Core);
        assert_eq!(inc.label(c), PointLabel::Core);
        assert_eq!(inc.label(d), PointLabel::Covered);

        // Removing the bridge point c demotes a and b (2 neighbors
        // left) and strands d entirely.
        assert!(inc.remove(c));
        assert_eq!(inc.label(a), PointLabel::Outlier);
        assert_eq!(inc.label(b), PointLabel::Outlier);
        assert_eq!(inc.label(d), PointLabel::Outlier);
        assert!(!inc.is_alive(c));
        assert_eq!(inc.len(), 3);
    }

    #[test]
    fn remove_is_idempotent_and_checked() {
        let mut inc = IncrementalDbscout::new(2, params(1.0, 2)).unwrap();
        let id = inc.insert(&[0.0, 0.0]).unwrap();
        assert!(inc.remove(id));
        assert!(!inc.remove(id), "double remove must report false");
        assert!(!inc.remove(99), "unknown id must report false");
        assert!(inc.is_empty());
    }

    #[test]
    fn insert_after_remove_reuses_nothing_but_works() {
        let mut inc = IncrementalDbscout::new(2, params(1.0, 2)).unwrap();
        let a = inc.insert(&[0.0, 0.0]).unwrap();
        inc.remove(a);
        let b = inc.insert(&[0.0, 0.0]).unwrap();
        assert_ne!(a, b, "ids are never reused");
        assert_eq!(inc.total_inserted(), 2);
        assert_eq!(inc.len(), 1);
        assert_eq!(inc.outliers(), vec![b]);
    }

    #[test]
    fn mixed_insert_remove_matches_batch() {
        // A scripted churn sequence; after every operation the live
        // points must carry exactly the batch labels.
        let inserts: Vec<[f64; 2]> = vec![
            [0.0, 0.0],
            [0.2, 0.0],
            [0.0, 0.2],
            [0.2, 0.2],
            [1.0, 0.0],
            [5.0, 5.0],
            [5.2, 5.0],
            [5.0, 5.2],
            [0.1, 0.1],
            [5.1, 5.1],
        ];
        let p = params(0.9, 4);
        let mut inc = IncrementalDbscout::new(2, p).unwrap();
        let mut ids = Vec::new();
        for pt in &inserts {
            ids.push(inc.insert(pt).unwrap());
        }
        for &victim in &[ids[1], ids[6], ids[0], ids[9]] {
            inc.remove(victim);
            // Rebuild the live subset and compare against a batch run.
            let live: Vec<u32> = (0..inc.total_inserted() as u32)
                .filter(|&i| inc.is_alive(i))
                .collect();
            let batch_store = inc.store().gather(&live);
            let batch = detect_outliers(&batch_store, p).unwrap();
            for (bi, &id) in live.iter().enumerate() {
                assert_eq!(
                    inc.label(id),
                    batch.labels[bi],
                    "label of {id} diverged after removing {victim}"
                );
            }
        }
    }

    #[test]
    fn duplicate_points_count_individually() {
        let mut inc = IncrementalDbscout::new(2, params(1.0, 3)).unwrap();
        inc.insert(&[5.0, 5.0]).unwrap();
        inc.insert(&[5.0, 5.0]).unwrap();
        assert_eq!(inc.outliers().len(), 2);
        inc.insert(&[5.0, 5.0]).unwrap();
        // Three coincident points with minPts = 3: all core.
        assert_eq!(inc.outliers().len(), 0);
        assert!(inc.labels().iter().all(|l| *l == PointLabel::Core));
    }

    #[test]
    fn probe_equals_insert_then_label() {
        let pts: Vec<[f64; 2]> = vec![
            [0.0, 0.0],
            [0.2, 0.0],
            [0.0, 0.2],
            [1.0, 1.0],
            [5.0, 5.0],
            [0.1, 0.1],
        ];
        let probes: Vec<[f64; 2]> = vec![
            [0.1, 0.0],   // would be core
            [0.9, 0.15],  // near the cluster edge
            [5.1, 5.1],   // tips a min_pts-1 neighbor into core
            [20.0, 20.0], // isolated
        ];
        let p = params(0.5, 3);
        let mut inc = IncrementalDbscout::new(2, p).unwrap();
        for pt in &pts {
            inc.insert(pt).unwrap();
        }
        for q in &probes {
            let probed = inc.probe(q).unwrap();
            let mut clone = inc.clone();
            let id = clone.insert(q).unwrap();
            assert_eq!(probed, clone.label(id), "probe of {q:?}");
            // The probe itself must not have changed any state.
            assert_eq!(inc.len(), pts.len());
        }
    }

    #[test]
    fn counts_kernel_work_and_snapshot_matches_batch() {
        let p = params(0.7, 3);
        let pts: Vec<[f64; 2]> = (0..40)
            .map(|i| [((i * 13) % 17) as f64 * 0.25, ((i * 5) % 11) as f64 * 0.25])
            .collect();
        let mut inc = IncrementalDbscout::new(2, p).unwrap();
        for pt in &pts {
            inc.insert(pt).unwrap();
        }
        for id in [3u32, 17, 31] {
            inc.remove(id);
        }
        let counters = inc.kernel_counters();
        assert!(counters.distance_evals > 0);
        assert!(counters.cells_visited > 0);
        assert_eq!(inc.kernel(), KernelKind::Unrolled);
        // Snapshot cell statistics equal a batch run on the survivors.
        let live: Vec<u32> = (0..inc.total_inserted() as u32)
            .filter(|&i| inc.is_alive(i))
            .collect();
        let batch = detect_outliers(&inc.store().gather(&live), p).unwrap();
        let snap = inc.snapshot();
        assert_eq!(snap.stats.num_cells, batch.stats.num_cells);
        assert_eq!(snap.stats.dense_cells, batch.stats.dense_cells);
        assert_eq!(snap.stats.core_cells, batch.stats.core_cells);
    }
}
