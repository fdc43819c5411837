//! The distributed DBSCOUT formulation: paper Algorithms 1–5 expressed as
//! dataflow transformations over [`dbscout_dataflow`], the Spark-substitute
//! substrate.
//!
//! Differences from the pseudocode, all noted in `DESIGN.md`:
//!
//! * Algorithm 3 line 17 writes `dist < ε`; Definition 2 uses `≤ ε`. We
//!   follow the definition.
//! * Algorithm 5 line 4 writes `CoreNeighbors(C) ≠ ∅` for the cells whose
//!   points are outliers outright, but the prose ("having **no**
//!   neighboring core cell") requires `= ∅`. We follow the prose.
//! * Algorithm 5 line 16 joins `pointsToCheck` with `𝒢`, but the prose
//!   says "joined … with the set of **core points**" — joining with the
//!   full grid would let non-core points vouch for their neighbors and
//!   break Definition 3. We join with the core-point set.
//!
//! The `§III-G` practical optimizations are selectable via
//! [`JoinStrategy`]: the plain shuffle join, *grouping before joining*
//! (which also enables the early-exit optimizations), and the *broadcast
//! join*.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbscout_dataflow::shuffle::DetHashMap;
use dbscout_dataflow::{Dataset, ExecutionContext};
use dbscout_spatial::cell::{cell_of, cell_side, checked_cell_of, MAX_DIMS};
use dbscout_spatial::distance::within;
use dbscout_spatial::points::PointId;
use dbscout_spatial::CellCoord;
use dbscout_spatial::PointStore;
use dbscout_telemetry::{KernelCounters, Span, SpanKind};

use crate::cellmap::CellMap;
use crate::error::Result;
use crate::labels::{OutlierResult, PhaseTimings, PointLabel, RunStats};
use crate::params::DbscoutParams;

/// Phase label for Algorithm 1 (`CREATE-GRID`).
pub const PHASE_GRID: &str = "grid partitioning";
/// Phase label for Algorithm 2 (`BUILD-DENSE-CELL-MAP`).
pub const PHASE_CELLS: &str = "cell classification";
/// Phase label for Algorithm 3 (`FIND-CORE-POINTS`).
pub const PHASE_CORE_POINTS: &str = "core-point pass";
/// Phase label for Algorithm 4 (`BUILD-CORE-CELL-MAP`).
pub const PHASE_CORE_MAP: &str = "core-map pass";
/// Phase label for Algorithm 5 (`FIND-OUTLIERS`).
pub const PHASE_OUTLIERS: &str = "outlier pass";

/// Points per stage-0 ingest batch: the distributed grid phase feeds
/// `parallelize_batches` in chunks of this size instead of one n-sized
/// `Vec` (matches [`dbscout_data::DEFAULT_BATCH_SIZE`]).
const INGEST_BATCH: usize = 8192;

/// The five phase labels in execution order, as used for stage prefixes,
/// phase spans, and run-report phase names.
pub const PHASE_NAMES: [&str; 5] = [
    PHASE_GRID,
    PHASE_CELLS,
    PHASE_CORE_POINTS,
    PHASE_CORE_MAP,
    PHASE_OUTLIERS,
];

/// How the two join-heavy phases move data (paper §III-G).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// The plain shuffle join of Algorithms 3 and 5.
    Shuffle,
    /// *Grouping before joining* (§III-G-2): the emitted check-points are
    /// grouped per target cell before the join, shrinking one operand to
    /// at most one record per cell and enabling the early-exit rules
    /// (stop counting at `minPts`; stop on the first covering core
    /// point). The paper runs all its experiments with this strategy.
    #[default]
    GroupedShuffle,
    /// *Broadcast join* (§III-G-1): collect the check-points into a
    /// driver-side map broadcast to all workers, eliminating the shuffle
    /// join. Fastest when few points need checking (large ε), but can
    /// exhaust memory — exactly the trade-off the paper describes.
    Broadcast,
}

/// A point record flowing through the dataflow graph: id plus inlined
/// coordinates (so distance computations need no driver lookups).
#[derive(Debug, Clone, Copy)]
pub struct PointRec {
    /// Id of the point in the originating store.
    pub id: PointId,
    dims: u8,
    coords: [f64; MAX_DIMS],
}

impl PointRec {
    fn new(id: PointId, p: &[f64]) -> Self {
        let mut coords = [0.0; MAX_DIMS];
        for (out, &x) in coords.iter_mut().zip(p) {
            *out = x;
        }
        Self {
            id,
            dims: p.len() as u8,
            coords,
        }
    }

    /// The point's coordinates.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        // `dims <= MAX_DIMS` is a constructor invariant; fall back to the
        // full buffer rather than panic.
        self.coords
            .get(..self.dims as usize)
            .unwrap_or(&self.coords)
    }
}

/// The distributed DBSCOUT detector.
///
/// Point data is partitioned across the execution context's workers; each
/// phase is a stage of dataflow transformations mirroring the paper's
/// pseudocode, with cell maps broadcast between stages.
#[derive(Debug, Clone)]
pub struct DistributedDbscout {
    ctx: Arc<ExecutionContext>,
    params: DbscoutParams,
    num_partitions: usize,
    strategy: JoinStrategy,
}

impl DistributedDbscout {
    /// A detector running on `ctx` with the context's default partition
    /// count and the [`JoinStrategy::GroupedShuffle`] optimization.
    pub fn new(ctx: Arc<ExecutionContext>, params: DbscoutParams) -> Self {
        let num_partitions = ctx.default_partitions();
        Self {
            ctx,
            params,
            num_partitions,
            strategy: JoinStrategy::default(),
        }
    }

    /// Overrides the number of data partitions (paper Fig. 13 varies
    /// this).
    pub fn with_partitions(mut self, n: usize) -> Self {
        self.num_partitions = n.max(1);
        self
    }

    /// Selects a join strategy (§III-G).
    pub fn with_strategy(mut self, strategy: JoinStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The configured parameters.
    pub fn params(&self) -> DbscoutParams {
        self.params
    }

    /// The execution context this detector runs on (for metrics snapshots
    /// and fault-tolerance configuration).
    pub fn ctx(&self) -> &Arc<ExecutionContext> {
        &self.ctx
    }

    /// Closes out the phase that began at `started`: returns its duration
    /// and, when a recorder is installed on the context, emits one
    /// [`SpanKind::Phase`] span on the driver lane.
    fn finish_phase(&self, name: &'static str, started: Instant) -> Duration {
        let duration = started.elapsed();
        if let Some(rec) = self.ctx.recorder() {
            rec.record_span(Span::new(name, SpanKind::Phase, started, duration));
        }
        duration
    }

    /// Detects all outliers of `store`, exactly, per Definitions 2–3.
    ///
    /// Each paper phase labels the context's stages (`"core-point pass"`,
    /// `"outlier pass"`, … — see [`PHASE_NAMES`]) so task failures and
    /// fault plans name the algorithm phase, and — when a recorder is
    /// installed on the context — emits one phase span per phase. A
    /// failed detection intentionally leaves the label of the failing
    /// phase set on the context.
    pub fn detect(&self, store: &PointStore) -> Result<OutlierResult> {
        let eps_sq = self.params.eps_sq();
        let min_pts = self.params.min_pts;
        let dims = store.dims();
        let side = cell_side(self.params.eps, dims);
        // The grid stage's map cannot fail per record, so reject points
        // whose cell index would not be exact before any stage runs.
        for (id, p) in store.iter() {
            checked_cell_of(p, side, id as usize)?;
        }
        let n = store.len() as usize;
        let dist_comps = Arc::new(AtomicU64::new(0));
        let mut timings = PhaseTimings::default();

        // ───────────── Phase 1: CREATE-GRID (Algorithm 1) ─────────────
        // Stage-0 ingest is chunked: points enter the dataflow in
        // fixed-size batches instead of one n-sized Vec, so the largest
        // transient is the partitions under construction plus one batch.
        // `parallelize_batches` reproduces `parallelize`'s contiguous
        // layout exactly, so per-partition stats are unchanged.
        self.ctx.set_stage(PHASE_GRID);
        let t = Instant::now();
        let batches = (0..n).step_by(INGEST_BATCH).map(|start| {
            let end = (start + INGEST_BATCH).min(n);
            (start..end)
                .map(|i| PointRec::new(i as u32, store.point(i as u32)))
                .collect::<Vec<_>>()
        });
        let grid: Dataset<(CellCoord, PointRec)> = self
            .ctx
            .parallelize_batches(n, batches, self.num_partitions)
            .map(|rec| (cell_of(rec.coords(), side), *rec))?;
        timings.grid = self.finish_phase(PHASE_GRID, t);

        // ──────── Phase 2: BUILD-DENSE-CELL-MAP (Algorithm 2) ─────────
        self.ctx.set_stage(PHASE_CELLS);
        let t = Instant::now();
        let counts = grid
            .map(|(c, _)| (*c, 1usize))?
            .reduce_by_key_with(self.num_partitions, |a, b| a + b)?
            .collect()?;
        let cell_map = CellMap::from_counts(dims, counts, min_pts)?;
        let dense_cells = cell_map.dense_cells();
        let num_cells = cell_map.len();
        let bcast_map = self.ctx.broadcast(cell_map);
        timings.dense_map = self.finish_phase(PHASE_CELLS, t);

        // ───────── Phase 3: FIND-CORE-POINTS (Algorithm 3) ────────────
        self.ctx.set_stage(PHASE_CORE_POINTS);
        let t = Instant::now();
        let cm = bcast_map.clone();
        let core_dense = grid.filter(move |(c, _)| cm.is_dense(c))?;
        let cm = bcast_map.clone();
        let non_dense = grid.filter(move |(c, _)| !cm.is_dense(c))?;
        let cm = bcast_map.clone();
        let points_to_check = non_dense.flat_map(move |(c, p)| {
            let c = *c;
            let p = *p;
            cm.neighbors(&c)
                .map(move |n| (n, (c, p)))
                .collect::<Vec<_>>()
        })?;

        // Count, per emitted (C, p), how many grid points of the target
        // cells fall within ε, then keep those reaching minPts.
        let counted: Dataset<((CellCoord, PointId), (usize, PointRec))> = match self.strategy {
            JoinStrategy::Shuffle => {
                let dc = Arc::clone(&dist_comps);
                grid.join_with(&points_to_check, self.num_partitions)?
                    .map(move |(_, (q, (c, p)))| {
                        dc.fetch_add(1, Ordering::Relaxed);
                        let hit = usize::from(within(p.coords(), q.coords(), eps_sq));
                        ((*c, p.id), (hit, *p))
                    })?
                    .reduce_by_key_with(self.num_partitions, |(a, p), (b, _)| (a + b, p))?
            }
            JoinStrategy::GroupedShuffle => {
                let grouped = points_to_check.group_by_key_with(self.num_partitions)?;
                let dc = Arc::clone(&dist_comps);
                grid.cogroup(&grouped, self.num_partitions)?
                    .flat_map(move |(_, (qs, groups))| {
                        let mut out = Vec::new();
                        for group in groups {
                            for (c, p) in group {
                                let mut hits = 0usize;
                                for q in qs {
                                    dc.fetch_add(1, Ordering::Relaxed);
                                    if within(p.coords(), q.coords(), eps_sq) {
                                        hits += 1;
                                        // Early exit (§III-G-2): partial
                                        // counts beyond minPts are wasted.
                                        if hits >= min_pts {
                                            break;
                                        }
                                    }
                                }
                                out.push(((*c, p.id), (hits, *p)));
                            }
                        }
                        out
                    })?
                    .reduce_by_key_with(self.num_partitions, |(a, p), (b, _)| {
                        (a.saturating_add(b), p)
                    })?
            }
            JoinStrategy::Broadcast => {
                let mut by_cell: DetHashMap<CellCoord, Vec<(CellCoord, PointRec)>> =
                    DetHashMap::default();
                for (ncell, check) in points_to_check.collect()? {
                    by_cell.entry(ncell).or_default().push(check);
                }
                let checks = self.ctx.broadcast(by_cell);
                let dc = Arc::clone(&dist_comps);
                grid.flat_map(move |(ncell, q)| {
                    let mut out = Vec::new();
                    if let Some(group) = checks.get(ncell) {
                        for (c, p) in group {
                            dc.fetch_add(1, Ordering::Relaxed);
                            let hit = usize::from(within(p.coords(), q.coords(), eps_sq));
                            out.push(((*c, p.id), (hit, *p)));
                        }
                    }
                    out
                })?
                .reduce_by_key_with(self.num_partitions, |(a, p), (b, _)| (a + b, p))?
            }
        };
        let core_non_dense = counted
            .filter(move |(_, (hits, _))| *hits >= min_pts)?
            .map(|((c, _), (_, p))| (*c, *p))?;
        let core_points = core_dense.union(&core_non_dense)?;
        timings.core_points = self.finish_phase(PHASE_CORE_POINTS, t);

        // ──────── Phase 4: BUILD-CORE-CELL-MAP (Algorithm 4) ──────────
        self.ctx.set_stage(PHASE_CORE_MAP);
        let t = Instant::now();
        let promoted: Vec<CellCoord> = core_non_dense.keys()?.collect()?;
        let mut cell_map = bcast_map.value().clone();
        for c in &promoted {
            cell_map.promote_to_core(c);
        }
        let core_cells = cell_map.core_cells();
        let bcast_map = self.ctx.broadcast(cell_map);
        timings.core_map = self.finish_phase(PHASE_CORE_MAP, t);

        // ────────── Phase 5: FIND-OUTLIERS (Algorithm 5) ──────────────
        self.ctx.set_stage(PHASE_OUTLIERS);
        let t = Instant::now();
        let cm = bcast_map.clone();
        let non_core = grid.filter(move |(c, _)| !cm.is_core(c))?;
        let cm = bcast_map.clone();
        // O_ncn: non-core cells with no core neighbor — all outliers.
        let outliers_no_neighbor = non_core.filter(move |(c, _)| !cm.has_core_neighbor(c))?;
        let cm = bcast_map.clone();
        let points_to_check = non_core
            .filter(move |(c, _)| cm.has_core_neighbor(c))?
            .flat_map({
                let cm = bcast_map.clone();
                move |(c, p)| {
                    let c = *c;
                    let p = *p;
                    cm.core_neighbors(&c)
                        .map(move |n| (n, (c, p)))
                        .collect::<Vec<_>>()
                }
            })?;

        // Per emitted (C, p): is p within ε of any core point of the
        // target core cells? (OR-reduce; the paper AND-reduces the negated
        // flag, which is equivalent.)
        let covered: Dataset<((CellCoord, PointId), (bool, PointRec))> = match self.strategy {
            JoinStrategy::Shuffle => {
                let dc = Arc::clone(&dist_comps);
                core_points
                    .join_with(&points_to_check, self.num_partitions)?
                    .map(move |(_, (q, (c, p)))| {
                        dc.fetch_add(1, Ordering::Relaxed);
                        let hit = within(p.coords(), q.coords(), eps_sq);
                        ((*c, p.id), (hit, *p))
                    })?
                    .reduce_by_key_with(self.num_partitions, |(a, p), (b, _)| (a || b, p))?
            }
            JoinStrategy::GroupedShuffle => {
                let grouped = points_to_check.group_by_key_with(self.num_partitions)?;
                let dc = Arc::clone(&dist_comps);
                core_points
                    .cogroup(&grouped, self.num_partitions)?
                    .flat_map(move |(_, (qs, groups))| {
                        let mut out = Vec::new();
                        for group in groups {
                            for (c, p) in group {
                                let mut hit = false;
                                for q in qs {
                                    dc.fetch_add(1, Ordering::Relaxed);
                                    if within(p.coords(), q.coords(), eps_sq) {
                                        // Early exit (§III-G-2): one
                                        // covering core point suffices.
                                        hit = true;
                                        break;
                                    }
                                }
                                out.push(((*c, p.id), (hit, *p)));
                            }
                        }
                        out
                    })?
                    .reduce_by_key_with(self.num_partitions, |(a, p), (b, _)| (a || b, p))?
            }
            JoinStrategy::Broadcast => {
                let mut core_by_cell: DetHashMap<CellCoord, Vec<PointRec>> = DetHashMap::default();
                for (c, q) in core_points.collect()? {
                    core_by_cell.entry(c).or_default().push(q);
                }
                let cores = self.ctx.broadcast(core_by_cell);
                let dc = Arc::clone(&dist_comps);
                points_to_check
                    .map(move |(ncell, (c, p))| {
                        let mut hit = false;
                        if let Some(qs) = cores.get(ncell) {
                            for q in qs {
                                dc.fetch_add(1, Ordering::Relaxed);
                                if within(p.coords(), q.coords(), eps_sq) {
                                    hit = true;
                                    break;
                                }
                            }
                        }
                        ((*c, p.id), (hit, *p))
                    })?
                    .reduce_by_key_with(self.num_partitions, |(a, p), (b, _)| (a || b, p))?
            }
        };
        let outliers_checked = covered
            .filter(|(_, (hit, _))| !hit)?
            .map(|((c, _), (_, p))| (*c, *p))?;
        let outliers = outliers_no_neighbor.union(&outliers_checked)?;
        timings.outliers = self.finish_phase(PHASE_OUTLIERS, t);
        self.ctx.clear_stage();

        // Assemble the per-point labels on the driver.
        let mut labels = vec![PointLabel::Covered; n];
        for (_, p) in core_points.collect()? {
            if let Some(l) = labels.get_mut(p.id as usize) {
                *l = PointLabel::Core;
            }
        }
        for (_, p) in outliers.collect()? {
            if let Some(l) = labels.get_mut(p.id as usize) {
                *l = PointLabel::Outlier;
            }
        }

        // xtask-lint: allow(XL009) -- tally read strictly after scope joins
        let distance_evals = dist_comps.load(Ordering::Relaxed);
        let stats = RunStats {
            num_cells,
            dense_cells,
            core_cells,
            distance_computations: distance_evals,
            kernel: KernelCounters {
                distance_evals,
                ..KernelCounters::new()
            },
        };
        Ok(OutlierResult::from_labels(labels, stats, timings))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::detect_outliers;
    use crate::reference::naive_labels;

    fn ctx() -> Arc<ExecutionContext> {
        ExecutionContext::builder()
            .workers(4)
            .default_partitions(6)
            .build()
    }

    fn store_2d(points: &[[f64; 2]]) -> PointStore {
        PointStore::from_rows(2, points.iter().map(|p| p.to_vec())).unwrap()
    }

    fn mixed_dataset() -> PointStore {
        let mut pts = Vec::new();
        // Dense blob.
        for i in 0..3 {
            for j in 0..3 {
                pts.push([i as f64 * 0.3, j as f64 * 0.3]);
            }
        }
        // Medium blob a bit away (non-dense cells, core via neighbors).
        for i in 0..5 {
            pts.push([5.0 + i as f64 * 0.4, 5.0]);
        }
        // A reachable border point and stragglers.
        pts.push([1.5, 0.0]);
        pts.push([2.8, 0.1]);
        pts.push([20.0, -20.0]);
        pts.push([-13.0, 7.0]);
        store_2d(&pts)
    }

    #[test]
    fn all_strategies_match_naive_reference() {
        let store = mixed_dataset();
        let params = DbscoutParams::new(1.0, 5).unwrap();
        let expected = naive_labels(&store, params);
        for strategy in [
            JoinStrategy::Shuffle,
            JoinStrategy::GroupedShuffle,
            JoinStrategy::Broadcast,
        ] {
            let ctx = ctx();
            let got = DistributedDbscout::new(ctx, params)
                .with_strategy(strategy)
                .detect(&store)
                .unwrap();
            assert_eq!(got.labels, expected, "strategy {strategy:?}");
        }
    }

    #[test]
    fn distributed_matches_native() {
        let store = mixed_dataset();
        for (eps, min_pts) in [(0.5, 3), (1.0, 5), (2.0, 4), (10.0, 10)] {
            let params = DbscoutParams::new(eps, min_pts).unwrap();
            let native = detect_outliers(&store, params).unwrap();
            let dist = DistributedDbscout::new(ctx(), params)
                .detect(&store)
                .unwrap();
            assert_eq!(native.labels, dist.labels, "eps {eps} minPts {min_pts}");
        }
    }

    #[test]
    fn partition_count_does_not_change_result() {
        let store = mixed_dataset();
        let params = DbscoutParams::new(1.0, 5).unwrap();
        let reference = DistributedDbscout::new(ctx(), params)
            .with_partitions(1)
            .detect(&store)
            .unwrap();
        for parts in [2, 5, 16, 64] {
            let got = DistributedDbscout::new(ctx(), params)
                .with_partitions(parts)
                .detect(&store)
                .unwrap();
            assert_eq!(got.labels, reference.labels, "partitions {parts}");
        }
    }

    #[test]
    fn empty_dataset() {
        let store = PointStore::new(2).unwrap();
        let params = DbscoutParams::new(1.0, 5).unwrap();
        let r = DistributedDbscout::new(ctx(), params)
            .detect(&store)
            .unwrap();
        assert!(r.labels.is_empty());
        assert_eq!(r.stats.num_cells, 0);
    }

    #[test]
    fn stats_match_native_structure() {
        let store = mixed_dataset();
        let params = DbscoutParams::new(1.0, 5).unwrap();
        let native = detect_outliers(&store, params).unwrap();
        let dist = DistributedDbscout::new(ctx(), params)
            .detect(&store)
            .unwrap();
        assert_eq!(native.stats.num_cells, dist.stats.num_cells);
        assert_eq!(native.stats.dense_cells, dist.stats.dense_cells);
        assert_eq!(native.stats.core_cells, dist.stats.core_cells);
    }

    #[test]
    fn grouped_strategy_computes_fewer_distances_than_shuffle() {
        // The early-exit rules must strictly reduce distance work on a
        // dataset with dense neighborhoods.
        let mut pts = Vec::new();
        for i in 0..200 {
            pts.push([(i % 20) as f64 * 0.05, (i / 20) as f64 * 0.05]);
        }
        let store = store_2d(&pts);
        let params = DbscoutParams::new(0.3, 4).unwrap();
        let shuffle = DistributedDbscout::new(ctx(), params)
            .with_strategy(JoinStrategy::Shuffle)
            .detect(&store)
            .unwrap();
        let grouped = DistributedDbscout::new(ctx(), params)
            .with_strategy(JoinStrategy::GroupedShuffle)
            .detect(&store)
            .unwrap();
        assert_eq!(shuffle.labels, grouped.labels);
        assert!(
            grouped.stats.distance_computations < shuffle.stats.distance_computations,
            "grouped {} !< shuffle {}",
            grouped.stats.distance_computations,
            shuffle.stats.distance_computations
        );
    }

    #[test]
    fn point_rec_coords_round_trip() {
        let rec = PointRec::new(7, &[1.5, -2.5, 3.0]);
        assert_eq!(rec.id, 7);
        assert_eq!(rec.coords(), &[1.5, -2.5, 3.0]);
    }
}
