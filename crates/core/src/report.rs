//! Assembles the machine-readable [`RunReport`] from a finished
//! detection: parameter/dataset echo, per-phase wall-clock, the engine's
//! per-stage records, and whole-run totals. The CLI renders the result
//! with [`RunReport::to_json`] for `--report-json`.

use std::time::Duration;

use dbscout_dataflow::{MetricsSnapshot, ProcessPoolStats, StageRecord};
use dbscout_telemetry::{
    DatasetEcho, ParamsEcho, PhaseReport, ProcessReport, RunReport, StageReport, TotalsReport,
    WorkerReport,
};

use crate::distributed::PHASE_NAMES;
use crate::labels::OutlierResult;
use crate::params::DbscoutParams;

/// Run facts the report needs that neither the result nor the metrics
/// carry: where the data came from and how the engine was configured.
#[derive(Debug, Clone, Default)]
pub struct RunInfo {
    /// Path (or generator description) the points came from.
    pub source: String,
    /// Number of points fed to the detector.
    pub points: u64,
    /// Point dimensionality.
    pub dimensions: u64,
    /// Which engine ran (`"native"` or `"distributed"`).
    pub engine: String,
    /// Number of data partitions (0 for the native engine).
    pub partitions: u64,
    /// Number of worker threads.
    pub workers: u64,
    /// The resolved distance kernel the run used (`"scalar"` or
    /// `"unrolled"`; callers resolve `Auto` before echoing — see
    /// [`dbscout_spatial::KernelKind::resolve`]).
    pub kernel: String,
    /// The in-process worker-thread count the run resolved to (0 when
    /// no thread pool ran in-process).
    pub threads: u64,
    /// The `DBSCOUT_CHAOS_SEED` in effect, if any.
    pub chaos_seed: Option<u64>,
    /// Peak resident set size observed for the process, in bytes.
    ///
    /// Environment-derived (callers typically pass
    /// `dbscout_telemetry::peak_rss_bytes()`); 0 means "unknown".
    pub peak_rss_bytes: u64,
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Converts one engine [`StageRecord`] into its report form, collapsing
/// the task-duration histogram to p50/p95/max.
pub fn stage_report(record: &StageRecord) -> StageReport {
    StageReport {
        label: record.label.clone(),
        tasks: record.tasks,
        records_in: record.records_in,
        records_out: record.records_out,
        shuffle_records: record.shuffle_records,
        shuffle_bytes: record.shuffle_bytes,
        join_output_records: record.join_output_records,
        task_retries: record.task_retries,
        speculative_launches: record.speculative_launches,
        speculative_wins: record.speculative_wins,
        injected_faults: record.injected_faults,
        worker_kills: record.worker_kills,
        worker_respawns: record.worker_respawns,
        task_reassignments: record.task_reassignments,
        task_duration_p50_us: micros(record.task_durations.p50()),
        task_duration_p95_us: micros(record.task_durations.p95()),
        task_duration_max_us: micros(record.task_durations.max()),
        cells_visited: record.kernel.cells_visited,
        bbox_prunes: record.kernel.bbox_prunes,
        early_exit_hits: record.kernel.early_exit_hits,
        distance_evals: record.kernel.distance_evals,
    }
}

/// Converts the process pool's run summary into its report form.
pub fn process_report(stats: &ProcessPoolStats) -> ProcessReport {
    ProcessReport {
        workers: stats.workers as u64,
        workers_spawned: stats.workers_spawned,
        worker_kills: stats.worker_kills,
        worker_respawns: stats.worker_respawns,
        task_reassignments: stats.task_reassignments,
        poisoned_tasks: stats.poisoned_tasks,
        child_peak_rss_bytes: stats.child_peak_rss_bytes,
        child_cpu_time_us: stats.child_cpu_time_us,
        per_worker: stats
            .per_worker
            .iter()
            .map(|w| WorkerReport {
                slot: w.slot as u64,
                spawns: w.spawns,
                kills: w.kills,
                respawns: w.respawns,
                tasks_completed: w.tasks_completed,
                peak_rss_bytes: w.peak_rss_bytes,
                cpu_time_us: w.cpu_time_us,
            })
            .collect(),
    }
}

/// Builds the complete run report.
///
/// `metrics` supplies the whole-run aggregates (pass
/// `ctx.metrics().snapshot()` for the distributed engine, or
/// [`MetricsSnapshot::default`] for the native one), `stage_records` the
/// per-stage detail (`ctx.metrics().stage_records()`), `process` the
/// pool summary when the process backend ran (`ctx.process_stats()`),
/// and `wall_clock` the end-to-end detection time.
pub fn build_run_report(
    info: &RunInfo,
    params: DbscoutParams,
    result: &OutlierResult,
    metrics: &MetricsSnapshot,
    stage_records: &[StageRecord],
    process: Option<&ProcessPoolStats>,
    wall_clock: Duration,
) -> RunReport {
    let timings = result.timings;
    let phase_durations = [
        timings.grid,
        timings.dense_map,
        timings.core_points,
        timings.core_map,
        timings.outliers,
    ];
    let phases = PHASE_NAMES
        .iter()
        .zip(phase_durations)
        .map(|(name, d)| PhaseReport {
            name: (*name).to_owned(),
            wall_clock_us: micros(d),
        })
        .collect();
    RunReport {
        dataset: DatasetEcho {
            source: info.source.clone(),
            points: info.points,
            dimensions: info.dimensions,
        },
        params: ParamsEcho {
            engine: info.engine.clone(),
            eps: params.eps,
            min_pts: params.min_pts as u64,
            partitions: info.partitions,
            workers: info.workers,
            kernel: info.kernel.clone(),
            threads: info.threads,
            chaos_seed: info.chaos_seed,
        },
        phases,
        stages: stage_records.iter().map(stage_report).collect(),
        process: process.map(process_report),
        serve: None,
        totals: TotalsReport {
            stages: metrics.stages,
            tasks: metrics.tasks,
            records_in: metrics.records_in,
            records_out: metrics.records_out,
            shuffle_records: metrics.shuffle_records,
            shuffle_bytes: metrics.shuffle_bytes,
            broadcasts: metrics.broadcasts,
            join_output_records: metrics.join_output_records,
            task_retries: metrics.task_retries,
            speculative_launches: metrics.speculative_launches,
            speculative_wins: metrics.speculative_wins,
            injected_faults: metrics.injected_faults,
            worker_kills: metrics.worker_kills,
            worker_respawns: metrics.worker_respawns,
            task_reassignments: metrics.task_reassignments,
            outliers: result.num_outliers() as u64,
            // Kernel totals come from the result's own counters (not the
            // engine metrics) so native in-process runs and the process
            // backend report byte-identical values.
            cells_visited: result.stats.kernel.cells_visited,
            bbox_prunes: result.stats.kernel.bbox_prunes,
            early_exit_hits: result.stats.kernel.early_exit_hits,
            distance_evals: result.stats.kernel.distance_evals,
            peak_rss_bytes: info.peak_rss_bytes,
            child_peak_rss_bytes: process.map_or(0, |p| p.child_peak_rss_bytes),
            child_cpu_time_us: process.map_or(0, |p| p.child_cpu_time_us),
            wall_clock_us: micros(wall_clock),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::DistributedDbscout;
    use dbscout_dataflow::ExecutionContext;
    use dbscout_spatial::PointStore;
    use dbscout_telemetry::json::parse;
    use std::sync::Arc;
    use std::time::Instant;

    fn detect() -> (Arc<ExecutionContext>, OutlierResult, PointStore) {
        let ctx = ExecutionContext::builder()
            .workers(2)
            .default_partitions(4)
            .build();
        let mut rows: Vec<Vec<f64>> = (0..40).map(|i| vec![0.1 * f64::from(i), 0.0]).collect();
        rows.push(vec![1e6, 1e6]);
        let store = PointStore::from_rows(2, rows).unwrap();
        let params = DbscoutParams::new(1.0, 4).unwrap();
        let result = DistributedDbscout::new(Arc::clone(&ctx), params)
            .detect(&store)
            .unwrap();
        (ctx, result, store)
    }

    #[test]
    fn report_covers_phases_stages_and_totals() {
        let started = Instant::now();
        let (ctx, result, store) = detect();
        let info = RunInfo {
            source: "synthetic:line".to_owned(),
            points: u64::from(store.len()),
            dimensions: store.dims() as u64,
            engine: "distributed".to_owned(),
            partitions: 4,
            workers: 2,
            kernel: "scalar".to_owned(),
            threads: 0,
            chaos_seed: None,
            peak_rss_bytes: 0,
        };
        let report = build_run_report(
            &info,
            DbscoutParams::new(1.0, 4).unwrap(),
            &result,
            &ctx.metrics().snapshot(),
            &ctx.metrics().stage_records(),
            None,
            started.elapsed(),
        );

        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, PHASE_NAMES);
        assert!(!report.stages.is_empty());
        assert!(report
            .stages
            .iter()
            .any(|s| s.label.starts_with("grid partitioning:")));
        assert!(report
            .stages
            .iter()
            .any(|s| s.label.starts_with("outlier pass:")));
        assert_eq!(report.totals.stages, report.stages.len() as u64);
        assert_eq!(report.totals.outliers, result.num_outliers() as u64);
        assert_eq!(
            report.totals.tasks,
            report.stages.iter().map(|s| s.tasks).sum::<u64>()
        );
        assert!(report.totals.broadcasts >= 2, "two cell-map broadcasts");
    }

    #[test]
    fn report_json_parses_and_echoes_params() {
        let (ctx, result, store) = detect();
        let info = RunInfo {
            source: "synthetic:line".to_owned(),
            points: u64::from(store.len()),
            dimensions: 2,
            engine: "distributed".to_owned(),
            partitions: 4,
            workers: 2,
            kernel: "scalar".to_owned(),
            threads: 0,
            chaos_seed: Some(7),
            peak_rss_bytes: 4096,
        };
        let report = build_run_report(
            &info,
            DbscoutParams::new(1.0, 4).unwrap(),
            &result,
            &ctx.metrics().snapshot(),
            &ctx.metrics().stage_records(),
            None,
            Duration::from_millis(12),
        );
        let doc = parse(&report.to_json()).unwrap();
        let params = doc.get("params").unwrap();
        assert_eq!(params.get("engine").unwrap().as_str(), Some("distributed"));
        assert_eq!(params.get("min_pts").unwrap().as_u64(), Some(4));
        assert_eq!(params.get("kernel").unwrap().as_str(), Some("scalar"));
        assert_eq!(params.get("threads").unwrap().as_u64(), Some(0));
        assert_eq!(params.get("chaos_seed").unwrap().as_u64(), Some(7));
        assert_eq!(
            doc.get("phases").unwrap().as_array().unwrap().len(),
            PHASE_NAMES.len()
        );
        assert_eq!(
            doc.get("totals")
                .unwrap()
                .get("wall_clock_us")
                .unwrap()
                .as_u64(),
            Some(12_000)
        );
        assert_eq!(
            doc.get("totals")
                .unwrap()
                .get("peak_rss_bytes")
                .unwrap()
                .as_u64(),
            Some(4096)
        );
    }

    #[test]
    fn native_engine_report_has_empty_stages() {
        let store = PointStore::from_rows(2, vec![vec![0.0, 0.0], vec![9.0, 9.0]]).unwrap();
        let params = DbscoutParams::new(1.0, 2).unwrap();
        let result = crate::native::detect_outliers(&store, params).unwrap();
        let info = RunInfo {
            engine: "native".to_owned(),
            points: u64::from(store.len()),
            dimensions: 2,
            ..RunInfo::default()
        };
        let report = build_run_report(
            &info,
            params,
            &result,
            &MetricsSnapshot::default(),
            &[],
            None,
            Duration::from_millis(1),
        );
        assert!(report.stages.is_empty());
        assert_eq!(report.totals.stages, 0);
        assert_eq!(report.phases.len(), 5);
        assert_eq!(report.totals.outliers, result.num_outliers() as u64);
    }
}
