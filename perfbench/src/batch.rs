//! The batch half of a workload: one `Dbscout::detect_source` over the
//! workload's DBSC file per fresh child process, so each child's VmHWM
//! belongs to that run alone.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use dbscout_core::{Dbscout, DbscoutParams, OutlierResult};
use dbscout_data::{BinarySource, DataIoError, PointBatch, PointSource, DEFAULT_BATCH_SIZE};
use dbscout_telemetry::json::{parse, JsonWriter, Value};

use crate::inputs::outlier_digest;
use crate::Error;

/// What one detect run reports.
#[derive(Debug, Clone, Copy)]
pub struct DetectRun {
    pub threads: usize,
    /// Wall-clock of `BinarySource::open` plus `detect_source`.
    pub wall: f64,
    pub grid: f64,
    pub dense_map: f64,
    pub core_points: f64,
    pub core_map: f64,
    pub outliers: f64,
    pub cells: u64,
    pub distance_evals: u64,
    pub cells_visited: u64,
    pub bbox_prunes: u64,
    pub early_exit_hits: u64,
    pub digest: u64,
    pub cpu_us: u64,
    pub peak_rss_bytes: u64,
}

impl DetectRun {
    pub fn from_result(threads: usize, wall: Duration, cpu_us: u64, r: &OutlierResult) -> Self {
        let t = r.timings;
        let k = r.stats.kernel;
        DetectRun {
            threads,
            wall: wall.as_secs_f64(),
            grid: t.grid.as_secs_f64(),
            dense_map: t.dense_map.as_secs_f64(),
            core_points: t.core_points.as_secs_f64(),
            core_map: t.core_map.as_secs_f64(),
            outliers: t.outliers.as_secs_f64(),
            cells: r.stats.num_cells as u64,
            distance_evals: k.distance_evals,
            cells_visited: k.cells_visited,
            bbox_prunes: k.bbox_prunes,
            early_exit_hits: k.early_exit_hits,
            digest: outlier_digest(&r.outliers),
            cpu_us,
            peak_rss_bytes: dbscout_telemetry::peak_rss_bytes(),
        }
    }

    /// Sum of the five phase timings.
    pub fn phases(&self) -> f64 {
        self.grid + self.dense_map + self.core_points + self.core_map + self.outliers
    }

    fn to_json(self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_u64("threads", self.threads as u64)
            .field_f64("wall", self.wall)
            .field_f64("grid", self.grid)
            .field_f64("dense_map", self.dense_map)
            .field_f64("core_points", self.core_points)
            .field_f64("core_map", self.core_map)
            .field_f64("outliers", self.outliers)
            .field_u64("cells", self.cells)
            .field_u64("distance_evals", self.distance_evals)
            .field_u64("cells_visited", self.cells_visited)
            .field_u64("bbox_prunes", self.bbox_prunes)
            .field_u64("early_exit_hits", self.early_exit_hits)
            .field_str("digest", &format!("{:016x}", self.digest))
            .field_u64("cpu_us", self.cpu_us)
            .field_u64("peak_rss_bytes", self.peak_rss_bytes)
            .end_object();
        w.finish()
    }

    fn from_json(line: &str) -> Result<Self, Error> {
        let doc = parse(line).map_err(|e| format!("bad child reply {line:?}: {e}"))?;
        let f = |k: &str| {
            doc.get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("child reply lacks {k}"))
        };
        let u = |k: &str| {
            doc.get(k)
                .and_then(Value::as_u64)
                .ok_or(format!("child reply lacks {k}"))
        };
        let digest = doc
            .get("digest")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("child reply lacks digest")?;
        Ok(DetectRun {
            threads: u("threads")? as usize,
            wall: f("wall")?,
            grid: f("grid")?,
            dense_map: f("dense_map")?,
            core_points: f("core_points")?,
            core_map: f("core_map")?,
            outliers: f("outliers")?,
            cells: u("cells")?,
            distance_evals: u("distance_evals")?,
            cells_visited: u("cells_visited")?,
            bbox_prunes: u("bbox_prunes")?,
            early_exit_hits: u("early_exit_hits")?,
            digest,
            cpu_us: u("cpu_us")?,
            peak_rss_bytes: u("peak_rss_bytes")?,
        })
    }
}

/// One `detect_source` through the default configuration at `threads`.
/// `opened` is when the caller started opening `source`; the run's wall
/// time counts from there.
pub fn detect(
    opened: Instant,
    source: &mut dyn PointSource,
    params: DbscoutParams,
    threads: usize,
) -> Result<(DetectRun, OutlierResult), Error> {
    let cpu0 = dbscout_telemetry::cpu_time_us();
    let result = Dbscout::new(params)
        .with_threads(threads)
        .detect_source(source)?;
    let wall = opened.elapsed();
    let cpu = dbscout_telemetry::cpu_time_us().saturating_sub(cpu0);
    Ok((DetectRun::from_result(threads, wall, cpu, &result), result))
}

/// [`detect`] on a freshly opened DBSC file.
pub fn detect_file(
    file: &Path,
    params: DbscoutParams,
    threads: usize,
) -> Result<(DetectRun, OutlierResult), Error> {
    let t = Instant::now();
    let mut source = BinarySource::open(file, DEFAULT_BATCH_SIZE)?;
    detect(t, &mut source, params, threads)
}

/// Child-process entry: one detect, reported as a JSON line on stdout.
pub fn child_main(args: &[String]) -> Result<(), Error> {
    let [file, threads, eps, min_pts] = args else {
        return Err("usage: --child-detect <file> <threads> <eps> <min-pts>".into());
    };
    let params = DbscoutParams::new(eps.parse()?, min_pts.parse()?)?;
    let (run, _) = detect_file(Path::new(file), params, threads.parse()?)?;
    println!("{}", run.to_json());
    Ok(())
}

/// Runs one detect in a fresh child process of this benchmark binary.
pub fn detect_in_child(
    file: &Path,
    params: DbscoutParams,
    threads: usize,
) -> Result<DetectRun, Error> {
    let exe = std::env::current_exe()?;
    let out = Command::new(exe)
        .arg("--child-detect")
        .arg(file)
        .arg(threads.to_string())
        .arg(params.eps.to_string())
        .arg(params.min_pts.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !out.status.success() {
        return Err(format!("detect child failed: {}", out.status).into());
    }
    let text = String::from_utf8_lossy(&out.stdout);
    DetectRun::from_json(text.trim())
}

/// A `PointSource` wrapper that times `next_batch`/`reset` and counts the
/// points it delivers — the read layer's share of a detect, seen from
/// outside.
pub struct TimedSource<S> {
    inner: S,
    pub busy: Duration,
    pub delivered: u64,
    /// (start, duration) of every call, for trace spans.
    pub calls: Vec<(&'static str, Instant, Duration)>,
}

impl<S: PointSource> TimedSource<S> {
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            busy: Duration::ZERO,
            delivered: 0,
            calls: Vec::new(),
        }
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut S) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut self.inner);
        let d = t.elapsed();
        self.busy += d;
        self.calls.push((name, t, d));
        out
    }
}

impl<S: PointSource> PointSource for TimedSource<S> {
    fn dims(&self) -> Option<usize> {
        self.inner.dims()
    }

    fn next_batch(&mut self) -> Result<Option<PointBatch>, DataIoError> {
        let batch = self.timed("data.BinarySource::next_batch", |s| s.next_batch())?;
        self.delivered += batch.as_ref().map_or(0, |b| b.len() as u64);
        Ok(batch)
    }

    fn reset(&mut self) -> Result<(), DataIoError> {
        self.timed("data.BinarySource::reset", |s| s.reset())
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
}
