//! The traced run: per-layer numbers from spans the benchmark records
//! around each call into a layer's public functions. Spans stay in
//! memory and are written once, at the end, as a Chrome Trace file.

use std::path::Path;
use std::time::{Duration, Instant};

use dbscout_data::{materialize, BinarySource, DEFAULT_BATCH_SIZE};
use dbscout_spatial::CellMajorStore;
use dbscout_telemetry::{json, Recorder, Span, SpanKind, TraceCollector};

use crate::batch::{self, DetectRun, TimedSource};
use crate::inputs::{self, Inputs, Workload};
use crate::report::{Better, Metric, Outcome};
use crate::serve::{self, Length, LiveSession};
use crate::stats::median;
use crate::{nproc, Error, DATA_DIR, OUT_DIR};

/// Ops in the traced session and replay: enough for ten mutate samples
/// beyond p99 (24% of ops mutate), few enough that every op keeps its
/// span.
const TRACE_OPS: usize = 6_000;
/// Traced and untraced detects each run at least this many times.
const MIN_REPS: usize = 2;

/// Spans with ids, parents and a run id, on top of the telemetry
/// crate's collector.
struct Tracer {
    collector: TraceCollector,
    run_id: String,
    next_id: u64,
    stack: Vec<u64>,
}

impl Tracer {
    fn new(run_id: String) -> Tracer {
        Tracer {
            collector: TraceCollector::new(),
            run_id,
            next_id: 1,
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the current span.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start = Instant::now();
        let out = f(self);
        let dur = start.elapsed();
        self.stack.pop();
        self.record(id, parent, name, start, dur);
        out
    }

    /// Records an already-timed call as a child of the current span.
    fn leaf(&mut self, name: &str, start: Instant, dur: Duration) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.record(id, parent, name, start, dur);
    }

    fn record(&self, id: u64, parent: u64, name: &str, start: Instant, dur: Duration) {
        self.collector.record_span(
            Span::new(name, SpanKind::Task, start, dur)
                .arg("span_id", id)
                .arg("parent", parent)
                .arg("run_id", self.run_id.as_str()),
        );
    }
}

/// One traced detect: `BinarySource` behind the timing wrapper, with a
/// span per read call. Returns the run and the wrapper's totals.
fn traced_detect(
    tr: &mut Tracer,
    file: &Path,
    w: &Workload,
    threads: usize,
) -> Result<(DetectRun, Duration, u64), Error> {
    let params = w.params()?;
    tr.span(
        &format!("core.Dbscout::detect_source threads={threads}"),
        |tr| {
            let t = Instant::now();
            let opened = BinarySource::open(file, DEFAULT_BATCH_SIZE);
            tr.leaf("data.BinarySource::open", t, t.elapsed());
            let mut source = TimedSource::new(opened?);
            let (run, _) = batch::detect(t, &mut source, params, threads)?;
            for (name, start, dur) in &source.calls {
                tr.leaf(name, *start, *dur);
            }
            Ok((run, source.busy, source.delivered))
        },
    )
}

pub fn run(
    w: &Workload,
    inputs: &Inputs,
    bin: &Path,
    seed: u64,
    budget: Duration,
) -> Result<Outcome, Error> {
    let params = w.params()?;
    let oracle = inputs::oracle_digest(&inputs.batch_file, params, Path::new(DATA_DIR))?;
    let run_id = format!("{}-seed{seed}-pid{}", w.name, std::process::id());
    let mut tr = Tracer::new(run_id);
    let threads = nproc();

    // Batch half: untraced and traced detects at nproc alternate (their
    // ratio is the tracing overhead), plus a traced detect at t = 1.
    let (mut plain, mut tn, mut t1) = (Vec::new(), Vec::new(), Vec::new());
    let (mut read_s, mut amplification) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < budget.mul_f64(w.batch_share) || t1.len() < MIN_REPS {
        plain.push(batch::detect_file(&inputs.batch_file, params, threads)?.0);
        let (run, busy, delivered) = traced_detect(&mut tr, &inputs.batch_file, w, threads)?;
        tn.push(run);
        read_s.push(busy.as_secs_f64());
        amplification.push(delivered as f64 / w.batch_n as f64);
        t1.push(traced_detect(&mut tr, &inputs.batch_file, w, 1)?.0);
    }
    let all: Vec<&DetectRun> = plain.iter().chain(&tn).chain(&t1).collect();
    let mut attempted = all.len();
    let mut failed = all.iter().filter(|r| r.digest != oracle).count();
    // Kernel counts are thread- and schedule-invariant: every run must
    // report the same ones.
    let counts = |r: &DetectRun| {
        (
            r.distance_evals,
            r.cells_visited,
            r.bbox_prunes,
            r.early_exit_hits,
        )
    };
    failed += all.iter().filter(|r| counts(r) != counts(&tn[0])).count();

    let build_s = tr.span(
        "spatial.CellMajorStore::build (materialized batch input)",
        |tr| {
            let mut source = BinarySource::open(&inputs.batch_file, DEFAULT_BATCH_SIZE)?;
            let store = tr.span("data.materialize", |_| materialize(&mut source))?;
            let t = Instant::now();
            std::hint::black_box(CellMajorStore::build(&store, params.eps)?);
            let d = t.elapsed();
            tr.leaf("spatial.CellMajorStore::build", t, d);
            Ok::<_, Error>(d.as_secs_f64())
        },
    )?;

    // Serve half: the in-process replay, then the same ops over stdio.
    let load_s = tr.span("data.load (serve file)", |_| {
        let t = Instant::now();
        let mut source = BinarySource::open(&inputs.serve_file, DEFAULT_BATCH_SIZE)?;
        materialize(&mut source)?;
        Ok::<_, Error>(t.elapsed().as_secs_f64())
    })?;
    let replay = tr.span("core.replay", |tr| {
        serve::replay(
            &inputs.serve_store,
            params,
            seed,
            TRACE_OPS,
            |method, t, d| tr.leaf(&format!("core.IncrementalDbscout::{method}"), t, d),
        )
    })?;
    let session = tr.span("cli.dbscout serve session", |_| {
        let mut live = LiveSession::start(
            bin,
            &inputs.serve_file,
            &inputs.serve_store,
            params,
            seed,
            0,
            true,
        )?;
        live.run(Length::Ops(TRACE_OPS), 0)?;
        live.finish()
    })?;
    for ((op, _), (t, d)) in session.replies.iter().zip(&session.calls) {
        tr.leaf(&format!("cli.serve:{}", op.name()), *t, *d);
    }
    let (checked, bad) = serve::check_session(&session, &replay.expected, params)?;
    attempted += checked;
    failed += bad;
    let lines: Vec<String> = session.replies.iter().map(|(op, _)| op.to_line()).collect();
    let parse_us = tr.span("telemetry.json::parse (session lines)", |_| {
        let t = Instant::now();
        for line in &lines {
            std::hint::black_box(json::parse(std::hint::black_box(line)).is_ok());
        }
        t.elapsed().as_secs_f64() * 1e6 / lines.len().max(1) as f64
    });

    // The split must add up: the five phase timings account for the
    // detect wall time up to the tracing overhead.
    let col = |runs: &[DetectRun], f: fn(&DetectRun) -> f64| runs.iter().map(f).collect::<Vec<_>>();
    let med = |runs: &[DetectRun], f: fn(&DetectRun) -> f64| median(&col(runs, f));
    let overhead = med(&tn, |r| r.wall) / med(&plain, |r| r.wall) - 1.0;
    let unattributed = 1.0 - med(&tn, |r| r.phases() / r.wall);
    if unattributed.abs() > overhead.abs().max(0.05) {
        failed += 1;
    }

    let trace_path = Path::new(OUT_DIR).join(format!("trace-{}-seed{seed}.json", w.name));
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(&trace_path, tr.collector.to_chrome_trace())?;

    let k = &tn[0];
    let grid_s = med(&tn, |r| r.grid);
    let grid_t1_s = med(&t1, |r| r.grid);
    let scan_s = med(&tn, |r| r.core_points + r.outliers);
    let cpu_util = med(&tn, |r| r.cpu_us as f64 / 1e6 / (r.wall * r.threads as f64));
    let pooled_p50 = |l: &serve::Latencies| median(&[l.probe.as_slice(), &l.mutate].concat());
    let ops = replay.lat.ops();

    use Better::{Higher, Lower};
    let count = |name, better, v: u64| Metric::value(name, "count", better, v as f64, 1);
    let secs = |name, runs: &[DetectRun], f: fn(&DetectRun) -> f64| {
        Metric::series(name, "s", Lower, &col(runs, f))
    };
    let metrics = vec![
        Metric::series("data.read_s", "s", Lower, &read_s),
        Metric::series("data.read_amplification", "x", Lower, &amplification),
        Metric::value("data.load_s", "s", Lower, load_s, 1),
        Metric::value("spatial.build_s", "s", Lower, build_s, 1),
        count("spatial.distance_evals", Lower, k.distance_evals),
        count("spatial.cells_visited", Lower, k.cells_visited),
        count("spatial.bbox_prunes", Higher, k.bbox_prunes),
        count("spatial.early_exit_hits", Higher, k.early_exit_hits),
        Metric::value(
            "spatial.evals_per_s",
            "1/s",
            Higher,
            k.distance_evals as f64 / scan_s,
            tn.len(),
        ),
        secs("core.grid_s", &tn, |r| r.grid),
        secs("core.grid_t1_s", &t1, |r| r.grid),
        Metric::value(
            "core.grid_speedup",
            "x",
            Higher,
            grid_t1_s / grid_s,
            tn.len(),
        ),
        secs("core.core_points_s", &tn, |r| r.core_points),
        secs("core.outliers_s", &tn, |r| r.outliers),
        secs("core.classify_s", &tn, |r| r.dense_map + r.core_map),
        Metric::value("core.warm_s", "s", Lower, replay.warm.as_secs_f64(), 1),
        count("core.warm_rebuilds", Lower, replay.warm_rebuilds),
        count(
            "core.warm_distance_evals",
            Lower,
            replay.warm_distance_evals,
        ),
        Metric::series("core.probe_p50_us", "us", Lower, &replay.lat.probe),
        Metric::series("core.mutate_p50_us", "us", Lower, &replay.lat.mutate),
        Metric::tail("core.mutate_p99_us", "us", &replay.lat.mutate)?,
        Metric::series("core.outliers_p50_us", "us", Lower, &replay.lat.outliers),
        count("core.session_rebuilds", Lower, replay.rebuilds),
        count("core.session_compactions", Lower, replay.compactions),
        Metric::value(
            "core.evals_per_op",
            "count",
            Lower,
            replay.distance_evals as f64 / ops as f64,
            ops,
        ),
        Metric::value("dataflow.cpu_util", "fraction", Higher, cpu_util, tn.len()),
        Metric::value("telemetry.parse_us", "us", Lower, parse_us, lines.len()),
        Metric::value(
            "cli.serve_peak_rss_mb",
            "MiB",
            Lower,
            session.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            1,
        ),
        Metric::value(
            "cli.protocol_p50_us",
            "us",
            Lower,
            pooled_p50(&session.lat) - pooled_p50(&replay.lat),
            session.lat.ops(),
        ),
        Metric::value(
            "trace.overhead_frac",
            "fraction",
            Lower,
            overhead,
            plain.len(),
        ),
        Metric::value(
            "trace.unattributed_frac",
            "fraction",
            Lower,
            unattributed,
            tn.len(),
        ),
    ];
    let share = |x: f64, of: f64| 100.0 * x / of;
    let notes = vec![
        format!(
            "trace: {} ({} spans)",
            trace_path.display(),
            tr.collector.span_count()
        ),
        format!(
            "split at t={threads}: grid {:.1}% of detect_s; \
             t=1: core_points+outliers {:.1}% of detect_t1_s",
            share(grid_s, med(&tn, |r| r.wall)),
            share(
                med(&t1, |r| r.core_points + r.outliers),
                med(&t1, |r| r.wall)
            ),
        ),
        format!(
            "serve setup split: load {load_s:.4} s + warm {:.4} s; {} cells at eps",
            replay.warm.as_secs_f64(),
            k.cells
        ),
        format!(
            "probe p50 {:.2} us in-process vs {:.2} us over stdio",
            median(&replay.lat.probe),
            median(&session.lat.probe)
        ),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}
