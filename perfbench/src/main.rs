//! The repository benchmark. Each invocation runs one workload (or
//! `all`) and prints, as its last stdout line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`:
//!
//! ```text
//! run.sh --workload <osm|geolife|all> --seed <n>
//!        --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! no tracing; with `--trace 1` they are the per-layer ones from a
//! separate traced run, whose spans go to a Chrome Trace file. Inputs,
//! the oracle cache, results files and traces stay under `.bench_data/`
//! and `.bench_out/` in the working directory. BENCHMARK.json documents
//! the workloads and metrics.

mod batch;
mod inputs;
mod ops;
mod report;
mod serve;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use inputs::{Inputs, Workload};
use report::{Better, Metric, Outcome};
use serve::{Latencies, Length, LiveSession, MIN_TAIL_SAMPLES};

pub type Error = Box<dyn std::error::Error>;

pub const DATA_DIR: &str = ".bench_data";
pub const OUT_DIR: &str = ".bench_out";

/// `dbscout serve` children per run. Each is one `setup_s` sample and
/// takes every third serve window.
const SERVERS: usize = 3;

/// One serve window: long enough for thousands of ops, short enough
/// that a run holds dozens of them between its batch detects.
const WINDOW: Duration = Duration::from_millis(500);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Shrinks every workload to a few thousand points, for the
    /// benchmark's own tests.
    tiny: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, Error> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse()?),
            "--seconds" => seconds = Some(value.parse()?),
            "--trace" => trace = Some(value.parse::<u8>()? != 0),
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        tiny,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--child-detect") => batch::child_main(&argv[1..]).map(|()| true),
        _ => parse_args(&argv).and_then(|args| run(&args)),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs the requested workload(s); `Ok(false)` when an output check
/// failed.
fn run(args: &Args) -> Result<bool, Error> {
    let workloads: Vec<Workload> = if args.workload == "all" {
        inputs::WORKLOADS.to_vec()
    } else {
        vec![inputs::find(&args.workload)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?]
    };
    let bin = dbscout_bin()?;
    let budget = Duration::from_secs(args.seconds);
    let mut outcomes = Vec::new();
    for w in &workloads {
        let w = &if args.tiny {
            Workload {
                batch_n: 3_000,
                serve_n: 1_000,
                ..*w
            }
        } else {
            *w
        };
        let inputs = inputs::prepare(w, args.seed, Path::new(DATA_DIR))?;
        let outcome = if args.trace {
            traced::run(w, &inputs, &bin, args.seed, budget)?
        } else {
            run_untraced(w, &inputs, &bin, args.seed, budget)?
        };
        let path = report::write_results(w.name, args.seed, args.trace, &outcome)?;
        report::print_human(w.name, &outcome, &path);
        outcomes.push((w.name, outcome));
    }
    let line = report::result_line(&outcomes);
    println!("{line}");
    Ok(outcomes.iter().all(|(_, o)| o.failed == 0))
}

/// The `dbscout` binary `run.sh` built.
fn dbscout_bin() -> Result<PathBuf, Error> {
    let bin = std::env::var_os("DBSCOUT_BIN")
        .map(PathBuf::from)
        .ok_or("DBSCOUT_BIN is not set; run the benchmark through perfbench/run.sh")?;
    if !bin.is_file() {
        return Err(format!("no dbscout binary at {}", bin.display()).into());
    }
    Ok(bin)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The timed half of a run. Batch detect pairs (threads = 1, then
/// nproc, each in a fresh child) and serve windows (rotating over the
/// servers and the CPUs) interleave at the grain of a second, the batch
/// half keeping `w.batch_share` of the elapsed time, so that a slow spell
/// of the shared host lands on both halves instead of skewing one.
fn run_untraced(
    w: &Workload,
    inputs: &Inputs,
    bin: &Path,
    seed: u64,
    budget: Duration,
) -> Result<Outcome, Error> {
    let params = w.params()?;
    let oracle = inputs::oracle_digest(&inputs.batch_file, params, Path::new(DATA_DIR))?;
    let mut failed = 0;
    let mut live = Vec::with_capacity(SERVERS);
    for k in 0..SERVERS {
        live.push(LiveSession::start(
            bin,
            &inputs.serve_file,
            &inputs.serve_store,
            params,
            seed,
            k,
            false,
        )?);
    }
    let (mut tn, mut t1) = (Vec::new(), Vec::new());
    let mut batch_time = Duration::ZERO;
    let mut windows = 0;
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed();
        let over = elapsed >= budget;
        let detects_short = tn.len() < w.min_pairs;
        let count = |f: fn(&Latencies) -> usize| live.iter().map(|s| f(s.lat())).sum::<usize>();
        let tails_short = count(|l| l.probe.len()) < MIN_TAIL_SAMPLES
            || count(|l| l.mutate.len()) < MIN_TAIL_SAMPLES;
        if over && !detects_short && !tails_short {
            break;
        }
        let batch_due = batch_time.as_secs_f64() <= w.batch_share * elapsed.as_secs_f64();
        if if over { detects_short } else { batch_due } {
            // The nproc detect follows the one-thread detect: run right
            // after a serve window, a two-thread detect on the shared host
            // read up to twice as slow, getting one thread's worth of CPU.
            for at_nproc in [false, true] {
                let threads = if at_nproc { nproc() } else { 1 };
                let t = Instant::now();
                let run = batch::detect_in_child(&inputs.batch_file, params, threads)?;
                batch_time += t.elapsed();
                failed += usize::from(run.digest != oracle);
                if at_nproc { &mut tn } else { &mut t1 }.push(run);
            }
        } else {
            live[windows % SERVERS].run(Length::Timed(WINDOW), windows)?;
            windows += 1;
        }
    }
    let sessions = live
        .into_iter()
        .map(LiveSession::finish)
        .collect::<Result<Vec<_>, _>>()?;
    let mut attempted = tn.len() + t1.len();
    let longest = sessions.iter().map(|s| s.replies.len()).max().unwrap_or(0);
    let replay = serve::replay(&inputs.serve_store, params, seed, longest, |_, _, _| {})?;
    for s in &sessions {
        let (checked, bad) = serve::check_session(s, &replay.expected, params)?;
        attempted += checked;
        failed += bad;
    }

    let secs = |runs: &[batch::DetectRun]| runs.iter().map(|r| r.wall).collect::<Vec<_>>();
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    let mut lat = Latencies::default();
    let mut window_rates = Vec::new();
    let setups: Vec<f64> = sessions.iter().map(|s| s.setup.as_secs_f64()).collect();
    for s in sessions {
        window_rates.extend(s.windows.iter().map(serve::Window::ops_per_s));
        lat.extend(s.lat);
    }
    let ops = lat.ops();
    let batch_rss: Vec<f64> = tn.iter().map(|r| mib(r.peak_rss_bytes)).collect();

    use Better::{Higher, Lower};
    let metrics = vec![
        Metric::series("detect_s", "s", Lower, &secs(&tn)),
        Metric::series("detect_t1_s", "s", Lower, &secs(&t1)),
        Metric::series("peak_rss_mb", "MiB", Lower, &batch_rss),
        Metric::series("setup_s", "s", Lower, &setups),
        Metric::series("serve_ops_s", "ops/s", Higher, &window_rates),
        Metric::series("probe_p50_us", "us", Lower, &lat.probe),
        Metric::tail("probe_p99_us", "us", &lat.probe)?,
        Metric::series("mutate_p50_us", "us", Lower, &lat.mutate),
        Metric::tail("mutate_p99_us", "us", &lat.mutate)?,
        Metric::series("outliers_p50_us", "us", Lower, &lat.outliers),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes: vec![format!(
            "oracle digest {oracle:016x}; {ops} session ops in {windows} windows over {SERVERS} servers"
        )],
    })
}
