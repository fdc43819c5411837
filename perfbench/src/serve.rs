//! The `dbscout serve` half of a workload: a closed loop with one client
//! and one connection over stdio, and the in-process replay of the same
//! operations that checks every reply.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use dbscout_core::{Dbscout, DbscoutParams, IncrementalDbscout, PointLabel};
use dbscout_spatial::PointStore;
use dbscout_telemetry::json::{parse, Value};

use crate::ops::{Op, OpStream};
use crate::Error;

/// A running `dbscout serve` child. Dropping it kills and reaps the
/// process if `shutdown` was not reached.
pub struct Server {
    child: Child,
    stdin: BufWriter<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    line: String,
}

impl Server {
    /// Spawns the server on `file` and waits for its first reply (to a
    /// `stats` request sent right away). Returns the server and the
    /// spawn-to-first-reply time.
    pub fn spawn(
        bin: &Path,
        file: &Path,
        params: DbscoutParams,
    ) -> Result<(Server, Duration), Error> {
        let t = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--input")
            .arg(file)
            .arg("--from-binary")
            .arg("--eps")
            .arg(params.eps.to_string())
            .arg("--min-pts")
            .arg(params.min_pts.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("serve child has no stdio pipes".into());
        };
        let mut server = Server {
            child,
            stdin: BufWriter::new(stdin),
            stdout: BufReader::new(stdout),
            line: String::new(),
        };
        let reply = server.request("{\"op\":\"stats\"}")?;
        let setup = t.elapsed();
        if !reply.starts_with("{\"ok\":true") {
            return Err(format!("dbscout serve answered stats with {reply}").into());
        }
        Ok((server, setup))
    }

    /// Sends one request line and returns its reply line.
    pub fn request(&mut self, line: &str) -> Result<&str, Error> {
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()?;
        self.line.clear();
        if self.stdout.read_line(&mut self.line)? == 0 {
            return Err("dbscout serve closed its output".into());
        }
        Ok(self.line.trim_end())
    }

    /// The server process's peak resident set (VmHWM), in bytes.
    pub fn peak_rss_bytes(&self) -> Result<u64, Error> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .ok_or_else(|| "no VmHWM in /proc status".into())
    }

    /// Asks the server to shut down and waits for it to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), Error> {
        let reply = self.request("{\"op\":\"shutdown\"}")?.to_string();
        let status = self.child.wait()?;
        if !reply.starts_with("{\"ok\":true") || !status.success() {
            return Err(format!("serve shutdown failed: {reply} ({status})").into());
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What the replay says one op must answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    Label(&'static str),
    Inserted(u32, &'static str),
    Removed,
    Outliers(Vec<u32>),
}

pub fn label_str(label: PointLabel) -> &'static str {
    match label {
        PointLabel::Core => "core",
        PointLabel::Covered => "covered",
        PointLabel::Outlier => "outlier",
    }
}

/// Applies `op` to the in-process engine and returns what the server
/// must reply.
pub fn apply(inc: &mut IncrementalDbscout, op: &Op) -> Result<Expected, Error> {
    Ok(match op {
        Op::Probe(p) => Expected::Label(label_str(inc.probe(p)?)),
        Op::Insert(p) => {
            let id = inc.insert(p)?;
            Expected::Inserted(id, label_str(inc.label(id)))
        }
        Op::Remove(id) => {
            if !inc.remove(*id) {
                return Err(format!("replay: remove of live id {id} missed").into());
            }
            Expected::Removed
        }
        Op::Outliers => Expected::Outliers(inc.outliers()),
    })
}

/// Whether a reply line carries exactly the expected answer.
pub fn reply_matches(reply: &str, want: &Expected) -> bool {
    let Ok(doc) = parse(reply) else {
        return false;
    };
    if !matches!(doc.get("ok"), Some(Value::Bool(true))) {
        return false;
    }
    let label = || doc.get("label").and_then(Value::as_str);
    match want {
        Expected::Label(l) => label() == Some(*l),
        Expected::Inserted(id, l) => {
            doc.get("id").and_then(Value::as_u64) == Some(u64::from(*id)) && label() == Some(*l)
        }
        Expected::Removed => matches!(doc.get("removed"), Some(Value::Bool(true))),
        Expected::Outliers(ids) => reply_ids(&doc).as_deref() == Some(ids.as_slice()),
    }
}

fn reply_ids(doc: &Value) -> Option<Vec<u32>> {
    doc.get("ids")?
        .as_array()?
        .iter()
        .map(|v| v.as_u64().and_then(|x| u32::try_from(x).ok()))
        .collect()
}

/// Per-kind round-trip latencies of one or more sessions, in µs.
#[derive(Debug, Default)]
pub struct Latencies {
    pub probe: Vec<f64>,
    pub mutate: Vec<f64>,
    pub outliers: Vec<f64>,
}

impl Latencies {
    pub fn record(&mut self, op: &Op, us: f64) {
        match op {
            Op::Probe(_) => self.probe.push(us),
            Op::Insert(_) | Op::Remove(_) => self.mutate.push(us),
            Op::Outliers => self.outliers.push(us),
        }
    }

    pub fn extend(&mut self, other: Latencies) {
        self.probe.extend(other.probe);
        self.mutate.extend(other.mutate);
        self.outliers.extend(other.outliers);
    }

    pub fn ops(&self) -> usize {
        self.probe.len() + self.mutate.len() + self.outliers.len()
    }
}

/// Samples a run always collects, whatever its time budget, so both
/// p99 tails have ten samples beyond them.
pub const MIN_TAIL_SAMPLES: usize = 1_000;

/// A server with its seeded op stream, driven in windows: the benchmark
/// interleaves short serve windows with batch detects, so that a slow
/// spell of the shared host lands on both halves of a run.
pub struct LiveSession {
    server: Server,
    stream: OpStream,
    traced: bool,
    setup: Duration,
    lat: Latencies,
    windows: Vec<Window>,
    replies: Vec<(Op, String)>,
    calls: Vec<(Instant, Duration)>,
}

/// Ops completed in one serve window and the window's wall-clock.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub ops: usize,
    pub time: Duration,
}

impl Window {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.time.as_secs_f64()
    }
}

/// A finished session.
pub struct Session {
    pub setup: Duration,
    /// The server's VmHWM before shutdown.
    pub peak_rss_bytes: u64,
    pub lat: Latencies,
    pub windows: Vec<Window>,
    /// Every op sent, in order, with its reply.
    pub replies: Vec<(Op, String)>,
    /// The reply to the final `outliers` request.
    pub final_outliers: String,
    /// Survivor ids (ascending) and points after the last op.
    pub survivors: (Vec<u32>, PointStore),
    /// Start and round trip of every op (same order as `replies`); kept
    /// only for a traced session.
    pub calls: Vec<(Instant, Duration)>,
}

/// How long a window runs.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    Timed(Duration),
    /// Exactly this many ops.
    Ops(usize),
}

impl LiveSession {
    /// Spawns a server on `file`, pinned to the `cpu`-th allowed CPU, and
    /// waits for its first reply; `setup` is that spawn-to-reply time.
    pub fn start(
        bin: &Path,
        file: &Path,
        base: &PointStore,
        params: DbscoutParams,
        seed: u64,
        cpu: usize,
        traced: bool,
    ) -> Result<LiveSession, Error> {
        let _pinned = affinity::PinToOneCpu::new(cpu, None);
        let (server, setup) = Server::spawn(bin, file, params)?;
        Ok(LiveSession {
            server,
            stream: OpStream::new(base, params.eps, seed),
            traced,
            setup,
            lat: Latencies::default(),
            windows: Vec::new(),
            replies: Vec::new(),
            calls: Vec::new(),
        })
    }

    pub fn lat(&self) -> &Latencies {
        &self.lat
    }

    /// Runs the next ops of the stream in a closed loop for `length`,
    /// with client and server pinned to the `cpu`-th allowed CPU.
    ///
    /// Client and server share one CPU: one of the two is always
    /// runnable, so no round trip waits for an idle CPU to wake.
    /// Cross-CPU wakeups made round trips vary by half between runs on a
    /// shared virtual host. Windows move between CPUs so that a run's
    /// figures do not hang on one CPU's neighbours.
    pub fn run(&mut self, length: Length, cpu: usize) -> Result<(), Error> {
        let _pinned = affinity::PinToOneCpu::new(cpu, Some(self.server.child.id()));
        let started = Instant::now();
        let mut ops = 0;
        loop {
            let done = match length {
                Length::Timed(slice) => started.elapsed() >= slice,
                Length::Ops(n) => ops >= n,
            };
            if done {
                break;
            }
            let op = self.stream.next_op();
            let line = op.to_line();
            let t = Instant::now();
            let reply = self.server.request(&line)?.to_string();
            let rt = t.elapsed();
            self.lat.record(&op, rt.as_secs_f64() * 1e6);
            self.replies.push((op, reply));
            if self.traced {
                self.calls.push((t, rt));
            }
            ops += 1;
        }
        self.windows.push(Window {
            ops,
            time: started.elapsed(),
        });
        Ok(())
    }

    /// Reads the server's peak RSS, asks for the final outlier set, and
    /// shuts the server down.
    pub fn finish(mut self) -> Result<Session, Error> {
        let peak_rss_bytes = self.server.peak_rss_bytes()?;
        let final_outliers = self.server.request(&Op::Outliers.to_line())?.to_string();
        self.server.shutdown()?;
        Ok(Session {
            setup: self.setup,
            peak_rss_bytes,
            lat: self.lat,
            windows: self.windows,
            replies: self.replies,
            final_outliers,
            survivors: self.stream.survivors(),
            calls: self.calls,
        })
    }
}

/// Counts the session's wrong replies: each reply is checked against the
/// replay's answer for the same op, and the final outlier set against a
/// batch `Dbscout::detect` on the survivors with rows mapped to ids.
/// Returns (checked, failed).
pub fn check_session(
    session: &Session,
    expected: &[Expected],
    params: DbscoutParams,
) -> Result<(usize, usize), Error> {
    let mut failed = 0;
    for (i, (_, reply)) in session.replies.iter().enumerate() {
        if !expected
            .get(i)
            .is_some_and(|want| reply_matches(reply, want))
        {
            failed += 1;
        }
    }
    let (ids, store) = &session.survivors;
    let batch = Dbscout::new(params).detect(store)?;
    let want: Vec<u32> = batch.outliers.iter().map(|&r| ids[r as usize]).collect();
    if !reply_matches(&session.final_outliers, &Expected::Outliers(want)) {
        failed += 1;
    }
    Ok((session.replies.len() + 1, failed))
}

/// The in-process engine's answers to the first `n_ops` ops of the
/// seeded stream, plus what the replay measured.
pub struct Replay {
    pub expected: Vec<Expected>,
    pub warm: Duration,
    pub warm_rebuilds: u64,
    pub warm_distance_evals: u64,
    pub lat: Latencies,
    pub rebuilds: u64,
    pub compactions: u64,
    pub distance_evals: u64,
}

/// Bulk-loads `base` with `IncrementalDbscout::from_store` and replays
/// the op stream through `probe`/`insert`/`remove`/`outliers`, timing
/// each call. `on_call` sees each `IncrementalDbscout` method called,
/// with its start and duration.
pub fn replay(
    base: &PointStore,
    params: DbscoutParams,
    seed: u64,
    n_ops: usize,
    mut on_call: impl FnMut(&'static str, Instant, Duration),
) -> Result<Replay, Error> {
    let t = Instant::now();
    let mut inc = IncrementalDbscout::from_store(base, params)?;
    let warm = t.elapsed();
    on_call("from_store", t, warm);
    let warm_rebuilds = inc.rebuilds();
    let warm_compactions = inc.compactions();
    let warm_distance_evals = inc.kernel_counters().distance_evals;
    let mut stream = OpStream::new(base, params.eps, seed);
    let mut lat = Latencies::default();
    let mut expected = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let op = stream.next_op();
        let t = Instant::now();
        let want = apply(&mut inc, &op)?;
        let d = t.elapsed();
        on_call(op.name(), t, d);
        lat.record(&op, d.as_secs_f64() * 1e6);
        expected.push(want);
    }
    Ok(Replay {
        expected,
        warm,
        warm_rebuilds,
        warm_distance_evals,
        lat,
        rebuilds: inc.rebuilds() - warm_rebuilds,
        compactions: inc.compactions() - warm_compactions,
        distance_evals: inc.kernel_counters().distance_evals - warm_distance_evals,
    })
}

/// Thread CPU affinity, through the C library (Linux only; elsewhere a
/// no-op).
mod affinity {
    /// Pins the calling thread (and the processes it spawns meanwhile)
    /// and every thread of process `also` to one CPU: the `k`-th, modulo
    /// their count, of the CPUs the calling thread may run on. The
    /// calling thread's previous mask comes back on drop; `also` keeps
    /// its pin until the next one. Pinning is best effort: when the calls
    /// fail, nothing changes.
    pub struct PinToOneCpu {
        #[cfg(target_os = "linux")]
        previous: Option<linux::CpuSet>,
    }

    impl PinToOneCpu {
        pub fn new(k: usize, also: Option<u32>) -> PinToOneCpu {
            #[cfg(target_os = "linux")]
            {
                let previous = linux::get();
                if let Some(mask) = &previous {
                    let cpus: Vec<usize> = (0..1024)
                        .filter(|&cpu| mask.0[cpu / 64] >> (cpu % 64) & 1 == 1)
                        .collect();
                    if !cpus.is_empty() {
                        let cpu = cpus[k % cpus.len()];
                        let mut one = [0u64; 16];
                        one[cpu / 64] = 1 << (cpu % 64);
                        let one = linux::CpuSet(one);
                        linux::set(0, &one);
                        if let Some(pid) = also {
                            for tid in linux::threads(pid) {
                                linux::set(tid, &one);
                            }
                        }
                    }
                }
                PinToOneCpu { previous }
            }
            #[cfg(not(target_os = "linux"))]
            {
                let _ = (k, also);
                PinToOneCpu {}
            }
        }
    }

    impl Drop for PinToOneCpu {
        fn drop(&mut self) {
            #[cfg(target_os = "linux")]
            if let Some(mask) = &self.previous {
                linux::set(0, mask);
            }
        }
    }

    #[cfg(target_os = "linux")]
    mod linux {
        /// `cpu_set_t`: 1024 bits.
        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct CpuSet(pub [u64; 16]);

        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
        }

        pub fn get() -> Option<CpuSet> {
            let mut set = CpuSet([0; 16]);
            // SAFETY: `set` is a live, writable `cpu_set_t`-sized buffer and
            // the size passed is its exact size; pid 0 is the calling thread.
            let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
            (rc == 0).then_some(set)
        }

        /// Sets the mask of thread `tid` (0: the calling thread).
        pub fn set(tid: u32, set: &CpuSet) -> bool {
            let Ok(tid) = i32::try_from(tid) else {
                return false;
            };
            // SAFETY: `set` points to a live `cpu_set_t`-sized value and the
            // size passed is its exact size.
            unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set) == 0 }
        }

        /// The thread ids of process `pid`.
        pub fn threads(pid: u32) -> Vec<u32> {
            std::fs::read_dir(format!("/proc/{pid}/task"))
                .map(|dir| {
                    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                        .collect()
                })
                .unwrap_or_default()
        }
    }
}
