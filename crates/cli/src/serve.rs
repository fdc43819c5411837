//! `dbscout serve`: a warm serving daemon over the incremental engine.
//!
//! Bulk-loads a dataset once, keeps detector state warm (grid, counts,
//! labels), and then answers line-delimited JSON queries on stdin/stdout
//! or a Unix socket without ever rebuilding the grid per query.
//!
//! Protocol (one JSON object per line, one response line per request):
//!
//! ```text
//! > {"op":"probe","point":[1.0,2.0]}
//! < {"ok":true,"op":"probe","label":"outlier"}
//! > {"op":"insert","point":[1.0,2.0]}
//! < {"ok":true,"op":"insert","id":800,"label":"outlier"}
//! > {"op":"remove","id":800}
//! < {"ok":true,"op":"remove","id":800,"removed":true}
//! > {"op":"outliers"}
//! < {"ok":true,"op":"outliers","count":2,"ids":[13,77]}
//! > {"op":"stats"}
//! < {"ok":true,"op":"stats","points":800,...}
//! > {"op":"shutdown"}
//! < {"ok":true,"op":"shutdown"}
//! ```
//!
//! Malformed requests answer `{"ok":false,"error":"..."}` and keep the
//! session alive; only `shutdown` (or EOF / a hangup) ends it. `probe`
//! is non-mutating: it answers the label an `insert` of the same point
//! would receive, without changing detector state. All human-facing
//! output goes to stderr; stdout carries protocol frames only.

use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Instant;

use dbscout_core::{build_run_report, DbscoutParams, IncrementalDbscout, PointLabel, RunInfo};
use dbscout_data::io::IngestMode;
use dbscout_data::{materialize, BinarySource, DEFAULT_BATCH_SIZE};
use dbscout_dataflow::MetricsSnapshot;
use dbscout_spatial::points::PointId;
use dbscout_telemetry::json::{escape, parse, Value};
use dbscout_telemetry::{Recorder, ServeReport, Span, SpanKind, TraceCollector};

use crate::cli::{CliError, Flags};
use crate::commands::{load_dataset, parse_kernel};

/// Warm serving state: the incremental detector plus the session's
/// operation tally and (optional) trace collector.
pub(crate) struct ServeState {
    inc: IncrementalDbscout,
    report: ServeReport,
    collector: Option<Arc<TraceCollector>>,
}

impl ServeState {
    pub(crate) fn new(inc: IncrementalDbscout, collector: Option<Arc<TraceCollector>>) -> Self {
        Self {
            inc,
            report: ServeReport::default(),
            collector,
        }
    }

    /// The warm detector (for post-session reporting).
    pub(crate) fn detector(&self) -> &IncrementalDbscout {
        &self.inc
    }

    /// The session's operation tally so far.
    pub(crate) fn serve_report(&self) -> ServeReport {
        let mut r = self.report.clone();
        r.rebuilds = self.inc.rebuilds();
        r.compactions = self.inc.compactions();
        r
    }
}

/// Renders a label for the wire.
fn label_str(label: PointLabel) -> &'static str {
    match label {
        PointLabel::Core => "core",
        PointLabel::Covered => "covered",
        PointLabel::Outlier => "outlier",
    }
}

/// One-line error response.
fn err_line(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", escape(msg))
}

/// Extracts the `"point"` array from a request.
fn point_of(doc: &Value) -> Result<Vec<f64>, String> {
    let arr = doc
        .get("point")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing \"point\" array".to_string())?;
    let mut out = Vec::with_capacity(arr.len());
    for v in arr {
        out.push(
            v.as_f64()
                .ok_or_else(|| "\"point\" must hold numbers".to_string())?,
        );
    }
    Ok(out)
}

/// Handles one request line. Returns the response line, the op name (for
/// the per-query telemetry span), and whether the session should end.
fn handle(state: &mut ServeState, line: &str) -> (String, &'static str, bool) {
    let doc = match parse(line) {
        Ok(doc) => doc,
        Err(e) => {
            state.report.errors += 1;
            return (err_line(&format!("invalid JSON: {e}")), "error", false);
        }
    };
    let Some(op) = doc.get("op").and_then(Value::as_str) else {
        state.report.errors += 1;
        return (err_line("missing \"op\" field"), "error", false);
    };
    match op {
        "probe" => {
            match point_of(&doc).and_then(|p| state.inc.probe(&p).map_err(|e| e.to_string())) {
                Ok(label) => {
                    state.report.probes += 1;
                    (
                        format!(
                            "{{\"ok\":true,\"op\":\"probe\",\"label\":\"{}\"}}",
                            label_str(label)
                        ),
                        "probe",
                        false,
                    )
                }
                Err(e) => {
                    state.report.errors += 1;
                    (err_line(&e), "probe", false)
                }
            }
        }
        "insert" => {
            match point_of(&doc).and_then(|p| state.inc.insert(&p).map_err(|e| e.to_string())) {
                Ok(id) => {
                    state.report.inserts += 1;
                    (
                        format!(
                            "{{\"ok\":true,\"op\":\"insert\",\"id\":{id},\"label\":\"{}\"}}",
                            label_str(state.inc.label(id))
                        ),
                        "insert",
                        false,
                    )
                }
                Err(e) => {
                    state.report.errors += 1;
                    (err_line(&e), "insert", false)
                }
            }
        }
        "remove" => match doc.get("id").and_then(Value::as_u64) {
            Some(raw) => {
                // Ids outside the u32 id space were never assigned, so
                // they are misses, not errors — same as a re-remove.
                let removed = u32::try_from(raw)
                    .ok()
                    .is_some_and(|id: PointId| state.inc.remove(id));
                state.report.removes += 1;
                (
                    format!("{{\"ok\":true,\"op\":\"remove\",\"id\":{raw},\"removed\":{removed}}}"),
                    "remove",
                    false,
                )
            }
            None => {
                state.report.errors += 1;
                (err_line("missing \"id\" field"), "remove", false)
            }
        },
        "outliers" => {
            let ids = state.inc.outliers();
            state.report.outlier_queries += 1;
            let mut out = format!(
                "{{\"ok\":true,\"op\":\"outliers\",\"count\":{},\"ids\":[",
                ids.len()
            );
            for (i, id) in ids.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&id.to_string());
            }
            out.push_str("]}");
            (out, "outliers", false)
        }
        "stats" => {
            state.report.stats_queries += 1;
            let inc = &state.inc;
            let core = (0..inc.total_inserted() as PointId)
                .filter(|&id| inc.is_alive(id) && inc.label(id) == PointLabel::Core)
                .count();
            let k = inc.kernel_counters();
            (
                format!(
                    "{{\"ok\":true,\"op\":\"stats\",\"points\":{},\"total_inserted\":{},\
                     \"outliers\":{},\"core\":{},\"kernel\":\"{}\",\
                     \"rebuilds\":{},\"compactions\":{},\"cells_visited\":{},\
                     \"bbox_prunes\":{},\"early_exit_hits\":{},\"distance_evals\":{}}}",
                    inc.len(),
                    inc.total_inserted(),
                    inc.outliers().len(),
                    core,
                    inc.kernel().as_str(),
                    inc.rebuilds(),
                    inc.compactions(),
                    k.cells_visited,
                    k.bbox_prunes,
                    k.early_exit_hits,
                    k.distance_evals,
                ),
                "stats",
                false,
            )
        }
        "shutdown" => (
            "{\"ok\":true,\"op\":\"shutdown\"}".to_string(),
            "shutdown",
            true,
        ),
        other => {
            state.report.errors += 1;
            (err_line(&format!("unknown op {other:?}")), "error", false)
        }
    }
}

/// Runs one serving session: reads request lines from `reader`, writes
/// one response line per request to `writer`. Returns `Ok(true)` when
/// the client asked for `shutdown`, `Ok(false)` on EOF/hangup.
pub(crate) fn serve_session<R: BufRead, W: Write>(
    state: &mut ServeState,
    reader: R,
    writer: &mut W,
) -> std::io::Result<bool> {
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let started = Instant::now();
        let (response, op, shutdown) = handle(state, &line);
        state.report.queries += 1;
        if let Some(c) = &state.collector {
            c.record_span(
                Span::new(
                    format!("serve:{op}"),
                    SpanKind::Task,
                    started,
                    started.elapsed(),
                )
                .arg("seq", state.report.queries),
            );
        }
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// `dbscout serve`: bulk-load a dataset, then answer queries against the
/// warm incremental detector until `shutdown`.
pub fn serve(flags: &Flags) -> Result<String, CliError> {
    let input: String = flags.require("input")?;
    let eps: f64 = flags.require("eps")?;
    let min_pts: usize = flags.require("min-pts")?;
    let from_binary = flags.has("from-binary");
    let labeled = flags.has("labeled");
    if from_binary && labeled {
        return Err(CliError::new(
            "--from-binary input carries no label column; drop --labeled",
        ));
    }
    let batch_size: usize = flags.get("batch-size", DEFAULT_BATCH_SIZE)?;
    if batch_size == 0 {
        return Err(CliError::new("--batch-size must be at least 1"));
    }
    let kernel = parse_kernel(&flags.get("kernel", "auto".to_string())?)?;
    // Accepted for flag-surface parity with `detect` and echoed in the
    // run report; the warm engine answers each query on one thread.
    let threads: u64 = flags.get("threads", 1)?;
    let socket: Option<String> = flags.require::<String>("socket").ok();
    let trace_out = flags.require::<String>("trace-out").ok();
    let report_out = flags.require::<String>("report-json").ok();
    let collector =
        (trace_out.is_some() || report_out.is_some()).then(|| Arc::new(TraceCollector::new()));

    let params = DbscoutParams::new(eps, min_pts).map_err(|e| CliError::new(e.to_string()))?;
    let store = if from_binary {
        let mut src =
            BinarySource::open(&input, batch_size).map_err(|e| CliError::data(e.to_string()))?;
        materialize(&mut src).map_err(|e| CliError::data(e.to_string()))?
    } else {
        load_dataset(&input, labeled, IngestMode::Strict)?.store
    };
    let dims = store.dims() as u64;

    let t = Instant::now();
    let inc = IncrementalDbscout::from_store_with(&store, params, kernel)
        .map_err(|e| CliError::engine(e.to_string()))?;
    eprintln!(
        "dbscout serve: {} points warm in {:?} (kernel = {}), {} outliers",
        inc.len(),
        t.elapsed(),
        inc.kernel().as_str(),
        inc.outliers().len(),
    );
    let mut state = ServeState::new(inc, collector.clone());

    let session_start = Instant::now();
    if let Some(path) = &socket {
        serve_on_socket(&mut state, path)?;
    } else {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        serve_session(&mut state, stdin.lock(), &mut out)
            .map_err(|e| CliError::engine(format!("serve session failed: {e}")))?;
    }
    let elapsed = session_start.elapsed();

    let serve_report = state.serve_report();
    eprintln!(
        "dbscout serve: session over — {} queries ({} probes, {} inserts, {} removes, \
         {} outlier queries, {} stats queries, {} errors), {} rebuilds, {} compactions",
        serve_report.queries,
        serve_report.probes,
        serve_report.inserts,
        serve_report.removes,
        serve_report.outlier_queries,
        serve_report.stats_queries,
        serve_report.errors,
        serve_report.rebuilds,
        serve_report.compactions,
    );

    let inc = state.detector();
    if let (Some(path), Some(c)) = (&trace_out, &collector) {
        let end = Instant::now();
        for (name, value) in inc.kernel_counters().named() {
            c.record_counter_point(name, end, value);
        }
        std::fs::write(path, c.to_chrome_trace()).map_err(|e| CliError::data(e.to_string()))?;
        eprintln!("wrote chrome trace to {path}");
    }
    if let Some(path) = &report_out {
        let result = inc.snapshot();
        let info = RunInfo {
            source: input.clone(),
            points: inc.len() as u64,
            dimensions: dims,
            engine: "incremental".to_owned(),
            partitions: 0,
            workers: 0,
            kernel: inc.kernel().as_str().to_owned(),
            threads,
            chaos_seed: None,
            peak_rss_bytes: dbscout_telemetry::peak_rss_bytes(),
        };
        let mut report = build_run_report(
            &info,
            params,
            &result,
            &MetricsSnapshot::default(),
            &[],
            None,
            elapsed,
        );
        // The snapshot's per-run kernel counters are zero by design (the
        // work happened across individual queries); the totals echo the
        // accumulated per-operation counters instead.
        let k = inc.kernel_counters();
        report.totals.cells_visited = k.cells_visited;
        report.totals.bbox_prunes = k.bbox_prunes;
        report.totals.early_exit_hits = k.early_exit_hits;
        report.totals.distance_evals = k.distance_evals;
        report.serve = Some(serve_report);
        std::fs::write(path, report.to_json()).map_err(|e| CliError::data(e.to_string()))?;
        eprintln!("wrote run report to {path}");
    }
    // Stdout is the protocol channel, so the report string stays empty
    // (summaries went to stderr above).
    Ok(String::new())
}

/// Socket mode: accept connections one at a time and serve each as a
/// session; `shutdown` from any client stops the daemon.
fn serve_on_socket(state: &mut ServeState, path: &str) -> Result<(), CliError> {
    use std::os::unix::net::UnixListener;

    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener =
        UnixListener::bind(path).map_err(|e| CliError::data(format!("bind {path}: {e}")))?;
    eprintln!("dbscout serve: listening on {path}");
    let mut shutdown = false;
    while !shutdown {
        let (stream, _) = listener
            .accept()
            .map_err(|e| CliError::engine(format!("accept on {path}: {e}")))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| CliError::engine(format!("socket clone: {e}")))?,
        );
        let mut writer = stream;
        // A client hanging up mid-session is normal; only report errors
        // that are not disconnects.
        match serve_session(state, reader, &mut writer) {
            Ok(s) => shutdown = s,
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
            Err(e) => return Err(CliError::engine(format!("serve session failed: {e}"))),
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn warm_state() -> ServeState {
        // A dense 3×3 grid plus one far-away outlier, ids 0..=9.
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                rows.push(vec![0.1 * f64::from(i), 0.1 * f64::from(j)]);
            }
        }
        rows.push(vec![100.0, 100.0]);
        let store = dbscout_spatial::PointStore::from_rows(2, rows).unwrap();
        let params = DbscoutParams::new(1.0, 4).unwrap();
        let inc = IncrementalDbscout::from_store(&store, params).unwrap();
        ServeState::new(inc, None)
    }

    fn run_lines(state: &mut ServeState, lines: &[&str]) -> (Vec<String>, bool) {
        let input = lines.join("\n");
        let mut out = Vec::new();
        let shutdown = serve_session(state, Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        (text.lines().map(str::to_owned).collect(), shutdown)
    }

    #[test]
    fn protocol_round_trip_probe_insert_remove_outliers() {
        let mut state = warm_state();
        let (responses, shutdown) = run_lines(
            &mut state,
            &[
                r#"{"op":"outliers"}"#,
                r#"{"op":"probe","point":[0.1,0.1]}"#,
                r#"{"op":"probe","point":[50.0,50.0]}"#,
                r#"{"op":"insert","point":[50.0,50.0]}"#,
                r#"{"op":"outliers"}"#,
                r#"{"op":"remove","id":10}"#,
                r#"{"op":"remove","id":10}"#,
                r#"{"op":"outliers"}"#,
                r#"{"op":"stats"}"#,
                r#"{"op":"shutdown"}"#,
            ],
        );
        assert!(shutdown);
        assert_eq!(responses.len(), 10, "{responses:?}");
        assert_eq!(
            responses[0],
            r#"{"ok":true,"op":"outliers","count":1,"ids":[9]}"#
        );
        // Probing inside the dense grid answers core; far away, outlier.
        assert_eq!(responses[1], r#"{"ok":true,"op":"probe","label":"core"}"#);
        assert_eq!(
            responses[2],
            r#"{"ok":true,"op":"probe","label":"outlier"}"#
        );
        // The probe did not mutate: the insert gets the next id (10).
        assert_eq!(
            responses[3],
            r#"{"ok":true,"op":"insert","id":10,"label":"outlier"}"#
        );
        assert_eq!(
            responses[4],
            r#"{"ok":true,"op":"outliers","count":2,"ids":[9,10]}"#
        );
        assert_eq!(
            responses[5],
            r#"{"ok":true,"op":"remove","id":10,"removed":true}"#
        );
        // Re-removing is a miss, answered — not an error.
        assert_eq!(
            responses[6],
            r#"{"ok":true,"op":"remove","id":10,"removed":false}"#
        );
        assert_eq!(
            responses[7],
            r#"{"ok":true,"op":"outliers","count":1,"ids":[9]}"#
        );
        assert!(responses[8].contains("\"points\":10"), "{}", responses[8]);
        assert!(
            responses[8].contains("\"total_inserted\":11"),
            "{}",
            responses[8]
        );
        assert_eq!(responses[9], r#"{"ok":true,"op":"shutdown"}"#);

        let r = state.serve_report();
        assert_eq!(r.queries, 10);
        assert_eq!(r.probes, 2);
        assert_eq!(r.inserts, 1);
        assert_eq!(r.removes, 2);
        assert_eq!(r.outlier_queries, 3);
        assert_eq!(r.stats_queries, 1);
        assert_eq!(r.errors, 0);
    }

    #[test]
    fn malformed_requests_answer_errors_and_keep_the_session_alive() {
        let mut state = warm_state();
        let (responses, shutdown) = run_lines(
            &mut state,
            &[
                "not json at all",
                r#"{"point":[1.0,2.0]}"#,
                r#"{"op":"frobnicate"}"#,
                r#"{"op":"probe"}"#,
                r#"{"op":"probe","point":[1.0]}"#,
                r#"{"op":"probe","point":["a","b"]}"#,
                r#"{"op":"insert","point":[1.0,2.0,3.0]}"#,
                r#"{"op":"insert","point":[1e19,0.0]}"#,
                r#"{"op":"probe","point":[2e19,0.0]}"#,
                r#"{"op":"remove"}"#,
                "",
                r#"{"op":"stats"}"#,
            ],
        );
        // EOF without shutdown: the daemon reports a hangup, not a close.
        assert!(!shutdown);
        // The blank line is skipped entirely (no response, not counted).
        assert_eq!(responses.len(), 11, "{responses:?}");
        for r in &responses[..10] {
            assert!(r.starts_with(r#"{"ok":false,"error":""#), "{r}");
        }
        // A coordinate beyond the exact cell range is a typed error.
        assert!(
            responses[7].contains("beyond the exact cell range"),
            "{}",
            responses[7]
        );
        assert!(
            responses[8].contains("beyond the exact cell range"),
            "{}",
            responses[8]
        );
        assert!(responses[10].starts_with(r#"{"ok":true,"op":"stats""#));
        let r = state.serve_report();
        assert_eq!(r.queries, 11);
        assert_eq!(r.errors, 10);
        assert_eq!(r.stats_queries, 1);
        // The dimension-mismatched and out-of-range inserts really were
        // rejected.
        assert_eq!(state.detector().total_inserted(), 10);
    }

    #[test]
    fn session_mutations_match_a_directly_driven_detector() {
        let mut state = warm_state();
        let mut twin = warm_state();

        let mut lines = Vec::new();
        for i in 0..20u32 {
            let x = 0.05 * f64::from(i % 7);
            let y = 40.0 + 0.05 * f64::from(i % 5);
            lines.push(format!(r#"{{"op":"insert","point":[{x},{y}]}}"#));
            twin.inc.insert(&[x, y]).unwrap();
            if i % 3 == 0 {
                lines.push(format!(r#"{{"op":"remove","id":{i}}}"#));
                twin.inc.remove(i);
            }
        }
        lines.push(r#"{"op":"outliers"}"#.to_string());
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let (responses, _) = run_lines(&mut state, &refs);

        let expected = twin.inc.outliers();
        let mut want = format!(
            r#"{{"ok":true,"op":"outliers","count":{},"ids":["#,
            expected.len()
        );
        want.push_str(
            &expected
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
        );
        want.push_str("]}");
        assert_eq!(responses.last().unwrap(), &want);
        assert_eq!(state.inc.labels(), twin.inc.labels());
    }
}
