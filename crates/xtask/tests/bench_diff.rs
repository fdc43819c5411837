//! Fixture self-tests for `cargo xtask bench-diff`.
//!
//! The fixtures under `tests/fixtures/bench_diff/` are results files in
//! the shape `perfbench/run.sh` writes, plus a reduced `BENCHMARK.json`
//! for the library tests. The binary tests run against the repository's
//! real `BENCHMARK.json`, whose end-to-end metrics the results fixtures
//! all carry.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::float_cmp
)]

use std::process::Command;

use xtask::bench_diff::{declared_metrics, diff, Better, Verdict};

fn fixture_path(name: &str) -> String {
    format!(
        "{}/tests/fixtures/bench_diff/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn fixture(name: &str) -> String {
    std::fs::read_to_string(fixture_path(name)).expect("fixture exists")
}

fn verdicts(change: &str) -> Vec<(String, Verdict)> {
    let d = diff(
        &fixture("parent.json"),
        &fixture(change),
        &fixture("benchmark.json"),
    )
    .unwrap();
    d.rows.into_iter().map(|r| (r.name, r.verdict)).collect()
}

fn named(rows: &[(String, Verdict)], name: &str) -> Verdict {
    rows.iter().find(|(n, _)| n == name).unwrap().1
}

#[test]
fn declared_metrics_follow_the_benchmark_file() {
    let d = declared_metrics(&fixture("benchmark.json")).unwrap();
    let names: Vec<&str> = d.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names,
        ["detect_s", "peak_rss_mb", "serve_ops_s", "probe_p99_us"]
    );
    assert_eq!(d[1].bound, 0.1);
    assert_eq!(d[2].better, Better::Higher);
}

#[test]
fn a_run_against_itself_is_within_bound() {
    let rows = verdicts("parent.json");
    assert_eq!(rows.len(), 5, "four declared metrics plus error_rate");
    assert!(
        rows.iter().all(|(_, v)| *v == Verdict::WithinBound),
        "{rows:?}"
    );
}

#[test]
fn a_halved_median_is_a_gain_and_noise_is_not() {
    let rows = verdicts("gain.json");
    assert_eq!(named(&rows, "detect_s"), Verdict::Gain);
    // +1% throughput and -3% p99 latency lie inside the 0.25 bound.
    assert_eq!(named(&rows, "serve_ops_s"), Verdict::WithinBound);
    assert_eq!(named(&rows, "probe_p99_us"), Verdict::WithinBound);
    assert_eq!(named(&rows, "peak_rss_mb"), Verdict::WithinBound);
}

#[test]
fn moves_past_the_bound_regress_in_either_direction() {
    let rows = verdicts("regression.json");
    // +20% memory against a 0.1 bound (lower is better).
    assert_eq!(named(&rows, "peak_rss_mb"), Verdict::Regression);
    // -30% throughput against a 0.25 bound (higher is better).
    assert_eq!(named(&rows, "serve_ops_s"), Verdict::Regression);
    assert_eq!(named(&rows, "detect_s"), Verdict::WithinBound);
}

#[test]
fn a_rising_error_rate_regresses() {
    let rows = verdicts("failures.json");
    assert_eq!(named(&rows, "error_rate"), Verdict::Regression);
}

#[test]
fn a_metric_the_change_lost_regresses() {
    let bench = fixture("benchmark.json")
        .replace("probe_p99_us", "setup_s")
        .replace("\"us\"", "\"s\"");
    let d = diff(&fixture("parent.json"), &fixture("missing.json"), &bench).unwrap();
    let setup = d.rows.iter().find(|r| r.name == "setup_s").unwrap();
    assert_eq!((setup.change, setup.verdict), (None, Verdict::Regression));
    assert!(d
        .render()
        .contains("| setup_s | s | 1.670 | missing | - | 0.25 | REGRESSION |"));
}

#[test]
fn mismatched_or_traced_inputs_are_errors() {
    let bench = fixture("benchmark.json");
    let e = diff(&fixture("parent.json"), &fixture("geolife.json"), &bench).unwrap_err();
    assert!(e.contains("different workloads"), "{e}");
    let e = diff(&fixture("traced.json"), &fixture("traced.json"), &bench).unwrap_err();
    assert!(e.contains("--trace 0"), "{e}");
    assert!(diff("{", &fixture("parent.json"), &bench).is_err());
    assert!(diff(&fixture("parent.json"), &fixture("parent.json"), "[]").is_err());
}

#[test]
fn the_table_prints_medians_ratios_and_verdicts() {
    let d = diff(
        &fixture("parent.json"),
        &fixture("gain.json"),
        &fixture("benchmark.json"),
    )
    .unwrap();
    let table = d.render();
    assert!(table.starts_with("bench-diff osm (parent seed 7, change seed 7)"));
    assert!(
        table.contains("| detect_s | s | 0.5400 | 0.2700 | 0.500 | 0.25 | GAIN |"),
        "{table}"
    );
}

fn run_binary(parent: &str, change: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["bench-diff", &fixture_path(parent), &fixture_path(change)])
        .env("CARGO_MANIFEST_DIR", env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap();
    (out.status.code(), String::from_utf8(out.stdout).unwrap())
}

#[test]
fn the_binary_exits_by_verdict_under_the_real_benchmark_file() {
    let (code, table) = run_binary("parent.json", "gain.json");
    assert_eq!(code, Some(0), "{table}");
    // Every end-to-end metric of BENCHMARK.json has a row.
    assert_eq!(table.lines().filter(|l| l.starts_with("| ")).count(), 12);
    assert_eq!(run_binary("parent.json", "regression.json").0, Some(1));
    assert_eq!(run_binary("parent.json", "geolife.json").0, Some(2));
}
