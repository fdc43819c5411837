//! Runs the benchmark binary end to end on tiny inputs: every workload
//! must pass its output gate and print exactly the metrics
//! BENCHMARK.json declares.

use std::path::{Path, PathBuf};
use std::process::Command;

use dbscout_telemetry::json::{parse, Value};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The `dbscout` binary: `DBSCOUT_BIN` when set, else built here.
fn cli() -> PathBuf {
    if let Some(bin) = std::env::var_os("DBSCOUT_BIN") {
        return PathBuf::from(bin);
    }
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "dbscout-cli",
            "--manifest-path",
        ])
        .arg(root().join("Cargo.toml"))
        .status()
        .unwrap();
    assert!(status.success());
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or(root().join("target"), PathBuf::from);
    target.join("release").join("dbscout")
}

/// (name, unit) of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
    let doc = parse(&text).unwrap();
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
    let mut metrics: Vec<(String, String)> = doc
        .get(section)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    metrics.sort();
    metrics
}

fn run(workload: &str, trace: u8) -> Value {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("contract-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dbscout-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "4",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(trace.to_string())
        .arg("--tiny")
        .env("DBSCOUT_BIN", cli())
        .current_dir(&dir)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{workload} trace {trace}:\n{stdout}");
    let last = stdout.lines().last().unwrap();
    parse(last).unwrap()
}

#[test]
fn tiny_runs_pass_the_gate_and_print_the_declared_metrics() {
    for workload in ["osm", "geolife"] {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let doc = run(workload, trace);
            assert!(
                matches!(doc.get("correct"), Some(Value::Bool(true))),
                "{workload}"
            );
            assert_eq!(
                doc.get("failed").and_then(Value::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(doc.get("attempted").and_then(Value::as_u64).unwrap() > 0);
            let metrics = doc.get("metrics").and_then(Value::as_object).unwrap();
            let mut printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                    let unit = m.get("unit").and_then(Value::as_str).unwrap();
                    (name.clone(), unit.to_string())
                })
                .collect();
            printed.sort();
            assert_eq!(printed, declared(section), "{workload} trace {trace}");
        }
    }
}
