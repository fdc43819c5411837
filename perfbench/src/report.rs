//! Metrics, the per-invocation results file, and the result line.

use std::path::PathBuf;

use dbscout_telemetry::json::{escape, JsonWriter};

use crate::stats::Summary;
use crate::{Error, OUT_DIR};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric, with the series it was read from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: usize,
    pub summary: Option<Summary>,
}

impl Metric {
    /// The median of `samples`.
    pub fn series(
        name: &'static str,
        unit: &'static str,
        better: Better,
        samples: &[f64],
    ) -> Metric {
        let summary = Summary::of(samples);
        Metric {
            name,
            unit,
            better,
            value: summary.map_or(f64::NAN, |s| s.median),
            samples: samples.len(),
            summary,
        }
    }

    /// The 99th percentile of `samples`; an error when fewer than ten
    /// samples lie beyond it.
    pub fn tail(name: &'static str, unit: &'static str, samples: &[f64]) -> Result<Metric, Error> {
        let summary = Summary::of(samples);
        let p99 = summary
            .and_then(|s| s.p99)
            .ok_or_else(|| format!("{name}: {} samples are too few for a p99", samples.len()))?;
        Ok(Metric {
            name,
            unit,
            better: Better::Lower,
            value: p99,
            samples: samples.len(),
            summary,
        })
    }

    /// A single derived value or count.
    pub fn value(
        name: &'static str,
        unit: &'static str,
        better: Better,
        value: f64,
        samples: usize,
    ) -> Metric {
        Metric {
            name,
            unit,
            better,
            value,
            samples,
            summary: None,
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Writes `.bench_out/results-<workload>-seed<n>-trace<t>.json`: host
/// facts, then every metric with its unit, direction, sample count,
/// median, quartiles and (when the tail rule allows) p99.
pub fn write_results(
    workload: &str,
    seed: u64,
    trace: bool,
    o: &Outcome,
) -> Result<PathBuf, Error> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = PathBuf::from(OUT_DIR).join(format!(
        "results-{workload}-seed{seed}-trace{}.json",
        u8::from(trace)
    ));
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("workload", workload)
        .field_u64("seed", seed)
        .field_bool("trace", trace)
        .begin_object_field("host")
        .field_u64("nproc", crate::nproc() as u64)
        .field_str("git_rev", &git_rev())
        .field_str("date_utc", &utc_now())
        .begin_object_field("caches");
    for (name, size) in cache_sizes() {
        w.field_str(&name, &size);
    }
    w.end_object()
        .end_object()
        .field_u64("attempted", o.attempted as u64)
        .field_u64("failed", o.failed as u64)
        .field_f64("error_rate", o.error_rate())
        .begin_object_field("metrics");
    for m in &o.metrics {
        w.begin_object_field(m.name)
            .field_str("unit", m.unit)
            .field_str("better", m.better.as_str())
            .field_f64("value", m.value)
            .field_u64("samples", m.samples as u64);
        if let Some(s) = m.summary {
            w.field_f64("median", s.median)
                .field_f64("q1", s.q1)
                .field_f64("q3", s.q3);
            if let Some(p99) = s.p99 {
                w.field_f64("p99", p99);
            }
        }
        w.end_object();
    }
    w.end_object().begin_array_field("notes");
    for n in &o.notes {
        w.string(n);
    }
    w.end_array().end_object();
    std::fs::write(&path, w.finish())?;
    Ok(path)
}

pub fn print_human(workload: &str, o: &Outcome, results: &std::path::Path) {
    println!("== {workload}");
    for m in &o.metrics {
        let spread = m
            .summary
            .map(|s| format!("  (n={}, q1={:.6}, q3={:.6})", s.n, s.q1, s.q3))
            .unwrap_or_default();
        println!("{:<28} {:>16.6} {:<8}{spread}", m.name, m.value, m.unit);
    }
    println!(
        "{:<28} {:>16.6} {:<8}  ({} failed of {} attempted)",
        "error_rate",
        o.error_rate(),
        "fraction",
        o.failed,
        o.attempted
    );
    for n in &o.notes {
        println!("note: {n}");
    }
    println!("results: {}", results.display());
}

/// The last stdout line. With several workloads (`--workload all`) the
/// metric names are prefixed with `<workload>/`.
pub fn result_line(outcomes: &[(&str, Outcome)]) -> String {
    let attempted: usize = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed: usize = outcomes.iter().map(|(_, o)| o.failed).sum();
    let mut metrics = Vec::new();
    for (w, o) in outcomes {
        for m in &o.metrics {
            let name = if outcomes.len() == 1 {
                m.name.to_string()
            } else {
                format!("{w}/{}", m.name)
            };
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&name),
                m.value,
                escape(m.unit)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// Current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = ((secs / 86_400) as i64, secs % 86_400);
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem / 60 % 60,
        rem % 60
    )
}

/// CPU caches as reported by sysfs for cpu0, e.g. `("L2 Unified", "4096K")`.
fn cache_sizes() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        out.push((format!("L{level} {kind}"), size));
    }
    out
}
