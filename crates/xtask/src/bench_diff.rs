//! `cargo xtask bench-diff <parent.json> <change.json>` — compares two
//! runs of the repository benchmark.
//!
//! Both inputs are `.bench_out/results-*.json` files written by
//! `perfbench/run.sh`. The metric set, each metric's better direction
//! and its regression bound come from the `end_to_end` list of
//! `BENCHMARK.json`. For every declared metric the diff reports the
//! parent value, the change value, their ratio and a verdict:
//!
//! * **REGRESSION** — the change is worse than the parent by more than
//!   the bound: `change > parent · (1 + bound)` for lower-is-better,
//!   `change < parent · (1 − bound)` for higher-is-better; or the
//!   parent reported the metric and the change did not; or the
//!   `error_rate` rose.
//! * **GAIN** — the change is better than the parent by more than the
//!   same bound. One pair of files holds no run-to-run spread, so a
//!   gain claim still needs many alternating pairs; this verdict only
//!   says the move is too large to be within the bound.
//! * **within-bound** — everything else.
//!
//! The tool only reads these files; it never edits benchmark inputs.

use dbscout_telemetry::json::{parse, Value};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

/// One declared end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name, the key in the results files.
    pub name: String,
    /// Unit as declared.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Largest tolerated relative move in the worse direction.
    pub bound: f64,
}

/// The verdict on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the parent by more than the bound.
    Gain,
    /// Neither a gain nor a regression.
    WithinBound,
    /// Worse than the parent beyond the bound.
    Regression,
}

impl Verdict {
    /// The label printed in the table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "GAIN",
            Verdict::WithinBound => "within-bound",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// One row of the diff.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Parent value, if the parent reported the metric.
    pub parent: Option<f64>,
    /// Change value, if the change reported the metric.
    pub change: Option<f64>,
    /// The bound the verdict used.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

impl Row {
    /// `change / parent`, when both exist and the parent is non-zero.
    pub fn ratio(&self) -> Option<f64> {
        match (self.parent, self.change) {
            (Some(p), Some(c)) if p != 0.0 => Some(c / p),
            _ => None,
        }
    }
}

/// The whole comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Diff {
    /// The workload both runs measured.
    pub workload: String,
    /// Parent and change seeds.
    pub seeds: (u64, u64),
    /// One row per declared metric, then `error_rate`.
    pub rows: Vec<Row>,
}

impl Diff {
    /// Whether any row regressed.
    pub fn has_regression(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Regression)
    }

    /// The diff as a Markdown table, preceded by a one-line header.
    pub fn render(&self) -> String {
        let mut out = format!(
            "bench-diff {} (parent seed {}, change seed {})\n\n",
            self.workload, self.seeds.0, self.seeds.1
        );
        out.push_str("| metric | unit | parent | change | ratio | bound | verdict |\n");
        out.push_str("|---|---|---:|---:|---:|---:|---|\n");
        let num = |v: Option<f64>| v.map_or_else(|| "missing".to_string(), format_value);
        for r in &self.rows {
            let ratio = r
                .ratio()
                .map_or_else(|| "-".to_string(), |x| format!("{x:.3}"));
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} |\n",
                r.name,
                r.unit,
                num(r.parent),
                num(r.change),
                ratio,
                r.bound,
                r.verdict.label()
            ));
        }
        out
    }
}

/// Four significant digits, without exponent noise for the magnitudes
/// the benchmark reports.
fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

/// Reads the `end_to_end` list of a `BENCHMARK.json` document.
///
/// # Errors
///
/// A message naming the first malformed entry.
pub fn declared_metrics(benchmark: &str) -> Result<Vec<Declared>, String> {
    let doc = parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no `end_to_end` array")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("BENCHMARK.json: end_to_end entry without a name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("BENCHMARK.json: {name}: bad `better` {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .filter(|b| b.is_finite() && *b >= 0.0)
                .ok_or_else(|| format!("BENCHMARK.json: {name}: missing or negative bound"))?;
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            Ok(Declared {
                name: name.to_string(),
                unit: unit.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// A parsed results file.
struct Run {
    workload: String,
    seed: u64,
    error_rate: f64,
    metrics: Vec<(String, f64)>,
}

impl Run {
    fn parse(text: &str, what: &str) -> Result<Self, String> {
        let doc = parse(text).map_err(|e| format!("{what}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{what}: no `workload`"))?
            .to_string();
        let seed = doc.get("seed").and_then(Value::as_u64).unwrap_or(0);
        let error_rate = doc
            .get("error_rate")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{what}: no `error_rate`"))?;
        let fields = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{what}: no `metrics` object"))?;
        let mut metrics = Vec::with_capacity(fields.len());
        for (name, m) in fields {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{what}: {name}: no numeric `value`"))?;
            metrics.push((name.clone(), value));
        }
        Ok(Self {
            workload,
            seed,
            error_rate,
            metrics,
        })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// The verdict on one declared metric.
fn judge(d: &Declared, parent: Option<f64>, change: Option<f64>) -> Verdict {
    let (Some(p), Some(c)) = (parent, change) else {
        // Missing from the change only: the change lost a measurement.
        return if change.is_none() && parent.is_some() {
            Verdict::Regression
        } else {
            Verdict::WithinBound
        };
    };
    let improvement = match d.better {
        Better::Lower => p - c,
        Better::Higher => c - p,
    };
    let limit = (p * d.bound).abs();
    if -improvement > limit {
        Verdict::Regression
    } else if improvement > limit {
        Verdict::Gain
    } else {
        Verdict::WithinBound
    }
}

/// Compares two results files under the metrics declared in
/// `benchmark`.
///
/// # Errors
///
/// A message when a document does not parse, lacks a required field, or
/// the two runs measured different workloads.
pub fn diff(parent: &str, change: &str, benchmark: &str) -> Result<Diff, String> {
    let declared = declared_metrics(benchmark)?;
    let parent = Run::parse(parent, "parent")?;
    let change = Run::parse(change, "change")?;
    if parent.workload != change.workload {
        return Err(format!(
            "the runs measured different workloads: {} vs {}",
            parent.workload, change.workload
        ));
    }
    let reported = |run: &Run| declared.iter().any(|d| run.metric(&d.name).is_some());
    if !reported(&parent) && !reported(&change) {
        return Err(
            "neither file reports an end-to-end metric; compare untraced \
                    (--trace 0) runs"
                .to_string(),
        );
    }
    let mut rows: Vec<Row> = declared
        .iter()
        .map(|d| {
            let (p, c) = (parent.metric(&d.name), change.metric(&d.name));
            Row {
                name: d.name.clone(),
                unit: d.unit.clone(),
                parent: p,
                change: c,
                bound: d.bound,
                verdict: judge(d, p, c),
            }
        })
        .collect();
    rows.push(Row {
        name: "error_rate".to_string(),
        unit: "fraction".to_string(),
        parent: Some(parent.error_rate),
        change: Some(change.error_rate),
        bound: 0.0,
        verdict: if change.error_rate > parent.error_rate {
            Verdict::Regression
        } else {
            Verdict::WithinBound
        },
    });
    Ok(Diff {
        workload: parent.workload,
        seeds: (parent.seed, change.seed),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_print_with_four_significant_digits() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(0.562125316), "0.5621");
        assert_eq!(format_value(50.5625), "50.56");
        assert_eq!(format_value(19688.1), "19688");
        assert_eq!(format_value(0.000275), "0.0002750");
    }
}
