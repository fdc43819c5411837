//! `cargo xtask lint` — the DBSCOUT workspace's custom static-analysis
//! suite.
//!
//! Five rule families guard invariants the paper's exactness claims rest
//! on (see `DESIGN.md`, "Static analysis & invariants"):
//!
//! * **XL001 panic-freedom** — library code in `dbscout-core`,
//!   `dbscout-spatial` and `dbscout-dataflow` must not contain
//!   `.unwrap()`, `.expect(...)`, `panic!`, `todo!`, `unreachable!`,
//!   `unimplemented!` or slice indexing; detection must degrade to a
//!   `Result`, never a crash, on billion-point inputs.
//! * **XL002 float-comparison discipline** — no direct `==`/`!=` with
//!   float operands, and distance-vs-threshold predicates must go through
//!   `dbscout_spatial::distance::within` (the closed-ball convention of
//!   Definition 2 lives in exactly one place).
//! * **XL003 parameter-validation coverage** — every `pub fn` in
//!   `dbscout-core` accepting raw `eps`/`min_pts` must reach a validation
//!   call before using them.
//! * **XL004 error-type hygiene** — every public type in a crate's
//!   `error.rs` implements `Display` + `std::error::Error` and asserts
//!   `Send + Sync + 'static` at compile time.
//! * **XL005 `catch_unwind` confinement** — panic recovery is the
//!   dataflow executor's task boundary; `catch_unwind` anywhere else
//!   hides bugs the retry machinery would surface.
//! * **XL006 stream hygiene** — no `println!`/`eprintln!` (or the
//!   non-newline forms) in library crates (`core`, `spatial`,
//!   `dataflow`, `data`, `telemetry`); a library that prints corrupts
//!   machine-readable output and cannot be silenced, so diagnostics go
//!   through the `dbscout-telemetry` recorder or returned values.
//! * **XL007 determinism** — no iteration over hash-ordered containers
//!   (`HashMap`/`HashSet`/`DetHashMap`/`CellHashMap`) in the result-affecting crates
//!   (`core`, `spatial`, `dataflow`); the byte-identical-labels
//!   guarantee must not depend on hash-bucket layout. Order-insensitive
//!   sites are waived per site with `// xlint: ordered -- <reason>`.
//! * **XL008 lock discipline** — inside `dbscout-dataflow` every
//!   `lock()`/`try_lock()` goes through `executor::lock_unpoisoned`, and
//!   no guard is held across a task-boundary call.
//! * **XL009 atomic-ordering discipline** — no `Ordering::Relaxed` on
//!   atomic loads/stores in `core`/`spatial`/`dataflow`; values that
//!   gate cross-thread visibility need Acquire/Release edges.
//! * **XL010 kernel-lane confinement** — lane-unrolled distance loops
//!   and architecture intrinsics (`std::arch`, `target_feature`) live
//!   only in `crates/spatial/src/distance.rs` and `cell_major.rs`,
//!   where the scalar-equivalence suite pins them; everywhere else they
//!   bypass the byte-identical-labels audit.
//!
//! The binary also hosts `cargo xtask check-report <file>`, which
//! validates a `dbscout detect --report-json` document against the
//! run-report schema (see [`report_check`]), and `cargo xtask
//! check-trace <file>`, which validates a `--trace-out` Chrome Trace
//! (see [`trace_check`]).
//!
//! Escape hatch: `// xtask-lint: allow(XL001) -- <justification>` on (or
//! directly above) the offending line. The justification is mandatory;
//! a hatch without one is reported as `XL000`.
//!
//! Implementation note: the toolchain here has no network access, so
//! `syn` is unavailable; rules run as token scans over comment/string-
//! stripped source (see [`lexer`]), with `cargo clippy`'s type-aware
//! `unwrap_used`/`float_cmp` lints as the compiler-grade backstop.

// Unit tests may panic freely; library code is held to the panic-freedom
// gates in `[workspace.lints]` and `cargo xtask lint`.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::float_cmp
    )
)]
pub mod bench_diff;
pub mod diag;
pub mod lexer;
pub mod report_check;
pub mod rules;
pub mod trace_check;

use std::path::{Path, PathBuf};

pub use diag::{render_json_report, Diagnostic};
use rules::Scope;

/// Crates whose library code must be panic-free (ROADMAP tier-1 engines).
const PANIC_FREE_CRATES: [&str; 3] = ["core", "spatial", "dataflow"];
/// Crates where raw distance comparisons are forbidden (the helpers live
/// in `dbscout-spatial::distance`, which is exempt along with the rest of
/// spatial's internal pruning code).
const DISTANCE_SCOPED_CRATES: [&str; 2] = ["core", "dataflow"];
/// Library crates that must never write to stdout/stderr (XL006): they
/// are embedded by the CLI and bench binaries, whose machine-readable
/// output (`--trace-out`, `--report-json`, result tables) must stay
/// uncorrupted.
const STDOUT_FREE_CRATES: [&str; 5] = ["core", "spatial", "dataflow", "data", "telemetry"];

/// Derives which rules apply to `rel_path` (workspace-relative, `/`
/// separators).
pub fn scope_for(rel_path: &str) -> Scope {
    let in_crate = |name: &str| rel_path.starts_with(&format!("crates/{name}/src/"));
    let panic_freedom = PANIC_FREE_CRATES.iter().any(|c| in_crate(c));
    Scope {
        panic_freedom,
        float_eq: panic_freedom && rel_path != "crates/spatial/src/distance.rs",
        distance_predicate: DISTANCE_SCOPED_CRATES.iter().any(|c| in_crate(c)),
        param_validation: in_crate("core"),
        error_hygiene: rel_path.ends_with("/error.rs"),
        // The executor is the sanctioned panic boundary; xtask itself must
        // name the token to hunt for it.
        catch_unwind: rel_path != "crates/dataflow/src/executor.rs" && !in_crate("xtask"),
        no_stdout: STDOUT_FREE_CRATES.iter().any(|c| in_crate(c)),
        // Determinism and atomic-ordering discipline cover the crates
        // whose output reaches labels; lock discipline is about the
        // executor's mutexes, all of which live in the dataflow crate.
        determinism: panic_freedom,
        lock_discipline: in_crate("dataflow"),
        atomic_ordering: panic_freedom,
        // Lane kernels are confined to the two audited spatial modules;
        // xtask itself must name the tokens to hunt for them.
        kernel_lane: !in_crate("xtask")
            && rel_path != "crates/spatial/src/distance.rs"
            && rel_path != "crates/spatial/src/cell_major.rs",
    }
}

/// Lints one file's source text under the given scope. This is the unit
/// the fixture self-tests drive directly.
pub fn lint_source(rel_path: &str, source: &str, scope: Scope) -> Vec<Diagnostic> {
    let cleaned = lexer::clean(source);
    let spans = rules::test_spans(&cleaned);
    let mut out = Vec::new();
    for &line in &cleaned.malformed {
        out.push(Diagnostic {
            rule: "XL000",
            file: rel_path.to_string(),
            line,
            col: 1,
            message: "malformed lint directive comment".to_string(),
            help: "the forms are `// xtask-lint: allow(XL00n) -- <justification>` and \
                   `// xlint: ordered -- <justification>`; the justification is mandatory"
                .to_string(),
        });
    }
    if scope.panic_freedom {
        rules::panic_freedom(&cleaned, rel_path, &spans, &mut out);
    }
    if scope.float_eq || scope.distance_predicate {
        rules::float_discipline(&cleaned, rel_path, scope, &spans, &mut out);
    }
    if scope.param_validation {
        rules::param_validation(&cleaned, rel_path, &spans, &mut out);
    }
    if scope.error_hygiene {
        rules::error_hygiene(&cleaned, rel_path, &mut out);
    }
    if scope.catch_unwind {
        rules::catch_unwind_confinement(&cleaned, rel_path, &spans, &mut out);
    }
    if scope.no_stdout {
        rules::stdout_discipline(&cleaned, rel_path, &spans, &mut out);
    }
    if scope.determinism {
        rules::determinism(&cleaned, rel_path, &spans, &mut out);
    }
    if scope.lock_discipline {
        rules::lock_discipline(&cleaned, rel_path, &spans, &mut out);
    }
    if scope.atomic_ordering {
        rules::atomic_ordering(&cleaned, rel_path, &spans, &mut out);
    }
    if scope.kernel_lane {
        rules::kernel_lane(&cleaned, rel_path, &spans, &mut out);
    }
    out.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    out
}

/// Recursively collects `.rs` files under `dir`.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `crates/*/src/**/*.rs` under `root`. Returns all findings
/// sorted by file/line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&file)?;
        out.extend(lint_source(&rel, &source, scope_for(&rel)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_follow_the_policy() {
        let core = scope_for("crates/core/src/native.rs");
        assert!(core.panic_freedom && core.float_eq && core.distance_predicate);
        assert!(core.param_validation && !core.error_hygiene);
        assert!(core.no_stdout);

        let dist = scope_for("crates/spatial/src/distance.rs");
        assert!(dist.panic_freedom && !dist.float_eq && !dist.distance_predicate);

        let err = scope_for("crates/dataflow/src/error.rs");
        assert!(err.error_hygiene && err.panic_freedom && err.catch_unwind);

        // The executor is the one module allowed to recover from panics.
        assert!(!scope_for("crates/dataflow/src/executor.rs").catch_unwind);
        assert!(scope_for("crates/core/src/native.rs").catch_unwind);

        let data = scope_for("crates/data/src/io.rs");
        assert!(!data.panic_freedom && !data.float_eq && !data.param_validation);
        assert!(data.no_stdout);
        assert!(scope_for("crates/data/src/error.rs").error_hygiene);

        // Telemetry is a library crate: silent. The CLI and xtask print
        // by design.
        assert!(scope_for("crates/telemetry/src/trace.rs").no_stdout);
        assert!(!scope_for("crates/cli/src/commands.rs").no_stdout);
        assert!(!scope_for("crates/xtask/src/main.rs").no_stdout);

        // Concurrency-correctness rules: determinism and atomic ordering
        // cover the result-affecting crates; lock discipline covers the
        // crate holding the executor's mutexes.
        assert!(core.determinism && core.atomic_ordering && !core.lock_discipline);
        let exec = scope_for("crates/dataflow/src/executor.rs");
        assert!(exec.determinism && exec.lock_discipline && exec.atomic_ordering);
        assert!(scope_for("crates/spatial/src/grid.rs").determinism);
        assert!(!data.determinism && !data.lock_discipline && !data.atomic_ordering);

        // The process-worker plumbing (wire framing and pool) lives in
        // dataflow, so the full concurrency regime applies — notably
        // XL008 lock discipline over the pool's shared dispatch state —
        // and both modules are inside the panic-freedom/no-stdout walls.
        let ipc = scope_for("crates/dataflow/src/ipc.rs");
        assert!(ipc.lock_discipline && ipc.determinism && ipc.atomic_ordering);
        assert!(ipc.panic_freedom && ipc.no_stdout && ipc.catch_unwind);
        let pool = scope_for("crates/dataflow/src/worker.rs");
        assert!(pool.lock_discipline && pool.panic_freedom && pool.no_stdout);

        // Telemetry-merge paths (cross-process tracing): the parent-side
        // span/counter merge sits in the worker pool and the stage
        // metrics module, so hash-order iteration (XL007), raw locking
        // (XL008) and relaxed atomics (XL009) are all in scope there.
        assert!(pool.determinism && pool.atomic_ordering);
        let stage_metrics = scope_for("crates/dataflow/src/metrics.rs");
        assert!(stage_metrics.determinism && stage_metrics.lock_discipline);
        assert!(stage_metrics.atomic_ordering && stage_metrics.no_stdout);
        // The counter taxonomy itself lives in telemetry, which is
        // print-free but not result-affecting (merged counters feed
        // reports, not labels).
        let counters = scope_for("crates/telemetry/src/counters.rs");
        assert!(counters.no_stdout && !counters.determinism && !counters.lock_discipline);

        // Kernel-lane confinement: only the two audited spatial modules
        // (and xtask, which names the tokens) escape XL010.
        assert!(!scope_for("crates/spatial/src/distance.rs").kernel_lane);
        assert!(!scope_for("crates/spatial/src/cell_major.rs").kernel_lane);
        assert!(!scope_for("crates/xtask/src/rules.rs").kernel_lane);
        assert!(scope_for("crates/spatial/src/grid.rs").kernel_lane);
        assert!(core.kernel_lane);
        assert!(scope_for("crates/data/src/io.rs").kernel_lane);
    }

    #[test]
    fn malformed_directive_reported_everywhere() {
        let d = lint_source(
            "crates/data/src/x.rs",
            "// xtask-lint: allow(XL001)\nfn f() {}\n",
            scope_for("crates/data/src/x.rs"),
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d.first().map(|d| d.rule), Some("XL000"));
    }
}
