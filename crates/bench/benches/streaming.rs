// Bench targets are exempt from the panic-freedom policy (see DESIGN.md).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! Wall-clock head-to-head of the two routes from a binary dataset file
//! to an outlier result:
//!
//! * `materialized` — read the whole file into a `PointStore`, then
//!   `detect` (the pre-streaming shape: raw bytes, the store, and the
//!   cell-major layout all resident at once);
//! * `streaming/b<batch>` — `detect_source` over a `BinarySource`,
//!   which builds the cell-major layout in two passes over the file and
//!   never materializes the store.
//!
//! Labels and stats are identical by construction (see
//! `crates/core/tests/streaming_equivalence.rs`); the interesting axes
//! are wall-clock (the second file pass vs. the extra copy) and peak
//! memory (reported by the CLI's `--report-json`, exercised by the CI
//! `ulimit -v` smoke run).
//!
//! Full size is 1M points; under `--test` (CI smoke) it drops to 5k so
//! the target finishes in seconds.

use dbscout_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbscout_bench::workloads;
use dbscout_core::{Dbscout, DbscoutParams};
use dbscout_data::io::read_binary;
use dbscout_data::BinarySource;

fn bench_streaming(c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let n = if test_mode {
        5_000
    } else {
        workloads::STREAMING1M_N
    };
    let path = std::env::temp_dir().join(format!("dbscout-bench-streaming-{n}.bin"));
    let _store = workloads::streaming1m(n, &path);
    let params = DbscoutParams::new(workloads::STREAMING1M_EPS, workloads::STREAMING1M_MIN_PTS)
        .expect("valid params");
    let detector = Dbscout::new(params);

    let mut g = c.benchmark_group(&format!("streaming_uniform2d_{n}"));
    g.sample_size(10);
    g.bench_function("materialized", |b| {
        b.iter(|| {
            let store = read_binary(&path).expect("read");
            detector.detect(&store).expect("run")
        })
    });
    for batch in [8_192usize, 65_536] {
        g.bench_with_input(
            BenchmarkId::new("streaming", format!("b{batch}")),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    let mut source = BinarySource::open(&path, batch).expect("open");
                    detector.detect_source(&mut source).expect("run")
                })
            },
        );
    }
    g.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
