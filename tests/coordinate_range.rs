//! Exact or explicit: a coordinate whose ε-cell index cannot be computed
//! exactly (`|x / side| ≥ 2^53`) gets a typed
//! `SpatialError::CoordinateOutOfRange` from every entry point, never a
//! silently wrong answer. The magnitude sweep straddles the bound: every
//! case below it equals the brute-force reference, every case at or
//! above it is rejected, and the cell assignment itself breaks Lemma 1
//! just above it, so the bound can be neither raised nor needs lowering.

// Tests assert on known-good data; panicking is the failure mode.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::float_cmp
)]

use dbscout::core::reference::naive_labels;
use dbscout::core::{
    Dbscout, DbscoutError, DbscoutParams, DistributedDbscout, IncrementalDbscout, PointLabel,
};
use dbscout::data::io::{read_csv_with, IngestMode};
use dbscout::data::{CsvSource, StoreSource};
use dbscout::dataflow::ExecutionContext;
use dbscout::spatial::cell::{cell_of, cell_side};
use dbscout::spatial::distance::within;
use dbscout::spatial::{CellMajorBuilder, PointStore, SpatialError};
use dbscout_rng::Rng;

fn out_of_range(point: usize, dim: usize) -> DbscoutError {
    DbscoutError::InvalidInput(SpatialError::CoordinateOutOfRange { point, dim })
}

/// The 2-point repro: both points are finite, 1e19 apart, so the exact
/// answer at ε = 1, minPts = 2 is two outliers. The saturating cell cast
/// used to put both into one dense cell and report none.
#[test]
fn huge_coordinates_get_a_typed_error_from_every_entry_point() {
    let dir = std::env::temp_dir().join("dbscout-coordinate-range");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge.csv");
    std::fs::write(&path, "1e19,0\n2e19,0\n").unwrap();
    let params = DbscoutParams::new(1.0, 2).unwrap();
    let store = read_csv_with(&path, false, IngestMode::Strict)
        .unwrap()
        .store;
    let exact = naive_labels(&store, params);
    assert_eq!(exact, vec![PointLabel::Outlier; 2]);

    for threads in [1usize, 2] {
        let detector = Dbscout::new(params).with_threads(threads);
        assert_eq!(
            detector.detect(&store).unwrap_err(),
            out_of_range(0, 0),
            "materialized detect, threads {threads}"
        );
        let mut csv = CsvSource::open(&path, false, IngestMode::Strict, 1).unwrap();
        assert_eq!(
            detector.detect_source(&mut csv).unwrap_err(),
            out_of_range(0, 0),
            "detect_source, threads {threads}"
        );
    }

    let ctx = ExecutionContext::builder().workers(2).build();
    assert_eq!(
        DistributedDbscout::new(ctx, params)
            .detect(&store)
            .unwrap_err(),
        out_of_range(0, 0)
    );

    let mut inc = IncrementalDbscout::new(2, params).unwrap();
    assert_eq!(inc.insert(&[1e19, 0.0]).unwrap_err(), out_of_range(0, 0));
    assert_eq!(inc.probe(&[0.0, 2e19]).unwrap_err(), out_of_range(0, 1));
    // A rejected insert leaves no trace: the next point still gets id 0.
    assert_eq!(inc.total_inserted(), 0);
    assert_eq!(inc.insert(&[0.0, 0.0]).unwrap(), 0);
    assert_eq!(
        IncrementalDbscout::from_store(&store, params).unwrap_err(),
        out_of_range(0, 0)
    );

    // Small coordinates are untouched: `0,0` / `1.5,0` are two outliers.
    let small = PointStore::from_rows(2, vec![vec![0.0, 0.0], vec![1.5, 0.0]]).unwrap();
    let r = Dbscout::new(params).detect(&small).unwrap();
    assert_eq!(r.outliers, vec![0, 1]);
}

#[test]
fn non_finite_still_reports_non_finite() {
    // The range check runs first on the hot path; NaN and ±∞ must still
    // surface as `NonFiniteCoordinate`, and a huge finite value as
    // `CoordinateOutOfRange`, whichever dimension comes first.
    let mut builder = CellMajorBuilder::new(2, 1.0).unwrap();
    assert_eq!(
        builder.count_batch(&[0.0, f64::NAN]),
        Err(SpatialError::NonFiniteCoordinate { point: 0, dim: 1 })
    );
    let mut builder = CellMajorBuilder::new(2, 1.0).unwrap();
    assert_eq!(
        builder.count_batch(&[0.0, 0.0, f64::NEG_INFINITY, 0.0]),
        Err(SpatialError::NonFiniteCoordinate { point: 1, dim: 0 })
    );
    let mut builder = CellMajorBuilder::new(2, 1.0).unwrap();
    assert_eq!(
        builder.count_batch(&[-1e300, f64::NAN]),
        Err(SpatialError::CoordinateOutOfRange { point: 0, dim: 0 })
    );
    // A tiny ε makes even moderate coordinates overflow the quotient.
    let mut builder = CellMajorBuilder::new(1, 1e-300).unwrap();
    assert_eq!(
        builder.count_batch(&[1e10]),
        Err(SpatialError::CoordinateOutOfRange { point: 0, dim: 0 })
    );
}

/// The bound the sweep holds the engines to, written out rather than
/// read from the library, so a bound moved either way fails the sweep.
const BOUND: f64 = 9_007_199_254_740_992.0; // 2^53

/// Cell indices at which the sweep centres its clusters: well below,
/// just below, a few cells below (so one cluster straddles the bound),
/// exactly at, and above it.
fn centres() -> [f64; 9] {
    let m = BOUND;
    [
        0.125 * m,
        0.5 * m,
        0.75 * m,
        m - 2f64.powi(43),
        m - 3.0,
        m,
        m + 2f64.powi(44),
        1.5 * m,
        4.0 * m,
    ]
}

/// The gap from `x` to the next larger-magnitude f64.
fn ulp(x: f64) -> f64 {
    let a = x.abs();
    f64::from_bits(a.to_bits() + 1) - a
}

#[test]
fn magnitude_sweep_is_exact_below_the_bound_and_rejected_above() {
    let mut rng = Rng::seed_from_u64(0x2_53);
    let (mut exact_cases, mut rejected_cases) = (0usize, 0usize);
    let (mut lemma1_breaks_below, mut lemma1_breaks_above) = (0usize, 0usize);
    for dims in 1..=3usize {
        for cells in centres() {
            for sign in [1.0f64, -1.0] {
                for _ in 0..12 {
                    let eps = rng.gen_range(0.5..2.0);
                    let side = cell_side(eps, dims);
                    let base: Vec<f64> = (0..dims).map(|_| sign * cells * side).collect();
                    // Offsets are whole ulps of the base, spanning a few ε,
                    // so clusters hold close, coincident and far pairs.
                    let rows: Vec<Vec<f64>> = (0..rng.gen_range(2usize..24))
                        .map(|_| {
                            base.iter()
                                .map(|&b| {
                                    let u = ulp(b);
                                    let reach = (3.0 * eps / u).ceil() as i64;
                                    b + rng.gen_range(-reach..=reach) as f64 * u
                                })
                                .collect()
                        })
                        .collect();
                    let store = PointStore::from_rows(dims, rows).unwrap();
                    let params = DbscoutParams::new(eps, rng.gen_range(1usize..5)).unwrap();
                    let in_range = store
                        .iter()
                        .all(|(_, p)| p.iter().all(|&x| (x / side).abs() < BOUND));

                    // Lemma 1 on the raw cell assignment: points sharing a
                    // cell must be within ε of each other.
                    let mut breaks = 0usize;
                    for (i, p) in store.iter() {
                        for (j, q) in store.iter() {
                            if i < j
                                && cell_of(p, side) == cell_of(q, side)
                                && !within(p, q, params.eps_sq())
                            {
                                breaks += 1;
                            }
                        }
                    }

                    let ctx = format!("d={dims} cells={cells:e} sign={sign} eps={eps}");
                    let batch = Dbscout::new(params).detect(&store);
                    let mut streamed = StoreSource::new(&store, 5);
                    let streamed = Dbscout::new(params)
                        .with_threads(2)
                        .detect_source(&mut streamed);
                    let inc = IncrementalDbscout::from_store(&store, params);
                    if in_range {
                        exact_cases += 1;
                        lemma1_breaks_below += breaks;
                        let expected = naive_labels(&store, params);
                        assert_eq!(batch.unwrap().labels, expected, "{ctx}: detect");
                        assert_eq!(streamed.unwrap().labels, expected, "{ctx}: streamed");
                        assert_eq!(inc.unwrap().labels(), expected, "{ctx}: incremental");
                    } else {
                        rejected_cases += 1;
                        lemma1_breaks_above += breaks;
                        for (what, err) in [
                            ("detect", batch.unwrap_err()),
                            ("streamed", streamed.unwrap_err()),
                            ("incremental", inc.unwrap_err()),
                        ] {
                            assert!(
                                matches!(
                                    err,
                                    DbscoutError::InvalidInput(
                                        SpatialError::CoordinateOutOfRange { .. }
                                    )
                                ),
                                "{ctx}: {what} gave {err:?}"
                            );
                        }
                    }
                }
            }
        }
    }
    // Both sides of the bound were exercised...
    assert!(exact_cases > 100, "{exact_cases} in-range cases");
    assert!(rejected_cases > 100, "{rejected_cases} rejected cases");
    // ...no cell below it ever held two points more than ε apart, and
    // cells above it do: a looser bound would answer wrongly.
    assert_eq!(lemma1_breaks_below, 0);
    assert!(lemma1_breaks_above > 0);
}
