//! The streaming ingest path (`detect_source`) is a pure re-plumbing of
//! how points reach the detector: for every batch size it must produce
//! byte-identical labels *and* statistics to the materialized `detect`,
//! on the same clustered fixtures the layout-equivalence suite uses —
//! including permissive CSV ingest with quarantined rows, the hashed
//! layout's materializing adapter, and the empty dataset.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::float_cmp
)]

use dbscout_core::{DbscoutError, DbscoutParams, DetectorBuilder, ExecutionLayout, OutlierResult};
use dbscout_data::io::{read_csv_with, IngestMode};
use dbscout_data::{CsvSource, PointSource, StoreSource};
use dbscout_rng::Rng;
use dbscout_spatial::{PointStore, SpatialError};

/// The batch shapes the issue calls out: degenerate (1), odd (7), and
/// larger than most fixtures (4096, a single batch).
const BATCH_SIZES: [usize; 3] = [1, 7, 4096];

/// Clustered-looking random datasets (same construction as the
/// layout-equivalence suite): anchors, points near anchors, noise.
fn dataset(rng: &mut Rng, dims: usize, max_n: usize) -> PointStore {
    let n_anchors = rng.gen_range(1usize..4);
    let anchors: Vec<Vec<f64>> = (0..n_anchors)
        .map(|_| (0..dims).map(|_| rng.gen_range(-20.0..20.0)).collect())
        .collect();
    let n = rng.gen_range(1..max_n);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            let a = rng.gen_range(0usize..3);
            let off: Vec<f64> = (0..dims).map(|_| rng.gen_range(-0.8..0.8)).collect();
            let noise = rng.gen::<bool>();
            let anchor = &anchors[a % anchors.len()];
            if noise {
                off.iter().map(|o| o * 40.0).collect()
            } else {
                anchor.iter().zip(&off).map(|(c, o)| c + o).collect()
            }
        })
        .collect();
    PointStore::from_rows(dims, rows).expect("generated rows are valid")
}

/// Asserts two results are identical in every observable the run report
/// and downstream consumers read.
fn assert_identical(streamed: &OutlierResult, materialized: &OutlierResult, ctx: &str) {
    assert_eq!(streamed.labels, materialized.labels, "labels ({ctx})");
    assert_eq!(streamed.outliers, materialized.outliers, "outliers ({ctx})");
    assert_eq!(streamed.stats, materialized.stats, "stats ({ctx})");
}

#[test]
fn detect_source_matches_detect_for_every_batch_size() {
    let mut rng = Rng::seed_from_u64(0x5001);
    for round in 0..12 {
        let (dims, max_n) = match round % 3 {
            0 => (2, 200),
            1 => (3, 120),
            _ => (4, 80),
        };
        let store = dataset(&mut rng, dims, max_n);
        let eps = rng.gen_range(0.3..5.0);
        let min_pts = rng.gen_range(1usize..8);
        let params = DbscoutParams::new(eps, min_pts).unwrap();
        for threads in [1usize, 2, 3, 4] {
            let builder = DetectorBuilder::new(params)
                .threads(threads)
                .layout(ExecutionLayout::CellMajor);
            let materialized = builder.build_native().detect(&store).unwrap();
            for batch in BATCH_SIZES {
                let mut source = StoreSource::new(&store, batch);
                let streamed = builder.detect_source(&mut source).unwrap();
                assert_identical(
                    &streamed,
                    &materialized,
                    &format!("d={dims} threads={threads} batch={batch}"),
                );
            }
        }
    }
}

#[test]
fn hashed_layout_adapter_matches_detect() {
    // The hashed layout has no streaming build; `detect_source` routes
    // it through the materializing adapter, which must be transparent.
    let mut rng = Rng::seed_from_u64(0x5002);
    for _ in 0..6 {
        let store = dataset(&mut rng, 2, 150);
        let params = DbscoutParams::new(rng.gen_range(0.3..5.0), rng.gen_range(1usize..8)).unwrap();
        let builder = DetectorBuilder::new(params).layout(ExecutionLayout::Hashed);
        let materialized = builder.build_native().detect(&store).unwrap();
        for batch in BATCH_SIZES {
            let mut source = StoreSource::new(&store, batch);
            let streamed = builder.detect_source(&mut source).unwrap();
            assert_identical(&streamed, &materialized, &format!("hashed batch={batch}"));
        }
    }
}

#[test]
fn permissive_csv_streaming_matches_materialized_ingest() {
    // A dirty CSV in permissive mode: both paths must quarantine the
    // same rows and label the survivors identically.
    let dir = std::env::temp_dir().join("dbscout-streaming-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dirty.csv");
    let mut rng = Rng::seed_from_u64(0x5003);
    let mut content = String::new();
    for i in 0..400 {
        content.push_str(&format!(
            "{:.6},{:.6}\n",
            rng.gen_range(-10.0..10.0),
            rng.gen_range(-10.0..10.0)
        ));
        if i % 97 == 0 {
            content.push_str("not,a,point\n");
        }
        if i % 131 == 0 {
            content.push_str("1.0,NaN\n");
        }
    }
    std::fs::write(&path, content).unwrap();

    let params = DbscoutParams::new(1.0, 4).unwrap();
    let builder = DetectorBuilder::new(params).layout(ExecutionLayout::CellMajor);

    let ingest = read_csv_with(&path, false, IngestMode::Permissive).unwrap();
    let materialized = builder.build_native().detect(&ingest.store).unwrap();

    for batch in BATCH_SIZES {
        let mut source = CsvSource::open(&path, false, IngestMode::Permissive, batch).unwrap();
        let streamed = builder.detect_source(&mut source).unwrap();
        assert_identical(
            &streamed,
            &materialized,
            &format!("permissive batch={batch}"),
        );
        // After the two-pass run the source's quarantine report
        // describes exactly one pass over the file.
        assert_eq!(
            source.quarantine().quarantined,
            ingest.quarantine.quarantined,
            "batch={batch}"
        );
    }
}

#[test]
fn empty_source_yields_an_empty_result() {
    let store = PointStore::new(3).unwrap();
    let params = DbscoutParams::new(1.0, 4).unwrap();
    for layout in [ExecutionLayout::CellMajor, ExecutionLayout::Hashed] {
        let builder = DetectorBuilder::new(params).layout(layout);
        let mut source = StoreSource::new(&store, 16);
        let result = builder.detect_source(&mut source).unwrap();
        assert!(result.labels.is_empty(), "{layout:?}");
        assert!(result.outliers.is_empty(), "{layout:?}");
        assert_eq!(result.stats.num_cells, 0, "{layout:?}");
    }
}

#[test]
fn len_hint_is_not_trusted() {
    // A source whose `len_hint` lies must still stream correctly: the
    // two-pass builder sizes everything from the counting pass, and the
    // hint is advisory.
    struct LyingSource<'a>(StoreSource<'a>);
    impl PointSource for LyingSource<'_> {
        fn dims(&self) -> Option<usize> {
            self.0.dims()
        }
        fn next_batch(
            &mut self,
        ) -> Result<Option<dbscout_data::PointBatch>, dbscout_data::DataIoError> {
            self.0.next_batch()
        }
        fn reset(&mut self) -> Result<(), dbscout_data::DataIoError> {
            self.0.reset()
        }
        fn len_hint(&self) -> Option<usize> {
            Some(999_999)
        }
    }

    let mut rng = Rng::seed_from_u64(0x5004);
    let store = dataset(&mut rng, 2, 100);
    let params = DbscoutParams::new(1.0, 4).unwrap();
    let builder = DetectorBuilder::new(params).layout(ExecutionLayout::CellMajor);
    let materialized = builder.build_native().detect(&store).unwrap();
    let mut source = LyingSource(StoreSource::new(&store, 13));
    let streamed = builder.detect_source(&mut source).unwrap();
    assert_identical(&streamed, &materialized, "lying len_hint");
}

/// Serves one store on the counting pass and `second` on every replay.
struct SwappingSource<'a> {
    current: StoreSource<'a>,
    second: &'a PointStore,
    batch: usize,
}

impl PointSource for SwappingSource<'_> {
    fn dims(&self) -> Option<usize> {
        self.current.dims()
    }
    fn next_batch(
        &mut self,
    ) -> Result<Option<dbscout_data::PointBatch>, dbscout_data::DataIoError> {
        self.current.next_batch()
    }
    fn reset(&mut self) -> Result<(), dbscout_data::DataIoError> {
        self.current = StoreSource::new(self.second, self.batch);
        Ok(())
    }
}

/// A source over a raw coordinate block, which may hold what a
/// `PointStore` refuses (NaN, zero dimensions, a partial point). With
/// `replay` set, every pass after the first reads that block instead.
struct FlatSource<'a> {
    flat: &'a [f64],
    replay: Option<&'a [f64]>,
    dims: usize,
    batch: usize,
    pos: usize,
}

impl PointSource for FlatSource<'_> {
    fn dims(&self) -> Option<usize> {
        Some(self.dims)
    }
    fn next_batch(
        &mut self,
    ) -> Result<Option<dbscout_data::PointBatch>, dbscout_data::DataIoError> {
        let end = (self.pos + self.dims * self.batch).min(self.flat.len());
        if self.pos == end {
            return Ok(None);
        }
        let coords = self.flat[self.pos..end].to_vec();
        self.pos = end;
        dbscout_data::PointBatch::from_flat(self.dims, coords).map(Some)
    }
    fn reset(&mut self) -> Result<(), dbscout_data::DataIoError> {
        self.pos = 0;
        if let Some(replay) = self.replay {
            self.flat = replay;
        }
        Ok(())
    }
}

#[test]
fn bad_streams_fail_with_the_same_typed_error_at_every_thread_count() {
    let mut rng = Rng::seed_from_u64(0x5005);
    let store = dataset(&mut rng, 2, 150);
    let n = store.len() as usize;
    let params = DbscoutParams::new(1.0, 4).unwrap();
    // The replay moves one point into a cell pass 1 never counted.
    let moved = PointStore::from_rows(
        2,
        (0..n).map(|i| {
            if i == n - 3 {
                vec![1e9, 1e9]
            } else {
                store.point(i as u32).to_vec()
            }
        }),
    )
    .unwrap();
    // A NaN in the last few points, seen on the counting pass.
    let mut flat = store.flat().to_vec();
    flat[2 * (n - 5) + 1] = f64::NAN;
    for threads in [1usize, 2, 3, 4] {
        let builder = DetectorBuilder::new(params)
            .threads(threads)
            .layout(ExecutionLayout::CellMajor);
        for batch in [1usize, 7, 64] {
            let ctx = format!("threads={threads} batch={batch}");
            let mut source = SwappingSource {
                current: StoreSource::new(&store, batch),
                second: &moved,
                batch,
            };
            assert_eq!(
                builder.detect_source(&mut source).unwrap_err(),
                DbscoutError::InvalidInput(SpatialError::StreamMismatch),
                "{ctx}"
            );
            let mut source = FlatSource {
                flat: &flat,
                replay: None,
                dims: 2,
                batch,
                pos: 0,
            };
            assert_eq!(
                builder.detect_source(&mut source).unwrap_err(),
                DbscoutError::InvalidInput(SpatialError::NonFiniteCoordinate {
                    point: n - 5,
                    dim: 1
                }),
                "{ctx}"
            );
        }
        // A source that declares zero dimensions.
        let mut source = FlatSource {
            flat: &[],
            replay: None,
            dims: 0,
            batch: 8,
            pos: 0,
        };
        assert_eq!(
            builder.detect_source(&mut source).unwrap_err(),
            DbscoutError::InvalidInput(SpatialError::ZeroDims),
            "threads={threads}"
        );
    }
}

#[test]
fn replay_failures_report_the_first_bad_point_at_every_thread_count() {
    let mut rng = Rng::seed_from_u64(0x5006);
    let store = dataset(&mut rng, 2, 150);
    let params = DbscoutParams::new(1.0, 4).unwrap();
    // Point 0 sits alone in its cell on the counting pass.
    let mut counted = store.flat().to_vec();
    counted[0] = -1e7;
    counted[1] = -1e7;
    // The replay puts point 1 in that cell too, which overflows it at
    // point 1; a later point of the same batch or group is NaN.
    let mut overflow_then_nan = counted.clone();
    overflow_then_nan[2] = -1e7;
    overflow_then_nan[3] = -1e7;
    overflow_then_nan[7] = f64::NAN;
    // The same overflow, then a replay that ends in a partial point,
    // which fails to read. Batches of up to two points read the overflow
    // first; a larger batch holds the partial point and never arrives.
    let overflow_then_bad_read = overflow_then_nan[..7].to_vec();
    for batch in [1usize, 2, 7, 64] {
        for (name, replay) in [
            ("overflow then NaN", &overflow_then_nan),
            ("overflow then bad read", &overflow_then_bad_read),
        ] {
            let mut expected = None;
            for threads in [1usize, 2, 3, 4] {
                let mut source = FlatSource {
                    flat: &counted,
                    replay: Some(replay),
                    dims: 2,
                    batch,
                    pos: 0,
                };
                let err = DetectorBuilder::new(params)
                    .threads(threads)
                    .layout(ExecutionLayout::CellMajor)
                    .detect_source(&mut source)
                    .unwrap_err();
                let ctx = format!("{name}: threads={threads} batch={batch}");
                let expected = expected.get_or_insert_with(|| err.clone());
                assert_eq!(&err, expected, "{ctx}");
                if batch <= 2 || name == "overflow then NaN" {
                    assert_eq!(
                        err,
                        DbscoutError::InvalidInput(SpatialError::StreamMismatch),
                        "{ctx}"
                    );
                }
            }
        }
    }
}
