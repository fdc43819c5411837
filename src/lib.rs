//! Umbrella crate re-exporting the DBSCOUT workspace. The README below
//! doubles as documentation and as a doctest (its Rust snippet runs under
//! `cargo test`).
//!
#![doc = include_str!("../README.md")]

pub use dbscout_baselines as baselines;
pub use dbscout_core as core;
pub use dbscout_data as data;
pub use dbscout_dataflow as dataflow;
pub use dbscout_metrics as metrics;
pub use dbscout_spatial as spatial;

/// Everything needed to run a detection, in one import.
///
/// ```
/// use dbscout::prelude::*;
///
/// let mut rows: Vec<Vec<f64>> = (0..8).map(|i| vec![0.1 * i as f64, 0.0]).collect();
/// rows.push(vec![1e6, 1e6]);
/// let store = PointStore::from_rows(2, rows).unwrap();
///
/// let params = DbscoutParams::new(1.0, 4).unwrap();
/// let result = DetectorBuilder::new(params).build().detect(&store).unwrap();
/// assert_eq!(result.outliers, vec![8]);
/// ```
pub mod prelude {
    pub use dbscout_core::{
        detect_outliers, Dbscout, DbscoutError, DbscoutParams, DetectorBuilder, DistributedDbscout,
        ExecutionConfig, IncrementalDbscout, JoinStrategy, KernelKind, NativeOptions,
        OutlierDetector, OutlierResult, PointLabel, Result, RunStats,
    };
    pub use dbscout_dataflow::ExecutionContext;
    pub use dbscout_spatial::PointStore;
}
