//! # DBSCOUT — exact, linear-time, parallel density-based outlier detection
//!
//! A Rust reproduction of *"DBSCOUT: A Density-based Method for Scalable
//! Outlier Detection in Very Large Datasets"* (Corain, Garza, Asudeh —
//! ICDE 2021).
//!
//! A point is an **outlier** when it lies within ε of no *core point*,
//! where a core point has at least `minPts` points within ε (the DBSCAN
//! definitions, but without ever building clusters). DBSCOUT partitions
//! space into ε-cells (hypercubes of diagonal ε) and exploits two facts:
//!
//! * a cell with ≥ `minPts` points contains only core points (Lemma 1);
//! * a cell containing any core point contains no outliers (Lemma 2);
//!
//! so that each point is compared only against points in the constant
//! number k_d of neighboring cells — O(n · minPts · k_d) distance
//! computations in total, i.e. **linear in n** (Lemmas 4–8), and **exact**
//! (no approximation).
//!
//! Two interchangeable engines are provided:
//!
//! * [`Dbscout`] — the native multi-threaded implementation (use this);
//! * [`DistributedDbscout`] — the paper's Spark formulation running on the
//!   [`dbscout_dataflow`] substrate, with the §III-G join optimizations
//!   selectable via [`JoinStrategy`]; used by the scalability experiments.
//!
//! ```
//! use dbscout_core::{detect_outliers, DbscoutParams};
//! use dbscout_spatial::PointStore;
//!
//! let mut rows: Vec<Vec<f64>> = (0..8).map(|i| vec![0.1 * i as f64, 0.0]).collect();
//! rows.push(vec![1e6, 1e6]); // an obvious outlier
//! let store = PointStore::from_rows(2, rows).unwrap();
//! let result = detect_outliers(&store, DbscoutParams::new(1.0, 4).unwrap()).unwrap();
//! assert_eq!(result.outliers, vec![8]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
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
mod build;
pub mod cellmap;
pub mod detector;
pub mod distributed;
pub mod error;
pub mod execution;
pub mod explain;
pub mod incremental;
pub mod labels;
pub mod native;
pub mod params;
pub mod process;
pub mod reference;
pub mod report;
pub mod scores;

pub use cellmap::{CellFlags, CellMap, CellType};
pub use dbscout_spatial::KernelKind;
pub use detector::{DetectorBuilder, OutlierDetector};
pub use distributed::{DistributedDbscout, JoinStrategy, PHASE_NAMES};
pub use error::{DbscoutError, Result};
pub use execution::ExecutionConfig;
pub use explain::{consistent, explain, Explanation};
pub use incremental::IncrementalDbscout;
pub use labels::{OutlierResult, PhaseTimings, PointLabel, RunStats};
pub use native::{detect_outliers, Dbscout, NativeOptions};
pub use params::DbscoutParams;
pub use process::{detect_with_process_workers, run_worker, WorkerHandler};
pub use report::{build_run_report, process_report, stage_report, RunInfo};
pub use scores::{outlier_scores, ScoredResult};
