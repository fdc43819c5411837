//! The engine-agnostic detection API: the [`OutlierDetector`] trait that
//! every engine implements, and the [`DetectorBuilder`] that is the one
//! documented way to construct an engine.
//!
//! Experiments, the CLI, and tests are written against the trait, so an
//! engine swap is a one-line change:
//!
//! ```
//! use dbscout_core::{DetectorBuilder, DbscoutParams, OutlierDetector};
//! use dbscout_spatial::PointStore;
//!
//! let mut rows: Vec<Vec<f64>> = (0..8).map(|i| vec![0.1 * i as f64, 0.0]).collect();
//! rows.push(vec![1e6, 1e6]);
//! let store = PointStore::from_rows(2, rows).unwrap();
//!
//! let params = DbscoutParams::new(1.0, 4).unwrap();
//! let detector = DetectorBuilder::new(params).threads(2).build();
//! let result = detector.detect(&store).unwrap();
//! assert_eq!(result.outliers, vec![8]);
//! ```

use std::sync::Arc;

use dbscout_data::{materialize, PointSource};
use dbscout_dataflow::ExecutionContext;
use dbscout_spatial::PointStore;

use dbscout_spatial::KernelKind;

use crate::distributed::{DistributedDbscout, JoinStrategy};
use crate::error::Result;
use crate::execution::ExecutionConfig;
use crate::incremental::IncrementalDbscout;
use crate::labels::OutlierResult;
use crate::native::{Dbscout, NativeOptions};
use crate::params::DbscoutParams;

/// A batch outlier detector: given a dataset, classify every point
/// exactly per Definitions 2–3 and report the outliers.
///
/// All engines return the same [`crate::DbscoutError`] variants and —
/// property tests pin this — identical labels for identical inputs.
pub trait OutlierDetector {
    /// Detects all outliers of `store` (Definition 3), exactly.
    fn detect(&self, store: &PointStore) -> Result<OutlierResult>;

    /// Detects all outliers of a streaming [`PointSource`], exactly.
    ///
    /// The default implementation is the materializing adapter: read the
    /// whole source into a [`PointStore`] and run [`Self::detect`] — the
    /// route the distributed and incremental engines take. The native
    /// engine overrides it with a genuinely out-of-core path whose peak
    /// memory is the grid layout plus one batch.
    fn detect_source(&self, source: &mut dyn PointSource) -> Result<OutlierResult> {
        let store = materialize(source).map_err(crate::DbscoutError::from)?;
        self.detect(&store)
    }

    /// The (ε, minPts) parameters this detector runs with.
    fn params(&self) -> DbscoutParams;
}

impl OutlierDetector for Dbscout {
    fn detect(&self, store: &PointStore) -> Result<OutlierResult> {
        Dbscout::detect(self, store)
    }

    fn detect_source(&self, source: &mut dyn PointSource) -> Result<OutlierResult> {
        Dbscout::detect_source(self, source)
    }

    fn params(&self) -> DbscoutParams {
        Dbscout::params(self)
    }
}

impl OutlierDetector for DistributedDbscout {
    fn detect(&self, store: &PointStore) -> Result<OutlierResult> {
        DistributedDbscout::detect(self, store)
    }

    fn params(&self) -> DbscoutParams {
        DistributedDbscout::params(self)
    }
}

impl OutlierDetector for IncrementalDbscout {
    /// Batch detection through the incremental engine: bulk-load `store`
    /// into a fresh instance with this detector's own kernel (its
    /// accumulated points are not consulted) and snapshot the
    /// resulting labels.
    fn detect(&self, store: &PointStore) -> Result<OutlierResult> {
        IncrementalDbscout::from_store_with(store, self.params(), self.kernel())
            .map(|inc| inc.snapshot())
    }

    fn params(&self) -> DbscoutParams {
        IncrementalDbscout::params(self)
    }
}

/// Which engine a [`DetectorBuilder`] constructs.
#[derive(Debug, Clone, Default)]
enum EngineChoice {
    /// The native multi-threaded engine (the default).
    #[default]
    Native,
    /// The Spark-style formulation on a given execution context.
    Distributed(Arc<ExecutionContext>),
    /// The insert/delete incremental engine used in batch mode.
    Incremental,
}

/// The single documented construction path for every engine:
/// parameters, then execution knobs, then engine selection.
///
/// ```
/// use dbscout_core::{DetectorBuilder, DbscoutParams, JoinStrategy};
/// use dbscout_spatial::KernelKind;
/// use dbscout_dataflow::ExecutionContext;
///
/// let params = DbscoutParams::new(0.5, 5).unwrap();
///
/// // Native engine, 4 worker threads, explicit kernel:
/// let native = DetectorBuilder::new(params)
///     .threads(4)
///     .kernel(KernelKind::Unrolled)
///     .build_native();
///
/// // Distributed engine on a 2-worker context:
/// let ctx = ExecutionContext::builder().workers(2).build();
/// let dist = DetectorBuilder::new(params)
///     .distributed(ctx)
///     .partitions(8)
///     .strategy(JoinStrategy::GroupedShuffle)
///     .build_distributed();
/// ```
#[derive(Debug, Clone)]
pub struct DetectorBuilder {
    params: DbscoutParams,
    threads: Option<usize>,
    options: NativeOptions,
    kernel: KernelKind,
    engine: EngineChoice,
    partitions: Option<usize>,
    strategy: JoinStrategy,
}

impl DetectorBuilder {
    /// Starts a builder for validated parameters (native engine, all
    /// cores, `Auto` kernel unless overridden).
    pub fn new(params: DbscoutParams) -> Self {
        Self {
            params,
            threads: None,
            options: NativeOptions::default(),
            kernel: KernelKind::default(),
            engine: EngineChoice::default(),
            partitions: None,
            strategy: JoinStrategy::default(),
        }
    }

    /// Applies a whole [`ExecutionConfig`] at once — the one documented
    /// way to set every execution knob together. The per-field methods
    /// ([`Self::threads`], [`Self::kernel`]) are thin shims over the
    /// same state, so the two styles compose freely.
    pub fn execution(self, cfg: ExecutionConfig) -> Self {
        self.threads(cfg.threads).kernel(cfg.kernel)
    }

    /// Overrides the native engine's worker-thread count (≥ 1; `0` means
    /// "all available cores", matching the CLI convention).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = (threads > 0).then_some(threads);
        self
    }

    /// Overrides the native engine's ablation switches.
    pub fn options(mut self, options: NativeOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the native engine's distance kernel (results and
    /// counter totals are unaffected; only the loop shape changes).
    pub fn kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// Selects the distributed engine, running on `ctx`.
    pub fn distributed(mut self, ctx: Arc<ExecutionContext>) -> Self {
        self.engine = EngineChoice::Distributed(ctx);
        self
    }

    /// Selects the incremental engine (in batch mode: bulk-load then
    /// snapshot).
    pub fn incremental(mut self) -> Self {
        self.engine = EngineChoice::Incremental;
        self
    }

    /// Overrides the distributed engine's partition count (ignored by the
    /// other engines).
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.partitions = (partitions > 0).then_some(partitions);
        self
    }

    /// Overrides the distributed engine's join strategy (ignored by the
    /// other engines).
    pub fn strategy(mut self, strategy: JoinStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builds the configured native engine, whatever engine was selected.
    pub fn build_native(&self) -> Dbscout {
        let mut d = Dbscout::new(self.params)
            .with_options(self.options)
            .with_kernel(self.kernel);
        if let Some(t) = self.threads {
            d = d.with_threads(t);
        }
        d
    }

    /// Builds the distributed engine on the configured context (a fresh
    /// all-cores context when none was given via [`Self::distributed`]).
    pub fn build_distributed(&self) -> DistributedDbscout {
        let ctx = match &self.engine {
            EngineChoice::Distributed(ctx) => Arc::clone(ctx),
            _ => ExecutionContext::with_all_cores(),
        };
        let mut d = DistributedDbscout::new(ctx, self.params).with_strategy(self.strategy);
        if let Some(p) = self.partitions {
            d = d.with_partitions(p);
        }
        d
    }

    /// One-shot streaming detection: builds the selected engine and runs
    /// it over `source`. On the native engine (the default) this is
    /// out-of-core end to end.
    pub fn detect_source(&self, source: &mut dyn PointSource) -> Result<OutlierResult> {
        self.build().detect_source(source)
    }

    /// Builds whichever engine was selected, behind the trait.
    pub fn build(&self) -> Box<dyn OutlierDetector> {
        match &self.engine {
            EngineChoice::Native => Box::new(self.build_native()),
            EngineChoice::Distributed(_) => Box::new(self.build_distributed()),
            EngineChoice::Incremental => Box::new(BatchIncremental {
                params: self.params,
                kernel: self.kernel,
            }),
        }
    }
}

/// The incremental engine's batch façade: holds the parameters and
/// execution knobs, and bulk-loads each `detect` call into a fresh
/// [`IncrementalDbscout`] with the configured kernel.
#[derive(Debug, Clone)]
struct BatchIncremental {
    params: DbscoutParams,
    kernel: KernelKind,
}

impl OutlierDetector for BatchIncremental {
    fn detect(&self, store: &PointStore) -> Result<OutlierResult> {
        IncrementalDbscout::from_store_with(store, self.params, self.kernel)
            .map(|inc| inc.snapshot())
    }

    fn params(&self) -> DbscoutParams {
        self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_labels;

    fn sample_store() -> PointStore {
        let mut rows: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![(i % 4) as f64 * 0.2, (i / 4) as f64 * 0.2])
            .collect();
        rows.push(vec![40.0, 40.0]);
        rows.push(vec![-9.0, 3.0]);
        PointStore::from_rows(2, rows).unwrap()
    }

    #[test]
    fn every_engine_agrees_through_the_trait() {
        let store = sample_store();
        let params = DbscoutParams::new(1.0, 4).unwrap();
        let expected = naive_labels(&store, params);
        let builder = DetectorBuilder::new(params).threads(2);
        let engines: Vec<(&str, Box<dyn OutlierDetector>)> = vec![
            ("native", builder.clone().build()),
            (
                "distributed",
                builder
                    .clone()
                    .distributed(ExecutionContext::builder().workers(2).build())
                    .partitions(3)
                    .build(),
            ),
            ("incremental", builder.clone().incremental().build()),
        ];
        for (name, engine) in engines {
            assert_eq!(engine.params(), params, "{name} params");
            let got = engine.detect(&store).unwrap();
            assert_eq!(got.labels, expected, "{name} labels");
        }
    }

    #[test]
    fn builder_configures_native_engine() {
        let params = DbscoutParams::new(0.5, 3).unwrap();
        let d = DetectorBuilder::new(params)
            .threads(3)
            .kernel(KernelKind::Scalar)
            .build_native();
        assert_eq!(d.threads(), 3);
        assert_eq!(d.kernel(), KernelKind::Scalar);
        assert_eq!(OutlierDetector::params(&d), params);
        // threads(0) means "all cores" — must not panic or zero out.
        let d = DetectorBuilder::new(params).threads(0).build_native();
        assert!(d.detect(&sample_store()).is_ok());
    }

    #[test]
    fn execution_config_sets_every_native_knob() {
        let params = DbscoutParams::new(0.5, 3).unwrap();
        let cfg = ExecutionConfig::new()
            .with_threads(2)
            .with_kernel(KernelKind::Scalar);
        let d = DetectorBuilder::new(params).execution(cfg).build_native();
        assert_eq!(d.threads(), 2);
        assert_eq!(d.kernel(), KernelKind::Scalar);
        // threads = 0 in the config keeps the all-cores default.
        let d = DetectorBuilder::new(params)
            .execution(ExecutionConfig::new())
            .build_native();
        assert!(d.threads() >= 1);
        assert_eq!(d.kernel(), KernelKind::Auto);
    }

    #[test]
    fn build_distributed_without_context_uses_all_cores() {
        let params = DbscoutParams::new(1.0, 4).unwrap();
        let d = DetectorBuilder::new(params).build_distributed();
        let got = d.detect(&sample_store()).unwrap();
        let expected = naive_labels(&sample_store(), params);
        assert_eq!(got.labels, expected);
    }
}
