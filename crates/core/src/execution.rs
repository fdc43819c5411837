//! The unified execution configuration.
//!
//! Every knob that decides *how* a detection runs — never *what* it
//! returns — lives in one [`ExecutionConfig`] value: worker threads,
//! distance kernel, process-worker count, and the deterministic
//! schedule seed. The CLI maps its `--threads`, `--kernel`,
//! `--workers`, and `--schedule-seed` flags into this struct in exactly
//! one place, and
//! [`crate::DetectorBuilder::execution`] consumes it; the per-field
//! builder methods remain as thin shims over the same state.
//!
//! The struct is `#[non_exhaustive]`: construct it with
//! [`ExecutionConfig::default`] (or `new`) plus the chainable setters,
//! so future knobs can be added without breaking callers.

use dbscout_spatial::KernelKind;

/// How a detection executes: threads, kernel, workers, seed.
///
/// All fields are observability/performance knobs — a property suite
/// pins that no combination changes labels or kernel-counter totals.
///
/// ```
/// use dbscout_core::{DetectorBuilder, DbscoutParams, ExecutionConfig};
/// use dbscout_spatial::KernelKind;
///
/// let cfg = ExecutionConfig::new()
///     .with_threads(4)
///     .with_kernel(KernelKind::Unrolled);
/// let params = DbscoutParams::new(0.5, 5).unwrap();
/// let detector = DetectorBuilder::new(params).execution(cfg).build_native();
/// assert_eq!(detector.threads(), 4);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecutionConfig {
    /// Worker threads for the native engine; `0` means "all available
    /// cores" (the CLI convention).
    pub threads: usize,
    /// Distance kernel for the cell-major hot loops.
    pub kernel: KernelKind,
    /// Worker processes for the process backend / distributed engine;
    /// `0` means the backend's default.
    pub workers: usize,
    /// Seed for the dataflow scheduler's deterministic task order;
    /// `None` keeps the default schedule.
    pub schedule_seed: Option<u64>,
}

impl ExecutionConfig {
    /// The default configuration: all cores, `Auto` kernel, default
    /// worker count, default schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the native engine's worker-thread count (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the distance kernel.
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the process/distributed worker count (`0` = backend default).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the deterministic schedule seed.
    pub fn with_schedule_seed(mut self, seed: Option<u64>) -> Self {
        self.schedule_seed = seed;
        self
    }

    /// The thread count this configuration resolves to at run time
    /// (`0` becomes the machine's available parallelism).
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_auto_on_all_cores() {
        let cfg = ExecutionConfig::new();
        assert_eq!(cfg.threads, 0);
        assert_eq!(cfg.kernel, KernelKind::Auto);
        assert_eq!(cfg.workers, 0);
        assert_eq!(cfg.schedule_seed, None);
        assert!(cfg.resolved_threads() >= 1);
    }

    #[test]
    fn setters_chain_and_resolve() {
        let cfg = ExecutionConfig::new()
            .with_threads(3)
            .with_kernel(KernelKind::Auto)
            .with_workers(2)
            .with_schedule_seed(Some(7));
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.resolved_threads(), 3);
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.schedule_seed, Some(7));
        assert_eq!(cfg.kernel.resolve(), KernelKind::Unrolled);
        let explicit = cfg.with_kernel(KernelKind::Scalar);
        assert_eq!(explicit.kernel.resolve(), KernelKind::Scalar);
    }
}
