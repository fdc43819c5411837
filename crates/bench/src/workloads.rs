//! Standard experiment workloads with laptop-scale default sizes.
//!
//! The paper's absolute cardinalities (24.9M Geolife, 2.77B OSM) are
//! cluster-scale; the reproduction runs the same *sweeps* over seeded
//! generators at sizes a single machine handles, overridable via `--n`.
//! The ε values can be used unchanged because the generators emit data at
//! the same coordinate scale as the originals (meters / mercator-meters).

use std::path::Path;

use dbscout_data::generators::{enlarge, geolife_like, osm_like};
use dbscout_data::io::write_binary;
use dbscout_data::sampling::sample_fraction;
use dbscout_rng::Rng;
use dbscout_spatial::PointStore;

/// Default Geolife-like cardinality (paper: 24,876,978).
pub const GEOLIFE_DEFAULT_N: usize = 200_000;

/// Default OSM-like 100% cardinality (paper: 2,770,238,904).
pub const OSM_DEFAULT_N: usize = 400_000;

/// The paper's ε sweep for Geolife (Table IV / Fig. 11).
pub const GEOLIFE_EPS_SWEEP: [f64; 4] = [25.0, 50.0, 100.0, 200.0];

/// The paper's ε sweep for OpenStreetMap (Table V / Fig. 12).
pub const OSM_EPS_SWEEP: [f64; 4] = [250_000.0, 500_000.0, 1_000_000.0, 2_000_000.0];

/// The paper's central ε for Geolife scalability runs (§IV-B1).
pub const GEOLIFE_EPS_CENTRAL: f64 = 100.0;

/// The paper's central ε for OSM scalability runs (§IV-B1).
pub const OSM_EPS_CENTRAL: f64 = 1_000_000.0;

/// The paper's minPts for all efficiency experiments.
pub const MIN_PTS: usize = 100;

/// The Table II / Fig. 10 size ladder, in percent of the base dataset.
pub const OSM_PERCENT_LADDER: [usize; 8] = [1, 25, 50, 75, 100, 200, 500, 1000];

/// Side length of the [`uniform2d`] domain. At 1M points this gives a
/// density of one point per unit², so [`UNIFORM2D_EPS`] cells hold a
/// double-digit point count, and every phase-3/5 task scans all 21
/// neighbor cells.
pub const UNIFORM2D_SIDE: f64 = 1_000.0;

/// ε for the uniform-2d scaling benchmark (ε-cell side ≈ 3.5 units).
pub const UNIFORM2D_EPS: f64 = 5.0;

/// minPts for the uniform-2d scaling benchmark: high enough that most
/// cells are not dense, so the counted kernel does real work.
pub const UNIFORM2D_MIN_PTS: usize = 50;

/// `n` points uniform on `[0, UNIFORM2D_SIDE)²`. Unlike the clustered
/// GPS-like workloads, uniform data spreads the points across *every*
/// grid cell, which maximizes the number of per-cell neighbor lookups.
// Construction cannot fail: dims is the literal 2 (under MAX_DIMS) and
// every coordinate is a finite uniform sample. As in `dbscout_data`'s
// generators, a failure is a generator bug and should panic loudly.
#[allow(clippy::expect_used)]
pub fn uniform2d(n: usize, seed: u64) -> PointStore {
    let mut rng = Rng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            vec![
                rng.gen_range(0.0..UNIFORM2D_SIDE),
                rng.gen_range(0.0..UNIFORM2D_SIDE),
            ]
        })
        .collect();
    PointStore::from_rows(2, rows).expect("generator rows are finite by construction")
}

/// Default cardinality of the streaming-ingest workload.
pub const STREAMING1M_N: usize = 1_000_000;

/// ε for the streaming workload (same uniform 2-D domain as
/// [`uniform2d`], so every grid cell is occupied).
pub const STREAMING1M_EPS: f64 = UNIFORM2D_EPS;

/// minPts for the streaming workload.
pub const STREAMING1M_MIN_PTS: usize = UNIFORM2D_MIN_PTS;

/// Seed of the streaming workload generator.
pub const STREAMING1M_SEED: u64 = 0x57EA;

/// The streaming-ingest workload: `n` points drawn by [`uniform2d`],
/// written to `path` in the versioned binary format so benchmarks can
/// stream them back through a `BinarySource`. Returns the in-memory
/// store for the materialized baseline.
// Bench workload setup panics loudly on I/O failure, like the
// generators do on impossible construction errors.
#[allow(clippy::expect_used)]
pub fn streaming1m(n: usize, path: impl AsRef<Path>) -> PointStore {
    let store = uniform2d(n, STREAMING1M_SEED);
    write_binary(path, &store).expect("write streaming workload file");
    store
}

/// The Geolife-like workload at cardinality `n`.
pub fn geolife(n: usize) -> PointStore {
    geolife_like(n, 0x6E01)
}

/// The OSM-like workload at 100% cardinality `n`.
pub fn osm(n: usize) -> PointStore {
    osm_like(n, 0x05A1)
}

/// An OSM-like dataset at `percent`% of base size `n`: samples below
/// 100%, the paper's duplicate-with-noise enlargement above.
pub fn osm_at_percent(base: &PointStore, percent: usize) -> PointStore {
    match percent {
        0 => base.gather(&[]),
        100 => base.clone(),
        p if p < 100 => sample_fraction(base, p as f64 / 100.0, 0x5A3B),
        p => {
            let factor = p / 100;
            let rem = p % 100;
            // Replica noise of 10 km: "small" at world scale (0.025% of
            // the domain) but above the ρ·ε sub-cell granularity of the
            // approximated competitor, so duplicated points genuinely
            // enlarge every algorithm's working structures — as the
            // paper's enlargement does at its scale.
            let mut out = enlarge(base, factor, 10_000.0, 0xB16);
            if rem > 0 {
                let extra = sample_fraction(base, rem as f64 / 100.0, 0xE17_u64);
                let noisy = enlarge(&extra, 1, 0.0, 0);
                // Both stores derive from `base`, so dims always match.
                let _ = out.extend_from(&noisy);
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_ladder_sizes() {
        let base = osm(10_000);
        assert_eq!(osm_at_percent(&base, 100).len(), 10_000);
        let one = osm_at_percent(&base, 1).len() as f64;
        assert!(one > 50.0 && one < 180.0, "1% gave {one}");
        assert_eq!(osm_at_percent(&base, 200).len(), 20_000);
        let p250 = osm_at_percent(&base, 250).len() as f64;
        assert!(p250 > 24_000.0 && p250 < 26_000.0, "250% gave {p250}");
        assert_eq!(osm_at_percent(&base, 0).len(), 0);
    }

    #[test]
    fn workloads_have_expected_dims() {
        assert_eq!(geolife(1_000).dims(), 3);
        assert_eq!(osm(1_000).dims(), 2);
    }

    #[test]
    fn streaming_workload_round_trips_through_its_binary_file() {
        use dbscout_data::{materialize, BinarySource, PointSource};

        let path = std::env::temp_dir().join("dbscout-bench-streaming-test.bin");
        let store = streaming1m(500, &path);
        assert_eq!(store.len(), 500);
        let mut source = BinarySource::open(&path, 64).unwrap();
        assert_eq!(source.len_hint(), Some(500));
        let read_back = materialize(&mut source).unwrap();
        assert_eq!(read_back.flat(), store.flat());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn uniform2d_stays_in_domain_and_is_seeded() {
        let a = uniform2d(500, 7);
        assert_eq!(a.len(), 500);
        assert_eq!(a.dims(), 2);
        for (_, p) in a.iter() {
            assert!(p.iter().all(|&c| (0.0..UNIFORM2D_SIDE).contains(&c)));
        }
        let b = uniform2d(500, 7);
        assert_eq!(a.point(42), b.point(42));
        let c = uniform2d(500, 8);
        assert_ne!(a.point(42), c.point(42));
    }
}
