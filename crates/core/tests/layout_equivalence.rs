//! The cell-major layout is a pure re-arrangement of memory: its labels
//! must be byte-identical to the brute-force reference on arbitrary
//! inputs, and its cell counts equal to the hash-keyed [`Grid`]'s —
//! across dimensions, thread counts, ablation switches, and the
//! degenerate shapes (empty store, all duplicates, one cell) where
//! permutation bookkeeping likes to break.
//! Cases come from a seeded [`dbscout_rng::Rng`] so every run is
//! reproducible.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::float_cmp
)]

use dbscout_core::reference::naive_labels;
use dbscout_core::{Dbscout, DbscoutParams, NativeOptions, OutlierResult, PointLabel};
use dbscout_rng::Rng;
use dbscout_spatial::{Grid, PointStore};

/// Clustered-looking random datasets (same construction as the
/// exactness suite): anchors, points near anchors, uniform noise.
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

/// Thread counts the equivalence cases run at. The concurrency CI lane
/// sets `DBSCOUT_TEST_THREADS` (e.g. `8`) to append a wider count.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 4];
    if let Some(extra) = std::env::var("DBSCOUT_TEST_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        if extra > 0 && !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

fn detect(store: &PointStore, params: DbscoutParams, threads: usize) -> OutlierResult {
    Dbscout::new(params)
        .with_threads(threads)
        .detect(store)
        .unwrap()
}

/// The structural cell counters, from oracles independent of the
/// cell-major layout: the hash-keyed [`Grid`] for the cells, and the
/// reference labels for which cells hold a core point.
fn assert_cell_counts(
    got: &OutlierResult,
    store: &PointStore,
    params: DbscoutParams,
    expected: &[PointLabel],
    ctx: &str,
) {
    let grid = Grid::build(store, params.eps).unwrap();
    let (mut dense, mut core) = (0usize, 0usize);
    for (_, ids) in grid.cells() {
        dense += usize::from(ids.len() >= params.min_pts);
        core += usize::from(
            ids.iter()
                .any(|&id| expected[id as usize] == PointLabel::Core),
        );
    }
    assert_eq!(got.stats.num_cells, grid.num_cells(), "{ctx}: cells");
    assert_eq!(got.stats.dense_cells, dense, "{ctx}: dense cells");
    assert_eq!(got.stats.core_cells, core, "{ctx}: core cells");
}

#[test]
fn cell_major_matches_naive_dims_2_to_4() {
    let mut rng = Rng::seed_from_u64(0x2001);
    for round in 0..30 {
        // Smaller datasets as k_d grows keeps the naive O(n²) check fast.
        let (dims, max_n) = match round % 3 {
            0 => (2, 120),
            1 => (3, 80),
            _ => (4, 50),
        };
        let store = dataset(&mut rng, dims, max_n);
        let eps = rng.gen_range(0.3..5.0);
        let min_pts = rng.gen_range(1usize..8);
        let params = DbscoutParams::new(eps, min_pts).unwrap();
        let expected = naive_labels(&store, params);
        for threads in thread_counts() {
            let ctx = format!("d={dims}, threads={threads}");
            let cell_major = detect(&store, params, threads);
            assert_eq!(cell_major.labels, expected, "cell-major vs naive ({ctx})");
            let outliers: Vec<u32> = (0..expected.len() as u32)
                .filter(|&i| expected[i as usize] == PointLabel::Outlier)
                .collect();
            assert_eq!(cell_major.outliers, outliers, "{ctx}");
            assert_cell_counts(&cell_major, &store, params, &expected, &ctx);
        }
    }
}

#[test]
fn cell_major_is_thread_count_invariant() {
    let mut rng = Rng::seed_from_u64(0x2002);
    for _ in 0..10 {
        let store = dataset(&mut rng, 2, 200);
        let eps = rng.gen_range(0.3..5.0);
        let min_pts = rng.gen_range(1usize..8);
        let params = DbscoutParams::new(eps, min_pts).unwrap();
        let single = detect(&store, params, 1);
        for threads in [2usize, 4, 8] {
            let multi = detect(&store, params, threads);
            assert_eq!(single.labels, multi.labels, "threads {threads}");
            assert_eq!(single.outliers, multi.outliers, "threads {threads}");
            assert_eq!(
                single.stats.distance_computations, multi.stats.distance_computations,
                "distance accounting must not depend on scheduling (threads {threads})"
            );
        }
    }
}

#[test]
fn cell_major_ablations_preserve_labels() {
    let mut rng = Rng::seed_from_u64(0x2003);
    for _ in 0..10 {
        let store = dataset(&mut rng, 2, 120);
        let eps = rng.gen_range(0.3..5.0);
        let min_pts = rng.gen_range(1usize..8);
        let params = DbscoutParams::new(eps, min_pts).unwrap();
        let expected = naive_labels(&store, params);
        for (dense, early) in [(false, true), (true, false), (false, false)] {
            let got = Dbscout::new(params)
                .with_options(NativeOptions {
                    dense_cell_shortcut: dense,
                    early_exit: early,
                })
                .detect(&store)
                .unwrap();
            assert_eq!(got.labels, expected, "dense={dense} early={early}");
        }
    }
}

#[test]
fn edge_case_empty_store() {
    let params = DbscoutParams::new(1.0, 5).unwrap();
    for dims in [2usize, 3, 4] {
        let store = PointStore::new(dims).unwrap();
        let r = detect(&store, params, 4);
        assert!(r.labels.is_empty(), "dims {dims}");
        assert!(r.outliers.is_empty(), "dims {dims}");
        assert_eq!(r.stats.num_cells, 0, "dims {dims}");
        assert_eq!(r.stats.distance_computations, 0, "dims {dims}");
    }
}

#[test]
fn edge_case_all_duplicates() {
    // Every point identical: one cell, all pairwise distances zero.
    for n in [1usize, 4, 40] {
        let rows = vec![vec![3.25, -1.5]; n];
        let store = PointStore::from_rows(2, rows).unwrap();
        for min_pts in [1usize, n.max(1), n + 1] {
            let params = DbscoutParams::new(0.5, min_pts).unwrap();
            let expected = naive_labels(&store, params);
            for threads in thread_counts() {
                let ctx = format!("n={n} minPts={min_pts} threads={threads}");
                let cell_major = detect(&store, params, threads);
                assert_eq!(cell_major.labels, expected, "{ctx}");
                assert_cell_counts(&cell_major, &store, params, &expected, &ctx);
            }
        }
    }
}

#[test]
fn edge_case_single_cell() {
    // eps large enough that the whole dataset shares one ε-cell: the
    // neighbor loop degenerates to a self-scan.
    let mut rng = Rng::seed_from_u64(0x2005);
    for _ in 0..10 {
        let n = rng.gen_range(1usize..60);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(0.0..0.5), rng.gen_range(0.0..0.5)])
            .collect();
        let store = PointStore::from_rows(2, rows).unwrap();
        let params = DbscoutParams::new(10.0, rng.gen_range(1usize..6)).unwrap();
        let expected = naive_labels(&store, params);
        for threads in thread_counts() {
            let ctx = format!("n={n} threads={threads}");
            let cell_major = detect(&store, params, threads);
            assert_eq!(cell_major.stats.num_cells, 1);
            assert_eq!(cell_major.labels, expected, "{ctx}");
            assert_cell_counts(&cell_major, &store, params, &expected, &ctx);
        }
    }
}
