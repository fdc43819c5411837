//! Randomized property tests for the spatial substrate.
//!
//! Each test draws many cases from a seeded [`dbscout_rng::Rng`], so runs
//! are deterministic and reproducible while still sweeping a broad input
//! space (the offline stand-in for `proptest`).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::float_cmp
)]

use dbscout_rng::Rng;
use dbscout_spatial::cell::{cell_side, max_sq_dist_to_cell, min_sq_dist_to_cell};
use dbscout_spatial::distance::{dist, sq_dist};
use dbscout_spatial::{Grid, KdTree, PointStore};

fn points_2d(rng: &mut Rng, max_n: usize) -> Vec<Vec<f64>> {
    let n = rng.gen_range(1..max_n);
    (0..n)
        .map(|_| (0..2).map(|_| rng.gen_range(-100.0..100.0)).collect())
        .collect()
}

#[test]
fn grid_partitions_completely() {
    let mut rng = Rng::seed_from_u64(0xA001);
    for _ in 0..48 {
        let rows = points_2d(&mut rng, 200);
        let eps = rng.gen_range(0.01..50.0);
        let store = PointStore::from_rows(2, rows).unwrap();
        let grid = Grid::build(&store, eps).unwrap();
        // Every point in exactly one cell.
        let mut count = 0usize;
        for (cell, ids) in grid.cells() {
            for &id in ids {
                assert_eq!(&grid.cell_for(store.point(id)), cell);
                count += 1;
            }
        }
        assert_eq!(count, store.len() as usize);
    }
}

#[test]
fn same_cell_implies_within_eps() {
    // The geometric premise of Lemma 1.
    let mut rng = Rng::seed_from_u64(0xA002);
    for _ in 0..48 {
        let rows = points_2d(&mut rng, 150);
        let eps = rng.gen_range(0.1..50.0);
        let store = PointStore::from_rows(2, rows).unwrap();
        let grid = Grid::build(&store, eps).unwrap();
        for (_, ids) in grid.cells() {
            for &a in ids {
                for &b in ids {
                    assert!(dist(store.point(a), store.point(b)) <= eps);
                }
            }
        }
    }
}

#[test]
fn pairs_within_eps_are_in_neighboring_cells() {
    // The completeness direction: any pair at distance ≤ ε must be
    // discoverable through the neighbor-offset enumeration.
    use dbscout_spatial::NeighborOffsets;
    let mut rng = Rng::seed_from_u64(0xA003);
    for _ in 0..48 {
        let rows = points_2d(&mut rng, 80);
        let eps = rng.gen_range(0.1..50.0);
        let store = PointStore::from_rows(2, rows).unwrap();
        let grid = Grid::build(&store, eps).unwrap();
        let offsets = NeighborOffsets::new(2).unwrap();
        let eps_sq = eps * eps;
        for (ia, pa) in store.iter() {
            for (ib, pb) in store.iter() {
                if ia >= ib || sq_dist(pa, pb) > eps_sq {
                    continue;
                }
                let ca = grid.cell_for(pa);
                let cb = grid.cell_for(pb);
                let found = offsets
                    .iter()
                    .any(|o| NeighborOffsets::apply(&ca, o) == Some(cb));
                assert!(
                    found,
                    "pair at dist {} not in neighboring cells",
                    dist(pa, pb)
                );
            }
        }
    }
}

#[test]
fn kdtree_knn_matches_linear() {
    let mut rng = Rng::seed_from_u64(0xA004);
    for _ in 0..48 {
        let rows = points_2d(&mut rng, 200);
        let k = rng.gen_range(1usize..10);
        let store = PointStore::from_rows(2, rows).unwrap();
        let tree = KdTree::build(&store);
        let query = store.point(0).to_vec();
        let got = tree.knn(&query, k);
        let mut all: Vec<f64> = store.iter().map(|(_, p)| sq_dist(&query, p)).collect();
        all.sort_by(f64::total_cmp);
        all.truncate(k);
        let got_d: Vec<f64> = got.iter().map(|n| n.sq_dist).collect();
        assert_eq!(got_d, all);
    }
}

#[test]
fn kdtree_radius_matches_linear() {
    let mut rng = Rng::seed_from_u64(0xA005);
    for _ in 0..48 {
        let rows = points_2d(&mut rng, 200);
        let eps = rng.gen_range(0.1..40.0);
        let store = PointStore::from_rows(2, rows).unwrap();
        let tree = KdTree::build(&store);
        let query = store.point(0).to_vec();
        let mut got: Vec<u32> = tree
            .within_radius(&query, eps)
            .iter()
            .map(|n| n.id)
            .collect();
        got.sort_unstable();
        let mut expected: Vec<u32> = store
            .iter()
            .filter(|(_, p)| sq_dist(&query, p) <= eps * eps)
            .map(|(id, _)| id)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }
}

#[test]
fn min_max_cell_distance_bracket_actual() {
    // For any point q, the distance from p to q is bracketed by the
    // min/max distance from p to q's cell box.
    let mut rng = Rng::seed_from_u64(0xA006);
    for _ in 0..200 {
        let px = rng.gen_range(-50.0..50.0);
        let py = rng.gen_range(-50.0..50.0);
        let qx = rng.gen_range(-50.0..50.0);
        let qy = rng.gen_range(-50.0..50.0);
        let eps = rng.gen_range(0.5..20.0);
        let side = cell_side(eps, 2);
        let q = [qx, qy];
        let cell = dbscout_spatial::cell::cell_of(&q, side);
        let p = [px, py];
        let d2 = sq_dist(&p, &q);
        let lo = min_sq_dist_to_cell(&p, &cell, side);
        let hi = max_sq_dist_to_cell(&p, &cell, side);
        assert!(lo <= d2 + 1e-9, "lo {lo} > d2 {d2}");
        assert!(hi >= d2 - 1e-9, "hi {hi} < d2 {d2}");
    }
}

#[test]
fn store_gather_preserves_coords() {
    let mut rng = Rng::seed_from_u64(0xA007);
    for _ in 0..48 {
        let rows = points_2d(&mut rng, 50);
        let store = PointStore::from_rows(2, rows).unwrap();
        let ids: Vec<u32> = (0..store.len()).rev().collect();
        let g = store.gather(&ids);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(g.point(i as u32), store.point(id));
        }
    }
}
