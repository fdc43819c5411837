//! The incremental engine's contract: after *any* interleaved sequence
//! of inserts and deletes, its labels are byte-identical to a from-
//! scratch batch run over the surviving points, checked against batch
//! runs at 1 and 4 threads. Probes must answer exactly the label an insert of the same
//! point would receive, without mutating state.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::float_cmp
)]

use dbscout_core::{DbscoutParams, DetectorBuilder, IncrementalDbscout};
use dbscout_rng::Rng;
use dbscout_spatial::PointStore;

/// Collects the surviving points (in id order) into a fresh store, with
/// the id mapping back to the incremental engine.
fn survivors(inc: &IncrementalDbscout) -> (Vec<u32>, PointStore) {
    let mut ids = Vec::new();
    let mut rows = Vec::new();
    for (id, p) in inc.store().iter() {
        if inc.is_alive(id) {
            ids.push(id);
            rows.push(p.to_vec());
        }
    }
    let store = PointStore::from_rows(inc.store().dims(), rows).unwrap();
    (ids, store)
}

/// The equivalence invariant: the warm state labels every survivor
/// exactly as a batch run over the survivors alone would, at 1 and 4
/// threads, including the outlier id set.
fn assert_matches_batch(inc: &IncrementalDbscout, ctx: &str) {
    let (ids, store) = survivors(inc);
    let expected_outliers: Vec<u32> = inc.outliers();
    for threads in [1usize, 4] {
        let batch = DetectorBuilder::new(inc.params())
            .threads(threads)
            .kernel(inc.kernel())
            .build_native()
            .detect(&store)
            .unwrap();
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(
                inc.label(id),
                batch.labels[k],
                "{ctx}: label of id {id} (survivor #{k}, threads {threads})"
            );
        }
        let batch_outliers: Vec<u32> = batch.outliers.iter().map(|&k| ids[k as usize]).collect();
        assert_eq!(
            expected_outliers, batch_outliers,
            "{ctx}: outlier set (threads {threads})"
        );
    }
}

#[test]
fn randomized_interleavings_match_batch() {
    // Multiple seeds × dims 2–4; each sequence interleaves inserts
    // (including exact-duplicate points), removes (including guaranteed
    // double-remove misses), and probes, checking the batch invariant
    // mid-sequence and at the end.
    for (seed, dims) in [(1u64, 2), (2, 3), (3, 4), (4, 2), (5, 3), (6, 4)] {
        let mut rng = Rng::seed_from_u64(0xD5C0 + seed);
        let eps = rng.gen_range(0.8..3.0);
        let min_pts = rng.gen_range(2usize..6);
        let params = DbscoutParams::new(eps, min_pts).unwrap();
        let mut inc = IncrementalDbscout::new(dims, params).unwrap();
        let mut alive: Vec<u32> = Vec::new();
        let mut points: Vec<Vec<f64>> = Vec::new();
        for step in 0..140 {
            let ctx = format!("seed {seed} dims {dims} step {step}");
            let roll = rng.gen_range(0usize..10);
            if roll < 5 || alive.is_empty() {
                // Insert — 15% of the time an exact duplicate of an
                // earlier point (alive or dead).
                let p: Vec<f64> = if !points.is_empty() && rng.gen_bool(0.15) {
                    points[rng.gen_range(0..points.len())].clone()
                } else {
                    (0..dims).map(|_| rng.gen_range(-6.0..6.0)).collect()
                };
                let id = inc.insert(&p).unwrap();
                assert_eq!(id as usize, points.len(), "{ctx}: ids are dense");
                points.push(p);
                alive.push(id);
            } else if roll < 8 {
                let id = alive.swap_remove(rng.gen_range(0..alive.len()));
                assert!(inc.remove(id), "{ctx}: live remove hits");
                assert!(!inc.remove(id), "{ctx}: double remove misses");
            } else {
                // Probe == insert-then-read-label, and the insert that
                // follows it must observe un-mutated state.
                let p: Vec<f64> = (0..dims).map(|_| rng.gen_range(-6.0..6.0)).collect();
                let probed = inc.probe(&p).unwrap();
                let id = inc.insert(&p).unwrap();
                assert_eq!(probed, inc.label(id), "{ctx}: probe equals insert label");
                points.push(p);
                alive.push(id);
            }
            if step % 35 == 34 {
                assert_matches_batch(&inc, &ctx);
            }
        }
        assert_matches_batch(&inc, &format!("seed {seed} dims {dims} final"));
    }
}

#[test]
fn remove_everything_then_reinsert_matches_batch() {
    for dims in 2..=4usize {
        let mut rng = Rng::seed_from_u64(0xE0 + dims as u64);
        let params = DbscoutParams::new(1.5, 3).unwrap();
        let mut inc = IncrementalDbscout::new(dims, params).unwrap();
        let mut alive: Vec<u32> = Vec::new();
        for _ in 0..60 {
            let p: Vec<f64> = (0..dims).map(|_| rng.gen_range(-4.0..4.0)).collect();
            alive.push(inc.insert(&p).unwrap());
        }
        // Tear the whole dataset down in random order.
        rng.shuffle(&mut alive);
        for id in alive.drain(..) {
            assert!(inc.remove(id), "dims {dims}: remove {id}");
        }
        assert!(inc.is_empty(), "dims {dims}");
        assert!(inc.outliers().is_empty(), "dims {dims}");
        assert_eq!(inc.total_inserted(), 60, "dims {dims}");

        // Re-insert after empty: ids keep growing, the grid state is
        // reusable, and the invariant holds again.
        for _ in 0..40 {
            let p: Vec<f64> = (0..dims).map(|_| rng.gen_range(-4.0..4.0)).collect();
            let id = inc.insert(&p).unwrap();
            assert!(id >= 60, "dims {dims}: ids never recycle");
        }
        assert_matches_batch(&inc, &format!("dims {dims} after rebirth"));
    }
}

#[test]
fn duplicate_heavy_sequences_match_batch() {
    // Many coincident points stress the minPts threshold bookkeeping:
    // a removed duplicate must not strand its twins' counts.
    let params = DbscoutParams::new(1.0, 4).unwrap();
    let mut rng = Rng::seed_from_u64(0xD0B);
    let mut inc = IncrementalDbscout::new(2, params).unwrap();
    let sites: Vec<Vec<f64>> = (0..5)
        .map(|_| vec![rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)])
        .collect();
    let mut alive: Vec<u32> = Vec::new();
    for step in 0..120 {
        if alive.is_empty() || rng.gen_bool(0.65) {
            let site = &sites[rng.gen_range(0..sites.len())];
            alive.push(inc.insert(site).unwrap());
        } else {
            let id = alive.swap_remove(rng.gen_range(0..alive.len()));
            assert!(inc.remove(id));
        }
        if step % 30 == 29 {
            assert_matches_batch(&inc, &format!("duplicates step {step}"));
        }
    }
    assert_matches_batch(&inc, "duplicates final");
}
