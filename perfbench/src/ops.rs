//! The seeded serve-session operation stream.
//!
//! The stream models the server's id assignment (ids are handed out in
//! insertion order and never recycled, bulk-loaded points first), so it
//! can pick removes from the live set and rebuild the survivors at any
//! point without reading a reply.

use dbscout_rng::Rng;
use dbscout_spatial::PointStore;

/// Declared op mix, in percent: probe, insert, remove, outliers.
pub const MIX_PERCENT: [u32; 4] = [75, 12, 12, 1];

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Probe(Vec<f64>),
    Insert(Vec<f64>),
    Remove(u32),
    Outliers,
}

impl Op {
    /// The protocol's name for the op.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Probe(_) => "probe",
            Op::Insert(_) => "insert",
            Op::Remove(_) => "remove",
            Op::Outliers => "outliers",
        }
    }

    /// The request line sent to `dbscout serve`.
    pub fn to_line(&self) -> String {
        let point = |p: &[f64]| {
            let coords: Vec<String> = p.iter().map(|x| format!("{x:?}")).collect();
            coords.join(",")
        };
        match self {
            Op::Probe(p) => format!("{{\"op\":\"probe\",\"point\":[{}]}}", point(p)),
            Op::Insert(p) => format!("{{\"op\":\"insert\",\"point\":[{}]}}", point(p)),
            Op::Remove(id) => format!("{{\"op\":\"remove\",\"id\":{id}}}"),
            Op::Outliers => "{\"op\":\"outliers\"}".to_string(),
        }
    }
}

pub struct OpStream {
    rng: Rng,
    eps: f64,
    dims: usize,
    base_len: usize,
    /// Coordinates of every id ever assigned, bulk-loaded ones first.
    coords: Vec<f64>,
    alive: Vec<bool>,
    /// Live ids in no particular order, for uniform remove picks.
    live: Vec<u32>,
}

impl OpStream {
    /// The stream for a session whose server bulk-loaded `base`. Probe
    /// and insert points are base points jittered uniformly by up to ε
    /// per coordinate; removes pick a uniformly random live id.
    pub fn new(base: &PointStore, eps: f64, seed: u64) -> OpStream {
        let n = base.len() as usize;
        OpStream {
            // Offset so the op stream never replays the generator's
            // own stream for the same seed.
            rng: Rng::seed_from_u64(seed ^ 0x6f70_7374_7265_616d),
            eps,
            dims: base.dims(),
            base_len: n,
            coords: base.flat().to_vec(),
            alive: vec![true; n],
            live: (0..n as u32).collect(),
        }
    }

    fn jittered_base_point(&mut self) -> Vec<f64> {
        let i = self.rng.gen_range(0..self.base_len);
        (0..self.dims)
            .map(|k| self.coords[i * self.dims + k] + self.rng.gen_range(-self.eps..self.eps))
            .collect()
    }

    pub fn next_op(&mut self) -> Op {
        let u = self.rng.gen_range(0..100u32);
        let [probe, insert, remove, _] = MIX_PERCENT;
        if u < probe {
            Op::Probe(self.jittered_base_point())
        } else if u < probe + insert || (u < probe + insert + remove && self.live.is_empty()) {
            let p = self.jittered_base_point();
            let id = self.alive.len();
            self.coords.extend_from_slice(&p);
            self.alive.push(true);
            self.live.push(id as u32);
            Op::Insert(p)
        } else if u < probe + insert + remove {
            let pos = self.rng.gen_range(0..self.live.len());
            let id = self.live.swap_remove(pos);
            self.alive[id as usize] = false;
            Op::Remove(id)
        } else {
            Op::Outliers
        }
    }

    /// Live ids, ascending, and their points in that order: the input a
    /// batch run on the survivors sees, row `r` being id `ids[r]`.
    pub fn survivors(&self) -> (Vec<u32>, PointStore) {
        let ids: Vec<u32> = (0..self.alive.len() as u32)
            .filter(|&id| self.alive[id as usize])
            .collect();
        let mut flat = Vec::with_capacity(ids.len() * self.dims);
        for &id in &ids {
            let i = id as usize * self.dims;
            flat.extend_from_slice(&self.coords[i..i + self.dims]);
        }
        let store = PointStore::from_flat(self.dims, flat).expect("dims of a valid store");
        (ids, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscout_data::generators::osm_like;

    fn lines(seed: u64, n: usize) -> Vec<String> {
        let base = osm_like(2_000, 3);
        let mut s = OpStream::new(&base, 1e6, seed);
        (0..n).map(|_| s.next_op().to_line()).collect()
    }

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        assert_eq!(lines(5, 5_000), lines(5, 5_000));
        assert_ne!(lines(5, 5_000), lines(6, 5_000));
    }

    #[test]
    fn op_shares_match_the_declared_mix() {
        let base = osm_like(2_000, 3);
        let mut s = OpStream::new(&base, 1e6, 11);
        let total = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..total {
            let k = match s.next_op() {
                Op::Probe(_) => 0,
                Op::Insert(_) => 1,
                Op::Remove(_) => 2,
                Op::Outliers => 3,
            };
            counts[k] += 1;
        }
        for (count, pct) in counts.iter().zip(MIX_PERCENT) {
            let share = *count as f64 / total as f64 * 100.0;
            assert!((share - f64::from(pct)).abs() < 0.5, "{counts:?}");
        }
    }

    #[test]
    fn removes_pick_live_ids_and_survivors_track_them() {
        let base = osm_like(300, 3);
        let mut s = OpStream::new(&base, 1e6, 2);
        let mut alive = vec![true; 300];
        for _ in 0..5_000 {
            match s.next_op() {
                Op::Insert(_) => alive.push(true),
                Op::Remove(id) => {
                    assert!(alive[id as usize], "removed a dead id");
                    alive[id as usize] = false;
                }
                _ => {}
            }
        }
        let (ids, store) = s.survivors();
        let expect: Vec<u32> = (0..alive.len() as u32)
            .filter(|&i| alive[i as usize])
            .collect();
        assert_eq!(ids, expect);
        assert_eq!(store.len() as usize, ids.len());
    }
}
