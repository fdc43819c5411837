//! ε-cells (paper Definition 4).
//!
//! An ε-cell is a d-dimensional hypercube whose **diagonal** is ε, i.e.
//! whose side is `l = ε/√d`; any two points inside one cell are therefore
//! at distance ≤ ε (the fact behind Lemma 1). A cell is identified by the
//! integer coordinates of its minimum vertex scaled by `l`:
//! `C_i = ⌊x_i / l⌋` (paper Algorithm 1).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::error::SpatialError;

/// Maximum supported dimensionality. The paper evaluates k_d for d ≤ 9
/// (Table I) and runs experiments on 2–3-dimensional data.
pub const MAX_DIMS: usize = 9;

/// Integer coordinates of an ε-cell.
///
/// Stored as a fixed-size array (zero-padded beyond `dims`) so the type is
/// `Copy` and hashes without heap traffic — cell ids are the shuffle keys
/// of every DBSCOUT phase. `Hash` feeds only the `dims` active
/// coordinates, one `i64` word each; equal values have equal active
/// coordinates, so they still hash equally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellCoord {
    dims: u8,
    c: [i64; MAX_DIMS],
}

impl CellCoord {
    /// Builds a cell coordinate from a slice of per-dimension indices.
    ///
    /// # Panics
    ///
    /// Panics if `coords.len()` is 0 or exceeds [`MAX_DIMS`]; callers
    /// validate dimensionality when constructing stores and grids.
    pub fn from_slice(coords: &[i64]) -> Self {
        assert!(
            !coords.is_empty() && coords.len() <= MAX_DIMS,
            "cell dimensionality {} out of range 1..={}",
            coords.len(),
            MAX_DIMS
        );
        let mut c = [0i64; MAX_DIMS];
        for (out, &x) in c.iter_mut().zip(coords) {
            *out = x;
        }
        Self {
            dims: coords.len() as u8,
            c,
        }
    }

    /// Dimensionality of the cell.
    pub fn dims(&self) -> usize {
        self.dims as usize
    }

    /// The per-dimension integer coordinates.
    pub fn coords(&self) -> &[i64] {
        // `dims <= MAX_DIMS` is a constructor invariant, so the range is
        // always in bounds; fall back to the full array rather than panic.
        self.c.get(..self.dims as usize).unwrap_or(&self.c)
    }

    /// The cell displaced by `offset` (must have the same
    /// dimensionality), or `None` when a coordinate would leave the `i64`
    /// range — no point maps to such a cell.
    #[inline]
    pub fn offset_by(&self, offset: &CellCoord) -> Option<CellCoord> {
        debug_assert_eq!(self.dims, offset.dims);
        let mut c = [0i64; MAX_DIMS];
        for ((out, &a), &b) in c.iter_mut().zip(&self.c).zip(&offset.c) {
            *out = a.checked_add(b)?;
        }
        Some(CellCoord { dims: self.dims, c })
    }
}

impl Hash for CellCoord {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &x in self.coords() {
            state.write_i64(x);
        }
    }
}

/// The hasher behind every [`CellCoord`]-keyed map in the spatial and
/// core crates: the word-at-a-time multiplicative scheme of FxHash.
/// Each word is folded in with one add and one multiply, so a 2-D
/// cell key costs two multiplies instead of a SipHash-1-3 run over the
/// whole padded key.
///
/// It is deterministic (no per-process seed), so map layouts, and any
/// iteration that callers have not canonicalized, repeat across runs
/// and processes. Like the fixed-key SipHash it replaces, it gives no
/// protection against keys crafted to collide: anyone who knows a
/// fixed key can collide SipHash too. Cell coordinates derive from the
/// input and ε, so an adversarial input can degrade a map to linear
/// probing under either hasher, never change an answer.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellHasher {
    hash: u64,
}

/// The odd multiplier of the add-multiply FxHash variant.
const FX_MUL: u64 = 0xf1_35_7a_ea_2e_62_a9_c5;

impl CellHasher {
    /// Folds one word in as `hash = (hash + word) · K`. Keys whose words
    /// differ by small amounts, as neighboring cells do, stay distinct
    /// in all 64 bits: `(x₁ − x₂)·K` never equals a small `y₂ − y₁`.
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(FX_MUL);
    }
}

impl Hasher for CellHasher {
    /// Folds arbitrary bytes in as zero-padded little-endian words.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            for (w, &b) in word.iter_mut().zip(chunk) {
                *w = b;
            }
            self.add_word(u64::from_le_bytes(word));
        }
    }

    /// The one write a [`CellCoord`] key makes per active coordinate.
    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.add_word(i as u64);
    }

    /// The product's high bits mix every input bit, its low bits only
    /// the low input bits; the map picks buckets from the low bits, so
    /// rotate the high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`CellHasher`].
pub type CellHashState = BuildHasherDefault<CellHasher>;

/// A map keyed by ε-cell under [`CellHasher`].
pub type CellHashMap<V> = HashMap<CellCoord, V, CellHashState>;

/// Side length `l = ε/√d` of an ε-cell, nudged one ULP downward so that
/// the cell diagonal `l·√d` cannot exceed ε after rounding (keeps Lemma 1
/// exact in floating point).
pub fn cell_side(eps: f64, dims: usize) -> f64 {
    (eps / (dims as f64).sqrt()).next_down()
}

/// The bound on `|x / side|` below which a cell index is exact: 2^53.
/// Below it the quotient's rounding error stays under one cell and its
/// floor is an exactly representable integer. From 2^53 up, consecutive
/// quotients are 2 or more apart, so a cell spans several sides, two
/// points more than ε apart can share one, and Lemma 1 fails. The sweep
/// in the umbrella crate's `tests/coordinate_range.rs` straddles the
/// bound: exact below it, broken cells above it.
pub const MAX_CELL_INDEX: f64 = 9_007_199_254_740_992.0;

/// The cell containing point `id` (its index, for the error), for cells
/// of side `side`.
///
/// # Errors
///
/// [`SpatialError::NonFiniteCoordinate`] for a NaN or infinite
/// coordinate, [`SpatialError::CoordinateOutOfRange`] for a finite one
/// with `|x / side| ≥` [`MAX_CELL_INDEX`]; the first bad dimension wins.
#[inline]
pub fn checked_cell_of(point: &[f64], side: f64, id: usize) -> Result<CellCoord, SpatialError> {
    debug_assert!(point.len() <= MAX_DIMS);
    let mut c = [0i64; MAX_DIMS];
    for (dim, (out, &x)) in c.iter_mut().zip(point).enumerate() {
        let q = x / side;
        // One comparison on the hot path; NaN fails it too.
        if q.abs() < MAX_CELL_INDEX {
            *out = q.floor() as i64;
        } else if x.is_finite() {
            return Err(SpatialError::CoordinateOutOfRange { point: id, dim });
        } else {
            return Err(SpatialError::NonFiniteCoordinate { point: id, dim });
        }
    }
    Ok(CellCoord {
        dims: point.len() as u8,
        c,
    })
}

/// The cell containing `point`, for cells of side `side`. Exact only
/// for points [`checked_cell_of`] accepts (beyond that the cast
/// saturates): callers pass points that went through it on entry.
#[inline]
pub fn cell_of(point: &[f64], side: f64) -> CellCoord {
    debug_assert!(point.len() <= MAX_DIMS);
    let mut c = [0i64; MAX_DIMS];
    for (out, &x) in c.iter_mut().zip(point) {
        *out = (x / side).floor() as i64;
    }
    CellCoord {
        dims: point.len() as u8,
        c,
    }
}

/// Squared minimum distance from `point` to the closed box of `cell`
/// (side `side`). Zero when the point lies inside the cell.
pub fn min_sq_dist_to_cell(point: &[f64], cell: &CellCoord, side: f64) -> f64 {
    let mut acc = 0.0;
    for (&x, &ci) in point.iter().zip(&cell.c) {
        let lo = ci as f64 * side;
        let hi = lo + side;
        let gap = if x < lo {
            lo - x
        } else if x > hi {
            x - hi
        } else {
            0.0
        };
        acc += gap * gap;
    }
    acc
}

/// Squared maximum distance from `point` to any point of `cell`'s box.
pub fn max_sq_dist_to_cell(point: &[f64], cell: &CellCoord, side: f64) -> f64 {
    let mut acc = 0.0;
    for (&x, &ci) in point.iter().zip(&cell.c) {
        let lo = ci as f64 * side;
        let hi = lo + side;
        let gap = (x - lo).abs().max((x - hi).abs());
        acc += gap * gap;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_slice_round_trip() {
        let c = CellCoord::from_slice(&[1, -2, 3]);
        assert_eq!(c.dims(), 3);
        assert_eq!(c.coords(), &[1, -2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_slice_rejects_oversized() {
        CellCoord::from_slice(&[0; MAX_DIMS + 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_slice_rejects_empty() {
        CellCoord::from_slice(&[]);
    }

    #[test]
    fn zero_padding_makes_eq_and_hash_consistent() {
        let a = CellCoord::from_slice(&[1, 2]);
        let b = CellCoord::from_slice(&[1, 2]);
        assert_eq!(a, b);
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn equal_cells_hash_equally_under_the_cell_hasher() {
        use std::hash::BuildHasher;
        let state = CellHashState::default();
        let coords: [&[i64]; 5] = [&[1, 2], &[-7], &[0, 0, 0], &[i64::MIN, i64::MAX], &[3; 9]];
        for c in coords {
            let a = CellCoord::from_slice(c);
            // The same value built along another path.
            let b = a
                .offset_by(&CellCoord::from_slice(&vec![0; c.len()]))
                .unwrap();
            assert_eq!(state.hash_one(a), state.hash_one(b), "{c:?}");
            // Repeatable: no per-process or per-hasher seed.
            assert_eq!(state.hash_one(a), CellHashState::default().hash_one(b));
        }
        // Offsetting a key built from a different path agrees too.
        let moved = CellCoord::from_slice(&[0, 1])
            .offset_by(&CellCoord::from_slice(&[1, 1]))
            .unwrap();
        assert_eq!(
            state.hash_one(moved),
            state.hash_one(CellCoord::from_slice(&[1, 2]))
        );
        // Different nearby cells never share a full hash, negative
        // coordinates included (an xor-rotate fold would collide
        // `(x, 0)` with `(-x, -33)`).
        let state = &state;
        let hashes: std::collections::HashSet<u64> = (-50..50)
            .flat_map(|x| (-50..50).map(move |y| state.hash_one(CellCoord::from_slice(&[x, y]))))
            .collect();
        assert_eq!(hashes.len(), 100 * 100);
    }

    #[test]
    fn offset_by_adds() {
        let c = CellCoord::from_slice(&[5, -3]);
        let o = CellCoord::from_slice(&[-1, 2]);
        assert_eq!(c.offset_by(&o).unwrap().coords(), &[4, -1]);
    }

    #[test]
    fn offset_by_is_none_past_the_i64_edge() {
        let top = CellCoord::from_slice(&[i64::MAX, 0]);
        let bottom = CellCoord::from_slice(&[0, i64::MIN]);
        let up = CellCoord::from_slice(&[1, 0]);
        let down = CellCoord::from_slice(&[0, -1]);
        assert_eq!(top.offset_by(&up), None);
        assert_eq!(bottom.offset_by(&down), None);
        // Staying inside the range still works at the edge.
        assert_eq!(top.offset_by(&down).unwrap().coords(), &[i64::MAX, -1]);
        assert_eq!(bottom.offset_by(&up).unwrap().coords(), &[1, i64::MIN]);
    }

    #[test]
    fn paper_example_cell_assignment() {
        // Paper §III-B example: ε = √2, d = 2 gives side 1; point
        // (1.1, -0.3) lies in cell (1, -1).
        let side = cell_side(2f64.sqrt(), 2);
        let c = cell_of(&[1.1, -0.3], side);
        assert_eq!(c.coords(), &[1, -1]);
        // (0.5, 0.5) lies in cell (0, 0).
        assert_eq!(cell_of(&[0.5, 0.5], side).coords(), &[0, 0]);
        // (1.9, -0.9) lies in cell (1, -1).
        assert_eq!(cell_of(&[1.9, -0.9], side).coords(), &[1, -1]);
    }

    #[test]
    fn negative_coordinates_floor_correctly() {
        let c = cell_of(&[-0.1, -1.0], 1.0);
        assert_eq!(c.coords(), &[-1, -1]);
    }

    #[test]
    fn cell_diagonal_never_exceeds_eps() {
        for dims in 1..=MAX_DIMS {
            for &eps in &[0.1, 1.0, std::f64::consts::PI, 1e6] {
                let side = cell_side(eps, dims);
                let diagonal = side * (dims as f64).sqrt();
                assert!(
                    diagonal <= eps,
                    "diagonal {diagonal} > eps {eps} for d={dims}"
                );
            }
        }
    }

    #[test]
    fn min_max_dist_to_cell() {
        // Unit cell at (0,0): box [0,1]x[0,1].
        let cell = CellCoord::from_slice(&[0, 0]);
        // Point inside.
        assert_eq!(min_sq_dist_to_cell(&[0.5, 0.5], &cell, 1.0), 0.0);
        // Point left of the box at distance 2.
        assert_eq!(min_sq_dist_to_cell(&[-2.0, 0.5], &cell, 1.0), 4.0);
        // Max distance from origin corner is the far corner (1,1).
        assert_eq!(max_sq_dist_to_cell(&[0.0, 0.0], &cell, 1.0), 2.0);
        // Diagonal case.
        let d = min_sq_dist_to_cell(&[2.0, 2.0], &cell, 1.0);
        assert!((d - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_le_max_dist() {
        let cell = CellCoord::from_slice(&[3, -2, 1]);
        for p in [[0.0, 0.0, 0.0], [3.2, -1.7, 1.9], [100.0, -50.0, 0.1]] {
            assert!(min_sq_dist_to_cell(&p, &cell, 0.7) <= max_sq_dist_to_cell(&p, &cell, 0.7));
        }
    }
}
