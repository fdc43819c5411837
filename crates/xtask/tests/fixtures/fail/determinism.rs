//! Fixture: hash-ordered iteration leaking into result paths.
use std::collections::{HashMap, HashSet};

pub fn flatten(cells: HashMap<u64, Vec<u32>>) -> Vec<u32> {
    let mut out = Vec::new();
    for ids in cells.values() {
        out.extend_from_slice(ids);
    }
    out
}

pub fn dedup(seen: HashSet<u64>) -> Vec<u64> {
    seen.into_iter().collect()
}

pub fn ctor_tracked() -> usize {
    let mut counts = HashMap::new();
    counts.insert(1u32, 2u32);
    for (k, v) in &counts {
        let _ = (k, v);
    }
    counts.len()
}

pub fn cell_map_tracked(types: &CellHashMap<u8>) -> Vec<u8> {
    types.values().copied().collect()
}
