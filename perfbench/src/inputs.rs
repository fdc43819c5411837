//! Workload table, seeded input files, and the cached batch oracle.

use std::path::{Path, PathBuf};

use dbscout_core::{DbscoutParams, DistributedDbscout};
use dbscout_data::generators::{geolife_like, osm_like};
use dbscout_dataflow::ExecutionContext;
use dbscout_spatial::PointStore;

use crate::Error;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Osm,
    Geolife,
}

/// One benchmark workload. Every workload runs both halves of the user
/// path on its own data: timed batch detects on `batch_n` points, and
/// `dbscout serve` sessions bulk-loaded with the first `serve_n` of them.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub family: Family,
    pub batch_n: usize,
    pub serve_n: usize,
    pub eps: f64,
    pub min_pts: usize,
    /// Share of `--seconds` spent on timed batch detects; the serve
    /// windows get the rest.
    pub batch_share: f64,
    /// Detect pairs (threads = 1, then nproc) a run makes at least,
    /// whatever its share of the budget.
    pub min_pairs: usize,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "osm",
        family: Family::Osm,
        batch_n: 2_000_000,
        serve_n: 50_000,
        eps: 1e6,
        min_pts: 100,
        batch_share: 0.5,
        min_pairs: 5,
    },
    Workload {
        name: "geolife",
        family: Family::Geolife,
        batch_n: 1_000_000,
        // Warm start is quadratic in cell occupancy and geolife's cells
        // are fuller, so 20k geolife points take as long as 50k osm.
        serve_n: 20_000,
        eps: 100.0,
        min_pts: 100,
        batch_share: 0.5,
        // A geolife pair takes 4-5 s.
        min_pairs: 3,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    pub fn params(&self) -> Result<DbscoutParams, Error> {
        Ok(DbscoutParams::new(self.eps, self.min_pts)?)
    }

    fn generate(&self, seed: u64) -> PointStore {
        match self.family {
            Family::Osm => osm_like(self.batch_n, seed),
            Family::Geolife => geolife_like(self.batch_n, seed),
        }
    }
}

/// The files one run feeds the program, plus the serve points the
/// benchmark itself needs to draw and check operations. The files are
/// deleted on drop: they are cheap to regenerate, and ten seeds of them
/// would hold hundreds of MB.
pub struct Inputs {
    pub batch_file: PathBuf,
    pub serve_file: PathBuf,
    pub serve_store: PointStore,
}

impl Drop for Inputs {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.batch_file);
        let _ = std::fs::remove_file(&self.serve_file);
    }
}

/// Generates the workload's inputs for `seed` and writes them (untimed)
/// as DBSC binary files under `dir`.
pub fn prepare(w: &Workload, seed: u64, dir: &Path) -> Result<Inputs, Error> {
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}-{}-seed{seed}", w.name, w.batch_n);
    let batch_file = dir.join(format!("{stem}.batch.dbsc"));
    let serve_file = dir.join(format!("{stem}.serve{}.dbsc", w.serve_n));
    let store = w.generate(seed);
    let serve_n = w.serve_n.min(store.len() as usize);
    let ids: Vec<u32> = (0..serve_n as u32).collect();
    let serve_store = store.gather(&ids);
    write_atomically(&batch_file, &store)?;
    write_atomically(&serve_file, &serve_store)?;
    Ok(Inputs {
        batch_file,
        serve_file,
        serve_store,
    })
}

fn write_atomically(path: &Path, store: &PointStore) -> Result<(), Error> {
    let tmp = path.with_extension("tmp");
    dbscout_data::io::write_binary(&tmp, store)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over the outlier count and ids: equal digests mean equal
/// outlier sets (up to a 2^-64 collision).
pub fn outlier_digest(outliers: &[u32]) -> u64 {
    let h = fnv1a(FNV_OFFSET, &(outliers.len() as u64).to_le_bytes());
    outliers.iter().fold(h, |h, id| fnv1a(h, &id.to_le_bytes()))
}

/// The digest of the oracle's outlier set for the points in `file`.
///
/// The oracle is `DistributedDbscout::detect`, the paper's literal
/// dataflow formulation, which shares no code with the cell-major batch
/// path it checks. It runs untimed and takes seconds to tens of seconds
/// at full size, so its answer is cached under `dir`, keyed by the
/// file's content digest and the parameters.
pub fn oracle_digest(file: &Path, params: DbscoutParams, dir: &Path) -> Result<u64, Error> {
    let key = format!(
        "{:016x}-eps{}-minpts{}",
        fnv1a(FNV_OFFSET, &std::fs::read(file)?),
        params.eps,
        params.min_pts
    );
    let cached = dir.join(format!("oracle-{key}.txt"));
    if let Ok(text) = std::fs::read_to_string(&cached) {
        if let Ok(d) = u64::from_str_radix(text.trim(), 16) {
            return Ok(d);
        }
    }
    let store = dbscout_data::io::read_binary(file)?;
    let ctx = ExecutionContext::with_all_cores();
    let digest = outlier_digest(
        &DistributedDbscout::new(ctx, params)
            .detect(&store)?
            .outliers,
    );
    let tmp = cached.with_extension("tmp");
    std::fs::write(&tmp, format!("{digest:016x}\n"))?;
    std::fs::rename(&tmp, &cached)?;
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> Workload {
        Workload {
            batch_n: 3_000,
            serve_n: 1_000,
            ..find(name).unwrap()
        }
    }

    fn files(w: &Workload, seed: u64, dir: &Path) -> (Vec<u8>, Vec<u8>) {
        let inputs = prepare(w, seed, dir).unwrap();
        (
            std::fs::read(&inputs.batch_file).unwrap(),
            std::fs::read(&inputs.serve_file).unwrap(),
        )
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs_other_seed_other_inputs() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(crate::DATA_DIR)
            .join(format!("test-inputs-{}", std::process::id()));
        for name in ["osm", "geolife"] {
            let w = tiny(name);
            let a = files(&w, 9, &dir.join("a"));
            assert_eq!(a, files(&w, 9, &dir.join("b")), "{name}");
            assert_ne!(a, files(&w, 10, &dir.join("a")), "{name}");
            // The serve file is the first serve_n points of the batch file.
            let header = 14;
            let row = if w.family == Family::Osm { 16 } else { 24 };
            assert_eq!(
                a.1[header..],
                a.0[header..header + w.serve_n * row],
                "{name}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn outlier_digest_separates_sets() {
        assert_eq!(outlier_digest(&[1, 2, 3]), outlier_digest(&[1, 2, 3]));
        assert_ne!(outlier_digest(&[1, 2, 3]), outlier_digest(&[1, 2]));
        assert_ne!(outlier_digest(&[]), outlier_digest(&[0]));
    }
}
