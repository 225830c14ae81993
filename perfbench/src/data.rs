//! Seeded input generation, the per-seed data cache and page-cache warming.
//!
//! Inputs are made here, from the workload seed alone, so they do not
//! change when the engine's own generators do. Each workload's files live
//! in `.bench_data/<workload>-<scale>-s<seed>/`, written once and reused
//! by later runs with the same seed; a `done` marker is written last, so
//! an interrupted generation is redone. Only the two most recently made
//! seeds of a workload are kept.

use std::fs::{self, File};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use nodb::Result;

/// Root of the data cache, relative to the working directory.
pub const DATA_ROOT: &str = ".bench_data";

/// Input size: `Full` is the benchmark, `Smoke` the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    /// Rows of the single table of `explore` and `serve`.
    pub fn table_rows(self) -> usize {
        match self {
            Scale::Full => 1_000_000,
            Scale::Smoke => 20_000,
        }
    }

    /// Rows of each of `join-append`'s tables.
    pub fn join_rows(self) -> usize {
        match self {
            Scale::Full => 500_000,
            Scale::Smoke => 10_000,
        }
    }
}

/// SplitMix64: a small seeded generator with good statistical mixing.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded bijection on `[0, n)`: a four-round Feistel network over the
/// smallest even-width power of two covering `n`, cycle-walking outputs
/// that fall outside the domain. Constant memory, so a column of unique
/// integers streams straight to disk.
struct Permutation {
    n: u64,
    half: u32,
    keys: [u64; 4],
}

impl Permutation {
    fn new(n: u64, seed: u64) -> Permutation {
        let bits = (64 - n.saturating_sub(1).leading_zeros()).max(2);
        let mut rng = Rng::new(seed);
        Permutation {
            n,
            half: bits.div_ceil(2),
            keys: [
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            ],
        }
    }

    fn apply(&self, i: u64) -> u64 {
        let mask = (1u64 << self.half) - 1;
        let mut x = i;
        loop {
            let (mut l, mut r) = (x >> self.half, x & mask);
            for k in self.keys {
                (l, r) = (r, l ^ (mix(r ^ k) & mask));
            }
            x = (l << self.half) | r;
            if x < self.n {
                return x;
            }
        }
    }
}

/// The directory holding the cached inputs of `workload` at `seed`,
/// generating them with `make` when absent.
pub fn cached(
    workload: &str,
    scale: Scale,
    seed: u64,
    make: impl FnOnce(&Path) -> Result<()>,
) -> Result<PathBuf> {
    let prefix = format!("{workload}-{}-s", scale.label());
    let dir = Path::new(DATA_ROOT).join(format!("{prefix}{seed}"));
    if !dir.join("done").exists() {
        evict_old(&prefix, 1)?;
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        make(&dir)?;
        // Flush now, so that write-back does not run during the timed loop.
        for entry in fs::read_dir(&dir)? {
            File::open(entry?.path())?.sync_all()?;
        }
        File::create(dir.join("done"))?.sync_all()?;
    }
    Ok(dir)
}

/// Keep at most `keep` complete datasets whose directory starts with
/// `prefix`, removing the oldest first.
fn evict_old(prefix: &str, keep: usize) -> Result<()> {
    let Ok(entries) = fs::read_dir(DATA_ROOT) else {
        return Ok(());
    };
    let mut found: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with(prefix) {
            continue;
        }
        let made = fs::metadata(entry.path().join("done"))
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        found.push((made, entry.path()));
    }
    found.sort();
    let excess = found.len().saturating_sub(keep);
    for (_, path) in found.into_iter().take(excess) {
        fs::remove_dir_all(path)?;
    }
    Ok(())
}

/// Read every file once so timed runs find it in the OS page cache.
pub fn warm(paths: &[PathBuf]) -> Result<()> {
    let mut buf = vec![0u8; 1 << 20];
    for p in paths {
        let mut f = File::open(p)?;
        while f.read(&mut buf)? > 0 {}
    }
    Ok(())
}

fn writer(path: &Path) -> Result<BufWriter<File>> {
    Ok(BufWriter::with_capacity(1 << 20, File::create(path)?))
}

/// `explore`'s table: one RFC-4180-quoted text column with an embedded
/// comma, then `int_cols` columns each holding a seeded permutation of
/// `0..rows` (the paper's "unique integers randomly distributed").
pub fn write_explore_table(path: &Path, rows: usize, int_cols: usize, seed: u64) -> Result<()> {
    let perms: Vec<Permutation> = (0..int_cols)
        .map(|c| Permutation::new(rows as u64, seed.wrapping_mul(31).wrapping_add(c as u64)))
        .collect();
    let mut rng = Rng::new(seed ^ 0x7E47);
    let mut w = writer(path)?;
    for i in 0..rows as u64 {
        write!(w, "\"k{}, v{}\"", rng.below(1000), rng.below(1000))?;
        for p in &perms {
            write!(w, ",{}", p.apply(i))?;
        }
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

/// Labels of `serve`'s low-cardinality string column.
const LABELS: [&str; 8] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
];

/// `serve`'s table: `id` (`0..rows` in order), `score` (a float with three
/// decimals in `[-1000, 1000)`), `label` (one of [`LABELS`]) and `note`
/// (text, empty, which reads as NULL, on about 5% of rows).
pub fn write_serve_table(path: &Path, rows: usize, seed: u64) -> Result<()> {
    let mut rng = Rng::new(seed ^ 0x5E21);
    let mut w = writer(path)?;
    for id in 0..rows {
        let milli = rng.below(2_000_000) as i64 - 1_000_000;
        let label = LABELS[rng.below(LABELS.len() as u64) as usize];
        write!(w, "{id},{:.3},{label},", milli as f64 / 1000.0)?;
        if rng.below(20) != 0 {
            write!(w, "n{}", rng.below(1000))?;
        }
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

/// Payload columns after the key in each join table.
pub const JOIN_PAYLOADS: usize = 3;

/// One of `join-append`'s tables: a key column holding a permutation of
/// `0..rows` (so `r` and `s` join 1:1) and [`JOIN_PAYLOADS`] unique-int
/// payload columns.
pub fn write_join_table(path: &Path, rows: usize, seed: u64) -> Result<()> {
    let perms: Vec<Permutation> = (0..=JOIN_PAYLOADS)
        .map(|c| Permutation::new(rows as u64, seed.wrapping_mul(131).wrapping_add(c as u64)))
        .collect();
    let mut w = writer(path)?;
    for i in 0..rows as u64 {
        for (c, p) in perms.iter().enumerate() {
            if c > 0 {
                w.write_all(b",")?;
            }
            write!(w, "{}", p.apply(i))?;
        }
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

/// A batch of rows appended to `s`: keys drawn from `0..key_rows`, all
/// of which exist in `r`, and random payloads.
pub fn write_append_batch(path: &Path, rows: usize, key_rows: usize, seed: u64) -> Result<()> {
    let mut rng = Rng::new(seed ^ 0xA99E);
    let mut w = writer(path)?;
    for _ in 0..rows {
        write!(w, "{}", rng.below(key_rows as u64))?;
        for _ in 0..JOIN_PAYLOADS {
            write!(w, ",{}", rng.below(key_rows as u64))?;
        }
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

/// Append `batch`'s bytes to `target`.
pub fn append(target: &Path, batch: &Path) -> Result<()> {
    let bytes = fs::read(batch)?;
    let mut f = fs::OpenOptions::new().append(true).open(target)?;
    f.write_all(&bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_bijection() {
        for n in [1u64, 2, 7, 1000, 4096, 5000] {
            let p = Permutation::new(n, 42);
            let mut seen = vec![false; n as usize];
            for i in 0..n {
                let x = p.apply(i) as usize;
                assert!(!seen[x], "duplicate image {x} for n={n}");
                seen[x] = true;
            }
        }
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = {
            let mut r = Rng::new(9);
            (0..4).map(|_| r.below(100)).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(9);
            (0..4).map(|_| r.below(100)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 100));
    }
}
