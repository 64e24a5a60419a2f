//! Spool I/O abstraction with injectable disk faults.
//!
//! Every byte the engine persists (job checkpoints under the spool
//! directory) flows through the [`SpoolFs`] trait instead of calling
//! `std::fs` directly. Production uses [`RealSpoolFs`]; the recovery
//! suite wraps it in [`FaultySpoolFs`], which injects ENOSPC / EIO /
//! torn-write faults on a scripted or seeded schedule — the disk-side
//! sibling of `epi_coord::chaos`'s network fault proxy. Because
//! checkpoint writes are atomic (tmp → rotate `.prev` → rename), any
//! injected fault leaves either the previous good file or the new one
//! intact, never a half-written primary; the tests in
//! `engine.rs` / `tests/overload.rs` prove restart always recovers to
//! the last good checkpoint.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Filesystem surface the engine's spool needs. Object-safe so the
/// engine can hold `Arc<dyn SpoolFs>` and tests can swap in a faulty
/// implementation without touching engine code.
pub trait SpoolFs: Send + Sync + std::fmt::Debug {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Write the full contents of `path` (create/truncate + flush).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// File paths directly under `dir` (no recursion, any order — the
    /// caller sorts for determinism).
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// Straight delegation to `std::fs`.
#[derive(Debug, Default)]
pub struct RealSpoolFs;

impl SpoolFs for RealSpoolFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        Ok(out)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// A disk fault the schedule can inject on a mutating spool op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpoolFault {
    /// `ENOSPC`: the write fails cleanly, nothing lands on disk.
    Enospc,
    /// `EIO`: generic I/O error on the op.
    Eio,
    /// The write persists only the first half of the bytes and then
    /// *reports success* — the classic crash-mid-write torn file. On a
    /// rename this degrades to [`SpoolFault::Eio`] (renames are atomic
    /// on the filesystems we target; they fail, they do not tear).
    Torn,
}

/// When faults fire, by mutating-op index (writes and renames count;
/// reads never fault — a torn file is *read back* faithfully).
#[derive(Clone, Debug)]
pub enum SpoolSchedule {
    /// Explicit per-op script; ops past the end run clean.
    Scripted(Vec<Option<SpoolFault>>),
    /// Pseudorandom schedule derived from the seed: roughly one op in
    /// four faults, kind mixed by [`seeded_draw`], so CI can replay a
    /// failure from its seed.
    Seeded(u64),
}

/// Draw `index` of a seeded fault schedule: SplitMix64 — tiny,
/// seedable, and good enough to decorrelate consecutive indices — over
/// `seed · 0x9E3779B1 + index`. The one mixer behind both
/// [`SpoolSchedule::Seeded`] and `epi_coord`'s TCP chaos schedule.
pub fn seeded_draw(seed: u64, index: u64) -> u64 {
    let x = seed.wrapping_mul(0x9E37_79B1).wrapping_add(index);
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SpoolSchedule {
    /// Fault (if any) for the `index`-th mutating op.
    pub fn fault_for(&self, index: u64) -> Option<SpoolFault> {
        match self {
            SpoolSchedule::Scripted(script) => script.get(index as usize).copied().flatten(),
            SpoolSchedule::Seeded(seed) => {
                let r = seeded_draw(*seed, index);
                if !r.is_multiple_of(4) {
                    return None;
                }
                Some(match (r >> 8) % 3 {
                    0 => SpoolFault::Enospc,
                    1 => SpoolFault::Eio,
                    _ => SpoolFault::Torn,
                })
            }
        }
    }
}

/// Wraps another [`SpoolFs`] and injects faults from a
/// [`SpoolSchedule`]. Shared via `Arc` between the engine under test
/// and the test body, which reads the injection counters.
#[derive(Debug)]
pub struct FaultySpoolFs {
    inner: Arc<dyn SpoolFs>,
    schedule: SpoolSchedule,
    ops: AtomicU64,
    injected: AtomicU64,
}

impl FaultySpoolFs {
    pub fn new(inner: Arc<dyn SpoolFs>, schedule: SpoolSchedule) -> Self {
        Self {
            inner,
            schedule,
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Seeded schedule over the real filesystem.
    pub fn seeded(seed: u64) -> Self {
        Self::new(Arc::new(RealSpoolFs), SpoolSchedule::Seeded(seed))
    }

    /// Mutating ops attempted so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Faults actually injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Claim the next mutating-op slot and return its fault, if any.
    fn next_fault(&self) -> Option<SpoolFault> {
        let index = self.ops.fetch_add(1, Ordering::SeqCst);
        let fault = self.schedule.fault_for(index);
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::SeqCst);
        }
        fault
    }
}

fn enospc() -> io::Error {
    io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC")
}

fn eio() -> io::Error {
    io::Error::other("injected EIO")
}

impl SpoolFs for FaultySpoolFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.next_fault() {
            None => self.inner.write(path, bytes),
            Some(SpoolFault::Enospc) => Err(enospc()),
            Some(SpoolFault::Eio) => Err(eio()),
            Some(SpoolFault::Torn) => {
                // persist half, report success: what a crash mid-write
                // leaves behind
                let half = bytes.len() / 2;
                self.inner.write(path, bytes.get(..half).unwrap_or(bytes))
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.next_fault() {
            None => self.inner.rename(from, to),
            Some(SpoolFault::Enospc) => Err(enospc()),
            // renames fail atomically; Torn degrades to EIO
            Some(SpoolFault::Eio) | Some(SpoolFault::Torn) => Err(eio()),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.next_fault() {
            None => self.inner.remove_file(path),
            Some(SpoolFault::Enospc) => Err(enospc()),
            Some(SpoolFault::Eio) | Some(SpoolFault::Torn) => Err(eio()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("epi-spoolfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_fs_roundtrip() {
        let dir = tmpdir("real");
        let fs = RealSpoolFs;
        let p = dir.join("a.bin");
        fs.write(&p, b"hello").unwrap();
        assert_eq!(fs.read(&p).unwrap(), b"hello");
        let q = dir.join("b.bin");
        fs.rename(&p, &q).unwrap();
        let listing = fs.read_dir(&dir).unwrap();
        assert_eq!(listing, vec![q.clone()]);
        fs.remove_file(&q).unwrap();
        assert!(fs.read_dir(&dir).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scripted_faults_fire_in_order() {
        let dir = tmpdir("scripted");
        let fs = FaultySpoolFs::new(
            Arc::new(RealSpoolFs),
            SpoolSchedule::Scripted(vec![Some(SpoolFault::Enospc), Some(SpoolFault::Torn), None]),
        );
        let p = dir.join("x.bin");
        // op 0: ENOSPC, nothing lands
        let err = fs.write(&p, b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(fs.read(&p).is_err());
        // op 1: torn — half the bytes land, but the call "succeeds"
        fs.write(&p, b"0123456789").unwrap();
        assert_eq!(fs.read(&p).unwrap(), b"01234");
        // op 2 and beyond: clean
        fs.write(&p, b"0123456789").unwrap();
        assert_eq!(fs.read(&p).unwrap(), b"0123456789");
        fs.write(&p, b"tail").unwrap();
        assert_eq!(fs.ops(), 4);
        assert_eq!(fs.faults_injected(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_schedule_is_deterministic_and_mixed() {
        let a = SpoolSchedule::Seeded(42);
        let b = SpoolSchedule::Seeded(42);
        let c = SpoolSchedule::Seeded(43);
        let seq_a: Vec<_> = (0..256).map(|i| a.fault_for(i)).collect();
        let seq_b: Vec<_> = (0..256).map(|i| b.fault_for(i)).collect();
        let seq_c: Vec<_> = (0..256).map(|i| c.fault_for(i)).collect();
        assert_eq!(seq_a, seq_b, "same seed must replay identically");
        assert_ne!(seq_a, seq_c, "different seeds should diverge");
        let faults = seq_a.iter().flatten().count();
        // ~25% rate: expect a healthy band, and all three kinds present
        assert!((32..=96).contains(&faults), "fault count {faults}");
        for kind in [SpoolFault::Enospc, SpoolFault::Eio, SpoolFault::Torn] {
            assert!(
                seq_a.iter().flatten().any(|f| *f == kind),
                "{kind:?} never fired"
            );
        }
    }

    #[test]
    fn rename_faults_are_clean_failures() {
        let dir = tmpdir("rename");
        let fs = FaultySpoolFs::new(
            Arc::new(RealSpoolFs),
            SpoolSchedule::Scripted(vec![None, Some(SpoolFault::Torn)]),
        );
        let p = dir.join("src.bin");
        fs.write(&p, b"payload").unwrap();
        let q = dir.join("dst.bin");
        // torn on a rename degrades to EIO; source must survive intact
        assert!(fs.rename(&p, &q).is_err());
        assert_eq!(fs.read(&p).unwrap(), b"payload");
        assert!(fs.read(&q).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
