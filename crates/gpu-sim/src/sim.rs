//! Functional device simulation: launch geometry, occupancy and full
//! scans.
//!
//! Per §IV-B the host enqueues blocks of `B_Sched³` threads; each thread
//! derives its SNP triple from the 3-D thread index and *idles* unless
//! `i2 > i1 > i0` (the paper's guard). Work-groups have `B_S` threads, so
//! consecutive threads in a group differ only in `i2` — the property that
//! makes the transposed/tiled layouts coalesce.

use crate::kernels;
use bitgenome::layout::{RowMajorPlanes, TiledPlanes, TransposedPlanes};
use bitgenome::{GenotypeMatrix, Phenotype, SplitDataset, UnsplitDataset};
use epi_core::combin;
use epi_core::k2::{K2Scorer, Objective};
use epi_core::pool;
use epi_core::result::{Candidate, TopK, Triple};

/// The four GPU approaches of §IV-B.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GpuVersion {
    /// Naive: three planes + phenotype, row-major.
    V1,
    /// Phenotype split + NOR inference, row-major (uncoalesced).
    V2,
    /// V2 on a transposed dataset (coalesced loads).
    V3,
    /// V3 with SNP tiling in blocks of `B_S`.
    V4,
}

impl GpuVersion {
    /// All four, in order.
    pub const ALL: [GpuVersion; 4] = [
        GpuVersion::V1,
        GpuVersion::V2,
        GpuVersion::V3,
        GpuVersion::V4,
    ];

    /// Paper-style name.
    pub const fn name(self) -> &'static str {
        match self {
            GpuVersion::V1 => "V1",
            GpuVersion::V2 => "V2",
            GpuVersion::V3 => "V3",
            GpuVersion::V4 => "V4",
        }
    }
}

impl std::fmt::Display for GpuVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct GpuScanConfig {
    /// Approach to simulate.
    pub version: GpuVersion,
    /// Work-group size / SNP tile (`B_S`; paper uses 32 or 64).
    pub bs: usize,
    /// Scheduling block edge (`B_Sched`; paper uses 128 or 256).
    pub bsched: usize,
    /// Candidates to retain.
    pub top_k: usize,
}

impl GpuScanConfig {
    /// Defaults matching the paper's most common configuration ⟨256, 64⟩.
    pub fn new(version: GpuVersion) -> Self {
        Self {
            version,
            bs: 64,
            bsched: 256,
            top_k: 1,
        }
    }
}

/// Outcome of a functional scan.
#[derive(Clone, Debug)]
pub struct GpuScanResult {
    /// Best candidates, lowest score first.
    pub top: Vec<Candidate>,
    /// Combinations evaluated.
    pub combos: u64,
    /// Combinations × samples.
    pub elements: u128,
    /// Launch-geometry accounting.
    pub launches: LaunchStats,
}

/// Thread-launch accounting of the cube-tiled enqueue scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchStats {
    /// Kernel enqueues needed to cover the combination cube.
    pub launches: u64,
    /// Total threads launched (`launches × B_Sched³`).
    pub threads_launched: u128,
    /// Threads that pass the `i2 > i1 > i0` guard and do work.
    pub threads_active: u64,
}

impl LaunchStats {
    /// Compute the stats for `m` SNPs and scheduling edge `bsched`.
    pub fn compute(m: usize, bsched: usize) -> Self {
        let blocks_per_dim = m.div_ceil(bsched) as u64;
        let launches = blocks_per_dim.pow(3);
        let threads_per_launch = (bsched as u128).pow(3);
        Self {
            launches,
            threads_launched: launches as u128 * threads_per_launch,
            threads_active: combin::num_triples(m),
        }
    }

    /// Fraction of launched threads that do useful work. Approaches 1/6
    /// for `m ≫ B_Sched` (the strictly-increasing-triple density of the
    /// cube).
    pub fn occupancy(&self) -> f64 {
        self.threads_active as f64 / self.threads_launched as f64
    }
}

/// A dataset prepared in one of the four GPU layouts.
pub struct GpuScan {
    m: usize,
    n: usize,
    encoded: Encoded,
}

enum Encoded {
    V1(UnsplitDataset),
    V2(SplitDataset),
    V3 {
        ctrl: TransposedPlanes,
        case: TransposedPlanes,
    },
    V4 {
        ctrl: TiledPlanes,
        case: TiledPlanes,
    },
}

impl GpuScan {
    /// Encode `genotypes`/`phenotype` into the layout `cfg.version` needs
    /// ("host-side" data preparation in the paper's flow).
    pub fn prepare(genotypes: &GenotypeMatrix, phenotype: &Phenotype, cfg: &GpuScanConfig) -> Self {
        let m = genotypes.num_snps();
        let n = genotypes.num_samples();
        let encoded = match cfg.version {
            GpuVersion::V1 => Encoded::V1(UnsplitDataset::encode(genotypes, phenotype)),
            GpuVersion::V2 => Encoded::V2(SplitDataset::encode(genotypes, phenotype)),
            GpuVersion::V3 => {
                let split = SplitDataset::encode(genotypes, phenotype);
                Encoded::V3 {
                    ctrl: TransposedPlanes::from_class(split.controls(), m),
                    case: TransposedPlanes::from_class(split.cases(), m),
                }
            }
            GpuVersion::V4 => {
                let split = SplitDataset::encode(genotypes, phenotype);
                Encoded::V4 {
                    ctrl: TiledPlanes::from_class(split.controls(), m, cfg.bs),
                    case: TiledPlanes::from_class(split.cases(), m, cfg.bs),
                }
            }
        };
        Self { m, n, encoded }
    }

    fn thread_table(&self, t: Triple) -> epi_core::table27::ContingencyTable {
        match &self.encoded {
            Encoded::V1(ds) => kernels::thread_v1(ds, t),
            Encoded::V2(ds) => {
                let ctrl = RowMajorPlanes::new(ds.controls(), self.m);
                let case = RowMajorPlanes::new(ds.cases(), self.m);
                kernels::thread_split(&ctrl, &case, t)
            }
            Encoded::V3 { ctrl, case } => kernels::thread_split(ctrl, case, t),
            Encoded::V4 { ctrl, case } => kernels::thread_split(ctrl, case, t),
        }
    }

    /// Run the full scan functionally. Logical GPU threads are evaluated
    /// on host cores (`epi_core::pool`); each keeps a private table and
    /// best score, with the "host-side" final reduction of §IV-B at the
    /// end.
    pub fn run(&self, cfg: &GpuScanConfig) -> GpuScanResult {
        let triples: Vec<Triple> = combin::TripleIter::new(self.m).collect();
        let merged = self.run_subset(cfg, &triples);
        GpuScanResult {
            top: merged.into_sorted(),
            combos: combin::num_triples(self.m),
            elements: combin::num_elements(self.m, self.n),
            launches: LaunchStats::compute(self.m, cfg.bsched),
        }
    }

    /// Run only the given triples (used by heterogeneous CPU+GPU
    /// co-execution, where the GPU takes a slice of the space).
    pub fn run_subset(&self, cfg: &GpuScanConfig, triples: &[Triple]) -> TopK {
        let scorer = K2Scorer::new(self.n);
        // one run over the whole slice: plan_claims cuts it into
        // contiguous balance-capped claims
        let workers = pool::resolve_threads(0);
        let states = pool::run_claims(
            &pool::plan_claims(&[triples.len()], workers),
            workers,
            || TopK::new(cfg.top_k),
            |i, top| {
                let t = triples[i];
                top.push(scorer.score(&self.thread_table(t)), t);
            },
        );
        let mut merged = TopK::new(cfg.top_k);
        for top in states {
            merged.merge(top);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epi_core::scan::{scan, ScanConfig, Version};

    fn dataset(m: usize, n: usize, seed: u64) -> (GenotypeMatrix, Phenotype) {
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            s >> 33
        };
        let data: Vec<u8> = (0..m * n).map(|_| (next() % 3) as u8).collect();
        let labels: Vec<u8> = (0..n).map(|_| (next() % 2) as u8).collect();
        (
            GenotypeMatrix::from_raw(m, n, data),
            Phenotype::from_labels(labels),
        )
    }

    #[test]
    fn all_gpu_versions_match_cpu_scan() {
        let (g, p) = dataset(12, 120, 4);
        let mut cpu_cfg = ScanConfig::new(Version::V4);
        cpu_cfg.top_k = 5;
        let want = scan(&g, &p, &cpu_cfg).top;
        for version in GpuVersion::ALL {
            let mut cfg = GpuScanConfig::new(version);
            cfg.top_k = 5;
            cfg.bs = 4;
            cfg.bsched = 8;
            let scanpr = GpuScan::prepare(&g, &p, &cfg);
            let got = scanpr.run(&cfg).top;
            assert_eq!(got, want, "{version}");
        }
    }

    #[test]
    fn launch_stats_cover_the_cube() {
        let s = LaunchStats::compute(100, 32);
        assert_eq!(s.launches, 4 * 4 * 4);
        assert_eq!(s.threads_launched, 64 * 32768);
        assert_eq!(s.threads_active, combin::num_triples(100));
        assert!(s.occupancy() > 0.0 && s.occupancy() < 1.0);
    }

    #[test]
    fn occupancy_approaches_one_sixth() {
        // With m an exact multiple of bsched and m >> bsched, the fraction
        // of strictly-increasing index triples tends to 1/6.
        let s = LaunchStats::compute(4096, 256);
        let occ = s.occupancy();
        assert!((occ - 1.0 / 6.0).abs() < 0.01, "{occ}");
    }

    #[test]
    fn result_accounting() {
        let (g, p) = dataset(8, 64, 9);
        let cfg = GpuScanConfig::new(GpuVersion::V3);
        let res = GpuScan::prepare(&g, &p, &cfg).run(&cfg);
        assert_eq!(res.combos, 56);
        assert_eq!(res.elements, 56 * 64);
        assert_eq!(res.top.len(), 1);
    }
}
