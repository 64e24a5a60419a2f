//! # threeway-epistasis
//!
//! Exhaustive **three-way gene interaction (epistasis) detection** for
//! modern CPUs and (simulated) GPUs — a full Rust reproduction of
//! *“Unlocking Personalized Healthcare on Modern CPUs/GPUs: Three-way
//! Gene Interaction Study”* (Marques et al., IPDPS 2022).
//!
//! ## Quick start
//!
//! ```
//! use threeway_epistasis::prelude::*;
//!
//! // Generate a synthetic case-control dataset with a planted
//! // three-way interaction on SNPs (3, 7, 11).
//! let spec = DatasetSpec::with_planted_triple(32, 512, [3, 7, 11], 42);
//! let data = spec.generate();
//!
//! // Run the fastest CPU approach (V5: split + blocked + SIMD +
//! // pair-prefix caching; results bit-identical to the paper's V4).
//! let result = detect(&data.genotypes, &data.phenotype);
//! let best = result.best().expect("non-empty scan");
//!
//! // The planted interaction minimises the K2 score.
//! let t = best.triple;
//! assert!(data
//!     .truth
//!     .as_ref()
//!     .unwrap()
//!     .matches(&[t.0 as usize, t.1 as usize, t.2 as usize]));
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |-------|------|
//! | [`bitgenome`] | bit-packed genotype layouts (Fig. 1, §IV) |
//! | [`datagen`] | synthetic datasets with planted interactions |
//! | [`epi_core`] | CPU approaches V1–V5, K2 scoring, parallel drivers |
//! | [`devices`] | the paper's 5 CPUs + 9 GPUs as data (Tables I–II) |
//! | [`gpu_sim`] | functional + analytic GPU simulator (§IV-B, Fig. 4) |
//! | [`carm`] | Cache-Aware Roofline Model characterisation (Fig. 2) |
//! | [`baselines`] | MPI3SNP-style and naive comparators (Table III) |
//! | [`epi_server`] | sharded, resumable scan jobs behind a TCP service |
//! | [`epi_coord`] | multi-node federation of one scan across a fleet |

#![forbid(unsafe_code)]

pub use baselines;
pub use bitgenome;
pub use carm;
pub use datagen;
pub use devices;
pub use epi_coord;
pub use epi_core;
pub use epi_server;
pub use gpu_sim;

use bitgenome::{GenotypeMatrix, Phenotype};
use epi_core::scan::{ScanConfig, ScanResult, Version};

/// Common imports for applications.
pub mod prelude {
    pub use crate::{detect, detect_with};
    pub use bitgenome::{GenotypeMatrix, Phenotype};
    pub use datagen::{Dataset, DatasetSpec, GroundTruth, MafModel, PenetranceTable};
    pub use epi_coord::{
        federate, resume_from_spool, ChaosProxy, ChaosSchedule, FederationConfig, FederationReport,
    };
    pub use epi_core::scan::{scan, ObjectiveKind, ScanConfig, ScanResult, Version};
    pub use epi_core::shard::{scan_shard, scan_sharded, ShardPlan, ShardSet};
    pub use epi_core::{BlockParams, Candidate, Triple};
    pub use epi_server::{Client, EngineConfig, JobSpec, JobState, Server};
    pub use gpu_sim::{GpuScan, GpuScanConfig, GpuTimingModel, GpuVersion};
}

/// Run the fastest CPU approach (V5: pair-prefix cached, bit-identical
/// to the paper's V4) with default settings: all cores, dynamic
/// scheduling, K2 objective, top-10 candidates.
pub fn detect(genotypes: &GenotypeMatrix, phenotype: &Phenotype) -> ScanResult {
    let mut cfg = ScanConfig::new(Version::V5);
    cfg.top_k = 10;
    detect_with(genotypes, phenotype, &cfg)
}

/// Run a scan with an explicit configuration.
pub fn detect_with(
    genotypes: &GenotypeMatrix,
    phenotype: &Phenotype,
    cfg: &ScanConfig,
) -> ScanResult {
    epi_core::scan::scan(genotypes, phenotype, cfg)
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_detects_planted_interaction() {
        // 512 samples gives the threshold-model signal a comfortable
        // margin over noise triples for any reasonable RNG stream.
        let spec = DatasetSpec::with_planted_triple(24, 512, [2, 9, 17], 7);
        let data = spec.generate();
        let res = crate::detect(&data.genotypes, &data.phenotype);
        let best = res.best().unwrap();
        let t = best.triple;
        assert!(data
            .truth
            .unwrap()
            .matches(&[t.0 as usize, t.1 as usize, t.2 as usize]));
    }
}
