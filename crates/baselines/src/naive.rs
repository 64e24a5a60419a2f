//! Naive dense-counting baseline (no bit packing).
//!
//! Before BOOST introduced the binarized representation, detectors walked
//! the dense genotype bytes sample-by-sample. This baseline quantifies
//! what binarisation + POPCNT alone are worth (≈ 32–64× fewer inner-loop
//! iterations) independently of the paper's further optimisations.

use bitgenome::{GenotypeMatrix, Phenotype};
use epi_core::combin;
use epi_core::k2::{K2Scorer, Objective};
use epi_core::pool;
use epi_core::result::{Candidate, TopK};
use epi_core::table27::ContingencyTable;
use std::time::{Duration, Instant};

/// Result of a naive dense scan.
#[derive(Clone, Debug)]
pub struct NaiveResult {
    /// Best candidates, lowest K2 first.
    pub top: Vec<Candidate>,
    /// Combinations evaluated.
    pub combos: u64,
    /// Combinations × samples.
    pub elements: u128,
    /// Wall-clock.
    pub elapsed: Duration,
}

impl NaiveResult {
    /// Throughput in Giga elements per second.
    pub fn giga_elements_per_sec(&self) -> f64 {
        self.elements as f64 / self.elapsed.as_secs_f64() / 1e9
    }
}

/// Exhaustive scan with per-sample dense counting.
pub fn naive_scan(
    genotypes: &GenotypeMatrix,
    phenotype: &Phenotype,
    top_k: usize,
    threads: usize,
) -> NaiveResult {
    let m = genotypes.num_snps();
    let n = genotypes.num_samples();
    if m < 3 {
        return NaiveResult {
            top: Vec::new(),
            combos: 0,
            elements: 0,
            elapsed: Duration::ZERO,
        };
    }
    let scorer = K2Scorer::new(n);
    let start = Instant::now();
    let states = pool::run_unit_claims(
        m,
        pool::resolve_threads(threads),
        || TopK::new(top_k),
        |i0, top| {
            for t in combin::triples_with_leading(m, i0) {
                let table = ContingencyTable::from_dense(
                    genotypes,
                    phenotype,
                    (t.0 as usize, t.1 as usize, t.2 as usize),
                );
                top.push(scorer.score(&table), t);
            }
        },
    );
    let elapsed = start.elapsed();
    let mut merged = TopK::new(top_k);
    for s in states {
        merged.merge(s);
    }
    NaiveResult {
        top: merged.into_sorted(),
        combos: combin::num_triples(m),
        elements: combin::num_elements(m, n),
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn naive_matches_optimised_scan() {
        let (g, p) = dataset(10, 96, 5);
        let naive = naive_scan(&g, &p, 4, 2);
        let mut cfg = epi_core::scan::ScanConfig::new(epi_core::scan::Version::V4);
        cfg.top_k = 4;
        let ours = epi_core::scan::scan(&g, &p, &cfg);
        assert_eq!(naive.top, ours.top);
    }

    #[test]
    fn degenerate_input() {
        let (g, p) = dataset(1, 8, 2);
        assert!(naive_scan(&g, &p, 1, 1).top.is_empty());
    }
}
