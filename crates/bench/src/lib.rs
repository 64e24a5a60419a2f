//! # bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`); timing of
//! the scanner and the job service lives in the repository's
//! `perfbench/` harness. This library holds the shared plumbing:
//! workload construction, host-scaled measurement, and text-table
//! rendering.
//!
//! Paper-scale inputs (up to 40 000 SNPs) are quadrillions of
//! combination-samples; the measured harnesses default to scaled-down SNP
//! counts and report throughput in the paper's size-stable unit
//! (combinations × samples / s). Every binary accepts `--full` style
//! overrides where that is practical.

#![forbid(unsafe_code)]

use bitgenome::{GenotypeMatrix, Phenotype};
use datagen::DatasetSpec;
use epi_core::scan::{scan, ScanConfig, ScanResult, Version};

/// Deterministic noise workload for measurements.
pub fn workload(m: usize, n: usize, seed: u64) -> (GenotypeMatrix, Phenotype) {
    let d = DatasetSpec::noise(m, n, seed).generate();
    (d.genotypes, d.phenotype)
}

/// Run one version with default config and return the result.
pub fn run_version(
    g: &GenotypeMatrix,
    p: &Phenotype,
    version: Version,
    threads: usize,
) -> ScanResult {
    let mut cfg = ScanConfig::new(version);
    cfg.threads = threads;
    scan(g, p, &cfg)
}

/// Simple fixed-width text table.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with per-column widths.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(out.len().saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Parse `key=value` style CLI overrides (e.g. `snps=512 samples=4096`).
pub fn arg_usize(args: &[String], key: &str, default: usize) -> usize {
    args.iter()
        .find_map(|a| a.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["dev", "value"]);
        t.row(vec!["CI1", "1.0"]);
        t.row(vec!["longer-name", "42.123"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = vec!["snps=128".into(), "junk".into()];
        assert_eq!(arg_usize(&args, "snps", 64), 128);
        assert_eq!(arg_usize(&args, "samples", 1024), 1024);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn workload_is_deterministic() {
        let (g1, p1) = workload(8, 32, 5);
        let (g2, p2) = workload(8, 32, 5);
        assert_eq!(g1, g2);
        assert_eq!(p1, p2);
    }
}
