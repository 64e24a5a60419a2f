//! Dense (unpacked) genotype matrices and phenotype vectors.
//!
//! These are the canonical in-memory form produced by data generators and
//! readers, one byte per genotype or label — the byte layout of the binary
//! dataset file, so a loader reads straight into them. All bit-packed
//! layouts are encoded from them (see [`crate::encode`]); the packed
//! layouts are what the detection kernels actually touch.

use crate::word::{set_bit, words_for, Word};
use std::fmt;

/// Why raw genotype or phenotype bytes were refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataError {
    /// The genotype byte count is not `M × N` (or `M × N` overflows).
    Shape,
    /// A genotype outside `{0, 1, 2}`.
    Genotype,
    /// A phenotype label outside `{0, 1}`.
    Label,
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Shape => "genotype data must be M*N",
            Self::Genotype => "genotype values must be 0, 1 or 2",
            Self::Label => "phenotype must be 0 or 1",
        })
    }
}

impl std::error::Error for DataError {}

/// Largest byte of `bytes` (0 when empty). A branch-free fold, so it
/// vectorises — unlike a short-circuiting `all`/`any` scan.
#[inline]
fn max_byte(bytes: &[u8]) -> u8 {
    bytes.iter().fold(0, |acc, &b| acc.max(b))
}

/// A dense `M × N` genotype matrix: `M` SNPs (rows) by `N` samples
/// (columns), each entry in `{0, 1, 2}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenotypeMatrix {
    m: usize,
    n: usize,
    data: Vec<u8>,
}

impl GenotypeMatrix {
    /// Create a matrix from row-major genotype data, refusing a length
    /// other than `m * n` and any genotype outside `{0, 1, 2}`.
    pub fn try_from_raw(m: usize, n: usize, data: Vec<u8>) -> Result<Self, DataError> {
        if m.checked_mul(n) != Some(data.len()) {
            return Err(DataError::Shape);
        }
        if max_byte(&data) > 2 {
            return Err(DataError::Genotype);
        }
        Ok(Self { m, n, data })
    }

    /// Create a matrix from row-major genotype data.
    ///
    /// # Panics
    /// Panics where [`GenotypeMatrix::try_from_raw`] refuses the data.
    pub fn from_raw(m: usize, n: usize, data: Vec<u8>) -> Self {
        Self::try_from_raw(m, n, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// An all-zero (homozygous major) matrix.
    pub fn zeros(m: usize, n: usize) -> Self {
        Self {
            m,
            n,
            data: vec![0; m * n],
        }
    }

    /// Number of SNPs (rows).
    #[inline]
    pub fn num_snps(&self) -> usize {
        self.m
    }

    /// Number of samples (columns).
    #[inline]
    pub fn num_samples(&self) -> usize {
        self.n
    }

    /// Genotype of `snp` for `sample`.
    #[inline]
    pub fn get(&self, snp: usize, sample: usize) -> u8 {
        debug_assert!(snp < self.m && sample < self.n);
        self.data[snp * self.n + sample]
    }

    /// Set the genotype of `snp` for `sample`.
    ///
    /// # Panics
    /// Panics if `g > 2` or indices are out of range.
    #[inline]
    pub fn set(&mut self, snp: usize, sample: usize, g: u8) {
        assert!(g <= 2, "genotype values must be 0, 1 or 2");
        assert!(snp < self.m && sample < self.n, "index out of range");
        self.data[snp * self.n + sample] = g;
    }

    /// Row view: all genotypes of one SNP.
    #[inline]
    pub fn snp(&self, snp: usize) -> &[u8] {
        &self.data[snp * self.n..(snp + 1) * self.n]
    }

    /// Raw row-major genotype bytes.
    #[inline]
    pub fn raw(&self) -> &[u8] {
        &self.data
    }

    /// Per-genotype counts `[n0, n1, n2]` for one SNP.
    pub fn genotype_counts(&self, snp: usize) -> [usize; 3] {
        let mut c = [0usize; 3];
        for &g in self.snp(snp) {
            c[g as usize] += 1;
        }
        c
    }

    /// Restrict the matrix to the samples for which `keep` is true.
    pub fn select_samples(&self, keep: &[bool]) -> GenotypeMatrix {
        assert_eq!(keep.len(), self.n);
        let kept: Vec<usize> = (0..self.n).filter(|&j| keep[j]).collect();
        let mut data = Vec::with_capacity(self.m * kept.len());
        for i in 0..self.m {
            let row = self.snp(i);
            data.extend(kept.iter().map(|&j| row[j]));
        }
        GenotypeMatrix {
            m: self.m,
            n: kept.len(),
            data,
        }
    }
}

/// Case/control labels for the samples of a [`GenotypeMatrix`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phenotype {
    labels: Vec<u8>,
    n_cases: usize,
}

impl Phenotype {
    /// Create from 0 (control) / 1 (case) labels, refusing any other
    /// value.
    pub fn try_from_labels(labels: Vec<u8>) -> Result<Self, DataError> {
        if max_byte(&labels) > 1 {
            return Err(DataError::Label);
        }
        let n_cases = labels.iter().map(|&p| usize::from(p)).sum();
        Ok(Self { labels, n_cases })
    }

    /// Create from 0 (control) / 1 (case) labels.
    ///
    /// # Panics
    /// Panics if any label is outside `{0, 1}`.
    pub fn from_labels(labels: Vec<u8>) -> Self {
        Self::try_from_labels(labels).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when there are no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of case samples.
    #[inline]
    pub fn num_cases(&self) -> usize {
        self.n_cases
    }

    /// Number of control samples.
    #[inline]
    pub fn num_controls(&self) -> usize {
        self.labels.len() - self.n_cases
    }

    /// Label of one sample (0 = control, 1 = case).
    #[inline]
    pub fn get(&self, sample: usize) -> u8 {
        self.labels[sample]
    }

    /// Raw label slice.
    #[inline]
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// Pack the labels into a bit vector (bit set ⇒ case), zero-padded to
    /// a whole number of [`Word`]s — the phenotype format of approach V1.
    pub fn to_bits(&self) -> Vec<Word> {
        let mut bits = vec![0 as Word; words_for(self.labels.len())];
        for (i, &p) in self.labels.iter().enumerate() {
            if p == 1 {
                set_bit(&mut bits, i);
            }
        }
        bits
    }

    /// Boolean mask selecting the case samples.
    pub fn case_mask(&self) -> Vec<bool> {
        self.labels.iter().map(|&p| p == 1).collect()
    }

    /// Boolean mask selecting the control samples.
    pub fn control_mask(&self) -> Vec<bool> {
        self.labels.iter().map(|&p| p == 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GenotypeMatrix {
        // 2 SNPs x 3 samples
        GenotypeMatrix::from_raw(2, 3, vec![0, 1, 2, 2, 0, 1])
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = GenotypeMatrix::zeros(3, 4);
        m.set(1, 2, 2);
        m.set(2, 3, 1);
        assert_eq!(m.get(1, 2), 2);
        assert_eq!(m.get(2, 3), 1);
        assert_eq!(m.get(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "genotype values")]
    fn rejects_invalid_genotype() {
        GenotypeMatrix::from_raw(1, 1, vec![3]);
    }

    #[test]
    fn try_from_raw_refuses_bad_shape_and_values() {
        assert_eq!(
            GenotypeMatrix::try_from_raw(2, 3, vec![0; 5]),
            Err(DataError::Shape)
        );
        assert_eq!(
            GenotypeMatrix::try_from_raw(usize::MAX, 2, vec![]),
            Err(DataError::Shape)
        );
        let mut data = vec![2; 200];
        data[131] = 3;
        assert_eq!(
            GenotypeMatrix::try_from_raw(2, 100, data),
            Err(DataError::Genotype)
        );
        assert_eq!(
            Phenotype::try_from_labels(vec![0, 1, 2]),
            Err(DataError::Label)
        );
        let p = Phenotype::try_from_labels(vec![1, 0, 1, 1]).unwrap();
        assert_eq!((p.num_cases(), p.num_controls()), (3, 1));
    }

    #[test]
    fn counts_per_snp() {
        let m = tiny();
        assert_eq!(m.genotype_counts(0), [1, 1, 1]);
        assert_eq!(m.genotype_counts(1), [1, 1, 1]);
    }

    #[test]
    fn select_samples_keeps_order() {
        let m = tiny();
        let sub = m.select_samples(&[true, false, true]);
        assert_eq!(sub.num_samples(), 2);
        assert_eq!(sub.snp(0), &[0, 2]);
        assert_eq!(sub.snp(1), &[2, 1]);
    }

    #[test]
    fn phenotype_counts_and_bits() {
        let p = Phenotype::from_labels(vec![0, 1, 1, 0, 1]);
        assert_eq!(p.num_cases(), 3);
        assert_eq!(p.num_controls(), 2);
        let bits = p.to_bits();
        assert_eq!(bits.len(), 1);
        assert_eq!(bits[0], 0b10110);
    }

    #[test]
    fn phenotype_masks_partition() {
        let p = Phenotype::from_labels(vec![0, 1, 0, 1]);
        let cm = p.case_mask();
        let km = p.control_mask();
        for i in 0..4 {
            assert_ne!(cm[i], km[i]);
        }
    }
}
