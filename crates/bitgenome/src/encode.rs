//! Bit-packed encodings of genotype matrices (paper Fig. 1 and §IV).
//!
//! Two CPU-side encodings are produced from a dense [`GenotypeMatrix`]:
//!
//! * [`UnsplitDataset`] — approach **V1**: three planes per SNP plus a
//!   phenotype bit vector; contingency cells are formed by
//!   `X[gx] & Y[gy] & Z[gz] & (±phenotype)` followed by `POPCNT`.
//! * [`SplitDataset`] — approaches **V2–V4**: the sample set is first
//!   partitioned into controls and cases; only genotype planes 0 and 1 are
//!   stored per class, and plane 2 is reconstructed with `NOR` inside the
//!   kernel. This cuts memory traffic by ≈ 1/3 and removes the phenotype
//!   stream from the hot loop entirely.
//!
//! Both are built by one word-at-a-time packer: it reads eight genotype
//! bytes as a `u64`, gathers bit 0 and bit 1 of each byte into an 8-bit
//! mask with one multiply, and assembles 64 samples' plane words from
//! those masks with plain boolean logic (a genotype `g` is the bit pair
//! `g1 g0`: plane 1 is `g0`, plane 2 is `g1`, plane 0 is `!(g0 | g1)`).
//! A split class first gathers its own samples into a contiguous row.

use crate::matrix::{GenotypeMatrix, Phenotype};
use crate::word::{pad_bits, tail_mask, words_for, Word, WORD_BITS};
use crate::{CASE, CTRL, GENOTYPES};

/// Bit 0 of every byte of a `u64`.
const BYTE_LSBS: u64 = 0x0101_0101_0101_0101;

/// Multiplier moving bit 0 of byte `k` to bit `56 + k`: byte `j` of the
/// constant is `1 << (7 - j)`, and the partial products land on distinct
/// bits, so no carry disturbs the top byte.
const GATHER_LSBS: u64 = 0x0102_0408_1020_4080;

/// Bit `k` of the result is bit 0 of byte `k` of `x` (little-endian).
#[inline(always)]
fn byte_lsbs(x: u64) -> u64 {
    (x & BYTE_LSBS).wrapping_mul(GATHER_LSBS) >> 56
}

/// Planes 0, 1 and 2 of 64 genotype bytes, sample `k` in bit `k`.
#[inline(always)]
fn pack_word(chunk: &[u8; WORD_BITS]) -> [Word; GENOTYPES] {
    let (mut g0, mut g1) = (0, 0);
    for (k, bytes) in chunk.as_chunks::<8>().0.iter().enumerate() {
        let x = u64::from_le_bytes(*bytes);
        g0 |= byte_lsbs(x) << (8 * k);
        g1 |= byte_lsbs(x >> 1) << (8 * k);
    }
    [!(g0 | g1), g0, g1]
}

/// Pack one SNP row into its first `P` genotype planes, stored back to
/// back in `out` (`P × words_for(row.len())` words). Padding bits past
/// the row end are zero in every plane.
fn pack_row<const P: usize>(row: &[u8], out: &mut [Word]) {
    let words = out.len() / P;
    debug_assert_eq!(words, words_for(row.len()));
    let (chunks, tail) = row.as_chunks::<WORD_BITS>();
    let mut put = |w: usize, planes: [Word; GENOTYPES]| {
        for (g, &word) in planes.iter().take(P).enumerate() {
            out[g * words + w] = word;
        }
    };
    for (w, chunk) in chunks.iter().enumerate() {
        put(w, pack_word(chunk));
    }
    if !tail.is_empty() {
        let mut last = [0; WORD_BITS];
        last[..tail.len()].copy_from_slice(tail);
        let mut planes = pack_word(&last);
        // zero bytes past the row read as genotype 0
        planes[0] &= tail_mask(tail.len());
        put(chunks.len(), planes);
    }
}

/// Packed planes for one phenotype class: genotype planes 0 and 1 for each
/// SNP, laid out SNP-major (`[snp][genotype][word]`).
///
/// Plane 2 is deliberately absent — kernels recover it as
/// `!(plane0 | plane1)`, which also turns zero padding bits into phantom
/// genotype-2 samples; [`ClassPlanes::pad_bits`] is the per-class count
/// contingency builders must subtract from the all-(2,2,2) cell.
#[derive(Clone, Debug)]
pub struct ClassPlanes {
    n_samples: usize,
    words: usize,
    /// `[snp][g in {0,1}][word]`, flattened.
    data: Vec<Word>,
}

impl ClassPlanes {
    /// Pack genotype planes 0/1 for all SNPs of `matrix`, restricted to
    /// the samples where `keep` is true.
    ///
    /// # Panics
    /// Panics if `keep.len()` differs from the sample count, or a kept
    /// sample index does not fit in a `u32`.
    pub fn encode(matrix: &GenotypeMatrix, keep: &[bool]) -> Self {
        assert_eq!(keep.len(), matrix.num_samples());
        let kept: Vec<u32> = keep
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k)
            .map(|(j, _)| u32::try_from(j).expect("sample index fits in u32"))
            .collect();
        let n_samples = kept.len();
        let words = words_for(n_samples);
        let mut data = vec![0 as Word; matrix.num_snps() * 2 * words];
        let mut gathered = vec![0u8; n_samples];
        // an empty class has no words, so `data` is empty and `max(1)`
        // only keeps the chunk size legal
        for (snp, out) in data.chunks_exact_mut((2 * words).max(1)).enumerate() {
            let row = matrix.snp(snp);
            for (dst, &j) in gathered.iter_mut().zip(&kept) {
                *dst = row[j as usize];
            }
            pack_row::<2>(&gathered, out);
        }
        Self {
            n_samples,
            words,
            data,
        }
    }

    /// Number of samples in this class.
    #[inline]
    pub fn num_samples(&self) -> usize {
        self.n_samples
    }

    /// Words per plane.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words
    }

    /// Zero padding bits per plane (all of which alias to genotype 2 under
    /// `NOR` reconstruction).
    #[inline]
    pub fn pad_bits(&self) -> u32 {
        pad_bits(self.n_samples)
    }

    /// Genotype plane `g ∈ {0, 1}` of `snp`.
    #[inline]
    pub fn plane(&self, snp: usize, g: usize) -> &[Word] {
        debug_assert!(g < 2, "only genotype planes 0 and 1 are stored");
        let base = (snp * 2 + g) * self.words;
        &self.data[base..base + self.words]
    }

    /// Both planes of `snp` as `(plane0, plane1)`.
    #[inline]
    pub fn planes(&self, snp: usize) -> (&[Word], &[Word]) {
        let base = snp * 2 * self.words;
        let (p0, rest) = self.data[base..base + 2 * self.words].split_at(self.words);
        (p0, rest)
    }

    /// Full backing storage (layout `[snp][g][word]`), e.g. for blocked
    /// kernels that slice sample-word ranges directly.
    #[inline]
    pub fn raw(&self) -> &[Word] {
        &self.data
    }
}

/// Approach-V1 encoding: three genotype planes per SNP over the *whole*
/// sample set, plus a packed phenotype (bit set ⇒ case).
#[derive(Clone, Debug)]
pub struct UnsplitDataset {
    m: usize,
    n: usize,
    words: usize,
    /// `[snp][g in {0,1,2}][word]`, flattened.
    data: Vec<Word>,
    phenotype: Vec<Word>,
    n_cases: usize,
}

impl UnsplitDataset {
    /// Encode a dense matrix and its phenotype.
    pub fn encode(matrix: &GenotypeMatrix, phenotype: &Phenotype) -> Self {
        assert_eq!(matrix.num_samples(), phenotype.len());
        let m = matrix.num_snps();
        let n = matrix.num_samples();
        let words = words_for(n);
        let mut data = vec![0 as Word; m * GENOTYPES * words];
        for (snp, out) in data
            .chunks_exact_mut((GENOTYPES * words).max(1))
            .enumerate()
        {
            pack_row::<GENOTYPES>(matrix.snp(snp), out);
        }
        Self {
            m,
            n,
            words,
            data,
            phenotype: phenotype.to_bits(),
            n_cases: phenotype.num_cases(),
        }
    }

    /// Number of SNPs.
    #[inline]
    pub fn num_snps(&self) -> usize {
        self.m
    }

    /// Number of samples.
    #[inline]
    pub fn num_samples(&self) -> usize {
        self.n
    }

    /// Number of case samples.
    #[inline]
    pub fn num_cases(&self) -> usize {
        self.n_cases
    }

    /// Number of control samples.
    #[inline]
    pub fn num_controls(&self) -> usize {
        self.n - self.n_cases
    }

    /// Words per plane.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words
    }

    /// Genotype plane `g ∈ {0,1,2}` of `snp`.
    #[inline]
    pub fn plane(&self, snp: usize, g: usize) -> &[Word] {
        debug_assert!(g < GENOTYPES);
        let base = (snp * GENOTYPES + g) * self.words;
        &self.data[base..base + self.words]
    }

    /// Packed phenotype bits (set ⇒ case); padding bits are zero.
    #[inline]
    pub fn phenotype(&self) -> &[Word] {
        &self.phenotype
    }

    /// Decode back to a dense matrix (testing / round-trip support).
    pub fn decode(&self) -> GenotypeMatrix {
        let mut out = GenotypeMatrix::zeros(self.m, self.n);
        for snp in 0..self.m {
            for g in 0..GENOTYPES {
                let plane = self.plane(snp, g);
                for j in 0..self.n {
                    if crate::word::get_bit(plane, j) {
                        out.set(snp, j, g as u8);
                    }
                }
            }
        }
        out
    }
}

/// Approach-V2+ encoding: case/control-split two-plane representation.
#[derive(Clone, Debug)]
pub struct SplitDataset {
    m: usize,
    classes: [ClassPlanes; 2],
}

impl SplitDataset {
    /// Encode a dense matrix, splitting samples by phenotype.
    pub fn encode(matrix: &GenotypeMatrix, phenotype: &Phenotype) -> Self {
        assert_eq!(matrix.num_samples(), phenotype.len());
        let ctrl = ClassPlanes::encode(matrix, &phenotype.control_mask());
        let case = ClassPlanes::encode(matrix, &phenotype.case_mask());
        Self {
            m: matrix.num_snps(),
            classes: [ctrl, case],
        }
    }

    /// Number of SNPs.
    #[inline]
    pub fn num_snps(&self) -> usize {
        self.m
    }

    /// Planes for one class (use [`CTRL`] / [`CASE`]).
    #[inline]
    pub fn class(&self, c: usize) -> &ClassPlanes {
        &self.classes[c]
    }

    /// Control-class planes.
    #[inline]
    pub fn controls(&self) -> &ClassPlanes {
        &self.classes[CTRL]
    }

    /// Case-class planes.
    #[inline]
    pub fn cases(&self) -> &ClassPlanes {
        &self.classes[CASE]
    }

    /// Total number of samples across both classes.
    #[inline]
    pub fn num_samples(&self) -> usize {
        self.classes[CTRL].num_samples() + self.classes[CASE].num_samples()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::get_bit;

    fn demo() -> (GenotypeMatrix, Phenotype) {
        // 3 SNPs x 5 samples, mixed genotypes.
        let m = GenotypeMatrix::from_raw(
            3,
            5,
            vec![
                0, 1, 2, 0, 1, //
                2, 2, 0, 1, 0, //
                1, 0, 1, 2, 2,
            ],
        );
        let p = Phenotype::from_labels(vec![0, 1, 0, 1, 1]);
        (m, p)
    }

    #[test]
    fn unsplit_roundtrip() {
        let (m, p) = demo();
        let enc = UnsplitDataset::encode(&m, &p);
        assert_eq!(enc.decode(), m);
    }

    #[test]
    fn unsplit_planes_partition_samples() {
        let (m, p) = demo();
        let enc = UnsplitDataset::encode(&m, &p);
        for snp in 0..3 {
            for j in 0..5 {
                let set: Vec<usize> = (0..3).filter(|&g| get_bit(enc.plane(snp, g), j)).collect();
                assert_eq!(set.len(), 1, "exactly one plane holds each sample");
                assert_eq!(set[0] as u8, m.get(snp, j));
            }
        }
        // padding bits of every plane are zero
        for snp in 0..3 {
            for g in 0..3 {
                let w = enc.plane(snp, g)[0];
                assert_eq!(w >> 5, 0, "padding must be zero");
            }
        }
    }

    #[test]
    fn split_counts_match_dense() {
        let (m, p) = demo();
        let enc = SplitDataset::encode(&m, &p);
        assert_eq!(enc.controls().num_samples(), 2);
        assert_eq!(enc.cases().num_samples(), 3);
        for snp in 0..3 {
            // plane popcounts must equal dense per-class genotype counts
            for (class, mask) in [(CTRL, p.control_mask()), (CASE, p.case_mask())] {
                let mut want = [0u32; 3];
                for j in 0..5 {
                    if mask[j] {
                        want[m.get(snp, j) as usize] += 1;
                    }
                }
                let cp = enc.class(class);
                let n0: u32 = cp.plane(snp, 0).iter().map(|w| w.count_ones()).sum();
                let n1: u32 = cp.plane(snp, 1).iter().map(|w| w.count_ones()).sum();
                assert_eq!(n0, want[0]);
                assert_eq!(n1, want[1]);
                // inferred genotype 2 = NOR minus padding
                let n2: u32 = cp
                    .plane(snp, 0)
                    .iter()
                    .zip(cp.plane(snp, 1))
                    .map(|(a, b)| (!(a | b)).count_ones())
                    .sum::<u32>()
                    - cp.pad_bits();
                assert_eq!(n2, want[2]);
            }
        }
    }

    #[test]
    fn nor_inference_matches_explicit_plane() {
        let (m, p) = demo();
        let unsplit = UnsplitDataset::encode(&m, &p);
        // With no split and full sample set, NOR of planes 0,1 must equal
        // plane 2 on the valid bits.
        for snp in 0..3 {
            let p0 = unsplit.plane(snp, 0);
            let p1 = unsplit.plane(snp, 1);
            let p2 = unsplit.plane(snp, 2);
            let mask = crate::word::tail_mask(unsplit.num_samples());
            for w in 0..unsplit.num_words() {
                let nor = !(p0[w] | p1[w]);
                let valid = if w + 1 == unsplit.num_words() {
                    mask
                } else {
                    Word::MAX
                };
                assert_eq!(nor & valid, p2[w]);
            }
        }
    }

    #[test]
    fn split_pad_bits_accounting() {
        // 70 controls => 2 words, 58 pad bits; 58 cases => 1 word, 6 pad.
        let n = 128;
        let labels: Vec<u8> = (0..n).map(|i| u8::from(i >= 70)).collect();
        let p = Phenotype::from_labels(labels);
        let m = GenotypeMatrix::zeros(2, n);
        let enc = SplitDataset::encode(&m, &p);
        assert_eq!(enc.controls().pad_bits(), 58);
        assert_eq!(enc.cases().pad_bits(), 6);
    }

    #[test]
    fn planes_pair_accessor_consistent() {
        let (m, p) = demo();
        let enc = SplitDataset::encode(&m, &p);
        for snp in 0..3 {
            let (a, b) = enc.cases().planes(snp);
            assert_eq!(a, enc.cases().plane(snp, 0));
            assert_eq!(b, enc.cases().plane(snp, 1));
        }
    }
}
