//! Property-based invariants of the bit-packed substrate.

use bitgenome::layout::{RowMajorPlanes, SnpLayout, TiledPlanes, TransposedPlanes};
use bitgenome::word::{get_bit, set_bit, tail_mask};
use bitgenome::{
    words_for, ClassPlanes, DataError, GenotypeMatrix, Phenotype, SplitDataset, UnsplitDataset,
    Word, CASE, CTRL, WORD_BITS,
};
use proptest::prelude::*;

// The reference oracle: the one-bit-at-a-time encoders the word packer
// replaced. Every packed plane must equal theirs word for word.

/// `[snp][g in {0,1}][word]` planes of the samples `keep` selects, and
/// their padding-bit count.
fn oracle_class(g: &GenotypeMatrix, keep: &[bool]) -> (Vec<Word>, u32) {
    let kept: Vec<usize> = (0..keep.len()).filter(|&j| keep[j]).collect();
    let words = words_for(kept.len());
    let mut data = vec![0 as Word; g.num_snps() * 2 * words];
    for snp in 0..g.num_snps() {
        let row = g.snp(snp);
        let base = snp * 2 * words;
        for (bit, &j) in kept.iter().enumerate() {
            match row[j] {
                0 => set_bit(&mut data[base..base + words], bit),
                1 => set_bit(&mut data[base + words..base + 2 * words], bit),
                _ => {} // genotype 2 is implicit
            }
        }
    }
    (data, (words * WORD_BITS - kept.len()) as u32)
}

/// `[snp][g in {0,1,2}][word]` planes over every sample.
fn oracle_unsplit(g: &GenotypeMatrix) -> Vec<Word> {
    let words = words_for(g.num_samples());
    let mut data = vec![0 as Word; g.num_snps() * 3 * words];
    for snp in 0..g.num_snps() {
        let base = snp * 3 * words;
        for (j, &gt) in g.snp(snp).iter().enumerate() {
            let plane = base + gt as usize * words;
            set_bit(&mut data[plane..plane + words], j);
        }
    }
    data
}

fn assert_encoders_match_oracle(g: &GenotypeMatrix, p: &Phenotype) {
    let n = g.num_samples();
    let split = SplitDataset::encode(g, p);
    for (class, keep) in [(CTRL, p.control_mask()), (CASE, p.case_mask())] {
        let (words, pad) = oracle_class(g, &keep);
        let cp = split.class(class);
        assert_eq!(cp.raw(), &words[..], "class {class} planes, n = {n}");
        assert_eq!(cp.pad_bits(), pad, "class {class} padding, n = {n}");
    }
    let unsplit = UnsplitDataset::encode(g, p);
    let unsplit = &unsplit;
    let planes: Vec<Word> = (0..g.num_snps())
        .flat_map(|snp| (0..3).flat_map(move |gt| unsplit.plane(snp, gt).to_vec()))
        .collect();
    assert_eq!(planes, oracle_unsplit(g), "unsplit planes, n = {n}");
}

/// Every `n` in 1..=300 (below, at and across the 64-sample word
/// boundaries), with a mixed row, an all-0 row and an all-2 row, under
/// mixed labels, all cases (an empty control class) and all controls.
#[test]
fn packed_encoders_match_the_oracle_at_every_sample_count() {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    for n in 1..=300 {
        let mut data: Vec<u8> = (0..n).map(|_| (next() % 3) as u8).collect();
        data.extend(std::iter::repeat_n(0, n));
        data.extend(std::iter::repeat_n(2, n));
        let g = GenotypeMatrix::from_raw(3, n, data);
        let mixed: Vec<u8> = (0..n).map(|_| (next() % 2) as u8).collect();
        for labels in [mixed, vec![1; n], vec![0; n]] {
            assert_encoders_match_oracle(&g, &Phenotype::from_labels(labels));
        }
    }
}

fn matrix_strategy() -> impl Strategy<Value = GenotypeMatrix> {
    (1usize..=10, 1usize..=200).prop_flat_map(|(m, n)| {
        prop::collection::vec(0u8..=2, m * n)
            .prop_map(move |data| GenotypeMatrix::from_raw(m, n, data))
    })
}

fn labelled_strategy() -> impl Strategy<Value = (GenotypeMatrix, Phenotype)> {
    matrix_strategy().prop_flat_map(|g| {
        let n = g.num_samples();
        prop::collection::vec(0u8..=1, n)
            .prop_map(move |labels| (g.clone(), Phenotype::from_labels(labels)))
    })
}

/// Up to 8 SNPs × 300 samples, random genotypes and labels.
fn wide_labelled_strategy() -> impl Strategy<Value = (GenotypeMatrix, Phenotype)> {
    (1usize..=8, 1usize..=300).prop_flat_map(|(m, n)| {
        (
            prop::collection::vec(0u8..=2, m * n),
            prop::collection::vec(0u8..=1, n),
        )
            .prop_map(move |(data, labels)| {
                (
                    GenotypeMatrix::from_raw(m, n, data),
                    Phenotype::from_labels(labels),
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_encoders_match_the_oracle((g, p) in wide_labelled_strategy()) {
        assert_encoders_match_oracle(&g, &p);
    }

    #[test]
    fn try_from_raw_rejects_any_out_of_range_genotype(
        (g, _) in wide_labelled_strategy(),
        at in any::<u64>(),
        bad in 3u8..=255,
    ) {
        let (m, n) = (g.num_snps(), g.num_samples());
        let mut data = g.raw().to_vec();
        let i = (at % data.len() as u64) as usize;
        data[i] = bad;
        prop_assert_eq!(GenotypeMatrix::try_from_raw(m, n, data), Err(DataError::Genotype));
    }

    #[test]
    fn unsplit_encode_decode_roundtrip((g, p) in labelled_strategy()) {
        let enc = UnsplitDataset::encode(&g, &p);
        prop_assert_eq!(enc.decode(), g);
    }

    #[test]
    fn unsplit_planes_partition_every_sample((g, p) in labelled_strategy()) {
        let enc = UnsplitDataset::encode(&g, &p);
        for snp in 0..g.num_snps() {
            for j in 0..g.num_samples() {
                let members: Vec<usize> = (0..3)
                    .filter(|&gt| get_bit(enc.plane(snp, gt), j))
                    .collect();
                prop_assert_eq!(members.len(), 1);
                prop_assert_eq!(members[0] as u8, g.get(snp, j));
            }
        }
    }

    #[test]
    fn padding_bits_always_zero((g, p) in labelled_strategy()) {
        let enc = UnsplitDataset::encode(&g, &p);
        let mask = tail_mask(g.num_samples());
        for snp in 0..g.num_snps() {
            for gt in 0..3 {
                let plane = enc.plane(snp, gt);
                if let Some(&last) = plane.last() {
                    prop_assert_eq!(last & !mask, 0);
                }
            }
        }
        if let Some(&last) = enc.phenotype().last() {
            prop_assert_eq!(last & !mask, 0);
        }
    }

    #[test]
    fn split_preserves_per_class_genotype_counts((g, p) in labelled_strategy()) {
        let split = SplitDataset::encode(&g, &p);
        for snp in 0..g.num_snps() {
            for (class, keep) in [(0usize, p.control_mask()), (1, p.case_mask())] {
                let mut want = [0u32; 3];
                for j in 0..g.num_samples() {
                    if keep[j] {
                        want[g.get(snp, j) as usize] += 1;
                    }
                }
                let cp = split.class(class);
                let count = |gt: usize| -> u32 {
                    cp.plane(snp, gt).iter().map(|w| w.count_ones()).sum()
                };
                prop_assert_eq!(count(0), want[0]);
                prop_assert_eq!(count(1), want[1]);
                // genotype 2 via NOR minus padding
                let n2: u32 = cp.plane(snp, 0).iter().zip(cp.plane(snp, 1))
                    .map(|(a, b)| (!(a | b)).count_ones()).sum::<u32>() - cp.pad_bits();
                prop_assert_eq!(n2, want[2]);
            }
        }
    }

    #[test]
    fn all_layouts_load_identically(
        g in matrix_strategy(),
        bs in 1usize..=8,
    ) {
        let keep = vec![true; g.num_samples()];
        let cp = ClassPlanes::encode(&g, &keep);
        let m = g.num_snps();
        let row = RowMajorPlanes::new(&cp, m);
        let tr = TransposedPlanes::from_class(&cp, m);
        let ti = TiledPlanes::from_class(&cp, m, bs);
        for snp in 0..m {
            for gt in 0..2 {
                for w in 0..row.num_words() {
                    let v = row.load(snp, gt, w);
                    prop_assert_eq!(tr.load(snp, gt, w), v);
                    prop_assert_eq!(ti.load(snp, gt, w), v);
                }
            }
        }
    }

    #[test]
    fn layout_addresses_are_injective(g in matrix_strategy(), bs in 1usize..=8) {
        let keep = vec![true; g.num_samples()];
        let cp = ClassPlanes::encode(&g, &keep);
        let m = g.num_snps();
        let ti = TiledPlanes::from_class(&cp, m, bs);
        let mut seen = std::collections::HashSet::new();
        for snp in 0..m {
            for gt in 0..2 {
                for w in 0..ti.num_words() {
                    prop_assert!(seen.insert(ti.address(snp, gt, w)));
                }
            }
        }
    }

    #[test]
    fn popcount_helpers_agree_with_naive(
        a in prop::collection::vec(any::<Word>(), 0..20),
    ) {
        let naive: u64 = a.iter().map(|w| w.count_ones() as u64).sum();
        prop_assert_eq!(bitgenome::popcnt::popcount(&a), naive);
    }

    #[test]
    fn and_counts_partition_by_mask(
        len in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut s = seed;
        let mut next = || { s = s.wrapping_mul(6364136223846793005).wrapping_add(1); s };
        let a: Vec<Word> = (0..len).map(|_| next()).collect();
        let b: Vec<Word> = (0..len).map(|_| next()).collect();
        let c: Vec<Word> = (0..len).map(|_| next()).collect();
        let m: Vec<Word> = (0..len).map(|_| next()).collect();
        let n3 = bitgenome::popcnt::popcount_and3(&a, &b, &c);
        let n4 = bitgenome::popcnt::popcount_and4(&a, &b, &c, &m);
        let n3n = bitgenome::popcnt::popcount_and3_not(&a, &b, &c, &m);
        prop_assert_eq!(n4 + n3n, n3);
        prop_assert!(n3 <= (len * WORD_BITS) as u64);
    }
}
