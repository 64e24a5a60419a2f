//! Result checking: every timed operation's top-K must equal a reference
//! computed at set-up through a different code path, bit for bit.

use epi_core::scan::{ScanConfig, Version};
use epi_core::shard::{scan_shard_split, ShardPlan};
use epi_core::Candidate;

/// Candidates every checked operation asks for.
pub const TOP_K: usize = 10;

/// Prefix of every mismatch message, so failures can be told apart from
/// wrong results.
pub const WRONG: &str = "wrong result";

/// Compare a top-K against its reference: same length, same triples in
/// the same order, and scores equal under `f64::to_bits`.
pub fn check_top(got: &[Candidate], want: &[Candidate]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{WRONG}: top-K has {} candidates, reference {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.triple != w.triple || g.score.to_bits() != w.score.to_bits() {
            return Err(format!(
                "{WRONG}: candidate {i} is {:?} {:#018x}, reference {:?} {:#018x}",
                g.triple,
                g.score.to_bits(),
                w.triple,
                w.score.to_bits()
            ));
        }
    }
    Ok(())
}

/// Configuration of the reference path: the paper's V4 kernel, which
/// shares no cache or traversal code with the V5 paths under test.
pub fn reference_config(simd: bitgenome::SimdLevel, threads: usize) -> ScanConfig {
    let mut cfg = ScanConfig::new(Version::V4);
    cfg.top_k = TOP_K;
    cfg.threads = threads;
    cfg.simd = Some(simd);
    cfg
}

/// Reference top-K of a whole-cohort job: a monolithic V4 scan.
pub fn reference_full(
    data: &datagen::Dataset,
    simd: bitgenome::SimdLevel,
    threads: usize,
) -> Vec<Candidate> {
    epi_core::scan(
        &data.genotypes,
        &data.phenotype,
        &reference_config(simd, threads),
    )
    .top
}

/// Reference top-K of a job owning only `shards` of the plan that
/// `plan_shards` shards make: V4 shard scans over the owned shards.
pub fn reference_shards(
    data: &datagen::Dataset,
    simd: bitgenome::SimdLevel,
    plan_shards: u64,
    shards: &[u64],
) -> Vec<Candidate> {
    let ds = bitgenome::SplitDataset::encode(&data.genotypes, &data.phenotype);
    let plan = ShardPlan::triples(data.num_snps(), plan_shards);
    let cfg = reference_config(simd, 1);
    let mut top = epi_core::TopK::new(TOP_K);
    for &s in shards {
        top.merge(scan_shard_split(&ds, &cfg, plan.range(s)));
    }
    top.into_sorted()
}

/// A copy of `reference` with the lowest bit of its best score flipped —
/// what the start-up self-check feeds the checker to prove it fires.
pub fn corrupted(reference: &[Candidate]) -> Vec<Candidate> {
    let mut bad = reference.to_vec();
    if let Some(c) = bad.first_mut() {
        c.score = f64::from_bits(c.score.to_bits() ^ 1);
    }
    bad
}

/// Start-up self-check: the reference must pass against itself and a
/// corrupted reference must make the check fire.
pub fn self_check(reference: &[Candidate]) -> Result<(), String> {
    if reference.len() < TOP_K {
        return Err(format!(
            "reference has {} candidates, need at least {TOP_K}",
            reference.len()
        ));
    }
    check_top(reference, reference)?;
    match check_top(reference, &corrupted(reference)) {
        Err(_) => Ok(()),
        Ok(()) => Err("result check accepted a corrupted reference".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::DatasetSpec;

    #[test]
    fn v5_paths_match_the_v4_reference_and_corruption_fires() {
        let data = DatasetSpec::noise(20, 640, 3).generate();
        let simd = bitgenome::SimdLevel::detect();
        let reference = reference_full(&data, simd, 1);
        assert_eq!(reference.len(), TOP_K);
        self_check(&reference).unwrap();

        let mut v5 = ScanConfig::new(Version::V5);
        v5.top_k = TOP_K;
        v5.threads = 1;
        let got = epi_core::scan(&data.genotypes, &data.phenotype, &v5).top;
        check_top(&got, &reference).unwrap();
        assert!(check_top(&got, &corrupted(&reference)).is_err());
        // a reordered or truncated top-K is caught too
        let mut swapped = reference.clone();
        swapped.swap(0, 1);
        assert!(check_top(&got, &swapped).is_err());
        assert!(check_top(&got[..TOP_K - 1], &reference).is_err());
    }

    #[test]
    fn shard_reference_matches_an_owned_shard_job() {
        let data = DatasetSpec::noise(24, 512, 5).generate();
        let simd = bitgenome::SimdLevel::detect();
        let want = reference_shards(&data, simd, 16, &[3, 11]);
        let ds = bitgenome::SplitDataset::encode(&data.genotypes, &data.phenotype);
        let plan = ShardPlan::triples(24, 16);
        let mut v5 = ScanConfig::new(Version::V5);
        v5.top_k = TOP_K;
        let mut top = epi_core::TopK::new(TOP_K);
        for s in [3, 11] {
            top.merge(scan_shard_split(&ds, &v5, plan.range(s)));
        }
        check_top(&top.into_sorted(), &want).unwrap();
    }

    #[test]
    fn self_check_rejects_a_short_reference() {
        assert!(self_check(&[]).is_err());
    }
}
