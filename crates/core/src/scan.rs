//! Full exhaustive-scan drivers.
//!
//! A scan enumerates all `C(M,3)` SNP triples, builds each contingency
//! table with the selected approach (V1–V5), scores it, and returns the
//! top-K lowest-scoring triples. Parallelisation follows §IV-A: workers
//! fetch dynamically sized tasks from a shared pool, keep results local,
//! and a final reduction merges the per-thread collections.

use crate::block::BlockParams;
use crate::combin;
use crate::k2::{K2Scorer, MutualInformation, Objective};
use crate::pool::{self, PoolCacheStats};
use crate::result::{Candidate, TopK, Triple};
use crate::simd::SimdLevel;
use crate::table27::{ContingencyTable, CELLS};
use crate::versions::{blocked::BlockedScanner, v1, v2, V5Scratch};
use bitgenome::{GenotypeMatrix, Phenotype, SplitDataset, UnsplitDataset};
use devices::CacheGeometry;
use std::time::{Duration, Instant};

/// Which CPU approach to run (V1–V4 from the paper, V5 ours).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Version {
    /// Naive: 3 planes + phenotype stream (162 ops/word).
    V1,
    /// Phenotype split + NOR-inferred genotype 2 (57 ops/word).
    V2,
    /// V2 + L1 cache blocking.
    V3,
    /// V3 + SIMD vectorisation (runtime dispatch).
    V4,
    /// V4 + pair-prefix caching and subtraction-derived genotype-2 cells
    /// (18 of 27 popcounts, pair work amortised over `B_S` third SNPs —
    /// and, via the shared [`crate::prefixcache`] layer, across the
    /// consecutive block triples / rank-order triples that share their
    /// leading pair).
    V5,
}

impl Version {
    /// All five, in order.
    pub const ALL: [Version; 5] = [
        Version::V1,
        Version::V2,
        Version::V3,
        Version::V4,
        Version::V5,
    ];

    /// Paper-style name.
    pub const fn name(self) -> &'static str {
        match self {
            Version::V1 => "V1",
            Version::V2 => "V2",
            Version::V3 => "V3",
            Version::V4 => "V4",
            Version::V5 => "V5",
        }
    }
}

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Scoring objective selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ObjectiveKind {
    /// Bayesian K2 score (the paper's objective, Eq. 1).
    #[default]
    K2,
    /// Negated mutual information.
    NegMutualInformation,
}

/// Scan configuration.
#[derive(Clone, Debug)]
pub struct ScanConfig {
    /// Approach to run.
    pub version: Version,
    /// Worker threads; `0` = all available cores.
    pub threads: usize,
    /// Number of best candidates to retain.
    pub top_k: usize,
    /// Tiling parameters for V3–V5 (`None` = paper policy for the
    /// detected host L1 at the detected vector width; 32 KiB/8-way when
    /// detection fails).
    pub block: Option<BlockParams>,
    /// SIMD tier for V4/V5 (`None` = best available).
    pub simd: Option<SimdLevel>,
    /// Objective function.
    pub objective: ObjectiveKind,
}

impl ScanConfig {
    /// Default configuration for one approach.
    pub fn new(version: Version) -> Self {
        Self {
            version,
            threads: 0,
            top_k: 1,
            block: None,
            simd: None,
            objective: ObjectiveKind::K2,
        }
    }

    /// Effective SIMD tier: V4/V5 use the configured/detected tier, V1–V3
    /// are scalar by definition.
    pub fn effective_simd(&self) -> SimdLevel {
        match self.version {
            Version::V4 | Version::V5 => self.simd.unwrap_or_else(SimdLevel::detect),
            _ => SimdLevel::Scalar,
        }
    }

    /// Effective tiling parameters for the blocked approaches, derived
    /// from the *detected* host L1 geometry (paper default 32 KiB/8-way
    /// when detection is unavailable). V5 budgets its pair-stream cache
    /// and pair-total tables alongside the frequency tables and data
    /// block; tiling never changes results, only speed.
    pub fn effective_block(&self) -> BlockParams {
        self.block.unwrap_or_else(|| {
            let bits = self.effective_simd().vector_bits();
            match self.version {
                Version::V5 => BlockParams::paper_policy_v5(host_l1(), bits),
                _ => BlockParams::paper_policy(host_l1(), bits),
            }
        })
    }
}

/// Host L1d geometry, detected once per process; falls back to the
/// paper's 32 KiB/8-way assumption (the pre-detection hardcoded value).
fn host_l1() -> &'static CacheGeometry {
    static L1: std::sync::OnceLock<CacheGeometry> = std::sync::OnceLock::new();
    L1.get_or_init(|| devices::detect_l1d().unwrap_or(CacheGeometry::kib(32, 8)))
}

/// Outcome of a scan.
#[derive(Clone, Debug)]
pub struct ScanResult {
    /// Best candidates, lowest score first.
    pub top: Vec<Candidate>,
    /// Combinations evaluated.
    pub combos: u64,
    /// The paper's element count: combinations × samples.
    pub elements: u128,
    /// Kernel wall-clock time (excludes encoding).
    pub elapsed: Duration,
}

impl ScanResult {
    /// The single best candidate.
    pub fn best(&self) -> Option<Candidate> {
        self.top.first().copied()
    }

    /// Throughput in elements (combinations × samples) per second.
    pub fn elements_per_sec(&self) -> f64 {
        self.elements as f64 / self.elapsed.as_secs_f64()
    }

    /// Throughput in the paper's reporting unit: Giga combinations ×
    /// samples per second.
    pub fn giga_elements_per_sec(&self) -> f64 {
        self.elements_per_sec() / 1e9
    }
}

fn empty_result() -> ScanResult {
    ScanResult {
        top: Vec::new(),
        combos: 0,
        elements: 0,
        elapsed: Duration::ZERO,
    }
}

/// Run a full scan on dense inputs: encodes with the layout the approach
/// needs, then dispatches. Encoding time is excluded from
/// [`ScanResult::elapsed`].
///
/// ```
/// use bitgenome::{GenotypeMatrix, Phenotype};
/// use epi_core::scan::{scan, ScanConfig, Version};
///
/// // 4 SNPs x 4 samples: SNP genotypes + case/control labels
/// let g = GenotypeMatrix::from_raw(4, 4, vec![
///     0, 1, 2, 0,
///     1, 1, 0, 2,
///     2, 0, 1, 1,
///     0, 0, 2, 1,
/// ]);
/// let p = Phenotype::from_labels(vec![0, 1, 0, 1]);
/// let result = scan(&g, &p, &ScanConfig::new(Version::V4));
/// assert_eq!(result.combos, 4); // C(4,3)
/// let best = result.best().unwrap();
/// assert!(best.triple.0 < best.triple.1 && best.triple.1 < best.triple.2);
/// ```
pub fn scan(genotypes: &GenotypeMatrix, phenotype: &Phenotype, cfg: &ScanConfig) -> ScanResult {
    match cfg.version {
        Version::V1 => {
            let ds = UnsplitDataset::encode(genotypes, phenotype);
            scan_unsplit(&ds, cfg)
        }
        _ => {
            let ds = SplitDataset::encode(genotypes, phenotype);
            scan_split(&ds, cfg)
        }
    }
}

/// V1 scan over a pre-encoded unsplit dataset.
pub fn scan_unsplit(ds: &UnsplitDataset, cfg: &ScanConfig) -> ScanResult {
    assert_eq!(cfg.version, Version::V1, "unsplit layout is V1-only");
    let m = ds.num_snps();
    let n = ds.num_samples();
    if m < 3 {
        return empty_result();
    }
    let scorer = build_objective(cfg, n);
    let start = Instant::now();
    let states = pool::run_unit_claims(
        m,
        pool::resolve_threads(cfg.threads),
        || TopK::new(cfg.top_k),
        |i0, top: &mut TopK| {
            for t in combin::triples_with_leading(m, i0) {
                let table = v1::table_for_triple(ds, t);
                top.push(scorer.score(&table), t);
            }
        },
    );
    finish(states, m, n, start, cfg)
}

/// V2–V5 scan over a pre-encoded split dataset.
pub fn scan_split(ds: &SplitDataset, cfg: &ScanConfig) -> ScanResult {
    scan_split_inner(ds, cfg, None).0
}

/// [`scan_split`] at an **exact** worker count, bypassing the
/// [`pool::resolve_threads`] host clamp (a locality measurement may
/// oversubscribe a small host on purpose), that also returns the
/// aggregated per-worker V5 cross-pair cache statistics (`None` for
/// V2–V4, which carry no cross-task cache). Results are bit-identical
/// at any worker count; only throughput and cache statistics move.
pub fn scan_split_with_workers(
    ds: &SplitDataset,
    cfg: &ScanConfig,
    workers: usize,
) -> (ScanResult, Option<PoolCacheStats>) {
    scan_split_inner(ds, cfg, Some(workers.max(1)))
}

fn scan_split_inner(
    ds: &SplitDataset,
    cfg: &ScanConfig,
    workers: Option<usize>,
) -> (ScanResult, Option<PoolCacheStats>) {
    assert_ne!(cfg.version, Version::V1, "split layout is for V2-V5");
    let m = ds.num_snps();
    let n = ds.num_samples();
    if m < 3 {
        return (empty_result(), None);
    }
    let scorer = build_objective(cfg, n);
    // Both the claim plan and the concurrency-honest cross-pair budget
    // depend on the worker count, so resolve it up front.
    let w = workers.unwrap_or_else(|| pool::resolve_threads(cfg.threads));

    match cfg.version {
        Version::V2 => {
            let start = Instant::now();
            let task = |i0: usize, top: &mut TopK| {
                for t in combin::triples_with_leading(m, i0) {
                    let table = v2::table_for_triple(ds, t);
                    top.push(scorer.score(&table), t);
                }
            };
            // leading-index tasks have no run structure: claim task-by-task
            let states = pool::run_unit_claims(m, w, || TopK::new(cfg.top_k), task);
            (finish(states, m, n, start, cfg), None)
        }
        _ => {
            let scanner = BlockedScanner::new(ds, cfg.effective_block(), cfg.effective_simd())
                .with_cross_pair_budget(BlockParams::with_detected_budget_for_workers(w));
            let tasks = scanner.tasks();
            let k2_fast = match cfg.objective {
                ObjectiveKind::K2 => Some(K2Scorer::new(n)),
                ObjectiveKind::NegMutualInformation => None,
            };
            let score = |ctrl: &[u32; CELLS], case: &[u32; CELLS]| match &k2_fast {
                Some(k2) => k2.score_cells(ctrl, case),
                None => scorer.score(&ContingencyTable::from_counts(*ctrl, *case)),
            };
            let start = Instant::now();
            let (tops, stats) = match cfg.version {
                Version::V5 => {
                    let states = drive_blocked(
                        &scanner,
                        &tasks,
                        cfg,
                        w,
                        &score,
                        V5Scratch::new,
                        |sc, bt, s, emit| {
                            sc.scan_block_triple_v5(bt, s, &mut |t, a, b| emit(t, a, b))
                        },
                    );
                    let stats = PoolCacheStats {
                        per_worker: states
                            .iter()
                            .map(|(_, s)| (s.block_pair_hits(), s.block_pair_misses()))
                            .collect(),
                    };
                    (states.into_iter().map(|(t, _)| t).collect(), Some(stats))
                }
                _ => {
                    let states = drive_blocked(
                        &scanner,
                        &tasks,
                        cfg,
                        w,
                        &score,
                        Vec::new,
                        |sc, bt, s, emit| sc.scan_block_triple(bt, s, &mut |t, a, b| emit(t, a, b)),
                    );
                    (states.into_iter().map(|(t, _)| t).collect(), None)
                }
            };
            (finish(tops, m, n, start, cfg), stats)
        }
    }
}

/// Per-combination emission callback of the blocked kernels.
type EmitFn<'a> = &'a mut dyn FnMut(Triple, &[u32; CELLS], &[u32; CELLS]);

/// Lengths of the consecutive task runs sharing a `(b0, b1)` block pair
/// in the rank-order block-triple sequence — the run structure the
/// locality-aware scheduler claims whole.
fn block_pair_run_lens(tasks: &[(usize, usize, usize)]) -> Vec<usize> {
    let mut runs = Vec::new();
    let mut cur: Option<(usize, usize)> = None;
    for &(b0, b1, _) in tasks {
        if cur == Some((b0, b1)) {
            *runs.last_mut().expect("run open") += 1;
        } else {
            cur = Some((b0, b1));
            runs.push(1);
        }
    }
    runs
}

/// Shared driver of the blocked arms (V3/V4 and V5): distributes block
/// triples over `workers` workers, scoring each emitted table into a
/// per-worker top-K, and returns every worker's final `(TopK, scratch)`
/// so callers can harvest cache statistics from the scratch. Only the
/// scratch type and the kernel invocation differ between versions, so
/// both are closure parameters.
///
/// Workers claim whole `(b0, b1)` runs ([`pool::plan_claims`]), which
/// is what keeps each worker's V5 block-pair cache hot across the `b2`
/// sweep.
fn drive_blocked<S, MS, K>(
    scanner: &BlockedScanner<'_>,
    tasks: &[(usize, usize, usize)],
    cfg: &ScanConfig,
    workers: usize,
    score: &(impl Fn(&[u32; CELLS], &[u32; CELLS]) -> f64 + Sync),
    make_scratch: MS,
    kernel: K,
) -> Vec<(TopK, S)>
where
    S: Send,
    MS: Fn() -> S + Sync + Send,
    K: Fn(&BlockedScanner<'_>, (usize, usize, usize), &mut S, EmitFn<'_>) + Sync + Send,
{
    let make = || (TopK::new(cfg.top_k), make_scratch());
    let task = |task: usize, state: &mut (TopK, S)| {
        let (top, scratch) = state;
        kernel(scanner, tasks[task], scratch, &mut |t, ctrl, case| {
            top.push(score(ctrl, case), t)
        });
    };
    let claims = pool::plan_claims(&block_pair_run_lens(tasks), workers);
    pool::run_claims(&claims, workers, make, task)
}

pub(crate) fn build_objective(cfg: &ScanConfig, n: usize) -> Box<dyn Objective> {
    match cfg.objective {
        ObjectiveKind::K2 => Box::new(K2Scorer::new(n)),
        ObjectiveKind::NegMutualInformation => Box::new(MutualInformation),
    }
}

fn finish(states: Vec<TopK>, m: usize, n: usize, start: Instant, cfg: &ScanConfig) -> ScanResult {
    let elapsed = start.elapsed();
    let mut merged = TopK::new(cfg.top_k);
    for s in states {
        merged.merge(s);
    }
    ScanResult {
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

    /// Exhaustive serial top-`k` reference using the dense-table
    /// construction, in rank order on one thread.
    fn reference_top(g: &GenotypeMatrix, p: &Phenotype, k: usize) -> Vec<Candidate> {
        let scorer = K2Scorer::new(p.len());
        let mut top = TopK::new(k);
        for t in combin::TripleIter::new(g.num_snps()) {
            let table =
                ContingencyTable::from_dense(g, p, (t.0 as usize, t.1 as usize, t.2 as usize));
            top.push(scorer.score(&table), t);
        }
        top.into_sorted()
    }

    #[test]
    fn all_versions_find_the_same_best_triple() {
        let (g, p) = dataset(14, 130, 99);
        let want = reference_top(&g, &p, 1)[0];
        for version in Version::ALL {
            let cfg = ScanConfig::new(version);
            let res = scan(&g, &p, &cfg);
            let got = res.best().unwrap();
            assert_eq!(got.triple, want.triple, "{version}");
            assert!((got.score - want.score).abs() < 1e-9, "{version}");
            assert_eq!(res.combos, combin::num_triples(14));
        }
    }

    #[test]
    fn all_schedulers_agree() {
        // The run-aware pool, the one scheduler, reproduces the serial
        // rank-order enumeration's top-K.
        let (g, p) = dataset(12, 100, 7);
        let want = reference_top(&g, &p, 5);
        for version in [Version::V4, Version::V5] {
            let mut cfg = ScanConfig::new(version);
            cfg.top_k = 5;
            cfg.threads = 3;
            let res = scan(&g, &p, &cfg);
            assert_eq!(res.top.len(), want.len(), "{version}");
            for (got, want) in res.top.iter().zip(&want) {
                assert_eq!(got.triple, want.triple, "{version}");
                assert!((got.score - want.score).abs() < 1e-9, "{version}");
            }
        }
    }

    #[test]
    fn run_aware_scheduler_keeps_the_cross_pair_cache_hot() {
        // The whole point of run-aware claiming: at any worker count the
        // pool-wide V5 cross-pair hit rate stays at the sequential level
        // (misses bounded by the claim count).
        let (g, p) = dataset(14, 120, 31);
        let ds = SplitDataset::encode(&g, &p);
        let mut cfg = ScanConfig::new(Version::V5);
        cfg.top_k = 4;
        cfg.block = Some(BlockParams { bs: 3, bp: 64 });

        let (ref_res, ref_stats) = scan_split_with_workers(&ds, &cfg, 1);
        let ref_stats = ref_stats.expect("V5 reports cross-pair stats");
        let total = ref_stats.hits() + ref_stats.misses();
        assert!(ref_stats.hit_rate() > 0.5, "{ref_stats:?}");

        for workers in [2usize, 3, 7] {
            let (res, stats) = scan_split_with_workers(&ds, &cfg, workers);
            assert_eq!(res.top, ref_res.top, "workers={workers}");
            let stats = stats.unwrap();
            assert_eq!(stats.hits() + stats.misses(), total, "workers={workers}");
            // run-aware claims bound the misses: within 2x of sequential
            // (tail-splitting may add a refill per split piece)
            assert!(
                stats.misses() <= 2 * ref_stats.misses(),
                "workers={workers}: {stats:?} vs sequential {ref_stats:?}"
            );
        }

        // The locality gate at >= 4 workers, on a 24-SNP panel at
        // B_S = 5 whose cache fits the fixed 4 MiB floor: the
        // worker-aware budget only widens from the floor, so the cache is
        // admitted at every worker count on every host geometry and the
        // rates below are structural, not timing-based.
        let (g, p) = dataset(24, 6144, 47);
        let ds = SplitDataset::encode(&g, &p);
        let params = BlockParams { bs: 5, bp: 64 };
        let class_words = ds.controls().num_words() + ds.cases().num_words();
        assert!(params.cross_pair_cache_enabled(class_words, crate::block::CROSS_PAIR_CACHE_BUDGET));
        cfg.block = Some(params);
        let (res1, one) = scan_split_with_workers(&ds, &cfg, 1);
        let one = one.unwrap().hit_rate();
        // a disabled cache would pass the ratio vacuously at 0.0 == 0.0
        assert!(one > 0.3, "cross-pair cache never engaged: {one}");
        for workers in [4usize, 8] {
            let (res, stats) = scan_split_with_workers(&ds, &cfg, workers);
            assert_eq!(res.top, res1.top, "workers={workers}");
            let rate = stats.unwrap().hit_rate();
            assert!(
                rate >= 0.8 * one,
                "workers={workers}: run-aware locality collapsed, {one} -> {rate}"
            );
        }
    }

    #[test]
    fn v2_and_v4_report_no_cross_pair_stats() {
        let (g, p) = dataset(9, 80, 3);
        let ds = SplitDataset::encode(&g, &p);
        for version in [Version::V2, Version::V4] {
            let cfg = ScanConfig::new(version);
            let (_, stats) = scan_split_with_workers(&ds, &cfg, pool::resolve_threads(cfg.threads));
            assert!(stats.is_none(), "{version}");
        }
    }

    #[test]
    fn top_k_is_sorted_and_bounded() {
        let (g, p) = dataset(10, 80, 3);
        let mut cfg = ScanConfig::new(Version::V2);
        cfg.top_k = 7;
        let res = scan(&g, &p, &cfg);
        assert_eq!(res.top.len(), 7);
        for w in res.top.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let (g, p) = dataset(11, 90, 21);
        let mut expected = None;
        for threads in [1usize, 2, 5, 0] {
            let mut cfg = ScanConfig::new(Version::V3);
            cfg.threads = threads;
            cfg.top_k = 3;
            let res = scan(&g, &p, &cfg);
            match &expected {
                None => expected = Some(res.top),
                Some(want) => assert_eq!(&res.top, want, "threads={threads}"),
            }
        }
    }

    #[test]
    fn block_params_do_not_change_results() {
        let (g, p) = dataset(13, 150, 55);
        let mut expected = None;
        for (bs, bp) in [(1, 64), (2, 64), (5, 128), (5, 400), (8, 64)] {
            let mut cfg = ScanConfig::new(Version::V4);
            cfg.block = Some(BlockParams { bs, bp });
            cfg.top_k = 4;
            let res = scan(&g, &p, &cfg);
            match &expected {
                None => expected = Some(res.top),
                Some(want) => assert_eq!(&res.top, want, "bs={bs} bp={bp}"),
            }
        }
    }

    #[test]
    fn mi_objective_runs_and_differs_from_k2() {
        let (g, p) = dataset(9, 70, 17);
        let mut cfg = ScanConfig::new(Version::V4);
        cfg.objective = ObjectiveKind::NegMutualInformation;
        let mi = scan(&g, &p, &cfg);
        cfg.objective = ObjectiveKind::K2;
        let k2 = scan(&g, &p, &cfg);
        assert!(mi.best().is_some() && k2.best().is_some());
        // scores live on different scales
        assert_ne!(mi.best().unwrap().score, k2.best().unwrap().score);
    }

    #[test]
    fn tiny_inputs_yield_empty_results() {
        let (g, p) = dataset(2, 10, 1);
        let res = scan(&g, &p, &ScanConfig::new(Version::V4));
        assert!(res.top.is_empty());
        assert_eq!(res.combos, 0);
    }

    #[test]
    fn elements_accounting() {
        let (g, p) = dataset(8, 50, 2);
        let res = scan(&g, &p, &ScanConfig::new(Version::V2));
        assert_eq!(res.combos, 56);
        assert_eq!(res.elements, 56 * 50);
        assert!(res.elements_per_sec() > 0.0);
    }
}
