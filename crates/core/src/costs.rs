//! Analytic per-version operation and traffic counts (§IV-A).
//!
//! The paper reasons about its approaches in units of one packed 32-bit
//! word (32 samples) of one evaluated combination:
//!
//! * **V1** — per word, every one of the 27 cells costs 2 ANDs for
//!   `X&Y&Z`, one AND with the (negated) phenotype per class and one
//!   `POPCNT` per class: 27 × 6 = **162 ops**, reading 9 plane words + 1
//!   phenotype word = **40 B**.
//! * **V2–V4** — per word *per class*: 3 NOR + (1 AND + 1 POPCNT) × 27 =
//!   **57 ops**, reading 6 plane words = **24 B**. Blocking (V3) and
//!   vectorisation (V4) change neither total, which is why their
//!   arithmetic intensity is identical and only their attained
//!   performance moves in the roofline (Fig. 2).
//!
//! These numbers drive the arithmetic-intensity axis of the CARM
//! characterisation and the GPU/CPU analytic timing models.

use crate::scan::Version;

/// Samples per packed 32-bit word, the paper's accounting unit.
pub const SAMPLES_PER_WORD32: f64 = 32.0;

/// Static cost model of one approach, per processed 32-bit word.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VersionCosts {
    /// Total integer ops per word (paper's counting).
    pub ops_per_word: f64,
    /// Of which `POPCNT` instructions.
    pub popcnt_per_word: f64,
    /// Plane/phenotype words loaded per word iteration.
    pub loads_per_word: f64,
    /// Bytes moved per word iteration.
    pub bytes_per_word: f64,
}

impl VersionCosts {
    /// Cost model for an approach.
    pub fn for_version(v: Version) -> Self {
        match v {
            Version::V1 => VersionCosts {
                ops_per_word: 162.0,
                popcnt_per_word: 54.0, // one per cell per class
                loads_per_word: 10.0,  // 9 plane words + 1 phenotype word
                bytes_per_word: 40.0,
            },
            // V2..V4 share the 57-op split kernel; note these are *per
            // class* words, so per-element normalisation already matches
            // V1's whole-population words.
            Version::V2 | Version::V3 | Version::V4 => VersionCosts {
                ops_per_word: 57.0,
                popcnt_per_word: 27.0,
                loads_per_word: 6.0,
                bytes_per_word: 24.0,
            },
            // V5: 18 AND + 18 POPCNT against the cached pair streams per
            // combination, plus the amortised once-per-pair cache fill
            // (2 NOR + 9 AND + 9 POPCNT) / B_S, evaluated at the default
            // policy block B_S = 4. Loads rise (9 stream words + 2 z
            // words, all L1-resident by construction) while ops fall —
            // V5 trades arithmetic for cache-hot traffic.
            Version::V5 => {
                const BS: f64 = 4.0;
                VersionCosts {
                    ops_per_word: 36.0 + 20.0 / BS,
                    popcnt_per_word: 18.0 + 9.0 / BS,
                    loads_per_word: 11.0 + 4.0 / BS,
                    bytes_per_word: (11.0 + 4.0 / BS) * 4.0,
                }
            }
        }
    }

    /// V5 cost on the *shard* path with the cross-triple
    /// [`crate::prefixcache::PairPrefixCache`]: the once-per-pair fill
    /// (2 NOR + 9 AND + 9 POPCNT per word) is amortised over a prefix
    /// *run* — the `c`-sweep sharing one `(a, b)` — instead of the
    /// blocked kernel's `B_S` third SNPs. In rank order over `M` SNPs the
    /// mean run length is `C(M,3)/C(M-1,2) = (M-2)/3`, so the fill term
    /// vanishes as the panel grows (at `M = 64`: 20/20.7 ≈ 0.97 POPCNTs
    /// per word versus the blocked kernel's 9/B_S ≈ 2.25).
    pub fn v5_shard_path(mean_run_len: f64) -> Self {
        assert!(mean_run_len >= 1.0);
        VersionCosts {
            ops_per_word: 36.0 + 20.0 / mean_run_len,
            popcnt_per_word: 18.0 + 9.0 / mean_run_len,
            loads_per_word: 11.0 + 4.0 / mean_run_len,
            bytes_per_word: (11.0 + 4.0 / mean_run_len) * 4.0,
        }
    }

    /// Mean `(a, b)` prefix-run length of a rank-order triple scan over
    /// `m` SNPs: `C(m,3) / C(m-1,2) = (m - 2) / 3`.
    pub fn mean_prefix_run_len(m: usize) -> f64 {
        assert!(m >= 3);
        (m as f64 - 2.0) / 3.0
    }

    /// Mean number of block-triple tasks sharing one `(b0, b1)` block
    /// pair when `nb` blocks tile the panel: tasks are the multisets
    /// `b0 ≤ b1 ≤ b2` (`C(nb+2, 3)` of them) over `C(nb+1, 2)` leading
    /// pairs, i.e. `(nb + 2) / 3`.
    pub fn mean_tasks_per_block_pair(nb: usize) -> f64 {
        assert!(nb >= 1);
        (nb as f64 + 2.0) / 3.0
    }

    /// V5 cost on the blocked path with the cross-task block-pair cache
    /// *enabled*: the once-per-pair fill is amortised over the `B_S`
    /// third SNPs of every task sharing the pair × the tasks per pair —
    /// the whole `b2` sweep reuses one fill, which is exactly what the
    /// budget buys over [`Self::for_version(Version::V5)`]'s per-task
    /// amortisation of `B_S` alone.
    pub fn v5_cross_pair_path(bs: f64, tasks_per_pair: f64) -> Self {
        assert!(bs >= 1.0 && tasks_per_pair >= 1.0);
        let amort = bs * tasks_per_pair;
        VersionCosts {
            ops_per_word: 36.0 + 20.0 / amort,
            popcnt_per_word: 18.0 + 9.0 / amort,
            loads_per_word: 11.0 + 4.0 / amort,
            bytes_per_word: (11.0 + 4.0 / amort) * 4.0,
        }
    }

    /// Cost model of a *concrete* blocked V5 configuration: picks the
    /// cross-pair path when `budget_bytes` admits the block-pair cache
    /// for this dataset size (`class_words_total` combined 64-bit words,
    /// `nb` SNP blocks) — the same gate the kernel itself applies with
    /// [`crate::block::BlockParams::cross_pair_cache_enabled`] — and the
    /// per-task amortisation otherwise. Both arms model bit-identical
    /// kernels; only the amortisation denominator moves.
    pub fn v5_blocked(
        params: &crate::block::BlockParams,
        class_words_total: usize,
        budget_bytes: usize,
        nb: usize,
    ) -> Self {
        if params.cross_pair_cache_enabled(class_words_total, budget_bytes) {
            Self::v5_cross_pair_path(params.bs as f64, Self::mean_tasks_per_block_pair(nb.max(1)))
        } else {
            Self::v5_shard_path(params.bs as f64)
        }
    }

    /// Analytic model of the **parallel** blocked V5 configuration at a
    /// given worker count — the planning counterpart of the run-aware
    /// scheduler; `perfbench` reports the measured side as the
    /// `scan.xpair_hit_rate` and `pool.xpair_hit_min_2w` metrics. See
    /// [`V5ParallelModel`] for the derivation of each field.
    pub fn v5_parallel(
        nb: usize,
        workers: usize,
        l2: Option<devices::SharedCache>,
        l3: Option<devices::SharedCache>,
    ) -> V5ParallelModel {
        assert!(nb >= 1 && workers >= 1);
        let total = crate::combin::num_block_triples(nb) as usize;
        let tasks = total as f64;
        // Claim plan of the run-aware scheduler: one claim per (b0, b1)
        // run (length nb - b1), tail-split at the shared balance cap —
        // the same arithmetic pool::plan_claims executes.
        let cap = crate::pool::balance_cap(total, workers) as f64;
        let mut claims = 0.0f64;
        for b0 in 0..nb {
            for b1 in b0..nb {
                claims += ((nb - b1) as f64 / cap).ceil();
            }
        }
        // Run-aware: a per-worker LRU-of-one block-pair cache misses at
        // most once per claim (each claim is one contiguous same-pair
        // span, up to splits).
        let hit_rate_run_aware = 1.0 - claims / tasks;
        V5ParallelModel {
            workers,
            per_worker_budget: crate::block::BlockParams::budget_from_caches_for_workers(
                l2, l3, workers,
            ),
            mean_claim_run_len: tasks / claims,
            hit_rate_run_aware,
        }
    }

    /// Arithmetic intensity in intops/byte — the CARM x-axis.
    pub fn arithmetic_intensity(&self) -> f64 {
        self.ops_per_word / self.bytes_per_word
    }

    /// Integer ops per element (element = combination × sample).
    pub fn ops_per_element(&self) -> f64 {
        self.ops_per_word / SAMPLES_PER_WORD32
    }

    /// `POPCNT`s per element.
    pub fn popcnt_per_element(&self) -> f64 {
        self.popcnt_per_word / SAMPLES_PER_WORD32
    }

    /// Non-popcount ops per element.
    pub fn other_ops_per_element(&self) -> f64 {
        (self.ops_per_word - self.popcnt_per_word) / SAMPLES_PER_WORD32
    }

    /// Bytes per element (assuming no cache reuse — the streaming bound).
    pub fn bytes_per_element(&self) -> f64 {
        self.bytes_per_word / SAMPLES_PER_WORD32
    }

    /// Convert a measured element throughput into GINTOP/s for CARM.
    pub fn gintops(&self, elements_per_sec: f64) -> f64 {
        elements_per_sec * self.ops_per_element() / 1e9
    }
}

/// What the analytic parallel model predicts for a blocked V5 scan over
/// `nb` SNP blocks at a given worker count:
///
/// * `per_worker_budget` — the concurrency-honest cross-pair cache
///   budget ([`crate::block::BlockParams::budget_from_caches_for_workers`]):
///   each worker's L2 slice plus its share of the L3 domain it actually
///   occupies, halved, floored at the fixed 4 MiB;
/// * `mean_claim_run_len` — expected tasks per run-aware claim (whole
///   `(b0, b1)` runs, tail-split at the `⌈tasks / 2W⌉` balance cap);
/// * `hit_rate_run_aware` — predicted pool-wide block-pair cache hit
///   rate. Run-aware claiming misses once per claim whatever the worker
///   count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct V5ParallelModel {
    /// Worker count the model was evaluated at.
    pub workers: usize,
    /// Concurrency-honest cross-pair budget in bytes (≥ the 4 MiB floor).
    pub per_worker_budget: usize,
    /// Expected tasks per run-aware claim.
    pub mean_claim_run_len: f64,
    /// Predicted pool-wide hit rate under run-aware claiming.
    pub hit_rate_run_aware: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_op_counts() {
        assert_eq!(VersionCosts::for_version(Version::V1).ops_per_word, 162.0);
        assert_eq!(VersionCosts::for_version(Version::V2).ops_per_word, 57.0);
        // the ~65 % compute reduction the paper quotes
        let ratio: f64 = 57.0 / 162.0;
        assert!(ratio < 0.36);
        // and well above the 2.1x op-count reduction quoted for the GPU
        assert!(1.0 / ratio > 2.1);
    }

    #[test]
    fn memory_reduction_about_one_third() {
        let v1 = VersionCosts::for_version(Version::V1);
        let v2 = VersionCosts::for_version(Version::V2);
        let reduction = 1.0 - v2.bytes_per_word / v1.bytes_per_word;
        assert!(
            (reduction - 0.4).abs() < 0.1,
            "≈1/3 traffic cut, got {reduction}"
        );
    }

    #[test]
    fn ai_decreases_from_v1_to_v2_and_stays() {
        let ai = |v| VersionCosts::for_version(v).arithmetic_intensity();
        assert!(ai(Version::V1) > ai(Version::V2));
        assert_eq!(ai(Version::V2), ai(Version::V3));
        assert_eq!(ai(Version::V3), ai(Version::V4));
        assert!((ai(Version::V1) - 4.05).abs() < 0.01);
        assert!((ai(Version::V2) - 2.375).abs() < 0.001);
    }

    #[test]
    fn v5_cuts_ops_below_v2() {
        let v2 = VersionCosts::for_version(Version::V2);
        let v5 = VersionCosts::for_version(Version::V5);
        assert!(v5.ops_per_word < v2.ops_per_word);
        assert!(v5.popcnt_per_word < v2.popcnt_per_word);
        // 41 ops at the default B_S = 4 policy block
        assert!((v5.ops_per_word - 41.0).abs() < 1e-12);
        assert!((v5.popcnt_per_word - 20.25).abs() < 1e-12);
        // the popcount-path reduction is the headline: 27 -> 20.25
        assert!(v5.popcnt_per_word / v2.popcnt_per_word < 0.76);
    }

    #[test]
    fn v5_shard_path_beats_the_blocked_amortisation_on_wide_panels() {
        // At M = 64 the mean prefix run ((M-2)/3 ≈ 20.7) amortises the
        // pair fill far below the blocked kernel's B_S = 4.
        let run = VersionCosts::mean_prefix_run_len(64);
        assert!((run - 62.0 / 3.0).abs() < 1e-12);
        let sharded = VersionCosts::v5_shard_path(run);
        let blocked = VersionCosts::for_version(Version::V5);
        assert!(sharded.ops_per_word < blocked.ops_per_word);
        assert!(sharded.popcnt_per_word < blocked.popcnt_per_word);
        // the floor is the 18-popcount inner kernel
        assert!(sharded.popcnt_per_word > 18.0);
        // degenerate run of 1 = no reuse = full per-triple fill
        assert!(VersionCosts::v5_shard_path(1.0).popcnt_per_word == 27.0);
    }

    #[test]
    fn cross_pair_path_dominates_the_per_task_amortisation() {
        use crate::block::{BlockParams, CROSS_PAIR_CACHE_BUDGET};
        // 13 blocks (64 SNPs at B_S = 5): tasks per pair = 5.
        assert!((VersionCosts::mean_tasks_per_block_pair(13) - 5.0).abs() < 1e-12);
        let per_task = VersionCosts::for_version(Version::V5);
        let cross = VersionCosts::v5_cross_pair_path(4.0, 5.0);
        assert!(cross.ops_per_word < per_task.ops_per_word);
        assert!(cross.popcnt_per_word < per_task.popcnt_per_word);
        // floor stays the 18-popcount inner kernel
        assert!(cross.popcnt_per_word > 18.0);
        // degenerate single task per pair = the per-task model exactly
        let solo = VersionCosts::v5_cross_pair_path(4.0, 1.0);
        assert!((solo.ops_per_word - per_task.ops_per_word).abs() < 1e-12);

        // the gated selector mirrors the kernel's budget gate
        let p = BlockParams { bs: 5, bp: 160 };
        let small_ds = 32; // fits the fixed budget (see block.rs tests)
        let huge_ds = 4700; // overflows it
        let enabled = VersionCosts::v5_blocked(&p, small_ds, CROSS_PAIR_CACHE_BUDGET, 13);
        let disabled = VersionCosts::v5_blocked(&p, huge_ds, CROSS_PAIR_CACHE_BUDGET, 13);
        assert!(enabled.popcnt_per_word < disabled.popcnt_per_word);
        assert!((disabled.popcnt_per_word - (18.0 + 9.0 / 5.0)).abs() < 1e-12);
    }

    #[test]
    fn parallel_model_locality_and_budget_trends() {
        use devices::{CacheGeometry, SharedCache};
        let l2 = Some(SharedCache {
            geom: CacheGeometry::kib(2048, 16),
            shared_cpus: 1,
        });
        let l3 = Some(SharedCache {
            geom: CacheGeometry::kib(96 * 1024, 16),
            shared_cpus: 8,
        });
        // 13 blocks = the 64-SNP default panel at B_S = 5.
        let at = |w| VersionCosts::v5_parallel(13, w, l2, l3);

        // single worker, no splits: hit rate = 1 - runs/tasks = 80%
        let m1 = at(1);
        assert!((m1.hit_rate_run_aware - (1.0 - 91.0 / 455.0)).abs() < 1e-12);
        assert!((m1.mean_claim_run_len - 455.0 / 91.0).abs() < 1e-12);

        let mut prev_budget = usize::MAX;
        for w in [1usize, 2, 4, 8, 16] {
            let m = at(w);
            // run-aware locality survives parallelism: within a split's
            // worth of the sequential rate at every worker count
            assert!(
                m.hit_rate_run_aware >= 0.9 * m1.hit_rate_run_aware,
                "w={w}: {m:?}"
            );
            // the budget shrinks with contention but never to zero
            assert!(m.per_worker_budget <= prev_budget);
            assert!(m.per_worker_budget >= crate::block::CROSS_PAIR_CACHE_BUDGET);
            prev_budget = m.per_worker_budget;
        }
        // the budget matches the budget arithmetic of the block module
        assert_eq!(at(4).per_worker_budget, 13 << 20);
    }

    #[test]
    fn element_normalisation() {
        let v2 = VersionCosts::for_version(Version::V2);
        assert!((v2.popcnt_per_element() - 27.0 / 32.0).abs() < 1e-12);
        assert!((v2.gintops(1e9) - v2.ops_per_element()).abs() < 1e-12);
    }
}
