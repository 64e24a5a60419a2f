//! Deterministic sharding of the combination space.
//!
//! The exhaustive scan enumerates all `C(M, 3)` SNP triples (or `C(M, 2)`
//! pairs). This module partitions that range into `S` contiguous shards by
//! *combination rank* — the position of a combination in the lexicographic
//! order produced by [`crate::combin::TripleIter`] — using the
//! combinatorial number system to unrank a shard's first combination in
//! `O(M)` and cheap successor stepping from there.
//!
//! Shards are the scan's distributable work unit: a shard can be scanned
//! on any worker, in any order, with any of the paper's approaches
//! V1–V5, and the per-shard [`TopK`] results merge associatively to a
//! result **bit-identical** to a monolithic scan — every triple is scored
//! exactly once, per-triple scores do not depend on evaluation order, and
//! [`TopK`] ordering is total (score, then triple). This property is what
//! `epi-server` builds resumable, multi-tenant jobs on: a checkpoint is
//! simply the set of completed shard results.
//!
//! ```
//! use epi_core::shard::{ShardPlan, scan_shard};
//! use epi_core::scan::{scan, ScanConfig, Version};
//! use epi_core::result::TopK;
//! use bitgenome::{GenotypeMatrix, Phenotype};
//!
//! let g = GenotypeMatrix::from_raw(8, 16, (0..8 * 16).map(|i| (i % 3) as u8).collect());
//! let p = Phenotype::from_labels((0..16).map(|i| (i % 2) as u8).collect());
//!
//! let mut cfg = ScanConfig::new(Version::V4);
//! cfg.top_k = 5;
//! let plan = ShardPlan::triples(8, 3); // C(8,3) = 56 ranks in 3 shards
//! let mut merged = TopK::new(cfg.top_k);
//! for shard in plan.ranges() {
//!     merged.merge(scan_shard(&g, &p, &cfg, shard));
//! }
//! assert_eq!(merged.into_sorted(), scan(&g, &p, &cfg).top);
//! ```

use crate::combin::n_choose_k;
use crate::result::{TopK, Triple};
use crate::scan::{build_objective, ScanConfig, Version};
use crate::versions::{v1, v2, PairPrefixCache};
use bitgenome::{GenotypeMatrix, Phenotype, SplitDataset, UnsplitDataset};
use std::ops::Range;

/// Interaction order a plan covers: pairs (`C(M,2)`) or triples
/// (`C(M,3)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Order {
    Pairs,
    Triples,
}

impl Order {
    /// `k` of `C(M, k)`.
    pub const fn k(self) -> u64 {
        match self {
            Order::Pairs => 2,
            Order::Triples => 3,
        }
    }
}

/// Rank of pair `(a, b)` (`a < b < m`) in lexicographic order.
pub fn rank_pair(m: usize, pair: (u32, u32)) -> u64 {
    let m = m as u64;
    let (a, b) = (u64::from(pair.0), u64::from(pair.1));
    debug_assert!(a < b && b < m);
    (n_choose_k(m, 2) - n_choose_k(m - a, 2)) + (b - a - 1)
}

/// Pair with the given lexicographic rank (inverse of [`rank_pair`]).
pub fn unrank_pair(m: usize, rank: u64) -> (u32, u32) {
    let mu = m as u64;
    assert!(rank < n_choose_k(mu, 2), "rank {rank} out of range");
    // a = largest value whose predecessor block ends at or before `rank`
    let before = |a: u64| n_choose_k(mu, 2) - n_choose_k(mu - a, 2);
    let a = largest_leq(0, mu - 2, rank, before);
    let rest = rank - before(a);
    (a as u32, (a + 1 + rest) as u32)
}

/// Rank of triple `(a, b, c)` (`a < b < c < m`) in the lexicographic
/// order of [`crate::combin::TripleIter`].
pub fn rank_triple(m: usize, t: Triple) -> u64 {
    let mu = m as u64;
    let (a, b, c) = (u64::from(t.0), u64::from(t.1), u64::from(t.2));
    debug_assert!(a < b && b < c && c < mu);
    (n_choose_k(mu, 3) - n_choose_k(mu - a, 3))
        + (n_choose_k(mu - a - 1, 2) - n_choose_k(mu - b, 2))
        + (c - b - 1)
}

/// Triple with the given lexicographic rank (inverse of [`rank_triple`]).
pub fn unrank_triple(m: usize, rank: u64) -> Triple {
    let mu = m as u64;
    assert!(rank < n_choose_k(mu, 3), "rank {rank} out of range");
    let before_a = |a: u64| n_choose_k(mu, 3) - n_choose_k(mu - a, 3);
    let a = largest_leq(0, mu - 3, rank, before_a);
    let r2 = rank - before_a(a);
    let before_b = |b: u64| n_choose_k(mu - a - 1, 2) - n_choose_k(mu - b, 2);
    let b = largest_leq(a + 1, mu - 2, r2, before_b);
    let r3 = r2 - before_b(b);
    (a as u32, b as u32, (b + 1 + r3) as u32)
}

/// Largest `x` in `[lo, hi]` with `f(x) <= target`, for monotone `f` with
/// `f(lo) == 0`.
fn largest_leq(lo: u64, hi: u64, target: u64, f: impl Fn(u64) -> u64) -> u64 {
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if f(mid) <= target {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Iterator over the triples with ranks in `[start, end)`, in rank order.
/// Unranks once, then steps with the `O(1)` lexicographic successor.
pub struct TripleRangeIter {
    m: u32,
    remaining: u64,
    cur: Triple,
}

impl TripleRangeIter {
    pub fn new(m: usize, range: Range<u64>) -> Self {
        let total = n_choose_k(m as u64, 3);
        let start = range.start.min(total);
        let end = range.end.min(total);
        let remaining = end.saturating_sub(start);
        let cur = if remaining > 0 {
            unrank_triple(m, start)
        } else {
            (0, 1, 2)
        };
        Self {
            m: m as u32,
            remaining,
            cur,
        }
    }
}

impl Iterator for TripleRangeIter {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let out = self.cur;
        let (mut a, mut b, mut c) = self.cur;
        if c + 1 < self.m {
            c += 1;
        } else if b + 2 < self.m {
            b += 1;
            c = b + 1;
        } else {
            a += 1;
            b = a + 1;
            c = b + 1;
        }
        self.cur = (a, b, c);
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

/// Iterator over the pairs with ranks in `[start, end)`, in rank order.
pub struct PairRangeIter {
    m: u32,
    remaining: u64,
    cur: (u32, u32),
}

impl PairRangeIter {
    pub fn new(m: usize, range: Range<u64>) -> Self {
        let total = n_choose_k(m as u64, 2);
        let start = range.start.min(total);
        let end = range.end.min(total);
        let remaining = end.saturating_sub(start);
        let cur = if remaining > 0 {
            unrank_pair(m, start)
        } else {
            (0, 1)
        };
        Self {
            m: m as u32,
            remaining,
            cur,
        }
    }
}

impl Iterator for PairRangeIter {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let out = self.cur;
        let (mut a, mut b) = self.cur;
        if b + 1 < self.m {
            b += 1;
        } else {
            a += 1;
            b = a + 1;
        }
        self.cur = (a, b);
        Some(out)
    }
}

/// A deterministic partition of the `C(M, k)` combination range into `S`
/// contiguous, near-equal shards.
///
/// Shard boundaries depend only on `(m, order, shards)`, so every party —
/// submitting client, scheduler, workers, a resumed job — derives the
/// identical plan from three integers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    m: usize,
    order: Order,
    shards: u64,
    total: u64,
}

impl ShardPlan {
    /// Plan for `C(m, 3)` triples in `s` shards (`s >= 1`).
    pub fn triples(m: usize, s: u64) -> Self {
        Self::new(m, Order::Triples, s)
    }

    /// Plan for `C(m, 2)` pairs in `s` shards (`s >= 1`).
    pub fn pairs(m: usize, s: u64) -> Self {
        Self::new(m, Order::Pairs, s)
    }

    /// General constructor.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    pub fn new(m: usize, order: Order, s: u64) -> Self {
        assert!(s > 0, "a plan needs at least one shard");
        Self {
            m,
            order,
            shards: s,
            total: n_choose_k(m as u64, order.k()),
        }
    }

    /// Number of SNPs the plan covers.
    pub fn num_snps(&self) -> usize {
        self.m
    }

    /// Interaction order.
    pub fn order(&self) -> Order {
        self.order
    }

    /// Number of shards (some may be empty when `S > C(M, k)`).
    pub fn num_shards(&self) -> u64 {
        self.shards
    }

    /// Total combinations across all shards: `C(M, k)`.
    pub fn total_combos(&self) -> u64 {
        self.total
    }

    /// Rank range of shard `i`: `[i*T/S, (i+1)*T/S)`. Consecutive shards
    /// tile `[0, T)` exactly; sizes differ by at most one combination.
    pub fn range(&self, shard: u64) -> Range<u64> {
        assert!(shard < self.shards, "shard {shard} out of range");
        let lo = mul_div(shard, self.total, self.shards);
        let hi = mul_div(shard + 1, self.total, self.shards);
        lo..hi
    }

    /// Number of combinations in shard `i`.
    pub fn shard_len(&self, shard: u64) -> u64 {
        let r = self.range(shard);
        r.end - r.start
    }

    /// Iterate all shard ranges in order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<u64>> + '_ {
        (0..self.shards).map(|i| self.range(i))
    }

    /// The shard whose range contains combination rank `rank`.
    pub fn shard_of(&self, rank: u64) -> u64 {
        assert!(rank < self.total, "rank {rank} out of range");
        // candidate from the inverse map, corrected for flooring
        let mut s = (u128::from(rank) * u128::from(self.shards) / u128::from(self.total)) as u64;
        while self.range(s).end <= rank {
            s += 1;
        }
        while self.range(s).start > rank {
            s -= 1;
        }
        s
    }
}

/// `a * b / c` without u64 overflow (`a <= c`, result `<= b`).
fn mul_div(a: u64, b: u64, c: u64) -> u64 {
    (u128::from(a) * u128::from(b) / u128::from(c)) as u64
}

/// Scan the triples with ranks in `shard` using the configured Version
/// and objective, returning the shard-local top-K.
///
/// Encodes the dataset on each call; workers that process many shards of
/// one job should encode once and use [`scan_shard_split`] /
/// [`scan_shard_unsplit`].
pub fn scan_shard(
    genotypes: &GenotypeMatrix,
    phenotype: &Phenotype,
    cfg: &ScanConfig,
    shard: Range<u64>,
) -> TopK {
    match cfg.version {
        Version::V1 => {
            let ds = UnsplitDataset::encode(genotypes, phenotype);
            scan_shard_unsplit(&ds, cfg, shard)
        }
        _ => {
            let ds = SplitDataset::encode(genotypes, phenotype);
            scan_shard_split(&ds, cfg, shard)
        }
    }
}

/// V1 shard scan over a pre-encoded unsplit dataset.
pub fn scan_shard_unsplit(ds: &UnsplitDataset, cfg: &ScanConfig, shard: Range<u64>) -> TopK {
    assert_eq!(cfg.version, Version::V1, "unsplit layout is V1-only");
    let scorer = build_objective(cfg, ds.num_samples());
    let mut top = TopK::new(cfg.top_k.max(1));
    for t in TripleRangeIter::new(ds.num_snps(), shard) {
        let table = v1::table_for_triple(ds, t);
        top.push(scorer.score(&table), t);
    }
    top
}

/// V2–V5 shard scan over a pre-encoded split dataset.
///
/// At shard granularity the unit of work is a contiguous *rank range*,
/// not a block triple, so V3's tiling does not apply; V3 runs the scalar
/// per-triple kernel (= V2) and V4 the SIMD per-triple kernel. V5 keeps
/// its pair-prefix advantage even here: rank order fixes the `(a, b)`
/// prefix while `c` sweeps, so a [`PairPrefixCache`] amortises the pair
/// streams over each run and popcounts only 18 of 27 cells. Contingency
/// tables — and therefore scores — are identical to the blocked kernels',
/// which is what makes shard merges bit-identical to monolithic scans.
///
/// This convenience starts from a cold cache; workers draining several
/// shards of one dataset should hold a [`PairPrefixCache`] and use
/// [`scan_shard_split_cached`] — shards tile the rank range contiguously,
/// so the `(a, b)` prefix run crossing a shard boundary stays warm.
pub fn scan_shard_split(ds: &SplitDataset, cfg: &ScanConfig, shard: Range<u64>) -> TopK {
    let mut cache = PairPrefixCache::new(cfg.effective_simd());
    scan_shard_split_cached(ds, cfg, shard, &mut cache)
}

/// [`scan_shard_split`] with a caller-held [`PairPrefixCache`], the form
/// used by `scan_sharded` workers and the epi-server job engine to reuse
/// pair streams **across** shard tasks. The cache must only ever see one
/// dataset between [`PairPrefixCache::reset`] calls; it is read and
/// advanced only for V5 (the per-triple V2–V4 kernels have no pair
/// state). Results are bit-identical to the cold-cache form for any
/// prior cache state over the same dataset.
pub fn scan_shard_split_cached(
    ds: &SplitDataset,
    cfg: &ScanConfig,
    shard: Range<u64>,
    cache: &mut PairPrefixCache,
) -> TopK {
    assert_ne!(cfg.version, Version::V1, "split layout is for V2-V5");
    let scorer = build_objective(cfg, ds.num_samples());
    let level = cfg.effective_simd();
    let mut top = TopK::new(cfg.top_k.max(1));
    match cfg.version {
        Version::V5 => {
            for t in TripleRangeIter::new(ds.num_snps(), shard) {
                let table = cache.table_for_triple(ds, t);
                top.push(scorer.score(&table), t);
            }
        }
        _ => {
            for t in TripleRangeIter::new(ds.num_snps(), shard) {
                let table = v2::table_for_triple_simd(ds, t, level);
                top.push(scorer.score(&table), t);
            }
        }
    }
    top
}

/// Run a full scan as `s` shards drained by the dynamic worker pool and
/// merge the results. Produces candidates bit-identical to
/// [`crate::scan::scan`] with the same configuration; used by the CLI's
/// `shards` subcommand.
pub fn scan_sharded(
    genotypes: &GenotypeMatrix,
    phenotype: &Phenotype,
    cfg: &ScanConfig,
    s: u64,
) -> crate::scan::ScanResult {
    scan_sharded_inner(genotypes, phenotype, cfg, s, None).0
}

/// [`scan_sharded`] at an **exact** worker count (no host clamp), that
/// also returns the aggregated per-worker [`PairPrefixCache`]
/// statistics — hits and misses summed across the whole pool (and
/// min/max-able per worker), not just worker 0's, so hit-rate gates
/// judge what every worker saw. Results are bit-identical at any worker
/// count.
pub fn scan_sharded_with_workers(
    genotypes: &GenotypeMatrix,
    phenotype: &Phenotype,
    cfg: &ScanConfig,
    s: u64,
    workers: usize,
) -> (crate::scan::ScanResult, crate::pool::PoolCacheStats) {
    scan_sharded_inner(genotypes, phenotype, cfg, s, Some(workers.max(1)))
}

fn scan_sharded_inner(
    genotypes: &GenotypeMatrix,
    phenotype: &Phenotype,
    cfg: &ScanConfig,
    s: u64,
    workers: Option<usize>,
) -> (crate::scan::ScanResult, crate::pool::PoolCacheStats) {
    use crate::combin;
    use crate::pool;
    use std::time::Instant;

    let m = genotypes.num_snps();
    let n = genotypes.num_samples();
    let plan = ShardPlan::triples(m, s);
    if plan.total_combos() == 0 {
        return (
            crate::scan::ScanResult {
                top: Vec::new(),
                combos: 0,
                elements: 0,
                elapsed: std::time::Duration::ZERO,
            },
            crate::pool::PoolCacheStats::default(),
        );
    }
    let split;
    let unsplit;
    // Per-worker pair caches persist across the shards a worker drains:
    // consecutive shards of the rank order share their boundary (a, b)
    // prefix, so cross-shard reuse is free (V5 only; V1-V4 ignore it).
    type ShardScanFn<'a> = Box<dyn Fn(Range<u64>, &mut PairPrefixCache) -> TopK + Sync + 'a>;
    let scan_one: ShardScanFn<'_> = match cfg.version {
        Version::V1 => {
            unsplit = UnsplitDataset::encode(genotypes, phenotype);
            Box::new(|r, _| scan_shard_unsplit(&unsplit, cfg, r))
        }
        _ => {
            split = SplitDataset::encode(genotypes, phenotype);
            Box::new(|r, cache| scan_shard_split_cached(&split, cfg, r, cache))
        }
    };
    let w = workers.unwrap_or_else(|| pool::resolve_threads(cfg.threads));
    let n_shards = plan.num_shards() as usize;
    // Prefix-run-aware claiming: shards tile the rank range contiguously,
    // so a claim of consecutive shards is one contiguous rank span — the
    // worker's PairPrefixCache misses once per (a, b) prefix run inside
    // the span instead of once per prefix per shard. All shards form one
    // "run"; plan_claims tail-splits it into per-worker contiguous
    // chunks.
    let make = || {
        (
            TopK::new(cfg.top_k),
            PairPrefixCache::new(cfg.effective_simd()),
        )
    };
    let task = |i: usize, (top, cache): &mut (TopK, PairPrefixCache)| {
        top.merge(scan_one(plan.range(i as u64), cache));
    };
    let start = Instant::now();
    let states = pool::run_claims(&pool::plan_claims(&[n_shards], w), w, make, task);
    let elapsed = start.elapsed();
    let mut merged = TopK::new(cfg.top_k);
    let mut stats = crate::pool::PoolCacheStats::default();
    for (t, cache) in states {
        merged.merge(t);
        stats.per_worker.push((cache.hits(), cache.misses()));
    }
    (
        crate::scan::ScanResult {
            top: merged.into_sorted(),
            combos: combin::num_triples(m),
            elements: combin::num_elements(m, n),
            elapsed,
        },
        stats,
    )
}

/// A set of shard indices, kept as sorted, disjoint, non-adjacent
/// half-open ranges — the exact-accounting currency of scan federation.
///
/// A federation coordinator assigns each node a `ShardSet` of one global
/// [`ShardPlan`], tracks which indices each node has completed, and
/// computes steal targets by set difference. The compact `lo-hi,i,lo-hi`
/// text form (`2` alone means the single index 2; `0-4` means `[0, 5)`…
/// rendered inclusive) travels on the wire as the `shard_set=` job-spec
/// key and the `SHARDS_DONE` reply, so every party reasons about the
/// *same* global shard indices — which is what makes re-execution after a
/// steal duplicate-free at merge time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardSet {
    /// Sorted, pairwise disjoint, non-adjacent (normalized) ranges.
    ranges: Vec<Range<u64>>,
}

impl ShardSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set holding one contiguous range.
    pub fn from_range(r: Range<u64>) -> Self {
        let mut s = Self::new();
        s.insert_range(r);
        s
    }

    /// Set from arbitrary indices (any order, duplicates collapse).
    pub fn from_indices(iter: impl IntoIterator<Item = u64>) -> Self {
        let mut s = Self::new();
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// Insert one index.
    pub fn insert(&mut self, i: u64) {
        self.insert_range(i..i + 1);
    }

    /// Insert a range, merging with neighbours to keep the normal form.
    pub fn insert_range(&mut self, r: Range<u64>) {
        if r.start >= r.end {
            return;
        }
        // position of the first existing range that could touch `r`
        let mut lo = r.start;
        let mut hi = r.end;
        let mut out = Vec::with_capacity(self.ranges.len() + 1);
        let mut placed = false;
        for existing in self.ranges.drain(..) {
            if existing.end < lo || (placed && existing.start > hi) {
                out.push(existing);
            } else if existing.start > hi {
                // past the merge window: emit the merged range first
                out.push(lo..hi);
                placed = true;
                out.push(existing);
            } else {
                // overlaps or is adjacent: absorb
                lo = lo.min(existing.start);
                hi = hi.max(existing.end);
            }
        }
        if !placed {
            out.push(lo..hi);
            // restore sort order if the merged range belongs earlier
            out.sort_by_key(|r| r.start);
        }
        self.ranges = out;
    }

    /// Number of indices in the set.
    pub fn len(&self) -> u64 {
        self.ranges.iter().map(|r| r.end - r.start).sum()
    }

    /// True when no index is present.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, i: u64) -> bool {
        self.ranges
            .binary_search_by(|r| {
                if i < r.start {
                    std::cmp::Ordering::Greater
                } else if i >= r.end {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// The normalized ranges, sorted and disjoint.
    pub fn ranges(&self) -> &[Range<u64>] {
        &self.ranges
    }

    /// Iterate every index in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.ranges.iter().flat_map(|r| r.clone())
    }

    /// Largest index present, if any.
    pub fn max(&self) -> Option<u64> {
        self.ranges.last().map(|r| r.end - 1)
    }

    /// `self \ other`.
    pub fn difference(&self, other: &ShardSet) -> ShardSet {
        let mut out = ShardSet::new();
        for r in &self.ranges {
            let mut cur = r.start;
            for o in &other.ranges {
                if o.end <= cur {
                    continue;
                }
                if o.start >= r.end {
                    break;
                }
                if o.start > cur {
                    out.insert_range(cur..o.start.min(r.end));
                }
                cur = cur.max(o.end);
                if cur >= r.end {
                    break;
                }
            }
            if cur < r.end {
                out.insert_range(cur..r.end);
            }
        }
        out
    }

    /// Split into `n` near-equal consecutive chunks (some possibly empty
    /// when `n > len`); the balanced unit of a steal reassignment.
    pub fn split_chunks(&self, n: usize) -> Vec<ShardSet> {
        let n = n.max(1);
        let total = self.len();
        let mut out = Vec::with_capacity(n);
        let mut iter = self.iter();
        for c in 0..n as u64 {
            // same near-equal arithmetic as ShardPlan::range
            let lo = mul_div(c, total, n as u64);
            let hi = mul_div(c + 1, total, n as u64);
            out.push(ShardSet::from_indices(
                iter.by_ref().take((hi - lo) as usize),
            ));
        }
        out
    }

    /// Render the compact text form: `0-4,7,9-12` (inclusive bounds,
    /// single indices bare), or the empty string for the empty set.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.ranges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if r.end - r.start == 1 {
                out.push_str(&r.start.to_string());
            } else {
                out.push_str(&format!("{}-{}", r.start, r.end - 1));
            }
        }
        out
    }

    /// Parse the compact text form (inverse of [`ShardSet::to_compact`]).
    pub fn parse_compact(s: &str) -> Result<Self, String> {
        let mut set = ShardSet::new();
        if s.is_empty() {
            return Ok(set);
        }
        for part in s.split(',') {
            let bad = || format!("bad shard range {part:?} in {s:?}");
            match part.split_once('-') {
                Some((lo, hi)) => {
                    let lo: u64 = lo.parse().map_err(|_| bad())?;
                    let hi: u64 = hi.parse().map_err(|_| bad())?;
                    if hi < lo {
                        return Err(bad());
                    }
                    set.insert_range(lo..hi + 1);
                }
                None => set.insert(part.parse().map_err(|_| bad())?),
            }
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combin::{num_triples, TripleIter};
    use crate::scan::scan;

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
    fn triple_rank_roundtrip_is_lexicographic() {
        for m in [3usize, 4, 7, 12, 23] {
            for (rank, t) in TripleIter::new(m).enumerate() {
                assert_eq!(rank_triple(m, t), rank as u64, "m={m} t={t:?}");
                assert_eq!(unrank_triple(m, rank as u64), t, "m={m} rank={rank}");
            }
        }
    }

    #[test]
    fn pair_rank_roundtrip_is_lexicographic() {
        for m in [2usize, 3, 9, 17] {
            let mut rank = 0u64;
            for a in 0..m as u32 {
                for b in a + 1..m as u32 {
                    assert_eq!(rank_pair(m, (a, b)), rank);
                    assert_eq!(unrank_pair(m, rank), (a, b));
                    rank += 1;
                }
            }
            assert_eq!(rank, n_choose_k(m as u64, 2));
        }
    }

    #[test]
    fn large_m_unrank_agrees_with_rank() {
        let m = 40_000usize;
        let total = num_triples(m);
        for rank in [0, 1, total / 3, total / 2, total - 2, total - 1] {
            let t = unrank_triple(m, rank);
            assert!(t.0 < t.1 && t.1 < t.2 && (t.2 as usize) < m);
            assert_eq!(rank_triple(m, t), rank);
        }
    }

    #[test]
    fn range_iter_matches_full_enumeration() {
        let m = 11;
        let all: Vec<Triple> = TripleIter::new(m).collect();
        let total = all.len() as u64;
        for (lo, hi) in [(0, total), (5, 40), (total - 3, total), (7, 7), (0, 1)] {
            let got: Vec<Triple> = TripleRangeIter::new(m, lo..hi).collect();
            assert_eq!(got.as_slice(), &all[lo as usize..hi as usize]);
        }
        // out-of-range clamps
        assert_eq!(TripleRangeIter::new(m, total..total + 5).count(), 0);
    }

    #[test]
    fn plan_tiles_the_range_exactly() {
        for m in [3usize, 10, 25] {
            let total = num_triples(m);
            for s in [1u64, 2, 7, 64, total + 10] {
                let plan = ShardPlan::triples(m, s);
                assert_eq!(plan.num_shards(), s);
                assert_eq!(plan.total_combos(), total);
                let mut next_rank = 0u64;
                let mut covered = 0u64;
                for (i, r) in plan.ranges().enumerate() {
                    assert_eq!(r.start, next_rank, "m={m} s={s} shard={i}");
                    next_rank = r.end;
                    covered += r.end - r.start;
                }
                assert_eq!(next_rank, total);
                assert_eq!(covered, total);
                // near-equal: sizes differ by at most 1
                let sizes: Vec<u64> = (0..s).map(|i| plan.shard_len(i)).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "m={m} s={s} sizes {lo}..{hi}");
            }
        }
    }

    #[test]
    fn shard_of_inverts_range() {
        let plan = ShardPlan::triples(13, 7);
        for rank in 0..plan.total_combos() {
            let s = plan.shard_of(rank);
            assert!(plan.range(s).contains(&rank));
        }
    }

    #[test]
    fn plan_is_deterministic() {
        assert_eq!(ShardPlan::triples(100, 64), ShardPlan::triples(100, 64));
        assert_eq!(ShardPlan::pairs(100, 8).total_combos(), 4950);
    }

    #[test]
    fn sharded_scan_matches_monolithic_all_versions() {
        let (g, p) = dataset(13, 120, 4242);
        for version in Version::ALL {
            let mut cfg = ScanConfig::new(version);
            cfg.top_k = 6;
            let want = scan(&g, &p, &cfg).top;
            for s in [1u64, 3, 17] {
                let plan = ShardPlan::triples(13, s);
                let mut merged = TopK::new(cfg.top_k);
                for r in plan.ranges() {
                    merged.merge(scan_shard(&g, &p, &cfg, r));
                }
                let got = merged.into_sorted();
                assert_eq!(got.len(), want.len(), "{version} s={s}");
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.triple, b.triple, "{version} s={s}");
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "{version} s={s}: scores must be bit-identical"
                    );
                }
                // scan_sharded wraps the same machinery
                let res = scan_sharded(&g, &p, &cfg, s);
                assert_eq!(res.top, want, "{version} s={s}");
            }
        }
    }

    #[test]
    fn sharded_stats_aggregate_the_whole_pool_and_runs_stay_warm() {
        let (g, p) = dataset(16, 100, 99);
        let mut cfg = ScanConfig::new(Version::V5);
        cfg.top_k = 4;

        // single worker, run-aware: one contiguous rank sweep — misses =
        // number of (a, b) prefixes with a continuation, C(m-1, 2)
        let (res1, stats1) = scan_sharded_with_workers(&g, &p, &cfg, 24, 1);
        assert_eq!(stats1.per_worker.len(), 1);
        assert_eq!(
            stats1.hits() + stats1.misses(),
            num_triples(16),
            "every triple consults the cache once"
        );
        assert_eq!(stats1.misses(), n_choose_k(15, 2));

        // more workers: same results bit-identically, stats cover every
        // worker, and run-aware claims keep misses within one extra
        // prefix rebuild per claim of the sequential count
        for workers in [2usize, 3, 5] {
            let (res, stats) = scan_sharded_with_workers(&g, &p, &cfg, 24, workers);
            assert_eq!(res.top, res1.top, "workers={workers}");
            assert!(stats.per_worker.len() <= workers);
            assert_eq!(stats.hits() + stats.misses(), num_triples(16));
            assert!(
                stats.misses() <= stats1.misses() + 2 * workers as u64,
                "workers={workers}: {stats:?}"
            );
            assert!(stats.min_hit_rate() <= stats.max_hit_rate());
        }

        // V1 has no pair cache: zero stats, result still right
        let cfg1 = ScanConfig::new(Version::V1);
        let workers = crate::pool::resolve_threads(cfg1.threads);
        let (_, v1_stats) = scan_sharded_with_workers(&g, &p, &cfg1, 8, workers);
        assert_eq!(v1_stats.hits() + v1_stats.misses(), 0);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let (g, p) = dataset(2, 20, 1);
        let cfg = ScanConfig::new(Version::V2);
        assert_eq!(ShardPlan::triples(2, 4).total_combos(), 0);
        assert!(scan_shard(&g, &p, &cfg, 0..0).is_empty());
        let res = scan_sharded(&g, &p, &cfg, 4);
        assert!(res.top.is_empty());
        assert_eq!(res.combos, 0);
    }

    #[test]
    fn shard_set_normalizes_and_roundtrips() {
        let mut s = ShardSet::new();
        s.insert_range(5..8);
        s.insert(9);
        s.insert(3);
        s.insert_range(0..2);
        assert_eq!(s.to_compact(), "0-1,3,5-7,9");
        assert_eq!(s.len(), 7);
        assert!(s.contains(0) && s.contains(6) && s.contains(9));
        assert!(!s.contains(2) && !s.contains(4) && !s.contains(8) && !s.contains(10));
        assert_eq!(s.max(), Some(9));
        assert_eq!(ShardSet::parse_compact(&s.to_compact()).unwrap(), s);

        // adjacency and overlap both merge
        s.insert(4); // bridges 3 and 5-7
        s.insert(2); // bridges 0-1 and 3
        assert_eq!(s.to_compact(), "0-7,9");
        s.insert_range(3..20);
        assert_eq!(s.to_compact(), "0-19");

        // the empty set renders and parses as the empty string
        assert_eq!(ShardSet::new().to_compact(), "");
        assert_eq!(ShardSet::parse_compact("").unwrap(), ShardSet::new());
        assert!(ShardSet::new().is_empty());
        assert_eq!(ShardSet::new().max(), None);

        // malformed forms fail loudly
        assert!(ShardSet::parse_compact("3-1").is_err());
        assert!(ShardSet::parse_compact("a-b").is_err());
        assert!(ShardSet::parse_compact("1,,2").is_err());
    }

    #[test]
    fn shard_set_difference_and_split() {
        let assigned = ShardSet::from_range(0..20);
        let done = ShardSet::parse_compact("0-4,7,12-19").unwrap();
        let undone = assigned.difference(&done);
        assert_eq!(undone.to_compact(), "5-6,8-11");
        assert_eq!(undone.len(), 6);
        // difference with self / empty
        assert!(assigned.difference(&assigned).is_empty());
        assert_eq!(assigned.difference(&ShardSet::new()), assigned);
        assert!(ShardSet::new().difference(&assigned).is_empty());

        // split covers everything exactly once, near-equally
        let chunks = undone.split_chunks(3);
        assert_eq!(chunks.len(), 3);
        let mut rebuilt = ShardSet::new();
        let mut sizes = Vec::new();
        for c in &chunks {
            sizes.push(c.len());
            for i in c.iter() {
                assert!(!rebuilt.contains(i), "chunk overlap at {i}");
                rebuilt.insert(i);
            }
        }
        assert_eq!(rebuilt, undone);
        assert_eq!(sizes.iter().sum::<u64>(), 6);
        assert!(sizes.iter().all(|&s| s == 2));

        // more chunks than elements: trailing chunks are empty
        let chunks = ShardSet::from_range(0..2).split_chunks(4);
        assert_eq!(chunks.iter().map(ShardSet::len).sum::<u64>(), 2);
    }

    #[test]
    fn shard_set_random_ops_agree_with_a_naive_model() {
        // differential check of insert/contains/difference against a
        // Vec<bool> model across random operation sequences
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        const N: u64 = 64;
        for _ in 0..200 {
            let mut set = ShardSet::new();
            let mut model = [false; N as usize];
            for _ in 0..12 {
                let lo = next() % N;
                let hi = (lo + next() % 8).min(N);
                set.insert_range(lo..hi);
                for i in lo..hi {
                    model[i as usize] = true;
                }
            }
            for i in 0..N {
                assert_eq!(set.contains(i), model[i as usize], "index {i}");
            }
            assert_eq!(set.len(), model.iter().filter(|&&b| b).count() as u64);
            assert_eq!(ShardSet::parse_compact(&set.to_compact()).unwrap(), set);
            // ranges are normalized: sorted, disjoint, non-adjacent
            for w in set.ranges().windows(2) {
                assert!(w[0].end < w[1].start, "{set:?}");
            }

            let mut other = ShardSet::new();
            for _ in 0..6 {
                let lo = next() % N;
                let hi = (lo + next() % 8).min(N);
                other.insert_range(lo..hi);
            }
            let diff = set.difference(&other);
            for i in 0..N {
                assert_eq!(
                    diff.contains(i),
                    set.contains(i) && !other.contains(i),
                    "difference at {i}"
                );
            }
        }
    }
}
