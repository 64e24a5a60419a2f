//! Cross-tier differential test harness (PR 4).
//!
//! The paper's central correctness claim is that every kernel
//! configuration — SIMD tier, interaction order, cache budget — produces
//! **bit-identical** results. Hand-spot-checking that configuration space
//! does not scale (SMSI's argument for systematic configuration
//! verification), so this harness sweeps it mechanically: the same
//! randomized scans run at every host-supported `SimdLevel` × orders
//! 2–4 × cross-pair budgets {0, tiny, detected, huge}, and every cell
//! table and top-K list is compared against the scalar reference.
//!
//! On a mismatch the assertion message leads with a minimal repro spec
//! (`repro: m=.. n=.. seed=.. simd=.. order=.. budget=..`) so a failure
//! seen in a forced-tier CI shard can be replayed locally in one line.
//!
//! Environment knobs (the CI forced-tier matrix drives all three):
//! * `EPI3_SIMD=<tier>` — restrict the tier sweep to {scalar, tier}
//!   (clamped to the host), mirroring the CLI/server override;
//! * `EPI3_DIFF_CASES=N` — randomized cases per test (default 4);
//! * `EPI3_DIFF_THREADS=N` — restrict the thread-invariance sweep to
//!   {1, N} (default {1, 2, 3, 7}); CI runs the matrix legs at 4.
//!
//! PR 6 adds the distribution axis: the same scan federated over
//! loopback fleets of real epi-servers (1 node, 2 nodes, and 2 nodes
//! with one killed mid-scan) must merge bit-identically to the scalar
//! monolithic reference.

use std::collections::HashMap;
use threeway_epistasis::bitgenome::{GenotypeMatrix, Phenotype, SimdLevel, SplitDataset};
use threeway_epistasis::epi_core::k2::{K2Scorer, Objective};
use threeway_epistasis::epi_core::result::{TopK, Triple};
use threeway_epistasis::epi_core::table27::ContingencyTable;
use threeway_epistasis::epi_core::versions::{BlockedScanner, V5Scratch};
use threeway_epistasis::epi_core::{kway, BlockParams, PrefixCache};

/// Minimal repro spec printed first in every assertion message.
#[derive(Clone, Copy)]
struct Repro {
    m: usize,
    n: usize,
    seed: u64,
    simd: SimdLevel,
    order: usize,
    budget: Option<usize>,
}

impl std::fmt::Display for Repro {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "repro: m={} n={} seed={} simd={} order={}",
            self.m,
            self.n,
            self.seed,
            self.simd.token(),
            self.order
        )?;
        if let Some(b) = self.budget {
            write!(f, " budget={b}")?;
        }
        Ok(())
    }
}

/// Tiers under test: all host-supported ones, or {scalar, forced} when
/// the EPI3_SIMD override is set (the CI matrix mode).
fn tiers_under_test() -> Vec<SimdLevel> {
    match std::env::var("EPI3_SIMD") {
        Ok(name) if !name.is_empty() => {
            let forced = SimdLevel::parse_token(&name)
                .expect("EPI3_SIMD must name a valid tier")
                .clamped_to_host();
            let mut tiers = vec![SimdLevel::Scalar];
            if forced != SimdLevel::Scalar {
                tiers.push(forced);
            }
            tiers
        }
        _ => SimdLevel::available(),
    }
}

/// Randomized cases per test (`EPI3_DIFF_CASES`, default 4).
fn case_count() -> u64 {
    std::env::var("EPI3_DIFF_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

/// Worker counts of the thread-invariance sweep: {1, N} under the
/// `EPI3_DIFF_THREADS` override (the CI matrix mode), {1, 2, 3, 7}
/// otherwise. Counts above the host's cores still exercise real
/// multi-worker interleaving — the pool spawns them; the OS timeslices.
fn threads_under_test() -> Vec<usize> {
    match std::env::var("EPI3_DIFF_THREADS") {
        Ok(n) if !n.is_empty() => {
            let n: usize = n.parse().expect("EPI3_DIFF_THREADS must be a number");
            assert!(n > 0, "EPI3_DIFF_THREADS must be positive");
            if n == 1 {
                vec![1]
            } else {
                vec![1, n]
            }
        }
        _ => vec![1, 2, 3, 7],
    }
}

/// The four budget settings of the sweep: disabled, too tiny to admit
/// anything realistic, the host-adaptive detected budget, and unbounded.
fn budget_settings() -> [(&'static str, usize); 4] {
    [
        ("0", 0),
        ("tiny", 4096),
        ("detected", BlockParams::with_detected_budget()),
        ("huge", usize::MAX),
    ]
}

fn dataset(m: usize, n: usize, seed: u64) -> (GenotypeMatrix, Phenotype) {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
    let mut next = move || {
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

/// Collect every cell table and the K2 top-K of a blocked V5 scan at one
/// (tier, budget, block shape) configuration.
fn v5_tables_and_topk(
    ds: &SplitDataset,
    params: BlockParams,
    level: SimdLevel,
    budget: usize,
    top_k: usize,
) -> (HashMap<Triple, ContingencyTable>, Vec<(u64, Triple)>) {
    let scanner = BlockedScanner::new(ds, params, level).with_cross_pair_budget(budget);
    let scorer = K2Scorer::new(ds.num_samples());
    let mut tables = HashMap::new();
    let mut top = TopK::new(top_k);
    let mut scratch = V5Scratch::new();
    for bt in scanner.tasks() {
        scanner.scan_block_triple_v5(bt, &mut scratch, &mut |t, ctrl, case| {
            let table = ContingencyTable::from_counts(*ctrl, *case);
            top.push(scorer.score(&table), t);
            let prev = tables.insert(t, table);
            assert!(prev.is_none(), "triple {t:?} emitted twice");
        });
    }
    let top = top
        .into_sorted()
        .into_iter()
        .map(|c| (c.score.to_bits(), c.triple))
        .collect();
    (tables, top)
}

/// The tentpole sweep: order 3 through the blocked V5 kernel at every
/// tier × budget, orders 2 and 4 through the k-way prefix cache at every
/// tier — all against scalar/seed-kernel references, bit-exact.
#[test]
fn differential_matrix_is_bit_identical_to_scalar() {
    let tiers = tiers_under_test();
    assert!(!tiers.is_empty() && tiers[0] == SimdLevel::Scalar);
    println!(
        "differential matrix: tiers {:?} x orders 2-4 x budgets {:?} x {} cases",
        tiers.iter().map(|l| l.token()).collect::<Vec<_>>(),
        budget_settings().map(|(name, _)| name),
        case_count(),
    );

    for case in 0..case_count() {
        let seed = 0xD1FF + case * 7919;
        let m = 9 + (case as usize % 3) * 2; // 9, 11, 13 SNPs
        let n = 96 + (case as usize % 4) * 33; // awkward sample counts
        let (g, p) = dataset(m, n, seed);
        let ds = SplitDataset::encode(&g, &p);
        let params = BlockParams { bs: 3, bp: 64 };

        // ---- order 3: scalar reference, then the tier x budget sweep
        let (ref_tables, ref_top) = v5_tables_and_topk(
            &ds,
            params,
            SimdLevel::Scalar,
            BlockParams::with_detected_budget(),
            8,
        );
        for &level in &tiers {
            for (bname, budget) in budget_settings() {
                let repro = Repro {
                    m,
                    n,
                    seed,
                    simd: level,
                    order: 3,
                    budget: Some(budget),
                };
                let (tables, top) = v5_tables_and_topk(&ds, params, level, budget, 8);
                assert_eq!(
                    tables.len(),
                    ref_tables.len(),
                    "{repro} ({bname}): combination coverage differs"
                );
                for (t, table) in &tables {
                    assert_eq!(
                        table, &ref_tables[t],
                        "{repro} ({bname}): cell table differs at {t:?}"
                    );
                }
                assert_eq!(
                    top, ref_top,
                    "{repro} ({bname}): top-K differs from scalar reference"
                );
            }
        }

        // ---- orders 2 and 4: k-way prefix cache vs the seed kernel
        let km = 7.min(m); // keep C(m,4) sweeps cheap
        let (kg, kp) = dataset(km, n, seed ^ 0xABCD);
        let kds = SplitDataset::encode(&kg, &kp);
        for order in [2usize, 4] {
            let mut combos: Vec<Vec<usize>> = Vec::new();
            threeway_epistasis::epi_core::combin::for_each_combo(
                km,
                order,
                &mut |c: &[usize]| combos.push(c.to_vec()),
            );
            let reference: Vec<_> = combos
                .iter()
                .map(|c| kway::table_for_combo(&kds, c))
                .collect();
            for &level in &tiers {
                let repro = Repro {
                    m: km,
                    n,
                    seed,
                    simd: level,
                    order,
                    budget: None,
                };
                let mut cache = PrefixCache::new(order, level);
                for (c, want) in combos.iter().zip(&reference) {
                    assert_eq!(
                        cache.table_for_combo(&kds, c),
                        *want,
                        "{repro}: order-{order} table differs at {c:?}"
                    );
                }
            }
        }
    }
}

/// The PR 5 axis: thread-count invariance of the run-aware pool on the
/// blocked V5 path with the cross-pair cache enabled. For every tier ×
/// worker count the **entire score surface** must be bit-identical to
/// the single-threaded scalar reference: `top_k` is set to `C(m, 3)`,
/// so the comparison covers every combination's score and triple, not
/// just the winners — a wrong cell in any table on any worker cannot
/// hide.
#[test]
fn blocked_v5_is_thread_and_scheduler_invariant() {
    use threeway_epistasis::epi_core::scan::{
        scan_split, scan_split_with_workers, ScanConfig, Version,
    };

    let threads = threads_under_test();
    println!(
        "thread invariance: tiers {:?} x workers {threads:?} (run-aware claims)",
        tiers_under_test()
            .iter()
            .map(|l| l.token())
            .collect::<Vec<_>>(),
    );
    for case in 0..case_count() {
        let seed = 0x7A6B + case * 6151;
        let m = 10 + (case as usize % 3) * 2; // 10, 12, 14 SNPs
        let n = 90 + (case as usize % 4) * 21;
        let (g, p) = dataset(m, n, seed);
        let ds = SplitDataset::encode(&g, &p);
        let all = threeway_epistasis::epi_core::combin::num_triples(m) as usize;

        let mut ref_cfg = ScanConfig::new(Version::V5);
        ref_cfg.top_k = all;
        ref_cfg.simd = Some(SimdLevel::Scalar);
        ref_cfg.threads = 1;
        let want = scan_split(&ds, &ref_cfg).top;
        assert_eq!(want.len(), all);

        for level in tiers_under_test() {
            for &workers in &threads {
                let repro = Repro {
                    m,
                    n,
                    seed,
                    simd: level,
                    order: 3,
                    budget: None,
                };
                let mut cfg = ScanConfig::new(Version::V5);
                cfg.top_k = all;
                cfg.simd = Some(level);
                // exact worker counts (not host-clamped): >1 worker
                // must interleave for real even on small CI boxes
                let (res, stats) = scan_split_with_workers(&ds, &cfg, workers);
                assert_eq!(res.top.len(), want.len(), "{repro} workers={workers}");
                for (a, b) in res.top.iter().zip(&want) {
                    assert_eq!(a.triple, b.triple, "{repro} workers={workers}");
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "{repro} workers={workers}: score must be bit-identical"
                    );
                }
                // the cache was actually exercised (the invariance
                // must not be vacuous) and every task consulted it
                let stats = stats.expect("V5 reports cross-pair stats");
                assert!(
                    stats.hits() + stats.misses() > 0,
                    "{repro}: cross-pair cache never consulted"
                );
            }
        }
    }
}

/// The PR 6 axis: multi-node federation. One spec, four execution
/// shapes — monolithic, a 1-node fleet, a 2-node fleet, and a 2-node
/// fleet that loses a member mid-scan — must all produce bit-identical
/// top-Ks. The fleet legs run at every tier under test (the spec's
/// `simd=` key forces the servers' kernels); the kill leg runs once at
/// the default tier, with a watcher thread that waits for the victim to
/// complete at least one shard before shutting it down, so work is
/// genuinely lost and reassigned rather than never started.
#[test]
fn federated_scan_matches_monolithic_at_every_tier() {
    use std::time::Duration;
    use threeway_epistasis::datagen;
    use threeway_epistasis::epi_coord::{federate, FederationConfig};
    use threeway_epistasis::epi_core::scan::{scan, ScanConfig, Version};
    use threeway_epistasis::epi_server::{Client, EngineConfig, JobSpec, Server, ServerHandle};

    fn fleet(n: usize) -> (Vec<String>, Vec<ServerHandle>) {
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..n {
            let server = Server::bind(
                "127.0.0.1:0",
                EngineConfig {
                    workers: 0,
                    spool_dir: None,
                    default_simd: None,
                    dataset_root: None,
                    ..EngineConfig::default()
                },
            )
            .expect("bind loopback");
            addrs.push(server.local_addr().to_string());
            handles.push(server.spawn());
        }
        (addrs, handles)
    }
    fn config(addrs: Vec<String>) -> FederationConfig {
        let mut cfg = FederationConfig::new(addrs);
        cfg.poll_cap = Duration::from_millis(20);
        cfg.steal_patience = Duration::from_millis(50);
        cfg
    }

    let (m, n, seed) = (20usize, 160usize, 0xFED5EED);
    let data = datagen::DatasetSpec::noise(m, n, seed).generate();
    let dir = std::env::temp_dir().join("epi3_differential");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("fed-{}.epi3", std::process::id()));
    datagen::io::save_binary(&path, &data).unwrap();
    let path_s = path.to_string_lossy().into_owned();

    // the monolithic reference: scalar, single-threaded
    let mut ref_cfg = ScanConfig::new(Version::V5);
    ref_cfg.top_k = 8;
    ref_cfg.simd = Some(SimdLevel::Scalar);
    ref_cfg.threads = 1;
    let want = scan(&data.genotypes, &data.phenotype, &ref_cfg).top;
    assert_eq!(want.len(), 8);

    for level in tiers_under_test() {
        for nodes in [1usize, 2] {
            let repro = Repro {
                m,
                n,
                seed,
                simd: level,
                order: 3,
                budget: None,
            };
            let (addrs, handles) = fleet(nodes);
            let mut spec = JobSpec::new(&path_s);
            spec.shards = 12;
            spec.top_k = 8;
            spec.simd = Some(level);
            let report = federate(&spec, &config(addrs)).expect("federation");
            for h in handles {
                h.shutdown();
            }
            assert_eq!(report.top.len(), want.len(), "{repro} nodes={nodes}");
            for (a, b) in report.top.iter().zip(&want) {
                assert_eq!(a.triple, b.triple, "{repro} nodes={nodes}");
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "{repro} nodes={nodes}: federated score must be bit-identical"
                );
            }
        }
    }

    // the fault leg: one of two nodes dies mid-scan; the merge must not
    // notice (exact shard accounting makes re-execution duplicate-free)
    {
        let (addrs, mut handles) = fleet(2);
        let mut spec = JobSpec::new(&path_s);
        spec.shards = 12;
        spec.top_k = 8;
        spec.throttle_ms = 25; // keep the victim mid-scan long enough to die there
        let victim = addrs[1].clone();
        let killer = std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            while std::time::Instant::now() < deadline {
                if let Ok(mut c) =
                    Client::connect_with_deadline(victim.as_str(), Duration::from_secs(2))
                {
                    let progressed = c
                        .jobs()
                        .map(|js| js.iter().any(|j| j.done >= 1 && j.done < j.total));
                    if matches!(progressed, Ok(true)) {
                        let _ = c.shutdown();
                        return;
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            panic!("victim never made progress");
        });
        let report = federate(&spec, &config(addrs.clone())).expect("federation survives the kill");
        killer.join().unwrap();
        assert_eq!(
            report.dead_nodes,
            vec![addrs[1].clone()],
            "the killed node must be declared dead"
        );
        assert_eq!(report.top.len(), want.len(), "killed-node leg");
        for (a, b) in report.top.iter().zip(&want) {
            assert_eq!(a.triple, b.triple, "killed-node leg");
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "killed-node leg: score must be bit-identical"
            );
        }
        handles.remove(1); // killed itself; shutdown() would hang
        for h in handles {
            h.shutdown();
        }
    }

    // the crash leg: the *coordinator* dies mid-merge and a fresh one
    // resumes from the spooled checkpoint; adopted shards are never
    // rescanned, and the merged top-K must still match the monolithic
    // reference bit for bit
    {
        use threeway_epistasis::epi_coord::resume_from_spool;
        let (addrs, handles) = fleet(2);
        let spool = dir.join(format!("fed-{}.fedckpt", std::process::id()));
        let mut spec = JobSpec::new(&path_s);
        spec.shards = 12;
        spec.top_k = 8;
        spec.throttle_ms = 5; // slow enough for >=4 merge batches to spool
        let mut cfg = config(addrs.clone());
        cfg.spool_path = Some(spool.clone());
        cfg.fail_after_merges = Some(4);
        let err = federate(&spec, &cfg).expect_err("injected coordinator crash must fire");
        assert!(err.contains("injected coordinator crash"), "{err}");
        cfg.fail_after_merges = None;
        let report = resume_from_spool(&spool, &cfg).expect("resume from spool");
        for h in handles {
            h.shutdown();
        }
        assert!(
            report.resumed_merged >= 4,
            "resume must adopt the checkpointed shards, got {}",
            report.resumed_merged
        );
        assert_eq!(report.top.len(), want.len(), "crash-resume leg");
        for (a, b) in report.top.iter().zip(&want) {
            assert_eq!(a.triple, b.triple, "crash-resume leg");
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "crash-resume leg: score must be bit-identical"
            );
        }
        let _ = std::fs::remove_file(&spool);
        let _ = std::fs::remove_file(spool.with_extension("fedckpt.prev"));
    }

    let _ = std::fs::remove_file(&path);
}

/// The sharded order-3 path (the epi-server inner loop) at every tier:
/// merged shard top-Ks must be bit-identical to the scalar monolithic
/// scan, with the worker-held prefix cache warm across shard boundaries.
#[test]
fn sharded_scan_matches_scalar_monolithic_at_every_tier() {
    use threeway_epistasis::epi_core::scan::{scan_split, ScanConfig, Version};
    use threeway_epistasis::epi_core::shard::{scan_shard_split_cached, ShardPlan};
    use threeway_epistasis::epi_core::PairPrefixCache;

    for case in 0..case_count() {
        let seed = 0x5A4D + case * 104729;
        let (m, n) = (12, 100 + (case as usize % 3) * 15);
        let (g, p) = dataset(m, n, seed);
        let ds = SplitDataset::encode(&g, &p);

        let mut ref_cfg = ScanConfig::new(Version::V5);
        ref_cfg.top_k = 6;
        ref_cfg.simd = Some(SimdLevel::Scalar);
        ref_cfg.threads = 1;
        let want = scan_split(&ds, &ref_cfg).top;

        for level in tiers_under_test() {
            let repro = Repro {
                m,
                n,
                seed,
                simd: level,
                order: 3,
                budget: None,
            };
            let mut cfg = ScanConfig::new(Version::V5);
            cfg.top_k = 6;
            cfg.simd = Some(level);
            cfg.threads = 1;
            let plan = ShardPlan::triples(m, 9);
            let mut cache = PairPrefixCache::new(level);
            let mut merged = TopK::new(cfg.top_k);
            for range in plan.ranges() {
                merged.merge(scan_shard_split_cached(&ds, &cfg, range, &mut cache));
            }
            let got = merged.into_sorted();
            assert_eq!(got.len(), want.len(), "{repro}");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.triple, b.triple, "{repro}");
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "{repro}: shard-merged score must be bit-identical"
                );
            }
        }
    }
}
