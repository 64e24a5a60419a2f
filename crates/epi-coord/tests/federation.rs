//! End-to-end federation over loopback fleets of real epi-servers:
//! bit-identical merges, dead-node recovery, and straggler stealing.

use epi_coord::{federate, partition, FederationConfig, StealReason};
use epi_core::result::Candidate;
use epi_core::scan::{ScanConfig, Version};
use epi_core::shard::ShardSet;
use epi_server::{Client, EngineConfig, JobSpec, Server, ServerHandle};
use std::net::SocketAddr;
use std::time::Duration;

fn write_dataset(tag: &str, m: usize, n: usize, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("epi_coord_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}-{m}x{n}-{seed}.epi3", std::process::id()));
    let data = datagen::DatasetSpec::with_planted_triple(m, n, [2, 7, 11], seed).generate();
    datagen::io::save_binary(&path, &data).unwrap();
    path
}

fn spawn_fleet(workers: &[usize]) -> (Vec<SocketAddr>, Vec<ServerHandle>) {
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for &w in workers {
        let server = Server::bind(
            "127.0.0.1:0",
            EngineConfig {
                workers: w,
                spool_dir: None,
                default_simd: None,
                dataset_root: None,
                ..EngineConfig::default()
            },
        )
        .expect("bind loopback");
        addrs.push(server.local_addr());
        handles.push(server.spawn());
    }
    (addrs, handles)
}

fn monolithic(path: &std::path::Path, top_k: usize) -> Vec<Candidate> {
    let (g, p) = datagen::io::load(path).unwrap();
    let mut cfg = ScanConfig::new(Version::V5);
    cfg.top_k = top_k;
    epi_core::scan::scan(&g, &p, &cfg).top
}

fn assert_bit_identical(got: &[Candidate], want: &[Candidate]) {
    assert_eq!(got.len(), want.len(), "candidate count");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.triple, b.triple);
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "triple {:?}",
            a.triple
        );
    }
}

fn test_config(addrs: &[SocketAddr]) -> FederationConfig {
    let mut cfg = FederationConfig::new(addrs.iter().map(|a| a.to_string()).collect());
    cfg.rpc_deadline = Duration::from_secs(2);
    cfg.max_rpc_failures = 2;
    cfg.steal_patience = Duration::from_millis(50);
    cfg.poll_cap = Duration::from_millis(20);
    cfg.overall_deadline = Duration::from_secs(120);
    cfg
}

#[test]
fn partition_tiles_the_plan_exactly() {
    for (shards, nodes) in [(16u64, 4usize), (7, 3), (5, 8), (1, 1), (64, 5)] {
        let parts = partition(shards, nodes);
        assert_eq!(parts.len(), nodes);
        let mut union = ShardSet::new();
        let mut total = 0;
        for p in &parts {
            for s in p.iter() {
                assert!(!union.contains(s), "overlap at shard {s}");
                union.insert(s);
            }
            total += p.len();
        }
        assert_eq!(total, shards, "{shards} shards over {nodes} nodes");
        assert_eq!(union, ShardSet::from_range(0..shards));
    }
}

#[test]
fn two_node_federation_merges_bit_identical_to_monolithic() {
    let path = write_dataset("twonode", 24, 256, 5);
    let want = monolithic(&path, 8);
    // two 2-worker nodes, then four 1-worker nodes
    for fleet in [&[2usize, 2][..], &[1, 1, 1, 1]] {
        let (addrs, handles) = spawn_fleet(fleet);
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 16;
        spec.top_k = 8;

        let report = federate(&spec, &test_config(&addrs)).expect("federation");
        assert_bit_identical(&report.top, &want);
        assert_eq!(report.num_shards, 16);
        assert!(report.dead_nodes.is_empty());
        // every node contributed, and every shard is attributed exactly once
        let contributed: u64 = report.per_node_shards.iter().map(|(_, n)| n).sum();
        assert_eq!(contributed, 16);
        assert!(
            report.per_node_shards.iter().all(|(_, n)| *n > 0),
            "every node should do work: {:?}",
            report.per_node_shards
        );

        for h in handles {
            h.shutdown();
        }
    }
}

#[test]
fn single_node_federation_degenerates_cleanly() {
    let path = write_dataset("onenode", 18, 192, 9);
    let (addrs, handles) = spawn_fleet(&[2]);
    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 6;
    spec.top_k = 5;
    let report = federate(&spec, &test_config(&addrs)).expect("federation");
    assert_bit_identical(&report.top, &monolithic(&path, 5));
    assert!(report.steals.is_empty());
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn killed_node_mid_scan_is_survived_bit_identically() {
    let path = write_dataset("killed", 22, 224, 13);
    let (addrs, mut handles) = spawn_fleet(&[2, 2]);
    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 16;
    spec.top_k = 8;
    spec.throttle_ms = 25; // keep the victim mid-scan long enough to die there

    // killer thread: wait until the victim (node 1) has completed at
    // least one shard of its sub-job, then SHUTDOWN it mid-scan
    let victim_addr = addrs[1];
    let killer = std::thread::spawn(move || {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            assert!(
                std::time::Instant::now() < deadline,
                "victim never made progress"
            );
            if let Ok(mut c) = Client::connect_with_deadline(victim_addr, Duration::from_secs(2)) {
                let progressed = c
                    .jobs()
                    .map(|jobs| jobs.iter().any(|j| j.done >= 1 && j.done < j.total));
                if matches!(progressed, Ok(true)) {
                    let _ = c.shutdown();
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    let report = federate(&spec, &test_config(&addrs)).expect("federation survives the kill");
    killer.join().unwrap();

    assert_bit_identical(&report.top, &monolithic(&path, 8));
    assert_eq!(
        report.dead_nodes,
        vec![addrs[1].to_string()],
        "the killed node must be declared dead"
    );
    // its unfinished shards moved to the survivor
    assert!(
        report
            .steals
            .iter()
            .any(|s| s.reason == StealReason::DeadNode && s.from == addrs[1].to_string()),
        "expected a dead-node reassignment, got {:?}",
        report.steals
    );
    // every shard still attributed exactly once
    let contributed: u64 = report.per_node_shards.iter().map(|(_, n)| n).sum();
    assert_eq!(contributed, 16);

    handles.remove(1); // killed itself; joining its handle would hang on shutdown()
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn straggler_work_is_stolen_by_the_idle_node() {
    let path = write_dataset("straggler", 20, 192, 21);
    let (addrs, handles) = spawn_fleet(&[1, 1]);

    // Make node 1 the straggler: the engine's shard queue is FIFO across
    // jobs, so a throttled background job submitted first keeps node 1's
    // federation sub-job queued for ~360 ms while node 0 races ahead.
    // (Worker-count asymmetry can't be used here: single-core CI hosts
    // clamp every pool to one worker.)
    let mut bg = JobSpec::new(path.to_str().unwrap());
    bg.shards = 12;
    bg.top_k = 1;
    bg.throttle_ms = 30;
    Client::connect(addrs[1]).unwrap().submit(&bg).unwrap();

    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 16;
    spec.top_k = 6;
    spec.throttle_ms = 10; // node 0 drains its 8 shards in ~80 ms, then idles

    let report = federate(&spec, &test_config(&addrs)).expect("federation");
    assert_bit_identical(&report.top, &monolithic(&path, 6));
    assert!(report.dead_nodes.is_empty());
    assert!(
        report
            .steals
            .iter()
            .any(|s| s.reason == StealReason::Straggler
                && s.from == addrs[1].to_string()
                && s.to == addrs[0].to_string()),
        "fast node should steal from the slow one, got {:?}",
        report.steals
    );
    let contributed: u64 = report.per_node_shards.iter().map(|(_, n)| n).sum();
    assert_eq!(contributed, 16);

    for h in handles {
        h.shutdown();
    }
}

#[test]
fn config_errors_are_caught_before_any_rpc() {
    let spec = JobSpec::new("/data/x.epi3");
    assert!(federate(&spec, &FederationConfig::new(vec![])).is_err());
    let mut preset = spec.clone();
    preset.shard_set = Some(ShardSet::from_range(0..1));
    let cfg = FederationConfig::new(vec!["127.0.0.1:1".into()]);
    assert!(federate(&preset, &cfg).is_err());
}

#[test]
fn a_fully_dead_fleet_is_a_clean_error() {
    // reserved ports: nothing listens, connects are refused instantly
    let mut cfg = FederationConfig::new(vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()]);
    cfg.rpc_deadline = Duration::from_millis(300);
    cfg.max_rpc_failures = 2;
    cfg.overall_deadline = Duration::from_secs(30);
    let mut spec = JobSpec::new("/data/x.epi3");
    spec.shards = 8;
    let err = federate(&spec, &cfg).unwrap_err();
    assert!(err.contains("dead"), "unhelpful error: {err}");
}

#[test]
fn over_capacity_node_is_routed_around_not_declared_dead() {
    let path = write_dataset("backpressure", 20, 224, 31);

    // node 0 is healthy; node 1 has a 1-byte memory budget and refuses
    // every SUBMIT with `over capacity` — backpressure, not death
    let healthy = Server::bind(
        "127.0.0.1:0",
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
    )
    .expect("bind healthy node");
    let full = Server::bind(
        "127.0.0.1:0",
        EngineConfig {
            workers: 1,
            mem_budget: Some(1),
            ..EngineConfig::default()
        },
    )
    .expect("bind full node");
    let addrs = vec![healthy.local_addr(), full.local_addr()];
    let handles = vec![healthy.spawn(), full.spawn()];

    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 8;
    spec.top_k = 6;
    // a tight RPC deadline keeps the client's own over-capacity retry
    // loop short, so each refusal costs about a second, not thirty
    let mut cfg = test_config(&addrs);
    cfg.rpc_deadline = Duration::from_secs(1);

    let report = federate(&spec, &cfg).expect("federation completes despite backpressure");
    assert_bit_identical(&report.top, &monolithic(&path, 6));

    // the refusing node was treated as busy and routed around: it is
    // neither dead nor quarantined, and the healthy node absorbed the
    // requeued partition
    assert!(
        report.dead_nodes.is_empty(),
        "over capacity must not kill a node: {:?}",
        report.dead_nodes
    );
    assert!(report.quarantined.is_empty());
    let contributed: u64 = report.per_node_shards.iter().map(|(_, n)| n).sum();
    assert_eq!(contributed, 8);
    assert!(
        report
            .per_node_shards
            .iter()
            .all(|(a, n)| *n == 0 || *a == addrs[0].to_string()),
        "every merged shard should come from the healthy node: {:?}",
        report.per_node_shards
    );

    for h in handles {
        h.shutdown();
    }
}
