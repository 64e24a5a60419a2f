//! Smoke mode: every workload on tiny cohorts, untraced and traced. Each
//! run must be correct and report exactly the metrics `BENCHMARK.json`
//! declares, all finite.

use perfbench::{run, Options, Workload};
use std::path::PathBuf;

/// Metric names of one section (`end_to_end` or `per_layer`) of the
/// repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.trim().trim_start_matches('"'))
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

fn smoke(workload: Workload, seed: u64, trace: bool) {
    let opts = Options {
        workload,
        seed,
        seconds: 0.5,
        trace,
        smoke: true,
        work_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    };
    let out = run(&opts).expect("smoke run");
    assert!(out.correct, "{workload:?}: {out:?}");
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
    let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(got, want, "{workload:?} trace={trace}");
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let line = out.to_json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
}

#[test]
fn wide_smoke() {
    smoke(Workload::Wide, 1, false);
    smoke(Workload::Wide, 2, true);
}

#[test]
fn tall_smoke() {
    smoke(Workload::Tall, 3, false);
    smoke(Workload::Tall, 4, true);
}

#[test]
fn service_smoke() {
    smoke(Workload::Service, 5, false);
    smoke(Workload::Service, 6, true);
}
