//! The timed operations, each called through the layer's public API and
//! checked against its cohort's reference.

use crate::check::check_top;
use crate::inputs::Cohort;
use crate::stats::ms;
use crate::Ctx;
use epi_coord::{federate, FederationConfig};
use epi_core::scan::{ScanConfig, Version};
use epi_core::Candidate;
use epi_server::{Client, JobSpec, JobState};
use std::time::{Duration, Instant};

/// STATUS poll interval while a job runs: fixed, so the time to notice
/// completion is bounded by one interval and is the same on every run.
pub const POLL: Duration = Duration::from_millis(1);

/// Bound on any one job; a job still running after it counts as failed.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// Connect/read/write deadline of every benchmark connection.
pub const RPC_DEADLINE: Duration = Duration::from_secs(60);

pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Client, String> {
    Client::connect_with_deadline(addr, RPC_DEADLINE).map_err(|e| format!("connect: {e}"))
}

/// The V5 scan configuration every ladder scan runs at.
pub fn v5_config(ctx: &Ctx, threads: usize) -> ScanConfig {
    let mut cfg = ScanConfig::new(Version::V5);
    cfg.top_k = crate::check::TOP_K;
    cfg.threads = threads;
    cfg.simd = Some(ctx.simd);
    cfg
}

/// One served job, timed from sending SUBMIT to receiving the RESULT.
#[derive(Clone, Copy, Debug)]
pub struct JobRun {
    pub total_ms: f64,
    pub submit_ms: f64,
    /// From the SUBMIT ack to the first STATUS showing a shard in flight
    /// or done.
    pub queue_wait_ms: f64,
    pub result_ms: f64,
    pub polls: u64,
    /// Whether spans were recorded around this job.
    pub traced: bool,
}

/// Submit `spec`, poll STATUS every [`POLL`] until the job is stable,
/// fetch the RESULT and check it against `reference`.
pub fn run_job(
    ctx: &Ctx,
    client: &mut Client,
    spec: &JobSpec,
    reference: &[Candidate],
    req: u64,
) -> Result<JobRun, String> {
    let traced = ctx.tracer.enabled();
    let _op = ctx.tracer.span("client.job", req);
    let start = Instant::now();
    let ack = {
        let _s = ctx.tracer.span("client.submit", req);
        client.submit(spec)?
    };
    let acked = Instant::now();
    let mut polls = 0;
    let mut started = None;
    loop {
        let st = {
            let _s = ctx.tracer.span("client.status", req);
            client.status(ack.id)?
        };
        polls += 1;
        let now = Instant::now();
        if started.is_none() && (st.in_flight > 0 || st.done > 0) {
            started = Some(now);
        }
        if st.is_stable() {
            if st.state != JobState::Done {
                return Err(format!(
                    "job {} ended {} ({})",
                    st.id,
                    st.state,
                    st.error.unwrap_or_default()
                ));
            }
            break;
        }
        if now.duration_since(start) > JOB_TIMEOUT {
            return Err(format!("job {} timed out after {JOB_TIMEOUT:?}", st.id));
        }
        std::thread::sleep(POLL);
    }
    let fetch = Instant::now();
    let top = {
        let _s = ctx.tracer.span("client.result", req);
        client.result(ack.id)?
    };
    let end = Instant::now();
    check_top(&top, reference)?;
    Ok(JobRun {
        total_ms: ms(end - start),
        submit_ms: ms(acked - start),
        queue_wait_ms: ms(started.unwrap_or(fetch).saturating_duration_since(acked)),
        result_ms: ms(end - fetch),
        polls,
        traced,
    })
}

/// Monolithic V5 scan at two workers, timed around `epi_core::scan`
/// (encoding included). Returns milliseconds.
pub fn scan_op(ctx: &Ctx, cohort: &Cohort, req: u64) -> Result<f64, String> {
    let cfg = v5_config(ctx, 2);
    let start = Instant::now();
    let res = {
        let _s = ctx.tracer.span("core.scan", req);
        epi_core::scan(&cohort.data.genotypes, &cohort.data.phenotype, &cfg)
    };
    let took = ms(start.elapsed());
    check_top(&res.top, &cohort.reference)?;
    Ok(took)
}

/// One federated run over the fleet with the default configuration.
#[derive(Clone, Copy, Debug)]
pub struct FleetRun {
    pub total_ms: f64,
    pub steals: usize,
    /// Most shards any node merged over the mean per node (1 = balanced).
    pub skew: f64,
}

pub fn fleet_op(
    ctx: &Ctx,
    nodes: &[String],
    cohort: &Cohort,
    req: u64,
) -> Result<FleetRun, String> {
    let cfg = FederationConfig::new(nodes.to_vec());
    // A token per federated run: the coordinator derives its sub-job
    // tokens from it, and without one every run derives the same tokens,
    // so the nodes would echo the previous run's finished sub-jobs
    // instead of scanning (see `repeat_scanned_shards`).
    let mut spec = cohort.spec.clone();
    spec.job_token = Some(format!("perfbench-{}-{req}", ctx.seed));
    let start = Instant::now();
    let report = {
        let _s = ctx.tracer.span("coord.federate", req);
        federate(&spec, &cfg)?
    };
    let took = ms(start.elapsed());
    check_top(&report.top, &cohort.reference)?;
    let counts: Vec<f64> = report
        .per_node_shards
        .iter()
        .map(|(_, n)| *n as f64)
        .collect();
    let mean = counts.iter().sum::<f64>() / counts.len().max(1) as f64;
    let max = counts.iter().copied().fold(0.0, f64::max);
    Ok(FleetRun {
        total_ms: took,
        steals: report.steals.len(),
        skew: if mean > 0.0 { max / mean } else { 1.0 },
    })
}

/// Samples of the scan ladder: the same cohort scanned in-process,
/// served, and federated, in rounds so drift hits all three alike.
#[derive(Default)]
pub struct LadderSamples {
    pub scan_ms: Vec<f64>,
    pub served: Vec<JobRun>,
    pub fleet: Vec<FleetRun>,
    pub rounds: usize,
    pub elements: f64,
}

/// Run ladder rounds until `end` (at least one round).
pub fn run_ladder(
    ctx: &Ctx,
    cohort: &Cohort,
    served: &mut Client,
    nodes: &[String],
    end: Instant,
    samples: &mut LadderSamples,
) {
    loop {
        // traced runs alternate rounds with and without spans, so the
        // tracing overhead is measured under the same drift
        ctx.tracer
            .set_enabled(ctx.trace && samples.rounds.is_multiple_of(2));
        let req = ctx.next_req();
        if let Some(t) = ctx.attempt("scan", || scan_op(ctx, cohort, req)) {
            samples.scan_ms.push(t);
            samples.elements += cohort.elements;
        }
        let mut served_job = |samples: &mut LadderSamples| {
            let req = ctx.next_req();
            if let Some(r) = ctx.attempt("served", || {
                run_job(ctx, served, &cohort.spec, &cohort.reference, req)
            }) {
                samples.served.push(r);
                samples.elements += cohort.elements;
            }
        };
        served_job(samples);
        let req = ctx.next_req();
        if let Some(r) = ctx.attempt("fleet", || fleet_op(ctx, nodes, cohort, req)) {
            samples.fleet.push(r);
            samples.elements += cohort.elements;
        }
        // two served jobs per round: they are the job-latency samples
        served_job(samples);
        samples.rounds += 1;
        if Instant::now() >= end {
            break;
        }
    }
    ctx.tracer.set_enabled(ctx.trace);
}

/// Shards the fleet scans when the same token-less federated job is run
/// twice in a row: the second run should scan every shard again.
pub fn repeat_scanned_shards(ctx: &Ctx, nodes: &[String], cohort: &Cohort) -> Result<u64, String> {
    let scanned = || -> Result<u64, String> {
        let mut total = 0;
        for n in nodes {
            total += connect(n.as_str())?.stats()?.1;
        }
        Ok(total)
    };
    let cfg = FederationConfig::new(nodes.to_vec());
    let mut before = 0;
    for _ in 0..2 {
        before = scanned()?;
        let req = ctx.next_req();
        let _s = ctx.tracer.span("coord.federate", req);
        check_top(&federate(&cohort.spec, &cfg)?.top, &cohort.reference)?;
    }
    Ok(scanned()? - before)
}
