//! Layered benchmark of the three-way epistasis scanner: the same seeded
//! cohorts measured from the SIMD kernel up through the scan drivers, the
//! job engine, the wire, and a federated fleet. See `README.md` in this
//! directory for the workloads and every metric.

pub mod check;
pub mod env;
mod inputs;
mod layers;
mod ops;
mod probe;
pub mod stats;
pub mod trace;

use inputs::{Cohort, Ladder};
use ops::{JobRun, LadderSamples};
use probe::ProbeSamples;
use stats::{median, percentile, Summary};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Few SNPs, many samples: the kernel streams long planes.
    Wide,
    /// Many SNPs, few samples: per-triple scoring and traversal dominate.
    Tall,
    /// A served traffic mix on one job server with an open-loop probe.
    Service,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "wide" => Ok(Self::Wide),
            "tall" => Ok(Self::Tall),
            "service" => Ok(Self::Service),
            other => Err(format!("unknown workload {other:?} (wide|tall|service)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Wide => "wide",
            Self::Tall => "tall",
            Self::Service => "service",
        }
    }
}

/// Cohort shapes `(snps, samples)` of one workload.
struct Shapes {
    /// The cohort the scan ladder runs on; on `service` also the cohort
    /// of the bulk job.
    scan: (usize, usize),
    /// `service` only: the interactive cohort.
    interactive: (usize, usize),
    /// `service` only: the load-heavy cohort whose job owns one shard.
    big: (usize, usize),
    big_plan_shards: u64,
}

impl Shapes {
    fn of(w: Workload, smoke: bool) -> Self {
        let (scan, interactive, big, big_plan_shards) = match (w, smoke) {
            (Workload::Wide, false) => ((64, 262_144), (0, 0), (0, 0), 0),
            (Workload::Tall, false) => ((320, 2_048), (0, 0), (0, 0), 0),
            (Workload::Service, false) => ((96, 32_768), (64, 16_384), (200, 262_144), 4096),
            (Workload::Wide, true) => ((16, 4_096), (0, 0), (0, 0), 0),
            (Workload::Tall, true) => ((40, 256), (0, 0), (0, 0), 0),
            (Workload::Service, true) => ((20, 2_048), (16, 1_024), (24, 8_192), 64),
        };
        Self {
            scan,
            interactive,
            big,
            big_plan_shards,
        }
    }
}

/// Every `BIG_EVERY`-th operation of the service mix submits the
/// load-heavy one-shard job instead of an interactive one.
const BIG_EVERY: u64 = 10;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Share of the `service` window spent on the scan ladder before the
/// traffic mix starts.
const SERVICE_LADDER_SHARE: f64 = 0.4;

/// How the benchmark is run.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Tiny cohorts, for tests.
    pub smoke: bool,
    /// Directory for generated inputs, spools and traces.
    pub work_root: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shared state of one run.
pub(crate) struct Ctx {
    pub seed: u64,
    pub simd: bitgenome::SimdLevel,
    pub trace: bool,
    pub tracer: trace::Tracer,
    pub work_dir: PathBuf,
    next_req: AtomicU64,
    attempted: AtomicU64,
    failed: AtomicU64,
    wrong: AtomicU64,
    errors: Mutex<Vec<String>>,
}

impl Ctx {
    pub fn next_req(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    /// Run one operation, counting it as attempted, and as failed when it
    /// returns an error (an ERR reply, a timeout, or a wrong result).
    pub fn attempt<T>(&self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        match op() {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(what, &e);
                None
            }
        }
    }

    fn fail(&self, what: &str, err: &str) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        if err.starts_with(check::WRONG) {
            self.wrong.fetch_add(1, Ordering::Relaxed);
        }
        let mut errors = self.errors.lock().expect("error log poisoned");
        if errors.len() < 20 {
            errors.push(format!("{what}: {err}"));
        }
    }

    fn count_probes(&self, p: &ProbeSamples) {
        self.attempted.fetch_add(p.sent, Ordering::Relaxed);
        self.failed.fetch_add(p.failed, Ordering::Relaxed);
        let mut errors = self.errors.lock().expect("error log poisoned");
        errors.extend(p.errors.iter().take(5).map(|e| format!("probe: {e}")));
    }
}

/// What one set-up leaves running for the timed window.
struct Setup {
    cohort: Cohort,
    ladder: Ladder,
    ladder_client: epi_server::Client,
    service: Option<Service>,
}

/// The `service` workload's job server and its extra cohorts.
struct Service {
    /// The bulk job: the ladder cohort as tenant `bulk` at priority 0.
    bulk: epi_server::JobSpec,
    interactive: Cohort,
    big: Cohort,
    server: epi_server::ServerHandle,
    spool: PathBuf,
}

impl Setup {
    fn teardown(self) {
        drop(self.ladder_client);
        self.ladder.shutdown();
        if let Some(s) = self.service {
            s.server.shutdown();
            let _ = std::fs::remove_dir_all(&s.spool);
        }
    }
}

fn setup(ctx: &Ctx, w: Workload, shapes: &Shapes) -> Result<Setup, String> {
    let cohort = inputs::full_cohort(ctx, "scan", shapes.scan, 0)?;
    let ladder = Ladder::start(ctx)?;
    let mut ladder_client = ops::connect(ladder.served.addr())?;
    let service = match w {
        Workload::Service => {
            let mut bulk = cohort.spec.clone();
            bulk.tenant = Some("bulk".into());
            bulk.priority = 0;
            let mut interactive = inputs::full_cohort(ctx, "interactive", shapes.interactive, 1)?;
            interactive.spec.priority = epi_server::JobSpec::MAX_PRIORITY;
            let big = inputs::one_shard_cohort(ctx, "big", shapes.big, 2, shapes.big_plan_shards)?;
            let spool = ctx.work_dir.join("spool");
            let server = inputs::spawn_server(ctx, 1, Some(spool.clone()))?;
            Some(Service {
                bulk,
                interactive,
                big,
                server,
                spool,
            })
        }
        _ => None,
    };
    // warm-up: one of each timed operation, checked like the rest
    let nodes = ladder.fleet_addrs();
    let mut warm = LadderSamples::default();
    ops::run_ladder(
        ctx,
        &cohort,
        &mut ladder_client,
        &nodes,
        Instant::now(),
        &mut warm,
    );
    if let Some(s) = &service {
        let mut a = ops::connect(s.server.addr())?;
        for c in [&s.interactive, &s.big] {
            let req = ctx.next_req();
            ctx.attempt("warm-up job", || {
                ops::run_job(ctx, &mut a, &c.spec, &c.reference, req)
            });
        }
    }
    Ok(Setup {
        cohort,
        ladder,
        ladder_client,
        service,
    })
}

/// Samples of the `service` traffic mix.
#[derive(Default)]
struct MixSamples {
    interactive: Vec<JobRun>,
    big: Vec<JobRun>,
    bulk_done: u64,
    elements: f64,
}

/// Connection A of the `service` mix: a closed loop that keeps one bulk
/// scan in flight and runs interactive jobs back to back, every
/// [`BIG_EVERY`]-th one replaced by the load-heavy one-shard job. It
/// runs whole cycles of [`BIG_EVERY`] operations, the last one finishing
/// past `end`, so every run measures the same mix whatever its length.
fn run_mix(ctx: &Ctx, setup: &Setup, svc: &Service, end: Instant) -> Result<MixSamples, String> {
    let mut a = ops::connect(svc.server.addr())?;
    let mut out = MixSamples::default();
    let submit_bulk = |a: &mut epi_server::Client| -> Option<u64> {
        let _s = ctx.tracer.span("client.submit_bulk", 0);
        match a.submit(&svc.bulk) {
            Ok(st) => Some(st.id),
            Err(e) => {
                ctx.attempted.fetch_add(1, Ordering::Relaxed);
                ctx.fail("bulk submit", &e);
                None
            }
        }
    };
    let mut bulk = submit_bulk(&mut a);
    let mut i = 0u64;
    while i == 0 || !i.is_multiple_of(BIG_EVERY) || Instant::now() < end {
        // alternate spans on and off, shifted by one each cycle so the
        // big job is traced in every other cycle
        ctx.tracer
            .set_enabled(ctx.trace && (i + i / BIG_EVERY).is_multiple_of(2));
        let big = i % BIG_EVERY == BIG_EVERY - 1;
        let cohort = if big { &svc.big } else { &svc.interactive };
        let req = ctx.next_req();
        if let Some(r) = ctx.attempt(if big { "big job" } else { "interactive job" }, || {
            ops::run_job(ctx, &mut a, &cohort.spec, &cohort.reference, req)
        }) {
            out.elements += cohort.elements;
            if big {
                &mut out.big
            } else {
                &mut out.interactive
            }
            .push(r);
        }
        if let Some(id) = bulk {
            match a.status(id) {
                Ok(st) if st.is_stable() => {
                    let done = ctx.attempt("bulk job", || {
                        if st.state != epi_server::JobState::Done {
                            return Err(format!("bulk job ended {}", st.state));
                        }
                        check::check_top(&a.result(id)?, &setup.cohort.reference)
                    });
                    if done.is_some() {
                        out.elements += setup.cohort.elements;
                        out.bulk_done += 1;
                    }
                    bulk = submit_bulk(&mut a);
                }
                Ok(_) => {}
                Err(e) => {
                    ctx.attempted.fetch_add(1, Ordering::Relaxed);
                    ctx.fail("bulk status", &e);
                    bulk = None;
                }
            }
        }
        i += 1;
    }
    ctx.tracer.set_enabled(ctx.trace);
    // the bulk job still in flight contributes the shards it finished
    if let Some(id) = bulk {
        if let Ok(st) = a.status(id) {
            out.elements += setup.cohort.elements * st.done as f64 / st.total.max(1) as f64;
        }
        let _ = a.cancel(id);
    }
    Ok(out)
}

/// Cumulative `(steal, total)` CPU ticks of the host (Linux
/// `/proc/stat`), to report how much CPU the hypervisor took during the
/// window; `None` where unavailable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Work completed per second by operations that each scan `elements`:
/// total elements over total time, so an operation kind whose time is
/// bimodal (a federated run with or without a steal) reports the blend
/// of its modes instead of flipping between them.
fn geps(elements: f64, ms: &[f64]) -> f64 {
    elements / mean(ms) / 1e6
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

fn pct(v: &[f64], p: f64) -> f64 {
    percentile(v, p).unwrap_or(f64::NAN)
}

fn summary_line(label: &str, values: &[f64], unit: &str) {
    match Summary::of(values) {
        Some(s) => println!("  {label:<28} {}", s.render(unit)),
        None => println!("  {label:<28} no samples"),
    }
}

/// Run one workload: set up [`SETUPS`] times, measure for the window,
/// report. Prints human-readable lines as it goes; the caller prints the
/// result line.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (simd, forced) = env::simd_tier()?;
    let stamp = env::Stamp::detect(simd, forced, 2);
    let w = opts.workload;
    let work_dir =
        opts.work_root
            .join(format!("{}-{}-{}", w.name(), opts.seed, std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("cannot create {work_dir:?}: {e}"))?;
    let ctx = Ctx {
        seed: opts.seed,
        simd,
        trace: opts.trace,
        tracer: trace::Tracer::new(opts.trace),
        work_dir: work_dir.clone(),
        next_req: AtomicU64::new(1),
        attempted: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        wrong: AtomicU64::new(0),
        errors: Mutex::new(Vec::new()),
    };
    println!(
        "perfbench: workload {} seed {} window {} s trace {}",
        w.name(),
        opts.seed,
        opts.seconds,
        opts.trace
    );
    println!("env: {}", stamp.to_json());
    let outcome = measure(&ctx, opts, &stamp);
    let _ = std::fs::remove_dir_all(&work_dir);
    outcome
}

fn measure(ctx: &Ctx, opts: &Options, stamp: &env::Stamp) -> Result<Outcome, String> {
    let w = opts.workload;
    let shapes = Shapes::of(w, opts.smoke);

    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let s = {
            let _s = ctx.tracer.span("setup", 0);
            setup(ctx, w, &shapes)?
        };
        setup_s.push(start.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            s.teardown();
        } else {
            kept = Some(s);
        }
    }
    let mut s = kept.expect("at least one set-up");
    println!(
        "setup: {} x, seconds {:?}",
        SETUPS,
        setup_s
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
    );

    // the timed window
    let window = Duration::from_secs_f64(opts.seconds);
    let ticks = cpu_ticks();
    let start = Instant::now();
    let end = start + window;
    let nodes = s.ladder.fleet_addrs();
    let mut ladder = LadderSamples::default();
    let mut mix = MixSamples::default();
    let probes = match &s.service {
        None => {
            let addr = s.ladder.served.addr();
            std::thread::scope(|scope| {
                let probe = scope.spawn(|| probe::run(addr, end));
                ops::run_ladder(
                    ctx,
                    &s.cohort,
                    &mut s.ladder_client,
                    &nodes,
                    end,
                    &mut ladder,
                );
                probe.join().expect("probe thread panicked")
            })
        }
        Some(svc) => {
            let ladder_end = start + window.mul_f64(SERVICE_LADDER_SHARE);
            ops::run_ladder(
                ctx,
                &s.cohort,
                &mut s.ladder_client,
                &nodes,
                ladder_end,
                &mut ladder,
            );
            let addr = svc.server.addr();
            std::thread::scope(|scope| -> Result<ProbeSamples, String> {
                let probe = scope.spawn(|| probe::run(addr, end));
                let res = run_mix(ctx, &s, svc, end);
                let p = probe.join().expect("probe thread panicked");
                mix = res?;
                Ok(p)
            })?
        }
    };
    let window_s = start.elapsed().as_secs_f64();
    ctx.count_probes(&probes);
    let rss = peak_rss_mb()?;

    let elements = s.cohort.elements;
    let scan_ms = ladder.scan_ms.clone();
    let served_ms: Vec<f64> = ladder.served.iter().map(|r| r.total_ms).collect();
    let fleet_ms: Vec<f64> = ladder.fleet.iter().map(|r| r.total_ms).collect();
    let service_geps = (ladder.elements + mix.elements) / window_s / 1e9;

    let steal = match (ticks, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.1}%", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".into(),
    };
    println!(
        "timed window: {window_s:.3} s, {} ladder round(s), host CPU steal {steal}",
        ladder.rounds
    );
    summary_line("scan (core.scan, 2w)", &scan_ms, "ms");
    summary_line("served job (2w server)", &served_ms, "ms");
    summary_line("federated job (2x1w)", &fleet_ms, "ms");
    if w == Workload::Service {
        let job_ms: Vec<f64> = mix.interactive.iter().map(|r| r.total_ms).collect();
        summary_line("interactive job", &job_ms, "ms");
        let waits: Vec<f64> = mix.interactive.iter().map(|r| r.queue_wait_ms).collect();
        summary_line("interactive queue wait", &waits, "ms");
        let big_ms: Vec<f64> = mix.big.iter().map(|r| r.total_ms).collect();
        summary_line("big one-shard job", &big_ms, "ms");
        let big_submit: Vec<f64> = mix.big.iter().map(|r| r.submit_ms).collect();
        summary_line("big job SUBMIT ack", &big_submit, "ms");
        println!("  bulk jobs completed          {}", mix.bulk_done);
    }
    summary_line("probe latency from due", &probes.latency_ms, "ms");
    summary_line("probe generator lateness", &probes.late_ms, "ms");

    let mut metrics = vec![
        Metric {
            name: "scan_geps",
            unit: "Gelem/s",
            value: geps(elements, &scan_ms),
        },
        Metric {
            name: "served_geps",
            unit: "Gelem/s",
            value: geps(elements, &served_ms),
        },
        Metric {
            name: "fleet_geps",
            unit: "Gelem/s",
            value: geps(elements, &fleet_ms),
        },
        Metric {
            name: "job_p50_ms",
            unit: "ms",
            value: med(&served_ms),
        },
        Metric {
            name: "service_geps",
            unit: "Gelem/s",
            value: service_geps,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            value: rss,
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: med(&setup_s),
        },
    ];

    if opts.trace {
        let scan_geps = metrics[0].value;
        metrics = per_layer(ctx, &s, &ladder, &mix, &probes, scan_geps)?;
        ctx.tracer.set_enabled(false);
        let spans = ctx.tracer.spans();
        let path = opts
            .work_root
            .join(format!("trace-{}-seed{}.jsonl", w.name(), opts.seed));
        let file =
            std::fs::File::create(&path).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        trace::write_jsonl(file, &spans).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("trace: {} spans written to {}", spans.len(), path.display());
        println!("self time per span (traced run):");
        for line in trace::render_table(&trace::self_times(&spans)) {
            println!("  {line}");
        }
        metrics.push(Metric {
            name: "trace.spans",
            unit: "count",
            value: spans.len() as f64,
        });
    }
    s.teardown();

    let failed = ctx.failed.load(Ordering::Relaxed);
    let attempted = ctx.attempted.load(Ordering::Relaxed).max(1);
    let wrong = ctx.wrong.load(Ordering::Relaxed);
    println!(
        "operations: {attempted} attempted, {failed} failed ({wrong} wrong results), \
         failed_ratio {}",
        failed as f64 / attempted as f64
    );
    for e in ctx.errors.lock().expect("error log poisoned").iter() {
        println!("  error: {e}");
    }
    println!("metrics{}:", if opts.trace { " (per layer)" } else { "" });
    for m in &metrics {
        println!("  {:<28} {} {}", m.name, m.value, m.unit);
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} could not be measured", m.name));
    }
    println!("env: {}", stamp.to_json());
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// The traced run's per-layer metrics.
fn per_layer(
    ctx: &Ctx,
    s: &Setup,
    ladder: &LadderSamples,
    mix: &MixSamples,
    probes: &ProbeSamples,
    scan_geps: f64,
) -> Result<Vec<Metric>, String> {
    let cohort = &s.cohort;
    let ds = bitgenome::SplitDataset::encode(&cohort.data.genotypes, &cohort.data.phenotype);
    // the load-heavy dataset of the workload
    let heavy = s.service.as_ref().map_or(cohort, |svc| &svc.big);

    let (acc18, fill) = layers::simd(ctx, ds.controls().num_words());
    let (gintops, ops_per_byte) = layers::costs(ctx, &ds, scan_geps * 1e9);
    let (read_ms, encode_ms, hash_ms) = layers::load_path(ctx, heavy)?;
    let one = layers::blocked(ctx, cohort, &ds, 1, "scan.blocked_1w")?;
    let shard = layers::shard_path(ctx, cohort, &ds)?;
    let two = layers::blocked(ctx, cohort, &ds, 2, "pool.blocked_2w")?;
    let eng = layers::engine(ctx, cohort, 2)?;
    let heavy_submit_ms = match &s.service {
        Some(svc) => layers::engine_submit(ctx, &svc.big, 3)?,
        None => eng.submit_ms,
    };
    let (ping_text, ping_framed) = layers::pings(ctx, s.ladder.served.addr(), 200)?;
    let repeat_scanned = ops::repeat_scanned_shards(ctx, &s.ladder.fleet_addrs(), cohort)?;

    // the workload's job stream under load: interactive jobs on
    // `service`, the served ladder jobs elsewhere
    let jobs: &[JobRun] = match &s.service {
        Some(_) => &mix.interactive,
        None => &ladder.served,
    };
    let job_ms: Vec<f64> = jobs.iter().map(|r| r.total_ms).collect();
    let served_ms: Vec<f64> = ladder.served.iter().map(|r| r.total_ms).collect();
    let fleet_ms: Vec<f64> = ladder.fleet.iter().map(|r| r.total_ms).collect();
    let skews: Vec<f64> = ladder.fleet.iter().map(|r| r.skew).collect();
    let traced_ms: Vec<f64> = jobs
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.total_ms)
        .collect();
    let plain_ms: Vec<f64> = jobs
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.total_ms)
        .collect();
    let overhead_ms = med(&traced_ms) - med(&plain_ms);
    println!(
        "tracing overhead: job median {:.3} ms traced vs {:.3} ms untraced ({overhead_ms:+.3} ms)",
        med(&traced_ms),
        med(&plain_ms)
    );
    if s.service.is_some() {
        println!(
            "big-file SUBMIT in-process: median {heavy_submit_ms:.3} ms; probe p99 {:.3} ms",
            pct(&probes.latency_ms, 99.0)
        );
    }

    let m = |name, unit, value| Metric { name, unit, value };
    Ok(vec![
        m("job_p90_ms", "ms", pct(&served_ms, 90.0)),
        m("interactive.p50_ms", "ms", med(&job_ms)),
        m("interactive.p90_ms", "ms", pct(&job_ms, 90.0)),
        m("probe_p50_ms", "ms", med(&probes.latency_ms)),
        m("probe_p99_ms", "ms", pct(&probes.latency_ms, 99.0)),
        m("simd.acc18_ns_per_word", "ns/word", acc18),
        m("simd.fill_pair_ns_per_word", "ns/word", fill),
        m("costs.gintops", "GINTOP/s", gintops),
        m("costs.ops_per_byte", "op/B", ops_per_byte),
        m("io.read_ms", "ms", read_ms),
        m("encode.ms", "ms", encode_ms),
        m("integrity.hash_ms", "ms", hash_ms),
        m("scan.geps_1w", "Gelem/s", one.geps),
        m("scan.xpair_hit_rate", "ratio", one.hit_rate),
        m("shard.geps_1w", "Gelem/s", shard.geps),
        m("shard.prefix_hit_rate", "ratio", shard.hit_rate),
        m("pool.geps_2w", "Gelem/s", two.geps),
        m("pool.efficiency_2w", "ratio", two.geps / (2.0 * one.geps)),
        m("pool.xpair_hit_min_2w", "ratio", two.hit_min),
        m("engine.submit_ms", "ms", heavy_submit_ms),
        m("engine.run_s", "s", eng.run_s),
        m("engine.overhead_ratio", "ratio", eng.overhead_ratio),
        m("engine.pair_hit_rate", "ratio", eng.pair_hit_rate),
        m("engine.shards_scanned", "count", eng.shards_scanned as f64),
        m("engine.rejected", "count", eng.rejected as f64),
        m(
            "queue.wait_ms",
            "ms",
            med(&jobs.iter().map(|r| r.queue_wait_ms).collect::<Vec<_>>()),
        ),
        m(
            "wire.overhead_ratio",
            "ratio",
            mean(&served_ms) / eng.total_ms,
        ),
        m(
            "wire.result_ms",
            "ms",
            med(&jobs.iter().map(|r| r.result_ms).collect::<Vec<_>>()),
        ),
        m("wire.ping_text_us", "us", ping_text),
        m("wire.ping_framed_us", "us", ping_framed),
        m(
            "wire.status_polls",
            "count",
            med(&jobs.iter().map(|r| r.polls as f64).collect::<Vec<_>>()),
        ),
        m(
            "coord.overhead_ratio",
            "ratio",
            mean(&fleet_ms) / mean(&served_ms),
        ),
        m(
            "coord.steals",
            "count",
            ladder.fleet.iter().map(|r| r.steals).sum::<usize>() as f64,
        ),
        m("coord.node_shard_skew", "ratio", med(&skews)),
        m(
            "coord.repeat_scanned_shards",
            "count",
            repeat_scanned as f64,
        ),
        m("gen.late_p99_ms", "ms", pct(&probes.late_ms, 99.0)),
        m(
            "trace.overhead_pct",
            "%",
            100.0 * overhead_ms / med(&plain_ms),
        ),
    ])
}
