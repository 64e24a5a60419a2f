//! `epi3` — command-line interface to the three-way epistasis toolkit.
//!
//! ```console
//! $ epi3 gen --snps 64 --samples 1024 --plant 5,21,40 --out data.epi3
//! $ epi3 scan data.epi3 --version v4 --top 5
//! $ epi3 shards data.epi3 --shards 64 --verify
//! $ epi3 pairs data.epi3 --top 5
//! $ epi3 significance data.epi3 --permutations 19
//! $ epi3 summary data.epi3
//! $ epi3 devices
//! $ epi3 serve --addr 127.0.0.1:7733 --spool /var/spool/epi3 &
//! $ epi3 submit data.epi3 --shards 64 --wait
//! $ epi3 status --all
//! $ epi3 federate data.epi3 --spawn 2 --shards 64 --verify
//! $ epi3 lint
//! ```

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;
use threeway_epistasis::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        // the reader hung up (`epi3 scan … | head -1`): nothing left to say
        Err(e) if e == STDOUT_CLOSED => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: epi3 <command> [options]

commands:
  gen           generate a synthetic dataset
                  --snps N --samples N [--seed N] [--plant i,j,k]
                  [--balance] --out FILE [--text]
  scan FILE     exhaustive three-way scan
                  [--version v1|v2|v3|v4|v5] [--top K] [--threads N] [--mi]
                  [--simd TIER]
  shards FILE   sharded three-way scan (the job service's work unit)
                  [--shards S] [--version vN] [--top K] [--threads N]
                  [--simd TIER]
                  [--verify]  (also run monolithically and compare)
  pairs FILE    exhaustive two-way scan [--top K] [--threads N]
  significance FILE   permutation test [--permutations P] [--seed N]
  summary FILE  dataset quality-control summary
  devices       print the paper's device catalogs (Tables I & II)
  lint          in-tree static analysis: determinism, unsafe/SIMD
                hygiene, lock discipline, wire-protocol conformance,
                panic-path audit (see README \"Static analysis\")
                  [--root DIR] [--allowlist FILE] [--check NAME]...
                  [--json] [--list]  (exit 1 on non-allowlisted findings)

job service (line-delimited TCP, see epi_server crate docs):
  serve         run the scan-job server (blocks until SHUTDOWN)
                  [--addr HOST:PORT] [--workers N] [--spool DIR]
                  [--simd TIER]  (default tier for jobs without simd=)
                  [--data-root DIR]  (resolve spec paths as file names
                  under DIR — the node-local dataset replica directory)
                  [--mem-budget BYTES]  (admission control: refuse
                  SUBMITs that would push resident job data past this;
                  0 = unlimited)
                  [--max-tenant-jobs N] [--max-tenant-queue N]
                  (per-tenant quotas on concurrent jobs / queued shards)
  submit FILE   submit a scan job to a server
                  [--addr HOST:PORT] [--version vN] [--shards S]
                  [--top K] [--mi] [--throttle-ms N] [--wait]
                  [--simd TIER]  (sent as the simd= spec key; the server
                  clamps it to its own capability and echoes it in STATUS)
                  [--tenant NAME] [--priority 0-9]  (quota accounting and
                  weighted-fair dispatch; higher priority = bigger share)
                  [--deadline-ms N]  (job fails once N ms elapse)
                  [--job-token TOK]  (idempotency key: lets the client
                  retry an over-capacity SUBMIT without duplicating work)
  status [JOB]  poll one job, or all jobs with --all
                  [--addr HOST:PORT]
  result JOB    fetch the merged top-K of a finished job [--addr]
  cancel JOB    cancel a job, keeping its checkpoint [--addr]
  resume JOB    resume a cancelled job from its checkpoint [--addr]

All job-service client commands accept [--framed]: talk to the server
over length-prefixed, checksummed binary frames instead of plain text
(same verbs, bit-identical replies; see README \"Wire protocol\").
  federate FILE split one sharded scan across a fleet of epi-servers,
                merging the per-shard top-Ks bit-identically and
                stealing work from slow or dead nodes
                  --nodes HOST:PORT,...  (the fleet)
                  --spawn N   (instead of --nodes: launch N in-process
                  loopback servers on ephemeral ports [--workers N each])
                  [--shards S] [--version vN] [--top K] [--mi]
                  [--throttle-ms N] [--simd TIER]
                  [--verify]  (also scan monolithically and compare)
                  [--spool FILE]  (checkpoint the coordinator after every
                  merge batch so a killed run can be continued)
                  [--resume FILE]  (continue from a spooled checkpoint;
                  the dataset argument is then only needed with --verify)
                  [--fail-after-merges N]  (fault injection, tests only:
                  abort once N shards merged, as a stand-in for kill -9)

TIER = scalar|avx2|avx512|vpopcnt. Every command that scans accepts
--simd; when the flag is absent the EPI3_SIMD env var applies instead.
Tiers above the host's capability are clamped with a warning (scan,
shards, serve clamp locally; submit lets the server clamp).

Thread counts: scan/shards/pairs --threads and serve --workers default
to 0 (= all cores); when the flag is absent the EPI3_THREADS env var
applies instead. Requests beyond the host's parallelism are clamped.

default server address: 127.0.0.1:7733";

const DEFAULT_ADDR: &str = "127.0.0.1:7733";

/// The error a command returns once the reader of stdout has hung up.
const STDOUT_CLOSED: &str = "stdout closed by its reader";

/// Map a stdout write error into a command error: a closed pipe becomes
/// [`STDOUT_CLOSED`], on which `main` exits quietly instead of panicking
/// the way `println!` does.
fn stdout_error(e: std::io::Error) -> String {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        STDOUT_CLOSED.into()
    } else {
        format!("cannot write to stdout: {e}")
    }
}

/// `println!` for command output that returns [`stdout_error`] from the
/// enclosing command instead of panicking when the write fails.
macro_rules! out {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(stdout_error)?
    };
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("no command given")?;
    let rest = &args[1..];
    match cmd.as_str() {
        "gen" => cmd_gen(rest),
        "scan" => cmd_scan(rest),
        "shards" => cmd_shards(rest),
        "pairs" => cmd_pairs(rest),
        "significance" => cmd_significance(rest),
        "summary" => cmd_summary(rest),
        "devices" => cmd_devices(),
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "status" => cmd_status(rest),
        "result" => cmd_result(rest),
        "cancel" => cmd_job_verb(rest, JobVerb::Cancel),
        "resume" => cmd_job_verb(rest, JobVerb::Resume),
        "federate" => cmd_federate(rest),
        "lint" => cmd_lint(rest),
        "help" | "--help" | "-h" => {
            out!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

// --- tiny argument helpers -------------------------------------------------

fn opt_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn opt_usize(args: &[String], key: &str, default: usize) -> Result<usize, String> {
    match opt_value(args, key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{key} expects a number, got {v:?}")),
    }
}

fn opt_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

// --- lint ------------------------------------------------------------------

fn cmd_lint(args: &[String]) -> Result<(), String> {
    if opt_flag(args, "--list") {
        write!(std::io::stdout(), "{}", epi_lint::list_checks()).map_err(stdout_error)?;
        return Ok(());
    }
    let root = std::path::PathBuf::from(opt_value(args, "--root").unwrap_or("."));
    let allow = match opt_value(args, "--allowlist") {
        Some(p) => std::path::PathBuf::from(p),
        None => root.join("epi-lint.allow"),
    };
    let mut only = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--check" {
            let name = args
                .get(i + 1)
                .ok_or("--check expects a name (see --list)")?;
            if !epi_lint::checks::CHECKS.iter().any(|(n, _, _)| n == name) {
                return Err(format!("unknown check {name:?}; --list shows the registry"));
            }
            only.push(name.clone());
            i += 1;
        }
        i += 1;
    }
    let report = epi_lint::run_lint(&root, &allow, &only)?;
    if opt_flag(args, "--json") {
        out!("{}", report.to_json());
    } else {
        write!(std::io::stdout(), "{}", report.to_text()).map_err(stdout_error)?;
    }
    if report.findings.is_empty() {
        Ok(())
    } else {
        // findings already printed; skip the usage blurb an Err would add
        std::process::exit(1);
    }
}

/// Worker/thread count for commands that scan: the explicit flag wins,
/// then the `EPI3_THREADS` env var, then `default` (`0` = all cores —
/// the uniform default of scan/shards/pairs/serve; requests beyond the
/// host's parallelism are clamped downstream by
/// `epi_core::pool::resolve_threads`).
fn opt_threads(args: &[String], key: &str, default: usize) -> Result<usize, String> {
    let env = std::env::var("EPI3_THREADS").ok();
    opt_threads_with(args, key, default, env.as_deref())
}

/// [`opt_threads`] over an injected env value (unit-testable without
/// mutating process-global state under a parallel test runner).
fn opt_threads_with(
    args: &[String],
    key: &str,
    default: usize,
    env: Option<&str>,
) -> Result<usize, String> {
    if let Some(v) = opt_value(args, key) {
        return v
            .parse()
            .map_err(|_| format!("{key} expects a number, got {v:?}"));
    }
    match env {
        Some(v) if !v.is_empty() => v
            .parse()
            .map_err(|_| format!("EPI3_THREADS expects a number, got {v:?}")),
        _ => Ok(default),
    }
}

fn positional(args: &[String]) -> Option<&str> {
    args.iter()
        .take_while(|a| !a.starts_with("--"))
        .map(String::as_str)
        .next()
}

fn load_dataset(args: &[String]) -> Result<(GenotypeMatrix, Phenotype), String> {
    let path = positional(args).ok_or("expected a dataset file argument")?;
    datagen::io::load(path).map_err(|e| format!("cannot read {path}: {e}"))
}

// --- commands ----------------------------------------------------------------

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let snps = opt_usize(args, "--snps", 64)?;
    let samples = opt_usize(args, "--samples", 1024)?;
    let seed = opt_usize(args, "--seed", 42)? as u64;
    let out = opt_value(args, "--out").ok_or("--out FILE is required")?;

    let mut spec = DatasetSpec::noise(snps, samples, seed);
    spec.balance = opt_flag(args, "--balance");
    if let Some(plant) = opt_value(args, "--plant") {
        let parts: Result<Vec<usize>, _> = plant.split(',').map(str::parse).collect();
        let parts = parts.map_err(|_| format!("--plant expects i,j,k, got {plant:?}"))?;
        if parts.len() != 3 {
            return Err("--plant expects exactly three SNP indices".into());
        }
        spec.maf = MafModel::Uniform { lo: 0.2, hi: 0.4 };
        spec.interaction = Some((parts, PenetranceTable::threshold(3, 0.15, 0.85, 3)));
    }
    spec.validate()?;
    let data = spec.generate();
    let write = if opt_flag(args, "--text") {
        datagen::io::save_text(out, &data)
    } else {
        datagen::io::save_binary(out, &data)
    };
    write.map_err(|e| format!("cannot write {out}: {e}"))?;
    out!(
        "wrote {out}: {snps} SNPs x {samples} samples ({} cases / {} controls)",
        data.phenotype.num_cases(),
        data.phenotype.num_controls()
    );
    if let Some(t) = &data.truth {
        out!("planted interaction: {:?}", t.snps);
    }
    Ok(())
}

fn cmd_scan(args: &[String]) -> Result<(), String> {
    let (g, p) = load_dataset(args)?;
    let version = parse_version(args)?;
    let mut cfg = ScanConfig::new(version);
    cfg.top_k = opt_usize(args, "--top", 5)?;
    cfg.threads = opt_threads(args, "--threads", 0)?;
    cfg.simd = forced_simd(args)?;
    if opt_flag(args, "--mi") {
        cfg.objective = ObjectiveKind::NegMutualInformation;
    }
    if let Some(want) = cfg.simd {
        // V1-V3 run scalar kernels by definition; say so instead of
        // pretending the forced tier applied
        let eff = cfg.effective_simd();
        if eff != want {
            eprintln!(
                "note: {} runs the scalar kernel; forced SIMD tier {want} does not apply",
                version.name()
            );
        }
    }
    let res = scan(&g, &p, &cfg);
    out!(
        "{} combinations ({:.3} G elements) in {:.3} s -> {:.2} G elements/s [{}{}]",
        res.combos,
        res.elements as f64 / 1e9,
        res.elapsed.as_secs_f64(),
        res.giga_elements_per_sec(),
        version.name(),
        match cfg.simd {
            // report the tier that actually ran (scalar for V1-V3)
            Some(_) => format!(", SIMD {} forced", cfg.effective_simd()),
            None => String::new(),
        },
    );
    for c in &res.top {
        out!(
            "  ({}, {}, {})  score = {:.4}",
            c.triple.0,
            c.triple.1,
            c.triple.2,
            c.score
        );
    }
    Ok(())
}

fn parse_version(args: &[String]) -> Result<Version, String> {
    parse_version_name(opt_value(args, "--version").unwrap_or("v5"))
}

fn parse_version_name(name: &str) -> Result<Version, String> {
    match name {
        "v1" | "V1" => Ok(Version::V1),
        "v2" | "V2" => Ok(Version::V2),
        "v3" | "V3" => Ok(Version::V3),
        "v4" | "V4" => Ok(Version::V4),
        "v5" | "V5" => Ok(Version::V5),
        other => Err(format!("unknown version {other:?}")),
    }
}

fn cmd_shards(args: &[String]) -> Result<(), String> {
    let (g, p) = load_dataset(args)?;
    let shards = opt_usize(args, "--shards", 64)? as u64;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let mut cfg = ScanConfig::new(parse_version(args)?);
    cfg.top_k = opt_usize(args, "--top", 5)?;
    cfg.threads = opt_threads(args, "--threads", 0)?;
    cfg.simd = forced_simd(args)?;
    let plan = ShardPlan::triples(g.num_snps(), shards);
    let res = scan_sharded(&g, &p, &cfg, shards);
    out!(
        "{} combinations over {} shards (~{} each) in {:.3} s -> {:.2} G elements/s [{}]",
        res.combos,
        plan.num_shards(),
        plan.total_combos().div_ceil(plan.num_shards().max(1)),
        res.elapsed.as_secs_f64(),
        res.giga_elements_per_sec(),
        cfg.version.name(),
    );
    for c in &res.top {
        out!(
            "  ({}, {}, {})  score = {:.4}",
            c.triple.0,
            c.triple.1,
            c.triple.2,
            c.score
        );
    }
    if opt_flag(args, "--verify") {
        let mono = scan(&g, &p, &cfg);
        if mono.top == res.top {
            out!(
                "verify: sharded == monolithic ({} candidates bit-identical; monolithic {:.3} s)",
                mono.top.len(),
                mono.elapsed.as_secs_f64()
            );
        } else {
            return Err("verify FAILED: sharded result differs from monolithic scan".into());
        }
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let addr = opt_value(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let cfg = EngineConfig {
        // same 0 = all-cores default and EPI3_THREADS override as the
        // local scan commands; the effective pool size is echoed in STATS
        workers: opt_threads(args, "--workers", 0)?,
        spool_dir: opt_value(args, "--spool").map(Into::into),
        // server-wide default tier for jobs without a simd= key
        // (clamped again inside the engine)
        default_simd: forced_simd(args)?,
        // node-local dataset directory: spec paths resolve as file
        // names under it, the fleet shape dataset_hash= verifies
        dataset_root: opt_value(args, "--data-root").map(Into::into),
        // resource governance: 0 = unlimited, matching the STATS
        // mem_budget=0 convention
        mem_budget: nonzero_u64(opt_usize(args, "--mem-budget", 0)? as u64),
        max_jobs_per_tenant: nonzero_u64(opt_usize(args, "--max-tenant-jobs", 0)? as u64),
        max_queued_per_tenant: nonzero_u64(opt_usize(args, "--max-tenant-queue", 0)? as u64),
        ..EngineConfig::default()
    };
    let server = Server::bind(addr, cfg).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    out!("epi3 job server listening on {}", server.local_addr());
    server.run();
    out!("epi3 job server stopped");
    Ok(())
}

fn nonzero_u64(v: u64) -> Option<u64> {
    (v > 0).then_some(v)
}

fn connect(args: &[String]) -> Result<Client, String> {
    let addr = opt_value(args, "--addr").unwrap_or(DEFAULT_ADDR);
    if opt_flag(args, "--framed") {
        Client::connect_framed(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
    } else {
        Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
    }
}

fn print_status(s: &threeway_epistasis::epi_server::JobStatus) -> Result<(), String> {
    let simd = s
        .simd
        .map(|level| format!(", SIMD {level}"))
        .unwrap_or_default();
    let extra = s
        .error
        .as_deref()
        .map(|e| format!("  error: {e}"))
        .unwrap_or_default();
    out!(
        "job {}: {}  [{} / {} shards done, {} in flight, {} combinations{simd}]{extra}",
        s.id,
        s.state,
        s.done,
        s.total,
        s.in_flight,
        s.combos
    );
    Ok(())
}

fn print_candidates(cands: &[Candidate]) -> Result<(), String> {
    for c in cands {
        out!(
            "  ({}, {}, {})  score = {:.4}",
            c.triple.0,
            c.triple.1,
            c.triple.2,
            c.score
        );
    }
    Ok(())
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let path = positional(args).ok_or("expected a dataset file argument")?;
    // The server loads the dataset itself; resolve to an absolute path so
    // client and server working directories need not match.
    let path = std::fs::canonicalize(path)
        .map_err(|e| format!("cannot resolve {path}: {e}"))?
        .to_string_lossy()
        .into_owned();
    let mut spec = JobSpec::new(path);
    spec.version = parse_version(args)?;
    spec.shards = opt_usize(args, "--shards", 64)? as u64;
    spec.top_k = opt_usize(args, "--top", 10)?;
    spec.throttle_ms = opt_usize(args, "--throttle-ms", 0)? as u64;
    // unclamped: the server clamps to its own capability and echoes the
    // effective tier back in the STATUS reply
    spec.simd = requested_simd(args)?;
    if opt_flag(args, "--mi") {
        spec.objective = ObjectiveKind::NegMutualInformation;
    }
    // resource-governance keys (validated server-side at admission)
    if let Some(t) = opt_value(args, "--tenant") {
        spec.tenant = Some(t.to_string());
    }
    if let Some(p) = opt_value(args, "--priority") {
        spec.priority = p.parse().map_err(|_| "priority must be 0-9")?;
    }
    if let Some(ms) = opt_value(args, "--deadline-ms") {
        spec.deadline_ms = Some(ms.parse().map_err(|_| "deadline-ms must be a number")?);
    }
    if let Some(tok) = opt_value(args, "--job-token") {
        spec.job_token = Some(tok.to_string());
    }
    let mut client = connect(args)?;
    let st = client.submit(&spec)?;
    print_status(&st)?;
    if opt_flag(args, "--wait") {
        let done = client.wait(st.id, Duration::from_secs(24 * 3600))?;
        print_status(&done)?;
        if done.state == JobState::Done {
            print_candidates(&client.result(done.id)?)?;
        }
    }
    Ok(())
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    let mut client = connect(args)?;
    if opt_flag(args, "--all") {
        for s in client.jobs()? {
            print_status(&s)?;
        }
        return Ok(());
    }
    let id: u64 = positional(args)
        .ok_or("expected a job id (or --all)")?
        .parse()
        .map_err(|_| "job id must be a number")?;
    print_status(&client.status(id)?)?;
    Ok(())
}

fn cmd_result(args: &[String]) -> Result<(), String> {
    let id: u64 = positional(args)
        .ok_or("expected a job id")?
        .parse()
        .map_err(|_| "job id must be a number")?;
    let mut client = connect(args)?;
    let cands = client.result(id)?;
    out!("job {id}: {} candidates", cands.len());
    print_candidates(&cands)?;
    Ok(())
}

enum JobVerb {
    Cancel,
    Resume,
}

fn cmd_job_verb(args: &[String], verb: JobVerb) -> Result<(), String> {
    let id: u64 = positional(args)
        .ok_or("expected a job id")?
        .parse()
        .map_err(|_| "job id must be a number")?;
    let mut client = connect(args)?;
    let st = match verb {
        JobVerb::Cancel => client.cancel(id)?,
        JobVerb::Resume => client.resume(id)?,
    };
    print_status(&st)?;
    Ok(())
}

/// Launch `n` in-process loopback servers on ephemeral ports; returns
/// their addresses and the handles to shut them down with.
fn spawn_loopback_fleet(
    n: usize,
    workers: usize,
    default_simd: Option<bitgenome::SimdLevel>,
) -> Result<
    (
        Vec<String>,
        Vec<threeway_epistasis::epi_server::ServerHandle>,
    ),
    String,
> {
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..n {
        let server = Server::bind(
            "127.0.0.1:0",
            EngineConfig {
                workers,
                spool_dir: None,
                default_simd,
                dataset_root: None,
                ..EngineConfig::default()
            },
        )
        .map_err(|e| format!("cannot bind a loopback server: {e}"))?;
        addrs.push(server.local_addr().to_string());
        handles.push(server.spawn());
    }
    Ok((addrs, handles))
}

fn print_federation_report(r: &FederationReport) -> Result<(), String> {
    out!(
        "federated {} shards over {} node(s) in {:.3} s",
        r.num_shards,
        r.per_node_shards.len(),
        r.elapsed.as_secs_f64()
    );
    if r.resumed_merged > 0 {
        out!(
            "  resumed: {} shard(s) adopted from the checkpoint, not rescanned",
            r.resumed_merged
        );
    }
    for (addr, n) in &r.per_node_shards {
        let mark = if r.quarantined.iter().any(|(a, _)| a == addr) {
            "  [QUARANTINED]"
        } else if r.dead_nodes.contains(addr) {
            "  [DEAD]"
        } else {
            ""
        };
        out!("  {addr}: {n} shard(s){mark}");
    }
    for e in &r.readmissions {
        out!(
            "  readmitted {} after {:.1} ms down at +{:.2} s",
            e.node,
            e.downtime.as_secs_f64() * 1e3,
            e.at.as_secs_f64(),
        );
    }
    for (addr, why) in &r.quarantined {
        out!("  quarantined {addr}: {why}");
    }
    for s in &r.steals {
        out!(
            "  steal [{:?}] {} -> {}: {} shard(s), latency {:.1} ms at +{:.2} s",
            s.reason,
            s.from,
            s.to,
            s.shards.len(),
            s.latency.as_secs_f64() * 1e3,
            s.at.as_secs_f64(),
        );
    }
    print_candidates(&r.top)
}

fn cmd_federate(args: &[String]) -> Result<(), String> {
    let resume = opt_value(args, "--resume");
    // Every fleet member loads the dataset itself (shared storage or
    // per-node replicas); resolve to an absolute path like `submit`
    // does. On --resume the spec (path included) comes from the
    // checkpoint, so the dataset argument is only needed for --verify.
    let canonical = |p: &str| -> Result<String, String> {
        Ok(std::fs::canonicalize(p)
            .map_err(|e| format!("cannot resolve {p}: {e}"))?
            .to_string_lossy()
            .into_owned())
    };
    let dataset = positional(args);
    let version = parse_version(args)?;
    let top_k = opt_usize(args, "--top", 10)?;
    let mi = opt_flag(args, "--mi");

    let spawn = opt_usize(args, "--spawn", 0)?;
    let nodes_arg = opt_value(args, "--nodes");
    if spawn > 0 && nodes_arg.is_some() {
        return Err("--nodes and --spawn are mutually exclusive".into());
    }
    let mut handles = Vec::new();
    let nodes: Vec<String> = if spawn > 0 {
        let workers = opt_threads(args, "--workers", 0)?;
        let (addrs, hs) = spawn_loopback_fleet(spawn, workers, forced_simd(args)?)?;
        handles = hs;
        out!("spawned {spawn} in-process server(s): {}", addrs.join(", "));
        addrs
    } else {
        nodes_arg
            .ok_or("--nodes HOST:PORT,... or --spawn N is required")?
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(Into::into)
            .collect()
    };

    let mut cfg = FederationConfig::new(nodes);
    cfg.spool_path = opt_value(args, "--spool").map(Into::into);
    if let Some(v) = opt_value(args, "--fail-after-merges") {
        cfg.fail_after_merges = Some(
            v.parse()
                .map_err(|_| format!("--fail-after-merges expects a number, got {v:?}"))?,
        );
    }
    let outcome = match resume {
        Some(spool) => resume_from_spool(std::path::Path::new(spool), &cfg),
        None => {
            let path = canonical(dataset.ok_or("expected a dataset file argument")?)?;
            let mut spec = JobSpec::new(&path);
            spec.version = version;
            spec.shards = opt_usize(args, "--shards", 64)? as u64;
            spec.top_k = top_k;
            spec.throttle_ms = opt_usize(args, "--throttle-ms", 0)? as u64;
            // unclamped, like submit: each server clamps to its own
            // capability
            spec.simd = requested_simd(args)?;
            if mi {
                spec.objective = ObjectiveKind::NegMutualInformation;
            }
            federate(&spec, &cfg)
        }
    };
    // spawned servers must come down even when the federation failed
    for h in handles {
        h.shutdown();
    }
    let report = outcome?;
    print_federation_report(&report)?;

    if opt_flag(args, "--verify") {
        let path = canonical(
            dataset.ok_or("--verify needs the dataset file argument (also with --resume)")?,
        )?;
        let (g, p) = datagen::io::load(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut cfg = ScanConfig::new(version);
        cfg.top_k = top_k;
        if mi {
            cfg.objective = ObjectiveKind::NegMutualInformation;
        }
        cfg.simd = forced_simd(args)?;
        let mono = scan(&g, &p, &cfg);
        if mono.top == report.top {
            out!(
                "verify: federated == monolithic ({} candidates bit-identical; monolithic {:.3} s)",
                mono.top.len(),
                mono.elapsed.as_secs_f64()
            );
        } else {
            return Err("verify FAILED: federated result differs from monolithic scan".into());
        }
    }
    Ok(())
}

fn cmd_pairs(args: &[String]) -> Result<(), String> {
    let (g, p) = load_dataset(args)?;
    let top_k = opt_usize(args, "--top", 5)?;
    let threads = opt_threads(args, "--threads", 0)?;
    let res = epi_core::pairs::scan_pairs(&g, &p, top_k, threads);
    out!("{} pairs in {:.3} s", res.combos, res.elapsed.as_secs_f64());
    for c in &res.top {
        out!("  ({}, {})  K2 = {:.4}", c.pair.0, c.pair.1, c.score);
    }
    Ok(())
}

fn cmd_significance(args: &[String]) -> Result<(), String> {
    let (g, p) = load_dataset(args)?;
    let perms = opt_usize(args, "--permutations", 19)?;
    let seed = opt_usize(args, "--seed", 7)? as u64;
    let cfg = ScanConfig::new(Version::V4);
    let res = epi_core::permute::significance_test(&g, &p, &cfg, perms, seed);
    out!(
        "observed best: {:?} (K2 {:.4})",
        res.observed.triple,
        res.observed.score
    );
    let best_null = res
        .null_scores
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    out!("best null score over {perms} permutations: {best_null:.4}");
    out!("permutation p-value: {:.4}", res.p_value);
    Ok(())
}

fn cmd_summary(args: &[String]) -> Result<(), String> {
    let (g, p) = load_dataset(args)?;
    let s = datagen::stats::dataset_summary(&g, &p);
    out!("SNPs: {}", s.snps);
    out!(
        "samples: {} ({:.1}% cases)",
        s.samples,
        s.case_fraction * 100.0
    );
    out!("mean MAF: {:.3}", s.mean_maf);
    out!("HWE failures (chi2 > 3.84): {}", s.hwe_failures);
    Ok(())
}

/// Parse a SIMD tier name (`--simd` flag / `EPI3_SIMD` env values).
fn parse_simd_name(name: &str) -> Result<bitgenome::SimdLevel, String> {
    bitgenome::SimdLevel::parse_token(name)
}

/// Requested SIMD tier, unclamped: `--simd NAME` wins over the
/// `EPI3_SIMD` env var. `submit` forwards this verbatim — the *server*
/// clamps to its own capability, which may differ from the client's.
fn requested_simd(args: &[String]) -> Result<Option<bitgenome::SimdLevel>, String> {
    let name = match opt_value(args, "--simd").map(str::to_string) {
        Some(n) => Some(n),
        None => std::env::var("EPI3_SIMD").ok().filter(|s| !s.is_empty()),
    };
    name.as_deref().map(parse_simd_name).transpose()
}

/// Forced SIMD tier for commands that scan locally: a tier above the
/// host's capability is clamped (with a warning) so CI can request e.g.
/// `avx2` on any runner and still exercise a real fallback path instead
/// of crashing.
fn forced_simd(args: &[String]) -> Result<Option<bitgenome::SimdLevel>, String> {
    let Some(want) = requested_simd(args)? else {
        return Ok(None);
    };
    let best = bitgenome::SimdLevel::detect();
    if want > best {
        eprintln!("warning: SIMD tier {want} not available on this host; clamping to {best}");
        return Ok(Some(best));
    }
    Ok(Some(want))
}

fn cmd_devices() -> Result<(), String> {
    out!("Table I CPUs:");
    for d in devices::CpuDevice::table1() {
        out!(
            "  {}: {} ({:?}, {:.1} GHz, {} cores, {}-bit{})",
            d.id,
            d.name,
            d.arch,
            d.base_ghz,
            d.cores,
            d.vector_bits,
            if d.vector_popcnt { ", VPOPCNT" } else { "" }
        );
    }
    out!("Table II GPUs:");
    for d in devices::GpuDevice::table2() {
        out!(
            "  {}: {} ({}, {:.3} GHz, {} CUs, {} stream cores, {} POPCNT/CU)",
            d.id,
            d.name,
            d.arch,
            d.boost_ghz,
            d.compute_units,
            d.stream_cores,
            d.popcnt_per_cu
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn option_parsing() {
        let args = s(&["file.epi3", "--top", "7", "--mi"]);
        assert_eq!(positional(&args), Some("file.epi3"));
        assert_eq!(opt_usize(&args, "--top", 1).unwrap(), 7);
        assert_eq!(opt_usize(&args, "--threads", 3).unwrap(), 3);
        assert!(opt_flag(&args, "--mi"));
        assert!(!opt_flag(&args, "--balance"));
    }

    #[test]
    fn bad_number_is_an_error() {
        let args = s(&["--top", "seven"]);
        assert!(opt_usize(&args, "--top", 1).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn gen_scan_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("epi3_cli_test.epi3");
        let path_s = path.to_str().unwrap();
        run(&s(&[
            "gen",
            "--snps",
            "20",
            "--samples",
            "128",
            "--plant",
            "2,9,15",
            "--out",
            path_s,
        ]))
        .unwrap();
        run(&s(&["scan", path_s, "--top", "3"])).unwrap();
        run(&s(&["pairs", path_s])).unwrap();
        run(&s(&["summary", path_s])).unwrap();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn devices_subcommand_runs() {
        run(&s(&["devices"])).unwrap();
    }

    #[test]
    fn version_parsing_covers_v5() {
        assert_eq!(parse_version_name("v5").unwrap(), Version::V5);
        assert_eq!(parse_version_name("V5").unwrap(), Version::V5);
        assert!(parse_version_name("v6").is_err());
        // default is the fastest bit-identical kernel
        assert_eq!(parse_version(&s(&["x.epi3"])).unwrap(), Version::V5);
    }

    #[test]
    fn federate_crash_and_resume_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("epi3_cli_resume_test.epi3");
        let path_s = path.to_str().unwrap();
        let spool = dir.join("epi3_cli_resume_test.fedckpt");
        let spool_s = spool.to_str().unwrap();
        let _ = std::fs::remove_file(&spool);
        run(&s(&[
            "gen",
            "--snps",
            "18",
            "--samples",
            "128",
            "--plant",
            "2,7,11",
            "--out",
            path_s,
        ]))
        .unwrap();
        // coordinator "killed" (injected) after 2 merges, spool left behind
        let err = run(&s(&[
            "federate",
            path_s,
            "--spawn",
            "2",
            "--shards",
            "8",
            "--top",
            "4",
            "--throttle-ms",
            "5",
            "--spool",
            spool_s,
            "--fail-after-merges",
            "2",
        ]))
        .expect_err("injected crash must abort the run");
        assert!(err.contains("injected coordinator crash"), "{err}");
        assert!(spool.exists(), "crash must leave the spooled checkpoint");
        // resume on a fresh fleet; --verify proves the merged result is
        // still bit-identical to the monolithic scan
        run(&s(&[
            "federate", path_s, "--resume", spool_s, "--spawn", "2", "--top", "4", "--verify",
        ]))
        .unwrap();
        // without --resume, the spool argument alone must not resume
        assert!(run(&s(&["federate", "--resume"])).is_err());
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(&spool);
        let _ = std::fs::remove_file(dir.join("epi3_cli_resume_test.fedckpt.prev"));
    }

    #[test]
    fn federate_spawns_a_loopback_fleet_and_verifies() {
        let dir = std::env::temp_dir();
        let path = dir.join("epi3_cli_federate_test.epi3");
        let path_s = path.to_str().unwrap();
        run(&s(&[
            "gen",
            "--snps",
            "18",
            "--samples",
            "128",
            "--plant",
            "2,7,11",
            "--out",
            path_s,
        ]))
        .unwrap();
        run(&s(&[
            "federate", path_s, "--spawn", "2", "--shards", "8", "--top", "4", "--verify",
        ]))
        .unwrap();
        // --nodes and --spawn cannot be combined; one of them is required
        assert!(run(&s(&[
            "federate",
            path_s,
            "--spawn",
            "2",
            "--nodes",
            "127.0.0.1:1",
        ]))
        .is_err());
        assert!(run(&s(&["federate", path_s])).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn threads_env_override_applies_when_flag_absent() {
        // flag wins over env; env wins over default; default unified on 0
        let flag = s(&["x.epi3", "--threads", "5"]);
        let bare = s(&["x.epi3"]);
        assert_eq!(
            opt_threads_with(&flag, "--threads", 0, Some("3")).unwrap(),
            5
        );
        assert_eq!(
            opt_threads_with(&bare, "--threads", 0, Some("3")).unwrap(),
            3
        );
        assert_eq!(opt_threads_with(&bare, "--threads", 0, None).unwrap(), 0);
        assert_eq!(
            opt_threads_with(&bare, "--threads", 1, Some("")).unwrap(),
            1
        );
        assert!(opt_threads_with(&bare, "--threads", 0, Some("zebra")).is_err());
        assert!(opt_threads_with(&s(&["--threads", "x"]), "--threads", 0, None).is_err());
    }

    #[test]
    fn scan_and_shards_accept_forced_simd() {
        let dir = std::env::temp_dir();
        let path = dir.join("epi3_cli_simd_test.epi3");
        let path_s = path.to_str().unwrap();
        run(&s(&[
            "gen",
            "--snps",
            "14",
            "--samples",
            "96",
            "--out",
            path_s,
        ]))
        .unwrap();
        run(&s(&["scan", path_s, "--top", "2", "--simd", "scalar"])).unwrap();
        run(&s(&[
            "shards", path_s, "--shards", "4", "--simd", "scalar", "--verify",
        ]))
        .unwrap();
        // unknown tiers fail cleanly
        assert!(run(&s(&["scan", path_s, "--simd", "sse9"])).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn simd_tier_names_parse() {
        use bitgenome::SimdLevel;
        assert_eq!(parse_simd_name("scalar").unwrap(), SimdLevel::Scalar);
        assert_eq!(parse_simd_name("AVX2").unwrap(), SimdLevel::Avx2);
        assert_eq!(parse_simd_name("avx512").unwrap(), SimdLevel::Avx512);
        assert_eq!(
            parse_simd_name("vpopcnt").unwrap(),
            SimdLevel::Avx512Vpopcnt
        );
        assert!(parse_simd_name("sse9").is_err());
    }
}
