//! Seeded inputs and the servers they are served from.

use crate::check::{self, TOP_K};
use crate::Ctx;
use bitgenome::SimdLevel;
use datagen::{Dataset, DatasetSpec};
use epi_core::Candidate;
use epi_server::{EngineConfig, JobSpec, Server, ServerHandle};
use std::path::PathBuf;

/// One generated cohort: the dataset, the `.epi3` file the program under
/// test reads, and the reference top-K its jobs are checked against.
pub struct Cohort {
    pub name: &'static str,
    pub data: Dataset,
    /// Absolute path of the written file.
    pub path: String,
    /// Elements (combinations × samples) one job over the owned shards
    /// scans.
    pub elements: f64,
    pub reference: Vec<Candidate>,
    /// The job submitted for this cohort.
    pub spec: JobSpec,
}

/// Shards of a whole-cohort job (the service default).
pub const JOB_SHARDS: u64 = 64;

/// SplitMix64: derives independent dataset seeds from the run seed.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generate cohort `name` of `shape` from the run seed and write it to
/// the work directory; returns the dataset and the file's absolute path.
fn generate(
    ctx: &Ctx,
    name: &str,
    (m, n): (usize, usize),
    stream: u64,
) -> Result<(Dataset, String), String> {
    let data = {
        let _s = ctx.tracer.span("datagen.generate", 0);
        DatasetSpec::noise(m, n, mix_seed(ctx.seed, stream)).generate()
    };
    let path = ctx.work_dir.join(format!("{name}.epi3"));
    datagen::io::save_binary(&path, &data).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    let abs = std::fs::canonicalize(&path).map_err(|e| format!("cannot resolve {path:?}: {e}"))?;
    Ok((data, abs.to_string_lossy().into_owned()))
}

fn base_spec(path: &str, simd: SimdLevel) -> JobSpec {
    let mut spec = JobSpec::new(path);
    spec.shards = JOB_SHARDS;
    spec.top_k = TOP_K;
    spec.simd = Some(simd);
    spec
}

/// A cohort scanned whole: reference = monolithic V4 scan.
pub fn full_cohort(
    ctx: &Ctx,
    name: &'static str,
    shape: (usize, usize),
    stream: u64,
) -> Result<Cohort, String> {
    let _s = ctx.tracer.span("setup.cohort", 0);
    let (data, path) = generate(ctx, name, shape, stream)?;
    let reference = {
        let _s = ctx.tracer.span("reference.v4_scan", 0);
        check::reference_full(&data, ctx.simd, 2)
    };
    check::self_check(&reference)?;
    let spec = base_spec(&path, ctx.simd);
    Ok(Cohort {
        name,
        elements: epi_core::combin::num_elements(shape.0, shape.1) as f64,
        data,
        path,
        reference,
        spec,
    })
}

/// A cohort whose job owns a single shard of a `plan_shards`-shard plan
/// (the shape of a federation sub-job): reference = V4 shard scan of
/// that shard.
pub fn one_shard_cohort(
    ctx: &Ctx,
    name: &'static str,
    shape: (usize, usize),
    stream: u64,
    plan_shards: u64,
) -> Result<Cohort, String> {
    let _s = ctx.tracer.span("setup.cohort", 0);
    let (data, path) = generate(ctx, name, shape, stream)?;
    let plan = epi_core::ShardPlan::triples(shape.0, plan_shards);
    let shard = mix_seed(ctx.seed, stream + 100) % plan.num_shards();
    let reference = {
        let _s = ctx.tracer.span("reference.v4_shard", 0);
        check::reference_shards(&data, ctx.simd, plan_shards, &[shard])
    };
    check::self_check(&reference)?;
    let mut spec = base_spec(&path, ctx.simd);
    spec.shards = plan_shards;
    spec.shard_set = Some(epi_core::shard::ShardSet::from_indices([shard]));
    Ok(Cohort {
        name,
        elements: (plan.shard_len(shard) * shape.1 as u64) as f64,
        data,
        path,
        reference,
        spec,
    })
}

/// An in-process server on an ephemeral loopback port.
pub fn spawn_server(
    ctx: &Ctx,
    workers: usize,
    spool: Option<PathBuf>,
) -> Result<ServerHandle, String> {
    let _s = ctx.tracer.span("server.start", 0);
    let cfg = EngineConfig {
        workers,
        spool_dir: spool,
        default_simd: Some(ctx.simd),
        ..EngineConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("cannot bind: {e}"))?;
    Ok(server.spawn())
}

/// The scan ladder's servers: one server at two workers, and a fleet of
/// two one-worker nodes (equal total workers).
pub struct Ladder {
    pub served: ServerHandle,
    pub fleet: Vec<ServerHandle>,
}

impl Ladder {
    pub fn start(ctx: &Ctx) -> Result<Self, String> {
        Ok(Self {
            served: spawn_server(ctx, 2, None)?,
            fleet: vec![spawn_server(ctx, 1, None)?, spawn_server(ctx, 1, None)?],
        })
    }

    pub fn fleet_addrs(&self) -> Vec<String> {
        self.fleet.iter().map(|h| h.addr().to_string()).collect()
    }

    pub fn shutdown(self) {
        self.served.shutdown();
        for h in self.fleet {
            h.shutdown();
        }
    }
}
