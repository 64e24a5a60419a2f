//! Per-layer measurements of the traced run: each layer's public entry
//! point called directly, under a span, with its own counts.

use crate::check::check_top;
use crate::inputs::Cohort;
use crate::ops::{self, v5_config, POLL};
use crate::stats::{median, ms};
use crate::Ctx;
use bitgenome::{SimdLevel, SplitDataset, Word};
use epi_core::costs::VersionCosts;
use epi_core::prefixcache::PairPrefixCache;
use epi_core::scan::scan_split_with_workers;
use epi_core::shard::{scan_shard_split_cached, scan_sharded_with_workers};
use epi_core::{BlockParams, ShardPlan, TopK};
use epi_server::{Client, Engine, EngineConfig, JobState};
use std::time::{Duration, Instant};

/// Minimum measured time per kernel repetition.
const KERNEL_REP: Duration = Duration::from_millis(20);
const KERNEL_REPS: usize = 5;

fn pseudo_random_words(n: usize, seed: u64) -> Vec<Word> {
    (0..n as u64)
        .map(|i| crate::inputs::mix_seed(seed, i))
        .collect()
}

/// Nanoseconds per word of `kernel`, which processes `words` words per
/// call: median over repetitions of at least [`KERNEL_REP`] each.
fn ns_per_word(words: usize, mut kernel: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            while start.elapsed() < KERNEL_REP {
                kernel();
                calls += 1;
            }
            start.elapsed().as_nanos() as f64 / (calls as f64 * words as f64)
        })
        .collect();
    median(&reps).unwrap_or(f64::NAN)
}

/// `epi_core::simd`: the V5 inner kernel and the pair-cache fill on
/// buffers of one class's words.
pub fn simd(ctx: &Ctx, words: usize) -> (f64, f64) {
    let level: SimdLevel = ctx.simd;
    let words = words.max(1);
    let pairs = pseudo_random_words(9 * words, 1);
    let z0 = pseudo_random_words(words, 2);
    let z1 = pseudo_random_words(words, 3);
    let mut acc = [0u32; 27];
    let acc18 = {
        let _s = ctx.tracer.span("simd.accumulate18", 0);
        ns_per_word(words, || {
            epi_core::simd::accumulate18(level, &pairs, &z0, &z1, &mut acc);
        })
    };
    std::hint::black_box(acc);
    let (x0, x1) = (pseudo_random_words(words, 4), pseudo_random_words(words, 5));
    let mut streams = vec![0 as Word; 9 * words];
    let mut counts = [0u32; 9];
    let fill = {
        let _s = ctx.tracer.span("simd.fill_pair_cache", 0);
        ns_per_word(words, || {
            epi_core::simd::fill_pair_cache(level, &x0, &x1, &z0, &z1, &mut streams, &mut counts);
        })
    };
    std::hint::black_box((&streams, counts));
    (acc18, fill)
}

/// `epi_core::costs`: the analytic V5 model of this cohort's blocked
/// scan — ops per byte, and GINTOP/s at a measured element rate. Both
/// are computed, not measured.
pub fn costs(ctx: &Ctx, ds: &SplitDataset, elements_per_sec: f64) -> (f64, f64) {
    let params = v5_config(ctx, 2).effective_block();
    let class_words = ds.controls().num_words() + ds.cases().num_words();
    let budget = BlockParams::with_detected_budget_for_workers(2);
    let nb = ds.num_snps().div_ceil(params.bs.max(1));
    let model = VersionCosts::v5_blocked(&params, class_words, budget, nb);
    (
        model.gintops(elements_per_sec),
        model.arithmetic_intensity(),
    )
}

/// `datagen::io`, `bitgenome` encode and `epi_core::integrity`: read,
/// encode and hash of one dataset file, medians of three, in ms.
pub fn load_path(ctx: &Ctx, cohort: &Cohort) -> Result<(f64, f64, f64), String> {
    let (mut read, mut encode, mut hash) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let (g, p) = {
            let _s = ctx.tracer.span("io.load", 0);
            datagen::io::load(&cohort.path).map_err(|e| format!("read {}: {e}", cohort.path))?
        };
        read.push(ms(t.elapsed()));
        let t = Instant::now();
        let ds = {
            let _s = ctx.tracer.span("bitgenome.encode", 0);
            SplitDataset::encode(&g, &p)
        };
        encode.push(ms(t.elapsed()));
        std::hint::black_box(&ds);
        let t = Instant::now();
        let h = {
            let _s = ctx.tracer.span("integrity.dataset_hash", 0);
            epi_core::dataset_hash(&g, &p)
        };
        hash.push(ms(t.elapsed()));
        let want = epi_core::dataset_hash(&cohort.data.genotypes, &cohort.data.phenotype);
        if h != want {
            return Err(format!("{} reloaded with a different hash", cohort.name));
        }
    }
    Ok((med(&read), med(&encode), med(&hash)))
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

/// Element rate and pool cache counts of one measured scan.
pub struct ScanLayer {
    pub geps: f64,
    pub hit_rate: f64,
    pub hit_min: f64,
}

/// `epi_core::scan` blocked path at an exact worker count, timed from
/// outside on a pre-encoded dataset and checked.
pub fn blocked(
    ctx: &Ctx,
    cohort: &Cohort,
    ds: &SplitDataset,
    workers: usize,
    name: &'static str,
) -> Result<ScanLayer, String> {
    let cfg = v5_config(ctx, workers);
    let start = Instant::now();
    let (res, stats) = {
        let _s = ctx.tracer.span(name, 0);
        scan_split_with_workers(ds, &cfg, workers)
    };
    let secs = start.elapsed().as_secs_f64();
    check_top(&res.top, &cohort.reference)?;
    let stats = stats.unwrap_or_default();
    Ok(ScanLayer {
        geps: cohort.elements / secs / 1e9,
        hit_rate: stats.hit_rate(),
        hit_min: stats.min_hit_rate(),
    })
}

/// `epi_core::shard` + `prefixcache`: one worker draining the job's
/// shard plan in rank order through one pair-prefix cache — the
/// engine's inner loop, without the engine.
pub fn shard_path(ctx: &Ctx, cohort: &Cohort, ds: &SplitDataset) -> Result<ScanLayer, String> {
    let cfg = v5_config(ctx, 1);
    let plan = ShardPlan::triples(ds.num_snps(), cohort.spec.shards);
    let mut cache = PairPrefixCache::new(ctx.simd);
    let mut top = TopK::new(cfg.top_k);
    let start = Instant::now();
    {
        let _s = ctx.tracer.span("shard.scan_1w", 0);
        for range in plan.ranges() {
            top.merge(scan_shard_split_cached(ds, &cfg, range, &mut cache));
        }
    }
    let secs = start.elapsed().as_secs_f64();
    check_top(&top.into_sorted(), &cohort.reference)?;
    Ok(ScanLayer {
        geps: cohort.elements / secs / 1e9,
        hit_rate: cache.hit_rate(),
        hit_min: cache.hit_rate(),
    })
}

/// `epi_server::engine` in-process, no socket.
pub struct EngineLayer {
    pub submit_ms: f64,
    pub run_s: f64,
    pub overhead_ratio: f64,
    pub pair_hit_rate: f64,
    pub shards_scanned: u64,
    pub rejected: u64,
    /// SUBMIT + run, ms: what a served job costs without the wire.
    pub total_ms: f64,
}

/// Submit one job to an in-process engine at `workers`, poll it to
/// completion, and compare its run time with the sharded scan driver at
/// the same worker count.
pub fn engine(ctx: &Ctx, cohort: &Cohort, workers: usize) -> Result<EngineLayer, String> {
    let engine = Engine::start(EngineConfig {
        workers,
        default_simd: Some(ctx.simd),
        ..EngineConfig::default()
    });
    let outcome = engine_job(ctx, &engine, cohort);
    let stats = (
        engine.pair_cache_stats().hit_rate(),
        engine.shards_scanned(),
        engine.rejected(),
    );
    engine.stop();
    let (submit_ms, run_ms) = outcome?;
    let cfg = v5_config(ctx, workers);
    let (res, _) = {
        let _s = ctx.tracer.span("shard.scan_sharded", 0);
        scan_sharded_with_workers(
            &cohort.data.genotypes,
            &cohort.data.phenotype,
            &cfg,
            cohort.spec.shards,
            workers,
        )
    };
    check_top(&res.top, &cohort.reference)?;
    Ok(EngineLayer {
        submit_ms,
        run_s: run_ms / 1e3,
        overhead_ratio: run_ms / ms(res.elapsed),
        pair_hit_rate: stats.0,
        shards_scanned: stats.1,
        rejected: stats.2,
        total_ms: submit_ms + run_ms,
    })
}

fn engine_job(ctx: &Ctx, engine: &Engine, cohort: &Cohort) -> Result<(f64, f64), String> {
    let start = Instant::now();
    let ack = {
        let _s = ctx.tracer.span("engine.submit", 0);
        engine.submit(cohort.spec.clone())?
    };
    let acked = Instant::now();
    let _s = ctx.tracer.span("engine.run", 0);
    loop {
        let st = engine.status(ack.id)?;
        if st.is_stable() {
            if st.state != JobState::Done {
                return Err(format!("engine job ended {}", st.state));
            }
            break;
        }
        if acked.elapsed() > ops::JOB_TIMEOUT {
            return Err("engine job timed out".into());
        }
        std::thread::sleep(POLL);
    }
    let run_ms = ms(acked.elapsed());
    check_top(&engine.result(ack.id)?, &cohort.reference)?;
    Ok((ms(acked - start), run_ms))
}

/// Median in-process `Engine::submit` time of `cohort`'s job over
/// `reps` submissions (load, encode and hash), ms.
pub fn engine_submit(ctx: &Ctx, cohort: &Cohort, reps: usize) -> Result<f64, String> {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        default_simd: Some(ctx.simd),
        ..EngineConfig::default()
    });
    let mut times = Vec::new();
    let mut outcome = Ok(());
    for _ in 0..reps {
        let start = Instant::now();
        let submitted = {
            let _s = ctx.tracer.span("engine.submit", 0);
            engine.submit(cohort.spec.clone())
        };
        match submitted {
            Ok(ack) => {
                times.push(ms(start.elapsed()));
                // the job itself is not what is measured here
                let _ = engine.cancel(ack.id);
            }
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
    }
    engine.stop();
    outcome.map(|()| med(&times))
}

/// `epi_server::client`/`frame`: PING round trips on an idle server,
/// text and framed connections interleaved, medians in µs.
pub fn pings(ctx: &Ctx, addr: std::net::SocketAddr, n: usize) -> Result<(f64, f64), String> {
    let mut text = ops::connect(addr)?;
    let mut framed = Client::connect_framed_with_deadline(addr, ops::RPC_DEADLINE)
        .map_err(|e| format!("connect framed: {e}"))?;
    let (mut t, mut f) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        for (client, out, name) in [
            (&mut text, &mut t, "client.ping_text"),
            (&mut framed, &mut f, "client.ping_framed"),
        ] {
            let start = Instant::now();
            {
                let _s = ctx.tracer.span(name, 0);
                client.ping()?;
            }
            out.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok((med(&t), med(&f)))
}
