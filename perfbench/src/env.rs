//! The environment every result is stamped with.

use bitgenome::SimdLevel;
use epi_core::BlockParams;
use std::path::Path;

/// What a result was measured on and built from.
#[derive(Clone, Debug)]
pub struct Stamp {
    /// SIMD tier every scan, job and node runs at.
    pub simd: SimdLevel,
    /// Whether the tier was forced through `EPI3_SIMD`.
    pub simd_forced: bool,
    pub nproc: usize,
    pub l1d: String,
    pub l2: String,
    pub l3: String,
    /// V5 cross-pair cache budget the blocked kernel derives at two
    /// workers, in bytes.
    pub cross_pair_budget: usize,
    pub rustc: &'static str,
    pub git_commit: String,
    pub profile: &'static str,
}

/// The SIMD tier to run at: `EPI3_SIMD` when set (clamped to what the
/// host supports, as every entry point of the program does), otherwise
/// the host's best tier.
pub fn simd_tier() -> Result<(SimdLevel, bool), String> {
    match std::env::var("EPI3_SIMD") {
        Ok(name) if !name.is_empty() => SimdLevel::parse_token(&name)
            .map(|l| (l.clamped_to_host(), true))
            .map_err(|e| format!("EPI3_SIMD: {e}")),
        _ => Ok((SimdLevel::detect(), false)),
    }
}

/// Whether this binary was built with optimisations; timings of any other
/// build say nothing about the program.
pub fn is_release_build() -> bool {
    !cfg!(debug_assertions) && env!("PERFBENCH_PROFILE") == "release"
}

impl Stamp {
    pub fn detect(simd: SimdLevel, simd_forced: bool, workers: usize) -> Self {
        let shared = |c: Option<devices::SharedCache>| {
            c.map_or("undetected".to_string(), |c| {
                format!("{} KiB/{} cpu", c.geom.size_bytes >> 10, c.shared_cpus)
            })
        };
        Self {
            simd,
            simd_forced,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            l1d: devices::detect_l1d().map_or("undetected".to_string(), |g| {
                format!("{} KiB/{}-way", g.size_bytes >> 10, g.ways)
            }),
            l2: shared(devices::detect_l2()),
            l3: shared(devices::detect_l3()),
            cross_pair_budget: BlockParams::with_detected_budget_for_workers(workers),
            rustc: env!("PERFBENCH_RUSTC"),
            git_commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }

    /// One JSON object, printed next to every result.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"simd\":\"{}\",\"simd_forced\":{},\"nproc\":{},\"l1d\":\"{}\",\"l2\":\"{}\",\
             \"l3\":\"{}\",\"cross_pair_budget_bytes\":{},\"rustc\":\"{}\",\"git_commit\":\"{}\",\
             \"profile\":\"{}\"}}",
            self.simd.token(),
            self.simd_forced,
            self.nproc,
            self.l1d,
            self.l2,
            self.l3,
            self.cross_pair_budget,
            self.rustc.replace('"', "'"),
            self.git_commit,
            self.profile
        )
    }
}

/// The commit checked out under `root`, read from `.git` directly so no
/// process is spawned and nothing outside `root` is read. `None` outside
/// a git checkout.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let full = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => match std::fs::read_to_string(git.join(r)) {
            Ok(id) => id.trim().to_string(),
            Err(_) => std::fs::read_to_string(git.join("packed-refs"))
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))?,
        },
    };
    let valid = full.len() >= 12 && full.bytes().all(|b| b.is_ascii_hexdigit());
    valid.then(|| full[..12].to_string())
}
