//! Ablation study of the paper's design choices, *measured* on this host:
//!
//! 1. phenotype split + genotype-2 inference (V1 → V2)
//! 2. cache blocking (V2 → V3) and the ⟨B_S, B_P⟩ sweep
//! 3. vectorisation tier (scalar / AVX2 / AVX-512 / AVX-512-VPOPCNT)
//! 4. GPU layout coalescing (row-major vs transposed vs tiled)
//!
//! Run with: `cargo run --release -p bench --bin ablations [snps=N] [samples=N]`

use bench::{arg_usize, workload, TextTable};
use bitgenome::layout::{RowMajorPlanes, TiledPlanes, TransposedPlanes};
use bitgenome::{SimdLevel, SplitDataset};
use epi_core::scan::{scan, ScanConfig, Version};
use epi_core::BlockParams;
use gpu_sim::coalesce::coalescing_efficiency;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let m = arg_usize(&args, "snps", 160);
    let n = arg_usize(&args, "samples", 8192);
    let (g, p) = workload(m, n, 5);
    println!("workload: {m} SNPs x {n} samples\n");

    // 1+2. version ladder
    println!("== ablation 1/2: optimisation ladder (paper §IV-A) ==\n");
    let mut t = TextTable::new(vec!["version", "G elems/s", "vs previous", "vs V1"]);
    let mut prev: Option<f64> = None;
    let mut v1: Option<f64> = None;
    for version in Version::ALL {
        let res = scan(&g, &p, &ScanConfig::new(version));
        let gps = res.giga_elements_per_sec();
        v1.get_or_insert(gps);
        t.row(vec![
            version.name().to_string(),
            format!("{gps:.2}"),
            prev.map(|q| format!("{:.2}x", gps / q))
                .unwrap_or_else(|| "-".into()),
            format!("{:.2}x", gps / v1.unwrap()),
        ]);
        prev = Some(gps);
    }
    println!("{}", t.render());

    // 2b. block-size sweep around the analytic optimum
    println!("== ablation 2b: ⟨B_S, B_P⟩ sweep (V4) ==\n");
    let mut t = TextTable::new(vec!["B_S", "B_P (32-bit words)", "FT bytes", "G elems/s"]);
    for bs in [2usize, 3, 5, 8, 12] {
        for bp in [64usize, 400, 1024] {
            let mut cfg = ScanConfig::new(Version::V4);
            cfg.block = Some(BlockParams { bs, bp });
            let res = scan(&g, &p, &cfg);
            t.row(vec![
                bs.to_string(),
                bp.to_string(),
                BlockParams { bs, bp }.ft_bytes().to_string(),
                format!("{:.2}", res.giga_elements_per_sec()),
            ]);
        }
    }
    println!("{}", t.render());

    // 3. SIMD tier sweep
    println!("== ablation 3: vectorisation tier (V4 traversal) ==\n");
    let mut t = TextTable::new(vec!["tier", "G elems/s", "vs scalar"]);
    let mut scalar: Option<f64> = None;
    for level in SimdLevel::available() {
        let mut cfg = ScanConfig::new(Version::V4);
        cfg.simd = Some(level);
        let res = scan(&g, &p, &cfg);
        let gps = res.giga_elements_per_sec();
        scalar.get_or_insert(gps);
        t.row(vec![
            level.name().to_string(),
            format!("{gps:.2}"),
            format!("{:.2}x", gps / scalar.unwrap()),
        ]);
    }
    println!("{}", t.render());

    // 4. GPU layout coalescing (measured from address streams)
    println!("== ablation 4: GPU layout coalescing efficiency ==\n");
    let split = SplitDataset::encode(&g, &p);
    let row = RowMajorPlanes::new(split.controls(), m);
    let tr = TransposedPlanes::from_class(split.controls(), m);
    let mut t = TextTable::new(vec!["layout", "warp-32 efficiency"]);
    t.row(vec![
        "row-major (GPU V2)".to_string(),
        format!("{:.3}", coalescing_efficiency(&row, 32)),
    ]);
    t.row(vec![
        "transposed (GPU V3)".to_string(),
        format!("{:.3}", coalescing_efficiency(&tr, 32)),
    ]);
    for bs in [16usize, 32, 64] {
        let ti = TiledPlanes::from_class(split.controls(), m, bs);
        t.row(vec![
            format!("tiled BS={bs} (GPU V4)"),
            format!("{:.3}", coalescing_efficiency(&ti, 32)),
        ]);
    }
    println!("{}", t.render());
}
