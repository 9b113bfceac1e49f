#![forbid(unsafe_code)]
//! Workload compiler CLI: runs the split-and-conquer pass for a model
//! and writes the compiled accelerator program (the Fig. 14 one-time
//! compilation artifact) plus Fig. 8-style mask images to a directory.
//!
//! Usage:
//!   cargo run -p vitcod-bench --bin gen_workload --release -- \
//!       [model] [sparsity] [out_dir]
//! Defaults: DeiT-Base, 0.9, ./workload_out

use std::fs;
use std::path::PathBuf;

use vitcod_baselines::protocol::{Protocol, WORKLOAD_SEED};
use vitcod_core::{mask_grid_to_pgm, save_program};
use vitcod_model::ViTConfig;

fn model_by_name(name: &str) -> Option<ViTConfig> {
    ViTConfig::all_paper_models()
        .into_iter()
        .find(|m| m.name.eq_ignore_ascii_case(name))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let model = args
        .get(1)
        .and_then(|n| model_by_name(n))
        .unwrap_or_else(ViTConfig::deit_base);
    let sparsity: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.9);
    let out_dir = PathBuf::from(
        args.get(3)
            .cloned()
            .unwrap_or_else(|| "workload_out".into()),
    );

    println!(
        "compiling {} at {:.0}% sparsity into {}",
        model.name,
        sparsity * 100.0,
        out_dir.display()
    );
    fs::create_dir_all(&out_dir).expect("create output directory");

    let protocol = Protocol::new(WORKLOAD_SEED);
    let polarized = protocol.polarize(&model, sparsity);
    let program = protocol.program(&model, sparsity, true);

    // 1. The compiled program artifact.
    let program_path = out_dir.join("program.vitcod");
    fs::write(&program_path, save_program(&program)).expect("write program artifact");
    println!(
        "  wrote {} ({} layers, {:.1}% sparsity, {:.1} M attention MACs)",
        program_path.display(),
        program.layers.len(),
        program.overall_sparsity() * 100.0,
        program.total_macs() as f64 / 1e6
    );

    // 2. Fig. 8-style mosaics: pruned-only and polarized masks.
    let pruned: Vec<_> = polarized.iter().flatten().map(|p| &p.pruned).collect();
    let reordered: Vec<_> = polarized
        .iter()
        .flatten()
        .map(|p| p.polarized_mask())
        .collect();
    let cols = model.heads;
    fs::write(
        out_dir.join("masks_pruned.pgm"),
        mask_grid_to_pgm(&pruned, cols),
    )
    .expect("write pruned mosaic");
    fs::write(
        out_dir.join("masks_polarized.pgm"),
        mask_grid_to_pgm(&reordered, cols),
    )
    .expect("write polarized mosaic");
    println!(
        "  wrote {} and {} ({} heads, viewable as PGM)",
        out_dir.join("masks_pruned.pgm").display(),
        out_dir.join("masks_polarized.pgm").display(),
        pruned.len()
    );

    // 3. Per-layer summary.
    let mut summary = String::from("layer,mean_global_tokens,attention_macs\n");
    for layer in &program.layers {
        summary.push_str(&format!(
            "{},{:.2},{}\n",
            layer.layer,
            layer.mean_global_tokens(),
            layer.total_macs()
        ));
    }
    fs::write(out_dir.join("layers.csv"), summary).expect("write summary");
    println!("  wrote {}", out_dir.join("layers.csv").display());
    println!("done. Reload the program with vitcod_core::load_program.");
}
