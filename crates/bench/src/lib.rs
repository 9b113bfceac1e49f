//! Benchmark harness regenerating every table and figure of the ViTCoD
//! paper.
//!
//! Each paper artifact has a dedicated binary (run with
//! `cargo run -p vitcod-bench --bin <name> --release`):
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `tab1_taxonomy` | Table I |
//! | `fig1_sparsity_accuracy` | Fig. 1 |
//! | `fig3_roofline` | Fig. 3 |
//! | `fig4_breakdown` | Fig. 4 |
//! | `fig8_attention_maps` | Fig. 8 |
//! | `fig9_ae_training` | Fig. 9(b) |
//! | `fig15_speedups` | Fig. 15 |
//! | `fig16_floorplan` | Fig. 16 |
//! | `fig17_accuracy_latency` | Fig. 17 |
//! | `fig18_levit_ae` | Fig. 18 |
//! | `fig19_breakdown_energy` | Fig. 19 |
//! | `sec6c_prune_reorder` | Sec. VI-C ablation |
//! | `nlp_comparison` | Sec. VI-B NLP discussion |
//!
//! This library hosts the shared workload builders and table formatting
//! those binaries (and the Criterion benches) use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load;
pub mod timing;

use vitcod_core::{
    compile_model, AcceleratorProgram, AutoEncoderConfig, PolarizedHead, SplitConquer,
    SplitConquerConfig,
};
use vitcod_model::{AttentionStats, ViTConfig};
use vitcod_sim::{AcceleratorConfig, SimReport, ViTCoDAccelerator};

/// Seed used for every attention-statistics ensemble in the harness so
/// all binaries operate on identical workloads.
pub const WORKLOAD_SEED: u64 = 0xB0A7;

/// Builds the split-and-conquer output for `model` at `sparsity` from
/// the statistical attention ensemble.
pub fn polarize(model: &ViTConfig, sparsity: f64) -> Vec<Vec<PolarizedHead>> {
    let stats = AttentionStats::for_model(model, WORKLOAD_SEED);
    SplitConquer::new(SplitConquerConfig::with_sparsity(sparsity)).apply(&stats.maps)
}

/// Compiles `model` at `sparsity` into an accelerator program,
/// optionally with the 50 % auto-encoder.
pub fn build_program(model: &ViTConfig, sparsity: f64, ae: bool) -> AcceleratorProgram {
    let heads = polarize(model, sparsity);
    let ae_cfg = ae.then(|| AutoEncoderConfig::half(model.heads));
    compile_model(model, &heads, ae_cfg)
}

/// Simulates ViTCoD's attention core for `model` at `sparsity`.
///
/// `scale` multiplies MAC lines and bandwidth (1 = the paper's 3 mm²
/// configuration; >1 for the peak-throughput-comparable GPU pairing).
pub fn vitcod_attention(model: &ViTConfig, sparsity: f64, ae: bool, scale: usize) -> SimReport {
    let program = build_program(model, sparsity, ae);
    let cfg = AcceleratorConfig::vitcod_paper().scaled(scale);
    ViTCoDAccelerator::new(cfg).simulate_attention_scaled(&program, model)
}

/// Simulates ViTCoD end to end for `model` at `sparsity`.
pub fn vitcod_end_to_end(model: &ViTConfig, sparsity: f64, ae: bool, scale: usize) -> SimReport {
    let program = build_program(model, sparsity, ae);
    let cfg = AcceleratorConfig::vitcod_paper().scaled(scale);
    ViTCoDAccelerator::new(cfg).simulate_end_to_end(&program, model)
}

/// Geometric mean of a slice (the paper's "on-average" speedups are
/// means over models; geomean is the fair aggregate for ratios).
///
/// Returns 0.0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Formats a markdown-ish table row.
pub fn row(cells: &[String]) -> String {
    cells.join(" | ")
}

/// Prints a header line followed by a rule.
pub fn print_header(title: &str) {
    println!("\n=== {title} ===");
}

/// Renders an attention mask down-sampled to an `out × out` ASCII
/// density grid (the Fig. 8 visualisation style): darker glyphs mean
/// denser blocks.
pub fn render_density(mask: &vitcod_core::AttentionMask, out: usize) -> String {
    let n = mask.size();
    let cell = n.div_ceil(out).max(1);
    let glyphs = [' ', '·', '░', '▒', '▓', '█'];
    let mut s = String::new();
    for br in (0..n).step_by(cell) {
        for bc in (0..n).step_by(cell) {
            let mut kept = 0usize;
            let mut total = 0usize;
            for r in br..(br + cell).min(n) {
                for c in bc..(bc + cell).min(n) {
                    total += 1;
                    if mask.is_kept(r, c) {
                        kept += 1;
                    }
                }
            }
            let density = kept as f64 / total.max(1) as f64;
            let idx =
                ((density * (glyphs.len() - 1) as f64).round() as usize).min(glyphs.len() - 1);
            s.push(glyphs[idx]);
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // The empty-geomean sentinel and the exact mean of exactly
    // representable inputs are deliberate strict comparisons.
    #[allow(clippy::float_cmp)]
    fn geomean_and_mean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn build_program_respects_sparsity() {
        let p = build_program(&ViTConfig::deit_tiny(), 0.9, false);
        assert!((p.overall_sparsity() - 0.9).abs() < 0.03);
        assert!(p.auto_encoder.is_none());
        let p_ae = build_program(&ViTConfig::deit_tiny(), 0.9, true);
        assert!(p_ae.auto_encoder.is_some());
    }

    #[test]
    fn vitcod_reports_are_consistent() {
        let m = ViTConfig::deit_tiny();
        let attn = vitcod_attention(&m, 0.9, true, 1);
        let e2e = vitcod_end_to_end(&m, 0.9, true, 1);
        assert!(e2e.latency_s > attn.latency_s);
    }

    #[test]
    fn render_density_shape() {
        let mask = vitcod_core::AttentionMask::dense(32);
        let s = render_density(&mask, 8);
        assert_eq!(s.lines().count(), 8);
        assert!(s.contains('█'));
    }
}
