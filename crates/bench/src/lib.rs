//! Benchmark harness of the ViTCoD reproduction.
//!
//! Every table and figure of the paper comes from one binary,
//! `cargo run --release -p vitcod-bench --bin repro -- <name>... | --all
//! [--out PATH]`; how ViTCoD is compared in them is
//! [`vitcod_baselines::protocol`]'s to say, not this crate's.
//!
//! | `repro` name | paper artifact |
//! |--------------|----------------|
//! | `tab1` | Table I |
//! | `fig1` | Fig. 1 |
//! | `fig3` | Fig. 3 |
//! | `fig4` | Fig. 4 |
//! | `fig8` | Fig. 8 |
//! | `fig9` | Fig. 9(b) |
//! | `fig15` | Fig. 15 |
//! | `fig16` | Fig. 16 |
//! | `fig17` | Fig. 17 |
//! | `fig18` | Fig. 18 |
//! | `fig19` | Fig. 19 |
//! | `sec6c` | Sec. VI-C ablation |
//! | `nlp` | Sec. VI-B NLP discussion |
//! | `ablation_dataflow` | Sec. V-A / Fig. 11 dataflow choice |
//! | `ablation_formats` | Sec. V-B index format |
//! | `ablation_pe_allocation` | Sec. V-B PE allocation |
//! | `buffer_report` | Sec. V-B SRAM residency |
//! | `calibrate` | raw latencies behind Fig. 15(a); not a paper artifact |
//!
//! The other binaries (`load_harness`, `rss_phases`, `gen_workload`)
//! and the three benches measure the host-side system. This library
//! hosts what they share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load;
pub mod timing;

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
    fn render_density_shape() {
        let mask = vitcod_core::AttentionMask::dense(32);
        let s = render_density(&mask, 8);
        assert_eq!(s.lines().count(), 8);
        assert!(s.contains('█'));
    }
}
