//! Every table and figure of the ViTCoD paper, from one table.
//!
//! ```text
//! cargo run --release -p vitcod-bench --bin repro -- fig15 fig19
//! cargo run --release -p vitcod-bench --bin repro -- --all --out REPRO.json
//! ```
//!
//! Each figure is a function returning [`Row`]s; the simulator-only
//! ones are [`Protocol`]'s, the four that train a model and the two that
//! draw text are below. One printer shows every row with the paper's
//! value and the relative error where the paper states one; `--out`
//! writes the same rows as JSON (the committed `REPRO.json` is `--all`).
//! Exits 1 when a row that carries a band is outside it.

use std::process::ExitCode;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::ParamStore;
use vitcod_baselines::protocol::{Protocol, Row, Rows, WORKLOAD_SEED};
use vitcod_bench::render_density;
use vitcod_core::{
    prune_to_sparsity, reorder_global_tokens, PipelineConfig, SplitConquerConfig, ViTCoDPipeline,
};
use vitcod_model::{
    AutoEncoderSpec, SyntheticTask, SyntheticTaskConfig, TrainConfig, Trainer, ViTConfig,
    VisionTransformer,
};

type Figure = fn(&Protocol) -> Vec<Row>;

/// `(name, paper artifact, figure)`.
const FIGURES: &[(&str, &str, Figure)] = &[
    ("tab1", "Table I", tab1),
    ("fig1", "Fig. 1", fig1),
    ("fig3", "Fig. 3", Protocol::fig3),
    ("fig4", "Fig. 4", Protocol::fig4),
    ("fig8", "Fig. 8", fig8),
    ("fig9", "Fig. 9(b)", fig9),
    ("fig15", "Fig. 15", Protocol::fig15),
    ("fig16", "Fig. 16", Protocol::fig16),
    ("fig17", "Fig. 17", fig17),
    ("fig18", "Fig. 18", fig18),
    ("fig19", "Fig. 19", Protocol::fig19),
    ("sec6c", "Sec. VI-C ablation", Protocol::sec6c),
    ("nlp", "Sec. VI-B NLP discussion", Protocol::nlp),
    (
        "ablation_dataflow",
        "Sec. V-A / Fig. 11",
        Protocol::ablation_dataflow,
    ),
    (
        "ablation_formats",
        "Sec. V-B index format",
        Protocol::ablation_formats,
    ),
    (
        "ablation_pe_allocation",
        "Sec. V-B PE allocation",
        Protocol::ablation_pe_allocation,
    ),
    (
        "buffer_report",
        "Sec. V-B SRAM residency",
        Protocol::buffer_report,
    ),
    (
        "calibrate",
        "raw latencies (not a paper artifact)",
        Protocol::calibrate,
    ),
];

fn main() -> ExitCode {
    let mut names: Vec<String> = vec![];
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => names.extend(FIGURES.iter().map(|f| f.0.to_string())),
            "--out" => out = args.next(),
            _ => names.push(arg),
        }
    }
    let unknown = names.iter().find(|n| FIGURES.iter().all(|f| f.0 != **n));
    if names.is_empty() || unknown.is_some() {
        let known: Vec<_> = FIGURES.iter().map(|f| f.0).collect();
        eprintln!(
            "usage: repro <name>... | --all [--out PATH]\nnames: {}",
            known.join(" ")
        );
        return ExitCode::from(2);
    }

    let protocol = Protocol::new(WORKLOAD_SEED);
    let mut rows = vec![];
    for &(name, artifact, figure) in FIGURES.iter().filter(|f| names.iter().any(|n| n == f.0)) {
        println!("\n== {name} — {artifact} ==");
        let figure_rows = figure(&protocol);
        figure_rows.iter().for_each(print_row);
        rows.extend(figure_rows);
    }
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, to_json(&rows)) {
            eprintln!("repro: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    let out_of_band = rows.iter().filter(|r| r.in_band() == Some(false)).count();
    if out_of_band > 0 {
        eprintln!("repro: {out_of_band} banded row(s) out of band");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn print_row(r: &Row) {
    let d = r.decimals;
    let mut line = format!(
        "{:<8} {:<58} {:>12.d$} {:<5}",
        r.figure, r.label, r.value, r.unit
    );
    if let (Some(paper), Some(err)) = (r.paper, r.rel_err()) {
        line += &format!(" paper {paper:.d$} ({:+.1}%)", err * 100.0);
    }
    if let (Some((lo, hi)), Some(ok)) = (r.band, r.in_band()) {
        let verdict = if ok { "in band" } else { "OUT OF BAND" };
        line += &format!("  {verdict} [{lo:.d$}, {hi:.d$}]");
    }
    println!("{}", line.trim_end());
}

/// The rows as JSON, values at the precision they are printed at.
fn to_json(rows: &[Row]) -> String {
    let num = |x: f64, decimals: usize| {
        if x.is_finite() {
            format!("{x:.decimals$}")
        } else {
            "null".to_string()
        }
    };
    let opt = |x: Option<f64>, decimals: usize| x.map_or("null".to_string(), |x| num(x, decimals));
    let mut s = format!("{{\n  \"seed\": {WORKLOAD_SEED},\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let band = r.band.map_or("null".to_string(), |(lo, hi)| {
            format!("[{}, {}]", num(lo, r.decimals), num(hi, r.decimals))
        });
        let in_band = r.in_band().map_or("null".to_string(), |b| b.to_string());
        s += &format!(
            "    {{\"figure\": \"{}\", \"label\": \"{}\", \"value\": {}, \"unit\": \"{}\", \
             \"paper\": {}, \"rel_err\": {}, \"band\": {band}, \"in_band\": {in_band}}}{}\n",
            r.figure,
            r.label.replace('\\', "\\\\").replace('"', "\\\""),
            num(r.value, r.decimals),
            r.unit,
            opt(r.paper, r.decimals),
            opt(r.rel_err(), 3),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    s + "  ]\n}\n"
}

/// Table I: taxonomy of representative sparse accelerators. ViTCoD is
/// the only static, denser&sparser-regular, low-traffic, low-bandwidth,
/// high-sparsity co-design targeting ViTs.
fn tab1(_: &Protocol) -> Vec<Row> {
    print!("{}", vitcod_core::taxonomy::render());
    vec![]
}

/// Fig. 8: DeiT-Base attention maps after (a) pruning, (b) reordering,
/// (c) both, as 24 × 24 density grids (█ dense, blank pruned): every
/// head ends as a dense block at the left plus a very sparse residue.
fn fig8(p: &Protocol) -> Vec<Row> {
    let model = ViTConfig::deit_base();
    let stats = p.stats(&model);
    let mut r = Rows::new("fig8");
    for (l, h) in [(0usize, 0usize), (5, 6), (11, 11)] {
        let map = &stats.maps[l][h];
        let pruned = prune_to_sparsity(map, 0.9);
        // Reordering alone needs a support pattern to rank columns: a
        // mildly pruned map.
        let support = prune_to_sparsity(map, 0.5);
        let reorder_only = reorder_global_tokens(&support, None);
        let both = reorder_global_tokens(&pruned, None);
        let reordered = support.permute_symmetric(&reorder_only.perm);
        let polarized = pruned.permute_symmetric(&both.perm);
        for (panel, mask) in [
            ("(a) prune only", &pruned),
            ("(b) reorder only", &reordered),
            ("(c) prune + reorder", &polarized),
        ] {
            println!("layer {l} head {h} {panel}\n{}", render_density(mask, 24));
        }
        r.about(&format!("layer {l} head {h}")).put(&[
            ("pruned sparsity", pruned.sparsity() * 100.0, 1, "%"),
            ("N_gt reorder only", reorder_only.num_global as f64, 0, ""),
            ("N_gt prune + reorder", both.num_global as f64, 0, ""),
            ("denser density", both.denser_density(), 2, ""),
            ("sparser density", both.sparser_density(), 3, ""),
        ]);
    }
    let heads = p.polarize(&model, 0.9);
    let all: Vec<_> = heads.iter().flatten().collect();
    let with_globals = all.iter().filter(|h| h.num_global() > 0).count();
    let polarization = all.iter().map(|h| h.reorder.polarization()).sum::<f64>() / all.len() as f64;
    r.about("").put(&[
        ("heads", all.len() as f64, 0, ""),
        (
            "heads with detected global tokens",
            with_globals as f64,
            0,
            "",
        ),
        (
            "mean polarization (denser - sparser density)",
            polarization,
            3,
            "",
        ),
    ]);
    r.rows
}

/// The training figures' shared set-up: the synthetic vision task (the
/// documented ImageNet substitution) and the pipeline over a reduced
/// trainable twin of `model` — `full` turns on both ViTCoD steps at the
/// model's paper sparsity, otherwise the run is dense pretraining only.
fn task() -> SyntheticTask {
    SyntheticTask::generate(SyntheticTaskConfig::default())
}

fn epochs(epochs: usize, lr: Option<f32>) -> TrainConfig {
    let base = TrainConfig::default();
    let lr = lr.unwrap_or(base.lr);
    TrainConfig { epochs, lr, ..base }
}

fn pipeline(
    model: &ViTConfig,
    seed: u64,
    pretrain: usize,
    finetune: usize,
    full: bool,
) -> PipelineConfig {
    let model = model.reduced_for_training();
    PipelineConfig {
        pretrain: epochs(pretrain, None),
        finetune: epochs(finetune, Some(1e-3)),
        auto_encoder: full.then(|| AutoEncoderSpec::half(model.heads)),
        split_conquer: full.then(|| SplitConquerConfig::with_sparsity(model.paper_sparsity)),
        seed,
        model,
    }
}

fn name_sum(model: &ViTConfig) -> u64 {
    model.name.bytes().map(u64::from).sum()
}

/// A fraction as a percentage, scaled in `f32` like the accuracies it
/// is applied to.
fn pct(x: f32) -> f64 {
    f64::from(x * 100.0)
}

/// Fig. 1: accuracy vs sparsity under *fixed* masks, measured on reduced
/// DeiT twins (pretrain, then prune + finetune at each sparsity), beside
/// the NLP series the paper aggregates from the literature (BLEU on
/// IWSLT EN→DE under dynamic sparse attention; no NLP training stack is
/// in scope). Paper: ViTs tolerate 90–95 % with ≤ 1.5 % drop, NLP
/// Transformers lose BLEU past 50–70 %.
fn fig1(_: &Protocol) -> Vec<Row> {
    let task = task();
    let mut r = Rows::new("fig1");
    for model in [ViTConfig::deit_small(), ViTConfig::deit_base()] {
        let name = model.name;
        let cfg = pipeline(&model, 0xF161 ^ name.len() as u64, 14, 6, false);
        let finetune = cfg.finetune;
        let dense = ViTCoDPipeline::new(cfg).run(&task);
        let dense_acc = dense.dense_accuracy;
        r.about(name)
            .put(&[("dense accuracy", pct(dense_acc), 1, "%")]);
        for s in [0.10, 0.30, 0.50, 0.70, 0.90, 0.95] {
            let mut finetuned = dense.trainer.clone();
            let sc = SplitConquerConfig::with_sparsity(s);
            ViTCoDPipeline::finetune_sparse(&mut finetuned, &task, sc, &finetune);
            let acc = finetuned.evaluate(&task.test);
            r.about(&format!("{name} @{:.0}%", s * 100.0)).put(&[
                ("accuracy", pct(acc), 1, "%"),
                ("drop", pct(dense_acc - acc), 1, "%"),
            ]);
        }
    }
    r.about("NLP reference (literature, not measured)").put(&[
        ("@10%", 34.5, 1, "BLEU"),
        ("@30%", 34.2, 1, "BLEU"),
        ("@50%", 33.8, 1, "BLEU"),
        ("@70%", 31.5, 1, "BLEU"),
        ("@90%", 25.0, 1, "BLEU"),
        ("@95%", 22.0, 1, "BLEU"),
    ]);
    r.rows
}

/// Fig. 17: accuracy (full pipeline on the reduced twin) against
/// attention-layer latency (full-scale simulator), ViTCoD vs unpruned,
/// plus the sparsity-ratio ablation on DeiT-Small. Paper: 45.1–85.8 %
/// (DeiT) and 72.0–84.3 % (LeViT) latency reductions at < 1 % drop.
fn fig17(p: &Protocol) -> Vec<Row> {
    let task = task();
    let mut r = Rows::new("fig17");
    let latency = |m: &ViTConfig, s: f64, ae: bool| p.vitcod_attention(m, s, ae, 1).latency_s;
    for m in ViTConfig::classification_models() {
        let cfg = pipeline(&m, 0xC0DE ^ name_sum(&m), 16, 8, true);
        let report = ViTCoDPipeline::new(cfg).run(&task);
        let (dense, vitcod) = (latency(&m, 0.0, false), latency(&m, m.paper_sparsity, true));
        r.about(&format!("{} @{:.0}%", m.name, m.paper_sparsity * 100.0))
            .put(&[
                ("dense accuracy", pct(report.dense_accuracy), 1, "%"),
                ("ViTCoD accuracy", pct(report.final_accuracy), 1, "%"),
                ("accuracy drop", pct(report.accuracy_drop()), 1, "%"),
                ("dense attention latency", dense * 1e6, 1, "us"),
                ("ViTCoD attention latency", vitcod * 1e6, 1, "us"),
                (
                    "attention latency saved",
                    (1.0 - vitcod / dense) * 100.0,
                    1,
                    "%",
                ),
            ]);
    }
    let m = ViTConfig::deit_small();
    let dense = latency(&m, 0.0, false);
    for s in [0.50, 0.60, 0.70, 0.80, 0.90, 0.95] {
        let lat = latency(&m, s, true);
        r.about(&format!("ablation: {} @{:.0}%", m.name, s * 100.0))
            .put(&[
                ("latency", lat * 1e6, 1, "us"),
                ("saved", (1.0 - lat / dense) * 100.0, 1, "%"),
            ]);
    }
    r.rows
}

/// Fig. 9(b): DeiT training trajectories with AE modules. Paper: both
/// losses drop steadily and accuracy recovers to the vanilla level.
fn fig9(_: &Protocol) -> Vec<Row> {
    let models = &ViTConfig::classification_models()[..3];
    ae_trajectories("fig9", models, |_| 0xF19)
}

/// Fig. 18: the same for LeViT.
fn fig18(_: &Protocol) -> Vec<Row> {
    let models = &ViTConfig::classification_models()[3..];
    ae_trajectories("fig18", models, |m| 0xF18 ^ name_sum(m))
}

/// Trains each reduced twin dense (the dashed "vanilla" line), inserts
/// the 50 % AE and finetunes, reporting accuracy / test loss /
/// reconstruction loss per epoch. Not `ViTCoDPipeline::run`: these
/// figures' seeded numbers continue the init RNG into the AE insertion,
/// where the pipeline reseeds it.
fn ae_trajectories(
    figure: &'static str,
    models: &[ViTConfig],
    seed: impl Fn(&ViTConfig) -> u64,
) -> Vec<Row> {
    let task = task();
    let mut r = Rows::new(figure);
    for cfg in models {
        let reduced = cfg.reduced_for_training();
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed(cfg));
        let (in_dim, classes) = (task.config.in_dim, task.config.num_classes);
        let vit = VisionTransformer::new(&reduced, in_dim, classes, &mut store, &mut rng);
        let mut trainer = Trainer::new(vit, store);
        trainer.train(&task, &epochs(12, None));
        let vanilla = trainer.evaluate(&task.test);
        let spec = AutoEncoderSpec::half(reduced.heads);
        trainer.insert_auto_encoder(spec, &mut rng);
        let trajectory = trainer.train(&task, &epochs(12, Some(1e-3)));

        let heads = format!("({} -> {} heads)", reduced.heads, spec.compressed_heads);
        r.about(&format!("{} {heads}", cfg.name));
        r.put(&[("vanilla accuracy", pct(vanilla), 1, "%")]);
        let mut last_accuracy = vanilla;
        for e in &trajectory.epochs {
            last_accuracy = e.test_accuracy;
            r.about(&format!("{} epoch {}", cfg.name, e.epoch)).put(&[
                ("accuracy", pct(last_accuracy), 1, "%"),
                ("test loss", f64::from(e.train_loss), 4, ""),
                ("reconstruction loss", f64::from(e.recon_loss), 6, ""),
            ]);
        }
        let drop = pct(vanilla - last_accuracy);
        r.about(cfg.name)
            .put(&[("final drop vs vanilla", drop, 1, "%")]);
    }
    r.rows
}
