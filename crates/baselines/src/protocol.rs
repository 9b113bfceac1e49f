//! The evaluation protocol: how ViTCoD is compared (paper Sec. VI).
//!
//! Every comparison in the tree — `repro`, `tests/paper_claims.rs` —
//! asks a [`Protocol`]; nothing else builds the split-and-conquer →
//! compile → simulate chain for a paper model. (The frozen
//! `benchmark/src/workloads/sim.rs` still carries its own copy; ROADMAP
//! item 2(c) replaces it with a call into this module.) Each choice the
//! protocol makes, and what fixes it:
//!
//! * **Model set.** Core-attention headlines are "on average over DeiT
//!   and LeViT": [`ViTConfig::classification_models`], six models. The
//!   per-model bars and the end-to-end means of Fig. 15 add Strided
//!   Transformer: [`ViTConfig::all_paper_models`], seven.
//! * **Sparsity.** Headlines are quoted "under 90 % sparsity" with an
//!   80 % companion; per-model bars use the sparsity at which the paper
//!   reports ≤ 1 % accuracy drop ([`ViTConfig::paper_sparsity`]: 90 %
//!   DeiT / Strided, 80 % LeViT); Fig. 19's average is over 60–90 %.
//! * **Auto-encoder.** "Compress Q and K by 50 %":
//!   [`AutoEncoderConfig::half`], on in every ViTCoD number that is not
//!   an ablation of it.
//! * **Accelerator baselines.** SpAtten and Sanger get "similar hardware
//!   configurations and areas": the same [`AcceleratorConfig`] (MACs,
//!   clock, DRAM bandwidth) as ViTCoD.
//! * **GPU pairing.** "When benchmarking with GPUs w/ larger batch
//!   size, we scale up the accelerators' hardware resource to have a
//!   comparable peak throughput." The paper leaves the factor unstated;
//!   ours is [`GeneralPlatform::comparable_vitcod_scale`] (26 ≈
//!   6.7 TMAC/s ÷ 256 GOPS), applied to latency only — energy is per
//!   inference, so the energy tuple keeps the 3 mm² configuration.
//! * **Aggregate.** The paper says "on average" and leaves the mean
//!   open; ratios are aggregated by [`geomean`].
//! * **Attention maps.** The paper averages ImageNet attention maps of
//!   trained models; we have none, so maps are the seeded ensemble
//!   [`AttentionStats::for_model`]. The seed is the one free input — a
//!   function argument, [`WORKLOAD_SEED`] for every committed number.
//!
//! The simulator-only figures come back as data ([`Row`]): value, the
//! paper's value where it states one, and a band where the reproduction
//! is held to it.

use std::sync::{Arc, Mutex};

use vitcod_core::{
    compile_model, AcceleratorProgram, AutoEncoderConfig, CooMatrix, PolarizedHead, PruneCriterion,
    SplitConquer, SplitConquerConfig,
};
use vitcod_model::{AttentionStats, AttentionStatsConfig, StageConfig, ViTConfig};
use vitcod_sim::{
    check_buffers, denser_sddmm_cycles, floorplan, s_stationary_sddmm_cycles, sparser_sddmm_cycles,
    total_area_mm2, AcceleratorConfig, PeAllocation, Roofline, SimReport, ViTCoDAccelerator,
};

use crate::{GeneralPlatform, SangerSim, SpAttenSim};

/// Attention-map seed of every committed number (`REPRO.json`, README).
pub const WORKLOAD_SEED: u64 = 0xB0A7;

/// The five baselines, in the order every tuple of this module uses.
pub const BASELINES: [&str; 5] = ["CPU", "EdgeGPU", "GPU", "SpAtten", "Sanger"];

/// The band a headline is held to at [`WORKLOAD_SEED`]: ± 15 % of the
/// paper, for every baseline (+ 5.1 / + 11.4 / + 14.6 / − 14.1 /
/// − 12.2 % at 90 % sparsity, − 13.9 / − 1.5 % at 80 %).
const BAND: (f64, f64) = (0.85, 1.15);

/// The band per baseline at any other seed, from eight seeds probed
/// ([`WORKLOAD_SEED`], 1, 2, 3, 7, 11, 42, 1234) — recorded, not tuned
/// away.
///
/// * CPU / EdgeGPU stay inside ± 15 % (0.0 … + 5.1 %, + 6.0 … + 11.4 %):
///   the maps reach them only through ViTCoD's own latency.
/// * The GPU pairing is the headline that moves: + 12.7 … + 33.2 %
///   (112.4 / 108.2 / 98.6× at seeds 7 / 11 / committed against 86.0×),
///   falling as the mean global-token count rises 4.69 / 4.90 / 5.27.
///   Suspected cause: on the ×26 configuration the denser engine's
///   global-token columns are what is left on the critical path, so the
///   ratio tracks how many columns Alg. 1 happens to classify as global.
/// * SpAtten / Sanger are under-predicted at every seed, SpAtten by
///   14.1 … 18.3 % at 90 % and 8.9 … 19.9 % at 80 %, Sanger by 12.2 …
///   16.4 % and up to 8.3 %: ± 15 % at the committed seed is the lucky
///   end of that range, and both moving together points at one term the
///   two baseline models share and ViTCoD's lacks.
const OFF_SEED_BANDS: [(f64, f64); 5] = [BAND, BAND, (0.85, 1.35), (0.75, 1.15), (0.75, 1.15)];

/// Geometric mean, the aggregate for ratios; 0.0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// One reproduced number.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Figure key (`"fig15a"`, `"sec6c"`, …).
    pub figure: &'static str,
    /// What the value is.
    pub label: String,
    /// The reproduced value.
    pub value: f64,
    /// Decimals the figure is quoted at.
    pub decimals: usize,
    /// Unit suffix (`"x"`, `"us"`, `"%"`, …).
    pub unit: &'static str,
    /// The paper's value, where it states one.
    pub paper: Option<f64>,
    /// Inclusive `[lo, hi]` the value must stay in, where it is held.
    pub band: Option<(f64, f64)>,
}

impl Row {
    /// `value / paper − 1`, where the paper states a value.
    pub fn rel_err(&self) -> Option<f64> {
        self.paper.map(|p| self.value / p - 1.0)
    }

    /// Whether the value is inside its band; `None` for unbanded rows.
    pub fn in_band(&self) -> Option<bool> {
        self.band.map(|(lo, hi)| (lo..=hi).contains(&self.value))
    }
}

/// `(what, value, decimals, unit)` of a row about to be filed.
pub type Item<'a> = (&'a str, f64, usize, &'static str);

/// The rows of one figure, in print order.
#[derive(Debug, Default)]
pub struct Rows {
    /// Figure key the next rows are filed under.
    pub figure: &'static str,
    /// What the next rows are about: the prefix of their labels.
    subject: String,
    /// The rows so far.
    pub rows: Vec<Row>,
}

impl Rows {
    /// No rows yet, filing under `figure`.
    pub fn new(figure: &'static str) -> Self {
        Self {
            figure,
            ..Self::default()
        }
    }

    /// Sets the subject of the rows that follow.
    pub fn about(&mut self, subject: &str) -> &mut Self {
        self.subject = subject.to_string();
        self
    }

    /// Files one row per item, labelled `"{subject} {what}"`.
    pub fn put(&mut self, items: &[Item]) {
        for &(what, value, decimals, unit) in items {
            self.rows.push(Row {
                figure: self.figure,
                label: format!("{} {what}", self.subject).trim().to_string(),
                value,
                decimals,
                unit,
                paper: None,
                band: None,
            });
        }
    }

    /// [`Self::put`], each item beside the paper's value for it.
    pub fn vs_paper(&mut self, items: &[(Item, f64)]) {
        for (item, paper) in items {
            self.put(&[*item]);
            self.rows.last_mut().expect("just put").paper = Some(*paper);
        }
    }

    /// Files ViTCoD's advantage over each of [`BASELINES`] (one decimal,
    /// `x`), labelled `"{subject} {baseline} {context}"`.
    fn over_baselines(&mut self, context: &str, x: [f64; 5], paper: [Option<f64>; 5]) {
        for i in 0..5 {
            self.put(&[(&format!("{} {context}", BASELINES[i]), x[i], 1, "x")]);
            self.rows.last_mut().expect("just put").paper = paper[i];
        }
    }
}

type Heads = Arc<Vec<Vec<PolarizedHead>>>;

/// What a [`Protocol`] has already computed. Alg. 1 is ≈ 70 % of a
/// sweep and `compile_model` ≈ 1 ms, so the split-and-conquer output is
/// what is kept: the AE and no-AE programs of one `(model, sparsity)`
/// compile from one pass.
#[derive(Default)]
struct Cache {
    stats: Vec<(ViTConfig, Arc<AttentionStats>)>,
    heads: Vec<(ViTConfig, u64, Heads)>,
}

impl Cache {
    fn stats(&mut self, model: &ViTConfig, seed: u64) -> Arc<AttentionStats> {
        if let Some((_, s)) = self.stats.iter().find(|(m, _)| m == model) {
            return Arc::clone(s);
        }
        let s = Arc::new(AttentionStats::for_model(model, seed));
        self.stats.push((model.clone(), Arc::clone(&s)));
        s
    }

    fn heads(&mut self, model: &ViTConfig, sparsity: f64, seed: u64) -> Heads {
        let key = sparsity.to_bits();
        if let Some((_, _, h)) = self.heads.iter().find(|(m, s, _)| m == model && *s == key) {
            return Arc::clone(h);
        }
        let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(sparsity));
        let h = Arc::new(sc.apply(&self.stats(model, seed).maps));
        self.heads.push((model.clone(), key, Arc::clone(&h)));
        h
    }
}

/// Every model at every sparsity, model-major.
fn cases<'a>(models: &'a [ViTConfig], sparsities: &[f64]) -> Vec<(&'a ViTConfig, f64)> {
    let at_each = |m| sparsities.iter().map(move |s| (m, *s));
    models.iter().flat_map(at_each).collect()
}

/// `"@90%"`.
fn at(sparsity: f64) -> String {
    format!("@{:.0}%", sparsity * 100.0)
}

/// `1.0` / `0.0`, how a yes / no column is filed as a value.
fn flag(yes: bool) -> f64 {
    f64::from(u8::from(yes))
}

/// The comparison of Sec. VI at one attention-map seed.
///
/// # Example
///
/// ```
/// use vitcod_baselines::protocol::Protocol;
/// use vitcod_model::ViTConfig;
///
/// let p = Protocol::new(7);
/// let m = ViTConfig::deit_tiny();
/// let speedups = p.speedups(&[(&m, 0.9)], false);
/// assert!(speedups.iter().all(|s| *s > 1.0));
/// ```
pub struct Protocol {
    seed: u64,
    hw: AcceleratorConfig,
    platforms: Vec<GeneralPlatform>,
    spatten: SpAttenSim,
    sanger: SangerSim,
    cache: Mutex<Cache>,
}

impl Protocol {
    /// The protocol over the attention-map ensemble seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        let hw = AcceleratorConfig::vitcod_paper();
        Self {
            seed,
            hw,
            platforms: GeneralPlatform::all(),
            spatten: SpAttenSim::new(hw),
            sanger: SangerSim::new(hw),
            cache: Mutex::default(),
        }
    }

    fn cache(&self) -> std::sync::MutexGuard<'_, Cache> {
        // The cache only ever gains complete entries, so it is valid
        // after a panic elsewhere.
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// `model`'s attention-map ensemble at this protocol's seed.
    pub fn stats(&self, model: &ViTConfig) -> Arc<AttentionStats> {
        self.cache().stats(model, self.seed)
    }

    /// Split-and-conquer output for `model` at `sparsity`.
    pub fn polarize(&self, model: &ViTConfig, sparsity: f64) -> Heads {
        self.cache().heads(model, sparsity, self.seed)
    }

    /// `model` at `sparsity` as an accelerator program, optionally with
    /// the 50 % auto-encoder.
    pub fn program(&self, model: &ViTConfig, sparsity: f64, ae: bool) -> AcceleratorProgram {
        let ae = ae.then(|| AutoEncoderConfig::half(model.heads));
        compile_model(model, &self.polarize(model, sparsity), ae)
    }

    /// `model` under a split-and-conquer configuration the sparsity
    /// sweep does not cover (the Sec. VI-C ablations), without the AE.
    pub fn program_with(&self, model: &ViTConfig, sc: SplitConquerConfig) -> AcceleratorProgram {
        let heads = SplitConquer::new(sc).apply(&self.stats(model).maps);
        compile_model(model, &heads, None)
    }

    fn vitcod(&self, m: &ViTConfig, s: f64, ae: bool, scale: usize, e2e: bool) -> SimReport {
        let acc = ViTCoDAccelerator::new(self.hw.scaled(scale));
        let program = self.program(m, s, ae);
        if e2e {
            acc.simulate_end_to_end(&program, m)
        } else {
            acc.simulate_attention_scaled(&program, m)
        }
    }

    /// ViTCoD's attention core for `model` at `sparsity`; `scale`
    /// multiplies MAC lines and bandwidth (1 = the 3 mm² configuration).
    pub fn vitcod_attention(&self, m: &ViTConfig, s: f64, ae: bool, scale: usize) -> SimReport {
        self.vitcod(m, s, ae, scale, false)
    }

    /// ViTCoD end to end for `model` at `sparsity`.
    pub fn vitcod_end_to_end(&self, m: &ViTConfig, s: f64, ae: bool, scale: usize) -> SimReport {
        self.vitcod(m, s, ae, scale, true)
    }

    /// The five baselines on `model`, in [`BASELINES`] order.
    pub fn baselines(&self, m: &ViTConfig, s: f64, end_to_end: bool) -> [SimReport; 5] {
        let (cpu, edge, gpu) = (&self.platforms[0], &self.platforms[1], &self.platforms[2]);
        if end_to_end {
            [
                cpu.simulate_end_to_end(m),
                edge.simulate_end_to_end(m),
                gpu.simulate_end_to_end(m),
                self.spatten.simulate_end_to_end(m, s),
                self.sanger.simulate_end_to_end(m, s),
            ]
        } else {
            [
                cpu.simulate_attention(m),
                edge.simulate_attention(m),
                gpu.simulate_attention(m),
                self.spatten.simulate_attention(m, s),
                self.sanger.simulate_attention(m, s),
            ]
        }
    }

    /// Geomean over `cases` of `ratio(baseline, vitcod)`, where ViTCoD
    /// runs at `scale_of(baseline index)`.
    fn compare(
        &self,
        cases: &[(&ViTConfig, f64)],
        e2e: bool,
        scale_of: impl Fn(usize) -> usize,
        ratio: impl Fn(&SimReport, &SimReport) -> f64,
    ) -> [f64; 5] {
        let mut ratios: [Vec<f64>; 5] = Default::default();
        for &(m, s) in cases {
            let unscaled = self.vitcod(m, s, true, 1, e2e);
            for (i, b) in self.baselines(m, s, e2e).iter().enumerate() {
                let scaled = (scale_of(i) > 1).then(|| self.vitcod(m, s, true, scale_of(i), e2e));
                ratios[i].push(ratio(b, scaled.as_ref().unwrap_or(&unscaled)));
            }
        }
        ratios.map(|r| geomean(&r))
    }

    /// ViTCoD's speedup over each baseline, geomean over `cases`
    /// (`(model, sparsity)`), each platform paired with ViTCoD at its
    /// peak-throughput-comparable scale.
    pub fn speedups(&self, cases: &[(&ViTConfig, f64)], end_to_end: bool) -> [f64; 5] {
        let p = &self.platforms;
        let scale = |i: usize| p.get(i).map_or(1, |p| p.comparable_vitcod_scale);
        self.compare(cases, end_to_end, scale, |b, v| b.latency_s / v.latency_s)
    }

    /// ViTCoD's core-attention energy efficiency over each baseline,
    /// geomean over `cases`, on the 3 mm² configuration.
    pub fn energy_efficiency(&self, cases: &[(&ViTConfig, f64)]) -> [f64; 5] {
        self.compare(cases, false, |_| 1, |b, v| v.energy_efficiency_over(b))
    }

    /// The Fig. 15(a) headline — core-attention speedups, geomean over
    /// the six classification models, at 90 % sparsity and at the 80 %
    /// the paper restates two of them at — each held to its band.
    pub fn headline(&self, figure: &'static str) -> Vec<Row> {
        let models = ViTConfig::classification_models();
        let mut r = Rows::new(figure);
        for (sparsity, paper) in [
            (0.9, [235.3, 142.9, 86.0, 10.1, 6.8].map(Some)),
            (0.8, [None, None, None, Some(4.8), Some(3.2)]),
        ] {
            let speedups = self.speedups(&cases(&models, &[sparsity]), false);
            r.about("ViTCoD over")
                .over_baselines(&at(sparsity), speedups, paper);
        }
        // `over_baselines` files five rows per sparsity, in `BASELINES` order.
        for (i, row) in r.rows.iter_mut().enumerate() {
            let at_committed_seed = self.seed == WORKLOAD_SEED;
            let (lo, hi) = if at_committed_seed {
                BAND
            } else {
                OFF_SEED_BANDS[i % 5]
            };
            row.band = row.paper.map(|p| (lo * p, hi * p));
        }
        r.rows
    }

    /// Fig. 15: per-model bars normalized to CPU and the mean speedups,
    /// (a) core attention and (b) end to end.
    pub fn fig15(&self) -> Vec<Row> {
        let models = ViTConfig::all_paper_models();
        let bars = |r: &mut Rows, e2e| {
            for m in &models {
                let s = m.paper_sparsity;
                let [cpu, edge, gpu, spatten, sanger] =
                    self.baselines(m, s, e2e).map(|b| b.latency_s);
                let vitcod = self.vitcod(m, s, true, 1, e2e).latency_s;
                let bar = |who, latency: f64| (who, cpu / latency, 1, "x");
                r.about(m.name).put(&[
                    bar("EdgeGPU over CPU", edge),
                    bar("GPU over CPU", gpu),
                    bar("SpAtten over CPU", spatten),
                    bar("Sanger over CPU", sanger),
                    bar("ViTCoD over CPU", vitcod),
                ]);
            }
        };
        let mut r = Rows::new("fig15a");
        bars(&mut r, false);
        r.rows.extend(self.headline("fig15a"));

        r.figure = "fig15b";
        bars(&mut r, true);
        let at_paper_sparsity: Vec<_> = models.iter().map(|m| (m, m.paper_sparsity)).collect();
        let speedups = self.speedups(&at_paper_sparsity, true);
        let paper = [Some(33.8), Some(5.6), None, Some(3.1), Some(2.1)];
        r.about("ViTCoD over")
            .over_baselines("end to end (7 models)", speedups, paper);
        let e2e = |m: &ViTConfig, s, ae| self.vitcod_end_to_end(m, s, ae, 1).latency_s;
        let techniques: Vec<f64> = ViTConfig::classification_models()
            .iter()
            .map(|m| e2e(m, 0.0, false) / e2e(m, m.paper_sparsity, true))
            .collect();
        let what = "ViTCoD hardware w/ over w/o ViTCoD techniques, end to end";
        r.about("")
            .vs_paper(&[((what, geomean(&techniques), 1, "x"), 1.8)]);
        r.rows
    }

    /// Raw core-attention latencies of every platform at 90 %, the
    /// inputs of `fig15a`'s headline. Not a paper artifact: the view to
    /// read when a modelling constant is in question.
    pub fn calibrate(&self) -> Vec<Row> {
        let mut r = Rows::new("calibrate");
        for m in &ViTConfig::classification_models() {
            let [cpu, edge, gpu, spatten, sanger] =
                self.baselines(m, 0.9, false).map(|b| b.latency_s);
            let vitcod = self.vitcod_attention(m, 0.9, true, 1).latency_s;
            r.about(m.name).put(&[
                ("ViTCoD attention latency", vitcod * 1e6, 1, "us"),
                ("CPU attention latency", cpu * 1e3, 2, "ms"),
                ("EdgeGPU attention latency", edge * 1e3, 2, "ms"),
                ("GPU (batched) attention latency", gpu * 1e3, 3, "ms"),
                ("SpAtten attention latency", spatten * 1e6, 1, "us"),
                ("Sanger attention latency", sanger * 1e6, 1, "us"),
            ]);
        }
        r.rows
    }

    /// Fig. 19: (a) DeiT-Base latency breakdown, Sanger vs ViTCoD's two
    /// innovations; (b) energy efficiency; the 60–90 % averaged speedups.
    pub fn fig19(&self) -> Vec<Row> {
        let m = ViTConfig::deit_base();
        let sanger = self.sanger.simulate_attention(&m, 0.9);
        let sc_only = self.vitcod_attention(&m, 0.9, false, 1);
        let full = self.vitcod_attention(&m, 0.9, true, 1);
        let mut r = Rows::new("fig19a");
        for (design, x) in [
            ("Sanger", &sanger),
            ("ViTCoD (split&conquer)", &sc_only),
            ("ViTCoD (S&C + auto-encoder)", &full),
        ] {
            let b = &x.breakdown;
            let share = |cycles: u64| cycles as f64 / b.total().max(1) as f64 * 100.0;
            r.about(design).put(&[
                ("latency", x.latency_s * 1e6, 1, "us"),
                ("computation share", share(b.compute_cycles), 0, "%"),
                ("preprocess share", share(b.preprocess_cycles), 0, "%"),
                ("data movement share", share(b.data_movement_cycles), 0, "%"),
            ]);
        }
        let sc_gain = sanger.latency_s / sc_only.latency_s;
        let ae_gain = sc_only.latency_s / full.latency_s;
        let moved = |x: &SimReport| x.breakdown.data_movement_fraction() * 100.0;
        r.about("").vs_paper(&[
            (("S&C over Sanger", sc_gain, 1, "x"), 2.7),
            (("AE adds a further", ae_gain, 1, "x"), 2.5),
            (
                ("data-movement share before AE", moved(&sc_only), 0, "%"),
                50.0,
            ),
            (("data-movement share after AE", moved(&full), 0, "%"), 28.0),
        ]);

        let models = ViTConfig::classification_models();
        let energy = self.energy_efficiency(&cases(&models, &[0.9]));
        let paper = [None, None, None, None, Some(9.8)];
        r.figure = "fig19b";
        r.about("energy efficiency over")
            .over_baselines("@90%", energy, paper);
        let speedups = self.speedups(&cases(&models, &[0.6, 0.7, 0.8, 0.9]), false);
        let paper = [127.2, 77.0, 46.5, 6.8, 4.3].map(Some);
        r.figure = "fig19";
        r.about("ViTCoD over")
            .over_baselines("averaged over 60-90%", speedups, paper);
        r.rows
    }

    /// Sec. VI-B NLP discussion: static masks cost NLP accuracy, so the
    /// paper charges ViTCoD a Sanger-style dynamic mask prediction on a
    /// BERT-Base-like model and still reports 1.93× / 3.69× over Sanger.
    pub fn nlp(&self) -> Vec<Row> {
        let model = bert_base_like();
        // NLP attention leans less diagonal: a wider band and more
        // globals, from the same ensemble generator.
        let stats = AttentionStats::generate(AttentionStatsConfig {
            diagonal_width: 6.0,
            global_tokens: 8.0,
            global_mass: 0.4,
            background_mass: 0.1,
            ..AttentionStatsConfig::for_model(&model, self.seed)
        });
        let acc = ViTCoDAccelerator::new(self.hw);
        let predict = nlp_prediction_cycles(&self.hw, &model);
        let mut r = Rows::new("nlp");
        for (s, paper) in [(0.6, 1.93), (0.9, 3.69)] {
            let heads = SplitConquer::new(SplitConquerConfig::with_sparsity(s)).apply(&stats.maps);
            let ae = Some(AutoEncoderConfig::half(model.heads));
            let attention = acc.simulate_attention(&compile_model(&model, &heads, ae));
            let vitcod_s = self.hw.cycles_to_seconds(attention.total_cycles + predict);
            let sanger_s = self.sanger.simulate_attention(&model, s).latency_s;
            r.about(&at(s)).put(&[
                ("Sanger latency", sanger_s * 1e6, 1, "us"),
                ("ViTCoD + prediction latency", vitcod_s * 1e6, 1, "us"),
            ]);
            r.vs_paper(&[(("ViTCoD over Sanger", sanger_s / vitcod_s, 2, "x"), paper)]);
        }
        r.rows
    }

    /// Sec. VI-C: the separate benefits of pruning ((prune + reorder) vs
    /// reorder-only) and of reordering (vs prune-only), DeiT models.
    pub fn sec6c(&self) -> Vec<Row> {
        let acc = ViTCoDAccelerator::new(self.hw);
        let sparsities = [0.6, 0.7, 0.8, 0.9];
        let (mut prune, mut reorder) = (vec![], vec![]);
        let mut r = Rows::new("sec6c");
        // The three DeiTs, largest first.
        for m in ViTConfig::classification_models()[..3].iter().rev() {
            let latency = |p: &AcceleratorProgram| acc.simulate_attention_scaled(p, m).latency_s;
            // Reorder only: the dense map, reordered.
            let reorder_only = latency(&self.program(m, 0.0, false));
            for s in sparsities {
                let both = latency(&self.program(m, s, false));
                // Prune only: no column is ever classified as global.
                let never_global = SplitConquerConfig {
                    criterion: PruneCriterion::TargetSparsity(s),
                    theta_d: Some(usize::MAX),
                };
                let prune_only = latency(&self.program_with(m, never_global));
                prune.push(reorder_only / both);
                reorder.push(prune_only / both);
                r.about(&format!("{} {}", m.name, at(s))).put(&[
                    ("prune + reorder", both * 1e6, 1, "us"),
                    ("prune only", prune_only * 1e6, 1, "us"),
                    ("reorder only", reorder_only * 1e6, 1, "us"),
                    ("pruning gain", reorder_only / both, 2, "x"),
                    ("reordering gain", prune_only / both, 2, "x"),
                ]);
            }
        }
        // The paper quotes the split at the sweep's last point, 90 %.
        let at_90 = |gains: &[f64]| {
            let last = gains
                .chunks(sparsities.len())
                .filter_map(|c| c.last().copied());
            geomean(&last.collect::<Vec<_>>())
        };
        r.about("").vs_paper(&[
            (("pruning benefit, mean", geomean(&prune), 2, "x"), 5.14),
            (("pruning benefit @90%", at_90(&prune), 2, "x"), 8.14),
            (
                ("reordering benefit, mean", geomean(&reorder), 2, "x"),
                2.59,
            ),
            (("reordering benefit @90%", at_90(&reorder), 2, "x"), 2.03),
        ]);
        r.rows
    }

    /// Fig. 3: roofline placement of DeiT-Base core attention, dense /
    /// polarized sparse / ViTCoD. (Paper axis anchors: 0.6 / 3.9
    /// ops per byte.)
    pub fn fig3(&self) -> Vec<Row> {
        let roof = Roofline::from_config(&self.hw);
        let mut r = Rows::new("fig3");
        r.put(&[
            ("compute roof", roof.peak_gops(), 0, "GOPS"),
            ("bandwidth roof", roof.bandwidth_gbps(), 1, "GB/s"),
            ("ridge", roof.ridge_intensity(), 2, "ops/B"),
        ]);
        let model = ViTConfig::deit_base();
        for (name, sparsity, ae) in [
            ("Dense ViTs:", 0.0, false),
            ("Sparse ViTs (polarized denser/sparser):", 0.9, false),
            ("ViTCoD (denser/sparser + auto-encoder):", 0.9, true),
        ] {
            let p = roof.place(name, &self.vitcod_attention(&model, sparsity, ae, 1));
            let bound = flag(roof.is_bandwidth_bound(p.ops_per_byte));
            r.about(name).put(&[
                ("intensity", p.ops_per_byte, 2, "ops/B"),
                ("achieved", p.achieved_gops, 1, "GOPS"),
                ("attainable", p.attainable_gops, 1, "GOPS"),
                ("bandwidth-bound (1 = yes)", bound, 0, ""),
            ]);
        }
        r.rows
    }

    /// Fig. 4: FLOPs and EdgeGPU (TX2-class) latency breakdowns of the
    /// seven models. (Paper: self-attention > 50 % of EdgeGPU latency,
    /// up to 69 % on LeViT-128; Q·Kᵀ / S·V up to 53 % of it.)
    pub fn fig4(&self) -> Vec<Row> {
        let edge = GeneralPlatform::edgegpu_tx2();
        let mut r = Rows::new("fig4");
        for m in ViTConfig::all_paper_models() {
            let f = m.flops();
            let total = f.total() as f64;
            let sa = f.self_attention() as f64 / total * 100.0;
            let mlp = f.mlp_macs as f64 / total * 100.0;
            let attention = edge.simulate_attention(&m).latency_s;
            let end_to_end = edge.simulate_end_to_end(&m).latency_s;
            let core = f.core_fraction_of_attention() * 100.0;
            let attention_share = attention / end_to_end * 100.0;
            r.about(m.name).put(&[
                ("MACs", total / 1e9, 2, "G"),
                ("self-attention MACs", sa, 1, "%"),
                ("MLP MACs", mlp, 1, "%"),
                ("other MACs", 100.0 - sa - mlp, 1, "%"),
                ("EdgeGPU latency", end_to_end * 1e3, 2, "ms"),
                ("self-attention latency share", attention_share, 1, "%"),
                ("QK/SV share of self-attention", core, 1, "%"),
            ]);
        }
        r.rows
    }

    /// Fig. 16: floorplan areas. (Paper: 3 mm² with 320 KB SRAM and 512
    /// MACs at 500 MHz, 323.9 mW.)
    pub fn fig16(&self) -> Vec<Row> {
        let mut r = Rows::new("fig16");
        for p in floorplan(&self.hw) {
            r.put(&[(p.name, p.area_mm2, 3, "mm2")]);
        }
        r.vs_paper(&[(("TOTAL", total_area_mm2(&self.hw), 3, "mm2"), 3.0)]);
        r.rows
    }

    /// Sec. V-A / Fig. 11 ablation: S-stationary vs K-stationary SDDMM
    /// cycles on DeiT-Base, mean per layer-head. K-stationary enumerates
    /// only kept positions through the CSC index; S-stationary idles PEs
    /// at pruned ones and wins only near-dense.
    pub fn ablation_dataflow(&self) -> Vec<Row> {
        let (lines, per_line) = (self.hw.mac_lines, self.hw.macs_per_line);
        let model = ViTConfig::deit_base();
        let dk = model.head_dim();
        let mut r = Rows::new("ablation_dataflow");
        for s in [0.0f64, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95] {
            let density = (1.0 - s).max(1e-3);
            let s_cycles = s_stationary_sddmm_cycles(model.tokens, dk, density, lines, per_line);
            // K-stationary on the real polarized masks' column counts.
            let k_cycles = if s == 0.0 {
                denser_sddmm_cycles(model.tokens, model.tokens, dk, lines, per_line)
            } else {
                let heads = self.polarize(&model, s);
                let per_head = heads.iter().flatten().map(|ph| {
                    let r = &ph.reorder;
                    denser_sddmm_cycles(r.col_nnz.len(), r.num_global, dk, lines, per_line)
                        + sparser_sddmm_cycles(r.sparser_col_nnz(), dk, lines, per_line)
                });
                per_head.sum::<u64>() / (heads.iter().map(Vec::len).sum::<usize>() as u64).max(1)
            };
            let (s_cycles, k_cycles) = (s_cycles as f64, k_cycles as f64);
            r.about(&at(s)).put(&[
                ("S-stationary", s_cycles, 0, "cyc"),
                ("K-stationary", k_cycles, 0, "cyc"),
                ("K-stationary advantage", s_cycles / k_cycles, 2, "x"),
            ]);
        }
        r.rows
    }

    /// Sec. V-B ablation: CSC vs COO index storage of DeiT-Base's
    /// sparser residue, mean per head, against the 20 KB index buffer.
    /// CSC also walks columns in the order the K-stationary SDDMM
    /// produces them; COO would need a sort or random access.
    pub fn ablation_formats(&self) -> Vec<Row> {
        let model = ViTConfig::deit_base();
        let index_buffer = self.hw.sram.index_buffer_bytes;
        let mut r = Rows::new("ablation_formats");
        for s in [0.6, 0.7, 0.8, 0.9, 0.95] {
            let heads = self.polarize(&model, s);
            let (mut csc_bytes, mut coo_bytes, mut nnz, mut count) = (0, 0, 0, 0);
            for ph in heads.iter().flatten() {
                let csc = ph.sparser_csc();
                coo_bytes += CooMatrix::from_csc(&csc).index_bytes();
                csc_bytes += csc.index_bytes();
                nnz += csc.nnz();
                count += 1;
            }
            let (csc_bytes, coo_bytes, nnz) = (csc_bytes / count, coo_bytes / count, nnz / count);
            let saves = (1.0 - csc_bytes as f64 / coo_bytes as f64) * 100.0;
            let fits = flag(csc_bytes <= index_buffer);
            r.about(&at(s)).put(&[
                ("nnz", nnz as f64, 0, ""),
                ("CSC index", csc_bytes as f64, 0, "B"),
                ("COO index", coo_bytes as f64, 0, "B"),
                ("CSC saves", saves, 1, "%"),
                ("CSC fits 20 KB (1 = yes)", fits, 0, ""),
            ]);
        }
        let head = &self.polarize(&model, 0.9)[0][0];
        let column = head.num_global();
        let q_rows = head.sparser_csc().col_rows(column).to_vec();
        let what = format!("layer 0 head 0: column {column} pairs with Q rows {q_rows:?}");
        r.about("").put(&[(&what, q_rows.len() as f64, 0, "rows")]);
        r.rows
    }

    /// Sec. V-B ablation: workload-proportional PE allocation between
    /// the denser and sparser engines vs a static 50/50 split.
    pub fn ablation_pe_allocation(&self) -> Vec<Row> {
        let dynamic = ViTCoDAccelerator::new(self.hw);
        let fixed = ViTCoDAccelerator::new(AcceleratorConfig {
            pe_allocation: PeAllocation::StaticEven,
            ..self.hw
        });
        let mut r = Rows::new("ablation_pe_allocation");
        for m in ViTConfig::classification_models() {
            for s in [0.8, 0.9] {
                let program = self.program(&m, s, true);
                let d = dynamic.simulate_attention_scaled(&program, &m).latency_s;
                let f = fixed.simulate_attention_scaled(&program, &m).latency_s;
                r.about(&format!("{} {}", m.name, at(s))).put(&[
                    ("dynamic", d * 1e6, 1, "us"),
                    ("static 50/50", f * 1e6, 1, "us"),
                    ("dynamic gain", f / d, 2, "x"),
                ]);
            }
        }
        r.rows
    }

    /// Layer-0 SRAM occupancies against the 320 KB partition (act
    /// 128 KB / index 20 KB / output 108 KB), with and without the AE.
    /// "act" is the whole-layer Q+K+V+S working set: over 100 % means
    /// operands stream and refetch, the traffic the cycle model charges.
    pub fn buffer_report(&self) -> Vec<Row> {
        let mut r = Rows::new("buffer_report");
        for m in ViTConfig::classification_models() {
            for (ae, with) in [(false, "no AE"), (true, "with AE")] {
                let s = m.paper_sparsity;
                let b = &check_buffers(&self.hw, &self.program(&m, s, ae))[0];
                let spills = if b.fits() {
                    "resident".into()
                } else {
                    b.spills.join(",")
                };
                r.about(&format!("{} {} {with}", m.name, at(s))).put(&[
                    ("act", b.act_occupancy * 100.0, 0, "%"),
                    ("index", b.index_occupancy * 100.0, 0, "%"),
                    ("output", b.output_occupancy * 100.0, 0, "%"),
                    (&format!("spills: {spills}"), b.spills.len() as f64, 0, ""),
                ]);
            }
        }
        r.rows
    }
}

/// BERT-Base-like NLP transformer at a 384-token GLUE-style sequence.
/// DeiT-Base's shape (768-dim, 12 heads, 12 blocks) is BERT-Base's.
fn bert_base_like() -> ViTConfig {
    let deit = ViTConfig::deit_base();
    let tokens = 384;
    let stages = vec![StageConfig {
        tokens,
        ..deit.stages[0]
    }];
    ViTConfig {
        name: "BERT-Base (NLP)",
        tokens,
        stages,
        ..deit
    }
}

/// Cycles of the dynamic mask prediction charged to ViTCoD on NLP
/// inputs: Sanger's low-precision dense `Q·Kᵀ`
/// ([`SangerSim::prediction_cycles`]) once per layer on `cfg`'s MAC
/// array.
pub fn nlp_prediction_cycles(cfg: &AcceleratorConfig, model: &ViTConfig) -> u64 {
    model.depth as u64 * SangerSim::new(*cfg).prediction_cycles(model.tokens, model.dim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitcod_sim::gemm_cycles;

    #[test]
    fn empty_and_two_element_geometric_means() {
        assert!(geomean(&[]).abs() < f64::EPSILON);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn program_respects_sparsity() {
        let p = Protocol::new(WORKLOAD_SEED);
        let plain = p.program(&ViTConfig::deit_tiny(), 0.9, false);
        assert!((plain.overall_sparsity() - 0.9).abs() < 0.03);
        assert!(plain.auto_encoder.is_none());
        assert!(p
            .program(&ViTConfig::deit_tiny(), 0.9, true)
            .auto_encoder
            .is_some());
    }

    #[test]
    fn vitcod_reports_are_consistent() {
        let p = Protocol::new(WORKLOAD_SEED);
        let m = ViTConfig::deit_tiny();
        let attention = p.vitcod_attention(&m, 0.9, true, 1);
        assert!(p.vitcod_end_to_end(&m, 0.9, true, 1).latency_s > attention.latency_s);
        // Only the GPU pairing runs on the scaled configuration.
        let speedups = p.speedups(&[(&m, 0.9)], false);
        let [cpu, _, gpu, ..] = p.baselines(&m, 0.9, false).map(|b| b.latency_s);
        assert!((speedups[0] - cpu / attention.latency_s).abs() < 1e-9);
        assert!(speedups[2] > gpu / attention.latency_s);
    }

    #[test]
    fn every_accelerator_streams_the_same_weights() {
        // Iso-resource: ViTCoD, SpAtten and Sanger run the dense layers
        // off the same DRAM model, so end to end minus attention each
        // reads the same weight bytes, whatever their utilization.
        let p = Protocol::new(WORKLOAD_SEED);
        let weights = |attention: &SimReport, e2e: &SimReport| {
            e2e.traffic.dram_read_bytes - attention.traffic.dram_read_bytes
        };
        for m in ViTConfig::all_paper_models() {
            let vitcod = weights(
                &p.vitcod_attention(&m, 0.9, true, 1),
                &p.vitcod_end_to_end(&m, 0.9, true, 1),
            );
            assert!(vitcod > 0, "{}", m.name);
            let [.., spatten, sanger] = p.baselines(&m, 0.9, false);
            let [.., spatten_e2e, sanger_e2e] = p.baselines(&m, 0.9, true);
            assert_eq!(weights(&spatten, &spatten_e2e), vitcod, "{}", m.name);
            assert_eq!(weights(&sanger, &sanger_e2e), vitcod, "{}", m.name);
        }
    }

    #[test]
    fn nlp_prediction_overhead_follows_the_config() {
        let paper = AcceleratorConfig::vitcod_paper();
        let model = bert_base_like();
        let cycles = nlp_prediction_cycles(&paper, &model);
        assert_eq!(
            cycles,
            12 * (gemm_cycles(384, 384, 768, 64, 8) as f64 / 1.2).ceil() as u64
        );
        // Twice the MAC lines: half the cycles (± the per-layer ceil).
        let wide = nlp_prediction_cycles(&paper.scaled(2), &model);
        assert!(
            wide.abs_diff(cycles / 2) <= model.depth as u64,
            "{wide} vs {cycles}"
        );
        // Twice the clock: the same cycles take half the time.
        let fast = AcceleratorConfig {
            freq_hz: 2.0 * paper.freq_hz,
            ..paper
        };
        let ratio = paper.cycles_to_seconds(cycles)
            / fast.cycles_to_seconds(nlp_prediction_cycles(&fast, &model));
        assert!((ratio - 2.0).abs() < 1e-12);
    }
}
