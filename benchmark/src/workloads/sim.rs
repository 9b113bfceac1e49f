//! `sim_sweep`: the accelerator half of the co-design. One operation is
//! one sweep: for each of the seven paper models at its reported
//! sparsity with the 50 % auto-encoder — split-and-conquer, compile,
//! simulate attention and end to end — plus the SpAtten, Sanger, CPU,
//! EdgeGPU and GPU baselines, and the paper's five headline
//! core-attention speedups (geomeans over the six classification
//! models at 90 %, the GPU pairing on the throughput-comparable scaled
//! configuration).
//!
//! Host time is what the simulator takes to run; every `sim.*` count is
//! simulated time and must repeat exactly.

use std::time::Instant;

use vitcod_baselines::{GeneralPlatform, SangerSim, SpAttenSim};
use vitcod_core::{
    compile_model, AcceleratorProgram, AutoEncoderConfig, SplitConquer, SplitConquerConfig,
};
use vitcod_model::{AttentionStats, ModelFamily, ViTConfig};
use vitcod_sim::{AcceleratorConfig, ViTCoDAccelerator};
use vitcod_tensor::Matrix;

use crate::run::{Layers, Measured, Workload};
use crate::stats::Hash;
use crate::trace::{spanned, Trace};

const HEADLINE_SPARSITY: f64 = 0.9;
/// The paper's core-attention speedups of ViTCoD over CPU, EdgeGPU,
/// GPU, SpAtten and Sanger (Fig. 15a, geomeans at 90 % sparsity).
const PAPER_SPEEDUPS: [f64; 5] = [235.3, 142.9, 86.0, 10.1, 6.8];
const MIN_SWEEPS: usize = 2;

pub struct Sim {
    models: Vec<ViTConfig>,
    /// The seeded attention maps of each model: the sweep's input.
    maps: Vec<Vec<Vec<Matrix>>>,
    accel: ViTCoDAccelerator,
    accel_scaled: ViTCoDAccelerator,
    spatten: SpAttenSim,
    sanger: SangerSim,
    cpu: GeneralPlatform,
    edge: GeneralPlatform,
    gpu: GeneralPlatform,
    /// What the warm-up sweep simulated: every later sweep must match.
    first: Option<Simulated>,
}

/// The simulated statistics of one sweep. Exact: two sweeps, two runs
/// and two commits that only differ in host speed agree on every bit.
#[derive(Debug, Clone, PartialEq)]
struct Simulated {
    attn_cycles: u64,
    e2e_cycles: u64,
    data_movement_cycles: u64,
    energy_j: f64,
    program_macs: u64,
    program_sparsity: f64,
    global_tokens_mean: f64,
    /// ViTCoD over CPU, EdgeGPU, GPU, SpAtten, Sanger.
    speedups: [f64; 5],
}

impl Simulated {
    fn hash(&self) -> u64 {
        let mut h = Hash::new();
        for c in [
            self.attn_cycles,
            self.e2e_cycles,
            self.data_movement_cycles,
            self.program_macs,
        ] {
            h.u64(c);
        }
        for x in [
            self.energy_j,
            self.program_sparsity,
            self.global_tokens_mean,
        ] {
            h.u64(x.to_bits());
        }
        for s in self.speedups {
            h.u64(s.to_bits());
        }
        h.0
    }

    fn paper_err(&self) -> f64 {
        self.speedups
            .iter()
            .zip(PAPER_SPEEDUPS)
            .map(|(sim, paper)| (sim / paper - 1.0).abs())
            .fold(0.0, f64::max)
    }
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len().max(1) as f64).exp()
}

impl Sim {
    fn program(
        &self,
        model: usize,
        sparsity: f64,
        trace: &mut Option<&mut Trace>,
        parent: Option<u32>,
        req: u32,
    ) -> AcceleratorProgram {
        let cfg = &self.models[model];
        let heads = spanned(trace, parent, req, "core", "split_conquer", || {
            SplitConquer::new(SplitConquerConfig::with_sparsity(sparsity)).apply(&self.maps[model])
        });
        spanned(trace, parent, req, "core", "compile_model", || {
            compile_model(cfg, &heads, Some(AutoEncoderConfig::half(cfg.heads)))
        })
    }

    fn sweep(&self, req: u32, trace: &mut Option<&mut Trace>) -> Simulated {
        let mut s = Simulated {
            attn_cycles: 0,
            e2e_cycles: 0,
            data_movement_cycles: 0,
            energy_j: 0.0,
            program_macs: 0,
            program_sparsity: 0.0,
            global_tokens_mean: 0.0,
            speedups: [0.0; 5],
        };
        let mut ratios: [Vec<f64>; 5] = Default::default();
        let sweep = trace
            .as_deref_mut()
            .map(|t| t.open(None, req, "bench", "sweep"));
        for (i, cfg) in self.models.iter().enumerate() {
            let span = trace
                .as_deref_mut()
                .map(|t| t.open(sweep, req, "bench", "model"));
            let sparsity = cfg.paper_sparsity;
            let program = self.program(i, sparsity, trace, span, req);
            let attention = spanned(trace, span, req, "sim", "attention", || {
                self.accel.simulate_attention_scaled(&program, cfg)
            });
            let end_to_end = spanned(trace, span, req, "sim", "end_to_end", || {
                self.accel.simulate_end_to_end(&program, cfg)
            });
            let accels = spanned(trace, span, req, "baselines", "accel", || {
                [
                    self.spatten.simulate_attention(cfg, sparsity),
                    self.spatten.simulate_end_to_end(cfg, sparsity),
                    self.sanger.simulate_attention(cfg, sparsity),
                    self.sanger.simulate_end_to_end(cfg, sparsity),
                ]
            });
            let platforms = spanned(trace, span, req, "baselines", "platform", || {
                [&self.cpu, &self.edge, &self.gpu]
                    .map(|p| (p.simulate_attention(cfg), p.simulate_end_to_end(cfg)))
            });
            s.attn_cycles += attention.total_cycles;
            s.e2e_cycles += end_to_end.total_cycles;
            s.data_movement_cycles += end_to_end.breakdown.data_movement_cycles;
            s.energy_j += end_to_end.energy_j;
            s.program_macs += program.total_macs();
            s.program_sparsity += program.overall_sparsity() / self.models.len() as f64;
            s.global_tokens_mean += program
                .layers
                .iter()
                .map(|l| l.mean_global_tokens())
                .sum::<f64>()
                / (program.layers.len() * self.models.len()) as f64;

            // The headline protocol: classification models at 90 %.
            if cfg.family != ModelFamily::Strided {
                let at_headline = (sparsity - HEADLINE_SPARSITY).abs() < 1e-12;
                let (program, vitcod_s, spatten_s, sanger_s) = if at_headline {
                    (
                        program,
                        attention.latency_s,
                        accels[0].latency_s,
                        accels[2].latency_s,
                    )
                } else {
                    let p = self.program(i, HEADLINE_SPARSITY, trace, span, req);
                    let v = spanned(trace, span, req, "sim", "attention", || {
                        self.accel.simulate_attention_scaled(&p, cfg)
                    });
                    let [a, b] = spanned(trace, span, req, "baselines", "accel", || {
                        [
                            self.spatten
                                .simulate_attention(cfg, HEADLINE_SPARSITY)
                                .latency_s,
                            self.sanger
                                .simulate_attention(cfg, HEADLINE_SPARSITY)
                                .latency_s,
                        ]
                    });
                    (p, v.latency_s, a, b)
                };
                let scaled = spanned(trace, span, req, "sim", "attention", || {
                    self.accel_scaled.simulate_attention_scaled(&program, cfg)
                });
                ratios[0].push(platforms[0].0.latency_s / vitcod_s);
                ratios[1].push(platforms[1].0.latency_s / vitcod_s);
                ratios[2].push(platforms[2].0.latency_s / scaled.latency_s);
                ratios[3].push(spatten_s / vitcod_s);
                ratios[4].push(sanger_s / vitcod_s);
            }
            std::hint::black_box((&accels, &platforms));
            if let (Some(t), Some(id)) = (trace.as_deref_mut(), span) {
                t.close(id);
            }
        }
        for (out, r) in s.speedups.iter_mut().zip(&ratios) {
            *out = geomean(r);
        }
        if let (Some(t), Some(id)) = (trace.as_deref_mut(), sweep) {
            t.close(id);
        }
        s
    }
}

impl Workload for Sim {
    fn setup(seed: u64, layers: &mut Layers) -> Self {
        let models = ViTConfig::all_paper_models();
        let t = Instant::now();
        let maps = models
            .iter()
            .map(|m| AttentionStats::for_model(m, seed).maps)
            .collect();
        layers.set("model.attention_stats_s", t.elapsed().as_secs_f64());
        let paper = AcceleratorConfig::vitcod_paper();
        let gpu = GeneralPlatform::gpu_2080ti();
        let mut sim = Sim {
            accel: ViTCoDAccelerator::new(paper),
            accel_scaled: ViTCoDAccelerator::new(paper.scaled(gpu.comparable_vitcod_scale)),
            spatten: SpAttenSim::new(paper),
            sanger: SangerSim::new(paper),
            cpu: GeneralPlatform::cpu_xeon_6230r(),
            edge: GeneralPlatform::edgegpu_xavier_nx(),
            gpu,
            models,
            maps,
            first: None,
        };
        sim.first = Some(sim.sweep(0, &mut None));
        sim
    }

    fn measure(
        &mut self,
        seconds: f64,
        mut trace: Option<&mut Trace>,
        layers: &mut Layers,
    ) -> Measured {
        let mut m = Measured::default();
        let first = self.first.clone().expect("set-up ran the warm-up sweep");
        let start = Instant::now();
        let mut i = 0usize;
        while i < MIN_SWEEPS || start.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            let simulated = self.sweep(i as u32, &mut trace);
            let dt = t.elapsed().as_secs_f64();
            m.attempted += 1;
            if simulated == first {
                m.lat_s.push(dt);
                m.items += self.models.len() as f64;
            } else {
                m.failed += 1;
                m.wrong = Some(format!(
                    "sweep {i} simulated other statistics than the first"
                ));
            }
            i += 1;
        }
        m.window_s = start.elapsed().as_secs_f64();
        m.output_hash = first.hash();

        if let Some(trace) = trace {
            layers.set_quiet(
                "core.split_conquer_s",
                &trace.per_req_s("core", "split_conquer"),
            );
            layers.set_quiet(
                "core.compile_model_s",
                &trace.per_req_s("core", "compile_model"),
            );
            layers.set_quiet("sim.attention_s", &trace.per_req_s("sim", "attention"));
            layers.set_quiet("sim.end_to_end_s", &trace.per_req_s("sim", "end_to_end"));
            layers.set_quiet("baselines.accel_s", &trace.per_req_s("baselines", "accel"));
            layers.set_quiet(
                "baselines.platform_s",
                &trace.per_req_s("baselines", "platform"),
            );
            let sim_s = layers.get("sim.attention_s").unwrap_or(0.0)
                + layers.get("sim.end_to_end_s").unwrap_or(0.0);
            let kcycles = (first.attn_cycles + first.e2e_cycles) as f64 / 1e3;
            layers.set("sim.host_ns_per_kcycle", sim_s * 1e9 / kcycles.max(1.0));
            layers.set("sim.attn_cycles", first.attn_cycles as f64);
            layers.set("sim.e2e_cycles", first.e2e_cycles as f64);
            layers.set(
                "sim.data_movement_frac",
                first.data_movement_cycles as f64 / first.e2e_cycles.max(1) as f64,
            );
            layers.set("sim.energy_j", first.energy_j);
            for (name, s) in [
                "sim.speedup_cpu",
                "sim.speedup_edgegpu",
                "sim.speedup_gpu",
                "sim.speedup_spatten",
                "sim.speedup_sanger",
            ]
            .into_iter()
            .zip(first.speedups)
            {
                layers.set(name, s);
            }
            layers.set("sim.paper_err", first.paper_err());
            layers.set("core.program_macs", first.program_macs as f64);
            layers.set("core.program_sparsity", first.program_sparsity);
            layers.set("core.global_tokens_mean", first.global_tokens_mean);
        }
        m
    }
}
