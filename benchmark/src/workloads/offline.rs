//! `offline_dense_fp32` and `offline_sparse_int8`: one caller in a
//! closed loop, one `Engine::infer_batch` call per operation, on full
//! DeiT-Tiny.

use std::hint::black_box;
use std::time::Instant;

use vitcod_autograd::Tape;
use vitcod_engine::{CompiledVit, Engine, Precision, OP_NAMES};
use vitcod_model::{Sample, ViTConfig};

use crate::models::{self, Built};
use crate::probes;
use crate::run::{Layers, Measured, Workload};
use crate::stats::{bits, quiet, Hash};
use crate::trace::Trace;

/// Distinct inputs the loop cycles through.
const POOL: usize = 2;
/// Operations a window holds at least, however short it is.
const MIN_OPS: usize = 3;
/// The profiled dense path takes another kernel sequence than the
/// served one, so its logits agree only to rounding.
const PROFILED_TOLERANCE: f32 = 1e-3;

pub struct Offline<const SPARSE_INT8: bool> {
    seed: u64,
    built: Built,
    presave: CompiledVit,
    engine: Engine,
    samples: Vec<Sample>,
    /// Logit bits a correct answer to `samples[i]` has.
    refs: Vec<Vec<u32>>,
    /// Quiet-box served per-sample time of the last untraced window.
    served_s: Option<f64>,
}

impl<const SPARSE_INT8: bool> Offline<SPARSE_INT8> {
    fn precision() -> Precision {
        if SPARSE_INT8 {
            Precision::Int8
        } else {
            Precision::Fp32
        }
    }
}

impl<const SPARSE_INT8: bool> Workload for Offline<SPARSE_INT8> {
    fn setup(seed: u64, layers: &mut Layers) -> Self {
        let cfg = ViTConfig::deit_tiny();
        let built = models::build(&cfg, seed, SPARSE_INT8, layers);
        let (presave, engine) = models::engine_through_artifact(&built, Self::precision(), layers);
        let samples = models::samples(&models::token_pool(&cfg, seed, POOL));
        black_box(engine.infer_batch(&samples[..1]));
        Offline {
            seed,
            built,
            presave,
            engine,
            samples,
            refs: Vec::new(),
            served_s: None,
        }
    }

    /// The loaded artifact must answer exactly as the engine built
    /// before the save does and, dense fp32, as the autograd tape does.
    fn prepare_checks(&mut self) -> Result<(), String> {
        let reference = Engine::builder(self.presave.clone())
            .precision(Self::precision())
            .build();
        self.refs = reference
            .infer_batch(&self.samples)
            .iter()
            .map(|p| bits(&p.logits))
            .collect();
        for (i, p) in self.engine.infer_batch(&self.samples).iter().enumerate() {
            if bits(&p.logits) != self.refs[i] {
                return Err(format!(
                    "sample {i}: the loaded artifact's logits differ from the pre-save engine's"
                ));
            }
        }
        if !SPARSE_INT8 {
            let mut tape = Tape::new();
            let out =
                self.built
                    .model
                    .forward(&mut tape, &self.built.store, &self.samples[0].tokens);
            if bits(tape.value(out.logits).row(0)) != self.refs[0] {
                return Err("dense fp32 engine logits differ from the tape forward's".into());
            }
        }
        Ok(())
    }

    fn measure(
        &mut self,
        seconds: f64,
        mut trace: Option<&mut Trace>,
        layers: &mut Layers,
    ) -> Measured {
        let mut m = Measured::default();
        let mut hash = Hash::new();
        let start = Instant::now();
        let mut i = 0usize;
        while i < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
            let slot = i % POOL;
            let sample = &self.samples[slot..=slot];
            let t = Instant::now();
            let (logits, ok) = match trace.as_deref_mut() {
                None => {
                    let p = self.engine.infer_batch(sample).swap_remove(0);
                    let ok = bits(&p.logits) == self.refs[slot];
                    (p.logits, ok)
                }
                Some(trace) => {
                    let t0 = trace.now_ns();
                    let (p, profile) = self.engine.infer_batch_profiled(sample).swap_remove(0);
                    let t1 = trace.now_ns();
                    let req = i as u32;
                    let iteration = trace.push(None, req, "bench", "iteration", t0, t1);
                    let sample_ns = (profile.total_s * 1e9) as u64;
                    let span =
                        trace.push(Some(iteration), req, "engine", "sample", t0, t0 + sample_ns);
                    trace.push_sequence(span, req, "engine", t0, &profile.op_totals());
                    let ok = p.logits.iter().zip(&self.refs[slot]).all(|(got, want)| {
                        let want = f32::from_bits(*want);
                        (got - want).abs() <= PROFILED_TOLERANCE * want.abs().max(1.0)
                    });
                    (p.logits, ok)
                }
            };
            let dt = t.elapsed().as_secs_f64();
            m.attempted += 1;
            if ok {
                m.lat_s.push(dt);
                m.items += 1.0;
            } else {
                m.failed += 1;
                m.wrong = Some(format!("iteration {i}: logits differ from the reference"));
            }
            if i < POOL && trace.is_none() {
                hash.f32s(&logits);
            }
            i += 1;
        }
        m.window_s = start.elapsed().as_secs_f64();
        m.output_hash = hash.0;

        match trace {
            None => self.served_s = Some(quiet(&m.lat_s)),
            Some(trace) => {
                for op in OP_NAMES {
                    let name: &'static str = match op {
                        "qkv" => "engine.op_qkv_s",
                        "scores" => "engine.op_scores_s",
                        "softmax" => "engine.op_softmax_s",
                        "spmm" => "engine.op_spmm_s",
                        "out_proj" => "engine.op_out_proj_s",
                        "fc1" => "engine.op_fc1_s",
                        "fc2" => "engine.op_fc2_s",
                        // An op this benchmark has no name for stays in the trace.
                        _ => continue,
                    };
                    layers.set_quiet(name, &trace.per_req_s("engine", op));
                }
                layers.set_quiet(
                    "engine.op_other_s",
                    &trace.per_req_self_s("engine", "sample"),
                );
                let sample_s = quiet(&trace.per_req_s("engine", "sample"));
                if sample_s > 0.0 {
                    layers.set("engine.sample_s", sample_s);
                    layers.set(
                        "engine.achieved_gops",
                        self.engine.approx_ops_per_sample() / sample_s / 1e9,
                    );
                    let attention: f64 = ["scores", "softmax", "spmm"]
                        .iter()
                        .map(|op| quiet(&trace.per_req_s("engine", op)))
                        .sum();
                    layers.set("engine.attention_share", attention / sample_s);
                    if let Some(served) = self.served_s.filter(|s| *s > 0.0) {
                        layers.set("engine.profile_overhead_frac", sample_s / served - 1.0);
                    }
                }
            }
        }
        m
    }

    fn probe_layers(&mut self, layers: &mut Layers) {
        if SPARSE_INT8 {
            probes::sparse_int8_kernels(self.seed, layers);
        } else {
            probes::dense_kernels(self.seed, layers);
        }
        // Computed from the model's shape and the artifact, not timed.
        layers.set(
            "tensor.flops_per_sample",
            self.engine.approx_ops_per_sample(),
        );
        let weight_bytes = match self.engine.int8_weight_bytes() {
            Some(bytes) => bytes,
            None => self.presave.num_weight_scalars() * 4,
        };
        let input_bytes = self.samples[0].tokens.rows() * self.samples[0].tokens.cols() * 4;
        layers.set(
            "tensor.bytes_per_sample",
            (weight_bytes + input_bytes) as f64,
        );
    }
}
