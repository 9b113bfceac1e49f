//! `train_sparse_step`: the calls `vitcod_train::SparseFinetuner` makes
//! for one optimizer step — `forward_batch` on a batched tape with the
//! masks frozen to CSC, cross-entropy, backward, gradient write-back,
//! clip, Adam — at DeiT-Tiny's width and depth 3, batch 2.

use std::time::Instant;

use vitcod_autograd::{Adam, Optimizer, Tape};
use vitcod_tensor::Matrix;

use crate::models::{self, Built};
use crate::probes;
use crate::run::{Layers, Measured, Workload};
use crate::stats::Hash;
use crate::trace::{spanned, Trace};

/// Depth 3 gives some fifty steps in a ten-second window; depth 12
/// would give ten. The per-op behaviour is the same.
const DEPTH: usize = 3;
const BATCH: usize = 2;
const LR: f32 = 1e-3;
const CLIP_NORM: f32 = 1.0;
const MIN_STEPS: usize = 3;
/// Losses hashed into `output_hash`: as many as any window reaches.
const HASHED_STEPS: usize = 3;

pub struct Train {
    seed: u64,
    built: Built,
    optimizer: Adam,
    tokens: Vec<Matrix>,
    targets: Vec<usize>,
    steps: usize,
    loss_first: Option<f32>,
}

impl Train {
    fn step(&mut self, trace: &mut Option<&mut Trace>) -> f32 {
        let req = self.steps as u32;
        self.steps += 1;
        let span = trace
            .as_deref_mut()
            .map(|t| t.open(None, req, "bench", "step"));
        let Built { model, store } = &mut self.built;
        store.zero_grads();
        let tokens: Vec<&Matrix> = self.tokens.iter().collect();
        let mut tape = Tape::new();
        let out = spanned(trace, span, req, "model", "forward_batch", || {
            model.forward_batch(&mut tape, store, &tokens)
        });
        let (loss_node, loss) = spanned(trace, span, req, "autograd", "loss", || {
            let node = tape.cross_entropy(out.logits, &self.targets);
            (node, tape.scalar(node))
        });
        spanned(trace, span, req, "autograd", "backward", || {
            tape.backward(loss_node)
        });
        spanned(trace, span, req, "autograd", "write_grads", || {
            tape.write_grads(store)
        });
        spanned(trace, span, req, "autograd", "clip", || {
            store.clip_grad_norm(CLIP_NORM)
        });
        spanned(trace, span, req, "autograd", "optimizer_step", || {
            self.optimizer.step(store)
        });
        if let (Some(t), Some(id)) = (trace.as_deref_mut(), span) {
            t.close(id);
        }
        loss
    }
}

impl Workload for Train {
    fn setup(seed: u64, layers: &mut Layers) -> Self {
        let cfg = models::deit_tiny_depth(DEPTH);
        let mut built = models::build(&cfg, seed, true, layers);
        let t = Instant::now();
        built.model.freeze_sparse_attention();
        layers.set("model.freeze_sparse_s", t.elapsed().as_secs_f64());
        let mut train = Train {
            seed,
            built,
            optimizer: Adam::new(LR),
            tokens: models::token_pool(&cfg, seed, BATCH),
            targets: (0..BATCH)
                .map(|i| (seed as usize + i) % models::CLASSES)
                .collect(),
            steps: 0,
            loss_first: None,
        };
        train.step(&mut None);
        train
    }

    fn measure(
        &mut self,
        seconds: f64,
        mut trace: Option<&mut Trace>,
        layers: &mut Layers,
    ) -> Measured {
        let mut m = Measured::default();
        let mut hash = Hash::new();
        let mut loss_last = f32::NAN;
        let start = Instant::now();
        let mut i = 0usize;
        while i < MIN_STEPS || start.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            let loss = self.step(&mut trace);
            let dt = t.elapsed().as_secs_f64();
            m.attempted += 1;
            if loss.is_finite() {
                m.lat_s.push(dt);
                m.items += BATCH as f64;
            } else {
                m.failed += 1;
                m.wrong = Some(format!("step {i}: loss {loss} is not finite"));
            }
            if i < HASHED_STEPS {
                hash.word(loss.to_bits());
            }
            self.loss_first.get_or_insert(loss);
            loss_last = loss;
            i += 1;
        }
        m.window_s = start.elapsed().as_secs_f64();
        m.output_hash = hash.0;
        let loss_first = self.loss_first.unwrap_or(f32::NAN);
        // The same batch every step: the loss must fall.
        if m.wrong.is_none() && loss_last.partial_cmp(&loss_first) != Some(std::cmp::Ordering::Less)
        {
            m.wrong = Some(format!(
                "loss did not fall: first {loss_first}, last {loss_last}"
            ));
        }

        if let Some(trace) = trace {
            layers.set_quiet(
                "model.forward_batch_s",
                &trace.per_req_s("model", "forward_batch"),
            );
            layers.set_quiet(
                "autograd.backward_s",
                &trace.per_req_s("autograd", "backward"),
            );
            layers.set_quiet(
                "autograd.write_grads_s",
                &trace.per_req_s("autograd", "write_grads"),
            );
            layers.set_quiet("autograd.clip_s", &trace.per_req_s("autograd", "clip"));
            layers.set_quiet(
                "autograd.optimizer_step_s",
                &trace.per_req_s("autograd", "optimizer_step"),
            );
            layers.set("autograd.loss_first", f64::from(loss_first));
            layers.set("autograd.loss_last", f64::from(loss_last));
        }
        m
    }

    fn probe_layers(&mut self, layers: &mut Layers) {
        probes::training_kernels(self.seed, layers);
    }
}
