//! Training and finetuning loops plus the trajectory records behind the
//! paper's Fig. 9(b)/Fig. 18.

use vitcod_autograd::{cosine_lr, Adam, Optimizer, ParamStore, Tape};
use vitcod_tensor::argmax;

use crate::synthetic::{Sample, SyntheticTask};
use crate::vit::VisionTransformer;

/// Hyper-parameters of a (fine)tuning run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Base learning rate (cosine-decayed to `min_lr`).
    pub lr: f32,
    /// Final learning rate of the cosine schedule.
    pub min_lr: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Minibatch size: this many samples are stacked into each step's
    /// one batched tape. Must be at least 1.
    pub batch_size: usize,
    /// Weight of the AE reconstruction loss in the total loss (Eq. 2).
    pub recon_weight: f32,
    /// Global gradient-norm clip; `None` disables clipping.
    pub clip_norm: Option<f32>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 20,
            lr: 3e-3,
            min_lr: 1e-4,
            weight_decay: 1e-4,
            batch_size: 16,
            recon_weight: 1.0,
            clip_norm: Some(1.0),
        }
    }
}

/// One epoch's metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean task (cross-entropy) loss over the epoch.
    pub train_loss: f32,
    /// Mean AE reconstruction loss (0 when no AE is installed).
    pub recon_loss: f32,
    /// Held-out accuracy at the end of the epoch.
    pub test_accuracy: f32,
}

/// A full training trajectory — the data series of Fig. 9(b) / Fig. 18.
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    /// Per-epoch records in order.
    pub epochs: Vec<EpochRecord>,
}

impl Trajectory {
    /// Final test accuracy, or 0.0 if empty.
    pub fn final_accuracy(&self) -> f32 {
        self.epochs.last().map(|e| e.test_accuracy).unwrap_or(0.0)
    }

    /// Best test accuracy across the run.
    pub fn best_accuracy(&self) -> f32 {
        self.epochs
            .iter()
            .map(|e| e.test_accuracy)
            .fold(0.0, f32::max)
    }

    /// Final reconstruction loss, or 0.0 if empty.
    pub fn final_recon_loss(&self) -> f32 {
        self.epochs.last().map(|e| e.recon_loss).unwrap_or(0.0)
    }
}

/// Drives training of a [`VisionTransformer`] on a [`SyntheticTask`].
///
/// # Example
///
/// ```no_run
/// use rand::SeedableRng;
/// use vitcod_autograd::ParamStore;
/// use vitcod_model::{SyntheticTask, SyntheticTaskConfig, TrainConfig, Trainer,
///                    ViTConfig, VisionTransformer};
///
/// let task = SyntheticTask::generate(SyntheticTaskConfig::default());
/// let cfg = ViTConfig::deit_tiny().reduced_for_training();
/// let mut store = ParamStore::new();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let vit = VisionTransformer::new(&cfg, task.config.in_dim, task.config.num_classes,
///                                  &mut store, &mut rng);
/// let mut trainer = Trainer::new(vit, store);
/// let traj = trainer.train(&task, &TrainConfig::default());
/// assert!(traj.final_accuracy() > 0.25);
/// ```
#[derive(Clone)]
pub struct Trainer {
    model: VisionTransformer,
    store: ParamStore,
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Trainer({:?})", self.model)
    }
}

impl Trainer {
    /// Wraps a model and its parameter store.
    pub fn new(model: VisionTransformer, store: ParamStore) -> Self {
        Self { model, store }
    }

    /// The wrapped model.
    pub fn model(&self) -> &VisionTransformer {
        &self.model
    }

    /// Mutable access to the wrapped model (to install masks/AE between
    /// pipeline steps).
    pub fn model_mut(&mut self) -> &mut VisionTransformer {
        &mut self.model
    }

    /// The parameter store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Installs ViTCoD auto-encoder modules into the wrapped model
    /// (borrow-splitting convenience over
    /// [`VisionTransformer::insert_auto_encoder`]).
    pub fn insert_auto_encoder<R: rand::Rng>(&mut self, spec: crate::AutoEncoderSpec, rng: &mut R) {
        self.model.insert_auto_encoder(spec, &mut self.store, rng);
    }

    /// Trains for `cfg.epochs` epochs, returning the trajectory.
    ///
    /// Each minibatch runs as **one batched tape**
    /// ([`VisionTransformer::forward_batch`]): the samples are stacked,
    /// weights are imported once per step instead of once per sample,
    /// and attention `(sample, head)` tasks fan out across worker
    /// threads. The cross-entropy (and AE reconstruction) losses average
    /// over the batch on the tape, so the flushed gradients are batch
    /// means directly — and because every kernel keeps a fixed
    /// per-element reduction order, the step's loss and gradients are
    /// bit-identical across backends and worker counts.
    ///
    /// Optimizer steps always consume batch-**mean** gradients.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.batch_size` is 0.
    pub fn train(&mut self, task: &SyntheticTask, cfg: &TrainConfig) -> Trajectory {
        assert!(
            cfg.batch_size >= 1,
            "TrainConfig::batch_size must be at least 1"
        );
        let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
        let mut trajectory = Trajectory::default();
        let steps_per_epoch = task.train.len().div_ceil(cfg.batch_size).max(1);
        let total_steps = steps_per_epoch * cfg.epochs;
        let mut step = 0usize;
        for epoch in 0..cfg.epochs {
            let mut loss_sum = 0.0;
            let mut recon_sum = 0.0;
            let mut count = 0usize;
            for batch in task.train.chunks(cfg.batch_size) {
                opt.set_learning_rate(cosine_lr(cfg.lr, cfg.min_lr, step, total_steps));
                step += 1;
                self.store.zero_grads();
                let (task_loss, recon) = self.backward_batch(batch, cfg.recon_weight);
                loss_sum += task_loss * batch.len() as f32;
                recon_sum += recon * batch.len() as f32;
                count += batch.len();
                if let Some(clip) = cfg.clip_norm {
                    self.store.clip_grad_norm(clip);
                }
                opt.step(&mut self.store);
            }
            let test_accuracy = self.evaluate(&task.test);
            trajectory.epochs.push(EpochRecord {
                epoch,
                train_loss: loss_sum / count.max(1) as f32,
                recon_loss: recon_sum / count.max(1) as f32,
                test_accuracy,
            });
        }
        trajectory
    }

    /// Forward + backward of one minibatch on a single batched tape;
    /// returns (mean task loss, mean recon loss). Gradients flushed into
    /// the store are batch means (the batched losses average over
    /// samples on the tape).
    fn backward_batch(&mut self, batch: &[Sample], recon_weight: f32) -> (f32, f32) {
        let tokens: Vec<&vitcod_tensor::Matrix> = batch.iter().map(|s| &s.tokens).collect();
        let targets: Vec<usize> = batch.iter().map(|s| s.label).collect();
        let mut tape = Tape::new();
        let out = self.model.forward_batch(&mut tape, &self.store, &tokens);
        let ce = tape.cross_entropy(out.logits, &targets);
        let (loss_node, recon_value) = match out.recon_loss {
            Some(r) => (tape.weighted_sum(ce, r, 1.0, recon_weight), tape.scalar(r)),
            None => (ce, 0.0),
        };
        let ce_value = tape.scalar(ce);
        tape.backward(loss_node);
        tape.write_grads(&mut self.store);
        (ce_value, recon_value)
    }

    /// Top-1 accuracy over `samples`.
    ///
    /// Samples fan out across worker threads (each forward is
    /// independent), which puts every evaluation pass — one per training
    /// epoch — on the kernel layer's parallel path.
    pub fn evaluate(&self, samples: &[Sample]) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        // Rough per-sample forward cost: attention + projections + MLP
        // MACs, so the fan-out decision scales with the model size.
        let cfg = self.model.config();
        let per_sample = cfg.depth
            * (2 * cfg.tokens * cfg.tokens * cfg.dim
                + (4 + 2 * cfg.mlp_ratio) * cfg.tokens * cfg.dim * cfg.dim);
        let correct = vitcod_tensor::kernels::par_map_collect(samples.len(), per_sample, |i| {
            let s = &samples[i];
            let mut tape = Tape::new();
            let out = self.model.forward(&mut tape, &self.store, &s.tokens);
            let logits = tape.value(out.logits).row(0);
            argmax(logits) == Some(s.label)
        })
        .into_iter()
        .filter(|&c| c)
        .count();
        correct as f32 / samples.len() as f32
    }

    /// Averaged attention maps over the task's training set (the input to
    /// the split-and-conquer algorithm).
    pub fn averaged_attention_maps(&self, task: &SyntheticTask) -> Vec<Vec<vitcod_tensor::Matrix>> {
        self.model.averaged_attention_maps(&self.store, &task.train)
    }
}

#[cfg(test)]
// Exact float equality below asserts deterministic replay of seeded runs.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::{SyntheticTaskConfig, ViTConfig, VisionTransformer};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_task() -> SyntheticTask {
        SyntheticTask::generate(SyntheticTaskConfig {
            train_samples: 96,
            test_samples: 32,
            ..Default::default()
        })
    }

    fn make_trainer(task: &SyntheticTask, seed: u64) -> Trainer {
        let cfg = ViTConfig::deit_tiny().reduced_for_training();
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let vit = VisionTransformer::new(
            &cfg,
            task.config.in_dim,
            task.config.num_classes,
            &mut store,
            &mut rng,
        );
        Trainer::new(vit, store)
    }

    #[test]
    fn training_reduces_loss() {
        let task = small_task();
        let mut trainer = make_trainer(&task, 1);
        let traj = trainer.train(
            &task,
            &TrainConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        assert_eq!(traj.epochs.len(), 5);
        let first = traj.epochs.first().unwrap().train_loss;
        let last = traj.epochs.last().unwrap().train_loss;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn training_beats_chance_accuracy() {
        let task = small_task();
        let mut trainer = make_trainer(&task, 2);
        let traj = trainer.train(
            &task,
            &TrainConfig {
                epochs: 12,
                ..Default::default()
            },
        );
        // 4 classes => chance = 0.25.
        assert!(
            traj.best_accuracy() > 0.4,
            "best accuracy {} not above chance",
            traj.best_accuracy()
        );
    }

    #[test]
    #[should_panic(expected = "TrainConfig::batch_size must be at least 1")]
    fn zero_batch_size_is_rejected_by_name() {
        let task = small_task();
        let cfg = TrainConfig {
            batch_size: 0,
            ..Default::default()
        };
        make_trainer(&task, 4).train(&task, &cfg);
    }

    #[test]
    fn evaluate_on_empty_returns_zero() {
        let task = small_task();
        let trainer = make_trainer(&task, 3);
        assert_eq!(trainer.evaluate(&[]), 0.0);
    }

    #[test]
    fn trajectory_helpers() {
        let t = Trajectory {
            epochs: vec![
                EpochRecord {
                    epoch: 0,
                    train_loss: 1.0,
                    recon_loss: 0.5,
                    test_accuracy: 0.3,
                },
                EpochRecord {
                    epoch: 1,
                    train_loss: 0.5,
                    recon_loss: 0.2,
                    test_accuracy: 0.6,
                },
            ],
        };
        assert_eq!(t.final_accuracy(), 0.6);
        assert_eq!(t.best_accuracy(), 0.6);
        assert_eq!(t.final_recon_loss(), 0.2);
        assert_eq!(Trajectory::default().final_accuracy(), 0.0);
    }
}
