//! The unified ViTCoD algorithm pipeline (paper Fig. 10).
//!
//! Input: a pretrained ViT. Step 1: insert auto-encoder modules and
//! finetune. Step 2: run split-and-conquer on the averaged attention
//! maps, fix the resulting sparse masks — here that means freezing them
//! to the per-head CSC indexes the accelerator pre-loads, so the
//! finetune runs the SDDMM → sparse-softmax → SpMM dataflow forward and
//! backward — and finetune again to restore accuracy. The pipeline here
//! drives the trainable substrate from [`vitcod_model`] on a synthetic
//! task (the documented ImageNet substitution) and reports every
//! intermediate the paper's algorithm figures need.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::ParamStore;
use vitcod_model::{
    AutoEncoderSpec, SyntheticTask, TrainConfig, Trainer, Trajectory, ViTConfig, VisionTransformer,
};

use crate::split_conquer::{PolarizedHead, SplitConquer, SplitConquerConfig};

/// Configuration of a full pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Model architecture (reduced configs train in seconds).
    pub model: ViTConfig,
    /// Pretraining epochs (the "pretrained ViT" input of Fig. 10).
    pub pretrain: TrainConfig,
    /// Step-1/2 finetuning epochs.
    pub finetune: TrainConfig,
    /// Auto-encoder spec; `None` skips Step 1 (ablation).
    pub auto_encoder: Option<AutoEncoderSpec>,
    /// Split-and-conquer settings; `None` skips Step 2 (ablation).
    pub split_conquer: Option<SplitConquerConfig>,
    /// Weight-init / data-order seed.
    pub seed: u64,
}

impl PipelineConfig {
    /// The paper's default pipeline: AE at 50 % compression plus
    /// split-and-conquer at the model's paper-reported sparsity.
    pub fn paper_default(model: ViTConfig) -> Self {
        let heads = model.heads;
        let sparsity = model.paper_sparsity;
        Self {
            model,
            pretrain: TrainConfig {
                epochs: 15,
                ..TrainConfig::default()
            },
            finetune: TrainConfig {
                epochs: 10,
                lr: 1e-3,
                ..TrainConfig::default()
            },
            auto_encoder: Some(AutoEncoderSpec::half(heads)),
            split_conquer: Some(SplitConquerConfig::with_sparsity(sparsity)),
            seed: 0xC0DE,
        }
    }
}

/// Everything a pipeline run produced.
#[derive(Debug)]
pub struct PipelineReport {
    /// Accuracy of the dense pretrained model (the Fig. 9/18 dashed
    /// "vanilla" line).
    pub dense_accuracy: f32,
    /// Pretraining trajectory.
    pub pretrain_trajectory: Trajectory,
    /// Step-1 (AE) finetuning trajectory, if AE was enabled.
    pub ae_trajectory: Option<Trajectory>,
    /// Step-2 (sparse) finetuning trajectory, if split-and-conquer ran.
    pub sparse_trajectory: Option<Trajectory>,
    /// Accuracy after the complete pipeline.
    pub final_accuracy: f32,
    /// Mean achieved attention sparsity (0 when Step 2 skipped).
    pub achieved_sparsity: f64,
    /// Split-and-conquer output per `[layer][head]` (empty when
    /// skipped).
    pub polarized: Vec<Vec<PolarizedHead>>,
    /// The finetuned model and parameters, for further analysis.
    pub trainer: Trainer,
}

impl PipelineReport {
    /// Accuracy drop (dense − final); the paper claims < 1 % at 90 %
    /// sparsity on DeiT (measured on our synthetic substitute task).
    pub fn accuracy_drop(&self) -> f32 {
        self.dense_accuracy - self.final_accuracy
    }
}

/// Runs the unified two-step ViTCoD pipeline end to end.
///
/// # Example
///
/// ```no_run
/// use vitcod_core::{PipelineConfig, ViTCoDPipeline};
/// use vitcod_model::{SyntheticTask, SyntheticTaskConfig, ViTConfig};
///
/// let task = SyntheticTask::generate(SyntheticTaskConfig::default());
/// let cfg = PipelineConfig::paper_default(
///     ViTConfig::deit_tiny().reduced_for_training());
/// let report = ViTCoDPipeline::new(cfg).run(&task);
/// assert!(report.achieved_sparsity > 0.5);
/// ```
#[derive(Debug)]
pub struct ViTCoDPipeline {
    config: PipelineConfig,
}

impl ViTCoDPipeline {
    /// Creates a pipeline with `config`.
    pub fn new(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Executes: pretrain → (insert AE, finetune) → (split-and-conquer,
    /// freeze the masks to CSC, finetune).
    pub fn run(&self, task: &SyntheticTask) -> PipelineReport {
        let cfg = &self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let vit = VisionTransformer::new(
            &cfg.model,
            task.config.in_dim,
            task.config.num_classes,
            &mut store,
            &mut rng,
        );
        let mut trainer = Trainer::new(vit, store);

        // "Pretrained ViTs" input.
        let pretrain_trajectory = trainer.train(task, &cfg.pretrain);
        let dense_accuracy = trainer.evaluate(&task.test);

        // Step 1: insert AE modules, finetune.
        let ae_trajectory = cfg.auto_encoder.map(|spec| {
            let mut rng_ae = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xAE);
            trainer.insert_auto_encoder(spec, &mut rng_ae);
            trainer.train(task, &cfg.finetune)
        });

        // Step 2: split-and-conquer on averaged maps, freeze, finetune.
        let (polarized, sparse_trajectory) = cfg
            .split_conquer
            .map(|sc_cfg| Self::finetune_sparse(&mut trainer, task, sc_cfg, &cfg.finetune))
            .unzip();
        let polarized = polarized.unwrap_or_default();

        let final_accuracy = trainer.evaluate(&task.test);
        PipelineReport {
            dense_accuracy,
            pretrain_trajectory,
            ae_trajectory,
            sparse_trajectory,
            final_accuracy,
            achieved_sparsity: SplitConquer::mean_sparsity(&polarized),
            polarized,
            trainer,
        }
    }

    /// Step 2 of Fig. 10 on an already-warm `trainer`: split-and-conquer
    /// on its averaged attention maps, install the masks (compiled to
    /// per-head CSC indexes once) and switch the masked heads onto them
    /// ([`VisionTransformer::freeze_sparse_attention`]), then finetune —
    /// every masked head runs the sparse dataflow in the forward and the
    /// backward pass, so a step's attention cost follows the mask
    /// density instead of `n²`. Returns the split-and-conquer output per
    /// `[layer][head]` and the finetune trajectory.
    pub fn finetune_sparse(
        trainer: &mut Trainer,
        task: &SyntheticTask,
        split_conquer: SplitConquerConfig,
        finetune: &TrainConfig,
    ) -> (Vec<Vec<PolarizedHead>>, Trajectory) {
        let maps = trainer.averaged_attention_maps(task);
        let polarized = SplitConquer::new(split_conquer).apply(&maps);
        let model = trainer.model_mut();
        model.set_sparsity_plan(SplitConquer::to_sparsity_plan(&polarized));
        model.freeze_sparse_attention();
        let trajectory = trainer.train(task, finetune);
        (polarized, trajectory)
    }
}

#[cfg(test)]
// Exact float equality below asserts bit-identical artifact replay.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use vitcod_model::SyntheticTaskConfig;

    fn quick_task() -> SyntheticTask {
        SyntheticTask::generate(SyntheticTaskConfig {
            train_samples: 40,
            test_samples: 24,
            ..Default::default()
        })
    }

    fn quick_cfg(ae: bool, sc: bool) -> PipelineConfig {
        let model = ViTConfig::deit_tiny().reduced_for_training();
        PipelineConfig {
            auto_encoder: ae.then(|| AutoEncoderSpec::half(model.heads)),
            split_conquer: sc.then(|| SplitConquerConfig::with_sparsity(0.8)),
            pretrain: TrainConfig {
                epochs: 4,
                ..Default::default()
            },
            finetune: TrainConfig {
                epochs: 3,
                lr: 1e-3,
                ..Default::default()
            },
            model,
            seed: 7,
        }
    }

    #[test]
    fn full_pipeline_produces_sparse_model() {
        let task = quick_task();
        let report = ViTCoDPipeline::new(quick_cfg(true, true)).run(&task);
        assert!(report.ae_trajectory.is_some());
        assert!(report.sparse_trajectory.is_some());
        assert!(
            (report.achieved_sparsity - 0.8).abs() < 0.05,
            "sparsity {}",
            report.achieved_sparsity
        );
        assert!(!report.polarized.is_empty());
        assert!(report.trainer.model().sparsity_plan().is_some());
        assert!(report.trainer.model().has_frozen_sparse());
        assert!(report.trainer.model().ae_spec().is_some());
    }

    #[test]
    fn ablation_skips_steps() {
        let task = quick_task();
        let report = ViTCoDPipeline::new(quick_cfg(false, false)).run(&task);
        assert!(report.ae_trajectory.is_none());
        assert!(report.sparse_trajectory.is_none());
        assert_eq!(report.achieved_sparsity, 0.0);
        assert!(report.polarized.is_empty());
        assert_eq!(report.dense_accuracy, report.final_accuracy);
    }

    #[test]
    fn sparse_only_pipeline_installs_masks() {
        let task = quick_task();
        let report = ViTCoDPipeline::new(quick_cfg(false, true)).run(&task);
        assert!(report.trainer.model().sparsity_plan().is_some());
        assert!(report.trainer.model().has_frozen_sparse());
        assert!(report.trainer.model().ae_spec().is_none());
        assert!(report.achieved_sparsity > 0.7);
    }

    /// The dense `-inf`-biased attention is the oracle of the frozen CSC
    /// dataflow: under one plan and one schedule the two finetunes agree
    /// to the bit, in every epoch's loss and every parameter.
    #[test]
    fn frozen_finetune_is_bit_identical_to_the_masked_oracle() {
        let task = quick_task();
        let mut masked = ViTCoDPipeline::new(quick_cfg(false, false))
            .run(&task)
            .trainer;
        let maps = masked.averaged_attention_maps(&task);
        let polarized = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9)).apply(&maps);
        masked
            .model_mut()
            .set_sparsity_plan(SplitConquer::to_sparsity_plan(&polarized));
        let mut frozen = masked.clone();
        let heads = masked.model().config().depth * masked.model().config().heads;
        assert_eq!(frozen.model_mut().freeze_sparse_attention(), heads);
        assert!(!masked.model().has_frozen_sparse());

        let finetune = quick_cfg(false, true).finetune;
        let masked_trajectory = masked.train(&task, &finetune);
        let frozen_trajectory = frozen.train(&task, &finetune);
        assert_eq!(frozen_trajectory.epochs.len(), 3);
        for (m, f) in masked_trajectory
            .epochs
            .iter()
            .zip(&frozen_trajectory.epochs)
        {
            assert_eq!(
                m.train_loss.to_bits(),
                f.train_loss.to_bits(),
                "epoch {}: masked {} vs frozen {}",
                m.epoch,
                m.train_loss,
                f.train_loss
            );
        }
        for id in masked.store().ids() {
            let bits = |store: &ParamStore| -> Vec<u32> {
                let values = store.value(id).as_slice();
                values.iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(
                bits(masked.store()),
                bits(frozen.store()),
                "parameter {} differs",
                masked.store().name(id)
            );
        }
    }
}
