//! Procedurally generated vision tasks — the documented substitution for
//! ImageNet / Human3.6M.
//!
//! Each sample is a grid of patch tokens in which the class is encoded by
//! one (or a few) *anchor* tokens carrying a class-prototype direction,
//! superimposed on a spatially smooth background field. Classifying a
//! sample therefore requires attending *globally* to the anchors, while
//! the smooth background induces strong *local* (neighbouring-token)
//! correlations. Trained ViTs consequently develop exactly the attention
//! structure the ViTCoD paper exploits (Fig. 2/8): diagonal locality plus
//! a small set of global tokens.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_tensor::Matrix;

/// One labelled sample.
///
/// `tokens` has `1 + grid²` rows: row 0 is an all-zero slot reserved for
/// the class token (its embedding is learned positionally by the model),
/// and rows `1..` are the patch features.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Token features, `(1 + grid²) × in_dim`.
    pub tokens: Matrix,
    /// Class label in `0..num_classes`.
    pub label: usize,
}

/// Configuration of a synthetic task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticTaskConfig {
    /// Patch grid side; token count is `grid² + 1`.
    pub grid: usize,
    /// Raw feature dimension of each patch.
    pub in_dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Number of anchor tokens carrying the class prototype.
    pub num_anchors: usize,
    /// Size of the fixed *salient-position* set anchors are drawn from.
    /// Real image datasets have input-averaged-stable salient regions
    /// (which is why the paper's fixed masks work); the task mirrors
    /// that: anchors land on a small set of positions that is fixed for
    /// the whole dataset, so averaged attention maps develop global
    /// tokens there.
    pub anchor_positions: usize,
    /// Scale of the class prototype inside anchor tokens.
    pub anchor_strength: f32,
    /// Scale of the spatially smooth background field.
    pub background_strength: f32,
    /// i.i.d. noise standard deviation.
    pub noise_std: f32,
    /// Training-set size.
    pub train_samples: usize,
    /// Held-out test-set size.
    pub test_samples: usize,
    /// Master seed; the whole dataset is a pure function of the config.
    pub seed: u64,
}

impl Default for SyntheticTaskConfig {
    fn default() -> Self {
        Self {
            grid: 4,
            in_dim: 8,
            num_classes: 4,
            num_anchors: 2,
            anchor_positions: 3,
            anchor_strength: 2.5,
            background_strength: 1.0,
            noise_std: 0.3,
            train_samples: 192,
            test_samples: 96,
            seed: 0x5eed,
        }
    }
}

/// A fully materialised synthetic classification task.
///
/// # Example
///
/// ```
/// use vitcod_model::{SyntheticTask, SyntheticTaskConfig};
///
/// let task = SyntheticTask::generate(SyntheticTaskConfig::default());
/// assert_eq!(task.train.len(), 192);
/// assert_eq!(task.num_tokens(), 17);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticTask {
    /// Task configuration the data was generated from.
    pub config: SyntheticTaskConfig,
    /// Training samples.
    pub train: Vec<Sample>,
    /// Test samples.
    pub test: Vec<Sample>,
    prototypes: Vec<Vec<f32>>,
}

impl SyntheticTask {
    /// Generates the task deterministically from `config`.
    pub fn generate(config: SyntheticTaskConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        // Class prototypes: random unit directions, mutually decorrelated
        // by construction for small class counts in in_dim >= classes.
        let prototypes: Vec<Vec<f32>> = (0..config.num_classes)
            .map(|_| {
                let mut v: Vec<f32> = (0..config.in_dim)
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect();
                let n = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
                v.iter_mut().for_each(|x| *x /= n);
                v
            })
            .collect();
        // Fixed salient positions shared by the whole dataset.
        let n_patch = config.grid * config.grid;
        let mut salient = Vec::new();
        while salient.len() < config.anchor_positions.min(n_patch) {
            let p = rng.gen_range(0..n_patch);
            if !salient.contains(&p) {
                salient.push(p);
            }
        }
        let train = (0..config.train_samples)
            .map(|_| gen_sample(&config, &prototypes, &salient, &mut rng))
            .collect();
        let test = (0..config.test_samples)
            .map(|_| gen_sample(&config, &prototypes, &salient, &mut rng))
            .collect();
        Self {
            config,
            train,
            test,
            prototypes,
        }
    }

    /// Token count per sample, including the class-token slot.
    pub fn num_tokens(&self) -> usize {
        self.config.grid * self.config.grid + 1
    }

    /// The class-prototype directions (for analysis/tests).
    pub fn prototypes(&self) -> &[Vec<f32>] {
        &self.prototypes
    }
}

fn gen_sample(
    cfg: &SyntheticTaskConfig,
    protos: &[Vec<f32>],
    salient: &[usize],
    rng: &mut ChaCha8Rng,
) -> Sample {
    let n_patch = cfg.grid * cfg.grid;
    let label = rng.gen_range(0..cfg.num_classes);
    let mut tokens = Matrix::zeros(n_patch + 1, cfg.in_dim);

    // Smooth background: a low-frequency 2D sinusoid field with a random
    // phase/direction per feature, so adjacent patches are correlated.
    let fx: Vec<f32> = (0..cfg.in_dim)
        .map(|_| rng.gen_range(0.3f32..1.2))
        .collect();
    let fy: Vec<f32> = (0..cfg.in_dim)
        .map(|_| rng.gen_range(0.3f32..1.2))
        .collect();
    let phase: Vec<f32> = (0..cfg.in_dim)
        .map(|_| rng.gen_range(0.0f32..std::f32::consts::TAU))
        .collect();
    for p in 0..n_patch {
        let (px, py) = ((p % cfg.grid) as f32, (p / cfg.grid) as f32);
        for f in 0..cfg.in_dim {
            let bg = cfg.background_strength * (fx[f] * px + fy[f] * py + phase[f]).sin();
            let noise = cfg.noise_std * gauss(rng);
            tokens.set(p + 1, f, bg + noise);
        }
    }

    // Anchors: a random subset of the fixed salient positions carrying
    // the class prototype.
    let mut anchors = Vec::with_capacity(cfg.num_anchors);
    while anchors.len() < cfg.num_anchors.min(salient.len()) {
        let a = salient[rng.gen_range(0..salient.len())];
        if !anchors.contains(&a) {
            anchors.push(a);
        }
    }
    for &a in &anchors {
        for (f, &proto) in protos[label].iter().enumerate() {
            let v = tokens.get(a + 1, f) + cfg.anchor_strength * proto;
            tokens.set(a + 1, f, v);
        }
    }

    Sample { tokens, label }
}

fn gauss(rng: &mut ChaCha8Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0f32..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticTask::generate(SyntheticTaskConfig::default());
        let b = SyntheticTask::generate(SyntheticTaskConfig::default());
        assert_eq!(a.train[0].label, b.train[0].label);
        assert_eq!(a.train[0].tokens, b.train[0].tokens);
        assert_eq!(a.test[5].tokens, b.test[5].tokens);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticTask::generate(SyntheticTaskConfig::default());
        let b = SyntheticTask::generate(SyntheticTaskConfig {
            seed: 999,
            ..SyntheticTaskConfig::default()
        });
        assert_ne!(a.train[0].tokens, b.train[0].tokens);
    }

    #[test]
    fn sample_shapes_and_labels_valid() {
        let cfg = SyntheticTaskConfig::default();
        let task = SyntheticTask::generate(cfg);
        for s in task.train.iter().chain(task.test.iter()) {
            assert_eq!(s.tokens.shape(), (17, cfg.in_dim));
            assert!(s.label < cfg.num_classes);
            // Class-token slot is zeroed.
            assert!(s.tokens.row(0).iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn labels_cover_all_classes() {
        let task = SyntheticTask::generate(SyntheticTaskConfig::default());
        for c in 0..task.config.num_classes {
            assert!(
                task.train.iter().any(|s| s.label == c),
                "class {c} missing from train set"
            );
        }
    }

    #[test]
    fn anchors_make_classes_linearly_separable_in_mean_projection() {
        // Projecting the token-sum onto each prototype should identify the
        // label more often than chance, confirming the signal exists.
        let task = SyntheticTask::generate(SyntheticTaskConfig::default());
        let mut correct = 0;
        for s in &task.test {
            // Max-over-tokens projection onto each prototype: the anchor
            // token should light up its class direction.
            let mut scores = vec![f32::NEG_INFINITY; task.config.num_classes];
            for (c, proto) in task.prototypes().iter().enumerate() {
                for r in 1..s.tokens.rows() {
                    let dot: f32 = s
                        .tokens
                        .row(r)
                        .iter()
                        .zip(proto.iter())
                        .map(|(t, p)| t * p)
                        .sum();
                    scores[c] = scores[c].max(dot);
                }
            }
            if vitcod_tensor::argmax(&scores) == Some(s.label) {
                correct += 1;
            }
        }
        let acc = correct as f64 / task.test.len() as f64;
        assert!(acc > 0.5, "linear probe accuracy only {acc}");
    }

    #[test]
    fn neighbouring_patches_correlate_more_than_distant_ones() {
        // The smooth background must induce locality; measure average
        // cosine similarity between horizontally adjacent vs. far patches.
        let task = SyntheticTask::generate(SyntheticTaskConfig {
            noise_std: 0.1,
            anchor_strength: 0.0,
            ..SyntheticTaskConfig::default()
        });
        let g = task.config.grid;
        let cos = |a: &[f32], b: &[f32]| {
            let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (na * nb).max(1e-6)
        };
        let mut near = 0.0;
        let mut far = 0.0;
        let mut count = 0;
        for s in task.train.iter().take(50) {
            for row in 0..g {
                let p0 = 1 + row * g;
                near += cos(s.tokens.row(p0), s.tokens.row(p0 + 1));
                // "Far" reference: first patch vs. the opposite corner.
                far += cos(s.tokens.row(p0), s.tokens.row(g * g));
                count += 1;
            }
        }
        let near = near / count as f32;
        let far = far / count as f32;
        assert!(
            near > far,
            "adjacent similarity {near} not higher than distant {far}"
        );
    }
}
