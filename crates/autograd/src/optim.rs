//! First-order optimizers operating on a [`ParamStore`].

use vitcod_tensor::Matrix;

use crate::params::ParamStore;

/// A first-order optimizer that consumes accumulated gradients from a
/// [`ParamStore`] and updates parameter values in place.
///
/// The trait is object-safe so training loops can hold a
/// `Box<dyn Optimizer>` chosen from configuration.
pub trait Optimizer {
    /// Applies one update step using the gradients currently stored in
    /// `store`, then leaves the gradients untouched (callers usually
    /// follow with [`ParamStore::zero_grads`]).
    fn step(&mut self, store: &mut ParamStore);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (e.g. for cosine decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Adam optimizer (Kingma & Ba) with decoupled weight decay (AdamW-style).
///
/// This mirrors the finetuning recipe the paper uses for DeiT/LeViT
/// (AdamW), scaled down to our synthetic tasks.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the customary `beta1 = 0.9`, `beta2 = 0.999`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adds decoupled (AdamW) weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore) {
        let ids: Vec<_> = store.ids().collect();
        if self.m.len() != ids.len() {
            self.m = ids
                .iter()
                .map(|&id| {
                    let (r, c) = store.value(id).shape();
                    Matrix::zeros(r, c)
                })
                .collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, &id) in ids.iter().enumerate() {
            let grad = store.grad(id).clone();
            for ((m, v), g) in self.m[i]
                .as_mut_slice()
                .iter_mut()
                .zip(self.v[i].as_mut_slice().iter_mut())
                .zip(grad.as_slice())
            {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            }
            let lr = self.lr;
            let eps = self.eps;
            let wd = self.weight_decay;
            let mi = &self.m[i];
            let vi = &self.v[i];
            let value = store.value_mut(id);
            for ((w, m), v) in value
                .as_mut_slice()
                .iter_mut()
                .zip(mi.as_slice())
                .zip(vi.as_slice())
            {
                let mhat = m / bc1;
                let vhat = v / bc2;
                *w -= lr * (mhat / (vhat.sqrt() + eps) + wd * *w);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Cosine learning-rate schedule from `base_lr` down to `min_lr` over
/// `total_steps`, matching the DeiT finetuning recipe shape.
///
/// # Example
///
/// ```
/// let lr = vitcod_autograd::cosine_lr(1e-3, 1e-5, 0, 100);
/// assert!((lr - 1e-3).abs() < 1e-9);
/// let lr_end = vitcod_autograd::cosine_lr(1e-3, 1e-5, 100, 100);
/// assert!((lr_end - 1e-5).abs() < 1e-9);
/// ```
pub fn cosine_lr(base_lr: f32, min_lr: f32, step: usize, total_steps: usize) -> f32 {
    if total_steps == 0 {
        return base_lr;
    }
    let progress = (step.min(total_steps)) as f32 / total_steps as f32;
    min_lr + 0.5 * (base_lr - min_lr) * (1.0 + (std::f32::consts::PI * progress).cos())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_store() -> (ParamStore, crate::ParamId) {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::filled(1, 2, 5.0));
        (store, w)
    }

    /// loss = 0.5 * |w|^2, grad = w.
    fn grad_step(store: &mut ParamStore, id: crate::ParamId) {
        store.zero_grads();
        let g = store.value(id).clone();
        store.accumulate_grad(id, &g);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let (mut store, w) = quadratic_store();
        let mut opt = Adam::new(0.3);
        for _ in 0..300 {
            grad_step(&mut store, w);
            opt.step(&mut store);
        }
        assert!(store.value(w).frobenius_norm() < 1e-2);
    }

    #[test]
    // The setter stores the exact literal; strict comparison is right.
    #[allow(clippy::float_cmp)]
    fn set_learning_rate_round_trips() {
        let mut opt = Adam::new(0.1);
        opt.set_learning_rate(0.05);
        assert_eq!(opt.learning_rate(), 0.05);
    }

    #[test]
    fn cosine_schedule_is_monotone_decreasing() {
        let mut prev = f32::INFINITY;
        for step in 0..=50 {
            let lr = cosine_lr(1.0, 0.0, step, 50);
            assert!(lr <= prev + 1e-7);
            prev = lr;
        }
    }

    #[test]
    fn optimizer_is_object_safe() {
        let mut opt: Box<dyn Optimizer> = Box::new(Adam::new(0.1));
        opt.set_learning_rate(0.2);
        assert!((opt.learning_rate() - 0.2).abs() < 1e-9);
    }
}
