//! Reusable neural-network layers built on the tape.

use rand::Rng;
use vitcod_tensor::{Initializer, Matrix};

use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};

/// Fully connected layer `y = x · W + b`.
///
/// The weights live in a [`ParamStore`]; the layer itself is a lightweight
/// handle that can be applied to any tape.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use vitcod_autograd::{Linear, ParamStore, Tape};
/// use vitcod_tensor::Matrix;
///
/// let mut store = ParamStore::new();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let layer = Linear::new(&mut store, "proj", 4, 2, &mut rng);
/// let mut tape = Tape::new();
/// let x = tape.constant(Matrix::zeros(3, 4));
/// let y = layer.forward(&mut tape, &store, x);
/// assert_eq!(tape.value(y).shape(), (3, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Registers a new layer's parameters (Xavier weights, zero bias) in
    /// `store` under names derived from `name`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut R,
    ) -> Self {
        let weight = store.register(
            format!("{name}.weight"),
            Initializer::XavierUniform.sample_with(in_features, out_features, rng),
        );
        let bias = store.register(format!("{name}.bias"), Matrix::zeros(1, out_features));
        Self {
            weight,
            bias,
            in_features,
            out_features,
        }
    }

    /// Applies the layer: `x · W + b`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = tape.param(store, self.weight);
        let b = tape.param(store, self.bias);
        let y = tape.matmul(x, w);
        tape.add_bias(y, b)
    }

    /// Handle to the weight matrix parameter.
    pub fn weight(&self) -> ParamId {
        self.weight
    }

    /// Handle to the bias parameter.
    pub fn bias(&self) -> ParamId {
        self.bias
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

/// Row-wise LayerNorm with learnable scale and shift.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    features: usize,
}

impl LayerNorm {
    /// Registers gamma (ones) and beta (zeros) for `features` columns.
    pub fn new(store: &mut ParamStore, name: &str, features: usize) -> Self {
        let gamma = store.register(format!("{name}.gamma"), Matrix::filled(1, features, 1.0));
        let beta = store.register(format!("{name}.beta"), Matrix::zeros(1, features));
        Self {
            gamma,
            beta,
            features,
        }
    }

    /// Applies LayerNorm over each row of `x`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let g = tape.param(store, self.gamma);
        let b = tape.param(store, self.beta);
        tape.layernorm(x, g, b)
    }

    /// Normalised feature count.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Handle to gamma.
    pub fn gamma(&self) -> ParamId {
        self.gamma
    }

    /// Handle to beta.
    pub fn beta(&self) -> ParamId {
        self.beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adam, Optimizer};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let l = Linear::new(&mut store, "l", 8, 3, &mut rng);
        assert_eq!(l.in_features(), 8);
        assert_eq!(l.out_features(), 3);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(5, 8));
        let y = l.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (5, 3));
    }

    #[test]
    fn layernorm_forward_normalises() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
        let y = ln.forward(&mut tape, &store, x);
        let row = tape.value(y).row(0).to_vec();
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    fn linear_regression_learns_target() {
        // Train y = x·W to match a fixed target map; a smoke test that the
        // whole tape → grads → optimizer loop descends.
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let l = Linear::new(&mut store, "l", 2, 1, &mut rng);
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[2.0, -1.0]]);
        let target = Matrix::from_rows(&[&[2.0], &[-3.0], &[-1.0], &[7.0]]);
        let mut opt = Adam::new(0.05);
        let mut last = f32::INFINITY;
        for _ in 0..1200 {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = l.forward(&mut tape, &store, xv);
            let tv = tape.constant(target.clone());
            let loss = tape.mse_between(y, tv);
            last = tape.scalar(loss);
            tape.backward(loss);
            store.zero_grads();
            tape.write_grads(&mut store);
            opt.step(&mut store);
        }
        assert!(last < 1e-3, "final loss {last}");
        // Learned W ≈ [2, -3].
        let w = store.value(l.weight());
        assert!((w.get(0, 0) - 2.0).abs() < 0.05);
        assert!((w.get(1, 0) + 3.0).abs() < 0.05);
    }
}
