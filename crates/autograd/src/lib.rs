//! Tape-based reverse-mode automatic differentiation for the ViTCoD
//! reproduction.
//!
//! The ViTCoD pipeline (paper Fig. 10) finetunes Vision Transformers twice:
//! once after inserting the learnable auto-encoder modules and once after
//! applying the split-and-conquer sparsification. That requires gradients
//! through attention (with *fixed sparse masks*), LayerNorm, GELU MLPs and
//! the head-dimension auto-encoder. This crate provides exactly that: a
//! small, dependency-free tape autograd over [`vitcod_tensor::Matrix`]
//! with fused operators for the expensive composites (attention,
//! LayerNorm, head-mixing used by the auto-encoder).
//!
//! # Design
//!
//! * A [`Tape`] records a DAG of ops produced during a forward pass;
//!   [`Tape::backward`] walks it in reverse, accumulating gradients.
//! * Attention is one op, [`Tape::attention`]: `batch` stacked samples
//!   (a single sample is a batch of one) × heads, each head following a
//!   [`HeadExec`] plan fixed ahead of time — dense, dense with a `-inf`
//!   mask bias, or the truly-sparse CSC dataflow. Its cached
//!   probabilities are read through [`Tape::try_head_probs`] (borrowed,
//!   dense heads only) and [`Tape::head_probs_dense`] (owned, any head).
//! * Trainable parameters live outside the tape in a [`ParamStore`], so a
//!   fresh tape per training step reuses the same parameters; after
//!   `backward`, [`Tape::write_grads`] flushes accumulated gradients into
//!   the store where an optimizer ([`Adam`]) consumes them.
//! * Every operator's backward pass is verified against central finite
//!   differences in the test suite.
//!
//! # Example
//!
//! ```
//! use vitcod_autograd::{ParamStore, Tape};
//! use vitcod_tensor::{Initializer, Matrix};
//!
//! let mut store = ParamStore::new();
//! let w = store.register("w", Initializer::XavierUniform.sample(2, 2, 0));
//! let mut tape = Tape::new();
//! let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0]]));
//! let wv = tape.param(&store, w);
//! let y = tape.matmul(x, wv);
//! let target = tape.constant(Matrix::from_rows(&[&[0.0, 0.0]]));
//! let loss = tape.mse_between(y, target);
//! tape.backward(loss);
//! tape.write_grads(&mut store);
//! assert_eq!(store.grad(w).shape(), (2, 2));
//! ```

#![warn(missing_docs)]

mod nn;
mod optim;
mod params;
mod tape;

pub use nn::{LayerNorm, Linear};
pub use optim::{cosine_lr, Adam, Optimizer};
pub use params::{ParamId, ParamStore};
pub use tape::{HeadExec, Tape, Var, LAYERNORM_EPS};
