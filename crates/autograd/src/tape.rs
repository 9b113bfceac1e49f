//! The autograd tape: forward operator recording and reverse accumulation.
//!
//! All dense inner loops (GEMMs, bias broadcasts, activations, softmax
//! and LayerNorm forward/backward, head-mixing, attention) are delegated
//! to [`vitcod_tensor::kernels`], so the tape records *what* is computed
//! while the kernel layer decides *how* (the packed-panel GEMMs and the
//! thread budget's fan-out — see [`vitcod_tensor::kernels`]).
//!
//! There is one attention op, [`Tape::attention`], over `batch`
//! vertically stacked samples; a single sample is a batch of one. Every
//! `(sample, head)` task runs `kernels::attention_head{,_backward}` or
//! their `sparse` counterparts according to the head's [`HeadExec`]
//! plan, and its probabilities are read back with
//! [`Tape::try_head_probs`] / [`Tape::head_probs_dense`].

use std::sync::Arc;

use vitcod_tensor::sparse::{self, CscMatrix, SparseScores};
use vitcod_tensor::{gelu, gelu_grad, kernels, Matrix};

use crate::params::{ParamId, ParamStore};

/// LayerNorm epsilon the tape's [`Tape::layernorm`] uses. Inference
/// engines that must reproduce the tape's logits bit for bit (the
/// `vitcod-engine` parity contract) share this constant instead of
/// duplicating the literal.
pub const LAYERNORM_EPS: f32 = 1e-5;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// Per-head execution plan of a [`Tape::attention`] node. Plans are
/// `Arc`-shared so a model can build them once (mask freeze) and every
/// training step's tape references them without re-materialising an
/// `n × n` bias or recompiling a CSC index per sample.
#[derive(Debug, Clone)]
pub enum HeadExec {
    /// Full dense attention.
    Dense,
    /// Dense attention with an additive mask bias (`0` kept, `-inf`
    /// pruned) — the finetuning path before the mask is frozen sparse.
    Masked(Arc<Matrix>),
    /// Truly-sparse attention over a fixed CSC index: the head runs the
    /// accelerator's SDDMM → sparse-softmax → SpMM dataflow in both
    /// passes, so its training cost scales with `nnz` instead of `n²`.
    Sparse(Arc<CscMatrix>),
}

/// Cached forward probabilities of one `(sample, head)` attention task.
#[derive(Debug, Clone)]
enum HeadProbs {
    Dense(Matrix),
    Sparse(SparseScores),
}

/// Recorded operator. Parents are earlier tape nodes, so a single reverse
/// sweep in index order is a valid topological traversal.
#[derive(Debug, Clone)]
enum OpKind {
    /// Leaf: constant input or imported parameter.
    Leaf {
        param: Option<ParamId>,
    },
    MatMul {
        a: Var,
        b: Var,
    },
    Add {
        a: Var,
        b: Var,
    },
    Sub {
        a: Var,
        b: Var,
    },
    Hadamard {
        a: Var,
        b: Var,
    },
    Scale {
        a: Var,
        s: f32,
    },
    /// Broadcast-add a `1 × c` bias to every row of `a`.
    AddBias {
        a: Var,
        bias: Var,
    },
    Gelu {
        a: Var,
    },
    /// Row-wise LayerNorm with `1 × c` gamma/beta; caches normalized rows
    /// and inverse std-dev for the backward pass.
    LayerNorm {
        a: Var,
        gamma: Var,
        beta: Var,
        normed: Matrix,
        inv_std: Vec<f32>,
    },
    /// Fused multi-head attention over `batch` vertically stacked
    /// samples of `n` tokens each: `(sample, head)` tasks fan out across
    /// worker threads, each head following its [`HeadExec`] plan (dense,
    /// dense-masked, or the truly-sparse CSC dataflow). Caches one
    /// probability record per task, sample-major.
    Attention {
        q: Var,
        k: Var,
        v: Var,
        dk: usize,
        scale: f32,
        batch: usize,
        heads: Vec<HeadExec>,
        probs: Vec<HeadProbs>,
    },
    /// Vertical tiling: `a` repeated `times` times (broadcasting shared
    /// per-sample state, e.g. positional embeddings, over a batch).
    TileRows {
        a: Var,
        times: usize,
    },
    /// Row gather `out[i, :] = a[rows[i], :]` (batched class-token
    /// readout); backward scatter-adds in ascending output-row order.
    GatherRows {
        a: Var,
        rows: Vec<usize>,
    },
    /// Mixes the head dimension: input `n × (h·dk)`, weight `h_in × h_out`,
    /// output `n × (h_out·dk)`. This is the ViTCoD auto-encoder primitive.
    HeadMix {
        a: Var,
        w: Var,
        dk: usize,
    },
    /// Mean over rows producing a `1 × c` pooled representation.
    MeanRows {
        a: Var,
    },
    /// Mean softmax cross-entropy between `logits` rows and integer targets;
    /// caches probabilities.
    CrossEntropy {
        logits: Var,
        targets: Vec<usize>,
        probs: Matrix,
    },
    /// Mean squared error against a constant target.
    MseConst {
        a: Var,
        target: Matrix,
    },
    /// Sum of two scalar losses (weighted).
    WeightedSum {
        a: Var,
        b: Var,
        wa: f32,
        wb: f32,
    },
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: OpKind,
}

/// Records a forward computation and replays it backwards for gradients.
///
/// All operator methods panic on shape mismatches — inside a model the
/// shapes are structural invariants, so a mismatch is a bug, not an input
/// error.
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tape({} nodes)", self.nodes.len())
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: OpKind) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Current value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of the last `backward` root with respect to node `v`, if
    /// the node participated in the backward sweep.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Records a constant (non-trainable) input.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, OpKind::Leaf { param: None })
    }

    /// Imports a parameter from `store` as a leaf node.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(store.value(id).clone(), OpKind::Leaf { param: Some(id) })
    }

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(value, OpKind::MatMul { a, b })
    }

    /// Elementwise sum `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = &self.nodes[a.0].value + &self.nodes[b.0].value;
        self.push(value, OpKind::Add { a, b })
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = &self.nodes[a.0].value - &self.nodes[b.0].value;
        self.push(value, OpKind::Sub { a, b })
    }

    /// Elementwise product `a ⊙ b`.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.hadamard(&self.nodes[b.0].value);
        self.push(value, OpKind::Hadamard { a, b })
    }

    /// Scalar multiple `a * s`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.nodes[a.0].value.scale(s);
        self.push(value, OpKind::Scale { a, s })
    }

    /// Adds a `1 × c` bias row to every row of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × a.cols()`.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let (_, c) = self.nodes[a.0].value.shape();
        assert_eq!(
            self.nodes[bias.0].value.shape(),
            (1, c),
            "bias must be 1 x cols"
        );
        let value = kernels::add_bias(&self.nodes[a.0].value, self.nodes[bias.0].value.row(0));
        self.push(value, OpKind::AddBias { a, bias })
    }

    /// GELU nonlinearity.
    pub fn gelu(&mut self, a: Var) -> Var {
        let value = kernels::map(&self.nodes[a.0].value, gelu);
        self.push(value, OpKind::Gelu { a })
    }

    /// Row-wise LayerNorm with learnable `1 × c` gamma and beta.
    pub fn layernorm(&mut self, a: Var, gamma: Var, beta: Var) -> Var {
        let x = &self.nodes[a.0].value;
        let g = self.nodes[gamma.0].value.row(0).to_vec();
        let b = self.nodes[beta.0].value.row(0).to_vec();
        let (out, normed, inv_std) = kernels::layernorm_train_forward(x, &g, &b, LAYERNORM_EPS);
        self.push(
            out,
            OpKind::LayerNorm {
                a,
                gamma,
                beta,
                normed,
                inv_std,
            },
        )
    }

    /// Fused multi-head attention, the tape's one attention op:
    /// `q`/`k`/`v` hold `batch` samples of `n` tokens stacked vertically
    /// (`(batch·n) × (h·dk)`; a single sample is `batch == 1`), and every
    /// `(sample, head)` pair attends independently inside its own block
    /// — one tape node per step instead of one per sample, which is what
    /// lets a training step amortise weight imports and per-op overhead
    /// across the batch.
    ///
    /// `heads[h]` selects each head's execution plan ([`HeadExec`]):
    /// dense, dense with an additive `-inf` mask bias, or the
    /// truly-sparse CSC dataflow whose forward *and* backward cost scale
    /// with the index's `nnz`. Pass an empty slice for all-dense heads.
    /// Tasks fan out across worker threads in both passes; outputs and
    /// gradients are assembled in fixed `(sample, head)` order, so
    /// results are bit-identical regardless of the worker count.
    /// Per-task probabilities are read back through
    /// [`Self::try_head_probs`] (borrowed, dense heads) and
    /// [`Self::head_probs_dense`] (owned, any head).
    ///
    /// # Panics
    ///
    /// Panics if Q/K/V shapes differ, the row count is not a multiple of
    /// `batch`, `q.cols()` is not a multiple of `dk`, `heads` is
    /// non-empty but does not cover exactly every head, or a plan's
    /// mask/index size differs from the per-sample token count.
    #[allow(clippy::too_many_arguments)]
    pub fn attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        dk: usize,
        scale: f32,
        batch: usize,
        heads: &[HeadExec],
    ) -> Var {
        let qv = &self.nodes[q.0].value;
        let kv = &self.nodes[k.0].value;
        let vv = &self.nodes[v.0].value;
        let heads = normalize_head_plans(qv, kv, vv, dk, batch, heads);
        let (out, probs) = attention_forward(qv, kv, vv, dk, scale, batch, &heads);
        self.push(
            out,
            OpKind::Attention {
                q,
                k,
                v,
                dk,
                scale,
                batch,
                heads,
                probs,
            },
        )
    }

    /// Repeats `a` vertically `times` times (broadcast over a batch);
    /// the backward pass sums the tile gradients in ascending tile
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `times == 0`.
    pub fn tile_rows(&mut self, a: Var, times: usize) -> Var {
        assert!(times >= 1, "tile_rows needs at least one repetition");
        let av = &self.nodes[a.0].value;
        let parts: Vec<&Matrix> = (0..times).map(|_| av).collect();
        let value = Matrix::vcat(&parts);
        self.push(value, OpKind::TileRows { a, times })
    }

    /// Gathers rows of `a`: `out[i, :] = a[rows[i], :]` (batched
    /// class-token readout). Duplicate indices are allowed; their
    /// gradients accumulate.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or an index is out of bounds.
    pub fn gather_rows(&mut self, a: Var, rows: &[usize]) -> Var {
        assert!(!rows.is_empty(), "gather_rows needs at least one row");
        let av = &self.nodes[a.0].value;
        let mut value = Matrix::zeros(rows.len(), av.cols());
        for (i, &r) in rows.iter().enumerate() {
            assert!(r < av.rows(), "row {r} out of bounds");
            value.row_mut(i).copy_from_slice(av.row(r));
        }
        self.push(
            value,
            OpKind::GatherRows {
                a,
                rows: rows.to_vec(),
            },
        )
    }

    /// The cached probability record of task `(sample, head)` of the
    /// attention node `attn`.
    fn task_probs(&self, attn: Var, sample: usize, head: usize) -> &HeadProbs {
        match &self.nodes[attn.0].op {
            OpKind::Attention {
                batch,
                heads,
                probs,
                ..
            } => {
                assert!(
                    sample < *batch,
                    "sample {sample} out of range ({batch} samples)"
                );
                assert!(
                    head < heads.len(),
                    "head {head} out of range ({} heads)",
                    heads.len()
                );
                &probs[sample * heads.len() + head]
            }
            other => panic!("attention probabilities of a non-attention node: {other:?}"),
        }
    }

    /// Borrowed attention probabilities of `(sample, head)` of a
    /// [`Self::attention`] node when the head's probabilities are cached
    /// densely; `None` for heads on the sparse dataflow (densify those
    /// with [`Self::head_probs_dense`]). Lets accumulation loops over
    /// dense heads avoid one `n × n` copy per head.
    ///
    /// # Panics
    ///
    /// Panics if `attn` is not an attention node or `sample`/`head` are
    /// out of range.
    pub fn try_head_probs(&self, attn: Var, sample: usize, head: usize) -> Option<&Matrix> {
        match self.task_probs(attn, sample, head) {
            HeadProbs::Dense(m) => Some(m),
            HeadProbs::Sparse(_) => None,
        }
    }

    /// Attention probabilities of `(sample, head)` of a
    /// [`Self::attention`] node as an owned dense matrix; sparse heads
    /// are densified (zeros at pruned positions).
    ///
    /// # Panics
    ///
    /// Panics if `attn` is not an attention node or `sample`/`head` are
    /// out of range.
    pub fn head_probs_dense(&self, attn: Var, sample: usize, head: usize) -> Matrix {
        match self.task_probs(attn, sample, head) {
            HeadProbs::Dense(m) => m.clone(),
            HeadProbs::Sparse(s) => s.to_dense(),
        }
    }

    /// Head-dimension mixing (the auto-encoder primitive): with input
    /// `n × (h_in·dk)` and weight `h_in × h_out`, produces
    /// `n × (h_out·dk)` where output head `j` is `Σᵢ W[i, j] · head i`.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols()` is not a multiple of `dk` equal to
    /// `w.rows() · dk`.
    pub fn head_mix(&mut self, a: Var, w: Var, dk: usize) -> Var {
        let av = &self.nodes[a.0].value;
        let wv = &self.nodes[w.0].value;
        let value = kernels::head_mix(av, wv, dk);
        self.push(value, OpKind::HeadMix { a, w, dk })
    }

    /// Mean over rows, producing `1 × cols` (mean-pooled readout).
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let out = kernels::mean_rows(&self.nodes[a.0].value);
        self.push(out, OpKind::MeanRows { a })
    }

    /// Mean softmax cross-entropy of `logits` rows against integer class
    /// `targets`; returns a `1 × 1` scalar node.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != logits.rows()` or a target index is out
    /// of range.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let lv = &self.nodes[logits.0].value;
        assert_eq!(targets.len(), lv.rows(), "one target per logits row");
        let probs = lv.softmax_rows();
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < lv.cols(), "target {t} out of range");
            loss -= probs.get(r, t).max(1e-12).ln();
        }
        loss /= targets.len() as f32;
        self.push(
            Matrix::from_vec(1, 1, vec![loss]),
            OpKind::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                probs,
            },
        )
    }

    /// Mean of all elements as a `1 × 1` scalar node (composite of
    /// [`Self::mean_rows`] and a constant averaging matmul).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let cols = self.nodes[a.0].value.cols();
        let pooled = self.mean_rows(a);
        let ones = self.constant(Matrix::filled(cols, 1, 1.0 / cols as f32));
        self.matmul(pooled, ones)
    }

    /// Mean squared error between two tape nodes, `mean((a − b)²)`, as a
    /// `1 × 1` scalar node. Gradients flow into both operands — this is
    /// the form used for the auto-encoder reconstruction loss where both
    /// the original and the reconstructed Q/K are differentiable.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse_between(&mut self, a: Var, b: Var) -> Var {
        let d = self.sub(a, b);
        let sq = self.hadamard(d, d);
        self.mean_all(sq)
    }

    /// Mean squared error between `a` and a constant `target`; returns a
    /// `1 × 1` scalar node. This is the differentiable surrogate for the
    /// paper's `‖Q − Q′‖₀` reconstruction loss.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    // vitcod-lint: allow(V006, the gradcheck suites' loss against a constant target; training uses cross-entropy)
    pub fn mse_loss(&mut self, a: Var, target: &Matrix) -> Var {
        let av = &self.nodes[a.0].value;
        assert_eq!(av.shape(), target.shape(), "mse target shape mismatch");
        let diff = av - target;
        let loss = diff.as_slice().iter().map(|v| v * v).sum::<f32>() / av.len() as f32;
        self.push(
            Matrix::from_vec(1, 1, vec![loss]),
            OpKind::MseConst {
                a,
                target: target.clone(),
            },
        )
    }

    /// Weighted sum of two scalar nodes: `wa·a + wb·b` (total loss
    /// `L = L_CE + L_Recons` in the paper's Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if either node is not `1 × 1`.
    pub fn weighted_sum(&mut self, a: Var, b: Var, wa: f32, wb: f32) -> Var {
        assert_eq!(self.nodes[a.0].value.shape(), (1, 1), "a must be scalar");
        assert_eq!(self.nodes[b.0].value.shape(), (1, 1), "b must be scalar");
        let val = wa * self.nodes[a.0].value.get(0, 0) + wb * self.nodes[b.0].value.get(0, 0);
        self.push(
            Matrix::from_vec(1, 1, vec![val]),
            OpKind::WeightedSum { a, b, wa, wb },
        )
    }

    /// Scalar value of a `1 × 1` node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not `1 × 1`.
    pub fn scalar(&self, v: Var) -> f32 {
        let m = &self.nodes[v.0].value;
        assert_eq!(m.shape(), (1, 1), "scalar() on non-scalar node");
        m.get(0, 0)
    }

    fn add_grad(&mut self, v: Var, g: Matrix) {
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Runs reverse-mode accumulation from scalar node `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not `1 × 1`.
    pub fn backward(&mut self, root: Var) {
        assert_eq!(
            self.nodes[root.0].value.shape(),
            (1, 1),
            "backward root must be scalar"
        );
        for n in &mut self.nodes {
            n.grad = None;
        }
        self.nodes[root.0].grad = Some(Matrix::from_vec(1, 1, vec![1.0]));

        for i in (0..self.nodes.len()).rev() {
            if self.nodes[i].grad.is_none() {
                continue;
            }
            // Move the upstream gradient and the op out of the node for
            // the duration of the arm (both are restored afterwards):
            // the backward formulas then read cached matrices and parent
            // values by reference instead of deep-copying them — at
            // training scale those clones (attention probabilities,
            // LayerNorm activations, GEMM operands) dominate the sweep's
            // memory traffic.
            let gout = self.nodes[i].grad.take().expect("checked above");
            let op = std::mem::replace(&mut self.nodes[i].op, OpKind::Leaf { param: None });
            match &op {
                OpKind::Leaf { .. } => {}
                &OpKind::MatMul { a, b } => {
                    let ga = gout.matmul_nt(&self.nodes[b.0].value);
                    let gb = self.nodes[a.0].value.matmul_tn(&gout);
                    self.add_grad(a, ga);
                    self.add_grad(b, gb);
                }
                &OpKind::Add { a, b } => {
                    self.add_grad(a, gout.clone());
                    self.add_grad(b, gout.clone());
                }
                &OpKind::Sub { a, b } => {
                    self.add_grad(a, gout.clone());
                    self.add_grad(b, gout.scale(-1.0));
                }
                &OpKind::Hadamard { a, b } => {
                    let ga = gout.hadamard(&self.nodes[b.0].value);
                    let gb = gout.hadamard(&self.nodes[a.0].value);
                    self.add_grad(a, ga);
                    self.add_grad(b, gb);
                }
                &OpKind::Scale { a, s } => {
                    self.add_grad(a, gout.scale(s));
                }
                &OpKind::AddBias { a, bias } => {
                    let gbias = kernels::col_sums(&gout);
                    self.add_grad(a, gout.clone());
                    self.add_grad(bias, gbias);
                }
                &OpKind::Gelu { a } => {
                    let g =
                        kernels::zip_map(&gout, &self.nodes[a.0].value, |g, x| g * gelu_grad(x));
                    self.add_grad(a, g);
                }
                OpKind::LayerNorm {
                    a,
                    gamma,
                    beta,
                    normed,
                    inv_std,
                } => {
                    let (a, gamma, beta) = (*a, *gamma, *beta);
                    let gvec = self.nodes[gamma.0].value.row(0).to_vec();
                    let (gx, ggamma, gbeta) =
                        kernels::layernorm_backward(&gout, normed, inv_std, &gvec);
                    self.add_grad(a, gx);
                    self.add_grad(gamma, ggamma);
                    self.add_grad(beta, gbeta);
                }
                OpKind::Attention {
                    q,
                    k,
                    v,
                    dk,
                    scale,
                    batch,
                    heads,
                    probs,
                } => {
                    let (q, k, v) = (*q, *k, *v);
                    let (gq, gk, gv) = attention_backward(
                        &self.nodes[q.0].value,
                        &self.nodes[k.0].value,
                        &self.nodes[v.0].value,
                        *dk,
                        *scale,
                        *batch,
                        heads,
                        probs,
                        &gout,
                    );
                    self.add_grad(q, gq);
                    self.add_grad(k, gk);
                    self.add_grad(v, gv);
                }
                &OpKind::TileRows { a, times } => {
                    let (rows, cols) = self.nodes[a.0].value.shape();
                    let mut g = Matrix::zeros(rows, cols);
                    let gv = gout.as_slice();
                    // Ascending tile order: one fixed reduction chain per
                    // element regardless of worker count.
                    for t in 0..times {
                        let base = t * rows * cols;
                        for (o, &x) in g
                            .as_mut_slice()
                            .iter_mut()
                            .zip(&gv[base..base + rows * cols])
                        {
                            *o += x;
                        }
                    }
                    self.add_grad(a, g);
                }
                OpKind::GatherRows { a, rows } => {
                    let a = *a;
                    let (arows, cols) = self.nodes[a.0].value.shape();
                    let mut g = Matrix::zeros(arows, cols);
                    for (i, &r) in rows.iter().enumerate() {
                        let grow = g.row_mut(r);
                        for (o, &x) in grow.iter_mut().zip(gout.row(i)) {
                            *o += x;
                        }
                    }
                    self.add_grad(a, g);
                }
                &OpKind::HeadMix { a, w, dk } => {
                    let (ga, gw) = kernels::head_mix_backward(
                        &self.nodes[a.0].value,
                        &self.nodes[w.0].value,
                        dk,
                        &gout,
                    );
                    self.add_grad(a, ga);
                    self.add_grad(w, gw);
                }
                &OpKind::MeanRows { a } => {
                    let rows = self.nodes[a.0].value.rows();
                    let g = kernels::broadcast_row(&gout, rows, 1.0 / rows as f32);
                    self.add_grad(a, g);
                }
                OpKind::CrossEntropy {
                    logits,
                    targets,
                    probs,
                } => {
                    let logits = *logits;
                    let gscale = gout.get(0, 0) / targets.len() as f32;
                    let mut g = probs.clone();
                    for (r, &t) in targets.iter().enumerate() {
                        g.set(r, t, g.get(r, t) - 1.0);
                    }
                    g.map_inplace(|v| v * gscale);
                    self.add_grad(logits, g);
                }
                OpKind::MseConst { a, target } => {
                    let a = *a;
                    let av = &self.nodes[a.0].value;
                    let gscale = gout.get(0, 0) * 2.0 / av.len() as f32;
                    let g = (av - target).scale(gscale);
                    self.add_grad(a, g);
                }
                &OpKind::WeightedSum { a, b, wa, wb } => {
                    self.add_grad(a, gout.scale(wa));
                    self.add_grad(b, gout.scale(wb));
                }
            }
            self.nodes[i].op = op;
            self.nodes[i].grad = Some(gout);
        }
    }

    /// Flushes accumulated leaf gradients back into `store`.
    ///
    /// Multiple imports of the same parameter within one tape all
    /// contribute, as do successive tapes between `store.zero_grads()`
    /// calls (gradient accumulation across a mini-batch).
    pub fn write_grads(&self, store: &mut ParamStore) {
        for n in &self.nodes {
            if let (OpKind::Leaf { param: Some(id) }, Some(g)) = (&n.op, &n.grad) {
                store.accumulate_grad(*id, g);
            }
        }
    }
}

/// Validates an attention call's shapes and expands an empty plan slice
/// to all-dense.
fn normalize_head_plans(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    dk: usize,
    batch: usize,
    heads: &[HeadExec],
) -> Vec<HeadExec> {
    assert!(dk > 0, "dk must be positive");
    assert!(batch > 0, "batch must be positive");
    assert_eq!(q.shape(), k.shape(), "q/k shapes differ");
    assert_eq!(q.shape(), v.shape(), "q/v shapes differ");
    assert_eq!(q.cols() % dk, 0, "cols must be a multiple of dk");
    assert_eq!(q.rows() % batch, 0, "rows must be a multiple of batch");
    let h = q.cols() / dk;
    let n = q.rows() / batch;
    if heads.is_empty() {
        return vec![HeadExec::Dense; h];
    }
    assert_eq!(heads.len(), h, "head plans must cover exactly all heads");
    for (i, plan) in heads.iter().enumerate() {
        match plan {
            HeadExec::Dense => {}
            HeadExec::Masked(bias) => assert_eq!(
                bias.shape(),
                (n, n),
                "head {i} mask must be tokens x tokens"
            ),
            HeadExec::Sparse(csc) => {
                assert_eq!(csc.size(), n, "head {i} CSC size must match tokens")
            }
        }
    }
    heads.to_vec()
}

/// Forward of the attention op: `(sample, head)` tasks fan out via the
/// kernel layer, then outputs are written into the stacked result in
/// fixed task order.
fn attention_forward(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    dk: usize,
    scale: f32,
    batch: usize,
    heads: &[HeadExec],
) -> (Matrix, Vec<HeadProbs>) {
    let h = heads.len();
    let n = q.rows() / batch;
    let tasks = batch * h;
    let per_task = kernels::par_map_collect(tasks, 2 * n * n * dk, |t| {
        let (s, head) = (t / h, t % h);
        let (r0, c0) = (s * n, head * dk);
        let qh = q.submatrix(r0, r0 + n, c0, c0 + dk);
        let kh = k.submatrix(r0, r0 + n, c0, c0 + dk);
        let vh = v.submatrix(r0, r0 + n, c0, c0 + dk);
        match &heads[head] {
            HeadExec::Dense => {
                let (out, probs) = kernels::attention_head(&qh, &kh, &vh, scale, None);
                (out, HeadProbs::Dense(probs))
            }
            HeadExec::Masked(bias) => {
                let (out, probs) =
                    kernels::attention_head(&qh, &kh, &vh, scale, Some(bias.as_ref()));
                (out, HeadProbs::Dense(probs))
            }
            HeadExec::Sparse(csc) => {
                // The shared-index entry point: every sample of every
                // step references the model's frozen index by Arc.
                let scores = sparse::sddmm_k_stationary_shared(&qh, &kh, csc, scale);
                let probs = scores.softmax_rows();
                let out = sparse::spmm_output_stationary(&probs, &vh);
                (out, HeadProbs::Sparse(probs))
            }
        }
    });
    let mut out = Matrix::zeros(batch * n, h * dk);
    let mut probs = Vec::with_capacity(tasks);
    for (t, (block, p)) in per_task.into_iter().enumerate() {
        let (s, head) = (t / h, t % h);
        write_block(&mut out, &block, s * n, head * dk);
        probs.push(p);
    }
    (out, probs)
}

/// Backward of the attention op; tasks fan out like the forward and the
/// per-block gradients are assembled in fixed task order.
#[allow(clippy::too_many_arguments)]
fn attention_backward(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    dk: usize,
    scale: f32,
    batch: usize,
    heads: &[HeadExec],
    probs: &[HeadProbs],
    gout: &Matrix,
) -> (Matrix, Matrix, Matrix) {
    let h = heads.len();
    let n = q.rows() / batch;
    assert_eq!(gout.shape(), q.shape(), "gout shape mismatch");
    let tasks = batch * h;
    let per_task = kernels::par_map_collect(tasks, 4 * n * n * dk, |t| {
        let (s, head) = (t / h, t % h);
        let (r0, c0) = (s * n, head * dk);
        let qh = q.submatrix(r0, r0 + n, c0, c0 + dk);
        let kh = k.submatrix(r0, r0 + n, c0, c0 + dk);
        let vh = v.submatrix(r0, r0 + n, c0, c0 + dk);
        let gh = gout.submatrix(r0, r0 + n, c0, c0 + dk);
        match &probs[t] {
            HeadProbs::Dense(p) => kernels::attention_head_backward(&qh, &kh, &vh, scale, p, &gh),
            HeadProbs::Sparse(p) => sparse::attention_head_backward(&qh, &kh, &vh, scale, p, &gh),
        }
    });
    let mut gq = Matrix::zeros(batch * n, h * dk);
    let mut gk = Matrix::zeros(batch * n, h * dk);
    let mut gv = Matrix::zeros(batch * n, h * dk);
    for (t, (bq, bk, bv)) in per_task.into_iter().enumerate() {
        let (s, head) = (t / h, t % h);
        write_block(&mut gq, &bq, s * n, head * dk);
        write_block(&mut gk, &bk, s * n, head * dk);
        write_block(&mut gv, &bv, s * n, head * dk);
    }
    (gq, gk, gv)
}

/// Copies `block` into `out` with its top-left corner at `(r0, c0)`.
fn write_block(out: &mut Matrix, block: &Matrix, r0: usize, c0: usize) {
    let cols = block.cols();
    for r in 0..block.rows() {
        out.row_mut(r0 + r)[c0..c0 + cols].copy_from_slice(block.row(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitcod_tensor::Initializer;

    /// Central finite-difference check of `d loss / d param` for the
    /// parameter `id`, where `build` constructs the loss from a fresh tape.
    fn gradcheck(
        store: &mut ParamStore,
        id: ParamId,
        build: &mut dyn FnMut(&mut Tape, &ParamStore) -> Var,
        tol: f32,
    ) {
        let mut tape = Tape::new();
        let loss = build(&mut tape, store);
        tape.backward(loss);
        store.zero_grads();
        tape.write_grads(store);
        let analytic = store.grad(id).clone();

        let (rows, cols) = store.value(id).shape();
        let h = 1e-2f32;
        for r in 0..rows {
            for c in 0..cols {
                let orig = store.value(id).get(r, c);
                store.value_mut(id).set(r, c, orig + h);
                let mut tp = Tape::new();
                let lp_var = build(&mut tp, store);
                let lp = tp.scalar(lp_var);
                store.value_mut(id).set(r, c, orig - h);
                let mut tm = Tape::new();
                let lm_var = build(&mut tm, store);
                let lm = tm.scalar(lm_var);
                store.value_mut(id).set(r, c, orig);
                let fd = (lp - lm) / (2.0 * h);
                let an = analytic.get(r, c);
                assert!(
                    (fd - an).abs() <= tol * (1.0 + fd.abs().max(an.abs())),
                    "grad mismatch at ({r},{c}): fd={fd} analytic={an}"
                );
            }
        }
    }

    #[test]
    fn gradcheck_matmul_chain() {
        let mut store = ParamStore::new();
        let w = store.register("w", Initializer::Normal { std: 0.5 }.sample(3, 2, 1));
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.3, -0.7]]);
        let target = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        gradcheck(
            &mut store,
            w,
            &mut |tape, store| {
                let xv = tape.constant(x.clone());
                let wv = tape.param(store, w);
                let y = tape.matmul(xv, wv);
                tape.mse_loss(y, &target)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_bias_and_gelu() {
        let mut store = ParamStore::new();
        let b = store.register("b", Initializer::Normal { std: 0.5 }.sample(1, 3, 2));
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[0.1, 0.2, 0.3]]);
        let target = Matrix::zeros(2, 3);
        gradcheck(
            &mut store,
            b,
            &mut |tape, store| {
                let xv = tape.constant(x.clone());
                let bv = tape.param(store, b);
                let y = tape.add_bias(xv, bv);
                let g = tape.gelu(y);
                tape.mse_loss(g, &target)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_layernorm_gamma_and_input() {
        let mut store = ParamStore::new();
        let g = store.register("g", Matrix::filled(1, 4, 1.2));
        let x = store.register("x", Initializer::Normal { std: 1.0 }.sample(2, 4, 3));
        let beta = Matrix::filled(1, 4, 0.1);
        let target = Matrix::zeros(2, 4);
        for id in [g, x] {
            gradcheck(
                &mut store,
                id,
                &mut |tape, store| {
                    let xv = tape.param(store, x);
                    let gv = tape.param(store, g);
                    let bv = tape.constant(beta.clone());
                    let y = tape.layernorm(xv, gv, bv);
                    tape.mse_loss(y, &target)
                },
                5e-2,
            );
        }
    }

    #[test]
    fn gradcheck_masked_attention_all_inputs() {
        let mut store = ParamStore::new();
        let q = store.register("q", Initializer::Normal { std: 0.7 }.sample(3, 4, 4));
        let k = store.register("k", Initializer::Normal { std: 0.7 }.sample(3, 4, 5));
        let v = store.register("v", Initializer::Normal { std: 0.7 }.sample(3, 4, 6));
        // Fixed sparse mask: prune position (0, 2) and (2, 0).
        let mut mask = Matrix::zeros(3, 3);
        mask.set(0, 2, f32::NEG_INFINITY);
        mask.set(2, 0, f32::NEG_INFINITY);
        // One head spanning all four columns.
        let plan = [HeadExec::Masked(Arc::new(mask))];
        let target = Matrix::zeros(3, 4);
        for id in [q, k, v] {
            gradcheck(
                &mut store,
                id,
                &mut |tape, store| {
                    let qv = tape.param(store, q);
                    let kv = tape.param(store, k);
                    let vv = tape.param(store, v);
                    let o = tape.attention(qv, kv, vv, 4, 0.5, 1, &plan);
                    tape.mse_loss(o, &target)
                },
                5e-2,
            );
        }
    }

    #[test]
    // Pruned positions must be exactly zero — a structural sentinel.
    #[allow(clippy::float_cmp)]
    fn masked_attention_pruned_positions_have_zero_prob() {
        let mut tape = Tape::new();
        let q = tape.constant(Initializer::Normal { std: 1.0 }.sample(4, 8, 7));
        let k = tape.constant(Initializer::Normal { std: 1.0 }.sample(4, 8, 8));
        let v = tape.constant(Initializer::Normal { std: 1.0 }.sample(4, 8, 9));
        let mut mask = Matrix::zeros(4, 4);
        mask.set(1, 3, f32::NEG_INFINITY);
        let attn = tape.attention(q, k, v, 8, 0.35, 1, &[HeadExec::Masked(Arc::new(mask))]);
        let p = tape
            .try_head_probs(attn, 0, 0)
            .expect("masked heads cache dense");
        assert_eq!(p.get(1, 3), 0.0);
        // Every row still sums to one.
        for r in 0..4 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn gradcheck_head_mix() {
        let dk = 3;
        let mut store = ParamStore::new();
        let w = store.register("w", Initializer::Normal { std: 0.6 }.sample(4, 2, 10));
        let x = Initializer::Normal { std: 1.0 }.sample(2, 4 * dk, 11);
        let target = Matrix::zeros(2, 2 * dk);
        gradcheck(
            &mut store,
            w,
            &mut |tape, store| {
                let xv = tape.constant(x.clone());
                let wv = tape.param(store, w);
                let y = tape.head_mix(xv, wv, dk);
                tape.mse_loss(y, &target)
            },
            2e-2,
        );
    }

    #[test]
    fn head_mix_identity_weight_is_noop() {
        let dk = 2;
        let mut tape = Tape::new();
        let x = Initializer::Normal { std: 1.0 }.sample(3, 3 * dk, 12);
        let xv = tape.constant(x.clone());
        let wv = tape.constant(Matrix::identity(3));
        let y = tape.head_mix(xv, wv, dk);
        assert!(tape.value(y).max_abs_diff(&x) < 1e-6);
    }

    #[test]
    fn gradcheck_cross_entropy() {
        let mut store = ParamStore::new();
        let w = store.register("w", Initializer::Normal { std: 0.8 }.sample(3, 4, 13));
        let x = Matrix::from_rows(&[&[1.0, -0.5, 0.25], &[0.0, 2.0, -1.0]]);
        let targets = vec![2usize, 0usize];
        gradcheck(
            &mut store,
            w,
            &mut |tape, store| {
                let xv = tape.constant(x.clone());
                let wv = tape.param(store, w);
                let logits = tape.matmul(xv, wv);
                tape.cross_entropy(logits, &targets)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_mean_rows() {
        let mut store = ParamStore::new();
        let w = store.register("w", Initializer::Normal { std: 0.5 }.sample(2, 6, 14));
        let x = Matrix::from_rows(&[&[1.0, -1.0], &[0.5, 0.25], &[2.0, 0.0]]);
        let target = Matrix::zeros(1, 6);
        gradcheck(
            &mut store,
            w,
            &mut |tape, store| {
                let xv = tape.constant(x.clone());
                let wv = tape.param(store, w);
                let y = tape.matmul(xv, wv);
                let pooled = tape.mean_rows(y);
                tape.mse_loss(pooled, &target)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_weighted_sum_combines_losses() {
        let mut store = ParamStore::new();
        let w = store.register("w", Initializer::Normal { std: 0.5 }.sample(2, 2, 15));
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let t1 = Matrix::from_rows(&[&[0.5, 0.5]]);
        let t2 = Matrix::from_rows(&[&[1.0, -1.0]]);
        gradcheck(
            &mut store,
            w,
            &mut |tape, store| {
                let xv = tape.constant(x.clone());
                let wv = tape.param(store, w);
                let y = tape.matmul(xv, wv);
                let l1 = tape.mse_loss(y, &t1);
                let l2 = tape.mse_loss(y, &t2);
                tape.weighted_sum(l1, l2, 1.0, 0.5)
            },
            2e-2,
        );
    }

    #[test]
    fn shared_param_grads_accumulate() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::filled(1, 1, 2.0));
        let mut tape = Tape::new();
        let w1 = tape.param(&store, w);
        let w2 = tape.param(&store, w);
        // loss = (w * w) via two imports: d/dw = 2w = 4.
        let prod = tape.hadamard(w1, w2);
        let loss = tape.mse_loss(prod, &Matrix::zeros(1, 1));
        tape.backward(loss);
        store.zero_grads();
        tape.write_grads(&mut store);
        // loss = w^2 squared error to 0 => (w^2)^2; d/dw = 4 w^3 = 32.
        assert!((store.grad(w).get(0, 0) - 32.0).abs() < 1e-3);
    }

    #[test]
    fn single_row_gather_backward() {
        let mut store = ParamStore::new();
        let w = store.register("w", Initializer::Normal { std: 0.9 }.sample(3, 3, 16));
        let x = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.3, 0.1, -0.2]]);
        let target = Matrix::zeros(1, 3);
        gradcheck(
            &mut store,
            w,
            &mut |tape, store| {
                let xv = tape.constant(x.clone());
                let wv = tape.param(store, w);
                let y = tape.matmul(xv, wv);
                let r0 = tape.gather_rows(y, &[0]);
                tape.mse_loss(r0, &target)
            },
            3e-2,
        );
    }

    #[test]
    // The op runs the reference kernels per task; equality is bitwise.
    #[allow(clippy::float_cmp)]
    fn attention_matches_reference_kernels_bitwise() {
        let (n, dk, heads, scale) = (5, 3, 2, 0.5);
        let mut mask = Matrix::zeros(n, n);
        mask.set(0, 4, f32::NEG_INFINITY);
        let masks = vec![Some(mask.clone()), None];
        let plans = vec![HeadExec::Masked(Arc::new(mask)), HeadExec::Dense];
        for batch in [1, 3] {
            let rows = batch * n;
            let q = Initializer::Normal { std: 0.8 }.sample(rows, heads * dk, 20);
            let k = Initializer::Normal { std: 0.8 }.sample(rows, heads * dk, 21);
            let v = Initializer::Normal { std: 0.8 }.sample(rows, heads * dk, 22);
            let mut tape = Tape::new();
            let (qv, kv, vv) = (
                tape.constant(q.clone()),
                tape.constant(k.clone()),
                tape.constant(v.clone()),
            );
            let attn = tape.attention(qv, kv, vv, dk, scale, batch, &plans);
            let loss = tape.mse_loss(attn, &Matrix::zeros(rows, heads * dk));
            tape.backward(loss);
            let gout = tape.grad(attn).expect("attention is on the loss path");
            let (gq, gk, gv) = (
                tape.grad(qv).unwrap(),
                tape.grad(kv).unwrap(),
                tape.grad(vv).unwrap(),
            );

            for s in 0..batch {
                // Values and probabilities: the forward-only fused kernel
                // on the sample's own rows.
                let sample = |m: &Matrix| m.submatrix(s * n, (s + 1) * n, 0, heads * dk);
                let want = kernels::multi_head_attention(
                    &sample(&q),
                    &sample(&k),
                    &sample(&v),
                    dk,
                    scale,
                    &masks,
                );
                assert_eq!(sample(tape.value(attn)), want.out, "sample {s} block");
                for h in 0..heads {
                    let probs = tape.try_head_probs(attn, s, h).expect("dense cache");
                    assert_eq!(*probs, want.probs[h], "sample {s} head {h} probs");
                    assert_eq!(tape.head_probs_dense(attn, s, h), want.probs[h]);
                    // Gradients: the per-head backward kernel on the
                    // task's own block of the upstream gradient.
                    let block = |m: &Matrix| m.submatrix(s * n, (s + 1) * n, h * dk, (h + 1) * dk);
                    let (wq, wk, wv) = kernels::attention_head_backward(
                        &block(&q),
                        &block(&k),
                        &block(&v),
                        scale,
                        &want.probs[h],
                        &block(gout),
                    );
                    assert_eq!(block(gq), wq, "sample {s} head {h} gq");
                    assert_eq!(block(gk), wk, "sample {s} head {h} gk");
                    assert_eq!(block(gv), wv, "sample {s} head {h} gv");
                }
                assert_eq!(want.probs[0].get(0, 4), 0.0, "pruned position");
            }
        }
    }

    #[test]
    fn gradcheck_sparse_attention_tiny_head() {
        // Finite-difference spot check of the sparse dataflow through the
        // tape on a tiny head (satellite of the sparse-backward work).
        let n = 4;
        let dk = 3;
        let csc = Arc::new(CscMatrix::from_indicator(n, |q, k| q == k || k == 0));
        let mut store = ParamStore::new();
        let q = store.register("q", Initializer::Normal { std: 0.7 }.sample(n, dk, 40));
        let k = store.register("k", Initializer::Normal { std: 0.7 }.sample(n, dk, 41));
        let v = store.register("v", Initializer::Normal { std: 0.7 }.sample(n, dk, 42));
        let target = Matrix::zeros(n, dk);
        for id in [q, k, v] {
            gradcheck(
                &mut store,
                id,
                &mut |tape, store| {
                    let qv = tape.param(store, q);
                    let kv = tape.param(store, k);
                    let vv = tape.param(store, v);
                    let plans = vec![HeadExec::Sparse(csc.clone())];
                    let o = tape.attention(qv, kv, vv, dk, 0.5, 1, &plans);
                    tape.mse_loss(o, &target)
                },
                5e-2,
            );
        }
    }

    #[test]
    fn sparse_head_grads_match_masked_head_grads() {
        let (n, dk) = (8, 4);
        let keep = |q: usize, k: usize| q == k || k == 0 || (q + k).is_multiple_of(3);
        let csc = Arc::new(CscMatrix::from_indicator(n, keep));
        let mut bias = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                if !keep(r, c) {
                    bias.set(r, c, f32::NEG_INFINITY);
                }
            }
        }
        let mut store = ParamStore::new();
        let q = store.register("q", Initializer::Normal { std: 0.8 }.sample(n, dk, 43));
        let k = store.register("k", Initializer::Normal { std: 0.8 }.sample(n, dk, 44));
        let v = store.register("v", Initializer::Normal { std: 0.8 }.sample(n, dk, 45));
        let target = Matrix::zeros(n, dk);
        let run = |plans: Vec<HeadExec>| {
            let mut tape = Tape::new();
            let (qv, kv, vv) = (
                tape.param(&store, q),
                tape.param(&store, k),
                tape.param(&store, v),
            );
            let o = tape.attention(qv, kv, vv, dk, 0.5, 1, &plans);
            let loss = tape.mse_loss(o, &target);
            tape.backward(loss);
            (
                tape.grad(qv).unwrap().clone(),
                tape.grad(kv).unwrap().clone(),
                tape.grad(vv).unwrap().clone(),
            )
        };
        let (sq, sk, sv) = run(vec![HeadExec::Sparse(csc)]);
        let (mq, mk, mv) = run(vec![HeadExec::Masked(Arc::new(bias))]);
        assert!(
            sq.max_abs_diff(&mq) < 1e-4,
            "gq off by {}",
            sq.max_abs_diff(&mq)
        );
        assert!(
            sk.max_abs_diff(&mk) < 1e-4,
            "gk off by {}",
            sk.max_abs_diff(&mk)
        );
        assert!(
            sv.max_abs_diff(&mv) < 1e-4,
            "gv off by {}",
            sv.max_abs_diff(&mv)
        );
    }

    #[test]
    fn gradcheck_tile_and_gather_rows() {
        let mut store = ParamStore::new();
        let w = store.register("w", Initializer::Normal { std: 0.5 }.sample(3, 4, 46));
        let target = Matrix::zeros(3, 4);
        gradcheck(
            &mut store,
            w,
            &mut |tape, store| {
                let wv = tape.param(store, w);
                let tiled = tape.tile_rows(wv, 2);
                // Gather rows 0 and 3 (first row of each tile) plus a
                // duplicate of row 0, so the backward's scatter-add must
                // accumulate, not overwrite.
                let picked = tape.gather_rows(tiled, &[0, 3, 0]);
                tape.mse_loss(picked, &target)
            },
            2e-2,
        );
    }

    #[test]
    fn tile_rows_values_and_shapes() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let t = tape.tile_rows(a, 3);
        assert_eq!(tape.value(t).shape(), (6, 2));
        assert_eq!(tape.value(t).row(4), &[1.0, 2.0]);
        let g = tape.gather_rows(t, &[0, 2, 4]);
        assert_eq!(tape.value(g).shape(), (3, 2));
        assert_eq!(tape.value(g).row(2), &[1.0, 2.0]);
    }

    #[test]
    fn backward_requires_scalar_root() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(2, 2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tape.backward(x);
        }));
        assert!(result.is_err());
    }
}
