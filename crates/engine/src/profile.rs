//! Per-op timing of a profiled forward pass.
//!
//! [`crate::Engine::infer_batch_profiled`] times every named compute op
//! of every transformer layer on a monotonic clock and returns one
//! [`OpProfile`] per sample. The op set is fixed ([`OP_NAMES`]) so the
//! serving layer can aggregate across layers with bounded metric
//! cardinality — per-layer detail only rides in sampled span trees.
//!
//! Timing is a hook around each op of the engine's one forward body
//! (an [`OpClock`]), not a second forward: the profiled and the served
//! pass run the same kernel sequence, so their logits are bitwise equal.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Names of the per-layer compute ops a profiled forward times, in
/// execution order. These are the `op` label values of
/// `vitcod_engine_op_seconds{model,op}` and the child span names under a
/// sampled request's `compute` span.
pub const OP_NAMES: [&str; 7] = ["qkv", "scores", "softmax", "spmm", "out_proj", "fc1", "fc2"];

/// Number of distinct per-layer ops ([`OP_NAMES`]).
pub const OP_COUNT: usize = OP_NAMES.len();

// [`OP_NAMES`] indexes, named for the forward body's `time` calls.
pub(crate) const OP_QKV: usize = 0;
pub(crate) const OP_SCORES: usize = 1;
pub(crate) const OP_SOFTMAX: usize = 2;
pub(crate) const OP_SPMM: usize = 3;
pub(crate) const OP_OUT_PROJ: usize = 4;
pub(crate) const OP_FC1: usize = 5;
pub(crate) const OP_FC2: usize = 6;

/// The timing hook the engine's forward body wraps around every named
/// op. `time` takes `&self` so the one per-head closure can be handed to
/// the kernel layer's fan-out, which needs it `Sync`.
pub(crate) trait OpClock: Sync {
    /// Whether attention heads may fan out across threads. Concurrent
    /// heads would charge overlapping wall-clock intervals and break
    /// `attributed_s ≤ total_s`, so a timing clock walks them in order.
    const FAN_OUT_HEADS: bool;

    /// Runs `f`, charging its time to `OP_NAMES[op]` of the open layer.
    fn time<T>(&self, op: usize, f: impl FnOnce() -> T) -> T;

    /// Closes the open layer's record.
    fn end_layer(&mut self);
}

/// The serving path's clock: `time(op, f)` is just `f()`.
pub(crate) struct Untimed;

impl OpClock for Untimed {
    const FAN_OUT_HEADS: bool = true;

    fn time<T>(&self, _op: usize, f: impl FnOnce() -> T) -> T {
        f()
    }

    fn end_layer(&mut self) {}
}

/// The profiling clock: charges `Instant` deltas into one [`LayerOps`]
/// per layer of `profile`. The open layer's nanoseconds sit in atomics
/// only so `time` works through `&self`; nothing contends for them.
#[derive(Default)]
pub(crate) struct WallClock {
    open: [AtomicU64; OP_COUNT],
    pub(crate) profile: OpProfile,
}

impl OpClock for WallClock {
    const FAN_OUT_HEADS: bool = false;

    fn time<T>(&self, op: usize, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let nanos = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.open[op].fetch_add(nanos, Ordering::Relaxed);
        out
    }

    fn end_layer(&mut self) {
        let seconds = std::array::from_fn(|i| std::mem::take(self.open[i].get_mut()) as f64 * 1e-9);
        self.profile.layers.push(LayerOps { seconds });
    }
}

/// Wall-clock seconds each named op consumed within one transformer
/// layer, indexed like [`OP_NAMES`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerOps {
    /// Seconds per op, `seconds[i]` belonging to `OP_NAMES[i]`.
    pub seconds: [f64; OP_COUNT],
}

impl LayerOps {
    /// Seconds this layer spent across all named ops.
    pub fn total_s(&self) -> f64 {
        self.seconds.iter().sum()
    }
}

/// The per-op timing record of one profiled forward pass.
///
/// All entries share one monotonic clock. LayerNorms, residual adds, the
/// embedding stem and the classifier head are deliberately
/// unattributed, so the named ops always sum to **at most**
/// [`OpProfile::total_s`] — the invariant the span-partition tests
/// enforce.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpProfile {
    /// One entry per transformer layer, in depth order.
    pub layers: Vec<LayerOps>,
    /// Wall-clock seconds of the whole forward, stem and classifier
    /// included.
    pub total_s: f64,
}

impl OpProfile {
    /// Sums each op over all layers: `(op name, seconds)` pairs in
    /// [`OP_NAMES`] order — the bounded-cardinality aggregate behind
    /// `vitcod_engine_op_seconds{model,op}`.
    pub fn op_totals(&self) -> [(&'static str, f64); OP_COUNT] {
        let mut out = [("", 0.0f64); OP_COUNT];
        for (i, name) in OP_NAMES.iter().enumerate() {
            out[i] = (name, self.layers.iter().map(|l| l.seconds[i]).sum::<f64>());
        }
        out
    }

    /// Seconds attributed to named ops, summed over layers and ops. The
    /// remainder up to [`OpProfile::total_s`] is unattributed glue
    /// (LayerNorms, residuals, stem, classifier).
    pub fn attributed_s(&self) -> f64 {
        self.layers.iter().map(LayerOps::total_s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_totals_sum_over_layers_in_name_order() {
        let mut a = LayerOps::default();
        let mut b = LayerOps::default();
        for i in 0..OP_COUNT {
            a.seconds[i] = (i + 1) as f64;
            b.seconds[i] = 10.0 * (i + 1) as f64;
        }
        let p = OpProfile {
            layers: vec![a, b],
            total_s: 500.0,
        };
        let totals = p.op_totals();
        for (i, (name, s)) in totals.iter().enumerate() {
            assert_eq!(*name, OP_NAMES[i]);
            assert!((s - 11.0 * (i + 1) as f64).abs() < 1e-12);
        }
        let attributed: f64 = totals.iter().map(|(_, s)| s).sum();
        assert!((p.attributed_s() - attributed).abs() < 1e-12);
        assert!(p.attributed_s() <= p.total_s);
    }
}
