//! Property-based gradient checks: random shapes, random data, every
//! differentiable operator agrees with central finite differences.

use proptest::prelude::*;
use vitcod_autograd::{ParamStore, Tape, Var};
use vitcod_tensor::Matrix;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Finite-difference check for the single parameter `w` under `build`.
fn check(
    w0: Matrix,
    build: impl Fn(&mut Tape, &ParamStore, vitcod_autograd::ParamId) -> Var,
    tol: f32,
) -> Result<(), TestCaseError> {
    let mut store = ParamStore::new();
    let w = store.register("w", w0);
    let mut tape = Tape::new();
    let loss = build(&mut tape, &store, w);
    tape.backward(loss);
    store.zero_grads();
    tape.write_grads(&mut store);
    let analytic = store.grad(w).clone();
    let (rows, cols) = store.value(w).shape();
    let h = 1e-2f32;
    for r in 0..rows {
        for c in 0..cols {
            let orig = store.value(w).get(r, c);
            store.value_mut(w).set(r, c, orig + h);
            let mut tp = Tape::new();
            let lv = build(&mut tp, &store, w);
            let lp = tp.scalar(lv);
            store.value_mut(w).set(r, c, orig - h);
            let mut tm = Tape::new();
            let lv2 = build(&mut tm, &store, w);
            let lm = tm.scalar(lv2);
            store.value_mut(w).set(r, c, orig);
            let fd = (lp - lm) / (2.0 * h);
            let an = analytic.get(r, c);
            prop_assert!(
                (fd - an).abs() <= tol * (1.0 + fd.abs().max(an.abs())),
                "({r},{c}): fd {fd} vs analytic {an}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_grads(w in matrix(3, 2), x in matrix(2, 3)) {
        check(w, |tape, store, w| {
            let xv = tape.constant(x.clone());
            let wv = tape.param(store, w);
            let y = tape.matmul(xv, wv);
            tape.mse_loss(y, &Matrix::zeros(2, 2))
        }, 5e-2)?;
    }

    #[test]
    fn gelu_chain_grads(w in matrix(2, 4)) {
        check(w, |tape, store, w| {
            let wv = tape.param(store, w);
            let g = tape.gelu(wv);
            let s = tape.scale(g, 0.7);
            tape.mse_loss(s, &Matrix::filled(2, 4, 0.3))
        }, 5e-2)?;
    }

    #[test]
    fn attention_q_grads(q in matrix(4, 4), k in matrix(4, 4), v in matrix(4, 4)) {
        check(q, |tape, store, w| {
            let qv = tape.param(store, w);
            let kv = tape.constant(k.clone());
            let vv = tape.constant(v.clone());
            // One dense head spanning all four columns, batch of one.
            let o = tape.attention(qv, kv, vv, 4, 0.5, 1, &[]);
            tape.mse_loss(o, &Matrix::zeros(4, 4))
        }, 8e-2)?;
    }

    #[test]
    fn head_mix_grads(w in matrix(3, 2), x in matrix(2, 9)) {
        check(w, |tape, store, w| {
            let xv = tape.constant(x.clone());
            let wv = tape.param(store, w);
            let y = tape.head_mix(xv, wv, 3);
            tape.mse_loss(y, &Matrix::zeros(2, 6))
        }, 5e-2)?;
    }

    #[test]
    fn layernorm_input_grads(x in matrix(3, 5)) {
        // Keep inputs away from degenerate constant rows where the
        // 1/sigma term explodes.
        let spread = x.map(|v| v * 2.0);
        check(spread, |tape, store, w| {
            let xv = tape.param(store, w);
            let g = tape.constant(Matrix::filled(1, 5, 1.1));
            let b = tape.constant(Matrix::filled(1, 5, -0.2));
            let y = tape.layernorm(xv, g, b);
            tape.mse_loss(y, &Matrix::zeros(3, 5))
        }, 2e-1)?;
    }

    #[test]
    fn mse_between_grads_flow_to_both(a in matrix(2, 3)) {
        check(a, |tape, store, w| {
            let av = tape.param(store, w);
            let shifted = tape.scale(av, 0.5);
            tape.mse_between(av, shifted)
        }, 5e-2)?;
    }

    #[test]
    fn cross_entropy_grads(w in matrix(3, 4)) {
        check(w, |tape, store, w| {
            let x = tape.constant(Matrix::from_rows(&[&[0.4, -1.2, 0.8]]));
            let wv = tape.param(store, w);
            let logits = tape.matmul(x, wv);
            tape.cross_entropy(logits, &[2])
        }, 5e-2)?;
    }
}
