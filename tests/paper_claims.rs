//! Integration tests holding the reproduction to the paper's
//! evaluation: the qualitative claims (shapes, orderings, crossovers)
//! and, for the Fig. 15(a) headline, the paper's numbers within the
//! bands `vitcod::baselines::protocol` files its rows under.
//!
//! One [`Protocol`] per attention-map seed is shared by every test, so
//! each (model, sparsity) goes through Alg. 1 once.

// These tests assert bit-identical replay of simulated/serialized
// floats; exact comparison is the point.
#![allow(clippy::float_cmp)]

use std::sync::OnceLock;

use vitcod::baselines::protocol::{Protocol, WORKLOAD_SEED};
use vitcod::core::{AcceleratorProgram, PruneCriterion, SplitConquerConfig};
use vitcod::model::ViTConfig;
use vitcod::sim::{AcceleratorConfig, Roofline};

const SEEDS: [u64; 3] = [WORKLOAD_SEED, 7, 11];

fn protocol(seed: u64) -> &'static Protocol {
    static SHARED: [OnceLock<Protocol>; 3] = [const { OnceLock::new() }; 3];
    let i = SEEDS
        .iter()
        .position(|s| *s == seed)
        .expect("a listed seed");
    SHARED[i].get_or_init(|| Protocol::new(seed))
}

/// Every headline row of Fig. 15(a) — five speedups at 90 % sparsity,
/// SpAtten and Sanger again at 80 % — is inside the band the protocol
/// holds it to at `seed`.
fn assert_headline_in_band(seed: u64) {
    let rows = protocol(seed).headline("fig15a");
    let banded: Vec<_> = rows.iter().filter(|r| r.band.is_some()).collect();
    assert_eq!(banded.len(), 7, "5 headline speedups @90% + 2 @80%");
    for r in banded {
        assert_eq!(r.in_band(), Some(true), "seed {seed}: {r:?}");
    }
}

#[test]
fn headline_speedups_in_band_at_workload_seed() {
    // ± 15 % of 235.3 / 142.9 / 86.0 / 10.1 / 6.8× and 4.8 / 3.2×.
    assert_headline_in_band(WORKLOAD_SEED);
}

#[test]
fn headline_speedups_in_band_at_seed_7() {
    assert_headline_in_band(7);
}

#[test]
fn headline_speedups_in_band_at_seed_11() {
    assert_headline_in_band(11);
}

#[test]
fn speedup_grows_with_sparsity() {
    // Fig. 15 / Fig. 17: more sparsity, more speedup, monotonically.
    let p = protocol(WORKLOAD_SEED);
    let m = ViTConfig::deit_small();
    let mut prev = f64::INFINITY;
    for s in [0.5, 0.6, 0.7, 0.8, 0.9, 0.95] {
        let lat = p.vitcod_attention(&m, s, true, 1).latency_s;
        assert!(lat < prev, "latency must fall with sparsity (s={s}: {lat})");
        prev = lat;
    }
}

#[test]
fn general_platforms_rank_cpu_edge_gpu() {
    // Fig. 15(a): CPU slowest, then EdgeGPU, then GPU, for every model.
    for m in ViTConfig::all_paper_models() {
        let [cpu, edge, gpu, ..] = protocol(WORKLOAD_SEED)
            .baselines(&m, m.paper_sparsity, false)
            .map(|r| r.latency_s);
        assert!(
            cpu > edge && edge > gpu,
            "{}: {cpu} / {edge} / {gpu}",
            m.name
        );
    }
}

#[test]
fn spatten_saturates_beyond_token_granularity() {
    // Table I: SpAtten's coarse-grained pruning caps its exploitable
    // sparsity; beyond the cap extra sparsity gains nothing.
    let p = protocol(WORKLOAD_SEED);
    let m = ViTConfig::deit_base();
    let spatten = |s| p.baselines(&m, s, false)[3].latency_s;
    assert_eq!(
        spatten(0.9),
        spatten(0.95),
        "SpAtten should saturate past its granularity limit"
    );
    // ViTCoD keeps improving.
    assert!(
        p.vitcod_attention(&m, 0.95, true, 1).latency_s
            < p.vitcod_attention(&m, 0.9, true, 1).latency_s
    );
}

#[test]
fn sanger_pays_prediction_on_every_input() {
    // Table I / Fig. 19: dynamic methods carry per-input preprocessing;
    // ViTCoD's fixed masks make preprocessing negligible.
    let p = protocol(WORKLOAD_SEED);
    let m = ViTConfig::deit_base();
    let [.., sanger] = p.baselines(&m, 0.9, false);
    let vitcod = p.vitcod_attention(&m, 0.9, true, 1);
    let sanger_pre = sanger.breakdown.preprocess_cycles as f64 / sanger.breakdown.total() as f64;
    let vitcod_pre = vitcod.breakdown.preprocess_cycles as f64 / vitcod.breakdown.total() as f64;
    assert!(sanger_pre > 0.25, "Sanger preprocess share {sanger_pre:.2}");
    assert!(vitcod_pre < 0.10, "ViTCoD preprocess share {vitcod_pre:.2}");
}

#[test]
fn auto_encoder_trades_movement_for_compute() {
    // Sec. IV-C / Fig. 19: the AE cuts DRAM traffic and the
    // data-movement latency share, at a small codec compute cost.
    let p = protocol(WORKLOAD_SEED);
    let m = ViTConfig::deit_base();
    let without = p.vitcod_attention(&m, 0.9, false, 1);
    let with = p.vitcod_attention(&m, 0.9, true, 1);
    assert!(with.traffic.dram_total() < without.traffic.dram_total());
    assert!(with.latency_s <= without.latency_s);
    assert!(
        with.breakdown.data_movement_fraction() < without.breakdown.data_movement_fraction(),
        "dm share {:.2} -> {:.2}",
        without.breakdown.data_movement_fraction(),
        with.breakdown.data_movement_fraction()
    );
    assert!(with.phases.codec > 0, "codec compute must be accounted");
}

#[test]
fn roofline_sparse_is_bandwidth_bound_dense_is_not() {
    // Fig. 3: polarized-sparse (no AE) sits in the bandwidth-bound
    // region; the AE moves the workload toward the compute roof.
    let roof = Roofline::from_config(&AcceleratorConfig::vitcod_paper());
    let p = protocol(WORKLOAD_SEED);
    let m = ViTConfig::deit_base();
    let sparse = p.vitcod_attention(&m, 0.9, false, 1);
    let with_ae = p.vitcod_attention(&m, 0.9, true, 1);
    assert!(
        with_ae.arithmetic_intensity() > sparse.arithmetic_intensity(),
        "AE must raise arithmetic intensity"
    );
    // The polarized-sparse workload hugs the bandwidth roof (at or below
    // ~1.5x the ridge), while the AE variant clears it decisively.
    assert!(
        sparse.arithmetic_intensity() < 1.5 * roof.ridge_intensity(),
        "sparse intensity {:.2} vs ridge {:.2}",
        sparse.arithmetic_intensity(),
        roof.ridge_intensity()
    );
    assert!(with_ae.arithmetic_intensity() > roof.ridge_intensity());
}

#[test]
fn reordering_reduces_load_imbalance() {
    // Sec. VI-C: reordering polarizes workloads; without it the global
    // columns sit in the sparser engine and skew the per-line loads.
    let p = protocol(WORKLOAD_SEED);
    let m = ViTConfig::deit_base();
    let p_both = p.program(&m, 0.9, false);
    let p_prune = p.program_with(
        &m,
        SplitConquerConfig {
            criterion: PruneCriterion::TargetSparsity(0.9),
            theta_d: Some(usize::MAX),
        },
    );
    let imb = |p: &AcceleratorProgram| {
        let heads = p.layers.iter().flat_map(|l| &l.heads);
        heads.clone().map(|h| h.sparser_imbalance()).sum::<f64>() / heads.count() as f64
    };
    assert!(
        imb(&p_both) < imb(&p_prune),
        "reordered imbalance {:.2} should be below prune-only {:.2}",
        imb(&p_both),
        imb(&p_prune)
    );
}

#[test]
fn fixed_masks_have_zero_marginal_prediction_cost() {
    // The same compiled program can serve any number of inputs: latency
    // is input-independent (static masks), unlike dynamic baselines.
    let p = protocol(WORKLOAD_SEED);
    let m = ViTConfig::deit_tiny();
    let a = p.vitcod_attention(&m, 0.9, true, 1);
    let b = p.vitcod_attention(&m, 0.9, true, 1);
    assert_eq!(a.total_cycles, b.total_cycles);
}
