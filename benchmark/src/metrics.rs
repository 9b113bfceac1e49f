//! Every name the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root is
//! `benchmark describe` applied to these tables, and a unit test keeps
//! the two equal.

/// One set of inputs the benchmark runs.
pub struct WorkloadDecl {
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDecl; 7] = [
    WorkloadDecl {
        name: "offline_dense_fp32",
        why: "closed loop, 1 caller, Engine::infer_batch on full DeiT-Tiny, dense fp32: fp32 GEMM and engine glue do the work, sparse and int8 kernels none; the bypass workload for sparse/int8 changes",
    },
    WorkloadDecl {
        name: "offline_sparse_int8",
        why: "same loop on the 90%-sparse int8 artifact, the paper's co-designed model: SDDMM/SpMM and int8 GEMM carry it, fp32 GEMM is nearly idle; the bypass workload for fp32-kernel changes",
    },
    WorkloadDecl {
        name: "serve_steady",
        why: "open loop, Poisson 16 req/s (rho about 0.35) into an in-process Server, latency from the scheduled arrival: what an operator sees below saturation, engine time plus queue/batcher/worker hand-off",
    },
    WorkloadDecl {
        name: "serve_saturated",
        why: "same server, closed loop holding 16 requests outstanding: the queue is never empty and batches fill, so latency is backlog over capacity; uses the serve layer differently from serve_steady",
    },
    WorkloadDecl {
        name: "wire_probe",
        why: "closed loop, 2 keep-alive HTTP connections posting 186 KB JSON bodies to a 1 ms model on loopback: HTTP parse, JSON decode and encode are most of each round trip; only here can transport show",
    },
    WorkloadDecl {
        name: "sim_sweep",
        why: "split-and-conquer, compile, accelerator simulation and baselines for the seven paper models: host time of core+sim+baselines and the simulated figures; engine, serve and transport do nothing",
    },
    WorkloadDecl {
        name: "train_sparse_step",
        why: "sparse finetune steps (batched tape, masks frozen to CSC, Adam) at DeiT-Tiny width: transposed and backward kernels beside the forward ones, so a forward-only tuning that costs training shows",
    },
];

/// A metric a user of the system sees; every workload reports every one.
pub struct EndToEndDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEndDecl; 3] = [
    EndToEndDecl {
        name: "lat_quiet_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "10th percentile of the time of one operation: an answered request (open loop: from its scheduled arrival), an infer_batch call, a training step, a sweep. The box this runs on slows every process by 40-50 % for seconds at a time, so medians of identical runs differ by up to 40 %; the 10th percentile is the time an operation takes when the box is quiet, and repeats",
    },
    EndToEndDecl {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.20,
        what: "VmHWM of the process when the run ends (wire_probe's 10 MB scatters by 8 % between identical runs, hence the bound)",
    },
    EndToEndDecl {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "10th percentile (the fastest) of five complete set-ups, three before the measuring window and two after it: seeded weights, compile, artifact save and load, engine or server start, one warm-up operation",
    },
];

/// A metric of a single layer (the prefix before the dot is the crate).
/// Measured only in the traced run; 0 on a workload where the layer
/// does nothing.
pub struct PerLayerDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayerDecl {
    PerLayerDecl {
        name,
        unit,
        better,
        moves,
    }
}

const DENSE: &str = "lat_quiet_s on offline_dense_fp32 (and serve_*); none on offline_sparse_int8";
const SPARSE: &str = "lat_quiet_s on offline_sparse_int8; none on offline_dense_fp32";
const TRAIN: &str = "lat_quiet_s on train_sparse_step";
const ENGINE: &str = "lat_quiet_s on offline_* and serve_*";
const SETUP: &str = "setup_s on offline_*";
const SERVE: &str = "lat_quiet_s on serve_steady and serve_saturated; none on offline_*";
const WIRE: &str = "lat_quiet_s on wire_probe; none elsewhere";
const OBS: &str = "none: a guard that scraping stays cheap and well-formed";
const SWEEP: &str = "lat_quiet_s on sim_sweep";
const SIMULATED: &str = "simulated, exact: must not change under a host-speed change";
const HARNESS: &str = "the harness's own health";

pub const PER_LAYER: [PerLayerDecl; 111] = [
    pl("tensor.gemm_qkv_s", "s", "lower", DENSE),
    pl("tensor.gemm_fc1_s", "s", "lower", DENSE),
    pl("tensor.gemm_fc2_s", "s", "lower", DENSE),
    pl("tensor.gemm_gflops", "GFLOP/s", "higher", DENSE),
    pl("tensor.attn_dense_s", "s", "lower", DENSE),
    pl("tensor.softmax_s", "s", "lower", DENSE),
    pl("tensor.layernorm_s", "s", "lower", DENSE),
    pl("tensor.int8_gemm_qkv_s", "s", "lower", SPARSE),
    pl("tensor.int8_gemm_fc1_s", "s", "lower", SPARSE),
    pl("tensor.int8_gemm_fc2_s", "s", "lower", SPARSE),
    pl("tensor.int8_gemm_gops", "Gop/s", "higher", SPARSE),
    pl("tensor.quantize_rows_s", "s", "lower", SPARSE),
    pl("tensor.sddmm_s", "s", "lower", SPARSE),
    pl("tensor.spmm_s", "s", "lower", SPARSE),
    pl("tensor.sparse_attn_s", "s", "lower", SPARSE),
    pl("tensor.sparse_attn_int8_s", "s", "lower", SPARSE),
    pl("tensor.mask_nnz", "count", "lower", SPARSE),
    pl("tensor.gemm_nt_s", "s", "lower", TRAIN),
    pl("tensor.gemm_tn_s", "s", "lower", TRAIN),
    pl("tensor.sparse_attn_bwd_s", "s", "lower", TRAIN),
    pl("tensor.flops_per_sample", "count", "lower", "computed from the model shape, not timed"),
    pl("tensor.bytes_per_sample", "B", "lower", "computed from tensor sizes, not timed"),
    pl("engine.op_qkv_s", "s", "lower", ENGINE),
    pl("engine.op_scores_s", "s", "lower", ENGINE),
    pl("engine.op_softmax_s", "s", "lower", ENGINE),
    pl("engine.op_spmm_s", "s", "lower", ENGINE),
    pl("engine.op_out_proj_s", "s", "lower", ENGINE),
    pl("engine.op_fc1_s", "s", "lower", ENGINE),
    pl("engine.op_fc2_s", "s", "lower", ENGINE),
    pl("engine.op_other_s", "s", "lower", ENGINE),
    pl("engine.sample_s", "s", "lower", ENGINE),
    pl("engine.achieved_gops", "Gop/s", "higher", ENGINE),
    pl("engine.attention_share", "ratio", "lower", "the Amdahl term: caps what tensor.sparse_attn_s can move on offline_sparse_int8"),
    pl("engine.profile_overhead_frac", "ratio", "lower", "profiled vs served per-sample time: how far the observed path is from the served one"),
    pl("engine.build_s", "s", "lower", SETUP),
    pl("engine.artifact_save_s", "s", "lower", SETUP),
    pl("engine.artifact_load_s", "s", "lower", SETUP),
    pl("engine.artifact_bytes", "B", "lower", SETUP),
    pl("engine.int8_weight_bytes", "B", "lower", "peak_rss_mb on offline_sparse_int8"),
    pl("serve.submit_s", "s", "lower", SERVE),
    pl("serve.queue_wait_p50_s", "s", "lower", SERVE),
    pl("serve.queue_wait_p95_s", "s", "lower", SERVE),
    pl("serve.batch_assembly_p50_s", "s", "lower", SERVE),
    pl("serve.batch_assembly_p95_s", "s", "lower", SERVE),
    pl("serve.compute_p50_s", "s", "lower", SERVE),
    pl("serve.compute_p95_s", "s", "lower", SERVE),
    pl("serve.self_s", "s", "lower", "latency minus compute per request: what the shell adds; lat_quiet_s on serve_steady"),
    pl("serve.mean_batch_fill", "count", "higher", "lat_quiet_s on serve_saturated; must not raise lat_quiet_s on serve_steady"),
    pl("serve.batches", "count", "lower", SERVE),
    pl("serve.requests", "count", "higher", SERVE),
    pl("serve.timed_out", "count", "lower", SERVE),
    pl("serve.late_completions", "count", "lower", "answers later than the 500 ms objective"),
    pl("serve.queue_depth_max", "count", "lower", SERVE),
    pl("serve.stats_snapshot_s", "s", "lower", "none: a guard that Server::stats stays cheap"),
    pl("serve.direct_samples_per_s", "1/s", "higher", "the engine capacity the shell is compared against on serve_saturated"),
    pl("transport.client_encode_s", "s", "lower", WIRE),
    pl("transport.http_parse_s", "s", "lower", WIRE),
    pl("transport.json_parse_s", "s", "lower", WIRE),
    pl("transport.classify_decode_s", "s", "lower", WIRE),
    pl("transport.response_encode_s", "s", "lower", WIRE),
    pl("transport.body_bytes", "B", "lower", WIRE),
    pl("transport.response_bytes", "B", "lower", WIRE),
    pl("transport.self_s", "s", "lower", "round trip minus the mean compute stage: what the wire adds"),
    pl("transport.bytes_per_s", "B/s", "higher", WIRE),
    pl("transport.non_200", "count", "lower", WIRE),
    pl("transport.metrics_scrape_s", "s", "lower", OBS),
    pl("transport.metrics_bytes", "B", "lower", OBS),
    pl("transport.stats_get_s", "s", "lower", OBS),
    pl("obs.promtext_parse_s", "s", "lower", OBS),
    pl("obs.series", "count", "lower", OBS),
    pl("obs.histogram_check_ok", "count", "higher", OBS),
    pl("model.forward_batch_s", "s", "lower", TRAIN),
    pl("model.freeze_sparse_s", "s", "lower", "setup_s on train_sparse_step"),
    pl("autograd.backward_s", "s", "lower", TRAIN),
    pl("autograd.write_grads_s", "s", "lower", TRAIN),
    pl("autograd.clip_s", "s", "lower", TRAIN),
    pl("autograd.optimizer_step_s", "s", "lower", TRAIN),
    pl("autograd.loss_first", "loss", "lower", "output check: finite"),
    pl("autograd.loss_last", "loss", "lower", "output check: below loss_first"),
    pl("model.attention_stats_s", "s", "lower", "setup_s on sim_sweep (the seeded input maps)"),
    pl("core.split_conquer_s", "s", "lower", SWEEP),
    pl("core.compile_model_s", "s", "lower", SWEEP),
    pl("core.prune_s", "s", "lower", "setup_s on offline_sparse_int8"),
    pl("core.program_macs", "count", "lower", SIMULATED),
    pl("core.program_sparsity", "ratio", "higher", SIMULATED),
    pl("core.global_tokens_mean", "count", "lower", SIMULATED),
    pl("sim.attention_s", "s", "lower", SWEEP),
    pl("sim.end_to_end_s", "s", "lower", SWEEP),
    pl("baselines.accel_s", "s", "lower", SWEEP),
    pl("baselines.platform_s", "s", "lower", SWEEP),
    pl("sim.host_ns_per_kcycle", "ns", "lower", SWEEP),
    pl("sim.attn_cycles", "count", "lower", SIMULATED),
    pl("sim.e2e_cycles", "count", "lower", SIMULATED),
    pl("sim.data_movement_frac", "ratio", "lower", SIMULATED),
    pl("sim.energy_j", "J", "lower", SIMULATED),
    pl("sim.speedup_cpu", "x", "higher", SIMULATED),
    pl("sim.speedup_edgegpu", "x", "higher", SIMULATED),
    pl("sim.speedup_gpu", "x", "higher", SIMULATED),
    pl("sim.speedup_spatten", "x", "higher", SIMULATED),
    pl("sim.speedup_sanger", "x", "higher", SIMULATED),
    pl("sim.paper_err", "ratio", "lower", "max |simulated/paper - 1| over the five headline core-attention geomeans; simulated, exact"),
    pl("bench.late_sends", "count", "lower", HARNESS),
    pl("bench.max_lateness_s", "s", "lower", HARNESS),
    pl("bench.iter_iqr_frac", "ratio", "lower", "the run's own noise floor: (q3-q1)/median of the timed operations"),
    pl("bench.trace_overhead_frac", "ratio", "lower", "traced vs untraced quiet operation time in the same run"),
    pl("bench.failed_share", "ratio", "lower", "operations failed / attempted in the traced segment"),
    pl("bench.samples", "count", "higher", "timed operations in the traced segment"),
    pl("bench.lat_p50_s", "s", "lower", "median operation time of the traced segment: noisy on this box, so reported without a bound"),
    pl("bench.lat_tail_s", "s", "lower", "p95 on serve_*, p99 on wire_probe, p75 on the single-caller loops: the highest percentile with ten samples beyond it"),
    pl("bench.items_per_s", "1/s", "higher", "items completed correctly per second of the traced segment"),
    pl("bench.cpu_s_per_item", "s", "lower", "process CPU seconds (user+system, all threads) per item in the traced segment"),
];

/// The unit a declared per-layer metric carries; `None` for an
/// undeclared name.
pub fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit)
}

/// The tail percentile `bench.lat_tail_s` reports on `workload`.
pub fn tail_quantile(workload: &str) -> f64 {
    match workload {
        "serve_steady" | "serve_saturated" => 0.95,
        "wire_probe" => 0.99,
        _ => 0.75,
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, from the tables above.
pub fn benchmark_json(run_seconds: u64) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The metric tables of README.md, as markdown.
pub fn markdown_tables() -> String {
    let mut out = String::from("| workload | why it exists |\n|---|---|\n");
    for w in &WORKLOADS {
        out.push_str(&format!("| `{}` | {} |\n", w.name, w.why));
    }
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.bound, m.what
        ));
    }
    out.push_str("\n| per-layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitcod_transport::json;

    fn name_ok(s: &str) -> bool {
        let first_ok = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_limits_follow_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(seen.insert(m.name));
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_at_the_root_declares_exactly_these_names() {
        let text = include_str!("../../BENCHMARK.json");
        let root = json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            root.get(key)
                .and_then(|v| v.as_array())
                .expect("array")
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let declared = |it: &mut dyn Iterator<Item = &'static str>| -> Vec<String> {
            it.map(str::to_string).collect()
        };
        assert_eq!(
            names("workloads"),
            declared(&mut WORKLOADS.iter().map(|w| w.name))
        );
        assert_eq!(
            names("end_to_end"),
            declared(&mut END_TO_END.iter().map(|m| m.name))
        );
        assert_eq!(
            names("per_layer"),
            declared(&mut PER_LAYER.iter().map(|m| m.name))
        );
        let run_seconds = root
            .get("run_seconds")
            .and_then(|v| v.as_u64())
            .expect("run_seconds");
        assert_eq!(text, benchmark_json(run_seconds));
    }
}
