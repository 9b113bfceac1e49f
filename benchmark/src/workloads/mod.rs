//! The seven workloads. Sizes are constants of this directory,
//! identical on every commit, and never derived from a measurement made
//! in the same run.

pub mod offline;
pub mod serve;
pub mod sim;
pub mod train;
pub mod wire;

use crate::run::{run, Outcome, RunArgs};

/// Runs the workload `args` names.
pub fn dispatch(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload {
        "offline_dense_fp32" => run::<offline::Offline<false>>(args),
        "offline_sparse_int8" => run::<offline::Offline<true>>(args),
        "serve_steady" => run::<serve::Serve<serve::Steady>>(args),
        "serve_saturated" => run::<serve::Serve<serve::Saturated>>(args),
        "wire_probe" => run::<wire::Wire>(args),
        "sim_sweep" => run::<sim::Sim>(args),
        "train_sparse_step" => run::<train::Train>(args),
        other => Err(format!("unknown workload {other}")),
    }
}
