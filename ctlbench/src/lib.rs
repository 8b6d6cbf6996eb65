//! # ctlbench — wall-clock controller benchmark for yanc
//!
//! Three closed-loop workloads on fat-tree fabrics, driven through the
//! public API of the serial `Runtime`: reactive flow setup (`reactive`),
//! proactive flow churn (`flow_churn`) and stats monitoring
//! (`stats_monitor`). See `README.md` for why each exists and which layer
//! metric should move which end-to-end metric.

pub mod check;
pub mod report;
pub mod rng;
pub mod trace;
pub mod workloads;
pub mod world;

pub use workloads::{run_pass, Params, Pass, Stop, Workload};
