//! End-to-end benchmark of soc-sim: spec in, `RunReport` out.
//!
//! Each run builds sessions through the public builder
//! (`soc_sim::sim(cfg)…session()`), drives them with stimuli generated
//! from the run's seed, times every call into a layer and checks every
//! engine's simulated results against the native golden model. See
//! `README.md` beside this crate for the workloads, metrics and how to
//! run it.

pub mod measure;
pub mod metrics;
pub mod report;
pub mod trace;
pub mod workload;
