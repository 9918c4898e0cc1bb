//! # Sync-Switch
//!
//! A Rust reproduction of **"Sync-Switch: Hybrid Parameter Synchronization
//! for Distributed Deep Learning"** (Li, Mangoubi, Xu, Guo — ICDCS 2021).
//!
//! Sync-Switch trains the early portion of a distributed deep-learning job
//! with Bulk Synchronous Parallel (BSP) synchronization and the remainder
//! with Asynchronous Parallel (ASP), combining BSP's converged accuracy with
//! ASP's throughput. This workspace implements the full system: the policy
//! engine (protocol / timing / configuration / straggler-aware online
//! policies), a real multi-threaded parameter server, a neural-network
//! training substrate, a discrete-event cluster simulator, a staleness-aware
//! convergence surrogate, and a benchmark harness that regenerates every
//! table and figure of the paper's evaluation.
//!
//! This crate is a facade that re-exports the workspace members under short
//! module names.
//!
//! # Quick start
//!
//! ```
//! use sync_switch::prelude::*;
//!
//! // Run Sync-Switch on the paper's experiment setup 1 (ResNet32/CIFAR-10,
//! // 8 workers) with the policy the paper derived for it (switch at 6.25%).
//! let setup = ExperimentSetup::one();
//! let policy = SyncSwitchPolicy::paper_policy(&setup);
//! let mut backend = SimBackend::new(&setup, 42);
//! let report = ClusterManager::new(policy).run(&mut backend, &setup).unwrap();
//! assert!(report.converged_accuracy.unwrap() > 0.90);
//! ```

pub mod deploy;
pub mod harness;
pub mod ps_backend;

pub use sync_switch_cluster as cluster;
pub use sync_switch_convergence as convergence;
pub use sync_switch_core as core;
pub use sync_switch_nn as nn;
pub use sync_switch_ps as ps;
pub use sync_switch_sim as sim;
pub use sync_switch_tensor as tensor;
pub use sync_switch_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::ps_backend::PsBackend;
    pub use sync_switch_cluster::{ClusterSim, StragglerScenario};
    pub use sync_switch_convergence::TrajectoryModel;
    pub use sync_switch_core::{
        BinarySearchTuner, ClusterManager, ConfigPolicy, OnlinePolicyKind, SimBackend,
        SyncProtocol, SyncSwitchPolicy, TimingPolicy, TrainingBackend, TrainingReport,
    };
    pub use sync_switch_sim::{DetRng, SimTime};
    pub use sync_switch_workloads::{CalibrationTargets, ExperimentSetup, SetupId, Workload};
}

#[cfg(test)]
#[path = "../crates/ps/tests/support/deadline.rs"]
mod deadline;
