//! Discrete-event cluster simulation for distributed training.
//!
//! Models the *throughput* side of the Sync-Switch evaluation: per-step
//! compute times on K80 GPUs with lognormal jitter, parameter/gradient
//! transfer over a collocated sharded parameter-server network, the BSP
//! barrier-and-coordination cost, one asynchronous event loop — ASP
//! per-worker progress with measured staleness, or SSP when a staleness bound
//! leashes it — transient straggler injection (added per-message
//! latency, as the paper emulates with network delays), elastic worker
//! removal, and the cluster init/switch overhead model of paper Table III.
//!
//! ## Step accounting
//!
//! Following the paper's configuration policy, the workload is counted in
//! *ASP-sized* steps (`B = 128` images each). One BSP round consumes one
//! mini-batch per active worker — `n` workload units — because BSP runs with
//! the scaled global batch `n·B`. This is why 64 K steps take ~8 000 BSP
//! rounds on 8 workers, and why total BSP time lands in the paper's range.
//!
//! Calibration constants are documented on [`NetworkModel`] and fitted so
//! the simulated ASP-over-BSP throughput ratios land near the paper's
//! Table I / Fig. 4 values (see `sync-switch-workloads::calibration`).

pub mod gpu;
pub mod network;
pub mod overhead;
pub mod sim;
pub mod straggler;

pub use gpu::ComputeModel;
pub use network::NetworkModel;
pub use overhead::{ActuatorMode, OverheadModel, OverheadSample};
pub use sim::{ChunkStats, ClusterSim};
pub use straggler::{StragglerEpisode, StragglerScenario};
