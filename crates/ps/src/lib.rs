//! In-process multi-threaded parameter server with real BSP and ASP
//! synchronization.
//!
//! This crate is the *execution* substrate of the Sync-Switch reproduction:
//! it implements the parameter-server architecture of paper §II-A with true
//! concurrency — worker threads computing gradients on disjoint data shards,
//! a sharded parameter store with per-shard locks, barrier-aggregated BSP
//! updates, immediate ASP updates with measured gradient staleness, model
//! checkpoint/restore, and the checkpoint-switch-restart mechanism of paper
//! §V. TensorFlow's PS runtime is replaced by threads within one process;
//! the synchronization semantics (and their artifacts — stale gradients,
//! barrier waits, straggler sensitivity) are the real thing.
//!
//! # Example
//!
//! ```
//! use sync_switch_nn::{Dataset, Network};
//! use sync_switch_ps::{Trainer, TrainerConfig};
//! use sync_switch_workloads::SyncProtocol;
//!
//! let data = Dataset::gaussian_blobs(4, 64, 8, 0.3, 1);
//! let (train, test) = data.split(0.25);
//! let cfg = TrainerConfig::new(4, 16, 0.05, 0.9);
//! let mut trainer = Trainer::new(
//!     Network::mlp(8, &[16], 4, 7),
//!     train,
//!     test,
//!     cfg,
//! );
//! let report = trainer.run_segment(SyncProtocol::Bsp, 30).unwrap();
//! assert_eq!(report.steps, 30);
//! assert!(trainer.evaluate() > 0.2);
//! ```

pub mod checkpoint;
pub mod config;
pub mod controller;
pub mod engine;
pub mod error;
mod gate;
pub mod profiler;
pub mod router;
pub mod server;
pub mod ssp;
pub mod store;
pub mod switcher;
pub mod transport;

pub use checkpoint::Checkpoint;
pub use config::{RetryPolicy, ServerTopology, TrainerConfig, TransportKind};
pub use controller::{
    ControllerConfig, DecisionRecord, ScrapedSignals, SyncController, SyncDecision,
};
pub use engine::{SegmentReport, Trainer};
pub use error::PsError;
pub use profiler::{ShardStaleness, StalenessHistogram, TransportStats, WireOp, WorkerProfile};
pub use router::{PortBuffer, WorkerPort};
pub use server::PsServer;
pub use store::{PullBuffer, ShardLayout, ShardedStore, UpdateData};
pub use switcher::{execute_switch, SwitchOutcome, SwitchPlan};
pub use transport::{FaultPlan, FaultyTransport, NetPort, NetRouter, ServerInfo, TcpServerHost};

// The telemetry bus every layer above records into, re-exported so binaries
// and harnesses don't need a separate dependency edge for the common types.
pub use sync_switch_telemetry::{
    HistogramSnapshot, MetricsRegistry, MetricsSnapshot, ServerStats, ServerStatsSnapshot,
    Telemetry, TraceKind, Tracer, HIST_BUCKETS, OPCODE_SLOTS,
};

#[cfg(test)]
#[path = "../tests/support/deadline.rs"]
mod deadline;
