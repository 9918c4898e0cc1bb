//! The four training-job workloads and their frozen constants.
//!
//! Everything a later benchmark-correcting change may want to move —
//! steps, accuracy target and floor, topology — is one field of one row of
//! [`WORKLOADS`]; nothing else in the package hard-codes a workload.

use sync_switch::nn::{Dataset, Network};
use sync_switch::ps::{ServerTopology, TrainerConfig, TransportKind};
use sync_switch::workloads::{HyperParams, SyncProtocol, TrainableKind};

/// Worker threads per job (this box has two cores).
pub const WORKERS: usize = 2;
/// Parameter shards per job.
pub const SHARDS: usize = 4;
/// Every job runs its step budget as this many equal segments, with an
/// accuracy probe after each.
pub const SEGMENTS: u64 = 20;
/// A run never reports fewer measured jobs than this.
pub const MIN_JOBS: usize = 15;

/// Which model and data a job trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// `TrainableKind::MlpBlobs`, 212 parameters.
    MlpBlobs,
    /// `TrainableKind::ConvShifted`.
    ConvShifted,
    /// A 4096 x 32 embedding table (~525 KB of parameters) on Zipf tokens:
    /// the registry's sparse-embedding task scaled until a pull is
    /// bytes-bound.
    WideEmbedding,
}

/// How a job's segments are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Every segment under one protocol through `Trainer::run_segment`.
    Pure(SyncProtocol),
    /// Started in BSP and driven through `SyncController::run_segment`.
    Controller,
}

/// One workload: the job shape plus its frozen constants.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what the workload stresses.
    pub why: &'static str,
    pub task: Task,
    pub transport: TransportKind,
    pub servers: usize,
    pub sync_every: u64,
    pub drive: Drive,
    /// Steps per job (`SEGMENTS` segments of `steps / SEGMENTS`).
    pub steps: u64,
    /// Replaces the registry learning rate where that one makes some seed
    /// fail (the README's workload table says by what).
    pub learning_rate: Option<f64>,
    /// `tta_s` is the job wall at which probe accuracy reaches this: 0.95 x
    /// the median final accuracy measured once on the commit that added the
    /// benchmark, then frozen. `None` where accuracy saturates inside the
    /// first segment and that segment's wall is too erratic to gate on;
    /// `tta_s` is then the time to finish the budget.
    pub acc_target: Option<f64>,
    /// A job whose final accuracy is below this fails.
    pub acc_floor: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bsp_inproc_mlp",
        why: "coordination-bound: ~10 us of compute per step, so the BSP round barrier, stripe accumulate and ShardedStore pull/apply are the whole step and the wire does nothing",
        task: Task::MlpBlobs,
        transport: TransportKind::InProcess,
        servers: 1,
        sync_every: 1,
        drive: Drive::Pure(SyncProtocol::Bsp),
        steps: 20_000,
        learning_rate: None,
        acc_target: Some(0.938),
        acc_floor: 0.6,
    },
    Workload {
        name: "asp_tcp_mlp",
        why: "round-trip-bound: ~1 KB payloads over 2 TCP servers, every step is 2 pull round trips + 4 shard pushes + stage-2 sync frames; compute and barrier are negligible",
        task: Task::MlpBlobs,
        transport: TransportKind::Tcp,
        servers: 2,
        sync_every: 4,
        drive: Drive::Pure(SyncProtocol::Asp),
        steps: 8_000,
        learning_rate: None,
        acc_target: None,
        acc_floor: 0.6,
    },
    Workload {
        name: "asp_tcp_embed",
        why: "bytes-bound and read-heavy: each pull moves ~525 KB over the same TCP tier while a sparse push moves a few KB, so codec, copies and sparse apply dominate",
        task: Task::WideEmbedding,
        transport: TransportKind::Tcp,
        servers: 2,
        sync_every: 4,
        drive: Drive::Pure(SyncProtocol::Asp),
        steps: 2_000,
        learning_rate: Some(0.08),
        acc_target: Some(0.90),
        acc_floor: 0.6,
    },
    Workload {
        name: "switch_chan_conv",
        why: "the paper's job shape: conv compute, BSP over the channel transport, a telemetry-driven checkpointed switch to ASP; the only workload where ASP visibly costs accuracy",
        task: Task::ConvShifted,
        transport: TransportKind::Channel,
        servers: 2,
        sync_every: 4,
        drive: Drive::Controller,
        steps: 4_000,
        learning_rate: None,
        acc_target: Some(0.697),
        acc_floor: 0.45,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Model, train set, test set and registry hyper-parameters of the job
    /// with this seed.
    pub fn build(&self, seed: u64) -> (Network, Dataset, Dataset, HyperParams) {
        match self.task {
            Task::MlpBlobs => self.with_hyper(TrainableKind::MlpBlobs, seed),
            Task::ConvShifted => self.with_hyper(TrainableKind::ConvShifted, seed),
            Task::WideEmbedding => {
                let data = Dataset::zipf_tokens(4, 60, 4096, 8, 1.1, seed);
                let (train, test) = data.split(0.25);
                (
                    Network::embedding_classifier(4096, 32, 24, 8, 4, seed),
                    train,
                    test,
                    self.hyper(HyperParams::sparse_embedding()),
                )
            }
        }
    }

    fn with_hyper(
        &self,
        kind: TrainableKind,
        seed: u64,
    ) -> (Network, Dataset, Dataset, HyperParams) {
        let (model, train, test) = kind.build(seed);
        (model, train, test, self.hyper(kind.hyper()))
    }

    /// The registry hyper-parameters with this workload's override applied.
    fn hyper(&self, registry: HyperParams) -> HyperParams {
        HyperParams {
            learning_rate: self.learning_rate.unwrap_or(registry.learning_rate),
            ..registry
        }
    }

    pub fn topology(&self) -> ServerTopology {
        if self.servers == 1 && self.transport == TransportKind::InProcess {
            return ServerTopology::single();
        }
        ServerTopology::new(self.servers, self.sync_every).with_transport(self.transport)
    }

    /// The job's trainer configuration: `workers` threads over the
    /// workload's topology, everything else at the program's defaults.
    pub fn config(&self, hyper: &HyperParams, workers: usize, seed: u64) -> TrainerConfig {
        let mut cfg = TrainerConfig::new(
            workers,
            hyper.batch_size,
            hyper.learning_rate,
            hyper.momentum,
        )
        .with_seed(seed)
        .with_topology(self.topology());
        cfg.shards = SHARDS;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_split_into_equal_segments_in_smoke_mode_too() {
        for w in &WORKLOADS {
            assert_eq!(w.steps % (SEGMENTS * 10), 0, "{}", w.name);
        }
    }
}
