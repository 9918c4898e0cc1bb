//! The execution-backend abstraction and the simulation backend.

use sync_switch_cluster::{ActuatorMode, ClusterSim, OverheadModel, StragglerScenario};
use sync_switch_convergence::{MomentumScaling, PhaseInput, TrajectoryModel};
use sync_switch_sim::SimTime;
use sync_switch_workloads::{ExperimentSetup, SyncProtocol};

use crate::config::AdjustedConfig;
use crate::error::CoreError;

/// Metrics of one executed chunk of training.
#[derive(Debug, Clone)]
pub struct BackendChunk {
    /// Workload units actually completed (may exceed the request when BSP
    /// rounds don't divide evenly).
    pub steps_done: u64,
    /// Time the chunk took.
    pub elapsed: SimTime,
    /// Per-worker own-work throughput in images/s (`None` for workers that
    /// did no work — removed or excluded).
    pub per_worker_images_per_sec: Vec<Option<f64>>,
    /// Mean measured gradient staleness of the chunk.
    pub mean_staleness: f64,
    /// Seconds workers spent blocked on the PS wire during the chunk
    /// (0 for the simulator and for in-process parameter servers; real
    /// transport-backed tiers report their measured per-op wire time).
    pub wire_time_s: f64,
    /// Wire requests re-sent after a failure during the chunk (0 for the
    /// simulator and in-process tiers).
    pub wire_retries: u64,
    /// Connections re-established during the chunk.
    pub wire_reconnects: u64,
}

/// An execution substrate Sync-Switch can drive: either the cluster
/// simulator ([`SimBackend`]) or a real parameter-server deployment.
///
/// The manager calls `run_chunk` repeatedly, interleaving protocol switches
/// (with [`TrainingBackend::apply_switch_overhead`]), elastic worker
/// eviction, and accuracy evaluations.
pub trait TrainingBackend {
    /// Steps (workload units) completed so far.
    fn step(&self) -> u64;

    /// Current (virtual or wall) time.
    fn now(&self) -> SimTime;

    /// Number of workers in the cluster.
    fn cluster_size(&self) -> usize;

    /// Number of currently active workers.
    fn active_workers(&self) -> usize;

    /// Runs `steps` workload units under the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Diverged`] when training diverges during the
    /// chunk.
    fn run_chunk(&mut self, cfg: &AdjustedConfig, steps: u64) -> Result<BackendChunk, CoreError>;

    /// Records a protocol switch and accounts its overhead (checkpoint +
    /// reconfigure + restart). Returns the overhead duration.
    fn apply_switch_overhead(&mut self, from: SyncProtocol, to: SyncProtocol) -> SimTime;

    /// Applies a momentum-scaling variant at the start of the ASP phase.
    fn apply_momentum_variant(&mut self, variant: MomentumScaling);

    /// Evaluates test accuracy at the current step.
    fn eval_accuracy(&mut self) -> f64;

    /// Current (smoothed) training loss.
    fn training_loss(&self) -> f64;

    /// Removes a worker (elastic policy). Returns `false` when unsupported
    /// or already removed.
    fn remove_worker(&mut self, worker: usize) -> bool;

    /// Restores all removed workers.
    fn restore_workers(&mut self);
}

/// The simulation backend: cluster simulator for time/throughput plus the
/// convergence surrogate for loss/accuracy. Cluster setup and every switch
/// are charged Sync-Switch's parallel configuration actuator (Table III).
#[derive(Debug, Clone)]
pub struct SimBackend {
    cluster: ClusterSim,
    trajectory: TrajectoryModel,
    overhead: OverheadModel,
    setup: ExperimentSetup,
}

impl SimBackend {
    /// Creates a backend for an experiment setup; cluster initialization
    /// time (paper Table III, parallel actuator) is accounted at creation.
    pub fn new(setup: &ExperimentSetup, seed: u64) -> Self {
        let mut overhead = OverheadModel::new(seed);
        let init = overhead.sample(setup.cluster_size, ActuatorMode::Parallel);
        let mut cluster = ClusterSim::new(setup, seed);
        cluster.advance(init.init);
        SimBackend {
            cluster,
            trajectory: TrajectoryModel::new(setup, seed),
            overhead,
            setup: setup.clone(),
        }
    }

    /// Installs a straggler scenario on the simulated cluster.
    pub fn with_scenario(mut self, scenario: StragglerScenario) -> Self {
        self.cluster.set_scenario(scenario);
        self
    }

    /// The underlying cluster simulator (read access for diagnostics).
    pub fn cluster(&self) -> &ClusterSim {
        &self.cluster
    }

    /// The experiment setup this backend simulates.
    pub fn setup(&self) -> &ExperimentSetup {
        &self.setup
    }
}

impl TrainingBackend for SimBackend {
    fn step(&self) -> u64 {
        self.trajectory.step()
    }

    fn now(&self) -> SimTime {
        self.cluster.now()
    }

    fn cluster_size(&self) -> usize {
        self.cluster.cluster_size()
    }

    fn active_workers(&self) -> usize {
        self.cluster.active_count()
    }

    fn run_chunk(&mut self, cfg: &AdjustedConfig, steps: u64) -> Result<BackendChunk, CoreError> {
        if steps == 0 {
            return Ok(BackendChunk {
                steps_done: 0,
                elapsed: SimTime::ZERO,
                per_worker_images_per_sec: vec![None; self.cluster.cluster_size()],
                mean_staleness: 0.0,
                wire_time_s: 0.0,
                wire_retries: 0,
                wire_reconnects: 0,
            });
        }
        self.cluster.set_batch(cfg.per_worker_batch);
        let stats = match cfg.protocol {
            SyncProtocol::Bsp => self.cluster.run_bsp(steps),
            SyncProtocol::Asp => self.cluster.run_asp(steps),
        };
        let input = PhaseInput {
            protocol: cfg.protocol,
            staleness: stats.mean_staleness,
            momentum: cfg.momentum_scaling,
        };
        self.trajectory.advance(stats.units, &input);
        if let Some(step) = self.trajectory.diverged_at() {
            return Err(CoreError::Diverged { step });
        }
        Ok(BackendChunk {
            steps_done: stats.units,
            elapsed: stats.elapsed,
            per_worker_images_per_sec: stats
                .per_worker_images_per_sec
                .iter()
                .map(|&r| if r > 0.0 { Some(r) } else { None })
                .collect(),
            mean_staleness: stats.mean_staleness,
            wire_time_s: 0.0,
            wire_retries: 0,
            wire_reconnects: 0,
        })
    }

    fn apply_switch_overhead(&mut self, from: SyncProtocol, to: SyncProtocol) -> SimTime {
        let sample = self
            .overhead
            .sample(self.cluster.cluster_size(), ActuatorMode::Parallel);
        self.cluster.advance(sample.switch);
        self.trajectory.record_switch(from, to);
        sample.switch
    }

    fn apply_momentum_variant(&mut self, variant: MomentumScaling) {
        self.trajectory.apply_momentum_variant(variant);
    }

    fn eval_accuracy(&mut self) -> f64 {
        self.trajectory.eval_accuracy()
    }

    fn training_loss(&self) -> f64 {
        self.trajectory.training_loss()
    }

    fn remove_worker(&mut self, worker: usize) -> bool {
        self.cluster.remove_worker(worker)
    }

    fn restore_workers(&mut self) {
        self.cluster.restore_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigPolicy;

    #[test]
    fn sim_backend_runs_chunks() {
        let setup = ExperimentSetup::one();
        let mut b = SimBackend::new(&setup, 1);
        let policy = ConfigPolicy::new(8);
        let bsp = policy.for_protocol(&setup.workload.hyper, SyncProtocol::Bsp);
        let chunk = b.run_chunk(&bsp, 800).unwrap();
        assert_eq!(chunk.steps_done, 800);
        assert_eq!(b.step(), 800);
        assert!(chunk.elapsed.as_secs() > 0.0);
        assert_eq!(chunk.mean_staleness, 0.0);
        assert!(chunk.per_worker_images_per_sec.iter().all(|r| r.is_some()));
    }

    #[test]
    fn init_overhead_charged() {
        let setup = ExperimentSetup::one();
        let b = SimBackend::new(&setup, 2);
        // The clock starts at the sampled cluster-init cost, before any step.
        let init = OverheadModel::new(2)
            .sample(setup.cluster_size, ActuatorMode::Parallel)
            .init;
        assert!(init.as_secs() > 30.0, "init time {init:?}");
        assert_eq!(b.now(), init);
        assert_eq!(b.step(), 0);
    }

    #[test]
    fn asp_chunk_reports_staleness() {
        let setup = ExperimentSetup::one();
        let mut b = SimBackend::new(&setup, 3);
        let policy = ConfigPolicy::new(8);
        let asp = policy.for_protocol(&setup.workload.hyper, SyncProtocol::Asp);
        let chunk = b.run_chunk(&asp, 2000).unwrap();
        assert!(chunk.mean_staleness > 5.0);
    }

    #[test]
    fn divergence_propagates_as_error() {
        let setup = ExperimentSetup::three();
        let mut b = SimBackend::new(&setup, 4);
        let policy = ConfigPolicy::new(16);
        let asp = policy.for_protocol(&setup.workload.hyper, SyncProtocol::Asp);
        match (0..8).find_map(|_| b.run_chunk(&asp, 2000).err()) {
            Some(CoreError::Diverged { step }) => assert!(step < 16_000),
            other => panic!("setup 3 pure ASP must diverge, got {other:?}"),
        }
    }

    #[test]
    fn switch_overhead_advances_clock() {
        let setup = ExperimentSetup::one();
        let mut b = SimBackend::new(&setup, 5);
        let before = b.now();
        let dt = b.apply_switch_overhead(SyncProtocol::Bsp, SyncProtocol::Asp);
        assert!(dt.as_secs() > 10.0 && dt.as_secs() < 90.0, "switch {dt}");
        assert_eq!(b.now(), before + dt);
    }

    #[test]
    fn worker_removal_round_trip() {
        let setup = ExperimentSetup::one();
        let mut b = SimBackend::new(&setup, 6);
        assert!(b.remove_worker(3));
        assert!(!b.remove_worker(3));
        assert_eq!(b.active_workers(), 7);
        b.restore_workers();
        assert_eq!(b.active_workers(), 8);
    }
}
