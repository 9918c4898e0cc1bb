//! A [`TrainingBackend`] over the real multi-threaded parameter server.
//!
//! This is the laptop-scale execution path: the same `ClusterManager` and
//! policies that drive the cluster simulator drive real worker threads,
//! real BSP barriers, and real stale gradients from
//! [`sync_switch_ps::Trainer`].

use std::time::Duration;

use sync_switch_convergence::MomentumScaling;
use sync_switch_core::{AdjustedConfig, BackendChunk, CoreError, TrainingBackend};
use sync_switch_nn::{Dataset, Network};
use sync_switch_ps::{execute_switch, PsError, ServerTopology, SwitchPlan, Trainer, TrainerConfig};
use sync_switch_sim::SimTime;
use sync_switch_workloads::SyncProtocol;

/// Drives a real in-process parameter server under the Sync-Switch policy
/// engine.
///
/// Time is wall-clock: `now()` reports the accumulated wall time of
/// executed segments and switches, expressed as [`SimTime`].
///
/// # Example
///
/// ```
/// use sync_switch::ps_backend::PsBackend;
/// use sync_switch_core::{ClusterManager, SyncSwitchPolicy};
/// use sync_switch_nn::{Dataset, Network};
/// use sync_switch_workloads::ExperimentSetup;
///
/// let data = Dataset::gaussian_blobs(4, 80, 8, 0.35, 7);
/// let (train, test) = data.split(0.25);
/// let mut setup = ExperimentSetup::one();
/// setup.cluster_size = 4;
/// setup.workload.hyper.total_steps = 120;
/// setup.workload.hyper.batch_size = 8;
/// setup.workload.hyper.learning_rate = 0.04;
/// setup.workload.hyper.lr_schedule =
///     sync_switch_workloads::LrSchedule::piecewise(vec![(60, 0.1)]);
/// let mut backend = PsBackend::new(Network::mlp(8, &[16], 4, 7), train, test, 4, 7);
/// let mut policy = SyncSwitchPolicy::new(0.25, 4);
/// policy.eval_interval = 40;
/// policy.tta_target = Some(0.60);
/// let report = ClusterManager::new(policy).run(&mut backend, &setup).unwrap();
/// assert!(report.completed());
/// assert_eq!(report.total_steps, 120);
/// ```
pub struct PsBackend {
    trainer: Trainer,
    elapsed: SimTime,
    workers: usize,
}

impl std::fmt::Debug for PsBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PsBackend")
            .field("workers", &self.workers)
            .field("step", &self.trainer.global_step())
            .finish()
    }
}

impl PsBackend {
    /// Creates a backend training `model` on `train`/`test` with `workers`
    /// worker threads on the default single in-process parameter store.
    pub fn new(model: Network, train: Dataset, test: Dataset, workers: usize, seed: u64) -> Self {
        Self::with_topology(model, train, test, workers, seed, ServerTopology::single())
    }

    /// Creates a backend whose parameter-server tier uses `topology` —
    /// multi-server sharding and, through
    /// [`ServerTopology::with_transport`], the channel or TCP wire backend.
    /// The policy engine runs unchanged; the wire cost it pays surfaces in
    /// `TrainingReport::transport_wire_s`.
    pub fn with_topology(
        model: Network,
        train: Dataset,
        test: Dataset,
        workers: usize,
        seed: u64,
        topology: ServerTopology,
    ) -> Self {
        // Placeholder hyper-parameters; every chunk overwrites them from
        // the AdjustedConfig the policy engine provides.
        let cfg = TrainerConfig::new(workers, 1, 0.1, 0.9)
            .with_seed(seed)
            .with_topology(topology);
        PsBackend {
            trainer: Trainer::new(model, train, test, cfg),
            elapsed: SimTime::ZERO,
            workers,
        }
    }

    /// Injects a persistent straggler delay on one worker (testing and
    /// demos; transient scenarios can clear it between chunks).
    pub fn inject_straggler(&mut self, worker: usize, delay: Duration) {
        let mut cfg = self.trainer.config().clone();
        cfg.straggler_delay[worker] = Some(delay);
        self.trainer
            .set_config(cfg)
            .expect("straggler injection keeps config valid");
    }

    /// Clears all injected stragglers.
    pub fn clear_stragglers(&mut self) {
        let mut cfg = self.trainer.config().clone();
        cfg.clear_stragglers();
        self.trainer
            .set_config(cfg)
            .expect("clearing stragglers keeps config valid");
    }

    /// Access to the underlying trainer.
    pub fn trainer(&self) -> &Trainer {
        &self.trainer
    }
}

impl TrainingBackend for PsBackend {
    fn step(&self) -> u64 {
        self.trainer.global_step()
    }

    fn now(&self) -> SimTime {
        self.elapsed
    }

    fn cluster_size(&self) -> usize {
        self.workers
    }

    fn active_workers(&self) -> usize {
        self.trainer.config().active_workers().len()
    }

    fn run_chunk(&mut self, cfg: &AdjustedConfig, steps: u64) -> Result<BackendChunk, CoreError> {
        let mut tcfg = self.trainer.config().clone();
        tcfg.per_worker_batch = cfg.per_worker_batch;
        tcfg.learning_rate = cfg.learning_rate;
        tcfg.momentum = cfg.momentum;
        self.trainer
            .set_config(tcfg)
            .map_err(|e| CoreError::Backend(e.to_string()))?;
        match self.trainer.run_segment(cfg.protocol, steps) {
            Ok(report) => {
                self.elapsed += SimTime::from_secs(report.wall_time.as_secs_f64());
                let batch = cfg.per_worker_batch;
                Ok(BackendChunk {
                    steps_done: report.steps,
                    elapsed: SimTime::from_secs(report.wall_time.as_secs_f64()),
                    per_worker_images_per_sec: report
                        .worker_profiles
                        .iter()
                        .map(|p| (p.steps() > 0).then(|| p.images_per_sec(batch)))
                        .collect(),
                    mean_staleness: report.staleness.mean(),
                    wire_time_s: report.transport.total_wire_s(),
                    wire_retries: report.transport.retries,
                    wire_reconnects: report.transport.reconnects,
                })
            }
            Err(PsError::Diverged { step }) => Err(CoreError::Diverged { step }),
            Err(e) => Err(CoreError::Backend(e.to_string())),
        }
    }

    fn apply_switch_overhead(&mut self, _from: SyncProtocol, to: SyncProtocol) -> SimTime {
        // The real switch mechanism — drain, checkpoint, propagate, restore —
        // through the one actuator every switch takes, which also leaves
        // its stage times on the trainer's bus. The hyper-parameters are
        // the next chunk's business.
        let plan = SwitchPlan::keep_hyper(self.trainer.config(), to, false);
        let outcome = execute_switch(&mut self.trainer, &plan)
            .expect("a plan keeping the trainer's own configuration is valid");
        let dt = SimTime::from_secs(outcome.total().as_secs_f64());
        self.elapsed += dt;
        dt
    }

    fn apply_momentum_variant(&mut self, variant: MomentumScaling) {
        let mut cfg = self.trainer.config().clone();
        cfg.momentum = variant.effective_momentum(0, self.workers, cfg.momentum);
        if self
            .trainer
            .set_config(cfg)
            .is_ok_and(|()| variant == MomentumScaling::Zero)
        {
            self.trainer
                .reset_velocity()
                .unwrap_or_else(|e| panic!("momentum variant: velocity reset failed: {e}"));
        }
    }

    fn eval_accuracy(&mut self) -> f64 {
        self.trainer.evaluate()
    }

    fn training_loss(&self) -> f64 {
        f64::from(self.trainer.training_loss())
    }

    fn remove_worker(&mut self, worker: usize) -> bool {
        let mut cfg = self.trainer.config().clone();
        if cfg.excluded_workers.contains(&worker) {
            return false;
        }
        cfg.excluded_workers.push(worker);
        self.trainer.set_config(cfg).is_ok()
    }

    fn restore_workers(&mut self) {
        let mut cfg = self.trainer.config().clone();
        cfg.excluded_workers.clear();
        self.trainer
            .set_config(cfg)
            .expect("restoring workers keeps config valid");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::deadline;
    use sync_switch_core::{ClusterManager, OnlinePolicyKind, SyncSwitchPolicy};
    use sync_switch_workloads::{ExperimentSetup, LrSchedule};

    fn small_setup(workers: usize, total: u64) -> ExperimentSetup {
        let mut setup = ExperimentSetup::one();
        setup.cluster_size = workers;
        setup.workload.hyper.total_steps = total;
        setup.workload.hyper.batch_size = 8;
        setup.workload.hyper.learning_rate = 0.04;
        setup.workload.hyper.lr_schedule = LrSchedule::piecewise(vec![(total / 2, 0.1)]);
        setup
    }

    fn backend(workers: usize, seed: u64) -> PsBackend {
        let data = Dataset::gaussian_blobs(4, 80, 8, 0.35, seed);
        let (train, test) = data.split(0.25);
        PsBackend::new(Network::mlp(8, &[16], 4, seed), train, test, workers, seed)
    }

    #[test]
    fn manager_drives_real_ps_end_to_end() {
        let setup = small_setup(4, 200);
        let mut b = backend(4, 1);
        let mut policy = SyncSwitchPolicy::new(0.25, 4);
        policy.eval_interval = 50;
        policy.tta_target = Some(0.5);
        let report = ClusterManager::new(policy).run(&mut b, &setup).unwrap();
        assert!(report.completed());
        assert_eq!(report.total_steps, 200);
        assert_eq!(report.switches.len(), 1);
        assert_eq!(report.bsp_steps, 50);
        assert_eq!(report.asp_steps, 150);
        // Real training should have learned something on 4 blobs.
        let acc = report.converged_accuracy.unwrap();
        assert!(acc > 0.5, "accuracy {acc}");
    }

    #[test]
    fn elastic_policy_evicts_real_straggler() {
        let setup = small_setup(4, 160);
        let mut b = backend(4, 2);
        b.inject_straggler(2, Duration::from_millis(4));
        let mut policy = SyncSwitchPolicy::new(0.5, 4).with_online(OnlinePolicyKind::Elastic);
        policy.eval_interval = 80;
        policy.detect_chunk = 8;
        policy.tta_target = Some(0.5);
        let report = ClusterManager::new(policy).run(&mut b, &setup).unwrap();
        assert!(report.completed());
        assert!(
            report.removed_workers.iter().any(|&(_, w)| w == 2),
            "straggler 2 should be evicted, got {:?}",
            report.removed_workers
        );
        // Cluster restored for the ASP phase.
        assert_eq!(b.active_workers(), 4);
    }

    #[test]
    fn manager_drives_transport_tier_and_reports_wire_time() {
        let _deadline = deadline(120);
        // The same policy engine over a channel-transport PS tier: every
        // push/pull crosses the wire protocol, and the report accounts the
        // measured wire time.
        let setup = small_setup(4, 120);
        let data = Dataset::gaussian_blobs(4, 80, 8, 0.35, 5);
        let (train, test) = data.split(0.25);
        let mut b = PsBackend::with_topology(
            Network::mlp(8, &[16], 4, 5),
            train,
            test,
            4,
            5,
            sync_switch_ps::ServerTopology::new(2, 4)
                .with_transport(sync_switch_ps::TransportKind::Channel),
        );
        assert_eq!(b.trainer().server_count(), 2);
        let mut policy = SyncSwitchPolicy::new(0.25, 4);
        policy.eval_interval = 60;
        policy.tta_target = Some(0.99); // effectively disabled
        let report = ClusterManager::new(policy).run(&mut b, &setup).unwrap();
        assert!(report.completed());
        assert_eq!(report.total_steps, 120);
        assert!(
            report.transport_wire_s > 0.0,
            "wire time must be accounted: {}",
            report.transport_wire_s
        );
        assert!(b.trainer().transport_stats().total_ops() > 0);
    }

    #[test]
    fn switch_overhead_is_measured() {
        let mut b = backend(3, 3);
        let dt = b.apply_switch_overhead(SyncProtocol::Bsp, SyncProtocol::Asp);
        assert!(dt.as_secs() >= 0.0);
        assert_eq!(b.now(), dt);
        assert_eq!(b.trainer().protocol(), SyncProtocol::Asp);
        let snap = b
            .trainer()
            .telemetry()
            .expect("always Some")
            .metrics
            .snapshot();
        let restores = snap.histograms.get("switch.restore_ns").map(|h| h.count);
        assert_eq!(restores, Some(1));
    }
}
