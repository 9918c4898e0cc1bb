//! The synchronization-switch mechanism: checkpoint → reconfigure → restart.
//!
//! Mirrors paper §V: "once all custom hook managers finish checkpointing,
//! the cluster manager propagates the updated training job and
//! configurations to all nodes … custom hook managers relaunch the training
//! tasks to resume the training from the last model checkpoint but with a
//! different synchronization protocol." Here the relaunch is in-process, and
//! the real durations of each stage are measured — returned to the caller
//! and recorded on the trainer's bus as the `switch.*_ns` histograms — so
//! the runtime-overhead analysis (paper Table III) has a live counterpart.

use std::time::{Duration, Instant};

use sync_switch_workloads::SyncProtocol;

use crate::engine::Trainer;
use crate::error::PsError;

/// The configuration adjustments to apply atomically with a protocol switch.
///
/// Produced by the Sync-Switch configuration policy: when switching from BSP
/// to ASP the global batch `n·B` becomes the per-worker batch `B`, the
/// learning rate drops from `n·η` to `η`, and momentum is preserved.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchPlan {
    /// Protocol to switch to.
    pub to: SyncProtocol,
    /// New per-worker batch size.
    pub per_worker_batch: usize,
    /// New learning rate.
    pub learning_rate: f64,
    /// New momentum coefficient.
    pub momentum: f64,
    /// Whether to clear optimizer velocity (needed when the momentum
    /// semantics change discontinuously, e.g. the "Zero" scaling variant).
    pub reset_velocity: bool,
}

impl SwitchPlan {
    /// A plan that changes only the protocol, keeping the configuration's
    /// current hyper-parameters — the shape the adaptive controller executes
    /// for its switches and rollbacks (its job is picking the discipline;
    /// batch/learning-rate scaling is the configuration policy's).
    pub fn keep_hyper(
        cfg: &crate::config::TrainerConfig,
        to: SyncProtocol,
        reset_velocity: bool,
    ) -> Self {
        SwitchPlan {
            to,
            per_worker_batch: cfg.per_worker_batch,
            learning_rate: cfg.learning_rate,
            momentum: cfg.momentum,
            reset_velocity,
        }
    }
}

/// Measured timings of an executed switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchOutcome {
    /// Time to drain in-flight stage-2 reconciliation rounds (zero on a
    /// single-server plane).
    pub drain_time: Duration,
    /// Time to checkpoint the current state.
    pub checkpoint_time: Duration,
    /// Time to propagate the new configuration.
    pub reconfigure_time: Duration,
    /// Time to restore state into the relaunched configuration.
    pub restore_time: Duration,
}

impl SwitchOutcome {
    /// Total switching overhead.
    pub fn total(&self) -> Duration {
        self.drain_time + self.checkpoint_time + self.reconfigure_time + self.restore_time
    }
}

/// Executes a protocol switch on a trainer between segments.
///
/// # Errors
///
/// Returns [`PsError::InvalidConfig`] if the plan produces an invalid
/// configuration, and on a wire tier the error of a server lost during
/// the drain, the restore or the velocity reset.
///
/// # Example
///
/// ```
/// use sync_switch_nn::{Dataset, Network};
/// use sync_switch_ps::{execute_switch, SwitchPlan, Trainer, TrainerConfig};
/// use sync_switch_workloads::SyncProtocol;
///
/// let data = Dataset::gaussian_blobs(3, 40, 5, 0.3, 1);
/// let (train, test) = data.split(0.25);
/// let mut t = Trainer::new(
///     Network::mlp(5, &[8], 3, 1),
///     train,
///     test,
///     TrainerConfig::new(2, 16, 0.2, 0.9),
/// );
/// t.run_segment(SyncProtocol::Bsp, 5)?;
/// let plan = SwitchPlan {
///     to: SyncProtocol::Asp,
///     per_worker_batch: 8,
///     learning_rate: 0.1,
///     momentum: 0.9,
///     reset_velocity: false,
/// };
/// let outcome = execute_switch(&mut t, &plan)?;
/// assert!(outcome.total().as_nanos() > 0);
/// t.run_segment(SyncProtocol::Asp, 5)?;
/// # Ok::<(), sync_switch_ps::PsError>(())
/// ```
pub fn execute_switch(trainer: &mut Trainer, plan: &SwitchPlan) -> Result<SwitchOutcome, PsError> {
    // 0. Drain the data plane: on a multi-server topology any in-flight
    //    stage-2 round must finish (and a final round run) so the committed
    //    view every worker would pull equals the live state being
    //    checkpointed — a BSP↔ASP switch must not leak a half-published
    //    reconciliation across the protocol boundary.
    let td = Instant::now();
    trainer.drain_sync()?;
    let drain_time = td.elapsed();

    // 1. Checkpoint current state (paper: all hook managers checkpoint).
    let t0 = Instant::now();
    let ck = trainer.checkpoint();
    let checkpoint_time = t0.elapsed();

    // 2. Propagate the updated configuration (the actuator), including the
    //    plan's target protocol: the trainer's recorded protocol is what
    //    `run_current_segment` executes, so applying it here is what makes
    //    the switch *happen* rather than depending on every caller to pass
    //    the matching protocol to the next segment by hand.
    let t1 = Instant::now();
    let mut cfg = trainer.config().clone();
    cfg.per_worker_batch = plan.per_worker_batch;
    cfg.learning_rate = plan.learning_rate;
    cfg.momentum = plan.momentum;
    trainer.set_config(cfg)?;
    trainer.set_protocol(plan.to);
    let reconfigure_time = t1.elapsed();

    // 3. Relaunch from the checkpoint.
    let t2 = Instant::now();
    trainer.restore(&ck)?;
    if plan.reset_velocity {
        trainer.reset_velocity()?;
    }
    let restore_time = t2.elapsed();

    // The live Table III: every executed switch, whoever asked for it,
    // leaves its stage durations on the trainer's bus.
    let metrics = &trainer.bus().metrics;
    for (name, stage) in [
        ("switch.drain_ns", drain_time),
        ("switch.checkpoint_ns", checkpoint_time),
        ("switch.reconfigure_ns", reconfigure_time),
        ("switch.restore_ns", restore_time),
    ] {
        metrics.histogram(name).record(stage.as_nanos() as u64);
    }
    Ok(SwitchOutcome {
        drain_time,
        checkpoint_time,
        reconfigure_time,
        restore_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainerConfig;
    use sync_switch_nn::{Dataset, Network};

    fn trainer() -> Trainer {
        let data = Dataset::gaussian_blobs(3, 60, 5, 0.3, 21);
        let (train, test) = data.split(0.25);
        Trainer::new(
            Network::mlp(5, &[10], 3, 21),
            train,
            test,
            TrainerConfig::new(3, 12, 0.3, 0.9).with_seed(21),
        )
    }

    #[test]
    fn switch_preserves_progress_and_applies_config() {
        let mut t = trainer();
        t.run_segment(SyncProtocol::Bsp, 15).unwrap();
        let params_before = t.store().unwrap().snapshot_params();
        let plan = SwitchPlan {
            to: SyncProtocol::Asp,
            per_worker_batch: 4,
            learning_rate: 0.1,
            momentum: 0.9,
            reset_velocity: false,
        };
        let outcome = execute_switch(&mut t, &plan).unwrap();
        assert_eq!(t.global_step(), 15);
        assert_eq!(t.store().unwrap().snapshot_params(), params_before);
        assert_eq!(t.config().per_worker_batch, 4);
        assert_eq!(t.config().learning_rate, 0.1);
        assert_eq!(t.protocol(), SyncProtocol::Asp, "plan target not applied");
        assert!(outcome.total() >= outcome.checkpoint_time);
        // Training continues under the new protocol.
        let r = t.run_segment(SyncProtocol::Asp, 30).unwrap();
        assert_eq!(r.steps, 30);
        assert_eq!(t.global_step(), 45);
    }

    #[test]
    fn executed_plan_drives_the_next_segment() {
        // The regression this pins: execute_switch used to ignore
        // `SwitchPlan::to`, so the protocol that actually ran was whatever
        // the caller happened to pass next. With the plan applied to the
        // trainer, `run_current_segment` runs the plan's target.
        let mut t = trainer();
        assert_eq!(t.protocol(), SyncProtocol::Bsp, "BSP is the safe default");
        t.run_current_segment(10).unwrap();
        let plan = SwitchPlan::keep_hyper(t.config(), SyncProtocol::Asp, false);
        execute_switch(&mut t, &plan).unwrap();
        let r = t.run_current_segment(12).unwrap();
        assert_eq!(r.protocol, SyncProtocol::Asp);
        assert_eq!(t.protocol(), SyncProtocol::Asp);
        // An explicit run_segment is an implicit switch and re-records.
        t.run_segment(SyncProtocol::Bsp, 5).unwrap();
        assert_eq!(t.protocol(), SyncProtocol::Bsp);
    }

    #[test]
    fn reset_velocity_clears_momentum_state() {
        let mut t = trainer();
        t.run_segment(SyncProtocol::Bsp, 10).unwrap();
        assert!(t
            .store()
            .unwrap()
            .snapshot_velocity()
            .iter()
            .any(|&v| v != 0.0));
        let plan = SwitchPlan {
            to: SyncProtocol::Asp,
            per_worker_batch: 12,
            learning_rate: 0.3,
            momentum: 0.0,
            reset_velocity: true,
        };
        execute_switch(&mut t, &plan).unwrap();
        assert!(t
            .store()
            .unwrap()
            .snapshot_velocity()
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn zero_batch_plan_is_refused_and_changes_nothing() {
        // A zero batch used to pass validation, and the next segment's
        // workers all panicked sampling it: a config error reported as a
        // dead server.
        let mut t = trainer();
        let before = t.config().clone();
        let plan = SwitchPlan {
            per_worker_batch: 0,
            ..SwitchPlan::keep_hyper(&before, SyncProtocol::Asp, false)
        };
        let err = execute_switch(&mut t, &plan).unwrap_err();
        assert!(matches!(err, PsError::InvalidConfig(_)), "{err:?}");
        assert_eq!(t.config().per_worker_batch, before.per_worker_batch);
        assert_eq!(t.protocol(), SyncProtocol::Bsp);
    }

    #[test]
    fn multi_server_switch_drains_stage2_rounds() {
        let data = Dataset::gaussian_blobs(3, 60, 5, 0.3, 22);
        let (train, test) = data.split(0.25);
        let cfg = TrainerConfig::new(3, 12, 0.3, 0.9)
            .with_seed(22)
            .with_topology(crate::config::ServerTopology::new(2, 8));
        let mut t = Trainer::new(Network::mlp(5, &[10], 3, 22), train, test, cfg);
        // An ASP segment whose push count is not a multiple of the stage-2
        // period leaves the committed view behind the live state.
        t.run_segment(SyncProtocol::Asp, 30).unwrap();
        let rounds_before = t.sync_rounds();
        let plan = SwitchPlan {
            to: SyncProtocol::Bsp,
            per_worker_batch: 12,
            learning_rate: 0.3,
            momentum: 0.9,
            reset_velocity: false,
        };
        let params_before = t.checkpoint().params;
        let outcome = execute_switch(&mut t, &plan).unwrap();
        // The switch drained in-flight stage-2 state (once before the
        // checkpoint, once inside restore) and preserved the live params.
        assert!(t.sync_rounds() > rounds_before);
        assert_eq!(t.checkpoint().params, params_before);
        assert!(outcome.total() >= outcome.drain_time);
        // BSP continues cleanly from the drained state.
        let r = t.run_segment(SyncProtocol::Bsp, 10).unwrap();
        assert_eq!(r.shard_staleness.max(), Some(0));
        assert_eq!(t.global_step(), 40);
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let mut t = trainer();
        let plan = SwitchPlan {
            to: SyncProtocol::Asp,
            per_worker_batch: 8,
            learning_rate: -1.0,
            momentum: 0.9,
            reset_velocity: false,
        };
        assert!(execute_switch(&mut t, &plan).is_err());
    }
}
