//! The bundled Sync-Switch policy: protocol order + timing + configuration
//! + online straggler handling.

use serde::{Deserialize, Serialize};

use sync_switch_convergence::MomentumScaling;
use sync_switch_workloads::{CalibrationTargets, ExperimentSetup};

use crate::config::ConfigPolicy;
use crate::error::CoreError;
use crate::online::OnlinePolicyKind;
use crate::timing::TimingPolicy;

/// The complete set of policies governing one training job.
///
/// The *protocol policy* is implicit and fixed: BSP first, then ASP — the
/// paper shows the reverse order wastes the ASP time and risks saddle-point
/// stalls (Remark A.3), and its Fig. 5a confirms BSP→ASP dominates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyncSwitchPolicy {
    /// When to switch from BSP to ASP.
    pub timing: TimingPolicy,
    /// How to adjust hyper-parameters on the switch.
    pub config: ConfigPolicy,
    /// How to react to transient stragglers.
    pub online: OnlinePolicyKind,
    /// Test-accuracy evaluation interval in steps (paper: every 2 000 ASP
    /// steps, on the standalone cluster manager).
    pub eval_interval: u64,
    /// Chunk size (in workload units) between straggler-detector
    /// observations during the BSP phase.
    pub detect_chunk: u64,
    /// Optional explicit time-to-accuracy threshold; when `None` the
    /// manager uses the calibrated BSP accuracy minus two run-sigmas.
    pub tta_target: Option<f64>,
}

impl SyncSwitchPolicy {
    /// A policy with the paper's defaults for a given switch fraction.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]` or `cluster_size == 0`.
    pub fn new(fraction: f64, cluster_size: usize) -> Self {
        SyncSwitchPolicy {
            timing: TimingPolicy::at_fraction(fraction),
            config: ConfigPolicy::new(cluster_size),
            online: OnlinePolicyKind::Baseline,
            eval_interval: 2_000,
            detect_chunk: 64,
            tta_target: None,
        }
    }

    /// The policy the paper derived for an experiment setup (Table I):
    /// P1 = 6.25 %, P2 = 12.5 %, P3 = 50 %.
    pub fn paper_policy(setup: &ExperimentSetup) -> Self {
        let calib = CalibrationTargets::for_setup(setup.id);
        Self::new(calib.policy_fraction(), setup.cluster_size)
    }

    /// Pure-BSP baseline (never switches).
    pub fn static_bsp(cluster_size: usize) -> Self {
        Self::new(1.0, cluster_size)
    }

    /// Pure-ASP baseline (switches immediately).
    pub fn static_asp(cluster_size: usize) -> Self {
        Self::new(0.0, cluster_size)
    }

    /// Selects an online straggler policy.
    pub fn with_online(mut self, online: OnlinePolicyKind) -> Self {
        self.online = online;
        self
    }

    /// Selects a momentum-scaling variant for the ASP phase (the Fig. 8b
    /// comparison).
    pub fn with_momentum_scaling(mut self, scaling: MomentumScaling) -> Self {
        self.config = self.config.with_momentum_scaling(scaling);
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPolicy`] describing the first problem.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(0.0..=1.0).contains(&self.timing.switch_fraction) {
            return Err(CoreError::InvalidPolicy(format!(
                "switch fraction {} outside [0,1]",
                self.timing.switch_fraction
            )));
        }
        if self.eval_interval == 0 {
            return Err(CoreError::InvalidPolicy("eval interval is zero".into()));
        }
        if self.detect_chunk == 0 {
            return Err(CoreError::InvalidPolicy("detect chunk is zero".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sync_switch_workloads::SetupId;

    #[test]
    fn paper_policies_match_table1() {
        let p1 = SyncSwitchPolicy::paper_policy(&ExperimentSetup::one());
        let p2 = SyncSwitchPolicy::paper_policy(&ExperimentSetup::two());
        let p3 = SyncSwitchPolicy::paper_policy(&ExperimentSetup::three());
        assert_eq!(p1.timing.switch_fraction, 0.0625);
        assert_eq!(p2.timing.switch_fraction, 0.125);
        assert_eq!(p3.timing.switch_fraction, 0.5);
        assert_eq!(p3.config.cluster_size, 16);
        let _ = SetupId::all();
    }

    #[test]
    fn static_baselines() {
        assert_eq!(SyncSwitchPolicy::static_bsp(8).timing.switch_fraction, 1.0);
        assert_eq!(SyncSwitchPolicy::static_asp(8).timing.switch_fraction, 0.0);
    }

    #[test]
    fn builders_compose() {
        let p = SyncSwitchPolicy::new(0.25, 8)
            .with_online(OnlinePolicyKind::Elastic)
            .with_momentum_scaling(MomentumScaling::Zero);
        assert_eq!(p.online, OnlinePolicyKind::Elastic);
        assert_eq!(p.config.momentum_scaling, MomentumScaling::Zero);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut p = SyncSwitchPolicy::new(0.5, 8);
        p.eval_interval = 0;
        assert!(p.validate().is_err());
        let mut p = SyncSwitchPolicy::new(0.5, 8);
        p.timing.switch_fraction = 1.5;
        assert!(p.validate().is_err());
    }
}
