//! The configuration policy: hyper-parameter adjustment on protocol switch
//! (paper §IV-C).

use serde::{Deserialize, Serialize};

use sync_switch_convergence::MomentumScaling;
use sync_switch_workloads::{HyperParams, SyncProtocol};

/// Hyper-parameters adjusted for a specific protocol, derived from the
/// user-provided initial set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdjustedConfig {
    /// Protocol the configuration is for.
    pub protocol: SyncProtocol,
    /// Per-worker mini-batch size.
    pub per_worker_batch: usize,
    /// Global (effective) batch size per parameter update.
    pub global_batch: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient at the moment of the switch.
    pub momentum: f64,
    /// Momentum-scaling variant governing post-switch evolution.
    pub momentum_scaling: MomentumScaling,
}

/// The Sync-Switch configuration policy.
///
/// Given the practitioner's initial hyper-parameters (`B`, `η`, `μ`) and
/// the cluster size `n`:
///
/// * **BSP** runs with global batch `n·B` (TensorFlow distributes it, so
///   each worker still computes `B`) and the linearly-scaled rate `n·η`
///   (Goyal et al.'s rule, adopted by the paper).
/// * **ASP** runs with per-worker batch `B` and rate `η`.
/// * **Momentum** is kept at `μ` for both — the paper's empirical finding
///   (Fig. 8b, leftmost bar); the alternative scalings that figure compares
///   are expressible too.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigPolicy {
    /// Cluster size `n`.
    pub cluster_size: usize,
    /// Momentum-scaling variant to use after switching to ASP.
    pub momentum_scaling: MomentumScaling,
}

impl ConfigPolicy {
    /// Creates the paper's configuration policy for an `n`-worker cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_size == 0`.
    pub fn new(cluster_size: usize) -> Self {
        assert!(cluster_size > 0, "cluster size must be positive");
        ConfigPolicy {
            cluster_size,
            momentum_scaling: MomentumScaling::Baseline,
        }
    }

    /// Uses an alternative momentum-scaling variant (the Fig. 8b ablation).
    pub fn with_momentum_scaling(mut self, scaling: MomentumScaling) -> Self {
        self.momentum_scaling = scaling;
        self
    }

    /// Derives the configuration for running under `protocol` with `n`
    /// *currently active* workers (the elastic policy can shrink this below
    /// `cluster_size`).
    pub fn for_protocol(&self, hyper: &HyperParams, protocol: SyncProtocol) -> AdjustedConfig {
        self.for_protocol_with_active(hyper, protocol, self.cluster_size)
    }

    /// Like [`ConfigPolicy::for_protocol`] but with an explicit active
    /// worker count.
    ///
    /// # Panics
    ///
    /// Panics if `active == 0` or `active > cluster_size`.
    pub fn for_protocol_with_active(
        &self,
        hyper: &HyperParams,
        protocol: SyncProtocol,
        active: usize,
    ) -> AdjustedConfig {
        assert!(
            active > 0 && active <= self.cluster_size,
            "active workers {active} out of range for cluster {}",
            self.cluster_size
        );
        match protocol {
            SyncProtocol::Bsp => AdjustedConfig {
                protocol,
                per_worker_batch: hyper.batch_size,
                global_batch: active * hyper.batch_size,
                learning_rate: active as f64 * hyper.learning_rate,
                momentum: hyper.momentum,
                momentum_scaling: MomentumScaling::Baseline,
            },
            SyncProtocol::Asp => {
                let momentum =
                    self.momentum_scaling
                        .effective_momentum(0, self.cluster_size, hyper.momentum);
                AdjustedConfig {
                    protocol,
                    per_worker_batch: hyper.batch_size,
                    global_batch: hyper.batch_size,
                    learning_rate: hyper.learning_rate,
                    momentum,
                    momentum_scaling: self.momentum_scaling,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hyper() -> HyperParams {
        HyperParams::resnet_cifar()
    }

    #[test]
    fn bsp_config_scales_linearly() {
        let p = ConfigPolicy::new(8);
        let c = p.for_protocol(&hyper(), SyncProtocol::Bsp);
        assert_eq!(c.global_batch, 1024);
        assert_eq!(c.per_worker_batch, 128);
        assert!((c.learning_rate - 0.8).abs() < 1e-12);
        assert_eq!(c.momentum, 0.9);
    }

    #[test]
    fn asp_config_uses_base_values() {
        let p = ConfigPolicy::new(8);
        let c = p.for_protocol(&hyper(), SyncProtocol::Asp);
        assert_eq!(c.global_batch, 128);
        assert_eq!(c.per_worker_batch, 128);
        assert!((c.learning_rate - 0.1).abs() < 1e-12);
        assert_eq!(c.momentum, 0.9); // baseline keeps momentum
    }

    #[test]
    fn elastic_shrink_rescales_bsp() {
        let p = ConfigPolicy::new(8);
        let c = p.for_protocol_with_active(&hyper(), SyncProtocol::Bsp, 7);
        assert_eq!(c.global_batch, 7 * 128);
        assert!((c.learning_rate - 0.7).abs() < 1e-12);
    }

    #[test]
    fn momentum_variants_change_initial_momentum() {
        let p = ConfigPolicy::new(8).with_momentum_scaling(MomentumScaling::Zero);
        let c = p.for_protocol(&hyper(), SyncProtocol::Asp);
        assert_eq!(c.momentum, 0.0);
        let p = ConfigPolicy::new(8).with_momentum_scaling(MomentumScaling::FixedScaled);
        let c = p.for_protocol(&hyper(), SyncProtocol::Asp);
        assert!((c.momentum - 0.125).abs() < 1e-12);
        // BSP side is never affected by the ASP scaling variant.
        let c = p.for_protocol(&hyper(), SyncProtocol::Bsp);
        assert_eq!(c.momentum, 0.9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_active_panics() {
        let p = ConfigPolicy::new(4);
        let _ = p.for_protocol_with_active(&hyper(), SyncProtocol::Bsp, 0);
    }
}
