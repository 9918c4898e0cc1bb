//! Hyper-parameters and learning-rate schedules.

use serde::{Deserialize, Serialize};

/// A piecewise-constant learning-rate decay schedule.
///
/// The paper uses the original ResNet schedule: decay by ×0.1 at 32 K steps
/// and ×0.01 at 48 K steps of a 64 K-step run (factors are relative to the
/// base rate, not cumulative).
///
/// # Example
///
/// ```
/// use sync_switch_workloads::LrSchedule;
///
/// let s = LrSchedule::piecewise(vec![(32_000, 0.1), (48_000, 0.01)]);
/// assert_eq!(s.factor_at(0), 1.0);
/// assert_eq!(s.factor_at(32_000), 0.1);
/// assert_eq!(s.factor_at(63_999), 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LrSchedule {
    /// `(step, factor)` boundaries, strictly increasing in step.
    boundaries: Vec<(u64, f64)>,
}

impl LrSchedule {
    /// A constant schedule (factor 1 everywhere).
    pub fn constant() -> Self {
        LrSchedule {
            boundaries: Vec::new(),
        }
    }

    /// Builds a piecewise schedule from `(boundary_step, factor)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if boundaries are not strictly increasing or a factor is not in
    /// `(0, 1]`.
    pub fn piecewise(boundaries: Vec<(u64, f64)>) -> Self {
        let mut prev = None;
        for &(step, factor) in &boundaries {
            if let Some(p) = prev {
                assert!(step > p, "boundaries must be strictly increasing");
            }
            assert!(
                factor > 0.0 && factor <= 1.0,
                "decay factor must be in (0,1], got {factor}"
            );
            prev = Some(step);
        }
        LrSchedule { boundaries }
    }

    /// The decay factor in effect at `step`.
    pub fn factor_at(&self, step: u64) -> f64 {
        let mut factor = 1.0;
        for &(boundary, f) in &self.boundaries {
            if step >= boundary {
                factor = f;
            } else {
                break;
            }
        }
        factor
    }

    /// The schedule boundaries.
    pub fn boundaries(&self) -> &[(u64, f64)] {
        &self.boundaries
    }

    /// Rescales all boundary steps by `num/den` (used when a workload is
    /// stretched to a different total step count).
    pub fn rescaled(&self, num: u64, den: u64) -> LrSchedule {
        assert!(den > 0, "denominator must be positive");
        LrSchedule {
            boundaries: self
                .boundaries
                .iter()
                .map(|&(s, f)| (s * num / den, f))
                .collect(),
        }
    }
}

/// Initial hyper-parameters provided by the deep-learning practitioner
/// (paper §IV-C assumes these as the user-supplied starting point).
///
/// `batch_size` and `learning_rate` are the *per-worker ASP* values `B` and
/// `η`; the configuration policy derives the BSP values `n·B` and `n·η`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HyperParams {
    /// Per-worker mini-batch size `B`.
    pub batch_size: usize,
    /// Base learning rate `η`.
    pub learning_rate: f64,
    /// SGD momentum coefficient.
    pub momentum: f64,
    /// Total training workload in steps (global parameter updates).
    pub total_steps: u64,
    /// Learning-rate decay schedule over `total_steps`.
    pub lr_schedule: LrSchedule,
}

impl HyperParams {
    /// The paper's ResNet configuration: 64 K steps, batch 128, η 0.1,
    /// momentum 0.9, decay ×0.1 @32 K and ×0.01 @48 K.
    pub fn resnet_cifar() -> Self {
        HyperParams {
            batch_size: 128,
            learning_rate: 0.1,
            momentum: 0.9,
            total_steps: 64_000,
            lr_schedule: LrSchedule::piecewise(vec![(32_000, 0.1), (48_000, 0.01)]),
        }
    }

    /// The setup-2 configuration (ResNet50/CIFAR-100): 128 K steps with the
    /// decay boundaries stretched proportionally.
    pub fn resnet_cifar100() -> Self {
        HyperParams {
            batch_size: 128,
            learning_rate: 0.1,
            momentum: 0.9,
            total_steps: 128_000,
            lr_schedule: LrSchedule::piecewise(vec![(64_000, 0.1), (96_000, 0.01)]),
        }
    }

    /// Hyper-parameters for the MLP-on-Gaussian-blobs trainable workload
    /// (the real-PS smoke workload: small batch, short constant-rate run).
    pub fn mlp_blobs() -> Self {
        HyperParams {
            batch_size: 8,
            learning_rate: 0.05,
            momentum: 0.9,
            total_steps: 240,
            lr_schedule: LrSchedule::constant(),
        }
    }

    /// Hyper-parameters for the conv-on-shifted-patterns trainable
    /// workload. Same batch and momentum as the MLP; the filter bank
    /// tolerates a slightly hotter rate because max pooling sparsifies the
    /// backward signal.
    pub fn conv_shifted() -> Self {
        HyperParams {
            batch_size: 8,
            learning_rate: 0.08,
            momentum: 0.9,
            total_steps: 240,
            lr_schedule: LrSchedule::constant(),
        }
    }

    /// Hyper-parameters for the sparse-embedding trainable workload. The
    /// mean-pooled table rows see roughly `tokens`-fold smaller gradients
    /// than a dense layer of the same width, hence the hotter base rate —
    /// but not hotter than ASP staleness tolerates: 0.25 diverges under
    /// 4 async workers on a committed-view (wire) tier, 0.15 trains
    /// under every supported discipline. Exactly the workload-dependent
    /// BSP/ASP sensitivity the paper's argument rests on.
    pub fn sparse_embedding() -> Self {
        HyperParams {
            batch_size: 8,
            learning_rate: 0.15,
            momentum: 0.9,
            total_steps: 240,
            lr_schedule: LrSchedule::constant(),
        }
    }

    /// The workload fraction `step / total_steps`, clamped to `[0, 1]`.
    pub fn fraction_at(&self, step: u64) -> f64 {
        (step as f64 / self.total_steps as f64).clamp(0.0, 1.0)
    }

    /// The step corresponding to workload fraction `f` (clamped to `[0,1]`).
    pub fn step_at_fraction(&self, f: f64) -> u64 {
        let f = f.clamp(0.0, 1.0);
        (f * self.total_steps as f64).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_factors() {
        let h = HyperParams::resnet_cifar();
        let rate = |step| h.learning_rate * h.lr_schedule.factor_at(step);
        assert_eq!(rate(0), 0.1);
        assert_eq!(rate(31_999), 0.1);
        assert!((rate(32_000) - 0.01).abs() < 1e-12);
        assert!((rate(48_000) - 0.001).abs() < 1e-12);
        assert_eq!(h.lr_schedule.boundaries()[0].0, 32_000);
    }

    #[test]
    fn constant_schedule() {
        let s = LrSchedule::constant();
        assert_eq!(s.factor_at(0), 1.0);
        assert_eq!(s.factor_at(1_000_000), 1.0);
        assert!(s.boundaries().is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_boundaries_panic() {
        let _ = LrSchedule::piecewise(vec![(100, 0.1), (50, 0.01)]);
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn bad_factor_panics() {
        let _ = LrSchedule::piecewise(vec![(100, 1.5)]);
    }

    #[test]
    fn fraction_round_trip() {
        let h = HyperParams::resnet_cifar();
        assert_eq!(h.step_at_fraction(0.0625), 4_000);
        assert_eq!(h.step_at_fraction(0.5), 32_000);
        assert!((h.fraction_at(4_000) - 0.0625).abs() < 1e-12);
        assert_eq!(h.fraction_at(200_000), 1.0);
        assert_eq!(h.step_at_fraction(2.0), 64_000);
    }

    #[test]
    fn rescaled_schedule() {
        let s = LrSchedule::piecewise(vec![(32_000, 0.1), (48_000, 0.01)]);
        let r = s.rescaled(2, 1);
        assert_eq!(r.boundaries(), &[(64_000, 0.1), (96_000, 0.01)]);
        assert_eq!(r.factor_at(63_999), 1.0);
    }

    #[test]
    fn setup2_schedule_is_stretched() {
        let h = HyperParams::resnet_cifar100();
        assert_eq!(h.total_steps, 128_000);
        assert_eq!(h.lr_schedule.boundaries()[0].0, 64_000);
        // Decay boundaries sit at the same workload fractions as setup 1.
        assert!((h.fraction_at(64_000) - 0.5).abs() < 1e-12);
    }
}
