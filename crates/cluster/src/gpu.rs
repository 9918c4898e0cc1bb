//! GPU compute-time model.

use sync_switch_sim::{DetRng, LogNormal, Sample};
use sync_switch_workloads::{GpuKind, ModelSpec};

/// Per-step compute-time model for one worker's accelerator.
///
/// A step's forward+backward time is
/// `(overhead + per_sample · batch) / gpu_speed`, jittered by a lognormal
/// factor (σ = 0.12 in log space) matching the right-skewed step-time
/// distributions observed on real cloud GPUs.
#[derive(Debug, Clone)]
pub struct ComputeModel {
    model: ModelSpec,
    gpu: GpuKind,
    jitter_sigma: f64,
}

impl ComputeModel {
    /// Log-space jitter applied to every sampled step.
    pub const DEFAULT_JITTER_SIGMA: f64 = 0.12;

    /// Creates a compute model for a model/GPU pair.
    pub fn new(model: ModelSpec, gpu: GpuKind) -> Self {
        ComputeModel {
            model,
            gpu,
            jitter_sigma: Self::DEFAULT_JITTER_SIGMA,
        }
    }

    /// The model being trained.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// Mean compute time for a mini-batch of `batch` samples, seconds.
    pub fn mean_time_s(&self, batch: usize) -> f64 {
        self.model.compute_time_s(batch) / self.gpu.speed_factor()
    }

    /// Samples one step's compute time.
    pub fn sample_time_s(&self, batch: usize, rng: &mut DetRng) -> f64 {
        let mean = self.mean_time_s(batch);
        if self.jitter_sigma == 0.0 {
            return mean;
        }
        LogNormal::with_mean(mean, self.jitter_sigma).sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_time_matches_spec() {
        let cm = ComputeModel::new(ModelSpec::resnet32(), GpuKind::K80);
        let expect = ModelSpec::resnet32().compute_time_s(128);
        assert_eq!(cm.mean_time_s(128), expect);
    }

    #[test]
    fn sampling_is_positive_and_centered() {
        let cm = ComputeModel::new(ModelSpec::resnet32(), GpuKind::K80);
        let mut rng = DetRng::new(1);
        let mean = cm.mean_time_s(128);
        let n = 5000;
        let total: f64 = (0..n)
            .map(|_| {
                let t = cm.sample_time_s(128, &mut rng);
                assert!(t > 0.0);
                t
            })
            .sum();
        let empirical = total / n as f64;
        assert!(
            (empirical - mean).abs() / mean < 0.02,
            "empirical {empirical} vs mean {mean}"
        );
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let cm = ComputeModel {
            jitter_sigma: 0.0,
            ..ComputeModel::new(ModelSpec::resnet50(), GpuKind::K80)
        };
        let mut rng = DetRng::new(2);
        let a = cm.sample_time_s(64, &mut rng);
        let b = cm.sample_time_s(64, &mut rng);
        assert_eq!(a, b);
        assert_eq!(a, cm.mean_time_s(64));
    }
}
