//! SGD with momentum over flat parameter vectors.

/// Stochastic gradient descent with (heavy-ball) momentum, operating on flat
/// parameter/gradient vectors.
///
/// The update is the classic one used by the paper's ResNet training
/// (momentum 0.9): `v ← μ·v − η·g`, `p ← p + v`.
///
/// The parameter server applies the same update shard by shard with the
/// learning rate and momentum each push carries; this flat form is the
/// sequential-SGD reference the distributed runs are checked against.
///
/// # Example
///
/// ```
/// use sync_switch_nn::SgdMomentum;
/// let mut opt = SgdMomentum::new(2, 0.5, 0.0);
/// let mut p = vec![1.0f32, 2.0];
/// opt.apply(&mut p, &[1.0, 1.0]);
/// assert_eq!(p, vec![0.5, 1.5]);
/// ```
#[derive(Debug, Clone)]
pub struct SgdMomentum {
    lr: f64,
    momentum: f64,
    velocity: Vec<f32>,
}

impl SgdMomentum {
    /// Creates an optimizer for `param_count` parameters.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite-positive or `momentum` is outside
    /// `[0, 1)`.
    pub fn new(param_count: usize, lr: f64, momentum: f64) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "lr must be positive");
        assert!(
            (0.0..1.0).contains(&momentum),
            "momentum must be in [0,1), got {momentum}"
        );
        SgdMomentum {
            lr,
            momentum,
            velocity: vec![0.0; param_count],
        }
    }

    /// Applies one update step in place.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grad` lengths differ from the optimizer's
    /// parameter count.
    pub fn apply(&mut self, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), self.velocity.len(), "params length mismatch");
        assert_eq!(grad.len(), self.velocity.len(), "grad length mismatch");
        let mu = self.momentum as f32;
        let lr = self.lr as f32;
        for ((p, v), g) in params.iter_mut().zip(&mut self.velocity).zip(grad) {
            *v = mu * *v - lr * g;
            *p += *v;
        }
    }

    /// Applies an update to a sub-range (a parameter shard): `params` and
    /// `grad` cover `[offset, offset + len)` of the full vector.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the parameter count or the slices differ
    /// in length.
    pub fn apply_shard(&mut self, offset: usize, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), grad.len(), "shard slice length mismatch");
        assert!(
            offset + params.len() <= self.velocity.len(),
            "shard out of range"
        );
        let mu = self.momentum as f32;
        let lr = self.lr as f32;
        let vel = &mut self.velocity[offset..offset + params.len()];
        for ((p, v), g) in params.iter_mut().zip(vel).zip(grad) {
            *v = mu * *v - lr * g;
            *p += *v;
        }
    }

    /// Resets accumulated velocity (used on protocol switch when momentum
    /// semantics change).
    pub fn reset_velocity(&mut self) {
        self.velocity.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Snapshot of the velocity buffer (for checkpointing).
    pub fn velocity(&self) -> &[f32] {
        &self.velocity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_without_momentum() {
        let mut opt = SgdMomentum::new(3, 0.1, 0.0);
        let mut p = vec![1.0f32, 1.0, 1.0];
        opt.apply(&mut p, &[1.0, 2.0, 3.0]);
        assert_eq!(p, vec![0.9, 0.8, 0.7]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = SgdMomentum::new(1, 0.1, 0.9);
        let mut p = vec![0.0f32];
        opt.apply(&mut p, &[1.0]); // v = -0.1, p = -0.1
        opt.apply(&mut p, &[1.0]); // v = -0.19, p = -0.29
        assert!((p[0] + 0.29).abs() < 1e-6);
    }

    #[test]
    fn shard_updates_equal_full_update() {
        let grad: Vec<f32> = (0..10).map(|i| (i as f32).sin()).collect();
        let mut full = SgdMomentum::new(10, 0.05, 0.9);
        let mut sharded = SgdMomentum::new(10, 0.05, 0.9);
        let mut p_full: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let mut p_shard = p_full.clone();
        for _ in 0..3 {
            full.apply(&mut p_full, &grad);
            let (a, b) = p_shard.split_at_mut(4);
            sharded.apply_shard(0, a, &grad[..4]);
            sharded.apply_shard(4, b, &grad[4..]);
        }
        for (x, y) in p_full.iter().zip(&p_shard) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn velocity_checkpoint_round_trip() {
        let mut opt = SgdMomentum::new(2, 0.1, 0.9);
        let mut p = vec![1.0f32, 2.0];
        opt.apply(&mut p, &[0.5, -0.5]);
        assert_eq!(opt.velocity(), &[-0.05, 0.05]);
        opt.reset_velocity();
        assert!(opt.velocity().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "momentum must be in [0,1)")]
    fn bad_momentum_panics() {
        let _ = SgdMomentum::new(1, 0.1, 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_grad_panics() {
        let mut opt = SgdMomentum::new(2, 0.1, 0.0);
        let mut p = vec![0.0f32, 0.0];
        opt.apply(&mut p, &[1.0]);
    }
}
