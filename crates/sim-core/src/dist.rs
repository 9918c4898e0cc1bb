//! Sampling distributions for compute-time and noise models.

use crate::rng::DetRng;

/// A distribution that can be sampled with a [`DetRng`].
pub trait Sample {
    /// Draws one sample.
    fn sample(&self, rng: &mut DetRng) -> f64;

    /// The distribution mean (used by analytic throughput estimates).
    fn mean(&self) -> f64;
}

/// Normal distribution `N(mean, std²)`.
///
/// # Example
///
/// ```
/// use sync_switch_sim::{DetRng, Normal, Sample};
/// let d = Normal::new(10.0, 2.0);
/// let x = d.sample(&mut DetRng::new(0));
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or either parameter is non-finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(mean.is_finite() && std.is_finite() && std >= 0.0);
        Normal { mean, std }
    }

    /// Standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }
}

impl Sample for Normal {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        self.mean + self.std * rng.standard_normal()
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Log-normal distribution parameterized by the *target* mean and the sigma
/// of the underlying normal (a convenient form for per-step compute jitter:
/// strictly positive, right-skewed like real GPU step times).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal whose *mean* is `mean` with log-space deviation
    /// `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0`, `sigma < 0`, or either is non-finite.
    pub fn with_mean(mean: f64, sigma: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0 && sigma.is_finite() && sigma >= 0.0);
        // E[X] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2
        LogNormal {
            mu: mean.ln() - sigma * sigma / 2.0,
            sigma,
        }
    }

    /// Log-space sigma.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(d: &impl Sample, n: usize, seed: u64) -> f64 {
        let mut rng = DetRng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn normal_mean_matches() {
        let d = Normal::new(5.0, 2.0);
        let m = empirical_mean(&d, 20_000, 10);
        assert!((m - 5.0).abs() < 0.05, "{m}");
        assert_eq!(d.mean(), 5.0);
    }

    #[test]
    fn lognormal_mean_matches_and_positive() {
        let d = LogNormal::with_mean(0.35, 0.2);
        let mut rng = DetRng::new(11);
        let mut sum = 0.0;
        for _ in 0..20_000 {
            let x = d.sample(&mut rng);
            assert!(x > 0.0);
            sum += x;
        }
        let m = sum / 20_000.0;
        assert!((m - 0.35).abs() < 0.01, "{m}");
        assert!((d.mean() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn lognormal_zero_sigma_is_deterministic() {
        let d = LogNormal::with_mean(2.0, 0.0);
        let mut rng = DetRng::new(12);
        for _ in 0..10 {
            assert!((d.sample(&mut rng) - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn lognormal_rejects_nonpositive_mean() {
        let _ = LogNormal::with_mean(0.0, 0.1);
    }
}
