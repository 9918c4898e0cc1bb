//! Deterministic, splittable random-number streams.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic RNG with support for deriving independent sub-streams.
///
/// Every stochastic component of the simulator (per-worker compute jitter,
/// gradient noise, straggler arrival, search-trial outcomes, …) owns its own
/// `DetRng` derived from the experiment seed plus a label, so adding a new
/// consumer never perturbs the draws seen by existing ones.
///
/// # Example
///
/// ```
/// use sync_switch_sim::DetRng;
///
/// let mut a = DetRng::new(42).derive("worker", 0);
/// let mut b = DetRng::new(42).derive("worker", 0);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    inner: StdRng,
}

impl DetRng {
    /// Creates a stream from a root seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            seed,
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// The seed this stream was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent sub-stream identified by a label and index.
    ///
    /// Derivation mixes the label bytes and index into the parent seed with
    /// an FNV-1a style hash; it does not consume any randomness from `self`.
    pub fn derive(&self, label: &str, index: u64) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for byte in label.bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= index;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        DetRng::new(h)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer sample in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen::<f64>() < p
    }

    /// Standard-normal sample via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1: f64 = 1.0 - self.inner.gen::<f64>();
        let u2: f64 = self.inner.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn derive_is_stable_and_label_sensitive() {
        let root = DetRng::new(42);
        let mut w0 = root.derive("worker", 0);
        let mut w0b = root.derive("worker", 0);
        let mut w1 = root.derive("worker", 1);
        let mut n0 = root.derive("network", 0);
        let x = w0.next_u64();
        assert_eq!(x, w0b.next_u64());
        assert_ne!(x, w1.next_u64());
        assert_ne!(x, n0.next_u64());
    }

    #[test]
    fn derive_does_not_consume_parent_state() {
        let mut root = DetRng::new(42);
        let before = root.clone().next_u64();
        let _child = root.derive("x", 0);
        assert_eq!(root.next_u64(), before);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = DetRng::new(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = DetRng::new(2);
        for _ in 0..1000 {
            let x = rng.uniform(3.0, 5.0);
            assert!((3.0..5.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(3);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
