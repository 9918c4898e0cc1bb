//! Deterministic synthetic datasets with data-parallel sharding.
//!
//! The paper trains on CIFAR-10/100; this substrate substitutes procedurally
//! generated classification data of configurable difficulty (documented in
//! `DESIGN.md`). What matters for Sync-Switch is that workers train on
//! *disjoint shards* with real SGD dynamics, which these datasets provide.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sync_switch_tensor::Tensor;

/// An in-memory labelled dataset: `[n, dim]` features plus integer labels.
#[derive(Debug, Clone)]
pub struct Dataset {
    x: Tensor,
    y: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Gaussian blobs: class `c` is an isotropic Gaussian around a random
    /// unit-ish center; `spread` controls overlap (and therefore achievable
    /// accuracy). Fully determined by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or `spread` is not positive.
    pub fn gaussian_blobs(
        classes: usize,
        per_class: usize,
        dim: usize,
        spread: f64,
        seed: u64,
    ) -> Self {
        assert!(classes > 0 && per_class > 0 && dim > 0, "empty dataset");
        assert!(spread > 0.0, "spread must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f64>> = (0..classes)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let n = classes * per_class;
        let mut data = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        // Interleave classes so contiguous shards stay class-balanced.
        for i in 0..per_class {
            for (c, center) in centers.iter().enumerate() {
                let _ = i;
                for &cj in center {
                    data.push((cj + spread * normal(&mut rng)) as f32);
                }
                labels.push(c);
            }
        }
        Dataset {
            x: Tensor::from_vec(data, &[n, dim]),
            y: labels,
            classes,
        }
    }

    /// Procedural "images": each class is a distinct spatial pattern
    /// (stripes / checkers / gradients at class-dependent frequency and
    /// orientation) over a `side × side` grid plus Gaussian pixel noise.
    /// A stand-in for CIFAR with controllable difficulty.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or `noise` is negative.
    pub fn synthetic_images(
        classes: usize,
        per_class: usize,
        side: usize,
        noise: f64,
        seed: u64,
    ) -> Self {
        assert!(classes > 0 && per_class > 0 && side > 0, "empty dataset");
        assert!(noise >= 0.0, "noise must be non-negative");
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = side * side;
        let n = classes * per_class;
        let mut data = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..per_class {
            for c in 0..classes {
                let _ = i;
                let freq = 1.0 + (c % 4) as f64;
                let angle = (c as f64) * std::f64::consts::PI / classes as f64;
                let (ca, sa) = (angle.cos(), angle.sin());
                let phase = rng.gen_range(0.0..std::f64::consts::TAU);
                for r in 0..side {
                    for col in 0..side {
                        let u = (r as f64 / side as f64 - 0.5) * ca
                            + (col as f64 / side as f64 - 0.5) * sa;
                        let signal = (freq * std::f64::consts::TAU * u + phase).sin();
                        data.push((signal + noise * normal(&mut rng)) as f32);
                    }
                }
                labels.push(c);
            }
        }
        Dataset {
            x: Tensor::from_vec(data, &[n, dim]),
            y: labels,
            classes,
        }
    }

    /// Shifted-patterns signals: class `c` is a short class-specific
    /// waveform (a windowed sinusoid at class-dependent frequency) placed at
    /// a **uniformly random shift** within a `length`-sample signal, plus
    /// Gaussian noise. Because the class evidence can sit anywhere, locality
    /// matters: a convolutional detector finds the pattern at any shift,
    /// while a position-bound model has to learn every placement
    /// separately. Fully determined by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero, `length < 8`, or `noise` is negative.
    pub fn shifted_patterns(
        classes: usize,
        per_class: usize,
        length: usize,
        noise: f64,
        seed: u64,
    ) -> Self {
        assert!(classes > 0 && per_class > 0, "empty dataset");
        assert!(length >= 8, "signal too short for a pattern");
        assert!(noise >= 0.0, "noise must be non-negative");
        let mut rng = StdRng::seed_from_u64(seed);
        let width = 8usize;
        let n = classes * per_class;
        let mut data = Vec::with_capacity(n * length);
        let mut labels = Vec::with_capacity(n);
        // Interleave classes so contiguous shards stay class-balanced.
        for _ in 0..per_class {
            for c in 0..classes {
                // Class template: half-sine envelope × class frequency.
                let freq = 1.0 + c as f64;
                let shift = rng.gen_range(0..length - width + 1);
                for j in 0..length {
                    let signal = if (shift..shift + width).contains(&j) {
                        let u = (j - shift) as f64 / (width - 1) as f64;
                        let envelope = (std::f64::consts::PI * u).sin();
                        envelope * (std::f64::consts::TAU * freq * u).cos()
                    } else {
                        0.0
                    };
                    data.push((signal + noise * normal(&mut rng)) as f32);
                }
                labels.push(c);
            }
        }
        Dataset {
            x: Tensor::from_vec(data, &[n, length]),
            y: labels,
            classes,
        }
    }

    /// Zipf-sampled token sequences: each example is `tokens` integer token
    /// ids (carried as `f32`, the input an embedding layer expects) drawn
    /// from a Zipf distribution with exponent `skew` — a few head tokens
    /// dominate, the tail is rare, like real vocabularies. Class signal:
    /// each class owns a contiguous band of `vocab / classes` ids, and
    /// every token is drawn from the class band with probability 0.7
    /// (Zipf-ranked within the band) or from the shared global Zipf
    /// otherwise. Gradients of an embedding trained on this touch only the
    /// sampled rows, making it the canonical sparse-push workload.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero, `vocab < classes`, or `skew` is not
    /// positive.
    pub fn zipf_tokens(
        classes: usize,
        per_class: usize,
        vocab: usize,
        tokens: usize,
        skew: f64,
        seed: u64,
    ) -> Self {
        assert!(classes > 0 && per_class > 0 && tokens > 0, "empty dataset");
        assert!(vocab >= classes, "vocab smaller than class count");
        assert!(skew > 0.0, "skew must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let band = vocab / classes;
        let global_cdf = zipf_cdf(vocab, skew);
        let band_cdf = zipf_cdf(band, skew);
        let n = classes * per_class;
        let mut data = Vec::with_capacity(n * tokens);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..per_class {
            for c in 0..classes {
                for _ in 0..tokens {
                    let id = if rng.gen::<f64>() < 0.7 {
                        c * band + zipf_draw(&band_cdf, &mut rng)
                    } else {
                        zipf_draw(&global_cdf, &mut rng)
                    };
                    data.push(id as f32);
                }
                labels.push(c);
            }
        }
        Dataset {
            x: Tensor::from_vec(data, &[n, tokens]),
            y: labels,
            classes,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset is empty (never true for validated constructors).
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.x.cols()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Features tensor.
    pub fn features(&self) -> &Tensor {
        &self.x
    }

    /// Labels slice.
    pub fn labels(&self) -> &[usize] {
        &self.y
    }

    /// Extracts the rows at `indices` as a `(features, labels)` batch.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds or `indices` is empty.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        assert!(!indices.is_empty(), "batch must be non-empty");
        let dim = self.dim();
        let mut data = Vec::with_capacity(indices.len() * dim);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "index {i} out of bounds");
            data.extend_from_slice(&self.x.data()[i * dim..(i + 1) * dim]);
            labels.push(self.y[i]);
        }
        (Tensor::from_vec(data, &[indices.len(), dim]), labels)
    }

    /// Draws a uniformly random batch of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn sample_batch<R: Rng>(&self, batch_size: usize, rng: &mut R) -> (Tensor, Vec<usize>) {
        assert!(batch_size > 0, "batch size must be positive");
        let indices: Vec<usize> = (0..batch_size)
            .map(|_| rng.gen_range(0..self.len()))
            .collect();
        self.batch(&indices)
    }

    /// Returns worker `k`'s shard under `n`-way data parallelism (contiguous
    /// block partition, as when the training data are "partitioned and
    /// offloaded to the workers", paper §II-A).
    ///
    /// # Panics
    ///
    /// Panics if `k >= n`, `n == 0`, or the dataset has fewer rows than `n`.
    pub fn shard(&self, k: usize, n: usize) -> Dataset {
        assert!(n > 0 && k < n, "invalid shard {k}/{n}");
        assert!(self.len() >= n, "dataset smaller than shard count");
        let per = self.len() / n;
        let start = k * per;
        let end = if k == n - 1 { self.len() } else { start + per };
        let indices: Vec<usize> = (start..end).collect();
        let (x, y) = self.batch(&indices);
        Dataset {
            x,
            y,
            classes: self.classes,
        }
    }

    /// Splits into `(train, test)` with `test_fraction` of rows held out
    /// from the tail.
    ///
    /// # Panics
    ///
    /// Panics if the split would leave either side empty.
    pub fn split(&self, test_fraction: f64) -> (Dataset, Dataset) {
        let test_n = ((self.len() as f64) * test_fraction).round() as usize;
        assert!(
            test_n > 0 && test_n < self.len(),
            "split leaves an empty side"
        );
        let train_idx: Vec<usize> = (0..self.len() - test_n).collect();
        let test_idx: Vec<usize> = (self.len() - test_n..self.len()).collect();
        let (tx, ty) = self.batch(&train_idx);
        let (ex, ey) = self.batch(&test_idx);
        (
            Dataset {
                x: tx,
                y: ty,
                classes: self.classes,
            },
            Dataset {
                x: ex,
                y: ey,
                classes: self.classes,
            },
        )
    }
}

/// Cumulative distribution of a Zipf law over ranks `0..n` with exponent
/// `s`: `P(k) ∝ 1 / (k + 1)^s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for k in 0..n {
        acc += 1.0 / ((k + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// Draws a rank from a precomputed Zipf CDF by binary search.
fn zipf_draw<R: Rng>(cdf: &[f64], rng: &mut R) -> usize {
    let u: f64 = rng.gen();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

fn normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_shape_and_determinism() {
        let a = Dataset::gaussian_blobs(3, 10, 4, 0.2, 5);
        let b = Dataset::gaussian_blobs(3, 10, 4, 0.2, 5);
        assert_eq!(a.len(), 30);
        assert_eq!(a.dim(), 4);
        assert_eq!(a.features().data(), b.features().data());
        let c = Dataset::gaussian_blobs(3, 10, 4, 0.2, 6);
        assert_ne!(a.features().data(), c.features().data());
    }

    #[test]
    fn images_have_class_structure() {
        let d = Dataset::synthetic_images(4, 8, 8, 0.05, 1);
        assert_eq!(d.len(), 32);
        assert_eq!(d.dim(), 64);
        assert_eq!(d.classes(), 4);
        assert!(d.labels().iter().all(|&l| l < 4));
    }

    #[test]
    fn batch_extracts_rows() {
        let d = Dataset::gaussian_blobs(2, 5, 3, 0.1, 0);
        let (x, y) = d.batch(&[0, 9]);
        assert_eq!(x.shape(), &[2, 3]);
        assert_eq!(y[0], d.labels()[0]);
        assert_eq!(y[1], d.labels()[9]);
        assert_eq!(&x.data()[0..3], &d.features().data()[0..3]);
    }

    #[test]
    fn shards_partition_the_data() {
        let d = Dataset::gaussian_blobs(4, 25, 3, 0.1, 2);
        let n = 4;
        let shards: Vec<Dataset> = (0..n).map(|k| d.shard(k, n)).collect();
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, d.len());
        // Class interleaving keeps shards balanced.
        for s in &shards {
            for c in 0..4 {
                let count = s.labels().iter().filter(|&&l| l == c).count();
                assert!(count > 0, "shard missing class {c}");
            }
        }
        // Shards are disjoint: first rows differ.
        assert_ne!(
            &shards[0].features().data()[..3],
            &shards[1].features().data()[..3]
        );
    }

    #[test]
    fn last_shard_takes_remainder() {
        let d = Dataset::gaussian_blobs(1, 10, 2, 0.1, 3);
        let s0 = d.shard(0, 3);
        let s2 = d.shard(2, 3);
        assert_eq!(s0.len(), 3);
        assert_eq!(s2.len(), 4);
    }

    #[test]
    fn split_holds_out_tail() {
        let d = Dataset::gaussian_blobs(2, 50, 3, 0.1, 4);
        let (train, test) = d.split(0.2);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
    }

    #[test]
    fn sample_batch_is_seeded() {
        let d = Dataset::gaussian_blobs(2, 50, 3, 0.1, 4);
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let (x1, y1) = d.sample_batch(16, &mut r1);
        let (x2, y2) = d.sample_batch(16, &mut r2);
        assert_eq!(x1.data(), x2.data());
        assert_eq!(y1, y2);
    }

    #[test]
    #[should_panic(expected = "invalid shard")]
    fn bad_shard_panics() {
        let d = Dataset::gaussian_blobs(2, 5, 2, 0.1, 0);
        let _ = d.shard(3, 3);
    }

    #[test]
    fn shifted_patterns_shape_and_determinism() {
        let a = Dataset::shifted_patterns(3, 10, 24, 0.05, 7);
        let b = Dataset::shifted_patterns(3, 10, 24, 0.05, 7);
        assert_eq!(a.len(), 30);
        assert_eq!(a.dim(), 24);
        assert_eq!(a.classes(), 3);
        assert_eq!(a.features().data(), b.features().data());
        assert_ne!(
            a.features().data(),
            Dataset::shifted_patterns(3, 10, 24, 0.05, 8)
                .features()
                .data()
        );
        // The pattern actually moves: two same-class examples with the
        // noiseless generator differ (different shifts).
        let clean = Dataset::shifted_patterns(2, 20, 24, 0.0, 1);
        let rows: Vec<&[f32]> = (0..clean.len())
            .filter(|&i| clean.labels()[i] == 0)
            .map(|i| &clean.features().data()[i * 24..(i + 1) * 24])
            .collect();
        assert!(
            rows.windows(2).any(|w| w[0] != w[1]),
            "every class-0 example sits at the same shift"
        );
    }

    #[test]
    fn zipf_tokens_are_valid_ids_with_head_mass() {
        let d = Dataset::zipf_tokens(4, 25, 64, 8, 1.1, 3);
        assert_eq!(d.len(), 100);
        assert_eq!(d.dim(), 8);
        let mut counts = vec![0usize; 64];
        for &raw in d.features().data() {
            assert!(raw >= 0.0 && raw.fract() == 0.0, "non-integer token {raw}");
            let id = raw as usize;
            assert!(id < 64, "token {id} out of vocab");
            counts[id] += 1;
        }
        // Zipf head: band-leading tokens (rank 0 of each class band) carry
        // far more mass than the band tails.
        let band = 64 / 4;
        let heads: usize = (0..4).map(|c| counts[c * band]).sum();
        let tails: usize = (0..4).map(|c| counts[c * band + band - 1]).sum();
        assert!(heads > 4 * tails.max(1), "no Zipf skew: {heads} vs {tails}");
        // Determinism.
        let e = Dataset::zipf_tokens(4, 25, 64, 8, 1.1, 3);
        assert_eq!(d.features().data(), e.features().data());
    }

    #[test]
    fn zipf_tokens_carry_class_signal() {
        let d = Dataset::zipf_tokens(2, 50, 32, 10, 1.0, 5);
        let band = 16;
        // Most tokens of a class-c example land in c's band.
        let mut in_band = 0usize;
        let mut total = 0usize;
        for i in 0..d.len() {
            let c = d.labels()[i];
            for &raw in &d.features().data()[i * 10..(i + 1) * 10] {
                let id = raw as usize;
                // Class 0's band doubles as the global Zipf head, so only
                // count class-1 rows for an unambiguous signal.
                if c == 1 {
                    total += 1;
                    if id / band == 1 {
                        in_band += 1;
                    }
                }
            }
        }
        assert!(
            in_band * 2 > total,
            "class band carries no signal: {in_band}/{total}"
        );
    }
}
