//! Property-based tests of the NN substrate.

use proptest::prelude::*;
use sync_switch_nn::{accuracy, Dataset, Network, SgdMomentum, SoftmaxCrossEntropy};
use sync_switch_tensor::Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Softmax rows always sum to 1 and all entries are in (0, 1].
    #[test]
    fn softmax_is_a_distribution(
        logits in proptest::collection::vec(-50.0f32..50.0, 12),
    ) {
        let l = SoftmaxCrossEntropy::new();
        let t = Tensor::from_vec(logits, &[3, 4]);
        let p = l.softmax(&t);
        for i in 0..3 {
            let row: f32 = p.data()[i * 4..(i + 1) * 4].iter().sum();
            prop_assert!((row - 1.0).abs() < 1e-5);
        }
        prop_assert!(p.data().iter().all(|&x| x > 0.0 && x <= 1.0));
    }

    /// Cross-entropy loss is non-negative and finite for bounded logits.
    #[test]
    fn loss_non_negative(
        logits in proptest::collection::vec(-100.0f32..100.0, 8),
        labels in proptest::collection::vec(0usize..4, 2),
    ) {
        let l = SoftmaxCrossEntropy::new();
        let t = Tensor::from_vec(logits, &[2, 4]);
        let loss = l.loss(&t, &labels);
        prop_assert!(loss >= -1e-6 && loss.is_finite());
    }

    /// Flat parameter round trips are exact for arbitrary architectures.
    #[test]
    fn params_flat_round_trip(
        hidden in proptest::collection::vec(1usize..12, 0..3),
        seed in any::<u64>(),
    ) {
        let mut net = Network::mlp(5, &hidden, 3, seed);
        let flat = net.params_flat();
        prop_assert_eq!(flat.len(), net.param_count());
        net.set_params_flat(&flat);
        prop_assert_eq!(net.params_flat(), flat);
    }

    /// Gradients are zero exactly when the loss is already minimal
    /// (perfectly confident correct prediction produces ~0 gradient).
    #[test]
    fn confident_correct_prediction_has_tiny_gradient(label in 0usize..3) {
        let l = SoftmaxCrossEntropy::new();
        let mut logits = Tensor::zeros(&[1, 3]);
        *logits.at_mut(0, label) = 100.0;
        let mut grad = Tensor::default();
        let loss = l.loss_and_grad_into(&logits, &[label], &mut grad);
        prop_assert!(loss < 1e-6);
        prop_assert!(grad.data().iter().all(|g| g.abs() < 1e-6));
    }

    /// SGD with momentum equals plain SGD when momentum is zero.
    #[test]
    fn zero_momentum_is_plain_sgd(
        grads in proptest::collection::vec(-1.0f32..1.0, 6),
        lr in 0.001f64..1.0,
    ) {
        let mut opt = SgdMomentum::new(3, lr, 0.0);
        let mut p = vec![1.0f32, 2.0, 3.0];
        let mut manual = p.clone();
        for chunk in grads.chunks(3) {
            opt.apply(&mut p, chunk);
            for (m, g) in manual.iter_mut().zip(chunk) {
                *m -= lr as f32 * g;
            }
        }
        for (a, b) in p.iter().zip(&manual) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    /// Dataset shards partition the data: total length preserved, every
    /// shard non-empty, classes preserved.
    #[test]
    fn shards_partition(workers in 1usize..8, per_class in 4usize..12) {
        let d = Dataset::gaussian_blobs(3, per_class.max(workers), 4, 0.2, 11);
        let shards: Vec<Dataset> = (0..workers).map(|k| d.shard(k, workers)).collect();
        let total: usize = shards.iter().map(Dataset::len).sum();
        prop_assert_eq!(total, d.len());
        for s in &shards {
            prop_assert!(!s.is_empty());
            prop_assert_eq!(s.classes(), d.classes());
            prop_assert_eq!(s.dim(), d.dim());
        }
    }

    /// Accuracy is the fraction of argmax hits, always within [0, 1].
    #[test]
    fn accuracy_bounds(
        logits in proptest::collection::vec(-5.0f32..5.0, 20),
        labels in proptest::collection::vec(0usize..5, 4),
    ) {
        let t = Tensor::from_vec(logits, &[4, 5]);
        let a = accuracy(&t, &labels);
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert_eq!((a * 4.0).round(), a * 4.0); // quantized to 1/4ths
    }
}
