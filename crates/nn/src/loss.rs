//! Softmax cross-entropy loss.

use sync_switch_tensor::Tensor;

/// Numerically-stable softmax cross-entropy over class logits.
///
/// Matches the paper's training objective ("training loss is calculated
/// based on the cross-entropy loss function per mini-batch", §VI-A).
#[derive(Debug, Default, Clone)]
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Creates the loss function.
    pub fn new() -> Self {
        SoftmaxCrossEntropy
    }

    /// Row-wise softmax of `[batch, classes]` logits.
    pub fn softmax(&self, logits: &Tensor) -> Tensor {
        let mut out = logits.clone();
        softmax_in_place(&mut out);
        out
    }

    /// Mean cross-entropy loss of `[batch, classes]` logits against integer
    /// labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the batch size or a label is
    /// out of range.
    pub fn loss(&self, logits: &Tensor, labels: &[usize]) -> f32 {
        let probs = self.softmax(logits);
        let (b, c) = (probs.rows(), probs.cols());
        assert_eq!(labels.len(), b, "labels/batch size mismatch");
        let mut total = 0.0;
        for (i, &y) in labels.iter().enumerate() {
            assert!(y < c, "label {y} out of range for {c} classes");
            total -= probs.data()[i * c + y].max(1e-12).ln();
        }
        total / b as f32
    }

    /// Mean loss plus its gradient with respect to the logits,
    /// `(softmax − one_hot) / batch`, written into `grad`: the softmax is
    /// computed there, each label's probability is read into the loss
    /// before its entry is shifted, then the whole is scaled. `grad` is
    /// reshaped in place, so a kept buffer costs no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the batch size or a label is
    /// out of range.
    pub fn loss_and_grad_into(&self, logits: &Tensor, labels: &[usize], grad: &mut Tensor) -> f32 {
        grad.clone_from(logits);
        softmax_in_place(grad);
        let (b, c) = (grad.rows(), grad.cols());
        assert_eq!(labels.len(), b, "labels/batch size mismatch");
        let mut total = 0.0;
        for (i, &y) in labels.iter().enumerate() {
            assert!(y < c, "label {y} out of range for {c} classes");
            let p = &mut grad.data_mut()[i * c + y];
            total -= p.max(1e-12).ln();
            *p -= 1.0;
        }
        grad.scale_assign(1.0 / b as f32);
        total / b as f32
    }
}

/// Replaces each row of `[batch, classes]` logits by its softmax.
fn softmax_in_place(t: &mut Tensor) {
    let c = t.cols();
    for row in t.data_mut().chunks_exact_mut(c) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Loss and gradient in allocating form, the softmax and the gradient
    /// in two tensors: the reference
    /// [`SoftmaxCrossEntropy::loss_and_grad_into`] must equal bit for bit.
    pub(crate) fn reference_loss_and_grad(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let probs = SoftmaxCrossEntropy.softmax(logits);
        let (b, c) = (probs.rows(), probs.cols());
        assert_eq!(labels.len(), b, "labels/batch size mismatch");
        let mut grad = probs.clone();
        let mut total = 0.0;
        for (i, &y) in labels.iter().enumerate() {
            assert!(y < c, "label {y} out of range for {c} classes");
            total -= probs.data()[i * c + y].max(1e-12).ln();
            grad.data_mut()[i * c + y] -= 1.0;
        }
        grad.scale_assign(1.0 / b as f32);
        (total / b as f32, grad)
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let l = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let p = l.softmax(&logits);
        for i in 0..2 {
            let s: f32 = p.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Softmax is shift-invariant: both rows differ by a constant 2.
        for j in 0..3 {
            assert!((p.at(0, j) - p.at(1, j)).abs() < 1e-6);
        }
    }

    #[test]
    fn loss_of_uniform_logits_is_log_classes() {
        let l = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(&[4, 10]);
        let labels = vec![0, 3, 7, 9];
        let loss = l.loss(&logits, &labels);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_prediction_has_near_zero_loss() {
        let l = SoftmaxCrossEntropy::new();
        let mut logits = Tensor::zeros(&[2, 3]);
        *logits.at_mut(0, 1) = 50.0;
        *logits.at_mut(1, 2) = 50.0;
        assert!(l.loss(&logits, &[1, 2]) < 1e-6);
    }

    #[test]
    fn gradient_matches_numeric() {
        let l = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![0.4, -0.2, 0.9, 1.1, 0.0, -0.7], &[2, 3]);
        let labels = vec![2, 0];
        let mut grad = Tensor::default();
        l.loss_and_grad_into(&logits, &labels, &mut grad);
        let eps = 1e-3;
        for j in 0..logits.len() {
            let mut lp = logits.clone();
            lp.data_mut()[j] += eps;
            let up = l.loss(&lp, &labels);
            lp.data_mut()[j] -= 2.0 * eps;
            let dn = l.loss(&lp, &labels);
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[j]).abs() < 1e-3,
                "logit {j}: {numeric} vs {}",
                grad.data()[j]
            );
        }
    }

    #[test]
    fn numerical_stability_with_huge_logits() {
        let l = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![1000.0, -1000.0], &[1, 2]);
        let mut grad = Tensor::default();
        let loss = l.loss_and_grad_into(&logits, &[0], &mut grad);
        assert!(loss.is_finite());
        assert!(grad.is_finite());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        let l = SoftmaxCrossEntropy::new();
        let _ = l.loss(&Tensor::zeros(&[1, 3]), &[5]);
    }
}
