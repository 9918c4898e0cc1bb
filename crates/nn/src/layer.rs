//! Layers with manual forward/backward passes.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sync_switch_tensor::{Init, Tensor};

/// A differentiable layer.
///
/// `forward` caches whatever it needs for `backward`; `backward` consumes the
/// upstream gradient, fills the layer's parameter gradients, and returns the
/// gradient with respect to its input. Layers are `Send` so worker threads in
/// the parameter server can own model replicas.
pub trait Layer: Send {
    /// Computes the layer output for a `[batch, in]` input.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Clones the layer into a box (worker threads own model replicas).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Backpropagates `grad_out` (`[batch, out]`), returning `[batch, in]`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// [`Layer::backward`] for a layer whose input gradient nobody reads:
    /// fills the same parameter gradients, bit for bit, and may skip
    /// computing the input gradient. [`crate::Network`] calls it on its
    /// first layer only, whose input is the batch itself. The default calls
    /// `backward` and drops the result.
    ///
    /// # Panics
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// Immutable views of the layer's parameter tensors.
    fn params(&self) -> Vec<&Tensor>;

    /// Immutable views of the layer's gradient tensors (valid after
    /// `backward`).
    fn grads(&self) -> Vec<&Tensor>;

    /// Mutable views of the layer's parameter tensors.
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Appends the `(offset, len)` runs of this layer's possibly-nonzero
    /// gradient — relative to `base`, the layer's first index in the flat
    /// parameter vector — to `out`, in increasing offset order, and returns
    /// whether the gradient is *sparse*. The default (dense) implementation
    /// appends the full parameter range and returns `false`; a sparse layer
    /// (e.g. [`crate::Embedding`]) appends only the runs its last
    /// `backward` actually wrote, which is what lets the parameter-server
    /// worker loop ship row-sized updates instead of the whole tensor.
    fn grad_nonzero_runs(&self, base: usize, out: &mut Vec<(usize, usize)>) -> bool {
        let n = self.param_count();
        if n > 0 {
            out.push((base, n));
        }
        false
    }

    /// The input-side twin of [`Layer::grad_nonzero_runs`], asked of the
    /// layer that sees the raw batch: whether `forward(x)` and the
    /// `backward` after it *read* only part of this layer's parameters. If
    /// so, appends the `(offset, len)` runs they read — relative to `base`,
    /// in increasing offset order — and returns `true`; those runs must
    /// also cover every gradient entry that backward pass can make nonzero,
    /// because the parameter-server worker loop pulls and pushes along the
    /// same list. The default is a dense layer: `false`, nothing appended.
    /// It runs once per training step of every model, so it stays free.
    fn param_read_runs(&self, _x: &Tensor, _base: usize, _out: &mut Vec<(usize, usize)>) -> bool {
        false
    }
}

/// Fully-connected layer: `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    w: Tensor,
    b: Tensor,
    gw: Tensor,
    gb: Tensor,
    cached_x: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-normal weights and zero biases.
    pub fn new(fan_in: usize, fan_out: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Dense {
            w: Init::HeNormal.tensor(&[fan_in, fan_out], &mut rng),
            b: Tensor::zeros(&[fan_out]),
            gw: Tensor::zeros(&[fan_in, fan_out]),
            gb: Tensor::zeros(&[fan_out]),
            cached_x: None,
        }
    }

    /// Input dimension.
    pub fn fan_in(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn fan_out(&self) -> usize {
        self.w.cols()
    }
}

impl Layer for Dense {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.w);
        y.add_row_vector(&self.b);
        self.cached_x = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_params(grad_out);
        grad_out.matmul_t(&self.w)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let x = self
            .cached_x
            .as_ref()
            .expect("backward called before forward");
        self.gw = x.t_matmul(grad_out);
        self.gb = grad_out.sum_rows();
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.gw, &self.gb]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w, &mut self.b]
    }
}

/// Rectified linear unit activation.
#[derive(Debug, Default, Clone)]
pub struct Relu {
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = x.map(|v| v.max(0.0));
        self.mask = Some(x.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward called before forward");
        grad_out.mul(mask)
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }
}

/// A pre-activation residual block over a fixed width:
/// `y = x + W₂·relu(W₁·x + b₁) + b₂`.
///
/// This is the structural analogue of the ResNet basic block the paper's
/// workloads are built from — the skip connection gives the same
/// optimization behaviour (identity gradient path) at MLP scale.
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    w1: Dense,
    relu: Relu,
    w2: Dense,
}

impl ResidualBlock {
    /// Creates a residual block of the given width.
    pub fn new(width: usize, seed: u64) -> Self {
        ResidualBlock {
            w1: Dense::new(width, width, seed),
            relu: Relu::new(),
            w2: Dense::new(width, width, seed.wrapping_add(1)),
        }
    }
}

impl Layer for ResidualBlock {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let h = self.w1.forward(x);
        let h = self.relu.forward(&h);
        let h = self.w2.forward(&h);
        h.add(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.w2.backward(grad_out);
        let g = self.relu.backward(&g);
        let g = self.w1.backward(&g);
        g.add(grad_out)
    }

    fn params(&self) -> Vec<&Tensor> {
        let mut p = self.w1.params();
        p.extend(self.w2.params());
        p
    }

    fn grads(&self) -> Vec<&Tensor> {
        let mut g = self.w1.grads();
        g.extend(self.w2.grads());
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut p = self.w1.params_mut();
        p.extend(self.w2.params_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference gradient check for a scalar loss `sum(layer(x))`.
    fn grad_check<L: Layer>(layer: &mut L, x: &Tensor) {
        let y = layer.forward(x);
        let ones = Tensor::full(y.shape(), 1.0);
        let gx = layer.backward(&ones);

        // Parameter gradients.
        let analytic: Vec<Vec<f32>> = layer.grads().iter().map(|g| g.data().to_vec()).collect();
        let eps = 1e-3f32;
        for (pi, grads) in analytic.iter().enumerate() {
            for j in (0..grads.len()).step_by(7) {
                let orig = layer.params()[pi].data()[j];
                layer.params_mut()[pi].data_mut()[j] = orig + eps;
                let up = layer.forward(x).sum();
                layer.params_mut()[pi].data_mut()[j] = orig - eps;
                let dn = layer.forward(x).sum();
                layer.params_mut()[pi].data_mut()[j] = orig;
                let numeric = (up - dn) / (2.0 * eps);
                assert!(
                    (numeric - grads[j]).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "param {pi}[{j}]: numeric {numeric} vs analytic {}",
                    grads[j]
                );
            }
        }

        // Input gradients.
        for j in (0..x.len()).step_by(5) {
            let mut xp = x.clone();
            xp.data_mut()[j] += eps;
            let up = layer.forward(&xp).sum();
            xp.data_mut()[j] -= 2.0 * eps;
            let dn = layer.forward(&xp).sum();
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (numeric - gx.data()[j]).abs() < 2e-2 * (1.0 + numeric.abs()),
                "input[{j}]: numeric {numeric} vs analytic {}",
                gx.data()[j]
            );
        }
    }

    fn sample_input(batch: usize, dim: usize) -> Tensor {
        let data: Vec<f32> = (0..batch * dim)
            .map(|i| ((i as f32 * 0.37).sin() * 1.3) + 0.11)
            .collect();
        Tensor::from_vec(data, &[batch, dim])
    }

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut d = Dense::new(3, 2, 0);
        for p in d.params_mut() {
            p.scale_assign(0.0);
        }
        d.params_mut()[1].data_mut().copy_from_slice(&[1.0, -1.0]);
        let y = d.forward(&sample_input(4, 3));
        assert_eq!(y.shape(), &[4, 2]);
        assert_eq!(y.at(0, 0), 1.0);
        assert_eq!(y.at(3, 1), -1.0);
    }

    #[test]
    fn dense_gradients_check() {
        let mut d = Dense::new(5, 4, 1);
        grad_check(&mut d, &sample_input(3, 5));
    }

    #[test]
    fn relu_masks_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[2, 2]);
        let y = r.forward(&x);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let g = r.backward(&Tensor::full(&[2, 2], 1.0));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn residual_block_gradients_check() {
        // Seed 5 keeps every pre-activation at least 0.22 away from the ReLU
        // kink. (Seed 3 put one at -3.8e-4, inside the ±eps band of the
        // central difference, which invalidates the numeric gradient there —
        // the analytic gradient was already correct.)
        let mut b = ResidualBlock::new(6, 5);
        grad_check(&mut b, &sample_input(2, 6));
    }

    #[test]
    fn residual_block_is_identity_with_zero_weights() {
        let mut b = ResidualBlock::new(4, 0);
        for p in b.params_mut() {
            p.scale_assign(0.0);
        }
        let x = sample_input(2, 4);
        let y = b.forward(&x);
        assert_eq!(y, x);
    }

    #[test]
    fn param_counts() {
        let d = Dense::new(10, 5, 0);
        assert_eq!(d.param_count(), 55);
        let b = ResidualBlock::new(8, 0);
        assert_eq!(b.param_count(), 2 * (64 + 8));
        assert_eq!(Relu::new().param_count(), 0);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut d = Dense::new(2, 2, 0);
        let _ = d.backward(&Tensor::zeros(&[1, 2]));
    }
}
