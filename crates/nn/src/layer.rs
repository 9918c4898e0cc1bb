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
///
/// **Buffers.** Both passes write into tensors the layer owns and return a
/// reference to them: the output of `forward` and the input gradient of
/// `backward` each live until this layer's next `forward` or `backward`.
/// A buffer is sized on the first batch of a shape and rewritten in place
/// after that, so a training step over same-shaped batches allocates
/// nothing.
pub trait Layer: Send {
    /// Computes the layer output for a `[batch, in]` input.
    fn forward(&mut self, x: &Tensor) -> &Tensor;

    /// Clones the layer into a box (worker threads own model replicas).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Backpropagates `grad_out` (`[batch, out]`), returning `[batch, in]`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> &Tensor;

    /// [`Layer::backward`] for a layer whose input gradient nobody reads:
    /// fills the same parameter gradients, bit for bit, and may skip
    /// computing the input gradient. [`crate::Network`] calls it on its
    /// first layer only, whose input is the batch itself. The default calls
    /// `backward` and ignores the result.
    ///
    /// # Panics
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward(grad_out);
    }

    /// Calls `f` with each parameter tensor and its gradient (valid after
    /// `backward`), in flat-vector order.
    fn visit_params(&self, f: &mut dyn FnMut(&Tensor, &Tensor));

    /// Calls `f` with each parameter tensor, mutably, in flat-vector order.
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor));

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
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

    /// The layer's passes in their allocating forms: the bit-for-bit
    /// reference the buffered passes are tested against.
    #[cfg(test)]
    fn reference(&mut self) -> &mut dyn tests::Reference;
}

/// Copies `x` into the cached-input slot, reusing its allocation after the
/// first call.
pub(crate) fn cache_input(slot: &mut Option<Tensor>, x: &Tensor) {
    slot.get_or_insert_with(Tensor::default).clone_from(x);
}

/// Fully-connected layer: `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    w: Tensor,
    b: Tensor,
    gw: Tensor,
    gb: Tensor,
    cached_x: Option<Tensor>,
    out: Tensor,
    gx: Tensor,
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
            out: Tensor::default(),
            gx: Tensor::default(),
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

    fn forward(&mut self, x: &Tensor) -> &Tensor {
        x.matmul_into(&self.w, &mut self.out);
        self.out.add_row_vector(&self.b);
        cache_input(&mut self.cached_x, x);
        &self.out
    }

    fn backward(&mut self, grad_out: &Tensor) -> &Tensor {
        self.backward_params(grad_out);
        grad_out.matmul_t_into(&self.w, &mut self.gx);
        &self.gx
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let x = self
            .cached_x
            .as_ref()
            .expect("backward called before forward");
        x.t_matmul_into(grad_out, &mut self.gw);
        grad_out.sum_rows_into(&mut self.gb);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Tensor, &Tensor)) {
        f(&self.w, &self.gw);
        f(&self.b, &self.gb);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    #[cfg(test)]
    fn reference(&mut self) -> &mut dyn tests::Reference {
        self
    }
}

/// Rectified linear unit activation.
#[derive(Debug, Default, Clone)]
pub struct Relu {
    /// `1.0` where the last input was positive, else `0.0`.
    mask: Option<Tensor>,
    out: Tensor,
    gx: Tensor,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: &Tensor) -> &Tensor {
        let mask = self.mask.get_or_insert_with(Tensor::default);
        mask.resize_zeroed(x.shape());
        self.out.resize_zeroed(x.shape());
        let cells = self.out.data_mut().iter_mut().zip(mask.data_mut());
        for ((y, m), &v) in cells.zip(x.data()) {
            *y = v.max(0.0);
            *m = if v > 0.0 { 1.0 } else { 0.0 };
        }
        &self.out
    }

    fn backward(&mut self, grad_out: &Tensor) -> &Tensor {
        let mask = self.mask.as_ref().expect("backward called before forward");
        assert_eq!(grad_out.shape(), mask.shape(), "grad shape mismatch");
        self.gx.resize_zeroed(mask.shape());
        let cells = self.gx.data_mut().iter_mut().zip(grad_out.data());
        for ((gx, &g), &m) in cells.zip(mask.data()) {
            *gx = g * m;
        }
        &self.gx
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Tensor, &Tensor)) {}

    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}

    #[cfg(test)]
    fn reference(&mut self) -> &mut dyn tests::Reference {
        self
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
    out: Tensor,
    gx: Tensor,
}

impl ResidualBlock {
    /// Creates a residual block of the given width.
    pub fn new(width: usize, seed: u64) -> Self {
        ResidualBlock {
            w1: Dense::new(width, width, seed),
            relu: Relu::new(),
            w2: Dense::new(width, width, seed.wrapping_add(1)),
            out: Tensor::default(),
            gx: Tensor::default(),
        }
    }
}

impl Layer for ResidualBlock {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: &Tensor) -> &Tensor {
        let h = self.w1.forward(x);
        let h = self.relu.forward(h);
        self.out.clone_from(self.w2.forward(h));
        self.out.add_assign(x);
        &self.out
    }

    fn backward(&mut self, grad_out: &Tensor) -> &Tensor {
        let g = self.w2.backward(grad_out);
        let g = self.relu.backward(g);
        self.gx.clone_from(self.w1.backward(g));
        self.gx.add_assign(grad_out);
        &self.gx
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Tensor, &Tensor)) {
        self.w1.visit_params(f);
        self.w2.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.w1.visit_params_mut(f);
        self.w2.visit_params_mut(f);
    }

    #[cfg(test)]
    fn reference(&mut self) -> &mut dyn tests::Reference {
        self
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The layer passes in allocating form — every pass returns a fresh
    /// tensor and caches a clone of what it needs — as the reference the
    /// buffered passes must equal bit for bit.
    pub trait Reference {
        fn ref_forward(&mut self, x: &Tensor) -> Tensor;
        fn ref_backward(&mut self, grad_out: &Tensor) -> Tensor;
        fn ref_backward_params(&mut self, grad_out: &Tensor) {
            let _ = self.ref_backward(grad_out);
        }
    }

    impl Reference for Dense {
        fn ref_forward(&mut self, x: &Tensor) -> Tensor {
            let mut y = x.matmul(&self.w);
            y.add_row_vector(&self.b);
            self.cached_x = Some(x.clone());
            y
        }

        fn ref_backward(&mut self, grad_out: &Tensor) -> Tensor {
            self.ref_backward_params(grad_out);
            grad_out.matmul_t(&self.w)
        }

        fn ref_backward_params(&mut self, grad_out: &Tensor) {
            let x = self
                .cached_x
                .as_ref()
                .expect("backward called before forward");
            self.gw = x.t_matmul(grad_out);
            self.gb = grad_out.sum_rows();
        }
    }

    impl Reference for Relu {
        fn ref_forward(&mut self, x: &Tensor) -> Tensor {
            let y = x.map(|v| v.max(0.0));
            self.mask = Some(x.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
            y
        }

        fn ref_backward(&mut self, grad_out: &Tensor) -> Tensor {
            let mask = self.mask.as_ref().expect("backward called before forward");
            grad_out.mul(mask)
        }
    }

    impl Reference for ResidualBlock {
        fn ref_forward(&mut self, x: &Tensor) -> Tensor {
            let h = self.w1.ref_forward(x);
            let h = self.relu.ref_forward(&h);
            let h = self.w2.ref_forward(&h);
            h.add(x)
        }

        fn ref_backward(&mut self, grad_out: &Tensor) -> Tensor {
            let g = self.w2.ref_backward(grad_out);
            let g = self.relu.ref_backward(&g);
            let g = self.w1.ref_backward(&g);
            g.add(grad_out)
        }
    }

    /// Copies of the layer's `(parameter, gradient)` tensors, in flat order.
    pub(crate) fn params_and_grads(layer: &dyn Layer) -> Vec<(Tensor, Tensor)> {
        let mut out = Vec::new();
        layer.visit_params(&mut |p, g| out.push((p.clone(), g.clone())));
        out
    }

    /// Runs `f` on parameter tensor `i` of the layer.
    pub(crate) fn with_param(layer: &mut dyn Layer, i: usize, f: impl FnOnce(&mut Tensor)) {
        let (mut k, mut f) = (0, Some(f));
        layer.visit_params_mut(&mut |p| {
            if k == i {
                (f.take().expect("one tensor per index"))(p);
            }
            k += 1;
        });
    }

    /// Central-difference gradient check for a scalar loss `sum(layer(x))`,
    /// probing every `stride`-th parameter and every fifth input.
    pub(crate) fn grad_check(layer: &mut dyn Layer, x: &Tensor, stride: usize) {
        let ones = Tensor::full(layer.forward(x).shape(), 1.0);
        let gx = layer.backward(&ones).clone();

        // Parameter gradients.
        let analytic = params_and_grads(layer);
        let eps = 1e-3f32;
        for (pi, (param, grads)) in analytic.iter().enumerate() {
            for j in (0..grads.len()).step_by(stride) {
                let orig = param.data()[j];
                with_param(layer, pi, |p| p.data_mut()[j] = orig + eps);
                let up = layer.forward(x).sum();
                with_param(layer, pi, |p| p.data_mut()[j] = orig - eps);
                let dn = layer.forward(x).sum();
                with_param(layer, pi, |p| p.data_mut()[j] = orig);
                let numeric = (up - dn) / (2.0 * eps);
                assert!(
                    (numeric - grads.data()[j]).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "param {pi}[{j}]: numeric {numeric} vs analytic {}",
                    grads.data()[j]
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

    pub(crate) fn sample_input(batch: usize, dim: usize) -> Tensor {
        let data: Vec<f32> = (0..batch * dim)
            .map(|i| ((i as f32 * 0.37).sin() * 1.3) + 0.11)
            .collect();
        Tensor::from_vec(data, &[batch, dim])
    }

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut d = Dense::new(3, 2, 0);
        d.visit_params_mut(&mut |p| p.scale_assign(0.0));
        with_param(&mut d, 1, |b| b.data_mut().copy_from_slice(&[1.0, -1.0]));
        let y = d.forward(&sample_input(4, 3));
        assert_eq!(y.shape(), &[4, 2]);
        assert_eq!(y.at(0, 0), 1.0);
        assert_eq!(y.at(3, 1), -1.0);
    }

    #[test]
    fn dense_gradients_check() {
        let mut d = Dense::new(5, 4, 1);
        grad_check(&mut d, &sample_input(3, 5), 7);
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
        grad_check(&mut b, &sample_input(2, 6), 7);
    }

    #[test]
    fn residual_block_is_identity_with_zero_weights() {
        let mut b = ResidualBlock::new(4, 0);
        b.visit_params_mut(&mut |p| p.scale_assign(0.0));
        let x = sample_input(2, 4);
        let y = b.forward(&x);
        assert_eq!(y, &x);
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
