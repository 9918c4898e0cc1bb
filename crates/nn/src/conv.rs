//! Convolutional layers: 1-D cross-correlation plus max pooling.
//!
//! These are the locality-exploiting building blocks the conv workload is
//! made of: a [`Conv1d`] bank of learned filters slides over the input
//! signal (so a class-identifying pattern is detected at any shift) and
//! [`MaxPool1d`] keeps only each window's strongest response, which is what
//! makes the detection shift-invariant. Structurally this is the paper's
//! convnet family at 1-D scale, the same way `ResidualBlock` stands in for
//! the ResNet block.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sync_switch_tensor::{Init, Tensor};

use crate::layer::{cache_input, Layer};

/// 1-D convolution (cross-correlation) over a single-channel signal:
/// input `[batch, length]`, output `[batch, channels · (length − kernel + 1)]`
/// laid out channel-major (`c · out_len + t`), stride 1, no padding.
///
/// The loops run tap by tap (one axpy over `t` per filter tap), yet every
/// float keeps the per-output summation order of the textbook loop, so the
/// results are bit-identical to it: output `y[c, t]` is
/// `((b[c] + w[c,0]·x[t]) + w[c,1]·x[t+1]) + …`; `gw[c, k]` and `gb[c]` sum
/// their terms in `(batch row, t)` order; the input gradient at `j` sums
/// over channels, then over `t` ascending.
#[derive(Debug, Clone)]
pub struct Conv1d {
    /// `[channels, kernel]` filter bank.
    w: Tensor,
    /// `[channels]` per-filter bias.
    b: Tensor,
    gw: Tensor,
    gb: Tensor,
    cached_x: Option<Tensor>,
    out: Tensor,
    gx: Tensor,
}

impl Conv1d {
    /// Creates a filter bank of `channels` filters of width `kernel`,
    /// He-normal initialized (suited to the ReLU that typically follows).
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or `kernel == 0`.
    pub fn new(channels: usize, kernel: usize, seed: u64) -> Self {
        assert!(channels > 0 && kernel > 0, "empty filter bank");
        let mut rng = StdRng::seed_from_u64(seed);
        Conv1d {
            w: Init::HeNormal.tensor(&[channels, kernel], &mut rng),
            b: Tensor::zeros(&[channels]),
            gw: Tensor::zeros(&[channels, kernel]),
            gb: Tensor::zeros(&[channels]),
            cached_x: None,
            out: Tensor::default(),
            gx: Tensor::default(),
        }
    }

    /// Number of output channels.
    pub fn channels(&self) -> usize {
        self.w.rows()
    }

    /// Filter width.
    pub fn kernel(&self) -> usize {
        self.w.cols()
    }

    /// Output length for an input signal of `length` samples.
    ///
    /// # Panics
    ///
    /// Panics if `length < kernel`.
    pub fn out_len(&self, length: usize) -> usize {
        assert!(
            length >= self.kernel(),
            "signal of {length} shorter than kernel {}",
            self.kernel()
        );
        length - self.kernel() + 1
    }
}

impl Layer for Conv1d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: &Tensor) -> &Tensor {
        let (length, kernel, channels) = (x.cols(), self.kernel(), self.channels());
        let out_len = self.out_len(length);
        self.out.resize_zeroed(&[x.rows(), channels * out_len]);
        let outs = self.out.data_mut().chunks_exact_mut(channels * out_len);
        for (row, out) in x.data().chunks_exact(length).zip(outs) {
            let filters = self.w.data().chunks_exact(kernel).zip(self.b.data());
            for ((filt, &b), out) in filters.zip(out.chunks_exact_mut(out_len)) {
                out.fill(b);
                for (k, &wk) in filt.iter().enumerate() {
                    for (y, &xv) in out.iter_mut().zip(&row[k..k + out_len]) {
                        *y += wk * xv;
                    }
                }
            }
        }
        cache_input(&mut self.cached_x, x);
        &self.out
    }

    fn backward(&mut self, grad_out: &Tensor) -> &Tensor {
        self.backward_params(grad_out);
        let x = self.cached_x.as_ref().expect("checked by backward_params");
        let (length, kernel) = (x.cols(), self.kernel());
        let out_len = length - kernel + 1;
        self.gx.resize_zeroed(&[x.rows(), length]);
        let gouts = grad_out.data().chunks_exact(grad_out.cols());
        for (grow, gout) in self.gx.data_mut().chunks_exact_mut(length).zip(gouts) {
            let filters = self.w.data().chunks_exact(kernel);
            for (filt, gout) in filters.zip(gout.chunks_exact(out_len)) {
                // Taps last to first: each `grow[j]` then takes its terms
                // in `t` ascending order, as the per-output loop did.
                for (k, &wk) in filt.iter().enumerate().rev() {
                    for (gx, &g) in grow[k..k + out_len].iter_mut().zip(gout) {
                        *gx += g * wk;
                    }
                }
            }
        }
        &self.gx
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let x = self
            .cached_x
            .as_ref()
            .expect("backward called before forward");
        let (length, kernel) = (x.cols(), self.kernel());
        let out_len = length - kernel + 1;
        let expected = [x.rows(), self.channels() * out_len];
        assert_eq!(grad_out.shape(), expected, "grad shape mismatch");
        // Overwrite, don't scale: `g *= 0.0` would turn a past Inf/NaN
        // gradient entry into a permanent NaN (0·Inf = NaN) instead of
        // recovering, unlike Dense which rebuilds its grads every backward.
        self.gw.data_mut().fill(0.0);
        self.gb.data_mut().fill(0.0);
        let gouts = grad_out.data().chunks_exact(expected[1]);
        for (row, gout) in x.data().chunks_exact(length).zip(gouts) {
            let filters = self.gw.data_mut().chunks_exact_mut(kernel);
            for ((gfilt, gb), gout) in filters
                .zip(self.gb.data_mut())
                .zip(gout.chunks_exact(out_len))
            {
                *gb = gout.iter().fold(*gb, |acc, &g| acc + g);
                for (k, gw) in gfilt.iter_mut().enumerate() {
                    let taps = gout.iter().zip(&row[k..k + out_len]);
                    *gw = taps.fold(*gw, |acc, (&g, &xv)| acc + g * xv);
                }
            }
        }
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
    fn reference(&mut self) -> &mut dyn crate::layer::tests::Reference {
        self
    }
}

/// Per-channel 1-D max pooling with window = stride, over the channel-major
/// layout [`Conv1d`] produces: input `[batch, channels · len]`, output
/// `[batch, channels · len / window]`. This is where shift invariance comes
/// from — within a window, the filter response survives wherever the
/// pattern sat.
///
/// Ties go to the window's first maximum, which alone takes the gradient. A
/// later element wins only by comparing strictly greater (`v > top`), so a
/// NaN never wins and a NaN in a window's first slot is that window's
/// output; `-0.0` and `0.0` tie.
#[derive(Debug, Clone)]
pub struct MaxPool1d {
    channels: usize,
    window: usize,
    /// Flat input index of each output element's maximum (valid after
    /// `forward`), plus the input shape needed to rebuild the gradient.
    argmax: Vec<usize>,
    in_shape: (usize, usize),
    out: Tensor,
    gx: Tensor,
}

impl MaxPool1d {
    /// Creates a pooling layer over `channels` channels with the given
    /// `window` (stride = window).
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or `window == 0`.
    pub fn new(channels: usize, window: usize) -> Self {
        assert!(channels > 0 && window > 0, "empty pooling");
        MaxPool1d {
            channels,
            window,
            argmax: Vec::new(),
            in_shape: (0, 0),
            out: Tensor::default(),
            gx: Tensor::default(),
        }
    }

    /// Pooling window (= stride).
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Layer for MaxPool1d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: &Tensor) -> &Tensor {
        let batch = x.rows();
        let cols = x.cols();
        assert_eq!(cols % self.channels, 0, "input not channel-major");
        let len = cols / self.channels;
        assert_eq!(
            len % self.window,
            0,
            "per-channel length {len} not divisible by window {}",
            self.window
        );
        let pooled = len / self.window;
        self.out.resize_zeroed(&[batch, self.channels * pooled]);
        self.argmax.clear();
        self.argmax.resize(self.out.len(), 0);
        self.in_shape = (batch, cols);
        // Every channel's length is a whole number of windows, so output `j`
        // pools the `j`-th window of the flat input.
        let windows = x.data().chunks_exact(self.window);
        let outs = self.out.data_mut().iter_mut().zip(&mut self.argmax);
        for (j, (win, (y, src))) in windows.zip(outs).enumerate() {
            // Selects, not branches: the data is what decides, and a
            // mispredicted branch per element costs more than the compare.
            let (mut best, mut top) = (0, win[0]);
            for (i, &v) in win.iter().enumerate().skip(1) {
                let wins = v > top;
                best = if wins { i } else { best };
                top = if wins { v } else { top };
            }
            *y = top;
            *src = j * self.window + best;
        }
        &self.out
    }

    fn backward(&mut self, grad_out: &Tensor) -> &Tensor {
        let (batch, cols) = self.in_shape;
        assert!(batch > 0, "backward called before forward");
        assert_eq!(grad_out.len(), self.argmax.len(), "grad shape mismatch");
        self.gx.resize_zeroed(&[batch, cols]);
        let gxd = self.gx.data_mut();
        for (&src, &g) in self.argmax.iter().zip(grad_out.data()) {
            gxd[src] += g;
        }
        &self.gx
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Tensor, &Tensor)) {}

    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}

    #[cfg(test)]
    fn reference(&mut self) -> &mut dyn crate::layer::tests::Reference {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{grad_check, params_and_grads, sample_input, with_param, Reference};
    use proptest::prelude::*;
    use rand::Rng;

    /// The reference loops below, as the layers' allocating forms.
    impl Reference for Conv1d {
        fn ref_forward(&mut self, x: &Tensor) -> Tensor {
            let y = reference_conv_forward(x, &self.w, &self.b);
            let cols = y.len() / x.rows();
            self.cached_x = Some(x.clone());
            Tensor::from_vec(y, &[x.rows(), cols])
        }

        fn ref_backward(&mut self, grad_out: &Tensor) -> Tensor {
            let x = self
                .cached_x
                .as_ref()
                .expect("backward called before forward");
            let (gw, gb, gx) = reference_conv_backward(x, &self.w, grad_out);
            self.gw = Tensor::from_vec(gw, self.w.shape());
            self.gb = Tensor::from_vec(gb, self.b.shape());
            Tensor::from_vec(gx, x.shape())
        }
    }

    impl Reference for MaxPool1d {
        fn ref_forward(&mut self, x: &Tensor) -> Tensor {
            let (y, argmax) = reference_maxpool(x, self.channels, self.window);
            let cols = y.len() / x.rows();
            (self.argmax, self.in_shape) = (argmax, (x.rows(), x.cols()));
            Tensor::from_vec(y, &[x.rows(), cols])
        }

        fn ref_backward(&mut self, grad_out: &Tensor) -> Tensor {
            let (batch, cols) = self.in_shape;
            let mut gx = Tensor::zeros(&[batch, cols]);
            for (&src, &g) in self.argmax.iter().zip(grad_out.data()) {
                gx.data_mut()[src] += g;
            }
            gx
        }
    }

    #[test]
    fn conv_forward_matches_hand_computation() {
        let mut conv = Conv1d::new(1, 2, 0);
        // Filter [1, -1] with bias 0.5: discrete difference detector.
        with_param(&mut conv, 0, |w| w.data_mut().copy_from_slice(&[1.0, -1.0]));
        with_param(&mut conv, 1, |b| b.data_mut().copy_from_slice(&[0.5]));
        let x = Tensor::from_vec(vec![1.0, 3.0, 2.0, 2.0], &[1, 4]);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[1, 3]);
        assert_eq!(y.data(), &[0.5 - 2.0, 0.5 + 1.0, 0.5]);
    }

    #[test]
    fn conv_output_is_shift_equivariant() {
        let mut conv = Conv1d::new(3, 4, 1);
        let mut sig = vec![0.0f32; 16];
        sig[3] = 1.0;
        sig[4] = -1.0;
        let mut shifted = vec![0.0f32; 16];
        shifted[8] = 1.0;
        shifted[9] = -1.0;
        let ya = conv.forward(&Tensor::from_vec(sig, &[1, 16])).clone();
        let out_len = conv.out_len(16);
        let yb = conv.forward(&Tensor::from_vec(shifted, &[1, 16]));
        // The response to the shifted bump is the shifted response (where
        // both positions are interior).
        for c in 0..3 {
            for t in 0..out_len - 5 {
                let a = ya.data()[c * out_len + t];
                let b = yb.data()[c * out_len + t + 5];
                assert!((a - b).abs() < 1e-6, "channel {c} t {t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn conv_gradients_check() {
        let mut conv = Conv1d::new(3, 4, 2);
        grad_check(&mut conv, &sample_input(2, 11), 3);
    }

    #[test]
    fn maxpool_selects_window_maxima() {
        let mut pool = MaxPool1d::new(2, 2);
        // 2 channels of length 4 → pooled length 2 each.
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 0.0, -3.0, -1.0, 7.0, 7.5], &[1, 8]);
        let y = pool.forward(&x);
        assert_eq!(y.shape(), &[1, 4]);
        assert_eq!(y.data(), &[5.0, 2.0, -1.0, 7.5]);
        // Gradient routes to the argmax positions only.
        let g = pool.backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]));
        assert_eq!(g.data(), &[0.0, 1.0, 2.0, 0.0, 0.0, 3.0, 0.0, 4.0]);
    }

    #[test]
    fn maxpool_gradients_check() {
        // sample_input has no exact ties, so the max is differentiable at
        // every probed point.
        let mut pool = MaxPool1d::new(2, 3);
        grad_check(&mut pool, &sample_input(2, 12), 3);
    }

    #[test]
    fn conv_param_counts() {
        let conv = Conv1d::new(6, 5, 0);
        assert_eq!(conv.param_count(), 6 * 5 + 6);
        assert_eq!(MaxPool1d::new(4, 2).param_count(), 0);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn conv_backward_before_forward_panics() {
        let mut conv = Conv1d::new(1, 2, 0);
        let _ = conv.backward(&Tensor::zeros(&[1, 3]));
    }

    #[test]
    #[should_panic(expected = "grad shape mismatch")]
    fn conv_rejects_a_grad_with_other_rows_than_the_batch() {
        let mut conv = Conv1d::new(2, 3, 0);
        let cols = conv.forward(&sample_input(1, 8)).cols();
        let _ = conv.backward(&Tensor::zeros(&[2, cols]));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn maxpool_rejects_ragged_windows() {
        let mut pool = MaxPool1d::new(1, 3);
        let _ = pool.forward(&sample_input(1, 8));
    }

    /// `Conv1d::forward` as one reduction per output: the reference the
    /// tap-wise kernel must equal bit for bit.
    fn reference_conv_forward(x: &Tensor, w: &Tensor, b: &Tensor) -> Vec<f32> {
        let (batch, length) = (x.rows(), x.cols());
        let (channels, kernel) = (w.rows(), w.cols());
        let out_len = length - kernel + 1;
        let (xd, wd, bd) = (x.data(), w.data(), b.data());
        let mut yd = vec![0.0; batch * channels * out_len];
        for r in 0..batch {
            let row = &xd[r * length..(r + 1) * length];
            let out = &mut yd[r * channels * out_len..(r + 1) * channels * out_len];
            for c in 0..channels {
                let filt = &wd[c * kernel..(c + 1) * kernel];
                for t in 0..out_len {
                    let mut acc = bd[c];
                    for (k, &wv) in filt.iter().enumerate() {
                        acc += wv * row[t + k];
                    }
                    out[c * out_len + t] = acc;
                }
            }
        }
        yd
    }

    /// `Conv1d::backward` as one pass per output element, returning
    /// `(gw, gb, gx)`.
    fn reference_conv_backward(
        x: &Tensor,
        w: &Tensor,
        grad_out: &Tensor,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (batch, length) = (x.rows(), x.cols());
        let (channels, kernel) = (w.rows(), w.cols());
        let out_len = length - kernel + 1;
        let (xd, wd, gd) = (x.data(), w.data(), grad_out.data());
        let (mut gwd, mut gbd) = (vec![0.0; channels * kernel], vec![0.0; channels]);
        let mut gxd = vec![0.0; batch * length];
        for r in 0..batch {
            let row = &xd[r * length..(r + 1) * length];
            let gout = &gd[r * channels * out_len..(r + 1) * channels * out_len];
            let grow = &mut gxd[r * length..(r + 1) * length];
            for c in 0..channels {
                let filt = &wd[c * kernel..(c + 1) * kernel];
                let gfilt = &mut gwd[c * kernel..(c + 1) * kernel];
                for t in 0..out_len {
                    let g = gout[c * out_len + t];
                    gbd[c] += g;
                    for k in 0..kernel {
                        gfilt[k] += g * row[t + k];
                        grow[t + k] += g * filt[k];
                    }
                }
            }
        }
        (gwd, gbd, gxd)
    }

    /// `MaxPool1d::forward` with a branch per comparison, returning the
    /// output and each output's flat argmax.
    fn reference_maxpool(x: &Tensor, channels: usize, window: usize) -> (Vec<f32>, Vec<usize>) {
        let (batch, cols) = (x.rows(), x.cols());
        let len = cols / channels;
        let pooled = len / window;
        let xd = x.data();
        let (mut yd, mut argmax) = (vec![0.0; batch * channels * pooled], Vec::new());
        for r in 0..batch {
            for c in 0..channels {
                let base = r * cols + c * len;
                for p in 0..pooled {
                    let start = base + p * window;
                    let mut best = start;
                    for i in start + 1..start + window {
                        if xd[i] > xd[best] {
                            best = i;
                        }
                    }
                    yd[r * channels * pooled + c * pooled + p] = xd[best];
                    argmax.push(best);
                }
            }
        }
        (yd, argmax)
    }

    /// Bit equality as far as Rust defines it: a NaN result's sign and
    /// payload are unspecified, so any NaN matches any NaN.
    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// A tensor over few distinct values, so maxima tie often, whose sums
    /// round, so a changed summation order shows; with an occasional NaN,
    /// infinity or negative zero.
    fn draw(rng: &mut StdRng, shape: &[usize]) -> Tensor {
        const FINITE: [f32; 6] = [0.0, 1.0, -0.7, 0.1, 1.0 / 3.0, 7.0e6];
        const SPECIAL: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let n = shape.iter().product();
        let data = (0..n)
            .map(|_| match rng.gen_range(0..100usize) {
                i if i < SPECIAL.len() => SPECIAL[i],
                i => FINITE[i % FINITE.len()],
            })
            .collect();
        Tensor::from_vec(data, shape)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn kernels_equal_the_reference_loops_bit_for_bit(
            batch in 1usize..10,
            channels in 1usize..10,
            kernel in 1usize..10,
            length_pick in any::<usize>(),
            window_pick in any::<usize>(),
            seed in any::<u64>(),
        ) {
            let length = kernel + length_pick % (41 - kernel);
            let out_len = length - kernel + 1;
            let windows: Vec<usize> = (1..=out_len).filter(|&w| out_len.is_multiple_of(w)).collect();
            let window = windows[window_pick % windows.len()];
            let mut rng = StdRng::seed_from_u64(seed);

            let mut conv = Conv1d::new(channels, kernel, 0);
            let (w, b) = (draw(&mut rng, &[channels, kernel]), draw(&mut rng, &[channels]));
            with_param(&mut conv, 0, |p| p.clone_from(&w));
            with_param(&mut conv, 1, |p| p.clone_from(&b));
            let x = draw(&mut rng, &[batch, length]);
            let y = conv.forward(&x).clone();
            prop_assert!(same_bits(y.data(), &reference_conv_forward(&x, &w, &b)), "output");
            let g = draw(&mut rng, y.shape());
            let gx = conv.backward(&g).clone();
            let (gw, gb, want_gx) = reference_conv_backward(&x, &w, &g);
            let grads = params_and_grads(&conv);
            prop_assert!(same_bits(grads[0].1.data(), &gw), "gw");
            prop_assert!(same_bits(grads[1].1.data(), &gb), "gb");
            prop_assert!(same_bits(gx.data(), &want_gx), "input gradient");

            let mut pool = MaxPool1d::new(channels, window);
            let h = draw(&mut rng, y.shape());
            let pooled = pool.forward(&h).clone();
            let (want, argmax) = reference_maxpool(&h, channels, window);
            prop_assert!(same_bits(pooled.data(), &want), "pool output");
            // Distinct gradients, so each must land where the reference
            // routed it.
            let gp: Vec<f32> = (1..=pooled.len()).map(|i| i as f32).collect();
            let routed = pool.backward(&Tensor::from_vec(gp.clone(), pooled.shape()));
            let mut want_routed = vec![0.0; h.len()];
            for (&src, &gv) in argmax.iter().zip(&gp) {
                want_routed[src] += gv;
            }
            prop_assert!(same_bits(routed.data(), &want_routed), "pool routing");
        }
    }
}
