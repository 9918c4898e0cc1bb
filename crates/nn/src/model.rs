//! Sequential network container with flat parameter access.

use sync_switch_tensor::Tensor;

use crate::conv::{Conv1d, MaxPool1d};
use crate::embedding::Embedding;
use crate::layer::{Dense, Layer, Relu, ResidualBlock};
use crate::loss::SoftmaxCrossEntropy;

/// A feed-forward classification network: a stack of layers topped by
/// softmax cross-entropy.
///
/// All parameters can be flattened to / restored from a single `Vec<f32>`,
/// which is exactly the representation the parameter server shards across
/// nodes — mirroring how TensorFlow places variables on PSs.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    loss: SoftmaxCrossEntropy,
    input_dim: usize,
    classes: usize,
    param_count: usize,
    /// The loss's softmax and then its gradient, the top of every backward
    /// pass.
    loss_grad: Tensor,
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            layers: self.layers.iter().map(|l| l.clone_box()).collect(),
            loss: self.loss.clone(),
            input_dim: self.input_dim,
            classes: self.classes,
            param_count: self.param_count,
            loss_grad: Tensor::default(),
        }
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("layers", &self.layers.len())
            .field("input_dim", &self.input_dim)
            .field("classes", &self.classes)
            .field("param_count", &self.param_count())
            .finish()
    }
}

impl Network {
    /// Builds a plain MLP: `input → hidden… → classes` with ReLU between
    /// dense layers.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim == 0` or `classes == 0`.
    pub fn mlp(input_dim: usize, hidden: &[usize], classes: usize, seed: u64) -> Self {
        assert!(input_dim > 0 && classes > 0, "dimensions must be positive");
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let mut prev = input_dim;
        for (i, &h) in hidden.iter().enumerate() {
            layers.push(Box::new(Dense::new(prev, h, seed.wrapping_add(i as u64))));
            layers.push(Box::new(Relu::new()));
            prev = h;
        }
        layers.push(Box::new(Dense::new(prev, classes, seed.wrapping_add(1000))));
        Network::of(layers, input_dim, classes)
    }

    /// Builds a residual MLP: an input projection, `blocks` residual blocks
    /// of the given `width`, and a classifier head. This is the structural
    /// stand-in for the paper's ResNet32/ResNet50 workloads: deeper variants
    /// have more blocks and parameters, like ResNet50 vs ResNet32.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn residual_mlp(
        input_dim: usize,
        width: usize,
        blocks: usize,
        classes: usize,
        seed: u64,
    ) -> Self {
        assert!(
            input_dim > 0 && width > 0 && classes > 0,
            "dimensions must be positive"
        );
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        layers.push(Box::new(Dense::new(input_dim, width, seed)));
        layers.push(Box::new(Relu::new()));
        for b in 0..blocks {
            layers.push(Box::new(ResidualBlock::new(
                width,
                seed.wrapping_add(10 + 2 * b as u64),
            )));
        }
        layers.push(Box::new(Dense::new(width, classes, seed.wrapping_add(999))));
        Network::of(layers, input_dim, classes)
    }

    /// Builds a 1-D convnet classifier: `Conv1d(channels, kernel)` over a
    /// single-channel signal of `length` samples, ReLU, per-channel max
    /// pooling with the given `pool` window, and a dense classifier head.
    /// The structural stand-in for the paper's convolutional workloads —
    /// the filters detect class patterns at any shift, which is what makes
    /// the workload's locality matter.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, `length < kernel`, or the conv
    /// output length is not divisible by `pool`.
    pub fn conv1d_classifier(
        length: usize,
        channels: usize,
        kernel: usize,
        pool: usize,
        classes: usize,
        seed: u64,
    ) -> Self {
        assert!(
            length > 0 && channels > 0 && classes > 0,
            "dimensions must be positive"
        );
        let conv = Conv1d::new(channels, kernel, seed);
        let out_len = conv.out_len(length);
        assert_eq!(
            out_len % pool,
            0,
            "conv output {out_len} not divisible by pool {pool}"
        );
        let head_in = channels * (out_len / pool);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(conv),
            Box::new(Relu::new()),
            Box::new(MaxPool1d::new(channels, pool)),
            Box::new(Dense::new(head_in, classes, seed.wrapping_add(999))),
        ];
        Network::of(layers, length, classes)
    }

    /// Builds a vocab-style classifier with a sparse-gradient trunk: a
    /// mean-pooled `Embedding(vocab, dim)` over `tokens` token ids per
    /// example, a hidden dense layer, and a classifier head. The embedding
    /// table dominates the parameter count while each batch's gradient
    /// touches only the rows of the tokens it saw —
    /// [`Network::grad_nonzero_runs_into`] reports exactly those runs, so
    /// the parameter-server push path can ship only the touched rows.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn embedding_classifier(
        vocab: usize,
        dim: usize,
        hidden: usize,
        tokens: usize,
        classes: usize,
        seed: u64,
    ) -> Self {
        assert!(
            vocab > 0 && dim > 0 && hidden > 0 && tokens > 0 && classes > 0,
            "dimensions must be positive"
        );
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Embedding::new(vocab, dim, seed)),
            Box::new(Dense::new(dim, hidden, seed.wrapping_add(1))),
            Box::new(Relu::new()),
            Box::new(Dense::new(hidden, classes, seed.wrapping_add(999))),
        ];
        Network::of(layers, tokens, classes)
    }

    /// The network over `layers`, topped by the loss.
    fn of(layers: Vec<Box<dyn Layer>>, input_dim: usize, classes: usize) -> Self {
        Network {
            param_count: layers.iter().map(|l| l.param_count()).sum(),
            layers,
            loss: SoftmaxCrossEntropy::new(),
            input_dim,
            classes,
            loss_grad: Tensor::default(),
        }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Forward pass producing `[batch, classes]` logits.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        forward_layers(&mut self.layers, x).clone()
    }

    /// Mean loss on a batch without touching gradients.
    pub fn loss(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        self.loss.loss(forward_layers(&mut self.layers, x), labels)
    }

    /// Runs forward + backward, returning the mean loss and the flattened
    /// gradient vector (aligned with [`Network::params_flat`]).
    pub fn loss_and_grad(&mut self, x: &Tensor, labels: &[usize]) -> (f32, Vec<f32>) {
        let loss = self.backward_pass(x, labels);
        (loss, self.grads_flat())
    }

    /// [`Network::loss_and_grad`] into a caller-kept [`GradBuffer`], at the
    /// cost of the `runs` it touches rather than of the whole vector:
    /// zeroes the runs the previous call wrote, then copies the new ones
    /// out of the layers, so `out` always equals what
    /// [`Network::grads_flat`] would return. The one full run
    /// `[(0, param_count)]` — a dense step — is a single copy with nothing
    /// to zero. Returns the mean loss.
    ///
    /// `runs` must be sorted, disjoint `(offset, len)` ranges covering
    /// every position this backward pass can write: the full run, or what
    /// [`Network::param_read_runs_into`] reported for `x`.
    ///
    /// # Panics
    ///
    /// Panics if a run reaches past [`Network::param_count`].
    pub fn loss_and_grad_into(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        runs: &[(usize, usize)],
        out: &mut GradBuffer,
    ) -> f32 {
        let loss = self.backward_pass(x, labels);
        let n = self.param_count;
        if out.flat.len() != n {
            out.flat.clear();
            out.flat.resize(n, 0.0);
            out.written.clear();
        }
        if runs != [(0, n)] {
            for &(start, len) in &out.written {
                out.flat[start..start + len].fill(0.0);
            }
        }
        let (mut next, mut offset) = (0, 0);
        let flat = &mut out.flat;
        for layer in &self.layers {
            layer.visit_params(&mut |_, g| {
                let end = offset + g.len();
                for (from, to) in runs_in_tensor(runs, &mut next, offset, end) {
                    flat[from..to].copy_from_slice(&g.data()[from - offset..to - offset]);
                }
                offset = end;
            });
        }
        out.written.clear();
        out.written.extend_from_slice(runs);
        loss
    }

    /// Forward + backward over one batch, leaving the gradient in the
    /// layers; returns the mean loss. Each layer reads its input from the
    /// buffer the layer before it wrote; the first layer's input is the
    /// batch, so its input gradient is never computed.
    fn backward_pass(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        let logits = forward_layers(&mut self.layers, x);
        let loss = self
            .loss
            .loss_and_grad_into(logits, labels, &mut self.loss_grad);
        if let Some((first, rest)) = self.layers.split_first_mut() {
            let mut grad = &self.loss_grad;
            for layer in rest.iter_mut().rev() {
                grad = layer.backward(grad);
            }
            first.backward_params(grad);
        }
        loss
    }

    /// Flattens all parameters into one vector (layer order, tensor order).
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count);
        for layer in &self.layers {
            layer.visit_params(&mut |p, _| out.extend_from_slice(p.data()));
        }
        out
    }

    /// Fills `out` with the sorted, disjoint `(offset, len)` runs of the
    /// flat gradient that the last backward pass could have written, and
    /// returns whether the gradient is sparse. Returns `false` (with `out`
    /// cleared) when every layer is dense — the caller should then treat
    /// the whole vector as live rather than enumerate one full-length run.
    /// Valid after [`Network::loss_and_grad`]; reuses `out`'s allocation.
    pub fn grad_nonzero_runs_into(&self, out: &mut Vec<(usize, usize)>) -> bool {
        out.clear();
        let mut sparse = false;
        let mut offset = 0;
        for layer in &self.layers {
            sparse |= layer.grad_nonzero_runs(offset, out);
            offset += layer.param_count();
        }
        finish_runs(sparse, out)
    }

    /// The input-side twin of [`Network::grad_nonzero_runs_into`]: fills
    /// `out` with the sorted, disjoint, coalesced `(offset, len)` runs of
    /// the flat parameter vector that a forward/backward pass over the
    /// batch `x` will read, and returns whether that read set is sparse —
    /// `false` (with `out` cleared) when the whole vector is read. Only the
    /// first layer sees `x` itself, so only it can read sparsely; every
    /// later layer is one full run. Needs no prior forward pass, which is
    /// what lets a parameter-server worker sample its batch first and pull
    /// only these runs.
    pub fn param_read_runs_into(&self, x: &Tensor, out: &mut Vec<(usize, usize)>) -> bool {
        out.clear();
        let Some((first, rest)) = self.layers.split_first() else {
            return false;
        };
        if !first.param_read_runs(x, 0, out) {
            out.clear();
            return false;
        }
        let mut offset = first.param_count();
        for layer in rest {
            let n = layer.param_count();
            if n > 0 {
                out.push((offset, n));
            }
            offset += n;
        }
        finish_runs(true, out)
    }

    /// Flattens all gradients into one vector (valid after
    /// [`Network::loss_and_grad`]).
    pub fn grads_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count);
        for layer in &self.layers {
            layer.visit_params(&mut |_, g| out.extend_from_slice(g.data()));
        }
        out
    }

    /// Restores all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` differs from [`Network::param_count`].
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        self.set_params_runs(flat, &[(0, flat.len())]);
    }

    /// Copies only the `(offset, len)` `runs` of `flat` (sorted and
    /// disjoint, as [`Network::param_read_runs_into`] produces them) into
    /// the layer tensors; every other parameter keeps its current value.
    /// On the runs this equals [`Network::set_params_flat`].
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` differs from [`Network::param_count`] or a
    /// run reaches past it.
    pub fn set_params_runs(&mut self, flat: &[f32], runs: &[(usize, usize)]) {
        assert_eq!(
            flat.len(),
            self.param_count,
            "flat parameter vector has wrong length"
        );
        let (mut next, mut offset) = (0, 0);
        for layer in &mut self.layers {
            layer.visit_params_mut(&mut |p| {
                let end = offset + p.len();
                for (from, to) in runs_in_tensor(runs, &mut next, offset, end) {
                    p.data_mut()[from - offset..to - offset].copy_from_slice(&flat[from..to]);
                }
                offset = end;
            });
        }
    }

    /// Top-1 accuracy on a labelled set.
    pub fn accuracy_on(&mut self, x: &Tensor, labels: &[usize]) -> f64 {
        crate::metrics::accuracy(forward_layers(&mut self.layers, x), labels)
    }
}

/// Runs `x` through `layers`, each reading the output buffer of the one
/// before it, and returns the last layer's output (`x` itself when there
/// are no layers).
fn forward_layers<'a>(layers: &'a mut [Box<dyn Layer>], x: &'a Tensor) -> &'a Tensor {
    let mut h = x;
    for layer in layers {
        h = layer.forward(h);
    }
    h
}

/// A flat gradient that outlives the step: [`Network::loss_and_grad_into`]
/// rewrites it in place along the step's runs, so a step whose gradient is
/// sparse pays for the rows it touched and no step allocates.
#[derive(Debug, Default)]
pub struct GradBuffer {
    flat: Vec<f32>,
    /// The runs the last call wrote; `flat` is zero outside them.
    written: Vec<(usize, usize)>,
}

impl GradBuffer {
    /// An empty buffer; the first call sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The flat gradient of the last call (aligned with
    /// [`Network::params_flat`]).
    pub fn as_slice(&self) -> &[f32] {
        &self.flat
    }
}

/// The `(from, to)` flat positions of the pieces of `runs` — sorted and
/// disjoint — that fall in the tensor at `offset..end`. Tensors are visited
/// in flat order, so `next`, the first run not wholly before the tensor,
/// only moves forward.
fn runs_in_tensor<'a>(
    runs: &'a [(usize, usize)],
    next: &mut usize,
    offset: usize,
    end: usize,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    while *next < runs.len() && runs[*next].0 + runs[*next].1 <= offset {
        *next += 1;
    }
    runs[*next..]
        .iter()
        .take_while(move |&&(start, _)| start < end)
        .map(move |&(start, len)| (start.max(offset), (start + len).min(end)))
}

/// The shared tail of the two run queries: a dense (or empty) answer clears
/// `out` and returns `false`; a sparse one coalesces adjacent runs (layer
/// order keeps them sorted) — fewer, longer segments mean fewer spans on
/// the wire.
fn finish_runs(sparse: bool, out: &mut Vec<(usize, usize)>) -> bool {
    if !sparse || out.is_empty() {
        out.clear();
        return false;
    }
    let mut w = 0;
    for r in 1..out.len() {
        if out[w].0 + out[w].1 == out[r].0 {
            out[w].1 += out[r].1;
        } else {
            w += 1;
            out[w] = out[r];
        }
    }
    out.truncate(w + 1);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_shapes_and_counts() {
        let net = Network::mlp(8, &[16, 12], 4, 0);
        // 8*16+16 + 16*12+12 + 12*4+4 = 144+204+52
        assert_eq!(net.param_count(), 144 + 204 + 52);
        assert_eq!(net.input_dim(), 8);
        assert_eq!(net.classes(), 4);
    }

    #[test]
    fn forward_output_shape() {
        let mut net = Network::mlp(6, &[10], 3, 1);
        let x = Tensor::zeros(&[5, 6]);
        assert_eq!(net.forward(&x).shape(), &[5, 3]);
    }

    #[test]
    fn params_flat_round_trip() {
        let mut net = Network::residual_mlp(4, 8, 2, 3, 2);
        let flat = net.params_flat();
        assert_eq!(flat.len(), net.param_count());
        let mut changed = flat.clone();
        for v in &mut changed {
            *v += 0.5;
        }
        net.set_params_flat(&changed);
        assert_eq!(net.params_flat(), changed);
    }

    #[test]
    fn grads_align_with_params() {
        let mut net = Network::mlp(4, &[6], 2, 3);
        let x = Tensor::from_vec((0..8).map(|i| i as f32 * 0.1).collect(), &[2, 4]);
        let (_, grad) = net.loss_and_grad(&x, &[0, 1]);
        assert_eq!(grad.len(), net.param_count());
        assert!(grad.iter().any(|&g| g != 0.0), "gradient should be nonzero");
    }

    #[test]
    fn sgd_reduces_loss() {
        let mut net = Network::residual_mlp(8, 12, 2, 3, 4);
        let x = Tensor::from_vec(
            (0..64)
                .map(|i| ((i * 37 % 97) as f32) / 97.0 - 0.5)
                .collect(),
            &[8, 8],
        );
        let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
        let initial = net.loss(&x, &labels);
        for _ in 0..400 {
            let (_, grad) = net.loss_and_grad(&x, &labels);
            let mut p = net.params_flat();
            for (pv, gv) in p.iter_mut().zip(&grad) {
                *pv -= 0.1 * gv;
            }
            net.set_params_flat(&p);
        }
        let trained = net.loss(&x, &labels);
        assert!(
            trained < initial * 0.5,
            "loss {initial} -> {trained} did not improve enough"
        );
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Network::mlp(3, &[4], 2, 0);
        let mut b = a.clone();
        assert_eq!(a.params_flat(), b.params_flat());
        let mut p = b.params_flat();
        p[0] += 1.0;
        b.set_params_flat(&p);
        assert_ne!(a.params_flat(), b.params_flat());
        // Both still train independently.
        let x = Tensor::zeros(&[1, 3]);
        let _ = a.loss_and_grad(&x, &[0]);
        let _ = b.loss_and_grad(&x, &[1]);
    }

    #[test]
    fn identical_seeds_build_identical_networks() {
        let a = Network::residual_mlp(5, 7, 3, 4, 42);
        let b = Network::residual_mlp(5, 7, 3, 4, 42);
        assert_eq!(a.params_flat(), b.params_flat());
        let c = Network::residual_mlp(5, 7, 3, 4, 43);
        assert_ne!(a.params_flat(), c.params_flat());
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn bad_flat_length_panics() {
        let mut net = Network::mlp(3, &[], 2, 0);
        net.set_params_flat(&[0.0; 3]);
    }

    #[test]
    fn conv_classifier_shapes_and_counts() {
        // length 12, kernel 5 → out_len 8; pool 4 → 2 per channel.
        let mut net = Network::conv1d_classifier(12, 3, 5, 4, 4, 1);
        assert_eq!(net.input_dim(), 12);
        assert_eq!(net.param_count(), (3 * 5 + 3) + (3 * 2 * 4 + 4));
        let x = Tensor::zeros(&[5, 12]);
        assert_eq!(net.forward(&x).shape(), &[5, 4]);
        // Dense everywhere: no sparse runs reported.
        let (_, grad) = net.loss_and_grad(&x, &[0, 1, 2, 3, 0]);
        assert_eq!(grad.len(), net.param_count());
        let mut runs = Vec::new();
        assert!(!net.grad_nonzero_runs_into(&mut runs));
        assert!(runs.is_empty());
    }

    #[test]
    fn embedding_classifier_reports_sparse_runs() {
        let (vocab, dim, hidden, tokens, classes) = (20, 4, 6, 3, 2);
        let mut net = Network::embedding_classifier(vocab, dim, hidden, tokens, classes, 2);
        let table = vocab * dim;
        let head = (dim * hidden + hidden) + (hidden * classes + classes);
        assert_eq!(net.param_count(), table + head);
        // One example touching tokens {1, 7} (7 twice).
        let x = Tensor::from_vec(vec![7.0, 1.0, 7.0], &[1, tokens]);
        let (_, grad) = net.loss_and_grad(&x, &[1]);
        assert_eq!(grad.len(), net.param_count());
        let mut runs = Vec::new();
        assert!(net.grad_nonzero_runs_into(&mut runs));
        // Touched table rows 1 and 7, plus the dense head as one run.
        assert_eq!(runs, vec![(dim, dim), (7 * dim, dim), (table, head)]);
        // The runs cover every nonzero gradient entry.
        for (i, &g) in grad.iter().enumerate() {
            if g != 0.0 {
                assert!(
                    runs.iter().any(|&(o, l)| i >= o && i < o + l),
                    "nonzero grad at {i} outside the reported runs"
                );
            }
        }
    }

    #[test]
    fn embedding_adjacent_rows_coalesce() {
        let mut net = Network::embedding_classifier(10, 4, 3, 2, 2, 3);
        let x = Tensor::from_vec(vec![4.0, 5.0], &[1, 2]);
        net.loss_and_grad(&x, &[0]);
        let mut runs = Vec::new();
        assert!(net.grad_nonzero_runs_into(&mut runs));
        // Rows 4 and 5 are adjacent → one run of 2·dim.
        assert_eq!(runs[0], (16, 8));
        assert_eq!(runs.len(), 2, "rows + head: {runs:?}");
    }

    #[test]
    fn read_runs_equal_nonzero_gradient_runs_on_the_embedding_classifier() {
        let (vocab, dim, tokens) = (30, 4, 3);
        let mut net = Network::embedding_classifier(vocab, dim, 5, tokens, 2, 6);
        let batches: [(&[f32], &[usize]); 3] = [
            // Repeated ids within and across examples, adjacent rows 8 and 9.
            (&[9.0, 2.0, 9.0, 2.0, 8.0, 29.0], &[0, 1]),
            // One id, everywhere.
            (&[17.0, 17.0, 17.0], &[1]),
            // All distinct, unsorted, including rows 0 and vocab − 1.
            (&[29.0, 0.0, 13.0, 4.0, 21.0, 7.0], &[1, 0]),
        ];
        let (mut read, mut written) = (vec![(99, 99)], Vec::new());
        for (ids, labels) in batches {
            let x = Tensor::from_vec(ids.to_vec(), &[labels.len(), tokens]);
            // Asked before the pass, from the batch alone...
            assert!(net.param_read_runs_into(&x, &mut read));
            net.loss_and_grad(&x, labels);
            // ...it names exactly what the pass then wrote.
            assert!(net.grad_nonzero_runs_into(&mut written));
            assert_eq!(read, written, "ids {ids:?}");
            assert!(read.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0));
        }
    }

    #[test]
    fn dense_first_layers_report_no_read_runs() {
        let mut runs = vec![(1, 2)];
        let mlp = Network::mlp(6, &[10], 3, 1);
        assert!(!mlp.param_read_runs_into(&Tensor::zeros(&[4, 6]), &mut runs));
        assert!(runs.is_empty());
        runs.push((1, 2));
        let conv = Network::conv1d_classifier(12, 3, 5, 4, 4, 1);
        assert!(!conv.param_read_runs_into(&Tensor::zeros(&[5, 12]), &mut runs));
        assert!(runs.is_empty());
    }

    #[test]
    fn set_params_runs_copies_the_runs_and_nothing_else() {
        let mut by_runs = Network::embedding_classifier(12, 3, 4, 2, 2, 8);
        let mut by_flat = by_runs.clone();
        let before = by_runs.params_flat();
        let flat: Vec<f32> = (0..before.len()).map(|i| 100.0 + i as f32).collect();
        // Two table rows, a run straddling the table/head tensor boundary
        // (table is 36 long), and the last parameter.
        let runs = [(3, 3), (9, 6), (34, 5), (before.len() - 1, 1)];
        by_runs.set_params_runs(&flat, &runs);
        by_flat.set_params_flat(&flat);
        let (after, full) = (by_runs.params_flat(), by_flat.params_flat());
        for i in 0..before.len() {
            if runs.iter().any(|&(o, l)| (o..o + l).contains(&i)) {
                assert_eq!(after[i], full[i], "position {i} inside a run");
            } else {
                assert_eq!(after[i], before[i], "position {i} outside every run");
            }
        }
        // No runs, no change; the full-cover run is `set_params_flat`.
        by_runs.set_params_runs(&flat, &[]);
        assert_eq!(by_runs.params_flat(), after);
        by_runs.set_params_runs(&flat, &[(0, before.len())]);
        assert_eq!(by_runs.params_flat(), full);
    }

    #[test]
    fn reused_grad_buffer_equals_grads_flat_after_every_step() {
        // 24 batches whose read sets shrink, grow and move: 1 to 6 distinct
        // rows of a 40-row table, drawn from a window that slides over it.
        let mut net = Network::embedding_classifier(40, 3, 4, 2, 3, 7);
        let mut buf = GradBuffer::new();
        let mut runs = Vec::new();
        let mut run_counts = std::collections::BTreeSet::new();
        for step in 0..24usize {
            let batch = 1 + (step * 5) % 3;
            let ids: Vec<f32> = (0..batch * 2)
                .map(|k| ((step * 7 + k * (1 + step % 4)) % 40) as f32)
                .collect();
            let x = Tensor::from_vec(ids, &[batch, 2]);
            let labels: Vec<usize> = (0..batch).map(|b| (b + step) % 3).collect();
            assert!(net.param_read_runs_into(&x, &mut runs));
            run_counts.insert(runs.len());
            let loss = net.loss_and_grad_into(&x, &labels, &runs, &mut buf);
            assert_eq!(buf.as_slice(), &net.grads_flat()[..], "step {step}");
            assert_eq!(loss, net.loss_and_grad(&x, &labels).0);
        }
        assert!(run_counts.len() >= 3, "run lists never changed shape");
        // A dense step in between overwrites everything, and the sparse
        // step after it zeroes all of that again.
        let full = [(0, net.param_count())];
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        net.loss_and_grad_into(&x, &[0], &full, &mut buf);
        assert_eq!(buf.as_slice(), &net.grads_flat()[..]);
        let x = Tensor::from_vec(vec![30.0, 31.0], &[1, 2]);
        assert!(net.param_read_runs_into(&x, &mut runs));
        net.loss_and_grad_into(&x, &[1], &runs, &mut buf);
        assert_eq!(buf.as_slice(), &net.grads_flat()[..]);

        // A dense model: one full run per step, no zeroing needed.
        let mut mlp = Network::mlp(4, &[6], 2, 3);
        let full = [(0, mlp.param_count())];
        let mut buf = GradBuffer::new();
        for step in 0..20 {
            let x = Tensor::from_vec((0..8).map(|i| (i + step) as f32 * 0.1).collect(), &[2, 4]);
            let loss = mlp.loss_and_grad_into(&x, &[0, 1], &full, &mut buf);
            let (expected_loss, expected) = mlp.loss_and_grad(&x, &[0, 1]);
            assert_eq!((loss, buf.as_slice()), (expected_loss, &expected[..]));
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn skipping_the_first_input_gradient_changes_no_parameter_gradient() {
        let wavy = |rows: usize, cols: usize| {
            let data = (0..rows * cols)
                .map(|i| ((i as f32 * 0.37).sin() * 1.3) + 0.11)
                .collect();
            Tensor::from_vec(data, &[rows, cols])
        };
        let ids = Tensor::from_vec((0..12).map(|i| ((i * 7) % 20) as f32).collect(), &[4, 3]);
        let labels = [0, 2, 1, 0];
        let nets = [
            (Network::conv1d_classifier(16, 3, 5, 4, 3, 1), wavy(4, 16)),
            (Network::mlp(6, &[8, 5], 3, 2), wavy(4, 6)),
            (Network::residual_mlp(6, 8, 2, 3, 3), wavy(4, 6)),
            (
                Network::embedding_classifier(20, 4, 6, 3, 3, 4),
                ids.clone(),
            ),
        ];
        for (mut net, x) in nets {
            // The pass `backward_pass` shortens: `backward` on every layer.
            let mut full = net.clone();
            let logits = full.forward(&x);
            let mut grad = Tensor::default();
            let full_loss = full.loss.loss_and_grad_into(&logits, &labels, &mut grad);
            for layer in full.layers.iter_mut().rev() {
                grad = layer.backward(&grad).clone();
            }
            let (loss, grads) = net.loss_and_grad(&x, &labels);
            assert_eq!(loss.to_bits(), full_loss.to_bits(), "{net:?}");
            assert_eq!(bits(&grads), bits(&full.grads_flat()), "{net:?}");
        }

        let layers: [(Box<dyn Layer>, Tensor); 5] = [
            (Box::new(Dense::new(6, 4, 5)), wavy(3, 6)),
            (Box::new(Conv1d::new(3, 4, 6)), wavy(3, 11)),
            (Box::new(Embedding::new(20, 4, 7)), ids),
            (Box::new(Relu::new()), wavy(3, 6)),
            (Box::new(ResidualBlock::new(6, 8)), wavy(3, 6)),
        ];
        for (mut by_params, x) in layers {
            let mut by_backward = by_params.clone_box();
            let y = by_params.forward(&x).clone();
            by_backward.forward(&x);
            let g = y.map(|v| v * 0.5 - 0.25);
            by_params.backward_params(&g);
            by_backward.backward(&g);
            let grads = |l: &dyn Layer| -> Vec<Vec<u32>> {
                let mut out = Vec::new();
                l.visit_params(&mut |_, t| out.push(bits(t.data())));
                out
            };
            assert_eq!(grads(&*by_params), grads(&*by_backward));
        }
    }

    /// `loss_and_grad` through the allocating reference forms of every
    /// layer and of the loss, the first layer's input gradient skipped.
    /// Returns the loss and the flat gradient.
    fn reference_loss_and_grad(net: &mut Network, x: &Tensor, labels: &[usize]) -> (f32, Vec<f32>) {
        let mut h = x.clone();
        for layer in &mut net.layers {
            h = layer.reference().ref_forward(&h);
        }
        let (loss, mut grad) = crate::loss::tests::reference_loss_and_grad(&h, labels);
        if let Some((first, rest)) = net.layers.split_first_mut() {
            for layer in rest.iter_mut().rev() {
                grad = layer.reference().ref_backward(&grad);
            }
            first.reference().ref_backward_params(&grad);
        }
        (loss, net.grads_flat())
    }

    #[test]
    fn buffered_steps_equal_the_allocating_reference_bit_for_bit() {
        let cases = [
            (
                Network::mlp(6, &[8, 5], 3, 2),
                Dataset::gaussian_blobs(3, 20, 6, 0.5, 1),
            ),
            (
                Network::residual_mlp(6, 8, 2, 3, 3),
                Dataset::gaussian_blobs(3, 20, 6, 0.5, 2),
            ),
            (
                Network::conv1d_classifier(16, 3, 5, 4, 3, 1),
                Dataset::shifted_patterns(3, 20, 16, 0.3, 3),
            ),
            (
                Network::embedding_classifier(40, 4, 6, 3, 3, 4),
                Dataset::zipf_tokens(3, 20, 40, 3, 1.1, 4),
            ),
        ];
        for (mut net, data) in cases {
            let (mut x, mut labels) = (Tensor::default(), Vec::new());
            let (mut runs, mut grad) = (Vec::new(), GradBuffer::new());
            for step in 0..50u64 {
                // Batch sizes alternate, so a buffer that kept a stale
                // shape would show.
                let batch = if step % 2 == 0 { 8 } else { 3 };
                let rng = || StdRng::seed_from_u64(step);
                data.sample_batch_into(batch, &mut rng(), &mut x, &mut labels);
                let (want_x, want_labels) = data.sample_batch(batch, &mut rng());
                let mut reference = net.clone();
                let (want_loss, want) =
                    reference_loss_and_grad(&mut reference, &want_x, &want_labels);

                if !net.param_read_runs_into(&x, &mut runs) {
                    runs.push((0, net.param_count()));
                }
                let loss = net.loss_and_grad_into(&x, &labels, &runs, &mut grad);
                assert_eq!(loss.to_bits(), want_loss.to_bits(), "{net:?} step {step}");
                assert_eq!(bits(grad.as_slice()), bits(&want), "{net:?} step {step}");

                let mut params = net.params_flat();
                params
                    .iter_mut()
                    .zip(&want)
                    .for_each(|(p, g)| *p -= 0.1 * g);
                net.set_params_flat(&params);
            }
        }
    }

    #[test]
    fn conv_classifier_learns_shifted_patterns() {
        let mut net = Network::conv1d_classifier(16, 4, 5, 4, 2, 5);
        // Two classes: a bump at a random-ish shift vs an alternating
        // pattern. SGD should separate them quickly.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..16 {
            let mut row = vec![0.0f32; 16];
            if i % 2 == 0 {
                let s = (i * 3) % 11;
                row[s] = 1.5;
                row[s + 1] = 1.5;
                labels.push(0);
            } else {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = if j % 2 == 0 { 0.8 } else { -0.8 };
                }
                labels.push(1);
            }
            data.extend_from_slice(&row);
        }
        let x = Tensor::from_vec(data, &[16, 16]);
        let initial = net.loss(&x, &labels);
        for _ in 0..200 {
            let (_, grad) = net.loss_and_grad(&x, &labels);
            let mut p = net.params_flat();
            for (pv, gv) in p.iter_mut().zip(&grad) {
                *pv -= 0.1 * gv;
            }
            net.set_params_flat(&p);
        }
        let trained = net.loss(&x, &labels);
        assert!(
            trained < initial * 0.5,
            "conv loss {initial} -> {trained} did not improve enough"
        );
    }
}
