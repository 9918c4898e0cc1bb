//! Token embedding with sparse gradients.
//!
//! The vocab-style workload the parameter server's sparse push path exists
//! for: the `[vocab, dim]` table dominates the model's parameter count, yet
//! one batch touches only the rows of the tokens it contains. `forward`
//! reads only those rows and `backward` writes only those rows, and the
//! layer says which through [`Layer::param_read_runs`] (from the batch,
//! before the step) and [`Layer::grad_nonzero_runs`] (after it), so the
//! worker loop can move row-sized pulls and updates instead of the full
//! table in either direction.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sync_switch_tensor::{Init, Tensor};

use crate::layer::Layer;

/// Mean-pooled token embedding: input `[batch, tokens]` of integer token
/// ids carried as `f32`, output `[batch, dim]` — the mean of the looked-up
/// table rows. The id gradient is identically zero (ids are not
/// differentiable), so `backward` returns zeros of the input shape.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// `[vocab, dim]` embedding table.
    table: Tensor,
    /// `[vocab, dim]` gradient; only rows in `touched` are nonzero.
    grad: Tensor,
    /// Sorted, deduplicated rows written by the last `backward`.
    touched: Vec<usize>,
    /// Token ids of the cached batch, row-major.
    cached_ids: Vec<usize>,
    cached_tokens: usize,
}

impl Embedding {
    /// Creates a `[vocab, dim]` table with uniform init in `±1/√dim` (unit
    /// expected row norm, the classic embedding scale).
    ///
    /// # Panics
    ///
    /// Panics if `vocab == 0` or `dim == 0`.
    pub fn new(vocab: usize, dim: usize, seed: u64) -> Self {
        assert!(vocab > 0 && dim > 0, "empty embedding table");
        let mut rng = StdRng::seed_from_u64(seed);
        let limit = 1.0 / (dim as f64).sqrt();
        Embedding {
            table: Init::Uniform { limit }.tensor(&[vocab, dim], &mut rng),
            grad: Tensor::zeros(&[vocab, dim]),
            touched: Vec::new(),
            cached_ids: Vec::new(),
            cached_tokens: 0,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.cols()
    }

    /// Rows written by the last `backward`, sorted ascending.
    pub fn touched_rows(&self) -> &[usize] {
        &self.touched
    }

    /// The table row an input value names.
    ///
    /// # Panics
    ///
    /// Panics unless `raw` is a whole number in `0..vocab`.
    fn row_of(&self, raw: f32) -> usize {
        let (id, vocab) = (raw as usize, self.vocab());
        assert!(
            raw >= 0.0 && id < vocab && raw.fract() == 0.0,
            "token id {raw} invalid for vocab {vocab}"
        );
        id
    }
}

impl Layer for Embedding {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let batch = x.rows();
        let tokens = x.cols();
        assert!(tokens > 0, "empty token rows");
        let dim = self.dim();
        self.cached_ids.clear();
        self.cached_ids.reserve(batch * tokens);
        let mut y = Tensor::zeros(&[batch, dim]);
        let td = self.table.data();
        let yd = y.data_mut();
        let scale = 1.0 / tokens as f32;
        for (r, &raw) in x.data().iter().enumerate() {
            let id = self.row_of(raw);
            self.cached_ids.push(id);
            let out = &mut yd[(r / tokens) * dim..(r / tokens + 1) * dim];
            for (o, &t) in out.iter_mut().zip(&td[id * dim..(id + 1) * dim]) {
                *o += t * scale;
            }
        }
        self.cached_tokens = tokens;
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let tokens = self.cached_tokens;
        assert!(tokens > 0, "backward called before forward");
        let batch = self.cached_ids.len() / tokens;
        let dim = self.dim();
        assert_eq!(grad_out.rows(), batch, "grad shape mismatch");
        assert_eq!(grad_out.cols(), dim, "grad shape mismatch");
        // Steady-state cost is O(touched), not O(vocab): only the rows the
        // previous batch wrote are re-zeroed.
        let gd = self.grad.data_mut();
        for &row in &self.touched {
            gd[row * dim..(row + 1) * dim].iter_mut().for_each(|g| {
                *g = 0.0;
            });
        }
        self.touched.clear();
        let scale = 1.0 / tokens as f32;
        let god = grad_out.data();
        for b in 0..batch {
            let g = &god[b * dim..(b + 1) * dim];
            for t in 0..tokens {
                let row = self.cached_ids[b * tokens + t];
                self.touched.push(row);
                for (acc, &gv) in gd[row * dim..(row + 1) * dim].iter_mut().zip(g) {
                    *acc += gv * scale;
                }
            }
        }
        self.touched.sort_unstable();
        self.touched.dedup();
        // Ids carry no gradient.
        Tensor::zeros(&[batch, tokens])
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.table]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.table]
    }

    fn grad_nonzero_runs(&self, base: usize, out: &mut Vec<(usize, usize)>) -> bool {
        let dim = self.dim();
        for &row in &self.touched {
            out.push((base + row * dim, dim));
        }
        true
    }

    fn param_read_runs(&self, x: &Tensor, base: usize, out: &mut Vec<(usize, usize)>) -> bool {
        let dim = self.dim();
        let first = out.len();
        out.extend(
            x.data()
                .iter()
                .map(|&raw| (base + self.row_of(raw) * dim, dim)),
        );
        out[first..].sort_unstable();
        out.dedup();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(rows: &[&[usize]]) -> Tensor {
        let tokens = rows[0].len();
        let data: Vec<f32> = rows
            .iter()
            .flat_map(|r| r.iter().map(|&i| i as f32))
            .collect();
        Tensor::from_vec(data, &[rows.len(), tokens])
    }

    #[test]
    fn forward_mean_pools_rows() {
        let mut emb = Embedding::new(4, 2, 0);
        emb.params_mut()[0]
            .data_mut()
            .copy_from_slice(&[0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = emb.forward(&ids(&[&[1, 3], &[2, 2]]));
        assert_eq!(y.shape(), &[2, 2]);
        // Row 0: mean of rows 1 and 3 → (3, 4); row 1: row 2 → (3, 4).
        assert_eq!(y.data(), &[3.0, 4.0, 3.0, 4.0]);
    }

    #[test]
    fn backward_touches_only_seen_rows() {
        let mut emb = Embedding::new(8, 3, 1);
        let x = ids(&[&[2, 5], &[5, 5]]);
        let y = emb.forward(&x);
        let g = emb.backward(&Tensor::full(y.shape(), 1.0));
        // Ids carry no gradient.
        assert_eq!(g.shape(), x.shape());
        assert!(g.data().iter().all(|&v| v == 0.0));
        assert_eq!(emb.touched_rows(), &[2, 5]);
        let grad = emb.grads()[0];
        for row in 0..8 {
            let nz = grad.data()[row * 3..(row + 1) * 3]
                .iter()
                .any(|&v| v != 0.0);
            assert_eq!(nz, row == 2 || row == 5, "row {row}");
        }
        // Row 2 appears once out of 2 tokens in one example: grad 0.5 each.
        assert_eq!(&grad.data()[2 * 3..2 * 3 + 3], &[0.5, 0.5, 0.5]);
        // Row 5: 0.5 from example 0 plus 2 × 0.5 from example 1.
        assert_eq!(&grad.data()[5 * 3..5 * 3 + 3], &[1.5, 1.5, 1.5]);
    }

    #[test]
    fn stale_rows_are_rezeroed_between_backwards() {
        let mut emb = Embedding::new(6, 2, 2);
        let y = emb.forward(&ids(&[&[0, 1]]));
        emb.backward(&Tensor::full(y.shape(), 1.0));
        assert_eq!(emb.touched_rows(), &[0, 1]);
        let y = emb.forward(&ids(&[&[4, 4]]));
        emb.backward(&Tensor::full(y.shape(), 1.0));
        assert_eq!(emb.touched_rows(), &[4]);
        let grad = emb.grads()[0];
        assert!(grad.data()[..2 * 2].iter().all(|&v| v == 0.0), "stale rows");
        assert!(grad.data()[4 * 2..5 * 2].iter().all(|&v| v != 0.0));
    }

    #[test]
    fn table_gradient_matches_central_difference() {
        let mut emb = Embedding::new(5, 3, 3);
        let x = ids(&[&[0, 2], &[2, 4]]);
        let y = emb.forward(&x);
        let ones = Tensor::full(y.shape(), 1.0);
        emb.backward(&ones);
        let analytic = emb.grads()[0].data().to_vec();
        let eps = 1e-3f32;
        for (j, &expected) in analytic.iter().enumerate() {
            let orig = emb.params()[0].data()[j];
            emb.params_mut()[0].data_mut()[j] = orig + eps;
            let up = emb.forward(&x).sum();
            emb.params_mut()[0].data_mut()[j] = orig - eps;
            let dn = emb.forward(&x).sum();
            emb.params_mut()[0].data_mut()[j] = orig;
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (numeric - expected).abs() < 2e-2 * (1.0 + numeric.abs()),
                "table[{j}]: numeric {numeric} vs analytic {expected}"
            );
        }
    }

    #[test]
    fn sparse_runs_report_touched_rows() {
        let mut emb = Embedding::new(10, 4, 4);
        let y = emb.forward(&ids(&[&[7, 1]]));
        emb.backward(&Tensor::full(y.shape(), 1.0));
        let mut runs = Vec::new();
        assert!(emb.grad_nonzero_runs(100, &mut runs));
        assert_eq!(runs, vec![(100 + 4, 4), (100 + 28, 4)]);
    }

    #[test]
    #[should_panic(expected = "invalid for vocab")]
    fn out_of_vocab_id_panics() {
        let mut emb = Embedding::new(3, 2, 0);
        let _ = emb.forward(&ids(&[&[3]]));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut emb = Embedding::new(3, 2, 0);
        let _ = emb.backward(&Tensor::zeros(&[1, 2]));
    }
}
