//! 2-D linear algebra: matrix products and transposes.

use crate::tensor::Tensor;

impl Tensor {
    /// Matrix product of two 2-D tensors: `(m×k) · (k×n) → (m×n)`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul`] into `out`, which is reshaped in place.
    ///
    /// Uses a cache-friendly i-k-j loop order; at the layer sizes used by the
    /// training substrate this is comfortably fast enough.
    ///
    /// # Panics
    ///
    /// As [`Tensor::matmul`].
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(
            k,
            k2,
            "matmul inner dimension mismatch: {:?} · {:?}",
            self.shape(),
            other.shape()
        );
        out.resize_zeroed(&[m, n]);
        let (a, b, out) = (self.data(), other.data(), out.data_mut());
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (kk, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aik * bv;
                }
            }
        }
    }

    /// `selfᵀ · other` without materializing the transpose:
    /// `(k×m)ᵀ·(k×n) → (m×n)`. Used for weight gradients `Xᵀ·δ`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the shared dimension disagrees.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.t_matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::t_matmul`] into `out`, which is reshaped in place.
    ///
    /// # Panics
    ///
    /// As [`Tensor::t_matmul`].
    pub fn t_matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(
            k,
            k2,
            "t_matmul leading dimension mismatch: {:?}ᵀ · {:?}",
            self.shape(),
            other.shape()
        );
        out.resize_zeroed(&[m, n]);
        let (a, b, out) = (self.data(), other.data(), out.data_mut());
        for kk in 0..k {
            let arow = &a[kk * m..(kk + 1) * m];
            let brow = &b[kk * n..(kk + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }

    /// `self · otherᵀ` without materializing the transpose:
    /// `(m×k)·(n×k)ᵀ → (m×n)`. Used for input gradients `δ·Wᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the shared dimension disagrees.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_t_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_t`] into `out`, which is reshaped in place.
    ///
    /// # Panics
    ///
    /// As [`Tensor::matmul_t`].
    pub fn matmul_t_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        assert_eq!(
            k,
            k2,
            "matmul_t trailing dimension mismatch: {:?} · {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        out.resize_zeroed(&[m, n]);
        let (a, b, out) = (self.data(), other.data(), out.data_mut());
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                out[i * n + j] = arow.iter().zip(brow).map(|(&x, &y)| x * y).sum();
            }
        }
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data()[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Sums a 2-D tensor over rows, yielding a `[cols]` vector. Used for
    /// bias gradients.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::default();
        self.sum_rows_into(&mut out);
        out
    }

    /// [`Tensor::sum_rows`] into `out`, which is reshaped in place.
    ///
    /// # Panics
    ///
    /// As [`Tensor::sum_rows`].
    pub fn sum_rows_into(&self, out: &mut Tensor) {
        let (m, n) = (self.rows(), self.cols());
        out.resize_zeroed(&[n]);
        let out = out.data_mut();
        for i in 0..m {
            let row = &self.data()[i * n..(i + 1) * n];
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    /// Adds a `[cols]` vector to every row of a 2-D tensor in place. Used
    /// for bias application.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn add_row_vector(&mut self, v: &Tensor) {
        let (m, n) = (self.rows(), self.cols());
        assert_eq!(
            v.shape(),
            &[n],
            "row vector shape {:?} incompatible with {:?}",
            v.shape(),
            self.shape()
        );
        for i in 0..m {
            for j in 0..n {
                self.data_mut()[i * n + j] += v.data()[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape)
    }

    #[test]
    fn matmul_known_product() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let d = t(&[0.5, -1.0, 2.0, 0.0, 1.0, 3.0], &[3, 2]);
        let fast = x.t_matmul(&d);
        let slow = x.transpose().matmul(&d);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let d = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let w = t(&[5.0, 6.0, 7.0, 8.0, 9.0, 10.0], &[3, 2]);
        let fast = d.matmul_t(&w);
        let slow = d.matmul(&w.transpose());
        assert_eq!(fast, slow);
    }

    #[test]
    fn transpose_involution() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), &[3, 2]);
        assert_eq!(a.transpose().at(2, 1), 6.0);
    }

    #[test]
    fn sum_rows_and_bias() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.sum_rows().data(), &[5.0, 7.0, 9.0]);
        let mut b = a.clone();
        b.add_row_vector(&t(&[10.0, 20.0, 30.0], &[3]));
        assert_eq!(b.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn into_forms_equal_their_allocating_forms_in_a_kept_buffer() {
        let a = t(&[1.0, 0.0, 3.0, -4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 0.0, 10.0, 11.0, -12.0], &[3, 2]);
        let mut out = Tensor::zeros(&[4, 4]);
        let ptr = out.data().as_ptr();
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        a.t_matmul_into(&a, &mut out);
        assert_eq!(out, a.t_matmul(&a));
        a.matmul_t_into(&a, &mut out);
        assert_eq!(out, a.matmul_t(&a));
        a.sum_rows_into(&mut out);
        assert_eq!(out, a.sum_rows());
        assert_eq!(out.data().as_ptr(), ptr, "a kept buffer was reallocated");
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_matmul_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }
}
