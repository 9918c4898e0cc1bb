//! The dense tensor type and elementwise operations.

use std::fmt;

/// A dense, row-major `f32` tensor.
///
/// Shapes are validated on every operation; mismatches panic with a message
/// naming both shapes, because in a training loop a silent broadcast is a
/// far worse failure mode than a crash.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the shape has zero elements on any axis.
    pub fn zeros(shape: &[usize]) -> Self {
        let n = checked_len(shape);
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = checked_len(shape);
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// Builds a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let n = checked_len(shape);
        assert_eq!(
            data.len(),
            n,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true for validated
    /// shapes, but required for API completeness).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of rows of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() requires a 2-D tensor");
        self.shape[0]
    }

    /// Number of columns of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() requires a 2-D tensor");
        self.shape[1]
    }

    /// Element accessor for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or the tensor is not 2-D.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        let cols = self.cols();
        assert!(r < self.rows() && c < cols, "index ({r},{c}) out of bounds");
        self.data[r * cols + c]
    }

    /// Mutable element accessor for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or the tensor is not 2-D.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        let cols = self.cols();
        assert!(r < self.rows() && c < cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * cols + c]
    }

    /// Reshapes in place to a new shape with the same element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&mut self, shape: &[usize]) {
        let n = checked_len(shape);
        assert_eq!(
            n,
            self.data.len(),
            "cannot reshape {:?} ({} elems) to {:?} ({} elems)",
            self.shape,
            self.data.len(),
            shape,
            n
        );
        self.shape = shape.to_vec();
    }

    /// Elementwise addition: `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise subtraction: `self − other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.check_same_shape(other);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (BLAS `axpy`), the core of every SGD
    /// update in the parameter server.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        self.check_same_shape(other);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f32) -> Tensor {
        self.map(|x| x * scalar)
    }

    /// In-place multiplication by a scalar.
    pub fn scale_assign(&mut self, scalar: f32) {
        for a in &mut self.data {
            *a *= scalar;
        }
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_with<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor {
        self.check_same_shape(other);
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 if empty).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Index of the maximum element (first on ties).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Argmax along the last axis of a 2-D tensor, one result per row.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (r, c) = (self.rows(), self.cols());
        (0..r)
            .map(|i| {
                let row = &self.data[i * c..(i + 1) * c];
                let mut best = 0;
                for (j, &x) in row.iter().enumerate() {
                    if x > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Whether all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    fn check_same_shape(&self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, …, {:.4}]",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1]
            )
        }
    }
}

fn checked_len(shape: &[usize]) -> usize {
    assert!(!shape.is_empty(), "shape must have at least one axis");
    let mut n: usize = 1;
    for &d in shape {
        assert!(d > 0, "shape axes must be positive, got {shape:?}");
        n = n
            .checked_mul(d)
            .unwrap_or_else(|| panic!("shape {shape:?} overflows"));
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.at(1, 2), 6.0);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn eye_matrix() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(0, 0), 1.0);
        assert_eq!(i.at(1, 2), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let g = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        a.axpy(-0.1, &g);
        assert_eq!(a.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(t.sum(), 7.0);
        assert_eq!(t.mean(), 3.5);
        assert_eq!(t.l2_norm(), 5.0);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn argmax_rows_picks_first_on_ties() {
        let t = Tensor::from_vec(vec![1.0, 5.0, 5.0, 9.0, 2.0, 9.0], &[2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let mut t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        t.reshape(&[3, 2]);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(2, 1), 5.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        let _ = a.add(&b);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn bad_from_vec_panics() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_axis_panics() {
        let _ = Tensor::zeros(&[2, 0]);
    }

    #[test]
    fn finiteness_check() {
        let ok = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        assert!(ok.is_finite());
        let bad = Tensor::from_vec(vec![1.0, f32::NAN], &[2]);
        assert!(!bad.is_finite());
        let inf = Tensor::from_vec(vec![f32::INFINITY, 0.0], &[2]);
        assert!(!inf.is_finite());
    }
}
