//! Elementwise and BLAS-1 style operations on [`Tensor`].
//!
//! All binary ops require identical shapes (the NN layers never need
//! general broadcasting; row-wise bias addition is provided explicitly).
//! The loops themselves live in [`crate::kernel`] — this module only
//! adapts them to the `Tensor` API.

use crate::kernel;
use crate::tensor::Tensor;

impl Tensor {
    /// Elementwise sum: `self + other` (allocates).
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in binary op");
        let mut out = Tensor::zeros(self.shape());
        kernel::add_into(out.data_mut(), self.data(), other.data());
        out
    }

    /// Elementwise difference: `self - other` (allocates).
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product (allocates).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Elementwise map (allocates).
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = Tensor::zeros(self.shape());
        kernel::map_into(out.data_mut(), self.data(), f);
        out
    }

    /// In-place elementwise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        kernel::map_inplace(self.data_mut(), f);
    }

    /// Elementwise zip-map with shape check (allocates).
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in binary op");
        let mut out = Tensor::zeros(self.shape());
        kernel::zip_into(out.data_mut(), self.data(), other.data(), f);
        out
    }

    /// Scale by a scalar (allocates).
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place `self += alpha * other` (the BLAS `axpy`). This is the
    /// workhorse of every SGD weight update in the reproduction.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in axpy");
        kernel::axpy(alpha, other.data(), self.data_mut());
    }

    /// In-place `self += other`.
    ///
    /// Kept as `axpy(1.0, ..)` — not the kernel's plain `+=` — so the
    /// historical `y += 1.0 * x` bit behavior is preserved exactly.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.axpy(1.0, other);
    }

    /// In-place scale.
    pub fn scale_inplace(&mut self, s: f32) {
        kernel::scale(self.data_mut(), s);
    }

    /// Set all elements to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data_mut().fill(0.0);
    }

    /// Sum of all elements (sequential, order-pinned).
    pub fn sum(&self) -> f32 {
        kernel::reduce_sum(self.data())
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Squared L2 norm (sequential, order-pinned).
    pub fn sq_norm(&self) -> f32 {
        kernel::reduce_sq_sum(self.data())
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        kernel::reduce_max_abs(self.data())
    }

    /// Add a bias row-vector to every row of a 2-D tensor, in place.
    ///
    /// `self` is `[rows, cols]`, `bias` is `[cols]`.
    pub fn add_row_bias(&mut self, bias: &Tensor) {
        assert_eq!(self.ndim(), 2, "add_row_bias requires a matrix");
        let cols = self.shape()[1];
        assert_eq!(bias.len(), cols, "bias length must equal column count");
        let b = bias.data();
        for row in self.data_mut().chunks_exact_mut(cols) {
            kernel::add_assign(row, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(vec![v.len()], v.to_vec())
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[1., 2., 3.]);
        let b = t(&[4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).data(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        t(&[1., 2.]).add(&t(&[1., 2., 3.]));
    }

    #[test]
    fn axpy_matches_manual() {
        let mut y = t(&[1., 1., 1.]);
        let x = t(&[2., 4., 8.]);
        y.axpy(-0.5, &x);
        assert_eq!(y.data(), &[0., -1., -3.]);
    }

    #[test]
    fn reductions() {
        let a = t(&[3., -4., 0.]);
        assert_eq!(a.sum(), -1.0);
        assert!((a.mean() + 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(a.sq_norm(), 25.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn row_bias() {
        let mut m = Tensor::from_vec(vec![2, 3], vec![0., 0., 0., 1., 1., 1.]);
        m.add_row_bias(&t(&[10., 20., 30.]));
        assert_eq!(m.data(), &[10., 20., 30., 11., 21., 31.]);
    }

    #[test]
    fn map_inplace_and_fill_zero() {
        let mut a = t(&[1., -2., 3.]);
        a.map_inplace(f32::abs);
        assert_eq!(a.data(), &[1., 2., 3.]);
        a.fill_zero();
        assert_eq!(a.data(), &[0., 0., 0.]);
    }
}
