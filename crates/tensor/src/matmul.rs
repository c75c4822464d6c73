//! Matrix multiplication entry points.
//!
//! The actual microkernels (one packed SIMD core at ymm and zmm width,
//! plus the scalar reference) live in [`crate::kernel`]; this module
//! keeps the shape-checked `Tensor` methods and the raw-slice `gemm*` API
//! other crates already use.
//!
//! Three layout variants cover everything the NN backward passes need
//! without materializing transposes:
//! * `matmul`    — `A[m,k] · B[k,n]`
//! * `matmul_nt` — `A[m,k] · B[n,k]ᵀ`  (e.g. `dX = dY · Wᵀ`)
//! * `matmul_tn` — `A[k,m]ᵀ · B[k,n]`  (e.g. `dW = Xᵀ · dY`)

use crate::kernel;
use crate::tensor::Tensor;

impl Tensor {
    /// `self[m,k] · other[k,n] -> [m,n]`.
    ///
    /// # Panics
    /// Panics if either operand is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");
        let mut out = Tensor::zeros(&[m, n]);
        kernel::gemm(self.data(), other.data(), out.data_mut(), m, k, n);
        out
    }

    /// `self[m,k] · other[n,k]ᵀ -> [m,n]` — multiplies by the transpose of
    /// `other` without materializing it.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_nt lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_nt rhs must be 2-D");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");
        let mut out = Tensor::zeros(&[m, n]);
        kernel::gemm_nt(self.data(), other.data(), out.data_mut(), m, k, n);
        out
    }

    /// `self[k,m]ᵀ · other[k,n] -> [m,n]` — multiplies by the transpose of
    /// `self` without materializing it.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_tn lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_tn rhs must be 2-D");
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");
        let mut out = Tensor::zeros(&[m, n]);
        kernel::gemm_tn(self.data(), other.data(), out.data_mut(), m, k, n);
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::rng::SmallRng64;
    use crate::tensor::Tensor;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                *c.at_mut(&[i, j]) = acc;
            }
        }
        c
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{x} vs {y}"
            );
        }
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        assert_eq!(a.matmul(&b).data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = SmallRng64::new(1);
        let a = Tensor::randn(&[5, 5], 1.0, &mut rng);
        let mut eye = Tensor::zeros(&[5, 5]);
        for i in 0..5 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        assert_close(&a.matmul(&eye), &a, 1e-6);
        assert_close(&eye.matmul(&a), &a, 1e-6);
    }

    #[test]
    fn matches_naive_on_random_sizes() {
        let mut rng = SmallRng64::new(2);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (17, 9, 13),
            (64, 64, 64),
            (70, 33, 41),
        ] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            assert_close(&a.matmul(&b), &naive(&a, &b), 1e-4);
        }
    }

    #[test]
    fn nt_variant_matches_explicit_transpose() {
        let mut rng = SmallRng64::new(3);
        let a = Tensor::randn(&[13, 9], 1.0, &mut rng);
        let b = Tensor::randn(&[11, 9], 1.0, &mut rng);
        assert_close(&a.matmul_nt(&b), &a.matmul(&b.transpose2d()), 1e-4);
    }

    #[test]
    fn tn_variant_matches_explicit_transpose() {
        let mut rng = SmallRng64::new(4);
        let a = Tensor::randn(&[9, 13], 1.0, &mut rng);
        let b = Tensor::randn(&[9, 11], 1.0, &mut rng);
        assert_close(&a.matmul_tn(&b), &a.transpose2d().matmul(&b), 1e-4);
    }

    #[test]
    fn large_parallel_path_matches_naive() {
        // Big enough to cross the packed kernel's 64-row band, 64-column
        // panel and 64-deep k-slice boundaries.
        let mut rng = SmallRng64::new(5);
        let a = Tensor::randn(&[128, 96], 1.0, &mut rng);
        let b = Tensor::randn(&[96, 80], 1.0, &mut rng);
        assert_close(&a.matmul(&b), &naive(&a, &b), 1e-3);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        a.matmul(&b);
    }
}
