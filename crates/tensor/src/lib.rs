//! # cdsgd-tensor
//!
//! A small, self-contained N-dimensional `f32` tensor library that provides
//! exactly the math kernels the CD-SGD reproduction needs: packed
//! matrix multiplication, im2col-based convolution kernels,
//! elementwise arithmetic, reductions, and seeded random initialization.
//!
//! The library is deliberately minimal — it is the substrate standing in for
//! MXNet's NDArray engine in the paper's stack (see `DESIGN.md` §2). All
//! storage is a contiguous row-major `Vec<f32>`; no views or broadcasting
//! machinery beyond what the NN layers require.
//!
//! ## Quick example
//!
//! ```
//! use cdsgd_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
//! let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.data(), &[58., 64., 139., 154.]);
//! ```

mod conv;
pub mod kernel;
mod matmul;
mod ops;
mod reduce;
mod rng;
mod shape;
mod tensor;

pub use conv::Conv2dGeom;
pub use kernel::{col2im, im2col_into};
pub use rng::{he_std, xavier_std, SmallRng64};
pub use shape::{contiguous_strides, numel, Shape};
pub use tensor::Tensor;
