//! # cdsgd-nn
//!
//! A hand-plumbed neural-network framework: every layer implements an
//! explicit `forward` / `backward` pair (no autograd tape), exactly like
//! the layer-wise structure the paper's pipelining discussion assumes.
//! This crate is the substrate standing in for MXNet's model layer
//! (DESIGN.md §2).
//!
//! * [`Layer`] — the forward/backward/params contract.
//! * Layers: [`Dense`], [`Conv2d`], [`MaxPool2d`], [`AvgPool2d`],
//!   [`GlobalAvgPool`], [`BatchNorm2d`], [`Relu`], [`Sigmoid`], [`Tanh`],
//!   [`Flatten`], [`ResidualBlock`], [`InceptionBlock`].
//! * [`Sequential`] — container with stable per-parameter keys, the unit
//!   the parameter server shards by.
//! * [`SoftmaxCrossEntropy`] — the classification loss used throughout
//!   the paper's experiments.
//! * [`models`] — the model zoo (LeNet-5, MLPs, ResNet-20-lite,
//!   Inception-bn-lite) scaled so CPU training converges in minutes.
//!
//! ```
//! use cdsgd_nn::{models, Layer, Mode, SoftmaxCrossEntropy};
//! use cdsgd_tensor::{SmallRng64, Tensor};
//!
//! let mut rng = SmallRng64::new(0);
//! let mut model = models::mlp(&[4, 16, 3], &mut rng);
//! let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
//! let logits = model.forward(&x, Mode::Train);
//! let (loss, dlogits) = SoftmaxCrossEntropy.loss_and_grad(&logits, &[0, 2]);
//! model.backward(&dlogits);
//! assert!(loss > 0.0);
//! ```

mod activation;
mod batchnorm;
mod blocks;
mod conv2d;
mod dense;
mod flatten;
mod layer;
mod loss;
pub mod models;
mod pool;
mod sequential;
mod util;

pub use activation::{Relu, Sigmoid, Tanh};
pub use batchnorm::BatchNorm2d;
pub use blocks::{InceptionBlock, ResidualBlock};
pub use conv2d::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;
pub use layer::{Layer, Mode, Param};
pub use loss::SoftmaxCrossEntropy;
pub use pool::{AvgPool2d, GlobalAvgPool, MaxPool2d};
pub use sequential::Sequential;
pub use util::{concat_channels, split_channels};
