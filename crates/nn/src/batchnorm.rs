//! Batch normalization over NCHW feature maps.

use crate::layer::{Layer, Mode, Param};
use cdsgd_tensor::kernel::{self, ChannelTerm};
use cdsgd_tensor::Tensor;

/// Per-channel batch normalization (Ioffe & Szegedy), the "bn" in the
/// paper's Inception-bn workload.
///
/// Training mode normalizes with batch statistics over `(N, H, W)` and
/// maintains exponential running averages; evaluation mode uses the
/// running averages. `gamma`/`beta` are learnable; running statistics are
/// worker-local state (as in real data-parallel training, where BN moments
/// are not synchronized through the parameter server).
#[derive(Debug)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    /// Per-channel mean and std-dev of the last forward.
    mean: Vec<f32>,
    std: Vec<f32>,
    /// The last train-mode forward's input shape; its normalized input
    /// is in `xhat`, a buffer reused from step to step.
    cache: Option<[usize; 4]>,
    xhat: Vec<f32>,
}

impl BatchNorm2d {
    /// Batch norm over `channels` feature maps with default eps/momentum.
    pub fn new(channels: usize) -> Self {
        Self {
            channels,
            eps: 1e-5,
            momentum: 0.9,
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            mean: vec![0.0; channels],
            std: vec![0.0; channels],
            cache: None,
            xhat: Vec::new(),
        }
    }
}

/// `[n, c, h·w]` of an NCHW shape: the layout the batch-norm kernels walk.
fn dims(shape: &[usize]) -> [usize; 3] {
    [shape[0], shape[1], shape[2] * shape[3]]
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(x.ndim(), 4, "BatchNorm2d expects [N,C,H,W]");
        assert_eq!(x.shape()[1], self.channels, "channel mismatch");
        let [n, ch, plane] = dims(x.shape());
        let m = (n * plane) as f32;
        let xs = x.data();
        let (mean, var) = (&mut self.mean, &mut self.std);
        match mode {
            Mode::Train => {
                let dims = [n, ch, plane];
                kernel::channel_sums(dims, 0.0, ChannelTerm::Value(xs), |c, s| mean[c] = s / m);
                let sq = ChannelTerm::SqDev(xs, mean);
                kernel::channel_sums(dims, 0.0, sq, |c, s| var[c] = s / m);
                let mu = self.momentum;
                for c in 0..ch {
                    self.running_mean[c] = mu * self.running_mean[c] + (1.0 - mu) * mean[c];
                    self.running_var[c] = mu * self.running_var[c] + (1.0 - mu) * var[c];
                }
            }
            Mode::Eval => {
                mean.copy_from_slice(&self.running_mean);
                var.copy_from_slice(&self.running_var);
            }
        }
        for v in var.iter_mut() {
            *v = (*v + self.eps).sqrt(); // the variance becomes the std-dev
        }

        let train = mode == Mode::Train;
        if train {
            self.xhat.resize(x.len(), 0.0);
        }
        // Written whole by the kernel: built without a zero fill.
        let mut out = Vec::with_capacity(x.len());
        kernel::bn_normalize(
            [n, ch, plane],
            xs,
            (&self.mean, &self.std),
            (self.gamma.value.data(), self.beta.value.data()),
            train.then_some(&mut self.xhat[..]),
            &mut out,
        );
        self.cache = train.then(|| [n, ch, x.shape()[2], x.shape()[3]]);
        Tensor::from_vec(x.shape().to_vec(), out)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let shape = self.cache.take().expect("backward without train forward");
        assert_eq!(dy.shape(), shape.as_slice());
        let dims = dims(&shape);
        let (dys, xhats) = (dy.data(), &self.xhat[..]);

        // Standard BN backward:
        // dβ = Σ dy ; dγ = Σ dy·x̂
        // dx = γ/std · (dy − mean(dy) − x̂·mean(dy·x̂))
        let (dbeta, dgamma) = (self.beta.grad.data_mut(), self.gamma.grad.data_mut());
        kernel::channel_sums(dims, 0.0, ChannelTerm::Value(dys), |c, s| dbeta[c] = s);
        let dy_xhat = ChannelTerm::Product(dys, xhats);
        kernel::channel_sums(dims, 0.0, dy_xhat, |c, s| dgamma[c] = s);

        let mut dx = Vec::with_capacity(dy.len());
        kernel::bn_input_grad(
            dims,
            (dys, xhats),
            (self.gamma.value.data(), &self.std),
            (dbeta, dgamma),
            &mut dx,
        );
        Tensor::from_vec(shape.to_vec(), dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn name(&self) -> &'static str {
        "batchnorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsgd_tensor::SmallRng64;

    #[test]
    fn train_output_is_normalized() {
        let mut rng = SmallRng64::new(0);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(&[4, 3, 5, 5], 3.0, &mut rng).map(|v| v + 2.0);
        let y = bn.forward(&x, Mode::Train);
        // Each channel of y should have ~zero mean, ~unit variance.
        for c in 0..3 {
            let vals: Vec<f32> = (0..4)
                .flat_map(|s| y.data()[(s * 3 + c) * 25..(s * 3 + c + 1) * 25].to_vec())
                .collect();
            let m = vals.iter().sum::<f32>() / vals.len() as f32;
            let v = vals.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / vals.len() as f32;
            assert!(m.abs() < 1e-4, "mean {m}");
            assert!((v - 1.0).abs() < 1e-2, "var {v}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = SmallRng64::new(1);
        let mut bn = BatchNorm2d::new(2);
        // Train several batches so running stats adapt.
        for _ in 0..50 {
            let x = Tensor::randn(&[8, 2, 3, 3], 2.0, &mut rng).map(|v| v + 5.0);
            bn.forward(&x, Mode::Train);
        }
        // In eval mode the same distribution should map to ~N(0,1).
        let x = Tensor::randn(&[64, 2, 3, 3], 2.0, &mut rng).map(|v| v + 5.0);
        let y = bn.forward(&x, Mode::Eval);
        let m = y.mean();
        assert!(m.abs() < 0.2, "eval mean {m}");
    }

    #[test]
    fn gamma_beta_affect_output() {
        let mut bn = BatchNorm2d::new(1);
        bn.gamma.value = Tensor::from_vec(vec![1], vec![2.0]);
        bn.beta.value = Tensor::from_vec(vec![1], vec![3.0]);
        let x = Tensor::from_vec(vec![2, 1, 1, 1], vec![-1.0, 1.0]);
        let y = bn.forward(&x, Mode::Train);
        // Normalized x is ±1, so y = ±2 + 3.
        assert!((y.data()[0] - 1.0).abs() < 1e-2);
        assert!((y.data()[1] - 5.0).abs() < 1e-2);
    }

    #[test]
    fn numerical_gradient_check() {
        let mut rng = SmallRng64::new(2);
        let x = Tensor::randn(&[3, 2, 2, 2], 1.0, &mut rng);
        let mut bn = BatchNorm2d::new(2);
        // Non-trivial gamma to exercise the scale path.
        bn.gamma.value = Tensor::from_vec(vec![2], vec![1.5, 0.5]);

        // Loss = Σ y_i * w_i with fixed random weights (sum alone has zero
        // gradient through normalization).
        let w = Tensor::randn(&[3 * 2 * 2 * 2], 1.0, &mut rng);
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            bn.forward(x, Mode::Train)
                .data()
                .iter()
                .zip(w.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        loss(&mut bn, &x);
        let dy = Tensor::from_vec(x.shape().to_vec(), w.data().to_vec());
        bn.forward(&x, Mode::Train);
        let dx = bn.backward(&dy);
        let dgamma = bn.gamma.grad.clone();

        let eps = 1e-2f32;
        for i in (0..x.len()).step_by(3) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            // Use fresh BN copies so running stats do not drift the check.
            let mut b1 = BatchNorm2d::new(2);
            b1.gamma.value = bn.gamma.value.clone();
            let mut b2 = BatchNorm2d::new(2);
            b2.gamma.value = bn.gamma.value.clone();
            let numeric = (loss(&mut b1, &xp) - loss(&mut b2, &xm)) / (2.0 * eps);
            assert!(
                (dx.data()[i] - numeric).abs() < 0.05,
                "dx[{i}] {} vs {numeric}",
                dx.data()[i]
            );
        }
        for c in 0..2 {
            let orig = bn.gamma.value.data()[c];
            bn.gamma.value.data_mut()[c] = orig + eps;
            let fp = loss(&mut bn, &x);
            bn.gamma.value.data_mut()[c] = orig - eps;
            let fm = loss(&mut bn, &x);
            bn.gamma.value.data_mut()[c] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((dgamma.data()[c] - numeric).abs() < 0.05, "dgamma[{c}]");
        }
    }
}
