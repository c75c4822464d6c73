//! Batch normalization over NCHW feature maps.

use crate::layer::{Layer, Mode, Param};
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
    /// Cache: normalized input, batch std-dev per channel, input shape.
    cache: Option<(Tensor, Vec<f32>, Vec<usize>)>,
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
            cache: None,
        }
    }

    /// Per-channel reduction size for an input shape.
    fn plane(shape: &[usize]) -> usize {
        shape[0] * shape[2] * shape[3]
    }

    /// Iterate linear indices of channel `c` for shape `[n,ch,h,w]`.
    fn channel_indices(shape: &[usize], c: usize) -> impl Iterator<Item = usize> + '_ {
        let (n, ch, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        (0..n).flat_map(move |s| {
            let base = (s * ch + c) * h * w;
            base..base + h * w
        })
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(x.ndim(), 4, "BatchNorm2d expects [N,C,H,W]");
        assert_eq!(x.shape()[1], self.channels, "channel mismatch");
        let shape = x.shape().to_vec();
        let m = Self::plane(&shape) as f32;
        let mut out = Tensor::zeros(&shape);
        let mut xhat = Tensor::zeros(&shape);
        let mut stds = vec![0.0f32; self.channels];
        // The slices once, outside the per-element loops: an accessor
        // call per element (a storage-kind check each) keeps them scalar.
        let (xs, outs, xhats) = (x.data(), out.data_mut(), xhat.data_mut());

        #[allow(clippy::needless_range_loop)]
        for c in 0..self.channels {
            let (mean, var) = match mode {
                Mode::Train => {
                    let mut sum = 0.0f32;
                    for i in Self::channel_indices(&shape, c) {
                        sum += xs[i];
                    }
                    let mean = sum / m;
                    let mut var = 0.0f32;
                    for i in Self::channel_indices(&shape, c) {
                        let d = xs[i] - mean;
                        var += d * d;
                    }
                    let var = var / m;
                    self.running_mean[c] =
                        self.momentum * self.running_mean[c] + (1.0 - self.momentum) * mean;
                    self.running_var[c] =
                        self.momentum * self.running_var[c] + (1.0 - self.momentum) * var;
                    (mean, var)
                }
                Mode::Eval => (self.running_mean[c], self.running_var[c]),
            };
            let std = (var + self.eps).sqrt();
            stds[c] = std;
            let g = self.gamma.value.data()[c];
            let b = self.beta.value.data()[c];
            for i in Self::channel_indices(&shape, c) {
                let xn = (xs[i] - mean) / std;
                xhats[i] = xn;
                outs[i] = g * xn + b;
            }
        }
        if mode == Mode::Train {
            self.cache = Some((xhat, stds, shape));
        }
        out
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (xhat, stds, shape) = self.cache.take().expect("backward without train forward");
        assert_eq!(dy.shape(), shape.as_slice());
        let m = Self::plane(&shape) as f32;
        let mut dx = Tensor::zeros(&shape);
        let (dys, xhats, dxs) = (dy.data(), xhat.data(), dx.data_mut());

        #[allow(clippy::needless_range_loop)]
        for c in 0..self.channels {
            // Standard BN backward:
            // dβ = Σ dy ; dγ = Σ dy·x̂
            // dx = γ/std · (dy − mean(dy) − x̂·mean(dy·x̂))
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for i in Self::channel_indices(&shape, c) {
                sum_dy += dys[i];
                sum_dy_xhat += dys[i] * xhats[i];
            }
            self.beta.grad.data_mut()[c] = sum_dy;
            self.gamma.grad.data_mut()[c] = sum_dy_xhat;
            let g = self.gamma.value.data()[c];
            let scale = g / stds[c];
            let mean_dy = sum_dy / m;
            let mean_dy_xhat = sum_dy_xhat / m;
            for i in Self::channel_indices(&shape, c) {
                dxs[i] = scale * (dys[i] - mean_dy - xhats[i] * mean_dy_xhat);
            }
        }
        dx
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
        let shape = x.shape().to_vec();
        for c in 0..3 {
            let vals: Vec<f32> = BatchNorm2d::channel_indices(&shape, c)
                .map(|i| y.data()[i])
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
