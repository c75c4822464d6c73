//! Fully-connected layer.

use crate::layer::{Layer, Mode, Param};
use cdsgd_tensor::{kernel, xavier_std, SmallRng64, Tensor};

/// Fully-connected layer: `y = x·W + b`, `x: [N, in]`, `W: [in, out]`.
#[derive(Debug)]
pub struct Dense {
    weight: Param,
    bias: Param,
    cached_x: Option<Tensor>,
}

impl Dense {
    /// Xavier-initialized dense layer.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SmallRng64) -> Self {
        let std = xavier_std(in_features, out_features);
        Self {
            weight: Param::new(Tensor::randn(&[in_features, out_features], std, rng)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cached_x: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape()[1]
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        assert_eq!(x.ndim(), 2, "Dense expects [N, in] input");
        assert_eq!(x.shape()[1], self.in_features(), "feature count mismatch");
        let mut y = x.matmul(&self.weight.value);
        y.add_row_bias(&self.bias.value);
        self.cached_x = Some(x.clone());
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_params(dy);
        // dx = dy·Wᵀ
        dy.matmul_nt(&self.weight.value)
    }

    fn backward_params(&mut self, dy: &Tensor) {
        let x = self.cached_x.take().expect("backward without forward");
        let (batch, inputs, outputs) = (x.shape()[0], self.in_features(), self.out_features());
        assert_eq!(dy.shape(), &[batch, outputs], "dy shape mismatch");
        // dW = xᵀ·dy, written straight over the gradient buffer ; db = Σ_rows dy
        kernel::gemm_tn(
            x.data(),
            dy.data(),
            self.weight.grad.data_mut(),
            inputs,
            batch,
            outputs,
        );
        self.bias.grad = dy.sum_rows();
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> &'static str {
        "dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let mut rng = SmallRng64::new(0);
        let mut d = Dense::new(2, 2, &mut rng);
        d.weight.value = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        d.bias.value = Tensor::from_vec(vec![2], vec![10., 20.]);
        let y = d.forward(&Tensor::from_vec(vec![1, 2], vec![1., 1.]), Mode::Train);
        assert_eq!(y.data(), &[14., 26.]);
    }

    #[test]
    fn backward_shapes_and_param_count() {
        let mut rng = SmallRng64::new(1);
        let mut d = Dense::new(3, 5, &mut rng);
        assert_eq!(d.num_params(), 3 * 5 + 5);
        let x = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let y = d.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[4, 5]);
        let dx = d.backward(&Tensor::ones(&[4, 5]));
        assert_eq!(dx.shape(), &[4, 3]);
        assert_eq!(d.weight.grad.shape(), &[3, 5]);
        assert_eq!(d.bias.grad.shape(), &[5]);
        // db = sum of dy rows = 4 for each output.
        assert_eq!(d.bias.grad.data(), &[4.0; 5]);
    }

    #[test]
    fn numerical_gradient_check() {
        let mut rng = SmallRng64::new(2);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::randn(&[2, 3], 1.0, &mut rng);
        // Scalar loss = sum(y). Then dL/dy = ones.
        let y = d.forward(&x, Mode::Train);
        let dx = d.backward(&Tensor::ones(y.shape()));

        let eps = 1e-2f32;
        // Check dL/dx numerically.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = d.forward(&xp, Mode::Train).sum();
            let fm = d.forward(&xm, Mode::Train).sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((dx.data()[i] - numeric).abs() < 1e-2, "dx[{i}]");
        }
        // Check dL/dW numerically.
        d.forward(&x, Mode::Train);
        let dw = {
            d.backward(&Tensor::ones(&[2, 2]));
            d.weight.grad.clone()
        };
        for i in 0..dw.len() {
            let orig = d.weight.value.data()[i];
            d.weight.value.data_mut()[i] = orig + eps;
            let fp = d.forward(&x, Mode::Train).sum();
            d.weight.value.data_mut()[i] = orig - eps;
            let fm = d.forward(&x, Mode::Train).sum();
            d.weight.value.data_mut()[i] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((dw.data()[i] - numeric).abs() < 1e-2, "dW[{i}]");
        }
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn double_backward_panics() {
        let mut rng = SmallRng64::new(3);
        let mut d = Dense::new(2, 2, &mut rng);
        d.forward(&Tensor::zeros(&[1, 2]), Mode::Train);
        d.backward(&Tensor::zeros(&[1, 2]));
        d.backward(&Tensor::zeros(&[1, 2]));
    }
}
