//! Pointwise activation layers: ReLU, Sigmoid, Tanh.

use crate::layer::{Layer, Mode};
use cdsgd_tensor::Tensor;

/// `f(dy[i], saved[i])` per element into a new tensor of `dy`'s shape,
/// each element written once: no zero fill before.
fn backward_with(dy: &Tensor, saved: &[f32], f: impl Fn(f32, f32) -> f32) -> Tensor {
    assert_eq!(dy.len(), saved.len(), "backward without matching forward");
    let dx = dy
        .data()
        .iter()
        .zip(saved)
        .map(|(&g, &v)| f(g, v))
        .collect();
    Tensor::from_vec(dy.shape().to_vec(), dx)
}

/// Rectified linear unit: `max(0, x)`.
#[derive(Debug, Default)]
pub struct Relu {
    /// 1.0 where the forward input was strictly positive, else 0.0.
    mask: Vec<f32>,
}

impl Relu {
    /// New ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.mask.clear();
        let mask = x.data().iter().map(|&v| if v > 0.0 { 1.0 } else { 0.0 });
        self.mask.extend(mask);
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        // Branch (not `g * m`): the gated-off lanes must be literal 0.0,
        // never `-0.0` or NaN from the incoming gradient.
        backward_with(dy, &self.mask, |g, m| if m != 0.0 { g } else { 0.0 })
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// Logistic sigmoid: `1 / (1 + e^-x)`.
#[derive(Debug, Default)]
pub struct Sigmoid {
    out: Vec<f32>,
}

impl Sigmoid {
    /// New sigmoid layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let y = x.map(|v| 1.0 / (1.0 + (-v).exp()));
        self.out = y.data().to_vec();
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        backward_with(dy, &self.out, |g, y| g * y * (1.0 - y))
    }

    fn name(&self) -> &'static str {
        "sigmoid"
    }
}

/// Hyperbolic tangent.
#[derive(Debug, Default)]
pub struct Tanh {
    out: Vec<f32>,
}

impl Tanh {
    /// New tanh layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let y = x.map(f32::tanh);
        self.out = y.data().to_vec();
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        backward_with(dy, &self.out, |g, y| g * (1.0 - y * y))
    }

    fn name(&self) -> &'static str {
        "tanh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut l = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![-1.0, 0.0, 2.0, -0.5]);
        let y = l.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let dx = l.backward(&Tensor::ones(&[4]));
        assert_eq!(dx.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn sigmoid_midpoint() {
        let mut l = Sigmoid::new();
        let y = l.forward(&Tensor::zeros(&[1]), Mode::Train);
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        let dx = l.backward(&Tensor::ones(&[1]));
        assert!((dx.data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_is_odd_with_unit_slope_at_zero() {
        let mut l = Tanh::new();
        let y = l.forward(&Tensor::from_vec(vec![2], vec![1.5, -1.5]), Mode::Train);
        assert!((y.data()[0] + y.data()[1]).abs() < 1e-6);
        let mut l2 = Tanh::new();
        l2.forward(&Tensor::zeros(&[1]), Mode::Train);
        let dx = l2.backward(&Tensor::ones(&[1]));
        assert!((dx.data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn numerical_gradient_check() {
        // d/dx f(x) via central differences matches backward for all three.
        let eps = 1e-3f32;
        let xs = [-1.2f32, -0.3, 0.0, 0.4, 2.0];
        let check = |mk: &dyn Fn() -> Box<dyn Layer>| {
            for &x0 in &xs {
                let mut l = mk();
                l.forward(&Tensor::from_vec(vec![1], vec![x0]), Mode::Train);
                let analytic = l.backward(&Tensor::ones(&[1])).data()[0];
                let mut lp = mk();
                let fp = lp
                    .forward(&Tensor::from_vec(vec![1], vec![x0 + eps]), Mode::Train)
                    .data()[0];
                let mut lm = mk();
                let fm = lm
                    .forward(&Tensor::from_vec(vec![1], vec![x0 - eps]), Mode::Train)
                    .data()[0];
                let numeric = (fp - fm) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-2,
                    "at {x0}: analytic {analytic} vs numeric {numeric}"
                );
            }
        };
        check(&|| Box::new(Sigmoid::new()));
        check(&|| Box::new(Tanh::new()));
        // ReLU away from the kink:
        for &x0 in &[-1.0f32, 1.0] {
            let mut l = Relu::new();
            l.forward(&Tensor::from_vec(vec![1], vec![x0]), Mode::Train);
            let analytic = l.backward(&Tensor::ones(&[1])).data()[0];
            assert_eq!(analytic, if x0 > 0.0 { 1.0 } else { 0.0 });
        }
    }
}
