//! The [`Layer`] trait and the [`Param`] value/gradient pair.

use cdsgd_tensor::Tensor;

/// Forward-pass mode: training (batch statistics) or evaluation
/// (running statistics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Training mode.
    Train,
    /// Inference/evaluation mode.
    Eval,
}

/// A learnable parameter tensor together with its gradient buffer.
///
/// `grad` always has the same shape as `value`; `backward` overwrites it
/// (gradients are not accumulated across calls — one backward per forward).
#[derive(Clone, Debug)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    /// Gradient of the loss w.r.t. `value`, produced by the last backward.
    pub grad: Tensor,
}

impl Param {
    /// A parameter with a zeroed gradient buffer of matching shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self { value, grad }
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True if the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A neural-network layer with explicit, manually-derived gradients.
///
/// Contract:
/// * `forward` caches whatever activations `backward` needs. One
///   `backward` consumes the most recent `forward`'s cache.
/// * `backward` receives ∂loss/∂output and returns ∂loss/∂input, writing
///   ∂loss/∂params into each [`Param::grad`] (overwriting, not adding);
///   `backward_params` does the same and returns nothing.
/// * `visit_params` exposes parameters in a stable order; the parameter
///   server keys layers by visitation index, so the order must not change
///   between calls.
pub trait Layer: Send {
    /// Compute the layer output and cache activations for backward.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor;

    /// Back-propagate: given ∂loss/∂output return ∂loss/∂input and fill
    /// parameter gradients.
    fn backward(&mut self, dy: &Tensor) -> Tensor;

    /// [`Layer::backward`] for a caller with no use for ∂loss/∂input —
    /// the first layer of a model under training: fills every
    /// [`Param::grad`] with exactly the bits `backward` would, once per
    /// `forward` like it. Layers whose input gradient is a separate
    /// product override this to skip it.
    fn backward_params(&mut self, dy: &Tensor) {
        self.backward(dy);
    }

    /// Visit all learnable parameters in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        let _ = f;
    }

    /// Short layer name for diagnostics and trace output.
    fn name(&self) -> &'static str;

    /// Total learnable scalar count.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Zero all parameter gradients.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.grad.fill_zero());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NoParams;
    impl Layer for NoParams {
        fn forward(&mut self, x: &Tensor, _m: Mode) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, dy: &Tensor) -> Tensor {
            dy.clone()
        }
        fn name(&self) -> &'static str {
            "noparams"
        }
    }

    #[test]
    fn param_new_zeroes_grad() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.grad.data(), &[0.0; 6]);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn default_visit_params_is_empty() {
        let mut l = NoParams;
        assert_eq!(l.num_params(), 0);
        l.zero_grads(); // must not panic
    }
}
