//! 2-D convolution layer (implicit-GEMM formulation).

use crate::layer::{Layer, Mode, Param};
use cdsgd_tensor::kernel::{self, ChannelTerm};
use cdsgd_tensor::{col2im, he_std, Conv2dGeom, SmallRng64, Tensor};

/// 2-D convolution over NCHW input.
///
/// Weight layout is `[out_c, in_c * kh * kw]` (the im2col GEMM shape);
/// bias is `[out_c]`. The spatial geometry is fixed at construction only
/// in `(in_c, k, stride, pad)`; input H/W are discovered per forward.
///
/// Forward and the `dW` half of backward are implicit GEMMs over each
/// sample's column matrix (`kernel::conv_forward`,
/// `kernel::conv_weight_grad`), which is never written: a train-mode
/// forward keeps a copy of its input for backward to read. `dx` is
/// `Wᵀ·dy` per sample into a column gradient, scattered back by
/// `col2im`. The input copy and that one-sample column gradient are
/// layer-owned and reused from step to step.
#[derive(Debug)]
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    weight: Param,
    bias: Param,
    /// The last train-mode forward's geometry and batch size; its input
    /// is in `input`.
    cache: Option<(Conv2dGeom, usize)>,
    input: Vec<f32>,
    /// One sample's column gradient `Wᵀ·dy`, `[in_c·k·k, OH·OW]`.
    dcol: Vec<f32>,
}

impl Conv2d {
    /// He-initialized convolution. `k` is the (square) kernel size.
    pub fn new(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        let fan_in = in_c * k * k;
        Self {
            in_c,
            out_c,
            k,
            stride,
            pad,
            weight: Param::new(Tensor::randn(&[out_c, fan_in], he_std(fan_in), rng)),
            bias: Param::new(Tensor::zeros(&[out_c])),
            cache: None,
            input: Vec::new(),
            dcol: Vec::new(),
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    fn geom(&self, h: usize, w: usize) -> Conv2dGeom {
        Conv2dGeom {
            c: self.in_c,
            h,
            w,
            kh: self.k,
            kw: self.k,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// Fill `dW`/`db` from ∂loss/∂output and, when `want_dx`, also
    /// compute ∂loss/∂input (`Wᵀ·dy` per sample plus the `col2im`
    /// scatter — the part a first layer has no reader for).
    fn backprop(&mut self, dy: &Tensor, want_dx: bool) -> Option<Tensor> {
        let (g, n) = self.cache.take().expect("backward without forward");
        assert_eq!(dy.shape()[1], self.out_c);
        let (fan_in, out_plane) = (g.col_rows(), g.col_cols());
        let (img_len, out_len) = (g.c * g.h * g.w, self.out_c * out_plane);
        assert_eq!(dy.len(), n * out_len, "dy size mismatch");

        self.weight.grad.fill_zero();
        self.bias.grad.fill_zero();
        let mut dx = want_dx.then(|| Tensor::zeros(&[n, g.c, g.h, g.w]));
        if want_dx {
            self.dcol.resize(fan_in * out_plane, 0.0);
        }
        let (dw, db) = (self.weight.grad.data_mut(), self.bias.grad.data_mut());
        let (w, dys) = (self.weight.value.data(), dy.data());
        for s in 0..n {
            let dy_s = &dys[s * out_len..(s + 1) * out_len];
            // dW += dy_s · colᵀ, accumulated in place, the columns read
            // from the kept input.
            let x_s = &self.input[s * img_len..(s + 1) * img_len];
            kernel::conv_weight_grad(dy_s, x_s, &g, dw);
            // db += Σ_spatial dy, each sum from -0.0 as `kernel::reduce_sum`'s.
            let dims = [1, self.out_c, out_plane];
            kernel::channel_sums(dims, -0.0, ChannelTerm::Value(dy_s), |oc, v| db[oc] += v);
            if let Some(dx) = &mut dx {
                // dcol = Wᵀ · dy_s (written whole), scattered back through col2im.
                kernel::gemm_tn(w, dy_s, &mut self.dcol, fan_in, self.out_c, out_plane);
                col2im(
                    &self.dcol,
                    &g,
                    &mut dx.data_mut()[s * img_len..(s + 1) * img_len],
                );
            }
        }
        dx
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(x.ndim(), 4, "Conv2d expects [N,C,H,W]");
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(c, self.in_c, "input channel mismatch");
        let g = self.geom(h, w);
        g.validate(); // before the output is sized from it
        let out_plane = g.col_cols();
        let (img_len, out_len) = (c * h * w, self.out_c * out_plane);
        // Each sample's `W·col` is appended: the output is never zeroed.
        let mut out = Vec::with_capacity(n * out_len);
        let (wv, bias) = (self.weight.value.data(), self.bias.value.data());
        for s in 0..n {
            kernel::conv_forward(wv, &x.data()[s * img_len..(s + 1) * img_len], &g, &mut out);
            let dst = &mut out[s * out_len..];
            for (plane, &b) in dst.chunks_exact_mut(out_plane).zip(bias) {
                kernel::add_scalar(plane, b);
            }
        }
        self.cache = (mode == Mode::Train).then(|| {
            self.input.clear();
            self.input.extend_from_slice(x.data());
            (g, n)
        });
        Tensor::from_vec(vec![n, self.out_c, g.out_h(), g.out_w()], out)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backprop(dy, true)
            .expect("backprop returns dx when asked")
    }

    fn backward_params(&mut self, dy: &Tensor) {
        self.backprop(dy, false);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape_and_param_count() {
        let mut rng = SmallRng64::new(0);
        let mut c = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        assert_eq!(c.num_params(), 8 * 27 + 8);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let y = c.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
        let dx = c.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn kernel_larger_than_padded_input_panics_before_the_output_is_sized() {
        let mut rng = SmallRng64::new(4);
        let mut c = Conv2d::new(1, 2, 5, 1, 0, &mut rng);
        c.forward(&Tensor::zeros(&[1, 1, 2, 2]), Mode::Train);
    }

    #[test]
    fn stride_halves_spatial_dims() {
        let mut rng = SmallRng64::new(1);
        let mut c = Conv2d::new(1, 2, 3, 2, 1, &mut rng);
        let x = Tensor::randn(&[1, 1, 8, 8], 1.0, &mut rng);
        assert_eq!(c.forward(&x, Mode::Train).shape(), &[1, 2, 4, 4]);
    }

    #[test]
    fn bias_shifts_all_outputs() {
        let mut rng = SmallRng64::new(2);
        let mut c = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        c.weight.value = Tensor::from_vec(vec![1, 1], vec![1.0]);
        c.bias.value = Tensor::from_vec(vec![1], vec![5.0]);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let y = c.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[6., 7., 8., 9.]);
    }

    #[test]
    fn numerical_gradient_check_weights_and_input() {
        let mut rng = SmallRng64::new(3);
        let mut c = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let y = c.forward(&x, Mode::Train);
        let dx = c.backward(&Tensor::ones(y.shape()));
        let dw = c.weight.grad.clone();
        let db = c.bias.grad.clone();

        let eps = 1e-2f32;
        // Spot-check a sample of weight coordinates.
        for i in (0..dw.len()).step_by(7) {
            let orig = c.weight.value.data()[i];
            c.weight.value.data_mut()[i] = orig + eps;
            let fp = c.forward(&x, Mode::Train).sum();
            c.weight.value.data_mut()[i] = orig - eps;
            let fm = c.forward(&x, Mode::Train).sum();
            c.weight.value.data_mut()[i] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (dw.data()[i] - numeric).abs() < 0.05,
                "dW[{i}] {} vs {numeric}",
                dw.data()[i]
            );
        }
        // All bias coordinates.
        for i in 0..db.len() {
            let orig = c.bias.value.data()[i];
            c.bias.value.data_mut()[i] = orig + eps;
            let fp = c.forward(&x, Mode::Train).sum();
            c.bias.value.data_mut()[i] = orig - eps;
            let fm = c.forward(&x, Mode::Train).sum();
            c.bias.value.data_mut()[i] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((db.data()[i] - numeric).abs() < 0.05, "db[{i}]");
        }
        // Sampled input coordinates.
        for i in (0..x.len()).step_by(5) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = c.forward(&xp, Mode::Train).sum();
            let fm = c.forward(&xm, Mode::Train).sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((dx.data()[i] - numeric).abs() < 0.05, "dx[{i}]");
        }
    }
}
