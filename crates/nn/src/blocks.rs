//! Composite blocks with non-sequential topology: residual (ResNet) and
//! inception (GoogLeNet/Inception-bn) blocks.

use crate::activation::Relu;
use crate::batchnorm::BatchNorm2d;
use crate::conv2d::Conv2d;
use crate::layer::{Layer, Mode, Param};
use crate::pool::AvgPool2d;
use crate::util::{concat_channels, split_channels};
use cdsgd_tensor::{kernel, SmallRng64, Tensor};

/// A basic ResNet v1 residual block:
/// `relu( bn(conv3x3(relu(bn(conv3x3(x))))) + shortcut(x) )`.
///
/// The shortcut is identity when shapes match, or a strided 1×1
/// conv + BN projection when the block downsamples / widens.
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    projection: Option<(Conv2d, BatchNorm2d)>,
    /// Mask of the final ReLU (which acts on main + shortcut sum).
    out_mask: Vec<bool>,
}

impl ResidualBlock {
    /// Residual block `in_c -> out_c` with the given stride on the first
    /// convolution. A projection shortcut is added automatically when
    /// `stride != 1 || in_c != out_c`.
    pub fn new(in_c: usize, out_c: usize, stride: usize, rng: &mut SmallRng64) -> Self {
        let projection = if stride != 1 || in_c != out_c {
            Some((
                Conv2d::new(in_c, out_c, 1, stride, 0, rng),
                BatchNorm2d::new(out_c),
            ))
        } else {
            None
        };
        Self {
            conv1: Conv2d::new(in_c, out_c, 3, stride, 1, rng),
            bn1: BatchNorm2d::new(out_c),
            relu1: Relu::new(),
            conv2: Conv2d::new(out_c, out_c, 3, 1, 1, rng),
            bn2: BatchNorm2d::new(out_c),
            projection,
            out_mask: Vec::new(),
        }
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut sum = {
            let h = self.conv1.forward(x, mode);
            let h = self.bn1.forward(&h, mode);
            let h = self.relu1.forward(&h, mode);
            let h = self.conv2.forward(&h, mode);
            self.bn2.forward(&h, mode)
        };
        // main += shortcut, in the main path's buffer.
        match &mut self.projection {
            Some((conv, bn)) => {
                let s = conv.forward(x, mode);
                kernel::add_assign(sum.data_mut(), bn.forward(&s, mode).data());
            }
            None => kernel::add_assign(sum.data_mut(), x.data()),
        }
        self.out_mask.clear();
        self.out_mask.extend(sum.data().iter().map(|&v| v > 0.0));
        kernel::map_inplace(sum.data_mut(), |v| v.max(0.0));
        sum
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        assert_eq!(
            dy.len(),
            self.out_mask.len(),
            "backward without matching forward"
        );
        // Through the final ReLU.
        let dsum = Tensor::from_vec(
            dy.shape().to_vec(),
            dy.data()
                .iter()
                .zip(&self.out_mask)
                .map(|(&g, &m)| if m { g } else { 0.0 })
                .collect(),
        );
        // Main path.
        let d = self.bn2.backward(&dsum);
        let d = self.conv2.backward(&d);
        let d = self.relu1.backward(&d);
        let d = self.bn1.backward(&d);
        let mut dx = self.conv1.backward(&d);
        // Shortcut path.
        let dshort = match &mut self.projection {
            Some((conv, bn)) => {
                let d = bn.backward(&dsum);
                conv.backward(&d)
            }
            None => dsum,
        };
        dx.add_assign(&dshort);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        if let Some((conv, bn)) = &mut self.projection {
            conv.visit_params(f);
            bn.visit_params(f);
        }
    }

    fn name(&self) -> &'static str {
        "residual"
    }
}

/// One branch of an inception block: a small conv stack ending in BN+ReLU.
struct InceptionBranch {
    stack: Vec<(Conv2d, BatchNorm2d, Relu)>,
    pool_first: Option<AvgPool2d>,
    out_c: usize,
}

impl InceptionBranch {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut cur = match &mut self.pool_first {
            // 3x3 avg pool, stride 1 — pad is emulated by using k=1 here
            // would change geometry; we use stride-1 k=3 pooling only on
            // inputs >= 3 px, and same-size via explicit pad below.
            Some(p) => p.forward(x, mode),
            None => x.clone(),
        };
        for (conv, bn, relu) in &mut self.stack {
            cur = conv.forward(&cur, mode);
            cur = bn.forward(&cur, mode);
            cur = relu.forward(&cur, mode);
        }
        cur
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut cur = dy.clone();
        for (conv, bn, relu) in self.stack.iter_mut().rev() {
            cur = relu.backward(&cur);
            cur = bn.backward(&cur);
            cur = conv.backward(&cur);
        }
        match &mut self.pool_first {
            Some(p) => p.backward(&cur),
            None => cur,
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for (conv, bn, _) in &mut self.stack {
            conv.visit_params(f);
            bn.visit_params(f);
        }
    }
}

/// An Inception-bn style block with four parallel branches concatenated
/// along channels:
///
/// 1. 1×1 conv (`b1` channels)
/// 2. 1×1 → 3×3 conv (`b3` channels)
/// 3. 1×1 → 3×3 → 3×3 conv (`b5` channels, the "double 3×3" that
///    Inception-bn substitutes for 5×5)
/// 4. 3×3 avg-pool (stride 1, padded) → 1×1 conv (`bp` channels)
///
/// Every conv is followed by BN + ReLU, as in Inception-bn.
pub struct InceptionBlock {
    branches: Vec<InceptionBranch>,
    branch_channels: Vec<usize>,
}

impl InceptionBlock {
    /// Build a block over `in_c` input channels with the given per-branch
    /// output widths.
    pub fn new(
        in_c: usize,
        b1: usize,
        b3: usize,
        b5: usize,
        bp: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        let mk = |conv: Conv2d| {
            let c = conv.out_channels();
            (conv, BatchNorm2d::new(c), Relu::new())
        };
        let reduce3 = (b3 / 2).max(1);
        let reduce5 = (b5 / 2).max(1);
        let branches = vec![
            InceptionBranch {
                stack: vec![mk(Conv2d::new(in_c, b1, 1, 1, 0, rng))],
                pool_first: None,
                out_c: b1,
            },
            InceptionBranch {
                stack: vec![
                    mk(Conv2d::new(in_c, reduce3, 1, 1, 0, rng)),
                    mk(Conv2d::new(reduce3, b3, 3, 1, 1, rng)),
                ],
                pool_first: None,
                out_c: b3,
            },
            InceptionBranch {
                stack: vec![
                    mk(Conv2d::new(in_c, reduce5, 1, 1, 0, rng)),
                    mk(Conv2d::new(reduce5, b5, 3, 1, 1, rng)),
                    mk(Conv2d::new(b5, b5, 3, 1, 1, rng)),
                ],
                pool_first: None,
                out_c: b5,
            },
            InceptionBranch {
                // 3x3 stride-1 avg pool shrinks H,W by 2; the following
                // 1x1 conv keeps that size, so we instead use a padded
                // 3x3 *conv* emulating pool-project in one step.
                stack: vec![mk(Conv2d::new(in_c, bp, 3, 1, 1, rng))],
                pool_first: None,
                out_c: bp,
            },
        ];
        let branch_channels = branches.iter().map(|b| b.out_c).collect();
        Self {
            branches,
            branch_channels,
        }
    }

    /// Total output channels (sum over branches).
    pub fn out_channels(&self) -> usize {
        self.branch_channels.iter().sum()
    }
}

impl Layer for InceptionBlock {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let outs: Vec<Tensor> = self
            .branches
            .iter_mut()
            .map(|b| b.forward(x, mode))
            .collect();
        concat_channels(&outs)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let parts = split_channels(dy, &self.branch_channels);
        let mut dx: Option<Tensor> = None;
        for (branch, part) in self.branches.iter_mut().zip(&parts) {
            let d = branch.backward(part);
            match &mut dx {
                Some(acc) => acc.add_assign(&d),
                None => dx = Some(d),
            }
        }
        dx.expect("inception block has branches")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for b in &mut self.branches {
            b.visit_params(f);
        }
    }

    fn name(&self) -> &'static str {
        "inception"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_identity_block_shapes() {
        let mut rng = SmallRng64::new(0);
        let mut b = ResidualBlock::new(4, 4, 1, &mut rng);
        let x = Tensor::randn(&[2, 4, 8, 8], 1.0, &mut rng);
        let y = b.forward(&x, Mode::Train);
        assert_eq!(y.shape(), x.shape());
        let dx = b.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn residual_downsample_block_shapes() {
        let mut rng = SmallRng64::new(1);
        let mut b = ResidualBlock::new(4, 8, 2, &mut rng);
        let x = Tensor::randn(&[2, 4, 8, 8], 1.0, &mut rng);
        let y = b.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 8, 4, 4]);
        let dx = b.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn residual_projection_adds_params() {
        let mut rng = SmallRng64::new(2);
        let mut id_block = ResidualBlock::new(4, 4, 1, &mut rng);
        let mut proj_block = ResidualBlock::new(4, 8, 2, &mut rng);
        assert!(proj_block.num_params() > id_block.num_params());
    }

    #[test]
    fn residual_output_nonnegative() {
        let mut rng = SmallRng64::new(3);
        let mut b = ResidualBlock::new(2, 2, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 2.0, &mut rng);
        let y = b.forward(&x, Mode::Train);
        assert!(y.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn inception_concatenates_branch_channels() {
        let mut rng = SmallRng64::new(4);
        let mut blk = InceptionBlock::new(3, 4, 6, 2, 3, &mut rng);
        assert_eq!(blk.out_channels(), 15);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let y = blk.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 15, 8, 8]);
        let dx = blk.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn residual_numerical_gradient_spot_check() {
        let mut rng = SmallRng64::new(5);
        let mut b = ResidualBlock::new(2, 2, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 3, 3], 0.5, &mut rng);
        let w = Tensor::randn(&[2 * 3 * 3], 1.0, &mut rng);
        // Loss = <y, w>; clone block state per evaluation to keep BN
        // running stats out of the picture is unnecessary since train-mode
        // BN uses batch stats only.
        let y = b.forward(&x, Mode::Train);
        let dy = Tensor::from_vec(y.shape().to_vec(), w.data().to_vec());
        let dx = b.backward(&dy);
        let eps = 1e-2f32;
        for i in (0..x.len()).step_by(4) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp: f32 = b
                .forward(&xp, Mode::Train)
                .data()
                .iter()
                .zip(w.data())
                .map(|(a, c)| a * c)
                .sum();
            let fm: f32 = b
                .forward(&xm, Mode::Train)
                .data()
                .iter()
                .zip(w.data())
                .map(|(a, c)| a * c)
                .sum();
            let numeric = (fp - fm) / (2.0 * eps);
            // ReLU kinks and BN coupling make this a loose check.
            assert!(
                (dx.data()[i] - numeric).abs() < 0.15 * (1.0 + numeric.abs()),
                "dx[{i}] {} vs {numeric}",
                dx.data()[i]
            );
        }
    }
}
