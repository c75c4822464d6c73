//! Geometry of the im2col / col2im unrolls for 2-D convolution.
//!
//! Convolution forward/backward in `cdsgd-nn` is expressed as matrix
//! multiplication over "column" matrices: for each sample,
//! [`im2col_into`](crate::im2col_into) unrolls every receptive field
//! into a column of shape `C·KH·KW` of a caller-owned buffer, so that
//! `W[F, C·KH·KW] · col = out[F, OH·OW]`. [`col2im`](crate::col2im) is
//! its adjoint and is used to push gradients back to the input image.
//! Both are kernels (`crate::kernel`); this module holds the geometry
//! they share.

/// Geometry of a conv2d application: input/kernel/stride/padding sizes and
/// the derived output size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dGeom {
    /// Input channels.
    pub c: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl Conv2dGeom {
    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Rows of the column matrix: `C·KH·KW`.
    pub fn col_rows(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of the column matrix: `OH·OW`.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Validate that the geometry is consistent (kernel fits, stride > 0).
    pub fn validate(&self) {
        assert!(self.stride > 0, "stride must be positive");
        assert!(
            self.h + 2 * self.pad >= self.kh && self.w + 2 * self.pad >= self.kw,
            "kernel {}x{} larger than padded input {}x{}",
            self.kh,
            self.kw,
            self.h + 2 * self.pad,
            self.w + 2 * self.pad
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{col2im, im2col_into};
    use crate::rng::SmallRng64;
    use crate::tensor::Tensor;

    /// Allocating form of [`im2col_into`]: the geometry is validated
    /// before the buffer is sized from it.
    fn im2col(img: &[f32], g: &Conv2dGeom) -> Tensor {
        g.validate();
        let mut col = Tensor::zeros(&[g.col_rows(), g.col_cols()]);
        im2col_into(img, g, col.data_mut());
        col
    }

    fn geom(c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> Conv2dGeom {
        Conv2dGeom {
            c,
            h,
            w,
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    #[test]
    fn output_sizes() {
        let g = geom(1, 28, 28, 5, 1, 0);
        assert_eq!((g.out_h(), g.out_w()), (24, 24));
        let g = geom(3, 32, 32, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (32, 32));
        let g = geom(3, 32, 32, 3, 2, 1);
        assert_eq!((g.out_h(), g.out_w()), (16, 16));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: col matrix equals the image itself.
        let g = geom(2, 3, 3, 1, 1, 0);
        let img: Vec<f32> = (0..18).map(|x| x as f32).collect();
        let col = im2col(&img, &g);
        assert_eq!(col.shape(), &[2, 9]);
        assert_eq!(col.data(), img.as_slice());
    }

    #[test]
    fn im2col_known_patch() {
        // 2x2 image, 2x2 kernel => single output position listing the patch.
        let g = geom(1, 2, 2, 2, 1, 0);
        let img = vec![1., 2., 3., 4.];
        let col = im2col(&img, &g);
        assert_eq!(col.shape(), &[4, 1]);
        assert_eq!(col.data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn padding_produces_zero_border() {
        let g = geom(1, 1, 1, 3, 1, 1);
        let img = vec![5.0];
        let col = im2col(&img, &g);
        assert_eq!(col.shape(), &[9, 1]);
        // Only the center tap sees the pixel.
        let mut expect = vec![0.0; 9];
        expect[4] = 5.0;
        assert_eq!(col.data(), expect.as_slice());
    }

    #[test]
    fn conv_via_im2col_matches_direct() {
        // Direct convolution vs im2col + matmul on a random case.
        let mut rng = SmallRng64::new(9);
        let g = geom(2, 6, 7, 3, 2, 1);
        let f = 4; // output channels
        let img = Tensor::randn(&[g.c * g.h * g.w], 1.0, &mut rng);
        let weight = Tensor::randn(&[f, g.col_rows()], 0.5, &mut rng);
        let col = im2col(img.data(), &g);
        let out = weight.matmul(&col); // [F, OH*OW]

        let (oh, ow) = (g.out_h(), g.out_w());
        for fo in 0..f {
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut acc = 0.0f32;
                    for c in 0..g.c {
                        for ki in 0..g.kh {
                            for kj in 0..g.kw {
                                let ii = (oi * g.stride + ki) as isize - g.pad as isize;
                                let jj = (oj * g.stride + kj) as isize - g.pad as isize;
                                if ii < 0 || jj < 0 || ii >= g.h as isize || jj >= g.w as isize {
                                    continue;
                                }
                                let iv =
                                    img.data()[c * g.h * g.w + ii as usize * g.w + jj as usize];
                                let wv = weight.at(&[fo, (c * g.kh + ki) * g.kw + kj]);
                                acc += iv * wv;
                            }
                        }
                    }
                    let got = out.at(&[fo, oi * ow + oj]);
                    assert!((acc - got).abs() < 1e-4, "{acc} vs {got}");
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property needed for a correct conv backward pass.
        let mut rng = SmallRng64::new(10);
        let g = geom(3, 5, 6, 3, 1, 1);
        let x = Tensor::randn(&[g.c * g.h * g.w], 1.0, &mut rng);
        let y = Tensor::randn(&[g.col_rows(), g.col_cols()], 1.0, &mut rng);

        let lhs: f32 = im2col(x.data(), &g)
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| a * b)
            .sum();

        let mut back = vec![0.0f32; x.len()];
        col2im(y.data(), &g, &mut back);
        let rhs: f32 = x.data().iter().zip(&back).map(|(a, b)| a * b).sum();

        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn oversized_kernel_panics() {
        let g = geom(1, 2, 2, 5, 1, 0);
        im2col(&[0.0; 4], &g);
    }
}
