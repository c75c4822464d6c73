//! NCHW channel-axis utilities used by the branching blocks.

use cdsgd_tensor::Tensor;

/// Concatenate NCHW tensors along the channel axis. All inputs must share
/// `N`, `H`, `W`.
///
/// # Panics
/// Panics on empty input or mismatched non-channel dimensions.
pub fn concat_channels(parts: &[Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "cannot concat zero tensors");
    let (n, h, w) = {
        let s = parts[0].shape();
        assert_eq!(s.len(), 4, "concat_channels expects [N,C,H,W]");
        (s[0], s[2], s[3])
    };
    let total_c: usize = parts
        .iter()
        .map(|p| {
            let s = p.shape();
            assert_eq!((s[0], s[2], s[3]), (n, h, w), "non-channel dims must match");
            s[1]
        })
        .sum();
    let plane = h * w;
    let mut out = Tensor::zeros(&[n, total_c, h, w]);
    for s in 0..n {
        let mut c_off = 0usize;
        for p in parts {
            let pc = p.shape()[1];
            let src = &p.data()[s * pc * plane..(s + 1) * pc * plane];
            let dst_base = (s * total_c + c_off) * plane;
            out.data_mut()[dst_base..dst_base + pc * plane].copy_from_slice(src);
            c_off += pc;
        }
    }
    out
}

/// Split an NCHW tensor along channels into chunks of the given sizes.
/// Inverse of [`concat_channels`].
///
/// # Panics
/// Panics if the chunk sizes don't sum to the channel count.
pub fn split_channels(x: &Tensor, sizes: &[usize]) -> Vec<Tensor> {
    assert_eq!(x.ndim(), 4, "split_channels expects [N,C,H,W]");
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    assert_eq!(
        sizes.iter().sum::<usize>(),
        c,
        "chunk sizes must cover all channels"
    );
    let plane = h * w;
    let mut parts: Vec<Tensor> = sizes
        .iter()
        .map(|&pc| Tensor::zeros(&[n, pc, h, w]))
        .collect();
    for s in 0..n {
        let mut c_off = 0usize;
        for (part, &pc) in parts.iter_mut().zip(sizes) {
            let src_base = (s * c + c_off) * plane;
            let dst = &mut part.data_mut()[s * pc * plane..(s + 1) * pc * plane];
            dst.copy_from_slice(&x.data()[src_base..src_base + pc * plane]);
            c_off += pc;
        }
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsgd_tensor::SmallRng64;

    #[test]
    fn concat_then_split_round_trips() {
        let mut rng = SmallRng64::new(0);
        let a = Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng);
        let b = Tensor::randn(&[2, 5, 4, 4], 1.0, &mut rng);
        let c = Tensor::randn(&[2, 1, 4, 4], 1.0, &mut rng);
        let cat = concat_channels(&[a.clone(), b.clone(), c.clone()]);
        assert_eq!(cat.shape(), &[2, 9, 4, 4]);
        let parts = split_channels(&cat, &[3, 5, 1]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
        assert_eq!(parts[2], c);
    }

    #[test]
    fn concat_preserves_per_sample_layout() {
        // Sample 0 channels come before sample 1 channels of the same part.
        let a = Tensor::from_vec(vec![2, 1, 1, 1], vec![1., 2.]);
        let b = Tensor::from_vec(vec![2, 1, 1, 1], vec![10., 20.]);
        let cat = concat_channels(&[a, b]);
        assert_eq!(cat.data(), &[1., 10., 2., 20.]);
    }

    #[test]
    #[should_panic(expected = "non-channel dims")]
    fn mismatched_spatial_dims_panic() {
        let a = Tensor::zeros(&[1, 1, 2, 2]);
        let b = Tensor::zeros(&[1, 1, 3, 3]);
        concat_channels(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "cover all channels")]
    fn bad_split_sizes_panic() {
        split_channels(&Tensor::zeros(&[1, 4, 2, 2]), &[1, 2]);
    }
}
