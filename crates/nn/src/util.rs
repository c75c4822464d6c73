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

/// `emit(c, init + Σ term(c, i))` for every channel `c` of an NCHW
/// tensor of `[n, ch, plane]` (`plane = H·W`), where `i` runs over the
/// flat indices of channel `c` — sample 0's plane, then sample 1's, …
/// — and each sum is folded in exactly that order, so its bits are
/// those of the sequential loop. What is fast is that eight channels'
/// chains advance together in the inner loop: independent adds overlap
/// instead of each waiting on the last. Channels past the last full
/// eight are summed one at a time.
pub(crate) fn channel_sums(
    dims: [usize; 3],
    init: f32,
    term: impl Fn(usize, usize) -> f32,
    mut emit: impl FnMut(usize, f32),
) {
    let full = dims[1] / 8 * 8;
    for c0 in (0..full).step_by(8) {
        let sums: [f32; 8] = chains(dims, c0, init, &term);
        (0..8).for_each(|j| emit(c0 + j, sums[j]));
    }
    for c in full..dims[1] {
        let [sum]: [f32; 1] = chains(dims, c, init, &term);
        emit(c, sum);
    }
}

/// The sums of channels `c0..c0 + W`, their `W` chains interleaved.
#[inline(always)]
fn chains<const W: usize>(
    [n, ch, plane]: [usize; 3],
    c0: usize,
    init: f32,
    term: &impl Fn(usize, usize) -> f32,
) -> [f32; W] {
    let mut acc = [init; W];
    for s in 0..n {
        let base = (s * ch + c0) * plane;
        for i in base..base + plane {
            for (j, a) in acc.iter_mut().enumerate() {
                *a += term(c0 + j, i + j * plane);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsgd_tensor::SmallRng64;

    #[test]
    fn channel_sums_equal_the_sequential_fold_bit_for_bit() {
        let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3e38];
        let mut rng = SmallRng64::new(6);
        for ch in [1, 3, 8, 12, 17, 32] {
            let (n, plane) = (3, 7);
            let mut x = Tensor::randn(&[n * ch * plane], 1.0, &mut rng).into_vec();
            for (v, &sp) in x
                .iter_mut()
                .skip(2)
                .step_by(11)
                .zip(specials.iter().cycle())
            {
                *v = sp;
            }
            // The last channel is all `-0.0`: its sum keeps the sign of `init`.
            for s in 0..n {
                let c = (s * ch + ch - 1) * plane;
                x[c..c + plane].fill(-0.0);
            }
            for init in [0.0, -0.0] {
                let mut got = vec![f32::NAN; ch];
                channel_sums([n, ch, plane], init, |_, i| x[i], |c, v| got[c] = v);
                for (c, got) in got.iter().enumerate() {
                    let want = (0..n)
                        .flat_map(|s| (s * ch + c) * plane..(s * ch + c + 1) * plane)
                        .fold(init, |acc, i| acc + x[i]);
                    // NaN payloads of NaN + NaN are not pinned (kernel docs).
                    assert!(
                        got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan(),
                        "C={ch} c={c} init={init:?}: {got} vs {want}"
                    );
                }
            }
        }
    }

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
