//! Property-based tests for the tensor substrate: algebraic identities that
//! must hold for arbitrary shapes and data.

use cdsgd_tensor::{
    col2im, contiguous_strides, im2col_into, numel, Conv2dGeom, SmallRng64, Tensor,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The reference unroll, one tap at a time: row `(c·KH + ki)·KW + kj`,
/// column `oi·OW + oj` holds the pixel under that tap, or `0.0` where
/// the tap falls in the padding.
fn reference_im2col(img: &[f32], g: &Conv2dGeom) -> Vec<f32> {
    let (oh, ow) = (g.out_h() as isize, g.out_w() as isize);
    let (h, w, s, p) = (
        g.h as isize,
        g.w as isize,
        g.stride as isize,
        g.pad as isize,
    );
    let mut col = Vec::new();
    for c in 0..g.c as isize {
        for ki in 0..g.kh as isize {
            for kj in 0..g.kw as isize {
                for oi in 0..oh {
                    for oj in 0..ow {
                        let (ii, jj) = (oi * s + ki - p, oj * s + kj - p);
                        let inside = (0..h).contains(&ii) && (0..w).contains(&jj);
                        col.push(if inside {
                            img[((c * h + ii) * w + jj) as usize]
                        } else {
                            0.0
                        });
                    }
                }
            }
        }
    }
    col
}

fn small_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 1..max_len)
}

proptest! {
    #[test]
    fn shared_storage_is_read_in_place_and_copied_on_write(v in small_vec(64), at in 0usize..64, how in 0u8..3) {
        let (n, at) = (v.len(), at % v.len());
        let snapshot: Arc<[f32]> = v.clone().into();
        let mut t = Tensor::zeros(&[n]);
        t.adopt_shared(Arc::clone(&snapshot));
        // Adoption is a pointer move; clone and == see the contents.
        prop_assert!(std::ptr::eq(t.data().as_ptr(), snapshot.as_ptr()));
        prop_assert_eq!(&t, &Tensor::from_vec(vec![n], v.clone()));
        prop_assert_eq!(&t.clone(), &t);
        prop_assert_eq!(&Tensor::from_shared(vec![n], Arc::clone(&snapshot)), &t);

        // Any write lands in a private copy equal to the mutated
        // contents; the snapshot keeps its bits.
        let mut want = v.clone();
        want[at] = -7.5;
        let got = match how {
            0 => { t.data_mut()[at] = -7.5; t.data().to_vec() }
            1 => { *t.at_mut(&[at]) = -7.5; t.data().to_vec() }
            _ => { let mut out = t.into_vec(); out[at] = -7.5; out }
        };
        prop_assert_eq!(got, want);
        let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&snapshot), bits(&v));
    }

    #[test]
    fn overwrite_lets_go_of_the_snapshot_without_reading_it(v in small_vec(64)) {
        let snapshot: Arc<[f32]> = v.iter().map(|x| x + 1000.0).collect();
        let mut t = Tensor::from_shared(vec![v.len()], Arc::clone(&snapshot));
        let out = t.data_overwrite();
        // Nothing of the snapshot was copied in, and nothing still holds it.
        prop_assert!(out.iter().all(|&x| x == 0.0));
        out.copy_from_slice(&v);
        prop_assert_eq!(t.data(), &v[..]);
        prop_assert_eq!(Arc::strong_count(&snapshot), 1);
        // On owned storage it is `data_mut`: same buffer, contents kept.
        let own = t.data().as_ptr();
        prop_assert!(std::ptr::eq(t.data_overwrite().as_ptr(), own));
        prop_assert_eq!(t.data(), &v[..]);
    }

    #[test]
    fn add_commutes(v in small_vec(64)) {
        let n = v.len();
        let a = Tensor::from_vec(vec![n], v.clone());
        let b = Tensor::from_vec(vec![n], v.iter().map(|x| x * 0.5 - 1.0).collect());
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn sub_then_add_round_trips(v in small_vec(64)) {
        let n = v.len();
        let a = Tensor::from_vec(vec![n], v.clone());
        let b = Tensor::from_vec(vec![n], v.iter().map(|x| x * 0.25 + 2.0).collect());
        let back = a.sub(&b).add(&b);
        for (x, y) in back.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-3 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn axpy_equals_scale_add(v in small_vec(64), alpha in -4.0f32..4.0) {
        let n = v.len();
        let x = Tensor::from_vec(vec![n], v.clone());
        let mut y = Tensor::from_vec(vec![n], v.iter().map(|a| a + 1.0).collect());
        let expect = y.add(&x.scale(alpha));
        y.axpy(alpha, &x);
        for (a, b) in y.data().iter().zip(expect.data()) {
            prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn norm_is_scale_homogeneous(v in small_vec(64), s in -3.0f32..3.0) {
        let n = v.len();
        let a = Tensor::from_vec(vec![n], v);
        let lhs = a.scale(s).norm();
        let rhs = s.abs() * a.norm();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + rhs));
    }

    #[test]
    fn reshape_preserves_data(r in 1usize..8, c in 1usize..8) {
        let t = Tensor::from_vec(vec![r, c], (0..r * c).map(|x| x as f32).collect());
        let flat = t.clone().reshape(vec![r * c]);
        prop_assert_eq!(t.data(), flat.data());
    }

    #[test]
    fn strides_dot_shape_contract(dims in prop::collection::vec(1usize..6, 1..4)) {
        let strides = contiguous_strides(&dims);
        // Last stride is 1; stride[i] == stride[i+1] * dim[i+1].
        prop_assert_eq!(*strides.last().unwrap(), 1);
        for i in 0..dims.len() - 1 {
            prop_assert_eq!(strides[i], strides[i + 1] * dims[i + 1]);
        }
        prop_assert_eq!(strides[0] * dims[0], numel(&dims));
    }

    #[test]
    fn matmul_distributes_over_addition(seed in 0u64..1000) {
        let mut rng = SmallRng64::new(seed);
        let a = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let b = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let c = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn transpose_reverses_matmul(seed in 0u64..1000) {
        // (A·B)ᵀ == Bᵀ·Aᵀ
        let mut rng = SmallRng64::new(seed);
        let a = Tensor::randn(&[3, 7], 1.0, &mut rng);
        let b = Tensor::randn(&[7, 4], 1.0, &mut rng);
        let lhs = a.matmul(&b).transpose2d();
        let rhs = b.transpose2d().matmul(&a.transpose2d());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn im2col_into_writes_every_element_of_the_reference_unroll(
        seed in 0u64..500,
        c in 1usize..3,
        h in 1usize..8,
        w in 1usize..8,
    ) {
        // Specials in the image are copied bit for bit; the NaN prefill
        // shows any element the unroll leaves unwritten.
        let mut img = Tensor::randn(&[c * h * w], 1.0, &mut SmallRng64::new(seed)).into_vec();
        for (v, special) in img.iter_mut().step_by(5).zip([-0.0, f32::INFINITY, f32::NAN].iter().cycle()) {
            *v = *special;
        }
        for (k, stride, pad) in (0..27).map(|i| ([1, 3, 5][i % 3], 1 + i / 3 % 3, i / 9)) {
            if h + 2 * pad < k || w + 2 * pad < k {
                continue;
            }
            let g = Conv2dGeom { c, h, w, kh: k, kw: k, stride, pad };
            let mut col = vec![f32::NAN; g.col_rows() * g.col_cols()];
            im2col_into(&img, &g, &mut col);
            let want = reference_im2col(&img, &g);
            prop_assert_eq!(col.len(), want.len());
            for (i, (a, b)) in col.iter().zip(&want).enumerate() {
                prop_assert!(a.to_bits() == b.to_bits(), "{:?}: element {} is {} want {}", g, i, a, b);
            }
        }
    }

    #[test]
    fn im2col_col2im_adjoint(
        seed in 0u64..500,
        c in 1usize..3,
        hw in 3usize..8,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        prop_assume!(hw + 2 * pad >= k);
        let g = Conv2dGeom { c, h: hw, w: hw, kh: k, kw: k, stride, pad };
        let mut rng = SmallRng64::new(seed);
        let x = Tensor::randn(&[c * hw * hw], 1.0, &mut rng);
        let y = Tensor::randn(&[g.col_rows(), g.col_cols()], 1.0, &mut rng);
        let mut col = vec![0.0f32; y.len()];
        im2col_into(x.data(), &g, &mut col);
        let lhs: f32 = col.iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let mut back = vec![0.0f32; x.len()];
        col2im(y.data(), &g, &mut back);
        let rhs: f32 = x.data().iter().zip(&back).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{} vs {}", lhs, rhs);
    }

    #[test]
    fn softmax_rows_is_probability_distribution(r in 1usize..6, c in 1usize..6, seed in 0u64..100) {
        let mut rng = SmallRng64::new(seed);
        let t = Tensor::randn(&[r, c], 5.0, &mut rng);
        let s = t.softmax_rows();
        for row in s.data().chunks_exact(c) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}
