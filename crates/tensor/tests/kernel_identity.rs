//! Bit-identity gates for the kernel layer: every dispatched primitive
//! must produce byte-for-byte the same output as its scalar reference,
//! for empty inputs, length 1, non-multiple-of-lane-width tails, and
//! NaN/Inf/-0.0 payloads. On AVX2 hardware the dispatched path is the
//! SIMD backend, so these tests are the per-kernel half of the
//! bit-identity contract (the end-to-end half is the pinned weight
//! hashes in `tests/strategy_equivalence.rs`).
//!
//! One narrowing, for the kernels that add two computed values (`dot`,
//! the three GEMMs, `channel_sums` and `col2im`): when both addends are
//! NaN, *which* NaN comes
//! out depends on operand order, which the optimizer may swap, so the
//! same source gives different payloads in debug and release. There a
//! NaN must land on a NaN and every other value must match bit for bit
//! ([`assert_same_values`]).

use cdsgd_tensor::kernel::{self, scalar};
use cdsgd_tensor::{col2im, im2col_into, Conv2dGeom};
use proptest::prelude::*;

const SPECIALS: [f32; 8] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    -0.0,
    0.0,
    f32::MIN_POSITIVE,
    1e30,
    -1e30,
];

/// Deterministic fill: mixes ordinary values with exact zeros (to
/// exercise the GEMM zero-skip) and, when asked, NaN/Inf specials.
fn fill(seed: u64, len: usize, with_specials: bool) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match s % 16 {
                0 => 0.0,
                1 if with_specials => SPECIALS[(s >> 8) as usize % SPECIALS.len()],
                _ => ((s >> 16) as i32 % 1000) as f32 / 37.0,
            }
        })
        .collect()
}

fn fill_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(7);
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u8
        })
        .collect()
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: bit mismatch at {i}: {g:?} vs {w:?}"
        );
    }
}

/// Bit-equal, except that any NaN matches any NaN (module docs).
fn same_value(got: f32, want: f32) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

fn assert_same_values(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(same_value(g, w), "{what}: mismatch at {i}: {g:?} vs {w:?}");
    }
}

/// Lengths that pin down the edge cases: empty, single element, one
/// short of / exactly / one past each vector width boundary.
const EDGE_LENS: [usize; 10] = [0, 1, 3, 7, 8, 9, 15, 31, 32, 33];

proptest! {
    #[test]
    fn axpy_identity(seed in 0u64..5000, len in 0usize..70, alpha in -4.0f32..4.0) {
        let x = fill(seed, len, true);
        let mut a = fill(seed + 1, len, true);
        let mut b = a.clone();
        kernel::axpy(alpha, &x, &mut a);
        scalar::axpy(alpha, &x, &mut b);
        assert_bits_eq(&a, &b, "axpy");
    }

    #[test]
    fn scale_identity(seed in 0u64..5000, len in 0usize..70, s in -4.0f32..4.0) {
        let mut a = fill(seed, len, true);
        let mut b = a.clone();
        kernel::scale(&mut a, s);
        scalar::scale(&mut b, s);
        assert_bits_eq(&a, &b, "scale");
    }

    #[test]
    fn add_assign_identity(seed in 0u64..5000, len in 0usize..70) {
        let x = fill(seed, len, true);
        let mut a = fill(seed + 1, len, true);
        let mut b = a.clone();
        kernel::add_assign(&mut a, &x);
        scalar::add_assign(&mut b, &x);
        assert_bits_eq(&a, &b, "add_assign");
    }

    #[test]
    fn add_scalar_identity(seed in 0u64..5000, len in 0usize..70, c in -4.0f32..4.0) {
        let mut a = fill(seed, len, true);
        let mut b = a.clone();
        kernel::add_scalar(&mut a, c);
        scalar::add_scalar(&mut b, c);
        assert_bits_eq(&a, &b, "add_scalar");
    }

    #[test]
    fn add_into_identity(seed in 0u64..5000, len in 0usize..70) {
        let x = fill(seed, len, true);
        let y = fill(seed + 1, len, true);
        let mut a = vec![0.0; len];
        let mut b = vec![0.0; len];
        kernel::add_into(&mut a, &x, &y);
        scalar::add_into(&mut b, &x, &y);
        assert_bits_eq(&a, &b, "add_into");
    }

    #[test]
    fn scale_add_identity(seed in 0u64..5000, len in 0usize..70, alpha in -4.0f32..4.0) {
        let x = fill(seed, len, true);
        let y = fill(seed + 1, len, true);
        let mut a = vec![0.0; len];
        let mut b = vec![0.0; len];
        kernel::scale_add(&mut a, &x, alpha, &y);
        scalar::scale_add(&mut b, &x, alpha, &y);
        assert_bits_eq(&a, &b, "scale_add");
    }

    #[test]
    fn sgd_step_identity(seed in 0u64..5000, len in 0usize..70, step in 0.0f32..2.0) {
        let w = fill(seed, len, true);
        let g = fill(seed + 1, len, true);
        let mut a = vec![0.0; len];
        let mut b = vec![0.0; len];
        kernel::sgd_step(&mut a, &w, &g, step);
        scalar::sgd_step(&mut b, &w, &g, step);
        assert_bits_eq(&a, &b, "sgd_step");
    }

    #[test]
    fn decay_add_identity(seed in 0u64..5000, len in 0usize..70, mu in 0.0f32..1.0) {
        let g = fill(seed, len, true);
        let mut a = fill(seed + 1, len, true);
        let mut b = a.clone();
        kernel::decay_add(&mut a, mu, &g);
        scalar::decay_add(&mut b, mu, &g);
        assert_bits_eq(&a, &b, "decay_add");
    }

    #[test]
    fn nesterov_step_identity(
        seed in 0u64..5000, len in 0usize..70, step in 0.0f32..2.0, mu in 0.0f32..1.0,
    ) {
        let w = fill(seed, len, true);
        let g = fill(seed + 1, len, true);
        let v = fill(seed + 2, len, true);
        let mut a = vec![0.0; len];
        let mut b = vec![0.0; len];
        kernel::nesterov_step(&mut a, &w, &g, &v, step, mu);
        scalar::nesterov_step(&mut b, &w, &g, &v, step, mu);
        assert_bits_eq(&a, &b, "nesterov_step");
    }

    #[test]
    fn dot_identity(seed in 0u64..5000, len in 0usize..70) {
        let a = fill(seed, len, true);
        let b = fill(seed + 1, len, true);
        let (got, want) = (kernel::dot(&a, &b), scalar::dot(&a, &b));
        prop_assert!(same_value(got, want), "dot: {got:?} vs {want:?}");
    }

    #[test]
    fn reduce_max_abs_identity(seed in 0u64..5000, len in 0usize..70) {
        let x = fill(seed, len, true);
        assert_eq!(
            kernel::reduce_max_abs(&x).to_bits(),
            scalar::reduce_max_abs(&x).to_bits(),
            "reduce_max_abs"
        );
    }

    #[test]
    fn gemm_identity(seed in 0u64..2000, m in 1usize..7, k in 1usize..9, n in 1usize..40) {
        let a = fill(seed, m * k, true);
        let b = fill(seed + 1, k * n, true);
        let mut c1 = fill(seed + 2, m * n, true);
        let mut c2 = c1.clone();
        kernel::gemm(&a, &b, &mut c1, m, k, n);
        scalar::gemm_block(&a, &b, 0..m, &mut c2, k, n);
        assert_same_values(&c1, &c2, "gemm");
    }

    #[test]
    fn gemm_nt_identity(seed in 0u64..2000, m in 1usize..7, k in 1usize..20, n in 1usize..20) {
        let a = fill(seed, m * k, true);
        let b = fill(seed + 1, n * k, true);
        let mut c1 = fill(seed + 2, m * n, true);
        let mut c2 = c1.clone();
        kernel::gemm_nt(&a, &b, &mut c1, m, k, n);
        scalar::gemm_nt_block(&a, &b, 0..m, &mut c2, k, n);
        assert_same_values(&c1, &c2, "gemm_nt");
    }

    #[test]
    fn gemm_tn_identity(seed in 0u64..2000, m in 1usize..7, k in 1usize..9, n in 1usize..40) {
        let a = fill(seed, k * m, true);
        let b = fill(seed + 1, k * n, true);
        let mut c1 = fill(seed + 2, m * n, true);
        let mut c2 = c1.clone();
        kernel::gemm_tn(&a, &b, &mut c1, m, k, n);
        scalar::gemm_tn_block(&a, &b, 0..m, &mut c2, m, k, n);
        assert_same_values(&c1, &c2, "gemm_tn");
    }

    #[test]
    fn pack_2bit_identity(seed in 0u64..5000, len in 0usize..140) {
        // Contract: symbols are 2-bit codes 0..=3.
        let symbols: Vec<u8> = fill_bytes(seed, len).iter().map(|&b| b & 0b11).collect();
        let mut a = vec![0xAAu8; len.div_ceil(4)];
        let mut b = vec![0x55u8; len.div_ceil(4)];
        kernel::pack_2bit(&symbols, &mut a);
        scalar::pack_2bit(&symbols, &mut b);
        assert_eq!(a, b, "pack_2bit");
    }

    #[test]
    fn unpack_2bit_identity(seed in 0u64..5000, len in 0usize..140) {
        let bytes = fill_bytes(seed, len.div_ceil(4));
        let mut a = vec![0u8; len];
        let mut b = vec![0u8; len];
        kernel::unpack_2bit(&bytes, &mut a);
        scalar::unpack_2bit(&bytes, &mut b);
        assert_eq!(a, b, "unpack_2bit");
    }

    #[test]
    fn pack_1bit_identity(seed in 0u64..5000, len in 0usize..300) {
        let bits: Vec<bool> = fill_bytes(seed, len).iter().map(|&b| b & 1 == 1).collect();
        let mut a = vec![0xAAu8; len.div_ceil(8)];
        let mut b = vec![0x55u8; len.div_ceil(8)];
        kernel::pack_1bit(&bits, &mut a);
        scalar::pack_1bit(&bits, &mut b);
        assert_eq!(a, b, "pack_1bit");
    }

    #[test]
    fn unpack_1bit_identity(seed in 0u64..5000, len in 0usize..300) {
        let bytes = fill_bytes(seed, len.div_ceil(8));
        let mut a = vec![false; len];
        let mut b = vec![false; len];
        kernel::unpack_1bit(&bytes, &mut a);
        scalar::unpack_1bit(&bytes, &mut b);
        assert_eq!(a, b, "unpack_1bit");
    }

    #[test]
    fn threshold_scan_store_identity(seed in 0u64..5000, len in 0usize..70, thr in 0.001f32..1.0) {
        let corrected = fill(seed, len, true);
        let mut res_a = fill(seed + 1, len, true);
        let mut res_b = res_a.clone();
        let mut sym_a = vec![9u8; len];
        let mut sym_b = vec![7u8; len];
        kernel::threshold_scan_store(&corrected, thr, &mut sym_a, &mut res_a);
        scalar::threshold_scan_store(&corrected, thr, &mut sym_b, &mut res_b);
        assert_eq!(sym_a, sym_b, "threshold_scan_store symbols");
        assert_bits_eq(&res_a, &res_b, "threshold_scan_store residuals");
    }

    #[test]
    fn quantize_2bit_is_scan_then_pack(seed in 0u64..5000, len in 0usize..140, thr in 0.001f32..1.0) {
        // The fused quantizer against the two kernels it replaces, on
        // both backends: packed bytes and residual bits.
        let grad = fill(seed, len, true);
        let res = fill(seed + 1, len, true);
        let (mut res_want, mut syms) = (res.clone(), vec![9u8; len]);
        scalar::threshold_scan_residual(&grad, thr, &mut syms, &mut res_want);
        let mut want = vec![0u8; len.div_ceil(4)];
        scalar::pack_2bit(&syms, &mut want);
        let (mut res_a, mut a) = (res.clone(), vec![0xAAu8; len.div_ceil(4)]);
        kernel::quantize_2bit(&grad, thr, Some(&mut res_a), &mut a);
        let (mut res_b, mut b) = (res.clone(), vec![0x55u8; len.div_ceil(4)]);
        scalar::quantize_2bit(&grad, thr, Some(&mut res_b), &mut b);
        assert_eq!(&a, &want, "quantize_2bit packed");
        assert_eq!(&b, &want, "scalar quantize_2bit packed");
        assert_bits_eq(&res_a, &res_want, "quantize_2bit residuals");
        assert_bits_eq(&res_b, &res_want, "scalar quantize_2bit residuals");

        // Without error feedback: the symbols of the gradient itself.
        scalar::threshold_scan_store(&grad, thr, &mut syms, &mut res_want);
        scalar::pack_2bit(&syms, &mut want);
        kernel::quantize_2bit(&grad, thr, None, &mut a);
        scalar::quantize_2bit(&grad, thr, None, &mut b);
        assert_eq!(&a, &want, "quantize_2bit packed, no residual");
        assert_eq!(&b, &want, "scalar quantize_2bit packed, no residual");
    }

    #[test]
    fn sign_residual_identity(seed in 0u64..5000, len in 0usize..70, s in 0.001f32..2.0) {
        let corrected = fill(seed, len, true);
        let mut res_a = fill(seed + 1, len, true);
        let mut res_b = res_a.clone();
        let mut bits_a = vec![true; len];
        let mut bits_b = vec![false; len];
        kernel::sign_residual(&corrected, s, &mut bits_a, &mut res_a);
        scalar::sign_residual(&corrected, s, &mut bits_b, &mut res_b);
        assert_eq!(bits_a, bits_b, "sign_residual bits");
        assert_bits_eq(&res_a, &res_b, "sign_residual residuals");
    }

    #[test]
    fn unpack_2bit_add_identity(seed in 0u64..5000, len in 0usize..140, thr in 0.001f32..1.0) {
        let packed = fill_bytes(seed, len.div_ceil(4));
        let mut a = fill(seed + 1, len, true);
        let mut b = a.clone();
        kernel::unpack_2bit_add(&packed, thr, &mut a);
        scalar::unpack_2bit_add(&packed, thr, &mut b);
        assert_bits_eq(&a, &b, "unpack_2bit_add");
    }

    #[test]
    fn unpack_1bit_add_identity(seed in 0u64..5000, len in 0usize..300, s in 0.001f32..2.0) {
        let signs = fill_bytes(seed, len.div_ceil(8));
        let mut a = fill(seed + 1, len, true);
        let mut b = a.clone();
        kernel::unpack_1bit_add(&signs, s, &mut a);
        scalar::unpack_1bit_add(&signs, s, &mut b);
        assert_bits_eq(&a, &b, "unpack_1bit_add");
    }

    #[test]
    fn store_kernels_are_zero_fill_then_add(seed in 0u64..5000, len in 0usize..300, s in 0.001f32..2.0) {
        // Each store kernel, on both backends, against `fill(0.0)` + its
        // add twin — over a destination full of NaN/Inf/-0.0 it must
        // not read.
        let dirty = fill(seed + 1, len, true);
        let zeroed_then = |add: &dyn Fn(&mut [f32])| {
            let mut out = vec![0.0f32; len];
            add(&mut out);
            out
        };
        let stored = |store: &dyn Fn(&mut [f32])| {
            let mut out = dirty.clone();
            store(&mut out);
            out
        };

        let x = fill(seed, len, true);
        let want = zeroed_then(&|o| scalar::add_assign(o, &x));
        assert_bits_eq(&stored(&|o| kernel::zero_add(o, &x)), &want, "zero_add");

        let packed = fill_bytes(seed, len.div_ceil(4));
        let want = zeroed_then(&|o| scalar::unpack_2bit_add(&packed, s, o));
        assert_bits_eq(&stored(&|o| kernel::unpack_2bit_store(&packed, s, o)), &want, "unpack_2bit_store");
        assert_bits_eq(&stored(&|o| scalar::unpack_2bit_store(&packed, s, o)), &want, "scalar unpack_2bit_store");

        let signs = fill_bytes(seed + 2, len.div_ceil(8));
        let want = zeroed_then(&|o| scalar::unpack_1bit_add(&signs, s, o));
        assert_bits_eq(&stored(&|o| kernel::unpack_1bit_store(&signs, s, o)), &want, "unpack_1bit_store");
        assert_bits_eq(&stored(&|o| scalar::unpack_1bit_store(&signs, s, o)), &want, "scalar unpack_1bit_store");
    }
}

/// Pin the exact boundary lengths (empty, 1, ±1 around the 8/32 lane
/// multiples) that random lengths only hit probabilistically.
#[test]
fn edge_lengths_elementwise() {
    for &len in &EDGE_LENS {
        let x = fill(len as u64 + 11, len, true);
        let mut a = fill(len as u64 + 13, len, true);
        let mut b = a.clone();
        kernel::axpy(1.5, &x, &mut a);
        scalar::axpy(1.5, &x, &mut b);
        assert_bits_eq(&a, &b, "axpy edge");

        assert!(
            same_value(kernel::dot(&x, &a), scalar::dot(&x, &a)),
            "dot edge len {len}"
        );

        let syms: Vec<u8> = fill_bytes(len as u64, len)
            .iter()
            .map(|&b| b & 0b11)
            .collect();
        let mut pa = vec![1u8; len.div_ceil(4)];
        let mut pb = vec![2u8; len.div_ceil(4)];
        kernel::pack_2bit(&syms, &mut pa);
        scalar::pack_2bit(&syms, &mut pb);
        assert_eq!(pa, pb, "pack_2bit edge len {len}");

        // The fused quantizer: scan-then-pack bytes and residual bits.
        let (mut res_a, mut res_b) = (a.clone(), a.clone());
        let mut scanned = vec![0u8; len];
        scalar::threshold_scan_residual(&x, 0.5, &mut scanned, &mut res_b);
        scalar::pack_2bit(&scanned, &mut pb);
        kernel::quantize_2bit(&x, 0.5, Some(&mut res_a), &mut pa);
        assert_eq!(pa, pb, "quantize_2bit edge len {len}");
        assert_bits_eq(&res_a, &res_b, "quantize_2bit residual edge");
    }
}

/// Inputs far larger than any cache or vector group: one call, still
/// bit-identical end to end.
#[test]
fn large_tiled_elementwise_identity() {
    let n = 200_000;
    let x = fill(3, n, true);
    let mut a = fill(4, n, true);
    let mut b = a.clone();
    kernel::axpy(-0.75, &x, &mut a);
    scalar::axpy(-0.75, &x, &mut b);
    assert_bits_eq(&a, &b, "axpy large");

    let mut a2 = vec![0.0; n];
    let mut b2 = vec![0.0; n];
    kernel::sgd_step(&mut a2, &x, &a, 0.1);
    scalar::sgd_step(&mut b2, &x, &b, 0.1);
    assert_bits_eq(&a2, &b2, "sgd_step large");
}

#[test]
fn large_parallel_gemm_identity() {
    // Three 64-row bands, the last one short (two rows).
    let (m, k, n) = (130, 64, 64);
    let a = fill(5, m * k, false);
    let b = fill(6, k * n, false);
    let mut c1 = vec![0.0; m * n];
    let mut c2 = vec![0.0; m * n];
    kernel::gemm(&a, &b, &mut c1, m, k, n);
    scalar::gemm_block(&a, &b, 0..m, &mut c2, k, n);
    assert_bits_eq(&c1, &c2, "gemm large");

    let mut c3 = vec![0.0; m * n];
    let mut c4 = vec![0.0; m * n];
    kernel::gemm_nt(&a, &b, &mut c3, m, k, n);
    scalar::gemm_nt_block(&a, &b, 0..m, &mut c4, k, n);
    assert_bits_eq(&c3, &c4, "gemm_nt large");

    let mut c5 = vec![0.0; m * n];
    let mut c6 = vec![0.0; m * n];
    kernel::gemm_tn(&a, &b, &mut c5, m, k, n);
    scalar::gemm_tn_block(&a, &b, 0..m, &mut c6, m, k, n);
    assert_bits_eq(&c5, &c6, "gemm_tn large");
}

/// A with every other element (by a seeded coin) an exact zero of
/// either sign, the rest ordinary values: what a ReLU layer hands the
/// next GEMM, plus the `-0.0` a backward mask can produce.
fn half_zero(seed: u64, len: usize) -> Vec<f32> {
    let mut v = fill(seed, len, false);
    let coins = fill_bytes(seed + 99, len);
    for (x, c) in v.iter_mut().zip(coins) {
        match c % 4 {
            0 => *x = 0.0,
            1 => *x = -0.0,
            _ => {}
        }
    }
    v
}

/// C pre-filled with `-0.0` (which a skipped zero must leave alone and
/// an added `+0.0` would flip) and ordinary values.
fn signed_zero_c(seed: u64, len: usize) -> Vec<f32> {
    let mut c = fill(seed, len, false);
    for x in c.iter_mut().step_by(3) {
        *x = -0.0;
    }
    c
}

/// The shapes training issues, which cross every boundary of the packed
/// AVX2 GEMM (32-column panels, 8-lane groups, 128-deep k-slices,
/// 64-row bands) that the small proptests above never reach: the MLP's
/// skinny products, all-remainder `n = 10`, `n = 33`, `k` one short of /
/// one past a slice and spanning several, the conv shapes — and `k = 0`,
/// where NT still adds its empty sum (`+0.0`) to C.
const BOUNDARY_SHAPES: [(usize, usize, usize); 13] = [
    (3, 0, 5),
    (16, 784, 1024),
    (16, 1024, 1024),
    (16, 1024, 10),
    (16, 10, 1024),
    (5, 127, 33),
    (5, 129, 33),
    (3, 700, 40),
    (8, 72, 1024),
    (32, 288, 64),
    (8, 1024, 72),
    (70, 9, 17),
    (130, 40, 96),
];

#[test]
fn gemm_identity_at_training_shapes_with_signed_zeros() {
    for (case, &(m, k, n)) in BOUNDARY_SHAPES.iter().enumerate() {
        let seed = 1000 + case as u64 * 10;
        for a in [fill(seed, m * k, false), half_zero(seed, m * k)] {
            let what = format!("{m}x{k}x{n}");
            let c0 = signed_zero_c(seed + 3, m * n);

            let b = fill(seed + 1, k * n, false);
            let (mut c1, mut c2) = (c0.clone(), c0.clone());
            kernel::gemm(&a, &b, &mut c1, m, k, n);
            scalar::gemm_block(&a, &b, 0..m, &mut c2, k, n);
            assert_bits_eq(&c1, &c2, &format!("gemm {what}"));

            // Same buffers read as B[n,k]: every (m, k, n) is also an NT
            // case.
            let (mut c1, mut c2) = (c0.clone(), c0.clone());
            kernel::gemm_nt(&a, &b, &mut c1, m, k, n);
            scalar::gemm_nt_block(&a, &b, 0..m, &mut c2, k, n);
            assert_bits_eq(&c1, &c2, &format!("gemm_nt {what}"));
        }
    }
}

#[test]
fn gemm_tn_identity_at_training_shapes_with_signed_zeros() {
    // (m, k, n) with A stored [k, m]: the dense layers' `dW = Xᵀ·dY`
    // (k = batch) and the convolutions' `dcol = Wᵀ·dy`.
    for (case, &(m, k, n)) in [
        (1024, 16, 1024),
        (784, 16, 1024),
        (1024, 16, 10),
        (288, 32, 64),
        (72, 8, 1024),
        (67, 129, 33),
        (9, 300, 41),
    ]
    .iter()
    .enumerate()
    {
        let seed = 2000 + case as u64 * 10;
        for a in [fill(seed, k * m, false), half_zero(seed, k * m)] {
            let b = fill(seed + 1, k * n, false);
            let mut c1 = signed_zero_c(seed + 3, m * n);
            let mut c2 = c1.clone();
            kernel::gemm_tn(&a, &b, &mut c1, m, k, n);
            scalar::gemm_tn_block(&a, &b, 0..m, &mut c2, m, k, n);
            assert_bits_eq(&c1, &c2, &format!("gemm_tn {m}x{k}x{n}"));
        }
    }
}

#[test]
fn backend_reports_and_env_is_documented() {
    // On x86 CI hosts this is Avx2 or Avx512; on non-x86 it must be
    // Scalar. Either way the name is stable for trace/bench output.
    let b = kernel::backend();
    assert!(matches!(b.name(), "scalar" | "avx2" | "avx512"));
}

// ---------------------------------------------------------------------------
// Convolution unrolls, per-channel sums and batch norm
// ---------------------------------------------------------------------------

/// `[n, ch, plane]` values with a special (±0.0, NaN, ±Inf, 3e38) every
/// eleventh element and the last channel all `-0.0`, whose sum keeps
/// the sign of `init`.
fn channel_values(seed: u64, [n, ch, plane]: [usize; 3]) -> Vec<f32> {
    let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3e38];
    let mut x = fill(seed, n * ch * plane, false);
    for (v, &sp) in x
        .iter_mut()
        .skip(2)
        .step_by(11)
        .zip(specials.iter().cycle())
    {
        *v = sp;
    }
    for s in 0..n {
        let c = (s * ch + ch - 1) * plane;
        x[c..c + plane].fill(-0.0);
    }
    x
}

/// Every channel sum, dispatched and scalar, equals the sequential fold
/// over (sample, position) — on the SIMD backends through the vector
/// path for each full eight channels and the scalar chains for the rest,
/// with planes that leave no tail (8, 1024) and ones that do (7, 49).
/// The sums add two computed values, so a NaN must match a NaN (module
/// docs); every other value is bit-equal.
#[test]
fn channel_sums_equal_the_sequential_fold() {
    for ch in [1, 3, 8, 12, 17, 32] {
        for plane in [7, 8, 49, 1024] {
            let dims = [2, ch, plane];
            let (a, b) = (
                channel_values(ch as u64, dims),
                channel_values(plane as u64, dims),
            );
            let means = fill(ch as u64 + 5, ch, false);
            let terms = [
                ("value", kernel::ChannelTerm::Value(&a)),
                ("sq_dev", kernel::ChannelTerm::SqDev(&a, &means)),
                ("product", kernel::ChannelTerm::Product(&a, &b)),
            ];
            let term_at = |what: &str, c: usize, i: usize| match what {
                "value" => a[i],
                "sq_dev" => {
                    let d = a[i] - means[c];
                    d * d
                }
                _ => a[i] * b[i],
            };
            for (what, term) in terms {
                for init in [0.0, -0.0] {
                    let mut got = vec![f32::NAN; ch];
                    let mut reference = vec![f32::NAN; ch];
                    kernel::channel_sums(dims, init, term, |c, v| got[c] = v);
                    scalar::channel_sums(dims, init, term, |c, v| reference[c] = v);
                    let want: Vec<f32> = (0..ch)
                        .map(|c| {
                            (0..2)
                                .flat_map(|s| (s * ch + c) * plane..(s * ch + c + 1) * plane)
                                .fold(init, |acc, i| acc + term_at(what, c, i))
                        })
                        .collect();
                    let case = format!("{what} C={ch} plane={plane} init={init:?}");
                    assert_same_values(&got, &want, &format!("dispatched {case}"));
                    assert_same_values(&reference, &want, &format!("scalar {case}"));
                }
            }
        }
    }
}

/// The normalize and input-gradient passes, dispatched against the
/// scalar body, with specials in the activations: bit-equal, `x̂`
/// included, each output appended after what its buffer held.
#[test]
fn batchnorm_passes_match_the_scalar_body() {
    for (ch, plane) in [(3, 7), (8, 1024), (16, 256), (32, 64), (17, 49)] {
        let dims = [3, ch, plane];
        let len = 3 * ch * plane;
        let x = channel_values(ch as u64 + 40, dims);
        let mean = fill(41, ch, false);
        let std: Vec<f32> = fill(42, ch, false).iter().map(|v| v.abs() + 0.5).collect();
        let (gamma, beta) = (fill(43, ch, false), fill(44, ch, false));
        for train in [true, false] {
            let (mut out_a, mut out_b) = (vec![-0.0], vec![-0.0]);
            let (mut xhat_a, mut xhat_b) = (vec![f32::NAN; len], vec![f32::NAN; len]);
            let stats = ((&mean[..], &std[..]), (&gamma[..], &beta[..]));
            kernel::bn_normalize(
                dims,
                &x,
                stats.0,
                stats.1,
                train.then_some(&mut xhat_a[..]),
                &mut out_a,
            );
            scalar::bn_normalize(
                dims,
                &x,
                stats.0,
                stats.1,
                train.then_some(&mut xhat_b[..]),
                &mut out_b,
            );
            assert_bits_eq(
                &out_a,
                &out_b,
                &format!("bn_normalize {ch}@{plane} train={train}"),
            );
            assert_bits_eq(&xhat_a, &xhat_b, &format!("bn_normalize x̂ {ch}@{plane}"));
            assert_eq!(
                (out_a.len(), out_a[0].to_bits()),
                (len + 1, (-0.0f32).to_bits())
            );
        }
        let dy = channel_values(ch as u64 + 50, dims);
        let xhat = fill(51, len, false);
        let (sum_dy, sum_dy_xhat) = (fill(52, ch, false), fill(53, ch, false));
        let (mut dx_a, mut dx_b) = (vec![-0.0], vec![-0.0]);
        let args = (
            (&dy[..], &xhat[..]),
            (&gamma[..], &std[..]),
            (&sum_dy[..], &sum_dy_xhat[..]),
        );
        kernel::bn_input_grad(dims, args.0, args.1, args.2, &mut dx_a);
        scalar::bn_input_grad(dims, args.0, args.1, args.2, &mut dx_b);
        assert_bits_eq(&dx_a, &dx_b, &format!("bn_input_grad {ch}@{plane}"));
        assert_eq!(
            (dx_a.len(), dx_a[0].to_bits()),
            (len + 1, (-0.0f32).to_bits())
        );
    }
}

/// Every stride-1 geometry over images 1×1 to 5×7, kernels 1/3/5 and
/// padding 0–2 (the size-keeping ones take the shifted-plane path on
/// the SIMD backends, the rest the row path), stride 2 beside them, and
/// ResNet-8's three size-keeping convolutions.
fn unroll_geometries() -> Vec<Conv2dGeom> {
    let mut geoms = Vec::new();
    for (h, w) in [(1, 1), (2, 2), (3, 3), (5, 7)] {
        for k in [1, 3, 5] {
            for pad in [0, 1, 2] {
                for stride in [1, 2] {
                    let g = Conv2dGeom {
                        c: 2,
                        h,
                        w,
                        kh: k,
                        kw: k,
                        stride,
                        pad,
                    };
                    if h + 2 * pad >= k && w + 2 * pad >= k {
                        geoms.push(g);
                    }
                }
            }
        }
    }
    for (c, hw) in [(3, 32), (8, 32), (32, 8)] {
        geoms.push(Conv2dGeom {
            c,
            h: hw,
            w: hw,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        });
    }
    geoms
}

/// The unroll writes every element (the buffer starts as NaN) with the
/// row path's bits, padding taps as `+0.0`.
#[test]
fn im2col_into_matches_the_row_path() {
    for g in unroll_geometries() {
        let img = fill(g.h as u64 * 31 + g.w as u64, g.c * g.h * g.w, true);
        let len = g.col_rows() * g.col_cols();
        let (mut got, mut want) = (vec![f32::NAN; len], vec![f32::NAN; len]);
        im2col_into(&img, &g, &mut got);
        scalar::im2col_into(&img, &g, &mut want);
        assert_bits_eq(&got, &want, &format!("im2col_into {g:?}"));
    }
}

/// The scatter-add into an image pre-filled with `-0.0`, NaN and
/// ordinary values: the elements a tap lands on get the row path's sums
/// (the columns carry ±0.0 and ±Inf but no NaN, so no add sees two
/// NaNs), and the ones no tap lands on keep their bits — an added
/// `+0.0` would turn their `-0.0` into `+0.0`.
#[test]
fn col2im_matches_the_row_path_and_leaves_untouched_bits() {
    for g in unroll_geometries() {
        let len = g.c * g.h * g.w;
        let mut start = fill(g.kh as u64 * 7 + g.pad as u64, len, false);
        for (i, v) in start.iter_mut().enumerate() {
            match i % 3 {
                0 => *v = -0.0,
                1 if i % 5 == 1 => *v = f32::NAN,
                _ => {}
            }
        }
        let col: Vec<f32> = fill(g.w as u64 + 99, g.col_rows() * g.col_cols(), true)
            .into_iter()
            .map(|v| if v.is_nan() { -0.0 } else { v })
            .collect();
        let (mut got, mut want) = (start.clone(), start.clone());
        col2im(&col, &g, &mut got);
        scalar::col2im(&col, &g, &mut want);
        assert_bits_eq(&got, &want, &format!("col2im {g:?}"));
    }
}

/// `(geometry, output channels)` for the implicit-GEMM convolutions:
/// ResNet-8's nine convolutions (the two 8→8 at 32×32 share a
/// geometry); strides 1 and 2 (and 3, the core's one-lane-at-a-time
/// gather) with padding 0–2 and kernels 1, 3 and 5
/// over images whose widths 7, 9 and 33 put a position run across the
/// lane groups, and 1×1 and 2×3 images smaller than kernel + padding.
/// Output widths `OH·OW` (forward) and `C·K·K` (weight gradient) fall on
/// both sides of the 128-column zmm panel, so on an AVX-512 host both
/// instances of the core run.
fn conv_geometries() -> Vec<(Conv2dGeom, usize)> {
    let geom = |c, h, w, k, stride, pad| Conv2dGeom {
        c,
        h,
        w,
        kh: k,
        kw: k,
        stride,
        pad,
    };
    let mut geoms = vec![
        (geom(3, 32, 32, 3, 1, 1), 8),
        (geom(8, 32, 32, 3, 1, 1), 8),
        (geom(8, 32, 32, 3, 2, 1), 16),
        (geom(16, 16, 16, 3, 1, 1), 16),
        (geom(8, 32, 32, 1, 2, 0), 16),
        (geom(16, 16, 16, 3, 2, 1), 32),
        (geom(32, 8, 8, 3, 1, 1), 32),
        (geom(16, 16, 16, 1, 2, 0), 32),
    ];
    for (c, h, w) in [(1, 1, 1), (2, 2, 3), (2, 3, 7), (6, 5, 9), (2, 5, 33)] {
        for k in [1, 3, 5] {
            for pad in [0, 1, 2] {
                for stride in [1, 2, 3] {
                    if h + 2 * pad >= k && w + 2 * pad >= k {
                        geoms.push((geom(c, h, w, k, stride, pad), 1 + (h + k) % 5));
                    }
                }
            }
        }
    }
    geoms
}

/// `v` with every negative value and NaN turned into `+0.0` — a
/// post-ReLU operand, half exact zeros.
fn relu(v: Vec<f32>) -> Vec<f32> {
    v.into_iter().map(|x| x.max(0.0)).collect()
}

/// `conv_forward` against the explicit unroll and `gemm`, with
/// specials in the image and in dense and ReLU-sparse weights: a NaN
/// where the reference has one, every other bit equal, appended after
/// what `out` already held.
#[test]
fn conv_forward_is_im2col_then_gemm() {
    for (seed, (g, m)) in (0u64..).zip(conv_geometries()) {
        let (k, n) = (g.col_rows(), g.col_cols());
        let img = fill(seed + 300, g.c * g.h * g.w, true);
        let mut col = vec![f32::NAN; k * n];
        im2col_into(&img, &g, &mut col);
        for w in [
            fill(seed + 400, m * k, true),
            relu(fill(seed + 500, m * k, true)),
        ] {
            let mut want = vec![f32::NAN; m * n];
            kernel::gemm(&w, &col, &mut want, m, k, n);
            let mut got = vec![-0.0, f32::NAN];
            kernel::conv_forward(&w, &img, &g, &mut got);
            assert_bits_eq(&got[..2], &[-0.0, f32::NAN], "conv_forward kept prefix");
            assert_same_values(&got[2..], &want, &format!("conv_forward m={m} {g:?}"));
        }
    }
}

/// `conv_weight_grad` against the explicit unroll and `gemm_nt`, with
/// specials in the image, in dense and ReLU-sparse `dy` and in the `dW`
/// it accumulates onto (`-0.0` included, which an added `+0.0` flips).
#[test]
fn conv_weight_grad_is_im2col_then_gemm_nt() {
    for (seed, (g, m)) in (0u64..).zip(conv_geometries()) {
        let (k, n) = (g.col_cols(), g.col_rows());
        let img = fill(seed + 600, g.c * g.h * g.w, true);
        let mut col = vec![f32::NAN; n * k];
        im2col_into(&img, &g, &mut col);
        let dw: Vec<f32> = fill(seed + 700, m * n, true)
            .into_iter()
            .enumerate()
            .map(|(i, v)| if i % 4 == 0 { -0.0 } else { v })
            .collect();
        for dy in [
            fill(seed + 800, m * k, true),
            relu(fill(seed + 900, m * k, true)),
        ] {
            let mut want = dw.clone();
            kernel::gemm_nt(&dy, &col, &mut want, m, k, n);
            let mut got = dw.clone();
            kernel::conv_weight_grad(&dy, &img, &g, &mut got);
            assert_same_values(&got, &want, &format!("conv_weight_grad m={m} {g:?}"));
        }
    }
}
