//! Scalar reference implementations of every kernel primitive.
//!
//! These are the *semantics* of the kernel layer: the dispatched SIMD
//! paths in the private `avx2` and `gemm` siblings must reproduce each
//! function here bit for bit
//! (see the module docs of [`super`] for the contract, including the two
//! reduction orders). The bodies are deliberately plain loops — they are
//! what the pre-kernel code in `matmul.rs`/`ops.rs`/the compress crate
//! executed, hoisted into one place so there is exactly one reference
//! implementation of each primitive.
//!
//! The module is public so tests and benches can pin a path explicitly
//! (bit-identity proptests compare these against the dispatched entry
//! points; `cdsgd-bench` reports scalar-vs-SIMD for the same buffer).

use std::ops::Range;

use super::ChannelTerm;
use crate::Conv2dGeom;

// ---------------------------------------------------------------------------
// Elementwise (BLAS-1 style)
// ---------------------------------------------------------------------------

/// `y[i] += alpha * x[i]`.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y[i] *= s`.
pub fn scale(y: &mut [f32], s: f32) {
    for v in y {
        *v *= s;
    }
}

/// `y[i] += x[i]`.
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += xi;
    }
}

/// `y[i] += b` (row-bias broadcast add).
pub fn add_scalar(y: &mut [f32], b: f32) {
    for v in y {
        *v += b;
    }
}

/// `out[i] = a[i] + b[i]` (residual accumulate into a scratch buffer).
pub fn add_into(out: &mut [f32], a: &[f32], b: &[f32]) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(out.len(), b.len());
    for ((o, &av), &bv) in out.iter_mut().zip(a).zip(b) {
        *o = av + bv;
    }
}

/// `out[i] = 0.0 + x[i]` — the bits `out.fill(0.0)` then [`add_assign`]
/// leave (a `-0.0` comes out `+0.0`), in one pass: how a server round
/// stores its first raw payload into the aggregation buffer.
pub fn zero_add(out: &mut [f32], x: &[f32]) {
    debug_assert_eq!(out.len(), x.len());
    for (o, &xv) in out.iter_mut().zip(x) {
        *o = 0.0 + xv;
    }
}

/// `out[i] = a[i] + alpha * b[i]` (out-of-place axpy).
pub fn scale_add(out: &mut [f32], a: &[f32], alpha: f32, b: &[f32]) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(out.len(), b.len());
    for ((o, &av), &bv) in out.iter_mut().zip(a).zip(b) {
        *o = av + alpha * bv;
    }
}

/// `out[i] = w[i] - step * g[i]` — the server's plain-SGD update (paper
/// eq. 10) and the second half of heavy-ball. Kept as its own primitive
/// (rather than `scale_add` with `-step`) so the expression tree matches
/// the historical loop exactly even for NaN payload propagation.
pub fn sgd_step(out: &mut [f32], w: &[f32], g: &[f32], step: f32) {
    debug_assert_eq!(out.len(), w.len());
    debug_assert_eq!(out.len(), g.len());
    for ((o, &wv), &gv) in out.iter_mut().zip(w).zip(g) {
        *o = wv - step * gv;
    }
}

/// `v[i] = mu * v[i] + g[i]` — momentum/velocity decay-accumulate
/// (heavy-ball, Nesterov, and DGC momentum correction all use it).
pub fn decay_add(v: &mut [f32], mu: f32, g: &[f32]) {
    debug_assert_eq!(v.len(), g.len());
    for (vi, &gi) in v.iter_mut().zip(g) {
        *vi = mu * *vi + gi;
    }
}

/// `out[i] = w[i] - step * (g[i] + mu * v[i])` — the Nesterov look-ahead
/// step, fused so no scratch buffer is needed.
pub fn nesterov_step(out: &mut [f32], w: &[f32], g: &[f32], v: &[f32], step: f32, mu: f32) {
    debug_assert_eq!(out.len(), w.len());
    debug_assert_eq!(out.len(), g.len());
    debug_assert_eq!(out.len(), v.len());
    for (((o, &wv), &gv), &vv) in out.iter_mut().zip(w).zip(g).zip(v) {
        *o = wv - step * (gv + mu * vv);
    }
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Sequential left-to-right sum. **Order-pinned**: consumers on the
/// weight-hash path (softmax denominators, bias gradients, 1-bit scale)
/// rely on this exact association, so no backend reorders it.
pub fn reduce_sum(x: &[f32]) -> f32 {
    x.iter().sum()
}

/// Sequential sum of `|x[i]|` (1-bit scale, adaptive threshold).
/// Order-pinned like [`reduce_sum`].
pub fn reduce_abs_sum(x: &[f32]) -> f32 {
    x.iter().map(|v| v.abs()).sum()
}

/// Sequential sum of squares (L2 norms). Order-pinned.
pub fn reduce_sq_sum(x: &[f32]) -> f32 {
    x.iter().map(|&v| v * v).sum()
}

/// Sequential `f32::max` fold from `NEG_INFINITY` (softmax row max).
/// NaN elements are skipped (`f32::max` semantics).
pub fn reduce_max(x: &[f32]) -> f32 {
    x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v))
}

/// `max(|x[i]|)` over the slice, `0.0` when empty; NaN elements are
/// skipped. Unlike the sums this reduction is order-independent (all
/// inputs are non-negative after `abs`), so the SIMD path can and does
/// reproduce it bit-exactly.
pub fn reduce_max_abs(x: &[f32]) -> f32 {
    x.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// Dot product in **striped order** (the kernel layer's documented
/// reduction order for `dot`): eight interleaved partial sums over the
/// 8-aligned prefix, combined pairwise, then a sequential tail. This is
/// the natural AVX2 accumulation shape; the scalar reference implements
/// the same order so both paths agree bitwise. See the module docs of
/// [`super`] for why `dot` is *not* sequential-order.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    let mut chunks_a = a.chunks_exact(8);
    let mut chunks_b = b.chunks_exact(8);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for l in 0..8 {
            lanes[l] += ca[l] * cb[l];
        }
    }
    let mut acc = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for (&av, &bv) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        acc += av * bv;
    }
    acc
}

// ---------------------------------------------------------------------------
// GEMM row-block microkernels
// ---------------------------------------------------------------------------
// All three operate on a block of output rows (`rows`) whose storage is
// `c_chunk` (the dispatcher passes `0..m` and all of C). The
// accumulation order per output element is strictly increasing `p`, and
// `a` elements equal to 0.0 skip their contribution entirely — both are
// load-bearing for bit-identity (skipping avoids `-0.0 + 0.0` flips on
// ReLU-sparse activations). NN and TN write their rows of C, starting
// each output from `+0.0`; NT adds its dot products to C.

/// `C[rows, n] = A[rows, k] · B[k, n]` (ikj order); C is not read.
pub fn gemm_block(
    a: &[f32],
    b: &[f32],
    rows: Range<usize>,
    c_chunk: &mut [f32],
    k: usize,
    n: usize,
) {
    for (ri, i) in rows.enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c_chunk[ri * n..(ri + 1) * n];
        c_row.fill(0.0);
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += av * bv;
            }
        }
    }
}

/// `C[rows, n] += A[rows, k] · B[n, k]ᵀ` (sequential dot per output).
pub fn gemm_nt_block(
    a: &[f32],
    b: &[f32],
    rows: Range<usize>,
    c_chunk: &mut [f32],
    k: usize,
    n: usize,
) {
    for (ri, i) in rows.enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c_chunk[ri * n..(ri + 1) * n];
        for (j, cv) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *cv += acc;
        }
    }
}

/// `C[rows, n] = A[k, m]ᵀ · B[k, n]` (strided A reads, ikj order); C is
/// not read.
pub fn gemm_tn_block(
    a: &[f32],
    b: &[f32],
    rows: Range<usize>,
    c_chunk: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for (ri, i) in rows.enumerate() {
        let c_row = &mut c_chunk[ri * n..(ri + 1) * n];
        c_row.fill(0.0);
        for p in 0..k {
            let av = a[p * m + i];
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += av * bv;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-packing
// ---------------------------------------------------------------------------

/// Pack 2-bit symbols (values 0..=3) four per byte, little-end first
/// (symbol `i` at bits `2*(i%4)`). `out.len()` must be
/// `symbols.len().div_ceil(4)`; it is overwritten.
pub fn pack_2bit(symbols: &[u8], out: &mut [u8]) {
    debug_assert_eq!(out.len(), symbols.len().div_ceil(4));
    out.fill(0);
    for (i, &s) in symbols.iter().enumerate() {
        debug_assert!(s < 4, "2-bit symbol out of range");
        out[i / 4] |= (s & 0b11) << (2 * (i % 4));
    }
}

/// Unpack `out.len()` 2-bit symbols from `bytes` (inverse of
/// [`pack_2bit`]).
pub fn unpack_2bit(bytes: &[u8], out: &mut [u8]) {
    debug_assert!(bytes.len() * 4 >= out.len());
    for (i, o) in out.iter_mut().enumerate() {
        *o = (bytes[i / 4] >> (2 * (i % 4))) & 0b11;
    }
}

/// Pack booleans eight per byte, little-end first. `out.len()` must be
/// `bits.len().div_ceil(8)`; it is overwritten.
pub fn pack_1bit(bits: &[bool], out: &mut [u8]) {
    debug_assert_eq!(out.len(), bits.len().div_ceil(8));
    out.fill(0);
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
}

/// Unpack `out.len()` booleans from `bytes` (inverse of [`pack_1bit`]).
pub fn unpack_1bit(bytes: &[u8], out: &mut [bool]) {
    debug_assert!(bytes.len() * 8 >= out.len());
    for (i, o) in out.iter_mut().enumerate() {
        *o = (bytes[i / 8] >> (i % 8)) & 1 == 1;
    }
}

// ---------------------------------------------------------------------------
// Quantizer scans
// ---------------------------------------------------------------------------

/// 2-bit threshold scan with fused residual update (MXNet `2bit`
/// semantics): for `x = grad[i] + res[i]`, emit symbol 1 and quantum
/// `+thr` when `x >= thr`, symbol 2 and `-thr` when `x <= -thr`, else
/// symbol 0 and quantum `0.0`; store `res[i] = x - q`. NaN inputs fail
/// both comparisons and fall through to symbol 0.
pub fn threshold_scan_residual(grad: &[f32], thr: f32, symbols: &mut [u8], res: &mut [f32]) {
    debug_assert_eq!(grad.len(), symbols.len());
    debug_assert_eq!(grad.len(), res.len());
    for ((s, &g), r) in symbols.iter_mut().zip(grad).zip(res.iter_mut()) {
        let x = g + *r;
        let q = if x >= thr {
            *s = 1;
            thr
        } else if x <= -thr {
            *s = 2;
            -thr
        } else {
            *s = 0;
            0.0
        };
        *r = x - q;
    }
}

/// [`threshold_scan_residual`] for a pre-corrected input: scans `x =
/// corrected[i]` directly and writes the remainder into `res` (used by
/// the adaptive codec, whose threshold depends on `corrected` as a
/// whole).
pub fn threshold_scan_store(corrected: &[f32], thr: f32, symbols: &mut [u8], res: &mut [f32]) {
    debug_assert_eq!(corrected.len(), symbols.len());
    debug_assert_eq!(corrected.len(), res.len());
    for ((s, &x), r) in symbols.iter_mut().zip(corrected).zip(res.iter_mut()) {
        let q = if x >= thr {
            *s = 1;
            thr
        } else if x <= -thr {
            *s = 2;
            -thr
        } else {
            *s = 0;
            0.0
        };
        *r = x - q;
    }
}

/// The 2-bit quantizer in one pass: [`threshold_scan_residual`] and
/// [`pack_2bit`] fused, so no symbol array exists in between. Per
/// element `x = grad[i] + res[i]` is scanned as there, `res[i] = x - q`
/// is stored back and the symbol lands at bits `2*(i%4)` of
/// `packed[i/4]`; `packed.len()` must be `grad.len().div_ceil(4)` and
/// every byte of it is overwritten. With no `res` (the error-feedback
/// ablation) `x = grad[i]` and nothing but the symbols is written.
pub fn quantize_2bit(grad: &[f32], thr: f32, mut res: Option<&mut [f32]>, packed: &mut [u8]) {
    debug_assert_eq!(packed.len(), grad.len().div_ceil(4));
    debug_assert!(res.as_ref().is_none_or(|r| r.len() == grad.len()));
    // One byte: up to four elements starting at `at`. Symbol and quantum
    // are selected, not branched to, so the loop compiles to
    // straight-line code the optimizer can vectorize.
    let mut quad = |at: usize, g4: &[f32]| {
        let mut byte = 0u8;
        for (lane, &g) in g4.iter().enumerate() {
            let x = match &res {
                Some(res) => g + res[at + lane],
                None => g,
            };
            let (pos, neg) = (x >= thr, x <= -thr);
            let q = if pos {
                thr
            } else if neg {
                -thr
            } else {
                0.0
            };
            if let Some(res) = &mut res {
                res[at + lane] = x - q;
            }
            byte |= (pos as u8 | ((!pos && neg) as u8) << 1) << (2 * lane);
        }
        byte
    };
    let (quads, tail) = grad.as_chunks::<4>();
    for (j, g4) in quads.iter().enumerate() {
        packed[j] = quad(4 * j, g4);
    }
    if !tail.is_empty() {
        packed[quads.len()] = quad(4 * quads.len(), tail);
    }
}

/// 1-bit sign scan with residual update: `bits[i] = x >= 0.0` (NaN →
/// `false`), quantum `±scale`, `res[i] = x - q`.
pub fn sign_residual(corrected: &[f32], scale: f32, bits: &mut [bool], res: &mut [f32]) {
    debug_assert_eq!(corrected.len(), bits.len());
    debug_assert_eq!(corrected.len(), res.len());
    for ((bi, &x), r) in bits.iter_mut().zip(corrected).zip(res.iter_mut()) {
        let b = x >= 0.0;
        *bi = b;
        let q = if b { scale } else { -scale };
        *r = x - q;
    }
}

// ---------------------------------------------------------------------------
// Decode-accumulate (server aggregation hot loop)
// ---------------------------------------------------------------------------

/// Decode 2-bit symbols straight into an accumulator: `out[i] += thr`
/// for code 1, `out[i] -= thr` for code 2, **no write at all** for code
/// 0 (adding `0.0` would flip `-0.0` accumulator slots). `out.len()`
/// elements are decoded from `packed`.
pub fn unpack_2bit_add(packed: &[u8], thr: f32, out: &mut [f32]) {
    debug_assert!(packed.len() * 4 >= out.len());
    for (i, o) in out.iter_mut().enumerate() {
        match (packed[i / 4] >> (2 * (i % 4))) & 0b11 {
            1 => *o += thr,
            2 => *o -= thr,
            _ => {}
        }
    }
}

/// Decode 1-bit signs straight into an accumulator: `out[i] += scale`
/// for a set bit, `out[i] -= scale` otherwise (every element is
/// touched, matching the historical decoder).
pub fn unpack_1bit_add(signs: &[u8], scale: f32, out: &mut [f32]) {
    debug_assert!(signs.len() * 8 >= out.len());
    for (i, o) in out.iter_mut().enumerate() {
        *o += if (signs[i / 8] >> (i % 8)) & 1 == 1 {
            scale
        } else {
            -scale
        };
    }
}

/// [`unpack_2bit_add`] into a buffer taken as all `+0.0`, whatever it
/// holds: `0.0 + thr` for code 1, `0.0 - thr` for code 2, `0.0` for code
/// 0 — every element is written, none is read.
pub fn unpack_2bit_store(packed: &[u8], thr: f32, out: &mut [f32]) {
    debug_assert!(packed.len() * 4 >= out.len());
    for (i, o) in out.iter_mut().enumerate() {
        *o = match (packed[i / 4] >> (2 * (i % 4))) & 0b11 {
            1 => 0.0 + thr,
            2 => 0.0 - thr,
            _ => 0.0,
        };
    }
}

/// [`unpack_1bit_add`] into a buffer taken as all `+0.0`: `0.0 + scale`
/// for a set bit, `0.0 + -scale` otherwise.
pub fn unpack_1bit_store(signs: &[u8], scale: f32, out: &mut [f32]) {
    debug_assert!(signs.len() * 8 >= out.len());
    for (i, o) in out.iter_mut().enumerate() {
        *o = 0.0
            + if (signs[i / 8] >> (i % 8)) & 1 == 1 {
                scale
            } else {
                -scale
            };
    }
}

// ---------------------------------------------------------------------------
// Convolution unrolls
// ---------------------------------------------------------------------------

/// The output columns `lo..hi` whose input column `oj·stride + kj − pad`
/// lies inside `0..w` — one range per kernel column `kj`, shared by
/// every row — and the input column of `lo` (`0` when the range is
/// empty, so it always indexes the row).
fn valid_cols(g: &Conv2dGeom, kj: usize) -> (usize, usize, usize) {
    let ow = g.out_w();
    let lo = g.pad.saturating_sub(kj).div_ceil(g.stride).min(ow);
    let hi = (g.w + g.pad).saturating_sub(kj).div_ceil(g.stride).min(ow); // ≥ lo
    let s = if lo < hi {
        lo * g.stride + kj - g.pad
    } else {
        0
    };
    (lo, hi, s)
}

/// Unroll one image `[C,H,W]` into the column matrix
/// `dst = [C·KH·KW, OH·OW]` output row by output row: each row's valid
/// columns are one copy (stride 1) or a strided gather, its padding runs
/// are filled with `0.0`. Every element of `dst` is written.
pub fn im2col_into(img: &[f32], g: &Conv2dGeom, dst: &mut [f32]) {
    debug_assert_eq!(img.len(), g.c * g.h * g.w);
    debug_assert_eq!(dst.len(), g.col_rows() * g.col_cols());
    let ow = g.out_w();
    let cols = g.col_cols();
    for c in 0..g.c {
        let img_c = &img[c * g.h * g.w..(c + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let (lo, hi, s) = valid_cols(g, kj);
                let row = (c * g.kh + ki) * g.kw + kj;
                let out_row = &mut dst[row * cols..(row + 1) * cols];
                for (oi, out) in out_row.chunks_exact_mut(ow).enumerate() {
                    let ii = (oi * g.stride + ki).wrapping_sub(g.pad);
                    if ii >= g.h {
                        out.fill(0.0); // a padding row (`wrapping_sub` sends ii < 0 here)
                        continue;
                    }
                    let src = &img_c[ii * g.w + s..(ii + 1) * g.w];
                    out[..lo].fill(0.0);
                    out[hi..].fill(0.0);
                    if g.stride == 1 {
                        out[lo..hi].copy_from_slice(&src[..hi - lo]);
                    } else {
                        for (j, o) in out[lo..hi].iter_mut().enumerate() {
                            *o = src[j * g.stride];
                        }
                    }
                }
            }
        }
    }
}

/// `kernel::conv_forward`'s reference: [`im2col_into`] into a fresh
/// column matrix, then [`gemm_block`] appended to `out`.
pub fn conv_forward(w: &[f32], img: &[f32], g: &Conv2dGeom, out: &mut Vec<f32>) {
    let (k, n) = (g.col_rows(), g.col_cols());
    let mut col = vec![0.0; k * n];
    im2col_into(img, g, &mut col);
    let (m, start) = (w.len() / k, out.len());
    out.resize(start + m * n, 0.0);
    gemm_block(w, &col, 0..m, &mut out[start..], k, n);
}

/// `kernel::conv_weight_grad`'s reference: [`im2col_into`] into a fresh
/// column matrix, then [`gemm_nt_block`] into `dw`.
pub fn conv_weight_grad(dy: &[f32], img: &[f32], g: &Conv2dGeom, dw: &mut [f32]) {
    let (n, k) = (g.col_rows(), g.col_cols());
    let mut col = vec![0.0; n * k];
    im2col_into(img, g, &mut col);
    gemm_nt_block(dy, &col, 0..dy.len() / k, dw, k, n);
}

/// Adjoint of [`im2col_into`], output row by output row: each row's
/// valid columns are added into their image row (`img[..] += col[..]`);
/// padding taps add nothing, so the image elements they would land on
/// keep their bits.
pub fn col2im(col: &[f32], g: &Conv2dGeom, img: &mut [f32]) {
    debug_assert_eq!(img.len(), g.c * g.h * g.w);
    debug_assert_eq!(col.len(), g.col_rows() * g.col_cols());
    let ow = g.out_w();
    let cols = g.col_cols();
    for c in 0..g.c {
        let img_c = &mut img[c * g.h * g.w..(c + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let (lo, hi, s) = valid_cols(g, kj);
                let row = (c * g.kh + ki) * g.kw + kj;
                let col_row = &col[row * cols..(row + 1) * cols];
                for (oi, src) in col_row.chunks_exact(ow).enumerate() {
                    let ii = (oi * g.stride + ki).wrapping_sub(g.pad);
                    if ii >= g.h {
                        continue;
                    }
                    let dst = &mut img_c[ii * g.w + s..(ii + 1) * g.w];
                    if g.stride == 1 {
                        for (d, &v) in dst.iter_mut().zip(&src[lo..hi]) {
                            *d += v;
                        }
                    } else {
                        for (j, &v) in src[lo..hi].iter().enumerate() {
                            dst[j * g.stride] += v;
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-channel sums and batch norm
// ---------------------------------------------------------------------------

/// `emit(c, init + Σ term(c, i))` for every channel `c` of `[n, ch,
/// plane]`, each sum folded in (sample, position) order. Eight
/// channels' chains advance together in the inner loop, so independent
/// adds overlap instead of each waiting on the last; channels past the
/// last full eight are summed one at a time.
pub fn channel_sums(dims: [usize; 3], init: f32, term: ChannelTerm, emit: impl FnMut(usize, f32)) {
    channel_sums_from(dims, 0, init, term, emit)
}

/// [`channel_sums`] for channels `from..` only.
pub(super) fn channel_sums_from(
    dims: [usize; 3],
    from: usize,
    init: f32,
    term: ChannelTerm,
    emit: impl FnMut(usize, f32),
) {
    // One match per call: each arm folds with its own term in line.
    match term {
        ChannelTerm::Value(x) => fold_channels(dims, from, init, |_, i| x[i], emit),
        ChannelTerm::SqDev(x, mean) => {
            let sq = |c: usize, i: usize| {
                let d = x[i] - mean[c];
                d * d
            };
            fold_channels(dims, from, init, sq, emit)
        }
        ChannelTerm::Product(a, b) => fold_channels(dims, from, init, |_, i| a[i] * b[i], emit),
    }
}

#[inline(always)]
fn fold_channels(
    dims: [usize; 3],
    from: usize,
    init: f32,
    term: impl Fn(usize, usize) -> f32,
    mut emit: impl FnMut(usize, f32),
) {
    let full = from + (dims[1] - from) / 8 * 8;
    for c0 in (from..full).step_by(8) {
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

/// Batch norm's normalize pass over `[n, ch, plane]`: with
/// `(mean, std)` and `(γ, β)` per channel, `x̂ = (x − mean) / std` and
/// `out = γ·x̂ + β`, each plane one slice loop, *appended* to `out`
/// (which is never zero-filled first); `xhat`, when given, receives
/// `x̂`. Written once: the AVX2 backend compiles this same body again at
/// its width.
#[inline(always)]
pub fn bn_normalize(
    dims: [usize; 3],
    x: &[f32],
    (mean, std): (&[f32], &[f32]),
    (gamma, beta): (&[f32], &[f32]),
    mut xhat: Option<&mut [f32]>,
    out: &mut Vec<f32>,
) {
    let [n, ch, plane] = dims;
    let (start, len) = (out.len(), n * ch * plane);
    out.reserve(len);
    let dst = &mut out.spare_capacity_mut()[..len];
    for p in 0..n * ch {
        let c = p % ch;
        let (mean, std, g, b) = (mean[c], std[c], gamma[c], beta[c]);
        let span = p * plane..(p + 1) * plane;
        let (xs, outs) = (&x[span.clone()], &mut dst[span.clone()]);
        if let Some(xhat) = xhat.as_deref_mut() {
            for ((o, xh), &v) in outs.iter_mut().zip(&mut xhat[span]).zip(xs) {
                let xn = (v - mean) / std;
                *xh = xn;
                o.write(g * xn + b);
            }
        } else {
            for (o, &v) in outs.iter_mut().zip(xs) {
                o.write(g * ((v - mean) / std) + b);
            }
        }
    }
    // SAFETY: the planes above wrote all `len` floats past `start`.
    unsafe { out.set_len(start + len) }
}

/// Batch norm's input gradient over `[n, ch, plane]`, from `(γ, std)`
/// and the sums `(Σdy, Σdy·x̂)` per channel: with `m = n·plane`,
/// `dx = γ/std · (dy − Σdy/m − x̂·Σdy·x̂/m)`, each plane one slice loop,
/// appended to `dx`. Written once, like [`bn_normalize`].
#[inline(always)]
pub fn bn_input_grad(
    dims: [usize; 3],
    (dy, xhat): (&[f32], &[f32]),
    (gamma, std): (&[f32], &[f32]),
    (sum_dy, sum_dy_xhat): (&[f32], &[f32]),
    dx: &mut Vec<f32>,
) {
    let [n, ch, plane] = dims;
    let m = (n * plane) as f32;
    let (start, len) = (dx.len(), n * ch * plane);
    dx.reserve(len);
    let dst = &mut dx.spare_capacity_mut()[..len];
    for p in 0..n * ch {
        let c = p % ch;
        let scale = gamma[c] / std[c];
        let (mean_dy, mean_dy_xhat) = (sum_dy[c] / m, sum_dy_xhat[c] / m);
        let span = p * plane..(p + 1) * plane;
        let (dxs, dys, xhats) = (&mut dst[span.clone()], &dy[span.clone()], &xhat[span]);
        for ((d, &g), &xh) in dxs.iter_mut().zip(dys).zip(xhats) {
            d.write(scale * (g - mean_dy - xh * mean_dy_xhat));
        }
    }
    // SAFETY: the planes above wrote all `len` floats past `start`.
    unsafe { dx.set_len(start + len) }
}
