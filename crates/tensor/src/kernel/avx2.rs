//! Hand-written AVX2 implementations of the kernel primitives other than
//! the GEMMs, whose packed core (`super::gemm`) is written once for both
//! vector widths. Both backends run these bodies.
//!
//! Every function here, and the GEMM core, is constrained by the
//! bit-identity contract in the [`super`] module docs: it must produce
//! exactly the bytes the matching [`super::scalar`] function produces,
//! for every input including `±0.0`, `NaN`, and `±inf` (up to NaN
//! payloads in `dot` and the GEMMs, as the contract spells out). The
//! techniques that make that possible:
//!
//! * **No FMA.** `_mm256_fmadd_ps` rounds once where `mul` + `add`
//!   rounds twice; we always use the two-instruction form because the
//!   scalar reference does.
//! * **Vectorize across independent outputs only.** Elementwise kernels
//!   and the ikj-order GEMMs touch 8 (or, at zmm width, 16) unrelated
//!   output elements per vector op, so per-element operation order is
//!   unchanged.
//! * **The transpose trick for GEMM-NT.** A dot product is a true
//!   reduction, so instead of reassociating one dot we compute one output
//!   column per lane: B is transposed (8×8 in registers) into the
//!   packed panel, then `a[p]` is broadcast per `p`. Each lane
//!   accumulates its column in strictly sequential `p` order — the same
//!   order as one scalar dot.
//! * **The same transpose for per-channel sums.** `channel_sums` folds
//!   each channel in (sample, position) order; an 8×8 transpose of eight
//!   channels' planes puts channel `c0 + j` in lane `j`, so each lane's
//!   adds are exactly its channel's scalar chain.
//! * **Preserved zero-skips.** The GEMM `av == 0.0` skip (by walking a
//!   list of the non-zero positions), the 2-bit decoder's "no write for
//!   code 0" and `col2im`'s wrapped padding taps (both by blend) are
//!   kept: `c + 0.0` is not a bitwise no-op when `c` is `-0.0`.
//! * **One source, compiled twice.** Batch norm's normalize and
//!   input-gradient passes are the scalar reference's slice loops,
//!   `#[inline(always)]` into an `avx2` function: the compiler
//!   vectorizes the same operations in the same order, and Rust never
//!   contracts a `mul` + `add` into an FMA.
//! * **Ordered-quiet compares.** `_CMP_GE_OQ`/`_CMP_LE_OQ` return false
//!   for NaN, matching scalar `>=`/`<=`; `_mm256_max_ps(x, acc)` keeps
//!   `acc` when `x` is NaN, matching `f32::max`'s NaN-skipping fold.
//!
//! # Safety
//! Every function is `unsafe` and requires the caller to have verified
//! AVX2 support (the dispatcher in [`super`] does, once, through a
//! `OnceLock`). Slice length preconditions are `debug_assert`ed to
//! mirror the scalar reference.
#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;
use std::ops::Range;

use super::gemm::transpose8;
use super::ChannelTerm;
use crate::Conv2dGeom;

/// 8-lane block count helper: the largest multiple of `w` ≤ `n`.
#[inline(always)]
fn blocks(n: usize, w: usize) -> usize {
    n - n % w
}

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

/// `y[i] += alpha * x[i]` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let n8 = blocks(y.len(), 8);
    let va = _mm256_set1_ps(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let vy = _mm256_loadu_ps(yp.add(i));
        let vx = _mm256_loadu_ps(xp.add(i));
        _mm256_storeu_ps(yp.add(i), _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
        i += 8;
    }
    for i in n8..y.len() {
        y[i] += alpha * x[i];
    }
}

/// `y[i] *= s` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn scale(y: &mut [f32], s: f32) {
    let n8 = blocks(y.len(), 8);
    let vs = _mm256_set1_ps(s);
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i < n8 {
        _mm256_storeu_ps(yp.add(i), _mm256_mul_ps(_mm256_loadu_ps(yp.add(i)), vs));
        i += 8;
    }
    for v in &mut y[n8..] {
        *v *= s;
    }
}

/// `y[i] += x[i]` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn add_assign(y: &mut [f32], x: &[f32]) {
    debug_assert_eq!(x.len(), y.len());
    let n8 = blocks(y.len(), 8);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let s = _mm256_add_ps(_mm256_loadu_ps(yp.add(i)), _mm256_loadu_ps(xp.add(i)));
        _mm256_storeu_ps(yp.add(i), s);
        i += 8;
    }
    for i in n8..y.len() {
        y[i] += x[i];
    }
}

/// `y[i] += b` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn add_scalar(y: &mut [f32], b: f32) {
    let n8 = blocks(y.len(), 8);
    let vb = _mm256_set1_ps(b);
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i < n8 {
        _mm256_storeu_ps(yp.add(i), _mm256_add_ps(_mm256_loadu_ps(yp.add(i)), vb));
        i += 8;
    }
    for v in &mut y[n8..] {
        *v += b;
    }
}

/// `out[i] = a[i] + b[i]` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn add_into(out: &mut [f32], a: &[f32], b: &[f32]) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(out.len(), b.len());
    let n8 = blocks(out.len(), 8);
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let s = _mm256_add_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
        _mm256_storeu_ps(op.add(i), s);
        i += 8;
    }
    for i in n8..out.len() {
        out[i] = a[i] + b[i];
    }
}

/// `out[i] = a[i] + alpha * b[i]` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn scale_add(out: &mut [f32], a: &[f32], alpha: f32, b: &[f32]) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(out.len(), b.len());
    let n8 = blocks(out.len(), 8);
    let va = _mm256_set1_ps(alpha);
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let s = _mm256_add_ps(
            _mm256_loadu_ps(ap.add(i)),
            _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(i))),
        );
        _mm256_storeu_ps(op.add(i), s);
        i += 8;
    }
    for i in n8..out.len() {
        out[i] = a[i] + alpha * b[i];
    }
}

/// `out[i] = w[i] - step * g[i]` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn sgd_step(out: &mut [f32], w: &[f32], g: &[f32], step: f32) {
    debug_assert_eq!(out.len(), w.len());
    debug_assert_eq!(out.len(), g.len());
    let n8 = blocks(out.len(), 8);
    let vs = _mm256_set1_ps(step);
    let (wp, gp, op) = (w.as_ptr(), g.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let d = _mm256_sub_ps(
            _mm256_loadu_ps(wp.add(i)),
            _mm256_mul_ps(vs, _mm256_loadu_ps(gp.add(i))),
        );
        _mm256_storeu_ps(op.add(i), d);
        i += 8;
    }
    for i in n8..out.len() {
        out[i] = w[i] - step * g[i];
    }
}

/// `v[i] = mu * v[i] + g[i]` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn decay_add(v: &mut [f32], mu: f32, g: &[f32]) {
    debug_assert_eq!(v.len(), g.len());
    let n8 = blocks(v.len(), 8);
    let vm = _mm256_set1_ps(mu);
    let (vp, gp) = (v.as_mut_ptr(), g.as_ptr());
    let mut i = 0;
    while i < n8 {
        let s = _mm256_add_ps(
            _mm256_mul_ps(vm, _mm256_loadu_ps(vp.add(i))),
            _mm256_loadu_ps(gp.add(i)),
        );
        _mm256_storeu_ps(vp.add(i), s);
        i += 8;
    }
    for i in n8..v.len() {
        v[i] = mu * v[i] + g[i];
    }
}

/// `out[i] = w[i] - step * (g[i] + mu * v[i])` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn nesterov_step(out: &mut [f32], w: &[f32], g: &[f32], v: &[f32], step: f32, mu: f32) {
    debug_assert_eq!(out.len(), w.len());
    debug_assert_eq!(out.len(), g.len());
    debug_assert_eq!(out.len(), v.len());
    let n8 = blocks(out.len(), 8);
    let vs = _mm256_set1_ps(step);
    let vm = _mm256_set1_ps(mu);
    let (wp, gp, vp, op) = (w.as_ptr(), g.as_ptr(), v.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let look = _mm256_add_ps(
            _mm256_loadu_ps(gp.add(i)),
            _mm256_mul_ps(vm, _mm256_loadu_ps(vp.add(i))),
        );
        let d = _mm256_sub_ps(_mm256_loadu_ps(wp.add(i)), _mm256_mul_ps(vs, look));
        _mm256_storeu_ps(op.add(i), d);
        i += 8;
    }
    for i in n8..out.len() {
        out[i] = w[i] - step * (g[i] + mu * v[i]);
    }
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Striped-order dot product (AVX2) — bit-identical to
/// [`super::scalar::dot`] by construction: one vector accumulator is
/// exactly the scalar reference's 8 stripe accumulators, combined with
/// the same pairwise tree, then the same sequential tail.
#[target_feature(enable = "avx2")]
pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n8 = blocks(a.len(), 8);
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut vacc = _mm256_setzero_ps();
    let mut i = 0;
    while i < n8 {
        let prod = _mm256_mul_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
        vacc = _mm256_add_ps(vacc, prod);
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), vacc);
    let mut acc = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for i in n8..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// `max(|x[i]|)` (AVX2). Order-independent once `abs` has collapsed
/// `-0.0` to `+0.0`, and `_mm256_max_ps(v, acc)` drops NaN lanes just
/// like the scalar `f32::max` fold, so the result is bit-identical to
/// [`super::scalar::reduce_max_abs`].
#[target_feature(enable = "avx2")]
pub unsafe fn reduce_max_abs(x: &[f32]) -> f32 {
    let n8 = blocks(x.len(), 8);
    let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
    let xp = x.as_ptr();
    let mut vm = _mm256_setzero_ps();
    let mut i = 0;
    while i < n8 {
        let va = _mm256_and_ps(_mm256_loadu_ps(xp.add(i)), absmask);
        // Operand order matters: max_ps returns the *second* operand
        // when the first is NaN, so a NaN in `va` keeps the running max.
        vm = _mm256_max_ps(va, vm);
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), vm);
    let mut m = lanes.iter().fold(0.0f32, |m, &v| m.max(v));
    for &v in &x[n8..] {
        m = m.max(v.abs());
    }
    m
}

// ---------------------------------------------------------------------------
// Bit-packing
// ---------------------------------------------------------------------------

/// Pack 2-bit symbols four per byte (AVX2): 32 symbols per iteration.
/// `maddubs` folds adjacent pairs as `s0 + 4·s1`, `madd` folds the i16
/// pairs as `lo + 16·hi`, leaving one packed byte per i32 lane; a
/// byte-shuffle then narrows 8 lanes to 8 bytes.
#[target_feature(enable = "avx2")]
pub unsafe fn pack_2bit(symbols: &[u8], out: &mut [u8]) {
    debug_assert_eq!(out.len(), symbols.len().div_ceil(4));
    let n32 = blocks(symbols.len(), 32);
    let sp = symbols.as_ptr();
    let pair_w = _mm256_set1_epi16(0x0401); // bytes [1, 4] per pair
    let quad_w = _mm256_set1_epi32(0x0010_0001); // i16 [1, 16] per quad
                                                 // Within each 128-bit lane, gather byte 0 of each dword to the front.
    let narrow = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    );
    let mut i = 0;
    while i < n32 {
        let v = _mm256_loadu_si256(sp.add(i) as *const __m256i);
        let v = _mm256_and_si256(v, _mm256_set1_epi8(0b11)); // match scalar `s & 0b11`
        let pairs = _mm256_maddubs_epi16(v, pair_w);
        let quads = _mm256_madd_epi16(pairs, quad_w);
        let packed = _mm256_shuffle_epi8(quads, narrow);
        let lo = _mm_cvtsi128_si32(_mm256_castsi256_si128(packed)) as u32;
        let hi = _mm_cvtsi128_si32(_mm256_extracti128_si256::<1>(packed)) as u32;
        out[i / 4..i / 4 + 4].copy_from_slice(&lo.to_le_bytes());
        out[i / 4 + 4..i / 4 + 8].copy_from_slice(&hi.to_le_bytes());
        i += 32;
    }
    // Tail: delegate to the scalar bit loop over the remaining symbols.
    let done_bytes = n32 / 4;
    for b in &mut out[done_bytes..] {
        *b = 0;
    }
    for (idx, &s) in symbols[n32..].iter().enumerate() {
        let i = n32 + idx;
        out[i / 4] |= (s & 0b11) << (2 * (i % 4));
    }
}

/// Unpack 2-bit symbols (AVX2): 8 packed bytes → 32 symbol bytes per
/// iteration. Each source byte is widened to a dword, replicated across
/// its four bytes, then per-byte masked shifts extract the four codes.
#[target_feature(enable = "avx2")]
pub unsafe fn unpack_2bit(bytes: &[u8], out: &mut [u8]) {
    debug_assert!(bytes.len() * 4 >= out.len());
    let n32 = blocks(out.len(), 32);
    let op = out.as_mut_ptr();
    let rep_w = _mm256_set1_epi32(0x0101_0101);
    let m0 = _mm256_set1_epi32(0x0000_0003);
    let m1 = _mm256_set1_epi32(0x0000_0300);
    let m2 = _mm256_set1_epi32(0x0003_0000);
    let m3 = _mm256_set1_epi32(0x0300_0000);
    let mut i = 0;
    while i < n32 {
        let src = _mm_loadl_epi64(bytes.as_ptr().add(i / 4) as *const __m128i);
        let vd = _mm256_cvtepu8_epi32(src);
        let rep = _mm256_mullo_epi32(vd, rep_w);
        let s = _mm256_or_si256(
            _mm256_or_si256(
                _mm256_and_si256(rep, m0),
                _mm256_and_si256(_mm256_srli_epi32::<2>(rep), m1),
            ),
            _mm256_or_si256(
                _mm256_and_si256(_mm256_srli_epi32::<4>(rep), m2),
                _mm256_and_si256(_mm256_srli_epi32::<6>(rep), m3),
            ),
        );
        _mm256_storeu_si256(op.add(i) as *mut __m256i, s);
        i += 32;
    }
    for (idx, o) in out[n32..].iter_mut().enumerate() {
        let i = n32 + idx;
        *o = (bytes[i / 4] >> (2 * (i % 4))) & 0b11;
    }
}

/// Pack booleans eight per byte (AVX2): 32 bools → one `movemask` → 4
/// output bytes per iteration.
#[target_feature(enable = "avx2")]
pub unsafe fn pack_1bit(bits: &[bool], out: &mut [u8]) {
    debug_assert_eq!(out.len(), bits.len().div_ceil(8));
    let n32 = blocks(bits.len(), 32);
    let bp = bits.as_ptr() as *const u8;
    let zero = _mm256_setzero_si256();
    let mut i = 0;
    while i < n32 {
        let v = _mm256_loadu_si256(bp.add(i) as *const __m256i);
        let m = _mm256_movemask_epi8(_mm256_cmpgt_epi8(v, zero)) as u32;
        out[i / 8..i / 8 + 4].copy_from_slice(&m.to_le_bytes());
        i += 32;
    }
    let done_bytes = n32 / 8;
    for b in &mut out[done_bytes..] {
        *b = 0;
    }
    for (idx, &bit) in bits[n32..].iter().enumerate() {
        let i = n32 + idx;
        if bit {
            out[i / 8] |= 1 << (i % 8);
        }
    }
}

/// Unpack booleans (AVX2): 4 packed bytes → 32 bool bytes per
/// iteration via byte replication + per-byte bit test.
#[target_feature(enable = "avx2")]
pub unsafe fn unpack_1bit(bytes: &[u8], out: &mut [bool]) {
    debug_assert!(bytes.len() * 8 >= out.len());
    let n32 = blocks(out.len(), 32);
    let op = out.as_mut_ptr() as *mut u8;
    // Replicate source byte j across output bytes 8j..8j+7. set1_epi32
    // puts the same 4 source bytes in every 128-bit lane, so lane-local
    // shuffle indices 0..3 reach all of them.
    let spread = _mm256_setr_epi8(
        0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, //
        2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3,
    );
    let bitsel = _mm256_set1_epi64x(0x8040_2010_0804_0201u64 as i64);
    let one = _mm256_set1_epi8(1);
    let mut i = 0;
    while i < n32 {
        let w = u32::from_le_bytes([
            bytes[i / 8],
            bytes[i / 8 + 1],
            bytes[i / 8 + 2],
            bytes[i / 8 + 3],
        ]);
        let rep = _mm256_shuffle_epi8(_mm256_set1_epi32(w as i32), spread);
        let hit = _mm256_cmpeq_epi8(_mm256_and_si256(rep, bitsel), bitsel);
        _mm256_storeu_si256(op.add(i) as *mut __m256i, _mm256_and_si256(hit, one));
        i += 32;
    }
    for (idx, o) in out[n32..].iter_mut().enumerate() {
        let i = n32 + idx;
        *o = (bytes[i / 8] >> (i % 8)) & 1 == 1;
    }
}

// ---------------------------------------------------------------------------
// Quantizer scans
// ---------------------------------------------------------------------------

/// Body of the symbol-emitting 2-bit threshold scan: given the
/// corrected vector `x`, emit `q`, store `x - q` through `res_out`, and
/// write symbols from the two compare masks.
#[target_feature(enable = "avx2")]
unsafe fn threshold_core(
    x: __m256,
    vthr: __m256,
    vnthr: __m256,
    res_out: *mut f32,
    symbols: &mut [u8],
) {
    let mpos = _mm256_cmp_ps::<_CMP_GE_OQ>(x, vthr);
    let mneg = _mm256_cmp_ps::<_CMP_LE_OQ>(x, vnthr);
    let q = _mm256_or_ps(_mm256_and_ps(mpos, vthr), _mm256_and_ps(mneg, vnthr));
    _mm256_storeu_ps(res_out, _mm256_sub_ps(x, q));
    let m1 = _mm256_movemask_ps(mpos) as u32;
    let m2 = _mm256_movemask_ps(mneg) as u32;
    for (l, s) in symbols.iter_mut().enumerate() {
        *s = (((m1 >> l) & 1) | (((m2 >> l) & 1) << 1)) as u8;
    }
}

/// [`super::scalar::threshold_scan_store`] (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn threshold_scan_store(
    corrected: &[f32],
    thr: f32,
    symbols: &mut [u8],
    res: &mut [f32],
) {
    debug_assert_eq!(corrected.len(), symbols.len());
    debug_assert_eq!(corrected.len(), res.len());
    let n8 = blocks(corrected.len(), 8);
    let vthr = _mm256_set1_ps(thr);
    let vnthr = _mm256_set1_ps(-thr);
    let (cp, rp) = (corrected.as_ptr(), res.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let x = _mm256_loadu_ps(cp.add(i));
        threshold_core(x, vthr, vnthr, rp.add(i), &mut symbols[i..i + 8]);
        i += 8;
    }
    if n8 < corrected.len() {
        super::scalar::threshold_scan_store(
            &corrected[n8..],
            thr,
            &mut symbols[n8..],
            &mut res[n8..],
        );
    }
}

/// [`super::scalar::quantize_2bit`] (AVX2): eight elements per
/// iteration. The two compare masks come out as 8-bit movemasks; a
/// Morton spread moves bit `l` of each to bit `2l`, so `pos | neg << 1`
/// is the eight 2-bit symbols in wire order — two packed bytes, stored
/// directly.
#[target_feature(enable = "avx2")]
pub unsafe fn quantize_2bit(
    grad: &[f32],
    thr: f32,
    mut res: Option<&mut [f32]>,
    packed: &mut [u8],
) {
    debug_assert_eq!(packed.len(), grad.len().div_ceil(4));
    debug_assert!(res.as_ref().is_none_or(|r| r.len() == grad.len()));
    let n8 = blocks(grad.len(), 8);
    let vthr = _mm256_set1_ps(thr);
    let vnthr = _mm256_set1_ps(-thr);
    let gp = grad.as_ptr();
    let rp = res.as_deref_mut().map(<[f32]>::as_mut_ptr);
    let mut i = 0;
    while i < n8 {
        // SAFETY: `i + 8 <= n8 <= grad.len()`, and `res`, when given, is
        // as long as `grad` and exclusively borrowed for this call.
        let mut x = _mm256_loadu_ps(gp.add(i));
        if let Some(rp) = rp {
            x = _mm256_add_ps(x, _mm256_loadu_ps(rp.add(i)));
        }
        let mpos = _mm256_cmp_ps::<_CMP_GE_OQ>(x, vthr);
        let mneg = _mm256_cmp_ps::<_CMP_LE_OQ>(x, vnthr);
        if let Some(rp) = rp {
            let q = _mm256_or_ps(_mm256_and_ps(mpos, vthr), _mm256_and_ps(mneg, vnthr));
            _mm256_storeu_ps(rp.add(i), _mm256_sub_ps(x, q));
        }
        let m = _mm256_movemask_ps(mpos) as u32 | (_mm256_movemask_ps(mneg) as u32) << 16;
        let m = (m | m << 4) & 0x0F0F_0F0F;
        let m = (m | m << 2) & 0x3333_3333;
        let m = (m | m << 1) & 0x5555_5555;
        let codes = (m & 0xFFFF) | (m >> 16) << 1;
        packed[i / 4..i / 4 + 2].copy_from_slice(&(codes as u16).to_le_bytes());
        i += 8;
    }
    if n8 < grad.len() {
        // `n8` is a multiple of 4: the tail starts on a byte boundary.
        let res = res.map(|r| &mut r[n8..]);
        super::scalar::quantize_2bit(&grad[n8..], thr, res, &mut packed[n8 / 4..]);
    }
}

/// [`super::scalar::sign_residual`] (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn sign_residual(corrected: &[f32], scale: f32, bits: &mut [bool], res: &mut [f32]) {
    debug_assert_eq!(corrected.len(), bits.len());
    debug_assert_eq!(corrected.len(), res.len());
    let n8 = blocks(corrected.len(), 8);
    let vpos = _mm256_set1_ps(scale);
    let vneg = _mm256_set1_ps(-scale);
    let zero = _mm256_setzero_ps();
    let (cp, rp) = (corrected.as_ptr(), res.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let x = _mm256_loadu_ps(cp.add(i));
        let mpos = _mm256_cmp_ps::<_CMP_GE_OQ>(x, zero);
        let q = _mm256_blendv_ps(vneg, vpos, mpos);
        _mm256_storeu_ps(rp.add(i), _mm256_sub_ps(x, q));
        let m = _mm256_movemask_ps(mpos) as u32;
        for (l, bit) in bits[i..i + 8].iter_mut().enumerate() {
            *bit = (m >> l) & 1 == 1;
        }
        i += 8;
    }
    if n8 < corrected.len() {
        super::scalar::sign_residual(&corrected[n8..], scale, &mut bits[n8..], &mut res[n8..]);
    }
}

// ---------------------------------------------------------------------------
// Decode-accumulate
// ---------------------------------------------------------------------------

/// [`super::scalar::unpack_2bit_add`] (AVX2). The "no write for code 0"
/// rule is kept with a blend: untouched lanes get their original
/// accumulator bits back, never `acc + 0.0`.
#[target_feature(enable = "avx2")]
pub unsafe fn unpack_2bit_add(packed: &[u8], thr: f32, out: &mut [f32]) {
    unpack_2bit_acc::<false>(packed, thr, out)
}

/// [`super::scalar::unpack_2bit_store`] (AVX2): the same lanes over an
/// accumulator of `+0.0` that is never loaded.
#[target_feature(enable = "avx2")]
pub unsafe fn unpack_2bit_store(packed: &[u8], thr: f32, out: &mut [f32]) {
    unpack_2bit_acc::<true>(packed, thr, out)
}

/// 2-bit decode into `out`'s contents, or (`STORE`) into `+0.0`. A
/// lane's code is the low two bits of its shifted word, which is all
/// `vpermilps` reads of a control element: one permute looks the addend
/// up in `[0, thr, -thr, 0]`, a second the "touched" blend mask.
#[target_feature(enable = "avx2")]
unsafe fn unpack_2bit_acc<const STORE: bool>(packed: &[u8], thr: f32, out: &mut [f32]) {
    debug_assert!(packed.len() * 4 >= out.len());
    let n8 = blocks(out.len(), 8);
    let addends = _mm256_setr_ps(0.0, thr, -thr, 0.0, 0.0, thr, -thr, 0.0);
    let touches = _mm256_castsi256_ps(_mm256_setr_epi32(0, -1, -1, 0, 0, -1, -1, 0));
    let shifts = _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14);
    let op = out.as_mut_ptr();
    let mut i = 0;
    while i < n8 {
        let w = (packed[i / 4] as u32 | (packed[i / 4 + 1] as u32) << 8) as i32;
        let codes = _mm256_srlv_epi32(_mm256_set1_epi32(w), shifts);
        let addend = _mm256_permutevar_ps(addends, codes);
        if STORE {
            _mm256_storeu_ps(op.add(i), _mm256_add_ps(_mm256_setzero_ps(), addend));
        } else {
            let cur = _mm256_loadu_ps(op.add(i));
            let sum = _mm256_add_ps(cur, addend);
            let touched = _mm256_permutevar_ps(touches, codes);
            _mm256_storeu_ps(op.add(i), _mm256_blendv_ps(cur, sum, touched));
        }
        i += 8;
    }
    // The scalar twins re-derive their byte offsets from the element
    // index; `n8` is a multiple of 4, so the tail starts on a byte.
    if STORE {
        super::scalar::unpack_2bit_store(&packed[n8 / 4..], thr, &mut out[n8..]);
    } else {
        super::scalar::unpack_2bit_add(&packed[n8 / 4..], thr, &mut out[n8..]);
    }
}

/// [`super::scalar::unpack_1bit_add`] (AVX2). Every lane is touched
/// (`±scale`), matching the scalar decoder.
#[target_feature(enable = "avx2")]
pub unsafe fn unpack_1bit_add(signs: &[u8], scale: f32, out: &mut [f32]) {
    unpack_1bit_acc::<false>(signs, scale, out)
}

/// [`super::scalar::unpack_1bit_store`] (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn unpack_1bit_store(signs: &[u8], scale: f32, out: &mut [f32]) {
    unpack_1bit_acc::<true>(signs, scale, out)
}

/// 1-bit decode into `out`'s contents, or (`STORE`) into `+0.0`.
#[target_feature(enable = "avx2")]
unsafe fn unpack_1bit_acc<const STORE: bool>(signs: &[u8], scale: f32, out: &mut [f32]) {
    debug_assert!(signs.len() * 8 >= out.len());
    let n8 = blocks(out.len(), 8);
    let vpos = _mm256_set1_ps(scale);
    let vneg = _mm256_set1_ps(-scale);
    let shifts = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let one = _mm256_set1_epi32(1);
    let op = out.as_mut_ptr();
    let mut i = 0;
    while i < n8 {
        let b = _mm256_set1_epi32(signs[i / 8] as i32);
        let hit = _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_srlv_epi32(b, shifts), one), one);
        let addend = _mm256_blendv_ps(vneg, vpos, _mm256_castsi256_ps(hit));
        let cur = if STORE {
            _mm256_setzero_ps()
        } else {
            _mm256_loadu_ps(op.add(i))
        };
        _mm256_storeu_ps(op.add(i), _mm256_add_ps(cur, addend));
        i += 8;
    }
    if STORE {
        super::scalar::unpack_1bit_store(&signs[n8 / 8..], scale, &mut out[n8..]);
    } else {
        super::scalar::unpack_1bit_add(&signs[n8 / 8..], scale, &mut out[n8..]);
    }
}

// ---------------------------------------------------------------------------
// Convolution unrolls, per-channel sums and batch norm
// ---------------------------------------------------------------------------

/// Row `(ki, kj)` of a size-keeping, stride-1 geometry (`shifts_planes`
/// in [`super`]) as one shifted plane: output position `o` of the row
/// reads image position `o + shift`; the positions `o` in `inside` land
/// inside the image plane; and the output columns `oj` in `cols` are the
/// ones whose tap `oj + kj − pad` did not wrap into a neighbouring image
/// row. The size-keeping geometry makes `|kj − pad| < w` and
/// `|shift| < h·w`, so neither range is ever empty.
fn plane_shift(g: &Conv2dGeom, ki: usize, kj: usize) -> (isize, Range<usize>, Range<usize>) {
    let (w, hw) = (g.w, g.h * g.w);
    let dx = kj as isize - g.pad as isize;
    let shift = (ki as isize - g.pad as isize) * w as isize + dx;
    let inside = shift.min(0).unsigned_abs()..hw - shift.max(0) as usize;
    let cols = dx.min(0).unsigned_abs()..w - dx.max(0) as usize;
    (shift, inside, cols)
}

/// Which lanes of a shifted-plane row are taps: lane `l` of the vector
/// at output position `o` is one when its column `(o + l) % w` lies in
/// `cols` (its tap did not wrap into a neighbouring image row).
#[derive(Clone, Copy)]
struct Taps {
    /// The current vector's lane columns.
    oj: __m256i,
    /// `8 % w` and `8 % w − w`: a column's two candidates one vector on.
    step: __m256i,
    step_back: __m256i,
    /// `cols.start − 1` and `cols.end`.
    lo: __m256i,
    hi: __m256i,
}

impl Taps {
    /// The lane columns of the first vector of row `(shift, inside, cols)`
    /// (from [`plane_shift`]).
    #[inline(always)]
    unsafe fn new(w: usize, shift: isize, cols: &Range<usize>) -> Self {
        let wv = _mm256_set1_epi32(w as i32);
        // `inside` starts at output column 0 — or, when the tap reaches
        // back, at `−shift mod w`: `pad − kj` left of the centre
        // (`cols.start`), `w − (kj − pad)` right of it (`cols.end`).
        let first = match (shift < 0, cols.start) {
            (false, _) => 0,
            (true, 0) => cols.end,
            (true, left) => left,
        };
        let mut oj = _mm256_add_epi32(
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            _mm256_set1_epi32(first as i32),
        );
        // `min_epu32(v, v − w)` wraps a column in `0..2w` back into `0..w`:
        // below `w`, `v − w` is a huge unsigned.
        for _ in 0..8usize.div_ceil(w) {
            oj = _mm256_min_epu32(oj, _mm256_sub_epi32(oj, wv));
        }
        let step = _mm256_set1_epi32((8 % w) as i32);
        Self {
            oj,
            step,
            step_back: _mm256_sub_epi32(step, wv),
            lo: _mm256_set1_epi32(cols.start as i32 - 1),
            hi: _mm256_set1_epi32(cols.end as i32),
        }
    }

    /// The current vector's tap mask (all ones per tap lane), moving on
    /// to the next vector. Both candidates of the next columns come from
    /// the current ones, so the carried chain is one add and one min.
    #[inline(always)]
    unsafe fn next(&mut self) -> __m256 {
        let (oj, lo, hi) = (self.oj, self.lo, self.hi);
        let kept = _mm256_and_si256(_mm256_cmpgt_epi32(oj, lo), _mm256_cmpgt_epi32(hi, oj));
        self.oj = _mm256_min_epu32(
            _mm256_add_epi32(oj, self.step),
            _mm256_add_epi32(oj, self.step_back),
        );
        _mm256_castsi256_ps(kept)
    }
}

/// [`super::scalar::im2col_into`] (AVX2) for a size-keeping, stride-1
/// geometry: each row of the column matrix is its shifted plane — one
/// copy when no column wraps, else a masked copy that writes `+0.0`
/// into the wrapped lanes — and `0.0` outside the image, every padding
/// tap the `0.0` the row path writes. The channel loop sits innermost,
/// so a row's shift and masks are set up once for every channel.
///
/// # Safety
/// AVX2 must be available; `g` must pass `shifts_planes` and the slices
/// have the sizes `kernel::im2col_into` asserts.
#[target_feature(enable = "avx2")]
pub unsafe fn im2col_planes(img: &[f32], g: &Conv2dGeom, dst: &mut [f32]) {
    let (w, hw) = (g.w, g.h * g.w);
    for ki in 0..g.kh {
        for kj in 0..g.kw {
            let (shift, inside, cols) = plane_shift(g, ki, kj);
            let from = inside.start.wrapping_add_signed(shift);
            let n8 = blocks(inside.len(), 8);
            let taps = Taps::new(w, shift, &cols);
            for (c, img_c) in img.chunks_exact(hw).enumerate() {
                let row = (c * g.kh + ki) * g.kw + kj;
                let out = &mut dst[row * hw..(row + 1) * hw];
                out[..inside.start].fill(0.0);
                out[inside.end..].fill(0.0);
                let (out, src) = (&mut out[inside.clone()], &img_c[from..from + inside.len()]);
                if cols.len() == w {
                    out.copy_from_slice(src);
                    continue;
                }
                let (op, sp) = (out.as_mut_ptr(), src.as_ptr());
                let mut taps = taps;
                let mut k = 0;
                while k < n8 {
                    _mm256_storeu_ps(
                        op.add(k),
                        _mm256_and_ps(_mm256_loadu_ps(sp.add(k)), taps.next()),
                    );
                    k += 8;
                }
                for k in n8..src.len() {
                    out[k] = if cols.contains(&((inside.start + k) % w)) {
                        src[k]
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// [`super::scalar::col2im`] (AVX2) for a size-keeping, stride-1
/// geometry: each row of the column matrix is one add into its shifted
/// plane, eight positions per vector. Lanes whose column wrapped are
/// padding taps, which the row path never adds: a blend gives them back
/// their old bits — never `+ 0.0`, which turns a `−0.0` into `+0.0`.
/// Each image element belongs to one channel and receives its taps in
/// the row path's `(ki, kj)` order, one add each, so the sums keep their
/// bits; the channel loop sits innermost so that a row's shift and masks
/// are set up once for every channel.
///
/// # Safety
/// AVX2 must be available; `g` must pass `shifts_planes` and the slices
/// have the sizes `kernel::col2im` asserts.
#[target_feature(enable = "avx2")]
pub unsafe fn col2im_planes(col: &[f32], g: &Conv2dGeom, img: &mut [f32]) {
    let (w, hw) = (g.w, g.h * g.w);
    for ki in 0..g.kh {
        for kj in 0..g.kw {
            let (shift, inside, cols) = plane_shift(g, ki, kj);
            let from = inside.start.wrapping_add_signed(shift);
            let n8 = blocks(inside.len(), 8);
            let taps = Taps::new(w, shift, &cols);
            for (c, img_c) in img.chunks_exact_mut(hw).enumerate() {
                let row = (c * g.kh + ki) * g.kw + kj;
                let dst = &mut img_c[from..from + inside.len()];
                let src = &col[row * hw + inside.start..row * hw + inside.end];
                let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
                let mut k = 0;
                if cols.len() == w {
                    // No column wraps: every lane is a tap.
                    while k < n8 {
                        let sum =
                            _mm256_add_ps(_mm256_loadu_ps(dp.add(k)), _mm256_loadu_ps(sp.add(k)));
                        _mm256_storeu_ps(dp.add(k), sum);
                        k += 8;
                    }
                } else {
                    let mut taps = taps;
                    while k < n8 {
                        let d = _mm256_loadu_ps(dp.add(k));
                        let sum = _mm256_add_ps(d, _mm256_loadu_ps(sp.add(k)));
                        _mm256_storeu_ps(dp.add(k), _mm256_blendv_ps(d, sum, taps.next()));
                        k += 8;
                    }
                }
                for k in n8..src.len() {
                    if cols.contains(&((inside.start + k) % w)) {
                        dst[k] += src[k];
                    }
                }
            }
        }
    }
}

/// [`super::scalar::channel_sums`] (AVX2), eight channels per vector.
/// Each step loads eight positions of eight channels' planes and
/// [`transpose8`] turns the tile into eight vectors whose lane `j` holds
/// channel `c0 + j`'s term at one position; adding them in position
/// order advances every lane's chain exactly as the reference advances
/// that channel's. A plane's last `plane % 8` positions are added lane
/// by lane in the same order, and channels past the last full eight take
/// the reference's one-channel chains.
#[target_feature(enable = "avx2")]
pub unsafe fn channel_sums(
    dims: [usize; 3],
    init: f32,
    term: ChannelTerm,
    mut emit: impl FnMut(usize, f32),
) {
    let [n, ch, plane] = dims;
    let (full, p8) = (blocks(ch, 8), blocks(plane, 8));
    for c0 in (0..full).step_by(8) {
        let mut acc = _mm256_set1_ps(init);
        for s in 0..n {
            let base = (s * ch + c0) * plane;
            for i in (base..base + p8).step_by(8) {
                for t in transpose8(term_rows(term, c0, i, plane)) {
                    acc = _mm256_add_ps(acc, t);
                }
            }
            if p8 < plane {
                let mut lanes = [0.0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
                for i in base + p8..base + plane {
                    for (j, l) in lanes.iter_mut().enumerate() {
                        *l += term.at(c0 + j, i + j * plane);
                    }
                }
                acc = _mm256_loadu_ps(lanes.as_ptr());
            }
        }
        let mut sums = [0.0f32; 8];
        _mm256_storeu_ps(sums.as_mut_ptr(), acc);
        for (j, &sum) in sums.iter().enumerate() {
            emit(c0 + j, sum);
        }
    }
    super::scalar::channel_sums_from(dims, full, init, term, emit)
}

/// Row `j` of a [`channel_sums`] tile: channel `c0 + j`'s terms at flat
/// indices `at + j·plane ..+ 8`, each computed with the reference's
/// operations. The caller's asserted slice sizes keep every load in
/// bounds.
#[inline(always)]
unsafe fn term_rows(term: ChannelTerm, c0: usize, at: usize, plane: usize) -> [__m256; 8] {
    let mut rows = [_mm256_setzero_ps(); 8];
    for (j, r) in rows.iter_mut().enumerate() {
        let i = at + j * plane;
        *r = match term {
            ChannelTerm::Value(x) => _mm256_loadu_ps(x.as_ptr().add(i)),
            ChannelTerm::SqDev(x, mean) => {
                let d = _mm256_sub_ps(
                    _mm256_loadu_ps(x.as_ptr().add(i)),
                    _mm256_set1_ps(mean[c0 + j]),
                );
                _mm256_mul_ps(d, d)
            }
            ChannelTerm::Product(a, b) => _mm256_mul_ps(
                _mm256_loadu_ps(a.as_ptr().add(i)),
                _mm256_loadu_ps(b.as_ptr().add(i)),
            ),
        };
    }
    rows
}

/// [`super::scalar::bn_normalize`], the same body compiled for AVX2: its
/// slice loops vectorize at ymm width with the same operations in the
/// same order (Rust never contracts `γ·x̂ + β` into an FMA).
#[target_feature(enable = "avx2")]
pub unsafe fn bn_normalize(
    dims: [usize; 3],
    x: &[f32],
    mean_std: (&[f32], &[f32]),
    gamma_beta: (&[f32], &[f32]),
    xhat: Option<&mut [f32]>,
    out: &mut Vec<f32>,
) {
    super::scalar::bn_normalize(dims, x, mean_std, gamma_beta, xhat, out)
}

/// [`super::scalar::bn_input_grad`], the same body compiled for AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn bn_input_grad(
    dims: [usize; 3],
    dy_xhat: (&[f32], &[f32]),
    gamma_std: (&[f32], &[f32]),
    sums: (&[f32], &[f32]),
    dx: &mut Vec<f32>,
) {
    super::scalar::bn_input_grad(dims, dy_xhat, gamma_std, sums, dx)
}
