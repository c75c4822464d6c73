//! The packed GEMM core, written once over a private lane trait and
//! instantiated at two vector widths: [`ymm`] (`__m256`, AVX2) and
//! [`zmm`] (`__m512`, AVX-512F). Everything below the two entry points
//! is `#[inline(always)]`, and no intrinsic sits in a closure (a closure
//! does not inherit its caller's target features), so each instance is
//! compiled whole inside its `#[target_feature]` entry and every
//! intrinsic inlines.
//!
//! The right-hand operand is copied — for NT, transposed — into a
//! `panel` of `KC` × `NB` floats (one k-slice of a column block: 16 KiB
//! at ymm width, 32 KiB at zmm width, L1 resident) that every output row
//! of the band then reuses; a row holds its `NB` outputs in eight vector
//! registers — eight independent add chains, enough to cover the add
//! latency without FMA — while it walks the panel in increasing `p`.
//! Slices are visited in increasing `p` too, so each output element sees
//! the scalar reference's operation order exactly. Around that core:
//!
//! * NN/TN (`ikj`, zero-skip, `C = A·B`): k-slice outermost, so B's rows
//!   `p0..p0+KC` are one contiguous region; column blocks inside. On the
//!   first slice a row's outputs start from `+0.0` in registers and C is
//!   only written; later slices re-load them. The zero-skip is a per-row
//!   *compaction*: the slice's non-zero positions are listed once and
//!   reused by every column block, so a ReLU-sparse row does half the
//!   work with no data-dependent branch in the hot loop; a row slice with
//!   no zeros walks the panel directly.
//! * NT (dot per output, no skip, `C += A·Bᵀ`): column block outermost,
//!   so `NB` rows of B are one contiguous region; a block's accumulators
//!   are carried across its k-slices in scratch and added to C once,
//!   after the last slice — `c += Σ_p a·b` from a `0.0` start, as the
//!   reference does.
//!
//! # Safety
//! [`ymm`] requires AVX2 and [`zmm`] AVX-512F (the dispatcher in
//! [`super`] checks, once); both take slices of the sizes the public
//! `kernel::gemm*` functions assert.
#![cfg(target_arch = "x86_64")]

use super::Layout;
use std::arch::x86_64::*;
use std::cell::Cell;
use std::mem::MaybeUninit;

/// One vector of f32 lanes: all the core knows about a width. `unsafe`
/// because the intrinsics need the width's target feature, which only
/// the entry points enable.
trait Lanes: Copy {
    /// f32 lanes per vector.
    const W: usize;
    /// Output columns per panel: eight accumulators per row.
    const NB: usize = 8 * Self::W;
    unsafe fn zero() -> Self;
    unsafe fn splat(x: *const f32) -> Self;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(p: *mut f32, v: Self);
    unsafe fn add(a: Self, b: Self) -> Self;
    unsafe fn mul(a: Self, b: Self) -> Self;
}

/// [`Lanes`] for one vector type, from its intrinsics.
macro_rules! lanes {
    ($v:ty, $w:expr, $zero:ident, $set1:ident, $load:ident, $store:ident, $add:ident, $mul:ident) => {
        impl Lanes for $v {
            const W: usize = $w;
            #[inline(always)]
            unsafe fn zero() -> Self {
                $zero()
            }
            #[inline(always)]
            unsafe fn splat(x: *const f32) -> Self {
                $set1(*x)
            }
            #[inline(always)]
            unsafe fn load(p: *const f32) -> Self {
                $load(p)
            }
            #[inline(always)]
            unsafe fn store(p: *mut f32, v: Self) {
                $store(p, v)
            }
            #[inline(always)]
            unsafe fn add(a: Self, b: Self) -> Self {
                $add(a, b)
            }
            #[inline(always)]
            unsafe fn mul(a: Self, b: Self) -> Self {
                $mul(a, b)
            }
        }
    };
}

lanes! { __m256, 8, _mm256_setzero_ps, _mm256_set1_ps, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_add_ps, _mm256_mul_ps }
lanes! { __m512, 16, _mm512_setzero_ps, _mm512_set1_ps, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_add_ps, _mm512_mul_ps }

/// The widest panel, zmm's: the scratch is sized for it, and it is the
/// smallest `n` the zmm instance fills without padding.
pub(super) const ZMM_NB: usize = <__m512 as Lanes>::NB;
/// `p` values per panel.
pub(super) const KC: usize = 64;
/// Output rows per band. Bounds the per-band scratch (transposed A slice,
/// non-zero lists, carried accumulators); a panel is packed once per
/// band, so its cost is spread over up to this many rows.
const MB: usize = 64;

/// `layout`'s product at ymm width.
///
/// # Safety
/// AVX2 must be available; slice sizes as `kernel::gemm*` assert them.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn ymm(l: Layout, a: &[f32], b: &[f32], c: &mut [f32], mkn: [usize; 3]) {
    product::<__m256>(l, a, b, c, mkn)
}

/// `layout`'s product at zmm width.
///
/// # Safety
/// AVX-512F must be available; slice sizes as `kernel::gemm*` assert them.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn zmm(l: Layout, a: &[f32], b: &[f32], c: &mut [f32], mkn: [usize; 3]) {
    product::<__m512>(l, a, b, c, mkn)
}

/// Per-thread GEMM scratch, shared by both widths, allocated on a
/// thread's first GEMM call and fully overwritten before every read
/// (≈ 88 KiB).
struct Scratch {
    /// The packed right-hand panel, `KC` rows of `NB` floats.
    panel: Vec<f32>,
    /// TN only: the band's slice of Aᵀ, `MB` rows of `KC` floats.
    a_t: Vec<f32>,
    /// Per band row, the slice-relative positions of its non-zeros.
    nz: Vec<u16>,
    /// Per band row, how many positions `nz` holds (`kc` = no zeros, the
    /// list is not written).
    nz_len: Vec<usize>,
    /// NT only: the accumulators carried between k-slices, `MB` × `NB`.
    carry: Vec<f32>,
}

thread_local! {
    /// Taken for the length of a call and put back after it, so the core
    /// runs in the entry point's body, not inside a `with` closure.
    static SCRATCH: Cell<Option<Scratch>> = const { Cell::new(None) };
}

/// Drop the calling thread's scratch; whether it had one, i.e. has run
/// a GEMM since the last call.
#[cfg(test)]
pub(super) fn take_scratch() -> bool {
    SCRATCH.take().is_some()
}

#[inline(always)]
unsafe fn product<L: Lanes>(l: Layout, a: &[f32], b: &[f32], c: &mut [f32], mkn: [usize; 3]) {
    debug_assert_eq!(c.len(), mkn[0] * mkn[2]);
    let mut s = SCRATCH.take().unwrap_or_else(|| Scratch {
        panel: vec![0.0; KC * ZMM_NB],
        a_t: vec![0.0; MB * KC],
        nz: vec![0; MB * KC],
        nz_len: vec![0; MB],
        carry: vec![0.0; MB * ZMM_NB],
    });
    match l {
        Layout::Nn => gemm_ikj::<L>(a, false, b, c, mkn, &mut s),
        Layout::Tn => gemm_ikj::<L>(a, true, b, c, mkn, &mut s),
        Layout::Nt => gemm_nt::<L>(a, b, c, mkn, &mut s),
    }
    SCRATCH.set(Some(s));
}

/// Accumulator vectors a block of `nb` columns is computed with: 1, 2,
/// 4 or 8, so the row cores exist in four widths, not eight. Columns
/// `nb..W·vectors(nb)` are zero in the panel and never stored.
#[inline(always)]
fn vectors<L: Lanes>(nb: usize) -> usize {
    nb.div_ceil(L::W).next_power_of_two()
}

/// `acc[v] += a[p] · panel[p][W·v..W·v+W]` for each `p` of `ps`, in the
/// order given: `0..kc` for a row slice with no zeros, its non-zero list
/// (increasing, so the surviving terms keep their order) otherwise.
#[inline(always)]
unsafe fn walk<L: Lanes, const NV: usize>(
    a: *const f32,
    ps: impl Iterator<Item = usize>,
    panel: *const f32,
    acc: &mut [L; NV],
) {
    for p in ps {
        let va = L::splat(a.add(p));
        let row = panel.add(p * L::NB);
        for (v, lane) in acc.iter_mut().enumerate() {
            *lane = L::add(*lane, L::mul(va, L::load(row.add(L::W * v))));
        }
    }
}

/// Load `nb` (≤ `W·NV`) floats at `c` into `NV` vectors; lanes past `nb`
/// read as `0.0` and are dropped again by [`store_tile`].
#[inline(always)]
unsafe fn load_tile<L: Lanes, const NV: usize>(c: *const f32, nb: usize) -> [L; NV] {
    let mut edge = MaybeUninit::<[f32; ZMM_NB]>::uninit();
    let mut src = c;
    if nb < L::W * NV {
        let e = edge.as_mut_ptr().cast::<f32>();
        std::ptr::write_bytes(e, 0, L::W * NV);
        std::ptr::copy_nonoverlapping(c, e, nb);
        src = e;
    }
    let mut tile = [L::zero(); NV];
    for (v, lane) in tile.iter_mut().enumerate() {
        *lane = L::load(src.add(L::W * v));
    }
    tile
}

/// Store the first `nb` floats of `tile` at `c`.
#[inline(always)]
unsafe fn store_tile<L: Lanes, const NV: usize>(c: *mut f32, nb: usize, tile: &[L; NV]) {
    let mut edge = MaybeUninit::<[f32; ZMM_NB]>::uninit();
    let partial = nb < L::W * NV;
    let dst = if partial {
        edge.as_mut_ptr().cast::<f32>()
    } else {
        c
    };
    for (v, lane) in tile.iter().enumerate() {
        L::store(dst.add(L::W * v), *lane);
    }
    if partial {
        std::ptr::copy_nonoverlapping(dst, c, nb);
    }
}

/// Pack `B[p0..p0+kc, j..j+nb]` (row stride `ldb`) into `panel`. A
/// partial block is zero-padded to [`vectors`]: those lanes are computed
/// and never stored, and must not hold stale subnormals or NaNs that
/// would slow the multiplies down.
#[inline(always)]
unsafe fn pack_rows<L: Lanes>(b: *const f32, ldb: usize, kc: usize, nb: usize, panel: *mut f32) {
    for p in 0..kc {
        let (src, dst) = (b.add(p * ldb), panel.add(p * L::NB));
        if nb == L::NB {
            for v in 0..8 {
                L::store(dst.add(L::W * v), L::load(src.add(L::W * v)));
            }
        } else {
            std::ptr::write_bytes(dst, 0, L::W * vectors::<L>(nb));
            std::ptr::copy_nonoverlapping(src, dst, nb);
        }
    }
}

/// Pack `B[j..j+nb, p0..p0+kc]ᵀ` (B row stride `ldb`) into `panel`:
/// `panel[p][u] = B[j+u][p0+p]`. Full 8×8 tiles go through
/// [`transpose8`] (ymm at either width), once per column block instead
/// of once per output row; the ragged edges are copied element by
/// element, zero-padded like [`pack_rows`].
#[inline(always)]
unsafe fn pack_cols<L: Lanes>(b: *const f32, ldb: usize, kc: usize, nb: usize, panel: *mut f32) {
    let (kc8, nb8) = (kc - kc % 8, nb - nb % 8);
    for u in (0..nb8).step_by(8) {
        for p in (0..kc8).step_by(8) {
            let src = b.add(u * ldb + p);
            let tile = transpose8([
                _mm256_loadu_ps(src),
                _mm256_loadu_ps(src.add(ldb)),
                _mm256_loadu_ps(src.add(2 * ldb)),
                _mm256_loadu_ps(src.add(3 * ldb)),
                _mm256_loadu_ps(src.add(4 * ldb)),
                _mm256_loadu_ps(src.add(5 * ldb)),
                _mm256_loadu_ps(src.add(6 * ldb)),
                _mm256_loadu_ps(src.add(7 * ldb)),
            ]);
            for (q, &t) in tile.iter().enumerate() {
                _mm256_storeu_ps(panel.add((p + q) * L::NB + u), t);
            }
        }
        for p in kc8..kc {
            for uu in u..u + 8 {
                *panel.add(p * L::NB + uu) = *b.add(uu * ldb + p);
            }
        }
    }
    let padded = L::W * vectors::<L>(nb);
    if nb8 < padded {
        for p in 0..kc {
            let dst = panel.add(p * L::NB + nb8);
            std::ptr::write_bytes(dst, 0, padded - nb8);
            for (uu, u) in (nb8..nb).enumerate() {
                *dst.add(uu) = *b.add(u * ldb + p);
            }
        }
    }
}

/// Transpose an 8×8 f32 tile held in registers: output `q` holds input
/// row elements at position `q` across lanes (`out[q]` lane `u` = `r[u]`
/// lane `q`).
#[inline(always)]
pub(super) unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    [
        _mm256_permute2f128_ps::<0x20>(u0, u4),
        _mm256_permute2f128_ps::<0x20>(u1, u5),
        _mm256_permute2f128_ps::<0x20>(u2, u6),
        _mm256_permute2f128_ps::<0x20>(u3, u7),
        _mm256_permute2f128_ps::<0x31>(u0, u4),
        _mm256_permute2f128_ps::<0x31>(u1, u5),
        _mm256_permute2f128_ps::<0x31>(u2, u6),
        _mm256_permute2f128_ps::<0x31>(u3, u7),
    ]
}

/// List the positions of the non-zeros of `a[..kc]` into `nz` (which
/// must hold `kc` entries) and return how many there are. A slice with
/// no zeros returns `kc` without writing the list — the common case on
/// dense operands costs one compare per 8 elements.
#[inline(always)]
unsafe fn list_nonzeros(a: *const f32, kc: usize, nz: *mut u16) -> usize {
    let zero = _mm256_setzero_ps();
    let kc8 = kc - kc % 8;
    let mut zeros = 0u32;
    for p in (0..kc8).step_by(8) {
        // EQ_OQ: NaN is not a zero, `-0.0` is — as scalar `av == 0.0`.
        let hit = _mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_loadu_ps(a.add(p)), zero);
        zeros += (_mm256_movemask_ps(hit) as u32).count_ones();
    }
    for p in kc8..kc {
        zeros += (*a.add(p) == 0.0) as u32;
    }
    if zeros == 0 {
        return kc;
    }
    // Branch-free compaction: always write, advance only past non-zeros.
    let mut len = 0usize;
    for p in 0..kc {
        *nz.add(len) = p as u16;
        len += (*a.add(p) != 0.0) as usize;
    }
    len
}

/// The ikj core for one packed panel: `C[r, ..nb] (+)= A[r, ..kc] ·
/// panel` for every band row `r`, skipping zeros of A through the
/// rows' non-zero lists. On the `first` slice the sums start from
/// `+0.0` and C is only written — even for a row with nothing to add.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn ikj_rows<L: Lanes, const NV: usize>(
    a: *const f32,
    lda: usize,
    kc: usize,
    s: &Scratch,
    first: bool,
    c: *mut f32,
    ldc: usize,
    rows: usize,
    nb: usize,
) {
    let panel = s.panel.as_ptr();
    for r in 0..rows {
        let len = s.nz_len[r];
        if len == 0 && !first {
            continue;
        }
        let (a_row, c_row) = (a.add(r * lda), c.add(r * ldc));
        let mut tile = if first {
            [L::zero(); NV]
        } else {
            load_tile::<L, NV>(c_row, nb)
        };
        // C is walked a column block at a time, a panel row per output
        // row with a whole row between them — more concurrent streams
        // than the hardware prefetcher follows once `k` is small
        // (`dW = Xᵀ·dY`, `k` = batch). Ask for this row's tile of the
        // next block now (one hint per 64-byte line); it is needed a
        // band of row walks later. (Past the end of C the hint is a
        // no-op.)
        for line in 0..NV * L::W / 16 {
            _mm_prefetch::<_MM_HINT_T0>(c_row.wrapping_add(L::NB + 16 * line) as *const i8);
        }
        if len == kc {
            walk(a_row, 0..kc, panel, &mut tile);
        } else {
            let listed = &s.nz[r * KC..r * KC + len];
            walk(a_row, listed.iter().map(|&p| p as usize), panel, &mut tile);
        }
        store_tile(c_row, nb, &tile);
    }
}

/// `C[m, n] = A-or-Aᵀ · B[k, n]` with the zero-skip: NN (A is
/// `[m, k]`) and TN (`tn`: A is `[k, m]` and the band's slice is
/// transposed into scratch first).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_ikj<L: Lanes>(
    a: &[f32],
    tn: bool,
    b: &[f32],
    c: &mut [f32],
    [m, k, n]: [usize; 3],
    s: &mut Scratch,
) {
    if k == 0 {
        // No slice to start the sums: C is the empty sum, `+0.0`.
        return c.fill(0.0);
    }
    for band in (0..m).step_by(MB) {
        let band_rows = MB.min(m - band);
        let c_band = c.as_mut_ptr().add(band * n);
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            let (a_band, lda) = if tn {
                // Read along A's rows (contiguous), write down the
                // scratch's columns.
                for p in 0..kc {
                    let src = a.as_ptr().add((p0 + p) * m + band);
                    for r in 0..band_rows {
                        *s.a_t.as_mut_ptr().add(r * KC + p) = *src.add(r);
                    }
                }
                (s.a_t.as_ptr(), KC)
            } else {
                (a.as_ptr().add(band * k + p0), k)
            };
            for r in 0..band_rows {
                s.nz_len[r] = list_nonzeros(a_band.add(r * lda), kc, s.nz.as_mut_ptr().add(r * KC));
            }
            let first = p0 == 0;
            for j in (0..n).step_by(L::NB) {
                let nb = L::NB.min(n - j);
                pack_rows::<L>(b.as_ptr().add(p0 * n + j), n, kc, nb, s.panel.as_mut_ptr());
                let c = c_band.add(j);
                match vectors::<L>(nb) {
                    1 => ikj_rows::<L, 1>(a_band, lda, kc, s, first, c, n, band_rows, nb),
                    2 => ikj_rows::<L, 2>(a_band, lda, kc, s, first, c, n, band_rows, nb),
                    4 => ikj_rows::<L, 4>(a_band, lda, kc, s, first, c, n, band_rows, nb),
                    _ => ikj_rows::<L, 8>(a_band, lda, kc, s, first, c, n, band_rows, nb),
                }
            }
        }
    }
}

/// The dot-per-output core for one packed panel and k-slice: each band
/// row's `nb` sums continue from `carry` (from `0.0` on the `first`
/// slice) and, on the `last` slice, are added to C.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn dot_rows<L: Lanes, const NV: usize>(
    a: *const f32,
    lda: usize,
    kc: usize,
    s: &mut Scratch,
    (first, last): (bool, bool),
    c: *mut f32,
    ldc: usize,
    rows: usize,
    nb: usize,
) {
    let panel = s.panel.as_ptr();
    for r in 0..rows {
        let carry = s.carry.as_mut_ptr().add(r * L::NB);
        let mut acc = if first {
            [L::zero(); NV]
        } else {
            load_tile::<L, NV>(carry, L::W * NV)
        };
        walk(a.add(r * lda), 0..kc, panel, &mut acc);
        if last {
            let c_row = c.add(r * ldc);
            let mut tile = load_tile::<L, NV>(c_row, nb);
            for (lane, sum) in tile.iter_mut().zip(&acc) {
                *lane = L::add(*lane, *sum);
            }
            store_tile(c_row, nb, &tile);
        } else {
            store_tile(carry, L::W * NV, &acc);
        }
    }
}

/// `C[m, n] += A[m, k] · B[n, k]ᵀ`; see the module docs.
///
/// Each output element is a dot product — a true reduction — so
/// lane-striping one dot would reassociate it. Instead lane `u` of an
/// accumulator owns output column `j+u` and adds its products in
/// strictly increasing `p`, which is exactly the scalar sequential dot,
/// including the `0.0` start and the single `c += acc` finish.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_nt<L: Lanes>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    [m, k, n]: [usize; 3],
    s: &mut Scratch,
) {
    if k == 0 {
        // The reference still performs `c += 0.0`, which turns a `-0.0`
        // in C into `+0.0`.
        return super::scalar::gemm_nt_block(a, b, 0..m, c, k, n);
    }
    for band in (0..m).step_by(MB) {
        let band_rows = MB.min(m - band);
        let c_band = c.as_mut_ptr().add(band * n);
        for j in (0..n).step_by(L::NB) {
            let nb = L::NB.min(n - j);
            for p0 in (0..k).step_by(KC) {
                let kc = KC.min(k - p0);
                pack_cols::<L>(b.as_ptr().add(j * k + p0), k, kc, nb, s.panel.as_mut_ptr());
                let a_band = a.as_ptr().add(band * k + p0);
                let ends = (p0 == 0, p0 + kc == k);
                let c = c_band.add(j);
                match vectors::<L>(nb) {
                    1 => dot_rows::<L, 1>(a_band, k, kc, s, ends, c, n, band_rows, nb),
                    2 => dot_rows::<L, 2>(a_band, k, kc, s, ends, c, n, band_rows, nb),
                    4 => dot_rows::<L, 4>(a_band, k, kc, s, ends, c, n, band_rows, nb),
                    _ => dot_rows::<L, 8>(a_band, k, kc, s, ends, c, n, band_rows, nb),
                }
            }
        }
    }
}
