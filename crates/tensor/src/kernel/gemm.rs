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
//! # The image operand
//!
//! B is either a dense matrix ([`Rhs::Dense`]) or the column matrix of
//! one image under a convolution geometry ([`Rhs::Image`]) — the
//! `[C·KH·KW, OH·OW]` matrix `im2col_into` would write, which is never
//! written: row `(c, ki, kj)` at output position `(oi, oj)` is read from
//! the image as the panel is packed. A tap's run of positions inside one
//! output row is a contiguous (stride 1) or every-other-element
//! (stride 2) stretch of an image row, so each vector of it is one
//! masked load — fault-suppressing, so the padding taps, whose addresses
//! may lie outside the image, are never touched and read as `+0.0` —
//! and for stride 2 an even-lane pick. Where a vector's taps are all
//! padding its mask is empty; where they are all inside (stride 1) it is
//! a plain load.
//!
//! Rows `r` and `r + KH·KW` are the same tap of consecutive channels,
//! `H·W` elements apart, so each tap's loads — offset, mask — are worked
//! out once per panel, as a *program* of at most eight loads, and run
//! for every channel: NN packs a tap's panel rows channel after channel;
//! NT keeps one program per tap for the slice and feeds [`transpose8`]
//! eight loads straight from the image per tile. The panel then holds
//! exactly the values the explicit unroll would have put there, and the
//! walk over it is unchanged, so every bit is the same as `im2col_into`
//! followed by the dense product. Geometries whose vectors would cross
//! an output row (`OW` not a multiple of the vector width) or whose
//! stride is past 2 assemble each vector on its own: one masked load
//! (or element gather) per output row it touches, merged by `or` (the
//! lanes are disjoint and `+0.0` is all zero bits).
//!
//! # Safety
//! [`ymm`] requires AVX2 and [`zmm`] AVX-512F (the dispatcher in
//! [`super`] checks, once); both take slices of the sizes the public
//! `kernel::gemm*` and `kernel::conv_*` functions assert, and a C that
//! holds `m·n` writable floats (read only by NT, which accumulates).
#![cfg(target_arch = "x86_64")]

use super::Layout;
use crate::Conv2dGeom;
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
    /// Bitwise or: merges vectors whose non-zero lanes are disjoint.
    unsafe fn or(a: Self, b: Self) -> Self;
    /// Which elements a [`Lanes::load_masked`] reads.
    type Mask: Copy;
    /// The mask for lanes `lo..hi` (`hi ≤ W`; none if `lo ≥ hi`) at
    /// `stride` 1 or 2: lane `l` is element `stride·l`.
    unsafe fn mask(stride: usize, lo: usize, hi: usize) -> Self::Mask;
    /// The masked lanes from `p[stride·l]` and `+0.0` in every other
    /// lane. Only the masked elements are read (fault-suppressing masked
    /// loads), so `p` may point outside the buffer as long as they lie
    /// inside it; an empty mask reads nothing.
    unsafe fn load_masked(p: *const f32, stride: usize, mask: Self::Mask) -> Self;
}

/// [`Lanes`] for one vector type, from its intrinsics; `or` and the
/// masked loads are written per type after the list.
macro_rules! lanes {
    ($v:ty, $w:expr, $zero:ident, $set1:ident, $load:ident, $store:ident, $add:ident, $mul:ident, $($extra:tt)*) => {
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
            $($extra)*
        }
    };
}

lanes! { __m256, 8, _mm256_setzero_ps, _mm256_set1_ps, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_add_ps, _mm256_mul_ps,
    #[inline(always)]
    unsafe fn or(a: Self, b: Self) -> Self {
        _mm256_or_ps(a, b)
    }
    /// Per element of the eight (stride 1) or sixteen (stride 2) read,
    /// all ones if it is read.
    type Mask = [__m256i; 2];
    #[inline(always)]
    unsafe fn mask(stride: usize, lo: usize, hi: usize) -> Self::Mask {
        if stride == 1 {
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            return [lane_range(lane, lo, hi), _mm256_setzero_si256()];
        }
        // Element `2l` holds lane `l`; 8 marks an odd one, in no range.
        let (even_a, even_b) = (
            _mm256_setr_epi32(0, 8, 1, 8, 2, 8, 3, 8),
            _mm256_setr_epi32(4, 8, 5, 8, 6, 8, 7, 8),
        );
        [lane_range(even_a, lo, hi), lane_range(even_b, lo, hi)]
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const f32, stride: usize, [m_a, m_b]: Self::Mask) -> Self {
        let a = _mm256_maskload_ps(p, m_a);
        if stride == 1 {
            return a;
        }
        let b = _mm256_maskload_ps(p.wrapping_add(8), m_b);
        let picked = _mm256_shuffle_ps::<0x88>(a, b); // a0 a2 b0 b2 | a4 a6 b4 b6
        _mm256_castpd_ps(_mm256_permute4x64_pd::<0xD8>(_mm256_castps_pd(picked)))
    }
}
lanes! { __m512, 16, _mm512_setzero_ps, _mm512_set1_ps, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_add_ps, _mm512_mul_ps,
    #[inline(always)]
    unsafe fn or(a: Self, b: Self) -> Self {
        _mm512_castsi512_ps(_mm512_or_si512(_mm512_castps_si512(a), _mm512_castps_si512(b)))
    }
    /// Bit `e` set: element `e` of the sixteen (stride 1) or 32
    /// (stride 2) is read.
    type Mask = u32;
    #[inline(always)]
    unsafe fn mask(stride: usize, lo: usize, hi: usize) -> u32 {
        let elems = (1u64 << (stride * hi)) - (1u64 << (stride * lo.min(hi)));
        (if stride == 1 { elems } else { elems & 0x5555_5555 }) as u32
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const f32, stride: usize, mask: u32) -> Self {
        let a = _mm512_maskz_loadu_ps(mask as u16, p);
        if stride == 1 {
            return a;
        }
        let b = _mm512_maskz_loadu_ps((mask >> 16) as u16, p.wrapping_add(16));
        let pick = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
        _mm512_permutex2var_ps(a, pick, b)
    }
}

/// All ones in the lanes of `lane` (a lane number per lane) that lie in
/// `lo..hi`.
#[inline(always)]
unsafe fn lane_range(lane: __m256i, lo: usize, hi: usize) -> __m256i {
    let from = _mm256_cmpgt_epi32(lane, _mm256_set1_epi32(lo as i32 - 1));
    _mm256_and_si256(from, _mm256_cmpgt_epi32(_mm256_set1_epi32(hi as i32), lane))
}

/// The widest panel, zmm's: the scratch is sized for it, and it is the
/// smallest `n` the zmm instance fills without padding.
pub(super) const ZMM_NB: usize = <__m512 as Lanes>::NB;
/// `p` values per panel.
pub(super) const KC: usize = 64;
/// Output rows per band. Bounds the per-band scratch (transposed A slice,
/// non-zero lists, carried accumulators); a panel is packed once per
/// band, so its cost is spread over up to this many rows.
const MB: usize = 64;

/// The right-hand operand of a product.
#[derive(Clone, Copy)]
pub(super) enum Rhs<'a> {
    /// B itself, row-major: `[k, n]` for NN and TN, `[n, k]` for NT.
    Dense(&'a [f32]),
    /// The column matrix `[C·KH·KW, OH·OW]` of one image `[C, H, W]`
    /// under a geometry (module docs): `[k, n]` for NN and TN, `[n, k]`
    /// for NT.
    Image(&'a [f32], &'a Conv2dGeom),
}

/// `layout`'s product at ymm width.
///
/// # Safety
/// AVX2 must be available; sizes as the module docs require.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn ymm(l: Layout, a: &[f32], b: Rhs, c: *mut f32, mkn: [usize; 3]) {
    product::<__m256>(l, a, b, c, mkn)
}

/// `layout`'s product at zmm width.
///
/// # Safety
/// AVX-512F must be available; sizes as the module docs require.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn zmm(l: Layout, a: &[f32], b: Rhs, c: *mut f32, mkn: [usize; 3]) {
    product::<__m512>(l, a, b, c, mkn)
}

/// Per-thread GEMM scratch, shared by both widths, allocated on a
/// thread's first GEMM call and fully overwritten before every read
/// (≈ 90 KiB).
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
    /// An image operand's rows, rebuilt for every call that has one.
    taps: Vec<Tap>,
    /// NT with an image operand: the programs of [`Image::progs`].
    progs: Vec<Step>,
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
unsafe fn product<L: Lanes>(l: Layout, a: &[f32], b: Rhs, c: *mut f32, mkn: [usize; 3]) {
    let mut s = SCRATCH.take().unwrap_or_else(|| Scratch {
        panel: vec![0.0; KC * ZMM_NB],
        a_t: vec![0.0; MB * KC],
        nz: vec![0; MB * KC],
        nz_len: vec![0; MB],
        carry: vec![0.0; MB * ZMM_NB],
        taps: Vec::new(),
        progs: Vec::new(),
    });
    match b {
        Rhs::Dense(b) => {
            let ld = match l {
                Layout::Nt => mkn[1],
                Layout::Nn | Layout::Tn => mkn[2],
            };
            let b = Dense { b: b.as_ptr(), ld };
            by_layout::<L, _>(l, a, &b, c, mkn, &mut s)
        }
        Rhs::Image(img, g) => {
            let (mut taps, mut progs) = (std::mem::take(&mut s.taps), std::mem::take(&mut s.progs));
            Tap::table(g, &mut taps);
            let kk = g.kh * g.kw;
            progs.resize(8 * (kk + 1), (0, __m256::mask(1, 0, 0), Fill::None));
            let b = Image {
                img: img.as_ptr(),
                taps: &taps,
                progs: progs.as_mut_ptr(),
                kk: g.kh * g.kw,
                h: g.h,
                w: g.w,
                stride: g.stride,
                pad: g.pad,
                ow: g.out_w(),
            };
            by_layout::<L, _>(l, a, &b, c, mkn, &mut s);
            (s.taps, s.progs) = (taps, progs);
        }
    }
    SCRATCH.set(Some(s));
}

#[inline(always)]
unsafe fn by_layout<L: Lanes, B: Operand>(
    l: Layout,
    a: &[f32],
    b: &B,
    c: *mut f32,
    mkn: [usize; 3],
    s: &mut Scratch,
) {
    match l {
        Layout::Nn => gemm_ikj::<L, B>(a, false, b, c, mkn, s),
        Layout::Tn => gemm_ikj::<L, B>(a, true, b, c, mkn, s),
        Layout::Nt => gemm_nt::<L, B>(a, b, c, mkn, s),
    }
}

/// B as the packers read it: a row-major matrix whose rows are `p` for
/// NN/TN and output columns for NT.
trait Operand {
    /// Write `B[r0..r0+rows, col..col+n]` to `dst`, row `i` at
    /// `dst + i·ld` as `W·vectors(n)` floats: the values, then `+0.0`
    /// (those lanes are computed and never stored, and must not hold
    /// stale subnormals or NaNs that would slow the multiplies down).
    unsafe fn rows_into<V: Lanes>(
        &self,
        r0: usize,
        rows: usize,
        col: usize,
        n: usize,
        dst: (*mut f32, usize),
    );
    /// Up to eight rows of B from a column, ready for [`Operand::tile`].
    type Group;
    /// Get ready to read columns `col..col+n` (`n` a multiple of 8, at
    /// most `KC`) in tiles.
    unsafe fn prepare_tiles(&self, col: usize, n: usize);
    /// Rows `r..r+rows` (`rows ≤ 8`) from the prepared column `col`.
    unsafe fn group(&self, r: usize, rows: usize, col: usize) -> Self::Group;
    /// The group's rows at columns `col + 8v ..+ 8`, one vector each, and
    /// `+0.0` for the rows past `rows`.
    unsafe fn tile(&self, g: &Self::Group, v: usize) -> [__m256; 8];
    /// `B[r, col]`.
    unsafe fn get(&self, r: usize, col: usize) -> f32;
}

/// A row-major matrix with row stride `ld`.
struct Dense {
    b: *const f32,
    ld: usize,
}

impl Operand for Dense {
    #[inline(always)]
    unsafe fn rows_into<V: Lanes>(
        &self,
        r0: usize,
        rows: usize,
        col: usize,
        n: usize,
        (dst, ld): (*mut f32, usize),
    ) {
        for r in 0..rows {
            let (src, dst) = (self.b.add((r0 + r) * self.ld + col), dst.add(r * ld));
            if n == V::NB {
                for v in 0..8 {
                    V::store(dst.add(V::W * v), V::load(src.add(V::W * v)));
                }
            } else {
                std::ptr::write_bytes(dst, 0, V::W * vectors::<V>(n));
                std::ptr::copy_nonoverlapping(src, dst, n);
            }
        }
    }

    type Group = (*const f32, usize);

    #[inline(always)]
    unsafe fn prepare_tiles(&self, _: usize, _: usize) {}

    #[inline(always)]
    unsafe fn group(&self, r: usize, rows: usize, col: usize) -> (*const f32, usize) {
        (self.b.add(r * self.ld + col), rows)
    }

    #[inline(always)]
    unsafe fn tile(&self, &(src, rows): &(*const f32, usize), v: usize) -> [__m256; 8] {
        let (src, ld) = (src.add(8 * v), self.ld);
        if rows == 8 {
            return [
                _mm256_loadu_ps(src),
                _mm256_loadu_ps(src.add(ld)),
                _mm256_loadu_ps(src.add(2 * ld)),
                _mm256_loadu_ps(src.add(3 * ld)),
                _mm256_loadu_ps(src.add(4 * ld)),
                _mm256_loadu_ps(src.add(5 * ld)),
                _mm256_loadu_ps(src.add(6 * ld)),
                _mm256_loadu_ps(src.add(7 * ld)),
            ];
        }
        let mut tile = [_mm256_setzero_ps(); 8];
        for (q, t) in tile.iter_mut().enumerate().take(rows) {
            *t = _mm256_loadu_ps(src.add(q * ld));
        }
        tile
    }

    #[inline(always)]
    unsafe fn get(&self, r: usize, col: usize) -> f32 {
        *self.b.add(r * self.ld + col)
    }
}

/// One row `(c, ki, kj)` of an image operand: where its output position
/// `(0, 0)` reads, and which output positions read inside the image.
#[derive(Clone, Copy)]
struct Tap {
    /// `c·H·W + (ki − pad)·W + (kj − pad)`: position `(oi, oj)` reads
    /// element `off + (oi·W + oj)·stride`.
    off: isize,
    /// Output row `oi` reads image row `oi·stride + ki − pad`, inside
    /// the image or a padding row.
    ki: usize,
    /// The output columns whose input column `oj·stride + kj − pad` lies
    /// inside the image (the row path's `valid_cols`).
    lo: usize,
    hi: usize,
}

impl Tap {
    /// The rows of `g`'s column matrix, in order, into `taps`: channel
    /// 0's taps, then each later channel's as a copy `H·W` further on
    /// (the column ranges take a division each, once per tap position).
    fn table(g: &Conv2dGeom, taps: &mut Vec<Tap>) {
        taps.clear();
        let (ow, pad) = (g.out_w(), g.pad as isize);
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let lo = g.pad.saturating_sub(kj).div_ceil(g.stride).min(ow);
                let hi = (g.w + g.pad).saturating_sub(kj).div_ceil(g.stride).min(ow);
                let off = (ki as isize - pad) * g.w as isize + kj as isize - pad;
                taps.push(Tap { off, ki, lo, hi });
            }
        }
        let kk = taps.len();
        for c in 1..g.c {
            let plane = (c * g.h * g.w) as isize;
            taps.extend_from_within(..kk);
            for t in &mut taps[c * kk..] {
                t.off += plane;
            }
        }
    }
}

/// How much of a vector of a tap row lies inside the image.
#[derive(Clone, Copy, PartialEq)]
enum Fill {
    /// None of it: a padding row, or only padding columns.
    None,
    /// Some of it: the mask says which lanes.
    Some,
    /// All of it (stride 1 only): a plain load.
    All,
}

/// One masked load of a tap row: the element offset of its first lane
/// from its channel's start, its mask, and how full that mask is.
type Load<M> = (isize, M, Fill);

/// A [`Load`] at ymm width, as [`Operand::tile`] reads it.
type Step = Load<<__m256 as Lanes>::Mask>;

/// An output position of an image operand: output row and column.
#[derive(Clone, Copy)]
struct Pos {
    oi: usize,
    oj: usize,
}

/// The column matrix of one image, read in place (module docs).
struct Image<'a> {
    img: *const f32,
    taps: &'a [Tap],
    /// [`Operand::prepare_tiles`]'s programs: per tap `(ki, kj)`, one
    /// `(offset, mask)` masked load per eight columns (eight of them),
    /// then a row of empty masks for a tile's missing rows — `kk + 1`
    /// rows of 8 entries.
    progs: *mut Step,
    /// Taps per channel, `KH·KW`: rows `r` and `r + kk` are the same tap
    /// of consecutive channels, `H·W` elements apart.
    kk: usize,
    h: usize,
    w: usize,
    stride: usize,
    pad: usize,
    ow: usize,
}

impl Image<'_> {
    /// Output position `col`.
    #[inline(always)]
    fn at(&self, col: usize) -> Pos {
        Pos {
            oi: col / self.ow,
            oj: col % self.ow,
        }
    }

    /// [`Operand::rows_into`] for the rows `r0 + q + i·kk` — one tap
    /// `(ki, kj)` in `chans` consecutive channels — whose vectors all lie
    /// inside one output row (`OW` and the first column on a vector
    /// boundary) and whose stride is 1 or 2. Each vector's padding test,
    /// mask and offset are found once, into a program of at most eight
    /// masked loads, and every channel runs that program `H·W` elements
    /// further on: one masked load per vector (two and an even-lane pick
    /// at stride 2), with an empty mask — nothing read, `+0.0` — where
    /// all its taps are padding.
    #[inline(always)]
    unsafe fn tap_rows<V: Lanes>(
        &self,
        t: &Tap,
        chans: usize,
        at: Pos,
        n: usize,
        (dst, ld): (*mut f32, usize),
    ) {
        let (w, s) = (V::W, self.stride);
        let nv = n.div_ceil(w);
        let mut prog = [(0isize, V::mask(s, 0, 0), Fill::None); 8];
        self.program::<V>(t, at, n, &mut prog[..nv]);
        for i in 0..chans {
            let (img, out) = (
                self.img.wrapping_add(i * self.h * self.w),
                dst.add(i * self.kk * ld),
            );
            for (v, &(src, mask, _)) in prog[..nv].iter().enumerate() {
                V::store(
                    out.add(w * v),
                    V::load_masked(img.wrapping_offset(src), s, mask),
                );
            }
        }
    }

    /// The masked loads that read tap `t` at the `n` output positions
    /// from `at`, `V::W` at a time, into `prog` (`n.div_ceil(W)`
    /// entries): each vector's offset from its channel's start and its
    /// mask — empty where the output row is a padding row, the row's
    /// in-image columns otherwise. The vectors must lie inside one output
    /// row each and the stride be 1 or 2.
    #[inline(always)]
    unsafe fn program<V: Lanes>(&self, t: &Tap, at: Pos, n: usize, prog: &mut [Load<V::Mask>]) {
        let (w, s) = (V::W, self.stride);
        // Most vectors are all inside the image or all padding.
        let (all, none) = (V::mask(s, 0, w), V::mask(s, 0, 0));
        let Pos { mut oi, mut oj } = at;
        for (v, step) in prog.iter_mut().enumerate() {
            let lanes = (n - w * v).min(w);
            let (lo, hi) = (t.lo.saturating_sub(oj), t.hi.saturating_sub(oj).min(lanes));
            let inside = (oi * s + t.ki).wrapping_sub(self.pad) < self.h;
            let src = t.off + ((oi * self.w + oj) * s) as isize;
            *step = match (inside && lo < hi, lo == 0 && hi == w) {
                (false, _) => (src, none, Fill::None),
                (true, true) if s == 1 => (src, all, Fill::All),
                (true, true) => (src, all, Fill::Some),
                (true, false) => (src, V::mask(s, lo, hi), Fill::Some),
            };
            oj += w;
            if oj == self.ow {
                oi += 1;
                oj = 0;
            }
        }
    }

    /// Whether `n` output positions from `col` can be read `W` at a time
    /// by [`Image::program`]s.
    #[inline(always)]
    fn programmable(&self, w: usize, col: usize) -> bool {
        self.ow.is_multiple_of(w) && (col % self.ow).is_multiple_of(w) && self.stride <= 2
    }

    /// Tap `t` at the `lanes` (`≤ V::W`) output positions from `at`, in
    /// lane order, `+0.0` in the lanes past them: one masked load per
    /// output row the positions touch, merged by `or`. The path for
    /// vectors that cross output rows.
    #[inline(always)]
    unsafe fn load<V: Lanes>(&self, t: &Tap, at: Pos, lanes: usize) -> V {
        let Pos { mut oi, mut oj } = at;
        let s = self.stride;
        let mut v = V::zero();
        let mut l = 0;
        while l < lanes {
            let run = (self.ow - oj).min(lanes - l);
            let (lo, hi) = (t.lo.max(oj), t.hi.min(oj + run));
            if lo < hi && (oi * s + t.ki).wrapping_sub(self.pad) < self.h {
                // Lane `l + x − oj` holds column `x`, element `off + (oi·w + x)·s`.
                let lane0 = t.off + ((oi * self.w + oj) * s) as isize - (l * s) as isize;
                let p = self.img.wrapping_offset(lane0);
                let (lo, hi) = (l + lo - oj, l + hi - oj);
                let piece = if s <= 2 {
                    V::load_masked(p, s, V::mask(s, lo, hi))
                } else {
                    gather::<V>(p, s, lo, hi)
                };
                v = V::or(v, piece);
            }
            l += run;
            oi += 1;
            oj = 0;
        }
        v
    }
}

/// Lanes `lo..hi` from `p[stride·l]`, `+0.0` in the others, one element
/// at a time: [`Lanes::load_masked`] for strides past 2.
#[inline(always)]
unsafe fn gather<V: Lanes>(p: *const f32, stride: usize, lo: usize, hi: usize) -> V {
    let mut lanes = [0.0f32; ZMM_NB / 8];
    for (i, lane) in lanes.iter_mut().enumerate().take(hi).skip(lo) {
        *lane = *p.wrapping_add(i * stride);
    }
    V::load(lanes.as_ptr())
}

impl Operand for Image<'_> {
    #[inline(always)]
    unsafe fn rows_into<V: Lanes>(
        &self,
        r0: usize,
        rows: usize,
        col: usize,
        n: usize,
        (dst, ld): (*mut f32, usize),
    ) {
        let (w, at) = (V::W, self.at(col));
        if self.programmable(w, col) && n <= V::NB {
            for q in 0..self.kk.min(rows) {
                let chans = (rows - q).div_ceil(self.kk);
                self.tap_rows::<V>(&self.taps[r0 + q], chans, at, n, (dst.add(q * ld), ld));
            }
        } else {
            for r in 0..rows {
                let (t, mut pos) = (&self.taps[r0 + r], at);
                for v in 0..n.div_ceil(w) {
                    let lanes = (n - w * v).min(w);
                    V::store(dst.add(r * ld + w * v), self.load::<V>(t, pos, lanes));
                    pos.oj += w;
                    while pos.oj >= self.ow {
                        pos.oj -= self.ow;
                        pos.oi += 1;
                    }
                }
            }
        }
        for r in 0..rows {
            for v in n.div_ceil(w)..vectors::<V>(n) {
                V::store(dst.add(r * ld + w * v), V::zero());
            }
        }
    }

    /// Per row, its tap's program (or the empty one) and its channel's
    /// start; then the rows, the first row and the column, for the
    /// one-vector-at-a-time path.
    type Group = ([(*const Step, *const f32); 8], usize, usize, usize);

    #[inline(always)]
    unsafe fn prepare_tiles(&self, col: usize, n: usize) {
        if !self.programmable(8, col) {
            return;
        }
        let at = self.at(col);
        for q in 0..self.kk {
            let prog = std::slice::from_raw_parts_mut(self.progs.add(8 * q), n / 8);
            self.program::<__m256>(&self.taps[q], at, n, prog);
        }
        let none = __m256::mask(1, 0, 0);
        for v in 0..8 {
            *self.progs.add(8 * self.kk + v) = (0, none, Fill::None);
        }
    }

    #[inline(always)]
    unsafe fn group(&self, r: usize, rows: usize, col: usize) -> Self::Group {
        let mut g = [(self.progs.add(8 * self.kk).cast_const(), self.img); 8];
        let (mut q, mut c) = (r % self.kk, r / self.kk);
        for row in g.iter_mut().take(rows) {
            *row = (
                self.progs.add(8 * q),
                self.img.wrapping_add(c * self.h * self.w),
            );
            q += 1;
            if q == self.kk {
                q = 0;
                c += 1;
            }
        }
        (g, rows, r, col)
    }

    #[inline(always)]
    unsafe fn tile(&self, (g, rows, r, col): &Self::Group, v: usize) -> [__m256; 8] {
        let mut tile = [_mm256_setzero_ps(); 8];
        if self.programmable(8, *col) {
            for (t, &(prog, img)) in tile.iter_mut().zip(g) {
                let (src, _, fill) = *prog.add(v);
                let p = img.wrapping_offset(src);
                *t = match fill {
                    Fill::All => _mm256_loadu_ps(p),
                    Fill::None => _mm256_setzero_ps(),
                    Fill::Some => __m256::load_masked(p, self.stride, (*prog.add(v)).1),
                };
            }
        } else {
            let at = self.at(col + 8 * v);
            for (q, t) in tile.iter_mut().enumerate().take(*rows) {
                *t = self.load::<__m256>(&self.taps[r + q], at, 8);
            }
        }
        tile
    }

    #[inline(always)]
    unsafe fn get(&self, r: usize, col: usize) -> f32 {
        let t = &self.taps[r];
        let Pos { oi, oj } = self.at(col);
        let inside = (oi * self.stride + t.ki).wrapping_sub(self.pad) < self.h;
        if inside && (t.lo..t.hi).contains(&oj) {
            *self
                .img
                .offset(t.off + ((oi * self.w + oj) * self.stride) as isize)
        } else {
            0.0
        }
    }
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

/// Pack `B[p0..p0+kc, j..j+nb]` into `panel`, zero-padded to
/// [`vectors`] (see [`Operand::rows_into`]).
#[inline(always)]
unsafe fn pack_rows<L: Lanes, B: Operand>(
    b: &B,
    p0: usize,
    kc: usize,
    j: usize,
    nb: usize,
    panel: *mut f32,
) {
    b.rows_into::<L>(p0, kc, j, nb, (panel, L::NB));
}

/// Pack `B[j..j+nb, p0..p0+kc]ᵀ` into `panel`: `panel[p][u] =
/// B[j+u][p0+p]`. 8×8 tiles ([`Operand::tile`]: eight rows of B, eight
/// columns each) go through [`transpose8`] (ymm at either width), once
/// per column block instead of once per output row — a last group of
/// fewer than eight rows as a tile with `+0.0` rows; the last `kc % 8`
/// columns are copied element by element. Lanes past `nb` are
/// zero-padded to [`vectors`] like [`pack_rows`].
#[inline(always)]
unsafe fn pack_cols<L: Lanes, B: Operand>(
    b: &B,
    j: usize,
    nb: usize,
    p0: usize,
    kc: usize,
    panel: *mut f32,
) {
    let kc8 = kc - kc % 8;
    b.prepare_tiles(p0, kc8);
    for u in (0..nb).step_by(8) {
        let g = b.group(j + u, (nb - u).min(8), p0);
        for p in (0..kc8).step_by(8) {
            for (q, &t) in transpose8(b.tile(&g, p / 8)).iter().enumerate() {
                _mm256_storeu_ps(panel.add((p + q) * L::NB + u), t);
            }
        }
    }
    let tiled = nb.next_multiple_of(8);
    for p in kc8..kc {
        for u in 0..tiled {
            let v = if u < nb { b.get(j + u, p0 + p) } else { 0.0 };
            *panel.add(p * L::NB + u) = v;
        }
    }
    let padded = L::W * vectors::<L>(nb);
    if tiled < padded {
        for p in 0..kc {
            std::ptr::write_bytes(panel.add(p * L::NB + tiled), 0, padded - tiled);
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
/// transposed into scratch first). C is written, never read.
#[inline(always)]
unsafe fn gemm_ikj<L: Lanes, B: Operand>(
    a: &[f32],
    tn: bool,
    b: &B,
    c: *mut f32,
    [m, k, n]: [usize; 3],
    s: &mut Scratch,
) {
    if k == 0 {
        // No slice to start the sums: C is the empty sum, `+0.0`.
        return std::ptr::write_bytes(c, 0, m * n);
    }
    for band in (0..m).step_by(MB) {
        let band_rows = MB.min(m - band);
        let c_band = c.add(band * n);
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
                pack_rows::<L, B>(b, p0, kc, j, nb, s.panel.as_mut_ptr());
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
unsafe fn gemm_nt<L: Lanes, B: Operand>(
    a: &[f32],
    b: &B,
    c: *mut f32,
    [m, k, n]: [usize; 3],
    s: &mut Scratch,
) {
    if k == 0 {
        // The reference still adds its empty dot, `c += 0.0`, which turns
        // a `-0.0` in C into `+0.0`.
        for i in 0..m * n {
            *c.add(i) += 0.0;
        }
        return;
    }
    for band in (0..m).step_by(MB) {
        let band_rows = MB.min(m - band);
        let c_band = c.add(band * n);
        for j in (0..n).step_by(L::NB) {
            let nb = L::NB.min(n - j);
            for p0 in (0..k).step_by(KC) {
                let kc = KC.min(k - p0);
                pack_cols::<L, B>(b, j, nb, p0, kc, s.panel.as_mut_ptr());
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
