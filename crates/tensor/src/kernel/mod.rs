//! Unified SIMD kernel layer: the single dispatch surface for every
//! compute-bound inner loop in the workspace.
//!
//! All four hot layers route through this module — `cdsgd-tensor`
//! (GEMM, elementwise, reductions, im2col/col2im), `cdsgd-nn` (dense/conv
//! forward+backward, batch norm's per-channel sums and passes,
//! activations, losses), `cdsgd-compress` (2-bit and
//! 1-bit quantizer scans, bit packing, residual accumulation), and
//! `cdsgd-ps` (optimizer `apply` and `apply_update`). Each primitive
//! has exactly one scalar reference implementation in [`scalar`] and,
//! where profitable, one SIMD implementation: the packed GEMM core in
//! `gemm`, written once over a lane trait and instantiated at ymm
//! (AVX2) and zmm (AVX-512F) width, and the AVX2 bodies of everything
//! else in `avx2` — for the elementwise maps and batch norm's passes,
//! the scalar source itself compiled with AVX2 enabled.
//!
//! # Dispatch
//!
//! The backend is chosen once per process and cached in a `OnceLock`:
//!
//! * `CDSGD_FORCE_SCALAR` set to anything except `""`/`"0"` pins the
//!   scalar reference path (CI runs the whole workspace this way as a
//!   second pass).
//! * Otherwise, on `x86_64`, runtime detection picks
//!   [`Backend::Avx512`] when the host has `avx512f` (and `avx2`), else
//!   [`Backend::Avx2`] when it has `avx2`.
//! * Every other architecture always takes the scalar path.
//!
//! Both SIMD backends run the same AVX2 bodies outside the GEMMs: the
//! elementwise maps and batch norm's passes compiled from their scalar
//! source, the packing, quantizer, decode, `col2im` and channel-sum
//! kernels written by hand. They differ in the GEMMs only. Under `Avx512` a
//! GEMM whose `n` fills at least one 128-column zmm panel runs the zmm
//! instance and a narrower one the ymm instance (zero-padding a narrow
//! `n` out to 16 lanes costs more than the wider vectors save).
//!
//! Because the choice is cached, one process sees one backend for its
//! whole lifetime; tests that need to compare backends either call
//! [`scalar`] directly (it is public precisely for that) or spawn a
//! subprocess with the env var set.
//!
//! # Bit-identity contract
//!
//! Every dispatched kernel must produce **bit-identical** output to its
//! scalar reference for all inputs, including `±0.0`, `±inf` and NaN
//! operands. This is what keeps the pinned FNV weight hashes in
//! `tests/strategy_equivalence.rs` stable across backends. The rules
//! that make it hold are documented in `avx2`; the short version: no
//! FMA, vectorize across independent outputs only, keep every
//! zero-skip, and express true sequential reductions either scalar-only
//! ([`reduce_sum`] and friends) or under an explicitly striped order
//! contract ([`dot`]).
//!
//! One thing is *not* pinned, because neither Rust nor LLVM pins it:
//! which NaN comes out of an addition whose two operands are both NaN.
//! The hardware returns the first operand's payload and the optimizer is
//! free to swap operands, so the same source yields different payloads
//! in debug and release builds. It only shows in kernels that add two
//! computed values — [`dot`], the three GEMMs, [`channel_sums`] and
//! [`col2im`]; for those the contract (and `tests/kernel_identity.rs`,
//! which feeds them NaN/Inf specials in both profiles) is: a NaN exactly
//! where the reference has a NaN, every other value bit-equal.
//!
//! Tail handling: vector bodies process the largest lane-width multiple
//! and fall back to a scalar loop for the remainder — the reference's
//! own loop in a hand-written body, the compiler's remainder loop in a
//! compiled one — so non-multiple-of-8 lengths exercise both paths in
//! one call.
//!
//! # Write or accumulate
//!
//! [`gemm`] and [`gemm_tn`] *write* C (`C = A·B`): C is never read, so
//! callers need not clear it first. [`gemm_nt`] *accumulates*
//! (`C += A·Bᵀ`), which is what the convolution's `dW`, summed over the
//! samples of a batch, needs — [`conv_weight_grad`] too. [`conv_forward`],
//! [`bn_normalize`] and [`bn_input_grad`] *append* their output to a
//! `Vec`, so a layer builds a fresh output with no zero fill at all.
//!
//! # Threading
//!
//! Every kernel runs to completion on the caller's thread: none spawns,
//! tiles or takes a lock, so a call costs its arithmetic and nothing
//! else, and the thread-local GEMM scratch in `gemm` has exactly one
//! user per thread. Parallelism lives one level up — one thread per
//! worker, one per server shard.

pub mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod gemm;

use std::sync::OnceLock;

use crate::Conv2dGeom;

/// Which kernel backend this process dispatches to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// Portable scalar reference implementations.
    Scalar,
    /// AVX2: the elementwise maps compiled from their scalar source at
    /// ymm width, the other kernels hand-written (`std::arch`); GEMMs at
    /// ymm width.
    Avx2,
    /// The AVX2 implementations, with GEMMs at zmm width (AVX-512F)
    /// where `n` fills a zmm panel.
    Avx512,
}

impl Backend {
    /// Human-readable name, used by benches and trace output.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }
}

fn force_scalar_env() -> bool {
    match std::env::var("CDSGD_FORCE_SCALAR") {
        Ok(v) => !(v.is_empty() || v == "0"),
        Err(_) => false,
    }
}

/// The backend selected for this process (cached on first call).
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        if force_scalar_env() {
            return Backend::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Backend::Avx512;
            }
            return Backend::Avx2;
        }
        Backend::Scalar
    })
}

/// Whether the AVX2 bodies run: under either SIMD backend.
#[cfg(target_arch = "x86_64")]
#[inline]
fn simd_active() -> bool {
    backend() != Backend::Scalar
}

/// Always `usize::MAX` — "never tiles", what `CDSGD_PAR_THRESHOLD=off`
/// used to select; the variable is no longer read. Kept only because
/// `benchmark/src/host.rs` records it: the next `benchmark`-archetype PR
/// removes this function together with the benchmark's `par_off` pin.
pub fn par_threshold() -> usize {
    usize::MAX
}

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

macro_rules! dispatch {
    ($avx2:expr, $scalar:expr) => {{
        #[cfg(target_arch = "x86_64")]
        if simd_active() {
            // SAFETY: `simd_active()` implies AVX2 was runtime-detected.
            return unsafe { $avx2 };
        }
        $scalar
    }};
}

/// `y[i] += alpha * x[i]`.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "kernel::axpy length mismatch");
    dispatch!(avx2::axpy(alpha, x, y), scalar::axpy(alpha, x, y))
}

/// `y[i] *= s`.
pub fn scale(y: &mut [f32], s: f32) {
    dispatch!(avx2::scale(y, s), scalar::scale(y, s))
}

/// `y[i] += x[i]`.
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(x.len(), y.len(), "kernel::add_assign length mismatch");
    dispatch!(avx2::add_assign(y, x), scalar::add_assign(y, x))
}

/// `y[i] += b`.
pub fn add_scalar(y: &mut [f32], b: f32) {
    dispatch!(avx2::add_scalar(y, b), scalar::add_scalar(y, b))
}

/// `out[i] = a[i] + b[i]`.
pub fn add_into(out: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(out.len(), a.len(), "kernel::add_into length mismatch");
    assert_eq!(out.len(), b.len(), "kernel::add_into length mismatch");
    dispatch!(avx2::add_into(out, a, b), scalar::add_into(out, a, b))
}

/// `out[i] = 0.0 + x[i]`: one pass for `out.fill(0.0)` followed by
/// [`add_assign`], same bits.
pub fn zero_add(out: &mut [f32], x: &[f32]) {
    assert_eq!(out.len(), x.len(), "kernel::zero_add length mismatch");
    dispatch!(avx2::zero_add(out, x), scalar::zero_add(out, x))
}

/// `out[i] = a[i] + alpha * b[i]`.
pub fn scale_add(out: &mut [f32], a: &[f32], alpha: f32, b: &[f32]) {
    assert_eq!(out.len(), a.len(), "kernel::scale_add length mismatch");
    assert_eq!(out.len(), b.len(), "kernel::scale_add length mismatch");
    dispatch!(
        avx2::scale_add(out, a, alpha, b),
        scalar::scale_add(out, a, alpha, b)
    )
}

/// `out[i] = w[i] - step * g[i]` — kept as its own primitive (rather
/// than `scale_add` with `-step`) so NaN-payload and `-0.0` behavior
/// match the historical `w - step * g` expression exactly.
pub fn sgd_step(out: &mut [f32], w: &[f32], g: &[f32], step: f32) {
    assert_eq!(out.len(), w.len(), "kernel::sgd_step length mismatch");
    assert_eq!(out.len(), g.len(), "kernel::sgd_step length mismatch");
    dispatch!(
        avx2::sgd_step(out, w, g, step),
        scalar::sgd_step(out, w, g, step)
    )
}

/// `v[i] = mu * v[i] + g[i]` (momentum decay-accumulate).
pub fn decay_add(v: &mut [f32], mu: f32, g: &[f32]) {
    assert_eq!(v.len(), g.len(), "kernel::decay_add length mismatch");
    dispatch!(avx2::decay_add(v, mu, g), scalar::decay_add(v, mu, g))
}

/// `out[i] = w[i] - step * (g[i] + mu * v[i])` (Nesterov lookahead).
pub fn nesterov_step(out: &mut [f32], w: &[f32], g: &[f32], v: &[f32], step: f32, mu: f32) {
    assert_eq!(out.len(), w.len(), "kernel::nesterov_step length mismatch");
    assert_eq!(out.len(), g.len(), "kernel::nesterov_step length mismatch");
    assert_eq!(out.len(), v.len(), "kernel::nesterov_step length mismatch");
    dispatch!(
        avx2::nesterov_step(out, w, g, v, step, mu),
        scalar::nesterov_step(out, w, g, v, step, mu)
    )
}

// ---------------------------------------------------------------------------
// Generic map / zip
// ---------------------------------------------------------------------------

/// `y[i] = f(y[i])`. No SIMD path: `f` is opaque, but the single
/// implementation still deduplicates the loop.
pub fn map_inplace<F>(y: &mut [f32], f: F)
where
    F: Fn(f32) -> f32,
{
    for v in y.iter_mut() {
        *v = f(*v);
    }
}

/// `out[i] = f(x[i])`.
pub fn map_into<F>(out: &mut [f32], x: &[f32], f: F)
where
    F: Fn(f32) -> f32,
{
    assert_eq!(out.len(), x.len(), "kernel::map_into length mismatch");
    for (o, &v) in out.iter_mut().zip(x) {
        *o = f(v);
    }
}

/// `y[i] = f(y[i], x[i])`.
pub fn zip_inplace<F>(y: &mut [f32], x: &[f32], f: F)
where
    F: Fn(f32, f32) -> f32,
{
    assert_eq!(y.len(), x.len(), "kernel::zip_inplace length mismatch");
    for (o, &v) in y.iter_mut().zip(x) {
        *o = f(*o, v);
    }
}

/// `out[i] = f(a[i], b[i])`.
pub fn zip_into<F>(out: &mut [f32], a: &[f32], b: &[f32], f: F)
where
    F: Fn(f32, f32) -> f32,
{
    assert_eq!(out.len(), a.len(), "kernel::zip_into length mismatch");
    assert_eq!(out.len(), b.len(), "kernel::zip_into length mismatch");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Sequential `Σ x[i]`. **Order-pinned**: scalar in every backend —
/// reassociating this sum would change pinned end-to-end hashes.
pub fn reduce_sum(x: &[f32]) -> f32 {
    scalar::reduce_sum(x)
}

/// Sequential `Σ |x[i]|`. Order-pinned, scalar in every backend.
pub fn reduce_abs_sum(x: &[f32]) -> f32 {
    scalar::reduce_abs_sum(x)
}

/// Sequential `Σ x[i]²`. Order-pinned, scalar in every backend.
pub fn reduce_sq_sum(x: &[f32]) -> f32 {
    scalar::reduce_sq_sum(x)
}

/// `max(x[i])` via the `f32::max` fold (NaN-skipping). Scalar in every
/// backend: the fold's NaN/`-0.0` handling depends on encounter order.
pub fn reduce_max(x: &[f32]) -> f32 {
    scalar::reduce_max(x)
}

/// `max(|x[i]|)`. Order-independent (abs collapses `-0.0`; the fold
/// skips NaN), so this one does get an AVX2 path.
pub fn reduce_max_abs(x: &[f32]) -> f32 {
    dispatch!(avx2::reduce_max_abs(x), scalar::reduce_max_abs(x))
}

/// Dot product under the **striped order contract**: 8 interleaved lane
/// sums over the 8-aligned prefix, combined pairwise, then a sequential
/// tail. Both backends implement this exact order, so results are
/// bit-identical — but note the order differs from a naive `Σ a·b` fold.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "kernel::dot length mismatch");
    dispatch!(avx2::dot(a, b), scalar::dot(a, b))
}

// ---------------------------------------------------------------------------
// Convolution unrolls, per-channel sums and batch norm
// ---------------------------------------------------------------------------

/// Whether stride-1 geometry `g` keeps the image's size (`2·pad + 1 = k`
/// both ways) on an image at least as large as the kernel: then every
/// row `(c, ki, kj)` of the column matrix is the channel's plane shifted
/// by `(ki − pad)·w + (kj − pad)`, and the SIMD backends' [`col2im`]
/// adds it whole. Strided geometries and images smaller than the kernel
/// take the row path.
#[cfg(target_arch = "x86_64")]
fn shifts_planes(g: &Conv2dGeom) -> bool {
    g.stride == 1 && g.out_h() == g.h && g.out_w() == g.w && g.h >= g.kh && g.w >= g.kw
}

/// Unroll a single image `[C,H,W]` (given as a flat slice) into the
/// column matrix `dst = [C·KH·KW, OH·OW]`, so that
/// `W[F, C·KH·KW] · dst = out[F, OH·OW]`. Every element of `dst` is
/// written — padding taps as `0.0` — so the buffer can be reused across
/// calls without clearing.
///
/// Every backend unrolls output row by output row
/// ([`scalar::im2col_into`]): no training path writes a column matrix
/// ([`conv_forward`] and [`conv_weight_grad`] read it from the image),
/// so this is the explicit reference those two are checked and timed
/// against.
pub fn im2col_into(img: &[f32], g: &Conv2dGeom, dst: &mut [f32]) {
    g.validate();
    assert_eq!(img.len(), g.c * g.h * g.w, "image size mismatch");
    assert_eq!(
        dst.len(),
        g.col_rows() * g.col_cols(),
        "column size mismatch"
    );
    scalar::im2col_into(img, g, dst)
}

/// Adjoint of [`im2col_into`]: scatter-add a column matrix
/// `[C·KH·KW, OH·OW]` back into an image buffer `[C,H,W]` (flat slices;
/// contributions are accumulated, so `img` must be pre-zeroed by the
/// caller if a fresh gradient is wanted). Image elements no tap lands on
/// keep their bits.
///
/// The scalar backend adds output row by output row
/// ([`scalar::col2im`]); the SIMD backends add a size-keeping
/// geometry's rows (see `shifts_planes`) as whole shifted planes,
/// blending the wrapped columns back to their old bits.
pub fn col2im(col: &[f32], g: &Conv2dGeom, img: &mut [f32]) {
    g.validate();
    assert_eq!(img.len(), g.c * g.h * g.w, "image size mismatch");
    assert_eq!(
        col.len(),
        g.col_rows() * g.col_cols(),
        "column size mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if simd_active() && shifts_planes(g) {
        // SAFETY: `simd_active()` implies AVX2 was runtime-detected; the
        // sizes are asserted above and the geometry checked.
        return unsafe { avx2::col2im_planes(col, g, img) };
    }
    scalar::col2im(col, g, img)
}

/// What [`channel_sums`] adds up for channel `c` at flat index `i` of an
/// NCHW tensor.
#[derive(Clone, Copy, Debug)]
pub enum ChannelTerm<'a> {
    /// `x[i]`.
    Value(&'a [f32]),
    /// `(x[i] − mean[c])²`, as `let d = x[i] − mean[c]; d·d`.
    SqDev(&'a [f32], &'a [f32]),
    /// `a[i]·b[i]`.
    Product(&'a [f32], &'a [f32]),
}

impl ChannelTerm<'_> {
    /// The term for channel `c` at flat index `i`.
    #[inline(always)]
    fn at(self, c: usize, i: usize) -> f32 {
        match self {
            ChannelTerm::Value(x) => x[i],
            ChannelTerm::SqDev(x, mean) => {
                let d = x[i] - mean[c];
                d * d
            }
            ChannelTerm::Product(a, b) => a[i] * b[i],
        }
    }
}

/// `emit(c, init + Σ term(c, i))` for every channel `c` of an NCHW
/// tensor of `[n, ch, plane]` (`plane = H·W`), where `i` runs over the
/// flat indices of channel `c` — sample 0's plane, then sample 1's, …
/// — and each sum is folded in exactly that order, so its bits are
/// those of the sequential loop: batch norm's mean, variance, `Σdy` and
/// `Σdy·x̂`, and a convolution's bias gradient.
///
/// Eight channels advance together on every backend, as eight
/// independent chains: interleaved scalar adds in [`scalar`], one
/// vector's lanes on the SIMD backends, which turn eight planes'
/// positions into lanes with an 8×8 register transpose. Channels past
/// the last full eight, and on the SIMD backends each plane's last
/// `plane % 8` positions, are added one at a time in the same order.
pub fn channel_sums(dims: [usize; 3], init: f32, term: ChannelTerm, emit: impl FnMut(usize, f32)) {
    let len = dims.iter().product::<usize>();
    match term {
        ChannelTerm::Value(x) => assert_eq!(x.len(), len, "kernel::channel_sums size"),
        ChannelTerm::SqDev(x, mean) => {
            assert_eq!(x.len(), len, "kernel::channel_sums size");
            assert_eq!(mean.len(), dims[1], "kernel::channel_sums means");
        }
        ChannelTerm::Product(a, b) => {
            assert_eq!(a.len(), len, "kernel::channel_sums size");
            assert_eq!(b.len(), len, "kernel::channel_sums size");
        }
    }
    dispatch!(
        avx2::channel_sums(dims, init, term, emit),
        scalar::channel_sums(dims, init, term, emit)
    )
}

/// Batch norm's normalize pass over `[n, ch, plane]`, per channel
/// `x̂ = (x − mean) / std` and `out = γ·x̂ + β`, appended to `out` (so
/// a fresh output is built without a zero fill); `xhat`, when given (a
/// train-mode forward), receives `x̂`. One scalar body, compiled a
/// second time at AVX2 width for the SIMD backends.
pub fn bn_normalize(
    dims: [usize; 3],
    x: &[f32],
    mean_std: (&[f32], &[f32]),
    gamma_beta: (&[f32], &[f32]),
    xhat: Option<&mut [f32]>,
    out: &mut Vec<f32>,
) {
    let len = dims.iter().product::<usize>();
    assert_eq!(x.len(), len, "kernel::bn_normalize size");
    if let Some(xhat) = &xhat {
        assert_eq!(xhat.len(), len, "kernel::bn_normalize size");
    }
    for per_channel in [mean_std.0, mean_std.1, gamma_beta.0, gamma_beta.1] {
        assert_eq!(per_channel.len(), dims[1], "kernel::bn_normalize channels");
    }
    dispatch!(
        avx2::bn_normalize(dims, x, mean_std, gamma_beta, xhat, out),
        scalar::bn_normalize(dims, x, mean_std, gamma_beta, xhat, out)
    )
}

/// Batch norm's input gradient over `[n, ch, plane]`: with
/// `m = n·plane`, `dx = γ/std · (dy − Σdy/m − x̂·Σdy·x̂/m)` per channel,
/// appended to `dx`. One scalar body, compiled a second time at AVX2
/// width, like [`bn_normalize`].
pub fn bn_input_grad(
    dims: [usize; 3],
    dy_xhat: (&[f32], &[f32]),
    gamma_std: (&[f32], &[f32]),
    sums: (&[f32], &[f32]),
    dx: &mut Vec<f32>,
) {
    let len = dims.iter().product::<usize>();
    for per_element in [dy_xhat.0, dy_xhat.1] {
        assert_eq!(per_element.len(), len, "kernel::bn_input_grad size");
    }
    for per_channel in [gamma_std.0, gamma_std.1, sums.0, sums.1] {
        assert_eq!(per_channel.len(), dims[1], "kernel::bn_input_grad channels");
    }
    dispatch!(
        avx2::bn_input_grad(dims, dy_xhat, gamma_std, sums, dx),
        scalar::bn_input_grad(dims, dy_xhat, gamma_std, sums, dx)
    )
}

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

/// Which product a GEMM call computes.
#[derive(Clone, Copy)]
enum Layout {
    /// `C[m,n] = A[m,k] · B[k,n]`.
    Nn,
    /// `C[m,n] += A[m,k] · B[n,k]ᵀ`.
    Nt,
    /// `C[m,n] = A[k,m]ᵀ · B[k,n]`.
    Tn,
}

/// One instance of the packed core (`gemm::ymm` or `gemm::zmm`).
#[cfg(target_arch = "x86_64")]
type Core = unsafe fn(Layout, &[f32], gemm::Rhs, *mut f32, [usize; 3]);

/// The packed core's instance for a product `n` columns wide, at the
/// width the backend and `n` pick (module docs, Dispatch); `None` on the
/// scalar backend. Calling it is sound: the backend detected its
/// feature.
#[cfg(target_arch = "x86_64")]
fn simd_core(n: usize) -> Option<Core> {
    match backend() {
        Backend::Avx512 if n >= gemm::ZMM_NB => Some(gemm::zmm),
        Backend::Avx2 | Backend::Avx512 => Some(gemm::ymm),
        Backend::Scalar => None,
    }
}

/// `layout`'s product on the packed core (see [`simd_core`]), else on
/// the scalar reference. The public callers have asserted the slice
/// sizes.
fn run_gemm(layout: Layout, a: &[f32], b: &[f32], c: &mut [f32], [m, k, n]: [usize; 3]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(core) = simd_core(n) {
        // SAFETY: the backend detected the core's feature; the sizes are
        // asserted by the caller.
        return unsafe { core(layout, a, gemm::Rhs::Dense(b), c.as_mut_ptr(), [m, k, n]) };
    }
    match layout {
        Layout::Nn => scalar::gemm_block(a, b, 0..m, c, k, n),
        Layout::Nt => scalar::gemm_nt_block(a, b, 0..m, c, k, n),
        Layout::Tn => scalar::gemm_tn_block(a, b, 0..m, c, m, k, n),
    }
}

/// `C[m,n] = A[m,k] · B[k,n]`, row-major. C is written, never read.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "kernel::gemm A size");
    assert_eq!(b.len(), k * n, "kernel::gemm B size");
    assert_eq!(c.len(), m * n, "kernel::gemm C size");
    run_gemm(Layout::Nn, a, b, c, [m, k, n])
}

/// `C[m,n] += A[m,k] · B[n,k]ᵀ`: accumulates into C.
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "kernel::gemm_nt A size");
    assert_eq!(b.len(), n * k, "kernel::gemm_nt B size");
    assert_eq!(c.len(), m * n, "kernel::gemm_nt C size");
    run_gemm(Layout::Nt, a, b, c, [m, k, n])
}

/// `C[m,n] = A[k,m]ᵀ · B[k,n]`. C is written, never read.
pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "kernel::gemm_tn A size");
    assert_eq!(b.len(), k * n, "kernel::gemm_tn B size");
    assert_eq!(c.len(), m * n, "kernel::gemm_tn C size");
    run_gemm(Layout::Tn, a, b, c, [m, k, n])
}

// ---------------------------------------------------------------------------
// Convolution as an implicit GEMM
// ---------------------------------------------------------------------------

/// One image's convolution, `out = W · col(img)`: `W` is
/// `[m, C·KH·KW]` and the `[m, OH·OW]` product is *appended* to `out`,
/// so a batch's output is built without a zero fill.
///
/// The bits are those of [`im2col_into`] followed by [`gemm`], which is
/// what the scalar reference does ([`scalar::conv_forward`]). The SIMD
/// backends never write the column matrix: the packed GEMM core reads
/// it from the image while it packs each panel (`gemm`'s module docs,
/// "The image operand").
pub fn conv_forward(w: &[f32], img: &[f32], g: &Conv2dGeom, out: &mut Vec<f32>) {
    g.validate();
    assert_eq!(img.len(), g.c * g.h * g.w, "image size mismatch");
    let (k, n) = (g.col_rows(), g.col_cols());
    assert!(
        k > 0 && w.len().is_multiple_of(k),
        "kernel::conv_forward W size"
    );
    let m = w.len() / k;
    #[cfg(target_arch = "x86_64")]
    if let Some(core) = simd_core(n) {
        out.reserve(m * n);
        let start = out.len();
        // SAFETY: the backend detected the core's feature and the sizes
        // are asserted above; C is `m·n` floats of `out`'s spare
        // capacity, every one of which NN writes before `set_len`.
        unsafe {
            let c = out.as_mut_ptr().add(start);
            core(Layout::Nn, w, gemm::Rhs::Image(img, g), c, [m, k, n]);
            out.set_len(start + m * n);
        }
        return;
    }
    scalar::conv_forward(w, img, g, out)
}

/// One image's weight gradient, `dW += dy · col(img)ᵀ`: `dy` is the
/// image's output gradient `[m, OH·OW]` and `dw` the `[m, C·KH·KW]`
/// gradient it accumulates into, as [`gemm_nt`] does.
///
/// The bits are those of [`im2col_into`] followed by [`gemm_nt`] (the
/// scalar reference, [`scalar::conv_weight_grad`]); the SIMD backends
/// read the column matrix from the image, as [`conv_forward`] does.
pub fn conv_weight_grad(dy: &[f32], img: &[f32], g: &Conv2dGeom, dw: &mut [f32]) {
    g.validate();
    assert_eq!(img.len(), g.c * g.h * g.w, "image size mismatch");
    let (n, k) = (g.col_rows(), g.col_cols());
    assert!(
        dy.len().is_multiple_of(k),
        "kernel::conv_weight_grad dy size"
    );
    let m = dy.len() / k;
    assert_eq!(dw.len(), m * n, "kernel::conv_weight_grad dW size");
    #[cfg(target_arch = "x86_64")]
    if let Some(core) = simd_core(n) {
        let b = gemm::Rhs::Image(img, g);
        // SAFETY: the backend detected the core's feature; the sizes are
        // asserted above.
        return unsafe { core(Layout::Nt, dy, b, dw.as_mut_ptr(), [m, k, n]) };
    }
    scalar::conv_weight_grad(dy, img, g, dw)
}

// ---------------------------------------------------------------------------
// Bit packing
// ---------------------------------------------------------------------------

/// Pack 2-bit symbols (values `0..=3`) four per byte, low bits first.
/// `out.len()` must be `symbols.len().div_ceil(4)`; fully overwritten.
pub fn pack_2bit(symbols: &[u8], out: &mut [u8]) {
    assert_eq!(
        out.len(),
        symbols.len().div_ceil(4),
        "kernel::pack_2bit output size"
    );
    dispatch!(
        avx2::pack_2bit(symbols, out),
        scalar::pack_2bit(symbols, out)
    )
}

/// Unpack 2-bit symbols; `out.len()` selects how many.
pub fn unpack_2bit(bytes: &[u8], out: &mut [u8]) {
    assert!(
        bytes.len() * 4 >= out.len(),
        "kernel::unpack_2bit byte stream too short"
    );
    dispatch!(
        avx2::unpack_2bit(bytes, out),
        scalar::unpack_2bit(bytes, out)
    )
}

/// Pack booleans eight per byte, low bits first. `out.len()` must be
/// `bits.len().div_ceil(8)`; fully overwritten.
pub fn pack_1bit(bits: &[bool], out: &mut [u8]) {
    assert_eq!(
        out.len(),
        bits.len().div_ceil(8),
        "kernel::pack_1bit output size"
    );
    dispatch!(avx2::pack_1bit(bits, out), scalar::pack_1bit(bits, out))
}

/// Unpack booleans; `out.len()` selects how many.
pub fn unpack_1bit(bytes: &[u8], out: &mut [bool]) {
    assert!(
        bytes.len() * 8 >= out.len(),
        "kernel::unpack_1bit byte stream too short"
    );
    dispatch!(
        avx2::unpack_1bit(bytes, out),
        scalar::unpack_1bit(bytes, out)
    )
}

// ---------------------------------------------------------------------------
// Quantizer scans and decode-accumulate
// ---------------------------------------------------------------------------

/// 2-bit threshold scan over an already-corrected vector, storing the
/// new residual `x - q` into `res`.
pub fn threshold_scan_store(corrected: &[f32], thr: f32, symbols: &mut [u8], res: &mut [f32]) {
    assert_eq!(
        corrected.len(),
        symbols.len(),
        "kernel::threshold_scan_store size"
    );
    assert_eq!(
        corrected.len(),
        res.len(),
        "kernel::threshold_scan_store size"
    );
    dispatch!(
        avx2::threshold_scan_store(corrected, thr, symbols, res),
        scalar::threshold_scan_store(corrected, thr, symbols, res)
    )
}

/// The 2-bit quantizer in one pass: per element `x = grad[i] + res[i]`;
/// symbol 1 (`q = thr`) if `x ≥ thr`, symbol 2 (`q = -thr`) if
/// `x ≤ -thr`, else symbol 0 (`q = 0`); `res[i] = x - q`; and the
/// symbols come out already packed four per byte like [`pack_2bit`] —
/// [`scalar::threshold_scan_residual`] then `pack_2bit`, with no symbol
/// array in between. Without `res` (the error-feedback
/// ablation) `grad[i]` itself is scanned and only `packed` is written.
/// `packed.len()` must be `grad.len().div_ceil(4)`; fully overwritten.
pub fn quantize_2bit(grad: &[f32], thr: f32, res: Option<&mut [f32]>, packed: &mut [u8]) {
    assert_eq!(
        packed.len(),
        grad.len().div_ceil(4),
        "kernel::quantize_2bit output size"
    );
    if let Some(res) = &res {
        assert_eq!(grad.len(), res.len(), "kernel::quantize_2bit size");
    }
    dispatch!(
        avx2::quantize_2bit(grad, thr, res, packed),
        scalar::quantize_2bit(grad, thr, res, packed)
    )
}

/// 1-bit sign scan with residual feedback: `bits[i] = x ≥ 0`,
/// `res[i] = x - (±scale)`.
pub fn sign_residual(corrected: &[f32], scale: f32, bits: &mut [bool], res: &mut [f32]) {
    assert_eq!(corrected.len(), bits.len(), "kernel::sign_residual size");
    assert_eq!(corrected.len(), res.len(), "kernel::sign_residual size");
    dispatch!(
        avx2::sign_residual(corrected, scale, bits, res),
        scalar::sign_residual(corrected, scale, bits, res)
    )
}

/// Fused 2-bit decode + accumulate: code 1 adds `thr`, code 2 subtracts
/// it, code 0 leaves the accumulator bits untouched (no `+ 0.0`).
pub fn unpack_2bit_add(packed: &[u8], thr: f32, out: &mut [f32]) {
    assert!(
        packed.len() * 4 >= out.len(),
        "kernel::unpack_2bit_add byte stream too short"
    );
    dispatch!(
        avx2::unpack_2bit_add(packed, thr, out),
        scalar::unpack_2bit_add(packed, thr, out)
    )
}

/// [`unpack_2bit_add`] into an accumulator taken as all `+0.0`: every
/// element is written and none is read, with the bits `out.fill(0.0)`
/// followed by `unpack_2bit_add` leaves.
pub fn unpack_2bit_store(packed: &[u8], thr: f32, out: &mut [f32]) {
    assert!(
        packed.len() * 4 >= out.len(),
        "kernel::unpack_2bit_store byte stream too short"
    );
    dispatch!(
        avx2::unpack_2bit_store(packed, thr, out),
        scalar::unpack_2bit_store(packed, thr, out)
    )
}

/// Fused 1-bit decode + accumulate: every element gets `±scale`.
pub fn unpack_1bit_add(signs: &[u8], scale: f32, out: &mut [f32]) {
    assert!(
        signs.len() * 8 >= out.len(),
        "kernel::unpack_1bit_add byte stream too short"
    );
    dispatch!(
        avx2::unpack_1bit_add(signs, scale, out),
        scalar::unpack_1bit_add(signs, scale, out)
    )
}

/// [`unpack_1bit_add`] into an accumulator taken as all `+0.0`.
pub fn unpack_1bit_store(signs: &[u8], scale: f32, out: &mut [f32]) {
    assert!(
        signs.len() * 8 >= out.len(),
        "kernel::unpack_1bit_store byte stream too short"
    );
    dispatch!(
        avx2::unpack_1bit_store(signs, scale, out),
        scalar::unpack_1bit_store(signs, scale, out)
    )
}

#[cfg(test)]
mod tests {
    /// The contract the thread-local GEMM scratch relies on, at sizes
    /// large enough that a tiling kernel would have split them.
    #[test]
    fn kernels_run_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let mut y = vec![1.0f32; 1 << 20];
        super::map_inplace(&mut y, |v| {
            assert_eq!(std::thread::current().id(), caller, "left its caller");
            v + 1.0
        });

        // A GEMM takes no closure to report from; what shows where it ran
        // is whose scratch it filled (one scratch serves both widths, so
        // this holds whichever one `n` picked).
        #[cfg(target_arch = "x86_64")]
        if super::simd_active() {
            let (m, k, n) = (1024, 16, 1024);
            let (a, b) = (vec![1.0f32; k * m], vec![1.0f32; k * n]);
            let mut c = vec![0.0f32; m * n];
            super::gemm::take_scratch();
            super::gemm_tn(&a, &b, &mut c, m, k, n);
            assert!(super::gemm::take_scratch(), "gemm_tn left its caller");
        }
    }

    /// Both GEMM widths against the scalar reference, called directly so
    /// the ymm core stays tested at `n ≥ 128` on hosts where dispatch
    /// would take zmm there. Every `n` edge of a 64- and a 128-column
    /// panel and every `k` edge of a slice, with dense and half-zero A
    /// and ±0/NaN/±Inf specials. NN and TN start from a C of NaNs, so a
    /// first slice that read C instead of starting from `+0.0` shows;
    /// NT accumulates onto ordinary values. Any NaN matches any NaN (the
    /// GEMMs' contract); every other value must be bit-equal.
    #[cfg(target_arch = "x86_64")]
    mod gemm_widths {
        use super::super::gemm::{self, KC};
        use super::super::scalar;
        use super::super::Layout;
        use proptest::prelude::*;

        const NS: [usize; 11] = [1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 257];
        const KS: [usize; 5] = [0, 1, KC - 1, KC, KC + 1];
        const SPECIALS: [f32; 5] = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

        type Entry = super::super::Core;

        /// Deterministic values: ordinary, an occasional special, and with
        /// `sparse` about half exact zeros of either sign.
        fn values(seed: u64, len: usize, sparse: bool) -> Vec<f32> {
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            (0..len)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    match s % 32 {
                        0 => SPECIALS[(s >> 8) as usize % SPECIALS.len()],
                        r if sparse && r % 2 == 1 => SPECIALS[r as usize / 16],
                        _ => ((s >> 16) as i32 % 1000) as f32 / 37.0,
                    }
                })
                .collect()
        }

        fn same_values(got: &[f32], want: &[f32]) -> bool {
            got.iter()
                .zip(want)
                .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn ymm_and_zmm_match_the_reference(seed in 0u64..1 << 20, m in 1usize..5, sparse in 0u8..2) {
                let widths: [(&str, bool, Entry); 2] = [
                    ("ymm", std::arch::is_x86_feature_detected!("avx2"), gemm::ymm),
                    ("zmm", std::arch::is_x86_feature_detected!("avx512f"), gemm::zmm),
                ];
                for (n, k) in NS.iter().flat_map(|&n| KS.map(|k| (n, k))) {
                    let a = values(seed, m * k, sparse == 1);
                    let b = values(seed + 1, k * n, false);
                    let nans = vec![f32::NAN; m * n];
                    let acc = values(seed + 2, m * n, false);
                    for layout in [Layout::Nn, Layout::Nt, Layout::Tn] {
                        let (start, mut want) = match layout {
                            Layout::Nt => (acc.clone(), acc.clone()),
                            Layout::Nn | Layout::Tn => (nans.clone(), nans.clone()),
                        };
                        // The same buffers serve every layout: A read as
                        // [m, k] or [k, m], B as [k, n] or [n, k].
                        match layout {
                            Layout::Nn => scalar::gemm_block(&a, &b, 0..m, &mut want, k, n),
                            Layout::Nt => scalar::gemm_nt_block(&a, &b, 0..m, &mut want, k, n),
                            Layout::Tn => scalar::gemm_tn_block(&a, &b, 0..m, &mut want, m, k, n),
                        }
                        for &(width, _, entry) in widths.iter().filter(|w| w.1) {
                            let mut got = start.clone();
                            // SAFETY: the width's feature was detected above;
                            // the slices have the sizes `kernel::gemm*` assert.
                                let b = gemm::Rhs::Dense(&b);
                            unsafe { entry(layout, &a, b, got.as_mut_ptr(), [m, k, n]) };
                            prop_assert!(same_values(&got, &want), "{width} {m}x{k}x{n} layout {}", layout as u8);
                        }
                    }
                }
            }
        }

        /// The image operand at both widths, called directly (so the ymm
        /// instance also runs where dispatch would take zmm), NN and NT,
        /// against the explicit unroll and the reference products — with
        /// output widths on both sides of a zmm panel, a stride-3
        /// geometry (the one-lane-at-a-time gather) and specials in every
        /// operand.
        #[test]
        fn image_operand_matches_the_unroll_at_both_widths() {
            use crate::Conv2dGeom;
            let widths: [(bool, Entry); 2] = [
                (std::arch::is_x86_feature_detected!("avx2"), gemm::ymm),
                (std::arch::is_x86_feature_detected!("avx512f"), gemm::zmm),
            ];
            let geoms = [
                (2, 5, 33, 3, 1, 1),
                (3, 6, 9, 3, 2, 1),
                (6, 5, 9, 5, 1, 2),
                (1, 1, 1, 3, 1, 1),
                (4, 9, 7, 3, 2, 0),
                (2, 7, 7, 3, 3, 1),
                (8, 16, 16, 3, 2, 1),
            ];
            for (seed, (c, h, w, kk, stride, pad)) in (0u64..).zip(geoms) {
                let g = Conv2dGeom {
                    c,
                    h,
                    w,
                    kh: kk,
                    kw: kk,
                    stride,
                    pad,
                };
                let (rows, cols) = (g.col_rows(), g.col_cols());
                let img = values(seed, c * h * w, false);
                let mut col = vec![f32::NAN; rows * cols];
                scalar::im2col_into(&img, &g, &mut col);
                for m in [1, 5] {
                    let a = values(seed + 1, m * rows.max(cols), m == 5);
                    let acc = values(seed + 2, m * rows, false);
                    let mut nn = vec![f32::NAN; m * cols];
                    scalar::gemm_block(&a[..m * rows], &col, 0..m, &mut nn, rows, cols);
                    let mut nt = acc.clone();
                    scalar::gemm_nt_block(&a[..m * cols], &col, 0..m, &mut nt, cols, rows);
                    for &(_, entry) in widths.iter().filter(|w| w.0) {
                        let b = gemm::Rhs::Image(&img, &g);
                        let mut got = vec![f32::NAN; m * cols];
                        // SAFETY: the width's feature was detected above;
                        // A and C have the sizes `kernel::conv_*` assert.
                        unsafe {
                            entry(
                                Layout::Nn,
                                &a[..m * rows],
                                b,
                                got.as_mut_ptr(),
                                [m, rows, cols],
                            )
                        };
                        assert!(same_values(&got, &nn), "NN m={m} {g:?}");
                        let mut got = acc.clone();
                        // SAFETY: as for NN; C holds `m·rows` floats.
                        unsafe {
                            entry(
                                Layout::Nt,
                                &a[..m * cols],
                                b,
                                got.as_mut_ptr(),
                                [m, cols, rows],
                            )
                        };
                        assert!(same_values(&got, &nt), "NT m={m} {g:?}");
                    }
                }
            }
        }
    }
}
