//! Unified SIMD kernel layer: the single dispatch surface for every
//! compute-bound inner loop in the workspace.
//!
//! All four hot layers route through this module — `cdsgd-tensor`
//! (GEMM, elementwise, reductions, im2col), `cdsgd-nn` (dense/conv
//! forward+backward, activations, losses), `cdsgd-compress` (2-bit and
//! 1-bit quantizer scans, bit packing, residual accumulation), and
//! `cdsgd-ps` (optimizer `apply` and `apply_update`). Each primitive
//! has exactly one scalar reference implementation in [`scalar`] and,
//! where profitable, a hand-written AVX2 twin in `avx2`.
//!
//! # Dispatch
//!
//! The backend is chosen once per process and cached in a `OnceLock`:
//!
//! * `CDSGD_FORCE_SCALAR` set to anything except `""`/`"0"` pins the
//!   scalar reference path (CI runs the whole workspace this way as a
//!   second pass).
//! * Otherwise, on `x86_64`, `is_x86_feature_detected!("avx2")` selects
//!   the AVX2 backend at runtime.
//! * Every other architecture always takes the scalar path.
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
//! computed values — [`dot`] and the three GEMMs; for those the contract
//! (and `tests/kernel_identity.rs`, which feeds all of them NaN/Inf
//! specials in both profiles) is: a NaN exactly where the reference has
//! a NaN, every other value bit-equal.
//!
//! Tail handling: vector bodies process the largest lane-width multiple
//! and fall back to the scalar loop for the remainder, so
//! non-multiple-of-8 lengths exercise both paths in one call.
//!
//! # Parallel tiling
//!
//! Large inputs are tiled across threads with rayon behind a single
//! size threshold, `CDSGD_PAR_THRESHOLD` (work items; default `65536`,
//! `off` disables). Elementwise kernels count elements and split into
//! 16 Ki-element tiles. GEMM counts `m·n·k` and hands each thread one
//! contiguous range of C rows, and only when every spawned thread takes
//! at least the threshold off the caller's critical path (a `t`-way
//! split saves `m·n·k·(1 − 1/t)` and costs `t` spawns). Tiling never
//! changes results: every tile is an independent output range. Packing,
//! quantizer scans, and reductions never tile — they are memory-bound
//! or order-pinned.

pub mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

use rayon::prelude::*;
use std::ops::Range;
use std::sync::OnceLock;

/// Which kernel backend this process dispatches to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// Portable scalar reference implementations.
    Scalar,
    /// Hand-written AVX2 (`std::arch`) implementations.
    Avx2,
}

impl Backend {
    /// Human-readable name, used by benches and trace output.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
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
            return Backend::Avx2;
        }
        Backend::Scalar
    })
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn simd_active() -> bool {
    backend() == Backend::Avx2
}

/// Work-item threshold above which kernels tile across threads.
///
/// Read once from `CDSGD_PAR_THRESHOLD` (`off` → never parallelize,
/// otherwise a count; default 65536) and cached.
pub fn par_threshold() -> usize {
    static THRESHOLD: OnceLock<usize> = OnceLock::new();
    const DEFAULT: usize = 64 * 1024;
    *THRESHOLD.get_or_init(|| match std::env::var("CDSGD_PAR_THRESHOLD") {
        Ok(v) if v.trim().eq_ignore_ascii_case("off") => usize::MAX,
        Ok(v) => v.trim().parse().unwrap_or(DEFAULT),
        Err(_) => DEFAULT,
    })
}

/// Elementwise tile size (elements per rayon task).
const ELEM_TILE: usize = 16 * 1024;

/// Fewest C rows a GEMM thread is handed.
const ROW_BLOCK: usize = 32;

/// How many threads an `m`×`n`×`k` GEMM is split over on a host with
/// `cores` of them: 1 (no split) unless every spawned thread is worth
/// its spawn, judged from the shape alone. With `t` threads the caller's
/// critical path shrinks from `m·n·k` work items to its `1/t` share, and
/// that saving is what `t` spawns buy; each must buy at least
/// `threshold` items. (Counting the total against the threshold, as this
/// used to, spawned two threads for the MLP's last `dW`,
/// `[1024,16]ᵀ×[16,10]`, and doubled its time.)
fn gemm_threads(m: usize, n: usize, k: usize, cores: usize, threshold: usize) -> usize {
    let work = m.saturating_mul(n).saturating_mul(k);
    let t = cores.min(m / ROW_BLOCK);
    if t < 2 || (work - work / t) / t < threshold {
        1
    } else {
        t
    }
}

/// Run `body(rows, c_rows)` over the `m` rows of the row-major `m`×`n`
/// output `c`: in one call, or as one contiguous row range per thread
/// ([`gemm_threads`]), so a packing backend packs once per thread, not
/// once per block.
fn parallel_rows<F>(c: &mut [f32], m: usize, n: usize, k: usize, body: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    // Cached: the query is a syscall plus cgroup file reads, several
    // microseconds — more than a small GEMM.
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |t| t.get()));
    let threads = gemm_threads(m, n, k, cores, par_threshold());
    if threads == 1 {
        body(0..m, c);
        return;
    }
    let rows_each = m.div_ceil(threads);
    c.par_chunks_mut(rows_each * n)
        .enumerate()
        .for_each(|(t, chunk)| {
            let start = t * rows_each;
            body(start..start + chunk.len() / n, chunk);
        });
}

/// Tile an elementwise kernel over `y` (and any same-length inputs,
/// addressed by the tile's element offset) when it is large enough.
fn tiled<F>(y: &mut [f32], body: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if y.len() < par_threshold() {
        body(0, y);
        return;
    }
    y.par_chunks_mut(ELEM_TILE)
        .enumerate()
        .for_each(|(t, chunk)| body(t * ELEM_TILE, chunk));
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
    tiled(y, |off, chunk| {
        let x = &x[off..off + chunk.len()];
        dispatch!(avx2::axpy(alpha, x, chunk), scalar::axpy(alpha, x, chunk))
    });
}

/// `y[i] *= s`.
pub fn scale(y: &mut [f32], s: f32) {
    tiled(y, |_, chunk| {
        dispatch!(avx2::scale(chunk, s), scalar::scale(chunk, s))
    });
}

/// `y[i] += x[i]`.
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(x.len(), y.len(), "kernel::add_assign length mismatch");
    tiled(y, |off, chunk| {
        let x = &x[off..off + chunk.len()];
        dispatch!(avx2::add_assign(chunk, x), scalar::add_assign(chunk, x))
    });
}

/// `y[i] += b`.
pub fn add_scalar(y: &mut [f32], b: f32) {
    tiled(y, |_, chunk| {
        dispatch!(avx2::add_scalar(chunk, b), scalar::add_scalar(chunk, b))
    });
}

/// `out[i] = a[i] + b[i]`.
pub fn add_into(out: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(out.len(), a.len(), "kernel::add_into length mismatch");
    assert_eq!(out.len(), b.len(), "kernel::add_into length mismatch");
    tiled(out, |off, chunk| {
        let a = &a[off..off + chunk.len()];
        let b = &b[off..off + chunk.len()];
        dispatch!(avx2::add_into(chunk, a, b), scalar::add_into(chunk, a, b))
    });
}

/// `out[i] = a[i] + alpha * b[i]`.
pub fn scale_add(out: &mut [f32], a: &[f32], alpha: f32, b: &[f32]) {
    assert_eq!(out.len(), a.len(), "kernel::scale_add length mismatch");
    assert_eq!(out.len(), b.len(), "kernel::scale_add length mismatch");
    tiled(out, |off, chunk| {
        let a = &a[off..off + chunk.len()];
        let b = &b[off..off + chunk.len()];
        dispatch!(
            avx2::scale_add(chunk, a, alpha, b),
            scalar::scale_add(chunk, a, alpha, b)
        )
    });
}

/// `out[i] = w[i] - step * g[i]` — kept as its own primitive (rather
/// than `scale_add` with `-step`) so NaN-payload and `-0.0` behavior
/// match the historical `w - step * g` expression exactly.
pub fn sgd_step(out: &mut [f32], w: &[f32], g: &[f32], step: f32) {
    assert_eq!(out.len(), w.len(), "kernel::sgd_step length mismatch");
    assert_eq!(out.len(), g.len(), "kernel::sgd_step length mismatch");
    tiled(out, |off, chunk| {
        let w = &w[off..off + chunk.len()];
        let g = &g[off..off + chunk.len()];
        dispatch!(
            avx2::sgd_step(chunk, w, g, step),
            scalar::sgd_step(chunk, w, g, step)
        )
    });
}

/// `v[i] = mu * v[i] + g[i]` (momentum decay-accumulate).
pub fn decay_add(v: &mut [f32], mu: f32, g: &[f32]) {
    assert_eq!(v.len(), g.len(), "kernel::decay_add length mismatch");
    tiled(v, |off, chunk| {
        let g = &g[off..off + chunk.len()];
        dispatch!(
            avx2::decay_add(chunk, mu, g),
            scalar::decay_add(chunk, mu, g)
        )
    });
}

/// `out[i] = w[i] - step * (g[i] + mu * v[i])` (Nesterov lookahead).
pub fn nesterov_step(out: &mut [f32], w: &[f32], g: &[f32], v: &[f32], step: f32, mu: f32) {
    assert_eq!(out.len(), w.len(), "kernel::nesterov_step length mismatch");
    assert_eq!(out.len(), g.len(), "kernel::nesterov_step length mismatch");
    assert_eq!(out.len(), v.len(), "kernel::nesterov_step length mismatch");
    tiled(out, |off, chunk| {
        let w = &w[off..off + chunk.len()];
        let g = &g[off..off + chunk.len()];
        let v = &v[off..off + chunk.len()];
        dispatch!(
            avx2::nesterov_step(chunk, w, g, v, step, mu),
            scalar::nesterov_step(chunk, w, g, v, step, mu)
        )
    });
}

// ---------------------------------------------------------------------------
// Generic map / zip
// ---------------------------------------------------------------------------

/// `y[i] = f(y[i])`, tiled across threads for large `y`. No SIMD path:
/// `f` is opaque, but the single implementation still deduplicates the
/// loop and picks up tiling.
pub fn map_inplace<F>(y: &mut [f32], f: F)
where
    F: Fn(f32) -> f32 + Sync,
{
    tiled(y, |_, chunk| {
        for v in chunk.iter_mut() {
            *v = f(*v);
        }
    });
}

/// `out[i] = f(x[i])`.
pub fn map_into<F>(out: &mut [f32], x: &[f32], f: F)
where
    F: Fn(f32) -> f32 + Sync,
{
    assert_eq!(out.len(), x.len(), "kernel::map_into length mismatch");
    tiled(out, |off, chunk| {
        let x = &x[off..off + chunk.len()];
        for (o, &v) in chunk.iter_mut().zip(x) {
            *o = f(v);
        }
    });
}

/// `y[i] = f(y[i], x[i])`.
pub fn zip_inplace<F>(y: &mut [f32], x: &[f32], f: F)
where
    F: Fn(f32, f32) -> f32 + Sync,
{
    assert_eq!(y.len(), x.len(), "kernel::zip_inplace length mismatch");
    tiled(y, |off, chunk| {
        let x = &x[off..off + chunk.len()];
        for (o, &v) in chunk.iter_mut().zip(x) {
            *o = f(*o, v);
        }
    });
}

/// `out[i] = f(a[i], b[i])`.
pub fn zip_into<F>(out: &mut [f32], a: &[f32], b: &[f32], f: F)
where
    F: Fn(f32, f32) -> f32 + Sync,
{
    assert_eq!(out.len(), a.len(), "kernel::zip_into length mismatch");
    assert_eq!(out.len(), b.len(), "kernel::zip_into length mismatch");
    tiled(out, |off, chunk| {
        for (i, o) in chunk.iter_mut().enumerate() {
            *o = f(a[off + i], b[off + i]);
        }
    });
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
// GEMM
// ---------------------------------------------------------------------------

/// `C[m,n] += A[m,k] · B[k,n]`, row-major, parallel over C row ranges.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "kernel::gemm A size");
    assert_eq!(b.len(), k * n, "kernel::gemm B size");
    assert_eq!(c.len(), m * n, "kernel::gemm C size");
    parallel_rows(c, m, n, k, |rows, chunk| {
        dispatch!(
            avx2::gemm_block(a, b, rows, chunk, k, n),
            scalar::gemm_block(a, b, rows, chunk, k, n)
        )
    });
}

/// `C[m,n] += A[m,k] · B[n,k]ᵀ`.
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "kernel::gemm_nt A size");
    assert_eq!(b.len(), n * k, "kernel::gemm_nt B size");
    assert_eq!(c.len(), m * n, "kernel::gemm_nt C size");
    parallel_rows(c, m, n, k, |rows, chunk| {
        dispatch!(
            avx2::gemm_nt_block(a, b, rows, chunk, k, n),
            scalar::gemm_nt_block(a, b, rows, chunk, k, n)
        )
    });
}

/// `C[m,n] += A[k,m]ᵀ · B[k,n]`.
pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "kernel::gemm_tn A size");
    assert_eq!(b.len(), k * n, "kernel::gemm_tn B size");
    assert_eq!(c.len(), m * n, "kernel::gemm_tn C size");
    parallel_rows(c, m, n, k, |rows, chunk| {
        dispatch!(
            avx2::gemm_tn_block(a, b, rows, chunk, m, k, n),
            scalar::gemm_tn_block(a, b, rows, chunk, m, k, n)
        )
    });
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

/// 2-bit threshold scan with residual feedback: per element,
/// `x = grad[i] + res[i]`; symbol 1 (`q = thr`) if `x ≥ thr`, symbol 2
/// (`q = -thr`) if `x ≤ -thr`, else symbol 0 (`q = 0`); `res[i] = x - q`.
pub fn threshold_scan_residual(grad: &[f32], thr: f32, symbols: &mut [u8], res: &mut [f32]) {
    assert_eq!(
        grad.len(),
        symbols.len(),
        "kernel::threshold_scan_residual size"
    );
    assert_eq!(
        grad.len(),
        res.len(),
        "kernel::threshold_scan_residual size"
    );
    dispatch!(
        avx2::threshold_scan_residual(grad, thr, symbols, res),
        scalar::threshold_scan_residual(grad, thr, symbols, res)
    )
}

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

/// 2-bit threshold scan without residual tracking.
pub fn threshold_scan_plain(grad: &[f32], thr: f32, symbols: &mut [u8]) {
    assert_eq!(
        grad.len(),
        symbols.len(),
        "kernel::threshold_scan_plain size"
    );
    dispatch!(
        avx2::threshold_scan_plain(grad, thr, symbols),
        scalar::threshold_scan_plain(grad, thr, symbols)
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

#[cfg(test)]
mod tests {
    use super::gemm_threads;

    #[test]
    fn gemm_splits_only_when_a_spawned_thread_is_worth_it() {
        let threshold = 64 * 1024;
        // The MLP's last dW and last forward product: tiny, never split.
        assert_eq!(gemm_threads(1024, 10, 16, 2, threshold), 1);
        assert_eq!(gemm_threads(16, 10, 1024, 2, threshold), 1);
        // Fewer than two ROW_BLOCKs of rows: nothing to hand out.
        assert_eq!(gemm_threads(63, 4096, 4096, 8, threshold), 1);
        // The MLP's big dW: one range per core, at most one per block.
        assert_eq!(gemm_threads(1024, 1024, 16, 2, threshold), 2);
        assert_eq!(gemm_threads(64, 1024, 1024, 8, threshold), 2);
        // More cores must each still be worth a spawn.
        assert_eq!(gemm_threads(1024, 64, 16, 2, threshold), 2);
        assert_eq!(gemm_threads(1024, 64, 16, 16, threshold), 1);
        assert_eq!(gemm_threads(1024, 10, 16, 2, usize::MAX), 1);
        assert_eq!(gemm_threads(1 << 20, 1 << 20, 1 << 30, 2, usize::MAX), 1);
    }
}
