//! Kernel-layer dispatch sweep: the same primitive ops timed on the
//! scalar reference and on the SIMD backend, one thread each. The
//! streaming ops run across gradient sizes from 4 Ki to 1 Mi elements;
//! the three GEMM layouts run at the shapes a training step of the
//! benchmark's MLP (batch 16, 784-1024-1024-10) and ResNet-8 actually
//! issues, with dense and with ReLU-sparse (half exact zeros) A; the NN
//! and TN rows time `C = A·B` (C written, never read) and the NT rows
//! `C += A·Bᵀ`, as `kernel` defines them. On an AVX-512 host the `simd`
//! mode runs each GEMM at the width dispatch picks for its `n`. The
//! `server_round` rows time where those kernels run on the server: one
//! aggregate round of the MLP's six keys, pushed by two contributors
//! (2-bit and raw) and pulled back through an in-process `ParamServer`.
//! The `im2col_into` / `col2im` rows time one sample's unroll and its
//! adjoint at ResNet-8's convolution geometries; the `conv_forward` and
//! `conv_weight_grad` rows time one sample's implicit-GEMM forward
//! (`W·col(x)`) and weight gradient (`dW += dy·col(x)ᵀ`) there, each
//! beside its explicit form (`im2col_into`, then `gemm` or `gemm_nt`)
//! timed alternately in the same run (`explicit_s`); the
//! `col2im_placed` rows time the stride-2 adjoints with the image placed
//! 0, 64 B, 2 KiB and 4 KiB past the page-aligned end of the column
//! matrix (4K-aliasing between the two shows as a gap between the 64 B
//! and 2 KiB rows and the 0 and 4 KiB ones). The `batchnorm` rows
//! one train-mode forward (and forward + backward) of its batch-norm
//! layers at batch 16, and the `channel_sums` rows each of the four
//! per-channel sums those layers take (mean, variance, `Σdy`, `Σdy·x̂`).
//! The elementwise rows time each kernel whose AVX2 body is its scalar
//! source compiled again (`axpy` … `sign_residual`, batch norm's two
//! passes over 8 channels) at 2 Ki elements (the server's block), 16 Ki
//! and 1 Mi; the `encode` rows one `compress_into` of every codec (2-bit
//! with and without residual, 1-bit, QSGD at 4 levels, top-1 %, raw) at
//! 64 Ki and 1 Mi, its payload recycled into the pool it came from, and
//! the `decode` rows one 2-bit `decompress`. Those rows all work in one
//! arena allocated once (see [`REGION`]), so every run puts each operand
//! at the same place, and record the quartiles beside the median. The
//! `emit` rows, timed once in the parent process since an emit has no
//! SIMD path, are one telemetry event emitted on a disabled handle and
//! into a `NullSink` — what an instrumented site costs an untraced run.
//! Emits `BENCH_kernels.json` and prints
//! a speedup table, a GFLOP/s table, the conv/BN medians and the
//! server-round quartiles.
//!
//! The backend choice is cached per process (`CDSGD_FORCE_SCALAR` is
//! read once), so each mode runs in a child process: the parent
//! re-executes this binary with the right environment and merges the
//! JSON each child prints.
//!
//! ```text
//! cargo run --release -p cdsgd-bench --bin kernels [--iters 7]
//! ```

use std::hint::black_box;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use cd_sgd::{Event, NullSink, Telemetry};
use cdsgd_bench::arg_usize;
use cdsgd_compress::{
    decompress, BufferPool, Compressed, GradientCompressor, NoCompression, OneBitQuantizer,
    QsgdQuantizer, TopKSparsifier, TwoBitQuantizer,
};
use cdsgd_nn::{BatchNorm2d, Layer, Mode};
use cdsgd_ps::{ParamClient, ParamServer, ServerConfig};
use cdsgd_tensor::kernel::{self, ChannelTerm};
use cdsgd_tensor::{col2im, im2col_into, Conv2dGeom, Tensor};

const CHILD_ENV: &str = "CDSGD_KERNELS_CHILD";
const MARKER: &str = "KERNELS_JSON ";

/// Element counts swept, with display labels.
const SIZES: [(usize, &str); 4] = [
    (4 * 1024, "4Ki"),
    (64 * 1024, "64Ki"),
    (256 * 1024, "256Ki"),
    (1024 * 1024, "1Mi"),
];

const OPS: [&str; 4] = ["pack_2bit", "unpack_2bit", "quantize_2bit", "apply_update"];

/// Element counts of the elementwise rows: the server round's block
/// (`BLOCK` in `ps/shard.rs`), 16 Ki and 1 Mi.
const MAP_SIZES: [(usize, &str); 3] = [(2 * 1024, "2Ki"), (16 * 1024, "16Ki"), (1 << 20, "1Mi")];

/// The kernels whose AVX2 body is their scalar source compiled again.
const MAPS: [&str; 14] = [
    "axpy",
    "scale",
    "add_assign",
    "add_scalar",
    "add_into",
    "zero_add",
    "scale_add",
    "sgd_step",
    "decay_add",
    "nesterov_step",
    "threshold_scan_store",
    "sign_residual",
    "bn_normalize",
    "bn_input_grad",
];

/// Element counts of the `encode` and `decode` rows.
const CODEC_SIZES: [(usize, &str); 2] = [(64 * 1024, "64Ki"), (1 << 20, "1Mi")];

/// The two dispatch modes, with the `CDSGD_FORCE_SCALAR` value (if any)
/// that selects each.
const MODES: [(&str, Option<&str>); 2] = [("scalar", Some("1")), ("simd", None)];

/// GEMM layout of a [`SHAPES`] row, named as `kernel` names them.
#[derive(Clone, Copy)]
enum Layout {
    /// `C[m,n] = A[m,k] · B[k,n]` — every forward product.
    Nn,
    /// `C[m,n] += A[m,k] · B[n,k]ᵀ` — `dX = dY·Wᵀ`, conv `dW`.
    Nt,
    /// `C[m,n] = A[k,m]ᵀ · B[k,n]` — dense `dW = Xᵀ·dY`, conv `dcol`.
    Tn,
}

impl Layout {
    fn op(self) -> &'static str {
        match self {
            Layout::Nn => "gemm_nn",
            Layout::Nt => "gemm_nt",
            Layout::Tn => "gemm_tn",
        }
    }
}

/// `(layout, m, k, n, which product of which model)`: every GEMM one
/// step of the benchmark MLP (batch 16) issues, and every GEMM of
/// ResNet-8 (`resnet_cifar(8, 1, 10)`; per sample `W·col`, `dy·colᵀ`,
/// `Wᵀ·dy` for each convolution, then the dense head).
const SHAPES: [(Layout, usize, usize, usize, &str); 36] = [
    (Layout::Nn, 16, 784, 1024, "mlp fwd 1"),
    (Layout::Nn, 16, 1024, 1024, "mlp fwd 2"),
    (Layout::Nn, 16, 1024, 10, "mlp fwd 3"),
    (Layout::Nt, 16, 10, 1024, "mlp dX 3"),
    (Layout::Nt, 16, 1024, 1024, "mlp dX 2"),
    (Layout::Nt, 16, 1024, 784, "mlp dX 1"),
    (Layout::Tn, 1024, 16, 10, "mlp dW 3"),
    (Layout::Tn, 1024, 16, 1024, "mlp dW 2"),
    (Layout::Tn, 784, 16, 1024, "mlp dW 1"),
    (Layout::Nn, 8, 27, 1024, "resnet8 fwd 3>8 @32"),
    (Layout::Nn, 8, 72, 1024, "resnet8 fwd 8>8 @32"),
    (Layout::Nn, 16, 72, 256, "resnet8 fwd 8>16 @16"),
    (Layout::Nn, 16, 144, 256, "resnet8 fwd 16>16 @16"),
    (Layout::Nn, 16, 8, 256, "resnet8 fwd 1x1 8>16"),
    (Layout::Nn, 32, 144, 64, "resnet8 fwd 16>32 @8"),
    (Layout::Nn, 32, 288, 64, "resnet8 fwd 32>32 @8"),
    (Layout::Nn, 32, 16, 64, "resnet8 fwd 1x1 16>32"),
    (Layout::Nn, 16, 32, 10, "resnet8 fwd head"),
    (Layout::Nt, 8, 1024, 27, "resnet8 dW 3>8 @32"),
    (Layout::Nt, 8, 1024, 72, "resnet8 dW 8>8 @32"),
    (Layout::Nt, 16, 256, 72, "resnet8 dW 8>16 @16"),
    (Layout::Nt, 16, 256, 144, "resnet8 dW 16>16 @16"),
    (Layout::Nt, 16, 256, 8, "resnet8 dW 1x1 8>16"),
    (Layout::Nt, 32, 64, 144, "resnet8 dW 16>32 @8"),
    (Layout::Nt, 32, 64, 288, "resnet8 dW 32>32 @8"),
    (Layout::Nt, 32, 64, 16, "resnet8 dW 1x1 16>32"),
    (Layout::Nt, 16, 10, 32, "resnet8 dX head"),
    (Layout::Tn, 27, 8, 1024, "resnet8 dcol 3>8 @32"),
    (Layout::Tn, 72, 8, 1024, "resnet8 dcol 8>8 @32"),
    (Layout::Tn, 72, 16, 256, "resnet8 dcol 8>16 @16"),
    (Layout::Tn, 144, 16, 256, "resnet8 dcol 16>16 @16"),
    (Layout::Tn, 8, 16, 256, "resnet8 dcol 1x1 8>16"),
    (Layout::Tn, 144, 32, 64, "resnet8 dcol 16>32 @8"),
    (Layout::Tn, 288, 32, 64, "resnet8 dcol 32>32 @8"),
    (Layout::Tn, 16, 32, 64, "resnet8 dcol 1x1 16>32"),
    (Layout::Tn, 32, 16, 10, "resnet8 dW head"),
];

/// `(in_c, out_c, hw, k, stride, pad, which convolution)`: ResNet-8's
/// convolutions, one sample each — the unrolls and `col2im` scatters,
/// the implicit-GEMM forward and weight gradient — all nine of them,
/// the two 8→8 at 32×32 sharing a row.
const CONVS: [(usize, usize, usize, usize, usize, usize, &str); 8] = [
    (3, 8, 32, 3, 1, 1, "resnet8 3>8 @32"),
    (8, 8, 32, 3, 1, 1, "resnet8 8>8 @32"),
    (8, 16, 32, 3, 2, 1, "resnet8 8>16 s2"),
    (16, 16, 16, 3, 1, 1, "resnet8 16>16 @16"),
    (8, 16, 32, 1, 2, 0, "resnet8 1x1 8>16 s2"),
    (16, 32, 16, 3, 2, 1, "resnet8 16>32 s2"),
    (32, 32, 8, 3, 1, 1, "resnet8 32>32 @8"),
    (16, 32, 16, 1, 2, 0, "resnet8 1x1 16>32 s2"),
];

/// Where the `col2im_placed` rows put the image past the page-aligned
/// end of the column matrix, in bytes.
const PLACEMENTS: [usize; 4] = [0, 64, 2048, 4096];

/// `(channels, hw)`: ResNet-8's batch-norm layers, at batch 16.
const BATCHNORMS: [(usize, usize); 3] = [(8, 32), (16, 16), (32, 8)];

fn pseudo(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            // Centered in [-1, 1): symbols fire on both threshold sides.
            (s >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// `[q1, median, q3]` of `times`.
fn quartiles(mut times: Vec<f64>) -> [f64; 3] {
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = times.len();
    [times[n / 4], times[n / 2], times[3 * n / 4]]
}

/// `[q1, median, q3]` wall-clock seconds over `iters` runs of `f`.
fn quartiles_s(iters: usize, mut f: impl FnMut()) -> [f64; 3] {
    quartiles(
        (0..iters)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Median wall-clock seconds over `iters` runs of `f`.
fn median_s(iters: usize, f: impl FnMut()) -> f64 {
    quartiles_s(iters, f)[1]
}

/// `[q1, median, q3]` seconds of one `call`. Small ops finish in
/// microseconds, so a sample is as many calls as fill about two
/// milliseconds.
fn call_quartiles(iters: usize, mut call: impl FnMut()) -> [f64; 3] {
    let once = median_s(3, &mut call);
    let reps = ((2e-3 / once.max(1e-9)) as usize).clamp(1, 10_000);
    quartiles_s(iters, || (0..reps).for_each(|_| call())).map(|s| s / reps as f64)
}

/// Median seconds of one `call` (see [`call_quartiles`]).
fn time_call(iters: usize, call: impl FnMut()) -> f64 {
    call_quartiles(iters, call)[1]
}

/// Median seconds of one call of `first` and of `second`, timed in
/// alternating samples (as [`time_call`] sizes them) so that both see
/// the same stretch of a shared host.
fn time_pair(iters: usize, mut first: impl FnMut(), mut second: impl FnMut()) -> (f64, f64) {
    let once = median_s(3, &mut first).max(median_s(3, &mut second));
    let reps = ((2e-3 / once.max(1e-9)) as usize).clamp(1, 10_000);
    let (mut a, mut b) = (Vec::with_capacity(iters), Vec::with_capacity(iters));
    for _ in 0..iters {
        a.push(median_s(1, || (0..reps).for_each(|_| first())) / reps as f64);
        b.push(median_s(1, || (0..reps).for_each(|_| second())) / reps as f64);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(|x, y| x.partial_cmp(y).unwrap());
        v[v.len() / 2]
    };
    (median(a), median(b))
}

/// Median seconds of one `kernel::gemm*` call at a [`SHAPES`] row.
fn time_gemm(layout: Layout, m: usize, k: usize, n: usize, relu: bool, iters: usize) -> f64 {
    let mut a = pseudo(m * k, 11);
    if relu {
        // `pseudo` is centred on zero: half of A becomes exactly +0.0.
        a.iter_mut().for_each(|v| *v = v.max(0.0));
    }
    let b = pseudo(k * n, 23);
    let mut c = vec![0.0f32; m * n];
    time_call(iters, || {
        let (a, b) = (black_box(&a), black_box(&b));
        match layout {
            Layout::Nn => kernel::gemm(a, b, &mut c, m, k, n),
            Layout::Nt => kernel::gemm_nt(a, b, &mut c, m, k, n),
            Layout::Tn => kernel::gemm_tn(a, b, &mut c, m, k, n),
        }
        black_box(&c);
    })
}

/// The [`CONVS`] and [`BATCHNORMS`] records.
fn conv_bn_records(iters: usize) -> Vec<serde_json::Value> {
    let mut records = Vec::new();
    for (c, m, hw, k, stride, pad, what) in CONVS {
        let g = Conv2dGeom {
            c,
            h: hw,
            w: hw,
            kh: k,
            kw: k,
            stride,
            pad,
        };
        let img = pseudo(c * hw * hw, 83);
        let mut col = pseudo(g.col_rows() * g.col_cols(), 89);
        let shape = format!("{c}x{hw}x{hw} k{k} s{stride} p{pad}");
        let unroll_s = time_call(iters, || {
            im2col_into(black_box(&img), &g, &mut col);
            black_box(&col);
        });
        let mut back = vec![0.0f32; img.len()];
        let scatter_s = time_call(iters, || {
            col2im(black_box(&col), &g, &mut back);
            black_box(&back);
        });
        for (op, s) in [("im2col_into", unroll_s), ("col2im", scatter_s)] {
            records.push(serde_json::json!({
                "op": op, "shape": shape, "what": what, "median_s": s,
            }));
        }
        let (fan_in, plane) = (g.col_rows(), g.col_cols());
        let w = pseudo(m * fan_in, 91);
        let (mut out, mut explicit) = (Vec::with_capacity(m * plane), vec![0.0f32; m * plane]);
        let (implicit_s, explicit_s) = time_pair(
            iters,
            || {
                out.clear();
                kernel::conv_forward(black_box(&w), black_box(&img), &g, &mut out);
                black_box(&out);
            },
            || {
                im2col_into(black_box(&img), &g, &mut col);
                kernel::gemm(black_box(&w), &col, &mut explicit, m, fan_in, plane);
                black_box(&explicit);
            },
        );
        records.push(conv_record(
            "conv_forward",
            &shape,
            m,
            what,
            implicit_s,
            explicit_s,
        ));
        let dy = pseudo(m * plane, 93);
        let (mut dw, mut explicit) = (vec![0.0f32; m * fan_in], vec![0.0f32; m * fan_in]);
        let (implicit_s, explicit_s) = time_pair(
            iters,
            || {
                kernel::conv_weight_grad(black_box(&dy), black_box(&img), &g, &mut dw);
                black_box(&dw);
            },
            || {
                im2col_into(black_box(&img), &g, &mut col);
                kernel::gemm_nt(black_box(&dy), &col, &mut explicit, m, plane, fan_in);
                black_box(&explicit);
            },
        );
        records.push(conv_record(
            "conv_weight_grad",
            &shape,
            m,
            what,
            implicit_s,
            explicit_s,
        ));
        if stride > 1 {
            records.extend(placed_col2im_records(&g, &shape, what, iters));
        }
    }
    for (ch, hw) in BATCHNORMS {
        let shape = [16, ch, hw, hw];
        let x = Tensor::from_vec(shape.to_vec(), pseudo(16 * ch * hw * hw, 97));
        let dy = Tensor::from_vec(shape.to_vec(), pseudo(x.len(), 101));
        let dims = [16, ch, hw * hw];
        let means = pseudo(ch, 103);
        let terms = [
            ("mean", ChannelTerm::Value(x.data())),
            ("var", ChannelTerm::SqDev(x.data(), &means)),
            ("dbeta", ChannelTerm::Value(dy.data())),
            ("dgamma", ChannelTerm::Product(dy.data(), x.data())),
        ];
        for (term, sum) in terms {
            let mut sums = vec![0.0f32; ch];
            let s = time_call(iters, || {
                kernel::channel_sums(dims, 0.0, black_box(sum), |c, v| sums[c] = v);
                black_box(&sums);
            });
            records.push(serde_json::json!({
                "op": "channel_sums", "term": term, "shape": format!("16x{ch}x{hw}x{hw}"),
                "what": format!("resnet8 bn {ch} @{hw} {term}"), "median_s": s,
            }));
        }
        let mut bn = BatchNorm2d::new(ch);
        let fwd_s = time_call(iters, || {
            black_box(bn.forward(black_box(&x), Mode::Train));
        });
        let fwd_bwd_s = time_call(iters, || {
            bn.forward(black_box(&x), Mode::Train);
            black_box(bn.backward(black_box(&dy)));
        });
        for (op, s) in [
            ("batchnorm_forward", fwd_s),
            ("batchnorm_forward_backward", fwd_bwd_s),
        ] {
            records.push(serde_json::json!({
                "op": op, "shape": format!("16x{ch}x{hw}x{hw}"), "what": format!("resnet8 bn {ch} @{hw}"),
                "median_s": s,
            }));
        }
    }
    records
}

/// A `conv_forward` / `conv_weight_grad` record: the implicit GEMM's
/// median and its explicit form's, from one [`time_pair`].
fn conv_record(
    op: &str,
    shape: &str,
    m: usize,
    what: &str,
    implicit_s: f64,
    explicit_s: f64,
) -> serde_json::Value {
    serde_json::json!({
        "op": op, "shape": shape, "out_c": m, "what": what,
        "median_s": implicit_s, "explicit_s": explicit_s,
    })
}

/// The `col2im` adjoint of `g` with the image at each of [`PLACEMENTS`]
/// past the end of the column matrix, both carved from one page-aligned
/// allocation (the column matrix padded to whole pages).
fn placed_col2im_records(
    g: &Conv2dGeom,
    shape: &str,
    what: &str,
    iters: usize,
) -> Vec<serde_json::Value> {
    const PAGE: usize = 4096 / 4;
    let (col_len, img_len) = (g.col_rows() * g.col_cols(), g.c * g.h * g.w);
    let col_span = col_len.next_multiple_of(PAGE);
    let mut buf = vec![0.0f32; PAGE + col_span + PLACEMENTS[3] / 4 + img_len];
    let base = buf.as_ptr().align_offset(4096).min(PAGE - 1);
    let col = pseudo(col_len, 89);
    buf[base..base + col_len].copy_from_slice(&col);
    PLACEMENTS
        .iter()
        .map(|&bytes| {
            let at = base + col_span + bytes / 4;
            let (head, tail) = buf.split_at_mut(at);
            let (col, img) = (&head[base..base + col_len], &mut tail[..img_len]);
            let s = time_call(iters, || {
                col2im(black_box(col), g, img);
                black_box(&img);
            });
            serde_json::json!({
                "op": "col2im_placed", "shape": shape, "what": what,
                "img_offset_bytes": bytes, "median_s": s,
            })
        })
        .collect()
}

/// Floats per region of the arena the elementwise, `encode` and
/// `decode` rows share — four regions, `x` and `z` read, `y` and `out`
/// written: 1 Mi, and one cache line more, so that the regions' starts
/// sit 64 B apart modulo 4 KiB and no two of them alias in the store
/// buffer.
const REGION: usize = (1 << 20) + 16;

/// The first `n` floats of the arena's `x`, `z`, `y` and `out`.
fn regions(arena: &mut [f32], n: usize) -> (&[f32], &[f32], &mut [f32], &mut [f32]) {
    let (x, rest) = arena.split_at_mut(REGION);
    let (z, rest) = rest.split_at_mut(REGION);
    let (y, out) = rest.split_at_mut(REGION);
    (&x[..n], &z[..n], &mut y[..n], &mut out[..n])
}

/// One record per [`MAPS`] kernel and [`MAP_SIZES`] count. The in-place
/// kernels keep `y` bounded however often they run: `scale` flips its
/// sign, `decay_add` halves it, and the adds move it by at most a few
/// hundred thousand over a run.
fn map_records(arena: &mut [f32], iters: usize) -> Vec<serde_json::Value> {
    let (a, b) = (black_box(1e-3f32), black_box(0.5f32));
    let ch = 8;
    let stats: Vec<f32> = pseudo(ch, 41).iter().map(|v| v.abs() + 0.5).collect();
    let per_ch = (&stats[..], &stats[..]);
    let (mut bytes, mut bools) = (vec![0u8; 1 << 20], vec![false; 1 << 20]);
    let mut appended = Vec::with_capacity(1 << 20);
    let mut records = Vec::new();
    for (n, label) in MAP_SIZES {
        let (x, z, y, out) = regions(arena, n);
        let (bytes, bools, dims) = (&mut bytes[..n], &mut bools[..n], [1, ch, n / ch]);
        for op in MAPS {
            let [q1, median, q3] = match op {
                "axpy" => call_quartiles(iters, || kernel::axpy(a, x, y)),
                "scale" => call_quartiles(iters, || kernel::scale(y, -1.0)),
                "add_assign" => call_quartiles(iters, || kernel::add_assign(y, x)),
                "add_scalar" => call_quartiles(iters, || kernel::add_scalar(y, a)),
                "add_into" => call_quartiles(iters, || kernel::add_into(out, x, z)),
                "zero_add" => call_quartiles(iters, || kernel::zero_add(out, x)),
                "scale_add" => call_quartiles(iters, || kernel::scale_add(out, x, a, z)),
                "sgd_step" => call_quartiles(iters, || kernel::sgd_step(out, x, z, a)),
                "decay_add" => call_quartiles(iters, || kernel::decay_add(y, b, x)),
                "nesterov_step" => {
                    call_quartiles(iters, || kernel::nesterov_step(out, x, z, y, a, b))
                }
                "threshold_scan_store" => {
                    call_quartiles(iters, || kernel::threshold_scan_store(x, b, bytes, out))
                }
                "sign_residual" => {
                    call_quartiles(iters, || kernel::sign_residual(x, a, bools, out))
                }
                "bn_normalize" => call_quartiles(iters, || {
                    appended.clear();
                    kernel::bn_normalize(dims, x, per_ch, per_ch, Some(&mut *out), &mut appended)
                }),
                "bn_input_grad" => call_quartiles(iters, || {
                    appended.clear();
                    kernel::bn_input_grad(dims, (x, z), per_ch, per_ch, &mut appended)
                }),
                _ => unreachable!("{op} is not in MAPS"),
            };
            records.push(serde_json::json!({
                "op": op, "n": n, "label": label,
                "median_s": median, "q1_s": q1, "q3_s": q3,
            }));
        }
    }
    records
}

/// One `encode` record per codec and one 2-bit `decode` record per
/// [`CODEC_SIZES`] count. Each encode hands its payload back to the
/// pool it drew it from, so every call after the first reuses one
/// buffer, as a worker's steady state does.
fn codec_records(arena: &mut [f32], iters: usize) -> Vec<serde_json::Value> {
    let pool = BufferPool::new();
    let mut records = Vec::new();
    for (n, label) in CODEC_SIZES {
        let (grad, _, _, out) = regions(arena, n);
        let codecs: [(&str, Box<dyn GradientCompressor>); 6] = [
            ("2bit", Box::new(TwoBitQuantizer::new(0.5))),
            (
                "2bit_no_residual",
                Box::new(TwoBitQuantizer::new(0.5).with_residual(false)),
            ),
            ("1bit", Box::new(OneBitQuantizer::new())),
            ("qsgd4", Box::new(QsgdQuantizer::new(4, 7))),
            ("topk1pct", Box::new(TopKSparsifier::new(0.01))),
            ("raw", Box::new(NoCompression)),
        ];
        for (codec, mut c) in codecs {
            let [q1, median, q3] =
                call_quartiles(iters, || c.compress_into(0, grad, &pool).recycle(&pool));
            records.push(serde_json::json!({
                "op": "encode", "codec": codec, "n": n, "label": label,
                "median_s": median, "q1_s": q1, "q3_s": q3,
            }));
        }
        let payload = TwoBitQuantizer::new(0.5).compress(0, grad);
        let [q1, median, q3] = call_quartiles(iters, || decompress(&payload, out));
        records.push(serde_json::json!({
            "op": "decode", "codec": "2bit", "n": n, "label": label,
            "median_s": median, "q1_s": q1, "q3_s": q3,
        }));
    }
    records
}

/// One `emit` record per telemetry handle a training loop holds: disabled
/// (an `Option` test; the event is never built) and a `NullSink` (the
/// event built and handed to a sink that drops it).
fn emit_records(iters: usize) -> Vec<serde_json::Value> {
    let sinks = [
        ("disabled", Telemetry::disabled()),
        ("null_sink", Telemetry::new(Arc::new(NullSink))),
    ];
    sinks
        .into_iter()
        .map(|(sink, telemetry)| {
            let [q1, median, q3] = call_quartiles(iters, || {
                black_box(&telemetry).emit(|| Event::Push {
                    bytes: black_box(81),
                })
            });
            serde_json::json!({
                "op": "emit", "sink": sink,
                "median_s": median, "q1_s": q1, "q3_s": q3,
            })
        })
        .collect()
}

/// The benchmark MLP's keys (784-1024-1024-10; weight, then bias, per
/// layer).
const MLP_KEYS: [usize; 6] = [784 * 1024, 1024, 1024 * 1024, 1024, 1024 * 10, 10];

/// `[q1, median, q3]` seconds of one server round: both contributors'
/// pushes of every [`MLP_KEYS`] key (2-bit at threshold 0.5, or raw),
/// then a pull of each key at the new version. Each round's payloads
/// are encoded into the server's buffer pool before the clock starts,
/// as a worker's are, so the storage the server recycles comes back;
/// two untimed rounds first let the server settle into recycled
/// snapshots.
fn time_server_round(two_bit: bool, iters: usize) -> [f64; 3] {
    let init: Vec<Vec<f32>> = (MLP_KEYS.iter().zip(100..))
        .map(|(&n, seed)| pseudo(n, seed))
        .collect();
    let grads: Vec<[Vec<f32>; 2]> = (MLP_KEYS.iter().zip(200..))
        .map(|(&n, seed)| [pseudo(n, 2 * seed), pseudo(n, 2 * seed + 1)])
        .collect();
    let mut codecs: [Box<dyn GradientCompressor>; 2] = if two_bit {
        [0, 1].map(|_| Box::new(TwoBitQuantizer::new(0.5)) as _)
    } else {
        [0, 1].map(|_| Box::new(NoCompression) as _)
    };
    let ps = ParamServer::start(init, ServerConfig::new(2, 0.01));
    let client = ps.client();
    let mut version = 0;
    let mut round = || {
        let batch: Vec<[Compressed; 2]> = (grads.iter().enumerate())
            .map(|(key, pair)| [0, 1].map(|w| codecs[w].compress_into(key, &pair[w], ps.pool())))
            .collect();
        version += 1;
        let t = Instant::now();
        for (key, [a, b]) in batch.into_iter().enumerate() {
            client.push(0, key, a).expect("push");
            client.push(1, key, b).expect("push");
        }
        for key in 0..MLP_KEYS.len() {
            black_box(client.pull(key, version).expect("pull"));
        }
        t.elapsed().as_secs_f64()
    };
    round();
    round();
    quartiles((0..iters).map(|_| round()).collect())
}

/// One mode's measurements: a record per (op, size), per GEMM shape and
/// per server-round payload.
fn run_child(iters: usize) -> Vec<serde_json::Value> {
    let mut records = Vec::new();
    for (two_bit, payload) in [(true, "2bit"), (false, "raw")] {
        let [q1, median, q3] = time_server_round(two_bit, iters.max(7));
        records.push(serde_json::json!({
            "op": "server_round", "payload": payload, "keys": MLP_KEYS.len(),
            "workers": 2, "median_s": median, "q1_s": q1, "q3_s": q3,
        }));
    }
    for (layout, m, k, n, what) in SHAPES {
        for relu in [false, true] {
            let s = time_gemm(layout, m, k, n, relu, iters);
            records.push(serde_json::json!({
                "op": layout.op(), "shape": format!("{m}x{k}x{n}"), "what": what,
                "a": if relu { "relu" } else { "dense" }, "median_s": s,
                "gflops": 2.0 * (m * k * n) as f64 / s / 1e9,
            }));
        }
    }
    records.extend(conv_bn_records(iters));
    let mut arena = pseudo(4 * REGION, 31);
    records.extend(map_records(&mut arena, iters));
    records.extend(codec_records(&mut arena, iters));
    for (n, label) in SIZES {
        let symbols: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
        let mut packed = vec![0u8; n.div_ceil(4)];
        let pack_s = median_s(iters, || {
            kernel::pack_2bit(black_box(&symbols), &mut packed);
            black_box(&packed);
        });
        records.push(serde_json::json!({
            "op": "pack_2bit", "n": n, "label": label, "median_s": pack_s,
        }));

        let mut unpacked = vec![0u8; n];
        let unpack_s = median_s(iters, || {
            kernel::unpack_2bit(black_box(&packed), &mut unpacked);
            black_box(&unpacked);
        });
        records.push(serde_json::json!({
            "op": "unpack_2bit", "n": n, "label": label, "median_s": unpack_s,
        }));

        let grad = pseudo(n, 37);
        let mut res = vec![0.0f32; n];
        // The 2-bit codec's hot loop: threshold scan, residual update
        // and packing in one pass — gradient and residual in, packed
        // bytes out.
        let quantize_s = median_s(iters, || {
            kernel::quantize_2bit(black_box(&grad), 0.5, Some(&mut res), &mut packed);
            black_box(&packed);
        });
        records.push(serde_json::json!({
            "op": "quantize_2bit", "n": n, "label": label, "median_s": quantize_s,
        }));

        // The server's apply path: w - step * g into a fresh snapshot.
        let w = pseudo(n, 53);
        let g = pseudo(n, 71);
        let mut next = vec![0.0f32; n];
        let apply_s = median_s(iters, || {
            kernel::sgd_step(&mut next, black_box(&w), black_box(&g), 0.01);
            black_box(&next);
        });
        records.push(serde_json::json!({
            "op": "apply_update", "n": n, "label": label, "median_s": apply_s,
        }));
    }
    records
}

fn median_of(records: &[serde_json::Value], op: &str, n: usize) -> Option<f64> {
    records.iter().find_map(|r| {
        (r["op"].as_str() == Some(op) && r["n"].as_u64() == Some(n as u64))
            .then(|| r["median_s"].as_f64())
            .flatten()
    })
}

fn main() {
    let iters = arg_usize("iters", 7);

    if std::env::var(CHILD_ENV).is_ok() {
        let out = serde_json::json!({
            "backend": kernel::backend().name(),
            "records": run_child(iters),
        });
        println!(
            "{MARKER}{}",
            serde_json::to_string(&out).expect("serialize")
        );
        return;
    }

    let exe = std::env::current_exe().expect("bench binary path");
    let mut modes = Vec::new();
    for (mode, force_scalar) in MODES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--iters", &iters.to_string()])
            .env(CHILD_ENV, "1")
            .env_remove("CDSGD_FORCE_SCALAR");
        if let Some(v) = force_scalar {
            cmd.env("CDSGD_FORCE_SCALAR", v);
        }
        eprintln!("running mode {mode} ...");
        let out = cmd.output().expect("spawn child");
        assert!(
            out.status.success(),
            "mode {mode} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find_map(|l| l.strip_prefix(MARKER))
            .unwrap_or_else(|| panic!("mode {mode}: no {MARKER} line in child output"));
        let parsed: serde_json::Value = serde_json::from_str(line).expect("child JSON");
        modes.push((mode, parsed));
    }

    // Comparison table: per (op, size), median seconds per mode and the
    // speedup of SIMD over the scalar reference.
    println!(
        "{:>14} {:>7} {:>12} {:>12} {:>8}",
        "op", "size", "scalar_s", "simd_s", "simd_x"
    );
    let scalar = modes[0].1["records"].as_array().expect("records").clone();
    let simd = modes[1].1["records"].as_array().expect("records").clone();
    for op in OPS {
        for (n, label) in SIZES {
            let s = median_of(&scalar, op, n).unwrap_or(f64::NAN);
            let v = median_of(&simd, op, n).unwrap_or(f64::NAN);
            println!("{op:>14} {label:>7} {s:>12.6} {v:>12.6} {:>8.2}", s / v);
        }
    }

    // Elementwise, encode and decode rows: microseconds per call, median
    // with quartiles, per mode.
    println!(
        "\n{:>20} {:>16} {:>6} {:>24} {:>24} {:>7}",
        "op", "codec", "size", "scalar_us q1-med-q3", "simd_us q1-med-q3", "simd_x"
    );
    for (row, s) in scalar.iter().enumerate() {
        let op = s["op"].as_str().unwrap_or("?");
        if s["q1_s"].is_null() || op == "server_round" {
            continue;
        }
        let us = |records: &[serde_json::Value], key: &str| {
            records[row][key].as_f64().unwrap_or(f64::NAN) * 1e6
        };
        let cell = |records: &[serde_json::Value]| {
            let [q1, med, q3] = ["q1_s", "median_s", "q3_s"].map(|key| us(records, key));
            format!("{q1:.2}-{med:.2}-{q3:.2}")
        };
        println!(
            "{op:>20} {:>16} {:>6} {:>24} {:>24} {:>7.2}",
            s["codec"].as_str().unwrap_or("-"),
            s["label"].as_str().unwrap_or("?"),
            cell(&scalar),
            cell(&simd),
            us(&scalar, "median_s") / us(&simd, "median_s")
        );
    }

    // GEMM table: GFLOP/s (nominal `2·m·k·n`, zeros in A counted) per
    // shape and A density.
    println!(
        "\n{:>8} {:>14} {:>6} {:>24} {:>9} {:>9}",
        "op", "m x k x n", "A", "issued by", "scalar", "simd"
    );
    for (row, s) in scalar.iter().enumerate() {
        if s["gflops"].is_null() {
            continue;
        }
        let text = |key: &str| s[key].as_str().unwrap_or("?").to_string();
        let gflops =
            |records: &[serde_json::Value]| records[row]["gflops"].as_f64().unwrap_or(f64::NAN);
        println!(
            "{:>8} {:>14} {:>6} {:>24} {:>9.2} {:>9.2}",
            text("op"),
            text("shape"),
            text("a"),
            text("what"),
            gflops(&scalar),
            gflops(&simd)
        );
    }

    // Conv unrolls, batch norm and its channel sums: microseconds per
    // call, per mode.
    println!(
        "\n{:>26} {:>20} {:>20} {:>10} {:>10}",
        "op", "shape", "issued by", "scalar_us", "simd_us"
    );
    for (row, s) in scalar.iter().enumerate() {
        let op = s["op"].as_str().unwrap_or("?");
        let layer_ops = ["im2col", "col2im", "batchnorm", "channel_sums", "conv_"];
        if !layer_ops.iter().any(|prefix| op.starts_with(prefix)) {
            continue;
        }
        let us = |records: &[serde_json::Value]| {
            records[row]["median_s"].as_f64().unwrap_or(f64::NAN) * 1e6
        };
        let us_of = |records: &[serde_json::Value], key: &str| {
            records[row][key].as_f64().unwrap_or(f64::NAN) * 1e6
        };
        let extra = match (s["explicit_s"].is_null(), s["img_offset_bytes"].as_u64()) {
            (false, _) => format!(
                "  explicit {:.1} / {:.1}",
                us_of(&scalar, "explicit_s"),
                us_of(&simd, "explicit_s")
            ),
            (true, Some(bytes)) => format!("  img +{bytes} B"),
            (true, None) => String::new(),
        };
        println!(
            "{op:>26} {:>20} {:>20} {:>10.1} {:>10.1}{extra}",
            s["shape"].as_str().unwrap_or("?"),
            s["what"].as_str().unwrap_or("?"),
            us(&scalar),
            us(&simd)
        );
    }

    // Server rounds: milliseconds, median with quartiles, per mode.
    println!(
        "\n{:>14} {:>8} {:>24} {:>24}",
        "op", "payload", "scalar_ms q1-med-q3", "simd_ms q1-med-q3"
    );
    for payload in ["2bit", "raw"] {
        let cell = |records: &[serde_json::Value]| {
            let r = records
                .iter()
                .find(|r| r["op"] == "server_round" && r["payload"] == payload);
            let ms = |key: &str| r.and_then(|r| r[key].as_f64()).unwrap_or(f64::NAN) * 1e3;
            format!("{:.2}-{:.2}-{:.2}", ms("q1_s"), ms("median_s"), ms("q3_s"))
        };
        println!(
            "{:>14} {payload:>8} {:>24} {:>24}",
            "server_round",
            cell(&scalar),
            cell(&simd)
        );
    }

    // Telemetry emits: nanoseconds, median with quartiles.
    let emits = emit_records(iters);
    println!("\n{:>14} {:>10} {:>24}", "op", "sink", "ns q1-med-q3");
    for r in &emits {
        let ns = |key: &str| r[key].as_f64().unwrap_or(f64::NAN) * 1e9;
        println!(
            "{:>14} {:>10} {:>24}",
            "emit",
            r["sink"].as_str().unwrap_or("?"),
            format!("{:.2}-{:.2}-{:.2}", ns("q1_s"), ns("median_s"), ns("q3_s"))
        );
    }

    let out = serde_json::json!({
        "bench": "kernels",
        "sizes": SIZES.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "iters": iters,
        "emit": emits,
        "modes": modes
            .iter()
            .map(|(mode, v)| {
                serde_json::json!({
                    "mode": *mode,
                    "backend": v["backend"].clone(),
                    "records": v["records"].clone(),
                })
            })
            .collect::<Vec<_>>(),
    });
    let path = "BENCH_kernels.json";
    std::fs::write(path, serde_json::to_string_pretty(&out).expect("serialize"))
        .expect("write BENCH json");
    println!("\nwrote {path}");
}
