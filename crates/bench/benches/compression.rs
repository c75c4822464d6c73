//! Codec micro-benchmarks: encode/decode throughput of every gradient
//! compressor. The encode cost is the paper's δ — the overhead CD-SGD
//! hides; these numbers quantify it on this machine.

use cdsgd_compress::{
    decompress, GradientCompressor, NoCompression, OneBitQuantizer, QsgdQuantizer, TopKSparsifier,
    TwoBitQuantizer,
};
use cdsgd_tensor::kernel;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const SIZES: [usize; 2] = [65_536, 1_048_576];

fn gradient(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i as f32 * 0.37).sin()) * 0.8).collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("encode");
    for &n in &SIZES {
        let grad = gradient(n);
        g.throughput(Throughput::Bytes((4 * n) as u64));
        g.bench_with_input(BenchmarkId::new("2bit", n), &grad, |b, grad| {
            let mut q = TwoBitQuantizer::new(0.5);
            b.iter(|| q.compress(0, grad));
        });
        g.bench_with_input(BenchmarkId::new("1bit", n), &grad, |b, grad| {
            let mut q = OneBitQuantizer::new();
            b.iter(|| q.compress(0, grad));
        });
        g.bench_with_input(BenchmarkId::new("qsgd4", n), &grad, |b, grad| {
            let mut q = QsgdQuantizer::new(4, 7);
            b.iter(|| q.compress(0, grad));
        });
        g.bench_with_input(BenchmarkId::new("topk1pct", n), &grad, |b, grad| {
            let mut q = TopKSparsifier::new(0.01);
            b.iter(|| q.compress(0, grad));
        });
        g.bench_with_input(BenchmarkId::new("raw", n), &grad, |b, grad| {
            let mut q = NoCompression;
            b.iter(|| q.compress(0, grad));
        });
    }
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("decode");
    for &n in &SIZES {
        let grad = gradient(n);
        let mut q = TwoBitQuantizer::new(0.5);
        let payload = q.compress(0, &grad);
        g.throughput(Throughput::Bytes((4 * n) as u64));
        g.bench_with_input(BenchmarkId::new("2bit", n), &payload, |b, p| {
            let mut out = vec![0.0f32; n];
            b.iter(|| decompress(p, &mut out));
        });
    }
    g.finish();
}

/// The codec's primitive kernels on both paths: the dispatched entry is
/// whatever backend `kernel::backend()` selected, the `scalar/...` entry
/// calls the public reference implementation directly (no dispatch, no
/// child process).
fn bench_kernel_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec_kernels");
    for &n in &SIZES {
        let grad = gradient(n);
        let symbols: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
        let mut packed = vec![0u8; n.div_ceil(4)];
        let mut res = vec![0.0f32; n];
        let backend = kernel::backend().name();
        g.throughput(Throughput::Bytes((4 * n) as u64));
        g.bench_with_input(
            BenchmarkId::new(format!("pack_2bit/{backend}"), n),
            &symbols,
            |b, s| {
                let mut out = vec![0u8; n.div_ceil(4)];
                b.iter(|| kernel::pack_2bit(s, &mut out));
            },
        );
        g.bench_with_input(BenchmarkId::new("pack_2bit/scalar", n), &symbols, |b, s| {
            let mut out = vec![0u8; n.div_ceil(4)];
            b.iter(|| kernel::scalar::pack_2bit(s, &mut out));
        });
        kernel::pack_2bit(&symbols, &mut packed);
        g.bench_with_input(
            BenchmarkId::new(format!("unpack_2bit/{backend}"), n),
            &packed,
            |b, p| {
                let mut out = vec![0u8; n];
                b.iter(|| kernel::unpack_2bit(p, &mut out));
            },
        );
        g.bench_with_input(
            BenchmarkId::new("unpack_2bit/scalar", n),
            &packed,
            |b, p| {
                let mut out = vec![0u8; n];
                b.iter(|| kernel::scalar::unpack_2bit(p, &mut out));
            },
        );
        g.bench_with_input(
            BenchmarkId::new(format!("quantize_2bit/{backend}"), n),
            &grad,
            |b, grad| {
                b.iter(|| kernel::quantize_2bit(grad, 0.5, Some(&mut res), &mut packed));
            },
        );
        let mut res2 = vec![0.0f32; n];
        let mut packed2 = vec![0u8; n.div_ceil(4)];
        g.bench_with_input(
            BenchmarkId::new("quantize_2bit/scalar", n),
            &grad,
            |b, grad| {
                b.iter(|| kernel::scalar::quantize_2bit(grad, 0.5, Some(&mut res2), &mut packed2));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_encode, bench_decode, bench_kernel_paths);
criterion_main!(benches);
