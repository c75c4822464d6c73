//! Math-kernel micro-benchmarks: the matmul and conv primitives that set
//! τ (computation time per iteration) in the real in-process trainer.

use cdsgd_tensor::{im2col_into, kernel, Conv2dGeom, SmallRng64, Tensor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    for &n in &[64usize, 128, 256] {
        let mut rng = SmallRng64::new(1);
        let a = Tensor::randn(&[n, n], 1.0, &mut rng);
        let b = Tensor::randn(&[n, n], 1.0, &mut rng);
        g.throughput(Throughput::Elements((2 * n * n * n) as u64));
        g.bench_with_input(
            BenchmarkId::new("nn", n),
            &(a.clone(), b.clone()),
            |bench, (a, b)| {
                bench.iter(|| a.matmul(b));
            },
        );
        g.bench_with_input(
            BenchmarkId::new("nt", n),
            &(a.clone(), b.clone()),
            |bench, (a, b)| {
                bench.iter(|| a.matmul_nt(b));
            },
        );
        g.bench_with_input(BenchmarkId::new("tn", n), &(a, b), |bench, (a, b)| {
            bench.iter(|| a.matmul_tn(b));
        });
    }
    g.finish();
}

/// Both kernel paths side by side: the dispatched entry runs whatever
/// backend `kernel::backend()` picked (AVX2 where available), while the
/// `scalar/...` entry calls the reference implementation directly — no
/// child process needed since `kernel::scalar` is public and bypasses
/// the cached dispatch.
fn bench_gemm_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_paths");
    for &n in &[64usize, 256, 512] {
        let mut rng = SmallRng64::new(3);
        let a = Tensor::randn(&[n, n], 1.0, &mut rng);
        let b = Tensor::randn(&[n, n], 1.0, &mut rng);
        g.throughput(Throughput::Elements((2 * n * n * n) as u64));
        let id = format!("{}({})", kernel::backend().name(), "dispatch");
        g.bench_with_input(
            BenchmarkId::new(id, n),
            &(a.clone(), b.clone()),
            |bench, (a, b)| {
                let mut out = vec![0.0f32; n * n];
                bench.iter(|| kernel::gemm(a.data(), b.data(), &mut out, n, n, n));
            },
        );
        g.bench_with_input(BenchmarkId::new("scalar", n), &(a, b), |bench, (a, b)| {
            let mut out = vec![0.0f32; n * n];
            bench.iter(|| kernel::scalar::gemm_block(a.data(), b.data(), 0..n, &mut out, n, n));
        });
    }
    g.finish();
}

fn bench_im2col(c: &mut Criterion) {
    let mut g = c.benchmark_group("im2col_into");
    let geom = Conv2dGeom {
        c: 16,
        h: 32,
        w: 32,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    };
    let mut rng = SmallRng64::new(2);
    let img = Tensor::randn(&[16 * 32 * 32], 1.0, &mut rng);
    let mut col = vec![0.0f32; geom.col_rows() * geom.col_cols()];
    g.throughput(Throughput::Bytes((4 * img.len()) as u64));
    g.bench_function("c16_32x32_k3", |b| {
        b.iter(|| im2col_into(img.data(), &geom, &mut col));
    });
    g.finish();
}

criterion_group!(benches, bench_matmul, bench_gemm_paths, bench_im2col);
criterion_main!(benches);
