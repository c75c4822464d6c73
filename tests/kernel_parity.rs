//! End-to-end backend parity: full CD-SGD training runs — an MLP and a
//! ResNet-8 — must land on bit-identical final weights whether the
//! kernel layer dispatches to the native SIMD backend or is pinned to
//! the scalar reference with `CDSGD_FORCE_SCALAR=1`.
//!
//! The backend choice is cached process-wide (a `OnceLock` read once at
//! first kernel call), so the scalar run happens in a child process: the
//! test re-executes its own binary with the override set and compares
//! the hashes the child prints against the parent's native-run hashes.

use cd_sgd::{Algorithm, TrainConfig, Trainer, TrainingHistory};
use cd_sgd_repro::deploy;
use cdsgd_data::synth;
use cdsgd_nn::models;
use cdsgd_tensor::kernel;
use std::process::Command;

const CHILD_ENV: &str = "CDSGD_PARITY_CHILD";

/// FNV-1a over the little-endian bit patterns of all final weights, in
/// key order — same digest as `tests/strategy_equivalence.rs`.
fn weight_hash(h: &TrainingHistory) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for key in &h.final_weights {
        for w in key {
            for b in w.to_bits().to_le_bytes() {
                acc ^= b as u64;
                acc = acc.wrapping_mul(0x1000_0000_01b3);
            }
        }
    }
    acc
}

/// A short CD-SGD run that exercises every kernel family of a dense
/// model: GEMM (dense layers), 2-bit threshold scan + packing (the
/// codec), residual accumulate, and the server's `sgd_step` apply path.
fn mlp_run() -> u64 {
    let (train, test) = deploy::build_dataset("blobs", 480, 5);
    let cfg = TrainConfig::new(Algorithm::cd_sgd(0.05, 0.05, 2, 3), 2)
        .with_lr(0.2)
        .with_batch_size(16)
        .with_epochs(2)
        .with_seed(5);
    let h = Trainer::new(
        cfg,
        |rng| deploy::build_model("mlp:8,32,4", rng),
        train,
        Some(test),
    )
    .run();
    weight_hash(&h)
}

/// Two CD-SGD epochs of `resnet_cifar(8, 1, 10)`, which adds the
/// convolution and batch-norm kernels: the size-keeping 3×3 unrolls and
/// their adjoints move whole shifted planes on the SIMD backends, and
/// every batch norm (8, 16 and 32 channels) and bias gradient sums its
/// channels eight per vector.
fn resnet_run() -> u64 {
    let (train, test) = synth::cifar_like(48, 9).split(0.85);
    let cfg = TrainConfig::new(Algorithm::cd_sgd(0.05, 0.05, 2, 1), 2)
        .with_lr(0.1)
        .with_batch_size(8)
        .with_epochs(2)
        .with_seed(9);
    let model = |rng: &mut _| models::resnet_cifar(8, 1, 10, rng);
    weight_hash(&Trainer::new(cfg, model, train, Some(test)).run())
}

/// A compared run: its name and the weight hash it ends on.
type Run = (&'static str, fn() -> u64);

/// The runs compared.
const RUNS: [Run; 2] = [("mlp", mlp_run), ("resnet8", resnet_run)];

#[test]
fn native_and_forced_scalar_runs_produce_identical_weights() {
    if std::env::var(CHILD_ENV).is_ok() {
        // Child mode: forced-scalar run, report the hash on stdout.
        assert_eq!(
            kernel::backend().name(),
            "scalar",
            "child must run on the scalar reference backend"
        );
        for (name, run) in RUNS {
            println!("PARITY_HASH {name} {:#018x}", run());
        }
        return;
    }

    let native: Vec<u64> = RUNS.iter().map(|(_, run)| run()).collect();

    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([
            "--exact",
            "native_and_forced_scalar_runs_produce_identical_weights",
            "--nocapture",
        ])
        .env(CHILD_ENV, "1")
        .env("CDSGD_FORCE_SCALAR", "1")
        .output()
        .expect("spawn forced-scalar child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "forced-scalar child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for ((name, _), native) in RUNS.iter().zip(native) {
        // libtest may interleave its progress line with ours, so locate
        // the marker anywhere in the stream rather than at line starts.
        let marker = format!("PARITY_HASH {name} ");
        let scalar = stdout
            .split(&marker)
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|h| u64::from_str_radix(h.trim_start_matches("0x"), 16).ok())
            .unwrap_or_else(|| panic!("no {marker}marker in child output:\n{stdout}"));
        assert_eq!(
            native,
            scalar,
            "{name}: final weights diverged between the {} backend and the scalar reference",
            kernel::backend().name()
        );
    }
}
