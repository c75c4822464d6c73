//! Table-driven proof that the `UpdateStrategy` extraction is bit-exact:
//! every `Algorithm` variant, run for 2 epochs on the in-process and
//! loopback backends, must reach the *same final-weight hash that the
//! pre-refactor worker loop produced* (captured from `main` before the
//! strategy layer existed). A hash change here means the refactor (or a
//! later edit) altered training semantics, not just structure.

use cd_sgd::{Algorithm, TrainConfig, Trainer, TrainingHistory};
use cd_sgd_repro::deploy;
use cdsgd_data::{synth, Dataset};
use cdsgd_nn::{models, Layer, Mode, Sequential, SoftmaxCrossEntropy};
use cdsgd_ps::NetCluster;
use cdsgd_tensor::{SmallRng64, Tensor};

/// FNV-1a over the little-endian bit patterns of all final weights, in
/// key order. Bit-exact: any f32 that differs in any bit changes it.
fn weight_hash(h: &TrainingHistory) -> u64 {
    h.final_weights
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |acc, key| fnv_f32(acc, key))
}

/// FNV-1a folded over more f32 bit patterns.
fn fnv_f32(mut acc: u64, xs: &[f32]) -> u64 {
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            acc ^= b as u64;
            acc = acc.wrapping_mul(0x1000_0000_01b3);
        }
    }
    acc
}

fn variants() -> Vec<(&'static str, Algorithm)> {
    vec![
        ("ssgd", Algorithm::SSgd),
        ("odsgd", Algorithm::OdSgd { local_lr: 0.05 }),
        ("bitsgd", Algorithm::BitSgd { threshold: 0.05 }),
        ("cdsgd", Algorithm::cd_sgd(0.05, 0.05, 2, 3)),
        (
            "cdsgd+dc",
            Algorithm::cd_sgd(0.05, 0.05, 2, 3).with_delay_compensation(0.5),
        ),
        (
            "localsgd",
            Algorithm::LocalSgd {
                local_lr: 0.05,
                sync_period: 2,
            },
        ),
        ("arsgd", Algorithm::ArSgd),
        ("efsgd", Algorithm::ef_sgd(0.9)),
        ("ecqsgd", Algorithm::ecq_sgd(0.05, 0.9, 0.9)),
    ]
}

fn trainer(algo: Algorithm) -> Trainer {
    let (train, test) = deploy::build_dataset("blobs", 480, 5);
    let cfg = TrainConfig::new(algo, 2)
        .with_lr(0.2)
        .with_batch_size(16)
        .with_epochs(2)
        .with_seed(5);
    Trainer::new(
        cfg,
        |rng| deploy::build_model("mlp:8,32,4", rng),
        train,
        Some(test),
    )
}

/// Final-weight hashes captured from the pre-refactor `run_worker` loop
/// (commit 2478571, inline `AlgoState` branches) on this exact setup.
/// Both backends must still land on these bits.
const EXPECTED: &[(&str, u64)] = &[
    ("ssgd", 0x7e98a67774c3cf42),
    ("odsgd", 0x210320462b28bebb),
    ("bitsgd", 0xacea05643ae71028),
    ("cdsgd", 0xb27e0a89c55bc72b),
    ("cdsgd+dc", 0x0fb7dc6a90ea4fcd),
    ("localsgd", 0x28d9e01e938e4740),
    // AR-SGD's ring mean-reduce at the global lr is mathematically S-SGD
    // with N workers, and both paths sum in the same order — equal hashes
    // are expected, not a copy-paste error.
    ("arsgd", 0x7e98a67774c3cf42),
    // Captured at commit 3124c70 (per-algorithm `EfSgdStrategy` /
    // `EcqSgdStrategy`, the latter with its own scalar quantizer), before
    // the PS strategies were merged into one engine.
    ("efsgd", 0xedfcaef2212d9eff),
    ("ecqsgd", 0x29f348e4ae12ec2d),
];

fn expected(name: &str) -> u64 {
    EXPECTED
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, h)| *h)
        .unwrap_or_else(|| panic!("no pinned hash for {name}"))
}

#[test]
fn every_variant_matches_pre_refactor_weights_in_process() {
    for (name, algo) in variants() {
        let h = trainer(algo).run();
        assert_eq!(
            weight_hash(&h),
            expected(name),
            "{name}: in-process final weights diverged from pre-refactor capture"
        );
    }
}

#[test]
fn every_variant_matches_pre_refactor_weights_loopback() {
    for (name, algo) in variants() {
        let h = trainer(algo)
            .run_with(|init, cfg| Ok(Box::new(NetCluster::start_loopback(init, cfg, 2)?)))
            .unwrap_or_else(|e| panic!("{name}: loopback run failed: {e}"));
        assert_eq!(
            weight_hash(&h),
            expected(name),
            "{name}: loopback final weights diverged from pre-refactor capture"
        );
    }
}

/// Capture helper: prints the hash table for pinning. Run with
/// `cargo test --test strategy_equivalence -- --ignored --nocapture`.
#[test]
#[ignore = "capture tool, not a gate"]
fn print_hashes() {
    for (name, algo) in variants() {
        let h_in = weight_hash(&trainer(algo.clone()).run());
        let h_lb = weight_hash(
            &trainer(algo)
                .run_with(|init, cfg| Ok(Box::new(NetCluster::start_loopback(init, cfg, 2)?)))
                .unwrap(),
        );
        println!("(\"{name}\", {h_in:#018x}), // loopback {h_lb:#018x}");
    }
}

// ---------------------------------------------------------------------------
// Convolution, batch norm and residual blocks
// ---------------------------------------------------------------------------
//
// The MLP rows above run no Conv2d, BatchNorm2d or ResidualBlock code;
// the hashes below pin those layers' bits.

/// Three CD-SGD epochs of `resnet_cifar(4, 1, 10)` on 64 synthetic
/// CIFAR images: 2 workers, batch 8, k = 2, one warm-up round.
fn resnet_trainer() -> Trainer {
    let (train, test) = synth::cifar_like(64, 9).split(0.85);
    let cfg = TrainConfig::new(Algorithm::cd_sgd(0.05, 0.05, 2, 1), 2)
        .with_lr(0.1)
        .with_batch_size(8)
        .with_epochs(3)
        .with_seed(9);
    Trainer::new(
        cfg,
        |rng| models::resnet_cifar(4, 1, 10, rng),
        train,
        Some(test),
    )
}

/// Final weights of [`resnet_trainer`], in-process and loopback alike.
/// Its widths 4, 8 and 16 cover both a partial and a full eight-channel
/// chunk of the per-channel sums. Captured at commit ccba1ac — before
/// the convolution and batch-norm layers dropped their per-sample column
/// matrices and per-element channel iterators — on the SIMD and the
/// scalar kernel backend, in debug and release builds alike.
const RESNET_CDSGD: u64 = 0xfbeb_ebd9_d37e_1404;

#[test]
fn resnet_cdsgd_matches_pinned_weights_in_process() {
    assert_eq!(weight_hash(&resnet_trainer().run()), RESNET_CDSGD);
}

#[test]
fn resnet_cdsgd_matches_pinned_weights_loopback() {
    let h = resnet_trainer()
        .run_with(|init, cfg| Ok(Box::new(NetCluster::start_loopback(init, cfg, 2)?)))
        .expect("loopback run");
    assert_eq!(weight_hash(&h), RESNET_CDSGD);
}

/// Hash of one train-mode forward, the loss, a full backward (every
/// parameter gradient and the input gradient) and an eval-mode forward
/// of a fresh `model` on the first 4 images of `data`.
fn forward_backward_hash(mut model: Sequential, data: &Dataset) -> u64 {
    let n = 4;
    let img = data.x.len() / data.len();
    let mut shape = data.x.shape().to_vec();
    shape[0] = n;
    let x = Tensor::from_vec(shape, data.x.data()[..n * img].to_vec());
    let logits = model.forward(&x, Mode::Train);
    let (loss, dy) = SoftmaxCrossEntropy.loss_and_grad(&logits, &data.y[..n]);
    let dx = model.backward(&dy);
    let mut acc = fnv_f32(0xcbf2_9ce4_8422_2325, logits.data());
    acc = fnv_f32(acc, &[loss]);
    for g in model.export_grads() {
        acc = fnv_f32(acc, &g);
    }
    acc = fnv_f32(acc, dx.data());
    fnv_f32(acc, model.forward(&x, Mode::Eval).data())
}

/// [`forward_backward_hash`] of LeNet-5 (5×5 kernels at pad 2 and pad 0,
/// 1, 6 and 16 channels) and of a width-4 Inception network (1×1 and 3×3
/// kernels, channel counts that are not multiples of 8). Captured at
/// commit ccba1ac like [`RESNET_CDSGD`].
const LENET_FWD_BWD: u64 = 0x38cc_d3f2_ba03_b4bc;
const INCEPTION_FWD_BWD: u64 = 0x8f87_87ab_3ad7_aa64;

#[test]
fn lenet_and_inception_gradients_match_pinned_bits() {
    let lenet = models::lenet5(10, &mut SmallRng64::new(11));
    let got_lenet = forward_backward_hash(lenet, &synth::mnist_like(8, 11));
    let inception = models::inception_cifar(4, 10, &mut SmallRng64::new(12));
    let got_inception = forward_backward_hash(inception, &synth::cifar_like(8, 12));
    assert_eq!(
        (got_lenet, got_inception),
        (LENET_FWD_BWD, INCEPTION_FWD_BWD),
        "lenet5 / inception_cifar forward+backward bits diverged"
    );
}
