//! Quickstart: train a small model with CD-SGD on two workers and compare
//! against S-SGD — the 60-second tour of the public API.
//!
//! Run with: `cargo run --release --example quickstart`

use cd_sgd::{Algorithm, TrainConfig, Trainer};
use cdsgd_data::toy;
use cdsgd_nn::models;

fn main() {
    // 1. A dataset. Synthetic Gaussian blobs: 4 classes in 8 dimensions.
    let data = toy::gaussian_blobs(2_000, 8, 4, 0.6, 42);
    let (train, test) = data.split(0.8);

    // 2. An algorithm. CD-SGD = local update + 2-bit quantization +
    //    k-step correction (+ a short warm-up of plain S-SGD).
    let cd = Algorithm::cd_sgd(
        0.05, // local learning rate (eq. 11)
        0.1,  // 2-bit quantization threshold α
        2,    // k: one full-precision correction every 2 iterations
        20,   // warm-up iterations
    );

    // 3. A training run: 2 worker threads sharing one in-process
    //    parameter server, which the threads that use it run.
    for algo in [Algorithm::SSgd, cd] {
        let cfg = TrainConfig::new(algo, 2)
            .with_lr(0.2)
            .with_batch_size(32)
            .with_epochs(8)
            .with_seed(7);
        let trainer = Trainer::new(
            cfg,
            |rng| models::mlp(&[8, 32, 4], rng),
            train.clone(),
            Some(test.clone()),
        );
        let history = trainer.run();
        println!(
            "{:<12} final test acc {:.3}  (pushed {} KiB of gradients)",
            history.algo,
            history.final_test_acc().unwrap(),
            history.epochs.last().unwrap().cumulative_push_bytes / 1024,
        );
    }
    println!("\nCD-SGD should match S-SGD's accuracy while pushing ~2x fewer bytes");
    println!("(k=2: every other push is a full-precision correction; larger k pushes less).");
}
