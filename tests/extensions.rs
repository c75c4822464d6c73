//! Integration tests for the extension features layered on the paper's
//! algorithm: pluggable codecs, adaptive thresholds, delay compensation,
//! the emulated network, and the two strategy/server-opt extension leaves
//! (EF-blockSGD and Nesterov).

use cd_sgd::{Algorithm, Codec, ServerOptKind, TrainConfig, Trainer, TrainingHistory};
use cdsgd_data::toy;
use cdsgd_net::NetConfig;
use cdsgd_nn::models;
use cdsgd_ps::{InProcessBackend, NetCluster, ParamServer};
use std::process::Command;

fn run(algo: Algorithm, epochs: usize) -> TrainingHistory {
    let data = toy::gaussian_blobs(480, 8, 4, 0.6, 13);
    let (train, test) = data.split(0.8);
    let cfg = TrainConfig::new(algo, 2)
        .with_lr(0.2)
        .with_batch_size(16)
        .with_epochs(epochs)
        .with_seed(13);
    Trainer::new(cfg, |rng| models::mlp(&[8, 32, 4], rng), train, Some(test)).run()
}

#[test]
fn cd_sgd_learns_with_every_codec() {
    for codec in [
        Codec::TwoBit { threshold: 0.05 },
        Codec::OneBit,
        Codec::TopK { ratio: 0.1 },
        Codec::Qsgd { levels: 4, seed: 1 },
        Codec::AdaptiveTwoBit { scale: 1.0 },
    ] {
        let name = codec.name();
        let h = run(Algorithm::cd_sgd_with(0.05, codec, 2, 10), 8);
        let acc = h.final_test_acc().unwrap();
        assert!(acc > 0.8, "codec {name}: acc {acc}");
    }
}

#[test]
fn adaptive_threshold_needs_no_tuning() {
    // Fixed threshold 5.0 is hostile on this problem (gradients ≪ 5);
    // the adaptive codec self-scales and converges fine with the same
    // "wrong" order of magnitude in its knob.
    let fixed = run(Algorithm::cd_sgd(0.05, 5.0, 1000, 0), 6);
    let adaptive = run(
        Algorithm::cd_sgd_with(0.05, Codec::AdaptiveTwoBit { scale: 1.0 }, 1000, 0),
        6,
    );
    let (f, a) = (
        fixed.final_train_loss().unwrap(),
        adaptive.final_train_loss().unwrap(),
    );
    // k=1000 means effectively no corrections, isolating the codec.
    assert!(
        a < f * 0.7,
        "adaptive {a} should beat hostile fixed threshold {f}"
    );
}

#[test]
fn delay_compensation_does_not_break_convergence() {
    let plain = run(Algorithm::cd_sgd(0.05, 0.05, 2, 10), 8);
    let dc = run(
        Algorithm::cd_sgd(0.05, 0.05, 2, 10).with_delay_compensation(0.04),
        8,
    );
    let (p, d) = (
        plain.final_test_acc().unwrap(),
        dc.final_test_acc().unwrap(),
    );
    assert!(d > 0.8, "DC variant acc {d}");
    assert!((p - d).abs() < 0.15, "plain {p} vs DC {d}");
}

#[test]
fn delay_compensation_changes_the_pushed_gradients() {
    // λ > 0 must actually alter training (different final weights).
    let plain = run(Algorithm::cd_sgd(0.05, 0.05, 2, 5), 2);
    let dc = run(
        Algorithm::cd_sgd(0.05, 0.05, 2, 5).with_delay_compensation(0.1),
        2,
    );
    assert_ne!(plain.final_weights, dc.final_weights);
}

#[test]
fn emulated_network_slows_training_but_preserves_results() {
    let data = toy::gaussian_blobs(120, 6, 3, 0.5, 21);
    let mk = |bps: Option<f64>| {
        let mut cfg = TrainConfig::new(Algorithm::SSgd, 2)
            .with_lr(0.2)
            .with_batch_size(10)
            .with_epochs(2)
            .with_seed(21);
        if let Some(b) = bps {
            cfg = cfg.with_emulated_network(b);
        }
        Trainer::new(cfg, |rng| models::mlp(&[6, 8, 3], rng), data.clone(), None).run()
    };
    let fast = mk(None);
    let slow = mk(Some(200_000.0)); // 200 KB/s — glacial
                                    // Identical math...
    assert_eq!(fast.final_weights, slow.final_weights);
    // ...but measurably slower wall clock.
    let tf: f64 = fast.epochs.iter().map(|e| e.epoch_time_s).sum();
    let ts: f64 = slow.epochs.iter().map(|e| e.epoch_time_s).sum();
    assert!(ts > tf * 2.0, "slow {ts} vs fast {tf}");
}

/// The emulated link never delivers faster than its bandwidth: every
/// byte a run moves books `1 / bandwidth` seconds on one FIFO link, so
/// the run's epochs last at least that long — on the in-process server,
/// and behind the TCP front-end, whose I/O loop holds each pull reply
/// until the link has carried it.
#[test]
fn emulated_link_never_delivers_faster_than_its_bandwidth() {
    const BYTES_PER_S: f64 = 100_000.0;
    // 120 training samples, and a test set whose evaluation after each
    // epoch's last round leaves the link idle for a few milliseconds:
    // room for the epoch clock, which starts as the workers are released
    // rather than before.
    let (train, test) = toy::gaussian_blobs(4120, 6, 3, 0.5, 21).split(120.0 / 4120.0);
    let trainer = || {
        let cfg = TrainConfig::new(Algorithm::SSgd, 2)
            .with_lr(0.2)
            .with_batch_size(10)
            .with_epochs(2)
            .with_seed(21)
            .with_emulated_network(BYTES_PER_S);
        let test = Some(test.clone());
        Trainer::new(cfg, |rng| models::mlp(&[6, 8, 3], rng), train.clone(), test)
    };
    let in_process = trainer().run();
    // One shard: one link carries every byte.
    let tcp = trainer()
        .run_with(|init, cfg| {
            Ok(Box::new(NetCluster::start_tcp_local(
                init,
                cfg,
                1,
                NetConfig::default(),
            )?))
        })
        .expect("tcp run");
    for (backend, h) in [("in-process", &in_process), ("tcp", &tcp)] {
        let last = h.epochs.last().unwrap();
        let bytes = last.cumulative_push_bytes + last.cumulative_pull_bytes;
        let link_s = bytes as f64 / BYTES_PER_S;
        let trained_s: f64 = h.epochs.iter().map(|e| e.epoch_time_s).sum();
        assert!(
            trained_s >= link_s,
            "{backend}: {bytes} bytes took {trained_s} s, under the link's {link_s} s"
        );
    }
    assert_eq!(in_process.final_weights, tcp.final_weights);
}

#[test]
fn cdsgd_train_refuses_a_bandwidth_that_is_not_finite_and_positive() {
    for mibps in ["0", "-5", "nan"] {
        let out = Command::new(env!("CARGO_BIN_EXE_cdsgd"))
            .args(["train", "--algo", "ssgd", "--dataset", "blobs"])
            .args(["--samples", "200", "--epochs", "1", "--net-mibps", mibps])
            .output()
            .expect("run cdsgd train");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--net-mibps {mibps}: {stderr}");
        assert!(
            stderr.contains("bandwidth must be finite and positive"),
            "--net-mibps {mibps}: {stderr}"
        );
    }
}

/// Build a trainer and run it explicitly through `Trainer::run_with` on
/// the in-process backend — the entry point the strategy/server-opt
/// extension leaves are required to work end-to-end through.
fn run_in_process(cfg: TrainConfig) -> TrainingHistory {
    let data = toy::gaussian_blobs(480, 8, 4, 0.6, 13);
    let (train, test) = data.split(0.8);
    Trainer::new(cfg, |rng| models::mlp(&[8, 32, 4], rng), train, Some(test))
        .run_with(|init, server_cfg| {
            Ok(Box::new(InProcessBackend::new(ParamServer::start(
                init, server_cfg,
            ))))
        })
        .expect("in-process run")
}

fn base_cfg(algo: Algorithm) -> TrainConfig {
    TrainConfig::new(algo, 2)
        .with_lr(0.2)
        .with_batch_size(16)
        .with_epochs(8)
        .with_seed(13)
}

#[test]
fn ef_blocksgd_strategy_trains_end_to_end() {
    // The first new UpdateStrategy leaf: blockwise momentum with error
    // feedback, pushing 1-bit payloads every iteration.
    let h = run_in_process(base_cfg(Algorithm::ef_sgd(0.9)).with_lr(0.05));
    assert!(
        h.epochs.last().unwrap().train_loss < h.epochs[0].train_loss,
        "EF-blockSGD loss should decrease: {:?}",
        h.epochs.iter().map(|e| e.train_loss).collect::<Vec<_>>()
    );
    let acc = h.final_test_acc().unwrap();
    assert!(acc > 0.8, "EF-blockSGD acc {acc}");

    // Its pushes are 1-bit sign payloads: traffic must be far below the
    // raw-f32 algorithm's.
    let raw = run_in_process(base_cfg(Algorithm::SSgd));
    let ef_bytes = h.epochs.last().unwrap().cumulative_push_bytes;
    let raw_bytes = raw.epochs.last().unwrap().cumulative_push_bytes;
    assert!(
        (ef_bytes as f64) < (raw_bytes as f64) / 8.0,
        "EF {ef_bytes} bytes should be ≪ raw {raw_bytes}"
    );
}

#[test]
fn nesterov_server_opt_trains_end_to_end() {
    // The new ServerOpt leaf: Nesterov momentum applied to the decoded
    // aggregate on the server. Momentum at lr 0.2 overshoots on this toy
    // problem; a lower lr is the standard pairing.
    let cfg = base_cfg(Algorithm::SSgd)
        .with_lr(0.05)
        .with_server_opt(ServerOptKind::Nesterov { momentum: 0.9 });
    let h = run_in_process(cfg);
    assert!(
        h.epochs.last().unwrap().train_loss < h.epochs[0].train_loss,
        "Nesterov loss should decrease"
    );
    let acc = h.final_test_acc().unwrap();
    assert!(acc > 0.8, "Nesterov acc {acc}");

    // And it must actually change the trajectory vs plain SGD.
    let plain = run_in_process(base_cfg(Algorithm::SSgd).with_lr(0.05));
    assert_ne!(h.final_weights, plain.final_weights);
}

#[test]
fn profiling_records_compress_spans_for_every_compressing_algorithm() {
    // Every algorithm that pushes codec payloads goes through the one
    // timed, kernel-backed staging path; the delayed one (CD-SGD)
    // additionally records its local updates. A sink is all it takes.
    use cd_sgd::telemetry::{
        op_spans,
        Op::{Backward, Compress, Forward, LocalUpdate, PullWait},
    };
    use cd_sgd::{MemorySink, Telemetry};
    let blocking = vec![Forward, Backward, Compress, PullWait];
    let delayed = vec![Forward, Backward, Compress, PullWait, LocalUpdate];
    for (name, algo, kinds) in [
        ("bitsgd", Algorithm::BitSgd { threshold: 0.1 }, &blocking),
        ("ecqsgd", Algorithm::ecq_sgd(0.1, 0.9, 0.9), &blocking),
        ("efsgd", Algorithm::ef_sgd(0.9), &blocking),
        ("cdsgd", Algorithm::cd_sgd(0.05, 0.1, 2, 3), &delayed),
    ] {
        let data = toy::gaussian_blobs(120, 6, 3, 0.5, 22);
        let mem = std::sync::Arc::new(MemorySink::new());
        let cfg = TrainConfig::new(algo, 2)
            .with_lr(0.2)
            .with_batch_size(10)
            .with_epochs(2)
            .with_seed(22)
            .with_telemetry(Telemetry::new(mem.clone()));
        Trainer::new(cfg, |rng| models::mlp(&[6, 8, 3], rng), data, None).run();
        let events = mem.events();
        let spans: Vec<_> = op_spans(&events).map(|s| (s.0, s.1)).collect();
        for kind in kinds {
            assert!(
                spans.iter().any(|(_, op)| op == kind),
                "{name}: missing {kind:?} events"
            );
        }
        // Events from both workers.
        assert!(spans.iter().any(|(w, _)| *w == 0), "{name}");
        assert!(spans.iter().any(|(w, _)| *w == 1), "{name}");
    }
}
