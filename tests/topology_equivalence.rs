//! Topology equivalence (DESIGN.md §16): the ring allreduce on every
//! transport — loopback queues or real TCP — must produce
//! *bit-identical* training runs, because all of them fold chunks in
//! the same pinned ring order. The decentralized compressed
//! topology is approximate by construction (gossip consensus instead of
//! exact averaging), so it is pinned by tolerance, and the ECQ-SGD leaf
//! is pinned by its exact BitSgd degeneracy at α = β = 1.

use cd_sgd::{Algorithm, Codec, Topology, TrainConfig, Trainer, TrainingHistory};
use cdsgd_data::toy;
use cdsgd_nn::models;
use cdsgd_ps::{AllReduceBackend, WireMode};

fn cfg(algo: Algorithm, workers: usize, epochs: usize) -> TrainConfig {
    TrainConfig::new(algo, workers)
        .with_lr(0.2)
        .with_batch_size(16)
        .with_epochs(epochs)
        .with_seed(9)
}

fn trainer(cfg: TrainConfig) -> Trainer {
    let data = toy::gaussian_blobs(480, 8, 4, 0.6, 9);
    let (train, test) = data.split(0.8);
    Trainer::new(cfg, |rng| models::mlp(&[8, 32, 4], rng), train, Some(test))
}

/// The model of the fixture: 8→32→4 MLP, 420 floats total.
const MODEL_FLOATS: u64 = 8 * 32 + 32 + 32 * 4 + 4;

/// FNV-1a over the little-endian bit patterns of all final weights, in
/// key order (the `strategy_equivalence` hash).
fn weight_hash(h: &TrainingHistory) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for w in h.final_weights.iter().flatten() {
        for b in w.to_bits().to_le_bytes() {
            acc ^= b as u64;
            acc = acc.wrapping_mul(0x1000_0000_01b3);
        }
    }
    acc
}

#[test]
fn allreduce_bit_identical_across_transports_and_topologies() {
    // The reduction-order contract makes every backend exact: chunk c
    // accumulates in ring order starting at rank c, so not just close —
    // equal bits.
    let reference = trainer(cfg(Algorithm::ArSgd, 4, 3)).run();
    assert!(
        reference.final_test_acc().unwrap() > 0.85,
        "fixture must actually learn"
    );
    // Captured at commit dc4c259, when the trainer's fallback ring still
    // ran over in-process channels; holds on both kernel backends.
    assert_eq!(
        weight_hash(&reference),
        0xe494d145d35042fc,
        "the trainer's fallback ring left the pinned reduction order"
    );

    let variants: Vec<(&str, TrainingHistory)> = vec![
        (
            "ring/loopback",
            trainer(cfg(Algorithm::ArSgd, 4, 3))
                .run_with(|_, _| Ok(Box::new(AllReduceBackend::ring(4, WireMode::Loopback)?) as _))
                .unwrap(),
        ),
        (
            "ring/tcp",
            trainer(cfg(Algorithm::ArSgd, 4, 3))
                .run_with(|_, _| Ok(Box::new(AllReduceBackend::ring(4, WireMode::Tcp)?) as _))
                .unwrap(),
        ),
    ];
    for (name, h) in &variants {
        assert_eq!(
            reference.final_weights, h.final_weights,
            "{name} diverged from the in-memory ring"
        );
        assert_eq!(
            reference
                .epochs
                .iter()
                .map(|e| e.test_acc)
                .collect::<Vec<_>>(),
            h.epochs.iter().map(|e| e.test_acc).collect::<Vec<_>>(),
            "{name} epoch accuracies diverged"
        );
    }
}

#[test]
fn tcp_ring_byte_accounting_is_exactly_bandwidth_optimal() {
    // The acceptance claim on real TCP: each of the N members sends
    // exactly 2(N−1)/N of the vector per round — counted from the
    // collective's own telemetry, not inferred.
    let n = 4usize;
    let epochs = 2usize;
    let backend = AllReduceBackend::ring(n, WireMode::Tcp).unwrap();
    let stats = backend.stats();
    let h = trainer(cfg(Algorithm::ArSgd, n, epochs))
        .run_with(move |_, _| Ok(Box::new(backend) as _))
        .unwrap();

    // 480 samples × 0.8 split ÷ 4 workers ÷ batch 16 = 6 rounds/epoch.
    let rounds = (epochs * 6) as u64;
    let vec_bytes = 4 * MODEL_FLOATS;
    let expect = rounds * n as u64 * (2 * (n as u64 - 1) * vec_bytes / n as u64);
    assert_eq!(
        h.epochs.last().unwrap().cumulative_push_bytes,
        expect,
        "ring payload must be 2(N\u{2212}1)/N of the vector per member per round"
    );
    // Frame-level conservation: every byte sent over a TCP link was
    // received on its other end (chunk frames + hello handshakes alike).
    assert_eq!(stats.bytes_sent(), stats.bytes_received());
    assert!(
        stats.bytes_sent() > 0,
        "TCP transports must route through the counted wire"
    );
}

#[test]
fn decentralized_compressed_within_tolerance_of_ps_baseline() {
    // Gossip consensus is approximate; pin it to the PS run at the
    // *matched* codec (2-bit, threshold 0.05), not to exact bits.
    let codec = Codec::TwoBit { threshold: 0.05 };
    let ps = trainer(cfg(Algorithm::cd_sgd_with(0.05, codec.clone(), 2, 6), 4, 4)).run();
    let dec = trainer(cfg(Algorithm::ArSgd, 4, 4).with_topology(Topology::Decentralized { codec }))
        .run_with(|_, _| Ok(Box::new(AllReduceBackend::ring(4, WireMode::Tcp)?) as _))
        .unwrap();

    let (p, d) = (ps.final_test_acc().unwrap(), dec.final_test_acc().unwrap());
    assert!(d > 0.85, "decentralized must learn, got {d}");
    assert!(
        (p - d).abs() <= 0.15,
        "decentralized acc {d} drifted from PS baseline {p}"
    );
}

#[test]
fn decentralized_is_deterministic_across_transports() {
    // Approximate versus the PS — but still bit-deterministic: the same
    // seeds through loopback queues and TCP sockets give the same run.
    let mk = || {
        cfg(Algorithm::ArSgd, 3, 2).with_topology(Topology::Decentralized {
            codec: Codec::TwoBit { threshold: 0.05 },
        })
    };
    let mem = trainer(mk()).run();
    let tcp = trainer(mk())
        .run_with(|_, _| Ok(Box::new(AllReduceBackend::ring(3, WireMode::Tcp)?) as _))
        .unwrap();
    assert_eq!(mem.final_weights, tcp.final_weights);
}

#[test]
fn ecq_sgd_degenerates_to_bitsgd_bit_for_bit() {
    // α = β = 1 turns ECQ-SGD's scaled accumulation into plain error
    // feedback; both strategies then quantize the same corrected
    // gradient with the same threshold ladder, so the entire training
    // run — not just one step — matches bitwise.
    let bit = trainer(cfg(Algorithm::BitSgd { threshold: 0.05 }, 3, 3)).run();
    let ecq = trainer(cfg(Algorithm::ecq_sgd(0.05, 1.0, 1.0), 3, 3)).run();
    assert_eq!(bit.final_weights, ecq.final_weights);

    // Away from the degenerate corner it is a different algorithm —
    // and must still learn.
    let scaled = trainer(cfg(Algorithm::ecq_sgd(0.05, 0.9, 0.9), 3, 3)).run();
    assert_ne!(bit.final_weights, scaled.final_weights);
    assert!(scaled.final_test_acc().unwrap() > 0.85);
}
