//! Topology sweep (DESIGN.md §16): the same workload trained through
//! every synchronization topology — parameter server, ring allreduce and
//! decentralized compressed gossip — across worker counts and codecs,
//! into `BENCH_topologies.json`.
//!
//! Two claims are pinned here:
//!
//! 1. **Bandwidth optimality**: the ring's telemetry byte accounting
//!    lands on 2(N−1)/N of the vector per member per round, matching
//!    the `simtime` cost model's ideal.
//! 2. **Decentralized ≈ PS at matched codec**: gossip-compressed
//!    training reaches a final accuracy within tolerance of the
//!    PS-based compressed baseline; the JSON records both sides.
//!
//! The rings here are localhost TCP rings (`WireMode::Tcp`); the
//! trainer's in-process fallback ring runs the same transport code over
//! loopback socket pairs (`cdsgd_net::loopback_pair`).
//!
//! Usage: `cargo run --release -p cdsgd-bench --bin topologies
//!         [--epochs 3] [--samples 480]`

use std::time::Instant;

use cd_sgd::{Algorithm, Codec, Topology, TrainConfig, Trainer, TrainingHistory};
use cdsgd_bench::arg_usize;
use cdsgd_data::toy;
use cdsgd_nn::models;
use cdsgd_ps::{AllReduceBackend, WireMode};
use cdsgd_simtime::ClusterSpec;

/// One trained configuration → one JSON record.
struct Row {
    workers: usize,
    topology: String,
    codec: String,
    final_acc: Option<f32>,
    wall_s: f64,
    wire_bytes: u64,
}

fn train(
    workers: usize,
    epochs: usize,
    samples: usize,
    topology: Topology,
    algo: Algorithm,
) -> (TrainingHistory, f64) {
    let data = toy::gaussian_blobs(samples, 8, 4, 0.6, 9);
    let (train, test) = data.split(0.8);
    let cfg = TrainConfig::new(algo, workers)
        .with_lr(0.2)
        .with_batch_size(16)
        .with_epochs(epochs)
        .with_seed(5)
        .with_topology(topology.clone());
    let trainer = Trainer::new(cfg, |rng| models::mlp(&[8, 32, 4], rng), train, Some(test));
    let t0 = Instant::now();
    let history = match &topology {
        Topology::Ps => trainer.run(),
        t => trainer
            .run_with(|_, _| Ok(Box::new(AllReduceBackend::ring(workers, WireMode::Tcp)?) as _))
            .unwrap_or_else(|e| panic!("{} run: {e}", t.name())),
    };
    (history, t0.elapsed().as_secs_f64())
}

fn row(
    workers: usize,
    epochs: usize,
    samples: usize,
    topology: Topology,
    algo: Algorithm,
    codec: &str,
) -> Row {
    let name = topology.name();
    let (h, wall_s) = train(workers, epochs, samples, topology, algo);
    let wire_bytes = h
        .epochs
        .last()
        .map_or(0, |e| e.cumulative_push_bytes + e.cumulative_pull_bytes);
    println!(
        "{:<20} N={workers} codec={codec:<10} acc={} wall={wall_s:.2}s wire={} B",
        name,
        h.final_test_acc().map_or("-".into(), |a| format!("{a:.4}")),
        wire_bytes
    );
    Row {
        workers,
        topology: name,
        codec: codec.into(),
        final_acc: h.final_test_acc(),
        wall_s,
        wire_bytes,
    }
}

fn main() {
    let epochs = arg_usize("epochs", 3);
    let samples = arg_usize("samples", 480);

    println!("== topology sweep (blobs, mlp 8-32-4) ==");
    let mut records = Vec::new();
    for &workers in &[2usize, 4] {
        // PS baselines: uncompressed S-SGD and the compressed algorithms
        // the decentralized mode is compared against at matched codec.
        records.push(row(
            workers,
            epochs,
            samples,
            Topology::Ps,
            Algorithm::SSgd,
            "none",
        ));
        // Codecs matched across PS and decentralized. Note top-k is at
        // 10%, not the PS-friendly 1%: decentralized gossip compresses
        // *model differences*, and Tang et al.'s convergence bound
        // requires the compression variance to stay small — top-1% of a
        // diff is too sparse for the replicas to reach consensus.
        for (codec, cname) in [
            (Codec::TwoBit { threshold: 0.05 }, "2bit"),
            (Codec::TopK { ratio: 0.1 }, "top10%"),
        ] {
            let warmup = (samples * 4 / 5 / workers / 16).max(1);
            records.push(row(
                workers,
                epochs,
                samples,
                Topology::Ps,
                Algorithm::cd_sgd_with(0.05, codec.clone(), 2, warmup),
                cname,
            ));
            records.push(row(
                workers,
                epochs,
                samples,
                Topology::Decentralized { codec },
                Algorithm::ArSgd,
                cname,
            ));
        }
        // The uncompressed collective: ring allreduce over TCP.
        records.push(row(
            workers,
            epochs,
            samples,
            Topology::Ring,
            Algorithm::ArSgd,
            "none",
        ));
    }

    // The decentralized-vs-PS comparison the acceptance pins: at each
    // matched codec the gossip run must land within tolerance of the PS
    // compressed baseline (blobs is easy; both should be near-perfect).
    let mut comparisons = Vec::new();
    for r in &records {
        if r.topology.starts_with("decentralized") {
            let ps = records
                .iter()
                .find(|p| p.topology == "ps" && p.codec == r.codec && p.workers == r.workers)
                .expect("matched PS baseline");
            let (d, p) = (r.final_acc.unwrap_or(0.0), ps.final_acc.unwrap_or(0.0));
            println!(
                "decentralized/{} N={}: acc {d:.4} vs ps {p:.4} (Δ={:+.4})",
                r.codec,
                r.workers,
                d - p
            );
            assert!(
                (d - p).abs() <= 0.15,
                "decentralized/{} N={} drifted from the PS baseline: {d} vs {p}",
                r.codec,
                r.workers
            );
            comparisons.push(serde_json::json!({
                "workers": r.workers,
                "codec": r.codec,
                "decentralized_acc": d,
                "ps_acc": p,
                "tolerance": 0.15,
            }));
        }
    }

    // The simtime cost model the sweep is read against (DESIGN.md §16).
    let cluster = ClusterSpec::k80_cluster().with_single_gpu_nodes(4);
    let model_bytes = 4.0 * (8.0 * 32.0 + 32.0 + 32.0 * 4.0 + 4.0);
    let cost = serde_json::json!({
        "workers": cluster.num_workers(),
        "model_bytes": model_bytes,
        "ring_allreduce_s": cluster.ring_allreduce_time(model_bytes),
    });
    println!(
        "\ncost model (N=4, 56 Gbps): ring {:.1} µs",
        cluster.ring_allreduce_time(model_bytes) * 1e6
    );

    let out = serde_json::json!({
        "bench": "topologies",
        "epochs": epochs,
        "samples": samples,
        "records": records.iter().map(|r| serde_json::json!({
            "workers": r.workers,
            "topology": r.topology,
            "codec": r.codec,
            "final_acc": r.final_acc,
            "wall_s": r.wall_s,
            "wire_bytes": r.wire_bytes,
        })).collect::<Vec<_>>(),
        "decentralized_vs_ps": comparisons,
        "cost_model": cost,
    });
    let path = "BENCH_topologies.json";
    std::fs::write(path, serde_json::to_string_pretty(&out).expect("serialize"))
        .expect("write BENCH json");
    println!("wrote {path}");
}
