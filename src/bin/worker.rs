//! `worker` — one CD-SGD training worker as a standalone OS process.
//!
//! Connects to a sharded parameter-server group served by `psd`
//! processes and runs the full training loop for one worker replica.
//! Every replica must be launched with identical `--model`, `--seed`,
//! dataset and algorithm flags — the run is then bit-identical to the
//! in-process `Trainer` with the same configuration.
//!
//! ```text
//! worker --id 0 --workers 2 --servers 127.0.0.1:4100,127.0.0.1:4101 \
//!        --algo cdsgd --dataset blobs --samples 480 --batch 16 \
//!        --epochs 2 --lr 0.2 --local-lr 0.05 --threshold 0.05 \
//!        --k 2 --warmup 3 --model mlp:8,32,4 --seed 5 \
//!        [--trace trace.jsonl]
//! ```
//!
//! Server-less deployment: `--topology ring|decentralized` (with
//! `--algo arsgd`) skips the parameter server entirely. Every replica
//! lists the same `--peers addr0,addr1,...` (its own slot is `--id`)
//! and joins the ring (`cdsgd_ps::WireRing::join`: bind its slot, dial
//! its successor, accept its predecessor), and each round synchronizes
//! by chunked allreduce — or, for `decentralized`, by codec-compressed
//! neighbor gossip over the ring
//! (`--codec 2bit|1bit|topk|qsgd`). `--servers` and the PS-only flags
//! (register/heartbeat/reconnect/chaos/depart) are rejected in this
//! mode.
//!
//! ```text
//! worker --id 0 --workers 4 --topology ring \
//!        --peers 127.0.0.1:4200,127.0.0.1:4201,127.0.0.1:4202,127.0.0.1:4203 \
//!        --algo arsgd --dataset blobs --model mlp:8,32,4 --seed 5
//! ```
//!
//! Output contract: **stdout** carries only the machine-parseable
//! `DONE worker <id>` line that process harnesses wait on; everything
//! human-facing (epoch progress, lifecycle status, errors) goes to
//! **stderr** through the telemetry [`Console`] sink. `--trace <path>`
//! additionally streams every telemetry event — this replica's Fig. 5
//! op spans (FP, BP, quant, pull-wait, local update) on lane `--id`,
//! per-frame wire bytes, epoch rollups — to a JSONL file.
//!
//! Workers never shut the servers down: a controller (or `--shutdown`
//! on exactly one worker) sends the shutdown frames once all replicas
//! have finished.
//!
//! A dead server, broken connection, or failed round exits nonzero with
//! the typed error on stderr. `--chaos-kill-round N` makes *this*
//! replica die silently at aggregate round N (its connections stay open
//! but it stops pushing) — fault injection for exercising the servers'
//! `--round-deadline-ms` supervision.
//!
//! Against an elastic server (`psd --min-quorum`/`--heartbeat-ms`):
//! `--register` announces this replica to every shard before training
//! (required when it was not in the server's initial `--workers` set,
//! e.g. a mid-run scale-up) and sends a graceful `Leave` once training
//! finishes, so stragglers keep completing rounds without it.
//! `--depart-epoch N` instead leaves mid-run, at the start of epoch N
//! (a scale-down; requires `--id` ≥ 1). `--heartbeat-ms N` emits a
//! liveness heartbeat to every shard each N milliseconds from a
//! background thread, so a server-side heartbeat timeout evicts only
//! replicas that actually died — pick an interval well below the
//! server's `--heartbeat-ms` eviction window.
//!
//! `--reconnect-retries N` / `--reconnect-backoff-ms M` (DESIGN.md §13)
//! arm worker-side auto-reconnect: when a shard connection drops
//! mid-run, the worker redials every shard with bounded exponential
//! backoff, re-registers, replays the pushes the completed rounds did
//! not consume (exactly once), and re-issues its outstanding pulls —
//! the run then finishes as if the drop never happened. Requires
//! elastic servers (`psd --min-quorum`); with neither flag the same
//! session has no retry budget: it keeps no replay copies, never
//! redials, and a dropped link ends the run with that link's own error,
//! exactly as a plain client would. `--chaos-drop-sends N` injects the matching
//! fault: every shard connection of this replica's training client dies
//! after N sent frames.
//!
//! Fault recovery (DESIGN.md §14): `--checkpoint-dir <dir>` writes this
//! replica's private state (local model and the algorithm's residual or
//! accumulation buffers) after each epoch — every
//! `--checkpoint-every <epochs>` epochs — and `--start-epoch N` resumes
//! from epoch N, restoring that state when a matching checkpoint exists
//! and re-basing on the server's globals otherwise.

use std::sync::Arc;
use std::time::Duration;

use cd_sgd::{run_standalone_worker, Console, Link, Telemetry, Topology, TrainConfig, WorkerFault};
use cd_sgd_repro::deploy::{
    arg, arg_or, build_dataset, build_model, check_model, flag, initial_weights, parse_algorithm,
    parse_reconnect, parse_topology, trace_telemetry, AlgoDefaults,
};
use cdsgd_net::{FaultPlan, NetConfig};
use cdsgd_ps::{Attach, NetCluster, PsBackend, TrafficStats, WireRing};

fn main() {
    let console = Console::new();
    let id: usize = arg_or("id", 0);
    let workers: usize = arg_or("workers", 1);
    let servers: Vec<String> = arg("servers")
        .map(|s| s.split(',').map(str::to_string).collect())
        .unwrap_or_default();

    let dataset = arg("dataset").unwrap_or_else(|| "blobs".to_string());
    let samples: usize = arg_or("samples", 480);
    let batch: usize = arg_or("batch", 16);
    let epochs: usize = arg_or("epochs", 2);
    let seed: u64 = arg_or("seed", 42);
    let lr: f32 = arg_or("lr", 0.1);
    let model = arg("model").unwrap_or_else(|| "mlp:8,32,4".to_string());
    let shutdown = flag("shutdown");
    let register = flag("register");
    let heartbeat_ms: u64 = arg_or("heartbeat-ms", 0);
    let start_epoch: usize = arg_or("start-epoch", 0);
    let ckpt_dir = arg("checkpoint-dir");
    let ckpt_every: usize = arg_or("checkpoint-every", 1);
    if start_epoch >= epochs {
        console.error(format_args!(
            "--start-epoch {start_epoch} must be below --epochs {epochs}"
        ));
        std::process::exit(2);
    }
    if ckpt_every == 0 {
        console.error("--checkpoint-every must be at least 1 epoch");
        std::process::exit(2);
    }
    let depart_epoch: Option<usize> = arg("depart-epoch").map(|v| {
        v.parse().unwrap_or_else(|_| {
            console.error(format_args!(
                "--depart-epoch must be an epoch number, got {v:?}"
            ));
            std::process::exit(2)
        })
    });
    let chaos_kill_round: Option<u64> = arg("chaos-kill-round").map(|v| {
        v.parse().unwrap_or_else(|_| {
            console.error(format_args!(
                "--chaos-kill-round must be a round number, got {v:?}"
            ));
            std::process::exit(2)
        })
    });
    let chaos_drop_sends: Option<u64> = arg("chaos-drop-sends").map(|v| {
        v.parse().unwrap_or_else(|_| {
            console.error(format_args!(
                "--chaos-drop-sends must be a frame count, got {v:?}"
            ));
            std::process::exit(2)
        })
    });

    if let Err(e) = check_model(&model, Some(&dataset)) {
        console.error(e);
        std::process::exit(2);
    }

    let argv: Vec<String> = std::env::args().collect();
    let defaults = AlgoDefaults {
        local_lr: 0.05,
        threshold: 0.05,
        k: 2,
        warmup: 3,
    };
    let algo = parse_algorithm(&argv, &defaults).unwrap_or_else(|e| {
        console.error(e);
        std::process::exit(2)
    });
    let topology = parse_topology(&argv, &defaults).unwrap_or_else(|e| {
        console.error(e);
        std::process::exit(2)
    });
    let collective_mode = topology != Topology::Ps;
    if collective_mode && !algo.uses_ring() {
        console.error(format_args!(
            "--topology {} is server-less and requires --algo arsgd (got {})",
            topology.name(),
            algo.name()
        ));
        std::process::exit(2);
    }
    if algo.uses_ring() && !collective_mode {
        console.error(
            "arsgd needs a worker collective; pass --topology ring|decentralized \
             with --peers addr0,addr1,... (or use `cdsgd train --algo arsgd`)",
        );
        std::process::exit(2);
    }
    let reconnect = parse_reconnect(&argv).unwrap_or_else(|e| {
        console.error(e);
        std::process::exit(2)
    });

    // Status and epoch rollups render on stderr through the console
    // sink; `--trace` adds the JSONL event stream alongside it. The
    // trace handle is kept separate so it can be flushed before the
    // DONE contract line — a harness that sees DONE may read the file
    // immediately.
    let trace = trace_telemetry();
    let telemetry = Telemetry::new(Arc::new(Console::new())).and(&trace);

    let (train, test) = build_dataset(&dataset, samples, seed);
    let num_keys = initial_weights(&model, seed).len();
    let mut cfg = TrainConfig::new(algo, workers)
        .with_lr(lr)
        .with_batch_size(batch)
        .with_epochs(epochs)
        .with_seed(seed)
        .with_telemetry(telemetry.clone());
    if let Some(epoch) = depart_epoch {
        cfg = cfg.with_departure(id, epoch);
    }
    if start_epoch > 0 {
        cfg = cfg.with_start_epoch(start_epoch);
    }
    if let Some(dir) = &ckpt_dir {
        cfg = cfg.with_worker_checkpoints(dir, ckpt_every);
    }

    // ---- server-less collective deployment (--topology ring|decentralized) ----
    // No parameter server exists: every replica binds its own --peers slot,
    // wires up the ring over TCP, and synchronizes through allreduce
    // (or compressed neighbor gossip). The PS-only machinery — registration,
    // heartbeats, reconnect, chaos — has no server to talk to, so those
    // flags are rejected rather than silently ignored.
    if collective_mode {
        for (present, name) in [
            (!servers.is_empty(), "--servers"),
            (register, "--register"),
            (heartbeat_ms > 0, "--heartbeat-ms"),
            (shutdown, "--shutdown"),
            (
                reconnect.is_some(),
                "--reconnect-retries/--reconnect-backoff-ms",
            ),
            (chaos_kill_round.is_some(), "--chaos-kill-round"),
            (chaos_drop_sends.is_some(), "--chaos-drop-sends"),
            (depart_epoch.is_some(), "--depart-epoch"),
        ] {
            if present {
                console.error(format_args!(
                    "{name} talks to a parameter server; --topology {} runs without one",
                    topology.name()
                ));
                std::process::exit(2);
            }
        }
        let peers: Vec<String> = arg("peers")
            .unwrap_or_else(|| {
                console.error(format_args!(
                    "--topology {} needs --peers addr0,addr1,... (one per worker, \
                     every process listing the same addresses in the same order)",
                    topology.name()
                ));
                std::process::exit(2)
            })
            .split(',')
            .map(str::to_string)
            .collect();
        if peers.len() != workers || id >= workers {
            console.error(format_args!(
                "--peers lists {} addresses but --workers is {workers} (--id {id} \
                 must index into the peer list)",
                peers.len()
            ));
            std::process::exit(2);
        }
        cfg = cfg.with_topology(topology.clone());
        console.status(format_args!(
            "worker {id}/{workers}: {} train samples, topology {}, binding {}",
            train.len(),
            topology.name(),
            peers[id]
        ));
        // The collective's byte counters fold into the same trace stream
        // the PS path uses, so `--trace` shows per-frame wire accounting
        // for collective runs too.
        let stats = Arc::new(TrafficStats::with_telemetry(telemetry));
        let collective = WireRing::join(id, &peers, &NetConfig::default(), Arc::clone(&stats))
            .unwrap_or_else(|e| {
                console.error(format_args!(
                    "worker {id}: {} wiring failed: {e}",
                    topology.name()
                ));
                std::process::exit(1)
            });
        let spec = model.clone();
        let report = match run_standalone_worker(
            cfg,
            id,
            move |rng| build_model(&spec, rng),
            &train,
            Some(test),
            Link::Collective(Box::new(collective)),
        ) {
            Ok(report) => report,
            Err(e) => {
                console.error(format_args!("worker {id}: training failed: {e}"));
                std::process::exit(1);
            }
        };
        console.status(format_args!(
            "worker {id}: finished {} epochs; {} B sent / {} B received on the wire",
            report.len(),
            stats.bytes_sent(),
            stats.bytes_received()
        ));
        trace.flush();
        console.contract(format_args!("DONE worker {id}"));
        return;
    }

    if servers.is_empty() {
        console.error("missing --servers addr[,addr...]");
        std::process::exit(2);
    }
    console.status(format_args!(
        "worker {id}/{workers}: {} train samples, {num_keys} keys over {} shards",
        train.len(),
        servers.len()
    ));
    let cluster = NetCluster::connect(&servers, num_keys, NetConfig::default())
        .unwrap_or_else(|e| {
            console.error(format_args!(
                "worker {id}: connecting to servers failed: {e}"
            ));
            std::process::exit(1);
        })
        .traced(telemetry);
    if let Some(n) = chaos_drop_sends {
        console.status(format_args!(
            "worker {id}: chaos — every shard connection dies after {n} sent frames"
        ));
        cluster.arm_chaos(FaultPlan::new().kill_after_sends(n));
    }
    if let Some(round) = chaos_kill_round {
        console.status(format_args!(
            "worker {id}: chaos — will die silently at round {round}"
        ));
    }
    // The flags map one-to-one onto the attach options; the layering of
    // the client stack they select is `NetCluster::attach`'s decision
    // (DESIGN.md §13). With none of them set it is one session with no
    // retry budget.
    let attached = cluster
        .attach(
            id,
            Attach {
                register,
                heartbeat: (heartbeat_ms > 0).then(|| Duration::from_millis(heartbeat_ms)),
                reconnect,
                fault: chaos_kill_round.map(|round| WorkerFault::KillAtRound { round }),
            },
        )
        .unwrap_or_else(|e| {
            console.error(format_args!("worker {id}: attaching failed: {e}"));
            std::process::exit(1);
        });
    if let Some(versions) = attached.acked() {
        console.status(format_args!(
            "worker {id}: registered with {} shards at round {}",
            servers.len(),
            versions.iter().copied().min().unwrap_or(0)
        ));
    }

    let spec = model.clone();
    let report = match run_standalone_worker(
        cfg,
        id,
        move |rng| build_model(&spec, rng),
        &train,
        Some(test),
        Link::Ps(attached.client()),
    ) {
        Ok(report) => report,
        Err(e) => {
            console.error(format_args!("worker {id}: training failed: {e}"));
            std::process::exit(1);
        }
    };
    console.status(format_args!(
        "worker {id}: finished {} epochs",
        report.len()
    ));
    match depart_epoch {
        // A scripted departure already said goodbye from inside the run.
        Some(_) => drop(attached),
        None => {
            if let Err(e) = attached.finish() {
                console.error(format_args!("worker {id}: leave failed: {e}"));
                std::process::exit(1);
            }
            if register {
                console.status(format_args!("worker {id}: left the membership"));
            }
        }
    }

    if shutdown {
        Box::new(cluster).shutdown();
        console.status(format_args!(
            "worker {id}: sent shutdown to {} shards",
            servers.len()
        ));
    }
    trace.flush();
    console.contract(format_args!("DONE worker {id}"));
}
