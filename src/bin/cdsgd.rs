//! `cdsgd` — command-line front end for the CD-SGD reproduction.
//!
//! ```text
//! cdsgd train    --algo <ssgd|odsgd|bitsgd|cdsgd|localsgd|arsgd|efsgd|ecqsgd> \
//!                --dataset mnist --workers 4 --epochs 5 \
//!                [--topology ps|ring|decentralized [--codec 2bit]] \
//!                [--k 2] [--threshold 0.5] [--local-lr 0.1] [--warmup N] \
//!                [--dc-lambda 0] [--sync-period 4] [--ef-momentum 0.9] \
//!                [--ecq-alpha 1] [--ecq-beta 1] \
//!                [--lr 0.1] [--momentum 0 [--nesterov]] \
//!                [--batch 32] [--samples 4000] [--seed 42] [--net-mibps 200] \
//!                [--max-restarts 0] [--restart-backoff-ms 250] \
//!                [--save final.ckpt] [--history hist.json] [--trace trace.jsonl]
//! cdsgd simulate --model resnet50 --gpu v100 --batch 32 [--k 5] [--gbps 56]
//! cdsgd codecs   [--n 1000000]
//! cdsgd orchestrate [--epochs 6] [--depart-epoch 3] [--join-delay-ms 300] \
//!                [--algo ssgd] [--samples 960] [--batch 16] [--lr 0.2] [--seed 5] \
//!                [--max-restarts 1 [--kill-round 12] [--restart-backoff-ms 250]] \
//!                [--reconnect-retries 5 [--reconnect-backoff-ms 50]]
//! ```
//!
//! `orchestrate` is the elastic-membership demo: it spawns a local
//! cluster as real OS processes — one `psd` shard in elastic mode plus
//! workers 0 and 1 — then scales *up* mid-run (worker 2 registers late
//! and rebases onto the acked versions) and *down* (worker 1 departs
//! gracefully at `--depart-epoch`). Training must complete green through
//! both membership changes; the controller then snapshots and shuts the
//! shard down. Exit status 0 is the proof.
//!
//! With `--max-restarts N` the demo adds the fault-recovery scenario
//! (DESIGN.md §14): the late joiner is spawned with a scripted silent
//! death at `--kill-round`, the shard's heartbeat timeout evicts it, and
//! the controller — governed by the same [`cd_sgd::RestartPolicy`] the
//! in-process trainer uses — re-admits a replacement via the
//! register/rebase path instead of aborting. Everyone else emits
//! heartbeats so the eviction sweep only removes the dead replica.
//!
//! `--reconnect-retries` / `--reconnect-backoff-ms` are forwarded to
//! every spawned worker, arming worker-side auto-reconnect (DESIGN.md
//! §13): a worker whose shard connection drops mid-run redials,
//! re-registers, and replays instead of exiting nonzero.

use cd_sgd::{save_history, RestartPolicy, Topology, TrainConfig, Trainer};
use cd_sgd_repro::deploy::{
    arg, arg_or, parse_algorithm, parse_server_opt, parse_topology, trace_telemetry, AlgoDefaults,
};
use cd_sgd_repro::simtime::pipeline::{AlgoKind, PipelineSim};
use cd_sgd_repro::simtime::{zoo, ClusterSpec, ModelSpec};
use cdsgd_data::{synth, toy, Dataset};
use cdsgd_nn::{models, Sequential};
use cdsgd_ps::recover::{write_atomic, Checkpoint, Kind};
use cdsgd_tensor::SmallRng64;
use std::path::Path;

/// A seeded model constructor, one per dataset choice.
type ModelBuilder = Box<dyn Fn(&mut SmallRng64) -> Sequential + Send + Sync>;

fn usage() -> ! {
    eprintln!(
        "usage: cdsgd <train|simulate|codecs|orchestrate> [options]\n\
         run `cdsgd train --help-options` style flags are documented in the binary's doc comment"
    );
    std::process::exit(2)
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("train") => cmd_train(),
        Some("simulate") => cmd_simulate(),
        Some("codecs") => cmd_codecs(),
        Some("orchestrate") => cmd_orchestrate(),
        _ => usage(),
    }
}

/// Spawn a local elastic cluster (`psd` + workers as OS processes),
/// scale the worker pool up and down mid-run, and exit 0 only if every
/// process finishes green. See the binary doc comment for the scenario.
fn cmd_orchestrate() {
    match orchestrate_run() {
        Ok(summary) => println!("{summary}"),
        Err(e) => {
            eprintln!("orchestrate: {e}");
            std::process::exit(1);
        }
    }
}

/// Kills whatever is still running if orchestration fails mid-way (the
/// error path drops this before the process exits).
struct Reap(Vec<std::process::Child>);

impl Drop for Reap {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn orchestrate_run() -> Result<String, String> {
    use cdsgd_ps::PsBackend as _;
    use std::io::{BufRead, BufReader};
    use std::process::{Child, Command, Stdio};

    const MODEL: &str = "mlp:8,32,4";
    let epochs: usize = arg_or("epochs", 6);
    let depart_epoch: usize = arg_or("depart-epoch", (epochs / 2).max(1));
    let samples: usize = arg_or("samples", 960);
    let batch: usize = arg_or("batch", 16);
    let seed: u64 = arg_or("seed", 5);
    let lr: f32 = arg_or("lr", 0.2);
    let join_delay_ms: u64 = arg_or("join-delay-ms", 100);
    let algo = arg("algo").unwrap_or_else(|| "ssgd".into());
    let max_restarts: u32 = arg_or("max-restarts", 0);
    let restart_backoff_ms: u64 = arg_or("restart-backoff-ms", 250);
    let kill_round: u64 = arg_or("kill-round", 12);
    if depart_epoch == 0 || depart_epoch >= epochs {
        eprintln!("--depart-epoch must be in 1..--epochs (got {depart_epoch} of {epochs})");
        std::process::exit(2);
    }
    // Worker-side auto-reconnect, validated here and forwarded verbatim
    // to every spawned worker (the servers this demo spawns are elastic,
    // which reconnection requires).
    let argv: Vec<String> = std::env::args().collect();
    let reconnect_args: Vec<String> =
        match cd_sgd_repro::deploy::parse_reconnect(&argv).map_err(|e| e.to_string())? {
            None => Vec::new(),
            Some(rc) => vec![
                "--reconnect-retries".into(),
                rc.retries.to_string(),
                "--reconnect-backoff-ms".into(),
                (rc.backoff.as_millis() as u64).to_string(),
            ],
        };

    let bin_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
        .ok_or("cannot locate the directory holding this binary")?;
    let psd_bin = bin_dir.join("psd");
    let worker_bin = bin_dir.join("worker");
    if !psd_bin.exists() || !worker_bin.exists() {
        return Err(format!(
            "orchestrate spawns the psd and worker binaries next to cdsgd \
             ({}): build them first with `cargo build --bins`",
            bin_dir.display()
        ));
    }

    let mut reap = Reap(Vec::new());

    // One shard in elastic mode: workers 0 and 1 form the initial set,
    // min-quorum 1 lets the pool drain gracefully to zero at the end.
    // With restarts armed the shard also needs a heartbeat timeout, so
    // the scripted silent death below is *evicted* (quorum re-sized)
    // rather than stalling every in-flight round forever.
    let mut psd_cmd = Command::new(&psd_bin);
    psd_cmd
        .args(["--shard", "0", "--num-shards", "1", "--workers", "2"])
        .args(["--min-quorum", "1"])
        .args(["--lr", &lr.to_string(), "--port", "0"])
        .args(["--model", MODEL, "--seed", &seed.to_string()]);
    if max_restarts > 0 {
        psd_cmd.args(["--heartbeat-ms", "1500"]);
    }
    let mut psd = psd_cmd
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn psd: {e}"))?;
    let mut psd_out = BufReader::new(psd.stdout.take().expect("psd stdout is piped"));
    reap.0.push(psd);
    let mut line = String::new();
    psd_out
        .read_line(&mut line)
        .map_err(|e| format!("read LISTENING line: {e}"))?;
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .ok_or_else(|| format!("unexpected psd output: {line:?}"))?
        .to_string();
    println!("orchestrate: psd listening on {addr} (elastic, min-quorum 1)");

    let spawn_worker = |id: usize, extra: &[&str]| -> Result<Child, String> {
        Command::new(&worker_bin)
            .args(["--id", &id.to_string(), "--workers", "3"])
            .args(["--servers", &addr, "--algo", &algo])
            .args(["--dataset", "blobs", "--samples", &samples.to_string()])
            .args([
                "--batch",
                &batch.to_string(),
                "--epochs",
                &epochs.to_string(),
            ])
            .args(["--lr", &lr.to_string(), "--model", MODEL])
            .args(["--seed", &seed.to_string()])
            .args(&reconnect_args)
            .args(extra)
            .spawn()
            .map_err(|e| format!("spawn worker {id}: {e}"))
    };

    // When restarts are armed, every healthy replica emits heartbeats so
    // the server's eviction sweep removes only the replica that actually
    // dies (a healthy worker blocked on a stalled round goes push-silent
    // too, and pushes are its only other liveness signal).
    let hb: &[&str] = if max_restarts > 0 {
        &["--heartbeat-ms", "100"]
    } else {
        &[]
    };

    // Initial pool: worker 0 runs the whole way (and says goodbye at the
    // end); worker 1 departs gracefully mid-run — the scale-down.
    reap.0
        .push(spawn_worker(0, &[&["--register"], hb].concat())?);
    reap.0.push(spawn_worker(
        1,
        &[&["--depart-epoch", &depart_epoch.to_string()], hb].concat(),
    )?);
    println!("orchestrate: workers 0 and 1 training; 1 departs at epoch {depart_epoch}");

    // The scale-up: worker 2 was never in the server's initial set; it
    // registers mid-run and rebases its pulls onto the acked versions.
    // With restarts armed it is also the chaos victim: a scripted silent
    // death at --kill-round, for the recovery scenario below.
    std::thread::sleep(std::time::Duration::from_millis(join_delay_ms));
    let kill = kill_round.to_string();
    let victim_extra: Vec<&str> = if max_restarts > 0 {
        [&["--register", "--chaos-kill-round", &kill], hb].concat()
    } else {
        vec!["--register"]
    };
    reap.0.push(spawn_worker(2, &victim_extra)?);
    println!("orchestrate: worker 2 joining mid-run");

    for id in 0..2 {
        let status = reap.0[id + 1]
            .wait()
            .map_err(|e| format!("wait worker {id}: {e}"))?;
        if !status.success() {
            return Err(format!("worker {id} exited with {status}"));
        }
    }

    // Supervise the (possibly chaos-stricken) worker 2 under the same
    // restart policy the in-process trainer uses: a nonzero exit spends
    // one grant, waits the backoff, and re-admits a replacement through
    // the register/rebase path — until the budget is exhausted.
    let mut budget = RestartPolicy::new(
        max_restarts,
        std::time::Duration::from_millis(restart_backoff_ms),
    )
    .budget();
    let mut restarts = 0u32;
    loop {
        let status = reap
            .0
            .last_mut()
            .expect("worker 2 was spawned")
            .wait()
            .map_err(|e| format!("wait worker 2: {e}"))?;
        if status.success() {
            break;
        }
        let Some(delay) = budget.grant() else {
            return Err(format!(
                "worker 2 exited with {status} and the restart budget is exhausted"
            ));
        };
        restarts += 1;
        println!(
            "orchestrate: worker 2 lost ({status}); re-admitting a replacement in {delay:?} \
             ({} restarts left)",
            budget.remaining()
        );
        std::thread::sleep(delay);
        reap.0
            .push(spawn_worker(2, &[&["--register"], hb].concat())?);
    }
    println!("orchestrate: all workers finished and left the membership");

    // Controller epilogue: snapshot the drained (zero-active) shard,
    // then shut it down over the wire.
    let num_keys = cd_sgd_repro::deploy::initial_weights(MODEL, seed).len();
    let addrs = [addr];
    let cluster = cdsgd_ps::NetCluster::connect(&addrs, num_keys, cdsgd_net::NetConfig::default())
        .map_err(|e| format!("controller connect failed: {e}"))?;
    let (_weights, versions) = cluster
        .snapshot()
        .map_err(|e| format!("snapshot failed: {e}"))?;
    Box::new(cluster).shutdown();
    let status = reap.0[0].wait().map_err(|e| format!("wait psd: {e}"))?;
    if !status.success() {
        return Err(format!("psd exited with {status}"));
    }
    reap.0.clear();
    Ok(format!(
        "ORCHESTRATE OK: scaled 2 -> 3 -> 2 -> 0 workers, {restarts} replacement(s); \
         server finished at round {}",
        versions.iter().copied().min().unwrap_or(0)
    ))
}

fn cmd_train() {
    let workers: usize = arg_or("workers", 2);
    let epochs: usize = arg_or("epochs", 5);
    let batch: usize = arg_or("batch", 32);
    let samples: usize = arg_or("samples", 4_000);
    let seed: u64 = arg_or("seed", 42);
    let lr: f32 = arg_or("lr", 0.1);

    let dataset_name = arg("dataset").unwrap_or_else(|| "mnist".into());
    let (data, builder): (Dataset, ModelBuilder) = match dataset_name.as_str() {
        "mnist" => (
            synth::mnist_like(samples, seed),
            Box::new(|rng: &mut SmallRng64| models::lenet5(10, rng)),
        ),
        "cifar" => (
            synth::cifar_like(samples, seed),
            Box::new(|rng: &mut SmallRng64| models::resnet_cifar(8, 1, 10, rng)),
        ),
        "blobs" => (
            toy::gaussian_blobs(samples, 8, 4, 0.6, seed),
            Box::new(|rng: &mut SmallRng64| models::mlp(&[8, 32, 4], rng)),
        ),
        other => {
            eprintln!("unknown dataset {other} (mnist|cifar|blobs)");
            std::process::exit(2)
        }
    };
    let (train, test) = data.split(0.85);
    // Default warm-up: one epoch of iterations (the paper warms up for
    // "the first several epochs"); override with --warmup.
    let warmup = (train.len() / workers / batch).max(1);

    let argv: Vec<String> = std::env::args().collect();
    let defaults = AlgoDefaults {
        local_lr: 0.1,
        threshold: 0.5,
        k: 2,
        warmup,
    };
    let algo = parse_algorithm(&argv, &defaults).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let server_opt = parse_server_opt(&argv).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let topology = parse_topology(&argv, &defaults).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    if topology != Topology::Ps && !algo.uses_ring() {
        eprintln!(
            "--topology {} is server-less and requires --algo arsgd (got {})",
            topology.name(),
            algo.name()
        );
        std::process::exit(2);
    }

    let mut cfg = TrainConfig::new(algo, workers)
        .with_lr(lr)
        .with_batch_size(batch)
        .with_epochs(epochs)
        .with_seed(seed)
        .with_server_opt(server_opt)
        .with_topology(topology);
    // `--max-restarts N` arms hot worker replacement (DESIGN.md §14):
    // a lost worker is respawned in place, resuming at the first epoch
    // it never finished, instead of aborting the run.
    let max_restarts: u32 = arg_or("max-restarts", 0);
    if max_restarts > 0 {
        let backoff_ms: u64 = arg_or("restart-backoff-ms", 250);
        cfg = cfg.with_restart_policy(RestartPolicy::new(
            max_restarts,
            std::time::Duration::from_millis(backoff_ms),
        ));
    }
    // `--trace <path>` streams the whole telemetry event model — every
    // worker's Fig. 5 op spans, the server's dequant spans and round
    // lifecycle, epoch rollups — as JSONL. Disabled (zero-cost) without
    // the flag.
    cfg = cfg.with_telemetry(trace_telemetry());
    if let Some(mibps) = arg("net-mibps") {
        let m: f64 = mibps.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --net-mibps: {mibps} (MiB/s as a number)");
            std::process::exit(2)
        });
        cfg = cfg.with_emulated_network(m * 1024.0 * 1024.0);
    }
    cfg.validate().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });

    println!(
        "training {} on {dataset_name} ({} train / {} test samples, M={workers})",
        cfg.algo.name(),
        train.len(),
        test.len()
    );
    let trainer = Trainer::new(cfg, move |rng| builder(rng), train, Some(test));
    let iters_per_epoch = trainer.iters_per_epoch();
    let history = trainer.run();
    print!("{}", history.to_tsv());
    println!(
        "final test acc: {}",
        history
            .final_test_acc()
            .map_or("-".into(), |a| format!("{a:.4}"))
    );

    if let Some(path) = arg("save") {
        let ckpt = Checkpoint {
            kind: Kind::Final,
            count: 1,
            round: (history.epochs.len() * iters_per_epoch) as u64,
            algo: history.algo.clone(),
            weights: history.final_weights.clone(),
            ..Default::default()
        };
        write_atomic(Path::new(&path), &ckpt.encode()).expect("write checkpoint");
        println!("checkpoint written to {path}");
    }
    if let Some(path) = arg("history") {
        save_history(&history, &path).expect("write history");
        println!("history written to {path}");
    }
}

fn cmd_simulate() {
    let model: ModelSpec = match arg("model").unwrap_or_else(|| "resnet50".into()).as_str() {
        "lenet5" => zoo::lenet5(),
        "resnet20" => zoo::resnet20(),
        "alexnet" => zoo::alexnet(),
        "vgg16" => zoo::vgg16(),
        "inception" => zoo::inception_bn(),
        "resnet50" => zoo::resnet50(),
        other => {
            eprintln!("unknown model {other}");
            std::process::exit(2)
        }
    };
    let cluster = match arg("gpu").unwrap_or_else(|| "v100".into()).as_str() {
        "k80" => ClusterSpec::k80_cluster(),
        "v100" => ClusterSpec::v100_cluster(),
        other => {
            eprintln!("unknown gpu {other} (k80|v100)");
            std::process::exit(2)
        }
    }
    .with_bandwidth_gbps(arg_or("gbps", 56.0));
    let batch: usize = arg_or("batch", 32);
    let k: usize = arg_or("k", 5);

    println!(
        "simulating {} on {} x{} nodes ({} GPUs/node), batch {batch}",
        model.name,
        cluster.gpu.name(),
        cluster.nodes,
        cluster.gpus_per_node
    );
    let sim = PipelineSim::new(&model, &cluster, batch);
    let ssgd = sim.run(AlgoKind::Ssgd, 42).avg_iter_time;
    println!("{:<14} {:>12} {:>12}", "algorithm", "ms/iter", "vs S-SGD");
    for (algo, iters) in [
        (AlgoKind::Ssgd, 42),
        (AlgoKind::OdSgd, 42),
        (AlgoKind::BitSgd, 42),
        (AlgoKind::CdSgd { k }, 2 + 10 * k),
    ] {
        let t = sim.run(algo, iters).avg_iter_time;
        println!(
            "{:<14} {:>12.2} {:>11.0}%",
            algo.name(),
            t * 1e3,
            (ssgd / t - 1.0) * 100.0
        );
    }
}

fn cmd_codecs() {
    use cdsgd_compress::{
        decompress, AdaptiveTwoBit, GradientCompressor, OneBitQuantizer, QsgdQuantizer,
        TopKSparsifier, TwoBitQuantizer,
    };
    let n: usize = arg_or("n", 1_000_000);
    let mut rng = SmallRng64::new(7);
    let grad: Vec<f32> = (0..n).map(|_| 0.3 * rng.gauss()).collect();
    let mut codecs: Vec<Box<dyn GradientCompressor>> = vec![
        Box::new(TwoBitQuantizer::new(0.5)),
        Box::new(AdaptiveTwoBit::new(1.0)),
        Box::new(OneBitQuantizer::new()),
        Box::new(QsgdQuantizer::new(4, 7)),
        Box::new(TopKSparsifier::new(0.01)),
    ];
    println!(
        "{:<14} {:>12} {:>10} {:>12}",
        "codec", "wire_KiB", "ratio", "encode_ms"
    );
    for c in codecs.iter_mut() {
        let t0 = std::time::Instant::now();
        let payload = c.compress(0, &grad);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        let mut out = vec![0.0f32; n];
        decompress(&payload, &mut out);
        println!(
            "{:<14} {:>12} {:>10.4} {:>12.2}",
            c.name(),
            payload.wire_bytes() / 1024,
            c.compression_ratio(n),
            dt
        );
    }
}
