//! Fault-recovery integration (DESIGN.md §14): consistent durable
//! checkpoints and resume across real `psd`/`worker` OS processes.
//!
//! The acceptance bar is bit-identity: a `psd` group killed with
//! SIGKILL exactly at a checkpoint boundary and resumed with `--resume`
//! — together with workers relaunched at the matching `--start-epoch` —
//! must finish with globals byte-for-byte equal to an uninterrupted
//! run. The cross-shard manifest makes the boundary consistent: a round
//! is resumable only when *every* shard's file for it exists.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use cd_sgd::{Algorithm, TrainConfig, Trainer};
use cd_sgd_repro::deploy;
use cdsgd_net::NetConfig;
use cdsgd_ps::recover::{latest_complete_round, Checkpoint, Kind};
use cdsgd_ps::{NetCluster, PsBackend};

const SEED: u64 = 5;
const WORKERS: usize = 2;
const SHARDS: usize = 2;
const MODEL: &str = "mlp:8,32,4";
const BUDGET: Duration = Duration::from_secs(60);

/// Kills leftover children if an assertion fires before clean shutdown.
struct Reap(Vec<Child>);

impl Drop for Reap {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn spawn_psd(shard: usize, extra: &[&str]) -> (Child, BufReader<ChildStdout>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_psd"))
        .args(["--shard", &shard.to_string()])
        .args(["--num-shards", &SHARDS.to_string()])
        .args(["--workers", &WORKERS.to_string()])
        .args(["--lr", "0.2", "--port", "0"])
        .args(["--model", MODEL, "--seed", &SEED.to_string()])
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn psd");
    let stdout = child.stdout.take().expect("psd stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read LISTENING line");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected psd output: {line:?}"))
        .to_string();
    (child, reader, addr)
}

fn spawn_worker(id: usize, servers: &str, algo: &str, epochs: usize, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_worker"))
        .args(["--id", &id.to_string(), "--workers", &WORKERS.to_string()])
        .args(["--servers", servers, "--algo", algo])
        .args(["--dataset", "blobs", "--samples", "480", "--batch", "16"])
        .args(["--epochs", &epochs.to_string(), "--lr", "0.2"])
        .args(["--model", MODEL, "--seed", &SEED.to_string()])
        .args(extra)
        .spawn()
        .expect("spawn worker")
}

/// The uninterrupted in-process reference run.
fn reference_run(algo: Algorithm, epochs: usize) -> (Vec<Vec<f32>>, usize) {
    let (train, test) = deploy::build_dataset("blobs", 480, SEED);
    let trainer = Trainer::new(
        TrainConfig::new(algo, WORKERS)
            .with_lr(0.2)
            .with_batch_size(16)
            .with_epochs(epochs)
            .with_seed(SEED),
        |rng| deploy::build_model(MODEL, rng),
        train,
        Some(test),
    );
    let ipe = trainer.iters_per_epoch();
    (trainer.run().final_weights, ipe)
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cdsgd_recovery_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The full scenario: train to the checkpoint boundary, SIGKILL every
/// shard, resume from the checkpoint set, finish, and return the final
/// reassembled globals.
fn kill9_resume_run(algo_flag: &str, worker_extra: &[&str], ipe: usize) -> Vec<Vec<f32>> {
    let ckpt_dir = fresh_dir(algo_flag);
    let boundary = (2 * ipe) as u64;
    let every = boundary.to_string();
    let psd_flags = |resume: bool| -> Vec<String> {
        let mut f = vec![
            "--checkpoint-dir".into(),
            ckpt_dir.display().to_string(),
            "--checkpoint-every".into(),
            every.clone(),
        ];
        if resume {
            f.push("--resume".into());
        }
        f
    };

    // ---- phase 1: run the first two epochs, then SIGKILL the group ----
    let mut reap = Reap(Vec::new());
    let mut addrs = Vec::new();
    for shard in 0..SHARDS {
        let flags: Vec<String> = psd_flags(false);
        let flags: Vec<&str> = flags.iter().map(String::as_str).collect();
        let (child, _reader, addr) = spawn_psd(shard, &flags);
        reap.0.push(child);
        addrs.push(addr);
    }
    let servers = addrs.join(",");
    let workers: Vec<Child> = (0..WORKERS)
        .map(|id| spawn_worker(id, &servers, algo_flag, 2, worker_extra))
        .collect();
    for (id, mut w) in workers.into_iter().enumerate() {
        let status = w.wait().expect("wait worker");
        assert!(status.success(), "phase-1 worker {id} exited with {status}");
    }

    // The boundary capture happens inside the server loop as the last
    // key's version crosses it — wait for the manifest to be complete
    // before pulling the plug, so the kill lands exactly on a boundary.
    let start = Instant::now();
    loop {
        match latest_complete_round(&ckpt_dir, SHARDS) {
            Ok(Some(round)) if round == boundary => break,
            Ok(_) => {}
            Err(e) => panic!("manifest scan failed: {e}"),
        }
        assert!(
            start.elapsed() < BUDGET,
            "checkpoint set at round {boundary} never completed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    for c in &mut reap.0 {
        c.kill().expect("SIGKILL psd");
        c.wait().expect("reap killed psd");
    }
    reap.0.clear();

    // ---- phase 2: resume the group and finish the remaining epochs ----
    let mut addrs = Vec::new();
    for shard in 0..SHARDS {
        let flags: Vec<String> = psd_flags(true);
        let flags: Vec<&str> = flags.iter().map(String::as_str).collect();
        let (child, _reader, addr) = spawn_psd(shard, &flags);
        reap.0.push(child);
        addrs.push(addr);
    }
    let servers = addrs.join(",");
    let resume_extra: Vec<&str> = [worker_extra, &["--start-epoch", "2"]].concat();
    let workers: Vec<Child> = (0..WORKERS)
        .map(|id| spawn_worker(id, &servers, algo_flag, 4, &resume_extra))
        .collect();
    for (id, mut w) in workers.into_iter().enumerate() {
        let status = w.wait().expect("wait worker");
        assert!(status.success(), "phase-2 worker {id} exited with {status}");
    }

    let num_keys = deploy::initial_weights(MODEL, SEED).len();
    let cluster =
        NetCluster::connect(&addrs, num_keys, NetConfig::default()).expect("connect controller");
    let (weights, versions) = cluster.snapshot().expect("snapshot");
    Box::new(cluster).shutdown();
    for (shard, mut child) in reap.0.drain(..).enumerate() {
        let status = child.wait().expect("wait psd");
        assert!(status.success(), "psd shard {shard} exited with {status}");
    }
    assert!(
        versions.iter().all(|&v| v == (4 * ipe) as u64),
        "resumed shards must end at round {}: {versions:?}",
        4 * ipe
    );
    std::fs::remove_dir_all(&ckpt_dir).ok();
    weights
}

#[test]
fn kill9_at_checkpoint_boundary_resumes_bit_identically() {
    // S-SGD: the workers' state is fully determined by the server's
    // globals at an epoch boundary, so resume needs no worker
    // checkpoint — only the shards' durable snapshots and the replayed
    // shuffle RNG.
    let (expected, ipe) = reference_run(Algorithm::SSgd, 4);
    let weights = kill9_resume_run("ssgd", &[], ipe);
    assert_eq!(
        weights, expected,
        "kill -9 + resume diverged from the uninterrupted run"
    );
}

#[test]
fn kill9_resume_restores_worker_private_state_bit_identically() {
    // EF-SGD: velocity and error-feedback residuals live only in the
    // workers, so bit-identical resume additionally needs the worker
    // checkpoints (`--checkpoint-dir` on the worker side).
    let wdir = fresh_dir("efsgd_workers");
    let wdir_s = wdir.display().to_string();
    let (expected, ipe) = reference_run(Algorithm::ef_sgd(0.9), 4);
    let worker_extra = ["--checkpoint-dir", &wdir_s, "--checkpoint-every", "2"];
    let weights = kill9_resume_run("efsgd", &worker_extra, ipe);
    assert_eq!(
        weights, expected,
        "EF-SGD kill -9 + resume diverged from the uninterrupted run"
    );
    std::fs::remove_dir_all(&wdir).ok();
}

#[test]
fn torn_checkpoint_sets_are_never_resumed() {
    // The manifest invariant: a round is resumable only when every
    // shard's file exists. A torn set (one shard crashed before its
    // write) must be skipped in favour of the older complete one.
    let dir = fresh_dir("torn");
    let ck = |shard: usize, round: u64| Checkpoint {
        kind: Kind::Shard,
        index: shard,
        count: 2,
        round,
        weights: vec![vec![round as f32]],
        opt_state: vec![vec![]],
        ..Default::default()
    };
    ck(0, 4).save_atomic(&dir).unwrap();
    ck(1, 4).save_atomic(&dir).unwrap();
    ck(0, 8).save_atomic(&dir).unwrap(); // shard 1 never wrote round 8
    assert_eq!(
        latest_complete_round(&dir, 2).unwrap(),
        Some(4),
        "the torn round-8 set must be invisible to resume"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_with_empty_directory_starts_fresh() {
    // `--resume` against a directory with no complete set is a fresh
    // start, not an error — and the stdout contract holds: LISTENING is
    // still the first stdout line (spawn_psd would panic otherwise).
    let dir = fresh_dir("fresh");
    let dir_s = dir.display().to_string();
    let (child, _reader, addr) = spawn_psd(0, &["--checkpoint-dir", &dir_s, "--resume"]);
    let mut reap = Reap(vec![child]);
    let num_keys = deploy::initial_weights(MODEL, SEED).len();
    // Shard 0 of SHARDS serves a subset of keys; connect to it alone as
    // a single-shard group for the shutdown handshake.
    let cluster = NetCluster::connect(std::slice::from_ref(&addr), num_keys, NetConfig::default());
    match cluster {
        Ok(c) => Box::new(c).shutdown(),
        Err(e) => panic!("controller connect failed: {e}"),
    }
    let status = reap.0[0].wait().expect("wait psd");
    assert!(status.success(), "psd exited with {status}");
    reap.0.clear();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_save_reads_back_through_the_checkpoint_loader() {
    // `cdsgd train --save` writes the final weights as a `final`
    // checkpoint: the same container the shards and workers write, read
    // back through the same decoder, bit-equal to the in-process run.
    let (expected, ipe) = reference_run(Algorithm::SSgd, 2);
    let dir = fresh_dir("save");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("final.ckpt");
    let status = Command::new(env!("CARGO_BIN_EXE_cdsgd"))
        .args(["train", "--algo", "ssgd", "--dataset", "blobs"])
        .args(["--workers", &WORKERS.to_string(), "--epochs", "2"])
        .args(["--samples", "480", "--batch", "16", "--lr", "0.2"])
        .args(["--seed", &SEED.to_string()])
        .arg("--save")
        .arg(&path)
        .stdout(Stdio::null())
        .status()
        .expect("run cdsgd train");
    assert!(status.success(), "cdsgd train exited with {status}");
    let ckpt = Checkpoint::read(&path).expect("read the saved checkpoint");
    assert_eq!(ckpt.kind, Kind::Final);
    assert_eq!(ckpt.algo, "S-SGD");
    assert_eq!(ckpt.round, (2 * ipe) as u64);
    assert_eq!(
        ckpt.weights, expected,
        "saved weights differ from the run's"
    );
    std::fs::remove_dir_all(&dir).ok();
}
