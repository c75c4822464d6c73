//! End-to-end smoke test of the multi-process deployment: two `psd`
//! shard servers and two `worker` replicas run as real OS processes
//! talking over localhost TCP, and the resulting global weights must
//! be bit-identical to the same configuration trained in-process.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;

use cd_sgd::{
    telemetry::parse_jsonl_line, AggregateSink, Algorithm, Event, Telemetry, TrainConfig, Trainer,
};
use cd_sgd_repro::deploy;
use cdsgd_net::NetConfig;
use cdsgd_ps::{NetCluster, PsBackend};

const SEED: u64 = 5;
const WORKERS: usize = 2;
const SHARDS: usize = 2;
const MODEL: &str = "mlp:8,32,4";

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

/// Spawn one shard server with `extra` flags appended, returning its
/// stdout reader (positioned after the LISTENING line) so callers can
/// keep the pipe open for later contract lines like `STATS`.
fn spawn_psd_with(shard: usize, extra: &[&str]) -> (Child, BufReader<ChildStdout>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_psd"))
        .args([
            "--shard",
            &shard.to_string(),
            "--num-shards",
            &SHARDS.to_string(),
            "--workers",
            &WORKERS.to_string(),
            "--lr",
            "0.2",
            "--port",
            "0",
            "--model",
            MODEL,
            "--seed",
            &SEED.to_string(),
        ])
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

fn spawn_psd(shard: usize) -> (Child, String) {
    let (child, _reader, addr) = spawn_psd_with(shard, &[]);
    (child, addr)
}

fn spawn_worker_with(id: usize, servers: &str, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_worker"))
        .args([
            "--id",
            &id.to_string(),
            "--workers",
            &WORKERS.to_string(),
            "--servers",
            servers,
            "--algo",
            "cdsgd",
            "--dataset",
            "blobs",
            "--samples",
            "480",
            "--batch",
            "16",
            "--epochs",
            "2",
            "--lr",
            "0.2",
            "--local-lr",
            "0.05",
            "--threshold",
            "0.05",
            "--k",
            "2",
            "--warmup",
            "3",
            "--model",
            MODEL,
            "--seed",
            &SEED.to_string(),
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn worker")
}

fn spawn_worker(id: usize, servers: &str) -> Child {
    spawn_worker_with(id, servers, &[])
}

#[test]
fn a_model_the_dataset_does_not_fit_is_a_usage_error() {
    // Refused before any dial: nothing listens at the address.
    let out = Command::new(env!("CARGO_BIN_EXE_worker"))
        .args(["--servers", "127.0.0.1:9", "--dataset", "mnist"])
        .args(["--model", "mlp:784,1024,1024,10"])
        .output()
        .expect("run worker");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("[784]") && stderr.contains("[1, 28, 28]"),
        "{stderr}"
    );
}

#[test]
fn two_psd_processes_and_two_workers_match_in_process_run() {
    // Expected result: the identical configuration trained in-process.
    let (train, test) = deploy::build_dataset("blobs", 480, SEED);
    let cfg = TrainConfig::new(Algorithm::cd_sgd(0.05, 0.05, 2, 3), WORKERS)
        .with_lr(0.2)
        .with_batch_size(16)
        .with_epochs(2)
        .with_seed(SEED);
    let expected = Trainer::new(
        cfg,
        |rng| deploy::build_model(MODEL, rng),
        train,
        Some(test),
    )
    .run();

    let mut reap = Reap(Vec::new());
    let mut addrs = Vec::new();
    for shard in 0..SHARDS {
        let (child, addr) = spawn_psd(shard);
        reap.0.push(child);
        addrs.push(addr);
    }
    let servers = addrs.join(",");

    let workers: Vec<Child> = (0..WORKERS).map(|id| spawn_worker(id, &servers)).collect();
    for (id, mut w) in workers.into_iter().enumerate() {
        let status = w.wait().expect("wait worker");
        assert!(status.success(), "worker {id} exited with {status}");
    }

    // Act as the controller: snapshot the live servers, then shut the
    // whole group down over the wire.
    let num_keys = deploy::initial_weights(MODEL, SEED).len();
    let cluster =
        NetCluster::connect(&addrs, num_keys, NetConfig::default()).expect("connect controller");
    let (weights, versions) = cluster.snapshot().expect("snapshot");
    Box::new(cluster).shutdown();

    assert_eq!(
        weights, expected.final_weights,
        "TCP multi-process run diverged"
    );
    assert!(
        versions.iter().all(|&v| v == versions[0]),
        "shards ended at different versions: {versions:?}"
    );

    for (shard, mut child) in reap.0.drain(..).enumerate() {
        let status = child.wait().expect("wait psd");
        assert!(status.success(), "psd shard {shard} exited with {status}");
    }
}

/// The multi-process telemetry contract: every frame byte the workers'
/// `--trace` JSONL files record as sent must show up in the shard
/// servers' `STATS` accounting as received, and vice versa — with the
/// controller (this test) as the only other traffic source, the books
/// must balance exactly.
#[test]
fn worker_traces_account_for_every_server_byte() {
    let trace_path = |id: usize| {
        std::env::temp_dir().join(format!(
            "cdsgd_{}_worker{id}_trace.jsonl",
            std::process::id()
        ))
    };

    let mut reap = Reap(Vec::new());
    let mut readers = Vec::new();
    let mut addrs = Vec::new();
    for shard in 0..SHARDS {
        let (child, reader, addr) = spawn_psd_with(shard, &["--stats"]);
        reap.0.push(child);
        readers.push(reader);
        addrs.push(addr);
    }
    let servers = addrs.join(",");

    let workers: Vec<Child> = (0..WORKERS)
        .map(|id| {
            let path = trace_path(id);
            let _ = std::fs::remove_file(&path);
            spawn_worker_with(id, &servers, &["--trace", path.to_str().unwrap()])
        })
        .collect();
    for (id, mut w) in workers.into_iter().enumerate() {
        let status = w.wait().expect("wait worker");
        assert!(status.success(), "worker {id} exited with {status}");
    }

    // Sum the workers' client-side frame accounting from their traces.
    let (mut traced_sent, mut traced_received) = (0u64, 0u64);
    for id in 0..WORKERS {
        let path = trace_path(id);
        let text = std::fs::read_to_string(&path).expect("read worker trace");
        let mut spans = 0;
        for line in text.lines() {
            match parse_jsonl_line(line).expect("worker trace line parses") {
                Event::FrameSent { bytes, .. } => traced_sent += bytes,
                Event::FrameReceived { bytes, .. } => traced_received += bytes,
                // `--trace` alone carries the replica's Fig. 5 lane.
                Event::OpSpan { worker, .. } => {
                    assert_eq!(worker, id, "worker {id}'s trace carries another lane");
                    spans += 1;
                }
                _ => {}
            }
        }
        assert!(spans > 0, "worker {id}'s trace carries no op spans");
        std::fs::remove_file(&path).ok();
    }
    assert!(
        traced_sent > 0 && traced_received > 0,
        "worker traces carry no frame events"
    );

    // Act as the controller, counting our own traffic the same way the
    // workers did, then shut the group down.
    let controller = Arc::new(AggregateSink::new());
    let num_keys = deploy::initial_weights(MODEL, SEED).len();
    let cluster = NetCluster::connect(&addrs, num_keys, NetConfig::default())
        .expect("connect controller")
        .traced(Telemetry::new(Arc::clone(&controller) as _));
    cluster.snapshot().expect("snapshot");
    Box::new(cluster).shutdown();

    // Each shard prints its STATS contract line after joining every
    // connection thread, so the counters below are final.
    let (mut server_sent, mut server_received) = (0u64, 0u64);
    for (shard, reader) in readers.iter_mut().enumerate() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read STATS line");
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(
            (fields.first(), fields.len()),
            (Some(&"STATS"), 9),
            "shard {shard}: unexpected stats line {line:?}"
        );
        server_sent += fields[2].parse::<u64>().expect("sent bytes");
        server_received += fields[4].parse::<u64>().expect("received bytes");
    }
    for (shard, mut child) in reap.0.drain(..).enumerate() {
        let status = child.wait().expect("wait psd");
        assert!(status.success(), "psd shard {shard} exited with {status}");
    }

    assert_eq!(
        traced_sent + controller.bytes_sent(),
        server_received,
        "uplink: bytes the clients sent vs bytes the servers received"
    );
    assert_eq!(
        traced_received + controller.bytes_received(),
        server_sent,
        "downlink: bytes the servers sent vs bytes the clients received"
    );
}

#[test]
fn cdsgd_train_trace_alone_carries_every_lane() {
    // `cdsgd train --trace` with no other flag: every line parses back,
    // both worker lanes hold every Fig. 5 category and the server lane
    // (= worker count) holds dequant. `scripts/ci.sh` greps the release
    // binary's trace for the same three lanes.
    use cd_sgd::telemetry::{op_spans, Op};
    let path = std::env::temp_dir().join(format!("cdsgd_{}_train.jsonl", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_cdsgd"))
        .args(["train", "--algo", "cdsgd", "--dataset", "blobs"])
        // The CLI's default warm-up is one epoch of raw pushes: the
        // second epoch is the one that quantizes.
        .args(["--epochs", "2", "--workers", "2", "--trace"])
        .arg(&path)
        .stdout(Stdio::null())
        .status()
        .expect("run cdsgd train");
    assert!(status.success(), "cdsgd train exited with {status}");
    let text = std::fs::read_to_string(&path).expect("read trace");
    std::fs::remove_file(&path).ok();
    let events: Vec<Event> = text
        .lines()
        .map(|l| parse_jsonl_line(l).expect("trace line parses"))
        .collect();
    let spans: Vec<(usize, Op)> = op_spans(&events).map(|s| (s.0, s.1)).collect();
    for lane in 0..2 {
        for op in [
            Op::Forward,
            Op::Backward,
            Op::Compress,
            Op::PullWait,
            Op::LocalUpdate,
        ] {
            assert!(
                spans.contains(&(lane, op)),
                "lane {lane} has no {op:?} span"
            );
        }
    }
    assert!(
        spans.contains(&(2, Op::Decompress)),
        "no server-lane dequant"
    );
}
