//! `psd` — one parameter-server shard as a standalone OS process.
//!
//! Serves its shard of the global model over localhost TCP. Shard `s` of
//! `S` owns global keys `{k : k mod S == s}`; every process derives the
//! same initial weights from `--model`/`--seed`, so the shard can slice
//! its own partition without any coordination.
//!
//! ```text
//! psd --shard 0 --num-shards 2 --workers 2 --lr 0.2 \
//!     [--momentum 0.9 [--nesterov]] \
//!     [--min-quorum 1] [--heartbeat-ms 500] \
//!     [--checkpoint-dir ck [--checkpoint-every 16] [--resume]] \
//!     --model mlp:8,32,4 --seed 5 --port 0 \
//!     [--trace trace.jsonl] [--stats]
//! ```
//!
//! Prints `LISTENING <addr>` on stdout once the socket is bound (with
//! `--port 0` the kernel picks the port, so callers must parse this
//! line), then serves until a client sends a shutdown frame. With
//! `--stats` a second stdout contract line
//! `STATS sent <n> received <n> pushed <n> pulled <n>` follows a clean
//! shutdown, reporting the shard's cumulative wire traffic (encoded
//! frame bytes on both directions, plus the push/pull payload
//! accounting the paper's eq. 4–9 compare). `--trace <path>` streams
//! every telemetry event — per-frame wire bytes tagged by connection,
//! one dequant span per key-round on the server lane (lane
//! `--workers`), round lifecycle, supervision verdicts — to a JSONL
//! file.
//!
//! With `--round-deadline-ms N` the shard refuses to wait forever on a
//! worker that stopped pushing: once an aggregation round stays partial
//! for N milliseconds the shard names the missing worker, fails the
//! round, and the process exits nonzero instead of hanging. Pick N well
//! above the slowest expected iteration — delayed algorithms (OD-SGD,
//! CD-SGD) legitimately leave rounds partial while a round is in flight.
//!
//! `--min-quorum <n>` / `--heartbeat-ms <ms>` switch the shard into
//! *elastic membership*: workers may register, leave, and be evicted
//! after a silent heartbeat interval, with each round's quorum re-sized
//! to the current active set (`--workers` is then only the initial set).
//! Without either flag membership is fixed and runs stay bit-identical
//! to earlier releases.
//!
//! `--checkpoint-dir <dir>` arms the fault-recovery subsystem
//! (DESIGN.md §14): with `--checkpoint-every <rounds>` the shard writes
//! an atomic durable snapshot of its weights and optimizer state each
//! time every key crosses a round boundary that is a multiple of the
//! interval; without it, snapshots happen only on demand (the
//! `Checkpoint` wire message). `--resume` restarts the shard from the
//! latest *complete* checkpoint set in the directory — a round missing
//! any shard's file is ignored, so resume never mixes versions — or
//! from the initial weights when none exists. Resume notes go to
//! stderr; `LISTENING` stays the first stdout line.

use std::sync::Arc;
use std::time::Duration;

use cd_sgd::{Console, Telemetry};
use cd_sgd_repro::deploy::{
    arg, arg_or, check_model, flag, initial_weights, parse_elastic, parse_reconnect,
    parse_recovery, parse_server_opt, trace_telemetry,
};
use cdsgd_net::{NetConfig, TcpAcceptor};
use cdsgd_ps::recover::{load_latest, CheckpointPolicy, Durability};
use cdsgd_ps::{partition_keys, PsNetServer, ServerConfig};

fn main() {
    let console = Console::new();
    let shard: usize = arg_or("shard", 0);
    let num_shards: usize = arg_or("num-shards", 1);
    let workers: usize = arg_or("workers", 1);
    let lr: f32 = arg_or("lr", 0.1);
    let port: u16 = arg_or("port", 0);
    let seed: u64 = arg_or("seed", 42);
    let round_deadline_ms: u64 = arg_or("round-deadline-ms", 0);
    let model = arg("model").unwrap_or_else(|| "mlp:8,32,4".to_string());
    let stats_line = flag("stats");
    if shard >= num_shards {
        console.error(format_args!(
            "--shard {shard} out of range for --num-shards {num_shards}"
        ));
        std::process::exit(2);
    }

    // A shard holds no dataset: only the spec itself is checked here.
    if let Err(e) = check_model(&model, None) {
        console.error(e);
        std::process::exit(2);
    }
    let init = initial_weights(&model, seed);
    let shard_init = partition_keys(init, num_shards).swap_remove(shard);
    console.status(format_args!(
        "psd shard {shard}/{num_shards}: {} of the model's keys, {workers} workers, lr {lr}",
        shard_init.len()
    ));

    let argv: Vec<String> = std::env::args().collect();
    let opt = parse_server_opt(&argv).unwrap_or_else(|e| {
        console.error(e);
        std::process::exit(2)
    });
    let mut cfg = ServerConfig::new(workers, lr).with_optimizer(opt);
    if round_deadline_ms > 0 {
        cfg = cfg.with_round_deadline(Duration::from_millis(round_deadline_ms));
    }
    match parse_elastic(&argv) {
        Ok(Some(elastic)) => cfg = cfg.with_elastic(elastic),
        Ok(None) => {}
        Err(e) => {
            console.error(e);
            std::process::exit(2)
        }
    }
    // Launchers often share one flag template across every process of a
    // run, so the worker-side `--reconnect-*` flags are accepted and
    // validated here too — but a server shard has nothing to redial;
    // they only change behaviour in `worker`.
    if let Err(e) = parse_reconnect(&argv) {
        console.error(e);
        std::process::exit(2)
    }

    // Fault recovery (DESIGN.md §14): optionally restore from the
    // latest complete checkpoint set and/or arm scheduled snapshots.
    let recovery = parse_recovery(&argv).unwrap_or_else(|e| {
        console.error(e);
        std::process::exit(2)
    });
    let mut durability = Durability::default();
    if let Some(dir) = &recovery.dir {
        if recovery.resume {
            match load_latest(dir, shard, num_shards) {
                Ok(Some(ckpt)) => {
                    console.status(format_args!(
                        "psd shard {shard}: resuming from checkpoint at round {}",
                        ckpt.round
                    ));
                    durability.restore = Some(ckpt);
                }
                Ok(None) => console.status(format_args!(
                    "psd shard {shard}: no complete checkpoint set in {}; starting fresh",
                    dir.display()
                )),
                Err(e) => {
                    console.error(format_args!(
                        "psd shard {shard}: cannot resume from {}: {e}",
                        dir.display()
                    ));
                    std::process::exit(1);
                }
            }
        }
        durability.checkpoint = Some(CheckpointPolicy::new(
            dir.clone(),
            recovery.every,
            shard,
            num_shards,
        ));
    }

    // Supervision verdicts (expired rounds) render on stderr through
    // the console sink; `--trace` adds the full JSONL event stream.
    // The trace handle stays separate so it can be flushed before the
    // final contract line.
    let trace = trace_telemetry();
    let telemetry = Telemetry::new(Arc::new(Console::new())).and(&trace);
    let server = PsNetServer::start_with(shard_init, cfg, telemetry, durability);
    let (acceptor, addr) =
        TcpAcceptor::bind(("127.0.0.1", port), NetConfig::default()).expect("bind TCP listener");

    // The contract with launchers: exactly one LISTENING line, flushed
    // before any client could need it.
    console.contract(format_args!("LISTENING {addr}"));

    server.listen(acceptor);
    if let Err(e) = server.wait_for_shutdown() {
        console.error(format_args!("psd shard {shard}: round failed: {e}"));
        server.shutdown();
        trace.flush();
        std::process::exit(1);
    }
    // Shutdown joins the accept and I/O threads, so the
    // counters read below are final — no in-flight frame can bump them
    // after the STATS line prints.
    server.shutdown();
    trace.flush();
    let stats = server.stats();
    let (sent, received) = (stats.bytes_sent(), stats.bytes_received());
    let (pushed, pulled) = (stats.bytes_pushed(), stats.bytes_pulled());
    if stats_line {
        console.contract(format_args!(
            "STATS sent {sent} received {received} pushed {pushed} pulled {pulled}"
        ));
    }
    console.status(format_args!(
        "psd shard {shard}: shutdown after {pushed} pushed bytes"
    ));
}
