//! Chaos tests for the failure-supervision layer: kill or stall one
//! worker mid-training and assert the run fails *fast* with a typed
//! [`NetError::WorkerLost`] — on every backend — instead of deadlocking
//! the surviving workers on the epoch barrier and the server on a
//! forever-partial round. Faults are scripted ([`WorkerFault`],
//! [`FaultPlan`]) so every failure path is deterministic; no real
//! packet loss or process kills required.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cd_sgd::{Algorithm, RestartPolicy, TrainConfig, Trainer, WorkerFault};
use cd_sgd_repro::deploy;
use cdsgd_compress::{BufferPool, Compressed};
use cdsgd_net::{
    loopback_pair, FaultPlan, FaultyTransport, NetConfig, NetError, ReconnectConfig, TcpAcceptor,
    TcpTransport,
};
use cdsgd_ps::{
    partition_keys, Attach, ElasticConfig, InProcessBackend, NetCluster, ParamClient, ParamServer,
    PsBackend, PsNetServer, RemoteClient, ServerConfig, ShardedClient, TrafficStats,
};

/// The acceptance bound: a killed worker must surface as a typed error
/// well within this budget (the whole point is *not* hanging).
const BUDGET: Duration = Duration::from_secs(30);

fn chaos_trainer(
    algo: Algorithm,
    epochs: usize,
    customize: impl FnOnce(TrainConfig) -> TrainConfig,
) -> Trainer {
    let (train, test) = deploy::build_dataset("blobs", 480, 5);
    let cfg = customize(
        TrainConfig::new(algo, 2)
            .with_lr(0.2)
            .with_batch_size(16)
            .with_epochs(epochs)
            .with_seed(5),
    );
    Trainer::new(
        cfg,
        |rng| deploy::build_model("mlp:8,32,4", rng),
        train,
        Some(test),
    )
}

fn in_process(init: Vec<Vec<f32>>, cfg: ServerConfig) -> Result<Box<dyn PsBackend>, NetError> {
    Ok(Box::new(InProcessBackend::new(ParamServer::start(
        init, cfg,
    ))))
}

/// Run `trainer` against `backend` expecting the designated victim to be
/// lost, and assert the typed error arrives within the budget.
fn assert_worker_lost(
    trainer: &Trainer,
    backend: impl FnOnce(Vec<Vec<f32>>, ServerConfig) -> Result<Box<dyn PsBackend>, NetError>,
    victim: usize,
) {
    let start = Instant::now();
    let failure = trainer.try_run_with(backend).expect_err("run must fail");
    assert!(
        start.elapsed() < BUDGET,
        "failure took {:?}, budget is {BUDGET:?}",
        start.elapsed()
    );
    match failure.error {
        NetError::WorkerLost { id, .. } => assert_eq!(id, victim, "wrong victim named"),
        ref other => panic!("expected WorkerLost, got {other:?}"),
    }
    let aborted = failure
        .history
        .aborted
        .as_ref()
        .expect("history records the abort");
    assert!(
        aborted.error.contains("worker"),
        "abort record should carry the display error, got {:?}",
        aborted.error
    );
}

#[test]
fn killed_worker_fails_in_process_run_with_typed_error() {
    let trainer = chaos_trainer(Algorithm::SSgd, 3, |cfg| {
        cfg.with_fault(1, WorkerFault::KillAtRound { round: 2 })
    });
    assert_worker_lost(&trainer, in_process, 1);
}

#[test]
fn killed_worker_fails_loopback_run_with_typed_error() {
    let trainer = chaos_trainer(Algorithm::SSgd, 3, |cfg| {
        cfg.with_fault(1, WorkerFault::KillAtRound { round: 2 })
    });
    assert_worker_lost(
        &trainer,
        |init, cfg| Ok(Box::new(NetCluster::start_loopback(init, cfg, 2)?)),
        1,
    );
}

#[test]
fn killed_worker_fails_tcp_run_with_typed_error() {
    let trainer = chaos_trainer(Algorithm::SSgd, 3, |cfg| {
        cfg.with_fault(1, WorkerFault::KillAtRound { round: 2 })
    });
    assert_worker_lost(
        &trainer,
        |init, cfg| {
            Ok(Box::new(NetCluster::start_tcp_local(
                init,
                cfg,
                2,
                NetConfig::default(),
            )?))
        },
        1,
    );
}

#[test]
fn killed_worker_fails_delayed_algorithm_run() {
    // CD-SGD runs one round ahead of the server (deferred pulls), the
    // hardest case for supervision: kill after the warm-up so the victim
    // dies mid-pipeline.
    let trainer = chaos_trainer(Algorithm::cd_sgd(0.05, 0.05, 2, 3), 3, |cfg| {
        cfg.with_fault(1, WorkerFault::KillAtRound { round: 6 })
    });
    assert_worker_lost(&trainer, in_process, 1);
}

#[test]
fn killed_worker_preserves_completed_epochs_in_history() {
    // Die in the second epoch: the first epoch's metrics must survive.
    let ipe = chaos_trainer(Algorithm::SSgd, 3, |cfg| cfg).iters_per_epoch() as u64;
    let trainer = chaos_trainer(Algorithm::SSgd, 3, |cfg| {
        cfg.with_fault(1, WorkerFault::KillAtRound { round: ipe + 1 })
    });
    let failure = trainer.try_run_with(in_process).expect_err("run must fail");
    assert_eq!(failure.history.epochs.len(), 1, "epoch 0 completed");
    let aborted = failure.history.aborted.expect("abort recorded");
    assert_eq!(aborted.epoch, 1, "died during epoch 1");
}

#[test]
fn replaced_worker_completes_the_run_bit_identically() {
    // Hot replacement (DESIGN.md §14): worker 1 dies exactly at the
    // epoch-1 boundary — having pushed every round of epoch 0 and
    // nothing of epoch 1 — and the restart policy respawns it resuming
    // at epoch 1. The replacement continues the same per-worker push
    // queue at the same positions, so the run must not merely complete:
    // it must be bit-identical to the fault-free run.
    let fault_free = chaos_trainer(Algorithm::SSgd, 3, |cfg| cfg).run();
    let ipe = chaos_trainer(Algorithm::SSgd, 3, |cfg| cfg).iters_per_epoch() as u64;
    let trainer = chaos_trainer(Algorithm::SSgd, 3, |cfg| {
        cfg.with_fault(1, WorkerFault::KillAtRound { round: ipe })
            .with_restart_policy(RestartPolicy::new(1, Duration::from_millis(10)))
    });
    let start = Instant::now();
    let history = trainer
        .try_run_with(in_process)
        .expect("the replacement must absorb the loss");
    assert!(start.elapsed() < BUDGET, "replacement run stalled");
    assert!(
        history.aborted.is_none(),
        "a granted restart is not an abort"
    );
    assert_eq!(history.epochs.len(), 3, "every epoch must complete");
    assert_eq!(
        history.final_weights, fault_free.final_weights,
        "epoch-aligned replacement must be bit-identical"
    );
}

#[test]
fn replaced_worker_restores_strategy_state_from_checkpoint() {
    // The stateful-algorithm variant: EF-SGD's worker-private velocity
    // and error-feedback residuals do not live on the server, so a
    // bit-identical replacement needs the worker checkpoint written at
    // the epoch boundary. With `with_worker_checkpoints` the respawned
    // worker reloads model + strategy blobs and the run stays exact.
    let dir = std::env::temp_dir().join(format!("cdsgd_wkpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fault_free = chaos_trainer(Algorithm::ef_sgd(0.9), 3, |cfg| cfg).run();
    let ipe = chaos_trainer(Algorithm::ef_sgd(0.9), 3, |cfg| cfg).iters_per_epoch() as u64;
    let trainer = chaos_trainer(Algorithm::ef_sgd(0.9), 3, |cfg| {
        cfg.with_fault(1, WorkerFault::KillAtRound { round: ipe })
            .with_restart_policy(RestartPolicy::new(1, Duration::from_millis(10)))
            .with_worker_checkpoints(&dir, 1)
    });
    let history = trainer
        .try_run_with(in_process)
        .expect("the replacement must absorb the loss");
    assert!(history.aborted.is_none());
    assert_eq!(
        history.final_weights, fault_free.final_weights,
        "checkpointed EF-SGD replacement must be bit-identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_policy_does_not_perturb_fault_free_runs() {
    // Arming the policy without a fault must leave training untouched:
    // the Respawner only changes behaviour when a worker actually dies.
    let plain = chaos_trainer(Algorithm::cd_sgd(0.05, 0.05, 2, 3), 2, |cfg| cfg).run();
    let armed = chaos_trainer(Algorithm::cd_sgd(0.05, 0.05, 2, 3), 2, |cfg| {
        cfg.with_restart_policy(RestartPolicy::new(2, Duration::from_millis(10)))
    })
    .try_run_with(in_process)
    .expect("fault-free armed run succeeds");
    assert!(armed.aborted.is_none());
    assert_eq!(
        armed.final_weights, plain.final_weights,
        "an unused restart policy perturbed training"
    );
}

#[test]
fn stalled_worker_trips_the_epoch_deadline() {
    let trainer = chaos_trainer(Algorithm::SSgd, 2, |cfg| {
        cfg.with_fault(
            1,
            WorkerFault::StallAtRound {
                round: 1,
                stall: Duration::from_secs(5),
            },
        )
        .with_epoch_deadline(Duration::from_secs(1))
    });
    let start = Instant::now();
    let failure = trainer
        .try_run_with(in_process)
        .expect_err("stall must trip the epoch deadline");
    assert!(start.elapsed() < BUDGET);
    assert!(
        matches!(failure.error, NetError::WorkerLost { .. }),
        "expected WorkerLost, got {:?}",
        failure.error
    );
}

#[test]
fn fault_free_run_with_deadlines_is_bit_identical() {
    // Arming the supervision machinery must not perturb training: same
    // weights as a plain run, no abort record.
    let plain = chaos_trainer(Algorithm::cd_sgd(0.05, 0.05, 2, 3), 2, |cfg| cfg).run();
    let guarded = chaos_trainer(Algorithm::cd_sgd(0.05, 0.05, 2, 3), 2, |cfg| {
        cfg.with_round_deadline(BUDGET).with_epoch_deadline(BUDGET)
    });
    let h = guarded
        .try_run_with(in_process)
        .expect("fault-free guarded run succeeds");
    assert!(h.aborted.is_none());
    assert_eq!(
        h.final_weights, plain.final_weights,
        "deadlines perturbed training"
    );
}

#[test]
fn membership_churn_scripted_departure_completes_tcp_training() {
    // Elastic-membership chaos: worker 1 gracefully leaves at the start
    // of epoch 1 and the survivor must finish the remaining epochs over
    // real TCP — the server re-sizes its round quorum instead of
    // waiting forever on the departed worker's pushes.
    let trainer = chaos_trainer(Algorithm::SSgd, 3, |cfg| cfg.with_departure(1, 1));
    let start = Instant::now();
    let history = trainer
        .try_run_with(|init, cfg| {
            Ok(Box::new(NetCluster::start_tcp_local(
                init,
                cfg,
                2,
                NetConfig::default(),
            )?))
        })
        .expect("run with a scripted departure must complete");
    assert!(start.elapsed() < BUDGET, "churn run stalled");
    assert!(history.aborted.is_none(), "graceful leave is not a fault");
    assert_eq!(history.epochs.len(), 3, "survivor must finish every epoch");
}

#[test]
fn membership_join_push_leave_cycles_keep_the_server_alive() {
    // Repeated join/leave churn against one elastic TCP server: a
    // transient worker registers, contributes to one round, and leaves
    // — ten times over — while a permanent worker keeps pushing. No
    // cycle may fail the server, and every round must aggregate both
    // contributions.
    const KEY_LEN: usize = 8;
    let cfg = ServerConfig::new(1, 1.0).with_elastic(ElasticConfig::new(1));
    let server = PsNetServer::start(vec![vec![0.0; KEY_LEN]], cfg);
    let (acceptor, addr) = TcpAcceptor::bind(("127.0.0.1", 0), NetConfig::default()).unwrap();
    server.listen(acceptor);

    let stats = Arc::new(TrafficStats::new());
    let net = NetConfig::default();
    let connect = || {
        RemoteClient::new(
            Box::new(TcpTransport::connect(addr, &net).unwrap()),
            Arc::clone(&stats),
            BufferPool::new(),
        )
        .unwrap()
    };
    let permanent = connect();

    let start = Instant::now();
    for cycle in 0..10u64 {
        let transient = connect();
        let acked = transient.register(1).expect("register transient worker");
        assert_eq!(acked, vec![cycle], "join must ack the exact round");
        permanent
            .push(0, 0, Compressed::Raw(vec![1.0; KEY_LEN]))
            .unwrap();
        transient
            .push(1, 0, Compressed::Raw(vec![1.0; KEY_LEN]))
            .unwrap();
        // Both gradients land in this round: Σ = 2, two contributors,
        // lr 1.0 → step −1.0 per cycle.
        let w = permanent.pull(0, cycle + 1).expect("round completes");
        assert_eq!(w[0], -((cycle + 1) as f32), "round missed a contribution");
        transient.leave(1).expect("graceful leave");
        drop(transient);
        assert!(start.elapsed() < BUDGET, "churn cycle {cycle} stalled");
    }

    assert!(
        server.failure().is_none(),
        "join/leave churn must not fail the server: {:?}",
        server.failure()
    );
    drop(permanent);
    server.shutdown();
}

#[test]
fn tcp_leave_below_quorum_fails_the_server_with_typed_error() {
    // The failure side of elastic membership, over the wire: with
    // min_quorum 2, a worker's Leave strands the survivor below quorum
    // and the server must fail fast with the typed WorkerLost — naming
    // the leaver — instead of letting the survivor block on a pull that
    // can never complete.
    const KEY_LEN: usize = 8;
    let cfg = ServerConfig::new(2, 1.0).with_elastic(ElasticConfig::new(2));
    let server = PsNetServer::start(vec![vec![0.0; KEY_LEN]], cfg);
    let (acceptor, addr) = TcpAcceptor::bind(("127.0.0.1", 0), NetConfig::default()).unwrap();
    server.listen(acceptor);

    let stats = Arc::new(TrafficStats::new());
    let net = NetConfig::default();
    let survivor = RemoteClient::new(
        Box::new(TcpTransport::connect(addr, &net).unwrap()),
        Arc::clone(&stats),
        BufferPool::new(),
    )
    .unwrap();
    let leaver = RemoteClient::new(
        Box::new(TcpTransport::connect(addr, &net).unwrap()),
        Arc::clone(&stats),
        BufferPool::new(),
    )
    .unwrap();

    let start = Instant::now();
    survivor
        .push(0, 0, Compressed::Raw(vec![1.0; KEY_LEN]))
        .unwrap();
    leaver
        .leave(1)
        .expect("the leave frame itself is delivered");

    let failure = loop {
        if let Some(e) = server.failure() {
            break e;
        }
        assert!(start.elapsed() < BUDGET, "below-quorum leave never failed");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        matches!(failure, NetError::WorkerLost { id: 1, .. }),
        "expected WorkerLost for the leaver, got {failure:?}"
    );
    assert_eq!(server.wait_for_shutdown().unwrap_err(), failure);
    drop(survivor);
    drop(leaver);
    server.shutdown();
}

#[test]
fn tcp_process_kill_and_replace_completes_within_tolerance() {
    // The full kill-and-replace scenario across real OS processes: an
    // elastic `psd` shard with a heartbeat eviction window, worker 0
    // healthy (emitting heartbeats), worker 1 scripted to die silently
    // mid-run. The server must evict the corpse instead of stalling,
    // and a replacement re-admitted through the register/rebase path
    // must finish training — no `WorkerLost` abort anywhere — with a
    // final model whose quality is within tolerance of the fault-free
    // run (the elastic path trades bit-identity for availability).
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    const MODEL: &str = "mlp:8,32,4";
    const SEED: u64 = 5;
    const EPOCHS: usize = 3;

    // Fault-free reference: the same configuration in-process.
    let (train, test) = deploy::build_dataset("blobs", 480, SEED);
    let reference = Trainer::new(
        TrainConfig::new(Algorithm::SSgd, 2)
            .with_lr(0.2)
            .with_batch_size(16)
            .with_epochs(EPOCHS)
            .with_seed(SEED),
        |rng| deploy::build_model(MODEL, rng),
        train.clone(),
        Some(test.clone()),
    )
    .run();
    let reference_acc = accuracy_of(&reference.final_weights, &test);

    struct Reap(Vec<std::process::Child>);
    impl Drop for Reap {
        fn drop(&mut self) {
            for c in &mut self.0 {
                let _ = c.kill();
                let _ = c.wait();
            }
        }
    }
    let mut reap = Reap(Vec::new());

    // One elastic shard: eviction window well above the workers'
    // heartbeat interval, min-quorum 1 so the pool may drain.
    let mut psd = Command::new(env!("CARGO_BIN_EXE_psd"))
        .args(["--shard", "0", "--num-shards", "1", "--workers", "2"])
        .args(["--min-quorum", "1", "--heartbeat-ms", "1200"])
        .args(["--lr", "0.2", "--port", "0"])
        .args(["--model", MODEL, "--seed", &SEED.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn psd");
    let mut psd_out = BufReader::new(psd.stdout.take().expect("psd stdout piped"));
    reap.0.push(psd);
    let mut line = String::new();
    psd_out.read_line(&mut line).expect("read LISTENING line");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected psd output: {line:?}"))
        .to_string();

    let spawn_worker = |id: usize, extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_worker"))
            .args(["--id", &id.to_string(), "--workers", "2"])
            .args(["--servers", &addr, "--algo", "ssgd"])
            .args(["--dataset", "blobs", "--samples", "480", "--batch", "16"])
            .args(["--epochs", &EPOCHS.to_string(), "--lr", "0.2"])
            .args(["--model", MODEL, "--seed", &SEED.to_string()])
            .args(["--heartbeat-ms", "50"])
            .args(extra)
            .spawn()
            .expect("spawn worker")
    };

    // Worker 0 registers so its end-of-run Leave shrinks the quorum;
    // worker 1 is the victim, dying silently mid-run.
    reap.0.push(spawn_worker(0, &["--register"]));
    reap.0.push(spawn_worker(1, &["--chaos-kill-round", "12"]));

    let start = Instant::now();
    let victim_status = reap.0[2].wait().expect("wait victim");
    assert!(
        !victim_status.success(),
        "the scripted death must exit nonzero"
    );
    // Re-admit a replacement for the evicted id through register/rebase.
    reap.0.push(spawn_worker(1, &["--register"]));

    for idx in [1, 3] {
        let status = reap.0[idx].wait().expect("wait worker");
        assert!(status.success(), "process {idx} exited with {status}");
        assert!(start.elapsed() < BUDGET, "kill-and-replace run stalled");
    }

    // Controller epilogue: snapshot the drained shard, shut it down, and
    // compare model quality against the fault-free reference.
    let num_keys = deploy::initial_weights(MODEL, SEED).len();
    let addrs = [addr];
    let cluster =
        NetCluster::connect(&addrs, num_keys, NetConfig::default()).expect("controller connect");
    let (weights, _versions) = cluster.snapshot().expect("snapshot");
    Box::new(cluster).shutdown();
    let psd_status = reap.0[0].wait().expect("wait psd");
    assert!(psd_status.success(), "psd exited with {psd_status}");
    reap.0.clear();

    let chaos_acc = accuracy_of(&weights, &test);
    assert!(
        (chaos_acc - reference_acc).abs() <= 0.25,
        "kill-and-replace accuracy {chaos_acc} strays too far from fault-free {reference_acc}"
    );
}

/// Test-set accuracy of a weight snapshot, for tolerance comparisons.
fn accuracy_of(weights: &[Vec<f32>], test: &cdsgd_data::Dataset) -> f32 {
    use cdsgd_nn::{Layer, Mode, SoftmaxCrossEntropy};
    let mut rng = cdsgd_tensor::SmallRng64::new(1);
    let mut model = deploy::build_model("mlp:8,32,4", &mut rng);
    model.import_params(weights);
    let loss_fn = SoftmaxCrossEntropy;
    let mut correct = 0.0f64;
    let mut total = 0usize;
    for batch in test.batches(64) {
        let logits = model.forward(&batch.x, Mode::Eval);
        correct += loss_fn.accuracy(&logits, &batch.y) as f64 * batch.y.len() as f64;
        total += batch.y.len();
    }
    (correct / total.max(1) as f64) as f32
}

#[test]
fn tcp_connection_drop_trips_the_server_round_deadline() {
    // The rawest failure mode: a worker's TCP connection goes silent
    // (FaultyTransport kills sends without notifying the peer). The
    // server's round deadline must name the worker whose pushes stopped.
    let init = partition_keys(deploy::initial_weights("mlp:8,32,4", 5), 1).swap_remove(0);
    let sizes: Vec<usize> = init.iter().map(Vec::len).collect();
    let cfg = ServerConfig::new(2, 0.2).with_round_deadline(Duration::from_millis(200));
    let server = PsNetServer::start(init, cfg);
    let (acceptor, addr) = TcpAcceptor::bind(("127.0.0.1", 0), NetConfig::default()).unwrap();
    server.listen(acceptor);

    let stats = Arc::new(TrafficStats::new());
    let net = NetConfig::default();
    let healthy = RemoteClient::new(
        Box::new(TcpTransport::connect(addr, &net).unwrap()),
        Arc::clone(&stats),
        BufferPool::new(),
    )
    .unwrap();
    // Worker 1's link dies before its first frame leaves the machine —
    // the server is never notified.
    let silent = RemoteClient::new(
        Box::new(FaultyTransport::new(
            Box::new(TcpTransport::connect(addr, &net).unwrap()),
            FaultPlan::new().kill_after_sends(0),
        )),
        Arc::clone(&stats),
        BufferPool::new(),
    )
    .unwrap();

    let start = Instant::now();
    for (key, &len) in sizes.iter().enumerate() {
        healthy
            .push(0, key, Compressed::Raw(vec![0.1; len]))
            .unwrap();
        assert_eq!(
            silent.push(1, key, Compressed::Raw(vec![0.1; len])),
            Err(NetError::Closed),
            "the faulty link must drop worker 1's pushes"
        );
    }

    // The server sees a forever-partial round and must blame worker 1.
    let failure = loop {
        if let Some(e) = server.failure() {
            break e;
        }
        assert!(start.elapsed() < BUDGET, "round deadline never fired");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        matches!(failure, NetError::WorkerLost { id: 1, .. }),
        "expected WorkerLost for worker 1, got {failure:?}"
    );
    assert_eq!(server.wait_for_shutdown().unwrap_err(), failure);
    drop(healthy);
    drop(silent);
    server.shutdown();
}

#[test]
fn partial_shard_failure_rolls_back_cross_shard_join() {
    // Transactional cross-shard join (DESIGN.md §13): worker 1 joins a
    // two-shard cluster but shard 1's link dies before the Register
    // frame leaves the machine. The two-phase register must admit on
    // shard 0, fail on shard 1, roll the shard-0 admission back — and
    // the surviving member must keep completing rounds on *both*
    // shards. Without the rollback, shard 0 would wait forever on the
    // phantom joiner's pushes.
    const KEY_LEN: usize = 4;
    let cfg = ServerConfig::new(1, 1.0).with_elastic(ElasticConfig::new(1));
    let shards = [
        PsNetServer::start(vec![vec![0.0; KEY_LEN]], cfg),
        PsNetServer::start(vec![vec![0.0; KEY_LEN]], cfg),
    ];
    let stats = Arc::new(TrafficStats::new());
    let clean = |shard: usize| {
        let (a, b) = loopback_pair();
        shards[shard].attach(Box::new(b)).unwrap();
        RemoteClient::new(Box::new(a), Arc::clone(&stats), BufferPool::new()).unwrap()
    };
    let dead = |shard: usize| {
        let (a, b) = loopback_pair();
        shards[shard].attach(Box::new(b)).unwrap();
        RemoteClient::new(
            Box::new(FaultyTransport::new(
                Box::new(a),
                FaultPlan::new().kill_after_sends(0),
            )),
            Arc::clone(&stats),
            BufferPool::new(),
        )
        .unwrap()
    };

    let joiner = ShardedClient::from_clients(vec![clean(0), dead(1)], BufferPool::new());
    match joiner
        .register(1)
        .expect_err("the cross-shard join must fail")
    {
        NetError::Membership { op, shards, .. } => {
            assert_eq!(op, "register");
            assert_eq!(shards, vec![1], "shard 1's dead link is the culprit");
        }
        other => panic!("expected a typed Membership error, got {other:?}"),
    }

    // Rollback proof: worker 0 — the initial member — alone completes a
    // round touching both shards. Guarded by a timeout so a botched
    // rollback shows up as a named failure, not a hung test.
    let w0 = ShardedClient::from_clients(vec![clean(0), clean(1)], BufferPool::new());
    let (tx, rx) = std::sync::mpsc::channel();
    let round = std::thread::spawn(move || {
        for key in 0..2 {
            w0.push(0, key, Compressed::Raw(vec![1.0; KEY_LEN]))
                .unwrap();
        }
        let pulls: Vec<_> = (0..2)
            .map(|key| w0.pull(key, 1).expect("round completes"))
            .collect();
        tx.send(pulls).unwrap();
    });
    let pulls = rx
        .recv_timeout(BUDGET)
        .expect("round stalled: the aborted join left a shard counting the phantom member");
    round.join().unwrap();
    for w in pulls {
        assert_eq!(&*w, &[-1.0f32; KEY_LEN][..], "round missed the survivor");
    }
    for s in &shards {
        assert!(s.failure().is_none(), "rollback must not fail any shard");
        s.shutdown();
    }
}

#[test]
fn tcp_link_drop_reconnects_and_stays_bit_exact() {
    // The worker-side reconnect path over real sockets: both shard
    // links die mid-run (silently — the server is never notified), the
    // reconnecting client redials, re-registers, replays exactly the
    // unaggregated pushes, and rebases its in-flight pulls. The run
    // must finish with *bit-identical* server state to the fault-free
    // run, because replay is exactly-once and the round structure is
    // preserved.
    const KEY_LEN: usize = 4;
    const ROUNDS: u64 = 4;
    fn run(chaos: Option<FaultPlan>) -> (Vec<Vec<f32>>, Vec<u64>, u64) {
        let init = vec![vec![0.0; KEY_LEN], vec![1.0; KEY_LEN]];
        let cfg = ServerConfig::new(1, 1.0).with_elastic(ElasticConfig::new(1));
        let cluster = NetCluster::start_tcp_local(init.clone(), cfg, 2, NetConfig::default())
            .expect("start cluster");
        if let Some(plan) = chaos {
            cluster.arm_chaos(plan);
        }
        let rc = ReconnectConfig {
            retries: 5,
            backoff: Duration::from_millis(10),
        };
        let attached = cluster
            .attach(
                0,
                Attach {
                    register: true,
                    reconnect: Some(rc),
                    ..Attach::default()
                },
            )
            .expect("open connections and register");
        let client = attached.client();
        for round in 1..=ROUNDS {
            for key in 0..2 {
                client
                    .push(0, key, Compressed::Raw(vec![1.0; KEY_LEN]))
                    .expect("push survives the link drop");
            }
            for (key, w0) in init.iter().enumerate() {
                let w = client
                    .pull_async(key, round)
                    .expect("pull")
                    .wait()
                    .expect("pull survives the link drop");
                assert_eq!(&*w, &[w0[0] - round as f32; KEY_LEN][..]);
            }
        }
        let reconnects = attached.reconnects();
        drop((client, attached));
        let (weights, versions) = cluster.snapshot().expect("snapshot");
        Box::new(cluster).shutdown();
        (weights, versions, reconnects)
    }

    let guarded = |chaos: Option<FaultPlan>| {
        let (tx, rx) = std::sync::mpsc::channel();
        let t = std::thread::spawn(move || {
            tx.send(run(chaos)).ok();
        });
        let out = rx.recv_timeout(BUDGET).expect("reconnect run stalled");
        t.join().unwrap();
        out
    };

    let (w_ref, v_ref, n_ref) = guarded(None);
    assert_eq!(n_ref, 0, "a fault-free run must never redial");
    let (w, v, n) = guarded(Some(FaultPlan::new().kill_after_sends(5)));
    assert!(n >= 1, "the armed link drop never fired");
    assert_eq!(v, v_ref, "reconnect must not skip or repeat rounds");
    assert_eq!(w, w_ref, "reconnect must be bit-exact, not merely close");
}

#[test]
fn tcp_process_link_drop_reconnects_within_tolerance() {
    // The tentpole scenario end-to-end across real OS processes: an
    // elastic `psd` shard, two real `worker` binaries, and worker 1's
    // TCP link scripted to die silently mid-run. With `--reconnect-*`
    // armed the worker must absorb the drop — redial, re-register,
    // replay — and *both* workers must exit 0, with the final model
    // within tolerance of the fault-free run. No replacement process is
    // ever spawned: the same worker recovers its own link.
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    const MODEL: &str = "mlp:8,32,4";
    const SEED: u64 = 5;
    const EPOCHS: usize = 3;

    let (train, test) = deploy::build_dataset("blobs", 480, SEED);
    let reference = Trainer::new(
        TrainConfig::new(Algorithm::SSgd, 2)
            .with_lr(0.2)
            .with_batch_size(16)
            .with_epochs(EPOCHS)
            .with_seed(SEED),
        |rng| deploy::build_model(MODEL, rng),
        train.clone(),
        Some(test.clone()),
    )
    .run();
    let reference_acc = accuracy_of(&reference.final_weights, &test);

    struct Reap(Vec<std::process::Child>);
    impl Drop for Reap {
        fn drop(&mut self) {
            for c in &mut self.0 {
                let _ = c.kill();
                let _ = c.wait();
            }
        }
    }
    let mut reap = Reap(Vec::new());

    // No heartbeat eviction window: the dropped link is recovered by
    // the worker itself, and nothing must race to evict it meanwhile.
    let mut psd = Command::new(env!("CARGO_BIN_EXE_psd"))
        .args(["--shard", "0", "--num-shards", "1", "--workers", "2"])
        .args(["--min-quorum", "1"])
        .args(["--lr", "0.2", "--port", "0"])
        .args(["--model", MODEL, "--seed", &SEED.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn psd");
    let mut psd_out = BufReader::new(psd.stdout.take().expect("psd stdout piped"));
    reap.0.push(psd);
    let mut line = String::new();
    psd_out.read_line(&mut line).expect("read LISTENING line");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected psd output: {line:?}"))
        .to_string();

    let spawn_worker = |id: usize, extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_worker"))
            .args(["--id", &id.to_string(), "--workers", "2"])
            .args(["--servers", &addr, "--algo", "ssgd"])
            .args(["--dataset", "blobs", "--samples", "480", "--batch", "16"])
            .args(["--epochs", &EPOCHS.to_string(), "--lr", "0.2"])
            .args(["--model", MODEL, "--seed", &SEED.to_string()])
            .args(["--register"])
            .args(extra)
            .spawn()
            .expect("spawn worker")
    };

    // Worker 1's link drops after 40 frames (~round 5 of 45); five
    // retries at 50 ms backoff must absorb it.
    reap.0.push(spawn_worker(0, &[]));
    reap.0.push(spawn_worker(
        1,
        &[
            "--chaos-drop-sends",
            "40",
            "--reconnect-retries",
            "5",
            "--reconnect-backoff-ms",
            "50",
        ],
    ));

    let start = Instant::now();
    for idx in [1, 2] {
        let status = reap.0[idx].wait().expect("wait worker");
        assert!(
            status.success(),
            "worker process {idx} exited with {status}: the reconnect did not absorb the drop"
        );
        assert!(start.elapsed() < BUDGET, "link-drop run stalled");
    }

    let num_keys = deploy::initial_weights(MODEL, SEED).len();
    let addrs = [addr];
    let cluster =
        NetCluster::connect(&addrs, num_keys, NetConfig::default()).expect("controller connect");
    let (weights, _versions) = cluster.snapshot().expect("snapshot");
    Box::new(cluster).shutdown();
    let psd_status = reap.0[0].wait().expect("wait psd");
    assert!(psd_status.success(), "psd exited with {psd_status}");
    reap.0.clear();

    let chaos_acc = accuracy_of(&weights, &test);
    assert!(
        (chaos_acc - reference_acc).abs() <= 0.25,
        "link-drop accuracy {chaos_acc} strays too far from fault-free {reference_acc}"
    );
}

#[test]
fn trailing_heartbeat_after_leave_does_not_resurrect_the_worker() {
    // The goodbye wins: a heartbeat frame that lands *after* the same
    // worker's Leave (same connection, FIFO order) must not touch the
    // departed slot — the survivor's rounds keep completing without
    // the leaver, the server stays healthy, and the slot remains
    // re-admittable through a fresh register.
    const KEY_LEN: usize = 8;
    let cfg = ServerConfig::new(1, 1.0).with_elastic(ElasticConfig::new(1));
    let server = PsNetServer::start(vec![vec![0.0; KEY_LEN]], cfg);
    let (acceptor, addr) = TcpAcceptor::bind(("127.0.0.1", 0), NetConfig::default()).unwrap();
    server.listen(acceptor);

    let stats = Arc::new(TrafficStats::new());
    let net = NetConfig::default();
    let connect = || {
        RemoteClient::new(
            Box::new(TcpTransport::connect(addr, &net).unwrap()),
            Arc::clone(&stats),
            BufferPool::new(),
        )
        .unwrap()
    };
    let permanent = connect();
    let transient = connect();

    let start = Instant::now();
    assert_eq!(transient.register(1).expect("join"), vec![0]);
    permanent
        .push(0, 0, Compressed::Raw(vec![1.0; KEY_LEN]))
        .unwrap();
    transient
        .push(1, 0, Compressed::Raw(vec![1.0; KEY_LEN]))
        .unwrap();
    assert_eq!(permanent.pull(0, 1).expect("joint round")[0], -1.0);

    transient.leave(1).expect("graceful leave");
    transient
        .heartbeat(1)
        .expect("a trailing heartbeat frame is still deliverable");
    drop(transient);

    // The survivor alone completes the next round: the trailing
    // heartbeat did not re-admit worker 1 into the quorum.
    permanent
        .push(0, 0, Compressed::Raw(vec![1.0; KEY_LEN]))
        .unwrap();
    assert_eq!(permanent.pull(0, 2).expect("solo round")[0], -2.0);
    assert!(
        server.failure().is_none(),
        "heartbeat-after-leave must not fail the server: {:?}",
        server.failure()
    );

    // And the slot is cleanly re-admittable afterwards.
    let replacement = connect();
    assert_eq!(replacement.register(1).expect("re-join"), vec![2]);
    permanent
        .push(0, 0, Compressed::Raw(vec![1.0; KEY_LEN]))
        .unwrap();
    replacement
        .push(1, 0, Compressed::Raw(vec![1.0; KEY_LEN]))
        .unwrap();
    assert_eq!(permanent.pull(0, 3).expect("rejoined round")[0], -3.0);
    assert!(start.elapsed() < BUDGET, "heartbeat-after-leave stalled");

    drop(permanent);
    drop(replacement);
    server.shutdown();
}
