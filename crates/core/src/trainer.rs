//! The trainer: spawns the parameter server and N worker threads, runs
//! the full training, and aggregates metrics.

use crate::config::TrainConfig;
use crate::metrics::{AbortRecord, EpochMetrics, TrainingHistory};
use crate::strategy::Link;
use crate::supervise::{PoisonBarrier, RestartBudget};
use crate::worker::{run_worker, EpochReport, WorkerArgs};
use cdsgd_data::Dataset;
use cdsgd_nn::Sequential;
use cdsgd_ps::{
    AllReduceBackend, Durability, ElasticConfig, FaultyClient, InProcessBackend, NetError,
    ParamServer, PsBackend, ServerConfig, WireMode,
};
use cdsgd_telemetry::{Event, Telemetry};
use cdsgd_tensor::SmallRng64;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the supervisor wakes while waiting on worker reports to
/// check for dead workers and server-side failure verdicts.
const SUPERVISE_TICK: Duration = Duration::from_millis(50);

/// A training run that stopped early: the typed error plus everything
/// that completed before the failure ([`TrainingHistory::aborted`] says
/// where it stopped).
#[derive(Debug)]
pub struct TrainFailure {
    /// The failure that ended the run (typically
    /// [`NetError::WorkerLost`]).
    pub error: NetError,
    /// Metrics of the epochs that completed before the abort.
    pub history: TrainingHistory,
}

impl std::fmt::Display for TrainFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.history.aborted {
            Some(a) => write!(f, "training aborted at epoch {}: {}", a.epoch, self.error),
            None => write!(f, "training aborted: {}", self.error),
        }
    }
}

impl std::error::Error for TrainFailure {}

/// Builds a model from an RNG. Every worker calls this with the *same*
/// seed so all replicas (and the server's initial weights) agree.
pub type ModelBuilder = dyn Fn(&mut SmallRng64) -> Sequential + Send + Sync;

/// Orchestrates one distributed training run.
pub struct Trainer {
    cfg: TrainConfig,
    builder: Arc<ModelBuilder>,
    train: Dataset,
    test: Option<Dataset>,
}

impl Trainer {
    /// Create a trainer. `builder` must be deterministic in the RNG.
    ///
    /// # Panics
    /// Panics on a structurally invalid configuration (see
    /// [`TrainConfig::validate`]); check it first for a typed
    /// [`crate::config::ConfigError`].
    pub fn new(
        cfg: TrainConfig,
        builder: impl Fn(&mut SmallRng64) -> Sequential + Send + Sync + 'static,
        train: Dataset,
        test: Option<Dataset>,
    ) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        Self {
            cfg,
            builder: Arc::new(builder),
            train,
            test,
        }
    }

    /// Iterations every worker runs per epoch (the smallest shard's full
    /// batches; all workers must agree or the synchronous server stalls).
    pub fn iters_per_epoch(&self) -> usize {
        let n = self.cfg.num_workers;
        (0..n)
            .map(|w| self.train.shard(w, n).len() / self.cfg.batch_size)
            .min()
            .unwrap_or(0)
    }

    /// Run to completion in this process — on an in-process parameter
    /// server, or for a server-less algorithm on the loopback collective
    /// the topology names — returning the per-epoch history.
    ///
    /// # Panics
    /// Panics if any shard is smaller than one batch.
    pub fn run(&self) -> TrainingHistory {
        self.run_with(|init, cfg| {
            Ok(if self.cfg.algo.uses_ring() {
                Box::new(self.loopback_collectives()?)
            } else {
                Box::new(InProcessBackend::new(ParamServer::start_with(
                    init,
                    cfg,
                    self.cfg.telemetry.clone(),
                    Durability::default(),
                )))
            })
        })
        .expect("in-process backend cannot fail to connect")
    }

    /// The in-process collective group of a server-less run: the ring
    /// over loopback.
    fn loopback_collectives(&self) -> Result<AllReduceBackend, NetError> {
        AllReduceBackend::ring(self.cfg.num_workers, WireMode::Loopback)
    }

    /// Run to completion against a parameter-server deployment produced
    /// by `backend` — in-process threads, loopback transports, local TCP
    /// shards, or external `psd` processes ([`cdsgd_ps::NetCluster`]).
    /// The wire protocol is bit-deterministic, so every backend yields
    /// the same [`TrainingHistory`] for the same config and seed.
    ///
    /// On failure the partial history is discarded; use
    /// [`Trainer::try_run_with`] to keep it.
    ///
    /// # Panics
    /// Panics if any shard is smaller than one batch.
    pub fn run_with(
        &self,
        backend: impl FnOnce(Vec<Vec<f32>>, ServerConfig) -> Result<Box<dyn PsBackend>, NetError>,
    ) -> Result<TrainingHistory, NetError> {
        self.try_run_with(backend).map_err(|f| f.error)
    }

    /// Like [`Trainer::run_with`], but a failed run returns the typed
    /// error *and* the partial [`TrainingHistory`] (completed epochs plus
    /// an [`AbortRecord`]) instead of discarding it.
    ///
    /// The run is supervised: a worker that exits with an error, panics,
    /// or goes silent past [`TrainConfig::epoch_deadline`] cancels the
    /// remaining workers (poisoned barrier + backend shutdown) and the
    /// run returns [`NetError::WorkerLost`] within a bounded time instead
    /// of deadlocking on the epoch barrier.
    ///
    /// # Panics
    /// Panics if any shard is smaller than one batch.
    pub fn try_run_with(
        &self,
        backend: impl FnOnce(Vec<Vec<f32>>, ServerConfig) -> Result<Box<dyn PsBackend>, NetError>,
    ) -> Result<TrainingHistory, Box<TrainFailure>> {
        let n = self.cfg.num_workers;
        let ipe = self.iters_per_epoch();
        assert!(
            ipe > 0,
            "dataset too small: every worker needs at least one full batch"
        );

        // Identical init on every replica and on the server.
        let mut rng = SmallRng64::new(self.cfg.seed);
        let mut proto = (self.builder)(&mut rng);
        let init = proto.export_params();
        let num_keys = init.len();

        let mut server_cfg =
            ServerConfig::new(n, self.cfg.global_lr).with_optimizer(self.cfg.server_opt);
        if let Some(bps) = self.cfg.net_bytes_per_sec {
            server_cfg = server_cfg.with_network_bandwidth(bps);
        }
        if let Some(d) = self.cfg.round_deadline {
            server_cfg = server_cfg.with_round_deadline(d);
        }
        // Scripted departures switch the server into elastic membership:
        // a worker's `Leave` shrinks the round quorum instead of tripping
        // the fixed-membership failure paths. Empty departures keep the
        // server byte-for-byte on the fixed path.
        let depart_epoch: Vec<Option<usize>> = (0..n)
            .map(|w| {
                self.cfg
                    .departures
                    .iter()
                    .find(|&&(dw, _)| dw == w)
                    .map(|&(_, e)| e)
            })
            .collect();
        if !self.cfg.departures.is_empty() {
            assert!(
                !self.cfg.algo.uses_ring(),
                "scripted departures need a parameter server; the all-reduce ring is fixed-membership"
            );
            server_cfg = server_cfg.with_elastic(ElasticConfig::new(1));
        }

        let mut history = TrainingHistory {
            algo: self.cfg.algo.name(),
            num_workers: n,
            epochs: Vec::with_capacity(self.cfg.epochs),
            final_weights: Vec::new(),
            aborted: None,
        };
        // No workers are running yet: setup errors fail without cleanup.
        let ps = match backend(init, server_cfg) {
            Ok(ps) => ps,
            Err(e) => return Err(fail(history, e, 0, 0, &self.cfg.telemetry)),
        };
        // Server-less algorithms get one collective handle per worker.
        // A backend that *owns* the collectives (AllReduceBackend over
        // loopback or TCP) surrenders them here; handed a parameter-server
        // backend instead, the trainer builds the group itself, over
        // loopback, on the topology the config names.
        let use_ring = self.cfg.algo.uses_ring();
        let (mut ring_members, ring_stats) = if use_ring {
            let group = match ps.take_collectives(n) {
                Some(g) => Ok(g),
                None => self
                    .loopback_collectives()
                    .map(|own| own.take_collectives(n).expect("first take")),
            };
            let group = match group {
                Ok(g) => g,
                Err(e) => {
                    // No workers running yet; just close the backend.
                    ps.shutdown();
                    return Err(fail(history, e, 0, 0, &self.cfg.telemetry));
                }
            };
            (group.members.into_iter(), Some(group.stats))
        } else {
            (Vec::new().into_iter(), None)
        };
        let barrier = Arc::new(PoisonBarrier::new(n + 1));
        let (report_tx, report_rx) = mpsc::channel::<EpochReport>();

        let mut handles: Vec<Option<JoinHandle<Result<(), NetError>>>> = Vec::with_capacity(n);
        for w in 0..n {
            let mut wrng = SmallRng64::new(self.cfg.seed);
            let model = (self.builder)(&mut wrng);
            // One member per worker when server-less, none otherwise.
            let link =
                match ring_members.next() {
                    Some(member) => Ok(Link::Collective(member)),
                    // Scripted chaos: the designated victim gets a client
                    // that executes the fault.
                    None => ps.client().map(|client| match self.cfg.fault {
                        Some((victim, fault)) if victim == w => Link::Ps(Arc::new(
                            FaultyClient::new(Arc::from(client), fault, num_keys),
                        )),
                        _ => Link::Ps(Arc::from(client)),
                    }),
                };
            let link = match link {
                Ok(link) => link,
                Err(e) => {
                    return Err(abort(
                        ps,
                        &barrier,
                        &mut handles,
                        history,
                        e,
                        0,
                        ipe,
                        &self.cfg.telemetry,
                    ));
                }
            };
            let args = WorkerArgs {
                id: w,
                cfg: self.cfg.clone(),
                model,
                shard: self.train.shard(w, n),
                test: if w == 0 { self.test.clone() } else { None },
                link,
                iters_per_epoch: ipe,
                barrier: Arc::clone(&barrier),
            };
            let report = report_tx.clone();
            handles.push(Some(
                std::thread::Builder::new()
                    .name(format!("worker-{w}"))
                    .spawn(move || run_worker(args, |r| report.send(r).is_ok()))
                    .expect("spawn worker"),
            ));
        }
        // Hot worker replacement (DESIGN.md §14): when the policy grants
        // restarts, keep everything needed to rebuild a lost worker's
        // thread mid-run. The replacement resumes at the first epoch the
        // victim never finished — bit-identical when the loss was
        // epoch-aligned (the victim pushed exactly its completed epochs'
        // rounds), because the replacement continues the same per-worker
        // push queue at the same positions.
        let mut respawner = (self.cfg.restart.max_restarts > 0).then(|| {
            assert!(
                !use_ring,
                "hot worker replacement needs a parameter server; \
                 the all-reduce ring is fixed-membership"
            );
            Respawner {
                cfg: &self.cfg,
                builder: &self.builder,
                train: &self.train,
                test: &self.test,
                barrier: &barrier,
                report: report_tx.clone(),
                ipe,
                budget: self.cfg.restart.budget(),
            }
        });
        drop(report_tx);

        let mut epoch_start = Instant::now();
        let (mut prev_push, mut prev_pull) = (0u64, 0u64);
        for epoch in 0..self.cfg.epochs {
            // Apply lr decay scheduled for this epoch before it runs...
            // (workers are still blocked on the previous barrier for
            // epoch > 0; for epoch 0 they haven't pushed yet).
            for &(at, lr) in &self.cfg.lr_schedule {
                if at == epoch {
                    if let Err(e) = ps.set_lr(lr) {
                        return Err(abort(
                            ps,
                            &barrier,
                            &mut handles,
                            history,
                            e,
                            epoch,
                            ipe,
                            &self.cfg.telemetry,
                        ));
                    }
                }
            }
            if epoch > 0 {
                // Release workers into this epoch and restart the clock.
                // Every worker already reported epoch-1 and reached the
                // barrier (reporting and waiting are adjacent, infallible
                // steps), so this wait cannot hang on a dead worker.
                barrier.wait().expect("only the supervisor poisons");
                epoch_start = Instant::now();
            }

            let mut loss_sum = 0.0f64;
            let mut acc_sum = 0.0f64;
            let mut batches = 0usize;
            let mut test_acc = None;
            let mut reported = vec![false; n];
            // A worker departing at epoch `d` reports epochs `0..d` and
            // then exits cleanly: expect one fewer report from `d` on.
            let departed: Vec<bool> = depart_epoch
                .iter()
                .map(|d| d.is_some_and(|e| e <= epoch))
                .collect();
            let expected = departed.iter().filter(|&&d| !d).count();
            for _ in 0..expected {
                let r = match self.await_report(
                    &report_rx,
                    ps.as_ref(),
                    &mut handles,
                    &mut respawner,
                    &reported,
                    &departed,
                    epoch_start,
                    epoch,
                    ipe,
                ) {
                    Ok(r) => r,
                    Err(e) => {
                        return Err(abort(
                            ps,
                            &barrier,
                            &mut handles,
                            history,
                            e,
                            epoch,
                            ipe,
                            &self.cfg.telemetry,
                        ));
                    }
                };
                assert_eq!(r.epoch, epoch, "epoch skew from worker {}", r.worker);
                reported[r.worker] = true;
                loss_sum += r.loss_sum;
                acc_sum += r.acc_sum;
                batches += r.batches;
                if r.test_acc.is_some() {
                    test_acc = r.test_acc;
                }
                if let Some(w) = r.final_weights {
                    history.final_weights = w;
                }
            }
            let cum_push = ring_stats
                .as_ref()
                .map_or_else(|| ps.bytes_pushed(), |s| s.bytes_pushed());
            let cum_pull = ring_stats
                .as_ref()
                .map_or_else(|| ps.bytes_pulled(), |s| s.bytes_pulled());
            let m = EpochMetrics {
                epoch,
                train_loss: (loss_sum / batches as f64) as f32,
                train_acc: (acc_sum / batches as f64) as f32,
                test_acc,
                epoch_time_s: epoch_start.elapsed().as_secs_f64(),
                cumulative_push_bytes: cum_push,
                cumulative_pull_bytes: cum_pull,
                epoch_push_bytes: cum_push - prev_push,
                epoch_pull_bytes: cum_pull - prev_pull,
            };
            (prev_push, prev_pull) = (cum_push, cum_pull);
            self.cfg.telemetry.emit(|| Event::Epoch {
                epoch,
                train_loss: m.train_loss,
                train_acc: m.train_acc,
                test_acc: m.test_acc,
                seconds: m.epoch_time_s,
                push_bytes: m.cumulative_push_bytes,
                pull_bytes: m.cumulative_pull_bytes,
            });
            history.epochs.push(m);
        }
        // Release workers from the final barrier so they can exit. They
        // still drain their last outstanding pulls, which needs a live
        // server — join before shutting the backend down.
        drop(respawner);
        barrier.wait().expect("only the supervisor poisons");
        for w in 0..n {
            // Departed workers may already have been reaped by the
            // supervisor when their thread finished mid-run.
            let Some(h) = handles[w].take() else { continue };
            if let Some(e) = join_error(h.join(), w, self.cfg.epochs, ipe) {
                return Err(abort(
                    ps,
                    &barrier,
                    &mut handles,
                    history,
                    e,
                    self.cfg.epochs,
                    ipe,
                    &self.cfg.telemetry,
                ));
            }
        }
        if history.final_weights.is_empty() {
            match ps.snapshot() {
                Ok((weights, _)) => history.final_weights = weights,
                Err(e) => {
                    return Err(abort(
                        ps,
                        &barrier,
                        &mut handles,
                        history,
                        e,
                        self.cfg.epochs,
                        ipe,
                        &self.cfg.telemetry,
                    ));
                }
            }
        }
        ps.shutdown();
        self.cfg.telemetry.flush();
        Ok(history)
    }

    /// Wait for the next epoch report, supervising the worker threads:
    /// returns `Err` with a typed [`NetError`] if a worker has died
    /// (error exit or panic), the backend reports a failed round, or the
    /// epoch deadline passes with workers still silent. When a restart
    /// policy is armed (`respawner` is `Some`), a lost worker is replaced
    /// in place and supervision continues instead of failing the run.
    #[allow(clippy::too_many_arguments)]
    fn await_report(
        &self,
        report_rx: &Receiver<EpochReport>,
        ps: &dyn PsBackend,
        handles: &mut [Option<JoinHandle<Result<(), NetError>>>],
        respawner: &mut Option<Respawner<'_>>,
        reported: &[bool],
        departed: &[bool],
        epoch_start: Instant,
        epoch: usize,
        ipe: usize,
    ) -> Result<EpochReport, NetError> {
        loop {
            match report_rx.recv_timeout(SUPERVISE_TICK) {
                Ok(r) => return Ok(r),
                Err(RecvTimeoutError::Disconnected) => {
                    // Every worker exited without the missing reports:
                    // join them all and surface the first failure.
                    for (w, slot) in handles.iter_mut().enumerate() {
                        let Some(h) = slot.take() else { continue };
                        if let Some(e) = join_error(h.join(), w, epoch, ipe) {
                            return Err(e);
                        }
                    }
                    // All exited cleanly yet reports are missing — the
                    // abort machinery still needs an error to carry.
                    return Err(NetError::ServerGone);
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
            // A worker thread that finished before reporting this epoch
            // died (clean early exit mid-training is also a loss) —
            // unless it departed by script, in which case a clean exit is
            // the expected outcome and only a failed goodbye is an error.
            for (w, slot) in handles.iter_mut().enumerate() {
                if slot.as_ref().is_some_and(|h| h.is_finished()) {
                    let h = slot.take().expect("checked above");
                    if departed[w] {
                        if let Some(e) = join_error(h.join(), w, epoch, ipe) {
                            return Err(e);
                        }
                        continue;
                    }
                    let e = join_error(h.join(), w, epoch, ipe).unwrap_or(NetError::WorkerLost {
                        id: w,
                        round: first_round(epoch, ipe),
                    });
                    // Hot replacement: a restart policy turns the loss
                    // into a recoverable event. The replacement resumes
                    // at the first epoch the victim never finished —
                    // this epoch if its report is still missing, the
                    // next one if it died after reporting.
                    if let Some(r) = respawner.as_mut() {
                        let resume_epoch = if reported[w] { epoch + 1 } else { epoch };
                        if resume_epoch < self.cfg.epochs {
                            if let Some(handle) = r.respawn(ps, w, resume_epoch) {
                                if let NetError::WorkerLost { id, round } = &e {
                                    let (id, round) = (*id, *round);
                                    self.cfg.telemetry.emit(|| Event::WorkerLost { id, round });
                                }
                                eprintln!(
                                    "supervisor: worker {w} lost during epoch {epoch}; \
                                     replacement resumes at epoch {resume_epoch} \
                                     ({} restarts left)",
                                    r.budget.remaining()
                                );
                                *slot = Some(handle);
                                continue;
                            }
                        }
                    }
                    return Err(e);
                }
            }
            // The server may have failed the round (its deadline names
            // the victim even when every worker is silently blocked).
            if let Some(e) = ps.failure() {
                return Err(e);
            }
            // Last resort: silence past the epoch deadline. Blame the
            // lowest-id worker that has not reported this epoch.
            if let Some(deadline) = self.cfg.epoch_deadline {
                if epoch_start.elapsed() > deadline {
                    // Blame the lowest-id worker still expected to report
                    // (departed workers never will, by design).
                    let id = (0..reported.len())
                        .find(|&w| !reported[w] && !departed[w])
                        .unwrap_or(0);
                    return Err(NetError::WorkerLost {
                        id,
                        round: first_round(epoch, ipe),
                    });
                }
            }
        }
    }
}

/// Everything the supervisor needs to rebuild a lost worker's thread
/// mid-run, plus the [`RestartBudget`] governing how many times and how
/// fast. Constructed only when [`crate::supervise::RestartPolicy`] grants
/// restarts, so default runs keep the exact report-channel disconnect
/// semantics (the extra `Sender` clone would otherwise mask them).
struct Respawner<'a> {
    cfg: &'a TrainConfig,
    builder: &'a Arc<ModelBuilder>,
    train: &'a Dataset,
    test: &'a Option<Dataset>,
    barrier: &'a Arc<PoisonBarrier>,
    report: Sender<EpochReport>,
    ipe: usize,
    budget: RestartBudget,
}

impl Respawner<'_> {
    /// Try to replace lost worker `w`, resuming at `start_epoch`. Sleeps
    /// the budget's backoff before spawning. `None` when the budget is
    /// exhausted or the backend refuses a fresh connection — the caller
    /// then fails the run exactly as it would without a policy.
    ///
    /// The replacement rebuilds the model from the run's seed, resumes
    /// via [`TrainConfig::start_epoch`] (worker checkpoints, when
    /// configured, restore its private state; otherwise it re-bases on
    /// the server's globals), and never re-arms a scripted fault.
    fn respawn(
        &mut self,
        ps: &dyn PsBackend,
        w: usize,
        start_epoch: usize,
    ) -> Option<JoinHandle<Result<(), NetError>>> {
        let delay = self.budget.grant()?;
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        let client = match ps.client() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("supervisor: cannot reconnect replacement for worker {w}: {e}");
                return None;
            }
        };
        let mut wrng = SmallRng64::new(self.cfg.seed);
        let model = (self.builder)(&mut wrng);
        let mut cfg = self.cfg.clone();
        cfg.start_epoch = start_epoch;
        cfg.fault = None;
        let n = cfg.num_workers;
        let args = WorkerArgs {
            id: w,
            cfg,
            model,
            shard: self.train.shard(w, n),
            test: if w == 0 { self.test.clone() } else { None },
            link: Link::Ps(Arc::from(client)),
            iters_per_epoch: self.ipe,
            barrier: Arc::clone(self.barrier),
        };
        let report = self.report.clone();
        std::thread::Builder::new()
            .name(format!("worker-{w}r{}", self.budget.used()))
            .spawn(move || run_worker(args, |r| report.send(r).is_ok()))
            .ok()
    }
}

/// The first aggregate round of `epoch` — the abort records' best
/// estimate of where a failure stopped the run when the error itself
/// does not carry a round.
fn first_round(epoch: usize, ipe: usize) -> u64 {
    (epoch * ipe) as u64
}

/// Interpret a joined worker's outcome. `None` for a clean exit. An
/// existing [`NetError::WorkerLost`] passes through unchanged (it names
/// the true victim — this worker may merely have observed the failure);
/// any other error or a panic becomes `WorkerLost` for worker `w`.
fn join_error(
    outcome: std::thread::Result<Result<(), NetError>>,
    w: usize,
    epoch: usize,
    ipe: usize,
) -> Option<NetError> {
    match outcome {
        Ok(Ok(())) => None,
        Ok(Err(e @ NetError::WorkerLost { .. })) => Some(e),
        Ok(Err(_)) | Err(_) => Some(NetError::WorkerLost {
            id: w,
            round: first_round(epoch, ipe),
        }),
    }
}

/// Attach the abort record, emit the supervision events, and box the
/// failure.
fn fail(
    mut history: TrainingHistory,
    error: NetError,
    epoch: usize,
    ipe: usize,
    tel: &Telemetry,
) -> Box<TrainFailure> {
    let round = match &error {
        NetError::WorkerLost { round, .. } => *round,
        _ => first_round(epoch, ipe),
    };
    if let NetError::WorkerLost { id, round } = &error {
        let (id, round) = (*id, *round);
        tel.emit(|| Event::WorkerLost { id, round });
    }
    tel.emit(|| Event::Abort {
        epoch,
        round,
        error: error.to_string(),
    });
    tel.flush();
    history.aborted = Some(AbortRecord {
        epoch,
        round,
        error: error.to_string(),
    });
    Box::new(TrainFailure { error, history })
}

/// Cancel a failed run without hanging: poison the barrier (wakes every
/// worker parked at an epoch rendezvous), shut the backend down (fails
/// every blocked or future parameter-server call with a typed error —
/// which also terminates workers still mid-computation at their next
/// push/pull), then join what's left and attach the abort record.
#[allow(clippy::too_many_arguments)]
fn abort(
    ps: Box<dyn PsBackend>,
    barrier: &PoisonBarrier,
    handles: &mut [Option<JoinHandle<Result<(), NetError>>>],
    history: TrainingHistory,
    error: NetError,
    epoch: usize,
    ipe: usize,
    tel: &Telemetry,
) -> Box<TrainFailure> {
    barrier.poison(error.clone());
    ps.shutdown();
    for h in handles.iter_mut().filter_map(Option::take) {
        let _ = h.join();
    }
    fail(history, error, epoch, ipe, tel)
}

/// Run one worker as its own OS process (the engine of the `worker`
/// binary), synchronizing through `link`: a parameter-server client —
/// typically [`cdsgd_ps::AttachedWorker::client`] from
/// [`cdsgd_ps::NetCluster::attach`] — or, for a *server-less* deployment
/// (`worker --topology ring|decentralized`), the ring member
/// [`cdsgd_ps::WireRing::join`] wires to the peer workers over TCP. A link
/// of the wrong kind for the algorithm is refused with an error.
///
/// Data sharding, iteration counts, model init, and the update sequence
/// are identical to the in-process [`Trainer::run`], so a multi-process
/// deployment with the same seed reaches the same weights bit-for-bit.
///
/// Returns per-epoch `(mean train loss, test accuracy)` — the accuracy is
/// `Some` only on worker 0, which owns the test set by convention.
pub fn run_standalone_worker(
    cfg: TrainConfig,
    id: usize,
    builder: impl Fn(&mut SmallRng64) -> Sequential,
    train: &Dataset,
    test: Option<Dataset>,
    link: Link,
) -> Result<Vec<(f32, Option<f32>)>, NetError> {
    let n = cfg.num_workers;
    assert!(id < n, "worker id {id} out of range for {n} workers");
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    let ipe = (0..n)
        .map(|w| train.shard(w, n).len() / cfg.batch_size)
        .min()
        .unwrap_or(0);
    assert!(
        ipe > 0,
        "dataset too small: every worker needs at least one full batch"
    );
    let mut wrng = SmallRng64::new(cfg.seed);
    let model = (builder)(&mut wrng);
    let telemetry = cfg.telemetry.clone();
    let mut out = vec![(0.0, None); cfg.epochs];
    let mut epoch_start = Instant::now();
    // Each report becomes an `Epoch` event on this thread as it is made,
    // with real per-epoch wall-clock. Push and pull byte totals are zero
    // here: a standalone worker's traffic lives in its client-side frame
    // events, not in this rollup.
    let report = |r: EpochReport| {
        let batches = r.batches.max(1) as f64;
        let loss = (r.loss_sum / batches) as f32;
        let acc = (r.acc_sum / batches) as f32;
        telemetry.emit(|| Event::Epoch {
            epoch: r.epoch,
            train_loss: loss,
            train_acc: acc,
            test_acc: r.test_acc,
            seconds: epoch_start.elapsed().as_secs_f64(),
            push_bytes: 0,
            pull_bytes: 0,
        });
        epoch_start = Instant::now();
        out[r.epoch] = (loss, r.test_acc);
        true
    };
    let args = WorkerArgs {
        id,
        shard: train.shard(id, n),
        test: if id == 0 { test } else { None },
        cfg,
        model,
        link,
        iters_per_epoch: ipe,
        // No trainer thread to rendezvous with: a 1-party barrier makes
        // every `wait` a no-op.
        barrier: Arc::new(PoisonBarrier::new(1)),
    };
    // Flushed even on error, so the rollup events are out before the
    // caller sees the failure.
    let result = run_worker(args, report);
    telemetry.flush();
    result?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use cdsgd_data::toy;
    use cdsgd_nn::models;

    fn blob_trainer(algo: Algorithm, workers: usize, epochs: usize) -> Trainer {
        let data = toy::gaussian_blobs(480, 8, 4, 0.6, 9);
        let (train, test) = data.split(0.8);
        let cfg = TrainConfig::new(algo, workers)
            .with_lr(0.2)
            .with_batch_size(16)
            .with_epochs(epochs)
            .with_seed(5);
        Trainer::new(cfg, |rng| models::mlp(&[8, 32, 4], rng), train, Some(test))
    }

    #[test]
    fn ssgd_learns_blobs() {
        let h = blob_trainer(Algorithm::SSgd, 2, 6).run();
        assert_eq!(h.epochs.len(), 6);
        let acc = h.final_test_acc().unwrap();
        assert!(acc > 0.9, "test acc {acc}");
        // Loss decreases overall.
        assert!(h.epochs.last().unwrap().train_loss < h.epochs[0].train_loss);
    }

    #[test]
    fn all_algorithms_learn_blobs() {
        for algo in [
            Algorithm::OdSgd { local_lr: 0.05 },
            Algorithm::BitSgd { threshold: 0.05 },
            Algorithm::cd_sgd(0.05, 0.05, 2, 10),
            Algorithm::ecq_sgd(0.05, 0.9, 0.9),
        ] {
            let name = algo.name();
            let h = blob_trainer(algo, 2, 8).run();
            let acc = h.final_test_acc().unwrap();
            assert!(acc > 0.85, "{name} test acc {acc}");
        }
    }

    #[test]
    fn four_workers_match_two_workers_roughly() {
        let h2 = blob_trainer(Algorithm::SSgd, 2, 5).run();
        let h4 = blob_trainer(Algorithm::SSgd, 4, 5).run();
        let a2 = h2.final_test_acc().unwrap();
        let a4 = h4.final_test_acc().unwrap();
        assert!((a2 - a4).abs() < 0.15, "2w {a2} vs 4w {a4}");
    }

    #[test]
    fn compression_reduces_push_traffic() {
        let ssgd = blob_trainer(Algorithm::SSgd, 2, 2).run();
        let bit = blob_trainer(Algorithm::BitSgd { threshold: 0.05 }, 2, 2).run();
        let raw = ssgd.epochs.last().unwrap().cumulative_push_bytes;
        let cmp = bit.epochs.last().unwrap().cumulative_push_bytes;
        assert!(
            (cmp as f64) < (raw as f64) / 8.0,
            "compressed {cmp} should be ≪ raw {raw}"
        );
    }

    #[test]
    fn cd_traffic_between_bit_and_ssgd() {
        let ssgd = blob_trainer(Algorithm::SSgd, 2, 2).run();
        let bit = blob_trainer(Algorithm::BitSgd { threshold: 0.05 }, 2, 2).run();
        // warmup 0 so traffic is directly comparable.
        let cd = blob_trainer(Algorithm::cd_sgd(0.05, 0.05, 4, 0), 2, 2).run();
        let s = ssgd.epochs.last().unwrap().cumulative_push_bytes;
        let b = bit.epochs.last().unwrap().cumulative_push_bytes;
        let c = cd.epochs.last().unwrap().cumulative_push_bytes;
        assert!(
            c > b,
            "CD {c} pushes more than BIT {b} (corrections are raw)"
        );
        assert!(c < s, "CD {c} pushes less than S-SGD {s}");
    }

    #[test]
    fn lr_schedule_is_applied() {
        // Decaying lr to 0 at epoch 1 freezes the weights: test accuracy
        // stops changing.
        let data = toy::gaussian_blobs(200, 4, 2, 0.4, 3);
        let (train, test) = data.split(0.8);
        let cfg = TrainConfig::new(Algorithm::SSgd, 2)
            .with_lr(0.2)
            .with_batch_size(10)
            .with_epochs(3)
            .with_lr_decay(1, 0.0);
        let h = Trainer::new(cfg, |rng| models::mlp(&[4, 2], rng), train, Some(test)).run();
        let a1 = h.epochs[1].test_acc.unwrap();
        let a2 = h.epochs[2].test_acc.unwrap();
        assert_eq!(a1, a2, "weights should be frozen after lr 0");
    }

    #[test]
    fn scripted_departure_completes_training() {
        let data = toy::gaussian_blobs(480, 8, 4, 0.6, 9);
        let (train, test) = data.split(0.8);
        let cfg = TrainConfig::new(Algorithm::SSgd, 3)
            .with_lr(0.2)
            .with_batch_size(16)
            .with_epochs(6)
            .with_seed(5)
            .with_departure(2, 2);
        let h = Trainer::new(cfg, |rng| models::mlp(&[8, 32, 4], rng), train, Some(test)).run();
        assert_eq!(h.epochs.len(), 6, "all epochs complete after the leave");
        assert!(h.aborted.is_none());
        let acc = h.final_test_acc().unwrap();
        assert!(acc > 0.85, "survivors keep learning: test acc {acc}");
    }

    #[test]
    fn two_departures_leave_a_solo_survivor() {
        let data = toy::gaussian_blobs(480, 8, 4, 0.6, 9);
        let (train, test) = data.split(0.8);
        let cfg = TrainConfig::new(Algorithm::cd_sgd(0.05, 0.05, 2, 10), 3)
            .with_lr(0.2)
            .with_batch_size(16)
            .with_epochs(5)
            .with_seed(5)
            .with_departure(1, 1)
            .with_departure(2, 3);
        let h = Trainer::new(cfg, |rng| models::mlp(&[8, 32, 4], rng), train, Some(test)).run();
        assert_eq!(h.epochs.len(), 5);
        assert!(h.aborted.is_none());
        assert!(!h.final_weights.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot depart")]
    fn worker_zero_cannot_depart() {
        TrainConfig::new(Algorithm::SSgd, 2).with_departure(0, 1);
    }

    #[test]
    #[should_panic(expected = "dataset too small")]
    fn undersized_shard_panics() {
        let data = toy::gaussian_blobs(8, 4, 2, 0.4, 3);
        let cfg = TrainConfig::new(Algorithm::SSgd, 2).with_batch_size(16);
        Trainer::new(cfg, |rng| models::mlp(&[4, 2], rng), data, None).run();
    }
}
