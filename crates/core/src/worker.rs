//! The worker loop: Algorithm 1 of the paper, one OS thread per worker.
//!
//! All per-algorithm behaviour lives behind
//! [`crate::strategy::UpdateStrategy`]; this loop is the algorithm-
//! agnostic pipeline — batch, forward, then the strategy's step
//! ([`crate::strategy::step`]: a backward that hands each layer's
//! gradient over the moment it exists, communicate, adopt) — plus
//! epoch-end evaluation and reporting.

use crate::config::TrainConfig;
use crate::strategy::{build_strategy, step, Link, StepCtx};
use crate::supervise::PoisonBarrier;
use cdsgd_data::{augment, Batch, Dataset};
use cdsgd_nn::{Layer, Mode, Sequential, SoftmaxCrossEntropy};
use cdsgd_ps::recover::{self, Checkpoint, CheckpointError, Kind};
use cdsgd_ps::NetError;
use cdsgd_telemetry::Op;
use cdsgd_tensor::{SmallRng64, Tensor};
use std::sync::Arc;

/// What a worker reports at the end of each epoch.
#[derive(Debug)]
pub(crate) struct EpochReport {
    pub worker: usize,
    pub epoch: usize,
    pub loss_sum: f64,
    pub acc_sum: f64,
    pub batches: usize,
    /// Test accuracy of the *global* weights; only worker 0 evaluates.
    pub test_acc: Option<f32>,
    /// Final global weights — sent by worker 0 on the last epoch of
    /// server-less algorithms (AR-SGD), where the trainer cannot snapshot
    /// a parameter server.
    pub final_weights: Option<Vec<Vec<f32>>>,
}

/// Everything a worker thread needs.
pub(crate) struct WorkerArgs {
    pub id: usize,
    pub cfg: TrainConfig,
    pub model: Sequential,
    pub shard: Dataset,
    /// Test set; `Some` only for worker 0.
    pub test: Option<Dataset>,
    /// How this worker synchronizes: a parameter-server client, or a
    /// collective handle for the server-less algorithms (AR-SGD and the
    /// decentralized topology). Which deployment is behind it is the
    /// trainer's choice — the worker is agnostic.
    pub link: Link,
    pub iters_per_epoch: usize,
    /// Epoch rendezvous with the trainer; poisoned by the supervisor when
    /// another worker is lost, so `wait` is fallible.
    pub barrier: Arc<PoisonBarrier>,
}

/// Run one worker to completion, handing each epoch's report to
/// `report` (`false`: nobody listens any more). See the crate docs for
/// the exact correspondence with the paper's Algorithm 1. A dead server
/// or broken connection surfaces as `Err`, not a panic.
pub(crate) fn run_worker(
    mut a: WorkerArgs,
    mut report: impl FnMut(EpochReport) -> bool,
) -> Result<(), NetError> {
    let loss_fn = SoftmaxCrossEntropy;
    let mut rng =
        SmallRng64::new(a.cfg.seed ^ (a.id as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));

    // The shared init every replica starts from; `Arc` snapshots shared
    // with the server and every same-version puller.
    let init: Vec<Arc<[f32]>> = a.model.export_params().into_iter().map(Arc::from).collect();

    let depart = a
        .cfg
        .departures
        .iter()
        .find(|&&(w, _)| w == a.id)
        .map(|&(_, e)| e);
    // A scripted departure announces `Leave` through the very client the
    // strategy pushes through — one ordered stream, so the server sees
    // every push of the final round before the goodbye.
    let ps = match &a.link {
        Link::Ps(client) => Some(Arc::clone(client)),
        Link::Collective(_) => None,
    };
    let mut strategy = build_strategy(&a.cfg.algo, &a.cfg.topology, a.link, init)
        .map_err(|e| NetError::Io(e.to_string()))?;
    let mut round: u64 = 0;

    // ---- resume (DESIGN.md §14): skip the completed epochs ----
    let start_epoch = a.cfg.start_epoch.min(a.cfg.epochs);
    if start_epoch > 0 {
        // Replay the completed epochs' shuffles so the RNG stream — and
        // therefore every remaining batch order — matches an
        // uninterrupted run bit for bit. (Augmentation draws from the
        // same RNG per batch; bit-identical resume therefore also
        // requires `augment` off, which the equivalence tests pin.)
        for _ in 0..start_epoch {
            let mut replay = a.shard.clone();
            replay.shuffle(&mut rng);
        }
        round = (start_epoch * a.iters_per_epoch) as u64;
        let mut has_model = false;
        if let Some(dir) = &a.cfg.worker_ckpt_dir {
            // The strategy state is validated before the model is
            // touched, so a checkpoint from another round, algorithm or
            // model is refused whole, never half-applied.
            let (n, epoch) = (a.cfg.num_workers, start_epoch as u64);
            let loaded = recover::load(dir, Kind::Worker, a.id, n, epoch).and_then(|ckpt| {
                if ckpt.round != round {
                    return Err(CheckpointError::Corrupt(format!(
                        "taken at round {} but this run resumes at round {round}",
                        ckpt.round
                    )));
                }
                strategy.import_state(&ckpt.strategy)?;
                Ok(ckpt.weights)
            });
            match loaded {
                Ok(model) => {
                    a.model.import_params(&model);
                    has_model = true;
                }
                Err(e) => eprintln!(
                    "worker {}: no usable checkpoint for epoch {start_epoch} ({e}); \
                     resuming from the server's globals alone",
                    a.id
                ),
            }
        }
        strategy.resume(&mut a.model, round, has_model)?;
    }

    let step_ctx = |round| StepCtx {
        id: a.id,
        round,
        cfg: &a.cfg,
        iters_per_epoch: a.iters_per_epoch,
    };
    for epoch in start_epoch..a.cfg.epochs {
        if Some(epoch) == depart {
            // Graceful departure at the start of this epoch: drain any
            // in-flight pulls, say goodbye (the server moves us to
            // Draining and re-sizes the quorum), and withdraw from the
            // epoch rendezvous so the survivors stop waiting for us.
            strategy.finish()?;
            if let Some(client) = &ps {
                client.leave(a.id)?;
            }
            a.barrier.leave();
            return Ok(());
        }
        let mut shard = a.shard.clone();
        shard.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut acc_sum = 0.0f64;
        let mut batches = 0usize;

        for batch in shard.batches(a.cfg.batch_size).take(a.iters_per_epoch) {
            let batch = if a.cfg.augment && batch.x.ndim() == 4 {
                augment::standard_augment(&batch, &mut rng)
            } else {
                batch
            };

            // ---- FP on the current (local or global) weights ----
            // Each op interval is one span on this worker's lane, on the
            // run's telemetry (no sink: no clock read, no event).
            let tel = &a.cfg.telemetry;
            let t_fp = tel.span_start();
            let logits = a.model.forward(&batch.x, Mode::Train);
            tel.span_end(a.id, Op::Forward, round, t_fp);
            let (loss, dlogits) = loss_fn.loss_and_grad(&logits, &batch.y);
            loss_sum += loss as f64;
            acc_sum += loss_fn.accuracy(&logits, &batch.y) as f64;
            batches += 1;

            // ---- BP and the algorithm's step, key by key ----
            step(strategy.as_mut(), &mut a.model, &dlogits, &step_ctx(round))?;
            round += 1;
        }

        // Receive (without adopting) any reply still in flight before
        // reporting, so the byte counters the trainer samples at the
        // epoch boundary are final — deterministic run to run and
        // bit-identical across backends.
        strategy.settle(&step_ctx(round))?;

        // ---- durable snapshot: worker state is consistent here ----
        // (all pushes settled, no pulls in flight). A failed write warns
        // and continues: losing a checkpoint must not kill training.
        if let Some(dir) = &a.cfg.worker_ckpt_dir {
            if (epoch + 1).is_multiple_of(a.cfg.worker_ckpt_every) {
                let ckpt = Checkpoint {
                    kind: Kind::Worker,
                    index: a.id,
                    count: a.cfg.num_workers,
                    round,
                    epoch: epoch + 1,
                    weights: a.model.export_params(),
                    strategy: strategy.export_state(),
                    ..Default::default()
                };
                if let Err(e) = ckpt.save_atomic(dir) {
                    eprintln!(
                        "worker {}: checkpoint for epoch {} failed: {e}",
                        a.id,
                        epoch + 1
                    );
                }
            }
        }

        // ---- epoch end: evaluate global weights (worker 0 only) ----
        let test_acc = match (a.test.as_ref(), strategy.eval_base()) {
            // Server-less: the model holds the globals; evaluate directly.
            (Some(test), None) => Some(evaluate(&mut a.model, test)),
            // PS-based: evaluate the adopted global snapshot.
            (Some(test), Some(base)) => Some(evaluate_at(&mut a.model, base, test)),
            (None, _) => None,
        };

        let final_weights = (a.id == 0 && epoch + 1 == a.cfg.epochs)
            .then(|| strategy.final_weights(&mut a.model))
            .flatten();
        let epoch_report = EpochReport {
            worker: a.id,
            epoch,
            loss_sum,
            acc_sum,
            batches,
            test_acc,
            final_weights,
        };
        // Nobody listening means the trainer is gone (aborting or
        // dropped by its caller): exit cleanly, it is not this worker's
        // failure.
        if !report(epoch_report) {
            return Ok(());
        }
        a.barrier.wait()?;
    }

    // Drain any outstanding asynchronous pulls so the server group holds
    // the fully-aggregated final weights when this worker returns — a
    // standalone worker process can exit and let an external controller
    // snapshot without racing the last round.
    strategy.finish()
}

/// Accuracy of the global snapshots `base` on `model`'s layers: the
/// parameters are pointed at the snapshots for the evaluation and get
/// their own (possibly local) tensors back after it — pointers move, no
/// weight is copied. A model that already reads `base` is evaluated as
/// it stands.
fn evaluate_at(model: &mut Sequential, base: &[Arc<[f32]>], data: &Dataset) -> f32 {
    let (mut key, mut reads_base) = (0usize, true);
    model.visit_params(&mut |p| {
        reads_base &= std::ptr::eq(p.value.data().as_ptr(), base[key].as_ptr());
        key += 1;
    });
    if reads_base {
        return evaluate(model, data);
    }
    let mut held = Vec::with_capacity(base.len());
    model.visit_params(&mut |p| {
        let global = Tensor::from_shared(p.value.shape().to_vec(), Arc::clone(&base[held.len()]));
        held.push(std::mem::replace(&mut p.value, global));
    });
    let acc = evaluate(model, data);
    let mut held = held.into_iter();
    model.visit_params(&mut |p| p.value = held.next().expect("one held tensor per parameter"));
    acc
}

/// Accuracy of `model` (eval mode) over a dataset, batched.
pub(crate) fn evaluate(model: &mut Sequential, data: &Dataset) -> f32 {
    let loss_fn = SoftmaxCrossEntropy;
    let mut correct_weighted = 0.0f64;
    let mut total = 0usize;
    for Batch { x, y } in data.batches(64) {
        let logits = model.forward(&x, Mode::Eval);
        correct_weighted += loss_fn.accuracy(&logits, &y) as f64 * y.len() as f64;
        total += y.len();
    }
    if total == 0 {
        0.0
    } else {
        (correct_weighted / total as f64) as f32
    }
}
