//! The worker-side update-strategy layer: how one training iteration's
//! gradients become the next iteration's weights.
//!
//! Every [`crate::Algorithm`] variant resolves (once, before the first
//! batch) to one [`UpdateStrategy`] implementation; the worker loop in
//! `worker.rs` is then a pure FP/BP → strategy-step pipeline with no
//! per-algorithm branching. Each iteration drives the same three-phase
//! protocol:
//!
//! 1. [`UpdateStrategy::grad_ready`] — called from inside
//!    back-propagation, once per key, the moment that key's gradient is
//!    final: turn it into the outbound payload (delay compensation,
//!    momentum, compression, local-step accumulation — whatever the
//!    algorithm prescribes) and send it, so the server or the ring peer
//!    works on the last layers while BP of the first still runs.
//! 2. [`UpdateStrategy::communicate`] — after BP, wait for (or defer)
//!    whatever the algorithm's synchronization model still owes: the
//!    blocking pulls fired behind each push, Algorithm 1's deferred pull,
//!    the gossip exchange, or nothing.
//! 3. [`UpdateStrategy::adopt`] — install the resulting weights into the
//!    model (adopt the pulled globals, apply the local update of eq. 11,
//!    or apply the reduced gradient locally).
//!
//! S-SGD, BIT-SGD, ECQ-SGD, EF-SGD, OD-SGD and CD-SGD are all
//! [`PsStrategy`], configured in [`build_strategy`]; Local SGD, AR-SGD and
//! the decentralized topology synchronize differently and stay separate.
//!
//! Every piece of push state is per key, so the hand-off order changes
//! no arithmetic: `tests/strategy_equivalence.rs` pins the final-weight
//! hashes captured from the original monolithic loop for every variant
//! on two backends.

use crate::config::{Algorithm, ConfigError, Topology, TrainConfig};
use cdsgd_compress::{
    decompress_add, BufferPool, Compressed, GradientCompressor, NoCompression, OneBitQuantizer,
    TwoBitQuantizer,
};
use cdsgd_net::{decode_compressed, encode_compressed_into};
use cdsgd_nn::{Layer, Param, Sequential};
use cdsgd_ps::recover::CheckpointError;
use cdsgd_ps::{Collective, NetError, ParamClient, PendingPull};
use cdsgd_telemetry::Op;
use cdsgd_tensor::{kernel, Tensor};
use std::sync::Arc;

/// Per-iteration context handed to every strategy phase: identity,
/// position in training, and the config (whose telemetry handle times
/// the step's op intervals).
pub(crate) struct StepCtx<'a> {
    /// Worker id.
    pub id: usize,
    /// Global round counter, *before* this iteration increments it.
    pub round: u64,
    /// The run configuration (lr schedule, algorithm parameters).
    pub cfg: &'a TrainConfig,
    /// Iterations per epoch (AR-SGD's worker-side lr schedule needs it).
    pub iters_per_epoch: usize,
}

impl StepCtx<'_> {
    /// Start an op interval (`None` when the run has no telemetry sink).
    fn now(&self) -> Option<f64> {
        self.cfg.telemetry.span_start()
    }

    /// Close an op interval opened by [`StepCtx::now`] as one span on
    /// this worker's lane, attributed to `round` (which some strategies
    /// report post-increment).
    fn record(&self, op: Op, round: u64, start: Option<f64>) {
        self.cfg.telemetry.span_end(self.id, op, round, start);
    }
}

/// How a worker reaches the rest of the run, from attach to goodbye: a
/// parameter-server client or a member handle of a server-less
/// collective — never both, never neither.
pub enum Link {
    /// In-process, loopback or TCP; the worker is agnostic.
    Ps(Arc<dyn ParamClient>),
    /// A ring member over loopback or TCP; the worker is agnostic.
    Collective(Box<dyn Collective>),
}

/// One algorithm's worker-side step protocol. Implementations own all the
/// algorithm-specific state the old monolithic loop kept in locals
/// (pending pulls, residual compressors, momentum/accumulator buffers,
/// the adopted global snapshot).
pub(crate) trait UpdateStrategy: Send {
    /// Short name for logs and tests.
    #[cfg_attr(not(test), allow(dead_code))]
    fn name(&self) -> &'static str;

    /// Phase 1, once per key from inside back-propagation
    /// ([`Sequential::backward_params_each`]): `param.grad` is final,
    /// the layers below have yet to run. Send it on its way — `param.value`
    /// still holds the weights the gradient was computed at.
    fn grad_ready(&mut self, key: usize, param: &mut Param, ctx: &StepCtx) -> Result<(), NetError>;

    /// Phase 2, after back-propagation: run what is left of the
    /// algorithm's synchronization (wait for the blocking pulls, take
    /// and re-fire the deferred pull, exchange with the neighbours).
    fn communicate(&mut self, ctx: &StepCtx) -> Result<(), NetError>;

    /// Phase 3: install the iteration's resulting weights into `model`,
    /// whose gradient tensors still hold what phase 1 left in them.
    fn adopt(&mut self, model: &mut Sequential, ctx: &StepCtx) -> Result<(), NetError>;

    /// The global-weight snapshot a worker should evaluate at epoch end,
    /// or `None` when the model itself holds the globals (ring mode).
    fn eval_base(&self) -> Option<&[Arc<[f32]>]>;

    /// Final global weights to report from worker 0 on the last epoch.
    /// `None` (the default) means the trainer snapshots the parameter
    /// server instead; server-less strategies export the model.
    fn final_weights(&self, _model: &mut Sequential) -> Option<Vec<Vec<f32>>> {
        None
    }

    /// Wait for any in-flight asynchronous replies *without* adopting
    /// them (they are cached for the next [`UpdateStrategy::adopt`]).
    /// Called at every epoch end before the worker reports, so the
    /// trainer's epoch-boundary byte counters are final — a reply still
    /// on the wire would otherwise race the sample and make the
    /// `push_bytes`/`pull_bytes` history columns non-deterministic.
    /// Values are unaffected: the reply holds the same version-`r+1`
    /// snapshot whenever the worker waits for it.
    fn settle(&mut self, _ctx: &StepCtx) -> Result<(), NetError> {
        Ok(())
    }

    /// Drain any outstanding asynchronous communication before the worker
    /// exits, so the server group is fully aggregated when it returns.
    fn finish(&mut self) -> Result<(), NetError> {
        Ok(())
    }

    /// Snapshot the strategy's private state for a worker checkpoint
    /// (DESIGN.md §14): error-feedback residuals, momentum velocities,
    /// local-step accumulators. Only valid at an epoch boundary, after
    /// [`UpdateStrategy::settle`]. The slot layout is private to each
    /// strategy; the default (stateless strategies) is empty.
    fn export_state(&self) -> Vec<Vec<f32>> {
        Vec::new()
    }

    /// Restore state captured by [`UpdateStrategy::export_state`] and
    /// read back from disk. Called once, before the first batch of a
    /// resumed run. `Err` means the state does not fit this strategy (a
    /// directory written by another algorithm or model); the strategy is
    /// then left untouched.
    fn import_state(&mut self, state: &[Vec<f32>]) -> Result<(), CheckpointError> {
        let _ = state;
        Ok(())
    }

    /// Re-establish the strategy's server attachment for a run resuming
    /// at aggregate round `round` (an epoch boundary): pull the globals
    /// at that version into `base`, reconstruct any deferred-pull
    /// bookkeeping, and — when `has_model` is false (no worker
    /// checkpoint) — seed `model` from the pulled globals. With a worker
    /// checkpoint the model keeps its restored (possibly locally-updated)
    /// weights, which is what bit-identical resume requires for the
    /// delayed and local-step strategies.
    fn resume(
        &mut self,
        model: &mut Sequential,
        round: u64,
        has_model: bool,
    ) -> Result<(), NetError> {
        let _ = (model, round, has_model);
        Ok(())
    }
}

/// One iteration's step of `strategy` on `model`, from the loss gradient
/// `dy`: back-propagate, handing each key to [`UpdateStrategy::grad_ready`]
/// as its layer finishes, then `communicate` and `adopt`. The walk hands
/// keys over ascending within a layer, layers last first, so a smaller
/// key opens a new layer: one [`Op::Backward`] span per layer, closed
/// before the strategy's spans for that layer's keys open. After a
/// failed hand-off the rest of BP runs unobserved and the step fails.
pub(crate) fn step(
    strategy: &mut dyn UpdateStrategy,
    model: &mut Sequential,
    dy: &Tensor,
    ctx: &StepCtx,
) -> Result<(), NetError> {
    let (mut t_bp, mut below, mut handed) = (ctx.now(), usize::MAX, Ok(()));
    model.backward_params_each(dy, |key, param| {
        if key < std::mem::replace(&mut below, key) {
            ctx.record(Op::Backward, ctx.round, t_bp);
        }
        if handed.is_ok() {
            handed = strategy.grad_ready(key, param, ctx);
        }
        t_bp = ctx.now();
    });
    handed?;
    strategy.communicate(ctx)?;
    strategy.adopt(model, ctx)
}

/// The parameter-server attachment shared by every PS-based strategy:
/// the connection (and through it the payload pool it shares with the
/// server), the adopted global snapshot, and the pulls in flight.
struct PsLink {
    client: Arc<dyn ParamClient>,
    /// Most recently adopted global weights (initially the shared init).
    /// `Arc` snapshots shared with the server and every same-version
    /// puller — adopting a pull is a pointer move.
    base: Vec<Arc<[f32]>>,
    /// The outstanding async pull of each key: fired behind that key's
    /// push on a blocking round, or all at once for a deferred round.
    inflight: Vec<Option<PendingPull>>,
}

impl PsLink {
    fn new(client: Arc<dyn ParamClient>, base: Vec<Arc<[f32]>>) -> Self {
        let inflight = base.iter().map(|_| None).collect();
        Self {
            client,
            base,
            inflight,
        }
    }

    /// Push `key`'s payload — one [`Op::Push`] span: where the worker
    /// blocks in the transport's write while BP waits — and, given a
    /// `pull` version, request that key's next globals right behind it.
    fn push(
        &mut self,
        key: usize,
        payload: Compressed,
        pull: Option<u64>,
        ctx: &StepCtx,
    ) -> Result<(), NetError> {
        let t = ctx.now();
        self.client.push(ctx.id, key, payload)?;
        ctx.record(Op::Push, ctx.round, t);
        if let Some(version) = pull {
            self.inflight[key] = Some(self.client.pull_async(key, version)?);
        }
        Ok(())
    }

    /// Fire one async pull per key at `version`; the transfers overlap
    /// the next iteration's computation.
    fn fire_pulls(&mut self, version: u64) -> Result<(), NetError> {
        for (key, slot) in self.inflight.iter_mut().enumerate() {
            *slot = Some(self.client.pull_async(key, version)?);
        }
        Ok(())
    }

    /// Is a round of pulls outstanding?
    fn pulls_in_flight(&self) -> bool {
        self.inflight.iter().any(Option::is_some)
    }

    /// Wait for the outstanding pull of every key, in key order.
    fn wait_pulls(&mut self) -> Result<Vec<Arc<[f32]>>, NetError> {
        let pulls = self.inflight.iter_mut();
        pulls
            .map(|p| p.take().expect("a pull in flight for every key").wait())
            .collect()
    }

    /// [`PsLink::wait_pulls`] into `base`, recorded as one
    /// [`Op::PullWait`] interval attributed to `record_round`.
    fn adopt_pulls(&mut self, ctx: &StepCtx, record_round: u64) -> Result<(), NetError> {
        let t = ctx.now();
        self.base = self.wait_pulls()?;
        ctx.record(Op::PullWait, record_round, t);
        Ok(())
    }

    /// Blocking pull of every key at `version` into `base`, outside the
    /// per-iteration span protocol (the resume path runs before the
    /// first batch, so there is no round to charge the wait to).
    fn pull_version(&mut self, version: u64) -> Result<(), NetError> {
        self.base = self.client.pull_all(self.base.len(), version)?;
        Ok(())
    }
}

/// `W ← from − lr·∇` per key, from the model's own gradient tensors, in
/// one pass: `from` is read where it is (never copied in first) and the
/// parameter ends up owning the result. With no `from`, the step starts
/// at the weights the model holds.
fn step_from_grads(model: &mut Sequential, from: Option<&[Arc<[f32]>]>, lr: f32) {
    let mut key = 0usize;
    model.visit_params(&mut |p| {
        match from {
            Some(from) => kernel::sgd_step(p.value.data_overwrite(), &from[key], p.grad.data(), lr),
            None => kernel::axpy(-lr, p.grad.data(), p.value.data_mut()),
        }
        key += 1;
    });
}

/// Does CD-SGD compress at round `r`? Warm-up rounds push raw; in the
/// formal phase, every k-th push (`count % k == 0`) is the raw k-step
/// correction, the rest are compressed (Algorithm 1).
fn cd_compresses(warmup: u64, k: u64, r: u64) -> bool {
    r >= warmup && !(r - warmup).is_multiple_of(k)
}

/// The single place that knows how gradients become payloads: optional
/// worker momentum, then an optional codec, bypassed (raw push) on the
/// rounds the correction schedule names. All worker-private push state —
/// velocities and the codec's error-feedback residuals — lives here, so
/// there is one checkpoint layout: velocity slots (iff momentum), then
/// residual slots (iff codec), one per key each.
#[derive(Default)]
struct PushStage {
    /// Worker momentum `m ← μm + g` (dist-EF-blockSGD, Zheng et al.):
    /// `(μ, per-key velocity)`. The codec then sees `m`, not `g`.
    momentum: Option<(f32, Vec<Vec<f32>>)>,
    /// `None` pushes raw f32 every round.
    codec: Option<Box<dyn GradientCompressor>>,
    /// CD-SGD's `(warmup, k)`: the codec is bypassed on the rounds
    /// [`cd_compresses`] rejects. `None` compresses every round.
    correction: Option<(u64, u64)>,
}

impl PushStage {
    /// This round's payload for `key`'s gradient `g`. Storage is drawn
    /// from the pool shared with the server, so steady-state rounds
    /// allocate nothing on the push path. The codec call is one
    /// [`Op::Compress`] span; a raw push is a copy into pooled storage,
    /// which is not quantization and is not timed.
    fn payload(&mut self, key: usize, g: &[f32], pool: &BufferPool, ctx: &StepCtx) -> Compressed {
        let g = match &mut self.momentum {
            Some((mu, velocity)) => {
                let v = &mut velocity[key];
                for (vi, gi) in v.iter_mut().zip(g) {
                    *vi = *mu * *vi + gi;
                }
                v.as_slice()
            }
            None => g,
        };
        let compress = self
            .correction
            .is_none_or(|(warmup, k)| cd_compresses(warmup, k, ctx.round));
        match &mut self.codec {
            Some(codec) if compress => {
                let t = ctx.now();
                let payload = codec.compress_into(key, g, pool);
                ctx.record(Op::Compress, ctx.round, t);
                payload
            }
            _ => NoCompression.compress_into(key, g, pool),
        }
    }

    fn export_state(&self, num_keys: usize) -> Vec<Vec<f32>> {
        let mut state = Vec::new();
        if let Some((_, velocity)) = &self.momentum {
            state.extend(velocity.iter().cloned());
        }
        if let Some(codec) = &self.codec {
            // The codec's sparse `(key, residual)` entries → one dense
            // slot per key; a key with no buffer yet stays empty.
            let at = state.len();
            state.resize(at + num_keys, Vec::new());
            for (k, v) in codec.export_state() {
                if k < num_keys {
                    state[at + k] = v;
                }
            }
        }
        state
    }

    /// Restore [`PushStage::export_state`] output read back from disk,
    /// after checking it against this stage's layout and the model's
    /// per-key lengths (`base`): a checkpoint directory written by a
    /// different algorithm or model must be refused, not reinterpreted.
    fn import_state(
        &mut self,
        state: &[Vec<f32>],
        base: &[Arc<[f32]>],
    ) -> Result<(), CheckpointError> {
        let n = base.len();
        let groups = usize::from(self.momentum.is_some()) + usize::from(self.codec.is_some());
        let velocities = if self.momentum.is_some() { n } else { 0 };
        // A residual slot may be empty (the codec has no buffer for that
        // key yet); a velocity slot never is.
        check_slots(state, base, groups, |slot| slot >= velocities)?;
        let (velocity, residuals) = state.split_at(velocities);
        if let Some((_, v)) = &mut self.momentum {
            *v = velocity.to_vec();
        }
        if let Some(codec) = &mut self.codec {
            let filled = residuals.iter().cloned().enumerate();
            codec.import_state(&filled.filter(|(_, v)| !v.is_empty()).collect::<Vec<_>>());
        }
        Ok(())
    }
}

/// Does checkpointed `state` hold exactly `groups` runs of one slot per
/// key of `base`, each as long as its key — or empty, for the slot
/// indices `may_be_empty` allows? A checkpoint directory written by a
/// different algorithm or model must be refused, not reinterpreted.
fn check_slots(
    state: &[Vec<f32>],
    base: &[Arc<[f32]>],
    groups: usize,
    may_be_empty: impl Fn(usize) -> bool,
) -> Result<(), CheckpointError> {
    let (n, want) = (base.len(), base.len() * groups);
    if state.len() != want {
        return Err(CheckpointError::Corrupt(format!(
            "strategy state has {} slots, but this algorithm keeps {want} for {n} keys \
             (was the checkpoint written by a different --algo?)",
            state.len()
        )));
    }
    let fits = |(i, s): (usize, &Vec<f32>)| {
        s.len() == base[i % n].len() || (s.is_empty() && may_be_empty(i))
    };
    if !state.iter().enumerate().all(fits) {
        return Err(CheckpointError::Corrupt(
            "strategy state does not match the model's per-key lengths".into(),
        ));
    }
    Ok(())
}

/// The delay part of a PS strategy (the OD-SGD local update): after
/// `warmup` blocking rounds, the pull of round r's globals is deferred to
/// round r+1 (overlapping this round's computation) and the model runs
/// one step ahead on local weights `W^loc_{r+1} = W_r − lr_loc · grad_r`
/// (eq. 11).
#[derive(Default)]
struct Delay {
    local_lr: f32,
    warmup: u64,
    /// DC-ASGD delay-compensation strength λ (0 disables).
    dc_lambda: f32,
    /// Replies already received by an epoch-end [`PsStrategy::settle`],
    /// held for the next round's adoption.
    settled: Option<Vec<Arc<[f32]>>>,
    /// The compensated gradient of the key in hand; reused for every key.
    dc_grad: Vec<f32>,
}

/// Every parameter-server algorithm of the S-SGD family: a PS algorithm
/// is a row of `build_strategy`'s (push stage × delay part) table, not a
/// struct (DESIGN.md §11). Algorithm 1's warm-up *is* blocking S-SGD, so
/// a strategy with no delay part simply never leaves the warm-up path.
struct PsStrategy {
    name: &'static str,
    link: PsLink,
    stage: PushStage,
    delay: Option<Delay>,
}

impl UpdateStrategy for PsStrategy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn grad_ready(&mut self, key: usize, param: &mut Param, ctx: &StepCtx) -> Result<(), NetError> {
        let delay = self.delay.as_mut().filter(|d| ctx.round >= d.warmup);
        // A blocking round (warm-up; for a strategy with no delay part,
        // every round) pulls this key's next globals right behind its
        // push; a delayed round leaves Algorithm 1's pull to
        // `communicate`.
        let pull = delay.is_none().then_some(ctx.round + 1);
        // DC-ASGD-style delay compensation (extension, λ > 0 only): the
        // gradient was computed at W^loc but will be applied to a
        // one-step-newer global weight; correct it with the diagonal
        // Hessian approximation g̃ = g + λ·g⊙g⊙(W_base − W_loc). Without
        // DC the payload is built straight from the gradient tensor.
        let g = match delay.filter(|d| d.dc_lambda > 0.0) {
            Some(d) => {
                let w = self.link.base[key].iter().zip(param.value.data());
                d.dc_grad.clear();
                d.dc_grad.extend(
                    (param.grad.data().iter().zip(w))
                        .map(|(&gi, (&bi, &wi))| gi + d.dc_lambda * gi * gi * (bi - wi)),
                );
                d.dc_grad.as_slice()
            }
            None => param.grad.data(),
        };
        let payload = self.stage.payload(key, g, self.link.client.pool(), ctx);
        self.link.push(key, payload, pull, ctx)
    }

    fn communicate(&mut self, ctx: &StepCtx) -> Result<(), NetError> {
        let round = ctx.round;
        let Some(d) = self.delay.as_mut().filter(|d| round >= d.warmup) else {
            // Plain blocking S-SGD synchronization.
            return self.link.adopt_pulls(ctx, round);
        };
        // Deferred pull: the local update for this iteration needs
        // W_round (the result of the previous round), which the
        // warm-up's final pull or the previous formal iteration left
        // outstanding.
        if round > d.warmup {
            match d.settled.take() {
                // An epoch-end settle already received the replies.
                Some(base) => self.link.base = base,
                None => self.link.adopt_pulls(ctx, round)?,
            }
        }
        // Request next round's base (version round+1) now; the
        // transfer overlaps the next iteration's computation.
        self.link.fire_pulls(round + 1)
    }

    fn adopt(&mut self, model: &mut Sequential, ctx: &StepCtx) -> Result<(), NetError> {
        if let Some(d) = self.delay.as_ref().filter(|d| ctx.round >= d.warmup) {
            // W^loc_{r+1} = W_r − lr_loc · grad_r (eq. 11).
            let t = ctx.now();
            step_from_grads(model, Some(&self.link.base), d.local_lr);
            ctx.record(Op::LocalUpdate, ctx.round, t);
        } else {
            // The model reads the pulled snapshots where they are.
            model.adopt_params(&self.link.base);
        }
        Ok(())
    }

    fn eval_base(&self) -> Option<&[Arc<[f32]>]> {
        Some(&self.link.base)
    }

    fn settle(&mut self, ctx: &StepCtx) -> Result<(), NetError> {
        // Receive (but do not adopt) the deferred pull fired by the
        // epoch's last iteration. The reply only comes back once every
        // worker's push for that round is applied, so after all workers
        // settle, every push/pull of the epoch has been counted on both
        // the server and the client side. The wait is real pull-wait
        // time, charged to the round that would have adopted the reply.
        if let Some(d) = self.delay.as_mut().filter(|_| self.link.pulls_in_flight()) {
            let t = ctx.now();
            d.settled = Some(self.link.wait_pulls()?);
            ctx.record(Op::PullWait, ctx.round, t);
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), NetError> {
        // Drain the final round's outstanding pull (a no-op after the
        // last epoch's settle). The reply only arrives once every
        // worker's last push is applied, so returning from here
        // guarantees the server group holds the fully-aggregated final
        // weights.
        if self.link.pulls_in_flight() {
            self.link.wait_pulls()?;
        }
        Ok(())
    }

    fn export_state(&self) -> Vec<Vec<f32>> {
        self.stage.export_state(self.link.base.len())
    }

    fn import_state(&mut self, state: &[Vec<f32>]) -> Result<(), CheckpointError> {
        self.stage.import_state(state, &self.link.base)
    }

    fn resume(
        &mut self,
        model: &mut Sequential,
        round: u64,
        has_model: bool,
    ) -> Result<(), NetError> {
        // The state a checkpoint-boundary kill interrupted: in the formal
        // phase past warm-up, the epoch-end settle had already received
        // W_round (the deferred pull fired by round-1's communicate), so
        // a bit-identical resume re-materializes it as `settled`; the
        // model holds the one-step-ahead local weights W^loc_round, which
        // only a worker checkpoint can supply (`has_model`). At or before
        // the warm-up boundary (for a strategy with no delay part,
        // always) the protocol is blocking S-SGD: `base` is the pulled
        // globals, the model equals them, and nothing is deferred.
        self.link.pull_version(round)?;
        if !has_model {
            // Without a worker checkpoint the local replica restarts from
            // the globals — the blocking-exact state; in the formal phase
            // an approximation that costs one local-update term.
            model.adopt_params(&self.link.base);
        }
        if let Some(d) = self.delay.as_mut().filter(|d| round > d.warmup) {
            d.settled = Some(self.link.base.clone());
        }
        Ok(())
    }
}

/// Local SGD: H purely local steps, then the accumulated gradients are
/// averaged through the server and every worker adopts the aggregate.
struct LocalSgdStrategy {
    link: PsLink,
    local_lr: f32,
    sync_period: u64,
    /// Gradients accumulated since the last synchronization.
    acc: Vec<Vec<f32>>,
    /// Completed synchronizations (the server round counter).
    syncs: u64,
}

impl LocalSgdStrategy {
    /// Does the step at (pre-increment) round `r` end a sync period?
    fn syncs_now(&self, r: u64) -> bool {
        (r + 1).is_multiple_of(self.sync_period)
    }
}

impl UpdateStrategy for LocalSgdStrategy {
    fn name(&self) -> &'static str {
        "localsgd"
    }

    fn grad_ready(&mut self, key: usize, param: &mut Param, ctx: &StepCtx) -> Result<(), NetError> {
        let acc = &mut self.acc[key];
        for (ai, gi) in acc.iter_mut().zip(param.grad.data()) {
            *ai += gi;
        }
        if !self.syncs_now(ctx.round) {
            return Ok(());
        }
        let payload = NoCompression.compress_into(key, &self.acc[key], self.link.client.pool());
        self.link.push(key, payload, Some(self.syncs + 1), ctx)
    }

    fn communicate(&mut self, ctx: &StepCtx) -> Result<(), NetError> {
        if self.syncs_now(ctx.round) {
            self.syncs += 1;
            self.link.adopt_pulls(ctx, ctx.round + 1)?;
        }
        Ok(())
    }

    fn adopt(&mut self, model: &mut Sequential, ctx: &StepCtx) -> Result<(), NetError> {
        if self.syncs_now(ctx.round) {
            // Adopt the averaged aggregate; it replaces every local step,
            // so the local update for this round is skipped (the old loop
            // applied then immediately overwrote it — same bits).
            model.adopt_params(&self.link.base);
            for av in self.acc.iter_mut() {
                av.fill(0.0);
            }
        } else {
            // Purely local step on the worker's own model.
            step_from_grads(model, None, self.local_lr);
        }
        Ok(())
    }

    fn eval_base(&self) -> Option<&[Arc<[f32]>]> {
        Some(&self.link.base)
    }

    fn export_state(&self) -> Vec<Vec<f32>> {
        // The accumulator carries gradient mass across the epoch boundary
        // whenever `iters_per_epoch` is not a multiple of `sync_period`.
        self.acc.clone()
    }

    fn import_state(&mut self, state: &[Vec<f32>]) -> Result<(), CheckpointError> {
        check_slots(state, &self.link.base, 1, |_| false)?;
        self.acc = state.to_vec();
        Ok(())
    }

    fn resume(
        &mut self,
        model: &mut Sequential,
        round: u64,
        has_model: bool,
    ) -> Result<(), NetError> {
        // The server round counter advances once per completed sync
        // period, not once per iteration.
        self.syncs = round / self.sync_period;
        self.link.pull_version(self.syncs)?;
        if !has_model {
            // Local steps since the last sync are only in the worker
            // checkpoint; without one the replica restarts from the last
            // synced aggregate.
            model.adopt_params(&self.link.base);
        }
        Ok(())
    }
}

/// AR-SGD: no parameter server; every round the workers mean-reduce raw
/// gradients through the collective and apply the update locally. The
/// model *is* the global state. Which substrate carries the reduction
/// (loopback or TCP) is invisible here: the ring honors the same pinned
/// reduction order on both, so the bits are identical.
struct ArSgdStrategy {
    ring: Box<dyn Collective>,
}

impl UpdateStrategy for ArSgdStrategy {
    fn name(&self) -> &'static str {
        "arsgd"
    }

    fn grad_ready(
        &mut self,
        _key: usize,
        param: &mut Param,
        ctx: &StepCtx,
    ) -> Result<(), NetError> {
        // Mean-reduced where BP left it: the gradient tensor is the
        // reduce buffer, and the ring works on the last layers while BP
        // of the first still runs.
        let t = ctx.now();
        self.ring.allreduce_mean(param.grad.data_mut())?;
        ctx.record(Op::PullWait, ctx.round, t);
        Ok(())
    }

    fn communicate(&mut self, _ctx: &StepCtx) -> Result<(), NetError> {
        Ok(())
    }

    fn adopt(&mut self, model: &mut Sequential, ctx: &StepCtx) -> Result<(), NetError> {
        // Eq. 1 applied locally; the lr schedule is applied worker-side
        // because there is no server to own it.
        let lr = current_lr(ctx.cfg, ctx.round, ctx.iters_per_epoch);
        step_from_grads(model, None, lr);
        Ok(())
    }

    fn eval_base(&self) -> Option<&[Arc<[f32]>]> {
        None
    }

    fn final_weights(&self, model: &mut Sequential) -> Option<Vec<Vec<f32>>> {
        Some(model.export_params())
    }
}

/// Decentralized compressed training after Tang et al. ("Communication
/// Compression for Decentralized Training", DCD-PSGD, simplified): no
/// server and no global reduction at all. Each worker keeps *replicas*
/// of its two ring neighbors' models (and of its own, as the neighbors
/// see it), advanced only by the codec-compressed model differences
/// everyone exchanges — so all three replicas of any worker agree
/// bit-for-bit across the ring. One iteration:
///
/// 1. local step `x ← x − lr·g` (per key, as BP hands each over),
/// 2. compress `x − x̂_self`, advance `x̂_self` by the *decoded* diff
///    (exactly what the neighbors will apply), send the payload both
///    ways around the ring,
/// 3. decode the neighbors' diffs into `x̂_prev` / `x̂_next` and adopt
///    the gossip average `x ← (x̂_prev + x̂_self + x̂_next) / 3`.
///
/// Convergence is approximate (the compression error decays through the
/// gossip averaging rather than cancelling exactly), which is why
/// `tests/topology_equivalence.rs` pins a tolerance against the PS
/// baseline instead of bits.
struct DecentralizedStrategy {
    ring: Box<dyn Collective>,
    compressor: Box<dyn GradientCompressor>,
    pool: BufferPool,
    /// Replica of this worker's model as the neighbors see it.
    hat_self: Vec<Vec<f32>>,
    /// Replicas of the ring-previous / ring-next neighbors' models.
    hat_prev: Vec<Vec<f32>>,
    hat_next: Vec<Vec<f32>>,
    /// Serialized outbound diffs (u32-length-prefixed per key) and the
    /// inbound payloads from both neighbors. Reused every round.
    payload: Vec<u8>,
    from_prev: Vec<u8>,
    from_next: Vec<u8>,
    /// The model's weights after the local step; then the gossip
    /// average `adopt` installs. Reused every round.
    params: Vec<Vec<f32>>,
    diff: Vec<f32>,
}

impl DecentralizedStrategy {
    fn new(ring: Box<dyn Collective>, codec: &crate::config::Codec, init: &[Arc<[f32]>]) -> Self {
        let hat: Vec<Vec<f32>> = init.iter().map(|p| p.to_vec()).collect();
        Self {
            ring,
            compressor: codec.build(),
            pool: BufferPool::new(),
            hat_self: hat.clone(),
            hat_prev: hat.clone(),
            hat_next: hat.clone(),
            payload: Vec::new(),
            from_prev: Vec::new(),
            from_next: Vec::new(),
            params: hat,
            diff: Vec::new(),
        }
    }

    /// Decode one neighbor's length-prefixed diff payload into its
    /// replica, key by key.
    fn apply_diffs(buf: &[u8], pool: &BufferPool, hats: &mut [Vec<f32>]) -> Result<(), NetError> {
        let mut rest = buf;
        let mut key = 0usize;
        while !rest.is_empty() {
            if rest.len() < 4 || key >= hats.len() {
                return Err(NetError::Decode(
                    "malformed decentralized diff payload".into(),
                ));
            }
            let n = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
            if rest.len() < 4 + n {
                return Err(NetError::Decode(
                    "truncated decentralized diff payload".into(),
                ));
            }
            let (chunk, tail) = rest[4..].split_at(n);
            let c = decode_compressed(chunk)?;
            decompress_add(&c, &mut hats[key]);
            c.recycle(pool);
            key += 1;
            rest = tail;
        }
        if key != hats.len() {
            return Err(NetError::Decode(format!(
                "decentralized diff payload held {key} keys, expected {}",
                hats.len()
            )));
        }
        Ok(())
    }
}

impl UpdateStrategy for DecentralizedStrategy {
    fn name(&self) -> &'static str {
        "decentralized"
    }

    fn grad_ready(&mut self, key: usize, param: &mut Param, ctx: &StepCtx) -> Result<(), NetError> {
        // Local step first (the lr schedule is worker-side: no server).
        let lr = current_lr(ctx.cfg, ctx.round, ctx.iters_per_epoch);
        let t = ctx.now();
        let x = &mut self.params[key];
        x.clear();
        x.extend((param.value.data().iter().zip(param.grad.data())).map(|(&v, &g)| v - lr * g));
        ctx.record(Op::LocalUpdate, ctx.round, t);
        Ok(())
    }

    fn communicate(&mut self, ctx: &StepCtx) -> Result<(), NetError> {
        // Compress the model movement since the last exchange and
        // advance our own replica by exactly the decoded diff — the
        // same value both neighbors will apply to their copy of us.
        // One payload, keys in key order: the wire format is positional.
        self.payload.clear();
        for (key, p) in self.params.iter().enumerate() {
            self.diff.clear();
            self.diff
                .extend(p.iter().zip(&self.hat_self[key]).map(|(&x, &h)| x - h));
            let c = self.compressor.compress_into(key, &self.diff, &self.pool);
            decompress_add(&c, &mut self.hat_self[key]);
            let at = self.payload.len();
            self.payload.extend_from_slice(&[0u8; 4]);
            encode_compressed_into(&c, &mut self.payload);
            let n = (self.payload.len() - at - 4) as u32;
            self.payload[at..at + 4].copy_from_slice(&n.to_le_bytes());
            c.recycle(&self.pool);
        }
        let t = ctx.now();
        self.ring
            .neighbor_exchange(&self.payload, &mut self.from_prev, &mut self.from_next)?;
        ctx.record(Op::PullWait, ctx.round, t);
        Ok(())
    }

    fn adopt(&mut self, model: &mut Sequential, ctx: &StepCtx) -> Result<(), NetError> {
        Self::apply_diffs(&self.from_prev, &self.pool, &mut self.hat_prev)?;
        Self::apply_diffs(&self.from_next, &self.pool, &mut self.hat_next)?;
        // Gossip average with uniform weights over the ring neighborhood.
        let t = ctx.now();
        for (p, (hs, (hp, hn))) in self.params.iter_mut().zip(
            self.hat_self
                .iter()
                .zip(self.hat_prev.iter().zip(&self.hat_next)),
        ) {
            for (x, (&s, (&a, &b))) in p.iter_mut().zip(hs.iter().zip(hp.iter().zip(hn))) {
                *x = (a + s + b) / 3.0;
            }
        }
        model.import_params(&self.params);
        ctx.record(Op::LocalUpdate, ctx.round, t);
        Ok(())
    }

    fn eval_base(&self) -> Option<&[Arc<[f32]>]> {
        None
    }

    fn final_weights(&self, model: &mut Sequential) -> Option<Vec<Vec<f32>>> {
        Some(model.export_params())
    }
}

/// Resolve the algorithm to its strategy — the single construction-time
/// dispatch on [`Algorithm`] and on the kind of [`Link`]. A collective
/// carries the server-less family (the topology picks between the
/// synchronous all-reduce and the decentralized gossip leaf), a
/// parameter-server client every other algorithm; the wrong pairing is a
/// [`ConfigError::LinkMismatch`]. `init` is the shared initial weights
/// every replica starts from.
pub(crate) fn build_strategy(
    algo: &Algorithm,
    topology: &Topology,
    link: Link,
    init: Vec<Arc<[f32]>>,
) -> Result<Box<dyn UpdateStrategy>, ConfigError> {
    let mismatch = |link: &'static str| ConfigError::LinkMismatch {
        algo: algo.name(),
        link,
    };
    let link = match link {
        Link::Collective(_) if !algo.uses_ring() => return Err(mismatch("collective")),
        Link::Collective(ring) => {
            return Ok(match topology {
                Topology::Decentralized { codec } => {
                    Box::new(DecentralizedStrategy::new(ring, codec, &init))
                }
                _ => Box::new(ArSgdStrategy { ring }),
            })
        }
        Link::Ps(client) => PsLink::new(client, init),
    };
    let codec_stage = |codec: Box<dyn GradientCompressor>| PushStage {
        codec: Some(codec),
        ..PushStage::default()
    };
    let delay = |local_lr: f32, warmup: u64, dc_lambda: f32| Delay {
        local_lr,
        warmup,
        dc_lambda,
        ..Delay::default()
    };
    // One row per algorithm: (name, how gradients become payloads,
    // whether the pull is delayed).
    let (name, stage, delay) = match algo {
        Algorithm::ArSgd => return Err(mismatch("parameter-server")),
        Algorithm::LocalSgd {
            local_lr,
            sync_period,
        } => {
            return Ok(Box::new(LocalSgdStrategy {
                acc: link.base.iter().map(|b| vec![0.0f32; b.len()]).collect(),
                link,
                local_lr: *local_lr,
                sync_period: *sync_period as u64,
                syncs: 0,
            }))
        }
        Algorithm::SSgd => ("ssgd", PushStage::default(), None),
        Algorithm::BitSgd { threshold } => (
            "bitsgd",
            codec_stage(Box::new(TwoBitQuantizer::new(*threshold))),
            None,
        ),
        Algorithm::EcqSgd {
            threshold,
            alpha,
            beta,
        } => {
            let codec = TwoBitQuantizer::new(*threshold).with_feedback(*alpha, *beta);
            ("ecqsgd", codec_stage(Box::new(codec)), None)
        }
        Algorithm::EfSgd { momentum } => {
            let velocity = link.base.iter().map(|b| vec![0.0f32; b.len()]).collect();
            let stage = PushStage {
                momentum: Some((*momentum, velocity)),
                ..codec_stage(Box::new(OneBitQuantizer::new()))
            };
            ("efsgd", stage, None)
        }
        Algorithm::OdSgd { local_lr } => (
            "odsgd",
            PushStage::default(),
            Some(delay(*local_lr, 0, 0.0)),
        ),
        Algorithm::CdSgd {
            local_lr,
            codec,
            k,
            warmup,
            dc_lambda,
        } => {
            let stage = PushStage {
                correction: Some((*warmup as u64, *k as u64)),
                ..codec_stage(codec.build())
            };
            let delay = delay(*local_lr, *warmup as u64, *dc_lambda);
            ("cdsgd", stage, Some(delay))
        }
    };
    Ok(Box::new(PsStrategy {
        name,
        link,
        stage,
        delay,
    }))
}

/// The learning rate in effect at `round`, honoring the epoch-indexed
/// decay schedule (AR-SGD applies the schedule worker-side; the PS
/// algorithms apply it on the server).
fn current_lr(cfg: &TrainConfig, round: u64, iters_per_epoch: usize) -> f32 {
    let epoch = (round / iters_per_epoch.max(1) as u64) as usize;
    let mut lr = cfg.global_lr;
    for &(at, new_lr) in &cfg.lr_schedule {
        if epoch >= at {
            lr = new_lr;
        }
    }
    lr
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsgd_ps::{AllReduceBackend, ParamServer, PsBackend, ServerConfig, WireMode};

    #[test]
    fn cd_compression_schedule_matches_algorithm1() {
        // Warm-up rounds push raw; then count % k == 0 is the correction.
        // rounds: 0      1      2(c0)  3(c1) 4(c2) 5(c3=0) 6 7 8(c6=0) 9
        let schedule: Vec<bool> = (0..10).map(|r| cd_compresses(2, 3, r)).collect();
        assert_eq!(
            schedule,
            vec![false, false, false, true, true, false, true, true, false, true]
        );
    }

    #[test]
    fn bit_always_raw_never_for_cd_k1() {
        // k = 1 means every formal push is the raw correction.
        assert!((0..8).all(|r| !cd_compresses(0, 1, r)));
    }

    /// A link to a one-worker server holding keys of 4 and 2 values.
    fn with_client(f: impl FnOnce(Link)) {
        let ps = ParamServer::start(vec![vec![0.0; 4], vec![0.0; 2]], ServerConfig::new(1, 0.1));
        f(Link::Ps(Arc::new(ps.client())));
        ps.shutdown();
    }

    /// A one-member loopback ring as a worker link.
    fn solo_ring() -> Link {
        let backend = AllReduceBackend::ring(1, WireMode::Loopback).unwrap();
        let mut group = backend.take_collectives(1).unwrap();
        Link::Collective(group.members.remove(0))
    }

    #[test]
    fn build_resolves_every_variant() {
        let init: Vec<Arc<[f32]>> = vec![Arc::from(vec![0.0f32; 4])];
        for (algo, name) in [
            (Algorithm::SSgd, "ssgd"),
            (Algorithm::OdSgd { local_lr: 0.1 }, "odsgd"),
            (Algorithm::BitSgd { threshold: 0.5 }, "bitsgd"),
            (Algorithm::cd_sgd(0.1, 0.5, 2, 3), "cdsgd"),
            (
                Algorithm::LocalSgd {
                    local_lr: 0.1,
                    sync_period: 2,
                },
                "localsgd",
            ),
            (Algorithm::ef_sgd(0.9), "efsgd"),
            (Algorithm::ecq_sgd(0.5, 1.0, 1.0), "ecqsgd"),
        ] {
            with_client(|link| {
                let s = build_strategy(&algo, &Topology::Ps, link, init.clone()).unwrap();
                assert_eq!(s.name(), name);
                assert!(s.eval_base().is_some(), "{name} adopts a server base");
            });
        }
    }

    /// One round's hand-off of `algo` over keys of 4 and 2 values, last
    /// key first as BP would, then the state a worker checkpoint would
    /// carry.
    fn state_after_one_push(algo: &Algorithm) -> (Box<dyn UpdateStrategy>, Vec<Vec<f32>>) {
        let init: Vec<Arc<[f32]>> = vec![Arc::from(vec![0.0f32; 4]), Arc::from(vec![0.0f32; 2])];
        let cfg = TrainConfig::new(algo.clone(), 1);
        let ctx = StepCtx {
            id: 0,
            round: 0,
            cfg: &cfg,
            iters_per_epoch: 1,
        };
        let mut built = None;
        with_client(|link| {
            let mut s = build_strategy(algo, &Topology::Ps, link, init).unwrap();
            for (key, (len, g)) in [(4, 0.3f32), (2, -0.2)].into_iter().enumerate().rev() {
                let mut param = Param::new(Tensor::zeros(&[len]));
                param.grad.data_mut().fill(g);
                s.grad_ready(key, &mut param, &ctx).unwrap();
            }
            built = Some(s);
        });
        let s = built.unwrap();
        let state = s.export_state();
        (s, state)
    }

    #[test]
    fn state_from_another_algorithm_is_refused_not_reinterpreted() {
        let (mut bit, bit_state) = state_after_one_push(&Algorithm::BitSgd { threshold: 0.5 });
        let (mut ef, ef_state) = state_after_one_push(&Algorithm::ef_sgd(0.9));
        let (mut ssgd, ssgd_state) = state_after_one_push(&Algorithm::SSgd);
        // The pinned layouts: residuals; velocities then residuals; none.
        assert_eq!(bit_state, vec![vec![0.3; 4], vec![-0.2; 2]]);
        assert_eq!(ef_state.len(), 4);
        assert_eq!(ef_state[..2], [vec![0.3; 4], vec![-0.2; 2]]);
        assert!(ssgd_state.is_empty());

        // Both cross-algorithm directions are typed errors (the first
        // used to panic, the second loaded velocities as residuals)...
        assert_refused(ef.as_mut(), &bit_state);
        assert_refused(bit.as_mut(), &ef_state);
        assert_refused(ssgd.as_mut(), &bit_state);
        assert_refused(bit.as_mut(), &ssgd_state);
        // ...as is the right slot count for a different model shape.
        let (mut ecq, _) = state_after_one_push(&Algorithm::ecq_sgd(0.5, 0.9, 0.9));
        assert!(ecq.import_state(&[vec![0.1; 4], vec![0.1; 3]]).is_err());

        // The matching layout round-trips.
        ef.import_state(&ef_state).unwrap();
        assert_eq!(ef.export_state(), ef_state);
        ecq.import_state(&bit_state).unwrap();
        assert_eq!(ecq.export_state(), bit_state);
    }

    /// Local SGD after one purely local step: its accumulator holds
    /// that step's gradients.
    fn local_sgd_after_one_step() -> Box<dyn UpdateStrategy> {
        let algo = Algorithm::LocalSgd {
            local_lr: 0.1,
            sync_period: 2,
        };
        let (s, state) = state_after_one_push(&algo);
        assert_eq!(state, vec![vec![0.3; 4], vec![-0.2; 2]]);
        s
    }

    fn assert_refused(s: &mut dyn UpdateStrategy, foreign: &[Vec<f32>]) {
        let before = s.export_state();
        let err = s.import_state(foreign).expect_err("foreign layout");
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        assert_eq!(s.export_state(), before, "a refused import changes nothing");
    }

    #[test]
    fn local_sgd_refuses_state_with_the_wrong_key_count() {
        // Another model's checkpoint (one key too many, one too few) or
        // a stateless algorithm's (none): the accumulator is indexed by
        // key mid-BP, so a short one would panic there.
        let mut s = local_sgd_after_one_step();
        assert_refused(s.as_mut(), &[vec![0.1; 4], vec![0.1; 2], vec![0.1; 2]]);
        assert_refused(s.as_mut(), &[vec![0.1; 4]]);
        assert_refused(s.as_mut(), &[]);
        // The matching layout round-trips.
        let state = vec![vec![0.5; 4], vec![0.25; 2]];
        s.import_state(&state).unwrap();
        assert_eq!(s.export_state(), state);
    }

    #[test]
    fn local_sgd_refuses_state_with_the_wrong_length() {
        // The right slot count for a different model shape used to be
        // zip-truncated into the accumulator; an empty slot is no better.
        let mut s = local_sgd_after_one_step();
        assert_refused(s.as_mut(), &[vec![0.1; 4], vec![0.1; 3]]);
        assert_refused(s.as_mut(), &[vec![0.1; 4], vec![]]);
    }

    #[test]
    fn collective_link_resolves_by_topology() {
        let init = || vec![Arc::from(vec![0.0f32; 4])];
        let s = build_strategy(&Algorithm::ArSgd, &Topology::Ps, solo_ring(), init()).unwrap();
        assert_eq!(s.name(), "arsgd");
        assert!(s.eval_base().is_none(), "ring mode evaluates the model");
        let gossip = Topology::Decentralized {
            codec: crate::config::Codec::TwoBit { threshold: 0.5 },
        };
        let s = build_strategy(&Algorithm::ArSgd, &gossip, solo_ring(), init()).unwrap();
        assert_eq!(s.name(), "decentralized");
        assert!(s.eval_base().is_none(), "gossip mode evaluates the model");
    }

    #[test]
    fn mismatched_link_is_a_typed_error() {
        let init = || vec![Arc::from(vec![0.0f32; 4])];
        let ps_algo = Algorithm::BitSgd { threshold: 0.5 };
        assert_eq!(
            build_strategy(&ps_algo, &Topology::Ps, solo_ring(), init()).err(),
            Some(ConfigError::LinkMismatch {
                algo: ps_algo.name(),
                link: "collective",
            })
        );
        with_client(|link| {
            assert_eq!(
                build_strategy(&Algorithm::ArSgd, &Topology::Ps, link, init()).err(),
                Some(ConfigError::LinkMismatch {
                    algo: Algorithm::ArSgd.name(),
                    link: "parameter-server",
                })
            );
        });
    }

    #[test]
    fn current_lr_follows_schedule() {
        let cfg = TrainConfig::new(Algorithm::ArSgd, 1)
            .with_lr(0.4)
            .with_lr_decay(1, 0.04)
            .with_lr_decay(3, 0.004);
        // 5 iters/epoch: rounds 0..5 epoch 0, 5..10 epoch 1, 15.. epoch 3.
        assert_eq!(current_lr(&cfg, 0, 5), 0.4);
        assert_eq!(current_lr(&cfg, 4, 5), 0.4);
        assert_eq!(current_lr(&cfg, 5, 5), 0.04);
        assert_eq!(current_lr(&cfg, 14, 5), 0.04);
        assert_eq!(current_lr(&cfg, 15, 5), 0.004);
    }
}
