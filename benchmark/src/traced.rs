//! The traced run: a benchmark-owned step loop, one thread per worker,
//! built from the same model, data, batch, deployment and codec as the
//! workload, with a span around every public call into a layer — plus
//! the isolated probes and one untraced `Trainer` run to tie the loop
//! back to the system's own loop.
//!
//! Spans are recorded from here, not inside the program. Epochs of the
//! loop alternate between recording on and off in one process, so the
//! difference between them is the tracing overhead and nothing else.

use crate::probe::{self, Budget};
use crate::span::{Recorder, Span, StepTable, STEP};
use crate::stats::{median, tail};
use crate::timed::{check_run, train_once, Metric, Ops, Outcome};
use crate::workload::{
    Algo, Backend, Link, Seat, Size, Workload, BATCH, CD_WARMUP, K, LOCAL_LR, WORKERS,
};
use cdsgd_compress::{BufferPool, Compressed, GradientCompressor, TwoBitQuantizer};
use cdsgd_data::Dataset;
use cdsgd_nn::{Layer, Mode, Sequential, SoftmaxCrossEntropy};
use cdsgd_ps::{Collective, NetError, ParamClient, PendingPull};
use cdsgd_simtime::cost::{CostInputs, CostModel};
use cdsgd_tensor::SmallRng64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Spans that are communication a step waits for.
const EXPOSED_COMM: [&str; 3] = ["ps.push", "ps.pull_wait", "ps.allreduce"];
/// Spans that are the worker's own computation (the paper's τ).
const COMPUTE: [&str; 7] = [
    "data.batch",
    "nn.forward",
    "nn.backward",
    "nn.export_grads",
    "nn.import_params",
    "core.stage",
    "core.local_update",
];

/// A PS worker's side of the protocol: what `core::strategy` keeps for
/// S-SGD, BIT-SGD and the delayed CD-SGD.
struct PsSide {
    client: Box<dyn ParamClient>,
    pool: BufferPool,
    codec: Option<TwoBitQuantizer>,
    /// Most recently adopted global weights.
    base: Vec<Arc<[f32]>>,
    /// Async pulls fired last round for this round's base.
    pending: Option<Vec<PendingPull>>,
    /// Replies already received at an epoch end, adopted next round.
    settled: Option<Vec<Arc<[f32]>>>,
}

enum Side {
    Ps(PsSide),
    Ring {
        ring: Box<dyn Collective>,
        mean: Vec<Vec<f32>>,
    },
}

struct Worker {
    id: usize,
    model: Sequential,
    shard: Dataset,
    side: Side,
    rec: Recorder,
    grads: Vec<Vec<f32>>,
    rng: SmallRng64,
}

fn wait_all(pending: Vec<PendingPull>) -> Result<Vec<Arc<[f32]>>, NetError> {
    pending.into_iter().map(|p| p.wait()).collect()
}

impl Worker {
    /// One epoch of closed-loop steps; returns the summed batch loss.
    fn epoch(&mut self, w: &Workload, size: Size, first_round: u64) -> Result<f64, NetError> {
        let loss_fn = SoftmaxCrossEntropy;
        let mut loss_sum = 0.0f64;
        // The epoch's shuffle is part of its first step, as it is part
        // of the trainer's epoch time: step 0's span opens before it.
        self.rec.set_step(first_round as usize);
        let mut first_root = Some(self.rec.enter(STEP));
        let s = self.rec.enter("data.shuffle");
        let mut shard = self.shard.clone();
        shard.shuffle(&mut self.rng);
        self.rec.exit(s);
        let mut batches = shard.batches(BATCH);
        for i in 0..size.steps_per_epoch {
            let round = first_round + i as u64;
            let root = first_root.take().unwrap_or_else(|| {
                self.rec.set_step(round as usize);
                self.rec.enter(STEP)
            });
            let s = self.rec.enter("data.batch");
            let batch = batches
                .next()
                .expect("a shard holds steps_per_epoch batches");
            self.rec.exit(s);

            let s = self.rec.enter("nn.forward");
            let logits = self.model.forward(&batch.x, Mode::Train);
            let (loss, dlogits) = loss_fn.loss_and_grad(&logits, &batch.y);
            self.rec.exit(s);
            loss_sum += loss as f64;
            let s = self.rec.enter("nn.backward");
            self.model.backward(&dlogits);
            self.rec.exit(s);
            let s = self.rec.enter("nn.export_grads");
            self.model.export_grads_into(&mut self.grads);
            self.rec.exit(s);

            let last = i + 1 == size.steps_per_epoch;
            self.synchronize(w, round, last)?;
            self.rec.exit(root);
        }
        Ok(loss_sum)
    }

    /// Push this step's gradients and install the next weights, the way
    /// the workload's algorithm does.
    fn synchronize(
        &mut self,
        w: &Workload,
        round: u64,
        last_in_epoch: bool,
    ) -> Result<(), NetError> {
        let (rec, model, grads) = (&mut self.rec, &mut self.model, &self.grads);
        let ps = match &mut self.side {
            Side::Ring { ring, mean } => {
                let s = rec.enter("core.stage");
                mean.resize_with(grads.len(), Vec::new);
                for (m, g) in mean.iter_mut().zip(grads) {
                    m.clear();
                    m.extend_from_slice(g);
                }
                rec.exit(s);
                let s = rec.enter("ps.allreduce");
                for m in mean.iter_mut() {
                    ring.allreduce_mean(m)?;
                }
                rec.exit(s);
                let s = rec.enter("core.local_update");
                model.axpy_params(-w.lr, mean);
                rec.exit(s);
                return Ok(());
            }
            Side::Ps(ps) => ps,
        };
        let staged: Vec<Compressed> = if w.compresses(round) {
            let codec = ps
                .codec
                .as_mut()
                .expect("compressing workloads have a codec");
            let s = rec.enter("compress.quant");
            let staged = grads
                .iter()
                .enumerate()
                .map(|(key, g)| codec.compress_into(key, g, &ps.pool))
                .collect();
            rec.exit(s);
            staged
        } else {
            let s = rec.enter("core.stage");
            let staged = grads
                .iter()
                .map(|g| {
                    let mut raw = ps.pool.take_f32();
                    raw.extend_from_slice(g);
                    Compressed::Raw(raw)
                })
                .collect();
            rec.exit(s);
            staged
        };
        let s = rec.enter("ps.push");
        for (key, payload) in staged.into_iter().enumerate() {
            ps.client.push(self.id, key, payload)?;
        }
        rec.exit(s);

        let num_keys = grads.len();
        let warmup = CD_WARMUP as u64;
        if w.algo == Algo::CdSgd && round >= warmup {
            // Delayed: adopt the globals whose pull was fired after the
            // previous push, then fire the pull for this round's.
            if round > warmup {
                let s = rec.enter("ps.pull_wait");
                ps.base = match ps.settled.take() {
                    Some(base) => base,
                    None => wait_all(ps.pending.take().expect("a pull was fired last round"))?,
                };
                rec.exit(s);
            }
            let s = rec.enter("ps.push");
            ps.pending = Some(
                (0..num_keys)
                    .map(|k| ps.client.pull_async(k, round + 1))
                    .collect::<Result<_, _>>()?,
            );
            rec.exit(s);
            let s = rec.enter("nn.import_params");
            model.import_params_from(&ps.base);
            rec.exit(s);
            let s = rec.enter("core.local_update");
            model.axpy_params(-LOCAL_LR, grads);
            rec.exit(s);
            if last_in_epoch {
                // Like the trainer's epoch-end settle: receive, do not
                // adopt, so the epoch's traffic is complete.
                let s = rec.enter("ps.pull_wait");
                ps.settled = Some(wait_all(ps.pending.take().expect("just fired"))?);
                rec.exit(s);
            }
        } else {
            let s = rec.enter("ps.pull_wait");
            ps.base = ps.client.pull_all(num_keys, round + 1)?;
            rec.exit(s);
            let s = rec.enter("nn.import_params");
            model.import_params_from(&ps.base);
            rec.exit(s);
        }
        Ok(())
    }

    fn pool_misses(&self) -> u64 {
        match &self.side {
            Side::Ps(ps) => ps.pool.misses(),
            Side::Ring { .. } => 0,
        }
    }
}

/// What the loop measured.
pub struct LoopRun {
    pub spans: Vec<Span>,
    pub table: StepTable,
    /// Worker 0's wall time of each measured epoch, spans on / off.
    pub epoch_on_s: Vec<f64>,
    pub epoch_off_s: Vec<f64>,
    /// Mean batch loss of every epoch, warm-up included.
    pub losses: Vec<f64>,
    pub worker_steps: u64,
    pub pool_miss_per_step: f64,
    pub bytes_copied_per_step: f64,
}

struct WorkerRun {
    spans: Vec<Span>,
    epoch_on_s: Vec<f64>,
    epoch_off_s: Vec<f64>,
    loss_sums: Vec<f64>,
    steady_steps: u64,
    steady_misses: u64,
}

/// Run the loop until `deadline`: warm-up epochs, then pairs of one
/// traced and one untraced epoch (at least one pair, two when not quick).
pub fn traced_loop(
    w: &Workload,
    seed: u64,
    size: Size,
    deadline: Instant,
) -> Result<LoopRun, NetError> {
    let rig = w.setup(seed, size)?;
    let min_pairs = if size.quick { 1 } else { 2 };
    let origin = Instant::now();
    let gate = Barrier::new(WORKERS);
    let stop = AtomicBool::new(false);
    let mut workers: Vec<Worker> = Vec::with_capacity(WORKERS);
    let init = rig.init;
    for (id, seat) in rig.seats.into_iter().enumerate() {
        let Seat { model, shard, link } = seat;
        let side = match link {
            Link::Ring(ring) => Side::Ring {
                ring,
                mean: Vec::new(),
            },
            Link::Ps(client) => Side::Ps(PsSide {
                pool: client.pool().clone(),
                client,
                codec: w.codec(),
                base: init.clone(),
                pending: None,
                settled: None,
            }),
        };
        workers.push(Worker {
            id,
            model,
            shard,
            side,
            rec: Recorder::new(origin, id),
            grads: Vec::new(),
            rng: SmallRng64::new(seed.wrapping_add(id as u64 + 1)),
        });
    }

    let runs: Vec<WorkerRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut me| {
                let (gate, stop) = (&gate, &stop);
                scope.spawn(move || {
                    let mut out = WorkerRun {
                        spans: Vec::new(),
                        epoch_on_s: Vec::new(),
                        epoch_off_s: Vec::new(),
                        loss_sums: Vec::new(),
                        steady_steps: 0,
                        steady_misses: 0,
                    };
                    let mut misses_before = 0;
                    for epoch in 0.. {
                        let measured = epoch >= size.warmup_epochs;
                        let on = measured && (epoch - size.warmup_epochs).is_multiple_of(2);
                        if epoch == size.warmup_epochs {
                            misses_before = me.pool_misses();
                        }
                        me.rec.enabled = on;
                        gate.wait();
                        let t = Instant::now();
                        let first_round = (epoch * size.steps_per_epoch) as u64;
                        match me.epoch(w, size, first_round) {
                            Ok(loss) => out.loss_sums.push(loss),
                            // The peer may be blocked on a round this
                            // worker will never complete; nothing here
                            // can wake it, so do not wait for it.
                            Err(e) => {
                                eprintln!("{}: traced loop, worker {}: {e}", w.name, me.id);
                                std::process::exit(1);
                            }
                        }
                        let leader = gate.wait().is_leader();
                        let wall = t.elapsed().as_secs_f64();
                        if measured {
                            out.steady_steps += size.steps_per_epoch as u64;
                            if on {
                                out.epoch_on_s.push(wall);
                            } else {
                                out.epoch_off_s.push(wall);
                            }
                        }
                        // Stop only after a complete on/off pair.
                        let pairs = (epoch + 1).saturating_sub(size.warmup_epochs) / 2;
                        let pair_done = measured && !on;
                        if leader && pair_done && pairs >= min_pairs && Instant::now() >= deadline {
                            stop.store(true, Ordering::SeqCst);
                        }
                        gate.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    out.steady_misses = me.pool_misses() - misses_before;
                    if let Side::Ps(ps) = &mut me.side {
                        // Nothing may be in flight when the server stops.
                        if let Some(p) = ps.pending.take() {
                            let _ = wait_all(p);
                        }
                    }
                    out.spans = me.rec.into_spans();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loop worker"))
            .collect()
    });
    let deployment = rig.deployment;
    let bytes_copied = deployment
        .server_stats
        .as_ref()
        .map_or(0, |s| s.bytes_copied());
    deployment.backend.shutdown();

    let epochs = runs[0].loss_sums.len();
    let all_steps = (epochs * size.steps_per_epoch * WORKERS) as u64;
    let losses = (0..epochs)
        .map(|e| {
            runs.iter().map(|r| r.loss_sums[e]).sum::<f64>()
                / (size.steps_per_epoch * WORKERS) as f64
        })
        .collect();
    let steady_steps: u64 = runs.iter().map(|r| r.steady_steps).sum();
    let steady_misses: u64 = runs.iter().map(|r| r.steady_misses).sum();
    let mut tables = runs.iter().map(|r| StepTable::new(&r.spans));
    let mut table = tables.next().expect("at least one worker");
    for t in tables {
        table.merge(t);
    }
    Ok(LoopRun {
        epoch_on_s: runs[0].epoch_on_s.clone(),
        epoch_off_s: runs[0].epoch_off_s.clone(),
        losses,
        worker_steps: all_steps,
        pool_miss_per_step: steady_misses as f64 / steady_steps.max(1) as f64,
        bytes_copied_per_step: bytes_copied as f64 / all_steps.max(1) as f64,
        table,
        spans: runs.into_iter().flat_map(|r| r.spans).collect(),
    })
}

/// `simtime`'s prediction of the step time from the measured τ, φ, ψ, δ
/// (all ms): eq. 2 for the raw synchronous algorithms, eq. 5 for
/// BIT-SGD, the k-period average of eq. 7 for CD-SGD.
pub fn predict_step_ms(algo: Algo, tau: f64, phi: f64, psi: f64, delta: f64) -> f64 {
    let model = CostModel::new(CostInputs {
        tau,
        phi,
        psi,
        delta,
        k: K,
    });
    match algo {
        Algo::Ssgd | Algo::ArSgd => model.t_ssgd(),
        Algo::BitSgd => model.t_bit(),
        Algo::CdSgd => model.t_cd_avg(),
    }
}

/// Median of the non-zero entries: a layer's time in the steps that use
/// it.
fn median_when_used(xs: &[f64]) -> f64 {
    let used: Vec<f64> = xs.iter().copied().filter(|&x| x > 0.0).collect();
    median(&used)
}

/// A probe that errors is a failed operation and reads 0.
fn probed<T: Default>(ops: &mut Ops, what: &str, r: Result<T, NetError>) -> T {
    ops.check(r.is_ok(), || {
        format!("probe {what}: {:?}", r.as_ref().err())
    });
    r.unwrap_or_default()
}

pub fn run(w: &Workload, seed: u64, seconds: f64, quick: bool, spans_out: Option<&str>) -> Outcome {
    let size = w.size(quick);
    let started = Instant::now();
    let mut ops = Ops::default();
    let budget = Budget {
        seconds: 0.15,
        quick,
    };

    // ---- the system's own loop, untraced -------------------------------
    let train = train_once(w, seed, size);
    check_run(w, size, &train, &mut ops);
    let epoch_ms: Vec<f64> = train.timed_epochs(size).iter().map(|s| s * 1e3).collect();
    let trainer_step_ms = median(&epoch_ms) / size.steps_per_epoch as f64;
    let (tail_pct, tail_ms) = tail(&epoch_ms);

    // ---- isolated probes, each only where the workload uses the layer ---
    let grads = probe::fake_grads(&train.key_sizes);
    let payloads = probe::payloads(w, &grads);
    let largest = train.key_sizes.iter().copied().max().unwrap_or(1);
    let ps = w.backend != Backend::RingTcp;
    let wired = matches!(w.backend, Backend::Tcp | Backend::RingTcp);
    let coded = w.codec().is_some();

    let gemm = probe::gemm_gflops(budget);
    let conv = probe::conv_gflops(budget);
    let dequant = if coded {
        probe::dequant_add_ms(&payloads, budget)
    } else {
        0.0
    };
    let (mut enc, mut dec, mut tcp_mib, mut tcp_rtt, mut loop_mib) = (0.0, 0.0, 0.0, 0.0, 0.0);
    if wired {
        (enc, dec) = probe::codec_ms(w, &payloads, &grads, budget);
        let big = cdsgd_net::pull_reply_frame_bytes(largest);
        (tcp_mib, tcp_rtt) = probed(&mut ops, "tcp", probe::tcp_speed(big, budget));
        loop_mib = probed(&mut ops, "loopback", probe::loopback_mib_per_s(big, budget));
    }
    let (mut rt_small, mut rt_raw, mut rt_2bit, mut apply) = (0.0, 0.0, 0.0, 0.0);
    if ps {
        let raw: Vec<Compressed> = grads.iter().cloned().map(Compressed::Raw).collect();
        rt_small = probed(
            &mut ops,
            "small round trip",
            probe::roundtrip_small_us(w, budget),
        );
        rt_raw = probed(
            &mut ops,
            "raw round",
            probe::roundtrip_model_ms(w, &raw, budget),
        );
        if coded {
            let r = probe::roundtrip_model_ms(w, &payloads, budget);
            rt_2bit = probed(&mut ops, "2-bit round", r);
        }
        apply = probe::apply_ms(w, &grads, budget);
    }

    // ---- the benchmark-owned loop, traced every other epoch -------------
    let deadline = started + std::time::Duration::from_secs_f64(seconds);
    let lp = match traced_loop(w, seed, size, deadline) {
        Ok(lp) => lp,
        Err(e) => {
            ops.check(false, || format!("{}: traced loop set-up: {e}", w.name));
            return Outcome {
                ops,
                metrics: Vec::new(),
            };
        }
    };
    ops.steps(lp.worker_steps, 0);
    ops.check(lp.losses.iter().all(|l| l.is_finite()), || {
        format!("{}: non-finite loss in the traced loop", w.name)
    });
    if let Some(path) = spans_out {
        let written = std::fs::write(path, spans_json(&lp.spans));
        ops.check(written.is_ok(), || {
            format!("cannot write {path}: {written:?}")
        });
    }
    let t = &lp.table;
    let per_step = |name: &str| median(t.layer(name));
    let steps = size.steps_per_epoch as f64;
    let loop_on_ms = 1e3 * median(&lp.epoch_on_s) / steps;
    let loop_off_ms = 1e3 * median(&lp.epoch_off_s) / steps;
    // The shuffle happens once an epoch; spread it over the epoch's steps.
    let shuffle_ms = t.total("data.shuffle") / t.step_ms.len().max(1) as f64;

    let tau = COMPUTE.iter().map(|n| per_step(n)).sum::<f64>() + shuffle_ms;
    let delta = median_when_used(t.layer("compress.quant"));
    let (phi, psi) = if ps {
        (rt_raw, rt_2bit)
    } else {
        (per_step("ps.allreduce"), 0.0)
    };
    let pred_ms = predict_step_ms(w.algo, tau, phi, psi, delta);
    let final_loss = train.losses.last().copied().unwrap_or(f32::NAN) as f64;
    let loop_loss = lp.losses.last().copied().unwrap_or(f64::NAN);

    let m = |name, unit, value| Metric { name, unit, value };
    let metrics = vec![
        m("data.batch_ms", "ms", per_step("data.batch") + shuffle_ms),
        m("nn.forward_ms", "ms", per_step("nn.forward")),
        m("nn.backward_ms", "ms", per_step("nn.backward")),
        m("nn.export_grads_ms", "ms", per_step("nn.export_grads")),
        m("nn.import_params_ms", "ms", per_step("nn.import_params")),
        m("tensor.gemm_gflops", "GFLOP/s", gemm),
        m("tensor.conv_gflops", "GFLOP/s", conv),
        m("compress.quant_ms", "ms", per_step("compress.quant")),
        m("compress.dequant_add_ms", "ms", dequant),
        m("compress.ratio", "ratio", probe::compress_ratio(&payloads)),
        m(
            "compress.pool_miss_per_step",
            "count",
            lp.pool_miss_per_step,
        ),
        m("net.encode_ms", "ms", enc),
        m("net.decode_ms", "ms", dec),
        m("net.tcp_mib_per_s", "MiB/s", tcp_mib),
        m("net.tcp_small_rtt_us", "us", tcp_rtt),
        m("net.loopback_mib_per_s", "MiB/s", loop_mib),
        m("ps.push_ms", "ms", per_step("ps.push")),
        m("ps.pull_wait_ms", "ms", per_step("ps.pull_wait")),
        m("ps.roundtrip_small_us", "us", rt_small),
        m("ps.roundtrip_model_ms", "ms", rt_raw),
        m("ps.roundtrip_model_2bit_ms", "ms", rt_2bit),
        m("ps.apply_ms", "ms", apply),
        m("ps.bytes_copied_per_step", "B", lp.bytes_copied_per_step),
        m("ps.allreduce_ms", "ms", per_step("ps.allreduce")),
        m("core.stage_ms", "ms", per_step("core.stage")),
        m("core.local_update_ms", "ms", per_step("core.local_update")),
        m("core.step_ms", "ms", median(&t.step_ms)),
        m("core.exposed_comm_share", "share", t.share(&EXPOSED_COMM)),
        m("core.unattributed_share", "share", t.unattributed_share()),
        m(
            "core.trace_overhead_share",
            "share",
            loop_on_ms / loop_off_ms - 1.0,
        ),
        m("core.trainer_step_ms_p50", "ms", trainer_step_ms),
        m("core.trainer_epoch_ms_tail", "ms", tail_ms),
        m("core.trainer_tail_pct", "%", tail_pct),
        m(
            "core.loop_vs_trainer_ratio",
            "ratio",
            loop_off_ms / trainer_step_ms,
        ),
        m("core.final_loss", "nats", final_loss),
        m("core.loop_final_loss", "nats", loop_loss),
        m(
            "core.time_to_loss_s",
            "s",
            train.time_to_loss(w.loss_target).unwrap_or(0.0),
        ),
        m("simtime.step_ms_pred", "ms", pred_ms),
        m("simtime.pred_ratio", "ratio", trainer_step_ms / pred_ms),
    ];
    Outcome { ops, metrics }
}

/// The raw spans, for whoever wants the timeline (`--spans-out`).
fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<serde_json::Value> = spans
        .iter()
        .map(|s| {
            serde_json::json!({
                "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                "parent": s.parent, "worker": s.worker, "step": s.step
            })
        })
        .collect();
    serde_json::to_string(&rows).expect("spans serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_follows_the_papers_equations() {
        // τ 10, φ 40, ψ 4, δ 2, k 4.
        assert_eq!(predict_step_ms(Algo::Ssgd, 10.0, 40.0, 4.0, 2.0), 50.0);
        assert_eq!(predict_step_ms(Algo::ArSgd, 10.0, 40.0, 0.0, 0.0), 50.0);
        assert_eq!(predict_step_ms(Algo::BitSgd, 10.0, 40.0, 4.0, 2.0), 16.0);
        // Three compressed rounds hide δ+ψ = 6 behind τ = 10, the
        // correction round pays φ = 40: (3·10 + 40) / 4.
        assert_eq!(predict_step_ms(Algo::CdSgd, 10.0, 40.0, 4.0, 2.0), 17.5);
    }

    #[test]
    fn a_layer_used_in_some_steps_is_timed_over_those_steps() {
        assert_eq!(median_when_used(&[0.0, 3.0, 5.0, 0.0, 4.0]), 4.0);
        assert_eq!(median_when_used(&[0.0, 0.0]), 0.0);
    }
}
