//! Exact-semantics integration tests: the threaded Trainer + parameter
//! server must produce *bit-identical* weights to a sequential reference
//! implementation of the paper's update rules (eqs. 1, 10, 11 and
//! Algorithm 1). These tests re-derive the math by hand, so any plumbing
//! bug in the PS versioning, push/pull ordering, warm-up handoff or the
//! deferred pull shows up as a weight mismatch.

use cd_sgd::{
    run_standalone_worker, Algorithm, Event, Link, Sink, Telemetry, TrainConfig, Trainer,
};
use cdsgd_compress::{decompress, BufferPool, GradientCompressor, TwoBitQuantizer};
use cdsgd_data::{toy, Dataset};
use cdsgd_net::wire::WireMsg;
use cdsgd_nn::{models, Dense, Layer, Mode, Relu, Sequential, SoftmaxCrossEntropy};
use cdsgd_ps::{NetError, ParamClient, ParamServer, PendingReply, PsClient, ServerConfig};
use cdsgd_telemetry::Op;
use cdsgd_tensor::{SmallRng64, Tensor};
use std::sync::{Arc, Mutex};

const WORKER_RNG_MUL: u64 = 0xA076_1D64_78BD_642F;

/// Replicate the worker's per-epoch batch stream (same shuffle RNG).
fn worker_batches(
    shard: &Dataset,
    worker_id: usize,
    seed: u64,
    epochs: usize,
    batch_size: usize,
    ipe: usize,
) -> Vec<(cdsgd_tensor::Tensor, Vec<usize>)> {
    let mut rng = SmallRng64::new(seed ^ (worker_id as u64 + 1).wrapping_mul(WORKER_RNG_MUL));
    let mut out = Vec::new();
    for _ in 0..epochs {
        let mut s = shard.clone();
        s.shuffle(&mut rng);
        for b in s.batches(batch_size).take(ipe) {
            out.push((b.x, b.y));
        }
    }
    out
}

fn build_model(seed: u64) -> Sequential {
    let mut rng = SmallRng64::new(seed);
    models::mlp(&[6, 10, 3], &mut rng)
}

fn setup() -> (Dataset, TrainConfig) {
    let data = toy::gaussian_blobs(96, 6, 3, 0.5, 17);
    let cfg = TrainConfig::new(Algorithm::SSgd, 1)
        .with_lr(0.1)
        .with_batch_size(8)
        .with_epochs(2)
        .with_seed(123);
    (data, cfg)
}

#[test]
fn ssgd_single_worker_matches_manual_sgd_exactly() {
    let (data, cfg) = setup();
    let history = Trainer::new(
        cfg.clone(),
        |rng| models::mlp(&[6, 10, 3], rng),
        data.clone(),
        None,
    )
    .run();

    // Manual reference: plain SGD over the identical batch stream.
    let mut model = build_model(cfg.seed);
    let mut weights = model.export_params();
    let ipe = data.len() / cfg.batch_size;
    let loss_fn = SoftmaxCrossEntropy;
    for (x, y) in worker_batches(&data, 0, cfg.seed, cfg.epochs, cfg.batch_size, ipe) {
        model.import_params(&weights);
        let logits = model.forward(&x, Mode::Train);
        let (_, dl) = loss_fn.loss_and_grad(&logits, &y);
        model.backward(&dl);
        let grads = model.export_grads();
        for (w, g) in weights.iter_mut().zip(&grads) {
            for (wi, gi) in w.iter_mut().zip(g) {
                *wi -= cfg.global_lr * gi; // eq. 1 with N = 1
            }
        }
    }
    assert_eq!(history.final_weights, weights, "S-SGD deviates from eq. 1");
}

#[test]
fn cd_sgd_single_worker_matches_algorithm1_exactly() {
    let (data, base_cfg) = setup();
    let warmup = 3usize;
    let k = 2usize;
    let local_lr = 0.05f32;
    let threshold = 0.2f32;
    let cfg = TrainConfig {
        algo: Algorithm::cd_sgd(local_lr, threshold, k, warmup),
        ..base_cfg
    };
    let history = Trainer::new(
        cfg.clone(),
        |rng| models::mlp(&[6, 10, 3], rng),
        data.clone(),
        None,
    )
    .run();

    // Manual reference implementing Algorithm 1 verbatim.
    let mut model = build_model(cfg.seed);
    let mut global = model.export_params(); // server weights W
    let mut w_loc = global.clone(); // local weights (== W during warm-up)
    let mut quantizer = TwoBitQuantizer::new(threshold);
    let loss_fn = SoftmaxCrossEntropy;
    let ipe = data.len() / cfg.batch_size;
    let mut prev_global = global.clone(); // W_r pulled at round end

    for (round, (x, y)) in worker_batches(&data, 0, cfg.seed, cfg.epochs, cfg.batch_size, ipe)
        .into_iter()
        .enumerate()
    {
        model.import_params(&w_loc);
        let logits = model.forward(&x, Mode::Train);
        let (_, dl) = loss_fn.loss_and_grad(&logits, &y);
        model.backward(&dl);
        let grads = model.export_grads();

        // Server side (eq. 10, N = 1), with 2-bit compression in the
        // compression iterations of the formal phase.
        let compress = round >= warmup && !(round - warmup).is_multiple_of(k);
        for (key, (w, g)) in global.iter_mut().zip(&grads).enumerate() {
            if compress {
                let payload = quantizer.compress(key, g);
                let mut decoded = vec![0.0f32; g.len()];
                decompress(&payload, &mut decoded);
                for (wi, di) in w.iter_mut().zip(&decoded) {
                    *wi -= cfg.global_lr * di;
                }
            } else {
                for (wi, gi) in w.iter_mut().zip(g) {
                    *wi -= cfg.global_lr * gi;
                }
            }
        }

        // Worker side: warm-up adopts the new globals; the formal phase
        // builds W^loc_{r+1} = W_r − lr_loc·grad_r (eq. 11) where W_r is
        // the *previous* round's global weights.
        if round < warmup {
            w_loc = global.clone();
        } else {
            w_loc = prev_global.clone();
            for (w, g) in w_loc.iter_mut().zip(&grads) {
                for (wi, gi) in w.iter_mut().zip(g) {
                    *wi -= local_lr * gi;
                }
            }
        }
        prev_global = global.clone();
    }
    assert_eq!(
        history.final_weights, global,
        "CD-SGD deviates from Algorithm 1 / eqs. 10-11"
    );
}

#[test]
fn od_sgd_is_cd_sgd_with_k1_and_no_warmup() {
    // With k = 1 every formal iteration is a correction (raw push), so
    // CD-SGD degenerates to OD-SGD exactly.
    let (data, base_cfg) = setup();
    let od = TrainConfig {
        algo: Algorithm::OdSgd { local_lr: 0.05 },
        ..base_cfg.clone()
    };
    let cd = TrainConfig {
        algo: Algorithm::cd_sgd(0.05, 0.5, 1, 0),
        ..base_cfg
    };
    let h_od = Trainer::new(od, |rng| models::mlp(&[6, 10, 3], rng), data.clone(), None).run();
    let h_cd = Trainer::new(cd, |rng| models::mlp(&[6, 10, 3], rng), data, None).run();
    assert_eq!(h_od.final_weights, h_cd.final_weights);
}

#[test]
fn training_is_deterministic_across_runs() {
    let (data, base_cfg) = setup();
    let cfg = TrainConfig {
        algo: Algorithm::cd_sgd(0.05, 0.2, 2, 2),
        num_workers: 2,
        ..base_cfg
    };
    let run = || {
        Trainer::new(
            cfg.clone(),
            |rng| models::mlp(&[6, 10, 3], rng),
            data.clone(),
            None,
        )
        .run()
    };
    let a = run();
    let b = run();
    // The server pops worker queues in fixed order, so even multi-worker
    // training is bit-deterministic.
    assert_eq!(a.final_weights, b.final_weights);
    let la: Vec<f32> = a.epochs.iter().map(|e| e.train_loss).collect();
    let lb: Vec<f32> = b.epochs.iter().map(|e| e.train_loss).collect();
    assert_eq!(la, lb);
}

#[test]
fn two_workers_average_gradients_per_eq10() {
    // One round, two workers, no shuffle effects (one batch per shard):
    // W_1 = W_0 − η/2 (g_a + g_b).
    let data = toy::gaussian_blobs(16, 6, 3, 0.5, 23);
    let cfg = TrainConfig::new(Algorithm::SSgd, 2)
        .with_lr(0.1)
        .with_batch_size(8)
        .with_epochs(1)
        .with_seed(55);
    let history = Trainer::new(
        cfg.clone(),
        |rng| models::mlp(&[6, 10, 3], rng),
        data.clone(),
        None,
    )
    .run();

    let loss_fn = SoftmaxCrossEntropy;
    let mut model = build_model(cfg.seed);
    let w0 = model.export_params();
    let mut sum_grads: Vec<Vec<f32>> = w0.iter().map(|w| vec![0.0; w.len()]).collect();
    for worker in 0..2 {
        let shard = data.shard(worker, 2);
        let batches = worker_batches(&shard, worker, cfg.seed, 1, 8, 1);
        let (x, y) = &batches[0];
        model.import_params(&w0);
        let logits = model.forward(x, Mode::Train);
        let (_, dl) = loss_fn.loss_and_grad(&logits, y);
        model.backward(&dl);
        for (s, g) in sum_grads.iter_mut().zip(model.export_grads()) {
            for (si, gi) in s.iter_mut().zip(g) {
                *si += gi;
            }
        }
    }
    let expect: Vec<Vec<f32>> = w0
        .iter()
        .zip(&sum_grads)
        .map(|(w, s)| {
            w.iter()
                .zip(s)
                .map(|(wi, si)| wi - 0.1 / 2.0 * si)
                .collect()
        })
        .collect();
    for (got, want) in history.final_weights.iter().zip(&expect) {
        for (a, b) in got.iter().zip(want) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}

/// What the worker's thread did, in program order. One log is shared by
/// a probe layer inside the model (BP reached it), the recording client
/// (a push or a pull request left) and a telemetry sink (a pull wait
/// returned) — all three are called on the worker's own thread, so the
/// log is a sequence, not a timeline.
#[derive(Clone, Debug, PartialEq)]
enum Did {
    /// BP reached the probe below the layer owning `key` and `key + 1`:
    /// the layers under it have produced no gradient yet.
    BackwardBelow(usize),
    Push(usize),
    PullAsync(usize, u64),
    /// A `PullWait` span attributed to this round closed.
    PullWaited(u64),
}

type Log = Arc<Mutex<Vec<Did>>>;

/// Identity layer that logs when back-propagation passes through it.
struct Probe(usize, Log);

impl Layer for Probe {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        x.clone()
    }
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.1.lock().unwrap().push(Did::BackwardBelow(self.0));
        dy.clone()
    }
    fn name(&self) -> &'static str {
        "probe"
    }
}

struct RecordingClient(PsClient, Log);

impl ParamClient for RecordingClient {
    fn request(&self, msg: WireMsg) -> Result<Option<PendingReply>, NetError> {
        match msg {
            WireMsg::Push { key, .. } => self.1.lock().unwrap().push(Did::Push(key as usize)),
            WireMsg::Pull { key, min_version } => self
                .1
                .lock()
                .unwrap()
                .push(Did::PullAsync(key as usize, min_version)),
            _ => {}
        }
        self.0.request(msg)
    }
    fn pool(&self) -> &BufferPool {
        self.0.pool()
    }
}

struct PullWaits(Log);

impl Sink for PullWaits {
    fn record(&self, event: &Event) {
        if let Event::OpSpan {
            op: Op::PullWait,
            round,
            ..
        } = event
        {
            self.0.lock().unwrap().push(Did::PullWaited(*round));
        }
    }
}

#[test]
fn each_key_is_pushed_the_moment_bp_produces_it() {
    // Three dense layers (keys 0-1, 2-3, 4-5) with a probe under the
    // upper two, one worker, one epoch of 12 rounds of CD-SGD: three
    // blocking warm-up rounds, then Algorithm 1's delayed rounds.
    let (warmup, rounds, keys) = (3u64, 12u64, 6usize);
    let log: Log = Default::default();
    let build = |rng: &mut SmallRng64| {
        Sequential::new()
            .push(Dense::new(6, 8, rng))
            .push(Probe(2, log.clone()))
            .push(Relu::new())
            .push(Dense::new(8, 8, rng))
            .push(Probe(4, log.clone()))
            .push(Relu::new())
            .push(Dense::new(8, 3, rng))
    };
    let (data, base_cfg) = setup();
    let cfg = TrainConfig {
        algo: Algorithm::cd_sgd(0.05, 0.2, 2, warmup as usize),
        epochs: 1,
        ..base_cfg
    }
    .with_telemetry(Telemetry::new(Arc::new(PullWaits(log.clone()))));
    let init = build(&mut SmallRng64::new(cfg.seed)).export_params();
    let ps = ParamServer::start(init, ServerConfig::new(1, cfg.global_lr));
    let client = RecordingClient(ps.client(), log.clone());
    let link = Link::Ps(Arc::new(client));
    run_standalone_worker(cfg, 0, build, &data, None, link).unwrap();
    ps.shutdown();

    let mut want = Vec::new();
    for r in 0..rounds {
        let blocking = r < warmup;
        // BP order: the last layer's keys first, each key's push before
        // BP reaches the layer below — and on a blocking round that
        // key's pull right behind its push.
        for layer_key in [4, 2, 0] {
            for key in [layer_key, layer_key + 1] {
                want.push(Did::Push(key));
                if blocking {
                    want.push(Did::PullAsync(key, r + 1));
                }
            }
            if layer_key > 0 {
                want.push(Did::BackwardBelow(layer_key));
            }
        }
        // A blocking round then waits for its own pulls; a delayed
        // round first receives W_r (fired a round ago) and only then
        // requests W_{r+1}, in key order — Algorithm 1 untouched.
        if r != warmup {
            want.push(Did::PullWaited(r));
        }
        if !blocking {
            want.extend((0..keys).map(|k| Did::PullAsync(k, r + 1)));
        }
    }
    // The epoch-end settle receives the last round's deferred pull.
    want.push(Did::PullWaited(rounds));
    assert_eq!(*log.lock().unwrap(), want);
}

/// What [`Spy`] saw at one training forward: the round, the version the
/// model should be reading (or have stepped from), whether the weight
/// tensor *is* the server's snapshot of it, and that snapshot's bits.
type Sighting = (u64, u64, bool, Vec<u32>);

fn bits(w: &[f32]) -> Vec<u32> {
    w.iter().map(|x| x.to_bits()).collect()
}

/// A dense layer (keys 0, 1) that, entering each training forward,
/// pulls the snapshot behind its weights — the same `Arc` every puller
/// of that version gets — and records where its own weight tensor lives.
struct Spy {
    inner: Dense,
    client: PsClient,
    warmup: u64,
    round: u64,
    seen: Arc<Mutex<Vec<Sighting>>>,
}

impl Layer for Spy {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let r = self.round;
        self.round += 1;
        if mode == Mode::Train && r > 0 {
            // A blocking round adopted W_r; a delayed round stepped to
            // W^loc_r from the base W_{r-1} (eq. 11).
            let version = if r <= self.warmup { r } else { r - 1 };
            let snapshot = self.client.pull(0, version).unwrap();
            let mut weight = std::ptr::null::<f32>();
            self.inner.visit_params(&mut |p| {
                if weight.is_null() {
                    weight = p.value.data().as_ptr();
                }
            });
            let reads = std::ptr::eq(weight, snapshot.as_ptr());
            let sighting = (r, version, reads, bits(&snapshot));
            self.seen.lock().unwrap().push(sighting);
        }
        self.inner.forward(x, mode)
    }
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.inner.backward(dy)
    }
    fn backward_params(&mut self, dy: &Tensor) {
        self.inner.backward_params(dy)
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut cdsgd_nn::Param)) {
        self.inner.visit_params(f)
    }
    fn name(&self) -> &'static str {
        "spy"
    }
}

/// Forwards to the server, keeping every gradient pushed for key 0.
struct Key0Pushes(PsClient, Arc<Mutex<Vec<Vec<f32>>>>);

impl ParamClient for Key0Pushes {
    fn request(&self, msg: WireMsg) -> Result<Option<PendingReply>, NetError> {
        if let WireMsg::Push {
            key: 0, payload, ..
        } = &msg
        {
            let mut g = vec![0.0; payload.len()];
            decompress(payload, &mut g);
            self.1.lock().unwrap().push(g);
        }
        self.0.request(msg)
    }
    fn pool(&self) -> &BufferPool {
        self.0.pool()
    }
}

#[test]
fn blocking_rounds_read_the_pulled_snapshot_in_place_and_delayed_rounds_leave_it_alone() {
    // One worker, one epoch of 12 rounds of CD-SGD: three blocking
    // warm-up rounds, then Algorithm 1's delayed rounds.
    let (warmup, rounds) = (3u64, 12u64);
    let (data, base_cfg) = setup();
    let cfg = TrainConfig {
        algo: Algorithm::cd_sgd(0.05, 0.2, 2, warmup as usize),
        epochs: 1,
        ..base_cfg
    };
    let lr = cfg.global_lr;
    let init = build_model(cfg.seed).export_params();
    let ps = ParamServer::start(init.clone(), ServerConfig::new(1, lr));
    let seen: Arc<Mutex<Vec<Sighting>>> = Default::default();
    let pushes: Arc<Mutex<Vec<Vec<f32>>>> = Default::default();
    let build = |rng: &mut SmallRng64| {
        let spy = Spy {
            inner: Dense::new(6, 10, rng),
            client: ps.client(),
            warmup,
            round: 0,
            seen: seen.clone(),
        };
        Sequential::new()
            .push(spy)
            .push(Relu::new())
            .push(Dense::new(10, 3, rng))
    };
    let link = Link::Ps(Arc::new(Key0Pushes(ps.client(), pushes.clone())));
    run_standalone_worker(cfg, 0, build, &data, None, link).unwrap();
    ps.shutdown();

    // Every version of key 0, re-derived from the pushes (eq. 10, N = 1).
    let mut versions = vec![init[0].clone()];
    for g in pushes.lock().unwrap().iter() {
        let w = versions.last().unwrap();
        versions.push(w.iter().zip(g).map(|(w, g)| w - lr * g).collect());
    }
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len() as u64, rounds - 1);
    for (r, version, reads, snapshot) in seen.iter() {
        // Adoption moved a pointer; the local update (eq. 11) wrote a
        // tensor of the model's own.
        assert_eq!(*reads, *r <= warmup, "round {r}");
        // ...and whoever read the snapshot since — the local update
        // among them — left W_version exactly as the server built it.
        assert_eq!(*snapshot, bits(&versions[*version as usize]), "round {r}");
    }
}
