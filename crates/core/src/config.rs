//! Algorithm and training-run configuration.

use crate::supervise::RestartPolicy;
use cdsgd_compress::{
    AdaptiveTwoBit, GradientCompressor, OneBitQuantizer, QsgdQuantizer, TopKSparsifier,
    TwoBitQuantizer,
};
use cdsgd_ps::{ServerOptKind, WorkerFault};
use cdsgd_telemetry::Telemetry;
use std::path::PathBuf;
use std::time::Duration;

/// A structurally invalid algorithm or training configuration, detected
/// at construction time — before any worker thread or server spawns.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `LocalSgd` with `sync_period == 0`: the worker would never sync.
    ZeroSyncPeriod,
    /// `CdSgd` with `k == 0`: the compression schedule `count % k` is
    /// undefined.
    ZeroCorrectionPeriod,
    /// `EfSgd` momentum outside `[0, 1)`: the velocity would diverge.
    InvalidMomentum(f32),
    /// `EcqSgd` error-decay β outside `[0, 1]`: the accumulated
    /// quantization error would grow without bound.
    InvalidErrorDecay(f32),
    /// A training run needs at least one worker.
    NoWorkers,
    /// An emulated network bandwidth (bytes/second) that is not a finite
    /// positive number: a link that carries nothing, or a negative or
    /// NaN delay per byte.
    InvalidBandwidth(f64),
    /// The algorithm was handed the wrong kind of worker link: a
    /// parameter-server algorithm a collective, or a server-less one
    /// (AR-SGD) a parameter-server client.
    LinkMismatch {
        /// [`Algorithm::name`] of the algorithm.
        algo: String,
        /// The kind of link it was handed.
        link: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroSyncPeriod => write!(f, "sync period must be at least 1"),
            ConfigError::ZeroCorrectionPeriod => write!(f, "k must be at least 1"),
            ConfigError::InvalidMomentum(m) => {
                write!(f, "momentum must be in [0, 1), got {m}")
            }
            ConfigError::InvalidErrorDecay(b) => {
                write!(f, "error decay beta must be in [0, 1], got {b}")
            }
            ConfigError::NoWorkers => write!(f, "need at least one worker"),
            ConfigError::InvalidBandwidth(b) => {
                write!(
                    f,
                    "emulated network bandwidth must be finite and positive, got {b} bytes/s"
                )
            }
            ConfigError::LinkMismatch { algo, link } => {
                write!(f, "{algo} cannot synchronize over a {link} link")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A gradient-compression codec choice for CD-SGD's compression
/// iterations.
///
/// The paper uses 2-bit threshold quantization; the other codecs
/// implement its stated future work ("explore efficient gradient
/// sparsification algorithms to further improve the training efficiency
/// of CD-SGD").
#[derive(Clone, Debug, PartialEq)]
pub enum Codec {
    /// MXNet-style 2-bit threshold quantization (the paper's choice).
    TwoBit {
        /// Quantization threshold α.
        threshold: f32,
    },
    /// 1-bit sign quantization with error feedback.
    OneBit,
    /// DGC-style Top-k sparsification with error feedback.
    TopK {
        /// Fraction of elements transmitted per push (e.g. 0.01).
        ratio: f64,
    },
    /// QSGD stochastic uniform quantization (no error feedback).
    Qsgd {
        /// Number of quantization levels.
        levels: u8,
        /// Seed for the stochastic rounding.
        seed: u64,
    },
    /// 2-bit quantization with a per-key, per-iteration adaptive
    /// threshold (addresses the paper's §2.3 observation that a single
    /// fixed threshold does not fit all models).
    AdaptiveTwoBit {
        /// Multiplier on the mean absolute corrected gradient.
        scale: f32,
    },
}

impl Codec {
    /// Instantiate the compressor (one per worker; residual state is
    /// worker-local exactly as in the paper).
    pub fn build(&self) -> Box<dyn GradientCompressor> {
        match self {
            Codec::TwoBit { threshold } => Box::new(TwoBitQuantizer::new(*threshold)),
            Codec::OneBit => Box::new(OneBitQuantizer::new()),
            Codec::TopK { ratio } => Box::new(TopKSparsifier::new(*ratio)),
            Codec::Qsgd { levels, seed } => Box::new(QsgdQuantizer::new(*levels, *seed)),
            Codec::AdaptiveTwoBit { scale } => Box::new(AdaptiveTwoBit::new(*scale)),
        }
    }

    /// Short name for run labels.
    pub fn name(&self) -> String {
        match self {
            Codec::TwoBit { .. } => "2bit".into(),
            Codec::OneBit => "1bit".into(),
            Codec::TopK { ratio } => format!("top{:.3}", ratio),
            Codec::Qsgd { levels, .. } => format!("qsgd{levels}"),
            Codec::AdaptiveTwoBit { scale } => format!("2bit-ada{scale}"),
        }
    }
}

/// Which distributed optimization algorithm to run (the four the paper
/// compares in §4, plus extensions).
///
/// The parameter-server variants `SSgd`, `BitSgd`, `EcqSgd`, `EfSgd`,
/// `OdSgd` and `CdSgd` are one worker-side engine configured two ways —
/// what is pushed (raw / codec every round / codec with k-step
/// correction, optionally behind worker momentum) and whether the pull
/// is delayed (the local update); see DESIGN.md §11.
#[derive(Clone, Debug, PartialEq)]
pub enum Algorithm {
    /// Synchronous SGD: raw gradients, blocking push/pull every iteration.
    SSgd,
    /// OD-SGD / the local-update mechanism: one-step-delayed global
    /// weights with a local correction, raw gradients.
    OdSgd {
        /// Learning rate of the local update (eq. 11).
        local_lr: f32,
    },
    /// The paper's BIT-SGD: S-SGD with MXNet 2-bit threshold quantization
    /// (residual feedback) on every push.
    BitSgd {
        /// Quantization threshold α.
        threshold: f32,
    },
    /// The paper's contribution: local update + gradient compression +
    /// k-step correction + warm-up. The paper always uses the
    /// [`Codec::TwoBit`] codec; others are the extension.
    CdSgd {
        /// Learning rate of the local update.
        local_lr: f32,
        /// Compression codec for the compression iterations.
        codec: Codec,
        /// Correction period: k−1 compressed pushes then one raw push.
        k: usize,
        /// Warm-up iterations of plain S-SGD before the formal phase.
        warmup: usize,
        /// Delay-compensation strength λ (0 disables, the paper's
        /// setting). When positive, pushed gradients are corrected for
        /// the one-step weight delay with the DC-ASGD Hessian
        /// approximation `g̃ = g + λ·g⊙g⊙(W_base − W_loc)` [Zheng et al.
        /// 2017] — an extension composing the "delay compensation"
        /// literature with CD-SGD's mechanism.
        dc_lambda: f32,
    },
    /// Local SGD / K-AVG / periodic averaging (the other
    /// communication-reduction family the paper's §1 surveys [Lin et al.
    /// 2019; Zhou & Cong 2018; Haddadpour et al. 2019]): every worker
    /// takes `sync_period` purely local steps, then the accumulated
    /// gradients are averaged through the server — equivalent to
    /// averaging the local models when the local and global rates agree.
    LocalSgd {
        /// Learning rate of the local steps.
        local_lr: f32,
        /// Steps between synchronizations (H); 1 degenerates to S-SGD
        /// when `local_lr == global_lr`.
        sync_period: usize,
    },
    /// Decentralized synchronous SGD over ring all-reduce (the
    /// Horovod-style collective baseline from the paper's related work):
    /// no parameter server; every round the workers mean-reduce their raw
    /// gradients through the ring and apply the update locally.
    ArSgd,
    /// Error-compensated 2-bit quantized SGD after Wu et al., "Error
    /// Compensated Quantized SGD and its Applications to Large-scale
    /// Distributed Optimization" (ECQ-SGD) — BIT-SGD with damped
    /// residual feedback. Each worker pushes a 2-bit threshold
    /// quantization of the *corrected* gradient `c = g + α·e`, then
    /// decays the carried error `e ← β·(c − decode(q(c)))`. With
    /// `α = β = 1` this is plain error feedback (bit-identical to
    /// [`Algorithm::BitSgd`] at the same threshold); `α, β < 1` damp the
    /// accumulated error so stale compensation cannot destabilize the
    /// run.
    EcqSgd {
        /// Quantization threshold of the 2-bit codec.
        threshold: f32,
        /// Compensation gain α on the carried error.
        alpha: f32,
        /// Error decay β ∈ [0, 1] applied when the error is re-absorbed.
        beta: f32,
    },
    /// Blockwise momentum SGD with error feedback, after Zheng et al.,
    /// "Communication-Efficient Distributed Blockwise Momentum SGD with
    /// Error-Feedback" (dist-EF-blockSGD) — S-SGD with worker momentum in
    /// front of a 1-bit codec. Each worker keeps a per-key momentum
    /// buffer `m ← μm + g` and pushes a 1-bit sign quantization of
    /// `m + e` with a per-key (blockwise) L1 scale; the quantization
    /// error `e` is fed back next round. The server applies its
    /// configured optimizer (plain SGD in Zheng et al.'s
    /// single-momentum variant) to the decoded aggregate.
    EfSgd {
        /// Momentum factor μ (Zheng et al. use 0.9). Must be in `[0, 1)`.
        momentum: f32,
    },
}

impl Algorithm {
    /// Convenience constructor for the paper's CD-SGD (2-bit codec).
    pub fn cd_sgd(local_lr: f32, threshold: f32, k: usize, warmup: usize) -> Self {
        Self::cd_sgd_with(local_lr, Codec::TwoBit { threshold }, k, warmup)
    }

    /// CD-SGD with an arbitrary codec (the paper's future-work extension).
    pub fn cd_sgd_with(local_lr: f32, codec: Codec, k: usize, warmup: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Algorithm::CdSgd {
            local_lr,
            codec,
            k,
            warmup,
            dc_lambda: 0.0,
        }
    }

    /// Add DC-ASGD-style delay compensation to a CD-SGD configuration
    /// (extension; no effect on other algorithms).
    pub fn with_delay_compensation(mut self, lambda: f32) -> Self {
        if let Algorithm::CdSgd { dc_lambda, .. } = &mut self {
            *dc_lambda = lambda;
        }
        self
    }

    /// Convenience constructor for blockwise error-feedback momentum SGD
    /// (extension).
    ///
    /// # Panics
    /// Panics if `momentum` is outside `[0, 1)`; use
    /// [`Algorithm::validate`] for a typed error.
    pub fn ef_sgd(momentum: f32) -> Self {
        let algo = Algorithm::EfSgd { momentum };
        algo.validate().unwrap_or_else(|e| panic!("{e}"));
        algo
    }

    /// Convenience constructor for error-compensated quantized SGD
    /// (extension).
    ///
    /// # Panics
    /// Panics if `beta` is outside `[0, 1]`; use [`Algorithm::validate`]
    /// for a typed error.
    pub fn ecq_sgd(threshold: f32, alpha: f32, beta: f32) -> Self {
        let algo = Algorithm::EcqSgd {
            threshold,
            alpha,
            beta,
        };
        algo.validate().unwrap_or_else(|e| panic!("{e}"));
        algo
    }

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Algorithm::SSgd => "S-SGD".into(),
            Algorithm::OdSgd { .. } => "OD-SGD".into(),
            Algorithm::BitSgd { .. } => "BIT-SGD".into(),
            Algorithm::CdSgd { k, .. } => format!("CD-SGD(k={k})"),
            Algorithm::LocalSgd { sync_period, .. } => format!("LocalSGD(H={sync_period})"),
            Algorithm::ArSgd => "AR-SGD".into(),
            Algorithm::EcqSgd { alpha, beta, .. } => format!("ECQ-SGD(a={alpha},b={beta})"),
            Algorithm::EfSgd { momentum } => format!("EF-blockSGD(m={momentum})"),
        }
    }

    /// True for algorithms that keep delayed local weights.
    pub fn is_delayed(&self) -> bool {
        matches!(self, Algorithm::OdSgd { .. } | Algorithm::CdSgd { .. })
    }

    /// True for algorithms that ever push compressed gradients.
    pub fn uses_compression(&self) -> bool {
        matches!(
            self,
            Algorithm::BitSgd { .. }
                | Algorithm::CdSgd { .. }
                | Algorithm::EcqSgd { .. }
                | Algorithm::EfSgd { .. }
        )
    }

    /// True for the server-less ring all-reduce family: the trainer must
    /// build a ring group instead of parameter-server clients.
    pub fn uses_ring(&self) -> bool {
        matches!(self, Algorithm::ArSgd)
    }

    /// Structural validation, run by [`TrainConfig`] and the trainer
    /// before any thread spawns. A `Ok(())` here guarantees the strategy
    /// layer can be built for this algorithm.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            Algorithm::LocalSgd { sync_period: 0, .. } => Err(ConfigError::ZeroSyncPeriod),
            Algorithm::CdSgd { k: 0, .. } => Err(ConfigError::ZeroCorrectionPeriod),
            Algorithm::EfSgd { momentum } if !(0.0..1.0).contains(momentum) => {
                Err(ConfigError::InvalidMomentum(*momentum))
            }
            Algorithm::EcqSgd { beta, .. } if !(0.0..=1.0).contains(beta) => {
                Err(ConfigError::InvalidErrorDecay(*beta))
            }
            _ => Ok(()),
        }
    }
}

/// Which communication topology carries a server-less (ring all-reduce
/// family) run's collective exchanges. Ignored by parameter-server
/// algorithms, which always talk to the PS regardless of this field.
///
/// Every server-less run but the decentralized one synchronizes through
/// the ring all-reduce, whose reduction order is pinned per chunk (see
/// `cdsgd_ps::collective`), so its weights are bit-identical on every
/// substrate.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Topology {
    /// Default: the in-process ring (or the parameter server, for PS
    /// algorithms) — whatever the trainer would have built before
    /// topologies existed.
    #[default]
    Ps,
    /// Bandwidth-optimal ring all-reduce: each member sends
    /// `2·(N−1)/N` of the vector per round.
    Ring,
    /// Decentralized compressed training (Tang et al.): no global
    /// reduction at all — each worker exchanges codec-compressed model
    /// differences with its two ring neighbors and gossip-averages.
    /// Approximate (not bit-identical to the ring).
    Decentralized {
        /// Codec compressing the exchanged model differences.
        codec: Codec,
    },
}

impl Topology {
    /// Short name for run labels and bench output.
    pub fn name(&self) -> String {
        match self {
            Topology::Ps => "ps".into(),
            Topology::Ring => "ring".into(),
            Topology::Decentralized { codec } => format!("decentralized/{}", codec.name()),
        }
    }
}

/// Configuration of one training run.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// The algorithm under test.
    pub algo: Algorithm,
    /// Number of worker threads (the paper's M).
    pub num_workers: usize,
    /// Global learning rate η used by the server (eq. 10).
    pub global_lr: f32,
    /// Per-worker mini-batch size.
    pub batch_size: usize,
    /// Number of passes over each worker's shard.
    pub epochs: usize,
    /// Seed for model init, shuffling, and augmentation.
    pub seed: u64,
    /// Learning-rate decay points: at the *start* of `epoch`, set the
    /// server lr to `lr` (the paper adjusts at epochs 30/60/80 for
    /// ResNet-50). Kept sorted by epoch with one entry per epoch (the
    /// builders normalize), because both the trainer's server-side
    /// application and AR-SGD's worker-side `current_lr` scan it in
    /// order.
    pub lr_schedule: Vec<(usize, f32)>,
    /// Apply random crop + flip augmentation to training batches
    /// (requires NCHW data).
    pub augment: bool,
    /// Emulated network bandwidth in bytes/second: each server shard's
    /// pushes and pull replies share one link of this bandwidth (`None` =
    /// in-process speed; see `cdsgd_ps::ServerConfig::delay_per_byte`).
    /// Lets the real trainer reproduce the paper's communication-bound
    /// regimes.
    pub net_bytes_per_sec: Option<f64>,
    /// Scripted fault injection: `(worker, fault)` wraps that worker's
    /// parameter-server client in a [`cdsgd_ps::FaultyClient`] executing
    /// the fault. `None` (the default) trains fault-free.
    pub fault: Option<(usize, WorkerFault)>,
    /// How long the trainer waits for an epoch's worker reports before
    /// declaring a silently-stalled worker lost. `None` (the default)
    /// waits unboundedly, matching pre-supervision behaviour for
    /// arbitrarily slow hardware.
    pub epoch_deadline: Option<Duration>,
    /// Server-side round deadline, forwarded to
    /// [`cdsgd_ps::ServerConfig::round_deadline`]: a round left partial
    /// this long fails with `WorkerLost` instead of stalling all pullers.
    pub round_deadline: Option<Duration>,
    /// Server-side optimizer applied to each aggregated round (extension;
    /// the paper's eq. 10 is [`ServerOptKind::PlainSgd`], the default).
    pub server_opt: ServerOptKind,
    /// Scripted graceful departures: `(worker, epoch)` makes that worker
    /// announce `Leave` to the server and exit cleanly at the *start* of
    /// `epoch` (≥ 1). Non-empty departures switch the server into elastic
    /// membership so the remaining workers' rounds re-size their quorum
    /// instead of deadlocking or tripping `WorkerLost`. Empty (the
    /// default) trains with fixed membership, bit-identical to a run
    /// without this field.
    pub departures: Vec<(usize, usize)>,
    /// Cross-layer telemetry sink: every layer of the run (the workers'
    /// Fig. 5 op spans, server rounds and dequant spans, traffic, epoch
    /// rollups, aborts) emits typed events into it. Disabled by default,
    /// in which case no event is constructed and no clock is read.
    pub telemetry: Telemetry,
    /// Hot worker replacement (DESIGN.md §14): when a worker dies mid-run
    /// and the budget grants a restart, the supervisor respawns a
    /// replacement resuming from the start of the epoch the victim never
    /// finished, instead of aborting with `WorkerLost`. The default
    /// policy (zero restarts) keeps every loss fatal — recovery is
    /// strictly opt-in.
    pub restart: RestartPolicy,
    /// First epoch index this run executes (default 0). A resuming
    /// worker sets this to the number of epochs already completed: data
    /// shuffles for the skipped epochs are replayed to fast-forward the
    /// RNG, and the strategy re-bases on the server's weights at round
    /// `start_epoch * iters_per_epoch` before the first batch.
    pub start_epoch: usize,
    /// Directory for per-worker durable snapshots
    /// ([`cdsgd_ps::recover`], kind `worker`).
    /// `None` (the default) writes nothing.
    pub worker_ckpt_dir: Option<PathBuf>,
    /// Write a worker checkpoint every this many *epochs* (worker state
    /// is only consistent at epoch boundaries). Ignored without
    /// [`TrainConfig::worker_ckpt_dir`].
    pub worker_ckpt_every: usize,
    /// Collective topology for server-less algorithms (see [`Topology`]).
    /// Ignored (must stay [`Topology::Ps`]) for PS algorithms.
    pub topology: Topology,
}

impl TrainConfig {
    /// A config with the defaults used throughout the paper's
    /// experiments: lr 0.1, batch 32, 10 epochs.
    ///
    /// # Panics
    /// Panics on a structurally invalid configuration; use
    /// [`TrainConfig::try_new`] for a typed [`ConfigError`].
    pub fn new(algo: Algorithm, num_workers: usize) -> Self {
        Self::try_new(algo, num_workers).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`TrainConfig::new`] but returns a [`ConfigError`] instead of
    /// panicking on an invalid algorithm (zero sync period / zero k /
    /// out-of-range momentum) or zero workers.
    pub fn try_new(algo: Algorithm, num_workers: usize) -> Result<Self, ConfigError> {
        if num_workers == 0 {
            return Err(ConfigError::NoWorkers);
        }
        algo.validate()?;
        Ok(Self {
            algo,
            num_workers,
            global_lr: 0.1,
            batch_size: 32,
            epochs: 10,
            seed: 42,
            lr_schedule: Vec::new(),
            augment: false,
            net_bytes_per_sec: None,
            fault: None,
            epoch_deadline: None,
            round_deadline: None,
            server_opt: ServerOptKind::PlainSgd,
            departures: Vec::new(),
            telemetry: Telemetry::disabled(),
            restart: RestartPolicy::default(),
            start_epoch: 0,
            worker_ckpt_dir: None,
            worker_ckpt_every: 1,
            topology: Topology::Ps,
        })
    }

    /// Set the global learning rate.
    pub fn with_lr(mut self, lr: f32) -> Self {
        self.global_lr = lr;
        self
    }

    /// Set the per-worker batch size.
    pub fn with_batch_size(mut self, b: usize) -> Self {
        assert!(b > 0);
        self.batch_size = b;
        self
    }

    /// Set the number of epochs.
    pub fn with_epochs(mut self, e: usize) -> Self {
        self.epochs = e;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Add an lr-decay point. The schedule is re-normalized (sorted by
    /// epoch, one entry per epoch with the latest addition winning), so
    /// callers may add points in any order.
    pub fn with_lr_decay(mut self, epoch: usize, lr: f32) -> Self {
        self.lr_schedule.push((epoch, lr));
        self.lr_schedule = normalize_schedule(std::mem::take(&mut self.lr_schedule));
        self
    }

    /// Install a full [`crate::LrSchedule`], replacing any existing decay
    /// points (also sets the initial global lr from the schedule's
    /// epoch-0 value).
    pub fn with_schedule(mut self, schedule: &crate::lr::LrSchedule) -> Self {
        let points = schedule.change_points(self.epochs);
        self.global_lr = schedule.at(0);
        self.lr_schedule = normalize_schedule(points.into_iter().filter(|&(e, _)| e > 0).collect());
        self
    }

    /// Script a graceful departure: `worker` leaves the run at the start
    /// of `epoch` (elastic membership; see [`TrainConfig::departures`]).
    pub fn with_departure(mut self, worker: usize, epoch: usize) -> Self {
        assert!(worker < self.num_workers, "departing worker out of range");
        assert!(
            worker != 0,
            "worker 0 evaluates the global model each epoch; it cannot depart"
        );
        assert!(epoch >= 1, "a worker cannot depart before epoch 1");
        assert!(
            !self.departures.iter().any(|&(w, _)| w == worker),
            "worker {worker} already departs"
        );
        self.departures.push((worker, epoch));
        assert!(
            self.departures.len() < self.num_workers,
            "at least one worker must stay for the whole run"
        );
        self
    }

    /// Inject a scripted fault into one worker's parameter-server client
    /// (chaos testing; see [`WorkerFault`]).
    pub fn with_fault(mut self, worker: usize, fault: WorkerFault) -> Self {
        assert!(worker < self.num_workers, "fault worker out of range");
        self.fault = Some((worker, fault));
        self
    }

    /// Bound how long the trainer waits for an epoch's reports before
    /// declaring a silent worker lost.
    pub fn with_epoch_deadline(mut self, deadline: Duration) -> Self {
        self.epoch_deadline = Some(deadline);
        self
    }

    /// Bound how long the server leaves a round partial before failing it
    /// with `WorkerLost`.
    pub fn with_round_deadline(mut self, deadline: Duration) -> Self {
        self.round_deadline = Some(deadline);
        self
    }

    /// Enable data augmentation.
    pub fn with_augment(mut self, on: bool) -> Self {
        self.augment = on;
        self
    }

    /// Emulate a shared network of the given bandwidth (bytes/second).
    /// [`TrainConfig::validate`] refuses one that is not finite and
    /// positive.
    pub fn with_emulated_network(mut self, bytes_per_sec: f64) -> Self {
        self.net_bytes_per_sec = Some(bytes_per_sec);
        self
    }

    /// Structural validation of the whole run, done by the trainer
    /// before any thread spawns: at least one worker, a valid algorithm
    /// ([`Algorithm::validate`]) and, if set, a finite positive emulated
    /// bandwidth. Struct-literal updates can bypass the checks of
    /// [`TrainConfig::try_new`]; this catches them.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_workers == 0 {
            return Err(ConfigError::NoWorkers);
        }
        self.algo.validate()?;
        match self.net_bytes_per_sec {
            Some(bps) if !(bps.is_finite() && bps > 0.0) => Err(ConfigError::InvalidBandwidth(bps)),
            _ => Ok(()),
        }
    }

    /// Choose the server-side optimizer (extension; default plain SGD).
    pub fn with_server_opt(mut self, opt: ServerOptKind) -> Self {
        self.server_opt = opt;
        self
    }

    /// Attach a telemetry sink observing the whole run (see
    /// [`TrainConfig::telemetry`]).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Allow hot worker replacement under this policy (see
    /// [`TrainConfig::restart`]).
    pub fn with_restart_policy(mut self, policy: RestartPolicy) -> Self {
        self.restart = policy;
        self
    }

    /// Resume at `epoch` instead of 0 (see [`TrainConfig::start_epoch`]).
    ///
    /// # Panics
    /// Panics if `epoch >= epochs` — a resume past the end is a caller
    /// bug, not a no-op run.
    pub fn with_start_epoch(mut self, epoch: usize) -> Self {
        assert!(
            epoch < self.epochs,
            "start epoch {epoch} must precede the final epoch {}",
            self.epochs
        );
        self.start_epoch = epoch;
        self
    }

    /// Write per-worker durable snapshots into `dir` every `every`
    /// epochs (see [`TrainConfig::worker_ckpt_dir`]).
    ///
    /// # Panics
    /// Panics if `every == 0`.
    pub fn with_worker_checkpoints(mut self, dir: impl Into<PathBuf>, every: usize) -> Self {
        assert!(every > 0, "checkpoint interval must be at least 1");
        self.worker_ckpt_dir = Some(dir.into());
        self.worker_ckpt_every = every;
        self
    }

    /// Choose the collective topology for a server-less run (see
    /// [`Topology`]).
    ///
    /// # Panics
    /// Panics when a non-default topology is paired with a
    /// parameter-server algorithm: PS algorithms route every exchange
    /// through the server, so a collective topology would silently be
    /// dead configuration.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        assert!(
            topology == Topology::Ps || self.algo.uses_ring(),
            "topology {} requires a server-less algorithm (arsgd); {} uses the parameter server",
            topology.name(),
            self.algo.name()
        );
        self.topology = topology;
        self
    }
}

/// Sort decay points by epoch (stable, so insertion order breaks ties)
/// and keep only the last entry per epoch.
fn normalize_schedule(mut points: Vec<(usize, f32)>) -> Vec<(usize, f32)> {
    points.sort_by_key(|&(epoch, _)| epoch);
    let mut out: Vec<(usize, f32)> = Vec::with_capacity(points.len());
    for p in points {
        match out.last_mut() {
            Some(last) if last.0 == p.0 => *last = p,
            _ => out.push(p),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(Algorithm::SSgd.name(), "S-SGD");
        assert_eq!(Algorithm::OdSgd { local_lr: 0.1 }.name(), "OD-SGD");
        assert_eq!(Algorithm::BitSgd { threshold: 0.5 }.name(), "BIT-SGD");
        assert_eq!(Algorithm::cd_sgd(0.1, 0.5, 5, 10).name(), "CD-SGD(k=5)");
    }

    #[test]
    fn classification_flags() {
        assert!(!Algorithm::SSgd.is_delayed());
        assert!(!Algorithm::SSgd.uses_compression());
        assert!(Algorithm::OdSgd { local_lr: 0.1 }.is_delayed());
        assert!(Algorithm::BitSgd { threshold: 0.5 }.uses_compression());
        let cd = Algorithm::cd_sgd(0.1, 0.5, 5, 10);
        assert!(cd.is_delayed() && cd.uses_compression());
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        Algorithm::cd_sgd(0.1, 0.5, 0, 10);
    }

    #[test]
    fn codec_builders_and_names() {
        assert_eq!(Codec::TwoBit { threshold: 0.5 }.name(), "2bit");
        assert_eq!(Codec::OneBit.name(), "1bit");
        assert_eq!(Codec::TopK { ratio: 0.01 }.name(), "top0.010");
        assert_eq!(Codec::Qsgd { levels: 4, seed: 0 }.name(), "qsgd4");
        // Each codec builds a working compressor.
        for codec in [
            Codec::TwoBit { threshold: 0.5 },
            Codec::OneBit,
            Codec::TopK { ratio: 0.5 },
            Codec::Qsgd { levels: 4, seed: 0 },
        ] {
            let mut c = codec.build();
            let payload = c.compress(0, &[0.9, -0.9]);
            assert_eq!(payload.len(), 2);
        }
    }

    #[test]
    fn cd_sgd_with_custom_codec() {
        let a = Algorithm::cd_sgd_with(0.1, Codec::TopK { ratio: 0.01 }, 5, 10);
        assert!(a.is_delayed() && a.uses_compression());
        if let Algorithm::CdSgd { codec, .. } = &a {
            assert_eq!(codec, &Codec::TopK { ratio: 0.01 });
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn builder_chain() {
        let cfg = TrainConfig::new(Algorithm::SSgd, 4)
            .with_lr(0.4)
            .with_batch_size(64)
            .with_epochs(3)
            .with_seed(7)
            .with_lr_decay(2, 0.04)
            .with_augment(true);
        assert_eq!(cfg.global_lr, 0.4);
        assert_eq!(cfg.batch_size, 64);
        assert_eq!(cfg.epochs, 3);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.lr_schedule, vec![(2, 0.04)]);
        assert!(cfg.augment);
    }

    #[test]
    fn lr_schedule_is_normalized_sorted_and_deduped() {
        // Regression: `current_lr` and the trainer's per-epoch scan both
        // assume the schedule is sorted ascending; an unsorted input used
        // to make AR-SGD's worker-side lr diverge from the server-side
        // application. Points added out of order must come out sorted,
        // and a repeated epoch keeps the latest value.
        let cfg = TrainConfig::new(Algorithm::SSgd, 2)
            .with_lr_decay(5, 0.01)
            .with_lr_decay(2, 0.1)
            .with_lr_decay(2, 0.2);
        assert_eq!(cfg.lr_schedule, vec![(2, 0.2), (5, 0.01)]);
    }

    #[test]
    fn fault_and_deadline_builders() {
        let cfg = TrainConfig::new(Algorithm::SSgd, 2)
            .with_fault(1, WorkerFault::KillAtRound { round: 3 })
            .with_epoch_deadline(Duration::from_secs(5))
            .with_round_deadline(Duration::from_secs(1));
        assert_eq!(cfg.fault, Some((1, WorkerFault::KillAtRound { round: 3 })));
        assert_eq!(cfg.epoch_deadline, Some(Duration::from_secs(5)));
        assert_eq!(cfg.round_deadline, Some(Duration::from_secs(1)));
    }

    #[test]
    #[should_panic(expected = "fault worker out of range")]
    fn fault_worker_must_exist() {
        TrainConfig::new(Algorithm::SSgd, 2).with_fault(2, WorkerFault::KillAtRound { round: 0 });
    }

    #[test]
    fn validate_catches_structural_errors() {
        assert_eq!(
            Algorithm::LocalSgd {
                local_lr: 0.1,
                sync_period: 0,
            }
            .validate(),
            Err(ConfigError::ZeroSyncPeriod)
        );
        assert_eq!(
            Algorithm::CdSgd {
                local_lr: 0.1,
                codec: Codec::OneBit,
                k: 0,
                warmup: 0,
                dc_lambda: 0.0,
            }
            .validate(),
            Err(ConfigError::ZeroCorrectionPeriod)
        );
        assert_eq!(
            Algorithm::EfSgd { momentum: 1.0 }.validate(),
            Err(ConfigError::InvalidMomentum(1.0))
        );
        assert_eq!(
            Algorithm::EfSgd { momentum: -0.1 }.validate(),
            Err(ConfigError::InvalidMomentum(-0.1))
        );
        for ok in [
            Algorithm::SSgd,
            Algorithm::ArSgd,
            Algorithm::cd_sgd(0.1, 0.5, 2, 3),
            Algorithm::ef_sgd(0.9),
            Algorithm::LocalSgd {
                local_lr: 0.1,
                sync_period: 4,
            },
        ] {
            assert_eq!(ok.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_refuses_a_bandwidth_that_is_not_finite_and_positive() {
        let cfg = TrainConfig::new(Algorithm::SSgd, 2);
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.clone().with_emulated_network(1e6).validate(), Ok(()));
        for bps in [0.0, -5.0 * 1024.0 * 1024.0, f64::NAN, f64::INFINITY] {
            let err = cfg
                .clone()
                .with_emulated_network(bps)
                .validate()
                .unwrap_err();
            assert!(
                matches!(err, ConfigError::InvalidBandwidth(b) if b.to_bits() == bps.to_bits()),
                "{bps}: {err:?}"
            );
        }
        let mut none = cfg;
        none.num_workers = 0;
        assert_eq!(none.validate(), Err(ConfigError::NoWorkers));
    }

    #[test]
    fn try_new_surfaces_typed_errors() {
        assert_eq!(
            TrainConfig::try_new(Algorithm::SSgd, 0).unwrap_err(),
            ConfigError::NoWorkers
        );
        let err = TrainConfig::try_new(
            Algorithm::LocalSgd {
                local_lr: 0.1,
                sync_period: 0,
            },
            2,
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::ZeroSyncPeriod);
        assert_eq!(err.to_string(), "sync period must be at least 1");
    }

    #[test]
    #[should_panic(expected = "sync period must be at least 1")]
    fn zero_sync_period_rejected_at_construction() {
        TrainConfig::new(
            Algorithm::LocalSgd {
                local_lr: 0.1,
                sync_period: 0,
            },
            2,
        );
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_rejected() {
        TrainConfig::new(Algorithm::SSgd, 0);
    }

    #[test]
    #[should_panic(expected = "momentum must be in [0, 1)")]
    fn ef_momentum_out_of_range_rejected() {
        Algorithm::ef_sgd(1.5);
    }

    #[test]
    fn server_opt_defaults_to_plain_sgd_and_chains() {
        let cfg = TrainConfig::new(Algorithm::SSgd, 2);
        assert_eq!(cfg.server_opt, ServerOptKind::PlainSgd);
        let cfg = cfg.with_server_opt(ServerOptKind::Nesterov { momentum: 0.9 });
        assert_eq!(cfg.server_opt, ServerOptKind::Nesterov { momentum: 0.9 });
    }

    #[test]
    fn ring_flag_only_for_arsgd() {
        assert!(Algorithm::ArSgd.uses_ring());
        for a in [
            Algorithm::SSgd,
            Algorithm::cd_sgd(0.1, 0.5, 2, 3),
            Algorithm::ef_sgd(0.9),
            Algorithm::ecq_sgd(0.5, 1.0, 1.0),
        ] {
            assert!(!a.uses_ring());
        }
    }

    #[test]
    fn ecq_sgd_classification_and_validation() {
        let a = Algorithm::ecq_sgd(0.5, 0.9, 0.8);
        assert!(a.uses_compression());
        assert!(!a.is_delayed());
        assert_eq!(a.name(), "ECQ-SGD(a=0.9,b=0.8)");
        let err = Algorithm::EcqSgd {
            threshold: 0.5,
            alpha: 1.0,
            beta: 1.5,
        }
        .validate()
        .unwrap_err();
        assert_eq!(err, ConfigError::InvalidErrorDecay(1.5));
        assert_eq!(
            err.to_string(),
            "error decay beta must be in [0, 1], got 1.5"
        );
    }

    #[test]
    #[should_panic(expected = "error decay beta must be in [0, 1]")]
    fn ecq_beta_out_of_range_rejected() {
        Algorithm::ecq_sgd(0.5, 1.0, -0.1);
    }

    #[test]
    fn topology_defaults_to_ps_and_chains_for_arsgd() {
        let cfg = TrainConfig::new(Algorithm::SSgd, 2);
        assert_eq!(cfg.topology, Topology::Ps);
        for topo in [
            Topology::Ring,
            Topology::Decentralized {
                codec: Codec::TwoBit { threshold: 0.5 },
            },
        ] {
            let cfg = TrainConfig::new(Algorithm::ArSgd, 3).with_topology(topo.clone());
            assert_eq!(cfg.topology, topo);
        }
        // Ps is always allowed (explicit no-op).
        let cfg = TrainConfig::new(Algorithm::SSgd, 2).with_topology(Topology::Ps);
        assert_eq!(cfg.topology, Topology::Ps);
    }

    #[test]
    fn topology_names() {
        assert_eq!(Topology::Ps.name(), "ps");
        assert_eq!(Topology::Ring.name(), "ring");
        assert_eq!(
            Topology::Decentralized {
                codec: Codec::TwoBit { threshold: 0.5 }
            }
            .name(),
            "decentralized/2bit"
        );
    }

    #[test]
    #[should_panic(expected = "requires a server-less algorithm")]
    fn collective_topology_rejected_for_ps_algorithms() {
        TrainConfig::new(Algorithm::SSgd, 2).with_topology(Topology::Ring);
    }
}
