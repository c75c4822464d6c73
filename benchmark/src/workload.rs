//! The five workloads: what each trains, on which deployment, and the
//! analytic byte books its traffic counters must equal.
//!
//! Every workload is 2 workers, batch 16, 8 steps per epoch (so one
//! epoch is one timing sample), no test set, closed loop: a worker
//! issues its next step only after the previous one completed.

use cd_sgd::{Algorithm, Topology, TrainConfig, Trainer};
use cdsgd_compress::{GradientCompressor, TwoBitQuantizer};
use cdsgd_data::{synth, Dataset};
use cdsgd_net::{pull_reply_frame_bytes, push_frame_bytes, NetConfig};
use cdsgd_nn::{models, Dense, Flatten, Relu, Sequential};
use cdsgd_ps::{
    chunk_range, AllReduceBackend, Collective, InProcessBackend, NetCluster, NetError, ParamClient,
    ParamServer, PsBackend, ServerConfig, TrafficStats, WireMode,
};
use cdsgd_tensor::SmallRng64;
use std::sync::Arc;

pub const WORKERS: usize = 2;
pub const BATCH: usize = 16;
pub const STEPS_PER_EPOCH: usize = 8;
/// Epochs at the start of every training run whose times are not
/// timing samples (thread start, first-touch allocation, pool fill).
pub const WARMUP_EPOCHS: usize = 2;
/// 2-bit threshold, local learning rate, correction period and S-SGD
/// warm-up rounds of the compressed/delayed algorithms: values at which
/// the MLP reaches loss < 0.05 within each workload's epoch budget.
pub const THRESHOLD: f32 = 0.02;
pub const LOCAL_LR: f32 = 0.05;
pub const K: usize = 4;
pub const CD_WARMUP: usize = 5;
/// The emulated link of `mlp_lowband_cdsgd`: the server sleeps per byte.
const LINK_BYTES_PER_S: f64 = 200.0 * 1024.0 * 1024.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Net {
    /// `models::resnet_cifar(8, 1, 10)` on `synth::cifar_like`.
    Resnet8,
    /// Flatten → Dense 784·1024 → ReLU → Dense 1024·1024 → ReLU →
    /// Dense 1024·10 on `synth::mnist_like`: 1.86 M parameters in 6
    /// keys, 7.4 MB raw per direction per worker-step.
    Mlp,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algo {
    Ssgd,
    BitSgd,
    CdSgd,
    ArSgd,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// `ParamServer` threads in this process, channels, no frames.
    InProc,
    /// `InProc` behind the emulated 200 MiB/s link.
    Lowband,
    /// One PS shard behind `NetCluster::start_tcp_local`.
    Tcp,
    /// No server: `AllReduceBackend::ring` over localhost TCP.
    RingTcp,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub net: Net,
    pub algo: Algo,
    pub backend: Backend,
    /// Global learning rate. 0.1, except where raw gradients are applied
    /// undamped: S-SGD and AR-SGD at 0.1 sit on the edge of stability
    /// on this task (some seeds spike back to chance level and never
    /// reach the gate), at 0.05 every seed tried converges smoothly.
    pub lr: f32,
    /// Run with `CDSGD_PAR_THRESHOLD=off` unless the caller set the
    /// variable. The vendored rayon stand-in spawns two OS threads for
    /// every tiled kernel call; ResNet-8 makes thousands of small calls
    /// a step, which costs it 2.2× at the best of times and, whenever
    /// the host is short of CPU, anything up to 5× from one run to the
    /// next — no measurement of it holds still. The MLP workloads keep
    /// the shipped default and so exercise the tiling.
    pub par_off: bool,
    /// Epochs of one training run, warm-up included. One run lasts a
    /// few seconds, so several fit into a measurement.
    pub epochs: usize,
    /// The quality gate on the epoch's mean train loss. A run must get
    /// to it — `core.time_to_loss_s` is when — or it counts as failed.
    /// Set where some forty seeds of the seed code arrive with two or
    /// more epochs to spare (ResNet-8 moves slowly: its gate is the
    /// chance level, ln 10). The last epoch is not held to it: CD-SGD's
    /// raw correction steps make single epochs spike.
    pub loss_target: f32,
}

/// The workloads, in the order `BENCHMARK.json` lists them: from the
/// least to the most sensitive to the host's speed. On the VM this was
/// written on, a core slows by a third after some minutes of sustained
/// load; whoever runs the list in order meets that change on the
/// link-bound workload, which barely notices.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "mlp_lowband_cdsgd",
        net: Net::Mlp,
        algo: Algo::CdSgd,
        backend: Backend::Lowband,
        lr: 0.1,
        par_off: false,
        epochs: 12,
        loss_target: 0.2,
    },
    Workload {
        name: "mlp_inproc_bitsgd",
        net: Net::Mlp,
        algo: Algo::BitSgd,
        backend: Backend::InProc,
        lr: 0.1,
        par_off: false,
        epochs: 12,
        loss_target: 0.05,
    },
    Workload {
        name: "mlp_tcp_ssgd",
        net: Net::Mlp,
        algo: Algo::Ssgd,
        backend: Backend::Tcp,
        lr: 0.05,
        par_off: false,
        epochs: 10,
        loss_target: 0.2,
    },
    Workload {
        name: "mlp_ringtcp_arsgd",
        net: Net::Mlp,
        algo: Algo::ArSgd,
        backend: Backend::RingTcp,
        lr: 0.05,
        par_off: false,
        epochs: 12,
        loss_target: 0.2,
    },
    Workload {
        name: "resnet8_inproc_cdsgd",
        net: Net::Resnet8,
        algo: Algo::CdSgd,
        backend: Backend::InProc,
        lr: 0.1,
        par_off: true,
        epochs: 12,
        loss_target: 2.3,
    },
];

/// How much of a workload one invocation runs: the full sizes, or the
/// `--quick` smoke sizes that only prove the plumbing and the schema.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub steps_per_epoch: usize,
    pub epochs: usize,
    pub warmup_epochs: usize,
    pub quick: bool,
}

fn resnet8(rng: &mut SmallRng64) -> Sequential {
    models::resnet_cifar(8, 1, 10, rng)
}

fn mlp(rng: &mut SmallRng64) -> Sequential {
    Sequential::new()
        .push(Flatten::new())
        .push(Dense::new(784, 1024, rng))
        .push(Relu::new())
        .push(Dense::new(1024, 1024, rng))
        .push(Relu::new())
        .push(Dense::new(1024, 10, rng))
}

/// A started deployment.
pub struct Deployment {
    pub backend: Box<dyn PsBackend>,
    /// Server-side counters, where the deployment exposes them:
    /// `NetCluster` hands out client-side counters only.
    pub server_stats: Option<Arc<TrafficStats>>,
}

/// One worker's end of the deployment.
pub enum Link {
    Ps(Box<dyn ParamClient>),
    Ring(Box<dyn Collective>),
}

/// What one worker starts from: its replica, data shard and link.
pub struct Seat {
    pub model: Sequential,
    pub shard: Dataset,
    pub link: Link,
}

/// Everything a run needs up to its first step. Building one is what
/// `setup_s` times.
pub struct Rig {
    /// One per worker, in worker order.
    pub seats: Vec<Seat>,
    pub init: Vec<Arc<[f32]>>,
    pub deployment: Deployment,
}

impl Rig {
    /// Close the worker connections, then stop the deployment.
    pub fn shutdown(self) {
        drop(self.seats);
        self.deployment.backend.shutdown();
    }
}

impl Workload {
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn size(&self, quick: bool) -> Size {
        if quick {
            Size {
                steps_per_epoch: 2,
                epochs: 2,
                warmup_epochs: 1,
                quick,
            }
        } else {
            Size {
                steps_per_epoch: STEPS_PER_EPOCH,
                epochs: self.epochs,
                warmup_epochs: WARMUP_EPOCHS,
                quick,
            }
        }
    }

    fn builder(&self) -> fn(&mut SmallRng64) -> Sequential {
        match self.net {
            Net::Resnet8 => resnet8,
            Net::Mlp => mlp,
        }
    }

    /// The seed synthesizes the data here and, through the config, sets
    /// the init and every worker's shuffling.
    fn dataset(&self, seed: u64, size: Size) -> Dataset {
        let n = WORKERS * BATCH * size.steps_per_epoch;
        match self.net {
            Net::Resnet8 => synth::cifar_like(n, seed),
            Net::Mlp => synth::mnist_like(n, seed),
        }
    }

    fn algorithm(&self) -> Algorithm {
        match self.algo {
            Algo::Ssgd => Algorithm::SSgd,
            Algo::BitSgd => Algorithm::BitSgd {
                threshold: THRESHOLD,
            },
            Algo::CdSgd => Algorithm::cd_sgd(LOCAL_LR, THRESHOLD, K, CD_WARMUP),
            Algo::ArSgd => Algorithm::ArSgd,
        }
    }

    /// Telemetry and profiling keep their defaults: off.
    fn train_config(&self, seed: u64, size: Size) -> TrainConfig {
        let mut cfg = TrainConfig::new(self.algorithm(), WORKERS)
            .with_lr(self.lr)
            .with_batch_size(BATCH)
            .with_epochs(size.epochs)
            .with_seed(seed);
        if self.backend == Backend::Lowband {
            cfg = cfg.with_emulated_network(LINK_BYTES_PER_S);
        }
        if self.backend == Backend::RingTcp {
            cfg = cfg.with_topology(Topology::Ring);
        }
        cfg
    }

    pub fn trainer(&self, seed: u64, size: Size) -> Trainer {
        Trainer::new(
            self.train_config(seed, size),
            self.builder(),
            self.dataset(seed, size),
            None,
        )
    }

    /// The server configuration `Trainer` derives from
    /// [`Workload::train_config`], for the benchmark-owned loop and the
    /// round-trip probes.
    pub fn server_config(&self, workers: usize) -> ServerConfig {
        let cfg = ServerConfig::new(workers, self.lr);
        if self.backend == Backend::Lowband {
            cfg.with_network_bandwidth(LINK_BYTES_PER_S)
        } else {
            cfg
        }
    }

    /// Start the workload's deployment; `Trainer::run_with` and
    /// [`Workload::setup`] both come through here.
    pub fn deploy(&self, init: Vec<Vec<f32>>, cfg: ServerConfig) -> Result<Deployment, NetError> {
        let mut server_stats = None;
        let backend: Box<dyn PsBackend> = match self.backend {
            Backend::InProc | Backend::Lowband => {
                let ps = ParamServer::start(init, cfg);
                server_stats = Some(ps.shared_stats());
                Box::new(InProcessBackend::new(ps))
            }
            Backend::Tcp => Box::new(NetCluster::start_tcp_local(
                init,
                cfg,
                1,
                NetConfig::default(),
            )?),
            Backend::RingTcp => Box::new(AllReduceBackend::ring(cfg.num_workers, WireMode::Tcp)?),
        };
        Ok(Deployment {
            backend,
            server_stats,
        })
    }

    /// Data synthesis, model init and backend start/connect — all that
    /// precedes the first step, in the order `Trainer` does it.
    pub fn setup(&self, seed: u64, size: Size) -> Result<Rig, NetError> {
        let data = self.dataset(seed, size);
        let build = self.builder();
        let mut proto = build(&mut SmallRng64::new(seed));
        let init = proto.export_params();
        let deployment = self.deploy(init.clone(), self.server_config(WORKERS))?;
        let mut ring = match self.backend {
            Backend::RingTcp => deployment.backend.take_collectives(WORKERS),
            _ => None,
        };
        let mut seats = Vec::with_capacity(WORKERS);
        for w in 0..WORKERS {
            seats.push(Seat {
                model: build(&mut SmallRng64::new(seed)),
                shard: data.shard(w, WORKERS),
                link: match &mut ring {
                    Some(group) => Link::Ring(group.members.remove(0)),
                    None => Link::Ps(deployment.backend.client()?),
                },
            });
        }
        Ok(Rig {
            seats,
            init: init.into_iter().map(Arc::from).collect(),
            deployment,
        })
    }

    pub fn codec(&self) -> Option<TwoBitQuantizer> {
        matches!(self.algo, Algo::BitSgd | Algo::CdSgd).then(|| TwoBitQuantizer::new(THRESHOLD))
    }

    /// Does the push of aggregate round `r` travel compressed?
    pub fn compresses(&self, r: u64) -> bool {
        match self.algo {
            Algo::BitSgd => true,
            // Warm-up rounds push raw; then every K-th push is the raw
            // k-step correction (Algorithm 1).
            Algo::CdSgd => {
                let w = CD_WARMUP as u64;
                r >= w && !(r - w).is_multiple_of(K as u64)
            }
            Algo::Ssgd | Algo::ArSgd => false,
        }
    }

    /// The byte books: `(push, pull)` bytes all workers together move in
    /// `rounds` aggregate rounds of a model with the given key sizes,
    /// from the frame-size formulas alone. The traffic counters of a
    /// run must equal them exactly.
    pub fn books(&self, key_sizes: &[usize], rounds: u64) -> (u64, u64) {
        let per_round = |f: &dyn Fn(usize) -> usize| -> u64 {
            key_sizes.iter().map(|&n| f(n) as u64).sum::<u64>() * WORKERS as u64
        };
        if self.algo == Algo::ArSgd {
            // The ring books payload bytes: every rank sends N−1 chunks
            // in the scatter and N−1 in the gather, and pulls nothing.
            let sent = |len: usize| -> usize {
                (0..WORKERS)
                    .flat_map(|rank| {
                        (0..WORKERS - 1).flat_map(move |s| {
                            [
                                (rank + WORKERS - s) % WORKERS,
                                (rank + 1 + WORKERS - s) % WORKERS,
                            ]
                        })
                    })
                    .map(|idx| 4 * chunk_range(len, WORKERS, idx).len())
                    .sum::<usize>()
            };
            let push: u64 = key_sizes.iter().map(|&n| sent(n) as u64).sum();
            return (push * rounds, 0);
        }
        let raw = per_round(&|n| push_frame_bytes(4 + 4 * n));
        let packed = match self.codec() {
            Some(codec) => per_round(&|n| push_frame_bytes(codec.wire_bytes(n))),
            None => raw,
        };
        let compressed_rounds = (0..rounds).filter(|&r| self.compresses(r)).count() as u64;
        let push = compressed_rounds * packed + (rounds - compressed_rounds) * raw;
        let pull = rounds * per_round(&pull_reply_frame_bytes);
        (push, pull)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cd_schedule_is_warmup_then_one_raw_push_in_k() {
        let cd = Workload::find("mlp_lowband_cdsgd").unwrap();
        let pattern: Vec<bool> = (0..14).map(|r| cd.compresses(r)).collect();
        let t = true;
        let f = false;
        assert_eq!(pattern, [f, f, f, f, f, f, t, t, t, f, t, t, t, f]);
        assert!(Workload::find("mlp_inproc_bitsgd").unwrap().compresses(0));
        assert!(!Workload::find("mlp_tcp_ssgd").unwrap().compresses(9));
    }

    /// The analytic books against a short run on every backend: 7 steps
    /// cover CD-SGD's raw warm-up, its raw correction and a compressed
    /// push.
    #[test]
    fn books_equal_the_counters_of_a_short_run() {
        for w in WORKLOADS {
            let size = Size {
                steps_per_epoch: 7,
                epochs: 1,
                warmup_epochs: 0,
                quick: true,
            };
            let trainer = w.trainer(7, size);
            let history = trainer
                .run_with(|init, cfg| w.deploy(init, cfg).map(|d| d.backend))
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let sizes: Vec<usize> = history.final_weights.iter().map(Vec::len).collect();
            let last = history.epochs.last().expect("one epoch");
            assert_eq!(
                (last.cumulative_push_bytes, last.cumulative_pull_bytes),
                w.books(&sizes, 7),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_findable() {
        for w in WORKLOADS {
            assert_eq!(Workload::find(w.name).unwrap().name, w.name);
        }
        assert!(Workload::find("nope").is_none());
    }
}
