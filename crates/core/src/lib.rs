//! # cd-sgd
//!
//! The paper's contribution: **CD-SGD** (distributed SGD with compression
//! and delay compensation) plus the three algorithms it is evaluated
//! against — S-SGD, OD-SGD (the local-update mechanism) and BIT-SGD
//! (MXNet 2-bit quantization) — implemented over the `cdsgd-ps`
//! parameter server with real multi-threaded workers.
//!
//! The semantics follow the paper's Algorithm 1 exactly:
//!
//! * **Warm-up phase** — `n` plain S-SGD iterations to stabilize weights.
//! * **Formal phase** — each worker computes gradients on its *local*
//!   weights, immediately applies the local update
//!   `W^loc_{i+1} = W_i − lr_loc · grad_i` (eq. 11) so the next iteration
//!   never waits on communication, pushes either a 2-bit compressed
//!   gradient (`count % k ≠ 0`) or the raw 32-bit gradient (the k-step
//!   correction), and defers the pull of the previous round's global
//!   weights until the local update actually needs them.
//! * The server applies `W ← W − η/N Σ decode(grad)` (eq. 10).
//!
//! ```no_run
//! use cd_sgd::{Algorithm, TrainConfig, Trainer};
//! use cdsgd_data::synth;
//! use cdsgd_nn::models;
//!
//! let data = synth::mnist_like(2_000, 42);
//! let (train, test) = data.split(0.9);
//! let cfg = TrainConfig::new(Algorithm::cd_sgd(0.4, 0.5, 2, 30), 2)
//!     .with_lr(0.1)
//!     .with_epochs(3);
//! let trainer = Trainer::new(cfg, |rng| models::lenet5(10, rng), train, Some(test));
//! let history = trainer.run();
//! println!("final test acc {:?}", history.final_test_acc());
//! ```

pub mod config;
pub mod convergence;
pub mod lr;
pub mod metrics;
mod strategy;
pub mod supervise;
pub mod trainer;
mod worker;

pub use cdsgd_ps::{ServerOptKind, WorkerFault};
pub use cdsgd_telemetry as telemetry;
pub use cdsgd_telemetry::{
    AggregateSink, Console, Event, JsonlSink, MemorySink, NullSink, Sink, Telemetry,
};
pub use config::{Algorithm, Codec, ConfigError, Topology, TrainConfig};
pub use lr::LrSchedule;
pub use metrics::{save_history, AbortRecord, EpochMetrics, TrainingHistory};
pub use strategy::Link;
pub use supervise::{PoisonBarrier, RestartBudget, RestartPolicy};
pub use trainer::{run_standalone_worker, TrainFailure, Trainer};
