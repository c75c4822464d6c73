//! # cdsgd-ps
//!
//! An in-process, multi-threaded parameter server with MXNet-kvstore-like
//! semantics — the substrate standing in for the paper's PS architecture
//! over InfiniBand (DESIGN.md §2).
//!
//! * One lock guards the global weights, sharded by integer key (one key
//!   per layer parameter), and the thread that delivers a message runs
//!   them: the server has no thread of its own. Every decision —
//!   aggregation, the pull window, membership, deadlines — is made by
//!   an I/O-free shard core that takes [`cdsgd_net::wire::WireMsg`]s,
//!   the one request vocabulary of the in-process client, `psd` and the
//!   wire alike, and is tested under seeded schedules on a fake clock.
//! * Workers [`ParamClient::push`] gradients — raw f32 or any
//!   [`cdsgd_compress::Compressed`] payload; the server decodes before
//!   aggregating (exactly as the paper notes: "server nodes must decode
//!   the quantified gradients into 32 bits before updating global
//!   weights").
//! * Aggregation is synchronous per key and iteration: the global update
//!   `W ← W − η/N · Σ_g decode(grad_g)` (paper eq. 10) fires once all `N`
//!   workers' pushes for that round have arrived.
//! * [`ParamClient::pull`] blocks until the requested version (number of
//!   completed updates) is available, which is precisely the dependency
//!   the local-update mechanism removes from the critical path.
//! * [`TrafficStats`] counts every byte that would cross the network, so
//!   experiments can report communication volume per algorithm.
//!
//! * The [`net`] module serves the same server over real transports
//!   (in-process loopback sockets or TCP): [`ParamClient`] /
//!   [`PsBackend`] keep the trainer agnostic of the deployment shape,
//!   and the wire protocol is bit-deterministic, so loopback, TCP, and
//!   in-process runs produce identical weights.
//! * A client speaks that same vocabulary: every layer of a worker's
//!   client stack — [`PsClient`], [`RemoteClient`], [`ShardedClient`],
//!   the [`WorkerSession`] and the fault layer — is one
//!   [`ParamClient::request`] taking a `WireMsg`, and the typed calls
//!   (push, pull, membership, control) are written once, on the trait.
//!   Which reply answers which request is decided in one place,
//!   [`cdsgd_net::wire::answers`].
//! * The [`collective`] module synchronizes workers with no server at
//!   all: a two-verb [`Collective`] served by one ring, [`WireRing`],
//!   over those same transports, bit-identical across substrates by a
//!   pinned reduction order whose executable statement is
//!   [`ring_ordered_sum`]. Its step yields for at most a millisecond,
//!   then sleeps in `poll(2)`, on both kinds of link.
//!
//! How a run is stood up, and how a worker attaches to it, is decided
//! here once. Each server type has a short constructor and one full form
//! taking a telemetry handle (and [`Durability`] for the two server
//! types): [`ParamServer::start`] / [`ParamServer::start_with`],
//! [`PsNetServer::start`] / [`PsNetServer::start_with`], and
//! [`NetCluster::start_loopback`] / [`NetCluster::start_tcp_local`] /
//! [`NetCluster::connect`] with [`NetCluster::traced`].
//! [`AllReduceBackend::ring`] is the one server-less backend, and
//! [`WireRing::join`] wires one rank of a multi-process group. A networked
//! worker's client stack (dial → register → heartbeat → fault) is layered
//! by [`NetCluster::attach`] around one [`WorkerSession`], whose rebase,
//! replay and re-issue rules live in an I/O-free core; its
//! [`AttachedWorker`] owns the heartbeat thread and says goodbye on the
//! connections the pushes rode.
//!
//! ```
//! use cdsgd_ps::{ParamClient, ParamServer, ServerConfig};
//! use cdsgd_compress::Compressed;
//!
//! let ps = ParamServer::start(vec![vec![0.0; 4]], ServerConfig::new(1, 0.5));
//! let client = ps.client();
//! client.push(0, 0, Compressed::Raw(vec![1.0, 2.0, 3.0, 4.0])).unwrap();
//! let w = client.pull(0, 1).unwrap(); // Arc<[f32]>: shared with every puller
//! assert_eq!(*w, [-0.5, -1.0, -1.5, -2.0]);
//! ps.shutdown();
//! ```

mod api;
mod attach;
mod client;
pub mod collective;
mod fault;
mod link;
pub mod net;
pub mod opt;
pub mod recover;
mod remote;
mod server;
mod session;
mod shard;
mod sharded;
mod spares;
mod stats;

pub use api::{InProcessBackend, ParamClient, PsBackend};
pub use attach::{Attach, AttachedWorker, WorkerSession};
pub use cdsgd_net::NetError;
pub use client::{PendingPull, PendingReply, PsClient};
pub use collective::{
    chunk_range, ring_ordered_sum, AllReduceBackend, Collective, CollectiveGroup, WireMode,
    WireRing,
};
pub use fault::{FaultyClient, WorkerFault};
pub use net::{NetCluster, PsNetServer, RemoteClient};
pub use opt::{HeavyBall, Nesterov, PlainSgd, ServerOpt, ServerOptKind};
pub use recover::{Checkpoint, CheckpointError, CheckpointPolicy, Durability};
pub use server::{ElasticConfig, ParamServer, ServerConfig};
pub use shard::MAX_ELASTIC_WORKERS;
pub use sharded::{partition_keys, ShardedClient};
pub use stats::TrafficStats;

/// Parameter key: index of a parameter tensor (layer) in the model's
/// stable visitation order.
pub type Key = usize;
