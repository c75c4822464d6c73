//! Transport-generic client and backend abstractions.
//!
//! The trainer and workers speak to the parameter server exclusively
//! through these traits, so the same training loop runs bit-identically
//! whether the server lives in this process ([`crate::PsClient`]), behind
//! an in-process loopback transport, or across localhost TCP
//! ([`crate::net::RemoteClient`]). Wire encoding is deterministic and
//! f32 round-trips are bit-exact, so the choice of backend cannot change
//! the training trajectory — only its wall-clock cost.

use crate::client::{settle, PendingPull, PendingReply};
use crate::server::ParamServer;
use crate::Key;
use cdsgd_compress::{BufferPool, Compressed};
use cdsgd_net::wire::WireMsg;
use cdsgd_net::NetError;
use std::sync::Arc;

/// What a worker needs from a parameter-server connection. Object-safe so
/// workers hold an `Arc<dyn ParamClient>` and stay agnostic of the backend;
/// `Send + Sync` because every method takes `&self` and a client handle
/// may be shared across a worker's compute threads.
///
/// A layer of the client stack writes two methods: [`ParamClient::request`]
/// (one `match` on the [`WireMsg`], if the layer cares which kind it is)
/// and [`ParamClient::pool`]. Every typed call is provided here, once: it
/// builds its message with one saturating id conversion and reads its
/// value from the reply. Every call is fallible: a dead server or broken
/// connection surfaces as a typed [`NetError`] instead of a worker-thread
/// panic.
pub trait ParamClient: Send + Sync {
    /// Send `msg` to the server. For the kinds a shard answers
    /// ([`cdsgd_net::wire::answered`]), the reply it is owed; `None` for
    /// the fire-and-forget rest.
    fn request(&self, msg: WireMsg) -> Result<Option<PendingReply>, NetError>;

    /// The payload buffer pool compressors should draw from, so push
    /// payload storage recycles round over round.
    fn pool(&self) -> &BufferPool;

    /// Push a gradient payload for `key` on behalf of `worker`. Waits
    /// for no reply; to a server in this process, the push whose
    /// arrival completes a round runs its aggregation on this thread.
    fn push(&self, worker: usize, key: Key, payload: Compressed) -> Result<(), NetError> {
        let (worker, key) = (wire_id(worker), wire_id(key));
        self.request(WireMsg::Push {
            worker,
            key,
            payload,
        })
        .map(drop)
    }

    /// Pull `key` blocking until exactly `min_version` aggregate updates
    /// have been applied. The snapshot is shared (`Arc` bump) with every
    /// other worker pulling this version.
    fn pull(&self, key: Key, min_version: u64) -> Result<Arc<[f32]>, NetError> {
        self.pull_async(key, min_version)?.wait()
    }

    /// Fire-and-forget pull: returns a handle resolving once the server
    /// reaches `min_version`, so transfers overlap computation. The
    /// server keeps only the latest two versions of a key: a
    /// `min_version` further behind, or a `key` it does not own, fails
    /// this pull alone with an error.
    fn pull_async(&self, key: Key, min_version: u64) -> Result<PendingPull, NetError> {
        let key = wire_id(key);
        owed(self, WireMsg::Pull { key, min_version }).map(PendingPull)
    }

    /// Pull every key at `min_version` (resume / eval convenience):
    /// every request is on its way before the first reply is waited
    /// for — one round trip, not `num_keys` — then the replies are taken
    /// in key order.
    fn pull_all(&self, num_keys: usize, min_version: u64) -> Result<Vec<Arc<[f32]>>, NetError> {
        let pending: Vec<PendingPull> = (0..num_keys)
            .map(|k| self.pull_async(k, min_version))
            .collect::<Result<_, _>>()?;
        pending.iter().map(PendingPull::wait).collect()
    }

    /// Elastic membership: register `worker` with the server's membership
    /// table and block for the per-key version ack — the versions the
    /// joiner's first pulls must target (see [`crate::ElasticConfig`]).
    /// On a fixed-membership server this is just the version handshake.
    fn register(&self, worker: usize) -> Result<Vec<u64>, NetError> {
        let worker = wire_id(worker);
        call(self, WireMsg::Register { worker }, |reply| match reply {
            WireMsg::RegisterAck { versions } => Some(versions),
            _ => None,
        })
    }

    /// Elastic membership: `worker` departs gracefully — its queued
    /// pushes still feed their rounds, then the quorum shrinks. Rides the
    /// same ordered stream as this client's pushes, so it can never
    /// overtake one. A no-op on a fixed-membership server.
    fn leave(&self, worker: usize) -> Result<(), NetError> {
        let worker = wire_id(worker);
        self.request(WireMsg::Leave { worker }).map(drop)
    }

    /// Elastic membership: roll back this client's own tentative
    /// registration of `worker` — the two-phase cross-shard join
    /// ([`crate::ShardedClient`]) revoking the shards it admitted after a
    /// later shard failed. Unlike [`ParamClient::leave`], the server
    /// honours the cancel only when this connection's registration
    /// *promoted* the worker into the active set, so a rollback that
    /// trails a re-registration of an established member (a reconnect
    /// refresh) cannot demote it. It rides the same ordered stream as
    /// the registration it revokes, so it can never overtake it.
    fn cancel_join(&self, worker: usize) -> Result<(), NetError> {
        let worker = wire_id(worker);
        self.request(WireMsg::CancelJoin { worker }).map(drop)
    }

    /// Elastic membership: liveness signal for the heartbeat timeout
    /// (pushes also count).
    fn heartbeat(&self, worker: usize) -> Result<(), NetError> {
        let worker = wire_id(worker);
        self.request(WireMsg::Heartbeat { worker }).map(drop)
    }

    /// Change the server's global learning rate (takes effect on the next
    /// aggregate update).
    fn set_lr(&self, lr: f32) -> Result<(), NetError> {
        self.request(WireMsg::SetLr { lr }).map(drop)
    }

    /// All weights and per-key versions, in key order.
    fn snapshot(&self) -> Result<(Vec<Vec<f32>>, Vec<u64>), NetError> {
        call(self, WireMsg::Snapshot, |reply| match reply {
            WireMsg::SnapshotReply { weights, versions } => Some((weights, versions)),
            _ => None,
        })
    }

    /// Ask the server to write a durable checkpoint of its current state
    /// (recovery subsystem). Returns the captured round, or `None` if the
    /// server refused (no checkpoint directory configured, a round
    /// mid-flight, or the write failed — see its stderr).
    fn checkpoint_now(&self) -> Result<Option<u64>, NetError> {
        call(self, WireMsg::Checkpoint, |reply| match reply {
            WireMsg::CheckpointAck { round } => Some(round),
            _ => None,
        })
    }

    /// Tell a `psd` server process to exit ([`WireMsg::Shutdown`]).
    fn shutdown_server(&self) -> Result<(), NetError> {
        self.request(WireMsg::Shutdown).map(drop)
    }
}

/// A worker id or key as a [`WireMsg`] carries it. One no `u32` can hold
/// becomes `u32::MAX`, which no shard admits or owns, instead of wrapping
/// onto a real one.
fn wire_id(id: usize) -> u32 {
    u32::try_from(id).unwrap_or(u32::MAX)
}

/// The reply `client` owes for an answered `msg`.
fn owed<C: ParamClient + ?Sized>(client: &C, msg: WireMsg) -> Result<PendingReply, NetError> {
    client.request(msg)?.ok_or(NetError::ServerGone)
}

/// Send an answered `msg` and wait for the value `take` finds in its
/// reply.
fn call<C: ParamClient + ?Sized, T>(
    client: &C,
    msg: WireMsg,
    take: impl FnOnce(WireMsg) -> Option<T>,
) -> Result<T, NetError> {
    settle(owed(client, msg)?.wait(), take)
}

/// A running parameter-server deployment the trainer can drive: hands out
/// worker connections and answers the control-plane requests the trainer
/// makes between epochs. Implementations: [`InProcessBackend`] (server
/// threads in this process) and [`crate::net::NetCluster`] (loopback or
/// TCP shards, possibly in other OS processes).
pub trait PsBackend {
    /// A fresh client connection for one worker. The trainer asks only
    /// when the algorithm talks to a parameter server; a server-less
    /// backend answers with an error.
    fn client(&self) -> Result<Box<dyn ParamClient>, NetError>;

    /// Broadcast a learning-rate change to every shard.
    fn set_lr(&self, lr: f32) -> Result<(), NetError>;

    /// Globally-ordered weights + versions across all shards.
    fn snapshot(&self) -> Result<(Vec<Vec<f32>>, Vec<u64>), NetError>;

    /// Cumulative worker→server traffic (encoded frame bytes).
    fn bytes_pushed(&self) -> u64;

    /// Cumulative server→worker pull-reply traffic (encoded frame
    /// bytes). Same accounting surface as [`PsBackend::bytes_pushed`],
    /// mirrored for the downlink.
    fn bytes_pulled(&self) -> u64;

    /// The failure that ended aggregation on some shard (its round
    /// deadline fired), if any. `None` for backends that cannot observe
    /// shard failures (e.g. external server processes, which exit nonzero
    /// on their own instead).
    fn failure(&self) -> Option<NetError> {
        None
    }

    /// Surrender the per-worker collective handles of a server-less
    /// deployment (exactly once; `n` must match the group size). Server
    /// backends return `None` and the trainer builds its own in-process
    /// group when the algorithm asks for one — see
    /// [`crate::collective::AllReduceBackend`] for the backend that
    /// answers here.
    fn take_collectives(&self, _n: usize) -> Option<crate::collective::CollectiveGroup> {
        None
    }

    /// Stop the deployment (threads joined; remote shards told to exit).
    fn shutdown(self: Box<Self>);
}

/// The classic single-process deployment: one [`ParamServer`] in the
/// trainer's own process, run by the worker threads that use it.
pub struct InProcessBackend {
    ps: ParamServer,
}

impl InProcessBackend {
    /// Wrap a running server.
    pub fn new(ps: ParamServer) -> Self {
        Self { ps }
    }

    /// Borrow the wrapped server.
    pub fn server(&self) -> &ParamServer {
        &self.ps
    }
}

impl PsBackend for InProcessBackend {
    fn client(&self) -> Result<Box<dyn ParamClient>, NetError> {
        Ok(Box::new(self.ps.client()))
    }

    fn set_lr(&self, lr: f32) -> Result<(), NetError> {
        self.ps.client().set_lr(lr)
    }

    fn snapshot(&self) -> Result<(Vec<Vec<f32>>, Vec<u64>), NetError> {
        self.ps.client().snapshot()
    }

    fn bytes_pushed(&self) -> u64 {
        self.ps.stats().bytes_pushed()
    }

    fn bytes_pulled(&self) -> u64 {
        self.ps.stats().bytes_pulled()
    }

    fn failure(&self) -> Option<NetError> {
        self.ps.failure()
    }

    fn shutdown(self: Box<Self>) {
        self.ps.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;

    #[test]
    fn in_process_backend_round_trips() {
        let backend: Box<dyn PsBackend> = Box::new(InProcessBackend::new(ParamServer::start(
            vec![vec![0.0, 0.0]],
            ServerConfig::new(1, 1.0),
        )));
        let c = backend.client().unwrap();
        c.push(0, 0, Compressed::Raw(vec![1.0, 2.0])).unwrap();
        assert_eq!(*c.pull(0, 1).unwrap(), [-1.0, -2.0]);
        let (w, v) = backend.snapshot().unwrap();
        assert_eq!(w, vec![vec![-1.0, -2.0]]);
        assert_eq!(v, vec![1]);
        assert!(backend.bytes_pushed() > 0);
        backend.shutdown();
    }

    #[test]
    fn boxed_clients_are_object_safe_and_send() {
        fn assert_send<T: Send>(_: &T) {}
        let ps = ParamServer::start(vec![vec![0.0]], ServerConfig::new(1, 1.0));
        let c: Box<dyn ParamClient> = Box::new(ps.client());
        assert_send(&c);
        assert_eq!(*c.pull_all(1, 0).unwrap()[0], [0.0]);
        ps.shutdown();
    }
}
