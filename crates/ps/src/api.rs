//! Transport-generic client and backend abstractions.
//!
//! The trainer and workers speak to the parameter server exclusively
//! through these traits, so the same training loop runs bit-identically
//! whether the server lives in this process ([`crate::PsClient`]), behind
//! an in-memory loopback transport, or across localhost TCP
//! ([`crate::net::RemoteClient`]). Wire encoding is deterministic and
//! f32 round-trips are bit-exact, so the choice of backend cannot change
//! the training trajectory — only its wall-clock cost.

use crate::client::{PendingPull, PsClient};
use crate::server::ParamServer;
use crate::Key;
use cdsgd_compress::{BufferPool, Compressed};
use cdsgd_net::NetError;
use std::sync::Arc;

/// What a worker needs from a parameter-server connection. Object-safe so
/// workers hold an `Arc<dyn ParamClient>` and stay agnostic of the backend;
/// `Send + Sync` because every method takes `&self` and a client handle
/// may be shared across a worker's compute threads.
///
/// Every method is fallible: a dead server or broken connection surfaces
/// as a typed [`NetError`] instead of a worker-thread panic.
pub trait ParamClient: Send + Sync {
    /// Push a gradient payload for `key` on behalf of `worker`.
    fn push(&self, worker: usize, key: Key, payload: Compressed) -> Result<(), NetError>;

    /// Pull `key` blocking until exactly `min_version` aggregate updates
    /// have been applied.
    fn pull(&self, key: Key, min_version: u64) -> Result<Arc<[f32]>, NetError> {
        self.pull_async(key, min_version)?.wait()
    }

    /// Fire-and-forget pull: returns a handle resolving once the server
    /// reaches `min_version`, so transfers overlap computation. The
    /// server keeps only the latest two versions of a key: a
    /// `min_version` further behind, or a `key` it does not own, fails
    /// this pull alone with an error.
    fn pull_async(&self, key: Key, min_version: u64) -> Result<PendingPull, NetError>;

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
    /// Backends without a membership control plane reject the call.
    fn register(&self, _worker: usize) -> Result<Vec<u64>, NetError> {
        Err(NetError::Io(
            "membership is not supported by this backend".into(),
        ))
    }

    /// Elastic membership: `worker` departs gracefully — its queued
    /// pushes still feed their rounds, then the quorum shrinks. Default
    /// no-op: on fixed membership there is no table to leave.
    fn leave(&self, _worker: usize) -> Result<(), NetError> {
        Ok(())
    }

    /// Elastic membership: roll back this client's own tentative
    /// registration of `worker` — the two-phase cross-shard join
    /// ([`crate::ShardedClient::register`]) revoking the shards it
    /// admitted after a later shard failed. Unlike
    /// [`ParamClient::leave`], the server honours the cancel only when
    /// this connection's registration *promoted* the worker into the
    /// active set, so a rollback that trails a re-registration of an
    /// established member (a reconnect refresh) cannot demote it.
    /// Default no-op: without a membership table there is nothing to
    /// roll back.
    fn cancel_join(&self, _worker: usize) -> Result<(), NetError> {
        Ok(())
    }

    /// Elastic membership: liveness signal (pushes also count). Default
    /// no-op.
    fn heartbeat(&self, _worker: usize) -> Result<(), NetError> {
        Ok(())
    }

    /// The payload buffer pool compressors should draw from, so push
    /// payload storage recycles round over round.
    fn pool(&self) -> &BufferPool;
}

impl ParamClient for PsClient {
    fn push(&self, worker: usize, key: Key, payload: Compressed) -> Result<(), NetError> {
        PsClient::push(self, worker, key, payload)
    }

    fn pull_async(&self, key: Key, min_version: u64) -> Result<PendingPull, NetError> {
        PsClient::pull_async(self, key, min_version)
    }

    fn register(&self, worker: usize) -> Result<Vec<u64>, NetError> {
        PsClient::register(self, worker)
    }

    fn leave(&self, worker: usize) -> Result<(), NetError> {
        PsClient::leave(self, worker)
    }

    fn cancel_join(&self, worker: usize) -> Result<(), NetError> {
        PsClient::cancel_join(self, worker)
    }

    fn heartbeat(&self, worker: usize) -> Result<(), NetError> {
        PsClient::heartbeat(self, worker)
    }

    fn pool(&self) -> &BufferPool {
        PsClient::pool(self)
    }
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

/// The classic single-process deployment: one [`ParamServer`] thread in
/// the trainer's own process, clients talking over channels.
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
