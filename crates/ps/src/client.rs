//! Worker-side client handle.

use crate::remote::Reissue;
use crate::server::Msg;
use crate::stats::TrafficStats;
use crate::Key;
use cdsgd_compress::{BufferPool, Compressed};
use cdsgd_net::{NetError, Waker};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;

/// A snapshot reply: all weights plus the per-key versions.
pub(crate) type Snapshot = (Vec<Vec<f32>>, Vec<u64>);

/// The sending half of a reply the server thread owes a requester.
///
/// A requester that blocks on the receiver needs nothing more. An event
/// loop that parks in `poll(2)` instead passes its [`Waker`] along, and
/// is woken once the reply is resolved *either way*: sent, or dropped
/// unsent (how the server fails a registration or dies with pulls
/// parked). Dropping is what fires the wake, so neither path can forget
/// it.
pub(crate) struct ReplyTx<T> {
    // Field order is load-bearing: fields drop in declaration order, so
    // the sender is gone (value delivered, or channel disconnected)
    // before the wake that makes the loop look at the receiver.
    tx: SyncSender<T>,
    _wake: Option<WakeOnDrop>,
}

struct WakeOnDrop(Waker);

impl Drop for WakeOnDrop {
    fn drop(&mut self) {
        self.0.wake();
    }
}

impl<T> ReplyTx<T> {
    /// A one-shot reply channel; `waker` is the requester's event loop,
    /// if it has one.
    fn channel(waker: Option<&Waker>) -> (Self, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(1);
        let _wake = waker.cloned().map(WakeOnDrop);
        (Self { tx, _wake }, rx)
    }

    /// Deliver the reply (a requester that stopped waiting is fine).
    pub(crate) fn send(self, value: T) {
        let _ = self.tx.send(value);
    }
}

/// An outstanding asynchronous pull: resolves to the requested weight
/// snapshot once the server reaches the version. Uniform across the
/// in-process client and the networked [`crate::net::RemoteClient`] —
/// both deliver the decoded snapshot through this handle.
pub struct PendingPull {
    pub(crate) rx: Receiver<Result<Arc<[f32]>, NetError>>,
    /// Set on a pull through a [`crate::net::ReconnectingClient`]: what
    /// issues it again if its connection dies before the reply.
    pub(crate) reissue: Option<Reissue>,
}

impl PendingPull {
    /// Block until the snapshot arrives. [`NetError::ServerGone`] if the
    /// server (or the connection to it) died before replying; a typed
    /// error (e.g. [`NetError::WorkerLost`] from the server's round
    /// deadline) if the server answered but the round failed. Through a
    /// [`crate::net::ReconnectingClient`], a pull whose connection died
    /// is redialed and issued again by this call.
    pub fn wait(&self) -> Result<Arc<[f32]>, NetError> {
        let got = self.rx.recv().unwrap_or(Err(NetError::ServerGone));
        match &self.reissue {
            None => got,
            Some(reissue) => reissue.settle(got),
        }
    }

    /// Non-blocking probe (event-loop support): `None` while the pull is
    /// still in flight, `Some(..)` once it resolved — or once the server
    /// died, surfacing [`NetError::ServerGone`] like [`PendingPull::wait`].
    /// Only `wait` re-issues a pull, so this is for in-process pulls.
    pub(crate) fn try_wait(&self) -> Option<Result<Arc<[f32]>, NetError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(NetError::ServerGone)),
        }
    }
}

/// A cloneable, thread-safe handle for talking to a [`crate::ParamServer`].
///
/// Every request returns `Result<_, NetError>`: a dead server surfaces as
/// [`NetError::ServerGone`] instead of a worker-thread panic, so callers
/// degrade gracefully (and the networked client slots in behind the same
/// signatures via [`crate::ParamClient`]).
#[derive(Clone)]
pub struct PsClient {
    tx: Sender<Msg>,
    stats: Arc<TrafficStats>,
    pool: BufferPool,
    /// Woken whenever a reply to one of this handle's `*_async` requests
    /// is resolved. `None` for callers that block on the reply.
    waker: Option<Waker>,
}

impl PsClient {
    pub(crate) fn new(tx: Sender<Msg>, stats: Arc<TrafficStats>, pool: BufferPool) -> Self {
        Self {
            tx,
            stats,
            pool,
            waker: None,
        }
    }

    /// This handle for an event loop: every reply it is owed wakes
    /// `waker` when the server thread resolves it.
    pub(crate) fn waking(mut self, waker: Waker) -> Self {
        self.waker = Some(waker);
        self
    }

    /// Push a gradient payload for `key` on behalf of `worker`.
    /// Non-blocking: aggregation happens on the server thread.
    pub fn push(&self, worker: usize, key: Key, payload: Compressed) -> Result<(), NetError> {
        self.push_from(0, worker, key, payload)
    }

    /// [`PsClient::push`] attributed to a transport connection, so an
    /// elastic server can fence stragglers from a connection the
    /// worker's latest registration superseded (0 = in-process, never
    /// fenced against).
    pub(crate) fn push_from(
        &self,
        conn: u64,
        worker: usize,
        key: Key,
        payload: Compressed,
    ) -> Result<(), NetError> {
        self.tx
            .send(Msg::Push {
                worker,
                key,
                payload,
                conn,
            })
            .map_err(|_| NetError::ServerGone)
    }

    /// Pull the weights for `key`, blocking until exactly `min_version`
    /// aggregate updates have been applied to it. The returned snapshot is
    /// shared (`Arc` bump) with every other worker pulling this version —
    /// the server never copies weights to serve a pull.
    pub fn pull(&self, key: Key, min_version: u64) -> Result<Arc<[f32]>, NetError> {
        self.pull_async(key, min_version)?.wait()
    }

    /// Fire-and-forget pull request: returns a handle that yields the
    /// weights once the server reaches `min_version`. This is how delayed
    /// algorithms overlap the pull transfer with the next iteration's
    /// computation (MXNet's engine issues pulls asynchronously too).
    pub fn pull_async(&self, key: Key, min_version: u64) -> Result<PendingPull, NetError> {
        let (reply_tx, reply_rx) = ReplyTx::channel(self.waker.as_ref());
        self.tx
            .send(Msg::Pull {
                key,
                min_version,
                reply: reply_tx,
            })
            .map_err(|_| NetError::ServerGone)?;
        Ok(PendingPull {
            rx: reply_rx,
            reissue: None,
        })
    }

    /// Change the server's global learning rate (takes effect on the next
    /// aggregate update).
    pub fn set_lr(&self, lr: f32) -> Result<(), NetError> {
        self.tx
            .send(Msg::SetLr(lr))
            .map_err(|_| NetError::ServerGone)
    }

    /// Snapshot all weights and per-key versions (diagnostics).
    pub fn snapshot(&self) -> Result<(Vec<Vec<f32>>, Vec<u64>), NetError> {
        self.snapshot_async()?
            .recv()
            .map_err(|_| NetError::ServerGone)
    }

    /// Fire-and-forget snapshot request (event-loop support): the
    /// receiver resolves once the server replies, and disconnects if the
    /// server dies (or entered the failed state) first.
    pub(crate) fn snapshot_async(&self) -> Result<Receiver<Snapshot>, NetError> {
        let (reply_tx, reply_rx) = ReplyTx::channel(self.waker.as_ref());
        self.tx
            .send(Msg::Snapshot { reply: reply_tx })
            .map_err(|_| NetError::ServerGone)?;
        Ok(reply_rx)
    }

    /// Register `worker` with the membership table, blocking for the
    /// per-key version ack (see [`crate::ElasticConfig`]). On a
    /// fixed-membership server this is just the version handshake.
    pub fn register(&self, worker: usize) -> Result<Vec<u64>, NetError> {
        self.join_async(worker)?
            .recv()
            .map_err(|_| NetError::ServerGone)
    }

    /// Fire-and-forget registration (event-loop support).
    pub(crate) fn join_async(&self, worker: usize) -> Result<Receiver<Vec<u64>>, NetError> {
        self.join_async_from(0, worker)
    }

    /// [`PsClient::join_async`] attributed to a transport connection:
    /// on an elastic server the registering connection becomes the
    /// worker's owner for push fencing (0 = in-process, fences nothing).
    pub(crate) fn join_async_from(
        &self,
        conn: u64,
        worker: usize,
    ) -> Result<Receiver<Vec<u64>>, NetError> {
        let (reply_tx, reply_rx) = ReplyTx::channel(self.waker.as_ref());
        self.tx
            .send(Msg::Join {
                worker,
                conn,
                reply: reply_tx,
            })
            .map_err(|_| NetError::ServerGone)?;
        Ok(reply_rx)
    }

    /// Graceful departure: `worker` stops gating round completion once
    /// its queued pushes drain. No-op on a fixed-membership server.
    pub fn leave(&self, worker: usize) -> Result<(), NetError> {
        self.tx
            .send(Msg::Leave { worker })
            .map_err(|_| NetError::ServerGone)
    }

    /// Roll back a tentative registration of `worker`: the two-phase
    /// cross-shard join revoking a shard it admitted after a later shard
    /// failed. The server honours the cancel only from the connection
    /// whose registration *promoted* the worker into the active set, so
    /// a rollback that trails a reconnect's re-registration is a no-op
    /// (unlike [`PsClient::leave`], which demotes unconditionally).
    pub fn cancel_join(&self, worker: usize) -> Result<(), NetError> {
        self.cancel_join_from(0, worker)
    }

    /// [`PsClient::cancel_join`] attributed to a transport connection
    /// (0 = in-process).
    pub(crate) fn cancel_join_from(&self, conn: u64, worker: usize) -> Result<(), NetError> {
        self.tx
            .send(Msg::CancelJoin { worker, conn })
            .map_err(|_| NetError::ServerGone)
    }

    /// Ask the server to write a durable shard checkpoint of its current
    /// state (recovery subsystem). Returns the captured round, or `None`
    /// if the server refused (no checkpoint directory configured, a
    /// round mid-flight, or the write failed — see its stderr).
    pub fn checkpoint_now(&self) -> Result<Option<u64>, NetError> {
        self.checkpoint_async()?
            .recv()
            .map_err(|_| NetError::ServerGone)
    }

    /// Fire-and-forget checkpoint request (event-loop support).
    pub(crate) fn checkpoint_async(&self) -> Result<Receiver<Option<u64>>, NetError> {
        let (reply_tx, reply_rx) = ReplyTx::channel(self.waker.as_ref());
        self.tx
            .send(Msg::Checkpoint { reply: reply_tx })
            .map_err(|_| NetError::ServerGone)?;
        Ok(reply_rx)
    }

    /// Liveness signal for the heartbeat timeout (pushes also count).
    pub fn heartbeat(&self, worker: usize) -> Result<(), NetError> {
        self.tx
            .send(Msg::Heartbeat { worker })
            .map_err(|_| NetError::ServerGone)
    }

    /// Shared traffic counters.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// The payload buffer pool shared with the server: feed it to
    /// [`cdsgd_compress::GradientCompressor::compress_into`] so each push
    /// reuses storage the server recycled after decoding earlier rounds.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use crate::{ParamClient, ParamServer, ServerConfig};
    use cdsgd_compress::Compressed;
    use cdsgd_net::NetError;

    #[test]
    fn clients_are_cloneable_across_threads() {
        let ps = ParamServer::start(vec![vec![0.0]], ServerConfig::new(4, 1.0));
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let c = ps.client();
                std::thread::spawn(move || {
                    c.push(w, 0, Compressed::Raw(vec![1.0])).unwrap();
                    c.pull(0, 1).unwrap()
                })
            })
            .collect();
        for h in handles {
            // Each worker contributed 1.0; W = 0 - 1.0/4 * 4 = -1.
            assert_eq!(*h.join().unwrap(), [-1.0]);
        }
        ps.shutdown();
    }

    #[test]
    fn pull_all_returns_every_key() {
        let ps = ParamServer::start(vec![vec![1.0], vec![2.0, 3.0]], ServerConfig::new(1, 1.0));
        let c = ps.client();
        let all = c.pull_all(2, 0).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(*all[0], [1.0]);
        assert_eq!(*all[1], [2.0, 3.0]);
        ps.shutdown();
    }

    #[test]
    fn dead_server_yields_server_gone_not_a_panic() {
        let ps = ParamServer::start(vec![vec![0.0]], ServerConfig::new(1, 1.0));
        let c = ps.client();
        ps.shutdown();
        assert_eq!(
            c.push(0, 0, Compressed::Raw(vec![1.0])),
            Err(NetError::ServerGone)
        );
        assert_eq!(c.pull(0, 0).unwrap_err(), NetError::ServerGone);
        assert_eq!(c.set_lr(0.5), Err(NetError::ServerGone));
        assert_eq!(c.snapshot().unwrap_err(), NetError::ServerGone);
    }
}
