//! Worker-side client handle.

use crate::remote::Reissue;
use crate::shard::answered;
use crate::stats::TrafficStats;
use crate::Key;
use cdsgd_compress::{BufferPool, Compressed};
use cdsgd_net::wire::WireMsg;
use cdsgd_net::{NetError, Waker};
use std::sync::mpsc::{self, Receiver, RecvError, Sender, SyncSender};
use std::sync::Arc;

/// What a request resolves to: the server's reply, or the typed failure
/// it answered with.
pub(crate) type Answer = Result<WireMsg, NetError>;

/// The sending half of an answer the server thread owes a requester.
///
/// A requester that blocks on the receiver needs nothing more. An event
/// loop that parks in `poll(2)` instead passes its [`Waker`] along, and
/// is woken once the answer is resolved *either way*: sent, or dropped
/// unsent (how a server that stops with pulls parked fails them).
/// Dropping is what fires the wake, so neither path can forget it.
pub(crate) struct ReplyTx {
    // Field order is load-bearing: fields drop in declaration order, so
    // the sender is gone (value delivered, or channel disconnected)
    // before the wake that makes the loop look at the receiver.
    tx: SyncSender<Answer>,
    _wake: Option<WakeOnDrop>,
}

struct WakeOnDrop(Waker);

impl Drop for WakeOnDrop {
    fn drop(&mut self) {
        self.0.wake();
    }
}

impl ReplyTx {
    /// Deliver the answer (a requester that stopped waiting is fine).
    pub(crate) fn send(self, answer: Answer) {
        let _ = self.tx.send(answer);
    }
}

/// The sending half of a shard thread's request channel. A request is the
/// connection it arrived on (0 = in-process), the message, and — for the
/// kinds the shard answers — where the answer goes.
#[derive(Clone)]
pub(crate) struct ShardTx(pub(crate) Sender<(u64, WireMsg, Option<ReplyTx>)>);

impl ShardTx {
    /// Hand `msg` from connection `conn` to the shard. For a message the
    /// shard answers, the receiver its answer arrives on; `waker` is the
    /// requester's event loop, if it has one.
    pub(crate) fn send(
        &self,
        conn: u64,
        msg: WireMsg,
        waker: Option<&Waker>,
    ) -> Result<Option<Receiver<Answer>>, NetError> {
        let (reply, rx) = if answered(&msg) {
            let (tx, rx) = mpsc::sync_channel(1);
            let _wake = waker.cloned().map(WakeOnDrop);
            (Some(ReplyTx { tx, _wake }), Some(rx))
        } else {
            (None, None)
        };
        self.0
            .send((conn, msg, reply))
            .map_err(|_| NetError::ServerGone)?;
        Ok(rx)
    }
}

/// The value `take` finds in a received answer, or the error the answer
/// carries. A requester whose server died before answering gets
/// [`NetError::ServerGone`]; a reply of another kind than the request
/// asked for breaks the protocol and is a [`NetError::Decode`].
pub(crate) fn settle<T>(
    got: Result<Answer, RecvError>,
    take: impl FnOnce(WireMsg) -> Option<T>,
) -> Result<T, NetError> {
    match got {
        Err(RecvError) => Err(NetError::ServerGone),
        Ok(Err(err)) => Err(err),
        Ok(Ok(reply)) => {
            take(reply).ok_or_else(|| NetError::Decode("a reply to another request".into()))
        }
    }
}

/// A worker id or key as a [`WireMsg`] carries it. One no `u32` can hold
/// becomes `u32::MAX`, which no shard admits or owns, instead of wrapping
/// onto a real one.
fn wire_id(id: usize) -> u32 {
    u32::try_from(id).unwrap_or(u32::MAX)
}

/// An outstanding asynchronous pull: resolves to the requested weight
/// snapshot once the server reaches the version. Uniform across the
/// in-process client and the networked [`crate::net::RemoteClient`] —
/// both deliver the server's pull reply through this handle.
pub struct PendingPull {
    pub(crate) rx: Receiver<Answer>,
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
        let got = settle(self.rx.recv(), |reply| match reply {
            WireMsg::PullReply { weights, .. } => Some(weights),
            _ => None,
        });
        match &self.reissue {
            None => got,
            Some(reissue) => reissue.settle(got),
        }
    }
}

/// A cloneable, thread-safe handle for talking to a [`crate::ParamServer`].
///
/// Every method builds one [`WireMsg`] — the server's only request
/// vocabulary — and every request returns `Result<_, NetError>`: a dead
/// server surfaces as [`NetError::ServerGone`] instead of a worker-thread
/// panic, so callers degrade gracefully (and the networked client slots
/// in behind the same signatures via [`crate::ParamClient`]).
#[derive(Clone)]
pub struct PsClient {
    shard: ShardTx,
    stats: Arc<TrafficStats>,
    pool: BufferPool,
}

impl PsClient {
    pub(crate) fn new(shard: ShardTx, stats: Arc<TrafficStats>, pool: BufferPool) -> Self {
        Self { shard, stats, pool }
    }

    /// Send a message the shard does not answer.
    fn send(&self, msg: WireMsg) -> Result<(), NetError> {
        self.shard.send(0, msg, None).map(drop)
    }

    /// Send a request and the receiver its answer arrives on.
    fn request(&self, msg: WireMsg) -> Result<Receiver<Answer>, NetError> {
        self.shard.send(0, msg, None)?.ok_or(NetError::ServerGone)
    }

    /// Send a request and wait for the value `take` finds in its answer.
    fn call<T>(
        &self,
        msg: WireMsg,
        take: impl FnOnce(WireMsg) -> Option<T>,
    ) -> Result<T, NetError> {
        settle(self.request(msg)?.recv(), take)
    }

    /// Push a gradient payload for `key` on behalf of `worker`.
    /// Non-blocking: aggregation happens on the server thread.
    pub fn push(&self, worker: usize, key: Key, payload: Compressed) -> Result<(), NetError> {
        let (worker, key) = (wire_id(worker), wire_id(key));
        self.send(WireMsg::Push {
            worker,
            key,
            payload,
        })
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
        let key = wire_id(key);
        Ok(PendingPull {
            rx: self.request(WireMsg::Pull { key, min_version })?,
            reissue: None,
        })
    }

    /// Change the server's global learning rate (takes effect on the next
    /// aggregate update).
    pub fn set_lr(&self, lr: f32) -> Result<(), NetError> {
        self.send(WireMsg::SetLr { lr })
    }

    /// Snapshot all weights and per-key versions (diagnostics).
    pub fn snapshot(&self) -> Result<(Vec<Vec<f32>>, Vec<u64>), NetError> {
        self.call(WireMsg::Snapshot, |reply| match reply {
            WireMsg::SnapshotReply { weights, versions } => Some((weights, versions)),
            _ => None,
        })
    }

    /// Register `worker` with the membership table, blocking for the
    /// per-key version ack (see [`crate::ElasticConfig`]). On a
    /// fixed-membership server this is just the version handshake.
    pub fn register(&self, worker: usize) -> Result<Vec<u64>, NetError> {
        let worker = wire_id(worker);
        self.call(WireMsg::Register { worker }, |reply| match reply {
            WireMsg::RegisterAck { versions } => Some(versions),
            _ => None,
        })
    }

    /// Graceful departure: `worker` stops gating round completion once
    /// its queued pushes drain. No-op on a fixed-membership server.
    pub fn leave(&self, worker: usize) -> Result<(), NetError> {
        let worker = wire_id(worker);
        self.send(WireMsg::Leave { worker })
    }

    /// Roll back a tentative registration of `worker`: the two-phase
    /// cross-shard join revoking a shard it admitted after a later shard
    /// failed. The server honours the cancel only from the connection
    /// whose registration *promoted* the worker into the active set, so
    /// a rollback that trails a reconnect's re-registration is a no-op
    /// (unlike [`PsClient::leave`], which demotes unconditionally).
    pub fn cancel_join(&self, worker: usize) -> Result<(), NetError> {
        let worker = wire_id(worker);
        self.send(WireMsg::CancelJoin { worker })
    }

    /// Ask the server to write a durable shard checkpoint of its current
    /// state (recovery subsystem). Returns the captured round, or `None`
    /// if the server refused (no checkpoint directory configured, a
    /// round mid-flight, or the write failed — see its stderr).
    pub fn checkpoint_now(&self) -> Result<Option<u64>, NetError> {
        self.call(WireMsg::Checkpoint, |reply| match reply {
            WireMsg::CheckpointAck { round } => Some(round),
            _ => None,
        })
    }

    /// Liveness signal for the heartbeat timeout (pushes also count).
    pub fn heartbeat(&self, worker: usize) -> Result<(), NetError> {
        let worker = wire_id(worker);
        self.send(WireMsg::Heartbeat { worker })
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
