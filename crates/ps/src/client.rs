//! Worker-side client handle: [`PsClient`] runs a shard in this process
//! on the caller's thread, and so does its [`PendingReply`] while the
//! answer is not ready (`crate::server::ShardHost`); one owed over a
//! connection reads it (`crate::remote`).

use crate::api::ParamClient;
use crate::attach::Reissue;
use crate::remote::Replies;
use crate::server::ShardHost;
use cdsgd_compress::BufferPool;
use cdsgd_net::wire::{answered, WireMsg};
use cdsgd_net::{NetError, Waker};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// What a request resolves to: the server's reply, or the typed failure
/// it answered with.
pub(crate) type Answer = Result<WireMsg, NetError>;

/// An answer and the instant the emulated link finishes carrying it to
/// its receiver (`None`: at once).
pub(crate) type Delivery = (Answer, Option<Instant>);

/// The sending half of an answer the shard owes a requester.
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
    tx: SyncSender<Delivery>,
    _wake: Option<WakeOnDrop>,
}

struct WakeOnDrop(Waker);

impl Drop for WakeOnDrop {
    fn drop(&mut self) {
        self.0.wake();
    }
}

impl ReplyTx {
    /// For a message the shard answers, where its answer goes and the
    /// receiver it arrives on; `waker` is the requester's event loop, if
    /// it has one.
    pub(crate) fn pair(
        msg: &WireMsg,
        waker: Option<&Waker>,
    ) -> (Option<ReplyTx>, Option<Receiver<Delivery>>) {
        if !answered(msg) {
            return (None, None);
        }
        let (tx, rx) = mpsc::sync_channel(1);
        let _wake = waker.cloned().map(WakeOnDrop);
        (Some(ReplyTx { tx, _wake }), Some(rx))
    }

    /// Deliver the answer, due at `at` (a requester that stopped waiting
    /// is fine).
    pub(crate) fn send(self, answer: Answer, at: Option<Instant>) {
        let _ = self.tx.send((answer, at));
    }
}

/// The value `take` finds in an answer, or the error the answer carries.
/// A reply of another kind than the request asked for breaks the
/// protocol and is a [`NetError::Decode`].
pub(crate) fn settle<T>(
    answer: Answer,
    take: impl FnOnce(WireMsg) -> Option<T>,
) -> Result<T, NetError> {
    take(answer?).ok_or_else(|| NetError::Decode("a reply to another request".into()))
}

/// What a waiter runs until its answer comes.
pub(crate) enum Drive {
    /// A shard in this process.
    Shard(Arc<ShardHost>),
    /// The read half of a connection: the waiter reads its replies.
    Conn(Arc<Replies>),
}

/// The reply a request is owed ([`ParamClient::request`]): resolves once
/// the server answers. Uniform across every client layer, in-process or
/// networked.
pub struct PendingReply {
    rx: Receiver<Delivery>,
    /// Set on a pull through a [`crate::WorkerSession`]: what confirms
    /// it, or issues it again if its connection dies before the reply.
    pub(crate) reissue: Option<Reissue>,
    /// What brings the answer; `None` once it is here.
    drive: Option<Drive>,
}

impl PendingReply {
    pub(crate) fn new(rx: Receiver<Delivery>, drive: Option<Drive>) -> Self {
        Self {
            rx,
            reissue: None,
            drive,
        }
    }

    /// A reply that is already here: what a layer that assembles one
    /// answer from several shards hands out.
    pub(crate) fn ready(answer: Answer) -> Self {
        let (tx, rx) = mpsc::sync_channel(1);
        // The channel has room for the one answer, and `rx` is alive.
        let _ = tx.send((answer, None));
        Self::new(rx, None)
    }

    /// Block until the reply arrives. [`NetError::ServerGone`] if the
    /// server (or the connection to it) died before replying; a typed
    /// error (e.g. [`NetError::WorkerLost`] from the server's round
    /// deadline) if the server answered but the request failed. Through a
    /// [`crate::WorkerSession`] with a retry budget, a pull whose
    /// connection died is redialed and issued again by this call. Behind
    /// an emulated link, it returns once the link has carried the reply.
    /// Waiting on a shard in this process runs it: the deliveries of its
    /// link and its round deadline and liveness timers need no other
    /// thread. Waiting on a connection reads it, until this reply has
    /// been read.
    pub fn wait(&self) -> Result<WireMsg, NetError> {
        let got = match &self.drive {
            Some(Drive::Shard(host)) => host.wait(&self.rx),
            Some(Drive::Conn(replies)) => replies.wait(&self.rx),
            None => self
                .rx
                .recv()
                .map_or(Err(NetError::ServerGone), |(got, _)| got),
        };
        match &self.reissue {
            None => got,
            Some(reissue) => reissue.settle(got),
        }
    }
}

/// An outstanding asynchronous pull ([`ParamClient::pull_async`]):
/// resolves to the requested weight snapshot once the server reaches the
/// version.
pub struct PendingPull(pub(crate) PendingReply);

impl PendingPull {
    /// Block until the snapshot arrives; the errors are
    /// [`PendingReply::wait`]'s.
    pub fn wait(&self) -> Result<Arc<[f32]>, NetError> {
        settle(self.0.wait(), |reply| match reply {
            WireMsg::PullReply { weights, .. } => Some(weights),
            _ => None,
        })
    }
}

/// A cloneable, thread-safe handle for talking to a [`crate::ParamServer`]
/// in this process: each request runs the shard on the calling thread.
/// A stopped server surfaces as [`NetError::ServerGone`] instead of a
/// worker-thread panic.
#[derive(Clone)]
pub struct PsClient {
    pub(crate) shard: Arc<ShardHost>,
}

impl ParamClient for PsClient {
    fn request(&self, msg: WireMsg) -> Result<Option<PendingReply>, NetError> {
        let rx = self.shard.send(0, msg, None)?;
        Ok(rx.map(|rx| PendingReply::new(rx, Some(Drive::Shard(Arc::clone(&self.shard))))))
    }

    /// The payload buffer pool shared with the server, so each push
    /// reuses storage the server recycled after decoding earlier rounds.
    fn pool(&self) -> &BufferPool {
        &self.shard.pool
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
