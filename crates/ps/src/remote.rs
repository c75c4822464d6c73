//! The worker's end of a PS connection, re-exported from [`crate::net`]:
//! [`RemoteClient`] speaks the wire protocol to one shard, and
//! [`ReconnectingClient`] carries a worker's connections across drops.
//! Neither runs a thread of its own (DESIGN.md §13).
//!
//! `psd` answers each connection strictly in request order, so a
//! `RemoteClient` keeps one FIFO of waiters, appended under the writer
//! lock (queue order is send order). A thread waiting on a reply reads
//! the connection ([`PendingReply::wait`]): one frame at a time, each
//! handed to the oldest waiter, until its own has been. Each request
//! also takes in, without blocking, what has arrived while replies are
//! owed, so the server goes on sending a large reply while the worker
//! computes. A reply that does not answer the front waiter's request ([`wire::answers`]: another kind,
//! or a pull reply for another `(key, version)`) or that arrives with no
//! request outstanding breaks the protocol: the reader closes the
//! connection and every waiter resolves [`NetError::ServerGone`].
//!
//! A `ReconnectingClient` redials when a send fails, and a pull whose
//! connection dies before its reply is issued again by the thread waiting
//! on it, after a redial.

use crate::api::ParamClient;
use crate::client::{Answer, Delivery, Drive, PendingReply};
use crate::net::{Bulk, HeadFirst, ShardDialer};
use crate::sharded::ShardedClient;
use crate::spares::Spares;
use crate::stats::TrafficStats;
use crate::Key;
use cdsgd_compress::{BufferPool, Compressed};
use cdsgd_net::wire::{self, FrameHead, WireMsg, FRAME_PREFIX_BYTES};
use cdsgd_net::{NetError, ReconnectConfig, Tail, Transport};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

struct WriteHalf {
    t: Box<dyn Transport>,
    buf: Vec<u8>,
}

struct ReadHalf {
    t: Box<dyn Transport>,
    buf: Vec<u8>,
    bulk: Bulk,
    /// Per key, the snapshots handed out: a reply lands in one the worker
    /// has let go of again (`crate::spares`), so a steady-state reply
    /// neither allocates nor decodes; a key's first is decoded whole.
    spares: HashMap<u32, Spares>,
}

/// The oldest unanswered request on a connection, and where its reply
/// goes.
struct Waiter {
    request: WireMsg,
    tx: SyncSender<Delivery>,
}

/// A connection's read half, out while a waiter reads a frame off it, and
/// its waiters in send order, gone once the connection is retired so that
/// a later request fails at once.
struct Inbox {
    read: Option<ReadHalf>,
    waiters: Option<VecDeque<Waiter>>,
}

/// The replies owed on one connection.
pub(crate) struct Replies {
    inbox: Mutex<Inbox>,
    /// Signalled whenever the read half is put back.
    returned: Condvar,
    stats: Arc<TrafficStats>,
    /// Transport connection id, tagged onto frame events.
    conn: u64,
}

/// A [`ParamClient`] talking to one remote shard over a transport.
///
/// Requests are encoded under a small writer lock; each reply is read by
/// a thread waiting on one (see the module docs), so the blocking/overlap
/// semantics are identical to the in-process [`crate::PsClient`]. If the
/// connection dies, outstanding and future requests surface
/// [`NetError`]s instead of panicking.
pub struct RemoteClient {
    writer: Mutex<WriteHalf>,
    replies: Arc<Replies>,
    pool: BufferPool,
}

impl RemoteClient {
    /// Wrap an established connection. `stats` aggregates client-side
    /// traffic (shared across shards of a cluster); `pool` recycles push
    /// payload storage after encoding.
    pub fn new(
        transport: Box<dyn Transport>,
        stats: Arc<TrafficStats>,
        pool: BufferPool,
    ) -> Result<Self, NetError> {
        // A waiter reads with no deadline: the read ends when the
        // connection does, and `Drop` ends the connection.
        let mut t = transport.try_clone()?;
        t.set_recv_timeout(None)?;
        let read = ReadHalf {
            t,
            buf: Vec::new(),
            bulk: Bulk::Bytes,
            spares: HashMap::new(),
        };
        let inbox = Inbox {
            read: Some(read),
            waiters: Some(VecDeque::new()),
        };
        let replies = Replies {
            inbox: Mutex::new(inbox),
            returned: Condvar::new(),
            conn: transport.conn_id(),
            stats,
        };
        Ok(Self {
            writer: Mutex::new(WriteHalf {
                t: transport,
                buf: Vec::new(),
            }),
            replies: Arc::new(replies),
            pool,
        })
    }
}

impl Replies {
    /// Read replies off the connection, each handed to the oldest waiter,
    /// until `rx` holds one; [`NetError::ServerGone`] once the connection
    /// is retired without it. While another waiter reads, wait for it.
    pub(crate) fn wait(&self, rx: &Receiver<Delivery>) -> Answer {
        let mut inbox = self.lock();
        loop {
            // A reply read off a connection has been carried already.
            match rx.try_recv() {
                Ok((got, _)) => return got,
                Err(TryRecvError::Disconnected) => return Err(NetError::ServerGone),
                Err(TryRecvError::Empty) => {}
            }
            let Some(mut read) = inbox.read.take() else {
                inbox = self
                    .returned
                    .wait(inbox)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            // No lock is held across the read: requests keep joining.
            drop(inbox);
            let got = self.read_one(&mut read, true);
            inbox = self.lock();
            hand_over(&mut inbox.waiters, &mut read, got);
            inbox.read = Some(read);
            self.returned.notify_all();
        }
    }

    /// Hand each reply that has arrived whole to its waiter, and land what
    /// has arrived of the next, without blocking: the peer goes on sending
    /// while the caller computes, as it did into a reader thread. Nothing
    /// is read while nothing is owed or a waiter is reading. The caller
    /// holds the writer lock, because both halves share the socket's
    /// blocking mode.
    fn drain(&self) {
        let mut inbox = self.lock();
        let Inbox {
            read: Some(read),
            waiters,
        } = &mut *inbox
        else {
            return;
        };
        if waiters.as_ref().is_none_or(VecDeque::is_empty) {
            return;
        }
        if read.t.set_nonblocking(true).is_err() {
            return;
        }
        loop {
            match self.read_one(read, false) {
                Ok(None) => break,
                got => {
                    if !hand_over(waiters, read, got) {
                        return;
                    }
                }
            }
        }
        // A socket left non-blocking would fail the next blocking read.
        if read.t.set_nonblocking(false).is_err() {
            hand_over(waiters, read, Err(NetError::ServerGone));
        }
    }

    /// The next reply, counted: `Ok(None)` when `block` is off and no
    /// frame has arrived whole (what has arrived is kept for the next
    /// call); an error once the connection has ended (no deadline is set,
    /// so any error ends it) or for a frame that is no message.
    fn read_one(&self, read: &mut ReadHalf, block: bool) -> Result<Option<WireMsg>, NetError> {
        let spares = &mut read.spares;
        let mut landing = HeadFirst {
            rbuf: &mut read.buf,
            bulk: &mut read.bulk,
            decide: |head| match head {
                FrameHead::PullReply {
                    key,
                    min_version,
                    len,
                } => spares.get_mut(&key).map_or(Bulk::Bytes, |s| {
                    Bulk::Landed(WireMsg::PullReply {
                        key,
                        min_version,
                        weights: s.take(len),
                    })
                }),
                FrameHead::Push { .. } => Bulk::Bytes,
            },
        };
        if block {
            read.t.recv_frame(&mut landing)?;
        } else if !read.t.poll_recv_frame(&mut landing)? {
            return Ok(None);
        }
        let (frame, msg) = std::mem::take(&mut read.bulk).finish(&read.buf, wire::decode_msg);
        self.stats.record_received(self.conn, frame);
        let msg = msg?;
        if let WireMsg::PullReply { key, weights, .. } = &msg {
            self.stats.record_pull(frame);
            read.spares
                .entry(*key)
                .or_default()
                .retire(Arc::clone(weights));
        }
        Ok(Some(msg))
    }

    fn lock(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Hand a reply read off `read` to the oldest waiter; `false`, with the
/// connection retired, when the read ended the connection or the reply
/// does not answer that waiter's request. Dropping the queued waiters
/// resolves each with `ServerGone`, and later requests fail at once.
fn hand_over(
    waiters: &mut Option<VecDeque<Waiter>>,
    read: &mut ReadHalf,
    got: Result<Option<WireMsg>, NetError>,
) -> bool {
    match (got, waiters.as_mut().and_then(VecDeque::pop_front)) {
        // A caller that stopped waiting is fine.
        (Ok(Some(msg)), Some(w)) if wire::answers(&w.request, &msg) => {
            let _ = w.tx.send((Ok(msg), None));
            true
        }
        _ => {
            read.t.close();
            *waiters = None;
            false
        }
    }
}

impl ParamClient for RemoteClient {
    /// A push goes out as its header plus the payload's own storage; any
    /// other message is encoded whole. The waiter of an answered one joins
    /// the FIFO under the writer lock, so queue order is send order.
    fn request(&self, msg: WireMsg) -> Result<Option<PendingReply>, NetError> {
        let mut w = self.writer.lock().unwrap();
        self.replies.drain();
        let WriteHalf { t, buf } = &mut *w;
        let (stats, conn) = (&self.replies.stats, self.replies.conn);
        if let WireMsg::Push {
            worker,
            key,
            payload,
        } = msg
        {
            let tail = wire::encode_push_parts(worker, key, &payload, buf);
            t.send_parts(buf, Tail::Bytes(tail))?;
            let n = FRAME_PREFIX_BYTES + buf.len() + tail.len();
            drop(w);
            // Same formula the in-process server charges, so histories
            // match across backends bit-for-bit.
            stats.record_push(n);
            stats.record_sent(conn, n);
            payload.recycle(&self.pool);
            return Ok(None);
        }
        wire::encode_msg_into(&msg, buf);
        let reply = if wire::answered(&msg) {
            let (tx, rx) = mpsc::sync_channel(1);
            match self.replies.lock().waiters.as_mut() {
                Some(queue) => queue.push_back(Waiter { request: msg, tx }),
                None => return Err(NetError::ServerGone),
            }
            let drive = Drive::Conn(Arc::clone(&self.replies));
            Some(PendingReply::new(rx, Some(drive)))
        } else {
            None
        };
        if let Err(e) = t.send_frame(buf) {
            if reply.is_some() {
                // Nothing went out, so nothing will answer: take the
                // waiter back off the tail, where the writer lock kept it.
                if let Some(queue) = self.replies.lock().waiters.as_mut() {
                    queue.pop_back();
                }
            }
            return Err(e);
        }
        stats.record_sent(conn, FRAME_PREFIX_BYTES + buf.len());
        Ok(reply)
    }

    fn pool(&self) -> &BufferPool {
        &self.pool
    }
}

impl Drop for RemoteClient {
    fn drop(&mut self) {
        // Closing the connection ends a read in progress on its read
        // half: that read, or the next, fails every outstanding request
        // with `ServerGone`.
        self.writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .t
            .close();
    }
}

// ---------------------------------------------------------------------------
// reconnect layer
// ---------------------------------------------------------------------------

/// Per-key bound on the reconnect replay buffer. Workers lag the server
/// by at most one round (two for the deferred pulls of CD-SGD), so the
/// unconfirmed suffix stays tiny; the bound only guards against a
/// pathological run that pushes a key it never pulls.
const REPLAY_DEPTH: usize = 8;

/// The mutable half of a [`ReconnectingClient`]: the live connections
/// plus the bookkeeping that makes a reconnect exactly-once.
struct Session {
    /// Bumped on every successful (or terminally failed) reconnect, so
    /// concurrent failure observers of the *same* dead session trigger
    /// one redial, not one each.
    epoch: u64,
    inner: ShardedClient<RemoteClient>,
    /// Per-key global version of the last push sent: starts at the
    /// caller's register ack (zeros for a worker in the server's initial
    /// set, or one that never registers) and counts up one per push.
    /// Replay guarantees reconnects never shift it.
    pushed: Vec<u64>,
    /// Per-key unconfirmed pushes as `(global_version, payload)`: kept
    /// until a pull (or a re-register ack) proves the round aggregated,
    /// replayed after a reconnect.
    replay: Vec<VecDeque<(u64, Compressed)>>,
    /// The most recent register ack (global versions), used to clamp
    /// re-issued pulls the server can no longer serve exactly.
    acked: Option<Vec<u64>>,
    /// Terminal failure once the retry budget is exhausted; every
    /// subsequent operation returns it.
    failed: Option<NetError>,
}

/// The shared core of a [`ReconnectingClient`]: the session under its
/// own lock, plus everything a redial needs. Held in an `Arc` by the
/// client handle and by every pull in flight through it.
struct ReconnectCtx {
    /// The mutable session state. Never held across a backoff sleep or
    /// a dial — pushes and heartbeats must stay responsive while a
    /// redial is in flight, or a starved heartbeat could trip the
    /// server's liveness eviction before the reconnect lands.
    session: Mutex<Session>,
    /// Serializes redials. With the session lock released during the
    /// dial, two unserialized observers of the same dead epoch would
    /// race fresh registrations: the loser's discarded connection would
    /// end up the server-side push-fence owner, silently dropping the
    /// winner's pushes. The epoch is only ever advanced while holding
    /// this lock, so a staleness check taken under it cannot be raced.
    redial: Mutex<()>,
    dialer: ShardDialer,
    pool: BufferPool,
    worker: usize,
    /// Length of the per-key tables: the model's key count.
    num_keys: usize,
    rc: ReconnectConfig,
    reconnects: AtomicU64,
}

/// Redial every shard, re-register, prune + replay unconfirmed pushes.
/// `observed_epoch` is the epoch the caller saw the failure under: if
/// the session has moved on since, another thread already reconnected
/// and this call is a no-op. Callers must NOT hold the session lock —
/// the backoff schedule (up to `retries × RECONNECT_BACKOFF_CAP`) runs
/// outside it, and only the final prune/replay/install reacquires it.
fn reconnect_session(ctx: &ReconnectCtx, observed_epoch: u64) -> Result<(), NetError> {
    let _redial = ctx.redial.lock().unwrap();
    if ctx.live()?.epoch != observed_epoch {
        return Ok(());
    }
    let mut last = NetError::ServerGone;
    for attempt in 0..ctx.rc.retries {
        // Session lock released across the slow parts: heartbeats keep
        // flowing (best-effort, on the dead link) and pushes keep
        // buffering into the replay queue meanwhile.
        std::thread::sleep(ctx.rc.backoff_for(attempt));
        let fresh = match ctx.dialer.dial(&ctx.pool) {
            Ok(clients) => ShardedClient::from_clients(clients, ctx.pool.clone()),
            Err(e) => {
                last = e;
                continue;
            }
        };
        // Re-register: re-admits the worker on every shard (the server
        // clears the slot's stale queued pushes at admission) and acks
        // the current global versions. Transactional, so a partial
        // failure rolls itself back (a `CancelJoin`, which cannot demote
        // the still-active member) before we retry.
        let acked = match fresh.register(ctx.worker) {
            Ok(v) => v,
            Err(e) => {
                last = e;
                continue;
            }
        };
        // Prune, replay and install under one continuous session-lock
        // hold: a concurrently-buffered push is either already in
        // `replay` here (and is re-sent below) or buffered after the
        // install (and goes out on the fresh session directly) — never
        // lost between sessions.
        let mut guard = ctx.session.lock().unwrap();
        let s = &mut *guard;
        // Prune: versions at or below the acked one were aggregated
        // before the drop and must not be re-sent.
        for (k, q) in s.replay.iter_mut().enumerate() {
            while q.front().is_some_and(|(v, _)| *v <= acked[k]) {
                let (_, payload) = q.pop_front().expect("front checked");
                payload.recycle(&ctx.pool);
            }
        }
        // Replay the unconsumed suffix in round order per key. The
        // payloads stay buffered (re-cloned) in case this session drops
        // too.
        let mut replay_err = None;
        'replay: for (k, q) in s.replay.iter().enumerate() {
            for (_, payload) in q {
                if let Err(e) = fresh.push(ctx.worker, k, payload.clone()) {
                    replay_err = Some(e);
                    break 'replay;
                }
            }
        }
        if let Some(e) = replay_err {
            last = e;
            continue;
        }
        s.inner = fresh;
        s.acked = Some(acked);
        s.epoch += 1;
        ctx.reconnects.fetch_add(1, Ordering::Relaxed);
        return Ok(());
    }
    let mut s = ctx.session.lock().unwrap();
    s.failed = Some(last.clone());
    s.epoch += 1;
    Err(last)
}

impl ReconnectCtx {
    /// The session, unless it failed for good (then that failure).
    fn live(&self) -> Result<MutexGuard<'_, Session>, NetError> {
        let s = self.session.lock().unwrap();
        match &s.failed {
            Some(e) => Err(e.clone()),
            None => Ok(s),
        }
    }

    /// `key` as an index into the per-key replay tables. A key the model
    /// does not have is refused here: no shard owns it, and a refused
    /// pull would otherwise be redialed and issued again until the
    /// retries ran out.
    fn key(&self, key: u32) -> Result<Key, NetError> {
        let k = key as usize;
        if k < self.num_keys {
            Ok(k)
        } else {
            Err(NetError::Decode(format!(
                "key {key}: the model has keys 0..{}",
                self.num_keys
            )))
        }
    }

    /// Buffer a push for replay, then send it on the current session; a
    /// failed send redials (which replays it).
    fn push(&self, worker: u32, key: u32, payload: Compressed) -> Result<(), NetError> {
        let k = self.key(key)?;
        let epoch = {
            let mut s = self.live()?;
            s.pushed[k] += 1;
            let version = s.pushed[k];
            s.replay[k].push_back((version, payload.clone()));
            if s.replay[k].len() > REPLAY_DEPTH {
                // Keep the buffer bounded for keys that are pushed but
                // never pulled; under the normal ≤2-round lag this never
                // trips.
                let (_, stale) = s.replay[k].pop_front().expect("len checked");
                stale.recycle(&self.pool);
            }
            let push = WireMsg::Push {
                worker,
                key,
                payload,
            };
            match s.inner.request(push) {
                Ok(_) => return Ok(()),
                Err(_) => s.epoch,
            }
        };
        // The replay buffer holds this push: it was buffered under the
        // session lock, strictly before any install, so whichever redial
        // installs the next session replays it.
        reconnect_session(self, epoch)
    }

    /// Issue a pull of `key` at `version` on the current session,
    /// redialing as needed: the in-flight pull, the version actually on
    /// the wire and the session epoch it rode.
    fn issue(&self, key: Key, version: u64) -> Result<(PendingReply, u64, u64), NetError> {
        loop {
            let epoch = {
                let s = self.live()?;
                // Clamp a pull the server can no longer serve exactly
                // (only reachable through CD-SGD's one-round-deep
                // deferred pulls when the drop ate the reply): `version
                // - 1` is the oldest the server keeps, and it fails any
                // older pull.
                let issued = match &s.acked {
                    Some(a) if version + 1 < a[key] => a[key] - 1,
                    _ => version,
                };
                match s.inner.pull_async(key, issued) {
                    Ok(pending) => return Ok((pending.0, issued, s.epoch)),
                    Err(_) => s.epoch,
                }
            };
            // Redial with the session lock released (see
            // `reconnect_session`), then retry on the fresh session.
            reconnect_session(self, epoch)?;
        }
    }

    /// Version `issued` of `key` completed, so every push at or below it
    /// was aggregated: confirm (drop) those replay entries.
    fn confirm(&self, key: Key, issued: u64) {
        let mut s = self.session.lock().unwrap();
        while s.replay[key].front().is_some_and(|(v, _)| *v <= issued) {
            let (_, payload) = s.replay[key].pop_front().expect("front checked");
            payload.recycle(&self.pool);
        }
    }

    /// Register on the current connections (retrying through a
    /// reconnect) and start the per-key push versions at the ack. Must
    /// precede the first push, which the worker binary's flow
    /// guarantees.
    fn register(&self, worker: u32) -> Result<Vec<u64>, NetError> {
        debug_assert_eq!(
            worker as usize, self.worker,
            "one reconnecting client per worker"
        );
        let epoch = {
            let mut s = self.live()?;
            match s.inner.register(self.worker) {
                Ok(acked) => {
                    s.pushed = acked.clone();
                    s.acked = Some(acked.clone());
                    return Ok(acked);
                }
                Err(_) => s.epoch,
            }
        };
        reconnect_session(self, epoch)?;
        let mut s = self.session.lock().unwrap();
        let acked = s.acked.clone().expect("reconnect stores the ack");
        s.pushed = acked.clone();
        Ok(acked)
    }
}

/// What a pull through a [`ReconnectingClient`] needs to be issued again
/// if its connection dies before the reply: the caller's key and version,
/// and the version and session epoch its current issue rode.
pub(crate) struct Reissue {
    ctx: Arc<ReconnectCtx>,
    key: Key,
    version: u64,
    issued: u64,
    /// A failure seen under an older epoch must not trigger a redundant
    /// reconnect of the newer one.
    epoch: u64,
}

impl Reissue {
    /// Finish the pull whose answer was `got`. An answer confirms the
    /// replay entries it proves aggregated; a dead connection is redialed
    /// (a no-op if another thread already did) and the pull issued again
    /// on the fresh session, until it is answered or the session fails
    /// for good.
    pub(crate) fn settle(&self, mut got: Answer) -> Answer {
        let (mut issued, mut epoch) = (self.issued, self.epoch);
        loop {
            if got.is_ok() {
                self.ctx.confirm(self.key, issued);
                return got;
            }
            reconnect_session(&self.ctx, epoch)?;
            let (pending, i, e) = self.ctx.issue(self.key, self.version)?;
            (issued, epoch, got) = (i, e, pending.wait());
        }
    }
}

/// A [`ParamClient`] that survives transient link drops: any send
/// failure (or an outstanding pull resolving [`NetError::ServerGone`])
/// triggers a bounded-backoff redial of every shard, a re-`Register`,
/// and an exactly-once replay of the pushes the completed rounds did not
/// consume; a pull the drop cut off is re-issued on the fresh
/// connections by the thread waiting on it. Requires an elastic server
/// (re-registration is what clears the server-side queues); see
/// DESIGN.md §13. Never built unless reconnect flags are set, so
/// fault-free runs are untouched.
pub struct ReconnectingClient {
    ctx: Arc<ReconnectCtx>,
}

impl ReconnectingClient {
    pub(crate) fn new(
        dialer: ShardDialer,
        worker: usize,
        num_keys: usize,
        rc: ReconnectConfig,
    ) -> Result<Self, NetError> {
        let pool = BufferPool::new();
        let inner = ShardedClient::from_clients(dialer.dial(&pool)?, pool.clone());
        let ctx = Arc::new(ReconnectCtx {
            session: Mutex::new(Session {
                epoch: 0,
                inner,
                pushed: vec![0; num_keys],
                replay: vec![VecDeque::new(); num_keys],
                acked: None,
                failed: None,
            }),
            redial: Mutex::new(()),
            dialer,
            pool,
            worker,
            num_keys,
            rc,
            reconnects: AtomicU64::new(0),
        });
        Ok(Self { ctx })
    }

    /// How many times this client successfully reconnected (diagnostics
    /// and test hooks).
    pub fn reconnects(&self) -> u64 {
        self.ctx.reconnects.load(Ordering::Relaxed)
    }
}

impl ParamClient for ReconnectingClient {
    /// Pushes are buffered for replay and pulls carry a re-issue; a
    /// failed push, register or leave redials. A heartbeat is
    /// best-effort: a failed one means the link is down, and the push or
    /// pull that discovers that redials — the heartbeat thread must not
    /// die (or redial) over it, and it takes only a brief session-lock
    /// hold, so heartbeats stay responsive while a redial sleeps through
    /// its backoff. Anything else (a join rollback, a control request)
    /// goes to the current session without a redial: a cancel is only
    /// honoured from the connections whose registration it rolls back,
    /// so re-sending it on a fresh session would be a no-op anyway.
    fn request(&self, msg: WireMsg) -> Result<Option<PendingReply>, NetError> {
        let ctx = &self.ctx;
        match msg {
            WireMsg::Push {
                worker,
                key,
                payload,
            } => ctx.push(worker, key, payload).map(|()| None),
            WireMsg::Pull { key, min_version } => {
                let key = ctx.key(key)?;
                let (mut pending, issued, epoch) = ctx.issue(key, min_version)?;
                pending.reissue = Some(Reissue {
                    ctx: Arc::clone(ctx),
                    key,
                    version: min_version,
                    issued,
                    epoch,
                });
                Ok(Some(pending))
            }
            WireMsg::Register { worker } => {
                let versions = ctx.register(worker)?;
                Ok(Some(PendingReply::ready(Ok(WireMsg::RegisterAck {
                    versions,
                }))))
            }
            WireMsg::Leave { .. } => {
                let epoch = {
                    let s = ctx.live()?;
                    match s.inner.request(msg.clone()) {
                        Ok(reply) => return Ok(reply),
                        Err(_) => s.epoch,
                    }
                };
                reconnect_session(ctx, epoch)?;
                ctx.live()?.inner.request(msg)
            }
            WireMsg::Heartbeat { .. } => {
                let _ = ctx.live()?.inner.request(msg);
                Ok(None)
            }
            other => ctx.live()?.inner.request(other),
        }
    }

    fn pool(&self) -> &BufferPool {
        &self.ctx.pool
    }
}
