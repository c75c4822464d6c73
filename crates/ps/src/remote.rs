//! The worker's end of a PS connection, re-exported from [`crate::net`]:
//! [`RemoteClient`] speaks the wire protocol to one shard, and
//! [`ReconnectingClient`] carries a worker's connections across drops.
//!
//! `psd` answers each connection strictly in request order, so a
//! `RemoteClient` keeps one FIFO of waiters, appended under the writer
//! lock (queue order is send order) and popped by the reader thread, one
//! per reply. A reply that does not answer the front waiter's request
//! ([`wire::answers`]: another kind, or a pull reply for another
//! `(key, version)`) or that arrives with no request outstanding breaks
//! the protocol: the reader closes the connection and every waiter
//! resolves [`NetError::ServerGone`].
//!
//! A `ReconnectingClient` runs no thread of its own: a failed send
//! redials on the spot, and a pull whose connection dies before its reply
//! is issued again by the thread waiting on it ([`PendingReply::wait`]),
//! after a redial (DESIGN.md §13).

use crate::api::ParamClient;
use crate::client::{Answer, Delivery, PendingReply};
use crate::net::{spawn_err, Bulk, HeadFirst, ShardDialer};
use crate::sharded::ShardedClient;
use crate::spares::Spares;
use crate::stats::TrafficStats;
use crate::Key;
use cdsgd_compress::{BufferPool, Compressed};
use cdsgd_net::wire::{self, FrameHead, WireMsg, FRAME_PREFIX_BYTES};
use cdsgd_net::{NetError, ReconnectConfig, Tail, Transport};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

struct WriteHalf {
    t: Box<dyn Transport>,
    buf: Vec<u8>,
}

/// The oldest unanswered request on a connection, and where its reply
/// goes.
struct Waiter {
    request: WireMsg,
    tx: SyncSender<Delivery>,
}

/// A connection's waiters in send order; `None` once its reader has
/// exited, so a later request fails at once instead of waiting forever.
type Waiters = Mutex<Option<VecDeque<Waiter>>>;

/// A [`ParamClient`] talking to one remote shard over a transport.
///
/// Requests are encoded under a small writer lock; replies arrive on a
/// dedicated reader thread that hands each one to the oldest waiter (see
/// the module docs), so the blocking/overlap semantics are identical to
/// the in-process [`crate::PsClient`]. If the connection dies, outstanding
/// and future requests surface [`NetError`]s instead of panicking.
pub struct RemoteClient {
    writer: Mutex<WriteHalf>,
    waiters: Arc<Waiters>,
    stats: Arc<TrafficStats>,
    pool: BufferPool,
    reader: Option<JoinHandle<()>>,
    /// Transport connection id, tagged onto frame events.
    conn: u64,
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
        // The reader blocks with no deadline: it ends when the
        // connection does, and `Drop` ends the connection.
        let mut read_t = transport.try_clone()?;
        read_t.set_recv_timeout(None)?;
        let conn = transport.conn_id();
        let waiters = Arc::new(Mutex::new(Some(VecDeque::new())));
        let reader = {
            let (waiters, stats) = (Arc::clone(&waiters), Arc::clone(&stats));
            std::thread::Builder::new()
                .name("ps-client-read".into())
                .spawn(move || read_replies(read_t, conn, &waiters, &stats))
                .map_err(spawn_err)?
        };
        Ok(Self {
            writer: Mutex::new(WriteHalf {
                t: transport,
                buf: Vec::new(),
            }),
            waiters,
            stats,
            pool,
            reader: Some(reader),
            conn,
        })
    }
}

/// A [`RemoteClient`]'s reader thread: hand each reply to the oldest
/// waiter until the connection ends or the peer breaks the protocol, then
/// retire the connection.
fn read_replies(mut t: Box<dyn Transport>, conn: u64, waiters: &Waiters, stats: &TrafficStats) {
    let mut buf = Vec::new();
    // Per key, the snapshots this reader handed out: a reply lands in one
    // the worker has let go of again (the server's own rule,
    // `crate::spares`), so a steady-state reply neither allocates nor
    // decodes. Only keys the worker pulled get an entry: a key's first
    // reply is decoded whole.
    let mut spares: HashMap<u32, Spares> = HashMap::new();
    let mut bulk = Bulk::Bytes;
    loop {
        let mut landing = HeadFirst {
            rbuf: &mut buf,
            bulk: &mut bulk,
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
        // No deadline is set, so any error ends the connection.
        if t.recv_frame(&mut landing).is_err() {
            break;
        }
        let (frame, msg) = std::mem::take(&mut bulk).finish(&buf, wire::decode_msg);
        stats.record_received(conn, frame);
        let Ok(msg) = msg else { break };
        if let WireMsg::PullReply { key, weights, .. } = &msg {
            stats.record_pull(frame);
            spares.entry(*key).or_default().retire(Arc::clone(weights));
        }
        let mut queue = waiters.lock().unwrap();
        let oldest = queue.as_mut().and_then(VecDeque::pop_front);
        drop(queue);
        match oldest {
            // A caller that stopped waiting is fine.
            Some(w) if wire::answers(&w.request, &msg) => drop(w.tx.send((Ok(msg), None))),
            _ => break,
        }
    }
    // Later requests now fail at once, and dropping the queued waiters
    // resolves each of their callers with `ServerGone`.
    let orphaned = waiters.lock().unwrap().take();
    t.close();
    drop(orphaned);
}

impl ParamClient for RemoteClient {
    /// A push goes out as its header plus the payload's own storage; any
    /// other message is encoded whole. The waiter of an answered one joins
    /// the FIFO under the writer lock, so queue order is send order.
    fn request(&self, msg: WireMsg) -> Result<Option<PendingReply>, NetError> {
        let mut w = self.writer.lock().unwrap();
        let WriteHalf { t, buf } = &mut *w;
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
            self.stats.record_push(n);
            self.stats.record_sent(self.conn, n);
            payload.recycle(&self.pool);
            return Ok(None);
        }
        wire::encode_msg_into(&msg, buf);
        let reply = if wire::answered(&msg) {
            let (tx, rx) = mpsc::sync_channel(1);
            match self.waiters.lock().unwrap().as_mut() {
                Some(queue) => queue.push_back(Waiter { request: msg, tx }),
                None => return Err(NetError::ServerGone),
            }
            Some(PendingReply::new(rx))
        } else {
            None
        };
        if let Err(e) = t.send_frame(buf) {
            if reply.is_some() {
                // Nothing went out, so nothing will answer: take the
                // waiter back off the tail, where the writer lock kept it.
                if let Some(queue) = self.waiters.lock().unwrap().as_mut() {
                    queue.pop_back();
                }
            }
            return Err(e);
        }
        self.stats
            .record_sent(self.conn, FRAME_PREFIX_BYTES + buf.len());
        Ok(reply)
    }

    fn pool(&self) -> &BufferPool {
        &self.pool
    }
}

impl Drop for RemoteClient {
    fn drop(&mut self) {
        // Closing the connection is what wakes the reader out of its
        // blocking receive; it then fails every outstanding request with
        // `ServerGone` and exits.
        self.writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .t
            .close();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
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
