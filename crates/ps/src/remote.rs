//! The worker's end of a PS connection, re-exported from [`crate::net`]:
//! [`RemoteClient`] speaks the wire protocol to one shard and runs no
//! thread of its own (DESIGN.md §13).
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

use crate::api::ParamClient;
use crate::client::{Answer, Delivery, Drive, PendingReply};
use crate::net::{Bulk, HeadFirst};
use crate::spares::Spares;
use crate::stats::TrafficStats;
use cdsgd_compress::BufferPool;
use cdsgd_net::wire::{self, FrameHead, WireMsg, FRAME_PREFIX_BYTES};
use cdsgd_net::{NetError, Tail, Transport};
use std::collections::{HashMap, VecDeque};
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
