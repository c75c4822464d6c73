//! Networked front-end: serve a [`ParamServer`] over any
//! [`Transport`], talk to one through [`RemoteClient`], and deploy whole
//! sharded groups with [`NetCluster`].
//!
//! The protocol is the frame vocabulary of [`cdsgd_net::wire`]; encoding
//! is deterministic and f32 round-trips are bit-exact, so training over
//! loopback or TCP follows *exactly* the same trajectory as the
//! in-process channels — the transport changes wall-clock cost, never
//! math. The per-worker FIFO the server's aggregation relies on is
//! preserved because each worker's pushes travel one ordered connection.
//!
//! The server side multiplexes every connection onto a small fixed pool
//! of I/O threads instead of spawning a reader/writer thread pair per
//! connection, so one `psd` process sustains hundreds of workers with a
//! constant thread count. An I/O thread blocks in exactly one place —
//! `poll(2)` over its wake pipe plus the descriptor of every socket it
//! owns — so an idle server makes no passes at all, and a busy one adds
//! no latency floor of its own. Whatever can create work without
//! touching one of those sockets writes the wake pipe: the shard thread
//! resolving a parked pull/snapshot/register/checkpoint reply (the reply
//! sender carries the waker — see `ReplyTx`), [`PsNetServer::attach`],
//! [`PsNetServer::shutdown`], and a descriptor-less transport's inbound
//! queue (loopback). The wake is level-triggered, so work that appears
//! between a pass and the wait that follows it ends that wait at once.
//!
//! Each connection keeps a per-connection read buffer and a FIFO of
//! pending replies with a bounded outbound queue: replies go out in
//! request order, and a pull for a not-yet-reached version delays later
//! replies on *that connection only* — harmless for the training
//! workload, where workers request versions in nondecreasing order and
//! never gate a push on an outstanding reply.
//!
//! Bulk bytes are copied as often as the socket requires and no more: a
//! pull reply leaves as a 13-byte head plus the shard's own `Arc<[f32]>`
//! snapshot ([`Tail::F32s`]), a push as its header plus the payload's own
//! storage, and on arrival each lands where it is consumed — through a
//! [`Landing`] that reads the frame's head first, the bulk of a raw push
//! is read straight into [`BufferPool`] storage and that of a pull reply
//! into the `Arc<[f32]>` its waiter receives (DESIGN.md §3 has the
//! per-direction copy table).

use crate::api::{ParamClient, PsBackend};
use crate::client::{PendingPull, PsClient};
use crate::recover::Durability;
use crate::server::{ParamServer, ServerConfig};
use crate::sharded::{partition_keys, reassemble_snapshots, ShardedClient};
use crate::spares::Spares;
use crate::stats::TrafficStats;
use crate::Key;
use cdsgd_compress::{BufferPool, Compressed};
use cdsgd_net::wire::{self, FrameHead, WireMsg, FRAME_PREFIX_BYTES};
use cdsgd_net::{
    loopback_pair, wake_pair, FaultPlan, FaultyTransport, Landing, NetConfig, NetError, Poller,
    ReconnectConfig, Tail, TcpAcceptor, TcpTransport, Transport, WakeRx, Waker,
};
use cdsgd_telemetry::{Event, Telemetry};
use std::collections::{HashMap, VecDeque};
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Poll interval for the blocking waits that still run on a timer (the
/// accept loop's deadline, the reconnect supervisor's idle park). Every
/// one of them is also woken explicitly, so this bounds nothing a user
/// waits for.
const POLL: Duration = Duration::from_millis(200);

/// Number of I/O threads a [`PsNetServer`] multiplexes its connections
/// over — fixed, independent of how many workers connect.
const IO_THREADS: usize = 2;

/// Per-connection bound on queued outbound bytes: while a connection's
/// transport holds at least this much unflushed output, the event loop
/// stops popping further replies for it (backpressure) until the socket
/// drains.
const MAX_CONN_WBUF: usize = 1 << 20;

/// Frames read from one connection per event-loop visit, so a firehose
/// connection cannot starve its neighbours on the same I/O thread.
const READ_BURST: usize = 32;

/// Worker ids an *elastic* shard admits over the wire are
/// `0..MAX_ELASTIC_WORKERS`. Admission sizes the membership tables and
/// every key's queue table to the id, so an unchecked `Register` could
/// make the shard allocate whatever a socket asks for.
pub const MAX_ELASTIC_WORKERS: usize = 4096;

pub(crate) fn spawn_err(e: std::io::Error) -> NetError {
    NetError::Io(format!("spawn connection thread: {e}"))
}

// ---------------------------------------------------------------------------
// server side
// ---------------------------------------------------------------------------

/// A reply owed to a connection, queued in request order. Only the front
/// of a connection's queue is ever polled, so replies can never reorder.
enum Reply {
    Pull {
        key: u32,
        min_version: u64,
        pending: PendingPull,
    },
    Snapshot(Receiver<(Vec<Vec<f32>>, Vec<u64>)>),
    Register(Receiver<Vec<u64>>),
    Checkpoint(Receiver<Option<u64>>),
}

/// Per-connection state owned by one I/O thread: the non-blocking
/// transport, a reusable read buffer, what the head of the frame in
/// progress decided, and the FIFO of replies owed.
struct Conn {
    t: Box<dyn Transport>,
    /// The descriptor the I/O thread polls for this connection; `None`
    /// for a transport that wakes the thread itself.
    fd: Option<RawFd>,
    rbuf: Vec<u8>,
    bulk: Bulk,
    replies: VecDeque<Reply>,
    /// Transport connection id, tagged onto frame events.
    id: u64,
}

impl Conn {
    fn new(mut t: Box<dyn Transport>, waker: &Waker) -> Self {
        Self {
            id: t.conn_id(),
            fd: t.register(waker),
            t,
            rbuf: Vec::new(),
            bulk: Bulk::Bytes,
            replies: VecDeque::new(),
        }
    }
}

/// What a frame's head decided about the rest of it, before any of it is
/// read ([`HeadFirst`]).
#[derive(Default)]
enum Bulk {
    /// The frame arrives whole in the read buffer and is decoded there.
    #[default]
    Bytes,
    /// The message the head starts, its f32 bulk landing in its own
    /// storage: a raw push's pooled payload, a pull reply's snapshot.
    Landed(WireMsg),
    /// A push naming a key, length or worker this shard does not have:
    /// the frame is read whole and its connection retired, nothing
    /// reserved for the payload it declares.
    Refused(NetError),
}

impl Bulk {
    /// The finished frame's message — the landed one, or the read buffer
    /// `rbuf` through `decode` — and the frame's size on the wire.
    fn finish(
        mut self,
        rbuf: &[u8],
        decode: impl FnOnce(&[u8]) -> Result<WireMsg, NetError>,
    ) -> (usize, Result<WireMsg, NetError>) {
        let landed = match &mut self {
            Bulk::Landed(msg) => landing_storage(msg).map_or(0, |s| 4 * s.len()),
            _ => 0,
        };
        let msg = match self {
            Bulk::Bytes => decode(rbuf),
            Bulk::Landed(msg) => Ok(msg),
            Bulk::Refused(e) => Err(e),
        };
        (FRAME_PREFIX_BYTES + rbuf.len() + landed, msg)
    }
}

/// Where the f32 bulk of a message built from its head lands: a raw
/// push's payload, or a pull reply's weights while nobody else holds them.
fn landing_storage(msg: &mut WireMsg) -> Option<&mut [f32]> {
    match msg {
        WireMsg::Push {
            payload: Compressed::Raw(values),
            ..
        } => Some(values),
        WireMsg::PullReply { weights, .. } => Arc::get_mut(weights),
        _ => None,
    }
}

/// A receive that reads a push's or pull reply's 13-byte head first and
/// lets `decide` say where the rest goes; every other frame, and one
/// whose head does not parse, arrives whole in `rbuf`.
struct HeadFirst<'a, F> {
    rbuf: &'a mut Vec<u8>,
    bulk: &'a mut Bulk,
    decide: F,
}

impl<F: FnMut(FrameHead) -> Bulk> Landing for HeadFirst<'_, F> {
    fn frame(&mut self) -> &mut Vec<u8> {
        self.rbuf
    }

    fn head_len(&self) -> usize {
        FrameHead::BYTES
    }

    fn land(&mut self, head: &[u8], rest: usize) -> Option<&mut [f32]> {
        if matches!(self.bulk, Bulk::Bytes) {
            if let Ok(head) = wire::decode_head(head, rest) {
                *self.bulk = (self.decide)(head);
            }
        }
        match self.bulk {
            Bulk::Landed(msg) => landing_storage(msg),
            _ => None,
        }
    }
}

/// The handles a [`PsNetServer`] keeps on one of its I/O threads: where
/// to hand it a new connection, and how to end its wait.
struct IoThread {
    conns: Sender<Conn>,
    waker: Waker,
}

/// One parameter-server shard served over transports: wraps an ordinary
/// in-process [`ParamServer`] and speaks the wire protocol to any number
/// of attached connections ([`PsNetServer::attach`]) or a whole TCP
/// listener ([`PsNetServer::listen`]). This is the engine of the `psd`
/// server binary and of [`NetCluster`]'s local deployments.
///
/// All connections are multiplexed over a fixed pool of
/// [`PsNetServer::io_threads`] event-loop threads — per-connection cost
/// is a buffer, not a thread pair.
pub struct PsNetServer {
    ps: Mutex<Option<ParamServer>>,
    stats: Arc<TrafficStats>,
    failure: Arc<Mutex<Option<NetError>>>,
    stop: Arc<AtomicBool>,
    shutdown_signal: Arc<(Mutex<bool>, Condvar)>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// New connections are handed to I/O threads round-robin.
    io: Vec<IoThread>,
    next_io: AtomicUsize,
    /// Closers of the listeners being served, woken on shutdown.
    listeners: Mutex<Vec<Waker>>,
    /// Largest frame body a legitimate client can send this shard; the
    /// inbound limit of every attached connection.
    recv_limit: usize,
    rejected: Arc<AtomicU64>,
    /// Passes the I/O threads have made over their connections.
    #[cfg(test)]
    passes: Arc<AtomicU64>,
}

impl PsNetServer {
    /// Start a server thread owning `init` and ready to accept
    /// connections.
    pub fn start(init: Vec<Vec<f32>>, cfg: ServerConfig) -> Arc<Self> {
        Self::start_with(init, cfg, Telemetry::disabled(), Durability::default())
    }

    /// The full form of [`PsNetServer::start`]: every protocol-,
    /// transport- and round-lifecycle event this shard produces is also
    /// forwarded to `telemetry`, and `durability` wires the recovery
    /// subsystem into the inner server (see [`ParamServer::start_with`]).
    /// This is the engine of `psd --trace` and
    /// `psd --checkpoint-dir/--checkpoint-every/--resume`.
    pub fn start_with(
        init: Vec<Vec<f32>>,
        cfg: ServerConfig,
        telemetry: Telemetry,
        durability: Durability,
    ) -> Arc<Self> {
        // What a frame may name on this shard, checked at the wire
        // boundary (the inner server `assert`s the same for its trusted
        // in-process callers).
        let key_lens: Arc<[usize]> = init.iter().map(Vec::len).collect();
        let longest_key = key_lens.iter().copied().max().unwrap_or(0);
        let max_workers = match cfg.elastic {
            Some(_) => MAX_ELASTIC_WORKERS,
            None => cfg.num_workers,
        };
        let ps = ParamServer::start_with(init, cfg, telemetry, durability);
        let stats = ps.shared_stats();
        let stop = Arc::new(AtomicBool::new(false));
        let signal = Arc::new((Mutex::new(false), Condvar::new()));
        #[cfg(test)]
        let passes = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::new();
        let mut io = Vec::new();
        for i in 0..IO_THREADS {
            let (tx, rx) = mpsc::channel::<Conn>();
            let (waker, wake_rx) = wake_pair().expect("create I/O thread wake pipe");
            let io_loop = IoLoop {
                conns: rx,
                wake: wake_rx,
                // Replies this thread is owed end its wait.
                client: ps.client().waking(waker.clone()),
                key_lens: Arc::clone(&key_lens),
                max_workers,
                stats: Arc::clone(&stats),
                stop: Arc::clone(&stop),
                signal: Arc::clone(&signal),
                #[cfg(test)]
                passes: Arc::clone(&passes),
            };
            io.push(IoThread { conns: tx, waker });
            threads.push(
                std::thread::Builder::new()
                    .name(format!("psd-io-{i}"))
                    .spawn(move || io_loop.run())
                    .expect("spawn I/O thread"),
            );
        }
        Arc::new(Self {
            stats,
            failure: ps.failure_arc(),
            ps: Mutex::new(Some(ps)),
            stop,
            shutdown_signal: signal,
            threads: Mutex::new(threads),
            io,
            next_io: AtomicUsize::new(0),
            listeners: Mutex::new(Vec::new()),
            recv_limit: wire::max_inbound_body_bytes(longest_key),
            rejected: Arc::new(AtomicU64::new(0)),
            #[cfg(test)]
            passes,
        })
    }

    /// Serve one established connection: switch it to non-blocking mode,
    /// bound its inbound frames by the largest a legitimate client of
    /// this shard can send, and hand it to an I/O thread (round-robin).
    pub fn attach(&self, transport: Box<dyn Transport>) -> Result<(), NetError> {
        let io = &self.io[self.next_io.fetch_add(1, Ordering::Relaxed) % self.io.len()];
        let mut t = transport;
        t.set_nonblocking(true)?;
        t.set_recv_limit(self.recv_limit);
        let conn = Conn::new(t, &io.waker);
        io.conns.send(conn).map_err(|_| NetError::ServerGone)?;
        io.waker.wake();
        Ok(())
    }

    /// Accept connections from `acceptor` until shutdown. A connection
    /// that fails to attach is counted ([`PsNetServer::rejected_connections`])
    /// and reported as a [`Event::ConnRejected`] instead of silently
    /// dropped — and does not tear down the acceptor.
    pub fn listen(self: &Arc<Self>, acceptor: TcpAcceptor) {
        self.listeners.lock().unwrap().push(acceptor.closer());
        let me = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("psd-accept".into())
            .spawn(move || loop {
                if me.stop.load(Ordering::SeqCst) {
                    break;
                }
                match acceptor.accept(POLL) {
                    Ok(t) => {
                        if let Err(e) = me.attach(Box::new(t)) {
                            me.reject(&e);
                        }
                    }
                    Err(NetError::Timeout) => continue,
                    // Shutdown woke the closer.
                    Err(NetError::Closed) => break,
                    Err(e) => {
                        // The listener itself is broken; report once and
                        // stop accepting.
                        me.reject(&e);
                        break;
                    }
                }
            })
            .expect("spawn accept thread");
        self.threads.lock().unwrap().push(handle);
    }

    /// Count and report one failed/rejected connection attempt.
    fn reject(&self, err: &NetError) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.stats.telemetry().emit(|| Event::ConnRejected {
            reason: err.to_string(),
        });
    }

    /// Number of I/O threads multiplexing this server's connections —
    /// fixed at startup, independent of how many workers attach.
    pub fn io_threads(&self) -> usize {
        self.io.len()
    }

    /// Connection attempts that failed to attach (see
    /// [`PsNetServer::listen`]).
    pub fn rejected_connections(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// The failure that ended aggregation (the inner server's round
    /// deadline fired), if any.
    pub fn failure(&self) -> Option<NetError> {
        self.failure.lock().unwrap().clone()
    }

    /// Block until some client sends a [`WireMsg::Shutdown`] frame (the
    /// `psd` binary parks its main thread here) — `Ok(())` — or the inner
    /// server's round deadline declares a worker lost — `Err(WorkerLost)`,
    /// so the hosting process can exit nonzero instead of serving a dead
    /// round forever.
    pub fn wait_for_shutdown(&self) -> Result<(), NetError> {
        let (flag, cv) = &*self.shutdown_signal;
        let mut stopped = flag.lock().unwrap();
        loop {
            if let Some(err) = self.failure() {
                return Err(err);
            }
            if *stopped {
                return Ok(());
            }
            // Timed wait: the failure cell is written by the server
            // thread, which does not signal this condvar.
            let (guard, _) = cv
                .wait_timeout(stopped, Duration::from_millis(100))
                .unwrap();
            stopped = guard;
        }
    }

    /// Traffic counters (shared with the inner server: protocol-level
    /// push/pull plus transport-level sent/received).
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Stop serving: wake the accept and I/O threads out of their waits
    /// (they drop all connections), stop the server thread, join them.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let (flag, cv) = &*self.shutdown_signal;
        *flag.lock().unwrap() = true;
        cv.notify_all();
        for listener in self.listeners.lock().unwrap().drain(..) {
            listener.wake();
        }
        for io in &self.io {
            io.waker.wake();
        }
        if let Some(ps) = self.ps.lock().unwrap().take() {
            ps.shutdown();
        }
        let threads = std::mem::take(&mut *self.threads.lock().unwrap());
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for PsNetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One I/O thread: block until something can have changed, adopt new
/// connections, then visit every connection — read ready frames,
/// dispatch to the in-process client, pop resolved replies (FIFO, bounded
/// outbound queue), flush.
struct IoLoop {
    conns: Receiver<Conn>,
    wake: WakeRx,
    client: PsClient,
    /// Per-key weight lengths of this shard: a push must name one of
    /// these keys and decode to exactly its length.
    key_lens: Arc<[usize]>,
    /// Worker ids a frame may name are `0..max_workers`: the fixed
    /// quorum, or [`MAX_ELASTIC_WORKERS`] on an elastic shard.
    max_workers: usize,
    stats: Arc<TrafficStats>,
    stop: Arc<AtomicBool>,
    signal: Arc<(Mutex<bool>, Condvar)>,
    #[cfg(test)]
    passes: Arc<AtomicU64>,
}

impl IoLoop {
    /// A worker id decoded off the wire, or the [`NetError::Decode`]
    /// that retires its connection.
    fn worker(&self, worker: u32) -> Result<usize, NetError> {
        let w = worker as usize;
        if w < self.max_workers {
            Ok(w)
        } else {
            Err(NetError::Decode(format!(
                "worker id {w} out of range: this shard admits ids 0..{}",
                self.max_workers
            )))
        }
    }

    /// The `(worker, key)` of a push of `len` elements, or the
    /// [`NetError::Decode`] that retires its connection: the key must be
    /// one of this shard's and hold exactly `len` weights. Checked on the
    /// head, before anything is reserved for the payload, and again on
    /// every push the loop hands on — the only check a frame no longer
    /// than its head meets.
    fn check_push(&self, worker: u32, key: u32, len: usize) -> Result<(usize, usize), NetError> {
        let key = key as usize;
        let holds = self.key_lens.get(key);
        if holds != Some(&len) {
            return Err(NetError::Decode(format!(
                "push of {len} elements to key {key}, which holds {holds:?} \
                 on this shard of {} keys",
                self.key_lens.len()
            )));
        }
        Ok((self.worker(worker)?, key))
    }

    /// What a push's head decides ([`Bulk`]): refused unless it names
    /// one of this shard's keys at that key's length and an admissible
    /// worker; a raw one lands in a pooled buffer of the key's length
    /// (one the shard recycled, sized without a pass); a compressed one
    /// and every other frame is decoded whole.
    fn land_push(&self, head: FrameHead) -> Bulk {
        let FrameHead::Push {
            worker,
            key,
            len,
            raw,
        } = head
        else {
            return Bulk::Bytes;
        };
        match self.check_push(worker, key, len) {
            Err(e) => Bulk::Refused(e),
            Ok(_) if raw => Bulk::Landed(WireMsg::Push {
                worker,
                key,
                payload: Compressed::Raw(self.client.pool().take_f32_len(len)),
            }),
            Ok(_) => Bulk::Bytes,
        }
    }

    fn run(self) {
        let mut conns: Vec<Conn> = Vec::new();
        let mut head = Vec::new();
        let mut poller = Poller::new();
        // Set when a visit stopped at its read burst with frames possibly
        // left in a queue no descriptor reports: pass again, don't wait.
        let mut more = false;
        loop {
            if !more {
                poller.clear();
                poller.add(self.wake.fd(), false);
                for c in &conns {
                    if let Some(fd) = c.fd {
                        // Writability only matters while output is queued.
                        poller.add(fd, c.t.pending_out_bytes() > 0);
                    }
                }
                // Only a broken descriptor set can fail here, and the
                // pass below retires whichever connection broke it.
                let _ = poller.wait(None);
                // Drain before looking for work: a wake that races the
                // pass is then kept for the next wait instead of lost.
                if poller.is_ready(0) {
                    self.wake.drain();
                }
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            while let Ok(c) = self.conns.try_recv() {
                conns.push(c);
            }
            #[cfg(test)]
            self.passes.fetch_add(1, Ordering::Relaxed);
            more = false;
            let mut i = 0;
            while i < conns.len() {
                match self.service(&mut conns[i], &mut head) {
                    Ok(burst_spent) => {
                        more |= burst_spent;
                        i += 1;
                    }
                    // Dead connection (peer hung up, a frame naming a key,
                    // length or worker this shard does not have, or
                    // server gone): drop it; its transport closes on
                    // drop.
                    Err(_) => {
                        conns.swap_remove(i);
                    }
                }
            }
        }
    }

    /// One visit to one connection. `Ok(true)` if the read burst was
    /// spent (more frames may be waiting); `Err` retires the connection.
    fn service(&self, c: &mut Conn, head: &mut Vec<u8>) -> Result<bool, NetError> {
        let (client, stats) = (&self.client, &*self.stats);
        // Inbound: drain up to READ_BURST ready frames.
        let mut burst_spent = true;
        for _ in 0..READ_BURST {
            let mut landing = HeadFirst {
                rbuf: &mut c.rbuf,
                bulk: &mut c.bulk,
                decide: |head| self.land_push(head),
            };
            if !c.t.poll_recv_frame(&mut landing)? {
                burst_spent = false;
                break;
            }
            // A raw push's payload is already in the storage the shard
            // recycles aggregated payloads into; any other push is
            // decoded into it.
            let (frame, msg) = std::mem::take(&mut c.bulk).finish(&c.rbuf, |bytes| {
                wire::decode_msg_pooled(bytes, client.pool())
            });
            stats.record_received(c.id, frame);
            match msg? {
                WireMsg::Push {
                    worker,
                    key,
                    payload,
                } => {
                    let (worker, key) = self.check_push(worker, key, payload.len())?;
                    client.push_from(c.id, worker, key, payload)?
                }
                WireMsg::Pull { key, min_version } => {
                    let pending = client.pull_async(key as usize, min_version)?;
                    c.replies.push_back(Reply::Pull {
                        key,
                        min_version,
                        pending,
                    });
                }
                WireMsg::SetLr { lr } => client.set_lr(lr)?,
                WireMsg::Snapshot => c
                    .replies
                    .push_back(Reply::Snapshot(client.snapshot_async()?)),
                WireMsg::Register { worker } => c.replies.push_back(Reply::Register(
                    client.join_async_from(c.id, self.worker(worker)?)?,
                )),
                WireMsg::Heartbeat { worker } => client.heartbeat(worker as usize)?,
                WireMsg::Leave { worker } => client.leave(worker as usize)?,
                WireMsg::CancelJoin { worker } => client.cancel_join_from(c.id, worker as usize)?,
                WireMsg::Checkpoint => c
                    .replies
                    .push_back(Reply::Checkpoint(client.checkpoint_async()?)),
                WireMsg::Shutdown => {
                    let (flag, cv) = &*self.signal;
                    *flag.lock().unwrap() = true;
                    cv.notify_all();
                    return Err(NetError::ServerGone);
                }
                // Server-to-client messages arriving at the server are a
                // protocol violation; drop the connection.
                WireMsg::PullReply { .. }
                | WireMsg::SnapshotReply { .. }
                | WireMsg::RegisterAck { .. }
                | WireMsg::CheckpointAck { .. } => {
                    return Err(NetError::Io("unexpected server-to-client frame".into()))
                }
            }
        }
        // Move queued output toward the socket without blocking.
        if c.t.pending_out_bytes() > 0 {
            c.t.poll_flush()?;
        }
        // Outbound: pop resolved replies in request order while the
        // transport's queued output stays under the per-connection bound.
        while c.t.pending_out_bytes() < MAX_CONN_WBUF {
            // Each arm encodes the frame's head; a pull reply's bulk is
            // the shard's snapshot itself, sent (and if need be queued)
            // by reference.
            let snapshot: Option<Arc<[f32]>> = match c.replies.front() {
                None => break,
                Some(Reply::Pull {
                    key,
                    min_version,
                    pending,
                }) => match pending.try_wait() {
                    None => break,
                    // A typed failure (round deadline, shutdown) kills the
                    // connection; the remote client surfaces ServerGone.
                    Some(Err(e)) => return Err(e),
                    Some(Ok(w)) => {
                        wire::encode_pull_reply_head_into(*key, *min_version, head);
                        Some(w)
                    }
                },
                Some(Reply::Snapshot(rx)) => match rx.try_recv() {
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return Err(NetError::ServerGone),
                    Ok((w, v)) => {
                        wire::encode_snapshot_reply_into(&w, &v, head);
                        None
                    }
                },
                Some(Reply::Register(rx)) => match rx.try_recv() {
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return Err(NetError::ServerGone),
                    Ok(versions) => {
                        wire::encode_register_ack_into(&versions, head);
                        None
                    }
                },
                Some(Reply::Checkpoint(rx)) => match rx.try_recv() {
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return Err(NetError::ServerGone),
                    Ok(round) => {
                        wire::encode_checkpoint_ack_into(round, head);
                        None
                    }
                },
            };
            c.replies.pop_front();
            let tail_bytes = snapshot.as_ref().map_or(0, |w| 4 * w.len());
            c.t.send_parts(head, snapshot.as_ref().map_or(Tail::NONE, Tail::F32s))?;
            stats.record_sent(c.id, FRAME_PREFIX_BYTES + head.len() + tail_bytes);
        }
        Ok(burst_spent)
    }
}

// ---------------------------------------------------------------------------
// client side
// ---------------------------------------------------------------------------

struct WriteHalf {
    t: Box<dyn Transport>,
    buf: Vec<u8>,
}

/// One outstanding pull: its `(key, version)` and the reply channel.
type PendingPullEntry = ((u32, u64), SyncSender<Result<Arc<[f32]>, NetError>>);
/// A full server snapshot: per-key weights and per-key versions.
type SnapshotReply = (Vec<Vec<f32>>, Vec<u64>);

#[derive(Default)]
struct Pending {
    /// Outstanding pulls in request order, matched by `(key, version)`.
    pulls: VecDeque<PendingPullEntry>,
    snapshot: Option<SyncSender<SnapshotReply>>,
    /// Outstanding membership registration, resolved by `RegisterAck`.
    register: Option<SyncSender<Vec<u64>>>,
    /// Outstanding checkpoint request, resolved by `CheckpointAck`.
    checkpoint: Option<SyncSender<Option<u64>>>,
}

/// A [`ParamClient`] talking to one remote shard over a transport.
///
/// Requests are encoded under a small writer lock; replies arrive on a
/// dedicated reader thread that resolves the matching [`PendingPull`], so
/// the blocking/overlap semantics are identical to the in-process
/// [`PsClient`]. If the connection dies, outstanding and future requests
/// surface [`NetError`]s instead of panicking.
pub struct RemoteClient {
    writer: Mutex<WriteHalf>,
    pending: Arc<Mutex<Pending>>,
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
        let pending = Arc::new(Mutex::new(Pending::default()));

        let pending2 = Arc::clone(&pending);
        let stats2 = Arc::clone(&stats);
        let reader = std::thread::Builder::new()
            .name("ps-client-read".into())
            .spawn(move || {
                let mut buf = Vec::new();
                // Per key, the snapshots this reader handed out: a reply
                // lands in one the worker has let go of again (the
                // server's own rule, `crate::spares`), so a steady-state
                // reply neither allocates nor decodes. Only keys the
                // worker pulled get an entry: a key's first reply is
                // decoded whole.
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
                    match read_t.recv_frame(&mut landing) {
                        Ok(()) => {}
                        Err(NetError::Timeout) => continue,
                        Err(_) => break,
                    }
                    let (frame, msg) = std::mem::take(&mut bulk).finish(&buf, wire::decode_msg);
                    stats2.record_received(conn, frame);
                    match msg {
                        Ok(WireMsg::PullReply {
                            key,
                            min_version,
                            weights,
                        }) => {
                            stats2.record_pull(frame);
                            let sender = {
                                let mut p = pending2.lock().unwrap();
                                p.pulls
                                    .iter()
                                    .position(|(id, _)| *id == (key, min_version))
                                    .and_then(|i| p.pulls.remove(i))
                                    .map(|(_, tx)| tx)
                            };
                            if let Some(tx) = sender {
                                spares.entry(key).or_default().retire(Arc::clone(&weights));
                                // The waiter may have been dropped; fine.
                                let _ = tx.send(Ok(weights));
                            }
                        }
                        Ok(WireMsg::SnapshotReply { weights, versions }) => {
                            let tx = pending2.lock().unwrap().snapshot.take();
                            if let Some(tx) = tx {
                                let _ = tx.send((weights, versions));
                            }
                        }
                        Ok(WireMsg::RegisterAck { versions }) => {
                            let tx = pending2.lock().unwrap().register.take();
                            if let Some(tx) = tx {
                                let _ = tx.send(versions);
                            }
                        }
                        Ok(WireMsg::CheckpointAck { round }) => {
                            let tx = pending2.lock().unwrap().checkpoint.take();
                            if let Some(tx) = tx {
                                let _ = tx.send(round);
                            }
                        }
                        // Anything else from the server is a protocol
                        // violation; treat as a dead connection.
                        _ => break,
                    }
                }
                // Dropping the registered senders makes every outstanding
                // wait return `NetError::ServerGone`.
                let mut p = pending2.lock().unwrap();
                p.pulls.clear();
                p.snapshot = None;
                p.register = None;
                p.checkpoint = None;
            })
            .map_err(spawn_err)?;

        Ok(Self {
            writer: Mutex::new(WriteHalf {
                t: transport,
                buf: Vec::new(),
            }),
            pending,
            stats,
            pool,
            reader: Some(reader),
            conn,
        })
    }

    /// Encode and send one frame; returns the full frame size.
    fn send(&self, msg: &WireMsg) -> Result<usize, NetError> {
        let mut w = self.writer.lock().unwrap();
        let WriteHalf { t, buf } = &mut *w;
        wire::encode_msg_into(msg, buf);
        t.send_frame(buf)?;
        let n = FRAME_PREFIX_BYTES + buf.len();
        drop(w);
        self.stats.record_sent(self.conn, n);
        Ok(n)
    }

    /// Fetch all weights + versions from this shard. Like
    /// [`RemoteClient::register`], a concurrent second request is
    /// rejected instead of silently dropping the first caller's slot.
    pub fn snapshot(&self) -> Result<(Vec<Vec<f32>>, Vec<u64>), NetError> {
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let mut p = self.pending.lock().unwrap();
            if p.snapshot.is_some() {
                return Err(NetError::Io(
                    "a snapshot request is already outstanding on this connection".into(),
                ));
            }
            p.snapshot = Some(tx);
        }
        if let Err(e) = self.send(&WireMsg::Snapshot) {
            self.pending.lock().unwrap().snapshot = None;
            return Err(e);
        }
        rx.recv().map_err(|_| NetError::ServerGone)
    }

    /// Ask this shard to write a durable checkpoint of its current state
    /// ([`WireMsg::Checkpoint`]). Returns the captured round, or `None`
    /// if the shard refused (see [`PsClient::checkpoint_now`]). Subject
    /// to the same single-outstanding-request guard as `snapshot`.
    pub fn checkpoint_now(&self) -> Result<Option<u64>, NetError> {
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let mut p = self.pending.lock().unwrap();
            if p.checkpoint.is_some() {
                return Err(NetError::Io(
                    "a checkpoint request is already outstanding on this connection".into(),
                ));
            }
            p.checkpoint = Some(tx);
        }
        if let Err(e) = self.send(&WireMsg::Checkpoint) {
            self.pending.lock().unwrap().checkpoint = None;
            return Err(e);
        }
        rx.recv().map_err(|_| NetError::ServerGone)
    }

    /// Change this shard's learning rate ([`WireMsg::SetLr`]; takes
    /// effect on its next aggregate update).
    pub fn set_lr(&self, lr: f32) -> Result<(), NetError> {
        self.send(&WireMsg::SetLr { lr }).map(|_| ())
    }

    /// Tell the remote server process to exit ([`WireMsg::Shutdown`]).
    pub fn shutdown_server(&self) -> Result<(), NetError> {
        self.send(&WireMsg::Shutdown).map(|_| ())
    }
}

impl ParamClient for RemoteClient {
    fn push(&self, worker: usize, key: Key, payload: Compressed) -> Result<(), NetError> {
        let n = {
            let mut w = self.writer.lock().unwrap();
            let WriteHalf { t, buf } = &mut *w;
            // Header into `buf`; the payload's bulk goes to the socket
            // from its own storage.
            let tail = wire::encode_push_parts(worker as u32, key as u32, &payload, buf);
            t.send_parts(buf, Tail::Bytes(tail))?;
            FRAME_PREFIX_BYTES + buf.len() + tail.len()
        };
        // Same formula the in-process server charges, so histories match
        // across backends bit-for-bit.
        self.stats.record_push(n);
        self.stats.record_sent(self.conn, n);
        payload.recycle(&self.pool);
        Ok(())
    }

    fn pull_async(&self, key: Key, min_version: u64) -> Result<PendingPull, NetError> {
        let id = (key as u32, min_version);
        let (tx, rx) = mpsc::sync_channel(1);
        // Register before sending: the reply may race back before we
        // would re-acquire the pending lock.
        self.pending.lock().unwrap().pulls.push_back((id, tx));
        if let Err(e) = self.send(&WireMsg::Pull {
            key: id.0,
            min_version,
        }) {
            let mut p = self.pending.lock().unwrap();
            if let Some(i) = p.pulls.iter().position(|(pid, _)| *pid == id) {
                p.pulls.remove(i);
            }
            return Err(e);
        }
        Ok(PendingPull(rx))
    }

    /// Register over this connection. A second register while one is
    /// outstanding is rejected with [`NetError::RegisterPending`]: the
    /// single reply slot would otherwise silently drop the first
    /// caller's sender, leaving it to starve and misdeliver the ack.
    fn register(&self, worker: usize) -> Result<Vec<u64>, NetError> {
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let mut p = self.pending.lock().unwrap();
            if p.register.is_some() {
                return Err(NetError::RegisterPending);
            }
            p.register = Some(tx);
        }
        if let Err(e) = self.send(&WireMsg::Register {
            worker: worker as u32,
        }) {
            // Nothing went out, so no ack can arrive: reclaim the slot
            // (still ours — concurrent registers were rejected above).
            self.pending.lock().unwrap().register = None;
            return Err(e);
        }
        rx.recv().map_err(|_| NetError::ServerGone)
    }

    /// Rides the same ordered stream as this client's pushes, so a leave
    /// can never overtake an in-flight push.
    fn leave(&self, worker: usize) -> Result<(), NetError> {
        self.send(&WireMsg::Leave {
            worker: worker as u32,
        })
        .map(|_| ())
    }

    /// Rides the same ordered stream as this connection's register, so
    /// the cancel can never overtake the registration it revokes.
    fn cancel_join(&self, worker: usize) -> Result<(), NetError> {
        self.send(&WireMsg::CancelJoin {
            worker: worker as u32,
        })
        .map(|_| ())
    }

    fn heartbeat(&self, worker: usize) -> Result<(), NetError> {
        self.send(&WireMsg::Heartbeat {
            worker: worker as u32,
        })
        .map(|_| ())
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

/// One pull owned by the reconnect supervisor: the caller-requested
/// global version, the (possibly clamped) version actually on the wire,
/// the in-flight inner pull, and the channel the caller waits on.
struct OutstandingPull {
    key: Key,
    version: u64,
    issued: u64,
    /// Session epoch the pull was issued under: a failure from an older
    /// epoch must not trigger a redundant reconnect of the newer one.
    epoch: u64,
    pending: PendingPull,
    out: SyncSender<Result<Arc<[f32]>, NetError>>,
}

enum PullCmd {
    Pull {
        key: Key,
        version: u64,
        out: SyncSender<Result<Arc<[f32]>, NetError>>,
    },
}

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
/// client handle and its supervisor thread.
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
    {
        let s = ctx.session.lock().unwrap();
        if let Some(e) = &s.failed {
            return Err(e.clone());
        }
        if s.epoch != observed_epoch {
            return Ok(());
        }
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

/// A [`ParamClient`] that survives transient link drops: any send
/// failure (or an outstanding pull resolving [`NetError::ServerGone`])
/// triggers a bounded-backoff redial of every shard, a re-`Register`,
/// and an exactly-once replay of the pushes the completed rounds did not
/// consume; outstanding pulls are re-issued on the fresh connections by
/// a supervisor thread. Requires an elastic server (re-registration is
/// what clears the server-side queues); see DESIGN.md §13. Never built
/// unless reconnect flags are set, so fault-free runs are untouched.
pub struct ReconnectingClient {
    ctx: Arc<ReconnectCtx>,
    cmd_tx: Sender<PullCmd>,
    supervisor: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
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
            rc,
            reconnects: AtomicU64::new(0),
        });
        let (cmd_tx, cmd_rx) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let supervisor = spawn_supervisor(Arc::clone(&ctx), cmd_rx, Arc::clone(&stop))?;
        Ok(Self {
            ctx,
            cmd_tx,
            supervisor: Some(supervisor),
            stop,
        })
    }

    /// How many times this client successfully reconnected (diagnostics
    /// and test hooks).
    pub fn reconnects(&self) -> u64 {
        self.ctx.reconnects.load(Ordering::Relaxed)
    }
}

/// Issue one pull on the current session, reconnecting as needed; on
/// success the in-flight pull joins `outstanding`, on terminal failure
/// the caller's channel gets the error.
fn issue_pull(
    ctx: &ReconnectCtx,
    key: Key,
    version: u64,
    out: SyncSender<Result<Arc<[f32]>, NetError>>,
    outstanding: &mut Vec<OutstandingPull>,
) {
    loop {
        let epoch = {
            let s = ctx.session.lock().unwrap();
            if let Some(e) = &s.failed {
                let _ = out.send(Err(e.clone()));
                return;
            }
            // Clamp a pull the server can no longer serve exactly (only
            // reachable through CD-SGD's one-round-deep deferred pulls
            // when the drop ate the reply): `version - 1` is the oldest
            // the server keeps, and it fails any older pull.
            let issued = match &s.acked {
                Some(a) if version + 1 < a[key] => a[key] - 1,
                _ => version,
            };
            match s.inner.pull_async(key, issued) {
                Ok(pending) => {
                    outstanding.push(OutstandingPull {
                        key,
                        version,
                        issued,
                        epoch: s.epoch,
                        pending,
                        out,
                    });
                    return;
                }
                Err(_) => s.epoch,
            }
        };
        // Redial with the session lock released (see `reconnect_session`).
        if reconnect_session(ctx, epoch).is_err() {
            let e = ctx
                .session
                .lock()
                .unwrap()
                .failed
                .clone()
                .unwrap_or(NetError::ServerGone);
            let _ = out.send(Err(e));
            return;
        }
        // Retry on the fresh session.
    }
}

fn spawn_supervisor(
    ctx: Arc<ReconnectCtx>,
    cmd_rx: Receiver<PullCmd>,
    stop: Arc<AtomicBool>,
) -> Result<JoinHandle<()>, NetError> {
    std::thread::Builder::new()
        .name("ps-reconnect".into())
        .spawn(move || {
            let mut outstanding: Vec<OutstandingPull> = Vec::new();
            loop {
                if stop.load(Ordering::Relaxed) {
                    // Dropping `outstanding` drops the out-senders, so
                    // any remaining waiters resolve ServerGone.
                    break;
                }
                // Adopt queued pull requests; park briefly when idle.
                loop {
                    let cmd = if outstanding.is_empty() {
                        match cmd_rx.recv_timeout(POLL) {
                            Ok(c) => Some(c),
                            Err(RecvTimeoutError::Timeout) => None,
                            Err(RecvTimeoutError::Disconnected) => return,
                        }
                    } else {
                        match cmd_rx.try_recv() {
                            Ok(c) => Some(c),
                            Err(TryRecvError::Empty) => None,
                            Err(TryRecvError::Disconnected) => return,
                        }
                    };
                    match cmd {
                        Some(PullCmd::Pull { key, version, out }) => {
                            issue_pull(&ctx, key, version, out, &mut outstanding)
                        }
                        None => break,
                    }
                }
                // Poll the in-flight pulls.
                let mut progress = false;
                let mut i = 0;
                while i < outstanding.len() {
                    match outstanding[i].pending.try_wait() {
                        None => i += 1,
                        Some(Ok(weights)) => {
                            let o = outstanding.swap_remove(i);
                            {
                                // Version `issued` completed, so every
                                // push at or below it was aggregated:
                                // confirm (drop) those replay entries.
                                let mut s = ctx.session.lock().unwrap();
                                while s.replay[o.key].front().is_some_and(|(v, _)| *v <= o.issued) {
                                    let (_, payload) =
                                        s.replay[o.key].pop_front().expect("front checked");
                                    payload.recycle(&ctx.pool);
                                }
                            }
                            let _ = o.out.send(Ok(weights));
                            progress = true;
                        }
                        Some(Err(_)) => {
                            // The connection died under this pull:
                            // reconnect (a no-op if a newer epoch
                            // already did) and re-issue it verbatim.
                            let o = outstanding.swap_remove(i);
                            let _ = reconnect_session(&ctx, o.epoch);
                            issue_pull(&ctx, o.key, o.version, o.out, &mut outstanding);
                            progress = true;
                        }
                    }
                }
                if !progress && !outstanding.is_empty() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        })
        .map_err(spawn_err)
}

impl ParamClient for ReconnectingClient {
    fn push(&self, worker: usize, key: Key, payload: Compressed) -> Result<(), NetError> {
        let epoch = {
            let mut s = self.ctx.session.lock().unwrap();
            if let Some(e) = &s.failed {
                return Err(e.clone());
            }
            s.pushed[key] += 1;
            let version = s.pushed[key];
            s.replay[key].push_back((version, payload.clone()));
            if s.replay[key].len() > REPLAY_DEPTH {
                // Keep the buffer bounded for keys that are pushed but
                // never pulled; under the normal ≤2-round lag this never
                // trips.
                let (_, stale) = s.replay[key].pop_front().expect("len checked");
                stale.recycle(&self.ctx.pool);
            }
            match s.inner.push(worker, key, payload) {
                Ok(()) => return Ok(()),
                Err(_) => s.epoch,
            }
        };
        // The replay buffer holds this push: it was buffered under the
        // session lock, strictly before any install, so whichever redial
        // installs the next session replays it.
        reconnect_session(&self.ctx, epoch)
    }

    fn pull_async(&self, key: Key, min_version: u64) -> Result<PendingPull, NetError> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.cmd_tx
            .send(PullCmd::Pull {
                key,
                version: min_version,
                out: tx,
            })
            .map_err(|_| NetError::ServerGone)?;
        Ok(PendingPull(rx))
    }

    /// Registers on the current connections (retrying through a
    /// reconnect) and starts the per-key push versions at the ack. Must
    /// precede the first push, which the worker binary's flow
    /// guarantees.
    fn register(&self, worker: usize) -> Result<Vec<u64>, NetError> {
        debug_assert_eq!(
            worker, self.ctx.worker,
            "one reconnecting client per worker"
        );
        let epoch = {
            let mut s = self.ctx.session.lock().unwrap();
            if let Some(e) = &s.failed {
                return Err(e.clone());
            }
            match s.inner.register(worker) {
                Ok(acked) => {
                    s.pushed = acked.clone();
                    s.acked = Some(acked.clone());
                    return Ok(acked);
                }
                Err(_) => s.epoch,
            }
        };
        reconnect_session(&self.ctx, epoch)?;
        let mut s = self.ctx.session.lock().unwrap();
        let acked = s.acked.clone().expect("reconnect stores the ack");
        s.pushed = acked.clone();
        Ok(acked)
    }

    fn leave(&self, worker: usize) -> Result<(), NetError> {
        let epoch = {
            let s = self.ctx.session.lock().unwrap();
            if let Some(e) = &s.failed {
                return Err(e.clone());
            }
            match s.inner.leave(worker) {
                Ok(()) => return Ok(()),
                Err(_) => s.epoch,
            }
        };
        reconnect_session(&self.ctx, epoch)?;
        self.ctx.session.lock().unwrap().inner.leave(worker)
    }

    /// Forwarded to the current session without a redial on failure: a
    /// cancel is only honoured from the connections whose registration
    /// it rolls back, so re-sending it on a fresh session would be a
    /// server-side no-op anyway.
    fn cancel_join(&self, worker: usize) -> Result<(), NetError> {
        let s = self.ctx.session.lock().unwrap();
        if let Some(e) = &s.failed {
            return Err(e.clone());
        }
        s.inner.cancel_join(worker)
    }

    /// Best-effort: a failed heartbeat means the link is down, and the
    /// push or pull that discovers that triggers the reconnect — the
    /// heartbeat thread must not die (or redial) over it. Takes only a
    /// brief session-lock hold, so heartbeats stay responsive even while
    /// a redial sleeps through its backoff schedule.
    fn heartbeat(&self, worker: usize) -> Result<(), NetError> {
        let s = self.ctx.session.lock().unwrap();
        if let Some(e) = &s.failed {
            return Err(e.clone());
        }
        let _ = s.inner.heartbeat(worker);
        Ok(())
    }

    fn pool(&self) -> &BufferPool {
        &self.ctx.pool
    }
}

impl Drop for ReconnectingClient {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// deployment
// ---------------------------------------------------------------------------

/// How [`NetCluster`] reaches one shard.
#[derive(Clone)]
enum ShardConn {
    /// In-memory loopback to a server in this process.
    Loopback(Arc<PsNetServer>),
    /// TCP to `addr` (same process, another process, another host).
    Tcp(String),
}

/// Everything needed to (re)dial every shard of a cluster — the piece
/// of [`NetCluster`] a [`ReconnectingClient`] carries so it can rebuild
/// its connections after a link drop without holding the cluster.
#[derive(Clone)]
pub(crate) struct ShardDialer {
    conns: Vec<ShardConn>,
    net: NetConfig,
    stats: Arc<TrafficStats>,
    /// One-shot fault plan: armed by [`NetCluster::arm_chaos`], consumed
    /// by the *next* dial so the redial after an injected drop gets
    /// clean transports.
    chaos: Arc<Mutex<Option<FaultPlan>>>,
}

impl ShardDialer {
    fn open(&self, conn: &ShardConn) -> Result<Box<dyn Transport>, NetError> {
        match conn {
            ShardConn::Loopback(server) => {
                let (client_end, server_end) = loopback_pair();
                server.attach(Box::new(server_end))?;
                Ok(Box::new(client_end))
            }
            ShardConn::Tcp(addr) => Ok(Box::new(TcpTransport::connect(addr.as_str(), &self.net)?)),
        }
    }

    /// Fresh connections to every shard, in shard order. When a chaos
    /// plan is armed, this dial takes it and wraps every transport in a
    /// [`FaultyTransport`] sharing that plan's counters.
    fn dial(&self, pool: &BufferPool) -> Result<Vec<RemoteClient>, NetError> {
        let plan = self.chaos.lock().unwrap().take();
        self.conns
            .iter()
            .map(|c| {
                let mut t = self.open(c)?;
                if let Some(plan) = &plan {
                    t = Box::new(FaultyTransport::new(t, plan.clone()));
                }
                RemoteClient::new(t, Arc::clone(&self.stats), pool.clone())
            })
            .collect()
    }
}

/// A sharded parameter-server deployment behind real transports: the
/// [`PsBackend`] the trainer uses to run *identical* training over
/// loopback, local TCP, or external `psd` server processes.
pub struct NetCluster {
    /// How to reach every shard; worker clients dial through it (and
    /// take its armed fault plan), control clients open plain links.
    dialer: ShardDialer,
    /// Locally-owned shard servers (empty when connecting to external
    /// processes).
    local: Vec<Arc<PsNetServer>>,
    /// Send [`WireMsg::Shutdown`] on shutdown (external `psd` processes).
    remote_shutdown: bool,
    pub(crate) num_keys: usize,
    /// One control link per shard, opened on first use
    /// ([`NetCluster::control`]).
    control: OnceLock<Vec<RemoteClient>>,
}

impl NetCluster {
    /// Shards in this process, reached over in-memory loopback
    /// transports — full wire protocol, zero sockets.
    pub fn start_loopback(
        init: Vec<Vec<f32>>,
        cfg: ServerConfig,
        num_shards: usize,
    ) -> Result<Self, NetError> {
        let num_keys = init.len();
        let local: Vec<_> = partition_keys(init, num_shards)
            .into_iter()
            .map(|shard_init| PsNetServer::start(shard_init, cfg))
            .collect();
        let conns = local
            .iter()
            .map(|s| ShardConn::Loopback(Arc::clone(s)))
            .collect();
        let net = NetConfig::default();
        Ok(Self::assemble(conns, local, false, num_keys, net))
    }

    /// Shards in this process, each listening on an ephemeral localhost
    /// TCP port — the full socket path without managing processes.
    pub fn start_tcp_local(
        init: Vec<Vec<f32>>,
        cfg: ServerConfig,
        num_shards: usize,
        net: NetConfig,
    ) -> Result<Self, NetError> {
        let num_keys = init.len();
        let mut local = Vec::new();
        let mut conns = Vec::new();
        for shard_init in partition_keys(init, num_shards) {
            let server = PsNetServer::start(shard_init, cfg);
            let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", net.clone())?;
            server.listen(acceptor);
            conns.push(ShardConn::Tcp(addr.to_string()));
            local.push(server);
        }
        Ok(Self::assemble(conns, local, false, num_keys, net))
    }

    /// Reach already-running `psd` shard processes, `addrs[i]` serving
    /// global keys `{k : k % addrs.len() == i}`; every link is dialed when
    /// first needed. Shutdown frames are sent to every shard when this
    /// cluster shuts down.
    pub fn connect(addrs: &[String], num_keys: usize, net: NetConfig) -> Result<Self, NetError> {
        assert!(!addrs.is_empty(), "need at least one shard address");
        let conns = addrs.iter().map(|a| ShardConn::Tcp(a.clone())).collect();
        Ok(Self::assemble(conns, Vec::new(), true, num_keys, net))
    }

    /// The full form of all three constructors: the same cluster with a
    /// telemetry sink attached to its client-side traffic accounting, so
    /// every push/pull/frame event any client of this cluster records is
    /// also forwarded to `telemetry`. Call it on the freshly built
    /// cluster, before any client is handed out: the counters restart
    /// from zero. No constructor dials a link, so none is dialed twice.
    pub fn traced(mut self, telemetry: Telemetry) -> Result<Self, NetError> {
        self.dialer.stats = Arc::new(TrafficStats::with_telemetry(telemetry));
        Ok(self)
    }

    fn assemble(
        conns: Vec<ShardConn>,
        local: Vec<Arc<PsNetServer>>,
        remote_shutdown: bool,
        num_keys: usize,
        net: NetConfig,
    ) -> Self {
        let dialer = ShardDialer {
            conns,
            net,
            stats: Arc::new(TrafficStats::default()),
            chaos: Arc::new(Mutex::new(None)),
        };
        Self {
            dialer,
            local,
            remote_shutdown,
            num_keys,
            control: OnceLock::new(),
        }
    }

    /// The control links (learning rate, snapshot, shutdown), one per
    /// shard, dialed by the first call that needs them.
    fn control(&self) -> Result<&[RemoteClient], NetError> {
        if let Some(control) = self.control.get() {
            return Ok(control);
        }
        let pool = BufferPool::new();
        let control = self
            .dialer
            .conns
            .iter()
            .map(|c| {
                let t = self.dialer.open(c)?;
                RemoteClient::new(t, Arc::clone(&self.dialer.stats), pool.clone())
            })
            .collect::<Result<_, _>>()?;
        Ok(self.control.get_or_init(|| control))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.dialer.conns.len()
    }

    /// Client-side aggregate traffic counters (all shards, all clients
    /// handed out by this cluster).
    pub fn stats(&self) -> &TrafficStats {
        &self.dialer.stats
    }

    /// Shared ownership of the client-side counters, so a caller can
    /// keep reading them after the cluster has been consumed (e.g. to
    /// check final accounting once a training run shuts it down).
    pub fn shared_stats(&self) -> Arc<TrafficStats> {
        Arc::clone(&self.dialer.stats)
    }

    /// Arm a one-shot [`FaultPlan`] for the *next* worker client dialed
    /// from this cluster (via [`PsBackend::client`] or
    /// [`NetCluster::attach`]): every transport of that dial is wrapped
    /// in a [`FaultyTransport`] sharing the plan's counters. Subsequent
    /// dials — including the reconnect redial after the injected drop —
    /// get clean transports unless re-armed.
    pub fn arm_chaos(&self, plan: FaultPlan) {
        *self.dialer.chaos.lock().unwrap() = Some(plan);
    }

    /// A worker client that survives transient link drops: see
    /// [`ReconnectingClient`].
    pub(crate) fn reconnecting_client(
        &self,
        worker: usize,
        rc: ReconnectConfig,
    ) -> Result<ReconnectingClient, NetError> {
        ReconnectingClient::new(self.dialer.clone(), worker, self.num_keys, rc)
    }
}

impl PsBackend for NetCluster {
    /// Fresh connections to every shard, routed behind one
    /// [`ShardedClient`]. Each worker gets its own connections (its own
    /// ordered push stream), mirroring a real deployment.
    fn client(&self) -> Result<Box<dyn ParamClient>, NetError> {
        let pool = BufferPool::new();
        let clients = self.dialer.dial(&pool)?;
        Ok(Box::new(ShardedClient::from_clients(clients, pool)))
    }

    fn set_lr(&self, lr: f32) -> Result<(), NetError> {
        for c in self.control()? {
            c.set_lr(lr)?;
        }
        Ok(())
    }

    fn snapshot(&self) -> Result<(Vec<Vec<f32>>, Vec<u64>), NetError> {
        let shards = self
            .control()?
            .iter()
            .map(|c| c.snapshot())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(reassemble_snapshots(shards, self.num_keys))
    }

    fn bytes_pushed(&self) -> u64 {
        self.dialer.stats.bytes_pushed()
    }

    fn bytes_pulled(&self) -> u64 {
        self.dialer.stats.bytes_pulled()
    }

    fn failure(&self) -> Option<NetError> {
        self.local.iter().find_map(|s| s.failure())
    }

    fn shutdown(self: Box<Self>) {
        if self.remote_shutdown {
            for c in self.control().unwrap_or_default() {
                let _ = c.shutdown_server();
            }
        }
        let Self { control, local, .. } = *self;
        // Control clients first (joins their reader threads), then the
        // locally-owned servers.
        drop(control);
        for server in local {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attach::Attach;
    use cdsgd_net::wire::{pull_reply_frame_bytes, push_frame_bytes};

    fn init(keys: usize) -> Vec<Vec<f32>> {
        (0..keys).map(|k| vec![k as f32; 3]).collect()
    }

    fn loopback_client(server: &Arc<PsNetServer>) -> RemoteClient {
        let (a, b) = loopback_pair();
        server.attach(Box::new(b)).unwrap();
        RemoteClient::new(
            Box::new(a),
            Arc::new(TrafficStats::new()),
            BufferPool::new(),
        )
        .unwrap()
    }

    #[test]
    fn remote_client_round_trips_over_loopback() {
        let server = PsNetServer::start(init(2), ServerConfig::new(1, 1.0));
        let c = loopback_client(&server);
        c.push(0, 1, Compressed::Raw(vec![1.0, 2.0, 3.0])).unwrap();
        assert_eq!(*c.pull(1, 1).unwrap(), [0.0, -1.0, -2.0]);
        assert_eq!(*c.pull(0, 0).unwrap(), [0.0; 3]);
        c.set_lr(0.5).unwrap();
        let (w, v) = c.snapshot().unwrap();
        assert_eq!(v, vec![0, 1]);
        assert_eq!(w[1], vec![0.0, -1.0, -2.0]);
        server.shutdown();
    }

    #[test]
    fn outstanding_pulls_resolve_as_versions_arrive() {
        let server = PsNetServer::start(init(1), ServerConfig::new(1, 1.0));
        let c = loopback_client(&server);
        // Two pulls outstanding at once; the second waits for a version
        // that only exists after a later push on the same connection —
        // the reader keeps processing while the writer blocks on it.
        let now = c.pull_async(0, 0).unwrap();
        let future = c.pull_async(0, 1).unwrap();
        assert_eq!(*now.wait().unwrap(), [0.0; 3]);
        c.push(0, 0, Compressed::Raw(vec![1.0; 3])).unwrap();
        assert_eq!(*future.wait().unwrap(), [-1.0; 3]);
        server.shutdown();
    }

    #[test]
    fn pull_all_puts_every_request_on_the_wire_before_taking_a_reply() {
        // The test is the server: it answers nothing until it has read
        // all three requests, which a request → wait → request chain
        // could never send (the second `recv_frame` would time out).
        let (client_end, mut server_end) = loopback_pair();
        server_end
            .set_recv_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let stats = Arc::new(TrafficStats::new());
        let c = RemoteClient::new(Box::new(client_end), stats, BufferPool::new()).unwrap();
        let pulled = std::thread::spawn(move || c.pull_all(3, 7));
        let mut frame = Vec::new();
        let requests: Vec<WireMsg> = (0..3)
            .map(|_| {
                server_end
                    .recv_frame(&mut frame)
                    .expect("the next pull was never requested");
                wire::decode_msg(&frame).unwrap()
            })
            .collect();
        let pull = |key| WireMsg::Pull {
            key,
            min_version: 7,
        };
        assert_eq!(requests, [pull(0), pull(1), pull(2)]);
        // Replies in any order resolve the right keys.
        let weights = init(3);
        for key in [2u32, 0, 1] {
            let reply = WireMsg::PullReply {
                key,
                min_version: 7,
                weights: Arc::from(weights[key as usize].clone()),
            };
            wire::encode_msg_into(&reply, &mut frame);
            server_end.send_frame(&frame).unwrap();
        }
        let got = pulled.join().unwrap().unwrap();
        assert_eq!(got.iter().map(|w| w.to_vec()).collect::<Vec<_>>(), weights);
    }

    #[test]
    fn client_side_stats_use_frame_formulas() {
        let server = PsNetServer::start(init(1), ServerConfig::new(1, 1.0));
        let stats = Arc::new(TrafficStats::new());
        let (a, b) = loopback_pair();
        server.attach(Box::new(b)).unwrap();
        let c = RemoteClient::new(Box::new(a), Arc::clone(&stats), BufferPool::new()).unwrap();
        let payload = Compressed::Raw(vec![1.0; 3]);
        let wire_bytes = payload.wire_bytes();
        c.push(0, 0, payload).unwrap();
        c.pull(0, 1).unwrap();
        assert_eq!(stats.bytes_pushed() as usize, push_frame_bytes(wire_bytes));
        assert_eq!(stats.bytes_pulled() as usize, pull_reply_frame_bytes(3));
        // Transport counters additionally cover the pull request frame:
        // 4 prefix + 1 opcode + 4 key + 8 version = 17 bytes.
        assert_eq!(
            stats.bytes_sent() as usize,
            push_frame_bytes(wire_bytes) + 17
        );
        assert_eq!(stats.bytes_received() as usize, pull_reply_frame_bytes(3));
        drop(c);
        server.shutdown();
    }

    #[test]
    fn server_and_client_agree_on_traffic() {
        let server = PsNetServer::start(init(1), ServerConfig::new(1, 1.0));
        let c = loopback_client(&server);
        c.push(0, 0, Compressed::Raw(vec![1.0; 3])).unwrap();
        c.pull(0, 1).unwrap();
        assert_eq!(server.stats().bytes_pushed(), push_frame_bytes(16) as u64);
        assert_eq!(
            server.stats().bytes_pulled(),
            pull_reply_frame_bytes(3) as u64
        );
        server.shutdown();
    }

    #[test]
    fn loopback_cluster_trains_and_snapshots() {
        let cluster: Box<dyn PsBackend> =
            Box::new(NetCluster::start_loopback(init(5), ServerConfig::new(2, 1.0), 2).unwrap());
        let workers: Vec<_> = (0..2).map(|_| cluster.client().unwrap()).collect();
        std::thread::scope(|s| {
            for (w, c) in workers.iter().enumerate() {
                s.spawn(move || {
                    for k in 0..5 {
                        c.push(w, k, Compressed::Raw(vec![1.0; 3])).unwrap();
                    }
                    c.pull_all(5, 1).unwrap()
                });
            }
        });
        let (w, v) = cluster.snapshot().unwrap();
        assert_eq!(v, vec![1; 5]);
        for (k, wk) in w.iter().enumerate() {
            assert_eq!(*wk, vec![k as f32 - 1.0; 3], "key {k}");
        }
        assert!(cluster.bytes_pushed() > 0);
        cluster.shutdown();
    }

    #[test]
    fn tcp_local_cluster_matches_loopback() {
        let run = |cluster: Box<dyn PsBackend>| {
            let c = cluster.client().unwrap();
            for k in 0..3 {
                c.push(0, k, Compressed::Raw(vec![0.5; 3])).unwrap();
            }
            let w = c.pull_all(3, 1).unwrap();
            drop(c);
            let snap = cluster.snapshot().unwrap();
            cluster.shutdown();
            (w.iter().map(|a| a.to_vec()).collect::<Vec<_>>(), snap)
        };
        let a = run(Box::new(
            NetCluster::start_loopback(init(3), ServerConfig::new(1, 1.0), 2).unwrap(),
        ));
        let b = run(Box::new(
            NetCluster::start_tcp_local(
                init(3),
                ServerConfig::new(1, 1.0),
                2,
                NetConfig::default(),
            )
            .unwrap(),
        ));
        assert_eq!(a, b);
    }

    #[test]
    fn shutdown_frame_wakes_wait_for_shutdown() {
        let server = PsNetServer::start(init(1), ServerConfig::new(1, 1.0));
        let c = loopback_client(&server);
        let s2 = Arc::clone(&server);
        let waiter = std::thread::spawn(move || s2.wait_for_shutdown());
        c.shutdown_server().unwrap();
        waiter.join().unwrap().unwrap();
        server.shutdown();
    }

    #[test]
    fn membership_round_trips_over_loopback() {
        use crate::ElasticConfig;
        let server = PsNetServer::start(
            init(1),
            ServerConfig::new(1, 1.0).with_elastic(ElasticConfig::new(1)),
        );
        let c = loopback_client(&server);
        c.push(0, 0, Compressed::Raw(vec![2.0; 3])).unwrap();
        assert_eq!(*c.pull(0, 1).unwrap(), [-2.0; 3]);
        // A second worker joins over its own connection; the ack carries
        // the per-key versions its first pulls must target.
        let c1 = loopback_client(&server);
        assert_eq!(c1.register(1).unwrap(), vec![1]);
        c.push(0, 0, Compressed::Raw(vec![2.0; 3])).unwrap();
        c1.push(1, 0, Compressed::Raw(vec![4.0; 3])).unwrap();
        assert_eq!(*c1.pull(0, 2).unwrap(), [-5.0; 3]);
        // Graceful leave travels the leaver's own push stream; the
        // remaining worker then completes rounds alone.
        c1.heartbeat(1).unwrap();
        c1.leave(1).unwrap();
        c.push(0, 0, Compressed::Raw(vec![2.0; 3])).unwrap();
        assert_eq!(*c.pull(0, 3).unwrap(), [-7.0; 3]);
        assert_eq!(server.rejected_connections(), 0);
        drop(c1);
        server.shutdown();
    }

    #[test]
    fn concurrent_register_is_rejected_not_silently_dropped() {
        // A peer that never answers keeps the first register parked in
        // the reply slot while the second one arrives.
        let (a, quiet_peer) = loopback_pair();
        let c = Arc::new(
            RemoteClient::new(
                Box::new(a),
                Arc::new(TrafficStats::new()),
                BufferPool::new(),
            )
            .unwrap(),
        );
        let c2 = Arc::clone(&c);
        let first = std::thread::spawn(move || c2.register(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while c.pending.lock().unwrap().register.is_none() {
            assert!(
                std::time::Instant::now() < deadline,
                "first register never claimed the reply slot"
            );
            std::thread::yield_now();
        }
        // The overlapping register is rejected with the typed error;
        // the first caller's slot is untouched.
        assert_eq!(c.register(2), Err(NetError::RegisterPending));
        assert!(c.pending.lock().unwrap().register.is_some());
        // Closing the peer wakes the reader, which clears the slot and
        // resolves the first caller with ServerGone instead of hanging.
        drop(quiet_peer);
        assert_eq!(first.join().unwrap(), Err(NetError::ServerGone));
    }

    #[test]
    fn traced_cluster_dials_one_control_link_per_shard() {
        let cluster = NetCluster::start_loopback(init(4), ServerConfig::new(1, 1.0), 2)
            .and_then(|c| c.traced(Telemetry::disabled()))
            .unwrap();
        cluster.set_lr(0.5).unwrap();
        cluster.snapshot().unwrap();
        // Every link a shard serves came through `attach`, which counts.
        for server in &cluster.local {
            assert_eq!(server.next_io.load(Ordering::Relaxed), 1);
        }
        Box::new(cluster).shutdown();
    }

    #[test]
    fn on_demand_checkpoint_round_trips_over_loopback() {
        use crate::recover::{self, CheckpointPolicy};
        let dir = std::env::temp_dir().join(format!("cdsgd-net-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = PsNetServer::start_with(
            init(2),
            ServerConfig::new(1, 1.0),
            Telemetry::disabled(),
            Durability {
                restore: None,
                checkpoint: Some(CheckpointPolicy::new(&dir, None, 0, 1)),
            },
        );
        let c = loopback_client(&server);
        for k in 0..2 {
            c.push(0, k, Compressed::Raw(vec![1.0; 3])).unwrap();
            c.pull(k, 1).unwrap();
        }
        assert_eq!(c.checkpoint_now().unwrap(), Some(1));
        let ckpt = recover::load_latest(&dir, 0, 1).unwrap().unwrap();
        assert_eq!(ckpt.round, 1);
        assert_eq!(ckpt.weights.len(), 2);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_without_a_directory_is_refused_over_the_wire() {
        let server = PsNetServer::start(init(1), ServerConfig::new(1, 1.0));
        let c = loopback_client(&server);
        assert_eq!(c.checkpoint_now().unwrap(), None);
        server.shutdown();
    }

    #[test]
    fn io_thread_pool_is_fixed_size() {
        let server = PsNetServer::start(init(1), ServerConfig::new(1, 1.0));
        let n = server.io_threads();
        // Many connections, still the same pool.
        let clients: Vec<_> = (0..8).map(|_| loopback_client(&server)).collect();
        for c in &clients {
            assert_eq!(*c.pull(0, 0).unwrap(), [0.0; 3]);
        }
        assert_eq!(server.io_threads(), n);
        drop(clients);
        server.shutdown();
    }

    /// A TCP client of `server`, through a listener of its own.
    fn tcp_client(server: &Arc<PsNetServer>) -> RemoteClient {
        let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", NetConfig::default()).unwrap();
        let t = TcpTransport::connect(addr.to_string(), &NetConfig::default()).unwrap();
        let accepted = acceptor.accept(Duration::from_secs(5)).unwrap();
        server.attach(Box::new(accepted)).unwrap();
        RemoteClient::new(
            Box::new(t),
            Arc::new(TrafficStats::new()),
            BufferPool::new(),
        )
        .unwrap()
    }

    /// Run `f` on its own thread and fail, instead of hanging the test
    /// binary, if it takes longer than `limit`.
    fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::sync_channel(1);
        let handle = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        let out = rx
            .recv_timeout(limit)
            .expect("event loop wedged: the operation never completed");
        handle.join().unwrap();
        out
    }

    #[test]
    fn idle_server_makes_no_passes() {
        let server = PsNetServer::start(init(1), ServerConfig::new(1, 1.0));
        let tcp = tcp_client(&server);
        let loopback = loopback_client(&server);
        // Both connections are adopted and have been served...
        assert_eq!(*tcp.pull(0, 0).unwrap(), [0.0; 3]);
        assert_eq!(*loopback.pull(0, 0).unwrap(), [0.0; 3]);
        // ...and with nothing to do the I/O threads stay parked: a whole
        // 100 ms window passes without a single pass (the sleep is the
        // observation window; trailing passes from the traffic above
        // just restart it). A sleep-polling loop never gets there.
        let passes = || server.passes.load(Ordering::Relaxed);
        let quiet = (0..50).any(|_| {
            let before = passes();
            std::thread::sleep(Duration::from_millis(100));
            passes() == before
        });
        assert!(quiet, "I/O threads kept making passes while idle");
        // Still responsive afterwards.
        assert_eq!(*tcp.pull(0, 0).unwrap(), [0.0; 3]);
        drop((tcp, loopback));
        server.shutdown();
    }

    #[test]
    fn parked_pull_is_answered_by_a_push_on_a_connection_of_the_same_thread() {
        let server = PsNetServer::start(init(1), ServerConfig::new(1, 1.0));
        assert_eq!(server.io_threads(), 2);
        // Round-robin: `a` and `b` share I/O thread 0, `other` is alone
        // on thread 1. A thread that blocked on `a`'s parked reply (or on
        // any one connection) would never read `b`'s push.
        let a = tcp_client(&server);
        let other = loopback_client(&server);
        let b = loopback_client(&server);
        let parked = a.pull_async(0, 1).unwrap();
        // Once thread 0 has taken the request off `a` it hands it to the
        // shard before it reads anything from `b`: the pull is parked.
        within(Duration::from_secs(20), {
            let server = Arc::clone(&server);
            move || {
                while server.stats().bytes_received() == 0 {
                    std::thread::yield_now();
                }
            }
        });
        b.push(0, 0, Compressed::Raw(vec![1.0; 3])).unwrap();
        let w = within(Duration::from_secs(20), move || parked.wait().unwrap());
        assert_eq!(*w, [-1.0; 3]);
        assert_eq!(*other.pull(0, 1).unwrap(), [-1.0; 3]);
        drop((a, b, other));
        server.shutdown();
    }

    #[test]
    fn a_reply_resolved_between_a_pass_and_the_wait_is_not_lost() {
        // Each round parks a pull and then completes it with a push, so
        // the shard thread resolves the reply at an arbitrary point of
        // the I/O thread's pass/wait cycle — including right after the
        // pass found nothing and before the wait began. The wake is
        // level-triggered, so that wait returns at once; an
        // edge-triggered or check-then-sleep loop would hang a round.
        for client in [tcp_client, loopback_client] {
            let server = PsNetServer::start(init(1), ServerConfig::new(1, 1.0));
            let c = client(&server);
            within(Duration::from_secs(60), move || {
                for round in 1..=1000u64 {
                    let parked = c.pull_async(0, round).unwrap();
                    c.push(0, 0, Compressed::Raw(vec![1.0; 3])).unwrap();
                    assert_eq!(*parked.wait().unwrap(), [-(round as f32); 3]);
                }
            });
            server.shutdown();
        }
    }

    /// An I/O loop serving the one-worker shard `ps`, driven by hand
    /// through `service`, and its waker.
    fn io_loop_of(ps: &ParamServer, key_len: usize) -> (IoLoop, Waker) {
        let (waker, wake) = wake_pair().unwrap();
        let (_conn_tx, conn_rx) = mpsc::channel();
        let io = IoLoop {
            conns: conn_rx,
            wake,
            client: ps.client().waking(waker.clone()),
            key_lens: Arc::new([key_len]),
            max_workers: 1,
            stats: ps.shared_stats(),
            stop: Arc::new(AtomicBool::new(false)),
            signal: Arc::new((Mutex::new(false), Condvar::new())),
            passes: Arc::new(AtomicU64::new(0)),
        };
        (io, waker)
    }

    /// The server end of a fresh TCP connection, non-blocking as `attach`
    /// makes it, and the peer's socket to write raw bytes into.
    fn tcp_conn(waker: &Waker) -> (Conn, std::net::TcpStream) {
        let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", NetConfig::default()).unwrap();
        let peer = std::net::TcpStream::connect(addr).unwrap();
        let mut t: Box<dyn Transport> = Box::new(acceptor.accept(Duration::from_secs(5)).unwrap());
        t.set_nonblocking(true).unwrap();
        (Conn::new(t, waker), peer)
    }

    /// `body` as a frame on the wire, written in pieces of 1–7 bytes with
    /// a pause every few pieces: no two reads see the same split.
    fn dribble(peer: &mut impl std::io::Write, body: &[u8]) {
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(body);
        let mut rest = &wire[..];
        for piece in 0usize.. {
            if rest.is_empty() {
                break;
            }
            let (now, later) = rest.split_at((1 + piece % 7).min(rest.len()));
            peer.write_all(now).unwrap();
            rest = later;
            if piece % 5 == 4 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Values whose every bit must survive the trip: signed zero,
    /// infinities, a NaN payload, subnormals, and ordinary numbers.
    fn awkward_f32s(n: usize, salt: u32) -> Vec<f32> {
        let specials = [-0.0, f32::INFINITY, f32::from_bits(0x7fc0_1234), 1.0e-40];
        (0..n as u32)
            .map(|i| match i % 8 {
                j @ 0..=3 => specials[j as usize],
                _ => (i * 31 + salt) as f32 * 0.125 - 17.0,
            })
            .collect()
    }

    fn bits(w: &[f32]) -> Vec<u32> {
        w.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_dribbled_raw_push_lands_in_the_pool_buffer_it_was_offered() {
        const N: usize = 300;
        let grad = awkward_f32s(N, 1);
        // The same push through the in-process client is the reference.
        let reference = ParamServer::start(vec![vec![0.5; N]], ServerConfig::new(1, 1.0));
        let c = reference.client();
        c.push(0, 0, Compressed::Raw(grad.clone())).unwrap();
        let want = bits(&c.pull(0, 1).unwrap());
        reference.shutdown();

        let ps = ParamServer::start(vec![vec![0.5; N]], ServerConfig::new(1, 1.0));
        let (io, waker) = io_loop_of(&ps, N);
        // The one buffer of the key's length in the shard's pool.
        let offered = vec![0.0f32; N];
        let at = offered.as_ptr();
        io.client.pool().put_f32(offered);
        let (mut conn, mut peer) = tcp_conn(&waker);
        let mut frame = Vec::new();
        wire::encode_push_into(0, 0, &Compressed::Raw(grad), &mut frame);
        // The writer hands its socket back instead of closing it: the loop
        // must not meet EOF before it has looked.
        let writer = std::thread::spawn(move || {
            dribble(&mut peer, &frame);
            peer
        });
        // The non-blocking loop, visit by visit: from the moment the head
        // is in, the bulk lands in the pool's buffer; once the frame is
        // complete, the push is handed to the shard.
        let mut landed_at = None;
        let mut head = Vec::new();
        let mut poller = Poller::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while landed_at.is_none() || !matches!(conn.bulk, Bulk::Bytes) {
            assert!(
                std::time::Instant::now() < deadline,
                "the push never landed"
            );
            poller.clear();
            poller.add(conn.fd.unwrap(), false);
            poller.wait(Some(Duration::from_millis(50))).unwrap();
            io.service(&mut conn, &mut head).unwrap();
            if let Bulk::Landed(msg) = &mut conn.bulk {
                landed_at = landing_storage(msg).map(|s| s.as_ptr());
            }
        }
        drop(writer.join().unwrap());
        assert_eq!(landed_at, Some(at));
        assert_eq!(bits(&io.client.pull(0, 1).unwrap()), want);
        ps.shutdown();
    }

    #[test]
    fn a_dribbled_pull_reply_lands_in_the_snapshot_handed_out_if_it_is_free() {
        use std::io::Read;
        const N: usize = 257;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let t = TcpTransport::connect(addr, &NetConfig::default()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let c = RemoteClient::new(
            Box::new(t),
            Arc::new(TrafficStats::new()),
            BufferPool::new(),
        )
        .unwrap();
        // Pull version `v` of key 0, answered by a reply dribbled into the
        // blocking reader.
        let mut pull = |v: u64| {
            let pending = c.pull_async(0, v).unwrap();
            let mut request = [0u8; 17];
            server.read_exact(&mut request).unwrap();
            let asked = wire::decode_msg(&request[4..]).unwrap();
            assert_eq!(
                asked,
                WireMsg::Pull {
                    key: 0,
                    min_version: v
                }
            );
            let mut frame = Vec::new();
            wire::encode_pull_reply_into(0, v, &awkward_f32s(N, v as u32), &mut frame);
            dribble(&mut server, &frame);
            pending.wait().unwrap()
        };
        // A key's first reply takes the byte path: the reader has handed
        // out no snapshot for it yet.
        let first = pull(1);
        assert_eq!(bits(&first), bits(&awkward_f32s(N, 1)));
        let at = first.as_ptr();
        drop(first);
        // Let go of, that snapshot is the storage the next reply lands in.
        let second = pull(2);
        assert_eq!(second.as_ptr(), at);
        assert_eq!(bits(&second), bits(&awkward_f32s(N, 2)));
        // Still held, it is left alone, bit for bit.
        let third = pull(3);
        assert_ne!(third.as_ptr(), at);
        assert_eq!(bits(&third), bits(&awkward_f32s(N, 3)));
        assert_eq!(bits(&second), bits(&awkward_f32s(N, 2)));
    }

    #[test]
    fn a_peer_closing_mid_bulk_retires_only_its_connection() {
        use std::io::{Read, Write};
        let server = PsNetServer::start(init(1), ServerConfig::new(1, 1.0));
        let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", NetConfig::default()).unwrap();
        server.listen(acceptor);
        // The head of a raw push to a real key, half its f32s, then EOF.
        let mut frame = Vec::new();
        wire::encode_push_into(0, 0, &Compressed::Raw(vec![9.0; 3]), &mut frame);
        let mut hostile = std::net::TcpStream::connect(addr).unwrap();
        hostile
            .write_all(&(frame.len() as u32).to_le_bytes())
            .unwrap();
        hostile.write_all(&frame[..frame.len() - 6]).unwrap();
        hostile.shutdown(std::net::Shutdown::Write).unwrap();
        // The server hangs up on it once it has seen the EOF mid-frame.
        hostile
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        assert_eq!(hostile.read(&mut [0u8; 1]).unwrap(), 0);
        // A good client of the same shard completes a round, and nothing
        // of the half push reached it.
        let t = TcpTransport::connect(addr.to_string(), &NetConfig::default()).unwrap();
        let good = RemoteClient::new(
            Box::new(t),
            Arc::new(TrafficStats::new()),
            BufferPool::new(),
        )
        .unwrap();
        good.push(0, 0, Compressed::Raw(vec![1.0; 3])).unwrap();
        assert_eq!(*good.pull(0, 1).unwrap(), [-1.0; 3]);
        assert_eq!(server.failure(), None);
        drop(good);
        server.shutdown();
    }

    #[test]
    fn backpressure_counts_a_queued_snapshot_by_its_bytes() {
        const KEY_LEN: usize = 1 << 20;
        const REPLIES: usize = 8;
        let ps = ParamServer::start(vec![vec![0.5; KEY_LEN]], ServerConfig::new(1, 1.0));
        let (io, waker) = io_loop_of(&ps, KEY_LEN);
        // A reader that is not draining: the peer never reads.
        let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", NetConfig::default()).unwrap();
        let mut peer = TcpTransport::connect(addr.to_string(), &NetConfig::default()).unwrap();
        let mut t: Box<dyn Transport> = Box::new(acceptor.accept(Duration::from_secs(5)).unwrap());
        t.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(t, &waker);
        for _ in 0..REPLIES {
            conn.replies.push_back(Reply::Pull {
                key: 0,
                min_version: 0,
                pending: io.client.pull_async(0, 0).unwrap(),
            });
        }
        // FIFO on the shard's queue: once this returns, all are resolved.
        io.client.snapshot().unwrap();

        let mut head = Vec::new();
        io.service(&mut conn, &mut head).unwrap();
        // 32 MiB of resolved replies, a socket that takes a fraction: a
        // refused reply is queued — as the snapshot, by reference — and
        // its bytes stop the popping: at most one reply is taken past
        // the bound. Were the remainder not counted, every reply would
        // have been popped onto the queue.
        let queued = conn.t.pending_out_bytes();
        assert!(queued >= MAX_CONN_WBUF, "only {queued} bytes queued");
        assert!(
            queued < MAX_CONN_WBUF + pull_reply_frame_bytes(KEY_LEN),
            "{queued} bytes queued"
        );
        assert!(conn.replies.len() >= REPLIES - 3, "{}", conn.replies.len());
        // A visit with the reader still stuck changes nothing...
        let left = conn.replies.len();
        io.service(&mut conn, &mut head).unwrap();
        assert_eq!(conn.replies.len(), left);
        // ...and once it drains, every reply arrives whole and in order.
        let reader = std::thread::spawn(move || {
            let mut buf = Vec::new();
            for _ in 0..REPLIES {
                peer.recv_frame(&mut buf).unwrap();
                match wire::decode_msg(&buf).unwrap() {
                    WireMsg::PullReply {
                        key: 0,
                        min_version: 0,
                        weights,
                    } => assert!(weights.len() == KEY_LEN && weights.iter().all(|w| *w == 0.5)),
                    other => panic!("unexpected frame {other:?}"),
                }
            }
        });
        let mut poller = Poller::new();
        while !conn.replies.is_empty() || conn.t.pending_out_bytes() > 0 {
            poller.clear();
            poller.add(conn.fd.unwrap(), true);
            assert_eq!(poller.wait(Some(Duration::from_secs(20))).unwrap(), 1);
            io.service(&mut conn, &mut head).unwrap();
        }
        reader.join().unwrap();
        ps.shutdown();
    }

    #[test]
    fn teardown_does_not_wait_out_timers() {
        let cluster: Box<dyn PsBackend> = Box::new(
            NetCluster::start_tcp_local(
                init(2),
                ServerConfig::new(2, 1.0),
                1,
                NetConfig::default(),
            )
            .unwrap(),
        );
        let workers: Vec<_> = (0..2).map(|_| cluster.client().unwrap()).collect();
        std::thread::scope(|s| {
            for (w, c) in workers.iter().enumerate() {
                s.spawn(move || {
                    for k in 0..2 {
                        c.push(w, k, Compressed::Raw(vec![1.0; 3])).unwrap();
                    }
                    c.pull_all(2, 1).unwrap()
                });
            }
        });
        // Left outstanding across the teardown: must fail, not hang.
        let orphan = workers[0].pull_async(0, 9).unwrap();
        let t0 = std::time::Instant::now();
        drop(workers);
        cluster.shutdown();
        let took = t0.elapsed();
        // Two worker clients, the control client and the acceptor used to
        // cost up to one 200 ms POLL each, serially.
        assert!(took < POLL / 2, "teardown took {took:?}");
        assert_eq!(orphan.wait().unwrap_err(), NetError::ServerGone);
    }

    #[test]
    fn hostile_length_prefix_retires_its_connection_not_the_shard() {
        use std::io::{Read, Write};
        let server = PsNetServer::start(init(1), ServerConfig::new(1, 1.0));
        assert_eq!(server.recv_limit, 13 + 8 * 3);
        let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", NetConfig::default()).unwrap();
        server.listen(acceptor);
        // TCP: four bytes announcing a 512 MiB body, and not one byte of
        // it. The server must hang up on the prefix alone.
        let mut hostile = std::net::TcpStream::connect(addr).unwrap();
        hostile.write_all(&(512u32 << 20).to_le_bytes()).unwrap();
        hostile
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let hung_up = match hostile.read(&mut [0u8; 1]) {
            Ok(n) => n == 0,
            Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
        };
        assert!(hung_up, "server kept a connection with a hostile prefix");
        // Loopback has no prefix to vet; the oversized frame itself is
        // refused when the server takes it off the queue.
        let (mut hostile, server_end) = loopback_pair();
        server.attach(Box::new(server_end)).unwrap();
        hostile.send_frame(&[0u8; 65]).unwrap();
        hostile
            .set_recv_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        assert_eq!(hostile.recv_frame(&mut Vec::new()), Err(NetError::Closed));
        // Every other connection of the shard is served as before.
        let t = TcpTransport::connect(addr.to_string(), &NetConfig::default()).unwrap();
        let good = RemoteClient::new(
            Box::new(t),
            Arc::new(TrafficStats::new()),
            BufferPool::new(),
        )
        .unwrap();
        good.push(0, 0, Compressed::Raw(vec![1.0; 3])).unwrap();
        assert_eq!(*good.pull(0, 1).unwrap(), [-1.0; 3]);
        assert_eq!(server.failure(), None);
        drop(good);
        server.shutdown();
    }

    #[test]
    fn malformed_frames_retire_their_connection_not_the_shard() {
        use crate::ElasticConfig;
        // One frame each on its own connection, over loopback and over
        // TCP; every one must be hung up on (a `NetError::Decode` inside
        // the loop), none may reach the shard thread's `assert`s, size a
        // table from the wire, or have payload storage reserved for it.
        let hang_up = |server: &Arc<PsNetServer>, what: &str, frame: &[u8]| {
            let (hostile, server_end) = loopback_pair();
            server.attach(Box::new(server_end)).unwrap();
            let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", NetConfig::default()).unwrap();
            let tcp = TcpTransport::connect(addr.to_string(), &NetConfig::default()).unwrap();
            server
                .attach(Box::new(acceptor.accept(Duration::from_secs(5)).unwrap()))
                .unwrap();
            let ends: [Box<dyn Transport>; 2] = [Box::new(hostile), Box::new(tcp)];
            for mut hostile in ends {
                hostile.send_frame(frame).unwrap();
                hostile
                    .set_recv_timeout(Some(Duration::from_secs(20)))
                    .unwrap();
                assert_eq!(
                    hostile.recv_frame(&mut Vec::new()),
                    Err(NetError::Closed),
                    "{what} over {}",
                    hostile.peer()
                );
            }
        };
        let encoded = |msg: WireMsg| {
            let mut frame = Vec::new();
            wire::encode_msg_into(&msg, &mut frame);
            frame
        };
        let push = |worker, key, payload| {
            encoded(WireMsg::Push {
                worker,
                key,
                payload,
            })
        };
        let raw = |n| Compressed::Raw(vec![1.0; n]);
        let fixed = PsNetServer::start(init(1), ServerConfig::new(1, 1.0));
        // Heads the landing declines: the frame is read whole and refused.
        hang_up(&fixed, "key out of range", &push(0, 7, raw(3)));
        hang_up(&fixed, "wrong payload length", &push(0, 0, raw(2)));
        hang_up(&fixed, "worker out of range", &push(1, 0, raw(3)));
        let two_bit = Compressed::TwoBit {
            threshold: 0.5,
            packed: vec![0; 2],
            len: 5,
        };
        hang_up(
            &fixed,
            "2-bit push of the wrong length",
            &push(0, 0, two_bit),
        );
        // QSGD with 0 levels declaring 2^29 - 1 codes: refused on its head
        // (and by the decoder), never sized.
        let mut qsgd = vec![0u8; 9];
        qsgd.extend_from_slice(&((4u32 << 29) | ((1 << 29) - 1)).to_le_bytes());
        qsgd.extend_from_slice(&1.0f32.to_le_bytes());
        qsgd.push(0);
        hang_up(&fixed, "QSGD with 0 levels", &qsgd);
        // A raw header declaring more f32s than follow: not landed, and
        // the byte path's decode refuses it.
        let mut short = push(0, 0, raw(2));
        short[9..13].copy_from_slice(&3u32.to_le_bytes());
        hang_up(&fixed, "raw push shorter than its header", &short);
        let elastic = PsNetServer::start(
            init(1),
            ServerConfig::new(1, 1.0).with_elastic(ElasticConfig::new(1)),
        );
        let worker = u32::MAX;
        hang_up(
            &elastic,
            "register past the cap",
            &encoded(WireMsg::Register { worker }),
        );
        // The last admissible id is still admitted.
        let edge = loopback_client(&elastic);
        assert_eq!(edge.register(MAX_ELASTIC_WORKERS - 1).unwrap(), vec![0]);
        edge.leave(MAX_ELASTIC_WORKERS - 1).unwrap();
        // A well-formed client of either shard completes a round.
        for server in [&fixed, &elastic] {
            let good = loopback_client(server);
            good.push(0, 0, Compressed::Raw(vec![1.0; 3])).unwrap();
            assert_eq!(*good.pull(0, 1).unwrap(), [-1.0; 3]);
            assert_eq!(server.failure(), None);
            drop(good);
            server.shutdown();
        }
    }

    /// `rounds` synchronous rounds as `worker` over two shards; asserts
    /// the pulled weights match the closed form `init(k) - round` so any
    /// double-applied (or lost) replay shows up immediately. The form
    /// holds for any worker count as long as every worker pushes 1.0:
    /// the divisor-N aggregate of N unit gradients steps exactly 1.0.
    fn run_rounds_as(c: &dyn ParamClient, worker: usize, rounds: u64) {
        c.register(worker).unwrap();
        rounds_as(c, worker, rounds);
    }

    /// [`run_rounds_as`] for a worker that is already registered.
    fn rounds_as(c: &dyn ParamClient, worker: usize, rounds: u64) {
        rounds_from(c, worker, 1..=rounds, 0)
    }

    /// One round per pulled version `r` in `pulls`, where `r` is global
    /// round `base + r` (`base` is a rebased joiner's ack, else 0). A
    /// round that never completes (a lost push) fails within seconds.
    fn rounds_from(
        c: &dyn ParamClient,
        worker: usize,
        pulls: std::ops::RangeInclusive<u64>,
        base: u64,
    ) {
        for r in pulls {
            for k in 0..2 {
                c.push(worker, k, Compressed::Raw(vec![1.0; 3])).unwrap();
            }
            for k in 0..2 {
                let pending = c.pull_async(k, r).unwrap();
                let Ok(w) = pending.0.recv_timeout(Duration::from_secs(10)) else {
                    panic!("worker {worker} key {k} round {r} never completed");
                };
                let w = w.unwrap();
                assert_eq!(
                    *w,
                    [k as f32 - (base + r) as f32; 3],
                    "worker {worker} key {k} round {r}"
                );
            }
        }
    }

    fn run_rounds(c: &dyn ParamClient, rounds: u64) {
        run_rounds_as(c, 0, rounds)
    }

    fn elastic_cluster() -> NetCluster {
        use crate::ElasticConfig;
        NetCluster::start_loopback(
            init(2),
            ServerConfig::new(1, 1.0).with_elastic(ElasticConfig::new(1)),
            2,
        )
        .unwrap()
    }

    fn fast_rc() -> cdsgd_net::ReconnectConfig {
        cdsgd_net::ReconnectConfig {
            retries: 5,
            backoff: Duration::from_millis(1),
        }
    }

    #[test]
    fn reconnecting_client_is_transparent_without_faults() {
        let reference = {
            let cluster = elastic_cluster();
            let c = cluster.client().unwrap();
            run_rounds(c.as_ref(), 3);
            drop(c);
            let snap = PsBackend::snapshot(&cluster).unwrap();
            Box::new(cluster).shutdown();
            snap
        };
        let cluster = elastic_cluster();
        let c = cluster.reconnecting_client(0, fast_rc()).unwrap();
        run_rounds(&c, 3);
        assert_eq!(c.reconnects(), 0);
        drop(c);
        assert_eq!(PsBackend::snapshot(&cluster).unwrap(), reference);
        Box::new(cluster).shutdown();
    }

    /// An injected link drop mid-run (every shard's transport dies after
    /// a send budget) reconnects, replays, and finishes with the exact
    /// weights of a fault-free run — the tentpole's exactly-once claim.
    fn drop_and_reconnect_is_bit_exact(kill_after_sends: u64) {
        let reference = {
            let cluster = elastic_cluster();
            let c = cluster.client().unwrap();
            run_rounds(c.as_ref(), 4);
            drop(c);
            let snap = PsBackend::snapshot(&cluster).unwrap();
            Box::new(cluster).shutdown();
            snap
        };
        let cluster = elastic_cluster();
        cluster.arm_chaos(cdsgd_net::FaultPlan::new().kill_after_sends(kill_after_sends));
        let attached = cluster
            .attach(
                0,
                Attach {
                    register: true,
                    reconnect: Some(fast_rc()),
                    ..Attach::default()
                },
            )
            .unwrap();
        rounds_as(attached.client().as_ref(), 0, 4);
        assert_eq!(
            attached.reconnects(),
            1,
            "the armed drop fires exactly once"
        );
        drop(attached);
        assert_eq!(PsBackend::snapshot(&cluster).unwrap(), reference);
        Box::new(cluster).shutdown();
    }

    #[test]
    fn link_drop_on_push_reconnects_bit_exact() {
        // Per shard: register(1), then push+pull per round — the 5th
        // send is round 3's push, which fails and replays.
        drop_and_reconnect_is_bit_exact(5);
    }

    #[test]
    fn link_drop_on_pull_reconnects_bit_exact() {
        // The 4th send is round 2's pull: the supervisor thread hits the
        // failure, reconnects, and re-issues the pull itself.
        drop_and_reconnect_is_bit_exact(4);
    }

    #[test]
    fn push_from_superseded_connection_is_fenced() {
        use crate::ElasticConfig;
        let server = PsNetServer::start(
            init(1),
            ServerConfig::new(1, 1.0).with_elastic(ElasticConfig::new(1)),
        );
        let c_old = loopback_client(&server);
        assert_eq!(c_old.register(0).unwrap(), vec![0]);
        c_old.push(0, 0, Compressed::Raw(vec![1.0; 3])).unwrap();
        assert_eq!(*c_old.pull(0, 1).unwrap(), [-1.0; 3]);
        // A re-registration over a fresh connection supersedes the old
        // one; the straggler push it then emits must not aggregate.
        let c_new = loopback_client(&server);
        assert_eq!(c_new.register(0).unwrap(), vec![1]);
        c_old.push(0, 0, Compressed::Raw(vec![100.0; 3])).unwrap();
        c_new.push(0, 0, Compressed::Raw(vec![1.0; 3])).unwrap();
        // Same-connection FIFO: this pull reaches the server after the
        // straggler, so its resolution proves the straggler was seen
        // (and dropped) before the snapshot below.
        assert_eq!(*c_old.pull(0, 2).unwrap(), [-2.0; 3]);
        let (w, v) = c_new.snapshot().unwrap();
        assert_eq!(v, vec![2]);
        assert_eq!(w[0], vec![-2.0; 3]);
        server.shutdown();
    }

    #[test]
    fn rollback_after_reregistration_does_not_demote_the_member() {
        use crate::ElasticConfig;
        let server = PsNetServer::start(
            init(1),
            ServerConfig::new(2, 1.0).with_elastic(ElasticConfig::new(2)),
        );
        let c0 = loopback_client(&server);
        assert_eq!(c0.register(0).unwrap(), vec![0]);
        let c1 = loopback_client(&server);
        assert_eq!(c1.register(1).unwrap(), vec![0]);
        // Worker 0 reconnects: a fresh connection re-registers it, then
        // the two-phase join rolls back (as if a later shard failed).
        // The cancel must be a no-op — with a `leave`-based rollback
        // this demoted the still-active member and tripped the
        // min_quorum=2 terminal failure.
        let c0b = loopback_client(&server);
        assert_eq!(c0b.register(0).unwrap(), vec![0]);
        c0b.cancel_join(0).unwrap();
        // Both members still gate and feed rounds; the shard is healthy.
        c0b.push(0, 0, Compressed::Raw(vec![2.0; 3])).unwrap();
        c1.push(1, 0, Compressed::Raw(vec![4.0; 3])).unwrap();
        assert_eq!(*c1.pull(0, 1).unwrap(), [-3.0; 3]);
        assert_eq!(server.failure(), None);
        server.shutdown();
    }

    #[test]
    fn canceled_tentative_join_stops_gating_rounds() {
        use crate::ElasticConfig;
        let server = PsNetServer::start(
            init(1),
            ServerConfig::new(1, 1.0).with_elastic(ElasticConfig::new(1)),
        );
        let c = loopback_client(&server);
        assert_eq!(c.register(0).unwrap(), vec![0]);
        // Worker 5 joins tentatively, then its two-phase register rolls
        // back (a later shard refused). The cancel lands even though the
        // register's ack made it through — without it, the phantom
        // member would gate every round until heartbeat eviction.
        let joiner = loopback_client(&server);
        assert_eq!(joiner.register(5).unwrap(), vec![0]);
        joiner.cancel_join(5).unwrap();
        // Worker 0 alone completes the round (the pull blocks until the
        // server has processed the cancel, then the key pumps).
        c.push(0, 0, Compressed::Raw(vec![2.0; 3])).unwrap();
        assert_eq!(*c.pull(0, 1).unwrap(), [-2.0; 3]);
        assert_eq!(server.failure(), None);
        server.shutdown();
    }

    #[test]
    fn reconnect_backoff_does_not_block_heartbeats() {
        let cluster = elastic_cluster();
        cluster.arm_chaos(cdsgd_net::FaultPlan::new().kill_after_sends(1));
        let rc = cdsgd_net::ReconnectConfig {
            retries: 3,
            backoff: Duration::from_millis(400),
        };
        let c = Arc::new(cluster.reconnecting_client(0, rc).unwrap());
        // The register is each shard's one allowed send; the first push
        // trips the kill and starts a redial whose first backoff sleeps
        // 400 ms.
        ParamClient::register(c.as_ref(), 0).unwrap();
        let c2 = Arc::clone(&c);
        let pusher = std::thread::spawn(move || c2.push(0, 0, Compressed::Raw(vec![1.0; 3])));
        // While the redial sleeps, heartbeats must keep returning
        // promptly: the session lock is not held across the backoff.
        let t0 = std::time::Instant::now();
        let mut worst = Duration::ZERO;
        while c.reconnects() == 0 && t0.elapsed() < Duration::from_secs(10) {
            let t = std::time::Instant::now();
            c.heartbeat(0).unwrap();
            worst = worst.max(t.elapsed());
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(c.reconnects() >= 1, "the armed drop never fired");
        pusher.join().unwrap().unwrap();
        assert!(
            worst < Duration::from_millis(200),
            "heartbeat stalled {worst:?} behind the redial backoff"
        );
        // The push was replayed on the fresh session: the round
        // completes with the exact fault-free weights.
        assert_eq!(*c.pull_async(0, 1).unwrap().wait().unwrap(), [-1.0; 3]);
        drop(c);
        Box::new(cluster).shutdown();
    }

    /// Worker 0's link drops mid-run while worker 1 stays up, under
    /// min_quorum = 2: the reconnect's re-register must not demote
    /// either member (a terminal below-quorum failure), and the replay
    /// must keep the weights bit-exact with a fault-free run. The
    /// review's quorum-≥2 gap: the other chaos tests are all 1-worker.
    #[test]
    fn link_drop_with_two_workers_and_quorum_two_is_bit_exact() {
        use crate::ElasticConfig;
        let two_worker_cluster = || {
            NetCluster::start_loopback(
                init(2),
                ServerConfig::new(2, 1.0).with_elastic(ElasticConfig::new(2)),
                2,
            )
            .unwrap()
        };
        let reference = {
            let cluster = two_worker_cluster();
            let c0 = cluster.client().unwrap();
            let c1 = cluster.client().unwrap();
            std::thread::scope(|s| {
                s.spawn(|| run_rounds_as(c0.as_ref(), 0, 4));
                s.spawn(|| run_rounds_as(c1.as_ref(), 1, 4));
            });
            drop((c0, c1));
            let snap = PsBackend::snapshot(&cluster).unwrap();
            Box::new(cluster).shutdown();
            snap
        };
        let cluster = two_worker_cluster();
        // Worker 1 dials first so the armed one-shot drop is consumed
        // by worker 0's reconnecting client.
        let c1 = cluster.client().unwrap();
        cluster.arm_chaos(cdsgd_net::FaultPlan::new().kill_after_sends(5));
        let c0 = cluster.reconnecting_client(0, fast_rc()).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| run_rounds_as(&c0, 0, 4));
            s.spawn(|| run_rounds_as(c1.as_ref(), 1, 4));
        });
        assert!(c0.reconnects() >= 1, "the armed drop never fired");
        drop((c0, c1));
        assert_eq!(PsBackend::snapshot(&cluster).unwrap(), reference);
        Box::new(cluster).shutdown();
    }

    #[test]
    fn unservable_pull_retires_its_connection_not_the_shard() {
        let server = PsNetServer::start(init(1), ServerConfig::new(1, 1.0));
        let good = loopback_client(&server);
        for v in 1..=2u64 {
            good.push(0, 0, Compressed::Raw(vec![1.0; 3])).unwrap();
            good.pull(0, v).unwrap();
        }
        // Version 0 is two aggregates behind; key 7 is out of range. Each
        // fails its own caller (the shard drops that connection)...
        let stale = loopback_client(&server);
        assert_eq!(stale.pull(0, 0).unwrap_err(), NetError::ServerGone);
        let wild = loopback_client(&server);
        assert_eq!(wild.pull(7, 0).unwrap_err(), NetError::ServerGone);
        // ...while the shard keeps serving everyone else.
        good.push(0, 0, Compressed::Raw(vec![1.0; 3])).unwrap();
        assert_eq!(*good.pull(0, 3).unwrap(), [-3.0; 3]);
        assert_eq!(server.failure(), None);
        drop((good, stale, wild));
        server.shutdown();
    }

    #[test]
    fn attached_joiner_is_rebased_onto_the_acked_versions() {
        let cluster = elastic_cluster();
        // Worker 0 (in the initial set) trains solo for three rounds.
        let attached0 = cluster.attach(0, Attach::default()).unwrap();
        assert_eq!(attached0.acked(), None);
        let c0 = attached0.client();
        rounds_as(c0.as_ref(), 0, 3);
        // Worker 1 joins at global version 3 on both shards; its local
        // round counter starts at zero, so attach rebases its pulls.
        let attached1 = cluster
            .attach(
                1,
                Attach {
                    register: true,
                    ..Attach::default()
                },
            )
            .unwrap();
        assert_eq!(attached1.acked(), Some(&[3, 3][..]));
        let c1 = attached1.client();
        for k in 0..2 {
            c1.push(1, k, Compressed::Raw(vec![1.0; 3])).unwrap();
            c0.push(0, k, Compressed::Raw(vec![1.0; 3])).unwrap();
        }
        // Local round 1 for the joiner is global round 4 for worker 0:
        // both see the same aggregate (divisor 2 now) on every shard.
        for k in 0..2 {
            let joined = c1.pull(k, 1).unwrap();
            assert_eq!(*joined, [k as f32 - 4.0; 3], "key {k}");
            assert_eq!(joined, c0.pull(k, 4).unwrap(), "key {k}");
        }
        drop((c0, c1, attached0, attached1));
        Box::new(cluster).shutdown();
    }

    /// A joiner rebased onto acked version 3 whose link drops mid-run:
    /// its reconnecting stream counts pushes in global versions from the
    /// ack, so the prune after the re-register and the confirm on each
    /// (rebased) pull line up with the server's rounds, and both workers
    /// end on the fault-free weights.
    #[test]
    fn rebased_joiner_survives_a_link_drop_bit_exact() {
        let run = |kill_after_sends: Option<u64>| {
            let cluster = elastic_cluster();
            let c0 = cluster.client().unwrap();
            rounds_as(c0.as_ref(), 0, 3);
            if let Some(n) = kill_after_sends {
                cluster.arm_chaos(cdsgd_net::FaultPlan::new().kill_after_sends(n));
            }
            let joiner = cluster
                .attach(
                    1,
                    Attach {
                        register: true,
                        reconnect: Some(fast_rc()),
                        ..Attach::default()
                    },
                )
                .unwrap();
            assert_eq!(joiner.acked(), Some(&[3, 3][..]));
            let c1 = joiner.client();
            std::thread::scope(|s| {
                s.spawn(|| rounds_from(c0.as_ref(), 0, 4..=7, 0));
                s.spawn(|| rounds_from(c1.as_ref(), 1, 1..=4, 3));
            });
            let reconnects = joiner.reconnects();
            drop((c0, c1, joiner));
            let snap = PsBackend::snapshot(&cluster).unwrap();
            Box::new(cluster).shutdown();
            (snap, reconnects)
        };
        let (reference, _) = run(None);
        // Per shard: register, then push + pull per round; the drop
        // lands on the joiner's third push.
        let (faulty, reconnects) = run(Some(5));
        assert_eq!(reconnects, 1, "the armed drop fires exactly once");
        assert_eq!(faulty, reference);
    }

    #[test]
    fn finish_leaves_after_the_final_push() {
        use crate::ElasticConfig;
        let cluster = NetCluster::start_loopback(
            init(2),
            ServerConfig::new(2, 1.0).with_elastic(ElasticConfig::new(1)),
            2,
        )
        .unwrap();
        let c0 = cluster.attach(0, Attach::default()).unwrap().client();
        let attached1 = cluster
            .attach(
                1,
                Attach {
                    register: true,
                    heartbeat: Some(Duration::from_millis(5)),
                    ..Attach::default()
                },
            )
            .unwrap();
        // An initial member registering afresh needs no rebase.
        assert_eq!(attached1.acked(), Some(&[0, 0][..]));
        let c1 = attached1.client();
        for k in 0..2 {
            c1.push(1, k, Compressed::Raw(vec![4.0; 3])).unwrap();
        }
        drop(c1);
        // The goodbye rides the stream of worker 1's last pushes, so
        // each shard aggregates that round with both contributions
        // (divisor 2) before its quorum shrinks...
        attached1.finish().unwrap();
        for k in 0..2 {
            c0.push(0, k, Compressed::Raw(vec![2.0; 3])).unwrap();
            assert_eq!(*c0.pull(k, 1).unwrap(), [k as f32 - 3.0; 3], "key {k}");
        }
        // ...and from then on worker 0 alone completes rounds.
        for k in 0..2 {
            c0.push(0, k, Compressed::Raw(vec![2.0; 3])).unwrap();
            assert_eq!(*c0.pull(k, 2).unwrap(), [k as f32 - 5.0; 3], "key {k}");
        }
        assert_eq!(PsBackend::failure(&cluster), None);
        drop(c0);
        Box::new(cluster).shutdown();
    }

    #[test]
    fn round_deadline_failure_wakes_wait_for_shutdown() {
        // Two workers expected; only worker 0 ever pushes. The inner
        // server's round deadline fires and the hosting process's park
        // point returns the typed verdict instead of blocking forever.
        let server = PsNetServer::start(
            init(1),
            ServerConfig::new(2, 1.0).with_round_deadline(Duration::from_millis(50)),
        );
        let c = loopback_client(&server);
        c.push(0, 0, Compressed::Raw(vec![1.0; 3])).unwrap();
        let err = server.wait_for_shutdown().unwrap_err();
        assert_eq!(err, NetError::WorkerLost { id: 1, round: 0 });
        assert_eq!(server.failure(), Some(err));
        drop(c);
        server.shutdown();
    }
}
