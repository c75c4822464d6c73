//! Networked front-end: serve a [`ParamServer`] over any
//! [`Transport`], talk to one through [`RemoteClient`], and deploy whole
//! sharded groups with [`NetCluster`]. This file holds the `psd` event
//! loop and the deployments; the client half ([`RemoteClient`]) has a
//! module of its own, re-exported here, and runs no thread: the thread
//! that waits on a reply reads it.
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
//! no latency floor of its own. The I/O thread that lands a frame runs
//! the shard on it, under the shard's one lock (`crate::server`), and
//! its wait is bounded by the shard's next due instant too — the next
//! push the emulated link delivers, or the next tick of its round
//! deadline and liveness timers. Whatever can create work without
//! touching one of those sockets writes the wake pipe: the thread that
//! runs the shard resolving a parked pull/snapshot/register/checkpoint
//! reply (the reply sender carries the waker — see `ReplyTx`),
//! [`PsNetServer::attach`] and [`PsNetServer::shutdown`]. Every
//! connection, loopback or TCP, is a descriptor in that set. The wait is
//! level-triggered, so work that appears between a pass and the wait
//! that follows it ends that wait at once.
//!
//! Each connection keeps a per-connection read buffer and a FIFO of
//! pending replies with a bounded outbound queue: replies go out in
//! request order — the order a [`RemoteClient`] matches them in — and a pull for a not-yet-reached version delays later
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
use crate::client::Delivery;
use crate::recover::Durability;
use crate::server::{ParamServer, ServerConfig, ShardHost};
use crate::sharded::{partition_keys, ShardedClient};
use crate::stats::TrafficStats;
use cdsgd_compress::{BufferPool, Compressed};
use cdsgd_net::wire::{self, FrameHead, WireMsg, FRAME_PREFIX_BYTES};
use cdsgd_net::{
    loopback_pair, wake_pair, FaultPlan, FaultyTransport, Landing, NetConfig, NetError, Poller,
    Tail, TcpAcceptor, TcpTransport, Transport, WakeRx, Waker,
};
use cdsgd_telemetry::{Event, Telemetry};
use std::collections::VecDeque;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::remote::RemoteClient;

/// The accept loop's deadline, the one wait that still runs on a timer.
/// Shutdown also wakes it explicitly, so this bounds nothing a user
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

// ---------------------------------------------------------------------------
// server side
// ---------------------------------------------------------------------------

/// Per-connection state owned by one I/O thread: the non-blocking
/// transport, a reusable read buffer, what the head of the frame in
/// progress decided, and the FIFO of answers owed.
struct Conn {
    t: Box<dyn Transport>,
    /// The descriptor the I/O thread polls for this connection.
    fd: RawFd,
    rbuf: Vec<u8>,
    bulk: Bulk,
    /// Answers owed, in request order. Only the front is ever polled, so
    /// replies can never reorder.
    replies: VecDeque<Receiver<Delivery>>,
    /// The front answer, resolved but held until the emulated link has
    /// carried it; every answer behind it waits too.
    held: Option<Delivery>,
    /// Transport connection id, tagged onto frame events.
    id: u64,
}

impl Conn {
    fn new(t: Box<dyn Transport>) -> Self {
        Self {
            id: t.conn_id(),
            fd: t.fd(),
            t,
            rbuf: Vec::new(),
            bulk: Bulk::Bytes,
            replies: VecDeque::new(),
            held: None,
        }
    }
}

/// What a frame's head decided about the rest of it, before any of it is
/// read ([`HeadFirst`]).
#[derive(Default)]
pub(crate) enum Bulk {
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
    pub(crate) fn finish(
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
pub(crate) struct HeadFirst<'a, F> {
    pub(crate) rbuf: &'a mut Vec<u8>,
    pub(crate) bulk: &'a mut Bulk,
    pub(crate) decide: F,
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
    ps: ParamServer,
    stop: Arc<AtomicBool>,
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
    /// Start a server owning `init` and ready to accept connections.
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
        let ps = ParamServer::start_with(init, cfg, telemetry, durability);
        let stop = Arc::new(AtomicBool::new(false));
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
                waker: waker.clone(),
                shard: ps.shard.clone(),
                stop: Arc::clone(&stop),
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
            recv_limit: wire::max_inbound_body_bytes(ps.shard.admission.longest_key()),
            ps,
            stop,
            threads: Mutex::new(threads),
            io,
            next_io: AtomicUsize::new(0),
            listeners: Mutex::new(Vec::new()),
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
        io.conns
            .send(Conn::new(t))
            .map_err(|_| NetError::ServerGone)?;
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
        self.ps.stats().telemetry().emit(|| Event::ConnRejected {
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
        self.ps.failure()
    }

    /// Block until some client sends a [`WireMsg::Shutdown`] frame (the
    /// `psd` binary parks its main thread here) — `Ok(())` — or the inner
    /// server's round deadline declares a worker lost — `Err(WorkerLost)`,
    /// so the hosting process can exit nonzero instead of serving a dead
    /// round forever. Whichever thread runs the shard wakes it either
    /// way.
    pub fn wait_for_shutdown(&self) -> Result<(), NetError> {
        self.ps.shard.wait_for_shutdown()
    }

    /// Traffic counters (shared with the inner server: protocol-level
    /// push/pull plus transport-level sent/received).
    pub fn stats(&self) -> &TrafficStats {
        self.ps.stats()
    }

    /// Stop serving: wake the accept and I/O threads out of their waits
    /// (they drop all connections), stop the shard, join the threads.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for listener in self.listeners.lock().unwrap().drain(..) {
            listener.wake();
        }
        for io in &self.io {
            io.waker.wake();
        }
        self.ps.shard.shutdown();
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
/// connections, then visit every connection — read ready frames and
/// run the shard on each, pop resolved replies (FIFO, bounded outbound
/// queue), flush — and last run the shard on what its link has carried
/// and on its timers.
struct IoLoop {
    conns: Receiver<Conn>,
    wake: WakeRx,
    /// This thread's own waker: every answer it is owed ends its wait.
    waker: Waker,
    shard: Arc<ShardHost>,
    stop: Arc<AtomicBool>,
    #[cfg(test)]
    passes: Arc<AtomicU64>,
}

impl IoLoop {
    /// What a push's head decides ([`Bulk`]): refused unless the shard
    /// admits it; a raw one lands in a pooled buffer of the key's length
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
        match self.shard.admission.push(worker, key, len) {
            Err(e) => Bulk::Refused(e),
            Ok(_) if raw => Bulk::Landed(WireMsg::Push {
                worker,
                key,
                payload: Compressed::Raw(self.shard.pool.take_f32_len(len)),
            }),
            Ok(_) => Bulk::Bytes,
        }
    }

    fn run(self) {
        let mut conns: Vec<Conn> = Vec::new();
        let mut head = Vec::new();
        let mut poller = Poller::new();
        // When the shard must run again: the next push the link delivers,
        // or its next tick.
        let mut shard_due = None;
        loop {
            poller.clear();
            poller.add(self.wake.fd(), false);
            for c in &conns {
                // Writability only matters while output is queued. A
                // socket left with frames past its read burst is still
                // readable, so it ends this wait at once.
                poller.add(c.fd, c.t.pending_out_bytes() > 0);
            }
            // A held answer ends the wait when the link delivers it.
            let held = conns.iter().filter_map(|c| c.held.as_ref()?.1);
            let due = held.chain(shard_due).min();
            // Only a broken descriptor set can fail here, and the pass
            // below retires whichever connection broke it.
            let _ = poller.wait(due.map(|at| at.saturating_duration_since(Instant::now())));
            // Drain before looking for work: a wake that races the pass
            // is then kept for the next wait instead of lost.
            if poller.is_ready(0) {
                self.wake.drain();
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            while let Ok(c) = self.conns.try_recv() {
                conns.push(c);
            }
            #[cfg(test)]
            self.passes.fetch_add(1, Ordering::Relaxed);
            let mut i = 0;
            while i < conns.len() {
                match self.service(&mut conns[i], &mut head) {
                    Ok(()) => i += 1,
                    // Dead connection (peer hung up, a frame naming a key,
                    // length or worker this shard does not have, or
                    // server gone): drop it; its transport closes on
                    // drop.
                    Err(_) => {
                        conns.swap_remove(i);
                    }
                }
            }
            shard_due = self.shard.tick();
        }
    }

    /// One visit to one connection; `Err` retires it.
    fn service(&self, c: &mut Conn, head: &mut Vec<u8>) -> Result<(), NetError> {
        let stats = &*self.shard.stats;
        // Inbound: drain up to READ_BURST ready frames.
        for _ in 0..READ_BURST {
            let mut landing = HeadFirst {
                rbuf: &mut c.rbuf,
                bulk: &mut c.bulk,
                decide: |head| self.land_push(head),
            };
            if !c.t.poll_recv_frame(&mut landing)? {
                break;
            }
            // A raw push's payload is already in the storage the shard
            // recycles aggregated payloads into; any other push is
            // decoded into it.
            let (frame, msg) = std::mem::take(&mut c.bulk).finish(&c.rbuf, |bytes| {
                wire::decode_msg_pooled(bytes, &self.shard.pool)
            });
            stats.record_received(c.id, frame);
            let msg = msg?;
            if let WireMsg::Push {
                worker,
                key,
                payload,
            } = &msg
            {
                self.shard.admission.push_payload(*worker, *key, payload)?;
            }
            // Every frame goes to the shard as it is; the answer to one
            // it answers is owed in arrival order.
            if let Some(answer) = self.shard.send(c.id, msg, Some(&self.waker))? {
                c.replies.push_back(answer);
            }
        }
        // Move queued output toward the socket without blocking.
        if c.t.pending_out_bytes() > 0 {
            c.t.poll_flush()?;
        }
        // Outbound: pop resolved answers in request order, each once the
        // emulated link has carried it, while the transport's queued
        // output stays under the per-connection bound.
        while c.t.pending_out_bytes() < MAX_CONN_WBUF {
            let (answer, at) = match c.held.take() {
                Some(held) => held,
                None => {
                    let Some(front) = c.replies.front() else {
                        break;
                    };
                    match front.try_recv() {
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => return Err(NetError::ServerGone),
                        Ok(delivery) => {
                            c.replies.pop_front();
                            delivery
                        }
                    }
                }
            };
            if at.is_some_and(|at| at > Instant::now()) {
                c.held = Some((answer, at));
                break;
            }
            // A typed failure (round deadline, stale pull, a frame the
            // shard refused) kills the connection; the remote client
            // surfaces ServerGone.
            let reply = answer?;
            // A pull reply's bulk is the shard's snapshot itself, sent
            // (and if need be queued) by reference; every other reply is
            // encoded whole.
            let snapshot = match reply {
                WireMsg::PullReply {
                    key,
                    min_version,
                    weights,
                } => {
                    wire::encode_pull_reply_head_into(key, min_version, head);
                    Some(weights)
                }
                other => {
                    wire::encode_msg_into(&other, head);
                    None
                }
            };
            let tail_bytes = snapshot.as_ref().map_or(0, |w| 4 * w.len());
            c.t.send_parts(head, snapshot.as_ref().map_or(Tail::NONE, Tail::F32s))?;
            stats.record_sent(c.id, FRAME_PREFIX_BYTES + head.len() + tail_bytes);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// deployment
// ---------------------------------------------------------------------------

/// How [`NetCluster`] reaches one shard.
#[derive(Clone)]
enum ShardConn {
    /// A loopback socket pair to a server in this process.
    Loopback(Arc<PsNetServer>),
    /// TCP to `addr` (same process, another process, another host).
    Tcp(String),
}

/// Everything needed to (re)dial every shard of a cluster — the piece
/// of [`NetCluster`] a [`crate::WorkerSession`] carries so it can
/// rebuild its connections after a link drop without holding the
/// cluster.
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
    pub(crate) fn dial(&self, pool: &BufferPool) -> Result<Vec<RemoteClient>, NetError> {
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
    pub(crate) dialer: ShardDialer,
    /// Locally-owned shard servers (empty when connecting to external
    /// processes).
    local: Vec<Arc<PsNetServer>>,
    /// Send [`WireMsg::Shutdown`] on shutdown (external `psd` processes).
    remote_shutdown: bool,
    pub(crate) num_keys: usize,
    /// One control link per shard, opened on first use
    /// ([`NetCluster::control`]).
    control: OnceLock<ShardedClient<RemoteClient>>,
}

impl NetCluster {
    /// Shards in this process, reached over loopback socket pairs
    /// ([`cdsgd_net::loopback_pair`]) — full wire protocol and the TCP
    /// path's transport code, no network stack.
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
    /// cluster shuts down. An empty `addrs` is an error.
    pub fn connect(addrs: &[String], num_keys: usize, net: NetConfig) -> Result<Self, NetError> {
        if addrs.is_empty() {
            return Err(NetError::Io("need at least one shard address".into()));
        }
        let conns = addrs.iter().map(|a| ShardConn::Tcp(a.clone())).collect();
        Ok(Self::assemble(conns, Vec::new(), true, num_keys, net))
    }

    /// The full form of all three constructors: the same cluster with a
    /// telemetry sink attached to its client-side traffic accounting, so
    /// every push/pull/frame event any client of this cluster records is
    /// also forwarded to `telemetry`. Call it on the freshly built
    /// cluster, before any client is handed out: the counters restart
    /// from zero. No constructor dials a link, so none is dialed twice.
    pub fn traced(mut self, telemetry: Telemetry) -> Self {
        self.dialer.stats = Arc::new(TrafficStats::with_telemetry(telemetry));
        self
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
    /// shard behind one router, dialed by the first call that needs them.
    fn control(&self) -> Result<&ShardedClient<RemoteClient>, NetError> {
        if let Some(control) = self.control.get() {
            return Ok(control);
        }
        let pool = BufferPool::new();
        let links = self
            .dialer
            .conns
            .iter()
            .map(|c| {
                let t = self.dialer.open(c)?;
                RemoteClient::new(t, Arc::clone(&self.dialer.stats), pool.clone())
            })
            .collect::<Result<_, _>>()?;
        let control = ShardedClient::from_clients(links, pool);
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
        self.control()?.set_lr(lr)
    }

    fn snapshot(&self) -> Result<(Vec<Vec<f32>>, Vec<u64>), NetError> {
        self.control()?.snapshot()
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
        if let (true, Ok(c)) = (self.remote_shutdown, self.control()) {
            let _ = c.shutdown_server();
        }
        let Self { control, local, .. } = *self;
        // Control clients first (closes their connections), then the
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
    fn an_emulated_link_delivers_no_reply_before_it_has_carried_it() {
        // 10 KB/s: a 100-float push and its pull reply each take ~42 ms,
        // and the pull cannot be answered before the push has arrived.
        const BYTES_PER_S: f64 = 10_000.0;
        let cfg = ServerConfig::new(1, 1.0).with_network_bandwidth(BYTES_PER_S);
        let push = || Compressed::Raw(vec![1.0; 100]);
        let bytes = push_frame_bytes(push().wire_bytes()) + pull_reply_frame_bytes(100);
        let least = Duration::from_secs_f64(bytes as f64 / BYTES_PER_S);
        let round_trip = |c: &dyn ParamClient| {
            let t = Instant::now();
            c.push(0, 0, push()).unwrap();
            assert_eq!(*c.pull(0, 1).unwrap(), [-1.0; 100]);
            t.elapsed()
        };
        // In-process, the puller waits out its reply's booking; over a
        // transport, the I/O loop holds the reply until then.
        let ps = ParamServer::start(vec![vec![0.0; 100]], cfg);
        let took = round_trip(&ps.client());
        assert!(took >= least, "in-process: {took:?} < {least:?}");
        ps.shutdown();
        let server = PsNetServer::start(vec![vec![0.0; 100]], cfg);
        let took = round_trip(&loopback_client(&server));
        assert!(took >= least, "loopback: {took:?} < {least:?}");
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
        // Answered in request order, as `psd` answers, each resolves its
        // own key.
        let weights = init(3);
        for key in 0..3u32 {
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
    fn an_id_no_u32_holds_is_refused_not_wrapped_onto_a_real_one() {
        // Key 1 << 32 truncated to 32 bits is key 0, and worker 1 << 32
        // is worker 0: both must be refused, not served as those.
        let cluster = NetCluster::start_loopback(init(2), ServerConfig::new(1, 1.0), 1).unwrap();
        let c = cluster.client().unwrap();
        assert!(c.pull(1 << 32, 0).is_err(), "pulled key 0 as key 1 << 32");
        Box::new(cluster).shutdown();
        let cluster = elastic_cluster();
        let c = cluster.client().unwrap();
        assert!(
            c.register(1 << 32).is_err(),
            "registered worker 1 << 32 as 0"
        );
        drop(c);
        Box::new(cluster).shutdown();
    }

    #[test]
    fn overlapping_requests_on_one_connection_are_all_answered() {
        use crate::ElasticConfig;
        /// `call` for workers 1 and 2 at once, behind a pull of `round`
        /// parked on `c`: `psd` answers in request order, so no reply can
        /// come before the pull's and both requests (`frame` bytes each)
        /// are outstanding together. Once both are on the wire, workers
        /// 0–2 push, the round answers the pull, and both replies follow.
        fn overlapped<T: Send>(
            c: &RemoteClient,
            stats: &TrafficStats,
            (round, frame): (u64, usize),
            call: impl Fn(usize) -> T + Sync,
        ) -> Vec<T> {
            let parked = c.pull_async(0, round).unwrap();
            let both_sent = stats.bytes_sent() + 2 * frame as u64;
            std::thread::scope(|s| {
                let call = &call;
                let calls: Vec<_> = (1..=2).map(|w| s.spawn(move || call(w))).collect();
                // A request that never goes out shows in the results; the
                // round below still releases the one that did.
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                while stats.bytes_sent() < both_sent && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
                for w in 0..3 {
                    c.push(w, 0, Compressed::Raw(vec![1.0; 3])).unwrap();
                }
                assert_eq!(*parked.wait().unwrap(), [-(round as f32); 3]);
                calls.into_iter().map(|h| h.join().unwrap()).collect()
            })
        }
        let frame = |msg: WireMsg| {
            let mut body = Vec::new();
            wire::encode_msg_into(&msg, &mut body);
            FRAME_PREFIX_BYTES + body.len()
        };
        let server = PsNetServer::start(
            init(1),
            ServerConfig::new(1, 1.0).with_elastic(ElasticConfig::new(1)),
        );
        let (a, b) = loopback_pair();
        server.attach(Box::new(b)).unwrap();
        let stats = Arc::new(TrafficStats::new());
        let c = RemoteClient::new(Box::new(a), Arc::clone(&stats), BufferPool::new()).unwrap();
        let register = (1, frame(WireMsg::Register { worker: 1 }));
        let acks = overlapped(&c, &stats, register, |w| c.register(w));
        assert_eq!(acks, [Ok(vec![0]), Ok(vec![0])]);
        // Both snapshots were taken before round 2's pushes arrived.
        let snapshots = overlapped(&c, &stats, (2, frame(WireMsg::Snapshot)), |_| c.snapshot());
        let round_1 = Ok((vec![vec![-1.0; 3]], vec![1]));
        assert_eq!(snapshots, [round_1.clone(), round_1]);
        drop(c);
        server.shutdown();
    }

    #[test]
    fn a_reply_the_client_did_not_ask_for_retires_the_connection() {
        let peer_of = || {
            let (client_end, mut peer) = loopback_pair();
            peer.set_recv_timeout(Some(Duration::from_secs(5))).unwrap();
            let stats = Arc::new(TrafficStats::new());
            let c = RemoteClient::new(Box::new(client_end), stats, BufferPool::new()).unwrap();
            (c, peer)
        };
        let answer = |peer: &mut dyn Transport, reply: WireMsg| {
            let mut frame = Vec::new();
            wire::encode_msg_into(&reply, &mut frame);
            peer.send_frame(&frame).unwrap();
        };
        let mut frame = Vec::new();
        // A pending pull answered for another key.
        let (c, mut peer) = peer_of();
        let pending = c.pull_async(0, 7).unwrap();
        peer.recv_frame(&mut frame).unwrap();
        let weights = Arc::from(vec![1.0f32; 3]);
        let other_key = WireMsg::PullReply {
            key: 1,
            min_version: 7,
            weights,
        };
        answer(&mut peer, other_key);
        let got = within(Duration::from_secs(5), move || pending.wait());
        assert_eq!(got, Err(NetError::ServerGone));
        assert_eq!(peer.recv_frame(&mut frame), Err(NetError::Closed));
        // A reply with no request outstanding: the next request's wait
        // reads it first, and the pull goes out before the close.
        let (c, mut peer) = peer_of();
        answer(&mut peer, WireMsg::RegisterAck { versions: vec![0] });
        let got = within(Duration::from_secs(5), move || c.pull(0, 0));
        assert_eq!(got, Err(NetError::ServerGone));
        peer.recv_frame(&mut frame).unwrap();
        let pull = WireMsg::Pull {
            key: 0,
            min_version: 0,
        };
        assert_eq!(wire::decode_msg(&frame), Ok(pull));
        assert_eq!(peer.recv_frame(&mut frame), Err(NetError::Closed));
    }

    /// A client of `server` over loopback, or over TCP through a
    /// listener of its own, and the client's traffic counters.
    fn counted_client(server: &Arc<PsNetServer>, tcp: bool) -> (RemoteClient, Arc<TrafficStats>) {
        let t: Box<dyn Transport> = if tcp {
            let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", NetConfig::default()).unwrap();
            let t = TcpTransport::connect(addr.to_string(), &NetConfig::default()).unwrap();
            server
                .attach(Box::new(acceptor.accept(Duration::from_secs(5)).unwrap()))
                .unwrap();
            Box::new(t)
        } else {
            let (a, b) = loopback_pair();
            server.attach(Box::new(b)).unwrap();
            Box::new(a)
        };
        let stats = Arc::new(TrafficStats::new());
        let c = RemoteClient::new(t, Arc::clone(&stats), BufferPool::new()).unwrap();
        (c, stats)
    }

    #[test]
    fn a_later_waiter_reads_an_earlier_waiters_reply() {
        for tcp in [true, false] {
            let server = PsNetServer::start(init(1), ServerConfig::new(1, 1.0));
            let (c, stats) = counted_client(&server, tcp);
            within(Duration::from_secs(20), move || {
                // Both park: no reply exists before the first push.
                let early = c.pull_async(0, 1).unwrap();
                let late = c.pull_async(0, 2).unwrap();
                std::thread::scope(|s| {
                    let late = s.spawn(move || late.wait());
                    c.push(0, 0, Compressed::Raw(vec![1.0; 3])).unwrap();
                    // Nobody else reads: the later waiter has taken the
                    // earlier reply off the connection...
                    while stats.bytes_pulled() == 0 {
                        std::thread::yield_now();
                    }
                    // ...and handed it over while it reads on for its own,
                    // which only the second push makes.
                    assert_eq!(*early.wait().unwrap(), [-1.0; 3]);
                    c.push(0, 0, Compressed::Raw(vec![1.0; 3])).unwrap();
                    assert_eq!(*late.join().unwrap().unwrap(), [-2.0; 3]);
                });
            });
            server.shutdown();
        }
    }

    #[test]
    fn a_request_hands_over_the_replies_that_have_arrived() {
        for tcp in [true, false] {
            let server = PsNetServer::start(init(1), ServerConfig::new(1, 1.0));
            let (c, stats) = counted_client(&server, tcp);
            within(Duration::from_secs(20), move || {
                // Nobody waits: only a later request takes the first
                // reply off the connection once it has arrived.
                let mut pending = vec![c.pull_async(0, 0).unwrap()];
                while stats.bytes_pulled() == 0 {
                    pending.push(c.pull_async(0, 0).unwrap());
                }
                for p in pending {
                    assert_eq!(*p.wait().unwrap(), [0.0; 3]);
                }
            });
            server.shutdown();
        }
    }

    #[test]
    fn a_pull_dropped_unwaited_does_not_stall_a_later_waiter() {
        for client in [tcp_client, loopback_client] {
            let server = PsNetServer::start(init(1), ServerConfig::new(1, 1.0));
            let c = client(&server);
            within(Duration::from_secs(20), move || {
                // One answered at once, one parked until the push: both
                // replies come in ahead of the last pull's.
                drop(c.pull_async(0, 0).unwrap());
                drop(c.pull_async(0, 1).unwrap());
                c.push(0, 0, Compressed::Raw(vec![1.0; 3])).unwrap();
                assert_eq!(*c.pull(0, 1).unwrap(), [-1.0; 3]);
            });
            server.shutdown();
        }
    }

    #[test]
    fn a_push_goes_out_past_an_unread_reply_of_its_size() {
        // 8 MiB each way, more than a socket's send and receive buffers
        // hold together: the push completes only if the server reads
        // while its own write of the reply is stuck.
        const N: usize = 1 << 21;
        for client in [tcp_client, loopback_client] {
            let server = PsNetServer::start(vec![vec![0.5; N]], ServerConfig::new(1, 1.0));
            let c = client(&server);
            let served = Arc::clone(&server);
            within(Duration::from_secs(60), move || {
                let unread = c.pull_async(0, 0).unwrap();
                while served.stats().bytes_sent() == 0 {
                    std::thread::yield_now();
                }
                c.push(0, 0, Compressed::Raw(vec![1.0; N])).unwrap();
                assert!(unread.wait().unwrap().iter().all(|w| *w == 0.5));
                assert!(c.pull(0, 1).unwrap().iter().all(|w| *w == -0.5));
            });
            server.shutdown();
        }
    }

    #[test]
    fn connecting_to_no_shards_is_an_error() {
        let none = NetCluster::connect(&[], 1, NetConfig::default());
        assert!(matches!(none, Err(NetError::Io(_))));
    }

    #[test]
    fn traced_cluster_dials_one_control_link_per_shard() {
        let cluster = NetCluster::start_loopback(init(4), ServerConfig::new(1, 1.0), 2)
            .unwrap()
            .traced(Telemetry::disabled());
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

    /// Run `f` on its own thread; `None`, instead of a hung test binary,
    /// if it takes longer than `limit`.
    fn bounded<T: Send + 'static>(
        limit: Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Option<T> {
        let (tx, rx) = mpsc::sync_channel(1);
        let handle = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        let out = rx.recv_timeout(limit).ok()?;
        handle.join().unwrap();
        Some(out)
    }

    /// [`bounded`], failing the test if `f` does not finish in time.
    fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        bounded(limit, f).expect("event loop wedged: the operation never completed")
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
        // the shard resolves the reply at an arbitrary point of
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

    /// An I/O loop serving the shard `ps`, driven by hand through
    /// `service`, and its waker.
    fn io_loop_of(ps: &ParamServer) -> (IoLoop, Waker) {
        let (waker, wake) = wake_pair().unwrap();
        let (_conn_tx, conn_rx) = mpsc::channel();
        let io = IoLoop {
            conns: conn_rx,
            wake,
            waker: waker.clone(),
            shard: ps.shard.clone(),
            stop: Arc::new(AtomicBool::new(false)),
            passes: Arc::new(AtomicU64::new(0)),
        };
        (io, waker)
    }

    /// The server end of a fresh TCP connection, non-blocking as `attach`
    /// makes it, and the peer's socket to write raw bytes into.
    fn tcp_conn() -> (Conn, std::net::TcpStream) {
        let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", NetConfig::default()).unwrap();
        let peer = std::net::TcpStream::connect(addr).unwrap();
        let mut t: Box<dyn Transport> = Box::new(acceptor.accept(Duration::from_secs(5)).unwrap());
        t.set_nonblocking(true).unwrap();
        (Conn::new(t), peer)
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
        let (io, _waker) = io_loop_of(&ps);
        // The one buffer of the key's length in the shard's pool.
        let offered = vec![0.0f32; N];
        let at = offered.as_ptr();
        io.shard.pool.put_f32(offered);
        let (mut conn, mut peer) = tcp_conn();
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
            poller.add(conn.fd, false);
            poller.wait(Some(Duration::from_millis(50))).unwrap();
            io.service(&mut conn, &mut head).unwrap();
            if let Bulk::Landed(msg) = &mut conn.bulk {
                landed_at = landing_storage(msg).map(|s| s.as_ptr());
            }
        }
        drop(writer.join().unwrap());
        assert_eq!(landed_at, Some(at));
        assert_eq!(bits(&ps.client().pull(0, 1).unwrap()), want);
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
        let (io, waker) = io_loop_of(&ps);
        // A reader that is not draining: the peer never reads.
        let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", NetConfig::default()).unwrap();
        let mut peer = TcpTransport::connect(addr.to_string(), &NetConfig::default()).unwrap();
        let mut t: Box<dyn Transport> = Box::new(acceptor.accept(Duration::from_secs(5)).unwrap());
        t.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(t);
        for _ in 0..REPLIES {
            let pull = WireMsg::Pull {
                key: 0,
                min_version: 0,
            };
            let answer = io.shard.send(conn.id, pull, Some(&waker)).unwrap();
            conn.replies.push_back(answer.unwrap());
        }
        // FIFO on the shard's queue: once this returns, all are resolved.
        ps.client().snapshot().unwrap();

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
            poller.add(conn.fd, true);
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
        // Loopback is vetted at the prefix the same way: the server hangs
        // up with the body unread, which a Unix socket reports to the
        // peer as a reset rather than a clean EOF — the peer gone all
        // the same.
        let (mut hostile, server_end) = loopback_pair();
        server.attach(Box::new(server_end)).unwrap();
        hostile.send_frame(&[0u8; 65]).unwrap();
        hostile
            .set_recv_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        assert_eq!(
            hostile.recv_frame(&mut Vec::new()),
            Err(NetError::Closed),
            "server kept a loopback link with a hostile prefix"
        );
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
        // the loop), none may reach the shard's `assert`s, size a
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
        assert_eq!(
            edge.register(crate::MAX_ELASTIC_WORKERS - 1).unwrap(),
            vec![0]
        );
        edge.leave(crate::MAX_ELASTIC_WORKERS - 1).unwrap();
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
                // Through `wait`, which re-issues a pull the drop cut off.
                let pending = c.pull_async(k, r).unwrap();
                let Some(w) = bounded(Duration::from_secs(10), move || pending.wait()) else {
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

    impl NetCluster {
        /// A bare session with a retry budget.
        fn reconnecting_client(
            &self,
            worker: usize,
            rc: cdsgd_net::ReconnectConfig,
        ) -> Result<crate::WorkerSession, NetError> {
            crate::WorkerSession::dial(self.dialer.clone(), worker, self.num_keys, Some(rc))
        }
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

    #[test]
    fn a_reconnecting_client_refuses_a_key_the_model_lacks() {
        // Neither indexes its per-key replay tables off the end, nor has
        // a refused pull redialed and issued again until retries run out.
        let cluster = elastic_cluster();
        let c = cluster.reconnecting_client(0, fast_rc()).unwrap();
        let raw = Compressed::Raw(vec![1.0; 3]);
        assert!(matches!(c.push(0, 1 << 32, raw), Err(NetError::Decode(_))));
        assert!(matches!(c.pull(2, 0), Err(NetError::Decode(_))));
        run_rounds(&c, 1);
        assert_eq!(c.reconnects(), 0);
        drop(c);
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
        // The 4th send is round 2's pull: `pull_async` hits the failure,
        // reconnects, and issues the pull again on the fresh session.
        drop_and_reconnect_is_bit_exact(4);
    }

    #[test]
    fn a_pull_the_drop_cut_off_is_issued_again_by_its_waiter() {
        let cluster = elastic_cluster();
        // Per shard, the link carries the register and one parked pull.
        cluster.arm_chaos(cdsgd_net::FaultPlan::new().kill_after_sends(2));
        let c = cluster.reconnecting_client(0, fast_rc()).unwrap();
        ParamClient::register(&c, 0).unwrap();
        let parked: Vec<_> = (0..2).map(|k| c.pull_async(k, 1).unwrap()).collect();
        // The first push finds the link dead: the redial replays it on
        // the fresh session and closes the old one under both pulls.
        for k in 0..2 {
            c.push(0, k, Compressed::Raw(vec![1.0; 3])).unwrap();
        }
        for (k, pending) in parked.into_iter().enumerate() {
            let w = within(Duration::from_secs(10), move || pending.wait()).unwrap();
            assert_eq!(*w, [k as f32 - 1.0; 3], "key {k}");
        }
        assert_eq!(c.reconnects(), 1);
        drop(c);
        Box::new(cluster).shutdown();
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
        // A key the model lacks has no base to add: refused below.
        assert!(c1.pull(1 << 32, 1).is_err());
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
    fn a_session_without_a_budget_returns_the_cut_and_dials_once() {
        let cluster = elastic_cluster();
        // Each shard's link carries one frame, then dies.
        cluster.arm_chaos(cdsgd_net::FaultPlan::new().kill_after_sends(1));
        let attached = cluster.attach(0, Attach::default()).unwrap();
        let c = attached.client();
        let raw = || Compressed::Raw(vec![1.0; 3]);
        c.push(0, 0, raw()).unwrap();
        // A redial would take the next plan armed; nothing may take it.
        cluster.arm_chaos(cdsgd_net::FaultPlan::new());
        assert_eq!(c.push(0, 0, raw()), Err(NetError::Closed));
        assert_eq!(c.pull(0, 1).unwrap_err(), NetError::Closed);
        assert_eq!(attached.reconnects(), 0);
        assert!(cluster.dialer.chaos.lock().unwrap().is_some(), "redialed");
        drop((c, attached));
        Box::new(cluster).shutdown();
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
