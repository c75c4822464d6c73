//! Topology-agnostic collectives: one [`Collective`] trait with two
//! implementations over [`Transport`] links — the bandwidth-optimal ring
//! all-reduce ([`WireRing`]: `N−1` scatter-reduce steps, then `N−1`
//! all-gather steps, every member sending `2·(N−1)/N` of the vector)
//! and an order-pinned tree reduce-broadcast ([`WireTree`]) — plus the
//! [`PsBackend`] adapter ([`AllReduceBackend`]) that lets
//! `Trainer::run_with` drive server-less topologies with the
//! same update strategies it uses against a parameter server. The
//! substrate is the transport, not the algorithm: loopback queues inside
//! one process, localhost TCP, or TCP between processes.
//!
//! # Reduction-order contract
//!
//! Like `kernel::dot`'s striped-order contract, the summation order is
//! **pinned** so results are bit-identical across ranks, substrates and
//! topologies:
//!
//! * chunk `c` (boundaries from [`chunk_range`]) accumulates in ring
//!   order starting at rank `c`: `((x_c + x_{c+1}) + x_{c+2}) + …
//!   + x_{c+N−1}` (ranks mod `N`, one `+` per scatter step);
//! * the all-gather phase copies the reduced chunks verbatim, so every
//!   rank ends with the same bits;
//! * the mean is one elementwise multiply of the finished sum by `1/N`
//!   (the ring's owner of a chunk does it once, before the gather
//!   copies the quotients; the tree does it after its broadcast).
//!
//! Every fold is elementwise (one IEEE add per element, no
//! reassociation): the ring adds each received chunk straight from its
//! frame, the tree root uses `kernel::add_assign`, whose SIMD and scalar
//! twins are elementwise too — so the contract holds under
//! `CDSGD_FORCE_SCALAR=0/1` alike. Wire frames carry little-endian f32
//! (exact round trip). The tree gathers *raw per-rank vectors* to the
//! root — not subtree partial sums, which would reassociate the fold —
//! and the root applies the same ring-ordered sum before broadcasting,
//! trading the ring's bandwidth optimality for `O(log N)` latency hops
//! (the `cdsgd-simtime` allreduce cost model quantifies the crossover).
//! [`ring_ordered_sum`] is the executable statement of the contract;
//! tests pin both collectives against it bit for bit.
//!
//! # Frames and telemetry
//!
//! Collectives speak the `cdsgd-net` collective frame family
//! (`[tag][phase][index][count][payload]`, length-prefixed like every
//! other frame). Every frame is recorded as a conn-tagged
//! [`cdsgd_telemetry::Event::FrameSent`]/`FrameReceived` pair through the
//! group's shared [`TrafficStats`], so sent and received byte totals
//! balance exactly, and payload bytes are recorded as `Push` events —
//! which is what lets tests prove the `2·(N−1)/N` bandwidth-optimality
//! claim on real TCP runs.

use crate::api::{ParamClient, PsBackend};
use crate::stats::TrafficStats;
use cdsgd_net::{
    decode_collective, encode_collective_bytes_into, encode_collective_into,
    encode_collective_parts, loopback_pair, NetConfig, NetError, Tail, TcpAcceptor, TcpTransport,
    Transport, COLLECTIVE_EXCHANGE, COLLECTIVE_GATHER, COLLECTIVE_HELLO, COLLECTIVE_SCATTER,
    COLLECTIVE_TREE_DOWN, COLLECTIVE_TREE_UP, FRAME_PREFIX_BYTES,
};
use cdsgd_tensor::kernel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a member waits for a peer's frame (or accept) before the
/// collective fails with [`NetError::Timeout`] instead of hanging.
const STEP_TIMEOUT: Duration = Duration::from_secs(30);

/// Chunk boundaries: `n` near-equal contiguous ranges over `len`.
/// Part of the reduction-order contract — all backends must chunk
/// identically or their step payloads (and bits) diverge.
pub fn chunk_range(len: usize, n: usize, i: usize) -> std::ops::Range<usize> {
    let start = i * len / n;
    let end = (i + 1) * len / n;
    start..end
}

/// The executable reduction-order contract: the sum every backend must
/// produce, computed serially. Chunk `c` folds inputs in ring order
/// starting at rank `c`; the result is the full summed vector (no mean).
pub fn ring_ordered_sum(inputs: &[Vec<f32>]) -> Vec<f32> {
    let n = inputs.len();
    assert!(n > 0);
    let len = inputs[0].len();
    let mut out = vec![0.0f32; len];
    for c in 0..n {
        let range = chunk_range(len, n, c);
        out[range.clone()].copy_from_slice(&inputs[c][range.clone()]);
        for j in 1..n {
            let src = &inputs[(c + j) % n][range.clone()];
            kernel::add_assign(&mut out[range.clone()], src);
        }
    }
    out
}

/// One member's handle on a synchronization group. All members must call
/// the same operation concurrently (from their own threads/processes);
/// calls block until the collective completes.
///
/// Operations and their contracts:
/// * [`Collective::reduce_scatter`] — after the call, the member's owned
///   chunk (`(rank + 1) % world`, boundaries from [`chunk_range`]) holds
///   the ring-ordered sum of all members' data. Implementations may
///   reduce *more* than the owned chunk (the tree reduces everything).
/// * [`Collective::all_gather`] — each member contributes its owned
///   chunk; afterwards every member holds the full vector, bit-identical.
/// * [`Collective::allreduce_mean`] — elementwise mean, bit-identical
///   across ranks and implementations (the reduction-order contract).
/// * [`Collective::neighbor_exchange`] — ring-topology gossip: send an
///   opaque byte payload to both ring neighbors, receive theirs.
pub trait Collective: Send {
    /// This member's rank in `[0, world)`.
    fn rank(&self) -> usize;

    /// Group size.
    fn world(&self) -> usize;

    /// Scatter-reduce: the member's owned chunk ends fully reduced.
    fn reduce_scatter(&mut self, data: &mut [f32]) -> Result<(), NetError>;

    /// All-gather of the owned chunks: every member ends with the full
    /// vector.
    fn all_gather(&mut self, data: &mut [f32]) -> Result<(), NetError>;

    /// In-place mean all-reduce; bit-identical across ranks/backends.
    fn allreduce_mean(&mut self, data: &mut [f32]) -> Result<(), NetError> {
        self.reduce_scatter(data)?;
        self.all_gather(data)?;
        kernel::scale(data, 1.0 / self.world() as f32);
        Ok(())
    }

    /// Exchange `send` with both ring neighbors; `from_prev`/`from_next`
    /// are overwritten with the payloads of ranks `rank ∓ 1`. Only ring
    /// topologies support this; others return an error.
    fn neighbor_exchange(
        &mut self,
        send: &[u8],
        from_prev: &mut Vec<u8>,
        from_next: &mut Vec<u8>,
    ) -> Result<(), NetError> {
        let _ = (send, from_prev, from_next);
        Err(NetError::Io(
            "neighbor exchange requires a ring topology".into(),
        ))
    }
}

// ---------------------------------------------------------------------------
// shared wire-link plumbing
// ---------------------------------------------------------------------------

/// Send `frame` on `link` and record the conn-tagged frame bytes.
fn send_recorded(
    link: &mut dyn Transport,
    frame: &[u8],
    stats: &TrafficStats,
) -> Result<(), NetError> {
    stats.record_sent(link.conn_id(), FRAME_PREFIX_BYTES + frame.len());
    link.send_frame(frame)
}

/// Receive one frame from `link` into `out` and record it.
fn recv_recorded(
    link: &mut dyn Transport,
    out: &mut Vec<u8>,
    stats: &TrafficStats,
) -> Result<(), NetError> {
    link.recv_frame(out)?;
    stats.record_received(link.conn_id(), FRAME_PREFIX_BYTES + out.len());
    Ok(())
}

/// One link's part in a collective step: optionally a frame to write
/// (as the head and borrowed tail of a two-part send) and optionally a
/// buffer expecting one inbound frame. Each transport appears in at most
/// one descriptor per step.
struct LinkIo<'a> {
    link: &'a mut dyn Transport,
    send: Option<(&'a [u8], &'a [u8])>,
    recv: Option<&'a mut Vec<u8>>,
}

/// One full-duplex step: write every pending frame and read one frame
/// into every expecting buffer, without requiring any global
/// send/receive ordering across the group. In blocking mode (loopback:
/// queue-backed sends never block) this is sequential send-then-receive.
/// In non-blocking mode (TCP) a send writes what the socket takes and
/// queues the rest, and both directions are pumped together, so a full
/// socket buffer on the send side can never deadlock against a peer
/// doing the same.
fn duplex_step(
    stats: &TrafficStats,
    nonblocking: bool,
    links: &mut [LinkIo<'_>],
) -> Result<(), NetError> {
    for l in links.iter_mut() {
        if let Some((head, tail)) = l.send {
            let frame = FRAME_PREFIX_BYTES + head.len() + tail.len();
            stats.record_sent(l.link.conn_id(), frame);
            l.link.send_parts(head, Tail::Bytes(tail))?;
        }
    }
    if !nonblocking {
        for l in links.iter_mut() {
            if let Some(out) = l.recv.as_deref_mut() {
                recv_recorded(l.link, out, stats)?;
            }
        }
        return Ok(());
    }
    let deadline = Instant::now() + STEP_TIMEOUT;
    let mut flushed: Vec<bool> = links.iter().map(|l| l.send.is_none()).collect();
    let mut got: Vec<bool> = links.iter().map(|l| l.recv.is_none()).collect();
    loop {
        let mut done = true;
        for (i, l) in links.iter_mut().enumerate() {
            if !flushed[i] {
                flushed[i] = l.link.poll_flush()?;
                done &= flushed[i];
            }
            if !got[i] {
                let out = l.recv.as_deref_mut().expect("recv buffer present");
                got[i] = l.link.poll_recv_frame(out)?;
                if got[i] {
                    stats.record_received(l.link.conn_id(), FRAME_PREFIX_BYTES + out.len());
                }
                done &= got[i];
            }
        }
        if done {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(NetError::Timeout);
        }
        std::thread::yield_now();
    }
}

/// First frame on every collective link: announce the sender's rank so
/// accepters can label inbound connections regardless of accept order.
fn send_hello(link: &mut dyn Transport, rank: usize, stats: &TrafficStats) -> Result<(), NetError> {
    let mut buf = Vec::with_capacity(16);
    encode_collective_bytes_into(COLLECTIVE_HELLO, rank as u32, &[], &mut buf);
    send_recorded(link, &buf, stats)
}

fn recv_hello(link: &mut dyn Transport, stats: &TrafficStats) -> Result<usize, NetError> {
    let mut buf = Vec::with_capacity(16);
    recv_recorded(link, &mut buf, stats)?;
    let frame = decode_collective(&buf)?;
    if frame.phase != COLLECTIVE_HELLO {
        return Err(NetError::Decode(format!(
            "expected collective hello, got phase {}",
            frame.phase
        )));
    }
    Ok(frame.index as usize)
}

/// Accept one inbound link per rank in `expected` and label each by the
/// rank its hello announces; the links come back ordered by that rank.
/// `topology` and `rank` name the accepting member, and `want` the
/// peers it listens for, in the wiring error.
fn accept_labelled(
    acceptor: &TcpAcceptor,
    topology: &str,
    rank: usize,
    expected: &[usize],
    want: impl std::fmt::Display,
    stats: &TrafficStats,
) -> Result<Vec<Box<dyn Transport>>, NetError> {
    let mut links: Vec<(usize, Box<dyn Transport>)> = Vec::with_capacity(expected.len());
    for _ in expected {
        let mut link = acceptor.accept(STEP_TIMEOUT)?;
        let hello = recv_hello(&mut link, stats)?;
        if !expected.contains(&hello) {
            return Err(NetError::Decode(format!(
                "{topology} wiring error: rank {rank} accepted a link from rank {hello}, \
                 want {want}"
            )));
        }
        links.push((hello, Box::new(link)));
    }
    links.sort_by_key(|(r, _)| *r);
    Ok(links.into_iter().map(|(_, t)| t).collect())
}

/// Decode a received chunk frame, validating phase and chunk index.
fn expect_chunk<'a>(
    buf: &'a [u8],
    phase: u8,
    index: usize,
) -> Result<cdsgd_net::CollectiveFrame<'a>, NetError> {
    let frame = decode_collective(buf)?;
    if frame.phase != phase || frame.index != index as u32 {
        return Err(NetError::Decode(format!(
            "collective step mismatch: got phase {} index {}, want phase {phase} index {index} \
             (members out of lock step?)",
            frame.phase, frame.index
        )));
    }
    Ok(frame)
}

// ---------------------------------------------------------------------------
// ring all-reduce over Transport
// ---------------------------------------------------------------------------

/// A member of the two-phase, order-pinned ring all-reduce. Its neighbor
/// links are [`Transport`]s: each chunk travels as a length-prefixed
/// collective frame over loopback queues or TCP sockets. Both links are
/// bidirectional, so the same member also supports
/// [`Collective::neighbor_exchange`] for decentralized training.
///
/// A dead neighbor surfaces as a typed error from the next operation
/// ([`NetError::Closed`] as soon as its endpoint drops), never a panic.
pub struct WireRing {
    rank: usize,
    n: usize,
    /// Link to rank `(rank + 1) % n`; all-reduce chunks go out here.
    next: Box<dyn Transport>,
    /// Link to rank `(rank − 1) % n`; all-reduce chunks come in here.
    prev: Box<dyn Transport>,
    nonblocking: bool,
    stats: Arc<TrafficStats>,
    frame: Vec<u8>,
    frame2: Vec<u8>,
    rbuf: Vec<u8>,
    rbuf2: Vec<u8>,
}

impl WireRing {
    /// Wrap the two neighbor links. Sockets (`nonblocking`) are switched
    /// to the polled mode [`duplex_step`] pumps; queue-backed links stay
    /// blocking with [`STEP_TIMEOUT`] as their receive deadline.
    fn new(
        rank: usize,
        n: usize,
        mut next: Box<dyn Transport>,
        mut prev: Box<dyn Transport>,
        nonblocking: bool,
        stats: Arc<TrafficStats>,
    ) -> Result<Self, NetError> {
        for link in [&mut next, &mut prev] {
            if nonblocking {
                link.set_nonblocking(true)?;
            } else {
                link.set_recv_timeout(Some(STEP_TIMEOUT))?;
            }
        }
        Ok(Self {
            rank,
            n,
            next,
            prev,
            nonblocking,
            stats,
            frame: Vec::new(),
            frame2: Vec::new(),
            rbuf: Vec::new(),
            rbuf2: Vec::new(),
        })
    }

    /// Build an `n`-member ring over in-process loopback transports.
    pub fn loopback(n: usize) -> (Vec<WireRing>, Arc<TrafficStats>) {
        assert!(n > 0, "a ring needs at least one member");
        let stats = Arc::new(TrafficStats::new());
        // Pair i connects rank i (side a, its `next`) to rank (i+1) % n
        // (side b, its `prev`).
        let mut sides: Vec<(Option<_>, Option<_>)> = (0..n)
            .map(|_| {
                let (a, b) = loopback_pair();
                (Some(a), Some(b))
            })
            .collect();
        let members = (0..n)
            .map(|rank| {
                let next = sides[rank].0.take().expect("side used once");
                let prev = sides[(rank + n - 1) % n].1.take().expect("side used once");
                let stats = Arc::clone(&stats);
                WireRing::new(rank, n, Box::new(next), Box::new(prev), false, stats)
                    .expect("loopback links accept a receive deadline")
            })
            .collect();
        (members, stats)
    }

    /// Build an `n`-member ring over localhost TCP, all endpoints in this
    /// process (the trainer's threaded deployment). Each member dials its
    /// successor and accepts its predecessor, with a rank handshake on
    /// every link.
    pub fn tcp(n: usize) -> Result<(Vec<WireRing>, Arc<TrafficStats>), NetError> {
        assert!(n > 0, "a ring needs at least one member");
        let stats = Arc::new(TrafficStats::new());
        let cfg = NetConfig::default();
        let mut acceptors = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let (acc, addr) = TcpAcceptor::bind("127.0.0.1:0", cfg.clone())?;
            acceptors.push(acc);
            addrs.push(addr);
        }
        // Dial every successor first: TCP connects complete against the
        // listener backlog, so no accept has to run concurrently, and the
        // tiny hello frames fit in socket buffers unread.
        let mut nexts = Vec::with_capacity(n);
        for rank in 0..n {
            let mut t = TcpTransport::connect(addrs[(rank + 1) % n], &cfg)?;
            send_hello(&mut t, rank, &stats)?;
            nexts.push(t);
        }
        let mut members = Vec::with_capacity(n);
        for (rank, next) in nexts.into_iter().enumerate() {
            let prev = Self::accept_prev(&acceptors[rank], rank, n, &stats)?;
            let stats = Arc::clone(&stats);
            members.push(WireRing::new(rank, n, Box::new(next), prev, true, stats)?);
        }
        Ok((members, stats))
    }

    /// Accept the predecessor's link on `acceptor`.
    fn accept_prev(
        acceptor: &TcpAcceptor,
        rank: usize,
        n: usize,
        stats: &TrafficStats,
    ) -> Result<Box<dyn Transport>, NetError> {
        let want = (rank + n - 1) % n;
        let mut links = accept_labelled(acceptor, "ring", rank, &[want], want, stats)?;
        Ok(links.pop().expect("one link per expected rank"))
    }

    /// Join a multi-process ring as `rank`: bind `peers[rank]`, dial the
    /// successor `peers[(rank + 1) % n]`, accept the predecessor, and
    /// handshake ranks. Every process must list the same `peers` in the
    /// same order.
    pub fn connect(
        rank: usize,
        peers: &[String],
        cfg: &NetConfig,
        stats: Arc<TrafficStats>,
    ) -> Result<WireRing, NetError> {
        let n = peers.len();
        assert!(rank < n, "rank {rank} outside peer list of {n}");
        if n == 1 {
            // Degenerate single-member ring: all collectives early-return.
            let (a, b) = loopback_pair();
            return WireRing::new(rank, n, Box::new(a), Box::new(b), false, stats);
        }
        let (acceptor, _) = TcpAcceptor::bind(peers[rank].as_str(), cfg.clone())?;
        let mut next = TcpTransport::connect(peers[(rank + 1) % n].as_str(), cfg)?;
        send_hello(&mut next, rank, &stats)?;
        let prev = Self::accept_prev(&acceptor, rank, n, &stats)?;
        WireRing::new(rank, n, Box::new(next), prev, true, stats)
    }
}

impl Collective for WireRing {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.n
    }

    fn reduce_scatter(&mut self, data: &mut [f32]) -> Result<(), NetError> {
        if self.n == 1 {
            return Ok(());
        }
        let (len, n) = (data.len(), self.n);
        for s in 0..n - 1 {
            let send_idx = (self.rank + n - s) % n;
            let recv_idx = (self.rank + n - s - 1) % n;
            let src = &data[chunk_range(len, n, send_idx)];
            // Header into `frame`; the chunk goes out from `data` itself.
            self.frame.clear();
            let tail =
                encode_collective_parts(COLLECTIVE_SCATTER, send_idx as u32, src, &mut self.frame);
            self.stats.record_push(4 * src.len());
            duplex_step(
                &self.stats,
                self.nonblocking,
                &mut [
                    LinkIo {
                        link: self.next.as_mut(),
                        send: Some((&self.frame, tail)),
                        recv: None,
                    },
                    LinkIo {
                        link: self.prev.as_mut(),
                        send: None,
                        recv: Some(&mut self.rbuf),
                    },
                ],
            )?;
            // One add per element in index order: the bits of decoding
            // the chunk and `kernel::add_assign`-ing it, without the copy.
            expect_chunk(&self.rbuf, COLLECTIVE_SCATTER, recv_idx)?
                .add_f32_into(&mut data[chunk_range(len, n, recv_idx)])?;
        }
        Ok(())
    }

    fn all_gather(&mut self, data: &mut [f32]) -> Result<(), NetError> {
        if self.n == 1 {
            return Ok(());
        }
        let (len, n) = (data.len(), self.n);
        for s in 0..n - 1 {
            let send_idx = (self.rank + 1 + n - s) % n;
            let recv_idx = (self.rank + n - s) % n;
            let src = &data[chunk_range(len, n, send_idx)];
            // Header into `frame`; the chunk goes out from `data` itself.
            self.frame.clear();
            let tail =
                encode_collective_parts(COLLECTIVE_GATHER, send_idx as u32, src, &mut self.frame);
            self.stats.record_push(4 * src.len());
            duplex_step(
                &self.stats,
                self.nonblocking,
                &mut [
                    LinkIo {
                        link: self.next.as_mut(),
                        send: Some((&self.frame, tail)),
                        recv: None,
                    },
                    LinkIo {
                        link: self.prev.as_mut(),
                        send: None,
                        recv: Some(&mut self.rbuf),
                    },
                ],
            )?;
            let frame = expect_chunk(&self.rbuf, COLLECTIVE_GATHER, recv_idx)?;
            // Gather copies bytes verbatim: decode straight into place.
            frame.read_f32_into(&mut data[chunk_range(len, n, recv_idx)])?;
        }
        Ok(())
    }

    fn allreduce_mean(&mut self, data: &mut [f32]) -> Result<(), NetError> {
        if self.n == 1 {
            return Ok(());
        }
        self.reduce_scatter(data)?;
        // Each owner divides its reduced chunk once and the gather copies
        // the quotients verbatim: the bits of scaling the whole vector
        // after the gather, for 1/N of the multiplies.
        let owned = chunk_range(data.len(), self.n, (self.rank + 1) % self.n);
        kernel::scale(&mut data[owned], 1.0 / self.n as f32);
        self.all_gather(data)?;
        self.stats.record_collective(self.rank, self.n, {
            let len = data.len() as u64;
            2 * (self.n as u64 - 1) * (4 * len) / self.n as u64
        });
        Ok(())
    }

    fn neighbor_exchange(
        &mut self,
        send: &[u8],
        from_prev: &mut Vec<u8>,
        from_next: &mut Vec<u8>,
    ) -> Result<(), NetError> {
        from_prev.clear();
        from_next.clear();
        if self.n == 1 {
            from_prev.extend_from_slice(send);
            from_next.extend_from_slice(send);
            return Ok(());
        }
        self.frame.clear();
        encode_collective_bytes_into(COLLECTIVE_EXCHANGE, self.rank as u32, send, &mut self.frame);
        self.frame2.clear();
        self.frame2.extend_from_slice(&self.frame);
        self.stats.record_push(send.len());
        self.stats.record_push(send.len());
        // Both links are bidirectional: send to the successor on `next`
        // and to the predecessor back along `prev`, then collect both.
        duplex_step(
            &self.stats,
            self.nonblocking,
            &mut [
                LinkIo {
                    link: self.next.as_mut(),
                    send: Some((&self.frame, &[])),
                    recv: Some(&mut self.rbuf2),
                },
                LinkIo {
                    link: self.prev.as_mut(),
                    send: Some((&self.frame2, &[])),
                    recv: Some(&mut self.rbuf),
                },
            ],
        )?;
        let prev_rank = (self.rank + self.n - 1) % self.n;
        let next_rank = (self.rank + 1) % self.n;
        let f = expect_chunk(&self.rbuf, COLLECTIVE_EXCHANGE, prev_rank)?;
        from_prev.extend_from_slice(f.bytes());
        let f = expect_chunk(&self.rbuf2, COLLECTIVE_EXCHANGE, next_rank)?;
        from_next.extend_from_slice(f.bytes());
        self.stats
            .record_collective(self.rank, self.n, 2 * send.len() as u64);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// tree reduce-broadcast over Transport
// ---------------------------------------------------------------------------

/// A binary-heap-shaped tree collective (`parent(r) = (r−1)/2`, root 0)
/// over [`Transport`] links. The reduce phase forwards *raw per-rank
/// vectors* to the root, which applies the same ring-ordered sum as the
/// ring backends — so results stay bit-identical — then broadcasts the
/// sum back down. Compared to the ring this costs `(N−1)·L` ingest at
/// the root but only `2·⌈log₂N⌉` latency hops, which wins for small
/// vectors on high-latency links (see the `simtime` allreduce model).
pub struct WireTree {
    rank: usize,
    n: usize,
    /// Link toward `(rank − 1) / 2`; `None` at the root.
    parent: Option<Box<dyn Transport>>,
    /// Links to children `2·rank + 1` and `2·rank + 2` (when `< n`),
    /// ordered by child rank.
    children: Vec<Box<dyn Transport>>,
    stats: Arc<TrafficStats>,
    frame: Vec<u8>,
    rbuf: Vec<u8>,
    /// Root-only: the per-rank vectors of the current reduce.
    gathered: Vec<Vec<f32>>,
    scratch: Vec<f32>,
}

/// Ranks of `rank`'s children in an `n`-member heap tree.
fn tree_children(rank: usize, n: usize) -> Vec<usize> {
    [2 * rank + 1, 2 * rank + 2]
        .into_iter()
        .filter(|&c| c < n)
        .collect()
}

/// Number of ranks in the subtree rooted at `rank`.
fn subtree_size(rank: usize, n: usize) -> usize {
    if rank >= n {
        return 0;
    }
    1 + subtree_size(2 * rank + 1, n) + subtree_size(2 * rank + 2, n)
}

impl WireTree {
    fn new(
        rank: usize,
        n: usize,
        parent: Option<Box<dyn Transport>>,
        children: Vec<Box<dyn Transport>>,
        stats: Arc<TrafficStats>,
    ) -> Self {
        Self {
            rank,
            n,
            parent,
            children,
            stats,
            frame: Vec::new(),
            rbuf: Vec::new(),
            gathered: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Build an `n`-member tree over in-process loopback transports.
    pub fn loopback(n: usize) -> (Vec<WireTree>, Arc<TrafficStats>) {
        assert!(n > 0, "a tree needs at least one member");
        let stats = Arc::new(TrafficStats::new());
        // Edge r (for r in 1..n) connects rank r to its parent.
        let mut up: Vec<Option<Box<dyn Transport>>> = (0..n).map(|_| None).collect();
        let mut down: Vec<Vec<(usize, Box<dyn Transport>)>> = (0..n).map(|_| Vec::new()).collect();
        for r in 1..n {
            let (child_side, parent_side) = loopback_pair();
            up[r] = Some(Box::new(child_side));
            down[(r - 1) / 2].push((r, Box::new(parent_side)));
        }
        let members = (0..n)
            .map(|rank| {
                let mut kids = std::mem::take(&mut down[rank]);
                kids.sort_by_key(|(r, _)| *r);
                let mut m = WireTree::new(
                    rank,
                    n,
                    up[rank].take(),
                    kids.into_iter().map(|(_, t)| t).collect(),
                    Arc::clone(&stats),
                );
                if let Some(p) = m.parent.as_mut() {
                    p.set_recv_timeout(Some(STEP_TIMEOUT)).expect("timeout");
                }
                for c in m.children.iter_mut() {
                    c.set_recv_timeout(Some(STEP_TIMEOUT)).expect("timeout");
                }
                m
            })
            .collect();
        (members, stats)
    }

    /// Build an `n`-member tree over localhost TCP, all endpoints in this
    /// process. Children dial parents; hellos label the links.
    pub fn tcp(n: usize) -> Result<(Vec<WireTree>, Arc<TrafficStats>), NetError> {
        assert!(n > 0, "a tree needs at least one member");
        let stats = Arc::new(TrafficStats::new());
        let cfg = NetConfig::default();
        let mut acceptors = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let (acc, addr) = TcpAcceptor::bind("127.0.0.1:0", cfg.clone())?;
            acceptors.push(acc);
            addrs.push(addr);
        }
        let mut parents: Vec<Option<Box<dyn Transport>>> = (0..n).map(|_| None).collect();
        for r in 1..n {
            let mut t = TcpTransport::connect(addrs[(r - 1) / 2], &cfg)?;
            send_hello(&mut t, r, &stats)?;
            parents[r] = Some(Box::new(t));
        }
        let mut members = Vec::with_capacity(n);
        for (rank, parent) in parents.into_iter().enumerate() {
            let children = Self::accept_children(&acceptors[rank], rank, n, &stats)?;
            members.push(WireTree::new(rank, n, parent, children, Arc::clone(&stats)));
        }
        Ok((members, stats))
    }

    /// Accept the links of `rank`'s children, ordered by child rank.
    fn accept_children(
        acceptor: &TcpAcceptor,
        rank: usize,
        n: usize,
        stats: &TrafficStats,
    ) -> Result<Vec<Box<dyn Transport>>, NetError> {
        let expected = tree_children(rank, n);
        let want = format_args!("one of {expected:?}");
        accept_labelled(acceptor, "tree", rank, &expected, want, stats)
    }

    /// Join a multi-process tree as `rank`: bind `peers[rank]`, dial the
    /// parent, accept the children. Every process must list the same
    /// `peers` in the same order.
    pub fn connect(
        rank: usize,
        peers: &[String],
        cfg: &NetConfig,
        stats: Arc<TrafficStats>,
    ) -> Result<WireTree, NetError> {
        let n = peers.len();
        assert!(rank < n, "rank {rank} outside peer list of {n}");
        // A leaf accepts nobody and binds nothing.
        let acceptor = if tree_children(rank, n).is_empty() {
            None
        } else {
            Some(TcpAcceptor::bind(peers[rank].as_str(), cfg.clone())?.0)
        };
        let parent = if rank == 0 {
            None
        } else {
            let mut t = TcpTransport::connect(peers[(rank - 1) / 2].as_str(), cfg)?;
            send_hello(&mut t, rank, &stats)?;
            Some(Box::new(t) as Box<dyn Transport>)
        };
        let children = match &acceptor {
            Some(acc) => Self::accept_children(acc, rank, n, &stats)?,
            None => Vec::new(),
        };
        Ok(WireTree::new(rank, n, parent, children, stats))
    }

    /// Tree sum: gather raw per-rank vectors to the root, apply the
    /// ring-ordered fold there, broadcast the sum; on return every
    /// member's `data` holds the full sum (no mean). Blocking I/O is
    /// safe here: each phase's communication graph is a DAG.
    fn tree_reduce(&mut self, data: &mut [f32]) -> Result<(), NetError> {
        if self.n == 1 {
            return Ok(());
        }
        let len = data.len();
        // Up phase: forward every subtree vector (tagged by source rank).
        if self.rank == 0 {
            self.gathered.clear();
            self.gathered.resize(self.n, Vec::new());
        } else {
            self.frame.clear();
            encode_collective_into(COLLECTIVE_TREE_UP, self.rank as u32, data, &mut self.frame);
            self.stats.record_push(4 * len);
            let parent = self.parent.as_mut().expect("non-root has a parent");
            send_recorded(parent.as_mut(), &self.frame, &self.stats)?;
        }
        for ci in 0..self.children.len() {
            let child_rank = tree_children(self.rank, self.n)[ci];
            for _ in 0..subtree_size(child_rank, self.n) {
                recv_recorded(self.children[ci].as_mut(), &mut self.rbuf, &self.stats)?;
                let frame = decode_collective(&self.rbuf)?;
                if frame.phase != COLLECTIVE_TREE_UP {
                    return Err(NetError::Decode(format!(
                        "tree reduce expected an up frame, got phase {}",
                        frame.phase
                    )));
                }
                let src = frame.index as usize;
                if self.rank == 0 {
                    if src == 0 || src >= self.n {
                        return Err(NetError::Decode(format!(
                            "tree reduce saw source rank {src} of {}",
                            self.n
                        )));
                    }
                    let slot = &mut self.gathered[src];
                    slot.clear();
                    slot.resize(frame.len(), 0.0);
                    frame.read_f32_into(slot)?;
                } else {
                    // Forward verbatim: re-sending the received body
                    // keeps the payload bits untouched.
                    self.stats.record_push(4 * frame.len());
                    let parent = self.parent.as_mut().expect("non-root has a parent");
                    send_recorded(parent.as_mut(), &self.rbuf, &self.stats)?;
                }
            }
        }
        // Root: ring-ordered fold (the reduction-order contract).
        if self.rank == 0 {
            self.scratch.clear();
            self.scratch.extend_from_slice(data);
            for src in 1..self.n {
                if self.gathered[src].len() != len {
                    return Err(NetError::Decode(format!(
                        "tree members disagree on length: rank {src} sent {}, root has {len}",
                        self.gathered[src].len()
                    )));
                }
            }
            for c in 0..self.n {
                let range = chunk_range(len, self.n, c);
                let first = (c) % self.n;
                {
                    let (dst, src): (&mut [f32], &[f32]) = if first == 0 {
                        (&mut data[range.clone()], &self.scratch[range.clone()])
                    } else {
                        (
                            &mut data[range.clone()],
                            &self.gathered[first][range.clone()],
                        )
                    };
                    dst.copy_from_slice(src);
                }
                for j in 1..self.n {
                    let src_rank = (c + j) % self.n;
                    let src: &[f32] = if src_rank == 0 {
                        &self.scratch[range.clone()]
                    } else {
                        &self.gathered[src_rank][range.clone()]
                    };
                    kernel::add_assign(&mut data[range.clone()], src);
                }
            }
        }
        // Down phase: broadcast the sum along the tree.
        if self.rank == 0 {
            self.frame.clear();
            encode_collective_into(COLLECTIVE_TREE_DOWN, 0, data, &mut self.frame);
            for ci in 0..self.children.len() {
                self.stats.record_push(4 * len);
                send_recorded(self.children[ci].as_mut(), &self.frame, &self.stats)?;
            }
        } else {
            let parent = self.parent.as_mut().expect("non-root has a parent");
            recv_recorded(parent.as_mut(), &mut self.rbuf, &self.stats)?;
            let frame = expect_chunk(&self.rbuf, COLLECTIVE_TREE_DOWN, 0)?;
            frame.read_f32_into(data)?;
            for ci in 0..self.children.len() {
                self.stats.record_push(4 * len);
                // Forward the received frame verbatim.
                let buf = self.rbuf.clone();
                send_recorded(self.children[ci].as_mut(), &buf, &self.stats)?;
            }
        }
        Ok(())
    }
}

impl Collective for WireTree {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.n
    }

    /// Tree reduce leaves *every* chunk fully reduced on every member —
    /// a superset of the reduce-scatter contract.
    fn reduce_scatter(&mut self, data: &mut [f32]) -> Result<(), NetError> {
        self.tree_reduce(data)
    }

    /// Gather the owned chunks to the root, reassemble, broadcast.
    fn all_gather(&mut self, data: &mut [f32]) -> Result<(), NetError> {
        if self.n == 1 {
            return Ok(());
        }
        let len = data.len();
        let own_chunk = (self.rank + 1) % self.n;
        if self.rank == 0 {
            self.gathered.clear();
            self.gathered.resize(self.n, Vec::new());
        } else {
            let src = &data[chunk_range(len, self.n, own_chunk)];
            self.frame.clear();
            encode_collective_into(COLLECTIVE_TREE_UP, own_chunk as u32, src, &mut self.frame);
            self.stats.record_push(4 * src.len());
            let parent = self.parent.as_mut().expect("non-root has a parent");
            send_recorded(parent.as_mut(), &self.frame, &self.stats)?;
        }
        for ci in 0..self.children.len() {
            let child_rank = tree_children(self.rank, self.n)[ci];
            for _ in 0..subtree_size(child_rank, self.n) {
                recv_recorded(self.children[ci].as_mut(), &mut self.rbuf, &self.stats)?;
                let frame = decode_collective(&self.rbuf)?;
                if frame.phase != COLLECTIVE_TREE_UP {
                    return Err(NetError::Decode(format!(
                        "tree gather expected an up frame, got phase {}",
                        frame.phase
                    )));
                }
                if self.rank == 0 {
                    let chunk = frame.index as usize;
                    if chunk >= self.n {
                        return Err(NetError::Decode(format!(
                            "tree gather saw chunk {chunk} of {}",
                            self.n
                        )));
                    }
                    frame.read_f32_into(&mut data[chunk_range(len, self.n, chunk)])?;
                } else {
                    self.stats.record_push(4 * frame.len());
                    let parent = self.parent.as_mut().expect("non-root has a parent");
                    send_recorded(parent.as_mut(), &self.rbuf, &self.stats)?;
                }
            }
        }
        // Root's own chunk was already in place; broadcast the assembly.
        if self.rank == 0 {
            self.frame.clear();
            encode_collective_into(COLLECTIVE_TREE_DOWN, 0, data, &mut self.frame);
            for ci in 0..self.children.len() {
                self.stats.record_push(4 * len);
                send_recorded(self.children[ci].as_mut(), &self.frame, &self.stats)?;
            }
        } else {
            let parent = self.parent.as_mut().expect("non-root has a parent");
            recv_recorded(parent.as_mut(), &mut self.rbuf, &self.stats)?;
            let frame = expect_chunk(&self.rbuf, COLLECTIVE_TREE_DOWN, 0)?;
            frame.read_f32_into(data)?;
            for ci in 0..self.children.len() {
                self.stats.record_push(4 * len);
                let buf = self.rbuf.clone();
                send_recorded(self.children[ci].as_mut(), &buf, &self.stats)?;
            }
        }
        Ok(())
    }

    fn allreduce_mean(&mut self, data: &mut [f32]) -> Result<(), NetError> {
        if self.n == 1 {
            return Ok(());
        }
        self.tree_reduce(data)?;
        // Same elementwise scale as the ring backends, applied locally
        // to the identical sum bits — so the mean is identical too.
        kernel::scale(data, 1.0 / self.n as f32);
        self.stats
            .record_collective(self.rank, self.n, 4 * data.len() as u64);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// PsBackend adapter
// ---------------------------------------------------------------------------

/// The per-worker collective handles of a server-less deployment, plus
/// the shared traffic counters the trainer reports from.
pub struct CollectiveGroup {
    pub members: Vec<Box<dyn Collective>>,
    pub stats: Arc<TrafficStats>,
}

/// Which substrate a collective group runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireMode {
    /// Loopback [`Transport`] queues — real frames, no sockets.
    Loopback,
    /// Localhost TCP sockets.
    Tcp,
}

fn no_server<T>() -> Result<T, NetError> {
    Err(NetError::Io(
        "server-less topology: this run synchronizes through a collective, \
         there is no parameter server to talk to"
            .into(),
    ))
}

/// The server-less [`PsBackend`]: workers synchronize through a ring or
/// tree of [`Collective`] handles — all-reduce for AR-SGD, neighbor
/// gossip over the ring for the decentralized topology — instead of
/// pushing to a parameter server. The trainer obtains the per-worker
/// handles through [`PsBackend::take_collectives`]; there is no server,
/// so `client()` and `snapshot()` answer with an error.
pub struct AllReduceBackend {
    /// Surrendered to the trainer exactly once.
    group: Mutex<Option<CollectiveGroup>>,
    stats: Arc<TrafficStats>,
}

impl AllReduceBackend {
    fn new<C: Collective + 'static>((members, stats): (Vec<C>, Arc<TrafficStats>)) -> Self {
        let members = members
            .into_iter()
            .map(|m| Box::new(m) as Box<dyn Collective>)
            .collect();
        Self {
            group: Mutex::new(Some(CollectiveGroup {
                members,
                stats: Arc::clone(&stats),
            })),
            stats,
        }
    }

    /// A ring deployment for `n` workers on `mode`.
    pub fn ring(n: usize, mode: WireMode) -> Result<Self, NetError> {
        Ok(Self::new(match mode {
            WireMode::Loopback => WireRing::loopback(n),
            WireMode::Tcp => WireRing::tcp(n)?,
        }))
    }

    /// A tree reduce-broadcast deployment for `n` workers on `mode`
    /// (all-reduce only: neighbor exchange has no tree analogue).
    pub fn tree(n: usize, mode: WireMode) -> Result<Self, NetError> {
        Ok(Self::new(match mode {
            WireMode::Loopback => WireTree::loopback(n),
            WireMode::Tcp => WireTree::tcp(n)?,
        }))
    }

    /// The group's traffic counters (live even after the members are
    /// taken by the trainer).
    pub fn stats(&self) -> Arc<TrafficStats> {
        Arc::clone(&self.stats)
    }
}

impl PsBackend for AllReduceBackend {
    fn client(&self) -> Result<Box<dyn ParamClient>, NetError> {
        no_server()
    }

    /// Server-less runs apply the learning-rate schedule worker-side;
    /// accepting the broadcast keeps the trainer's epoch loop uniform.
    fn set_lr(&self, _lr: f32) -> Result<(), NetError> {
        Ok(())
    }

    fn snapshot(&self) -> Result<(Vec<Vec<f32>>, Vec<u64>), NetError> {
        no_server()
    }

    fn bytes_pushed(&self) -> u64 {
        self.stats.bytes_pushed()
    }

    fn bytes_pulled(&self) -> u64 {
        self.stats.bytes_pulled()
    }

    fn take_collectives(&self, n: usize) -> Option<CollectiveGroup> {
        let g = self.group.lock().unwrap().take()?;
        assert_eq!(
            g.members.len(),
            n,
            "collective backend built for {} members, trainer wants {n}",
            g.members.len()
        );
        Some(g)
    }

    fn shutdown(self: Box<Self>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `op` on every member concurrently (one thread each) and
    /// return the results in rank order.
    fn on_all<C: Send, T: Send>(members: Vec<C>, op: impl Fn(usize, C) -> T + Sync) -> Vec<T> {
        std::thread::scope(|s| {
            let op = &op;
            let handles: Vec<_> = members
                .into_iter()
                .enumerate()
                .map(|(rank, m)| s.spawn(move || op(rank, m)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    fn ring_group(n: usize, mode: WireMode) -> CollectiveGroup {
        let backend = AllReduceBackend::ring(n, mode).unwrap();
        backend.take_collectives(n).unwrap()
    }

    fn tree_group(n: usize, mode: WireMode) -> CollectiveGroup {
        let backend = AllReduceBackend::tree(n, mode).unwrap();
        backend.take_collectives(n).unwrap()
    }

    fn run_group(group: CollectiveGroup, inputs: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
        on_all(group.members, |rank, mut m| {
            let mut v = inputs[rank].clone();
            m.allreduce_mean(&mut v).expect("collective failed");
            v
        })
    }

    /// Adversarial magnitudes, so any reassociation changes the bits.
    fn adversarial_inputs(n: usize, len: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|r| {
                (0..len)
                    .map(|i| {
                        let sign = if (r + i) % 2 == 0 { 1.0 } else { -1.0 };
                        sign * (1.0 + r as f32 * 1e-3) * (10.0f32).powi((i % 7) as i32 - 3)
                    })
                    .collect()
            })
            .collect()
    }

    fn reference_mean(inputs: &[Vec<f32>]) -> Vec<f32> {
        let mut expect = ring_ordered_sum(inputs);
        kernel::scale(&mut expect, 1.0 / inputs.len() as f32);
        expect
    }

    fn assert_all_ranks_bit_equal(label: &str, out: &[Vec<f32>], expect: &[f32]) {
        for (rank, o) in out.iter().enumerate() {
            assert_eq!(o.len(), expect.len(), "{label}: rank={rank} length");
            for (i, (a, b)) in o.iter().zip(expect).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{label}: rank={rank} i={i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn every_backend_matches_the_order_contract_bit_for_bit() {
        for n in [2usize, 3, 4, 5] {
            for len in [8usize, 33, 130] {
                let inputs = adversarial_inputs(n, len);
                let expect = reference_mean(&inputs);
                for (label, group) in [
                    ("loopback ring", ring_group(n, WireMode::Loopback)),
                    ("tcp ring", ring_group(n, WireMode::Tcp)),
                    ("loopback tree", tree_group(n, WireMode::Loopback)),
                    ("tcp tree", tree_group(n, WireMode::Tcp)),
                ] {
                    let out = run_group(group, inputs.clone());
                    assert_all_ranks_bit_equal(&format!("{label} n={n} len={len}"), &out, &expect);
                }
            }
        }
    }

    #[test]
    fn loopback_ring_handles_every_small_group_and_degenerate_length() {
        // Lengths 0, below N (some chunks empty) and not divisible by N:
        // every rank must still end on the contract's bits, and a
        // single member must return its input untouched.
        for n in 1usize..=5 {
            for len in [0usize, 1, 2, 3, 4, 7, 16, 33] {
                let inputs = adversarial_inputs(n, len);
                let expect = if n == 1 {
                    inputs[0].clone()
                } else {
                    reference_mean(&inputs)
                };
                let group = ring_group(n, WireMode::Loopback);
                let stats = Arc::clone(&group.stats);
                let out = run_group(group, inputs);
                assert_all_ranks_bit_equal(&format!("n={n} len={len}"), &out, &expect);
                // Each member sends 2(n−1) chunks that tile the vector
                // (n−1)/n·2 times: exact for every length.
                let expect_bytes: usize = (0..n)
                    .map(|c| 2 * (n - 1) * 4 * chunk_range(len, n, c).len())
                    .sum();
                assert_eq!(stats.bytes_pushed(), expect_bytes as u64, "n={n} len={len}");
            }
        }
    }

    #[test]
    fn loopback_ring_computes_the_plain_mean() {
        let group = ring_group(2, WireMode::Loopback);
        let out = run_group(
            group,
            vec![vec![1.0, 2.0, 3.0, 4.0], vec![3.0, 2.0, 1.0, 0.0]],
        );
        for o in &out {
            assert_eq!(o, &vec![2.0, 2.0, 2.0, 2.0]);
        }
    }

    #[test]
    fn fold_from_frame_equals_decode_then_add_assign_on_both_backends() {
        // ±0, subnormals, ±inf, NaNs with payloads, on either side of the
        // add; every accumulator value meets every chunk value. Two NaNs
        // with *different* payloads never meet: IEEE 754 leaves which
        // payload an add propagates to the implementation.
        let nan_a = f32::from_bits(0x7fc1_2345);
        let nan_b = f32::from_bits(0xffa0_0001);
        let specials = [
            0.0f32,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            -1.0e-3,
            1.0 + f32::EPSILON,
        ];
        let mut pairs: Vec<(f32, f32)> = Vec::new();
        for &a in &specials {
            for &b in &specials {
                pairs.push((a, b));
            }
            for nan in [nan_a, nan_b] {
                pairs.push((a, nan));
                pairs.push((nan, a));
            }
        }
        pairs.push((nan_a, nan_a));
        // Past one AVX2 lane width and not a multiple of it.
        assert!(!pairs.len().is_multiple_of(8) && pairs.len() > 64);
        let (acc, chunk): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();

        let mut frame = Vec::new();
        encode_collective_into(COLLECTIVE_SCATTER, 3, &chunk, &mut frame);
        let frame = expect_chunk(&frame, COLLECTIVE_SCATTER, 3).unwrap();

        let mut folded = acc.clone();
        frame.add_f32_into(&mut folded).unwrap();

        let mut decoded = vec![0.0f32; chunk.len()];
        frame.read_f32_into(&mut decoded).unwrap();
        let mut dispatched = acc.clone();
        kernel::add_assign(&mut dispatched, &decoded);
        let mut scalar = acc.clone();
        kernel::scalar::add_assign(&mut scalar, &decoded);

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&folded),
            bits(&dispatched),
            "vs {:?}",
            kernel::backend()
        );
        assert_eq!(bits(&folded), bits(&scalar), "vs the scalar reference");
        // A chunk of the wrong length is refused, not partially added.
        assert!(frame.add_f32_into(&mut folded[1..]).is_err());
    }

    #[test]
    fn a_dropped_ring_member_fails_its_neighbours_with_closed_not_a_hang() {
        let (mut members, _stats) = WireRing::loopback(3);
        drop(members.remove(1));
        let t0 = Instant::now();
        let results = on_all(members, |_, mut m| m.allreduce_mean(&mut [1.0f32; 12]));
        assert_eq!(results, vec![Err(NetError::Closed), Err(NetError::Closed)]);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "a dead neighbour must not cost the {STEP_TIMEOUT:?} step timeout"
        );
    }

    #[test]
    fn wire_ring_traffic_is_bandwidth_optimal_and_balanced() {
        let n = 4usize;
        let len = 1024usize;
        let rounds = 3usize;
        let (members, stats) = WireRing::tcp(n).unwrap();
        on_all(members, |_, mut m| {
            let mut v = vec![1.0f32; len];
            for _ in 0..rounds {
                m.allreduce_mean(&mut v).unwrap();
            }
        });
        // Message layer: every member pays 2(n−1)/n of the vector per
        // round, exactly.
        let expect = (rounds * n * 2 * (n - 1) * (4 * len) / n) as u64;
        assert_eq!(stats.bytes_pushed(), expect);
        // Frame layer: every frame sent was received — byte accounting
        // balances exactly (hello frames included).
        assert!(stats.bytes_sent() > expect);
        assert_eq!(stats.bytes_sent(), stats.bytes_received());
    }

    /// Every member gossips `[rank; 8]`; returns `(from_prev, from_next)`
    /// per rank.
    fn exchange_ranks(members: Vec<WireRing>) -> Vec<(Vec<u8>, Vec<u8>)> {
        on_all(members, |rank, mut m| {
            assert_eq!(Collective::rank(&m), rank);
            let (mut prev, mut next) = (vec![0xee; 3], vec![0xee; 30]);
            m.neighbor_exchange(&[rank as u8; 8], &mut prev, &mut next)
                .unwrap();
            (prev, next)
        })
    }

    #[test]
    fn wire_ring_neighbor_exchange_delivers_both_directions() {
        for (label, n, (members, stats)) in [
            ("tcp", 4usize, WireRing::tcp(4).unwrap()),
            ("loopback", 3, WireRing::loopback(3)),
            // N = 1 gossips with itself: both outputs are the payload.
            ("loopback", 1, WireRing::loopback(1)),
        ] {
            for (rank, (prev, next)) in exchange_ranks(members).into_iter().enumerate() {
                assert_eq!(prev, vec![((rank + n - 1) % n) as u8; 8], "{label} n={n}");
                assert_eq!(next, vec![((rank + 1) % n) as u8; 8], "{label} n={n}");
            }
            assert_eq!(stats.bytes_sent(), stats.bytes_received());
        }
    }

    #[test]
    fn backends_surrender_their_group_once() {
        let backend = AllReduceBackend::ring(3, WireMode::Loopback).unwrap();
        let g = backend.take_collectives(3).expect("first take");
        assert_eq!(g.members.len(), 3);
        assert!(backend.take_collectives(3).is_none(), "second take");
        assert!(matches!(backend.client(), Err(NetError::Io(_))));
        assert!(backend.set_lr(0.1).is_ok());
        Box::new(backend).shutdown();
    }
}
