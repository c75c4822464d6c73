//! Topology-agnostic collectives: one two-verb [`Collective`] trait with
//! two step algorithms over [`Transport`] links — the bandwidth-optimal
//! ring all-reduce ([`WireRing`]: `N−1` scatter-reduce steps, then `N−1`
//! all-gather steps, every member sending `2·(N−1)/N` of the vector) and
//! an order-pinned tree reduce-broadcast ([`WireTree`]) — plus the
//! [`PsBackend`] adapter ([`AllReduceBackend`]) that lets
//! `Trainer::run_with` drive server-less topologies with the same update
//! strategies it uses against a parameter server.
//!
//! A topology is a [`Shape`]: the rank each member dials (ring: its
//! successor; tree: its parent), from which the accepting side follows.
//! One link builder per substrate wires either shape — loopback queues
//! inside one process, localhost TCP inside one process
//! ([`AllReduceBackend::new`]), or one rank of a multi-process group
//! joining a shared peer list ([`Shape::join`]) — and the two TCP
//! substrates share one dial (connect + rank hello) and one labelled
//! accept.
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
use std::net::{SocketAddr, ToSocketAddrs};
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
pub trait Collective: Send {
    /// In-place elementwise mean all-reduce, bit-identical across ranks
    /// and shapes (the reduction-order contract).
    fn allreduce_mean(&mut self, data: &mut [f32]) -> Result<(), NetError>;

    /// Ring gossip: send an opaque byte payload to both ring neighbors;
    /// `from_prev`/`from_next` are overwritten with the payloads of ranks
    /// `rank ∓ 1`. Only the ring supports this; the tree returns an
    /// error.
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
            if let Some(out) = l.recv.as_deref_mut().filter(|_| !got[i]) {
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

/// First frame on every TCP collective link: announce the sender's rank
/// so accepters can label inbound connections regardless of accept order.
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
// shapes and the link builders
// ---------------------------------------------------------------------------

/// A collective topology, stated as the one link each member dials: a
/// ring member dials its successor, a tree member its parent
/// (`(rank − 1) / 2`; the root dials nobody). Who accepts whom follows,
/// so one builder per substrate wires either shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// The ring all-reduce ([`WireRing`]), which also carries
    /// decentralized neighbor gossip.
    Ring,
    /// The binary-tree reduce-broadcast ([`WireTree`]); all-reduce only.
    Tree,
}

/// One member's wired links: the one it dialed, if any, and the ones it
/// accepted, ordered by the dialing rank.
#[derive(Default)]
struct Links {
    dialed: Option<Box<dyn Transport>>,
    accepted: Vec<Box<dyn Transport>>,
}

impl Shape {
    /// The rank `rank` dials in an `n`-member group (a one-member ring
    /// dials itself).
    fn dials(self, rank: usize, n: usize) -> Option<usize> {
        match self {
            Shape::Ring => Some((rank + 1) % n),
            Shape::Tree => rank.checked_sub(1).map(|r| r / 2),
        }
    }

    /// The ranks that dial `rank`, ascending.
    fn dialed_by(self, rank: usize, n: usize) -> Vec<usize> {
        (0..n).filter(|&r| self.dials(r, n) == Some(rank)).collect()
    }

    /// Join an `n`-member group of this shape as `rank`, where
    /// `n = peers.len()` and the other ranks are other processes doing
    /// the same: bind `peers[rank]` if any rank dials it (a tree leaf
    /// binds nothing), dial the rank this one dials, accept the ranks
    /// that dial it. Every process must list the same `peers` in the same
    /// order.
    pub fn join(
        self,
        rank: usize,
        peers: &[String],
        cfg: &NetConfig,
        stats: Arc<TrafficStats>,
    ) -> Result<Box<dyn Collective>, NetError> {
        let n = peers.len();
        assert!(rank < n, "rank {rank} outside peer list of {n}");
        let listener = self.listen(rank, n, peers[rank].as_str(), cfg)?;
        let dialed = self
            .dials(rank, n)
            .map(|to| dial(peers[to].as_str(), rank, cfg, &stats))
            .transpose()?;
        let accepted = self.accept_labelled(rank, n, listener.as_ref(), &stats)?;
        self.member(rank, n, Links { dialed, accepted }, true, stats)
    }

    /// Bind `addr` for `rank`'s inbound links, if any rank dials it.
    fn listen(
        self,
        rank: usize,
        n: usize,
        addr: impl ToSocketAddrs,
        cfg: &NetConfig,
    ) -> Result<Option<(TcpAcceptor, SocketAddr)>, NetError> {
        if self.dialed_by(rank, n).is_empty() {
            return Ok(None);
        }
        TcpAcceptor::bind(addr, cfg.clone()).map(Some)
    }

    /// Accept one link from every rank that dials `rank` and label each
    /// by the rank its hello announces, so accept order does not matter;
    /// the links come back ordered by that rank. A hello from a rank that
    /// does not dial `rank`, or a second one from a rank already taken,
    /// is a wiring error naming it.
    fn accept_labelled(
        self,
        rank: usize,
        n: usize,
        listener: Option<&(TcpAcceptor, SocketAddr)>,
        stats: &TrafficStats,
    ) -> Result<Vec<Box<dyn Transport>>, NetError> {
        let Some((acceptor, _)) = listener else {
            return Ok(Vec::new());
        };
        let expected = self.dialed_by(rank, n);
        let mut links: Vec<(usize, Box<dyn Transport>)> = Vec::with_capacity(expected.len());
        for _ in &expected {
            let mut link = acceptor.accept(STEP_TIMEOUT)?;
            let hello = recv_hello(&mut link, stats)?;
            let wiring_error = |what: &str| {
                NetError::Decode(format!(
                    "{self:?} wiring error: rank {rank} accepted {what} from rank {hello}, \
                     want one each from {expected:?}"
                ))
            };
            if !expected.contains(&hello) {
                return Err(wiring_error("a link"));
            }
            if links.iter().any(|(r, _)| *r == hello) {
                return Err(wiring_error("a second link"));
            }
            links.push((hello, Box::new(link)));
        }
        links.sort_by_key(|(r, _)| *r);
        Ok(links.into_iter().map(|(_, t)| t).collect())
    }

    /// Wrap one member's wired links in this shape's step algorithm. A
    /// ring over sockets runs in the polled mode [`duplex_step`] pumps;
    /// every other link blocks, with [`STEP_TIMEOUT`] as its receive
    /// deadline.
    fn member(
        self,
        rank: usize,
        n: usize,
        links: Links,
        sockets: bool,
        stats: Arc<TrafficStats>,
    ) -> Result<Box<dyn Collective>, NetError> {
        let nonblocking = sockets && self == Shape::Ring;
        let Links {
            mut dialed,
            mut accepted,
        } = links;
        for link in dialed.iter_mut().chain(&mut accepted) {
            if nonblocking {
                link.set_nonblocking(true)?;
            } else {
                link.set_recv_timeout(Some(STEP_TIMEOUT))?;
            }
        }
        match self {
            Shape::Ring => match (dialed, accepted.pop()) {
                (Some(next), Some(prev)) => Ok(Box::new(WireRing::new(
                    rank,
                    n,
                    next,
                    prev,
                    nonblocking,
                    stats,
                ))),
                _ => Err(NetError::Decode(format!(
                    "Ring wiring error: rank {rank} lacks a neighbor link"
                ))),
            },
            Shape::Tree => Ok(Box::new(WireTree::new(rank, n, dialed, accepted, stats))),
        }
    }
}

/// Dial `addr` and announce `rank` on the new link.
fn dial(
    addr: impl ToSocketAddrs + std::fmt::Display,
    rank: usize,
    cfg: &NetConfig,
    stats: &TrafficStats,
) -> Result<Box<dyn Transport>, NetError> {
    let mut link = TcpTransport::connect(addr, cfg)?;
    send_hello(&mut link, rank, stats)?;
    Ok(Box::new(link))
}

/// Every member's links of an `n`-member `shape` over in-process
/// loopback queues: one pair per dial, no hellos.
fn loopback_links(shape: Shape, n: usize) -> Vec<Links> {
    let mut links: Vec<Links> = (0..n).map(|_| Links::default()).collect();
    for rank in 0..n {
        if let Some(to) = shape.dials(rank, n) {
            let (dialer, accepter) = loopback_pair();
            links[rank].dialed = Some(Box::new(dialer));
            links[to].accepted.push(Box::new(accepter));
        }
    }
    links
}

/// Every member's links of an `n`-member `shape` over localhost TCP, all
/// endpoints in this process.
fn tcp_links(shape: Shape, n: usize, stats: &TrafficStats) -> Result<Vec<Links>, NetError> {
    let cfg = NetConfig::default();
    let listeners = (0..n)
        .map(|rank| shape.listen(rank, n, "127.0.0.1:0", &cfg))
        .collect::<Result<Vec<_>, _>>()?;
    // Dial every link first: TCP connects complete against the listener
    // backlog, so no accept has to run concurrently, and the tiny hello
    // frames fit in socket buffers unread.
    let mut dialed = Vec::with_capacity(n);
    for rank in 0..n {
        let to = shape.dials(rank, n).and_then(|to| listeners[to].as_ref());
        dialed.push(
            to.map(|(_, addr)| dial(*addr, rank, &cfg, stats))
                .transpose()?,
        );
    }
    dialed
        .into_iter()
        .zip(&listeners)
        .enumerate()
        .map(|(rank, (dialed, listener))| {
            let accepted = shape.accept_labelled(rank, n, listener.as_ref(), stats)?;
            Ok(Links { dialed, accepted })
        })
        .collect()
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
    fn new(
        rank: usize,
        n: usize,
        next: Box<dyn Transport>,
        prev: Box<dyn Transport>,
        nonblocking: bool,
        stats: Arc<TrafficStats>,
    ) -> Self {
        Self {
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
        }
    }

    /// One phase of `n − 1` steps, each sending a chunk to the successor
    /// and taking one from the predecessor. The scatter starts from the
    /// member's own chunk and folds what it takes into `data`, leaving
    /// chunk `(rank + 1) % n` fully reduced; the gather starts from that
    /// chunk and copies what it takes verbatim.
    fn phase(&mut self, phase: u8, data: &mut [f32]) -> Result<(), NetError> {
        let (len, n) = (data.len(), self.n);
        let start = if phase == COLLECTIVE_SCATTER {
            self.rank
        } else {
            self.rank + 1
        };
        for s in 0..n - 1 {
            let send_idx = (start + n - s) % n;
            let recv_idx = (start + n - s - 1) % n;
            let src = &data[chunk_range(len, n, send_idx)];
            // Header into `frame`; the chunk goes out from `data` itself.
            self.frame.clear();
            let tail = encode_collective_parts(phase, send_idx as u32, src, &mut self.frame);
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
            let frame = expect_chunk(&self.rbuf, phase, recv_idx)?;
            let dst = &mut data[chunk_range(len, n, recv_idx)];
            if phase == COLLECTIVE_SCATTER {
                // One add per element in index order: the bits of decoding
                // the chunk and `kernel::add_assign`-ing it, without the
                // copy.
                frame.add_f32_into(dst)?;
            } else {
                // Gather copies bytes verbatim: decode straight into place.
                frame.read_f32_into(dst)?;
            }
        }
        Ok(())
    }
}

impl Collective for WireRing {
    fn allreduce_mean(&mut self, data: &mut [f32]) -> Result<(), NetError> {
        if self.n == 1 {
            return Ok(());
        }
        self.phase(COLLECTIVE_SCATTER, data)?;
        // Each owner divides its reduced chunk once and the gather copies
        // the quotients verbatim: the bits of scaling the whole vector
        // after the gather, for 1/N of the multiplies.
        let owned = chunk_range(data.len(), self.n, (self.rank + 1) % self.n);
        kernel::scale(&mut data[owned], 1.0 / self.n as f32);
        self.phase(COLLECTIVE_GATHER, data)?;
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

    /// Tree sum: gather raw per-rank vectors to the root, apply the
    /// ring-ordered fold there, broadcast the sum; on return every
    /// member's `data` holds the full sum (no mean). Blocking I/O is
    /// safe here: each phase's communication graph is a DAG.
    fn tree_reduce(&mut self, data: &mut [f32]) -> Result<(), NetError> {
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
            let child_rank = 2 * self.rank + 1 + ci;
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
                // Rank `r`'s slice of chunk `c`: the root's own in `scratch`.
                let input = |r: usize| match r {
                    0 => &self.scratch[range.clone()],
                    r => &self.gathered[r][range.clone()],
                };
                data[range.clone()].copy_from_slice(input(c));
                for j in 1..self.n {
                    kernel::add_assign(&mut data[range.clone()], input((c + j) % self.n));
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
    /// An `n`-member group of `shape` on `mode`, every member in this
    /// process.
    pub fn new(shape: Shape, n: usize, mode: WireMode) -> Result<Self, NetError> {
        assert!(n > 0, "a collective group needs at least one member");
        let stats = Arc::new(TrafficStats::new());
        let links = match mode {
            WireMode::Loopback => loopback_links(shape, n),
            WireMode::Tcp => tcp_links(shape, n, &stats)?,
        };
        let members = links
            .into_iter()
            .enumerate()
            .map(|(rank, l)| shape.member(rank, n, l, mode == WireMode::Tcp, Arc::clone(&stats)))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            group: Mutex::new(Some(CollectiveGroup {
                members,
                stats: Arc::clone(&stats),
            })),
            stats,
        })
    }

    /// A ring group: [`AllReduceBackend::new`] with [`Shape::Ring`].
    pub fn ring(n: usize, mode: WireMode) -> Result<Self, NetError> {
        Self::new(Shape::Ring, n, mode)
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

    fn group(shape: Shape, n: usize, mode: WireMode) -> CollectiveGroup {
        let backend = AllReduceBackend::new(shape, n, mode).unwrap();
        backend.take_collectives(n).unwrap()
    }

    /// `n` distinct localhost addresses nobody listens on: bound all at
    /// once so the OS hands out distinct ports, then released.
    fn free_peers(n: usize) -> Vec<String> {
        let held: Vec<_> = (0..n)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        held.iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect()
    }

    /// Every rank of an `n`-member `shape` joining one shared peer list
    /// from its own thread, as the processes of a multi-process
    /// deployment do.
    fn peers_group(shape: Shape, n: usize) -> CollectiveGroup {
        let peers = free_peers(n);
        let stats = Arc::new(TrafficStats::new());
        let members = on_all(vec![(); n], |rank, ()| {
            shape
                .join(rank, &peers, &NetConfig::default(), Arc::clone(&stats))
                .unwrap()
        });
        CollectiveGroup { members, stats }
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
        // N = 1 included: a lone member of either shape, on every
        // substrate, returns its input (the mean of one).
        for n in [1usize, 2, 3, 4, 5] {
            for len in [8usize, 33, 130] {
                let inputs = adversarial_inputs(n, len);
                let expect = reference_mean(&inputs);
                for (label, group) in [
                    ("loopback ring", group(Shape::Ring, n, WireMode::Loopback)),
                    ("tcp ring", group(Shape::Ring, n, WireMode::Tcp)),
                    ("peers ring", peers_group(Shape::Ring, n)),
                    ("loopback tree", group(Shape::Tree, n, WireMode::Loopback)),
                    ("tcp tree", group(Shape::Tree, n, WireMode::Tcp)),
                    ("peers tree", peers_group(Shape::Tree, n)),
                ] {
                    let out = run_group(group, inputs.clone());
                    assert_all_ranks_bit_equal(&format!("{label} n={n} len={len}"), &out, &expect);
                }
            }
        }
    }

    #[test]
    fn a_rank_joining_twice_fails_its_parents_wiring_by_name() {
        // Tree leaves bind nothing, so two processes started as rank 1
        // (and none as rank 2) both reach the root. Its second hello from
        // rank 1 is refused at wiring, not by the first step's length
        // check; each leaf's own wiring (dial + hello) succeeds.
        let peers = free_peers(3);
        let stats = Arc::new(TrafficStats::new());
        let results = on_all(vec![0usize, 1, 1], |_, rank| {
            Shape::Tree
                .join(rank, &peers, &NetConfig::default(), Arc::clone(&stats))
                .map(drop)
        });
        match &results[0] {
            Err(NetError::Decode(msg)) => assert!(
                msg.contains("rank 0 accepted a second link from rank 1"),
                "{msg}"
            ),
            other => panic!("the root's wiring must refuse the repeat, got {other:?}"),
        }
        assert_eq!(results[1..], [Ok(()), Ok(())]);
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
                let group = group(Shape::Ring, n, WireMode::Loopback);
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
        let group = group(Shape::Ring, 2, WireMode::Loopback);
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
        let mut members = group(Shape::Ring, 3, WireMode::Loopback).members;
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
        let CollectiveGroup { members, stats } = group(Shape::Ring, n, WireMode::Tcp);
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
    fn exchange_ranks(members: Vec<Box<dyn Collective>>) -> Vec<(Vec<u8>, Vec<u8>)> {
        on_all(members, |rank, mut m| {
            let (mut prev, mut next) = (vec![0xee; 3], vec![0xee; 30]);
            m.neighbor_exchange(&[rank as u8; 8], &mut prev, &mut next)
                .unwrap();
            (prev, next)
        })
    }

    #[test]
    fn wire_ring_neighbor_exchange_delivers_both_directions() {
        for (label, n, mode) in [
            ("tcp", 4usize, WireMode::Tcp),
            ("loopback", 3, WireMode::Loopback),
            // N = 1 gossips with itself: both outputs are the payload.
            ("loopback", 1, WireMode::Loopback),
        ] {
            let CollectiveGroup { members, stats } = group(Shape::Ring, n, mode);
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
