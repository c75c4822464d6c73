//! Server-less synchronization: one two-verb [`Collective`] trait, the
//! bandwidth-optimal ring that implements it over [`Transport`] links
//! ([`WireRing`]: `N−1` scatter-reduce steps, then `N−1` all-gather
//! steps, every member sending `2·(N−1)/N` of the vector; the same two
//! links carry decentralized neighbor gossip), and the [`PsBackend`]
//! adapter ([`AllReduceBackend`]) that lets `Trainer::run_with` drive a
//! server-less run with the same update strategies it uses against a
//! parameter server.
//!
//! Every member dials its successor and accepts its predecessor. One
//! builder per substrate yields each member's `(next, prev)` links —
//! loopback socket pairs inside one process, localhost TCP inside one
//! process ([`AllReduceBackend::ring`]), or one rank of a multi-process
//! group joining a shared peer list ([`WireRing::join`]) — and the two
//! TCP substrates share one dial (connect + rank hello) and one labelled
//! accept. Every substrate then runs one step loop: a step that cannot
//! finish at once yields its CPU between looks for its first
//! millisecond, then sleeps in `poll(2)` on its links' descriptors.
//!
//! # Reduction-order contract
//!
//! Like `kernel::dot`'s striped-order contract, the summation order is
//! **pinned** so results are bit-identical across ranks and substrates:
//!
//! * chunk `c` (boundaries from [`chunk_range`]) accumulates in ring
//!   order starting at rank `c`: `((x_c + x_{c+1}) + x_{c+2}) + …
//!   + x_{c+N−1}` (ranks mod `N`, one `+` per scatter step);
//! * the all-gather phase copies the reduced chunks verbatim, so every
//!   rank ends with the same bits;
//! * the mean is one elementwise multiply of the finished sum by `1/N`,
//!   done once by a chunk's owner before the gather copies the quotients.
//!
//! Every fold is elementwise (one IEEE add per element, no
//! reassociation): the ring adds each received chunk straight from its
//! frame, with the bits of `kernel::add_assign`, whose SIMD and scalar
//! twins are elementwise too — so the contract holds under
//! `CDSGD_FORCE_SCALAR=0/1` alike. Wire frames carry little-endian f32
//! (exact round trip). [`ring_ordered_sum`] is the executable statement
//! of the contract; tests pin the ring against it bit for bit.
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
    decode_collective, encode_collective_bytes_into, encode_collective_parts, loopback_pair,
    NetConfig, NetError, Poller, Tail, TcpAcceptor, TcpTransport, Transport, COLLECTIVE_EXCHANGE,
    COLLECTIVE_GATHER, COLLECTIVE_HEADER_BYTES, COLLECTIVE_HELLO, COLLECTIVE_SCATTER,
    FRAME_PREFIX_BYTES, MAX_FRAME_BYTES,
};
use cdsgd_tensor::kernel;
use std::net::ToSocketAddrs;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a member waits for a peer's frame (or accept) before the
/// collective fails with [`NetError::Timeout`] instead of hanging.
const STEP_TIMEOUT: Duration = Duration::from_secs(30);

/// How long into a step a member waits awake, yielding its CPU between
/// looks, before it sleeps in `poll(2)`. Most steps wait on a neighbour a
/// few microseconds behind, and a thread that sleeps for such a wait can
/// lose its CPU for far longer on a shared host (on the 2-vCPU TCP ring
/// workload, sleeping at once cost 3–33 % of throughput). Yielding, not
/// busy-polling, keeps the window free for a neighbour that shares the
/// CPU (a 4-member loopback ring on 2 CPUs ran 40× slower when the window
/// polled without yielding).
const SPIN: Duration = Duration::from_millis(1);

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
    /// and substrates (the reduction-order contract).
    fn allreduce_mean(&mut self, data: &mut [f32]) -> Result<(), NetError>;

    /// Ring gossip: send an opaque byte payload to both ring neighbors;
    /// `from_prev`/`from_next` are overwritten with the payloads of ranks
    /// `rank ∓ 1`.
    fn neighbor_exchange(
        &mut self,
        send: &[u8],
        from_prev: &mut Vec<u8>,
        from_next: &mut Vec<u8>,
    ) -> Result<(), NetError>;
}

// ---------------------------------------------------------------------------
// wire-link plumbing
// ---------------------------------------------------------------------------

/// One link's part in a collective step: optionally a frame to write
/// (as the head and borrowed tail of a two-part send) and optionally a
/// buffer expecting one inbound frame.
struct LinkIo<'a> {
    link: &'a mut dyn Transport,
    send: Option<(&'a [u8], &'a [u8])>,
    recv: Option<&'a mut Vec<u8>>,
}

/// One full-duplex step over a member's two links: write every pending
/// frame and read one frame into every expecting buffer, without any
/// global send/receive ordering across the group. A send writes what the
/// link takes and queues the rest, and both directions are pumped
/// together, so a full socket buffer on the send side can never deadlock
/// against a peer doing the same. While the step is unfinished it yields
/// between looks for the first [`SPIN`] of the step, then sleeps in
/// `poll(2)` until the step deadline, on the descriptor of every link
/// that still has a send or a receive pending.
fn duplex_step(
    stats: &TrafficStats,
    poller: &mut Poller,
    mut links: [LinkIo<'_>; 2],
) -> Result<(), NetError> {
    for l in &mut links {
        if let Some((head, tail)) = l.send {
            let frame = FRAME_PREFIX_BYTES + head.len() + tail.len();
            stats.record_sent(l.link.conn_id(), frame);
            l.link.send_parts(head, Tail::Bytes(tail))?;
        }
    }
    let start = Instant::now();
    let (spin_end, deadline) = (start + SPIN, start + STEP_TIMEOUT);
    let mut flushed = links.each_ref().map(|l| l.send.is_none());
    let mut got = links.each_ref().map(|l| l.recv.is_none());
    loop {
        for (i, l) in links.iter_mut().enumerate() {
            if !flushed[i] {
                flushed[i] = l.link.poll_flush()?;
            }
            if let Some(out) = l.recv.as_deref_mut().filter(|_| !got[i]) {
                got[i] = l.link.poll_recv_frame(out)?;
                if got[i] {
                    stats.record_received(l.link.conn_id(), FRAME_PREFIX_BYTES + out.len());
                }
            }
        }
        if flushed == [true; 2] && got == [true; 2] {
            return Ok(());
        }
        let now = Instant::now();
        if now < spin_end {
            std::thread::yield_now();
            continue;
        }
        let remaining = deadline.saturating_duration_since(now);
        if remaining.is_zero() {
            return Err(NetError::Timeout);
        }
        poller.clear();
        for (i, l) in links.iter().enumerate() {
            if !(flushed[i] && got[i]) {
                poller.add(l.link.fd(), !flushed[i]);
            }
        }
        poller.wait(Some(remaining))?;
    }
}

/// First frame on every TCP collective link: announce the sender's rank
/// so the accepting member can check who dialed it.
fn send_hello(link: &mut dyn Transport, rank: usize, stats: &TrafficStats) -> Result<(), NetError> {
    let mut buf = Vec::with_capacity(16);
    encode_collective_bytes_into(COLLECTIVE_HELLO, rank as u32, &[], &mut buf);
    stats.record_sent(link.conn_id(), FRAME_PREFIX_BYTES + buf.len());
    link.send_frame(&buf)
}

fn recv_hello(link: &mut dyn Transport, stats: &TrafficStats) -> Result<usize, NetError> {
    let mut buf = Vec::with_capacity(16);
    link.recv_frame(&mut buf)?;
    stats.record_received(link.conn_id(), FRAME_PREFIX_BYTES + buf.len());
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
// the link builders
// ---------------------------------------------------------------------------

/// One member's wired links: `(next, prev)`, to ranks `rank ± 1 (mod n)`.
type Links = (Box<dyn Transport>, Box<dyn Transport>);

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

/// Accept the one link `rank` takes: its predecessor's. A hello from any
/// other rank is a wiring error naming both, so a process whose peer list
/// or rank disagrees with the group's fails at wiring, not at the first
/// step.
fn accept_prev(
    acceptor: &TcpAcceptor,
    rank: usize,
    n: usize,
    stats: &TrafficStats,
) -> Result<Box<dyn Transport>, NetError> {
    let prev = (rank + n - 1) % n;
    let mut link = acceptor.accept(STEP_TIMEOUT)?;
    let hello = recv_hello(&mut link, stats)?;
    if hello != prev {
        return Err(NetError::Decode(format!(
            "ring wiring error: rank {rank} accepted a link from rank {hello}, \
             want one from rank {prev}"
        )));
    }
    Ok(Box::new(link))
}

/// Every member's links of an `n`-member ring over in-process loopback
/// socket pairs: one pair per link, no hellos.
fn loopback_links(n: usize) -> Vec<Links> {
    let (next, mut prev): (Vec<_>, Vec<_>) = (0..n).map(|_| loopback_pair()).unzip();
    // Pair `r` joins rank `r` to `r + 1`, so rank `r`'s `prev` is the
    // accepting end of pair `r − 1`.
    prev.rotate_right(1);
    next.into_iter()
        .zip(prev)
        .map(|(next, prev)| (Box::new(next) as _, Box::new(prev) as _))
        .collect()
}

/// Every member's links of an `n`-member ring over localhost TCP, all
/// endpoints in this process.
fn tcp_links(n: usize, stats: &TrafficStats) -> Result<Vec<Links>, NetError> {
    let cfg = NetConfig::default();
    let listeners = (0..n)
        .map(|_| TcpAcceptor::bind("127.0.0.1:0", cfg.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    // Dial every link first: TCP connects complete against the listener
    // backlog, so no accept has to run concurrently, and the tiny hello
    // frames fit in socket buffers unread.
    let next = (0..n)
        .map(|rank| dial(listeners[(rank + 1) % n].1, rank, &cfg, stats))
        .collect::<Result<Vec<_>, _>>()?;
    let prev = (0..n)
        .map(|rank| accept_prev(&listeners[rank].0, rank, n, stats))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(next.into_iter().zip(prev).collect())
}

// ---------------------------------------------------------------------------
// ring all-reduce over Transport
// ---------------------------------------------------------------------------

/// A member of the two-phase, order-pinned ring all-reduce. Its neighbor
/// links are [`Transport`]s: each chunk travels as a length-prefixed
/// collective frame over a loopback socket pair or TCP. Both links are
/// bidirectional, so the same member also serves
/// [`Collective::neighbor_exchange`] for decentralized training.
///
/// A dead neighbor surfaces as [`NetError::Closed`] from the next
/// operation — a read at its EOF or reset, or a write into its broken
/// pipe — never a panic or a wait for the step timeout.
pub struct WireRing {
    rank: usize,
    n: usize,
    /// Link to rank `(rank + 1) % n`; all-reduce chunks go out here.
    next: Box<dyn Transport>,
    /// Link to rank `(rank − 1) % n`; all-reduce chunks come in here.
    prev: Box<dyn Transport>,
    poller: Poller,
    stats: Arc<TrafficStats>,
    frame: Vec<u8>,
    rbuf: Vec<u8>,
    rbuf2: Vec<u8>,
}

impl WireRing {
    /// Join an `n`-member ring as `rank`, where `n = peers.len()` and the
    /// other ranks are other processes doing the same: bind
    /// `peers[rank]`, dial the successor, accept the predecessor. Every
    /// process must list the same `peers` in the same order.
    pub fn join(
        rank: usize,
        peers: &[String],
        cfg: &NetConfig,
        stats: Arc<TrafficStats>,
    ) -> Result<Self, NetError> {
        let n = peers.len();
        assert!(rank < n, "rank {rank} outside peer list of {n}");
        let (acceptor, _) = TcpAcceptor::bind(peers[rank].as_str(), cfg.clone())?;
        let next = dial(peers[(rank + 1) % n].as_str(), rank, cfg, &stats)?;
        let prev = accept_prev(&acceptor, rank, n, &stats)?;
        Self::new(rank, n, (next, prev), stats)
    }

    /// Put both links in the polled mode [`duplex_step`] pumps.
    fn new(
        rank: usize,
        n: usize,
        (mut next, mut prev): Links,
        stats: Arc<TrafficStats>,
    ) -> Result<Self, NetError> {
        next.set_nonblocking(true)?;
        prev.set_nonblocking(true)?;
        Ok(Self {
            rank,
            n,
            next,
            prev,
            poller: Poller::new(),
            stats,
            frame: Vec::new(),
            rbuf: Vec::new(),
            rbuf2: Vec::new(),
        })
    }

    /// One phase of `n − 1` steps, each sending a chunk to the successor
    /// and taking one from the predecessor. The scatter starts from the
    /// member's own chunk and folds what it takes into `data`, leaving
    /// chunk `(rank + 1) % n` fully reduced; the gather starts from that
    /// chunk and copies what it takes verbatim.
    fn phase(&mut self, phase: u8, data: &mut [f32]) -> Result<(), NetError> {
        let (len, n) = (data.len(), self.n);
        // No chunk is longer than `⌈len / n⌉` elements, so neither is any
        // frame a legitimate predecessor sends: a longer prefix is refused
        // before anything is reserved for it.
        self.prev
            .set_recv_limit(COLLECTIVE_HEADER_BYTES + 4 * len.div_ceil(n));
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
                &mut self.poller,
                [
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
        self.stats.record_push(send.len());
        self.stats.record_push(send.len());
        // An exchange payload's size is whatever the codec made of the
        // neighbours' state, not a chunk's: both links take up to the
        // global limit again (an all-reduce bounds `prev` per phase).
        self.next.set_recv_limit(MAX_FRAME_BYTES);
        self.prev.set_recv_limit(MAX_FRAME_BYTES);
        // Both links are bidirectional: send the one frame to the
        // successor on `next` and to the predecessor back along `prev`,
        // then collect both.
        duplex_step(
            &self.stats,
            &mut self.poller,
            [
                LinkIo {
                    link: self.next.as_mut(),
                    send: Some((&self.frame, &[])),
                    recv: Some(&mut self.rbuf2),
                },
                LinkIo {
                    link: self.prev.as_mut(),
                    send: Some((&self.frame, &[])),
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
    /// In-process loopback socket pairs ([`loopback_pair`]) — the frames
    /// and code of TCP, no network stack.
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

/// The server-less [`PsBackend`]: workers synchronize through a ring of
/// [`Collective`] handles — all-reduce for AR-SGD, neighbor gossip for
/// the decentralized topology — instead of pushing to a parameter
/// server. The trainer obtains the per-worker handles through
/// [`PsBackend::take_collectives`]; there is no server, so `client()`
/// and `snapshot()` answer with an error.
pub struct AllReduceBackend {
    /// Surrendered to the trainer exactly once.
    group: Mutex<Option<CollectiveGroup>>,
    stats: Arc<TrafficStats>,
}

impl AllReduceBackend {
    /// An `n`-member ring on `mode`, every member in this process.
    pub fn ring(n: usize, mode: WireMode) -> Result<Self, NetError> {
        assert!(n > 0, "a collective group needs at least one member");
        let stats = Arc::new(TrafficStats::new());
        let links = match mode {
            WireMode::Loopback => loopback_links(n),
            WireMode::Tcp => tcp_links(n, &stats)?,
        };
        let members = links
            .into_iter()
            .enumerate()
            .map(|(rank, l)| {
                let member = WireRing::new(rank, n, l, Arc::clone(&stats))?;
                Ok(Box::new(member) as Box<dyn Collective>)
            })
            .collect::<Result<_, NetError>>()?;
        Ok(Self {
            group: Mutex::new(Some(CollectiveGroup {
                members,
                stats: Arc::clone(&stats),
            })),
            stats,
        })
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
    use cdsgd_net::encode_collective_into;

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

    fn group(n: usize, mode: WireMode) -> CollectiveGroup {
        let backend = AllReduceBackend::ring(n, mode).unwrap();
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

    /// Every rank of an `n`-member ring joining one shared peer list
    /// from its own thread, as the processes of a multi-process
    /// deployment do.
    fn peers_group(n: usize) -> CollectiveGroup {
        let peers = free_peers(n);
        let stats = Arc::new(TrafficStats::new());
        let members = on_all(vec![(); n], |rank, ()| {
            let member = WireRing::join(rank, &peers, &NetConfig::default(), Arc::clone(&stats));
            Box::new(member.unwrap()) as Box<dyn Collective>
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
        // N = 1 included: a lone member, on every substrate, returns its
        // input (the mean of one).
        for n in [1usize, 2, 3, 4, 5] {
            for len in [8usize, 33, 130] {
                let inputs = adversarial_inputs(n, len);
                let expect = reference_mean(&inputs);
                for (label, group) in [
                    ("loopback ring", group(n, WireMode::Loopback)),
                    ("tcp ring", group(n, WireMode::Tcp)),
                    ("peers ring", peers_group(n)),
                ] {
                    let out = run_group(group, inputs.clone());
                    assert_all_ranks_bit_equal(&format!("{label} n={n} len={len}"), &out, &expect);
                }
            }
        }
    }

    #[test]
    fn a_stranger_dialing_a_ring_member_fails_its_wiring_by_name() {
        // Rank 0 of three takes one link, from rank 2. A process that
        // dials it announcing rank 1 (started with the wrong `--id`, say)
        // is refused at wiring, by name, not by the first step's checks.
        let peers = free_peers(3);
        // Rank 0's successor: a bare listener, so its dial completes
        // against the backlog.
        let _successor = std::net::TcpListener::bind(&peers[1]).unwrap();
        let stats = Arc::new(TrafficStats::new());
        let joined = std::thread::scope(|s| {
            let member = s.spawn(|| {
                WireRing::join(0, &peers, &NetConfig::default(), Arc::clone(&stats)).map(drop)
            });
            let _stranger = dial(peers[0].as_str(), 1, &NetConfig::default(), &stats).unwrap();
            member.join().unwrap()
        });
        match joined {
            Err(NetError::Decode(msg)) => assert!(
                msg.contains("rank 0 accepted a link from rank 1, want one from rank 2"),
                "{msg}"
            ),
            other => panic!("rank 0's wiring must refuse the stranger, got {other:?}"),
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
                let group = group(n, WireMode::Loopback);
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
        let group = group(2, WireMode::Loopback);
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
        for mode in [WireMode::Loopback, WireMode::Tcp] {
            let mut members = group(3, mode).members;
            drop(members.remove(1));
            let t0 = Instant::now();
            let results = on_all(members, |_, mut m| m.allreduce_mean(&mut [1.0f32; 12]));
            // Rank 2 reads from the dead rank: EOF at a frame boundary —
            // unless rank 0 failed first and closed its link, and a Unix
            // socket refuses rank 2's send to it at once with a broken
            // pipe (a TCP socket takes that first write). Rank 0 writes to
            // the dead rank: a socket may take the first chunk and refuse
            // a later one, unless rank 2's own exit closes its read side
            // first. Every one of those is the peer gone: `Closed`.
            for (rank, result) in [(2, &results[1]), (0, &results[0])] {
                assert_eq!(result, &Err(NetError::Closed), "{mode:?}: rank {rank}");
            }
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "{mode:?}: a dead neighbour must not cost the {STEP_TIMEOUT:?} step timeout"
            );
        }
    }

    #[test]
    fn a_predecessor_announcing_an_oversized_chunk_fails_the_step_at_its_prefix() {
        use std::io::Write;
        // Rank 0 of two: its successor is a loopback end nobody reads (a
        // chunk fits in the socket buffer unread), its predecessor a raw
        // socket that sends four bytes announcing a 512 MiB body and
        // nothing else. A link that trusted the prefix would reserve the
        // body and wait the step timeout for it; a bounded one refuses
        // the prefix, before the transport reserves anything.
        let (next, _successor) = loopback_pair();
        let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", NetConfig::default()).unwrap();
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        let prev = acceptor.accept(STEP_TIMEOUT).unwrap();
        let links: Links = (Box::new(next), Box::new(prev));
        let mut member = WireRing::new(0, 2, links, Arc::new(TrafficStats::new())).unwrap();
        raw.write_all(&(512u32 << 20).to_le_bytes()).unwrap();
        let t0 = Instant::now();
        let got = member.allreduce_mean(&mut [1.0f32; 8]);
        assert!(matches!(got, Err(NetError::Decode(_))), "{got:?}");
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    }

    /// CPU time the calling thread has used so far: utime + stime from
    /// `/proc/thread-self/stat`, in ticks of `USER_HZ` (100 on Linux).
    #[cfg(target_os = "linux")]
    fn thread_cpu_time() -> Duration {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
        let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
        Duration::from_millis(10 * ticks)
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_member_waiting_for_a_late_peer_sleeps_instead_of_spinning() {
        let late = Duration::from_millis(500);
        for mode in [WireMode::Loopback, WireMode::Tcp] {
            let waits = on_all(group(2, mode).members, |rank, mut m| {
                if rank == 1 {
                    std::thread::sleep(late);
                }
                let (cpu0, t0) = (thread_cpu_time(), Instant::now());
                m.allreduce_mean(&mut [1.0f32; 64]).unwrap();
                (thread_cpu_time() - cpu0, t0.elapsed())
            });
            let (cpu, waited) = waits[0];
            assert!(
                waited >= late / 2,
                "{mode:?}: rank 0 waited only {waited:?}"
            );
            assert!(
                cpu <= waited / 5,
                "{mode:?}: rank 0 burned {cpu:?} of CPU in a {waited:?} wait"
            );
        }
    }

    #[test]
    fn wire_ring_traffic_is_bandwidth_optimal_and_balanced() {
        let n = 4usize;
        let len = 1024usize;
        let rounds = 3usize;
        let CollectiveGroup { members, stats } = group(n, WireMode::Tcp);
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
            let CollectiveGroup { members, stats } = group(n, mode);
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
