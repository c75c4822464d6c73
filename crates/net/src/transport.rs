//! The frame transport: one [`Transport`] trait and one implementation of
//! it, [`FrameStream`], generic over the byte stream under it — a
//! `TcpStream` ([`TcpTransport`]) or one end of an in-process
//! `UnixStream` pair ([`loopback_pair`]).
//!
//! Every link moves *length-prefixed frames* (a `u32` little-endian body
//! length followed by the body — see [`crate::wire`]) through the same
//! code, so the parameter server glue is written once against
//! `Box<dyn Transport>` and runs bit-identically over either stream.
//!
//! A frame crosses a link with one copy per side, the kernel's:
//!
//! - **Receive** is one state machine shared by the blocking and the
//!   polled call: read the 4-byte prefix, bound it by the connection's
//!   inbound limit *before* reserving anything, then read the body
//!   straight into the frame buffer that is handed to the caller by
//!   swapping allocations. A [`Landing`] that asks for it sees the body's
//!   head first and may offer typed storage for the rest, which is then
//!   read straight into that storage instead. Progress survives
//!   [`NetError::Timeout`] and `WouldBlock`, so a poll loop with a short
//!   deadline can never desynchronise the framing; exact-length reads
//!   mean no byte of the next frame is ever taken early, so there is
//!   nothing to shift.
//! - **Send** is two-part ([`Transport::send_parts`]): a small encoded
//!   head plus a borrowed tail go to the socket in one vectored write.
//!   Only what a non-blocking socket refuses is queued — and a refused
//!   [`Tail::F32s`] is queued as the shared snapshot plus an offset, so N
//!   connections behind one snapshot hold N references, not N copies.
//!
//! Every link is a descriptor ([`Transport::fd`]), so an event loop waits
//! for any number of them, of either kind, in one `poll(2)`.

use crate::error::NetError;
use crate::sys::{f32s_as_le_bytes, f32s_as_le_bytes_mut, wake_pair, Poller, WakeRx, Waker};
use crate::wire::{put_f32s, FRAME_PREFIX_BYTES, MAX_FRAME_BYTES};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stream::Stream;

mod stream {
    use std::io;
    use std::net::{Shutdown, TcpStream};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    /// What a [`super::FrameStream`] needs of its byte stream besides
    /// reads and writes through `&S`: four calls `TcpStream` and
    /// `UnixStream` both have under these names. Sealed in this private
    /// module — those two are the only implementors.
    pub trait Stream: AsRawFd + Send + Sized + 'static {
        fn try_clone(&self) -> io::Result<Self>;
        fn shutdown(&self, how: Shutdown) -> io::Result<()>;
        fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
        fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
    }

    macro_rules! forward {
        ($($s:ty),*) => {$(
            impl Stream for $s {
                fn try_clone(&self) -> io::Result<Self> {
                    <$s>::try_clone(self)
                }
                fn shutdown(&self, how: Shutdown) -> io::Result<()> {
                    <$s>::shutdown(self, how)
                }
                fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
                    <$s>::set_read_timeout(self, timeout)
                }
                fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
                    <$s>::set_nonblocking(self, nonblocking)
                }
            }
        )*};
    }
    forward!(TcpStream, UnixStream);
}

/// Process-wide [`Transport::conn_id`] allocator: each connection
/// endpoint constructed in this process gets a distinct id; clones of an
/// endpoint share it.
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

fn next_conn_id() -> u64 {
    NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Connection and I/O policy for the TCP backend.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Maximum connect attempts before giving up with
    /// [`NetError::Connect`].
    pub connect_attempts: u32,
    /// Sleep before the second connect attempt; doubles per attempt
    /// (bounded exponential backoff). Lets workers start before the
    /// server finishes binding in multi-process deployments.
    pub backoff_base: Duration,
    /// Default receive deadline installed on new connections; `None`
    /// blocks forever. Senders always block until the frame is written.
    pub io_timeout: Option<Duration>,
    /// Set `TCP_NODELAY` (on by default: push/pull frames are
    /// latency-sensitive and already batched at the message layer, so
    /// Nagle coalescing only adds round-trip delay).
    pub nodelay: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            connect_attempts: 10,
            backoff_base: Duration::from_millis(20),
            io_timeout: Some(Duration::from_secs(30)),
            nodelay: true,
        }
    }
}

/// Ceiling on any single reconnect backoff sleep, mirroring the connect
/// backoff cap.
pub const RECONNECT_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Client-side auto-reconnect policy: the retry budget of a worker's
/// session with its parameter-server shards (`cdsgd_ps::WorkerSession`),
/// which survives a transient link drop by redialing every shard,
/// re-registering and replaying the unaggregated pushes. Not armed by
/// default: a session without one (or with `retries == 0`) keeps no
/// replay copies and returns a failed request's own error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconnectConfig {
    /// Redial attempts per link drop before the failure becomes fatal.
    pub retries: u32,
    /// Base of the exponential redial backoff: attempt `i` (0-based)
    /// sleeps `backoff << i`, capped at [`RECONNECT_BACKOFF_CAP`].
    pub backoff: Duration,
}

impl Default for ReconnectConfig {
    fn default() -> Self {
        Self {
            retries: 5,
            backoff: Duration::from_millis(50),
        }
    }
}

impl ReconnectConfig {
    /// The bounded-exponential sleep before redial attempt `attempt`
    /// (0-based): `backoff · 2^attempt`, capped at
    /// [`RECONNECT_BACKOFF_CAP`].
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let exp = self
            .backoff
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
        exp.min(RECONNECT_BACKOFF_CAP)
    }
}

/// The borrowed second part of a two-part send
/// ([`Transport::send_parts`]).
#[derive(Clone, Copy)]
pub enum Tail<'a> {
    /// Bytes that are already their own wire encoding.
    Bytes(&'a [u8]),
    /// A shared weight snapshot, sent as little-endian `f32`s. A
    /// transport that has to queue part of it keeps a reference to the
    /// snapshot and an offset instead of copying the remainder.
    F32s(&'a Arc<[f32]>),
}

impl<'a> Tail<'a> {
    /// No second part.
    pub const NONE: Tail<'static> = Tail::Bytes(&[]);

    /// The bytes this tail puts on the wire (borrowed, except for
    /// `F32s` on a big-endian host, where they have to be encoded).
    pub fn bytes(self) -> Cow<'a, [u8]> {
        match self {
            Tail::Bytes(b) => Cow::Borrowed(b),
            Tail::F32s(w) => f32s_as_le_bytes(w).map_or_else(
                || {
                    let mut encoded = Vec::new();
                    put_f32s(&mut encoded, w);
                    Cow::Owned(encoded)
                },
                Cow::Borrowed,
            ),
        }
    }
}

/// Where a received frame lands: what the caller of
/// [`Transport::recv_frame`] / [`Transport::poll_recv_frame`] hands the
/// transport. A plain `Vec<u8>` is a landing that offers nothing: the
/// whole body arrives in it, read exactly as it always was. A landing that
/// knows the protocol can instead take a frame's *bulk* — the run of
/// little-endian `f32`s after a fixed head — into typed storage of its
/// own, which the socket's `read` then fills with no copy in between.
pub trait Landing {
    /// The buffer a finished frame is handed over in, replacing its
    /// contents: the whole body, or only the head when the bulk landed in
    /// storage from [`Landing::land`].
    fn frame(&mut self) -> &mut Vec<u8>;

    /// Body bytes to read before asking [`Landing::land`] for storage; 0
    /// (the default) never asks. A frame no longer than this arrives
    /// whole.
    fn head_len(&self) -> usize {
        0
    }

    /// Storage for the rest of a frame whose first [`Landing::head_len`]
    /// body bytes are `head` and whose other `rest` bytes are still to
    /// come: exactly `rest / 4` `f32`s, filled with those bytes as the
    /// little-endian encoding they are, or `None` to take the whole frame
    /// into [`Landing::frame`] instead. Asked when the head is in and, once
    /// it offered storage, again on every later step of the same frame,
    /// where it must offer the same storage. A transport never asks where
    /// [`crate::sys::f32s_as_le_bytes_mut`] is not a view (big-endian
    /// hosts): there every frame takes the byte path.
    fn land(&mut self, head: &[u8], rest: usize) -> Option<&mut [f32]> {
        let _ = (head, rest);
        None
    }
}

impl Landing for Vec<u8> {
    fn frame(&mut self) -> &mut Vec<u8> {
        self
    }
}

/// Body bytes of a `len`-byte frame to read into the frame buffer before
/// `landing` is asked for the rest: all of them unless it has a head to
/// decide from and the frame is longer than that head.
fn split_at(landing: &dyn Landing, len: usize) -> usize {
    // The big-endian decline: the bulk's bytes are not the f32s there.
    let head = if cfg!(target_endian = "little") {
        landing.head_len()
    } else {
        0
    };
    if head > 0 && len > head {
        head
    } else {
        len
    }
}

/// `storage` (what [`Landing::land`] offered) as the `rest` bytes it must
/// take, or the [`NetError::Decode`] for storage of another size.
fn landing_bytes(storage: &mut [f32], rest: usize) -> Result<&mut [u8], NetError> {
    let offered = 4 * storage.len();
    f32s_as_le_bytes_mut(storage)
        .filter(|b| b.len() == rest)
        .ok_or_else(|| {
            NetError::Decode(format!(
                "landing offered {offered} bytes of storage for a {rest}-byte bulk"
            ))
        })
}

/// A bidirectional, connection-oriented frame transport.
///
/// Implementations are `Send` so one endpoint can be driven from a
/// dedicated thread; [`Transport::try_clone`] produces an independent
/// handle to the *same* connection so reads and writes can run on
/// separate threads (the standard reader-thread / writer-thread split).
/// Receive state and queued output are per-handle: exactly one handle
/// should receive, and exactly one should send in non-blocking mode.
pub trait Transport: Send {
    /// A process-unique identifier for the underlying connection, stable
    /// across [`Transport::try_clone`] — so telemetry can attribute
    /// frame traffic per connection even under a reader/writer split.
    fn conn_id(&self) -> u64;

    /// Send one frame whose body is `head` followed by `tail` (together
    /// at most [`MAX_FRAME_BYTES`]) without first joining them: the bulk
    /// of a push or a pull reply is already its own encoding, so only
    /// the few header bytes in front of it are ever built.
    ///
    /// In blocking mode this returns once the frame is fully written.
    /// In non-blocking mode ([`Transport::set_nonblocking`]) it never
    /// blocks: whatever the peer cannot accept yet stays queued (visible
    /// through [`Transport::pending_out_bytes`] for backpressure
    /// decisions) until a later [`Transport::poll_flush`] drains it.
    fn send_parts(&mut self, head: &[u8], tail: Tail<'_>) -> Result<(), NetError>;

    /// Send one frame: [`Transport::send_parts`] with no tail.
    fn send_frame(&mut self, body: &[u8]) -> Result<(), NetError> {
        self.send_parts(body, Tail::NONE)
    }

    /// Receive one frame into `out` (a `&mut Vec<u8>` takes the whole
    /// body, replacing its contents; a transport may keep the old
    /// allocation for its own reuse and hand back a different one).
    /// Returns [`NetError::Timeout`] if the receive deadline elapses —
    /// partial progress is preserved and the call may simply be retried
    /// with the same landing — [`NetError::Closed`] on clean EOF at a
    /// frame boundary, and [`NetError::Decode`] for a frame longer than
    /// the inbound limit, before anything is reserved for it.
    fn recv_frame(&mut self, out: &mut dyn Landing) -> Result<(), NetError>;

    /// Replace the receive deadline (`None` blocks forever).
    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError>;

    /// Lower the largest inbound frame body this handle accepts from the
    /// global [`MAX_FRAME_BYTES`] to `bytes` — what a server that knows
    /// the largest frame a legitimate peer can send installs, so four
    /// hostile prefix bytes cannot make it reserve a gigabyte.
    fn set_recv_limit(&mut self, bytes: usize);

    /// An independent handle to the same connection, for splitting
    /// send and receive across threads.
    fn try_clone(&self) -> Result<Box<dyn Transport>, NetError>;

    /// Shut the connection down in both directions, for every handle of
    /// it: a receive blocked on another handle returns at once (clean
    /// EOF), and the peer sees EOF after the frames already sent. This
    /// is how an owner ends a read in progress on another handle without
    /// waiting out a timer.
    fn close(&mut self);

    /// Human-readable peer description for error messages.
    fn peer(&self) -> String;

    // --- readiness-polling extension ------------------------------------
    //
    // The methods below let one thread multiplex many connections: none
    // of them ever parks the caller. A transport that supports them is
    // driven by an event loop as a pair of state machines — a read side
    // (`poll_recv_frame`) accumulating bytes until a frame completes,
    // and a write side (`send_parts`/`poll_flush`) draining a bounded
    // internal queue as the peer accepts bytes — and waits on `fd`.

    /// Switch the connection into (or out of) non-blocking mode, where
    /// sends queue what the peer refuses and only
    /// [`Transport::poll_recv_frame`] may receive (a blocking
    /// [`Transport::recv_frame`] would spuriously fail with
    /// [`NetError::Timeout`]).
    fn set_nonblocking(&mut self, nonblocking: bool) -> Result<(), NetError>;

    /// The descriptor an event loop `poll(2)`s for this connection:
    /// readable when a frame may be waiting or the peer hung up, writable
    /// when queued output can move.
    fn fd(&self) -> RawFd;

    /// Non-blocking receive: if a complete frame is available it lands
    /// in `out` and `Ok(true)` is returned; `Ok(false)` means no complete
    /// frame yet — partial progress is kept internally, exactly like a
    /// [`NetError::Timeout`] from [`Transport::recv_frame`]. Clean EOF at
    /// a frame boundary is [`NetError::Closed`].
    fn poll_recv_frame(&mut self, out: &mut dyn Landing) -> Result<bool, NetError>;

    /// Drive previously queued output toward the peer without blocking.
    /// `Ok(true)` when the queue is fully drained.
    fn poll_flush(&mut self) -> Result<bool, NetError>;

    /// Bytes accepted by a non-blocking send but not yet on the wire (a
    /// queued snapshot remainder counts by its bytes). Event loops use
    /// this as the per-connection backpressure signal.
    fn pending_out_bytes(&self) -> usize;
}

// ---------------------------------------------------------------------------
// the one implementation, over any stream
// ---------------------------------------------------------------------------

/// One piece of output a non-blocking socket refused.
enum Queued {
    Bytes(Vec<u8>),
    /// The rest of a [`Tail::F32s`]: the snapshot itself, not a copy.
    /// Only ever queued where [`f32s_as_le_bytes`] is a view.
    F32s(Arc<[f32]>),
}

impl Queued {
    fn bytes(&self) -> &[u8] {
        match self {
            Queued::Bytes(b) => b,
            // Queued only where the view exists (`OutQueue::send`), so
            // the empty default is never what goes out.
            Queued::F32s(w) => f32s_as_le_bytes(w).unwrap_or_default(),
        }
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn wrote_zero() -> NetError {
    NetError::Io("peer accepted zero bytes on write".into())
}

/// `parts` with their first `done` bytes (counted across all of them)
/// dropped — where a vectored write that was cut short resumes.
fn skip(parts: [&[u8]; 3], mut done: usize) -> [&[u8]; 3] {
    parts.map(|p| {
        let k = done.min(p.len());
        done -= k;
        &p[k..]
    })
}

/// The send side of a connection: frames go straight to the writer, and
/// only what it refuses (`WouldBlock`) waits here, in send order. Generic
/// over the writer so the resume arithmetic is testable against a writer
/// that cuts where the test says.
#[derive(Default)]
struct OutQueue {
    chunks: VecDeque<Queued>,
    /// Bytes of the front chunk already written.
    pos: usize,
    /// Bytes still to write across all chunks.
    bytes: usize,
    /// A drained `Queued::Bytes` buffer, kept for the next refusal.
    spare: Vec<u8>,
}

impl OutQueue {
    /// Queue a copy of `bytes` behind whatever is already waiting.
    fn push_bytes(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.bytes += bytes.len();
        if let Some(Queued::Bytes(b)) = self.chunks.back_mut() {
            b.extend_from_slice(bytes);
        } else {
            let mut b = std::mem::take(&mut self.spare);
            b.extend_from_slice(bytes);
            self.chunks.push_back(Queued::Bytes(b));
        }
    }

    /// Send one frame: `prefix`, `head` and `tail` go out in one vectored
    /// write unless earlier output is still queued (frames must not
    /// overtake each other). A blocking writer takes everything; a
    /// non-blocking one stops at `WouldBlock`, and what it refused is
    /// queued — the few prefix/head bytes by copy, a snapshot tail by
    /// reference.
    fn send(&mut self, w: &mut impl Write, head: &[u8], tail: Tail<'_>) -> Result<(), NetError> {
        let tail_bytes = tail.bytes();
        let body_len = head.len() + tail_bytes.len();
        if body_len > MAX_FRAME_BYTES {
            return Err(NetError::Io(format!(
                "refusing to send {body_len}-byte frame over the {MAX_FRAME_BYTES}-byte limit"
            )));
        }
        let prefix = (body_len as u32).to_le_bytes();
        let parts = [&prefix[..], head, &tail_bytes[..]];
        let total = FRAME_PREFIX_BYTES + body_len;
        let mut done = 0;
        while self.chunks.is_empty() && done < total {
            match w.write_vectored(&skip(parts, done).map(IoSlice::new)) {
                Ok(0) => return Err(wrote_zero()),
                Ok(n) => done += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if would_block(&e) => break,
                Err(e) => return Err(e.into()),
            }
        }
        if done == total {
            return Ok(());
        }
        let [prefix_rest, head_rest, tail_rest] = skip(parts, done);
        self.push_bytes(prefix_rest);
        self.push_bytes(head_rest);
        match tail {
            Tail::F32s(w) if !tail_rest.is_empty() && f32s_as_le_bytes(w).is_some() => {
                if self.chunks.is_empty() {
                    // The head went out whole, so this chunk is the
                    // queue's front: resume inside it.
                    self.pos = tail_bytes.len() - tail_rest.len();
                }
                self.bytes += tail_rest.len();
                self.chunks.push_back(Queued::F32s(Arc::clone(w)));
            }
            _ => self.push_bytes(tail_rest),
        }
        Ok(())
    }

    /// Move queued output toward the writer without blocking. `Ok(true)`
    /// when nothing is left.
    fn flush(&mut self, w: &mut impl Write) -> Result<bool, NetError> {
        while let Some(front) = self.chunks.front() {
            let chunk = front.bytes();
            match w.write(&chunk[self.pos..]) {
                Ok(0) => return Err(wrote_zero()),
                Ok(n) => {
                    self.pos += n;
                    self.bytes -= n;
                    if self.pos == chunk.len() {
                        self.pos = 0;
                        if let Some(Queued::Bytes(mut b)) = self.chunks.pop_front() {
                            b.clear();
                            self.spare = b;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if would_block(&e) => return Ok(false),
                Err(e) => return Err(e.into()),
            }
        }
        Ok(true)
    }
}

/// A connection carrying length-prefixed frames over the byte stream `S`
/// — the one [`Transport`] over a real link, whichever stream it is.
pub struct FrameStream<S> {
    stream: S,
    peer: String,
    timeout: Option<Duration>,
    conn: u64,
    /// Receive state machine: the prefix bytes read so far, then the
    /// frame buffer the body — or, when the landing took the bulk, its
    /// first `rsplit` bytes — is read straight into (`rbody.len()` is the
    /// progress), then the bulk bytes landed so far. Survives timeouts so
    /// polling cannot desync the frames.
    rprefix: [u8; FRAME_PREFIX_BYTES],
    rprefix_len: usize,
    rbody: Vec<u8>,
    rsplit: usize,
    rlanded: Option<usize>,
    /// Largest body accepted, checked before `rbody` grows.
    rlimit: usize,
    /// Output the (non-blocking) stream refused.
    out: OutQueue,
}

/// A TCP connection carrying length-prefixed frames.
pub type TcpTransport = FrameStream<TcpStream>;

impl TcpTransport {
    /// Connect to `addr` with bounded retry and exponential backoff.
    pub fn connect<A: ToSocketAddrs + std::fmt::Display>(
        addr: A,
        cfg: &NetConfig,
    ) -> Result<Self, NetError> {
        let addr_s = addr.to_string();
        let sock_addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| NetError::Connect {
                addr: addr_s.clone(),
                attempts: 0,
                last: e.to_string(),
            })?
            .collect();
        let mut last = "no socket addresses resolved".to_string();
        let mut backoff = cfg.backoff_base;
        for attempt in 0..cfg.connect_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(2));
            }
            for sa in &sock_addrs {
                match TcpStream::connect_timeout(sa, cfg.connect_timeout) {
                    Ok(stream) => return Self::from_stream(stream, cfg),
                    Err(e) => last = e.to_string(),
                }
            }
        }
        Err(NetError::Connect {
            addr: addr_s,
            attempts: cfg.connect_attempts.max(1),
            last,
        })
    }

    /// Wrap an accepted or connected stream, applying `cfg`'s socket
    /// options and default receive deadline.
    pub fn from_stream(stream: TcpStream, cfg: &NetConfig) -> Result<Self, NetError> {
        stream.set_nodelay(cfg.nodelay)?;
        stream.set_read_timeout(cfg.io_timeout)?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into());
        Ok(Self::with_stream(
            stream,
            peer,
            cfg.io_timeout,
            next_conn_id(),
        ))
    }
}

/// A connected pair of in-process endpoints: the two ends of a
/// `UnixStream` pair, framed by the same code as a TCP connection. Frames
/// sent on one side arrive on the other in order; once every handle of
/// one side has dropped (or one [`Transport::close`]s), the other sees
/// [`NetError::Closed`]. No receive deadline is installed.
///
/// # Panics
/// If the process has no descriptors left for the pair.
pub fn loopback_pair() -> (FrameStream<UnixStream>, FrameStream<UnixStream>) {
    let (a, b) = UnixStream::pair().expect("create a loopback socket pair");
    let end = |s, peer: &str| FrameStream::with_stream(s, peer.into(), None, next_conn_id());
    (end(a, "loopback:b"), end(b, "loopback:a"))
}

impl<S: Stream> FrameStream<S>
where
    for<'a> &'a S: Read + Write,
{
    fn with_stream(stream: S, peer: String, timeout: Option<Duration>, conn: u64) -> Self {
        Self {
            stream,
            peer,
            timeout,
            conn,
            rprefix: [0; FRAME_PREFIX_BYTES],
            rprefix_len: 0,
            rbody: Vec::new(),
            rsplit: 0,
            rlanded: None,
            rlimit: MAX_FRAME_BYTES,
            out: OutQueue::default(),
        }
    }

    fn closed_mid_frame(&self) -> NetError {
        NetError::Io(format!(
            "peer {} closed mid-frame with {} bytes pending",
            self.peer,
            self.rprefix_len + self.rbody.len() + self.rlanded.unwrap_or(0)
        ))
    }

    /// One step of the receive state machine: at most one read of the
    /// prefix, or reads of the body until it is complete or the stream
    /// has no more — first into the frame buffer up to the landing's
    /// split, then the bulk straight into the storage the landing offered
    /// for it (or, when it offered none, on into the frame buffer).
    /// `Ok(true)` hands the finished frame to `landing`; `Ok(false)` means
    /// call again; `WouldBlock`/`TimedOut` surface as
    /// [`NetError::Timeout`] with all progress kept.
    fn advance(&mut self, landing: &mut dyn Landing) -> Result<bool, NetError> {
        if self.rprefix_len < FRAME_PREFIX_BYTES {
            let n = match (&self.stream).read(&mut self.rprefix[self.rprefix_len..]) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => return Ok(false),
                Err(e) => return Err(e.into()),
            };
            if n == 0 {
                return Err(if self.rprefix_len == 0 {
                    NetError::Closed
                } else {
                    self.closed_mid_frame()
                });
            }
            self.rprefix_len += n;
            if self.rprefix_len < FRAME_PREFIX_BYTES {
                return Ok(false);
            }
            self.rbody.clear();
            self.rsplit = split_at(landing, u32::from_le_bytes(self.rprefix) as usize);
            self.rlanded = None;
        }
        let len = u32::from_le_bytes(self.rprefix) as usize;
        // Checked on every step, not only when the prefix completes: an
        // over-limit prefix must stay an error if the caller retries.
        if len > self.rlimit {
            return Err(NetError::Decode(format!(
                "frame length {len} exceeds the {}-byte limit",
                self.rlimit
            )));
        }
        let missing = self.rsplit - self.rbody.len();
        if missing > 0 {
            // Reserves once per frame (a no-op on later steps). The
            // exact-length reader appends into the reserved space, and
            // what it read before an error stays appended.
            self.rbody.reserve(missing);
            (&self.stream)
                .take(missing as u64)
                .read_to_end(&mut self.rbody)?;
            if self.rbody.len() < self.rsplit {
                return Err(self.closed_mid_frame());
            }
        }
        if self.rsplit < len {
            let rest = len - self.rsplit;
            let Some(storage) = landing.land(&self.rbody, rest) else {
                if self.rlanded.is_some() {
                    return Err(NetError::Decode(
                        "landing withdrew its storage mid-frame".into(),
                    ));
                }
                // Declined: the rest arrives in the frame buffer too.
                self.rsplit = len;
                return Ok(false);
            };
            let bulk = landing_bytes(storage, rest)?;
            let done = self.rlanded.get_or_insert(0);
            while *done < rest {
                match (&self.stream).read(&mut bulk[*done..]) {
                    Ok(0) => return Err(self.closed_mid_frame()),
                    Ok(n) => *done += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        std::mem::swap(landing.frame(), &mut self.rbody);
        self.rprefix_len = 0;
        Ok(true)
    }
}

impl<S: Stream> Transport for FrameStream<S>
where
    for<'a> &'a S: Read + Write,
{
    fn send_parts(&mut self, head: &[u8], tail: Tail<'_>) -> Result<(), NetError> {
        self.out.send(&mut &self.stream, head, tail)
    }

    fn recv_frame(&mut self, out: &mut dyn Landing) -> Result<(), NetError> {
        let deadline = self.timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(d) = deadline {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(NetError::Timeout);
                }
                // set_read_timeout(Some(ZERO)) is an error on all
                // platforms; remaining is non-zero here.
                self.stream.set_read_timeout(Some(remaining))?;
            }
            if self.advance(out)? {
                return Ok(());
            }
        }
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.timeout = timeout;
        // Install it eagerly too, so a blocking recv with no deadline
        // clears any short timeout left by a previous call.
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    fn set_recv_limit(&mut self, bytes: usize) {
        self.rlimit = bytes.min(MAX_FRAME_BYTES);
    }

    fn try_clone(&self) -> Result<Box<dyn Transport>, NetError> {
        // Receive state and queued output are per-handle: exactly one
        // handle should receive, and one poll-send, on a connection.
        let mut clone = Self::with_stream(
            self.stream.try_clone()?,
            self.peer.clone(),
            self.timeout,
            self.conn,
        );
        clone.rlimit = self.rlimit;
        Ok(Box::new(clone))
    }

    fn close(&mut self) {
        // Already-disconnected is the only failure; either way no
        // handle can move another byte.
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn conn_id(&self) -> u64 {
        self.conn
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn set_nonblocking(&mut self, nonblocking: bool) -> Result<(), NetError> {
        self.stream.set_nonblocking(nonblocking)?;
        Ok(())
    }

    fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    fn poll_recv_frame(&mut self, out: &mut dyn Landing) -> Result<bool, NetError> {
        loop {
            match self.advance(out) {
                Ok(true) => return Ok(true),
                Ok(false) => {}
                Err(NetError::Timeout) => return Ok(false),
                Err(e) => return Err(e),
            }
        }
    }

    fn poll_flush(&mut self) -> Result<bool, NetError> {
        self.out.flush(&mut &self.stream)
    }

    fn pending_out_bytes(&self) -> usize {
        self.out.bytes
    }
}

/// A listener producing [`TcpTransport`] connections.
pub struct TcpAcceptor {
    listener: TcpListener,
    cfg: NetConfig,
    /// Wake pipe behind [`TcpAcceptor::closer`]; never drained, so one
    /// wake closes the acceptor for good.
    closer: Waker,
    closed: WakeRx,
}

impl TcpAcceptor {
    /// Bind `addr` (use port 0 for an OS-assigned port) and return the
    /// acceptor plus the actual bound address.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: NetConfig) -> Result<(Self, SocketAddr), NetError> {
        let listener = TcpListener::bind(addr)?;
        // Nonblocking so `accept` waits in `poll(2)`, where a deadline
        // and the closer can end it, instead of parking in `accept(2)`.
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let (closer, closed) = wake_pair()?;
        let acceptor = Self {
            listener,
            cfg,
            closer,
            closed,
        };
        Ok((acceptor, local))
    }

    /// A handle whose [`Waker::wake`] makes the `accept` in progress,
    /// and every later one, return [`NetError::Closed`] at once — how a
    /// server stops its accept thread without waiting out a timer.
    pub fn closer(&self) -> Waker {
        self.closer.clone()
    }

    /// Accept one connection, waiting at most `timeout` for a peer.
    pub fn accept(&self, timeout: Duration) -> Result<TcpTransport, NetError> {
        let deadline = Instant::now() + timeout;
        let mut poller = Poller::new();
        poller.add(self.closed.fd(), false);
        poller.add(self.listener.as_raw_fd(), false);
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // The accepted stream inherits nonblocking from the
                    // listener on some platforms; force blocking mode.
                    stream.set_nonblocking(false)?;
                    return TcpTransport::from_stream(stream, &self.cfg);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e.into()),
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(NetError::Timeout);
            }
            poller.wait(Some(remaining))?;
            if poller.is_ready(0) {
                return Err(NetError::Closed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> NetConfig {
        NetConfig {
            connect_timeout: Duration::from_millis(500),
            connect_attempts: 3,
            backoff_base: Duration::from_millis(5),
            io_timeout: Some(Duration::from_millis(500)),
            nodelay: true,
        }
    }

    #[test]
    fn reconnect_backoff_doubles_and_caps() {
        let rc = ReconnectConfig {
            retries: 8,
            backoff: Duration::from_millis(50),
        };
        assert_eq!(rc.backoff_for(0), Duration::from_millis(50));
        assert_eq!(rc.backoff_for(1), Duration::from_millis(100));
        assert_eq!(rc.backoff_for(3), Duration::from_millis(400));
        assert_eq!(rc.backoff_for(6), RECONNECT_BACKOFF_CAP);
        // Shift overflow saturates instead of wrapping.
        assert_eq!(rc.backoff_for(40), RECONNECT_BACKOFF_CAP);
    }

    /// A connected (client, server) TCP pair, both blocking.
    fn tcp_pair() -> (TcpTransport, TcpTransport) {
        let cfg = fast_cfg();
        let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let client = TcpTransport::connect(addr, &cfg).unwrap();
        let server = acceptor.accept(Duration::from_secs(5)).unwrap();
        (client, server)
    }

    /// Run `$body` once over a connected TCP pair and once over a
    /// loopback pair — one behaviour, both stream kinds — with `$kind`
    /// naming the pair in assertion messages. The first end's raw stream
    /// (`a.stream`) is there to write bytes no frame encoder would.
    macro_rules! over_both {
        (|$kind:ident, $a:pat_param, $b:pat_param| $body:block) => {{
            {
                let ($kind, ($a, $b)) = ("tcp", tcp_pair());
                $body
            }
            {
                let ($kind, ($a, $b)) = ("loopback", loopback_pair());
                $body
            }
        }};
    }

    #[test]
    fn conn_ids_are_distinct_per_endpoint_and_stable_across_clone() {
        over_both!(|kind, a, b| {
            assert_ne!(a.conn_id(), b.conn_id(), "{kind}");
            assert_eq!(a.conn_id(), a.try_clone().unwrap().conn_id(), "{kind}");
        });
    }

    #[test]
    fn frames_round_trip_in_order() {
        let bodies = [&b"first"[..], b"", b"third"];
        over_both!(|kind, mut a, mut b| {
            for body in bodies {
                a.send_frame(body).unwrap();
            }
            // A buffer holding longer stale bytes takes exactly each frame.
            let mut buf = vec![0xee; 100];
            for body in bodies {
                b.recv_frame(&mut buf).unwrap();
                assert_eq!(buf, body, "{kind}");
            }
        });
    }

    #[test]
    fn a_timeout_keeps_partial_frame_state() {
        over_both!(|kind, a, mut b| {
            // The prefix and half the body, then a receive that times out
            // mid-frame: the retry must still finish that frame.
            let mut raw = a.stream.try_clone().unwrap();
            let body = b"split-frame-body";
            raw.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
            raw.write_all(&body[..7]).unwrap();
            b.set_recv_timeout(Some(Duration::from_millis(40))).unwrap();
            let mut buf = Vec::new();
            assert_eq!(b.recv_frame(&mut buf), Err(NetError::Timeout), "{kind}");
            raw.write_all(&body[7..]).unwrap();
            b.recv_frame(&mut buf).unwrap();
            assert_eq!(buf, body, "{kind}");
        });
    }

    #[test]
    fn the_recv_limit_rejects_the_prefix_before_reserving_or_reading_a_body() {
        over_both!(|kind, a, mut b| {
            b.set_recv_limit(1 << 10);
            let mut raw = a.stream.try_clone().unwrap();
            // A frame at the limit passes...
            raw.write_all(&(1u32 << 10).to_le_bytes()).unwrap();
            raw.write_all(&[7u8; 1 << 10]).unwrap();
            let mut out = Vec::new();
            b.recv_frame(&mut out).unwrap();
            assert_eq!(out, [7u8; 1 << 10], "{kind}");
            // ...and four hostile bytes announcing 512 MiB are an error at
            // once — not a timeout waiting for a body, not an allocation.
            raw.write_all(&(512u32 << 20).to_le_bytes()).unwrap();
            for _ in 0..2 {
                assert!(
                    matches!(b.recv_frame(&mut out), Err(NetError::Decode(_))),
                    "{kind}"
                );
                assert!(b.rbody.capacity() <= 1 << 10, "{kind}");
            }
        });
    }

    #[test]
    fn close_wakes_a_reader_blocked_on_a_clone() {
        over_both!(|kind, mut a, _b| {
            let mut reader = a.try_clone().unwrap();
            reader.set_recv_timeout(None).unwrap();
            let blocked = std::thread::spawn(move || reader.recv_frame(&mut Vec::new()));
            a.close();
            assert_eq!(blocked.join().unwrap(), Err(NetError::Closed), "{kind}");
        });
    }

    #[test]
    fn eof_arrives_only_after_every_clone_drops() {
        over_both!(|kind, a, mut b| {
            let mut a2 = a.try_clone().unwrap();
            drop(a);
            a2.send_frame(b"still alive").unwrap();
            let mut buf = Vec::new();
            b.recv_frame(&mut buf).unwrap();
            assert_eq!(buf, b"still alive", "{kind}");
            drop(a2);
            assert_eq!(b.recv_frame(&mut buf), Err(NetError::Closed), "{kind}");
        });
    }

    #[test]
    fn poll_round_trip_without_blocking() {
        over_both!(|kind, mut a, mut b| {
            b.set_nonblocking(true).unwrap();
            let mut buf = Vec::new();
            assert!(
                !b.poll_recv_frame(&mut buf).unwrap(),
                "{kind}: nothing sent"
            );
            a.send_frame(b"ping").unwrap();
            // Poll until the kernel delivers the bytes (bounded spin).
            let deadline = Instant::now() + Duration::from_secs(5);
            while !b.poll_recv_frame(&mut buf).unwrap() {
                assert!(Instant::now() < deadline, "{kind}: frame never arrived");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(buf, b"ping", "{kind}");

            b.send_frame(b"pong").unwrap();
            while !b.poll_flush().unwrap() {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(b.pending_out_bytes(), 0, "{kind}");
            a.recv_frame(&mut buf).unwrap();
            assert_eq!(buf, b"pong", "{kind}");
        });
    }

    #[test]
    fn tcp_poll_send_buffers_under_backpressure_without_losing_bytes() {
        // A peer that never reads: the kernel socket buffer fills and
        // send_frame must queue (not block, not error) until the
        // peer drains. Frames must arrive intact and in order.
        let cfg = fast_cfg();
        let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let handle = std::thread::spawn(move || acceptor.accept(Duration::from_secs(5)).unwrap());
        let mut client = TcpTransport::connect(addr, &cfg).unwrap();
        let mut server = handle.join().unwrap();
        server.set_nonblocking(true).unwrap();

        // Big enough to overwhelm loopback socket buffers.
        let frame = vec![0xabu8; 256 * 1024];
        let frames = 16;
        for _ in 0..frames {
            server.send_frame(&frame).unwrap();
        }
        assert!(
            server.pending_out_bytes() > 0,
            "expected some bytes to queue under backpressure"
        );

        let reader = std::thread::spawn(move || {
            let mut buf = Vec::new();
            for _ in 0..frames {
                client.recv_frame(&mut buf).unwrap();
                assert_eq!(buf.len(), 256 * 1024);
                assert!(buf.iter().all(|&b| b == 0xab));
            }
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !server.poll_flush().unwrap() {
            assert!(Instant::now() < deadline, "flush never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.pending_out_bytes(), 0);
        reader.join().unwrap();
    }

    #[test]
    fn poll_recv_sees_clean_eof_as_closed() {
        over_both!(|kind, a, mut b| {
            b.set_nonblocking(true).unwrap();
            drop(a);
            let mut buf = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match b.poll_recv_frame(&mut buf) {
                    Ok(false) => {
                        assert!(Instant::now() < deadline, "{kind}: EOF never surfaced");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(NetError::Closed) => break,
                    other => panic!("{kind}: expected Closed, got {other:?}"),
                }
            }
        });
    }

    #[test]
    fn tcp_connect_to_dead_port_reports_attempts() {
        // Bind then immediately drop to get a port nothing listens on.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let cfg = NetConfig {
            connect_timeout: Duration::from_millis(200),
            connect_attempts: 2,
            backoff_base: Duration::from_millis(1),
            ..fast_cfg()
        };
        match TcpTransport::connect(format!("127.0.0.1:{port}"), &cfg) {
            Err(NetError::Connect { attempts, .. }) => assert_eq!(attempts, 2),
            Err(other) => panic!("expected Connect error, got {other:?}"),
            Ok(_) => panic!("expected Connect error, got a connection"),
        }
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_before_allocating() {
        let cfg = fast_cfg();
        let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let handle = std::thread::spawn(move || {
            let server = acceptor.accept(Duration::from_secs(5)).unwrap();
            let mut raw = server.stream.try_clone().unwrap();
            raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
            raw.flush().unwrap();
            server
        });
        let mut client = TcpTransport::connect(addr, &cfg).unwrap();
        let mut buf = Vec::new();
        assert!(matches!(
            client.recv_frame(&mut buf),
            Err(NetError::Decode(_))
        ));
        drop(handle.join().unwrap());
    }
    #[test]
    fn tcp_frame_dribbled_one_byte_at_a_time_across_polls() {
        // Every byte of the prefix and the body arrives in its own read:
        // the prefix splits 1+1+1+1, the body wherever the bytes fall.
        let (client, mut server) = tcp_pair();
        server.set_nonblocking(true).unwrap();
        let mut raw = client.stream.try_clone().unwrap();
        let body: Vec<u8> = (0u8..23).collect();
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        let mut out = vec![0xee; 5];
        let deadline = Instant::now() + Duration::from_secs(10);
        for (i, byte) in wire.iter().enumerate() {
            raw.write_all(&[*byte]).unwrap();
            let last = i + 1 == wire.len();
            // Poll until this byte has been taken in (the progress
            // counters are the synchronisation, not a sleep).
            loop {
                let done = server.poll_recv_frame(&mut out).unwrap();
                assert_eq!(
                    done,
                    last && out == body,
                    "frame complete only on the last byte"
                );
                if done || server.rprefix_len + server.rbody.len() == i + 1 {
                    break;
                }
                assert!(Instant::now() < deadline, "byte {i} never arrived");
                std::thread::yield_now();
            }
        }
        assert_eq!(out, body);
        assert!(!server.poll_recv_frame(&mut out).unwrap());
    }

    #[test]
    fn tcp_frames_sharing_a_segment_arrive_in_order_with_nothing_lost() {
        // Three frames — one of them empty — written back to back in one
        // call: exact-length reads must stop at each frame's end.
        let (client, mut server) = tcp_pair();
        let mut raw = client.stream.try_clone().unwrap();
        let mut wire = Vec::new();
        for body in [&b"first"[..], b"", b"third-and-longer"] {
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(body);
        }
        raw.write_all(&wire).unwrap();
        let mut out = vec![0xee; 64];
        for body in [&b"first"[..], b"", b"third-and-longer"] {
            server.recv_frame(&mut out).unwrap();
            assert_eq!(out, body);
        }
        drop((client, raw));
        assert_eq!(server.recv_frame(&mut out), Err(NetError::Closed));
    }

    #[test]
    fn two_part_send_is_the_frame_send_frame_produces() {
        let weights: Arc<[f32]> = vec![1.5f32, -2.25, 0.0, 1.0e-8].into();
        let tail_bytes: Vec<u8> = weights.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut whole = b"head".to_vec();
        whole.extend_from_slice(&tail_bytes);
        over_both!(|kind, mut tx, mut rx| {
            let mut out = Vec::new();
            tx.send_parts(b"head", Tail::Bytes(&tail_bytes)).unwrap();
            rx.recv_frame(&mut out).unwrap();
            assert_eq!(out, whole, "{kind}");
            tx.send_parts(b"head", Tail::F32s(&weights)).unwrap();
            rx.recv_frame(&mut out).unwrap();
            assert_eq!(out, whole, "{kind}");
            tx.send_parts(b"", Tail::NONE).unwrap();
            rx.recv_frame(&mut out).unwrap();
            assert_eq!(out, b"", "{kind}");
        });
    }

    /// A landing that reads `head` bytes first and takes the rest of a
    /// longer frame, when it is whole f32s, into storage of its own
    /// (`extra` more elements than asked for, to offer the wrong size).
    struct Offer {
        frame: Vec<u8>,
        head: usize,
        extra: usize,
        bulk: Option<Vec<f32>>,
    }

    impl Offer {
        fn new(head: usize) -> Self {
            Offer {
                frame: Vec::new(),
                head,
                extra: 0,
                bulk: None,
            }
        }

        /// The finished frame: its buffer, and the bulk's bytes if one
        /// landed (taken, so the next frame starts afresh).
        fn take(&mut self) -> (Vec<u8>, Option<Vec<u8>>) {
            let bulk = self.bulk.take();
            let bytes = bulk.map(|b| b.iter().flat_map(|v| v.to_le_bytes()).collect());
            (self.frame.clone(), bytes)
        }
    }

    impl Landing for Offer {
        fn frame(&mut self) -> &mut Vec<u8> {
            &mut self.frame
        }

        fn head_len(&self) -> usize {
            self.head
        }

        fn land(&mut self, _head: &[u8], rest: usize) -> Option<&mut [f32]> {
            if !rest.is_multiple_of(4) {
                return None;
            }
            let n = rest / 4 + self.extra;
            Some(self.bulk.get_or_insert_with(|| vec![f32::NAN; n]))
        }
    }

    /// Frame bodies around a 13-byte head: none, shorter, exactly the
    /// head, a head and whole f32s (small and socket-buffer sized), and a
    /// head and a bulk that is not whole f32s.
    fn landing_bodies() -> Vec<Vec<u8>> {
        [0usize, 5, 13, 13 + 8, 13 + (1 << 20), 13 + 3]
            .iter()
            .map(|&n| (0..n).map(|i| (i * 7 + n) as u8).collect())
            .collect()
    }

    #[test]
    fn the_landed_receive_is_the_same_over_both_streams() {
        let bodies = landing_bodies();
        let mut got = Vec::new();
        over_both!(|kind, mut tx, mut rx| {
            let mut landed = Vec::new();
            std::thread::scope(|s| {
                // Its own thread: the megabyte frame outgrows a socket
                // buffer nobody reads.
                s.spawn(|| bodies.iter().for_each(|b| tx.send_frame(b).unwrap()));
                for body in &bodies {
                    let mut offer = Offer::new(13);
                    rx.recv_frame(&mut offer).unwrap();
                    let (frame, bulk) = offer.take();
                    // Head plus landed bulk is the frame that was sent.
                    let mut whole = frame.clone();
                    whole.extend_from_slice(bulk.as_deref().unwrap_or_default());
                    assert_eq!(&whole, body, "{kind}");
                    let lands = body.len() > 13 && (body.len() - 13) % 4 == 0;
                    assert_eq!(bulk.is_some(), lands, "{kind}: {}-byte body", body.len());
                    landed.push((frame, bulk));
                }
            });
            got.push(landed);
        });
        assert_eq!(got[0], got[1]);
    }

    #[test]
    fn tcp_bulk_dribbled_across_polls_lands_in_the_offered_storage() {
        let (client, mut server) = tcp_pair();
        server.set_nonblocking(true).unwrap();
        let mut raw = client.stream.try_clone().unwrap();
        let body: Vec<u8> = (0u8..13 + 4 * 6).collect();
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        let mut offer = Offer::new(13);
        let deadline = Instant::now() + Duration::from_secs(10);
        for (i, byte) in wire.iter().enumerate() {
            raw.write_all(&[*byte]).unwrap();
            loop {
                let done = server.poll_recv_frame(&mut offer).unwrap();
                assert_eq!(done, i + 1 == wire.len());
                let progress =
                    server.rprefix_len + server.rbody.len() + server.rlanded.unwrap_or(0);
                if done || progress == i + 1 {
                    break;
                }
                assert!(Instant::now() < deadline, "byte {i} never arrived");
                std::thread::yield_now();
            }
            // The storage is offered once the head is in, never earlier.
            assert_eq!(offer.bulk.is_some(), i + 1 >= 4 + 13);
        }
        assert_eq!(
            offer.take(),
            (body[..13].to_vec(), Some(body[13..].to_vec()))
        );
    }

    #[test]
    fn a_peer_closing_mid_bulk_is_a_mid_frame_error() {
        let (client, mut server) = tcp_pair();
        let mut raw = client.stream.try_clone().unwrap();
        raw.write_all(&(13u32 + 400).to_le_bytes()).unwrap();
        raw.write_all(&[0u8; 13 + 200]).unwrap();
        drop((client, raw));
        match server.recv_frame(&mut Offer::new(13)) {
            Err(NetError::Io(e)) => assert!(e.contains("closed mid-frame with 217 bytes"), "{e}"),
            other => panic!("expected the mid-frame error, got {other:?}"),
        }
    }

    #[test]
    fn storage_of_the_wrong_size_is_a_decode_error() {
        over_both!(|kind, mut tx, mut rx| {
            tx.send_frame(&[0u8; 13 + 8]).unwrap();
            let mut offer = Offer {
                extra: 1,
                ..Offer::new(13)
            };
            assert!(
                matches!(rx.recv_frame(&mut offer), Err(NetError::Decode(_))),
                "{kind}"
            );
        });
    }

    /// A writer that accepts `budget` more bytes, then refuses.
    struct CutWriter {
        budget: usize,
        got: Vec<u8>,
    }

    impl Write for CutWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let before = self.got.len();
            for b in bufs {
                let k = b.len().min(self.budget);
                self.got.extend_from_slice(&b[..k]);
                self.budget -= k;
            }
            Ok(self.got.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    mod cut {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Wherever the vectored write of a two-part send is cut —
            /// inside the prefix, the head or the tail, or exactly on a
            /// boundary — and however the drain is then cut again, the
            /// bytes that reach the writer are the uncut frame, and a
            /// refused snapshot tail is held by reference.
            #[test]
            fn a_cut_two_part_send_resumes_at_the_right_byte(
                head in prop::collection::vec(any::<u8>(), 0..12),
                floats in prop::collection::vec(-4.0f32..4.0, 0..12),
                cut in 0usize..80,
                drain in 1usize..9,
                shared in any::<bool>(),
            ) {
                let weights: Arc<[f32]> = floats.into();
                let tail_bytes: Vec<u8> = weights.iter().flat_map(|v| v.to_le_bytes()).collect();
                let tail = if shared { Tail::F32s(&weights) } else { Tail::Bytes(&tail_bytes) };

                let mut uncut = CutWriter { budget: usize::MAX, got: Vec::new() };
                let mut q = OutQueue::default();
                q.send(&mut uncut, &head, tail).unwrap();
                prop_assert_eq!(q.bytes, 0);
                let frame = uncut.got;
                prop_assert_eq!(frame.len(), FRAME_PREFIX_BYTES + head.len() + tail_bytes.len());

                let mut w = CutWriter { budget: cut, got: Vec::new() };
                let mut q = OutQueue::default();
                q.send(&mut w, &head, tail).unwrap();
                // A second frame queues behind the first's remainder.
                q.send(&mut w, b"next", Tail::NONE).unwrap();
                prop_assert_eq!(q.bytes, (frame.len() + 8).saturating_sub(cut));
                let queued_by_ref = q.chunks.iter().any(|c| matches!(c, Queued::F32s(_)));
                let tail_cut = cut < frame.len() && !tail_bytes.is_empty();
                prop_assert_eq!(
                    queued_by_ref,
                    shared && tail_cut && cfg!(target_endian = "little")
                );
                while q.bytes > 0 {
                    w.budget = drain;
                    q.flush(&mut w).unwrap();
                }
                prop_assert!(q.flush(&mut w).unwrap());
                let mut expected = frame.clone();
                expected.extend_from_slice(&4u32.to_le_bytes());
                expected.extend_from_slice(b"next");
                prop_assert_eq!(w.got, expected);
            }
        }
    }

    #[test]
    fn acceptor_closer_ends_a_parked_accept_at_once_and_for_good() {
        let (acceptor, _addr) = TcpAcceptor::bind("127.0.0.1:0", fast_cfg()).unwrap();
        let closer = acceptor.closer();
        let t0 = Instant::now();
        let parked = std::thread::spawn(move || {
            let first = acceptor.accept(Duration::from_secs(30)).err();
            let second = acceptor.accept(Duration::from_secs(30)).err();
            (first, second)
        });
        closer.wake();
        let (first, second) = parked.join().unwrap();
        assert_eq!(first, Some(NetError::Closed));
        assert_eq!(second, Some(NetError::Closed));
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}
