//! Pluggable byte transports: a TCP backend and an in-memory loopback
//! backend behind one [`Transport`] trait.
//!
//! Both backends move *length-prefixed frames* (a `u32` little-endian body
//! length followed by the body — see [`crate::wire`]), so the parameter
//! server glue is written once against `Box<dyn Transport>` and runs
//! bit-identically over a socket or a pair of in-process queues.
//!
//! The TCP receive path keeps an internal buffer that preserves
//! partial-frame state across [`NetError::Timeout`] returns: a poll loop
//! with a short receive deadline can never desynchronise the framing,
//! because bytes consumed from the socket stay owned by the transport
//! until a whole frame is available.

use crate::error::NetError;
use crate::wire::{FRAME_PREFIX_BYTES, MAX_FRAME_BYTES};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// Client-side auto-reconnect policy: how a worker survives a transient
/// link drop to a parameter-server shard (redial every shard, re-register,
/// replay unaggregated pushes — see `cdsgd-ps`). Never armed by default;
/// a config with `retries == 0` disables reconnection entirely and the
/// fault-free code paths are untouched.
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

/// A bidirectional, connection-oriented frame transport.
///
/// Implementations are `Send` so one endpoint can be driven from a
/// dedicated thread; [`Transport::try_clone`] produces an independent
/// handle to the *same* connection so reads and writes can run on
/// separate threads (the standard reader-thread / writer-thread split).
/// Receive buffers are per-handle: exactly one handle should receive.
pub trait Transport: Send {
    /// A process-unique identifier for the underlying connection, stable
    /// across [`Transport::try_clone`] — so telemetry can attribute
    /// frame traffic per connection even under a reader/writer split.
    fn conn_id(&self) -> u64;

    /// Send one frame (`body` must be at most [`MAX_FRAME_BYTES`]).
    /// Blocks until the frame is fully written.
    fn send_frame(&mut self, body: &[u8]) -> Result<(), NetError>;

    /// Receive one frame body into `out`, replacing its contents (a
    /// transport may keep `out`'s old allocation for its own reuse and
    /// hand back a different one). Returns [`NetError::Timeout`] if the
    /// receive deadline elapses — partial progress is preserved and the
    /// call may simply be retried — and [`NetError::Closed`] on clean
    /// EOF at a frame boundary.
    fn recv_frame(&mut self, out: &mut Vec<u8>) -> Result<(), NetError>;

    /// Replace the receive deadline (`None` blocks forever).
    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError>;

    /// An independent handle to the same connection, for splitting
    /// send and receive across threads.
    fn try_clone(&self) -> Result<Box<dyn Transport>, NetError>;

    /// Human-readable peer description for error messages.
    fn peer(&self) -> String;

    // --- readiness-polling extension ------------------------------------
    //
    // The methods below let one thread multiplex many connections: none
    // of them ever parks the caller. A transport that supports them is
    // driven by an event loop as a pair of state machines — a read side
    // (`poll_recv_frame`) accumulating bytes until a frame completes,
    // and a write side (`poll_send_frame`/`poll_flush`) draining a
    // bounded internal queue as the peer accepts bytes.

    /// Switch the connection into (or out of) non-blocking mode. In
    /// non-blocking mode only the `poll_*` methods below may be used;
    /// the blocking [`Transport::send_frame`]/[`Transport::recv_frame`]
    /// calls would spuriously fail with [`NetError::Timeout`].
    ///
    /// The default is a no-op: queue-backed transports (loopback) never
    /// block on the poll path anyway.
    fn set_nonblocking(&mut self, nonblocking: bool) -> Result<(), NetError> {
        let _ = nonblocking;
        Ok(())
    }

    /// Non-blocking receive: if a complete frame is available it
    /// replaces `out`'s contents and `Ok(true)` is returned;
    /// `Ok(false)` means no complete frame yet — partial progress is
    /// buffered internally, exactly like a [`NetError::Timeout`] from
    /// [`Transport::recv_frame`]. Clean EOF at a frame boundary is
    /// [`NetError::Closed`].
    fn poll_recv_frame(&mut self, out: &mut Vec<u8>) -> Result<bool, NetError> {
        let _ = out;
        Err(NetError::Io(
            "transport does not support non-blocking receive".into(),
        ))
    }

    /// Non-blocking send: queue `body` as one frame and opportunistically
    /// push queued bytes to the peer. Never blocks; bytes the peer cannot
    /// yet accept stay in the internal write buffer (visible through
    /// [`Transport::pending_out_bytes`] for backpressure decisions) until
    /// a later [`Transport::poll_flush`] drains them.
    ///
    /// The default delegates to the blocking [`Transport::send_frame`],
    /// which is correct for transports whose sends never block.
    fn poll_send_frame(&mut self, body: &[u8]) -> Result<(), NetError> {
        self.send_frame(body)
    }

    /// Drive previously queued output toward the peer without blocking.
    /// `Ok(true)` when the write buffer is fully drained.
    fn poll_flush(&mut self) -> Result<bool, NetError> {
        Ok(true)
    }

    /// Bytes accepted by [`Transport::poll_send_frame`] but not yet on
    /// the wire. Event loops use this as the per-connection backpressure
    /// signal.
    fn pending_out_bytes(&self) -> usize {
        0
    }
}

// ---------------------------------------------------------------------------
// TCP backend
// ---------------------------------------------------------------------------

/// A TCP connection carrying length-prefixed frames.
pub struct TcpTransport {
    stream: TcpStream,
    peer: String,
    timeout: Option<Duration>,
    conn: u64,
    /// Bytes read off the socket but not yet returned as a frame.
    /// Survives timeouts so polling cannot desync the frame stream.
    rbuf: Vec<u8>,
    /// Bytes queued by `poll_send_frame` but not yet written; `wpos` is
    /// the drained prefix (compacted once the buffer empties, so the
    /// frame stream never re-sends).
    wbuf: Vec<u8>,
    wpos: usize,
}

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
        Ok(Self {
            stream,
            peer,
            timeout: cfg.io_timeout,
            conn: next_conn_id(),
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
        })
    }

    /// If `rbuf` holds a complete frame, pop it into `out`.
    fn take_buffered_frame(&mut self, out: &mut Vec<u8>) -> Result<bool, NetError> {
        if self.rbuf.len() < FRAME_PREFIX_BYTES {
            return Ok(false);
        }
        let len = u32::from_le_bytes(self.rbuf[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(NetError::Decode(format!(
                "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte limit"
            )));
        }
        if self.rbuf.len() < FRAME_PREFIX_BYTES + len {
            return Ok(false);
        }
        out.clear();
        out.extend_from_slice(&self.rbuf[FRAME_PREFIX_BYTES..FRAME_PREFIX_BYTES + len]);
        self.rbuf.drain(..FRAME_PREFIX_BYTES + len);
        Ok(true)
    }
}

impl Transport for TcpTransport {
    fn send_frame(&mut self, body: &[u8]) -> Result<(), NetError> {
        if body.len() > MAX_FRAME_BYTES {
            return Err(NetError::Io(format!(
                "refusing to send {}-byte frame over the {MAX_FRAME_BYTES}-byte limit",
                body.len()
            )));
        }
        self.stream.write_all(&(body.len() as u32).to_le_bytes())?;
        self.stream.write_all(body)?;
        Ok(())
    }

    fn recv_frame(&mut self, out: &mut Vec<u8>) -> Result<(), NetError> {
        let deadline = self.timeout.map(|t| Instant::now() + t);
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if self.take_buffered_frame(out)? {
                return Ok(());
            }
            if let Some(d) = deadline {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(NetError::Timeout);
                }
                // set_read_timeout(Some(ZERO)) is an error on all
                // platforms; remaining is non-zero here.
                self.stream.set_read_timeout(Some(remaining))?;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.rbuf.is_empty() {
                        Err(NetError::Closed)
                    } else {
                        Err(NetError::Io(format!(
                            "peer {} closed mid-frame with {} bytes pending",
                            self.peer,
                            self.rbuf.len()
                        )))
                    };
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(e.into()),
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

    fn try_clone(&self) -> Result<Box<dyn Transport>, NetError> {
        // Like the receive buffer, the poll write queue is per-handle:
        // exactly one handle should poll-send on a connection.
        Ok(Box::new(Self {
            stream: self.stream.try_clone()?,
            peer: self.peer.clone(),
            timeout: self.timeout,
            conn: self.conn,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
        }))
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

    fn poll_recv_frame(&mut self, out: &mut Vec<u8>) -> Result<bool, NetError> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if self.take_buffered_frame(out)? {
                return Ok(true);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.rbuf.is_empty() {
                        Err(NetError::Closed)
                    } else {
                        Err(NetError::Io(format!(
                            "peer {} closed mid-frame with {} bytes pending",
                            self.peer,
                            self.rbuf.len()
                        )))
                    };
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(false)
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn poll_send_frame(&mut self, body: &[u8]) -> Result<(), NetError> {
        if body.len() > MAX_FRAME_BYTES {
            return Err(NetError::Io(format!(
                "refusing to send {}-byte frame over the {MAX_FRAME_BYTES}-byte limit",
                body.len()
            )));
        }
        self.wbuf
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(body);
        self.poll_flush().map(|_| ())
    }

    fn poll_flush(&mut self) -> Result<bool, NetError> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(NetError::Io(format!(
                        "peer {} accepted zero bytes on write",
                        self.peer
                    )))
                }
                Ok(n) => self.wpos += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(false)
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(true)
    }

    fn pending_out_bytes(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

/// A listener producing [`TcpTransport`] connections.
pub struct TcpAcceptor {
    listener: TcpListener,
    cfg: NetConfig,
}

impl TcpAcceptor {
    /// Bind `addr` (use port 0 for an OS-assigned port) and return the
    /// acceptor plus the actual bound address.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: NetConfig) -> Result<(Self, SocketAddr), NetError> {
        let listener = TcpListener::bind(addr)?;
        // Nonblocking so `accept` can poll against a caller deadline
        // instead of parking forever when a peer never arrives.
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        Ok((Self { listener, cfg }, local))
    }

    /// Accept one connection, polling until `timeout` elapses.
    pub fn accept(&self, timeout: Duration) -> Result<TcpTransport, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // The accepted stream inherits nonblocking from the
                    // listener on some platforms; force blocking mode.
                    stream.set_nonblocking(false)?;
                    return TcpTransport::from_stream(stream, &self.cfg);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(NetError::Timeout);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// in-memory loopback backend
// ---------------------------------------------------------------------------

/// Spare frame buffers one direction of a loopback connection keeps for
/// its sender. A lock-step exchange needs one; the rest absorb bursts.
const MAX_SPARE_FRAMES: usize = 4;

/// One direction of a loopback connection: a condvar-guarded frame queue.
///
/// Built by hand (rather than on channels) because the transport needs
/// `recv_timeout` and multi-handle close semantics, and keeping it local
/// means the loopback path exercises the exact framing contract TCP does.
///
/// Frame buffers change owner instead of being copied: a receive swaps
/// the queued buffer into the caller's `out` and keeps the caller's old
/// buffer as a spare, which the sender's next frame is written into. In
/// steady state a connection therefore copies each frame once (into the
/// queue) and allocates nothing.
struct FrameQueue {
    inner: Mutex<FrameQueueInner>,
    ready: Condvar,
}

struct FrameQueueInner {
    frames: VecDeque<Vec<u8>>,
    /// Buffers handed back by receives, at most [`MAX_SPARE_FRAMES`].
    spares: Vec<Vec<u8>>,
    /// True once every sender handle for this direction has dropped.
    closed: bool,
}

impl FrameQueueInner {
    /// Move the oldest queued frame into `out`, keeping `out`'s previous
    /// buffer as a spare. `false` if no frame is queued.
    fn pop_into(&mut self, out: &mut Vec<u8>) -> bool {
        let Some(frame) = self.frames.pop_front() else {
            return false;
        };
        let old = std::mem::replace(out, frame);
        if old.capacity() > 0 && self.spares.len() < MAX_SPARE_FRAMES {
            self.spares.push(old);
        }
        true
    }
}

impl FrameQueue {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(FrameQueueInner {
                frames: VecDeque::new(),
                spares: Vec::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        })
    }

    /// Queue a copy of `body`, written into a spare buffer when one is
    /// available. The copy runs outside the lock so a polling receiver
    /// is never held up by it.
    fn push(&self, body: &[u8]) -> Result<(), NetError> {
        let mut frame = self.inner.lock().unwrap().spares.pop().unwrap_or_default();
        frame.clear();
        frame.extend_from_slice(body);
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            // The receiving endpoint dropped: mirror a TCP write against
            // a closed socket.
            return Err(NetError::Closed);
        }
        inner.frames.push_back(frame);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking receive into `out` (see [`FrameQueueInner::pop_into`]).
    fn pop(&self, timeout: Option<Duration>, out: &mut Vec<u8>) -> Result<(), NetError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.pop_into(out) {
                return Ok(());
            }
            if inner.closed {
                return Err(NetError::Closed);
            }
            match deadline {
                None => inner = self.ready.wait(inner).unwrap(),
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(NetError::Timeout);
                    }
                    let (guard, _) = self.ready.wait_timeout(inner, remaining).unwrap();
                    inner = guard;
                }
            }
        }
    }

    /// Non-blocking receive: `Ok(true)` if a frame was waiting and is now
    /// in `out`, `Ok(false)` if the queue is empty but open, `Err(Closed)`
    /// once drained *and* closed.
    fn try_pop(&self, out: &mut Vec<u8>) -> Result<bool, NetError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.pop_into(out) {
            return Ok(true);
        }
        if inner.closed {
            return Err(NetError::Closed);
        }
        Ok(false)
    }

    fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

/// Closes a queue when the last handle of the owning endpoint drops, so
/// clone-split endpoints only signal EOF once *all* their handles are
/// gone (matching `TcpStream::try_clone` semantics).
struct CloseOnDrop {
    /// The queue this endpoint *sends* on — closing it is what the peer
    /// observes as EOF.
    send: Arc<FrameQueue>,
    /// The queue this endpoint receives on; closing it too unblocks any
    /// send the peer attempts afterwards.
    recv: Arc<FrameQueue>,
}

impl Drop for CloseOnDrop {
    fn drop(&mut self) {
        self.send.close();
        self.recv.close();
    }
}

/// One endpoint of an in-memory loopback connection.
pub struct LoopbackTransport {
    send: Arc<FrameQueue>,
    recv: Arc<FrameQueue>,
    timeout: Option<Duration>,
    conn: u64,
    _close: Arc<CloseOnDrop>,
    peer: &'static str,
}

/// Create a connected pair of loopback endpoints. Frames sent on one
/// side arrive on the other in order; dropping all handles of one side
/// surfaces as [`NetError::Closed`] on the other.
pub fn loopback_pair() -> (LoopbackTransport, LoopbackTransport) {
    let a_to_b = FrameQueue::new();
    let b_to_a = FrameQueue::new();
    let a = LoopbackTransport {
        send: Arc::clone(&a_to_b),
        recv: Arc::clone(&b_to_a),
        timeout: None,
        conn: next_conn_id(),
        _close: Arc::new(CloseOnDrop {
            send: Arc::clone(&a_to_b),
            recv: Arc::clone(&b_to_a),
        }),
        peer: "loopback:b",
    };
    let b = LoopbackTransport {
        send: Arc::clone(&b_to_a),
        recv: Arc::clone(&a_to_b),
        timeout: None,
        conn: next_conn_id(),
        _close: Arc::new(CloseOnDrop {
            send: b_to_a,
            recv: a_to_b,
        }),
        peer: "loopback:a",
    };
    (a, b)
}

impl Transport for LoopbackTransport {
    fn send_frame(&mut self, body: &[u8]) -> Result<(), NetError> {
        if body.len() > MAX_FRAME_BYTES {
            return Err(NetError::Io(format!(
                "refusing to send {}-byte frame over the {MAX_FRAME_BYTES}-byte limit",
                body.len()
            )));
        }
        self.send.push(body)
    }

    fn recv_frame(&mut self, out: &mut Vec<u8>) -> Result<(), NetError> {
        self.recv.pop(self.timeout, out)
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.timeout = timeout;
        Ok(())
    }

    fn try_clone(&self) -> Result<Box<dyn Transport>, NetError> {
        Ok(Box::new(Self {
            send: Arc::clone(&self.send),
            recv: Arc::clone(&self.recv),
            timeout: self.timeout,
            conn: self.conn,
            _close: Arc::clone(&self._close),
            peer: self.peer,
        }))
    }

    fn conn_id(&self) -> u64 {
        self.conn
    }

    fn peer(&self) -> String {
        self.peer.to_string()
    }

    // Queue pushes never block, so the default `poll_send_frame`
    // (delegating to `send_frame`) and `poll_flush` (always drained) are
    // already correct; only the receive side needs a true poll.
    fn poll_recv_frame(&mut self, out: &mut Vec<u8>) -> Result<bool, NetError> {
        self.recv.try_pop(out)
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

    #[test]
    fn conn_ids_are_distinct_per_endpoint_and_stable_across_clone() {
        let (a, b) = loopback_pair();
        assert_ne!(a.conn_id(), b.conn_id());
        assert_eq!(a.conn_id(), a.try_clone().unwrap().conn_id());

        let cfg = fast_cfg();
        let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let handle = std::thread::spawn(move || acceptor.accept(Duration::from_secs(5)).unwrap());
        let client = TcpTransport::connect(addr, &cfg).unwrap();
        let server = handle.join().unwrap();
        assert_ne!(client.conn_id(), server.conn_id());
        assert_eq!(client.conn_id(), client.try_clone().unwrap().conn_id());
    }

    #[test]
    fn loopback_frames_round_trip_in_order() {
        let (mut a, mut b) = loopback_pair();
        a.send_frame(b"first").unwrap();
        a.send_frame(b"").unwrap();
        a.send_frame(b"third").unwrap();
        let mut buf = Vec::new();
        b.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"first");
        b.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"");
        b.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"third");
    }

    #[test]
    fn loopback_timeout_and_close() {
        let (a, mut b) = loopback_pair();
        b.set_recv_timeout(Some(Duration::from_millis(10))).unwrap();
        let mut buf = Vec::new();
        assert_eq!(b.recv_frame(&mut buf), Err(NetError::Timeout));
        drop(a);
        assert_eq!(b.recv_frame(&mut buf), Err(NetError::Closed));
    }

    #[test]
    fn loopback_clone_keeps_connection_open_until_all_handles_drop() {
        let (a, mut b) = loopback_pair();
        let mut a2 = a.try_clone().unwrap();
        drop(a);
        a2.send_frame(b"still alive").unwrap();
        let mut buf = Vec::new();
        b.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"still alive");
        drop(a2);
        assert_eq!(b.recv_frame(&mut buf), Err(NetError::Closed));
    }

    #[test]
    fn loopback_ping_pong_reuses_its_buffers() {
        // Frames change owner instead of being copied out, so after a
        // warm-up the same few allocations circulate: before every send
        // a spare big enough for the frame is waiting (the send
        // allocates nothing), and every buffer a receive hands over was
        // already seen during warm-up.
        let (mut a, mut b) = loopback_pair();
        let queues = [Arc::clone(&a.send), Arc::clone(&b.send)];
        let body = vec![0x5au8; 1 << 20];
        let (mut at_a, mut at_b) = (Vec::new(), Vec::new());
        let mut exchange = |seen: &mut Vec<*const u8>| {
            a.send_frame(&body).unwrap();
            b.recv_frame(&mut at_b).unwrap();
            b.send_frame(&at_b).unwrap();
            a.recv_frame(&mut at_a).unwrap();
            assert_eq!(at_a, body);
            seen.extend([at_a.as_ptr(), at_b.as_ptr()]);
        };
        let mut warm = Vec::new();
        for _ in 0..3 {
            exchange(&mut warm);
        }
        let mut steady = Vec::new();
        for _ in 0..20 {
            for q in &queues {
                let spares = &q.inner.lock().unwrap().spares;
                assert!(spares.iter().any(|s| s.capacity() >= body.len()));
            }
            exchange(&mut steady);
        }
        assert!(
            steady.iter().all(|p| warm.contains(p)),
            "steady-state exchange allocated a fresh frame buffer"
        );
    }

    #[test]
    fn loopback_spares_are_bounded_when_one_side_only_sends() {
        // The sender never sends again, so nothing drains the spares its
        // peer's receives hand back: the list must stop at its bound
        // instead of keeping every buffer ever received into.
        let (mut a, mut b) = loopback_pair();
        for _ in 0..3 * MAX_SPARE_FRAMES {
            a.send_frame(b"one way").unwrap();
        }
        for _ in 0..3 * MAX_SPARE_FRAMES {
            let mut out = Vec::with_capacity(64);
            b.recv_frame(&mut out).unwrap();
            assert_eq!(out, b"one way");
        }
        assert_eq!(a.send.inner.lock().unwrap().spares.len(), MAX_SPARE_FRAMES);
    }

    #[test]
    fn loopback_recv_replaces_stale_longer_contents() {
        let (mut a, mut b) = loopback_pair();
        let mut out = vec![0xeeu8; 100];
        a.send_frame(b"abc").unwrap();
        b.recv_frame(&mut out).unwrap();
        assert_eq!(out, b"abc");
        // The spare `out` left behind carries its stale bytes into the
        // next send, which must not leak them either.
        let mut out = vec![0xeeu8; 100];
        a.send_frame(b"").unwrap();
        assert!(b.poll_recv_frame(&mut out).unwrap());
        assert_eq!(out, b"");
    }

    #[test]
    fn tcp_round_trip_and_clean_eof() {
        let cfg = fast_cfg();
        let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let handle = std::thread::spawn(move || {
            let mut server = acceptor.accept(Duration::from_secs(5)).unwrap();
            let mut buf = Vec::new();
            server.recv_frame(&mut buf).unwrap();
            server.send_frame(&buf).unwrap();
            // Drop closes the socket: the client sees clean EOF.
        });
        let mut client = TcpTransport::connect(addr, &cfg).unwrap();
        client.send_frame(b"ping").unwrap();
        let mut buf = Vec::new();
        client.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"ping");
        handle.join().unwrap();
        assert_eq!(client.recv_frame(&mut buf), Err(NetError::Closed));
    }

    #[test]
    fn tcp_recv_timeout_preserves_partial_frame_state() {
        let cfg = fast_cfg();
        let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let handle = std::thread::spawn(move || {
            let server = acceptor.accept(Duration::from_secs(5)).unwrap();
            // Write the prefix + half the body, pause past the client's
            // receive deadline, then finish the frame.
            let mut raw = server.stream.try_clone().unwrap();
            let body = b"split-frame-body";
            raw.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
            raw.write_all(&body[..7]).unwrap();
            raw.flush().unwrap();
            std::thread::sleep(Duration::from_millis(120));
            raw.write_all(&body[7..]).unwrap();
            raw.flush().unwrap();
            server
        });
        let mut client = TcpTransport::connect(addr, &cfg).unwrap();
        client
            .set_recv_timeout(Some(Duration::from_millis(40)))
            .unwrap();
        let mut buf = Vec::new();
        // First call times out mid-frame; the retry must still decode the
        // frame correctly from preserved state.
        assert_eq!(client.recv_frame(&mut buf), Err(NetError::Timeout));
        client
            .set_recv_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        client.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"split-frame-body");
        drop(handle.join().unwrap());
    }

    #[test]
    fn loopback_poll_recv_returns_false_when_empty_then_the_frame() {
        let (mut a, mut b) = loopback_pair();
        let mut buf = Vec::new();
        assert!(!b.poll_recv_frame(&mut buf).unwrap());
        a.poll_send_frame(b"polled").unwrap();
        assert_eq!(a.pending_out_bytes(), 0, "loopback sends never queue");
        assert!(b.poll_recv_frame(&mut buf).unwrap());
        assert_eq!(buf, b"polled");
        assert!(!b.poll_recv_frame(&mut buf).unwrap());
        drop(a);
        assert_eq!(b.poll_recv_frame(&mut buf), Err(NetError::Closed));
    }

    #[test]
    fn tcp_poll_round_trip_without_blocking() {
        let cfg = fast_cfg();
        let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let handle = std::thread::spawn(move || acceptor.accept(Duration::from_secs(5)).unwrap());
        let mut client = TcpTransport::connect(addr, &cfg).unwrap();
        let mut server = handle.join().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut buf = Vec::new();
        assert!(
            !server.poll_recv_frame(&mut buf).unwrap(),
            "nothing sent yet"
        );
        client.send_frame(b"ping").unwrap();
        // Poll until the kernel delivers the bytes (bounded spin).
        let deadline = Instant::now() + Duration::from_secs(5);
        while !server.poll_recv_frame(&mut buf).unwrap() {
            assert!(Instant::now() < deadline, "frame never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(buf, b"ping");

        server.poll_send_frame(b"pong").unwrap();
        while !server.poll_flush().unwrap() {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.pending_out_bytes(), 0);
        client.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"pong");
    }

    #[test]
    fn tcp_poll_send_buffers_under_backpressure_without_losing_bytes() {
        // A peer that never reads: the kernel socket buffer fills and
        // poll_send_frame must queue (not block, not error) until the
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
            server.poll_send_frame(&frame).unwrap();
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
    fn tcp_poll_recv_sees_clean_eof_as_closed() {
        let cfg = fast_cfg();
        let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let handle = std::thread::spawn(move || acceptor.accept(Duration::from_secs(5)).unwrap());
        let client = TcpTransport::connect(addr, &cfg).unwrap();
        let mut server = handle.join().unwrap();
        server.set_nonblocking(true).unwrap();
        drop(client);
        let mut buf = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match server.poll_recv_frame(&mut buf) {
                Ok(false) => {
                    assert!(Instant::now() < deadline, "EOF never surfaced");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(NetError::Closed) => break,
                other => panic!("expected Closed, got {other:?}"),
            }
        }
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
}
