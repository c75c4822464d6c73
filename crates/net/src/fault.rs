//! Deterministic fault injection at the transport layer.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and executes a scripted
//! [`FaultPlan`]: drop the connection after a fixed number of frames,
//! or delay every frame by a fixed amount. The script is counted in
//! frames, which are deterministic for a given training configuration
//! (a worker sends exactly `num_keys` push frames plus `num_keys` pull
//! requests per round), so every failure path is reproducible in tests —
//! no sleeps, races, or real packet loss required.
//!
//! Cloned handles ([`Transport::try_clone`]) share the same fault state:
//! once the scripted kill fires, every handle of the connection reports
//! [`NetError::Closed`], exactly like a real socket torn down under a
//! reader/writer split. A kill is *silent* on purpose — the peer is not
//! notified, which is the failure mode a server-side round deadline
//! exists to catch.

use crate::error::NetError;
use crate::transport::{Landing, Tail, Transport};
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A scripted sequence of transport faults. The default plan injects
/// nothing; builder methods arm individual faults.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    kill_after_sends: Option<u64>,
    kill_after_recvs: Option<u64>,
    send_delay: Option<Duration>,
    recv_delay: Option<Duration>,
}

impl FaultPlan {
    /// A plan that injects no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Let `n` frames be sent, then fail the connection: send `n + 1`
    /// (and everything after, on every handle) returns
    /// [`NetError::Closed`].
    pub fn kill_after_sends(mut self, n: u64) -> Self {
        self.kill_after_sends = Some(n);
        self
    }

    /// Let `n` frames be received, then fail the connection.
    pub fn kill_after_recvs(mut self, n: u64) -> Self {
        self.kill_after_recvs = Some(n);
        self
    }

    /// Sleep `d` before every sent frame (an injected slow link).
    pub fn delay_sends(mut self, d: Duration) -> Self {
        self.send_delay = Some(d);
        self
    }

    /// Sleep `d` before every received frame.
    pub fn delay_recvs(mut self, d: Duration) -> Self {
        self.recv_delay = Some(d);
        self
    }
}

/// Counters shared by every handle of one faulty connection.
#[derive(Default)]
struct FaultState {
    sends: AtomicU64,
    recvs: AtomicU64,
    dead: AtomicBool,
}

/// A [`Transport`] that executes a [`FaultPlan`] on top of an inner
/// transport.
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    plan: FaultPlan,
    state: Arc<FaultState>,
}

impl FaultyTransport {
    /// Wrap `inner` with the scripted `plan`.
    pub fn new(inner: Box<dyn Transport>, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            state: Arc::new(FaultState::default()),
        }
    }

    fn check_dead(&self) -> Result<(), NetError> {
        if self.state.dead.load(Ordering::SeqCst) {
            Err(NetError::Closed)
        } else {
            Ok(())
        }
    }

    /// Count one frame in `counter`; trip the kill switch when the plan's
    /// `limit` is reached.
    fn count(&self, counter: &AtomicU64, limit: Option<u64>) -> Result<(), NetError> {
        let n = counter.fetch_add(1, Ordering::SeqCst);
        if let Some(limit) = limit {
            if n >= limit {
                self.state.dead.store(true, Ordering::SeqCst);
                return Err(NetError::Closed);
            }
        }
        Ok(())
    }
}

impl Transport for FaultyTransport {
    /// One frame, one send against the plan, however many parts it
    /// travels in and whether the inner transport blocks or queues.
    fn send_parts(&mut self, head: &[u8], tail: Tail<'_>) -> Result<(), NetError> {
        self.check_dead()?;
        if let Some(d) = self.plan.send_delay {
            std::thread::sleep(d);
        }
        self.count(&self.state.sends, self.plan.kill_after_sends)?;
        self.inner.send_parts(head, tail)
    }

    fn recv_frame(&mut self, out: &mut dyn Landing) -> Result<(), NetError> {
        self.check_dead()?;
        if let Some(d) = self.plan.recv_delay {
            std::thread::sleep(d);
        }
        self.count(&self.state.recvs, self.plan.kill_after_recvs)?;
        self.inner.recv_frame(out)
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.inner.set_recv_timeout(timeout)
    }

    fn set_recv_limit(&mut self, bytes: usize) {
        self.inner.set_recv_limit(bytes)
    }

    fn close(&mut self) {
        self.inner.close()
    }

    fn fd(&self) -> RawFd {
        self.inner.fd()
    }

    fn try_clone(&self) -> Result<Box<dyn Transport>, NetError> {
        Ok(Box::new(Self {
            inner: self.inner.try_clone()?,
            plan: self.plan.clone(),
            state: Arc::clone(&self.state),
        }))
    }

    fn conn_id(&self) -> u64 {
        self.inner.conn_id()
    }

    fn peer(&self) -> String {
        format!("faulty({})", self.inner.peer())
    }

    fn set_nonblocking(&mut self, nonblocking: bool) -> Result<(), NetError> {
        self.inner.set_nonblocking(nonblocking)
    }

    fn poll_recv_frame(&mut self, out: &mut dyn Landing) -> Result<bool, NetError> {
        self.check_dead()?;
        // Only a frame that actually arrives counts against the plan —
        // empty polls are free, matching the blocking API where every
        // call returns one frame.
        if !self.inner.poll_recv_frame(out)? {
            return Ok(false);
        }
        if let Some(d) = self.plan.recv_delay {
            std::thread::sleep(d);
        }
        self.count(&self.state.recvs, self.plan.kill_after_recvs)?;
        Ok(true)
    }

    fn poll_flush(&mut self) -> Result<bool, NetError> {
        self.check_dead()?;
        self.inner.poll_flush()
    }

    fn pending_out_bytes(&self) -> usize {
        self.inner.pending_out_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback_pair;

    #[test]
    fn no_plan_is_transparent() {
        let (a, mut b) = loopback_pair();
        let mut a = FaultyTransport::new(Box::new(a), FaultPlan::new());
        a.send_frame(b"hello").unwrap();
        let mut buf = Vec::new();
        b.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"hello");
    }

    #[test]
    fn kill_after_sends_fails_the_scripted_frame_and_after() {
        let (a, mut b) = loopback_pair();
        let mut a = FaultyTransport::new(Box::new(a), FaultPlan::new().kill_after_sends(2));
        a.send_frame(b"one").unwrap();
        a.send_frame(b"two").unwrap();
        assert_eq!(a.send_frame(b"three"), Err(NetError::Closed));
        assert_eq!(a.send_frame(b"four"), Err(NetError::Closed));
        // The kill is silent: the peer got exactly the frames before it.
        let mut buf = Vec::new();
        b.recv_frame(&mut buf).unwrap();
        b.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"two");
    }

    #[test]
    fn a_two_part_send_is_one_send_against_the_plan() {
        let (a, mut b) = loopback_pair();
        let mut a = FaultyTransport::new(Box::new(a), FaultPlan::new().kill_after_sends(2));
        let weights: std::sync::Arc<[f32]> = vec![1.0f32].into();
        a.send_parts(b"head", Tail::Bytes(b"+tail")).unwrap();
        a.send_parts(b"w", Tail::F32s(&weights)).unwrap();
        assert_eq!(a.send_parts(b"x", Tail::NONE), Err(NetError::Closed));
        let mut buf = Vec::new();
        b.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"head+tail");
        b.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, [b'w', 0, 0, 0x80, 0x3f]);
    }

    #[test]
    fn readiness_and_limits_reach_the_inner_transport() {
        let (a, b) = loopback_pair();
        let inner_fd = b.fd();
        let mut b = FaultyTransport::new(Box::new(b), FaultPlan::new());
        let mut a = FaultyTransport::new(Box::new(a), FaultPlan::new());
        // The wrapper hands out the inner link's descriptor, which polls
        // readable once a frame is waiting.
        assert_eq!(b.fd(), inner_fd);
        let mut poller = crate::sys::Poller::new();
        poller.add(b.fd(), false);
        assert_eq!(poller.wait(Some(Duration::ZERO)).unwrap(), 0);
        a.send_frame(b"12345").unwrap();
        assert_eq!(poller.wait(Some(Duration::from_secs(5))).unwrap(), 1);
        b.set_nonblocking(true).unwrap();
        b.set_recv_limit(4);
        assert!(matches!(
            b.poll_recv_frame(&mut Vec::new()),
            Err(NetError::Decode(_))
        ));
        // Closing through the wrapper closes the connection under it.
        b.close();
        assert_eq!(a.recv_frame(&mut Vec::new()), Err(NetError::Closed));
    }

    #[test]
    fn clones_share_the_kill_switch() {
        let (a, _b) = loopback_pair();
        let mut a = FaultyTransport::new(Box::new(a), FaultPlan::new().kill_after_sends(0));
        let mut a2 = a.try_clone().unwrap();
        assert_eq!(a.send_frame(b"x"), Err(NetError::Closed));
        // The clone observes the same dead connection without sending.
        assert_eq!(a2.send_frame(b"y"), Err(NetError::Closed));
        let mut buf = Vec::new();
        assert_eq!(a2.recv_frame(&mut buf), Err(NetError::Closed));
    }

    #[test]
    fn kill_after_recvs_counts_received_frames() {
        let (mut a, b) = loopback_pair();
        let mut b = FaultyTransport::new(Box::new(b), FaultPlan::new().kill_after_recvs(1));
        a.send_frame(b"one").unwrap();
        a.send_frame(b"two").unwrap();
        let mut buf = Vec::new();
        b.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"one");
        assert_eq!(b.recv_frame(&mut buf), Err(NetError::Closed));
    }

    #[test]
    fn delay_sends_slows_each_frame() {
        let (a, mut b) = loopback_pair();
        let mut a = FaultyTransport::new(
            Box::new(a),
            FaultPlan::new().delay_sends(Duration::from_millis(20)),
        );
        let t = std::time::Instant::now();
        a.send_frame(b"slow").unwrap();
        assert!(t.elapsed() >= Duration::from_millis(20));
        let mut buf = Vec::new();
        b.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"slow");
    }
}
