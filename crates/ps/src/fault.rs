//! In-process fault injection: the client-level twin of
//! `cdsgd_net::FaultyTransport`.
//!
//! [`FaultyClient`] wraps any [`ParamClient`] and executes a scripted
//! [`WorkerFault`] keyed on the worker's aggregate *round* (derived from
//! the push count: a worker pushes exactly `num_keys` payloads per
//! round). Rounds are deterministic for a given training configuration,
//! so "worker 1 dies at round 3" reproduces exactly — on the in-process
//! backend, where there is no transport to cut.
//!
//! A killed client fails every subsequent call with
//! [`NetError::ServerGone`] *without telling the server* — the same
//! silent death a cut connection produces, which is precisely what the
//! server-side round deadline and the trainer's supervisor exist to
//! detect.

use crate::api::ParamClient;
use crate::client::PendingReply;
use cdsgd_compress::BufferPool;
use cdsgd_net::wire::WireMsg;
use cdsgd_net::NetError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A scripted worker failure, keyed on the aggregate round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerFault {
    /// Fail every parameter-server call from the first push of `round`
    /// (0-indexed) onward: the worker completes rounds `0..round`
    /// normally, then dies silently.
    KillAtRound { round: u64 },
    /// Sleep `stall` before the first push of `round` (0-indexed), then
    /// continue normally — a straggler, for exercising deadlines without
    /// losing the worker.
    StallAtRound { round: u64, stall: Duration },
}

/// A [`ParamClient`] that executes a [`WorkerFault`] on top of an inner
/// client.
pub struct FaultyClient {
    inner: Arc<dyn ParamClient>,
    fault: WorkerFault,
    /// Keys per round, to convert the push counter into a round number.
    num_keys: u64,
    pushes: AtomicU64,
    dead: AtomicBool,
    stalled: AtomicBool,
}

impl FaultyClient {
    /// Wrap `inner` with the scripted `fault`. `num_keys` is the number
    /// of push calls the worker makes per round (one per parameter key).
    pub fn new(inner: Arc<dyn ParamClient>, fault: WorkerFault, num_keys: usize) -> Self {
        Self {
            inner,
            fault,
            num_keys: num_keys.max(1) as u64,
            pushes: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            stalled: AtomicBool::new(false),
        }
    }

    fn check_dead(&self) -> Result<(), NetError> {
        if self.dead.load(Ordering::SeqCst) {
            Err(NetError::ServerGone)
        } else {
            Ok(())
        }
    }

    /// Count one push and fire the fault if its round has been reached.
    fn on_push(&self) -> Result<(), NetError> {
        let round = self.pushes.fetch_add(1, Ordering::SeqCst) / self.num_keys;
        match self.fault {
            WorkerFault::KillAtRound { round: at } if round >= at => {
                self.dead.store(true, Ordering::SeqCst);
                Err(NetError::ServerGone)
            }
            WorkerFault::StallAtRound { round: at, stall }
                if round >= at && !self.stalled.swap(true, Ordering::SeqCst) =>
            {
                std::thread::sleep(stall);
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

impl ParamClient for FaultyClient {
    fn request(&self, msg: WireMsg) -> Result<Option<PendingReply>, NetError> {
        self.check_dead()?;
        if let WireMsg::Push { .. } = msg {
            self.on_push()?;
        }
        self.inner.request(msg)
    }

    fn pool(&self) -> &BufferPool {
        self.inner.pool()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParamServer, ServerConfig};
    use cdsgd_compress::Compressed;

    fn raw(v: f32) -> Compressed {
        Compressed::Raw(vec![v])
    }

    #[test]
    fn kill_at_round_counts_pushes_per_key() {
        // 2 keys per round: rounds 0 and 1 succeed (4 pushes), then the
        // first push of round 2 — and everything after — fails.
        let ps = ParamServer::start(vec![vec![0.0], vec![0.0]], ServerConfig::new(1, 1.0));
        let c = FaultyClient::new(
            Arc::new(ps.client()),
            WorkerFault::KillAtRound { round: 2 },
            2,
        );
        for _ in 0..2 {
            c.push(0, 0, raw(1.0)).unwrap();
            c.push(0, 1, raw(1.0)).unwrap();
        }
        assert_eq!(c.push(0, 0, raw(1.0)), Err(NetError::ServerGone));
        // Dead for every call, not just pushes.
        assert_eq!(c.pull(0, 2).unwrap_err(), NetError::ServerGone);
        assert_eq!(c.heartbeat(0), Err(NetError::ServerGone));
        // The server never saw the round-2 push.
        assert_eq!(*ps.client().pull(0, 2).unwrap(), [-2.0]);
        ps.shutdown();
    }

    #[test]
    fn kill_at_round_zero_never_pushes() {
        let ps = ParamServer::start(vec![vec![0.0]], ServerConfig::new(1, 1.0));
        let c = FaultyClient::new(
            Arc::new(ps.client()),
            WorkerFault::KillAtRound { round: 0 },
            1,
        );
        assert_eq!(c.push(0, 0, raw(1.0)), Err(NetError::ServerGone));
        assert_eq!(*ps.client().pull(0, 0).unwrap(), [0.0]);
        ps.shutdown();
    }

    #[test]
    fn stall_fires_once_then_continues() {
        let ps = ParamServer::start(vec![vec![0.0]], ServerConfig::new(1, 1.0));
        let c = FaultyClient::new(
            Arc::new(ps.client()),
            WorkerFault::StallAtRound {
                round: 1,
                stall: Duration::from_millis(30),
            },
            1,
        );
        c.push(0, 0, raw(1.0)).unwrap();
        let t = std::time::Instant::now();
        c.push(0, 0, raw(1.0)).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(30));
        let t = std::time::Instant::now();
        c.push(0, 0, raw(1.0)).unwrap();
        assert!(t.elapsed() < Duration::from_millis(30), "stall fires once");
        assert_eq!(*c.pull(0, 3).unwrap(), [-3.0]);
        ps.shutdown();
    }
}
