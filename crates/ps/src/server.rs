//! A parameter-server shard in this process: one lock around a
//! [`Shard`] and what its emulated [`Link`] is carrying to it, and no
//! thread of its own. Whichever thread delivers a message runs the
//! shard — a worker's request, a `psd` I/O thread that lands a frame, a
//! waiter whose answer is not ready — on every message the link has
//! carried, then ticks it. Waits are bounded by the next arrival and by
//! [`Shard::tick_every`], so deadlines and heartbeat eviction need no
//! message to fire. Every decision is the core's (`crate::shard`).

use crate::client::{Answer, Delivery, PsClient, ReplyTx};
use crate::link::Link;
use crate::opt::ServerOptKind;
use crate::recover::Durability;
use crate::shard::{Admission, Owed, Shard};
use crate::stats::TrafficStats;
use cdsgd_compress::BufferPool;
use cdsgd_net::wire::{pull_reply_frame_bytes, push_frame_bytes, WireMsg};
use cdsgd_net::{NetError, Waker};
use cdsgd_telemetry::Telemetry;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Dynamic-membership configuration (extension): when set on a
/// [`ServerConfig`], the worker set is no longer frozen at
/// `num_workers` — workers may register (`Join`) and depart (`Leave`, or
/// a heartbeat timeout) mid-training, and each aggregate round's quorum
/// is the *current* set of active workers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ElasticConfig {
    /// Fewest active workers the server keeps serving with; a departure
    /// that would drop the active set below this fails the server with
    /// [`NetError::WorkerLost`] instead of silently training on too few
    /// replicas.
    pub min_quorum: usize,
    /// Declare an active worker departed when it has neither pushed nor
    /// heartbeated for this long. `None` disables liveness tracking
    /// (departures are graceful `Leave`s only) — the right setting for
    /// deterministic in-process runs.
    pub heartbeat_timeout: Option<Duration>,
}

impl ElasticConfig {
    /// Elastic membership with graceful departures only (no liveness
    /// timeout).
    ///
    /// # Panics
    /// Panics if `min_quorum == 0` — an empty quorum would let rounds
    /// "complete" with no contributors.
    pub fn new(min_quorum: usize) -> Self {
        assert!(min_quorum >= 1, "min_quorum must be at least 1");
        Self {
            min_quorum,
            heartbeat_timeout: None,
        }
    }

    /// Also force out workers silent (no push, no heartbeat) past
    /// `timeout`.
    pub fn with_heartbeat_timeout(mut self, timeout: Duration) -> Self {
        self.heartbeat_timeout = Some(timeout);
        self
    }
}

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Number of workers whose pushes are aggregated per round. With
    /// [`ServerConfig::elastic`] set this is only the *initial*
    /// membership (workers `0..num_workers` start active); otherwise it
    /// is the fixed quorum of every round.
    pub num_workers: usize,
    /// Global learning rate η in `W ← W − η/N · Σ grads`.
    pub global_lr: f32,
    /// Server-side update rule applied once per aggregate round. The
    /// paper's rule is plain SGD ([`ServerOptKind::PlainSgd`], the
    /// default); heavy-ball and Nesterov momentum are provided for the
    /// extension benchmarks. Instantiated per key at server start via
    /// [`ServerOptKind::build`].
    pub opt: ServerOptKind,
    /// Emulated network seconds per transferred byte (0 = the in-process
    /// default, effectively infinite bandwidth). Every push frame and
    /// every pull-reply frame books `bytes × delay` on one FIFO link the
    /// shard's transfers share, in both directions, and its receiver
    /// waits until the booked end: the shard sees a push only once the
    /// link has carried it, a puller its reply likewise, and no thread
    /// sleeps on the link's behalf. This is what lets the *real*
    /// trainer exhibit the paper's communication pressure (see the
    /// `fig5_real` harness).
    pub delay_per_byte: f64,
    /// How long an aggregate round may stay *partial* (some workers'
    /// pushes for the round arrived, others' have not) before the server
    /// declares the missing worker lost and fails the round with
    /// [`NetError::WorkerLost`] instead of stalling every puller forever.
    /// `None` (the default) waits unboundedly — the pre-existing
    /// behaviour, and the right one for bit-identical offline runs.
    ///
    /// Delayed algorithms (OD-SGD / CD-SGD) legitimately run one round
    /// ahead, so a partial round is normal for up to one iteration time;
    /// set the deadline comfortably above the slowest expected iteration.
    pub round_deadline: Option<Duration>,
    /// Dynamic worker membership (see [`ElasticConfig`]). `None` (the
    /// default) keeps the historical fixed-membership behaviour
    /// bit-for-bit: every round aggregates exactly `num_workers` pushes.
    pub elastic: Option<ElasticConfig>,
}

impl ServerConfig {
    /// Plain-SGD config (the paper's update rule).
    pub fn new(num_workers: usize, global_lr: f32) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        Self {
            num_workers,
            global_lr,
            opt: ServerOptKind::PlainSgd,
            delay_per_byte: 0.0,
            round_deadline: None,
            elastic: None,
        }
    }

    /// Emulate a network with the given bandwidth (bytes/second) shared
    /// through the server.
    pub fn with_network_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        self.delay_per_byte = 1.0 / bytes_per_sec;
        self
    }

    /// Enable server-side heavy-ball momentum (extension). Sugar for
    /// [`ServerConfig::with_optimizer`] with [`ServerOptKind::HeavyBall`];
    /// 0 keeps plain SGD.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.opt = if momentum > 0.0 {
            ServerOptKind::HeavyBall { momentum }
        } else {
            ServerOptKind::PlainSgd
        };
        self
    }

    /// Choose the server-side update rule (see [`ServerOptKind`]).
    pub fn with_optimizer(mut self, opt: ServerOptKind) -> Self {
        self.opt = opt;
        self
    }

    /// Fail any aggregate round that stays partial longer than `deadline`
    /// with [`NetError::WorkerLost`] (see [`ServerConfig::round_deadline`]).
    pub fn with_round_deadline(mut self, deadline: Duration) -> Self {
        self.round_deadline = Some(deadline);
        self
    }

    /// Enable dynamic worker membership (see [`ElasticConfig`]).
    pub fn with_elastic(mut self, elastic: ElasticConfig) -> Self {
        self.elastic = Some(elastic);
        self
    }
}

/// A message on its way to the shard: the connection it came on (0 =
/// in-process), the message, and where its answer goes.
type Inbound = (u64, WireMsg, Option<ReplyTx>);

/// What the shard lock guards.
struct Hosted {
    /// `None` once the shard has stopped.
    shard: Option<Shard<ReplyTx>>,
    /// The failure that ended aggregation; it outlives the shard.
    failed: Option<NetError>,
    /// What the link is carrying, in booking order, with the instant each
    /// may be delivered: a push at its booked end, any other message with
    /// the one ahead of it.
    in_flight: VecDeque<(Instant, Inbound)>,
}

/// A shard run by the threads that use it (see the module docs), and
/// what its clients and front-ends share.
pub(crate) struct ShardHost {
    state: Mutex<Hosted>,
    /// Signalled when the shard answers, fails or stops, or a message
    /// goes in flight with none ahead: a waiter then looks again.
    changed: Condvar,
    link: Link,
    pub(crate) stats: Arc<TrafficStats>,
    /// Checked by `psd` on every push frame's head, outside the lock,
    /// before anything is reserved for its payload, and on every push
    /// handed on: a push that fails it retires its connection.
    pub(crate) admission: Admission,
    pub(crate) pool: BufferPool,
}

impl ShardHost {
    /// The shard's state, locked. A panic while the shard ran leaves it
    /// half-stepped: a poisoned lock stops it, and every later caller
    /// meets [`NetError::ServerGone`].
    fn lock(&self) -> MutexGuard<'_, Hosted> {
        self.state.lock().unwrap_or_else(|poisoned| {
            let mut state = poisoned.into_inner();
            self.stop(&mut state);
            state
        })
    }

    /// Stop the shard: every answer it owes, parked or in flight,
    /// resolves [`NetError::ServerGone`] as its sender goes with it.
    fn stop(&self, state: &mut Hosted) {
        if state.shard.take().is_some() {
            state.in_flight.clear();
            self.changed.notify_all();
        }
    }

    /// Stop the shard, once: what dropping its [`ParamServer`] does.
    pub(crate) fn shutdown(&self) {
        self.stop(&mut self.lock());
    }

    /// Block until the shard fails — `Err` with the verdict — or stops
    /// — `Ok(())`.
    pub(crate) fn wait_for_shutdown(&self) -> Result<(), NetError> {
        let mut state = self.lock();
        while state.failed.is_none() && state.shard.is_some() {
            // A poisoned lock is met, and stops the shard, on `lock`.
            drop(self.changed.wait(state));
            state = self.lock();
        }
        state.failed.clone().map_or(Ok(()), Err)
    }

    /// Hand `msg` from connection `conn` to the shard and run it; the
    /// receiver its answer arrives on, for the kinds the shard answers
    /// (`waker`: the requester's event loop, if it has one).
    pub(crate) fn send(
        &self,
        conn: u64,
        msg: WireMsg,
        waker: Option<&Waker>,
    ) -> Result<Option<Receiver<Delivery>>, NetError> {
        let (reply, rx) = ReplyTx::pair(&msg, waker);
        let mut state = self.lock();
        if state.shard.is_none() {
            return Err(NetError::ServerGone);
        }
        // A push is charged at its full frame (the bytes `cdsgd-net`
        // puts on a socket) and waits in flight until the link has
        // carried it, and so does any message behind it.
        let at = match &msg {
            WireMsg::Push { payload, .. } => {
                let frame = push_frame_bytes(payload.wire_bytes());
                self.stats.record_push(frame);
                self.link.reserve(frame)
            }
            _ => state.in_flight.back().map(|m| m.0),
        };
        let inbound = (conn, msg, reply);
        let Some(at) = at else {
            self.run(&mut state, Some(inbound));
            return Ok(rx);
        };
        if state.in_flight.is_empty() {
            // A waiter must now wake when this arrives.
            self.changed.notify_all();
        }
        state.in_flight.push_back((at, inbound));
        self.run(&mut state, None);
        Ok(rx)
    }

    /// Run the shard on what the link has carried and on its timers, as
    /// a `psd` I/O thread does once a pass; when to again at the latest
    /// (`None`: once a message arrives).
    pub(crate) fn tick(&self) -> Option<Instant> {
        self.run(&mut self.lock(), None)
    }

    /// Block until `rx` holds its answer and the link has carried it,
    /// running the shard whenever the link delivers a message or a timer
    /// falls due first; [`NetError::ServerGone`] if the shard stopped
    /// without answering.
    pub(crate) fn wait(&self, rx: &Receiver<Delivery>) -> Answer {
        let (mut got, mut ran) = (None, None);
        loop {
            // Answers are sent under the lock: once this wait has run the
            // shard, one not here yet comes with a signal it will see.
            if got.is_none() {
                got = match rx.try_recv() {
                    Ok(delivery) => Some(delivery),
                    Err(TryRecvError::Empty) => None,
                    Err(TryRecvError::Disconnected) => return Err(NetError::ServerGone),
                };
            }
            let now = Instant::now();
            if let Some((answer, _)) = got.take_if(|(_, at)| at.is_none_or(|at| at <= now)) {
                return answer;
            }
            if let Some((state, next)) = ran.take() {
                // A poisoned lock is met, and stops the shard, below.
                let due = got.as_ref().and_then(|d| d.1).into_iter().chain(next).min();
                let left = due.map_or(Duration::MAX, |due| due.saturating_duration_since(now));
                drop(self.changed.wait_timeout(state, left));
            }
            let mut state = self.lock();
            let next = self.run(&mut state, None);
            ran = Some((state, next));
        }
    }

    /// Run the shard at `now` on `first` (a message delivered at once),
    /// then on every message the link has carried by `now`, then tick it;
    /// stop it on [`WireMsg::Shutdown`]. When it must run again at the
    /// latest: the next arrival or tick.
    fn run(&self, state: &mut Hosted, mut first: Option<Inbound>) -> Option<Instant> {
        let now = Instant::now();
        loop {
            let arrived = first.take().or_else(|| {
                state.in_flight.front().filter(|m| m.0 <= now)?;
                state.in_flight.pop_front().map(|m| m.1)
            });
            if let Some((_, WireMsg::Shutdown, _)) = arrived {
                self.stop(state);
            }
            let core = state.shard.as_mut()?;
            let Some((conn, msg, reply)) = arrived else {
                let owed = core.tick(now);
                let tick = core.tick_every().map(|every| now + every);
                self.answer(state, owed);
                let next = state.in_flight.front().map(|m| m.0);
                return next.into_iter().chain(tick).min();
            };
            let owed = core.on(conn, msg, reply, now);
            self.answer(state, owed);
        }
    }

    /// Publish the shard's failure, then send what it owes: each pull
    /// reply booked on the link and sent with its delivery instant, for
    /// its receiver to wait out.
    fn answer(&self, state: &mut Hosted, owed: Vec<Owed<ReplyTx>>) {
        // Published first: a caller failed by the verdict finds it on the
        // handle.
        if state.failed.is_none() {
            state.failed = state.shard.as_ref().and_then(|s| s.failure().cloned());
            if state.failed.is_some() {
                self.changed.notify_all();
            }
        }
        if owed.is_empty() {
            return;
        }
        for (reply, answer) in owed {
            let arrives = match &answer {
                Ok(WireMsg::PullReply { weights, .. }) => {
                    let frame = pull_reply_frame_bytes(weights.len());
                    self.stats.record_pull(frame);
                    self.link.reserve(frame)
                }
                _ => None,
            };
            reply.send(answer, arrives);
        }
        self.changed.notify_all();
    }
}

/// Handle to a parameter server in this process. Dropping it without
/// calling [`ParamServer::shutdown`] stops the server too.
pub struct ParamServer {
    /// The shard every client reaches, and every front-end that serves
    /// it over transports.
    pub(crate) shard: Arc<ShardHost>,
}

impl ParamServer {
    /// Start a server owning `init` as the initial weights (one vector per
    /// key, keys are the indices).
    pub fn start(init: Vec<Vec<f32>>, cfg: ServerConfig) -> Self {
        Self::start_with(init, cfg, Telemetry::disabled(), Durability::default())
    }

    /// The full form of [`ParamServer::start`]: every traffic and
    /// round-lifecycle event this server observes is also forwarded to
    /// `telemetry` (e.g. a `JsonlSink` trace), and `durability` wires in
    /// the recovery subsystem — optionally restoring state from a shard
    /// checkpoint and/or writing new checkpoints at round boundaries (see
    /// [`crate::recover`]). Both are inert at their defaults.
    /// [`ServerConfig`] stays `Copy`, so they ride in explicitly rather
    /// than in the config.
    pub fn start_with(
        init: Vec<Vec<f32>>,
        cfg: ServerConfig,
        telemetry: Telemetry,
        durability: Durability,
    ) -> Self {
        let stats = Arc::new(TrafficStats::with_telemetry(telemetry));
        // A round holds one push per key per worker.
        let pool = BufferPool::for_round(init.len() * cfg.num_workers);
        let admission = Admission::new(&init, &cfg);
        let link = Link::new(&cfg);
        let now = Instant::now();
        let shard = Shard::new(init, cfg, durability, Arc::clone(&stats), pool.clone(), now);
        let state = Hosted {
            shard: Some(shard),
            failed: None,
            in_flight: VecDeque::new(),
        };
        let shard = Arc::new(ShardHost {
            state: Mutex::new(state),
            changed: Condvar::new(),
            link,
            stats,
            admission,
            pool,
        });
        Self { shard }
    }

    /// A client handle usable from any thread.
    pub fn client(&self) -> PsClient {
        PsClient {
            shard: Arc::clone(&self.shard),
        }
    }

    /// Traffic counters.
    pub fn stats(&self) -> &TrafficStats {
        &self.shard.stats
    }

    /// Shared ownership of the traffic counters, so a caller can keep
    /// reading them after the server itself has been consumed (e.g. to
    /// check final accounting once a training run shuts it down).
    pub fn shared_stats(&self) -> Arc<TrafficStats> {
        Arc::clone(&self.shard.stats)
    }

    /// The payload buffer pool shared between this server and its
    /// clients. Buffers recycled by the server after decoding a push are
    /// handed back out through [`crate::ParamClient::pool`] /
    /// [`cdsgd_compress::GradientCompressor::compress_into`].
    pub fn pool(&self) -> &BufferPool {
        &self.shard.pool
    }

    /// The failure that ended aggregation (a round deadline fired, a
    /// departure broke the quorum, a trusted caller pushed what the shard
    /// cannot take). `None` while healthy.
    pub fn failure(&self) -> Option<NetError> {
        self.shard.lock().failed.clone()
    }

    /// Stop the server (what dropping the handle does): every answer it
    /// still owes resolves [`NetError::ServerGone`], and so does every
    /// later request.
    pub fn shutdown(self) {}
}

impl Drop for ParamServer {
    fn drop(&mut self) {
        self.shard.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamClient;
    use cdsgd_compress::{decompress_add, Compressed};
    use cdsgd_telemetry::Event;
    use std::sync::mpsc;

    #[test]
    fn single_worker_update_rule() {
        let ps = ParamServer::start(vec![vec![1.0, 2.0]], ServerConfig::new(1, 0.1));
        let c = ps.client();
        c.push(0, 0, Compressed::Raw(vec![10.0, -10.0])).unwrap();
        let w = c.pull(0, 1).unwrap();
        assert_eq!(*w, [0.0, 3.0]);
        ps.shutdown();
    }

    #[test]
    fn aggregation_waits_for_all_workers() {
        let ps = ParamServer::start(vec![vec![0.0]], ServerConfig::new(2, 1.0));
        let c = ps.client();
        c.push(0, 0, Compressed::Raw(vec![2.0])).unwrap();
        // Version still 0: a pull at min_version 0 returns the original.
        assert_eq!(*c.pull(0, 0).unwrap(), [0.0]);
        c.push(1, 0, Compressed::Raw(vec![4.0])).unwrap();
        // Both pushed: W = 0 - 1.0/2 * (2+4) = -3.
        assert_eq!(*c.pull(0, 1).unwrap(), [-3.0]);
        ps.shutdown();
    }

    #[test]
    fn pull_blocks_until_version_available() {
        let ps = ParamServer::start(vec![vec![0.0]], ServerConfig::new(1, 1.0));
        let c = ps.client();
        let c2 = ps.client();
        let waiter = std::thread::spawn(move || c2.pull(0, 1).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.push(0, 0, Compressed::Raw(vec![1.0])).unwrap();
        assert_eq!(*waiter.join().unwrap(), [-1.0]);
        ps.shutdown();
    }

    #[test]
    fn unservable_pull_fails_its_caller_not_the_server() {
        let ps = ParamServer::start(vec![vec![0.0]], ServerConfig::new(1, 1.0));
        let c = ps.client();
        for v in 1..=2u64 {
            c.push(0, 0, Compressed::Raw(vec![1.0])).unwrap();
            c.pull(0, v).unwrap();
        }
        // Version 0 is two aggregates behind; key 1 does not exist.
        assert!(matches!(c.pull(0, 0), Err(NetError::Io(_))));
        assert!(matches!(c.pull(1, 0), Err(NetError::Io(_))));
        // The shard survived both and keeps serving.
        assert_eq!(*c.pull(0, 1).unwrap(), [-1.0]);
        assert_eq!(*c.pull(0, 2).unwrap(), [-2.0]);
        ps.shutdown();
    }

    /// ResNet-8's round: two workers push 2-bit payloads of 38 keys, 76
    /// in flight, each encoded into storage drawn from the server's pool
    /// as a worker's codec draws it. Every payload of a round is encoded
    /// before the first is pushed, so a round needs all 76 at once
    /// whatever the server's timing. Once the pool has seen a
    /// round, the server recycles every payload it aggregates and a later
    /// round allocates none.
    #[test]
    fn a_steady_round_of_a_many_key_model_misses_no_take() {
        use cdsgd_compress::{GradientCompressor, TwoBitQuantizer};
        let (keys, workers) = (38, 2);
        let init: Vec<Vec<f32>> = (0..keys).map(|k| vec![0.0; 16 + k]).collect();
        let ps = ParamServer::start(init.clone(), ServerConfig::new(workers, 0.1));
        let c = ps.client();
        let mut codecs: Vec<TwoBitQuantizer> =
            (0..workers).map(|_| TwoBitQuantizer::new(0.5)).collect();
        let mut round = |version: u64| {
            let mut payloads = Vec::new();
            for (w, codec) in codecs.iter_mut().enumerate() {
                for (k, w0) in init.iter().enumerate() {
                    let grad: Vec<f32> = w0.iter().map(|_| (w + k) as f32 - 20.0).collect();
                    payloads.push((w, k, codec.compress_into(k, &grad, ps.pool())));
                }
            }
            for (w, k, payload) in payloads {
                c.push(w, k, payload).unwrap();
            }
            for k in 0..keys {
                c.pull(k, version).unwrap();
            }
        };
        round(1);
        let misses = ps.pool().misses();
        for version in 2..6 {
            round(version);
        }
        assert_eq!(
            ps.pool().misses(),
            misses,
            "a steady round allocated payload storage"
        );
        ps.shutdown();
    }

    #[test]
    fn multiple_keys_progress_independently() {
        let ps = ParamServer::start(vec![vec![0.0], vec![0.0]], ServerConfig::new(1, 1.0));
        let c = ps.client();
        c.push(0, 1, Compressed::Raw(vec![5.0])).unwrap();
        assert_eq!(*c.pull(1, 1).unwrap(), [-5.0]);
        // Key 0 untouched.
        assert_eq!(*c.pull(0, 0).unwrap(), [0.0]);
        let (_, versions) = c.snapshot().unwrap();
        assert_eq!(versions, vec![0, 1]);
        ps.shutdown();
    }

    #[test]
    fn set_lr_takes_effect_next_round() {
        let ps = ParamServer::start(vec![vec![0.0]], ServerConfig::new(1, 1.0));
        let c = ps.client();
        c.push(0, 0, Compressed::Raw(vec![1.0])).unwrap();
        c.pull(0, 1).unwrap();
        c.set_lr(0.1).unwrap();
        c.push(0, 0, Compressed::Raw(vec![1.0])).unwrap();
        let w = c.pull(0, 2).unwrap();
        assert!((w[0] - (-1.1)).abs() < 1e-6);
        ps.shutdown();
    }

    #[test]
    fn momentum_accelerates_along_constant_gradient() {
        let ps = ParamServer::start(
            vec![vec![0.0]],
            ServerConfig::new(1, 1.0).with_momentum(0.9),
        );
        let c = ps.client();
        c.push(0, 0, Compressed::Raw(vec![1.0])).unwrap();
        let w1 = c.pull(0, 1).unwrap()[0];
        c.push(0, 0, Compressed::Raw(vec![1.0])).unwrap();
        let w2 = c.pull(0, 2).unwrap()[0];
        // Step 1: v=1, w=-1. Step 2: v=1.9, w=-2.9.
        assert!((w1 + 1.0).abs() < 1e-6);
        assert!((w2 + 2.9).abs() < 1e-6);
        ps.shutdown();
    }

    #[test]
    fn nesterov_optimizer_applies_lookahead_through_the_server() {
        let ps = ParamServer::start(
            vec![vec![0.0]],
            ServerConfig::new(1, 1.0).with_optimizer(ServerOptKind::Nesterov { momentum: 0.9 }),
        );
        let c = ps.client();
        c.push(0, 0, Compressed::Raw(vec![1.0])).unwrap();
        let w1 = c.pull(0, 1).unwrap()[0];
        c.push(0, 0, Compressed::Raw(vec![1.0])).unwrap();
        let w2 = c.pull(0, 2).unwrap()[0];
        // Step 1: v=1, d=1.9, w=-1.9. Step 2: v=1.9, d=2.71, w=-4.61.
        assert!((w1 + 1.9).abs() < 1e-6);
        assert!((w2 + 4.61).abs() < 1e-5);
        ps.shutdown();
    }

    #[test]
    fn traffic_stats_count_wire_bytes() {
        let ps = ParamServer::start(vec![vec![0.0; 16]], ServerConfig::new(1, 1.0));
        let c = ps.client();
        c.push(0, 0, Compressed::Raw(vec![0.0; 16])).unwrap();
        c.pull(0, 1).unwrap();
        // Push frame: 4 prefix + 1 opcode + 4 worker + 4 key + (4 header
        // + 64 payload) = 81. Pull reply: 4 + 1 + 4 key + 8 version + 64
        // weights = 81. Both match the bytes `cdsgd-net` puts on a socket.
        assert_eq!(ps.stats().bytes_pushed(), 81);
        assert_eq!(ps.stats().bytes_pulled(), 81);
        ps.shutdown();
    }

    #[test]
    fn same_version_pulls_share_one_snapshot_allocation() {
        // Two clients on two threads pulling the same version must get the
        // *same* Arc — the server serves snapshots by reference, not copy.
        let ps = ParamServer::start(vec![vec![0.0; 8]], ServerConfig::new(1, 1.0));
        let c1 = ps.client();
        let c2 = ps.client();
        c1.push(0, 0, Compressed::Raw(vec![1.0; 8])).unwrap();
        let h1 = std::thread::spawn(move || c1.pull(0, 1).unwrap());
        let h2 = std::thread::spawn(move || c2.pull(0, 1).unwrap());
        let (w1, w2) = (h1.join().unwrap(), h2.join().unwrap());
        assert!(
            Arc::ptr_eq(&w1, &w2),
            "same-version pulls must share storage"
        );
        assert_eq!(*w1, [-1.0; 8]);
        ps.shutdown();
    }

    #[test]
    fn bytes_copied_counts_snapshots_not_pulls() {
        // One push builds one 8-element snapshot; two pulls of that same
        // version add nothing to the copy counter (only to pull traffic).
        let ps = ParamServer::start(vec![vec![0.0; 8]], ServerConfig::new(1, 1.0));
        let c = ps.client();
        c.push(0, 0, Compressed::Raw(vec![1.0; 8])).unwrap();
        c.pull(0, 1).unwrap();
        c.pull(0, 1).unwrap();
        assert_eq!(ps.stats().bytes_copied(), 4 * 8);
        assert_eq!(
            ps.stats().bytes_pulled() as usize,
            2 * pull_reply_frame_bytes(8)
        );
        ps.shutdown();
    }

    #[test]
    fn an_inadmissible_in_process_push_fails_the_shard_not_its_thread() {
        // A key the shard does not own, a known key at the wrong length,
        // a worker past a 2-worker fixed quorum: each is a broken trusted
        // caller. The shard fails with the typed error naming the push,
        // and keeps answering with it.
        for (worker, key, len) in [(0, 9, 2), (0, 0, 3), (7, 0, 2)] {
            let ps = ParamServer::start(vec![vec![0.0; 2]], ServerConfig::new(2, 1.0));
            let c = ps.client();
            c.push(worker, key, Compressed::Raw(vec![1.0; len]))
                .unwrap();
            let err = c.pull(0, 0).unwrap_err();
            assert!(
                matches!(&err, NetError::Decode(m) if m.contains("push")),
                "{err:?}"
            );
            assert_eq!(ps.failure(), Some(err.clone()));
            assert_eq!(c.register(0).unwrap_err(), err);
            ps.shutdown();
        }
    }

    /// Worker 0 pushes and waits on its pull, and no other message is
    /// ever sent: the waiter alone runs the shard's timers. Its pull
    /// fails once the round deadline has passed, within one tick of it —
    /// behind an emulated link, counted from the instant the link
    /// delivered the push, which opened the partial round.
    #[test]
    fn a_round_deadline_fires_with_no_thread_but_the_waiter() {
        const DEADLINE: Duration = Duration::from_millis(400);
        // 4 KB/s: the push frame takes about 100 ms.
        const BYTES_PER_S: f64 = 4_000.0;
        let push = || Compressed::Raw(vec![1.0; 100]);
        let frame = push_frame_bytes(push().wire_bytes());
        let carried = Duration::from_secs_f64(frame as f64 / BYTES_PER_S);
        let plain = ServerConfig::new(2, 1.0).with_round_deadline(DEADLINE);
        let emulated = plain.with_network_bandwidth(BYTES_PER_S);
        for (cfg, carried) in [(plain, Duration::ZERO), (emulated, carried)] {
            let ps = ParamServer::start(vec![vec![0.0; 100]], cfg);
            let every = ps
                .shard
                .lock()
                .shard
                .as_ref()
                .unwrap()
                .tick_every()
                .unwrap();
            let c = ps.client();
            let t = Instant::now();
            c.push(0, 0, push()).unwrap();
            let err = c.pull(0, 1).unwrap_err();
            let took = t.elapsed();
            let lost = NetError::WorkerLost { id: 1, round: 0 };
            assert_eq!(err, lost);
            assert_eq!(ps.failure(), Some(lost));
            assert!(took >= carried + DEADLINE, "failed after {took:?}");
            assert!(
                took <= carried + DEADLINE + every,
                "failed after {took:?}, past the deadline and a tick of {every:?}"
            );
            ps.shutdown();
        }
    }

    #[test]
    fn a_ticking_waiter_hands_out_no_reply_before_the_link_has_carried_it() {
        // 4 KB/s, and a deadline far off: the waiter runs the shard on
        // every tick and every arrival, and still hands the puller its
        // reply only once the link has carried both pushes and the reply.
        const BYTES_PER_S: f64 = 4_000.0;
        let cfg = ServerConfig::new(2, 1.0)
            .with_network_bandwidth(BYTES_PER_S)
            .with_round_deadline(Duration::from_secs(20));
        let push = || Compressed::Raw(vec![1.0; 100]);
        let bytes = 2 * push_frame_bytes(push().wire_bytes()) + pull_reply_frame_bytes(100);
        let least = Duration::from_secs_f64(bytes as f64 / BYTES_PER_S);
        let ps = ParamServer::start(vec![vec![0.0; 100]], cfg);
        let c = ps.client();
        let t = Instant::now();
        c.push(0, 0, push()).unwrap();
        c.push(1, 0, push()).unwrap();
        assert_eq!(*c.pull(0, 1).unwrap(), [-1.0; 100]);
        let took = t.elapsed();
        assert!(took >= least, "{took:?} < {least:?}");
        ps.shutdown();
    }

    #[test]
    fn messages_wait_in_flight_in_booking_order() {
        // 10 ms per byte: pushes booked by four threads far faster than
        // the link carries them all wait in flight, each booked behind
        // the last, and a snapshot handed in behind them waits with the
        // last of them. Stopping answers the snapshot `ServerGone`.
        const DELAY: f64 = 1e-2;
        let mut cfg = ServerConfig::new(4, 1.0);
        cfg.delay_per_byte = DELAY;
        let ps = ParamServer::start(vec![vec![0.0]], cfg);
        let threads: Vec<_> = (0..4)
            .map(|worker| {
                let c = ps.client();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        c.push(worker, 0, Compressed::Raw(vec![1.0])).unwrap();
                    }
                })
            })
            .collect();
        threads.into_iter().for_each(|t| t.join().unwrap());
        let snapshot = ps.shard.send(0, WireMsg::Snapshot, None).unwrap();
        {
            let state = ps.shard.lock();
            let lasts = Duration::from_secs_f64(
                DELAY * push_frame_bytes(Compressed::Raw(vec![1.0]).wire_bytes()) as f64,
            );
            let at: Vec<Instant> = state.in_flight.iter().map(|m| m.0).collect();
            assert_eq!(at.len(), 201);
            assert!(at[..200].windows(2).all(|w| w[1] >= w[0] + lasts));
            assert_eq!(at[200], at[199]);
            assert_eq!(state.in_flight[200].1 .1, WireMsg::Snapshot);
        }
        ps.shutdown();
        assert_eq!(snapshot.unwrap().recv(), Err(mpsc::RecvError));
    }

    #[test]
    fn a_poisoned_shard_lock_is_server_gone_to_every_later_caller() {
        let ps = ParamServer::start(vec![vec![0.0]], ServerConfig::new(2, 1.0));
        let c = ps.client();
        let parked = c.pull_async(0, 1).unwrap();
        let shard = Arc::clone(&ps.shard);
        let panicked = std::thread::spawn(move || {
            let _running = shard.state.lock();
            panic!("a panic while the shard runs");
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(
            c.push(0, 0, Compressed::Raw(vec![1.0])),
            Err(NetError::ServerGone)
        );
        assert_eq!(parked.wait().unwrap_err(), NetError::ServerGone);
        assert_eq!(c.pull(0, 0).unwrap_err(), NetError::ServerGone);
        ps.shutdown();
    }

    #[test]
    fn no_deadline_means_no_failure_mode() {
        let ps = ParamServer::start(vec![vec![0.0]], ServerConfig::new(2, 1.0));
        let c = ps.client();
        c.push(0, 0, Compressed::Raw(vec![1.0])).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(ps.failure(), None);
        assert_eq!(*c.pull(0, 0).unwrap(), [0.0]);
        ps.shutdown();
    }

    #[test]
    fn round_lifecycle_events_reach_an_attached_sink() {
        use cdsgd_telemetry::MemorySink;
        let mem = Arc::new(MemorySink::new());
        let ps = ParamServer::start_with(
            vec![vec![0.0]],
            ServerConfig::new(2, 1.0),
            Telemetry::new(mem.clone()),
            Durability::default(),
        );
        let c = ps.client();
        c.push(0, 0, Compressed::Raw(vec![1.0])).unwrap();
        c.push(1, 0, Compressed::Raw(vec![1.0])).unwrap();
        c.pull(0, 1).unwrap();
        let events = mem.events();
        assert!(
            events.contains(&Event::RoundPartial { key: 0, round: 0 }),
            "first push opens the round: {events:?}"
        );
        assert!(
            events.contains(&Event::RoundComplete { key: 0, version: 1 }),
            "second push completes it: {events:?}"
        );
        // Byte accounting flows through the very same stream.
        assert!(events.iter().any(|e| matches!(e, Event::Push { .. })));
        assert!(events.iter().any(|e| matches!(e, Event::Pull { .. })));
        ps.shutdown();
    }

    #[test]
    fn elastic_join_acks_versions_and_resizes_quorum() {
        // Start with one worker; after one round, worker 1 joins. The ack
        // carries the versions its first pulls must target, and the next
        // round waits for (and divides by) both workers.
        let ps = ParamServer::start(
            vec![vec![0.0]],
            ServerConfig::new(1, 1.0).with_elastic(ElasticConfig::new(1)),
        );
        let c = ps.client();
        c.push(0, 0, Compressed::Raw(vec![2.0])).unwrap();
        assert_eq!(*c.pull(0, 1).unwrap(), [-2.0]);
        assert_eq!(c.register(1).unwrap(), vec![1]);
        c.push(0, 0, Compressed::Raw(vec![2.0])).unwrap();
        // Worker 0 alone no longer completes a round.
        assert_eq!(*c.pull(0, 1).unwrap(), [-2.0]);
        c.push(1, 0, Compressed::Raw(vec![4.0])).unwrap();
        // W = -2 - 1.0/2 * (2+4) = -5.
        assert_eq!(*c.pull(0, 2).unwrap(), [-5.0]);
        ps.shutdown();
    }

    #[test]
    fn graceful_leave_shrinks_quorum_and_drains_queued_pushes() {
        let ps = ParamServer::start(
            vec![vec![0.0]],
            ServerConfig::new(2, 1.0).with_elastic(ElasticConfig::new(1)),
        );
        let c = ps.client();
        // Worker 1 pushes its last round, then leaves; worker 0's push
        // arrives after the leave. The round still aggregates both
        // (divisor 2), because the leaver's queued push feeds the round
        // it was computed for.
        c.push(1, 0, Compressed::Raw(vec![4.0])).unwrap();
        c.leave(1).unwrap();
        c.push(0, 0, Compressed::Raw(vec![2.0])).unwrap();
        assert_eq!(*c.pull(0, 1).unwrap(), [-3.0]);
        // From here on worker 0 alone completes rounds, divisor 1.
        c.push(0, 0, Compressed::Raw(vec![2.0])).unwrap();
        assert_eq!(*c.pull(0, 2).unwrap(), [-5.0]);
        ps.shutdown();
    }

    #[test]
    fn graceful_drain_to_zero_idles_and_accepts_rejoin() {
        let ps = ParamServer::start(
            vec![vec![0.0]],
            ServerConfig::new(1, 1.0).with_elastic(ElasticConfig::new(1)),
        );
        let c = ps.client();
        c.push(0, 0, Compressed::Raw(vec![2.0])).unwrap();
        assert_eq!(*c.pull(0, 1).unwrap(), [-2.0]);
        // The last worker leaving is a complete drain, not a failure:
        // the server idles with the aggregated weights intact.
        c.leave(0).unwrap();
        let (w, v) = c.snapshot().unwrap();
        assert_eq!((w[0].as_slice(), v[0]), ([-2.0].as_slice(), 1));
        assert_eq!(ps.failure(), None);
        // Scale back up from zero: a rejoin resumes training solo.
        assert_eq!(c.register(0).unwrap(), vec![1]);
        c.push(0, 0, Compressed::Raw(vec![2.0])).unwrap();
        assert_eq!(*c.pull(0, 2).unwrap(), [-4.0]);
        ps.shutdown();
    }

    #[test]
    fn cancel_join_rolls_back_a_tentative_join() {
        let ps = ParamServer::start(
            vec![vec![0.0]],
            ServerConfig::new(1, 1.0).with_elastic(ElasticConfig::new(1)),
        );
        let c = ps.client();
        // Worker 1 is tentatively admitted, then the two-phase register
        // rolls it back: worker 0 alone completes rounds again, and no
        // phantom member stalls the shard until heartbeat eviction.
        assert_eq!(c.register(1).unwrap(), vec![0]);
        c.cancel_join(1).unwrap();
        c.push(0, 0, Compressed::Raw(vec![2.0])).unwrap();
        assert_eq!(*c.pull(0, 1).unwrap(), [-2.0]);
        assert_eq!(ps.failure(), None);
        // The slot is reusable: a later real join gates the next round.
        assert_eq!(c.register(1).unwrap(), vec![1]);
        c.push(0, 0, Compressed::Raw(vec![2.0])).unwrap();
        c.push(1, 0, Compressed::Raw(vec![4.0])).unwrap();
        // W = -2 - 1.0/2 * (2+4) = -5.
        assert_eq!(*c.pull(0, 2).unwrap(), [-5.0]);
        ps.shutdown();
    }

    #[test]
    fn cancel_join_after_a_reregistration_is_a_noop() {
        // min_quorum 2 pins the regression this fixes: a rollback that
        // trails a re-registration of an established member must not
        // demote it — with a `leave`-based rollback, a transient partial
        // register failure became a permanent below-quorum one.
        let ps = ParamServer::start(
            vec![vec![0.0]],
            ServerConfig::new(2, 1.0).with_elastic(ElasticConfig::new(2)),
        );
        let c = ps.client();
        // Worker 1 is in the initial set: registering it again is a
        // refresh, not a promotion, so the cancel finds no tentative
        // join to undo.
        assert_eq!(c.register(1).unwrap(), vec![0]);
        c.cancel_join(1).unwrap();
        // Both members still gate and feed rounds; the server is healthy.
        c.push(0, 0, Compressed::Raw(vec![2.0])).unwrap();
        c.push(1, 0, Compressed::Raw(vec![4.0])).unwrap();
        assert_eq!(*c.pull(0, 1).unwrap(), [-3.0]);
        assert_eq!(ps.failure(), None);
        ps.shutdown();
    }

    #[test]
    fn in_process_push_is_not_fenced_by_a_wire_registration() {
        let ps = ParamServer::start(
            vec![vec![0.0]],
            ServerConfig::new(1, 1.0).with_elastic(ElasticConfig::new(1)),
        );
        let c = ps.client();
        // A message as the I/O loop forwards it, from connection `conn`.
        let from = |conn, msg| ps.shard.send(conn, msg, None).unwrap();
        let push = |value| WireMsg::Push {
            worker: 0,
            key: 0,
            payload: Compressed::Raw(vec![value]),
        };
        // Worker 0 registers over a transport connection (id 7), which
        // fences pushes from *other wire connections*…
        let ack = from(7, WireMsg::Register { worker: 0 }).unwrap().recv();
        assert_eq!(
            ack.unwrap().0,
            Ok(WireMsg::RegisterAck { versions: vec![0] })
        );
        // …but never the in-process sentinel: conn 0 marks a trusted
        // same-process caller, not a supersedable wire session.
        c.push(0, 0, Compressed::Raw(vec![2.0])).unwrap();
        assert_eq!(*c.pull(0, 1).unwrap(), [-2.0]);
        // A straggler from a superseded wire connection is still dropped.
        from(3, push(100.0));
        from(7, push(2.0));
        assert_eq!(*c.pull(0, 2).unwrap(), [-4.0]);
        ps.shutdown();
    }

    #[test]
    fn leave_below_min_quorum_fails_the_server() {
        let ps = ParamServer::start(
            vec![vec![0.0]],
            ServerConfig::new(2, 1.0).with_elastic(ElasticConfig::new(2)),
        );
        let c = ps.client();
        c.leave(1).unwrap();
        // The failure cell is written by whoever runs the shard; poll
        // briefly.
        let t = Instant::now();
        while ps.failure().is_none() && t.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ps.failure(), Some(NetError::WorkerLost { id: 1, round: 0 }));
        assert!(c.pull(0, 1).is_err());
        ps.shutdown();
    }

    #[test]
    fn fixed_membership_ignores_membership_messages() {
        // Without `elastic`, leave/heartbeat are inert and register is
        // just a version handshake — aggregation still waits for all
        // `num_workers` pushes.
        let ps = ParamServer::start(vec![vec![0.0]], ServerConfig::new(2, 1.0));
        let c = ps.client();
        c.leave(1).unwrap();
        c.heartbeat(0).unwrap();
        assert_eq!(c.register(5).unwrap(), vec![0]);
        c.push(0, 0, Compressed::Raw(vec![2.0])).unwrap();
        assert_eq!(*c.pull(0, 0).unwrap(), [0.0], "still waiting for worker 1");
        c.push(1, 0, Compressed::Raw(vec![4.0])).unwrap();
        assert_eq!(*c.pull(0, 1).unwrap(), [-3.0]);
        ps.shutdown();
    }

    #[test]
    fn scheduled_checkpoint_resume_continues_bit_identically() {
        use crate::recover::{self, CheckpointPolicy};
        let dir = std::env::temp_dir().join(format!("cdsgd-srv-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Uninterrupted reference: 4 rounds with momentum (so optimizer
        // state matters).
        let cfg = ServerConfig::new(1, 0.5).with_momentum(0.9);
        let reference = {
            let ps = ParamServer::start(vec![vec![0.0, 1.0]], cfg);
            let c = ps.client();
            for _ in 0..4 {
                c.push(0, 0, Compressed::Raw(vec![1.0, -1.0])).unwrap();
            }
            let w = c.pull(0, 4).unwrap().to_vec();
            ps.shutdown();
            w
        };

        // Checkpointed run: 2 rounds, snapshot at the every=2 boundary.
        {
            let durability = Durability {
                restore: None,
                checkpoint: Some(CheckpointPolicy::new(&dir, Some(2), 0, 1)),
            };
            let ps = ParamServer::start_with(
                vec![vec![0.0, 1.0]],
                cfg,
                Telemetry::disabled(),
                durability,
            );
            let c = ps.client();
            for _ in 0..2 {
                c.push(0, 0, Compressed::Raw(vec![1.0, -1.0])).unwrap();
            }
            c.pull(0, 2).unwrap();
            ps.shutdown();
        }
        assert_eq!(recover::latest_complete_round(&dir, 1).unwrap(), Some(2));

        // Resume from the checkpoint (momentum restored) and run the
        // remaining 2 rounds: bit-identical to the uninterrupted run.
        let restored = recover::load_latest(&dir, 0, 1).unwrap().unwrap();
        let durability = Durability {
            restore: Some(restored),
            checkpoint: None,
        };
        let ps =
            ParamServer::start_with(vec![vec![0.0, 1.0]], cfg, Telemetry::disabled(), durability);
        let c = ps.client();
        for _ in 0..2 {
            c.push(0, 0, Compressed::Raw(vec![1.0, -1.0])).unwrap();
        }
        assert_eq!(*c.pull(0, 4).unwrap(), *reference);
        ps.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn on_demand_checkpoint_requires_a_directory() {
        let ps = ParamServer::start(vec![vec![0.0]], ServerConfig::new(1, 1.0));
        let c = ps.client();
        assert_eq!(c.checkpoint_now().unwrap(), None);
        ps.shutdown();
    }

    #[test]
    fn on_demand_checkpoint_captures_the_quiesced_round() {
        use crate::recover::{self, CheckpointPolicy};
        let dir = std::env::temp_dir().join(format!("cdsgd-srv-odc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durability = Durability {
            restore: None,
            // On-demand only: no interval.
            checkpoint: Some(CheckpointPolicy::new(&dir, None, 0, 1)),
        };
        let ps = ParamServer::start_with(
            vec![vec![0.0], vec![0.0]],
            ServerConfig::new(1, 1.0),
            Telemetry::disabled(),
            durability,
        );
        let c = ps.client();
        c.push(0, 0, Compressed::Raw(vec![2.0])).unwrap();
        c.push(0, 1, Compressed::Raw(vec![4.0])).unwrap();
        c.pull(0, 1).unwrap();
        c.pull(1, 1).unwrap();
        assert_eq!(c.checkpoint_now().unwrap(), Some(1));
        let ckpt = recover::load_latest(&dir, 0, 1).unwrap().unwrap();
        assert_eq!(ckpt.round, 1);
        assert_eq!(ckpt.weights, vec![vec![-2.0], vec![-4.0]]);
        ps.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compressed_push_is_decoded_before_update() {
        use cdsgd_compress::{GradientCompressor, TwoBitQuantizer};
        let ps = ParamServer::start(vec![vec![0.0; 3]], ServerConfig::new(1, 1.0));
        let c = ps.client();
        let mut q = TwoBitQuantizer::new(0.5);
        let payload = q.compress(0, &[0.9, -0.9, 0.1]);
        c.push(0, 0, payload).unwrap();
        assert_eq!(*c.pull(0, 1).unwrap(), [-0.5, 0.5, 0.0]);
        ps.shutdown();
    }

    #[test]
    fn a_held_snapshot_is_never_rewritten_and_a_released_one_is_recycled() {
        let ps = ParamServer::start(vec![vec![0.0; 8]], ServerConfig::new(1, 1.0));
        let c = ps.client();
        let round = |r: u64| {
            c.push(0, 0, Compressed::Raw(vec![r as f32 + 1.0; 8]))
                .unwrap();
            c.pull(0, r + 1).unwrap()
        };
        round(0);
        // A reader (a lagging puller, a model that adopted it) keeps
        // version 2 while the server builds versions 3..=6.
        let held = round(1);
        let (at, bits) = (held.as_ptr(), held.to_vec());
        for r in 2..6 {
            assert_ne!(
                round(r).as_ptr(),
                at,
                "version {} built over a reader",
                r + 1
            );
            assert_eq!(*held, bits[..], "a held snapshot changed under its reader");
        }
        // Released, its storage carries a later version.
        drop(held);
        assert!(
            (6..10).any(|r| round(r).as_ptr() == at),
            "the released snapshot was never built in again"
        );
        ps.shutdown();
    }

    #[test]
    fn storing_the_first_payload_is_zeroing_then_adding_it() {
        // Rounds of two workers, every dense payload kind first in turn,
        // over values where `0.0 + x` and `x` differ or could be
        // mistaken: ±0.0, NaN, ±Inf. The reference zeroes and adds. (A
        // `-0.0` stored as it stands would survive the 2-bit code 0
        // behind it and flip the sign of the `-0.0` weight.)
        let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.5];
        let n = specials.len();
        let raw = Compressed::Raw(specials.to_vec());
        let two_bit = Compressed::TwoBit {
            threshold: 0.25,
            packed: vec![0b10_01_00_11, 0b01_10],
            len: n,
        };
        let one_bit = Compressed::OneBit {
            scale: 0.5,
            signs: vec![0b10_1101],
            len: n,
        };
        let init: Vec<f32> = vec![0.0, -0.0, 1.0, -2.0, 3.0, -0.0];
        let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for order in [
            [raw.clone(), two_bit.clone()],
            [two_bit.clone(), raw.clone()],
            [one_bit.clone(), two_bit],
            [raw, one_bit],
        ] {
            let mut acc = vec![0.0f32; n];
            order.iter().for_each(|p| decompress_add(p, &mut acc));
            let step = |w: &[f32]| {
                let mut next = vec![0.0f32; n];
                cdsgd_tensor::kernel::sgd_step(&mut next, w, &acc, 0.5 / 2.0);
                next
            };

            let ps = ParamServer::start(vec![init.clone()], ServerConfig::new(2, 0.5));
            let c = ps.client();
            // A finished round leaves the buffer dirty for the next: the
            // same round twice.
            for _ in 0..2 {
                for (worker, p) in order.iter().enumerate() {
                    c.push(worker, 0, p.clone()).unwrap();
                }
            }
            let v1 = step(&init);
            assert_eq!(bits(&c.pull(0, 1).unwrap()), bits(&v1), "{order:?}");
            assert_eq!(bits(&c.pull(0, 2).unwrap()), bits(&step(&v1)), "{order:?}");
            ps.shutdown();
        }
    }
}
