//! The server thread: key-sharded weight store with synchronous
//! aggregation.

use crate::client::{PsClient, ReplyTx, Snapshot};
use crate::opt::{ServerOpt, ServerOptKind};
use crate::recover::{CheckpointTracker, Durability};
use crate::spares::Spares;
use crate::stats::TrafficStats;
use crate::Key;
use cdsgd_compress::{decompress, decompress_add, BufferPool, Compressed};
use cdsgd_net::wire::{pull_reply_frame_bytes, push_frame_bytes};
use cdsgd_net::NetError;
use cdsgd_telemetry::{Event, Op, Telemetry};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
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
    /// Emulated network seconds charged per transferred byte (0 = the
    /// in-process default, effectively infinite bandwidth). The server
    /// thread sleeps `bytes × delay` while handling each push and each
    /// pull reply, emulating a single shared full-duplex-less NIC; this
    /// is what lets the *real* trainer exhibit the paper's communication
    /// pressure (see the `fig5_real` harness).
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

pub(crate) enum Msg {
    Push {
        worker: usize,
        key: Key,
        payload: Compressed,
        /// Transport connection the push arrived on (0 = in-process).
        /// On an elastic server, pushes from a connection superseded by
        /// a later registration of the same worker are dropped — see
        /// the fencing note on `Members::owner`.
        conn: u64,
    },
    Pull {
        key: Key,
        min_version: u64,
        reply: ReplyTx<Result<Arc<[f32]>, NetError>>,
    },
    SetLr(f32),
    /// Read all weights and per-key versions (test/diagnostic support).
    Snapshot {
        reply: ReplyTx<Snapshot>,
    },
    /// Elastic membership: admit `worker` into the active set and reply
    /// with the per-key versions at admission (the versions the joiner's
    /// first pulls must target). On a fixed-membership server this is
    /// just the version handshake — the membership table is untouched.
    Join {
        worker: usize,
        /// Transport connection the registration arrived on (0 =
        /// in-process); becomes the worker's owning connection for push
        /// fencing on an elastic server.
        conn: u64,
        reply: ReplyTx<Vec<u64>>,
    },
    /// Elastic membership: `worker` departs gracefully. Its queued
    /// pushes still feed the rounds they were computed for; once
    /// drained it is gone and the quorum shrinks.
    Leave {
        worker: usize,
    },
    /// Elastic membership: roll back a tentative registration — the
    /// two-phase cross-shard join revoking a shard it admitted after a
    /// later shard failed. Honoured only when `conn` is the connection
    /// whose registration *promoted* the slot into the active set (see
    /// `Members::joined_by`): a cancel that trails a re-registration of
    /// an existing member is a no-op, so a rollback can never shrink the
    /// quorum below its pre-join size.
    CancelJoin {
        worker: usize,
        /// Transport connection the cancel arrived on (0 = in-process).
        conn: u64,
    },
    /// Elastic membership: liveness signal (pushes also count).
    Heartbeat {
        worker: usize,
    },
    /// Recovery: write a durable shard checkpoint of the current state
    /// now. Replies with the captured round, or `None` if the server has
    /// no checkpoint directory, the key versions are skewed (a round is
    /// mid-flight), or the write failed.
    Checkpoint {
        reply: ReplyTx<Option<u64>>,
    },
    Shutdown,
}

/// A parked pull: the version it waits for and where to send the reply.
type WaitingPull = (u64, ReplyTx<Result<Arc<[f32]>, NetError>>);

/// Membership state machine: `Register → Active → Draining → Gone`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MemberState {
    /// Gates round completion; its pushes are aggregated.
    Active,
    /// Departed, but queued pushes still feed the rounds they were
    /// computed for. No longer gates completion.
    Draining,
    /// Fully drained (or never joined). Slot may be re-admitted.
    Gone,
}

/// The server-side membership table. Indexed by worker id; grows on
/// `Join` of an unseen id, never shrinks (a departed worker's slot stays
/// `Gone` so ids remain stable).
struct Members {
    state: Vec<MemberState>,
    /// Last push or heartbeat per slot, for the liveness timeout.
    last_seen: Vec<Instant>,
    /// Per slot, the transport connection (`Transport::conn_id`) of the
    /// worker's most recent registration; 0 = never registered over the
    /// wire, accept pushes from anywhere. A registration *fences* the
    /// slot: a push for this worker from any other connection is a
    /// straggler from a superseded session (a link the reconnect layer
    /// abandoned, or a replaced worker's last gasp) whose unconsumed
    /// rounds the owner replays itself — aggregating the straggler too
    /// would double-count it. The in-process sentinel (conn 0) is never
    /// fenced on the push side either: it marks trusted same-process
    /// callers, not a supersedable wire session.
    owner: Vec<u64>,
    /// Per slot, the connection whose registration *promoted* it into
    /// the active set ([`NEVER_JOINED`] for the construction-time worker
    /// set). A join rollback (`Msg::CancelJoin`) is honoured only from
    /// this connection: it exactly undoes a tentative admission, while a
    /// cancel trailing a mere re-registration (a reconnect refreshing an
    /// already-active member) matches the *original* promoter and is
    /// therefore a no-op.
    joined_by: Vec<u64>,
}

/// Sentinel for `Members::joined_by`: the slot has been active since
/// construction (the initial worker set), so no registration promoted it
/// and no rollback may demote it.
const NEVER_JOINED: u64 = u64::MAX;

impl Members {
    fn new(n: usize) -> Self {
        Self {
            state: vec![MemberState::Active; n],
            last_seen: vec![Instant::now(); n],
            owner: vec![0; n],
            joined_by: vec![NEVER_JOINED; n],
        }
    }

    fn active(&self) -> usize {
        self.state
            .iter()
            .filter(|s| **s == MemberState::Active)
            .count()
    }

    fn any_active(&self) -> bool {
        self.state.contains(&MemberState::Active)
    }

    fn is_active(&self, w: usize) -> bool {
        w < self.state.len() && self.state[w] == MemberState::Active
    }

    /// Admit (or re-admit) `w` into the active set, growing the table if
    /// the id is new.
    fn admit(&mut self, w: usize, conn: u64) {
        if w >= self.state.len() {
            self.state.resize(w + 1, MemberState::Gone);
            self.last_seen.resize(w + 1, Instant::now());
            self.owner.resize(w + 1, 0);
            self.joined_by.resize(w + 1, NEVER_JOINED);
        }
        // Record the promoter only when this registration actually grew
        // the active set; a re-registration of an already-active member
        // keeps the original promoter, so its rollback is a no-op.
        if self.state[w] != MemberState::Active {
            self.joined_by[w] = conn;
        }
        self.state[w] = MemberState::Active;
        self.last_seen[w] = Instant::now();
        self.owner[w] = conn;
    }

    /// Would a push for `w` arriving on `conn` come from a connection
    /// superseded by a later registration? The in-process sentinel
    /// (`conn == 0`) is never fenced — see the note on `owner`.
    fn fenced(&self, w: usize, conn: u64) -> bool {
        conn != 0 && self.owner[w] != 0 && self.owner[w] != conn
    }

    /// First active worker silent past `timeout`, if any.
    fn timed_out(&self, timeout: Duration) -> Option<usize> {
        self.state.iter().enumerate().find_map(|(w, s)| {
            (*s == MemberState::Active && self.last_seen[w].elapsed() > timeout).then_some(w)
        })
    }

    /// Retire every draining worker whose queues are empty on all keys.
    fn sweep(&mut self, keys: &[KeyState]) {
        for w in 0..self.state.len() {
            if self.state[w] == MemberState::Draining
                && keys.iter().all(|k| k.pending[w].is_empty())
            {
                self.state[w] = MemberState::Gone;
            }
        }
    }
}

struct KeyState {
    /// Current weight snapshot. Immutable once served: every pull of
    /// this version shares the same allocation (`Arc` bump, zero copies),
    /// and the aggregate update *replaces* the Arc rather than mutating
    /// it.
    weights: Arc<[f32]>,
    /// Weights as of `version − 1`, kept so pulls can be served at an
    /// *exact* version. A worker that pushes round r and then pulls
    /// version r can race the server applying round r (its own push may
    /// complete the round), so the served version may already have moved
    /// one step ahead — never more, because the puller has not pushed
    /// round r+1 yet. Exact-version pulls keep delayed algorithms
    /// bit-deterministic and faithful to Algorithm 1.
    prev_weights: Arc<[f32]>,
    /// Snapshots rotated out of `prev_weights`: the next version is built
    /// in one that no puller, reply queue or model still holds.
    spares: Spares,
    /// Reusable aggregation buffer: each round's first payload is stored
    /// into it, the rest are added.
    acc: Vec<f32>,
    /// Pending pushes, one FIFO per worker. Delayed algorithms (OD-SGD /
    /// CD-SGD) legitimately run ahead: a fast worker may push round r+1
    /// before a slow worker has pushed round r, so rounds are matched by
    /// queue position, not arrival time.
    pending: Vec<std::collections::VecDeque<Compressed>>,
    /// Number of completed aggregate updates.
    version: u64,
    /// This key's optimizer instance (owns any momentum state), built
    /// from [`ServerConfig::opt`] at server start.
    opt: Box<dyn ServerOpt>,
    /// Pulls waiting for a version that doesn't exist yet.
    waiting: Vec<WaitingPull>,
    /// When the current round first became partial (some workers' pushes
    /// arrived, others' missing). `None` while no round is in flight.
    /// Drives [`ServerConfig::round_deadline`].
    partial_since: Option<Instant>,
}

/// Handle to a running parameter server. Dropping without calling
/// [`ParamServer::shutdown`] detaches the server thread (it exits when all
/// clients disconnect).
pub struct ParamServer {
    tx: Sender<Msg>,
    stats: Arc<TrafficStats>,
    pool: BufferPool,
    failure: Arc<Mutex<Option<NetError>>>,
    handle: Option<JoinHandle<()>>,
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
        let (tx, rx) = mpsc::channel();
        let stats = Arc::new(TrafficStats::with_telemetry(telemetry));
        let failure = Arc::new(Mutex::new(None));
        let pool = BufferPool::new();
        let stats2 = Arc::clone(&stats);
        let failure2 = Arc::clone(&failure);
        let pool2 = pool.clone();
        let handle = std::thread::Builder::new()
            .name("param-server".into())
            .spawn(move || server_loop(init, cfg, rx, stats2, pool2, failure2, durability))
            .expect("spawn server thread");
        Self {
            tx,
            stats,
            pool,
            failure,
            handle: Some(handle),
        }
    }

    /// A client handle usable from any thread.
    pub fn client(&self) -> PsClient {
        PsClient::new(self.tx.clone(), Arc::clone(&self.stats), self.pool.clone())
    }

    /// Traffic counters.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Shared ownership of the traffic counters, so a caller can keep
    /// reading them after the server itself has been consumed (e.g. to
    /// check final accounting once a training run shuts it down).
    pub fn shared_stats(&self) -> Arc<TrafficStats> {
        Arc::clone(&self.stats)
    }

    /// The payload buffer pool shared between this server and its
    /// clients. Buffers recycled by the server after decoding a push are
    /// handed back out through [`PsClient::pool`] /
    /// [`cdsgd_compress::GradientCompressor::compress_into`].
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The failure that ended aggregation, if the
    /// [`ServerConfig::round_deadline`] fired. `None` while healthy.
    pub fn failure(&self) -> Option<NetError> {
        self.failure.lock().expect("failure cell poisoned").clone()
    }

    /// Shared ownership of the failure cell, for front-ends (like the
    /// networked server) that surface the verdict after this handle is
    /// consumed.
    pub(crate) fn failure_arc(&self) -> Arc<Mutex<Option<NetError>>> {
        Arc::clone(&self.failure)
    }

    /// Stop the server thread and wait for it to exit.
    pub fn shutdown(mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ParamServer {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn server_loop(
    init: Vec<Vec<f32>>,
    mut cfg: ServerConfig,
    rx: Receiver<Msg>,
    stats: Arc<TrafficStats>,
    pool: BufferPool,
    failure: Arc<Mutex<Option<NetError>>>,
    durability: Durability,
) {
    // A restore replaces the initial weights, versions, and optimizer
    // state wholesale: the server picks up exactly where the checkpoint
    // captured it (key count and shapes must match the model).
    let restore = durability.restore;
    if let Some(r) = &restore {
        assert_eq!(r.weights.len(), init.len(), "restored key count mismatch");
        for (k, (res, ini)) in r.weights.iter().zip(&init).enumerate() {
            assert_eq!(res.len(), ini.len(), "restored length mismatch on key {k}");
        }
    }
    let start_round = restore.as_ref().map_or(0, |r| r.round);
    let restored: Vec<Option<(Vec<f32>, Vec<f32>)>> = match restore {
        Some(r) => {
            let mut opt_state = r.opt_state.into_iter();
            r.weights
                .into_iter()
                .map(|w| Some((w, opt_state.next().unwrap_or_default())))
                .collect()
        }
        None => vec![None; init.len()],
    };
    let mut keys: Vec<KeyState> = init
        .into_iter()
        .zip(restored)
        .map(|(weights, restored)| {
            let mut opt = cfg.opt.build();
            let weights = match restored {
                Some((w, o)) => {
                    opt.import_state(&o);
                    w
                }
                None => weights,
            };
            let len = weights.len();
            let weights: Arc<[f32]> = weights.into();
            KeyState {
                prev_weights: Arc::clone(&weights),
                weights,
                spares: Spares::default(),
                acc: vec![0.0; len],
                pending: vec![std::collections::VecDeque::new(); cfg.num_workers],
                version: start_round,
                opt,
                waiting: Vec::new(),
                partial_since: None,
            }
        })
        .collect();
    let mut ckpt = CheckpointTracker::new(durability.checkpoint, keys.len(), start_round);
    // Membership table. Without `cfg.elastic` it is frozen at
    // construction (workers 0..num_workers active forever), so every
    // round aggregates exactly `num_workers` pushes — the historical
    // behaviour, bit-for-bit.
    let mut members = Members::new(cfg.num_workers);
    // Once a round deadline fires, aggregation is over: `failed` holds the
    // verdict, every queued or future pull is answered with it, and pushes
    // are discarded. The loop keeps draining messages (so clients get
    // errors, not hangs) until shutdown.
    let mut failed: Option<NetError> = None;

    loop {
        // With a round deadline or heartbeat timeout armed, wake
        // periodically so a missing push or a silent worker is noticed
        // even when no message ever arrives again.
        let heartbeat = cfg.elastic.and_then(|e| e.heartbeat_timeout);
        let tick_source = match (cfg.round_deadline, heartbeat) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let msg = match tick_source {
            Some(deadline) if failed.is_none() => {
                let tick =
                    (deadline / 4).clamp(Duration::from_millis(5), Duration::from_millis(100));
                match rx.recv_timeout(tick) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            _ => match rx.recv() {
                Ok(m) => Some(m),
                Err(_) => break,
            },
        };
        match msg {
            Some(Msg::Push {
                worker,
                key,
                payload,
                conn,
            }) => {
                // Traffic is charged at the full encoded frame size (the
                // same bytes `cdsgd-net` puts on a socket: length prefix +
                // opcode + routing fields + payload), so in-process and
                // TCP runs report identical communication volume.
                let frame = push_frame_bytes(payload.wire_bytes());
                stats.record_push(frame);
                net_delay(cfg.delay_per_byte, frame);
                if failed.is_some() {
                    payload.recycle(&pool);
                    continue;
                }
                if cfg.elastic.is_some() {
                    // A push from a worker the server no longer knows
                    // (e.g. racing its own forced departure) is dropped
                    // rather than panicking the server thread.
                    if worker >= members.state.len() || members.state[worker] == MemberState::Gone {
                        payload.recycle(&pool);
                        continue;
                    }
                    // A straggler from a connection this worker's latest
                    // registration superseded: the new session replays
                    // whatever the completed rounds did not consume, so
                    // aggregating this copy too would double-count it.
                    if members.fenced(worker, conn) {
                        payload.recycle(&pool);
                        continue;
                    }
                    // Pushes also count as liveness.
                    members.last_seen[worker] = Instant::now();
                } else {
                    assert!(worker < cfg.num_workers, "worker id out of range");
                }
                let ks = &mut keys[key];
                assert_eq!(payload.len(), ks.weights.len(), "gradient length mismatch");
                ks.pending[worker].push_back(payload);
                pump_key(key, ks, &members, &cfg, &stats, &pool, &mut ckpt);
                members.sweep(&keys);
            }
            Some(Msg::Join {
                worker,
                conn,
                reply,
            }) => {
                if failed.is_some() {
                    // Dropping `reply` fails the registration.
                    continue;
                }
                if cfg.elastic.is_some() {
                    members.admit(worker, conn);
                    for ks in &mut keys {
                        ks.pending
                            .resize_with(members.state.len(), Default::default);
                        // Admission clears the slot's queued pushes — a
                        // no-op for fresh joiners (empty queues), but
                        // load-bearing for re-admissions: a reconnecting
                        // worker replays every push the completed rounds
                        // did not consume, and a replacement must not
                        // inherit a dead predecessor's leftovers. Either
                        // way, stale queued pushes would double-count.
                        for stale in ks.pending[worker].drain(..) {
                            stale.recycle(&pool);
                        }
                    }
                    let active = members.active();
                    stats
                        .telemetry()
                        .emit(|| Event::WorkerJoined { worker, active });
                }
                // Ack the per-key versions at admission: no round can
                // complete without the joiner from here on, so these are
                // exactly the versions its first pulls must target.
                let versions = keys.iter().map(|k| k.version).collect();
                reply.send(versions);
            }
            Some(Msg::Leave { worker }) if failed.is_none() && members.is_active(worker) => {
                if let Some(e) = cfg.elastic {
                    demote_member(
                        worker,
                        e,
                        &mut keys,
                        &mut members,
                        &cfg,
                        &stats,
                        &pool,
                        &mut ckpt,
                        &failure,
                        &mut failed,
                    );
                }
            }
            // A two-phase join rollback: the registering client revokes
            // its own tentative admission. The `joined_by` fence makes
            // this exact — only the connection whose registration
            // *promoted* the slot may demote it, so a cancel that trails
            // a re-registration of an established member (a reconnect
            // refresh) falls through to the ignore arm below and cannot
            // shrink the quorum past its pre-join size.
            Some(Msg::CancelJoin { worker, conn })
                if failed.is_none()
                    && members.is_active(worker)
                    && members.joined_by[worker] == conn =>
            {
                if let Some(e) = cfg.elastic {
                    demote_member(
                        worker,
                        e,
                        &mut keys,
                        &mut members,
                        &cfg,
                        &stats,
                        &pool,
                        &mut ckpt,
                        &failure,
                        &mut failed,
                    );
                }
            }
            // Only an *Active* slot's liveness is refreshed: a heartbeat
            // that trails a Leave (or arrives for an evicted/unknown id)
            // must not touch a Draining or Gone slot — the goodbye wins.
            Some(Msg::Heartbeat { worker })
                if cfg.elastic.is_some() && members.is_active(worker) =>
            {
                members.last_seen[worker] = Instant::now();
            }
            // Leave/CancelJoin/Heartbeat from an unknown or inactive
            // worker, a cancel from a connection that didn't promote the
            // slot, or anything after the run already failed: ignored
            // (the guards above filtered them out).
            Some(Msg::Leave { .. })
            | Some(Msg::CancelJoin { .. })
            | Some(Msg::Heartbeat { .. }) => {}
            Some(Msg::Pull {
                key,
                min_version,
                reply,
            }) => {
                if let Some(err) = &failed {
                    reply.send(Err(err.clone()));
                    continue;
                }
                let Some(ks) = keys.get_mut(key) else {
                    reply.send(Err(NetError::Io(format!(
                        "pull of key {key}: this server owns keys 0..{}",
                        keys.len()
                    ))));
                    continue;
                };
                if ks.version == min_version {
                    let frame = pull_reply_frame_bytes(ks.weights.len());
                    stats.record_pull(frame);
                    net_delay(cfg.delay_per_byte, frame);
                    reply.send(Ok(Arc::clone(&ks.weights)));
                } else if ks.version == min_version + 1 {
                    // The puller raced one aggregate behind; serve the
                    // exact requested version from the history.
                    let frame = pull_reply_frame_bytes(ks.prev_weights.len());
                    stats.record_pull(frame);
                    net_delay(cfg.delay_per_byte, frame);
                    reply.send(Ok(Arc::clone(&ks.prev_weights)));
                } else if ks.version > min_version {
                    // Only the latest two versions are kept; a request
                    // from a socket must not take the shard down, so the
                    // stale pull alone fails.
                    reply.send(Err(NetError::Io(format!(
                        "pull of version {min_version} for key {key} arrived after \
                         version {} — workers may lag at most one round",
                        ks.version
                    ))));
                } else {
                    ks.waiting.push((min_version, reply));
                }
            }
            Some(Msg::SetLr(lr)) => cfg.global_lr = lr,
            Some(Msg::Snapshot { reply }) => {
                let w = keys.iter().map(|k| k.weights.to_vec()).collect();
                let v = keys.iter().map(|k| k.version).collect();
                reply.send((w, v));
            }
            Some(Msg::Checkpoint { reply }) => {
                let round = min_version(&keys);
                let result = match ckpt.policy() {
                    None => {
                        eprintln!("checkpoint: refused: server has no checkpoint directory");
                        None
                    }
                    Some(_) if keys.iter().any(|k| k.version != round) => {
                        eprintln!("checkpoint: refused: key versions are skewed (round in flight)");
                        None
                    }
                    Some(p) => {
                        let snap = keys
                            .iter()
                            .map(|k| (k.weights.to_vec(), k.opt.export_state()));
                        p.write(round, snap).then_some(round)
                    }
                };
                reply.send(result);
            }
            Some(Msg::Shutdown) => break,
            None => {}
        }
        if failed.is_none() {
            if let Some(deadline) = cfg.round_deadline {
                if let Some((key, err)) = check_round_deadline(&keys, &members, deadline) {
                    if let NetError::WorkerLost { id, round } = err {
                        stats.telemetry().emit(|| Event::RoundExpired {
                            key,
                            round,
                            victim: id,
                        });
                    }
                    fail_now(&mut keys, &failure, &mut failed, err);
                }
            }
        }
        // Liveness sweep: force out active workers silent past the
        // heartbeat timeout (an ungraceful departure — same drain
        // semantics as `Leave`, but flagged in telemetry).
        if failed.is_none() {
            if let Some(e) = cfg.elastic {
                if let Some(timeout) = e.heartbeat_timeout {
                    while let Some(w) = members.timed_out(timeout) {
                        if members.active().saturating_sub(1) < e.min_quorum {
                            let round = min_version(&keys);
                            fail_now(
                                &mut keys,
                                &failure,
                                &mut failed,
                                NetError::WorkerLost { id: w, round },
                            );
                            break;
                        }
                        members.state[w] = MemberState::Draining;
                        let active = members.active();
                        stats.telemetry().emit(|| Event::WorkerLeft {
                            worker: w,
                            active,
                            graceful: false,
                        });
                        for (key, ks) in keys.iter_mut().enumerate() {
                            pump_key(key, ks, &members, &cfg, &stats, &pool, &mut ckpt);
                        }
                        members.sweep(&keys);
                    }
                }
            }
        }
    }
}

/// Demote an active `worker` to `Draining` — the shared tail of a
/// graceful `Leave` and a join rollback's `CancelJoin`. A *partial*
/// membership below the quorum fails the run; a full graceful drain to
/// zero is a valid end state — the server idles, ready for new joins or
/// a controller's shutdown. (A pool of min_quorum q can only reach zero
/// gracefully when q == 1, stepping 1 → 0.)
#[allow(clippy::too_many_arguments)]
fn demote_member(
    worker: usize,
    e: ElasticConfig,
    keys: &mut [KeyState],
    members: &mut Members,
    cfg: &ServerConfig,
    stats: &TrafficStats,
    pool: &BufferPool,
    ckpt: &mut CheckpointTracker,
    failure: &Mutex<Option<NetError>>,
    failed: &mut Option<NetError>,
) {
    members.state[worker] = MemberState::Draining;
    let active = members.active();
    stats.telemetry().emit(|| Event::WorkerLeft {
        worker,
        active,
        graceful: true,
    });
    if active > 0 && active < e.min_quorum {
        let round = min_version(keys);
        fail_now(
            keys,
            failure,
            failed,
            NetError::WorkerLost { id: worker, round },
        );
    } else {
        // The departed worker no longer gates round completion: pump
        // every key.
        for (key, ks) in keys.iter_mut().enumerate() {
            pump_key(key, ks, members, cfg, stats, pool, ckpt);
        }
        members.sweep(keys);
    }
}

/// Complete every round this key can: a round fires when all *active*
/// workers have a queued push, and aggregates one push from every worker
/// with a non-empty queue (active and draining alike, in worker-id order
/// — fixed iteration order keeps f32 summation bit-deterministic). The
/// update divides by the actual contributor count. With fixed membership
/// every worker is always active, so this is exactly the historical
/// `while all non-empty` loop with divisor `num_workers`.
#[allow(clippy::too_many_arguments)]
fn pump_key(
    key: Key,
    ks: &mut KeyState,
    members: &Members,
    cfg: &ServerConfig,
    stats: &TrafficStats,
    pool: &BufferPool,
    ckpt: &mut CheckpointTracker,
) {
    loop {
        let complete = members.any_active()
            && members
                .state
                .iter()
                .zip(&ks.pending)
                .all(|(s, q)| *s != MemberState::Active || !q.is_empty());
        if !complete {
            break;
        }
        // Each decode is one "dequant" span on the server's lane — one
        // past the last worker's — for the round it feeds. The first
        // payload is stored over whatever the last round left in `acc`
        // (as `0.0 + x`: the bits of zeroing it and adding), the rest add.
        let (tel, lane) = (stats.telemetry(), ks.pending.len());
        let mut contributors = 0usize;
        for q in ks.pending.iter_mut() {
            if let Some(p) = q.pop_front() {
                let t = tel.span_start();
                if contributors == 0 {
                    decompress(&p, &mut ks.acc);
                } else {
                    decompress_add(&p, &mut ks.acc);
                }
                tel.span_end(lane, Op::Decompress, ks.version, t);
                // Payload storage goes back to the shared pool so the
                // next compress_into can reuse it.
                p.recycle(pool);
                contributors += 1;
            }
        }
        apply_update(ks, cfg, contributors, stats);
        ks.version += 1;
        // Scheduled checkpoints capture each key the instant it crosses
        // the boundary round (versions advance one at a time, so every
        // boundary is observed); the file is written once all keys have.
        ckpt.observe(key, ks.version, &ks.weights, ks.opt.as_ref());
        let version = ks.version;
        stats
            .telemetry()
            .emit(|| Event::RoundComplete { key, version });
        // Release any pulls now satisfied, in the order they parked.
        for (_, reply) in ks.waiting.extract_if(.., |w| w.0 <= version) {
            let frame = pull_reply_frame_bytes(ks.weights.len());
            stats.record_pull(frame);
            net_delay(cfg.delay_per_byte, frame);
            reply.send(Ok(Arc::clone(&ks.weights)));
        }
    }
    // Start (or clear) the partial-round clock for this key. The
    // lifecycle event fires only on the empty→partial transition, once
    // per round, not per straggling push.
    let partial = ks.pending.iter().any(|q| !q.is_empty());
    if partial {
        if ks.partial_since.is_none() {
            ks.partial_since = Some(Instant::now());
            let round = ks.version;
            stats
                .telemetry()
                .emit(|| Event::RoundPartial { key, round });
        }
    } else {
        ks.partial_since = None;
    }
}

/// Lowest completed version across keys — the round a failure is
/// attributed to.
fn min_version(keys: &[KeyState]) -> u64 {
    keys.iter().map(|k| k.version).min().unwrap_or(0)
}

/// Enter the failed state: publish the verdict, fail every parked pull
/// (they would otherwise block forever on rounds that can no longer
/// complete), and remember it so future messages fail fast.
fn fail_now(
    keys: &mut [KeyState],
    failure: &Mutex<Option<NetError>>,
    failed: &mut Option<NetError>,
    err: NetError,
) {
    *failure.lock().expect("failure cell poisoned") = Some(err.clone());
    for ks in keys.iter_mut() {
        for (_, reply) in ks.waiting.drain(..) {
            reply.send(Err(err.clone()));
        }
    }
    *failed = Some(err);
}

/// If any key's round has been partial past `deadline`, name the victim:
/// the lowest-id *active* worker whose push for that round never arrived
/// (draining and gone workers legitimately have empty queues). The
/// unfinishable round is `version` (rounds are 0-indexed; `version`
/// counts completed ones). Returns the offending key alongside the error
/// so the caller can attribute the expiry in telemetry.
fn check_round_deadline(
    keys: &[KeyState],
    members: &Members,
    deadline: Duration,
) -> Option<(Key, NetError)> {
    for (key, ks) in keys.iter().enumerate() {
        let since = match ks.partial_since {
            Some(t) => t,
            None => continue,
        };
        if since.elapsed() < deadline {
            continue;
        }
        let id = match ks
            .pending
            .iter()
            .enumerate()
            .position(|(w, q)| members.is_active(w) && q.is_empty())
        {
            Some(id) => id,
            // Every active worker has pushed; the round completes on the
            // next pump, so there is nothing to expire.
            None => continue,
        };
        return Some((
            key,
            NetError::WorkerLost {
                id,
                round: ks.version,
            },
        ));
    }
    None
}

/// Emulated transfer time for `bytes` at the configured delay.
fn net_delay(delay_per_byte: f64, bytes: usize) {
    if delay_per_byte > 0.0 {
        std::thread::sleep(std::time::Duration::from_secs_f64(
            delay_per_byte * bytes as f64,
        ));
    }
}

/// `W ← W − η/N · opt(acc)`, eq. 10 generalized over the key's
/// [`ServerOpt`] (plain SGD for the paper's rule), with `N` the number
/// of workers whose pushes fed this round (`contributors`). Fixed
/// membership makes that always `cfg.num_workers`.
///
/// The optimizer writes the new version (the one build per round,
/// counted in [`TrafficStats::bytes_copied`]) into a snapshot nobody
/// else holds — one this key rotated out earlier, so a steady-state
/// round allocates nothing — which rotates the old snapshot into
/// `prev_weights`; pulls of either version are then served by
/// reference-count bumps alone.
fn apply_update(ks: &mut KeyState, cfg: &ServerConfig, contributors: usize, stats: &TrafficStats) {
    let step = cfg.global_lr / contributors as f32;
    let mut next = ks.spares.take(ks.weights.len());
    let slot = Arc::get_mut(&mut next).expect("a taken spare has one owner");
    ks.opt.apply_into(slot, &ks.weights, &ks.acc, step);
    stats.record_copy(4 * next.len());
    let current = std::mem::replace(&mut ks.weights, next);
    let retired = std::mem::replace(&mut ks.prev_weights, current);
    // Until the first update both slots hold the initial snapshot: its
    // second handle is no spare, it could never become unique.
    if !Arc::ptr_eq(&retired, &ks.prev_weights) {
        ks.spares.retire(retired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // The server thread survived both and keeps serving.
        assert_eq!(*c.pull(0, 1).unwrap(), [-1.0]);
        assert_eq!(*c.pull(0, 2).unwrap(), [-2.0]);
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
    fn round_deadline_names_the_missing_worker() {
        // Two workers; only worker 0 pushes. The round stays partial past
        // the deadline, so pulls fail with WorkerLost { id: 1 } instead of
        // blocking forever — and the verdict is queryable on the handle.
        let ps = ParamServer::start(
            vec![vec![0.0]],
            ServerConfig::new(2, 1.0).with_round_deadline(Duration::from_millis(50)),
        );
        let c = ps.client();
        c.push(0, 0, Compressed::Raw(vec![1.0])).unwrap();
        let err = c.pull(0, 1).unwrap_err();
        assert_eq!(err, NetError::WorkerLost { id: 1, round: 0 });
        assert_eq!(ps.failure(), Some(NetError::WorkerLost { id: 1, round: 0 }));
        // Later pulls fail fast with the same verdict.
        assert_eq!(
            c.pull(0, 0).unwrap_err(),
            NetError::WorkerLost { id: 1, round: 0 }
        );
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
    fn expired_round_emits_round_expired() {
        use cdsgd_telemetry::MemorySink;
        let mem = Arc::new(MemorySink::new());
        let ps = ParamServer::start_with(
            vec![vec![0.0]],
            ServerConfig::new(2, 1.0).with_round_deadline(Duration::from_millis(50)),
            Telemetry::new(mem.clone()),
            Durability::default(),
        );
        let c = ps.client();
        c.push(0, 0, Compressed::Raw(vec![1.0])).unwrap();
        c.pull(0, 1).unwrap_err();
        assert!(mem.events().contains(&Event::RoundExpired {
            key: 0,
            round: 0,
            victim: 1,
        }));
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
        // Worker 0 registers over a transport connection (id 7), which
        // fences pushes from *other wire connections*…
        assert_eq!(c.join_async_from(7, 0).unwrap().recv().unwrap(), vec![0]);
        // …but never the in-process sentinel: conn 0 marks a trusted
        // same-process caller, not a supersedable wire session.
        c.push(0, 0, Compressed::Raw(vec![2.0])).unwrap();
        assert_eq!(*c.pull(0, 1).unwrap(), [-2.0]);
        // A straggler from a superseded wire connection is still dropped.
        c.push_from(3, 0, 0, Compressed::Raw(vec![100.0])).unwrap();
        c.push_from(7, 0, 0, Compressed::Raw(vec![2.0])).unwrap();
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
        // The failure cell is written by the server thread; poll briefly.
        let t = Instant::now();
        while ps.failure().is_none() && t.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ps.failure(), Some(NetError::WorkerLost { id: 1, round: 0 }));
        assert!(c.pull(0, 1).is_err());
        ps.shutdown();
    }

    #[test]
    fn heartbeat_timeout_forces_out_a_silent_worker() {
        use cdsgd_telemetry::MemorySink;
        let mem = Arc::new(MemorySink::new());
        let ps = ParamServer::start_with(
            vec![vec![0.0]],
            ServerConfig::new(2, 1.0).with_elastic(
                ElasticConfig::new(1).with_heartbeat_timeout(Duration::from_millis(50)),
            ),
            Telemetry::new(mem.clone()),
            Durability::default(),
        );
        let c = ps.client();
        // Worker 0 stays live via heartbeats while worker 1 goes silent;
        // once it's forced out, worker 0 alone completes rounds.
        let alive = {
            let c = c.clone();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let _ = c.heartbeat(0);
                    std::thread::sleep(Duration::from_millis(10));
                }
            })
        };
        c.push(0, 0, Compressed::Raw(vec![2.0])).unwrap();
        assert_eq!(*c.pull(0, 1).unwrap(), [-2.0]);
        alive.join().unwrap();
        assert!(
            mem.events().contains(&Event::WorkerLeft {
                worker: 1,
                active: 1,
                graceful: false,
            }),
            "forced departure must be reported: {:?}",
            mem.events()
        );
        assert_eq!(ps.failure(), None, "quorum still satisfied");
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
