//! The shard core: every decision a parameter-server shard makes, and
//! none of its I/O.
//!
//! [`Shard`] owns the per-key stores, the membership table, the
//! checkpoint tracker and the failed verdict. Its input is one request —
//! the [`WireMsg`] a client sent, the connection it arrived on (0 =
//! in-process) and, for the kinds that are answered, a reply handle — or
//! a tick, each with the caller's `now`. Its output is the replies it
//! owes, each paired with the handle it was given. It never sleeps, never
//! reads the clock (the telemetry span clock aside, which decides
//! nothing) and never sends on a channel. Whichever thread delivers a
//! message to a [`crate::ParamServer`] — a worker's request, a `psd` I/O
//! thread, a waiter whose answer is not ready — does those under the
//! server's one lock (`crate::server`), and a test runs the core with
//! plain tokens and a fake clock.
//!
//! The three rules CD-SGD's correctness rests on live here and nowhere
//! else: synchronous per-key aggregation (paper eq. 10), the exact
//! two-version pull window Algorithm 1's deferred pulls need, and the
//! membership and fencing rules that keep each push counted once
//! (DESIGN.md §13).
//!
//! A completed round is one pass over its key ([`round_pass`]): block by
//! block, the first payload is decoded into a [`BLOCK`]-element stack
//! buffer, the others are added in worker order, and the key's optimizer
//! writes that block of the next snapshot. No key-sized sum exists, so a
//! 2-bit round streams the model twice (old weights in, new weights out)
//! and a raw round adds one read per contributor.

use crate::opt::ServerOpt;
use crate::recover::{CheckpointTracker, Durability};
use crate::server::ServerConfig;
use crate::spares::Spares;
use crate::stats::TrafficStats;
use crate::Key;
use cdsgd_compress::{decompress_add_block, decompress_block, BufferPool, Compressed};
use cdsgd_net::wire::WireMsg;
use cdsgd_net::NetError;
use cdsgd_telemetry::{Event, Op};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker ids an *elastic* shard admits are `0..MAX_ELASTIC_WORKERS`.
/// Admission sizes the membership tables and every key's queue table to
/// the id, so an unchecked `Register` could make the shard allocate
/// whatever a socket asks for.
pub const MAX_ELASTIC_WORKERS: usize = 4096;

/// A reply the core owes: the handle its request came with, and the
/// answer.
pub(crate) type Owed<R> = (R, Result<WireMsg, NetError>);

/// Which pushes a shard accepts: from a worker id it admits, to a key it
/// owns, at that key's length. The one admission check — the core runs it
/// on every push, and the I/O loop on every push frame's head, before
/// anything is reserved for its payload.
#[derive(Clone)]
pub(crate) struct Admission {
    key_lens: Arc<[usize]>,
    /// Worker ids are `0..max_workers`: the fixed quorum, or
    /// [`MAX_ELASTIC_WORKERS`] on an elastic shard.
    max_workers: usize,
}

impl Admission {
    pub(crate) fn new(init: &[Vec<f32>], cfg: &ServerConfig) -> Self {
        Self {
            key_lens: init.iter().map(Vec::len).collect(),
            max_workers: match cfg.elastic {
                Some(_) => MAX_ELASTIC_WORKERS,
                None => cfg.num_workers,
            },
        }
    }

    /// The longest key this shard holds.
    pub(crate) fn longest_key(&self) -> usize {
        self.key_lens.iter().copied().max().unwrap_or(0)
    }

    /// An admissible worker id, or the [`NetError::Decode`] naming the
    /// request (`what`) and the id.
    pub(crate) fn worker(&self, what: &str, worker: u32) -> Result<usize, NetError> {
        let w = worker as usize;
        if w < self.max_workers {
            Ok(w)
        } else {
            Err(NetError::Decode(format!(
                "{what} from worker id {w}: this shard admits ids 0..{}",
                self.max_workers
            )))
        }
    }

    /// The `(worker, key)` of a push of `len` elements, or the
    /// [`NetError::Decode`] naming the push.
    pub(crate) fn push(&self, worker: u32, key: u32, len: usize) -> Result<(usize, Key), NetError> {
        let key = key as usize;
        let holds = self.key_lens.get(key);
        if holds != Some(&len) {
            return Err(NetError::Decode(format!(
                "push of {len} elements to key {key}, which holds {holds:?} \
                 on this shard of {} keys",
                self.key_lens.len()
            )));
        }
        Ok((self.worker("push", worker)?, key))
    }

    /// [`Admission::push`] of a whole payload: a Top-k payload's indices
    /// must also ascend strictly and stay inside the key — the order
    /// [`round_pass`] walks them in.
    pub(crate) fn push_payload(
        &self,
        worker: u32,
        key: u32,
        payload: &Compressed,
    ) -> Result<(usize, Key), NetError> {
        let at = self.push(worker, key, payload.len())?;
        if let Compressed::TopK { indices, len, .. } = payload {
            let unordered = indices.windows(2).find(|w| w[0] >= w[1]);
            if let Some(w) = unordered {
                return Err(NetError::Decode(format!(
                    "push to key {key}: Top-k index {} follows {}; indices must ascend strictly",
                    w[1], w[0]
                )));
            }
            if let Some(&last) = indices.last().filter(|&&i| i as usize >= *len) {
                return Err(NetError::Decode(format!(
                    "push to key {key}: Top-k index {last} out of range for {len} elements"
                )));
            }
        }
        Ok(at)
    }
}

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

/// The membership table. Indexed by worker id; grows on `Register` of an
/// unseen id, never shrinks (a departed worker's slot stays `Gone` so ids
/// remain stable).
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
    /// set). A join rollback (`CancelJoin`) is honoured only from this
    /// connection: it exactly undoes a tentative admission, while a
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
    fn new(n: usize, now: Instant) -> Self {
        Self {
            state: vec![MemberState::Active; n],
            last_seen: vec![now; n],
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

    fn is_active(&self, w: usize) -> bool {
        self.state.get(w) == Some(&MemberState::Active)
    }

    /// Admit (or re-admit) `w` into the active set, growing the table if
    /// the id is new.
    fn admit(&mut self, w: usize, conn: u64, now: Instant) {
        if w >= self.state.len() {
            self.state.resize(w + 1, MemberState::Gone);
            self.last_seen.resize(w + 1, now);
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
        self.last_seen[w] = now;
        self.owner[w] = conn;
    }

    /// Would a push for `w` arriving on `conn` come from a connection
    /// superseded by a later registration? The in-process sentinel
    /// (`conn == 0`) is never fenced — see the note on `owner`.
    fn fenced(&self, w: usize, conn: u64) -> bool {
        conn != 0 && self.owner[w] != 0 && self.owner[w] != conn
    }

    /// First active worker silent past `timeout` at `now`, if any.
    fn timed_out(&self, timeout: Duration, now: Instant) -> Option<usize> {
        self.state.iter().enumerate().find_map(|(w, s)| {
            let silent = now.saturating_duration_since(self.last_seen[w]);
            (*s == MemberState::Active && silent > timeout).then_some(w)
        })
    }

    /// Retire every draining worker whose queues are empty on all keys.
    fn sweep<R>(&mut self, keys: &[KeyState<R>]) {
        for w in 0..self.state.len() {
            if self.state[w] == MemberState::Draining
                && keys.iter().all(|k| k.pending[w].is_empty())
            {
                self.state[w] = MemberState::Gone;
            }
        }
    }
}

struct KeyState<R> {
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
    /// Pending pushes, one FIFO per worker. Delayed algorithms (OD-SGD /
    /// CD-SGD) legitimately run ahead: a fast worker may push round r+1
    /// before a slow worker has pushed round r, so rounds are matched by
    /// queue position, not arrival time.
    pending: Vec<VecDeque<Compressed>>,
    /// Number of completed aggregate updates.
    version: u64,
    /// This key's optimizer instance (owns any momentum state), built
    /// from [`ServerConfig::opt`] at server start.
    opt: Box<dyn ServerOpt>,
    /// Pulls parked for a version that doesn't exist yet: the version
    /// each asked for, and its reply handle.
    waiting: Vec<(u64, R)>,
    /// When the current round first became partial (some workers' pushes
    /// arrived, others' missing). `None` while no round is in flight.
    /// Drives [`ServerConfig::round_deadline`].
    partial_since: Option<Instant>,
}

/// One parameter-server shard's state and rules, generic over the handle
/// a reply is delivered through (see the module docs).
pub(crate) struct Shard<R> {
    cfg: ServerConfig,
    admission: Admission,
    keys: Vec<KeyState<R>>,
    /// Without `cfg.elastic` the table is frozen at construction (workers
    /// `0..num_workers` active forever), so every round aggregates
    /// exactly `num_workers` pushes — the historical behaviour,
    /// bit-for-bit.
    members: Members,
    ckpt: CheckpointTracker,
    /// Once set, aggregation is over: every parked or later pull is
    /// answered with it and pushes are discarded, so clients get errors,
    /// not hangs.
    failed: Option<NetError>,
    /// Round-lifecycle events and snapshot-copy bytes go out here.
    stats: Arc<TrafficStats>,
    /// Where aggregated payloads' storage is recycled.
    pool: BufferPool,
    /// The payloads of the round in progress, in worker order; reused, so
    /// a steady-state round allocates nothing.
    round: Vec<Compressed>,
    /// The caller's clock for the request or tick in progress.
    now: Instant,
    /// The answers the request or tick in progress made due.
    owed: Vec<Owed<R>>,
    /// Payloads aggregated so far, for the exactly-once checks.
    #[cfg(test)]
    aggregated: usize,
}

impl<R> Shard<R> {
    /// A shard owning `init` (one vector per key), or the state
    /// `durability` restores in its place.
    ///
    /// # Panics
    /// Panics if a restored checkpoint's key count or shapes differ from
    /// `init`'s, or if a restored optimizer state is neither empty nor
    /// exactly its key's length.
    pub(crate) fn new(
        init: Vec<Vec<f32>>,
        cfg: ServerConfig,
        durability: Durability,
        stats: Arc<TrafficStats>,
        pool: BufferPool,
        now: Instant,
    ) -> Self {
        let admission = Admission::new(&init, &cfg);
        // A restore replaces the initial weights, versions, and optimizer
        // state wholesale: the shard picks up exactly where the checkpoint
        // captured it (key count and shapes must match the model).
        let restore = durability.restore;
        if let Some(r) = &restore {
            assert_eq!(r.weights.len(), init.len(), "restored key count mismatch");
            for (k, (res, ini)) in r.weights.iter().zip(&init).enumerate() {
                assert_eq!(res.len(), ini.len(), "restored length mismatch on key {k}");
            }
            // A velocity is indexed by block offset: one of another
            // length would be sliced out of bounds, or silently restart.
            for (k, (state, ini)) in r.opt_state.iter().zip(&init).enumerate() {
                assert!(
                    state.is_empty() || state.len() == ini.len(),
                    "restored optimizer state of {} elements on key {k}, which holds {}",
                    state.len(),
                    ini.len()
                );
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
        let keys: Vec<KeyState<R>> = init
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
                let weights: Arc<[f32]> = weights.into();
                KeyState {
                    prev_weights: Arc::clone(&weights),
                    weights,
                    spares: Spares::default(),
                    pending: vec![VecDeque::new(); cfg.num_workers],
                    version: start_round,
                    opt,
                    waiting: Vec::new(),
                    partial_since: None,
                }
            })
            .collect();
        Self {
            ckpt: CheckpointTracker::new(durability.checkpoint, keys.len(), start_round),
            members: Members::new(cfg.num_workers, now),
            cfg,
            admission,
            keys,
            failed: None,
            stats,
            pool,
            round: Vec::new(),
            now,
            owed: Vec::new(),
            #[cfg(test)]
            aggregated: 0,
        }
    }

    /// The failure that ended aggregation, if any.
    pub(crate) fn failure(&self) -> Option<&NetError> {
        self.failed.as_ref()
    }

    /// How long the caller may wait for a request before it must
    /// [`Shard::tick`], so a missing push or a silent worker is noticed
    /// even when no message ever arrives again. `None`: no timer is armed
    /// (or the shard already failed), wait as long as it takes.
    pub(crate) fn tick_every(&self) -> Option<Duration> {
        if self.failed.is_some() {
            return None;
        }
        let heartbeat = self.cfg.elastic.and_then(|e| e.heartbeat_timeout);
        let soonest = match (self.cfg.round_deadline, heartbeat) {
            (Some(a), Some(b)) => a.min(b),
            (a, b) => a.or(b)?,
        };
        Some((soonest / 4).clamp(Duration::from_millis(5), Duration::from_millis(100)))
    }

    /// Handle one request from connection `conn` (0 = in-process) at
    /// `now`. `reply` is where the answer goes, for the kinds that are
    /// [`cdsgd_net::wire::answered`]. Returns every reply the request made
    /// due: its own, and those of parked pulls it released or failed.
    pub(crate) fn on(
        &mut self,
        conn: u64,
        msg: WireMsg,
        reply: Option<R>,
        now: Instant,
    ) -> Vec<Owed<R>> {
        self.now = now;
        match msg {
            WireMsg::Push {
                worker,
                key,
                payload,
            } => self.push(conn, worker, key, payload),
            WireMsg::Pull { key, min_version } => {
                if let Some(reply) = reply {
                    self.pull(key, min_version, reply);
                }
            }
            WireMsg::SetLr { lr } => self.cfg.global_lr = lr,
            WireMsg::Snapshot => {
                let weights = self.keys.iter().map(|k| k.weights.to_vec()).collect();
                let versions = self.versions();
                let snapshot = WireMsg::SnapshotReply { weights, versions };
                self.owed.extend(reply.map(|r| (r, Ok(snapshot))));
            }
            WireMsg::Register { worker } => {
                let ack = match self.failed.clone() {
                    Some(err) => Err(err),
                    None => self.register(worker, conn),
                };
                self.owed.extend(reply.map(|r| (r, ack)));
            }
            WireMsg::Leave { worker } => self.depart(worker as usize, None),
            WireMsg::CancelJoin { worker } => self.depart(worker as usize, Some(conn)),
            // Only an *Active* slot's liveness is refreshed: a heartbeat
            // that trails a Leave (or arrives for an evicted/unknown id)
            // must not touch a Draining or Gone slot — the goodbye wins.
            WireMsg::Heartbeat { worker } => {
                let w = worker as usize;
                if self.cfg.elastic.is_some() && self.members.is_active(w) {
                    self.members.last_seen[w] = now;
                }
            }
            WireMsg::Checkpoint => {
                let round = self.checkpoint();
                let ack = WireMsg::CheckpointAck { round };
                self.owed.extend(reply.map(|r| (r, Ok(ack))));
            }
            // Stopping is the host's to do (`crate::server`); the core
            // has nothing to decide.
            WireMsg::Shutdown => {}
            WireMsg::PullReply { .. }
            | WireMsg::SnapshotReply { .. }
            | WireMsg::RegisterAck { .. }
            | WireMsg::CheckpointAck { .. } => {
                let err = NetError::Decode("a server-to-client frame sent to the server".into());
                self.owed.extend(reply.map(|r| (r, Err(err))));
            }
        }
        self.tick(now)
    }

    /// Run the round deadline and the liveness sweep at `now` — after
    /// every request, and when nothing arrived within
    /// [`Shard::tick_every`].
    pub(crate) fn tick(&mut self, now: Instant) -> Vec<Owed<R>> {
        self.now = now;
        self.check_timers();
        std::mem::take(&mut self.owed)
    }

    fn versions(&self) -> Vec<u64> {
        self.keys.iter().map(|k| k.version).collect()
    }

    /// Lowest completed version across keys — the round a failure is
    /// attributed to.
    fn min_version(&self) -> u64 {
        self.keys.iter().map(|k| k.version).min().unwrap_or(0)
    }

    fn push(&mut self, conn: u64, worker: u32, key: u32, payload: Compressed) {
        if self.failed.is_some() {
            payload.recycle(&self.pool);
            return;
        }
        let (worker, key) = match self.admission.push_payload(worker, key, &payload) {
            Ok(at) => at,
            // The wire path never gets here (the I/O loop refuses the
            // frame and retires its connection); a trusted in-process
            // caller that does has broken the run.
            Err(err) => {
                payload.recycle(&self.pool);
                return self.fail(err);
            }
        };
        if self.cfg.elastic.is_some() {
            // A push from a worker the shard no longer knows (e.g.
            // racing its own forced departure), or a straggler from a
            // connection this worker's latest registration superseded
            // (the new session replays whatever the completed rounds did
            // not consume, so aggregating this copy too would
            // double-count it), is dropped.
            let known = self
                .members
                .state
                .get(worker)
                .is_some_and(|s| *s != MemberState::Gone);
            if !known || self.members.fenced(worker, conn) {
                payload.recycle(&self.pool);
                return;
            }
            // Pushes also count as liveness.
            self.members.last_seen[worker] = self.now;
        }
        self.keys[key].pending[worker].push_back(payload);
        self.pump(key);
        self.members.sweep(&self.keys);
    }

    /// Serve a pull of `key` at exactly `min_version`, or park it until
    /// that version exists.
    fn pull(&mut self, key: u32, min_version: u64, reply: R) {
        if let Some(err) = &self.failed {
            return self.owed.push((reply, Err(err.clone())));
        }
        let Some(ks) = self.keys.get_mut(key as usize) else {
            let err = format!(
                "pull of key {key}: this server owns keys 0..{}",
                self.keys.len()
            );
            return self.owed.push((reply, Err(NetError::Io(err))));
        };
        let weights = match ks.version.checked_sub(min_version) {
            Some(0) => Arc::clone(&ks.weights),
            // The puller raced one aggregate behind; serve the exact
            // requested version from the history.
            Some(1) => Arc::clone(&ks.prev_weights),
            // Only the latest two versions are kept; a request from a
            // socket must not take the shard down, so the stale pull
            // alone fails.
            Some(_) => {
                let err = format!(
                    "pull of version {min_version} for key {key} arrived after \
                     version {} — workers may lag at most one round",
                    ks.version
                );
                return self.owed.push((reply, Err(NetError::Io(err))));
            }
            None => return ks.waiting.push((min_version, reply)),
        };
        self.owed
            .push((reply, pull_reply(key, min_version, weights)));
    }

    /// Admit `worker` (on an elastic shard) and ack the per-key versions
    /// at admission: no round can complete without the joiner from here
    /// on, so these are exactly the versions its first pulls must
    /// target. On a fixed-membership shard this is just the version
    /// handshake — the membership table is untouched.
    fn register(&mut self, worker: u32, conn: u64) -> Result<WireMsg, NetError> {
        if self.cfg.elastic.is_some() {
            let worker = self.admission.worker("register", worker)?;
            self.members.admit(worker, conn, self.now);
            let slots = self.members.state.len();
            for ks in &mut self.keys {
                ks.pending.resize_with(slots, Default::default);
                // Admission clears the slot's queued pushes — a no-op for
                // fresh joiners (empty queues), but load-bearing for
                // re-admissions: a reconnecting worker replays every push
                // the completed rounds did not consume, and a replacement
                // must not inherit a dead predecessor's leftovers. Either
                // way, stale queued pushes would double-count.
                for stale in ks.pending[worker].drain(..) {
                    stale.recycle(&self.pool);
                }
            }
            let active = self.members.active();
            self.stats
                .telemetry()
                .emit(|| Event::WorkerJoined { worker, active });
        }
        Ok(WireMsg::RegisterAck {
            versions: self.versions(),
        })
    }

    /// A graceful `Leave` (`cancel: None`) or a two-phase join rollback
    /// (`cancel: Some(conn)`) of an active `worker` on an elastic, healthy
    /// shard. A rollback is honoured only from the connection whose
    /// registration *promoted* the slot, so a cancel trailing a
    /// re-registration of an established member (a reconnect refresh)
    /// cannot shrink the quorum past its pre-join size. Anything else — an
    /// unknown or inactive worker, another connection's cancel, a failed
    /// shard — is ignored.
    fn depart(&mut self, worker: usize, cancel: Option<u64>) {
        let promoter = cancel.is_none_or(|conn| self.members.joined_by.get(worker) == Some(&conn));
        let elastic = self.cfg.elastic.is_some();
        if elastic && self.failed.is_none() && self.members.is_active(worker) && promoter {
            self.demote(worker, true);
        }
    }

    /// Demote an active `worker` to `Draining`: a graceful departure, or
    /// a liveness eviction (flagged in telemetry). A departure that
    /// strands a *partial* membership below the quorum fails the run, as
    /// does an eviction that leaves fewer than the quorum; a full graceful
    /// drain to zero is a valid end state — the shard idles, ready for new
    /// joins or a controller's shutdown. (A pool of min_quorum q can only
    /// reach zero gracefully when q == 1, stepping 1 → 0.)
    fn demote(&mut self, worker: usize, graceful: bool) {
        let quorum = self.cfg.elastic.map_or(1, |e| e.min_quorum);
        let active = self.members.active() - 1;
        let lost = NetError::WorkerLost {
            id: worker,
            round: self.min_version(),
        };
        if !graceful && active < quorum {
            return self.fail(lost);
        }
        self.members.state[worker] = MemberState::Draining;
        self.stats.telemetry().emit(|| Event::WorkerLeft {
            worker,
            active,
            graceful,
        });
        if active > 0 && active < quorum {
            self.fail(lost);
        } else {
            // The departed worker no longer gates round completion.
            self.pump_all();
        }
    }

    /// Recovery: write a durable shard checkpoint of the current state
    /// now. The captured round, or `None` if the shard has no checkpoint
    /// directory, the key versions are skewed (a round is mid-flight), or
    /// the write failed.
    fn checkpoint(&self) -> Option<u64> {
        let round = self.min_version();
        match self.ckpt.policy() {
            None => {
                eprintln!("checkpoint: refused: server has no checkpoint directory");
                None
            }
            Some(_) if self.keys.iter().any(|k| k.version != round) => {
                eprintln!("checkpoint: refused: key versions are skewed (round in flight)");
                None
            }
            Some(p) => {
                let snap = self
                    .keys
                    .iter()
                    .map(|k| (k.weights.to_vec(), k.opt.export_state()));
                p.write(round, snap).then_some(round)
            }
        }
    }

    /// The round deadline, then the liveness sweep: force out active
    /// workers silent past the heartbeat timeout (an ungraceful
    /// departure — same drain semantics as `Leave`, but flagged in
    /// telemetry).
    fn check_timers(&mut self) {
        if self.failed.is_some() {
            return;
        }
        if let Some(deadline) = self.cfg.round_deadline {
            if let Some((key, id, round)) = self.expired_round(deadline) {
                self.stats.telemetry().emit(|| Event::RoundExpired {
                    key,
                    round,
                    victim: id,
                });
                return self.fail(NetError::WorkerLost { id, round });
            }
        }
        let Some(timeout) = self.cfg.elastic.and_then(|e| e.heartbeat_timeout) else {
            return;
        };
        while self.failed.is_none() {
            let Some(w) = self.members.timed_out(timeout, self.now) else {
                break;
            };
            self.demote(w, false);
        }
    }

    /// If any key's round has been partial past `deadline`, name it and
    /// its victim: the lowest-id *active* worker whose push for that
    /// round never arrived (draining and gone workers legitimately have
    /// empty queues). The unfinishable round is the key's `version`
    /// (rounds are 0-indexed; `version` counts completed ones).
    fn expired_round(&self, deadline: Duration) -> Option<(Key, usize, u64)> {
        self.keys.iter().enumerate().find_map(|(key, ks)| {
            let since = ks.partial_since?;
            if self.now.saturating_duration_since(since) < deadline {
                return None;
            }
            // With every active worker pushed, the round completes on
            // the next pump: nothing to expire.
            let id = ks
                .pending
                .iter()
                .enumerate()
                .position(|(w, q)| self.members.is_active(w) && q.is_empty())?;
            Some((key, id, ks.version))
        })
    }

    /// Enter the failed state: fail every parked pull (they would
    /// otherwise block forever on rounds that can no longer complete),
    /// and remember the verdict so future requests fail fast.
    fn fail(&mut self, err: NetError) {
        for ks in &mut self.keys {
            self.owed
                .extend(ks.waiting.drain(..).map(|(_, r)| (r, Err(err.clone()))));
        }
        self.failed = Some(err);
    }

    /// Pump every key, then retire the drained members.
    fn pump_all(&mut self) {
        for key in 0..self.keys.len() {
            self.pump(key);
        }
        self.members.sweep(&self.keys);
    }

    /// Complete every round `key` can: a round fires when all *active*
    /// workers have a queued push, and aggregates one push from every
    /// worker with a non-empty queue (active and draining alike, in
    /// worker-id order — fixed iteration order keeps f32 summation
    /// bit-deterministic). The update divides by the actual contributor
    /// count. With fixed membership every worker is always active, so
    /// this is exactly the historical `while all non-empty` loop with
    /// divisor `num_workers`.
    fn pump(&mut self, key: Key) {
        let ks = &mut self.keys[key];
        let tel = self.stats.telemetry();
        loop {
            let complete = self.members.state.contains(&MemberState::Active)
                && self
                    .members
                    .state
                    .iter()
                    .zip(&ks.pending)
                    .all(|(s, q)| *s != MemberState::Active || !q.is_empty());
            if !complete {
                break;
            }
            // The round's pass is one "dequant" span on the server's
            // lane — one past the last worker's — covering decode, sum
            // and step.
            let lane = ks.pending.len();
            self.round
                .extend(ks.pending.iter_mut().filter_map(VecDeque::pop_front));
            let t = tel.span_start();
            ks.advance(&self.round, self.cfg.global_lr, &self.stats);
            tel.span_end(lane, Op::Decompress, ks.version, t);
            #[cfg(test)]
            {
                self.aggregated += self.round.len();
            }
            // Payload storage goes back to the shared pool so the next
            // compress_into can reuse it.
            for p in self.round.drain(..) {
                p.recycle(&self.pool);
            }
            ks.version += 1;
            // Scheduled checkpoints capture each key the instant it
            // crosses the boundary round (versions advance one at a time,
            // so every boundary is observed); the file is written once
            // all keys have.
            self.ckpt
                .observe(key, ks.version, &ks.weights, ks.opt.as_ref());
            let version = ks.version;
            tel.emit(|| Event::RoundComplete { key, version });
            // Release any pulls now satisfied, in the order they parked.
            for (min_version, reply) in ks.waiting.extract_if(.., |w| w.0 <= version) {
                let weights = Arc::clone(&ks.weights);
                self.owed
                    .push((reply, pull_reply(key as u32, min_version, weights)));
            }
        }
        // Start (or clear) the partial-round clock for this key. The
        // lifecycle event fires only on the empty→partial transition,
        // once per round, not per straggling push.
        if ks.pending.iter().any(|q| !q.is_empty()) {
            if ks.partial_since.is_none() {
                ks.partial_since = Some(self.now);
                let round = ks.version;
                tel.emit(|| Event::RoundPartial { key, round });
            }
        } else {
            ks.partial_since = None;
        }
    }
}

/// The answer to a pull of `key` at `min_version`: the snapshot, shared.
fn pull_reply(key: u32, min_version: u64, weights: Arc<[f32]>) -> Result<WireMsg, NetError> {
    Ok(WireMsg::PullReply {
        key,
        min_version,
        weights,
    })
}

impl<R> KeyState<R> {
    /// `W ← W − η/N · opt(Σ decode(p))`, eq. 10 generalized over the
    /// key's [`ServerOpt`] (plain SGD for the paper's rule), with
    /// `η = global_lr` and `N` the number of workers whose pushes fed this
    /// round (`payloads`, in worker order). Fixed membership makes that
    /// always `num_workers`.
    ///
    /// The pass writes the new version (the one build per round, counted
    /// in [`TrafficStats::bytes_copied`]) into a snapshot nobody else
    /// holds — one this key rotated out earlier, so a steady-state round
    /// allocates nothing — which rotates the old snapshot into
    /// `prev_weights`; pulls of either version are then served by
    /// reference-count bumps alone.
    fn advance(&mut self, payloads: &[Compressed], global_lr: f32, stats: &TrafficStats) {
        let step = global_lr / payloads.len() as f32;
        let mut next = self.spares.take(self.weights.len());
        let slot = Arc::get_mut(&mut next).expect("a taken spare has one owner");
        round_pass(payloads, &self.weights, slot, self.opt.as_mut(), step);
        stats.record_copy(4 * next.len());
        let current = std::mem::replace(&mut self.weights, next);
        let retired = std::mem::replace(&mut self.prev_weights, current);
        // Until the first update both slots hold the initial snapshot: its
        // second handle is no spare, it could never become unique.
        if !Arc::ptr_eq(&retired, &self.prev_weights) {
            self.spares.retire(retired);
        }
    }
}

/// Elements per block of a round's pass: 8 KiB of f32, so the block's
/// sum stays in L1 from its first decode to the optimizer step. A
/// multiple of 8, so every block starts on a packed byte of every codec
/// and on an AVX2 lane group.
const BLOCK: usize = 2048;

/// One round of one key in one pass. For each block of [`BLOCK`]
/// elements: decode the first payload into a stack buffer (`0.0 + x`,
/// the bits of zeroing and adding), add the others in their order, and
/// let `opt` write that block of `next` from the same block of
/// `weights`. Every element gets the operations, in the order, that
/// decoding every payload into one key-sized sum and stepping over it
/// would give it — the same kernels, on sub-slices.
fn round_pass(
    payloads: &[Compressed],
    weights: &[f32],
    next: &mut [f32],
    opt: &mut dyn ServerOpt,
    step: f32,
) {
    let mut block = [0.0f32; BLOCK];
    for (b, out) in next.chunks_mut(BLOCK).enumerate() {
        let at = b * BLOCK;
        let sum = &mut block[..out.len()];
        for (i, p) in payloads.iter().enumerate() {
            if i == 0 {
                decompress_block(p, at, sum);
            } else {
                decompress_add_block(p, at, sum);
            }
        }
        opt.apply_block(at, out, &weights[at..at + sum.len()], sum, step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ElasticConfig;
    use cdsgd_telemetry::{MemorySink, Telemetry};
    use std::collections::BTreeMap;

    /// A shard whose replies go to plain tokens, and the sink its events
    /// land in.
    fn shard_of(
        init: Vec<Vec<f32>>,
        cfg: ServerConfig,
        t0: Instant,
    ) -> (Shard<usize>, Arc<MemorySink>) {
        let mem = Arc::new(MemorySink::new());
        let stats = Arc::new(TrafficStats::with_telemetry(Telemetry::new(mem.clone())));
        let durability = Durability::default();
        let shard = Shard::new(init, cfg, durability, stats, BufferPool::new(), t0);
        (shard, mem)
    }

    fn push(worker: u32, key: u32, payload: Vec<f32>) -> WireMsg {
        let payload = Compressed::Raw(payload);
        WireMsg::Push {
            worker,
            key,
            payload,
        }
    }

    fn pull(key: u32, min_version: u64) -> WireMsg {
        WireMsg::Pull { key, min_version }
    }

    fn pulled(key: u32, min_version: u64, weights: &[f32]) -> Result<WireMsg, NetError> {
        let weights = weights.into();
        Ok(WireMsg::PullReply {
            key,
            min_version,
            weights,
        })
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn round_deadline_names_the_missing_worker() {
        // Two workers; only worker 0 pushes. The round stays partial past
        // the deadline, so the parked pull fails with WorkerLost { id: 1 }
        // instead of blocking forever, and the verdict sticks.
        let t0 = Instant::now();
        let cfg = ServerConfig::new(2, 1.0).with_round_deadline(50 * MS);
        let (mut shard, _) = shard_of(vec![vec![0.0]], cfg, t0);
        assert!(shard.on(0, push(0, 0, vec![1.0]), None, t0).is_empty());
        assert!(shard.on(0, pull(0, 1), Some(1), t0 + 10 * MS).is_empty());
        assert!(shard.tick(t0 + 49 * MS).is_empty());
        let lost = NetError::WorkerLost { id: 1, round: 0 };
        assert_eq!(shard.tick(t0 + 50 * MS), [(1, Err(lost.clone()))]);
        assert_eq!(shard.failure(), Some(&lost));
        assert_eq!(shard.tick_every(), None, "a failed shard arms no timer");
        // Later pulls fail fast with the same verdict.
        assert_eq!(
            shard.on(0, pull(0, 0), Some(2), t0 + 60 * MS),
            [(2, Err(lost))]
        );
    }

    #[test]
    fn expired_round_emits_round_expired() {
        let t0 = Instant::now();
        let cfg = ServerConfig::new(2, 1.0).with_round_deadline(50 * MS);
        let (mut shard, mem) = shard_of(vec![vec![0.0]], cfg, t0);
        shard.on(0, push(0, 0, vec![1.0]), None, t0);
        shard.tick(t0 + 50 * MS);
        let expired = Event::RoundExpired {
            key: 0,
            round: 0,
            victim: 1,
        };
        assert!(mem.events().contains(&expired));
    }

    #[test]
    fn heartbeat_timeout_forces_out_a_silent_worker() {
        // Worker 0 stays live via heartbeats while worker 1 goes silent;
        // once it's forced out, worker 0 alone completes rounds.
        let t0 = Instant::now();
        let elastic = ElasticConfig::new(1).with_heartbeat_timeout(50 * MS);
        let cfg = ServerConfig::new(2, 1.0).with_elastic(elastic);
        let (mut shard, mem) = shard_of(vec![vec![0.0]], cfg, t0);
        assert_eq!(shard.tick_every(), Some(Duration::from_micros(12_500)));
        for ms in (10..=40).step_by(10) {
            shard.on(0, WireMsg::Heartbeat { worker: 0 }, None, t0 + ms * MS);
        }
        shard.on(0, push(0, 0, vec![2.0]), None, t0 + 45 * MS);
        assert!(shard.on(0, pull(0, 1), Some(7), t0 + 45 * MS).is_empty());
        assert!(
            shard.tick(t0 + 50 * MS).is_empty(),
            "silent for exactly the timeout"
        );
        assert_eq!(shard.tick(t0 + 51 * MS), [(7, pulled(0, 1, &[-2.0]))]);
        let left = Event::WorkerLeft {
            worker: 1,
            active: 1,
            graceful: false,
        };
        assert!(mem.events().contains(&left), "{:?}", mem.events());
        assert_eq!(shard.failure(), None, "quorum still satisfied");
    }

    /// xorshift64*: the schedule's only source of choice.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }
    }

    const KEYS: usize = 2;
    const ROUNDS: u64 = 6;
    /// Workers 0–2 start as members, 3–4 join mid-run, 5 joins
    /// tentatively and rolls the join back.
    const INITIAL: usize = 3;
    const JOINERS: [usize; 2] = [3, 4];
    const TENTATIVE: usize = 5;
    const WORKERS: usize = 6;
    /// One coordinate per (worker, round): push `i` of worker `w` is the
    /// one-hot gradient at `w * ROUNDS + i - 1`, so every push owns a
    /// coordinate and every copy of it (a replay, a stale duplicate)
    /// lands on the same one.
    const KEY_LEN: usize = WORKERS * ROUNDS as usize;

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Phase {
        /// Not a member yet (a joiner that has not registered).
        Outside,
        /// Waiting for the RegisterAck of a join or a reconnect.
        Registering,
        Running,
        /// Sent its Leave.
        Done,
    }

    /// The client side of one worker: what it has sent and what a
    /// reconnect must replay.
    struct Client {
        phase: Phase,
        conn: usize,
        /// Global version of the last push sent, per key.
        pushed: [u64; KEYS],
        /// Unconfirmed pushes (global versions), per key.
        replay: [VecDeque<u64>; KEYS],
        /// Last round this worker pushes (early leavers stop short).
        last: u64,
        /// The versions its rounds count from: zeros for the initial
        /// set, a joiner's first RegisterAck; `None` before it joined.
        base: Option<[u64; KEYS]>,
    }

    enum Token {
        Pull {
            worker: usize,
            conn: usize,
            key: u32,
            version: u64,
            answers: u32,
        },
        Register {
            worker: usize,
        },
    }

    /// A seeded schedule against one elastic shard: worker clients send
    /// over connections that each deliver in order, while the scheduler
    /// interleaves the connections, the clients and a fake clock, and
    /// checks the shard's invariants after every event.
    struct Sim {
        shard: Shard<usize>,
        rng: Rng,
        now: Instant,
        /// In-flight messages per connection id (index 0 is the unused
        /// in-process connection).
        wires: Vec<VecDeque<(WireMsg, Option<usize>)>>,
        clients: Vec<Client>,
        tokens: Vec<Token>,
        /// The spec of the membership rules: who must be Active.
        active: Vec<bool>,
        /// The connection whose registration promoted each worker.
        promoted_by: Vec<Option<usize>>,
        /// Weights seen per key and version; all sightings must agree.
        history: Vec<BTreeMap<u64, Vec<f32>>>,
        versions: Vec<u64>,
        events: usize,
        seed: u64,
    }

    impl Sim {
        fn new(seed: u64) -> Self {
            let now = Instant::now();
            let elastic = ElasticConfig::new(1).with_heartbeat_timeout(Duration::from_secs(3600));
            let cfg = ServerConfig::new(INITIAL, 1.0).with_elastic(elastic);
            let (shard, _) = shard_of(vec![vec![0.0; KEY_LEN]; KEYS], cfg, now);
            let clients = (0..WORKERS)
                .map(|w| Client {
                    phase: if w < INITIAL {
                        Phase::Running
                    } else {
                        Phase::Outside
                    },
                    conn: w + 1,
                    pushed: [0; KEYS],
                    replay: Default::default(),
                    last: ROUNDS,
                    base: (w < INITIAL).then_some([0; KEYS]),
                })
                .collect();
            Self {
                shard,
                rng: Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1),
                now,
                wires: vec![VecDeque::new(); WORKERS + 1],
                clients,
                tokens: Vec::new(),
                active: (0..WORKERS).map(|w| w < INITIAL).collect(),
                promoted_by: vec![None; WORKERS],
                history: vec![BTreeMap::new(); KEYS],
                versions: vec![0; KEYS],
                events: 0,
                seed,
            }
        }

        fn send(&mut self, w: usize, msg: WireMsg, token: Option<usize>) {
            let conn = self.clients[w].conn;
            self.wires[conn].push_back((msg, token));
        }

        fn open_conn(&mut self, w: usize) {
            self.wires.push(VecDeque::new());
            self.clients[w].conn = self.wires.len() - 1;
        }

        fn register(&mut self, w: usize) {
            self.tokens.push(Token::Register { worker: w });
            let token = Some(self.tokens.len() - 1);
            self.send(w, WireMsg::Register { worker: w as u32 }, token);
            self.clients[w].phase = Phase::Registering;
        }

        /// The next push of worker `w`: per-worker order across keys
        /// (round r of key 0, then of key 1, ...).
        fn push_next(&mut self, w: usize) {
            let c = &mut self.clients[w];
            let key = (0..KEYS).min_by_key(|&k| c.pushed[k]).unwrap();
            c.pushed[key] += 1;
            let version = c.pushed[key];
            c.replay[key].push_back(version);
            self.send(w, one_hot(w, key, version), None);
        }

        fn pull(&mut self, w: usize) {
            let key = self.rng.below(KEYS);
            let (conn, version) = (self.clients[w].conn, self.clients[w].pushed[key]);
            self.tokens.push(Token::Pull {
                worker: w,
                conn,
                key: key as u32,
                version,
                answers: 0,
            });
            let token = Some(self.tokens.len() - 1);
            self.send(
                w,
                WireMsg::Pull {
                    key: key as u32,
                    min_version: version,
                },
                token,
            );
        }

        /// One client action of a random worker, if it has one. In the
        /// drain (`settle`) no new joins, reconnects or early leaves.
        fn client_step(&mut self, settle: bool) -> bool {
            let w = self.rng.below(WORKERS);
            let c = &self.clients[w];
            let done_pushing = c.pushed.iter().all(|p| *p >= c.last);
            match c.phase {
                Phase::Outside if JOINERS.contains(&w) && !settle => {
                    self.open_conn(w);
                    self.register(w);
                }
                Phase::Outside if w == TENTATIVE && !settle => {
                    // The two-phase join rolled back: a later shard
                    // refused, so this one is told to forget the worker.
                    self.open_conn(w);
                    self.register(w);
                    self.send(w, WireMsg::CancelJoin { worker: w as u32 }, None);
                    self.clients[w].phase = Phase::Done;
                }
                Phase::Running if !settle && self.rng.one_in(12) => {
                    // A link drop: redial and re-register; whatever is
                    // still in flight on the old link may yet arrive.
                    self.open_conn(w);
                    self.register(w);
                }
                Phase::Running if !settle && w != 0 && self.rng.one_in(40) => {
                    // This worker departs after its current round.
                    let c = &mut self.clients[w];
                    c.last = c.pushed.iter().copied().max().unwrap().max(1);
                }
                Phase::Running if done_pushing && w != 0 => {
                    self.send(w, WireMsg::Leave { worker: w as u32 }, None);
                    self.clients[w].phase = Phase::Done;
                }
                Phase::Running if !done_pushing && !self.rng.one_in(4) => self.push_next(w),
                Phase::Running if !settle && self.rng.one_in(3) => {
                    self.send(w, WireMsg::Heartbeat { worker: w as u32 }, None)
                }
                Phase::Running if !settle => self.pull(w),
                _ => return false,
            }
            true
        }

        /// Deliver the oldest message of a random busy connection.
        fn deliver(&mut self) -> bool {
            let busy: Vec<usize> = (0..self.wires.len())
                .filter(|&c| !self.wires[c].is_empty())
                .collect();
            if busy.is_empty() {
                return false;
            }
            let conn = busy[self.rng.below(busy.len())];
            let (msg, token) = self.wires[conn].pop_front().unwrap();
            // The membership spec, applied as the shard sees the message.
            match msg {
                WireMsg::Register { worker } => {
                    let w = worker as usize;
                    if !self.active[w] {
                        self.promoted_by[w] = Some(conn);
                    }
                    self.active[w] = true;
                }
                WireMsg::Leave { worker } => self.active[worker as usize] = false,
                WireMsg::CancelJoin { worker } => {
                    let w = worker as usize;
                    if self.promoted_by[w] == Some(conn) {
                        self.active[w] = false;
                    }
                }
                _ => {}
            }
            let owed = self.shard.on(conn as u64, msg, token, self.now);
            self.after(owed);
            true
        }

        fn tick(&mut self) {
            self.now += Duration::from_millis(self.rng.below(20) as u64);
            let owed = self.shard.tick(self.now);
            self.after(owed);
        }

        /// Hand the owed replies to their clients, then check every
        /// invariant.
        fn after(&mut self, owed: Vec<Owed<usize>>) {
            self.events += 1;
            let at = format!("after event {} of seed {}", self.events, self.seed);
            assert_eq!(self.shard.failure(), None, "{at}");
            // Versions are monotonic; every sighting of a version agrees.
            for (k, ks) in self.shard.keys.iter().enumerate() {
                assert!(ks.version >= self.versions[k], "key {k} went back {at}");
                self.versions[k] = ks.version;
                let mut seen = vec![(ks.version, ks.weights.to_vec())];
                if ks.version > 0 {
                    seen.push((ks.version - 1, ks.prev_weights.to_vec()));
                }
                for (v, w) in seen {
                    let known = self.history[k].entry(v).or_insert_with(|| w.clone());
                    assert_eq!(*known, w, "key {k} version {v} changed {at}");
                }
            }
            for (token, answer) in owed {
                self.answer(token, answer, &at);
            }
            // Exactly once: every payload owns a coordinate, so the
            // payloads aggregated equal the coordinates moved off zero —
            // a second aggregation of any push would count once more and
            // move nothing new.
            let moved: usize = (self.shard.keys.iter())
                .map(|ks| ks.weights.iter().filter(|x| **x != 0.0).count())
                .sum();
            assert_eq!(self.shard.aggregated, moved, "a push aggregated twice {at}");
            // No worker is Active without an uncancelled Register (or
            // the initial set), or after its Leave.
            for w in 0..WORKERS {
                assert_eq!(
                    self.shard.members.is_active(w),
                    self.active[w],
                    "worker {w} {at}"
                );
            }
        }

        fn answer(&mut self, token: usize, answer: Result<WireMsg, NetError>, at: &str) {
            match &mut self.tokens[token] {
                Token::Pull {
                    worker,
                    conn,
                    key,
                    version,
                    answers,
                } => {
                    *answers += 1;
                    assert_eq!(*answers, 1, "pull {token} answered twice {at}");
                    let (w, k, v) = (*worker, *key as usize, *version);
                    let weights = match answer {
                        Ok(WireMsg::PullReply {
                            key: got_key,
                            min_version,
                            weights,
                        }) => {
                            assert_eq!((got_key as usize, min_version), (k, v), "{at}");
                            weights
                        }
                        // The version window: a pull more than one round
                        // behind fails alone (only a pull that rode a
                        // dropped link can be that late).
                        Err(NetError::Io(_)) => return,
                        other => panic!("pull {token} answered {other:?} {at}"),
                    };
                    let known = self.history[k].entry(v).or_insert_with(|| weights.to_vec());
                    assert_eq!(known[..], weights[..], "pull of key {k} at {v} {at}");
                    // The answer proves every push ≤ v aggregated: the
                    // client confirms them, if the link is still its own.
                    let c = &mut self.clients[w];
                    if *conn == c.conn {
                        c.replay[k].retain(|r| *r > v);
                    }
                }
                Token::Register { worker } => {
                    let w = *worker;
                    let Ok(WireMsg::RegisterAck { versions }) = answer else {
                        panic!("register of {w} answered {answer:?} {at}");
                    };
                    if w == TENTATIVE {
                        return;
                    }
                    let c = &mut self.clients[w];
                    if c.base.is_none() {
                        // A joiner: its rounds start at the ack.
                        c.pushed.copy_from_slice(&versions);
                        c.base = Some(c.pushed);
                    } else {
                        // A reconnect: prune what the ack proves
                        // aggregated, replay the rest on the new link.
                        let mut replays = Vec::new();
                        for (k, q) in c.replay.iter_mut().enumerate() {
                            q.retain(|r| *r > versions[k]);
                            replays.extend(q.iter().map(|r| (k, *r)));
                        }
                        for (k, r) in replays {
                            self.send(w, one_hot(w, k, r), None);
                        }
                    }
                    self.clients[w].phase = Phase::Running;
                }
            }
        }

        fn run(mut self) {
            for _ in 0..300 {
                match self.rng.below(10) {
                    0 => self.tick(),
                    1..=4 => {
                        self.client_step(false);
                    }
                    _ => {
                        self.deliver();
                    }
                }
            }
            // Drain: deliver everything, and let every client finish.
            let mut idle = 0;
            while idle < 200 {
                if self.deliver() || self.client_step(true) {
                    idle = 0;
                } else {
                    idle += 1;
                }
            }
            self.tick();
            // Every key completed every round; every pull was answered;
            // every scheduled push moved its own coordinate.
            assert_eq!(self.versions, [ROUNDS; KEYS]);
            for (i, t) in self.tokens.iter().enumerate() {
                if let Token::Pull { answers, .. } = t {
                    assert_eq!(*answers, 1, "pull {i} never answered");
                }
            }
            for (k, ks) in self.shard.keys.iter().enumerate() {
                for (w, c) in self.clients.iter().enumerate() {
                    let base = c.base.map_or(c.pushed[k], |b| b[k]);
                    for r in 1..=ROUNDS {
                        let x = ks.weights[w * ROUNDS as usize + r as usize - 1];
                        let scheduled = base < r && r <= c.pushed[k];
                        assert_eq!(x != 0.0, scheduled, "worker {w} round {r} of key {k}");
                    }
                }
            }
        }
    }

    /// Push `version` of worker `w` to `key`: its own coordinate, 1.0.
    fn one_hot(w: usize, key: usize, version: u64) -> WireMsg {
        let mut g = vec![0.0; KEY_LEN];
        g[w * ROUNDS as usize + version as usize - 1] = 1.0;
        push(w as u32, key as u32, g)
    }

    #[test]
    fn seeded_schedules_aggregate_each_push_once() {
        for seed in 0..256 {
            Sim::new(seed).run();
        }
    }

    #[test]
    #[should_panic(expected = "restored optimizer state of 2 elements on key 0, which holds 3")]
    fn a_restored_velocity_must_fit_its_key() {
        let restore = crate::Checkpoint {
            weights: vec![vec![0.0; 3]],
            opt_state: vec![vec![1.0, 2.0]],
            ..Default::default()
        };
        let durability = Durability {
            restore: Some(restore),
            checkpoint: None,
        };
        let cfg = ServerConfig::new(1, 1.0).with_momentum(0.9);
        let stats = Arc::new(TrafficStats::default());
        let init = vec![vec![0.0; 3]];
        Shard::<usize>::new(
            init,
            cfg,
            durability,
            stats,
            BufferPool::new(),
            Instant::now(),
        );
    }

    #[test]
    fn an_in_process_top_k_push_must_ascend_strictly() {
        // The same rule the wire decoder applies: an unordered in-process
        // push fails the shard with the typed error.
        let t0 = Instant::now();
        let (mut shard, _) = shard_of(vec![vec![0.0; 4]], ServerConfig::new(1, 1.0), t0);
        let payload = Compressed::TopK {
            indices: vec![2, 1],
            values: vec![1.0, 1.0],
            len: 4,
        };
        let msg = WireMsg::Push {
            worker: 0,
            key: 0,
            payload,
        };
        shard.on(0, msg, None, t0);
        assert!(
            matches!(shard.failure(), Some(NetError::Decode(e)) if e.contains("ascend")),
            "{:?}",
            shard.failure()
        );
    }

    /// Values where `0.0 + x` and `x`, or two NaNs, could be told apart,
    /// beside ordinary ones.
    fn special(rng: &mut Rng) -> f32 {
        const SPECIALS: [f32; 5] = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        match rng.below(8) {
            i @ 0..=4 => SPECIALS[i],
            _ => rng.below(4001) as f32 / 1000.0 - 2.0,
        }
    }

    /// A payload of `len` elements of codec `kind` (0 raw, 1 2-bit,
    /// 2 1-bit, 3 QSGD, 4 Top-k).
    fn payload_of(kind: usize, len: usize, rng: &mut Rng) -> Compressed {
        match kind {
            0 => Compressed::Raw((0..len).map(|_| special(rng)).collect()),
            1 => {
                let symbols: Vec<u8> = (0..len).map(|_| rng.below(3) as u8).collect();
                Compressed::TwoBit {
                    threshold: special(rng),
                    packed: cdsgd_compress::pack_2bit(&symbols),
                    len,
                }
            }
            2 => {
                let signs: Vec<bool> = (0..len).map(|_| rng.one_in(2)).collect();
                Compressed::OneBit {
                    scale: special(rng),
                    signs: cdsgd_compress::pack_1bit(&signs),
                    len,
                }
            }
            3 => {
                let levels = 1 + rng.below(8) as u8;
                let span = 2 * levels as usize + 1;
                let codes = (0..len)
                    .map(|_| (rng.below(span) as i32 - levels as i32) as i8)
                    .collect();
                Compressed::Qsgd {
                    norm: special(rng),
                    levels,
                    codes,
                    len,
                }
            }
            _ => {
                let indices: Vec<u32> = (0..len as u32).filter(|_| rng.one_in(4)).collect();
                let values = indices.iter().map(|_| special(rng)).collect();
                Compressed::TopK {
                    indices,
                    values,
                    len,
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn the_block_pass_is_decode_sum_then_step_bit_for_bit(
            len_at in 0usize..8,
            kinds in proptest::collection::vec(0usize..5, 1..=4),
            opt_at in 0usize..3,
            seed in proptest::prelude::any::<u64>(),
        ) {
            // The composed reference over a whole-key sum, against the
            // pass, for two rounds (a velocity carried into the second):
            // the next snapshots and the exported optimizer states must
            // agree bit for bit.
            let len = [0, 1, 7, 8, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5][len_at];
            let kind = [
                crate::ServerOptKind::PlainSgd,
                crate::ServerOptKind::HeavyBall { momentum: 0.9 },
                crate::ServerOptKind::Nesterov { momentum: 0.9 },
            ][opt_at];
            let mut rng = Rng(seed | 1);
            let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (mut reference, mut pass) = (kind.build(), kind.build());
            let mut weights: Vec<f32> = (0..len).map(|_| special(&mut rng)).collect();
            for _ in 0..2 {
                let payloads: Vec<Compressed> =
                    kinds.iter().map(|&k| payload_of(k, len, &mut rng)).collect();
                let step = 0.5 / payloads.len() as f32;
                let mut sum = vec![f32::NAN; len];
                cdsgd_compress::decompress(&payloads[0], &mut sum);
                for p in &payloads[1..] {
                    cdsgd_compress::decompress_add(p, &mut sum);
                }
                let mut want = vec![f32::NAN; len];
                reference.apply_into(&mut want, &weights, &sum, step);
                let mut got = vec![f32::NAN; len];
                round_pass(&payloads, &weights, &mut got, pass.as_mut(), step);
                proptest::prop_assert_eq!(bits(&got), bits(&want));
                proptest::prop_assert_eq!(
                    bits(&pass.export_state()),
                    bits(&reference.export_state())
                );
                weights = got;
            }
        }
    }
}
