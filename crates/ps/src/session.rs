//! The worker session core: every decision a networked worker's client
//! makes to keep each push aggregated exactly once and each pull at an
//! exact version, and none of its I/O.
//!
//! [`Session`] holds, per key, the base version the first `RegisterAck`
//! set, the version of the last push, the latest ack, and — with a retry
//! budget — the pushes not yet proven aggregated. It never sends, dials,
//! locks, sleeps or reads a clock. `crate::attach`'s `WorkerSession`
//! runs it under its session lock and does the sending; a seeded test
//! runs it against a model shard with plain message queues, the way
//! `crate::shard`'s tests run `Shard`.
//!
//! The rules (DESIGN.md §13):
//! - **rebase**: the first ack fixes `base[key]`; local round `r` is
//!   global version `base[key] + r`, for pushes and pulls alike. The ack
//!   is exact (no round completes after the join without the joiner), so
//!   the mapping has no race window, and a reconnect never moves it.
//! - **admit**: each push is its key's next global version; with a
//!   budget, a copy waits for replay, at most [`REPLAY_DEPTH`] per key.
//! - **confirm**: a completed pull at version `v` proves every push at or
//!   below `v` aggregated.
//! - **replay**: a redial's re-register ack proves the same up to the
//!   ack (the prune); the rest goes out again, in round order per key.
//! - **clamp**: a pull the latest ack has left more than one version
//!   behind goes out at `ack − 1`, the oldest version a shard keeps.

use crate::Key;
use cdsgd_compress::Compressed;
use cdsgd_net::NetError;
use std::collections::VecDeque;

/// Per-key bound on the replay buffer. Workers lag the server by at most
/// one round (two for the deferred pulls of CD-SGD), so the unconfirmed
/// suffix stays tiny; the bound only guards against a pathological run
/// that pushes a key it never pulls.
pub(crate) const REPLAY_DEPTH: usize = 8;

/// One worker's session state, for a model of `base.len()` keys.
pub(crate) struct Session {
    /// Per key, the global version of local round 0: the first ack's,
    /// zeros for a worker that never registers.
    base: Vec<u64>,
    rebased: bool,
    /// Per key, the global version of the last push.
    pushed: Vec<u64>,
    /// The latest ack, first or after a redial: a pull's clamp.
    acked: Vec<u64>,
    /// Per key, the pushes no pull or ack has proven aggregated, as
    /// `(global version, payload)`. `None` without a retry budget: such a
    /// session never replays, so it keeps no copies.
    replay: Option<Vec<VecDeque<(u64, Compressed)>>>,
}

impl Session {
    /// A session for `num_keys` keys; `replays` keeps copies of the
    /// pushes for a redial to send again.
    pub(crate) fn new(num_keys: usize, replays: bool) -> Self {
        Self {
            base: vec![0; num_keys],
            rebased: false,
            pushed: vec![0; num_keys],
            acked: vec![0; num_keys],
            replay: replays.then(|| vec![VecDeque::new(); num_keys]),
        }
    }

    /// `key` as an index into the per-key tables. A key the model does
    /// not have is refused here: no shard owns it, and a refused pull
    /// would otherwise be redialed and issued again until the retries
    /// ran out.
    pub(crate) fn key(&self, key: u32) -> Result<Key, NetError> {
        let (k, n) = (key as usize, self.base.len());
        if k < n {
            Ok(k)
        } else {
            Err(NetError::Decode(format!(
                "key {key}: the model has keys 0..{n}"
            )))
        }
    }

    /// The ack of the worker's own register: the first one fixes the base
    /// and the push versions count on from it; each is the clamp's latest.
    pub(crate) fn rebase(&mut self, ack: &[u64]) -> Result<(), NetError> {
        self.fits(ack)?;
        if !self.rebased {
            self.base = ack.to_vec();
            self.pushed = ack.to_vec();
            self.rebased = true;
        }
        self.acked = ack.to_vec();
        Ok(())
    }

    /// The latest ack (zeros before any).
    pub(crate) fn acked(&self) -> &[u64] {
        &self.acked
    }

    /// Count a push of key `k` as that key's next global version and,
    /// with a budget, keep a copy until it is proven aggregated.
    pub(crate) fn admit(&mut self, k: Key, payload: &Compressed) {
        self.pushed[k] += 1;
        if let Some(q) = self.replay.as_mut().map(|r| &mut r[k]) {
            q.push_back((self.pushed[k], payload.clone()));
            if q.len() > REPLAY_DEPTH {
                q.pop_front();
            }
        }
    }

    /// The version a pull of local `version` of key `k` goes out at:
    /// rebased, then clamped to what a shard still serves.
    pub(crate) fn wire_version(&self, k: Key, version: u64) -> u64 {
        let global = self.base[k] + version;
        match self.acked[k] {
            ack if global + 1 < ack => ack - 1,
            _ => global,
        }
    }

    /// A pull of key `k` completed at global version `issued`: every push
    /// at or below it was aggregated, so its copy goes.
    pub(crate) fn confirm(&mut self, k: Key, issued: u64) {
        if let Some(q) = self.replay.as_mut().map(|r| &mut r[k]) {
            q.retain(|(v, _)| *v > issued);
        }
    }

    /// A redial's register ack: drop the copies it proves aggregated and
    /// hand back the rest, to go out again in round order per key.
    pub(crate) fn replayed(
        &mut self,
        ack: &[u64],
    ) -> Result<impl Iterator<Item = (Key, &Compressed)>, NetError> {
        self.fits(ack)?;
        self.acked = ack.to_vec();
        for (q, &a) in self.replay.iter_mut().flatten().zip(ack) {
            q.retain(|(v, _)| *v > a);
        }
        let queues = self.replay.iter().flatten().enumerate();
        Ok(queues.flat_map(|(k, q)| q.iter().map(move |(_, p)| (k, p))))
    }

    /// An ack of one version per key, or the error naming the mismatch.
    fn fits(&self, ack: &[u64]) -> Result<(), NetError> {
        match (ack.len(), self.base.len()) {
            (a, n) if a == n => Ok(()),
            (a, n) => Err(NetError::Decode(format!(
                "a register ack of {a} versions for a model of {n} keys"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::{Checkpoint, Durability};
    use crate::server::{ElasticConfig, ServerConfig};
    use crate::shard::{Owed, Shard};
    use crate::stats::TrafficStats;
    use cdsgd_compress::BufferPool;
    use cdsgd_net::wire::WireMsg;
    use std::collections::VecDeque;
    use std::sync::Arc;
    use std::time::Instant;

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
    const WORKERS: usize = 2;
    const ROUNDS: u64 = 8;
    /// How far a worker's pushes run ahead of its answered pulls: one
    /// round deeper than CD-SGD's deferred pull, so a pull a drop cut off
    /// can fall two versions behind the shard and need the clamp.
    const LAG: u64 = 3;

    /// Local round `r` of worker `w`: the one-hot gradient at
    /// `w * ROUNDS + r - 1`, so every push owns a coordinate. With the
    /// shard's step of `lr / workers = 1`, a push aggregated once sets
    /// its coordinate to −1; a second aggregation would make it −2.
    fn one_hot(w: usize, r: u64) -> Compressed {
        let mut g = vec![0.0; WORKERS * ROUNDS as usize];
        g[w * ROUNDS as usize + r as usize - 1] = 1.0;
        Compressed::Raw(g)
    }

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Phase {
        /// The worker's own register is out.
        Registering,
        Running,
        /// A redial's register is out on the fresh connection.
        Rejoining,
    }

    /// A request that is answered, and where its answer goes.
    enum Token {
        Pull {
            worker: usize,
            key: Key,
            /// The local version the worker asked for.
            version: u64,
            issued: u64,
            conn: usize,
        },
        Register {
            worker: usize,
            conn: usize,
        },
    }

    /// A worker: its session core, its connection, and the spec the core
    /// is checked against, kept apart from it.
    struct Worker {
        core: Session,
        conn: usize,
        phase: Phase,
        /// Local pushes sent, and local pulls issued, per key.
        pushed: [u64; KEYS],
        pulled: [u64; KEYS],
        /// Per key, the local versions whose pull was answered.
        answered: [Vec<bool>; KEYS],
        /// Tokens of the pulls not yet answered.
        outstanding: Vec<usize>,
        /// The first ack, the latest ack, and the highest global version
        /// a completed pull or an ack has proven aggregated.
        base: [u64; KEYS],
        acked: [u64; KEYS],
        proven: [u64; KEYS],
    }

    impl Worker {
        /// The highest local version answered with all below it.
        fn answered_upto(&self, k: Key) -> u64 {
            self.answered[k].iter().take_while(|a| **a).count() as u64
        }

        fn done(&self) -> bool {
            (0..KEYS).all(|k| self.answered_upto(k) == ROUNDS)
        }
    }

    struct Sim {
        rng: Rng,
        seed: u64,
        now: Instant,
        shard: Shard<usize>,
        /// Per connection, the frames the shard has yet to read. A
        /// connection is never reused; 0 (in-process, never fenced) is
        /// never handed out.
        wires: Vec<VecDeque<(WireMsg, Option<usize>)>>,
        /// Per connection, the answers the worker has yet to read.
        replies: Vec<VecDeque<(usize, Result<WireMsg, NetError>)>>,
        tokens: Vec<Token>,
        workers: Vec<Worker>,
        /// The version the shard started at: every worker's base.
        start: u64,
        clamps: usize,
    }

    impl Sim {
        fn new(seed: u64) -> Self {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let t0 = Instant::now();
            let start = rng.below(4) as u64;
            let init = vec![vec![0.0; WORKERS * ROUNDS as usize]; KEYS];
            // A shard restored at round `start`: every register acks it.
            let restore = Checkpoint {
                weights: init.clone(),
                round: start,
                ..Checkpoint::default()
            };
            let durability = Durability {
                restore: Some(restore),
                checkpoint: None,
            };
            let cfg =
                ServerConfig::new(WORKERS, WORKERS as f32).with_elastic(ElasticConfig::new(1));
            let stats = Arc::new(TrafficStats::default());
            let shard = Shard::new(init, cfg, durability, stats, BufferPool::new(), t0);
            let mut sim = Self {
                rng,
                seed,
                now: t0,
                shard,
                wires: vec![VecDeque::new()],
                replies: vec![VecDeque::new()],
                tokens: Vec::new(),
                workers: Vec::new(),
                start,
                clamps: 0,
            };
            for w in 0..WORKERS {
                // A worker that never registers counts from zero, so only
                // a shard that starts there may leave its workers silent.
                let registers = start > 0 || sim.rng.one_in(2);
                let conn = sim.open();
                sim.workers.push(Worker {
                    core: Session::new(KEYS, true),
                    conn,
                    phase: Phase::Running,
                    pushed: [0; KEYS],
                    pulled: [0; KEYS],
                    answered: [vec![false; ROUNDS as usize], vec![false; ROUNDS as usize]],
                    outstanding: Vec::new(),
                    base: [0; KEYS],
                    acked: [0; KEYS],
                    proven: [0; KEYS],
                });
                if registers {
                    sim.register(w, Phase::Registering);
                }
            }
            sim
        }

        fn open(&mut self) -> usize {
            self.wires.push(VecDeque::new());
            self.replies.push(VecDeque::new());
            self.wires.len() - 1
        }

        fn send(&mut self, w: usize, msg: WireMsg, token: Option<usize>) {
            let conn = self.workers[w].conn;
            self.wires[conn].push_back((msg, token));
        }

        fn register(&mut self, w: usize, phase: Phase) {
            let conn = self.workers[w].conn;
            self.tokens.push(Token::Register { worker: w, conn });
            let token = Some(self.tokens.len() - 1);
            self.send(w, WireMsg::Register { worker: w as u32 }, token);
            self.workers[w].phase = phase;
        }

        /// The link of worker `w` drops: a random prefix of what it had
        /// sent still reaches the shard, its unread answers are lost, and
        /// it redials and re-registers. A redial attempt that fails never
        /// reaches the shard.
        fn cut(&mut self, w: usize) {
            let old = self.workers[w].conn;
            let keep = match self.workers[w].phase {
                Phase::Rejoining => 0,
                _ => self.rng.below(self.wires[old].len() + 1),
            };
            self.wires[old].truncate(keep);
            self.workers[w].conn = self.open();
            self.register(w, Phase::Rejoining);
        }

        /// Issue the pull of local `version` of key `k` through the core,
        /// checking the version it goes out at.
        fn pull(&mut self, w: usize, k: Key, version: u64) {
            let c = &self.workers[w];
            let issued = c.core.wire_version(k, version);
            let global = c.base[k] + version;
            let at = format!("worker {w} key {k} version {version} of seed {}", self.seed);
            if global + 1 < c.acked[k] {
                assert_eq!(issued, c.acked[k] - 1, "the clamp, {at}");
                self.clamps += 1;
            } else {
                assert_eq!(issued, global, "base + local version, {at}");
            }
            let conn = c.conn;
            self.tokens.push(Token::Pull {
                worker: w,
                key: k,
                version,
                issued,
                conn,
            });
            let token = self.tokens.len() - 1;
            self.workers[w].outstanding.push(token);
            let msg = WireMsg::Pull {
                key: k as u32,
                min_version: issued,
            };
            self.send(w, msg, Some(token));
        }

        /// One thing worker `w` can do, if any: read an answer, issue a
        /// cut-off pull again, push, or pull. `drops` lets its link drop.
        fn step(&mut self, w: usize, drops: bool) -> bool {
            let phase = self.workers[w].phase;
            if drops && phase != Phase::Registering && self.rng.one_in(15) {
                self.cut(w);
                return true;
            }
            let conn = self.workers[w].conn;
            if !self.replies[conn].is_empty() && (phase != Phase::Running || self.rng.one_in(2)) {
                let (token, answer) = self.replies[conn].pop_front().unwrap();
                self.answer(token, answer);
                return true;
            }
            if phase != Phase::Running {
                return false;
            }
            let c = &self.workers[w];
            let stale = c
                .outstanding
                .iter()
                .copied()
                .find(|&t| match self.tokens[t] {
                    Token::Pull { conn: rode, .. } => rode != conn,
                    Token::Register { .. } => false,
                });
            if let Some(t) = stale {
                // The waiter of a pull whose link died issues it again.
                self.workers[w].outstanding.retain(|&o| o != t);
                let Token::Pull { key, version, .. } = self.tokens[t] else {
                    unreachable!()
                };
                self.pull(w, key, version);
                return true;
            }
            let k = self.rng.below(KEYS);
            let c = &self.workers[w];
            if c.pulled[k] < c.pushed[k] && (c.pushed[k] == ROUNDS || self.rng.one_in(2)) {
                let version = c.pulled[k] + 1;
                self.workers[w].pulled[k] = version;
                self.pull(w, k, version);
                return true;
            }
            if c.pushed[k] < ROUNDS && c.pushed[k] < c.answered_upto(k) + LAG {
                let c = &mut self.workers[w];
                c.pushed[k] += 1;
                let payload = one_hot(w, c.pushed[k]);
                c.core.admit(k, &payload);
                let (worker, key) = (w as u32, k as u32);
                self.send(
                    w,
                    WireMsg::Push {
                        worker,
                        key,
                        payload,
                    },
                    None,
                );
                return true;
            }
            false
        }

        /// Worker-side handling of one answer read off a worker's current
        /// connection.
        fn answer(&mut self, token: usize, answer: Result<WireMsg, NetError>) {
            let at = format!("token {token} of seed {}", self.seed);
            match self.tokens[token] {
                Token::Pull {
                    worker: w,
                    key: k,
                    version,
                    issued,
                    ..
                } => {
                    self.workers[w].outstanding.retain(|&o| o != token);
                    let weights = match answer {
                        Ok(WireMsg::PullReply {
                            min_version,
                            weights,
                            ..
                        }) => {
                            assert_eq!(min_version, issued, "{at}");
                            weights
                        }
                        // A pull the shard can no longer serve retires its
                        // connection: the waiter redials and issues it again.
                        Err(_) => {
                            self.workers[w].outstanding.push(token);
                            return self.cut(w);
                        }
                        other => panic!("pull answered {other:?}, {at}"),
                    };
                    // Version `issued` holds exactly the pushes of the
                    // rounds at or below it, each once.
                    for (u, c) in self.workers.iter().enumerate() {
                        for r in 1..=ROUNDS {
                            let x = weights[u * ROUNDS as usize + r as usize - 1];
                            let want = if c.base[k] + r <= issued { -1.0 } else { 0.0 };
                            assert_eq!(x, want, "worker {u} round {r} at {issued}, {at}");
                        }
                    }
                    let c = &mut self.workers[w];
                    c.answered[k][version as usize - 1] = true;
                    c.proven[k] = c.proven[k].max(issued);
                    c.core.confirm(k, issued);
                }
                Token::Register { worker: w, .. } => {
                    let Ok(WireMsg::RegisterAck { versions }) = answer else {
                        panic!("register answered {answer:?}, {at}");
                    };
                    let mut replays = Vec::new();
                    let c = &mut self.workers[w];
                    if c.phase == Phase::Registering {
                        c.core.rebase(&versions).unwrap();
                        c.base.copy_from_slice(&versions);
                    } else {
                        // Prune what the ack proves aggregated; replay the
                        // rest on the fresh connection.
                        let again = c.core.replayed(&versions).unwrap();
                        replays.extend(again.map(|(k, p)| (k, p.clone())));
                    }
                    c.acked.copy_from_slice(&versions);
                    for (proven, v) in c.proven.iter_mut().zip(&versions) {
                        *proven = (*proven).max(*v);
                    }
                    c.phase = Phase::Running;
                    for (k, payload) in replays {
                        let (worker, key) = (w as u32, k as u32);
                        let push = WireMsg::Push {
                            worker,
                            key,
                            payload,
                        };
                        self.send(w, push, None);
                    }
                }
            }
        }

        /// Hand the oldest frame of a random busy connection to the shard.
        fn deliver(&mut self) -> bool {
            let busy: Vec<usize> = (0..self.wires.len())
                .filter(|&c| !self.wires[c].is_empty())
                .collect();
            if busy.is_empty() {
                return false;
            }
            let conn = busy[self.rng.below(busy.len())];
            let (msg, token) = self.wires[conn].pop_front().unwrap();
            let owed = self.shard.on(conn as u64, msg, token, self.now);
            self.after(owed);
            true
        }

        /// Queue each answer on the connection its request came on, then
        /// check every worker's replay buffer against the spec: exactly
        /// the pushes sent and not yet proven aggregated, within bound.
        fn after(&mut self, owed: Vec<Owed<usize>>) {
            assert_eq!(self.shard.failure(), None, "seed {}", self.seed);
            for (token, answer) in owed {
                let conn = match self.tokens[token] {
                    Token::Pull { conn, .. } | Token::Register { conn, .. } => conn,
                };
                self.replies[conn].push_back((token, answer));
            }
            for (w, c) in self.workers.iter().enumerate() {
                for (k, q) in c.core.replay.iter().flatten().enumerate() {
                    assert!(q.len() <= REPLAY_DEPTH, "seed {}", self.seed);
                    let held: Vec<u64> = q.iter().map(|(v, _)| *v).collect();
                    let sent = c.base[k] + 1..=c.base[k] + c.pushed[k];
                    let unproven: Vec<u64> = sent.filter(|v| *v > c.proven[k]).collect();
                    assert_eq!(held, unproven, "worker {w} key {k}, seed {}", self.seed);
                }
            }
        }

        fn run(mut self) -> usize {
            for _ in 0..600 {
                let w = self.rng.below(WORKERS);
                if self.rng.one_in(2) {
                    self.step(w, true);
                } else {
                    self.deliver();
                }
            }
            // The drain: no drops but those the shard makes, until every
            // pull of every round is answered.
            for _ in 0..20_000 {
                if self.workers.iter().all(Worker::done) {
                    break;
                }
                let w = self.rng.below(WORKERS);
                if !self.step(w, false) {
                    self.deliver();
                }
            }
            let seed = self.seed;
            for (w, c) in self.workers.iter().enumerate() {
                assert!(c.done(), "worker {w} never finished, seed {seed}");
                assert_eq!(c.base, [self.start; KEYS], "seed {seed}");
            }
            // Every push was aggregated exactly once, in its own round.
            self.tokens.push(Token::Register { worker: 0, conn: 0 });
            let owed = self.shard.on(0, WireMsg::Snapshot, Some(0), self.now);
            let [(_, Ok(WireMsg::SnapshotReply { weights, versions }))] = &owed[..] else {
                panic!("snapshot answered {owed:?}, seed {seed}");
            };
            assert_eq!(versions, &[self.start + ROUNDS; KEYS], "seed {seed}");
            for w in weights {
                assert!(w.iter().all(|x| *x == -1.0), "{w:?}, seed {seed}");
            }
            self.clamps
        }
    }

    #[test]
    fn seeded_sessions_keep_each_push_once_and_each_pull_exact() {
        let clamps: usize = (0..256).map(|seed| Sim::new(seed).run()).sum();
        assert!(clamps > 0, "no schedule reached the clamp");
    }
}
