//! Key sharding: the deployment shape MXNet uses (one server process per
//! node, keys spread across them), so the server is not a single-thread
//! bottleneck for many-key models.
//!
//! Shard `s` owns the global keys `{k : k % num_shards == s}`; clients
//! route each request to the owning shard and translate the key into the
//! shard's local index space. [`ShardedClient`] is generic over the
//! per-shard client; deployments route over
//! [`crate::net::RemoteClient`]s ([`crate::NetCluster`]).

use crate::api::ParamClient;
use crate::client::PendingReply;
use cdsgd_compress::BufferPool;
use cdsgd_net::wire::WireMsg;
use cdsgd_net::NetError;

/// A client that routes by key to the owning shard. Generic over the
/// per-shard client type.
#[derive(Clone)]
pub struct ShardedClient<C> {
    clients: Vec<C>,
    pool: BufferPool,
}

/// Split `init` round-robin: shard `s` gets global keys `s, s+S, s+2S, …`
/// in local order. Shared by [`crate::NetCluster`] and the `psd` server
/// binary so every deployment partitions identically.
pub fn partition_keys(init: Vec<Vec<f32>>, num_shards: usize) -> Vec<Vec<Vec<f32>>> {
    assert!(num_shards > 0, "need at least one shard");
    let mut per_shard: Vec<Vec<Vec<f32>>> = vec![Vec::new(); num_shards];
    for (key, weights) in init.into_iter().enumerate() {
        per_shard[key % num_shards].push(weights);
    }
    per_shard
}

/// Inverse of [`partition_keys`]: interleave per-shard lists, each in
/// its shard's local key order, back into global key order. Shards whose
/// key counts no round-robin split gives are a [`NetError::Decode`].
fn interleave<T>(per_shard: Vec<Vec<T>>) -> Result<Vec<T>, NetError> {
    let s = per_shard.len();
    let num_keys = per_shard.iter().map(Vec::len).sum();
    let mut shards: Vec<_> = per_shard.into_iter().map(Vec::into_iter).collect();
    (0..num_keys)
        .map(|k| {
            shards[k % s]
                .next()
                .ok_or_else(|| NetError::Decode(format!("shard {} holds no key {k}", k % s)))
        })
        .collect()
}

impl<C> ShardedClient<C> {
    /// Assemble a router from per-shard clients (index = shard id) and
    /// the payload pool compressors should draw from.
    pub fn from_clients(clients: Vec<C>, pool: BufferPool) -> Self {
        assert!(!clients.is_empty(), "need at least one shard client");
        Self { clients, pool }
    }
}

impl<C: ParamClient> ParamClient for ShardedClient<C> {
    /// A push or pull goes to the shard that owns its key. A register is
    /// the two-phase join below, a snapshot is asked of every shard and
    /// answered as one, and the fire-and-forget kinds go to every shard,
    /// best-effort: a shard skipped after an earlier failure would block
    /// its rounds on a departed member (`Leave`), or evict a live one for
    /// silence (`Heartbeat`). A cancel is safe to spray across shards
    /// that never admitted the worker: each server's `joined_by` fence
    /// makes it a no-op there.
    fn request(&self, msg: WireMsg) -> Result<Option<PendingReply>, NetError> {
        let ready = |reply| Ok(Some(PendingReply::ready(Ok(reply))));
        let every = |op, msg| self.on_every_shard(op, msg).map(|()| None);
        match msg {
            WireMsg::Push {
                worker,
                key,
                payload,
            } => {
                let (c, key) = self.route(key);
                c.request(WireMsg::Push {
                    worker,
                    key,
                    payload,
                })
            }
            WireMsg::Pull { key, min_version } => {
                let (c, key) = self.route(key);
                c.request(WireMsg::Pull { key, min_version })
            }
            WireMsg::Register { worker } => ready(WireMsg::RegisterAck {
                versions: self.join(worker as usize)?,
            }),
            WireMsg::Snapshot => {
                let (mut weights, mut versions) = (Vec::new(), Vec::new());
                for c in &self.clients {
                    let (w, v) = c.snapshot()?;
                    weights.push(w);
                    versions.push(v);
                }
                ready(WireMsg::SnapshotReply {
                    weights: interleave(weights)?,
                    versions: interleave(versions)?,
                })
            }
            WireMsg::Leave { .. } => every("leave", msg),
            WireMsg::CancelJoin { .. } => every("cancel_join", msg),
            WireMsg::Heartbeat { .. } => every("heartbeat", msg),
            WireMsg::SetLr { .. } => every("set_lr", msg),
            WireMsg::Shutdown => every("shutdown", msg),
            // A checkpoint captures one shard's own round, so it is asked
            // of a shard's client; a server-to-client kind is no request.
            WireMsg::Checkpoint
            | WireMsg::PullReply { .. }
            | WireMsg::SnapshotReply { .. }
            | WireMsg::RegisterAck { .. }
            | WireMsg::CheckpointAck { .. } => Err(NetError::Decode(
                "a sharded client sends no checkpoint or server-to-client frame".into(),
            )),
        }
    }

    fn pool(&self) -> &BufferPool {
        &self.pool
    }
}

impl<C: ParamClient> ShardedClient<C> {
    /// The shard owning global `key`, and the key's index there.
    fn route(&self, key: u32) -> (&C, u32) {
        let (key, n) = (key as usize, self.clients.len());
        // `key / n <= key`, so it still fits.
        (&self.clients[key % n], (key / n) as u32)
    }

    /// Best-effort `msg` to *every* shard — a failure on shard `k` does
    /// not skip shards `k+1..` — with the per-shard failures aggregated
    /// into one [`NetError::Membership`] named `op`.
    fn on_every_shard(&self, op: &'static str, msg: WireMsg) -> Result<(), NetError> {
        let mut failed = Vec::new();
        let mut last = None;
        for (shard, c) in self.clients.iter().enumerate() {
            if let Err(e) = c.request(msg.clone()) {
                failed.push(shard);
                last = Some(e);
            }
        }
        match last {
            None => Ok(()),
            Some(e) => Err(NetError::Membership {
                op,
                shards: failed,
                last: Box::new(e),
            }),
        }
    }

    /// Two-phase join: tentatively register with every shard in shard
    /// order, then [`interleave`] the per-shard version acks back into
    /// global key order. If any shard fails, the join is
    /// rolled back with a best-effort [`ParamClient::cancel_join`] on
    /// the shards already joined *and* the failing shard itself (whose
    /// register may have landed even though its ack was lost), so no
    /// shard is left counting a member the others don't. The rollback
    /// is exact, not merely best-effort-safe: each server demotes the
    /// worker only if *this* registration promoted it into the active
    /// set, so canceling a re-registration of an established member
    /// (the reconnect layer reuses this register) is a no-op and the
    /// active count can never drop below its pre-join value — which was
    /// a valid quorum (or zero) before this call started.
    fn join(&self, worker: usize) -> Result<Vec<u64>, NetError> {
        let mut per: Vec<Vec<u64>> = Vec::with_capacity(self.clients.len());
        for (shard, c) in self.clients.iter().enumerate() {
            match c.register(worker) {
                Ok(versions) => per.push(versions),
                Err(e) => {
                    for joined in &self.clients[..=shard] {
                        let _ = joined.cancel_join(worker);
                    }
                    return Err(NetError::Membership {
                        op: "register",
                        shards: vec![shard],
                        last: Box::new(e),
                    });
                }
            }
        }
        interleave(per)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PsClient;
    use crate::server::{ParamServer, ServerConfig};
    use cdsgd_compress::Compressed;

    fn init(keys: usize) -> Vec<Vec<f32>> {
        (0..keys).map(|k| vec![k as f32; 2]).collect()
    }

    /// `num_shards` plain in-process servers with `init`'s keys
    /// interleaved across them.
    fn start(init: Vec<Vec<f32>>, cfg: ServerConfig, num_shards: usize) -> Vec<ParamServer> {
        partition_keys(init, num_shards)
            .into_iter()
            .map(|shard_init| ParamServer::start(shard_init, cfg))
            .collect()
    }

    fn client(shards: &[ParamServer]) -> ShardedClient<PsClient> {
        ShardedClient::from_clients(
            shards.iter().map(ParamServer::client).collect(),
            BufferPool::new(),
        )
    }

    fn shutdown(shards: Vec<ParamServer>) {
        for s in shards {
            s.shutdown();
        }
    }

    #[test]
    fn routing_preserves_key_identity() {
        let ps = start(init(7), ServerConfig::new(1, 1.0), 3);
        let c = client(&ps);
        for k in 0..7 {
            assert_eq!(*c.pull(k, 0).unwrap(), [k as f32; 2], "key {k}");
        }
        shutdown(ps);
    }

    #[test]
    fn updates_apply_to_the_right_key() {
        let ps = start(init(5), ServerConfig::new(1, 0.5), 2);
        let c = client(&ps);
        c.push(0, 3, Compressed::Raw(vec![2.0, 4.0])).unwrap();
        // key 3 updated: 3 − 0.5·2 = 2, 3 − 0.5·4 = 1.
        assert_eq!(*c.pull(3, 1).unwrap(), [2.0, 1.0]);
        // Other keys untouched (still version 0).
        assert_eq!(*c.pull(0, 0).unwrap(), [0.0, 0.0]);
        assert_eq!(*c.pull(4, 0).unwrap(), [4.0, 4.0]);
        shutdown(ps);
    }

    #[test]
    fn shards_progress_independently_and_concurrently() {
        let ps = start(init(4), ServerConfig::new(2, 1.0), 2);
        let clients: Vec<_> = (0..2).map(|_| client(&ps)).collect();
        std::thread::scope(|s| {
            for (w, c) in clients.iter().enumerate() {
                s.spawn(move || {
                    for k in 0..4 {
                        c.push(w, k, Compressed::Raw(vec![1.0, 1.0])).unwrap();
                    }
                    c.pull_all(4, 1).unwrap()
                });
            }
        });
        // Every key advanced one version: k − 1.0/2·(1+1) = k − 1.
        let c = client(&ps);
        for k in 0..4 {
            assert_eq!(*c.pull(k, 1).unwrap(), [k as f32 - 1.0; 2]);
        }
        shutdown(ps);
    }

    #[test]
    fn load_spreads_across_shards() {
        let ps = start(init(8), ServerConfig::new(1, 1.0), 4);
        let c = client(&ps);
        for k in 0..8 {
            c.push(0, k, Compressed::Raw(vec![1.0, 1.0])).unwrap();
            c.pull(k, 1).unwrap();
        }
        let per: Vec<u64> = ps.iter().map(|s| s.stats().bytes_pushed()).collect();
        assert_eq!(per.len(), 4);
        assert!(
            per[0] > 0 && per.iter().all(|&b| b == per[0]),
            "balanced: {per:?}"
        );
        shutdown(ps);
    }

    #[test]
    fn single_shard_equals_plain_server() {
        let sharded = start(init(3), ServerConfig::new(1, 0.1), 1);
        let plain = ParamServer::start(init(3), ServerConfig::new(1, 0.1));
        let sc = client(&sharded);
        let pc = plain.client();
        for k in 0..3 {
            sc.push(0, k, Compressed::Raw(vec![1.0, 2.0])).unwrap();
            pc.push(0, k, Compressed::Raw(vec![1.0, 2.0])).unwrap();
            assert_eq!(sc.pull(k, 1).unwrap(), pc.pull(k, 1).unwrap());
        }
        shutdown(sharded);
        plain.shutdown();
    }

    #[test]
    fn snapshot_reassembles_global_key_order() {
        let ps = start(init(5), ServerConfig::new(1, 1.0), 2);
        let c = client(&ps);
        c.push(0, 2, Compressed::Raw(vec![1.0, 1.0])).unwrap();
        c.pull(2, 1).unwrap();
        let (w, v) = c.snapshot().unwrap();
        assert_eq!(w.len(), 5);
        assert_eq!(v, vec![0, 0, 1, 0, 0]);
        assert_eq!(w[2], vec![1.0, 1.0]);
        assert_eq!(w[3], vec![3.0, 3.0]);
        shutdown(ps);
    }

    #[test]
    fn interleave_inverts_the_partition_and_refuses_a_misfit() {
        let keys: Vec<Vec<f32>> = (0..5).map(|k| vec![k as f32]).collect();
        assert_eq!(interleave(partition_keys(keys.clone(), 2)).unwrap(), keys);
        // Acks or snapshots arrive from sockets: shards whose key counts
        // no round-robin split gives are refused, not indexed past.
        let misfit = interleave(vec![vec![0], vec![1, 3, 5]]);
        assert!(matches!(misfit, Err(NetError::Decode(_))), "{misfit:?}");
    }

    /// A scripted per-shard client: records membership calls and fails
    /// register, or leave and heartbeat, on demand, so the router's
    /// transaction logic is testable without servers.
    struct ScriptedShard {
        fail_register: bool,
        fail_leave: bool,
        registers: std::sync::Mutex<Vec<usize>>,
        leaves: std::sync::Mutex<Vec<usize>>,
        cancels: std::sync::Mutex<Vec<usize>>,
        beats: std::sync::Mutex<Vec<usize>>,
        pool: BufferPool,
    }

    impl ScriptedShard {
        fn new(fail_register: bool, fail_leave: bool) -> Self {
            Self {
                fail_register,
                fail_leave,
                registers: std::sync::Mutex::new(Vec::new()),
                leaves: std::sync::Mutex::new(Vec::new()),
                cancels: std::sync::Mutex::new(Vec::new()),
                beats: std::sync::Mutex::new(Vec::new()),
                pool: BufferPool::new(),
            }
        }
    }

    impl ParamClient for ScriptedShard {
        fn request(&self, msg: WireMsg) -> Result<Option<PendingReply>, NetError> {
            let (log, worker, fails) = match msg {
                WireMsg::Register { worker } => {
                    if self.fail_register {
                        return Err(NetError::Closed);
                    }
                    self.registers.lock().unwrap().push(worker as usize);
                    let ack = WireMsg::RegisterAck { versions: vec![7] };
                    return Ok(Some(PendingReply::ready(Ok(ack))));
                }
                WireMsg::Leave { worker } => (&self.leaves, worker, self.fail_leave),
                WireMsg::Heartbeat { worker } => (&self.beats, worker, self.fail_leave),
                WireMsg::CancelJoin { worker } => (&self.cancels, worker, false),
                other => return Err(NetError::Decode(format!("unscripted {other:?}"))),
            };
            log.lock().unwrap().push(worker as usize);
            if fails {
                return Err(NetError::ServerGone);
            }
            Ok(None)
        }
        fn pool(&self) -> &BufferPool {
            &self.pool
        }
    }

    #[test]
    fn partial_register_rolls_back_joined_shards() {
        let shards = vec![
            ScriptedShard::new(false, false),
            ScriptedShard::new(true, false),
            ScriptedShard::new(false, false),
        ];
        let c = ShardedClient::from_clients(shards, BufferPool::new());
        let err = c.register(4).unwrap_err();
        assert_eq!(
            err,
            NetError::Membership {
                op: "register",
                shards: vec![1],
                last: Box::new(NetError::Closed),
            }
        );
        // Shard 0 was joined, then rolled back with a cancel — never a
        // `leave`, which would demote the worker even when the register
        // was a re-registration of an established member. The failing
        // shard 1 is canceled too (its register may have landed with the
        // ack lost); shard 2 was never reached by register or rollback.
        assert_eq!(*c.clients[0].registers.lock().unwrap(), [4]);
        assert_eq!(*c.clients[0].cancels.lock().unwrap(), [4]);
        assert!(c.clients[0].leaves.lock().unwrap().is_empty());
        assert_eq!(*c.clients[1].cancels.lock().unwrap(), [4]);
        assert!(c.clients[2].registers.lock().unwrap().is_empty());
        assert!(c.clients[2].cancels.lock().unwrap().is_empty());
        assert!(c.clients[2].leaves.lock().unwrap().is_empty());
    }

    #[test]
    fn register_success_interleaves_acks() {
        let shards = vec![
            ScriptedShard::new(false, false),
            ScriptedShard::new(false, false),
        ];
        let c = ShardedClient::from_clients(shards, BufferPool::new());
        assert_eq!(c.register(2).unwrap(), vec![7, 7]);
        assert_eq!(*c.clients[1].registers.lock().unwrap(), [2]);
    }

    #[test]
    fn leave_is_best_effort_and_aggregates_failures() {
        let shards = vec![
            ScriptedShard::new(false, true),
            ScriptedShard::new(false, false),
            ScriptedShard::new(false, true),
        ];
        let c = ShardedClient::from_clients(shards, BufferPool::new());
        let err = c.leave(3).unwrap_err();
        assert_eq!(
            err,
            NetError::Membership {
                op: "leave",
                shards: vec![0, 2],
                last: Box::new(NetError::ServerGone),
            }
        );
        // Every shard saw the goodbye despite shard 0 failing first.
        for shard in &c.clients {
            assert_eq!(*shard.leaves.lock().unwrap(), [3]);
        }
    }

    #[test]
    fn heartbeat_reaches_every_shard_past_a_failing_one() {
        let shards = vec![
            ScriptedShard::new(false, true),
            ScriptedShard::new(false, false),
            ScriptedShard::new(false, false),
        ];
        let c = ShardedClient::from_clients(shards, BufferPool::new());
        let err = c.heartbeat(5).unwrap_err();
        assert_eq!(
            err,
            NetError::Membership {
                op: "heartbeat",
                shards: vec![0],
                last: Box::new(NetError::ServerGone),
            }
        );
        // A dead link to shard 0 must not silence the healthy shards
        // behind it, or they would evict a live worker.
        for shard in &c.clients {
            assert_eq!(*shard.beats.lock().unwrap(), [5]);
        }
    }

    #[test]
    fn shards_share_one_payload_pool() {
        // The router and its per-shard connections draw from one pool: a
        // payload pushed to shard 1 is recycled, once encoded, into the
        // pool the router hands to compressors for a push to any shard.
        use crate::{NetCluster, PsBackend};
        let cluster = NetCluster::start_loopback(init(4), ServerConfig::new(1, 1.0), 2).unwrap();
        let c = cluster.client().unwrap();
        c.push(0, 1, Compressed::Raw(vec![1.0, 1.0])).unwrap();
        c.pull(1, 1).unwrap();
        let buf = c.pool().take_f32();
        assert!(buf.capacity() >= 2, "recycled capacity {}", buf.capacity());
        drop(c);
        Box::new(cluster).shutdown();
    }
}
