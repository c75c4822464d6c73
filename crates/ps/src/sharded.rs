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
use crate::client::PendingPull;
use crate::Key;
use cdsgd_compress::{BufferPool, Compressed};
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

/// Inverse of [`partition_keys`] for snapshots: interleave per-shard
/// `(weights, versions)` back into global key order.
pub fn reassemble_snapshots(
    shards: Vec<(Vec<Vec<f32>>, Vec<u64>)>,
    num_keys: usize,
) -> (Vec<Vec<f32>>, Vec<u64>) {
    let s = shards.len();
    assert!(s > 0, "need at least one shard snapshot");
    let mut weights = Vec::with_capacity(num_keys);
    let mut versions = Vec::with_capacity(num_keys);
    for k in 0..num_keys {
        let (w, v) = &shards[k % s];
        weights.push(w[k / s].clone());
        versions.push(v[k / s]);
    }
    (weights, versions)
}

impl<C> ShardedClient<C> {
    /// Assemble a router from per-shard clients (index = shard id) and
    /// the payload pool compressors should draw from.
    pub fn from_clients(clients: Vec<C>, pool: BufferPool) -> Self {
        assert!(!clients.is_empty(), "need at least one shard client");
        Self { clients, pool }
    }

    fn route(&self, key: Key) -> (usize, Key) {
        let s = key % self.clients.len();
        (s, key / self.clients.len())
    }

    /// Best-effort `op` on *every* shard — a failure on shard `k` does
    /// not skip shards `k+1..` — with the per-shard failures aggregated
    /// into one [`NetError::Membership`].
    fn on_every_shard(
        &self,
        op: &'static str,
        f: impl Fn(&C) -> Result<(), NetError>,
    ) -> Result<(), NetError> {
        let mut failed = Vec::new();
        let mut last = None;
        for (shard, c) in self.clients.iter().enumerate() {
            if let Err(e) = f(c) {
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
}

impl<C: ParamClient> ParamClient for ShardedClient<C> {
    /// Push a gradient payload for global `key`.
    fn push(&self, worker: usize, key: Key, payload: Compressed) -> Result<(), NetError> {
        let (shard, local) = self.route(key);
        self.clients[shard].push(worker, local, payload)
    }

    fn pull_async(&self, key: Key, min_version: u64) -> Result<PendingPull, NetError> {
        let (shard, local) = self.route(key);
        self.clients[shard].pull_async(local, min_version)
    }

    /// Two-phase join: tentatively register with every shard in shard
    /// order, then interleave the per-shard version acks back into
    /// global key order (inverse of the round-robin key partition, same
    /// as [`reassemble_snapshots`]). If any shard fails, the join is
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
    fn register(&self, worker: usize) -> Result<Vec<u64>, NetError> {
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
        let s = per.len();
        let num_keys: usize = per.iter().map(|v| v.len()).sum();
        Ok((0..num_keys).map(|k| per[k % s][k / s]).collect())
    }

    /// Best-effort departure from *every* shard: a shard skipped after
    /// an earlier failure would block its rounds on a departed member
    /// until heartbeat eviction.
    fn leave(&self, worker: usize) -> Result<(), NetError> {
        self.on_every_shard("leave", |c| c.leave(worker))
    }

    /// Best-effort join rollback on *every* shard. Safe to spray across
    /// shards that never admitted the worker: each server's `joined_by`
    /// fence makes the cancel a no-op there.
    fn cancel_join(&self, worker: usize) -> Result<(), NetError> {
        self.on_every_shard("cancel_join", |c| c.cancel_join(worker))
    }

    fn heartbeat(&self, worker: usize) -> Result<(), NetError> {
        for c in &self.clients {
            c.heartbeat(worker)?;
        }
        Ok(())
    }

    fn pool(&self) -> &BufferPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PsClient;
    use crate::server::{ParamServer, ServerConfig};

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
        let per_shard = ps.iter().map(|s| s.client().snapshot().unwrap()).collect();
        let (w, v) = reassemble_snapshots(per_shard, 5);
        assert_eq!(w.len(), 5);
        assert_eq!(v, vec![0, 0, 1, 0, 0]);
        assert_eq!(w[2], vec![1.0, 1.0]);
        assert_eq!(w[3], vec![3.0, 3.0]);
        shutdown(ps);
    }

    /// A scripted per-shard client: records membership calls and fails
    /// register/leave on demand, so the router's transaction logic is
    /// testable without servers.
    struct ScriptedShard {
        fail_register: bool,
        fail_leave: bool,
        registers: std::sync::Mutex<Vec<usize>>,
        leaves: std::sync::Mutex<Vec<usize>>,
        cancels: std::sync::Mutex<Vec<usize>>,
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
                pool: BufferPool::new(),
            }
        }
    }

    impl ParamClient for ScriptedShard {
        fn push(&self, _: usize, _: Key, _: Compressed) -> Result<(), NetError> {
            unimplemented!("membership tests never push")
        }
        fn pull_async(&self, _: Key, _: u64) -> Result<PendingPull, NetError> {
            unimplemented!("membership tests never pull")
        }
        fn register(&self, worker: usize) -> Result<Vec<u64>, NetError> {
            if self.fail_register {
                return Err(NetError::Closed);
            }
            self.registers.lock().unwrap().push(worker);
            Ok(vec![7])
        }
        fn leave(&self, worker: usize) -> Result<(), NetError> {
            self.leaves.lock().unwrap().push(worker);
            if self.fail_leave {
                return Err(NetError::ServerGone);
            }
            Ok(())
        }
        fn cancel_join(&self, worker: usize) -> Result<(), NetError> {
            self.cancels.lock().unwrap().push(worker);
            Ok(())
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
