//! How a networked worker attaches to a [`NetCluster`], from dial to
//! goodbye: the one place that layers its client stack (DESIGN.md §13).

use crate::api::{ParamClient, PsBackend};
use crate::client::PendingReply;
use crate::fault::{FaultyClient, WorkerFault};
use crate::net::{NetCluster, ReconnectingClient};
use cdsgd_compress::BufferPool;
use cdsgd_net::wire::WireMsg;
use cdsgd_net::{NetError, ReconnectConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

impl NetCluster {
    /// Attach `worker` to this cluster: the one place that decides how a
    /// networked worker's client stack is layered (DESIGN.md §13), in
    /// this fixed order —
    ///
    /// 1. **dial** every shard: a plain routed client, or with
    ///    [`Attach::reconnect`] a [`ReconnectingClient`] (which needs
    ///    elastic shards, since recovery re-registers);
    /// 2. **register** ([`Attach::register`]) on that stream and keep
    ///    the per-key version ack;
    /// 3. **rebase** pulls by the ack, iff any acked version is above
    ///    zero (a mid-run joiner counts rounds from zero);
    /// 4. start the **heartbeat** thread ([`Attach::heartbeat`]) on the
    ///    dialed stream, so liveness is mutex-serialised with the pushes
    ///    and outlives a worker blocked in a long computation;
    /// 5. wrap the scripted **fault** ([`Attach::fault`]) outermost, so a
    ///    killed worker goes silent on the data plane only.
    pub fn attach(&self, worker: usize, how: Attach) -> Result<AttachedWorker, NetError> {
        let (stream, reconnecting): (Arc<dyn ParamClient>, _) = match how.reconnect {
            Some(rc) => {
                let c = Arc::new(self.reconnecting_client(worker, rc)?);
                (Arc::clone(&c) as _, Some(c))
            }
            None => (Arc::from(self.client()?), None),
        };
        let acked = if how.register {
            Some(stream.register(worker)?)
        } else {
            None
        };
        let mut client = Arc::clone(&stream);
        if let Some(base) = acked.as_ref().filter(|a| a.iter().any(|&v| v > 0)) {
            client = Arc::new(Rebased {
                inner: client,
                base: base.clone(),
            });
        }
        let heartbeat = how
            .heartbeat
            .map(|every| spawn_heartbeat(Arc::clone(&stream), worker, every))
            .transpose()?;
        if let Some(fault) = how.fault {
            client = Arc::new(FaultyClient::new(client, fault, self.num_keys));
        }
        Ok(AttachedWorker {
            worker,
            stream,
            client,
            acked,
            reconnecting,
            heartbeat,
        })
    }
}

/// How one worker attaches to a [`NetCluster`] ([`NetCluster::attach`]):
/// exactly the values the `worker` binary's membership and fault flags
/// carry. The default is a plain dial.
#[derive(Clone, Debug, Default)]
pub struct Attach {
    /// `--register`: announce the worker to every shard before training
    /// (required when it was not in the servers' initial worker set) and
    /// say goodbye in [`AttachedWorker::finish`].
    pub register: bool,
    /// `--heartbeat-ms`: emit a liveness heartbeat to every shard at this
    /// interval from a background thread.
    pub heartbeat: Option<Duration>,
    /// `--reconnect-retries` / `--reconnect-backoff-ms`: survive link
    /// drops by redialing, re-registering and replaying.
    pub reconnect: Option<ReconnectConfig>,
    /// `--chaos-kill-round`: the scripted worker failure.
    pub fault: Option<WorkerFault>,
}

/// One worker's attachment to a [`NetCluster`], from dial to goodbye:
/// the training client plus everything [`NetCluster::attach`] started on
/// its behalf. Dropping it stops the heartbeat thread without leaving.
pub struct AttachedWorker {
    worker: usize,
    /// The dialed connections: registration, heartbeats and the final
    /// `leave` travel the same ordered stream as the pushes.
    stream: Arc<dyn ParamClient>,
    /// `stream` behind the rebase and fault layers — what training uses.
    client: Arc<dyn ParamClient>,
    acked: Option<Vec<u64>>,
    reconnecting: Option<Arc<ReconnectingClient>>,
    heartbeat: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

impl AttachedWorker {
    /// The client the worker trains through.
    pub fn client(&self) -> Arc<dyn ParamClient> {
        Arc::clone(&self.client)
    }

    /// The per-key global versions the shards acked at registration
    /// (`None` without [`Attach::register`]).
    pub fn acked(&self) -> Option<&[u64]> {
        self.acked.as_deref()
    }

    /// How many times the link was successfully redialed (always 0
    /// without [`Attach::reconnect`]).
    pub fn reconnects(&self) -> u64 {
        self.reconnecting.as_ref().map_or(0, |c| c.reconnects())
    }

    /// End the attachment after the worker's final push: stop the
    /// heartbeat thread and, for a registered worker, send `leave` on
    /// the stream the pushes rode — so every shard sees the final
    /// round's pushes before the goodbye and aggregates them before the
    /// quorum shrinks.
    pub fn finish(mut self) -> Result<(), NetError> {
        self.stop_heartbeat();
        match self.acked {
            Some(_) => self.stream.leave(self.worker),
            None => Ok(()),
        }
    }

    fn stop_heartbeat(&mut self) {
        if let Some((stop, thread)) = self.heartbeat.take() {
            stop.store(true, Ordering::Relaxed);
            let _ = thread.join();
        }
    }
}

impl Drop for AttachedWorker {
    fn drop(&mut self) {
        self.stop_heartbeat();
    }
}

/// Liveness emission for the servers' heartbeat-timeout eviction sweep:
/// one beat per `every` until stopped. A failed send means the
/// connection is gone; the training thread surfaces the real error.
fn spawn_heartbeat(
    stream: Arc<dyn ParamClient>,
    worker: usize,
    every: Duration,
) -> Result<(Arc<AtomicBool>, JoinHandle<()>), NetError> {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("heartbeat".into())
        .spawn(move || {
            while !stop2.load(Ordering::Relaxed) && stream.heartbeat(worker).is_ok() {
                std::thread::sleep(every);
            }
        })
        .map_err(|e| NetError::Io(format!("spawn heartbeat thread: {e}")))?;
    Ok((stop, thread))
}

/// A mid-run joiner's view of the server: every pull's `min_version` is
/// rebased by the per-key versions the server acked at registration —
/// the one place `base[key]` is added to a pull.
///
/// Update strategies count rounds locally from zero, but a worker that
/// joins an elastic run at global round `V` participates in rounds
/// `V+1, V+2, …`, and the server keeps only the latest two versions of a
/// key. Registration's ack is *exact* (no round completes after the join
/// without the joiner), so local round `r` maps to global version
/// `base[key] + r` with no race window.
struct Rebased {
    inner: Arc<dyn ParamClient>,
    /// Per-key global version at admission (the `RegisterAck` payload).
    base: Vec<u64>,
}

impl ParamClient for Rebased {
    fn request(&self, msg: WireMsg) -> Result<Option<PendingReply>, NetError> {
        match msg {
            // A key the model does not have keeps its version: the shard
            // refuses it.
            WireMsg::Pull { key, min_version } => {
                let base = self.base.get(key as usize).copied().unwrap_or(0);
                let min_version = min_version + base;
                self.inner.request(WireMsg::Pull { key, min_version })
            }
            other => self.inner.request(other),
        }
    }

    fn pool(&self) -> &BufferPool {
        self.inner.pool()
    }
}
