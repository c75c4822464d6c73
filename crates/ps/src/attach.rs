//! How a networked worker attaches to a [`NetCluster`], from dial to
//! goodbye: one [`WorkerSession`] over a [`ShardedClient`] of
//! [`RemoteClient`]s, the thin shell that runs the I/O-free
//! [`crate::session::Session`] (DESIGN.md §13).

use crate::api::ParamClient;
use crate::client::{Answer, PendingReply};
use crate::fault::{FaultyClient, WorkerFault};
use crate::net::{NetCluster, RemoteClient, ShardDialer};
use crate::session::Session;
use crate::sharded::ShardedClient;
use crate::Key;
use cdsgd_compress::BufferPool;
use cdsgd_net::wire::WireMsg;
use cdsgd_net::{NetError, ReconnectConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

impl NetCluster {
    /// Attach `worker` to this cluster, in this fixed order (DESIGN.md
    /// §13):
    ///
    /// 1. **dial** every shard behind one [`WorkerSession`], with the
    ///    [`Attach::reconnect`] retry budget or none (recovery
    ///    re-registers, so a budget needs elastic shards);
    /// 2. **register** ([`Attach::register`]) through it: the ack is the
    ///    session's base, added to every pull, so a mid-run joiner
    ///    counts rounds from zero;
    /// 3. start the **heartbeat** thread ([`Attach::heartbeat`]) on the
    ///    session, so liveness rides the pushes' connections and
    ///    outlives a worker blocked in a long computation;
    /// 4. wrap the scripted **fault** ([`Attach::fault`]) outermost, so a
    ///    killed worker goes silent on the data plane only.
    pub fn attach(&self, worker: usize, how: Attach) -> Result<AttachedWorker, NetError> {
        let dialer = self.dialer.clone();
        let session = WorkerSession::dial(dialer, worker, self.num_keys, how.reconnect)?;
        let session = Arc::new(session);
        let acked = match how.register {
            true => Some(session.register(worker)?),
            false => None,
        };
        let heartbeat = how
            .heartbeat
            .map(|every| spawn_heartbeat(Arc::clone(&session), worker, every))
            .transpose()?;
        let mut client: Arc<dyn ParamClient> = Arc::clone(&session) as _;
        if let Some(fault) = how.fault {
            client = Arc::new(FaultyClient::new(client, fault, self.num_keys));
        }
        Ok(AttachedWorker {
            worker,
            session,
            client,
            acked,
            heartbeat,
        })
    }
}

/// How one worker attaches to a [`NetCluster`] ([`NetCluster::attach`]):
/// exactly the values the `worker` binary's membership and fault flags
/// carry. The default is a session with no retry budget.
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
    /// Registration, heartbeats and the final `leave` travel the
    /// session's ordered connections, as the pushes do.
    session: Arc<WorkerSession>,
    /// `session` behind the fault layer — what training uses.
    client: Arc<dyn ParamClient>,
    acked: Option<Vec<u64>>,
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
        self.session.reconnects()
    }

    /// End the attachment after the worker's final push: stop the
    /// heartbeat thread and, for a registered worker, send `leave` on
    /// the connections the pushes rode — so every shard sees the final
    /// round's pushes before the goodbye and aggregates them before the
    /// quorum shrinks.
    pub fn finish(mut self) -> Result<(), NetError> {
        self.stop_heartbeat();
        match self.acked {
            Some(_) => self.session.leave(self.worker),
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
/// one beat per `every` until stopped. A failed beat without a retry
/// budget means the connection is gone; the training thread surfaces the
/// real error.
fn spawn_heartbeat(
    session: Arc<WorkerSession>,
    worker: usize,
    every: Duration,
) -> Result<(Arc<AtomicBool>, JoinHandle<()>), NetError> {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("heartbeat".into())
        .spawn(move || {
            while !stop2.load(Ordering::Relaxed) && session.heartbeat(worker).is_ok() {
                std::thread::sleep(every);
            }
        })
        .map_err(|e| NetError::Io(format!("spawn heartbeat thread: {e}")))?;
    Ok((stop, thread))
}

/// A networked worker's client: its connections to every shard, run by
/// the I/O-free session core (`crate::session`). Pushes count global
/// versions from the base, pulls go out rebased and clamped, and a
/// completed pull confirms what it proves aggregated.
///
/// With a retry budget ([`Attach::reconnect`]) it survives transient link
/// drops: a failed send, or a pull whose connection dies before its
/// reply, redials every shard with bounded backoff, re-registers,
/// replays the pushes the ack does not prove aggregated and installs the
/// fresh connections; the thread waiting on a cut-off pull issues it
/// again. Recovery re-registers, so it needs elastic shards. Without a
/// budget it keeps no replay copies, never redials, and a failed request
/// returns its own error at once.
pub struct WorkerSession {
    shell: Arc<Shell>,
}

/// The session's connections and core, under its one lock.
struct Live {
    /// Bumped by every redial that installs connections or fails for
    /// good, so the observers of one dead set redial it once.
    epoch: u64,
    inner: ShardedClient<RemoteClient>,
    core: Session,
    /// The failure that spent the retry budget: every later request
    /// returns it.
    failed: Option<NetError>,
}

/// The shared half of a [`WorkerSession`], also held by every pull in
/// flight through it.
struct Shell {
    /// Never held across a backoff or a dial: pushes and heartbeats stay
    /// responsive while a redial is in flight, or a starved heartbeat
    /// could trip the server's liveness eviction before the redial lands.
    live: Mutex<Live>,
    /// Serialises redials. With `live` released during the dial, two
    /// observers of the same dead epoch would race fresh registrations,
    /// and the loser's discarded connection would end up the server-side
    /// push-fence owner, dropping the winner's pushes. The epoch only
    /// advances under this lock, so a check taken under it cannot be
    /// raced.
    redial: Mutex<()>,
    dialer: ShardDialer,
    pool: BufferPool,
    worker: usize,
    /// `None`: no retry budget.
    rc: Option<ReconnectConfig>,
    reconnects: AtomicU64,
}

impl WorkerSession {
    /// Dial every shard for `worker`, with the retry budget `rc`.
    pub(crate) fn dial(
        dialer: ShardDialer,
        worker: usize,
        num_keys: usize,
        rc: Option<ReconnectConfig>,
    ) -> Result<Self, NetError> {
        let pool = BufferPool::new();
        let inner = ShardedClient::from_clients(dialer.dial(&pool)?, pool.clone());
        let live = Live {
            epoch: 0,
            inner,
            core: Session::new(num_keys, rc.is_some()),
            failed: None,
        };
        let shell = Shell {
            live: Mutex::new(live),
            redial: Mutex::new(()),
            dialer,
            pool,
            worker,
            rc,
            reconnects: AtomicU64::new(0),
        };
        Ok(Self {
            shell: Arc::new(shell),
        })
    }

    /// How many times this session successfully redialed.
    pub fn reconnects(&self) -> u64 {
        self.shell.reconnects.load(Ordering::Relaxed)
    }
}

impl ParamClient for WorkerSession {
    /// A push is admitted, then sent; a pull goes out at its wire version
    /// and carries a re-issue; a register rebases the core. A failed
    /// push, pull, register or leave recovers (redials, with a budget); a
    /// push needs no second send, since a redial replays it. A heartbeat
    /// is best-effort under a budget: the push or pull that meets the
    /// dead link redials. Anything else (a join rollback, a control
    /// request) goes to the current connections without a redial: a
    /// cancel is only honoured from the connections whose registration it
    /// rolls back.
    fn request(&self, msg: WireMsg) -> Result<Option<PendingReply>, NetError> {
        let shell = &self.shell;
        match msg {
            WireMsg::Push {
                worker,
                key,
                payload,
            } => {
                let k = shell.lock().core.key(key)?;
                let sent = shell.send(|s| {
                    s.core.admit(k, &payload);
                    let push = WireMsg::Push {
                        worker,
                        key,
                        payload,
                    };
                    s.inner.request(push)
                });
                sent.map(|_| None)
            }
            WireMsg::Pull { key, min_version } => {
                let key = shell.lock().core.key(key)?;
                let (mut pending, issued, epoch) = shell.issue(key, min_version)?;
                pending.reissue = Some(Reissue {
                    shell: Arc::clone(shell),
                    key,
                    version: min_version,
                    issued,
                    epoch,
                });
                Ok(Some(pending))
            }
            WireMsg::Register { .. } => {
                let sent = shell.send(|s| s.inner.register(shell.worker))?;
                let mut s = shell.live()?;
                // After a redial, the ack of its register.
                let versions = sent.unwrap_or_else(|| s.core.acked().to_vec());
                s.core.rebase(&versions)?;
                let ack = WireMsg::RegisterAck { versions };
                Ok(Some(PendingReply::ready(Ok(ack))))
            }
            WireMsg::Leave { .. } => match shell.send(|s| s.inner.request(msg.clone()))? {
                Some(reply) => Ok(reply),
                None => shell.live()?.inner.request(msg),
            },
            WireMsg::Heartbeat { .. } => match shell.live()?.inner.request(msg) {
                Err(e) if shell.rc.is_none() => Err(e),
                _ => Ok(None),
            },
            other => shell.live()?.inner.request(other),
        }
    }

    fn pool(&self) -> &BufferPool {
        &self.shell.pool
    }
}

impl Shell {
    /// The session, whatever a panicking holder left it as.
    fn lock(&self) -> MutexGuard<'_, Live> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The session, unless it failed for good (then that failure).
    fn live(&self) -> Result<MutexGuard<'_, Live>, NetError> {
        let s = self.lock();
        match &s.failed {
            Some(e) => Err(e.clone()),
            None => Ok(s),
        }
    }

    /// Recover from `cause`, which ended a request sent under `epoch`.
    /// Without a budget that is `cause` itself. Otherwise redial, unless
    /// another thread already did since `epoch`, with `live` released
    /// across each backoff and dial.
    fn recover(&self, epoch: u64, cause: NetError) -> Result<(), NetError> {
        let Some(rc) = &self.rc else {
            return Err(cause);
        };
        let _redial = self.redial.lock().unwrap_or_else(PoisonError::into_inner);
        if self.live()?.epoch != epoch {
            return Ok(());
        }
        let mut last = cause;
        for attempt in 0..rc.retries {
            std::thread::sleep(rc.backoff_for(attempt));
            match self.redial_once() {
                Ok(()) => {
                    self.reconnects.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(e) => last = e,
            }
        }
        let mut s = self.lock();
        s.failed = Some(last.clone());
        s.epoch += 1;
        Err(last)
    }

    /// One redial: fresh connections to every shard, a re-register —
    /// which re-admits the worker (the shard clears the slot's stale
    /// queued pushes) and acks the current versions, rolling a partial
    /// failure back itself — then the replay and the install under one
    /// `live` hold. A push admitted meanwhile is either in the replay or
    /// goes out on the fresh connections: never lost between them.
    fn redial_once(&self) -> Result<(), NetError> {
        let fresh = ShardedClient::from_clients(self.dialer.dial(&self.pool)?, self.pool.clone());
        let acked = fresh.register(self.worker)?;
        let mut s = self.lock();
        let Live {
            epoch, inner, core, ..
        } = &mut *s;
        // The copies stay in the core in case these connections drop too.
        for (k, payload) in core.replayed(&acked)? {
            fresh.push(self.worker, k, payload.clone())?;
        }
        *inner = fresh;
        *epoch += 1;
        Ok(())
    }

    /// `send` on the live connections. A failure recovers
    /// ([`Shell::recover`]): `None` once the connections are redialed.
    fn send<T>(
        &self,
        send: impl FnOnce(&mut Live) -> Result<T, NetError>,
    ) -> Result<Option<T>, NetError> {
        let (epoch, cause) = {
            let mut s = self.live()?;
            match send(&mut s) {
                Ok(sent) => return Ok(Some(sent)),
                Err(e) => (s.epoch, e),
            }
        };
        self.recover(epoch, cause).map(|()| None)
    }

    /// Issue a pull of local `version` of `key`, redialing until it goes
    /// out: the pull, its wire version and the epoch it rode.
    fn issue(&self, key: Key, version: u64) -> Result<(PendingReply, u64, u64), NetError> {
        loop {
            let sent = self.send(|s| {
                let issued = s.core.wire_version(key, version);
                let pending = s.inner.pull_async(key, issued)?;
                Ok((pending.0, issued, s.epoch))
            })?;
            if let Some(sent) = sent {
                return Ok(sent);
            }
        }
    }
}

/// What a pull through a [`WorkerSession`] needs to be confirmed, or
/// issued again if its connection dies before the reply: the caller's
/// key and local version, and the wire version and epoch its current
/// issue rode.
pub(crate) struct Reissue {
    shell: Arc<Shell>,
    key: Key,
    version: u64,
    issued: u64,
    /// A failure seen under an older epoch must not redial the newer one.
    epoch: u64,
}

impl Reissue {
    /// Finish the pull whose answer was `got`. An answer confirms what it
    /// proves aggregated; a failure redials (a no-op if another thread
    /// already did) and issues the pull again on the fresh connections,
    /// until it is answered or the session gives up.
    pub(crate) fn settle(&self, mut got: Answer) -> Answer {
        let (mut issued, mut epoch) = (self.issued, self.epoch);
        loop {
            let cause = match got {
                Ok(reply) => {
                    self.shell.lock().core.confirm(self.key, issued);
                    return Ok(reply);
                }
                Err(cause) => cause,
            };
            self.shell.recover(epoch, cause)?;
            let (pending, i, e) = self.shell.issue(self.key, self.version)?;
            (issued, epoch, got) = (i, e, pending.wait());
        }
    }
}
