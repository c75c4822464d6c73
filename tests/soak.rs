//! Connection-scaling soak test for the event-loop server: one `psd`
//! process must sustain well over a hundred concurrent TCP workers with
//! a *fixed* IO-thread pool and bounded per-connection memory. The old
//! thread-per-connection server would burn two OS threads and two
//! stacks per worker; the readiness-polling loop keeps the server's
//! footprint flat no matter how many sockets attach, and this test
//! pins that property with an RSS delta read from the server process's
//! own `/proc/<pid>/status`.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::thread;

use cd_sgd_repro::deploy;
use cdsgd_compress::Compressed;
use cdsgd_net::{NetConfig, TcpAcceptor};
use cdsgd_ps::{NetCluster, PsBackend, PsNetServer, ServerConfig};

const SEED: u64 = 5;
const MODEL: &str = "mlp:8,32,4";
/// The acceptance bar from the control-plane redesign: ≥128 concurrent
/// worker connections against a single shard server.
const SOAK_WORKERS: usize = 128;
const SOAK_ROUNDS: u64 = 3;
/// RSS growth budget for the server across all soak connections —
/// 512 KiB per connection, an order of magnitude above the real
/// steady-state cost, but far below what a per-connection thread pair
/// (two stacks) or an unbounded write buffer would show.
const RSS_BUDGET_KIB: u64 = (SOAK_WORKERS as u64) * 512;

/// Kills leftover children if an assertion fires before clean shutdown.
struct Reap(Vec<Child>);

impl Drop for Reap {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Resident set size of `pid` in KiB, from `/proc/<pid>/status`.
/// `None` where procfs is unavailable — the soak still runs, only the
/// memory assertion is skipped.
fn rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn one_psd_sustains_128_concurrent_workers_with_bounded_rss() {
    let mut reap = Reap(Vec::new());
    let mut child = Command::new(env!("CARGO_BIN_EXE_psd"))
        .args([
            "--shard",
            "0",
            "--num-shards",
            "1",
            "--workers",
            &SOAK_WORKERS.to_string(),
            "--lr",
            "0.2",
            "--port",
            "0",
            "--model",
            MODEL,
            "--seed",
            &SEED.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn psd");
    let stdout = child.stdout.take().expect("psd stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read LISTENING line");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected psd output: {line:?}"))
        .to_string();
    let pid = child.id();
    reap.0.push(child);

    let init = deploy::initial_weights(MODEL, SEED);
    let key_lens: Vec<usize> = init.iter().map(Vec::len).collect();
    let num_keys = key_lens.len();
    let rss_before = rss_kib(pid);

    // Every worker holds its connections open across two barrier stops:
    // the first lets the main thread measure the server's RSS while all
    // sockets are attached and every round has completed; the second
    // releases the workers to disconnect.
    let barrier = Arc::new(Barrier::new(SOAK_WORKERS + 1));
    let handles: Vec<_> = (0..SOAK_WORKERS)
        .map(|w| {
            let addr = addr.clone();
            let key_lens = key_lens.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let cluster = NetCluster::connect(
                    std::slice::from_ref(&addr),
                    key_lens.len(),
                    NetConfig::default(),
                )
                .expect("connect soak worker");
                let client = cluster.client().expect("open connection");
                // Zero gradients keep the global weights bit-equal to
                // the init, so the final snapshot is self-checking.
                for round in 0..SOAK_ROUNDS {
                    for (key, &len) in key_lens.iter().enumerate() {
                        client
                            .push(w, key, Compressed::Raw(vec![0.0; len]))
                            .expect("push");
                    }
                    for (key, &len) in key_lens.iter().enumerate() {
                        let weights = client.pull(key, round + 1).expect("pull");
                        assert_eq!(weights.len(), len, "pull returned wrong key shape");
                    }
                }
                barrier.wait(); // rounds done, connection still open
                barrier.wait(); // main thread has measured RSS
                drop(cluster);
            })
        })
        .collect();

    barrier.wait();
    let rss_after = rss_kib(pid);
    if let (Some(before), Some(after)) = (rss_before, rss_after) {
        let grew = after.saturating_sub(before);
        assert!(
            grew < RSS_BUDGET_KIB,
            "server RSS grew {grew} KiB across {SOAK_WORKERS} connections \
             (budget {RSS_BUDGET_KIB} KiB): per-connection memory is not bounded"
        );
    }
    barrier.wait();
    for h in handles {
        h.join().expect("soak worker thread panicked");
    }

    // Controller: the zero-gradient rounds must have left the weights
    // untouched and advanced every key to exactly SOAK_ROUNDS.
    let cluster = NetCluster::connect(std::slice::from_ref(&addr), num_keys, NetConfig::default())
        .expect("connect controller");
    let (weights, versions) = cluster.snapshot().expect("snapshot");
    Box::new(cluster).shutdown();
    assert_eq!(weights, init, "zero gradients must not move the weights");
    assert!(
        versions.iter().all(|&v| v == SOAK_ROUNDS),
        "every key must finish {SOAK_ROUNDS} rounds, got {versions:?}"
    );

    let status = reap.0.remove(0).wait().expect("wait psd");
    assert!(status.success(), "psd exited with {status}");
}

#[test]
fn io_thread_pool_stays_fixed_as_connections_attach() {
    // The in-process twin of the soak: the event loop serves every
    // connection from the same small pool — attaching more sockets must
    // not grow it.
    const WORKERS: usize = 32;
    let server = PsNetServer::start(vec![vec![0.0; 8]], ServerConfig::new(WORKERS, 1.0));
    let (acceptor, addr) = TcpAcceptor::bind(("127.0.0.1", 0), NetConfig::default()).unwrap();
    server.listen(acceptor);
    let pool_at_start = server.io_threads();

    let addr = addr.to_string();
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let addr = addr.clone();
            thread::spawn(move || {
                let cluster =
                    NetCluster::connect(std::slice::from_ref(&addr), 1, NetConfig::default())
                        .expect("connect");
                let client = cluster.client().expect("open connection");
                client.push(w, 0, Compressed::Raw(vec![1.0; 8])).unwrap();
                let weights = client.pull(0, 1).unwrap();
                // lr 1.0, 32 workers, Σgrad = 32 → step −1.0 on every lane.
                assert_eq!(&*weights, &[-1.0f32; 8][..]);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }

    assert_eq!(
        server.io_threads(),
        pool_at_start,
        "IO pool grew with connection count"
    );
    assert_eq!(server.rejected_connections(), 0);
    server.shutdown();
}

#[test]
fn reconnecting_worker_survives_repeated_link_drops_exactly() {
    // Endurance for the reconnect path: one worker rides out *three*
    // scripted link drops in a single 40-round run — every session is
    // torn down mid-stream, redialed, re-registered, and its
    // unaggregated pushes replayed. The final server state must be
    // exact: any lost or double-counted replay shows up as a wrong
    // weight or a skipped round.
    use std::time::Duration;

    use cdsgd_net::{FaultPlan, ReconnectConfig};
    use cdsgd_ps::{Attach, ElasticConfig};

    const KEY_LEN: usize = 8;
    const ROUNDS: u64 = 40;
    const DROPS: u64 = 3;
    const SOAK_BUDGET: Duration = Duration::from_secs(60);

    fn run() -> (Vec<Vec<f32>>, Vec<u64>, u64) {
        let init = vec![vec![0.0; KEY_LEN], vec![1.0; KEY_LEN]];
        let cfg = cdsgd_ps::ServerConfig::new(1, 1.0).with_elastic(ElasticConfig::new(1));
        let cluster = NetCluster::start_tcp_local(init.clone(), cfg, 2, NetConfig::default())
            .expect("start cluster");
        // Each armed plan is consumed by exactly one dial, so keeping
        // one plan armed ahead of the next redial chains the drops:
        // the initial dial and the first two redials all get dying
        // links; the last redial finds nothing armed and runs clean.
        let drop_plan = || FaultPlan::new().kill_after_sends(20);
        cluster.arm_chaos(drop_plan());
        let rc = ReconnectConfig {
            retries: 5,
            backoff: Duration::from_millis(10),
        };
        let attached = cluster
            .attach(
                0,
                Attach {
                    register: true,
                    reconnect: Some(rc),
                    ..Attach::default()
                },
            )
            .expect("open connections and register");
        let client = attached.client();
        cluster.arm_chaos(drop_plan());
        let mut armed = 2u64;

        for round in 1..=ROUNDS {
            for key in 0..2 {
                client
                    .push(0, key, Compressed::Raw(vec![1.0; KEY_LEN]))
                    .expect("push survives every drop");
            }
            for (key, w0) in init.iter().enumerate() {
                let w = client
                    .pull_async(key, round)
                    .expect("pull")
                    .wait()
                    .expect("pull survives every drop");
                assert_eq!(&*w, &[w0[0] - round as f32; KEY_LEN][..]);
            }
            // A redial consumed the armed plan: arm the next one until
            // the drop quota is reached.
            if attached.reconnects() >= armed - 1 && armed < DROPS {
                cluster.arm_chaos(drop_plan());
                armed += 1;
            }
        }
        let reconnects = attached.reconnects();
        drop((client, attached));
        let (weights, versions) = cluster.snapshot().expect("snapshot");
        Box::new(cluster).shutdown();
        (weights, versions, reconnects)
    }

    let (tx, rx) = std::sync::mpsc::channel();
    let t = thread::spawn(move || {
        tx.send(run()).ok();
    });
    let (weights, versions, reconnects) = rx
        .recv_timeout(SOAK_BUDGET)
        .expect("repeated-drop soak stalled");
    t.join().unwrap();

    assert_eq!(
        reconnects, DROPS,
        "every armed drop must fire and be recovered exactly once"
    );
    assert_eq!(versions, vec![ROUNDS; 2], "no round skipped or repeated");
    assert_eq!(
        weights,
        vec![
            vec![0.0 - ROUNDS as f32; KEY_LEN],
            vec![1.0 - ROUNDS as f32; KEY_LEN]
        ],
        "replay must be exactly-once: drift here means a lost or doubled push"
    );
}
