//! Cross-layer telemetry acceptance tests: the typed event stream must
//! agree *exactly* with the legacy counters it replaced, on every
//! backend. An attached [`AggregateSink`] folds the same events the
//! internal `TrafficStats` counters fold, so the two views must be
//! bit-for-bit equal — in-process, over loopback transports, and over
//! real TCP sockets. A run with a sink — and nothing else — must stream
//! the paper's Fig. 5 op spans, in-process and per process, on one
//! causally consistent clock, and a JSONL trace must round-trip through
//! the parser without losing an event.

use std::sync::{Arc, Mutex};

use cd_sgd::{
    run_standalone_worker,
    telemetry::{now_s, op_spans, parse_jsonl_line},
    AggregateSink, Algorithm, Event, JsonlSink, Link, MemorySink, Telemetry, TrainConfig, Trainer,
};
use cd_sgd_repro::deploy;
use cdsgd_net::{loopback_pair, NetConfig};
use cdsgd_ps::{
    Durability, InProcessBackend, NetCluster, ParamServer, PsNetServer, RemoteClient, ServerConfig,
    TrafficStats,
};
use cdsgd_telemetry::Op;

fn blob_config() -> TrainConfig {
    TrainConfig::new(Algorithm::cd_sgd(0.05, 0.05, 2, 3), 2)
        .with_lr(0.2)
        .with_batch_size(16)
        .with_epochs(2)
        .with_seed(5)
}

fn blob_trainer(cfg: TrainConfig) -> Trainer {
    let (train, test) = deploy::build_dataset("blobs", 480, 5);
    Trainer::new(
        cfg,
        |rng| deploy::build_model("mlp:8,32,4", rng),
        train,
        Some(test),
    )
}

/// A slot the `run_with` closure fills with the backend's shared
/// counters, so they stay readable after the run consumes the backend.
type StatsSlot = Arc<Mutex<Option<Arc<TrafficStats>>>>;

/// All seven counters of the sink view vs the legacy accessor view,
/// bit for bit. Runs after the backend shut down (threads joined), so
/// both views are final.
fn assert_views_equal(name: &str, sink: &AggregateSink, stats: &TrafficStats) {
    assert_eq!(
        sink.bytes_pushed(),
        stats.bytes_pushed(),
        "{name}: bytes_pushed"
    );
    assert_eq!(
        sink.bytes_pulled(),
        stats.bytes_pulled(),
        "{name}: bytes_pulled"
    );
    assert_eq!(sink.num_pushes(), stats.num_pushes(), "{name}: num_pushes");
    assert_eq!(sink.num_pulls(), stats.num_pulls(), "{name}: num_pulls");
    assert_eq!(
        sink.bytes_copied(),
        stats.bytes_copied(),
        "{name}: bytes_copied"
    );
    assert_eq!(sink.bytes_sent(), stats.bytes_sent(), "{name}: bytes_sent");
    assert_eq!(
        sink.bytes_received(),
        stats.bytes_received(),
        "{name}: bytes_received"
    );
    assert!(sink.bytes_pushed() > 0, "{name}: counters are not wired up");
}

#[test]
fn aggregate_sink_matches_traffic_stats_on_every_backend() {
    // In-process: the sink attaches to the server's TrafficStats, so it
    // sees the same Push/Pull/SnapshotCopy events the internal counters
    // fold.
    let in_proc_sink = Arc::new(AggregateSink::new());
    let in_proc_tel = Telemetry::new(Arc::clone(&in_proc_sink) as _);
    let in_proc_slot: StatsSlot = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&in_proc_slot);
    let in_proc = blob_trainer(blob_config())
        .run_with(move |init, cfg| {
            let ps = ParamServer::start_with(init, cfg, in_proc_tel.clone(), Durability::default());
            *slot.lock().unwrap() = Some(ps.shared_stats());
            Ok(Box::new(InProcessBackend::new(ps)))
        })
        .expect("in-process run");

    // Loopback and TCP: the sink attaches to the cluster's client-side
    // TrafficStats, which charges the identical frame formulas.
    let loop_sink = Arc::new(AggregateSink::new());
    let loop_tel = Telemetry::new(Arc::clone(&loop_sink) as _);
    let loop_slot: StatsSlot = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&loop_slot);
    let loopback = blob_trainer(blob_config())
        .run_with(move |init, cfg| {
            let cluster = NetCluster::start_loopback(init, cfg, 2)?.traced(loop_tel.clone());
            *slot.lock().unwrap() = Some(cluster.shared_stats());
            Ok(Box::new(cluster))
        })
        .expect("loopback run");

    let tcp_sink = Arc::new(AggregateSink::new());
    let tcp_tel = Telemetry::new(Arc::clone(&tcp_sink) as _);
    let tcp_slot: StatsSlot = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&tcp_slot);
    let tcp = blob_trainer(blob_config())
        .run_with(move |init, cfg| {
            let cluster = NetCluster::start_tcp_local(init, cfg, 2, NetConfig::default())?
                .traced(tcp_tel.clone());
            *slot.lock().unwrap() = Some(cluster.shared_stats());
            Ok(Box::new(cluster))
        })
        .expect("tcp run");

    // The three runs are bit-identical (the repo's standing invariant),
    // so the telemetry comparison below compares like with like.
    assert_eq!(in_proc.final_weights, loopback.final_weights);
    assert_eq!(in_proc.final_weights, tcp.final_weights);

    for (name, sink, slot) in [
        ("in-process", &in_proc_sink, &in_proc_slot),
        ("loopback", &loop_sink, &loop_slot),
        ("tcp", &tcp_sink, &tcp_slot),
    ] {
        let stats = slot.lock().unwrap().take().expect("backend was built");
        assert_views_equal(name, sink, &stats);
    }

    // The message-level accounting is identical across all three
    // backends (the bit-determinism invariant extended to telemetry).
    for sink in [&loop_sink, &tcp_sink] {
        assert_eq!(sink.bytes_pushed(), in_proc_sink.bytes_pushed());
        assert_eq!(sink.bytes_pulled(), in_proc_sink.bytes_pulled());
        assert_eq!(sink.num_pushes(), in_proc_sink.num_pushes());
        assert_eq!(sink.num_pulls(), in_proc_sink.num_pulls());
    }

    // Frame events exist only where frames exist: never in-process,
    // identically on the two wire backends (same codec, same frames).
    assert_eq!(in_proc_sink.bytes_sent(), 0);
    assert_eq!(in_proc_sink.bytes_received(), 0);
    assert!(loop_sink.bytes_sent() > 0);
    assert_eq!(loop_sink.bytes_sent(), tcp_sink.bytes_sent());
    assert_eq!(loop_sink.bytes_received(), tcp_sink.bytes_received());
}

#[test]
fn profiled_run_streams_op_spans_with_monotonic_timestamps() {
    let mem = Arc::new(MemorySink::new());
    let cfg = blob_config().with_telemetry(Telemetry::new(Arc::clone(&mem) as _));
    blob_trainer(cfg).run();

    let events = mem.events();
    let spans: Vec<(usize, Op, f64, f64)> = op_spans(&events)
        .map(|(worker, op, _, start_s, end_s)| (worker, op, start_s, end_s))
        .collect();

    // The paper's Fig. 5 categories all appear for CD-SGD: forward,
    // backward, quantization, the push and the pull wait it tries to
    // hide.
    for op in [
        Op::Forward,
        Op::Backward,
        Op::Compress,
        Op::Push,
        Op::PullWait,
    ] {
        assert!(
            spans.iter().any(|(_, o, _, _)| *o == op),
            "no {op:?} ({}) span in a profiled CD-SGD run",
            op.name()
        );
    }

    // Per worker, spans arrive in recording order: timestamps are
    // monotonic and every interval is well-formed.
    for w in 0..2 {
        let mut last = f64::NEG_INFINITY;
        let mut count = 0;
        for (worker, _, start_s, end_s) in &spans {
            if *worker != w {
                continue;
            }
            assert!(*end_s >= *start_s, "inverted span interval");
            assert!(
                *start_s >= last,
                "worker {w} spans out of order: {start_s} after {last}"
            );
            last = *start_s;
            count += 1;
        }
        assert!(count > 0, "worker {w} recorded no spans");
    }

    // The measured Fig. 5 overlap: BP is one span per layer, and on this
    // two-layer model every compressing round quantizes its last layer
    // (the first `Compress` span of the round, in stream order) before
    // BP of the first layer (the lane's last `Backward` span) is over.
    let mut first_quant_start = std::collections::BTreeMap::<(usize, u64), f64>::new();
    let mut last_bp_end = std::collections::BTreeMap::<(usize, u64), f64>::new();
    for (lane, op, round, start_s, end_s) in op_spans(&events) {
        match op {
            Op::Compress => {
                first_quant_start.entry((lane, round)).or_insert(start_s);
            }
            Op::Backward => {
                last_bp_end.insert((lane, round), end_s);
            }
            _ => {}
        }
    }
    // Warm-up 3, k = 2: the formal rounds 4, 6, 8, … compress, on both
    // lanes.
    let rounds = 1 + last_bp_end.keys().map(|&(_, r)| r).max().expect("BP spans");
    let compressing = (0..2).flat_map(|lane| (4..rounds).step_by(2).map(move |r| (lane, r)));
    assert!(rounds > 8, "too few rounds to have checked anything");
    assert!(first_quant_start.keys().copied().eq(compressing));
    for (at, quant) in &first_quant_start {
        assert!(
            *quant < last_bp_end[at],
            "(lane, round) {at:?}: the first quant started at {quant}, after BP ended at {}",
            last_bp_end[at]
        );
    }
}

#[test]
fn jsonl_trace_round_trips_every_event() {
    let path = std::env::temp_dir().join(format!("cdsgd_{}_trace.jsonl", std::process::id()));
    let mem = Arc::new(MemorySink::new());
    let jsonl = Telemetry::new(Arc::new(JsonlSink::create(&path).expect("create trace")) as _);
    let tel = Telemetry::new(Arc::clone(&mem) as _).and(&jsonl);

    let history = blob_trainer(blob_config().with_telemetry(tel)).run();
    jsonl.flush();

    let text = std::fs::read_to_string(&path).expect("read trace");
    let parsed: Vec<Event> = text
        .lines()
        .map(|l| parse_jsonl_line(l).unwrap_or_else(|e| panic!("unparsable line {l:?}: {e:?}")))
        .collect();

    // The file holds exactly the event stream the memory sink saw,
    // value for value (f32/f64 survive the JSON round trip exactly).
    // Compared as sorted multisets: the two sinks receive every event,
    // but concurrent emitters may interleave differently.
    let canon = |events: &[Event]| -> Vec<String> {
        let mut v: Vec<String> = events
            .iter()
            .map(|e| serde_json::to_string(e).expect("event serializes"))
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        canon(&parsed),
        canon(&mem.events()),
        "JSONL trace diverged from the event stream"
    );
    // Every `Op` variant a worker lane emits crosses the file, the
    // per-key push among them, under its variant name.
    for (op, tag) in [
        (Op::Forward, "Forward"),
        (Op::Backward, "Backward"),
        (Op::Compress, "Compress"),
        (Op::Push, "Push"),
        (Op::PullWait, "PullWait"),
        (Op::LocalUpdate, "LocalUpdate"),
    ] {
        assert!(op_spans(&parsed).any(|s| s.1 == op), "no {op:?} span");
        let tag = format!(r#""op":"{tag}""#);
        assert!(text.lines().any(|l| l.contains(&tag)), "no {tag} line");
    }

    // And the epoch rollups in the trace match the history rows.
    let epochs: Vec<&Event> = parsed
        .iter()
        .filter(|e| matches!(e, Event::Epoch { .. }))
        .collect();
    assert_eq!(epochs.len(), history.epochs.len());
    for (ev, row) in epochs.iter().zip(&history.epochs) {
        let Event::Epoch {
            epoch,
            train_loss,
            push_bytes,
            pull_bytes,
            ..
        } = ev
        else {
            unreachable!()
        };
        assert_eq!(*epoch, row.epoch);
        assert_eq!(*train_loss, row.train_loss);
        assert_eq!(*push_bytes, row.cumulative_push_bytes);
        assert_eq!(*pull_bytes, row.cumulative_pull_bytes);
    }
    std::fs::remove_file(&path).ok();
}

const FIG5: [Op; 6] = [
    Op::Forward,
    Op::Backward,
    Op::Compress,
    Op::Push,
    Op::PullWait,
    Op::LocalUpdate,
];

#[test]
fn standalone_worker_and_net_server_trace_their_own_lanes() {
    // The multi-process shape, in one test process: a `PsNetServer`
    // shard and two `run_standalone_worker`s, each with its *own* sink —
    // what `psd --trace` and `worker --trace` write. Every worker's
    // trace holds all six Fig. 5 categories on its own lane and nothing
    // on any other; the shard's holds dequant on the server lane.
    let cfg = blob_config();
    let init = deploy::initial_weights("mlp:8,32,4", cfg.seed);
    let server_mem = Arc::new(MemorySink::new());
    let server = PsNetServer::start_with(
        init,
        ServerConfig::new(2, cfg.global_lr),
        Telemetry::new(Arc::clone(&server_mem) as _),
        Durability::default(),
    );
    let (train, test) = deploy::build_dataset("blobs", 480, 5);
    let traces: Vec<Vec<Event>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|id| {
                let (client_end, server_end) = loopback_pair();
                server.attach(Box::new(server_end)).unwrap();
                let client = RemoteClient::new(
                    Box::new(client_end),
                    Arc::new(TrafficStats::new()),
                    Default::default(),
                )
                .unwrap();
                let mem = Arc::new(MemorySink::new());
                let cfg = cfg
                    .clone()
                    .with_telemetry(Telemetry::new(Arc::clone(&mem) as _));
                let (train, test) = (&train, test.clone());
                s.spawn(move || {
                    run_standalone_worker(
                        cfg,
                        id,
                        |rng| deploy::build_model("mlp:8,32,4", rng),
                        train,
                        Some(test),
                        Link::Ps(Arc::new(client)),
                    )
                    .expect("standalone worker");
                    mem.events()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    server.shutdown();

    for (id, trace) in traces.iter().enumerate() {
        let spans: Vec<_> = op_spans(trace).collect();
        for op in FIG5 {
            assert!(
                spans.iter().any(|s| s.0 == id && s.1 == op),
                "worker {id}'s trace has no {op:?} span on its own lane"
            );
        }
        assert!(
            spans.iter().all(|s| s.0 == id),
            "worker {id}'s trace carries another lane"
        );
    }
    let server_spans: Vec<_> = op_spans(&server_mem.events()).collect();
    assert!(!server_spans.is_empty(), "the shard traced no dequant");
    assert!(
        server_spans
            .iter()
            .all(|s| s.0 == 2 && s.1 == Op::Decompress),
        "a shard's spans are dequant on lane = worker count"
    );
}

#[test]
fn back_to_back_runs_share_one_causal_clock() {
    // Two traced in-process trainings in one process. In each, the
    // server cannot dequantize a round's first key before the slowest
    // worker finished quantizing it — so on one clock every server-lane
    // span of a compressed round starts after the latest first-key
    // quant end of that round — and every lane's timestamps lie inside
    // the run's own wall-clock window (no per-run origin, no offset
    // that grows with every earlier run).
    for run in 0..2 {
        let mem = Arc::new(MemorySink::new());
        let cfg = blob_config().with_telemetry(Telemetry::new(Arc::clone(&mem) as _));
        let begin = now_s();
        blob_trainer(cfg).run();
        let end = now_s();
        let events = mem.events();
        let spans: Vec<_> = op_spans(&events).collect();
        for &(lane, op, _, start_s, end_s) in &spans {
            assert!(
                begin <= start_s && start_s <= end_s && end_s <= end,
                "run {run}: lane {lane} {op:?} span [{start_s}, {end_s}] \
                 outside the run's window [{begin}, {end}]"
            );
        }
        // Per round and worker, the end of the first (key 0) quant span.
        let mut first_quant_end = std::collections::BTreeMap::<(u64, usize), f64>::new();
        for &(lane, op, round, _, end_s) in &spans {
            if op == Op::Compress {
                first_quant_end.entry((round, lane)).or_insert(end_s);
            }
        }
        let mut checked = 0;
        for &(lane, op, round, start_s, _) in &spans {
            if lane != 2 || op != Op::Decompress {
                continue;
            }
            let quant_done = (0..2)
                .filter_map(|w| first_quant_end.get(&(round, w)))
                .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            assert!(
                start_s >= quant_done,
                "run {run}: dequant of round {round} started at {start_s}, \
                 before its quant finished at {quant_done}"
            );
            checked += quant_done.is_finite() as usize;
        }
        assert!(checked > 0, "run {run}: no compressed round was checked");
    }
}
