//! # cdsgd-telemetry
//!
//! One event model for every measurement the system makes (DESIGN.md §12).
//!
//! The paper's central claims are *measured* ones — Fig. 5's per-op
//! iteration-time breakdown and the communication-cost accounting of
//! eqs. 2 and 4–9 — so instrumentation is a first-class subsystem here,
//! not an afterthought scattered across layers. Every layer reports what
//! it observes as a typed [`Event`] through a shared [`Telemetry`]
//! handle; *where the events go* is a pluggable [`Sink`]:
//!
//! * [`NullSink`] — discard (measures the cost of the emission path).
//! * [`MemorySink`] — buffer in memory, for tests.
//! * [`JsonlSink`] — stream to a trace file, one JSON event per line.
//! * [`AggregateSink`] — fold into atomic byte/count totals (what
//!   `cdsgd_ps`'s `TrafficStats` is a view of).
//! * [`Console`] — render lifecycle events as human-readable status
//!   lines on stderr (and expose explicit stdout "contract" lines for
//!   machine-parseable output).
//!
//! Disabled telemetry is free: [`Telemetry::emit`] takes a closure, so
//! when no sink is attached the event is never even constructed — the
//! cost is one `Option` discriminant test. This is what lets the
//! bit-determinism suites run with telemetry off while production runs
//! trace every frame, without two code paths.
//!
//! Op intervals (the Fig. 5 lanes) take the same road as every other
//! event: a timed site brackets its work with [`Telemetry::span_start`]
//! / [`Telemetry::span_end`] on the handle it already holds and one
//! [`Event::OpSpan`] goes to the sink at once, stamped on the one
//! process-wide clock ([`now_s`]). [`summarize`] and [`to_chrome_json`]
//! read any `&[Event]` — a [`MemorySink`]'s buffer or a parsed
//! [`JsonlSink`] file from any process.
//!
//! This crate sits below `core`, `ps` and the binaries (it depends only
//! on the vendored `serde` shims), so they all emit into the same
//! stream; the compute crates (`tensor`, `nn`, `compress`) stay below
//! it and are timed by the layer that calls them.

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// A worker-side operation category: the paper's Fig. 5 breakdown of one
/// training iteration. Span events carry one of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Forward propagation.
    Forward,
    /// Backward propagation of one top-level layer: a step's BP is one
    /// span per layer, so the spans of the keys each layer hands over
    /// (`Compress`, `Push`) sit between them.
    Backward,
    /// Gradient quantization/encoding (the paper's "quant").
    Compress,
    /// The server-side "dequant": one span per key-round, covering the
    /// round's one pass — decode, sum and optimizer step. Emitted on the
    /// server's own span lane, whose `worker` index is one past the last
    /// real worker.
    Decompress,
    /// The local update of eq. 11 (CD-SGD's delay-hiding step).
    LocalUpdate,
    /// Blocking on a parameter pull (the paper's "pull wait" — the cost
    /// eq. 2 models and compression + local updates shrink).
    PullWait,
    /// Handing one key's payload to the transport: on TCP, where the
    /// worker thread blocks in the socket write while BP waits.
    Push,
}

impl Op {
    /// Short label used in summaries and trace tooling; matches the
    /// paper's Fig. 5 legend where one exists.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Forward => "FP",
            Op::Backward => "BP",
            Op::Compress => "quant",
            Op::Decompress => "dequant",
            Op::LocalUpdate => "local_update",
            Op::PullWait => "pull_wait",
            Op::Push => "push",
        }
    }
}

/// One observed fact, from whichever layer observed it.
///
/// Variants use named fields only (the vendored serde derive's enum
/// support) and serialize externally tagged — `{"FrameSent":{...}}` —
/// which is what [`JsonlSink`] writes per line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A timed operation: lane `worker` spent `[start_s, end_s]`
    /// (seconds on the emitting process's clock, [`now_s`]) doing `op`
    /// in round `round`. Worker lanes are worker ids; a server's lane
    /// is its worker count.
    OpSpan {
        worker: usize,
        op: Op,
        round: u64,
        start_s: f64,
        end_s: f64,
    },
    /// The server accepted a gradient push of `bytes` wire bytes
    /// (message layer; eq. 4–9's per-algorithm push volume).
    Push { bytes: u64 },
    /// The server released a pull reply of `bytes` wire bytes.
    Pull { bytes: u64 },
    /// The server materialized a weight snapshot of `bytes` bytes (a
    /// memory copy, not network traffic).
    SnapshotCopy { bytes: u64 },
    /// A transport frame of `bytes` bytes left over connection `conn`.
    FrameSent { conn: u64, bytes: u64 },
    /// A transport frame of `bytes` bytes arrived on connection `conn`.
    FrameReceived { conn: u64, bytes: u64 },
    /// One collective operation (an all-reduce or a neighbor exchange)
    /// completed: `rank` of `world` sent `payload_bytes` of payload
    /// (message layer, frame headers excluded) during the operation.
    /// The per-frame traffic behind it is visible as conn-tagged
    /// [`Event::FrameSent`]/[`Event::FrameReceived`] pairs.
    CollectiveDone {
        rank: usize,
        world: usize,
        payload_bytes: u64,
    },
    /// Round `round` of `key` received its first push and is now waiting
    /// on the remaining workers (emitted once per round, on the
    /// empty→partial transition).
    RoundPartial { key: usize, round: u64 },
    /// `key` aggregated a full round; its version is now `version`.
    RoundComplete { key: usize, version: u64 },
    /// Round `round` of `key` outlived the server's round deadline;
    /// `victim` is the worker the server named as lost.
    RoundExpired {
        key: usize,
        round: u64,
        victim: usize,
    },
    /// Supervision declared worker `id` lost in round `round`.
    WorkerLost { id: usize, round: u64 },
    /// Elastic membership: `worker` registered (or re-registered) with
    /// the server; `active` is the quorum size after admission.
    WorkerJoined { worker: usize, active: usize },
    /// Elastic membership: `worker` departed — `graceful` when it sent a
    /// Leave, false when a heartbeat timeout forced it out. `active` is
    /// the quorum size after the departure.
    WorkerLeft {
        worker: usize,
        active: usize,
        graceful: bool,
    },
    /// The server's accept/attach path rejected or failed a connection
    /// attempt instead of serving it.
    ConnRejected { reason: String },
    /// The training run aborted in `epoch` at `round` with `error`.
    Abort {
        epoch: usize,
        round: u64,
        error: String,
    },
    /// End-of-epoch rollup: the same numbers a learning-curve row holds.
    Epoch {
        epoch: usize,
        train_loss: f32,
        train_acc: f32,
        test_acc: Option<f32>,
        seconds: f64,
        push_bytes: u64,
        pull_bytes: u64,
    },
}

/// Seconds since this process first timed anything — the one clock
/// every [`Event::OpSpan`] of a process is stamped on, whichever layer
/// or thread emits it, so spans from workers and server shards in one
/// process are causally comparable, run after run.
pub fn now_s() -> f64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// A destination for events. Implementations must be cheap and
/// non-blocking where possible: `record` runs on hot paths (per frame,
/// per span).
pub trait Sink: Send + Sync {
    /// Observe one event. Takes a reference so fan-out never clones.
    fn record(&self, event: &Event);

    /// Push any buffered output to its destination (no-op by default).
    fn flush(&self) {}
}

/// The handle every layer emits through: a cloneable
/// `Option<Arc<dyn Sink>>`.
///
/// When disabled (the default), [`Telemetry::emit`] never runs its
/// closure, so instrumented code pays only an `Option` test — no event
/// construction, no allocation, no lock.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<dyn Sink>>);

impl Telemetry {
    /// The no-op handle: nothing is recorded.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// A handle recording into `sink`.
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        Self(Some(sink))
    }

    /// Does this handle have a sink attached?
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record the event `f` builds — but only if a sink is attached;
    /// otherwise `f` is never called.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> Event) {
        if let Some(sink) = &self.0 {
            sink.record(&f());
        }
    }

    /// Open an op interval: the current [`now_s`] — or `None`, without
    /// reading the clock, when no sink is attached.
    #[inline]
    pub fn span_start(&self) -> Option<f64> {
        self.is_enabled().then(now_s)
    }

    /// Close an interval opened by [`Telemetry::span_start`]: emit one
    /// [`Event::OpSpan`] on `lane` ending now. A `None` start (disabled
    /// telemetry) emits nothing.
    #[inline]
    pub fn span_end(&self, lane: usize, op: Op, round: u64, start: Option<f64>) {
        if let (Some(sink), Some(start_s)) = (&self.0, start) {
            sink.record(&Event::OpSpan {
                worker: lane,
                op,
                round,
                start_s,
                end_s: now_s(),
            });
        }
    }

    /// Flush the attached sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.0 {
            sink.flush();
        }
    }

    /// Combine two handles: events emitted through the result reach both
    /// sinks. Disabled sides are dropped, so `disabled().and(&t)` is
    /// just `t` (no fan-out indirection).
    pub fn and(&self, other: &Telemetry) -> Telemetry {
        match (&self.0, &other.0) {
            (None, None) => Telemetry(None),
            (Some(a), None) => Telemetry(Some(Arc::clone(a))),
            (None, Some(b)) => Telemetry(Some(Arc::clone(b))),
            (Some(a), Some(b)) => Telemetry(Some(Arc::new(FanoutSink::new(vec![
                Arc::clone(a),
                Arc::clone(b),
            ])))),
        }
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_enabled() {
            "Telemetry(enabled)"
        } else {
            "Telemetry(disabled)"
        })
    }
}

/// Discards every event. Exists so "telemetry enabled but going
/// nowhere" is benchmarkable against "telemetry disabled".
#[derive(Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _event: &Event) {}
}

/// Fan one event stream out to several sinks, in order.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn Sink>>,
}

impl FanoutSink {
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> Self {
        Self { sinks }
    }
}

impl Sink for FanoutSink {
    fn record(&self, event: &Event) {
        for s in &self.sinks {
            s.record(event);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

/// Buffers every event in memory; the test-side sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything recorded so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Drain the buffer.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock().unwrap())
    }

    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// Streams events to a file, one JSON object per line (externally-tagged
/// [`Event`] encoding). The file is buffered; [`Sink::flush`] and drop
/// both force it out, so a trace is complete once the process exits
/// cleanly — binaries should still flush explicitly before printing
/// their final contract line.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncate) `path` and stream events into it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self {
            writer: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let line = serde_json::to_string(event).expect("Event serializes");
        let mut w = self.writer.lock().unwrap();
        // A full disk mid-trace shouldn't take the training run down
        // with it; the trace is an observer.
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().unwrap().flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Parse one [`JsonlSink`] line back into its event.
pub fn parse_jsonl_line(line: &str) -> Result<Event, serde_json::Error> {
    serde_json::from_str(line)
}

/// Per-op totals over the [`Event::OpSpan`]s of an event stream.
#[derive(Clone, Debug, Serialize)]
pub struct SpanSummary {
    /// Total seconds per worker-side op ([`Op::name`]), summed across
    /// lanes.
    pub totals: Vec<(String, f64)>,
    /// Fraction of total worker-time spent blocked on pulls.
    pub pull_wait_fraction: f64,
}

/// The `(lane, op, round, start_s, end_s)` of every [`Event::OpSpan`]
/// in `events`, in stream order.
pub fn op_spans(events: &[Event]) -> impl Iterator<Item = (usize, Op, u64, f64, f64)> + '_ {
    events.iter().filter_map(|e| match *e {
        Event::OpSpan {
            worker,
            op,
            round,
            start_s,
            end_s,
        } => Some((worker, op, round, start_s, end_s)),
        _ => None,
    })
}

/// Summarize a trace's worker-side op spans (the server's dequant lane
/// is not worker time): per-op totals and the blocked fraction.
pub fn summarize(events: &[Event]) -> SpanSummary {
    use Op::*;
    let mut totals =
        [Forward, Backward, Compress, Push, LocalUpdate, PullWait].map(|op| (op, 0.0f64));
    for (_, op, _, start_s, end_s) in op_spans(events) {
        if let Some(t) = totals.iter_mut().find(|t| t.0 == op) {
            t.1 += end_s - start_s;
        }
    }
    let all: f64 = totals.iter().map(|t| t.1).sum();
    let wait = totals.iter().find(|t| t.0 == PullWait).map_or(0.0, |t| t.1);
    SpanSummary {
        totals: totals
            .into_iter()
            .map(|(k, v)| (k.name().to_string(), v))
            .collect(),
        pull_wait_fraction: if all > 0.0 { wait / all } else { 0.0 },
    }
}

/// Export a trace's op spans as Chrome `trace_event` JSON (one tid per
/// lane), sorted by start time.
pub fn to_chrome_json(events: &[Event], process_name: &str) -> String {
    let mut spans: Vec<_> = op_spans(events).collect();
    spans.sort_by(|a, b| a.3.total_cmp(&b.3));
    let mut out: Vec<serde_json::Value> = vec![serde_json::json!({
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": process_name}
    })];
    for (lane, op, round, start_s, end_s) in spans {
        out.push(serde_json::json!({
            "name": format!("{}#{}", op.name(), round),
            "cat": op.name(),
            "ph": "X",
            "ts": start_s * 1e6,
            "dur": (end_s - start_s) * 1e6,
            "pid": 0,
            "tid": lane as u32,
        }));
    }
    serde_json::to_string_pretty(&out).expect("serialize trace")
}

/// Folds byte-carrying events into atomic totals — the accounting the
/// paper's eq. 2/4–9 communication model is checked against. This is the
/// storage behind `cdsgd_ps`'s `TrafficStats` view, and can be attached
/// as an extra sink to derive the same totals from any event stream.
#[derive(Debug, Default)]
pub struct AggregateSink {
    bytes_pushed: AtomicU64,
    bytes_pulled: AtomicU64,
    num_pushes: AtomicU64,
    num_pulls: AtomicU64,
    bytes_copied: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
}

impl AggregateSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total gradient bytes pushed (message layer).
    pub fn bytes_pushed(&self) -> u64 {
        self.bytes_pushed.load(Ordering::Relaxed)
    }

    /// Total weight bytes served through pulls (message layer).
    pub fn bytes_pulled(&self) -> u64 {
        self.bytes_pulled.load(Ordering::Relaxed)
    }

    /// Number of push messages.
    pub fn num_pushes(&self) -> u64 {
        self.num_pushes.load(Ordering::Relaxed)
    }

    /// Number of pull replies released.
    pub fn num_pulls(&self) -> u64 {
        self.num_pulls.load(Ordering::Relaxed)
    }

    /// Bytes copied building weight snapshots (memory, not network).
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied.load(Ordering::Relaxed)
    }

    /// Raw frame bytes sent over transports.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Raw frame bytes received over transports.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }
}

impl Sink for AggregateSink {
    fn record(&self, event: &Event) {
        match *event {
            Event::Push { bytes } => {
                self.bytes_pushed.fetch_add(bytes, Ordering::Relaxed);
                self.num_pushes.fetch_add(1, Ordering::Relaxed);
            }
            Event::Pull { bytes } => {
                self.bytes_pulled.fetch_add(bytes, Ordering::Relaxed);
                self.num_pulls.fetch_add(1, Ordering::Relaxed);
            }
            Event::SnapshotCopy { bytes } => {
                self.bytes_copied.fetch_add(bytes, Ordering::Relaxed);
            }
            Event::FrameSent { bytes, .. } => {
                self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
            }
            Event::FrameReceived { bytes, .. } => {
                self.bytes_received.fetch_add(bytes, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// The binaries' one mouthpiece, replacing scattered `println!`s.
///
/// Two channels with different contracts:
/// * **stderr** — human-facing status ([`Console::status`],
///   [`Console::error`], and lifecycle events when attached as a
///   [`Sink`]). Free-form, never parsed.
/// * **stdout** — machine-parseable contract lines
///   ([`Console::contract`]): `LISTENING <addr>`, `DONE worker <id>`,
///   `STATS ...`. Flushed eagerly, because process harnesses block on
///   them.
#[derive(Debug, Default)]
pub struct Console;

impl Console {
    pub fn new() -> Self {
        Self
    }

    /// Human-facing progress line (stderr).
    pub fn status(&self, msg: impl fmt::Display) {
        eprintln!("{msg}");
    }

    /// Human-facing error line (stderr).
    pub fn error(&self, msg: impl fmt::Display) {
        eprintln!("error: {msg}");
    }

    /// Machine-parseable line (stdout, flushed immediately so a pipe
    /// reader unblocks without waiting for process exit).
    pub fn contract(&self, msg: impl fmt::Display) {
        println!("{msg}");
        let _ = std::io::stdout().flush();
    }
}

impl Sink for Console {
    /// Render lifecycle events as status lines. Span and frame events
    /// are deliberately ignored — per-iteration output would swamp a
    /// terminal; that detail belongs in a [`JsonlSink`] trace.
    fn record(&self, event: &Event) {
        match event {
            Event::Epoch {
                epoch,
                train_loss,
                train_acc,
                test_acc,
                seconds,
                ..
            } => match test_acc {
                Some(acc) => self.status(format_args!(
                    "epoch {epoch} loss {train_loss:.6} acc {train_acc:.4} test_acc {acc:.4} ({seconds:.2}s)"
                )),
                None => self.status(format_args!(
                    "epoch {epoch} loss {train_loss:.6} acc {train_acc:.4} ({seconds:.2}s)"
                )),
            },
            Event::RoundExpired { key, round, victim } => self.status(format_args!(
                "round {round} of key {key} expired; worker {victim} presumed lost"
            )),
            Event::WorkerLost { id, round } => {
                self.status(format_args!("worker {id} lost in round {round}"))
            }
            Event::WorkerJoined { worker, active } => {
                self.status(format_args!("worker {worker} joined; {active} active"))
            }
            Event::WorkerLeft {
                worker,
                active,
                graceful,
            } => self.status(format_args!(
                "worker {worker} left{}; {active} active",
                if *graceful { "" } else { " (heartbeat timeout)" }
            )),
            Event::ConnRejected { reason } => {
                self.status(format_args!("connection rejected: {reason}"))
            }
            Event::Abort {
                epoch,
                round,
                error,
            } => self.status(format_args!(
                "training aborted in epoch {epoch} at round {round}: {error}"
            )),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(worker: usize, op: Op, start_s: f64) -> Event {
        Event::OpSpan {
            worker,
            op,
            round: 3,
            start_s,
            end_s: start_s + 0.25,
        }
    }

    #[test]
    fn disabled_emit_never_builds_the_event() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.emit(|| unreachable!("disabled telemetry must not construct events"));
        tel.flush();
    }

    #[test]
    fn disabled_span_never_reads_the_clock_or_emits() {
        let tel = Telemetry::disabled();
        assert_eq!(tel.span_start(), None);
        tel.span_end(0, Op::Forward, 0, None);
        // A start taken elsewhere still emits nothing without a sink.
        tel.span_end(0, Op::Forward, 0, Some(1.0));
    }

    #[test]
    fn span_helpers_emit_one_op_span_on_the_process_clock() {
        let mem = Arc::new(MemorySink::new());
        let tel = Telemetry::new(mem.clone());
        let before = now_s();
        let t = tel.span_start();
        tel.span_end(3, Op::Compress, 7, t);
        let after = now_s();
        let [Event::OpSpan {
            worker: 3,
            op: Op::Compress,
            round: 7,
            start_s,
            end_s,
        }] = mem.events()[..]
        else {
            panic!("expected exactly one OpSpan, got {:?}", mem.events());
        };
        assert!(before <= start_s && start_s <= end_s && end_s <= after);
    }

    #[test]
    fn summary_fractions() {
        let events = vec![
            span(0, Op::Forward, 0.0),
            span(0, Op::PullWait, 1.0),
            span(1, Op::Backward, 0.0),
            span(1, Op::Backward, 0.25),
            span(1, Op::Push, 0.5),
            // Neither the server lane nor non-span events count.
            span(2, Op::Decompress, 0.0),
            Event::Push { bytes: 81 },
        ];
        let s = summarize(&events);
        assert!((s.pull_wait_fraction - 0.2).abs() < 1e-9);
        for op in ["FP", "push"] {
            assert_eq!(s.totals.iter().find(|t| t.0 == op).unwrap().1, 0.25);
        }
    }

    #[test]
    fn chrome_json_holds_one_entry_per_span_sorted_by_start() {
        let events = vec![
            span(2, Op::Compress, 0.5),
            Event::Pull { bytes: 17 },
            span(0, Op::Forward, 0.125),
            span(1, Op::Push, 0.75),
        ];
        let v: serde_json::Value = serde_json::from_str(&to_chrome_json(&events, "t")).unwrap();
        let entries = v.as_array().unwrap();
        assert_eq!(entries.len(), 4, "metadata + three spans");
        assert_eq!(entries[1]["name"], "FP#3");
        assert_eq!(entries[2]["tid"], 2);
        assert_eq!(entries[3]["cat"], "push");
    }

    #[test]
    fn memory_sink_records_in_order() {
        let mem = Arc::new(MemorySink::new());
        let tel = Telemetry::new(mem.clone());
        assert!(tel.is_enabled());
        tel.emit(|| Event::Push { bytes: 81 });
        tel.emit(|| span(0, Op::Forward, 1.0));
        let events = mem.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], Event::Push { bytes: 81 });
        assert_eq!(mem.take().len(), 2);
        assert!(mem.is_empty());
    }

    #[test]
    fn fanout_reaches_every_sink_and_drops_disabled_sides() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let both = Telemetry::new(a.clone()).and(&Telemetry::new(b.clone()));
        both.emit(|| Event::Pull { bytes: 17 });
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);

        let single = Telemetry::new(a.clone()).and(&Telemetry::disabled());
        single.emit(|| Event::Pull { bytes: 17 });
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1, "disabled side must not resurrect");
        assert!(!Telemetry::disabled()
            .and(&Telemetry::disabled())
            .is_enabled());
    }

    #[test]
    fn aggregate_sink_folds_byte_events() {
        let agg = AggregateSink::new();
        agg.record(&Event::Push { bytes: 81 });
        agg.record(&Event::Push { bytes: 81 });
        agg.record(&Event::Pull { bytes: 33 });
        agg.record(&Event::SnapshotCopy { bytes: 16 });
        agg.record(&Event::FrameSent { conn: 1, bytes: 21 });
        agg.record(&Event::FrameReceived { conn: 2, bytes: 33 });
        agg.record(&span(0, Op::PullWait, 0.0)); // ignored
        assert_eq!(agg.bytes_pushed(), 162);
        assert_eq!(agg.num_pushes(), 2);
        assert_eq!(agg.bytes_pulled(), 33);
        assert_eq!(agg.num_pulls(), 1);
        assert_eq!(agg.bytes_copied(), 16);
        assert_eq!(agg.bytes_sent(), 21);
        assert_eq!(agg.bytes_received(), 33);
    }

    #[test]
    fn every_event_variant_round_trips_through_json() {
        let events = vec![
            span(2, Op::Backward, 0.125),
            Event::Push { bytes: 81 },
            Event::Pull { bytes: 17 },
            Event::SnapshotCopy { bytes: 64 },
            Event::FrameSent { conn: 7, bytes: 21 },
            Event::FrameReceived { conn: 7, bytes: 33 },
            Event::CollectiveDone {
                rank: 2,
                world: 4,
                payload_bytes: 3072,
            },
            Event::RoundPartial { key: 1, round: 4 },
            Event::RoundComplete { key: 1, version: 5 },
            Event::RoundExpired {
                key: 0,
                round: 9,
                victim: 1,
            },
            Event::WorkerLost { id: 1, round: 9 },
            Event::WorkerJoined {
                worker: 3,
                active: 4,
            },
            Event::WorkerLeft {
                worker: 3,
                active: 3,
                graceful: true,
            },
            Event::WorkerLeft {
                worker: 1,
                active: 2,
                graceful: false,
            },
            Event::ConnRejected {
                reason: "handshake failed".into(),
            },
            Event::Abort {
                epoch: 2,
                round: 9,
                error: "worker 1 lost".into(),
            },
            Event::Epoch {
                epoch: 0,
                train_loss: 0.5,
                train_acc: 0.75,
                test_acc: Some(0.8),
                seconds: 1.5,
                push_bytes: 1000,
                pull_bytes: 2000,
            },
            Event::Epoch {
                epoch: 1,
                train_loss: 0.25,
                train_acc: 0.875,
                test_acc: None,
                seconds: 1.25,
                push_bytes: 1,
                pull_bytes: 2,
            },
        ];
        for e in events {
            let line = serde_json::to_string(&e).unwrap();
            assert_eq!(parse_jsonl_line(&line).unwrap(), e, "line: {line}");
        }
    }

    #[test]
    fn jsonl_sink_writes_one_parseable_event_per_line() {
        let path = std::env::temp_dir().join(format!("cdsgd_tel_{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.record(&Event::FrameSent { conn: 1, bytes: 81 });
            sink.record(&span(0, Op::Compress, 2.0));
            // Drop flushes.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            parse_jsonl_line(lines[0]).unwrap(),
            Event::FrameSent { conn: 1, bytes: 81 }
        );
        assert_eq!(
            parse_jsonl_line(lines[1]).unwrap(),
            span(0, Op::Compress, 2.0)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn op_names_match_the_paper_legend() {
        assert_eq!(Op::Forward.name(), "FP");
        assert_eq!(Op::Backward.name(), "BP");
        assert_eq!(Op::Compress.name(), "quant");
        assert_eq!(Op::Decompress.name(), "dequant");
        assert_eq!(Op::LocalUpdate.name(), "local_update");
        assert_eq!(Op::PullWait.name(), "pull_wait");
        assert_eq!(Op::Push.name(), "push");
    }

    #[test]
    fn console_ignores_high_rate_events() {
        // Smoke: rendering must not panic, and span/frame events are
        // skipped (nothing observable to assert on stderr; this pins the
        // match arms compile and run).
        let console = Console::new();
        console.record(&span(0, Op::Forward, 0.0));
        console.record(&Event::FrameSent { conn: 1, bytes: 1 });
        console.record(&Event::Epoch {
            epoch: 0,
            train_loss: 1.0,
            train_acc: 0.5,
            test_acc: Some(0.5),
            seconds: 0.1,
            push_bytes: 0,
            pull_bytes: 0,
        });
    }
}
