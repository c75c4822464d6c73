//! Real-execution profiling: wall-clock op intervals recorded inside the
//! worker loop — the in-process counterpart of the paper's MXNet-profiler
//! methodology (Fig. 5), applied to *this* implementation rather than the
//! timing simulator.
//!
//! Enable with [`crate::TrainConfig::with_profiling`]; events land in
//! [`crate::TrainingHistory::profile`] and, when a telemetry sink is
//! attached ([`crate::TrainConfig::with_telemetry`]), stream out as
//! [`cdsgd_telemetry::Event::OpSpan`]s.
//!
//! Recording is contention-free: each worker records into its own
//! [`WorkerProfile`] buffer (no lock, no atomic) and the buffer is merged
//! into the shared store once per epoch, at the epoch barrier — so the
//! profiler never serializes workers against each other on the training
//! hot path. [`Profiler::merge_count`] exposes the number of merges so
//! tests can assert the once-per-epoch bound.

use cdsgd_telemetry::{Event, Telemetry};
use serde::Serialize;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// The op categories the worker loop distinguishes — the paper's Fig. 5
/// legend. Re-exported from the telemetry event model so a profiled
/// interval and its streamed [`Event::OpSpan`] agree by construction.
pub use cdsgd_telemetry::Op as OpKind;

/// One recorded interval.
#[derive(Clone, Debug, Serialize)]
pub struct OpEvent {
    /// Worker id.
    pub worker: usize,
    /// Op category.
    pub op: OpKind,
    /// Training round the op belongs to.
    pub round: u64,
    /// Seconds since training start.
    pub start_s: f64,
    /// Seconds since training start.
    pub end_s: f64,
}

impl OpEvent {
    /// Interval length in seconds.
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

struct ProfilerShared {
    t0: Instant,
    events: Mutex<Vec<OpEvent>>,
    /// Number of per-worker buffer merges into `events` — bounded by
    /// workers × (epochs + 1), never by iterations.
    merges: AtomicU64,
    telemetry: Telemetry,
}

/// The shared profile store. Workers never record through this directly;
/// they record into a per-worker [`WorkerProfile`] (see
/// [`Profiler::worker`]) whose buffer merges here once per epoch.
#[derive(Clone)]
pub struct Profiler {
    inner: Arc<ProfilerShared>,
}

impl Profiler {
    /// Start the clock.
    pub fn new() -> Self {
        Self::with_telemetry(Telemetry::disabled())
    }

    /// Start the clock, streaming every merged interval to `telemetry`
    /// as an [`Event::OpSpan`] (in addition to storing it for
    /// [`Profiler::take`]).
    pub fn with_telemetry(telemetry: Telemetry) -> Self {
        Self {
            inner: Arc::new(ProfilerShared {
                t0: Instant::now(),
                events: Mutex::new(Vec::new()),
                merges: AtomicU64::new(0),
                telemetry,
            }),
        }
    }

    /// Current time on the profiler clock.
    pub fn now(&self) -> f64 {
        self.inner.t0.elapsed().as_secs_f64()
    }

    /// A recording handle for one worker: an unsynchronized local buffer
    /// sharing this profiler's clock. Flushed explicitly at the epoch
    /// barrier (and on drop as a safety net).
    pub fn worker(&self, id: usize) -> WorkerProfile {
        WorkerProfile {
            parent: self.clone(),
            id,
            buf: RefCell::new(Vec::new()),
        }
    }

    /// How many per-worker buffer merges have reached the shared store.
    pub fn merge_count(&self) -> u64 {
        self.inner.merges.load(Ordering::Relaxed)
    }

    /// Drain all events (sorted by start time). Workers must have flushed
    /// (the trainer joins them first, and [`WorkerProfile`] flushes on
    /// drop).
    pub fn take(&self) -> Vec<OpEvent> {
        let events = self.inner.events.lock();
        let mut ev = std::mem::take(&mut *events.unwrap_or_else(PoisonError::into_inner));
        ev.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        ev
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

/// One worker's recording handle: interval recording is a plain `Vec`
/// push with no synchronization; [`WorkerProfile::flush`] merges the
/// buffer into the parent [`Profiler`] under one lock acquisition.
pub struct WorkerProfile {
    parent: Profiler,
    id: usize,
    buf: RefCell<Vec<OpEvent>>,
}

impl WorkerProfile {
    /// Current time on the parent profiler's clock.
    pub fn now(&self) -> f64 {
        self.parent.now()
    }

    /// Record an interval that started at `start_s` and ends now.
    pub fn record(&self, op: OpKind, round: u64, start_s: f64) {
        let end_s = self.now();
        self.buf.borrow_mut().push(OpEvent {
            worker: self.id,
            op,
            round,
            start_s,
            end_s,
        });
    }

    /// Merge the local buffer into the shared store (one lock) and stream
    /// the intervals to the attached telemetry sink. No-op when empty.
    pub fn flush(&self) {
        let drained: Vec<OpEvent> = std::mem::take(&mut *self.buf.borrow_mut());
        if drained.is_empty() {
            return;
        }
        let shared = &self.parent.inner;
        for e in &drained {
            shared.telemetry.emit(|| Event::OpSpan {
                worker: e.worker,
                op: e.op,
                round: e.round,
                start_s: e.start_s,
                end_s: e.end_s,
            });
        }
        shared
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(drained);
        shared.merges.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for WorkerProfile {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Summary statistics over a profile.
#[derive(Clone, Debug, Serialize)]
pub struct ProfileSummary {
    /// Total seconds per op kind, summed across workers.
    pub totals: Vec<(String, f64)>,
    /// Fraction of total worker-time spent blocked on pulls.
    pub pull_wait_fraction: f64,
}

/// Summarize a profile: per-op totals and the blocked fraction.
pub fn summarize(events: &[OpEvent]) -> ProfileSummary {
    use OpKind::*;
    let mut totals = vec![
        (Forward, 0.0f64),
        (Backward, 0.0),
        (Compress, 0.0),
        (LocalUpdate, 0.0),
        (PullWait, 0.0),
    ];
    for e in events {
        for t in totals.iter_mut() {
            if t.0 == e.op {
                t.1 += e.duration();
            }
        }
    }
    let all: f64 = totals.iter().map(|t| t.1).sum();
    let wait = totals.iter().find(|t| t.0 == PullWait).map_or(0.0, |t| t.1);
    ProfileSummary {
        totals: totals
            .into_iter()
            .map(|(k, v)| (k.name().to_string(), v))
            .collect(),
        pull_wait_fraction: if all > 0.0 { wait / all } else { 0.0 },
    }
}

/// Export events as Chrome `trace_event` JSON (one tid per worker).
pub fn to_chrome_json(events: &[OpEvent], process_name: &str) -> String {
    let mut out: Vec<serde_json::Value> = vec![serde_json::json!({
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": process_name}
    })];
    for e in events {
        out.push(serde_json::json!({
            "name": format!("{}#{}", e.op.name(), e.round),
            "cat": e.op.name(),
            "ph": "X",
            "ts": e.start_s * 1e6,
            "dur": e.duration() * 1e6,
            "pid": 0,
            "tid": e.worker as u32,
        }));
    }
    serde_json::to_string_pretty(&out).expect("serialize profile")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsgd_telemetry::MemorySink;

    #[test]
    fn records_and_sorts() {
        let p = Profiler::new();
        let w0 = p.worker(0);
        let w1 = p.worker(1);
        let s1 = w0.now();
        w0.record(OpKind::Forward, 0, s1);
        let s2 = w1.now();
        w1.record(OpKind::PullWait, 0, s2);
        w0.flush();
        w1.flush();
        let ev = p.take();
        assert_eq!(ev.len(), 2);
        assert!(ev[0].start_s <= ev[1].start_s);
        assert!(ev.iter().all(|e| e.duration() >= 0.0));
        // Drained.
        assert!(p.take().is_empty());
    }

    #[test]
    fn recording_takes_no_lock_until_flush() {
        // The contention contract: any number of recorded intervals cost
        // zero merges (no shared-lock traffic); each flush costs exactly
        // one.
        let p = Profiler::new();
        let w = p.worker(0);
        for round in 0..1000 {
            let t = w.now();
            w.record(OpKind::Forward, round, t);
        }
        assert_eq!(p.merge_count(), 0, "recording must not touch the lock");
        w.flush();
        assert_eq!(p.merge_count(), 1);
        assert_eq!(p.take().len(), 1000);
        // Empty flush (and the drop safety net) stays free.
        w.flush();
        drop(w);
        assert_eq!(p.merge_count(), 1);
    }

    #[test]
    fn drop_flushes_unmerged_events() {
        let p = Profiler::new();
        {
            let w = p.worker(3);
            let t = w.now();
            w.record(OpKind::Backward, 7, t);
        }
        let ev = p.take();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].worker, 3);
        assert_eq!(ev[0].round, 7);
    }

    #[test]
    fn flush_streams_op_spans_to_telemetry() {
        let mem = Arc::new(MemorySink::new());
        let p = Profiler::with_telemetry(Telemetry::new(mem.clone()));
        let w = p.worker(1);
        let t = w.now();
        w.record(OpKind::Compress, 4, t);
        assert!(mem.events().is_empty(), "spans stream at flush, not record");
        w.flush();
        let ev = mem.events();
        assert_eq!(ev.len(), 1);
        assert!(matches!(
            ev[0],
            Event::OpSpan {
                worker: 1,
                op: OpKind::Compress,
                round: 4,
                ..
            }
        ));
    }

    #[test]
    fn summary_fractions() {
        let events = vec![
            OpEvent {
                worker: 0,
                op: OpKind::Forward,
                round: 0,
                start_s: 0.0,
                end_s: 1.0,
            },
            OpEvent {
                worker: 0,
                op: OpKind::PullWait,
                round: 0,
                start_s: 1.0,
                end_s: 2.0,
            },
            OpEvent {
                worker: 1,
                op: OpKind::Backward,
                round: 0,
                start_s: 0.0,
                end_s: 2.0,
            },
        ];
        let s = summarize(&events);
        assert!((s.pull_wait_fraction - 0.25).abs() < 1e-9);
        let fwd = s.totals.iter().find(|t| t.0 == "FP").unwrap().1;
        assert_eq!(fwd, 1.0);
    }

    #[test]
    fn chrome_json_parses() {
        let events = vec![OpEvent {
            worker: 2,
            op: OpKind::Compress,
            round: 5,
            start_s: 0.5,
            end_s: 0.6,
        }];
        let json = to_chrome_json(&events, "test");
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 2);
    }
}
