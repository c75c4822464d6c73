//! The end-to-end run: telemetry and profiling off, the system driven
//! only through `Trainer::run_with`, metrics a user of it would see.
//!
//! One measurement is several complete training runs of the workload's
//! fixed epoch budget, all from the same seed, repeated until
//! `--seconds` are used up (the last run may end up to half its length
//! later). Fixed budgets keep the counts exact (bytes
//! per step, the loss curve) and give one `train_s` sample per run;
//! epoch times are pooled over the runs.

use crate::host;
use crate::stats::median;
use crate::workload::{Size, Workload, BATCH, WORKERS};
use cd_sgd::TrainingHistory;
use std::time::Instant;

/// Set-ups timed per measurement; `setup_s` is their median.
const SETUPS: usize = 9;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Operations attempted and failed: worker-steps and output checks.
#[derive(Default, Debug)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn steps(&mut self, attempted: u64, lost: u64) {
        self.attempted += attempted;
        self.failed += lost;
    }

    /// Count one output check; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// What one invocation measured.
pub struct Outcome {
    pub ops: Ops,
    pub metrics: Vec<Metric>,
}

/// One complete training run through `Trainer`.
pub struct TrainRun {
    /// Wall time of data synthesis, `Trainer::new` and `run_with`.
    pub wall_s: f64,
    /// Every epoch's time, warm-up included.
    pub epoch_s: Vec<f64>,
    pub losses: Vec<f32>,
    pub push_bytes: u64,
    pub pull_bytes: u64,
    pub key_sizes: Vec<usize>,
    /// The typed error of a run that stopped early.
    pub error: Option<String>,
}

impl TrainRun {
    /// Epoch times that are timing samples.
    pub fn timed_epochs(&self, size: Size) -> &[f64] {
        &self.epoch_s[size.warmup_epochs.min(self.epoch_s.len())..]
    }

    /// Σ epoch time, warm-up included, up to the first epoch whose mean
    /// train loss is at or below `target`.
    pub fn time_to_loss(&self, target: f32) -> Option<f64> {
        let hit = self.losses.iter().position(|&l| l <= target)?;
        Some(self.epoch_s[..=hit].iter().sum())
    }
}

pub fn train_once(w: &Workload, seed: u64, size: Size) -> TrainRun {
    let t0 = Instant::now();
    let trainer = w.trainer(seed, size);
    let result = trainer.try_run_with(|init, cfg| w.deploy(init, cfg).map(|d| d.backend));
    let wall_s = t0.elapsed().as_secs_f64();
    let (history, error): (TrainingHistory, _) = match result {
        Ok(h) => (h, None),
        Err(f) => (f.history, Some(f.error.to_string())),
    };
    let last = history.epochs.last();
    TrainRun {
        wall_s,
        epoch_s: history.epochs.iter().map(|e| e.epoch_time_s).collect(),
        losses: history.epochs.iter().map(|e| e.train_loss).collect(),
        push_bytes: last.map_or(0, |e| e.cumulative_push_bytes),
        pull_bytes: last.map_or(0, |e| e.cumulative_pull_bytes),
        key_sizes: history.final_weights.iter().map(Vec::len).collect(),
        error,
    }
}

/// The output checks every training run must pass, and its step count.
pub fn check_run(w: &Workload, size: Size, run: &TrainRun, ops: &mut Ops) {
    let steps = (size.epochs * size.steps_per_epoch * WORKERS) as u64;
    let done = (run.losses.len() * size.steps_per_epoch * WORKERS) as u64;
    ops.steps(steps, steps - done);
    ops.check(run.error.is_none(), || {
        format!(
            "{}: run aborted: {}",
            w.name,
            run.error.clone().unwrap_or_default()
        )
    });
    if run.error.is_some() {
        return;
    }
    let rounds = (size.epochs * size.steps_per_epoch) as u64;
    let books = w.books(&run.key_sizes, rounds);
    ops.check((run.push_bytes, run.pull_bytes) == books, || {
        format!(
            "{}: byte books: counted push {} pull {}, analytic {books:?}",
            w.name, run.push_bytes, run.pull_bytes
        )
    });
    ops.check(run.losses.iter().all(|l| l.is_finite()), || {
        format!("{}: a non-finite epoch loss in {:?}", w.name, run.losses)
    });
    // The smoke sizes train too little to converge.
    if !size.quick {
        ops.check(run.time_to_loss(w.loss_target).is_some(), || {
            format!(
                "{}: loss gate {} never reached: {:?}",
                w.name, w.loss_target, run.losses
            )
        });
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64, quick: bool) -> Outcome {
    let size = w.size(quick);
    let mut ops = Ops::default();
    let started = Instant::now();

    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 0..if quick { 1 } else { SETUPS } {
        let t = Instant::now();
        let rig = w.setup(seed, size);
        setup_s.push(t.elapsed().as_secs_f64());
        ops.check(rig.is_ok(), || format!("{}: set-up failed", w.name));
        if let Ok(rig) = rig {
            rig.shutdown();
        }
    }

    let mut runs: Vec<TrainRun> = Vec::new();
    let mut peak_rss_mib = 0.0;
    loop {
        let run = train_once(w, seed, size);
        check_run(w, size, &run, &mut ops);
        let wall = run.wall_s;
        if runs.is_empty() {
            // The peak of one training job. Later runs only add what the
            // allocator keeps per finished thread, which depends on how
            // many runs fit into the measurement.
            peak_rss_mib = host::peak_rss_mib();
        }
        runs.push(run);
        // Another run only if most of it falls inside the measurement.
        if quick || started.elapsed().as_secs_f64() + wall / 2.0 > seconds {
            break;
        }
    }
    let first = &runs[0];
    ops.check(runs.iter().all(|r| r.losses == first.losses), || {
        format!("{}: the same seed gave different loss curves", w.name)
    });

    let epochs: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.timed_epochs(size).iter().copied())
        .collect();
    let samples_per_epoch = (WORKERS * BATCH * size.steps_per_epoch) as f64;
    let worker_steps = (size.epochs * size.steps_per_epoch * WORKERS) as f64;
    let wire = (first.push_bytes + first.pull_bytes) as f64;
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    eprintln!(
        "{}: {} training runs of {} epochs, {} timed epochs, losses {:?}",
        w.name,
        runs.len(),
        size.epochs,
        epochs.len(),
        first.losses
    );
    eprintln!("epoch_s {epochs:?}\ntrain_s {walls:?}\nsetup_s {setup_s:?}");
    let metric = |name, unit, value| Metric { name, unit, value };
    Outcome {
        ops,
        metrics: vec![
            metric("setup_s", "s", median(&setup_s)),
            metric("samples_per_s", "1/s", samples_per_epoch / median(&epochs)),
            metric("train_s", "s", median(&walls)),
            metric(
                "wire_mib_per_step",
                "MiB",
                wire / worker_steps / (1 << 20) as f64,
            ),
            metric("peak_rss_mib", "MiB", peak_rss_mib),
        ],
    }
}
