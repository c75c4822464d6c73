//! Fig. 5 (real execution) — the paper's profiler observation reproduced
//! on the *actual* threaded implementation, not the timing simulator:
//! BIT-SGD workers block on the pull every iteration, while CD-SGD
//! workers' pull-wait collapses to ~zero because the deferred pull is
//! already satisfied when requested.
//!
//! Prints per-op wall-clock totals, the blocked fraction and, per
//! worker, how much of its quantize + push time ran inside BP (each key
//! leaves the moment its layer's gradient exists), and writes Chrome
//! traces of the real worker timelines.
//!
//! An emulated shared network (default 5 MiB/s, `--mibps`) puts the run
//! in the paper's communication-visible regime; without it the in-process
//! server is effectively infinitely fast and both algorithms block ~0%.
//!
//! Usage: `cargo run --release -p cdsgd-bench --bin fig5_real
//!         [--epochs 2] [--samples 1200] [--mibps 5]`

use std::sync::Arc;

use cd_sgd::telemetry::{op_spans, summarize, to_chrome_json, Op};
use cd_sgd::{Algorithm, Event, MemorySink, Telemetry, TrainConfig, Trainer};
use cdsgd_bench::arg_usize;
use cdsgd_data::synth;
use cdsgd_nn::models;
use std::collections::BTreeMap;

/// Per worker lane: the share of its `Compress` + `Push` time that lies
/// inside the BP window of the same round — from the start of the
/// round's first per-layer `Backward` span to the end of its last.
fn share_inside_bp(events: &[Event], workers: usize) -> Vec<f64> {
    let mut window = BTreeMap::<(usize, u64), (f64, f64)>::new();
    for (lane, op, round, start_s, end_s) in op_spans(events) {
        if op == Op::Backward {
            let w = window.entry((lane, round)).or_insert((start_s, end_s));
            *w = (w.0.min(start_s), w.1.max(end_s));
        }
    }
    let mut inside = vec![0.0f64; workers];
    let mut total = vec![0.0f64; workers];
    for (lane, op, round, start_s, end_s) in op_spans(events) {
        if lane < workers && matches!(op, Op::Compress | Op::Push) {
            total[lane] += end_s - start_s;
            if let Some(&(bp_start, bp_end)) = window.get(&(lane, round)) {
                inside[lane] += (end_s.min(bp_end) - start_s.max(bp_start)).max(0.0);
            }
        }
    }
    (inside.iter().zip(&total))
        .map(|(i, t)| if *t > 0.0 { i / t } else { 0.0 })
        .collect()
}

fn main() {
    let epochs = arg_usize("epochs", 2);
    let samples = arg_usize("samples", 1_200);
    let mibps = arg_usize("mibps", 5);
    let workers = 2usize;
    let data = synth::cifar_like(samples, 3);
    let (train, _) = data.split(1.0);
    // Short warm-up so the profiled window is dominated by the formal
    // (overlapping) phase.
    let warmup = 5usize;

    println!(
        "== Fig. 5 (real execution): ResNet-20-lite, {workers} workers, per-op wall-clock ==\n"
    );
    for algo in [
        Algorithm::BitSgd { threshold: 0.5 },
        Algorithm::cd_sgd(0.05, 0.5, 4, warmup),
    ] {
        let name = algo.name();
        let mem = Arc::new(MemorySink::new());
        let cfg = TrainConfig::new(algo, workers)
            .with_lr(0.4)
            .with_batch_size(32)
            .with_epochs(epochs)
            .with_seed(3)
            .with_telemetry(Telemetry::new(mem.clone()))
            .with_emulated_network(mibps as f64 * 1024.0 * 1024.0);
        Trainer::new(
            cfg,
            |rng| models::resnet_cifar(8, 1, 10, rng),
            train.clone(),
            None,
        )
        .run();
        let events = mem.take();
        let summary = summarize(&events);
        println!("-- {name} --");
        for (op, total) in &summary.totals {
            println!("  {op:<14} {total:>9.3} s");
        }
        println!(
            "  blocked on pulls: {:.1}% of worker time",
            summary.pull_wait_fraction * 100.0
        );
        for (w, share) in share_inside_bp(&events, workers).iter().enumerate() {
            println!(
                "  worker {w}: {:.1}% of quant + push time inside its BP window",
                share * 100.0
            );
        }
        let path = format!(
            "fig5_real_{}.trace.json",
            name.to_lowercase().replace(['(', ')', '='], "_")
        );
        std::fs::write(&path, to_chrome_json(&events, &name)).expect("write trace");
        println!("  chrome trace: {path}\n");
    }
    println!("expected shape (paper Fig. 5): BIT-SGD's blocked fraction is substantial;");
    println!("CD-SGD's is near zero — the next FP never waits for the current communication.");
}
