//! What the telemetry layer costs on the training hot path.
//!
//! Four variants of the same CD-SGD epoch: telemetry *disabled* (one
//! `Option` test per site — no event built, no clock read), a
//! `NullSink` (every op span timed and every event constructed, then
//! dropped), a `MemorySink` (each cloned into a locked `Vec`) and a
//! `JsonlSink` (each serialized to disk). The first three should be
//! indistinguishable at epoch granularity — emitting each span where
//! it is timed costs a traced run nothing measurable; the JSONL variant
//! pays for serialization and buffered I/O. A second group measures the
//! bare emit call.

use std::sync::Arc;

use cd_sgd::{Algorithm, Event, JsonlSink, MemorySink, NullSink, Telemetry, TrainConfig, Trainer};
use cdsgd_data::toy;
use cdsgd_nn::models;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// A named way to build the run's telemetry handle.
type Variant<'a> = (&'a str, Box<dyn Fn() -> Telemetry>);

fn bench_epoch(c: &mut Criterion) {
    let mut g = c.benchmark_group("epoch_2workers_telemetry");
    g.sample_size(10);
    let data = toy::gaussian_blobs(640, 16, 4, 0.5, 3);
    let jsonl_path =
        std::env::temp_dir().join(format!("cdsgd_{}_bench_trace.jsonl", std::process::id()));

    let variants: Vec<Variant> = vec![
        ("disabled", Box::new(Telemetry::disabled)),
        ("null_sink", Box::new(|| Telemetry::new(Arc::new(NullSink)))),
        (
            "memory_sink",
            Box::new(|| Telemetry::new(Arc::new(MemorySink::new()))),
        ),
        ("jsonl_sink", {
            let path = jsonl_path.clone();
            Box::new(move || {
                Telemetry::new(Arc::new(JsonlSink::create(&path).expect("create trace")))
            })
        }),
    ];
    for (name, make) in &variants {
        g.bench_function(*name, |b| {
            b.iter(|| {
                let cfg = TrainConfig::new(Algorithm::cd_sgd(0.05, 0.1, 5, 0), 2)
                    .with_lr(0.1)
                    .with_batch_size(32)
                    .with_epochs(1)
                    .with_seed(9)
                    .with_telemetry(make());
                Trainer::new(
                    cfg,
                    |rng| models::mlp(&[16, 64, 4], rng),
                    data.clone(),
                    None,
                )
                .run()
            });
        });
    }
    g.finish();
    std::fs::remove_file(&jsonl_path).ok();
}

fn bench_emit(c: &mut Criterion) {
    let mut g = c.benchmark_group("emit_one_event");
    let disabled = Telemetry::disabled();
    let null = Telemetry::new(Arc::new(NullSink));
    g.bench_function("disabled", |b| {
        b.iter(|| {
            disabled.emit(|| Event::Push {
                bytes: black_box(81),
            })
        })
    });
    g.bench_function("null_sink", |b| {
        b.iter(|| {
            null.emit(|| Event::Push {
                bytes: black_box(81),
            })
        })
    });
    g.finish();
}

criterion_group!(benches, bench_epoch, bench_emit);
criterion_main!(benches);
