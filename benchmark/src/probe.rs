//! Isolated probes: one layer's public call timed on its own, at the
//! workload's sizes, so a per-layer number exists that no other layer's
//! time can leak into. A probe runs only on workloads that exercise its
//! layer; elsewhere the metric reads 0, which says "bypassed".

use crate::stats::median;
use crate::workload::{Backend, Workload, WORKERS};
use cdsgd_compress::{decompress_add, BufferPool, Compressed, GradientCompressor};
use cdsgd_net::{
    decode_collective, decode_msg, encode_collective_into, loopback_pair, wire, NetConfig,
    NetError, TcpAcceptor, TcpTransport, Transport, COLLECTIVE_SCATTER,
};
use cdsgd_nn::{Conv2d, Layer, Mode};
use cdsgd_ps::{chunk_range, ParamClient, ServerOptKind};
use cdsgd_tensor::{SmallRng64, Tensor};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long one probe may sample. `--quick` takes a single sample.
#[derive(Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub quick: bool,
}

impl Budget {
    /// Median seconds per call of `f`, sampled until the budget is used
    /// (at least 3 calls, at most 10 000).
    fn time(&self, mut f: impl FnMut()) -> f64 {
        let mut samples = Vec::new();
        let started = Instant::now();
        loop {
            let t = Instant::now();
            f();
            samples.push(t.elapsed().as_secs_f64());
            let enough = samples.len() >= 3 && started.elapsed().as_secs_f64() >= self.seconds;
            if self.quick || enough || samples.len() >= 10_000 {
                return median(&samples);
            }
        }
    }
}

/// `[16,1024]×[1024,1024]` matmul — the MLP's middle layer at batch 16.
pub fn gemm_gflops(b: Budget) -> f64 {
    let mut rng = SmallRng64::new(1);
    let a = Tensor::randn(&[16, 1024], 1.0, &mut rng);
    let w = Tensor::randn(&[1024, 1024], 1.0, &mut rng);
    let s = b.time(|| {
        black_box(black_box(&a).matmul(black_box(&w)));
    });
    2.0 * 16.0 * 1024.0 * 1024.0 / s / 1e9
}

/// Conv forward at ResNet-8's widest stage: 32→32 channels, 3×3, on
/// `[16,32,8,8]`.
pub fn conv_gflops(b: Budget) -> f64 {
    let mut rng = SmallRng64::new(2);
    let mut conv = Conv2d::new(32, 32, 3, 1, 1, &mut rng);
    let x = Tensor::randn(&[16, 32, 8, 8], 1.0, &mut rng);
    let s = b.time(|| {
        black_box(conv.forward(black_box(&x), Mode::Train));
    });
    2.0 * 16.0 * 32.0 * 64.0 * 32.0 * 9.0 / s / 1e9
}

/// Gradient-shaped inputs: one vector per key, small normal values so
/// the 2-bit threshold fires on some and not all.
pub fn fake_grads(key_sizes: &[usize]) -> Vec<Vec<f32>> {
    let mut rng = SmallRng64::new(3);
    key_sizes
        .iter()
        .map(|&n| (0..n).map(|_| 0.02 * rng.gauss()).collect())
        .collect()
}

/// One worker-step's payloads as the workload pushes them: 2-bit where
/// it has a codec, raw otherwise.
pub fn payloads(w: &Workload, grads: &[Vec<f32>]) -> Vec<Compressed> {
    let pool = BufferPool::new();
    match w.codec() {
        Some(mut codec) => grads
            .iter()
            .enumerate()
            .map(|(k, g)| codec.compress_into(k, g, &pool))
            .collect(),
        None => grads.iter().map(|g| Compressed::Raw(g.clone())).collect(),
    }
}

/// `decompress_add` of one worker-step's payloads — the server's side
/// of a compressed push — ms.
pub fn dequant_add_ms(payloads: &[Compressed], b: Budget) -> f64 {
    let mut acc: Vec<Vec<f32>> = payloads.iter().map(|p| vec![0.0; p.len()]).collect();
    1e3 * b.time(|| {
        for (p, a) in payloads.iter().zip(&mut acc) {
            decompress_add(black_box(p), a);
        }
    })
}

/// Raw bytes over wire bytes of one worker-step's pushes.
pub fn compress_ratio(payloads: &[Compressed]) -> f64 {
    let raw: usize = payloads.iter().map(|p| 4 * p.len()).sum();
    let wire: usize = payloads.iter().map(Compressed::wire_bytes).sum();
    raw as f64 / wire as f64
}

/// `(encode_ms, decode_ms)` of the frames one worker-step puts on the
/// wire: PS push + pull-reply frames, or the ring's chunk frames.
pub fn codec_ms(
    w: &Workload,
    payloads: &[Compressed],
    grads: &[Vec<f32>],
    b: Budget,
) -> (f64, f64) {
    let ring = w.backend == Backend::RingTcp;
    // Per key: the ring's scatter and gather each send every chunk but
    // one; a PS worker sends a push and receives a pull reply.
    let per_key = if ring { 2 * (WORKERS - 1) } else { 2 };
    let mut frames = vec![Vec::new(); grads.len() * per_key];
    let enc = b.time(|| {
        let mut out = frames.iter_mut();
        let mut next = || out.next().expect("one buffer per frame");
        for (k, g) in grads.iter().enumerate() {
            if ring {
                for idx in 0..per_key {
                    let chunk = &g[chunk_range(g.len(), WORKERS, idx % WORKERS)];
                    let buf = next();
                    buf.clear();
                    encode_collective_into(COLLECTIVE_SCATTER, idx as u32, chunk, buf);
                }
            } else {
                wire::encode_push_into(0, k as u32, black_box(&payloads[k]), next());
                wire::encode_pull_reply_into(k as u32, 1, black_box(g), next());
            }
        }
    });
    let mut scratch: Vec<f32> = Vec::new();
    let dec = b.time(|| {
        for f in &frames {
            if ring {
                let frame = decode_collective(black_box(f)).expect("own frame decodes");
                scratch.clear();
                frame
                    .read_f32_append(&mut scratch)
                    .expect("own chunk decodes");
            } else {
                black_box(decode_msg(black_box(f)).expect("own frame decodes"));
            }
        }
    });
    (1e3 * enc, 1e3 * dec)
}

/// `(MiB/s of a frame of `big` bytes, round trip of a 16-byte frame in
/// µs)` between two benchmark threads over a connected transport pair.
fn link_speed(
    mut near: Box<dyn Transport>,
    mut far: Box<dyn Transport>,
    big: usize,
    b: Budget,
) -> Result<(f64, f64), NetError> {
    std::thread::scope(|scope| {
        // The far side acknowledges every frame with 16 bytes until the
        // near side closes.
        let echo = scope.spawn(move || {
            let mut buf = Vec::new();
            let ack = [0u8; 16];
            while far.recv_frame(&mut buf).is_ok() {
                if far.send_frame(&ack).is_err() {
                    break;
                }
            }
        });
        let mut buf = Vec::new();
        let mut exchange = |body: &[u8]| -> Result<(), NetError> {
            near.send_frame(body)?;
            near.recv_frame(&mut buf)
        };
        let body = vec![7u8; big];
        let small = [1u8; 16];
        let mut failed = None;
        let mut run = |body: &[u8]| {
            b.time(|| {
                if let Err(e) = exchange(body) {
                    failed.get_or_insert(e);
                }
            })
        };
        let big_s = run(&body);
        let small_s = run(&small);
        drop(near);
        echo.join().expect("echo thread");
        match failed {
            Some(e) => Err(e),
            None => Ok((big as f64 / (1 << 20) as f64 / big_s, small_s * 1e6)),
        }
    })
}

/// Localhost TCP: `(MiB/s, small round trip µs)`.
pub fn tcp_speed(big: usize, b: Budget) -> Result<(f64, f64), NetError> {
    let cfg = NetConfig::default();
    let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", cfg.clone())?;
    let near = TcpTransport::connect(addr.to_string(), &cfg)?;
    let far = acceptor.accept(Duration::from_secs(5))?;
    link_speed(Box::new(near), Box::new(far), big, b)
}

/// The in-memory loopback transport, same exchange: what the frame path
/// costs without sockets.
pub fn loopback_mib_per_s(big: usize, b: Budget) -> Result<f64, NetError> {
    let (near, far) = loopback_pair();
    link_speed(Box::new(near), Box::new(far), big, b).map(|(mib, _)| mib)
}

/// Push + pull of a 1-float key by one worker on the workload's
/// deployment, µs: the latency floor under every synchronous round.
pub fn roundtrip_small_us(w: &Workload, b: Budget) -> Result<f64, NetError> {
    let backend = w.deploy(vec![vec![0.0]], w.server_config(1))?.backend;
    let client = backend.client()?;
    let mut version = 0;
    let mut failed = None;
    let s = b.time(|| {
        version += 1;
        let r = client
            .push(0, 0, Compressed::Raw(vec![1.0]))
            .and_then(|()| client.pull(0, version));
        if let Err(e) = r {
            failed.get_or_insert(e);
        }
    });
    drop(client);
    backend.shutdown();
    failed.map_or(Ok(s * 1e6), Err)
}

/// One synchronous round of all workers pushing `payloads` and pulling
/// the whole model back, with no computation between, ms: the paper's
/// φ with raw payloads, ψ with 2-bit ones.
pub fn roundtrip_model_ms(
    w: &Workload,
    payloads: &[Compressed],
    b: Budget,
) -> Result<f64, NetError> {
    let init: Vec<Vec<f32>> = payloads.iter().map(|p| vec![0.0; p.len()]).collect();
    let backend = w.deploy(init, w.server_config(WORKERS))?.backend;
    let clients: Vec<Box<dyn ParamClient>> = (0..WORKERS)
        .map(|_| backend.client())
        .collect::<Result<_, _>>()?;
    // Every worker runs the same number of rounds, fixed up front: a
    // synchronous server stalls if one stops early.
    let rounds = if b.quick {
        1
    } else {
        let one = one_round(&clients, payloads, 0)?;
        ((b.seconds / one.max(1e-4)) as u64).clamp(2, 200)
    };
    let first = u64::from(!b.quick);
    let gate = Barrier::new(WORKERS);
    let times: Vec<Result<Vec<f64>, NetError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(id, client)| {
                let gate = &gate;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for r in first..first + rounds {
                        gate.wait();
                        let t = Instant::now();
                        push_pull(client.as_ref(), id, payloads, r)?;
                        out.push(t.elapsed().as_secs_f64());
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe worker"))
            .collect()
    });
    drop(clients);
    backend.shutdown();
    let mut all = Vec::new();
    for t in times {
        all.extend(t?);
    }
    Ok(1e3 * median(&all))
}

fn push_pull(
    client: &dyn ParamClient,
    id: usize,
    payloads: &[Compressed],
    round: u64,
) -> Result<(), NetError> {
    for (k, p) in payloads.iter().enumerate() {
        client.push(id, k, p.clone())?;
    }
    client.pull_all(payloads.len(), round + 1).map(drop)
}

/// Round 0 on every worker at once, timed: sizes the measured rounds.
fn one_round(
    clients: &[Box<dyn ParamClient>],
    payloads: &[Compressed],
    round: u64,
) -> Result<f64, NetError> {
    let t = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(id, c)| scope.spawn(move || push_pull(c.as_ref(), id, payloads, round)))
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("probe worker"))
    })?;
    Ok(t.elapsed().as_secs_f64())
}

/// The server's update rule over every key of one aggregated round, ms.
pub fn apply_ms(w: &Workload, grads: &[Vec<f32>], b: Budget) -> f64 {
    let mut opts: Vec<_> = grads
        .iter()
        .map(|_| ServerOptKind::PlainSgd.build())
        .collect();
    let weights: Vec<Vec<f32>> = grads.iter().map(|g| vec![0.5; g.len()]).collect();
    1e3 * b.time(|| {
        for ((opt, old), g) in opts.iter_mut().zip(&weights).zip(grads) {
            black_box(opt.apply(black_box(old), black_box(g), w.lr / WORKERS as f32));
        }
    })
}
