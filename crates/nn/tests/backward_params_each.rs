//! `Sequential::backward_params_each` is `backward_params` with a
//! witness: every key is handed over exactly once, when its top-level
//! layer's backward has filled it and before any layer below has run,
//! and the gradients it leaves are bit-for-bit those of
//! `backward_params` + `export_grads` — the worker loop streams each
//! key to its strategy from this walk, so a key handed over early would
//! push a stale gradient.

use cdsgd_nn::{models, Dense, Flatten, Layer, Mode, Param, Relu, Sequential, SoftmaxCrossEntropy};
use cdsgd_tensor::{SmallRng64, Tensor};
use std::sync::{Arc, Mutex};

fn bits(g: &[f32]) -> Vec<u32> {
    g.iter().map(|v| v.to_bits()).collect()
}

fn benchmark_mlp(rng: &mut SmallRng64) -> Sequential {
    Sequential::new()
        .push(Flatten::new())
        .push(Dense::new(784, 1024, rng))
        .push(Relu::new())
        .push(Dense::new(1024, 1024, rng))
        .push(Relu::new())
        .push(Dense::new(1024, 10, rng))
}

/// Two steps on two identically-seeded replicas. At every hand-off the
/// key's gradient must already be this step's final bits (on step 2 a
/// key handed over before its layer ran would still hold step 1's), the
/// keys must arrive as contiguous ascending blocks from the top of the
/// key space down to 0, and the walk must leave what the reference does.
fn assert_streams_final_grads(build: &dyn Fn(&mut SmallRng64) -> Sequential, x_shape: &[usize]) {
    let mut reference = build(&mut SmallRng64::new(7));
    let mut streamed = build(&mut SmallRng64::new(7));
    let num_keys = reference.param_sizes().len();
    let mut rng = SmallRng64::new(8);
    let labels: Vec<usize> = (0..x_shape[0]).map(|i| i % 10).collect();
    for step in 0..2 {
        let x = Tensor::randn(x_shape, 1.0, &mut rng);
        let logits = reference.forward(&x, Mode::Train);
        let (_, dlogits) = SoftmaxCrossEntropy.loss_and_grad(&logits, &labels);
        reference.backward_params(&dlogits);
        let want = reference.export_grads();
        assert!(want.iter().any(|g| g.iter().any(|&v| v != 0.0)));

        let logits = streamed.forward(&x, Mode::Train);
        let (_, dlogits) = SoftmaxCrossEntropy.loss_and_grad(&logits, &labels);
        let mut order = Vec::new();
        streamed.backward_params_each(&dlogits, |key, p: &mut Param| {
            assert_eq!(
                bits(p.grad.data()),
                bits(&want[key]),
                "step {step}: key {key} handed over before its gradient was final"
            );
            order.push(key);
        });

        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..num_keys).collect::<Vec<_>>(), "every key once");
        // Layers last first, keys ascending within a layer: each
        // ascending run ends where the run before it began.
        let mut top = num_keys;
        for run in order.chunk_by(|a, b| a + 1 == *b) {
            assert_eq!(run.last().unwrap() + 1, top, "step {step}: order {order:?}");
            top = run[0];
        }
        assert_eq!(top, 0);
        let got = streamed.export_grads();
        for key in 0..num_keys {
            assert_eq!(bits(&got[key]), bits(&want[key]), "step {step} key {key}");
        }
    }
}

#[test]
fn benchmark_mlp_streams_final_grads() {
    assert_streams_final_grads(&benchmark_mlp, &[16, 1, 28, 28]);
}

#[test]
fn resnet8_streams_final_grads() {
    assert_streams_final_grads(&|rng| models::resnet_cifar(8, 1, 10, rng), &[4, 3, 32, 32]);
}

#[derive(Debug, PartialEq)]
enum Seen {
    /// Top-level layer `i` ran its full backward.
    Backward(usize),
    /// Top-level layer `i` was asked for its parameter gradients only.
    ParamsOnly(usize),
    /// Key `k` was handed over.
    Key(usize),
}

/// A layer that logs when its backward runs.
struct Logged {
    inner: Box<dyn Layer>,
    index: usize,
    log: Arc<Mutex<Vec<Seen>>>,
}

impl Layer for Logged {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.inner.forward(x, mode)
    }
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.log.lock().unwrap().push(Seen::Backward(self.index));
        self.inner.backward(dy)
    }
    fn backward_params(&mut self, dy: &Tensor) {
        self.log.lock().unwrap().push(Seen::ParamsOnly(self.index));
        self.inner.backward_params(dy)
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[test]
fn keys_arrive_between_their_layer_and_the_one_below() {
    // Sequence, not time: each layer's keys sit in the log right after
    // that layer's backward and before the next layer down runs; the
    // first parameterized layer skips its input gradient and the
    // parameter-free prefix before it is never entered.
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut rng = SmallRng64::new(3);
    let mut index = 0;
    let mut logged = |m: Sequential, inner: Box<dyn Layer>| {
        index += 1;
        m.push(Logged {
            inner,
            index: index - 1,
            log: Arc::clone(&log),
        })
    };
    let mut m = Sequential::new();
    m = logged(m, Box::new(Flatten::new()));
    m = logged(m, Box::new(Relu::new()));
    m = logged(m, Box::new(Dense::new(12, 8, &mut rng)));
    m = logged(m, Box::new(Relu::new()));
    m = logged(m, Box::new(Dense::new(8, 5, &mut rng)));
    m = logged(m, Box::new(Relu::new()));
    m = logged(m, Box::new(Dense::new(5, 3, &mut rng)));

    let x = Tensor::randn(&[4, 3, 2, 2], 1.0, &mut rng);
    let y = m.forward(&x, Mode::Train);
    m.backward_params_each(&y, |key, _| log.lock().unwrap().push(Seen::Key(key)));
    use Seen::*;
    assert_eq!(
        *log.lock().unwrap(),
        [
            Backward(6),
            Key(4),
            Key(5),
            Backward(5),
            Backward(4),
            Key(2),
            Key(3),
            Backward(3),
            ParamsOnly(2),
            Key(0),
            Key(1),
        ]
    );
}

#[test]
fn a_model_without_parameters_hands_over_nothing() {
    let mut m = Sequential::new().push(Flatten::new()).push(Relu::new());
    let y = m.forward(&Tensor::ones(&[2, 3, 1, 1]), Mode::Train);
    m.backward_params_each(&y, |key, _| panic!("key {key} of a parameter-free model"));
}
