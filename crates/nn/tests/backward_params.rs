//! `Layer::backward_params` is `backward` minus the input gradient: on
//! the models the trainer runs it on, every `Param::grad` must come out
//! with exactly the bits the full `backward` leaves — the worker loop
//! calls the former, the benchmark's traced loop and every pinned weight
//! hash were captured with the latter.

use cdsgd_nn::{models, Dense, Flatten, Layer, Mode, Relu, Sequential, SoftmaxCrossEntropy};
use cdsgd_tensor::{SmallRng64, Tensor};

fn grad_bits(model: &mut Sequential) -> Vec<Vec<u32>> {
    model
        .export_grads()
        .iter()
        .map(|g| g.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// One training step's FP/BP on two identically-seeded replicas, one per
/// backward flavour, after a first step through the *other* flavour so a
/// stale cache or gradient left behind by either would show.
fn assert_same_param_grads(build: &dyn Fn(&mut SmallRng64) -> Sequential, x_shape: &[usize]) {
    let mut full = build(&mut SmallRng64::new(7));
    let mut params_only = build(&mut SmallRng64::new(7));
    let mut rng = SmallRng64::new(8);
    let labels: Vec<usize> = (0..x_shape[0]).map(|i| i % 10).collect();
    for step in 0..2 {
        let x = Tensor::randn(x_shape, 1.0, &mut rng);
        let mut grads = Vec::new();
        for (model, skip_dx) in [(&mut full, step == 1), (&mut params_only, step == 0)] {
            let logits = model.forward(&x, Mode::Train);
            let (_, dlogits) = SoftmaxCrossEntropy.loss_and_grad(&logits, &labels);
            if skip_dx {
                model.backward_params(&dlogits);
            } else {
                let dx = model.backward(&dlogits);
                assert_eq!(dx.shape(), x_shape);
            }
            grads.push(grad_bits(model));
        }
        assert!(grads[0].iter().any(|g| g.iter().any(|&b| b << 1 != 0)));
        assert_eq!(grads[0], grads[1], "step {step}");
    }
}

#[test]
fn benchmark_mlp_with_a_parameter_free_prefix() {
    assert_same_param_grads(
        &|rng| {
            Sequential::new()
                .push(Flatten::new())
                .push(Dense::new(784, 1024, rng))
                .push(Relu::new())
                .push(Dense::new(1024, 1024, rng))
                .push(Relu::new())
                .push(Dense::new(1024, 10, rng))
        },
        &[16, 1, 28, 28],
    );
}

#[test]
fn resnet8() {
    assert_same_param_grads(&|rng| models::resnet_cifar(8, 1, 10, rng), &[4, 3, 32, 32]);
}

#[test]
fn inception() {
    assert_same_param_grads(&|rng| models::inception_cifar(4, 10, rng), &[4, 3, 32, 32]);
}

#[test]
fn a_model_without_parameters_is_a_no_op() {
    let mut m = Sequential::new().push(Flatten::new()).push(Relu::new());
    let y = m.forward(&Tensor::ones(&[2, 3, 1, 1]), Mode::Train);
    m.backward_params(&y);
    assert_eq!(m.num_params(), 0);
}
