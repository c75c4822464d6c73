//! Tour of the gradient-compression codecs: wire sizes, error-feedback
//! mass conservation, and what each codec does to a real gradient.
//!
//! Run with: `cargo run --release --example compression_codecs`

use cdsgd_compress::{
    decompress, GradientCompressor, NoCompression, OneBitQuantizer, QsgdQuantizer, TopKSparsifier,
    TwoBitQuantizer,
};
use cdsgd_tensor::{SmallRng64, Tensor};

fn main() {
    let n = 1_000_000usize;
    let mut rng = SmallRng64::new(1);
    let grad = Tensor::randn(&[n], 0.3, &mut rng);

    println!(
        "compressing a {n}-element gradient (raw = {} KiB):\n",
        4 * n / 1024
    );
    println!(
        "{:<10} {:>12} {:>10} {:>16} {:>16}",
        "codec", "wire_KiB", "ratio", "decoded_l2_err", "mass_in_residual"
    );

    let mut codecs: Vec<Box<dyn GradientCompressor>> = vec![
        Box::new(NoCompression),
        Box::new(TwoBitQuantizer::new(0.5)),
        Box::new(OneBitQuantizer::new()),
        Box::new(QsgdQuantizer::new(4, 7)),
        Box::new(TopKSparsifier::new(0.01)),
    ];
    for codec in codecs.iter_mut() {
        let payload = codec.compress(0, grad.data());
        let mut decoded = vec![0.0f32; n];
        decompress(&payload, &mut decoded);
        let err: f32 = grad
            .data()
            .iter()
            .zip(&decoded)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        let residual_mass: f32 = grad.data().iter().sum::<f32>() - decoded.iter().sum::<f32>();
        println!(
            "{:<10} {:>12} {:>10.4} {:>16.2} {:>16.4}",
            codec.name(),
            payload.wire_bytes() / 1024,
            codec.compression_ratio(n),
            err,
            residual_mass,
        );
    }

    println!("\nerror feedback in action (2-bit, threshold 0.5, one slot):");
    let mut q = TwoBitQuantizer::new(0.5);
    let mut transmitted = 0.0f32;
    for step in 0..6 {
        let g = [0.2f32];
        let payload = q.compress(0, &g);
        let mut d = [0.0f32];
        decompress(&payload, &mut d);
        transmitted += d[0];
        println!(
            "  step {step}: grad 0.20 -> sent {:+.2}, residual {:+.2}, total sent {:+.2}",
            d[0],
            q.residuals().get(0).unwrap()[0],
            transmitted
        );
    }
    println!("  (nothing is lost — sub-threshold gradients accumulate until they fire)");
}
