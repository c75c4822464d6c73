//! QSGD (Alistarh et al. 2017): stochastic uniform quantization against
//! the gradient's L2 norm.

use crate::compressed::Compressed;
use crate::pool::BufferPool;
use crate::GradientCompressor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// QSGD quantizer with `levels` uniform quantization levels.
///
/// Element `g_i` encodes to an integer level `l_i` with
/// `|g_i|/‖g‖₂ ∈ [l/L, (l+1)/L)` rounded stochastically so that
/// `E[decode] = g`. Codes are signed bytes (`levels ≤ 127`).
#[derive(Debug, Clone)]
pub struct QsgdQuantizer {
    levels: u8,
    rng: StdRng,
}

impl QsgdQuantizer {
    /// New quantizer. `levels` is QSGD's `s` parameter (e.g. 4 for
    /// "2-bit-class" fidelity, 128 would be 8-bit-class).
    ///
    /// # Panics
    /// Panics if `levels == 0`.
    pub fn new(levels: u8, seed: u64) -> Self {
        assert!(levels > 0, "need at least one quantization level");
        Self {
            levels,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The number of levels `s`.
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Quantize `grad` into `codes` (cleared and refilled); returns the
    /// L2 norm.
    fn encode_codes(&mut self, grad: &[f32], codes: &mut Vec<i8>) -> f32 {
        let norm = grad.iter().map(|x| x * x).sum::<f32>().sqrt();
        let l = self.levels as f32;
        codes.clear();
        codes.resize(grad.len(), 0);
        if norm > 0.0 {
            for (c, &g) in codes.iter_mut().zip(grad) {
                let u = g.abs() / norm * l; // in [0, L]
                let lo = u.floor();
                let p = u - lo;
                let level = lo + if self.rng.gen::<f32>() < p { 1.0 } else { 0.0 };
                let signed = if g >= 0.0 { level } else { -level };
                *c = signed.clamp(-127.0, 127.0) as i8;
            }
        }
        norm
    }
}

impl GradientCompressor for QsgdQuantizer {
    fn compress_into(&mut self, _key: usize, grad: &[f32], pool: &BufferPool) -> Compressed {
        let mut codes = pool.take_i8();
        let norm = self.encode_codes(grad, &mut codes);
        Compressed::Qsgd {
            norm,
            levels: self.levels,
            codes,
            len: grad.len(),
        }
    }

    fn name(&self) -> &'static str {
        "qsgd"
    }

    fn wire_bytes(&self, n: usize) -> usize {
        let bits = (2 * self.levels as usize + 1)
            .next_power_of_two()
            .trailing_zeros() as usize;
        4 + 4 + 1 + (n * bits).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::decompress;

    fn decode(c: &Compressed) -> Vec<f32> {
        let mut out = vec![0.0; c.len()];
        decompress(c, &mut out);
        out
    }

    #[test]
    fn levels_bound_the_codes() {
        let mut q = QsgdQuantizer::new(4, 1);
        let grad = vec![1.0, -1.0, 0.5, 0.0];
        if let Compressed::Qsgd { codes, .. } = q.compress(0, &grad) {
            assert!(codes.iter().all(|&c| c.unsigned_abs() <= 4));
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn unbiased_in_expectation() {
        let mut q = QsgdQuantizer::new(4, 2);
        let grad = vec![0.6f32, -0.3, 0.1];
        let trials = 20_000;
        let mut mean = [0.0f64; 3];
        for _ in 0..trials {
            for (m, v) in mean.iter_mut().zip(decode(&q.compress(0, &grad))) {
                *m += v as f64;
            }
        }
        for (m, &g) in mean.iter_mut().zip(&grad) {
            *m /= trials as f64;
            assert!((*m - g as f64).abs() < 0.02, "E[q]={m} vs g={g}");
        }
    }

    #[test]
    fn zero_gradient_encodes_to_zero() {
        let mut q = QsgdQuantizer::new(8, 3);
        assert_eq!(decode(&q.compress(0, &[0.0; 5])), vec![0.0; 5]);
    }

    #[test]
    fn wire_bytes_shrink_with_fewer_levels() {
        let q4 = QsgdQuantizer::new(4, 0); // 9 symbols -> 4 bits
        let q64 = QsgdQuantizer::new(64, 0); // 129 symbols -> 8 bits
        assert!(q4.wire_bytes(1024) < q64.wire_bytes(1024));
        assert_eq!(q4.wire_bytes(1024), 8 + 1 + 512);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_levels_rejected() {
        QsgdQuantizer::new(0, 0);
    }
}
