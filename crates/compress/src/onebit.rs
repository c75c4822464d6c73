//! 1-bit sign quantization with error feedback (Seide et al. 2014 /
//! signSGD with EF) — the most aggressive quantization baseline the paper
//! cites (§1, [26]).

use crate::compressed::Compressed;
use crate::packing::pack_1bit_into;
use crate::pool::BufferPool;
use crate::residual::ResidualStore;
use crate::GradientCompressor;
use cdsgd_tensor::kernel;

/// 1-bit quantizer: each element of `grad + residual` is transmitted as its
/// sign, scaled by the mean absolute value of the (residual-corrected)
/// gradient so the decoded magnitude is unbiased in L1. Error feedback
/// keeps the quantization error for the next round.
#[derive(Debug, Clone, Default)]
pub struct OneBitQuantizer {
    residuals: ResidualStore,
    /// Reused encode scratch (corrected gradient and sign stream).
    corrected: Vec<f32>,
    bits: Vec<bool>,
}

impl OneBitQuantizer {
    /// New quantizer with empty residual state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access the residual store (diagnostics).
    pub fn residuals(&self) -> &ResidualStore {
        &self.residuals
    }

    /// Quantize `grad + residual` into `self.bits`, updating the residual
    /// state; returns the scale.
    fn encode_bits(&mut self, key: usize, grad: &[f32]) -> f32 {
        let res = self.residuals.get_mut(key, grad.len());
        self.corrected.clear();
        self.corrected.resize(grad.len(), 0.0);
        kernel::add_into(&mut self.corrected, grad, res);
        let scale = if self.corrected.is_empty() {
            0.0
        } else {
            kernel::reduce_abs_sum(&self.corrected) / self.corrected.len() as f32
        };
        self.bits.clear();
        self.bits.resize(grad.len(), false);
        kernel::sign_residual(&self.corrected, scale, &mut self.bits, res);
        scale
    }
}

impl GradientCompressor for OneBitQuantizer {
    fn compress_into(&mut self, key: usize, grad: &[f32], pool: &BufferPool) -> Compressed {
        let scale = self.encode_bits(key, grad);
        let mut signs = pool.take_bytes();
        pack_1bit_into(&self.bits, &mut signs);
        Compressed::OneBit {
            scale,
            signs,
            len: grad.len(),
        }
    }

    fn name(&self) -> &'static str {
        "1bit"
    }

    fn wire_bytes(&self, n: usize) -> usize {
        4 + 4 + n.div_ceil(8)
    }

    fn export_state(&self) -> Vec<(usize, Vec<f32>)> {
        self.residuals.export_state()
    }

    fn import_state(&mut self, entries: &[(usize, Vec<f32>)]) {
        self.residuals.import_state(entries);
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
    fn signs_and_scale() {
        let mut q = OneBitQuantizer::new();
        let c = q.compress(0, &[1.0, -3.0]);
        // scale = mean(|1|, |3|) = 2
        assert_eq!(decode(&c), vec![2.0, -2.0]);
    }

    #[test]
    fn error_feedback_conserves_mass() {
        let mut q = OneBitQuantizer::new();
        let grads = [[0.9f32, -0.1], [0.2, 0.2], [-1.0, 0.4]];
        let mut sent = [0.0f32; 2];
        let mut total = [0.0f32; 2];
        for g in &grads {
            for (t, &x) in total.iter_mut().zip(g) {
                *t += x;
            }
            for (s, d) in sent.iter_mut().zip(decode(&q.compress(0, g))) {
                *s += d;
            }
        }
        let res = q.residuals().get(0).unwrap();
        for i in 0..2 {
            assert!((sent[i] + res[i] - total[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn thirty_two_x_wire_reduction() {
        let q = OneBitQuantizer::new();
        assert_eq!(q.wire_bytes(800), 8 + 100);
        assert!(q.compression_ratio(1 << 20) < 1.0 / 30.0);
    }

    #[test]
    fn empty_gradient_ok() {
        let mut q = OneBitQuantizer::new();
        let c = q.compress(0, &[]);
        assert_eq!(c.len(), 0);
        assert!(decode(&c).is_empty());
    }
}
