//! TernGrad (Wen et al. 2017): unbiased stochastic ternarization.

use crate::compressed::Compressed;
use crate::packing::pack_2bit_into;
use crate::pool::BufferPool;
use crate::GradientCompressor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// TernGrad quantizer.
///
/// Each gradient element becomes `s_max * sign(g_i) * b_i` where
/// `s_max = max_j |g_j|` and `b_i ~ Bernoulli(|g_i| / s_max)`. The codes
/// are *unbiased* in expectation, so no residual buffer is kept (matching
/// the original algorithm). Symbols pack 2 bits per element like the
/// threshold quantizer.
#[derive(Debug, Clone)]
pub struct TernGradQuantizer {
    rng: StdRng,
    /// Reused symbol scratch so the encode path stays allocation-free.
    symbols: Vec<u8>,
}

impl TernGradQuantizer {
    /// New quantizer with a deterministic seed for its Bernoulli draws.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            symbols: Vec::new(),
        }
    }

    /// Ternarize `grad` into `self.symbols`; returns the scale `s_max`.
    fn encode_symbols(&mut self, grad: &[f32]) -> f32 {
        let s_max = grad.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        self.symbols.clear();
        self.symbols.resize(grad.len(), 0);
        if s_max > 0.0 {
            for (s, &g) in self.symbols.iter_mut().zip(grad) {
                let p = g.abs() / s_max;
                if self.rng.gen::<f32>() < p {
                    *s = if g >= 0.0 { 1 } else { 2 };
                }
            }
        }
        s_max
    }
}

impl GradientCompressor for TernGradQuantizer {
    fn compress_into(&mut self, _key: usize, grad: &[f32], pool: &BufferPool) -> Compressed {
        let s_max = self.encode_symbols(grad);
        let mut packed = pool.take_bytes();
        pack_2bit_into(&self.symbols, &mut packed);
        Compressed::Tern {
            scale: s_max,
            packed,
            len: grad.len(),
        }
    }

    fn name(&self) -> &'static str {
        "terngrad"
    }

    fn wire_bytes(&self, n: usize) -> usize {
        4 + 4 + n.div_ceil(4)
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
    fn outputs_only_ternary_values() {
        let mut q = TernGradQuantizer::new(1);
        let grad = vec![0.3, -0.9, 0.0, 0.5, -0.2];
        let c = q.compress(0, &grad);
        let s_max = 0.9;
        for v in decode(&c) {
            assert!(
                v == 0.0 || (v - s_max).abs() < 1e-6 || (v + s_max).abs() < 1e-6,
                "{v}"
            );
        }
    }

    #[test]
    fn max_magnitude_element_always_fires() {
        // p = |g|/s_max = 1 for the max element, so it always transmits.
        let mut q = TernGradQuantizer::new(2);
        for _ in 0..20 {
            let c = q.compress(0, &[0.1, -1.0, 0.2]);
            let d = decode(&c);
            assert!(
                (d[1] + 1.0).abs() < 1e-6,
                "max element must fire, got {d:?}"
            );
        }
    }

    #[test]
    fn unbiased_in_expectation() {
        let mut q = TernGradQuantizer::new(3);
        let grad = vec![0.5f32, -0.25, 0.75];
        let trials = 20_000;
        let mut mean = vec![0.0f64; 3];
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
    fn zero_gradient_is_zero() {
        let mut q = TernGradQuantizer::new(4);
        let c = q.compress(0, &[0.0; 8]);
        assert_eq!(decode(&c), vec![0.0; 8]);
    }
}
