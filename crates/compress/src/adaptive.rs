//! Adaptive-threshold 2-bit quantization.
//!
//! The paper notes (§2.3) that a fixed threshold is hard to choose:
//! "various models have different parameter characteristics, and it is
//! difficult to find a suitable threshold for them". This codec sets the
//! threshold *per key, per iteration* to a multiple of the mean absolute
//! residual-corrected gradient — the AdaComp-style remedy [Chen et al.
//! 2018] applied to the 2-bit scheme. Same wire format as
//! [`crate::TwoBitQuantizer`] (the threshold already travels in the
//! header).

use crate::compressed::Compressed;
use crate::packing::pack_2bit_into;
use crate::pool::BufferPool;
use crate::residual::ResidualStore;
use crate::GradientCompressor;
use cdsgd_tensor::kernel;

/// 2-bit quantizer whose threshold tracks the gradient scale:
/// `α = scale · mean(|grad + residual|)`, floored to a tiny epsilon so
/// all-zero gradients stay encodable.
#[derive(Debug, Clone)]
pub struct AdaptiveTwoBit {
    scale: f32,
    residuals: ResidualStore,
    /// Reused encode scratch (corrected gradient and symbol stream).
    corrected: Vec<f32>,
    symbols: Vec<u8>,
}

impl AdaptiveTwoBit {
    /// `scale` multiplies the mean absolute corrected gradient; ~1.0–2.0
    /// transmits the heavy tail, larger values get sparser/coarser.
    ///
    /// # Panics
    /// Panics unless `scale` is positive and finite.
    pub fn new(scale: f32) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be positive, got {scale}"
        );
        Self {
            scale,
            residuals: ResidualStore::new(),
            corrected: Vec::new(),
            symbols: Vec::new(),
        }
    }

    /// The scale multiplier.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Access the residual store (diagnostics).
    pub fn residuals(&self) -> &ResidualStore {
        &self.residuals
    }

    /// The threshold that would be used for this corrected gradient.
    fn threshold_for(corrected: &[f32], scale: f32) -> f32 {
        if corrected.is_empty() {
            return 1e-8;
        }
        let mean_abs = kernel::reduce_abs_sum(corrected) / corrected.len() as f32;
        (scale * mean_abs).max(1e-8)
    }

    /// Quantize `grad + residual` into `self.symbols`, updating the
    /// residual state; returns the adaptive threshold.
    fn encode_symbols(&mut self, key: usize, grad: &[f32]) -> f32 {
        let res = self.residuals.get_mut(key, grad.len());
        self.corrected.clear();
        self.corrected.resize(grad.len(), 0.0);
        kernel::add_into(&mut self.corrected, grad, res);
        let thr = Self::threshold_for(&self.corrected, self.scale);
        self.symbols.clear();
        self.symbols.resize(grad.len(), 0);
        kernel::threshold_scan_store(&self.corrected, thr, &mut self.symbols, res);
        thr
    }
}

impl GradientCompressor for AdaptiveTwoBit {
    fn compress_into(&mut self, key: usize, grad: &[f32], pool: &BufferPool) -> Compressed {
        let thr = self.encode_symbols(key, grad);
        let mut packed = pool.take_bytes();
        pack_2bit_into(&self.symbols, &mut packed);
        Compressed::TwoBit {
            threshold: thr,
            packed,
            len: grad.len(),
        }
    }

    fn name(&self) -> &'static str {
        "2bit-adaptive"
    }

    fn wire_bytes(&self, n: usize) -> usize {
        4 + 4 + n.div_ceil(4)
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
    fn threshold_tracks_gradient_scale() {
        let mut q = AdaptiveTwoBit::new(1.0);
        // Large-scale gradient: threshold ≈ mean(|g|) = 2.0; everything at
        // ±3 and ±1 relative to that.
        let c = q.compress(0, &[3.0, -3.0, 1.0, -1.0]);
        if let Compressed::TwoBit { threshold, .. } = c {
            assert!((threshold - 2.0).abs() < 1e-6, "thr {threshold}");
        } else {
            panic!("wrong variant");
        }
        // Tiny gradient on a fresh key: threshold shrinks proportionally —
        // no manual retuning needed (the paper's §2.3 pain point).
        let c = q.compress(1, &[3e-3, -3e-3, 1e-3, -1e-3]);
        if let Compressed::TwoBit { threshold, .. } = c {
            assert!((threshold - 2e-3).abs() < 1e-7, "thr {threshold}");
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn mass_conservation_with_adaptive_threshold() {
        let mut q = AdaptiveTwoBit::new(1.5);
        let rounds = [[0.4f32, -0.1, 0.8], [0.05, 0.3, -0.6], [-0.2, 0.2, 0.1]];
        let mut sent = [0.0f32; 3];
        let mut total = [0.0f32; 3];
        for g in &rounds {
            for (t, &x) in total.iter_mut().zip(g) {
                *t += x;
            }
            for (s, d) in sent.iter_mut().zip(decode(&q.compress(0, g))) {
                *s += d;
            }
        }
        let res = q.residuals().get(0).unwrap();
        for i in 0..3 {
            assert!((sent[i] + res[i] - total[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn zero_gradient_encodes_to_zero() {
        let mut q = AdaptiveTwoBit::new(1.0);
        assert_eq!(decode(&q.compress(0, &[0.0; 8])), vec![0.0; 8]);
    }

    #[test]
    fn larger_scale_transmits_fewer_elements() {
        let grad: Vec<f32> = (0..128).map(|i| ((i as f32) * 0.37).sin()).collect();
        let count_fired = |scale: f32| -> usize {
            let mut q = AdaptiveTwoBit::new(scale);
            decode(&q.compress(0, &grad))
                .iter()
                .filter(|&&v| v != 0.0)
                .count()
        };
        assert!(count_fired(0.5) > count_fired(2.0));
    }

    #[test]
    fn wire_size_matches_fixed_threshold_codec() {
        let q = AdaptiveTwoBit::new(1.0);
        let fixed = crate::TwoBitQuantizer::new(0.5);
        assert_eq!(q.wire_bytes(1000), fixed.wire_bytes(1000));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_scale_rejected() {
        AdaptiveTwoBit::new(0.0);
    }
}
