//! MXNet-style 2-bit threshold gradient quantization with residual
//! accumulation — the compressor used by the paper's BIT-SGD and CD-SGD.

use crate::compressed::Compressed;
use crate::pool::BufferPool;
use crate::residual::ResidualStore;
use crate::GradientCompressor;
use cdsgd_tensor::kernel;

/// 2-bit threshold quantizer (MXNet 1.4 `gc_type="2bit"` semantics).
///
/// For each element, the value considered is `x = grad[i] + residual[i]`:
///
/// * `x >= threshold`  → transmit `+threshold` (code 1)
/// * `x <= -threshold` → transmit `-threshold` (code 2)
/// * otherwise         → transmit `0` (code 0)
///
/// The untransmitted remainder `x - q` is stored back into the residual
/// buffer for the key, so no gradient mass is ever dropped — only delayed
/// (paper §2.3 and §3.4.1 update rules).
///
/// `with_residual(false)` disables error feedback; this is the ablation
/// mode the benchmark suite uses to show why residuals matter.
/// [`TwoBitQuantizer::with_feedback`] damps it instead (ECQ-SGD, Wu et
/// al.): the carried error enters as `x = grad + α·residual` and is
/// stored back as `β·(x − q)`.
#[derive(Debug, Clone)]
pub struct TwoBitQuantizer {
    threshold: f32,
    residuals: ResidualStore,
    use_residual: bool,
    /// Residual feedback gains `(α, β)`; `(1, 1)` is plain error feedback.
    feedback: (f32, f32),
}

impl TwoBitQuantizer {
    /// Quantizer with the given positive threshold α (the paper uses 0.5).
    ///
    /// # Panics
    /// Panics if `threshold` is not strictly positive and finite.
    pub fn new(threshold: f32) -> Self {
        assert!(
            threshold > 0.0 && threshold.is_finite(),
            "threshold must be positive and finite, got {threshold}"
        );
        Self {
            threshold,
            residuals: ResidualStore::new(),
            use_residual: true,
            feedback: (1.0, 1.0),
        }
    }

    /// Scale the carried residual by `alpha` on the way into the scan and
    /// by `beta` on the way out. A gain of exactly 1.0 skips its pass, so
    /// `(1, 1)` is bit-identical to a quantizer this was never called on.
    pub fn with_feedback(mut self, alpha: f32, beta: f32) -> Self {
        self.feedback = (alpha, beta);
        self
    }

    /// Enable/disable the residual (error-feedback) buffer. Ablation knob.
    pub fn with_residual(mut self, on: bool) -> Self {
        self.use_residual = on;
        self
    }

    /// The quantization threshold α.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Access the residual store (diagnostics).
    pub fn residuals(&self) -> &ResidualStore {
        &self.residuals
    }
}

impl GradientCompressor for TwoBitQuantizer {
    /// One pass over `grad` and the key's residual, straight into the
    /// packed payload; the ECQ gains, when not 1, are a scale pass each
    /// side of it.
    fn compress_into(&mut self, key: usize, grad: &[f32], pool: &BufferPool) -> Compressed {
        let mut packed = pool.take_bytes();
        packed.resize(grad.len().div_ceil(4), 0);
        if self.use_residual {
            let (alpha, beta) = self.feedback;
            let res = self.residuals.get_mut(key, grad.len());
            if alpha != 1.0 {
                kernel::scale(res, alpha);
            }
            kernel::quantize_2bit(grad, self.threshold, Some(res), &mut packed);
            if beta != 1.0 {
                kernel::scale(res, beta);
            }
        } else {
            kernel::quantize_2bit(grad, self.threshold, None, &mut packed);
        }
        Compressed::TwoBit {
            threshold: self.threshold,
            packed,
            len: grad.len(),
        }
    }

    fn name(&self) -> &'static str {
        "2bit"
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
    fn saturating_values_transmit_threshold() {
        let mut q = TwoBitQuantizer::new(0.5);
        let c = q.compress(0, &[0.9, -0.7, 0.5, -0.5]);
        assert_eq!(decode(&c), vec![0.5, -0.5, 0.5, -0.5]);
    }

    #[test]
    fn small_values_transmit_zero_and_accumulate() {
        let mut q = TwoBitQuantizer::new(0.5);
        let c = q.compress(0, &[0.3, -0.2]);
        assert_eq!(decode(&c), vec![0.0, 0.0]);
        assert_eq!(q.residuals().get(0).unwrap(), &[0.3, -0.2]);
    }

    #[test]
    fn residual_crosses_threshold_and_fires() {
        let mut q = TwoBitQuantizer::new(0.5);
        // Two sub-threshold gradients of 0.3 accumulate to 0.6 ≥ 0.5.
        let c1 = q.compress(0, &[0.3]);
        assert_eq!(decode(&c1), vec![0.0]);
        let c2 = q.compress(0, &[0.3]);
        assert_eq!(decode(&c2), vec![0.5]);
        // Residual keeps the remainder 0.6 - 0.5.
        let r = q.residuals().get(0).unwrap()[0];
        assert!((r - 0.1).abs() < 1e-6, "residual {r}");
    }

    #[test]
    fn no_information_loss_over_time() {
        // Error-feedback invariant: sum(decoded) + residual == sum(grads).
        let mut q = TwoBitQuantizer::new(0.5);
        let grads = [[0.23f32], [0.31], [-0.8], [0.05], [0.62], [-0.11]];
        let mut transmitted = 0.0f32;
        let mut total = 0.0f32;
        for g in &grads {
            total += g[0];
            transmitted += decode(&q.compress(0, g))[0];
        }
        let residual = q.residuals().get(0).unwrap()[0];
        assert!((transmitted + residual - total).abs() < 1e-5);
    }

    #[test]
    fn residual_disabled_drops_information() {
        let mut q = TwoBitQuantizer::new(0.5).with_residual(false);
        let c1 = q.compress(0, &[0.3]);
        assert_eq!(decode(&c1), vec![0.0]);
        let c2 = q.compress(0, &[0.3]);
        // Without error feedback the second 0.3 still reads 0.
        assert_eq!(decode(&c2), vec![0.0]);
        assert!(q.residuals().get(0).is_none());
    }

    #[test]
    fn damped_feedback_scales_the_residual_in_and_out() {
        // x = g + α·e, e ← β·(x − q), against the formula by hand.
        let mut q = TwoBitQuantizer::new(0.5).with_feedback(0.5, 0.25);
        q.compress(0, &[0.4, 0.9]);
        assert_eq!(
            q.residuals().get(0).unwrap(),
            &[0.25 * 0.4, 0.25 * (0.9 - 0.5)]
        );
        // Second round: e = [0.1, 0.1]; x = [0.4 + 0.05, -0.6 + 0.05].
        let c = q.compress(0, &[0.4, -0.6]);
        assert_eq!(decode(&c), vec![0.0, -0.5]);
        let e = q.residuals().get(0).unwrap();
        assert_eq!(
            e,
            &[0.25 * (0.4 + 0.5 * 0.1), 0.25 * ((-0.6 + 0.5 * 0.1) + 0.5)]
        );
    }

    #[test]
    fn keys_are_independent() {
        let mut q = TwoBitQuantizer::new(0.5);
        q.compress(0, &[0.4]);
        q.compress(1, &[-0.4]);
        assert_eq!(q.residuals().get(0).unwrap(), &[0.4]);
        assert_eq!(q.residuals().get(1).unwrap(), &[-0.4]);
    }

    #[test]
    fn wire_bytes_sixteen_x_reduction() {
        let q = TwoBitQuantizer::new(0.5);
        // 1M elements: 4 MB raw -> ~0.25 MB + headers.
        assert_eq!(q.wire_bytes(1_000_000), 8 + 250_000);
        assert!(q.compression_ratio(1_000_000) < 1.0 / 15.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        TwoBitQuantizer::new(0.0);
    }

    #[test]
    fn empty_gradient_ok() {
        let mut q = TwoBitQuantizer::new(0.5);
        let c = q.compress(0, &[]);
        assert_eq!(c.len(), 0);
        assert_eq!(c.wire_bytes(), 8);
    }
}
