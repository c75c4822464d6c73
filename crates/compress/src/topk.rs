//! Top-k gradient sparsification with residual accumulation (DGC-style,
//! Lin et al. 2018) — the sparsification family the paper positions
//! CD-SGD against (LAGS-SGD/OMGS-SGD baselines).

use crate::compressed::Compressed;
use crate::pool::BufferPool;
use crate::residual::ResidualStore;
use crate::GradientCompressor;
use cdsgd_tensor::kernel;

/// Top-k sparsifier: transmits only the `ratio` fraction of elements with
/// the largest `|grad + residual|`; everything else accumulates in the
/// residual buffer (DGC's "accumulate until large enough").
///
/// With [`TopKSparsifier::with_momentum`] enabled it implements DGC's
/// *momentum correction with momentum-factor masking*: per-slot momentum
/// `u ← m·u + g` accumulates into velocity `v ← v + u`, the top-k of `v`
/// is transmitted, and both `u` and `v` are zeroed at transmitted slots
/// so stale momentum never double-fires.
#[derive(Debug, Clone)]
pub struct TopKSparsifier {
    ratio: f64,
    momentum: f32,
    residuals: ResidualStore,
    /// Momentum buffers `u` (only used when `momentum > 0`).
    momenta: ResidualStore,
    /// Reused encode scratch (residual-corrected gradient; momentum copy).
    corrected: Vec<f32>,
    u_now: Vec<f32>,
}

impl TopKSparsifier {
    /// Keep the top `ratio` fraction (e.g. `0.001` for DGC's 0.1%).
    /// At least one element is always sent for non-empty gradients.
    ///
    /// # Panics
    /// Panics unless `0 < ratio <= 1`.
    pub fn new(ratio: f64) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "ratio must be in (0, 1], got {ratio}"
        );
        Self {
            ratio,
            momentum: 0.0,
            residuals: ResidualStore::new(),
            momenta: ResidualStore::new(),
            corrected: Vec::new(),
            u_now: Vec::new(),
        }
    }

    /// Enable DGC momentum correction with factor `m` (e.g. 0.9).
    ///
    /// # Panics
    /// Panics unless `0 <= m < 1`.
    pub fn with_momentum(mut self, m: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&m),
            "momentum must be in [0, 1), got {m}"
        );
        self.momentum = m;
        self
    }

    /// Number of elements retained from an `n`-element gradient.
    pub fn k_for(&self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            ((n as f64 * self.ratio).ceil() as usize).max(1).min(n)
        }
    }

    /// Access the residual store (diagnostics).
    pub fn residuals(&self) -> &ResidualStore {
        &self.residuals
    }

    /// Select the top-k of `grad + residual` into `indices`/`values`
    /// (cleared and refilled), updating residual/momentum state.
    fn encode(&mut self, key: usize, grad: &[f32], indices: &mut Vec<u32>, values: &mut Vec<f32>) {
        let k = self.k_for(grad.len());
        // With momentum correction, the "gradient" folded into the
        // velocity (residual) buffer is the momentum-updated u.
        if self.momentum > 0.0 {
            let u = self.momenta.get_mut(key, grad.len());
            kernel::decay_add(u, self.momentum, grad);
            self.u_now.clear();
            self.u_now.extend_from_slice(u);
            let v = self.residuals.get_mut(key, grad.len());
            self.corrected.clear();
            self.corrected.resize(grad.len(), 0.0);
            kernel::add_into(&mut self.corrected, v, &self.u_now);
        } else {
            let res = self.residuals.get_mut(key, grad.len());
            self.corrected.clear();
            self.corrected.resize(grad.len(), 0.0);
            kernel::add_into(&mut self.corrected, grad, res);
        }

        // Select the k largest-magnitude indices. select_nth keeps this
        // O(n) rather than a full sort.
        let corrected = &self.corrected;
        indices.clear();
        indices.extend(0..corrected.len() as u32);
        if k < indices.len() {
            indices.select_nth_unstable_by(k, |&a, &b| {
                corrected[b as usize]
                    .abs()
                    .partial_cmp(&corrected[a as usize].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            indices.truncate(k);
        }
        indices.sort_unstable(); // deterministic wire order

        values.clear();
        values.extend(indices.iter().map(|&i| corrected[i as usize]));
        // Residual/velocity: transmitted slots reset to zero, others keep x.
        let res = self.residuals.get_mut(key, grad.len());
        res.copy_from_slice(&self.corrected);
        for &i in indices.iter() {
            res[i as usize] = 0.0;
        }
        // DGC momentum-factor masking: kill the momentum of transmitted
        // slots so it cannot re-fire stale directions.
        if self.momentum > 0.0 {
            let u = self.momenta.get_mut(key, grad.len());
            for &i in indices.iter() {
                u[i as usize] = 0.0;
            }
        }
    }
}

impl GradientCompressor for TopKSparsifier {
    fn compress_into(&mut self, key: usize, grad: &[f32], pool: &BufferPool) -> Compressed {
        let mut indices = pool.take_u32();
        let mut values = pool.take_f32();
        self.encode(key, grad, &mut indices, &mut values);
        Compressed::TopK {
            indices,
            values,
            len: grad.len(),
        }
    }

    fn name(&self) -> &'static str {
        "topk"
    }

    fn wire_bytes(&self, n: usize) -> usize {
        4 + 8 * self.k_for(n)
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
    fn keeps_exactly_the_largest() {
        let mut s = TopKSparsifier::new(0.5);
        let c = s.compress(0, &[0.1, -0.9, 0.5, 0.05]);
        assert_eq!(decode(&c), vec![0.0, -0.9, 0.5, 0.0]);
    }

    #[test]
    fn residual_holds_the_rest_then_fires() {
        let mut s = TopKSparsifier::new(0.25);
        // Only 1 of 4 sent; 0.4 is dropped into residual.
        let d1 = decode(&s.compress(0, &[1.0, 0.4, 0.0, 0.0]));
        assert_eq!(d1, vec![1.0, 0.0, 0.0, 0.0]);
        // Next round 0.4 (residual) beats everything and is transmitted.
        let d2 = decode(&s.compress(0, &[0.0, 0.0, 0.1, 0.0]));
        assert_eq!(d2, vec![0.0, 0.4, 0.0, 0.0]);
    }

    #[test]
    fn mass_conservation() {
        let mut s = TopKSparsifier::new(0.34);
        let rounds = [[0.3f32, -0.2, 0.7], [0.1, 0.1, -0.4], [0.6, -0.5, 0.2]];
        let mut sent = [0.0f32; 3];
        let mut total = [0.0f32; 3];
        for g in &rounds {
            for (t, &x) in total.iter_mut().zip(g) {
                *t += x;
            }
            for (sv, d) in sent.iter_mut().zip(decode(&s.compress(0, g))) {
                *sv += d;
            }
        }
        let res = s.residuals().get(0).unwrap();
        for i in 0..3 {
            assert!((sent[i] + res[i] - total[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn k_for_rounds_up_and_clamps() {
        let s = TopKSparsifier::new(0.001);
        assert_eq!(s.k_for(100), 1);
        assert_eq!(s.k_for(10_000), 10);
        assert_eq!(s.k_for(0), 0);
        let all = TopKSparsifier::new(1.0);
        assert_eq!(all.k_for(7), 7);
    }

    #[test]
    fn wire_bytes_proportional_to_k() {
        let s = TopKSparsifier::new(0.01);
        assert_eq!(s.wire_bytes(10_000), 4 + 8 * 100);
        // 0.1% DGC ratio => ~500x reduction.
        let dgc = TopKSparsifier::new(0.001);
        assert!(dgc.compression_ratio(1_000_000) < 1.0 / 400.0);
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn bad_ratio_rejected() {
        TopKSparsifier::new(0.0);
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn bad_momentum_rejected() {
        TopKSparsifier::new(0.5).with_momentum(1.0);
    }

    #[test]
    fn momentum_correction_accumulates_geometrically() {
        // Constant unit gradient in one slot, never transmitted (the
        // other slot always wins): velocity after t steps is
        // Σ_{j=1..t} Σ_{i=1..j} m^{j-i} — strictly more than plain
        // accumulation (t) for m > 0.
        let mut dgc = TopKSparsifier::new(0.5).with_momentum(0.9);
        let mut plain = TopKSparsifier::new(0.5);
        for _ in 0..4 {
            // Slot 0 huge (always transmitted), slot 1 small constant.
            dgc.compress(0, &[100.0, 1.0]);
            plain.compress(0, &[100.0, 1.0]);
        }
        let v_dgc = dgc.residuals().get(0).unwrap()[1];
        let v_plain = plain.residuals().get(0).unwrap()[1];
        assert_eq!(v_plain, 4.0);
        // With m=0.9: u walks 1, 1.9, 2.71, 3.439; v = 9.049.
        assert!((v_dgc - 9.049).abs() < 1e-3, "v_dgc {v_dgc}");
    }

    #[test]
    fn momentum_masking_zeroes_transmitted_slots() {
        let mut dgc = TopKSparsifier::new(0.5).with_momentum(0.9);
        // Round 1: slot 0 transmits (largest).
        let d1 = decode(&dgc.compress(0, &[10.0, 1.0]));
        assert_eq!(d1[0], 10.0);
        // After masking, slot 0's momentum is dead: a zero gradient round
        // must transmit nothing from slot 0 even though m·u would
        // otherwise carry 9.0 forward.
        let d2 = decode(&dgc.compress(0, &[0.0, 0.0]));
        assert_eq!(d2[0], 0.0, "masked momentum must not re-fire");
    }

    #[test]
    fn zero_momentum_matches_plain_topk() {
        let mut a = TopKSparsifier::new(0.34);
        let mut b = TopKSparsifier::new(0.34).with_momentum(0.0);
        for g in [[0.3f32, -0.2, 0.7], [0.1, 0.1, -0.4]] {
            assert_eq!(a.compress(0, &g), b.compress(0, &g));
        }
    }
}
