//! The [`Sequential`] container: an ordered stack of layers with stable
//! per-parameter keys — the sharding unit the parameter server uses.

use crate::layer::{Layer, Mode, Param};
use cdsgd_tensor::Tensor;
use std::sync::Arc;

/// An ordered stack of layers applied one after another.
///
/// Parameter keys: the i-th parameter encountered by a depth-first
/// [`Layer::visit_params`] walk has key `i`. The walk order is fixed by
/// construction, so keys are stable across iterations and identical on
/// every worker — the property the PS push/pull protocol relies on.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Empty container.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Append a boxed layer.
    pub fn push_boxed(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the container has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Flattened parameter sizes in key order: `sizes()[key]` is the
    /// element count of parameter `key`.
    pub fn param_sizes(&mut self) -> Vec<usize> {
        let mut sizes = Vec::new();
        self.visit_params(&mut |p| sizes.push(p.len()));
        sizes
    }

    /// Copy all parameter values out, one `Vec<f32>` per key.
    pub fn export_params(&mut self) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        self.export_params_into(&mut out);
        out
    }

    /// Copy parameter values into `out`, reusing its per-key buffers
    /// across calls (the hot-loop variant of
    /// [`Sequential::export_params`]). `out` is resized to exactly one
    /// vector per key.
    pub fn export_params_into(&mut self, out: &mut Vec<Vec<f32>>) {
        let mut i = 0usize;
        self.visit_params(&mut |p| {
            if i == out.len() {
                out.push(Vec::new());
            }
            out[i].clear();
            out[i].extend_from_slice(p.value.data());
            i += 1;
        });
        out.truncate(i);
    }

    /// Copy all gradients out, one `Vec<f32>` per key.
    pub fn export_grads(&mut self) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        self.export_grads_into(&mut out);
        out
    }

    /// Copy gradients into `out`, reusing its per-key buffers across
    /// calls (the hot-loop variant of [`Sequential::export_grads`]).
    pub fn export_grads_into(&mut self, out: &mut Vec<Vec<f32>>) {
        let mut i = 0usize;
        self.visit_params(&mut |p| {
            if i == out.len() {
                out.push(Vec::new());
            }
            out[i].clear();
            out[i].extend_from_slice(p.grad.data());
            i += 1;
        });
        out.truncate(i);
    }

    /// Overwrite parameter values from per-key slices.
    ///
    /// # Panics
    /// Panics if the number of keys or any length mismatches.
    pub fn import_params(&mut self, values: &[Vec<f32>]) {
        self.import_params_from(values);
    }

    /// Overwrite parameter values from anything slice-like per key —
    /// `Vec<f32>`, `Arc<[f32]>` (zero-copy PS snapshots), `&[f32]`, …
    ///
    /// # Panics
    /// Panics if the number of keys or any length mismatches.
    pub fn import_params_from<S: AsRef<[f32]>>(&mut self, values: &[S]) {
        let mut i = 0usize;
        self.visit_params(&mut |p| {
            assert!(i < values.len(), "too few parameter vectors");
            let v = values[i].as_ref();
            assert_eq!(v.len(), p.len(), "param {i} length mismatch");
            p.value.data_overwrite().copy_from_slice(v);
            i += 1;
        });
        assert_eq!(i, values.len(), "too many parameter vectors");
    }

    /// Point every parameter at its shared snapshot
    /// ([`Tensor::adopt_shared`]): the model reads the pulled weights
    /// where they are, and the storage it owned is dropped. What
    /// [`Sequential::import_params_from`] does by copying.
    ///
    /// # Panics
    /// Panics if the number of keys or any length mismatches.
    pub fn adopt_params(&mut self, values: &[Arc<[f32]>]) {
        let mut i = 0usize;
        self.visit_params(&mut |p| {
            assert!(i < values.len(), "too few parameter vectors");
            p.value.adopt_shared(Arc::clone(&values[i]));
            i += 1;
        });
        assert_eq!(i, values.len(), "too many parameter vectors");
    }

    /// Back-propagate like [`Layer::backward_params`] and hand every
    /// parameter to `f(key, param)` the moment its gradient is final:
    /// after each top-level layer's backward, that layer's keys in
    /// ascending order — so layers arrive last first, and a composite
    /// block hands its keys over when the whole block is done. Every key
    /// is visited exactly once, while the layers below it have yet to
    /// run; keys are the [`Layer::visit_params`] indices. The
    /// parameter-free prefix before the first parameterized layer (a
    /// `Flatten`, say) is never entered, and that layer is asked for its
    /// parameter gradients only.
    pub fn backward_params_each(&mut self, dy: &Tensor, mut f: impl FnMut(usize, &mut Param)) {
        // Keys not yet handed over: the layers still to run own `0..end`.
        let mut end = 0usize;
        self.visit_params(&mut |_| end += 1);
        let mut cur = dy.clone();
        for layer in self.layers.iter_mut().rev() {
            if end == 0 {
                break;
            }
            let mut owned = 0usize;
            layer.visit_params(&mut |_| owned += 1);
            end -= owned;
            if end == 0 {
                layer.backward_params(&cur);
            } else {
                cur = layer.backward(&cur);
            }
            let mut key = end;
            layer.visit_params(&mut |p| {
                f(key, p);
                key += 1;
            });
        }
    }

    /// Apply `value[key] += alpha * delta[key]` for all keys.
    pub fn axpy_params(&mut self, alpha: f32, deltas: &[Vec<f32>]) {
        let mut i = 0usize;
        self.visit_params(&mut |p| {
            assert_eq!(deltas[i].len(), p.len(), "param {i} length mismatch");
            for (v, &d) in p.value.data_mut().iter_mut().zip(&deltas[i]) {
                *v += alpha * d;
            }
            i += 1;
        });
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, mode);
        }
        cur
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut cur = dy.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    /// [`Sequential::backward_params_each`] with nobody waiting for the
    /// gradients.
    fn backward_params(&mut self, dy: &Tensor) {
        self.backward_params_each(dy, |_, _| {});
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
    use cdsgd_tensor::SmallRng64;

    fn tiny_model(rng: &mut SmallRng64) -> Sequential {
        Sequential::new()
            .push(Dense::new(3, 4, rng))
            .push(Relu::new())
            .push(Dense::new(4, 2, rng))
    }

    #[test]
    fn forward_backward_shapes() {
        let mut rng = SmallRng64::new(0);
        let mut m = tiny_model(&mut rng);
        let x = Tensor::randn(&[5, 3], 1.0, &mut rng);
        let y = m.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[5, 2]);
        let dx = m.backward(&Tensor::ones(&[5, 2]));
        assert_eq!(dx.shape(), &[5, 3]);
    }

    #[test]
    fn param_keys_are_stable_and_complete() {
        let mut rng = SmallRng64::new(1);
        let mut m = tiny_model(&mut rng);
        let sizes = m.param_sizes();
        // dense1 W (3*4) + b (4) + dense2 W (4*2) + b (2)
        assert_eq!(sizes, vec![12, 4, 8, 2]);
        assert_eq!(m.num_params(), 26);
        // Stability: second call yields the same layout.
        assert_eq!(m.param_sizes(), sizes);
    }

    #[test]
    fn export_import_round_trip() {
        let mut rng = SmallRng64::new(2);
        let mut m = tiny_model(&mut rng);
        let snapshot = m.export_params();
        // Perturb, then restore.
        let zeros: Vec<Vec<f32>> = snapshot.iter().map(|v| vec![0.0; v.len()]).collect();
        m.import_params(&zeros);
        assert!(m
            .export_params()
            .iter()
            .all(|v| v.iter().all(|&x| x == 0.0)));
        m.import_params(&snapshot);
        assert_eq!(m.export_params(), snapshot);
    }

    #[test]
    fn axpy_params_applies_update() {
        let mut rng = SmallRng64::new(3);
        let mut m = tiny_model(&mut rng);
        let before = m.export_params();
        let ones: Vec<Vec<f32>> = before.iter().map(|v| vec![1.0; v.len()]).collect();
        m.axpy_params(-0.5, &ones);
        let after = m.export_params();
        for (b, a) in before.iter().zip(&after) {
            for (x, y) in b.iter().zip(a) {
                assert!((x - 0.5 - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn identical_seeds_build_identical_models() {
        // Workers rely on this: same seed => same initial global weights.
        let mut r1 = SmallRng64::new(7);
        let mut r2 = SmallRng64::new(7);
        let mut m1 = tiny_model(&mut r1);
        let mut m2 = tiny_model(&mut r2);
        assert_eq!(m1.export_params(), m2.export_params());
    }

    #[test]
    fn export_into_reuses_buffers_and_matches_export() {
        let mut rng = SmallRng64::new(9);
        let mut m = tiny_model(&mut rng);
        let mut scratch: Vec<Vec<f32>> = (0..7).map(|_| Vec::with_capacity(64)).collect(); // extra slots shrink
        m.export_params_into(&mut scratch);
        assert_eq!(scratch, m.export_params());
        let ptrs: Vec<*const f32> = scratch.iter().map(|v| v.as_ptr()).collect();
        m.export_grads_into(&mut scratch);
        assert_eq!(scratch, m.export_grads());
        // Same allocations reused across calls (capacity was sufficient).
        assert_eq!(ptrs, scratch.iter().map(|v| v.as_ptr()).collect::<Vec<_>>());
    }

    #[test]
    fn import_from_accepts_shared_slices() {
        let mut rng = SmallRng64::new(10);
        let mut m = tiny_model(&mut rng);
        let snapshot: Vec<Arc<[f32]>> = m.export_params().into_iter().map(Arc::from).collect();
        let zeros: Vec<Vec<f32>> = snapshot.iter().map(|v| vec![0.0; v.len()]).collect();
        m.import_params(&zeros);
        m.import_params_from(&snapshot);
        let restored = m.export_params();
        for (r, s) in restored.iter().zip(&snapshot) {
            assert_eq!(r.as_slice(), s.as_ref());
        }
    }

    #[test]
    fn adopted_params_are_read_in_place_and_compute_like_imported_ones() {
        let mut rng = SmallRng64::new(11);
        let mut adopted = tiny_model(&mut rng);
        let mut imported = tiny_model(&mut rng);
        let snapshot: Vec<Arc<[f32]>> = tiny_model(&mut rng)
            .export_params()
            .into_iter()
            .map(Arc::from)
            .collect();
        adopted.adopt_params(&snapshot);
        imported.import_params_from(&snapshot);
        let mut key = 0;
        adopted.visit_params(&mut |p| {
            assert!(std::ptr::eq(
                p.value.data().as_ptr(),
                snapshot[key].as_ptr()
            ));
            key += 1;
        });
        let x = Tensor::randn(&[5, 3], 1.0, &mut rng);
        let (ya, yi) = (
            adopted.forward(&x, Mode::Train),
            imported.forward(&x, Mode::Train),
        );
        assert_eq!(ya, yi);
        // A later write (a local step) lands in the model, not the snapshot.
        let before = snapshot[0].to_vec();
        let ones: Vec<Vec<f32>> = snapshot.iter().map(|v| vec![1.0; v.len()]).collect();
        adopted.axpy_params(-0.5, &ones);
        assert_eq!(*snapshot[0], before[..]);
        assert_ne!(adopted.export_params()[0], before);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn import_bad_lengths_panics() {
        let mut rng = SmallRng64::new(4);
        let mut m = tiny_model(&mut rng);
        let mut p = m.export_params();
        p[0].pop();
        m.import_params(&p);
    }
}
