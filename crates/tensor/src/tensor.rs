//! The [`Tensor`] type: contiguous row-major `f32` storage plus a shape.

use crate::rng::SmallRng64;
use crate::shape::{contiguous_strides, linear_index, numel, Shape};
use std::sync::Arc;

/// A dense N-dimensional `f32` tensor with contiguous row-major storage.
///
/// This is the only storage type in the library. It is cheap to construct,
/// sendable across threads, and exposes its backing slice directly so the
/// compression codecs and parameter-server can treat parameters/gradients as
/// flat `&[f32]` without copies.
///
/// The elements are either owned or a shared, immutable snapshot
/// ([`Tensor::adopt_shared`]): reads see no difference, the first write
/// to a shared tensor copies it (or, through [`Tensor::data_overwrite`],
/// just replaces it). `Clone` and `==` are over the logical contents.
#[derive(Clone, Debug)]
pub struct Tensor {
    shape: Shape,
    data: Storage,
}

/// Where a tensor's elements live.
#[derive(Clone, Debug)]
enum Storage {
    Owned(Vec<f32>),
    /// Somebody else's snapshot, read in place and never written.
    Shared(Arc<[f32]>),
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

impl Tensor {
    /// Build a tensor from a shape and backing data.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Self {
        assert_eq!(
            numel(&shape),
            data.len(),
            "shape {:?} needs {} elements, got {}",
            shape,
            numel(&shape),
            data.len()
        );
        Self {
            shape,
            data: Storage::Owned(data),
        }
    }

    /// A tensor reading the shared snapshot `data` in place (no copy).
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_shared(shape: Shape, data: Arc<[f32]>) -> Self {
        assert_eq!(numel(&shape), data.len(), "shape {shape:?} vs snapshot");
        Self {
            shape,
            data: Storage::Shared(data),
        }
    }

    /// An all-zeros tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::from_vec(shape.to_vec(), vec![0.0; numel(shape)])
    }

    /// An all-ones tensor of the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self::from_vec(shape.to_vec(), vec![value; numel(shape)])
    }

    /// A tensor of i.i.d. samples from `N(0, std^2)` drawn from `rng`.
    pub fn randn(shape: &[usize], std: f32, rng: &mut SmallRng64) -> Self {
        let n = numel(shape);
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(rng.gauss() * std);
        }
        Self::from_vec(shape.to_vec(), data)
    }

    /// A tensor of i.i.d. samples from `U(lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut SmallRng64) -> Self {
        let n = numel(shape);
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(lo + (hi - lo) * rng.unit_f32());
        }
        Self::from_vec(shape.to_vec(), data)
    }

    /// The shape (dimension sizes, outermost first).
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data().len()
    }

    /// True if the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data().is_empty()
    }

    /// Row-major strides of the (contiguous) storage.
    pub fn strides(&self) -> Vec<usize> {
        contiguous_strides(&self.shape)
    }

    /// Immutable view of the backing storage.
    #[inline]
    pub fn data(&self) -> &[f32] {
        match &self.data {
            Storage::Owned(v) => v,
            Storage::Shared(s) => s,
        }
    }

    /// Mutable view of the backing storage. A shared tensor first copies
    /// its snapshot into storage of its own; the snapshot is untouched.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        if let Storage::Shared(s) = &self.data {
            self.data = Storage::Owned(s.to_vec());
        }
        self.owned_mut()
    }

    /// [`Tensor::data_mut`] for a caller that writes every element: a
    /// shared tensor lets go of its snapshot *without* copying it in, so
    /// the elements read as zero until written.
    pub fn data_overwrite(&mut self) -> &mut [f32] {
        if let Storage::Shared(s) = &self.data {
            self.data = Storage::Owned(vec![0.0; s.len()]);
        }
        self.owned_mut()
    }

    #[inline]
    fn owned_mut(&mut self) -> &mut [f32] {
        match &mut self.data {
            Storage::Owned(v) => v,
            Storage::Shared(_) => unreachable!("made owned by the caller"),
        }
    }

    /// Read `data` in place from now on — a pointer move; whatever
    /// storage the tensor owned is dropped.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the tensor's element count.
    pub fn adopt_shared(&mut self, data: Arc<[f32]>) {
        assert_eq!(data.len(), self.len(), "adopted snapshot length mismatch");
        self.data = Storage::Shared(data);
    }

    /// Consume the tensor, returning its elements (copied out of a
    /// shared snapshot).
    pub fn into_vec(self) -> Vec<f32> {
        match self.data {
            Storage::Owned(v) => v,
            Storage::Shared(s) => s.to_vec(),
        }
    }

    /// Element access by multi-dimensional index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data()[linear_index(&self.shape, idx)]
    }

    /// Mutable element access by multi-dimensional index.
    #[inline]
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let i = linear_index(&self.shape, idx);
        &mut self.data_mut()[i]
    }

    /// Reinterpret the tensor with a new shape of equal element count.
    ///
    /// A single `0` entry is inferred from the remaining dimensions
    /// (like NumPy's `-1`).
    ///
    /// # Panics
    /// Panics if the element counts cannot be made to match.
    pub fn reshape(mut self, mut new_shape: Shape) -> Self {
        let holes = new_shape.iter().filter(|&&d| d == 0).count();
        assert!(holes <= 1, "at most one inferred (0) dimension allowed");
        if holes == 1 {
            let known: usize = new_shape.iter().filter(|&&d| d != 0).product();
            assert!(
                known > 0 && self.len().is_multiple_of(known),
                "cannot infer dimension"
            );
            for d in new_shape.iter_mut() {
                if *d == 0 {
                    *d = self.len() / known;
                }
            }
        }
        assert_eq!(
            numel(&new_shape),
            self.len(),
            "reshape must preserve element count"
        );
        self.shape = new_shape;
        self
    }

    /// Transpose a 2-D tensor (allocates).
    ///
    /// # Panics
    /// Panics if the tensor is not 2-D.
    pub fn transpose2d(&self) -> Self {
        assert_eq!(self.ndim(), 2, "transpose2d requires a matrix");
        let (r, c) = (self.shape[0], self.shape[1]);
        let (src, mut out) = (self.data(), vec![0.0f32; r * c]);
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = src[i * c + j];
            }
        }
        Self::from_vec(vec![c, r], out)
    }

    /// Copy of row `i` of a 2-D tensor as a new 1-D tensor.
    pub fn row(&self, i: usize) -> Self {
        assert_eq!(self.ndim(), 2, "row() requires a matrix");
        let c = self.shape[1];
        Self::from_vec(vec![c], self.data()[i * c..(i + 1) * c].to_vec())
    }

    /// Stack 1-D/row tensors of identical length into a 2-D tensor.
    pub fn stack_rows(rows: &[Tensor]) -> Self {
        assert!(!rows.is_empty(), "cannot stack zero rows");
        let c = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * c);
        for r in rows {
            assert_eq!(r.len(), c, "all stacked rows must have equal length");
            data.extend_from_slice(r.data());
        }
        Self::from_vec(vec![rows.len(), c], data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros(&[2, 2]);
        assert_eq!(z.data(), &[0.0; 4]);
        let o = Tensor::ones(&[3]);
        assert_eq!(o.data(), &[1.0; 3]);
        let f = Tensor::full(&[2], 2.5);
        assert_eq!(f.data(), &[2.5, 2.5]);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn from_vec_len_mismatch_panics() {
        Tensor::from_vec(vec![2, 2], vec![1.0; 3]);
    }

    #[test]
    fn at_and_at_mut() {
        let mut t = Tensor::zeros(&[2, 3]);
        *t.at_mut(&[1, 2]) = 7.0;
        assert_eq!(t.at(&[1, 2]), 7.0);
        assert_eq!(t.data()[5], 7.0);
    }

    #[test]
    fn reshape_with_inferred_dim() {
        let t = Tensor::zeros(&[4, 6]).reshape(vec![2, 0]);
        assert_eq!(t.shape(), &[2, 12]);
        let t = t.reshape(vec![0]);
        assert_eq!(t.shape(), &[24]);
    }

    #[test]
    #[should_panic(expected = "preserve element count")]
    fn reshape_bad_count_panics() {
        Tensor::zeros(&[4]).reshape(vec![3]);
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|x| x as f32).collect());
        let tt = t.transpose2d();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), t.at(&[1, 2]));
        assert_eq!(tt.transpose2d(), t);
    }

    #[test]
    fn randn_is_seed_deterministic() {
        let mut r1 = SmallRng64::new(42);
        let mut r2 = SmallRng64::new(42);
        let a = Tensor::randn(&[16], 1.0, &mut r1);
        let b = Tensor::randn(&[16], 1.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn stack_rows_round_trip() {
        let rows: Vec<Tensor> = (0..3).map(|i| Tensor::full(&[4], i as f32)).collect();
        let m = Tensor::stack_rows(&rows);
        assert_eq!(m.shape(), &[3, 4]);
        for i in 0..3 {
            assert_eq!(m.row(i).data(), Tensor::full(&[4], i as f32).data());
        }
    }
}
