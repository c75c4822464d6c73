//! # cdsgd-compress
//!
//! Gradient compression codecs for the CD-SGD reproduction.
//!
//! The centerpiece is [`TwoBitQuantizer`] — a faithful port of MXNet 1.4's
//! 2-bit threshold gradient compression, the compressor that both BIT-SGD
//! and CD-SGD in the paper use: each gradient element (plus the accumulated
//! residual for that slot) is quantized to one of `{-α, 0, +α}` and packed
//! two bits per element; the quantization error stays in a per-key residual
//! buffer until it crosses the threshold (the paper's "delayed update"
//! source, §2.3).
//!
//! Baseline codecs used in the paper's related-work comparisons are also
//! provided: 1-bit sign quantization with error feedback (signSGD/1-bit
//! SGD), QSGD's stochastic uniform quantization, and DGC-style Top-k
//! sparsification.
//!
//! All codecs implement [`GradientCompressor`] and produce a [`Compressed`]
//! payload that knows its exact wire size, so the parameter server can
//! account for bytes actually "transmitted".
//!
//! ```
//! use cdsgd_compress::{GradientCompressor, TwoBitQuantizer, decompress};
//!
//! let mut q = TwoBitQuantizer::new(0.5);
//! let grad = vec![0.9, -0.7, 0.1, 0.0];
//! let c = q.compress(0, &grad);
//! let mut out = vec![0.0; 4];
//! decompress(&c, &mut out);
//! assert_eq!(out, vec![0.5, -0.5, 0.0, 0.0]);
//! ```

mod adaptive;
mod compressed;
mod onebit;
mod packing;
mod pool;
mod qsgd;
mod residual;
mod topk;
mod twobit;

pub use adaptive::AdaptiveTwoBit;
pub use compressed::{
    decompress, decompress_add, decompress_add_block, decompress_block, Compressed,
};
pub use onebit::OneBitQuantizer;
pub use packing::{pack_1bit, pack_1bit_into, pack_2bit, pack_2bit_into, unpack_1bit, unpack_2bit};
pub use pool::BufferPool;
pub use qsgd::QsgdQuantizer;
pub use residual::ResidualStore;
pub use topk::TopKSparsifier;
pub use twobit::TwoBitQuantizer;

/// A stateful gradient compressor.
///
/// Implementations may hold per-key residual (error-feedback) state, so
/// `compress_into` takes `&mut self` and a `key` identifying the parameter
/// tensor (layer) the gradient belongs to.
pub trait GradientCompressor: Send {
    /// Compress one gradient tensor, updating any internal residual state
    /// for `key`. The payload's backing storage is drawn from `pool`
    /// instead of allocated, so steady-state iteration loops run
    /// allocation-free; every byte of it is overwritten, whatever the
    /// recycled buffer held.
    fn compress_into(&mut self, key: usize, grad: &[f32], pool: &BufferPool) -> Compressed;

    /// [`GradientCompressor::compress_into`] with freshly allocated
    /// storage (a throwaway pool) — for one-off calls outside a training
    /// loop.
    fn compress(&mut self, key: usize, grad: &[f32]) -> Compressed {
        self.compress_into(key, grad, &BufferPool::new())
    }

    /// Human-readable codec name (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Exact number of bytes an `n`-element gradient occupies on the wire
    /// (payload + header), for the timing model.
    fn wire_bytes(&self, n: usize) -> usize;

    /// Ratio of compressed to raw (4-byte/element) size; < 1 is smaller.
    fn compression_ratio(&self, n: usize) -> f64 {
        if n == 0 {
            return 1.0;
        }
        self.wire_bytes(n) as f64 / (4 * n) as f64
    }

    /// Snapshot the codec's error-feedback state for a durable checkpoint:
    /// one `(key, residual)` entry per parameter tensor, sorted by key.
    /// Stateless codecs return the default empty vec.
    fn export_state(&self) -> Vec<(usize, Vec<f32>)> {
        Vec::new()
    }

    /// Restore state captured by [`GradientCompressor::export_state`].
    /// No-op for stateless codecs.
    fn import_state(&mut self, entries: &[(usize, Vec<f32>)]) {
        let _ = entries;
    }
}

/// Identity "codec": sends raw f32 gradients. Used for S-SGD/OD-SGD and
/// for CD-SGD's k-step correction iterations.
#[derive(Debug, Default, Clone)]
pub struct NoCompression;

impl GradientCompressor for NoCompression {
    fn compress_into(&mut self, _key: usize, grad: &[f32], pool: &BufferPool) -> Compressed {
        let mut v = pool.take_f32();
        v.extend_from_slice(grad);
        Compressed::Raw(v)
    }

    fn name(&self) -> &'static str {
        "raw"
    }

    fn wire_bytes(&self, n: usize) -> usize {
        4 + 4 * n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_codec_round_trips() {
        let mut c = NoCompression;
        let grad = vec![1.0, -2.0, 3.5];
        let comp = c.compress(0, &grad);
        let mut out = vec![0.0; 3];
        decompress(&comp, &mut out);
        assert_eq!(out, grad);
        // 4-byte length header + 3 f32s; the header makes "raw" slightly
        // larger than the bare tensor bytes.
        assert_eq!(c.wire_bytes(3), 4 + 12);
        assert_eq!(c.compression_ratio(3), 16.0 / 12.0);
    }
}
