//! The [`Compressed`] wire payload and its decoders.

use crate::pool::BufferPool;
use cdsgd_tensor::kernel;

/// A compressed gradient as it would travel over the network.
///
/// Every variant carries enough information to decode without external
/// state, and [`Compressed::wire_bytes`] reports the exact size a real
/// implementation would transmit (payload + minimal header), which the
/// timing substrate uses for communication-cost accounting.
#[derive(Clone, Debug, PartialEq)]
pub enum Compressed {
    /// Uncompressed f32 payload (S-SGD pushes and CD-SGD correction steps).
    Raw(Vec<f32>),
    /// MXNet-style 2-bit threshold quantization: symbols decode to
    /// `{0, +threshold, -threshold}`.
    TwoBit {
        threshold: f32,
        packed: Vec<u8>,
        len: usize,
    },
    /// 1-bit sign quantization with a shared magnitude (signSGD w/ scale).
    OneBit {
        scale: f32,
        signs: Vec<u8>,
        len: usize,
    },
    /// QSGD stochastic uniform quantization: per-element signed level in
    /// `[-levels, +levels]`, decoded as `norm * level / levels`.
    Qsgd {
        norm: f32,
        levels: u8,
        codes: Vec<i8>,
        len: usize,
    },
    /// Top-k sparsification: explicit (index, value) pairs.
    TopK {
        indices: Vec<u32>,
        values: Vec<f32>,
        len: usize,
    },
}

impl Compressed {
    /// Number of f32 elements the payload decodes to.
    pub fn len(&self) -> usize {
        match self {
            Compressed::Raw(v) => v.len(),
            Compressed::TwoBit { len, .. }
            | Compressed::OneBit { len, .. }
            | Compressed::Qsgd { len, .. }
            | Compressed::TopK { len, .. } => *len,
        }
    }

    /// True if the payload decodes to zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact bytes this payload occupies on the wire: a uniform 4-byte
    /// element-count header on every variant, plus the variant's scalar
    /// fields and payload bytes. Keeping the header accounting identical
    /// across variants makes cross-codec traffic numbers directly
    /// comparable (previously `Raw` and `TopK` omitted it while the
    /// quantizers implicitly folded it into their scalar field).
    pub fn wire_bytes(&self) -> usize {
        4 + match self {
            Compressed::Raw(v) => 4 * v.len(),
            // threshold (4) + packed bytes
            Compressed::TwoBit { packed, .. } => 4 + packed.len(),
            // scale (4) + sign bits
            Compressed::OneBit { signs, .. } => 4 + signs.len(),
            // norm (4) + levels (1) + fixed-width codes. Real QSGD uses
            // Elias coding; fixed ceil(log2(2L+1))-bit codes are a
            // conservative stand-in.
            Compressed::Qsgd { levels, len, .. } => {
                let bits = (2 * *levels as usize + 1)
                    .next_power_of_two()
                    .trailing_zeros() as usize;
                4 + 1 + (len * bits).div_ceil(8)
            }
            // (u32 index + f32 value) per retained element
            Compressed::TopK { indices, .. } => 8 * indices.len(),
        }
    }

    /// True for payloads that carry per-element codes smaller than f32.
    pub fn is_compressed(&self) -> bool {
        !matches!(self, Compressed::Raw(_))
    }

    /// Return the payload's backing storage to `pool` for reuse by a
    /// later [`crate::GradientCompressor::compress_into`] call. The
    /// server calls this after aggregating a payload, closing the
    /// worker→server→worker buffer loop.
    pub fn recycle(self, pool: &BufferPool) {
        match self {
            Compressed::Raw(v) => pool.put_f32(v),
            Compressed::TwoBit { packed, .. } => pool.put_bytes(packed),
            Compressed::OneBit { signs, .. } => pool.put_bytes(signs),
            Compressed::Qsgd { codes, .. } => pool.put_i8(codes),
            Compressed::TopK {
                indices, values, ..
            } => {
                pool.put_u32(indices);
                pool.put_f32(values);
            }
        }
    }
}

/// Decode a payload into `out`, overwriting it: the bits of
/// `out.fill(0.0)` followed by [`decompress_add`] (so `0.0 + x`, signed
/// zeros included), which the dense variants reach in one pass without
/// reading `out`. [`decompress_block`] at offset 0.
///
/// # Panics
/// Panics if `out.len()` differs from the encoded length.
pub fn decompress(c: &Compressed, out: &mut [f32]) {
    assert_eq!(out.len(), c.len(), "decode buffer length mismatch");
    decompress_block(c, 0, out);
}

/// Decode a payload into `out`, *adding* to the existing contents.
/// [`decompress_add_block`] at offset 0.
///
/// # Panics
/// Panics if `out.len()` differs from the encoded length.
pub fn decompress_add(c: &Compressed, out: &mut [f32]) {
    assert_eq!(out.len(), c.len(), "decode buffer length mismatch");
    decompress_add_block(c, 0, out);
}

/// Decode elements `at..at + out.len()` of a payload into `out`,
/// overwriting it, with the bits [`decompress`] leaves there. The server
/// stores a round's first payload this way, one block at a time, and adds
/// the rest.
///
/// # Panics
/// Panics if the block runs past the encoded length, or if `at` does not
/// start on a packed byte (a multiple of 4 for 2-bit, of 8 for 1-bit).
pub fn decompress_block(c: &Compressed, at: usize, out: &mut [f32]) {
    check_block(c, at, out.len());
    match c {
        Compressed::Raw(v) => kernel::zero_add(out, &v[at..at + out.len()]),
        Compressed::TwoBit {
            threshold, packed, ..
        } => kernel::unpack_2bit_store(&packed[at / 4..], *threshold, out),
        Compressed::OneBit { scale, signs, .. } => {
            kernel::unpack_1bit_store(&signs[at / 8..], *scale, out)
        }
        Compressed::Qsgd { .. } | Compressed::TopK { .. } => {
            out.fill(0.0);
            decompress_add_block(c, at, out);
        }
    }
}

/// Decode elements `at..at + out.len()` of a payload into `out`,
/// *adding* to the existing contents: per element exactly what
/// [`decompress_add`] does there. A Top-k payload's indices must ascend
/// strictly (what `TopKSparsifier` emits and the wire decoder checks):
/// the block's first pair is found by binary search and the pairs are
/// walked from there until one falls past the block.
///
/// # Panics
/// As [`decompress_block`].
pub fn decompress_add_block(c: &Compressed, at: usize, out: &mut [f32]) {
    check_block(c, at, out.len());
    let end = at + out.len();
    match c {
        Compressed::Raw(v) => kernel::add_assign(out, &v[at..end]),
        Compressed::TwoBit {
            threshold, packed, ..
        } => kernel::unpack_2bit_add(&packed[at / 4..], *threshold, out),
        Compressed::OneBit { scale, signs, .. } => {
            kernel::unpack_1bit_add(&signs[at / 8..], *scale, out)
        }
        Compressed::Qsgd {
            norm,
            levels,
            codes,
            ..
        } => {
            let inv = norm / *levels as f32;
            for (o, &c) in out.iter_mut().zip(&codes[at..end]) {
                *o += c as f32 * inv;
            }
        }
        Compressed::TopK {
            indices, values, ..
        } => {
            let from = indices.partition_point(|&i| (i as usize) < at);
            for (&i, &v) in indices[from..].iter().zip(&values[from..]) {
                if i as usize >= end {
                    break;
                }
                out[i as usize - at] += v;
            }
        }
    }
}

/// The block contract of [`decompress_block`] and
/// [`decompress_add_block`].
fn check_block(c: &Compressed, at: usize, n: usize) {
    assert!(
        at.checked_add(n).is_some_and(|end| end <= c.len()),
        "decode block {at}+{n} runs past the payload's {} elements",
        c.len()
    );
    let align = match c {
        Compressed::TwoBit { .. } => 4,
        Compressed::OneBit { .. } => 8,
        _ => 1,
    };
    assert!(
        at.is_multiple_of(align),
        "decode block at {at} does not start on a packed byte"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packing::{pack_1bit, pack_2bit};

    #[test]
    fn raw_wire_bytes() {
        assert_eq!(Compressed::Raw(vec![0.0; 10]).wire_bytes(), 4 + 40);
    }

    #[test]
    fn two_bit_wire_bytes_are_sixteenth_plus_header() {
        let c = Compressed::TwoBit {
            threshold: 0.5,
            packed: vec![0; 256],
            len: 1024,
        };
        assert_eq!(c.wire_bytes(), 4 + 4 + 256);
        // 1024 f32 = 4096 raw bytes -> 264 compressed, ~15.5x smaller.
        assert!((c.wire_bytes() as f64) < 4096.0 / 15.0);
    }

    #[test]
    fn wire_byte_accounting_is_uniform_across_variants() {
        // Every variant pays the same 4-byte length header; the pinned
        // totals below are the contract the traffic counters rely on.
        let n = 64usize;
        assert_eq!(Compressed::Raw(vec![0.0; n]).wire_bytes(), 4 + 4 * n); // 260
        let packed = vec![0u8; n.div_ceil(4)];
        assert_eq!(
            Compressed::TwoBit {
                threshold: 0.5,
                packed,
                len: n
            }
            .wire_bytes(),
            4 + 4 + 16 // 24
        );
        assert_eq!(
            Compressed::OneBit {
                scale: 1.0,
                signs: vec![0u8; n.div_ceil(8)],
                len: n
            }
            .wire_bytes(),
            4 + 4 + 8 // 16
        );
        // levels = 4 -> 9 symbols -> 4 bits/code.
        assert_eq!(
            Compressed::Qsgd {
                norm: 1.0,
                levels: 4,
                codes: vec![0i8; n],
                len: n
            }
            .wire_bytes(),
            4 + 4 + 1 + 32 // 41
        );
        assert_eq!(
            Compressed::TopK {
                indices: vec![0, 1],
                values: vec![1.0, 2.0],
                len: n
            }
            .wire_bytes(),
            4 + 16 // 20
        );
    }

    #[test]
    fn recycle_feeds_the_pool() {
        let pool = BufferPool::new();
        Compressed::Raw(vec![1.0; 8]).recycle(&pool);
        Compressed::TwoBit {
            threshold: 0.5,
            packed: vec![0; 2],
            len: 8,
        }
        .recycle(&pool);
        Compressed::Qsgd {
            norm: 1.0,
            levels: 4,
            codes: vec![0; 8],
            len: 8,
        }
        .recycle(&pool);
        Compressed::TopK {
            indices: vec![0],
            values: vec![1.0],
            len: 8,
        }
        .recycle(&pool);
        // Two f32 buffers were returned (Raw payload and TopK values).
        let caps = [pool.take_f32().capacity(), pool.take_f32().capacity()];
        assert!(caps.iter().any(|&c| c >= 8), "caps {caps:?}");
        assert!(caps.iter().all(|&c| c >= 1), "caps {caps:?}");
        assert!(pool.take_bytes().capacity() >= 2);
        assert!(pool.take_i8().capacity() >= 8);
        assert!(pool.take_u32().capacity() >= 1);
    }

    #[test]
    fn decompress_two_bit_symbols() {
        let packed = pack_2bit(&[1, 2, 0, 1]);
        let c = Compressed::TwoBit {
            threshold: 0.25,
            packed,
            len: 4,
        };
        let mut out = vec![9.0; 4];
        decompress(&c, &mut out);
        assert_eq!(out, vec![0.25, -0.25, 0.0, 0.25]);
    }

    #[test]
    fn decompress_add_accumulates() {
        let packed = pack_2bit(&[1, 1]);
        let c = Compressed::TwoBit {
            threshold: 1.0,
            packed,
            len: 2,
        };
        let mut out = vec![0.5, -0.5];
        decompress_add(&c, &mut out);
        assert_eq!(out, vec![1.5, 0.5]);
    }

    #[test]
    fn decompress_one_bit() {
        let signs = pack_1bit(&[true, false, true]);
        let c = Compressed::OneBit {
            scale: 2.0,
            signs,
            len: 3,
        };
        let mut out = vec![0.0; 3];
        decompress(&c, &mut out);
        assert_eq!(out, vec![2.0, -2.0, 2.0]);
    }

    #[test]
    fn decompress_qsgd_codes() {
        let c = Compressed::Qsgd {
            norm: 4.0,
            levels: 4,
            codes: vec![4, -2, 0],
            len: 3,
        };
        let mut out = vec![0.0; 3];
        decompress(&c, &mut out);
        assert_eq!(out, vec![4.0, -2.0, 0.0]);
    }

    #[test]
    fn decompress_topk_scatter() {
        let c = Compressed::TopK {
            indices: vec![3, 0],
            values: vec![1.5, -2.5],
            len: 5,
        };
        let mut out = vec![0.0; 5];
        decompress(&c, &mut out);
        assert_eq!(out, vec![-2.5, 0.0, 0.0, 1.5, 0.0]);
        assert_eq!(c.wire_bytes(), 4 + 16);
    }

    #[test]
    fn blocks_decode_what_the_whole_payload_decodes() {
        // 19 elements in blocks of 8 (a packed-byte boundary for every
        // codec), stored then added, against the whole-payload forms.
        let n = 19;
        let symbols: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
        let signs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let payloads = [
            Compressed::Raw((0..n).map(|i| i as f32 - 9.5).collect()),
            Compressed::TwoBit {
                threshold: 0.5,
                packed: pack_2bit(&symbols),
                len: n,
            },
            Compressed::OneBit {
                scale: 2.0,
                signs: pack_1bit(&signs),
                len: n,
            },
            Compressed::Qsgd {
                norm: 3.0,
                levels: 4,
                codes: (0..n).map(|i| (i % 9) as i8 - 4).collect(),
                len: n,
            },
            Compressed::TopK {
                indices: vec![0, 7, 8, 15, 18],
                values: vec![1.0, -2.0, 3.0, -0.0, 5.0],
                len: n,
            },
        ];
        for c in &payloads {
            let mut whole = vec![0.0; n];
            decompress(c, &mut whole);
            decompress_add(c, &mut whole);
            let mut blocks = vec![f32::NAN; n];
            for (b, out) in blocks.chunks_mut(8).enumerate() {
                decompress_block(c, 8 * b, out);
                decompress_add_block(c, 8 * b, out);
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&blocks), bits(&whole), "{c:?}");
        }
    }

    #[test]
    #[should_panic(expected = "packed byte")]
    fn a_block_inside_a_packed_byte_panics() {
        let c = Compressed::TwoBit {
            threshold: 1.0,
            packed: vec![0; 2],
            len: 8,
        };
        decompress_block(&c, 2, &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_out_len_panics() {
        let c = Compressed::Raw(vec![1.0]);
        let mut out = vec![0.0; 2];
        decompress(&c, &mut out);
    }
}
