//! A small recycling pool for the buffers that back [`crate::Compressed`]
//! payloads.
//!
//! The push hot path encodes one payload per parameter key per iteration;
//! without recycling that is a fresh heap allocation per key per round on
//! the worker *and* a deallocation on the server once the payload is
//! aggregated. The pool closes that loop: codecs draw output storage from
//! it in [`crate::GradientCompressor::compress_into`], and the server
//! returns the storage with [`crate::Compressed::recycle`] after
//! decoding, so steady-state training performs no payload allocations at
//! all.
//!
//! Cloning a `BufferPool` is cheap and shares the underlying free lists,
//! which is how the server thread and all worker threads exchange
//! buffers. Each free list is capped so a burst of in-flight payloads
//! cannot pin memory forever.

use std::sync::{Arc, Mutex};

/// Maximum number of retained buffers per element type. Generous for the
/// steady state (a few payloads in flight per worker per key) while
/// bounding worst-case retention.
const MAX_PER_KIND: usize = 64;

/// Shared free lists for the vector types payloads are built from.
#[derive(Clone, Debug, Default)]
pub struct BufferPool {
    inner: Arc<Mutex<PoolInner>>,
}

#[derive(Debug, Default)]
struct PoolInner {
    f32s: Vec<Vec<f32>>,
    bytes: Vec<Vec<u8>>,
    i8s: Vec<Vec<i8>>,
    u32s: Vec<Vec<u32>>,
    hits: u64,
    misses: u64,
}

macro_rules! take_put {
    ($take:ident, $put:ident, $field:ident, $t:ty) => {
        /// Take a cleared buffer (empty, but typically with capacity from
        /// an earlier life) or a fresh one if the pool is empty.
        pub fn $take(&self) -> Vec<$t> {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            match inner.$field.pop() {
                Some(mut v) => {
                    inner.hits += 1;
                    v.clear();
                    v
                }
                None => {
                    inner.misses += 1;
                    Vec::new()
                }
            }
        }

        /// Return a buffer to the pool for reuse. Dropped (freed) if the
        /// free list is full.
        pub fn $put(&self, v: Vec<$t>) {
            if v.capacity() == 0 {
                return;
            }
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if inner.$field.len() < MAX_PER_KIND {
                inner.$field.push(v);
            }
        }
    };
}

impl BufferPool {
    /// Fresh pool with empty free lists.
    pub fn new() -> Self {
        Self::default()
    }

    take_put!(take_f32, put_f32, f32s, f32);
    take_put!(take_bytes, put_bytes, bytes, u8);
    take_put!(take_i8, put_i8, i8s, i8);
    take_put!(take_u32, put_u32, u32s, u32);

    /// A buffer of exactly `len` elements with unspecified contents, for
    /// a caller that overwrites every one (a receive landing a payload
    /// straight from a socket). The shortest retired buffer at least
    /// `len` long is sized by truncation alone, so once payloads of each
    /// length circulate no element is written twice; failing that, a
    /// buffer is filled out with zeros.
    pub fn take_f32_len(&self, len: usize) -> Vec<f32> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let fit = (0..inner.f32s.len())
            .filter(|&i| inner.f32s[i].len() >= len)
            .min_by_key(|&i| inner.f32s[i].len());
        let mut v = match fit.or(inner.f32s.len().checked_sub(1)) {
            Some(i) => {
                inner.hits += 1;
                inner.f32s.swap_remove(i)
            }
            None => {
                inner.misses += 1;
                Vec::new()
            }
        };
        drop(inner);
        v.truncate(len);
        v.resize(len, 0.0);
        v
    }

    /// Number of takes served from the free lists.
    pub fn hits(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).hits
    }

    /// Number of takes that had to allocate fresh.
    pub fn misses(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_round_trip_and_keep_capacity() {
        let pool = BufferPool::new();
        let mut v = pool.take_f32();
        assert_eq!(pool.misses(), 1);
        v.extend_from_slice(&[1.0; 100]);
        let cap = v.capacity();
        pool.put_f32(v);
        let v2 = pool.take_f32();
        assert_eq!(pool.hits(), 1);
        assert!(v2.is_empty(), "recycled buffers come back cleared");
        assert_eq!(v2.capacity(), cap, "capacity survives recycling");
    }

    #[test]
    fn a_sized_take_prefers_the_shortest_buffer_long_enough() {
        let pool = BufferPool::new();
        for n in [8, 3, 5] {
            pool.put_f32(vec![n as f32; n]);
        }
        // Truncated, not refilled: the stale values are still there.
        assert_eq!(pool.take_f32_len(4), [5.0; 4]);
        assert_eq!(pool.take_f32_len(8), [8.0; 8]);
        // Nothing long enough: the last buffer, filled out with zeros.
        assert_eq!(pool.take_f32_len(4), [3.0, 3.0, 3.0, 0.0]);
        assert_eq!((pool.hits(), pool.misses()), (3, 0));
        assert_eq!(pool.take_f32_len(2), [0.0; 2]);
        assert_eq!(pool.misses(), 1);
    }

    #[test]
    fn clones_share_the_free_lists() {
        let a = BufferPool::new();
        let b = a.clone();
        a.put_bytes(vec![7u8; 8]);
        let v = b.take_bytes();
        assert_eq!(b.hits(), 1);
        assert!(v.capacity() >= 8);
    }

    #[test]
    fn free_lists_are_capped() {
        let pool = BufferPool::new();
        for _ in 0..(MAX_PER_KIND + 10) {
            pool.put_u32(vec![0u32; 4]);
        }
        let mut reclaimed = 0;
        while pool.take_u32().capacity() > 0 {
            reclaimed += 1;
        }
        assert_eq!(reclaimed, MAX_PER_KIND);
    }

    #[test]
    fn empty_buffers_are_not_retained() {
        let pool = BufferPool::new();
        pool.put_i8(Vec::new());
        assert_eq!(pool.take_i8().capacity(), 0);
        assert_eq!(pool.hits(), 0, "zero-capacity buffers are dropped");
    }
}
