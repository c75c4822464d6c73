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
//! which is how the parameter server and all worker threads exchange
//! buffers. Each free list is capped so a burst of in-flight payloads
//! cannot pin memory forever: at what two aggregate rounds can hold
//! ([`BufferPool::for_round`]), and at no fewer than 64 buffers.

use std::sync::{Arc, Mutex, MutexGuard};

/// Buffers retained per element type by a pool that knows nothing of its
/// rounds, and the least a round-sized one retains: a few payloads in
/// flight per worker per key of a small model.
const MIN_PER_KIND: usize = 64;

/// Shared free lists for the vector types payloads are built from.
#[derive(Clone, Debug, Default)]
pub struct BufferPool {
    inner: Arc<Mutex<PoolInner>>,
}

#[derive(Debug)]
struct PoolInner {
    f32s: Vec<Vec<f32>>,
    bytes: Vec<Vec<u8>>,
    i8s: Vec<Vec<i8>>,
    u32s: Vec<Vec<u32>>,
    hits: u64,
    misses: u64,
    /// Buffers retained per element type.
    cap: usize,
}

impl Default for PoolInner {
    fn default() -> Self {
        Self {
            f32s: Vec::new(),
            bytes: Vec::new(),
            i8s: Vec::new(),
            u32s: Vec::new(),
            hits: 0,
            misses: 0,
            cap: MIN_PER_KIND,
        }
    }
}

macro_rules! take_put {
    ($take:ident, $put:ident, $field:ident, $t:ty) => {
        /// Take a cleared buffer (empty, but typically with capacity from
        /// an earlier life) or a fresh one if the pool is empty.
        pub fn $take(&self) -> Vec<$t> {
            let mut inner = self.lock();
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
            let mut inner = self.lock();
            if inner.$field.len() < inner.cap {
                inner.$field.push(v);
            }
        }
    };
}

impl BufferPool {
    /// Fresh pool with empty free lists, retaining 64 buffers per element
    /// type.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh pool for a server whose rounds carry `payloads` pushes
    /// (keys × workers): each free list retains two rounds of them —
    /// the round being aggregated and the next, which workers encode
    /// before the first is recycled when they do not wait for its pull
    /// — and never fewer than 64. A many-key model then recycles every
    /// payload instead of dropping those past a fixed cap and allocating
    /// them again the next round.
    pub fn for_round(payloads: usize) -> Self {
        let pool = Self::default();
        pool.lock().cap = (2 * payloads).max(MIN_PER_KIND);
        pool
    }

    fn lock(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
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
        let mut inner = self.lock();
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
        self.lock().hits
    }

    /// Number of takes that had to allocate fresh.
    pub fn misses(&self) -> u64 {
        self.lock().misses
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
        for _ in 0..(MIN_PER_KIND + 10) {
            pool.put_u32(vec![0u32; 4]);
        }
        let mut reclaimed = 0;
        while pool.take_u32().capacity() > 0 {
            reclaimed += 1;
        }
        assert_eq!(reclaimed, MIN_PER_KIND);
    }

    #[test]
    fn a_round_sized_pool_retains_two_rounds_and_never_less_than_the_floor() {
        for (payloads, retained) in [(200, 400), (12, MIN_PER_KIND)] {
            let pool = BufferPool::for_round(payloads);
            for _ in 0..2 * payloads + MIN_PER_KIND {
                pool.put_bytes(vec![0u8; 4]);
            }
            let mut reclaimed = 0;
            while pool.take_bytes().capacity() > 0 {
                reclaimed += 1;
            }
            assert_eq!(reclaimed, retained, "for_round({payloads})");
        }
    }

    #[test]
    fn empty_buffers_are_not_retained() {
        let pool = BufferPool::new();
        pool.put_i8(Vec::new());
        assert_eq!(pool.take_i8().capacity(), 0);
        assert_eq!(pool.hits(), 0, "zero-capacity buffers are dropped");
    }
}
