//! Seeded random number generation and weight-initialization helpers.
//!
//! We use a tiny splitmix64/xoshiro-style generator rather than threading
//! `rand`'s trait machinery through every math kernel: experiments must be
//! bit-reproducible across runs and across the 2/4/8-worker configurations,
//! and a self-contained u64 state makes per-worker seeding trivial.
//! (`rand` is still used at the API edges — dataset shuffling — where trait
//! compatibility matters.)

/// A small, fast, seedable PRNG (xorshift64* core with splitmix64 seeding).
///
/// Statistically good enough for weight init and synthetic data; *not*
/// cryptographic.
#[derive(Clone, Debug)]
pub struct SmallRng64 {
    state: u64,
    /// Cached second output of the Box-Muller transform.
    spare_gauss: Option<f32>,
}

impl SmallRng64 {
    /// Create a generator from a seed. Distinct seeds (including 0) give
    /// distinct, well-mixed streams.
    pub fn new(seed: u64) -> Self {
        // splitmix64 step so that small/sequential seeds diverge immediately.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self {
            state: z | 1,
            spare_gauss: None,
        }
    }

    /// Derive an independent child generator (e.g. one per worker).
    pub fn fork(&mut self, stream: u64) -> Self {
        let base = self.next_u64();
        Self::new(base ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next raw 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn unit_f32(&mut self) -> f32 {
        // Use the top 24 bits for a uniformly spaced mantissa.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal sample via Box-Muller (with spare caching).
    pub fn gauss(&mut self) -> f32 {
        if let Some(g) = self.spare_gauss.take() {
            return g;
        }
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.unit_f32().max(1e-12);
        let u2 = self.unit_f32();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_gauss = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

/// Xavier/Glorot initialization standard deviation for a layer with the
/// given fan-in and fan-out.
pub fn xavier_std(fan_in: usize, fan_out: usize) -> f32 {
    (2.0 / (fan_in + fan_out) as f32).sqrt()
}

/// He/Kaiming initialization standard deviation (ReLU networks).
pub fn he_std(fan_in: usize) -> f32 {
    (2.0 / fan_in as f32).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SmallRng64::new(7);
        let mut b = SmallRng64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng64::new(1);
        let mut b = SmallRng64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_diverge_from_parent() {
        let mut parent = SmallRng64::new(3);
        let mut child = parent.fork(0);
        let mut child2 = parent.fork(1);
        let c1: Vec<u64> = (0..16).map(|_| child.next_u64()).collect();
        let c2: Vec<u64> = (0..16).map(|_| child2.next_u64()).collect();
        assert_ne!(c1, c2);
    }

    #[test]
    fn unit_f32_in_range() {
        let mut r = SmallRng64::new(11);
        for _ in 0..10_000 {
            let u = r.unit_f32();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gauss_moments_roughly_standard() {
        let mut r = SmallRng64::new(13);
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| r.gauss()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn below_covers_all_buckets() {
        let mut r = SmallRng64::new(5);
        let mut seen = [0usize; 10];
        for _ in 0..10_000 {
            seen[r.below(10)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 500), "buckets {seen:?}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SmallRng64::new(17);
        let mut xs: Vec<usize> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "astronomically unlikely identity"
        );
    }

    #[test]
    fn init_stds() {
        assert!((xavier_std(100, 100) - 0.1).abs() < 1e-6);
        assert!((he_std(200) - 0.1).abs() < 1e-6);
    }
}
