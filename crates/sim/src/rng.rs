//! Deterministic pseudo-random number generation.
//!
//! Workload generation and duration jitter must be exactly reproducible across
//! runs and platforms so the benchmark harness regenerates identical tables.
//! [`SimRng`] is a small, allocation-free xoshiro256**-style generator seeded
//! with SplitMix64 — enough statistical quality for workload synthesis without
//! pulling the full `rand` stack into every crate.

/// A deterministic xoshiro256** pseudo-random number generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. Returns 0 for `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            // Lemire-style bounded generation without modulo bias for practical purposes.
            let x = self.next_u64();
            ((x as u128 * bound as u128) >> 64) as u64
        }
    }

    /// Uniform value in `[lo, hi)`. Requires `lo < hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "range requires lo < hi");
        lo + self.next_below(hi - lo)
    }

    /// Uniform floating-point value in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform floating-point value in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Approximately normally-distributed value (mean 0, std 1) via the
    /// sum-of-uniforms method (Irwin–Hall with 12 terms). Plenty for duration
    /// jitter.
    pub fn gaussian(&mut self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..12 {
            acc += self.next_f64();
        }
        acc - 6.0
    }

    /// Returns `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        let n = slice.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn bounded_values_stay_in_range() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            let v = r.next_below(13);
            assert!(v < 13);
            let w = r.range(5, 9);
            assert!((5..9).contains(&w));
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            let u = r.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&u));
        }
        assert_eq!(r.next_below(0), 0);
    }

    #[test]
    fn bounded_values_cover_the_range_roughly_uniformly() {
        let mut r = SimRng::new(123);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[r.next_below(8) as usize] += 1;
        }
        for &c in &counts {
            // Expect 10_000 each; allow generous 15% slack.
            assert!((8_500..11_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn gaussian_has_reasonable_moments() {
        let mut r = SimRng::new(99);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = r.gaussian();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(11);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let expected: Vec<u32> = (0..100).collect();
        assert_eq!(sorted, expected);
        assert_ne!(
            v, expected,
            "shuffle should change order (overwhelmingly likely)"
        );
    }
}
