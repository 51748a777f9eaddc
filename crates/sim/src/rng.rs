//! Deterministic pseudo-random number generation.
//!
//! Every stochastic decision in the reproduction (topology generation,
//! packet loss, protocol jitter, workload destinations) draws from a
//! [`SimRng`] seeded at experiment start, so runs are bit-reproducible.
//!
//! The generator is xoshiro256** (Blackman & Vigna), implemented from
//! scratch to avoid depending on any external RNG's stream stability.
//! Seeding uses SplitMix64 as recommended by the xoshiro authors.

/// A deterministic xoshiro256** PRNG.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

/// One SplitMix64 round as a stateless mixer: a high-quality 64-bit
/// hash for *order-free* stochastic decisions (e.g. per-hop packet loss
/// keyed by packet identity instead of drawn from a stream, so the
/// outcome does not depend on the order in which the engine evaluates
/// hops).
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut state = x;
    splitmix64(&mut state)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state; splitmix64 of any
        // seed cannot produce four zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Derive an independent child stream (used to give each node its own
    /// RNG without correlating with the parent's future draws).
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let mixed = self.next_u64() ^ salt.wrapping_mul(0xA076_1D64_78BD_642F);
        SimRng::new(mixed)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next 32-bit output (upper bits of the 64-bit stream).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method. `bound` must be non-zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be > 0");
        // Rejection sampling to remove modulo bias.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let (hi, lo) = {
                let wide = (r as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Uniform usize in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to \[0,1\]).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed value with the given mean (for Poisson
    /// inter-arrival workloads).
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Avoid ln(0).
        let u = 1.0 - self.f64();
        -mean * u.ln()
    }

    /// Choose a random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "choose from empty slice");
        &xs[self.index(xs.len())]
    }

    /// In-place Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices out of `[0, n)` (floyd's algorithm for
    /// small k, shuffle for large k). Result order is unspecified but
    /// deterministic.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        if k * 4 >= n {
            let mut all: Vec<usize> = (0..n).collect();
            self.shuffle(&mut all);
            all.truncate(k);
            return all;
        }
        let mut chosen = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.index(j + 1);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_for_seed() {
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
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut r = SimRng::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(r.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut r = SimRng::new(9);
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            seen.insert(r.gen_range(7));
        }
        assert_eq!(seen.len(), 7);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(11);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_roughly_half() {
        let mut r = SimRng::new(13);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn exp_mean() {
        let mut r = SimRng::new(17);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(19);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = SimRng::new(23);
        for (n, k) in [(100, 5), (10, 10), (10, 20), (1000, 100)] {
            let s = r.sample_indices(n, k);
            assert_eq!(s.len(), k.min(n));
            let set: HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), s.len(), "duplicates in sample");
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SimRng::new(31);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(37);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
