//! Seeded, wall-clock-free pseudo-random stream for fault decisions.
//!
//! Fault schedules must be *replayable*: the same seed and the same op
//! sequence must inject exactly the same faults on every run, so a chaos
//! failure can be rerun under a debugger. A xorshift64* generator
//! (Vigna, "An experimental exploration of Marsaglia's xorshift
//! generators") is tiny, has no global state, and passes the statistical
//! bar this needs — we are sampling Bernoulli fault coins, not doing
//! Monte Carlo integration.

/// xorshift64* PRNG with a splitmix64-style seed scrambler.
#[derive(Clone, Debug)]
pub struct Xorshift64 {
    state: u64,
}

impl Xorshift64 {
    /// Build a generator from a seed. Any seed is fine, including 0
    /// (scrambled to a non-zero state).
    pub fn new(seed: u64) -> Self {
        // splitmix64 finalizer: decorrelates consecutive small seeds so
        // seeds 1, 2, 3... give unrelated fault schedules.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Xorshift64 {
            state: if z == 0 { 0x9e37_79b9_7f4a_7c15 } else { z },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `[0, n)`; returns 0 for `n == 0`.
    pub fn next_index(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Xorshift64::new(42);
        let mut b = Xorshift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xorshift64::new(1);
        let mut b = Xorshift64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "adjacent seeds produced identical draws");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xorshift64::new(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        // Mean of U(0,1) is 0.5; loose 3-sigma-ish band.
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Xorshift64::new(0);
        assert_ne!(r.next_u64(), 0);
        assert_ne!(r.next_u64(), r.next_u64());
    }

    #[test]
    fn index_respects_bound() {
        let mut r = Xorshift64::new(3);
        for _ in 0..1000 {
            assert!(r.next_index(7) < 7);
        }
        assert_eq!(r.next_index(0), 0);
    }
}
