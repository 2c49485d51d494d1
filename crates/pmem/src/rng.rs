//! The workspace's seeded pseudo-random generator.
//!
//! One xorshift64* (shifts 12/25/27, Vigna's multiplier) serves the seeded
//! crash adversary ([`crate::SeededAdversary`]), the timed workloads, and
//! the tests and examples that draw random keys: small, deterministic and
//! free of dependencies. Its stream is part of every seeded crash
//! resolution, so it must never change.

/// xorshift64* over a raw 64-bit state. A zero state is a fixed point and
/// yields only zeros; seed with a non-zero value.
#[derive(Clone, Debug)]
pub struct Rng(pub u64);

impl Rng {
    /// Advances the state and returns the next pseudo-random `u64`.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}
