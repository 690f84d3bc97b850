//! Deterministic random number generation for simulations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random source shared by all stochastic simulation components
/// (arrival processes, embedding index sampling, weight init).
///
/// Wrapping [`StdRng`] in a named type keeps the crate's public API free of
/// `rand` version details and centralizes the distributions the simulator
/// needs (uniform, exponential).
///
/// # Examples
///
/// ```
/// use er_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    /// The seed this generator was built from, retained so substreams can
    /// be derived by pure key mixing rather than by drawing from the
    /// stream (see [`SimRng::substream`]).
    base_seed: u64,
}

/// One round of the SplitMix64 output mix: a full-avalanche bijection on
/// `u64`, so distinct inputs always map to distinct outputs.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
            base_seed: seed,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Uniform value in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "invalid range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample from an empty range");
        self.inner.gen_range(0..n)
    }

    /// Exponentially distributed value with the given rate (events/sec):
    /// the inter-arrival time of a Poisson process.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "rate must be positive, got {rate}"
        );
        // Inverse-CDF sampling; 1-u avoids ln(0).
        let u: f64 = self.inner.gen();
        -(1.0 - u).ln() / rate
    }

    /// Jump-ahead substream `stream`: an independent generator derived
    /// purely from `(base seed, stream)` by SplitMix64 key mixing.
    ///
    /// This draws nothing from the parent, so:
    ///
    /// - substream `i` is identical no matter how many draws the parent
    ///   has made, and
    /// - substream `i` is identical no matter how many *other* substreams
    ///   exist.
    ///
    /// A caller can therefore hand each component (a table, a scenario)
    /// its own fixed stream index and add or reorder components without
    /// perturbing the others. Two rounds of the SplitMix64 bijection
    /// decorrelate adjacent stream indices.
    pub fn substream(&self, stream: u64) -> SimRng {
        let key = splitmix64(self.base_seed ^ splitmix64(stream));
        SimRng::seed_from(splitmix64(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_range_respects_bounds() {
        let mut r = SimRng::seed_from(4);
        for _ in 0..1000 {
            let v = r.uniform_range(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn index_covers_domain() {
        let mut r = SimRng::seed_from(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = SimRng::seed_from(6);
        let rate = 50.0;
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.002, "mean={mean}");
    }

    #[test]
    fn substream_is_independent_of_parent_position() {
        // Drawing from the parent must not shift any substream: the
        // substream is a pure function of (base seed, stream index).
        let fresh = SimRng::seed_from(11);
        let mut drained = SimRng::seed_from(11);
        for _ in 0..1000 {
            drained.next_u64();
        }
        for stream in [0u64, 1, 7, u64::MAX] {
            let mut a = fresh.substream(stream);
            let mut b = drained.substream(stream);
            for _ in 0..64 {
                assert_eq!(a.next_u64(), b.next_u64(), "stream {stream} shifted");
            }
        }
    }

    #[test]
    fn substream_is_invariant_under_shard_count() {
        // Building 2 substreams vs 64 substreams must hand stream k the
        // exact same draw sequence: the number of streams never perturbs
        // one of them.
        let root = SimRng::seed_from(0xE1A5);
        let few: Vec<SimRng> = (0..2).map(|s| root.substream(s)).collect();
        let many: Vec<SimRng> = (0..64).map(|s| root.substream(s)).collect();
        for (k, (mut a, mut b)) in few.into_iter().zip(many).enumerate() {
            for _ in 0..128 {
                assert_eq!(a.next_u64(), b.next_u64(), "stream {k} diverged");
            }
        }
    }

    #[test]
    fn substreams_are_mutually_decorrelated() {
        // Adjacent stream indices (the worst case for weak mixing) share
        // essentially no draws over a long prefix.
        let root = SimRng::seed_from(42);
        let mut a = root.substream(0);
        let mut b = root.substream(1);
        let mut c = root.substream(2);
        let mut collisions = 0;
        for _ in 0..10_000 {
            let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
            if x == y || y == z || x == z {
                collisions += 1;
            }
        }
        assert_eq!(collisions, 0, "adjacent substreams collide");
    }

    #[test]
    fn substream_differs_from_parent_stream() {
        let root = SimRng::seed_from(5);
        let mut parent = root.clone();
        let mut sub = root.substream(0);
        let same = (0..64)
            .filter(|_| parent.next_u64() == sub.next_u64())
            .count();
        assert!(same < 4);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn zero_index_panics() {
        SimRng::seed_from(0).index(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_rate_panics() {
        SimRng::seed_from(0).exponential(0.0);
    }
}
