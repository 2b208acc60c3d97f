//! The benchmark's own PRNG: splitmix64, frozen here so that no change to the engine's
//! dependencies can move the generated workloads.

/// Finaliser of splitmix64 (a bijective 64-bit mix).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// splitmix64 (Steele, Lea, Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The generator for independent stream `stream` of workload seed `seed`. Streams
    /// keep the graph, the queries and the deltas from shifting each other.
    pub fn stream(seed: u64, stream: u64) -> Self {
        SplitMix64 {
            state: mix64(seed) ^ mix64(stream.wrapping_add(0x5851_F42D_4C95_7F2D)),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// A uniform integer in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// A uniform float in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_values() {
        // First outputs of splitmix64 seeded with 0 (state starts at the increment).
        let mut r = SplitMix64 { state: 0 };
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = SplitMix64::stream(7, 0);
        for n in [1usize, 2, 3, 1000] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
        for _ in 0..1000 {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn streams_differ() {
        let a = SplitMix64::stream(1, 0).next_u64();
        let b = SplitMix64::stream(1, 1).next_u64();
        let c = SplitMix64::stream(2, 0).next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
