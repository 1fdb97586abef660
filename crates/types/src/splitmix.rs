//! splitmix64: the one seeded-stream primitive of the workspace. Fault
//! plans, chaos-disk fault streams, certification trials and the GA's
//! per-generation RNG streams draw through [`mix`]; seeded test-case
//! loops draw through [`SplitMix64`]. No ambient RNG anywhere.

/// The golden-ratio increment of splitmix64.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 output finalizer.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The splitmix64 finalizer over `seed ^ stream·γ`: a statistically
/// independent draw per `(seed, stream)` pair, random-access (stream `k`
/// needs no draws before it).
///
/// # Examples
///
/// ```
/// use cohort_types::mix;
///
/// assert_ne!(mix(1, 0), mix(1, 1));
/// assert_eq!(mix(7, 3), mix(7, 3));
/// ```
#[must_use]
pub fn mix(seed: u64, stream: u64) -> u64 {
    finalize(seed ^ stream.wrapping_mul(GAMMA))
}

/// The sequential splitmix64 generator: one stream per seed, for seeded
/// case loops whose failures name the seed that replays them.
///
/// # Examples
///
/// ```
/// use cohort_types::SplitMix64;
///
/// let mut rng = SplitMix64::new(0);
/// assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
/// assert!((10..20).contains(&rng.below(10, 20)));
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed`.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        finalize(self.0)
    }

    /// A draw in `lo..hi` (modulo reduction: a negligible bias for the
    /// small spans test cases draw from).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn below(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_and_the_sequential_stream_share_one_finalizer() {
        // The k-th sequential draw finalizes seed + k·γ; mix finalizes
        // seed ^ k·γ, so the two agree wherever + and ^ do.
        assert_eq!(mix(GAMMA, 0), SplitMix64::new(0).next_u64());
        assert_eq!(mix(0, 0), 0);
        assert_eq!(mix(0, 1), 0xe220_a839_7b1d_cdaf);
    }
}
