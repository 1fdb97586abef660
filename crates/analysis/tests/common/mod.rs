//! Seeded case generation for the analysis property tests: each property
//! runs a fixed number of cases drawn from a splitmix64 stream, and a
//! failure names its case seed so it can be replayed alone.

use cohort_trace::AccessKind;
use cohort_types::TimerValue;

/// splitmix64: one independent stream per case seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `lo..hi`.
    pub fn below(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    pub fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    pub fn kind(&mut self) -> AccessKind {
        if self.coin() {
            AccessKind::Store
        } else {
            AccessKind::Load
        }
    }
}

/// Runs `property` on `cases` seeded streams, naming the failing seed.
pub fn for_each_case(cases: u64, property: impl Fn(&mut SplitMix64)) {
    for seed in 0..cases {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut SplitMix64::new(seed));
        }));
        if let Err(panic) = outcome {
            eprintln!("property failed for case seed {seed}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// Shorthand for a valid timed θ.
pub fn timed(theta: u64) -> TimerValue {
    TimerValue::timed(theta).unwrap()
}
