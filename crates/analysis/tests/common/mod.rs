//! Seeded case generation for the analysis property tests: each property
//! runs a fixed number of cases drawn from a splitmix64 stream, and a
//! failure names its case seed so it can be replayed alone.

use cohort_trace::AccessKind;
use cohort_types::TimerValue;

pub use cohort_types::SplitMix64;

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

/// A load or a store, by a fair coin.
pub fn kind(rng: &mut SplitMix64) -> AccessKind {
    if rng.coin() {
        AccessKind::Store
    } else {
        AccessKind::Load
    }
}

/// Shorthand for a valid timed θ.
pub fn timed(theta: u64) -> TimerValue {
    TimerValue::timed(theta).unwrap()
}
