//! Property tests of the static analyses, run as seeded case loops.

mod common;

use cohort_analysis::{guaranteed_hits, theta_saturation, wcl_miss, wcml_snoop, wcml_timed};
use cohort_sim::CacheGeometry;
use cohort_trace::{Trace, TraceOp};
use cohort_types::{Cycles, LatencyConfig, LineAddr, TimerValue};

use common::{for_each_case, kind, timed, SplitMix64};

/// Cases per property.
const CASES: u64 = 256;

/// Up to 150 accesses over 600 lines with compute gaps below 30 cycles.
fn random_trace(rng: &mut SplitMix64) -> Trace {
    (0..rng.below(0, 150))
        .map(|_| {
            let line = LineAddr::new(rng.below(0, 600));
            TraceOp::new(line, kind(rng), Cycles::new(rng.below(0, 30)))
        })
        .collect()
}

/// Two to seven cores, each MSI or timed with θ ≤ 400.
fn random_timers(rng: &mut SplitMix64) -> Vec<TimerValue> {
    (0..rng.below(2, 8))
        .map(|_| if rng.coin() { TimerValue::MSI } else { timed(rng.below(0, 401)) })
        .collect()
}

/// Guaranteed hits are monotone non-decreasing in θ — the assumption
/// the θ_sat binary search and the GA's search-space shape rely on.
#[test]
fn hits_monotone_in_theta() {
    for_each_case(CASES, |rng| {
        let trace = random_trace(rng);
        let penalty = Cycles::new(rng.below(1, 600));
        let l1 = CacheGeometry::paper_l1();
        let mut previous = 0;
        for theta in [1u64, 2, 4, 8, 16, 32, 64, 128, 512, 2048, 65_535] {
            let counts = guaranteed_hits(&trace, timed(theta), &l1, Cycles::new(1), penalty);
            assert!(counts.hits >= previous, "θ={theta}: {} < {previous}", counts.hits);
            assert_eq!(counts.total(), trace.len() as u64);
            previous = counts.hits;
        }
    });
}

/// A larger miss penalty never increases guaranteed hits (the timeline
/// stretches, windows expire sooner relative to accesses).
#[test]
fn hits_antitone_in_penalty() {
    for_each_case(CASES, |rng| {
        let trace = random_trace(rng);
        let t = timed(rng.below(1, 500));
        let l1 = CacheGeometry::paper_l1();
        let mut previous = u64::MAX;
        for penalty in [54u64, 108, 216, 432, 1000] {
            let hits = guaranteed_hits(&trace, t, &l1, Cycles::new(1), Cycles::new(penalty)).hits;
            assert!(hits <= previous, "penalty {penalty}: {hits} > {previous}");
            previous = hits;
        }
    });
}

/// θ_sat is a true minimal fixed point: hits(θ_sat) equals the
/// saturated count and hits(θ_sat − 1) is strictly below it (when
/// θ_sat > 1).
#[test]
fn theta_saturation_is_minimal() {
    for_each_case(CASES, |rng| {
        let trace = random_trace(rng);
        let l1 = CacheGeometry::paper_l1();
        let penalty = Cycles::new(54);
        let sat = theta_saturation(&trace, &l1, Cycles::new(1), penalty);
        assert!((1..=TimerValue::MAX_THETA).contains(&sat));
        let at = |t: u64| guaranteed_hits(&trace, timed(t), &l1, Cycles::new(1), penalty).hits;
        let saturated = at(TimerValue::MAX_THETA);
        assert_eq!(at(sat), saturated);
        if sat > 1 {
            assert!(at(sat - 1) < saturated, "θ_sat {sat} is not minimal");
        }
    });
}

/// Eq. 1 structure: adding a timed interferer increases every other
/// core's bound by exactly θ_j + SW; MSI interferers add nothing to
/// the timer term.
#[test]
fn eq1_is_additive_in_interferer_timers() {
    for_each_case(CASES, |rng| {
        let timers = random_timers(rng);
        let core = rng.below(0, timers.len() as u64) as usize;
        let lat = LatencyConfig::paper();
        let sw = lat.slot_width().get();
        let n = timers.len() as u64;
        let expected: u64 = sw * n
            + timers
                .iter()
                .enumerate()
                .filter(|&(j, t)| j != core && t.is_timed())
                .map(|(_, t)| t.theta().unwrap() + sw)
                .sum::<u64>();
        assert_eq!(wcl_miss(core, &timers, &lat).get(), expected);
    });
}

/// Eq. 2 with zero hits equals Eq. 3; hits only ever tighten it.
#[test]
fn eq2_dominated_by_eq3() {
    for_each_case(CASES, |rng| {
        let (hits, misses) = (rng.below(0, 10_000), rng.below(0, 10_000));
        let wcl = Cycles::new(rng.below(1, 5_000));
        let timed = wcml_timed(hits, misses, Cycles::new(1), wcl);
        let snoop = wcml_snoop(hits + misses, wcl);
        assert!(timed <= snoop);
        assert_eq!(wcml_timed(0, misses, Cycles::new(1), wcl), wcml_snoop(misses, wcl));
    });
}
