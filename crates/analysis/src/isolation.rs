//! In-isolation static cache analysis: guaranteed hits under a timer.
//!
//! The optimization engine (§V) needs the Θ → M_hit relationship, which
//! depends on the application's memory behaviour and is therefore computed
//! by walking the task's trace against a model of its private cache. The
//! key soundness argument (from PENDULUM\* [17]): with a timer θ, a line
//! fetched at time `t` cannot be stolen before `t + θ` no matter what the
//! co-runners do, because the countdown counter's first expiry is θ cycles
//! after Load. The analysis therefore trusts a line only inside the window
//! `[fill, fill + θ)` and assumes an adversary steals it at the first
//! expiry; every hit it counts is a hit in *any* concurrent execution.
//!
//! Virtual time advances by the hit latency for guaranteed hits and by a
//! caller-provided `miss_penalty` (the core's per-request WCL bound) for
//! misses — using the *maximal* miss penalty is conservative: real
//! executions run earlier accesses sooner, keeping them inside the window.
//!
//! ## The walk kernel
//!
//! Every GA fitness evaluation, θ_sat probe and CoHoRT bound runs this
//! walk, so it models the L1 with one flat `Vec` of `sets × ways` slots
//! rather than the simulator's general cache structures. A slot holds the
//! line's tag, its fill instant, whether the fill granted write permission
//! and an explicit valid bit (no line address doubles as "empty"). Each
//! set's ways are kept MRU-first, and the set index is a mask on the
//! power-of-two set counts every validated geometry has. Way 0 is checked
//! first, so on the paper's direct-mapped L1 a guaranteed hit touches
//! nothing but its own slot. With more ways a hit rotates the found way to
//! the front and a refill of an absent line overwrites the last (LRU) way
//! after rotating it there — exactly the simulator's LRU order, which the
//! unit tests check against a walk over `cohort_sim::SetAssocCache`.
//!
//! ## The re-anchoring subtlety
//!
//! When the analysis declares a miss (window expired), it re-anchors the
//! model window at the worst-case refill instant. A *real* run may have hit
//! there instead (no adversary materialised), leaving the real counter
//! anchored at the older fill — so a later access the analysis counts as a
//! guaranteed hit can, in that real run, land just after one of the old
//! anchor's expiry boundaries and really miss. This does not break the
//! Eq. 2 bound: each such divergence starts at an analysis miss that was
//! charged a full `WCL` the real run did not spend, and the real miss it
//! displaces re-synchronises the real anchor, so real misses never
//! outnumber analysis misses. The claim is enforced empirically by the
//! `anchor_divergence_fuzz` example (tens of thousands of adversarial
//! schedules phased against the window boundaries, direct-mapped and
//! 2-way; CI fails on any violation) on top of the general soundness
//! property tests.

use cohort_sim::CacheGeometry;
use cohort_trace::Trace;
use cohort_types::{Cycles, TimerValue};

/// Result of the guaranteed-hit analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HitMissCounts {
    /// Accesses guaranteed to hit under any co-runner behaviour.
    pub hits: u64,
    /// Accesses that must be assumed misses.
    pub misses: u64,
}

impl HitMissCounts {
    /// Total accesses analysed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

/// One way of the walk's model L1.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Raw line address held by the way (meaningful only when `valid`).
    tag: u64,
    /// Virtual fill instant (window anchor).
    fill: u64,
    /// Whether the way holds a line at all; kept apart from `tag` so no
    /// line address can double as an "empty" sentinel.
    valid: bool,
    /// Whether the fill granted write permission.
    modified: bool,
}

impl Slot {
    fn holds(&self, tag: u64) -> bool {
        self.valid && self.tag == tag
    }
}

/// Computes the guaranteed hits and misses of `trace` on a core with timer
/// `timer`, private-cache `geometry`, and the given latencies.
///
/// For θ = −1 (MSI) the analysis returns zero hits — without timers the
/// in-isolation analysis is not preserved under contention (Eq. 3's
/// premise). For θ = 0 likewise: the window is empty.
///
/// # Examples
///
/// ```
/// use cohort_analysis::guaranteed_hits;
/// use cohort_sim::CacheGeometry;
/// use cohort_trace::{Trace, TraceOp};
/// use cohort_types::{Cycles, TimerValue};
///
/// let trace = Trace::from_ops(vec![
///     TraceOp::store(0),
///     TraceOp::store(0).after(5), // within a 100-cycle window: guaranteed
/// ]);
/// let counts = guaranteed_hits(
///     &trace,
///     TimerValue::timed(100)?,
///     &CacheGeometry::paper_l1(),
///     Cycles::new(1),
///     Cycles::new(216),
/// );
/// assert_eq!(counts.hits, 1);
/// assert_eq!(counts.misses, 1);
/// # Ok::<(), cohort_types::Error>(())
/// ```
#[must_use]
pub fn guaranteed_hits(
    trace: &Trace,
    timer: TimerValue,
    geometry: &CacheGeometry,
    hit_latency: Cycles,
    miss_penalty: Cycles,
) -> HitMissCounts {
    let Some(theta) = timer.theta().filter(|&t| t > 0) else {
        // MSI (or a zero window): no guaranteed hits.
        return HitMissCounts { hits: 0, misses: trace.len() as u64 };
    };
    let walk = Walk {
        theta,
        ways: geometry.ways as usize,
        hit_latency: hit_latency.get(),
        miss_penalty: miss_penalty.get(),
    };
    let sets = geometry.sets();
    let hits = if sets.is_power_of_two() {
        walk.run(trace, sets, |tag| tag & (sets - 1))
    } else {
        walk.run(trace, sets, |tag| tag % sets)
    };
    HitMissCounts { hits, misses: trace.len() as u64 - hits }
}

/// The guaranteed-hit walk's parameters, fixed for one trace walk.
struct Walk {
    theta: u64,
    ways: usize,
    hit_latency: u64,
    miss_penalty: u64,
}

impl Walk {
    /// Walks `trace` over `sets × ways` slots, returning the guaranteed
    /// hits; `set_of` maps a line to its set (a mask on power-of-two set
    /// counts, so the hot loop never divides).
    fn run(&self, trace: &Trace, sets: u64, set_of: impl Fn(u64) -> u64) -> u64 {
        let ways = self.ways;
        // Each set's ways MRU-first; empty ways trail the valid ones, so
        // the last way is always the LRU (or an empty) one.
        let mut slots = vec![Slot::default(); sets as usize * ways];
        let mut hits = 0u64;
        let mut now = 0u64;
        for op in trace {
            now += op.gap.get();
            let (tag, store) = (op.line.raw(), op.kind.is_store());
            let set = &mut slots[set_of(tag) as usize * ways..][..ways];
            // Way 0 first: on a direct-mapped L1 it is the only way.
            let way = if set[0].holds(tag) {
                Some(0)
            } else {
                set[1..].iter().position(|s| s.holds(tag)).map(|w| w + 1)
            };
            let guaranteed = way.is_some_and(|w| {
                let slot = &set[w];
                now - slot.fill < self.theta && (slot.modified || !store)
            });
            // Promote the found way to MRU; a miss on an absent line
            // rotates the LRU way to the front, where the refill
            // overwrites it.
            let w = way.unwrap_or(ways - 1);
            if w > 0 {
                set[..=w].rotate_right(1);
            }
            if guaranteed {
                hits += 1;
                now += self.hit_latency;
            } else {
                now += self.miss_penalty;
                // Refill: a fresh window anchored at the (worst-case)
                // completion instant, with the permission the request
                // gains.
                set[0] = Slot { tag, fill: now, valid: true, modified: store };
            }
        }
        hits
    }
}

/// Finds the timer saturation value `θ_sat`: the smallest θ at which the
/// task's guaranteed hits stop growing (the upper bound of the GA search
/// box in §V). The sweep runs in isolation with the uncontended miss
/// penalty, mirroring the paper's "sweeping timer values for `c_i` in
/// isolation".
///
/// Exploits the monotonicity of hits in θ (a longer window can only keep
/// more lines alive) for a logarithmic search; the property-based tests
/// check that monotonicity on random traces.
///
/// # Examples
///
/// ```
/// use cohort_analysis::theta_saturation;
/// use cohort_sim::CacheGeometry;
/// use cohort_trace::{Trace, TraceOp};
/// use cohort_types::Cycles;
///
/// // Revisit after 10 virtual cycles: saturates as soon as θ covers it.
/// let trace = Trace::from_ops(vec![TraceOp::store(0), TraceOp::store(0).after(10)]);
/// let sat = theta_saturation(&trace, &CacheGeometry::paper_l1(), Cycles::new(1), Cycles::new(54));
/// assert!(sat >= 10 && sat <= 16, "saturation near the reuse distance, got {sat}");
/// ```
#[must_use]
pub fn theta_saturation(
    trace: &Trace,
    geometry: &CacheGeometry,
    hit_latency: Cycles,
    miss_penalty: Cycles,
) -> u64 {
    saturation_search(|theta| {
        guaranteed_hits(
            trace,
            TimerValue::timed(theta).expect("θ within register range"),
            geometry,
            hit_latency,
            miss_penalty,
        )
        .hits
    })
}

/// Binary search for the smallest θ whose guaranteed-hit count equals the
/// count at `MAX_THETA`, given a probe function. Shared between the plain
/// [`theta_saturation`] and the memoized variant in [`crate::cache`], so
/// both issue the identical probe sequence (and therefore agree exactly).
pub(crate) fn saturation_search(mut hits_at: impl FnMut(u64) -> u64) -> u64 {
    let max_theta = TimerValue::MAX_THETA;
    let saturated = hits_at(max_theta);
    if hits_at(1) == saturated {
        return 1;
    }
    let (mut lo, mut hi) = (1u64, max_theta);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if hits_at(mid) == saturated {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohort_sim::SetAssocCache;
    use cohort_trace::{AccessKind, Kernel, KernelSpec, TraceOp};
    use cohort_types::LineAddr;

    const L1: CacheGeometry = CacheGeometry::paper_l1();
    const HIT: Cycles = Cycles::new(1);
    const PENALTY: Cycles = Cycles::new(216);

    fn timed(theta: u64) -> TimerValue {
        TimerValue::timed(theta).unwrap()
    }

    #[test]
    fn msi_core_has_no_guaranteed_hits() {
        let trace = Trace::from_ops(vec![TraceOp::store(0); 10]);
        let counts = guaranteed_hits(&trace, TimerValue::MSI, &L1, HIT, PENALTY);
        assert_eq!(counts.hits, 0);
        assert_eq!(counts.misses, 10);
    }

    #[test]
    fn window_expiry_forces_a_refill() {
        // Second access 10 cycles after fill, third 300 cycles later:
        // θ = 100 covers the first revisit only.
        let trace = Trace::from_ops(vec![
            TraceOp::store(0),
            TraceOp::store(0).after(10),
            TraceOp::store(0).after(300),
        ]);
        let counts = guaranteed_hits(&trace, timed(100), &L1, HIT, PENALTY);
        assert_eq!(counts.hits, 1);
        assert_eq!(counts.misses, 2);
    }

    #[test]
    fn store_after_load_is_not_guaranteed() {
        // A load fills with read permission; the store needs an upgrade.
        let trace = Trace::from_ops(vec![
            TraceOp::load(0),
            TraceOp::store(0).after(2),
            TraceOp::load(0).after(2), // hits: the upgrade granted M
        ]);
        let counts = guaranteed_hits(&trace, timed(100), &L1, HIT, PENALTY);
        assert_eq!(counts.hits, 1);
        assert_eq!(counts.misses, 2);
    }

    #[test]
    fn conflict_evictions_are_respected() {
        // Lines 0 and 256 conflict in the direct-mapped L1.
        let trace =
            Trace::from_ops(vec![TraceOp::load(0), TraceOp::load(256), TraceOp::load(0).after(1)]);
        let counts = guaranteed_hits(&trace, timed(60_000), &L1, HIT, PENALTY);
        assert_eq!(counts.hits, 0);
        assert_eq!(counts.misses, 3);
    }

    #[test]
    fn hits_monotone_in_theta_on_a_kernel() {
        let w = cohort_trace::KernelSpec::new(cohort_trace::Kernel::Fft, 2)
            .with_total_requests(4_000)
            .generate();
        let trace = &w.traces()[0];
        let mut previous = 0;
        for theta in [1u64, 4, 16, 64, 256, 1024, 4096, 65_535] {
            let h = guaranteed_hits(trace, timed(theta), &L1, HIT, PENALTY).hits;
            assert!(h >= previous, "θ={theta}: {h} < {previous}");
            previous = h;
        }
        assert!(previous > 0, "a reuse-heavy kernel must have guaranteed hits");
    }

    #[test]
    fn saturation_is_a_fixed_point() {
        let w = cohort_trace::KernelSpec::new(cohort_trace::Kernel::Water, 2)
            .with_total_requests(2_000)
            .generate();
        let trace = &w.traces()[0];
        let sat = theta_saturation(trace, &L1, HIT, Cycles::new(54));
        let at_sat = guaranteed_hits(trace, timed(sat), &L1, HIT, Cycles::new(54)).hits;
        let beyond =
            guaranteed_hits(trace, timed(TimerValue::MAX_THETA), &L1, HIT, Cycles::new(54)).hits;
        assert_eq!(at_sat, beyond);
        if sat > 1 {
            let below = guaranteed_hits(trace, timed(sat - 1), &L1, HIT, Cycles::new(54)).hits;
            assert!(below < at_sat, "θ_sat must be minimal");
        }
    }

    #[test]
    fn total_is_preserved() {
        let trace = Trace::from_ops(vec![TraceOp::load(0); 7]);
        let counts = guaranteed_hits(&trace, timed(3), &L1, HIT, PENALTY);
        assert_eq!(counts.total(), 7);
    }

    #[test]
    fn larger_penalty_never_increases_hits() {
        let w = cohort_trace::KernelSpec::new(cohort_trace::Kernel::Lu, 2)
            .with_total_requests(3_000)
            .generate();
        let trace = &w.traces()[0];
        let fast = guaranteed_hits(trace, timed(200), &L1, HIT, Cycles::new(54)).hits;
        let slow = guaranteed_hits(trace, timed(200), &L1, HIT, Cycles::new(500)).hits;
        assert!(slow <= fast, "a larger miss penalty stretches the timeline");
    }

    /// The walk as it was before the flat-slot kernel: the simulator's
    /// generic LRU cache model, kept as the kernel's oracle.
    fn oracle_hits(
        trace: &Trace,
        timer: TimerValue,
        geometry: &CacheGeometry,
        hit_latency: Cycles,
        miss_penalty: Cycles,
    ) -> HitMissCounts {
        #[derive(Clone, Copy)]
        struct ModelLine {
            fill: Cycles,
            modified: bool,
        }
        let Some(theta) = timer.theta().filter(|&t| t > 0) else {
            return HitMissCounts { hits: 0, misses: trace.len() as u64 };
        };
        let mut cache: SetAssocCache<ModelLine> = SetAssocCache::new(*geometry);
        let mut counts = HitMissCounts::default();
        let mut now = Cycles::ZERO;
        for op in trace {
            now += op.gap;
            let in_window = cache
                .peek(op.line)
                .map(|l| (now.get() - l.fill.get()) < theta && (!op.kind.is_store() || l.modified));
            if let Some(true) = in_window {
                counts.hits += 1;
                cache.touch(op.line);
                now += hit_latency;
            } else {
                counts.misses += 1;
                now += miss_penalty;
                cache.insert(op.line, ModelLine { fill: now, modified: op.kind.is_store() });
            }
        }
        counts
    }

    fn assert_matches_oracle(
        seed: u64,
        trace: &Trace,
        timer: TimerValue,
        geometry: &CacheGeometry,
        penalty: Cycles,
    ) {
        let flat = guaranteed_hits(trace, timer, geometry, HIT, penalty);
        let oracle = oracle_hits(trace, timer, geometry, HIT, penalty);
        assert_eq!(
            flat,
            oracle,
            "seed {seed}: flat walk diverges from the oracle (θ={timer:?}, {geometry:?}, \
             penalty {penalty:?}, {} accesses)",
            trace.len()
        );
    }

    #[test]
    fn flat_walk_matches_oracle_on_random_traces() {
        for seed in 0..2_000u64 {
            let mut rng = cohort_types::SplitMix64::new(seed);
            let ways = [1, 2, 4, 8][rng.below(0, 4) as usize];
            let sets = 1 << rng.below(0, 9);
            let geometry = CacheGeometry::new(sets * 64 * ways, 64, ways).unwrap();
            // Either a line space a few times the capacity, or one set's
            // conflict chain (every line maps to the same set).
            let one_set = rng.below(0, 4) == 0;
            let (set, span) = (rng.below(0, sets), rng.below(1, 3 * ways + 3));
            let theta = rng.below(2, 301);
            let trace = (0..rng.below(0, 401))
                .map(|_| {
                    let line = if rng.below(0, 51) == 0 {
                        u64::MAX
                    } else if one_set {
                        set + sets * rng.below(0, span + 1)
                    } else {
                        rng.below(0, 3 * sets * ways + 1)
                    };
                    let kind =
                        if rng.below(0, 3) == 0 { AccessKind::Store } else { AccessKind::Load };
                    let gap = match rng.below(0, 4) {
                        0 => rng.below(0, 5),
                        1 => theta.saturating_sub(rng.below(0, 9)),
                        _ => rng.below(0, 2 * theta + 1),
                    };
                    TraceOp::new(LineAddr::new(line), kind, Cycles::new(gap))
                })
                .collect::<Trace>();
            let timer = match rng.below(0, 6) {
                0 => TimerValue::MSI,
                1 => timed(0),
                2 => timed(1),
                3 => timed(TimerValue::MAX_THETA),
                _ => timed(theta),
            };
            let penalty = Cycles::new(rng.below(1, 2_001));
            assert_matches_oracle(seed, &trace, timer, &geometry, penalty);
        }
    }

    #[test]
    fn top_line_address_is_not_a_sentinel() {
        // A first touch of the highest line must miss even though an
        // empty way's tag could otherwise be mistaken for it.
        let trace = Trace::from_ops(vec![
            TraceOp::load(u64::MAX),
            TraceOp::load(u64::MAX).after(1),
            TraceOp::load(0).after(1),
        ]);
        for ways in [1, 2, 4, 8] {
            let geometry = CacheGeometry::new(16 * 1024, 64, ways).unwrap();
            let counts = guaranteed_hits(&trace, timed(100), &geometry, HIT, PENALTY);
            assert_eq!(counts, HitMissCounts { hits: 1, misses: 2 }, "{ways}-way");
            assert_matches_oracle(ways, &trace, timed(100), &geometry, PENALTY);
        }
    }

    #[test]
    fn flat_walk_matches_oracle_on_default_scale_kernels() {
        for kernel in Kernel::ALL {
            let w = KernelSpec::new(kernel, 4)
                .with_total_requests(kernel.default_total_requests())
                .generate();
            for (seed, theta) in
                [1u64, 20, 300, 4_096, TimerValue::MAX_THETA].into_iter().enumerate()
            {
                assert_matches_oracle(seed as u64, &w.traces()[0], timed(theta), &L1, PENALTY);
            }
        }
    }
}
