//! Property-based tests: the simulator must terminate, preserve coherence
//! invariants, account every access and bound every request latency on
//! arbitrary workloads and timer assignments.

use proptest::prelude::*;

use cohort_sim::ArbiterKind;
use cohort_trace::{AccessKind, Trace, TraceOp, Workload};
use cohort_types::{Cycles, LineAddr, TimerValue};

/// An arbitrary timer value: MSI or a small θ.
#[allow(dead_code)] // used only inside proptest! (the offline stub expands to nothing)
fn timer_strategy() -> impl Strategy<Value = TimerValue> {
    prop_oneof![
        Just(TimerValue::MSI),
        (1u64..=120).prop_map(|t| TimerValue::timed(t).expect("≤ 16 bits")),
    ]
}

/// An arbitrary small workload over a handful of lines (dense sharing).
#[allow(dead_code)] // used only inside proptest! (the offline stub expands to nothing)
fn workload_strategy(cores: usize) -> impl Strategy<Value = Workload> {
    let op = (0u64..12, any::<bool>(), 0u64..8).prop_map(|(line, store, gap)| {
        TraceOp::new(
            LineAddr::new(line),
            if store { AccessKind::Store } else { AccessKind::Load },
            Cycles::new(gap),
        )
    });
    proptest::collection::vec(proptest::collection::vec(op, 1..60), cores..=cores).prop_map(
        |traces| {
            Workload::new("prop", traces.into_iter().map(Trace::from_ops).collect())
                .expect("non-empty")
        },
    )
}

#[allow(dead_code)] // used only inside proptest! (the offline stub expands to nothing)
fn arbiter_strategy(cores: usize) -> impl Strategy<Value = ArbiterKind> {
    prop_oneof![
        Just(ArbiterKind::Rrof),
        Just(ArbiterKind::RoundRobin),
        Just(ArbiterKind::Fcfs),
        proptest::collection::vec(any::<bool>(), cores..=cores).prop_map(|mut mask| {
            if !mask.iter().any(|&b| b) {
                mask[0] = true;
            }
            ArbiterKind::Tdm { critical: mask }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every run terminates, accounts every access, and ends in a state
    /// satisfying the coherence invariants (SWMR, bookkeeping agreement).
    #[test]
    fn runs_terminate_and_account_everything(
        workload in workload_strategy(3),
        timers in proptest::collection::vec(timer_strategy(), 3),
        arbiter in arbiter_strategy(3),
        via_llc in any::<bool>(),
    ) {
        let config = SimConfig::builder(3)
            .timers(timers)
            .arbiter(arbiter)
            .data_path(if via_llc { DataPath::ViaSharedMemory } else { DataPath::CacheToCache })
            .build()
            .expect("valid config");
        let mut sim = SimBuilder::new(config, &workload).build().expect("valid sim");
        let stats = sim.run().expect("no deadlock");
        sim.validate_coherence().expect("invariants hold");
        for (core, trace) in stats.cores.iter().zip(workload.traces()) {
            prop_assert_eq!(core.accesses(), trace.len() as u64);
            prop_assert!(core.finish <= stats.cycles);
        }
    }

    /// Per-request latency is bounded by the Eq. 1 worst case under RROF
    /// (the key predictability claim the analysis crate formalises).
    #[test]
    fn request_latency_bounded_by_eq1(
        workload in workload_strategy(4),
        timers in proptest::collection::vec(timer_strategy(), 4),
    ) {
        let config = SimConfig::builder(4).timers(timers.clone()).build().expect("valid");
        let sw = config.latency().slot_width().get();
        let n = 4u64;
        let mut sim = SimBuilder::new(config, &workload).build().expect("valid sim");
        let stats = sim.run().expect("no deadlock");
        for i in 0..4 {
            // Eq. 1: SW + (N−1)·SW + Σ_{j≠i, θ_j ≥ 0} (θ_j + SW).
            let timer_terms: u64 = (0..4)
                .filter(|&j| j != i)
                .filter_map(|j| timers[j].theta().map(|t| t + sw))
                .sum();
            let bound = sw + (n - 1) * sw + timer_terms;
            prop_assert!(
                stats.cores[i].worst_request.get() <= bound,
                "core {} observed {} > bound {} (timers {:?})",
                i, stats.cores[i].worst_request.get(), bound, timers
            );
        }
    }

    /// Identical inputs produce identical outputs (bit-for-bit determinism).
    #[test]
    fn simulation_is_deterministic(
        workload in workload_strategy(2),
        timers in proptest::collection::vec(timer_strategy(), 2),
    ) {
        let config = SimConfig::builder(2).timers(timers).build().expect("valid");
        let a = SimBuilder::new(config.clone(), &workload).build().expect("sim").run().expect("ok");
        let b = SimBuilder::new(config, &workload).build().expect("sim").run().expect("ok");
        prop_assert_eq!(a, b);
    }

    /// Timer switches mid-run never break termination or invariants.
    #[test]
    fn timer_switches_are_safe(
        rounds in 2usize..20,
        switch_at in 1u64..2_000,
        theta in 1u64..200,
    ) {
        let workload = micro::ping_pong(3, rounds);
        let config = SimConfig::builder(3)
            .timers(vec![TimerValue::timed(theta).expect("small"); 3])
            .build()
            .expect("valid");
        let mut sim = SimBuilder::new(config, &workload).build().expect("sim");
        sim.schedule_timer_switch(Cycles::new(switch_at), vec![TimerValue::MSI; 3])
            .expect("future switch");
        let stats = sim.run().expect("no deadlock");
        sim.validate_coherence().expect("invariants hold");
        for core in &stats.cores {
            prop_assert_eq!(core.accesses(), rounds as u64);
        }
    }

    /// Raising a core's timer never decreases that core's own hit count on
    /// a fixed workload (the monotonicity the optimization engine relies
    /// on, observed end-to-end in the simulator).
    #[test]
    fn larger_timer_never_hurts_own_hits_in_two_core_pingpong(
        small in 1u64..40,
        extra in 1u64..200,
    ) {
        // c0 writes then revisits a line c1 keeps stealing.
        let c0: Trace = (0..20).map(|_| TraceOp::store(0).after(7)).collect();
        let c1: Trace = (0..20).map(|_| TraceOp::store(0).after(7)).collect();
        let workload = Workload::new("pp", vec![c0, c1]).expect("two cores");
        let run = |theta: u64| {
            let config = SimConfig::builder(2)
                .timer(0, TimerValue::timed(theta).expect("small"))
                .build()
                .expect("valid");
            SimBuilder::new(config, &workload).build().expect("sim").run().expect("ok").cores[0].hits
        };
        prop_assert!(run(small + extra) >= run(small));
    }
}
