//! Fault-injection integration tests.
//!
//! Three families:
//!
//! 1. **Bit-identity** — a simulator built with [`FaultPlan::empty`] must be
//!    indistinguishable (event log, metrics report, statistics) from one
//!    built without a plan, across heterogeneous presets and random
//!    workloads.
//! 2. **Detection** — each [`FaultKind`] on a minimal micro-trace is caught
//!    by the matching detector ([`InvariantProbe`] for protocol-level
//!    corruption, [`WcmlGuard`] for timing/latency corruption). Where a
//!    fault kind mirrors one of `cohort-verif`'s model-checker mutations,
//!    the test names the mutation slug so the two layers stay in sync.
//! 3. **Determinism** — the same seeded campaign injects the same faults and
//!    produces the same run, twice.

use proptest::prelude::*;

use cohort_sim::{
    CacheGeometry, EventLogProbe, FaultKind, FaultPlan, FaultSpec, InvariantKind, InvariantProbe,
    LlcModel, MetricsProbe, ProtocolFlavor, SimBuilder, SimConfig, SimProbe, WcmlGuard,
    WcmlViolationKind,
};
use cohort_trace::{micro, Trace, TraceOp, Workload};
use cohort_types::{Cycles, TimerValue};

fn timed(theta: u64) -> TimerValue {
    TimerValue::timed(theta).expect("θ fits in 16 bits")
}

/// Two cores, both time-based with the same θ. With the paper latencies
/// (SW = 54) and θ = 50 the Eq. 1 bound is 2·54 + (50 + 54) = 212.
fn two_timed(theta: u64) -> SimConfig {
    SimConfig::builder(2).timers(vec![timed(theta); 2]).build().expect("valid config")
}

fn duet(name: &str, c0: Vec<TraceOp>, c1: Vec<TraceOp>) -> Workload {
    Workload::new(name, vec![Trace::from_ops(c0), Trace::from_ops(c1)]).expect("two traces")
}

fn spec(kind: FaultKind, core: usize, at: u64) -> FaultSpec {
    FaultSpec { kind, core, at: Cycles::new(at) }
}

// ---------------------------------------------------------------------------
// 1. Bit-identity of the empty plan
// ---------------------------------------------------------------------------

/// Runs `workload` twice — once without a plan, once with the empty plan —
/// and asserts the runs are indistinguishable.
fn assert_empty_plan_identity(config: SimConfig, workload: &Workload) {
    let mut plain = SimBuilder::new(config.clone(), workload)
        .probe((EventLogProbe::new(), MetricsProbe::new()))
        .build()
        .expect("plain sim");
    let plain_stats = plain.run().expect("plain run");

    let mut faulted = SimBuilder::new(config, workload)
        .probe((EventLogProbe::new(), MetricsProbe::new()))
        .faults(FaultPlan::empty())
        .build()
        .expect("empty-plan sim");
    let faulted_stats = faulted.run().expect("empty-plan run");

    assert_eq!(plain_stats, faulted_stats, "statistics diverge");
    assert_eq!(plain.probe().0.to_vec(), faulted.probe().0.to_vec(), "event logs diverge");
    assert_eq!(plain.probe().1.report(), faulted.probe().1.report(), "metrics diverge");
    assert!(faulted.injected_faults().is_empty());
}

#[test]
fn empty_plan_is_bit_identical_on_mixed_timer_preset() {
    let config = SimConfig::builder(4)
        .timer(0, timed(300))
        .timer(1, timed(100))
        .build()
        .expect("valid config");
    assert_empty_plan_identity(config, &micro::ping_pong(4, 12));
}

#[test]
fn empty_plan_is_bit_identical_on_all_msi_preset() {
    let config = SimConfig::builder(2).build().expect("valid config");
    assert_empty_plan_identity(config, &micro::line_bursts(2, 6, 20));
}

#[test]
fn empty_plan_is_bit_identical_on_mesi_finite_llc_preset() {
    let config = SimConfig::builder(2)
        .flavor(ProtocolFlavor::Mesi)
        .llc(LlcModel::Finite(CacheGeometry::paper_llc()))
        .timers(vec![timed(80); 2])
        .build()
        .expect("valid config");
    assert_empty_plan_identity(config, &micro::ping_pong(2, 10));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The bit-identity contract holds on arbitrary shared-line workloads.
    #[test]
    fn empty_plan_is_bit_identical_on_random_workloads(
        cores in 1usize..4,
        lines in 1u64..6,
        len in 1usize..24,
        store_milli in 0u64..=1000,
        seed in 0u64..1_000,
    ) {
        let workload =
            micro::random_shared(cores, lines, len, store_milli as f64 / 1000.0, seed);
        let config = SimConfig::builder(cores).build().expect("valid config");
        assert_empty_plan_identity(config, &workload);
    }
}

// ---------------------------------------------------------------------------
// 2. Per-kind detection on minimal micro-traces
// ---------------------------------------------------------------------------

fn latency_violations_for(guard: &WcmlGuard, core: usize) -> usize {
    guard
        .violations()
        .iter()
        .filter(|v| v.kind == WcmlViolationKind::LatencyBound && v.core == Some(core))
        .count()
}

#[test]
fn bus_drop_storm_breaks_the_latency_bound() {
    // 80 dropped grants burn ≥ 4 bus cycles each before c0's store can
    // broadcast, pushing its fill far past the 212-cycle Eq. 1 bound.
    let plan = FaultPlan::new(vec![spec(FaultKind::BusDrop, 0, 1); 80]);
    let w = duet("bus-drop", vec![TraceOp::store(1).after(10)], vec![TraceOp::load(9)]);
    let mut guard = WcmlGuard::new();
    let mut sim =
        SimBuilder::new(two_timed(50), &w).probe(&mut guard).faults(plan).build().expect("sim");
    sim.run().expect("run completes despite drops");
    assert_eq!(
        sim.injected_faults().iter().filter(|f| f.kind == FaultKind::BusDrop).count(),
        80,
        "every drop was consumed"
    );
    drop(sim);
    assert!(latency_violations_for(&guard, 0) > 0, "the storm must convict core 0");
}

#[test]
fn bus_duplicate_storm_breaks_the_latency_bound() {
    // 60 duplicated broadcasts extend c0's first tenure by 60 × 4 = 240
    // bus cycles — alone already above the 212-cycle bound.
    let plan = FaultPlan::new(vec![spec(FaultKind::BusDuplicate, 0, 1); 60]);
    let w = duet("bus-duplicate", vec![TraceOp::store(1).after(10)], vec![TraceOp::load(9)]);
    let mut guard = WcmlGuard::new();
    let mut sim =
        SimBuilder::new(two_timed(50), &w).probe(&mut guard).faults(plan).build().expect("sim");
    sim.run().expect("run completes");
    assert!(sim.injected_faults().iter().all(|f| f.kind == FaultKind::BusDuplicate));
    drop(sim);
    assert!(latency_violations_for(&guard, 0) > 0);
}

#[test]
fn bus_delay_breaks_the_latency_bound() {
    let plan = FaultPlan::new(vec![spec(FaultKind::BusDelay { cycles: 5_000 }, 0, 1)]);
    let w = duet("bus-delay", vec![TraceOp::store(1).after(10)], vec![TraceOp::load(9)]);
    let mut guard = WcmlGuard::new();
    let mut sim =
        SimBuilder::new(two_timed(50), &w).probe(&mut guard).faults(plan).build().expect("sim");
    sim.run().expect("run completes");
    assert_eq!(sim.injected_faults().len(), 1);
    drop(sim);
    let v = guard
        .violations()
        .iter()
        .find(|v| v.kind == WcmlViolationKind::LatencyBound)
        .expect("jammed bus convicts");
    assert!(v.latency >= 5_000, "observed latency carries the injected delay");
}

#[test]
fn line_corruption_is_detected_as_swmr_violation() {
    // Both cores hold line 5 Shared; c0's copy silently flips to Modified.
    // The synthetic write-granting fill leaves c1's copy alive — the SWMR
    // violation the model checker provokes with its `skip-invalidation`
    // mutation.
    let plan = FaultPlan::new(vec![spec(FaultKind::LineCorruption, 0, 300)]);
    let w = duet(
        "line-corruption",
        vec![TraceOp::load(5), TraceOp::load(6).after(600)],
        vec![TraceOp::load(5).after(60)],
    );
    let mut probe = InvariantProbe::new();
    let config = SimConfig::builder(2).build().expect("valid config");
    let mut sim = SimBuilder::new(config, &w).probe(&mut probe).faults(plan).build().expect("sim");
    sim.run().expect("run completes");
    assert_eq!(sim.injected_faults().len(), 1, "the corruption fired");
    assert!(
        sim.validate_coherence().is_err(),
        "deep validation sees the duplicate write permission"
    );
    drop(sim);
    assert!(
        probe.violations().iter().any(|v| v.kind == InvariantKind::Swmr),
        "corruption must surface as an SWMR violation, got {:?}",
        probe.violations()
    );
}

#[test]
fn spurious_eviction_is_detected_as_data_value_violation() {
    // c0 owns line 5 Modified; the line silently drops out of its L1 with
    // no writeback event. When c1 later fetches the line, the data source
    // disagrees with the shadow owner — the `skip-evict-writeback`
    // divergence of the model checker.
    let plan = FaultPlan::new(vec![spec(FaultKind::SpuriousEviction, 0, 300)]);
    let w = duet("spurious-eviction", vec![TraceOp::store(5)], vec![TraceOp::load(5).after(800)]);
    let mut probe = InvariantProbe::new();
    let config = SimConfig::builder(2).build().expect("valid config");
    let mut sim = SimBuilder::new(config, &w).probe(&mut probe).faults(plan).build().expect("sim");
    sim.run().expect("run completes");
    assert_eq!(sim.injected_faults().len(), 1, "the eviction fired");
    drop(sim);
    assert!(
        probe.violations().iter().any(|v| v.kind == InvariantKind::DataValue),
        "silent eviction must surface as a data-value violation, got {:?}",
        probe.violations()
    );
}

#[test]
fn timer_early_expiry_is_detected_as_timer_protection_violation() {
    // c0 holds line 5 under θ = 5000; c1's store arrives at ~100. The
    // early-expiry window serves the dispossession immediately — the
    // engine-level twin of the checker's `ignore-timer-protection`
    // mutation, convicted by the invariant probe's release-time check.
    let plan = FaultPlan::new(vec![spec(FaultKind::TimerEarlyExpiry { cycles: 2_000 }, 0, 100)]);
    let w = duet("timer-early-expiry", vec![TraceOp::store(5)], vec![TraceOp::store(5).after(100)]);
    let config = SimConfig::builder(2)
        .timer(0, timed(5_000))
        .timer(1, timed(50))
        .build()
        .expect("valid config");
    let mut probe = InvariantProbe::new();
    let mut sim = SimBuilder::new(config, &w).probe(&mut probe).faults(plan).build().expect("sim");
    sim.run().expect("run completes");
    assert_eq!(sim.injected_faults().len(), 1);
    drop(sim);
    assert!(
        probe.violations().iter().any(|v| v.kind == InvariantKind::TimerProtection),
        "early expiry must surface as a timer-protection violation, got {:?}",
        probe.violations()
    );
}

#[test]
fn timer_stuck_is_detected_as_liveness_violation() {
    // c0's timer refuses to expire for 100k cycles, so c1's queued store is
    // never served within the observation window — the checker's
    // `drop-timer-expiry` liveness failure, seen by the shadow waiter
    // bookkeeping when the run is cut off.
    let plan = FaultPlan::new(vec![spec(FaultKind::TimerStuck { cycles: 100_000 }, 0, 10)]);
    let w = duet("timer-stuck", vec![TraceOp::store(5)], vec![TraceOp::store(5).after(50)]);
    let config = SimConfig::builder(2).timers(vec![timed(100); 2]).build().expect("valid config");
    let mut probe = InvariantProbe::new();
    let mut sim = SimBuilder::new(config, &w).probe(&mut probe).faults(plan).build().expect("sim");
    sim.run_until(Cycles::new(5_000)).expect("bounded run");
    assert!(!sim.is_finished(), "the stuck timer must stall c1 past the horizon");
    let stats = sim.stats().clone();
    sim.probe_mut().on_finish(&stats);
    assert!(
        sim.probe().violations().iter().any(|v| v.kind == InvariantKind::Liveness),
        "the unserved waiter must surface as a liveness violation, got {:?}",
        sim.probe().violations()
    );
}

#[test]
fn timer_corruption_starves_the_victim_core() {
    // c0's θ register is silently rewritten from 50 to 20 000 before its
    // fill; c1 then waits nearly 20 000 cycles for the line — far beyond
    // the 212-cycle bound derived from the *programmed* registers. The
    // conviction lands on the victim, not the corrupted core.
    let plan =
        FaultPlan::new(vec![spec(FaultKind::TimerCorruption { value: timed(20_000) }, 0, 10)]);
    let w = duet(
        "timer-corruption",
        vec![TraceOp::store(5).after(20)],
        vec![TraceOp::store(5).after(100)],
    );
    let mut guard = WcmlGuard::new();
    let mut sim =
        SimBuilder::new(two_timed(50), &w).probe(&mut guard).faults(plan).build().expect("sim");
    sim.run().expect("run completes");
    assert_eq!(sim.injected_faults().len(), 1);
    drop(sim);
    let v = guard
        .violations()
        .iter()
        .find(|v| v.kind == WcmlViolationKind::LatencyBound)
        .expect("the starved victim convicts");
    assert_eq!(v.core, Some(1), "the conviction names the waiting core");
    assert!(v.latency > 10_000, "latency reflects the corrupted θ");
}

#[test]
fn core_stall_is_detected_as_progress_violation() {
    // c0's pipeline freezes for 50k cycles before its only access; the
    // driver-polled progress check convicts the silence.
    let plan = FaultPlan::new(vec![spec(FaultKind::CoreStall { cycles: 50_000 }, 0, 5)]);
    let w = duet("core-stall", vec![TraceOp::load(1).after(10)], vec![TraceOp::load(2)]);
    let mut guard = WcmlGuard::new().with_progress_timeout(10_000);
    let mut sim =
        SimBuilder::new(two_timed(50), &w).probe(&mut guard).faults(plan).build().expect("sim");
    let mut slices = 0;
    while !sim.is_finished() && slices < 200 {
        let deadline = sim.now() + Cycles::new(1_000);
        sim.run_until(deadline).expect("slice runs");
        let active: Vec<bool> =
            sim.stats().cores.iter().map(|c| c.finish == Cycles::ZERO).collect();
        let now = sim.now();
        sim.probe_mut().check_progress(now, &active);
        slices += 1;
    }
    assert!(sim.is_finished(), "the stall is bounded, the run must finish");
    assert!(sim.injected_faults().iter().any(|f| matches!(f.kind, FaultKind::CoreStall { .. })));
    drop(sim);
    assert!(
        guard.violations().iter().any(|v| v.kind == WcmlViolationKind::Progress),
        "the stall must convict progress, got {:?}",
        guard.violations()
    );
}

// ---------------------------------------------------------------------------
// 3. Seeded campaign determinism
// ---------------------------------------------------------------------------

#[test]
fn seeded_campaign_is_deterministic() {
    let config = || {
        SimConfig::builder(4)
            .timer(0, timed(300))
            .timer(1, timed(100))
            .build()
            .expect("valid config")
    };
    let w = micro::ping_pong(4, 40);
    let plan = FaultPlan::seeded(0xC0FF_EE00, 4, 5_000, 6);
    assert_eq!(plan, FaultPlan::seeded(0xC0FF_EE00, 4, 5_000, 6), "plan derivation is pure");

    let run = |plan: FaultPlan| {
        let mut sim = SimBuilder::new(config(), &w)
            .probe(EventLogProbe::new())
            .faults(plan)
            .build()
            .expect("sim");
        let stats = sim.run().expect("run completes");
        (stats, sim.injected_faults().to_vec(), sim.probe().to_vec())
    };
    let (stats_a, injected_a, events_a) = run(plan.clone());
    let (stats_b, injected_b, events_b) = run(plan);
    assert_eq!(stats_a, stats_b, "statistics diverge across identical campaigns");
    assert_eq!(injected_a, injected_b, "injection logs diverge");
    assert_eq!(events_a, events_b, "event logs diverge");
}

#[test]
fn plans_targeting_missing_cores_are_rejected() {
    let plan = FaultPlan::new(vec![spec(FaultKind::BusDrop, 7, 1)]);
    let config = SimConfig::builder(2).build().expect("valid config");
    let w = micro::ping_pong(2, 4);
    assert!(SimBuilder::new(config, &w).faults(plan).build().is_err());
}
