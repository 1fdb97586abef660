//! The optimization engine end-to-end: GA-chosen timers satisfy constraint
//! C1 not just analytically but in actual simulation, and the engine
//! reports infeasibility rather than silently violating a requirement.

use cohort::{run_experiment, Protocol, SystemSpec};
use cohort_optim::{GaConfig, GaRun, TimerProblem};
use cohort_trace::{micro, Kernel, KernelSpec};
use cohort_types::{Criticality, Cycles, Error};

fn ga() -> GaConfig {
    GaConfig { population: 16, generations: 10, ..Default::default() }
}

#[test]
fn optimized_timers_meet_requirements_in_simulation() {
    let workload = KernelSpec::new(Kernel::Ocean, 4).with_total_requests(4_000).generate();

    // Budgets from a reference configuration with 15% slack.
    let reference = {
        let timers = vec![cohort_types::TimerValue::timed(20).unwrap(); 4];
        cohort_analysis::analyze_cohort(
            &workload,
            &timers,
            &cohort_types::LatencyConfig::paper(),
            &cohort_sim::CacheGeometry::paper_l1(),
            &cohort_sim::LlcModel::Perfect,
        )
        .unwrap()
    };
    let mut builder = TimerProblem::builder(&workload);
    for (i, bound) in reference.iter().enumerate() {
        builder = builder.timed(i, Some(Cycles::new(bound.wcml.unwrap().get() * 23 / 20)));
    }
    let problem = builder.build().unwrap();
    let assignment = GaRun::new(&problem).config(&ga()).run_feasible().unwrap();
    assert!(assignment.feasible);

    // The real system honours the same budgets (measured ≤ bound ≤ Γ).
    let spec = SystemSpec::builder()
        .core(Criticality::new(2).unwrap())
        .core(Criticality::new(2).unwrap())
        .core(Criticality::new(2).unwrap())
        .core(Criticality::new(2).unwrap())
        .build()
        .unwrap();
    let outcome =
        run_experiment(&spec, &Protocol::Cohort { timers: assignment.timers.clone() }, &workload)
            .unwrap();
    outcome.check_soundness().unwrap();
    for (i, bound) in reference.iter().enumerate() {
        let gamma = bound.wcml.unwrap().get() * 23 / 20;
        assert!(
            outcome.stats.cores[i].total_latency.get() <= gamma,
            "core {i} exceeded its budget in simulation"
        );
    }
}

#[test]
fn optimizer_beats_naive_configurations() {
    // The requirement-awareness claim: the GA's objective value is no worse
    // than both naive corners (all-minimal and all-saturated timers).
    let workload = KernelSpec::new(Kernel::Fft, 4).with_total_requests(4_000).generate();
    let mut builder = TimerProblem::builder(&workload);
    for i in 0..4 {
        builder = builder.timed(i, None);
    }
    let problem = builder.build().unwrap();
    let outcome = GaRun::new(&problem).config(&ga()).run();
    let minimal = problem.fitness(&[1; 4]);
    let saturated = problem.fitness(problem.theta_saturations());
    assert!(outcome.best_fitness <= minimal + 1e-9);
    assert!(outcome.best_fitness <= saturated + 1e-9);
    // And strictly better than the worst corner (the trade-off is real).
    assert!(outcome.best_fitness < minimal.max(saturated));
}

#[test]
fn infeasible_requirements_are_detected_not_hidden() {
    let workload = micro::line_bursts(2, 4, 40);
    let problem = TimerProblem::builder(&workload)
        .timed(0, Some(Cycles::new(5))) // absurd: 5 cycles for 160 accesses
        .timed(1, None)
        .build()
        .unwrap();
    match GaRun::new(&problem).config(&ga()).run_feasible() {
        Err(Error::Infeasible(_)) => {}
        other => panic!("expected infeasibility, got {other:?}"),
    }
}

#[test]
fn hit_curves_feed_the_engine_as_a_black_box() {
    // The Fig. 2a loop: the GA's fitness must reflect the cache model — a
    // candidate with more guaranteed hits at equal WCL scores better.
    let workload = micro::line_bursts(2, 5, 80);
    let problem = TimerProblem::builder(&workload).timed(0, None).timed(1, None).build().unwrap();
    // θ = 1 yields no hits; θ = 30 yields burst hits at slightly larger
    // WCL: the fitness must prefer the latter.
    let tiny = problem.fitness(&[1, 1]);
    let burst = problem.fitness(&[30, 30]);
    assert!(burst < tiny, "hit-aware fitness must reward useful timers");
}
