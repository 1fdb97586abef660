//! Requirement-aware timer optimization for an avionics-style system
//! (DO-178C: five assurance levels). Two flight-critical partitions carry
//! explicit WCML budgets; the display partition is timed but
//! unconstrained; two maintenance partitions run plain MSI. The genetic
//! algorithm (§V) finds timers that satisfy the budgets while minimising
//! the system's average worst-case latency.
//!
//! ```text
//! cargo run --release --example optimize_timers
//! ```

use cohort_analysis::wcl_miss;
use cohort_optim::{GaConfig, GaRun, TimerProblem};
use cohort_trace::{Kernel, KernelSpec};
use cohort_types::{Cycles, LatencyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = KernelSpec::new(Kernel::Water, 5).with_total_requests(10_000).generate();

    // Derive budgets the way an integrator would: a slack factor over the
    // bound at a small reference timer.
    let reference = {
        let timers: Vec<_> = (0..5)
            .map(|i| {
                if i < 3 {
                    cohort_types::TimerValue::timed(20).expect("small")
                } else {
                    cohort_types::TimerValue::MSI
                }
            })
            .collect();
        cohort_analysis::analyze_cohort(
            &workload,
            &timers,
            &LatencyConfig::paper(),
            &cohort_sim::CacheGeometry::paper_l1(),
            &cohort_sim::LlcModel::Perfect,
        )?
    };
    let budget = |core: usize, slack_pct: u64| {
        Cycles::new(reference[core].wcml.expect("bounded").get() * slack_pct / 100)
    };

    let problem = TimerProblem::builder(&workload)
        .timed(0, Some(budget(0, 110))) // DAL-A: 10% slack over the reference
        .timed(1, Some(budget(1, 125))) // DAL-B: 25% slack
        .timed(2, None) //                 display: maximise hits, no budget
        .build()?;
    println!("Search space (θ_sat per timed core): {:?}", problem.theta_saturations());

    let ga = GaConfig { population: 24, generations: 20, ..Default::default() };
    let assignment = GaRun::new(&problem).config(&ga).run_feasible()?;

    println!("\ncore  θ        guaranteed hits  misses   WCL (Eq.1)   WCML bound");
    for (i, bound) in assignment.bounds.iter().enumerate() {
        println!(
            "c{i}    {:<8} {:>15} {:>7} {:>12} {:>12}",
            assignment.timers[i].to_string(),
            bound.hits,
            bound.misses,
            bound.wcl.expect("bounded").get(),
            bound.wcml.expect("bounded").get(),
        );
    }
    assert!(assignment.feasible);
    println!("\nBudgets:");
    for (core, slack) in [(0usize, 110u64), (1, 125)] {
        let gamma = budget(core, slack);
        let wcml = assignment.bounds[core].wcml.expect("bounded");
        println!(
            "  c{core}: WCML {} ≤ Γ {}  (margin {:.1}%)",
            wcml.get(),
            gamma.get(),
            100.0 * (gamma.get() - wcml.get()) as f64 / gamma.get() as f64
        );
    }

    // The trade-off in numbers: every timed core's θ appears in the other
    // cores' Eq. 1 bounds, so "more hits for me" is "more latency for you".
    let wcl_c4 = wcl_miss(4, &assignment.timers, &LatencyConfig::paper());
    println!("\nThe MSI maintenance core c4 pays {} cycles per request in the worst", wcl_c4.get());
    println!("case — the price of its neighbours' timer windows.");
    Ok(())
}
