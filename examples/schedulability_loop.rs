//! The full integration loop a system designer runs:
//!
//! 1. **Schedulability** — fixed-priority RTA tells each critical task how
//!    much worst-case memory latency it can afford (its Γ);
//! 2. **Optimization** — the GA configures the coherence timers so every
//!    task's WCML bound fits its Γ (§V);
//! 3. **Verification** — the cycle-accurate simulator confirms the measured
//!    latencies sit under the bounds;
//! 4. **Closure** — the bounds feed back into the RTA: the task set is
//!    schedulable on the configured hardware.
//!
//! ```text
//! cargo run --release --example schedulability_loop
//! ```

use cohort::{run_experiment, Protocol, SystemSpec};
use cohort_analysis::{is_schedulable, max_affordable_wcml, response_times, PeriodicTask};
use cohort_optim::{GaConfig, GaRun, TimerProblem};
use cohort_trace::{Kernel, KernelSpec};
use cohort_types::Criticality;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = KernelSpec::new(Kernel::Ocean, 2).with_total_requests(6_000).generate();

    // Two critical tasks, one per core, with compute WCETs and periods.
    // Memory budgets start as placeholders; the RTA derives the real ones.
    let mut tasks = vec![
        PeriodicTask::new("brake-control", 2_000_000, 300_000, 0)?,
        PeriodicTask::new("trajectory", 8_000_000, 1_200_000, 0)?,
    ];

    // 1. How much memory latency can each task afford?
    let mut budgets = Vec::new();
    for i in 0..tasks.len() {
        let gamma = max_affordable_wcml(&mut tasks, i)?
            .ok_or_else(|| std::io::Error::other("task set unschedulable even with free memory"))?;
        println!(
            "{:<14} period {:>9}  compute {:>9}  affordable Γ = {}",
            tasks[i].name,
            tasks[i].period.get(),
            tasks[i].compute.get(),
            gamma.get()
        );
        budgets.push(gamma);
    }

    // 2. Configure the coherence timers against those budgets.
    let problem = TimerProblem::builder(&workload)
        .timed(0, Some(budgets[0]))
        .timed(1, Some(budgets[1]))
        .build()?;
    let ga = GaConfig { population: 24, generations: 15, ..Default::default() };
    let assignment = GaRun::new(&problem).config(&ga).run_feasible()?;
    println!(
        "\noptimized timers: [{}]",
        assignment.timers.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
    );

    // 3. Verify in the cycle-accurate simulator.
    let spec =
        SystemSpec::builder().core(Criticality::new(2)?).core(Criticality::new(2)?).build()?;
    let outcome =
        run_experiment(&spec, &Protocol::Cohort { timers: assignment.timers.clone() }, &workload)?;
    outcome.check_soundness().map_err(std::io::Error::other)?;

    // 4. Close the loop: plug the analytical WCML bounds back into the RTA.
    for (task, bound) in tasks.iter_mut().zip(&assignment.bounds) {
        task.wcml = bound.wcml.expect("timed cores are bounded");
    }
    let responses = response_times(&tasks)?;
    println!("\ntask            WCML bound    response time    period   ");
    for (task, response) in tasks.iter().zip(&responses) {
        println!(
            "{:<14} {:>11} {:>16} {:>9}",
            task.name,
            task.wcml.get(),
            response.map_or_else(|| "MISSED".into(), |r| r.get().to_string()),
            task.period.get()
        );
    }
    assert!(is_schedulable(&tasks)?);
    println!("\nThe task set is schedulable on the configured hardware, and the");
    println!("simulator confirmed every measured latency sits under its bound.");
    Ok(())
}
