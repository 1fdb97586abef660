//! Genetic-algorithm optimization engine for coherence timer configuration.
//!
//! Implements §V of the CoHoRT paper: an offline optimizer that picks the
//! set of timer thresholds Θ so that every task on a timed core meets its
//! WCML requirement (constraint C1) while the *total average worst-case
//! memory latency* of the system is minimised:
//!
//! ```text
//! minimise  Σ_i (M_hit,i · L_hit + M_miss,i · WCL_i) / M_total,i
//! s.t.      M_hit,j · L_hit + M_miss,j · WCL_j ≤ Γ_j   ∀ timed j   (C1)
//!           1 ≤ θ_i ≤ θ_sat,i
//! ```
//!
//! The Θ→`WCL` relationship is closed-form (Eq. 1), but Θ→`M_hit` depends
//! on the application's memory behaviour, so — exactly as in the paper's
//! Figure 2a — the engine treats the static cache analysis
//! ([`cohort_analysis::guaranteed_hits`]) as a black box: the GA proposes a
//! candidate Θ, the cache model returns the guaranteed hit counts, and the
//! engine scores the candidate.
//!
//! The crate provides a reusable, deterministic [`GeneticAlgorithm`] over
//! bounded integer chromosomes and the CoHoRT-specific [`TimerProblem`] /
//! [`GaRun`] driver on top of it. The engine has two entry points,
//! [`GeneticAlgorithm::run`] and [`GeneticAlgorithm::resume`]. It breeds
//! each generation sequentially from its seed, then scores the offspring
//! batch across scoped worker threads — **parallel runs are bit-identical
//! to serial runs** — with a genome-keyed fitness memo, optional early
//! stopping (stall / target / evaluation budget), a [`GaObserver`]
//! progress hook and JSON [`GaCheckpoint`] snapshots that `resume`
//! continues exactly where they left off.
//!
//! # Examples
//!
//! ```
//! use cohort_optim::{GaRun, TimerProblem};
//! use cohort_trace::micro;
//! use cohort_types::{Cycles, LatencyConfig};
//!
//! // Two timed cores with a generous requirement: the GA finds timers that
//! // keep both bounds under budget.
//! let workload = micro::line_bursts(2, 4, 50);
//! let problem = TimerProblem::builder(&workload)
//!     .timed(0, Some(Cycles::new(100_000)))
//!     .timed(1, Some(Cycles::new(100_000)))
//!     .build()?;
//! let assignment = GaRun::new(&problem).run_feasible()?;
//! assert!(assignment.feasible);
//! assert!(assignment.timers[0].is_timed());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod ga;
mod observer;
mod timer_problem;

pub use checkpoint::{CheckpointFile, GaCheckpoint};
pub use ga::{GaConfig, GaOutcome, GeneticAlgorithm, Individual, SearchSpace, StopReason};
pub use observer::{GaObserver, GenerationReport};
pub use timer_problem::{GaRun, TimerAssignment, TimerProblem, TimerProblemBuilder};
