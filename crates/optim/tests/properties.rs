//! Property tests of the GA engine and the timer problem, run as seeded
//! case loops: each property checks its fixed regression cases first,
//! then a fixed number of cases drawn from splitmix64 streams. A failure
//! names its case (and the case seed that replays it).

use std::fmt::Debug;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use cohort_optim::{
    GaCheckpoint, GaConfig, GaObserver, GenerationReport, GeneticAlgorithm, SearchSpace,
    TimerProblem,
};
use cohort_trace::micro;
use cohort_types::{Cycles, SplitMix64};

/// Drawn cases per property.
const CASES: u64 = 32;

/// Runs `property` on every `fixed` case, then on [`CASES`] cases drawn
/// by `draw` from the splitmix64 streams seeded `0..CASES`.
fn for_each_case<C: Debug>(
    fixed: Vec<C>,
    draw: impl Fn(&mut SplitMix64) -> C,
    property: impl Fn(&C),
) {
    let drawn = (0..CASES).map(|seed| (Some(seed), draw(&mut SplitMix64::new(seed))));
    for (seed, case) in fixed.into_iter().map(|case| (None, case)).chain(drawn) {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&case))) {
            match seed {
                Some(seed) => eprintln!("property failed for case seed {seed}: {case:?}"),
                None => eprintln!("property failed for fixed case {case:?}"),
            }
            resume_unwind(panic);
        }
    }
}

fn small_config() -> GaConfig {
    GaConfig { population: 12, generations: 6, ..Default::default() }
}

/// One gene per timed core, drawn in `1..hi` and clamped into its θ_sat box.
fn clamped_genes(rng: &mut SplitMix64, hi: u64, problem: &TimerProblem<'_>) -> Vec<u64> {
    problem.theta_saturations().iter().map(|&sat| rng.below(1, hi).min(sat)).collect()
}

/// Captures the checkpoint of one chosen generation.
struct SnapshotAt {
    generation: usize,
    checkpoint: Mutex<Option<GaCheckpoint>>,
}

impl SnapshotAt {
    fn new(generation: usize) -> Self {
        SnapshotAt { generation, checkpoint: Mutex::new(None) }
    }

    fn take(self) -> Option<GaCheckpoint> {
        self.checkpoint.into_inner().unwrap()
    }
}

impl GaObserver for SnapshotAt {
    fn generation_finished(&self, report: &GenerationReport<'_>) {
        if report.generation == self.generation {
            *self.checkpoint.lock().unwrap() = Some(report.checkpoint());
        }
    }
}

/// The GA never emits a chromosome outside the search space, and the
/// convergence history is monotone non-increasing (elitism).
#[test]
fn ga_respects_bounds_and_monotonicity() {
    let draw = |rng: &mut SplitMix64| {
        let bounds: Vec<(u64, u64)> = (0..rng.below(1, 5))
            .map(|_| {
                let lo = rng.below(1, 100);
                (lo, lo + rng.below(0, 5_000))
            })
            .collect();
        (bounds, rng.next_u64())
    };
    for_each_case(Vec::new(), draw, |(bounds, seed)| {
        let space = SearchSpace::new(bounds.clone());
        let ga = GeneticAlgorithm::new(space.clone(), GaConfig { seed: *seed, ..small_config() });
        let outcome = ga.run(&[], &(), |genes| genes.iter().map(|&g| g as f64).sum()).unwrap();
        assert!(space.contains(&outcome.best));
        for w in outcome.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
        // The optimum of a monotone objective is the all-low corner; the
        // GA must at least stay within the objective's range.
        let low: f64 = bounds.iter().map(|&(lo, _)| lo as f64).sum();
        let high: f64 = bounds.iter().map(|&(_, hi)| hi as f64).sum();
        assert!(outcome.best_fitness >= low - 1e-9);
        assert!(outcome.best_fitness <= high + 1e-9);
    });
}

/// Log-scale spaces also respect bounds for extreme ranges.
#[test]
fn log_space_respects_bounds() {
    let draw = |rng: &mut SplitMix64| (rng.below(1, 60_000), rng.next_u64());
    for_each_case(Vec::new(), draw, |&(hi, seed)| {
        let space = SearchSpace::logarithmic(vec![(1, hi); 3]);
        let ga = GeneticAlgorithm::new(space.clone(), GaConfig { seed, ..small_config() });
        let outcome = ga.run(&[], &(), |genes| genes.iter().map(|&g| g as f64).sum()).unwrap();
        assert!(space.contains(&outcome.best));
    });
}

/// Identical (problem, config) pairs give identical outcomes.
#[test]
fn ga_is_deterministic() {
    for_each_case(Vec::new(), SplitMix64::next_u64, |&seed| {
        let space = SearchSpace::new(vec![(0, 999); 3]);
        let config = GaConfig { seed, ..small_config() };
        let f = |genes: &[u64]| genes.iter().map(|&g| (g as f64 - 500.0).abs()).sum();
        let a = GeneticAlgorithm::new(space.clone(), config.clone()).run(&[], &(), f).unwrap();
        let b = GeneticAlgorithm::new(space, config).run(&[], &(), f).unwrap();
        assert_eq!(a, b);
    });
}

/// Parallel evaluation is bit-identical to serial for any seed and any
/// `(seed, population, workers)` combination — including the evaluation
/// and cache-hit counters.
#[test]
fn parallel_run_is_bit_identical_to_serial() {
    let fixed = vec![(0u64, 12usize, 2usize), (1, 7, 3), (0xDEAD_BEEF, 16, 8), (42, 5, 4)];
    let draw = |rng: &mut SplitMix64| {
        (rng.next_u64(), rng.below(4, 24) as usize, rng.below(2, 9) as usize)
    };
    for_each_case(fixed, draw, |&(seed, population, workers)| {
        let space = SearchSpace::new(vec![(0, 50_000); 4]);
        let f = |genes: &[u64]| genes.iter().map(|&g| (g as f64 - 25_000.0).abs()).sum::<f64>();
        let run = |workers| {
            GeneticAlgorithm::new(
                space.clone(),
                GaConfig { seed, population, workers, ..small_config() },
            )
            .run(&[vec![42, 42, 42, 42]], &(), f)
            .unwrap()
        };
        assert_eq!(run(1), run(workers));
    });
}

/// A checkpoint taken after any generation, round-tripped through its
/// JSON codec and resumed, reproduces the uninterrupted run exactly:
/// outcome, history and the evaluation counters.
#[test]
fn checkpoint_resume_reproduces_the_uninterrupted_run() {
    let fixed = vec![(0u64, 0usize, 1usize), (7, 3, 2), (99, 6, 4)];
    let draw =
        |rng: &mut SplitMix64| (rng.next_u64(), rng.below(0, 7) as usize, rng.below(1, 5) as usize);
    for_each_case(fixed, draw, |&(seed, cut_after, workers)| {
        let space = SearchSpace::new(vec![(1, 9_999); 3]);
        let f = |genes: &[u64]| genes.iter().map(|&g| (g as f64 - 777.0).powi(2)).sum::<f64>();
        let config = GaConfig { seed, generations: 8, workers, ..small_config() };
        let ga = GeneticAlgorithm::new(space, config);

        let snap = SnapshotAt::new(cut_after);
        let full = ga.run(&[], &snap, f).unwrap();
        let checkpoint = snap.take().expect("observed generation ran");
        let restored = GaCheckpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(ga.resume(&restored, &(), f).unwrap(), full);
    });
}

/// A feasible seed never makes the outcome infeasible: fitness of the
/// GA's best is ≤ the seed's fitness (elitism preserves it).
#[test]
fn seeding_never_hurts() {
    let workload = micro::line_bursts(2, 4, 40);
    let problem = TimerProblem::builder(&workload)
        .timed(0, Some(Cycles::new(1_000_000)))
        .timed(1, None)
        .build()
        .unwrap();
    for_each_case(
        Vec::new(),
        |rng| clamped_genes(rng, 40, &problem),
        |seed| {
            let ga = GeneticAlgorithm::new(problem.search_space(), small_config());
            let outcome = ga.run(std::slice::from_ref(seed), &(), |g| problem.fitness(g)).unwrap();
            assert!(outcome.best_fitness <= problem.fitness(seed) + 1e-9);
        },
    );
}

/// The timer-problem fitness is a pure function of the genes.
#[test]
fn fitness_is_pure() {
    let workload = micro::line_bursts(2, 3, 30);
    let problem = TimerProblem::builder(&workload).timed(0, None).timed(1, None).build().unwrap();
    for_each_case(
        Vec::new(),
        |rng| clamped_genes(rng, 64, &problem),
        |genes| {
            assert_eq!(problem.fitness(genes), problem.fitness(genes));
        },
    );
}

#[test]
fn timer_solve_is_identical_serial_and_parallel() {
    // The real fitness (cache analysis + Eq. 1) through `GaRun`, serial vs
    // parallel: the shipped Mode-Switch LUT must not depend on the host's
    // core count.
    let workload = micro::line_bursts(2, 4, 60);
    let problem = TimerProblem::builder(&workload)
        .timed(0, Some(Cycles::new(1_000_000)))
        .timed(1, None)
        .build()
        .unwrap();
    let serial = cohort_optim::GaRun::new(&problem)
        .config(&GaConfig { population: 12, generations: 8, workers: 1, ..Default::default() })
        .run();
    let parallel = cohort_optim::GaRun::new(&problem)
        .config(&GaConfig { population: 12, generations: 8, workers: 6, ..Default::default() })
        .run();
    assert_eq!(serial, parallel);
}
