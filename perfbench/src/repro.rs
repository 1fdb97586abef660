//! `repro`: the default-scale paper regeneration, as the `repro` binary
//! runs it, with the benchmark timing each layer call itself.
//!
//! Per criticality configuration and kernel: the reference analysis, the
//! θ-saturation sweep of `TimerProblem::build`, the GA, and a `Sweep` of
//! CoHoRT, PCC, PENDULUM and MSI+FCFS; then the Fig. 7 `ModeSetup` and the
//! controller's mode walk. The process-wide analysis memo is emptied before
//! every pass, so each pass starts as cold as a user's run does.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cohort::{
    ExperimentJob, JobProgress, ModeController, ModeSetup, Protocol, Sweep, SweepObserver,
};
use cohort_analysis::{analysis_cache, analyze_cohort};
use cohort_bench::{
    bench_ga, fig7_stage_requirements, mode_switch_spec, CritConfig, CORES, GAMMA_SLACK_PERCENT,
    PENDULUM_THETA,
};
use cohort_optim::{GaConfig, GaObserver, GaRun, GenerationReport, TimerProblem};
use cohort_sim::SimStats;
use cohort_trace::{Kernel, KernelSpec, Workload};
use cohort_types::{CoreId, Cycles, Mode, Result, TimerValue};

use crate::sim::SimTotals;
use crate::tracer::Tracer;
use crate::{digest_of, stats, timed, workers, Checks, Sample};

/// The Fig. 7 walk the controller must take over the three stages.
const FIG7_WALK: [Option<u32>; 3] = [Some(1), Some(3), Some(4)];

/// The regeneration workload.
pub struct Repro;

/// The kernels of Figs. 5–7 at one scale.
pub struct Kernels {
    kernels: Vec<Workload>,
    fft: Workload,
}

/// Generated inputs: the default-scale kernels and the GA settings.
pub struct Inputs {
    seed: u64,
    full: Kernels,
    ga: GaConfig,
}

fn kernels(seed: u64, scale_down: u64, tracer: Option<&Tracer>) -> Kernels {
    let generate = |k: Kernel| {
        let spec = KernelSpec::new(k, CORES)
            .with_total_requests(k.default_total_requests() / scale_down)
            .with_seed(seed);
        timed(tracer, "trace", "trace.generate", || spec.generate())
    };
    Kernels { kernels: Kernel::ALL.into_iter().map(generate).collect(), fft: generate(Kernel::Fft) }
}

impl crate::Workload for Repro {
    type Inputs = Inputs;

    fn setup(&self, seed: u64, tracer: Option<&Tracer>) -> Result<Inputs> {
        let ga = GaConfig { seed, workers: workers(), ..bench_ga(false) };
        Ok(Inputs { seed, full: kernels(seed, 1, tracer), ga })
    }

    fn fingerprint(inputs: &Inputs) -> u64 {
        let traces: Vec<u128> = inputs
            .full
            .kernels
            .iter()
            .chain([&inputs.full.fft])
            .flat_map(|w| w.traces().iter().map(cohort_trace::Trace::fingerprint))
            .collect();
        digest_of(&(traces, &inputs.ga))
    }

    fn warmup(&self, inputs: &Inputs, checks: &mut Checks) -> Result<()> {
        // A tenth of the default scale: the same code paths, a fraction of
        // the time.
        regenerate(&kernels(inputs.seed, 10, None), &inputs.ga, None, checks).map(drop)
    }

    fn pass(
        &self,
        inputs: &Inputs,
        tracer: Option<&Tracer>,
        checks: &mut Checks,
    ) -> Result<Sample> {
        regenerate(&inputs.full, &inputs.ga, tracer, checks)
    }
}

/// Regenerates Figs. 5–7 from cold analysis memo.
fn regenerate(
    inputs: &Kernels,
    ga: &GaConfig,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> Result<Sample> {
    analysis_cache().clear();
    let start = Instant::now();
    let jobs = JobTally::new(tracer);
    let gens = GaTally::new(tracer);
    let mut totals = SimTotals::default();
    let (mut sweep_s, mut pcc_ratios, mut slowdowns) = (0.0, Vec::new(), Vec::new());
    let (mut evaluations, mut cache_hits) = (0u64, 0u64);
    let mut exact = Vec::new();

    for config in CritConfig::ALL {
        let spec = config.spec();
        let mask = config.critical_mask();
        let mut pend_ratios = Vec::new();
        let mut config_pcc = Vec::new();
        for workload in &inputs.kernels {
            let reference: Vec<TimerValue> = mask
                .iter()
                .map(|&c| if c { TimerValue::timed(20).expect("small") } else { TimerValue::MSI })
                .collect();
            let ref_bounds = timed(tracer, "analysis", "analysis.reference", || {
                analyze_cohort(workload, &reference, spec.latency(), spec.l1(), spec.llc())
            })?;
            let mut builder = TimerProblem::builder(workload)
                .latency(*spec.latency())
                .l1(*spec.l1())
                .llc(*spec.llc());
            for (i, &critical) in mask.iter().enumerate() {
                if critical {
                    let gamma = ref_bounds[i]
                        .wcml
                        .map(|w| Cycles::new(w.get() * GAMMA_SLACK_PERCENT / 100));
                    builder = builder.timed(i, gamma);
                }
            }
            let problem =
                timed(tracer, "analysis", "analysis.theta_saturation", || builder.build())?;
            gens.begin(false);
            let outcome = timed(tracer, "optim", "optim.ga", || {
                GaRun::new(&problem).config(ga).observer(&gens).run()
            });
            evaluations += outcome.evaluations;
            cache_hits += outcome.cache_hits;
            let timers = problem.timers_from_genes(&outcome.best);

            let shared = Arc::new(workload.clone());
            let protocols = [
                Protocol::Cohort { timers: timers.clone() },
                Protocol::Pcc,
                Protocol::Pendulum { critical: mask.clone(), theta: PENDULUM_THETA },
                Protocol::MsiFcfs,
            ];
            let sweep_start = Instant::now();
            let runs = timed(tracer, "cohort", "cohort.sweep", || {
                jobs.set_parent(tracer.and_then(Tracer::current));
                Sweep::builder()
                    .jobs(protocols.into_iter().map(|p| {
                        let label = format!("{}/{}/{}", config.slug(), workload.name(), p.slug());
                        ExperimentJob::new(spec.clone(), p, Arc::clone(&shared)).with_label(label)
                    }))
                    .workers(workers())
                    .observer(&jobs)
                    .build()
                    .run()
                    .into_outcomes()
            })?;
            sweep_s += sweep_start.elapsed().as_secs_f64();

            for run in &runs {
                checks.check(run.check_soundness().is_ok(), || {
                    format!("soundness: {}", run.check_soundness().unwrap_err())
                });
                totals.add(&run.stats);
            }
            let (cohort, pcc, pendulum, fcfs) = (&runs[0], &runs[1], &runs[2], &runs[3]);
            let wcml = |run: &cohort::ExperimentOutcome, core: usize| {
                run.bounds.as_ref().and_then(|b| b[core].wcml).map(|w| w.get() as f64)
            };
            for core in (0..CORES).filter(|&c| mask[c]) {
                let c = wcml(cohort, core).unwrap_or(f64::NAN);
                config_pcc.push(wcml(pcc, core).unwrap_or(f64::NAN) / c);
                if let Some(p) = wcml(pendulum, core) {
                    pend_ratios.push(p / c);
                }
            }
            slowdowns.push(cohort.execution_time() as f64 / fcfs.execution_time() as f64);
            exact.push((timers, runs.iter().map(|r| r.stats.clone()).collect::<Vec<SimStats>>()));
        }
        let pcc_g = stats::geomean(&config_pcc).unwrap_or(f64::NAN);
        let pend_g = stats::geomean(&pend_ratios).unwrap_or(f64::NAN);
        checks.check(1.0 < pcc_g && pcc_g < pend_g, || {
            format!(
                "Fig. 5 ordering CoHoRT < PCC < PENDULUM fails on {}: PCC/CoHoRT {pcc_g:.3}, \
                 PENDULUM/CoHoRT {pend_g:.3}",
                config.slug()
            )
        });
        pcc_ratios.extend(config_pcc);
    }

    // Fig. 7: offline LUT + per-mode bounds, then the controller's walk.
    let spec = mode_switch_spec();
    let modes = timed(tracer, "cohort", "cohort.modesetup", || {
        gens.begin(true);
        ModeSetup::new(&spec, &inputs.fft).ga(ga).observer(&gens).run()
    })?;
    let c0 = CoreId::new(0);
    let bounds = (1..=4)
        .map(|m| {
            let bound = modes.wcml_bound(c0, Mode::new(m)?)?;
            Ok(bound.map_or(0, Cycles::get))
        })
        .collect::<Result<Vec<u64>>>()?;
    let mut controller = ModeController::new(modes.clone());
    let walk = fig7_stage_requirements(&bounds)
        .iter()
        .map(|&gamma| Ok(controller.requirement_changed(c0, Cycles::new(gamma))?.mode()))
        .collect::<Result<Vec<Option<Mode>>>>()?;
    let walk: Vec<Option<u32>> = walk.into_iter().map(|m| m.map(Mode::index)).collect();
    checks.check(walk == FIG7_WALK, || format!("Fig. 7 walk {walk:?}, expected m1→m3→m4"));
    let wall_s = start.elapsed().as_secs_f64();

    let wcml_ratio = stats::geomean(&pcc_ratios).unwrap_or(f64::NAN);
    let slowdown = stats::geomean(&slowdowns).unwrap_or(f64::NAN);
    let lut: Vec<Vec<i32>> =
        modes.entries.iter().map(|e| e.timers.iter().map(|t| t.encode()).collect()).collect();
    let mut sample = Sample {
        wall_s,
        throughput_per_s: totals.cycles as f64 / sweep_s,
        result_score: wcml_ratio,
        digest: digest_of(&(exact, &bounds, &walk, &lut, wcml_ratio.to_bits(), slowdown.to_bits())),
        ..Sample::default()
    };
    if tracer.is_some() {
        let memo = analysis_cache().stats();
        let (setup_evals, setup_hits, generations) = gens.totals();
        let (evaluations, cache_hits) = (evaluations + setup_evals, cache_hits + setup_hits);
        let sweep_busy = jobs.busy().as_secs_f64();
        let layers = &mut sample.layers;
        let accesses: u64 = inputs.kernels.iter().map(Workload::total_accesses).sum();
        layers.insert("trace.accesses", accesses as f64);
        layers.insert("analysis.lookups", memo.lookups as f64);
        layers.insert("analysis.walks", (memo.lookups - memo.hits) as f64);
        layers.insert("analysis.memo_entries", analysis_cache().len() as f64);
        layers.insert("analysis.memo_hit_rate", memo.hit_ratio());
        layers.insert("optim.evaluations", evaluations as f64);
        layers.insert("optim.cache_hits", cache_hits as f64);
        layers.insert("optim.memo_hit_rate", cache_hits as f64 / (evaluations + cache_hits) as f64);
        layers.insert("optim.generations", generations as f64);
        layers.insert("cohort.pool_efficiency", sweep_busy / (workers() as f64 * sweep_s));
        layers.insert("result.wcml_pcc_over_cohort", wcml_ratio);
        layers.insert("result.cohort_slowdown", slowdown);
        layers.insert("result.bus_utilisation", totals.bus_utilisation());
        totals.insert(layers);
    }
    Ok(sample)
}

/// Sweep observer: per-job spans (simulation plus the job's bound
/// analysis) under the sweep span, each ending when the job reports and
/// as long as its reported wall time, and the summed job time for the pool
/// efficiency.
struct JobTally<'t> {
    tracer: Option<&'t Tracer>,
    parent: Mutex<Option<usize>>,
    busy: Mutex<Duration>,
}

impl<'t> JobTally<'t> {
    fn new(tracer: Option<&'t Tracer>) -> Self {
        JobTally { tracer, parent: Mutex::default(), busy: Mutex::default() }
    }

    fn set_parent(&self, parent: Option<usize>) {
        *self.parent.lock().expect("observer never panics") = parent;
    }

    fn busy(&self) -> Duration {
        *self.busy.lock().expect("observer never panics")
    }
}

impl SweepObserver for JobTally<'_> {
    fn job_finished(&self, _index: usize, _label: &str, progress: &JobProgress) {
        let end = Instant::now();
        *self.busy.lock().expect("observer never panics") += progress.wall_time;
        if let Some(t) = self.tracer {
            let start = end.checked_sub(progress.wall_time).unwrap_or(end);
            let parent = *self.parent.lock().expect("observer never panics");
            t.record("sim", "sim.experiment", start, end, parent);
        }
    }
}

/// GA observer: counts generations. Inside `ModeSetup`, where the
/// benchmark cannot wrap each GA call, it also records every generation as
/// an `optim` span starting where the previous report ended, and tallies
/// the runs' evaluations and memo hits from the cumulative reports.
struct GaTally<'t> {
    tracer: Option<&'t Tracer>,
    state: Mutex<GaState>,
}

#[derive(Default)]
struct GaState {
    in_modesetup: bool,
    last: Option<Instant>,
    parent: Option<usize>,
    generation: Option<usize>,
    run: (u64, u64),
    finished: (u64, u64),
    generations: u64,
}

impl<'t> GaTally<'t> {
    fn new(tracer: Option<&'t Tracer>) -> Self {
        GaTally { tracer, state: Mutex::default() }
    }

    /// Marks the start of a plain GA run or of a `ModeSetup`.
    fn begin(&self, in_modesetup: bool) {
        let mut s = self.state.lock().expect("observer never panics");
        s.in_modesetup = in_modesetup;
        s.last = Some(Instant::now());
        s.parent = self.tracer.and_then(Tracer::current);
        s.generation = None;
    }

    /// `ModeSetup`'s evaluations and memo hits, and the generations of
    /// every GA run.
    fn totals(&self) -> (u64, u64, u64) {
        let s = self.state.lock().expect("observer never panics");
        (s.finished.0 + s.run.0, s.finished.1 + s.run.1, s.generations)
    }
}

impl GaObserver for GaTally<'_> {
    fn generation_finished(&self, report: &GenerationReport<'_>) {
        let now = Instant::now();
        let mut s = self.state.lock().expect("observer never panics");
        s.generations += 1;
        if !s.in_modesetup {
            return;
        }
        // Reports are cumulative per GA run; a generation index that does
        // not grow starts the next mode's run.
        if s.generation.is_some_and(|g| report.generation <= g) {
            let run = s.run;
            s.finished = (s.finished.0 + run.0, s.finished.1 + run.1);
        }
        s.generation = Some(report.generation);
        s.run = (report.evaluations, report.cache_hits);
        let start = s.last.replace(now).unwrap_or(now);
        if let Some(t) = self.tracer {
            t.record("optim", "optim.generation_in_modesetup", start, now, s.parent);
        }
    }
}
