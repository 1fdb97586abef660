//! `sim`: the simulator alone, through `SimBuilder` with the default event
//! engine, on one thread, used two opposite ways in every pass.
//!
//! The dense, bus-saturated use: the six 4-core paper kernels under the
//! four protocol presets with fixed timers (no GA, no analysis). The
//! sparse use: 64 cores issuing sparse, DRAM-bound accesses, one due core
//! per instant and standing timer waiters on shared lines. Traced passes
//! report the run time of each use, so a change that speeds one up at the
//! other's cost shows.

use std::time::Instant;

use cohort::Protocol;
use cohort_bench::{CritConfig, CORES, PENDULUM_THETA};
use cohort_cert::mix;
use cohort_sim::{CacheGeometry, LlcModel, SimBuilder, SimConfig, SimStats};
use cohort_trace::{Kernel, KernelSpec, Trace, TraceOp, Workload};
use cohort_types::{LatencyConfig, Result, TimerValue};

use crate::tracer::Tracer;
use crate::{digest_of, timed, Checks, Sample};

/// The fixed CoHoRT timer of the dense kernels (the harness's reference θ).
const COHORT_THETA: u64 = 20;

/// Cores, accesses per core and mean compute gap of the sparse machine.
const SPARSE_SHAPE: (usize, usize, u64) = (64, 20_000, 200);

/// The simulator workload.
pub struct Sim;

/// Which use of the simulator a simulation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Dense,
    Sparse,
}

/// Simulations to run: each workload under each of its configurations.
pub struct Inputs {
    runs: Vec<(Shape, Workload, Vec<SimConfig>)>,
}

impl crate::Workload for Sim {
    type Inputs = Inputs;

    fn setup(&self, seed: u64, tracer: Option<&Tracer>) -> Result<Inputs> {
        let mut runs = kernels(seed, tracer)?;
        runs.push(sparse(seed, tracer)?);
        Ok(Inputs { runs })
    }

    fn fingerprint(inputs: &Inputs) -> u64 {
        let runs: Vec<(Vec<u128>, &Vec<SimConfig>)> = inputs
            .runs
            .iter()
            .map(|(_, w, configs)| (w.traces().iter().map(Trace::fingerprint).collect(), configs))
            .collect();
        digest_of(&runs)
    }

    fn pass(
        &self,
        inputs: &Inputs,
        tracer: Option<&Tracer>,
        checks: &mut Checks,
    ) -> Result<Sample> {
        simulate(inputs, tracer, checks)
    }
}

/// The six kernels, each under the four protocol presets.
fn kernels(seed: u64, tracer: Option<&Tracer>) -> Result<Vec<(Shape, Workload, Vec<SimConfig>)>> {
    let spec = CritConfig::AllCr.spec();
    let protocols = [
        Protocol::Cohort { timers: vec![TimerValue::timed(COHORT_THETA)?; CORES] },
        Protocol::Pcc,
        Protocol::Pendulum { critical: vec![true; CORES], theta: PENDULUM_THETA },
        Protocol::MsiFcfs,
    ];
    let configs = protocols.iter().map(|p| p.sim_config(&spec)).collect::<Result<Vec<_>>>()?;
    Ok(Kernel::ALL
        .into_iter()
        .map(|k| {
            let spec = KernelSpec::new(k, CORES).with_seed(seed);
            let workload = timed(tracer, "trace", "trace.generate", || spec.generate());
            (Shape::Dense, workload, configs.clone())
        })
        .collect())
}

/// One sparse DRAM-bound machine.
fn sparse(seed: u64, tracer: Option<&Tracer>) -> Result<(Shape, Workload, Vec<SimConfig>)> {
    let (cores, accesses, gap) = SPARSE_SHAPE;
    let workload =
        timed(tracer, "trace", "trace.generate", || sparse_dram(cores, accesses, gap, seed))?;
    Ok((Shape::Sparse, workload, vec![dram_bound_config(cores)?]))
}

/// Builds and runs every simulation of the inputs once.
fn simulate(inputs: &Inputs, tracer: Option<&Tracer>, checks: &mut Checks) -> Result<Sample> {
    let start = Instant::now();
    // Run time of the dense and of the sparse simulations.
    let (mut dense_s, mut sparse_s) = (0.0, 0.0);
    let mut totals = SimTotals::default();
    let mut all: Vec<SimStats> = Vec::new();
    for (shape, workload, configs) in &inputs.runs {
        for config in configs {
            let mut sim = timed(tracer, "sim", "sim.build", || {
                SimBuilder::new(config.clone(), workload).build()
            })?;
            let run_start = Instant::now();
            let stats = timed(tracer, "sim", "sim.run", || sim.run())?;
            let elapsed = run_start.elapsed().as_secs_f64();
            match shape {
                Shape::Dense => dense_s += elapsed,
                Shape::Sparse => sparse_s += elapsed,
            }
            checks.check(stats.total_accesses() == workload.total_accesses(), || {
                format!(
                    "{}: simulated {} of {} accesses",
                    workload.name(),
                    stats.total_accesses(),
                    workload.total_accesses()
                )
            });
            totals.add(&stats);
            all.push(stats);
        }
    }
    let run_s = dense_s + sparse_s;
    let mut sample = Sample {
        wall_s: start.elapsed().as_secs_f64(),
        throughput_per_s: totals.cycles as f64 / run_s,
        result_score: totals.bus_utilisation(),
        digest: digest_of(&all),
        ..Sample::default()
    };
    if tracer.is_some() {
        let layers = &mut sample.layers;
        let accesses: u64 = inputs.runs.iter().map(|(_, w, _)| w.total_accesses()).sum();
        layers.insert("trace.accesses", accesses as f64);
        layers.insert("sim.dense_run_s", dense_s);
        layers.insert("sim.sparse_run_s", sparse_s);
        layers.insert("sim.ns_per_access", run_s * 1e9 / totals.accesses as f64);
        layers.insert("result.bus_utilisation", totals.bus_utilisation());
        totals.insert(layers);
    }
    Ok(sample)
}

/// Exact simulator counters summed over runs.
#[derive(Debug, Default)]
pub struct SimTotals {
    pub cycles: u64,
    pub accesses: u64,
    pub hits: u64,
    pub misses: u64,
    pub broadcasts: u64,
    pub transfers: u64,
    pub llc_misses: u64,
    pub bus_busy: u64,
}

impl SimTotals {
    pub fn add(&mut self, stats: &SimStats) {
        self.cycles += stats.cycles.get();
        self.accesses += stats.total_accesses();
        self.hits += stats.total_hits();
        self.misses += stats.total_misses();
        self.broadcasts += stats.broadcasts;
        self.transfers += stats.transfers;
        self.llc_misses += stats.llc_misses;
        self.bus_busy += stats.bus_busy.get();
    }

    /// Busy bus cycles over simulated cycles.
    pub fn bus_utilisation(&self) -> f64 {
        self.bus_busy as f64 / self.cycles as f64
    }

    /// Writes the `sim.*` counters.
    pub fn insert(&self, layers: &mut std::collections::BTreeMap<&'static str, f64>) {
        layers.insert("sim.cycles", self.cycles as f64);
        layers.insert("sim.accesses", self.accesses as f64);
        layers.insert("sim.hits", self.hits as f64);
        layers.insert("sim.misses", self.misses as f64);
        layers.insert("sim.broadcasts", self.broadcasts as f64);
        layers.insert("sim.transfers", self.transfers as f64);
        layers.insert("sim.llc_misses", self.llc_misses as f64);
        layers.insert("sim.bus_busy_cycles", self.bus_busy as f64);
    }
}

/// The sparse DRAM-bound shape of the `sim` binary's `sparse_dram`, seeded:
/// each core re-uses a few private lines (which one is drawn per access)
/// behind a compute gap with a per-core seeded stagger, every 256th access
/// is a cold line that misses to DRAM and every 128th a store to a line
/// shared by its group of four cores.
fn sparse_dram(cores: usize, accesses: usize, gap: u64, seed: u64) -> Result<Workload> {
    let traces = (0..cores)
        .map(|core| {
            let base = 1_048_573 * (core as u64 + 1);
            let shared = 0x7fff_0000 + (core as u64 / 4);
            let stagger = gap + 17 * core as u64 + mix(seed, core as u64) % 16;
            let mut cold = 0u64;
            let ops = (0..accesses)
                .map(|i| {
                    if i % 128 == 47 {
                        TraceOp::store(shared).after(stagger)
                    } else if i % 256 == 31 {
                        cold += 1;
                        TraceOp::load(base + 0x1000 + cold).after(stagger)
                    } else {
                        let line = mix(seed, (core as u64) << 32 | i as u64) % 8;
                        TraceOp::load(base + line).after(stagger)
                    }
                })
                .collect();
            Trace::from_ops(ops)
        })
        .collect();
    Workload::new("sparse-dram", traces)
}

/// Finite LLC with DRAM behind it, long per-core timers that keep waiter
/// queues standing on the shared lines, and enough MSHRs that a waiting
/// store does not stop the sparse stream.
fn dram_bound_config(cores: usize) -> Result<SimConfig> {
    SimConfig::builder(cores)
        .latency(LatencyConfig::paper().with_memory(100))
        .llc(LlcModel::Finite(CacheGeometry::new(8 * 1024 * 1024, 64, 16)?))
        .timers(vec![TimerValue::timed(60_000)?; cores])
        .mshr_per_core(4)
        .build()
}
