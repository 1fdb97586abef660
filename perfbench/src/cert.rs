//! `cert`: a Monte Carlo certification campaign through the fleet, cold
//! over a fresh persistent store, then replayed from that store.
//!
//! Untraced passes call `run_certification` for both legs. Traced passes
//! run the cold leg (and the same campaign without a store) through the
//! same public fleet calls `run_certification` makes, so each
//! `FleetClient::submit` and `wait_timeout` is timed from here; the replay
//! leg still goes through `run_certification` and must reproduce the
//! instrumented leg's aggregates bit for bit. Direct `run_trial` and
//! `CertBatch::execute` calls on the first sixteenth of the campaign give
//! the per-trial and per-batch costs.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::Value;

use cohort_analysis::PeriodicTask;
use cohort_cert::{
    minimize_conviction, run_certification, Campaign, CertBatch, CertConfig, CertOutcome,
    FaultAggregate, SchedAggregate,
};
use cohort_fleet::{Fleet, FleetHealth, JobSpec};
use cohort_sim::{FaultPlan, SimBuilder};
use cohort_types::{Error, Result};

use crate::sim::SimTotals;
use crate::tracer::Tracer;
use crate::{digest_of, stats, timed, workers, Checks, Sample, Scratch};

/// Fault-injection trials per campaign (a quarter are control trials).
const FAULT_TRIALS: u64 = 8_192;
/// Schedulability trials per campaign.
const SCHED_TRIALS: u64 = 32_768;
/// Trials per fleet job: 512 + 2,048 = 2,560 jobs.
const BATCH_TRIALS: u64 = 16;
/// Seeds directly sampled on traced passes: the first sixteenth of each
/// campaign, enough for a p99 with ten samples above it.
const SAMPLED: (u64, u64) = (FAULT_TRIALS / 16, SCHED_TRIALS / 16);
/// Schedulability seeds start this far above the fault seeds, as in
/// `run_certification`.
const SCHED_OFFSET: u64 = 1 << 32;
/// Bound on each fleet wait.
const WAIT: Duration = Duration::from_mins(10);

/// The certification workload; its stores live in the run's scratch area.
pub struct Cert<'s> {
    pub scratch: &'s Scratch,
}

/// The campaign and every trial input its seeds generate.
///
/// `run_certification` generates each trial's inputs again inside its
/// fleet jobs; these copies give `setup_s` its work (trace, plan and task
/// set generation) and let repeated set-ups be compared.
pub struct Inputs {
    config: CertConfig,
    traces: Vec<cohort_trace::Workload>,
    plans: Vec<FaultPlan>,
    sets: Vec<(u64, Vec<PeriodicTask>)>,
}

impl crate::Workload for Cert<'_> {
    type Inputs = Inputs;

    fn setup(&self, seed: u64, tracer: Option<&Tracer>) -> Result<Inputs> {
        let config = CertConfig {
            fault_trials: FAULT_TRIALS,
            sched_trials: SCHED_TRIALS,
            batch_trials: BATCH_TRIALS,
            shards: workers(),
            base_seed: seed << 24,
            counterexample_dir: None,
            store_dir: None,
            ..CertConfig::default()
        };
        // Every trial's inputs, generated from its seed: the fault trials'
        // traces and plans, and the schedulability trials' task sets.
        let fault_seeds = config.base_seed..config.base_seed + FAULT_TRIALS;
        let space = &config.fault_space;
        let traces = timed(tracer, "trace", "trace.generate", || {
            fault_seeds.clone().map(|s| space.workload(s)).collect()
        });
        let (plans, sets) = timed(tracer, "cert", "cert.sample_inputs", || {
            let plans = fault_seeds.clone().map(|s| space.plan(s)).collect();
            let sched_base = config.base_seed + SCHED_OFFSET;
            let sets = (sched_base..sched_base + SCHED_TRIALS)
                .map(|s| config.sched_space.sample(s))
                .collect::<Result<Vec<_>>>()?;
            Ok::<_, Error>((plans, sets))
        })?;
        Ok(Inputs { config, traces, plans, sets })
    }

    fn fingerprint(inputs: &Inputs) -> u64 {
        let traces: Vec<u128> = inputs
            .traces
            .iter()
            .flat_map(|w| w.traces().iter().map(cohort_trace::Trace::fingerprint))
            .collect();
        digest_of(&(traces, &inputs.plans, &inputs.sets))
    }

    fn pass(
        &self,
        inputs: &Inputs,
        tracer: Option<&Tracer>,
        checks: &mut Checks,
    ) -> Result<Sample> {
        let store = self.scratch.fresh("store");
        let persistent = CertConfig { store_dir: Some(store.clone()), ..inputs.config.clone() };
        let result = match tracer {
            None => plain_pass(&persistent, checks),
            Some(t) => traced_pass(&persistent, inputs, t, checks),
        };
        remove(&store);
        result
    }
}

fn remove(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        eprintln!("could not remove {}: {e}", dir.display());
    }
}

/// Both legs through `run_certification`.
fn plain_pass(config: &CertConfig, checks: &mut Checks) -> Result<Sample> {
    let start = Instant::now();
    let cold = run_certification(config)?;
    let cold_s = start.elapsed().as_secs_f64();
    let warm = run_certification(config)?;
    let wall_s = start.elapsed().as_secs_f64();
    check_legs(config, &cold, &warm, checks);
    Ok(sample(config, &cold, wall_s, cold_s))
}

/// The cold and in-memory legs through the instrumented fleet loop, the
/// replay through `run_certification`, then the direct samples.
fn traced_pass(
    config: &CertConfig,
    inputs: &Inputs,
    t: &Tracer,
    checks: &mut Checks,
) -> Result<Sample> {
    let start = Instant::now();
    let cold = t.span("cert", "cert.campaign", || campaign(config, Some(t)))?;
    let cold_s = start.elapsed().as_secs_f64();
    let warm = t.span("fleet", "fleet.replay", || run_certification(config))?;
    let wall_s = start.elapsed().as_secs_f64();
    check_legs(config, &cold, &warm, checks);

    let in_memory = CertConfig { store_dir: None, ..config.clone() };
    let memory_start = Instant::now();
    let memory = t.span("cert", "cert.campaign_in_memory", || campaign(&in_memory, None))?;
    let memory_s = memory_start.elapsed().as_secs_f64();
    checks.check(aggregates(&memory) == aggregates(&cold), || {
        "the in-memory campaign's aggregates differ from the persistent one's".into()
    });

    let mut s = sample(config, &cold, wall_s, cold_s);
    let layers = &mut s.layers;
    let (fault_us, sched_us) = t.span("cert", "cert.trials", || trial_times(config))?;
    let pct = |v: &[f64], p| stats::percentile(v, p).unwrap_or(f64::NAN);
    layers.insert("cert.fault_trial_us.p50", pct(&fault_us, 50.0));
    layers.insert("cert.fault_trial_us.p99", pct(&fault_us, 99.0));
    layers.insert("cert.sched_trial_us.p50", pct(&sched_us, 50.0));
    layers.insert("cert.sched_trial_us.p99", pct(&sched_us, 99.0));
    execute_batches(config, t)?;
    let (totals, run_s) = direct_sims(config, t)?;
    layers.insert("sim.ns_per_access", run_s * 1e9 / totals.accesses as f64);
    layers.insert("result.bus_utilisation", totals.bus_utilisation());
    totals.insert(layers);

    let (cold_stats, warm_stats) = (&cold.stats, &warm.stats);
    let both = |f: fn(&FleetHealth) -> u64| (f(&cold_stats.health) + f(&warm_stats.health)) as f64;
    let accesses: u64 = inputs.traces.iter().map(cohort_trace::Workload::total_accesses).sum();
    layers.insert("trace.accesses", accesses as f64);
    layers.insert("fleet.persist_s", cold_s - memory_s);
    layers.insert("fleet.jobs", cold.jobs as f64);
    layers.insert("fleet.executed", cold_stats.executed as f64);
    layers.insert("fleet.store_hits", warm_stats.store_hits as f64);
    layers.insert("fleet.deduplicated", cold_stats.queue.deduplicated as f64);
    let replayed = warm.jobs - warm_stats.executed;
    layers.insert("fleet.replay_hit_rate", replayed as f64 / warm.jobs as f64);
    layers.insert("fleet.reclaims", both(|h| h.reclaims));
    layers.insert("fleet.disk_retries", both(|h| h.disk_retries));
    layers.insert("fleet.disk_give_ups", both(|h| h.disk_give_ups));
    let fault = &cold.fault;
    let convictions = fault.detected.successes + fault.false_convictions.successes;
    layers.insert("cert.convictions", convictions as f64);
    layers.insert("result.detection_rate", fault.detected.value());
    Ok(s)
}

fn aggregates(outcome: &CertOutcome) -> String {
    outcome.aggregate_json().to_string()
}

/// The checks both kinds of pass make on a cold leg and its replay.
fn check_legs(config: &CertConfig, cold: &CertOutcome, warm: &CertOutcome, checks: &mut Checks) {
    checks.check(cold.stats.executed == cold.jobs, || {
        format!("cold leg executed {} of {} jobs", cold.stats.executed, cold.jobs)
    });
    checks.check(warm.stats.executed == 0, || {
        format!("the replay executed {} jobs afresh", warm.stats.executed)
    });
    checks.check(aggregates(cold) == aggregates(warm), || {
        "the replay's aggregates differ from the cold leg's".into()
    });
    let trials = cold.fault.trials + cold.sched.trials;
    checks.check(trials == config.fault_trials + config.sched_trials, || {
        format!("{trials} trials accounted for")
    });
    for c in &cold.counterexamples {
        checks.check(c.reconvicts && c.replay_clean, || {
            format!("counterexample {} does not reconvict or replay clean", c.seed)
        });
    }
}

fn sample(config: &CertConfig, cold: &CertOutcome, wall_s: f64, cold_s: f64) -> Sample {
    Sample {
        wall_s,
        throughput_per_s: (config.fault_trials + config.sched_trials) as f64 / cold_s,
        result_score: cold.fault.detected.value(),
        digest: digest_of(&aggregates(cold)),
        ..Sample::default()
    }
}

/// `batch`-sized seed blocks covering `trials` seeds from `base`.
fn blocks(base: u64, trials: u64, batch: u64) -> impl Iterator<Item = (u64, u64)> {
    (0..trials).step_by(batch as usize).map(move |start| (base + start, batch.min(trials - start)))
}

/// The campaign's batches, fault first, in submission order.
fn batches(config: &CertConfig, fault: u64, sched: u64) -> Vec<CertBatch> {
    let fault_space = Campaign::Fault(config.fault_space.clone());
    let sched_space = Campaign::Sched(config.sched_space.clone());
    let batch = config.batch_trials;
    blocks(config.base_seed, fault, batch)
        .map(|(seed_start, trials)| CertBatch { campaign: fault_space.clone(), seed_start, trials })
        .chain(blocks(config.base_seed + SCHED_OFFSET, sched, batch).map(|(seed_start, trials)| {
            CertBatch { campaign: sched_space.clone(), seed_start, trials }
        }))
        .collect()
}

/// `run_certification`'s fleet loop, with every submit, wait and
/// minimization spanned when `t` is set.
fn campaign(config: &CertConfig, t: Option<&Tracer>) -> Result<CertOutcome> {
    let mut builder = Fleet::builder().shards(config.shards.max(1));
    if let Some(dir) = &config.store_dir {
        builder = builder.store_dir(dir);
    }
    let fleet = builder.build()?;
    let client = fleet.client();
    let mut tickets = Vec::new();
    for batch in batches(config, config.fault_trials, config.sched_trials) {
        let spec = JobSpec::Certify { batch: Arc::new(batch) };
        tickets.push(timed(t, "fleet", "fleet.submit", || client.submit(spec))?);
    }
    let mut fault = FaultAggregate::default();
    let mut sched = SchedAggregate::default();
    for ticket in &tickets {
        let payload = timed(t, "fleet", "fleet.wait", || client.wait_timeout(ticket, WAIT))?;
        let field = |key: &str| {
            payload.get(key).ok_or_else(|| Error::Codec(format!("batch payload lacks `{key}`")))
        };
        if let Some(error) = payload.get("error") {
            return Err(Error::InvalidConfig(format!("certification batch failed: {error}")));
        }
        match field("campaign")?.as_str() {
            Some("fault") => fault.merge(&FaultAggregate::from_json(field("aggregate")?)?),
            Some("sched") => sched.merge(&SchedAggregate::from_json(field("aggregate")?)?)?,
            other => return Err(Error::Codec(format!("unknown campaign {other:?}"))),
        }
    }
    let stats = fleet.shutdown();
    let mut seeds = fault.convicting_seeds.clone();
    seeds.sort_unstable();
    seeds.dedup();
    let mut counterexamples = Vec::new();
    for seed in seeds.into_iter().take(config.minimize_limit) {
        let found =
            timed(t, "cert", "cert.minimize", || minimize_conviction(&config.fault_space, seed))?;
        counterexamples.extend(found);
    }
    let jobs = tickets.len() as u64;
    Ok(CertOutcome { fault, sched, counterexamples, jobs, stats })
}

/// Microseconds per direct `run_trial` call over the sampled seeds.
fn trial_times(config: &CertConfig) -> Result<(Vec<f64>, Vec<f64>)> {
    let micros = |start: Instant| start.elapsed().as_secs_f64() * 1e6;
    let mut fault = Vec::new();
    for seed in config.base_seed..config.base_seed + SAMPLED.0 {
        let start = Instant::now();
        config.fault_space.run_trial(seed)?;
        fault.push(micros(start));
    }
    let mut sched = Vec::new();
    let base = config.base_seed + SCHED_OFFSET;
    for seed in base..base + SAMPLED.1 {
        let start = Instant::now();
        config.sched_space.run_trial(seed)?;
        sched.push(micros(start));
    }
    Ok((fault, sched))
}

/// Direct `CertBatch::execute` over the sampled seeds' batches.
fn execute_batches(config: &CertConfig, t: &Tracer) -> Result<()> {
    for batch in batches(config, SAMPLED.0, SAMPLED.1) {
        let payload: Value = t.span("cert", "cert.batch", || batch.execute())?;
        if payload.get("aggregate").is_none() {
            return Err(Error::Codec("batch payload lacks `aggregate`".into()));
        }
    }
    Ok(())
}

/// The simulator part of the sampled fault trials, built and run directly
/// (without the watchdog): exact counters and the seconds spent running.
fn direct_sims(config: &CertConfig, t: &Tracer) -> Result<(SimTotals, f64)> {
    let space = &config.fault_space;
    let sim_config = space.config()?;
    let mut totals = SimTotals::default();
    let mut run_s = 0.0;
    for seed in config.base_seed..config.base_seed + SAMPLED.0 {
        let workload = timed(Some(t), "trace", "trace.generate", || space.workload(seed));
        let mut sim = timed(Some(t), "sim", "sim.build", || {
            SimBuilder::new(sim_config.clone(), &workload).faults(space.plan(seed)).build()
        })?;
        let start = Instant::now();
        let stats = timed(Some(t), "sim", "sim.run", || sim.run())?;
        run_s += start.elapsed().as_secs_f64();
        totals.add(&stats);
    }
    Ok((totals, run_s))
}
