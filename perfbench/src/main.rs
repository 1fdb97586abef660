//! The workspace benchmark: one command, three workloads, end-to-end
//! metrics by default and per-layer metrics in a separate traced run.
//!
//! ```text
//! cargo run --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro|sim|cert> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run generates its inputs from `--seed`, does one untimed warmup pass,
//! then repeats measured passes until `--seconds` have elapsed and reports
//! medians. Before each pass the inputs are generated again several times;
//! `setup_s` is the median of those set-ups. Every pass is
//! checked; a failed check counts as a failed operation and makes the run
//! exit non-zero. With `--trace 1` untraced and traced passes alternate:
//! the traced ones time the benchmark's calls into each crate and the
//! metrics are the per-layer ones, plus the tracing overhead. The last
//! line of standard output is one JSON object; spans of the last traced
//! pass are written to `.bench_out/`.

mod cert;
mod repro;
mod sim;
mod stats;
mod tracer;

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use cohort_types::Result;
use tracer::{self_times, Tracer};

/// Where run artifacts (span dumps, scratch stores) go, relative to the
/// working directory.
pub const OUT_DIR: &str = ".bench_out";

/// Set-ups before the warmup and again before every untraced pass;
/// `setup_s` is the median of those before the passes.
const SETUPS_PER_PASS: usize = 8;

/// Worker threads for sweeps, GA evaluation and fleet shards: at most two,
/// and never more than the host has.
#[must_use]
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(2)
}

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// every one; what each means per workload is in `interactions.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("result_score", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload never
/// calls reports 0.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("trace.generate_s", "s"),
    ("trace.accesses", "count"),
    ("trace.self_s", "s"),
    ("analysis.setup_s", "s"),
    ("analysis.lookups", "count"),
    ("analysis.walks", "count"),
    ("analysis.memo_entries", "count"),
    ("analysis.memo_hit_rate", "ratio"),
    ("analysis.self_s", "s"),
    ("optim.ga_s", "s"),
    ("optim.evaluations", "count"),
    ("optim.cache_hits", "count"),
    ("optim.memo_hit_rate", "ratio"),
    ("optim.generations", "count"),
    ("optim.self_s", "s"),
    ("sim.build_s", "s"),
    ("sim.run_s", "s"),
    ("sim.dense_run_s", "s"),
    ("sim.sparse_run_s", "s"),
    ("sim.ns_per_access", "ns"),
    ("sim.cycles", "count"),
    ("sim.accesses", "count"),
    ("sim.hits", "count"),
    ("sim.misses", "count"),
    ("sim.broadcasts", "count"),
    ("sim.transfers", "count"),
    ("sim.llc_misses", "count"),
    ("sim.bus_busy_cycles", "count"),
    ("sim.self_s", "s"),
    ("cohort.sweep_s", "s"),
    ("cohort.modesetup_s", "s"),
    ("cohort.pool_efficiency", "ratio"),
    ("cohort.self_s", "s"),
    ("fleet.submit_s", "s"),
    ("fleet.wait_s", "s"),
    ("fleet.persist_s", "s"),
    ("fleet.replay_s", "s"),
    ("fleet.jobs", "count"),
    ("fleet.executed", "count"),
    ("fleet.store_hits", "count"),
    ("fleet.deduplicated", "count"),
    ("fleet.replay_hit_rate", "ratio"),
    ("fleet.reclaims", "count"),
    ("fleet.disk_retries", "count"),
    ("fleet.disk_give_ups", "count"),
    ("fleet.self_s", "s"),
    ("cert.fault_trial_us.p50", "us"),
    ("cert.fault_trial_us.p99", "us"),
    ("cert.sched_trial_us.p50", "us"),
    ("cert.sched_trial_us.p99", "us"),
    ("cert.batch_s", "s"),
    ("cert.convictions", "count"),
    ("cert.self_s", "s"),
    ("bench.self_s", "s"),
    ("bench.pass_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.spans", "count"),
    ("result.wcml_pcc_over_cohort", "ratio"),
    ("result.cohort_slowdown", "ratio"),
    ("result.detection_rate", "ratio"),
    ("result.bus_utilisation", "ratio"),
];

/// Per-layer time metrics that sum the spans of the given names.
const SPAN_METRICS: [(&str, &[&str]); 12] = [
    ("trace.generate_s", &["trace.generate"]),
    ("analysis.setup_s", &["analysis.reference", "analysis.theta_saturation"]),
    ("optim.ga_s", &["optim.ga", "optim.generation_in_modesetup"]),
    ("sim.build_s", &["sim.build"]),
    ("sim.run_s", &["sim.run"]),
    ("cohort.sweep_s", &["cohort.sweep"]),
    ("cohort.modesetup_s", &["cohort.modesetup"]),
    ("fleet.submit_s", &["fleet.submit"]),
    ("fleet.wait_s", &["fleet.wait"]),
    ("fleet.replay_s", &["fleet.replay"]),
    ("cert.batch_s", &["cert.batch"]),
    ("bench.pass_s", &["bench.pass"]),
];

/// Output checks: each one is an attempted operation, each failure a
/// failed one.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Records one check; `what` describes a failure on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// What one measured pass produced.
#[derive(Debug, Default)]
pub struct Sample {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Work per second in the workload's own unit.
    pub throughput_per_s: f64,
    /// The workload's exact result figure (identical on every pass).
    pub result_score: f64,
    /// Digest of every exact output; all passes of a run must agree.
    pub digest: u64,
    /// Per-layer metrics (filled on traced passes).
    pub layers: BTreeMap<&'static str, f64>,
}

/// One benchmark workload.
pub trait Workload {
    /// The generated inputs a pass consumes.
    type Inputs;

    /// Generates the inputs from the seed and builds what the first layer
    /// call needs. Timed as `setup_s`; spanned on traced passes.
    ///
    /// # Errors
    ///
    /// Propagates workspace errors.
    fn setup(&self, seed: u64, tracer: Option<&Tracer>) -> Result<Self::Inputs>;

    /// A digest of the inputs: repeated set-ups from one seed must agree.
    fn fingerprint(inputs: &Self::Inputs) -> u64;

    /// One untimed pass that brings caches, allocator and thread pools to
    /// their steady state; by default an untraced [`Workload::pass`].
    ///
    /// # Errors
    ///
    /// Propagates workspace errors.
    fn warmup(&self, inputs: &Self::Inputs, checks: &mut Checks) -> Result<()> {
        self.pass(inputs, None, checks).map(drop)
    }

    /// One measured pass; `tracer` is set on traced passes.
    ///
    /// # Errors
    ///
    /// Propagates workspace errors.
    fn pass(
        &self,
        inputs: &Self::Inputs,
        tracer: Option<&Tracer>,
        checks: &mut Checks,
    ) -> Result<Sample>;
}

/// Hashes any debug-printable exact output into a digest, streaming the
/// text into the hasher rather than building it in memory.
#[must_use]
pub fn digest_of(value: &impl std::fmt::Debug) -> u64 {
    struct HashWriter(DefaultHasher);
    impl std::fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut writer = HashWriter(DefaultHasher::new());
    std::fmt::write(&mut writer, format_args!("{value:?}")).expect("hashing cannot fail");
    writer.0.finish()
}

/// Runs `f` in a span when tracing, plainly otherwise.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(layer, name, f),
        None => f(),
    }
}

/// A scratch directory under [`OUT_DIR`], removed with everything in it
/// when dropped — also when a pass fails.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
    next: std::cell::Cell<u64>,
}

impl Scratch {
    fn new() -> std::io::Result<Self> {
        let dir = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir, next: std::cell::Cell::new(0) })
    }

    /// A fresh, not yet existing directory path inside the scratch area.
    #[must_use]
    pub fn fresh(&self, stem: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.dir.join(format!("{stem}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.dir) {
            eprintln!("could not remove {}: {e}", self.dir.display());
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <repro|sim|cert> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(mut args: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
    let mut parsed = Args { workload: String::new(), seed: 0, seconds: 10, trace: false };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number `{value}`"));
        match flag.as_str() {
            "--workload" => parsed.workload.clone_from(&value),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => match value.as_str() {
                "0" => parsed.trace = false,
                "1" => parsed.trace = true,
                _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// The figures one run reports.
struct Report {
    checks: Checks,
    metrics: Vec<(&'static str, Value)>,
    trace_dump: Option<Value>,
}

fn metric(name: &'static str, unit: &str, value: f64) -> (&'static str, Value) {
    (name, json!({ "value": value, "unit": unit }))
}

fn median_of(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(f64::NAN)
}

/// Runs [`SETUPS_PER_PASS`] timed set-ups and returns the inputs of the
/// last. Each set-up first drops the previous inputs, so one copy is alive
/// at a time, and must generate inputs whose fingerprint is `expected`
/// (the first set-up's, when it is not yet set).
fn timed_setups<W: Workload>(
    workload: &W,
    seed: u64,
    setup_s: &mut Vec<f64>,
    checks: &mut Checks,
    expected: &mut Option<u64>,
    mut inputs: Option<W::Inputs>,
) -> Result<W::Inputs> {
    for _ in 0..SETUPS_PER_PASS {
        drop(inputs.take());
        let start = Instant::now();
        let fresh = workload.setup(seed, None)?;
        setup_s.push(start.elapsed().as_secs_f64());
        let fingerprint = W::fingerprint(&fresh);
        let want = *expected.get_or_insert(fingerprint);
        checks.check(fingerprint == want, || "one seed generated different inputs".into());
        inputs = Some(fresh);
    }
    Ok(inputs.expect("at least one set-up"))
}

/// Set-up, warmup and the measured loop of one workload.
fn measure<W: Workload>(workload: &W, args: &Args) -> Result<Report> {
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut expected = None;
    let mut inputs =
        timed_setups(workload, args.seed, &mut setup_s, &mut checks, &mut expected, None)?;
    workload.warmup(&inputs, &mut checks)?;
    // Only the set-ups between passes count: the ones before the warmup
    // first-touch a heap the workload has not used yet, and their share of
    // the samples would depend on how many passes fit in the run.
    setup_s.clear();

    let deadline = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last_tracer = None;
    while plain.len() < 2 || started.elapsed() < deadline {
        // Set-ups spread over the run, so one slow moment cannot set the
        // median; each must regenerate the very same inputs.
        inputs = timed_setups(
            workload,
            args.seed,
            &mut setup_s,
            &mut checks,
            &mut expected,
            Some(inputs),
        )?;
        plain.push(workload.pass(&inputs, None, &mut checks)?);
        if args.trace {
            let tracer = Tracer::default();
            let again =
                tracer.span("bench", "bench.setup", || workload.setup(args.seed, Some(&tracer)))?;
            checks.check(Some(W::fingerprint(&again)) == expected, || {
                "the traced set-up generated different inputs".into()
            });
            let mut sample = tracer.span("bench", "bench.pass", || {
                workload.pass(&inputs, Some(&tracer), &mut checks)
            })?;
            let spans = tracer.spans();
            for (layer, seconds) in self_times(&spans) {
                sample.layers.insert(self_metric(layer), seconds);
            }
            for (name, span_names) in SPAN_METRICS {
                sample.layers.insert(name, span_names.iter().map(|n| tracer.total(n)).sum());
            }
            sample.layers.insert("bench.spans", spans.len() as f64);
            traced.push(sample);
            last_tracer = Some(tracer);
        }
    }
    let digest = plain[0].digest;
    for sample in plain.iter().chain(&traced) {
        checks.check(sample.digest == digest, || "two passes gave different exact outputs".into());
    }
    let walls: Vec<f64> = plain.iter().map(|s| s.wall_s).collect();
    eprintln!(
        "{} passes: wall_s {walls:.3?}, median {:.4}, relative spread {:?}",
        plain.len(),
        median_of(&walls),
        stats::relative_spread(&walls)
    );
    eprintln!(
        "{} set-ups: setup_s {setup_s:.4?}, median {:.5}, relative spread {:?}",
        setup_s.len(),
        median_of(&setup_s),
        stats::relative_spread(&setup_s)
    );

    let metrics = if args.trace {
        let traced_walls: Vec<f64> = traced.iter().map(|s| s.wall_s).collect();
        let overhead = median_of(&traced_walls) - median_of(&walls);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let values: Vec<f64> =
                    traced.iter().map(|s| s.layers.get(name).copied().unwrap_or(0.0)).collect();
                let value =
                    if name == "bench.trace_overhead_s" { overhead } else { median_of(&values) };
                metric(name, unit, value)
            })
            .collect()
    } else {
        let per_pass = |f: fn(&Sample) -> f64| median_of(&plain.iter().map(f).collect::<Vec<_>>());
        let values = [
            median_of(&walls),
            median_of(&setup_s),
            peak_rss_mb(),
            per_pass(|s| s.throughput_per_s),
            per_pass(|s| s.result_score),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| metric(name, unit, value))
            .collect()
    };
    // The last traced pass: its spans and the per-layer figures (counters
    // included) they produced.
    let trace_dump = last_tracer.zip(traced.last()).map(|(t, sample)| {
        let mut layers = serde_json::Map::new();
        for (&name, &value) in &sample.layers {
            layers.insert(name.to_string(), json!(value));
        }
        json!({ "spans": t.to_json(), "layers": Value::Object(layers) })
    });
    Ok(Report { checks, metrics, trace_dump })
}

/// The `<layer>.self_s` metric name of a layer.
fn self_metric(layer: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .find(|name| name.strip_suffix(".self_s") == Some(layer))
        .unwrap_or("bench.self_s")
}

/// Peak resident set of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn host_record(args: &Args) -> Value {
    json!({
        "nproc": std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        "workers": workers(),
        "rustc": env!("PERFBENCH_RUSTC"),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "workload": args.workload.as_str(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    })
}

fn run(args: &Args, scratch: &Scratch) -> Result<Report> {
    match args.workload.as_str() {
        "repro" => measure(&repro::Repro, args),
        "sim" => measure(&sim::Sim, args),
        "cert" => measure(&cert::Cert { scratch }, args),
        other => Err(cohort_types::Error::InvalidConfig(format!("unknown workload `{other}`"))),
    }
}

/// Keeps freed heap memory in the process instead of handing it back to
/// the kernel, so that after the warmup a pass allocates from pages it has
/// already touched. Without this, `repro` takes about 21,000 page faults a
/// pass, and on a virtual machine that reports freed pages to its host each
/// of them may cost a host-side fault whose price follows the host's load:
/// run-to-run spread that says nothing about the program.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_heap() {
    // glibc's `mallopt` parameters; the mmap threshold's largest accepted
    // value is 32 MiB on 64-bit targets.
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets allocator parameters; it is called before
    // this process starts any other thread.
    let set = unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
    };
    if !set {
        eprintln!("mallopt refused; freed memory goes back to the kernel");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_heap() {}

fn main() -> ExitCode {
    keep_heap();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host_record(&args);
    eprintln!("host: {host}");
    let scratch = match Scratch::new() {
        Ok(scratch) => scratch,
        Err(e) => {
            eprintln!("cannot create {OUT_DIR}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match run(&args, &scratch) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    drop(scratch);
    if let Some(spans) = report.trace_dump {
        let path = Path::new(OUT_DIR).join(format!("trace-{}-{}.json", args.workload, args.seed));
        let doc = json!({ "host": host, "last_traced_pass": spans });
        if let Err(e) = std::fs::write(&path, doc.to_string()) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    let Checks { attempted, failed } = report.checks;
    let mut metrics = serde_json::Map::new();
    for (name, value) in report.metrics {
        metrics.insert(name.to_string(), value);
    }
    let correct = failed == 0;
    let line = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> std::result::Result<Args, String> {
        parse_args(list.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&["--workload", "cert", "--seed", "7", "--seconds", "3", "--trace", "1"])
            .expect("valid");
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("cert", 7, 3, true));
        assert!(args(&["--seed", "1"]).is_err(), "the workload is required");
        assert!(args(&["--workload", "cert", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "cert", "--seed"]).is_err());
        assert!(args(&["--workload", "cert", "--bogus", "1"]).is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("json");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Value::as_str).expect("string").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn every_layer_has_a_self_time_metric() {
        for layer in ["trace", "analysis", "optim", "sim", "cohort", "fleet", "cert", "bench"] {
            assert_eq!(self_metric(layer), format!("{layer}.self_s"));
        }
    }
}
