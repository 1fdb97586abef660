//! Golden event-log fingerprints: the simulator's reference oracle.
//!
//! Every case below — a protocol preset × workload × fault plan × schedule
//! of timer switches — is run with an [`EventLogProbe`] attached and
//! digested into one row of `goldens/event_logs.txt`:
//!
//! ```text
//! label  fingerprint  events
//! ```
//!
//! The fingerprint is a [`Fingerprint`] over the `Debug` text of every
//! event, then the final [`SimStats`](cohort_sim::SimStats), then every
//! injected-fault record; `events` is the length of the log. A change that
//! moves any event, statistic or fault by one cycle changes the row.
//!
//! On a mismatch the failing test lists every differing label and prints
//! the full regenerated table. A deliberate behaviour change is accepted by
//! reviewing that table and pasting it over the data file.
//!
//! These are written as plain `#[test]` loops over seeded workloads (not
//! `proptest!`) so they execute under the offline stub harness too; the
//! seeds make every run reproducible.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use cohort_sim::{
    ArbiterKind, CacheGeometry, DataPath, EventLogProbe, FaultPlan, LlcModel, ProtocolFlavor,
    SimBuilder, SimConfig,
};
use cohort_trace::{micro, Kernel, KernelSpec, Workload};
use cohort_types::{Cycles, Fingerprint, TimerValue};

const GOLDENS: &str = include_str!("goldens/event_logs.txt");

/// One sealed scenario and the label of its golden row.
struct Case {
    label: String,
    config: SimConfig,
    workload: Workload,
    plan: FaultPlan,
    switches: Vec<(Cycles, Vec<TimerValue>)>,
}

/// The digest of one run: what a golden row records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    fingerprint: Fingerprint,
    events: usize,
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}  {}", self.fingerprint, self.events)
    }
}

/// Runs `case` and digests its event log, final stats and injected faults.
fn record(case: &Case) -> Row {
    let label = &case.label;
    let mut sim = SimBuilder::new(case.config.clone(), &case.workload)
        .probe(EventLogProbe::new())
        .faults(case.plan.clone())
        .build()
        .unwrap_or_else(|e| panic!("{label}: build failed: {e}"));
    for (at, timers) in &case.switches {
        sim.schedule_timer_switch(*at, timers.clone())
            .unwrap_or_else(|e| panic!("{label}: switch rejected: {e}"));
    }
    let stats = sim.run().unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
    let injected = sim.injected_faults().to_vec();
    let events = sim.into_probe().into_events();
    let mut digest = Fingerprint::builder();
    for event in &events {
        digest = digest.text(&format!("{event:?}"));
    }
    digest = digest.text(&format!("{stats:?}"));
    for fault in &injected {
        digest = digest.text(&format!("{fault:?}"));
    }
    Row { fingerprint: digest.finish(), events: events.len() }
}

/// The committed rows by label, with every label that appears more than once.
fn goldens() -> (BTreeMap<String, Row>, Vec<String>) {
    let mut rows = BTreeMap::new();
    let mut duplicates = Vec::new();
    for line in GOLDENS.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [label, fingerprint, events] = fields[..] else {
            panic!("malformed golden row `{line}`: expected `label fingerprint events`");
        };
        let row = Row {
            fingerprint: Fingerprint::from_hex(fingerprint)
                .unwrap_or_else(|e| panic!("golden row `{label}`: {e}")),
            events: events.parse().unwrap_or_else(|e| panic!("golden row `{label}`: {e}")),
        };
        if rows.insert(label.to_string(), row).is_some() {
            duplicates.push(label.to_string());
        }
    }
    (rows, duplicates)
}

/// The full table as the current simulator produces it, ready to paste
/// over `goldens/event_logs.txt`.
fn regenerated_table() -> String {
    let cases: Vec<Case> = GROUPS.iter().flat_map(|group| group()).collect();
    let width = cases.iter().map(|c| c.label.len()).max().unwrap_or(0);
    let mut table = String::from(
        "# Golden event-log fingerprints; see tests/event_log_goldens.rs.\n\
         # label  fingerprint  events\n",
    );
    for case in &cases {
        let row = record(case);
        writeln!(table, "{:<width$}  {row}", case.label).expect("writing to a String");
    }
    table
}

/// Runs every case of one group and compares it with its golden row.
fn check(cases: &[Case]) {
    let (golden, _) = goldens();
    let mut mismatches = Vec::new();
    for case in cases {
        let actual = record(case);
        match golden.get(&case.label) {
            Some(expected) if *expected == actual => {}
            Some(expected) => {
                mismatches.push(format!("  {}: expected {expected}, got {actual}", case.label));
            }
            None => mismatches.push(format!("  {}: no golden row, got {actual}", case.label)),
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} event-log mismatches (label: expected fingerprint events, got fingerprint events):\n\
         {}\n\nregenerated tests/goldens/event_logs.txt:\n{}",
        mismatches.len(),
        mismatches.join("\n"),
        regenerated_table()
    );
}

/// The paper's protocol presets, exercised on every workload below.
fn preset_configs(cores: usize) -> Vec<(&'static str, SimConfig)> {
    let timed = vec![TimerValue::timed(30).unwrap(); cores];
    let slow = vec![TimerValue::timed(300).unwrap(); cores];
    vec![
        ("msi_rrof", SimConfig::builder(cores).build().unwrap()),
        ("cohort_timed", SimConfig::builder(cores).timers(timed.clone()).build().unwrap()),
        (
            "pcc_staged",
            SimConfig::builder(cores).data_path(DataPath::ViaSharedMemory).build().unwrap(),
        ),
        (
            "pendulum_tdm",
            SimConfig::builder(cores)
                .timers(slow)
                .arbiter(ArbiterKind::Tdm { critical: vec![true; cores] })
                .waiter_priority(vec![true; cores])
                .build()
                .unwrap(),
        ),
        ("msi_fcfs", SimConfig::builder(cores).arbiter(ArbiterKind::Fcfs).build().unwrap()),
        (
            "msi_round_robin",
            SimConfig::builder(cores).arbiter(ArbiterKind::RoundRobin).build().unwrap(),
        ),
        ("mesi_rrof", SimConfig::builder(cores).flavor(ProtocolFlavor::Mesi).build().unwrap()),
        (
            "mixed_timers_finite_llc",
            SimConfig::builder(cores)
                .timers(
                    (0..cores)
                        .map(|i| {
                            if i % 2 == 0 {
                                TimerValue::timed(40 + 10 * i as u64).unwrap()
                            } else {
                                TimerValue::Msi
                            }
                        })
                        .collect(),
                )
                .llc(LlcModel::Finite(CacheGeometry::new(4096, 64, 4).unwrap()))
                .build()
                .unwrap(),
        ),
    ]
}

/// One case per preset for `workload` under `plan` and `switches`.
fn across_presets(
    prefix: &str,
    workload: &Workload,
    plan: &FaultPlan,
    switches: &[(Cycles, Vec<TimerValue>)],
) -> Vec<Case> {
    preset_configs(workload.cores())
        .into_iter()
        .map(|(name, config)| Case {
            label: format!("{prefix}/{name}"),
            config,
            workload: workload.clone(),
            plan: plan.clone(),
            switches: switches.to_vec(),
        })
        .collect()
}

fn seeded_random_cases() -> Vec<Case> {
    (0..6u64)
        .flat_map(|seed| {
            let w = micro::random_shared(4, 32, 160, 0.5, seed);
            across_presets(&format!("random/seed{seed}"), &w, &FaultPlan::empty(), &[])
        })
        .collect()
}

fn micro_pattern_cases() -> Vec<Case> {
    let patterns: Vec<(&str, Workload)> = vec![
        ("ping_pong", micro::ping_pong(4, 12)),
        ("streaming", micro::streaming(4, 64)),
        ("line_bursts", micro::line_bursts(4, 4, 6)),
        ("private_reuse", micro::private_reuse(4, 8, 64)),
        ("figure1", micro::figure1(100)),
        ("figure4", micro::figure4()),
    ];
    patterns
        .iter()
        .flat_map(|(name, w)| across_presets(&format!("micro/{name}"), w, &FaultPlan::empty(), &[]))
        .collect()
}

fn kernel_cases() -> Vec<Case> {
    [Kernel::Fft, Kernel::Ocean]
        .into_iter()
        .flat_map(|kernel| {
            let w = KernelSpec::new(kernel, 4).with_total_requests(1_500).generate();
            across_presets(&format!("kernel/{kernel:?}"), &w, &FaultPlan::empty(), &[])
        })
        .collect()
}

fn mode_switch_cases() -> Vec<Case> {
    let w = micro::random_shared(4, 24, 200, 0.6, 11);
    let switches = vec![
        (Cycles::new(500), vec![TimerValue::timed(20).unwrap(); 4]),
        (Cycles::new(2_000), vec![TimerValue::Msi; 4]),
        (Cycles::new(5_000), vec![TimerValue::timed(400).unwrap(); 4]),
    ];
    across_presets("switches", &w, &FaultPlan::empty(), &switches)
}

fn fault_plan_cases() -> Vec<Case> {
    [3u64, 17, 42]
        .into_iter()
        .flat_map(|seed| {
            let w = micro::random_shared(4, 24, 200, 0.5, seed);
            let plan = FaultPlan::seeded(seed, 4, 20_000, 12);
            assert!(!plan.is_empty(), "seeded fault plan must be non-empty");
            across_presets(&format!("faults/seed{seed}"), &w, &plan, &[])
        })
        .collect()
}

fn faults_and_switches_cases() -> Vec<Case> {
    let w = micro::random_shared(4, 16, 240, 0.7, 23);
    let plan = FaultPlan::seeded(23, 4, 30_000, 8);
    let switches = vec![
        (Cycles::new(1_000), vec![TimerValue::timed(25).unwrap(); 4]),
        (Cycles::new(4_000), vec![TimerValue::Msi; 4]),
    ];
    across_presets("faults+switches", &w, &plan, &switches)
}

fn machine_width_cases() -> Vec<Case> {
    let mut cases = vec![Case {
        label: "single-core".to_string(),
        config: SimConfig::builder(1).build().unwrap(),
        workload: micro::streaming(1, 40),
        plan: FaultPlan::empty(),
        switches: Vec::new(),
    }];
    let wide = micro::random_shared(8, 64, 400, 0.4, 31);
    cases.extend(across_presets("8-core", &wide, &FaultPlan::empty(), &[]));
    cases
}

/// The `sim` bench binary's former preset × seeded-fault matrix: six
/// presets (no plain round-robin, no finite LLC) under a six-fault plan.
fn preset_fault_matrix_cases() -> Vec<Case> {
    const PRESETS: [&str; 6] =
        ["msi_rrof", "cohort_timed", "pcc_staged", "pendulum_tdm", "msi_fcfs", "mesi_rrof"];
    [1u64, 9]
        .into_iter()
        .flat_map(|seed| {
            let w = micro::random_shared(4, 32, 160, 0.5, seed);
            let plan = FaultPlan::seeded(seed, 4, 20_000, 6);
            across_presets(&format!("preset-faults/seed{seed}"), &w, &plan, &[])
                .into_iter()
                .filter(|case| PRESETS.iter().any(|p| case.label.ends_with(&format!("/{p}"))))
        })
        .collect()
}

/// Every case group, in table order.
const GROUPS: [fn() -> Vec<Case>; 8] = [
    seeded_random_cases,
    micro_pattern_cases,
    kernel_cases,
    mode_switch_cases,
    fault_plan_cases,
    faults_and_switches_cases,
    machine_width_cases,
    preset_fault_matrix_cases,
];

#[test]
fn seeded_random_workloads_match_goldens() {
    check(&seeded_random_cases());
}

#[test]
fn micro_patterns_match_goldens() {
    check(&micro_pattern_cases());
}

#[test]
fn kernel_workloads_match_goldens() {
    check(&kernel_cases());
}

#[test]
fn scheduled_mode_switches_match_goldens() {
    check(&mode_switch_cases());
}

#[test]
fn fault_injection_matches_goldens() {
    check(&fault_plan_cases());
}

#[test]
fn faults_and_switches_together_match_goldens() {
    check(&faults_and_switches_cases());
}

#[test]
fn single_core_and_wide_configs_match_goldens() {
    check(&machine_width_cases());
}

#[test]
fn preset_fault_matrix_matches_goldens() {
    check(&preset_fault_matrix_cases());
}

#[test]
fn every_golden_row_has_exactly_one_case() {
    let (golden, duplicate_rows) = goldens();
    assert!(duplicate_rows.is_empty(), "duplicate golden labels: {duplicate_rows:?}");
    let mut labels = BTreeSet::new();
    for case in GROUPS.iter().flat_map(|group| group()) {
        assert!(labels.insert(case.label.clone()), "two cases share the label `{}`", case.label);
    }
    let orphans: Vec<&String> = golden.keys().filter(|l| !labels.contains(*l)).collect();
    let missing: Vec<&String> = labels.iter().filter(|l| !golden.contains_key(*l)).collect();
    assert!(orphans.is_empty(), "golden rows no case produces: {orphans:?}");
    assert!(missing.is_empty(), "cases without a golden row: {missing:?}");
}
