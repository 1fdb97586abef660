//! Soundness of the analysis against the simulator: every analytical bound
//! must dominate the corresponding measurement, and every guaranteed hit
//! must actually hit. These are the properties Figure 5's "experimental
//! under analytical" T-bars rest on. Each runs as a seeded case loop.

mod common;

use cohort_analysis::{
    analyze_cohort, analyze_pcc, analyze_pendulum, wcl_pendulum, PendulumParams,
};
use cohort_sim::{ArbiterKind, DataPath, LlcModel, SimBuilder, SimConfig};
use cohort_trace::{AccessKind, Trace, TraceOp, Workload};
use cohort_types::{Cycles, LatencyConfig, LineAddr, TimerValue};

use common::{for_each_case, kind, timed, SplitMix64};

/// Cases per property (each simulates a 4-core workload).
const CASES: u64 = 48;

/// Random small workloads with burst-shaped reuse so that guaranteed hits
/// actually occur (pure random traces rarely re-touch a line in time):
/// per core 1–24 bursts, each one access to a line in `0..16` followed by
/// 1–4 loads of it a cycle apart.
fn random_workload(rng: &mut SplitMix64, cores: usize) -> Workload {
    let traces = (0..cores)
        .map(|_| {
            let mut ops = Vec::new();
            for _ in 0..rng.below(1, 25) {
                let line = LineAddr::new(rng.below(0, 16));
                let (kind, extra, gap) = (kind(rng), rng.below(1, 5), rng.below(0, 6));
                ops.push(TraceOp::new(line, kind, Cycles::new(gap)));
                for _ in 0..extra {
                    ops.push(TraceOp::new(line, AccessKind::Load, Cycles::new(1)));
                }
            }
            Trace::from_ops(ops)
        })
        .collect();
    Workload::new("bursts", traces).expect("non-empty")
}

/// Per core MSI or timed with θ in `1..=200`.
fn random_timers(rng: &mut SplitMix64, cores: usize) -> Vec<TimerValue> {
    (0..cores)
        .map(|_| if rng.coin() { TimerValue::MSI } else { timed(rng.below(1, 201)) })
        .collect()
}

/// CoHoRT: measured per-request latency ≤ Eq. 1; measured total memory
/// latency ≤ WCML bound; measured hits ≥ guaranteed hits.
#[test]
fn cohort_bounds_dominate_measurements() {
    for_each_case(CASES, |rng| {
        let workload = random_workload(rng, 4);
        let timers = random_timers(rng, 4);
        let lat = LatencyConfig::paper();
        let config = SimConfig::builder(4).timers(timers.clone()).build().expect("valid");
        let l1 = *config.l1();
        let stats = SimBuilder::new(config, &workload).build().expect("sim").run().expect("ok");
        let bounds =
            analyze_cohort(&workload, &timers, &lat, &l1, &LlcModel::Perfect).expect("analysis");
        for (i, (core, bound)) in stats.cores.iter().zip(&bounds).enumerate() {
            assert!(
                core.worst_request <= bound.wcl.expect("cohort bounds all cores"),
                "core {i}: request {} > WCL {}",
                core.worst_request,
                bound.wcl.unwrap()
            );
            assert!(
                core.total_latency <= bound.wcml.unwrap(),
                "core {i}: measured WCML {} > bound {} (timers {:?})",
                core.total_latency,
                bound.wcml.unwrap(),
                timers
            );
            assert!(
                core.hits >= bound.hits,
                "core {i}: measured hits {} < guaranteed {}",
                core.hits,
                bound.hits
            );
        }
    });
}

/// PCC: all-miss WCML at the staged-hand-over WCL dominates.
#[test]
fn pcc_bounds_dominate_measurements() {
    for_each_case(CASES, |rng| {
        let workload = random_workload(rng, 4);
        let lat = LatencyConfig::paper();
        let config =
            SimConfig::builder(4).data_path(DataPath::ViaSharedMemory).build().expect("valid");
        let stats = SimBuilder::new(config, &workload).build().expect("sim").run().expect("ok");
        let bounds = analyze_pcc(&workload, &lat);
        for (i, (core, bound)) in stats.cores.iter().zip(&bounds).enumerate() {
            assert!(
                core.worst_request <= bound.wcl.unwrap(),
                "core {i}: request {} > PCC WCL {}",
                core.worst_request,
                bound.wcl.unwrap()
            );
            assert!(core.total_latency <= bound.wcml.unwrap());
        }
    });
}

/// PENDULUM: critical cores stay under the TDM bound; non-critical
/// cores are unbounded but still make progress.
#[test]
fn pendulum_bounds_dominate_critical_measurements() {
    for_each_case(CASES, |rng| {
        let workload = random_workload(rng, 4);
        let n_cr = rng.below(1, 5) as usize;
        let theta = rng.below(1, 201);
        let lat = LatencyConfig::paper();
        let critical: Vec<bool> = (0..4).map(|i| i < n_cr).collect();
        let timers = vec![timed(theta); 4];
        let config = SimConfig::builder(4)
            .timers(timers)
            .arbiter(ArbiterKind::Tdm { critical: critical.clone() })
            .waiter_priority(critical.clone())
            .build()
            .expect("valid");
        let stats = SimBuilder::new(config, &workload).build().expect("sim").run().expect("ok");
        let params = PendulumParams { critical: critical.clone(), theta };
        let bounds = analyze_pendulum(&workload, &params, &lat).expect("analysis");
        let wcl = wcl_pendulum(n_cr, 4 - n_cr, theta, &lat);
        for (i, (core, bound)) in stats.cores.iter().zip(&bounds).enumerate() {
            if critical[i] {
                assert!(
                    core.worst_request <= wcl,
                    "Cr core {i}: request {} > PENDULUM WCL {} (n_cr={n_cr}, θ={theta})",
                    core.worst_request,
                    wcl
                );
                assert!(core.total_latency <= bound.wcml.unwrap());
            } else {
                assert!(bound.wcml.is_none());
                assert_eq!(
                    core.accesses(),
                    workload.traces()[i].len() as u64,
                    "nCr cores still complete"
                );
            }
        }
    });
}
