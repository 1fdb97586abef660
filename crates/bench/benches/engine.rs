//! Criterion benches of the core engines: simulator throughput per
//! protocol/arbiter, the static cache analysis walk, Eq. 1 evaluation and
//! GA convergence cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use cohort_analysis::{guaranteed_hits, theta_saturation, wcl_miss};
use cohort_optim::{GaConfig, GeneticAlgorithm, SearchSpace};
use cohort_sim::{ArbiterKind, DataPath, SimBuilder, SimConfig};
use cohort_trace::{Kernel, KernelSpec};
use cohort_types::{Cycles, LatencyConfig, TimerValue};

fn sim_throughput(c: &mut Criterion) {
    let workload = KernelSpec::new(Kernel::Ocean, 4).with_total_requests(8_000).generate();
    let mut group = c.benchmark_group("sim_throughput");
    group.throughput(Throughput::Elements(workload.total_accesses()));
    let cases: Vec<(&str, SimConfig)> = vec![
        ("msi_rrof", SimConfig::builder(4).build().unwrap()),
        (
            "cohort_timed",
            SimConfig::builder(4).timers(vec![TimerValue::timed(30).unwrap(); 4]).build().unwrap(),
        ),
        ("pcc_staged", SimConfig::builder(4).data_path(DataPath::ViaSharedMemory).build().unwrap()),
        (
            "pendulum_tdm",
            SimConfig::builder(4)
                .timers(vec![TimerValue::timed(300).unwrap(); 4])
                .arbiter(ArbiterKind::Tdm { critical: vec![true; 4] })
                .waiter_priority(vec![true; 4])
                .build()
                .unwrap(),
        ),
        ("msi_fcfs", SimConfig::builder(4).arbiter(ArbiterKind::Fcfs).build().unwrap()),
    ];
    for (name, config) in cases {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut sim = SimBuilder::new(config.clone(), &workload).build().unwrap();
                black_box(sim.run().unwrap())
            });
        });
    }
    group.finish();
}

fn cache_analysis(c: &mut Criterion) {
    let workload = KernelSpec::new(Kernel::Fft, 4).generate(); // full 47k scale
    let trace = &workload.traces()[0];
    let mut group = c.benchmark_group("cache_analysis");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("guaranteed_hits_walk", |b| {
        b.iter(|| {
            black_box(guaranteed_hits(
                trace,
                TimerValue::timed(30).unwrap(),
                &cohort_sim::CacheGeometry::paper_l1(),
                Cycles::new(1),
                Cycles::new(438),
            ))
        });
    });
    group.bench_function("theta_saturation_sweep", |b| {
        b.iter(|| {
            black_box(theta_saturation(
                trace,
                &cohort_sim::CacheGeometry::paper_l1(),
                Cycles::new(1),
                Cycles::new(54),
            ))
        });
    });
    group.finish();

    c.bench_function("eq1_wcl", |b| {
        let timers = vec![TimerValue::timed(30).unwrap(); 16];
        b.iter(|| black_box(wcl_miss(7, &timers, &LatencyConfig::paper())));
    });
}

fn ga_convergence(c: &mut Criterion) {
    // Pure GA cost without the cache model (sphere function), isolating the
    // engine's own overhead.
    c.bench_function("ga/sphere_48x60", |b| {
        let space = SearchSpace::new(vec![(0, 10_000); 4]);
        let ga = GeneticAlgorithm::new(space, GaConfig::default());
        b.iter(|| {
            black_box(
                ga.run(&[], &(), |genes| genes.iter().map(|&g| (g as f64 - 5_000.0).powi(2)).sum())
                    .unwrap(),
            )
        });
    });
}

criterion_group!(
    name = engine;
    config = Criterion::default().sample_size(10);
    targets = sim_throughput, cache_analysis, ga_convergence
);
criterion_main!(engine);
