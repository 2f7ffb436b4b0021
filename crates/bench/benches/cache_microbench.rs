//! Microbenchmarks of the cache simulator: raw access throughput of one
//! level and of the hierarchy on strided streams, and the whole per-access
//! path of `Simulator::simulate` (address walk plus both levels) on the
//! paper programs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlo_benchmarks::Benchmark;
use mlo_cachesim::{Cache, CacheConfig, MachineConfig, MemoryHierarchy, Simulator, TraceOptions};
use mlo_layout::heuristic_assignment;

fn cache_access_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_microbench");
    // Sequential (unit-stride) vs. large-stride access streams.
    for &(label, stride) in &[
        ("unit_stride", 4u64),
        ("line_stride", 32),
        ("page_stride", 4096),
    ] {
        group.bench_with_input(
            BenchmarkId::new("l1_access", label),
            &stride,
            |b, &stride| {
                b.iter(|| {
                    let mut cache = Cache::new(CacheConfig::new(8 * 1024, 2, 32).expect("valid"));
                    let mut hits = 0u64;
                    for i in 0..10_000u64 {
                        if cache.access(i * stride) == mlo_cachesim::AccessOutcome::Hit {
                            hits += 1;
                        }
                    }
                    hits
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("hierarchy_access", label),
            &stride,
            |b, &stride| {
                b.iter(|| {
                    let mut hierarchy = MemoryHierarchy::new(MachineConfig::date05());
                    let mut cycles = 0u64;
                    for i in 0..10_000u64 {
                        cycles += hierarchy.access(i * stride).1;
                    }
                    cycles
                })
            },
        );
    }
    group.finish();
}

/// Each paper program under its heuristic assignment on the paper's
/// machine at 32 trips per loop, the fidelity of perfbench's `evaluate`
/// workload.
fn simulate_paper_programs(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate");
    group.sample_size(20);
    let simulator = Simulator::new(MachineConfig::date05()).trace_options(TraceOptions {
        max_trip_per_loop: 32,
        ..TraceOptions::default()
    });
    for benchmark in Benchmark::all() {
        let program = benchmark.program();
        let assignment = heuristic_assignment(&program).assignment;
        group.bench_with_input(
            BenchmarkId::new("heuristic_date05_32_trips", benchmark.name()),
            &program,
            |b, program| {
                b.iter(|| {
                    simulator
                        .simulate(program, &assignment)
                        .expect("simulates")
                        .total_cycles
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, cache_access_throughput, simulate_paper_programs);
criterion_main!(benches);
