//! Bench behind Table 2: time to determine the memory layouts of every
//! benchmark with the heuristic, base and enhanced strategies.
//!
//! Each benchmark gets one engine session, so candidate enumeration and
//! network construction are amortized and the timed loop measures the
//! search itself — the paper's "solution time".  A session also caches the
//! heuristic's layouts, so the heuristic row times `heuristic_assignment`
//! directly: every iteration is a cold run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlo_benchmarks::Benchmark;
use mlo_core::{Engine, OptimizeRequest};
use mlo_layout::heuristic_assignment;

fn solution_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_solution_time");
    group.sample_size(10);
    let engine = Engine::new();
    for benchmark in Benchmark::all() {
        let program = benchmark.program();
        group.bench_with_input(
            BenchmarkId::new("heuristic", benchmark.name()),
            &program,
            |b, program| b.iter(|| heuristic_assignment(program)),
        );
        let session = engine.session();
        for strategy in ["base", "enhanced"] {
            // The base scheme's random backtracking does not reliably
            // terminate on the larger networks; cap it so the bench finishes
            // (the binary harness uses a larger cap and reports it).
            let mut request =
                OptimizeRequest::strategy(strategy).candidates(benchmark.candidate_options());
            if strategy == "base" {
                request = request.with_budget(mlo_core::SearchBudget::new().nodes(200_000));
            }
            group.bench_with_input(
                BenchmarkId::new(strategy.to_string(), benchmark.name()),
                &program,
                |b, program| {
                    b.iter(|| {
                        session
                            .optimize(program, &request)
                            .expect("request succeeds")
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, solution_time);
criterion_main!(benches);
