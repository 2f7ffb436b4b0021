//! Cold preparation of one program: the loop-order analysis alone
//! (`ProgramAnalysis::new`, which candidate enumeration and the heuristic
//! each build first), candidate enumeration, the constraint network built
//! from those candidates, the heuristic baseline, and a whole cold
//! `enhanced` request in a fresh single-worker engine (the one-shot
//! compiler-pass use), on each paper program and on one 64-stage image
//! pipeline.  Every iteration starts from the program alone, as a session's
//! first request for it does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlo_benchmarks::{generators::add_pipeline, Benchmark};
use mlo_core::{Engine, OptimizeRequest};
use mlo_ir::{Program, ProgramBuilder};
use mlo_layout::{
    build_network_from, heuristic_assignment, CandidateOptions, CandidateSet, ProgramAnalysis,
};

/// A 64-stage pipeline over 64×64 images with two shared coefficient
/// arrays.
fn pipeline() -> Program {
    let mut b = ProgramBuilder::new("Pipeline-64");
    let shared: Vec<_> = (0..2)
        .map(|s| b.array(format!("coeff{s}"), vec![64, 64], 4))
        .collect();
    add_pipeline(&mut b, "stage", 64, 64, 4, &shared);
    b.build()
}

fn prepare(c: &mut Criterion) {
    let mut group = c.benchmark_group("prepare");
    group.sample_size(200);
    let mut programs: Vec<(Program, CandidateOptions)> = Benchmark::all()
        .into_iter()
        .map(|benchmark| (benchmark.program(), benchmark.candidate_options()))
        .collect();
    programs.push((pipeline(), CandidateOptions::default()));
    for (program, options) in &programs {
        let name = program.name();
        group.bench_with_input(BenchmarkId::new("analysis", name), program, |b, program| {
            b.iter(|| ProgramAnalysis::new(program))
        });
        group.bench_with_input(
            BenchmarkId::new("candidates", name),
            program,
            |b, program| b.iter(|| CandidateSet::enumerate(program, options)),
        );
        let candidates = CandidateSet::enumerate(program, options);
        group.bench_with_input(BenchmarkId::new("network", name), program, |b, program| {
            b.iter(|| build_network_from(program, &candidates))
        });
        group.bench_with_input(
            BenchmarkId::new("heuristic", name),
            program,
            |b, program| b.iter(|| heuristic_assignment(program)),
        );
        let request = OptimizeRequest::strategy("enhanced").candidates(*options);
        group.bench_with_input(BenchmarkId::new("request", name), program, |b, program| {
            b.iter(|| {
                Engine::builder()
                    .parallelism(1)
                    .build()
                    .optimize(program, &request)
                    .expect("fallbacks are allowed")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, prepare);
criterion_main!(benches);
