//! Scaling study beyond the paper: the base, enhanced and forward-checking
//! schemes on growing random planted-satisfiable networks (10, 20 and 40
//! variables of 4 values each).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlo_csp::random::{satisfiable_network, RandomNetworkSpec};
use mlo_csp::{Scheme, SearchEngine};

fn scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_scaling");
    group.sample_size(10);
    for &variables in &[10usize, 20, 40] {
        let spec = RandomNetworkSpec {
            variables,
            domain_size: 4,
            density: 0.35,
            tightness: 0.35,
            seed: 99,
        };
        let (network, _) = satisfiable_network(&spec);
        for scheme in [Scheme::Base, Scheme::Enhanced, Scheme::ForwardChecking] {
            let engine = SearchEngine::with_scheme(scheme);
            group.bench_with_input(
                BenchmarkId::new(format!("{scheme}"), variables),
                &network,
                |b, net| b.iter(|| engine.solve(net)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, scaling);
criterion_main!(benches);
