//! Cross-crate integration tests: the full pipeline from program IR through
//! constraint solving to cache simulation, on the paper's running example
//! and on the reconstructed benchmarks — driven through the session-based
//! engine API and its typed request surface.

use constraint_layout::prelude::*;
use mlo_core::error::OptimizeError;
use mlo_core::strategy::{SchemeStrategy, StrategyContext, StrategyOutcome};
use mlo_layout::quality::{assignment_score, ideal_score};
use std::sync::Arc;

/// Builds the Figure 2 program of the paper.
fn figure2_program(n: i64) -> Program {
    let mut builder = ProgramBuilder::new("figure2");
    let q1 = builder.array("Q1", vec![2 * n, n], 4);
    let q2 = builder.array("Q2", vec![2 * n, n], 4);
    builder.nest("main", vec![("i1", 0, n), ("i2", 0, n)], |nest| {
        nest.read(
            q1,
            AccessBuilder::new(2, 2)
                .row(0, [1, 1])
                .row(1, [0, 1])
                .build(),
        );
        nest.read(
            q2,
            AccessBuilder::new(2, 2)
                .row(0, [1, 1])
                .row(1, [1, 0])
                .build(),
        );
    });
    builder.build()
}

#[test]
fn figure2_all_strategies_reach_ideal_locality_and_beat_row_major() {
    let program = figure2_program(64);
    let simulator = Simulator::new(MachineConfig::date05());
    let baseline = simulator
        .clone()
        .without_restructuring()
        .simulate(&program, &LayoutAssignment::all_row_major(&program))
        .expect("baseline simulates");
    let session = Engine::new().session();
    for strategy in [
        "heuristic",
        "base",
        "enhanced",
        "forward-checking",
        "full-propagation",
        "weighted",
    ] {
        let outcome = session
            .optimize(&program, &OptimizeRequest::strategy(strategy))
            .expect("figure 2 requests succeed");
        assert_eq!(
            assignment_score(&program, &outcome.assignment),
            ideal_score(&program),
            "{strategy} did not reach the ideal locality score"
        );
        let report = simulator
            .simulate(&program, &outcome.assignment)
            .expect("optimized layouts simulate");
        assert!(
            report.total_cycles < baseline.total_cycles,
            "{strategy}: optimized ({}) not faster than row-major baseline ({})",
            report.total_cycles,
            baseline.total_cycles
        );
        assert!(report.l1_data.miss_rate() < baseline.l1_data.miss_rate());
    }
    // One program, many strategies: the session built the network once.
    assert_eq!(session.prepared_programs(), 1);
}

#[test]
fn figure2_solution_matches_the_paper() {
    // The enhanced strategy must find Q1 = diagonal, Q2 = column-major (the
    // derivation of Section 2) or the interchanged pair — and with the
    // deterministic enhanced orderings it finds the original-order pair.
    let program = figure2_program(32);
    let outcome = Engine::new()
        .optimize(&program, &OptimizeRequest::strategy("enhanced"))
        .expect("figure 2 is satisfiable");
    let q1 = outcome.assignment.layout_of(ArrayId::new(0)).unwrap();
    let q2 = outcome.assignment.layout_of(ArrayId::new(1)).unwrap();
    assert!(
        (q1 == &Layout::diagonal() && q2 == &Layout::column_major(2))
            || (q1 == &Layout::column_major(2) && q2 == &Layout::diagonal())
    );
    assert_eq!(outcome.satisfiable, Some(true));
    assert!(!outcome.fell_back());
}

#[test]
fn every_benchmark_runs_through_every_strategy() {
    // The base scheme's random-order chronological backtracking can take
    // minutes on the larger benchmark networks in debug builds (that is the
    // very point of Table 2), so this debug-mode test exercises it only on
    // the smallest network; the release harness runs the full matrix.
    let session = Engine::new().session();
    for benchmark in Benchmark::all() {
        let program = benchmark.program();
        let strategies: &[&str] = if benchmark == Benchmark::MxM {
            &["heuristic", "base", "enhanced"]
        } else {
            &["heuristic", "enhanced"]
        };
        let heuristic = session
            .optimize(
                &program,
                &OptimizeRequest::strategy("heuristic").candidates(benchmark.candidate_options()),
            )
            .expect("heuristic requests always succeed");
        for &strategy in strategies {
            let outcome = session
                .optimize(
                    &program,
                    &OptimizeRequest::strategy(strategy).candidates(benchmark.candidate_options()),
                )
                .expect("benchmark requests use the fallback policy");
            // Assignments are always complete, whatever happened during the
            // search.
            for array in program.arrays() {
                assert!(
                    outcome.assignment.contains(array.id()),
                    "{benchmark}/{strategy}: array {} missing a layout",
                    array.name()
                );
            }
            // Constraint strategies never do worse than the heuristic in
            // the static locality score: when the network is unsatisfiable
            // they fall back to exactly the heuristic assignment.
            if strategy != "heuristic" {
                assert!(
                    assignment_score(&program, &outcome.assignment)
                        >= assignment_score(&program, &heuristic.assignment),
                    "{benchmark}/{strategy} lost to the heuristic"
                );
            }
        }
    }
}

#[test]
fn pipeline_benchmarks_have_satisfiable_networks_and_mxm_does_not() {
    let session = Engine::new().session();
    for benchmark in Benchmark::all() {
        let program = benchmark.program();
        let outcome = session
            .optimize(
                &program,
                &OptimizeRequest::strategy("enhanced").candidates(benchmark.candidate_options()),
            )
            .expect("enhanced requests use the fallback policy");
        match benchmark {
            Benchmark::MxM => {
                // No loop order gives all three matrices of a matrix product
                // spatial locality at once, so the hard network is
                // unsatisfiable and the engine falls back with a typed
                // reason (which is why the paper's Table 3 shows identical
                // times for all three schemes on MxM).
                assert_eq!(
                    outcome.satisfiable,
                    Some(false),
                    "MxM should be unsatisfiable"
                );
                assert_eq!(
                    outcome.fallback,
                    Fallback::Heuristic(FallbackReason::Unsatisfiable)
                );
            }
            _ => {
                assert_eq!(
                    outcome.satisfiable,
                    Some(true),
                    "{benchmark} should be satisfiable"
                );
                assert!(!outcome.fell_back());
                // A constraint-network solution realizes full static
                // locality on the pipeline benchmarks.
                assert_eq!(
                    assignment_score(&program, &outcome.assignment),
                    ideal_score(&program),
                    "{benchmark}: solution does not reach the ideal score"
                );
            }
        }
    }
}

#[test]
fn base_and_enhanced_agree_on_satisfiability() {
    // One unsatisfiable network (MxM) and one satisfiable one (the paper's
    // Figure 2): both strategies must agree in both directions.  The larger
    // benchmarks are covered by the release harness — the base scheme's
    // random search on them is exactly the multi-minute column of Table 2.
    let session = Engine::new().session();
    let cases: Vec<(String, Program, CandidateOptions)> = vec![
        (
            "MxM".to_string(),
            Benchmark::MxM.program(),
            Benchmark::MxM.candidate_options(),
        ),
        (
            "figure2".to_string(),
            figure2_program(16),
            CandidateOptions::default(),
        ),
    ];
    for (name, program, candidates) in cases {
        let run = |strategy: &str| {
            session
                .optimize(
                    &program,
                    &OptimizeRequest::strategy(strategy)
                        .candidates(candidates)
                        .seed(99),
                )
                .expect("requests use the fallback policy")
                .satisfiable
        };
        assert_eq!(
            run("base"),
            run("enhanced"),
            "{name}: base and enhanced disagree on satisfiability"
        );
    }
}

/// A user-defined strategy: try the enhanced scheme under a small node
/// budget, escalate to full propagation when the budget runs out.
#[derive(Debug)]
struct EscalatingStrategy;

impl mlo_core::LayoutStrategy for EscalatingStrategy {
    fn name(&self) -> &str {
        "escalating"
    }

    fn description(&self) -> &str {
        "enhanced first, full propagation on budget exhaustion"
    }

    fn determine(&self, ctx: &StrategyContext<'_>) -> Result<StrategyOutcome, OptimizeError> {
        match SchemeStrategy::enhanced().determine(ctx)? {
            StrategyOutcome::Exhausted { .. } => SchemeStrategy::full_propagation().determine(ctx),
            done => Ok(done),
        }
    }
}

#[test]
fn registry_strategies_and_a_custom_one_solve_figure2() {
    // Iterate the *registry* (not a hard-coded list): all nine built-ins
    // plus one user-defined strategy must produce complete assignments, and
    // every strategy that claims a proof must reach the ideal score.
    let engine = Engine::builder()
        .strategy(Arc::new(EscalatingStrategy))
        .build();
    let names = engine.registry().names();
    assert_eq!(
        names,
        vec![
            "heuristic",
            "base",
            "enhanced",
            "forward-checking",
            "full-propagation",
            "weighted",
            "local-search",
            "portfolio",
            "portfolio-steal",
            "escalating",
        ],
        "nine built-ins plus the custom strategy, in registration order"
    );
    let session = engine.session();
    let program = figure2_program(16);
    for name in &names {
        let outcome = session
            .optimize(&program, &OptimizeRequest::strategy(name.as_str()))
            .unwrap_or_else(|error| panic!("{name} failed on figure 2: {error}"));
        assert_eq!(outcome.strategy, *name);
        for array in program.arrays() {
            assert!(
                outcome.assignment.contains(array.id()),
                "{name} left {} without a layout",
                array.name()
            );
        }
        assert!(
            !outcome.fell_back(),
            "{name} fell back on a satisfiable network"
        );
        assert_eq!(
            assignment_score(&program, &outcome.assignment),
            ideal_score(&program),
            "{name} missed the ideal score"
        );
    }
    assert_eq!(session.prepared_programs(), 1);
}

#[test]
fn batch_results_match_sequential_results() {
    // The full (benchmark × strategy) matrix through optimize_many must be
    // job-for-job identical to sequential optimize calls on the same
    // session — same assignments, same satisfiability, same fallback.
    let engine = Engine::new();
    let batch_session = engine.session();
    let sequential_session = engine.session();
    let benchmarks = [Benchmark::MxM, Benchmark::MedIm04, Benchmark::Shape];
    let programs: Vec<Program> = benchmarks.iter().map(|b| b.program()).collect();
    let mut jobs: Vec<(&Program, OptimizeRequest)> = Vec::new();
    for (benchmark, program) in benchmarks.iter().zip(&programs) {
        for strategy in ["heuristic", "enhanced", "local-search"] {
            jobs.push((
                program,
                OptimizeRequest::strategy(strategy)
                    .candidates(benchmark.candidate_options())
                    .seed(1),
            ));
        }
    }
    let batch = batch_session.optimize_many(&jobs);
    assert_eq!(batch.len(), jobs.len());
    for ((program, request), batched) in jobs.iter().zip(batch) {
        let sequential = sequential_session
            .optimize(program, request)
            .expect("sequential requests succeed");
        let batched = batched.expect("batch requests succeed");
        assert_eq!(batched.assignment, sequential.assignment);
        assert_eq!(batched.satisfiable, sequential.satisfiable);
        assert_eq!(batched.fallback, sequential.fallback);
        assert_eq!(batched.search_stats, sequential.search_stats);
    }
    // Both sessions prepared one entry per benchmark.
    assert_eq!(batch_session.prepared_programs(), 3);
    assert_eq!(sequential_session.prepared_programs(), 3);
}

#[test]
fn weighted_strategy_matches_plain_branch_and_bound_on_the_paper_programs() {
    // The `weighted` strategy runs on the work-stealing scheduler; on every
    // paper program it must pick the layouts sequential branch and bound
    // picks (`mlo_layout::weighted_assignment`), and agree on whether the
    // network is satisfiable at all (MxM's is not).
    let session = Engine::new().session();
    for benchmark in Benchmark::all() {
        let program = benchmark.program();
        let candidates = benchmark.candidate_options();
        let report = session
            .optimize(
                &program,
                &OptimizeRequest::strategy(StrategyId::Weighted).candidates(candidates),
            )
            .expect("weighted requests fall back instead of failing");
        let oracle = mlo_layout::weighted_assignment(
            &program,
            &candidates,
            &mlo_layout::WeightOptions::default(),
        );
        assert_eq!(
            report.satisfiable,
            Some(oracle.satisfiable),
            "{benchmark:?}"
        );
        if oracle.satisfiable {
            assert_eq!(report.assignment, oracle.assignment, "{benchmark:?}");
        }
    }
}

#[test]
fn typed_and_string_strategy_requests_agree() {
    // The typed surface and the string-parsing compatibility path must
    // resolve to the identical strategy and produce the identical report.
    let program = figure2_program(16);
    let typed = Engine::new()
        .optimize(&program, &OptimizeRequest::strategy(StrategyId::Enhanced))
        .expect("figure 2 is satisfiable");
    let stringly = Engine::new()
        .optimize(&program, &OptimizeRequest::strategy("enhanced"))
        .expect("figure 2 is satisfiable");
    assert_eq!(typed.assignment, stringly.assignment);
    assert_eq!(typed.satisfiable, stringly.satisfiable);
    assert_eq!(typed.strategy, StrategyId::Enhanced.as_str());
}
