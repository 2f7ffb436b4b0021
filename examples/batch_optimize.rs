//! Batch optimization with the session-based engine API.
//!
//! One [`Session`] runs a whole matrix of (benchmark × strategy) requests:
//! candidate sets and constraint networks are built once per benchmark and
//! shared, the requests fan out across worker threads, and every cell comes
//! back as an independent typed result — a report with its
//! [`Fallback`] reason, or an [`OptimizeError`] for the requests that asked
//! to fail instead of falling back.
//!
//! Programs are submitted as `Arc` handles through
//! [`Session::optimize_many_shared`], the zero-copy batch entry point:
//! every job and every scheduler worker borrows the same shared storage —
//! nothing is cloned on the way to the workers.
//!
//! ```text
//! cargo run --release --example batch_optimize
//! ```

use constraint_layout::prelude::*;
use std::sync::Arc;

fn main() {
    let engine = Engine::new();
    let session = engine.session();

    // Three benchmarks × three strategies, one batch.
    let benchmarks = [Benchmark::MxM, Benchmark::MedIm04, Benchmark::Track];
    let strategies = ["heuristic", "enhanced", "local-search"];
    let programs: Vec<Arc<Program>> = benchmarks.iter().map(|b| Arc::new(b.program())).collect();

    let mut jobs: Vec<(Arc<Program>, OptimizeRequest)> = Vec::new();
    for (benchmark, program) in benchmarks.iter().zip(&programs) {
        for strategy in strategies {
            jobs.push((
                Arc::clone(program),
                OptimizeRequest::strategy(strategy)
                    .candidates(benchmark.candidate_options())
                    .seed(0xBA7C4),
            ));
        }
    }

    println!(
        "Submitting {} requests ({} benchmarks x {} strategies) through one session...\n",
        jobs.len(),
        benchmarks.len(),
        strategies.len()
    );
    let results = session.optimize_many_shared(&jobs);

    let mut table = TextTable::new(vec![
        "Benchmark",
        "Strategy",
        "Satisfiable",
        "Fallback",
        "Nodes",
        "Solution time",
    ]);
    for ((benchmark, _), ((_, request), result)) in benchmarks
        .iter()
        .flat_map(|b| strategies.iter().map(move |s| (b, *s)))
        .zip(jobs.iter().zip(&results))
    {
        match result {
            Ok(report) => table.row(vec![
                benchmark.name().into(),
                request.strategy.to_string(),
                report
                    .satisfiable
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "unproven".into()),
                report.fallback.to_string(),
                report
                    .search_stats
                    .map(|s| s.nodes_visited.to_string())
                    .unwrap_or_else(|| "-".into()),
                format!("{:.2?}", report.solution_time),
            ]),
            Err(error) => table.row(vec![
                benchmark.name().into(),
                request.strategy.to_string(),
                "error".into(),
                error.to_string(),
                "-".into(),
                "-".into(),
            ]),
        };
    }
    println!("{table}");
    println!(
        "networks prepared: {} (one per benchmark — the batch shared them)\n",
        session.prepared_programs()
    );

    // The same failure, reported two ways: MxM's hard network is
    // unsatisfiable, so the default policy falls back to the heuristic
    // (recorded in the report above), while `fail_instead_of_fallback`
    // turns it into a typed error a batch driver can route.
    let strict = OptimizeRequest::strategy("enhanced")
        .candidates(Benchmark::MxM.candidate_options())
        .fail_instead_of_fallback();
    match session.optimize(&programs[0], &strict) {
        Ok(_) => unreachable!("MxM's network has no solution"),
        Err(error) => println!("strict MxM request failed as requested: {error}"),
    }

    // Per-request budgets compose the same way: an impossible deadline
    // yields a typed budget error instead of a silent flag.
    let impossible = OptimizeRequest::strategy("base")
        .candidates(Benchmark::Track.candidate_options())
        .with_budget(mlo_core::SearchBudget::new().deadline(std::time::Duration::ZERO))
        .fail_instead_of_fallback();
    match session.optimize(&programs[2], &impossible) {
        Ok(_) => unreachable!("a zero deadline cannot finish"),
        Err(error) => println!("zero-deadline request failed as requested: {error}"),
    }
}
