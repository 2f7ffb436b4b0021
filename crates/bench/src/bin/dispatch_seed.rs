//! Regenerates the committed adaptive-dispatch seed table by replaying
//! the bench corpus.
//!
//! For every benchmark in the suite, each candidate strategy solves the
//! instance once; the winner (solved without fallback, fastest wall
//! clock, canonical rank as the tie-break) becomes that instance's
//! `(features, strategy, outcome)` row.  The resulting table is what
//! [`mlo_service::DispatchTable::seed`] embeds.
//!
//! ```text
//! cargo run --release -p mlo-bench --bin dispatch_seed \
//!     [crates/service/data/seed_dispatch.json]
//! ```

use mlo_benchmarks::Benchmark;
use mlo_core::{Engine, OptimizeRequest, StrategyId};
use mlo_service::{BreakerMetadata, DispatchRow, DispatchTable};

/// Strategies the replay races per instance.  Heuristic is excluded (it
/// never proves anything, so "solved" would be vacuous), and so is
/// `portfolio`, an alias of `portfolio-steal`.
const CANDIDATES: [StrategyId; 5] = [
    StrategyId::Enhanced,
    StrategyId::ForwardChecking,
    StrategyId::FullPropagation,
    StrategyId::Weighted,
    StrategyId::PortfolioSteal,
];

fn rank(strategy: &StrategyId) -> usize {
    StrategyId::BUILTIN
        .iter()
        .position(|id| id == strategy)
        .unwrap_or(usize::MAX)
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "crates/service/data/seed_dispatch.json".to_string());

    let engine = Engine::new();
    let session = engine.session();
    let mut table = DispatchTable::new();

    for benchmark in Benchmark::all() {
        let program = benchmark.program();
        let features = session.features(&program, &OptimizeRequest::default().candidates);
        let mut best: Option<DispatchRow> = None;
        for strategy in &CANDIDATES {
            let request = OptimizeRequest::strategy(strategy.clone()).seed(0xC0FFEE);
            let report = match session.optimize(&program, &request) {
                Ok(report) => report,
                Err(error) => {
                    eprintln!("  {benchmark:?}/{strategy}: {error}");
                    continue;
                }
            };
            let row = DispatchRow {
                features: features.as_array(),
                strategy: strategy.clone(),
                solution_ms: report.solution_time.as_secs_f64() * 1e3,
                solved: !report.fell_back(),
            };
            eprintln!(
                "  {benchmark:?}/{strategy}: {:.3} ms, solved={}",
                row.solution_ms, row.solved
            );
            let better = match &best {
                None => true,
                Some(current) => {
                    (!current.solved && row.solved)
                        || (current.solved == row.solved
                            && (row.solution_ms, rank(&row.strategy))
                                < (current.solution_ms, rank(&current.strategy)))
                }
            };
            if better {
                best = Some(row);
            }
        }
        let winner = best.expect("at least one strategy produced a report");
        eprintln!("{benchmark:?} -> {}", winner.strategy);
        table.push(winner);
    }

    // Circuit-breaker metadata rides along with the table: default
    // thresholds and zero recorded failures for every raced strategy.
    // Picks never read it, so the committed rows stay byte-identical.
    let table = table.with_breaker(BreakerMetadata::zeroed(CANDIDATES.iter().cloned()));

    std::fs::write(&out, table.to_json()).expect("seed table written");
    eprintln!("wrote {} rows to {out}", table.len());
}
