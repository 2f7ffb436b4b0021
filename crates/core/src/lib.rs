//! End-to-end constraint-network memory layout optimization.
//!
//! `mlo-core` is the crate a downstream user adopts: it wires the substrate
//! crates together into the pipeline the DATE'05 paper describes.
//!
//! ```text
//!  Program (mlo-ir)
//!     │  candidate layouts per array            (mlo-layout::candidates)
//!     │  per-nest preferred layout pairs        (mlo-layout::constraints)
//!     ▼
//!  ConstraintNetwork<Layout> (mlo-csp)
//!     │  strategy-driven search                 (mlo_core::strategy)
//!     ▼
//!  LayoutAssignment (mlo-layout::apply)
//!     │  address maps + address walks + caches  (mlo-cachesim)
//!     ▼
//!  cycles, hit rates, paper tables              (mlo_core::experiments)
//! ```
//!
//! # Quick start
//!
//! ```
//! use mlo_core::{Engine, OptimizeRequest};
//! use mlo_benchmarks::Benchmark;
//!
//! let engine = Engine::new();
//! let session = engine.session();
//! let program = Benchmark::MxM.program();
//! let report = session
//!     .optimize(&program, &OptimizeRequest::strategy("enhanced"))
//!     .unwrap();
//! assert!(report.assignment.len() >= program.arrays().len());
//! println!("solved in {:?} ({} nodes, {})", report.solution_time,
//!          report.search_stats.map(|s| s.nodes_visited).unwrap_or(0),
//!          report.fallback);
//! ```
//!
//! # The typed request surface
//!
//! Two request knobs are typed values:
//!
//! * **[`StrategyId`]** names the strategy.  The nine built-ins are enum
//!   arms (`StrategyId::Enhanced`, ...); user-registered strategies go
//!   through [`StrategyId::Custom`].  String call sites keep working —
//!   `OptimizeRequest::strategy("enhanced")` parses via `From<&str>` — and
//!   [`StrategyRegistry::resolve`] is the typed lookup.
//! * **[`SearchBudget`]** gathers the three budget knobs (`nodes`,
//!   `deadline`, `parallelism`) into one `Copy` value carried as
//!   [`OptimizeRequest::budget`].  Attach one with
//!   [`OptimizeRequest::with_budget`] (chainable) or the non-consuming
//!   [`OptimizeRequest::set_budget`] / [`OptimizeRequest::budget_mut`]
//!   family.
//!
//! Serving layers on top of sessions get one more seam:
//! [`Session::optimize_with_hooks`] attaches [`SolveHooks`] (cooperative
//! cancellation via [`mlo_csp::CancelToken`], incumbent streaming via
//! [`mlo_csp::IncumbentObserver`]) to a single solve.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod experiments;
pub mod prelude;
pub mod report;
pub mod request;
pub mod strategy;

pub use engine::{
    Engine, EngineBuilder, NetworkSummary, OptimizeReport, PreparedProgram, Session, SolveHooks,
};
pub use error::{Fallback, FallbackReason, OptimizeError};
pub use report::TextTable;
pub use request::{EvaluationOptions, FallbackPolicy, OptimizeRequest, SearchBudget, StrategyId};
pub use strategy::{
    HeuristicStrategy, LayoutStrategy, LocalSearchStrategy, PortfolioStealStrategy,
    PortfolioStrategy, SchemeStrategy, StrategyContext, StrategyOutcome, StrategyRegistry,
    WeightedStrategy,
};

#[cfg(test)]
mod tests {
    use super::*;
    use mlo_benchmarks::Benchmark;

    #[test]
    fn doc_pipeline_smoke_test() {
        let program = Benchmark::MxM.program();
        let report = Engine::new()
            .optimize(&program, &OptimizeRequest::strategy("heuristic"))
            .unwrap();
        assert_eq!(report.strategy, "heuristic");
        assert!(report.assignment.len() >= program.arrays().len());
    }

    #[test]
    fn typed_request_surface_is_exported() {
        let program = Benchmark::MxM.program();
        let request = OptimizeRequest::strategy(StrategyId::Heuristic)
            .with_budget(SearchBudget::new().nodes(1_000));
        let report = Engine::new().optimize(&program, &request).unwrap();
        assert_eq!(report.strategy, StrategyId::Heuristic.as_str());
    }
}
