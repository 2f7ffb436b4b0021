//! Convenience re-exports of the types most programs need.
//!
//! ```
//! use mlo_core::prelude::*;
//!
//! let program = Benchmark::MxM.program();
//! let report = Engine::new()
//!     .optimize(&program, &OptimizeRequest::strategy("heuristic"))
//!     .unwrap();
//! assert!(report.assignment.len() > 0);
//! ```

pub use crate::engine::{
    Engine, EngineBuilder, InstanceFeatures, NetworkSummary, OptimizeReport, Session, SolveHooks,
};
pub use crate::error::{Fallback, FallbackReason, OptimizeError};
pub use crate::report::TextTable;
pub use crate::request::{
    EvaluationOptions, FallbackPolicy, OptimizeRequest, SearchBudget, StrategyId,
};
pub use crate::strategy::{
    LayoutStrategy, PortfolioStrategy, StrategyContext, StrategyOutcome, StrategyRegistry,
};
pub use mlo_benchmarks::{Benchmark, RandomProgramSpec};
pub use mlo_cachesim::{MachineConfig, SimulationReport, Simulator, TraceOptions};
pub use mlo_csp::{
    ConstraintNetwork, Scheme, SearchEngine, SearchLimits, SearchStats, StealScheduler, WorkerPool,
};
pub use mlo_ir::{AccessBuilder, ArrayId, LoopTransform, Program, ProgramBuilder};
pub use mlo_layout::{CandidateOptions, CandidateSet, Hyperplane, Layout, LayoutAssignment};

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_compile_together() {
        use super::*;
        let _ = MachineConfig::date05();
        let _ = Layout::diagonal();
        let _ = OptimizeRequest::strategy("enhanced");
        let _ = Engine::new();
    }
}
