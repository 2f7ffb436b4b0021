//! Per-request knobs of the engine API.
//!
//! An [`OptimizeRequest`] carries everything that can vary between two runs
//! against the same [`Session`](crate::engine::Session): the strategy to
//! run (a typed [`StrategyId`]), candidate-enumeration options, the RNG
//! seed, the [`SearchBudget`], the fallback policy and an optional
//! cache-simulation evaluation.  Requests are plain values — clone one,
//! tweak a knob, and submit both in the same batch.

use crate::error::FallbackReason;
use mlo_cachesim::{MachineConfig, TraceOptions};
use mlo_layout::CandidateOptions;
use std::convert::Infallible;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// A typed strategy identifier: the nine built-ins as enum arms plus a
/// [`StrategyId::Custom`] escape hatch for user-registered strategies.
///
/// Replaces the old bare-string registry lookup: misspelling a built-in is
/// now a compile error instead of a runtime `UnknownStrategy`, while
/// [`FromStr`] / [`From<&str>`] keep string-driven call sites (CLIs, config
/// files) working — an unrecognized name parses to `Custom` and resolves
/// (or fails) against the registry exactly like before.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StrategyId {
    /// Layout propagation ordered by nest cost (the paper's baseline).
    Heuristic,
    /// The paper's base scheme (random orderings, chronological
    /// backtracking).
    Base,
    /// The paper's enhanced scheme.
    Enhanced,
    /// Enhanced plus forward checking.
    ForwardChecking,
    /// Enhanced plus AC-3 preprocessing and forward checking.
    FullPropagation,
    /// Branch and bound over nest-cost-weighted constraints.
    Weighted,
    /// Min-conflicts local search with restarts.
    LocalSearch,
    /// An alias of [`StrategyId::PortfolioSteal`], kept for existing
    /// callers (reports name it `portfolio`).
    Portfolio,
    /// The work-stealing dynamic shard search.
    PortfolioSteal,
    /// A user-registered strategy, addressed by its registry name.
    Custom(String),
}

impl StrategyId {
    /// The nine built-in ids in canonical registry order.
    pub const BUILTIN: [StrategyId; 9] = [
        StrategyId::Heuristic,
        StrategyId::Base,
        StrategyId::Enhanced,
        StrategyId::ForwardChecking,
        StrategyId::FullPropagation,
        StrategyId::Weighted,
        StrategyId::LocalSearch,
        StrategyId::Portfolio,
        StrategyId::PortfolioSteal,
    ];

    /// The registry name this id resolves under.
    pub fn as_str(&self) -> &str {
        match self {
            StrategyId::Heuristic => "heuristic",
            StrategyId::Base => "base",
            StrategyId::Enhanced => "enhanced",
            StrategyId::ForwardChecking => "forward-checking",
            StrategyId::FullPropagation => "full-propagation",
            StrategyId::Weighted => "weighted",
            StrategyId::LocalSearch => "local-search",
            StrategyId::Portfolio => "portfolio",
            StrategyId::PortfolioSteal => "portfolio-steal",
            StrategyId::Custom(name) => name,
        }
    }

    /// A custom id for a user-registered strategy name.
    pub fn custom(name: impl Into<String>) -> Self {
        StrategyId::Custom(name.into())
    }
}

impl fmt::Display for StrategyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for StrategyId {
    type Err = Infallible;

    /// Never fails: a built-in name parses to its arm, anything else to
    /// [`StrategyId::Custom`] (resolution against the registry decides
    /// whether it exists).
    fn from_str(name: &str) -> Result<Self, Infallible> {
        Ok(StrategyId::BUILTIN
            .iter()
            .find(|id| id.as_str() == name)
            .cloned()
            .unwrap_or_else(|| StrategyId::Custom(name.to_string())))
    }
}

impl From<&str> for StrategyId {
    fn from(name: &str) -> Self {
        name.parse().expect("StrategyId parsing is infallible")
    }
}

impl From<String> for StrategyId {
    fn from(name: String) -> Self {
        StrategyId::from(name.as_str())
    }
}

impl From<&StrategyId> for StrategyId {
    fn from(id: &StrategyId) -> Self {
        id.clone()
    }
}

impl PartialEq<str> for StrategyId {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for StrategyId {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// What to do when a strategy cannot return a solution of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FallbackPolicy {
    /// Return the heuristic baseline's layouts, recording the reason in the
    /// report's [`Fallback`](crate::Fallback).
    #[default]
    Heuristic,
    /// Fail the request with a typed [`OptimizeError`](crate::OptimizeError)
    /// instead.
    Error,
}

/// Optional cache-hierarchy evaluation of the chosen layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvaluationOptions {
    /// The machine model to simulate.
    pub machine: MachineConfig,
    /// Trace-generation options (sub-sampling, alignment).
    pub trace: TraceOptions,
}

impl EvaluationOptions {
    /// Evaluation on the paper's machine with default trace options.
    pub fn date05() -> Self {
        EvaluationOptions {
            machine: MachineConfig::date05(),
            trace: TraceOptions::default(),
        }
    }

    /// Evaluation on an explicit machine with default trace options.
    pub fn on(machine: MachineConfig) -> Self {
        EvaluationOptions {
            machine,
            trace: TraceOptions::default(),
        }
    }

    /// Overrides the trace options.
    pub fn trace(mut self, trace: TraceOptions) -> Self {
        self.trace = trace;
        self
    }
}

/// The search budget of one request: node/time limits and the worker
/// split, gathered into one value so pipelines can carry "how hard to try"
/// separately from "what to try".
///
/// `SearchBudget` is `Copy`; its chainable setters consume and return the
/// value, so both styles work:
///
/// ```
/// use mlo_core::SearchBudget;
/// use std::time::Duration;
///
/// // Chained.
/// let budget = SearchBudget::new()
///     .nodes(100_000)
///     .deadline(Duration::from_millis(50));
/// // Imperative (non-consuming, via the request's mutable accessor).
/// let mut request = mlo_core::OptimizeRequest::default();
/// request.budget_mut().nodes = budget.nodes;
/// # assert_eq!(request.budget.nodes, Some(100_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SearchBudget {
    /// Node budget for the search (`None` = unlimited).
    ///
    /// Two strategy-specific notes: the `local-search` strategy treats the
    /// budget as a total cap on repair steps across restarts, and the
    /// `weighted` strategy substitutes its own default cap (2,000,000
    /// branch-and-bound nodes — see
    /// [`WeightedStrategy`](crate::strategy::WeightedStrategy)) when `None`
    /// is given, because exhaustive branch and bound does not reliably
    /// terminate on large networks.
    pub nodes: Option<u64>,
    /// Wall-clock budget for the search (`None` = unlimited).
    pub deadline: Option<Duration>,
    /// How many solver workers a parallelism-aware strategy (`portfolio`,
    /// `portfolio-steal`, `weighted`) may occupy on the session's shared
    /// pool (`None` = the engine default, which is
    /// [`EngineBuilder::parallelism`] or the machine's available
    /// parallelism; `Some(1)` = single-threaded).
    ///
    /// For searches that complete within their budgets, changing this knob
    /// never changes the *result*: those strategies run on
    /// [`mlo_csp::StealScheduler`], which returns the same solution and
    /// cost at every worker count, so it is purely a latency/throughput
    /// trade-off.  An instance the scheduler finishes alone within a small
    /// node budget never touches the pool at all.  A run truncated by a
    /// deadline, or by a node limit the pool shares, returns the best
    /// answer found in time, which — like any budget-cut search — is not
    /// guaranteed identical across thread counts.
    ///
    /// [`EngineBuilder::parallelism`]: crate::engine::EngineBuilder::parallelism
    pub parallelism: Option<usize>,
}

impl SearchBudget {
    /// An unlimited budget (every knob at its default).
    pub fn new() -> Self {
        SearchBudget::default()
    }

    /// Sets the node budget.
    pub fn nodes(mut self, nodes: u64) -> Self {
        self.nodes = Some(nodes);
        self
    }

    /// Sets the wall-clock budget.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the solver parallelism (clamped to at least one worker).
    pub fn workers(mut self, workers: usize) -> Self {
        self.parallelism = Some(workers.max(1));
        self
    }
}

/// One optimization request: a typed strategy id plus per-request knobs.
///
/// ```
/// use mlo_core::{Engine, OptimizeRequest, SearchBudget, StrategyId};
/// use mlo_benchmarks::Benchmark;
///
/// let engine = Engine::new();
/// let session = engine.session();
/// let program = Benchmark::MxM.program();
/// let request = OptimizeRequest::strategy(StrategyId::Enhanced)
///     .candidates(Benchmark::MxM.candidate_options())
///     .seed(7)
///     .with_budget(SearchBudget::new().nodes(100_000));
/// let report = session.optimize(&program, &request).unwrap();
/// assert!(report.assignment.len() >= program.arrays().len());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OptimizeRequest {
    /// The strategy to run.
    pub strategy: StrategyId,
    /// Candidate-layout enumeration options.
    pub candidates: CandidateOptions,
    /// Seed for the strategy's random decisions; identical requests give
    /// identical results (and identical `SearchStats`).
    pub seed: u64,
    /// Node/time limits and the worker split.
    pub budget: SearchBudget,
    /// What to do when the strategy cannot return its own solution.
    pub fallback: FallbackPolicy,
    /// When set, the chosen layouts are replayed on this simulated machine
    /// and the report carries the resulting
    /// [`SimulationReport`](mlo_cachesim::SimulationReport).
    pub evaluation: Option<EvaluationOptions>,
}

impl Default for OptimizeRequest {
    fn default() -> Self {
        OptimizeRequest {
            strategy: StrategyId::Enhanced,
            candidates: CandidateOptions::default(),
            seed: 0xC0FFEE,
            budget: SearchBudget::default(),
            fallback: FallbackPolicy::Heuristic,
            evaluation: None,
        }
    }
}

impl OptimizeRequest {
    /// A request running the given strategy with default knobs.  Accepts a
    /// [`StrategyId`] or (via `From<&str>`) a name.
    pub fn strategy(id: impl Into<StrategyId>) -> Self {
        OptimizeRequest {
            strategy: id.into(),
            ..OptimizeRequest::default()
        }
    }

    /// Sets the candidate-enumeration options.
    pub fn candidates(mut self, candidates: CandidateOptions) -> Self {
        self.candidates = candidates;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the whole search budget (chainable form).
    pub fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the whole search budget without consuming the request —
    /// the non-consuming builder form, for call sites that set knobs
    /// conditionally:
    ///
    /// ```
    /// use mlo_core::{OptimizeRequest, SearchBudget};
    ///
    /// let mut request = OptimizeRequest::default();
    /// if true {
    ///     request.set_budget(SearchBudget::new().nodes(10));
    /// }
    /// assert_eq!(request.budget.nodes, Some(10));
    /// ```
    pub fn set_budget(&mut self, budget: SearchBudget) -> &mut Self {
        self.budget = budget;
        self
    }

    /// Mutable access to the budget (non-consuming knob-by-knob form).
    pub fn budget_mut(&mut self) -> &mut SearchBudget {
        &mut self.budget
    }

    /// Sets the strategy without consuming the request.
    pub fn set_strategy(&mut self, id: impl Into<StrategyId>) -> &mut Self {
        self.strategy = id.into();
        self
    }

    /// Sets the RNG seed without consuming the request.
    pub fn set_seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the candidate-enumeration options without consuming the
    /// request.
    pub fn set_candidates(&mut self, candidates: CandidateOptions) -> &mut Self {
        self.candidates = candidates;
        self
    }

    /// Sets the fallback policy without consuming the request.
    pub fn set_fallback(&mut self, policy: FallbackPolicy) -> &mut Self {
        self.fallback = policy;
        self
    }

    /// Sets (or clears) the cache-simulation evaluation without consuming
    /// the request.
    pub fn set_evaluation(&mut self, options: Option<EvaluationOptions>) -> &mut Self {
        self.evaluation = options;
        self
    }

    /// Makes the request fail with a typed error instead of falling back to
    /// the heuristic layouts.
    pub fn fail_instead_of_fallback(mut self) -> Self {
        self.fallback = FallbackPolicy::Error;
        self
    }

    /// Sets the fallback policy explicitly.
    pub fn fallback(mut self, policy: FallbackPolicy) -> Self {
        self.fallback = policy;
        self
    }

    /// Requests a cache-simulation evaluation of the chosen layouts.
    pub fn evaluate(mut self, options: EvaluationOptions) -> Self {
        self.evaluation = Some(options);
        self
    }

    /// Whether `fallback` permits substituting the heuristic layouts for
    /// the given reason (`Heuristic` permits all reasons).
    pub(crate) fn allows_fallback(&self, _reason: FallbackReason) -> bool {
        self.fallback == FallbackPolicy::Heuristic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain_sets_every_knob() {
        let r = OptimizeRequest::strategy(StrategyId::Base)
            .candidates(CandidateOptions {
                include_diagonals: true,
                ..CandidateOptions::default()
            })
            .seed(42)
            .with_budget(
                SearchBudget::new()
                    .nodes(10)
                    .deadline(Duration::from_millis(5))
                    .workers(0),
            )
            .fail_instead_of_fallback()
            .evaluate(EvaluationOptions::date05());
        assert_eq!(r.strategy, StrategyId::Base);
        assert!(r.candidates.include_diagonals);
        assert_eq!(r.seed, 42);
        assert_eq!(r.budget.nodes, Some(10));
        assert_eq!(r.budget.deadline, Some(Duration::from_millis(5)));
        assert_eq!(r.budget.parallelism, Some(1), "parallelism clamps to one");
        assert_eq!(r.fallback, FallbackPolicy::Error);
        assert!(r.evaluation.is_some());
        assert!(!r.allows_fallback(FallbackReason::Unsatisfiable));
    }

    #[test]
    fn non_consuming_builder_sets_every_knob() {
        let mut r = OptimizeRequest::default();
        r.set_strategy("portfolio-steal")
            .set_seed(9)
            .set_candidates(CandidateOptions {
                include_diagonals: true,
                ..CandidateOptions::default()
            })
            .set_fallback(FallbackPolicy::Error)
            .set_evaluation(Some(EvaluationOptions::date05()))
            .set_budget(SearchBudget::new().nodes(77));
        r.budget_mut().parallelism = Some(2);
        assert_eq!(r.strategy, StrategyId::PortfolioSteal);
        assert_eq!(r.seed, 9);
        assert!(r.candidates.include_diagonals);
        assert_eq!(r.fallback, FallbackPolicy::Error);
        assert!(r.evaluation.is_some());
        assert_eq!(r.budget.nodes, Some(77));
        assert_eq!(r.budget.parallelism, Some(2));
    }

    #[test]
    fn strategy_ids_round_trip_through_strings() {
        for id in StrategyId::BUILTIN {
            let parsed: StrategyId = id.as_str().parse().unwrap();
            assert_eq!(parsed, id);
            assert_eq!(id.to_string(), id.as_str());
            assert!(!matches!(parsed, StrategyId::Custom(_)));
        }
        let custom: StrategyId = "escalating".parse().unwrap();
        assert_eq!(custom, StrategyId::custom("escalating"));
        assert_eq!(custom.as_str(), "escalating");
        assert_eq!(StrategyId::from("enhanced"), StrategyId::Enhanced);
        assert_eq!(
            StrategyId::from("portfolio-steal".to_string()),
            StrategyId::PortfolioSteal
        );
        assert_eq!(StrategyId::Enhanced, "enhanced");
    }

    #[test]
    fn default_request_matches_the_old_optimizer_defaults() {
        let r = OptimizeRequest::default();
        assert_eq!(r.strategy, StrategyId::Enhanced);
        assert_eq!(r.seed, 0xC0FFEE);
        assert_eq!(r.budget, SearchBudget::default());
        assert_eq!(r.fallback, FallbackPolicy::Heuristic);
        assert!(r.allows_fallback(FallbackReason::DeadlineExceeded));
    }
}
