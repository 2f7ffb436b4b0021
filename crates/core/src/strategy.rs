//! First-class, pluggable layout-determination strategies.
//!
//! The old facade hard-coded the seven schemes in an enum; here each scheme
//! is a value implementing the object-safe [`LayoutStrategy`] trait, looked
//! up by name in a [`StrategyRegistry`].  Downstream users register their
//! own strategies alongside the built-ins and submit them through the same
//! [`crate::OptimizeRequest`] / batch machinery.
//!
//! A strategy never builds candidates or networks itself: the
//! [`StrategyContext`] hands it the session-cached [`CandidateSet`] /
//! [`LayoutNetwork`] plus the request's seeded RNG and budget — the
//! narrowed `mlo-csp` seam ([`NetworkSearch`]) does the actual searching.

use crate::engine::{PreparedProgram, SessionInner, SolveHooks};
use crate::error::{FallbackReason, OptimizeError};
use crate::request::{OptimizeRequest, StrategyId};
use mlo_csp::{
    CancelToken, IncumbentObserver, MinConflicts, NetworkSearch, Scheme as CspScheme, SearchEngine,
    SearchLimits, SearchStats, SolveResult, StealScheduler, WeightedNetwork, WorkerPool,
};
use mlo_ir::Program;
use mlo_layout::{weights, CandidateSet, Layout, LayoutAssignment, LayoutNetwork};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;

/// Node budget of the sequential probe [`StrategyContext::run_scheduler`]
/// runs before fanning a search out over the worker pool.  Every paper
/// benchmark completes within a few thousand nodes, while the instances
/// that gain from parallel search burn through this budget almost at once.
pub(crate) const PROBE_NODES: u64 = 50_000;

/// Everything a strategy may consult while determining layouts.
///
/// The expensive inputs (candidate sets, constraint networks) are owned by
/// the session and built at most once per program; the context only hands
/// out borrows.
pub struct StrategyContext<'a> {
    session: &'a SessionInner,
    program: &'a Program,
    prepared: &'a PreparedProgram,
    request: &'a OptimizeRequest,
    limits: SearchLimits,
    hooks: SolveHooks,
    network_used: std::cell::Cell<bool>,
}

impl<'a> StrategyContext<'a> {
    pub(crate) fn new(
        session: &'a SessionInner,
        program: &'a Program,
        prepared: &'a PreparedProgram,
        request: &'a OptimizeRequest,
        limits: SearchLimits,
    ) -> Self {
        StrategyContext {
            session,
            program,
            prepared,
            request,
            limits,
            hooks: SolveHooks::default(),
            network_used: std::cell::Cell::new(false),
        }
    }

    /// Attaches external solve hooks (cooperative cancellation, incumbent
    /// streaming) to the context.
    pub(crate) fn with_hooks(mut self, hooks: SolveHooks) -> Self {
        self.hooks = hooks;
        self
    }

    /// The external cancellation token, when the caller attached one.
    /// Built-in strategies poll it through their cancellable entry points;
    /// custom strategies should do the same (or ignore it, at the cost of
    /// cancellation latency).
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.hooks.cancel.as_ref()
    }

    /// The incumbent observer, when the caller asked to stream incumbent
    /// improvements.  Only meaningful for optimizing (weighted) strategies.
    pub fn incumbent_observer(&self) -> Option<&IncumbentObserver> {
        self.hooks.incumbent.as_ref()
    }

    /// The session's shared worker pool (created on first use) — the pool
    /// every parallelism-aware strategy and `optimize_many` batch draws
    /// workers from.
    pub fn worker_pool(&self) -> Arc<WorkerPool> {
        self.session.worker_pool()
    }

    /// The worker budget for this request: the request budget's
    /// [`parallelism`](crate::SearchBudget::parallelism) knob, falling back
    /// to the engine default.
    pub fn parallelism(&self) -> usize {
        self.request
            .budget
            .parallelism
            .unwrap_or_else(|| self.session.engine().default_parallelism())
            .max(1)
    }

    /// Runs `search` on a [`StealScheduler`] — the one engine behind the
    /// `weighted`, `portfolio` and `portfolio-steal` strategies — with the
    /// request's incumbent observer attached.
    ///
    /// At `parallelism() > 1` the scheduler first runs alone on the calling
    /// thread under a [`PROBE_NODES`] budget, and re-runs on the session's
    /// pool only when that budget runs out (`ran_out_of_nodes`; a deadline
    /// or a cancellation is final).  Small instances thus never pay for
    /// pool dispatch, and because the scheduler's answer does not depend on
    /// its worker count, the strategy's answer does not either.  A request
    /// whose own node budget is no larger than the probe's runs on the
    /// calling thread alone.
    pub(crate) fn run_scheduler<R>(
        &self,
        limits: SearchLimits,
        search: impl Fn(&StealScheduler, &SearchLimits) -> R,
        ran_out_of_nodes: impl Fn(&R) -> bool,
    ) -> R {
        let mut scheduler = StealScheduler::new();
        if let Some(observer) = self.incumbent_observer() {
            scheduler = scheduler.observe_incumbent(observer.clone());
        }
        let parallelism = self.parallelism();
        if parallelism > 1 && limits.node_limit.is_none_or(|own| own > PROBE_NODES) {
            let probe_limits = SearchLimits {
                node_limit: Some(PROBE_NODES),
                ..limits
            };
            let probe = search(&scheduler, &probe_limits);
            if !ran_out_of_nodes(&probe) {
                return probe;
            }
            scheduler = scheduler
                .with_pool(self.worker_pool())
                .parallelism(parallelism);
        }
        search(&scheduler, &limits)
    }

    /// Whether this request's strategy consulted the constraint network
    /// (drives the report's `network` field — session cache state from
    /// earlier requests does not count).
    pub(crate) fn network_consulted(&self) -> bool {
        self.network_used.get()
    }

    /// The program being optimized.
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// The request being served.
    pub fn request(&self) -> &'a OptimizeRequest {
        self.request
    }

    /// The candidate layouts of every array (session-cached).
    pub fn candidates(&self) -> &CandidateSet {
        self.prepared.candidates(self.program)
    }

    /// The constraint network of the program (session-cached).
    pub fn network(&self) -> &LayoutNetwork {
        self.network_used.set(true);
        self.prepared.network(self.program)
    }

    /// The weighted constraint network derived with `options`
    /// (session-cached per distinct option set).  The returned `Arc` handle
    /// shares the hard network's constraint storage — serving a weighted
    /// request out of a warm session copies no tables at all, and the
    /// compiled [`WeightKernel`](mlo_csp::WeightKernel) riding in the
    /// cached network's spine is reused across requests.
    pub fn weighted_network(
        &self,
        options: &weights::WeightOptions,
    ) -> Arc<WeightedNetwork<Layout>> {
        self.network_used.set(true);
        self.prepared.weighted(self.program, options)
    }

    /// The compiled weighted execution kernel derived with `options`
    /// (session-cached alongside the weighted network; repeat requests
    /// return the identical `Arc`).
    pub fn weight_kernel(&self, options: &weights::WeightOptions) -> Arc<mlo_csp::WeightKernel> {
        self.network_used.set(true);
        self.prepared.weight_kernel(self.program, options)
    }

    /// The request's node/time budget in `mlo-csp` form.
    pub fn limits(&self) -> SearchLimits {
        self.limits
    }

    /// A fresh RNG seeded from the request: identical requests replay
    /// identical random decisions.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.request.seed)
    }

    /// The heuristic baseline's layouts (never fails; session-cached, so
    /// only the first heuristic request or fallback for a program runs
    /// it).
    pub fn heuristic(&self) -> LayoutAssignment {
        self.prepared.heuristic(self.program).clone()
    }

    /// Converts a constraint-network solution into a complete layout
    /// assignment (arrays without a network variable get row-major).
    pub fn assignment_from_solution(
        &self,
        solution: &mlo_csp::Solution<Layout>,
    ) -> LayoutAssignment {
        assignment_from_solution(self.program, self.network(), solution)
    }

    /// Maps a completed `mlo-csp` solve onto a [`StrategyOutcome`],
    /// classifying limit hits and unsatisfiability — shared by every
    /// systematic-search strategy.
    pub fn outcome_from_solve(&self, result: SolveResult<Layout>) -> StrategyOutcome {
        match result.solution {
            Some(solution) => StrategyOutcome::Solved {
                assignment: self.assignment_from_solution(&solution),
                stats: Some(result.stats),
                proven_satisfiable: true,
            },
            None if result.hit_deadline => StrategyOutcome::Exhausted {
                reason: FallbackReason::DeadlineExceeded,
                stats: Some(result.stats),
            },
            None if result.hit_node_limit => StrategyOutcome::Exhausted {
                reason: FallbackReason::NodeBudgetExhausted,
                stats: Some(result.stats),
            },
            // The cancelled arm must precede the unsatisfiable one: a run
            // aborted by a CancelToken has no solution and no limit hits,
            // which would otherwise read as an UNSAT proof.
            None if result.cancelled => StrategyOutcome::Exhausted {
                reason: FallbackReason::Cancelled,
                stats: Some(result.stats),
            },
            None => StrategyOutcome::Unsatisfiable {
                stats: Some(result.stats),
            },
        }
    }
}

/// What a strategy's search concluded.
#[derive(Debug, Clone)]
pub enum StrategyOutcome {
    /// A complete assignment was produced.
    Solved {
        /// The layouts (complete over the program's arrays).
        assignment: LayoutAssignment,
        /// Search counters, when a search ran.
        stats: Option<SearchStats>,
        /// Whether the assignment is a proof of network satisfiability
        /// (`false` for e.g. the heuristic, which solves no network).
        proven_satisfiable: bool,
    },
    /// The network was proven to have no solution.
    Unsatisfiable {
        /// Search counters of the proving run.
        stats: Option<SearchStats>,
    },
    /// A budget ran out before the search could conclude.
    Exhausted {
        /// Which budget.
        reason: FallbackReason,
        /// Search counters accumulated before the cutoff.
        stats: Option<SearchStats>,
    },
}

/// An object-safe layout-determination strategy.
///
/// Implementations must be cheap to share (`Send + Sync`): one value serves
/// concurrent requests, with all per-request state coming in through the
/// [`StrategyContext`].
pub trait LayoutStrategy: Send + Sync {
    /// The registry name (lower-case, hyphenated by convention).
    fn name(&self) -> &str;

    /// One-line human description.
    fn description(&self) -> &str {
        ""
    }

    /// Determines layouts for the context's program.
    fn determine(&self, ctx: &StrategyContext<'_>) -> Result<StrategyOutcome, OptimizeError>;
}

impl fmt::Debug for dyn LayoutStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LayoutStrategy({})", self.name())
    }
}

/// The heuristic layout-propagation baseline (paper, Section 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct HeuristicStrategy;

impl LayoutStrategy for HeuristicStrategy {
    fn name(&self) -> &str {
        "heuristic"
    }

    fn description(&self) -> &str {
        "layout propagation ordered by nest cost (the paper's baseline)"
    }

    fn determine(&self, ctx: &StrategyContext<'_>) -> Result<StrategyOutcome, OptimizeError> {
        Ok(StrategyOutcome::Solved {
            assignment: ctx.heuristic(),
            stats: None,
            proven_satisfiable: false,
        })
    }
}

/// A systematic constraint search configured as one of the paper's schemes.
#[derive(Debug, Clone)]
pub struct SchemeStrategy {
    name: &'static str,
    description: &'static str,
    scheme: CspScheme,
}

impl SchemeStrategy {
    /// The paper's base scheme (random orderings, chronological
    /// backtracking).
    pub fn base() -> Self {
        SchemeStrategy {
            name: "base",
            description: "random orderings, chronological backtracking (paper base scheme)",
            scheme: CspScheme::Base,
        }
    }

    /// The paper's enhanced scheme.
    pub fn enhanced() -> Self {
        SchemeStrategy {
            name: "enhanced",
            description:
                "most-constraining variable, least-constraining value, backjumping (paper enhanced scheme)",
            scheme: CspScheme::Enhanced,
        }
    }

    /// Enhanced plus forward checking.
    pub fn forward_checking() -> Self {
        SchemeStrategy {
            name: "forward-checking",
            description: "enhanced scheme plus forward checking",
            scheme: CspScheme::ForwardChecking,
        }
    }

    /// Enhanced plus AC-3 preprocessing and forward checking.
    pub fn full_propagation() -> Self {
        SchemeStrategy {
            name: "full-propagation",
            description: "enhanced scheme plus AC-3 preprocessing and forward checking",
            scheme: CspScheme::FullPropagation,
        }
    }

    /// The underlying `mlo-csp` scheme.
    pub fn scheme(&self) -> CspScheme {
        self.scheme
    }
}

impl LayoutStrategy for SchemeStrategy {
    fn name(&self) -> &str {
        self.name
    }

    fn description(&self) -> &str {
        self.description
    }

    fn determine(&self, ctx: &StrategyContext<'_>) -> Result<StrategyOutcome, OptimizeError> {
        let engine = SearchEngine::with_scheme(self.scheme);
        let mut rng = ctx.rng();
        let result = match ctx.cancel_token() {
            Some(token) => {
                engine.solve_cancellable(ctx.network().network(), &mut rng, &ctx.limits(), token)
            }
            None => engine.search(ctx.network().network(), &mut rng, &ctx.limits()),
        };
        Ok(ctx.outcome_from_solve(result))
    }
}

/// Weighted constraints solved with branch and bound (the paper's first
/// future direction) on the work-stealing scheduler.
#[derive(Debug, Clone)]
pub struct WeightedStrategy {
    /// How constraint weights are derived from nest costs.
    pub weights: weights::WeightOptions,
    /// Default node cap when the request sets none (branch and bound
    /// explores exhaustively and needs one on larger networks).
    pub default_node_limit: u64,
}

impl Default for WeightedStrategy {
    fn default() -> Self {
        WeightedStrategy {
            weights: weights::WeightOptions::default(),
            default_node_limit: 2_000_000,
        }
    }
}

impl LayoutStrategy for WeightedStrategy {
    fn name(&self) -> &str {
        "weighted"
    }

    fn description(&self) -> &str {
        "branch and bound over nest-cost-weighted constraints"
    }

    fn determine(&self, ctx: &StrategyContext<'_>) -> Result<StrategyOutcome, OptimizeError> {
        // An Arc handle onto the session-cached weighted network: nothing is
        // copied — the hard constraint tables are shared with the cached
        // LayoutNetwork and the weight tables are derived at most once per
        // (program, options) pair.
        let weighted = ctx.weighted_network(&self.weights);
        let mut limits = ctx.limits();
        limits.node_limit = Some(limits.node_limit.unwrap_or(self.default_node_limit));
        let result = ctx.run_scheduler(
            limits,
            |scheduler, limits| {
                scheduler
                    .optimize_detailed(&weighted, limits, ctx.cancel_token())
                    .result
            },
            |result| result.hit_node_limit && !result.hit_deadline && !result.cancelled,
        );
        match result.solution {
            Some(solution) => Ok(StrategyOutcome::Solved {
                assignment: ctx.assignment_from_solution(&solution),
                stats: Some(result.stats),
                proven_satisfiable: true,
            }),
            None if result.hit_deadline => Ok(StrategyOutcome::Exhausted {
                reason: FallbackReason::DeadlineExceeded,
                stats: Some(result.stats),
            }),
            None if result.hit_node_limit => Ok(StrategyOutcome::Exhausted {
                reason: FallbackReason::NodeBudgetExhausted,
                stats: Some(result.stats),
            }),
            None if result.cancelled => Ok(StrategyOutcome::Exhausted {
                reason: FallbackReason::Cancelled,
                stats: Some(result.stats),
            }),
            None => Ok(StrategyOutcome::Unsatisfiable {
                stats: Some(result.stats),
            }),
        }
    }
}

/// Min-conflicts local search with restarts (extension).
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalSearchStrategy {
    /// The min-conflicts configuration (its seed is overridden by the
    /// request's RNG).
    pub config: MinConflicts,
}

impl LayoutStrategy for LocalSearchStrategy {
    fn name(&self) -> &str {
        "local-search"
    }

    fn description(&self) -> &str {
        "min-conflicts local search with restarts (cannot prove unsatisfiability)"
    }

    fn determine(&self, ctx: &StrategyContext<'_>) -> Result<StrategyOutcome, OptimizeError> {
        let mut rng = ctx.rng();
        let network = ctx.network().network();
        let result = match ctx.cancel_token() {
            Some(token) => self
                .config
                .solve_cancellable(network, &mut rng, &ctx.limits(), token),
            None => self.config.solve_with(network, &mut rng, &ctx.limits()),
        };
        match result.solution {
            Some(solution) => Ok(StrategyOutcome::Solved {
                assignment: ctx.assignment_from_solution(&solution),
                stats: Some(result.stats),
                proven_satisfiable: true,
            }),
            None if result.hit_deadline => Ok(StrategyOutcome::Exhausted {
                reason: FallbackReason::DeadlineExceeded,
                stats: Some(result.stats),
            }),
            None if result.cancelled => Ok(StrategyOutcome::Exhausted {
                reason: FallbackReason::Cancelled,
                stats: Some(result.stats),
            }),
            // Local search cannot prove unsatisfiability: an exhausted
            // budget is always inconclusive.
            None => Ok(StrategyOutcome::Exhausted {
                reason: FallbackReason::Inconclusive,
                stats: Some(result.stats),
            }),
        }
    }
}

/// `portfolio`: a registry alias of [`PortfolioStealStrategy`].
///
/// The name predates the work-stealing scheduler and stays so that
/// existing requests keep resolving; reports still name it `portfolio`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortfolioStrategy;

impl LayoutStrategy for PortfolioStrategy {
    fn name(&self) -> &str {
        "portfolio"
    }

    fn description(&self) -> &str {
        "alias of portfolio-steal"
    }

    fn determine(&self, ctx: &StrategyContext<'_>) -> Result<StrategyOutcome, OptimizeError> {
        PortfolioStealStrategy.determine(ctx)
    }
}

/// Work-stealing dynamic shard search: one search tree, partitioned
/// across the session's worker pool and re-partitioned on the fly as
/// workers go idle, so *UNSAT proofs* and exhaustive tails parallelize
/// too.  The merge contract is deterministic (the lowest-canonical-key
/// solution wins), so the reported solution is identical at every thread
/// count.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortfolioStealStrategy;

impl LayoutStrategy for PortfolioStealStrategy {
    fn name(&self) -> &str {
        "portfolio-steal"
    }

    fn description(&self) -> &str {
        "work-stealing dynamic shard search (parallel UNSAT proofs, thread-count-independent result)"
    }

    fn determine(&self, ctx: &StrategyContext<'_>) -> Result<StrategyOutcome, OptimizeError> {
        let network = ctx.network().network();
        let result = ctx.run_scheduler(
            ctx.limits(),
            |scheduler, limits| {
                scheduler
                    .solve_detailed(network, limits, ctx.cancel_token())
                    .result
            },
            |result| result.hit_node_limit && !result.hit_deadline && !result.cancelled,
        );
        Ok(ctx.outcome_from_solve(result))
    }
}

/// A name-indexed collection of strategies, preserving registration order.
///
/// [`StrategyRegistry::builtin`] registers the nine built-in strategies;
/// [`StrategyRegistry::register`] adds
/// (or replaces) entries, so downstream users plug in custom strategies
/// without touching this crate.
#[derive(Debug, Clone, Default)]
pub struct StrategyRegistry {
    entries: Vec<Arc<dyn LayoutStrategy>>,
}

impl StrategyRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        StrategyRegistry::default()
    }

    /// The registry of the nine built-in strategies, in the canonical
    /// order (heuristic, base, enhanced, forward-checking,
    /// full-propagation, weighted, local-search, portfolio,
    /// portfolio-steal).
    pub fn builtin() -> Self {
        let mut registry = StrategyRegistry::empty();
        registry.register(Arc::new(HeuristicStrategy));
        registry.register(Arc::new(SchemeStrategy::base()));
        registry.register(Arc::new(SchemeStrategy::enhanced()));
        registry.register(Arc::new(SchemeStrategy::forward_checking()));
        registry.register(Arc::new(SchemeStrategy::full_propagation()));
        registry.register(Arc::new(WeightedStrategy::default()));
        registry.register(Arc::new(LocalSearchStrategy::default()));
        registry.register(Arc::new(PortfolioStrategy));
        registry.register(Arc::new(PortfolioStealStrategy));
        registry
    }

    /// Registers a strategy, replacing any existing entry with the same
    /// name (the new entry keeps the old entry's position).
    pub fn register(&mut self, strategy: Arc<dyn LayoutStrategy>) {
        match self
            .entries
            .iter_mut()
            .find(|e| e.name() == strategy.name())
        {
            Some(slot) => *slot = strategy,
            None => self.entries.push(strategy),
        }
    }

    /// Looks a strategy up by typed id (a [`StrategyId::Custom`] resolves
    /// against registered names exactly like a built-in).
    pub fn resolve(&self, id: &StrategyId) -> Option<Arc<dyn LayoutStrategy>> {
        self.entries
            .iter()
            .find(|e| e.name() == id.as_str())
            .cloned()
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.name().to_string()).collect()
    }

    /// Iterates the registered strategies in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn LayoutStrategy>> {
        self.entries.iter()
    }

    /// Number of registered strategies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Converts a constraint-network solution into a complete layout assignment
/// (arrays without a network variable get their canonical row-major
/// layout).
pub(crate) fn assignment_from_solution(
    program: &Program,
    layout_network: &LayoutNetwork,
    solution: &mlo_csp::Solution<Layout>,
) -> LayoutAssignment {
    let mut assignment = LayoutAssignment::new();
    for array in program.arrays() {
        match layout_network.variable_of(array.id()) {
            Some(var) => assignment.set(array.id(), solution.value(var).clone()),
            None => assignment.set(array.id(), Layout::row_major(array.rank())),
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_the_nine_builtin_strategies() {
        let registry = StrategyRegistry::builtin();
        assert_eq!(
            registry.names(),
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
            ]
        );
        assert_eq!(registry.len(), 9);
        assert!(!registry.is_empty());
        assert!(registry.resolve(&StrategyId::Enhanced).is_some());
        assert!(registry.resolve(&StrategyId::Portfolio).is_some());
        assert!(registry.resolve(&StrategyId::PortfolioSteal).is_some());
        assert!(registry.resolve(&StrategyId::custom("nope")).is_none());
    }

    #[test]
    fn register_replaces_by_name_in_place() {
        let mut registry = StrategyRegistry::builtin();
        // A "base" replacement that is really the enhanced scheme.
        #[derive(Debug)]
        struct FakeBase;
        impl LayoutStrategy for FakeBase {
            fn name(&self) -> &str {
                "base"
            }
            fn determine(
                &self,
                ctx: &StrategyContext<'_>,
            ) -> Result<StrategyOutcome, OptimizeError> {
                SchemeStrategy::enhanced().determine(ctx)
            }
        }
        registry.register(Arc::new(FakeBase));
        assert_eq!(registry.len(), 9);
        assert_eq!(registry.names()[1], "base");
        assert_eq!(
            format!("{:?}", registry.resolve(&StrategyId::Base).unwrap()),
            "LayoutStrategy(base)"
        );
    }

    #[test]
    fn strategies_describe_themselves() {
        for strategy in StrategyRegistry::builtin().iter() {
            assert!(!strategy.name().is_empty());
            assert!(!strategy.description().is_empty());
        }
    }
}
