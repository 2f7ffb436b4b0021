//! The reusable optimization engine and its sessions.
//!
//! [`Engine`] owns the [`StrategyRegistry`] and the defaults; a
//! [`Session`] amortizes the expensive per-program work — candidate
//! enumeration and constraint-network construction — across requests, keyed
//! by structural program identity ([`Program::fingerprint`] plus a full
//! `==` on a hit) in a capped LRU.  [`Session::optimize_many`] fans a batch
//! of (program, request) pairs out over worker threads.
//!
//! ```
//! use mlo_core::{Engine, OptimizeRequest};
//! use mlo_benchmarks::Benchmark;
//!
//! let engine = Engine::new();
//! let session = engine.session();
//! let program = Benchmark::MedIm04.program();
//! let request = OptimizeRequest::strategy("enhanced")
//!     .candidates(Benchmark::MedIm04.candidate_options());
//! // Two requests, one network build: the session caches per program.
//! let first = session.optimize(&program, &request).unwrap();
//! let second = session.optimize(&program, &request.clone().seed(1)).unwrap();
//! assert_eq!(first.assignment, second.assignment);
//! assert_eq!(session.prepared_programs(), 1);
//! ```

use crate::error::{Fallback, FallbackReason, OptimizeError};
use crate::request::{EvaluationOptions, OptimizeRequest, StrategyId};
use crate::strategy::{LayoutStrategy, StrategyContext, StrategyOutcome, StrategyRegistry};
use mlo_cachesim::{SimulationReport, Simulator};
use mlo_csp::{
    lock_or_recover, CancelToken, IncumbentObserver, SearchLimits, SearchStats, WeightedNetwork,
    WorkerPool,
};
use mlo_ir::Program;
use mlo_layout::{
    heuristic_assignment, weights::WeightOptions, CandidateOptions, CandidateSet, Layout,
    LayoutAssignment, LayoutNetwork,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Summary of the constraint network an optimization run worked on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSummary {
    /// Number of variables (arrays).
    pub variables: usize,
    /// Number of binary constraints.
    pub constraints: usize,
    /// Total domain size (the paper's Table 1 metric).
    pub total_domain_size: usize,
    /// Product of domain sizes (naive search-space size).
    pub search_space: f64,
}

/// External hooks a caller may attach to one solve.
///
/// Both hooks are cooperative and optional; a request served without hooks
/// behaves (and *performs*) exactly as before — the solvers only check a
/// token or feed an observed incumbent when one is present.
#[derive(Debug, Clone, Default)]
pub struct SolveHooks {
    /// Cooperative cancellation: every built-in strategy polls the token at
    /// its deadline-poll points and aborts within microseconds of it
    /// firing, reporting
    /// [`FallbackReason::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// Incumbent streaming: notified with each strictly-improving bound the
    /// weighted (branch-and-bound) strategies establish.  Ignored by
    /// satisfiability strategies, which have no incumbent.
    pub incumbent: Option<IncumbentObserver>,
}

impl SolveHooks {
    /// Hooks with only a cancellation token attached.
    pub fn cancellable(cancel: CancelToken) -> Self {
        SolveHooks {
            cancel: Some(cancel),
            incumbent: None,
        }
    }
}

impl NetworkSummary {
    fn of(network: &LayoutNetwork) -> Self {
        let net = network.network();
        NetworkSummary {
            variables: net.variable_count(),
            constraints: net.constraint_count(),
            total_domain_size: net.total_domain_size(),
            search_space: net.search_space_size(),
        }
    }
}

/// The per-program state a session caches: candidate layouts, the
/// constraint network (whose storage also carries the compiled bitset
/// kernel), any derived weighted networks and the heuristic baseline's
/// layouts, all built lazily at most once.
///
/// Every cached artifact is `Arc`-backed (see `mlo_layout` / `mlo_csp`), so
/// handing it to a strategy, a scheduler worker or a batch job shares
/// storage instead of copying tables.  The weighted-network cache is a
/// small LRU capped at [`Session::DEFAULT_WEIGHTED_CACHE_CAP`], so
/// long-lived serving sessions that sweep many [`WeightOptions`] cannot
/// grow it without bound.
#[derive(Debug)]
pub struct PreparedProgram {
    options: CandidateOptions,
    candidates: OnceLock<CandidateSet>,
    network: OnceLock<LayoutNetwork>,
    /// What heuristic requests and every fallback answer with.
    heuristic: OnceLock<LayoutAssignment>,
    /// Weighted networks derived from the cached hard network, one per
    /// distinct [`WeightOptions`], most recently used first (a short list:
    /// requests overwhelmingly reuse the strategy default).
    weighted: Mutex<Vec<(WeightOptions, Arc<WeightedNetwork<Layout>>)>>,
}

impl PreparedProgram {
    fn new(options: CandidateOptions) -> Self {
        PreparedProgram {
            options,
            candidates: OnceLock::new(),
            network: OnceLock::new(),
            heuristic: OnceLock::new(),
            weighted: Mutex::new(Vec::new()),
        }
    }

    /// The candidate set, enumerating it on first use.
    pub fn candidates(&self, program: &Program) -> &CandidateSet {
        self.candidates
            .get_or_init(|| CandidateSet::enumerate(program, &self.options))
    }

    /// The constraint network, building it (from the cached candidates) on
    /// first use.
    pub fn network(&self, program: &Program) -> &LayoutNetwork {
        self.network
            .get_or_init(|| mlo_layout::build_network_from(program, self.candidates(program)))
    }

    /// The heuristic baseline's layouts (see [`heuristic_assignment`]),
    /// computed on first use.  Heuristic requests and the fallbacks of
    /// unsatisfiable or exhausted searches read them.  Computing them
    /// builds neither the candidates nor the network.
    pub fn heuristic(&self, program: &Program) -> &LayoutAssignment {
        self.heuristic
            .get_or_init(|| heuristic_assignment(program).assignment)
    }

    /// The compiled execution kernel of the cached network (forced on
    /// first use, then cached inside the shared network storage: every
    /// strategy, scheduler worker and weighted derivation of this program
    /// reuses the identical `Arc`).
    pub fn kernel(&self, program: &Program) -> Arc<mlo_csp::BitKernel> {
        Arc::clone(self.network(program).kernel())
    }

    /// The weighted network derived with `options`, deriving (and caching)
    /// it on first use.  The returned handle shares the cached hard
    /// network's constraint storage — repeat weighted requests copy
    /// nothing.  The cache is LRU: the least recently used entry is
    /// evicted once [`Session::DEFAULT_WEIGHTED_CACHE_CAP`] is exceeded.
    pub fn weighted(
        &self,
        program: &Program,
        options: &WeightOptions,
    ) -> Arc<WeightedNetwork<Layout>> {
        if let Some(weighted) = self.weighted_hit(options) {
            return weighted;
        }
        // Derive outside the lock (it can be expensive); a racing request
        // deriving the same options loses benignly below.
        let derived = Arc::new(mlo_layout::weights::derive_weights(
            program,
            self.network(program),
            options,
        ));
        let mut cache = lock_or_recover(&self.weighted);
        if let Some(existing) = Self::promote(&mut cache, options) {
            return existing;
        }
        cache.insert(0, (*options, Arc::clone(&derived)));
        cache.truncate(Session::DEFAULT_WEIGHTED_CACHE_CAP);
        derived
    }

    /// The compiled weighted execution kernel of the cached weighted
    /// network (dense weight matrices + aggregates, see
    /// `mlo_csp::bitset::WeightKernel`), forced on first use and cached
    /// inside the shared weight spine: every weighted request served out of
    /// a warm session — and every scheduler worker it fans out to — reuses
    /// the identical compiled kernel (`Arc::ptr_eq`-verifiable).
    pub fn weight_kernel(
        &self,
        program: &Program,
        options: &WeightOptions,
    ) -> Arc<mlo_csp::WeightKernel> {
        Arc::clone(self.weighted(program, options).weight_kernel())
    }

    /// Cache lookup with LRU promotion (most recent at the front).
    fn weighted_hit(&self, options: &WeightOptions) -> Option<Arc<WeightedNetwork<Layout>>> {
        Self::promote(&mut lock_or_recover(&self.weighted), options)
    }

    /// The one copy of the LRU discipline: finds `options`, moves its
    /// entry to the front and returns the shared handle.
    fn promote(
        cache: &mut Vec<(WeightOptions, Arc<WeightedNetwork<Layout>>)>,
        options: &WeightOptions,
    ) -> Option<Arc<WeightedNetwork<Layout>>> {
        let position = cache.iter().position(|(cached, _)| cached == options)?;
        let entry = cache.remove(position);
        let weighted = Arc::clone(&entry.1);
        cache.insert(0, entry);
        Some(weighted)
    }

    /// Number of weighted networks currently cached.
    pub fn weighted_cached(&self) -> usize {
        lock_or_recover(&self.weighted).len()
    }

    /// Whether the network has been built yet.
    pub fn network_built(&self) -> bool {
        self.network.get().is_some()
    }
}

/// The result of one successful optimization request.
#[derive(Debug, Clone)]
pub struct OptimizeReport {
    /// The layout chosen for every array (always complete).
    pub assignment: LayoutAssignment,
    /// The registry name of the strategy that ran.
    pub strategy: String,
    /// Time spent determining the layouts (the paper's Table 2 metric):
    /// the strategy, any heuristic fallback, and whatever part of the
    /// program's preparation they build on first use.  The heuristic's
    /// layouts are cached per prepared program, so on a warm session a
    /// heuristic request or a fallback reads them instead of running the
    /// heuristic.
    pub solution_time: Duration,
    /// Search statistics, when a constraint search ran.
    pub search_stats: Option<SearchStats>,
    /// Whether the constraint network had a solution: `Some(true)` when the
    /// strategy proved one, `Some(false)` when it proved none exists,
    /// `None` when no proof was attempted or reached (heuristic, exhausted
    /// budgets, local search without a find).
    pub satisfiable: Option<bool>,
    /// Whether (and why) the layouts came from the heuristic baseline.
    pub fallback: Fallback,
    /// Network shape, when the strategy consulted the network.
    pub network: Option<NetworkSummary>,
    /// Cache-simulation results, when the request asked for evaluation.
    pub evaluation: Option<SimulationReport>,
    /// Whether the report was served by a *different* strategy than the
    /// request asked for, because the requested one faulted (panicked or
    /// kept failing) and a resilience ladder re-dispatched the work.
    /// Always `false` for reports produced by direct engine calls; the
    /// service front-end sets it when its retry/fallback ladder descends.
    pub degraded: bool,
}

impl OptimizeReport {
    /// Whether the layouts came from the heuristic fallback.
    pub fn fell_back(&self) -> bool {
        self.fallback.fell_back()
    }
}

/// Builds [`Engine`] values with a customized registry or defaults.
#[derive(Debug, Default)]
pub struct EngineBuilder {
    registry: Option<StrategyRegistry>,
    default_candidates: CandidateOptions,
    parallelism: Option<usize>,
}

impl EngineBuilder {
    /// Starts from the built-in registry and default options.
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Replaces the whole registry.
    pub fn registry(mut self, registry: StrategyRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Registers one extra (or replacement) strategy on top of the
    /// built-ins.
    pub fn strategy(mut self, strategy: Arc<dyn LayoutStrategy>) -> Self {
        let mut registry = self.registry.unwrap_or_else(StrategyRegistry::builtin);
        registry.register(strategy);
        self.registry = Some(registry);
        self
    }

    /// Default candidate options for requests (requests can still override
    /// per run — this is the session-cache key default).
    pub fn default_candidates(mut self, options: CandidateOptions) -> Self {
        self.default_candidates = options;
        self
    }

    /// Sizes the session-shared worker pool: `optimize_many` batches and
    /// parallelism-aware strategies (`portfolio`, `portfolio-steal`,
    /// `weighted`) all draw
    /// their workers from it (default: available parallelism).
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = Some(workers.max(1));
        self
    }

    /// Finishes the engine.
    pub fn build(self) -> Engine {
        Engine {
            registry: Arc::new(self.registry.unwrap_or_else(StrategyRegistry::builtin)),
            default_candidates: self.default_candidates,
            parallelism: self.parallelism,
        }
    }
}

/// The reusable, thread-safe optimization engine.
///
/// An engine is cheap to clone (the registry is shared); per-program caches
/// live in [`Session`]s so callers control cache lifetime.
#[derive(Debug, Clone)]
pub struct Engine {
    registry: Arc<StrategyRegistry>,
    default_candidates: CandidateOptions,
    parallelism: Option<usize>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with the nine built-in strategies.
    pub fn new() -> Self {
        EngineBuilder::new().build()
    }

    /// Starts a customized engine build.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The strategy registry.
    pub fn registry(&self) -> &StrategyRegistry {
        &self.registry
    }

    /// A request for the given strategy (a [`StrategyId`] or, via
    /// `From<&str>`, a name) pre-filled with the engine's default candidate
    /// options.
    pub fn request(&self, strategy: impl Into<StrategyId>) -> OptimizeRequest {
        OptimizeRequest::strategy(strategy).candidates(self.default_candidates)
    }

    /// Opens a session: requests submitted through one session share
    /// candidate sets, constraint networks *and one worker pool* per
    /// session.
    pub fn session(&self) -> Session {
        Session {
            inner: Arc::new(SessionInner {
                engine: self.clone(),
                prepared: Mutex::new(PreparedCache::new(Session::DEFAULT_PREPARED_CACHE_CAP)),
                pool: OnceLock::new(),
            }),
        }
    }

    /// One-shot convenience: a throw-away session serving a single request.
    pub fn optimize(
        &self,
        program: &Program,
        request: &OptimizeRequest,
    ) -> Result<OptimizeReport, OptimizeError> {
        self.session().optimize(program, request)
    }

    /// The engine-wide worker budget: [`EngineBuilder::parallelism`] when
    /// set, otherwise the machine's available parallelism.
    pub(crate) fn default_parallelism(&self) -> usize {
        self.parallelism
            .or_else(|| thread::available_parallelism().ok().map(|n| n.get()))
            .unwrap_or(1)
            .max(1)
    }
}

/// Counters of a session's prepared-program cache, read in one snapshot by
/// [`Session::prepared_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreparedStats {
    /// Lookups that found their (program, candidate options) pair cached.
    pub hits: u64,
    /// Lookups that created a new entry.
    pub misses: u64,
    /// Entries dropped, least recently used first, to stay within the cap.
    pub evictions: u64,
    /// Entries cached now.
    pub entries: usize,
}

/// One cached (program, candidate options) pair.
#[derive(Debug)]
struct PreparedEntry {
    prepared: Arc<PreparedProgram>,
    /// The recency clock at this entry's last lookup.
    last_used: u64,
}

/// A session's prepared programs: an LRU keyed by (program, candidate
/// options).  A lookup hashes the program's fingerprint; a hit costs one
/// `==` on the program, and only an insert past the cap scans for the
/// entry to evict.
#[derive(Debug)]
struct PreparedCache {
    entries: HashMap<(Program, CandidateOptions), PreparedEntry>,
    cap: usize,
    /// Bumped by every lookup.
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PreparedCache {
    fn new(cap: usize) -> Self {
        PreparedCache {
            entries: HashMap::new(),
            cap,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The entry of `program` under `options`, marked most recently used;
    /// on a miss, a new entry from `make`, evicting least recently used
    /// entries down to the cap.
    fn get_or_insert(
        &mut self,
        program: &Program,
        options: &CandidateOptions,
        make: impl FnOnce() -> PreparedProgram,
    ) -> Arc<PreparedProgram> {
        self.clock += 1;
        let clock = self.clock;
        // The key clone shares the program's parts.
        match self.entries.entry((program.clone(), *options)) {
            Entry::Occupied(entry) => {
                let entry = entry.into_mut();
                entry.last_used = clock;
                self.hits += 1;
                Arc::clone(&entry.prepared)
            }
            Entry::Vacant(slot) => {
                let prepared = Arc::new(make());
                slot.insert(PreparedEntry {
                    prepared: Arc::clone(&prepared),
                    last_used: clock,
                });
                self.misses += 1;
                while self.entries.len() > self.cap {
                    let oldest = self
                        .entries
                        .iter()
                        .min_by_key(|(_, entry)| entry.last_used)
                        .map(|(key, _)| key.clone())
                        .expect("a cache over its cap is not empty");
                    self.entries.remove(&oldest);
                    self.evictions += 1;
                }
                prepared
            }
        }
    }

    fn stats(&self) -> PreparedStats {
        PreparedStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
        }
    }
}

/// A scope that amortizes candidate enumeration, network construction and
/// one worker pool across requests, keyed by program identity.
///
/// Cloning a session is cheap and shares all of that state.
#[derive(Debug, Clone)]
pub struct Session {
    inner: Arc<SessionInner>,
}

/// The shared state behind a [`Session`].
#[derive(Debug)]
pub(crate) struct SessionInner {
    engine: Engine,
    prepared: Mutex<PreparedCache>,
    /// The session's worker pool, created on first parallel use so purely
    /// sequential sessions never spawn a thread.
    pool: OnceLock<Arc<WorkerPool>>,
}

impl Session {
    /// LRU capacity of the per-program weighted-network cache: plenty for
    /// benchmark sweeps (which reuse one or two [`WeightOptions`]) while
    /// bounding long-lived serving sessions.
    pub const DEFAULT_WEIGHTED_CACHE_CAP: usize = 8;

    /// LRU capacity of the prepared-program cache: well above the distinct
    /// (program, candidate options) pairs of a benchmark corpus (149 in
    /// perfbench's), while bounding a long-lived serving session.
    /// Prepared state is a pure function of its key, so eviction never
    /// changes a result; an evicted pair is prepared again on its next
    /// request.
    pub const DEFAULT_PREPARED_CACHE_CAP: usize = 256;

    /// The engine this session came from.
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// Number of distinct (program, candidate-options) pairs cached now.
    pub fn prepared_programs(&self) -> usize {
        lock_or_recover(&self.inner.prepared).entries.len()
    }

    /// The prepared-program cache's hit, miss and eviction counters and its
    /// current size, read in one snapshot.
    pub fn prepared_stats(&self) -> PreparedStats {
        lock_or_recover(&self.inner.prepared).stats()
    }

    /// The prepared (cached) state of a program under the given candidate
    /// options, building the entry on first use.
    pub fn prepared(&self, program: &Program, options: &CandidateOptions) -> Arc<PreparedProgram> {
        self.inner.prepared(program, options)
    }

    /// The session's shared worker pool (created on first use, sized by
    /// [`EngineBuilder::parallelism`] or the machine), serving both
    /// [`Session::optimize_many`] batches and parallelism-aware strategies.
    pub fn worker_pool(&self) -> Arc<WorkerPool> {
        self.inner.worker_pool()
    }

    /// Serves one request.
    pub fn optimize(
        &self,
        program: &Program,
        request: &OptimizeRequest,
    ) -> Result<OptimizeReport, OptimizeError> {
        self.inner
            .optimize(program, request, &SolveHooks::default())
    }

    /// Serves one request with external [`SolveHooks`] attached
    /// (cooperative cancellation and/or incumbent streaming).  With default
    /// hooks this is exactly [`Session::optimize`].
    pub fn optimize_with_hooks(
        &self,
        program: &Program,
        request: &OptimizeRequest,
        hooks: &SolveHooks,
    ) -> Result<OptimizeReport, OptimizeError> {
        self.inner.optimize(program, request, hooks)
    }
}

impl SessionInner {
    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }

    pub(crate) fn worker_pool(&self) -> Arc<WorkerPool> {
        self.pool
            .get_or_init(|| Arc::new(WorkerPool::new(self.engine.default_parallelism())))
            .clone()
    }

    fn prepared(&self, program: &Program, options: &CandidateOptions) -> Arc<PreparedProgram> {
        lock_or_recover(&self.prepared)
            .get_or_insert(program, options, || PreparedProgram::new(*options))
    }

    /// Serves one request end to end: solve, then (when requested) evaluate
    /// inline on the calling thread.  Batches instead route the evaluation
    /// through the worker pool — see [`Session::optimize_many`].
    fn optimize(
        &self,
        program: &Program,
        request: &OptimizeRequest,
        hooks: &SolveHooks,
    ) -> Result<OptimizeReport, OptimizeError> {
        let mut report = self.solve_request(program, request, hooks)?;
        if let Some(options) = &request.evaluation {
            let strategy = report.strategy.clone();
            report.evaluation =
                Some(self.evaluate(program, &report.assignment, &strategy, options)?);
        }
        Ok(report)
    }

    /// Runs the cache-simulation evaluation of a chosen assignment (the
    /// second, independently schedulable phase of a request).
    pub(crate) fn evaluate(
        &self,
        program: &Program,
        assignment: &LayoutAssignment,
        strategy: &str,
        options: &EvaluationOptions,
    ) -> Result<SimulationReport, OptimizeError> {
        let simulator = Simulator::new(options.machine).trace_options(options.trace);
        simulator
            .simulate(program, assignment)
            .map_err(|error| OptimizeError::Evaluation {
                strategy: strategy.to_string(),
                message: error.to_string(),
            })
    }

    /// The solve phase of a request: everything except the optional
    /// cache-simulation evaluation (`report.evaluation` is left `None`).
    fn solve_request(
        &self,
        program: &Program,
        request: &OptimizeRequest,
        hooks: &SolveHooks,
    ) -> Result<OptimizeReport, OptimizeError> {
        mlo_csp::fail_point!("engine.solve", |fault: mlo_csp::FaultError| {
            Err(OptimizeError::Strategy {
                strategy: request.strategy.to_string(),
                message: fault.to_string(),
            })
        });
        let strategy = self
            .engine
            .registry
            .resolve(&request.strategy)
            .ok_or_else(|| OptimizeError::UnknownStrategy {
                name: request.strategy.to_string(),
                known: self.engine.registry.names(),
            })?;
        let prepared = self.prepared(program, &request.candidates);

        let start = Instant::now();
        let limits = SearchLimits {
            node_limit: request.budget.nodes,
            // A deadline past `Instant`'s range is no deadline at all.
            deadline: request
                .budget
                .deadline
                .and_then(|budget| start.checked_add(budget)),
        };
        let ctx = StrategyContext::new(self, program, &prepared, request, limits)
            .with_hooks(hooks.clone());
        let outcome = strategy.determine(&ctx)?;
        let solution_time = start.elapsed();

        // Only report the network shape when *this* request's strategy
        // consulted it — a warm session cache from earlier requests must not
        // change what a heuristic report looks like.
        let network_summary = ctx
            .network_consulted()
            .then(|| NetworkSummary::of(prepared.network(program)));
        let report = match outcome {
            StrategyOutcome::Solved {
                assignment,
                stats,
                proven_satisfiable,
            } => OptimizeReport {
                assignment,
                strategy: strategy.name().to_string(),
                solution_time,
                search_stats: stats,
                satisfiable: proven_satisfiable.then_some(true),
                fallback: Fallback::None,
                network: network_summary,
                evaluation: None,
                degraded: false,
            },
            StrategyOutcome::Unsatisfiable { stats } => {
                if !request.allows_fallback(FallbackReason::Unsatisfiable) {
                    return Err(OptimizeError::Unsatisfiable {
                        strategy: strategy.name().to_string(),
                        stats,
                    });
                }
                OptimizeReport {
                    assignment: prepared.heuristic(program).clone(),
                    strategy: strategy.name().to_string(),
                    solution_time: start.elapsed(),
                    search_stats: stats,
                    satisfiable: Some(false),
                    fallback: Fallback::Heuristic(FallbackReason::Unsatisfiable),
                    network: network_summary,
                    evaluation: None,
                    degraded: false,
                }
            }
            StrategyOutcome::Exhausted { reason, stats } => {
                if !request.allows_fallback(reason) {
                    return Err(OptimizeError::BudgetExhausted {
                        strategy: strategy.name().to_string(),
                        reason,
                        stats,
                    });
                }
                OptimizeReport {
                    assignment: prepared.heuristic(program).clone(),
                    strategy: strategy.name().to_string(),
                    solution_time: start.elapsed(),
                    search_stats: stats,
                    satisfiable: None,
                    fallback: Fallback::Heuristic(reason),
                    network: network_summary,
                    evaluation: None,
                    degraded: false,
                }
            }
        };
        Ok(report)
    }
}

/// One message of the two-phase batch pipeline: a finished solve (which may
/// announce a follow-up evaluation job) or a finished evaluation.
enum BatchMessage {
    /// The solve phase of job `index` completed; `evaluation_spawned` says
    /// whether a second-stage evaluation job was submitted to the pool.
    /// The report is boxed so the channel moves a pointer, not the
    /// several-hundred-byte report (and the enum's variants stay close in
    /// size).
    Solved {
        index: usize,
        result: Box<Result<OptimizeReport, OptimizeError>>,
        evaluation_spawned: bool,
    },
    /// The evaluation phase of job `index` completed.
    Evaluated {
        index: usize,
        result: Result<SimulationReport, OptimizeError>,
    },
}

impl Session {
    /// Serves a batch of requests across the session's worker pool.
    ///
    /// Borrowed-program convenience over [`Session::optimize_many_shared`]:
    /// each job's program is cloned into an [`Arc`], and a clone shares the
    /// caller's program's parts rather than copying them.
    pub fn optimize_many(
        &self,
        jobs: &[(&Program, OptimizeRequest)],
    ) -> Vec<Result<OptimizeReport, OptimizeError>> {
        let shared: Vec<(Arc<Program>, OptimizeRequest)> = jobs
            .iter()
            .map(|(program, request)| (Arc::new((*program).clone()), request.clone()))
            .collect();
        self.optimize_many_shared(&shared)
    }

    /// Serves a batch of requests across the session's worker pool, taking
    /// shared program handles.
    ///
    /// Results come back in submission order, one per job, each
    /// independently a success or a typed error — one failed request never
    /// poisons the batch.  Jobs against the same program share this
    /// session's prepared networks, and the workers are the same pool the
    /// work-stealing strategies fan out over (nested use is deadlock-free:
    /// waiters help drain the pool's queue).
    ///
    /// Requests that ask for a cache-simulation evaluation run it as a
    /// *separate pool job*: the solve phase frees its worker as soon as the
    /// layouts are chosen, so long simulations interleave with the
    /// remaining solves instead of serializing behind them.
    pub fn optimize_many_shared(
        &self,
        jobs: &[(Arc<Program>, OptimizeRequest)],
    ) -> Vec<Result<OptimizeReport, OptimizeError>> {
        if jobs.len() <= 1 || self.inner.engine.default_parallelism() <= 1 {
            return jobs
                .iter()
                .map(|(program, request)| self.optimize(program, request))
                .collect();
        }

        let pool = self.worker_pool();
        let (tx, rx) = channel::<BatchMessage>();
        for (index, (program, request)) in jobs.iter().enumerate() {
            let inner = Arc::clone(&self.inner);
            let program = Arc::clone(program);
            let request = request.clone();
            let tx = tx.clone();
            let worker_pool = Arc::clone(&pool);
            pool.execute(move || {
                // Contain strategy panics right here, where the job context
                // (index + strategy) is still known: the collector then
                // receives a typed error instead of observing a dropped
                // sender and guessing which job died.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    inner.solve_request(&program, &request, &SolveHooks::default())
                }))
                .unwrap_or_else(|payload| {
                    Err(OptimizeError::StrategyPanicked {
                        strategy: request.strategy.to_string(),
                        message: mlo_csp::fault::panic_message(&*payload),
                        failpoint: mlo_csp::fault::take_last_triggered(),
                    })
                });
                // Successful solves with an evaluation request submit the
                // simulation as its own pool job before reporting, keeping
                // the channel's sender count equal to the number of live
                // jobs (a panicking worker then surfaces as a disconnect,
                // never a hang).
                let mut evaluation_spawned = false;
                if let (Ok(report), Some(options)) = (&result, request.evaluation) {
                    let strategy = report.strategy.clone();
                    let assignment = report.assignment.clone();
                    let eval_tx = tx.clone();
                    let eval_inner = Arc::clone(&inner);
                    let eval_program = Arc::clone(&program);
                    evaluation_spawned = true;
                    worker_pool.execute(move || {
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            eval_inner.evaluate(&eval_program, &assignment, &strategy, &options)
                        }))
                        .unwrap_or_else(|payload| {
                            Err(OptimizeError::StrategyPanicked {
                                strategy: strategy.clone(),
                                message: mlo_csp::fault::panic_message(&*payload),
                                failpoint: mlo_csp::fault::take_last_triggered(),
                            })
                        });
                        // A dropped receiver means the batch was abandoned.
                        let _ = eval_tx.send(BatchMessage::Evaluated { index, result });
                    });
                }
                let _ = tx.send(BatchMessage::Solved {
                    index,
                    result: Box::new(result),
                    evaluation_spawned,
                });
            });
        }
        drop(tx);

        let mut slots: Vec<Option<Result<OptimizeReport, OptimizeError>>> =
            jobs.iter().map(|_| None).collect();
        let mut evaluations: Vec<Option<Result<SimulationReport, OptimizeError>>> =
            jobs.iter().map(|_| None).collect();
        let mut solves_received = 0usize;
        let mut evaluations_expected = 0usize;
        let mut evaluations_received = 0usize;
        while solves_received < jobs.len() || evaluations_received < evaluations_expected {
            match rx.recv_timeout(Duration::from_micros(200)) {
                Ok(BatchMessage::Solved {
                    index,
                    result,
                    evaluation_spawned,
                }) => {
                    slots[index] = Some(*result);
                    solves_received += 1;
                    if evaluation_spawned {
                        evaluations_expected += 1;
                    }
                }
                Ok(BatchMessage::Evaluated { index, result }) => {
                    evaluations[index] = Some(result);
                    evaluations_received += 1;
                }
                // Help drain the queue so a batch submitted from inside a
                // pool worker cannot deadlock the pool.
                Err(RecvTimeoutError::Timeout) => {
                    pool.help_run_one();
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        slots
            .into_iter()
            .zip(evaluations)
            .enumerate()
            .map(|(index, (slot, evaluation))| {
                // A missing slot means that job's worker died without even
                // reaching the in-job containment above (it should be
                // unreachable) — degrade to a typed error rather than
                // panicking in the collector, which would poison the whole
                // batch for one lost job.
                let result = slot.unwrap_or_else(|| {
                    Err(OptimizeError::StrategyPanicked {
                        strategy: jobs[index].1.strategy.to_string(),
                        message: format!("batch job {index} died before reporting a result"),
                        failpoint: None,
                    })
                });
                match (result, evaluation) {
                    (Ok(mut report), Some(Ok(simulation))) => {
                        report.evaluation = Some(simulation);
                        Ok(report)
                    }
                    (Ok(report), None) => {
                        if jobs[index].1.evaluation.is_some() {
                            // The evaluation job died without reporting.
                            return Err(OptimizeError::StrategyPanicked {
                                strategy: report.strategy,
                                message: format!(
                                    "batch evaluation {index} died before reporting a result"
                                ),
                                failpoint: None,
                            });
                        }
                        Ok(report)
                    }
                    (Ok(_), Some(Err(error))) => Err(error),
                    (Err(error), _) => Err(error),
                }
            })
            .collect()
    }

    /// Computes a per-segment **dynamic layout plan** (the paper's second
    /// future direction) using this session's candidate defaults.
    pub fn dynamic_plan(
        &self,
        program: &Program,
        window: usize,
        candidates: &CandidateOptions,
    ) -> mlo_layout::DynamicPlan {
        let options = mlo_layout::DynamicOptions {
            candidates: *candidates,
            ..mlo_layout::DynamicOptions::default()
        };
        mlo_layout::dynamic_plan(
            program,
            &mlo_layout::Segmentation::by_window(program, window.max(1)),
            &options,
        )
    }
}

#[cfg(test)]
mod identity;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{EvaluationOptions, SearchBudget};
    use crate::strategy::{SchemeStrategy, PROBE_NODES};
    use mlo_benchmarks::Benchmark;
    use mlo_cachesim::MachineConfig;
    use mlo_layout::quality::{assignment_score, ideal_score};

    #[test]
    fn unknown_strategies_are_reported_with_the_known_names() {
        let engine = Engine::new();
        let program = Benchmark::MxM.program();
        let err = engine
            .optimize(&program, &OptimizeRequest::strategy("turbo"))
            .unwrap_err();
        match err {
            OptimizeError::UnknownStrategy { name, known } => {
                assert_eq!(name, "turbo");
                assert!(known.contains(&"enhanced".to_string()));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn sessions_share_prepared_networks_across_requests() {
        let engine = Engine::new();
        let session = engine.session();
        let program = Benchmark::MedIm04.program();
        let request = OptimizeRequest::strategy("enhanced")
            .candidates(Benchmark::MedIm04.candidate_options());
        let a = session.optimize(&program, &request).unwrap();
        let b = session
            .optimize(&program, &request.clone().seed(99))
            .unwrap();
        assert_eq!(session.prepared_programs(), 1);
        assert_eq!(a.assignment, b.assignment);
        // Different candidate options are a different cache entry.
        let wide = request.clone().candidates(CandidateOptions {
            max_transforms_per_nest: 2,
            ..Benchmark::MedIm04.candidate_options()
        });
        session.optimize(&program, &wide).unwrap();
        assert_eq!(session.prepared_programs(), 2);
    }

    #[test]
    fn unsatisfiable_networks_fall_back_with_a_typed_reason() {
        let engine = Engine::new();
        let program = Benchmark::MxM.program();
        let report = engine
            .optimize(
                &program,
                &OptimizeRequest::strategy("enhanced")
                    .candidates(Benchmark::MxM.candidate_options()),
            )
            .unwrap();
        assert_eq!(report.satisfiable, Some(false));
        assert_eq!(
            report.fallback,
            Fallback::Heuristic(FallbackReason::Unsatisfiable)
        );
        let heuristic = engine
            .optimize(&program, &OptimizeRequest::strategy("heuristic"))
            .unwrap();
        assert_eq!(report.assignment, heuristic.assignment);
    }

    #[test]
    fn fallback_can_be_turned_into_a_typed_error() {
        let engine = Engine::new();
        let program = Benchmark::MxM.program();
        let err = engine
            .optimize(
                &program,
                &OptimizeRequest::strategy("enhanced")
                    .candidates(Benchmark::MxM.candidate_options())
                    .fail_instead_of_fallback(),
            )
            .unwrap_err();
        assert!(matches!(err, OptimizeError::Unsatisfiable { .. }));
        assert_eq!(err.strategy(), Some("enhanced"));
    }

    #[test]
    fn node_budgets_produce_budget_exhausted_reports_and_errors() {
        let engine = Engine::new();
        let program = Benchmark::Radar.program();
        let request = OptimizeRequest::strategy("base")
            .candidates(Benchmark::Radar.candidate_options())
            .seed(5)
            .with_budget(SearchBudget::new().nodes(3));
        let report = engine.optimize(&program, &request).unwrap();
        assert_eq!(
            report.fallback,
            Fallback::Heuristic(FallbackReason::NodeBudgetExhausted)
        );
        assert_eq!(report.satisfiable, None);
        let err = engine
            .optimize(&program, &request.clone().fail_instead_of_fallback())
            .unwrap_err();
        assert!(matches!(
            err,
            OptimizeError::BudgetExhausted {
                reason: FallbackReason::NodeBudgetExhausted,
                ..
            }
        ));
    }

    #[test]
    fn local_search_node_budget_is_a_total_cap_across_restarts() {
        // MxM's network is unsatisfiable, so local search burns its whole
        // budget; the budget must bound the total repair steps, not the
        // per-restart steps (which would allow max_restarts times more).
        let engine = Engine::new();
        let program = Benchmark::MxM.program();
        let report = engine
            .optimize(
                &program,
                &OptimizeRequest::strategy("local-search")
                    .candidates(Benchmark::MxM.candidate_options())
                    .with_budget(SearchBudget::new().nodes(500)),
            )
            .unwrap();
        let stats = report.search_stats.expect("local search reports stats");
        assert!(
            stats.nodes_visited <= 500,
            "visited {} nodes under a 500-node budget",
            stats.nodes_visited
        );
        assert_eq!(
            report.fallback,
            Fallback::Heuristic(FallbackReason::Inconclusive)
        );
    }

    #[test]
    fn deadlines_are_honoured() {
        let engine = Engine::new();
        let program = Benchmark::Radar.program();
        // A deadline that has already passed: the search must abort almost
        // immediately and fall back.
        let report = engine
            .optimize(
                &program,
                &OptimizeRequest::strategy("base")
                    .candidates(Benchmark::Radar.candidate_options())
                    .with_budget(SearchBudget::new().deadline(Duration::ZERO)),
            )
            .unwrap();
        assert_eq!(
            report.fallback,
            Fallback::Heuristic(FallbackReason::DeadlineExceeded)
        );
        for array in program.arrays() {
            assert!(report.assignment.contains(array.id()));
        }
    }

    #[test]
    fn identical_requests_have_identical_stats() {
        let engine = Engine::new();
        let session = engine.session();
        let program = Benchmark::MxM.program();
        let request = OptimizeRequest::strategy("base")
            .candidates(Benchmark::MxM.candidate_options())
            .seed(1234);
        let a = session.optimize(&program, &request).unwrap();
        let b = session.optimize(&program, &request).unwrap();
        assert_eq!(a.search_stats, b.search_stats);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn heuristic_requests_never_build_the_network() {
        let engine = Engine::new();
        let session = engine.session();
        let program = Benchmark::Track.program();
        let report = session
            .optimize(&program, &OptimizeRequest::strategy("heuristic"))
            .unwrap();
        assert_eq!(report.network, None);
        assert_eq!(report.satisfiable, None);
        assert!(report.search_stats.is_none());
        let prepared = session.prepared(&program, &CandidateOptions::default());
        assert!(!prepared.network_built());
    }

    #[test]
    fn heuristic_reports_ignore_warm_session_network_state() {
        // An earlier request builds the cached network; a later heuristic
        // request on the same session must still report `network: None` —
        // the field reflects what *this* strategy consulted.
        let session = Engine::new().session();
        let program = Benchmark::MxM.program();
        let options = Benchmark::MxM.candidate_options();
        let enhanced = session
            .optimize(
                &program,
                &OptimizeRequest::strategy("enhanced").candidates(options),
            )
            .unwrap();
        assert!(enhanced.network.is_some());
        let heuristic = session
            .optimize(
                &program,
                &OptimizeRequest::strategy("heuristic").candidates(options),
            )
            .unwrap();
        assert_eq!(heuristic.network, None);
    }

    #[test]
    fn heuristic_reports_and_fallbacks_carry_the_cached_assignment() {
        // MxM's network is unsatisfiable; Track's search gets no nodes.
        let cases = [
            (
                Benchmark::MxM,
                SearchBudget::new(),
                FallbackReason::Unsatisfiable,
            ),
            (
                Benchmark::Track,
                SearchBudget::new().nodes(0),
                FallbackReason::NodeBudgetExhausted,
            ),
        ];
        for (benchmark, budget, reason) in cases {
            let program = benchmark.program();
            let options = benchmark.candidate_options();
            let expected = heuristic_assignment(&program).assignment;
            let heuristic = OptimizeRequest::strategy("heuristic").candidates(options);
            let fallback = OptimizeRequest::strategy("enhanced")
                .candidates(options)
                .with_budget(budget);
            let warm = Engine::new().session();
            for _ in 0..2 {
                for (request, fell_back) in [(&heuristic, None), (&fallback, Some(reason))] {
                    let cold = Engine::new().session().optimize(&program, request);
                    for report in [cold, warm.optimize(&program, request)] {
                        let report = report.unwrap();
                        assert_eq!(report.assignment, expected, "{benchmark:?}");
                        assert_eq!(report.fallback.reason(), fell_back, "{benchmark:?}");
                    }
                }
            }

            // A heuristic request fills the cache without building the
            // network; a later fallback reads the same assignment.
            let session = Engine::new().session();
            session.optimize(&program, &heuristic).unwrap();
            let prepared = session.prepared(&program, &options);
            assert!(!prepared.network_built());
            let cached = prepared.heuristic(&program);
            session.optimize(&program, &fallback).unwrap();
            assert!(prepared.network_built());
            assert!(std::ptr::eq(cached, prepared.heuristic(&program)));
        }
    }

    #[test]
    fn weighted_requests_honour_deadlines() {
        let engine = Engine::new();
        let program = Benchmark::Track.program();
        let report = engine
            .optimize(
                &program,
                &OptimizeRequest::strategy("weighted")
                    .candidates(Benchmark::Track.candidate_options())
                    .with_budget(SearchBudget::new().deadline(Duration::ZERO)),
            )
            .unwrap();
        assert_eq!(
            report.fallback,
            Fallback::Heuristic(FallbackReason::DeadlineExceeded)
        );
        for array in program.arrays() {
            assert!(report.assignment.contains(array.id()));
        }
    }

    #[test]
    fn unrepresentable_deadlines_solve_as_if_unbounded() {
        // `start + Duration::MAX` is past `Instant`'s range: such a deadline
        // can never pass, so the request must solve exactly as one without.
        let session = Engine::new().session();
        let program = Benchmark::MedIm04.program();
        for strategy in ["enhanced", "weighted"] {
            let request = OptimizeRequest::strategy(strategy)
                .candidates(Benchmark::MedIm04.candidate_options());
            let unbounded = session.optimize(&program, &request).unwrap();
            let far = session
                .optimize(
                    &program,
                    &request
                        .clone()
                        .with_budget(SearchBudget::new().deadline(Duration::MAX)),
                )
                .unwrap();
            assert_eq!(far.assignment, unbounded.assignment, "{strategy}");
            assert_eq!(far.search_stats, unbounded.search_stats, "{strategy}");
            assert_eq!(far.satisfiable, unbounded.satisfiable, "{strategy}");
            assert_eq!(far.fallback, unbounded.fallback, "{strategy}");
        }
    }

    #[test]
    fn optimize_many_through_the_pool_matches_sequential_results() {
        // Force the pooled batch path (a 1-core machine would otherwise
        // take the sequential shortcut) and include the portfolio strategy,
        // whose scheduler runs inside a batch job on the same pool.
        let engine = Engine::builder().parallelism(4).build();
        let session = engine.session();
        let programs: Vec<_> = [Benchmark::MedIm04, Benchmark::Track]
            .iter()
            .map(|b| (b.program(), b.candidate_options()))
            .collect();
        let mut jobs: Vec<(&Program, OptimizeRequest)> = Vec::new();
        for (program, options) in &programs {
            for strategy in ["enhanced", "portfolio", "heuristic"] {
                jobs.push((
                    program,
                    OptimizeRequest::strategy(strategy).candidates(*options),
                ));
            }
        }
        let batch = session.optimize_many(&jobs);
        assert_eq!(batch.len(), jobs.len());
        for ((program, request), result) in jobs.iter().zip(&batch) {
            let sequential = session.optimize(program, request).unwrap();
            let pooled = result.as_ref().unwrap();
            assert_eq!(pooled.assignment, sequential.assignment);
            assert_eq!(pooled.satisfiable, sequential.satisfiable);
            assert_eq!(pooled.fallback, sequential.fallback);
        }
    }

    #[test]
    fn optimize_many_matches_sequential_results() {
        let engine = Engine::new();
        let session = engine.session();
        let programs: Vec<_> = [Benchmark::MxM, Benchmark::MedIm04, Benchmark::Track]
            .iter()
            .map(|b| (b.program(), b.candidate_options()))
            .collect();
        let mut jobs: Vec<(&Program, OptimizeRequest)> = Vec::new();
        for (program, options) in &programs {
            for strategy in ["heuristic", "enhanced"] {
                jobs.push((
                    program,
                    OptimizeRequest::strategy(strategy).candidates(*options),
                ));
            }
        }
        let batch = session.optimize_many(&jobs);
        assert_eq!(batch.len(), jobs.len());
        for ((program, request), result) in jobs.iter().zip(&batch) {
            let sequential = session.optimize(program, request).unwrap();
            let parallel = result.as_ref().unwrap();
            assert_eq!(parallel.assignment, sequential.assignment);
            assert_eq!(parallel.satisfiable, sequential.satisfiable);
            assert_eq!(parallel.fallback, sequential.fallback);
        }
        // One prepared entry per program (both strategies share it).
        assert_eq!(session.prepared_programs(), 3);
    }

    #[test]
    fn weighted_networks_are_cached_and_share_storage() {
        // Two weighted requests against one session must reuse the identical
        // Arc'd weighted network, and that network's hard constraint tables
        // must share storage with the cached LayoutNetwork — zero copies on
        // the warm path.
        let engine = Engine::new();
        let session = engine.session();
        let program = Benchmark::Track.program();
        let options = Benchmark::Track.candidate_options();
        let prepared = session.prepared(&program, &options);
        let weight_options = mlo_layout::weights::WeightOptions::default();
        let a = prepared.weighted(&program, &weight_options);
        let b = prepared.weighted(&program, &weight_options);
        assert!(Arc::ptr_eq(&a, &b), "same options hit the cache");
        assert!(
            a.network()
                .shares_storage(prepared.network(&program).network()),
            "weighted networks share the hard network's storage"
        );
        // Distinct options derive a distinct network (still sharing the
        // hard storage).
        let unit = mlo_layout::weights::WeightOptions {
            use_nest_cost: false,
            ..mlo_layout::weights::WeightOptions::default()
        };
        let c = prepared.weighted(&program, &unit);
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(c
            .network()
            .shares_storage(prepared.network(&program).network()));
        // End to end: two weighted optimizations reuse the cache.
        let request = OptimizeRequest::strategy("weighted").candidates(options);
        let first = session.optimize(&program, &request).unwrap();
        let second = session
            .optimize(&program, &request.clone().seed(3))
            .unwrap();
        assert_eq!(first.assignment, second.assignment);
    }

    /// Weight options that differ only in their identity bonus, so each
    /// `i` derives a distinct weighted network (none of them the default).
    fn bonus(i: usize) -> mlo_layout::weights::WeightOptions {
        mlo_layout::weights::WeightOptions {
            identity_bonus: 2.0 + i as f64,
            ..mlo_layout::weights::WeightOptions::default()
        }
    }

    #[test]
    fn weighted_cache_is_a_capped_lru() {
        let session = Engine::new().session();
        let program = Benchmark::Track.program();
        let options = Benchmark::Track.candidate_options();
        let prepared = session.prepared(&program, &options);
        let cap = Session::DEFAULT_WEIGHTED_CACHE_CAP;
        let a = prepared.weighted(&program, &bonus(0));
        let b = prepared.weighted(&program, &bonus(1));
        for i in 2..cap {
            prepared.weighted(&program, &bonus(i));
        }
        assert_eq!(prepared.weighted_cached(), cap);
        // Touch `a` so `b` becomes the LRU entry, then overflow the cap.
        let a_again = prepared.weighted(&program, &bonus(0));
        assert!(Arc::ptr_eq(&a, &a_again));
        prepared.weighted(&program, &bonus(cap));
        assert_eq!(prepared.weighted_cached(), cap, "cap enforced");
        // `a` survived (recently used), `b` was evicted: re-deriving `b`
        // yields a fresh Arc while `a` still hits.
        let a_third = prepared.weighted(&program, &bonus(0));
        assert!(Arc::ptr_eq(&a, &a_third), "recently used entry survives");
        let b_again = prepared.weighted(&program, &bonus(1));
        assert!(!Arc::ptr_eq(&b, &b_again), "LRU entry was evicted");
    }

    #[test]
    fn weighted_cache_hits_return_the_same_compiled_weight_kernel() {
        // A cache hit must hand back not just the same weighted network but
        // the identical compiled WeightKernel: the expensive dense
        // compilation runs once per (program, options) pair and is shared
        // across requests (ISSUE 5 satellite).
        let session = Engine::new().session();
        let program = Benchmark::Track.program();
        let options = Benchmark::Track.candidate_options();
        let prepared = session.prepared(&program, &options);
        let weight_options = mlo_layout::weights::WeightOptions::default();
        let first = prepared.weight_kernel(&program, &weight_options);
        let second = prepared.weight_kernel(&program, &weight_options);
        assert!(
            Arc::ptr_eq(&first, &second),
            "cache hits share the compiled weight kernel"
        );
        // The kernel rides in the cached weighted network's spine.
        let weighted = prepared.weighted(&program, &weight_options);
        assert!(Arc::ptr_eq(&first, weighted.weight_kernel()));
        // An evicted entry recompiles: new Arc.  `cap` other option sets
        // push the default entry out.
        for i in 0..Session::DEFAULT_WEIGHTED_CACHE_CAP {
            prepared.weighted(&program, &bonus(i));
        }
        let recompiled = prepared.weight_kernel(&program, &weight_options);
        assert!(
            !Arc::ptr_eq(&first, &recompiled),
            "eviction drops the kernel"
        );
    }

    #[test]
    fn sessions_cache_the_compiled_kernel_alongside_the_network() {
        // The kernel is compiled once per cached network and shared by
        // every request artifact: the prepared program, the derived
        // weighted network and repeat calls all return the identical Arc.
        let engine = Engine::new();
        let session = engine.session();
        let program = Benchmark::Track.program();
        let options = Benchmark::Track.candidate_options();
        let prepared = session.prepared(&program, &options);
        let kernel = prepared.kernel(&program);
        assert!(Arc::ptr_eq(&kernel, prepared.network(&program).kernel()));
        let weighted = prepared.weighted(&program, &mlo_layout::weights::WeightOptions::default());
        assert!(Arc::ptr_eq(&kernel, weighted.network().kernel()));
        assert!(Arc::ptr_eq(&kernel, &prepared.kernel(&program)));
    }

    #[test]
    fn small_instances_fall_back_to_sequential_parallelism() {
        // Every paper benchmark completes the sequential probe, so a
        // parallel request must return the identical result to the
        // parallelism(1) path and do exactly the sequential amount of
        // search work (the BENCH_3 symptom was parallel node counts an
        // order of magnitude above sequential ones).
        let engine = Engine::builder().parallelism(4).build();
        let session = engine.session();
        let program = Benchmark::MedIm04.program();
        let options = Benchmark::MedIm04.candidate_options();
        for strategy in ["portfolio", "portfolio-steal", "weighted"] {
            let request = OptimizeRequest::strategy(strategy)
                .candidates(options)
                .seed(7);
            let adaptive = session.optimize(&program, &request).unwrap();
            let sequential = session
                .optimize(
                    &program,
                    &request.clone().with_budget(SearchBudget::new().workers(1)),
                )
                .unwrap();
            assert_eq!(adaptive.assignment, sequential.assignment, "{strategy}");
            assert_eq!(adaptive.satisfiable, sequential.satisfiable, "{strategy}");
            let adaptive_nodes = adaptive.search_stats.unwrap().nodes_visited;
            let sequential_nodes = sequential.search_stats.unwrap().nodes_visited;
            assert_eq!(
                adaptive_nodes, sequential_nodes,
                "{strategy}: the probe must do exactly the sequential work"
            );
        }
    }

    #[test]
    fn the_scheduler_probe_moves_to_the_pool_only_when_its_node_budget_runs_out() {
        // PHP(7) needs far more nodes than the probe allows and PHP(4) far
        // fewer: only the first is re-run, on a pool of the requested
        // width, and both verdicts are proofs.
        let session = Engine::builder().parallelism(2).build().session();
        let program = Benchmark::MxM.program();
        let options = Benchmark::MxM.candidate_options();
        let request = OptimizeRequest::strategy("portfolio-steal").candidates(options);
        let prepared = session.prepared(&program, &options);
        let ctx = StrategyContext::new(
            &session.inner,
            &program,
            &prepared,
            &request,
            SearchLimits::none(),
        );
        for (holes, expected_runs) in [(7, 2), (4, 1)] {
            let network = mlo_csp::random::pigeonhole_network(holes);
            let runs = Mutex::new(Vec::new());
            let report = ctx.run_scheduler(
                SearchLimits::none(),
                |scheduler, limits| {
                    let report = scheduler.solve_detailed(&network, limits, None);
                    runs.lock()
                        .unwrap()
                        .push((limits.node_limit, report.telemetry.workers));
                    report
                },
                |report| report.result.hit_node_limit,
            );
            let runs = runs.into_inner().unwrap();
            assert_eq!(runs.len(), expected_runs, "PHP({holes})");
            assert_eq!(runs[0], (Some(PROBE_NODES), 1), "the probe runs alone");
            if expected_runs == 2 {
                assert_eq!(runs[1], (None, 2), "the re-run uses the pool");
            }
            assert!(report.result.proves_unsatisfiable(), "PHP({holes})");
        }
    }

    #[test]
    fn optimize_many_shared_reuses_program_handles() {
        let engine = Engine::builder().parallelism(4).build();
        let session = engine.session();
        let program = Arc::new(Benchmark::MedIm04.program());
        let jobs: Vec<(Arc<Program>, OptimizeRequest)> = ["heuristic", "enhanced", "portfolio"]
            .into_iter()
            .map(|strategy| {
                (
                    Arc::clone(&program),
                    OptimizeRequest::strategy(strategy)
                        .candidates(Benchmark::MedIm04.candidate_options()),
                )
            })
            .collect();
        let batch = session.optimize_many_shared(&jobs);
        assert_eq!(batch.len(), 3);
        for ((_, request), result) in jobs.iter().zip(&batch) {
            let sequential = session.optimize(&program, request).unwrap();
            let pooled = result.as_ref().unwrap();
            assert_eq!(pooled.assignment, sequential.assignment);
            assert_eq!(pooled.fallback, sequential.fallback);
        }
        // One prepared entry: every job shared the same handle and cache.
        assert_eq!(session.prepared_programs(), 1);
    }

    #[test]
    fn batch_evaluations_ride_the_worker_pool_and_match_inline_results() {
        // Requests with evaluation enabled run the cache simulation as a
        // second-stage pool job; the merged reports must be identical to the
        // inline (sequential) path, including evaluation errors staying
        // per-job.
        let engine = Engine::builder().parallelism(4).build();
        let session = engine.session();
        let trace = mlo_cachesim::TraceOptions {
            max_trip_per_loop: 8,
            array_alignment: 64,
        };
        let programs: Vec<_> = [Benchmark::MxM, Benchmark::Track]
            .iter()
            .map(|b| (b.program(), b.candidate_options()))
            .collect();
        let mut jobs: Vec<(&Program, OptimizeRequest)> = Vec::new();
        for (program, options) in &programs {
            for strategy in ["heuristic", "enhanced"] {
                jobs.push((
                    program,
                    OptimizeRequest::strategy(strategy)
                        .candidates(*options)
                        .evaluate(EvaluationOptions::on(MachineConfig::tiny()).trace(trace)),
                ));
            }
        }
        let batch = session.optimize_many(&jobs);
        assert_eq!(batch.len(), jobs.len());
        for ((program, request), result) in jobs.iter().zip(&batch) {
            let pooled = result.as_ref().unwrap();
            let inline = session.optimize(program, request).unwrap();
            let pooled_eval = pooled.evaluation.as_ref().expect("evaluation attached");
            let inline_eval = inline.evaluation.as_ref().expect("evaluation attached");
            assert_eq!(pooled_eval.total_cycles, inline_eval.total_cycles);
            assert_eq!(pooled.assignment, inline.assignment);
        }
    }

    #[test]
    fn evaluation_attaches_a_simulation_report() {
        let engine = Engine::new();
        let program = Benchmark::MxM.program();
        // Sub-sample aggressively: this asserts plumbing, not cycle counts.
        let trace = mlo_cachesim::TraceOptions {
            max_trip_per_loop: 8,
            array_alignment: 64,
        };
        let report = engine
            .optimize(
                &program,
                &OptimizeRequest::strategy("heuristic")
                    .evaluate(EvaluationOptions::on(MachineConfig::tiny()).trace(trace)),
            )
            .unwrap();
        let evaluation = report.evaluation.expect("evaluation requested");
        assert!(evaluation.total_cycles > 0);
    }

    #[test]
    fn invalid_cache_geometries_are_typed_errors() {
        // `CacheConfig`'s fields are public, so a struct literal can skip
        // `CacheConfig::new`'s checks; the simulator re-validates them.
        let session = Engine::new().session();
        let program = Benchmark::MxM.program();
        let trace = mlo_cachesim::TraceOptions {
            max_trip_per_loop: 8,
            array_alignment: 64,
        };
        let l1 = MachineConfig::tiny().l1_data;
        let geometries = [
            mlo_cachesim::CacheConfig {
                associativity: 0,
                ..l1
            },
            mlo_cachesim::CacheConfig {
                line_bytes: 0,
                ..l1
            },
            // Three sets.
            mlo_cachesim::CacheConfig {
                size_bytes: 3 * 2 * 32,
                ..l1
            },
            mlo_cachesim::CacheConfig {
                size_bytes: 4 * 2 * 48,
                line_bytes: 48,
                ..l1
            },
        ];
        for geometry in geometries {
            for machine in [
                MachineConfig {
                    l1_data: geometry,
                    ..MachineConfig::tiny()
                },
                MachineConfig {
                    l2: geometry,
                    ..MachineConfig::tiny()
                },
            ] {
                let direct = Simulator::new(machine)
                    .trace_options(trace)
                    .simulate(&program, &LayoutAssignment::all_row_major(&program));
                assert!(
                    matches!(direct, Err(mlo_cachesim::SimError::InvalidCacheConfig(_))),
                    "{geometry:?} gave {direct:?}"
                );
                let request = OptimizeRequest::strategy("heuristic")
                    .evaluate(EvaluationOptions::on(machine).trace(trace));
                match session.optimize(&program, &request) {
                    Err(OptimizeError::Evaluation { strategy, message }) => {
                        assert_eq!(strategy, "heuristic");
                        assert!(message.contains("invalid cache configuration"), "{message}");
                    }
                    other => panic!("{geometry:?} gave {other:?}"),
                }
            }
        }
    }

    /// One 8×8 nest over declared 2-D arrays `A` (0) and `C` (1) that
    /// writes `write[i][j]` and reads `read` through `access`.
    fn one_read_program(
        write: mlo_ir::ArrayId,
        read: mlo_ir::ArrayId,
        access: mlo_ir::AffineAccess,
    ) -> Program {
        let mut b = mlo_ir::ProgramBuilder::new("malformed");
        b.array("A", vec![8, 8], 4);
        b.array("C", vec![8, 8], 4);
        b.nest("main", vec![("i", 0, 8), ("j", 0, 8)], |nest| {
            nest.write(
                write,
                mlo_ir::AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
            nest.read(read, access);
        });
        b.build()
    }

    /// Every strategy solves `program`, and evaluating its layouts fails
    /// with a typed error whose message contains `expected`.
    fn assert_evaluation_rejects(program: &Program, expected: &str) {
        let engine = Engine::new();
        for strategy in ["heuristic", "enhanced"] {
            let request = OptimizeRequest::strategy(strategy);
            assert!(engine.optimize(program, &request).is_ok(), "{strategy}");
            match engine.optimize(program, &request.evaluate(EvaluationOptions::date05())) {
                Err(OptimizeError::Evaluation {
                    strategy: failed,
                    message,
                }) => {
                    assert_eq!(failed, strategy);
                    assert!(message.contains(expected), "{message}");
                }
                other => panic!("{strategy} gave {other:?}"),
            }
        }
    }

    #[test]
    fn rank_mismatched_references_are_typed_evaluation_errors() {
        // A 2-D `A` read as `A[i][j][i+j]`, in a nest that writes `C` and in
        // one that writes `A[i][j]` (a dependence pair whose subscript
        // counts differ).
        let access = mlo_ir::AccessBuilder::new(3, 2)
            .row(0, [1, 0])
            .row(1, [0, 1])
            .row(2, [1, 1])
            .build();
        let a = mlo_ir::ArrayId::new(0);
        for write in [mlo_ir::ArrayId::new(1), a] {
            assert_evaluation_rejects(
                &one_read_program(write, a, access.clone()),
                "nest `main` indexes Q0 with 3 subscripts, but its declared rank is 2",
            );
        }
    }

    #[test]
    fn references_to_undeclared_arrays_are_typed_evaluation_errors() {
        let access = mlo_ir::AccessBuilder::new(2, 2)
            .row(0, [0, 1])
            .row(1, [1, 0])
            .build();
        assert_evaluation_rejects(
            &one_read_program(mlo_ir::ArrayId::new(1), mlo_ir::ArrayId::new(2), access),
            "nest `main` indexes Q2 with 2 subscripts, but the program declares no such array",
        );
    }

    #[test]
    fn overflowing_machine_latencies_are_typed_errors() {
        // `l1 + l2 + memory` overflows; then only a nest's stall cycles do.
        let engine = Engine::new();
        let program = Benchmark::MxM.program();
        let trace = mlo_cachesim::TraceOptions {
            max_trip_per_loop: 8,
            array_alignment: 64,
        };
        for memory_latency in [u64::MAX - 3, u64::MAX / 4] {
            let machine = MachineConfig {
                memory_latency,
                ..MachineConfig::date05()
            };
            let request = OptimizeRequest::strategy("heuristic")
                .evaluate(EvaluationOptions::on(machine).trace(trace));
            match engine.optimize(&program, &request) {
                Err(OptimizeError::Evaluation { strategy, message }) => {
                    assert_eq!(strategy, "heuristic");
                    assert!(
                        message.contains("invalid machine configuration"),
                        "{message}"
                    );
                }
                other => panic!("memory latency {memory_latency} gave {other:?}"),
            }
        }
    }

    #[test]
    fn custom_strategies_slot_into_the_engine() {
        #[derive(Debug)]
        struct EscalatingStrategy;
        impl LayoutStrategy for EscalatingStrategy {
            fn name(&self) -> &str {
                "escalating"
            }
            fn description(&self) -> &str {
                "enhanced, then forward-checking on exhaustion"
            }
            fn determine(
                &self,
                ctx: &StrategyContext<'_>,
            ) -> Result<StrategyOutcome, OptimizeError> {
                match SchemeStrategy::enhanced().determine(ctx)? {
                    StrategyOutcome::Exhausted { .. } => {
                        SchemeStrategy::forward_checking().determine(ctx)
                    }
                    done => Ok(done),
                }
            }
        }
        let engine = Engine::builder()
            .strategy(Arc::new(EscalatingStrategy))
            .build();
        assert_eq!(engine.registry().len(), 10);
        let program = Benchmark::MedIm04.program();
        let report = engine
            .optimize(
                &program,
                &OptimizeRequest::strategy("escalating")
                    .candidates(Benchmark::MedIm04.candidate_options()),
            )
            .unwrap();
        assert_eq!(report.strategy, "escalating");
        assert_eq!(report.satisfiable, Some(true));
        assert_eq!(
            assignment_score(&program, &report.assignment),
            ideal_score(&program)
        );
    }

    #[test]
    fn batch_contains_a_panicking_strategy_as_a_typed_error() {
        #[derive(Debug)]
        struct PanickingStrategy;
        impl LayoutStrategy for PanickingStrategy {
            fn name(&self) -> &str {
                "panicker"
            }
            fn determine(
                &self,
                _ctx: &StrategyContext<'_>,
            ) -> Result<StrategyOutcome, OptimizeError> {
                panic!("panicker always explodes");
            }
        }
        let engine = Engine::builder()
            .parallelism(2)
            .strategy(Arc::new(PanickingStrategy))
            .build();
        let session = engine.session();
        let program = Benchmark::MedIm04.program();
        let jobs: Vec<(&Program, OptimizeRequest)> = vec![
            (&program, OptimizeRequest::strategy("heuristic")),
            (&program, OptimizeRequest::strategy("panicker")),
            (&program, OptimizeRequest::strategy("heuristic")),
        ];
        let results = session.optimize_many(&jobs);
        assert!(results[0].is_ok(), "healthy jobs are unaffected");
        assert!(results[2].is_ok(), "healthy jobs are unaffected");
        match &results[1] {
            Err(OptimizeError::StrategyPanicked {
                strategy, message, ..
            }) => {
                assert_eq!(strategy, "panicker");
                assert!(message.contains("explodes"));
            }
            other => panic!("expected StrategyPanicked, got {other:?}"),
        }
        // The session pool survived: a follow-up request still works.
        assert!(session
            .optimize(&program, &OptimizeRequest::strategy("heuristic"))
            .is_ok());
    }

    #[test]
    fn portfolio_strategy_is_thread_count_invariant() {
        // Every parallelism-aware strategy must return the identical
        // assignment, satisfiability proof and fallback at 1, 2 and 4
        // workers for a fixed seed — the property the CI perf gate relies
        // on.  The random program is one where a sequential probe with a
        // different search order than the parallel path picked a different
        // (equally valid) assignment at 2 and 4 workers than at 1.
        let engine = Engine::builder().parallelism(4).build();
        let session = engine.session();
        let random = mlo_benchmarks::random_program(&mlo_benchmarks::RandomProgramSpec {
            arrays: 14,
            nests: 12,
            extent: 32,
            reads_per_nest: 1,
            seed: 18,
        });
        let cases = [
            (
                Benchmark::MedIm04.program(),
                Benchmark::MedIm04.candidate_options(),
                2024,
            ),
            (random, mlo_layout::CandidateOptions::default(), 5),
        ];
        for (program, candidates, seed) in &cases {
            for strategy in ["portfolio", "portfolio-steal", "weighted"] {
                let request = OptimizeRequest::strategy(strategy)
                    .candidates(*candidates)
                    .seed(*seed);
                let run = |workers: usize| {
                    session
                        .optimize(
                            program,
                            &request
                                .clone()
                                .with_budget(SearchBudget::new().workers(workers)),
                        )
                        .unwrap()
                };
                let baseline = run(1);
                for workers in [2usize, 4] {
                    let report = run(workers);
                    let case = format!("{strategy} on {} at {workers} workers", program.name());
                    assert_eq!(report.assignment, baseline.assignment, "{case}");
                    assert_eq!(report.satisfiable, baseline.satisfiable, "{case}");
                    assert_eq!(report.fallback, baseline.fallback, "{case}");
                }
            }
        }
    }

    #[test]
    fn optimize_many_propagates_per_request_parallelism() {
        // Regression audit for the batch path: each pooled job's strategy
        // must see *its own* request's worker budget (or the engine default
        // when the request sets none), not a batch-wide value.
        #[derive(Default)]
        struct ParallelismRecorder {
            seen: Mutex<Vec<(u64, usize)>>,
        }
        impl LayoutStrategy for ParallelismRecorder {
            fn name(&self) -> &str {
                "recorder"
            }
            fn determine(
                &self,
                ctx: &StrategyContext<'_>,
            ) -> Result<StrategyOutcome, OptimizeError> {
                self.seen
                    .lock()
                    .unwrap()
                    .push((ctx.request().seed, ctx.parallelism()));
                Ok(StrategyOutcome::Solved {
                    assignment: ctx.heuristic(),
                    stats: None,
                    proven_satisfiable: false,
                })
            }
        }
        let recorder = Arc::new(ParallelismRecorder::default());
        let engine = Engine::builder()
            .parallelism(4)
            .strategy(Arc::clone(&recorder) as Arc<dyn LayoutStrategy>)
            .build();
        let session = engine.session();
        let program = Benchmark::MedIm04.program();
        let mut jobs: Vec<(&Program, OptimizeRequest)> = (1..=3usize)
            .map(|workers| {
                (
                    &program,
                    OptimizeRequest::strategy("recorder")
                        .seed(workers as u64)
                        .with_budget(SearchBudget::new().workers(workers)),
                )
            })
            .collect();
        // One job with no explicit worker budget: sees the engine default.
        jobs.push((&program, OptimizeRequest::strategy("recorder").seed(99)));
        let results = session.optimize_many(&jobs);
        assert!(results.iter().all(Result::is_ok));
        let seen = recorder.seen.lock().unwrap();
        assert_eq!(seen.len(), jobs.len());
        for workers in 1..=3u64 {
            assert!(
                seen.contains(&(workers, workers as usize)),
                "request with workers({workers}) saw {seen:?}"
            );
        }
        assert!(
            seen.contains(&(99, 4)),
            "request without a worker budget must see the engine default: {seen:?}"
        );
    }

    #[test]
    fn solve_hooks_cancel_requests_cooperatively() {
        // A pre-fired token aborts the search almost immediately; the
        // report must say Cancelled, never Unsatisfiable (a cancelled run
        // has no limit hits, which used to read as an UNSAT proof).
        let engine = Engine::new();
        let session = engine.session();
        let program = Benchmark::Radar.program();
        let token = CancelToken::new();
        token.cancel();
        let report = session
            .optimize_with_hooks(
                &program,
                &OptimizeRequest::strategy("base").candidates(Benchmark::Radar.candidate_options()),
                &SolveHooks::cancellable(token),
            )
            .unwrap();
        assert_eq!(
            report.fallback,
            Fallback::Heuristic(FallbackReason::Cancelled)
        );
        assert_eq!(report.satisfiable, None);
        for array in program.arrays() {
            assert!(report.assignment.contains(array.id()));
        }
    }

    #[test]
    fn dynamic_plan_is_available_on_sessions() {
        let engine = Engine::new();
        let session = engine.session();
        let program = Benchmark::Track.program();
        let plan = session.dynamic_plan(&program, 2, &CandidateOptions::default());
        assert_eq!(plan.schedules.len(), program.arrays().len());
    }
}
