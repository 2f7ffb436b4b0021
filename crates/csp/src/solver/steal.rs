//! Work-stealing dynamic shard search over the shared [`WorkerPool`].
//!
//! Racing *whole* solvers against each other parallelizes nothing when the
//! answer requires visiting the entire tree: an UNSAT proof, a full
//! enumeration count, or the tail of a branch-and-bound run all cost the
//! same wall clock no matter how many redundant racers are running.
//! [`StealScheduler`] instead splits the search tree itself and keeps every
//! worker busy on a *disjoint* shard:
//!
//! * **Frames.**  A unit of work is a *frame*: the trail of value indices
//!   assigned along the canonical variable order plus a `[lo, hi)` range of
//!   untried values at the next depth — a shard of a few hundred bytes.
//!   A steal clones a frame, never a network.
//! * **Deques.**  Each worker owns a deque of donated frames.  A worker
//!   explores depth-first on a private level stack; when the global hungry
//!   counter is nonzero (some peer is idle) and its own deque is empty, it
//!   carves the untried sibling values off the **shallowest** splittable
//!   level of its stack into a fresh frame (a *split*; a *re-split* when the
//!   donor is itself working a stolen frame) and publishes it.
//! * **Steals.**  Idle workers pop their own deque from the back (deepest,
//!   cache-warm) and victims' deques from the front (shallowest, biggest),
//!   so stolen shards are as large as possible and re-split further.
//!
//! # Determinism contract
//!
//! Results are **thread-count-independent** at any worker count:
//!
//! * **SAT races** return the solution with the lowest canonical key — the
//!   vector of value indices along the static search order.  In-frame DFS
//!   runs in ascending key order, and branches whose key prefix exceeds the
//!   best-known key are pruned, so the surviving winner is the global
//!   key-minimum regardless of which worker found what first.
//! * **Branch and bound** prunes strictly below the shared incumbent
//!   (ties are always explored) and breaks weight ties by the lowest
//!   canonical key, so the reported optimum and its cost never depend on
//!   bound-arrival timing.
//! * **UNSAT proofs and enumeration counts** use no cross-frame learning at
//!   all: per-node work is a pure function of the path, frames partition
//!   the tree exactly, and every node is visited exactly once.  Node and
//!   consistency-check totals are therefore *identical* at 1/2/4/8 workers
//!   (the partition audit in the perf gate and tests asserts this), and the
//!   solution count is exact.
//!
//! Search *statistics* of the pruning modes (SAT, BnB) may vary with the
//! schedule — pruning reach depends on when the incumbent improves — but
//! the returned solution, cost and count never do.

use super::incumbent::{CancelToken, IncumbentObserver, SharedIncumbent};
use super::pool::WorkerPool;
use super::{NetworkSearch, SearchLimits, SearchStats, SolveResult};
use crate::assignment::{Assignment, Solution};
use crate::bitset::{BitKernel, KernelEdge, WeightKernel};
use crate::network::{ConstraintNetwork, VarId};
use crate::solver::soft_ac3::{SoftAc3, SoftMark};
use crate::solver::weighted_value_order;
use crate::weighted::{OptimizeResult, WeightedNetwork};
use crate::Value;
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often (in DFS loop iterations) budgets are flushed and polled.
const POLL_EVERY: u32 = 256;

/// How long the collector waits for a worker outcome before helping the
/// pool run queued jobs inline.
const COLLECT_POLL: Duration = Duration::from_micros(200);

/// Steal/split telemetry for one scheduler run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StealReport {
    /// Number of workers the run was sharded over.
    pub workers: usize,
    /// Frames taken from another worker's deque.
    pub steals: u64,
    /// Frames carved off a worker's local stack for idle peers.
    pub splits: u64,
    /// Splits performed while the donor was itself working a stolen frame
    /// (dynamic re-splitting mid-search).
    pub resplits: u64,
    /// Total frames created (the root frame plus every split).
    pub frames: u64,
}

/// A [`StealScheduler::solve_detailed`] outcome: the solve result plus
/// steal telemetry.
#[derive(Debug, Clone)]
pub struct StealSolveReport<V> {
    /// The deterministic solve result (lowest-canonical-key winner).
    pub result: SolveResult<V>,
    /// Steal/split counters for the run.
    pub telemetry: StealReport,
}

/// A [`StealScheduler::count_detailed`] outcome: an exact solution count
/// plus steal telemetry.
#[derive(Debug, Clone)]
pub struct StealCountReport {
    /// Number of solutions counted (exact when the run completed).
    pub solutions: u64,
    /// Search counters (node totals are thread-count-independent).
    pub stats: SearchStats,
    /// Wall-clock time spent counting.
    pub elapsed: Duration,
    /// Whether the count was cut off by the node budget.
    pub hit_node_limit: bool,
    /// Whether the count was cut off by the deadline.
    pub hit_deadline: bool,
    /// Whether the count was aborted by a [`CancelToken`].
    pub cancelled: bool,
    /// Steal/split counters for the run.
    pub telemetry: StealReport,
}

impl StealCountReport {
    /// Whether the count ran to completion and is therefore exact.
    pub fn is_exact(&self) -> bool {
        !self.hit_node_limit && !self.hit_deadline && !self.cancelled
    }
}

/// A [`StealScheduler::optimize_detailed`] outcome: the optimization result
/// plus the canonical weight and steal telemetry.
#[derive(Debug, Clone)]
pub struct StealOptimizeReport<V> {
    /// The deterministic optimization result (strict-< incumbent, weight
    /// ties broken by the lowest canonical key).
    pub result: OptimizeResult<V>,
    /// The canonically recomputed weight of the returned solution.
    pub canonical_weight: Option<f64>,
    /// Whether the run exhausted the search space, proving optimality.
    pub optimal: bool,
    /// Steal/split counters for the run.
    pub telemetry: StealReport,
}

/// What a scheduler run is asked to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModeKind {
    /// First solution in canonical key order (or an UNSAT proof).
    Satisfy,
    /// Exact count of all solutions.
    Count,
    /// Maximum-weight solution (branch and bound).
    Optimize,
}

/// A shard of the search tree: assignments along the canonical order for
/// depths `0..trail.len()`, plus the `[lo, hi)` range of untried positions
/// in the static candidate list of the variable at depth `trail.len()`.
#[derive(Debug, Clone)]
struct Frame {
    trail: Vec<usize>,
    lo: usize,
    hi: usize,
    donor: usize,
}

/// One level of a worker's explicit DFS stack: the `[lo, hi)` range of
/// untried candidate positions at `depth`, and the accumulated weight of
/// the assignment prefix (branch and bound only).
struct Level {
    depth: usize,
    lo: usize,
    hi: usize,
    weight: f64,
    /// Propagation journal position taken just before the assignment that
    /// opened this level; popping the level rewinds the [`SoftAc3`] state
    /// to it.  [`SoftMark::ROOT`] when propagation is off.
    mark: SoftMark,
}

/// The best complete assignment found so far (SAT and BnB modes).
struct Best {
    key: Vec<usize>,
    weight: f64,
    assignment: Assignment,
}

/// Immutable per-run context shared by every worker.
struct Space<V: Value> {
    network: ConstraintNetwork<V>,
    weighted: Option<WeightedNetwork<V>>,
    kernel: Arc<BitKernel>,
    weights: Option<Arc<WeightKernel>>,
    order: Vec<VarId>,
    /// Per-depth assigned-prefix edge lists: under the static order the
    /// assigned set at depth `d` is exactly `order[..d]`, so conflict
    /// probes and gained-weight sums walk these `order`-filtered kernel
    /// adjacency lists (same edge order — identical check counts and
    /// bit-identical float sums on every worker).
    earlier: Vec<Vec<KernelEdge>>,
    live: Vec<Vec<usize>>,
    max_pair_weight: Vec<f64>,
    /// Root-propagated weighted bound-consistency template (optimize mode
    /// with propagation enabled).  Each worker clones it and rebuilds the
    /// per-frame state deterministically by replaying the frame trail, so
    /// the propagation reached is a pure function of the path — the node
    /// partition stays exact at every worker count.
    soft: Option<SoftAc3>,
    /// Counters accrued by the one-time root propagation, absorbed exactly
    /// once by the collector (not per worker).
    soft_root_stats: SearchStats,
    mode: ModeKind,
    node_limit: Option<u64>,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    workers: usize,
}

/// Mutable coordination state shared by every worker.
struct Shared {
    deques: Vec<Mutex<VecDeque<Frame>>>,
    /// Frames created but not yet fully explored or discarded.  Workers
    /// exit when this reaches zero: no frame is live anywhere, so no new
    /// donation can appear.
    outstanding: AtomicUsize,
    /// Workers currently idle and looking for work.  Nonzero is the signal
    /// that makes busy workers donate.
    hungry: AtomicUsize,
    halt: AtomicBool,
    hit_node_limit: AtomicBool,
    hit_deadline: AtomicBool,
    cancelled: AtomicBool,
    nodes_global: AtomicU64,
    best: Mutex<Option<Best>>,
    best_epoch: AtomicU64,
    incumbent: SharedIncumbent,
    resplits: AtomicU64,
    frames: AtomicU64,
}

impl Shared {
    fn new(workers: usize, observer: Option<IncumbentObserver>) -> Self {
        Shared {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            outstanding: AtomicUsize::new(0),
            hungry: AtomicUsize::new(0),
            halt: AtomicBool::new(false),
            hit_node_limit: AtomicBool::new(false),
            hit_deadline: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            nodes_global: AtomicU64::new(0),
            best: Mutex::new(None),
            best_epoch: AtomicU64::new(0),
            incumbent: SharedIncumbent::maybe_observed(observer),
            resplits: AtomicU64::new(0),
            frames: AtomicU64::new(0),
        }
    }
}

/// Per-worker mutable state.
struct Worker {
    id: usize,
    stats: SearchStats,
    solutions: u64,
    assignment: Assignment,
    /// This worker's clone of the space's root-propagated [`SoftAc3`]
    /// template; always rewound to the committed root baseline between
    /// frames.
    soft: Option<SoftAc3>,
    levels: Vec<Level>,
    exploring_stolen: bool,
    hungry_registered: bool,
    ticks: u32,
    flushed_nodes: u64,
    cached_epoch: u64,
    cached_key: Option<Vec<usize>>,
}

/// What each worker reports back to the collector.
struct WorkerOutcome {
    stats: SearchStats,
    solutions: u64,
}

/// Everything the collector assembles after the last worker reports.
struct RunOutput {
    stats: SearchStats,
    solutions: u64,
    best: Option<Best>,
    hit_node_limit: bool,
    hit_deadline: bool,
    cancelled: bool,
    elapsed: Duration,
    telemetry: StealReport,
}

/// Work-stealing dynamic shard search (see the [module docs](self)).
///
/// Without a pool the scheduler degrades to a single sequential worker —
/// the same algorithm, zero splits — which is also the 1-worker baseline
/// the determinism contract is audited against.
#[derive(Debug, Clone)]
pub struct StealScheduler {
    parallelism: Option<usize>,
    pool: Option<Arc<WorkerPool>>,
    observer: Option<IncumbentObserver>,
    propagation: bool,
}

impl Default for StealScheduler {
    fn default() -> Self {
        StealScheduler {
            parallelism: None,
            pool: None,
            observer: None,
            propagation: true,
        }
    }
}

impl StealScheduler {
    /// A scheduler with no pool (sequential until one is attached).
    pub fn new() -> Self {
        StealScheduler::default()
    }

    /// Enables or disables weighted bound-consistency propagation
    /// ([`SoftAc3`]) in optimize mode (on by default).  The flag trades
    /// nodes for propagation work only: the reported optimum and its
    /// weight are bit-identical either way.  Satisfy and count runs never
    /// propagate, so their exact node partition is unaffected.
    pub fn propagation(mut self, on: bool) -> Self {
        self.propagation = on;
        self
    }

    /// Attaches the shared worker pool the scheduler fans out over.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Sets the worker count (clamped to at least one).  Defaults to the
    /// pool's thread count.  More workers than pool threads is legal: the
    /// caller's thread always runs worker 0, and surplus workers drain
    /// instantly once the tree is exhausted.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = Some(workers.max(1));
        self
    }

    /// Subscribes an observer to the optimize-mode [`SharedIncumbent`]:
    /// every raise of the best-known solution weight across all workers is
    /// reported.  Observation never changes the computed result (solve and
    /// count modes never raise the bound, so the observer stays silent
    /// there).
    pub fn observe_incumbent(mut self, observer: IncumbentObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    fn effective_workers(&self) -> usize {
        match &self.pool {
            Some(pool) => self.parallelism.unwrap_or_else(|| pool.threads()).max(1),
            None => 1,
        }
    }

    /// Searches for the lowest-canonical-key solution, or proves the
    /// network unsatisfiable by exhausting a node-disjoint partition of the
    /// tree across workers.
    pub fn solve<V: Value + Send + Sync + 'static>(
        &self,
        network: &ConstraintNetwork<V>,
        limits: &SearchLimits,
    ) -> SolveResult<V> {
        self.solve_detailed(network, limits, None).result
    }

    /// [`StealScheduler::solve`] with an optional cancel token and steal
    /// telemetry in the report.
    pub fn solve_detailed<V: Value + Send + Sync + 'static>(
        &self,
        network: &ConstraintNetwork<V>,
        limits: &SearchLimits,
        cancel: Option<&CancelToken>,
    ) -> StealSolveReport<V> {
        let workers = self.effective_workers();
        match self.prepare(network, None, ModeKind::Satisfy, limits, cancel, workers) {
            Prepared::Trivial(solvable) => {
                let solution = solvable.then(|| {
                    Solution::from_assignment(network, &Assignment::new(network.variable_count()))
                });
                StealSolveReport {
                    result: SolveResult {
                        solution,
                        stats: SearchStats::default(),
                        elapsed: Duration::ZERO,
                        hit_node_limit: false,
                        hit_deadline: false,
                        cancelled: false,
                    },
                    telemetry: StealReport {
                        workers,
                        ..StealReport::default()
                    },
                }
            }
            Prepared::Space(space) => {
                let out = self.run(*space);
                let solution = out
                    .best
                    .as_ref()
                    .map(|b| Solution::from_assignment(network, &b.assignment));
                StealSolveReport {
                    result: SolveResult {
                        solution,
                        stats: out.stats,
                        elapsed: out.elapsed,
                        hit_node_limit: out.hit_node_limit,
                        hit_deadline: out.hit_deadline,
                        cancelled: out.cancelled,
                    },
                    telemetry: out.telemetry,
                }
            }
        }
    }

    /// Counts every solution of the network exactly, sharding the
    /// enumeration tree across workers.
    pub fn count<V: Value + Send + Sync + 'static>(
        &self,
        network: &ConstraintNetwork<V>,
        limits: &SearchLimits,
    ) -> StealCountReport {
        self.count_detailed(network, limits, None)
    }

    /// [`StealScheduler::count`] with an optional cancel token.
    pub fn count_detailed<V: Value + Send + Sync + 'static>(
        &self,
        network: &ConstraintNetwork<V>,
        limits: &SearchLimits,
        cancel: Option<&CancelToken>,
    ) -> StealCountReport {
        let workers = self.effective_workers();
        match self.prepare(network, None, ModeKind::Count, limits, cancel, workers) {
            Prepared::Trivial(solvable) => StealCountReport {
                solutions: u64::from(solvable),
                stats: SearchStats::default(),
                elapsed: Duration::ZERO,
                hit_node_limit: false,
                hit_deadline: false,
                cancelled: false,
                telemetry: StealReport {
                    workers,
                    ..StealReport::default()
                },
            },
            Prepared::Space(space) => {
                let out = self.run(*space);
                StealCountReport {
                    solutions: out.solutions,
                    stats: out.stats,
                    elapsed: out.elapsed,
                    hit_node_limit: out.hit_node_limit,
                    hit_deadline: out.hit_deadline,
                    cancelled: out.cancelled,
                    telemetry: out.telemetry,
                }
            }
        }
    }

    /// Finds the maximum-weight solution by sharded branch and bound with a
    /// shared incumbent (strict-< pruning, key tie-break).
    pub fn optimize<V: Value + Send + Sync + 'static>(
        &self,
        weighted: &WeightedNetwork<V>,
        limits: &SearchLimits,
    ) -> OptimizeResult<V> {
        self.optimize_detailed(weighted, limits, None).result
    }

    /// [`StealScheduler::optimize`] with an optional cancel token, the
    /// canonical weight and steal telemetry in the report.
    pub fn optimize_detailed<V: Value + Send + Sync + 'static>(
        &self,
        weighted: &WeightedNetwork<V>,
        limits: &SearchLimits,
        cancel: Option<&CancelToken>,
    ) -> StealOptimizeReport<V> {
        let workers = self.effective_workers();
        let network = weighted.network();
        match self.prepare(
            network,
            Some(weighted),
            ModeKind::Optimize,
            limits,
            cancel,
            workers,
        ) {
            Prepared::Trivial(solvable) => {
                let solution = solvable.then(|| {
                    Solution::from_assignment(network, &Assignment::new(network.variable_count()))
                });
                let optimal = solution.is_some();
                StealOptimizeReport {
                    canonical_weight: solution.as_ref().map(|_| 0.0),
                    result: OptimizeResult {
                        solution,
                        best_weight: 0.0,
                        stats: SearchStats::default(),
                        elapsed: Duration::ZERO,
                        hit_node_limit: false,
                        hit_deadline: false,
                        cancelled: false,
                    },
                    optimal,
                    telemetry: StealReport {
                        workers,
                        ..StealReport::default()
                    },
                }
            }
            Prepared::Space(space) => {
                let out = self.run(*space);
                let solution = out
                    .best
                    .as_ref()
                    .map(|b| Solution::from_assignment(network, &b.assignment));
                let canonical_weight = out.best.as_ref().map(|b| b.weight);
                let exhausted = !out.hit_node_limit && !out.hit_deadline && !out.cancelled;
                StealOptimizeReport {
                    optimal: exhausted && solution.is_some(),
                    result: OptimizeResult {
                        solution,
                        best_weight: canonical_weight.unwrap_or(0.0),
                        stats: out.stats,
                        elapsed: out.elapsed,
                        hit_node_limit: out.hit_node_limit,
                        hit_deadline: out.hit_deadline,
                        cancelled: out.cancelled,
                    },
                    canonical_weight,
                    telemetry: out.telemetry,
                }
            }
        }
    }

    /// Builds the shared search space, or short-circuits trivial networks
    /// (no variables: trivially solvable; an empty live domain: trivially
    /// unsatisfiable).
    fn prepare<V: Value>(
        &self,
        network: &ConstraintNetwork<V>,
        weighted: Option<&WeightedNetwork<V>>,
        mode: ModeKind,
        limits: &SearchLimits,
        cancel: Option<&CancelToken>,
        workers: usize,
    ) -> Prepared<V> {
        if network.variable_count() == 0 {
            return Prepared::Trivial(true);
        }
        let mut order: Vec<VarId> = network.variables().collect();
        let kernel = Arc::clone(network.kernel());
        let mut soft_root_stats = SearchStats::default();
        let (weights, live, max_pair_weight, soft) = match (mode, weighted) {
            (ModeKind::Optimize, Some(weighted)) => {
                // Branch and bound: most-constrained-first order, values by
                // descending weight potential, per-constraint optimistic
                // bounds — the exact machinery of `BranchAndBound`, so the
                // 1-worker scheduler explores the same tree shape.
                order.sort_by_key(|&v| Reverse(network.constraints_of(v).len()));
                let weight_kernel = Arc::clone(weighted.weight_kernel());
                let domains = kernel.full_domains();
                let live: Vec<Vec<usize>> = network
                    .variables()
                    .map(|v| weighted_value_order(&kernel, &weight_kernel, &domains, v))
                    .collect();
                let max_pair_weight = weighted.optimistic_pair_bounds();
                // Root-propagated bound-consistency template: built once,
                // cloned per worker.  A root wipeout means no assignment
                // can strictly beat negative infinity — i.e. every value
                // of some variable is hard-unsupported — so the network
                // is trivially unsatisfiable.
                let soft = if self.propagation {
                    let mut soft = SoftAc3::new(&kernel, &weight_kernel);
                    if soft.root_propagate(&mut soft_root_stats).is_err() {
                        return Prepared::Trivial(false);
                    }
                    soft.commit();
                    Some(soft)
                } else {
                    None
                };
                (Some(weight_kernel), live, max_pair_weight, soft)
            }
            _ => {
                // Satisfy/count: the enumerator's static most-constrained-
                // first order with ascending value indices, so the canonical
                // key order coincides with the in-frame DFS order.
                order.sort_by_key(|&v| {
                    (
                        Reverse(network.neighbours(v).len()),
                        network.domain(v).len(),
                        v,
                    )
                });
                let live: Vec<Vec<usize>> = network
                    .variables()
                    .map(|v| (0..network.domain(v).len()).collect())
                    .collect();
                (None, live, Vec::new(), None)
            }
        };
        if live.iter().any(|values| values.is_empty()) {
            return Prepared::Trivial(false);
        }
        let mut position = vec![0usize; network.variable_count()];
        for (d, &v) in order.iter().enumerate() {
            position[v.index()] = d;
        }
        let earlier: Vec<Vec<KernelEdge>> = order
            .iter()
            .enumerate()
            .map(|(d, &v)| {
                kernel
                    .edges(v)
                    .iter()
                    .filter(|e| position[e.other.index()] < d)
                    .copied()
                    .collect()
            })
            .collect();
        Prepared::Space(Box::new(Space {
            network: network.clone(),
            weighted: weighted.cloned(),
            kernel,
            weights,
            order,
            earlier,
            live,
            max_pair_weight,
            soft,
            soft_root_stats,
            mode,
            node_limit: limits.node_limit,
            deadline: limits.deadline,
            cancel: cancel.cloned(),
            workers,
        }))
    }

    /// Seeds the root frame, fans workers out over the pool (the calling
    /// thread is always worker 0) and collects per-worker outcomes.
    fn run<V: Value + Send + Sync + 'static>(&self, space: Space<V>) -> RunOutput {
        let start = Instant::now();
        let workers = space.workers;
        let shared = Arc::new(Shared::new(workers, self.observer.clone()));
        if let Some(cancel) = &space.cancel {
            if cancel.is_cancelled() {
                shared.cancelled.store(true, Ordering::Release);
                shared.halt.store(true, Ordering::Release);
            }
        }
        if let Some(deadline) = space.deadline {
            if Instant::now() >= deadline {
                shared.hit_deadline.store(true, Ordering::Release);
                shared.halt.store(true, Ordering::Release);
            }
        }
        let root_var = space.order[0];
        shared.outstanding.store(1, Ordering::SeqCst);
        shared.frames.store(1, Ordering::Relaxed);
        crate::sync::lock_or_recover(&shared.deques[0]).push_back(Frame {
            trail: Vec::new(),
            lo: 0,
            hi: space.live[root_var.index()].len(),
            donor: 0,
        });

        let space = Arc::new(space);
        let (tx, rx) = channel::<WorkerOutcome>();
        let mut in_flight = 0usize;
        if workers > 1 {
            let pool = self
                .pool
                .as_ref()
                .expect("multi-worker scheduling requires a pool");
            for id in 1..workers {
                let space = Arc::clone(&space);
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                pool.execute(move || {
                    let outcome = worker_run(&space, &shared, id);
                    let _ = tx.send(outcome);
                });
                in_flight += 1;
            }
        }
        drop(tx);

        let own = worker_run(&space, &shared, 0);
        let mut stats = own.stats;
        // The one-time root propagation belongs to the run, not to any
        // worker: absorb its counters exactly once.
        stats.absorb(&space.soft_root_stats);
        let mut solutions = own.solutions;
        while in_flight > 0 {
            match rx.recv_timeout(COLLECT_POLL) {
                Ok(outcome) => {
                    // Each worker's counters cover exactly the frames it
                    // explored; frames are disjoint, so one absorb per
                    // worker attributes every node exactly once.
                    stats.absorb(&outcome.stats);
                    solutions += outcome.solutions;
                    in_flight -= 1;
                }
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(pool) = &self.pool {
                        pool.help_run_one();
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        let best = crate::sync::lock_or_recover(&shared.best).take();
        RunOutput {
            telemetry: StealReport {
                workers,
                steals: stats.steals,
                splits: stats.splits,
                resplits: shared.resplits.load(Ordering::Relaxed),
                frames: shared.frames.load(Ordering::Relaxed),
            },
            stats,
            solutions,
            best,
            hit_node_limit: shared.hit_node_limit.load(Ordering::Acquire),
            hit_deadline: shared.hit_deadline.load(Ordering::Acquire),
            cancelled: shared.cancelled.load(Ordering::Acquire),
            elapsed: start.elapsed(),
        }
    }
}

impl<V: Value + Send + Sync + 'static> NetworkSearch<V> for StealScheduler {
    /// The scheduler is deterministic by construction, so the caller's RNG
    /// is unused.
    fn search(
        &self,
        network: &ConstraintNetwork<V>,
        _rng: &mut StdRng,
        limits: &SearchLimits,
    ) -> SolveResult<V> {
        self.solve(network, limits)
    }
}

enum Prepared<V: Value> {
    /// `true`: trivially solvable (no variables); `false`: trivially
    /// unsatisfiable (an empty live domain).
    Trivial(bool),
    /// Boxed: a prepared space carries the order, per-depth edge lists and
    /// live masks, which dwarf the trivial arm.
    Space(Box<Space<V>>),
}

/// The main worker loop: explore frames until no frame is live anywhere.
fn worker_run<V: Value>(space: &Space<V>, shared: &Shared, id: usize) -> WorkerOutcome {
    crate::fail_point!("steal.worker");
    let mut w = Worker {
        id,
        stats: SearchStats::default(),
        solutions: 0,
        assignment: Assignment::new(space.network.variable_count()),
        soft: space.soft.clone(),
        levels: Vec::new(),
        exploring_stolen: false,
        hungry_registered: false,
        ticks: 0,
        flushed_nodes: 0,
        cached_epoch: 0,
        cached_key: None,
    };
    loop {
        match take_frame(space, shared, &mut w) {
            Some(frame) => {
                explore(space, shared, &mut w, frame);
                shared.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
            None => {
                if !w.hungry_registered {
                    shared.hungry.fetch_add(1, Ordering::SeqCst);
                    w.hungry_registered = true;
                }
                if shared.outstanding.load(Ordering::SeqCst) == 0 {
                    break;
                }
                // Keep external aborts responsive even while starved.
                poll_budget(space, shared, &mut w);
                std::thread::yield_now();
            }
        }
    }
    if w.hungry_registered {
        shared.hungry.fetch_sub(1, Ordering::SeqCst);
    }
    WorkerOutcome {
        stats: w.stats,
        solutions: w.solutions,
    }
}

/// Pops the next frame: own deque from the back (deepest, cache-warm),
/// then victims' deques from the front (shallowest shard = biggest steal).
fn take_frame<V: Value>(space: &Space<V>, shared: &Shared, w: &mut Worker) -> Option<Frame> {
    let mut frame = crate::sync::lock_or_recover(&shared.deques[w.id]).pop_back();
    if frame.is_none() {
        for k in 1..space.workers {
            let victim = (w.id + k) % space.workers;
            // A poisoned victim deque still holds frames that must drain
            // (losing them would wedge the outstanding counter), so recover
            // the guard instead of skipping the victim.
            let stolen = match shared.deques[victim].try_lock() {
                Ok(mut deque) => deque.pop_front(),
                Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                    poisoned.into_inner().pop_front()
                }
                Err(std::sync::TryLockError::WouldBlock) => None,
            };
            if let Some(stolen) = stolen {
                frame = Some(stolen);
                break;
            }
        }
    }
    let frame = frame?;
    if frame.donor != w.id {
        w.stats.steals += 1;
    }
    if w.hungry_registered {
        shared.hungry.fetch_sub(1, Ordering::SeqCst);
        w.hungry_registered = false;
    }
    Some(frame)
}

/// Replays a frame's trail and runs the in-frame DFS over its shard.
fn explore<V: Value>(space: &Space<V>, shared: &Shared, w: &mut Worker, frame: Frame) {
    // A halted run discards frames unexplored; the pop-discard loop in
    // `worker_run` is what drains every deque promptly on cancellation.
    if shared.halt.load(Ordering::Acquire) {
        return;
    }
    w.exploring_stolen = frame.donor != w.id;
    let base = frame.trail.len();
    let mut weight = 0.0;
    let mut soft_wipeout = false;
    for (depth, &value) in frame.trail.iter().enumerate() {
        let var = space.order[depth];
        if space.mode == ModeKind::Optimize {
            // Same edge-order summation as the original path, so the replayed
            // prefix weight is bit-identical to the donor's.
            weight += gained(space, &w.assignment, depth, value);
        }
        w.assignment.assign(var, value);
        // Rebuild the propagation state from the trail: the forward-checked
        // domains after the replay are a pure function of the path (the
        // donor's own state was at least as tight, so a wipeout here is a
        // defensive impossibility — handled as a pruned frame regardless).
        if !soft_wipeout {
            if let Some(soft) = w.soft.as_mut() {
                if soft.assign(var, value).is_err() {
                    soft_wipeout = true;
                }
            }
        }
    }
    let mut pruned = false;
    if space.mode == ModeKind::Optimize {
        if let Some(soft) = w.soft.as_mut() {
            // One fixpoint over the replayed prefix stands in for the
            // frame-level optimistic prune: strictly below the shared
            // incumbent is dead, ties survive (no local best in the
            // sharded search — the incumbent carries all pruning).
            if soft_wipeout
                || soft
                    .propagate(
                        weight,
                        f64::NEG_INFINITY,
                        shared.incumbent.get(),
                        &mut w.stats,
                    )
                    .is_err()
            {
                w.stats.prunings += 1;
                pruned = true;
            }
        } else {
            let optimistic = optimistic_bound(space, &w.assignment);
            if weight + optimistic < shared.incumbent.get() {
                w.stats.prunings += 1;
                pruned = true;
            }
        }
    }
    if !pruned {
        w.levels.clear();
        w.levels.push(Level {
            depth: base,
            lo: frame.lo,
            hi: frame.hi,
            weight,
            mark: SoftMark::ROOT,
        });
        dfs(space, shared, w, base);
    }
    for depth in (0..base).rev() {
        w.assignment.unassign(space.order[depth]);
    }
    // Rewind every journaled change (trail replay, fixpoint deletions and
    // in-frame leftovers) back to the committed root baseline.
    if let Some(soft) = w.soft.as_mut() {
        soft.undo_all();
    }
}

/// Depth-first exploration of the worker's level stack, donating shards to
/// hungry peers along the way.
fn dfs<V: Value>(space: &Space<V>, shared: &Shared, w: &mut Worker, base: usize) {
    let depth_count = space.order.len();
    while !w.levels.is_empty() {
        w.ticks += 1;
        if w.ticks >= POLL_EVERY {
            poll_budget(space, shared, w);
        }
        if shared.halt.load(Ordering::Relaxed) {
            while let Some(level) = w.levels.pop() {
                if level.depth > base {
                    w.assignment.unassign(space.order[level.depth - 1]);
                    if let Some(soft) = w.soft.as_mut() {
                        soft.undo_to(level.mark);
                    }
                }
            }
            return;
        }
        maybe_donate(space, shared, w);
        let top = w.levels.last_mut().expect("level stack is non-empty");
        let depth = top.depth;
        let level_weight = top.weight;
        let var = space.order[depth];
        if top.lo == top.hi {
            let level = w.levels.pop().expect("level stack is non-empty");
            if depth > base {
                w.assignment.unassign(space.order[depth - 1]);
                if let Some(soft) = w.soft.as_mut() {
                    soft.undo_to(level.mark);
                }
            }
            w.stats.backtracks += 1;
            continue;
        }
        let value = space.live[var.index()][top.lo];
        top.lo += 1;
        // Values the bound-consistency fixpoint already deleted are not
        // search nodes: skip before the node counter, exactly like the
        // sequential `BranchAndBound`.
        if let Some(soft) = &w.soft {
            if !soft.is_live(var, value) {
                continue;
            }
        }
        w.stats.nodes_visited += 1;
        if depth + 1 > w.stats.max_depth {
            w.stats.max_depth = depth + 1;
        }
        if space.mode == ModeKind::Satisfy && beaten_by_best(space, shared, w, depth, value) {
            // In-frame DFS runs in ascending key order: once one value's key
            // prefix exceeds the best-known key, so does every later
            // sibling's — the rest of the level is dead.
            let top = w.levels.last_mut().expect("level stack is non-empty");
            top.lo = top.hi;
            continue;
        }
        // Inline `conflicts_any` over the assigned-prefix edge list: one
        // check per probed edge, early exit on the first conflict — the
        // same probe order and check counts on every worker.  Redundant
        // when propagation is on: every live value has been forward-checked
        // against the whole assigned prefix.
        if w.soft.is_none() {
            let mut conflict = false;
            for edge in &space.earlier[depth] {
                if let Some(other_value) = w.assignment.get(edge.other) {
                    w.stats.consistency_checks += 1;
                    let c = space.kernel.constraint(edge.constraint);
                    let allowed = if edge.var_is_first {
                        c.allows(value, other_value)
                    } else {
                        c.allows(other_value, value)
                    };
                    if !allowed {
                        conflict = true;
                        break;
                    }
                }
            }
            if conflict {
                continue;
            }
        }
        if depth + 1 == depth_count {
            w.assignment.assign(var, value);
            on_complete(space, shared, w);
            w.assignment.unassign(var);
            continue;
        }
        let gained_here = if space.mode == ModeKind::Optimize {
            gained(space, &w.assignment, depth, value)
        } else {
            0.0
        };
        w.assignment.assign(var, value);
        let mut child_mark = SoftMark::ROOT;
        if space.mode == ModeKind::Optimize {
            if let Some(soft) = w.soft.as_mut() {
                // Propagate-then-branch: forward-check the assignment and
                // run the bound-consistency fixpoint against the shared
                // incumbent (strict <, ties explored — the same contract
                // as the optimistic prune it replaces).
                let mark = soft.mark();
                let ok = soft.assign(var, value).is_ok()
                    && soft
                        .propagate(
                            level_weight + gained_here,
                            f64::NEG_INFINITY,
                            shared.incumbent.get(),
                            &mut w.stats,
                        )
                        .is_ok();
                if !ok {
                    w.stats.prunings += 1;
                    soft.undo_to(mark);
                    w.assignment.unassign(var);
                    continue;
                }
                child_mark = mark;
            } else {
                let optimistic = optimistic_bound(space, &w.assignment);
                // Strictly below the shared incumbent: nothing reportable
                // lives here.  Ties must be explored — that is what keeps
                // the final solution independent of bound-arrival timing.
                if level_weight + gained_here + optimistic < shared.incumbent.get() {
                    w.stats.prunings += 1;
                    w.assignment.unassign(var);
                    continue;
                }
            }
        }
        let next_var = space.order[depth + 1];
        w.levels.push(Level {
            depth: depth + 1,
            lo: 0,
            hi: space.live[next_var.index()].len(),
            weight: level_weight + gained_here,
            mark: child_mark,
        });
    }
}

/// Donates the tail half of the shallowest splittable level to this
/// worker's deque when some peer is hungry and the deque is empty.
fn maybe_donate<V: Value>(space: &Space<V>, shared: &Shared, w: &mut Worker) {
    if shared.hungry.load(Ordering::Relaxed) == 0 || shared.halt.load(Ordering::Relaxed) {
        return;
    }
    let Some(index) = w.levels.iter().position(|level| level.hi - level.lo >= 2) else {
        return;
    };
    // An undrained previous donation means no thief has caught up yet;
    // donating more would just fragment the tree.
    let Ok(mut deque) = shared.deques[w.id].try_lock() else {
        return;
    };
    if !deque.is_empty() {
        return;
    }
    let level = &mut w.levels[index];
    let mid = level.lo + (level.hi - level.lo).div_ceil(2);
    let trail: Vec<usize> = (0..level.depth)
        .map(|depth| {
            w.assignment
                .get(space.order[depth])
                .expect("trail prefix is assigned")
        })
        .collect();
    let frame = Frame {
        trail,
        lo: mid,
        hi: level.hi,
        donor: w.id,
    };
    level.hi = mid;
    shared.outstanding.fetch_add(1, Ordering::SeqCst);
    shared.frames.fetch_add(1, Ordering::Relaxed);
    deque.push_back(frame);
    drop(deque);
    w.stats.splits += 1;
    if w.exploring_stolen {
        shared.resplits.fetch_add(1, Ordering::Relaxed);
    }
}

/// Flushes locally counted nodes into the global budget and checks the
/// node limit, the deadline and the cancel token.
fn poll_budget<V: Value>(space: &Space<V>, shared: &Shared, w: &mut Worker) {
    w.ticks = 0;
    let delta = w.stats.nodes_visited - w.flushed_nodes;
    w.flushed_nodes = w.stats.nodes_visited;
    let total = shared.nodes_global.fetch_add(delta, Ordering::Relaxed) + delta;
    if let Some(limit) = space.node_limit {
        if total >= limit {
            shared.hit_node_limit.store(true, Ordering::Release);
            shared.halt.store(true, Ordering::Release);
        }
    }
    if let Some(deadline) = space.deadline {
        if Instant::now() >= deadline {
            shared.hit_deadline.store(true, Ordering::Release);
            shared.halt.store(true, Ordering::Release);
        }
    }
    if let Some(cancel) = &space.cancel {
        if cancel.is_cancelled() {
            shared.cancelled.store(true, Ordering::Release);
            shared.halt.store(true, Ordering::Release);
        }
    }
}

/// Whether the key prefix `assignment[order[0..depth]] + value` already
/// exceeds the best-known solution key (SAT mode pruning).
fn beaten_by_best<V: Value>(
    space: &Space<V>,
    shared: &Shared,
    w: &mut Worker,
    depth: usize,
    value: usize,
) -> bool {
    let epoch = shared.best_epoch.load(Ordering::Acquire);
    if epoch != w.cached_epoch {
        w.cached_epoch = epoch;
        w.cached_key = crate::sync::lock_or_recover(&shared.best)
            .as_ref()
            .map(|best| best.key.clone());
    }
    let Some(best) = &w.cached_key else {
        return false;
    };
    for (d, &best_at) in best.iter().enumerate().take(depth) {
        let mine = w
            .assignment
            .get(space.order[d])
            .expect("DFS prefix is assigned");
        if best_at < mine {
            return true;
        }
        if best_at > mine {
            return false;
        }
    }
    // Equal prefixes must still be explored: deeper positions may be
    // smaller than the best key's.
    best[depth] < value
}

/// Handles a complete consistent assignment according to the run mode.
fn on_complete<V: Value>(space: &Space<V>, shared: &Shared, w: &mut Worker) {
    match space.mode {
        ModeKind::Count => w.solutions += 1,
        ModeKind::Satisfy => {
            let key = key_of(space, &w.assignment);
            let mut best = crate::sync::lock_or_recover(&shared.best);
            let replace = match best.as_ref() {
                None => true,
                Some(current) => key < current.key,
            };
            if replace {
                *best = Some(Best {
                    key,
                    weight: 0.0,
                    assignment: w.assignment.clone(),
                });
                shared.best_epoch.fetch_add(1, Ordering::Release);
            }
        }
        ModeKind::Optimize => {
            let weighted = space.weighted.as_ref().expect("optimize mode has weights");
            // Publish the *canonically* recomputed weight: every worker sums
            // constraint contributions in the same (variable, adjacency)
            // order, so equal solutions compare bit-equal everywhere.
            let canonical = weighted.assignment_weight(&w.assignment);
            if canonical < shared.incumbent.get() {
                return; // strictly worse than the incumbent: not even a tie
            }
            let key = key_of(space, &w.assignment);
            let mut best = crate::sync::lock_or_recover(&shared.best);
            let replace = match best.as_ref() {
                None => true,
                Some(current) => {
                    canonical > current.weight || (canonical == current.weight && key < current.key)
                }
            };
            if replace {
                *best = Some(Best {
                    key,
                    weight: canonical,
                    assignment: w.assignment.clone(),
                });
                shared.incumbent.offer(canonical);
                shared.best_epoch.fetch_add(1, Ordering::Release);
            }
        }
    }
}

/// The canonical key of a complete assignment: value indices along the
/// static search order.
fn key_of<V: Value>(space: &Space<V>, assignment: &Assignment) -> Vec<usize> {
    space
        .order
        .iter()
        .map(|&var| assignment.get(var).expect("assignment is complete"))
        .collect()
}

/// Weight gained by assigning `value` to `order[depth]` against the
/// already-assigned prefix (the filtered list preserves kernel-adjacency
/// order: deterministic float sums, bit-identical on every worker).
fn gained<V: Value>(space: &Space<V>, assignment: &Assignment, depth: usize, value: usize) -> f64 {
    let weights = space.weights.as_ref().expect("optimize mode has weights");
    let mut total = 0.0;
    for edge in &space.earlier[depth] {
        if let Some(other_value) = assignment.get(edge.other) {
            total +=
                weights
                    .constraint(edge.constraint)
                    .oriented(edge.var_is_first, value, other_value);
        }
    }
    total
}

/// Upper bound on the weight still obtainable: the sum of per-constraint
/// optimistic bounds over constraints not yet fully assigned.
fn optimistic_bound<V: Value>(space: &Space<V>, assignment: &Assignment) -> f64 {
    space
        .max_pair_weight
        .iter()
        .enumerate()
        .filter(|&(ci, _)| {
            let c = space.kernel.constraint(ci);
            assignment.get(c.first()).is_none() || assignment.get(c.second()).is_none()
        })
        .map(|(_, &bound)| bound)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomNetworkSpec;
    use crate::solver::{Enumerator, SearchEngine};
    use crate::weighted::BranchAndBound;

    fn pool(threads: usize) -> Arc<WorkerPool> {
        Arc::new(WorkerPool::new(threads))
    }

    fn loose_network(seed: u64) -> ConstraintNetwork<usize> {
        RandomNetworkSpec {
            variables: 10,
            domain_size: 3,
            density: 0.3,
            tightness: 0.2,
            seed,
        }
        .generate()
    }

    fn unsat_triangle() -> ConstraintNetwork<usize> {
        let mut net = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![0, 1]);
        let b = net.add_variable("b", vec![0, 1]);
        let c = net.add_variable("c", vec![0, 1]);
        let neq = vec![(0, 1), (1, 0)];
        net.add_constraint(a, b, neq.clone()).unwrap();
        net.add_constraint(b, c, neq.clone()).unwrap();
        net.add_constraint(a, c, neq).unwrap();
        net
    }

    #[test]
    fn empty_network_is_trivially_solvable() {
        let net: ConstraintNetwork<usize> = ConstraintNetwork::new();
        let report = StealScheduler::new().solve_detailed(&net, &SearchLimits::none(), None);
        assert!(report.result.solution.is_some());
        let count = StealScheduler::new().count(&net, &SearchLimits::none());
        assert_eq!(count.solutions, 1);
    }

    #[test]
    fn proves_unsatisfiability_sequentially_and_in_parallel() {
        let net = unsat_triangle();
        let sequential = StealScheduler::new().solve(&net, &SearchLimits::none());
        assert!(sequential.proves_unsatisfiable());
        let parallel = StealScheduler::new()
            .with_pool(pool(4))
            .parallelism(4)
            .solve(&net, &SearchLimits::none());
        assert!(parallel.proves_unsatisfiable());
        assert_eq!(
            sequential.stats.nodes_visited, parallel.stats.nodes_visited,
            "UNSAT proofs partition the tree exactly"
        );
    }

    #[test]
    fn count_matches_enumerator() {
        let net = loose_network(41);
        let reference = Enumerator::default().enumerate(&net);
        assert!(!reference.truncated);
        for workers in [1usize, 4] {
            let scheduler = if workers == 1 {
                StealScheduler::new()
            } else {
                StealScheduler::new()
                    .with_pool(pool(workers))
                    .parallelism(workers)
            };
            let count = scheduler.count(&net, &SearchLimits::none());
            assert!(count.is_exact());
            assert_eq!(count.solutions, reference.count() as u64);
        }
    }

    #[test]
    fn solve_agrees_with_engine_on_satisfiability() {
        for seed in [7u64, 8, 9] {
            let net = loose_network(seed);
            let engine = SearchEngine::default().solve(&net);
            let steal = StealScheduler::new().solve(&net, &SearchLimits::none());
            assert_eq!(
                engine.is_satisfiable(),
                steal.is_satisfiable(),
                "seed {seed}"
            );
            if let Some(solution) = &steal.solution {
                for var in net.variables() {
                    assert!(solution.value_index(var) < net.domain(var).len());
                }
            }
        }
    }

    #[test]
    fn optimize_matches_branch_and_bound_weight() {
        let (weighted, _) = crate::random::planted_weighted_network(
            &RandomNetworkSpec {
                variables: 9,
                domain_size: 3,
                density: 0.5,
                tightness: 0.2,
                seed: 99,
            },
            25.0,
            6,
        );
        let reference = BranchAndBound::new().optimize(&weighted);
        for workers in [1usize, 4] {
            let scheduler = if workers == 1 {
                StealScheduler::new()
            } else {
                StealScheduler::new()
                    .with_pool(pool(workers))
                    .parallelism(workers)
            };
            let report = scheduler.optimize_detailed(&weighted, &SearchLimits::none(), None);
            assert!(report.optimal);
            assert_eq!(report.result.best_weight, reference.best_weight);
        }
    }

    #[test]
    fn node_limit_halts_the_run() {
        // PHP(8)'s refutation tree is far larger than 500 nodes, so the
        // budget must cut the proof short (within poll granularity).
        let net = crate::random::pigeonhole_network(8);
        let limits = SearchLimits::none().with_node_limit(500);
        let result = StealScheduler::new().solve(&net, &limits);
        assert!(result.hit_node_limit);
        assert!(result.solution.is_none());
        assert!(!result.proves_unsatisfiable());
    }

    #[test]
    fn pre_cancelled_token_aborts_immediately() {
        let net = loose_network(3);
        let cancel = CancelToken::new();
        cancel.cancel();
        let report = StealScheduler::new()
            .with_pool(pool(2))
            .parallelism(2)
            .solve_detailed(&net, &SearchLimits::none(), Some(&cancel));
        assert!(report.result.cancelled);
        assert!(!report.result.proves_unsatisfiable());
    }

    #[test]
    fn sequential_runs_never_steal_or_split() {
        let net = loose_network(11);
        let report = StealScheduler::new().solve_detailed(&net, &SearchLimits::none(), None);
        assert_eq!(report.telemetry.steals, 0);
        assert_eq!(report.telemetry.splits, 0);
        assert_eq!(report.telemetry.workers, 1);
        assert_eq!(report.telemetry.frames, 1);
    }
}
