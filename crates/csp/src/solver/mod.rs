//! Search schemes for constraint networks.
//!
//! The paper evaluates two schemes:
//!
//! * the **base scheme** — depth-first search that picks the next variable
//!   and the next value at random and backtracks chronologically,
//! * the **enhanced scheme** — the base scheme improved with (i)
//!   most-constraining variable ordering, (ii) least-constraining value
//!   ordering and (iii) backjumping.
//!
//! Both are instances of one configurable [`SearchEngine`]; the individual
//! improvements can be toggled independently, which is exactly what the
//! Figure 4 ablation needs.  Forward checking and AC-3 preprocessing are
//! provided as extensions beyond the paper.

mod ac3;
mod engine;
mod enumerate;
mod incumbent;
mod local;
mod ordering;
pub mod pool;
pub mod soft_ac3;
pub mod steal;

pub use ac3::{ac3, ac3_kernel, Ac3Outcome};
pub use enumerate::{EnumerationResult, Enumerator};
pub use incumbent::{CancelToken, IncumbentObserver, SharedIncumbent};
pub use local::MinConflicts;
pub use ordering::{
    best_live_weight, order_values, select_variable, weighted_value_order, ValueOrdering,
    VariableOrdering,
};
pub use pool::{JobPanic, WorkerPool};
pub use soft_ac3::{SoftAc3, SoftMark, Wipeout};
pub use steal::{
    StealCountReport, StealOptimizeReport, StealReport, StealScheduler, StealSolveReport,
};

use crate::assignment::Solution;
use crate::network::ConstraintNetwork;
use crate::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::time::{Duration, Instant};

/// Per-run resource limits, independent of the engine configuration.
///
/// This is the narrow seam callers (notably `mlo-core` strategies) use to
/// impose request-scoped budgets without rebuilding the engine: a node
/// budget, a wall-clock deadline, or both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchLimits {
    /// Abort after visiting this many nodes (`None` = unlimited).
    pub node_limit: Option<u64>,
    /// Abort once this instant passes (`None` = no deadline).
    pub deadline: Option<Instant>,
}

impl SearchLimits {
    /// No limits at all.
    pub fn none() -> Self {
        SearchLimits::default()
    }

    /// Limits with a node budget.
    pub fn with_node_limit(mut self, limit: u64) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Limits with a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The narrow search seam: one entry point every solver backend implements.
///
/// `mlo-core` layout strategies are written against this trait, so custom
/// backends (parallel schedulers, randomized restarts, external SAT bridges)
/// can slot in by implementing a single method.  The caller owns the RNG —
/// identical requests replay identical random orderings — and the limits,
/// so one backend value can serve many differently-budgeted requests.
pub trait NetworkSearch<V: Value> {
    /// Searches `network` for a solution using the caller's RNG and limits.
    fn search(
        &self,
        network: &ConstraintNetwork<V>,
        rng: &mut StdRng,
        limits: &SearchLimits,
    ) -> SolveResult<V>;
}

/// Counters describing a single solver run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Number of variable-value instantiations attempted.
    pub nodes_visited: u64,
    /// Number of dead ends reached (all values of a variable exhausted).
    pub backtracks: u64,
    /// Number of levels skipped thanks to backjumping (0 without it).
    pub backjumps: u64,
    /// Number of individual constraint checks performed.
    pub consistency_checks: u64,
    /// Number of domain values pruned by forward checking / AC-3.  Branch
    /// and bound counts its bound prunes (subtrees cut by the own or shared
    /// incumbent bound) here.
    pub prunings: u64,
    /// Deepest partial-assignment depth reached.
    pub max_depth: usize,
    /// Number of frames taken from another worker's deque by the
    /// work-stealing scheduler (0 for sequential backends).
    pub steals: u64,
    /// Number of frames a scheduler worker carved off its local stack for
    /// idle peers (0 for sequential backends).
    pub splits: u64,
    /// Bytes of kernel memory (live spans, support masks, bit-matrix rows)
    /// touched by AC-3 revisions — the cache-blocking audit metric the perf
    /// gate divides by the revision count.  Only propagation fills it in;
    /// tree-search counters leave it at zero.
    pub bytes_touched: u64,
    /// Number of per-variable soft-AC-3 revise passes (weighted bound
    /// consistency; 0 on unweighted or unpropagated searches).
    pub soft_revisions: u64,
    /// Number of domain values deleted by the soft-AC-3 incumbent bound
    /// (forward-check removals count under neither this nor `prunings`).
    pub bound_deletions: u64,
}

impl SearchStats {
    /// Merges another run's counters into this one (used when restarting).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.nodes_visited += other.nodes_visited;
        self.backtracks += other.backtracks;
        self.backjumps += other.backjumps;
        self.consistency_checks += other.consistency_checks;
        self.prunings += other.prunings;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.steals += other.steals;
        self.splits += other.splits;
        self.bytes_touched += other.bytes_touched;
        self.soft_revisions += other.soft_revisions;
        self.bound_deletions += other.bound_deletions;
    }
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes={} backtracks={} backjumps={} checks={} prunings={} max_depth={} steals={} splits={} bytes={} soft_revisions={} bound_deletions={}",
            self.nodes_visited,
            self.backtracks,
            self.backjumps,
            self.consistency_checks,
            self.prunings,
            self.max_depth,
            self.steals,
            self.splits,
            self.bytes_touched,
            self.soft_revisions,
            self.bound_deletions
        )
    }
}

/// The outcome of a solver run.
#[derive(Debug, Clone)]
pub struct SolveResult<V> {
    /// The solution, when one exists (and no limit was hit).
    pub solution: Option<Solution<V>>,
    /// Search counters.
    pub stats: SearchStats,
    /// Wall-clock time spent searching.
    pub elapsed: Duration,
    /// Whether the search was cut off by the node limit before completing.
    pub hit_node_limit: bool,
    /// Whether the search was cut off by the wall-clock deadline.
    pub hit_deadline: bool,
    /// Whether the search was aborted by a [`CancelToken`].
    pub cancelled: bool,
}

impl<V: Value> SolveResult<V> {
    /// Whether a solution was found.
    pub fn is_satisfiable(&self) -> bool {
        self.solution.is_some()
    }

    /// Whether the search ended early because a node or time budget ran
    /// out (a `None` solution then proves nothing about satisfiability).
    pub fn hit_any_limit(&self) -> bool {
        self.hit_node_limit || self.hit_deadline
    }

    /// Whether this run, having found no solution, *proves* the network
    /// unsatisfiable: a systematic search that ran to completion (no limit,
    /// no deadline, no cancellation) has exhausted the space.
    pub fn proves_unsatisfiable(&self) -> bool {
        self.solution.is_none() && !self.hit_node_limit && !self.hit_deadline && !self.cancelled
    }
}

/// The named schemes of the paper, plus extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Random variable/value order, chronological backtracking (paper
    /// Section 4, "base scheme").
    Base,
    /// Most-constraining variable ordering, least-constraining value
    /// ordering and backjumping (paper Section 4, "enhanced scheme").
    Enhanced,
    /// The enhanced scheme with forward checking added (extension).
    ForwardChecking,
    /// The enhanced scheme with AC-3 preprocessing and forward checking
    /// (extension).
    FullPropagation,
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scheme::Base => write!(f, "base"),
            Scheme::Enhanced => write!(f, "enhanced"),
            Scheme::ForwardChecking => write!(f, "forward-checking"),
            Scheme::FullPropagation => write!(f, "full-propagation"),
        }
    }
}

/// A configurable depth-first constraint-network solver.
///
/// # Examples
///
/// ```
/// use mlo_csp::{ConstraintNetwork, SearchEngine, Scheme};
/// let mut net = ConstraintNetwork::new();
/// let a = net.add_variable("A", vec![0, 1]);
/// let b = net.add_variable("B", vec![0, 1]);
/// net.add_constraint(a, b, vec![(0, 1), (1, 0)]).unwrap();
/// let result = SearchEngine::with_scheme(Scheme::Enhanced).solve(&net);
/// assert!(result.is_satisfiable());
/// ```
#[derive(Debug, Clone)]
pub struct SearchEngine {
    /// How the next variable to instantiate is chosen.
    pub variable_ordering: VariableOrdering,
    /// How the values of the chosen variable are ordered.
    pub value_ordering: ValueOrdering,
    /// Whether to backjump (conflict-directed) instead of chronological
    /// backtracking.
    pub backjumping: bool,
    /// Whether to prune neighbouring domains after each assignment.
    pub forward_checking: bool,
    /// Whether to establish arc consistency (AC-3) before searching.
    pub ac3_preprocessing: bool,
    /// Abort after visiting this many nodes (`None` = unlimited).
    pub node_limit: Option<u64>,
    /// Seed for the random orderings of the base scheme.
    pub seed: u64,
}

impl Default for SearchEngine {
    fn default() -> Self {
        SearchEngine::with_scheme(Scheme::Enhanced)
    }
}

impl SearchEngine {
    /// Creates an engine configured as one of the named schemes.
    pub fn with_scheme(scheme: Scheme) -> Self {
        match scheme {
            Scheme::Base => SearchEngine {
                variable_ordering: VariableOrdering::Random,
                value_ordering: ValueOrdering::Random,
                backjumping: false,
                forward_checking: false,
                ac3_preprocessing: false,
                node_limit: None,
                seed: 0xC0FFEE,
            },
            Scheme::Enhanced => SearchEngine {
                variable_ordering: VariableOrdering::MostConstraining,
                value_ordering: ValueOrdering::LeastConstraining,
                backjumping: true,
                forward_checking: false,
                ac3_preprocessing: false,
                node_limit: None,
                seed: 0xC0FFEE,
            },
            Scheme::ForwardChecking => SearchEngine {
                forward_checking: true,
                ..SearchEngine::with_scheme(Scheme::Enhanced)
            },
            Scheme::FullPropagation => SearchEngine {
                forward_checking: true,
                ac3_preprocessing: true,
                ..SearchEngine::with_scheme(Scheme::Enhanced)
            },
        }
    }

    /// Sets the random seed used by the random orderings (base scheme).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets a node limit after which the search gives up.
    pub fn node_limit(mut self, limit: u64) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Solves a network, returning the first solution found (if any) along
    /// with search statistics.
    ///
    /// The RNG for the random orderings is seeded from [`SearchEngine::seed`]
    /// and the node limit comes from the engine configuration; use
    /// [`SearchEngine::solve_with`] to thread a caller-owned RNG and
    /// request-scoped limits instead.
    pub fn solve<V: Value>(&self, network: &ConstraintNetwork<V>) -> SolveResult<V> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.solve_with(network, &mut rng, &self.configured_limits())
    }

    /// Solves a network with a caller-owned RNG (and the engine's own node
    /// limit).  Identical RNG states replay identical random orderings.
    pub fn solve_with_rng<V: Value>(
        &self,
        network: &ConstraintNetwork<V>,
        rng: &mut StdRng,
    ) -> SolveResult<V> {
        self.solve_with(network, rng, &self.configured_limits())
    }

    /// Solves a network with a caller-owned RNG and per-run limits — the
    /// full form of the seam behind [`NetworkSearch`].
    pub fn solve_with<V: Value>(
        &self,
        network: &ConstraintNetwork<V>,
        rng: &mut StdRng,
        limits: &SearchLimits,
    ) -> SolveResult<V> {
        engine::run(self, network, rng, limits, None)
    }

    /// Like [`SearchEngine::solve_with`], but additionally polls a
    /// [`CancelToken`]: once the token fires, this search aborts at the next
    /// poll point and the result comes back with [`SolveResult::cancelled`]
    /// set.
    pub fn solve_cancellable<V: Value>(
        &self,
        network: &ConstraintNetwork<V>,
        rng: &mut StdRng,
        limits: &SearchLimits,
        cancel: &CancelToken,
    ) -> SolveResult<V> {
        engine::run(self, network, rng, limits, Some(cancel))
    }

    fn configured_limits(&self) -> SearchLimits {
        SearchLimits {
            node_limit: self.node_limit,
            deadline: None,
        }
    }
}

impl<V: Value> NetworkSearch<V> for SearchEngine {
    fn search(
        &self,
        network: &ConstraintNetwork<V>,
        rng: &mut StdRng,
        limits: &SearchLimits,
    ) -> SolveResult<V> {
        // Request limits override the engine's own configuration.
        let merged = SearchLimits {
            node_limit: limits.node_limit.or(self.node_limit),
            deadline: limits.deadline,
        };
        self.solve_with(network, rng, &merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_configurations() {
        let base = SearchEngine::with_scheme(Scheme::Base);
        assert_eq!(base.variable_ordering, VariableOrdering::Random);
        assert!(!base.backjumping);
        let enhanced = SearchEngine::with_scheme(Scheme::Enhanced);
        assert_eq!(
            enhanced.variable_ordering,
            VariableOrdering::MostConstraining
        );
        assert_eq!(enhanced.value_ordering, ValueOrdering::LeastConstraining);
        assert!(enhanced.backjumping);
        assert!(!enhanced.forward_checking);
        let fc = SearchEngine::with_scheme(Scheme::ForwardChecking);
        assert!(fc.forward_checking && !fc.ac3_preprocessing);
        let full = SearchEngine::with_scheme(Scheme::FullPropagation);
        assert!(full.forward_checking && full.ac3_preprocessing);
        assert_eq!(
            SearchEngine::default().variable_ordering,
            enhanced.variable_ordering
        );
    }

    #[test]
    fn scheme_display() {
        assert_eq!(Scheme::Base.to_string(), "base");
        assert_eq!(Scheme::Enhanced.to_string(), "enhanced");
        assert_eq!(Scheme::ForwardChecking.to_string(), "forward-checking");
        assert_eq!(Scheme::FullPropagation.to_string(), "full-propagation");
    }

    #[test]
    fn stats_absorb_and_display() {
        let mut a = SearchStats {
            nodes_visited: 5,
            backtracks: 1,
            backjumps: 0,
            consistency_checks: 10,
            prunings: 2,
            max_depth: 3,
            steals: 1,
            splits: 2,
            bytes_touched: 100,
            soft_revisions: 9,
            bound_deletions: 4,
        };
        let b = SearchStats {
            nodes_visited: 7,
            backtracks: 2,
            backjumps: 4,
            consistency_checks: 5,
            prunings: 0,
            max_depth: 6,
            steals: 3,
            splits: 1,
            bytes_touched: 28,
            soft_revisions: 11,
            bound_deletions: 6,
        };
        a.absorb(&b);
        assert_eq!(a.nodes_visited, 12);
        assert_eq!(a.backjumps, 4);
        assert_eq!(a.max_depth, 6);
        assert_eq!(a.steals, 4);
        assert_eq!(a.splits, 3);
        assert_eq!(a.bytes_touched, 128);
        assert_eq!(a.soft_revisions, 20);
        assert_eq!(a.bound_deletions, 10);
        assert!(a.to_string().contains("nodes=12"));
        assert!(a.to_string().contains("bytes=128"));
        assert!(a.to_string().contains("soft_revisions=20"));
        assert!(a.to_string().contains("bound_deletions=10"));
    }

    /// `absorb` must sum (or max) *every* counter and `Display` must print
    /// every field — exhaustive destructuring makes adding a field without
    /// updating both a compile error here, so a new counter can never be
    /// silently dropped again.
    #[test]
    fn stats_absorb_covers_every_field() {
        let a = SearchStats {
            nodes_visited: 1,
            backtracks: 2,
            backjumps: 3,
            consistency_checks: 4,
            prunings: 5,
            max_depth: 6,
            steals: 7,
            splits: 8,
            bytes_touched: 9,
            soft_revisions: 10,
            bound_deletions: 11,
        };
        let b = SearchStats {
            nodes_visited: 100,
            backtracks: 200,
            backjumps: 300,
            consistency_checks: 400,
            prunings: 500,
            max_depth: 600,
            steals: 700,
            splits: 800,
            bytes_touched: 900,
            soft_revisions: 1000,
            bound_deletions: 1100,
        };
        let mut merged = a;
        merged.absorb(&b);
        // Exhaustive: a missing field here fails to compile.
        let SearchStats {
            nodes_visited,
            backtracks,
            backjumps,
            consistency_checks,
            prunings,
            max_depth,
            steals,
            splits,
            bytes_touched,
            soft_revisions,
            bound_deletions,
        } = merged;
        assert_eq!(nodes_visited, a.nodes_visited + b.nodes_visited);
        assert_eq!(backtracks, a.backtracks + b.backtracks);
        assert_eq!(backjumps, a.backjumps + b.backjumps);
        assert_eq!(
            consistency_checks,
            a.consistency_checks + b.consistency_checks
        );
        assert_eq!(prunings, a.prunings + b.prunings);
        assert_eq!(max_depth, a.max_depth.max(b.max_depth));
        assert_eq!(steals, a.steals + b.steals);
        assert_eq!(splits, a.splits + b.splits);
        assert_eq!(bytes_touched, a.bytes_touched + b.bytes_touched);
        assert_eq!(soft_revisions, a.soft_revisions + b.soft_revisions);
        assert_eq!(bound_deletions, a.bound_deletions + b.bound_deletions);
        // Display names every counter.
        let rendered = merged.to_string();
        for field in [
            "nodes=",
            "backtracks=",
            "backjumps=",
            "checks=",
            "prunings=",
            "max_depth=",
            "steals=",
            "splits=",
            "bytes=",
            "soft_revisions=",
            "bound_deletions=",
        ] {
            assert!(rendered.contains(field), "Display is missing `{field}`");
        }
    }

    #[test]
    fn builder_style_setters() {
        let e = SearchEngine::with_scheme(Scheme::Base)
            .seed(42)
            .node_limit(100);
        assert_eq!(e.seed, 42);
        assert_eq!(e.node_limit, Some(100));
    }
}
