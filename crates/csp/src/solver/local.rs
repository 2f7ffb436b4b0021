//! Min-conflicts local search.
//!
//! The paper's schemes are systematic: they either find a solution or prove
//! that none exists.  For very large layout networks (hundreds of arrays) a
//! *local* search is a useful complement: start from a complete random
//! assignment and repeatedly reassign a conflicted variable to the value
//! that minimizes its number of violated constraints, restarting from a new
//! random assignment when progress stalls.  Min-conflicts cannot prove
//! unsatisfiability, but on satisfiable layout networks it often lands on a
//! solution after visiting far fewer states than systematic search.

use crate::assignment::{Assignment, Solution};
use crate::bitset::BitKernel;
use crate::network::{ConstraintNetwork, VarId};
use crate::simd;
use crate::solver::CancelToken;
use crate::solver::{NetworkSearch, SearchLimits, SearchStats, SolveResult};
use crate::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// How often (in repair steps) the wall-clock deadline is polled.
const DEADLINE_POLL_MASK: u64 = 0x3F;

/// Configuration of the min-conflicts search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinConflicts {
    /// Maximum repair steps per restart.
    pub max_steps: u64,
    /// Maximum number of restarts (each from a fresh random assignment).
    pub max_restarts: u64,
    /// Probability (in percent, 0–100) of taking a random walk step instead
    /// of the greedy min-conflicts move; breaks plateaus.
    pub noise_percent: u8,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MinConflicts {
    fn default() -> Self {
        MinConflicts {
            max_steps: 10_000,
            max_restarts: 20,
            noise_percent: 8,
            seed: 0x5EED,
        }
    }
}

impl MinConflicts {
    /// Creates a configuration with the given seed and default limits.
    pub fn with_seed(seed: u64) -> Self {
        MinConflicts {
            seed,
            ..MinConflicts::default()
        }
    }

    /// Sets the per-restart step limit.
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.max_steps = steps;
        self
    }

    /// Sets the restart limit.
    pub fn max_restarts(mut self, restarts: u64) -> Self {
        self.max_restarts = restarts;
        self
    }

    /// Sets the noise probability in percent (clamped to 100).
    pub fn noise_percent(mut self, percent: u8) -> Self {
        self.noise_percent = percent.min(100);
        self
    }

    /// Runs min-conflicts on a network.
    ///
    /// Returns a [`SolveResult`]; `solution` is `None` either when the
    /// network is unsatisfiable or when the step/restart budget ran out —
    /// local search cannot tell the two apart, which the caller must keep in
    /// mind (`hit_node_limit` is set when the budget was exhausted).
    pub fn solve<V: Value>(&self, network: &ConstraintNetwork<V>) -> SolveResult<V> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.solve_with(network, &mut rng, &SearchLimits::none())
    }

    /// Runs min-conflicts with a caller-owned RNG (identical RNG states
    /// replay identical repair walks) and per-run limits.  A node limit is
    /// a **total** cap on repair steps across all restarts — the same
    /// contract as the systematic engine's node budget; a deadline aborts
    /// the walk wherever it is.
    pub fn solve_with<V: Value>(
        &self,
        network: &ConstraintNetwork<V>,
        rng: &mut StdRng,
        limits: &SearchLimits,
    ) -> SolveResult<V> {
        self.solve_inner(network, rng, limits, None)
    }

    /// Like [`MinConflicts::solve_with`], but additionally polls a
    /// [`CancelToken`] so the caller can abort the walk; an aborted run
    /// reports [`SolveResult::cancelled`].
    pub fn solve_cancellable<V: Value>(
        &self,
        network: &ConstraintNetwork<V>,
        rng: &mut StdRng,
        limits: &SearchLimits,
        cancel: &CancelToken,
    ) -> SolveResult<V> {
        self.solve_inner(network, rng, limits, Some(cancel))
    }

    fn solve_inner<V: Value>(
        &self,
        network: &ConstraintNetwork<V>,
        rng: &mut StdRng,
        limits: &SearchLimits,
        cancel: Option<&CancelToken>,
    ) -> SolveResult<V> {
        let start = Instant::now();
        let mut stats = SearchStats::default();
        let n = network.variable_count();
        // With a node budget, a restart also happens whenever the per-restart
        // step cap is hit, but the budget bounds the total work.
        let max_steps = limits
            .node_limit
            .map_or(self.max_steps, |limit| limit.min(self.max_steps));
        let mut hit_deadline = false;
        let mut was_cancelled = false;

        // The compiled kernel (bit probes for conflict counting) and the
        // live values of every variable — a restricted view's repair walk
        // never leaves the mask.
        let kernel = Arc::clone(network.kernel());
        let live: Vec<Vec<usize>> = network
            .variables()
            .map(|v| network.live_values(v))
            .collect();

        // Degenerate cases: empty networks are trivially solved; an empty
        // (live) domain can never be assigned.
        if live.iter().any(Vec::is_empty) {
            return SolveResult {
                solution: None,
                stats,
                elapsed: start.elapsed(),
                hit_node_limit: false,
                hit_deadline: false,
                cancelled: false,
            };
        }

        'restarts: for _restart in 0..self.max_restarts.max(1) {
            let mut assignment = random_complete_assignment(&live, rng);
            stats.max_depth = n;
            for _step in 0..max_steps {
                if let Some(limit) = limits.node_limit {
                    if stats.nodes_visited >= limit {
                        break 'restarts;
                    }
                }
                if stats.nodes_visited & DEADLINE_POLL_MASK == 0 {
                    if let Some(deadline) = limits.deadline {
                        if Instant::now() >= deadline {
                            hit_deadline = true;
                            break 'restarts;
                        }
                    }
                    if let Some(cancel) = cancel {
                        if cancel.is_cancelled() {
                            was_cancelled = true;
                            break 'restarts;
                        }
                    }
                }
                let conflicted = conflicted_variables(&kernel, &assignment, &mut stats);
                if conflicted.is_empty() {
                    let solution = Solution::from_assignment(network, &assignment);
                    return SolveResult {
                        solution: Some(solution),
                        stats,
                        elapsed: start.elapsed(),
                        hit_node_limit: false,
                        hit_deadline: false,
                        cancelled: false,
                    };
                }
                let var = conflicted[rng.gen_range(0..conflicted.len())];
                let choices = &live[var.index()];
                let value = if rng.gen_range(0..100u8) < self.noise_percent {
                    choices[rng.gen_range(0..choices.len())]
                } else {
                    min_conflict_value(&kernel, &assignment, var, choices, rng, &mut stats)
                };
                assignment.assign(var, value);
                stats.nodes_visited += 1;
            }
            stats.backtracks += 1; // one restart counted as a dead end
        }

        SolveResult {
            solution: None,
            stats,
            elapsed: start.elapsed(),
            hit_node_limit: !hit_deadline && !was_cancelled,
            hit_deadline,
            cancelled: was_cancelled,
        }
    }
}

impl<V: Value> NetworkSearch<V> for MinConflicts {
    fn search(
        &self,
        network: &ConstraintNetwork<V>,
        rng: &mut StdRng,
        limits: &SearchLimits,
    ) -> SolveResult<V> {
        self.solve_with(network, rng, limits)
    }
}

/// A uniformly random complete assignment over the live values.
fn random_complete_assignment(live: &[Vec<usize>], rng: &mut StdRng) -> Assignment {
    let mut assignment = Assignment::new(live.len());
    for (v, choices) in live.iter().enumerate() {
        assignment.assign(VarId::new(v), choices[rng.gen_range(0..choices.len())]);
    }
    assignment
}

/// Variables participating in at least one violated constraint.
fn conflicted_variables(
    kernel: &BitKernel,
    assignment: &Assignment,
    stats: &mut SearchStats,
) -> Vec<VarId> {
    let mut conflicted = Vec::new();
    for v in (0..kernel.variable_count()).map(VarId::new) {
        if variable_conflicts(
            kernel,
            assignment,
            v,
            assignment.get(v).expect("complete"),
            stats,
        ) > 0
        {
            conflicted.push(v);
        }
    }
    conflicted
}

/// Number of constraints violated by `var = value` against the rest of a
/// complete assignment — one bit probe per adjacent constraint.
fn variable_conflicts(
    kernel: &BitKernel,
    assignment: &Assignment,
    var: VarId,
    value: usize,
    stats: &mut SearchStats,
) -> usize {
    let mut count = 0usize;
    for edge in kernel.edges(var) {
        let other_value = assignment.get(edge.other).expect("complete assignment");
        stats.consistency_checks += 1;
        let constraint = kernel.constraint(edge.constraint);
        let allowed = if edge.var_is_first {
            constraint.allows(value, other_value)
        } else {
            constraint.allows(other_value, value)
        };
        if !allowed {
            count += 1;
        }
    }
    count
}

/// The live value of `var` with the fewest conflicts (ties broken uniformly
/// at random; the RNG sees exactly one draw either way).
///
/// Fast path: the allowed-value rows of every adjacent constraint — each a
/// contiguous lane-aligned block row — are ANDed into one conflict-free
/// mask.  A surviving bit is a zero-conflict choice, and zero is always the
/// minimum, so the per-value probe loop only runs on the steps where every
/// choice violates something.  The check accounting (one check per choice
/// per adjacent constraint) and the tie-break candidate order are identical
/// to the probing loop's, so repair walks replay bit-for-bit.
fn min_conflict_value(
    kernel: &BitKernel,
    assignment: &Assignment,
    var: VarId,
    choices: &[usize],
    rng: &mut StdRng,
    stats: &mut SearchStats,
) -> usize {
    let edges = kernel.edges(var);
    stats.consistency_checks += (choices.len() * edges.len()) as u64;
    let mut allowed: Option<Vec<u64>> = None;
    for edge in edges {
        let other_value = assignment.get(edge.other).expect("complete assignment");
        // The row oriented from the *neighbour's* endpoint: its set bits
        // are the values of `var` compatible with the neighbour's value.
        let row = kernel
            .constraint(edge.constraint)
            .row(!edge.var_is_first, other_value);
        match &mut allowed {
            None => allowed = Some(row.to_vec()),
            Some(mask) => {
                simd::and_assign_count(mask, row);
            }
        }
    }
    let Some(mask) = allowed else {
        // No adjacent constraint: every choice is conflict-free.
        return choices[rng.gen_range(0..choices.len())];
    };
    let zero_conflict: Vec<usize> = choices
        .iter()
        .copied()
        .filter(|&v| mask[v / 64] >> (v % 64) & 1 == 1)
        .collect();
    if !zero_conflict.is_empty() {
        return zero_conflict[rng.gen_range(0..zero_conflict.len())];
    }
    // Every choice violates something: probe per value (the checks were
    // already accounted above, so probe without re-counting).
    let mut best_values = Vec::new();
    let mut best_conflicts = usize::MAX;
    for &value in choices {
        let mut conflicts = 0usize;
        for edge in edges {
            let other_value = assignment.get(edge.other).expect("complete assignment");
            let constraint = kernel.constraint(edge.constraint);
            let allowed = if edge.var_is_first {
                constraint.allows(value, other_value)
            } else {
                constraint.allows(other_value, value)
            };
            if !allowed {
                conflicts += 1;
            }
        }
        match conflicts.cmp(&best_conflicts) {
            std::cmp::Ordering::Less => {
                best_conflicts = conflicts;
                best_values.clear();
                best_values.push(value);
            }
            std::cmp::Ordering::Equal => best_values.push(value),
            std::cmp::Ordering::Greater => {}
        }
    }
    best_values[rng.gen_range(0..best_values.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Scheme, SearchEngine};

    fn paper_network() -> ConstraintNetwork<(i64, i64)> {
        let mut net = ConstraintNetwork::new();
        let q1 = net.add_variable("Q1", vec![(1, 0), (0, 1), (1, 1)]);
        let q2 = net.add_variable("Q2", vec![(1, -1), (1, 1)]);
        let q3 = net.add_variable("Q3", vec![(0, 1), (1, 1), (1, 2)]);
        let q4 = net.add_variable("Q4", vec![(1, 0), (0, 1), (1, 1)]);
        net.add_constraint(q1, q2, vec![((1, 0), (1, 1)), ((0, 1), (1, -1))])
            .unwrap();
        net.add_constraint(
            q1,
            q3,
            vec![((1, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 2))],
        )
        .unwrap();
        net.add_constraint(q1, q4, vec![((1, 0), (1, 0)), ((0, 1), (0, 1))])
            .unwrap();
        net.add_constraint(q2, q3, vec![((1, 1), (0, 1)), ((1, -1), (1, 1))])
            .unwrap();
        net.add_constraint(q2, q4, vec![((1, -1), (0, 1)), ((1, 1), (1, 0))])
            .unwrap();
        net.add_constraint(q3, q4, vec![((0, 1), (1, 0))]).unwrap();
        net
    }

    #[test]
    fn solves_the_paper_network() {
        let net = paper_network();
        let result = MinConflicts::with_seed(11).solve(&net);
        let solution = result.solution.expect("the paper's network is satisfiable");
        // Any returned solution must genuinely satisfy the network.
        let mut asg = Assignment::new(net.variable_count());
        for v in net.variables() {
            asg.assign(v, solution.value_index(v));
        }
        assert_eq!(net.is_solution(&asg), Ok(true));
        assert!(!result.hit_node_limit);
        assert!(result.stats.consistency_checks > 0);
    }

    #[test]
    fn agrees_with_systematic_search_on_satisfiable_instances() {
        for seed in 0..6u64 {
            let net = crate::random::RandomNetworkSpec {
                variables: 10,
                domain_size: 4,
                density: 0.4,
                tightness: 0.3,
                seed,
            }
            .generate();
            let systematic = SearchEngine::with_scheme(Scheme::Enhanced).solve(&net);
            if systematic.is_satisfiable() {
                let local = MinConflicts::with_seed(seed).solve(&net);
                assert!(
                    local.is_satisfiable(),
                    "min-conflicts missed a solution on seed {seed}"
                );
            }
        }
    }

    #[test]
    fn gives_up_within_budget_on_unsatisfiable_networks() {
        // Two variables, one constraint that allows nothing.
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![0, 1]);
        let b = net.add_variable("b", vec![0, 1]);
        net.add_constraint(a, b, vec![]).unwrap();
        let config = MinConflicts::with_seed(3).max_steps(50).max_restarts(3);
        let result = config.solve(&net);
        assert!(result.solution.is_none());
        assert!(result.hit_node_limit);
        // Every restart after the first is counted as a dead end.
        assert_eq!(result.stats.backtracks, 3);
    }

    #[test]
    fn empty_domains_are_rejected_immediately() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        net.add_variable("a", vec![]);
        let result = MinConflicts::default().solve(&net);
        assert!(result.solution.is_none());
        assert!(!result.hit_node_limit);
        assert_eq!(result.stats.nodes_visited, 0);
    }

    #[test]
    fn empty_network_is_trivially_satisfiable() {
        let net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let result = MinConflicts::default().solve(&net);
        let solution = result.solution.expect("empty networks are satisfiable");
        assert!(solution.is_empty());
    }

    #[test]
    fn builder_setters_clamp_and_store() {
        let c = MinConflicts::default()
            .max_steps(5)
            .max_restarts(2)
            .noise_percent(200);
        assert_eq!(c.max_steps, 5);
        assert_eq!(c.max_restarts, 2);
        assert_eq!(c.noise_percent, 100);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let net = paper_network();
        let a = MinConflicts::with_seed(77).solve(&net);
        let b = MinConflicts::with_seed(77).solve(&net);
        assert_eq!(
            a.solution.as_ref().map(|s| s.values().to_vec()),
            b.solution.as_ref().map(|s| s.values().to_vec())
        );
        assert_eq!(a.stats.nodes_visited, b.stats.nodes_visited);
    }
}
