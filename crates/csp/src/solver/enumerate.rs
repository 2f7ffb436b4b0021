//! Enumerating and ranking all solutions of a network.
//!
//! The paper observes (Section 5) that the base and enhanced schemes may
//! return *different* solutions when several exist, and its first future
//! direction is to distinguish between solutions by weighting constraints.
//! This module provides the groundwork: exhaustive enumeration of all
//! solutions (with a cap), solution counting, and selection of the best
//! solution under a caller-supplied score — which is how the layout crate
//! picks the assignment with the best static locality when the network is
//! under-constrained.

use crate::assignment::{Assignment, Solution};
use crate::network::{ConstraintNetwork, VarId};
use crate::solver::SearchStats;
use crate::Value;
use std::time::{Duration, Instant};

/// Result of an enumeration run.
#[derive(Debug, Clone)]
pub struct EnumerationResult<V> {
    /// All solutions found, in depth-first discovery order (capped at the
    /// configured limit).
    pub solutions: Vec<Solution<V>>,
    /// Whether enumeration stopped because the solution cap was reached
    /// (when `true`, more solutions may exist).
    pub truncated: bool,
    /// Search counters accumulated over the whole enumeration.
    pub stats: SearchStats,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl<V: Value> EnumerationResult<V> {
    /// Number of solutions found.
    pub fn count(&self) -> usize {
        self.solutions.len()
    }

    /// Whether at least one solution was found.
    pub fn is_satisfiable(&self) -> bool {
        !self.solutions.is_empty()
    }
}

/// Exhaustive depth-first solution enumerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Enumerator {
    /// Stop after this many solutions (protects against combinatorial
    /// explosion on loosely constrained networks).
    pub solution_limit: usize,
    /// Stop after visiting this many nodes.
    pub node_limit: u64,
}

impl Default for Enumerator {
    fn default() -> Self {
        Enumerator {
            solution_limit: 10_000,
            node_limit: 5_000_000,
        }
    }
}

impl Enumerator {
    /// Creates an enumerator with the given solution cap.
    pub fn with_limit(solution_limit: usize) -> Self {
        Enumerator {
            solution_limit,
            ..Enumerator::default()
        }
    }

    /// Enumerates the solutions of a network.
    pub fn enumerate<V: Value>(&self, network: &ConstraintNetwork<V>) -> EnumerationResult<V> {
        let start = Instant::now();
        let mut stats = SearchStats::default();
        let mut solutions = Vec::new();
        let mut truncated = false;

        if network.variables().any(|v| network.domain(v).is_empty()) {
            return EnumerationResult {
                solutions,
                truncated,
                stats,
                elapsed: start.elapsed(),
            };
        }

        // Static variable order: most-constrained first keeps the tree small.
        let mut order: Vec<VarId> = network.variables().collect();
        order.sort_by_key(|&v| {
            (
                std::cmp::Reverse(network.neighbours(v).len()),
                network.domain(v).len(),
                v,
            )
        });

        // The compiled kernel answers every consistency probe.
        let kernel = std::sync::Arc::clone(network.kernel());
        let live: Vec<Vec<usize>> = network
            .variables()
            .map(|v| (0..network.domain(v).len()).collect())
            .collect();

        // Assigned-prefix adjacency: under the static order the assigned
        // set at depth `d` is exactly `order[..d]`, so each node's conflict
        // probes reduce to a precomputed filtered edge list.  Filtering
        // preserves adjacency order, hence the probe order, early-exit
        // points and check counts of `conflicts_any` — while keeping each
        // constraint's contiguous row block hot across the value loop.
        let mut position = vec![0usize; network.variable_count()];
        for (d, &v) in order.iter().enumerate() {
            position[v.index()] = d;
        }
        let earlier: Vec<Vec<crate::bitset::KernelEdge>> = order
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

        let mut assignment = Assignment::new(network.variable_count());
        self.descend(
            network,
            &kernel,
            &live,
            &order,
            &earlier,
            0,
            &mut assignment,
            &mut solutions,
            &mut truncated,
            &mut stats,
        );

        EnumerationResult {
            solutions,
            truncated,
            stats,
            elapsed: start.elapsed(),
        }
    }

    /// Counts solutions without materializing them (same caps apply, so the
    /// count is a lower bound when the result reports truncation).
    pub fn count<V: Value>(&self, network: &ConstraintNetwork<V>) -> usize {
        self.enumerate(network).count()
    }

    /// Returns the solution maximizing `score`, or `None` when the network
    /// is unsatisfiable.  Ties keep the first-discovered solution, so the
    /// result is deterministic.
    pub fn best_by<V: Value, F>(
        &self,
        network: &ConstraintNetwork<V>,
        mut score: F,
    ) -> Option<Solution<V>>
    where
        F: FnMut(&Solution<V>) -> f64,
    {
        let result = self.enumerate(network);
        let mut best: Option<(f64, Solution<V>)> = None;
        for solution in result.solutions {
            let s = score(&solution);
            match &best {
                Some((b, _)) if s <= *b => {}
                _ => best = Some((s, solution)),
            }
        }
        best.map(|(_, s)| s)
    }

    #[allow(clippy::too_many_arguments)]
    fn descend<V: Value>(
        &self,
        network: &ConstraintNetwork<V>,
        kernel: &crate::bitset::BitKernel,
        live: &[Vec<usize>],
        order: &[VarId],
        earlier: &[Vec<crate::bitset::KernelEdge>],
        depth: usize,
        assignment: &mut Assignment,
        solutions: &mut Vec<Solution<V>>,
        truncated: &mut bool,
        stats: &mut SearchStats,
    ) {
        if *truncated {
            return;
        }
        if depth == order.len() {
            solutions.push(Solution::from_assignment(network, assignment));
            if solutions.len() >= self.solution_limit {
                *truncated = true;
            }
            return;
        }
        let var = order[depth];
        stats.max_depth = stats.max_depth.max(depth + 1);
        for &value in &live[var.index()] {
            if stats.nodes_visited >= self.node_limit {
                *truncated = true;
                return;
            }
            stats.nodes_visited += 1;
            // Inline `conflicts_any` over the assigned-prefix edge list:
            // one check per probed edge, early exit on the first conflict.
            let mut conflict = false;
            for edge in &earlier[depth] {
                if let Some(other_value) = assignment.get(edge.other) {
                    stats.consistency_checks += 1;
                    let c = kernel.constraint(edge.constraint);
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
            assignment.assign(var, value);
            self.descend(
                network,
                kernel,
                live,
                order,
                earlier,
                depth + 1,
                assignment,
                solutions,
                truncated,
                stats,
            );
            assignment.unassign(var);
            if *truncated {
                return;
            }
        }
        stats.backtracks += 1;
    }
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
    fn paper_network_has_exactly_one_solution() {
        let net = paper_network();
        let result = Enumerator::default().enumerate(&net);
        assert_eq!(result.count(), 1);
        assert!(!result.truncated);
        assert!(result.is_satisfiable());
        let sol = &result.solutions[0];
        assert_eq!(sol.values(), &[(1, 0), (1, 1), (0, 1), (1, 0)]);
    }

    #[test]
    fn unconstrained_network_enumerates_the_product_of_domains() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        net.add_variable("a", vec![0, 1, 2]);
        net.add_variable("b", vec![0, 1]);
        let result = Enumerator::default().enumerate(&net);
        assert_eq!(result.count(), 6);
        assert_eq!(Enumerator::default().count(&net), 6);
    }

    #[test]
    fn solution_limit_truncates() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        net.add_variable("a", vec![0, 1, 2, 3]);
        net.add_variable("b", vec![0, 1, 2, 3]);
        let result = Enumerator::with_limit(5).enumerate(&net);
        assert_eq!(result.count(), 5);
        assert!(result.truncated);
    }

    #[test]
    fn node_limit_truncates() {
        let spec = crate::random::RandomNetworkSpec {
            variables: 12,
            domain_size: 4,
            density: 0.2,
            tightness: 0.1,
            seed: 5,
        };
        let net = spec.generate();
        let result = Enumerator {
            solution_limit: usize::MAX,
            node_limit: 50,
        }
        .enumerate(&net);
        assert!(result.truncated);
        assert!(result.stats.nodes_visited <= 51);
    }

    #[test]
    fn unsatisfiable_networks_enumerate_nothing() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![0, 1]);
        let b = net.add_variable("b", vec![0, 1]);
        net.add_constraint(a, b, vec![]).unwrap();
        let result = Enumerator::default().enumerate(&net);
        assert_eq!(result.count(), 0);
        assert!(!result.is_satisfiable());
        assert!(!result.truncated);
    }

    #[test]
    fn empty_domains_yield_no_solutions() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        net.add_variable("a", vec![]);
        let result = Enumerator::default().enumerate(&net);
        assert_eq!(result.count(), 0);
    }

    #[test]
    fn best_by_picks_the_highest_scoring_solution() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![1, 5, 3]);
        let b = net.add_variable("b", vec![2, 4]);
        // All combinations allowed.
        let best = Enumerator::default()
            .best_by(&net, |s| (*s.value(a) + *s.value(b)) as f64)
            .expect("satisfiable");
        assert_eq!(*best.value(a), 5);
        assert_eq!(*best.value(b), 4);
        // Unsatisfiable case returns None.
        let mut bad: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let x = bad.add_variable("x", vec![0]);
        let y = bad.add_variable("y", vec![0]);
        bad.add_constraint(x, y, vec![]).unwrap();
        assert!(Enumerator::default().best_by(&bad, |_| 0.0).is_none());
    }

    #[test]
    fn every_enumerated_solution_satisfies_the_network() {
        for seed in 0..5u64 {
            let spec = crate::random::RandomNetworkSpec {
                variables: 8,
                domain_size: 3,
                density: 0.5,
                tightness: 0.4,
                seed,
            };
            let net = spec.generate();
            let result = Enumerator::default().enumerate(&net);
            for sol in &result.solutions {
                let mut asg = Assignment::new(net.variable_count());
                for v in net.variables() {
                    asg.assign(v, sol.value_index(v));
                }
                assert_eq!(net.is_solution(&asg), Ok(true));
            }
            // Enumeration agrees with the single-solution engine on
            // satisfiability.
            let engine = SearchEngine::with_scheme(Scheme::Enhanced).solve(&net);
            assert_eq!(
                engine.is_satisfiable(),
                result.is_satisfiable(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn enumeration_count_matches_brute_force_on_small_networks() {
        for seed in 0..4u64 {
            let spec = crate::random::RandomNetworkSpec {
                variables: 5,
                domain_size: 3,
                density: 0.6,
                tightness: 0.4,
                seed,
            };
            let net = spec.generate();
            // Brute force over the full cross product.
            let mut brute = 0usize;
            let n = net.variable_count();
            let sizes: Vec<usize> = net.variables().map(|v| net.domain(v).len()).collect();
            let total: usize = sizes.iter().product();
            for code in 0..total {
                let mut rest = code;
                let mut asg = Assignment::new(n);
                for (i, &s) in sizes.iter().enumerate() {
                    asg.assign(VarId::new(i), rest % s);
                    rest /= s;
                }
                if net.is_solution(&asg) == Ok(true) {
                    brute += 1;
                }
            }
            assert_eq!(Enumerator::default().count(&net), brute, "seed {seed}");
        }
    }
}
