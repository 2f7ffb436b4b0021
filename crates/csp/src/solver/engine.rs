//! The depth-first search engine behind every scheme.
//!
//! One recursive routine implements chronological backtracking,
//! conflict-directed backjumping and forward checking; the [`SearchEngine`]
//! configuration decides which parts are active.  Conflict sets follow the
//! classic formulation: a dead end reports the set of assigned variables
//! that contributed to it, and with backjumping enabled an ancestor that is
//! not in that set is skipped without re-instantiating it (paper, Figure 3).
//!
//! The inner loops run entirely on the network's compiled
//! [`BitKernel`](crate::bitset::BitKernel): consistency tests are bit
//! probes, live domains are word-packed masks, and forward checking is one
//! word-AND per neighbour — the [`BinaryConstraint`](crate::BinaryConstraint)
//! hash tables are never touched after the kernel is built.

use super::ac3::ac3_kernel;
use super::incumbent::CancelToken;
use super::ordering::{order_values, select_variable};
use super::{Ac3Outcome, SearchEngine, SearchLimits, SearchStats, SolveResult};
use crate::assignment::{Assignment, Solution};
use crate::bitset::{BitDomains, BitKernel};
use crate::network::{ConstraintNetwork, VarId};
use crate::Value;
use rand::rngs::StdRng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// How often (in visited nodes) the wall-clock deadline is polled; keeps
/// `Instant::now` off the per-node hot path.
const DEADLINE_POLL_MASK: u64 = 0x7F;

/// Runs the configured search on a network with a caller-owned RNG and
/// per-run limits.
pub(super) fn run<V: Value>(
    config: &SearchEngine,
    network: &ConstraintNetwork<V>,
    rng: &mut StdRng,
    limits: &SearchLimits,
    cancel: Option<&CancelToken>,
) -> SolveResult<V> {
    crate::fail_point!("search.run");
    let start = Instant::now();
    let mut stats = SearchStats::default();
    let mut hit_limit = false;
    let mut hit_deadline = false;
    let mut was_cancelled = false;

    // The compiled execution kernel (cached in the shared storage) and the
    // word-packed live domains, with the restriction mask of a view
    // already intersected in.
    let kernel = Arc::clone(network.kernel());
    let mut live = kernel.masked_domains(network.mask().map(|m| &**m));

    // A variable with an empty (live) domain makes the network trivially
    // unsatisfiable.
    if network.variables().any(|v| live.is_empty(v)) {
        return SolveResult {
            solution: None,
            stats,
            elapsed: start.elapsed(),
            hit_node_limit: false,
            hit_deadline: false,
            cancelled: false,
        };
    }

    if config.ac3_preprocessing {
        if let Ac3Outcome::Wipeout(_) = ac3_kernel(&kernel, &mut live, &mut stats) {
            return SolveResult {
                solution: None,
                stats,
                elapsed: start.elapsed(),
                hit_node_limit: false,
                hit_deadline: false,
                cancelled: false,
            };
        }
    }

    let mut assignment = Assignment::new(network.variable_count());
    let mut ctx = Context {
        config,
        kernel: &kernel,
        limits,
        cancel,
        stats: &mut stats,
        rng,
        hit_limit: &mut hit_limit,
        hit_deadline: &mut hit_deadline,
        cancelled: &mut was_cancelled,
    };
    let outcome = search(&mut ctx, &mut assignment, &mut live);
    let solution = match outcome {
        Outcome::Found => Some(Solution::from_assignment(network, &assignment)),
        Outcome::DeadEnd(_) => None,
    };
    SolveResult {
        solution,
        stats,
        elapsed: start.elapsed(),
        hit_node_limit: hit_limit,
        hit_deadline,
        cancelled: was_cancelled,
    }
}

/// Result of exploring a subtree.
enum Outcome {
    /// A complete consistent assignment was reached (it is left in place).
    Found,
    /// The subtree is exhausted; the set is the conflict set — the assigned
    /// variables implicated in every failure below.
    DeadEnd(HashSet<VarId>),
}

struct Context<'a> {
    config: &'a SearchEngine,
    kernel: &'a BitKernel,
    limits: &'a SearchLimits,
    cancel: Option<&'a CancelToken>,
    stats: &'a mut SearchStats,
    rng: &'a mut StdRng,
    hit_limit: &'a mut bool,
    hit_deadline: &'a mut bool,
    cancelled: &'a mut bool,
}

impl Context<'_> {
    fn limit_reached(&mut self) -> bool {
        if let Some(limit) = self.limits.node_limit {
            if self.stats.nodes_visited >= limit {
                *self.hit_limit = true;
                return true;
            }
        }
        if self.stats.nodes_visited & DEADLINE_POLL_MASK == 0 {
            if let Some(deadline) = self.limits.deadline {
                if Instant::now() >= deadline {
                    *self.hit_deadline = true;
                    return true;
                }
            }
            if let Some(cancel) = self.cancel {
                if cancel.is_cancelled() {
                    *self.cancelled = true;
                    return true;
                }
            }
        }
        false
    }
}

fn search(ctx: &mut Context<'_>, assignment: &mut Assignment, live: &mut BitDomains) -> Outcome {
    if assignment.is_complete() {
        return Outcome::Found;
    }
    let var = match select_variable(
        ctx.config.variable_ordering,
        ctx.kernel,
        assignment,
        live,
        ctx.rng,
    ) {
        Some(v) => v,
        None => return Outcome::Found,
    };
    let candidates = live.live_values(var);
    let values = order_values(
        ctx.config.value_ordering,
        ctx.kernel,
        assignment,
        live,
        var,
        &candidates,
        ctx.rng,
    );

    let mut conflict_union: HashSet<VarId> = HashSet::new();
    let mut conflicts: Vec<VarId> = Vec::new();
    for value in values {
        if *ctx.hit_limit || *ctx.hit_deadline || *ctx.cancelled || ctx.limit_reached() {
            break;
        }
        ctx.stats.nodes_visited += 1;
        ctx.stats.max_depth = ctx.stats.max_depth.max(assignment.assigned_count() + 1);

        // Consistent-partial-instantiation test against the variables
        // already assigned (paper, Section 4) — one bit probe per assigned
        // neighbour.
        conflicts.clear();
        ctx.kernel.collect_conflicts(
            assignment,
            var,
            value,
            &mut ctx.stats.consistency_checks,
            &mut conflicts,
        );
        if !conflicts.is_empty() {
            conflict_union.extend(conflicts.iter().copied());
            continue;
        }

        assignment.assign(var, value);

        // Forward checking: restrict unassigned neighbours to values
        // compatible with this assignment — one fused lane-wide pass per
        // neighbour (`would_remove` test + snapshot + `live &= support_row`),
        // so a neighbour the row cannot prune is touched exactly once.
        let mut saved: Vec<(VarId, Vec<u64>)> = Vec::new();
        let mut wiped_out: Option<VarId> = None;
        if ctx.config.forward_checking {
            for edge in ctx.kernel.edges(var) {
                let neighbour = edge.other;
                if assignment.is_assigned(neighbour) {
                    continue;
                }
                let row = ctx
                    .kernel
                    .constraint(edge.constraint)
                    .row(edge.var_is_first, value);
                ctx.stats.consistency_checks += live.count(neighbour) as u64;
                if let Some((snapshot, removed)) = live.intersect_with_save(neighbour, row) {
                    saved.push((neighbour, snapshot));
                    ctx.stats.prunings += removed as u64;
                    if live.is_empty(neighbour) {
                        wiped_out = Some(neighbour);
                        break;
                    }
                }
            }
        }

        if let Some(victim) = wiped_out {
            // The wipeout implicates this variable and every assigned
            // variable constraining the victim.
            for edge in ctx.kernel.edges(victim) {
                if edge.other != var && assignment.is_assigned(edge.other) {
                    conflict_union.insert(edge.other);
                }
            }
            restore(live, saved);
            assignment.unassign(var);
            continue;
        }

        match search(ctx, assignment, live) {
            Outcome::Found => return Outcome::Found,
            Outcome::DeadEnd(child_conflicts) => {
                restore(live, saved);
                assignment.unassign(var);
                if *ctx.hit_limit || *ctx.hit_deadline || *ctx.cancelled {
                    return Outcome::DeadEnd(conflict_union);
                }
                if ctx.config.backjumping && !child_conflicts.contains(&var) {
                    // This variable is not responsible for the failure below:
                    // skip re-instantiating it and jump further back
                    // (paper, Figure 3(b)).
                    ctx.stats.backjumps += 1;
                    return Outcome::DeadEnd(child_conflicts);
                }
                conflict_union.extend(child_conflicts.into_iter().filter(|&v| v != var));
            }
        }
    }

    ctx.stats.backtracks += 1;
    Outcome::DeadEnd(conflict_union)
}

fn restore(live: &mut BitDomains, saved: Vec<(VarId, Vec<u64>)>) {
    for (var, words) in saved {
        live.restore(var, &words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Scheme, ValueOrdering, VariableOrdering};

    /// The example network of the paper's Section 3.
    fn paper_network() -> (ConstraintNetwork<(i64, i64)>, Vec<VarId>) {
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
        // The paper's S24 lists [(1 0), (0 1)], but (1 0) is not in M2 (a typo
        // in the published example); (1 -1) keeps the published solution.
        net.add_constraint(q2, q4, vec![((1, -1), (0, 1)), ((1, 1), (1, 0))])
            .unwrap();
        net.add_constraint(q3, q4, vec![((0, 1), (1, 0))]).unwrap();
        (net, vec![q1, q2, q3, q4])
    }

    fn unsatisfiable_network() -> ConstraintNetwork<i32> {
        // Three variables in a triangle requiring pairwise inequality over a
        // two-value domain: impossible.
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
    fn all_schemes_solve_the_paper_network() {
        let (net, _) = paper_network();
        for scheme in [
            Scheme::Base,
            Scheme::Enhanced,
            Scheme::ForwardChecking,
            Scheme::FullPropagation,
        ] {
            let result = SearchEngine::with_scheme(scheme).solve(&net);
            let solution = result
                .solution
                .unwrap_or_else(|| panic!("{scheme} failed on the paper network"));
            // Verify the solution satisfies every constraint.
            let mut asg = Assignment::new(net.variable_count());
            for v in net.variables() {
                asg.assign(v, solution.value_index(v));
            }
            assert_eq!(
                net.is_solution(&asg),
                Ok(true),
                "{scheme} returned a non-solution"
            );
            assert!(result.stats.nodes_visited >= net.variable_count() as u64);
            assert!(!result.hit_node_limit);
        }
    }

    #[test]
    fn paper_network_has_the_published_solution() {
        // The enhanced scheme (deterministic orderings) finds the exact
        // assignment printed in the paper: Q1=(1 0), Q2=(1 1), Q3=(0 1),
        // Q4=(1 0).
        let (net, vars) = paper_network();
        let result = SearchEngine::with_scheme(Scheme::Enhanced).solve(&net);
        let s = result.solution.unwrap();
        assert_eq!(s.value(vars[0]), &(1, 0));
        assert_eq!(s.value(vars[1]), &(1, 1));
        assert_eq!(s.value(vars[2]), &(0, 1));
        assert_eq!(s.value(vars[3]), &(1, 0));
    }

    #[test]
    fn all_schemes_agree_on_unsatisfiability() {
        let net = unsatisfiable_network();
        for scheme in [
            Scheme::Base,
            Scheme::Enhanced,
            Scheme::ForwardChecking,
            Scheme::FullPropagation,
        ] {
            let result = SearchEngine::with_scheme(scheme).solve(&net);
            assert!(
                result.solution.is_none(),
                "{scheme} hallucinated a solution"
            );
            assert!(!result.hit_node_limit);
            assert!(result.stats.backtracks > 0 || result.stats.prunings > 0);
        }
    }

    #[test]
    fn variables_without_constraints_get_any_value() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        net.add_variable("free1", vec![7, 8]);
        net.add_variable("free2", vec![1]);
        let result = SearchEngine::with_scheme(Scheme::Enhanced).solve(&net);
        let s = result.solution.unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.value(VarId::new(1)), &1);
    }

    #[test]
    fn empty_network_is_trivially_satisfiable() {
        let net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let result = SearchEngine::with_scheme(Scheme::Base).solve(&net);
        assert!(result.is_satisfiable());
        assert_eq!(result.solution.unwrap().len(), 0);
    }

    #[test]
    fn empty_domain_makes_network_unsatisfiable() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        net.add_variable("a", vec![]);
        net.add_variable("b", vec![1]);
        let result = SearchEngine::with_scheme(Scheme::Enhanced).solve(&net);
        assert!(!result.is_satisfiable());
        assert_eq!(result.stats.nodes_visited, 0);
    }

    #[test]
    fn node_limit_terminates_search() {
        // A larger unsatisfiable problem (4-colouring-style clash) would
        // take many nodes; a tiny limit must cut it off and report so.
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let vars: Vec<VarId> = (0..8)
            .map(|i| net.add_variable(format!("v{i}"), (0..3).collect()))
            .collect();
        let neq: Vec<(i32, i32)> = (0..3)
            .flat_map(|a| (0..3).filter(move |&b| a != b).map(move |b| (a, b)))
            .collect();
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                net.add_constraint(vars[i], vars[j], neq.clone()).unwrap();
            }
        }
        let result = SearchEngine::with_scheme(Scheme::Base)
            .node_limit(20)
            .solve(&net);
        assert!(result.hit_node_limit);
        assert!(result.solution.is_none());
        assert!(result.stats.nodes_visited <= 21);
    }

    #[test]
    fn base_scheme_is_seed_reproducible() {
        let (net, _) = paper_network();
        let r1 = SearchEngine::with_scheme(Scheme::Base).seed(11).solve(&net);
        let r2 = SearchEngine::with_scheme(Scheme::Base).seed(11).solve(&net);
        assert_eq!(r1.stats, r2.stats);
        let s1 = r1.solution.unwrap();
        let s2 = r2.solution.unwrap();
        assert_eq!(s1.values(), s2.values());
    }

    #[test]
    fn enhanced_beats_base_on_average_over_planted_networks() {
        // The enhanced scheme is a heuristic: on a tiny instance it can lose
        // to a lucky random order, so the comparison (which mirrors the
        // Table 2 trend) is made on a moderately sized planted-satisfiable
        // network, averaging the base scheme over several seeds.
        let spec = crate::random::RandomNetworkSpec {
            variables: 18,
            domain_size: 5,
            density: 0.45,
            tightness: 0.45,
            seed: 7,
        };
        let (net, _) = crate::random::satisfiable_network(&spec);
        let enhanced = SearchEngine::with_scheme(Scheme::Enhanced).solve(&net);
        assert!(enhanced.is_satisfiable());
        let mut base_total = 0u64;
        let seeds = [1u64, 2, 3, 4, 5];
        for &s in &seeds {
            let base = SearchEngine::with_scheme(Scheme::Base).seed(s).solve(&net);
            assert!(base.is_satisfiable());
            base_total += base.stats.nodes_visited;
        }
        let base_avg = base_total / seeds.len() as u64;
        assert!(
            enhanced.stats.nodes_visited <= base_avg,
            "enhanced ({}) should not visit more nodes than base on average ({})",
            enhanced.stats.nodes_visited,
            base_avg
        );
    }

    #[test]
    fn backjumping_skips_irrelevant_variables() {
        // Construct the Figure 3 situation: Qk conflicts with Qj, while Qi
        // (assigned between them) shares no constraint with Qj.  With
        // backjumping the solver must skip Qi when Qj dead-ends.
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let qk = net.add_variable("Qk", vec![0, 1]);
        let qi = net.add_variable("Qi", vec![0, 1]);
        let qj = net.add_variable("Qj", vec![0, 1]);
        // Qj is only constrained by Qk, and only Qk=1 supports any value.
        net.add_constraint(qk, qj, vec![(1, 0), (1, 1)]).unwrap();
        // Qi is loosely constrained by Qk so it sits between them in the
        // search order but is irrelevant to Qj's failure.
        net.add_constraint(qk, qi, vec![(0, 0), (0, 1), (1, 0), (1, 1)])
            .unwrap();

        let with_jump = SearchEngine {
            variable_ordering: VariableOrdering::Lexicographic,
            value_ordering: ValueOrdering::DomainOrder,
            backjumping: true,
            forward_checking: false,
            ac3_preprocessing: false,
            node_limit: None,
            seed: 0,
        };
        let without_jump = SearchEngine {
            backjumping: false,
            ..with_jump.clone()
        };
        let r_jump = with_jump.solve(&net);
        let r_chrono = without_jump.solve(&net);
        assert!(r_jump.is_satisfiable());
        assert!(r_chrono.is_satisfiable());
        assert!(r_jump.stats.backjumps > 0, "expected at least one backjump");
        assert!(
            r_jump.stats.nodes_visited <= r_chrono.stats.nodes_visited,
            "backjumping should not increase the node count"
        );
    }

    #[test]
    fn forward_checking_prunes_and_agrees() {
        let (net, _) = paper_network();
        let fc = SearchEngine::with_scheme(Scheme::ForwardChecking).solve(&net);
        assert!(fc.is_satisfiable());
        assert!(fc.stats.prunings > 0);
        let plain = SearchEngine::with_scheme(Scheme::Enhanced).solve(&net);
        assert_eq!(fc.is_satisfiable(), plain.is_satisfiable());
    }
}
