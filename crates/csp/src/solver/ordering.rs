//! Variable- and value-ordering heuristics.
//!
//! The paper's enhanced scheme replaces the base scheme's two random
//! decisions:
//!
//! * *variable selection* — "instantiate the variable that maximally
//!   constrains the rest of the search space", so dead ends are detected as
//!   early as possible, and
//! * *value selection* — "select the value that maximizes the number of
//!   options available for future assignments", so a solution is found
//!   quickly when one exists.
//!
//! Both heuristics run on the compiled [`BitKernel`]: degrees come from the
//! kernel adjacency, remaining-domain sizes are mask popcounts, and the
//! least-constraining score is a word-AND popcount per neighbour — with the
//! kernel's precomputed full-domain support counts as an O(1) fast path
//! while a neighbour's domain is unpruned.

use crate::assignment::Assignment;
use crate::bitset::{BitDomains, BitKernel, KernelEdge, WeightKernel};
use crate::network::VarId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Score assigned to a value with no live support on some open constraint
/// (a value that cannot appear in any solution sorts last).
const UNSUPPORTED_PENALTY: f64 = -1.0e12;

/// The best dense weight `value` (of the endpoint `edge` belongs to) can
/// still realize against a **live** partner value on `edge`'s constraint —
/// `NEG_INFINITY` when no live partner supports it.
///
/// While the partner's domain is unpruned this is the kernel's precomputed
/// per-value row-maximum aggregate (one load); otherwise it is the masked
/// row-maximum word loop over the live supports ([`WeightConstraint::
/// live_row_max`](crate::bitset::WeightConstraint::live_row_max)).  This
/// is the one copy of the "optimistic potential" both the weighted value
/// ordering and the greedy probe score with.
pub fn best_live_weight(
    kernel: &BitKernel,
    weights: &WeightKernel,
    live: &BitDomains,
    edge: &KernelEdge,
    value: usize,
) -> f64 {
    let weight = weights.constraint(edge.constraint);
    if live.count(edge.other) == kernel.domain_size(edge.other) {
        weight.row_max(edge.var_is_first, value)
    } else {
        weight
            .live_row_max(
                kernel.constraint(edge.constraint),
                edge.var_is_first,
                value,
                live.words(edge.other),
            )
            .0
    }
}

/// Orders the *live* values of `var` by descending weight potential — the
/// weighted counterpart of the least-constraining value ordering, run on
/// dense matrix reads.
///
/// A value's potential is the sum, over the variable's constraints, of the
/// best dense weight it can still realize against a live partner value.
/// While a partner's domain is unpruned this is the kernel's precomputed
/// per-value row-maximum aggregate (one load); a pruned partner falls back
/// to a word-AND scan over the live supports.  Values with no live support
/// on some constraint sort last.
///
/// The sort is stable with ascending-index input, so equal-potential values
/// keep domain order — making the ordering deterministic.  Branch and bound
/// instantiates values in this order: landing near the optimum early is
/// what lets the bound prune the rest of the tree.
pub fn weighted_value_order(
    kernel: &BitKernel,
    weights: &WeightKernel,
    live: &BitDomains,
    var: VarId,
) -> Vec<usize> {
    let mut scored: Vec<(usize, f64)> = live
        .live_values(var)
        .into_iter()
        .map(|value| {
            let mut potential = 0.0;
            for edge in kernel.edges(var) {
                let best = best_live_weight(kernel, weights, live, edge, value);
                potential += if best.is_finite() {
                    best
                } else {
                    UNSUPPORTED_PENALTY
                };
            }
            (value, potential)
        })
        .collect();
    // Stable sort: descending potential, ties keep ascending index order.
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    scored.into_iter().map(|(value, _)| value).collect()
}

/// How the next variable to instantiate is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VariableOrdering {
    /// Declaration order (x0, x1, ...).
    Lexicographic,
    /// Uniformly at random among the unassigned variables (base scheme).
    Random,
    /// The unassigned variable that maximally constrains the remaining
    /// search space: most constraints to *unassigned* neighbours, ties
    /// broken by smaller remaining domain, then by declaration order
    /// (enhanced scheme).
    MostConstraining,
}

/// How the candidate values of the chosen variable are ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueOrdering {
    /// Domain declaration order.
    DomainOrder,
    /// A random permutation of the domain (base scheme).
    Random,
    /// Values that leave the most options open for unassigned neighbours
    /// first (enhanced scheme).
    LeastConstraining,
}

/// Selects the next variable to instantiate, honouring the configured
/// ordering.  `live` holds the current (possibly pruned) candidate masks of
/// every variable, used for domain-size tie-breaking.
pub fn select_variable(
    ordering: VariableOrdering,
    kernel: &BitKernel,
    assignment: &Assignment,
    live: &BitDomains,
    rng: &mut StdRng,
) -> Option<VarId> {
    match ordering {
        VariableOrdering::Lexicographic => (0..kernel.variable_count())
            .map(VarId::new)
            .find(|&v| !assignment.is_assigned(v)),
        VariableOrdering::Random => {
            let unassigned: Vec<VarId> = (0..kernel.variable_count())
                .map(VarId::new)
                .filter(|&v| !assignment.is_assigned(v))
                .collect();
            unassigned.choose(rng).copied()
        }
        VariableOrdering::MostConstraining => {
            let mut best: Option<(VarId, usize, usize)> = None;
            for v in (0..kernel.variable_count()).map(VarId::new) {
                if assignment.is_assigned(v) {
                    continue;
                }
                // Constraints to unassigned neighbours.
                let degree = kernel
                    .edges(v)
                    .iter()
                    .filter(|e| !assignment.is_assigned(e.other))
                    .count();
                let domain_size = live.count(v);
                let better = match best {
                    None => true,
                    Some((_, best_degree, best_domain)) => {
                        degree > best_degree || (degree == best_degree && domain_size < best_domain)
                    }
                };
                if better {
                    best = Some((v, degree, domain_size));
                }
            }
            best.map(|(v, _, _)| v)
        }
    }
}

/// Orders the candidate values of `var` according to the configured value
/// ordering.  `candidates` are indices into the variable's domain (already
/// restricted by forward checking when enabled).
pub fn order_values(
    ordering: ValueOrdering,
    kernel: &BitKernel,
    assignment: &Assignment,
    live: &BitDomains,
    var: VarId,
    candidates: &[usize],
    rng: &mut StdRng,
) -> Vec<usize> {
    let mut values = candidates.to_vec();
    match ordering {
        ValueOrdering::DomainOrder => values,
        ValueOrdering::Random => {
            values.shuffle(rng);
            values
        }
        ValueOrdering::LeastConstraining => {
            // Score = total number of still-supported options across
            // unassigned neighbours; higher is better.  The per-neighbour
            // fullness test is hoisted out of the value loop, so the inner
            // loop walks each constraint's contiguous row block with one
            // precomputed-count load (unpruned neighbour) or one
            // AND-popcount (pruned neighbour) per value.
            let open_edges: Vec<(&KernelEdge, bool)> = kernel
                .edges(var)
                .iter()
                .filter(|edge| !assignment.is_assigned(edge.other))
                .map(|edge| {
                    let full = live.count(edge.other) == kernel.domain_size(edge.other);
                    (edge, full)
                })
                .collect();
            let mut scored: Vec<(usize, usize)> = values
                .iter()
                .map(|&value| {
                    let mut score = 0usize;
                    for &(edge, neighbour_full) in &open_edges {
                        let constraint = kernel.constraint(edge.constraint);
                        score += if neighbour_full {
                            constraint.full_support(edge.var_is_first, value) as usize
                        } else {
                            live.intersection_count(
                                edge.other,
                                constraint.row(edge.var_is_first, value),
                            )
                        };
                    }
                    (value, score)
                })
                .collect();
            // Stable sort: descending score, ties keep domain order.
            scored.sort_by_key(|&(_, score)| std::cmp::Reverse(score));
            scored.into_iter().map(|(v, _)| v).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ConstraintNetwork;
    use rand::SeedableRng;

    fn chain_network() -> (ConstraintNetwork<i32>, Vec<VarId>) {
        // x0 - x1 - x2 chain; x1 has the highest degree.
        let mut net = ConstraintNetwork::new();
        let a = net.add_variable("x0", vec![0, 1]);
        let b = net.add_variable("x1", vec![0, 1, 2]);
        let c = net.add_variable("x2", vec![0, 1]);
        net.add_constraint(a, b, vec![(0, 1), (1, 2)]).unwrap();
        net.add_constraint(b, c, vec![(1, 0), (2, 1)]).unwrap();
        (net, vec![a, b, c])
    }

    #[test]
    fn lexicographic_picks_first_unassigned() {
        let (net, vars) = chain_network();
        let kernel = net.kernel();
        let live = kernel.full_domains();
        let mut asg = Assignment::new(3);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            select_variable(
                VariableOrdering::Lexicographic,
                kernel,
                &asg,
                &live,
                &mut rng
            ),
            Some(vars[0])
        );
        asg.assign(vars[0], 0);
        assert_eq!(
            select_variable(
                VariableOrdering::Lexicographic,
                kernel,
                &asg,
                &live,
                &mut rng
            ),
            Some(vars[1])
        );
    }

    #[test]
    fn most_constraining_prefers_high_degree() {
        let (net, vars) = chain_network();
        let kernel = net.kernel();
        let live = kernel.full_domains();
        let asg = Assignment::new(3);
        let mut rng = StdRng::seed_from_u64(1);
        // x1 touches two constraints, x0 and x2 only one each.
        assert_eq!(
            select_variable(
                VariableOrdering::MostConstraining,
                kernel,
                &asg,
                &live,
                &mut rng
            ),
            Some(vars[1])
        );
    }

    #[test]
    fn most_constraining_breaks_ties_by_domain_size() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![0, 1, 2]);
        let b = net.add_variable("b", vec![0, 1]);
        net.add_constraint(a, b, vec![(0, 0)]).unwrap();
        let kernel = net.kernel();
        let live = kernel.full_domains();
        let asg = Assignment::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        // Equal degree (1 each); b has the smaller domain.
        assert_eq!(
            select_variable(
                VariableOrdering::MostConstraining,
                kernel,
                &asg,
                &live,
                &mut rng
            ),
            Some(b)
        );
    }

    #[test]
    fn random_selection_returns_unassigned_variable() {
        let (net, vars) = chain_network();
        let kernel = net.kernel();
        let live = kernel.full_domains();
        let mut asg = Assignment::new(3);
        asg.assign(vars[0], 0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let v =
                select_variable(VariableOrdering::Random, kernel, &asg, &live, &mut rng).unwrap();
            assert_ne!(v, vars[0]);
        }
        // Fully assigned -> no selection.
        asg.assign(vars[1], 0);
        asg.assign(vars[2], 0);
        assert_eq!(
            select_variable(VariableOrdering::Random, kernel, &asg, &live, &mut rng),
            None
        );
    }

    #[test]
    fn least_constraining_value_ordering() {
        // x0 in {0,1}, neighbour x1 in {0,1,2}.  Value 0 of x0 supports two
        // values of x1, value 1 supports one -> 0 must come first.
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![0, 1]);
        let b = net.add_variable("b", vec![0, 1, 2]);
        net.add_constraint(a, b, vec![(0, 0), (0, 1), (1, 2)])
            .unwrap();
        let kernel = net.kernel();
        let live = kernel.full_domains();
        let asg = Assignment::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        let ordered = order_values(
            ValueOrdering::LeastConstraining,
            kernel,
            &asg,
            &live,
            a,
            &[0, 1],
            &mut rng,
        );
        assert_eq!(ordered, vec![0, 1]);
        // With value 1 supporting more options, the order flips.
        let mut net2: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a2 = net2.add_variable("a", vec![0, 1]);
        let b2 = net2.add_variable("b", vec![0, 1, 2]);
        net2.add_constraint(a2, b2, vec![(1, 0), (1, 1), (0, 2)])
            .unwrap();
        let kernel2 = net2.kernel();
        let live2 = kernel2.full_domains();
        let ordered2 = order_values(
            ValueOrdering::LeastConstraining,
            kernel2,
            &Assignment::new(2),
            &live2,
            a2,
            &[0, 1],
            &mut rng,
        );
        assert_eq!(ordered2, vec![1, 0]);
    }

    #[test]
    fn least_constraining_counts_only_live_supports() {
        // With x1's value 0 pruned, x0's value 0 loses one support and the
        // order flips — the heuristic must consult the live mask, not the
        // full-domain count.
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![0, 1]);
        let b = net.add_variable("b", vec![0, 1, 2]);
        net.add_constraint(a, b, vec![(0, 0), (0, 1), (1, 1), (1, 2)])
            .unwrap();
        let kernel = net.kernel();
        let mut live = kernel.full_domains();
        let mut rng = StdRng::seed_from_u64(1);
        live.remove(b, 0);
        let ordered = order_values(
            ValueOrdering::LeastConstraining,
            kernel,
            &Assignment::new(2),
            &live,
            a,
            &[0, 1],
            &mut rng,
        );
        assert_eq!(ordered, vec![1, 0]);
    }

    #[test]
    fn domain_order_is_preserved_and_random_is_permutation() {
        let (net, vars) = chain_network();
        let kernel = net.kernel();
        let live = kernel.full_domains();
        let asg = Assignment::new(3);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            order_values(
                ValueOrdering::DomainOrder,
                kernel,
                &asg,
                &live,
                vars[1],
                &[0, 1, 2],
                &mut rng
            ),
            vec![0, 1, 2]
        );
        let mut shuffled = order_values(
            ValueOrdering::Random,
            kernel,
            &asg,
            &live,
            vars[1],
            &[0, 1, 2],
            &mut rng,
        );
        shuffled.sort();
        assert_eq!(shuffled, vec![0, 1, 2]);
    }
}
