//! AC-3 arc-consistency preprocessing.
//!
//! Not part of the paper's schemes, but a natural extension: removing values
//! that have no support in a neighbouring domain before the search starts
//! can only shrink the search tree, never change satisfiability.
//!
//! The revise step runs on the compiled kernel, allocation-free: while `y`
//! is unpruned the whole revision is **one AND** of `live(x)` with
//! the constraint's precomputed support-nonzero mask
//! ([`crate::bitset::BitConstraint::support_nonzero`]); once `y` has been
//! pruned, [`crate::bitset::BitDomains::revise`] walks the constraint's
//! contiguous row block block-major with `live(y)` held hot.  Every
//! revision also accounts the bytes it touched into
//! [`SearchStats::bytes_touched`], the metric the perf gate's propagation
//! scenario audits to catch cache-blocking regressions.

use super::SearchStats;
use crate::bitset::{BitDomains, BitKernel};
use crate::network::VarId;
use std::collections::VecDeque;

/// Result of running AC-3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ac3Outcome {
    /// Every remaining value has support in every neighbouring domain.
    Consistent,
    /// Some variable's domain was emptied; the network is unsatisfiable.
    Wipeout(VarId),
}

/// Makes a word-packed live-domain working set (start from
/// [`BitKernel::full_domains`]) arc consistent with respect to every
/// constraint of the kernel.
///
/// Returns [`Ac3Outcome::Wipeout`] as soon as a domain becomes empty.
/// Pruning counts and consistency checks are recorded in `stats`.
pub fn ac3_kernel(
    kernel: &BitKernel,
    live: &mut BitDomains,
    stats: &mut SearchStats,
) -> Ac3Outcome {
    // Work list of directed arcs (x, y, constraint) meaning "revise x
    // against y".
    let mut queue: VecDeque<(VarId, VarId, usize)> = VecDeque::new();
    for ci in 0..kernel.constraint_count() {
        let c = kernel.constraint(ci);
        queue.push_back((c.first(), c.second(), ci));
        queue.push_back((c.second(), c.first(), ci));
    }
    while let Some((x, y, ci)) = queue.pop_front() {
        if revise(kernel, live, x, y, ci, stats) {
            if live.is_empty(x) {
                return Ac3Outcome::Wipeout(x);
            }
            // Re-examine every arc pointing at x (other than from y).
            for edge in kernel.edges(x) {
                if edge.other != y {
                    queue.push_back((edge.other, x, edge.constraint));
                }
            }
        }
    }
    Ac3Outcome::Consistent
}

/// Removes the values of `x` that have no support among the live values of
/// `y` under constraint `ci`; returns whether anything was removed.
fn revise(
    kernel: &BitKernel,
    live: &mut BitDomains,
    x: VarId,
    y: VarId,
    ci: usize,
    stats: &mut SearchStats,
) -> bool {
    crate::fail_point!("ac3.revise");
    let constraint = kernel.constraint(ci);
    let x_is_first = constraint.first() == x;
    let y_count = live.count(y);
    let x_count = live.count(x);
    stats.consistency_checks += (x_count * y_count) as u64;
    let (removed, bytes) = if y_count == kernel.domain_size(y) {
        // While y is unpruned the precomputed support-nonzero mask decides
        // support for every value of x at once: the whole revision is one
        // AND touching neither y's words nor the row block.
        let mask = constraint.support_nonzero(x_is_first);
        let removed = live.intersect(x, mask) as u64;
        (removed, 8 * 2 * mask.len() as u64)
    } else {
        live.revise(x, y, constraint, x_is_first)
    };
    stats.prunings += removed;
    stats.bytes_touched += bytes;
    removed > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ConstraintNetwork;

    /// Runs AC-3 from the full domains of `net`; returns the outcome and
    /// the surviving values of every variable.
    fn run(net: &ConstraintNetwork<i32>, stats: &mut SearchStats) -> (Ac3Outcome, Vec<Vec<usize>>) {
        let kernel = net.kernel();
        let mut live = kernel.full_domains();
        let outcome = ac3_kernel(kernel, &mut live, stats);
        let values = net.variables().map(|v| live.live_values(v)).collect();
        (outcome, values)
    }

    #[test]
    fn ac3_prunes_unsupported_values() {
        // a in {0,1,2}, b in {0}; constraint requires a == b, so a must be 0.
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![0, 1, 2]);
        let b = net.add_variable("b", vec![0]);
        net.add_constraint(a, b, vec![(0, 0)]).unwrap();
        let mut stats = SearchStats::default();
        let (outcome, live) = run(&net, &mut stats);
        assert_eq!(outcome, Ac3Outcome::Consistent);
        assert_eq!(live[a.index()], vec![0]);
        assert_eq!(live[b.index()], vec![0]);
        assert_eq!(stats.prunings, 2);
        assert!(stats.consistency_checks > 0);
    }

    #[test]
    fn ac3_detects_wipeout() {
        // a != b with single-value equal domains: impossible.
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![0]);
        let b = net.add_variable("b", vec![0]);
        net.add_constraint(a, b, vec![]).unwrap();
        let mut stats = SearchStats::default();
        match run(&net, &mut stats).0 {
            Ac3Outcome::Wipeout(v) => assert!(v == a || v == b),
            Ac3Outcome::Consistent => panic!("expected a wipeout"),
        }
    }

    #[test]
    fn ac3_propagates_through_a_chain() {
        // a -> b -> c equality chain with c fixed to 1 forces everything to 1.
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![0, 1]);
        let b = net.add_variable("b", vec![0, 1]);
        let c = net.add_variable("c", vec![1]);
        net.add_constraint(a, b, vec![(0, 0), (1, 1)]).unwrap();
        net.add_constraint(b, c, vec![(1, 1)]).unwrap();
        let mut stats = SearchStats::default();
        let (outcome, live) = run(&net, &mut stats);
        assert_eq!(outcome, Ac3Outcome::Consistent);
        assert_eq!(live[a.index()], vec![1]);
        assert_eq!(live[b.index()], vec![1]);
    }

    #[test]
    fn ac3_leaves_consistent_networks_alone() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![0, 1]);
        let b = net.add_variable("b", vec![0, 1]);
        net.add_constraint(a, b, vec![(0, 0), (0, 1), (1, 0), (1, 1)])
            .unwrap();
        let mut stats = SearchStats::default();
        let (outcome, live) = run(&net, &mut stats);
        assert_eq!(outcome, Ac3Outcome::Consistent);
        assert_eq!(live[a.index()].len(), 2);
        assert_eq!(live[b.index()].len(), 2);
        assert_eq!(stats.prunings, 0);
    }
}
