//! Weighted constraint networks (the paper's first future direction).
//!
//! Section 6 of the paper proposes giving *weights* to constraints so that
//! different solutions of the same network can be distinguished.  Here a
//! weight is attached to every allowed pair of every constraint (e.g. the
//! estimated locality benefit of that layout combination, possibly scaled by
//! the importance of the nest that generated it), and [`BranchAndBound`]
//! finds the complete assignment that (a) satisfies every constraint and
//! (b) maximizes the total weight of the selected pairs.
//!
//! # The dense weight spine
//!
//! A [`WeightedNetwork`] is a thin overlay over its hard
//! [`ConstraintNetwork`]: one **dense** [`WeightTable`] per constraint (flat
//! `f64` matrices in both orientations, mirroring the bit-matrices — see
//! [`crate::bitset`]), behind a shared spine.  Cloning shares everything;
//! [`WeightedNetwork::set_weight`] copies the spine first when it is shared.
//!
//! The execution form is the [`WeightKernel`]: per-constraint dense matrices
//! plus row-maximum aggregates over the allowed pairs, compiled lazily at
//! most once per spine (the same `OnceLock` discipline as the hard
//! [`BitKernel`](crate::BitKernel)) and never patched — a weight mutation
//! drops the mutated handle's kernel, and the next solver run compiles it
//! again.  All weighted hot paths (branch and bound, the work-stealing
//! scheduler, the weighted value ordering) read it directly: no hash probe
//! survives on the optimizing path.

use crate::assignment::{Assignment, Solution};
use crate::bitset::{KernelEdge, WeightKernel, WeightTable};
use crate::network::{ConstraintNetwork, VarId};
use crate::solver::weighted_value_order;
use crate::solver::{SearchLimits, SearchStats, SoftAc3};
use crate::{CspError, Value};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How often (in visited nodes) the wall-clock deadline is polled.
const DEADLINE_POLL_MASK: u64 = 0x7F;

/// Which limit (if any) cut the branch-and-bound search short.
#[derive(Debug, Default, Clone, Copy)]
struct Cutoff {
    node: bool,
    deadline: bool,
}

/// The shared tables behind a [`WeightedNetwork`]: one optional dense
/// weight table per constraint plus the lazily compiled [`WeightKernel`].
///
/// `None` in a table slot means "every pair of this constraint carries the
/// default weight" — nothing is materialized until a `set_weight` touches
/// the constraint, so wrapping a large hard network allocates no dense
/// entry at all.
#[derive(Debug, Clone)]
struct WeightSpine {
    /// Same indexing as the hard network's constraint list; the compiled
    /// kernel shares each table by pointer.
    tables: Vec<Option<Arc<WeightTable>>>,
    /// Compiled execution form, built lazily at most once per spine and
    /// shared by every handle over it.
    kernel: OnceLock<Arc<WeightKernel>>,
}

/// A constraint network whose allowed pairs carry weights.
///
/// Like [`ConstraintNetwork`], cloning a weighted network shares the hard
/// network's storage and the whole weight spine, compiled
/// [`WeightKernel`] included; [`WeightedNetwork::set_weight`] copies the
/// spine when it is shared and drops the mutated handle's kernel.
#[derive(Debug, Clone)]
pub struct WeightedNetwork<V> {
    network: ConstraintNetwork<V>,
    spine: Arc<WeightSpine>,
    default_weight: f64,
}

impl<V: Value> WeightedNetwork<V> {
    /// Wraps a network; pairs start with the given default weight.
    pub fn new(network: ConstraintNetwork<V>, default_weight: f64) -> Self {
        let spine = Arc::new(WeightSpine {
            tables: vec![None; network.constraint_count()],
            kernel: OnceLock::new(),
        });
        WeightedNetwork {
            network,
            spine,
            default_weight,
        }
    }

    /// The underlying (hard) constraint network.
    pub fn network(&self) -> &ConstraintNetwork<V> {
        &self.network
    }

    /// The weight every pair no `set_weight` touched carries.
    pub fn default_weight(&self) -> f64 {
        self.default_weight
    }

    /// The compiled weighted execution kernel (dense matrices plus
    /// row-maximum aggregates, see [`crate::bitset::WeightKernel`]),
    /// building it on first use and caching it inside the shared spine.
    ///
    /// Every clone over the same spine returns the *same* `Arc` (verify
    /// with `Arc::ptr_eq`).  A `set_weight` or `add_weight` drops it; the
    /// next call compiles the mutated tables from scratch.
    pub fn weight_kernel(&self) -> &Arc<WeightKernel> {
        self.spine.kernel.get_or_init(|| {
            Arc::new(WeightKernel::build(
                &self.spine.tables,
                self.network.kernel(),
                self.default_weight,
            ))
        })
    }

    /// Whether `self` and `other` share the entire weight spine (tables and
    /// compiled kernel) by pointer — the post-clone state.
    pub fn shares_weight_spine(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.spine, &other.spine)
    }

    /// Applies `patch` to one constraint's dense table (materializing it
    /// at the default weight first), copying the spine first when it is
    /// shared.  Drops the compiled kernel before touching the table, so
    /// the kernel's reference to it does not force a copy.
    fn patch_table(&mut self, ci: usize, patch: impl FnOnce(&mut WeightTable)) {
        let constraint = &self.network.constraints()[ci];
        let first_size = self.network.domain(constraint.first()).len();
        let second_size = self.network.domain(constraint.second()).len();
        let default_weight = self.default_weight;
        let spine = Arc::make_mut(&mut self.spine);
        spine.kernel.take();
        let table = spine.tables[ci].get_or_insert_with(|| {
            Arc::new(WeightTable::uniform(
                first_size,
                second_size,
                default_weight,
            ))
        });
        patch(Arc::make_mut(table));
    }

    /// Resolves `(a, b, value_a, value_b)` to a constraint index and an
    /// oriented index pair.
    fn resolve_pair(
        &self,
        a: VarId,
        b: VarId,
        value_a: &V,
        value_b: &V,
    ) -> crate::Result<(usize, (usize, usize))> {
        if a == b {
            return Err(CspError::SelfConstraint(a));
        }
        self.network.check_var(a)?;
        self.network.check_var(b)?;
        let ci = self
            .network
            .constraint_index_between(a, b)
            .ok_or(CspError::NoConstraint {
                first: a,
                second: b,
            })?;
        let index_of = |variable: VarId, value: &V| {
            let index = self.network.domain(variable).index_of(value);
            index.ok_or_else(|| CspError::ValueNotInDomain {
                variable,
                value: format!("{value:?}"),
            })
        };
        let (ia, ib) = (index_of(a, value_a)?, index_of(b, value_b)?);
        let constraint = &self.network.constraints()[ci];
        let pair = if constraint.first() == a {
            (ia, ib)
        } else {
            (ib, ia)
        };
        Ok((ci, pair))
    }

    /// Sets the weight of one allowed pair of the constraint between `a` and
    /// `b`.  The pair is given as values of `a` and `b`.
    ///
    /// # Errors
    ///
    /// * [`CspError::SelfConstraint`] when `a == b`,
    /// * [`CspError::UnknownVariable`] when either id is out of range,
    /// * [`CspError::NoConstraint`] when no constraint joins `a` and `b`,
    /// * [`CspError::ValueNotInDomain`] when a value is missing from its
    ///   variable's domain.
    pub fn set_weight(
        &mut self,
        a: VarId,
        b: VarId,
        value_a: &V,
        value_b: &V,
        weight: f64,
    ) -> crate::Result<()> {
        let (ci, pair) = self.resolve_pair(a, b, value_a, value_b)?;
        self.patch_table(ci, |table| table.set(pair.0, pair.1, weight));
        Ok(())
    }

    /// Adds `delta` to the weight of one pair — the accumulation form
    /// weight derivations use, writing contributions straight into the
    /// dense table with no intermediate map.
    ///
    /// # Errors
    ///
    /// Same conditions as [`WeightedNetwork::set_weight`].
    pub fn add_weight(
        &mut self,
        a: VarId,
        b: VarId,
        value_a: &V,
        value_b: &V,
        delta: f64,
    ) -> crate::Result<()> {
        let (ci, pair) = self.resolve_pair(a, b, value_a, value_b)?;
        self.patch_table(ci, |table| table.add(pair.0, pair.1, delta));
        Ok(())
    }

    /// The weight of a pair of a constraint (by constraint index and pair
    /// oriented like the constraint).
    ///
    /// Any unknown pair — out-of-range constraint index *or* out-of-range
    /// value indices — reads the default weight, matching the old
    /// map-backed behavior (an unchecked dense read would alias another
    /// row's entry instead).
    pub fn weight_of(&self, constraint_index: usize, pair: (usize, usize)) -> f64 {
        match self.spine.tables.get(constraint_index) {
            Some(Some(table)) if pair.0 < table.first_size() && pair.1 < table.second_size() => {
                table.get(pair.0, pair.1)
            }
            _ => self.default_weight,
        }
    }

    /// The optimistic per-constraint bound of branch and bound: the best
    /// weight any allowed pair of the constraint can add to a completion,
    /// never below `max(default_weight, 0)` (just that floor when the
    /// constraint allows no pair).  [`BranchAndBound`] and the
    /// work-stealing scheduler's optimize mode both prune against this one
    /// table, so the two searches cannot drift apart.
    pub(crate) fn optimistic_pair_bounds(&self) -> Vec<f64> {
        let floor = self.default_weight.max(0.0);
        let weights = self.weight_kernel();
        (0..self.network.constraint_count())
            .map(|ci| {
                let best = weights.constraint(ci).max_allowed();
                if best.is_finite() {
                    floor.max(best)
                } else {
                    floor
                }
            })
            .collect()
    }

    /// The total weight of a complete assignment (only meaningful when it is
    /// a solution of the hard network).
    ///
    /// Only constraints adjacent to assigned variables are visited (via the
    /// kernel adjacency, each constraint exactly once from its `first`
    /// endpoint), so the cost is `O(edges of the assignment)`, not
    /// `O(constraints)` — and each weight is one dense read.  The summation
    /// order (ascending variable, adjacency order) is fixed, so equal
    /// assignments produce bit-equal sums on every worker.
    pub fn assignment_weight(&self, assignment: &Assignment) -> f64 {
        let kernel = self.network.kernel();
        let weights = self.weight_kernel();
        let mut total = 0.0;
        for var in self.network.variables() {
            let Some(a) = assignment.get(var) else {
                continue;
            };
            for edge in kernel.edges(var) {
                if !edge.var_is_first {
                    continue; // each constraint is summed once, from `first`
                }
                if let Some(b) = assignment.get(edge.other) {
                    if kernel.constraint(edge.constraint).allows(a, b) {
                        total += weights.weight(edge.constraint, a, b);
                    }
                }
            }
        }
        total
    }
}

/// The result of a branch-and-bound optimization.
#[derive(Debug, Clone)]
pub struct OptimizeResult<V> {
    /// The best solution found, if the hard network is satisfiable.
    pub solution: Option<Solution<V>>,
    /// The weight of the best solution.
    pub best_weight: f64,
    /// Search statistics.
    pub stats: SearchStats,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Whether the search was cut off by the node limit before exploring
    /// the whole tree (a `None` solution then proves nothing).
    pub hit_node_limit: bool,
    /// Whether the search was cut off by the wall-clock deadline.
    pub hit_deadline: bool,
    /// Whether the search was aborted by a
    /// [`CancelToken`](crate::CancelToken).
    pub cancelled: bool,
}

impl<V: Value> OptimizeResult<V> {
    /// Whether the search explored (or soundly pruned) the entire space:
    /// the reported solution is then the true optimum.
    pub fn is_exhaustive(&self) -> bool {
        !self.hit_node_limit && !self.hit_deadline && !self.cancelled
    }
}

/// Depth-first branch and bound over a [`WeightedNetwork`], instantiating
/// the most-constrained variables first (tightest bound early).
///
/// This is the sequential reference the work-stealing scheduler's
/// optimize mode is tested against: at any worker count
/// [`StealScheduler::optimize`](crate::StealScheduler::optimize) reaches
/// the same optimum weight.  On a weight tie the two may keep different
/// optima: branch and bound keeps the first in its value order, the
/// scheduler the one with the lowest canonical key.
#[derive(Debug, Clone)]
pub struct BranchAndBound {
    /// Give up after visiting this many nodes (`None` = unlimited).
    pub node_limit: Option<u64>,
    /// Run the soft-AC-3 weighted bound-consistency propagator
    /// ([`SoftAc3`]) at every node (default: on).  Results are identical
    /// either way — propagation only cuts subtrees that cannot change the
    /// reported optimum — so this is a perf/verification toggle, not a
    /// semantic one.
    pub propagate: bool,
}

impl Default for BranchAndBound {
    fn default() -> Self {
        BranchAndBound {
            node_limit: None,
            propagate: true,
        }
    }
}

impl BranchAndBound {
    /// Creates a branch-and-bound optimizer with no node limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Toggles soft-AC-3 propagation (see the `propagate` field).
    pub fn propagation(mut self, on: bool) -> Self {
        self.propagate = on;
        self
    }

    /// Finds the maximum-weight solution of the weighted network.
    pub fn optimize<V: Value>(&self, weighted: &WeightedNetwork<V>) -> OptimizeResult<V> {
        let limits = SearchLimits {
            node_limit: self.node_limit,
            deadline: None,
        };
        self.optimize_with(weighted, &limits)
    }

    /// Finds the maximum-weight solution under per-run limits (node budget
    /// and/or wall-clock deadline) — the request-scoped form `mlo-core`
    /// strategies use.
    pub fn optimize_with<V: Value>(
        &self,
        weighted: &WeightedNetwork<V>,
        limits: &SearchLimits,
    ) -> OptimizeResult<V> {
        let start = Instant::now();
        let network = weighted.network();
        let mut stats = SearchStats::default();
        let mut best_weight = f64::NEG_INFINITY;
        let mut best_assignment: Option<Assignment> = None;
        let mut assignment = Assignment::new(network.variable_count());
        let mut cutoff = Cutoff::default();

        let mut order: Vec<VarId> = network.variables().collect();
        order.sort_by_key(|&v| std::cmp::Reverse(network.constraints_of(v).len()));

        // The execution kernels (shared, compiled at most once per storage /
        // spine) and the values of every variable, ordered **best weight
        // potential first** (dense row-maximum aggregates): landing near
        // the optimum early is what makes the bound prune.
        let kernel = Arc::clone(network.kernel());
        let weights = Arc::clone(weighted.weight_kernel());
        let domains = kernel.full_domains();
        let live: Vec<Vec<usize>> = network
            .variables()
            .map(|v| weighted_value_order(&kernel, &weights, &domains, v))
            .collect();
        let max_pair_weight = weighted.optimistic_pair_bounds();

        // Assigned-prefix adjacency: the static order means the assigned
        // set at depth `d` is exactly `order[..d]`, so both the conflict
        // probe and the gained-weight sum walk a precomputed filtered edge
        // list.  Filtering preserves adjacency order — identical check
        // counts and (for `gained`) the same float summation order, hence
        // bit-identical totals — while the per-depth lists keep the dense
        // row reads block-contiguous across the value loop.
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

        let ctx = BnbContext {
            kernel: &kernel,
            weights: &weights,
            live,
            limits,
            order,
            earlier,
            max_pair_weight,
        };
        // Soft-AC-3 root state: a hard fixpoint (no incumbent) deletes
        // values with no completion at all; a root wipeout proves the
        // network has no solution, which is exactly the empty result the
        // unpropagated search would grind to.
        let mut soft = if self.propagate {
            let mut soft = SoftAc3::new(&kernel, &weights);
            if soft.root_propagate(&mut stats).is_err() {
                return OptimizeResult {
                    solution: None,
                    best_weight: 0.0,
                    stats,
                    elapsed: start.elapsed(),
                    hit_node_limit: false,
                    hit_deadline: false,
                    cancelled: false,
                };
            }
            soft.commit();
            Some(soft)
        } else {
            None
        };
        self.recurse(
            &ctx,
            0,
            &mut assignment,
            0.0,
            &mut best_weight,
            &mut best_assignment,
            &mut soft,
            &mut stats,
            &mut cutoff,
        );

        let solution = best_assignment.map(|a| Solution::from_assignment(network, &a));
        OptimizeResult {
            solution,
            best_weight: if best_weight.is_finite() {
                best_weight
            } else {
                0.0
            },
            stats,
            elapsed: start.elapsed(),
            hit_node_limit: cutoff.node,
            hit_deadline: cutoff.deadline,
            cancelled: false,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        &self,
        ctx: &BnbContext<'_>,
        depth: usize,
        assignment: &mut Assignment,
        weight_so_far: f64,
        best_weight: &mut f64,
        best_assignment: &mut Option<Assignment>,
        soft: &mut Option<SoftAc3>,
        stats: &mut SearchStats,
        cutoff: &mut Cutoff,
    ) {
        if cutoff.node || cutoff.deadline {
            return;
        }
        if let Some(limit) = ctx.limits.node_limit {
            if stats.nodes_visited >= limit {
                cutoff.node = true;
                return;
            }
        }
        if stats.nodes_visited & DEADLINE_POLL_MASK == 0 {
            if let Some(deadline) = ctx.limits.deadline {
                if Instant::now() >= deadline {
                    cutoff.deadline = true;
                    return;
                }
            }
        }
        if depth == ctx.order.len() {
            if weight_so_far > *best_weight {
                *best_weight = weight_so_far;
                *best_assignment = Some(assignment.clone());
            }
            return;
        }
        // Upper bound: with propagation on, the parent's `propagate` call
        // already performed a (tighter, live-masked) node bound check —
        // the static optimistic scan below is only the unpropagated path.
        if soft.is_none() {
            // Current weight plus the best conceivable weight of every
            // constraint not yet fully assigned.
            let optimistic: f64 = ctx
                .max_pair_weight
                .iter()
                .enumerate()
                .filter(|&(ci, _)| {
                    let c = ctx.kernel.constraint(ci);
                    assignment.get(c.first()).is_none() || assignment.get(c.second()).is_none()
                })
                .map(|(_, &bound)| bound)
                .sum();
            if weight_so_far + optimistic <= *best_weight {
                stats.prunings += 1;
                return; // prune: cannot beat the incumbent
            }
        }

        let var = ctx.order[depth];
        let earlier = &ctx.earlier[depth];
        for &value in &ctx.live[var.index()] {
            if let Some(soft) = soft.as_ref() {
                // Deleted by bound consistency (or forward checking): no
                // completion through this value can beat the incumbent.
                if !soft.is_live(var, value) {
                    continue;
                }
            }
            stats.nodes_visited += 1;
            stats.max_depth = stats.max_depth.max(depth + 1);
            // Inline `conflicts_any` over the assigned-prefix edge list:
            // one check per probed edge, early exit on the first conflict.
            // The propagated path needs no probe: forward checking already
            // removed every value incompatible with an assigned neighbour.
            if soft.is_none() {
                let mut conflict = false;
                for edge in earlier {
                    if let Some(other_value) = assignment.get(edge.other) {
                        stats.consistency_checks += 1;
                        let c = ctx.kernel.constraint(edge.constraint);
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
            // Weight gained: every constraint between var and an assigned
            // neighbour contributes the weight of the now-selected pair —
            // one dense oriented read per edge (the filtered list keeps the
            // kernel adjacency order, so the floating-point sum is
            // deterministic).
            let mut gained = 0.0;
            for edge in earlier {
                if let Some(other_value) = assignment.get(edge.other) {
                    gained += ctx.weights.constraint(edge.constraint).oriented(
                        edge.var_is_first,
                        value,
                        other_value,
                    );
                }
            }
            assignment.assign(var, value);
            // Propagate-then-branch: record the assignment in the soft
            // state (reclassify + forward-check), then run the bound-
            // consistency fixpoint against the incumbent.  Either step
            // failing proves the subtree cannot improve the result.
            let mut soft_mark = None;
            if let Some(soft_state) = soft.as_mut() {
                let mark = soft_state.mark();
                let ok = soft_state.assign(var, value).is_ok()
                    && soft_state
                        .propagate(
                            weight_so_far + gained,
                            *best_weight,
                            f64::NEG_INFINITY,
                            stats,
                        )
                        .is_ok();
                if !ok {
                    stats.prunings += 1;
                    soft_state.undo_to(mark);
                    assignment.unassign(var);
                    continue;
                }
                soft_mark = Some(mark);
            }
            self.recurse(
                ctx,
                depth + 1,
                assignment,
                weight_so_far + gained,
                best_weight,
                best_assignment,
                soft,
                stats,
                cutoff,
            );
            if let Some(mark) = soft_mark {
                soft.as_mut().expect("soft state set above").undo_to(mark);
            }
            assignment.unassign(var);
        }
        stats.backtracks += 1;
    }
}

/// The per-run inputs of one branch-and-bound search, bundled so the
/// recursion carries one reference instead of seven.
struct BnbContext<'a> {
    kernel: &'a crate::bitset::BitKernel,
    /// The compiled dense weight matrices + aggregates.
    weights: &'a WeightKernel,
    /// Values of every variable, best potential first.
    live: Vec<Vec<usize>>,
    limits: &'a SearchLimits,
    order: Vec<VarId>,
    /// Per-depth assigned-prefix edge lists (`order`-filtered kernel
    /// adjacency, same edge order).
    earlier: Vec<Vec<KernelEdge>>,
    /// Optimistic per-constraint bound
    /// ([`WeightedNetwork::optimistic_pair_bounds`]).
    max_pair_weight: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_weighted() -> (WeightedNetwork<&'static str>, Vec<VarId>) {
        // Two variables, both pairs (r,r) and (c,c) allowed; (c,c) weighs
        // more, so the optimizer must prefer it even though (r,r) is listed
        // first.
        let mut net: ConstraintNetwork<&'static str> = ConstraintNetwork::new();
        let a = net.add_variable("A", vec!["r", "c"]);
        let b = net.add_variable("B", vec!["r", "c"]);
        net.add_constraint(a, b, vec![("r", "r"), ("c", "c")])
            .unwrap();
        let mut w = WeightedNetwork::new(net, 0.0);
        w.set_weight(a, b, &"r", &"r", 1.0).unwrap();
        w.set_weight(a, b, &"c", &"c", 5.0).unwrap();
        (w, vec![a, b])
    }

    #[test]
    fn branch_and_bound_maximizes_weight() {
        let (w, vars) = simple_weighted();
        let result = BranchAndBound::new().optimize(&w);
        let s = result.solution.expect("satisfiable");
        assert_eq!(s.value(vars[0]), &"c");
        assert_eq!(s.value(vars[1]), &"c");
        assert!((result.best_weight - 5.0).abs() < 1e-9);
        assert!(result.stats.nodes_visited > 0);
    }

    #[test]
    fn weights_default_when_unset() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![0, 1]);
        let b = net.add_variable("b", vec![0, 1]);
        net.add_constraint(a, b, vec![(0, 0), (1, 1)]).unwrap();
        let w = WeightedNetwork::new(net, 2.5);
        assert_eq!(w.weight_of(0, (0, 0)), 2.5);
        assert_eq!(w.weight_kernel().weight(0, 0, 0), 2.5);
        let result = BranchAndBound::new().optimize(&w);
        assert!((result.best_weight - 2.5).abs() < 1e-9);
    }

    #[test]
    fn unsatisfiable_weighted_network_has_no_solution() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![0]);
        let b = net.add_variable("b", vec![0]);
        net.add_constraint(a, b, vec![]).unwrap();
        let w = WeightedNetwork::new(net, 1.0);
        let result = BranchAndBound::new().optimize(&w);
        assert!(result.solution.is_none());
        assert_eq!(result.best_weight, 0.0);
    }

    #[test]
    fn assignment_weight_reflects_selected_pairs() {
        let (w, vars) = simple_weighted();
        let mut asg = Assignment::new(2);
        asg.assign(vars[0], 0);
        asg.assign(vars[1], 0);
        assert!((w.assignment_weight(&asg) - 1.0).abs() < 1e-9);
        asg.assign(vars[0], 1);
        asg.assign(vars[1], 1);
        assert!((w.assignment_weight(&asg) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn assignment_weight_ignores_unassigned_and_disallowed_pairs() {
        // A partial assignment only sums constraints whose *both* endpoints
        // are assigned; a disallowed pair contributes nothing.
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![0, 1]);
        let b = net.add_variable("b", vec![0, 1]);
        let c = net.add_variable("c", vec![0, 1]);
        net.add_constraint(a, b, vec![(0, 0)]).unwrap();
        net.add_constraint(b, c, vec![(0, 0), (1, 1)]).unwrap();
        let mut w = WeightedNetwork::new(net, 0.0);
        w.set_weight(a, b, &0, &0, 3.0).unwrap();
        w.set_weight(b, c, &0, &0, 4.0).unwrap();
        let mut asg = Assignment::new(3);
        asg.assign(a, 0);
        asg.assign(b, 0);
        // c unassigned: only the (a, b) constraint counts.
        assert_eq!(w.assignment_weight(&asg), 3.0);
        asg.assign(c, 0);
        assert_eq!(w.assignment_weight(&asg), 7.0);
        // A disallowed (a, b) pair contributes nothing even when assigned.
        asg.assign(a, 1);
        assert_eq!(w.assignment_weight(&asg), 4.0);
    }

    #[test]
    fn assignment_weight_matches_branch_and_bound_cost() {
        // Regression (ISSUE 5 satellite): the adjacency-based
        // assignment_weight must reproduce the BnB-reported cost exactly on
        // a planted instance.
        let spec = crate::random::RandomNetworkSpec {
            variables: 12,
            domain_size: 4,
            density: 0.5,
            tightness: 0.3,
            seed: 2025,
        };
        let (weighted, _) = crate::random::planted_weighted_network(&spec, 50.0, 10);
        let result = BranchAndBound::new().optimize(&weighted);
        let solution = result.solution.expect("planted instances are satisfiable");
        let mut asg = Assignment::new(weighted.network().variable_count());
        for var in weighted.network().variables() {
            asg.assign(var, solution.value_index(var));
        }
        assert_eq!(weighted.assignment_weight(&asg), result.best_weight);
    }

    #[test]
    fn set_weight_and_add_weight_return_typed_errors() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![0]);
        let b = net.add_variable("b", vec![0]);
        let c = net.add_variable("c", vec![0]);
        net.add_constraint(a, b, vec![(0, 0)]).unwrap();
        let unknown = VarId::new(9);
        let cases = [
            ((a, a, 0), CspError::SelfConstraint(a)),
            ((unknown, b, 0), CspError::UnknownVariable(unknown)),
            ((a, unknown, 0), CspError::UnknownVariable(unknown)),
            (
                (a, c, 0),
                CspError::NoConstraint {
                    first: a,
                    second: c,
                },
            ),
            (
                (a, b, 7),
                CspError::ValueNotInDomain {
                    variable: a,
                    value: "7".to_string(),
                },
            ),
        ];
        let mut w = WeightedNetwork::new(net, 0.0);
        for ((x, y, value), expected) in cases {
            let set = w.set_weight(x, y, &value, &0, 1.0);
            assert_eq!(set, Err(expected.clone()), "set_weight({x}, {y})");
            let add = w.add_weight(x, y, &value, &0, 1.0);
            assert_eq!(add, Err(expected), "add_weight({x}, {y})");
        }
        assert_eq!(w.set_weight(a, b, &0, &0, 1.0), Ok(()));
        assert_eq!(w.add_weight(b, a, &0, &0, 1.0), Ok(()));
        assert_eq!(w.weight_of(0, (0, 0)), 2.0);
    }

    #[test]
    fn weight_of_out_of_range_reads_the_default() {
        // The map-backed implementation returned the default for any
        // unknown pair; the dense tables must too (not alias another row).
        let (w, _) = simple_weighted(); // domains of size 2, default 0.0
        assert_eq!(w.weight_of(0, (0, 0)), 1.0, "in-range still works");
        assert_eq!(w.weight_of(0, (0, 2)), 0.0, "second index out of range");
        assert_eq!(w.weight_of(0, (5, 0)), 0.0, "first index out of range");
        assert_eq!(w.weight_of(9, (0, 0)), 0.0, "constraint out of range");
    }

    #[test]
    fn add_weight_accumulates() {
        let (mut w, vars) = simple_weighted();
        w.add_weight(vars[0], vars[1], &"r", &"r", 2.5).unwrap();
        assert_eq!(w.weight_of(0, (0, 0)), 3.5);
        w.add_weight(vars[1], vars[0], &"r", &"r", 0.5).unwrap();
        assert_eq!(w.weight_of(0, (0, 0)), 4.0);
        assert_eq!(w.weight_kernel().weight(0, 0, 0), 4.0);
    }

    #[test]
    fn set_weight_after_compiling_gives_the_clone_a_fresh_kernel() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![0, 1]);
        let b = net.add_variable("b", vec![0, 1]);
        let c = net.add_variable("c", vec![0, 1]);
        net.add_constraint(a, b, vec![(0, 0), (1, 1)]).unwrap();
        net.add_constraint(b, c, vec![(0, 1), (1, 0)]).unwrap();
        let w = WeightedNetwork::new(net, 0.0);
        let before = Arc::clone(w.weight_kernel());
        let mut clone = w.clone();
        assert!(clone.shares_weight_spine(&w));
        assert!(Arc::ptr_eq(&before, clone.weight_kernel()));
        clone.set_weight(a, b, &0, &0, 4.0).unwrap();
        assert!(!clone.shares_weight_spine(&w));
        assert!(clone.network().shares_storage(w.network()));
        let after = Arc::clone(clone.weight_kernel());
        assert!(!Arc::ptr_eq(&before, &after), "the clone compiled afresh");
        assert_eq!(after.weight(0, 0, 0), 4.0);
        assert_eq!(after.constraint(0).max_allowed(), 4.0);
        // The original keeps its kernel and its weights.
        assert!(Arc::ptr_eq(&before, w.weight_kernel()));
        assert_eq!(before.weight(0, 0, 0), 0.0);
        assert_eq!(w.weight_of(0, (0, 0)), 0.0);
        // Aggregates follow further mutations.
        clone.set_weight(a, b, &1, &1, 9.0).unwrap();
        let kernel = clone.weight_kernel();
        assert_eq!(kernel.constraint(0).max_allowed(), 9.0);
        assert_eq!(kernel.constraint(0).row_max(true, 0), 4.0);
        assert_eq!(kernel.constraint(0).row_max(false, 1), 9.0);
    }

    #[test]
    fn node_limit_is_respected() {
        let (w, _) = simple_weighted();
        let bb = BranchAndBound {
            node_limit: Some(1),
            ..BranchAndBound::default()
        };
        let result = bb.optimize(&w);
        assert!(result.stats.nodes_visited <= 2);
    }
}
