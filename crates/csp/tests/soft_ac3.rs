//! Integration properties of the weighted bound-consistency propagator
//! ([`SoftAc3`]):
//!
//! * **soundness** — against a brute-force enumeration of every consistent
//!   complete assignment, the fixpoint never deletes a value that still
//!   participates in a completion at or above the incumbent (strictly
//!   better completions *and* ties must survive, which is what keeps the
//!   canonical tie-break independent of bound-arrival timing), and
//! * **transparency** — every weighted search path (sequential
//!   [`BranchAndBound`] and the work-stealing scheduler at 1/2/4/8
//!   workers) reports a bit-identical `best_weight` and the identical
//!   winning assignment with propagation on and off: the propagator may
//!   only remove subtrees the bound proves dead, never change what is
//!   found.
//!
//! The trailing `#[ignore]`d variants sweep the same properties at a
//! 256-case count; CI runs them in the ignored-proptests job via
//! `cargo test --release -p mlo-csp --test soft_ac3 -- --ignored`.

use mlo_csp::random::{planted_weighted_network, RandomNetworkSpec};
use mlo_csp::solver::SearchStats;
use mlo_csp::{
    Assignment, BranchAndBound, SearchLimits, SoftAc3, StealScheduler, VarId, WeightedNetwork,
    WorkerPool,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The worker counts the on/off transparency sweep covers.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A steal scheduler sharded over `workers` threads on its own pool.
fn scheduler(workers: usize) -> StealScheduler {
    let mut scheduler = StealScheduler::new().parallelism(workers);
    if workers > 1 {
        scheduler = scheduler.with_pool(Arc::new(WorkerPool::new(workers)));
    }
    scheduler
}

/// Brute-force sweep of every complete assignment: returns the global
/// optimum and, per `(variable, value)`, the best weight of any
/// *consistent* completion assigning that value (`NEG_INFINITY` when the
/// value appears in no consistent completion at all).
fn best_completions(weighted: &WeightedNetwork<usize>) -> (f64, Vec<Vec<f64>>) {
    let network = weighted.network();
    let kernel = network.kernel();
    let n = network.variable_count();
    let sizes: Vec<usize> = (0..n).map(|i| kernel.domain_size(VarId::new(i))).collect();
    let mut best = vec![Vec::new(); n];
    for (var, &size) in sizes.iter().enumerate() {
        best[var] = vec![f64::NEG_INFINITY; size];
    }
    let mut optimum = f64::NEG_INFINITY;
    let mut current = vec![0usize; n];
    let mut assignment = Assignment::new(n);
    loop {
        let consistent = (0..kernel.constraint_count()).all(|ci| {
            let c = kernel.constraint(ci);
            c.allows(current[c.first().index()], current[c.second().index()])
        });
        if consistent {
            for (var, &value) in current.iter().enumerate() {
                assignment.assign(VarId::new(var), value);
            }
            let weight = weighted.assignment_weight(&assignment);
            for (var, &value) in current.iter().enumerate() {
                if weight > best[var][value] {
                    best[var][value] = weight;
                }
                assignment.unassign(VarId::new(var));
            }
            if weight > optimum {
                optimum = weight;
            }
        }
        // Odometer step over the cross product of the domains.
        let mut depth = 0;
        loop {
            if depth == n {
                return (optimum, best);
            }
            current[depth] += 1;
            if current[depth] < sizes[depth] {
                break;
            }
            current[depth] = 0;
            depth += 1;
        }
    }
}

/// The soundness property: after one root fixpoint against `incumbent`,
/// every value whose best consistent completion is at or above the
/// incumbent must still be live.
fn assert_no_good_deleted(
    weighted: &WeightedNetwork<usize>,
    optimum: f64,
    best: &[Vec<f64>],
    incumbent: f64,
) {
    let network = weighted.network();
    let kernel = network.kernel();
    let mut soft = SoftAc3::new(network.kernel(), weighted.weight_kernel(), None);
    let mut stats = SearchStats::default();
    prop_assert!(
        soft.root_propagate(&mut stats).is_ok(),
        "satisfiable instances never wipe out at the root"
    );
    prop_assert!(
        soft.propagate(0.0, f64::NEG_INFINITY, incumbent, &mut stats)
            .is_ok(),
        "an incumbent at or below the optimum ({optimum}) cannot wipe a domain"
    );
    for (var, per_value) in best.iter().enumerate() {
        let var = VarId::new(var);
        for (value, &completion) in per_value.iter().enumerate() {
            // `NEG_INFINITY` marks a value with no consistent completion at
            // all: root hard-AC is free to delete it regardless of the
            // incumbent, so only finite completions are protected.
            if completion.is_finite() && completion >= incumbent {
                prop_assert!(
                    soft.is_live(var, value),
                    "deleted {var:?}={value} with completion {completion} >= \
                     incumbent {incumbent} (optimum {optimum})"
                );
            }
        }
        prop_assert!(kernel.domain_size(var) > 0);
    }
}

/// The transparency property: on every weighted search path the optimum
/// weight is bit-identical with propagation on and off, and within each
/// engine (sequential branch and bound, the steal scheduler at every
/// worker count) the winning assignment is identical too.  Winners are
/// only compared within an engine: on a weight tie, branch and bound keeps
/// the first optimum in its value order while the scheduler keeps the
/// lowest canonical key (value indices along the search order), and on
/// these noise-dominant instances the two picks do differ now and then —
/// but flipping propagation (or the steal worker count) must never change
/// a given engine's pick.
fn assert_on_off_identical(weighted: &WeightedNetwork<usize>) {
    fn values(solution: &Option<mlo_csp::Solution<usize>>) -> Option<Vec<usize>> {
        solution.as_ref().map(|s| s.values().to_vec())
    }
    let off = BranchAndBound::new().propagation(false).optimize(weighted);
    let on = BranchAndBound::new().optimize(weighted);
    prop_assert!(off.is_exhaustive() && on.is_exhaustive());
    let optimum_bits = off.best_weight.to_bits();
    prop_assert_eq!(
        on.best_weight.to_bits(),
        optimum_bits,
        "sequential branch and bound: propagation changed the optimum"
    );
    prop_assert_eq!(
        values(&on.solution),
        values(&off.solution),
        "sequential branch and bound: propagation changed the winner"
    );
    let steal_reference = values(
        &scheduler(1)
            .propagation(false)
            .optimize_detailed(weighted, &SearchLimits::none(), None)
            .result
            .solution,
    );
    for workers in WORKER_COUNTS {
        for propagation in [false, true] {
            let report = scheduler(workers)
                .propagation(propagation)
                .optimize_detailed(weighted, &SearchLimits::none(), None);
            prop_assert!(report.optimal);
            prop_assert_eq!(
                report.result.best_weight.to_bits(),
                optimum_bits,
                "steal scheduler diverged at {} workers (propagation: {})",
                workers,
                propagation
            );
            prop_assert_eq!(
                &values(&report.result.solution),
                &steal_reference,
                "steal winner diverged at {} workers (propagation: {})",
                workers,
                propagation
            );
        }
    }
}

/// A noise-dominant planted instance small enough to brute-force.
fn instance(variables: usize, seed: u64, bonus: f64) -> WeightedNetwork<usize> {
    let spec = RandomNetworkSpec {
        variables,
        domain_size: 3,
        density: 0.5,
        tightness: 0.2,
        seed,
    };
    planted_weighted_network(&spec, bonus, 8).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness vs brute force at several incumbent tightnesses: the
    /// fixpoint never deletes a value that still participates in a
    /// completion at or above the incumbent.
    #[test]
    fn propagation_never_deletes_a_value_on_a_winning_completion(
        variables in 4usize..10,
        seed in 0u64..400,
        bonus in 4u32..40,
        slack in 0u32..20,
    ) {
        let weighted = instance(variables, seed, f64::from(bonus));
        let (optimum, best) = best_completions(&weighted);
        prop_assume!(optimum.is_finite());
        for incumbent in [f64::NEG_INFINITY, optimum - f64::from(slack), optimum] {
            assert_no_good_deleted(&weighted, optimum, &best, incumbent);
        }
    }

    /// Transparency: propagation on/off is invisible in the reported
    /// optimum and winner on every weighted search path, at 1/2/4/8
    /// workers (integer weights, so `to_bits` equality is exact).
    #[test]
    fn propagation_on_off_results_are_bit_identical(
        variables in 4usize..11,
        seed in 0u64..400,
        bonus in 4u32..40,
    ) {
        let weighted = instance(variables, seed, f64::from(bonus));
        assert_on_off_identical(&weighted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `#[ignore]`d heavy variant of the brute-force soundness sweep.
    #[test]
    #[ignore = "heavy case count; CI runs it in the ignored-proptests job"]
    fn propagation_soundness_sweep(
        variables in 4usize..11,
        seed in 0u64..2_000,
        bonus in 4u32..60,
        slack in 0u32..30,
    ) {
        let weighted = instance(variables, seed, f64::from(bonus));
        let (optimum, best) = best_completions(&weighted);
        prop_assume!(optimum.is_finite());
        for incumbent in [f64::NEG_INFINITY, optimum - f64::from(slack), optimum] {
            assert_no_good_deleted(&weighted, optimum, &best, incumbent);
        }
    }

    /// `#[ignore]`d heavy variant of the on/off transparency sweep.
    #[test]
    #[ignore = "heavy case count; CI runs it in the ignored-proptests job"]
    fn propagation_transparency_sweep(
        variables in 4usize..12,
        seed in 0u64..2_000,
        bonus in 4u32..60,
    ) {
        let weighted = instance(variables, seed, f64::from(bonus));
        assert_on_off_identical(&weighted);
    }
}
