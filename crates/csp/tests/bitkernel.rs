//! Agreement tests between the bitset execution kernel and the `HashSet`
//! reference representation.
//!
//! The kernel is a *compiled* form of the constraint tables; these
//! property tests pin down that compilation is faithful on random
//! networks:
//!
//! * `allows` / conflict sets computed through the kernel equal the
//!   [`BinaryConstraint`] hash-probe answers,
//! * the kernel's precomputed per-value support counts equal reference
//!   counts,
//! * bitset AC-3 prunes exactly the values an independently written
//!   `HashSet`-based revise loop prunes,
//! * a network or weight mutated **after** its kernel was compiled drops
//!   that kernel: the next compile is bit-identical to a from-scratch
//!   build, and the parent's kernel is untouched (for the bit kernel and
//!   the compiled [`WeightKernel`] alike).
//!
//! The heavier `_heavy` variants re-run the mutation proptests at much
//! larger case counts; they are `#[ignore]`d so the tier-1 suite stays
//! fast, and CI runs them in a dedicated job via `-- --ignored`.

use mlo_csp::random::{planted_weighted_network, RandomNetworkSpec};
use mlo_csp::solver::{ac3_kernel, Ac3Outcome, SearchStats};
use mlo_csp::{Assignment, BitKernel, ConstraintNetwork, VarId, WeightedNetwork};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

fn random_net(
    variables: usize,
    domain: usize,
    density: f64,
    tightness: f64,
    seed: u64,
) -> ConstraintNetwork<usize> {
    RandomNetworkSpec {
        variables,
        domain_size: domain,
        density,
        tightness,
        seed,
    }
    .generate()
}

/// Reference AC-3 written directly against the `HashSet` pair tables —
/// deliberately *not* sharing any code with the kernel implementation.
fn reference_ac3(net: &ConstraintNetwork<usize>, live: &mut [Vec<usize>]) -> Option<VarId> {
    use std::collections::VecDeque;
    let mut queue: VecDeque<(VarId, VarId)> = VecDeque::new();
    for c in net.constraints() {
        queue.push_back((c.first(), c.second()));
        queue.push_back((c.second(), c.first()));
    }
    while let Some((x, y)) = queue.pop_front() {
        let constraint = net.constraint_between(x, y).expect("queued arc");
        let y_values = live[y.index()].clone();
        let before = live[x.index()].len();
        live[x.index()].retain(|&xv| constraint.has_support(x, xv, &y_values));
        if live[x.index()].is_empty() {
            return Some(x);
        }
        if live[x.index()].len() != before {
            for &ci in net.constraints_of(x) {
                let z = net.constraint(ci).other(x).expect("adjacency");
                if z != y {
                    queue.push_back((z, x));
                }
            }
        }
    }
    None
}

/// Asserts two kernels are bit-identical as far as the public API can
/// observe: shapes, adjacency, every bit-matrix row in both orientations
/// and every support count.
fn assert_kernels_equivalent(a: &BitKernel, b: &BitKernel) {
    assert_eq!(a.variable_count(), b.variable_count());
    for v in (0..a.variable_count()).map(VarId::new) {
        assert_eq!(a.domain_size(v), b.domain_size(v), "domain of {v}");
        assert_eq!(a.edges(v), b.edges(v), "adjacency of {v}");
    }
    assert_eq!(a.constraint_count(), b.constraint_count());
    for ci in 0..a.constraint_count() {
        let (ca, cb) = (a.constraint(ci), b.constraint(ci));
        assert_eq!(ca.first(), cb.first(), "constraint {ci}");
        assert_eq!(ca.second(), cb.second(), "constraint {ci}");
        for value in 0..a.domain_size(ca.first()) {
            assert_eq!(ca.row(true, value), cb.row(true, value), "fwd row {value}");
            assert_eq!(ca.full_support(true, value), cb.full_support(true, value));
        }
        for value in 0..a.domain_size(ca.second()) {
            assert_eq!(
                ca.row(false, value),
                cb.row(false, value),
                "rev row {value}"
            );
            assert_eq!(ca.full_support(false, value), cb.full_support(false, value));
        }
    }
}

/// Rebuilds `net` from scratch through the public builder API (fresh
/// storage, no pre-compiled kernel) so its kernel is a from-scratch compile.
fn rebuild(net: &ConstraintNetwork<usize>) -> ConstraintNetwork<usize> {
    let mut out = ConstraintNetwork::new();
    for v in net.variables() {
        out.add_variable(net.name(v).to_string(), net.domain(v).values().to_vec());
    }
    for c in net.constraints() {
        out.add_constraint_by_index(c.first(), c.second(), c.allowed_pairs().clone())
            .expect("rebuilt pairs are in range");
    }
    out
}

/// The drop-on-mutation property, shared by the fast and the `#[ignore]`d
/// heavy proptest: compile, mutate (a new variable, a merge into an
/// existing constraint or a new constraint), and require the next kernel
/// to be bit-identical to a from-scratch compile while the parent keeps
/// its kernel.
#[allow(clippy::too_many_arguments)]
fn check_mutation_recompiles_from_scratch(
    variables: usize,
    domain: usize,
    density: f64,
    tightness: f64,
    seed: u64,
    kind: usize,
    pick_a: usize,
    pick_b: usize,
) {
    let parent = random_net(variables, domain, density, tightness, seed);
    let mut net = parent.clone();
    let before = Arc::clone(net.kernel()); // compile before mutating
    let a = VarId::new(pick_a % variables);
    let b = VarId::new(pick_b % variables);
    match kind % 3 {
        0 => {
            net.add_variable("extra", (0..domain.max(1)).collect());
        }
        _ if a == b => return, // a self-constraint is rejected; nothing to test
        _ => {
            let mut pairs = HashSet::new();
            pairs.insert((pick_a % net.domain(a).len(), pick_b % net.domain(b).len()));
            pairs.insert((pick_b % net.domain(a).len(), pick_a % net.domain(b).len()));
            net.add_constraint_by_index(a, b, pairs)
                .expect("indices are in range");
        }
    }
    let fresh = rebuild(&net);
    assert_kernels_equivalent(net.kernel(), fresh.kernel());
    assert!(Arc::ptr_eq(&before, parent.kernel()), "parent unaffected");
    assert_kernels_equivalent(&before, rebuild(&parent).kernel());
}

/// Reference aggregates computed straight from the `HashSet` pair tables —
/// deliberately sharing no code with the [`WeightKernel`] compiler.
fn reference_row_max(
    weighted: &WeightedNetwork<usize>,
    ci: usize,
    var_is_first: bool,
    value: usize,
) -> f64 {
    let c = &weighted.network().constraints()[ci];
    c.allowed_pairs()
        .iter()
        .filter(|&&(a, b)| if var_is_first { a == value } else { b == value })
        .map(|&pair| weighted.weight_of(ci, pair))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// The weight-kernel agreement property shared by the fast and heavy
/// variants: every dense read equals the builder-side `weight_of`, and the
/// per-value aggregates equal reference maxima over the allowed pairs.
fn check_weight_kernel_agreement(variables: usize, domain: usize, seed: u64) {
    let spec = RandomNetworkSpec {
        variables,
        domain_size: domain,
        density: 0.6,
        tightness: 0.3,
        seed,
    };
    let (weighted, _) = planted_weighted_network(&spec, 40.0, 7);
    let kernel = weighted.weight_kernel();
    assert_eq!(
        kernel.constraint_count(),
        weighted.network().constraint_count()
    );
    assert_eq!(kernel.default_weight(), 0.0);
    for (ci, c) in weighted.network().constraints().iter().enumerate() {
        let first_size = weighted.network().domain(c.first()).len();
        let second_size = weighted.network().domain(c.second()).len();
        let mut max_allowed = f64::NEG_INFINITY;
        for a in 0..first_size {
            for b in 0..second_size {
                assert_eq!(
                    kernel.weight(ci, a, b),
                    weighted.weight_of(ci, (a, b)),
                    "constraint {ci} pair ({a}, {b})"
                );
                // Oriented reads agree in both directions.
                let wc = kernel.constraint(ci);
                assert_eq!(wc.oriented(true, a, b), wc.get(a, b));
                assert_eq!(wc.oriented(false, b, a), wc.get(a, b));
                if c.allowed_pairs().contains(&(a, b)) {
                    max_allowed = max_allowed.max(weighted.weight_of(ci, (a, b)));
                }
            }
        }
        for a in 0..first_size {
            assert_eq!(
                kernel.constraint(ci).row_max(true, a),
                reference_row_max(&weighted, ci, true, a),
                "row max of first = {a}"
            );
        }
        for b in 0..second_size {
            assert_eq!(
                kernel.constraint(ci).row_max(false, b),
                reference_row_max(&weighted, ci, false, b),
                "row max of second = {b}"
            );
        }
        assert_eq!(kernel.constraint(ci).max_allowed(), max_allowed);
    }
}

/// The weighted drop-on-mutation property: with the weight kernel
/// compiled, a `set_weight` and then an `add_weight` must each leave a
/// kernel identical to a from-scratch compile of the same weights, while
/// the parent keeps its kernel.
fn check_weight_mutation_recompiles_from_scratch(
    variables: usize,
    domain: usize,
    seed: u64,
    pick: usize,
) {
    let spec = RandomNetworkSpec {
        variables,
        domain_size: domain,
        density: 0.6,
        tightness: 0.3,
        seed,
    };
    let (parent, _) = planted_weighted_network(&spec, 40.0, 7);
    if parent.network().constraint_count() == 0 {
        return;
    }
    let before = Arc::clone(parent.weight_kernel());
    let mut weighted = parent.clone();
    for step in 0..2 {
        // Compile, then mutate one arbitrary allowed pair of one arbitrary
        // constraint.
        weighted.weight_kernel();
        let pick = pick.wrapping_mul(step + 1);
        let ci = pick % weighted.network().constraint_count();
        let c = weighted.network().constraint(ci);
        let (first, second) = c.scope();
        let pair = {
            let mut pairs: Vec<_> = c.allowed_pairs().iter().copied().collect();
            pairs.sort_unstable();
            pairs[pick % pairs.len().max(1)]
        };
        let (va, vb) = (
            *weighted.network().domain(first).value(pair.0),
            *weighted.network().domain(second).value(pair.1),
        );
        let mutated = if step == 0 {
            weighted.set_weight(first, second, &va, &vb, 123.5)
        } else {
            weighted.add_weight(second, first, &vb, &va, 7.25)
        };
        mutated.expect("allowed pairs are in both domains");
        assert_weight_kernel_matches_a_fresh_compile(&weighted);
    }
    assert!(
        Arc::ptr_eq(&before, parent.weight_kernel()),
        "parent spine unaffected"
    );
    assert_weight_kernel_matches_a_fresh_compile(&parent);
}

/// Compares `weighted`'s kernel with the kernel of a fresh spine into
/// which every weight of `weighted` was replayed.
fn assert_weight_kernel_matches_a_fresh_compile(weighted: &WeightedNetwork<usize>) {
    let kernel = weighted.weight_kernel();
    let mut fresh = WeightedNetwork::new(weighted.network().clone(), 0.0);
    for (cj, c) in weighted.network().constraints().iter().enumerate() {
        for &(a, b) in c.allowed_pairs() {
            let (va, vb) = (
                *weighted.network().domain(c.first()).value(a),
                *weighted.network().domain(c.second()).value(b),
            );
            fresh
                .set_weight(
                    c.first(),
                    c.second(),
                    &va,
                    &vb,
                    weighted.weight_of(cj, (a, b)),
                )
                .expect("replayed pairs are valid");
        }
    }
    let scratch = fresh.weight_kernel();
    for cj in 0..kernel.constraint_count() {
        let c = weighted.network().constraint(cj);
        let first_size = weighted.network().domain(c.first()).len();
        let second_size = weighted.network().domain(c.second()).len();
        for a in 0..first_size {
            for b in 0..second_size {
                // Unset (disallowed) pairs may differ only when the scratch
                // replay never materialized them — both read the default.
                assert_eq!(
                    kernel.weight(cj, a, b),
                    scratch.weight(cj, a, b),
                    "constraint {cj} pair ({a}, {b})"
                );
            }
            assert_eq!(
                kernel.constraint(cj).row_max(true, a),
                scratch.constraint(cj).row_max(true, a)
            );
        }
        for b in 0..second_size {
            assert_eq!(
                kernel.constraint(cj).row_max(false, b),
                scratch.constraint(cj).row_max(false, b)
            );
        }
        assert_eq!(
            kernel.constraint(cj).max_allowed(),
            scratch.constraint(cj).max_allowed()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A network mutated after compiling compiles a kernel bit-identical
    /// to a from-scratch build; its parent keeps the old kernel.
    #[test]
    fn network_mutated_after_compiling_recompiles_from_scratch(
        variables in 2usize..9,
        domain in 1usize..6,
        density in 0.2f64..1.0,
        tightness in 0.0f64..0.9,
        seed in 0u64..1000,
        kind in 0usize..3,
        pick_a in 0usize..64,
        pick_b in 0usize..64,
    ) {
        check_mutation_recompiles_from_scratch(
            variables, domain, density, tightness, seed, kind, pick_a, pick_b,
        );
    }

    /// Dense weight-kernel reads and aggregates equal the builder-side
    /// `weight_of` and reference maxima over the allowed pairs.
    #[test]
    fn weight_kernel_matches_the_reference(
        variables in 2usize..8,
        domain in 2usize..5,
        seed in 0u64..1000,
    ) {
        check_weight_kernel_agreement(variables, domain, seed);
    }

    /// A `set_weight` and then an `add_weight` after compiling each give a
    /// weight kernel equal to a from-scratch compile; the parent keeps its
    /// kernel.
    #[test]
    fn weights_mutated_after_compiling_recompile_from_scratch(
        variables in 2usize..8,
        domain in 2usize..5,
        seed in 0u64..1000,
        pick in 0usize..1024,
    ) {
        check_weight_mutation_recompiles_from_scratch(variables, domain, seed, pick);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Heavy (nightly-style) variant of
    /// [`network_mutated_after_compiling_recompiles_from_scratch`]: larger
    /// networks, many more cases.  Run with `cargo test -p mlo-csp --test
    /// bitkernel -- --ignored`.
    #[test]
    #[ignore = "heavy case count; CI runs it in the ignored-proptests job"]
    fn network_mutated_after_compiling_recompiles_from_scratch_heavy(
        variables in 2usize..14,
        domain in 1usize..8,
        density in 0.1f64..1.0,
        tightness in 0.0f64..0.95,
        seed in 0u64..100_000,
        kind in 0usize..3,
        pick_a in 0usize..256,
        pick_b in 0usize..256,
    ) {
        check_mutation_recompiles_from_scratch(
            variables, domain, density, tightness, seed, kind, pick_a, pick_b,
        );
    }

    /// Heavy variant of [`weight_kernel_matches_the_reference`].
    #[test]
    #[ignore = "heavy case count; CI runs it in the ignored-proptests job"]
    fn weight_kernel_matches_the_reference_heavy(
        variables in 2usize..11,
        domain in 2usize..7,
        seed in 0u64..100_000,
    ) {
        check_weight_kernel_agreement(variables, domain, seed);
    }

    /// Heavy variant of
    /// [`weights_mutated_after_compiling_recompile_from_scratch`].
    #[test]
    #[ignore = "heavy case count; CI runs it in the ignored-proptests job"]
    fn weights_mutated_after_compiling_recompile_from_scratch_heavy(
        variables in 2usize..11,
        domain in 2usize..7,
        seed in 0u64..100_000,
        pick in 0usize..65_536,
    ) {
        check_weight_mutation_recompiles_from_scratch(variables, domain, seed, pick);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every kernel bit answers exactly like the `HashSet` probe, in both
    /// orientations, and the precomputed support counts match reference
    /// counts.
    #[test]
    fn kernel_allows_and_support_counts_match_the_reference(
        variables in 2usize..9,
        domain in 1usize..6,
        density in 0.2f64..1.0,
        tightness in 0.0f64..0.9,
        seed in 0u64..1000,
    ) {
        let net = random_net(variables, domain, density, tightness, seed);
        let kernel = net.kernel();
        prop_assert_eq!(kernel.variable_count(), net.variable_count());
        prop_assert_eq!(kernel.constraint_count(), net.constraint_count());
        for (ci, c) in net.constraints().iter().enumerate() {
            let (first, second) = c.scope();
            let full: Vec<usize> = (0..net.domain(second).len()).collect();
            let full_first: Vec<usize> = (0..net.domain(first).len()).collect();
            for a in 0..net.domain(first).len() {
                for b in 0..net.domain(second).len() {
                    prop_assert_eq!(
                        c.allows(first, a, second, b),
                        kernel.allows(ci, first, a, b),
                        "constraint {} pair ({}, {})", ci, a, b
                    );
                    prop_assert_eq!(
                        c.allows(second, b, first, a),
                        kernel.allows(ci, second, b, a)
                    );
                }
                prop_assert_eq!(
                    c.support_count(first, a, &full) as u32,
                    kernel.constraint(ci).full_support(true, a),
                    "support of first={}", a
                );
            }
            for b in 0..net.domain(second).len() {
                prop_assert_eq!(
                    c.support_count(second, b, &full_first) as u32,
                    kernel.constraint(ci).full_support(false, b)
                );
            }
        }
    }

    /// Kernel conflict sets equal the network's `HashSet`-probing
    /// `conflicts_with` on random partial assignments.
    #[test]
    fn kernel_conflict_sets_match_conflicts_with(
        variables in 2usize..10,
        domain in 1usize..5,
        density in 0.2f64..1.0,
        tightness in 0.1f64..0.8,
        seed in 0u64..1000,
    ) {
        let net = random_net(variables, domain, density, tightness, seed);
        let kernel = net.kernel();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        // A random partial assignment (~half the variables).
        let mut assignment = Assignment::new(net.variable_count());
        for v in net.variables() {
            if rng.gen_range(0..2) == 0 {
                assignment.assign(v, rng.gen_range(0..net.domain(v).len()));
            }
        }
        for var in net.variables() {
            if assignment.is_assigned(var) {
                continue;
            }
            for value in 0..net.domain(var).len() {
                let mut reference_checks = 0u64;
                let mut reference =
                    net.conflicts_with(&assignment, var, value, &mut reference_checks);
                let mut kernel_checks = 0u64;
                let mut from_kernel = Vec::new();
                kernel.collect_conflicts(
                    &assignment,
                    var,
                    value,
                    &mut kernel_checks,
                    &mut from_kernel,
                );
                reference.sort();
                from_kernel.sort();
                let conflicted = !from_kernel.is_empty();
                prop_assert_eq!(reference, from_kernel, "var {} value {}", var, value);
                prop_assert_eq!(reference_checks, kernel_checks);
                // The early-exit form agrees on the boolean answer.
                let mut any_checks = 0u64;
                let any = kernel.conflicts_any(&assignment, var, value, &mut any_checks);
                prop_assert_eq!(any, conflicted);
            }
        }
    }

    /// Bitset AC-3 prunes exactly what the reference `HashSet` revise loop
    /// prunes (same surviving values, same wipeout verdict).
    #[test]
    fn bitset_ac3_matches_reference_revise(
        variables in 2usize..10,
        domain in 1usize..6,
        density in 0.3f64..1.0,
        tightness in 0.2f64..0.9,
        seed in 0u64..1000,
    ) {
        let net = random_net(variables, domain, density, tightness, seed);
        let full: Vec<Vec<usize>> = net
            .variables()
            .map(|v| (0..net.domain(v).len()).collect())
            .collect();
        let mut reference_live = full;
        let reference_wipeout = reference_ac3(&net, &mut reference_live).is_some();
        let kernel = net.kernel();
        let mut domains = kernel.full_domains();
        let mut stats = SearchStats::default();
        let kernel_wipeout = matches!(
            ac3_kernel(kernel, &mut domains, &mut stats),
            Ac3Outcome::Wipeout(_)
        );
        let kernel_live: Vec<Vec<usize>> =
            net.variables().map(|v| domains.live_values(v)).collect();
        prop_assert_eq!(reference_wipeout, kernel_wipeout);
        if !kernel_wipeout {
            // Without a wipeout, AC-3 has a unique fixpoint: the surviving
            // values must be identical (both representations report them in
            // ascending order).
            prop_assert_eq!(reference_live, kernel_live);
            prop_assert!(stats.consistency_checks > 0 || net.constraint_count() == 0);
        }
    }

    /// Live spans and bit-matrix rows are `size.div_ceil(64).max(1)` words
    /// long, and the bits above each domain boundary stay zero through
    /// restriction and AC-3 pruning: a phantom live value there would
    /// corrupt every count.
    #[test]
    fn live_spans_never_leak_phantom_values(
        variables in 2usize..8,
        domain in prop_oneof![1usize..9, 63usize..67, 127usize..131],
        density in 0.2f64..0.9,
        tightness in 0.1f64..0.9,
        seed in 0u64..500,
    ) {
        let network = random_net(variables, domain, density, tightness, seed);
        let kernel = network.kernel().clone();
        let span = |v: VarId| kernel.domain_size(v).div_ceil(64).max(1);
        for (ci, c) in network.constraints().iter().enumerate() {
            let compiled = kernel.constraint(ci);
            prop_assert_eq!(compiled.row(true, 0).len(), span(c.second()));
            prop_assert_eq!(compiled.row(false, 0).len(), span(c.first()));
            prop_assert_eq!(compiled.support_nonzero(true).len(), span(c.first()));
            prop_assert_eq!(compiled.support_nonzero(false).len(), span(c.second()));
        }
        let mut live = kernel.full_domains();
        let mut stats = SearchStats::default();
        ac3_kernel(&kernel, &mut live, &mut stats);
        // Restrict one variable to a single value and re-propagate: the
        // restriction path (`restrict_to`) writes fresh word masks.
        let target = VarId::new(seed as usize % variables);
        live.restrict_to(target, &[0]);
        ac3_kernel(&kernel, &mut live, &mut stats);
        for v in network.variables() {
            let size = kernel.domain_size(v);
            let words = live.words(v);
            prop_assert_eq!(words.len(), span(v), "span of {:?}", v);
            if !size.is_multiple_of(64) {
                let dead = words[size / 64] >> (size % 64);
                prop_assert_eq!(dead, 0, "phantom bits above the domain boundary of {:?}", v);
            }
        }
    }
}
