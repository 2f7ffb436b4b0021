//! Structural-sharing and view-correctness tests for the Arc-backed
//! network representation and its mask-based restricted views.
//!
//! Two properties are pinned down here:
//!
//! 1. clones and restricted views *share* storage (`Arc::ptr_eq`) instead
//!    of copying tables — a mask-based view shares **every** table and the
//!    compiled kernel, carrying only a domain-mask overlay,
//! 2. a restricted **view** solves exactly like a from-scratch
//!    **materialized** restriction (property-tested over random networks,
//!    node counts included).

use mlo_csp::random::{planted_weighted_network, satisfiable_network, RandomNetworkSpec};
use mlo_csp::{
    BranchAndBound, ConstraintNetwork, Scheme, SearchEngine, SearchLimits, VarId, WeightedNetwork,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Rebuilds the restriction of `net` from scratch — fresh variables, fresh
/// constraints, no shared storage — replicating the semantics the deep-copy
/// implementation used to have.  The view produced by
/// [`ConstraintNetwork::restricted`] must be indistinguishable from this.
fn materialized_restriction(
    net: &ConstraintNetwork<usize>,
    var: VarId,
    keep: &[usize],
) -> ConstraintNetwork<usize> {
    let mut out = ConstraintNetwork::new();
    for v in net.variables() {
        let values: Vec<usize> = if v == var {
            keep.iter().map(|&i| *net.domain(v).value(i)).collect()
        } else {
            net.domain(v).values().to_vec()
        };
        out.add_variable(net.name(v).to_string(), values);
    }
    let remap: HashMap<usize, usize> = keep
        .iter()
        .enumerate()
        .map(|(new, &old)| (old, new))
        .collect();
    for c in net.constraints() {
        let pairs: HashSet<(usize, usize)> = c
            .allowed_pairs()
            .iter()
            .filter_map(|&(a, b)| {
                let a = if c.first() == var { *remap.get(&a)? } else { a };
                let b = if c.second() == var {
                    *remap.get(&b)?
                } else {
                    b
                };
                Some((a, b))
            })
            .collect();
        out.add_constraint_by_index(c.first(), c.second(), pairs)
            .expect("remapped pairs are in range");
    }
    out
}

/// Copies the weights of `weighted` onto the materialized restriction,
/// remapping the restricted variable's indices independently of the view
/// code path under test.
fn materialized_weighted_restriction(
    weighted: &WeightedNetwork<usize>,
    var: VarId,
    keep: &[usize],
) -> WeightedNetwork<usize> {
    let net = weighted.network();
    let materialized_net = materialized_restriction(net, var, keep);
    let remap: HashMap<usize, usize> = keep
        .iter()
        .enumerate()
        .map(|(new, &old)| (old, new))
        .collect();
    let mut out = WeightedNetwork::new(materialized_net.clone(), 0.0);
    for (ci, c) in net.constraints().iter().enumerate() {
        for &(a, b) in c.allowed_pairs() {
            let weight = weighted.weight_of(ci, (a, b));
            let na = if c.first() == var {
                match remap.get(&a) {
                    Some(&n) => n,
                    None => continue,
                }
            } else {
                a
            };
            let nb = if c.second() == var {
                match remap.get(&b) {
                    Some(&n) => n,
                    None => continue,
                }
            } else {
                b
            };
            let va = *materialized_net.domain(c.first()).value(na);
            let vb = *materialized_net.domain(c.second()).value(nb);
            out.set_weight(c.first(), c.second(), &va, &vb, weight)
                .expect("surviving pairs are in the materialized network");
        }
    }
    out
}

#[test]
fn clones_and_views_share_storage() {
    let spec = RandomNetworkSpec {
        variables: 12,
        domain_size: 4,
        density: 0.5,
        tightness: 0.3,
        seed: 7,
    };
    let (net, _) = satisfiable_network(&spec);
    // A clone is the whole storage, shared.
    let clone = net.clone();
    assert!(net.shares_storage(&clone));
    assert!(Arc::ptr_eq(net.storage(), clone.storage()));
    // A mask-based restricted view shares the whole storage too — every
    // domain table, every constraint table and the compiled kernel; only
    // the mask overlay is new.
    let var = VarId::new(0);
    let shard = net.restricted(var, &[0, 1]).unwrap();
    assert!(shard.shares_storage(&net));
    for v in net.variables() {
        assert!(Arc::ptr_eq(net.domain_handle(v), shard.domain_handle(v)));
    }
    for ci in 0..net.constraint_count() {
        assert!(
            Arc::ptr_eq(net.constraint_handle(ci), shard.constraint_handle(ci)),
            "constraint {ci}: shared"
        );
    }
    assert!(Arc::ptr_eq(net.kernel(), shard.kernel()));
    assert!(shard.mask().is_some());
    assert_eq!(shard.live_values(var), vec![0, 1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A restricted view and a from-scratch materialized restriction are
    /// the same network as far as every search scheme can tell.
    #[test]
    fn restricted_views_solve_like_materialized_restrictions(
        variables in 3usize..10,
        domain in 2usize..5,
        density in 0.2f64..0.9,
        tightness in 0.1f64..0.7,
        seed in 0u64..500,
        var_pick in 0usize..10,
        keep_mask in 1usize..31,
    ) {
        let spec = RandomNetworkSpec { variables, domain_size: domain, density, tightness, seed };
        let net = spec.generate();
        let var = VarId::new(var_pick % variables);
        // A non-empty subset of the domain, in index order.
        let keep: Vec<usize> = (0..domain).filter(|i| keep_mask >> i & 1 == 1).collect();
        prop_assume!(!keep.is_empty());
        let view = net.restricted(var, &keep).unwrap();
        let materialized = materialized_restriction(&net, var, &keep);
        for scheme in [Scheme::Base, Scheme::Enhanced, Scheme::ForwardChecking, Scheme::FullPropagation] {
            let engine = SearchEngine::with_scheme(scheme);
            let mut rng_a = StdRng::seed_from_u64(99);
            let mut rng_b = StdRng::seed_from_u64(99);
            let from_view = engine.solve_with(&view, &mut rng_a, &SearchLimits::none());
            let from_scratch = engine.solve_with(&materialized, &mut rng_b, &SearchLimits::none());
            prop_assert_eq!(
                from_view.solution.as_ref().map(|s| s.values().to_vec()),
                from_scratch.solution.as_ref().map(|s| s.values().to_vec()),
                "scheme {} solution", scheme
            );
            prop_assert_eq!(from_view.stats.nodes_visited, from_scratch.stats.nodes_visited);
        }
    }

    /// The weighted form of the same property: branch and bound finds the
    /// identical optimum on the view and on the materialized restriction.
    #[test]
    fn weighted_views_optimize_like_materialized_restrictions(
        variables in 3usize..9,
        domain in 2usize..4,
        seed in 0u64..300,
        var_pick in 0usize..9,
        keep_mask in 1usize..15,
    ) {
        let spec = RandomNetworkSpec {
            variables,
            domain_size: domain,
            density: 0.6,
            tightness: 0.3,
            seed,
        };
        let (weighted, _) = planted_weighted_network(&spec, 40.0, 7);
        let var = VarId::new(var_pick % variables);
        let keep: Vec<usize> = (0..domain).filter(|i| keep_mask >> i & 1 == 1).collect();
        prop_assume!(!keep.is_empty());
        let view = weighted.restricted(var, &keep).unwrap();
        let materialized = materialized_weighted_restriction(&weighted, var, &keep);
        let from_view = BranchAndBound::new().optimize(&view);
        let from_scratch = BranchAndBound::new().optimize(&materialized);
        prop_assert_eq!(from_view.best_weight, from_scratch.best_weight);
        prop_assert_eq!(
            from_view.solution.as_ref().map(|s| s.values().to_vec()),
            from_scratch.solution.as_ref().map(|s| s.values().to_vec())
        );
    }
}
