//! Reproducible random constraint networks.
//!
//! Used by the property-based tests (every solver must agree with a brute
//! force oracle) and by the scaling benchmarks that go beyond the paper's
//! five fixed benchmarks.

use crate::network::{ConstraintNetwork, VarId};
use crate::weighted::WeightedNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Parameters of the classic random binary-CSP model `<n, d, p1, p2>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomNetworkSpec {
    /// Number of variables.
    pub variables: usize,
    /// Domain size of every variable.
    pub domain_size: usize,
    /// Constraint density: probability that a pair of variables is
    /// constrained (0.0–1.0).
    pub density: f64,
    /// Constraint tightness: fraction of value pairs *forbidden* by each
    /// constraint (0.0 = everything allowed, 1.0 = nothing allowed).
    pub tightness: f64,
    /// RNG seed; equal specs with equal seeds build identical networks.
    pub seed: u64,
}

impl Default for RandomNetworkSpec {
    fn default() -> Self {
        RandomNetworkSpec {
            variables: 10,
            domain_size: 4,
            density: 0.4,
            tightness: 0.3,
            seed: 1,
        }
    }
}

impl RandomNetworkSpec {
    /// Generates the network described by this specification.
    ///
    /// Values are plain `usize` indices (0..domain_size); the layout crate
    /// has its own, semantically meaningful generator.
    ///
    /// # Panics
    ///
    /// Panics if `density` or `tightness` is outside `[0, 1]`.
    pub fn generate(&self) -> ConstraintNetwork<usize> {
        assert!(
            (0.0..=1.0).contains(&self.density),
            "density must be in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.tightness),
            "tightness must be in [0,1]"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut net = ConstraintNetwork::new();
        let vars: Vec<VarId> = (0..self.variables)
            .map(|i| net.add_variable(format!("v{i}"), (0..self.domain_size).collect()))
            .collect();
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                if rng.gen::<f64>() >= self.density {
                    continue;
                }
                let mut allowed = HashSet::new();
                for a in 0..self.domain_size {
                    for b in 0..self.domain_size {
                        if rng.gen::<f64>() >= self.tightness {
                            allowed.insert((a, b));
                        }
                    }
                }
                net.add_constraint_by_index(vars[i], vars[j], allowed)
                    .expect("indices are in range by construction");
            }
        }
        net
    }
}

/// Generates a random network that is *guaranteed satisfiable*: a hidden
/// solution is planted and every constraint is forced to allow it.
///
/// This mirrors how layout networks behave in practice (the original layout
/// of the program is always one consistent assignment) and gives benchmarks
/// a non-trivial but solvable search.
pub fn satisfiable_network(spec: &RandomNetworkSpec) -> (ConstraintNetwork<usize>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5EED);
    let planted: Vec<usize> = (0..spec.variables)
        .map(|_| rng.gen_range(0..spec.domain_size.max(1)))
        .collect();
    let mut net = ConstraintNetwork::new();
    let vars: Vec<VarId> = (0..spec.variables)
        .map(|i| net.add_variable(format!("v{i}"), (0..spec.domain_size).collect()))
        .collect();
    for i in 0..vars.len() {
        for j in (i + 1)..vars.len() {
            if rng.gen::<f64>() >= spec.density {
                continue;
            }
            let mut allowed = HashSet::new();
            allowed.insert((planted[i], planted[j]));
            for a in 0..spec.domain_size {
                for b in 0..spec.domain_size {
                    if rng.gen::<f64>() >= spec.tightness {
                        allowed.insert((a, b));
                    }
                }
            }
            net.add_constraint_by_index(vars[i], vars[j], allowed)
                .expect("indices are in range by construction");
        }
    }
    (net, planted)
}

/// Generates a planted-satisfiable **weighted** network: the hard network
/// comes from [`satisfiable_network`], every planted pair weighs
/// `planted_bonus`, and every other allowed pair gets a small random
/// integer weight in `0..noise_levels`.
///
/// With `planted_bonus` well above `noise_levels` the planted assignment is
/// the unique optimum, which makes these instances ideal for exercising
/// (and perf-gating) parallel branch and bound: integer weights keep
/// every weight sum exact, so results are bit-comparable across thread
/// counts.
pub fn planted_weighted_network(
    spec: &RandomNetworkSpec,
    planted_bonus: f64,
    noise_levels: u32,
) -> (WeightedNetwork<usize>, Vec<usize>) {
    let (net, planted) = satisfiable_network(spec);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x0DD5_EED5);
    let mut weighted = WeightedNetwork::new(net, 0.0);
    let network = weighted.network().clone();
    for c in network.constraints() {
        // `allowed_pairs` is a HashSet whose iteration order varies per
        // process; noise draws are consumed in pair order, so the pairs
        // must be walked in a canonical order or the "fixed seed" would
        // still yield a different instance on every run.
        let mut pairs: Vec<(usize, usize)> = c.allowed_pairs().iter().copied().collect();
        pairs.sort_unstable();
        for (a, b) in pairs {
            let weight = if planted[c.first().index()] == a && planted[c.second().index()] == b {
                planted_bonus
            } else {
                rng.gen_range(0..noise_levels.max(1)) as f64
            };
            let va = *network.domain(c.first()).value(a);
            let vb = *network.domain(c.second()).value(b);
            weighted
                .set_weight(c.first(), c.second(), &va, &vb, weight)
                .expect("pairs come from the network itself");
        }
    }
    (weighted, planted)
}

/// Generates the pigeonhole network `PHP(holes + 1, holes)`: `holes + 1`
/// variables (pigeons), each ranging over `holes` values, pairwise
/// constrained to differ.
///
/// By the pigeonhole principle the network is **provably unsatisfiable**,
/// and any backtracking refutation must exhaust a factorially large tree —
/// the canonical hard UNSAT-proof workload.  Unlike random instances the
/// tree has no lucky early exits, which makes these instances ideal for
/// benchmarking parallel proof sharding: the work partitions evenly and the
/// node total is schedule-independent.
///
/// `holes == 0` yields a single variable with an empty domain (still
/// unsatisfiable, trivially).
pub fn pigeonhole_network(holes: usize) -> ConstraintNetwork<usize> {
    let mut net = ConstraintNetwork::new();
    let vars: Vec<VarId> = (0..=holes)
        .map(|i| net.add_variable(format!("pigeon{i}"), (0..holes).collect()))
        .collect();
    let mut not_equal = HashSet::new();
    for a in 0..holes {
        for b in 0..holes {
            if a != b {
                not_equal.insert((a, b));
            }
        }
    }
    for i in 0..vars.len() {
        for j in (i + 1)..vars.len() {
            net.add_constraint_by_index(vars[i], vars[j], not_equal.clone())
                .expect("indices are in range by construction");
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::solver::{Scheme, SearchEngine};

    #[test]
    fn pigeonhole_is_unsatisfiable() {
        for holes in [2usize, 3, 4] {
            let net = pigeonhole_network(holes);
            assert_eq!(net.variable_count(), holes + 1);
            assert_eq!(net.constraint_count(), (holes + 1) * holes / 2);
            let result = SearchEngine::with_scheme(Scheme::Enhanced).solve(&net);
            assert!(
                result.proves_unsatisfiable(),
                "PHP({}) must be UNSAT",
                holes
            );
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let spec = RandomNetworkSpec::default();
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.variable_count(), b.variable_count());
        assert_eq!(a.constraint_count(), b.constraint_count());
        let different_seed = RandomNetworkSpec { seed: 2, ..spec };
        // Very likely different; at minimum it must still be well formed.
        let c = different_seed.generate();
        assert_eq!(c.variable_count(), spec.variables);
    }

    #[test]
    fn planted_weights_are_reproducible_pair_by_pair() {
        // Noise draws must not depend on HashSet iteration order (which
        // varies between generator calls, let alone processes): the same
        // spec must weigh every allowed pair identically every time, or
        // "fixed seed" benchmark instances silently change per run.
        let spec = RandomNetworkSpec {
            variables: 10,
            domain_size: 3,
            density: 0.5,
            tightness: 0.2,
            seed: 77,
        };
        let (a, planted_a) = planted_weighted_network(&spec, 25.0, 9);
        let (b, planted_b) = planted_weighted_network(&spec, 25.0, 9);
        assert_eq!(planted_a, planted_b);
        for (ci, c) in a.network().constraints().iter().enumerate() {
            for &pair in c.allowed_pairs() {
                assert_eq!(
                    a.weight_of(ci, pair).to_bits(),
                    b.weight_of(ci, pair).to_bits(),
                    "constraint {ci} pair {pair:?} drew different noise"
                );
            }
        }
    }

    #[test]
    fn spec_controls_shape() {
        let spec = RandomNetworkSpec {
            variables: 6,
            domain_size: 3,
            density: 1.0,
            tightness: 0.0,
            seed: 9,
        };
        let net = spec.generate();
        assert_eq!(net.variable_count(), 6);
        // Full density: every pair is constrained.
        assert_eq!(net.constraint_count(), 6 * 5 / 2);
        // Zero tightness: every pair of values allowed.
        for c in net.constraints() {
            assert_eq!(c.pair_count(), 9);
        }
        assert_eq!(net.total_domain_size(), 18);
    }

    #[test]
    fn planted_solution_satisfies_network() {
        let spec = RandomNetworkSpec {
            variables: 12,
            domain_size: 4,
            density: 0.6,
            tightness: 0.5,
            seed: 42,
        };
        let (net, planted) = satisfiable_network(&spec);
        let mut asg = Assignment::new(net.variable_count());
        for (i, &v) in planted.iter().enumerate() {
            asg.assign(VarId::new(i), v);
        }
        assert_eq!(net.is_solution(&asg), Ok(true));
        // And the solver finds some solution.
        let result = SearchEngine::with_scheme(Scheme::Enhanced).solve(&net);
        assert!(result.is_satisfiable());
    }

    #[test]
    fn planted_weighted_network_has_the_planted_optimum() {
        let spec = RandomNetworkSpec {
            variables: 10,
            domain_size: 3,
            density: 0.5,
            tightness: 0.2,
            seed: 77,
        };
        let (weighted, planted) = planted_weighted_network(&spec, 50.0, 10);
        let mut asg = Assignment::new(weighted.network().variable_count());
        for (i, &v) in planted.iter().enumerate() {
            asg.assign(VarId::new(i), v);
        }
        assert_eq!(weighted.network().is_solution(&asg), Ok(true));
        let result = crate::weighted::BranchAndBound::new().optimize(&weighted);
        let solution = result.solution.expect("planted instances are satisfiable");
        let planted_weight = weighted.assignment_weight(&asg);
        assert!(
            result.best_weight >= planted_weight,
            "optimum {} below the planted weight {}",
            result.best_weight,
            planted_weight
        );
        // The bonus dominates the noise, so the optimizer lands on the
        // planted assignment.
        let values: Vec<usize> = solution.values().to_vec();
        assert_eq!(values, planted);
    }

    #[test]
    #[should_panic(expected = "density")]
    fn invalid_density_panics() {
        let spec = RandomNetworkSpec {
            density: 1.5,
            ..RandomNetworkSpec::default()
        };
        let _ = spec.generate();
    }
}
