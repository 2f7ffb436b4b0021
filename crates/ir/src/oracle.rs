//! The matrix path that [`DependenceAnalysis::legal_orders`] replaced, kept
//! as a test oracle: every permutation of [`all_permutations`] becomes a
//! [`LoopTransform`] and is kept when [`DependenceAnalysis::is_legal`]
//! accepts its matrix.  The differential proptests at the bottom pin the
//! permutation-reading legality rule and its enumeration to it on generated
//! nests.

use crate::dependence::DependenceAnalysis;
use crate::nest::LoopNest;
use crate::transform::{all_permutations, LoopTransform};

/// The legal loop orders of `nest`, identity first, by permutation
/// matrices.
pub fn legal_permutations(nest: &LoopNest) -> Vec<LoopTransform> {
    let deps = DependenceAnalysis::of_nest(nest);
    all_permutations(nest.depth())
        .iter()
        .map(|order| LoopTransform::permutation(order))
        .filter(|t| t.is_identity() || deps.is_legal(t.matrix()))
        .collect()
}

mod tests {
    use super::*;
    use crate::access::{AccessBuilder, AffineAccess};
    use crate::dependence::MAX_EXAMINED_ORDERS;
    use crate::ids::{ArrayId, NestId};
    use crate::nest::Loop;
    use crate::reference::AccessKind;
    use proptest::prelude::*;

    /// SplitMix64: a tiny deterministic generator, so the generated nests
    /// need no dependency beyond the case seed.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n`.
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Uniform in `lo..=hi`.
        fn between(&mut self, lo: i64, hi: i64) -> i64 {
            lo + self.below((hi - lo + 1) as usize) as i64
        }
    }

    /// A random access of `rank` subscripts: half the time a permuted
    /// identity with a stray coefficient (so constant distances solve
    /// exactly), otherwise sparse coefficients in `-1..=1`; offsets in
    /// `-1..=1`.
    fn random_access(rng: &mut SplitMix, rank: usize, depth: usize) -> AffineAccess {
        let mut access = AccessBuilder::new(rank, depth);
        let square = depth > 0 && rng.below(2) == 0;
        let shift = rng.below(depth.max(1));
        for dim in 0..rank {
            for level in 0..depth {
                let coefficient = if square {
                    i64::from((dim + shift) % depth == level)
                } else {
                    [0, 0, 1, -1][rng.below(4)]
                };
                access = access.coeff(dim, level, coefficient);
            }
            if square && rng.below(4) == 0 {
                access = access.coeff(dim, rng.below(depth), rng.between(-1, 1));
            }
            access = access.offset(dim, rng.between(-1, 1));
        }
        access.build()
    }

    /// `access` with every offset moved by up to `reach` either way.
    fn shifted(rng: &mut SplitMix, access: &AffineAccess, reach: i64) -> AffineAccess {
        let offset = access
            .offset()
            .iter()
            .map(|&o| o + rng.between(-reach, reach))
            .collect();
        AffineAccess::new(access.matrix().clone(), offset)
    }

    /// A nest of depth `0..=max_depth` with 1-4 trips per loop and one to
    /// three arrays, each written and read in one of five ways: at the same
    /// element (zero distance), at a shifted element (a constant distance,
    /// lexicographically negative half the time, unrealizable when it
    /// exceeds a trip count), through another matrix (non-uniform, the GCD
    /// test), with another subscript count (unknown distance), or only read.
    fn random_nest(seed: u64, max_depth: usize) -> LoopNest {
        let mut rng = SplitMix(seed);
        let depth = rng.below(max_depth + 1);
        let loops = (0..depth)
            .map(|l| Loop::new(format!("i{l}"), 0, rng.between(1, 4)))
            .collect();
        let mut nest = LoopNest::new(NestId::new(0), "generated", loops);
        for a in 0..1 + rng.below(3) {
            let array = ArrayId::new(a);
            let rank = 1 + rng.below(3);
            let write = random_access(&mut rng, rank, depth);
            let read = match rng.below(5) {
                0 => write.clone(),
                1 => shifted(&mut rng, &write, 2),
                2 => random_access(&mut rng, rank, depth),
                3 => random_access(&mut rng, rank + 1, depth),
                _ => {
                    nest.add_reference(array, write, AccessKind::Read);
                    continue;
                }
            };
            nest.add_reference(array, write, AccessKind::Write);
            nest.add_reference(array, read, AccessKind::Read);
        }
        nest
    }

    fn check_seed(seed: u64, max_depth: usize) {
        let nest = random_nest(seed, max_depth);
        let matrices = legal_permutations(&nest);
        assert_eq!(
            crate::legal_permutations(&nest),
            matrices,
            "seed {seed}: {nest}"
        );
        assert!(matrices[0].is_identity());
    }

    #[test]
    fn the_generator_covers_every_kind_of_dependence() {
        let nests: Vec<LoopNest> = (0..256).map(|seed| random_nest(seed, 5)).collect();
        let distances = || {
            nests.iter().flat_map(|nest| {
                DependenceAnalysis::of_nest(nest)
                    .dependences()
                    .iter()
                    .map(|dep| dep.distance.clone())
                    .collect::<Vec<_>>()
            })
        };
        assert!(distances().any(|d| d.is_none()));
        assert!(distances().any(|d| d.is_some_and(|d| d.is_zero())));
        assert!(distances().any(|d| d.is_some_and(|d| !d.is_zero())));
        // Some nests lose orders to their dependences, some keep them all,
        // and every depth from 0 to 5 occurs.
        let pinned = |nest: &LoopNest| {
            legal_permutations(nest).len() < (1..=nest.depth()).product::<usize>()
        };
        assert!(nests.iter().any(|n| n.depth() >= 3 && pinned(n)));
        assert!(nests.iter().any(|n| n.depth() >= 3 && !pinned(n)));
        for depth in 0..=5 {
            assert!(nests.iter().any(|n| n.depth() == depth));
        }
    }

    #[test]
    fn dependence_free_nests_enumerate_all_permutations_up_to_the_cap() {
        let free = DependenceAnalysis::default();
        for depth in 0..=6 {
            let mut orders = Vec::new();
            free.legal_orders(depth, |order| orders.push(order.to_vec()));
            assert_eq!(orders, all_permutations(depth), "depth {depth}");
        }
        // Depth 10: the first 8! permutations, which keep loops 0 and 1 in
        // place, identity first and the innermost eight reversed last.
        let (mut count, mut first, mut last) = (0, None, Vec::new());
        free.legal_orders(10, |order| {
            count += 1;
            first.get_or_insert_with(|| order.to_vec());
            last = order.to_vec();
        });
        assert_eq!(count, MAX_EXAMINED_ORDERS);
        assert_eq!(first, Some((0..10).collect()));
        assert_eq!(last, [0, 1, 9, 8, 7, 6, 5, 4, 3, 2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn generated_nests_match_the_matrix_oracle(seed in any::<u64>()) {
            check_seed(seed, 5);
        }
    }

    #[test]
    #[ignore = "heavy: 512 generated nests up to depth 7 against the matrix oracle"]
    fn generated_nests_match_the_matrix_oracle_heavy() {
        for seed in 0..512 {
            check_seed(0x1e9a_1000_0000 + seed, 7);
        }
    }
}
