//! SIMD/scalar equivalence properties.
//!
//! The dispatch in `mlo_csp::simd` promises the lane backends are
//! *bit-identical* to the portable scalar reference — every reduction is an
//! exact integer (AND/ANDNOT/popcount), so no backend may change a domain,
//! an outcome, or a counter.  These tests pin that promise at three levels:
//! the raw word-vector ops, whole AC-3 fixpoints, and complete solver runs
//! (forward checking, full propagation, branch and bound, min-conflicts).
//!
//! The backend pin is process-global, so every test that forces one
//! serialises on [`backend_lock`] and restores auto-detection order by
//! re-forcing before each run (never relying on ambient state).

use mlo_csp::random::RandomNetworkSpec;
use mlo_csp::simd::{self, Backend};
use mlo_csp::solver::{ac3_kernel, SearchStats};
use mlo_csp::{BranchAndBound, MinConflicts, Scheme, SearchEngine, VarId};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serialises tests that pin the process-global backend.  A panicking
/// proptest case poisons the mutex; the backend is re-forced per run, so
/// the poison itself is harmless.
fn backend_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` once under each backend and returns both results.
fn under_both<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let _guard = backend_lock();
    simd::force_backend(Backend::Scalar);
    let scalar = f();
    simd::force_backend(Backend::Simd);
    let simd_result = f();
    simd::force_backend(Backend::Scalar);
    (scalar, simd_result)
}

/// The counters a backend could conceivably skew.
fn stat_fingerprint(stats: &SearchStats) -> (u64, u64, u64, u64, u64, usize) {
    (
        stats.nodes_visited,
        stats.consistency_checks,
        stats.prunings,
        stats.backtracks,
        stats.bytes_touched,
        stats.max_depth,
    )
}

fn spec(
    variables: usize,
    domain: usize,
    density: f64,
    tightness: f64,
    seed: u64,
) -> RandomNetworkSpec {
    RandomNetworkSpec {
        variables,
        domain_size: domain,
        density,
        tightness,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Raw op equivalence: the 4-wide lanes agree with the scalar
    /// reference on every vector length (including the empty and
    /// sub-lane tails) and every operand pattern.
    #[test]
    fn lane_ops_match_scalar_reference(
        a in proptest::collection::vec(any::<u64>(), 0..24),
        b in proptest::collection::vec(any::<u64>(), 0..24),
    ) {
        prop_assert_eq!(simd::lanes::and_any(&a, &b), simd::scalar::and_any(&a, &b));
        prop_assert_eq!(simd::lanes::any_set(&a), simd::scalar::any_set(&a));
        prop_assert_eq!(simd::lanes::popcount(&a), simd::scalar::popcount(&a));
        prop_assert_eq!(simd::lanes::and_popcount(&a, &b), simd::scalar::and_popcount(&a, &b));
        prop_assert_eq!(simd::lanes::andnot_any(&a, &b), simd::scalar::andnot_any(&a, &b));
        prop_assert_eq!(
            simd::lanes::andnot_popcount(&a, &b),
            simd::scalar::andnot_popcount(&a, &b)
        );
        let mut lane_dst = a.clone();
        let mut scalar_dst = a.clone();
        prop_assert_eq!(
            simd::lanes::and_assign_count(&mut lane_dst, &b),
            simd::scalar::and_assign_count(&mut scalar_dst, &b)
        );
        prop_assert_eq!(lane_dst, scalar_dst);
    }

    /// AC-3 fixpoints are backend-independent down to the last counter:
    /// identical `BitDomains`, identical outcome, identical check /
    /// pruning / bytes-touched totals.
    #[test]
    fn ac3_fixpoints_are_bit_identical(
        variables in 3usize..14,
        domain in 2usize..7,
        density in 0.2f64..0.9,
        tightness in 0.1f64..0.8,
        seed in 0u64..500,
    ) {
        let network = spec(variables, domain, density, tightness, seed).generate();
        let kernel = network.kernel().clone();
        let ((scalar_words, scalar_outcome, scalar_stats), (simd_words, simd_outcome, simd_stats)) =
            under_both(|| {
                let mut live = kernel.full_domains();
                let mut stats = SearchStats::default();
                let outcome = ac3_kernel(&kernel, &mut live, &mut stats);
                let words: Vec<Vec<u64>> = network
                    .variables()
                    .map(|v| live.words(v).to_vec())
                    .collect();
                (words, outcome, stats)
            });
        prop_assert_eq!(scalar_words, simd_words);
        prop_assert_eq!(scalar_outcome, simd_outcome);
        prop_assert_eq!(stat_fingerprint(&scalar_stats), stat_fingerprint(&simd_stats));
    }

    /// Whole solves (forward checking and full propagation, the two
    /// schemes whose hot loops ride the kernel ops) return the same
    /// solution, the same revise outcomes and the same statistics.
    #[test]
    fn search_engine_runs_are_bit_identical(
        variables in 3usize..10,
        domain in 2usize..5,
        density in 0.2f64..0.8,
        tightness in 0.1f64..0.6,
        seed in 0u64..300,
    ) {
        let network = spec(variables, domain, density, tightness, seed).generate();
        for scheme in [Scheme::ForwardChecking, Scheme::FullPropagation] {
            let (scalar_run, simd_run) = under_both(|| {
                let result = SearchEngine::with_scheme(scheme).solve(&network);
                let values = result.solution.as_ref().map(|s| {
                    network
                        .variables()
                        .map(|v| s.value_index(v))
                        .collect::<Vec<_>>()
                });
                (values, stat_fingerprint(&result.stats))
            });
            prop_assert_eq!(&scalar_run, &simd_run, "scheme {:?}", scheme);
        }
    }

    /// Weighted branch and bound: bit-identical best weight (float sums
    /// happen in the same order under both backends) and statistics.
    #[test]
    fn branch_and_bound_runs_are_bit_identical(
        variables in 3usize..8,
        domain in 2usize..4,
        density in 0.3f64..0.8,
        seed in 0u64..200,
    ) {
        let network = spec(variables, domain, density, 0.2, seed).generate();
        let weighted = mlo_csp::WeightedNetwork::new(network, 1.5);
        let (scalar_run, simd_run) = under_both(|| {
            let result = BranchAndBound::default().optimize(&weighted);
            (
                result.best_weight.to_bits(),
                result.solution.is_some(),
                stat_fingerprint(&result.stats),
            )
        });
        prop_assert_eq!(scalar_run, simd_run);
    }

    /// Min-conflicts local search draws from one RNG stream; identical
    /// conflict sets and support masks mean the draws — and therefore the
    /// entire trajectory — replay exactly under either backend.
    #[test]
    fn min_conflicts_trajectories_replay_exactly(
        variables in 3usize..9,
        domain in 2usize..5,
        seed in 0u64..200,
    ) {
        let network = spec(variables, domain, 0.5, 0.3, seed).generate();
        let (scalar_run, simd_run) = under_both(|| {
            let result = MinConflicts::with_seed(seed ^ 0x9e37)
                .max_steps(400)
                .max_restarts(3)
                .solve(&network);
            let values = result.solution.as_ref().map(|s| {
                network
                    .variables()
                    .map(|v| s.value_index(v))
                    .collect::<Vec<_>>()
            });
            (values, stat_fingerprint(&result.stats))
        });
        prop_assert_eq!(scalar_run, simd_run);
    }

    /// Masked row-maximum — the [`SoftAc3`] bound primitive behind
    /// `WeightKernel::live_row_max` — is bit-exact across backends: the
    /// 4-wide lanes and the dispatched entry point return the same
    /// maximum bits and the same (lowest) argmax as the scalar reference
    /// for any row contents, including NaN, infinities, negative zero
    /// and rows shorter than the mask (the truncation path).
    #[test]
    fn masked_row_max_matches_scalar_reference(
        a in proptest::collection::vec(any::<u64>(), 0..11),
        b in proptest::collection::vec(any::<u64>(), 0..11),
        row_bits in proptest::collection::vec(any::<u64>(), 0..704),
        tie_stride in 1usize..9,
    ) {
        // Half the rows reinterpret raw bits (NaN / ±inf / -0.0 soup);
        // the other half collapse onto a few repeated finite values so
        // lowest-index tie-breaking is actually exercised.
        let row: Vec<f64> = if tie_stride % 2 == 0 {
            row_bits.iter().map(|&w| f64::from_bits(w)).collect()
        } else {
            row_bits
                .iter()
                .map(|&w| f64::from((w % tie_stride as u64) as u32))
                .collect()
        };
        let (sv, sa) = simd::scalar::masked_row_max(&row, &a, &b);
        let (lv, la) = simd::lanes::masked_row_max(&row, &a, &b);
        prop_assert_eq!((sv.to_bits(), sa), (lv.to_bits(), la));
        let (scalar_run, simd_run) = under_both(|| {
            let (value, arg) = simd::masked_row_max(&row, &a, &b);
            (value.to_bits(), arg)
        });
        prop_assert_eq!(scalar_run, (sv.to_bits(), sa));
        prop_assert_eq!(scalar_run, simd_run);
    }

    /// Padding regression: the lane-padded tail words of every variable
    /// stay zero through restriction and AC-3 pruning — phantom live
    /// values in the padding would corrupt counts under any backend.
    #[test]
    fn padded_lane_words_never_leak_phantom_values(
        variables in 2usize..12,
        domain in 1usize..9,
        density in 0.2f64..0.9,
        tightness in 0.1f64..0.9,
        seed in 0u64..500,
    ) {
        let network = spec(variables, domain, density, tightness, seed).generate();
        let kernel = network.kernel().clone();
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
            let live_words = size.div_ceil(64); // words that may carry real bits
            let words = live.words(v);
            prop_assert!(words.len() >= live_words);
            prop_assert!(words.len() % simd::LANE_WORDS == 0, "rows are lane padded");
            for (i, &word) in words.iter().enumerate().skip(live_words) {
                prop_assert_eq!(word, 0, "phantom bits in padding word {} of {:?}", i, v);
            }
            // The last real word's bits above the domain size must be dead
            // too (the padding invariant starts at the domain boundary).
            if !size.is_multiple_of(64) && live_words > 0 {
                let dead = words[live_words - 1] >> (size % 64);
                prop_assert_eq!(dead, 0, "phantom bits above the domain boundary of {:?}", v);
            }
        }
    }
}
