//! Integration tests of the work-stealing scheduler: the determinism
//! contract across worker counts (identical solutions, costs and
//! enumeration counts at 1/2/4/8 workers), the exact node-disjoint
//! partition behind UNSAT proofs, prompt deque draining under
//! cancellation, and steal telemetry.
//!
//! The trailing proptests sweep random networks at larger case counts;
//! they are `#[ignore]`d so the tier-1 suite stays fast, and CI runs them
//! in a dedicated job via `-- --ignored`.

use mlo_csp::random::{
    pigeonhole_network, planted_weighted_network, satisfiable_network, RandomNetworkSpec,
};
use mlo_csp::{
    BranchAndBound, CancelToken, Enumerator, Scheme, SearchEngine, SearchLimits, StealScheduler,
    WorkerPool,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// The worker counts every determinism assertion sweeps.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A scheduler sharded over `workers` threads (its own pool, so tests
/// cannot interfere with each other through shared queues).
fn scheduler(workers: usize) -> StealScheduler {
    let mut scheduler = StealScheduler::new().parallelism(workers);
    if workers > 1 {
        scheduler = scheduler.with_pool(Arc::new(WorkerPool::new(workers)));
    }
    scheduler
}

#[test]
fn solutions_are_identical_at_every_worker_count() {
    let spec = RandomNetworkSpec {
        variables: 16,
        domain_size: 4,
        density: 0.45,
        tightness: 0.35,
        seed: 61,
    };
    let (network, _) = satisfiable_network(&spec);
    let reference = scheduler(1).solve(&network, &SearchLimits::none());
    let baseline = reference
        .solution
        .expect("planted networks are satisfiable");
    for workers in WORKER_COUNTS {
        let result = scheduler(workers).solve(&network, &SearchLimits::none());
        let solution = result.solution.expect("satisfiable at every worker count");
        for var in network.variables() {
            assert_eq!(
                solution.value_index(var),
                baseline.value_index(var),
                "solution diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn optimization_costs_are_identical_at_every_worker_count() {
    let spec = RandomNetworkSpec {
        variables: 11,
        domain_size: 3,
        density: 0.5,
        tightness: 0.25,
        seed: 23,
    };
    let (weighted, _) = planted_weighted_network(&spec, 40.0, 8);
    let reference = scheduler(1).optimize_detailed(&weighted, &SearchLimits::none(), None);
    assert!(reference.optimal, "unbounded runs prove optimality");
    let best = reference
        .result
        .solution
        .as_ref()
        .expect("planted weighted networks are satisfiable")
        .values()
        .to_vec();
    for workers in WORKER_COUNTS {
        let report = scheduler(workers).optimize_detailed(&weighted, &SearchLimits::none(), None);
        assert!(report.optimal);
        // Integer weights: the costs must be bit-identical, and the
        // deterministic tie-break pins the winning assignment too.
        assert_eq!(
            report.result.best_weight, reference.result.best_weight,
            "cost diverged at {workers} workers"
        );
        assert_eq!(report.canonical_weight, reference.canonical_weight);
        let solution = report.result.solution.expect("satisfiable");
        assert_eq!(
            solution.values().to_vec(),
            best,
            "winning assignment diverged at {workers} workers"
        );
    }
}

#[test]
fn enumeration_counts_are_identical_at_every_worker_count() {
    let spec = RandomNetworkSpec {
        variables: 12,
        domain_size: 3,
        density: 0.35,
        tightness: 0.3,
        seed: 404,
    };
    let network = spec.generate();
    let oracle = Enumerator::default().enumerate(&network);
    assert!(!oracle.truncated, "pick a spec the oracle can exhaust");
    for workers in WORKER_COUNTS {
        let report = scheduler(workers).count(&network, &SearchLimits::none());
        assert!(report.is_exact());
        assert_eq!(
            report.solutions,
            oracle.solutions.len() as u64,
            "count diverged at {workers} workers"
        );
    }
}

#[test]
fn unsat_partition_sums_match_the_sequential_proof() {
    // The scheduler's enumeration/UNSAT DFS does per-node work that is a
    // pure function of the path, so the frames handed out to workers
    // partition the tree *exactly*: summing per-worker node counters must
    // reproduce the sequential proof's totals, not just its verdict.
    let network = pigeonhole_network(6);
    let reference = scheduler(1).solve_detailed(&network, &SearchLimits::none(), None);
    assert!(reference.result.proves_unsatisfiable());
    assert_eq!(reference.telemetry.steals, 0);
    assert_eq!(reference.telemetry.splits, 0);
    assert_eq!(reference.telemetry.frames, 1);
    for workers in WORKER_COUNTS {
        let report = scheduler(workers).solve_detailed(&network, &SearchLimits::none(), None);
        assert!(report.result.proves_unsatisfiable());
        assert_eq!(
            report.result.stats.nodes_visited, reference.result.stats.nodes_visited,
            "node partition leaked or double-counted at {workers} workers"
        );
        assert_eq!(
            report.result.stats.consistency_checks, reference.result.stats.consistency_checks,
            "consistency-check partition diverged at {workers} workers"
        );
        // Every split mints exactly one frame beyond the root.
        assert_eq!(report.telemetry.frames, report.telemetry.splits + 1);
        assert_eq!(report.telemetry.workers, workers);
    }
}

#[test]
fn steal_telemetry_reports_sharded_work() {
    // On a heavily loaded single-core machine the donor can occasionally
    // burn through the whole proof before any hungry peer is scheduled to
    // take a published frame; retry a few times — one sharded run is all
    // the assertion needs, and telemetry consistency holds on every run.
    let network = pigeonhole_network(8);
    let mut telemetry = mlo_csp::StealReport::default();
    for _ in 0..5 {
        let report = scheduler(4).solve_detailed(&network, &SearchLimits::none(), None);
        assert!(report.result.proves_unsatisfiable());
        assert_eq!(report.result.stats.steals, report.telemetry.steals);
        assert_eq!(report.result.stats.splits, report.telemetry.splits);
        telemetry = report.telemetry;
        if telemetry.steals > 0 {
            break;
        }
    }
    assert!(
        telemetry.steals > 0,
        "no 4-worker UNSAT proof sharded in five attempts: {telemetry:?}"
    );
    assert!(telemetry.frames > 1);
}

#[test]
fn cancellation_drains_all_deques_promptly() {
    // PHP(10) takes far longer than this test is allowed to run; a cancel
    // fired mid-proof must make every worker discard its queued frames
    // rather than finish them.
    let network = pigeonhole_network(10);
    let token = CancelToken::new();
    let trigger = token.clone();
    let canceller = thread::spawn(move || {
        thread::sleep(Duration::from_millis(50));
        trigger.cancel();
    });
    let report = scheduler(4).solve_detailed(&network, &SearchLimits::none(), Some(&token));
    canceller.join().expect("canceller thread panicked");
    assert!(report.result.cancelled);
    assert!(report.result.solution.is_none());
    assert!(!report.result.proves_unsatisfiable());
    assert!(
        report.result.elapsed < Duration::from_secs(10),
        "deques were not drained promptly: ran {:?} after cancel",
        report.result.elapsed
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `#[ignore]`d heavy proptest: the scheduler's satisfiability verdict
    /// must agree with the sequential engine at every worker count, and
    /// returned solutions must validate. Run alongside the tier-2 jobs via
    /// `cargo test --release -p mlo-csp --test steal_scheduler -- --ignored`.
    #[test]
    #[ignore = "heavy case count; CI runs it in the ignored-proptests job"]
    fn steal_solve_agrees_with_the_search_engine(
        variables in 4usize..12,
        domain in 2usize..4,
        density in 0.3f64..0.8,
        tightness in 0.2f64..0.6,
        seed in 0u64..500,
    ) {
        let spec = RandomNetworkSpec { variables, domain_size: domain, density, tightness, seed };
        let network = spec.generate();
        let oracle = SearchEngine::with_scheme(Scheme::Enhanced).solve(&network);
        for workers in [1usize, 2, 4] {
            let result = scheduler(workers).solve(&network, &SearchLimits::none());
            prop_assert_eq!(result.solution.is_some(), oracle.solution.is_some());
            if let Some(solution) = &result.solution {
                for var in network.variables() {
                    prop_assert!(solution.value_index(var) < network.domain(var).len());
                }
            } else {
                prop_assert!(result.proves_unsatisfiable());
            }
        }
    }

    /// `#[ignore]`d heavy proptest: exact solution counts match the
    /// sequential enumerator at every worker count.
    #[test]
    #[ignore = "heavy case count; CI runs it in the ignored-proptests job"]
    fn steal_count_matches_the_sequential_enumerator(
        variables in 4usize..10,
        domain in 2usize..4,
        density in 0.2f64..0.6,
        tightness in 0.1f64..0.5,
        seed in 0u64..500,
    ) {
        let spec = RandomNetworkSpec { variables, domain_size: domain, density, tightness, seed };
        let network = spec.generate();
        let oracle = Enumerator::default().enumerate(&network);
        prop_assume!(!oracle.truncated);
        for workers in [1usize, 2, 4] {
            let report = scheduler(workers).count(&network, &SearchLimits::none());
            prop_assert!(report.is_exact());
            prop_assert_eq!(report.solutions, oracle.solutions.len() as u64);
        }
    }

    /// `#[ignore]`d heavy proptest: sharded branch and bound lands on the
    /// exact sequential optimum (integer weights, so bit-equal) and picks
    /// the same winning assignment among tied optima.
    #[test]
    #[ignore = "heavy case count; CI runs it in the ignored-proptests job"]
    fn steal_optimize_matches_sequential_branch_and_bound(
        variables in 4usize..10,
        domain in 2usize..4,
        density in 0.3f64..0.7,
        tightness in 0.1f64..0.4,
        seed in 0u64..500,
        bonus in 10u32..60,
    ) {
        let spec = RandomNetworkSpec { variables, domain_size: domain, density, tightness, seed };
        // Integer weights keep every weight sum exact, so the optima are
        // bit-comparable no matter the summation order.  The planted bonus
        // (>= 10) outweighs every noise pair (< 6), so tied optima differ
        // only in unconstrained variables, where both engines take the
        // lowest value index: the winners must match too.
        let (weighted, _) = planted_weighted_network(&spec, f64::from(bonus), 6);
        let oracle = BranchAndBound::new().optimize(&weighted);
        prop_assume!(oracle.is_exhaustive());
        for workers in [1usize, 2, 4] {
            let report = scheduler(workers).optimize_detailed(&weighted, &SearchLimits::none(), None);
            prop_assert!(report.optimal);
            prop_assert_eq!(report.result.best_weight, oracle.best_weight);
            prop_assert_eq!(
                report.result.solution.as_ref().map(|s| s.values().to_vec()),
                oracle.solution.as_ref().map(|s| s.values().to_vec())
            );
        }
    }
}
