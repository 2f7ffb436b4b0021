//! End-to-end tests of the service front-end: admission, coalescing,
//! cancellation draining, long client-side waits and service-vs-session
//! report identity.
//!
//! Several tests pin the session's worker pool at one thread and park it
//! with a `blocker` strategy so queue states are deterministic; run the
//! suite with `--test-threads=1` in CI to keep machine load from skewing
//! the timing-free assertions anyway.

use mlo_benchmarks::Benchmark;
use mlo_core::{
    Engine, LayoutStrategy, OptimizeError, OptimizeReport, OptimizeRequest, SearchBudget, Session,
    StrategyContext, StrategyId, StrategyOutcome,
};
use mlo_service::{MloService, ServiceConfig, ServiceError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A strategy that parks its worker until the test releases it, making
/// queue occupancy deterministic.
#[derive(Debug, Default)]
struct Blocker {
    release: Arc<(Mutex<bool>, Condvar)>,
    started: Arc<(Mutex<usize>, Condvar)>,
}

impl Blocker {
    fn handle(&self) -> BlockerHandle {
        BlockerHandle {
            release: Arc::clone(&self.release),
            started: Arc::clone(&self.started),
        }
    }
}

#[derive(Debug, Clone)]
struct BlockerHandle {
    release: Arc<(Mutex<bool>, Condvar)>,
    started: Arc<(Mutex<usize>, Condvar)>,
}

impl BlockerHandle {
    /// Blocks until `count` blocker solves have started.
    fn wait_started(&self, count: usize) {
        let (lock, condvar) = &*self.started;
        let mut started = lock.lock().unwrap();
        while *started < count {
            started = condvar.wait(started).unwrap();
        }
    }

    fn release_all(&self) {
        let (lock, condvar) = &*self.release;
        *lock.lock().unwrap() = true;
        condvar.notify_all();
    }
}

impl LayoutStrategy for Blocker {
    fn name(&self) -> &str {
        "blocker"
    }

    fn determine(&self, ctx: &StrategyContext<'_>) -> Result<StrategyOutcome, OptimizeError> {
        {
            let (lock, condvar) = &*self.started;
            *lock.lock().unwrap() += 1;
            condvar.notify_all();
        }
        let (lock, condvar) = &*self.release;
        let mut released = lock.lock().unwrap();
        while !*released {
            released = condvar.wait(released).unwrap();
        }
        Ok(StrategyOutcome::Solved {
            assignment: ctx.heuristic(),
            stats: None,
            proven_satisfiable: false,
        })
    }
}

/// An engine whose pool has exactly one worker, with a blocker strategy
/// registered; parking the worker freezes the service queue.
fn single_worker_service(config: ServiceConfig) -> (MloService, BlockerHandle) {
    let blocker = Arc::new(Blocker::default());
    let handle = blocker.handle();
    let engine = Engine::builder()
        .parallelism(1)
        .strategy(blocker as Arc<dyn LayoutStrategy>)
        .build();
    (MloService::new(engine.session(), config), handle)
}

fn blocker_request(seed: u64) -> OptimizeRequest {
    OptimizeRequest::strategy(StrategyId::custom("blocker")).seed(seed)
}

#[test]
fn admission_sheds_when_the_intake_queue_is_full() {
    let (service, blocker) = single_worker_service(ServiceConfig::new().queue_limit(2));
    let program = Benchmark::MxM.program();

    // Occupy the single worker, then fill the remaining queue slot.
    let running = service.submit(&program, &blocker_request(1)).unwrap();
    blocker.wait_started(1);
    let queued = service.submit(&program, &blocker_request(2)).unwrap();
    assert_eq!(service.queue_depth(), 2);

    // A third distinct request must be shed, and shedding must not
    // disturb the queue.
    match service.submit(&program, &blocker_request(3)) {
        Err(ServiceError::QueueFull { depth: 2, limit: 2 }) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert_eq!(service.stats().shed, 1);
    assert_eq!(service.queue_depth(), 2);

    blocker.release_all();
    assert!(running.wait().is_ok());
    assert!(queued.wait().is_ok());
    assert_eq!(service.queue_depth(), 0);
    let stats = service.stats();
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.completed, 2);

    // With the queue drained, admission opens again.
    let reopened = service.submit(&program, &blocker_request(4)).unwrap();
    blocker.wait_started(3);
    assert!(reopened.wait().is_ok());
}

#[test]
fn coalesced_duplicates_share_one_pointer_identical_result() {
    let (service, blocker) = single_worker_service(ServiceConfig::new());
    let program = Benchmark::MxM.program();

    // Park the worker so the real request stays queued (and thus
    // coalescable) while we submit duplicates.
    let parked = service.submit(&program, &blocker_request(1)).unwrap();
    blocker.wait_started(1);

    let request = OptimizeRequest::strategy("enhanced").seed(7);
    let first = service.submit(&program, &request).unwrap();
    let duplicate = service.submit(&program, &request).unwrap();
    let unrelated = service
        .submit(&program, &OptimizeRequest::strategy("enhanced").seed(8))
        .unwrap();

    assert!(!first.is_coalesced());
    assert!(duplicate.is_coalesced());
    assert!(!unrelated.is_coalesced());
    // The duplicate added no work: one queued solve serves both handles.
    assert_eq!(service.stats().coalesced, 1);
    assert_eq!(service.queue_depth(), 3);

    blocker.release_all();
    let first_result = first.wait();
    let duplicate_result = duplicate.wait();
    let unrelated_result = unrelated.wait();
    assert!(Arc::ptr_eq(&first_result, &duplicate_result));
    assert!(!Arc::ptr_eq(&first_result, &unrelated_result));
    assert!(first_result.is_ok());
    assert!(parked.wait().is_ok());
}

#[test]
fn cancelling_every_handle_drains_queued_requests() {
    let (service, blocker) = single_worker_service(ServiceConfig::new());
    let program = Benchmark::MxM.program();

    let parked = service.submit(&program, &blocker_request(1)).unwrap();
    blocker.wait_started(1);

    let request = OptimizeRequest::strategy("enhanced").seed(42);
    let doomed = service.submit(&program, &request).unwrap();
    let accomplice = doomed.clone();

    // One of two interested handles cancelling must NOT fire the token.
    accomplice.cancel();
    doomed.cancel();

    blocker.release_all();
    let result = doomed.wait();
    match result.as_ref() {
        Err(ServiceError::Cancelled) => {}
        other => panic!("expected a drained cancellation, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 2);
    assert_eq!(service.queue_depth(), 0);
    assert!(parked.wait().is_ok());
}

#[test]
fn one_remaining_interested_handle_keeps_the_solve_alive() {
    let (service, blocker) = single_worker_service(ServiceConfig::new());
    let program = Benchmark::MxM.program();

    let parked = service.submit(&program, &blocker_request(1)).unwrap();
    blocker.wait_started(1);

    let request = OptimizeRequest::strategy("enhanced").seed(43);
    let keeper = service.submit(&program, &request).unwrap();
    let quitter = service.submit(&program, &request).unwrap();
    assert!(quitter.is_coalesced());
    quitter.cancel();

    blocker.release_all();
    let result = keeper.wait();
    assert!(result.is_ok(), "solve must survive a partial cancel");
    assert_eq!(service.stats().cancelled, 0);
    assert!(parked.wait().is_ok());
}

#[test]
fn tenant_budgets_bound_concurrency_per_tenant() {
    let (service, blocker) = single_worker_service(ServiceConfig::new().default_tenant_budget(1));
    let program = Benchmark::MxM.program();

    let parked = service.submit(&program, &blocker_request(1)).unwrap();
    blocker.wait_started(1);

    let acme_first = service
        .submit_for_tenant("acme", &program, &blocker_request(2))
        .unwrap();
    match service.submit_for_tenant("acme", &program, &blocker_request(3)) {
        Err(ServiceError::TenantBudgetExhausted {
            tenant,
            in_flight: 1,
            limit: 1,
        }) => assert_eq!(tenant, "acme"),
        other => panic!("expected TenantBudgetExhausted, got {other:?}"),
    }
    // Another tenant's budget is independent.
    let other_tenant = service
        .submit_for_tenant("zenith", &program, &blocker_request(4))
        .unwrap();
    assert_eq!(service.stats().rejected, 1);

    blocker.release_all();
    assert!(acme_first.wait().is_ok());
    assert!(other_tenant.wait().is_ok());
    assert!(parked.wait().is_ok());

    // Completion refunds the budget.
    let refunded = service
        .submit_for_tenant("acme", &program, &blocker_request(5))
        .unwrap();
    blocker.wait_started(4);
    assert!(refunded.wait().is_ok());
}

#[test]
fn streaming_submissions_feed_the_incumbent_watch() {
    let engine = Engine::builder().parallelism(1).build();
    let service = MloService::new(engine.session(), ServiceConfig::new());
    let program = Benchmark::Radar.program();
    let request = OptimizeRequest::strategy("weighted").seed(11);

    let handle = service.submit_streaming(&program, &request).unwrap();
    let result = handle.wait();
    let report = result.as_ref().as_ref().expect("weighted solve succeeds");
    assert!(!report.fell_back());

    // The branch-and-bound established at least one incumbent, and the
    // watch saw the final (best) weight.
    let (version, weight) = handle.watch().latest();
    assert!(version >= 1, "no incumbent update was streamed");
    assert!(weight.is_some());

    // A plain submission of the same request leaves its watch silent.
    let plain = service.submit(&program, &request).unwrap();
    let plain_result = plain.wait();
    assert!(plain_result.is_ok());
    assert_eq!(plain.watch().latest(), (0, None));
}

fn assert_reports_identical(direct: &OptimizeReport, served: &OptimizeReport, context: &str) {
    assert_eq!(
        direct.assignment, served.assignment,
        "{context}: assignment"
    );
    assert_eq!(
        direct.search_stats, served.search_stats,
        "{context}: search stats"
    );
    assert_eq!(
        direct.satisfiable, served.satisfiable,
        "{context}: satisfiability"
    );
    assert_eq!(direct.fallback, served.fallback, "{context}: fallback");
    assert_eq!(direct.strategy, served.strategy, "{context}: strategy");
}

#[test]
fn service_reports_are_bit_identical_to_direct_session_calls() {
    for workers in [1usize, 2, 4, 8] {
        let engine = Engine::builder().parallelism(workers).build();
        let direct_session: Session = engine.session();
        let service = MloService::new(engine.session(), ServiceConfig::new());
        for benchmark in [Benchmark::MxM, Benchmark::Radar] {
            let program = benchmark.program();
            for strategy in ["enhanced", "weighted", "portfolio-steal"] {
                let request = OptimizeRequest::strategy(strategy)
                    .seed(5)
                    .with_budget(SearchBudget::new().workers(workers));
                let direct = direct_session.optimize(&program, &request).unwrap();
                let handle = service.submit(&program, &request).unwrap();
                let served = handle.wait();
                let served = served.as_ref().as_ref().expect("service solve succeeds");
                assert_reports_identical(
                    &direct,
                    served,
                    &format!("{benchmark:?}/{strategy}@{workers}"),
                );
            }
        }
    }
}

#[test]
fn unrepresentable_deadlines_are_served_like_direct_calls() {
    // `Duration::MAX` is past `Instant`'s range when added to any start
    // time; the served report must still equal the direct one, with no
    // rung panicking.
    let engine = Engine::builder().parallelism(2).build();
    let direct_session = engine.session();
    let service = MloService::new(engine.session(), ServiceConfig::new());
    let program = Benchmark::MedIm04.program();
    let request = OptimizeRequest::strategy("weighted")
        .candidates(Benchmark::MedIm04.candidate_options())
        .with_budget(SearchBudget::new().deadline(Duration::MAX));
    let direct = direct_session.optimize(&program, &request).unwrap();
    let served = service.optimize(&program, &request);
    let served = served.as_ref().as_ref().expect("service solve succeeds");
    assert_reports_identical(
        &direct,
        served,
        "MedIm04/weighted with a Duration::MAX deadline",
    );
    assert!(!served.degraded);
    assert_eq!(service.stats().panicked, 0);
}

#[test]
fn synchronous_optimize_and_queue_errors_round_trip_display() {
    let engine = Engine::builder().parallelism(1).build();
    let service = MloService::new(engine.session(), ServiceConfig::new());
    let program = Benchmark::MxM.program();
    let result = service.optimize(&program, &OptimizeRequest::strategy("enhanced"));
    assert!(result.is_ok());

    let unknown = service.optimize(&program, &OptimizeRequest::strategy("no-such-strategy"));
    match unknown.as_ref() {
        Err(ServiceError::Solve(OptimizeError::UnknownStrategy { name, .. })) => {
            assert_eq!(name, "no-such-strategy");
            assert!(
                format!("{}", unknown.as_ref().as_ref().unwrap_err()).contains("no-such-strategy")
            );
        }
        other => panic!("expected UnknownStrategy, got {other:?}"),
    }

    let shed = ServiceError::QueueFull { depth: 4, limit: 4 };
    assert!(format!("{shed}").contains("intake queue full"));
    assert!(format!(
        "{}",
        ServiceError::TenantBudgetExhausted {
            tenant: "acme".into(),
            in_flight: 2,
            limit: 2
        }
    )
    .contains("acme"));
}

#[test]
fn wait_timeout_and_try_result_observe_completion() {
    let (service, blocker) = single_worker_service(ServiceConfig::new());
    let program = Benchmark::MxM.program();

    let handle = service.submit(&program, &blocker_request(1)).unwrap();
    blocker.wait_started(1);
    assert!(handle.try_result().is_none());
    assert!(handle.wait_timeout(Duration::from_millis(10)).is_none());

    blocker.release_all();
    let result = handle.wait_timeout(Duration::from_secs(30)).unwrap();
    assert!(result.is_ok());
    assert!(handle.try_result().is_some());
}

#[test]
fn unrepresentable_wait_timeouts_wait_for_the_result() {
    let (service, blocker) = single_worker_service(ServiceConfig::new());
    let program = Benchmark::MxM.program();

    let handle = service.submit(&program, &blocker_request(1)).unwrap();
    blocker.wait_started(1);
    let releaser = {
        let blocker = blocker.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            blocker.release_all();
        })
    };
    // `Instant::now() + Duration::MAX` cannot be represented: the wait has
    // no deadline and returns once the solve completes.
    let result = handle
        .wait_timeout(Duration::MAX)
        .expect("a wait without a deadline returns the result");
    assert!(result.is_ok());
    releaser.join().unwrap();
}

#[test]
fn unrepresentable_incumbent_waits_block_until_a_publish() {
    let (service, blocker) = single_worker_service(ServiceConfig::new());
    let program = Benchmark::Radar.program();

    // Park the worker so the streaming solve is still queued when the
    // watcher starts waiting.
    let parked = service.submit(&program, &blocker_request(1)).unwrap();
    blocker.wait_started(1);
    let streamed = service
        .submit_streaming(&program, &OptimizeRequest::strategy("weighted").seed(11))
        .unwrap();
    let watch = streamed.watch();
    let watcher = std::thread::spawn(move || watch.wait_past(0, Duration::MAX));

    blocker.release_all();
    let (version, weight) = watcher.join().expect("the watcher returns once published");
    assert!(version >= 1, "no incumbent update was streamed");
    assert!(weight.is_some());
    assert!(streamed.wait().is_ok());
    assert!(parked.wait().is_ok());
}
