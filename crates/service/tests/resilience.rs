//! Failure-path tests of the service resilience layer: panic containment
//! (no hung waiters at any worker count, on every repeated request), the
//! retry/fallback ladder and the deadline watchdog.
//!
//! Tests that need a specific fault environment install it with
//! [`mlo_csp::fault::scoped`], which serializes them on a process-wide
//! lock and masks any ambient `MLO_FAILPOINTS` plan; outcome-sensitive
//! fault-free tests use `scoped(FaultPlan::new())` for the same masking.

use mlo_benchmarks::Benchmark;
use mlo_core::StrategyId;
use mlo_core::{
    Engine, LayoutStrategy, OptimizeError, OptimizeRequest, SearchBudget, Session, StrategyContext,
    StrategyOutcome,
};
use mlo_csp::fault::{self, FaultPlan, FaultTrigger};
use mlo_service::{MloService, ServiceConfig, ServiceError};
use std::sync::Arc;
use std::time::Duration;

/// Generous bound for "the waiter did not hang": real solves on the test
/// benchmarks finish in milliseconds.
const NO_HANG: Duration = Duration::from_secs(30);

/// A strategy that always panics, standing in for a buggy rollout.
#[derive(Debug)]
struct Panicker;

impl LayoutStrategy for Panicker {
    fn name(&self) -> &str {
        "panicker"
    }

    fn determine(&self, _ctx: &StrategyContext<'_>) -> Result<StrategyOutcome, OptimizeError> {
        panic!("panicker always explodes");
    }
}

fn panicking_session(workers: usize) -> Session {
    Engine::builder()
        .parallelism(workers)
        .strategy(Arc::new(Panicker))
        .build()
        .session()
}

#[test]
fn panicking_strategy_never_hangs_waiters_at_any_worker_count() {
    let _plan = fault::scoped(FaultPlan::new());
    for workers in [1usize, 2, 4, 8] {
        let service = MloService::new(panicking_session(workers), ServiceConfig::new());
        let program = Benchmark::MxM.program();
        let handle = service
            .submit(&program, &OptimizeRequest::strategy("panicker"))
            .unwrap();
        let result = handle
            .wait_timeout(NO_HANG)
            .unwrap_or_else(|| panic!("waiter hung at {workers} workers"));
        // The ladder descends past the panicking rung, so the caller gets
        // a degraded report from a healthy strategy instead of an error.
        let report = result
            .as_ref()
            .as_ref()
            .unwrap_or_else(|e| panic!("expected degraded report at {workers} workers, got {e}"));
        assert!(report.degraded, "fallback rung must mark the report");
        assert_ne!(report.strategy, "panicker");
        let stats = service.stats();
        assert_eq!(stats.panicked, 1, "exactly the panicker rung panicked");
        assert_eq!(stats.degraded, 1);
        // The pool survived the contained panic: a healthy follow-up runs.
        let follow_up = service
            .submit(&program, &OptimizeRequest::strategy("heuristic"))
            .unwrap()
            .wait_timeout(NO_HANG)
            .expect("pool stayed usable");
        assert!(follow_up.as_ref().is_ok());
    }
}

#[test]
fn exhausted_ladder_surfaces_a_typed_panic_error() {
    // An unbounded engine.solve panic plan makes *every* rung panic; the
    // ladder must then report the last contained panic, never hang.
    let _plan = fault::scoped(FaultPlan::new().with("engine.solve", FaultTrigger::panic()));
    let service = MloService::new(Engine::new().session(), ServiceConfig::new());
    let program = Benchmark::MxM.program();
    let handle = service
        .submit(&program, &OptimizeRequest::strategy("enhanced"))
        .unwrap();
    let result = handle.wait_timeout(NO_HANG).expect("waiter hung");
    match result.as_ref() {
        Err(ServiceError::Solve(OptimizeError::StrategyPanicked { failpoint, .. })) => {
            assert_eq!(failpoint.as_deref(), Some("engine.solve"));
        }
        other => panic!("expected StrategyPanicked after ladder exhaustion, got {other:?}"),
    }
    let stats = service.stats();
    assert!(
        stats.panicked >= 2,
        "every attempted rung panicked (got {})",
        stats.panicked
    );
}

#[test]
fn publish_path_panic_is_filled_by_the_pool_observer() {
    // A panic *after* the solve (between bookkeeping and publication)
    // escapes the ladder; the pool's observer must still fill the slot.
    let _plan =
        fault::scoped(FaultPlan::new().with("service.publish", FaultTrigger::panic().times(1)));
    let service = MloService::new(Engine::new().session(), ServiceConfig::new());
    let program = Benchmark::MxM.program();
    let handle = service
        .submit(&program, &OptimizeRequest::strategy("heuristic"))
        .unwrap();
    let result = handle.wait_timeout(NO_HANG).expect("waiter hung");
    match result.as_ref() {
        Err(ServiceError::Solve(OptimizeError::StrategyPanicked { failpoint, .. })) => {
            assert_eq!(failpoint.as_deref(), Some("service.publish"));
        }
        other => panic!("expected observer-published StrategyPanicked, got {other:?}"),
    }
    // Admission bookkeeping was released exactly once: the queue drained
    // and the service keeps serving.
    assert_eq!(service.queue_depth(), 0);
    let follow_up = service
        .submit(&program, &OptimizeRequest::strategy("heuristic"))
        .unwrap()
        .wait_timeout(NO_HANG)
        .expect("pool stayed usable");
    assert!(follow_up.as_ref().is_ok());
}

#[test]
fn repeated_panics_are_contained_on_every_request() {
    // No per-strategy state carries between requests: each request for a
    // strategy that always panics is contained on its own and served by a
    // healthy rung.
    let _plan = fault::scoped(FaultPlan::new());
    let service = MloService::new(panicking_session(2), ServiceConfig::new());
    let program = Benchmark::MxM.program();

    for round in 1..=5u64 {
        let result = service
            .submit(
                &program,
                &OptimizeRequest::strategy(StrategyId::custom("panicker")),
            )
            .unwrap()
            .wait_timeout(NO_HANG)
            .unwrap_or_else(|| panic!("round {round} hung"));
        let report = result
            .as_ref()
            .as_ref()
            .unwrap_or_else(|e| panic!("expected a degraded report in round {round}, got {e}"));
        assert!(report.degraded, "round {round}: a fallback rung served it");
        assert_ne!(report.strategy, "panicker");
        assert_eq!(
            service.stats().panicked,
            round,
            "round {round}: exactly one contained panic per request"
        );
    }

    let follow_up = service
        .submit(&program, &OptimizeRequest::strategy("heuristic"))
        .unwrap()
        .wait_timeout(NO_HANG)
        .expect("pool stayed usable");
    let follow_up = follow_up
        .as_ref()
        .as_ref()
        .expect("healthy request succeeds");
    assert!(!follow_up.degraded);
    assert_eq!(service.stats().panicked, 5);
}

/// A strategy that sleeps well past any test deadline while ignoring the
/// cancellation token, simulating a wedged solve only the watchdog can
/// reclaim.
#[derive(Debug)]
struct Sleeper {
    nap: Duration,
}

impl LayoutStrategy for Sleeper {
    fn name(&self) -> &str {
        "sleeper"
    }

    fn determine(&self, ctx: &StrategyContext<'_>) -> Result<StrategyOutcome, OptimizeError> {
        std::thread::sleep(self.nap);
        Ok(StrategyOutcome::Solved {
            assignment: ctx.heuristic(),
            stats: None,
            proven_satisfiable: false,
        })
    }
}

#[test]
fn watchdog_cancels_solves_overrunning_their_deadline() {
    let _plan = fault::scoped(FaultPlan::new());
    let session = Engine::builder()
        .parallelism(1)
        .strategy(Arc::new(Sleeper {
            nap: Duration::from_millis(200),
        }))
        .build()
        .session();
    let service = MloService::new(session, ServiceConfig::new().watchdog_grace(1.0));
    let program = Benchmark::MxM.program();
    let request = OptimizeRequest::strategy(StrategyId::custom("sleeper"))
        .with_budget(SearchBudget::new().deadline(Duration::from_millis(20)));
    let handle = service.submit(&program, &request).unwrap();
    let result = handle.wait_timeout(NO_HANG).expect("waiter hung");
    // The sleeper ignores cancellation and eventually returns; what the
    // watchdog guarantees is that the overrun was detected and recorded.
    assert!(result.as_ref().is_ok() || matches!(result.as_ref(), Err(ServiceError::Solve(_))));
    assert_eq!(service.stats().watchdog_cancelled, 1);

    // A solve that finishes inside its grace window is left alone.
    let quick = OptimizeRequest::strategy("heuristic")
        .with_budget(SearchBudget::new().deadline(Duration::from_secs(60)));
    let result = service
        .submit(&program, &quick)
        .unwrap()
        .wait_timeout(NO_HANG)
        .expect("waiter hung");
    assert!(result.as_ref().is_ok());
    assert_eq!(service.stats().watchdog_cancelled, 1);
}

#[test]
fn watchdog_arms_nothing_when_its_deadline_cannot_be_represented() {
    // An infinite grace overflows `Duration`, and a `Duration::MAX` deadline
    // overflows `Instant`: neither watchdog could ever fire, so the request
    // must be served as if none were armed instead of panicking the worker.
    let _plan = fault::scoped(FaultPlan::new());
    let program = Benchmark::MxM.program();
    for (grace, deadline) in [
        (f64::INFINITY, Duration::from_secs(1)),
        (1.5, Duration::MAX),
    ] {
        let context = format!("grace {grace}, deadline {deadline:?}");
        let session = Engine::builder().parallelism(1).build().session();
        let request = OptimizeRequest::strategy("enhanced")
            .with_budget(SearchBudget::new().deadline(deadline));
        let direct = session.optimize(&program, &request).unwrap();
        let service = MloService::new(session, ServiceConfig::new().watchdog_grace(grace));
        let result = service
            .submit(&program, &request)
            .unwrap()
            .wait_timeout(NO_HANG)
            .expect("waiter hung");
        let report = result
            .as_ref()
            .as_ref()
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        assert_eq!(report.assignment, direct.assignment, "{context}");
        assert!(!report.degraded, "{context}");
        let stats = service.stats();
        assert_eq!(stats.panicked, 0, "{context}");
        assert_eq!(stats.watchdog_cancelled, 0, "{context}");
    }
}
