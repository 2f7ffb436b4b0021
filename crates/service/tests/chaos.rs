//! Chaos suite: property tests over seeded [`FaultPlan`]s.
//!
//! Three properties hold under *any* plan the generator produces:
//!
//! 1. every submitted request terminates with `Ok` or a typed error —
//!    never a hung waiter,
//! 2. a fault-free replay of each successful answer is bit-identical to
//!    the answer produced under faults (injection may change *which*
//!    strategy serves, never *what* a strategy computes),
//! 3. coalesced waiters all observe the same outcome, panics included.
//!
//! CI also runs this binary with pinned `MLO_FAILPOINTS` plans; the one
//! unscoped test below exercises whatever ambient plan is armed, while
//! the scoped ones deliberately mask it (a scoped plan — even an empty
//! one — overrides the environment for its lifetime).

use mlo_benchmarks::Benchmark;
use mlo_core::{
    Engine, EvaluationOptions, LayoutStrategy, OptimizeError, OptimizeRequest, StrategyContext,
    StrategyId, StrategyOutcome,
};
use mlo_csp::fault::{self, FaultPlan, FaultTrigger};
use mlo_ir::{AccessBuilder, AffineAccess, ArrayId, Program, ProgramBuilder};
use mlo_service::{MloService, ServiceConfig, ServiceError};
use proptest::prelude::*;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const NO_HANG: Duration = Duration::from_secs(30);

fn service() -> MloService {
    MloService::new(Engine::new().session(), ServiceConfig::new())
}

/// One generated failpoint entry.  Panic actions are restricted to the
/// sites whose unwinds are provably contained (the service worker thread
/// or the pool's own catch); high-frequency solver sites get bounded
/// delays or ignored errors instead, so cases stay fast.
fn arb_entry() -> impl Strategy<Value = (String, FaultTrigger)> {
    let action = prop_oneof![
        (0usize..3).prop_map(|which| {
            let site = ["engine.solve", "pool.job", "service.publish"][which];
            (site.to_string(), FaultTrigger::panic())
        }),
        (0usize..2).prop_map(|which| {
            let site = ["service.dispatch", "ac3.revise"][which];
            (site.to_string(), FaultTrigger::error())
        }),
        (0usize..5, 1u64..3).prop_map(|(which, ms)| {
            let site = [
                "engine.solve",
                "pool.job",
                "service.publish",
                "service.dispatch",
                "ac3.revise",
            ][which];
            (site.to_string(), FaultTrigger::delay_ms(ms))
        }),
    ];
    (action, 0u64..3, 1u64..3)
        .prop_map(|((site, trigger), skip, times)| (site, trigger.skip(skip).times(times)))
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    proptest::collection::vec(arb_entry(), 1..3).prop_map(|entries| {
        let mut plan = FaultPlan::new();
        for (site, trigger) in entries {
            plan = plan.with(site, trigger);
        }
        plan
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn seeded_fault_plans_terminate_and_replay_bit_identically(plan in arb_plan()) {
        let program = Benchmark::MxM.program();
        let mut successes = Vec::new();
        {
            let _armed = fault::scoped(plan);
            let service = service();
            for strategy in ["heuristic", "enhanced", "base"] {
                match service.submit(&program, &OptimizeRequest::strategy(strategy)) {
                    Ok(handle) => {
                        let result = handle
                            .wait_timeout(NO_HANG)
                            .expect("a faulted submission hung its waiter");
                        if let Ok(report) = result.as_ref() {
                            successes.push((report.strategy.clone(), report.assignment.clone()));
                        }
                        // Errors terminate the property too: any typed
                        // ServiceError is an acceptable faulted outcome.
                    }
                    Err(ServiceError::Injected { .. }) => {}
                    Err(other) => panic!("unexpected admission error: {other}"),
                }
            }
        }

        // Fault-free replay: each successful faulted answer must be
        // bit-identical to what the serving strategy computes cleanly.
        let _clean = fault::scoped(FaultPlan::new());
        let session = Engine::new().session();
        for (strategy, assignment) in successes {
            let report = session
                .optimize(&program, &OptimizeRequest::strategy(strategy.as_str()))
                .expect("fault-free replay failed");
            prop_assert_eq!(
                &report.assignment,
                &assignment,
                "faulted answer diverged from clean replay of `{}`",
                strategy
            );
        }
    }
}

/// A strategy that parks until released, then panics — a deterministic
/// mid-solve crash with waiters already coalesced onto the solve.
#[derive(Debug, Default)]
struct PanicOnRelease {
    started: Arc<(Mutex<bool>, Condvar)>,
    release: Arc<(Mutex<bool>, Condvar)>,
}

impl LayoutStrategy for PanicOnRelease {
    fn name(&self) -> &str {
        "panic-on-release"
    }

    fn determine(&self, _ctx: &StrategyContext<'_>) -> Result<StrategyOutcome, OptimizeError> {
        {
            let (lock, condvar) = &*self.started;
            *lock.lock().unwrap() = true;
            condvar.notify_all();
        }
        let (lock, condvar) = &*self.release;
        let mut released = lock.lock().unwrap();
        while !*released {
            released = condvar.wait(released).unwrap();
        }
        panic!("released straight into a panic");
    }
}

#[test]
fn coalesced_waiters_agree_after_a_mid_solve_panic() {
    let _plan = fault::scoped(FaultPlan::new());
    let strategy = Arc::new(PanicOnRelease::default());
    let started = Arc::clone(&strategy.started);
    let release = Arc::clone(&strategy.release);
    let session = Engine::builder()
        .parallelism(1)
        .strategy(strategy as Arc<dyn LayoutStrategy>)
        .build()
        .session();
    let service = MloService::new(session, ServiceConfig::new());
    let program = Benchmark::MxM.program();
    let request = OptimizeRequest::strategy(StrategyId::custom("panic-on-release"));

    let first = service.submit(&program, &request).unwrap();
    {
        let (lock, condvar) = &*started;
        let mut begun = lock.lock().unwrap();
        while !*begun {
            begun = condvar.wait(begun).unwrap();
        }
    }
    let second = service.submit(&program, &request).unwrap();
    assert!(second.is_coalesced(), "mid-solve duplicate must coalesce");
    {
        let (lock, condvar) = &*release;
        *lock.lock().unwrap() = true;
        condvar.notify_all();
    }

    let one = first.wait_timeout(NO_HANG).expect("first waiter hung");
    let two = second.wait_timeout(NO_HANG).expect("coalesced waiter hung");
    assert!(
        Arc::ptr_eq(&one, &two),
        "coalesced waiters must observe the identical outcome"
    );
    // The panic was contained into the ladder: both waiters see either a
    // degraded fallback report or the typed panic, never a hang.
    match one.as_ref() {
        Ok(report) => assert!(report.degraded),
        Err(ServiceError::Solve(OptimizeError::StrategyPanicked { .. })) => {}
        other => panic!("unexpected coalesced outcome: {other:?}"),
    }
}

#[test]
fn transient_dispatch_faults_retry_to_a_clean_result() {
    // Two injected dispatch errors back off and retry; the third attempt
    // is clean, so the caller never notices.
    let _plan =
        fault::scoped(FaultPlan::new().with("service.dispatch", FaultTrigger::error().times(2)));
    let service = service();
    let program = Benchmark::MxM.program();
    let result = service
        .submit(&program, &OptimizeRequest::strategy("heuristic"))
        .unwrap()
        .wait_timeout(NO_HANG)
        .expect("waiter hung");
    let report = result.as_ref().as_ref().expect("retries should succeed");
    assert!(!report.degraded, "retries are not a ladder descent");

    // An unbounded plan exhausts the retry budget into a typed error.
    drop(_plan);
    let _plan = fault::scoped(FaultPlan::new().with("service.dispatch", FaultTrigger::error()));
    let result = service
        .submit(&program, &OptimizeRequest::strategy("heuristic"))
        .unwrap()
        .wait_timeout(NO_HANG)
        .expect("waiter hung");
    match result.as_ref() {
        Err(ServiceError::Solve(OptimizeError::Strategy { message, .. })) => {
            assert!(message.contains("dispatch failed"), "got: {message}");
        }
        other => panic!("expected exhausted-retry error, got {other:?}"),
    }
}

#[test]
fn injected_intake_faults_reject_with_a_typed_error() {
    let _plan =
        fault::scoped(FaultPlan::new().with("service.intake", FaultTrigger::error().times(1)));
    let service = service();
    let program = Benchmark::MxM.program();
    match service.submit(&program, &OptimizeRequest::strategy("heuristic")) {
        Err(ServiceError::Injected { site }) => assert_eq!(site, "service.intake"),
        other => panic!("expected injected intake rejection, got {other:?}"),
    }
    // The trigger is spent; the next submission sails through.
    let result = service
        .submit(&program, &OptimizeRequest::strategy("heuristic"))
        .unwrap()
        .wait_timeout(NO_HANG)
        .expect("waiter hung");
    assert!(result.as_ref().is_ok());
}

#[test]
fn every_submission_terminates_under_ambient_fault_plans() {
    // Deliberately unscoped: whatever MLO_FAILPOINTS plan the harness
    // exported stays armed (CI pins panic and error plans here).  The
    // only asserted property is full termination with typed outcomes.
    let service = service();
    let program = Benchmark::MxM.program();
    for _round in 0..2 {
        for strategy in ["heuristic", "enhanced", "base"] {
            // Any typed rejection terminates the request too.
            if let Ok(handle) = service.submit(&program, &OptimizeRequest::strategy(strategy)) {
                handle
                    .wait_timeout(NO_HANG)
                    .expect("an ambient-faulted submission hung its waiter");
            }
        }
    }
}

/// One 8×8 nest over declared 2-D arrays `A` and `C` that writes `C` and
/// reads `read` through `access`.
fn one_read_program(read: ArrayId, access: AffineAccess) -> Program {
    let mut b = ProgramBuilder::new(format!("reads_{read}"));
    b.array("A", vec![8, 8], 4);
    let c = b.array("C", vec![8, 8], 4);
    b.nest("main", vec![("i", 0, 8), ("j", 0, 8)], |nest| {
        nest.write(
            c,
            AccessBuilder::new(2, 2)
                .row(0, [1, 0])
                .row(1, [0, 1])
                .build(),
        );
        nest.read(read, access);
    });
    b.build()
}

#[test]
fn malformed_references_fail_typed_on_the_first_rung() {
    let _plan = fault::scoped(FaultPlan::new());
    let service = service();
    // A 2-D `A` read as `A[i][j][i+j]`, and a read of an undeclared array.
    let programs = [
        one_read_program(
            ArrayId::new(0),
            AccessBuilder::new(3, 2)
                .row(0, [1, 0])
                .row(1, [0, 1])
                .row(2, [1, 1])
                .build(),
        ),
        one_read_program(
            ArrayId::new(2),
            AccessBuilder::new(2, 2)
                .row(0, [0, 1])
                .row(1, [1, 0])
                .build(),
        ),
    ];
    let request = OptimizeRequest::strategy("heuristic").evaluate(EvaluationOptions::date05());
    for program in &programs {
        let result = service
            .submit(program, &request)
            .unwrap()
            .wait_timeout(NO_HANG)
            .expect("waiter hung");
        match result.as_ref() {
            Err(ServiceError::Solve(OptimizeError::Evaluation { strategy, message })) => {
                assert_eq!(strategy, "heuristic");
                assert!(message.contains("malformed reference"), "{message}");
            }
            other => panic!(
                "{}: expected a typed evaluation error, got {other:?}",
                program.name()
            ),
        }
    }
    // Neither request panicked a rung or descended the ladder.
    let stats = service.stats();
    assert_eq!(stats.panicked, 0);
    assert_eq!(stats.degraded, 0);
}

/// One dependence-free nest of ten loops with 2 trips each, writing
/// `C[i8][i9]` and reading `A[i9][i0]`: 10! legal orders, of which the
/// analysis examines the first 8!.
fn depth_ten_program() -> Program {
    const LOOPS: [&str; 10] = ["i0", "i1", "i2", "i3", "i4", "i5", "i6", "i7", "i8", "i9"];
    let mut b = ProgramBuilder::new("depth_ten");
    let a = b.array("A", vec![2, 2], 4);
    let c = b.array("C", vec![2, 2], 4);
    let loops = LOOPS.iter().map(|&name| (name, 0, 2)).collect();
    b.nest("deep", loops, |nest| {
        nest.write(
            c,
            AccessBuilder::new(2, 10)
                .coeff(0, 8, 1)
                .coeff(1, 9, 1)
                .build(),
        );
        nest.read(
            a,
            AccessBuilder::new(2, 10)
                .coeff(0, 9, 1)
                .coeff(1, 0, 1)
                .build(),
        );
    });
    b.build()
}

#[test]
fn a_depth_ten_nest_is_served_on_the_first_rung() {
    let _plan = fault::scoped(FaultPlan::new());
    let service = service();
    let program = depth_ten_program();
    let requests = [
        OptimizeRequest::strategy("heuristic").evaluate(EvaluationOptions::date05()),
        OptimizeRequest::strategy("enhanced"),
    ];
    for request in &requests {
        let result = service
            .submit(&program, request)
            .unwrap()
            .wait_timeout(NO_HANG)
            .expect("waiter hung");
        let report = result.as_ref().as_ref().expect("the deep nest is served");
        assert!(!report.degraded, "{}", report.strategy);
    }
    let stats = service.stats();
    assert_eq!(stats.panicked, 0);
    assert_eq!(stats.degraded, 0);
}
