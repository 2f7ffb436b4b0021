//! The request front-end: intake → admission → coalesce → worker pool →
//! stream.
//!
//! [`MloService`] accepts optimization requests without blocking the
//! caller: `submit` performs admission control (bounded intake depth,
//! per-tenant concurrency budgets), coalesces identical
//! `(program, request)` pairs onto one in-flight solve, queues the work on
//! the session's [`WorkerPool`](mlo_csp::WorkerPool) and hands back a
//! [`ResponseHandle`].  The handle waits for, polls, streams
//! (incumbent-by-incumbent, via [`IncumbentWatch`]) or cancels the solve;
//! cancellation is cooperative and interest-counted, so a coalesced solve
//! only aborts once *every* handle attached to it has cancelled.

use mlo_core::{
    FallbackReason, OptimizeError, OptimizeReport, OptimizeRequest, Session, SolveHooks, StrategyId,
};
use mlo_csp::{fault, lock_or_recover, CancelToken, IncumbentObserver};
use mlo_ir::Program;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, Weak};
use std::time::{Duration, Instant};

/// The shared outcome of one served request.
///
/// Coalesced handles clone the same `Arc`, so duplicates of an in-flight
/// request observe pointer-identical results.
pub type SharedResult = Arc<Result<OptimizeReport, ServiceError>>;

/// Static service policy: intake bound and tenant budgets.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    queue_limit: usize,
    default_tenant_budget: Option<usize>,
    tenant_budgets: HashMap<String, usize>,
    watchdog_grace: Option<f64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_limit: 64,
            default_tenant_budget: None,
            tenant_budgets: HashMap::new(),
            watchdog_grace: None,
        }
    }
}

impl ServiceConfig {
    /// The default policy: intake bounded at 64, no tenant budgets, no
    /// watchdog.
    pub fn new() -> Self {
        ServiceConfig::default()
    }

    /// Bounds the intake queue: submissions beyond `limit` concurrently
    /// queued-or-running solves are shed with [`ServiceError::QueueFull`].
    /// `0` removes the bound.
    pub fn queue_limit(mut self, limit: usize) -> Self {
        self.queue_limit = limit;
        self
    }

    /// Caps every tenant without an explicit budget at `limit` concurrent
    /// solves (coalesced duplicates are free — they add no work).
    pub fn default_tenant_budget(mut self, limit: usize) -> Self {
        self.default_tenant_budget = Some(limit);
        self
    }

    /// Caps one named tenant at `limit` concurrent solves.
    pub fn tenant_budget(mut self, tenant: impl Into<String>, limit: usize) -> Self {
        self.tenant_budgets.insert(tenant.into(), limit);
        self
    }

    /// Arms the deadline watchdog: a solve whose request carries a
    /// deadline is cooperatively cancelled once it has run for `grace`
    /// times that deadline without completing (e.g. `1.5` = 50% slack for
    /// the strategy's own deadline handling to kick in first).  Values
    /// below `1.0` are clamped to `1.0`; default: off — the watchdog is
    /// opt-in because it turns an overrunning solve into a `Cancelled`
    /// fallback, which requests relying on exact `DeadlineExceeded`
    /// semantics may not want.
    pub fn watchdog_grace(mut self, grace: f64) -> Self {
        self.watchdog_grace = Some(grace.max(1.0));
        self
    }

    /// The configured watchdog grace factor, when the watchdog is armed.
    pub fn watchdog_grace_value(&self) -> Option<f64> {
        self.watchdog_grace
    }

    /// The configured intake bound (`0` = unbounded).
    pub fn queue_limit_value(&self) -> usize {
        self.queue_limit
    }

    /// The concurrency budget for `tenant`, when one applies.
    pub fn budget_for(&self, tenant: &str) -> Option<usize> {
        self.tenant_budgets
            .get(tenant)
            .copied()
            .or(self.default_tenant_budget)
    }
}

/// Why the service could not serve a request.
#[derive(Debug)]
pub enum ServiceError {
    /// Admission control shed the request: the intake queue was full.
    QueueFull {
        /// Queued-or-running solves at submission time.
        depth: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The tenant's concurrency budget was exhausted.
    TenantBudgetExhausted {
        /// The over-budget tenant.
        tenant: String,
        /// The tenant's solves in flight at submission time.
        in_flight: usize,
        /// The tenant's budget.
        limit: usize,
    },
    /// Every handle cancelled before the solve started; the request was
    /// drained from the queue without running.
    Cancelled,
    /// The underlying solve failed.
    Solve(OptimizeError),
    /// A fault-injection trigger fired at a service failpoint (tests
    /// only — see [`mlo_csp::fault`]; never produced in production runs).
    Injected {
        /// The failpoint that fired.
        site: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull { depth, limit } => {
                write!(f, "intake queue full ({depth} in flight, limit {limit})")
            }
            ServiceError::TenantBudgetExhausted {
                tenant,
                in_flight,
                limit,
            } => write!(
                f,
                "tenant `{tenant}` budget exhausted ({in_flight} in flight, budget {limit})"
            ),
            ServiceError::Cancelled => write!(f, "request cancelled before it started"),
            ServiceError::Solve(error) => write!(f, "solve failed: {error}"),
            ServiceError::Injected { site } => {
                write!(f, "injected service fault at failpoint `{site}`")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Solve(error) => Some(error),
            _ => None,
        }
    }
}

/// A monotonic snapshot of service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted (coalesced hits included).
    pub submitted: u64,
    /// Requests that coalesced onto an already-in-flight solve.
    pub coalesced: u64,
    /// Requests shed by the intake bound.
    pub shed: u64,
    /// Requests rejected by a tenant budget.
    pub rejected: u64,
    /// Solves that ran to completion (cancel-drained ones included).
    pub completed: u64,
    /// Solves cancelled cooperatively (drained before running, or aborted
    /// mid-search).
    pub cancelled: u64,
    /// Strategy panics contained by the resilience layer (each one was
    /// converted into a typed error or a fallback re-dispatch, never a
    /// hung waiter).
    pub panicked: u64,
    /// Requests served by a *different* strategy than asked for, because
    /// the retry/fallback ladder descended past a faulting rung.
    pub degraded: u64,
    /// Solves the deadline watchdog cancelled for overrunning their
    /// deadline by more than the configured grace factor.
    pub watchdog_cancelled: u64,
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    panicked: AtomicU64,
    degraded: AtomicU64,
    watchdog_cancelled: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            watchdog_cancelled: self.watchdog_cancelled.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Default)]
struct WatchState {
    version: u64,
    weight: Option<f64>,
}

/// A watch channel streaming incumbent updates from a running solve.
///
/// Fed by the solver's
/// [`IncumbentObserver`] whenever the
/// branch-and-bound establishes a strictly better bound.  Only attached
/// when the request was submitted with [`MloService::submit_streaming`];
/// plain submissions run the exact unhooked solve path.
#[derive(Debug, Clone, Default)]
pub struct IncumbentWatch {
    inner: Arc<WatchChannel>,
}

#[derive(Debug, Default)]
struct WatchChannel {
    state: Mutex<WatchState>,
    changed: Condvar,
}

impl IncumbentWatch {
    /// The latest published `(version, weight)` pair.  Version `0` means
    /// nothing has been published; versions only increase.
    pub fn latest(&self) -> (u64, Option<f64>) {
        let state = lock_or_recover(&self.inner.state);
        (state.version, state.weight)
    }

    /// Blocks until a version greater than `seen` is published or the
    /// timeout passes, and returns the latest pair either way.  A timeout
    /// too long for an [`Instant`] to represent waits without one.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> (u64, Option<f64>) {
        let mut state = lock_or_recover(&self.inner.state);
        let deadline = Instant::now().checked_add(timeout);
        while state.version <= seen {
            let Some(deadline) = deadline else {
                state = self
                    .inner
                    .changed
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (next, timed_out) = self
                .inner
                .changed
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
            if timed_out.timed_out() {
                break;
            }
        }
        (state.version, state.weight)
    }

    fn publish(&self, weight: f64) {
        let mut state = lock_or_recover(&self.inner.state);
        state.version += 1;
        state.weight = Some(weight);
        self.inner.changed.notify_all();
    }
}

/// Shared completion state for one (possibly coalesced) solve.
#[derive(Debug)]
struct ResponseSlot {
    result: Mutex<Option<SharedResult>>,
    ready: Condvar,
    cancel: CancelToken,
    /// Handles still interested in the outcome; the token fires when this
    /// reaches zero.
    interest: AtomicUsize,
    watch: IncumbentWatch,
}

impl ResponseSlot {
    fn new() -> Self {
        ResponseSlot {
            result: Mutex::new(None),
            ready: Condvar::new(),
            cancel: CancelToken::new(),
            interest: AtomicUsize::new(0),
            watch: IncumbentWatch::default(),
        }
    }

    /// Publishes the outcome unless one is already set (first writer
    /// wins): the normal completion path and the pool's last-resort panic
    /// observer can both try, and waiters must never see the result
    /// change under them.
    fn publish(&self, outcome: SharedResult) {
        let mut guard = lock_or_recover(&self.result);
        if guard.is_none() {
            *guard = Some(outcome);
        }
        self.ready.notify_all();
    }

    fn release_interest(&self) {
        if self.interest.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.cancel.cancel();
        }
    }
}

/// A caller's handle on one submitted request.
///
/// Dropping (or explicitly [`cancel`](ResponseHandle::cancel)ling) every
/// handle attached to a solve fires its cooperative cancellation token;
/// queued solves then drain without running and in-flight ones abort at
/// their next poll point.
#[derive(Debug)]
pub struct ResponseHandle {
    slot: Arc<ResponseSlot>,
    coalesced: bool,
    released: AtomicBool,
}

impl ResponseHandle {
    fn attach(slot: Arc<ResponseSlot>, coalesced: bool) -> Self {
        slot.interest.fetch_add(1, Ordering::AcqRel);
        ResponseHandle {
            slot,
            coalesced,
            released: AtomicBool::new(false),
        }
    }

    /// Whether this submission coalesced onto an already-in-flight solve.
    pub fn is_coalesced(&self) -> bool {
        self.coalesced
    }

    /// The result, when already available.
    pub fn try_result(&self) -> Option<SharedResult> {
        lock_or_recover(&self.slot.result).clone()
    }

    /// Blocks until the solve completes.
    pub fn wait(&self) -> SharedResult {
        let mut guard = lock_or_recover(&self.slot.result);
        loop {
            if let Some(result) = guard.as_ref() {
                return Arc::clone(result);
            }
            guard = self
                .slot
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until the solve completes or the timeout passes.  A timeout
    /// too long for an [`Instant`] to represent waits like
    /// [`wait`](ResponseHandle::wait).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<SharedResult> {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            return Some(self.wait());
        };
        let mut guard = lock_or_recover(&self.slot.result);
        loop {
            if let Some(result) = guard.as_ref() {
                return Some(Arc::clone(result));
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self
                .slot
                .ready
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            guard = next;
        }
    }

    /// Withdraws this handle's interest.  The solve's cancellation token
    /// fires once every attached handle has cancelled (or dropped), so a
    /// coalesced solve keeps running while anyone still wants the result.
    pub fn cancel(&self) {
        if !self.released.swap(true, Ordering::AcqRel) {
            self.slot.release_interest();
        }
    }

    /// The incumbent stream for this solve.  Only fed when the request was
    /// submitted with [`MloService::submit_streaming`].
    pub fn watch(&self) -> IncumbentWatch {
        self.slot.watch.clone()
    }
}

impl Clone for ResponseHandle {
    fn clone(&self) -> Self {
        ResponseHandle::attach(Arc::clone(&self.slot), self.coalesced)
    }
}

impl Drop for ResponseHandle {
    fn drop(&mut self) {
        self.cancel();
    }
}

/// How often the watchdog thread re-checks for work when no deadline is
/// armed (it also bounds how long the thread lingers after its service
/// drops).
const WATCHDOG_IDLE_POLL: Duration = Duration::from_millis(50);

/// One armed deadline: the watchdog fires `cancel` (and records it in
/// `fired`) if the entry is still registered past `deadline`.
#[derive(Debug)]
struct WatchdogEntry {
    id: u64,
    deadline: Instant,
    cancel: CancelToken,
    fired: Arc<AtomicBool>,
}

/// Shared state between solves and the (lazily spawned) watchdog thread.
#[derive(Debug, Default)]
struct WatchdogState {
    entries: Mutex<Vec<WatchdogEntry>>,
    changed: Condvar,
    next_id: AtomicU64,
    thread: OnceLock<()>,
}

/// Deregisters the entry on drop, so a solve that completes in time never
/// gets a late cancellation.
#[derive(Debug)]
struct WatchdogGuard {
    state: Arc<WatchdogState>,
    id: u64,
    fired: Arc<AtomicBool>,
}

impl WatchdogGuard {
    fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }
}

impl Drop for WatchdogGuard {
    fn drop(&mut self) {
        lock_or_recover(&self.state.entries).retain(|entry| entry.id != self.id);
        self.state.changed.notify_all();
    }
}

fn watchdog_register(
    state: &Arc<WatchdogState>,
    deadline: Instant,
    cancel: CancelToken,
) -> WatchdogGuard {
    state.thread.get_or_init(|| {
        let weak = Arc::downgrade(state);
        std::thread::Builder::new()
            .name("mlo-watchdog".into())
            .spawn(move || watchdog_loop(weak))
            .expect("failed to spawn the watchdog thread");
    });
    let id = state.next_id.fetch_add(1, Ordering::Relaxed);
    let fired = Arc::new(AtomicBool::new(false));
    lock_or_recover(&state.entries).push(WatchdogEntry {
        id,
        deadline,
        cancel,
        fired: Arc::clone(&fired),
    });
    state.changed.notify_all();
    WatchdogGuard {
        state: Arc::clone(state),
        id,
        fired,
    }
}

/// The watchdog thread: holds only a `Weak` between iterations so it
/// exits (within one idle poll) once the owning service drops.
fn watchdog_loop(weak: Weak<WatchdogState>) {
    loop {
        let Some(state) = weak.upgrade() else { return };
        let mut entries = lock_or_recover(&state.entries);
        let now = Instant::now();
        entries.retain(|entry| {
            if entry.deadline <= now {
                entry.fired.store(true, Ordering::Release);
                entry.cancel.cancel();
                false
            } else {
                true
            }
        });
        let timeout = entries
            .iter()
            .map(|entry| entry.deadline.saturating_duration_since(now))
            .min()
            .unwrap_or(WATCHDOG_IDLE_POLL);
        drop(
            state
                .changed
                .wait_timeout(entries, timeout)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }
}

/// The request front-end over a [`Session`].
///
/// ```
/// use mlo_core::{Engine, OptimizeRequest};
/// use mlo_service::{MloService, ServiceConfig};
/// use mlo_benchmarks::Benchmark;
///
/// let service = MloService::new(Engine::new().session(), ServiceConfig::new());
/// let program = Benchmark::MxM.program();
/// let handle = service
///     .submit(&program, &OptimizeRequest::strategy("enhanced"))
///     .unwrap();
/// let result = handle.wait();
/// assert!(result.as_ref().as_ref().unwrap().assignment.len() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct MloService {
    core: Arc<ServiceCore>,
}

#[derive(Debug)]
struct ServiceCore {
    session: Session,
    config: ServiceConfig,
    /// Queued-or-running solves (coalesced duplicates excluded).
    depth: AtomicUsize,
    /// In-flight solves by request identity, for coalescing.
    inflight: Mutex<HashMap<InflightKey, Weak<ResponseSlot>>>,
    /// Per-tenant in-flight counts.
    tenants: Mutex<HashMap<String, usize>>,
    counters: Counters,
    /// Armed deadlines, present only when the config enables the
    /// watchdog.
    watchdog: Option<Arc<WatchdogState>>,
}

/// The identity of a solve: two submissions coalesce iff their keys are
/// equal.  The key hashes the request and the program's fingerprint, and
/// compares programs in full, so unequal programs that share a fingerprint
/// never coalesce.  No part of it is rendered to text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct InflightKey {
    streaming: bool,
    request: OptimizeRequest,
    /// A clone of the submitted program, sharing its parts.
    program: Program,
}

/// Idempotent completion bookkeeping for one admitted solve.
///
/// Shared between the normal run path and the pool's last-resort panic
/// observer: whichever side finishes the job releases the admission
/// resources (queue depth, tenant budget, in-flight map entry) exactly
/// once, guarded by `done`.
struct Cleanup {
    /// What the job solves, and its in-flight map key.
    key: InflightKey,
    /// The job's own slot: the map entry is removed only while it still
    /// points here, never after a resubmission has replaced it.
    slot: Weak<ResponseSlot>,
    tenant: Option<String>,
    done: AtomicBool,
}

/// One queued unit of work, moved onto the pool.
struct Job {
    slot: Arc<ResponseSlot>,
    cleanup: Arc<Cleanup>,
}

/// One rung of the retry/fallback ladder either completed (with a report
/// or a typed error, both of which end the ladder) or panicked (which
/// descends to the next rung).
enum Rung {
    Done(Box<Result<OptimizeReport, OptimizeError>>),
    Panicked(OptimizeError),
}

impl MloService {
    /// A service over the given session and policy.
    pub fn new(session: Session, config: ServiceConfig) -> Self {
        let config_watchdog = config
            .watchdog_grace
            .is_some()
            .then(|| Arc::new(WatchdogState::default()));
        MloService {
            core: Arc::new(ServiceCore {
                session,
                config,
                depth: AtomicUsize::new(0),
                inflight: Mutex::new(HashMap::new()),
                tenants: Mutex::new(HashMap::new()),
                counters: Counters::default(),
                watchdog: config_watchdog,
            }),
        }
    }

    /// The underlying session.
    pub fn session(&self) -> &Session {
        &self.core.session
    }

    /// The service policy.
    pub fn config(&self) -> &ServiceConfig {
        &self.core.config
    }

    /// Current queued-or-running solve count (coalesced duplicates add
    /// nothing).
    pub fn queue_depth(&self) -> usize {
        self.core.depth.load(Ordering::Acquire)
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.core.counters.snapshot()
    }

    /// Submits a request; returns immediately with a handle (or a shed /
    /// budget rejection).  The solve itself runs the exact same path as
    /// [`Session::optimize`] — no hooks beyond the cancellation token are
    /// attached, so reports are bit-identical to a direct session call.
    pub fn submit(
        &self,
        program: &Program,
        request: &OptimizeRequest,
    ) -> Result<ResponseHandle, ServiceError> {
        self.core.submit(program, request, None, false)
    }

    /// [`MloService::submit`] with the work charged against `tenant`'s
    /// concurrency budget.
    pub fn submit_for_tenant(
        &self,
        tenant: &str,
        program: &Program,
        request: &OptimizeRequest,
    ) -> Result<ResponseHandle, ServiceError> {
        self.core.submit(program, request, Some(tenant), false)
    }

    /// [`MloService::submit`] with incumbent streaming: the handle's
    /// [`watch`](ResponseHandle::watch) receives every strictly-improving
    /// bound the weighted search establishes.
    ///
    /// Streaming requests never coalesce with plain ones (a plain solve
    /// has no observer attached), but do coalesce with each other.
    pub fn submit_streaming(
        &self,
        program: &Program,
        request: &OptimizeRequest,
    ) -> Result<ResponseHandle, ServiceError> {
        self.core.submit(program, request, None, true)
    }

    /// Synchronous convenience: submit and wait.
    pub fn optimize(&self, program: &Program, request: &OptimizeRequest) -> SharedResult {
        match self.submit(program, request) {
            Ok(handle) => handle.wait(),
            Err(error) => Arc::new(Err(error)),
        }
    }
}

impl ServiceCore {
    fn submit(
        self: &Arc<Self>,
        program: &Program,
        request: &OptimizeRequest,
        tenant: Option<&str>,
        streaming: bool,
    ) -> Result<ResponseHandle, ServiceError> {
        mlo_csp::fail_point!("service.intake", |fault: mlo_csp::FaultError| {
            Err(ServiceError::Injected { site: fault.site })
        });

        let key = InflightKey {
            streaming,
            request: request.clone(),
            program: program.clone(),
        };

        // The map lock spans lookup and insertion so coalesce-or-create is
        // atomic with respect to concurrent submitters.
        let mut inflight = lock_or_recover(&self.inflight);

        if let Some(slot) = inflight.get(&key).and_then(Weak::upgrade) {
            // A fully-cancelled slot is still draining; give the new
            // submitter a fresh solve instead of the cancelled outcome.
            if !slot.cancel.is_cancelled() {
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                return Ok(ResponseHandle::attach(slot, true));
            }
        }

        let depth = self.depth.load(Ordering::Acquire);
        let limit = self.config.queue_limit;
        if limit > 0 && depth >= limit {
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::QueueFull { depth, limit });
        }

        if let Some(tenant) = tenant {
            if let Some(budget) = self.config.budget_for(tenant) {
                let mut tenants = lock_or_recover(&self.tenants);
                let in_flight = tenants.get(tenant).copied().unwrap_or(0);
                if in_flight >= budget {
                    self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(ServiceError::TenantBudgetExhausted {
                        tenant: tenant.to_string(),
                        in_flight,
                        limit: budget,
                    });
                }
                *tenants.entry(tenant.to_string()).or_insert(0) += 1;
            }
        }

        self.depth.fetch_add(1, Ordering::AcqRel);
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);

        let slot = Arc::new(ResponseSlot::new());
        let handle = ResponseHandle::attach(Arc::clone(&slot), false);
        inflight.insert(key.clone(), Arc::downgrade(&slot));
        drop(inflight);

        let cleanup = Arc::new(Cleanup {
            key,
            slot: Arc::downgrade(&slot),
            tenant: tenant.map(str::to_string),
            done: AtomicBool::new(false),
        });
        let job = Job {
            slot: Arc::clone(&slot),
            cleanup: Arc::clone(&cleanup),
        };
        let core = Arc::clone(self);
        let observer_core = Arc::clone(self);
        // The observer is the last line of defense: `run` contains rung
        // panics itself, so this only fires when the run path *itself*
        // dies (e.g. an injected `pool.job` or `service.publish` panic).
        // It still releases the admission bookkeeping and fills the slot,
        // so no waiter ever hangs on a panicked solve.
        self.session.worker_pool().execute_observed(
            move || core.run(job),
            move |panic| {
                observer_core.finish(&cleanup);
                observer_core
                    .counters
                    .panicked
                    .fetch_add(1, Ordering::Relaxed);
                slot.publish(Arc::new(Err(ServiceError::Solve(
                    OptimizeError::StrategyPanicked {
                        strategy: cleanup.key.request.strategy.to_string(),
                        message: panic.message,
                        failpoint: panic.failpoint,
                    },
                ))));
            },
        );
        Ok(handle)
    }

    fn run(&self, job: Job) {
        let Job { slot, cleanup } = job;
        let outcome: SharedResult = if slot.cancel.is_cancelled() {
            // Every handle cancelled while we were queued: drain without
            // solving.
            self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            Arc::new(Err(ServiceError::Cancelled))
        } else {
            let key = &cleanup.key;
            Arc::new(self.serve(&slot, &key.program, &key.request, key.streaming))
        };

        // All bookkeeping strictly precedes publication, so a caller that
        // observed completion also observes the refunded queue depth,
        // tenant budget and counters.  (Late submitters hitting the map
        // entry in this window start a fresh solve, which is fine.)
        self.finish(&cleanup);
        mlo_csp::fail_point!("service.publish");
        slot.publish(outcome);
    }

    /// Serves one admitted request through the retry/fallback ladder.
    ///
    /// Rung 0 runs the request *untouched*, so fault-free service results
    /// stay bit-identical to a direct [`Session::optimize`] call.  Only
    /// when a rung panics (contained per rung via `catch_unwind`) does the
    /// ladder descend — to `enhanced`, then `heuristic` — re-dispatching
    /// with whatever wall-clock deadline remains; typed errors
    /// (unsatisfiable, budget exhausted, injected engine faults) end the
    /// ladder unchanged.  Reports served by a lower rung are marked
    /// [`degraded`](OptimizeReport::degraded).  No state carries between
    /// requests: a strategy that panics on every request is retried (and
    /// contained) each time.
    fn serve(
        &self,
        slot: &ResponseSlot,
        program: &Program,
        request: &OptimizeRequest,
        streaming: bool,
    ) -> Result<OptimizeReport, ServiceError> {
        let start = Instant::now();
        let original_deadline = request.budget.deadline;
        let mut rungs = vec![request.strategy.clone()];
        for fallback in [StrategyId::Enhanced, StrategyId::Heuristic] {
            if !rungs.contains(&fallback) {
                rungs.push(fallback);
            }
        }

        let mut last_panic: Option<OptimizeError> = None;
        for (index, strategy) in rungs.iter().enumerate() {
            let degraded = index > 0;
            let mut attempt;
            let attempt_request = if degraded {
                attempt = request.clone();
                attempt.set_strategy(strategy.clone());
                if let Some(deadline) = original_deadline {
                    // The ladder shares the caller's deadline: a fallback
                    // rung only gets whatever wall clock the faulting
                    // rungs above it left over.
                    attempt.budget_mut().deadline = Some(deadline.saturating_sub(start.elapsed()));
                }
                &attempt
            } else {
                request
            };

            let (rung, watchdog_fired) = self.run_rung(slot, program, attempt_request, streaming);
            if watchdog_fired {
                self.counters
                    .watchdog_cancelled
                    .fetch_add(1, Ordering::Relaxed);
            }
            match rung {
                Rung::Done(result) => {
                    let mut result = *result;
                    if let Ok(report) = &mut result {
                        if degraded {
                            report.degraded = true;
                            self.counters.degraded.fetch_add(1, Ordering::Relaxed);
                        }
                        if report.fallback.reason() == Some(FallbackReason::Cancelled) {
                            self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    return result.map_err(ServiceError::Solve);
                }
                Rung::Panicked(error) => {
                    self.counters.panicked.fetch_add(1, Ordering::Relaxed);
                    last_panic = Some(error);
                }
            }
        }

        // Every rung panicked: surface the last panic as a typed error
        // rather than inventing a result.
        Err(ServiceError::Solve(
            last_panic.expect("the ladder always has the requested rung"),
        ))
    }

    /// Runs one ladder rung with panic containment and (when armed) a
    /// watchdog deadline.  Returns the rung outcome plus whether the
    /// watchdog cancelled this rung.
    fn run_rung(
        &self,
        slot: &ResponseSlot,
        program: &Program,
        request: &OptimizeRequest,
        streaming: bool,
    ) -> (Rung, bool) {
        // Transient dispatch faults (the `service.dispatch` failpoint)
        // retry with exponential backoff before counting as a failure.
        const DISPATCH_ATTEMPTS: u32 = 3;
        let mut backoff = Duration::from_millis(1);
        for attempt in 0..DISPATCH_ATTEMPTS {
            match fault::hit("service.dispatch") {
                None => break,
                Some(fault) if attempt + 1 == DISPATCH_ATTEMPTS => {
                    return (
                        Rung::Done(Box::new(Err(OptimizeError::Strategy {
                            strategy: request.strategy.to_string(),
                            message: format!(
                                "dispatch failed after {DISPATCH_ATTEMPTS} attempts: {fault}"
                            ),
                        }))),
                        false,
                    );
                }
                Some(_) => {
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
            }
        }

        let mut hooks = SolveHooks::cancellable(slot.cancel.clone());
        if streaming {
            let watch = slot.watch.clone();
            hooks.incumbent = Some(IncumbentObserver::new(move |weight| {
                watch.publish(weight);
            }));
        }

        let watchdog = match (
            &self.watchdog,
            self.config.watchdog_grace,
            request.budget.deadline,
        ) {
            // An arm time past what `Duration` or `Instant` can represent
            // could never fire, so none is armed.
            (Some(state), Some(grace), Some(deadline)) => {
                Duration::try_from_secs_f64(grace * deadline.as_secs_f64())
                    .ok()
                    .and_then(|after| Instant::now().checked_add(after))
                    .map(|at| watchdog_register(state, at, slot.cancel.clone()))
            }
            _ => None,
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.session.optimize_with_hooks(program, request, &hooks)
        }));
        let fired = watchdog.as_ref().is_some_and(WatchdogGuard::fired);
        drop(watchdog);

        match result {
            Ok(result) => (Rung::Done(Box::new(result)), fired),
            Err(payload) => (
                Rung::Panicked(OptimizeError::StrategyPanicked {
                    strategy: request.strategy.to_string(),
                    message: fault::panic_message(&*payload),
                    failpoint: fault::take_last_triggered(),
                }),
                fired,
            ),
        }
    }

    /// Releases one solve's admission resources exactly once (idempotent
    /// via the cleanup's `done` flag, because both the run path and the
    /// pool's panic observer call it).
    fn finish(&self, cleanup: &Cleanup) {
        if cleanup.done.swap(true, Ordering::AcqRel) {
            return;
        }
        let mut inflight = lock_or_recover(&self.inflight);
        if inflight
            .get(&cleanup.key)
            .is_some_and(|slot| slot.ptr_eq(&cleanup.slot))
        {
            inflight.remove(&cleanup.key);
        }
        drop(inflight);
        if let Some(tenant) = &cleanup.tenant {
            let mut tenants = lock_or_recover(&self.tenants);
            if let Some(count) = tenants.get_mut(tenant) {
                *count = count.saturating_sub(1);
                if *count == 0 {
                    tenants.remove(tenant);
                }
            }
        }
        self.depth.fetch_sub(1, Ordering::AcqRel);
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod identity;
