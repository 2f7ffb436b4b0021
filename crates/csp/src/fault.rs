//! Deterministic fault injection: named failpoints with seeded,
//! count-based triggers.
//!
//! Production resilience claims ("a panicking strategy never hangs a
//! waiter", "the service degrades instead of crashing") are only testable
//! if faults can be injected at *exact, reproducible* points.  This module
//! provides that harness:
//!
//! * Code under test declares **failpoints** with
//!   [`fail_point!`](crate::fail_point) — named markers on the hot paths
//!   (`ac3.revise`, `steal.worker`, `service.publish`, ...) that cost one
//!   relaxed atomic load while no plan is installed and compile to nothing
//!   when the `failpoints` cargo feature is disabled.
//! * Tests install a [`FaultPlan`] mapping sites to [`FaultTrigger`]s —
//!   panic, delay or spurious error, gated by deterministic `skip` /
//!   `times` counters and an optional seeded probability — either
//!   programmatically via [`scoped`] or ambiently via the
//!   [`MLO_FAILPOINTS`](ENV_VAR) environment variable.
//! * A [`scoped`] plan fires only for the code it was armed for: the
//!   arming thread and the [`WorkerPool`](crate::WorkerPool) jobs submitted
//!   from it (each job carries its submitter's scope, transitively).  A
//!   concurrently running test that merely passes through an armed site
//!   neither fires the trigger nor consumes its counters.  The ambient
//!   environment plan and [`install`]ed plans stay process-wide.
//!
//! Triggers are deterministic by construction: counters are per-site and
//! the probability gate runs a seeded xorshift generator, so the same plan
//! over the same execution order fires at the same hits.
//!
//! ```
//! use mlo_csp::fault::{self, FaultPlan, FaultTrigger};
//!
//! fn guarded() -> Result<u32, String> {
//!     mlo_csp::fail_point!("doc.example", |fault| Err(fault.to_string()));
//!     Ok(7)
//! }
//!
//! let _plan = fault::scoped(FaultPlan::new().with("doc.example", FaultTrigger::error().times(1)));
//! # #[cfg(feature = "failpoints")] // without it no site fires
//! assert!(guarded().is_err()); // first hit fires
//! assert_eq!(guarded(), Ok(7)); // trigger budget exhausted
//! ```

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;
#[cfg(feature = "failpoints")]
use std::{
    collections::HashMap,
    sync::{Arc, RwLock},
};

/// The environment variable holding an ambient fault plan, read on the
/// first failpoint hit of the process.
///
/// Syntax (entries joined by `;`):
///
/// ```text
/// MLO_FAILPOINTS="ac3.revise=delay(2)@times=50;engine.solve=panic@skip=1@times=1"
/// ```
///
/// Each entry is `site=action` with optional `@` modifiers:
///
/// * actions: `panic`, `error`, `delay(<millis>)`
/// * `@skip=N` — ignore the first `N` hits of the site
/// * `@times=N` — fire at most `N` times (default: unlimited)
/// * `@prob=F` + `@seed=S` — fire a hit with probability `F`, decided by a
///   seeded xorshift generator (deterministic per hit sequence)
pub const ENV_VAR: &str = "MLO_FAILPOINTS";

/// What an armed failpoint does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a message naming the site (the containment paths record
    /// the site via [`take_last_triggered`]).
    Panic,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
    /// Return a [`FaultError`] to the failpoint's error arm.  Sites
    /// declared with the bare `fail_point!(site)` form have no error arm
    /// and ignore this action.
    Error,
}

/// When a failpoint fires: a deterministic counter/probability gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultTrigger {
    /// The injected behavior.
    pub action: FaultAction,
    /// Hits ignored before the trigger becomes eligible.
    pub skip: u64,
    /// Maximum number of firings (`None` = unlimited).
    pub times: Option<u64>,
    /// Optional `(probability, seed)` gate on each eligible hit.
    pub probability: Option<(f64, u64)>,
}

impl FaultTrigger {
    fn action(action: FaultAction) -> Self {
        FaultTrigger {
            action,
            skip: 0,
            times: None,
            probability: None,
        }
    }

    /// A trigger that panics.
    pub fn panic() -> Self {
        FaultTrigger::action(FaultAction::Panic)
    }

    /// A trigger that sleeps `millis` milliseconds.
    pub fn delay_ms(millis: u64) -> Self {
        FaultTrigger::action(FaultAction::Delay(Duration::from_millis(millis)))
    }

    /// A trigger that injects a spurious [`FaultError`].
    pub fn error() -> Self {
        FaultTrigger::action(FaultAction::Error)
    }

    /// Ignores the first `hits` passes through the site.
    pub fn skip(mut self, hits: u64) -> Self {
        self.skip = hits;
        self
    }

    /// Fires at most `count` times.
    pub fn times(mut self, count: u64) -> Self {
        self.times = Some(count);
        self
    }

    /// Gates each eligible hit on a seeded coin flip with probability `p`
    /// (clamped to `[0, 1]`); the xorshift stream makes the decision
    /// sequence a pure function of `seed`.
    pub fn probability(mut self, p: f64, seed: u64) -> Self {
        self.probability = Some((p.clamp(0.0, 1.0), seed));
        self
    }
}

/// The error an armed [`FaultAction::Error`] trigger injects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The failpoint that fired.
    pub site: String,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at failpoint `{}`", self.site)
    }
}

impl std::error::Error for FaultError {}

/// A reproducible set of `(site, trigger)` entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    entries: Vec<(String, FaultTrigger)>,
}

/// Why a [`FaultPlan`] string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError(String);

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan parse error: {}", self.0)
    }
}

impl std::error::Error for FaultParseError {}

impl FaultPlan {
    /// An empty plan (installing it arms the registry with zero sites,
    /// which masks any ambient [`ENV_VAR`] plan — the fault-free replay
    /// tool).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds one `(site, trigger)` entry.
    pub fn with(mut self, site: impl Into<String>, trigger: FaultTrigger) -> Self {
        self.entries.push((site.into(), trigger));
        self
    }

    /// The configured entries.
    pub fn entries(&self) -> &[(String, FaultTrigger)] {
        &self.entries
    }

    /// Whether the plan has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parses the [`ENV_VAR`] syntax (see its docs).
    pub fn parse(text: &str) -> Result<Self, FaultParseError> {
        let mut plan = FaultPlan::new();
        for entry in text.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (site, spec) = entry
                .split_once('=')
                .ok_or_else(|| FaultParseError(format!("missing `=` in `{entry}`")))?;
            let site = site.trim();
            if site.is_empty() {
                return Err(FaultParseError(format!("empty site in `{entry}`")));
            }
            plan.entries
                .push((site.to_string(), parse_trigger(spec.trim())?));
        }
        Ok(plan)
    }

    /// The ambient plan from [`ENV_VAR`], when the variable is set.
    pub fn from_env() -> Option<Result<Self, FaultParseError>> {
        std::env::var(ENV_VAR).ok().map(|text| Self::parse(&text))
    }
}

fn parse_trigger(spec: &str) -> Result<FaultTrigger, FaultParseError> {
    let mut parts = spec.split('@');
    let action = parts
        .next()
        .map(str::trim)
        .filter(|base| !base.is_empty())
        .ok_or_else(|| FaultParseError(format!("empty trigger in `{spec}`")))?;
    let mut trigger = match action {
        "panic" => FaultTrigger::panic(),
        "error" => FaultTrigger::error(),
        delay if delay.starts_with("delay(") && delay.ends_with(')') => {
            let millis = delay["delay(".len()..delay.len() - 1]
                .trim()
                .parse::<u64>()
                .map_err(|_| FaultParseError(format!("bad delay millis in `{spec}`")))?;
            FaultTrigger::delay_ms(millis)
        }
        other => {
            return Err(FaultParseError(format!(
                "unknown action `{other}` (expected panic, error or delay(<ms>))"
            )))
        }
    };
    let mut probability: Option<f64> = None;
    let mut seed: u64 = 0;
    for modifier in parts {
        let (key, value) = modifier
            .trim()
            .split_once('=')
            .ok_or_else(|| FaultParseError(format!("bad modifier `{modifier}`")))?;
        match key.trim() {
            "skip" => {
                trigger.skip = value
                    .trim()
                    .parse()
                    .map_err(|_| FaultParseError(format!("bad skip count in `{spec}`")))?;
            }
            "times" => {
                trigger.times = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| FaultParseError(format!("bad times count in `{spec}`")))?,
                );
            }
            "prob" => {
                probability = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| FaultParseError(format!("bad probability in `{spec}`")))?,
                );
            }
            "seed" => {
                seed = value
                    .trim()
                    .parse()
                    .map_err(|_| FaultParseError(format!("bad seed in `{spec}`")))?;
            }
            other => {
                return Err(FaultParseError(format!("unknown modifier `{other}`")));
            }
        }
    }
    if let Some(p) = probability {
        trigger = trigger.probability(p, seed);
    }
    Ok(trigger)
}

/// Per-site runtime state of an installed plan.
#[cfg(feature = "failpoints")]
#[derive(Debug)]
struct ActiveSite {
    trigger: FaultTrigger,
    /// Total passes through the site.
    hits: AtomicU64,
    /// Firings so far (bounded by `trigger.times`).
    fired: AtomicU64,
    /// xorshift state of the probability gate.
    rng: AtomicU64,
}

#[cfg(feature = "failpoints")]
#[derive(Debug, Default)]
struct ActivePlan {
    sites: HashMap<String, ActiveSite>,
    /// The scope the plan fires in: [`GLOBAL_SCOPE`] for ambient and
    /// [`install`]ed plans, the arming token for [`scoped`] ones.
    scope: u64,
}

/// Registry arming state: the one relaxed load every failpoint pays.
const STATE_UNINIT: u8 = 0;
#[cfg(feature = "failpoints")]
const STATE_DISARMED: u8 = 1;
#[cfg(feature = "failpoints")]
const STATE_ARMED: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);
#[cfg(feature = "failpoints")]
static PLAN: RwLock<Option<Arc<ActivePlan>>> = RwLock::new(None);
/// The scope of a plan that fires on every thread, and of a thread outside
/// any [`scoped`] plan.
const GLOBAL_SCOPE: u64 = 0;
/// The next [`scoped`] plan's token.
static NEXT_SCOPE: AtomicU64 = AtomicU64::new(GLOBAL_SCOPE + 1);
/// Serializes installs (and the tests that use them) process-wide.
static TEST_LOCK: Mutex<()> = Mutex::new(());
/// Protects the one-time environment read.
#[cfg(feature = "failpoints")]
static ENV_INIT: Mutex<()> = Mutex::new(());

thread_local! {
    /// The last site whose trigger fired on this thread, recorded *before*
    /// an injected panic unwinds so containment code can attribute it.
    static LAST_TRIGGERED: RefCell<Option<String>> = const { RefCell::new(None) };
    /// The [`scoped`] plan this thread works for ([`GLOBAL_SCOPE`] when
    /// none): set by the arming thread and by every pool job it submits.
    static SCOPE: Cell<u64> = const { Cell::new(GLOBAL_SCOPE) };
}

/// Declares a failpoint.
///
/// * `fail_point!("site")` — supports [`FaultAction::Panic`] and
///   [`FaultAction::Delay`]; an `error` trigger at such a site is a no-op.
/// * `fail_point!("site", |fault| expr)` — additionally supports
///   [`FaultAction::Error`]: when the trigger fires the enclosing function
///   returns `expr`, with `fault` bound to the [`FaultError`](crate::fault::FaultError).
///
/// Cost while disarmed: one relaxed atomic load.  With the `failpoints`
/// cargo feature disabled the runtime check compiles away entirely.
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {{
        let _ = $crate::fault::hit($site);
    }};
    ($site:expr, $on_error:expr) => {{
        if let Some(fault) = $crate::fault::hit($site) {
            return $crate::fault::apply_handler($on_error, fault);
        }
    }};
}

/// Invokes a `fail_point!` error handler (an implementation detail of the
/// macro expansion: the generic bound gives closure parameters an expected
/// type, which direct invocation would not).
#[doc(hidden)]
pub fn apply_handler<R>(handler: impl FnOnce(FaultError) -> R, fault: FaultError) -> R {
    handler(fault)
}

/// Evaluates the failpoint `site`: returns `Some(FaultError)` when an
/// armed `error` trigger fires, handles `panic`/`delay` internally and
/// returns `None` otherwise.  Callers normally use
/// [`fail_point!`](crate::fail_point) instead.
#[inline]
pub fn hit(site: &str) -> Option<FaultError> {
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = site;
        None
    }
    #[cfg(feature = "failpoints")]
    {
        loop {
            match STATE.load(Ordering::Relaxed) {
                STATE_DISARMED => return None,
                STATE_ARMED => return fire(site),
                _ => init_from_env(),
            }
        }
    }
}

/// Installs `plan` process-wide (it fires on every thread), replacing any
/// installed or ambient plan.
pub fn install(plan: FaultPlan) {
    install_in(plan, GLOBAL_SCOPE);
}

/// Arms `plan` for `scope`.  Without the `failpoints` feature no site can
/// fire, so nothing is armed.
#[cfg(not(feature = "failpoints"))]
fn install_in(_plan: FaultPlan, _scope: u64) {}

#[cfg(feature = "failpoints")]
fn install_in(plan: FaultPlan, scope: u64) {
    let mut sites = HashMap::new();
    for (site, trigger) in plan.entries {
        let seed = trigger.probability.map(|(_, seed)| seed).unwrap_or(0);
        sites.insert(
            site,
            ActiveSite {
                trigger,
                hits: AtomicU64::new(0),
                fired: AtomicU64::new(0),
                rng: AtomicU64::new(seed.wrapping_add(0x9E37_79B9_7F4A_7C15) | 1),
            },
        );
    }
    *write_plan() = Some(Arc::new(ActivePlan { sites, scope }));
    STATE.store(STATE_ARMED, Ordering::SeqCst);
}

/// Removes any installed plan.  The registry returns to the *uninitialized*
/// state, so an ambient [`ENV_VAR`] plan (if present) re-arms on the next
/// hit — a scoped override never permanently masks the environment.
pub fn clear() {
    #[cfg(feature = "failpoints")]
    {
        *write_plan() = None;
    }
    STATE.store(STATE_UNINIT, Ordering::SeqCst);
}

/// Installs `plan` for the lifetime of the returned guard, serializing
/// with every other scoped plan in the process (tests that inject faults
/// cannot race each other's registries).  Dropping the guard restores the
/// uninitialized state (see [`clear`]).
///
/// The plan fires only on the calling thread and in the
/// [`WorkerPool`](crate::WorkerPool) jobs submitted from it, directly or
/// through nested jobs: a thread that works for nobody's scope passes its
/// sites untouched while the plan is armed.
pub fn scoped(plan: FaultPlan) -> ScopedPlan {
    let lock = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let scope = NEXT_SCOPE.fetch_add(1, Ordering::Relaxed);
    install_in(plan, scope);
    ScopedPlan {
        _lock: lock,
        _scope: enter_scope(scope),
    }
}

/// Guard of a [`scoped`] plan installation.
#[derive(Debug)]
pub struct ScopedPlan {
    _lock: MutexGuard<'static, ()>,
    _scope: ScopeGuard,
}

impl Drop for ScopedPlan {
    fn drop(&mut self) {
        clear();
    }
}

/// The scope the calling thread works for, which a pool job carries from
/// its submitter.
pub(crate) fn current_scope() -> u64 {
    SCOPE.with(Cell::get)
}

/// Puts the calling thread in `scope` until the guard drops.
pub(crate) fn enter_scope(scope: u64) -> ScopeGuard {
    ScopeGuard {
        previous: SCOPE.with(|current| current.replace(scope)),
    }
}

/// Restores a thread's previous scope on drop (panics included).
#[derive(Debug)]
pub(crate) struct ScopeGuard {
    previous: u64,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|current| current.set(self.previous));
    }
}

/// Takes (and clears) the last site whose trigger fired on this thread.
/// Containment code calls this after catching an injected panic to record
/// the failpoint in the typed outcome.
pub fn take_last_triggered() -> Option<String> {
    LAST_TRIGGERED.with(|last| last.borrow_mut().take())
}

/// Renders a caught panic payload (`&str` and `String` payloads verbatim,
/// an opaque marker otherwise) — the one panic-message extractor every
/// containment path shares.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(feature = "failpoints")]
fn write_plan() -> std::sync::RwLockWriteGuard<'static, Option<Arc<ActivePlan>>> {
    PLAN.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(feature = "failpoints")]
fn init_from_env() {
    let _guard = ENV_INIT.lock().unwrap_or_else(PoisonError::into_inner);
    if STATE.load(Ordering::SeqCst) != STATE_UNINIT {
        return; // raced: someone else initialized meanwhile
    }
    match FaultPlan::from_env() {
        Some(Ok(plan)) => install(plan),
        Some(Err(error)) => {
            eprintln!("ignoring invalid {ENV_VAR}: {error}");
            STATE.store(STATE_DISARMED, Ordering::SeqCst);
        }
        None => STATE.store(STATE_DISARMED, Ordering::SeqCst),
    }
}

#[cfg(feature = "failpoints")]
fn fire(site: &str) -> Option<FaultError> {
    let plan = {
        let guard = PLAN.read().unwrap_or_else(PoisonError::into_inner);
        guard.as_ref().map(Arc::clone)
    }?;
    if plan.scope != GLOBAL_SCOPE && plan.scope != current_scope() {
        return None;
    }
    let state = plan.sites.get(site)?;
    let sequence = state.hits.fetch_add(1, Ordering::Relaxed);
    if sequence < state.trigger.skip {
        return None;
    }
    if let Some((p, _)) = state.trigger.probability {
        let next = state
            .rng
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |mut x| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Some(x)
            })
            .unwrap_or(1);
        let unit = (next >> 11) as f64 / (1u64 << 53) as f64;
        if unit >= p {
            return None;
        }
    }
    if let Some(times) = state.trigger.times {
        if state.fired.fetch_add(1, Ordering::Relaxed) >= times {
            return None;
        }
    }
    match state.trigger.action {
        FaultAction::Panic => {
            LAST_TRIGGERED.with(|last| *last.borrow_mut() = Some(site.to_string()));
            panic!("failpoint `{site}` injected panic");
        }
        FaultAction::Delay(duration) => {
            std::thread::sleep(duration);
            None
        }
        FaultAction::Error => Some(FaultError {
            site: site.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_env_syntax() {
        let plan = FaultPlan::parse(
            "ac3.revise=delay(2)@times=50; engine.solve=panic@skip=1@times=1;x=error@prob=0.5@seed=9",
        )
        .unwrap();
        assert_eq!(plan.entries().len(), 3);
        assert_eq!(
            plan.entries()[0],
            (
                "ac3.revise".to_string(),
                FaultTrigger::delay_ms(2).times(50)
            )
        );
        assert_eq!(
            plan.entries()[1],
            (
                "engine.solve".to_string(),
                FaultTrigger::panic().skip(1).times(1)
            )
        );
        assert_eq!(
            plan.entries()[2],
            ("x".to_string(), FaultTrigger::error().probability(0.5, 9))
        );
        // Empty plans and stray separators parse.
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" ; ;").unwrap().is_empty());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(FaultPlan::parse("nosite").is_err());
        assert!(FaultPlan::parse("a=explode").is_err());
        assert!(FaultPlan::parse("a=delay(x)").is_err());
        assert!(FaultPlan::parse("a=panic@bogus=1").is_err());
        assert!(FaultPlan::parse("a=panic@times=abc").is_err());
        assert!(FaultPlan::parse("=panic").is_err());
    }

    #[test]
    #[cfg(feature = "failpoints")]
    fn skip_and_times_gate_deterministically() {
        let _plan =
            scoped(FaultPlan::new().with("test.count", FaultTrigger::error().skip(2).times(2)));
        let fired: Vec<bool> = (0..6).map(|_| hit("test.count").is_some()).collect();
        assert_eq!(fired, vec![false, false, true, true, false, false]);
        // Unknown sites never fire.
        assert!(hit("test.unknown").is_none());
    }

    #[test]
    #[cfg(feature = "failpoints")]
    fn seeded_probability_is_reproducible() {
        let roll = || -> Vec<bool> {
            let _plan = scoped(
                FaultPlan::new().with("test.prob", FaultTrigger::error().probability(0.5, 42)),
            );
            (0..32).map(|_| hit("test.prob").is_some()).collect()
        };
        let first = roll();
        let second = roll();
        assert_eq!(first, second, "same seed, same decisions");
        assert!(first.iter().any(|&b| b) && first.iter().any(|&b| !b));
    }

    #[test]
    #[cfg(feature = "failpoints")]
    fn injected_panics_record_the_site() {
        let _plan = scoped(FaultPlan::new().with("test.panic", FaultTrigger::panic().times(1)));
        let result = std::panic::catch_unwind(|| hit("test.panic"));
        let payload = result.expect_err("the failpoint panics");
        assert!(panic_message(&*payload).contains("test.panic"));
        assert_eq!(take_last_triggered().as_deref(), Some("test.panic"));
        assert_eq!(take_last_triggered(), None, "taking clears the record");
        // The trigger budget is spent; the site is quiet now.
        assert!(hit("test.panic").is_none());
    }

    #[test]
    #[cfg(feature = "failpoints")]
    fn scoped_plans_fire_only_in_their_own_scope() {
        let _plan = scoped(FaultPlan::new().with("test.scope", FaultTrigger::error().times(1)));
        let unrelated = std::thread::spawn(|| hit("test.scope").is_some());
        assert!(!unrelated.join().unwrap(), "an unrelated thread fired");
        // The unrelated pass consumed nothing: the one firing is still here.
        assert!(hit("test.scope").is_some());
        assert!(hit("test.scope").is_none());
    }

    #[test]
    fn scope_guards_restore_the_previous_scope() {
        assert_eq!(current_scope(), GLOBAL_SCOPE);
        {
            let _outer = enter_scope(7);
            {
                let _inner = enter_scope(9);
                assert_eq!(current_scope(), 9);
            }
            assert_eq!(current_scope(), 7);
        }
        assert_eq!(current_scope(), GLOBAL_SCOPE);
    }

    #[test]
    fn empty_scoped_plan_masks_everything() {
        let _plan = scoped(FaultPlan::new());
        assert!(hit("test.anything").is_none());
    }

    #[test]
    #[cfg(feature = "failpoints")]
    fn delay_actions_sleep_then_continue() {
        let _plan = scoped(FaultPlan::new().with("test.delay", FaultTrigger::delay_ms(5).times(1)));
        let start = std::time::Instant::now();
        assert!(hit("test.delay").is_none());
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn fault_errors_render_the_site() {
        let error = FaultError {
            site: "a.b".to_string(),
        };
        assert!(error.to_string().contains("a.b"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FaultError>();
        assert_send_sync::<FaultPlan>();
    }
}
