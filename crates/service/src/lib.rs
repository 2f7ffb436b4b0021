//! Async-style request front-end over `mlo-core` sessions.
//!
//! The crate adds a serving layer on top of
//! [`Session`](mlo_core::Session) without changing what a solve computes:
//!
//! ```text
//!  submit(program, request)
//!     │  admission        bounded intake depth + per-tenant budgets
//!     │  coalesce         identical in-flight (program, request) pairs
//!     │                   share one solve (pointer-identical results)
//!     ▼
//!  Session::worker_pool()                 (mlo-csp work-stealing pool)
//!     │  solve            Session::optimize_with_hooks — cancellation
//!     │                   token always, incumbent observer only when
//!     │                   streaming was requested
//!     ▼
//!  ResponseHandle         wait / try_result / wait_timeout / cancel
//!  IncumbentWatch         versioned stream of improving bounds
//! ```
//!
//! Submission never blocks on the solve: callers get a
//! [`ResponseHandle`] immediately (or an admission error) and the work
//! runs on the session's worker pool.  There is no async runtime in the
//! workspace, so "async" here means handle-based completion over
//! plain threads, mutexes and condvars.
//!
//! The service runs exactly the strategy the request names, so a served
//! solve is bit-identical to a direct
//! [`Session::optimize`](mlo_core::Session::optimize) call.  Only when that
//! strategy panics does the retry ladder descend to `enhanced`, then
//! `heuristic`, and mark the report
//! [`degraded`](mlo_core::OptimizeReport::degraded).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// `ServiceError::Solve` carries `OptimizeError` by value, which embeds
// `Option<SearchStats>` and has outgrown clippy's 128-byte Err threshold.
// Every `Err` here is built once on the cold rejection/failure path and
// moved straight into a response slot, so the large-variant cost is
// immaterial; boxing it would push `Box` deref patterns into every
// caller that matches on the solve error.
#[allow(clippy::result_large_err)]
pub mod front;

pub use front::{
    IncumbentWatch, MloService, ResponseHandle, ServiceConfig, ServiceError, ServiceStats,
    SharedResult,
};
