//! A small, self-contained worker-thread pool (std::thread + channels).
//!
//! The work-stealing scheduler and `mlo-core`'s batch machinery both need
//! to fan work out over threads without pulling in an external executor
//! (the vendored dependency set is fixed).  [`WorkerPool`] is the shared
//! substrate: a fixed set of worker threads draining one injector channel of
//! boxed jobs.
//!
//! Three properties matter for the callers in this workspace:
//!
//! * **Nested submission must not deadlock.**  A batch job running *on* a
//!   pool worker may itself submit scheduler-worker jobs to the same pool
//!   and block on their results.  Blocking callers therefore help out: while
//!   waiting they call [`WorkerPool::help_run_one`], which pops and runs a
//!   pending job inline instead of sleeping, so the queue always drains even
//!   when every worker is parked on a nested wait.
//! * **Panics are contained *and observable*.**  A panicking job must not
//!   kill its worker (that would permanently shrink the pool) — but it also
//!   must not vanish silently, leaving whoever waits on the job's result
//!   blocked forever.  Jobs submitted via [`WorkerPool::execute_observed`]
//!   carry an `on_panic` observer that receives the captured payload and the
//!   triggering failpoint as a typed [`JobPanic`], so the submitter can
//!   publish a failure result instead of hanging.
//! * **Shutdown joins.**  Dropping the pool closes the injector and joins
//!   every worker, so tests can assert that no threads leak.  When the last
//!   handle drops inside a job, the worker running that job is not joined
//!   (a thread cannot join itself); it exits on its own once the job
//!   returns.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, TryLockError};
use std::thread::JoinHandle;

use crate::sync::lock_or_recover;

/// What the pool captured from a job that panicked.
///
/// Delivered to the `on_panic` observer of
/// [`WorkerPool::execute_observed`]; plain [`WorkerPool::execute`] jobs are
/// still contained but report to nobody.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload rendered as text (`&str`/`String` payloads
    /// verbatim).
    pub message: String,
    /// The failpoint whose trigger caused the panic, when fault injection
    /// was responsible (see [`crate::fault`]).
    pub failpoint: Option<String>,
}

/// A unit of work executed by the pool: the job body, an optional panic
/// observer and the fault scope of its submitter (see [`crate::fault`]).
struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
    on_panic: Option<Box<dyn FnOnce(JobPanic) + Send + 'static>>,
    scope: u64,
}

/// Runs one job with panic containment, routing any captured panic to the
/// job's observer.  Shared by the worker loop and [`WorkerPool::help_run_one`]
/// so both execution paths have identical failure semantics.  The job and
/// its observer run in their submitter's fault scope.
fn run_job(job: Job) {
    let Job {
        run,
        on_panic,
        scope,
    } = job;
    let _scope = crate::fault::enter_scope(scope);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crate::fail_point!("pool.job");
        run();
    }));
    if let Err(payload) = outcome {
        let panic = JobPanic {
            message: crate::fault::panic_message(&*payload),
            failpoint: crate::fault::take_last_triggered(),
        };
        if let Some(observer) = on_panic {
            // The observer runs on the worker too, so it gets the same
            // containment: a buggy observer must not shrink the pool.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| observer(panic)));
        }
    }
}

/// A fixed-size worker-thread pool over a single injector channel.
///
/// Cheap to share via [`Arc`]; see the [module documentation](self) for the
/// deadlock-freedom and panic-containment contracts.
#[derive(Debug)]
pub struct WorkerPool {
    injector: Mutex<Option<Sender<Job>>>,
    queue: Arc<Mutex<Receiver<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool with `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (injector, receiver) = channel::<Job>();
        let queue = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("mlo-pool-{i}"))
                    .spawn(move || loop {
                        // Hold the queue lock only while popping, never
                        // while running a job.
                        let job = lock_or_recover(&queue).recv();
                        match job {
                            Ok(job) => run_job(job),
                            Err(_) => break, // injector closed: shut down
                        }
                    })
                    .expect("spawning a pool worker thread")
            })
            .collect();
        WorkerPool {
            injector: Mutex::new(Some(injector)),
            queue,
            workers: Mutex::new(workers),
            threads,
        }
    }

    /// A pool sized to the machine (`std::thread::available_parallelism`,
    /// falling back to one worker).
    pub fn with_available_parallelism() -> Self {
        WorkerPool::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Submits a job for execution on some worker.
    ///
    /// A panic in the job is contained (the worker survives) but reported
    /// to nobody; submitters whose waiters depend on the job completing
    /// should use [`WorkerPool::execute_observed`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the pool is shutting down (only possible during `Drop`).
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.submit(Job {
            run: Box::new(job),
            on_panic: None,
            scope: crate::fault::current_scope(),
        });
    }

    /// Submits a job plus a panic observer: if the job panics, the pool
    /// captures the payload (and the triggering failpoint, when fault
    /// injection is active) into a [`JobPanic`] and invokes `on_panic` with
    /// it on the same worker.  Exactly one of `job` completing normally or
    /// `on_panic` running is guaranteed, so the submitter can always fill
    /// its result slot.
    ///
    /// # Panics
    ///
    /// Panics if the pool is shutting down (only possible during `Drop`).
    pub fn execute_observed(
        &self,
        job: impl FnOnce() + Send + 'static,
        on_panic: impl FnOnce(JobPanic) + Send + 'static,
    ) {
        self.submit(Job {
            run: Box::new(job),
            on_panic: Some(Box::new(on_panic)),
            scope: crate::fault::current_scope(),
        });
    }

    fn submit(&self, job: Job) {
        lock_or_recover(&self.injector)
            .as_ref()
            .expect("pool is shutting down")
            .send(job)
            .expect("pool workers outlive the injector");
    }

    /// Pops one pending job and runs it on the *calling* thread.
    ///
    /// Returns `false` when no job could be claimed — either the queue is
    /// empty, or an idle worker is parked on the queue (in which case that
    /// worker will pick up any pending job itself, so there is nothing to
    /// help with).  Callers blocked on results of jobs they submitted call
    /// this in their wait loop, which keeps nested submissions
    /// deadlock-free (see the module docs).
    ///
    /// `try_lock` is essential: idle workers block inside `recv()` *while
    /// holding* the queue lock, so a blocking `lock()` here could park the
    /// helper until the next job arrives instead of returning.
    pub fn help_run_one(&self) -> bool {
        let job = match self.queue.try_lock() {
            Ok(receiver) => receiver.try_recv().ok(),
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner().try_recv().ok(),
            Err(TryLockError::WouldBlock) => None,
        };
        match job {
            Some(job) => {
                // Same panic containment as the worker loop: the popped job
                // may belong to an unrelated request, whose failure must
                // not unwind into the helping waiter — but its observer
                // still fires, so that request's waiters see the outcome.
                run_job(job);
                true
            }
            None => false,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the injector makes every worker's `recv` fail once the
        // queue drains; joining then guarantees no leaked threads.
        drop(lock_or_recover(&self.injector).take());
        let workers = std::mem::take(&mut *lock_or_recover(&self.workers));
        let current = std::thread::current().id();
        for worker in workers {
            // Dropped from inside a job: this worker finds the injector
            // closed once the job returns, and exits detached.
            if worker.thread().id() != current {
                let _ = worker.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;

    #[test]
    fn executes_jobs_on_workers() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel();
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..32 {
            rx.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = channel();
        pool.execute(move || tx.send(7u32).unwrap());
        assert_eq!(rx.recv().unwrap(), 7);
        drop(pool); // must not hang
    }

    #[test]
    fn dropping_the_last_handle_inside_a_job_does_not_panic() {
        let pool = Arc::new(WorkerPool::new(2));
        let (go_tx, go_rx) = channel::<()>();
        let (tx, rx) = channel();
        let last = Arc::clone(&pool);
        pool.execute(move || {
            go_rx.recv().unwrap();
            // The test has dropped its handle: the pool drops on this worker.
            let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(last)));
            tx.send(dropped.is_ok()).unwrap();
        });
        drop(pool);
        go_tx.send(()).unwrap();
        assert!(
            rx.recv().unwrap(),
            "dropping the pool inside a job panicked"
        );
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn help_run_one_drains_the_queue_inline() {
        // A single-worker pool whose worker is parked on a nested wait: the
        // waiting submitter itself must be able to run the pending job.
        let pool = Arc::new(WorkerPool::new(1));
        let (outer_tx, outer_rx) = channel();
        let inner_pool = Arc::clone(&pool);
        pool.execute(move || {
            // This job occupies the only worker and submits a nested job,
            // then waits for it by helping.
            let (tx, rx) = channel();
            inner_pool.execute(move || tx.send(41u32).unwrap());
            let value = loop {
                if let Ok(v) = rx.try_recv() {
                    break v;
                }
                inner_pool.help_run_one();
            };
            outer_tx.send(value + 1).unwrap();
        });
        assert_eq!(outer_rx.recv().unwrap(), 42);
    }

    #[test]
    fn panicking_observed_job_reports_and_pool_stays_usable() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = channel();
        pool.execute_observed(
            || panic!("strategy exploded"),
            move |panic| tx.send(panic).unwrap(),
        );
        let panic = rx.recv().unwrap();
        assert_eq!(panic.message, "strategy exploded");
        assert_eq!(panic.failpoint, None);
        // The single worker survived the panic and still runs jobs.
        let (tx, rx) = channel();
        pool.execute(move || tx.send(99u32).unwrap());
        assert_eq!(rx.recv().unwrap(), 99);
    }

    #[test]
    fn successful_observed_job_never_calls_the_observer() {
        let pool = WorkerPool::new(1);
        let fired = Arc::new(AtomicUsize::new(0));
        let observer_fired = Arc::clone(&fired);
        let (tx, rx) = channel();
        pool.execute_observed(
            move || tx.send(1u32).unwrap(),
            move |_| {
                observer_fired.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(rx.recv().unwrap(), 1);
        drop(pool); // join workers so a stray observer would have run
        assert_eq!(fired.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn help_run_one_delivers_panics_to_the_observer() {
        // Park the only worker so the panicking job stays queued, then help.
        let pool = Arc::new(WorkerPool::new(1));
        let (park_tx, park_rx) = channel::<()>();
        pool.execute(move || {
            park_rx.recv().ok();
        });
        // Give the worker a moment to claim the parking job.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let (tx, rx) = channel();
        pool.execute_observed(
            || panic!("helped job exploded"),
            move |panic| tx.send(panic).unwrap(),
        );
        while !pool.help_run_one() {
            std::thread::yield_now();
        }
        let panic = rx.recv().unwrap();
        assert_eq!(panic.message, "helped job exploded");
        park_tx.send(()).unwrap();
    }

    #[test]
    #[cfg(feature = "failpoints")]
    fn injected_pool_panics_record_the_failpoint() {
        let _plan = crate::fault::scoped(
            crate::fault::FaultPlan::new()
                .with("pool.job", crate::fault::FaultTrigger::panic().times(1)),
        );
        let pool = WorkerPool::new(1);
        let (tx, rx) = channel();
        pool.execute_observed(|| {}, move |panic| tx.send(panic).unwrap());
        let panic = rx.recv().unwrap();
        assert_eq!(panic.failpoint.as_deref(), Some("pool.job"));
        assert!(panic.message.contains("pool.job"));
    }

    #[test]
    #[cfg(feature = "failpoints")]
    fn jobs_carry_their_submitters_fault_scope() {
        /// Runs one observed no-op job; `Some` when it panicked.
        fn observed(pool: &WorkerPool) -> Option<JobPanic> {
            let (tx, rx) = channel();
            let on_panic = tx.clone();
            pool.execute_observed(
                move || tx.send(None).unwrap(),
                move |panic| on_panic.send(Some(panic)).unwrap(),
            );
            rx.recv().unwrap()
        }
        let _plan = crate::fault::scoped(
            crate::fault::FaultPlan::new()
                .with("pool.job", crate::fault::FaultTrigger::panic().times(1)),
        );
        let pool = WorkerPool::new(1);
        // Submitted from a thread outside the plan's scope: the armed site
        // stays quiet and keeps its one firing.
        let outsider = std::thread::scope(|s| s.spawn(|| observed(&pool)).join().unwrap());
        assert_eq!(outsider, None);
        let panic = observed(&pool).expect("the arming thread's job fires");
        assert_eq!(panic.failpoint.as_deref(), Some("pool.job"));
    }
}
