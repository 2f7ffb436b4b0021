//! Set-up and the untraced timed loops of the three workloads.

use crate::corpus::{Corpus, Sequence};
use crate::sys::{self, HostCpu};
use mlo_cachesim::TraceOptions;
use mlo_core::{Engine, EvaluationOptions, OptimizeReport, OptimizeRequest, Session};
use mlo_layout::WeightOptions;
use mlo_service::{MloService, ResponseHandle, ServiceConfig};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Requests `serve` keeps outstanding.
pub const SERVE_WINDOW: usize = 8;
/// The two tenants `serve` splits its requests across.
pub const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Requests `evaluate` runs with full evaluation during set-up: enough to
/// warm the simulator.  Cache simulation slows down less than the host
/// reference does when the host is slow, so with eight of them (about 40%
/// of the set-up) the scaled set-up read a quarter lower on a slow host.
const EVALUATE_WARMUP: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Compile,
    Serve,
    Evaluate,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Compile, Workload::Serve, Workload::Evaluate];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL
            .into_iter()
            .find(|workload| workload.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Serve => "serve",
            Workload::Evaluate => "evaluate",
        }
    }
}

/// The Table 3 evaluation every `evaluate` request asks for, and the one
/// layout quality is measured with.
pub fn evaluation() -> EvaluationOptions {
    EvaluationOptions::date05().trace(TraceOptions {
        max_trip_per_loop: 32,
        ..TraceOptions::default()
    })
}

/// Everything a set-up builds and the timed window uses.
pub struct State {
    pub workload: Workload,
    pub seed: u64,
    pub corpus: Corpus,
    /// The request each pool entry sends, as this workload sends it.
    pub requests: Vec<OptimizeRequest>,
    pub sequence: Sequence,
    /// Fingerprint of the sequence's first requests, taken before use.
    pub sequence_fingerprint: u64,
    /// The warm session of `serve` and `evaluate` (`compile` uses a fresh
    /// engine per request).
    pub session: Option<Session>,
    pub service: Option<MloService>,
}

/// Requests covered by the sequence fingerprint.
pub const FINGERPRINTED_REQUESTS: usize = 4096;

/// One set-up: generates the corpus, warms the workload's caches and runs
/// an untimed warm-up pass.
pub fn set_up(workload: Workload, seed: u64) -> State {
    let corpus = Corpus::generate(seed);
    let requests: Vec<OptimizeRequest> = corpus
        .pool
        .iter()
        .map(|entry| match workload {
            Workload::Evaluate => entry.request.clone().evaluate(evaluation()),
            _ => entry.request.clone(),
        })
        .collect();
    let sequence = Sequence::new(&corpus, seed, workload == Workload::Serve);
    let sequence_fingerprint = sequence.fingerprint(FINGERPRINTED_REQUESTS);
    let session = (workload != Workload::Compile).then(|| Engine::new().session());
    let service = (workload == Workload::Serve).then(|| {
        let config = TENANTS
            .iter()
            .fold(ServiceConfig::new().queue_limit(64), |config, tenant| {
                config.tenant_budget(*tenant, 64)
            });
        MloService::new(session.clone().expect("serve has a session"), config)
    });
    let state = State {
        workload,
        seed,
        corpus,
        requests,
        sequence,
        sequence_fingerprint,
        session,
        service,
    };
    if let Some(session) = &state.session {
        prepare_all(session, &state.corpus, &state.requests);
    }
    // The warm-up pass walks the pool once in pool order, so the timed
    // sequence starts untouched.
    let pool: Vec<usize> = (0..state.corpus.pool.len()).collect();
    match workload {
        Workload::Compile => {
            for &entry in &pool {
                let _ = compile_once(&state, entry);
            }
        }
        Workload::Serve => {
            let mut warm = Window::start(&state);
            serve_loop(&state, &mut pool.iter().copied(), &mut warm, None);
        }
        Workload::Evaluate => {
            let session = state.session.as_ref().expect("evaluate has a session");
            for &entry in &pool {
                let _ = session.optimize(
                    state.corpus.program(entry),
                    &state.corpus.pool[entry].request,
                );
            }
            for &entry in pool.iter().take(EVALUATE_WARMUP) {
                let _ = session.optimize(state.corpus.program(entry), &state.requests[entry]);
            }
        }
    }
    state
}

/// Builds every artifact a request of the pool will ask the session for:
/// candidates, network and kernel, plus the weighted network and its kernel
/// for `weighted` requests.
fn prepare_all(session: &Session, corpus: &Corpus, requests: &[OptimizeRequest]) {
    for (entry, request) in requests.iter().enumerate() {
        let program = corpus.program(entry);
        let prepared = session.prepared(program, &request.candidates);
        if request.strategy.as_str() != "heuristic" {
            prepared.kernel(program);
        }
        if request.strategy.as_str() == "weighted" {
            prepared.weight_kernel(program, &WeightOptions::default());
        }
    }
}

/// Length of one segment of a timed window.  The host's speed is read
/// between segments, and each segment's times are scaled by it.
pub const SEGMENT: Duration = Duration::from_millis(250);

/// One served request of `serve`, for the service metrics.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub entry: usize,
    /// Latency less the report's `solution_time`, in ms.
    pub non_solve_ms: f64,
    pub coalesced: bool,
}

/// The outcome of one timed window.
#[derive(Debug)]
pub struct Window {
    /// Per-request latency in ms as measured, in completion order.
    pub latencies_ms: Vec<f64>,
    /// The host factor ([`sys::host_factor`]) of the segment each request
    /// completed in, parallel to `latencies_ms`.
    pub factors: Vec<f64>,
    pub wall_s: f64,
    /// Time spent in segments (the window less the reference readings),
    /// as measured and scaled to the calibration host speed.
    pub busy_s: f64,
    pub scaled_busy_s: f64,
    /// Every reference reading ([`sys::reference_ms`]), in ms.
    pub reference_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// The first successful report of every pool entry served.
    pub first: Vec<Option<OptimizeReport>>,
    /// Every successful served request (`serve` only).
    pub served: Vec<Served>,
    pub cpu_s: f64,
    pub steal_pct: f64,
    /// `VmHWM` when the window stopped, before any check ran.
    pub peak_rss_mb: f64,
    started: Instant,
    segment_started: Instant,
    cpu_at_start: f64,
    host_at_start: HostCpu,
}

impl Window {
    /// Starts a window: reads the reference, then takes the clock, process
    /// CPU and host readings.
    pub fn start(state: &State) -> Window {
        let reference = sys::reference_ms();
        let now = Instant::now();
        Window {
            latencies_ms: Vec::new(),
            factors: Vec::new(),
            wall_s: 0.0,
            busy_s: 0.0,
            scaled_busy_s: 0.0,
            reference_ms: vec![reference],
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            first: vec![None; state.corpus.pool.len()],
            served: Vec::new(),
            cpu_s: 0.0,
            steal_pct: 0.0,
            peak_rss_mb: 0.0,
            started: now,
            segment_started: now,
            cpu_at_start: sys::process_cpu_s(),
            host_at_start: HostCpu::now(),
        }
    }

    /// Ends a segment: reads the reference again and gives the segment's
    /// requests the host factor of the readings on either side of it.
    pub fn end_segment(&mut self) {
        let busy_s = self.segment_started.elapsed().as_secs_f64();
        let reading = sys::reference_ms();
        let before = *self
            .reference_ms
            .last()
            .expect("a window starts with a reading");
        let factor = sys::host_factor(before, reading);
        self.reference_ms.push(reading);
        self.factors.resize(self.latencies_ms.len(), factor);
        self.busy_s += busy_s;
        self.scaled_busy_s += busy_s / factor;
        self.segment_started = Instant::now();
    }

    /// Stops the clock and takes the readings over the window.
    pub fn stop(&mut self) {
        self.wall_s = self.started.elapsed().as_secs_f64();
        self.cpu_s = sys::process_cpu_s() - self.cpu_at_start;
        self.steal_pct = HostCpu::now().steal_pct_since(&self.host_at_start);
        self.peak_rss_mb = sys::peak_rss_mb();
    }

    /// Latencies scaled to the calibration host speed, in ms.
    pub fn scaled_latencies_ms(&self) -> Vec<f64> {
        self.latencies_ms
            .iter()
            .zip(&self.factors)
            .map(|(latency, factor)| latency / factor)
            .collect()
    }

    /// Requests per second of scaled busy time.
    pub fn throughput_rps(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.scaled_busy_s
    }

    /// Requests per second of busy time as measured.
    pub fn measured_throughput_rps(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.busy_s
    }

    /// Records one completed request.
    pub fn complete(
        &mut self,
        entry: usize,
        latency: Duration,
        result: Result<&OptimizeReport, String>,
    ) {
        self.attempted += 1;
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        match result {
            Ok(report) if report.degraded => self.fail(format!(
                "entry {entry}: degraded response from {}",
                report.strategy
            )),
            Ok(report) => {
                if self.first[entry].is_none() {
                    self.first[entry] = Some(report.clone());
                }
            }
            Err(message) => self.fail(format!("entry {entry}: {message}")),
        }
    }

    /// Records a request the service refused at submission.
    pub fn refuse(&mut self, entry: usize, message: String) {
        self.attempted += 1;
        self.fail(format!("entry {entry}: {message}"));
    }

    /// Adds another window's failures to this one's.
    pub fn absorb_failures(&mut self, other: Window) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for message in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(message);
            }
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }
}

/// Runs `segment(window, end)` over consecutive segments of [`SEGMENT`]
/// until `seconds` have passed, ending each segment with a reference
/// reading, then stops the window.
pub fn segmented(window: &mut Window, seconds: f64, mut segment: impl FnMut(&mut Window, Instant)) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let end = (Instant::now() + SEGMENT).min(deadline);
        segment(window, end);
        window.end_segment();
    }
    window.stop();
}

/// The requests of `sequence` that start before `end`.
pub fn until<'a>(sequence: &'a mut Sequence, end: Instant) -> impl Iterator<Item = usize> + 'a {
    std::iter::from_fn(move || (Instant::now() < end).then(|| sequence.next_entry()))
}

/// Runs the workload's closed loop for `seconds` and returns its records.
/// `serve` drains its outstanding requests at the end of every segment.
pub fn run_window(state: &State, seconds: f64) -> Window {
    let mut window = Window::start(state);
    let mut sequence = state.sequence.clone();
    segmented(&mut window, seconds, |window, end| match state.workload {
        Workload::Serve => serve_loop(state, &mut until(&mut sequence, end), window, None),
        workload => {
            while Instant::now() < end {
                let entry = sequence.next_entry();
                let began = Instant::now();
                let result = if workload == Workload::Compile {
                    compile_once(state, entry)
                } else {
                    evaluate_once(state, entry)
                };
                window.complete(
                    entry,
                    began.elapsed(),
                    result.as_ref().map_err(Clone::clone),
                );
            }
        }
    });
    window
}

fn contained<T>(run: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| Err("request panicked".to_string()))
}

/// One `compile` request: a fresh single-worker engine, as a one-shot
/// compiler pass would use.
pub fn compile_once(state: &State, entry: usize) -> Result<OptimizeReport, String> {
    contained(|| {
        Engine::builder()
            .parallelism(1)
            .build()
            .optimize(state.corpus.program(entry), &state.requests[entry])
            .map_err(|error| error.to_string())
    })
}

/// One `evaluate` request on the warm session.
pub fn evaluate_once(state: &State, entry: usize) -> Result<OptimizeReport, String> {
    let session = state.session.as_ref().expect("evaluate has a session");
    contained(|| {
        session
            .optimize(state.corpus.program(entry), &state.requests[entry])
            .map_err(|error| error.to_string())
    })
}

/// Hooks the traced run attaches to `serve_loop`.
pub trait ServeHooks {
    /// Called before entry `entry` is submitted as the `index`-th request.
    fn before_submit(&mut self, index: usize, entry: usize);
    /// Called right after the submission of request `index` returned.
    fn after_submit(&mut self, index: usize, accepted: bool);
    /// Called around the blocking wait on request `index`.
    fn before_wait(&mut self, index: usize);
    fn after_wait(&mut self, index: usize);
    /// Called when request `index` completes.
    fn completed(&mut self, index: usize);
}

/// The `serve` closed loop: one client thread keeps [`SERVE_WINDOW`]
/// requests outstanding, waits for the oldest and then collects every other
/// request that has completed meanwhile.  Latency runs from the start of
/// `submit` to the moment the client sees the response.
pub fn serve_loop(
    state: &State,
    requests: &mut dyn Iterator<Item = usize>,
    window: &mut Window,
    mut hooks: Option<&mut dyn ServeHooks>,
) {
    let service = state.service.as_ref().expect("serve has a service");
    let mut outstanding: VecDeque<(usize, usize, Instant, ResponseHandle)> = VecDeque::new();
    let mut index = 0usize;
    let mut exhausted = false;
    loop {
        while !exhausted && outstanding.len() < SERVE_WINDOW {
            let Some(entry) = requests.next() else {
                exhausted = true;
                break;
            };
            let program = state.corpus.program(entry);
            let request = &state.requests[entry];
            let tenant = TENANTS[index % TENANTS.len()];
            if let Some(hooks) = hooks.as_deref_mut() {
                hooks.before_submit(index, entry);
            }
            let began = Instant::now();
            let submitted = service
                .submit_for_tenant(tenant, program, request)
                .map_err(|error| error.to_string());
            if let Some(hooks) = hooks.as_deref_mut() {
                hooks.after_submit(index, submitted.is_ok());
            }
            match submitted {
                Ok(handle) => outstanding.push_back((index, entry, began, handle)),
                Err(message) => window.refuse(entry, message),
            }
            index += 1;
        }
        let Some((oldest, entry, began, handle)) = outstanding.pop_front() else {
            break;
        };
        if let Some(hooks) = hooks.as_deref_mut() {
            hooks.before_wait(oldest);
        }
        let result = handle.wait();
        if let Some(hooks) = hooks.as_deref_mut() {
            hooks.after_wait(oldest);
        }
        let mut done = vec![(oldest, entry, began, handle, result)];
        let mut still = VecDeque::with_capacity(outstanding.len());
        for (id, entry, began, handle) in outstanding.drain(..) {
            match handle.try_result() {
                Some(result) => done.push((id, entry, began, handle, result)),
                None => still.push_back((id, entry, began, handle)),
            }
        }
        outstanding = still;
        for (id, entry, began, handle, result) in done {
            let latency = began.elapsed();
            if let Some(hooks) = hooks.as_deref_mut() {
                hooks.completed(id);
            }
            if let Ok(report) = result.as_ref() {
                window.served.push(Served {
                    entry,
                    non_solve_ms: latency.saturating_sub(report.solution_time).as_secs_f64() * 1e3,
                    coalesced: handle.is_coalesced(),
                });
            }
            window.complete(
                entry,
                latency,
                result.as_ref().as_ref().map_err(|error| error.to_string()),
            );
        }
    }
}
