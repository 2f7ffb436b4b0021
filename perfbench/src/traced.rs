//! The traced run: spans around the benchmark's own calls into each layer's
//! public functions, and the per-layer metrics computed from them.
//!
//! For each request the traced run calls, in pipeline order,
//! `Session::prepared`, `PreparedProgram::{candidates, network, kernel,
//! weighted, weight_kernel}` (as far as the request's strategy uses them),
//! `Session::optimize` without evaluation, `heuristic_assignment` for
//! heuristic requests and fallbacks, and `Simulator::simulate` when the
//! request asks for an evaluation.  `OptimizeReport::solution_time` becomes
//! two child spans of `Session::optimize`: the search, and the heuristic
//! of a fallback or heuristic request.  For `serve` the traced run also
//! spans `MloService::submit` and `ResponseHandle::wait`.
//!
//! Span times are as measured, not scaled by the host factor; the traced
//! window's host factor is printed beside them.

use crate::corpus::{Corpus, Sequence};
use crate::sys::{geomean, median};
use crate::workload::{self, ServeHooks, Served, State, Window, Workload};
use mlo_cachesim::Simulator;
use mlo_core::{Engine, OptimizeReport, Session};
use mlo_layout::{heuristic_assignment, WeightOptions};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, request: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, span: usize) -> u64 {
        let end_ns = self.now();
        self.spans[span].end_ns = end_ns;
        self.spans[span].duration_ns()
    }

    /// Records a span whose interval is known rather than timed.
    fn record(
        &mut self,
        name: &'static str,
        request: usize,
        parent: usize,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            request,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
    }

    fn span<R>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: usize,
        call: impl FnOnce() -> R,
    ) -> R {
        let span = self.begin(name, request, Some(parent));
        let result = call();
        self.end(span);
        result
    }
}

/// How a per-layer metric aggregates over the requests of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Aggregate {
    /// Median per request.
    Median,
    /// A ratio: the geometric mean over programs of each program's median.
    Ratio,
    /// Share of requests, in percent (values are 0 or 1).
    Share,
    /// One value for the whole process, reported in the `all` row only.
    Process,
}

/// Every per-layer metric, in output order: (name, unit, aggregate).
const LAYER_METRICS: [(&str, &str, Aggregate); 23] = [
    ("layout.candidates_ms", "ms", Aggregate::Median),
    ("layout.network_ms", "ms", Aggregate::Median),
    ("csp.kernel_ms", "ms", Aggregate::Median),
    ("layout.weights_ms", "ms", Aggregate::Median),
    ("csp.weight_kernel_ms", "ms", Aggregate::Median),
    ("layout.heuristic_ms", "ms", Aggregate::Median),
    ("layout.domain_size", "count", Aggregate::Median),
    ("csp.search_ms", "ms", Aggregate::Median),
    ("csp.nodes", "count", Aggregate::Median),
    ("csp.parallel_pct", "%", Aggregate::Share),
    ("core.key_ms", "ms", Aggregate::Median),
    ("core.overhead_ms", "ms", Aggregate::Median),
    ("core.fallback_pct", "%", Aggregate::Share),
    ("core.prepared_hit_pct", "%", Aggregate::Share),
    ("cachesim.simulate_ms", "ms", Aggregate::Median),
    ("cachesim.ns_per_access", "ns", Aggregate::Ratio),
    ("cachesim.accesses", "count", Aggregate::Median),
    ("cachesim.l1_hit_pct", "%", Aggregate::Ratio),
    ("service.submit_ms", "ms", Aggregate::Median),
    ("service.non_solve_ms", "ms", Aggregate::Median),
    ("service.coalesced_pct", "%", Aggregate::Share),
    ("service.cpu_cores", "cores", Aggregate::Process),
    ("trace.overhead_pct", "%", Aggregate::Process),
];

/// The metric a span's self time feeds.
const SPAN_METRICS: [(&str, &str); 11] = [
    ("core.prepared", "core.key_ms"),
    ("layout.candidates", "layout.candidates_ms"),
    ("layout.network", "layout.network_ms"),
    ("csp.kernel", "csp.kernel_ms"),
    ("layout.weights", "layout.weights_ms"),
    ("csp.weight_kernel", "csp.weight_kernel_ms"),
    ("core.optimize", "core.overhead_ms"),
    ("csp.search", "csp.search_ms"),
    ("layout.heuristic", "layout.heuristic_ms"),
    ("cachesim.simulate", "cachesim.simulate_ms"),
    ("service.submit", "service.submit_ms"),
];

/// The per-layer values of one request: a traced one, or an untraced
/// served one that only carries the service metrics.
#[derive(Debug, Clone)]
struct Record {
    entry: usize,
    values: Vec<(&'static str, f64)>,
}

impl Record {
    fn new(entry: usize) -> Record {
        Record {
            entry,
            values: Vec::with_capacity(16),
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(metric, _)| *metric == name)
            .map(|(_, value)| *value)
    }

    fn share(&mut self, name: &'static str, yes: bool) {
        self.values.push((name, if yes { 1.0 } else { 0.0 }));
    }

    /// Counters read off the report of the request's solve.
    fn solve_counters(&mut self, report: &OptimizeReport) {
        if let Some(network) = report.network {
            self.values
                .push(("layout.domain_size", network.total_domain_size as f64));
        }
        if let Some(stats) = report.search_stats {
            self.values.push(("csp.nodes", stats.nodes_visited as f64));
        }
        self.share("core.fallback_pct", report.fell_back());
    }

    fn parallel(&mut self, report: &OptimizeReport) {
        if let Some(stats) = report.search_stats {
            self.share("csp.parallel_pct", stats.steals > 0 || stats.splits > 0);
        }
    }
}

/// The traced window's spans and records.
pub struct Traced {
    pub tracer: Tracer,
    records: Vec<Record>,
    pub window: Window,
}

/// The direct layer calls of one request, in pipeline order, under the
/// request's root span.  Returns the report of `Session::optimize`.
fn layer_calls(
    tracer: &mut Tracer,
    state: &State,
    session: &Session,
    request_id: usize,
    root: usize,
    record: &mut Record,
) -> Result<OptimizeReport, String> {
    let entry = record.entry;
    let program = state.corpus.program(entry);
    let request = &state.corpus.pool[entry].request;
    let strategy = request.strategy.as_str();

    let cached = session.prepared_programs();
    let prepared = tracer.span("core.prepared", request_id, root, || {
        session.prepared(program, &request.candidates)
    });
    record.share(
        "core.prepared_hit_pct",
        session.prepared_programs() == cached,
    );
    if strategy != "heuristic" {
        tracer.span("layout.candidates", request_id, root, || {
            prepared.candidates(program);
        });
        tracer.span("layout.network", request_id, root, || {
            prepared.network(program);
        });
        tracer.span("csp.kernel", request_id, root, || {
            prepared.kernel(program);
        });
    }
    if strategy == "weighted" {
        tracer.span("layout.weights", request_id, root, || {
            prepared.weighted(program, &WeightOptions::default());
        });
        tracer.span("csp.weight_kernel", request_id, root, || {
            prepared.weight_kernel(program, &WeightOptions::default());
        });
    }

    let optimize = tracer.begin("core.optimize", request_id, Some(root));
    let report = session.optimize(program, request);
    tracer.end(optimize);
    let report = report.map_err(|error| error.to_string())?;
    record.solve_counters(&report);

    let mut heuristic_ns = 0;
    if strategy == "heuristic" || report.fell_back() {
        let span = tracer.begin("layout.heuristic", request_id, Some(root));
        std::hint::black_box(heuristic_assignment(program));
        heuristic_ns = tracer.end(span);
    }
    // `solution_time` is the solve inside `Session::optimize`: the search,
    // then the heuristic for a fallback, or the heuristic alone for a
    // heuristic request.  Both parts become child spans, placed at the end
    // of the optimize span, so its self time is wall − `solution_time`.
    let solve_ns = report.solution_time.as_nanos() as u64;
    let in_solve_heuristic_ns = if strategy == "heuristic" {
        solve_ns
    } else if report.fell_back() {
        heuristic_ns.min(solve_ns)
    } else {
        0
    };
    let end_ns = tracer.spans[optimize].end_ns;
    if strategy != "heuristic" {
        tracer.record(
            "csp.search",
            request_id,
            optimize,
            end_ns.saturating_sub(solve_ns),
            end_ns.saturating_sub(in_solve_heuristic_ns),
        );
    }
    if in_solve_heuristic_ns > 0 {
        tracer.record(
            "core.solve_heuristic",
            request_id,
            optimize,
            end_ns.saturating_sub(in_solve_heuristic_ns),
            end_ns,
        );
    }
    if let Some(options) = state.requests[entry].evaluation {
        let span = tracer.begin("cachesim.simulate", request_id, Some(root));
        let simulation = Simulator::new(options.machine)
            .trace_options(options.trace)
            .simulate(program, &report.assignment);
        let simulate_ns = tracer.end(span);
        let simulation = simulation.map_err(|error| error.to_string())?;
        let accesses = simulation.total_accesses.max(1) as f64;
        record.values.push(("cachesim.accesses", accesses));
        record
            .values
            .push(("cachesim.ns_per_access", simulate_ns as f64 / accesses));
        record
            .values
            .push(("cachesim.l1_hit_pct", 100.0 * simulation.l1_data.hit_rate()));
    }
    Ok(report)
}

/// Runs `sequence` until `end` as direct, traced layer calls, each request
/// under a root span named `root_name`.
fn direct_requests(
    tracer: &mut Tracer,
    records: &mut Vec<Record>,
    state: &State,
    sequence: &mut Sequence,
    window: &mut Window,
    end: Instant,
    root_name: &'static str,
) {
    while Instant::now() < end {
        let entry = sequence.next_entry();
        let request_id = records.len();
        let mut record = Record::new(entry);
        let root = tracer.begin(root_name, request_id, None);
        let began = Instant::now();
        let fresh;
        let session = match &state.session {
            Some(session) => session,
            None => {
                fresh = Engine::builder().parallelism(1).build().session();
                &fresh
            }
        };
        let result = layer_calls(tracer, state, session, request_id, root, &mut record);
        tracer.end(root);
        if let Ok(report) = &result {
            record.parallel(report);
        }
        window.complete(
            entry,
            began.elapsed(),
            result.as_ref().map_err(Clone::clone),
        );
        records.push(record);
    }
}

/// Runs the traced window for `seconds`.
///
/// `compile` and `evaluate` trace every request's layer calls.  `serve`
/// traces the service at its boundary (submit, wait) for the first half,
/// then continues the same sequence as direct layer calls on the warm
/// session for the second: made on the client thread while requests are
/// outstanding, those calls would compete with the pool worker for the
/// CPU.  The window holds the traced requests as the client saw them.
pub fn run_traced(state: &State, seconds: f64) -> Traced {
    let mut tracer = Tracer::new();
    let mut records = Vec::new();
    let mut window = Window::start(state);
    let mut sequence = state.sequence.clone();
    if state.workload == Workload::Serve {
        workload::segmented(&mut window, seconds / 2.0, |window, end| {
            let mut hooks = ServeTrace {
                base: records.len(),
                tracer: &mut tracer,
                records: &mut records,
                spans: Vec::new(),
            };
            workload::serve_loop(
                state,
                &mut workload::until(&mut sequence, end),
                window,
                Some(&mut hooks),
            );
        });
        let mut replay = Window::start(state);
        workload::segmented(&mut replay, seconds / 2.0, |replay, end| {
            direct_requests(
                &mut tracer,
                &mut records,
                state,
                &mut sequence,
                replay,
                end,
                "replay",
            );
        });
        window.absorb_failures(replay);
    } else {
        workload::segmented(&mut window, seconds, |window, end| {
            direct_requests(
                &mut tracer,
                &mut records,
                state,
                &mut sequence,
                window,
                end,
                "request",
            );
        });
    }
    Traced {
        tracer,
        records,
        window,
    }
}

/// The serve-side hooks of the traced run: a root span per request from
/// submit to completion, with its submit and wait spans.
struct ServeTrace<'a> {
    tracer: &'a mut Tracer,
    records: &'a mut Vec<Record>,
    /// Record index of the segment's first request.
    base: usize,
    /// The root span of each request of the segment, then its open submit
    /// or wait span.
    spans: Vec<(usize, usize)>,
}

impl ServeHooks for ServeTrace<'_> {
    fn before_submit(&mut self, index: usize, entry: usize) {
        let id = self.base + index;
        debug_assert_eq!(id, self.records.len());
        let root = self.tracer.begin("request", id, None);
        let submit = self.tracer.begin("service.submit", id, Some(root));
        self.spans.push((root, submit));
        self.records.push(Record::new(entry));
    }

    fn after_submit(&mut self, index: usize, accepted: bool) {
        let (root, submit) = self.spans[index];
        self.tracer.end(submit);
        if !accepted {
            self.tracer.end(root);
        }
    }

    fn before_wait(&mut self, index: usize) {
        let root = self.spans[index].0;
        self.spans[index].1 = self
            .tracer
            .begin("service.wait", self.base + index, Some(root));
    }

    fn after_wait(&mut self, index: usize) {
        self.tracer.end(self.spans[index].1);
    }

    fn completed(&mut self, index: usize) {
        self.tracer.end(self.spans[index].0);
    }
}

/// One per-layer metric value: (name, unit, value).
pub type LayerValue = (&'static str, &'static str, f64);

/// Per-layer metrics of the traced window: the `all` row first, then the
/// paper family, one row per paper program and one per other family.
pub struct LayerTable {
    pub rows: Vec<(String, Vec<LayerValue>)>,
}

impl Traced {
    /// Folds every span's self time into its request's record.
    fn attribute_spans(&mut self) {
        let mut children_ns = vec![0u64; self.tracer.spans.len()];
        for span in &self.tracer.spans {
            if let Some(parent) = span.parent {
                children_ns[parent] += span.duration_ns();
            }
        }
        for (index, span) in self.tracer.spans.iter().enumerate() {
            let Some((_, metric)) = SPAN_METRICS.iter().find(|(name, _)| *name == span.name) else {
                continue;
            };
            let self_ns = span.duration_ns().saturating_sub(children_ns[index]);
            self.records[span.request]
                .values
                .push((metric, self_ns as f64 / 1e6));
        }
    }

    /// Adds the service metrics of an untraced `serve` window: one record
    /// per served request, so they measure the service without the traced
    /// run's extra work on the client thread.
    pub fn add_served(&mut self, served: &[Served]) {
        for request in served {
            let mut record = Record::new(request.entry);
            record
                .values
                .push(("service.non_solve_ms", request.non_solve_ms));
            record.share("service.coalesced_pct", request.coalesced);
            self.records.push(record);
        }
    }

    /// Computes the per-layer table; `process` supplies the process-level
    /// metrics of the `all` row.
    pub fn layer_table(&mut self, corpus: &Corpus, process: &[(&str, f64)]) -> LayerTable {
        self.attribute_spans();
        let mut rows: Vec<(String, Vec<usize>)> =
            vec![("all".to_string(), (0..self.records.len()).collect())];
        let mut by_row: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (index, record) in self.records.iter().enumerate() {
            by_row
                .entry(corpus.row_of(record.entry).to_string())
                .or_default()
                .push(index);
        }
        let paper: Vec<usize> = self
            .records
            .iter()
            .enumerate()
            .filter(|(_, record)| {
                corpus.item_of(record.entry).family == crate::corpus::Family::Paper
            })
            .map(|(index, _)| index)
            .collect();
        rows.push(("paper".to_string(), paper));
        for benchmark in mlo_benchmarks::Benchmark::all() {
            let name = benchmark.name().to_string();
            let members = by_row.remove(&name).unwrap_or_default();
            rows.push((name, members));
        }
        rows.extend(by_row);

        let rows = rows
            .into_iter()
            .enumerate()
            .map(|(row, (name, members))| {
                let values = LAYER_METRICS
                    .iter()
                    .filter(|(_, _, aggregate)| row == 0 || *aggregate != Aggregate::Process)
                    .map(|&(metric, unit, aggregate)| {
                        let value = match aggregate {
                            Aggregate::Process => process
                                .iter()
                                .find(|(name, _)| *name == metric)
                                .map_or(0.0, |(_, value)| *value),
                            _ => self.aggregate(corpus, &members, metric, aggregate),
                        };
                        (metric, unit, value)
                    })
                    .collect();
                (name, values)
            })
            .collect();
        LayerTable { rows }
    }

    fn aggregate(
        &self,
        corpus: &Corpus,
        members: &[usize],
        metric: &str,
        aggregate: Aggregate,
    ) -> f64 {
        let values = |filter: &dyn Fn(&Record) -> bool| -> Vec<f64> {
            members
                .iter()
                .map(|&index| &self.records[index])
                .filter(|record| filter(record))
                .filter_map(|record| record.get(metric))
                .collect()
        };
        match aggregate {
            Aggregate::Median => median(&values(&|_| true)),
            Aggregate::Share => {
                let shares = values(&|_| true);
                if shares.is_empty() {
                    0.0
                } else {
                    100.0 * shares.iter().sum::<f64>() / shares.len() as f64
                }
            }
            Aggregate::Ratio => {
                let mut items: Vec<usize> = members
                    .iter()
                    .map(|&index| corpus.pool[self.records[index].entry].item)
                    .collect();
                items.sort_unstable();
                items.dedup();
                geomean(items.into_iter().map(|item| {
                    median(&values(&|record: &Record| {
                        corpus.pool[record.entry].item == item
                    }))
                }))
            }
            Aggregate::Process => unreachable!("process metrics are not per request"),
        }
    }

    /// Writes every span as one JSON line.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.tracer.spans.len() * 96);
        for (id, span) in self.tracer.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or("null".to_string(), |parent| parent.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                span.name, span.request, span.start_ns, span.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
