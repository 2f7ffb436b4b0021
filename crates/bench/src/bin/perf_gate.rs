//! The perf gate: the parallel schedulers against the single-thread
//! baseline at fixed seeds, plus the kernel, service and fault audits.
//!
//! ```text
//! cargo run -p mlo-bench --release --bin perf_gate -- \
//!     [--threads N] [--out PATH] [--baseline BENCH_9.json | --no-baseline] \
//!     [--min-speedup X] [--no-wall-gate] [--only GROUP]
//! ```
//!
//! The artifact goes to `--out` (default: `perf_gate.json` in the system
//! temp directory) and its `"benchmark"` field is that file's stem.  The
//! exit code is the whole gate: 0 when every check below holds, 1 when any
//! fails (each failure is printed), 2 on a bad argument.
//!
//! # Groups
//!
//! [`GROUPS`] runs them in this order; `--only GROUP` runs one of them.  A
//! group that does not run prints nothing and is absent from the artifact.
//!
//! * `table2` — the paper benchmarks through the `portfolio` strategy at 1
//!   and N workers, timed by the report's `solution_time` on a pre-built
//!   network (cost = layout quality score);
//! * `table3` — the same through the `weighted` strategy, evaluated on the
//!   simulated DATE'05 machine (cost = simulated cycles);
//! * `unsat` — pigeonhole UNSAT proofs through the work-stealing scheduler
//!   (cost = nodes visited: the scheduler partitions the tree exactly, so
//!   the count is the same at every worker count);
//! * `enumerate` — exact model counts of loosely constrained random
//!   networks through the same scheduler (cost = solution count);
//! * `propagation` — steady-state AC-3 revisions per second on the
//!   compiled bitset kernel, in timed batches, and the bytes each revision
//!   touched;
//! * `weighted` — noise-dominant planted branch-and-bound instances through
//!   the scheduler's sharded branch and bound (cost = optimum weight; the
//!   integer weights keep it exact);
//! * `service` — duplicate-heavy bursts through `MloService` (throughput,
//!   coalescing, shedding under a 4-deep intake) and a served-vs-direct
//!   audit;
//! * `faults` — the disarmed failpoint cost, one injected `engine.solve`
//!   panic, and a storm in which every solve panics.
//!
//! `unsat` + `enumerate` are the scaling workloads: neither has an early
//! exit, so their aggregate wall-clock speedup at N workers
//! (`scaling_speedup`) measures honest tree sharding.
//!
//! # Gates
//!
//! 1. cost parity: every N-worker cost equals its single-thread cost;
//! 2. `propagation.bytes_ok`: bytes per revision stay within the ceiling
//!    the kernel's row width implies (`size.div_ceil(64).max(1)` words per
//!    live span and bit-row; a cache-blocking regression fails even when
//!    wall clock hides it);
//! 3. weighted `nodes_ok`: both node counts within `node_budget` (25% of
//!    the instance's `BENCH_9` count, before weighted bound consistency)
//!    and nonzero single-thread bound deletions;
//! 4. `steal_telemetry.ok`: no steal or split at 1 worker, and some steal
//!    at N workers whenever `unsat` or `enumerate` ran;
//! 5. `service.determinism_ok`: every served report equals the direct
//!    `Session::optimize` call at the same worker count;
//! 6. `faults.ladder_ok`: the one injected panic comes back from the
//!    retry/fallback ladder as a degraded report;
//! 7. `faults.no_hung_waiters`: every storm waiter gets a typed error;
//! 8. the wall gate: the single-thread wall of the `table2`/`table3` groups
//!    that ran stays within 25% (the characterized runner noise) of the
//!    same groups' sum in the `--baseline` artifact (`--no-wall-gate`
//!    turns it off);
//! 9. `--min-speedup X`: `scaling_speedup` is at least X, enforced only
//!    when `unsat` or `enumerate` ran and the machine has `--threads`
//!    cores (on fewer cores an N-worker run measures scheduling overhead,
//!    not speedup; the artifact records `cores`).

use mlo_benchmarks::Benchmark;
use mlo_core::{Engine, EvaluationOptions, OptimizeRequest, SearchBudget, TextTable};
use mlo_csp::random::{
    pigeonhole_network, planted_weighted_network, satisfiable_network, RandomNetworkSpec,
};
use mlo_csp::solver::{ac3_kernel, Ac3Outcome, SearchStats};
use mlo_csp::{SearchLimits, StealReport, StealScheduler, WorkerPool};
use mlo_layout::quality::assignment_score;
use mlo_service::{MloService, ServiceConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Fixed seed for every request (the gate is meaningless without one).
const SEED: u64 = 0x0DA7_E205;

/// Allowed single-thread wall regression against the baseline artifact.
const WALL_MARGIN: f64 = 0.25;

/// A JSON value; objects keep their key order.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

macro_rules! json_from {
    ($($source:ty => $v:ident => $value:expr;)*) => {
        $(impl From<$source> for Json {
            fn from($v: $source) -> Self {
                $value
            }
        })*
    };
}

json_from! {
    bool => b => Json::Bool(b);
    f64 => x => Json::Number(x);
    u64 => n => Json::Number(n as f64);
    usize => n => Json::Number(n as f64);
    &str => s => Json::String(s.to_string());
}

impl Json {
    /// Parses one JSON document.  Strings support the escapes
    /// [`Json::render`] writes.
    fn parse(text: &str) -> Result<Json, String> {
        let mut rest = text;
        let value = parse_value(&mut rest)?;
        match rest.trim_start() {
            "" => Ok(value),
            tail => Err(format!("trailing text at {:?}", near(tail))),
        }
    }

    /// Renders the value.  A container holding only scalars stays on one
    /// line; any other puts each member on its own indented line.
    fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, members): (_, _, Vec<(Option<&String>, &Json)>) = match self {
            Json::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Object(fields) => ('{', '}', fields.iter().map(|(k, v)| (Some(k), v)).collect()),
            Json::String(s) => return write_string(out, s),
            Json::Bool(b) => return out.push_str(&b.to_string()),
            // Six decimals is finer than anything here is measured.
            Json::Number(x) if x.is_finite() => {
                let text = format!("{x:.6}");
                return out.push_str(text.trim_end_matches('0').trim_end_matches('.'));
            }
            _ => return out.push_str("null"),
        };
        let nested = members
            .iter()
            .any(|(_, v)| matches!(v, Json::Array(_) | Json::Object(_)));
        let indent = |depth| match nested {
            true => format!("\n{}", "  ".repeat(depth)),
            false => String::new(),
        };
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(if nested { "," } else { ", " });
            }
            out.push_str(&indent(depth + 1));
            if let Some(key) = key {
                write_string(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        out.push_str(&indent(depth));
        out.push(close);
    }

    /// The value at a dot-separated object path, e.g. `"propagation.bytes_ok"`.
    fn path(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |value, key| match value {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        })
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The start of the unparsed text, for error messages.
fn near(rest: &str) -> String {
    rest.chars().take(20).collect()
}

/// Skips whitespace, then consumes `c` if it comes next.
fn eat(rest: &mut &str, c: char) -> bool {
    *rest = rest.trim_start();
    rest.strip_prefix(c).map(|tail| *rest = tail).is_some()
}

fn parse_value(rest: &mut &str) -> Result<Json, String> {
    if eat(rest, '{') {
        let member = |rest: &mut &str| {
            let key = parse_string(rest)?;
            match eat(rest, ':') {
                true => Ok((key, parse_value(rest)?)),
                false => Err(format!("expected ':' after {key:?}")),
            }
        };
        return parse_members(rest, '}', member).map(Json::Object);
    }
    if eat(rest, '[') {
        return parse_members(rest, ']', parse_value).map(Json::Array);
    }
    if rest.starts_with('"') {
        return parse_string(rest).map(Json::String);
    }
    for (word, value) in [
        ("true", Json::Bool(true)),
        ("false", Json::Bool(false)),
        ("null", Json::Null),
    ] {
        if let Some(tail) = rest.strip_prefix(word) {
            *rest = tail;
            return Ok(value);
        }
    }
    let end = rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)));
    let (number, tail) = rest.split_at(end.unwrap_or(rest.len()));
    let number = number
        .parse()
        .map_err(|_| format!("expected a value at {:?}", near(rest)))?;
    *rest = tail;
    Ok(Json::Number(number))
}

/// Parses comma-separated members up to `close` (the opening bracket is
/// already consumed).
fn parse_members<T>(
    rest: &mut &str,
    close: char,
    mut member: impl FnMut(&mut &str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut members = Vec::new();
    while !eat(rest, close) {
        if !members.is_empty() && !eat(rest, ',') {
            return Err(format!("expected ',' or '{close}' at {:?}", near(rest)));
        }
        members.push(member(rest)?);
    }
    Ok(members)
}

fn parse_string(rest: &mut &str) -> Result<String, String> {
    if !eat(rest, '"') {
        return Err(format!("expected a string at {:?}", near(rest)));
    }
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *rest = &rest[i + 1..];
                return Ok(out);
            }
            '\\' => match chars.next().map(|(_, c)| c) {
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).map(|(_, c)| c).collect();
                    let escaped = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                    out.push(escaped.ok_or(format!("bad escape \\u{hex}"))?);
                }
                Some(c) => out.push(c),
                None => break,
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

/// One reported quantity of a record: its artifact key, its value, and
/// whether it is a gate (a `false` value fails the run).
struct Field {
    key: String,
    value: Json,
    gate: bool,
}

fn field(key: impl Into<String>, value: impl Into<Json>) -> Field {
    Field {
        key: key.into(),
        value: value.into(),
        gate: false,
    }
}

fn gate(key: &str, ok: bool) -> Field {
    Field {
        gate: true,
        ..field(key, ok)
    }
}

/// Fields keyed by the record's own field names.
macro_rules! fields {
    ($record:expr; $($name:ident),*) => {
        vec![$(field(stringify!($name), $record.$name)),*]
    };
}

/// The `_1t` and `_nt` fields of a quantity measured at 1 and N workers.
fn pair<T: Into<Json>>(key: &str, [one, many]: [T; 2]) -> [Field; 2] {
    [
        field(format!("{key}_1t"), one),
        field(format!("{key}_nt"), many),
    ]
}

fn object(fields: &[Field]) -> Json {
    Json::Object(
        fields
            .iter()
            .map(|f| (f.key.clone(), f.value.clone()))
            .collect(),
    )
}

/// The keys of the gates among `fields` that failed.
fn failed(fields: &[Field]) -> impl Iterator<Item = &str> {
    let failed = |f: &&Field| f.gate && f.value == Json::Bool(false);
    fields.iter().filter(failed).map(|f| f.key.as_str())
}

/// `x` as `{:.N}` formats it: derived figures that successive artifacts
/// must record identically keep the precision they were first written at.
fn fixed(x: f64, decimals: usize) -> f64 {
    format!("{x:.decimals$}")
        .parse()
        .expect("a formatted f64 parses")
}

/// A console cell: integers as they are, other numbers to three decimals,
/// strings unquoted.
fn cell(value: &Json) -> String {
    match value {
        Json::Number(x) if x.fract() != 0.0 => format!("{x:.3}"),
        Json::String(s) => s.clone(),
        other => other.render(),
    }
}

fn print_block(key: &str, fields: &[Field]) {
    println!("\n{key}");
    for f in fields {
        println!("  {}: {}", f.key, cell(&f.value));
    }
}

/// `one / many`, or 1 when `many` took no time.
fn speedup([one, many]: [f64; 2]) -> f64 {
    if many > 0.0 {
        one / many
    } else {
        1.0
    }
}

/// One instance measured at 1 and at N workers (index 0 is the
/// single-thread run).
struct Entry {
    name: String,
    wall_ms: [f64; 2],
    nodes: [u64; 2],
    cost: [f64; 2],
    /// The branch-and-bound counters of a `weighted` instance.
    bound: Option<Bound>,
}

/// Bound counters and the node budget of one weighted instance.
struct Bound {
    prunings: [u64; 2],
    bound_deletions: [u64; 2],
    /// Ceiling on both node counts: 25% of the instance's node count in
    /// `BENCH_9`, before weighted bound consistency existed.
    node_budget: u64,
}

impl Entry {
    fn new(name: &str, wall_ms: [f64; 2], nodes: [u64; 2], cost: [f64; 2]) -> Entry {
        Entry {
            name: name.to_string(),
            wall_ms,
            nodes,
            cost,
            bound: None,
        }
    }

    /// Bit-exact cost parity (every cost here is an exact integer sum).
    fn cost_match(&self) -> bool {
        self.cost[0] == self.cost[1]
    }

    /// Both node counts within the budget, and bound consistency deleted
    /// values in the single-thread run.
    fn nodes_ok(&self) -> bool {
        let within = |b: &Bound| self.nodes.iter().all(|&n| n <= b.node_budget);
        self.bound
            .as_ref()
            .is_none_or(|b| within(b) && b.bound_deletions[0] > 0)
    }

    fn fields(&self) -> Vec<Field> {
        let mut fields = vec![field("name", self.name.as_str())];
        fields.extend(pair("wall_ms", self.wall_ms));
        fields.extend(pair("nodes", self.nodes));
        if let Some(b) = &self.bound {
            fields.extend(pair("prunings", b.prunings));
            fields.extend(pair("bound_deletions", b.bound_deletions));
            fields.push(field("node_budget", b.node_budget));
            fields.push(gate("nodes_ok", self.nodes_ok()));
        }
        fields.extend(pair("cost", self.cost));
        fields.push(field("speedup", speedup(self.wall_ms)));
        fields.push(gate("cost_match", self.cost_match()));
        fields
    }
}

/// What every group runs with.
struct Harness {
    threads: usize,
    pool: Arc<WorkerPool>,
}

impl Harness {
    /// The work-stealing scheduler at `workers`; the single-thread baseline
    /// runs without a pool.
    fn scheduler(&self, workers: usize) -> StealScheduler {
        match workers {
            1 => StealScheduler::new(),
            n => StealScheduler::new()
                .with_pool(Arc::clone(&self.pool))
                .parallelism(n),
        }
    }
}

/// Runs `solve` with one worker, then with `threads` workers, and returns
/// each run's wall clock (ms) and result.
fn one_vs_n<T>(threads: usize, mut solve: impl FnMut(usize) -> T) -> ([f64; 2], [T; 2]) {
    let mut timed = |workers| {
        let start = Instant::now();
        let out = solve(workers);
        (start.elapsed().as_secs_f64() * 1e3, out)
    };
    let ((wall_1t, one), (wall_nt, many)) = (timed(1), timed(threads));
    ([wall_1t, wall_nt], [one, many])
}

/// Steal and split counters summed over the scheduler groups (index 0 is
/// the single-thread runs).
#[derive(Default)]
struct StealTotals {
    steals: [u64; 2],
    splits: [u64; 2],
}

impl StealTotals {
    fn absorb(&mut self, [one, many]: [&StealReport; 2]) {
        self.steals = [self.steals[0] + one.steals, self.steals[1] + many.steals];
        self.splits = [self.splits[0] + one.splits, self.splits[1] + many.splits];
    }

    /// `sharded`: `unsat` or `enumerate` ran, whose proof-sized trees must
    /// make N workers steal.
    fn fields(&self, sharded: bool) -> Vec<Field> {
        let ok = self.steals[0] == 0 && self.splits[0] == 0 && (!sharded || self.steals[1] > 0);
        let mut fields = Vec::from(pair("steals", self.steals));
        fields.extend(pair("splits", self.splits));
        fields.push(gate("ok", ok));
        fields
    }
}

/// The random-network shape of a fixed-seed instance.
fn spec(vars: usize, domain: usize, density: f64, tightness: f64, seed: u64) -> RandomNetworkSpec {
    RandomNetworkSpec {
        variables: vars,
        domain_size: domain,
        density,
        tightness,
        seed,
    }
}

/// table2/table3: the paper benchmarks through `strategy`, timed by the
/// report's `solution_time` (pure search: the network is built first).
fn engine_group(threads: usize, strategy: &str, evaluate: bool) -> Vec<Entry> {
    let engine = Engine::builder().parallelism(threads).build();
    let session = engine.session();
    let run = |benchmark: Benchmark| {
        let program = benchmark.program();
        let candidates = benchmark.candidate_options();
        session.prepared(&program, &candidates).network(&program);
        let mut request = OptimizeRequest::strategy(strategy)
            .candidates(candidates)
            .seed(SEED);
        if evaluate {
            // Sub-sampled traces: the evaluation stays deterministic (and
            // comparable across thread counts) but the whole group runs in
            // seconds instead of minutes on one CI core.
            let trace = mlo_cachesim::TraceOptions {
                max_trip_per_loop: 24,
                ..mlo_cachesim::TraceOptions::default()
            };
            request = request.evaluate(EvaluationOptions::date05().trace(trace));
        }
        let (_, reports) = one_vs_n(threads, |workers| {
            let request = request
                .clone()
                .with_budget(SearchBudget::new().workers(workers));
            let report = session.optimize(&program, &request);
            report.expect("perf-gate requests use the heuristic fallback policy")
        });
        let runs = reports.each_ref();
        let wall_ms = runs.map(|r| r.solution_time.as_secs_f64() * 1e3);
        let nodes = runs.map(|r| r.search_stats.map_or(0, |s| s.nodes_visited));
        let cost = runs.map(|r| match &r.evaluation {
            Some(evaluation) => evaluation.total_cycles as f64,
            None => assignment_score(&program, &r.assignment) as f64,
        });
        Entry::new(benchmark.name(), wall_ms, nodes, cost)
    };
    Benchmark::all().into_iter().map(run).collect()
}

/// unsat: pigeonhole UNSAT proofs through the work-stealing scheduler.
///
/// `PHP(n+1, n)` refutation trees have no lucky exits, so a redundant race
/// cannot speed them up and tree sharding speeds them up almost linearly.
/// Per-node work is a pure function of the path, so the cost (the node
/// count) must be identical at every worker count: cost parity doubles as
/// the partition audit.
fn unsat_group(h: &Harness, steals: &mut StealTotals) -> Vec<Entry> {
    let mut run = |(name, holes)| {
        let network = pigeonhole_network(holes);
        let limits = SearchLimits::none();
        let (wall_ms, runs) = one_vs_n(h.threads, |workers| {
            h.scheduler(workers).solve_detailed(&network, &limits, None)
        });
        let proved = runs.iter().all(|r| r.result.proves_unsatisfiable());
        assert!(proved, "pigeonhole proofs must complete");
        steals.absorb(runs.each_ref().map(|r| &r.telemetry));
        let nodes = runs.each_ref().map(|r| r.result.stats.nodes_visited);
        Entry::new(name, wall_ms, nodes, nodes.map(|n| n as f64))
    };
    vec![run(("php-9", 9)), run(("php-10", 10))]
}

/// enumerate: exact model counts of loosely constrained random networks
/// through the work-stealing scheduler.  Like a proof, an exhaustive count
/// has no early exit, and the count must not depend on the worker count.
fn enumerate_group(h: &Harness, steals: &mut StealTotals) -> Vec<Entry> {
    let mut run = |name, variables, tightness, seed| {
        // Planted-satisfiable: the count is at least one.
        let (network, _) = satisfiable_network(&spec(variables, 4, 0.28, tightness, seed));
        let limits = SearchLimits::none();
        let (wall_ms, runs) = one_vs_n(h.threads, |workers| {
            h.scheduler(workers).count_detailed(&network, &limits, None)
        });
        let exact = runs.iter().all(|r| r.is_exact());
        assert!(exact, "enumeration runs must complete");
        steals.absorb(runs.each_ref().map(|r| &r.telemetry));
        let nodes = runs.each_ref().map(|r| r.stats.nodes_visited);
        let count = runs.each_ref().map(|r| r.solutions as f64);
        Entry::new(name, wall_ms, nodes, count)
    };
    vec![
        run("enum-24", 24, 0.22, 15_2026),
        run("enum-26", 26, 0.24, 16_2026),
    ]
}

/// The `propagation` bitset-kernel microbench.
struct Propagation {
    variables: usize,
    constraints: usize,
    allowed_pairs: usize,
    /// Cold kernel compilation (bit-matrices + support counts).
    kernel_build_ms: f64,
    /// At the fixpoint every pass revises each constraint's two arcs once
    /// (nothing is removed, so nothing is re-queued).
    revisions: u64,
    /// Consistency checks over every timed pass.
    checks: u64,
    /// Wall clock of each batch of [`Propagation::BATCH_RUNS`] passes.
    batch_ms: Vec<f64>,
    /// Bytes the kernel touched over every timed revision, as accounted by
    /// `SearchStats::bytes_touched`.
    bytes_touched: u64,
    /// The most one revision may touch when every live span and bit-row is
    /// `size.div_ceil(64).max(1)` words wide.
    bytes_budget_per_revision: u64,
}

impl Propagation {
    const RUNS: usize = 400;
    const BATCH_RUNS: usize = 50;

    fn per_sec(&self, count: u64) -> f64 {
        let seconds = self.batch_ms.iter().sum::<f64>() / 1e3;
        count as f64 / seconds.max(1e-9)
    }

    fn revisions_per_sec(&self) -> f64 {
        self.per_sec(self.revisions)
    }

    fn bytes_per_revision(&self) -> f64 {
        self.bytes_touched as f64 / self.revisions.max(1) as f64
    }

    fn bytes_ok(&self) -> bool {
        let budget = self.bytes_budget_per_revision as f64;
        self.bytes_touched > 0 && self.bytes_per_revision() <= budget
    }

    fn fields(&self) -> Vec<Field> {
        let batches = self.batch_ms.len() as f64;
        let total_ms: f64 = self.batch_ms.iter().sum();
        let mean = total_ms / batches;
        let square = |ms: &f64| (ms - mean).powi(2);
        let variance = self.batch_ms.iter().map(square).sum::<f64>() / batches;
        let batch_ms = Json::Array(self.batch_ms.iter().map(|&ms| ms.into()).collect());
        let mut fields =
            fields!(self; variables, constraints, allowed_pairs, kernel_build_ms, revisions);
        fields.extend([
            field("ac3_runs", Self::RUNS),
            field("ac3_total_ms", total_ms),
            field("revisions_per_sec", self.revisions_per_sec()),
            field("checks_per_sec", self.per_sec(self.checks)),
            field("batch_runs", Self::BATCH_RUNS),
            field("batch_ms", batch_ms),
            field("batch_rel_std", variance.sqrt() / mean.max(1e-9)),
            field("bytes_touched", self.bytes_touched),
            field("bytes_per_revision", fixed(self.bytes_per_revision(), 2)),
            field("bytes_budget_per_revision", self.bytes_budget_per_revision),
            gate("bytes_ok", self.bytes_ok()),
        ]);
        fields
    }
}

/// propagation: steady-state AC-3 revisions per second on the compiled
/// kernel, batched so the per-batch spread is reported too.
fn propagation_group() -> Propagation {
    let (weighted, _) = planted_weighted_network(&spec(100, 6, 0.4, 0.25, 6_2025), 80.0, 8);
    let network = weighted.network();
    let start = Instant::now();
    let kernel = Arc::clone(network.kernel());
    let kernel_build_ms = start.elapsed().as_secs_f64() * 1e3;

    // Drive AC-3 to its fixpoint once, so every timed pass does the same
    // revisions.
    let mut warm = kernel.full_domains();
    let outcome = ac3_kernel(&kernel, &mut warm, &mut SearchStats::default());
    assert!(
        matches!(outcome, Ac3Outcome::Consistent),
        "the propagation instance must be satisfiable at the fixpoint"
    );
    let mut stats = SearchStats::default();
    let batch_ms = (0..Propagation::RUNS / Propagation::BATCH_RUNS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..Propagation::BATCH_RUNS {
                let outcome = ac3_kernel(&kernel, &mut warm.clone(), &mut stats);
                assert!(matches!(outcome, Ac3Outcome::Consistent));
            }
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    // The worst directed arc (x revised against y) reads both live spans
    // and, on the block-major path, at most one row per live value of x.
    // Wider strides, scattered rows or re-scanned partners blow this
    // ceiling even when wall clock hides the miss cost.  The row width is
    // restated here, not read back from the kernel, so a kernel that
    // widens its rows fails the gate.
    let span_words = |size: usize| size.div_ceil(64).max(1) as u64;
    let arc_budget = |ci| {
        let c = kernel.constraint(ci);
        let first = kernel.domain_size(c.first());
        let second = kernel.domain_size(c.second());
        let (pf, ps) = (span_words(first), span_words(second));
        // Both arc directions: revise first-against-second and back.
        8 * (pf + ps + first as u64 * ps).max(ps + pf + second as u64 * pf)
    };
    let constraints = network.constraint_count();
    Propagation {
        variables: network.variable_count(),
        constraints,
        allowed_pairs: network.constraints().iter().map(|c| c.pair_count()).sum(),
        kernel_build_ms,
        revisions: (2 * constraints * Propagation::RUNS) as u64,
        checks: stats.consistency_checks,
        batch_ms,
        bytes_touched: stats.bytes_touched,
        bytes_budget_per_revision: (0..constraints).map(arc_budget).max().unwrap_or(0),
    }
}

/// weighted: *noise-dominant* planted instances (noise above the planted
/// bonus, so the weight-ordered value loop cannot shortcut the search and
/// the bound has to work) through the scheduler's sharded branch and
/// bound.  The strict-< incumbent contract makes the optimum independent
/// of the worker count.
fn weighted_group(h: &Harness, steals: &mut StealTotals) -> Vec<Entry> {
    // Budgets are 25% of each instance's BENCH_9 single-thread node count
    // (391_608 / 1_324_312 / 36_965_312).
    let mut run = |name, node_budget, variables, density, tightness, seed| {
        let spec = spec(variables, 4, density, tightness, seed);
        // Bonus far below the noise ceiling: the planted assignment is
        // *not* the optimum and the bound must close the whole tree.
        let (weighted, _) = planted_weighted_network(&spec, 4.0, 12);
        let limits = SearchLimits::none();
        let (wall_ms, runs) = one_vs_n(h.threads, |workers| {
            h.scheduler(workers)
                .optimize_detailed(&weighted, &limits, None)
        });
        let optimal = runs.iter().all(|r| r.optimal);
        assert!(optimal, "weighted runs must complete");
        steals.absorb(runs.each_ref().map(|r| &r.telemetry));
        let stat =
            |counter: fn(&SearchStats) -> u64| runs.each_ref().map(|r| counter(&r.result.stats));
        let cost = runs
            .each_ref()
            .map(|r| r.canonical_weight.expect("satisfiable"));
        let bound = Bound {
            prunings: stat(|s| s.prunings),
            bound_deletions: stat(|s| s.bound_deletions),
            node_budget,
        };
        let mut entry = Entry::new(name, wall_ms, stat(|s| s.nodes_visited), cost);
        entry.bound = Some(bound);
        entry
    };
    vec![
        run("noise-18", 97_902, 18, 0.5, 0.15, 17_2026),
        run("noise-20", 331_078, 20, 0.45, 0.15, 18_2026),
        run("noise-22", 9_241_328, 22, 0.45, 0.12, 19_2026),
    ]
}

/// The `service` group: queued throughput, coalescing, admission shedding
/// and the served-vs-direct determinism audit.
struct Service {
    /// Requests the unbounded burst accepted.
    requests: u64,
    /// Wall clock of the whole burst (submit + drain).
    wall_ms: f64,
    /// Submissions the burst service counted (coalesced hits included).
    submitted: u64,
    /// Burst submissions that coalesced onto an in-flight solve.
    coalesced: u64,
    /// Submissions shed by the same burst against a 4-deep intake.
    shed: u64,
    /// Every served report matched its direct session call.
    determinism_ok: bool,
}

impl Service {
    fn fields(&self) -> Vec<Field> {
        let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
        let throughput = ratio(self.requests as f64, self.wall_ms / 1e3);
        let hit_rate = ratio(self.coalesced as f64, self.submitted as f64);
        let mut fields = fields!(self; requests, wall_ms, submitted, coalesced, shed);
        fields.extend([
            field("throughput_rps", throughput),
            field("coalesce_hit_rate", hit_rate),
            gate("determinism_ok", self.determinism_ok),
        ]);
        fields
    }
}

/// One fixed-seed duplicate-heavy burst: every paper benchmark × 8 seeds,
/// each `(program, request)` pair submitted twice back-to-back.  Returns
/// the accepted count and the wall clock.
fn service_burst(service: &MloService) -> (u64, f64) {
    let programs: Vec<_> = Benchmark::all().iter().map(|b| b.program()).collect();
    let mut handles = Vec::new();
    let started = Instant::now();
    for seed in 0..8u64 {
        for program in &programs {
            let request = OptimizeRequest::strategy("enhanced").seed(SEED ^ seed);
            // A bounded intake may shed a submission; the service stats
            // count that, it is not a failure.
            handles.extend((0..2).filter_map(|_| service.submit(program, &request).ok()));
        }
    }
    for handle in &handles {
        let solved = handle.wait().is_ok();
        assert!(solved, "a burst request failed to solve (service group)");
    }
    (handles.len() as u64, started.elapsed().as_secs_f64() * 1e3)
}

fn service_group(threads: usize) -> Service {
    // Every service's engine outlives the service, so a pool thread never
    // drops the last handle to its own pool.
    let engines: [Engine; 3] =
        std::array::from_fn(|_| Engine::builder().parallelism(threads).build());
    let service = |i: usize, queue_limit| {
        let config = ServiceConfig::new().queue_limit(queue_limit);
        MloService::new(engines[i].session(), config)
    };
    let session = engines[0].session();
    let audited = service(0, 0);
    let mut determinism_ok = true;
    for benchmark in Benchmark::all() {
        let program = benchmark.program();
        for strategy in ["enhanced", "weighted", "portfolio-steal"] {
            let request = OptimizeRequest::strategy(strategy).seed(SEED);
            let direct = session.optimize(&program, &request);
            let direct = direct.expect("direct solve succeeds");
            let served = audited.submit(&program, &request);
            let served = served.expect("unbounded admission").wait();
            let served = match served.as_ref() {
                Ok(report) => report,
                Err(error) => panic!("served solve failed: {error}"),
            };
            determinism_ok &= direct.assignment == served.assignment
                && direct.search_stats == served.search_stats
                && direct.satisfiable == served.satisfiable
                && direct.fallback == served.fallback;
        }
    }

    // Duplicates of an in-flight request coalesce instead of re-solving.
    let burst = service(1, 0);
    let (requests, wall_ms) = service_burst(&burst);
    let stats = burst.stats();
    // Admission control must shed instead of queueing without bound.
    let bounded = service(2, 4);
    service_burst(&bounded);
    Service {
        requests,
        wall_ms,
        submitted: stats.submitted,
        coalesced: stats.coalesced,
        shed: bounded.stats().shed,
        determinism_ok,
    }
}

/// The `faults` group: the resilience layer under scoped fault plans (see
/// `mlo_csp::fault`).
struct Faults {
    /// Disarmed `fail_point!` cost per hit on the hot path.
    disarmed_ns_per_hit: f64,
    ladder_recovery_ms: f64,
    /// The strategy that served the recovered request.
    ladder_strategy: String,
    /// The one injected panic came back as a degraded report.
    ladder_ok: bool,
    storm_requests: u64,
    /// Strategy panics the resilience layer contained during the storm.
    storm_panics: u64,
    /// Every storm waiter completed with a typed error.
    no_hung_waiters: bool,
}

impl Faults {
    fn fields(&self) -> Vec<Field> {
        let mut fields = fields!(self; disarmed_ns_per_hit, ladder_recovery_ms, storm_requests,
            storm_panics);
        fields.extend([
            field("ladder_strategy", self.ladder_strategy.as_str()),
            gate("ladder_ok", self.ladder_ok),
            gate("no_hung_waiters", self.no_hung_waiters),
        ]);
        fields
    }
}

/// faults: one bounded `engine.solve` panic must recover through the
/// retry/fallback ladder; under an unbounded plan (every rung of every
/// request dies) every waiter must still get a typed error.
fn faults_group(threads: usize) -> Faults {
    use mlo_csp::fault::{self, FaultPlan, FaultTrigger};
    let timeout = std::time::Duration::from_secs(60);
    let request = |seed| OptimizeRequest::strategy("enhanced").seed(SEED ^ seed);
    let program = Benchmark::MxM.program();

    // With no plan armed a failpoint must stay one relaxed atomic load.
    drop(fault::scoped(FaultPlan::new()));
    const HITS: u32 = 1_000_000;
    let start = Instant::now();
    for _ in 0..HITS {
        std::hint::black_box(fault::hit(std::hint::black_box("perf.probe")));
    }
    let disarmed_ns_per_hit = start.elapsed().as_secs_f64() * 1e9 / f64::from(HITS);

    // Each engine outlives its service (see `service_group`).
    let (ladder_ok, ladder_strategy, ladder_recovery_ms) = {
        let once = FaultTrigger::panic().times(1);
        let _plan = fault::scoped(FaultPlan::new().with("engine.solve", once));
        let engine = Engine::builder().parallelism(threads).build();
        let service = MloService::new(engine.session(), ServiceConfig::new());
        let start = Instant::now();
        let handle = service
            .submit(&program, &request(0))
            .expect("unbounded admission");
        let outcome = handle.wait_timeout(timeout);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        match outcome.as_deref() {
            Some(Ok(report)) => {
                let recovered = report.degraded && service.stats().panicked == 1;
                (recovered, report.strategy.clone(), wall_ms)
            }
            _ => (false, String::new(), wall_ms),
        }
    };

    const STORM: u64 = 8;
    let (storm_panics, no_hung_waiters) = {
        let _plan = fault::scoped(FaultPlan::new().with("engine.solve", FaultTrigger::panic()));
        let engine = Engine::builder().parallelism(threads).build();
        let service = MloService::new(engine.session(), ServiceConfig::new());
        let submit = |seed| {
            service
                .submit(&program, &request(seed))
                .expect("unbounded admission")
        };
        let handles: Vec<_> = (0..STORM).map(submit).collect();
        let all_typed = handles
            .iter()
            .all(|handle| matches!(handle.wait_timeout(timeout).as_deref(), Some(Err(_))));
        (service.stats().panicked, all_typed)
    };

    Faults {
        disarmed_ns_per_hit,
        ladder_recovery_ms,
        ladder_strategy,
        ladder_ok,
        storm_requests: STORM,
        storm_panics,
        no_hung_waiters,
    }
}

/// Every group's record; `None` for a group that did not run.
#[derive(Default)]
struct Run {
    table2: Option<Vec<Entry>>,
    table3: Option<Vec<Entry>>,
    unsat: Option<Vec<Entry>>,
    enumerate: Option<Vec<Entry>>,
    propagation: Option<Propagation>,
    weighted: Option<Vec<Entry>>,
    service: Option<Service>,
    faults: Option<Faults>,
    steals: StealTotals,
}

/// A group's runner: it fills the group's record in the [`Run`].
type GroupRun = fn(&Harness, &mut Run);

/// Every group `--only` can select, in run order, with the runner that
/// fills its record.  `faults` runs last, so its scoped fault plans cannot
/// overlap the determinism-sensitive groups.
const GROUPS: [(&str, GroupRun); 8] = [
    ("table2", |h, run| {
        run.table2 = Some(engine_group(h.threads, "portfolio", false))
    }),
    ("table3", |h, run| {
        run.table3 = Some(engine_group(h.threads, "weighted", true))
    }),
    ("unsat", |h, run| {
        run.unsat = Some(unsat_group(h, &mut run.steals))
    }),
    ("enumerate", |h, run| {
        run.enumerate = Some(enumerate_group(h, &mut run.steals))
    }),
    ("propagation", |_, run| {
        run.propagation = Some(propagation_group())
    }),
    ("weighted", |h, run| {
        run.weighted = Some(weighted_group(h, &mut run.steals))
    }),
    ("service", |h, run| {
        run.service = Some(service_group(h.threads))
    }),
    ("faults", |h, run| {
        run.faults = Some(faults_group(h.threads))
    }),
];

impl Run {
    /// The groups of [`Entry`] rows that ran, by artifact name.
    fn tables(&self) -> Vec<(&'static str, &[Entry])> {
        let tables = [
            ("table2", self.table2.as_deref()),
            ("table3", self.table3.as_deref()),
            ("unsat", self.unsat.as_deref()),
            ("enumerate", self.enumerate.as_deref()),
            ("weighted", self.weighted.as_deref()),
        ];
        somes(tables).collect()
    }

    /// The single-record blocks that ran: artifact key, the name of the
    /// top-level verdict that all its gates hold (if it has one), fields.
    fn blocks(&self) -> Vec<(&'static str, Option<&'static str>, Vec<Field>)> {
        let sharded = self.unsat.is_some() || self.enumerate.is_some();
        let steals = (sharded || self.weighted.is_some()).then(|| self.steals.fields(sharded));
        let propagation = self.propagation.as_ref().map(Propagation::fields);
        let service = self.service.as_ref().map(Service::fields);
        let faults = self.faults.as_ref().map(Faults::fields);
        let blocks = [
            (("steal_telemetry", None), steals),
            (("propagation", Some("propagation_bytes_ok")), propagation),
            (("service", Some("service_ok")), service),
            (("faults", Some("faults_ok")), faults),
        ];
        somes(blocks)
            .map(|((key, verdict), fields)| (key, verdict, fields))
            .collect()
    }

    fn print(&self) {
        for (name, rows) in self.tables() {
            let rows: Vec<_> = rows.iter().map(Entry::fields).collect();
            let mut table = TextTable::new(rows[0].iter().map(|f| f.key.as_str()).collect());
            for row in &rows {
                table.row(row.iter().map(|f| cell(&f.value)).collect());
            }
            println!("\n{name}\n{table}");
        }
        for (key, _, fields) in self.blocks() {
            print_block(key, &fields);
        }
    }

    /// Every failed gate of every record, named by group and entry.
    fn failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for (group, rows) in self.tables() {
            for entry in rows {
                let at = format!("{group} {}", entry.name);
                failures.extend(failed(&entry.fields()).map(|gate| format!("{at}: {gate}")));
            }
        }
        for (key, _, fields) in self.blocks() {
            failures.extend(failed(&fields).map(|gate| format!("{key}: {gate}")));
        }
        failures
    }

    /// The artifact's top-level verdicts on the records that ran.
    fn verdicts(&self) -> Vec<Field> {
        let blocks = self.blocks().into_iter();
        let all_hold = |(_, verdict, fields): (_, Option<_>, Vec<_>)| {
            Some(field(verdict?, failed(&fields).next().is_none()))
        };
        let nodes_ok = self
            .weighted
            .as_ref()
            .map(|w| w.iter().all(Entry::nodes_ok));
        let tables = self.tables();
        let cost_parity = tables
            .iter()
            .all(|(_, rows)| rows.iter().all(Entry::cost_match));
        let tables = somes([
            ("weighted_nodes_ok", nodes_ok),
            ("cost_parity", Some(cost_parity)),
        ]);
        blocks
            .filter_map(all_hold)
            .chain(tables.map(|(key, ok)| field(key, ok)))
            .collect()
    }
}

/// The pairs whose value is present.
fn somes<K, V>(pairs: impl IntoIterator<Item = (K, Option<V>)>) -> impl Iterator<Item = (K, V)> {
    pairs
        .into_iter()
        .filter_map(|(key, value)| Some((key, value?)))
}

/// Sum of the single-thread walls of `groups` in a previous artifact;
/// `None` unless every group is there with at least one timed entry.
fn baseline_wall_1t(baseline: &Json, groups: &[&str]) -> Option<f64> {
    let group_wall = |group: &&str| {
        let Json::Array(rows) = baseline.path(&format!("groups.{group}"))? else {
            return None;
        };
        let walls: Vec<f64> = rows
            .iter()
            .filter_map(|row| row.path("wall_ms_1t")?.as_f64())
            .collect();
        (!walls.is_empty()).then(|| walls.iter().sum::<f64>())
    };
    groups.iter().map(group_wall).sum()
}

/// The figures that span groups, each next to the baseline's value for
/// exactly the groups that ran, and the failures of the two gates that
/// span groups: the wall gate and `--min-speedup`.
fn summarize(
    run: &Run,
    baseline: Option<&(&str, Json)>,
    config: &Config,
    cores: usize,
) -> (Vec<Field>, Vec<String>) {
    let wall = |rows: &[&Entry], i| rows.iter().map(|e: &&Entry| e.wall_ms[i]).sum::<f64>();
    let scaling: Vec<&Entry> = run.unsat.iter().chain(&run.enumerate).flatten().collect();
    let scaling_speedup =
        (!scaling.is_empty()).then(|| speedup([wall(&scaling, 0), wall(&scaling, 1)]));
    let tables = [("table2", &run.table2), ("table3", &run.table3)];
    let (names, rows): (Vec<&str>, Vec<_>) = somes(tables.map(|(n, t)| (n, t.as_ref()))).unzip();
    let rows: Vec<&Entry> = rows.into_iter().flatten().collect();
    let single_thread_ms = (!names.is_empty()).then(|| wall(&rows, 0));
    let rps = run.propagation.as_ref().map(Propagation::revisions_per_sec);

    let read = |path: &str| baseline.and_then(|(_, json)| json.path(path)?.as_f64());
    let previous_ms = baseline.and_then(|(_, json)| baseline_wall_1t(json, &names));
    let previous_rps = rps.and(read("propagation.revisions_per_sec"));
    let previous = [
        (
            "scaling_speedup",
            scaling_speedup.and(read("scaling_speedup")),
        ),
        ("single_thread_wall_ms", single_thread_ms.and(previous_ms)),
        ("revisions_per_sec", previous_rps),
    ];
    let mut fields = Vec::new();
    if let Some((file, _)) = baseline {
        let mut recorded = vec![field("file", *file)];
        recorded.extend(somes(previous).map(|(key, value)| field(key, value)));
        fields.push(field("baseline", object(&recorded)));
    }

    let mut failures = Vec::new();
    if let (Some(previous_ms), Some(ms)) = (previous_ms, single_thread_ms) {
        let limit_ms = previous_ms * (1.0 + WALL_MARGIN);
        let wall_gate = [
            field("baseline_ms", previous_ms),
            field("margin", WALL_MARGIN),
            field("limit_ms", fixed(limit_ms, 3)),
            field("current_ms", ms),
            field("ok", ms <= limit_ms),
        ];
        fields.push(field("single_thread_improvement", previous_ms / ms));
        if !config.no_wall_gate {
            fields.push(field("wall_gate", object(&wall_gate)));
        }
        if !config.no_wall_gate && ms > limit_ms {
            failures.push(format!(
                "wall gate: single-thread {} wall {ms:.2}ms is over the baseline \
                 {previous_ms:.2}ms + {:.0}% (limit {limit_ms:.2}ms)",
                names.join("+"),
                WALL_MARGIN * 100.0
            ));
        }
    }
    let enforced = config.min_speedup > 0.0 && cores >= config.threads;
    if let Some(speedup) = scaling_speedup.filter(|&s| enforced && s < config.min_speedup) {
        let required = config.min_speedup;
        failures.push(format!(
            "min speedup: aggregate scaling speedup {speedup:.2}x is below the required {required:.2}x"
        ));
    }
    let ratio = |old: f64| Some(rps? / old);
    let improvement = previous_rps.filter(|&old| old > 0.0).and_then(ratio);
    let current = [
        ("single_thread_wall_ms", single_thread_ms),
        ("scaling_speedup", scaling_speedup),
        ("propagation_improvement", improvement),
    ];
    fields.extend(somes(current).map(|(key, value)| field(key, value)));
    (fields, failures)
}

struct Config {
    threads: usize,
    out: PathBuf,
    baseline: Option<String>,
    min_speedup: f64,
    no_wall_gate: bool,
    only: Option<String>,
}

/// Parses the command line (program name already skipped); an error
/// message means the gate must not run.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Config, String> {
    let mut config = Config {
        threads: 4,
        out: std::env::temp_dir().join("perf_gate.json"),
        baseline: Some("BENCH_9.json".to_string()),
        min_speedup: 0.0,
        no_wall_gate: false,
        only: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => config.threads = flag_value(&mut args, "--threads")?,
            "--out" => config.out = flag_value(&mut args, "--out")?,
            "--baseline" => config.baseline = Some(flag_value(&mut args, "--baseline")?),
            "--no-baseline" => config.baseline = None,
            "--min-speedup" => config.min_speedup = flag_value(&mut args, "--min-speedup")?,
            "--no-wall-gate" => config.no_wall_gate = true,
            "--only" => {
                let group: String = flag_value(&mut args, "--only")?;
                let names: Vec<&str> = GROUPS.iter().map(|(name, _)| *name).collect();
                if !names.contains(&group.as_str()) {
                    let names = names.join(", ");
                    return Err(format!(
                        "unknown group {group:?} for --only (valid groups: {names})"
                    ));
                }
                config.only = Some(group);
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?} (try --threads/--out/--baseline/\
                     --no-baseline/--min-speedup/--no-wall-gate/--only)"
                ))
            }
        }
    }
    config.threads = config.threads.max(2);
    Ok(config)
}

/// Takes and parses the value following `flag`.
fn flag_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let text = args.next().ok_or(format!("{flag} requires a value"))?;
    text.parse()
        .map_err(|_| format!("{flag} got an invalid value {text:?}"))
}

/// Reads and parses a previous artifact; one that cannot be read or parsed
/// is reported and not used.
fn read_baseline(path: &str) -> Option<(&str, Json)> {
    let text = std::fs::read_to_string(path).map_err(|error| error.to_string());
    match text.and_then(|text| Json::parse(&text)) {
        Ok(json) => Some((path, json)),
        Err(error) => {
            println!("note: baseline {path} not used: {error}");
            None
        }
    }
}

/// The artifact: the run's header, every record that ran, the summary and
/// the verdicts.
fn artifact(config: &Config, cores: usize, run: &Run, summary: Vec<Field>) -> Json {
    let stem = config.out.file_stem().unwrap_or_default().to_string_lossy();
    let table = |rows: &[Entry]| Json::Array(rows.iter().map(|e| object(&e.fields())).collect());
    let tables = run
        .tables()
        .into_iter()
        .map(|(name, rows)| (name.to_string(), table(rows)));
    let mut fields = vec![
        field("benchmark", stem.as_ref()),
        field("harness", "perf_gate"),
        field("threads", config.threads),
        field("cores", cores),
        field("seed", SEED),
        field("groups", Json::Object(tables.collect())),
    ];
    let blocks = run.blocks().into_iter();
    fields.extend(blocks.map(|(key, _, block)| field(key, object(&block))));
    fields.extend(summary);
    fields.extend(run.verdicts());
    object(&fields)
}

fn main() -> ExitCode {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("perf_gate: {message}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = config.threads;
    let note = match cores < threads {
        true => ": N-worker walls measure scheduling overhead, and --min-speedup is not enforced",
        false => "",
    };
    println!("perf_gate: 1 vs {threads} workers on {cores} core(s), seed {SEED:#x}{note}");

    let pool = Arc::new(WorkerPool::new(threads));
    let harness = Harness { threads, pool };
    let mut run = Run::default();
    for (name, group) in GROUPS {
        if config.only.as_deref().is_none_or(|only| only == name) {
            group(&harness, &mut run);
        }
    }
    let baseline = config.baseline.as_deref().and_then(read_baseline);
    let (summary, cross_group_failures) = summarize(&run, baseline.as_ref(), &config, cores);
    run.print();
    print_block("summary", &summary);

    let mut failures = run.failures();
    failures.extend(cross_group_failures);
    let json = artifact(&config, cores, &run, summary).render() + "\n";
    match std::fs::write(&config.out, json) {
        Ok(()) => println!("\nwrote {}", config.out.display()),
        Err(error) => failures.push(format!("writing {}: {error}", config.out.display())),
    }
    for failure in &failures {
        eprintln!("perf_gate FAILED: {failure}");
    }
    if failures.is_empty() {
        println!("perf_gate passed: every gate holds");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Config, String> {
        parse_args(args.iter().map(|arg| arg.to_string()))
    }

    fn committed(file: &str) -> Json {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file);
        let text = std::fs::read_to_string(&path).expect("committed artifact");
        Json::parse(&text).unwrap_or_else(|error| panic!("{file}: {error}"))
    }

    fn entry(name: &str) -> Entry {
        Entry::new(name, [2.0, 1.0], [10, 10], [5.0, 5.0])
    }

    /// A run of every group in which every gate holds.
    fn passing_run() -> Run {
        let bound = Bound {
            prunings: [3, 3],
            bound_deletions: [7, 7],
            node_budget: 10,
        };
        Run {
            table2: Some(vec![entry("MxM")]),
            table3: Some(vec![entry("MxM")]),
            unsat: Some(vec![entry("php-9")]),
            enumerate: Some(vec![entry("enum-24")]),
            propagation: Some(Propagation {
                variables: 2,
                constraints: 1,
                allowed_pairs: 4,
                kernel_build_ms: 0.1,
                revisions: 800,
                checks: 100,
                batch_ms: vec![1.0; 8],
                bytes_touched: 256 * 800,
                bytes_budget_per_revision: 256,
            }),
            weighted: Some(vec![Entry {
                bound: Some(bound),
                ..entry("noise-18")
            }]),
            service: Some(Service {
                requests: 80,
                wall_ms: 100.0,
                submitted: 80,
                coalesced: 39,
                shed: 60,
                determinism_ok: true,
            }),
            faults: Some(Faults {
                disarmed_ns_per_hit: 1.5,
                ladder_recovery_ms: 1.0,
                ladder_strategy: "heuristic".to_string(),
                ladder_ok: true,
                storm_requests: 8,
                storm_panics: 16,
                no_hung_waiters: true,
            }),
            steals: StealTotals {
                steals: [0, 160],
                splits: [0, 400],
            },
        }
    }

    /// A baseline whose table2 and table3 single-thread walls are 2ms each.
    fn baseline() -> Json {
        Json::parse(
            r#"{"groups": {"table2": [{"wall_ms_1t": 2.0}], "table3": [{"wall_ms_1t": 2.0}]},
                "scaling_speedup": 1.5, "propagation": {"revisions_per_sec": 1000}}"#,
        )
        .expect("valid JSON")
    }

    fn failures(run: &Run, config: &Config, cores: usize) -> Vec<String> {
        let baseline = ("base.json", baseline());
        let mut failures = run.failures();
        failures.extend(summarize(run, Some(&baseline), config, cores).1);
        failures
    }

    #[test]
    fn only_accepts_every_group_and_rejects_unknown_names() {
        for (group, _) in GROUPS {
            let config = parse(&["--only", group]).expect("a known group parses");
            assert_eq!(config.only.as_deref(), Some(group));
        }
        // A typo, a removed group and an empty name must not run zero
        // groups and pass vacuously.
        for unknown in ["large", "tabel2", ""] {
            let error = parse(&["--only", unknown])
                .err()
                .expect("unknown group is rejected");
            assert!(
                GROUPS.iter().all(|(group, _)| error.contains(group)),
                "the error lists every valid group: {error}"
            );
        }
    }

    #[test]
    fn malformed_arguments_are_errors() {
        assert!(parse(&["--only"]).is_err());
        assert!(parse(&["--threads", "four"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        let config = parse(&["--threads", "1", "--no-baseline"]).expect("valid flags parse");
        assert_eq!(config.threads, 2, "at least two workers");
        assert!(config.baseline.is_none());
    }

    #[test]
    fn the_default_output_is_a_temp_file_and_the_wall_margin_is_fixed() {
        let config = parse(&[]).expect("no flags parse");
        assert_eq!(config.out, std::env::temp_dir().join("perf_gate.json"));
        let error = parse(&["--wall-margin", "0.25"])
            .err()
            .expect("--wall-margin is gone");
        assert!(
            error.starts_with("unknown argument \"--wall-margin\""),
            "{error}"
        );

        let config = parse(&["--out", "dir/BENCH_12.json"]).expect("valid flags parse");
        let json = artifact(&config, 1, &Run::default(), Vec::new());
        assert_eq!(json.path("benchmark"), Some(&Json::from("BENCH_12")));
    }

    /// What the string-scanning extractors this reader replaced returned for
    /// each committed artifact: `scaling_speedup`, the table2 + table3
    /// single-thread wall sum and `revisions_per_sec`.
    const COMMITTED: [(&str, f64, f64, Option<f64>); 9] = [
        ("BENCH_2.json", 9.558, 11.781, None),
        ("BENCH_3.json", 18.204, 17.672, None),
        ("BENCH_4.json", 65.942, 5.857, Some(18_287_474.0)),
        ("BENCH_5.json", 0.581, 5.015, Some(18_754_055.0)),
        ("BENCH_6.json", 0.968, 5.005, Some(10_919_714.0)),
        ("BENCH_7.json", 0.92, 5.879, Some(14_884_207.0)),
        ("BENCH_8.json", 0.953, 6.484, Some(36_444_666.0)),
        ("BENCH_9.json", 0.968, 6.501, Some(34_357_255.0)),
        ("BENCH_10.json", 0.906, 6.361, Some(31_484_718.0)),
    ];

    #[test]
    fn the_reader_matches_every_committed_artifact() {
        let config = parse(&[]).expect("no flags parse");
        for (file, speedup, wall_ms, rps) in COMMITTED {
            let baseline = (file, committed(file));
            let (fields, _) = summarize(&passing_run(), Some(&baseline), &config, 1);
            let summary = object(&fields);
            let read = |key| summary.path(key).and_then(Json::as_f64);
            assert_eq!(read("baseline.scaling_speedup"), Some(speedup), "{file}");
            let read_ms = read("baseline.single_thread_wall_ms").expect("table2 and table3");
            assert!((read_ms - wall_ms).abs() < 1e-9, "{file}: {read_ms}");
            assert_eq!(read("baseline.revisions_per_sec"), rps, "{file}");
        }
        let tree = committed("BENCH_10.json");
        assert_eq!(Json::parse(&tree.render()), Ok(tree));
        let awkward = Json::Array(vec![Json::from("a \"quoted\" \\ path\n"), Json::Null]);
        assert_eq!(Json::parse(&awkward.render()), Ok(awkward));
        let error = Json::parse(r#"{"open": [1, 2} and a long tail of text"#).unwrap_err();
        assert_eq!(error, r#"expected ',' or ']' at "} and a long tail of""#);
    }

    #[test]
    fn every_gate_fails_alone_and_names_its_check() {
        type Breaks = fn(&mut Run, &mut Config);
        fn weighted(run: &mut Run) -> &mut Entry {
            &mut run.weighted.as_mut().expect("weighted ran")[0]
        }
        fn bound(run: &mut Run) -> &mut Bound {
            weighted(run).bound.as_mut().expect("weighted entry")
        }
        let cases: [(&str, Breaks); 16] = [
            ("table2 MxM: cost_match", |r, _| {
                r.table2.as_mut().unwrap()[0].cost[1] = 6.0
            }),
            ("table3 MxM: cost_match", |r, _| {
                r.table3.as_mut().unwrap()[0].cost[1] = 6.0
            }),
            ("unsat php-9: cost_match", |r, _| {
                r.unsat.as_mut().unwrap()[0].cost[1] = 6.0
            }),
            ("enumerate enum-24: cost_match", |r, _| {
                r.enumerate.as_mut().unwrap()[0].cost[1] = 6.0
            }),
            ("weighted noise-18: cost_match", |r, _| {
                weighted(r).cost[1] = 6.0
            }),
            ("propagation: bytes_ok", |r, _| {
                r.propagation.as_mut().unwrap().bytes_touched = 257 * 800
            }),
            ("weighted noise-18: nodes_ok", |r, _| {
                weighted(r).nodes = [10, 11]
            }),
            ("weighted noise-18: nodes_ok", |r, _| {
                bound(r).bound_deletions[0] = 0
            }),
            ("steal_telemetry: ok", |r, _| r.steals.steals[0] = 1),
            ("steal_telemetry: ok", |r, _| r.steals.splits[0] = 1),
            ("steal_telemetry: ok", |r, _| r.steals.steals[1] = 0),
            ("service: determinism_ok", |r, _| {
                r.service.as_mut().unwrap().determinism_ok = false
            }),
            ("faults: ladder_ok", |r, _| {
                r.faults.as_mut().unwrap().ladder_ok = false
            }),
            ("faults: no_hung_waiters", |r, _| {
                r.faults.as_mut().unwrap().no_hung_waiters = false
            }),
            // 2ms + 2ms against the baseline's 4ms: 4ms + 25% is the limit.
            ("wall gate", |r, _| {
                r.table2.as_mut().unwrap()[0].wall_ms[0] = 3.1
            }),
            // The aggregate unsat + enumerate speedup is 2.0x.
            ("min speedup", |_, config| config.min_speedup = 2.5),
        ];
        let config = || parse(&["--threads", "4", "--min-speedup", "2.0"]).expect("valid flags");
        assert_eq!(failures(&passing_run(), &config(), 4), Vec::<String>::new());
        for (check, breaks) in cases {
            let (mut run, mut config) = (passing_run(), config());
            breaks(&mut run, &mut config);
            let failures = failures(&run, &config, 4);
            assert!(
                failures.len() == 1 && failures[0].starts_with(check),
                "breaking {check} gave {failures:?}"
            );
        }
        // On fewer cores than workers the speedup is not gated.
        let mut slow = config();
        slow.min_speedup = 2.5;
        assert_eq!(failures(&passing_run(), &slow, 2), Vec::<String>::new());
    }

    #[test]
    fn a_run_without_scaling_groups_records_and_gates_no_speedup() {
        let run = Run {
            table2: Some(vec![entry("MxM")]),
            ..Run::default()
        };
        let config = parse(&["--only", "table2", "--threads", "2", "--min-speedup", "2.0"])
            .expect("valid flags");
        let baseline = ("base.json", baseline());
        let (fields, failures) = summarize(&run, Some(&baseline), &config, 2);
        assert_eq!(failures, Vec::<String>::new());
        let json = artifact(&config, 2, &run, fields);
        assert_eq!(json.path("scaling_speedup"), None);
        assert_eq!(json.path("baseline.scaling_speedup"), None);
    }

    #[test]
    fn the_wall_gate_compares_only_the_table_groups_that_ran() {
        let bench_9 = ("BENCH_9.json", committed("BENCH_9.json"));
        let run = |wall_1t| Run {
            table2: Some(vec![Entry::new("MxM", [wall_1t, 1.0], [1, 1], [1.0, 1.0])]),
            ..Run::default()
        };
        let config = parse(&["--only", "table2"]).expect("valid flags");
        // BENCH_9's table2 alone took 4.508ms (its table3 another 1.993ms),
        // so the limit is 5.635ms, not the two groups' 8.126ms.
        let (fields, failures) = summarize(&run(6.0), Some(&bench_9), &config, 2);
        let summary = object(&fields);
        let read = |key| summary.path(key).and_then(Json::as_f64).expect(key);
        assert!((read("wall_gate.baseline_ms") - 4.508).abs() < 1e-9);
        assert_eq!(read("wall_gate.limit_ms"), 5.635);
        assert!(
            failures.len() == 1 && failures[0].contains("table2 wall 6.00ms"),
            "{failures:?}"
        );
        let (_, failures) = summarize(&run(5.0), Some(&bench_9), &config, 2);
        assert_eq!(failures, Vec::<String>::new());
    }
}
