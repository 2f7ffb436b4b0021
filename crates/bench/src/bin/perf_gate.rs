//! Deterministic perf-gate harness: the parallel schedulers vs. the
//! single-thread baseline, wired into CI.
//!
//! ```text
//! cargo run -p mlo-bench --release --bin perf_gate -- \
//!     [--threads N] [--out BENCH_10.json] [--baseline BENCH_9.json] \
//!     [--min-speedup X] [--wall-margin 0.25] [--no-wall-gate] [--only GROUP]
//! ```
//!
//! `--only GROUP` runs a single group; a name outside [`GROUPS`] is
//! rejected with the list of valid groups and a nonzero exit.
//!
//! Four benchmark groups run **at 1 worker and at N workers with the same
//! fixed seeds**:
//!
//! * `table2` — the paper benchmarks through the `portfolio` strategy
//!   (solution cost = layout quality score),
//! * `table3` — the paper benchmarks through the parallel `weighted`
//!   strategy, evaluated on the simulated DATE'05 machine (solution cost =
//!   simulated cycles),
//! * `unsat` — pigeonhole UNSAT proofs through the work-stealing
//!   scheduler (solution "cost" = nodes visited, which the scheduler's
//!   exact node-disjoint partition keeps *identical* at every worker
//!   count — parallelism-honest work, not a redundant race),
//! * `enumerate` — full solution enumerations of loosely constrained
//!   random networks through the same scheduler (cost = exact solution
//!   count, also thread-count-independent).
//!
//! `unsat` + `enumerate` are the headline scaling workloads: their
//! aggregate wall-clock speedup at N workers is emitted as
//! `scaling_speedup`, and their steal telemetry is audited (**zero**
//! steals single-threaded, **nonzero** steals at N workers — the gate
//! fails if the scheduler stops sharding).
//!
//! A fifth, `propagation`, is the bitset-kernel microbench: steady-state
//! AC-3 revision throughput on the compiled kernel (revisions/second —
//! each revision is one lane-wide AND support sweep of a constraint arc),
//! batched so per-batch wall-clock variance is reported alongside the
//! aggregate, plus the kernel's **bytes-touched-per-revision** audit: the
//! measured bytes per revision must stay within the ceiling the padded
//! lane layout implies (a cache-blocking regression fails the gate even
//! when wall clock hides it).
//!
//! A sixth, `weighted`, is the sharded branch-and-bound scenario:
//! *noise-dominant* planted instances (noise above the planted bonus, so
//! the search is real and the bound has to work) through the
//! work-stealing scheduler's branch and bound, reporting wall clock, node
//! and **bound-prune** counts at 1 and N workers; integer weights keep
//! the optima bit-comparable.  It rides with the incremental-recompilation
//! audit — a `set_weight` must recompile exactly one weight matrix (and
//! zero bit-matrices), a hard-constraint merge must recompile exactly one
//! bit-matrix, and untouched compiled matrices must be reused by pointer.
//! Any audit violation fails the gate.
//!
//! A seventh, `service`, exercises the `mlo-service` front-end: a
//! fixed-seed burst of duplicate-heavy requests through the queued
//! submission path (reporting throughput and the coalescing hit rate), the
//! same burst through a tightly bounded intake (reporting the admission
//! shed count), and a served-vs-direct determinism audit — every report
//! served through the queue must be identical to the direct
//! `Session::optimize` call at the same worker count (the gate fails
//! otherwise).
//!
//! An eighth, `faults`, exercises the fault-injection resilience layer: the
//! disarmed failpoint cost on the hot path, a single injected
//! `engine.solve` panic that must recover through the service's
//! retry/fallback ladder as a degraded report (`ladder_ok`), and an
//! unbounded panic storm in which every waiter must still complete with a
//! typed error (`no_hung_waiters`) — both booleans are hard gates.
//!
//! The weighted group additionally carries a **node-budget gate**: with
//! the weighted bound-consistency propagator (`SoftAc3`) on every search
//! path, each noise instance's node count must stay at or below 25% of
//! its pre-propagation `BENCH_9` baseline, and each instance's
//! single-thread run must report nonzero `bound_deletions` (the propagator
//! actually fired).  The per-instance budget and the `bound_deletions`
//! counters are emitted next to the node counts, and `weighted_nodes_ok`
//! is a hard gate — a propagation regression that re-inflates the tree
//! fails CI even when wall clock hides it.
//!
//! The harness emits `BENCH_10.json` (wall time, nodes explored, solution
//! cost, speedup per entry) and **exits nonzero when any gate fails**: a
//! parallel run's solution cost differing from its single-thread baseline
//! (the determinism contract of `mlo_csp::solver::steal`), or any audit
//! above.  The exit code is the only thing CI gates on.  `--baseline`
//! reads a previous `BENCH_<pr>.json` and embeds the old aggregate scaling
//! speedup — plus the old single-thread table2+table3 wall time — next to
//! the new numbers.  The deferred **wall-clock regression gate** is now
//! on: when the baseline artifact carries a single-thread wall time, this
//! run's table2+table3 single-thread wall clock must stay within
//! `--wall-margin` (default ±25%, the characterized runner noise) of it,
//! or the gate fails (`--no-wall-gate` reverts to trend-tracking only);
//! `--min-speedup` optionally turns the aggregate `scaling_speedup` into a
//! hard failure too — enforced only when the runner actually has
//! `--threads` cores (the emitted `cores` field records what was
//! available; on a smaller machine an exhaustive N-worker run cannot beat
//! 1 worker by physics, and the speedup line measures scheduling overhead
//! instead).

use mlo_benchmarks::Benchmark;
use mlo_core::{Engine, EvaluationOptions, OptimizeRequest, SearchBudget, TextTable};
use mlo_csp::random::{
    pigeonhole_network, planted_weighted_network, satisfiable_network, RandomNetworkSpec,
};
use mlo_csp::solver::{ac3_kernel, Ac3Outcome, SearchStats};
use mlo_csp::{
    bit_constraint_compiles, weight_constraint_compiles, SearchLimits, StealScheduler, WorkerPool,
};
use mlo_layout::quality::assignment_score;
use mlo_service::{MloService, ServiceConfig};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Fixed seed for every request (the gate is meaningless without one).
const SEED: u64 = 0x0DA7_E205;

/// One benchmark measured at 1 and N workers.
struct Entry {
    name: String,
    wall_ms_1t: f64,
    wall_ms_nt: f64,
    nodes_1t: u64,
    nodes_nt: u64,
    cost_1t: f64,
    cost_nt: f64,
}

impl Entry {
    fn speedup(&self) -> f64 {
        if self.wall_ms_nt > 0.0 {
            self.wall_ms_1t / self.wall_ms_nt
        } else {
            1.0
        }
    }

    /// Bit-exact cost parity (all costs here are exact integer sums).
    fn cost_match(&self) -> bool {
        self.cost_1t == self.cost_nt
    }
}

/// Every group `--only` can select, in run order.
const GROUPS: [&str; 8] = [
    "table2",
    "table3",
    "unsat",
    "enumerate",
    "propagation",
    "weighted",
    "service",
    "faults",
];

struct Config {
    threads: usize,
    out: String,
    baseline: Option<String>,
    min_speedup: f64,
    /// Allowed relative wall-clock regression vs the baseline artifact's
    /// single-thread table2+table3 time (0.25 = +25%).
    wall_margin: f64,
    /// Disables the wall-clock regression gate (trend tracking only).
    no_wall_gate: bool,
    only: Option<String>,
}

/// Parses the command line (program name already skipped); an error
/// message means the gate must not run.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Config, String> {
    let mut config = Config {
        threads: 4,
        out: "BENCH_10.json".to_string(),
        baseline: Some("BENCH_9.json".to_string()),
        min_speedup: 0.0,
        wall_margin: 0.25,
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
            "--wall-margin" => config.wall_margin = flag_value(&mut args, "--wall-margin")?,
            "--no-wall-gate" => config.no_wall_gate = true,
            "--only" => {
                let group: String = flag_value(&mut args, "--only")?;
                if !GROUPS.contains(&group.as_str()) {
                    return Err(format!(
                        "unknown group {group:?} for --only (valid groups: {})",
                        GROUPS.join(", ")
                    ));
                }
                config.only = Some(group);
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?} \
                     (try --threads/--out/--baseline/--no-baseline/--min-speedup/\
                     --wall-margin/--no-wall-gate/--only)"
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

/// Pulls one top-level numeric field out of a previous `BENCH_<pr>.json`.
/// The *last* occurrence wins: `BENCH_3`-style files repeat the key inside
/// their nested `"baseline"` object, which the emitter always writes
/// before the top-level field.
fn extract_json_number(json: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let position = json.rfind(&marker)? + marker.len();
    let rest = json[position..].trim_start();
    let end = rest
        .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Sums every `"wall_ms_1t"` value inside one `"<group>": [...]` section of
/// a previous `BENCH_<pr>.json` — the single-thread wall-clock aggregate
/// the kernel refactor is measured against.
fn extract_group_wall_1t_sum(json: &str, group: &str) -> Option<f64> {
    let start = json.find(&format!("\"{group}\": ["))?;
    let section = &json[start..];
    let section = &section[..section.find(']')?];
    let marker = "\"wall_ms_1t\":";
    let mut sum = 0.0;
    let mut found = false;
    let mut rest = section;
    while let Some(position) = rest.find(marker) {
        let tail = rest[position + marker.len()..].trim_start();
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        if let Ok(value) = tail[..end].trim().parse::<f64>() {
            sum += value;
            found = true;
        }
        rest = &tail[end..];
    }
    found.then_some(sum)
}

/// Runs one engine request and pulls out (wall ms, nodes, cost).
fn measure_request(
    session: &mlo_core::Session,
    program: &mlo_ir::Program,
    request: &OptimizeRequest,
    cycles_as_cost: bool,
) -> (f64, u64, f64) {
    let report = session
        .optimize(program, request)
        .expect("perf-gate requests use the heuristic fallback policy");
    let nodes = report.search_stats.map(|s| s.nodes_visited).unwrap_or(0);
    let cost = if cycles_as_cost {
        report
            .evaluation
            .as_ref()
            .expect("evaluation requested")
            .total_cycles as f64
    } else {
        assignment_score(program, &report.assignment) as f64
    };
    (report.solution_time.as_secs_f64() * 1e3, nodes, cost)
}

/// table2/table3: the paper benchmarks through a strategy at 1 vs N workers.
fn engine_group(threads: usize, strategy: &str, cycles_as_cost: bool) -> Vec<Entry> {
    let engine = Engine::builder().parallelism(threads).build();
    let session = engine.session();
    Benchmark::all()
        .into_iter()
        .map(|benchmark| {
            let program = benchmark.program();
            // Pre-build the cached network so both runs time pure search.
            session
                .prepared(&program, &benchmark.candidate_options())
                .network(&program);
            let mut request = OptimizeRequest::strategy(strategy)
                .candidates(benchmark.candidate_options())
                .seed(SEED);
            if cycles_as_cost {
                // Sub-sampled traces: the evaluation stays deterministic
                // (and comparable across thread counts) but the whole group
                // runs in seconds instead of minutes on one CI core.
                let trace = mlo_cachesim::TraceOptions {
                    max_trip_per_loop: 24,
                    ..mlo_cachesim::TraceOptions::default()
                };
                request = request.evaluate(EvaluationOptions::date05().trace(trace));
            }
            let (wall_ms_1t, nodes_1t, cost_1t) = measure_request(
                &session,
                &program,
                &request.clone().with_budget(SearchBudget::new().workers(1)),
                cycles_as_cost,
            );
            let (wall_ms_nt, nodes_nt, cost_nt) = measure_request(
                &session,
                &program,
                &request
                    .clone()
                    .with_budget(SearchBudget::new().workers(threads)),
                cycles_as_cost,
            );
            Entry {
                name: benchmark.name().to_string(),
                wall_ms_1t,
                wall_ms_nt,
                nodes_1t,
                nodes_nt,
                cost_1t,
                cost_nt,
            }
        })
        .collect()
}

/// Steal/split counters summed across a group's single-thread and
/// N-worker passes — the telemetry the gate audits (a single-thread run
/// must never steal; an N-worker run on proof-sized trees must).
#[derive(Default)]
struct StealTotals {
    steals_1t: u64,
    steals_nt: u64,
    splits_1t: u64,
    splits_nt: u64,
}

impl StealTotals {
    fn absorb_1t(&mut self, telemetry: &mlo_csp::StealReport) {
        self.steals_1t += telemetry.steals;
        self.splits_1t += telemetry.splits;
    }

    fn absorb_nt(&mut self, telemetry: &mlo_csp::StealReport) {
        self.steals_nt += telemetry.steals;
        self.splits_nt += telemetry.splits;
    }
}

/// unsat: pigeonhole UNSAT proofs through the work-stealing scheduler.
///
/// `PHP(n+1, n)` refutation trees have no lucky exits — every node must be
/// visited — so this is the workload a redundant portfolio race cannot
/// speed up at all (every racer walks the whole tree) and dynamic tree
/// sharding speeds up almost linearly.  The scheduler's per-node work is a
/// pure function of the path, so the frames partition the tree *exactly*:
/// the entry's cost is the node count, and cost parity doubles as the
/// partition audit (1-worker and N-worker proofs must visit the identical
/// node total).
fn unsat_group(threads: usize, pool: &Arc<WorkerPool>, totals: &mut StealTotals) -> Vec<Entry> {
    [("php-9", 9usize), ("php-10", 10)]
        .into_iter()
        .map(|(name, holes)| {
            let network = pigeonhole_network(holes);
            let limits = SearchLimits::none();

            let start = Instant::now();
            let baseline = StealScheduler::new().solve_detailed(&network, &limits, None);
            let wall_ms_1t = start.elapsed().as_secs_f64() * 1e3;

            let start = Instant::now();
            let parallel = StealScheduler::new()
                .with_pool(Arc::clone(pool))
                .parallelism(threads)
                .solve_detailed(&network, &limits, None);
            let wall_ms_nt = start.elapsed().as_secs_f64() * 1e3;

            assert!(
                baseline.result.proves_unsatisfiable() && parallel.result.proves_unsatisfiable(),
                "pigeonhole proofs must complete"
            );
            totals.absorb_1t(&baseline.telemetry);
            totals.absorb_nt(&parallel.telemetry);
            Entry {
                name: name.to_string(),
                wall_ms_1t,
                wall_ms_nt,
                nodes_1t: baseline.result.stats.nodes_visited,
                nodes_nt: parallel.result.stats.nodes_visited,
                cost_1t: baseline.result.stats.nodes_visited as f64,
                cost_nt: parallel.result.stats.nodes_visited as f64,
            }
        })
        .collect()
}

/// enumerate: exact full-solution counts of loosely constrained random
/// networks through the work-stealing scheduler.
///
/// Like UNSAT proofs, exhaustive enumeration has no early exit, so the
/// speedup measures honest tree sharding; the exact count is the entry's
/// cost and must be identical at every worker count.
fn enumerate_group(threads: usize, pool: &Arc<WorkerPool>, totals: &mut StealTotals) -> Vec<Entry> {
    let specs = [
        (
            "enum-24",
            RandomNetworkSpec {
                variables: 24,
                domain_size: 4,
                density: 0.28,
                tightness: 0.22,
                seed: 15_2026,
            },
        ),
        (
            "enum-26",
            RandomNetworkSpec {
                variables: 26,
                domain_size: 4,
                density: 0.28,
                tightness: 0.24,
                seed: 16_2026,
            },
        ),
    ];
    specs
        .into_iter()
        .map(|(name, spec)| {
            // Planted-satisfiable: the enumeration has at least one
            // solution, and the count is the instance's exact model count.
            let (network, _) = satisfiable_network(&spec);
            let limits = SearchLimits::none();

            let start = Instant::now();
            let baseline = StealScheduler::new().count_detailed(&network, &limits, None);
            let wall_ms_1t = start.elapsed().as_secs_f64() * 1e3;

            let start = Instant::now();
            let parallel = StealScheduler::new()
                .with_pool(Arc::clone(pool))
                .parallelism(threads)
                .count_detailed(&network, &limits, None);
            let wall_ms_nt = start.elapsed().as_secs_f64() * 1e3;

            assert!(
                baseline.is_exact() && parallel.is_exact(),
                "enumeration runs must complete"
            );
            totals.absorb_1t(&baseline.telemetry);
            totals.absorb_nt(&parallel.telemetry);
            Entry {
                name: name.to_string(),
                wall_ms_1t,
                wall_ms_nt,
                nodes_1t: baseline.stats.nodes_visited,
                nodes_nt: parallel.stats.nodes_visited,
                cost_1t: baseline.solutions as f64,
                cost_nt: parallel.solutions as f64,
            }
        })
        .collect()
}

/// Metrics of the `propagation` bitset-kernel microbench.
struct Propagation {
    variables: usize,
    constraints: usize,
    allowed_pairs: usize,
    /// Cold kernel-compilation time (bit-matrices + support counts).
    kernel_build_ms: f64,
    /// Full AC-3 passes measured at the arc-consistency fixpoint.
    ac3_runs: usize,
    /// Arc revisions performed (exactly `2 × constraints` per run at the
    /// fixpoint — nothing is removed, so nothing is re-queued).
    revisions: u64,
    ac3_total_ms: f64,
    revisions_per_sec: f64,
    checks_per_sec: f64,
    /// Fixpoint passes per timed batch (the runs are batched so the gate
    /// can report per-batch variance, not just the aggregate).
    batch_runs: usize,
    /// Wall-clock milliseconds of each batch.
    batch_ms: Vec<f64>,
    /// Relative standard deviation of the per-batch walls (std / mean).
    batch_rel_std: f64,
    /// Bytes the kernel touched across all timed revisions (live spans +
    /// probed rows, as accounted by `SearchStats::bytes_touched`).
    bytes_touched: u64,
    /// `bytes_touched / revisions`.
    bytes_per_revision: f64,
    /// The ceiling the padded lane layout implies for one revision of this
    /// network (worst directed arc, every live row probed).
    bytes_budget_per_revision: u64,
    /// Whether the measured bytes per revision stayed within the budget —
    /// the cache-blocking regression gate.
    bytes_ok: bool,
}

/// The propagation-throughput scenario: steady-state AC-3 revisions per
/// second on the compiled kernel.
fn propagation_group() -> Propagation {
    let spec = RandomNetworkSpec {
        variables: 100,
        domain_size: 6,
        density: 0.4,
        tightness: 0.25,
        seed: 6_2025,
    };
    let (weighted, _) = planted_weighted_network(&spec, 80.0, 8);
    let network = weighted.network();
    let constraints = network.constraint_count();
    let allowed_pairs: usize = network.constraints().iter().map(|c| c.pair_count()).sum();

    // Cold kernel compile (the once-per-storage cost every solve amortizes).
    let start = Instant::now();
    let kernel = Arc::clone(network.kernel());
    let kernel_build_ms = start.elapsed().as_secs_f64() * 1e3;

    // Drive AC-3 to its fixpoint once; at the fixpoint each subsequent run
    // performs exactly 2 revisions per constraint (no removals, no
    // re-queues), so revisions/sec is an exact steady-state measure.
    let mut warm = kernel.full_domains();
    let mut warm_stats = SearchStats::default();
    let outcome = ac3_kernel(&kernel, &mut warm, &mut warm_stats);
    assert!(
        matches!(outcome, Ac3Outcome::Consistent),
        "the propagation instance must be satisfiable at the fixpoint"
    );
    const RUNS: usize = 400;
    const BATCHES: usize = 8;
    const BATCH_RUNS: usize = RUNS / BATCHES;
    let mut total_checks = 0u64;
    let mut bytes_touched = 0u64;
    let mut batch_ms = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..BATCH_RUNS {
            let mut live = warm.clone();
            let mut stats = SearchStats::default();
            let outcome = ac3_kernel(&kernel, &mut live, &mut stats);
            assert!(matches!(outcome, Ac3Outcome::Consistent));
            total_checks += stats.consistency_checks;
            bytes_touched += stats.bytes_touched;
        }
        batch_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let ac3_total_ms: f64 = batch_ms.iter().sum();
    let batch_mean = ac3_total_ms / BATCHES as f64;
    let batch_var = batch_ms
        .iter()
        .map(|&ms| (ms - batch_mean) * (ms - batch_mean))
        .sum::<f64>()
        / BATCHES as f64;
    let batch_rel_std = batch_var.sqrt() / batch_mean.max(1e-9);
    let revisions = (2 * constraints * RUNS) as u64;
    let seconds = (ac3_total_ms / 1e3).max(1e-9);

    // The padded lane layout bounds what one revision may touch: the
    // worst directed arc (x revised against y) reads both live spans and,
    // on the block-major path, at most one lane-padded row per live value
    // of x.  Staying under this ceiling is the cache-blocking contract —
    // a layout regression (unpadded strides, scattered rows, re-scanned
    // partners) blows it even when wall clock hides the miss cost.
    let padded_words = |size: usize| size.div_ceil(64).next_multiple_of(4).max(4) as u64;
    let bytes_budget_per_revision = (0..constraints)
        .map(|ci| {
            let c = kernel.constraint(ci);
            let (first, second) = (
                kernel.domain_size(c.first()) as u64,
                kernel.domain_size(c.second()) as u64,
            );
            let (pf, ps) = (padded_words(first as usize), padded_words(second as usize));
            // Both arc directions: revise first-against-second and back.
            8 * (pf + ps + first * ps).max(ps + pf + second * pf)
        })
        .max()
        .unwrap_or(0);
    let bytes_per_revision = bytes_touched as f64 / revisions.max(1) as f64;
    let bytes_ok = bytes_touched > 0 && bytes_per_revision <= bytes_budget_per_revision as f64;

    Propagation {
        variables: spec.variables,
        constraints,
        allowed_pairs,
        kernel_build_ms,
        ac3_runs: RUNS,
        revisions,
        ac3_total_ms,
        revisions_per_sec: revisions as f64 / seconds,
        checks_per_sec: total_checks as f64 / seconds,
        batch_runs: BATCH_RUNS,
        batch_ms,
        batch_rel_std,
        bytes_touched,
        bytes_per_revision,
        bytes_budget_per_revision,
        bytes_ok,
    }
}

/// One weighted branch-and-bound instance measured at 1 and N workers,
/// with bound-prune counts (the weighted kernel's effectiveness metric).
struct WeightedEntry {
    name: String,
    wall_ms_1t: f64,
    wall_ms_nt: f64,
    nodes_1t: u64,
    nodes_nt: u64,
    prunings_1t: u64,
    prunings_nt: u64,
    bound_deletions_1t: u64,
    bound_deletions_nt: u64,
    /// Hard ceiling on the instance's node counts: 25% of the node count
    /// the same seed produced in `BENCH_9`, before the weighted
    /// bound-consistency propagator existed.
    node_budget: u64,
    cost_1t: f64,
    cost_nt: f64,
}

impl WeightedEntry {
    fn speedup(&self) -> f64 {
        if self.wall_ms_nt > 0.0 {
            self.wall_ms_1t / self.wall_ms_nt
        } else {
            1.0
        }
    }

    fn cost_match(&self) -> bool {
        self.cost_1t == self.cost_nt
    }

    /// The node-budget gate: both the single-thread and the N-worker run
    /// must stay within the propagation budget, and the single-thread run
    /// must show the propagator fired (nonzero bound deletions).
    fn nodes_ok(&self) -> bool {
        self.nodes_1t <= self.node_budget
            && self.nodes_nt <= self.node_budget
            && self.bound_deletions_1t > 0
    }
}

/// The incremental-recompilation audit of the weighted kernel: exact
/// per-constraint compile counts around a `set_weight` patch and a
/// hard-constraint merge (measured single-threaded via the process-wide
/// compile counters) and pointer-reuse checks for every untouched compiled
/// matrix.
struct WeightedAudit {
    /// Weight matrices recompiled by one `set_weight` (must be exactly 1).
    weight_recompiles_on_set_weight: u64,
    /// Bit matrices recompiled by that same `set_weight` (must be 0).
    bit_recompiles_on_set_weight: u64,
    /// Bit matrices recompiled by one hard-constraint merge (must be 1).
    bit_recompiles_on_merge: u64,
    /// Every untouched compiled matrix (bit and weight) reused by pointer.
    untouched_matrices_reused: bool,
    ok: bool,
}

/// weighted: *noise-dominant* planted branch-and-bound instances (random
/// noise above the planted bonus, so the weight-ordered value loop cannot
/// shortcut the search and the bound has to work) through the
/// work-stealing scheduler's sharded branch and bound at fixed seeds.
/// Integer weights keep every weight sum exact, so cost parity is
/// bit-exact, and the strict-< incumbent contract makes the reported
/// optimum thread-count-independent.
///
/// Historical note: through `BENCH_5` this group ran *planted-dominant*
/// instances through the cooperative portfolio, which the dense weight
/// kernel's value ordering had already collapsed to microsecond node
/// counts; the noise-dominant rebuild restores a workload with real
/// search in it.
fn weighted_group(
    threads: usize,
    pool: &Arc<WorkerPool>,
    totals: &mut StealTotals,
) -> Vec<WeightedEntry> {
    // Budgets are 25% of each instance's BENCH_9 single-thread node count
    // (391_608 / 1_324_312 / 36_965_312) — the hard ceiling the weighted
    // bound-consistency propagator must hold the tree under.
    let specs = [
        (
            "noise-18",
            97_902u64,
            RandomNetworkSpec {
                variables: 18,
                domain_size: 4,
                density: 0.5,
                tightness: 0.15,
                seed: 17_2026,
            },
        ),
        (
            "noise-20",
            331_078,
            RandomNetworkSpec {
                variables: 20,
                domain_size: 4,
                density: 0.45,
                tightness: 0.15,
                seed: 18_2026,
            },
        ),
        (
            "noise-22",
            9_241_328,
            RandomNetworkSpec {
                variables: 22,
                domain_size: 4,
                density: 0.45,
                tightness: 0.12,
                seed: 19_2026,
            },
        ),
    ];
    specs
        .into_iter()
        .map(|(name, node_budget, spec)| {
            // Bonus far below the noise ceiling: the planted assignment is
            // *not* the optimum and the bound must close the whole tree.
            let (weighted, _) = planted_weighted_network(&spec, 4.0, 12);
            let limits = SearchLimits::none();

            let start = Instant::now();
            let baseline = StealScheduler::new().optimize_detailed(&weighted, &limits, None);
            let wall_ms_1t = start.elapsed().as_secs_f64() * 1e3;

            let start = Instant::now();
            let parallel = StealScheduler::new()
                .with_pool(Arc::clone(pool))
                .parallelism(threads)
                .optimize_detailed(&weighted, &limits, None);
            let wall_ms_nt = start.elapsed().as_secs_f64() * 1e3;

            assert!(
                baseline.optimal && parallel.optimal,
                "weighted runs must complete"
            );
            totals.absorb_1t(&baseline.telemetry);
            totals.absorb_nt(&parallel.telemetry);
            WeightedEntry {
                name: name.to_string(),
                wall_ms_1t,
                wall_ms_nt,
                nodes_1t: baseline.result.stats.nodes_visited,
                nodes_nt: parallel.result.stats.nodes_visited,
                prunings_1t: baseline.result.stats.prunings,
                prunings_nt: parallel.result.stats.prunings,
                bound_deletions_1t: baseline.result.stats.bound_deletions,
                bound_deletions_nt: parallel.result.stats.bound_deletions,
                node_budget,
                cost_1t: baseline.canonical_weight.expect("satisfiable"),
                cost_nt: parallel.canonical_weight.expect("satisfiable"),
            }
        })
        .collect()
}

/// Results of the `service` group: queued throughput, coalescing,
/// admission shedding and the served-vs-direct determinism audit.
struct ServiceGroup {
    /// Requests pushed through the unbounded throughput burst.
    requests: u64,
    /// Wall clock of the whole burst (submit + drain).
    wall_ms: f64,
    /// Completed requests per second over the burst.
    throughput_rps: f64,
    /// Submissions the burst service accepted (coalesced hits included).
    submitted: u64,
    /// Burst submissions that coalesced onto an in-flight solve.
    coalesced: u64,
    /// `coalesced / submitted` over the burst.
    coalesce_hit_rate: f64,
    /// Submissions shed by the tightly bounded intake run.
    shed: u64,
    /// Whether every served report matched its direct session call.
    determinism_ok: bool,
}

/// One fixed-seed duplicate-heavy burst: every paper benchmark × 8 seeds,
/// each `(program, request)` pair submitted twice back-to-back.
fn service_burst(service: &MloService) -> (u64, f64) {
    let programs: Vec<_> = Benchmark::all().iter().map(|b| b.program()).collect();
    let mut handles = Vec::new();
    let started = Instant::now();
    for seed in 0..8u64 {
        for program in &programs {
            let request = OptimizeRequest::strategy("enhanced").seed(SEED ^ seed);
            for _ in 0..2 {
                // A bounded intake may shed the submission; that's counted
                // by the service stats rather than treated as a failure.
                if let Ok(handle) = service.submit(program, &request) {
                    handles.push(handle);
                }
            }
        }
    }
    let accepted = handles.len() as u64;
    for handle in &handles {
        assert!(
            handle.wait().is_ok(),
            "a burst request failed to solve (service group)"
        );
    }
    (accepted, started.elapsed().as_secs_f64() * 1e3)
}

fn service_group(threads: usize) -> ServiceGroup {
    // Determinism audit: the queued path must reproduce the direct
    // session's reports bit-for-bit at this worker count.
    let engine = Engine::builder().parallelism(threads).build();
    let session = engine.session();
    let service = MloService::new(engine.session(), ServiceConfig::new().queue_limit(0));
    let mut determinism_ok = true;
    for benchmark in Benchmark::all() {
        let program = benchmark.program();
        for strategy in ["enhanced", "weighted", "portfolio-steal"] {
            let request = OptimizeRequest::strategy(strategy).seed(SEED);
            let direct = session
                .optimize(&program, &request)
                .expect("direct solve succeeds");
            let served = service
                .submit(&program, &request)
                .expect("unbounded admission")
                .wait();
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

    // Queued throughput with duplicate bursts through an unbounded intake:
    // duplicates of an in-flight request coalesce instead of re-solving.
    let burst_engine = Engine::builder().parallelism(threads).build();
    let burst = MloService::new(burst_engine.session(), ServiceConfig::new().queue_limit(0));
    let (requests, wall_ms) = service_burst(&burst);
    let stats = burst.stats();
    let throughput_rps = if wall_ms > 0.0 {
        requests as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    let coalesce_hit_rate = if stats.submitted > 0 {
        stats.coalesced as f64 / stats.submitted as f64
    } else {
        0.0
    };

    // The same burst against a tightly bounded intake: admission control
    // must shed instead of queueing without bound.
    let bounded_engine = Engine::builder().parallelism(threads).build();
    let bounded = MloService::new(
        bounded_engine.session(),
        ServiceConfig::new().queue_limit(4),
    );
    let _ = service_burst(&bounded);
    let shed = bounded.stats().shed;

    ServiceGroup {
        requests,
        wall_ms,
        throughput_rps,
        submitted: stats.submitted,
        coalesced: stats.coalesced,
        coalesce_hit_rate,
        shed,
        determinism_ok,
    }
}

fn print_service(service: &Option<ServiceGroup>) {
    let Some(s) = service else { return };
    println!("\nservice — queued front-end over the session pool");
    println!(
        "  burst: {} accepted requests in {:.2}ms -> {:.0} req/s",
        s.requests, s.wall_ms, s.throughput_rps
    );
    println!(
        "  coalescing: {} of {} submissions hit an in-flight solve ({:.0}%)",
        s.coalesced,
        s.submitted,
        s.coalesce_hit_rate * 100.0
    );
    println!(
        "  admission: {} submissions shed under a 4-deep intake bound",
        s.shed
    );
    println!(
        "  served reports identical to direct session calls: {}",
        if s.determinism_ok {
            "yes"
        } else {
            "NO (VIOLATED)"
        }
    );
}

/// Results of the `faults` group: the resilience layer exercised under
/// scoped fault-injection plans (see `mlo_csp::fault`).
struct FaultsGroup {
    /// Disarmed `fail_point!` cost on the hot path, in nanoseconds per
    /// hit — the zero-cost-when-disabled contract, trend-tracked.
    disarmed_ns_per_hit: f64,
    /// Wall clock of the single-fault ladder recovery below.
    ladder_recovery_ms: f64,
    /// The strategy that served the recovered request.
    ladder_strategy: String,
    /// One injected `engine.solve` panic: the ladder must recover with a
    /// degraded report from a healthy fallback rung.
    ladder_ok: bool,
    /// Requests submitted into the unbounded-panic storm.
    storm_requests: u64,
    /// Strategy panics the resilience layer contained during the storm.
    storm_panics: u64,
    /// Every storm waiter completed with a typed outcome — no `wait()`
    /// ever hung on a panicked solve.
    no_hung_waiters: bool,
}

/// The resilience scenario: deterministic fault plans through the queued
/// service.  One bounded `engine.solve` panic must recover through the
/// retry/fallback ladder; an unbounded panic plan (every rung of every
/// request dies) must still complete every waiter with a typed error.
fn faults_group(threads: usize) -> FaultsGroup {
    use mlo_csp::fault::{self, FaultPlan, FaultTrigger};

    // Disarmed failpoint overhead: the macro must stay a single relaxed
    // atomic load when no plan is armed (the propagation group's wall and
    // bytes gates already prove the hot loop didn't regress; this number
    // tracks the raw per-hit cost).
    let _clean = fault::scoped(FaultPlan::new());
    drop(_clean);
    const HITS: u32 = 1_000_000;
    let start = Instant::now();
    for _ in 0..HITS {
        std::hint::black_box(fault::hit(std::hint::black_box("perf.probe")));
    }
    let disarmed_ns_per_hit = start.elapsed().as_secs_f64() * 1e9 / f64::from(HITS);

    // Ladder recovery: exactly one injected panic, then a healthy rung.
    let program = Benchmark::MxM.program();
    let (ladder_ok, ladder_strategy, ladder_recovery_ms) = {
        let _plan =
            fault::scoped(FaultPlan::new().with("engine.solve", FaultTrigger::panic().times(1)));
        let engine = Engine::builder().parallelism(threads).build();
        let service = MloService::new(engine.session(), ServiceConfig::new());
        let start = Instant::now();
        let outcome = service
            .submit(&program, &OptimizeRequest::strategy("enhanced").seed(SEED))
            .expect("unbounded admission")
            .wait_timeout(std::time::Duration::from_secs(60));
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        match outcome.as_deref() {
            Some(Ok(report)) => (
                report.degraded && service.stats().panicked == 1,
                report.strategy.clone(),
                wall_ms,
            ),
            _ => (false, String::new(), wall_ms),
        }
    };

    // Panic storm: every rung of every request panics; each waiter must
    // still observe a typed error within the timeout.
    const STORM: u64 = 8;
    let (storm_panics, no_hung_waiters) = {
        let _plan = fault::scoped(FaultPlan::new().with("engine.solve", FaultTrigger::panic()));
        let engine = Engine::builder().parallelism(threads).build();
        let service = MloService::new(engine.session(), ServiceConfig::new());
        let handles: Vec<_> = (0..STORM)
            .map(|seed| {
                service
                    .submit(
                        &program,
                        &OptimizeRequest::strategy("enhanced").seed(SEED ^ seed),
                    )
                    .expect("unbounded admission")
            })
            .collect();
        let all_typed = handles.iter().all(|handle| {
            matches!(
                handle
                    .wait_timeout(std::time::Duration::from_secs(60))
                    .as_deref(),
                Some(Err(_))
            )
        });
        (service.stats().panicked, all_typed)
    };

    FaultsGroup {
        disarmed_ns_per_hit,
        ladder_recovery_ms,
        ladder_strategy,
        ladder_ok,
        storm_requests: STORM,
        storm_panics,
        no_hung_waiters,
    }
}

fn print_faults(faults: &Option<FaultsGroup>) {
    let Some(f) = faults else { return };
    println!("\nfaults — deterministic fault injection through the resilience layer");
    println!(
        "  disarmed failpoint: {:.1}ns/hit on the hot path",
        f.disarmed_ns_per_hit
    );
    println!(
        "  ladder: one injected engine.solve panic recovered by `{}` in {:.2}ms -> {}",
        f.ladder_strategy,
        f.ladder_recovery_ms,
        if f.ladder_ok { "ok" } else { "VIOLATED" }
    );
    println!(
        "  storm: {} requests under an unbounded panic plan, {} contained panics, \
         hung waiters: {}",
        f.storm_requests,
        f.storm_panics,
        if f.no_hung_waiters {
            "none (ok)"
        } else {
            "SOME (VIOLATED)"
        }
    );
}

/// Runs the incremental-recompilation audit (see [`WeightedAudit`]).  Must
/// run while no other thread is compiling kernels: the compile counters are
/// process-wide.
fn weighted_audit() -> WeightedAudit {
    let spec = RandomNetworkSpec {
        variables: 40,
        domain_size: 5,
        density: 0.4,
        tightness: 0.25,
        seed: 14_2025,
    };
    let (weighted, _) = planted_weighted_network(&spec, 60.0, 8);
    let network = weighted.network().clone();
    let constraints = network.constraint_count();
    assert!(constraints > 1, "the audit needs untouched constraints");
    // Force both compiled kernels before measuring.
    let bit_kernel = Arc::clone(network.kernel());
    let weight_kernel = Arc::clone(weighted.weight_kernel());
    let mut untouched_matrices_reused = true;

    // 1. A set_weight patch: exactly one weight matrix recompiled, zero
    //    bit matrices, every other compiled weight matrix reused.
    let c0 = network.constraint(0);
    let pair = c0
        .allowed_pairs()
        .iter()
        .copied()
        .min()
        .expect("constraints of planted networks allow pairs");
    let (va, vb) = (
        *network.domain(c0.first()).value(pair.0),
        *network.domain(c0.second()).value(pair.1),
    );
    let mut patched = weighted.clone();
    let bits_before = bit_constraint_compiles();
    let weights_before = weight_constraint_compiles();
    patched
        .set_weight(c0.first(), c0.second(), &va, &vb, 999.0)
        .expect("pair comes from the network itself");
    let weight_recompiles_on_set_weight = weight_constraint_compiles() - weights_before;
    let bit_recompiles_on_set_weight = bit_constraint_compiles() - bits_before;
    let patched_kernel = patched.weight_kernel();
    untouched_matrices_reused &= !Arc::ptr_eq(
        weight_kernel.constraint_handle(0),
        patched_kernel.constraint_handle(0),
    );
    for ci in 1..constraints {
        untouched_matrices_reused &= Arc::ptr_eq(
            weight_kernel.constraint_handle(ci),
            patched_kernel.constraint_handle(ci),
        );
    }

    // 2. A hard-constraint merge: exactly one bit matrix recompiled, every
    //    other compiled bit matrix reused.
    let mut fork = network.clone();
    let bits_before = bit_constraint_compiles();
    let mut extra = HashSet::new();
    extra.insert(pair);
    fork.add_constraint_by_index(c0.first(), c0.second(), extra)
        .expect("merging into an existing constraint");
    let bit_recompiles_on_merge = bit_constraint_compiles() - bits_before;
    let fork_kernel = fork.kernel();
    untouched_matrices_reused &= !Arc::ptr_eq(
        bit_kernel.constraint_handle(0),
        fork_kernel.constraint_handle(0),
    );
    for ci in 1..constraints {
        untouched_matrices_reused &= Arc::ptr_eq(
            bit_kernel.constraint_handle(ci),
            fork_kernel.constraint_handle(ci),
        );
    }

    let ok = weight_recompiles_on_set_weight == 1
        && bit_recompiles_on_set_weight == 0
        && bit_recompiles_on_merge == 1
        && untouched_matrices_reused;
    WeightedAudit {
        weight_recompiles_on_set_weight,
        bit_recompiles_on_set_weight,
        bit_recompiles_on_merge,
        untouched_matrices_reused,
        ok,
    }
}

fn print_weighted(entries: &[WeightedEntry], audit: &Option<WeightedAudit>) {
    if !entries.is_empty() {
        println!("\nweighted — dense weight-kernel branch and bound (cost = solution weight)");
        let mut table = TextTable::new(vec![
            "Instance",
            "Wall 1t",
            "Wall Nt",
            "Nodes 1t",
            "Nodes Nt",
            "Node budget",
            "Deletions 1t",
            "Deletions Nt",
            "Speedup",
            "Cost parity",
        ]);
        for e in entries {
            table.row(vec![
                e.name.clone(),
                format!("{:.2}ms", e.wall_ms_1t),
                format!("{:.2}ms", e.wall_ms_nt),
                e.nodes_1t.to_string(),
                e.nodes_nt.to_string(),
                format!(
                    "{} ({})",
                    e.node_budget,
                    if e.nodes_ok() { "ok" } else { "OVER" }
                ),
                e.bound_deletions_1t.to_string(),
                e.bound_deletions_nt.to_string(),
                format!("{:.2}x", e.speedup()),
                if e.cost_match() { "ok" } else { "MISMATCH" }.to_string(),
            ]);
        }
        println!("{table}");
    }
    if let Some(a) = audit {
        println!("  incremental-recompile audit:");
        println!(
            "    set_weight: {} weight matrix recompiled (want 1), {} bit matrices (want 0)",
            a.weight_recompiles_on_set_weight, a.bit_recompiles_on_set_weight
        );
        println!(
            "    constraint merge: {} bit matrix recompiled (want 1)",
            a.bit_recompiles_on_merge
        );
        println!(
            "    untouched matrices reused: {}",
            a.untouched_matrices_reused
        );
        println!("    audit: {}", if a.ok { "ok" } else { "VIOLATED" });
    }
}

fn print_propagation(propagation: &Option<Propagation>) {
    let Some(p) = propagation else { return };
    println!("\npropagation — bitset kernel microbench");
    println!(
        "  instance: {} vars, {} constraints, {} allowed pairs (kernel compiled in {:.2}ms)",
        p.variables, p.constraints, p.allowed_pairs, p.kernel_build_ms
    );
    println!(
        "  ac3: {} fixpoint passes, {} revisions in {:.1}ms -> {:.2}M revisions/s \
         ({:.1}M checks/s)",
        p.ac3_runs,
        p.revisions,
        p.ac3_total_ms,
        p.revisions_per_sec / 1e6,
        p.checks_per_sec / 1e6,
    );
    println!(
        "  batches: {} x {} passes, walls {:?} ms, rel std {:.1}%",
        p.batch_ms.len(),
        p.batch_runs,
        p.batch_ms
            .iter()
            .map(|ms| (ms * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
        p.batch_rel_std * 100.0,
    );
    println!(
        "  bytes touched: {} total, {:.1}/revision (lane-layout budget {}) -> {}",
        p.bytes_touched,
        p.bytes_per_revision,
        p.bytes_budget_per_revision,
        if p.bytes_ok { "ok" } else { "VIOLATED" }
    );
}

fn json_entries(buffer: &mut String, entries: &[Entry]) {
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        writeln!(
            buffer,
            "      {{\"name\": \"{}\", \"wall_ms_1t\": {:.3}, \"wall_ms_nt\": {:.3}, \
             \"nodes_1t\": {}, \"nodes_nt\": {}, \"cost_1t\": {}, \"cost_nt\": {}, \
             \"speedup\": {:.3}, \"cost_match\": {}}}{comma}",
            e.name,
            e.wall_ms_1t,
            e.wall_ms_nt,
            e.nodes_1t,
            e.nodes_nt,
            e.cost_1t,
            e.cost_nt,
            e.speedup(),
            e.cost_match(),
        )
        .expect("writing to a String");
    }
}

fn print_group(title: &str, entries: &[Entry]) {
    println!("\n{title}");
    let mut table = TextTable::new(vec![
        "Benchmark",
        "Wall 1t",
        "Wall Nt",
        "Nodes 1t",
        "Nodes Nt",
        "Cost 1t",
        "Cost Nt",
        "Speedup",
        "Cost parity",
    ]);
    for e in entries {
        table.row(vec![
            e.name.clone(),
            format!("{:.2}ms", e.wall_ms_1t),
            format!("{:.2}ms", e.wall_ms_nt),
            e.nodes_1t.to_string(),
            e.nodes_nt.to_string(),
            format!("{}", e.cost_1t),
            format!("{}", e.cost_nt),
            format!("{:.2}x", e.speedup()),
            if e.cost_match() { "ok" } else { "MISMATCH" }.to_string(),
        ]);
    }
    println!("{table}");
}

fn main() -> ExitCode {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("perf_gate: {message}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "perf_gate: every group at 1 worker vs {} workers, plus determinism \
         and kernel audits ({cores} core(s) available, seed {SEED:#x})",
        config.threads
    );
    if cores < config.threads {
        println!(
            "note: only {cores} core(s) for {} workers — N-worker wall times measure \
             scheduling overhead, not parallel speedup; the --min-speedup gate is \
             suspended on this runner",
            config.threads
        );
    }

    let pool = Arc::new(WorkerPool::new(config.threads));
    let wanted = |name: &str| config.only.as_deref().is_none_or(|only| only == name);
    let mut steal_totals = StealTotals::default();
    let table2 = if wanted("table2") {
        engine_group(config.threads, "portfolio", false)
    } else {
        Vec::new()
    };
    let table3 = if wanted("table3") {
        engine_group(config.threads, "weighted", true)
    } else {
        Vec::new()
    };
    let unsat = if wanted("unsat") {
        unsat_group(config.threads, &pool, &mut steal_totals)
    } else {
        Vec::new()
    };
    let enumerate = if wanted("enumerate") {
        enumerate_group(config.threads, &pool, &mut steal_totals)
    } else {
        Vec::new()
    };
    let propagation = wanted("propagation").then(propagation_group);
    let weighted = if wanted("weighted") {
        weighted_group(config.threads, &pool, &mut steal_totals)
    } else {
        Vec::new()
    };
    // The audit reads process-wide compile counters, so it runs after every
    // concurrent group has finished its solves.
    let audit = wanted("weighted").then(weighted_audit);
    let service = wanted("service").then(|| service_group(config.threads));
    // Runs last: its scoped plans serialize on the fault registry's test
    // lock and must not overlap the determinism-sensitive groups.
    let faults = wanted("faults").then(|| faults_group(config.threads));

    print_group(
        "table2 — portfolio strategy (cost = layout quality score)",
        &table2,
    );
    print_group(
        "table3 — weighted strategy (cost = simulated cycles)",
        &table3,
    );
    print_group(
        "unsat — work-stealing UNSAT proofs (cost = nodes visited, partition-exact)",
        &unsat,
    );
    print_group(
        "enumerate — work-stealing full enumeration (cost = exact solution count)",
        &enumerate,
    );
    print_propagation(&propagation);
    print_weighted(&weighted, &audit);
    print_service(&service);
    print_faults(&faults);

    // The headline scaling metric: aggregate wall-clock speedup of the
    // work-stealing groups (UNSAT proofs + enumerations), the workloads a
    // redundant race cannot accelerate.
    let scaling_1t: f64 = unsat.iter().chain(&enumerate).map(|e| e.wall_ms_1t).sum();
    let scaling_nt: f64 = unsat.iter().chain(&enumerate).map(|e| e.wall_ms_nt).sum();
    let scaling_speedup = if scaling_nt > 0.0 {
        scaling_1t / scaling_nt
    } else {
        1.0
    };
    // Telemetry audit: sharding must be off single-threaded and actually
    // engaged at N workers on the proof/enumeration trees.
    let steal_group_ran = !unsat.is_empty() || !enumerate.is_empty();
    let steals_ok = steal_totals.steals_1t == 0
        && steal_totals.splits_1t == 0
        && (!steal_group_ran || steal_totals.steals_nt > 0);
    if steal_group_ran || !weighted.is_empty() {
        println!(
            "\nsteal telemetry: 1t {} steals / {} splits, {}t {} steals / {} splits ({})",
            steal_totals.steals_1t,
            steal_totals.splits_1t,
            config.threads,
            steal_totals.steals_nt,
            steal_totals.splits_nt,
            if steals_ok { "ok" } else { "VIOLATED" }
        );
    }
    let cost_parity = table2
        .iter()
        .chain(&table3)
        .chain(&unsat)
        .chain(&enumerate)
        .all(Entry::cost_match)
        && weighted.iter().all(WeightedEntry::cost_match);
    let bytes_ok = propagation.as_ref().is_none_or(|p| p.bytes_ok);
    let weighted_ok = audit.as_ref().is_none_or(|a| a.ok);
    let weighted_nodes_ok = weighted.iter().all(WeightedEntry::nodes_ok);

    // The kernel refactor's headline metric: single-thread table2+table3
    // wall clock, compared against the previous PR's artifact.
    let single_thread_ms: f64 = table2
        .iter()
        .chain(&table3)
        .map(|e| e.wall_ms_1t)
        .sum::<f64>();

    // Perf trajectory: read the previous PR's artifact (when present) and
    // record its aggregate speedup — and its single-thread wall clock —
    // next to this run's.
    let baseline_stats = config.baseline.as_ref().and_then(|path| {
        let previous = std::fs::read_to_string(path).ok()?;
        let speedup = extract_json_number(&previous, "scaling_speedup")?;
        println!(
            "trajectory: {path} scaling speedup {speedup:.2}x -> this run {scaling_speedup:.2}x"
        );
        let single_thread = match (
            extract_group_wall_1t_sum(&previous, "table2"),
            extract_group_wall_1t_sum(&previous, "table3"),
        ) {
            (Some(t2), Some(t3)) => {
                let total = t2 + t3;
                if single_thread_ms > 0.0 {
                    println!(
                        "trajectory: {path} table2+table3 single-thread {total:.2}ms -> \
                         this run {single_thread_ms:.2}ms ({:.2}x)",
                        total / single_thread_ms
                    );
                }
                Some(total)
            }
            _ => None,
        };
        Some((path.clone(), speedup, single_thread))
    });

    // Propagation trajectory: this run's steady-state revision throughput
    // against the baseline artifact's (the SIMD/cache-blocking headline).
    let propagation_improvement = match (&propagation, &config.baseline) {
        (Some(p), Some(path)) => std::fs::read_to_string(path)
            .ok()
            .and_then(|previous| extract_json_number(&previous, "revisions_per_sec"))
            .filter(|&previous_rps| previous_rps > 0.0)
            .map(|previous_rps| {
                let ratio = p.revisions_per_sec / previous_rps;
                println!(
                    "trajectory: {path} propagation {:.2}M revisions/s -> this run \
                     {:.2}M revisions/s ({ratio:.2}x)",
                    previous_rps / 1e6,
                    p.revisions_per_sec / 1e6
                );
                ratio
            }),
        _ => None,
    };

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"benchmark\": \"BENCH_10\",").unwrap();
    writeln!(json, "  \"harness\": \"perf_gate\",").unwrap();
    writeln!(json, "  \"threads\": {},", config.threads).unwrap();
    writeln!(json, "  \"cores\": {cores},").unwrap();
    writeln!(json, "  \"seed\": {SEED},").unwrap();
    writeln!(json, "  \"groups\": {{").unwrap();
    for (name, entries) in [
        ("table2", &table2),
        ("table3", &table3),
        ("unsat", &unsat),
        ("enumerate", &enumerate),
    ] {
        writeln!(json, "    \"{name}\": [").unwrap();
        json_entries(&mut json, entries);
        writeln!(json, "    ],").unwrap();
    }
    writeln!(json, "    \"weighted\": [").unwrap();
    for (i, e) in weighted.iter().enumerate() {
        let comma = if i + 1 < weighted.len() { "," } else { "" };
        writeln!(
            json,
            "      {{\"name\": \"{}\", \"wall_ms_1t\": {:.3}, \"wall_ms_nt\": {:.3}, \
             \"nodes_1t\": {}, \"nodes_nt\": {}, \"prunings_1t\": {}, \"prunings_nt\": {}, \
             \"bound_deletions_1t\": {}, \"bound_deletions_nt\": {}, \"node_budget\": {}, \
             \"nodes_ok\": {}, \"cost_1t\": {}, \"cost_nt\": {}, \"speedup\": {:.3}, \
             \"cost_match\": {}}}{comma}",
            e.name,
            e.wall_ms_1t,
            e.wall_ms_nt,
            e.nodes_1t,
            e.nodes_nt,
            e.prunings_1t,
            e.prunings_nt,
            e.bound_deletions_1t,
            e.bound_deletions_nt,
            e.node_budget,
            e.nodes_ok(),
            e.cost_1t,
            e.cost_nt,
            e.speedup(),
            e.cost_match(),
        )
        .unwrap();
    }
    writeln!(json, "    ]").unwrap();
    writeln!(json, "  }},").unwrap();
    if steal_group_ran || !weighted.is_empty() {
        writeln!(json, "  \"steal_telemetry\": {{").unwrap();
        writeln!(json, "    \"steals_1t\": {},", steal_totals.steals_1t).unwrap();
        writeln!(json, "    \"splits_1t\": {},", steal_totals.splits_1t).unwrap();
        writeln!(json, "    \"steals_nt\": {},", steal_totals.steals_nt).unwrap();
        writeln!(json, "    \"splits_nt\": {},", steal_totals.splits_nt).unwrap();
        writeln!(json, "    \"ok\": {steals_ok}").unwrap();
        writeln!(json, "  }},").unwrap();
    }
    if let Some(a) = &audit {
        writeln!(json, "  \"weighted_audit\": {{").unwrap();
        writeln!(
            json,
            "    \"weight_recompiles_on_set_weight\": {},",
            a.weight_recompiles_on_set_weight
        )
        .unwrap();
        writeln!(
            json,
            "    \"bit_recompiles_on_set_weight\": {},",
            a.bit_recompiles_on_set_weight
        )
        .unwrap();
        writeln!(
            json,
            "    \"bit_recompiles_on_merge\": {},",
            a.bit_recompiles_on_merge
        )
        .unwrap();
        writeln!(
            json,
            "    \"untouched_matrices_reused\": {},",
            a.untouched_matrices_reused
        )
        .unwrap();
        writeln!(json, "    \"ok\": {}", a.ok).unwrap();
        writeln!(json, "  }},").unwrap();
    }
    if let Some(p) = &propagation {
        writeln!(json, "  \"propagation\": {{").unwrap();
        writeln!(json, "    \"variables\": {},", p.variables).unwrap();
        writeln!(json, "    \"constraints\": {},", p.constraints).unwrap();
        writeln!(json, "    \"allowed_pairs\": {},", p.allowed_pairs).unwrap();
        writeln!(json, "    \"kernel_build_ms\": {:.3},", p.kernel_build_ms).unwrap();
        writeln!(json, "    \"ac3_runs\": {},", p.ac3_runs).unwrap();
        writeln!(json, "    \"revisions\": {},", p.revisions).unwrap();
        writeln!(json, "    \"ac3_total_ms\": {:.3},", p.ac3_total_ms).unwrap();
        writeln!(
            json,
            "    \"revisions_per_sec\": {:.0},",
            p.revisions_per_sec
        )
        .unwrap();
        writeln!(json, "    \"checks_per_sec\": {:.0},", p.checks_per_sec).unwrap();
        writeln!(json, "    \"batch_runs\": {},", p.batch_runs).unwrap();
        let walls: Vec<String> = p.batch_ms.iter().map(|ms| format!("{ms:.3}")).collect();
        writeln!(json, "    \"batch_ms\": [{}],", walls.join(", ")).unwrap();
        writeln!(json, "    \"batch_rel_std\": {:.4},", p.batch_rel_std).unwrap();
        writeln!(json, "    \"bytes_touched\": {},", p.bytes_touched).unwrap();
        writeln!(
            json,
            "    \"bytes_per_revision\": {:.2},",
            p.bytes_per_revision
        )
        .unwrap();
        writeln!(
            json,
            "    \"bytes_budget_per_revision\": {},",
            p.bytes_budget_per_revision
        )
        .unwrap();
        writeln!(json, "    \"bytes_ok\": {}", p.bytes_ok).unwrap();
        writeln!(json, "  }},").unwrap();
    }
    if let Some(s) = &service {
        writeln!(json, "  \"service\": {{").unwrap();
        writeln!(json, "    \"requests\": {},", s.requests).unwrap();
        writeln!(json, "    \"wall_ms\": {:.3},", s.wall_ms).unwrap();
        writeln!(json, "    \"throughput_rps\": {:.1},", s.throughput_rps).unwrap();
        writeln!(json, "    \"submitted\": {},", s.submitted).unwrap();
        writeln!(json, "    \"coalesced\": {},", s.coalesced).unwrap();
        writeln!(
            json,
            "    \"coalesce_hit_rate\": {:.3},",
            s.coalesce_hit_rate
        )
        .unwrap();
        writeln!(json, "    \"shed\": {},", s.shed).unwrap();
        writeln!(json, "    \"determinism_ok\": {}", s.determinism_ok).unwrap();
        writeln!(json, "  }},").unwrap();
    }
    if let Some(f) = &faults {
        writeln!(json, "  \"faults\": {{").unwrap();
        writeln!(
            json,
            "    \"disarmed_ns_per_hit\": {:.2},",
            f.disarmed_ns_per_hit
        )
        .unwrap();
        writeln!(
            json,
            "    \"ladder_recovery_ms\": {:.3},",
            f.ladder_recovery_ms
        )
        .unwrap();
        writeln!(json, "    \"ladder_strategy\": \"{}\",", f.ladder_strategy).unwrap();
        writeln!(json, "    \"ladder_ok\": {},", f.ladder_ok).unwrap();
        writeln!(json, "    \"storm_requests\": {},", f.storm_requests).unwrap();
        writeln!(json, "    \"storm_panics\": {},", f.storm_panics).unwrap();
        writeln!(json, "    \"no_hung_waiters\": {}", f.no_hung_waiters).unwrap();
        writeln!(json, "  }},").unwrap();
    }
    if let Some((path, speedup, single_thread)) = &baseline_stats {
        match single_thread {
            Some(previous_ms) => writeln!(
                json,
                "  \"baseline\": {{\"file\": \"{path}\", \"scaling_speedup\": {speedup:.3}, \
                 \"single_thread_wall_ms\": {previous_ms:.3}}},"
            )
            .unwrap(),
            None => writeln!(
                json,
                "  \"baseline\": {{\"file\": \"{path}\", \"scaling_speedup\": {speedup:.3}}},"
            )
            .unwrap(),
        }
        if let Some(previous_ms) = single_thread {
            if single_thread_ms > 0.0 {
                writeln!(
                    json,
                    "  \"single_thread_improvement\": {:.3},",
                    previous_ms / single_thread_ms
                )
                .unwrap();
            }
        }
    }
    // The deferred wall-clock regression gate (ROADMAP open item, now on):
    // this run's single-thread table2+table3 wall clock must stay within
    // the noise margin of the baseline artifact's.
    let wall_gate = if config.no_wall_gate || single_thread_ms <= 0.0 {
        None
    } else {
        baseline_stats
            .as_ref()
            .and_then(|(_, _, single_thread)| *single_thread)
            .map(|baseline_ms| {
                let limit_ms = baseline_ms * (1.0 + config.wall_margin);
                (baseline_ms, limit_ms, single_thread_ms <= limit_ms)
            })
    };
    if let Some((baseline_ms, limit_ms, ok)) = wall_gate {
        writeln!(
            json,
            "  \"wall_gate\": {{\"baseline_ms\": {baseline_ms:.3}, \"margin\": {:.3}, \
             \"limit_ms\": {limit_ms:.3}, \"current_ms\": {single_thread_ms:.3}, \"ok\": {ok}}},",
            config.wall_margin
        )
        .unwrap();
    }
    if !table2.is_empty() || !table3.is_empty() {
        writeln!(json, "  \"single_thread_wall_ms\": {single_thread_ms:.3},").unwrap();
    }
    writeln!(json, "  \"scaling_speedup\": {scaling_speedup:.3},").unwrap();
    if propagation.is_some() {
        writeln!(json, "  \"propagation_bytes_ok\": {bytes_ok},").unwrap();
    }
    if let Some(ratio) = propagation_improvement {
        writeln!(json, "  \"propagation_improvement\": {ratio:.3},").unwrap();
    }
    if audit.is_some() {
        writeln!(json, "  \"weighted_ok\": {weighted_ok},").unwrap();
    }
    if !weighted.is_empty() {
        writeln!(json, "  \"weighted_nodes_ok\": {weighted_nodes_ok},").unwrap();
    }
    if let Some(s) = &service {
        writeln!(json, "  \"service_ok\": {},", s.determinism_ok).unwrap();
    }
    if let Some(f) = &faults {
        writeln!(
            json,
            "  \"faults_ok\": {},",
            f.ladder_ok && f.no_hung_waiters
        )
        .unwrap();
    }
    writeln!(json, "  \"cost_parity\": {cost_parity}").unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&config.out, &json).unwrap_or_else(|e| panic!("writing {}: {e}", config.out));
    println!(
        "\nwrote {} (aggregate scaling speedup {scaling_speedup:.2}x at {} workers)",
        config.out, config.threads
    );

    if !cost_parity {
        eprintln!(
            "perf_gate FAILED: a parallel run's solution cost diverged from its \
             single-thread baseline (see the MISMATCH rows above)"
        );
        return ExitCode::FAILURE;
    }
    if !bytes_ok {
        eprintln!(
            "perf_gate FAILED: the propagation kernel touched more bytes per \
             revision than the padded lane layout allows — a cache-blocking \
             regression (see the bytes audit above)"
        );
        return ExitCode::FAILURE;
    }
    if !weighted_ok {
        eprintln!(
            "perf_gate FAILED: the incremental-recompilation audit was violated \
             (a mutation recompiled more than the touched constraint — see the \
             weighted audit above)"
        );
        return ExitCode::FAILURE;
    }
    if !weighted_nodes_ok {
        eprintln!(
            "perf_gate FAILED: a weighted instance's node count blew its \
             propagation budget (25% of the pre-SoftAc3 BENCH_9 baseline), or \
             its single-thread run deleted no value by bound consistency (see \
             the node-budget and deletions columns above)"
        );
        return ExitCode::FAILURE;
    }
    if !steals_ok {
        eprintln!(
            "perf_gate FAILED: steal telemetry violated its contract (a \
             single-thread run stole/split, or an N-worker proof run never \
             stole — see the steal telemetry line above)"
        );
        return ExitCode::FAILURE;
    }
    if service.as_ref().is_some_and(|s| !s.determinism_ok) {
        eprintln!(
            "perf_gate FAILED: a report served through the mlo-service queue \
             differed from the direct session call (see the service group above)"
        );
        return ExitCode::FAILURE;
    }
    if faults.as_ref().is_some_and(|f| !f.ladder_ok) {
        eprintln!(
            "perf_gate FAILED: the retry/fallback ladder did not recover from a \
             single injected engine.solve panic (see the faults group above)"
        );
        return ExitCode::FAILURE;
    }
    if faults.as_ref().is_some_and(|f| !f.no_hung_waiters) {
        eprintln!(
            "perf_gate FAILED: a waiter hung (or saw a non-error) under the \
             unbounded panic storm (see the faults group above)"
        );
        return ExitCode::FAILURE;
    }
    if let Some((baseline_ms, limit_ms, false)) = wall_gate {
        eprintln!(
            "perf_gate FAILED: single-thread table2+table3 wall clock \
             {single_thread_ms:.2}ms regressed beyond the baseline {baseline_ms:.2}ms \
             + {:.0}% margin (limit {limit_ms:.2}ms)",
            config.wall_margin * 100.0
        );
        return ExitCode::FAILURE;
    }
    if config.min_speedup > 0.0 && cores >= config.threads && scaling_speedup < config.min_speedup {
        eprintln!(
            "perf_gate FAILED: aggregate scaling speedup {scaling_speedup:.2}x is below \
             the required {:.2}x",
            config.min_speedup
        );
        return ExitCode::FAILURE;
    }
    println!("perf_gate passed: cost parity holds across thread counts");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Config, String> {
        parse_args(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn only_accepts_every_group_and_rejects_unknown_names() {
        for group in GROUPS {
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
                GROUPS.iter().all(|group| error.contains(group)),
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
}
