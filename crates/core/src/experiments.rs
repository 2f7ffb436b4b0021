//! Reusable runners for every table and figure of the paper.
//!
//! Each function returns plain data structures; the `mlo-bench` binaries
//! print them as paper-style tables and the Criterion benches time their
//! hot parts.  `EXPERIMENTS.md` records paper-vs-measured values produced by
//! these runners.

use crate::engine::{Engine, Session};
use crate::report::TextTable;
use crate::request::OptimizeRequest;
use mlo_benchmarks::Benchmark;
use mlo_cachesim::{MachineConfig, Simulator, TraceOptions};
use mlo_csp::{Scheme as CspScheme, SearchEngine, SearchStats, ValueOrdering, VariableOrdering};
use mlo_layout::{build_network, LayoutAssignment};
use std::time::Duration;

/// One row of Table 1: benchmark characteristics, paper vs. measured.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Published domain size.
    pub paper_domain_size: usize,
    /// Domain size of our reconstructed benchmark.
    pub measured_domain_size: usize,
    /// Published data size (KB).
    pub paper_data_kb: f64,
    /// Data size of our reconstructed benchmark (KB).
    pub measured_data_kb: f64,
    /// Number of arrays and nests in the reconstruction (extra context).
    pub arrays: usize,
    /// Number of nests in the reconstruction.
    pub nests: usize,
}

/// Runs the Table 1 characterization for all five benchmarks.
pub fn table1() -> Vec<Table1Row> {
    Benchmark::all()
        .into_iter()
        .map(|benchmark| {
            let program = benchmark.program();
            let network = build_network(&program, &benchmark.candidate_options());
            Table1Row {
                benchmark,
                paper_domain_size: benchmark.paper_domain_size(),
                measured_domain_size: network.total_domain_size(),
                paper_data_kb: benchmark.paper_data_kb(),
                measured_data_kb: program.total_data_kb(),
                arrays: program.arrays().len(),
                nests: program.nests().len(),
            }
        })
        .collect()
}

/// Node budget given to the base scheme by the experiment runners.
///
/// The base scheme's random-order chronological backtracking does not
/// reliably terminate on the larger benchmark networks (that pathology is
/// exactly what Table 2 demonstrates); the runners therefore cap it and
/// report the cap.  The enhanced scheme never comes near this limit.
pub const BASE_SCHEME_NODE_LIMIT: u64 = 2_000_000;

/// One row of Table 2: layout solution time per scheme.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Wall-clock time of the heuristic baseline.
    pub heuristic: Duration,
    /// Wall-clock time of the base scheme.
    pub base: Duration,
    /// Wall-clock time of the enhanced scheme.
    pub enhanced: Duration,
    /// Search statistics of the base scheme.
    pub base_stats: SearchStats,
    /// Search statistics of the enhanced scheme.
    pub enhanced_stats: SearchStats,
    /// Whether the base scheme hit [`BASE_SCHEME_NODE_LIMIT`] (its true
    /// solution time is a lower bound in that case).
    pub base_capped: bool,
}

/// Runs the Table 2 experiment (layout-determination time) for one
/// benchmark.
///
/// The base and enhanced schemes run through one [`Session`]
/// whose candidate set and constraint network are built before either
/// runs, so their times are pure layout-determination (search) times,
/// exactly what Table 2 measures.  The heuristic runs on a session of its
/// own: a session caches the heuristic's layouts, so its time is a cold
/// run that nothing before it can shorten.
pub fn table2_for(benchmark: Benchmark) -> Table2Row {
    let session = Engine::new().session();
    let program = benchmark.program();
    let request = |strategy: &str, node_limit: Option<u64>| {
        let mut request =
            OptimizeRequest::strategy(strategy).candidates(benchmark.candidate_options());
        request.budget.nodes = node_limit;
        request
    };
    let run = |session: &Session, strategy: &str, node_limit: Option<u64>| {
        session
            .optimize(&program, &request(strategy, node_limit))
            .expect("table 2 requests use the heuristic fallback policy")
    };
    // Force the lazy candidate/network build now so no row's solution_time
    // is charged for network construction.
    session
        .prepared(&program, &benchmark.candidate_options())
        .network(&program);
    let heuristic = run(&Engine::new().session(), "heuristic", None);
    let base = run(&session, "base", Some(BASE_SCHEME_NODE_LIMIT));
    let enhanced = run(&session, "enhanced", None);
    let base_stats = base.search_stats.unwrap_or_default();
    Table2Row {
        benchmark,
        heuristic: heuristic.solution_time,
        base: base.solution_time,
        enhanced: enhanced.solution_time,
        base_capped: base_stats.nodes_visited >= BASE_SCHEME_NODE_LIMIT,
        base_stats,
        enhanced_stats: enhanced.search_stats.unwrap_or_default(),
    }
}

/// Runs the Table 2 experiment for all benchmarks.
pub fn table2() -> Vec<Table2Row> {
    Benchmark::all().into_iter().map(table2_for).collect()
}

/// One row of Table 3: simulated execution time (cycles) per configuration.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Original code: row-major layouts, original loop order.
    pub original_cycles: u64,
    /// Heuristic-optimized layouts.
    pub heuristic_cycles: u64,
    /// Base-scheme layouts.
    pub base_cycles: u64,
    /// Enhanced-scheme layouts.
    pub enhanced_cycles: u64,
}

impl Table3Row {
    /// Percentage improvement of a configuration over the original code.
    pub fn improvement(&self, cycles: u64) -> f64 {
        if self.original_cycles == 0 {
            0.0
        } else {
            (self.original_cycles as f64 - cycles as f64) / self.original_cycles as f64 * 100.0
        }
    }
}

/// The trace options used by the Table 3 harness: large nests are
/// sub-sampled so the full five-benchmark sweep stays fast while preserving
/// stride behaviour.
pub fn table3_trace_options() -> TraceOptions {
    TraceOptions {
        max_trip_per_loop: 64,
        array_alignment: 64,
    }
}

/// Runs the Table 3 experiment (simulated execution time) for one benchmark
/// on a given machine.
pub fn table3_for(benchmark: Benchmark, machine: MachineConfig) -> Table3Row {
    let session = Engine::new().session();
    let program = benchmark.program();
    let simulator = Simulator::new(machine).trace_options(table3_trace_options());

    let original_assignment = LayoutAssignment::all_row_major(&program);
    let original = simulator
        .clone()
        .without_restructuring()
        .simulate(&program, &original_assignment)
        .expect("row-major layouts always linearize");

    let run = |strategy: &str, node_limit: Option<u64>| {
        let mut request =
            OptimizeRequest::strategy(strategy).candidates(benchmark.candidate_options());
        request.budget.nodes = node_limit;
        let report = session
            .optimize(&program, &request)
            .expect("table 3 requests use the heuristic fallback policy");
        simulator
            .simulate(&program, &report.assignment)
            .expect("engine assignments are complete")
            .total_cycles
    };

    // The base scheme gets the same node budget as in Table 2; when it runs
    // out it falls back to the heuristic layouts (see EXPERIMENTS.md).
    Table3Row {
        benchmark,
        original_cycles: original.total_cycles,
        heuristic_cycles: run("heuristic", None),
        base_cycles: run("base", Some(BASE_SCHEME_NODE_LIMIT)),
        enhanced_cycles: run("enhanced", None),
    }
}

/// Runs the Table 3 experiment for all benchmarks with the paper's machine.
pub fn table3() -> Vec<Table3Row> {
    Benchmark::all()
        .into_iter()
        .map(|b| table3_for(b, MachineConfig::date05()))
        .collect()
}

/// One row of Figure 4: how much of the enhanced scheme's saving comes from
/// each of the three improvements.
#[derive(Debug, Clone)]
pub struct Figure4Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Nodes visited by the base scheme.
    pub base_nodes: u64,
    /// Nodes after adding most-constraining variable ordering.
    pub with_variable_ordering_nodes: u64,
    /// Nodes after also adding least-constraining value ordering.
    pub with_value_ordering_nodes: u64,
    /// Nodes of the full enhanced scheme (adds backjumping).
    pub enhanced_nodes: u64,
    /// Share of the total node reduction attributed to variable selection,
    /// value selection and backjumping (sums to 100 when any saving exists).
    pub breakdown_percent: [f64; 3],
}

/// Runs the Figure 4 ablation for one benchmark: the three enhancements are
/// enabled cumulatively and the reduction in visited search nodes is
/// attributed to each step.
///
/// The paper attributes reductions in *solution time*; visited nodes are the
/// deterministic, machine-independent proxy (wall-clock times are reported
/// separately by the Criterion bench).
pub fn figure4_for(benchmark: Benchmark) -> Figure4Row {
    let program = benchmark.program();
    let network = build_network(&program, &benchmark.candidate_options());
    let base = SearchEngine::with_scheme(CspScheme::Base).node_limit(BASE_SCHEME_NODE_LIMIT);
    let mut with_variable = base.clone();
    with_variable.variable_ordering = VariableOrdering::MostConstraining;
    let mut with_value = with_variable.clone();
    with_value.value_ordering = ValueOrdering::LeastConstraining;
    let mut full = with_value.clone();
    full.backjumping = true;

    let base_nodes = base.solve(network.network()).stats.nodes_visited;
    let variable_nodes = with_variable.solve(network.network()).stats.nodes_visited;
    let value_nodes = with_value.solve(network.network()).stats.nodes_visited;
    let enhanced_nodes = full.solve(network.network()).stats.nodes_visited;

    let total_saving = base_nodes.saturating_sub(enhanced_nodes) as f64;
    let share = |from: u64, to: u64| -> f64 {
        if total_saving <= 0.0 {
            0.0
        } else {
            (from.saturating_sub(to)) as f64 / total_saving * 100.0
        }
    };
    Figure4Row {
        benchmark,
        base_nodes,
        with_variable_ordering_nodes: variable_nodes,
        with_value_ordering_nodes: value_nodes,
        enhanced_nodes,
        breakdown_percent: [
            share(base_nodes, variable_nodes),
            share(variable_nodes, value_nodes),
            share(value_nodes, enhanced_nodes),
        ],
    }
}

/// Runs the Figure 4 ablation for all benchmarks.
pub fn figure4() -> Vec<Figure4Row> {
    Benchmark::all().into_iter().map(figure4_for).collect()
}

/// The Figure 3 demonstration: on a crafted network where an irrelevant
/// variable sits between the culprit and the dead end, chronological
/// backtracking re-instantiates it while backjumping skips it.
#[derive(Debug, Clone)]
pub struct Figure3Demo {
    /// Nodes visited with chronological backtracking.
    pub backtracking_nodes: u64,
    /// Nodes visited with backjumping.
    pub backjumping_nodes: u64,
    /// Number of backjumps performed.
    pub backjumps: u64,
}

/// Runs the Figure 3 demonstration.
pub fn figure3() -> Figure3Demo {
    // Qk constrains Qj; Qi sits between them in the search order but shares
    // no constraint with Qj (the exact situation of Figure 3).
    let mut net: mlo_csp::ConstraintNetwork<i32> = mlo_csp::ConstraintNetwork::new();
    let qk = net.add_variable("Qk", (0..4).collect());
    let qi = net.add_variable("Qi", (0..4).collect());
    let qj = net.add_variable("Qj", (0..4).collect());
    // Only Qk = 3 supports any value of Qj.
    net.add_constraint(qk, qj, vec![(3, 0), (3, 1), (3, 2), (3, 3)])
        .expect("values are in the domains");
    // Qi is compatible with everything (purely an innocent bystander).
    let all_pairs: Vec<(i32, i32)> = (0..4).flat_map(|a| (0..4).map(move |b| (a, b))).collect();
    net.add_constraint(qk, qi, all_pairs)
        .expect("values are in the domains");

    let chronological = SearchEngine {
        variable_ordering: VariableOrdering::Lexicographic,
        value_ordering: ValueOrdering::DomainOrder,
        backjumping: false,
        forward_checking: false,
        ac3_preprocessing: false,
        node_limit: None,
        seed: 0,
    };
    let jumping = SearchEngine {
        backjumping: true,
        ..chronological.clone()
    };
    let bt = chronological.solve(&net);
    let bj = jumping.solve(&net);
    Figure3Demo {
        backtracking_nodes: bt.stats.nodes_visited,
        backjumping_nodes: bj.stats.nodes_visited,
        backjumps: bj.stats.backjumps,
    }
}

/// Formats Table 1 rows as a printable text table.
pub fn format_table1(rows: &[Table1Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Benchmark",
        "Arrays",
        "Nests",
        "Domain (paper)",
        "Domain (measured)",
        "Data KB (paper)",
        "Data KB (measured)",
    ]);
    for r in rows {
        t.row(vec![
            r.benchmark.name().into(),
            r.arrays.to_string(),
            r.nests.to_string(),
            r.paper_domain_size.to_string(),
            r.measured_domain_size.to_string(),
            format!("{:.2}", r.paper_data_kb),
            format!("{:.2}", r.measured_data_kb),
        ]);
    }
    t
}

/// Formats Table 2 rows as a printable text table.
pub fn format_table2(rows: &[Table2Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Benchmark",
        "Heuristic",
        "Base",
        "Enhanced",
        "Base nodes",
        "Enhanced nodes",
        "Backjumps",
    ]);
    for r in rows {
        let base_time = if r.base_capped {
            format!(">={:.2?} (capped)", r.base)
        } else {
            format!("{:.2?}", r.base)
        };
        t.row(vec![
            r.benchmark.name().into(),
            format!("{:.2?}", r.heuristic),
            base_time,
            format!("{:.2?}", r.enhanced),
            r.base_stats.nodes_visited.to_string(),
            r.enhanced_stats.nodes_visited.to_string(),
            r.enhanced_stats.backjumps.to_string(),
        ]);
    }
    t
}

/// Formats Table 3 rows as a printable text table (cycles plus improvement
/// percentages, mirroring how the paper reports averages).
pub fn format_table3(rows: &[Table3Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Benchmark",
        "Original",
        "Heuristic",
        "Base",
        "Enhanced",
        "Heur. impr.",
        "Base impr.",
        "Enh. impr.",
    ]);
    for r in rows {
        t.row(vec![
            r.benchmark.name().into(),
            r.original_cycles.to_string(),
            r.heuristic_cycles.to_string(),
            r.base_cycles.to_string(),
            r.enhanced_cycles.to_string(),
            format!("{:.1}%", r.improvement(r.heuristic_cycles)),
            format!("{:.1}%", r.improvement(r.base_cycles)),
            format!("{:.1}%", r.improvement(r.enhanced_cycles)),
        ]);
    }
    t
}

/// Formats Figure 4 rows as a printable text table.
pub fn format_figure4(rows: &[Figure4Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Benchmark",
        "Base nodes",
        "+Var order",
        "+Val order",
        "Enhanced",
        "Var %",
        "Val %",
        "Backjump %",
    ]);
    for r in rows {
        t.row(vec![
            r.benchmark.name().into(),
            r.base_nodes.to_string(),
            r.with_variable_ordering_nodes.to_string(),
            r.with_value_ordering_nodes.to_string(),
            r.enhanced_nodes.to_string(),
            format!("{:.1}", r.breakdown_percent[0]),
            format!("{:.1}", r.breakdown_percent[1]),
            format!("{:.1}", r.breakdown_percent[2]),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Fallback;
    use mlo_layout::quality::{assignment_score, ideal_score};

    #[test]
    fn table1_rows_cover_all_benchmarks() {
        let rows = table1();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.measured_domain_size > 0);
            assert!(r.measured_data_kb > 0.0);
            assert!(r.arrays > 0 && r.nests > 0);
        }
        let printed = format_table1(&rows).to_string();
        assert!(printed.contains("Med-Im04"));
        assert!(printed.contains("Domain (paper)"));
    }

    #[test]
    fn table2_single_benchmark_runs_and_formats() {
        let row = table2_for(Benchmark::MxM);
        assert!(row.base_stats.nodes_visited > 0);
        assert!(row.enhanced_stats.nodes_visited > 0);
        let printed = format_table2(&[row]).to_string();
        assert!(printed.contains("MxM"));
    }

    #[test]
    fn figure3_demo_shows_backjumping_winning() {
        let demo = figure3();
        assert!(demo.backjumps > 0);
        assert!(demo.backjumping_nodes < demo.backtracking_nodes);
    }

    #[test]
    fn figure4_single_benchmark_breakdown_sums_to_100() {
        // MxM has the smallest network of the five, which keeps this debug
        // test fast on a single core; the release harness runs all five.
        let row = figure4_for(Benchmark::MxM);
        assert!(row.base_nodes >= row.enhanced_nodes);
        let sum: f64 = row.breakdown_percent.iter().sum();
        assert!(sum <= 100.0 + 1e-6, "breakdown sums to {sum}");
        assert!(row.breakdown_percent.iter().all(|&p| p >= 0.0));
        let printed = format_figure4(&[row]).to_string();
        assert!(printed.contains("Backjump"));
    }

    #[test]
    fn table3_small_benchmark_reproduces_the_ordering() {
        // Run the smallest benchmark (MxM: 7 arrays, 5 nests) through the
        // full Table 3 path and check the qualitative result the paper
        // reports: the heuristic improves over the original and the
        // constraint-network schemes do at least as well as the heuristic.
        // The release harness (`--bin table3`) runs all five benchmarks.
        let row = table3_for(Benchmark::MxM, MachineConfig::date05());
        assert!(row.heuristic_cycles < row.original_cycles);
        assert!(row.enhanced_cycles <= row.heuristic_cycles);
        assert!(row.base_cycles <= row.heuristic_cycles);
        let printed = format_table3(&[row]).to_string();
        assert!(printed.contains("MxM"));
    }

    #[test]
    fn table3_shape_enhanced_layouts_keep_at_least_the_heuristics_locality() {
        // MxM's network is unsatisfiable, so every column of the test above
        // holds the heuristic's layouts.  Shape's network is satisfiable:
        // `enhanced` solves it without a fallback, and its layouts must give
        // at least the heuristic's static locality (all of `ideal_score`
        // against 89.1% of it).  Nothing is simulated.
        let session = Engine::new().session();
        let program = Benchmark::Shape.program();
        let run = |strategy: &str| {
            let request = OptimizeRequest::strategy(strategy)
                .candidates(Benchmark::Shape.candidate_options());
            session.optimize(&program, &request).unwrap()
        };
        let (enhanced, heuristic) = (run("enhanced"), run("heuristic"));
        assert_eq!(enhanced.fallback, Fallback::None);
        let enhanced_score = assignment_score(&program, &enhanced.assignment);
        let heuristic_score = assignment_score(&program, &heuristic.assignment);
        assert!(
            enhanced_score >= heuristic_score,
            "enhanced {enhanced_score} < heuristic {heuristic_score} of ideal {}",
            ideal_score(&program)
        );
    }
}
