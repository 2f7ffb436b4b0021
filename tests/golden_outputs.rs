//! Golden outputs: every timing-independent result of a fixed corpus is
//! hashed per family and compared with a committed constant, so a refactor
//! or a fast path that promises bit-identical results is checked by tier-1.
//!
//! Families:
//!
//! * `simulator` — `Simulator` reports of the five paper programs under
//!   three assignments (row-major in the original loop order, the heuristic
//!   baseline's, and a fixed mixed column-major/diagonal one), at 8 and 32
//!   trips per loop, on the `date05` and `tiny` machines.  It hashes total
//!   and per-nest cycles, accesses, both levels' cache counters and the
//!   chosen loop transforms.
//! * `layout` — the layout analyses of the five paper programs (with their
//!   own candidate options), 24 `random_program`s and 8 `add_pipeline`
//!   programs: candidate domains in order, network variables and every
//!   constraint's scope and sorted pairs, contributions, the heuristic's
//!   assignment, chosen transforms and processing order, each nest's best
//!   order and score under the heuristic and mixed assignments, and the
//!   dynamic plan at window 2 (per-segment layouts, switch points and cost
//!   bits).
//! * `search` — the five paper programs × all nine built-in strategies × two
//!   seeds at one worker under a node cap: assignment, satisfiability,
//!   fallback reason, node/pruning/bound-deletion counts and the network
//!   summary.
//!
//! A change that moves a constant must say which outputs changed and why.

use constraint_layout::benchmarks::generators::add_pipeline;
use constraint_layout::benchmarks::random_program;
use constraint_layout::ir::legal_permutations;
use constraint_layout::layout::quality::best_nest_score;
use constraint_layout::layout::{
    build_network_from, dynamic_plan, heuristic_assignment, DynamicOptions, Segmentation,
};
use constraint_layout::prelude::*;
use mlo_cachesim::CacheStats;

/// 64-bit FNV-1a over a canonical byte rendering: stable across Rust
/// releases and platforms, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn str(&mut self, value: &str) {
        self.u64(value.len() as u64);
        self.bytes(value.as_bytes());
    }

    fn layout(&mut self, layout: &Layout) {
        self.u64(layout.len() as u64);
        for hyperplane in layout.hyperplanes() {
            let coefficients = hyperplane.coefficients().as_slice();
            self.u64(coefficients.len() as u64);
            for &c in coefficients {
                self.u64(c as u64);
            }
        }
    }

    /// Every array's layout, in declaration order (`u64::MAX` marks an
    /// array without one).
    fn assignment(&mut self, program: &Program, assignment: &LayoutAssignment) {
        self.u64(assignment.len() as u64);
        for array in program.arrays() {
            match assignment.layout_of(array.id()) {
                Some(layout) => self.layout(layout),
                None => self.u64(u64::MAX),
            }
        }
    }

    fn stats(&mut self, stats: &CacheStats) {
        for value in [stats.accesses, stats.hits, stats.misses, stats.evictions] {
            self.u64(value);
        }
    }

    fn report(&mut self, report: &SimulationReport) {
        self.u64(report.total_cycles);
        self.u64(report.total_accesses);
        self.stats(&report.l1_data);
        self.stats(&report.l2);
        self.u64(report.nest_cycles.len() as u64);
        for (nest, cycles) in &report.nest_cycles {
            self.u64(nest.index() as u64);
            self.u64(*cycles);
        }
        self.u64(report.nest_transforms.len() as u64);
        for (nest, transform) in &report.nest_transforms {
            self.u64(nest.index() as u64);
            self.str(transform);
        }
    }
}

/// Rank-2 arrays alternate column-major and diagonal by declaration order;
/// every other rank is column-major.
fn mixed_assignment(program: &Program) -> LayoutAssignment {
    let mut assignment = LayoutAssignment::new();
    for (i, array) in program.arrays().iter().enumerate() {
        let layout = match array.rank() {
            2 if i % 2 == 1 => Layout::diagonal(),
            rank => Layout::column_major(rank),
        };
        assignment.set(array.id(), layout);
    }
    assignment
}

fn simulator_family() -> u64 {
    let mut hash = Fnv::new();
    for benchmark in Benchmark::all() {
        let program = benchmark.program();
        let assignments = [
            (
                "row-major",
                LayoutAssignment::all_row_major(&program),
                false,
            ),
            ("heuristic", heuristic_assignment(&program).assignment, true),
            ("mixed", mixed_assignment(&program), true),
        ];
        for (label, assignment, restructure) in &assignments {
            for trips in [8, 32] {
                for (machine_name, machine) in [
                    ("date05", MachineConfig::date05()),
                    ("tiny", MachineConfig::tiny()),
                ] {
                    let mut simulator = Simulator::new(machine).trace_options(TraceOptions {
                        max_trip_per_loop: trips,
                        ..TraceOptions::default()
                    });
                    if !restructure {
                        simulator = simulator.without_restructuring();
                    }
                    let report = simulator
                        .simulate(&program, assignment)
                        .expect("paper programs simulate under complete assignments");
                    hash.str(benchmark.name());
                    hash.str(label);
                    hash.u64(trips as u64);
                    hash.str(machine_name);
                    hash.report(&report);
                }
            }
        }
    }
    hash.0
}

/// The layout corpus: the paper programs with their own candidate options,
/// then random and pipeline programs under a rotation of option sets.
fn layout_corpus() -> Vec<(Program, CandidateOptions)> {
    let rotation = [
        CandidateOptions::default(),
        CandidateOptions {
            include_diagonals: true,
            ..CandidateOptions::default()
        },
        CandidateOptions {
            include_canonical: false,
            max_transforms_per_nest: 1,
            ..CandidateOptions::default()
        },
    ];
    let mut corpus: Vec<(Program, CandidateOptions)> = Benchmark::all()
        .iter()
        .map(|b| (b.program(), b.candidate_options()))
        .collect();
    for k in 0..24usize {
        let spec = RandomProgramSpec {
            arrays: 2 + k % 9,
            nests: 1 + (k * 5) % 11,
            extent: 8 + 4 * (k % 4) as i64,
            reads_per_nest: 1 + k % 4,
            seed: 1000 + k as u64,
        };
        corpus.push((random_program(&spec), rotation[k % rotation.len()]));
    }
    for k in 0..8usize {
        let n = 12 + 4 * (k % 3) as i64;
        let mut builder = ProgramBuilder::new(format!("pipeline_{k}"));
        let shared: Vec<ArrayId> = (0..k % 4)
            .map(|s| builder.array(format!("coef{s}"), vec![n, n], 4))
            .collect();
        add_pipeline(&mut builder, "a", 2 + k, n, 4, &shared);
        if k % 2 == 1 {
            add_pipeline(&mut builder, "b", 1 + k / 2, n, 8, &shared);
        }
        corpus.push((builder.build(), rotation[k % rotation.len()]));
    }
    corpus
}

fn layout_family() -> u64 {
    let mut hash = Fnv::new();
    for (program, options) in layout_corpus() {
        hash.str(program.name());
        let candidates = CandidateSet::enumerate(&program, &options);
        for array in program.arrays() {
            let domain = candidates.of(array.id());
            hash.u64(domain.len() as u64);
            for layout in domain {
                hash.layout(layout);
            }
        }

        let network = build_network_from(&program, &candidates);
        let net = network.network();
        hash.u64(net.variable_count() as u64);
        for var in net.variables() {
            hash.u64(network.array_of(var).index() as u64);
            hash.str(net.name(var));
        }
        hash.u64(net.constraint_count() as u64);
        for constraint in net.constraints() {
            let (first, second) = constraint.scope();
            hash.u64(first.index() as u64);
            hash.u64(second.index() as u64);
            let mut pairs: Vec<(usize, usize)> =
                constraint.allowed_pairs().iter().copied().collect();
            pairs.sort_unstable();
            hash.u64(pairs.len() as u64);
            for (a, b) in pairs {
                hash.u64(a as u64);
                hash.u64(b as u64);
            }
        }
        hash.u64(network.contributions().len() as u64);
        for contribution in network.contributions() {
            hash.u64(contribution.nest.index() as u64);
            let nest = &program.nests()[contribution.nest.index()];
            hash.str(&legal_permutations(nest)[contribution.order].describe());
            hash.u64(contribution.preferences.len() as u64);
            for (array, layout) in &contribution.preferences {
                hash.u64(array.index() as u64);
                hash.layout(layout);
            }
        }

        let heuristic = heuristic_assignment(&program);
        hash.assignment(&program, &heuristic.assignment);
        hash.u64(heuristic.chosen_transforms.len() as u64);
        for (nest, transform) in &heuristic.chosen_transforms {
            hash.u64(nest.index() as u64);
            hash.str(transform);
        }
        hash.u64(heuristic.processing_order.len() as u64);
        for nest in &heuristic.processing_order {
            hash.u64(nest.index() as u64);
        }
        for assignment in [&heuristic.assignment, &mixed_assignment(&program)] {
            for nest in program.nests() {
                let (transform, score) = best_nest_score(nest, assignment);
                hash.str(&transform.describe());
                hash.u64(score as u64);
            }
        }

        let dynamic = DynamicOptions {
            candidates: options,
            ..DynamicOptions::default()
        };
        let plan = dynamic_plan(&program, &Segmentation::by_window(&program, 2), &dynamic);
        hash.u64(plan.schedules.len() as u64);
        for schedule in &plan.schedules {
            hash.u64(schedule.array.index() as u64);
            hash.u64(schedule.per_segment.len() as u64);
            for layout in &schedule.per_segment {
                hash.layout(layout);
            }
            hash.u64(schedule.switch_points.len() as u64);
            for &point in &schedule.switch_points {
                hash.u64(point as u64);
            }
            hash.u64(schedule.cost.to_bits());
            hash.u64(schedule.static_cost.to_bits());
        }
    }
    hash.0
}

/// The node cap of every `search` request: small enough that slow schemes
/// such as `base` stay fast, so some requests fall back on it.
const SEARCH_NODE_CAP: u64 = 20_000;

fn search_family() -> u64 {
    let mut hash = Fnv::new();
    let engine = Engine::builder().parallelism(1).build();
    for benchmark in Benchmark::all() {
        let program = benchmark.program();
        let session = engine.session();
        for strategy in engine.registry().names() {
            for seed in [3u64, 11] {
                let request = OptimizeRequest::strategy(strategy.as_str())
                    .candidates(benchmark.candidate_options())
                    .seed(seed)
                    .with_budget(SearchBudget::new().nodes(SEARCH_NODE_CAP).workers(1));
                let report = session
                    .optimize(&program, &request)
                    .expect("capped paper requests fall back instead of failing");
                hash.str(benchmark.name());
                hash.str(&strategy);
                hash.u64(seed);
                hash.str(&report.strategy);
                hash.assignment(&program, &report.assignment);
                hash.u64(match report.satisfiable {
                    None => 0,
                    Some(false) => 1,
                    Some(true) => 2,
                });
                hash.str(&format!("{:?}", report.fallback.reason()));
                match &report.search_stats {
                    Some(stats) => {
                        hash.u64(stats.nodes_visited);
                        hash.u64(stats.prunings);
                        hash.u64(stats.bound_deletions);
                    }
                    None => hash.u64(u64::MAX),
                }
                match &report.network {
                    Some(summary) => {
                        hash.u64(summary.variables as u64);
                        hash.u64(summary.constraints as u64);
                        hash.u64(summary.total_domain_size as u64);
                        hash.u64(summary.search_space.to_bits());
                    }
                    None => hash.u64(u64::MAX),
                }
            }
        }
    }
    hash.0
}

/// One family: its name, the function hashing its outputs and the hash
/// recorded for them.
type Family = (&'static str, fn() -> u64, u64);

/// New families go beside the existing ones.
const GOLDEN: &[Family] = &[
    ("simulator", simulator_family, 0x1a5c_02e2_313e_0fb3),
    ("layout", layout_family, 0x7f5d_8b21_a0f1_4595),
    ("search", search_family, 0x3e2a_a1f9_a8f9_38a9),
];

#[test]
fn golden_outputs_are_unchanged() {
    let drifted: Vec<String> = GOLDEN
        .iter()
        .filter_map(|&(family, hash, expected)| {
            let actual = hash();
            (actual != expected)
                .then(|| format!("{family}: expected {expected:#018x}, got {actual:#018x}"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "golden output families drifted:\n  {}",
        drifted.join("\n  ")
    );
}
