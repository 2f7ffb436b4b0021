//! The reference simulator the streaming one replaced, kept as a test
//! oracle: traces materialized as `Vec<MemoryAccess>` through
//! `IntVec` index arithmetic and `HashMap` plan lookups, replayed through a
//! `Vec<Vec<u64>>` LRU.  The differential proptests at the bottom pin the
//! flat [`Cache`] and [`Simulator::simulate`] to it, report for report.

use crate::cache::{AccessOutcome, Cache, CacheConfig};
use crate::config::MachineConfig;
use crate::simulator::{SimulationReport, Simulator};
use crate::stats::CacheStats;
use crate::trace::TraceOptions;
use crate::{Result, SimError};
use mlo_ir::{IterationSpace, LoopTransform, NestId, Program};
use mlo_layout::{quality, AddressMap, LayoutAssignment};
use mlo_linalg::IntVec;
use std::collections::HashMap;

/// One recorded data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryAccess {
    /// Byte address.
    pub address: u64,
    /// Whether the access is a write.
    pub is_write: bool,
}

/// Base addresses and address maps for every array of a program.
#[derive(Debug)]
pub struct MemoryPlan {
    maps: HashMap<mlo_ir::ArrayId, AddressMap>,
    bases: HashMap<mlo_ir::ArrayId, u64>,
}

impl MemoryPlan {
    /// Builds the address maps and base addresses of every array.
    pub fn new(
        options: &TraceOptions,
        program: &Program,
        assignment: &LayoutAssignment,
    ) -> Result<Self> {
        let mut maps = HashMap::new();
        let mut bases = HashMap::new();
        let mut next_base = 0u64;
        for array in program.arrays() {
            let layout = assignment
                .layout_of(array.id())
                .ok_or(SimError::MissingLayout(array.id()))?;
            let map = AddressMap::new(array, layout)?;
            let span = map.span_bytes() as u64;
            bases.insert(array.id(), next_base);
            let align = options.array_alignment.max(1);
            next_base += span.div_ceil(align) * align + align;
            maps.insert(array.id(), map);
        }
        Ok(MemoryPlan { maps, bases })
    }

    /// The byte address of one array element.
    pub fn address_of(&self, array: mlo_ir::ArrayId, index: &IntVec) -> u64 {
        let map = &self.maps[&array];
        let base = self.bases[&array];
        let offset = map.byte_offset(index);
        debug_assert!(offset >= 0, "address map produced a negative offset");
        base + offset as u64
    }
}

/// The trace of one nest under a given restructuring, out-of-box indices
/// clamped to the nearest allocated element.
pub fn nest_trace(
    options: &TraceOptions,
    program: &Program,
    nest_id: NestId,
    transform: &LoopTransform,
    plan: &MemoryPlan,
) -> Vec<MemoryAccess> {
    let nest = &program.nests()[nest_id.index()];
    let walker = IterationSpace::transformed(nest, transform).subsampled(options.max_trip_per_loop);
    let mut trace = Vec::new();
    for iteration in walker {
        for reference in nest.references() {
            let array = program
                .array(reference.array())
                .expect("references only name arrays declared by the program");
            let mut index = reference.access().index_for(&iteration);
            for d in 0..index.dim() {
                index[d] = index[d].clamp(0, array.extent(d) - 1);
            }
            let address = plan.address_of(reference.array(), &index);
            trace.push(MemoryAccess {
                address,
                is_write: reference.is_write(),
            });
        }
    }
    trace
}

/// One set-associative true-LRU cache, one `Vec` of tags per set.
#[derive(Debug, Clone)]
pub struct OracleCache {
    config: CacheConfig,
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl OracleCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = vec![Vec::with_capacity(config.associativity as usize); config.sets() as usize];
        OracleCache {
            config,
            sets,
            stats: CacheStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Accesses a byte address, updating LRU state and statistics.
    pub fn access(&mut self, address: u64) -> AccessOutcome {
        let line = address / self.config.line_bytes;
        let set_index = (line % self.config.sets()) as usize;
        let tag = line / self.config.sets();
        let set = &mut self.sets[set_index];
        self.stats.accesses += 1;
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            let t = set.remove(pos);
            set.insert(0, t);
            self.stats.hits += 1;
            AccessOutcome::Hit
        } else {
            if set.len() as u64 == self.config.associativity {
                set.pop();
                self.stats.evictions += 1;
            }
            set.insert(0, tag);
            self.stats.misses += 1;
            AccessOutcome::Miss
        }
    }
}

/// Replays a program through two [`OracleCache`] levels exactly the way
/// `Simulator::simulate` did before it streamed.
pub fn simulate(
    config: &MachineConfig,
    trace_options: &TraceOptions,
    allow_restructuring: bool,
    program: &Program,
    assignment: &LayoutAssignment,
) -> Result<SimulationReport> {
    let plan = MemoryPlan::new(trace_options, program, assignment)?;
    let mut l1 = OracleCache::new(config.l1_data);
    let mut l2 = OracleCache::new(config.l2);
    let mut total_cycles = 0u64;
    let mut total_accesses = 0u64;
    let mut nest_cycles = Vec::new();
    let mut nest_transforms = Vec::new();

    for nest in program.nests() {
        let transform = if allow_restructuring {
            quality::best_nest_score(nest, assignment).0
        } else {
            LoopTransform::identity(nest.depth())
        };
        let trace = nest_trace(trace_options, program, nest.id(), &transform, &plan);
        let walker = IterationSpace::transformed(nest, &transform)
            .subsampled(trace_options.max_trip_per_loop);
        let simulated_iterations = walker.len().max(1) as u64;
        let real_iterations = nest.iteration_count().max(1) as u64;
        let scale = real_iterations as f64 / simulated_iterations as f64;

        let mut nest_cycle_count = 0u64;
        let per_iteration_instructions =
            nest.compute_per_iteration() as u64 + nest.references().len() as u64;
        let issue_cycles_per_iteration =
            per_iteration_instructions.div_ceil(config.issue_width.max(1));
        let refs_per_iteration = nest.references().len().max(1) as u64;
        let mut access_in_iteration = 0u64;
        for access in &trace {
            let latency = match l1.access(access.address) {
                AccessOutcome::Hit => config.l1_latency,
                AccessOutcome::Miss => match l2.access(access.address) {
                    AccessOutcome::Hit => config.l1_latency + config.l2_latency,
                    AccessOutcome::Miss => {
                        config.l1_latency + config.l2_latency + config.memory_latency
                    }
                },
            };
            nest_cycle_count += latency.saturating_sub(config.l1_latency);
            total_accesses += 1;
            access_in_iteration += 1;
            if access_in_iteration == refs_per_iteration {
                nest_cycle_count += issue_cycles_per_iteration;
                access_in_iteration = 0;
            }
        }
        if trace.is_empty() {
            nest_cycle_count += issue_cycles_per_iteration * simulated_iterations;
        }
        let scaled = (nest_cycle_count as f64 * scale).round() as u64;
        total_cycles += scaled;
        nest_cycles.push((nest.id(), scaled));
        nest_transforms.push((nest.id(), transform.describe()));
    }

    Ok(SimulationReport {
        total_cycles,
        total_accesses,
        l1_data: *l1.stats(),
        l2: *l2.stats(),
        nest_cycles,
        nest_transforms,
    })
}

mod tests {
    use super::*;
    use crate::trace::TraceGenerator;
    use mlo_benchmarks::{random_program, Benchmark, RandomProgramSpec};
    use mlo_ir::{legal_permutations, AccessBuilder, ArrayId, ProgramBuilder};
    use mlo_layout::{heuristic_assignment, Layout};
    use proptest::prelude::*;

    /// Rank-2 arrays cycle through column-major, diagonal and anti-diagonal
    /// by declaration order; every other rank is column-major.
    fn mixed_assignment(program: &Program) -> LayoutAssignment {
        let mut assignment = LayoutAssignment::new();
        for (i, array) in program.arrays().iter().enumerate() {
            let layout = match (array.rank(), i % 3) {
                (2, 1) => Layout::diagonal(),
                (2, 2) => Layout::anti_diagonal(),
                (rank, _) => Layout::column_major(rank),
            };
            assignment.set(array.id(), layout);
        }
        assignment
    }

    fn assignments(program: &Program) -> Vec<(&'static str, LayoutAssignment)> {
        vec![
            ("row-major", LayoutAssignment::all_row_major(program)),
            ("heuristic", heuristic_assignment(program).assignment),
            ("mixed", mixed_assignment(program)),
        ]
    }

    /// Asserts that the streaming simulator's report equals the oracle's,
    /// field by field.
    fn assert_reports_agree(
        machine: MachineConfig,
        trips: i64,
        restructure: bool,
        program: &Program,
        assignment: &LayoutAssignment,
        case: &str,
    ) {
        let options = TraceOptions {
            max_trip_per_loop: trips,
            ..TraceOptions::default()
        };
        let mut simulator = Simulator::new(machine).trace_options(options);
        simulator.allow_restructuring = restructure;
        let fast = simulator.simulate(program, assignment).expect("simulates");
        let slow = simulate(&machine, &options, restructure, program, assignment)
            .expect("oracle simulates");
        assert_eq!(fast.total_cycles, slow.total_cycles, "total cycles: {case}");
        assert_eq!(fast.total_accesses, slow.total_accesses, "accesses: {case}");
        assert_eq!(fast.l1_data, slow.l1_data, "L1 stats: {case}");
        assert_eq!(fast.l2, slow.l2, "L2 stats: {case}");
        assert_eq!(fast.nest_cycles, slow.nest_cycles, "nest cycles: {case}");
        assert_eq!(
            fast.nest_transforms, slow.nest_transforms,
            "nest transforms: {case}"
        );
    }

    /// Every given assignment × restructuring on/off × both paper machines
    /// of one program at one fidelity.
    fn check_program(
        program: &Program,
        assignments: &[(&str, LayoutAssignment)],
        trips: i64,
        restructurings: &[bool],
    ) {
        for (label, assignment) in assignments {
            for (machine_name, machine) in [
                ("date05", MachineConfig::date05()),
                ("tiny", MachineConfig::tiny()),
            ] {
                for &restructure in restructurings {
                    let case = format!(
                        "{} / {label} / {trips} trips / {machine_name} / restructuring {restructure}",
                        program.name()
                    );
                    assert_reports_agree(machine, trips, restructure, program, assignment, &case);
                }
            }
        }
    }

    fn check_everything(program: &Program, trips: i64) {
        check_program(program, &assignments(program), trips, &[true, false]);
    }

    /// Asserts that the flat cache and the oracle LRU agree on every outcome
    /// and on the final counters.
    fn assert_caches_agree(config: CacheConfig, addresses: &[u64]) {
        let mut fast = Cache::new(config);
        let mut slow = OracleCache::new(config);
        for (i, &address) in addresses.iter().enumerate() {
            assert_eq!(
                fast.access(address),
                slow.access(address),
                "access {i} (address {address:#x}) under {config:?}"
            );
        }
        assert_eq!(fast.stats(), slow.stats(), "final stats under {config:?}");
    }

    /// Random programs whose `n × n` arrays and nests have `n < max_extent`.
    fn random_spec(max_extent: i64) -> impl Strategy<Value = RandomProgramSpec> {
        (
            2usize..7,
            1usize..5,
            3i64..max_extent,
            (1usize..4, 0u64..1_000_000),
        )
            .prop_map(|(arrays, nests, extent, (reads_per_nest, seed))| {
                RandomProgramSpec {
                    arrays,
                    nests,
                    extent,
                    reads_per_nest,
                    seed,
                }
            })
    }

    fn fidelity() -> impl Strategy<Value = i64> {
        prop_oneof![Just(8i64), Just(64), Just(256)]
    }

    /// A valid geometry: 1–8 ways, 1–128-byte lines, 1–64 sets.
    fn geometry() -> impl Strategy<Value = CacheConfig> {
        (1u64..9, 0u32..8, 0u32..7).prop_map(|(ways, line_log, sets_log)| {
            let line = 1u64 << line_log;
            CacheConfig::new(ways * line * (1u64 << sets_log), ways, line)
                .expect("powers of two divide evenly")
        })
    }

    /// Addresses clustered in four hot regions, so every geometry sees hits,
    /// conflicts and evictions: two at the bottom of the address space, one
    /// just below its top and the last 64 addresses, whose tags reach
    /// all-ones under 1-byte lines in a single set.
    fn address_stream(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(
            (0u64..4, 0u64..4096).prop_map(|(region, offset)| match region {
                0 | 1 => region * 0x1_0000 + offset,
                2 => u64::MAX - 0x1_0000 - offset,
                _ => u64::MAX - offset % 64,
            }),
            1..max_len,
        )
    }

    /// Every address each nest streams under every legal loop order equals
    /// the oracle trace's, under each assignment.
    fn assert_walks_match_the_oracle(
        program: &Program,
        assignments: &[(&str, LayoutAssignment)],
        options: TraceOptions,
    ) {
        let generator = TraceGenerator::new(options);
        for (label, assignment) in assignments {
            let plan = generator.plan_memory(program, assignment).unwrap();
            let oracle_plan = MemoryPlan::new(&options, program, assignment).unwrap();
            for nest in program.nests() {
                for transform in legal_permutations(nest) {
                    let trace = nest_trace(&options, program, nest.id(), &transform, &oracle_plan);
                    let mut streamed = Vec::new();
                    generator
                        .compile_nest(program, nest.id(), &transform, &plan)
                        .unwrap()
                        .run(|address| streamed.push(address));
                    let expected: Vec<u64> = trace.iter().map(|a| a.address).collect();
                    assert_eq!(
                        streamed,
                        expected,
                        "{program:?} / {label} / {} trips / nest {} / {transform}",
                        options.max_trip_per_loop,
                        nest.name()
                    );
                }
            }
        }
    }

    /// One loop: a lower bound in -3..=3 and 1–7 or 32 trips.
    fn loop_bounds() -> impl Strategy<Value = (i64, i64)> {
        (-3i64..4, prop_oneof![1i64..8, Just(32i64)])
            .prop_map(|(lower, trips)| (lower, lower + trips))
    }

    /// One reference: which array (modulo the array count), whether it
    /// writes, its coefficients (`[d * 4 + level]` for dimension `d` and
    /// loop `level`; zeros and negatives included) and its offsets.
    type RefSpec = (usize, bool, Vec<i64>, Vec<i64>);

    fn reference_spec() -> impl Strategy<Value = RefSpec> {
        (
            0usize..3,
            any::<bool>(),
            proptest::collection::vec(-2i64..3, 12),
            proptest::collection::vec(-6i64..7, 3),
        )
    }

    /// One nest of depth 0–4 with 1–4 references to 1–3 arrays of rank 1–3
    /// and extents 1–9.  Negative lower bounds, zero and negative
    /// coefficients and offsets push subscripts out of the array box on
    /// either side, so clamps switch on and off in the middle of a row.
    fn nest_program() -> impl Strategy<Value = Program> {
        (
            proptest::collection::vec(loop_bounds(), 0..5),
            proptest::collection::vec((1usize..4, proptest::collection::vec(1i64..10, 3)), 1..4),
            proptest::collection::vec(reference_spec(), 1..5),
        )
            .prop_map(|(loops, arrays, references)| {
                const NAMES: [&str; 4] = ["i", "j", "k", "l"];
                let mut b = ProgramBuilder::new("nest");
                let arrays: Vec<(ArrayId, usize)> = arrays
                    .iter()
                    .enumerate()
                    .map(|(i, (rank, extents))| {
                        (
                            b.array(format!("A{i}"), extents[..*rank].to_vec(), 4),
                            *rank,
                        )
                    })
                    .collect();
                let depth = loops.len();
                let loops = loops
                    .iter()
                    .zip(NAMES)
                    .map(|(&(lower, upper), name)| (name, lower, upper))
                    .collect();
                b.nest("n", loops, |n| {
                    for (pick, write, coefficients, offsets) in references {
                        let (array, rank) = arrays[pick % arrays.len()];
                        let mut access = AccessBuilder::new(rank, depth);
                        for d in 0..rank {
                            for level in 0..depth {
                                access = access.coeff(d, level, coefficients[d * 4 + level]);
                            }
                            access = access.offset(d, offsets[d]);
                        }
                        if write {
                            n.write(array, access.build());
                        } else {
                            n.read(array, access.build());
                        }
                    }
                });
                b.build()
            })
    }

    /// Walks of generated nests against the oracle trace under every legal
    /// order, row-major, column-major and mixed, at full fidelity and
    /// sub-sampled (strides of 5 over 32 trips).
    fn check_nest_walks(program: &Program, trips: i64) {
        let column_major = {
            let mut assignment = LayoutAssignment::new();
            for array in program.arrays() {
                assignment.set(array.id(), Layout::column_major(array.rank()));
            }
            assignment
        };
        let assignments = [
            ("row-major", LayoutAssignment::all_row_major(program)),
            ("column-major", column_major),
            ("mixed", mixed_assignment(program)),
        ];
        let options = TraceOptions {
            max_trip_per_loop: trips,
            ..TraceOptions::default()
        };
        assert_walks_match_the_oracle(program, &assignments, options);
    }

    fn walk_fidelity() -> impl Strategy<Value = i64> {
        prop_oneof![Just(7i64), Just(256)]
    }

    /// A program whose references leave their array box (boundary shifts and
    /// skews), plus a reference-free nest and an empty nest.
    fn edge_program() -> Program {
        let mut b = ProgramBuilder::new("edges");
        let a = b.array("A", vec![6, 5], 4);
        let v = b.array("V", vec![7], 8);
        b.nest("shifted", vec![("i", 0, 9), ("j", -2, 7)], |n| {
            n.read(
                a,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .offset(1, -1)
                    .build(),
            );
            n.read(
                a,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 1])
                    .row(1, [0, 1])
                    .build(),
            );
            n.write(v, AccessBuilder::new(1, 2).row(0, [2, -1]).build());
        });
        b.nest("compute", vec![("i", 0, 300)], |n| n.compute(5));
        b.nest("empty", vec![("i", 4, 4)], |n| {
            n.read(v, AccessBuilder::new(1, 1).row(0, [1]).build());
        });
        b.build()
    }

    #[test]
    fn every_paper_program_matches_the_oracle() {
        for benchmark in Benchmark::all() {
            check_everything(&benchmark.program(), 8);
        }
    }

    #[test]
    #[ignore = "heavy: every paper program at 64 and 256 trips under every configuration"]
    fn every_paper_program_matches_the_oracle_heavy() {
        for benchmark in Benchmark::all() {
            let program = benchmark.program();
            for trips in [64, 256] {
                check_everything(&program, trips);
            }
        }
    }

    #[test]
    fn clamped_and_degenerate_nests_match_the_oracle() {
        let program = edge_program();
        for trips in [1, 2, 3, 8, 256] {
            check_everything(&program, trips);
        }
        // A depth-0 nest runs its body once (the locality model needs a
        // loop, so it stays in its original order).
        let mut b = ProgramBuilder::new("scalar");
        let v = b.array("V", vec![7], 8);
        b.nest("scalar", vec![], |n| {
            n.read(v, AccessBuilder::new(1, 0).offset(0, 9).build());
            n.write(v, AccessBuilder::new(1, 0).offset(0, 2).build());
        });
        let program = b.build();
        let row_major = [("row-major", LayoutAssignment::all_row_major(&program))];
        check_program(&program, &row_major, 8, &[false]);
    }

    #[test]
    fn walks_stream_the_oracle_trace_under_every_legal_order() {
        let options = TraceOptions {
            max_trip_per_loop: 7,
            ..TraceOptions::default()
        };
        for program in [edge_program(), Benchmark::MedIm04.program()] {
            assert_walks_match_the_oracle(&program, &assignments(&program), options);
        }
    }

    #[test]
    fn oracle_traces_record_reads_and_writes() {
        let program = edge_program();
        let options = TraceOptions::default();
        let assignment = LayoutAssignment::all_row_major(&program);
        let plan = MemoryPlan::new(&options, &program, &assignment).unwrap();
        let trace = nest_trace(
            &options,
            &program,
            NestId::new(0),
            &LoopTransform::identity(2),
            &plan,
        );
        assert_eq!(trace.len(), 9 * 9 * 3);
        assert!(trace.iter().any(|a| a.is_write));
        assert!(trace.iter().any(|a| !a.is_write));
        assert_eq!(
            trace[0].address,
            plan.address_of(ArrayId::new(0), &IntVec::from(vec![0, 0]))
        );
    }

    #[test]
    fn the_flat_cache_matches_the_oracle_on_the_paper_machines() {
        let addresses: Vec<u64> = (0..20_000u64)
            .map(|i| (i * 2_654_435_761) % (256 * 1024) + (i % 7) * 4)
            .collect();
        for config in [
            MachineConfig::date05().l1_data,
            MachineConfig::date05().l2,
            MachineConfig::tiny().l1_data,
            MachineConfig::tiny().l2,
        ] {
            assert_caches_agree(config, &addresses);
        }
    }

    #[test]
    fn the_flat_cache_matches_the_oracle_on_all_ones_tags() {
        // With 1-byte lines in a single set every u64 is a tag, the empty
        // ways' sentinel included.
        let top: Vec<u64> = (0..2_000u64)
            .map(|i| u64::MAX - ((i * 2_654_435_761) >> 7) % 9)
            .collect();
        for ways in [1, 2, 3, 8] {
            let config = CacheConfig::new(ways, ways, 1).unwrap();
            assert_caches_agree(config, &[u64::MAX, u64::MAX, u64::MAX - 1, u64::MAX]);
            assert_caches_agree(config, &top);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn random_programs_match_the_oracle(spec in random_spec(48), trips in fidelity()) {
            check_everything(&random_program(&spec), trips);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn generated_nest_walks_match_the_oracle(
            program in nest_program(),
            trips in walk_fidelity(),
        ) {
            check_nest_walks(&program, trips);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_flat_cache_matches_the_oracle(
            config in geometry(),
            addresses in address_stream(600),
        ) {
            assert_caches_agree(config, &addresses);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        #[ignore = "heavy: 256 random programs"]
        fn random_programs_match_the_oracle_heavy(
            spec in random_spec(300),
            trips in fidelity(),
        ) {
            check_everything(&random_program(&spec), trips);
        }

        #[test]
        #[ignore = "heavy: 256 generated nests"]
        fn generated_nest_walks_match_the_oracle_heavy(
            program in nest_program(),
            trips in walk_fidelity(),
        ) {
            check_nest_walks(&program, trips);
        }

        #[test]
        #[ignore = "heavy: 256 random geometries and address streams"]
        fn the_flat_cache_matches_the_oracle_heavy(
            config in geometry(),
            addresses in address_stream(5_000),
        ) {
            assert_caches_agree(config, &addresses);
        }
    }
}
