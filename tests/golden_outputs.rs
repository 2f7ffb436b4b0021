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
//!
//! A change that moves a constant must say which outputs changed and why.

use constraint_layout::layout::heuristic_assignment;
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

/// One family: its name, the function hashing its outputs and the hash
/// recorded for them.
type Family = (&'static str, fn() -> u64, u64);

/// New families go beside the existing ones.
const GOLDEN: &[Family] = &[("simulator", simulator_family, 0x1a5c_02e2_313e_0fb3)];

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
