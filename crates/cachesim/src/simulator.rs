//! The end-to-end simulator: program + layouts → cycles.

use crate::config::MachineConfig;
use crate::hierarchy::MemoryHierarchy;
use crate::stats::CacheStats;
use crate::trace::{TraceGenerator, TraceOptions};
use crate::{Result, SimError};
use mlo_ir::{LoopTransform, NestId, Program};
use mlo_layout::{quality, LayoutAssignment};
use std::fmt;

/// Per-nest and whole-program simulation results.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Total cycles of the whole program (sub-sampled nests are scaled back
    /// up to their true iteration counts).
    pub total_cycles: u64,
    /// Total simulated data accesses (before scaling).
    pub total_accesses: u64,
    /// L1 data-cache counters.
    pub l1_data: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Per-nest cycles after scaling, indexed by nest id order.
    pub nest_cycles: Vec<(NestId, u64)>,
    /// The loop restructuring used for every nest.
    pub nest_transforms: Vec<(NestId, String)>,
}

impl SimulationReport {
    /// Speedup of this report relative to a baseline (baseline cycles / own
    /// cycles); values above 1.0 mean this run is faster.
    pub fn speedup_over(&self, baseline: &SimulationReport) -> f64 {
        if self.total_cycles == 0 {
            return 1.0;
        }
        baseline.total_cycles as f64 / self.total_cycles as f64
    }

    /// Percentage improvement over a baseline, as the paper reports
    /// (positive = faster than the baseline).
    pub fn improvement_over(&self, baseline: &SimulationReport) -> f64 {
        if baseline.total_cycles == 0 {
            return 0.0;
        }
        (baseline.total_cycles as f64 - self.total_cycles as f64) / baseline.total_cycles as f64
            * 100.0
    }
}

impl fmt::Display for SimulationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles: {}", self.total_cycles)?;
        writeln!(f, "L1D: {}", self.l1_data)?;
        writeln!(f, "L2:  {}", self.l2)
    }
}

/// Replays a program's data accesses through the memory hierarchy under a
/// layout assignment.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: MachineConfig,
    trace_options: TraceOptions,
    /// Whether each nest may use its best legal loop restructuring for the
    /// given layouts (the compiler the paper assumes does exactly that).
    pub allow_restructuring: bool,
}

impl Simulator {
    /// Creates a simulator for a machine configuration.
    pub fn new(config: MachineConfig) -> Self {
        Simulator {
            config,
            trace_options: TraceOptions::default(),
            allow_restructuring: true,
        }
    }

    /// Overrides the trace-generation options.
    pub fn trace_options(mut self, options: TraceOptions) -> Self {
        self.trace_options = options;
        self
    }

    /// Disables per-nest loop restructuring (every nest runs in its original
    /// loop order).  Used for the "Original" baseline column of Table 3.
    pub fn without_restructuring(mut self) -> Self {
        self.allow_restructuring = false;
        self
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Simulates the program under a layout assignment.
    ///
    /// Each nest's compiled address walk streams straight into the cache
    /// hierarchy; no trace is materialized.
    ///
    /// # Errors
    ///
    /// Fails when a cache level has a geometry [`CacheConfig::new`] rejects
    /// (a struct literal can bypass it), when the machine's latencies
    /// overflow a cycle count, when an array has no layout, or when a
    /// layout cannot be linearized.
    ///
    /// [`CacheConfig::new`]: crate::CacheConfig::new
    pub fn simulate(
        &self,
        program: &Program,
        assignment: &LayoutAssignment,
    ) -> Result<SimulationReport> {
        let config = self.config.validated()?;
        let generator = TraceGenerator::new(self.trace_options);
        let plan = generator.plan_memory(program, assignment)?;
        let mut hierarchy = MemoryHierarchy::new(config);
        // The L1 hit latency is hidden by the pipeline; only the stall
        // beyond it costs extra cycles.  `validated` checked that
        // `l1 + l2 + memory` fits.
        let l2_stall = config.l2_latency;
        let memory_stall = config.l2_latency + config.memory_latency;
        let mut total_cycles = 0u64;
        let mut nest_cycles = Vec::new();
        let mut nest_transforms = Vec::new();

        for nest in program.nests() {
            let transform = if self.allow_restructuring {
                quality::best_nest_score(nest, assignment).0
            } else {
                LoopTransform::identity(nest.depth())
            };
            let walk = generator.compile_nest(program, nest.id(), &transform, &plan);
            let before = *hierarchy.l2_stats();
            walk.run(|address| {
                hierarchy.access(address);
            });
            // Every access that reaches L2 either hits there or goes on to
            // memory.
            let after = hierarchy.l2_stats();
            let (l2_hits, memory_accesses) =
                (after.hits - before.hits, after.misses - before.misses);

            // Scale factor: the sub-sampled walk visits fewer iterations
            // than the real nest; cycles are scaled back up so that nests
            // keep their relative weight.
            let simulated_iterations = walk.iterations().max(1) as u64;
            let real_iterations = nest.iteration_count().max(1) as u64;
            let scale = real_iterations as f64 / simulated_iterations as f64;
            // Issue-limited instruction cost per iteration: compute
            // instructions plus one instruction per reference, dual-issued.
            // A nest whose walk is empty is charged one iteration.
            let per_iteration_instructions =
                nest.compute_per_iteration() as u64 + nest.references().len() as u64;
            let issue_cycles_per_iteration =
                per_iteration_instructions.div_ceil(config.issue_width.max(1));
            let overflow = || {
                SimError::InvalidMachineConfig(format!(
                    "the cycles of nest `{}` overflow a u64",
                    nest.name()
                ))
            };
            let cycles = || {
                l2_hits
                    .checked_mul(l2_stall)?
                    .checked_add(memory_accesses.checked_mul(memory_stall)?)?
                    .checked_add(issue_cycles_per_iteration.checked_mul(simulated_iterations)?)
            };
            let nest_cycle_count = cycles().ok_or_else(overflow)?;
            let scaled = (nest_cycle_count as f64 * scale).round() as u64;
            total_cycles = total_cycles.checked_add(scaled).ok_or_else(overflow)?;
            nest_cycles.push((nest.id(), scaled));
            nest_transforms.push((nest.id(), transform.describe()));
        }

        Ok(SimulationReport {
            total_cycles,
            // Every access goes through L1.
            total_accesses: hierarchy.l1_stats().accesses,
            l1_data: *hierarchy.l1_stats(),
            l2: *hierarchy.l2_stats(),
            nest_cycles,
            nest_transforms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlo_ir::{AccessBuilder, ProgramBuilder};
    use mlo_layout::Layout;

    /// A column-wise traversal of a large 2-D array: row-major thrashes,
    /// column-major streams.
    fn column_walk_program() -> Program {
        let n = 256;
        let mut b = ProgramBuilder::new("colwalk");
        let a = b.array("A", vec![n, n], 4);
        // for j { for i { ... A[i][j] ... } }  (i innermost)
        b.nest("walk", vec![("j", 0, n), ("i", 0, n)], |nest| {
            nest.read(
                a,
                AccessBuilder::new(2, 2)
                    .row(0, [0, 1])
                    .row(1, [1, 0])
                    .build(),
            );
        });
        b.build()
    }

    #[test]
    fn matching_layout_beats_mismatched_layout() {
        let p = column_walk_program();
        let a = mlo_ir::ArrayId::new(0);
        let sim = Simulator::new(MachineConfig::date05()).without_restructuring();
        let mut row_major = LayoutAssignment::new();
        row_major.set(a, Layout::row_major(2));
        let mut column_major = LayoutAssignment::new();
        column_major.set(a, Layout::column_major(2));
        let bad = sim.simulate(&p, &row_major).unwrap();
        let good = sim.simulate(&p, &column_major).unwrap();
        assert!(
            good.total_cycles < bad.total_cycles / 2,
            "column-major ({}) should be much faster than row-major ({})",
            good.total_cycles,
            bad.total_cycles
        );
        assert!(good.l1_data.miss_rate() < bad.l1_data.miss_rate());
        assert!(good.speedup_over(&bad) > 2.0);
        assert!(good.improvement_over(&bad) > 50.0);
    }

    #[test]
    fn restructuring_rescues_a_bad_layout() {
        // With restructuring allowed, the simulator interchanges the loops
        // so even the row-major layout streams.
        let p = column_walk_program();
        let a = mlo_ir::ArrayId::new(0);
        let mut row_major = LayoutAssignment::new();
        row_major.set(a, Layout::row_major(2));
        let fixed = Simulator::new(MachineConfig::date05())
            .without_restructuring()
            .simulate(&p, &row_major)
            .unwrap();
        let restructured = Simulator::new(MachineConfig::date05())
            .simulate(&p, &row_major)
            .unwrap();
        assert!(restructured.total_cycles < fixed.total_cycles);
        assert!(restructured
            .nest_transforms
            .iter()
            .any(|(_, t)| t.starts_with("permute")));
    }

    #[test]
    fn report_contains_per_nest_data() {
        let p = column_walk_program();
        let asg = LayoutAssignment::all_row_major(&p);
        let report = Simulator::new(MachineConfig::tiny())
            .simulate(&p, &asg)
            .unwrap();
        assert_eq!(report.nest_cycles.len(), 1);
        assert_eq!(report.nest_transforms.len(), 1);
        assert!(report.total_accesses > 0);
        assert!(!report.to_string().is_empty());
        assert_eq!(report.l1_data.accesses, report.total_accesses);
    }

    #[test]
    fn overflowing_latencies_are_typed_errors() {
        let p = column_walk_program();
        let asg = LayoutAssignment::all_row_major(&p);
        let date05 = Simulator::new(MachineConfig::date05()).without_restructuring();
        assert_eq!(date05.simulate(&p, &asg).unwrap().total_cycles, 5_177_344);
        // `l1 + l2 + memory` overflows; then only the cycles of a nest do
        // (its 65,536 memory accesses times the stall).
        for memory_latency in [u64::MAX - 3, u64::MAX / 1024] {
            let machine = MachineConfig {
                memory_latency,
                ..MachineConfig::date05()
            };
            let result = Simulator::new(machine)
                .without_restructuring()
                .simulate(&p, &asg);
            assert!(
                matches!(&result, Err(SimError::InvalidMachineConfig(_))),
                "memory latency {memory_latency} gave {result:?}"
            );
        }
    }

    #[test]
    fn empty_nests_still_cost_compute_cycles() {
        let mut b = ProgramBuilder::new("compute_only");
        b.nest("spin", vec![("i", 0, 100)], |n| {
            n.compute(8);
        });
        let p = b.build();
        let report = Simulator::new(MachineConfig::date05())
            .simulate(&p, &LayoutAssignment::new())
            .unwrap();
        assert!(report.total_cycles >= 100 * (8 / 2));
        assert_eq!(report.total_accesses, 0);
    }
}
