//! A streaming cache hierarchy and embedded-core timing model.
//!
//! The paper evaluates layout quality by running the optimized codes through
//! SimpleScalar configured as a two-issue embedded processor with separate
//! 8 KB 2-way L1 instruction/data caches (32-byte lines), a unified 64 KB
//! 4-way L2 (64-byte lines) and 1 / 6 / 70-cycle L1 / L2 / memory latencies
//! (Table 3).  SimpleScalar itself is not redistributable here, so this
//! crate substitutes the same cache geometry, the same latencies and a
//! simple in-order 2-issue timing model.  Absolute cycle counts differ from
//! the paper's testbed, but the quantity the experiment depends on — how
//! spatial locality changes with the memory layout — is modelled by the same
//! mechanism.
//!
//! [`Simulator::simulate`] replays a program under a layout assignment
//! without materializing a trace:
//!
//! 1. [`TraceGenerator::plan_memory`] places every array and folds its
//!    [`mlo_layout::AddressMap`] into a linear byte form.
//! 2. Once per nest (under the loop order chosen for it), each reference's
//!    access matrix, offset and address form fold into flat byte
//!    coefficients.  A reference that can leave its array box over the
//!    walked space keeps a per-dimension clamp.
//! 3. The sub-sampled iteration space is walked one innermost-loop row at a
//!    time, in execution order.  Each row is split where some clamp
//!    switches on or off (at most twice per clamped dimension); inside a
//!    segment every address moves by a fixed stride, so the dot products
//!    run once per segment and each access costs one add.  Every address
//!    streams straight into the [`MemoryHierarchy`], whose [`Cache`] levels
//!    are flat tag arrays with true-LRU replacement: empty ways hold a
//!    sentinel tag, and one loop shifts a set down while it searches.
//!
//! Reads and writes are modelled alike: every reference costs one access
//! that allocates its line on a miss, and nothing is written back.
//!
//! * [`Cache`] — one set-associative LRU cache,
//! * [`MemoryHierarchy`] — L1D + unified L2 + main memory,
//! * [`MachineConfig`] — the paper's machine parameters (defaults),
//! * [`trace`] — memory planning and per-nest address walks,
//! * [`Simulator`] — replaying a program and reporting cycles and per-level
//!   hit/miss statistics.
//!
//! # Example
//!
//! ```
//! use mlo_cachesim::{MachineConfig, Simulator};
//! use mlo_ir::{ProgramBuilder, AccessBuilder};
//! use mlo_layout::LayoutAssignment;
//!
//! let mut b = ProgramBuilder::new("demo");
//! let a = b.array("A", vec![64, 64], 4);
//! b.nest("sweep", vec![("i", 0, 64), ("j", 0, 64)], |n| {
//!     n.read(a, AccessBuilder::new(2, 2).row(0, [1, 0]).row(1, [0, 1]).build());
//! });
//! let program = b.build();
//!
//! let row_major = LayoutAssignment::all_row_major(&program);
//! let report = Simulator::new(MachineConfig::date05())
//!     .simulate(&program, &row_major)
//!     .unwrap();
//! assert!(report.total_cycles > 0);
//! assert!(report.l1_data.hit_rate() > 0.8); // unit-stride sweep hits in L1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod hierarchy;
#[cfg(test)]
mod oracle;
pub mod simulator;
pub mod stats;
pub mod trace;

pub use cache::{AccessOutcome, Cache, CacheConfig};
pub use config::MachineConfig;
pub use hierarchy::{HierarchyOutcome, MemoryHierarchy};
pub use simulator::{SimulationReport, Simulator};
pub use stats::CacheStats;
pub use trace::{TraceGenerator, TraceOptions};

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A cache parameter was invalid (zero or not a power of two where one
    /// is required).
    InvalidCacheConfig(String),
    /// The machine's latencies overflow a cycle count: the latency of an
    /// access served by memory, or a nest's cycles.
    InvalidMachineConfig(String),
    /// An array referenced by the program has no layout in the assignment.
    MissingLayout(mlo_ir::ArrayId),
    /// The layout could not be turned into an address map.
    Layout(mlo_layout::LayoutError),
    /// A reference cannot be walked: it names an array the program does
    /// not declare, or indexes one with a subscript count other than the
    /// array's rank.
    MalformedReference {
        /// The nest that makes the reference.
        nest: String,
        /// The array the reference names.
        array: mlo_ir::ArrayId,
        /// How many subscripts the reference has.
        subscripts: usize,
        /// The array's declared rank; `None` when the program does not
        /// declare it.
        declared_rank: Option<usize>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidCacheConfig(msg) => write!(f, "invalid cache configuration: {msg}"),
            SimError::InvalidMachineConfig(msg) => {
                write!(f, "invalid machine configuration: {msg}")
            }
            SimError::MissingLayout(id) => write!(f, "array {id} has no layout assigned"),
            SimError::Layout(e) => write!(f, "layout error: {e}"),
            SimError::MalformedReference {
                nest,
                array,
                subscripts,
                declared_rank,
            } => {
                write!(
                    f,
                    "malformed reference: nest `{nest}` indexes {array} with {subscripts} \
                     subscripts, but "
                )?;
                match declared_rank {
                    Some(rank) => write!(f, "its declared rank is {rank}"),
                    None => write!(f, "the program declares no such array"),
                }
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<mlo_layout::LayoutError> for SimError {
    fn from(e: mlo_layout::LayoutError) -> Self {
        SimError::Layout(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(SimError::InvalidCacheConfig("assoc 0".into())
            .to_string()
            .contains("assoc 0"));
        assert!(SimError::InvalidMachineConfig("latency".into())
            .to_string()
            .contains("invalid machine configuration: latency"));
        assert!(SimError::MissingLayout(mlo_ir::ArrayId::new(2))
            .to_string()
            .contains("Q2"));
        let e: SimError = mlo_layout::LayoutError::MissingLayout(mlo_ir::ArrayId::new(1)).into();
        assert!(e.to_string().contains("layout error"));
        let malformed = |declared_rank| SimError::MalformedReference {
            nest: "main".into(),
            array: mlo_ir::ArrayId::new(0),
            subscripts: 3,
            declared_rank,
        };
        assert!(malformed(Some(2))
            .to_string()
            .contains("nest `main` indexes Q0 with 3 subscripts, but its declared rank is 2"));
        assert!(malformed(None)
            .to_string()
            .contains("the program declares no such array"));
    }
}
