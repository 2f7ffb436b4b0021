//! Hyperplane-based memory layouts, locality analysis and constraint
//! derivation.
//!
//! This crate implements Sections 2 and 3 of the DATE'05 paper plus the
//! heuristic baseline it compares against:
//!
//! * [`Hyperplane`] / [`Layout`] — the linear-algebraic layout
//!   representation: a layout of a `k`-dimensional array is an ordered set
//!   of hyperplane vectors; two elements share spatial locality when they
//!   lie on the same hyperplane(s),
//! * [`locality`] — deriving the *preferred* layout of an array from the
//!   direction its references move per innermost-loop iteration (the
//!   `(y1 y2) · d1 = (y1 y2) · d2` condition of Section 2),
//! * [`analysis`] — [`ProgramAnalysis`]: every nest's legal loop orders, as
//!   index permutations, and each reference's innermost movement, read from
//!   the access-matrix column of the innermost loop once per distinct
//!   innermost loop (every legal order is a permutation, so orders that put
//!   the same loop innermost move every reference alike), all in a few
//!   vectors shared by the program; and the preferred layouts, derived once
//!   per distinct set of movement directions and interned in a table
//!   indexed by (nest, innermost loop, array).  [`NestAnalysis`] views one
//!   nest: its orders, locality scores and, on demand, an order's
//!   [`LoopTransform`](mlo_ir::LoopTransform).  Candidate enumeration, the
//!   heuristic, best-order scoring and dynamic plans read these tables,
//! * [`candidates`] — enumerating each array's candidate layouts across all
//!   nests and legal loop restructurings (the domains `M_i`),
//! * [`constraints`] — building the binary constraint network `S` whose
//!   pairs are the per-nest, per-restructuring preferred layout
//!   combinations (Section 3),
//! * [`heuristic`] — the Leung–Zahorjan-style layout-propagation baseline
//!   summarized in Section 5,
//! * [`apply`] — turning a chosen layout into a concrete address mapping
//!   (linearization) that the cache simulator replays,
//! * [`quality`] — a static spatial-locality score used by the heuristic
//!   and for quick comparisons without running the simulator,
//! * [`weights`] — weighted constraint networks that favour the layout
//!   requirements of costly nests (the paper's first future direction),
//! * [`dynamic`] — per-segment dynamic layouts with re-layout copy costs
//!   (the paper's second future direction).
//!
//! # Example: Figure 2 of the paper
//!
//! ```
//! use mlo_ir::{ProgramBuilder, AccessBuilder};
//! use mlo_layout::{locality::preferred_layout, Layout};
//! use mlo_ir::LoopTransform;
//!
//! let n = 64;
//! let mut b = ProgramBuilder::new("figure2");
//! let q1 = b.array("Q1", vec![2 * n, n], 4);
//! let q2 = b.array("Q2", vec![2 * n, n], 4);
//! b.nest("main", vec![("i1", 0, n), ("i2", 0, n)], |nest| {
//!     nest.read(q1, AccessBuilder::new(2, 2).row(0, [1, 1]).row(1, [0, 1]).build());
//!     nest.read(q2, AccessBuilder::new(2, 2).row(0, [1, 1]).row(1, [1, 0]).build());
//! });
//! let program = b.build();
//! let nest = &program.nests()[0];
//! let identity = LoopTransform::identity(2);
//!
//! // Q1 wants the diagonal layout (1 -1), Q2 the column-major layout (0 1).
//! let q1_layout = preferred_layout(nest.references()[0].access(), &identity).unwrap();
//! let q2_layout = preferred_layout(nest.references()[1].access(), &identity).unwrap();
//! assert_eq!(q1_layout, Layout::diagonal());
//! assert_eq!(q2_layout, Layout::column_major(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod apply;
pub mod candidates;
pub mod constraints;
pub mod dynamic;
pub mod heuristic;
pub mod hyperplane;
pub mod locality;
#[cfg(test)]
mod oracle;
pub mod quality;
pub mod weights;

pub use analysis::{NestAnalysis, ProgramAnalysis};
pub use apply::{AddressMap, LayoutAssignment};
pub use candidates::{CandidateOptions, CandidateSet};
pub use constraints::{build_network, build_network_from, LayoutNetwork};
pub use dynamic::{dynamic_plan, DynamicOptions, DynamicPlan, Segmentation};
pub use heuristic::{heuristic_assignment, HeuristicResult};
pub use hyperplane::{Hyperplane, Layout};
pub use quality::assignment_score;
pub use weights::{derive_weights, weighted_assignment, WeightOptions, WeightedOutcome};

/// Errors produced by the layout analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// A layout's hyperplane dimensionality does not match the array rank.
    RankMismatch {
        /// The array rank.
        array_rank: usize,
        /// The hyperplane dimensionality found.
        layout_rank: usize,
    },
    /// No layout has been assigned to an array that needs one.
    MissingLayout(mlo_ir::ArrayId),
    /// The layout matrix could not be completed to full rank (degenerate
    /// hyperplanes).
    DegenerateLayout(String),
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::RankMismatch {
                array_rank,
                layout_rank,
            } => write!(
                f,
                "layout hyperplanes have dimension {layout_rank} but the array rank is {array_rank}"
            ),
            LayoutError::MissingLayout(id) => write!(f, "no layout assigned to array {id}"),
            LayoutError::DegenerateLayout(msg) => write!(f, "degenerate layout: {msg}"),
        }
    }
}

impl std::error::Error for LayoutError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, LayoutError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = LayoutError::RankMismatch {
            array_rank: 2,
            layout_rank: 3,
        };
        assert!(e.to_string().contains("rank is 2"));
        let e = LayoutError::MissingLayout(mlo_ir::ArrayId::new(4));
        assert!(e.to_string().contains("Q4"));
        let e = LayoutError::DegenerateLayout("zero hyperplane".into());
        assert!(e.to_string().contains("zero hyperplane"));
    }
}
