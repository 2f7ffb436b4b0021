//! Binary constraint networks and the search schemes of the DATE'05 paper.
//!
//! A constraint network `CN = <P, M, S>` (paper, Section 3) consists of a
//! set of variables `P` (the arrays of the program being optimized), a
//! domain `M_i` for every variable (the candidate memory layouts of that
//! array) and a set `S` of **binary constraints**: each `S_ij` lists the
//! allowable *(layout, layout)* pairs for arrays `Q_i` and `Q_j`, one pair
//! per candidate loop restructuring of a nest that references both arrays.
//! A solution assigns one value to every variable such that every constraint
//! that has both endpoints assigned contains the selected pair.
//!
//! This crate is a faithful, reusable implementation of that model plus the
//! search schemes the paper evaluates and the extensions it lists as future
//! work:
//!
//! * [`ConstraintNetwork`] — variables, domains, binary constraints,
//! * [`solver::SearchEngine`] — a configurable depth-first search with
//!   * the **base scheme** (random variable/value order, chronological
//!     backtracking),
//!   * the **enhanced scheme** (most-constraining variable ordering,
//!     least-constraining value ordering, conflict-directed backjumping),
//!   * optional **forward checking** and **AC-3** preprocessing,
//! * [`solver::steal`] — the work-stealing scheduler: one search tree
//!   (satisfy, count or branch and bound) sharded across a worker pool,
//!   with thread-count-independent results,
//! * [`weighted`] — weighted constraint networks solved with branch and
//!   bound (the paper's "give weights to constraints" future direction),
//! * [`bitset`] — the word-packed execution kernel every solver hot path
//!   runs on: per-constraint bit-matrices, per-value support counts,
//!   word-packed live domains ([`BitDomains`]) and the dense
//!   [`WeightKernel`] the weighted hot paths read (no hash probe on
//!   the optimizing path; compiled once, dropped on mutation),
//! * [`random`] — reproducible random-network generators for tests and
//!   scaling benchmarks.
//!
//! # Example: the four-array network of Section 3
//!
//! ```
//! use mlo_csp::{ConstraintNetwork, solver::{SearchEngine, Scheme}};
//!
//! // Domains are candidate layouts, written here as (y1, y2) hyperplane
//! // coefficient pairs.
//! let mut net = ConstraintNetwork::new();
//! let q1 = net.add_variable("Q1", vec![(1, 0), (0, 1), (1, 1)]);
//! let q2 = net.add_variable("Q2", vec![(1, -1), (1, 1)]);
//! let q3 = net.add_variable("Q3", vec![(0, 1), (1, 1), (1, 2)]);
//! let q4 = net.add_variable("Q4", vec![(1, 0), (0, 1), (1, 1)]);
//! net.add_constraint(q1, q2, vec![((1, 0), (1, 1)), ((0, 1), (1, -1))]).unwrap();
//! net.add_constraint(q1, q3, vec![((1, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 2))]).unwrap();
//! net.add_constraint(q1, q4, vec![((1, 0), (1, 0)), ((0, 1), (0, 1))]).unwrap();
//! net.add_constraint(q2, q3, vec![((1, 1), (0, 1)), ((1, -1), (1, 1))]).unwrap();
//! // The paper's S24 lists [(1 0), (0 1)] but (1 0) is not in M2 (a typo in
//! // the published example); we use (1 -1), which keeps the published solution.
//! net.add_constraint(q2, q4, vec![((1, -1), (0, 1)), ((1, 1), (1, 0))]).unwrap();
//! net.add_constraint(q3, q4, vec![((0, 1), (1, 0))]).unwrap();
//!
//! let result = SearchEngine::with_scheme(Scheme::Enhanced).solve(&net);
//! let solution = result.solution.expect("the paper's example network is satisfiable");
//! // The paper's solution: Q1=(1 0), Q2=(1 1), Q3=(0 1), Q4=(1 0).
//! assert_eq!(solution.value(q1), &(1, 0));
//! assert_eq!(solution.value(q2), &(1, 1));
//! assert_eq!(solution.value(q3), &(0, 1));
//! assert_eq!(solution.value(q4), &(1, 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod bitset;
pub mod constraint;
pub mod domain;
pub mod fault;
pub mod network;
pub mod random;
pub mod solver;
pub mod sync;
pub mod weighted;
pub(crate) mod words;

pub use assignment::{Assignment, Solution};
pub use bitset::{
    BitConstraint, BitDomains, BitKernel, KernelEdge, LiveRowMax, WeightConstraint, WeightKernel,
    WeightTable,
};
pub use constraint::BinaryConstraint;
pub use domain::Domain;
pub use fault::{FaultAction, FaultError, FaultPlan, FaultTrigger};
pub use network::{ConstraintNetwork, VarId};
pub use solver::{
    CancelToken, Enumerator, IncumbentObserver, JobPanic, MinConflicts, NetworkSearch, Scheme,
    SearchEngine, SearchLimits, SearchStats, SharedIncumbent, SoftAc3, SoftMark, SolveResult,
    StealCountReport, StealOptimizeReport, StealReport, StealScheduler, StealSolveReport,
    ValueOrdering, VariableOrdering, Wipeout, WorkerPool,
};
pub use sync::lock_or_recover;
pub use weighted::{BranchAndBound, WeightedNetwork};

use std::fmt;
use std::hash::Hash;

/// The bound required of constraint-network values.
///
/// Implemented automatically for every type satisfying the listed traits
/// (memory layouts, small tuples, strings, integers, ...).
pub trait Value: Clone + Eq + Hash + fmt::Debug {}
impl<T: Clone + Eq + Hash + fmt::Debug> Value for T {}

/// Errors produced while building or querying a constraint network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CspError {
    /// A variable id does not belong to the network.
    UnknownVariable(VarId),
    /// A constraint referenced a value that is not in the variable's domain.
    ValueNotInDomain {
        /// The variable whose domain was searched.
        variable: VarId,
        /// Debug rendering of the missing value.
        value: String,
    },
    /// A constraint was declared between a variable and itself.
    SelfConstraint(VarId),
    /// Two known variables share no constraint.
    NoConstraint {
        /// The first variable of the pair.
        first: VarId,
        /// The second variable of the pair.
        second: VarId,
    },
    /// An assignment index was out of range for the variable's domain.
    ValueIndexOutOfRange {
        /// The variable.
        variable: VarId,
        /// The offending index.
        index: usize,
        /// The domain size.
        domain_size: usize,
    },
}

impl fmt::Display for CspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CspError::UnknownVariable(v) => write!(f, "unknown variable {v}"),
            CspError::ValueNotInDomain { variable, value } => {
                write!(f, "value {value} is not in the domain of {variable}")
            }
            CspError::SelfConstraint(v) => {
                write!(f, "constraint endpoints must differ (got {v} twice)")
            }
            CspError::NoConstraint { first, second } => {
                write!(f, "no constraint between {first} and {second}")
            }
            CspError::ValueIndexOutOfRange {
                variable,
                index,
                domain_size,
            } => write!(
                f,
                "value index {index} out of range for {variable} (domain size {domain_size})"
            ),
        }
    }
}

impl std::error::Error for CspError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CspError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = CspError::UnknownVariable(VarId::new(3));
        assert!(e.to_string().contains("x3"));
        let e = CspError::ValueNotInDomain {
            variable: VarId::new(0),
            value: "(1, 0)".to_string(),
        };
        assert!(e.to_string().contains("(1, 0)"));
        let e = CspError::ValueIndexOutOfRange {
            variable: VarId::new(1),
            index: 9,
            domain_size: 2,
        };
        assert!(e.to_string().contains("9"));
        let e = CspError::NoConstraint {
            first: VarId::new(0),
            second: VarId::new(2),
        };
        assert_eq!(e.to_string(), "no constraint between x0 and x2");
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CspError>();
    }
}
