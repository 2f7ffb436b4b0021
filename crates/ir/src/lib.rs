//! Affine loop-nest and array-reference intermediate representation.
//!
//! The DATE'05 constraint-network layout optimizer does not need a full
//! compiler IR; it needs exactly the information that determines spatial
//! locality and the legality of loop restructuring:
//!
//! * which **arrays** a program declares ([`ArrayDecl`]: dimensionality,
//!   extents, element size),
//! * the **affine accesses** each loop nest makes to those arrays
//!   ([`AffineAccess`]: `index = A · iteration + offset`),
//! * the **loop nests** themselves ([`LoopNest`]: rectangular bounds, the
//!   references in the body, an instruction-cost estimate),
//! * **data dependences** between references to decide which loop
//!   transformations are legal, and the legal loop orders of a nest as
//!   index permutations, at most `8!` per nest ([`dependence`]),
//! * candidate **loop transformations** (unimodular matrices, in particular
//!   permutations) and their effect on accesses ([`transform`]),
//! * a **cost model** ranking nests by importance ([`cost`]), which the
//!   heuristic baseline of the paper uses to order its layout propagation,
//! * an **iteration-space walker** used by the cache simulator to generate
//!   address traces ([`iteration`]).
//!
//! # Example
//!
//! The paper's Figure 2 nest:
//!
//! ```text
//! for (i1 = 0; i1 < N; i1++)
//!   for (i2 = 0; i2 < N; i2++)
//!     ... Q1[i1+i2][i2] ... Q2[i1+i2][i1] ...
//! ```
//!
//! ```
//! use mlo_ir::{ProgramBuilder, AccessBuilder};
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
//! assert_eq!(program.arrays().len(), 2);
//! assert_eq!(program.nests().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod array;
pub mod builder;
pub mod cost;
pub mod dependence;
pub mod ids;
pub mod iteration;
pub mod nest;
#[cfg(test)]
mod oracle;
pub mod program;
pub mod reference;
pub mod transform;

pub use access::{AccessBuilder, AffineAccess};
pub use array::ArrayDecl;
pub use builder::{NestBuilder, ProgramBuilder};
pub use cost::{nest_cost, rank_nests_by_cost};
pub use dependence::{DependenceAnalysis, DependenceKind, DistanceVector, MAX_EXAMINED_ORDERS};
pub use ids::{ArrayId, NestId, RefId};
pub use iteration::IterationSpace;
pub use nest::{Loop, LoopNest};
pub use program::Program;
pub use reference::{AccessKind, ArrayRef};
pub use transform::{all_permutations, legal_permutations, LoopTransform, TransformKind};

/// Errors produced while constructing or transforming IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// An access matrix's column count does not match the nest depth.
    AccessDepthMismatch {
        /// Loop-nest depth.
        nest_depth: usize,
        /// Number of columns of the offending access matrix.
        access_cols: usize,
    },
    /// An access matrix's row count does not match the array rank.
    AccessRankMismatch {
        /// Array rank (number of dimensions).
        array_rank: usize,
        /// Number of rows of the offending access matrix.
        access_rows: usize,
    },
    /// An array id refers to no declared array.
    UnknownArray(ArrayId),
    /// A nest id refers to no nest in the program.
    UnknownNest(NestId),
    /// A transformation matrix is not unimodular or has the wrong shape.
    InvalidTransform(String),
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::AccessDepthMismatch {
                nest_depth,
                access_cols,
            } => write!(
                f,
                "access matrix has {access_cols} columns but the nest depth is {nest_depth}"
            ),
            IrError::AccessRankMismatch {
                array_rank,
                access_rows,
            } => write!(
                f,
                "access matrix has {access_rows} rows but the array rank is {array_rank}"
            ),
            IrError::UnknownArray(id) => write!(f, "unknown array id {id:?}"),
            IrError::UnknownNest(id) => write!(f, "unknown nest id {id:?}"),
            IrError::InvalidTransform(msg) => write!(f, "invalid loop transform: {msg}"),
        }
    }
}

impl std::error::Error for IrError {}

/// Convenience result alias for IR operations.
pub type Result<T> = std::result::Result<T, IrError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = IrError::AccessDepthMismatch {
            nest_depth: 2,
            access_cols: 3,
        };
        assert!(e.to_string().contains("3 columns"));
        let e = IrError::UnknownArray(ArrayId::new(7));
        assert!(e.to_string().contains("7"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IrError>();
    }
}
