//! Whole programs: a set of arrays plus a sequence of loop nests.

use crate::array::ArrayDecl;
use crate::ids::{ArrayId, NestId};
use crate::nest::LoopNest;
use std::fmt;

/// A whole program for layout-optimization purposes: the declared arrays and
/// the loop nests that access them, in execution order.
///
/// Use [`crate::ProgramBuilder`] to construct programs conveniently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    arrays: Vec<ArrayDecl>,
    nests: Vec<LoopNest>,
}

impl Program {
    /// Creates a program from parts.
    ///
    /// # Panics
    ///
    /// Panics if array or nest ids are not dense indices in declaration
    /// order (the builder guarantees this).
    pub fn new(name: impl Into<String>, arrays: Vec<ArrayDecl>, nests: Vec<LoopNest>) -> Self {
        for (i, a) in arrays.iter().enumerate() {
            assert_eq!(a.id().index(), i, "array ids must be dense and ordered");
        }
        for (i, n) in nests.iter().enumerate() {
            assert_eq!(n.id().index(), i, "nest ids must be dense and ordered");
        }
        Program {
            name: name.into(),
            arrays,
            nests,
        }
    }

    /// The program name (used in reports and benchmark tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All declared arrays.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// All loop nests in execution order.
    pub fn nests(&self) -> &[LoopNest] {
        &self.nests
    }

    /// Looks up an array declaration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::IrError::UnknownArray`] for an id that is out of
    /// range.
    pub fn array(&self, id: ArrayId) -> crate::Result<&ArrayDecl> {
        self.arrays
            .get(id.index())
            .ok_or(crate::IrError::UnknownArray(id))
    }

    /// Looks up a nest.
    ///
    /// # Errors
    ///
    /// Returns [`crate::IrError::UnknownNest`] for an id that is out of
    /// range.
    pub fn nest(&self, id: NestId) -> crate::Result<&LoopNest> {
        self.nests
            .get(id.index())
            .ok_or(crate::IrError::UnknownNest(id))
    }

    /// Total data footprint over all arrays, in bytes.
    pub fn total_data_bytes(&self) -> i64 {
        self.arrays.iter().map(ArrayDecl::size_bytes).sum()
    }

    /// Total data footprint in kilobytes (as the paper's Table 1 reports).
    pub fn total_data_kb(&self) -> f64 {
        self.total_data_bytes() as f64 / 1024.0
    }

    /// The nests that reference a given array.
    pub fn nests_referencing(&self, array: ArrayId) -> Vec<NestId> {
        self.nests
            .iter()
            .filter(|n| n.referenced_arrays().contains(&array))
            .map(|n| n.id())
            .collect()
    }

    /// Total number of references summed over all nests.
    pub fn total_reference_count(&self) -> usize {
        self.nests.iter().map(|n| n.references().len()).sum()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {}:", self.name)?;
        for a in &self.arrays {
            writeln!(f, "  {a}")?;
        }
        for n in &self.nests {
            write!(f, "{n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessBuilder;
    use crate::builder::ProgramBuilder;

    fn two_nest_program() -> Program {
        let mut b = ProgramBuilder::new("p");
        let a = b.array("A", vec![32, 32], 4);
        let c = b.array("C", vec![32, 32], 8);
        let d = b.array("D", vec![64], 4);
        b.nest("n0", vec![("i", 0, 32), ("j", 0, 32)], |n| {
            n.read(
                a,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
            n.write(
                c,
                AccessBuilder::new(2, 2)
                    .row(0, [0, 1])
                    .row(1, [1, 0])
                    .build(),
            );
        });
        b.nest("n1", vec![("i", 0, 64)], |n| {
            n.read(d, AccessBuilder::new(1, 1).row(0, [1]).build());
            n.write(a, AccessBuilder::new(2, 1).row(0, [1]).row(1, [0]).build());
        });
        b.build()
    }

    #[test]
    fn program_accessors() {
        let p = two_nest_program();
        assert_eq!(p.name(), "p");
        assert_eq!(p.arrays().len(), 3);
        assert_eq!(p.nests().len(), 2);
        assert_eq!(p.total_data_bytes(), 32 * 32 * 4 + 32 * 32 * 8 + 64 * 4);
        assert!(p.total_data_kb() > 12.0);
        assert_eq!(p.total_reference_count(), 4);
        assert!(p.array(ArrayId::new(5)).is_err());
        assert!(p.nest(NestId::new(9)).is_err());
        assert_eq!(p.array(ArrayId::new(1)).unwrap().name(), "C");
    }

    #[test]
    fn nest_queries() {
        let p = two_nest_program();
        assert_eq!(
            p.nests_referencing(ArrayId::new(0)),
            vec![NestId::new(0), NestId::new(1)]
        );
        assert_eq!(p.nests_referencing(ArrayId::new(1)), vec![NestId::new(0)]);
    }

    #[test]
    fn display_lists_arrays_and_nests() {
        let p = two_nest_program();
        let s = p.to_string();
        assert!(s.contains("program p"));
        assert!(s.contains("A[32][32]"));
        assert!(s.contains("nest N1"));
    }
}
