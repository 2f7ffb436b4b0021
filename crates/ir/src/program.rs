//! Whole programs: a set of arrays plus a sequence of loop nests.

use crate::array::ArrayDecl;
use crate::ids::{ArrayId, NestId};
use crate::nest::LoopNest;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A whole program for layout-optimization purposes: the declared arrays and
/// the loop nests that access them, in execution order.
///
/// Use [`crate::ProgramBuilder`] to construct programs conveniently.
///
/// A program is immutable once built, so it carries a structural
/// [`fingerprint`](Program::fingerprint) computed once, in
/// [`Program::new`], and its clones share its parts: a clone costs three
/// reference-count bumps. `Hash` writes only the fingerprint. `==`
/// compares fingerprints, then the full structure, which is a pointer
/// check between a program and its clones. So a hash map keyed by programs
/// pays constant time per lookup plus one structural comparison on a hit.
/// `Debug` prints what a derived impl over the name, arrays and nests
/// prints; it omits the fingerprint, a function of those fields.
#[derive(Clone)]
pub struct Program {
    name: Arc<str>,
    arrays: Arc<[ArrayDecl]>,
    nests: Arc<[LoopNest]>,
    fingerprint: u64,
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
        let name = name.into();
        let mut hasher = DefaultHasher::new();
        (&name, &arrays, &nests).hash(&mut hasher);
        Program {
            name: name.into(),
            arrays: arrays.into(),
            nests: nests.into(),
            fingerprint: hasher.finish(),
        }
    }

    /// The 64-bit structural fingerprint: a hash of the name, the arrays and
    /// the nests. Equal programs have equal fingerprints; unequal programs
    /// almost always differ, but may collide, so a fingerprint match is a
    /// hint and `==` decides. Stable within one build of the crate only:
    /// never persist it.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
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

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        // Parts shared with a clone compare by pointer.
        fn same<T: PartialEq + ?Sized>(a: &Arc<T>, b: &Arc<T>) -> bool {
            Arc::ptr_eq(a, b) || **a == **b
        }
        self.fingerprint == other.fingerprint
            && same(&self.name, &other.name)
            && same(&self.arrays, &other.arrays)
            && same(&self.nests, &other.nests)
    }
}

impl Eq for Program {}

impl Hash for Program {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("name", &self.name)
            .field("arrays", &self.arrays)
            .field("nests", &self.nests)
            .finish()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {}:", self.name)?;
        for a in self.arrays.iter() {
            writeln!(f, "  {a}")?;
        }
        for n in self.nests.iter() {
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
    fn debug_output_matches_the_derived_rendering() {
        // The rendering a `#[derive(Debug)]` on the three structural fields
        // gives, which programs printed before they carried a fingerprint.
        mod derived {
            use crate::array::ArrayDecl;
            use crate::nest::LoopNest;

            #[derive(Debug)]
            #[allow(dead_code)] // read only through `Debug`
            pub struct Program {
                pub name: String,
                pub arrays: Vec<ArrayDecl>,
                pub nests: Vec<LoopNest>,
            }
        }
        let p = two_nest_program();
        let mirror = derived::Program {
            name: p.name().to_string(),
            arrays: p.arrays().to_vec(),
            nests: p.nests().to_vec(),
        };
        assert_eq!(format!("{p:?}"), format!("{mirror:?}"));
        assert_eq!(format!("{p:#?}"), format!("{mirror:#?}"));
        assert!(!format!("{p:?}").contains("fingerprint"));
    }

    #[test]
    fn equal_programs_share_a_fingerprint_and_near_copies_do_not() {
        let p = two_nest_program();
        let rebuilt = two_nest_program();
        assert_eq!(p, rebuilt);
        assert_eq!(p.fingerprint(), rebuilt.fingerprint());
        let renamed = Program::new("q", p.arrays().to_vec(), p.nests().to_vec());
        assert_ne!(p, renamed);
        assert_ne!(p.fingerprint(), renamed.fingerprint());
        let mut arrays = p.arrays().to_vec();
        arrays[2] = ArrayDecl::new(ArrayId::new(2), "D", vec![65], 4);
        let resized = Program::new("p", arrays, p.nests().to_vec());
        assert_ne!(p, resized);
        assert_ne!(p.fingerprint(), resized.fingerprint());
    }

    #[test]
    fn clones_share_their_parts() {
        let p = two_nest_program();
        let copy = p.clone();
        assert!(Arc::ptr_eq(&p.arrays, &copy.arrays) && Arc::ptr_eq(&p.nests, &copy.nests));
        assert_eq!(p, copy);
    }

    #[test]
    fn equal_fingerprints_do_not_make_unequal_programs_equal() {
        use std::collections::HashSet;
        let p = two_nest_program();
        // Force a collision: a different program carrying `p`'s fingerprint.
        let mut colliding = Program::new("q", p.arrays().to_vec(), p.nests().to_vec());
        colliding.fingerprint = p.fingerprint;
        assert_ne!(p, colliding);
        let set: HashSet<Program> = [p.clone(), colliding.clone(), p.clone()]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 2);
        assert!(set.contains(&p) && set.contains(&colliding));
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
