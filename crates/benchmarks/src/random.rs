//! Random affine programs for stress tests and scaling studies.

use crate::generators::{add_stage, Pattern, StageSpec};
use mlo_ir::{AffineAccess, ArrayDecl, ArrayId, LoopNest, NestId, Program, ProgramBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the random program generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomProgramSpec {
    /// Number of 2-D arrays.
    pub arrays: usize,
    /// Number of loop nests.
    pub nests: usize,
    /// Square extent of every array (`n × n`).
    pub extent: i64,
    /// Reads per nest (each from a randomly chosen array and pattern).
    pub reads_per_nest: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomProgramSpec {
    fn default() -> Self {
        RandomProgramSpec {
            arrays: 12,
            nests: 10,
            extent: 32,
            reads_per_nest: 2,
            seed: 7,
        }
    }
}

/// Generates a random program: every nest reads a few random arrays with
/// random patterns and writes another random array row- or column-wise.
///
/// Unlike the curated benchmarks, these networks are *not* guaranteed to be
/// satisfiable — which is exactly what the optimizer's fallback path and the
/// scaling benchmarks need to exercise.
pub fn random_program(spec: &RandomProgramSpec) -> Program {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut b = ProgramBuilder::new(format!("random_{}", spec.seed));
    let arrays: Vec<ArrayId> = (0..spec.arrays.max(2))
        .map(|i| b.array(format!("R{i}"), vec![spec.extent, spec.extent], 4))
        .collect();
    let read_patterns = [
        Pattern::RowWise,
        Pattern::ColumnWise,
        Pattern::DiagonalSkew,
        Pattern::AntiDiagonalSkew,
        Pattern::ShiftedRow,
        Pattern::RowLookup,
    ];
    let write_patterns = [Pattern::RowWise, Pattern::ColumnWise, Pattern::DiagonalSkew];
    for k in 0..spec.nests {
        let mut reads = Vec::new();
        for _ in 0..spec.reads_per_nest.max(1) {
            let array = arrays[rng.gen_range(0..arrays.len())];
            let pattern = read_patterns[rng.gen_range(0..read_patterns.len())];
            reads.push((array, pattern));
        }
        let write_array = arrays[rng.gen_range(0..arrays.len())];
        let write_pattern = write_patterns[rng.gen_range(0..write_patterns.len())];
        add_stage(
            &mut b,
            spec.extent,
            &StageSpec {
                name: format!("nest{k}"),
                reads,
                write: (write_array, write_pattern),
                compute: rng.gen_range(2..8),
            },
        );
    }
    b.build()
}

/// One structural edit [`near_copy`] applies.  Indices wrap modulo the
/// program's arrays, references or nests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramEdit {
    /// None: a structurally equal, separately built copy.
    Unchanged,
    /// The program name gains a suffix.
    Name,
    /// One array's first extent grows by one.
    Extent(usize),
    /// One array's element size doubles.
    ElementSize(usize),
    /// One reference's first access coefficient grows by one.
    Coefficient(usize),
    /// The first nest trades places with another (ids follow the new
    /// order); a one-nest program is left unchanged.
    NestOrder(usize),
}

/// A copy of `program` with one edit applied, rebuilt from its parts: the
/// near-copies that program-identity tests set against the original.
pub fn near_copy(program: &Program, edit: ProgramEdit) -> Program {
    let mut name = program.name().to_string();
    let mut arrays = program.arrays().to_vec();
    let mut order: Vec<&LoopNest> = program.nests().iter().collect();
    let mut bumped_reference = None;
    match edit {
        ProgramEdit::Unchanged => {}
        ProgramEdit::Name => name.push('\''),
        ProgramEdit::Extent(k) | ProgramEdit::ElementSize(k) => {
            let index = k % arrays.len();
            let array = &arrays[index];
            let mut extents = array.extents().to_vec();
            let mut element_size = array.element_size();
            if matches!(edit, ProgramEdit::Extent(_)) {
                extents[0] += 1;
            } else {
                element_size *= 2;
            }
            arrays[index] = ArrayDecl::new(array.id(), array.name(), extents, element_size);
        }
        ProgramEdit::Coefficient(k) => {
            bumped_reference = Some(k % program.total_reference_count().max(1));
        }
        ProgramEdit::NestOrder(k) => {
            let nests = order.len();
            if nests > 1 {
                order.swap(0, 1 + k % (nests - 1));
            }
        }
    }
    let mut reference_index = 0;
    let nests = order
        .into_iter()
        .enumerate()
        .map(|(i, nest)| {
            let mut copy = LoopNest::new(NestId::new(i), nest.name(), nest.loops().to_vec());
            copy.set_compute_per_iteration(nest.compute_per_iteration());
            for reference in nest.references() {
                let mut matrix = reference.access().matrix().clone();
                if bumped_reference == Some(reference_index) {
                    matrix.set(0, 0, matrix.get(0, 0) + 1);
                }
                reference_index += 1;
                let access = AffineAccess::new(matrix, reference.access().offset().clone());
                copy.add_reference(reference.array(), access, reference.kind());
            }
            copy
        })
        .collect();
    Program::new(name, arrays, nests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlo_layout::{build_network, CandidateOptions};

    #[test]
    fn generation_is_reproducible() {
        let spec = RandomProgramSpec::default();
        let a = random_program(&spec);
        let b = random_program(&spec);
        assert_eq!(a, b);
        assert_eq!(a.arrays().len(), spec.arrays);
        assert_eq!(a.nests().len(), spec.nests);
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_program(&RandomProgramSpec::default());
        let b = random_program(&RandomProgramSpec {
            seed: 99,
            ..RandomProgramSpec::default()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn near_copies_differ_by_exactly_their_edit() {
        let p = random_program(&RandomProgramSpec {
            arrays: 4,
            nests: 3,
            extent: 16,
            reads_per_nest: 2,
            seed: 5,
        });
        assert_eq!(near_copy(&p, ProgramEdit::Unchanged), p);
        for edit in [
            ProgramEdit::Name,
            ProgramEdit::Extent(1),
            ProgramEdit::ElementSize(6),
            ProgramEdit::Coefficient(4),
            ProgramEdit::NestOrder(1),
        ] {
            let copy = near_copy(&p, edit);
            assert_ne!(copy, p, "{edit:?}");
            assert_eq!(copy.arrays().len(), p.arrays().len());
            assert_eq!(copy.total_reference_count(), p.total_reference_count());
        }
        assert_eq!(
            near_copy(&p, ProgramEdit::Extent(1)).arrays()[1].extent(0),
            17
        );
        assert_eq!(
            near_copy(&p, ProgramEdit::NestOrder(1)).nests()[0].name(),
            "nest2"
        );
    }

    #[test]
    fn random_programs_build_constraint_networks() {
        let p = random_program(&RandomProgramSpec {
            arrays: 8,
            nests: 6,
            extent: 16,
            reads_per_nest: 2,
            seed: 3,
        });
        let ln = build_network(&p, &CandidateOptions::default());
        assert_eq!(ln.network().variable_count(), 8);
        // Networks derived from multi-nest programs normally have constraints.
        assert!(ln.network().constraint_count() > 0);
    }
}
