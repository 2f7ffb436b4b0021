//! The five array-intensive embedded benchmarks of the paper's Table 1,
//! rebuilt as synthetic affine kernels, plus random program generators.
//!
//! The original benchmark codes (Med-Im04, MxM, Radar, Shape, Track) are
//! proprietary embedded applications; the paper only publishes their
//! domain-level descriptions, the total search-space size ("Domain Size",
//! i.e. the sum of the per-array candidate-layout counts) and the total data
//! size.  Following the substitution rule documented in `DESIGN.md`, each
//! benchmark is reconstructed as a pipeline of affine loop nests that
//!
//! * matches the stated application domain (image reconstruction, triple
//!   matrix multiplication, radar imaging, shape analysis, visual tracking),
//! * approximately matches the published data footprint, and
//! * produces a layout constraint network of roughly the published size,
//!   with genuine inter-nest layout conflicts (different nests prefer
//!   different layouts for shared arrays), which is the phenomenon the
//!   constraint-network approach is designed to resolve.
//!
//! # Example
//!
//! ```
//! use mlo_benchmarks::Benchmark;
//! let program = Benchmark::MxM.program();
//! assert_eq!(program.name(), "MxM");
//! assert!(program.nests().len() >= 3);
//! assert!(Benchmark::MxM.paper_domain_size() == 34);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
pub mod random;
pub mod suite;

pub use random::{near_copy, random_program, ProgramEdit, RandomProgramSpec};
pub use suite::{Benchmark, PaperRow};

#[cfg(test)]
mod tests {
    use super::*;
    use mlo_layout::CandidateSet;

    #[test]
    fn all_benchmarks_build_and_have_arrays_and_nests() {
        for b in Benchmark::all() {
            let p = b.program();
            assert!(!p.arrays().is_empty(), "{} has no arrays", b.name());
            assert!(!p.nests().is_empty(), "{} has no nests", b.name());
            assert_eq!(p.name(), b.name());
        }
    }

    #[test]
    fn data_sizes_are_in_the_published_ballpark() {
        // Within 30% of Table 1's data size.
        for b in Benchmark::all() {
            let p = b.program();
            let kb = p.total_data_kb();
            let target = b.paper_data_kb();
            assert!(
                kb > target * 0.7 && kb < target * 1.3,
                "{}: data size {kb:.1} KB too far from published {target:.1} KB",
                b.name()
            );
        }
    }

    #[test]
    fn domain_sizes_are_in_the_published_ballpark() {
        // Within 40% of Table 1's domain size, using the same candidate
        // options the optimizer defaults to for these benchmarks.
        for b in Benchmark::all() {
            let p = b.program();
            let opts = b.candidate_options();
            let measured = CandidateSet::enumerate(&p, &opts).total_domain_size() as f64;
            let target = b.paper_domain_size() as f64;
            assert!(
                measured > target * 0.6 && measured < target * 1.4,
                "{}: domain size {measured} too far from published {target}",
                b.name()
            );
        }
    }

    #[test]
    fn benchmarks_have_layout_conflicts_to_resolve() {
        // At least one array must be referenced by two or more nests —
        // otherwise the constraint network would be trivial.
        for b in Benchmark::all() {
            let p = b.program();
            let shared = p
                .arrays()
                .iter()
                .filter(|a| p.nests_referencing(a.id()).len() >= 2)
                .count();
            assert!(shared >= 1, "{} has no shared arrays", b.name());
        }
    }

    #[test]
    fn paper_rows_are_recorded_for_every_benchmark() {
        for b in Benchmark::all() {
            let row = b.paper_row();
            assert!(row.heuristic_solution_secs > 0.0);
            assert!(row.base_solution_secs > row.enhanced_solution_secs);
            assert!(row.original_exec_secs > row.heuristic_exec_secs);
            assert!(row.heuristic_exec_secs >= row.base_exec_secs.min(row.enhanced_exec_secs));
        }
    }

    #[test]
    fn candidate_options_include_diagonals_for_image_codes() {
        assert!(Benchmark::MedIm04.candidate_options().include_diagonals);
    }
}
