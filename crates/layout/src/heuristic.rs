//! The heuristic layout-propagation baseline (paper, Section 5).
//!
//! The prior linear-algebra approach the paper compares against
//! (Leung–Zahorjan-style) works as follows: order the nests by an importance
//! criterion, then process them most-important first; for each nest choose
//! the best combination of loop restructuring and memory layouts for the
//! arrays it references, but only *assign* layouts to arrays that earlier
//! (more important) nests have not already fixed.  Layouts therefore
//! propagate from costly nests to cheaper ones and the requirements of the
//! costliest nests always win.

use crate::analysis::NestAnalysis;
use crate::apply::LayoutAssignment;
use crate::hyperplane::Layout;
use mlo_ir::{rank_nests_by_cost, ArrayId, NestId, Program};
use std::time::{Duration, Instant};

/// The outcome of the heuristic baseline.
#[derive(Debug, Clone)]
pub struct HeuristicResult {
    /// The layout chosen for every array.
    pub assignment: LayoutAssignment,
    /// The restructuring chosen for every nest (indexed by nest id), as a
    /// human-readable description.
    pub chosen_transforms: Vec<(NestId, String)>,
    /// The order in which nests were processed (most important first).
    pub processing_order: Vec<NestId>,
    /// Wall-clock time taken.
    pub elapsed: Duration,
}

/// Runs the heuristic baseline on a program.
///
/// Arrays that remain without a preference after all nests are processed
/// (e.g. one-dimensional arrays) receive their canonical row-major layout so
/// the result is always a complete assignment.
pub fn heuristic_assignment(program: &Program) -> HeuristicResult {
    let start = Instant::now();
    let order = rank_nests_by_cost(program);
    let mut assignment = LayoutAssignment::new();
    let mut chosen_transforms: Vec<(NestId, String)> = Vec::new();

    for &nest_id in &order {
        let analysis = NestAnalysis::new(&program.nests()[nest_id.index()]);
        // The best loop order so far, its score and the layouts it fixes.
        let (mut best, mut best_score, mut best_fixed) = (0, None, Vec::new());
        for loop_order in 0..analysis.orders().len() {
            // Tentatively give every not-yet-fixed array its preferred
            // layout under this loop order.
            let newly_fixed: Vec<(ArrayId, Layout)> = analysis
                .arrays()
                .iter()
                .filter(|&&array| !assignment.contains(array))
                .filter_map(|&a| Some((a, analysis.preferred_layout(program, loop_order, a)?)))
                .collect();
            let score = analysis.score(loop_order, |array| {
                let fixed = newly_fixed.iter().find(|(fixed, _)| *fixed == array);
                assignment
                    .layout_of(array)
                    .or(fixed.map(|(_, layout)| layout))
            });
            if best_score.is_none_or(|best_score| score > best_score) {
                (best, best_score, best_fixed) = (loop_order, Some(score), newly_fixed);
            }
        }
        for (array, layout) in best_fixed {
            assignment.set(array, layout);
        }
        chosen_transforms.push((nest_id, analysis.orders()[best].describe()));
    }

    // Complete the assignment with row-major defaults.
    for array in program.arrays() {
        if !assignment.contains(array.id()) {
            assignment.set(array.id(), Layout::row_major(array.rank()));
        }
    }

    HeuristicResult {
        assignment,
        chosen_transforms,
        processing_order: order,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{assignment_score, ideal_score};
    use mlo_ir::{AccessBuilder, ProgramBuilder};

    #[test]
    fn figure2_heuristic_matches_the_paper_derivation() {
        let n = 16;
        let mut b = ProgramBuilder::new("figure2");
        let q1 = b.array("Q1", vec![2 * n, n], 4);
        let q2 = b.array("Q2", vec![2 * n, n], 4);
        b.nest("main", vec![("i1", 0, n), ("i2", 0, n)], |nest| {
            nest.read(
                q1,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 1])
                    .row(1, [0, 1])
                    .build(),
            );
            nest.read(
                q2,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 1])
                    .row(1, [1, 0])
                    .build(),
            );
        });
        let p = b.build();
        let result = heuristic_assignment(&p);
        // One of the two legal orders is chosen; either way both arrays get
        // their preferred layout for that order and the score is ideal.
        assert_eq!(assignment_score(&p, &result.assignment), ideal_score(&p));
        assert_eq!(result.assignment.len(), 2);
        assert_eq!(result.chosen_transforms.len(), 1);
        assert_eq!(result.processing_order, vec![mlo_ir::NestId::new(0)]);
    }

    #[test]
    fn important_nest_wins_layout_conflicts() {
        // Array A is accessed row-wise in a big nest and column-wise in a
        // small one (no legal interchange for the small nest because of an
        // anti-diagonal dependence).  The heuristic must give A the layout
        // the big nest wants.
        let mut b = ProgramBuilder::new("conflict");
        let a = b.array("A", vec![64, 64], 4);
        b.nest("big", vec![("i", 0, 64), ("j", 0, 64)], |nest| {
            nest.read(
                a,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
        });
        b.nest("small", vec![("i", 0, 8), ("j", 0, 8)], |nest| {
            // A[j][i]: wants column-major in the original order.
            nest.read(
                a,
                AccessBuilder::new(2, 2)
                    .row(0, [0, 1])
                    .row(1, [1, 0])
                    .build(),
            );
            // A write/read pair with an anti-diagonal dependence pins the
            // loop order (interchange illegal).
            nest.write(
                a,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
            nest.read(
                a,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .offset(0, -1)
                    .offset(1, 1)
                    .build(),
            );
        });
        let p = b.build();
        let result = heuristic_assignment(&p);
        assert_eq!(
            result.assignment.layout_of(a),
            Some(&Layout::row_major(2)),
            "the costlier nest's preference must win"
        );
        // The big nest is processed first.
        assert_eq!(result.processing_order[0], mlo_ir::NestId::new(0));
    }

    #[test]
    fn assignment_is_always_complete() {
        let mut b = ProgramBuilder::new("sparse");
        let _a = b.array("A", vec![16, 16], 4);
        let _b2 = b.array("B", vec![32], 4);
        let _c = b.array("Unreferenced", vec![4, 4, 4], 8);
        b.nest("empty_like", vec![("i", 0, 4)], |_| {});
        let p = b.build();
        let result = heuristic_assignment(&p);
        for array in p.arrays() {
            assert!(
                result.assignment.contains(array.id()),
                "array {} missing a layout",
                array.name()
            );
        }
        assert!(result.elapsed.as_nanos() > 0);
    }
}
