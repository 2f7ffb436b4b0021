//! Static spatial-locality scoring.
//!
//! A cheap cost model used by the heuristic baseline and for quick
//! comparisons between layout assignments without running the cache
//! simulator: a reference scores its nest's iteration count when the chosen
//! layout keeps its innermost-loop movement inside one hyperplane block
//! (spatial or temporal locality), and zero otherwise.

use crate::analysis::NestAnalysis;
use crate::apply::LayoutAssignment;
use mlo_ir::{LoopNest, LoopTransform, Program};

/// The best achievable locality score of a nest over its legal
/// restructurings (see [`NestAnalysis::score`]), together with the first
/// transform achieving it.  References to arrays without an assigned layout
/// count as having no locality (the conservative choice).
pub fn best_nest_score(nest: &LoopNest, assignment: &LayoutAssignment) -> (LoopTransform, i64) {
    let analysis = NestAnalysis::new(nest);
    let layout_of = |array| assignment.layout_of(array);
    let mut best = (0, analysis.score(0, layout_of));
    for order in 1..analysis.orders().len() {
        let score = analysis.score(order, layout_of);
        if score > best.1 {
            best = (order, score);
        }
    }
    (analysis.orders()[best.0].clone(), best.1)
}

/// The program-wide locality score of a layout assignment: the sum over all
/// nests of the best per-nest score (each nest may pick its own legal
/// restructuring, exactly as a compiler applying the layouts would).
pub fn assignment_score(program: &Program, assignment: &LayoutAssignment) -> i64 {
    program
        .nests()
        .iter()
        .map(|nest| best_nest_score(nest, assignment).1)
        .sum()
}

/// The maximum possible score of a program: every dynamic reference enjoys
/// locality.  Useful to report scores as fractions.
pub fn ideal_score(program: &Program) -> i64 {
    program
        .nests()
        .iter()
        .map(|n| n.iteration_count() * n.references().len() as i64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperplane::Layout;
    use mlo_ir::{AccessBuilder, ArrayId, ProgramBuilder};

    fn figure2_program() -> Program {
        let n = 8;
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
        b.build()
    }

    #[test]
    fn perfect_assignment_reaches_ideal_score() {
        let p = figure2_program();
        let mut asg = LayoutAssignment::new();
        asg.set(ArrayId::new(0), Layout::diagonal());
        asg.set(ArrayId::new(1), Layout::column_major(2));
        assert_eq!(assignment_score(&p, &asg), ideal_score(&p));
        assert_eq!(ideal_score(&p), 8 * 8 * 2);
    }

    #[test]
    fn poor_assignment_scores_lower() {
        let p = figure2_program();
        let mut good = LayoutAssignment::new();
        good.set(ArrayId::new(0), Layout::diagonal());
        good.set(ArrayId::new(1), Layout::column_major(2));
        let mut poor = LayoutAssignment::new();
        poor.set(ArrayId::new(0), Layout::row_major(2));
        poor.set(ArrayId::new(1), Layout::row_major(2));
        assert!(assignment_score(&p, &poor) < assignment_score(&p, &good));
    }

    #[test]
    fn missing_layouts_score_zero() {
        let p = figure2_program();
        let empty = LayoutAssignment::new();
        assert_eq!(assignment_score(&p, &empty), 0);
        let (transform, score) = best_nest_score(&p.nests()[0], &empty);
        assert!(transform.is_identity());
        assert_eq!(score, 0);
    }

    #[test]
    fn best_nest_score_considers_interchange() {
        // With Q1 forced to column-major, the original order gives Q1 no
        // locality but interchanging does; best_nest_score must find it.
        let p = figure2_program();
        let nest = &p.nests()[0];
        let mut asg = LayoutAssignment::new();
        asg.set(ArrayId::new(0), Layout::column_major(2));
        asg.set(ArrayId::new(1), Layout::diagonal());
        let identity_score = NestAnalysis::new(nest).score(0, |array| asg.layout_of(array));
        let (best_transform, best) = best_nest_score(nest, &asg);
        assert!(best > identity_score);
        assert!(!best_transform.is_identity());
        assert_eq!(best, ideal_score(&p));
    }
}
