//! The loop-order analysis of one nest: its legal loop orders and, under
//! each, the innermost movement direction of every reference (paper,
//! Sections 2, 3 and 5).

use crate::hyperplane::Layout;
use crate::locality::layout_for_directions;
use mlo_ir::{legal_permutations, ArrayId, LoopNest, LoopTransform, Program};
use mlo_linalg::IntVec;

/// The legal loop orders of one nest and the innermost movement direction
/// of every reference under each of them.
#[derive(Debug, Clone)]
pub struct NestAnalysis {
    iterations: i64,
    arrays: Vec<ArrayId>,
    orders: Vec<LoopTransform>,
    /// `directions[k][r]`: the array of reference `r` and its movement
    /// under order `k`.
    directions: Vec<Vec<(ArrayId, IntVec)>>,
}

impl NestAnalysis {
    /// Analyses one nest under each of its [`legal_permutations`].
    pub fn new(nest: &LoopNest) -> Self {
        let orders = legal_permutations(nest);
        let directions = orders
            .iter()
            .map(|order| {
                nest.references()
                    .iter()
                    .map(|r| {
                        (
                            r.array(),
                            r.access().innermost_direction_under(order.inverse()),
                        )
                    })
                    .collect()
            })
            .collect();
        NestAnalysis {
            iterations: nest.iteration_count(),
            arrays: nest.referenced_arrays(),
            orders,
            directions,
        }
    }

    /// The legal loop orders, identity first: what `order` arguments index.
    pub fn orders(&self) -> &[LoopTransform] {
        &self.orders
    }

    /// The distinct arrays the nest references, in first-appearance order.
    pub fn arrays(&self) -> &[ArrayId] {
        &self.arrays
    }

    /// The preferred layout of `array` under `order` (see
    /// [`preferred_layout_for_array`](crate::locality::preferred_layout_for_array))
    /// from the references whose access rank is its declared rank in
    /// `program`; an undeclared array has none.
    pub fn preferred_layout(
        &self,
        program: &Program,
        order: usize,
        array: ArrayId,
    ) -> Option<Layout> {
        let rank = program.array(array).ok()?.rank();
        layout_for_directions(
            self.directions_to(order, array)
                .filter(|direction| direction.dim() == rank),
        )
    }

    /// The locality score of `order`: the dynamic references whose array's
    /// layout (`layout_of`) keeps their movement in one hyperplane block.
    pub fn score<'l>(
        &self,
        order: usize,
        layout_of: impl Fn(ArrayId) -> Option<&'l Layout>,
    ) -> i64 {
        self.directions[order]
            .iter()
            .filter(|(array, direction)| {
                layout_of(*array).is_some_and(|l| has_locality(direction, l))
            })
            .map(|_| self.iterations)
            .sum()
    }

    /// How many references to `array` lack locality under `layout` in
    /// `order`.
    pub fn references_without_locality(
        &self,
        order: usize,
        array: ArrayId,
        layout: &Layout,
    ) -> usize {
        self.directions_to(order, array)
            .filter(|direction| !has_locality(direction, layout))
            .count()
    }

    fn directions_to(&self, order: usize, array: ArrayId) -> impl Iterator<Item = &IntVec> {
        self.directions[order]
            .iter()
            .filter(move |(a, _)| *a == array)
            .map(|(_, direction)| direction)
    }
}

/// Whether `layout` keeps a reference moving along `direction` in one
/// hyperplane block.  A reference that does not move always has locality
/// (temporal reuse); a layout of another dimensionality never gives it.
fn has_locality(direction: &IntVec, layout: &Layout) -> bool {
    direction.is_zero()
        || (layout.dim() == direction.dim() && layout.preserves_direction(direction))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlo_ir::{AccessBuilder, ProgramBuilder};

    /// The paper's Figure 2 nest plus a 1-D vector and a 2-D array read as
    /// if it were 3-D.
    fn program() -> Program {
        let mut b = ProgramBuilder::new("analysis");
        let q1 = b.array("Q1", vec![16, 8], 4);
        let q2 = b.array("Q2", vec![16, 8], 4);
        let v = b.array("V", vec![8], 4);
        let bad = b.array("Bad", vec![8, 8], 4);
        b.nest("main", vec![("i1", 0, 8), ("i2", 0, 8)], |nest| {
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
            nest.write(v, AccessBuilder::new(1, 2).row(0, [0, 1]).build());
            nest.read(
                bad,
                AccessBuilder::new(3, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .row(2, [1, 1])
                    .build(),
            );
        });
        b.build()
    }

    #[test]
    fn orders_and_preferences_follow_the_paper() {
        let p = program();
        let analysis = NestAnalysis::new(&p.nests()[0]);
        assert_eq!(analysis.orders().len(), 2);
        assert!(analysis.orders()[0].is_identity());
        let [q1, q2, v, bad] = [0, 1, 2, 3].map(ArrayId::new);
        assert_eq!(analysis.arrays(), &[q1, q2, v, bad]);
        // Section 2: diagonal and column-major in the original order,
        // swapped after interchange.
        assert_eq!(
            analysis.preferred_layout(&p, 0, q1),
            Some(Layout::diagonal())
        );
        assert_eq!(
            analysis.preferred_layout(&p, 0, q2),
            Some(Layout::column_major(2))
        );
        assert_eq!(
            analysis.preferred_layout(&p, 1, q1),
            Some(Layout::column_major(2))
        );
        assert_eq!(
            analysis.preferred_layout(&p, 1, q2),
            Some(Layout::diagonal())
        );
        // One-dimensional, rank-mismatched and undeclared arrays have no
        // preference.
        assert_eq!(analysis.preferred_layout(&p, 0, v), None);
        assert_eq!(analysis.preferred_layout(&p, 0, bad), None);
        assert_eq!(analysis.preferred_layout(&p, 0, ArrayId::new(9)), None);
    }

    #[test]
    fn scores_count_references_with_locality() {
        let p = program();
        let analysis = NestAnalysis::new(&p.nests()[0]);
        let [q1, q2] = [0, 1].map(ArrayId::new);
        let diagonal = Layout::diagonal();
        let column = Layout::column_major(2);
        let layout_of = |array: ArrayId| match array.index() {
            0 => Some(&diagonal),
            1 => Some(&column),
            _ => None,
        };
        // Q1 and Q2 have locality in the original order only; V and Bad
        // have no layout.
        assert_eq!(analysis.score(0, layout_of), 2 * 64);
        assert_eq!(analysis.score(1, layout_of), 0);
        assert_eq!(analysis.references_without_locality(0, q1, &column), 1);
        assert_eq!(analysis.references_without_locality(1, q1, &column), 0);
        assert_eq!(analysis.references_without_locality(0, q2, &column), 0);
        // Nothing assigned: every order scores zero.
        assert_eq!(analysis.score(1, |_| None), 0);
    }

    #[test]
    fn locality_needs_a_matching_layout_unless_nothing_moves() {
        let row = IntVec::from(vec![0, 1]);
        assert!(has_locality(&row, &Layout::row_major(2)));
        assert!(!has_locality(&row, &Layout::column_major(2)));
        // A layout of another dimensionality never gives locality.
        assert!(!has_locality(&row, &Layout::row_major(3)));
        // Temporal reuse has locality under any layout.
        assert!(has_locality(&IntVec::zeros(2), &Layout::diagonal()));
        assert!(has_locality(&IntVec::zeros(3), &Layout::row_major(2)));
    }
}
