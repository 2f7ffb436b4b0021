//! The loop-order analysis of one nest — its legal loop orders and, under
//! each, the innermost movement direction of every reference (paper,
//! Sections 2, 3 and 5) — and of a whole program, whose preferred layouts
//! are derived once per distinct set of movement directions.

use crate::hyperplane::Layout;
use crate::locality::{layout_for_moving, moving_directions};
use mlo_ir::{legal_permutations, ArrayId, LoopNest, LoopTransform, NestId, Program};
use mlo_linalg::IntVec;
use std::collections::HashMap;

/// The legal loop orders of one nest and the innermost movement direction
/// of every reference under each of them.
///
/// Every legal order is a permutation, so under an order a reference moves
/// along the access-matrix column of the loop that the order puts
/// innermost.  The movements are therefore kept once per innermost loop,
/// and orders that put the same loop innermost share them, together with
/// their preferred layouts and locality scores.
#[derive(Debug, Clone)]
pub struct NestAnalysis {
    iterations: i64,
    arrays: Vec<ArrayId>,
    orders: Vec<LoopTransform>,
    /// `innermost[k]`: the index in `movements` of the loop order `k` puts
    /// innermost.  Indices are numbered in order of first appearance.
    innermost: Vec<usize>,
    /// `movements[l][r]`: the array of reference `r` and its movement per
    /// step of the `l`-th distinct innermost loop, in order of first
    /// appearance among the orders.
    movements: Vec<Vec<(ArrayId, IntVec)>>,
}

impl NestAnalysis {
    /// Analyses one nest under each of its [`legal_permutations`].
    pub fn new(nest: &LoopNest) -> Self {
        let orders = legal_permutations(nest);
        // `None` only for a nest without loops.
        let innermost_loop = |order: &LoopTransform| {
            let permutation = order
                .permutation_order()
                .expect("legal loop orders are permutations");
            permutation.last().copied()
        };
        let mut innermost: Vec<usize> = Vec::with_capacity(orders.len());
        let mut movements: Vec<Vec<(ArrayId, IntVec)>> = Vec::new();
        for order in &orders {
            let inner = innermost_loop(order);
            let earlier = orders
                .iter()
                .zip(&innermost)
                .find(|(earlier, _)| innermost_loop(earlier) == inner);
            let index = match earlier {
                Some((_, &index)) => index,
                None => {
                    movements.push(
                        nest.references()
                            .iter()
                            .map(|r| {
                                (
                                    r.array(),
                                    r.access().innermost_direction_under(order.inverse()),
                                )
                            })
                            .collect(),
                    );
                    movements.len() - 1
                }
            };
            innermost.push(index);
        }
        NestAnalysis {
            iterations: nest.iteration_count(),
            arrays: nest.referenced_arrays(),
            orders,
            innermost,
            movements,
        }
    }

    /// The legal loop orders, identity first: what `order` arguments index.
    pub fn orders(&self) -> &[LoopTransform] {
        &self.orders
    }

    /// The first order that puts each loop innermost, in increasing order
    /// (so the identity, order 0, comes first).  Every other order puts the
    /// same loop innermost as one of these, and so has the same movements,
    /// preferred layouts and scores.
    pub fn first_orders(&self) -> impl Iterator<Item = usize> + '_ {
        let mut seen = 0;
        self.innermost
            .iter()
            .enumerate()
            .filter(move |&(_, &index)| {
                let first = index == seen;
                seen += usize::from(first);
                first
            })
            .map(|(order, _)| order)
    }

    /// The distinct arrays the nest references, in first-appearance order.
    pub fn arrays(&self) -> &[ArrayId] {
        &self.arrays
    }

    /// The locality score of `order`: the dynamic references whose array's
    /// layout (`layout_of`) keeps their movement in one hyperplane block.
    pub fn score<'l>(
        &self,
        order: usize,
        layout_of: impl Fn(ArrayId) -> Option<&'l Layout>,
    ) -> i64 {
        self.movements_under(order)
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
        self.movements_under(order)
            .iter()
            .filter(|(a, direction)| *a == array && !has_locality(direction, layout))
            .count()
    }

    /// Every reference's array and movement under `order`.
    fn movements_under(&self, order: usize) -> &[(ArrayId, IntVec)] {
        &self.movements[self.innermost[order]]
    }
}

/// The loop-order analyses of every nest of one program and the layout
/// each nest prefers for each array it references under each loop order.
///
/// A preferred layout depends only on the movement directions of the
/// array's references, and a program has few distinct sets of them, so
/// each set's layout is derived once.  The layouts are interned: equal
/// layouts share one index, and [`ProgramAnalysis::layout`] resolves it.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    nests: Vec<NestAnalysis>,
    layouts: Vec<Layout>,
    /// By (nest, distinct innermost loop, array of the nest): the index of
    /// the layout the nest prefers for the array when that loop runs
    /// innermost.
    preferred: Vec<Option<usize>>,
    /// Where each nest's entries start in `preferred`.
    starts: Vec<usize>,
}

impl ProgramAnalysis {
    /// Analyses every nest of `program`.  A nest's preferred layout for an
    /// array (see
    /// [`preferred_layout_for_array`](crate::locality::preferred_layout_for_array))
    /// reads only the references whose access rank is the array's declared
    /// rank; an undeclared array has none.
    pub fn new(program: &Program) -> Self {
        let nests: Vec<NestAnalysis> = program.nests().iter().map(NestAnalysis::new).collect();
        let mut layouts = Vec::new();
        // Each derived set of moving directions, flattened into one key of
        // (dimension, components...) runs, and its layout's index.
        let mut derived: HashMap<Vec<i64>, usize> = HashMap::new();
        let (mut moving, mut key) = (Vec::new(), Vec::new());
        let mut preferred = Vec::new();
        let mut starts = Vec::with_capacity(nests.len());
        for nest in &nests {
            starts.push(preferred.len());
            for movements in &nest.movements {
                for &array in &nest.arrays {
                    let index = program.array(array).ok().and_then(|declared| {
                        moving_directions(
                            movements
                                .iter()
                                .filter(|(a, d)| *a == array && d.dim() == declared.rank())
                                .map(|(_, direction)| direction),
                            &mut moving,
                        );
                        key.clear();
                        for direction in &moving {
                            key.push(direction.dim() as i64);
                            key.extend_from_slice(direction.as_slice());
                        }
                        if let Some(&index) = derived.get(key.as_slice()) {
                            return Some(index);
                        }
                        let index = intern(&mut layouts, layout_for_moving(&moving)?);
                        derived.insert(key.clone(), index);
                        Some(index)
                    });
                    preferred.push(index);
                }
            }
        }
        ProgramAnalysis {
            nests,
            layouts,
            preferred,
            starts,
        }
    }

    /// The analysis of every nest, by nest id.
    pub fn nests(&self) -> &[NestAnalysis] {
        &self.nests
    }

    /// The layout indices `nest` prefers under loop order `order`, one per
    /// array of [`NestAnalysis::arrays`], in that order; `None` where the
    /// nest has no preference for the array.
    pub fn preferred(&self, nest: NestId, order: usize) -> &[Option<usize>] {
        let analysis = &self.nests[nest.index()];
        let arrays = analysis.arrays.len();
        let start = self.starts[nest.index()] + analysis.innermost[order] * arrays;
        &self.preferred[start..start + arrays]
    }

    /// The interned layout behind an index.
    ///
    /// # Panics
    ///
    /// Panics when `index` was not handed out by this analysis.
    pub fn layout(&self, index: usize) -> &Layout {
        &self.layouts[index]
    }

    /// The index of `layout`, interning it first when absent.
    pub(crate) fn intern(&mut self, layout: Layout) -> usize {
        intern(&mut self.layouts, layout)
    }
}

/// The index of `layout` in `layouts`, appending it first when absent.
fn intern(layouts: &mut Vec<Layout>, layout: Layout) -> usize {
    layouts
        .iter()
        .position(|l| *l == layout)
        .unwrap_or_else(|| {
            layouts.push(layout);
            layouts.len() - 1
        })
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

    /// The paper's Figure 2 nest plus a 1-D vector, a 2-D array read as if
    /// it were 3-D and an array the program does not declare.
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
            nest.read(
                ArrayId::new(9),
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
        });
        b.build()
    }

    /// The layouts `nest` prefers under `order`, one per referenced array.
    fn preferences(analysis: &ProgramAnalysis, nest: usize, order: usize) -> Vec<Option<Layout>> {
        analysis
            .preferred(NestId::new(nest), order)
            .iter()
            .map(|index| index.map(|index| analysis.layout(index).clone()))
            .collect()
    }

    #[test]
    fn orders_and_preferences_follow_the_paper() {
        let p = program();
        let program_analysis = ProgramAnalysis::new(&p);
        let analysis = &program_analysis.nests()[0];
        assert_eq!(analysis.orders().len(), 2);
        assert!(analysis.orders()[0].is_identity());
        assert_eq!(analysis.first_orders().collect::<Vec<_>>(), [0, 1]);
        let [q1, q2, v, bad, undeclared] = [0, 1, 2, 3, 9].map(ArrayId::new);
        assert_eq!(analysis.arrays(), &[q1, q2, v, bad, undeclared]);
        // Section 2: diagonal and column-major in the original order,
        // swapped after interchange.  One-dimensional, rank-mismatched and
        // undeclared arrays have no preference.
        let (diagonal, column) = (Layout::diagonal(), Layout::column_major(2));
        assert_eq!(
            preferences(&program_analysis, 0, 0),
            [
                Some(diagonal.clone()),
                Some(column.clone()),
                None,
                None,
                None
            ]
        );
        assert_eq!(
            preferences(&program_analysis, 0, 1),
            [Some(column), Some(diagonal), None, None, None]
        );
        // Equal layouts share one interned index.
        let [identity, interchange] =
            [0, 1].map(|order| program_analysis.preferred(NestId::new(0), order));
        assert_eq!(identity[0], interchange[1]);
        assert_eq!(identity[1], interchange[0]);
    }

    /// One depth-3 nest whose six legal orders put each loop innermost
    /// twice, after a costlier nest that fixes `A` to the layout wanting `j`
    /// innermost and `B` to row-major.
    fn shared_innermost_program() -> Program {
        let mut b = ProgramBuilder::new("shared_innermost");
        let a = b.array("A", vec![8, 8, 8], 4);
        let m = b.array("B", vec![8, 8], 4);
        b.nest("fix", vec![("t", 0, 512)], |nest| {
            // A[0][0][t] and B[0][t]: both move along their last dimension.
            nest.read(a, AccessBuilder::new(3, 1).row(2, [1]).build());
            nest.read(m, AccessBuilder::new(2, 1).row(1, [1]).build());
        });
        b.nest(
            "cube",
            vec![("i", 0, 4), ("j", 0, 4), ("k", 0, 4)],
            |nest| {
                // A[k][i][j] and B[i][k].
                nest.read(
                    a,
                    AccessBuilder::new(3, 3)
                        .row(0, [0, 0, 1])
                        .row(1, [1, 0, 0])
                        .row(2, [0, 1, 0])
                        .build(),
                );
                nest.read(
                    m,
                    AccessBuilder::new(2, 3)
                        .row(0, [1, 0, 0])
                        .row(1, [0, 0, 1])
                        .build(),
                );
            },
        );
        b.build()
    }

    #[test]
    fn orders_sharing_an_innermost_loop_share_preferences_and_scores() {
        let p = shared_innermost_program();
        let program_analysis = ProgramAnalysis::new(&p);
        let cube = &program_analysis.nests()[1];
        // Orders (i j k), (i k j), (j i k), (j k i), (k i j), (k j i): the
        // innermost loops are k, j, k, i, j, i.
        assert_eq!(cube.orders().len(), 6);
        assert_eq!(cube.first_orders().collect::<Vec<_>>(), [0, 1, 3]);
        let heuristic = crate::heuristic_assignment(&p);
        let assignment = &heuristic.assignment;
        for (first, twin) in [(0, 2), (1, 4), (3, 5)] {
            assert_eq!(
                program_analysis.preferred(NestId::new(1), first),
                program_analysis.preferred(NestId::new(1), twin)
            );
            assert_eq!(
                cube.score(first, |array| assignment.layout_of(array)),
                cube.score(twin, |array| assignment.layout_of(array))
            );
        }
        // B moves along its column with k innermost, its row with i
        // innermost, and not at all with j innermost.
        let [b_under_k, b_under_j, b_under_i] =
            [0, 1, 3].map(|order| preferences(&program_analysis, 1, order)[1].clone());
        assert_eq!(b_under_k, Some(Layout::row_major(2)));
        assert_eq!(b_under_i, Some(Layout::column_major(2)));
        assert_eq!(b_under_j, None);
        // `fix` gives A and B the layouts wanting their last dimension to
        // move.  With j innermost, A moves that way and B does not move,
        // so both such orders score best; the heuristic and the best-order
        // search keep the first of them.
        assert_eq!(
            heuristic.chosen_transforms[1],
            (NestId::new(1), cube.orders()[1].describe())
        );
        let (best, score) = crate::quality::best_nest_score(&p.nests()[1], assignment);
        assert_eq!(best, cube.orders()[1]);
        assert_eq!(score, 2 * 64);
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
