//! The loop-order analysis of a program's nests — their legal loop orders
//! and, under each, the innermost movement direction of every reference
//! (paper, Sections 2, 3 and 5) — and the layouts each nest prefers, derived
//! once per distinct set of movement directions.
//!
//! Every legal order is a permutation, so per step of an order's innermost
//! loop a reference moves along that loop's access-matrix column.  The
//! analysis therefore keeps each order as a flat index permutation and the
//! movements once per distinct innermost loop, read straight from the access
//! matrices, in a few vectors shared by all the nests of a program.  An
//! order becomes a [`LoopTransform`] only when a caller asks for it.

use crate::hyperplane::Layout;
use crate::locality::{layout_for_moving, moving_directions};
use mlo_ir::{ArrayId, DependenceAnalysis, LoopNest, LoopTransform, NestId, Program};
use std::collections::HashMap;
use std::ops::Range;

/// The legal loop orders of a list of nests (those of
/// [`mlo_ir::legal_permutations`], identity first) and every reference's
/// movement under them, in vectors shared by all the nests.
///
/// Orders that put the same loop innermost share one *slot*: the
/// references' movements, and with them the preferred layouts and locality
/// scores.
#[derive(Debug, Clone, Default)]
pub(crate) struct LoopOrders {
    spans: Vec<Span>,
    /// Every nest's legal orders, `depth` loops each (outermost first).
    loops: Vec<usize>,
    /// Per order: the slot of the loop it puts innermost.  A nest numbers
    /// its slots from 0 in order of first appearance among its orders.
    slots: Vec<usize>,
    /// Per slot: the first of its nest's orders (numbered from 0) that puts
    /// the slot's loop innermost.
    first: Vec<usize>,
    /// Every nest's distinct arrays, in first-appearance order.
    arrays: Vec<ArrayId>,
    /// Every reference's array and subscript count, in body order.
    references: Vec<(ArrayId, usize)>,
    /// Per slot, one block: every reference of the nest's movement per step
    /// of the slot's loop (that loop's access-matrix column), in body
    /// order.  In a nest without loops nothing moves.
    movements: Vec<i64>,
}

/// Where one nest's entries sit in the vectors of a [`LoopOrders`].
#[derive(Debug, Clone)]
struct Span {
    iterations: i64,
    depth: usize,
    /// The nest's orders in `slots`; order `k`'s loops start at
    /// `loops + k * depth` in `LoopOrders::loops`.
    orders: Range<usize>,
    loops: usize,
    /// The nest's slots in `first`; slot `s`'s movements start at
    /// `movements + s * block` in `LoopOrders::movements`.
    slots: Range<usize>,
    movements: usize,
    block: usize,
    arrays: Range<usize>,
    references: Range<usize>,
}

impl LoopOrders {
    /// Analyses each of `nests` under each of its legal loop orders (see
    /// [`DependenceAnalysis::legal_orders`]).
    pub(crate) fn new(nests: &[LoopNest]) -> Self {
        let mut tables = LoopOrders {
            spans: Vec::with_capacity(nests.len()),
            ..LoopOrders::default()
        };
        // The slot of each loop of the current nest, once it ran innermost.
        let mut slot_of_loop: Vec<Option<usize>> = Vec::new();
        for nest in nests {
            tables.push(nest, &mut slot_of_loop);
        }
        tables
    }

    /// Appends the analysis of `nest`.
    fn push(&mut self, nest: &LoopNest, slot_of_loop: &mut Vec<Option<usize>>) {
        let depth = nest.depth();
        let mut span = Span {
            iterations: nest.iteration_count(),
            depth,
            orders: self.slots.len()..self.slots.len(),
            loops: self.loops.len(),
            slots: self.first.len()..self.first.len(),
            movements: self.movements.len(),
            block: nest
                .references()
                .iter()
                .map(|r| r.access().array_rank())
                .sum(),
            arrays: self.arrays.len()..self.arrays.len(),
            references: self.references.len()..self.references.len(),
        };
        for reference in nest.references() {
            let array = reference.array();
            self.references
                .push((array, reference.access().array_rank()));
            if !self.arrays[span.arrays.start..].contains(&array) {
                self.arrays.push(array);
            }
        }
        slot_of_loop.clear();
        slot_of_loop.resize(depth, None);
        DependenceAnalysis::of_nest(nest).legal_orders(depth, |order| {
            let inner = order.last().copied();
            let slot = match inner.and_then(|l| slot_of_loop[l]) {
                Some(slot) => slot,
                None => {
                    let slot = self.first.len() - span.slots.start;
                    if let Some(l) = inner {
                        slot_of_loop[l] = Some(slot);
                    }
                    self.first.push(self.slots.len() - span.orders.start);
                    for reference in nest.references() {
                        let matrix = reference.access().matrix();
                        self.movements.extend(
                            (0..matrix.rows()).map(|dim| inner.map_or(0, |l| matrix.get(dim, l))),
                        );
                    }
                    slot
                }
            };
            self.slots.push(slot);
            self.loops.extend_from_slice(order);
        });
        span.orders.end = self.slots.len();
        span.slots.end = self.first.len();
        span.arrays.end = self.arrays.len();
        span.references.end = self.references.len();
        self.spans.push(span);
    }

    /// The analysis of the nest at `index` of the list.
    pub(crate) fn nest(&self, index: usize) -> NestAnalysis<'_> {
        NestAnalysis {
            tables: self,
            span: &self.spans[index],
        }
    }
}

/// The legal loop orders of one nest of a [`ProgramAnalysis`] and the
/// innermost movement direction of every reference under each of them.
///
/// The orders are those of [`mlo_ir::legal_permutations`], identity first;
/// [`transform`](Self::transform) builds the [`LoopTransform`] of one.
#[derive(Debug, Clone, Copy)]
pub struct NestAnalysis<'a> {
    tables: &'a LoopOrders,
    span: &'a Span,
}

impl<'a> NestAnalysis<'a> {
    /// The number of legal loop orders: what `order` arguments index.
    pub fn order_count(&self) -> usize {
        self.span.orders.len()
    }

    /// The loop transform of `order` (order 0 is the identity).
    ///
    /// # Panics
    ///
    /// Panics when `order` is not below [`order_count`](Self::order_count).
    pub fn transform(&self, order: usize) -> LoopTransform {
        assert!(order < self.order_count(), "loop order out of range");
        let start = self.span.loops + order * self.span.depth;
        LoopTransform::permutation(&self.tables.loops[start..start + self.span.depth])
    }

    /// The first order that puts each loop innermost, in increasing order
    /// (so the identity, order 0, comes first).  Every other order puts the
    /// same loop innermost as one of these, and so has the same movements,
    /// preferred layouts and scores.
    pub fn first_orders(&self) -> impl Iterator<Item = usize> + 'a {
        self.tables.first[self.span.slots.clone()].iter().copied()
    }

    /// The distinct arrays the nest references, in first-appearance order.
    pub fn arrays(&self) -> &'a [ArrayId] {
        &self.tables.arrays[self.span.arrays.clone()]
    }

    /// The locality score of `order`: the dynamic references whose array's
    /// layout (`layout_of`) keeps their movement in one hyperplane block.
    pub fn score<'l>(
        &self,
        order: usize,
        layout_of: impl Fn(ArrayId) -> Option<&'l Layout>,
    ) -> i64 {
        self.movements_under(order)
            .filter(|&(array, direction)| {
                layout_of(array).is_some_and(|l| has_locality(direction, l))
            })
            .map(|_| self.span.iterations)
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
            .filter(|&(a, direction)| a == array && !has_locality(direction, layout))
            .count()
    }

    /// The number of slots: the distinct innermost loops of the orders.
    fn slot_count(&self) -> usize {
        self.span.slots.len()
    }

    /// The slot of the loop `order` puts innermost.
    fn slot(&self, order: usize) -> usize {
        self.tables.slots[self.span.orders.clone()][order]
    }

    /// Every reference's array and movement under `order`.
    fn movements_under(&self, order: usize) -> impl Iterator<Item = (ArrayId, &'a [i64])> {
        self.movements_in(self.slot(order))
    }

    /// Every reference's array and movement per step of `slot`'s loop.
    fn movements_in(&self, slot: usize) -> impl Iterator<Item = (ArrayId, &'a [i64])> {
        let start = self.span.movements + slot * self.span.block;
        let mut rest = &self.tables.movements[start..start + self.span.block];
        self.tables.references[self.span.references.clone()]
            .iter()
            .map(move |&(array, rank)| {
                let (movement, after) = rest.split_at(rank);
                rest = after;
                (array, movement)
            })
    }
}

/// The loop-order analysis of every nest of one program and the layout
/// each nest prefers for each array it references under each loop order.
///
/// A preferred layout depends only on the movement directions of the
/// array's references, and a program has few distinct sets of them, so
/// each set's layout is derived once.  The layouts are interned: equal
/// layouts share one index, and [`ProgramAnalysis::layout`] resolves it.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    tables: LoopOrders,
    layouts: Vec<Layout>,
    /// By (nest, slot, array of the nest): the index of the layout the nest
    /// prefers for the array when that slot's loop runs innermost.
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
        let tables = LoopOrders::new(program.nests());
        let mut layouts = Vec::new();
        // Each derived set of moving directions, flattened into one key of
        // (dimension, components...) runs, and its layout's index.
        let mut derived: HashMap<Vec<i64>, Option<usize>> = HashMap::new();
        let (mut moving, mut key) = (Vec::new(), Vec::new());
        let mut preferred = Vec::new();
        let mut starts = Vec::with_capacity(program.nests().len());
        for n in 0..program.nests().len() {
            let nest = tables.nest(n);
            starts.push(preferred.len());
            for slot in 0..nest.slot_count() {
                for &array in nest.arrays() {
                    let index = program.array(array).ok().and_then(|declared| {
                        moving_directions(
                            nest.movements_in(slot)
                                .filter(|&(a, d)| a == array && d.len() == declared.rank())
                                .map(|(_, direction)| direction),
                            &mut moving,
                        );
                        key.clear();
                        for direction in &moving {
                            key.push(direction.len() as i64);
                            key.extend_from_slice(direction);
                        }
                        if let Some(&index) = derived.get(key.as_slice()) {
                            return index;
                        }
                        let index = layout_for_moving(&moving).map(|l| intern(&mut layouts, l));
                        derived.insert(key.clone(), index);
                        index
                    });
                    preferred.push(index);
                }
            }
        }
        ProgramAnalysis {
            tables,
            layouts,
            preferred,
            starts,
        }
    }

    /// The analysis of `nest`.
    ///
    /// # Panics
    ///
    /// Panics when the program has no such nest.
    pub fn nest(&self, nest: NestId) -> NestAnalysis<'_> {
        self.tables.nest(nest.index())
    }

    /// The layout indices `nest` prefers under loop order `order`, one per
    /// array of [`NestAnalysis::arrays`], in that order; `None` where the
    /// nest has no preference for the array.
    pub fn preferred(&self, nest: NestId, order: usize) -> &[Option<usize>] {
        let analysis = self.nest(nest);
        let arrays = analysis.arrays().len();
        let start = self.starts[nest.index()] + analysis.slot(order) * arrays;
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
fn has_locality(direction: &[i64], layout: &Layout) -> bool {
    direction.iter().all(|&x| x == 0)
        || (layout.dim() == direction.len()
            && layout.hyperplanes().iter().all(|h| {
                let y = h.coefficients().as_slice();
                y.iter().zip(direction).map(|(a, b)| a * b).sum::<i64>() == 0
            }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlo_ir::{AccessBuilder, LoopNest, ProgramBuilder};

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
        let analysis = program_analysis.nest(NestId::new(0));
        assert_eq!(analysis.order_count(), 2);
        assert!(analysis.transform(0).is_identity());
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
        let cube = program_analysis.nest(NestId::new(1));
        // Orders (i j k), (i k j), (j i k), (j k i), (k i j), (k j i): the
        // innermost loops are k, j, k, i, j, i.
        assert_eq!(cube.order_count(), 6);
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
            (NestId::new(1), cube.transform(1).describe())
        );
        let (best, score) = crate::quality::best_nest_score(&p.nests()[1], assignment);
        assert_eq!(best, cube.transform(1));
        assert_eq!(score, 2 * 64);
    }

    #[test]
    fn scores_count_references_with_locality() {
        let p = program();
        let orders = LoopOrders::new(p.nests());
        let analysis = orders.nest(0);
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
        let row = [0, 1];
        assert!(has_locality(&row, &Layout::row_major(2)));
        assert!(!has_locality(&row, &Layout::column_major(2)));
        // A layout of another dimensionality never gives locality.
        assert!(!has_locality(&row, &Layout::row_major(3)));
        // Temporal reuse has locality under any layout.
        assert!(has_locality(&[0, 0], &Layout::diagonal()));
        assert!(has_locality(&[0, 0, 0], &Layout::row_major(2)));
    }

    /// One nest of `depth` loops of 2 trips reading `A[i0][i1]`, and
    /// `B[i0 + i1]` with the first index swapped, without dependences.
    fn free_nest(depth: usize) -> LoopNest {
        let mut b = ProgramBuilder::new("free");
        let a = b.array("A", vec![2, 2], 4);
        const LOOPS: [&str; 10] = ["i0", "i1", "i2", "i3", "i4", "i5", "i6", "i7", "i8", "i9"];
        let loops = LOOPS[..depth].iter().map(|&name| (name, 0, 2)).collect();
        b.nest("free", loops, |nest| {
            let access = |rows: [[i64; 2]; 2]| {
                let mut access = AccessBuilder::new(2, depth);
                for (dim, row) in rows.iter().enumerate() {
                    for (level, &c) in row.iter().enumerate().take(depth) {
                        access = access.coeff(dim, level, c);
                    }
                }
                access.build()
            };
            nest.read(a, access([[1, 0], [0, 1]]));
            nest.read(ArrayId::new(1), access([[1, 1], [0, 1]]));
        });
        b.build().nests()[0].clone()
    }

    #[test]
    fn deep_nests_hold_at_most_eight_factorial_orders() {
        let orders = LoopOrders::new(&[free_nest(10)]);
        let analysis = orders.nest(0);
        assert_eq!(analysis.order_count(), mlo_ir::MAX_EXAMINED_ORDERS);
        assert_eq!(analysis.order_count(), 40_320);
        assert!(analysis.transform(0).is_identity());
        // The first 8! orders keep loops 0 and 1 outermost, so the eight
        // others each run innermost, the last loop first.
        let first: Vec<usize> = analysis.first_orders().collect();
        assert_eq!(first.len(), 8);
        assert_eq!(first[0], 0);
        let inner = |order: usize| orders.loops[order * 10 + 9];
        assert_eq!(
            first.iter().map(|&o| inner(o)).collect::<Vec<_>>(),
            [9, 8, 7, 6, 5, 4, 3, 2]
        );
        // Depth 8 is enumerated completely.
        assert_eq!(
            LoopOrders::new(&[free_nest(8)]).nest(0).order_count(),
            40_320
        );
    }

    #[test]
    fn movements_are_the_innermost_loops_access_columns() {
        let mut nests: Vec<LoopNest> = (0..=4).map(free_nest).collect();
        nests.extend(program().nests().iter().cloned());
        nests.extend(shared_innermost_program().nests().iter().cloned());
        let orders = LoopOrders::new(&nests);
        for (index, nest) in nests.iter().enumerate() {
            let analysis = orders.nest(index);
            let legal = mlo_ir::legal_permutations(nest);
            assert_eq!(analysis.order_count(), legal.len());
            for (order, transform) in legal.iter().enumerate() {
                assert_eq!(&analysis.transform(order), transform);
                let movements: Vec<(ArrayId, &[i64])> = analysis.movements_under(order).collect();
                assert_eq!(movements.len(), nest.references().len());
                for (reference, (array, movement)) in nest.references().iter().zip(movements) {
                    assert_eq!(array, reference.array());
                    let under = reference
                        .access()
                        .innermost_direction_under(transform.inverse());
                    assert_eq!(movement, under.as_slice(), "{nest} under {transform}");
                }
            }
        }
    }
}
