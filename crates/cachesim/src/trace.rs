//! Streaming the data addresses of a program under a layout assignment.
//!
//! Every array gets a base address (aligned to the L2 line size, arrays laid
//! out back to back with a guard gap) and the linear form of the
//! [`mlo_layout::AddressMap`] derived from its assigned layout.  A nest is
//! then compiled once per (nest, transform, plan) into a walk: each
//! reference's access matrix, offset and address map fold into flat byte
//! coefficients, and the nest's sub-sampled [`IterationSpace`] is walked in
//! execution order, one innermost-loop row at a time, streaming one byte
//! address per reference per iteration.

use crate::{Result, SimError};
use mlo_ir::{IterationSpace, LoopTransform, NestId, Program};
use mlo_layout::{AddressMap, LayoutAssignment};
use mlo_linalg::IntVec;

/// Options controlling trace generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceOptions {
    /// Loops whose trip count exceeds this bound are sub-sampled to roughly
    /// this many iterations (strides preserved).  Keeps very large nests
    /// simulable in bounded time.
    pub max_trip_per_loop: i64,
    /// Alignment (bytes) and guard gap between consecutive arrays.
    pub array_alignment: u64,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            max_trip_per_loop: 256,
            array_alignment: 64,
        }
    }
}

/// Plans array placement and compiles per-nest address walks for a program
/// under a layout assignment.
#[derive(Debug)]
pub struct TraceGenerator {
    options: TraceOptions,
}

impl TraceGenerator {
    /// Creates a generator with the given options.
    pub fn new(options: TraceOptions) -> Self {
        TraceGenerator { options }
    }

    /// Creates a generator with default options.
    pub fn with_defaults() -> Self {
        Self::new(TraceOptions::default())
    }

    /// The options in use.
    pub fn options(&self) -> &TraceOptions {
        &self.options
    }

    /// Builds the address maps and base addresses of every array.
    ///
    /// # Errors
    ///
    /// Fails when an array referenced by the program has no layout or its
    /// layout cannot be linearized.
    pub fn plan_memory(
        &self,
        program: &Program,
        assignment: &LayoutAssignment,
    ) -> Result<MemoryPlan> {
        let mut arrays = Vec::with_capacity(program.arrays().len());
        let mut next_base = 0u64;
        for array in program.arrays() {
            let layout = assignment
                .layout_of(array.id())
                .ok_or(SimError::MissingLayout(array.id()))?;
            let map = AddressMap::new(array, layout)?;
            let span = map.span_bytes() as u64;
            let (coefficients, constant) = map.linear_form();
            let element_size = i64::from(map.element_size());
            arrays.push(PlannedArray {
                base: next_base,
                coefficients: coefficients
                    .iter()
                    .map(|c| c.wrapping_mul(element_size))
                    .collect(),
                constant: constant.wrapping_mul(element_size),
                extents: array.extents().to_vec(),
            });
            let align = self.options.array_alignment.max(1);
            next_base += span.div_ceil(align) * align + align;
        }
        Ok(MemoryPlan {
            arrays,
            total_bytes: next_base,
        })
    }

    /// Compiles the address walk of one nest under a given restructuring.
    ///
    /// Indices that fall outside the declared array box (boundary-shifted
    /// accesses such as `A[i][j-1]`, or skewed accesses such as `A[i+j][j]`
    /// over an array not declared wide enough) are clamped to the nearest
    /// allocated element, the way an edge-padded kernel would behave.  This
    /// keeps every streamed address inside the array's allocation.
    ///
    /// # Panics
    ///
    /// Panics on malformed IR: a reference to an array the plan does not
    /// cover, or an access whose rank differs from its array's.
    pub(crate) fn compile_nest(
        &self,
        program: &Program,
        nest_id: NestId,
        transform: &LoopTransform,
        plan: &MemoryPlan,
    ) -> NestWalk {
        let nest = &program.nests()[nest_id.index()];
        let space =
            IterationSpace::transformed(nest, transform).subsampled(self.options.max_trip_per_loop);
        let references = if space.is_empty() {
            Vec::new()
        } else {
            let extremes = space.extremes();
            nest.references()
                .iter()
                .map(|reference| {
                    let array = plan
                        .arrays
                        .get(reference.array().index())
                        .expect("references only name arrays declared by the program");
                    CompiledRef::new(reference.access(), array, &extremes, space.innermost())
                })
                .collect()
        };
        NestWalk { space, references }
    }
}

/// Base addresses and byte address forms for every array of a program.
#[derive(Debug)]
pub struct MemoryPlan {
    /// Indexed by `ArrayId::index()` (a program's array ids are dense).
    arrays: Vec<PlannedArray>,
    total_bytes: u64,
}

/// One array's placement: its byte address is
/// `base + constant + Σ coefficients[d] · index[d]`, in wrapping arithmetic.
#[derive(Debug)]
struct PlannedArray {
    base: u64,
    coefficients: Vec<i64>,
    constant: i64,
    extents: Vec<i64>,
}

impl MemoryPlan {
    /// The byte address of one array element.
    ///
    /// # Panics
    ///
    /// Panics if the array is not part of the plan (callers obtain plans
    /// from [`TraceGenerator::plan_memory`], which covers every array).
    pub fn address_of(&self, array: mlo_ir::ArrayId, index: &IntVec) -> u64 {
        let array = &self.arrays[array.index()];
        let offset = dot(array.constant, &array.coefficients, index.as_slice());
        array.base.wrapping_add(offset as u64)
    }

    /// Total bytes spanned by all arrays including padding and guard gaps.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The base address of an array, if planned.
    pub fn base_of(&self, array: mlo_ir::ArrayId) -> Option<u64> {
        self.arrays.get(array.index()).map(|a| a.base)
    }
}

/// One reference folded into byte arithmetic over the iteration vector.
#[derive(Debug)]
struct CompiledRef {
    /// The address at the zero iteration vector (for a clamped reference,
    /// the array's address at the zero index).
    constant: i64,
    /// Byte stride per unit of each loop index; unused when clamped.
    strides: Vec<i64>,
    /// Byte stride per step of the innermost loop; unused when clamped.
    step: i64,
    /// Per array dimension, when some index of the walk leaves the array
    /// box: the subscript row and offset, the largest valid index, the byte
    /// coefficient of the dimension, and how far the subscript moves per
    /// step of the innermost loop.
    clamped: Vec<ClampedDim>,
}

#[derive(Debug)]
struct ClampedDim {
    row: Vec<i64>,
    offset: i64,
    max: i64,
    coefficient: i64,
    slope: i64,
}

impl ClampedDim {
    /// Pushes the steps `t` in `1..trips` at which the clamp switches on or
    /// off along a row that starts at `start`: the subscript is linear in
    /// `t`, so it enters and leaves `0..=max` at most once each.
    fn switches(&self, start: &[i64], trips: i64, cuts: &mut Vec<i64>) {
        let slope = i128::from(self.slope);
        if slope == 0 {
            return;
        }
        // Negated when it falls, the subscript rises as `value + |slope| · t`
        // and enters and leaves the box where it first reaches a threshold.
        let subscript = i128::from(dot(self.offset, &self.row, start));
        let max = i128::from(self.max);
        let (value, thresholds) = if slope > 0 {
            (subscript, [0, max + 1])
        } else {
            (-subscript, [-max, 1])
        };
        for threshold in thresholds {
            let gap = threshold - value;
            if gap > 0 {
                let t = (gap + slope.abs() - 1) / slope.abs();
                if t < i128::from(trips) {
                    cuts.push(t as i64);
                }
            }
        }
    }
}

impl CompiledRef {
    /// `extremes` bounds every iteration vector of the walk (see
    /// [`IterationSpace::extremes`]); `innermost` is the walk's fastest loop
    /// and its step.
    fn new(
        access: &mlo_ir::AffineAccess,
        array: &PlannedArray,
        extremes: &[(i64, i64)],
        innermost: Option<(usize, i64)>,
    ) -> Self {
        let rank = array.extents.len();
        assert_eq!(
            access.array_rank(),
            rank,
            "access rank must match its array's rank"
        );
        let matrix = access.matrix();
        let offset = access.offset();
        let depth = matrix.cols();
        // Movement per innermost step of a per-loop quantity.
        let per_step = |per_loop: &[i64]| {
            innermost.map_or(0, |(inner, step)| per_loop[inner].wrapping_mul(step))
        };
        // Exact (i128) bounds of each subscript over the walked box.
        let inside = (0..rank).all(|d| {
            let (mut low, mut high) = (i128::from(offset[d]), i128::from(offset[d]));
            for (k, &(first, last)) in extremes.iter().enumerate() {
                let a = i128::from(matrix.get(d, k));
                let (x, y) = (a * i128::from(first), a * i128::from(last));
                low += x.min(y);
                high += x.max(y);
            }
            low >= 0 && high < i128::from(array.extents[d])
        });
        let base = (array.base as i64).wrapping_add(array.constant);
        if inside {
            let strides: Vec<i64> = (0..depth)
                .map(|k| dot(0, &array.coefficients, matrix.col(k).as_slice()))
                .collect();
            CompiledRef {
                constant: dot(base, &array.coefficients, offset.as_slice()),
                step: per_step(&strides),
                strides,
                clamped: Vec::new(),
            }
        } else {
            let clamped = (0..rank)
                .map(|d| {
                    let row = matrix.row(d).into_inner();
                    ClampedDim {
                        slope: per_step(&row),
                        row,
                        offset: offset[d],
                        max: array.extents[d] - 1,
                        coefficient: array.coefficients[d],
                    }
                })
                .collect();
            CompiledRef {
                constant: base,
                strides: Vec::new(),
                step: 0,
                clamped,
            }
        }
    }

    /// The byte address of this reference at one iteration vector, and its
    /// byte stride per innermost step for as long as no clamp switches.
    #[inline]
    fn address_and_step(&self, iteration: &[i64]) -> (u64, u64) {
        if self.clamped.is_empty() {
            return (
                dot(self.constant, &self.strides, iteration) as u64,
                self.step as u64,
            );
        }
        let (mut address, mut step) = (self.constant, 0i64);
        for dim in &self.clamped {
            let subscript = dot(dim.offset, &dim.row, iteration);
            let index = subscript.clamp(0, dim.max);
            address = address.wrapping_add(dim.coefficient.wrapping_mul(index));
            if index == subscript {
                step = step.wrapping_add(dim.coefficient.wrapping_mul(dim.slope));
            }
        }
        (address as u64, step as u64)
    }
}

/// `start + Σ coefficients[k] · values[k]`, wrapping.
#[inline]
fn dot(start: i64, coefficients: &[i64], values: &[i64]) -> i64 {
    coefficients
        .iter()
        .zip(values)
        .fold(start, |sum, (c, x)| sum.wrapping_add(c.wrapping_mul(*x)))
}

/// One nest's compiled address stream (see [`TraceGenerator::compile_nest`]).
#[derive(Debug)]
pub(crate) struct NestWalk {
    space: IterationSpace,
    references: Vec<CompiledRef>,
}

impl NestWalk {
    /// Number of iteration vectors the walk visits.
    pub(crate) fn iterations(&self) -> i64 {
        self.space.len()
    }

    /// Streams every address in execution order: per iteration vector, one
    /// address per reference in body order.
    ///
    /// Each innermost-loop row is split where some clamp switches on or
    /// off.  Inside a segment every address moves by a fixed stride per
    /// step, so the dot products run once per segment and each access costs
    /// one add.
    pub(crate) fn run(&self, mut visit: impl FnMut(u64)) {
        let innermost = self.space.innermost();
        // (address, stride) of each reference at the current step.
        let mut cursors = vec![(0u64, 0u64); self.references.len()];
        let mut cuts = Vec::new();
        let mut point = Vec::new();
        self.space.for_each_row(|start, trips| {
            cuts.clear();
            for reference in &self.references {
                for dim in &reference.clamped {
                    dim.switches(start, trips, &mut cuts);
                }
            }
            cuts.push(trips);
            cuts.sort_unstable();
            cuts.dedup();
            point.clear();
            point.extend_from_slice(start);
            let mut from = 0;
            for &to in &cuts {
                if let Some((inner, step)) = innermost {
                    point[inner] = start[inner] + from * step;
                }
                for (cursor, reference) in cursors.iter_mut().zip(&self.references) {
                    *cursor = reference.address_and_step(&point);
                }
                for _ in from..to {
                    for (address, step) in &mut cursors {
                        visit(*address);
                        *address = address.wrapping_add(*step);
                    }
                }
                from = to;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlo_ir::{AccessBuilder, ArrayId, ProgramBuilder};
    use mlo_layout::Layout;

    fn simple_program() -> Program {
        let mut b = ProgramBuilder::new("p");
        let a = b.array("A", vec![8, 8], 4);
        let v = b.array("V", vec![16], 4);
        b.nest("sweep", vec![("i", 0, 8), ("j", 0, 8)], |n| {
            n.read(
                a,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
            n.write(v, AccessBuilder::new(1, 2).row(0, [1, 0]).build());
        });
        b.build()
    }

    /// Every address one nest streams, in order.
    fn addresses(
        generator: &TraceGenerator,
        program: &Program,
        transform: &LoopTransform,
        plan: &MemoryPlan,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        generator
            .compile_nest(program, NestId::new(0), transform, plan)
            .run(|address| out.push(address));
        out
    }

    #[test]
    fn plan_assigns_disjoint_address_ranges() {
        let p = simple_program();
        let asg = LayoutAssignment::all_row_major(&p);
        let gen = TraceGenerator::with_defaults();
        let plan = gen.plan_memory(&p, &asg).unwrap();
        let base_a = plan.base_of(ArrayId::new(0)).unwrap();
        let base_v = plan.base_of(ArrayId::new(1)).unwrap();
        assert_ne!(base_a, base_v);
        // A spans 8*8*4 = 256 bytes; V must start beyond that.
        assert!(base_v >= base_a + 256 || base_a >= base_v + 64);
        assert!(plan.total_bytes() >= 256 + 64);
        // Alignment respected.
        assert_eq!(base_a % 64, 0);
        assert_eq!(base_v % 64, 0);
        assert_eq!(
            plan.address_of(ArrayId::new(0), &IntVec::from(vec![1, 2])),
            base_a + (8 + 2) * 4
        );
        assert_eq!(plan.base_of(ArrayId::new(2)), None);
    }

    #[test]
    fn missing_layout_is_an_error() {
        let p = simple_program();
        let mut asg = LayoutAssignment::new();
        asg.set(ArrayId::new(0), Layout::row_major(2));
        let gen = TraceGenerator::with_defaults();
        assert!(matches!(
            gen.plan_memory(&p, &asg),
            Err(SimError::MissingLayout(id)) if id == ArrayId::new(1)
        ));
    }

    #[test]
    fn walk_streams_one_address_per_reference_per_iteration() {
        let p = simple_program();
        let asg = LayoutAssignment::all_row_major(&p);
        let gen = TraceGenerator::with_defaults();
        let plan = gen.plan_memory(&p, &asg).unwrap();
        let walk = gen.compile_nest(&p, NestId::new(0), &LoopTransform::identity(2), &plan);
        assert_eq!(walk.iterations(), 8 * 8);
        let trace = addresses(&gen, &p, &LoopTransform::identity(2), &plan);
        assert_eq!(trace.len(), 8 * 8 * 2);
        // Row-major A with j innermost: consecutive A accesses differ by 4
        // bytes within a row; V[i] stays put along j.
        assert_eq!(trace[2] - trace[0], 4);
        assert_eq!(trace[3], trace[1]);
        // Interchanged, i runs innermost: A jumps a row, V moves one element.
        let swapped = addresses(&gen, &p, &LoopTransform::permutation(&[1, 0]), &plan);
        assert_eq!(swapped[2] - swapped[0], 32);
        assert_eq!(swapped[3] - swapped[1], 4);
    }

    #[test]
    fn layout_changes_the_addresses() {
        let p = simple_program();
        let gen = TraceGenerator::with_defaults();
        let rm = LayoutAssignment::all_row_major(&p);
        let mut cm = LayoutAssignment::all_row_major(&p);
        cm.set(ArrayId::new(0), Layout::column_major(2));
        let identity = LoopTransform::identity(2);
        let t_rm = addresses(&gen, &p, &identity, &gen.plan_memory(&p, &rm).unwrap());
        let t_cm = addresses(&gen, &p, &identity, &gen.plan_memory(&p, &cm).unwrap());
        assert_eq!(t_rm.len(), t_cm.len());
        // Under column-major, consecutive j iterations of A[i][j] jump by a
        // full column (8 elements * 4 bytes).
        assert_eq!(t_cm[2] - t_cm[0], 32);
        assert_eq!(t_rm[2] - t_rm[0], 4);
    }

    #[test]
    fn out_of_box_indices_are_clamped() {
        // A[i][j-1] and A[i+j][j] over an 8 x 8 array walked by 8 x 8.
        let mut b = ProgramBuilder::new("edges");
        let a = b.array("A", vec![8, 8], 4);
        b.nest("n", vec![("i", 0, 8), ("j", 0, 8)], |n| {
            n.read(
                a,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .offset(1, -1)
                    .build(),
            );
            n.read(
                a,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 1])
                    .row(1, [0, 1])
                    .build(),
            );
        });
        let p = b.build();
        let gen = TraceGenerator::with_defaults();
        let plan = gen
            .plan_memory(&p, &LayoutAssignment::all_row_major(&p))
            .unwrap();
        let trace = addresses(&gen, &p, &LoopTransform::identity(2), &plan);
        let at = |i: i64, j: i64| plan.address_of(ArrayId::new(0), &IntVec::from(vec![i, j]));
        // (i, j) = (0, 0): A[0][-1] clamps to A[0][0].
        assert_eq!(trace[0], at(0, 0));
        // (i, j) = (7, 7): A[14][7] clamps to A[7][7].
        assert_eq!(trace[trace.len() - 1], at(7, 7));
        let span = plan.base_of(ArrayId::new(0)).unwrap() + 8 * 8 * 4;
        assert!(trace.iter().all(|&address| address < span));
    }

    #[test]
    fn subsampling_bounds_trace_length() {
        let mut b = ProgramBuilder::new("big");
        let a = b.array("A", vec![10_000], 4);
        b.nest("scan", vec![("i", 0, 10_000)], |n| {
            n.read(a, AccessBuilder::new(1, 1).row(0, [1]).build());
        });
        let p = b.build();
        let asg = LayoutAssignment::all_row_major(&p);
        let gen = TraceGenerator::new(TraceOptions {
            max_trip_per_loop: 100,
            array_alignment: 64,
        });
        let plan = gen.plan_memory(&p, &asg).unwrap();
        let trace = addresses(&gen, &p, &LoopTransform::identity(1), &plan);
        assert!(trace.len() <= 100);
        assert!(trace.len() >= 90);
        // The stride is kept: every sampled element is 100 elements apart.
        assert_eq!(trace[1] - trace[0], 100 * 4);
    }
}
