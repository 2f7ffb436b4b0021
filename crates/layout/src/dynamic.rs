//! Dynamic memory layouts (the paper's second future direction).
//!
//! Section 6 of the paper proposes layouts that *change during execution*
//! based on the requirements of different program segments.  This module
//! implements the standard formulation of that idea (in the spirit of the
//! paper's reference \[5\], Kandemir & Kadayif): the program's nest sequence
//! is partitioned into contiguous **segments**; each array may use a
//! different layout in each segment; switching layouts between segments
//! costs a re-layout copy proportional to the array's size.  For every
//! array, a shortest-path dynamic program over `(segment, candidate layout)`
//! states picks the layout sequence minimizing
//!
//! ```text
//!     Σ_segments  miss_cost(array, segment, layout)
//!   + Σ_switches  copy_cost(array)
//! ```
//!
//! where `miss_cost` counts the dynamic references to the array in the
//! segment that *lack* spatial locality under the layout (using the same
//! static locality model as [`crate::quality`]), and `copy_cost` charges one
//! read and one write per element.  The per-array decomposition is exact for
//! the static locality model because the model scores each reference against
//! its own array's layout only.

use crate::analysis::ProgramAnalysis;
use crate::apply::LayoutAssignment;
use crate::candidates::{CandidateOptions, CandidateSet};
use crate::hyperplane::Layout;
use mlo_ir::{ArrayId, LoopNest, NestId, Program};
use std::fmt;

/// A partition of a program's nests into contiguous segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segmentation {
    segments: Vec<Vec<NestId>>,
}

impl Segmentation {
    /// Builds a segmentation from explicit nest groups.
    ///
    /// # Panics
    ///
    /// Panics when the groups are not a partition of `0..nest_count` in
    /// program order (every nest exactly once, contiguous, in order).
    pub fn new(program: &Program, segments: Vec<Vec<NestId>>) -> Self {
        let mut expected = 0usize;
        for segment in &segments {
            for nest in segment {
                assert_eq!(
                    nest.index(),
                    expected,
                    "segments must cover nests contiguously in program order"
                );
                expected += 1;
            }
        }
        assert_eq!(
            expected,
            program.nests().len(),
            "segments must cover every nest of the program"
        );
        Segmentation { segments }
    }

    /// Splits the program into segments of at most `window` consecutive
    /// nests (the last segment may be shorter).
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero.
    pub fn by_window(program: &Program, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        let ids: Vec<NestId> = program.nests().iter().map(LoopNest::id).collect();
        let segments = ids.chunks(window).map(<[NestId]>::to_vec).collect();
        Segmentation { segments }
    }

    /// One segment containing every nest: dynamic selection degenerates to
    /// the static problem.
    pub fn single(program: &Program) -> Self {
        Self::by_window(program, program.nests().len().max(1))
    }

    /// The segments, in program order.
    pub fn segments(&self) -> &[Vec<NestId>] {
        &self.segments
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether there are no segments (a program without nests).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

/// Options of the dynamic-layout optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicOptions {
    /// Candidate enumeration options (shared with the static optimizer).
    pub candidates: CandidateOptions,
    /// Cost charged per element copied when an array changes layout between
    /// segments, in the same unit as a missed reference (one main-memory
    /// transfer).  The default of 2.0 charges a read and a write.
    pub copy_cost_per_element: f64,
    /// Cost of one reference without spatial locality.
    pub miss_cost: f64,
}

impl Default for DynamicOptions {
    fn default() -> Self {
        DynamicOptions {
            candidates: CandidateOptions::default(),
            copy_cost_per_element: 2.0,
            miss_cost: 1.0,
        }
    }
}

/// The layout schedule of one array: one layout per segment plus the points
/// where it changes.
#[derive(Debug, Clone, PartialEq)]
pub struct ArraySchedule {
    /// The array.
    pub array: ArrayId,
    /// The chosen layout in every segment (same length as the
    /// segmentation).
    pub per_segment: Vec<Layout>,
    /// Indices of segment boundaries (between segment `i` and `i + 1`) where
    /// the layout changes and a re-layout copy is required.
    pub switch_points: Vec<usize>,
    /// Total cost of this schedule (miss cost plus copy cost).
    pub cost: f64,
    /// Cost of the best *static* (single-layout) schedule for comparison.
    pub static_cost: f64,
}

impl ArraySchedule {
    /// Whether the array ever changes layout.
    pub fn is_dynamic(&self) -> bool {
        !self.switch_points.is_empty()
    }

    /// The benefit of going dynamic: static cost minus dynamic cost (never
    /// negative, because the static schedule is one of the candidates).
    pub fn benefit(&self) -> f64 {
        (self.static_cost - self.cost).max(0.0)
    }
}

/// A complete dynamic-layout plan for a program.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicPlan {
    /// The segmentation the plan was computed for.
    pub segmentation: Segmentation,
    /// One schedule per array (in array-id order).
    pub schedules: Vec<ArraySchedule>,
}

impl DynamicPlan {
    /// The schedule of one array, if the array exists.
    pub fn schedule_of(&self, array: ArrayId) -> Option<&ArraySchedule> {
        self.schedules.iter().find(|s| s.array == array)
    }

    /// The static [`LayoutAssignment`] in force during one segment.
    ///
    /// # Panics
    ///
    /// Panics when the segment index is out of range.
    pub fn assignment_for_segment(&self, segment: usize) -> LayoutAssignment {
        assert!(segment < self.segmentation.len(), "segment out of range");
        let mut assignment = LayoutAssignment::new();
        for schedule in &self.schedules {
            assignment.set(schedule.array, schedule.per_segment[segment].clone());
        }
        assignment
    }

    /// Arrays whose layout changes at least once.
    pub fn dynamic_arrays(&self) -> Vec<ArrayId> {
        self.schedules
            .iter()
            .filter(|s| s.is_dynamic())
            .map(|s| s.array)
            .collect()
    }

    /// Total plan cost (sum over arrays).
    pub fn total_cost(&self) -> f64 {
        self.schedules.iter().map(|s| s.cost).sum()
    }

    /// Total cost of the best static plan (sum over arrays).
    pub fn total_static_cost(&self) -> f64 {
        self.schedules.iter().map(|s| s.static_cost).sum()
    }

    /// Overall benefit of dynamic layouts over static ones.
    pub fn total_benefit(&self) -> f64 {
        (self.total_static_cost() - self.total_cost()).max(0.0)
    }
}

impl fmt::Display for DynamicPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "dynamic plan over {} segments: cost {:.0} (static {:.0}, benefit {:.0})",
            self.segmentation.len(),
            self.total_cost(),
            self.total_static_cost(),
            self.total_benefit()
        )?;
        for s in &self.schedules {
            if s.is_dynamic() {
                writeln!(
                    f,
                    "  Q{} switches at segment boundaries {:?}",
                    s.array.index(),
                    s.switch_points
                )?;
            }
        }
        Ok(())
    }
}

/// Computes the optimal dynamic-layout plan of a program for a given
/// segmentation.
pub fn dynamic_plan(
    program: &Program,
    segmentation: &Segmentation,
    options: &DynamicOptions,
) -> DynamicPlan {
    let mut analysis = ProgramAnalysis::new(program);
    let candidates = CandidateSet::from_analysis(program, &mut analysis, &options.candidates);
    let mut schedules = Vec::new();
    for array in program.arrays() {
        let domain = candidates.of(array.id());
        schedules.push(schedule_array(
            program,
            &analysis,
            segmentation,
            array.id(),
            domain,
            options,
        ));
    }
    DynamicPlan {
        segmentation: segmentation.clone(),
        schedules,
    }
}

/// The miss cost of one array in one segment under one layout: the number of
/// dynamic references to the array that lack spatial locality under the
/// layout, taking for each nest the restructuring that is *best for this
/// array* (optimistic, consistent with the per-array decomposition).
fn segment_miss_cost(
    program: &Program,
    analysis: &ProgramAnalysis,
    segment: &[NestId],
    array: ArrayId,
    layout: &Layout,
    options: &DynamicOptions,
) -> f64 {
    let mut cost = 0.0;
    for &nest_id in segment {
        let nest = analysis.nest(nest_id);
        if !nest.arrays().contains(&array) {
            continue;
        }
        let iterations = program.nests()[nest_id.index()].iteration_count() as f64;
        // Best legal restructuring for this array: the one minimizing the
        // number of its references without locality.
        let best_missing = nest
            .first_orders()
            .map(|order| nest.references_without_locality(order, array, layout))
            .min()
            .unwrap_or(usize::MAX);
        cost += best_missing as f64 * iterations * options.miss_cost;
    }
    cost
}

/// Optimal layout schedule of one array via dynamic programming over
/// `(segment, candidate layout)`.
fn schedule_array(
    program: &Program,
    analysis: &ProgramAnalysis,
    segmentation: &Segmentation,
    array: ArrayId,
    candidates: &[Layout],
    options: &DynamicOptions,
) -> ArraySchedule {
    let segments = segmentation.segments();
    let element_count = program
        .array(array)
        .map(mlo_ir::ArrayDecl::element_count)
        .unwrap_or(0) as f64;
    let copy_cost = element_count * options.copy_cost_per_element;

    if segments.is_empty() {
        return ArraySchedule {
            array,
            per_segment: Vec::new(),
            switch_points: Vec::new(),
            cost: 0.0,
            static_cost: 0.0,
        };
    }

    // miss[s][c]: miss cost of candidate c in segment s.
    let miss: Vec<Vec<f64>> = segments
        .iter()
        .map(|segment| {
            candidates
                .iter()
                .map(|layout| segment_miss_cost(program, analysis, segment, array, layout, options))
                .collect()
        })
        .collect();

    // DP over segments.  best[s][c]: minimal cost of segments 0..=s ending
    // with candidate c in segment s; parent[s][c]: the candidate chosen in
    // segment s-1 on that best path.
    let k = candidates.len();
    let mut best = vec![vec![0.0f64; k]; segments.len()];
    let mut parent: Vec<Vec<usize>> = vec![vec![0; k]; segments.len()];
    best[0].clone_from_slice(&miss[0]);
    for s in 1..segments.len() {
        for c in 0..k {
            let mut best_prev = f64::INFINITY;
            let mut best_prev_c = 0usize;
            for (p, &prev) in best[s - 1].iter().enumerate() {
                let transition = if p == c { 0.0 } else { copy_cost };
                let total = prev + transition;
                if total < best_prev {
                    best_prev = total;
                    best_prev_c = p;
                }
            }
            best[s][c] = best_prev + miss[s][c];
            parent[s][c] = best_prev_c;
        }
    }

    // Reconstruct the optimal path.
    let last = segments.len() - 1;
    let mut end = (0..k)
        .min_by(|&a, &b| best[last][a].total_cmp(&best[last][b]))
        .expect("at least one candidate");
    let cost = best[last][end];
    let mut chosen_indices = vec![0usize; segments.len()];
    chosen_indices[last] = end;
    for s in (1..=last).rev() {
        end = parent[s][end];
        chosen_indices[s - 1] = end;
    }
    let per_segment: Vec<Layout> = chosen_indices
        .iter()
        .map(|&c| candidates[c].clone())
        .collect();
    let switch_points: Vec<usize> = (0..last)
        .filter(|&s| chosen_indices[s] != chosen_indices[s + 1])
        .collect();

    // Best static schedule: one candidate used everywhere.
    let static_cost = (0..k)
        .map(|c| (0..segments.len()).map(|s| miss[s][c]).sum::<f64>())
        .fold(f64::INFINITY, f64::min);

    ArraySchedule {
        array,
        per_segment,
        switch_points,
        cost,
        static_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlo_ir::{AccessBuilder, ProgramBuilder};

    /// First half of the program sweeps A row-wise, second half column-wise;
    /// each nest is pinned to its original loop order by a dependence with
    /// distance `(1, -1)` so restructuring cannot hide the phase change, and
    /// the pinning references themselves follow the phase's direction.
    fn phase_change_program(n: i64, nests_per_phase: usize) -> Program {
        let mut b = ProgramBuilder::new("phase_change");
        let a = b.array("A", vec![n, n], 4);
        // Row-wise pin: write A[i][j], read A[i-1][j+1] (distance (1, -1)).
        let pin_row = |nest: &mut mlo_ir::NestBuilder| {
            nest.write(
                mlo_ir::ArrayId::new(0),
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
            nest.read(
                mlo_ir::ArrayId::new(0),
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .offset(0, -1)
                    .offset(1, 1)
                    .build(),
            );
        };
        // Column-wise pin: write A[j][i], read A[j+1][i-1] (same distance).
        let pin_col = |nest: &mut mlo_ir::NestBuilder| {
            nest.write(
                mlo_ir::ArrayId::new(0),
                AccessBuilder::new(2, 2)
                    .row(0, [0, 1])
                    .row(1, [1, 0])
                    .build(),
            );
            nest.read(
                mlo_ir::ArrayId::new(0),
                AccessBuilder::new(2, 2)
                    .row(0, [0, 1])
                    .row(1, [1, 0])
                    .offset(0, 1)
                    .offset(1, -1)
                    .build(),
            );
        };
        for k in 0..nests_per_phase {
            b.nest(
                format!("row_phase{k}"),
                vec![("i", 0, n), ("j", 0, n)],
                |nest| {
                    nest.read(
                        a,
                        AccessBuilder::new(2, 2)
                            .row(0, [1, 0])
                            .row(1, [0, 1])
                            .build(),
                    );
                    pin_row(nest);
                },
            );
        }
        for k in 0..nests_per_phase {
            b.nest(
                format!("col_phase{k}"),
                vec![("i", 0, n), ("j", 0, n)],
                |nest| {
                    nest.read(
                        a,
                        AccessBuilder::new(2, 2)
                            .row(0, [0, 1])
                            .row(1, [1, 0])
                            .build(),
                    );
                    pin_col(nest);
                },
            );
        }
        b.build()
    }

    #[test]
    fn segmentation_constructors() {
        let p = phase_change_program(8, 2);
        let by_two = Segmentation::by_window(&p, 2);
        assert_eq!(by_two.len(), 2);
        assert_eq!(by_two.segments()[0].len(), 2);
        let single = Segmentation::single(&p);
        assert_eq!(single.len(), 1);
        assert!(!single.is_empty());
        let explicit = Segmentation::new(
            &p,
            vec![
                vec![NestId::new(0)],
                vec![NestId::new(1), NestId::new(2)],
                vec![NestId::new(3)],
            ],
        );
        assert_eq!(explicit.len(), 3);
    }

    #[test]
    #[should_panic(expected = "every nest")]
    fn segmentation_must_cover_all_nests() {
        let p = phase_change_program(8, 2);
        let _ = Segmentation::new(&p, vec![vec![NestId::new(0)]]);
    }

    #[test]
    #[should_panic(expected = "contiguously")]
    fn segmentation_must_be_in_order() {
        let p = phase_change_program(8, 1);
        let _ = Segmentation::new(&p, vec![vec![NestId::new(1)], vec![NestId::new(0)]]);
    }

    #[test]
    fn cheap_copies_make_the_layout_switch() {
        // Big iteration counts, small array: switching pays off.
        let p = phase_change_program(48, 2);
        let segmentation = Segmentation::by_window(&p, 2);
        let options = DynamicOptions::default();
        let plan = dynamic_plan(&p, &segmentation, &options);
        let a = mlo_ir::ArrayId::new(0);
        let schedule = plan.schedule_of(a).expect("A is in the plan");
        assert!(
            schedule.is_dynamic(),
            "the phase change should trigger a layout switch: {plan}"
        );
        assert_eq!(schedule.switch_points, vec![0]);
        assert_eq!(schedule.per_segment[0], Layout::row_major(2));
        assert_eq!(schedule.per_segment[1], Layout::column_major(2));
        assert!(schedule.benefit() > 0.0);
        assert!(plan.total_benefit() > 0.0);
        assert_eq!(plan.dynamic_arrays(), vec![a]);
    }

    #[test]
    fn expensive_copies_keep_the_layout_static() {
        let p = phase_change_program(16, 1);
        let segmentation = Segmentation::by_window(&p, 1);
        let options = DynamicOptions {
            copy_cost_per_element: 1e9,
            ..DynamicOptions::default()
        };
        let plan = dynamic_plan(&p, &segmentation, &options);
        let schedule = plan.schedule_of(mlo_ir::ArrayId::new(0)).unwrap();
        assert!(!schedule.is_dynamic());
        // With no switch the dynamic cost equals the best static cost.
        assert!((schedule.cost - schedule.static_cost).abs() < 1e-9);
        assert_eq!(plan.total_benefit(), 0.0);
    }

    #[test]
    fn single_segment_degenerates_to_static_selection() {
        let p = phase_change_program(16, 2);
        let plan = dynamic_plan(&p, &Segmentation::single(&p), &DynamicOptions::default());
        for schedule in &plan.schedules {
            assert!(!schedule.is_dynamic());
            assert_eq!(schedule.per_segment.len(), 1);
            assert!((schedule.cost - schedule.static_cost).abs() < 1e-9);
        }
    }

    #[test]
    fn dynamic_cost_never_exceeds_static_cost() {
        let mut totals = Vec::new();
        for window in [1usize, 2, 3] {
            let p = phase_change_program(24, 3);
            let plan = dynamic_plan(
                &p,
                &Segmentation::by_window(&p, window),
                &DynamicOptions::default(),
            );
            for schedule in &plan.schedules {
                assert!(
                    schedule.cost <= schedule.static_cost + 1e-9,
                    "dynamic must never lose to static (window {window})"
                );
            }
            totals.push(plan.total_cost());
        }
        // Window 1 refines window 3, so it can only help (or tie).
        assert!(totals[0] <= totals[2] + 1e-9);
    }

    #[test]
    fn per_segment_assignments_are_complete() {
        let p = phase_change_program(16, 2);
        let segmentation = Segmentation::by_window(&p, 2);
        let plan = dynamic_plan(&p, &segmentation, &DynamicOptions::default());
        for s in 0..segmentation.len() {
            let assignment = plan.assignment_for_segment(s);
            for array in p.arrays() {
                assert!(assignment.contains(array.id()));
            }
        }
    }

    #[test]
    fn display_mentions_switching_arrays() {
        let p = phase_change_program(48, 2);
        let plan = dynamic_plan(
            &p,
            &Segmentation::by_window(&p, 2),
            &DynamicOptions::default(),
        );
        let text = plan.to_string();
        assert!(text.contains("dynamic plan"));
        assert!(text.contains("switches"));
    }
}
