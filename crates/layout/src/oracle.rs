//! The per-consumer loop-order enumerations that [`NestAnalysis`] replaced,
//! kept as a test oracle: candidate enumeration re-walking every nest once
//! per array, the network build cloning layouts into value-based
//! constraints, the heuristic cloning its assignment per (nest, loop order),
//! best-order scoring and dynamic plans re-enumerating loop orders per
//! (array, candidate, segment, nest).  Each derives preferred layouts and
//! locality from `AffineAccess::transformed` directly.  The differential
//! proptests at the bottom pin the shared-analysis code to them on
//! well-formed random programs.
//!
//! [`NestAnalysis`]: crate::NestAnalysis

use crate::apply::LayoutAssignment;
use crate::candidates::CandidateOptions;
use crate::constraints::Contribution;
use crate::dynamic::{ArraySchedule, DynamicOptions, DynamicPlan, Segmentation};
use crate::heuristic::HeuristicResult;
use crate::hyperplane::Layout;
use crate::locality::layout_orthogonal_to;
use mlo_csp::{ConstraintNetwork, VarId};
use mlo_ir::{
    legal_permutations, rank_nests_by_cost, AffineAccess, ArrayId, LoopNest, LoopTransform, NestId,
    Program,
};
use mlo_linalg::IntVec;
use std::time::Instant;

/// The preferred layout of `array` within `nest` under `transform`,
/// combining every reference the nest makes to that array.
///
/// The layout must keep *all* the per-reference innermost movement
/// directions inside one hyperplane block when possible; if the directions
/// are too many to be simultaneously satisfied, the function falls back to
/// the direction of the first moving reference (the same greedy choice the
/// original heuristic frameworks make).
pub fn preferred_layout_for_array(
    nest: &LoopNest,
    array: ArrayId,
    transform: &LoopTransform,
) -> Option<Layout> {
    let refs = nest.references_to(array);
    if refs.is_empty() {
        return None;
    }
    let mut directions: Vec<IntVec> = Vec::new();
    for r in refs {
        let transformed = r
            .access()
            .transformed(transform.inverse())
            .expect("transform depth matches access depth");
        if transformed.array_rank() <= 1 || transformed.nest_depth() == 0 {
            continue;
        }
        let d = transformed.innermost_direction();
        if !d.is_zero() && !directions.contains(&d) {
            directions.push(d);
        }
    }
    if directions.is_empty() {
        return None;
    }
    // Try to satisfy all directions at once, then progressively fewer.
    for take in (1..=directions.len()).rev() {
        if let Some(layout) = layout_orthogonal_to(&directions[..take]) {
            return Some(layout);
        }
    }
    None
}

/// Whether `layout` gives the reference spatial locality in the innermost
/// loop of the (transformed) nest: the per-iteration movement stays within
/// one hyperplane block.  References that do not move at all count as having
/// locality (temporal reuse).
pub fn has_spatial_locality(
    access: &AffineAccess,
    transform: &LoopTransform,
    layout: &Layout,
) -> bool {
    let transformed = access
        .transformed(transform.inverse())
        .expect("transform depth matches access depth");
    if transformed.nest_depth() == 0 {
        return true;
    }
    let direction = transformed.innermost_direction();
    if direction.is_zero() {
        return true;
    }
    if transformed.array_rank() != layout.dim() {
        return false;
    }
    layout.preserves_direction(&direction)
}

/// Enumerates the candidate layouts (the domain `M_i`) of one array: every
/// layout preferred by some nest under some legal restructuring, plus the
/// canonical layouts when requested.
///
/// The order is deterministic: derived layouts in program order first, then
/// the canonical additions.
pub fn candidate_layouts(
    program: &Program,
    array: ArrayId,
    options: &CandidateOptions,
) -> Vec<Layout> {
    let rank = match program.array(array) {
        Ok(decl) => decl.rank(),
        Err(_) => return Vec::new(),
    };
    let mut layouts: Vec<Layout> = Vec::new();
    fn push(layouts: &mut Vec<Layout>, l: Layout) {
        if !layouts.contains(&l) {
            layouts.push(l);
        }
    }
    for nest in program.nests() {
        if !nest.referenced_arrays().contains(&array) {
            continue;
        }
        for transform in legal_permutations(nest)
            .into_iter()
            .take(options.max_transforms_per_nest.max(1))
        {
            if let Some(layout) = preferred_layout_for_array(nest, array, &transform) {
                if layout.dim() == rank {
                    push(&mut layouts, layout);
                }
            }
        }
    }
    if options.include_canonical && rank >= 1 {
        push(&mut layouts, Layout::row_major(rank));
        push(&mut layouts, Layout::column_major(rank));
    }
    if options.include_diagonals && rank == 2 {
        push(&mut layouts, Layout::diagonal());
        push(&mut layouts, Layout::anti_diagonal());
    }
    if layouts.is_empty() && rank >= 1 {
        push(&mut layouts, Layout::row_major(rank));
    }
    layouts
}

/// Builds the constraint network of a program: its value-based network,
/// every array's variable and the contributions.
///
/// Every array becomes a variable whose domain is its candidate layouts.
/// For every nest and every legal loop permutation of that nest, the
/// preferred layouts of the referenced arrays are computed; each pair of
/// arrays with a preference contributes one allowed pair to the constraint
/// between them (accumulated across nests and restructurings).
pub fn build_network(
    program: &Program,
    options: &CandidateOptions,
) -> (
    ConstraintNetwork<Layout>,
    Vec<Option<VarId>>,
    Vec<Contribution>,
) {
    let mut network: ConstraintNetwork<Layout> = ConstraintNetwork::new();
    let mut variable_of_array: Vec<Option<VarId>> = vec![None; program.arrays().len()];

    // Variables and domains.
    for array in program.arrays() {
        let domain = candidate_layouts(program, array.id(), options);
        if domain.is_empty() {
            continue;
        }
        let var = network.add_variable(array.name(), domain);
        variable_of_array[array.id().index()] = Some(var);
    }

    // Constraints: one allowed pair per (nest, legal transform, array pair).
    let mut contributions = Vec::new();
    for nest in program.nests() {
        for (order, transform) in legal_permutations(nest)
            .into_iter()
            .enumerate()
            .take(options.max_transforms_per_nest.max(1))
        {
            let mut preferences: Vec<(ArrayId, Layout)> = Vec::new();
            for array in nest.referenced_arrays() {
                if let Some(layout) = preferred_layout_for_array(nest, array, &transform) {
                    preferences.push((array, layout));
                }
            }
            for i in 0..preferences.len() {
                for j in (i + 1)..preferences.len() {
                    let (array_a, layout_a) = &preferences[i];
                    let (array_b, layout_b) = &preferences[j];
                    let (Some(var_a), Some(var_b)) = (
                        variable_of_array[array_a.index()],
                        variable_of_array[array_b.index()],
                    ) else {
                        continue;
                    };
                    network
                        .add_constraint(var_a, var_b, vec![(layout_a.clone(), layout_b.clone())])
                        .expect("preferred layouts are part of the candidate domains");
                }
            }
            if !preferences.is_empty() {
                contributions.push(Contribution {
                    nest: nest.id(),
                    order,
                    preferences,
                });
            }
        }
    }

    (network, variable_of_array, contributions)
}

/// The best (restructuring, score, newly fixed layouts) choice for a nest.
type NestChoice = Option<(String, i64, Vec<(ArrayId, Layout)>)>;

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
        let nest = &program.nests()[nest_id.index()];
        let mut best: NestChoice = None;
        for transform in legal_permutations(nest) {
            // Tentatively give every not-yet-fixed array its preferred
            // layout under this restructuring.
            let mut tentative = assignment.clone();
            let mut newly_fixed: Vec<(ArrayId, Layout)> = Vec::new();
            for array in nest.referenced_arrays() {
                if tentative.contains(array) {
                    continue;
                }
                if let Some(layout) = preferred_layout_for_array(nest, array, &transform) {
                    tentative.set(array, layout.clone());
                    newly_fixed.push((array, layout));
                }
            }
            let score = nest_score(nest, &transform, &tentative);
            let better = match &best {
                None => true,
                Some((_, best_score, _)) => score > *best_score,
            };
            if better {
                best = Some((transform.describe(), score, newly_fixed));
            }
        }
        if let Some((description, _, newly_fixed)) = best {
            for (array, layout) in newly_fixed {
                assignment.set(array, layout);
            }
            chosen_transforms.push((nest_id, description));
        }
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

/// The locality score of one nest under a given restructuring and layout
/// assignment: the number of dynamic references that enjoy locality.
///
/// References to arrays without an assigned layout are counted as having no
/// locality (the conservative choice).
pub fn nest_score(
    nest: &LoopNest,
    transform: &LoopTransform,
    assignment: &LayoutAssignment,
) -> i64 {
    let iterations = nest.iteration_count();
    let mut score = 0i64;
    for reference in nest.references() {
        let Some(layout) = assignment.layout_of(reference.array()) else {
            continue;
        };
        if has_spatial_locality(reference.access(), transform, layout) {
            score += iterations;
        }
    }
    score
}

/// The best achievable locality score of a nest over its legal
/// restructurings, together with the transform achieving it.
pub fn best_nest_score(nest: &LoopNest, assignment: &LayoutAssignment) -> (LoopTransform, i64) {
    let mut best: Option<(LoopTransform, i64)> = None;
    for transform in legal_permutations(nest) {
        let score = nest_score(nest, &transform, assignment);
        let better = match &best {
            None => true,
            Some((_, best_score)) => score > *best_score,
        };
        if better {
            best = Some((transform, score));
        }
    }
    best.unwrap_or((LoopTransform::identity(nest.depth()), 0))
}

/// Computes the optimal dynamic-layout plan of a program for a given
/// segmentation.
pub fn dynamic_plan(
    program: &Program,
    segmentation: &Segmentation,
    options: &DynamicOptions,
) -> DynamicPlan {
    let mut schedules = Vec::new();
    for array in program.arrays() {
        schedules.push(schedule_array(program, segmentation, array.id(), options));
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
    segment: &[NestId],
    array: ArrayId,
    layout: &Layout,
    options: &DynamicOptions,
) -> f64 {
    let mut cost = 0.0;
    for &nest_id in segment {
        let nest = &program.nests()[nest_id.index()];
        let references: Vec<_> = nest.references_to(array);
        if references.is_empty() {
            continue;
        }
        let iterations = nest.iteration_count() as f64;
        // Best legal restructuring for this array: the one minimizing the
        // number of its references without locality.
        let mut best_missing = usize::MAX;
        for transform in legal_permutations(nest) {
            let missing = references
                .iter()
                .filter(|r| !has_spatial_locality(r.access(), &transform, layout))
                .count();
            best_missing = best_missing.min(missing);
        }
        cost += best_missing as f64 * iterations * options.miss_cost;
    }
    cost
}

/// Optimal layout schedule of one array via dynamic programming over
/// `(segment, candidate layout)`.
fn schedule_array(
    program: &Program,
    segmentation: &Segmentation,
    array: ArrayId,
    options: &DynamicOptions,
) -> ArraySchedule {
    let candidates = candidate_layouts(program, array, &options.candidates);
    let candidates = if candidates.is_empty() {
        vec![Layout::row_major(
            program.array(array).map(|a| a.rank()).unwrap_or(1),
        )]
    } else {
        candidates
    };
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
                .map(|layout| segment_miss_cost(program, segment, array, layout, options))
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

mod tests {
    use super::*;
    use crate::analysis::NestAnalysis;
    use mlo_ir::{AccessBuilder, ProgramBuilder};
    use proptest::prelude::*;

    /// SplitMix64: a tiny deterministic generator, so the random programs
    /// need no dependency beyond the case seed.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n`.
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Uniform in `lo..=hi`.
        fn between(&mut self, lo: i64, hi: i64) -> i64 {
            lo + self.below((hi - lo + 1) as usize) as i64
        }
    }

    /// A random affine access: sparse coefficients in `-1..=1` (half of
    /// them zero) and offsets in `-1..=1`.
    fn random_access(rng: &mut SplitMix, rank: usize, depth: usize) -> AffineAccess {
        let mut access = AccessBuilder::new(rank, depth);
        for dim in 0..rank {
            for level in 0..depth {
                let coefficient = [0, 0, 0, 1, 1, -1][rng.below(6)];
                access = access.coeff(dim, level, coefficient);
            }
            access = access.offset(dim, rng.between(-1, 1));
        }
        access.build()
    }

    /// A well-formed random program: 1–`max_arrays` arrays of rank 1–3,
    /// 1–`max_nests` nests of depth 1–4, each with 1–4 reads or writes whose
    /// rank matches their array.  A third of the references are a write plus a read of the same
    /// array shifted by a small offset: a uniform dependence that can make
    /// loop orders illegal.  Depth-4 nests have up to 24 legal orders, more
    /// than most `max_transforms_per_nest` caps.
    fn random_program(seed: u64, max_arrays: usize, max_nests: usize) -> Program {
        const LOOPS: [&str; 4] = ["i", "j", "k", "l"];
        let mut rng = SplitMix(seed);
        let mut b = ProgramBuilder::new(format!("oracle_{seed}"));
        let arrays: Vec<(ArrayId, usize)> = (0..1 + rng.below(max_arrays))
            .map(|a| {
                let rank = 1 + rng.below(3);
                let extents = (0..rank).map(|_| rng.between(4, 8)).collect();
                (b.array(format!("A{a}"), extents, 4), rank)
            })
            .collect();
        for n in 0..1 + rng.below(max_nests) {
            let depth = 1 + rng.below(4);
            let loops = LOOPS[..depth]
                .iter()
                .map(|&name| (name, 0, rng.between(2, 5)))
                .collect();
            b.nest(format!("n{n}"), loops, |nest| {
                for _ in 0..1 + rng.below(4) {
                    let (array, rank) = arrays[rng.below(arrays.len())];
                    let access = random_access(&mut rng, rank, depth);
                    match rng.below(6) {
                        0 | 1 => {
                            let mut shifted = AccessBuilder::new(rank, depth);
                            for dim in 0..rank {
                                for level in 0..depth {
                                    shifted =
                                        shifted.coeff(dim, level, access.matrix().get(dim, level));
                                }
                                let offset = access.offset()[dim] + rng.between(-1, 1);
                                shifted = shifted.offset(dim, offset);
                            }
                            nest.write(array, access);
                            nest.read(array, shifted.build());
                        }
                        2 => {
                            nest.write(array, access);
                        }
                        _ => {
                            nest.read(array, access);
                        }
                    }
                }
            });
        }
        b.build()
    }

    /// Candidate options varied by the case seed.
    fn random_options(seed: u64) -> CandidateOptions {
        let mut rng = SplitMix(seed ^ 0x5eed);
        CandidateOptions {
            include_canonical: rng.below(3) != 0,
            include_diagonals: rng.below(2) == 0,
            max_transforms_per_nest: rng.below(12),
        }
    }

    /// Every array gets one of its candidates, picked by the seed, so the
    /// scores also see layouts no nest prefers.
    fn mixed_assignment(
        program: &Program,
        set: &crate::CandidateSet,
        seed: u64,
    ) -> LayoutAssignment {
        let mut rng = SplitMix(seed ^ 0xa55);
        let mut assignment = LayoutAssignment::new();
        for array in program.arrays() {
            let domain = set.of(array.id());
            assignment.set(array.id(), domain[rng.below(domain.len())].clone());
        }
        assignment
    }

    /// Asserts that every consumer of the shared analysis matches its
    /// oracle on one program.
    fn check(program: &Program, options: &CandidateOptions, seed: u64) {
        let case = format!("{} under {options:?}", program.name());

        let set = crate::CandidateSet::enumerate(program, options);
        for array in program.arrays() {
            assert_eq!(
                set.of(array.id()),
                candidate_layouts(program, array.id(), options).as_slice(),
                "candidates of {}: {case}",
                array.name()
            );
        }

        let fast = crate::build_network_from(program, &set);
        let (slow, slow_variables, slow_contributions) = build_network(program, options);
        assert_eq!(
            fast.contributions(),
            slow_contributions.as_slice(),
            "{case}"
        );
        let net = fast.network();
        assert_eq!(net.variable_count(), slow.variable_count(), "{case}");
        for array in program.arrays() {
            assert_eq!(
                fast.variable_of(array.id()),
                slow_variables[array.id().index()]
            );
        }
        for var in net.variables() {
            assert_eq!(net.name(var), slow.name(var), "{case}");
            assert_eq!(
                net.domain(var).values(),
                slow.domain(var).values(),
                "{case}"
            );
        }
        assert_eq!(net.constraint_count(), slow.constraint_count(), "{case}");
        for (f, s) in net.constraints().iter().zip(slow.constraints()) {
            assert_eq!(f, s, "constraint order, scope and pairs: {case}");
        }

        let fast_heuristic = crate::heuristic_assignment(program);
        let slow_heuristic = heuristic_assignment(program);
        assert_eq!(
            fast_heuristic.assignment, slow_heuristic.assignment,
            "{case}"
        );
        assert_eq!(
            fast_heuristic.chosen_transforms, slow_heuristic.chosen_transforms,
            "{case}"
        );
        assert_eq!(
            fast_heuristic.processing_order, slow_heuristic.processing_order,
            "{case}"
        );

        let assignments = [
            fast_heuristic.assignment,
            LayoutAssignment::all_row_major(program),
            mixed_assignment(program, &set, seed),
            LayoutAssignment::new(),
        ];
        for assignment in &assignments {
            for nest in program.nests() {
                assert_eq!(
                    crate::quality::best_nest_score(nest, assignment),
                    best_nest_score(nest, assignment),
                    "best order of {}: {case}",
                    nest.name()
                );
                let analysis = NestAnalysis::new(nest);
                for (order, transform) in analysis.orders().iter().enumerate() {
                    assert_eq!(
                        analysis.score(order, |array| assignment.layout_of(array)),
                        nest_score(nest, transform, assignment),
                        "score of {} under {transform}: {case}",
                        nest.name()
                    );
                }
            }
        }

        let dynamic = DynamicOptions {
            candidates: *options,
            ..DynamicOptions::default()
        };
        for window in [1, 2, program.nests().len()] {
            let segmentation = Segmentation::by_window(program, window);
            assert_eq!(
                crate::dynamic_plan(program, &segmentation, &dynamic),
                dynamic_plan(program, &segmentation, &dynamic),
                "dynamic plan at window {window}: {case}"
            );
        }
    }

    fn check_seed(seed: u64, max_arrays: usize, max_nests: usize) {
        let program = random_program(seed, max_arrays, max_nests);
        check(&program, &random_options(seed), seed);
    }

    #[test]
    fn the_generator_covers_deep_nests_dependences_and_every_rank() {
        let programs: Vec<Program> = (0..64).map(|seed| random_program(seed, 5, 4)).collect();
        let nests = || programs.iter().flat_map(|p| p.nests());
        assert!(nests().any(|n| n.depth() == 4 && legal_permutations(n).len() > 8));
        assert!(nests().any(|n| legal_permutations(n).len() < (1..=n.depth()).product()));
        for rank in 1..=3 {
            assert!(programs
                .iter()
                .any(|p| p.arrays().iter().any(|a| a.rank() == rank)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_programs_match_the_oracle(seed in any::<u64>()) {
            check_seed(seed, 5, 4);
        }
    }

    #[test]
    #[ignore = "heavy: 256 larger random programs against every oracle"]
    fn random_programs_match_the_oracle_heavy() {
        for seed in 0..256 {
            check_seed(0x0dd5_eed0_0000 + seed, 12, 10);
        }
    }
}
