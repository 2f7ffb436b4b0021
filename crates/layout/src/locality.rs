//! Deriving preferred layouts from access patterns.
//!
//! Section 2 of the paper: for spatial locality, two successive iterations
//! `I` and `I'` of the innermost loop must access elements `d1` and `d2`
//! that lie on the same layout hyperplane, i.e. `y · (d2 − d1) = 0`.  For an
//! affine access `A·I + o`, the movement `d2 − d1` per innermost-loop step
//! is simply the innermost column of the (transformed) access matrix, so the
//! preferred layout hyperplanes are an integer basis of the kernel of that
//! direction.

use crate::hyperplane::{Hyperplane, Layout};
use mlo_ir::{AffineAccess, ArrayId, LoopNest, LoopTransform};
use mlo_linalg::{kernel_basis, IntMat, IntVec};

/// The layout preferred by references moving along `directions` per
/// innermost-loop step (see [`preferred_layout`] and
/// [`preferred_layout_for_array`]).
pub(crate) fn layout_for_directions<'a>(
    directions: impl IntoIterator<Item = &'a IntVec>,
) -> Option<Layout> {
    let mut moving = Vec::new();
    moving_directions(directions.into_iter().map(IntVec::as_slice), &mut moving);
    layout_for_moving(&moving)
}

/// Replaces `moving` with the distinct non-zero `directions` of more than
/// one dimension, in first-appearance order: the whole input of
/// [`layout_for_moving`].
pub(crate) fn moving_directions<'a>(
    directions: impl IntoIterator<Item = &'a [i64]>,
    moving: &mut Vec<&'a [i64]>,
) {
    moving.clear();
    for direction in directions {
        if direction.len() > 1 && direction.iter().any(|&x| x != 0) && !moving.contains(&direction)
        {
            moving.push(direction);
        }
    }
}

/// The layout keeping all of `moving` (see [`moving_directions`]) in one
/// hyperplane block, else the longest prefix of it that one layout can
/// keep; `None` when nothing moves.
pub(crate) fn layout_for_moving(moving: &[&[i64]]) -> Option<Layout> {
    let moving: Vec<IntVec> = moving.iter().map(|&direction| direction.into()).collect();
    (1..=moving.len())
        .rev()
        .find_map(|take| layout_orthogonal_to(&moving[..take]))
}

/// The preferred layout of the array accessed by `access` when the
/// enclosing nest is restructured by `transform`.
///
/// Returns `None` when the access does not move in the data space as the
/// innermost loop advances (pure temporal locality — every layout is equally
/// good) or when the array is one-dimensional (layout choice is trivial).
pub fn preferred_layout(access: &AffineAccess, transform: &LoopTransform) -> Option<Layout> {
    layout_for_directions([&access.innermost_direction_under(transform.inverse())])
}

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
    let directions: Vec<IntVec> = nest
        .references_to(array)
        .into_iter()
        .map(|r| r.access().innermost_direction_under(transform.inverse()))
        .collect();
    layout_for_directions(&directions)
}

/// Builds the layout whose hyperplanes are orthogonal to every direction in
/// `directions`, or `None` when only the zero vector is orthogonal to all of
/// them (no non-trivial layout exists).
pub fn layout_orthogonal_to(directions: &[IntVec]) -> Option<Layout> {
    let moving: Vec<IntVec> = directions
        .iter()
        .filter(|d| !d.is_zero())
        .cloned()
        .collect();
    if moving.is_empty() {
        return None;
    }
    let m = IntMat::from_rows(moving);
    let basis = kernel_basis(&m);
    if basis.is_empty() {
        return None;
    }
    let hyperplanes: Vec<Hyperplane> = basis.into_iter().filter_map(Hyperplane::try_new).collect();
    if hyperplanes.is_empty() {
        None
    } else {
        Some(Layout::new(hyperplanes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlo_ir::{AccessBuilder, AccessKind, Loop, LoopNest, NestId};

    fn figure2_nest() -> LoopNest {
        let mut nest = LoopNest::new(
            NestId::new(0),
            "figure2",
            vec![Loop::new("i1", 0, 64), Loop::new("i2", 0, 64)],
        );
        // Q1[i1+i2][i2]
        nest.add_reference(
            ArrayId::new(0),
            AccessBuilder::new(2, 2)
                .row(0, [1, 1])
                .row(1, [0, 1])
                .build(),
            AccessKind::Read,
        );
        // Q2[i1+i2][i1]
        nest.add_reference(
            ArrayId::new(1),
            AccessBuilder::new(2, 2)
                .row(0, [1, 1])
                .row(1, [1, 0])
                .build(),
            AccessKind::Read,
        );
        nest
    }

    #[test]
    fn paper_figure2_original_order() {
        let nest = figure2_nest();
        let id = LoopTransform::identity(2);
        assert_eq!(
            preferred_layout_for_array(&nest, ArrayId::new(0), &id),
            Some(Layout::diagonal())
        );
        assert_eq!(
            preferred_layout_for_array(&nest, ArrayId::new(1), &id),
            Some(Layout::column_major(2))
        );
    }

    #[test]
    fn paper_figure2_interchanged() {
        // Section 2: after interchanging the two loops, the best layouts
        // become (0 1) for Q1 and (1 -1) for Q2.
        let nest = figure2_nest();
        let interchange = LoopTransform::permutation(&[1, 0]);
        assert_eq!(
            preferred_layout_for_array(&nest, ArrayId::new(0), &interchange),
            Some(Layout::column_major(2))
        );
        assert_eq!(
            preferred_layout_for_array(&nest, ArrayId::new(1), &interchange),
            Some(Layout::diagonal())
        );
    }

    #[test]
    fn row_major_access_prefers_row_major() {
        // A[i][j] traversed with j innermost prefers (1 0).
        let access = AccessBuilder::new(2, 2)
            .row(0, [1, 0])
            .row(1, [0, 1])
            .build();
        let layout = preferred_layout(&access, &LoopTransform::identity(2)).unwrap();
        assert_eq!(layout, Layout::row_major(2));
    }

    #[test]
    fn temporal_reuse_has_no_preference() {
        // A[i][0] does not move with the innermost loop j.
        let access = AccessBuilder::new(2, 2)
            .row(0, [1, 0])
            .row(1, [0, 0])
            .build();
        assert_eq!(preferred_layout(&access, &LoopTransform::identity(2)), None);
    }

    #[test]
    fn one_dimensional_arrays_have_no_preference() {
        let access = AccessBuilder::new(1, 2).row(0, [0, 1]).build();
        assert_eq!(preferred_layout(&access, &LoopTransform::identity(2)), None);
    }

    #[test]
    fn three_dimensional_preference() {
        // A[i][j][k] with k innermost: movement (0,0,1); kernel = rows
        // fixing the first two indices -> row-major-like layout.
        let access = AccessBuilder::new(3, 3)
            .row(0, [1, 0, 0])
            .row(1, [0, 1, 0])
            .row(2, [0, 0, 1])
            .build();
        let layout = preferred_layout(&access, &LoopTransform::identity(3)).unwrap();
        assert_eq!(layout.len(), 2);
        assert!(layout.preserves_direction(&IntVec::from(vec![0, 0, 1])));
        assert!(!layout.preserves_direction(&IntVec::from(vec![1, 0, 0])));
    }

    #[test]
    fn conflicting_references_fall_back_gracefully() {
        // The same array accessed both row-wise and column-wise in one nest:
        // no single 2-D layout satisfies both, so the first direction wins.
        let mut nest = LoopNest::new(
            NestId::new(0),
            "conflict",
            vec![Loop::new("i", 0, 8), Loop::new("j", 0, 8)],
        );
        nest.add_reference(
            ArrayId::new(0),
            AccessBuilder::new(2, 2)
                .row(0, [1, 0])
                .row(1, [0, 1])
                .build(),
            AccessKind::Read,
        );
        nest.add_reference(
            ArrayId::new(0),
            AccessBuilder::new(2, 2)
                .row(0, [0, 1])
                .row(1, [1, 0])
                .build(),
            AccessKind::Read,
        );
        let layout =
            preferred_layout_for_array(&nest, ArrayId::new(0), &LoopTransform::identity(2));
        assert_eq!(layout, Some(Layout::row_major(2)));
    }

    #[test]
    fn orthogonal_layout_helper() {
        assert_eq!(layout_orthogonal_to(&[]), None);
        assert_eq!(layout_orthogonal_to(&[IntVec::zeros(2)]), None);
        assert_eq!(
            layout_orthogonal_to(&[IntVec::from(vec![1, 1])]),
            Some(Layout::diagonal())
        );
        // Two independent directions in 2-D: impossible.
        assert_eq!(
            layout_orthogonal_to(&[IntVec::from(vec![1, 0]), IntVec::from(vec![0, 1])]),
            None
        );
    }
}
