//! Iteration-space walking.
//!
//! The cache simulator replays the memory accesses of a nest in execution
//! order.  [`IterationSpace`] iterates over all iteration vectors of a nest
//! (innermost loop fastest), optionally under a loop permutation and
//! optionally sub-sampled so very large nests can be simulated in bounded
//! time while preserving the access-stride structure.

use crate::nest::LoopNest;
use crate::transform::LoopTransform;
use mlo_linalg::IntVec;

/// An iterator over the iteration vectors of a rectangular loop nest.
///
/// Vectors are produced in execution order of the (possibly transformed)
/// nest but are expressed in the *original* iteration space, so existing
/// access functions can be applied unchanged.
///
/// # Examples
///
/// ```
/// use mlo_ir::{IterationSpace, Loop, LoopNest, NestId};
/// let nest = LoopNest::new(NestId::new(0), "n", vec![
///     Loop::new("i", 0, 2),
///     Loop::new("j", 0, 2),
/// ]);
/// let points: Vec<Vec<i64>> = IterationSpace::new(&nest)
///     .map(|v| v.as_slice().to_vec())
///     .collect();
/// assert_eq!(points, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
/// ```
#[derive(Debug, Clone)]
pub struct IterationSpace {
    lowers: Vec<i64>,
    uppers: Vec<i64>,
    /// Iteration order: position k holds the original loop index that varies
    /// k-th slowest.
    order: Vec<usize>,
    /// Per-loop step (1 unless sub-sampled).
    steps: Vec<i64>,
    current: Option<Vec<i64>>,
}

impl IterationSpace {
    /// Walks the nest in its original loop order.
    pub fn new(nest: &LoopNest) -> Self {
        Self::with_order(nest, (0..nest.depth()).collect())
    }

    /// Walks the nest in the loop order produced by a permutation transform;
    /// a non-permutation transform falls back to the original order.
    pub fn transformed(nest: &LoopNest, transform: &LoopTransform) -> Self {
        match transform.permutation_order() {
            Some(order) => Self::with_order(nest, order.to_vec()),
            None => Self::new(nest),
        }
    }

    /// Walks the nest with an explicit loop order (`order[k]` = original loop
    /// index iterated at position `k`, outermost first).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the nest's loop indices.
    pub fn with_order(nest: &LoopNest, order: Vec<usize>) -> Self {
        assert_eq!(order.len(), nest.depth(), "order length must equal depth");
        let mut seen = vec![false; nest.depth()];
        for &o in &order {
            assert!(o < nest.depth() && !seen[o], "order must be a permutation");
            seen[o] = true;
        }
        let lowers: Vec<i64> = nest.loops().iter().map(|l| l.lower()).collect();
        let uppers: Vec<i64> = nest.loops().iter().map(|l| l.upper()).collect();
        let empty = lowers.iter().zip(uppers.iter()).any(|(l, u)| l >= u);
        IterationSpace {
            current: if empty { None } else { Some(lowers.clone()) },
            lowers,
            uppers,
            order,
            steps: vec![1; nest.depth()],
        }
    }

    /// Sub-samples every loop whose trip count exceeds `max_trip` so that it
    /// executes roughly `max_trip` iterations, keeping the first iteration
    /// and a constant stride.  Useful to bound trace length for very large
    /// nests while preserving stride behaviour.
    pub fn subsampled(mut self, max_trip: i64) -> Self {
        assert!(max_trip > 0, "max_trip must be positive");
        for k in 0..self.lowers.len() {
            let trip = self.uppers[k] - self.lowers[k];
            if trip > max_trip {
                self.steps[k] = (trip + max_trip - 1) / max_trip;
            }
        }
        self
    }

    /// Total number of iteration vectors this walker will produce.
    pub fn len(&self) -> i64 {
        self.lowers
            .iter()
            .zip(self.uppers.iter())
            .zip(self.steps.iter())
            .map(|((l, u), s)| {
                let trip = (u - l).max(0);
                (trip + s - 1) / s
            })
            .product()
    }

    /// Whether the space contains no iterations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first and last value each loop takes, in original loop order:
    /// every iteration vector lies in the box they span.  Meaningless for
    /// an empty space.
    pub fn extremes(&self) -> Vec<(i64, i64)> {
        (0..self.lowers.len())
            .map(|k| {
                let (lower, step) = (self.lowers[k], self.steps[k]);
                (lower, lower + (self.uppers[k] - lower - 1) / step * step)
            })
            .collect()
    }

    /// The loop that varies fastest (an original loop index) and its step,
    /// or `None` for a depth-0 space.
    pub fn innermost(&self) -> Option<(usize, i64)> {
        self.order.last().map(|&inner| (inner, self.steps[inner]))
    }

    /// Calls `visit(start, trips)` once per row of the innermost loop, in
    /// the iterator's order, without allocating a vector per row.  A row
    /// is the `trips` remaining points that start at `start` and advance
    /// along [`IterationSpace::innermost`] by its step; a depth-0 space has
    /// one row of one point.
    pub fn for_each_row(&self, mut visit: impl FnMut(&[i64], i64)) {
        let Some(mut point) = self.current.clone() else {
            return;
        };
        let Some((&inner, outer)) = self.order.split_last() else {
            visit(&point, 1);
            return;
        };
        let (upper, step) = (self.uppers[inner], self.steps[inner]);
        loop {
            visit(&point, (upper - point[inner] + step - 1) / step);
            point[inner] = self.lowers[inner];
            if !self.advance(outer, &mut point) {
                return;
            }
        }
    }

    /// Moves `point` to the next iteration vector like an odometer over the
    /// loops of `order`, its last loop fastest; `false` once the walk is
    /// over.
    #[inline]
    fn advance(&self, order: &[usize], point: &mut [i64]) -> bool {
        for &loop_idx in order.iter().rev() {
            point[loop_idx] += self.steps[loop_idx];
            if point[loop_idx] < self.uppers[loop_idx] {
                return true;
            }
            point[loop_idx] = self.lowers[loop_idx];
        }
        false
    }
}

impl Iterator for IterationSpace {
    type Item = IntVec;

    fn next(&mut self) -> Option<IntVec> {
        let mut current = self.current.take()?;
        let result = IntVec::from(current.clone());
        if self.advance(&self.order, &mut current) {
            self.current = Some(current);
        }
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NestId;
    use crate::nest::Loop;

    fn nest(bounds: &[(i64, i64)]) -> LoopNest {
        LoopNest::new(
            NestId::new(0),
            "t",
            bounds
                .iter()
                .enumerate()
                .map(|(i, &(lo, hi))| Loop::new(format!("l{i}"), lo, hi))
                .collect(),
        )
    }

    #[test]
    fn walks_in_row_major_order() {
        let n = nest(&[(0, 2), (0, 3)]);
        let pts: Vec<Vec<i64>> = IterationSpace::new(&n).map(IntVec::into_inner).collect();
        assert_eq!(
            pts,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
        assert_eq!(IterationSpace::new(&n).len(), 6);
    }

    #[test]
    fn respects_lower_bounds() {
        let n = nest(&[(2, 4)]);
        let pts: Vec<Vec<i64>> = IterationSpace::new(&n).map(IntVec::into_inner).collect();
        assert_eq!(pts, vec![vec![2], vec![3]]);
    }

    #[test]
    fn interchanged_order_varies_outer_loop_fastest() {
        let n = nest(&[(0, 2), (0, 2)]);
        let t = LoopTransform::permutation(&[1, 0]);
        let pts: Vec<Vec<i64>> = IterationSpace::transformed(&n, &t)
            .map(IntVec::into_inner)
            .collect();
        // Loop order is (j, i): i (original loop 0) now varies fastest.
        assert_eq!(pts, vec![vec![0, 0], vec![1, 0], vec![0, 1], vec![1, 1]]);
    }

    #[test]
    fn empty_nest_produces_nothing() {
        let n = nest(&[(0, 0), (0, 5)]);
        assert!(IterationSpace::new(&n).is_empty());
        assert_eq!(IterationSpace::new(&n).count(), 0);
    }

    #[test]
    fn zero_depth_nest_has_single_iteration() {
        let n = nest(&[]);
        let pts: Vec<IntVec> = IterationSpace::new(&n).collect();
        // A depth-0 nest executes its body exactly once.
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].dim(), 0);
    }

    #[test]
    fn subsampling_bounds_trace_length() {
        let n = nest(&[(0, 1000), (0, 10)]);
        let walker = IterationSpace::new(&n).subsampled(100);
        let len = walker.len();
        assert!(len <= 100 * 10);
        assert_eq!(walker.count() as i64, len);
        // Small loops are untouched.
        let n2 = nest(&[(0, 8)]);
        assert_eq!(IterationSpace::new(&n2).subsampled(100).count(), 8);
    }

    #[test]
    fn rows_and_extremes_follow_the_iterator() {
        let n = nest(&[(0, 10), (-3, 4), (2, 3)]);
        for t in [
            LoopTransform::identity(3),
            LoopTransform::permutation(&[2, 0, 1]),
            LoopTransform::permutation(&[1, 2, 0]),
        ] {
            let ws = IterationSpace::transformed(&n, &t).subsampled(3);
            let (inner, step) = ws.innermost().unwrap();
            let mut visited = Vec::new();
            ws.for_each_row(|start, trips| {
                for k in 0..trips {
                    let mut point = start.to_vec();
                    point[inner] += k * step;
                    visited.push(point);
                }
            });
            let iterated: Vec<Vec<i64>> = ws.clone().map(IntVec::into_inner).collect();
            assert_eq!(visited, iterated);
            // Loop 0 steps by 4 (0, 4, 8), loop 1 by 3 (-3, 0, 3).
            assert_eq!(ws.extremes(), vec![(0, 8), (-3, 3), (2, 2)]);
        }
        // A partly consumed walk starts mid-row.
        let mut partly = IterationSpace::new(&nest(&[(0, 2), (0, 3)]));
        partly.next();
        let mut rows = Vec::new();
        partly.for_each_row(|start, trips| rows.push((start.to_vec(), trips)));
        assert_eq!(rows, vec![(vec![0, 1], 2), (vec![1, 0], 3)]);
        // A depth-0 space is one row of one point; an empty one has none.
        let mut rows = Vec::new();
        IterationSpace::new(&nest(&[]))
            .for_each_row(|start, trips| rows.push((start.len(), trips)));
        assert_eq!(rows, vec![(0, 1)]);
        assert_eq!(IterationSpace::new(&nest(&[])).innermost(), None);
        IterationSpace::new(&nest(&[(0, 0)])).for_each_row(|_, _| panic!("empty space"));
    }

    #[test]
    fn count_matches_len_under_transform() {
        let n = nest(&[(0, 3), (1, 4), (0, 2)]);
        let t = LoopTransform::permutation(&[2, 0, 1]);
        let ws = IterationSpace::transformed(&n, &t);
        assert_eq!(ws.len(), 3 * 3 * 2);
        assert_eq!(ws.count(), 18);
    }
}
