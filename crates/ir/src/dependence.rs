//! Data-dependence analysis for legality of loop restructuring.
//!
//! The constraint network pairs each candidate layout combination with a
//! loop restructuring of the nest (paper, Section 3: "Each pair represents
//! the best layout choice under a given loop restructuring").  A
//! restructuring may only be offered if it is *legal*, i.e. it preserves
//! every data dependence.  For the affine, uniformly generated references of
//! the benchmark kernels, dependences are captured exactly by constant
//! distance vectors; for non-uniform pairs we fall back to a conservative
//! GCD + direction test, and a pair that indexes its array with different
//! subscript counts is a dependence of unknown distance.

use crate::nest::LoopNest;
use crate::reference::ArrayRef;
use mlo_linalg::{gcd_slice, IntVec};
use std::fmt;

/// The classification of a dependence between two references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependenceKind {
    /// Write then read (true/flow dependence).
    Flow,
    /// Read then write (anti dependence).
    Anti,
    /// Write then write (output dependence).
    Output,
    /// Read then read — not a real dependence, but useful for reuse analysis.
    Input,
}

impl fmt::Display for DependenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DependenceKind::Flow => write!(f, "flow"),
            DependenceKind::Anti => write!(f, "anti"),
            DependenceKind::Output => write!(f, "output"),
            DependenceKind::Input => write!(f, "input"),
        }
    }
}

/// A dependence between two references of a nest, summarized as an iteration
/// distance vector when one exists.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DistanceVector {
    /// Dependence classification.
    pub kind: DependenceKind,
    /// Constant iteration-space distance (outermost first).  `None` when the
    /// dependence could not be summarized as a constant distance and must be
    /// treated conservatively (any direction).
    pub distance: Option<IntVec>,
}

impl DistanceVector {
    /// Whether the distance is the all-zero vector (an intra-iteration
    /// dependence, which never restricts reordering of the loops).
    pub fn is_loop_independent(&self) -> bool {
        self.distance.as_ref().map(IntVec::is_zero).unwrap_or(false)
    }
}

impl fmt::Display for DistanceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.distance {
            Some(d) => write!(f, "{} {}", self.kind, d),
            None => write!(f, "{} (*)", self.kind),
        }
    }
}

/// The most loop permutations [`DependenceAnalysis::legal_orders`] examines
/// per nest: `8!`.  Every nest of depth 8 or less is enumerated completely;
/// a deeper nest is examined in the first `8!` permutations of the
/// lexicographic order, which keep its outer `depth - 8` loops in place and
/// permute its innermost eight.  The cap bounds the work and memory a
/// request can cost: a dependence-free nest of depth `d` has `d!` legal
/// orders.
pub const MAX_EXAMINED_ORDERS: usize = 40_320;

/// Dependence analysis results for one loop nest.
#[derive(Debug, Clone, Default)]
pub struct DependenceAnalysis {
    dependences: Vec<DistanceVector>,
}

impl DependenceAnalysis {
    /// Analyzes all pairs of references in a nest that touch the same array
    /// and where at least one is a write.
    pub fn of_nest(nest: &LoopNest) -> Self {
        let mut dependences = Vec::new();
        let refs = nest.references();
        for i in 0..refs.len() {
            for j in 0..refs.len() {
                if i == j {
                    continue;
                }
                let (src, dst) = (&refs[i], &refs[j]);
                if src.array() != dst.array() {
                    continue;
                }
                let kind = match (src.is_write(), dst.is_write()) {
                    (true, false) => DependenceKind::Flow,
                    (false, true) => DependenceKind::Anti,
                    (true, true) => DependenceKind::Output,
                    (false, false) => continue,
                };
                if let Some(dep) = analyze_pair(nest, src, dst, kind) {
                    if !dependences.contains(&dep) {
                        dependences.push(dep);
                    }
                }
            }
        }
        Self { dependences }
    }

    /// The dependences found (loop-independent ones included).
    pub fn dependences(&self) -> &[DistanceVector] {
        &self.dependences
    }

    /// Whether the nest carries no dependence at all (fully permutable).
    pub fn is_dependence_free(&self) -> bool {
        self.dependences.is_empty()
    }

    /// Checks whether a loop transformation given by the unimodular matrix
    /// `t` (mapping old iteration vectors to new ones) preserves every
    /// dependence: each transformed distance vector must remain
    /// lexicographically non-negative.
    ///
    /// Dependences without a constant distance are treated conservatively:
    /// any transformation other than the identity is rejected.
    pub fn is_legal(&self, t: &mlo_linalg::IntMat) -> bool {
        for dep in &self.dependences {
            match &dep.distance {
                Some(d) if d.is_zero() => continue,
                Some(d) => {
                    let transformed = match t.mul_vec(d) {
                        Ok(v) => v,
                        Err(_) => return false,
                    };
                    if !lexicographically_non_negative(&transformed) {
                        return false;
                    }
                }
                None => {
                    if !t.is_identity() {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Whether running the loops in `order` (`order[k]` is the original
    /// loop at position `k`, outermost first) preserves every dependence:
    /// each distance, read in permuted order (`d[order[0]], d[order[1]],
    /// ...`), must stay lexicographically non-negative.  This is
    /// [`is_legal`](Self::is_legal) of the permutation's matrix without
    /// forming it.  The identity is always legal; a dependence of unknown
    /// distance admits nothing else.
    ///
    /// # Panics
    ///
    /// Panics when `order` is not a permutation of `0..order.len()` and a
    /// distance is read at an entry out of that range.
    pub fn is_legal_order(&self, order: &[usize]) -> bool {
        let identity = order.iter().enumerate().all(|(k, &l)| k == l);
        identity
            || self.dependences.iter().all(|dep| match &dep.distance {
                Some(d) if d.is_zero() => true,
                Some(d) => {
                    d.dim() == order.len()
                        && order
                            .iter()
                            .map(|&l| d[l])
                            .find(|&x| x != 0)
                            .is_none_or(|x| x > 0)
                }
                None => false,
            })
    }

    /// Calls `visit` with every legal loop order of a `depth`-deep nest
    /// (see [`is_legal_order`](Self::is_legal_order)), in the lexicographic
    /// order of [`all_permutations`](crate::all_permutations), so the
    /// identity comes first.  At most [`MAX_EXAMINED_ORDERS`] permutations
    /// are examined, all in one buffer: `visit` borrows each order.
    pub fn legal_orders(&self, depth: usize, mut visit: impl FnMut(&[usize])) {
        let mut order: Vec<usize> = (0..depth).collect();
        for _ in 0..MAX_EXAMINED_ORDERS {
            if self.is_legal_order(&order) {
                visit(&order);
            }
            if !next_permutation(&mut order) {
                break;
            }
        }
    }
}

/// Advances `order` to the next permutation in lexicographic order, or
/// returns `false` when it is the last.
fn next_permutation(order: &mut [usize]) -> bool {
    // The rightmost position whose successor is larger, then the rightmost
    // larger entry after it: swap them and reverse the descending tail.
    let Some(pivot) = (1..order.len()).rev().find(|&i| order[i - 1] < order[i]) else {
        return false;
    };
    let pivot = pivot - 1;
    let successor = (pivot + 1..order.len())
        .rev()
        .find(|&i| order[i] > order[pivot])
        .expect("the entry after the pivot is larger");
    order.swap(pivot, successor);
    order[pivot + 1..].reverse();
    true
}

/// Whether a vector is lexicographically non-negative (first non-zero
/// component positive, or all zero).
pub fn lexicographically_non_negative(v: &IntVec) -> bool {
    for &x in v.iter() {
        if x > 0 {
            return true;
        }
        if x < 0 {
            return false;
        }
    }
    true
}

fn analyze_pair(
    nest: &LoopNest,
    src: &ArrayRef,
    dst: &ArrayRef,
    kind: DependenceKind,
) -> Option<DistanceVector> {
    let a_src = src.access();
    let a_dst = dst.access();
    if a_src.array_rank() != a_dst.array_rank() {
        // The two references index the array with different subscript
        // counts, so no per-dimension test applies.  Assume a dependence
        // of unknown distance: only the identity order stays legal.
        return Some(DistanceVector {
            kind,
            distance: None,
        });
    }
    if a_src.is_uniform_with(a_dst) {
        // Uniformly generated pair: the same element is touched when
        // A·i_src + o_src = A·i_dst + o_dst, i.e. the iteration distance
        // d = i_dst - i_src satisfies A·d = o_src - o_dst.  We solve exactly
        // and keep the solution when it is integral; a lexicographically
        // negative distance means the dependence actually flows in the other
        // direction and is recorded when the swapped pair is analyzed.
        let delta = a_src
            .offset()
            .checked_sub(a_dst.offset())
            .expect("offsets of references to one array have equal rank");
        if delta.is_zero() {
            return Some(DistanceVector {
                kind,
                distance: Some(IntVec::zeros(nest.depth())),
            });
        }
        match mlo_linalg::solve(a_src.matrix(), &delta) {
            Ok(solution) => {
                if solution.iter().all(|r| r.is_integer()) {
                    let d: IntVec = solution
                        .iter()
                        .map(|r| r.to_integer().expect("checked integral"))
                        .collect();
                    // A lexicographically negative distance belongs to the
                    // reversed pair; a distance larger than a trip count can
                    // never be realized.
                    let realizable = lexicographically_non_negative(&d)
                        && d.iter()
                            .zip(nest.loops().iter())
                            .all(|(&di, l)| di.abs() < l.trip_count().max(1));
                    if realizable {
                        Some(DistanceVector {
                            kind,
                            distance: Some(d),
                        })
                    } else {
                        None
                    }
                } else {
                    // Non-integral solution: no dependence.
                    None
                }
            }
            Err(mlo_linalg::LinalgError::Inconsistent) => None,
            Err(_) => Some(DistanceVector {
                kind,
                distance: None,
            }),
        }
    } else {
        // Non-uniform pair: run a per-dimension GCD feasibility test; if any
        // dimension proves independence, there is no dependence, otherwise
        // report an unknown-direction dependence.
        let rank = a_src.array_rank();
        for dim in 0..rank {
            let mut coeffs: Vec<i64> = a_src.matrix().row(dim).into_inner();
            coeffs.extend(a_dst.matrix().row(dim).iter().map(|&c| -c));
            let rhs = a_dst.offset()[dim] - a_src.offset()[dim];
            let g = gcd_slice(&coeffs);
            if g != 0 && rhs % g != 0 {
                return None;
            }
            if g == 0 && rhs != 0 {
                return None;
            }
        }
        Some(DistanceVector {
            kind,
            distance: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessBuilder;
    use crate::ids::{ArrayId, NestId};
    use crate::nest::Loop;
    use crate::reference::AccessKind;
    use mlo_linalg::IntMat;

    fn nest_with(refs: Vec<(ArrayId, crate::AffineAccess, AccessKind)>) -> LoopNest {
        let mut nest = LoopNest::new(
            NestId::new(0),
            "t",
            vec![Loop::new("i", 0, 16), Loop::new("j", 0, 16)],
        );
        for (a, acc, k) in refs {
            nest.add_reference(a, acc, k);
        }
        nest
    }

    fn ident2() -> crate::AffineAccess {
        AccessBuilder::new(2, 2)
            .row(0, [1, 0])
            .row(1, [0, 1])
            .build()
    }

    #[test]
    fn no_dependence_between_different_arrays() {
        let nest = nest_with(vec![
            (ArrayId::new(0), ident2(), AccessKind::Write),
            (ArrayId::new(1), ident2(), AccessKind::Read),
        ]);
        let dep = DependenceAnalysis::of_nest(&nest);
        assert!(dep.is_dependence_free());
        // Any permutation is legal.
        assert!(dep.is_legal(&IntMat::from_array([[0, 1], [1, 0]])));
    }

    #[test]
    fn read_read_pairs_are_not_dependences() {
        let nest = nest_with(vec![
            (ArrayId::new(0), ident2(), AccessKind::Read),
            (ArrayId::new(0), ident2(), AccessKind::Read),
        ]);
        assert!(DependenceAnalysis::of_nest(&nest).is_dependence_free());
    }

    #[test]
    fn uniform_dependence_distance() {
        // A[i][j] = ... A[i-1][j] ...  -> flow dependence with distance (1, 0).
        let write = ident2();
        let read = AccessBuilder::new(2, 2)
            .row(0, [1, 0])
            .row(1, [0, 1])
            .offset(0, -1)
            .build();
        let nest = nest_with(vec![
            (ArrayId::new(0), write, AccessKind::Write),
            (ArrayId::new(0), read, AccessKind::Read),
        ]);
        let dep = DependenceAnalysis::of_nest(&nest);
        assert!(!dep.is_dependence_free());
        let distances: Vec<_> = dep
            .dependences()
            .iter()
            .filter_map(|d| d.distance.clone())
            .collect();
        assert!(distances.contains(&IntVec::from(vec![1, 0])));
        // Loop interchange maps (1,0) -> (0,1): still lexicographically
        // positive, so it is legal.
        assert!(dep.is_legal(&IntMat::from_array([[0, 1], [1, 0]])));
        // Loop reversal of the outer loop maps (1,0) -> (-1,0): illegal.
        assert!(!dep.is_legal(&IntMat::from_array([[-1, 0], [0, 1]])));
    }

    #[test]
    fn interchange_illegal_for_anti_diagonal_dependence() {
        // A[i][j] written, A[i-1][j+1] read: distance (1, -1).  Interchange
        // maps it to (-1, 1) which is lexicographically negative -> illegal.
        let write = ident2();
        let read = AccessBuilder::new(2, 2)
            .row(0, [1, 0])
            .row(1, [0, 1])
            .offset(0, -1)
            .offset(1, 1)
            .build();
        let nest = nest_with(vec![
            (ArrayId::new(0), write, AccessKind::Write),
            (ArrayId::new(0), read, AccessKind::Read),
        ]);
        let dep = DependenceAnalysis::of_nest(&nest);
        assert!(dep.is_legal(&IntMat::identity(2)));
        assert!(!dep.is_legal(&IntMat::from_array([[0, 1], [1, 0]])));
    }

    #[test]
    fn intra_iteration_dependence_never_blocks() {
        // C[i][j] read and written in the same iteration: distance (0, 0).
        let nest = nest_with(vec![
            (ArrayId::new(0), ident2(), AccessKind::Write),
            (ArrayId::new(0), ident2(), AccessKind::Read),
        ]);
        let dep = DependenceAnalysis::of_nest(&nest);
        assert!(!dep.is_dependence_free());
        assert!(dep.dependences().iter().all(|d| d.is_loop_independent()));
        assert!(dep.is_legal(&IntMat::from_array([[0, 1], [1, 0]])));
    }

    #[test]
    fn gcd_test_proves_independence() {
        // A[2i][j] written, A[2i'+1][j'] read: first dimension 2i = 2i'+1 has
        // no integer solution, so there is no dependence even though the
        // accesses are not uniform.
        let write = AccessBuilder::new(2, 2)
            .row(0, [2, 0])
            .row(1, [0, 1])
            .build();
        let read = AccessBuilder::new(2, 2)
            .row(0, [2, 0])
            .row(1, [0, 1])
            .offset(0, 1)
            .build();
        // Make them non-uniform by also flipping the second dimension of the
        // read access (so is_uniform_with is false).
        let read_nonuniform = AccessBuilder::new(2, 2)
            .row(0, [2, 0])
            .row(1, [1, 1])
            .offset(0, 1)
            .build();
        let nest_uniform = nest_with(vec![
            (ArrayId::new(0), write.clone(), AccessKind::Write),
            (ArrayId::new(0), read, AccessKind::Read),
        ]);
        assert!(DependenceAnalysis::of_nest(&nest_uniform).is_dependence_free());
        let nest_nonuniform = nest_with(vec![
            (ArrayId::new(0), write, AccessKind::Write),
            (ArrayId::new(0), read_nonuniform, AccessKind::Read),
        ]);
        assert!(DependenceAnalysis::of_nest(&nest_nonuniform).is_dependence_free());
    }

    #[test]
    fn unknown_distance_blocks_everything_but_identity() {
        // A[i][j] written, A[j][i] read: not uniform, GCD test cannot prove
        // independence, so a conservative unknown dependence is recorded.
        let write = ident2();
        let read = AccessBuilder::new(2, 2)
            .row(0, [0, 1])
            .row(1, [1, 0])
            .build();
        let nest = nest_with(vec![
            (ArrayId::new(0), write, AccessKind::Write),
            (ArrayId::new(0), read, AccessKind::Read),
        ]);
        let dep = DependenceAnalysis::of_nest(&nest);
        assert!(!dep.is_dependence_free());
        assert!(dep.is_legal(&IntMat::identity(2)));
        assert!(!dep.is_legal(&IntMat::from_array([[0, 1], [1, 0]])));
    }

    #[test]
    fn mismatched_subscript_counts_are_unknown_dependences() {
        // A[i][j] written and A[i][j][i+j] read: the subscript counts
        // differ, so the pair is a dependence of unknown distance in both
        // directions and only the identity order stays legal.
        let read = AccessBuilder::new(3, 2)
            .row(0, [1, 0])
            .row(1, [0, 1])
            .row(2, [1, 1])
            .build();
        let nest = nest_with(vec![
            (ArrayId::new(0), ident2(), AccessKind::Write),
            (ArrayId::new(0), read, AccessKind::Read),
        ]);
        let dep = DependenceAnalysis::of_nest(&nest);
        let kinds: Vec<_> = dep.dependences().iter().map(|d| d.kind).collect();
        assert_eq!(kinds, [DependenceKind::Flow, DependenceKind::Anti]);
        assert!(dep.dependences().iter().all(|d| d.distance.is_none()));
        assert!(dep.is_legal(&IntMat::identity(2)));
        assert!(!dep.is_legal(&IntMat::from_array([[0, 1], [1, 0]])));
    }

    #[test]
    fn lexicographic_helper() {
        assert!(lexicographically_non_negative(&IntVec::from(vec![0, 0])));
        assert!(lexicographically_non_negative(&IntVec::from(vec![1, -5])));
        assert!(!lexicographically_non_negative(&IntVec::from(vec![-1, 5])));
        assert!(lexicographically_non_negative(&IntVec::from(vec![0, 2])));
        assert!(!lexicographically_non_negative(&IntVec::from(vec![0, -2])));
    }

    #[test]
    fn display_forms() {
        let d = DistanceVector {
            kind: DependenceKind::Flow,
            distance: Some(IntVec::from(vec![1, 0])),
        };
        assert_eq!(d.to_string(), "flow (1 0)");
        let d = DistanceVector {
            kind: DependenceKind::Anti,
            distance: None,
        };
        assert_eq!(d.to_string(), "anti (*)");
        assert_eq!(DependenceKind::Output.to_string(), "output");
        assert_eq!(DependenceKind::Input.to_string(), "input");
    }
}
