//! Hyperplane vectors and layouts.
//!
//! A *hyperplane vector* `(y1 … yk)` partitions a `k`-dimensional data space
//! into parallel hyperplanes: two elements `d1`, `d2` lie on the same
//! hyperplane iff `y · d1 = y · d2` (paper, Section 2).  A *layout* is an
//! ordered set of hyperplane vectors; elements that agree on every
//! hyperplane are stored contiguously.  For a two-dimensional array a single
//! vector suffices: `(1 0)` is row-major, `(0 1)` column-major, `(1 -1)`
//! diagonal and `(1 1)` anti-diagonal (Figure 1).

use mlo_linalg::{rank, IntMat, IntVec};
use std::fmt;
use std::sync::Arc;

/// A single layout hyperplane vector, kept in canonical form (components
/// divided by their GCD, first non-zero component positive).
///
/// # Examples
///
/// ```
/// use mlo_layout::Hyperplane;
/// let h = Hyperplane::new(vec![2, -2]);
/// assert_eq!(h.to_string(), "(1 -1)");
/// // (5,3) and (7,5) are on the same diagonal; (5,3) and (5,4) are not.
/// assert!(h.same_hyperplane(&[5, 3], &[7, 5]));
/// assert!(!h.same_hyperplane(&[5, 3], &[5, 4]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Hyperplane {
    coefficients: IntVec,
}

impl Hyperplane {
    /// Creates a hyperplane from its coefficient vector, canonicalizing it.
    ///
    /// # Panics
    ///
    /// Panics when every coefficient is zero (a zero vector does not define
    /// a hyperplane family).
    pub fn new(coefficients: impl Into<IntVec>) -> Self {
        let v: IntVec = coefficients.into();
        assert!(
            !v.is_zero(),
            "a hyperplane vector cannot be the zero vector"
        );
        Hyperplane {
            coefficients: v.canonicalized(),
        }
    }

    /// Fallible constructor used when the coefficients come from analysis
    /// results rather than literals.
    pub fn try_new(coefficients: impl Into<IntVec>) -> Option<Self> {
        let v: IntVec = coefficients.into();
        if v.is_zero() {
            None
        } else {
            Some(Hyperplane {
                coefficients: v.canonicalized(),
            })
        }
    }

    /// The canonical coefficient vector.
    pub fn coefficients(&self) -> &IntVec {
        &self.coefficients
    }

    /// Dimensionality of the data space this hyperplane lives in.
    pub fn dim(&self) -> usize {
        self.coefficients.dim()
    }

    /// The hyperplane constant `c = y · d` of a data point.
    ///
    /// # Panics
    ///
    /// Panics when `point` has the wrong dimensionality.
    pub fn constant_of(&self, point: &[i64]) -> i64 {
        self.coefficients
            .dot(&IntVec::from(point))
            .expect("point dimensionality must match the hyperplane")
    }

    /// Whether two data points lie on the same hyperplane of this family.
    ///
    /// # Panics
    ///
    /// Panics when either point has the wrong dimensionality.
    pub fn same_hyperplane(&self, a: &[i64], b: &[i64]) -> bool {
        self.constant_of(a) == self.constant_of(b)
    }

    /// Whether a movement direction `d` keeps an access inside one
    /// hyperplane (`y · d == 0`), i.e. the layout exhibits spatial locality
    /// along `d`.
    pub fn preserves_direction(&self, direction: &IntVec) -> bool {
        match self.coefficients.dot(direction) {
            Ok(v) => v == 0,
            Err(_) => false,
        }
    }
}

impl fmt::Display for Hyperplane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.coefficients)
    }
}

/// A complete memory layout: an ordered set of hyperplane vectors.
///
/// For a `k`-dimensional array, `k - 1` independent hyperplanes fully
/// determine which elements are contiguous; fewer rows describe a partial
/// layout (the paper's Section 2 uses one vector for two-dimensional
/// arrays and an ordered pair for three-dimensional ones).
///
/// The hyperplanes are held in one shared, immutable list: cloning a layout
/// (into candidate domains, network domains, assignments and reports) is a
/// reference-count bump, and every clone's [`Layout::hyperplanes`] is the
/// same slice.  Equality, hashing, ordering and `Debug` output are those of
/// the hyperplane list itself, exactly as if it were a `Vec`.
///
/// # Examples
///
/// ```
/// use mlo_layout::Layout;
/// assert_eq!(Layout::row_major(2).to_string(), "[(1 0)]");
/// assert_eq!(Layout::column_major(3).to_string(), "[(0 0 1), (0 1 0)]");
/// assert_eq!(Layout::diagonal().to_string(), "[(1 -1)]");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Layout {
    hyperplanes: Arc<[Hyperplane]>,
}

impl Layout {
    /// Creates a layout from an ordered list of hyperplanes.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or the hyperplanes have differing
    /// dimensionality.
    pub fn new(hyperplanes: Vec<Hyperplane>) -> Self {
        assert!(
            !hyperplanes.is_empty(),
            "a layout needs at least one hyperplane"
        );
        let dim = hyperplanes[0].dim();
        assert!(
            hyperplanes.iter().all(|h| h.dim() == dim),
            "all hyperplanes of a layout must have the same dimensionality"
        );
        Layout {
            hyperplanes: hyperplanes.into(),
        }
    }

    /// Creates a layout from a single hyperplane vector.
    pub fn from_vector(coefficients: impl Into<IntVec>) -> Self {
        Layout::new(vec![Hyperplane::new(coefficients)])
    }

    /// The canonical row-major layout of a `rank`-dimensional array: the
    /// last index varies fastest, so the hyperplanes fix indices
    /// `0, 1, …, rank-2` in that order.
    ///
    /// # Panics
    ///
    /// Panics for `rank < 1`.
    pub fn row_major(rank: usize) -> Self {
        assert!(rank >= 1, "rank must be at least 1");
        if rank == 1 {
            return Layout::from_vector(vec![1]);
        }
        Layout::new(
            (0..rank - 1)
                .map(|d| Hyperplane::new(IntVec::unit(rank, d)))
                .collect(),
        )
    }

    /// The canonical column-major layout: the first index varies fastest.
    ///
    /// # Panics
    ///
    /// Panics for `rank < 1`.
    pub fn column_major(rank: usize) -> Self {
        assert!(rank >= 1, "rank must be at least 1");
        if rank == 1 {
            return Layout::from_vector(vec![1]);
        }
        Layout::new(
            (1..rank)
                .rev()
                .map(|d| Hyperplane::new(IntVec::unit(rank, d)))
                .collect(),
        )
    }

    /// The diagonal layout `(1 -1)` of a two-dimensional array.
    pub fn diagonal() -> Self {
        Layout::from_vector(vec![1, -1])
    }

    /// The anti-diagonal layout `(1 1)` of a two-dimensional array.
    pub fn anti_diagonal() -> Self {
        Layout::from_vector(vec![1, 1])
    }

    /// The ordered hyperplanes.
    pub fn hyperplanes(&self) -> &[Hyperplane] {
        &self.hyperplanes
    }

    /// The data-space dimensionality.
    pub fn dim(&self) -> usize {
        self.hyperplanes[0].dim()
    }

    /// Number of hyperplane vectors (a complete layout of a rank-`k` array
    /// has `k − 1`, except rank-1 arrays which use a single `(1)` vector).
    pub fn len(&self) -> usize {
        self.hyperplanes.len()
    }

    /// Always false: layouts have at least one hyperplane.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The hyperplane coefficient matrix (one row per hyperplane).
    pub fn matrix(&self) -> IntMat {
        IntMat::from_rows(
            self.hyperplanes
                .iter()
                .map(|h| h.coefficients().clone())
                .collect(),
        )
    }

    /// Whether the hyperplanes are linearly independent.
    pub fn is_independent(&self) -> bool {
        rank(&self.matrix()) == self.hyperplanes.len()
    }

    /// Whether two data points are stored contiguously under this layout,
    /// i.e. they agree on every hyperplane.
    ///
    /// # Panics
    ///
    /// Panics when the points have the wrong dimensionality.
    pub fn same_block(&self, a: &[i64], b: &[i64]) -> bool {
        self.hyperplanes.iter().all(|h| h.same_hyperplane(a, b))
    }

    /// Whether a data-space movement direction stays within one block of
    /// the layout (spatial locality along that direction).
    pub fn preserves_direction(&self, direction: &IntVec) -> bool {
        self.hyperplanes
            .iter()
            .all(|h| h.preserves_direction(direction))
    }

    /// Whether this is the canonical row-major layout for its rank.
    pub fn is_row_major(&self) -> bool {
        *self == Layout::row_major(self.dim())
    }

    /// Whether this is the canonical column-major layout for its rank.
    pub fn is_column_major(&self) -> bool {
        *self == Layout::column_major(self.dim())
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, h) in self.hyperplanes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{h}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hyperplane_canonicalization() {
        assert_eq!(Hyperplane::new(vec![2, -2]), Hyperplane::new(vec![1, -1]));
        assert_eq!(Hyperplane::new(vec![-1, 1]), Hyperplane::new(vec![1, -1]));
        assert_eq!(Hyperplane::new(vec![0, 3]).to_string(), "(0 1)");
        assert!(Hyperplane::try_new(vec![0, 0]).is_none());
        assert!(Hyperplane::try_new(vec![0, 2]).is_some());
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn zero_hyperplane_panics() {
        let _ = Hyperplane::new(vec![0, 0]);
    }

    #[test]
    fn paper_diagonal_example() {
        // Section 2: (5 3) and (7 5) share a diagonal; (5 3) and (5 4) do not.
        let diag = Hyperplane::new(vec![1, -1]);
        assert!(diag.same_hyperplane(&[5, 3], &[7, 5]));
        assert!(!diag.same_hyperplane(&[5, 3], &[5, 4]));
        assert_eq!(diag.constant_of(&[5, 3]), 2);
    }

    #[test]
    fn row_major_groups_rows() {
        // Figure 1(a): row-major = (1 0); elements with equal row index are
        // on the same hyperplane.
        let rm = Layout::row_major(2);
        assert!(rm.same_block(&[3, 0], &[3, 7]));
        assert!(!rm.same_block(&[3, 0], &[4, 0]));
        assert!(rm.is_row_major());
        assert!(!rm.is_column_major());
    }

    #[test]
    fn three_dimensional_column_major() {
        // Section 2: a 3-D column-major layout is the ordered pair
        // (0 0 1), (0 1 0): same column iff indices agree except the first.
        let cm = Layout::column_major(3);
        assert_eq!(cm.len(), 2);
        assert_eq!(cm.hyperplanes()[0], Hyperplane::new(vec![0, 0, 1]));
        assert_eq!(cm.hyperplanes()[1], Hyperplane::new(vec![0, 1, 0]));
        assert!(cm.same_block(&[0, 4, 2], &[9, 4, 2]));
        assert!(!cm.same_block(&[0, 4, 2], &[0, 5, 2]));
        assert!(cm.is_independent());
    }

    #[test]
    fn direction_preservation() {
        // Moving along (1, 1) stays on a (1 -1) diagonal but leaves a row.
        let d = IntVec::from(vec![1, 1]);
        assert!(Layout::diagonal().preserves_direction(&d));
        assert!(!Layout::row_major(2).preserves_direction(&d));
        assert!(Layout::anti_diagonal().preserves_direction(&IntVec::from(vec![1, -1])));
        // Column-major preserves movement along the first index.
        assert!(Layout::column_major(2).preserves_direction(&IntVec::from(vec![1, 0])));
    }

    #[test]
    fn rank_one_layouts() {
        assert_eq!(Layout::row_major(1), Layout::column_major(1));
        assert_eq!(Layout::row_major(1).len(), 1);
    }

    #[test]
    fn layout_matrix_and_independence() {
        let l = Layout::new(vec![
            Hyperplane::new(vec![1, 0, 0]),
            Hyperplane::new(vec![1, 0, 0]),
        ]);
        assert!(!l.is_independent());
        assert_eq!(Layout::row_major(3).matrix().rows(), 2);
        assert!(!Layout::row_major(3).is_empty());
    }

    /// The reference for `Layout`'s derived traits: the same name and
    /// derives over a `Vec` of hyperplanes.
    mod vec_backed {
        use super::Hyperplane;

        #[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct Layout {
            pub hyperplanes: Vec<Hyperplane>,
        }
    }

    fn hash_of(value: &impl std::hash::Hash) -> u64 {
        use std::hash::Hasher;
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn clones_share_the_hyperplane_list() {
        let layout = Layout::column_major(3);
        let clone = layout.clone();
        assert!(std::ptr::eq(layout.hyperplanes(), clone.hyperplanes()));
        // An equal layout built on its own holds its own list.
        let rebuilt = Layout::column_major(3);
        assert_eq!(rebuilt, layout);
        assert!(!std::ptr::eq(layout.hyperplanes(), rebuilt.hyperplanes()));
    }

    #[test]
    #[should_panic(expected = "same dimensionality")]
    fn mixed_dimensionality_rejected() {
        let _ = Layout::new(vec![
            Hyperplane::new(vec![1, 0]),
            Hyperplane::new(vec![1, 0, 0]),
        ]);
    }

    proptest! {
        #[test]
        fn canonical_form_is_scale_invariant(
            a in -5i64..5, b in -5i64..5, k in 1i64..4
        ) {
            prop_assume!(a != 0 || b != 0);
            let h1 = Hyperplane::new(vec![a, b]);
            let h2 = Hyperplane::new(vec![a * k, b * k]);
            prop_assert_eq!(h1, h2);
        }

        #[test]
        fn derives_match_a_vec_backed_layout(
            a in proptest::collection::vec(proptest::collection::vec(-2i64..3, 3), 1..4),
            b in proptest::collection::vec(proptest::collection::vec(-2i64..3, 3), 1..4),
        ) {
            let hyperplanes = |rows: Vec<Vec<i64>>| -> Vec<Hyperplane> {
                rows.into_iter().filter_map(Hyperplane::try_new).collect()
            };
            let (a, b) = (hyperplanes(a), hyperplanes(b));
            prop_assume!(!a.is_empty() && !b.is_empty());
            let (shared_a, shared_b) = (Layout::new(a.clone()), Layout::new(b.clone()));
            let (vec_a, vec_b) = (
                vec_backed::Layout { hyperplanes: a },
                vec_backed::Layout { hyperplanes: b },
            );
            prop_assert_eq!(format!("{shared_a:?}"), format!("{vec_a:?}"));
            prop_assert_eq!(format!("{shared_a:#?}"), format!("{vec_a:#?}"));
            prop_assert_eq!(hash_of(&shared_a), hash_of(&vec_a));
            prop_assert_eq!(shared_a.cmp(&shared_b), vec_a.cmp(&vec_b));
            prop_assert_eq!(shared_a == shared_b, vec_a == vec_b);
        }

        #[test]
        fn same_block_is_an_equivalence_on_samples(
            p in proptest::collection::vec(-8i64..8, 2),
            q in proptest::collection::vec(-8i64..8, 2),
            r in proptest::collection::vec(-8i64..8, 2),
        ) {
            let layout = Layout::diagonal();
            // Reflexive, symmetric, transitive on sampled points.
            prop_assert!(layout.same_block(&p, &p));
            prop_assert_eq!(layout.same_block(&p, &q), layout.same_block(&q, &p));
            if layout.same_block(&p, &q) && layout.same_block(&q, &r) {
                prop_assert!(layout.same_block(&p, &r));
            }
        }
    }
}
