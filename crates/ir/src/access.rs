//! Affine array accesses: `index = A · iteration + offset`.

use mlo_linalg::{IntMat, IntVec};
use std::fmt;

/// An affine array access.
///
/// The access maps an iteration vector `I` (one component per loop of the
/// enclosing nest, outermost first) to an array index vector
/// `A · I + offset` (one component per array dimension).
///
/// # Examples
///
/// The reference `Q1[i1+i2][i2]` of the paper's Figure 2:
///
/// ```
/// use mlo_ir::AffineAccess;
/// use mlo_linalg::{IntMat, IntVec};
///
/// let access = AffineAccess::new(
///     IntMat::from_array([[1, 1], [0, 1]]),
///     IntVec::from(vec![0, 0]),
/// );
/// assert_eq!(access.index_for(&IntVec::from(vec![2, 3])).as_slice(), &[5, 3]);
/// // Moving one step in the innermost loop moves by (1, 1) in the data space.
/// assert_eq!(access.innermost_direction().as_slice(), &[1, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AffineAccess {
    matrix: IntMat,
    offset: IntVec,
}

impl AffineAccess {
    /// Creates an access from its matrix and offset.
    ///
    /// # Panics
    ///
    /// Panics if the offset dimension does not match the matrix row count.
    pub fn new(matrix: IntMat, offset: IntVec) -> Self {
        assert_eq!(
            matrix.rows(),
            offset.dim(),
            "offset dimension must equal the number of array dimensions"
        );
        AffineAccess { matrix, offset }
    }

    /// Creates an identity access `X[i1]...[ik]` for a `depth`-deep nest.
    pub fn identity(depth: usize) -> Self {
        AffineAccess::new(IntMat::identity(depth), IntVec::zeros(depth))
    }

    /// The access matrix (rows = array dimensions, columns = loop depth).
    pub fn matrix(&self) -> &IntMat {
        &self.matrix
    }

    /// The constant offset vector.
    pub fn offset(&self) -> &IntVec {
        &self.offset
    }

    /// Number of array dimensions this access produces.
    pub fn array_rank(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of loop-index columns this access consumes.
    pub fn nest_depth(&self) -> usize {
        self.matrix.cols()
    }

    /// Evaluates the access for a concrete iteration vector.
    ///
    /// # Panics
    ///
    /// Panics when the iteration vector's dimension differs from the nest
    /// depth.
    pub fn index_for(&self, iteration: &IntVec) -> IntVec {
        self.matrix
            .mul_vec(iteration)
            .expect("iteration vector dimension mismatch")
            .checked_add(&self.offset)
            .expect("offset dimension mismatch")
    }

    /// The direction the accessed element moves in the data space when the
    /// loop at `level` advances by one iteration: column `level` of the
    /// access matrix.
    ///
    /// # Panics
    ///
    /// Panics when `level >= nest_depth()`.
    pub fn direction_for_level(&self, level: usize) -> IntVec {
        self.matrix.col(level)
    }

    /// The data-space movement per step of the innermost loop — the
    /// direction whose spatial locality the layout must capture (paper,
    /// Section 2).
    ///
    /// # Panics
    ///
    /// Panics for a zero-depth access.
    pub fn innermost_direction(&self) -> IntVec {
        assert!(self.nest_depth() > 0, "access has no loop dimensions");
        self.direction_for_level(self.nest_depth() - 1)
    }

    /// Returns the access obtained after transforming the iteration space
    /// with the unimodular matrix `t_inverse` (the *inverse* of the
    /// transformation `T` that maps old iterations to new ones):
    /// if `I' = T · I` then the new access matrix is `A · T⁻¹`.
    pub fn transformed(&self, t_inverse: &IntMat) -> crate::Result<AffineAccess> {
        let m = self.matrix.mul_mat(t_inverse).map_err(|_| {
            crate::IrError::InvalidTransform(format!(
                "access with {} columns cannot be composed with a {}x{} inverse transform",
                self.matrix.cols(),
                t_inverse.rows(),
                t_inverse.cols()
            ))
        })?;
        Ok(AffineAccess::new(m, self.offset.clone()))
    }

    /// The data-space movement per step of the innermost loop of the nest
    /// restructured by `T`, where `t_inverse` is `T⁻¹`: the innermost
    /// direction of [`transformed`](Self::transformed)`(t_inverse)`,
    /// computed as `A` times the last column of `T⁻¹` without forming the
    /// whole product.  Zero in a zero-depth nest (the access never moves).
    ///
    /// # Panics
    ///
    /// Panics when `t_inverse` does not have `nest_depth()` rows.
    pub fn innermost_direction_under(&self, t_inverse: &IntMat) -> IntVec {
        let step = match t_inverse.cols().checked_sub(1) {
            Some(last) => t_inverse.col(last),
            None => IntVec::zeros(t_inverse.rows()),
        };
        self.matrix
            .mul_vec(&step)
            .expect("inverse transform depth matches access depth")
    }

    /// Whether two accesses differ only in their constant offset (a
    /// *uniformly generated* pair, which is the case the dependence tester
    /// resolves exactly).
    pub fn is_uniform_with(&self, other: &AffineAccess) -> bool {
        self.matrix == other.matrix
    }
}

impl fmt::Display for AffineAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A=")?;
        for r in 0..self.matrix.rows() {
            write!(f, "{}", self.matrix.row(r))?;
        }
        write!(f, " + {}", self.offset)
    }
}

/// A small builder for access matrices, readable at call sites.
///
/// # Examples
///
/// ```
/// use mlo_ir::AccessBuilder;
/// // Q2[i1+i2][i1] in a 2-deep nest.
/// let access = AccessBuilder::new(2, 2)
///     .row(0, [1, 1])
///     .row(1, [1, 0])
///     .build();
/// assert_eq!(access.array_rank(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct AccessBuilder {
    matrix: IntMat,
    offset: IntVec,
}

impl AccessBuilder {
    /// Starts building an access for an `array_rank`-dimensional array in a
    /// `nest_depth`-deep nest; all coefficients start at zero.
    pub fn new(array_rank: usize, nest_depth: usize) -> Self {
        AccessBuilder {
            matrix: IntMat::zeros(array_rank, nest_depth),
            offset: IntVec::zeros(array_rank),
        }
    }

    /// Sets an entire row of the access matrix (the subscript expression of
    /// one array dimension).
    ///
    /// # Panics
    ///
    /// Panics if the row index or coefficient count is out of range.
    pub fn row<const N: usize>(mut self, dim: usize, coefficients: [i64; N]) -> Self {
        assert_eq!(
            N,
            self.matrix.cols(),
            "coefficient count must equal nest depth"
        );
        for (c, &v) in coefficients.iter().enumerate() {
            self.matrix.set(dim, c, v);
        }
        self
    }

    /// Sets a single coefficient: array dimension `dim` gains `coefficient ×`
    /// loop index `level`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn coeff(mut self, dim: usize, level: usize, coefficient: i64) -> Self {
        self.matrix.set(dim, level, coefficient);
        self
    }

    /// Sets the constant offset of array dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn offset(mut self, dim: usize, value: i64) -> Self {
        self.offset[dim] = value;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> AffineAccess {
        AffineAccess::new(self.matrix, self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_access() {
        let a = AffineAccess::identity(3);
        assert_eq!(a.array_rank(), 3);
        assert_eq!(a.nest_depth(), 3);
        let i = IntVec::from(vec![4, 5, 6]);
        assert_eq!(a.index_for(&i), i);
        assert_eq!(a.innermost_direction(), IntVec::unit(3, 2));
    }

    #[test]
    fn figure2_accesses() {
        // Q1[i1+i2][i2]
        let q1 = AccessBuilder::new(2, 2)
            .row(0, [1, 1])
            .row(1, [0, 1])
            .build();
        assert_eq!(q1.innermost_direction().as_slice(), &[1, 1]);
        // Q2[i1+i2][i1]
        let q2 = AccessBuilder::new(2, 2)
            .row(0, [1, 1])
            .row(1, [1, 0])
            .build();
        assert_eq!(q2.innermost_direction().as_slice(), &[1, 0]);
        // Outer-loop directions (used when considering loop interchange).
        assert_eq!(q1.direction_for_level(0).as_slice(), &[1, 0]);
        assert_eq!(q2.direction_for_level(0).as_slice(), &[1, 1]);
    }

    #[test]
    fn offsets_and_uniformity() {
        let a = AccessBuilder::new(2, 2)
            .row(0, [1, 0])
            .row(1, [0, 1])
            .offset(0, 1)
            .build();
        let b = AccessBuilder::new(2, 2)
            .row(0, [1, 0])
            .row(1, [0, 1])
            .build();
        assert!(a.is_uniform_with(&b));
        assert_eq!(a.index_for(&IntVec::from(vec![2, 3])).as_slice(), &[3, 3]);
        let c = AccessBuilder::new(2, 2)
            .row(0, [0, 1])
            .row(1, [1, 0])
            .build();
        assert!(!a.is_uniform_with(&c));
    }

    #[test]
    fn transformation_by_interchange() {
        // Interchanging the two loops of Figure 2: T = [[0,1],[1,0]],
        // T^{-1} = T.  Q1's new innermost direction becomes its old outer
        // direction.
        let q1 = AccessBuilder::new(2, 2)
            .row(0, [1, 1])
            .row(1, [0, 1])
            .build();
        let t_inv = IntMat::from_array([[0, 1], [1, 0]]);
        let q1t = q1.transformed(&t_inv).unwrap();
        assert_eq!(q1t.innermost_direction().as_slice(), &[1, 0]);
        // The innermost direction alone agrees with the transformed access,
        // under a skew too.
        let skew_inv = IntMat::from_array([[1, 0], [-1, 1]]);
        for t_inv in [&t_inv, &skew_inv] {
            assert_eq!(
                q1.innermost_direction_under(t_inv),
                q1.transformed(t_inv).unwrap().innermost_direction()
            );
        }
        // A zero-depth access never moves.
        let scalar = AccessBuilder::new(2, 0).offset(0, 3).build();
        let still = scalar.innermost_direction_under(&IntMat::identity(0));
        assert_eq!(still, IntVec::zeros(2));
        // A mismatched transform is rejected.
        assert!(q1.transformed(&IntMat::identity(3)).is_err());
    }

    #[test]
    #[should_panic(expected = "inverse transform depth")]
    fn mismatched_inverse_transform_panics() {
        let _ = AffineAccess::identity(2).innermost_direction_under(&IntMat::identity(3));
    }

    #[test]
    fn display_contains_matrix_and_offset() {
        let a = AccessBuilder::new(1, 2)
            .row(0, [1, -1])
            .offset(0, 3)
            .build();
        let s = a.to_string();
        assert!(s.contains("(1 -1)"));
        assert!(s.contains("(3)"));
    }

    #[test]
    #[should_panic(expected = "offset dimension")]
    fn mismatched_offset_rejected() {
        let _ = AffineAccess::new(IntMat::identity(2), IntVec::zeros(3));
    }
}
