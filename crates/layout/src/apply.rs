//! Applying layouts: assignments and address linearization.
//!
//! Choosing a hyperplane layout only fixes *which* elements are contiguous;
//! to simulate cache behaviour we also need a concrete address for every
//! element.  [`AddressMap`] completes the layout's hyperplane matrix to a
//! full-rank integer map, computes the bounding box of the transformed index
//! space and linearizes it row-major (hyperplane coordinates slowest, the
//! completion coordinate fastest).  Skewed layouts such as the diagonal may
//! leave part of the bounding box unused — exactly the data-space expansion
//! the paper's footnote 2 mentions.

use crate::hyperplane::Layout;
use crate::LayoutError;
use mlo_ir::{ArrayDecl, ArrayId};
use mlo_linalg::{rank, IntMat, IntVec};
use std::collections::HashMap;
use std::fmt;

/// A program-wide layout assignment: one layout per array.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayoutAssignment {
    layouts: HashMap<ArrayId, Layout>,
}

impl LayoutAssignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns a layout to an array (replacing any previous one).
    pub fn set(&mut self, array: ArrayId, layout: Layout) {
        self.layouts.insert(array, layout);
    }

    /// The layout of an array, if assigned.
    pub fn layout_of(&self, array: ArrayId) -> Option<&Layout> {
        self.layouts.get(&array)
    }

    /// Whether the array has an assigned layout.
    pub fn contains(&self, array: ArrayId) -> bool {
        self.layouts.contains_key(&array)
    }

    /// Number of assigned arrays.
    pub fn len(&self) -> usize {
        self.layouts.len()
    }

    /// Whether no array has a layout yet.
    pub fn is_empty(&self) -> bool {
        self.layouts.is_empty()
    }

    /// Iterates over `(array, layout)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&ArrayId, &Layout)> {
        self.layouts.iter()
    }

    /// Builds an assignment that gives every array of a program its
    /// canonical row-major layout (the "original code" baseline).
    pub fn all_row_major(program: &mlo_ir::Program) -> Self {
        let mut asg = Self::new();
        for a in program.arrays() {
            asg.set(a.id(), Layout::row_major(a.rank()));
        }
        asg
    }
}

impl fmt::Display for LayoutAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<(&ArrayId, &Layout)> = self.layouts.iter().collect();
        entries.sort_by_key(|(a, _)| **a);
        for (i, (a, l)) in entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}={l}")?;
        }
        Ok(())
    }
}

/// A concrete index-to-offset mapping for one array under one layout.
#[derive(Debug, Clone)]
pub struct AddressMap {
    /// Full-rank transformation applied to index vectors.
    transform: IntMat,
    /// Minimum value of each transformed coordinate over the index box.
    minimums: Vec<i64>,
    /// Extent of each transformed coordinate over the index box.
    extents: Vec<i64>,
    element_size: u32,
}

impl AddressMap {
    /// Builds the address map of `array` under `layout`.
    ///
    /// # Errors
    ///
    /// * [`LayoutError::RankMismatch`] if the layout's dimensionality does
    ///   not match the array rank.
    /// * [`LayoutError::DegenerateLayout`] if the hyperplanes are linearly
    ///   dependent (they cannot be completed to a bijective map).
    pub fn new(array: &ArrayDecl, layout: &Layout) -> crate::Result<Self> {
        let rank_k = array.rank();
        if layout.dim() != rank_k {
            return Err(LayoutError::RankMismatch {
                array_rank: rank_k,
                layout_rank: layout.dim(),
            });
        }
        let mut rows: Vec<IntVec> = layout
            .hyperplanes()
            .iter()
            .map(|h| h.coefficients().clone())
            .collect();
        // For rank-1 arrays the single hyperplane (1) already is full rank.
        // Otherwise complete with unit vectors until the matrix has full
        // rank; the added unit vectors become the fastest-varying
        // coordinates.
        let mut matrix = IntMat::from_rows(rows.clone());
        if rank(&matrix) != rows.len() {
            return Err(LayoutError::DegenerateLayout(format!(
                "hyperplanes of layout {layout} are linearly dependent"
            )));
        }
        for d in 0..rank_k {
            if rows.len() == rank_k {
                break;
            }
            let candidate = IntVec::unit(rank_k, d);
            let mut extended = rows.clone();
            extended.push(candidate.clone());
            let m = IntMat::from_rows(extended.clone());
            if rank(&m) == extended.len() {
                rows = extended;
                matrix = m;
            }
        }
        if rows.len() != rank_k {
            return Err(LayoutError::DegenerateLayout(format!(
                "could not complete layout {layout} to a full-rank map"
            )));
        }
        // Bounding box of the transformed index space: extremes occur at
        // corners because the map is linear.
        let mut minimums = vec![i64::MAX; rank_k];
        let mut maximums = vec![i64::MIN; rank_k];
        for corner in 0..(1u32 << rank_k) {
            let point: IntVec = (0..rank_k)
                .map(|d| {
                    if corner & (1 << d) != 0 {
                        array.extent(d) - 1
                    } else {
                        0
                    }
                })
                .collect();
            let mapped = matrix.mul_vec(&point).expect("dimensions match");
            for d in 0..rank_k {
                minimums[d] = minimums[d].min(mapped[d]);
                maximums[d] = maximums[d].max(mapped[d]);
            }
        }
        let extents: Vec<i64> = minimums
            .iter()
            .zip(maximums.iter())
            .map(|(lo, hi)| hi - lo + 1)
            .collect();
        Ok(AddressMap {
            transform: matrix,
            minimums,
            extents,
            element_size: array.element_size(),
        })
    }

    /// The element offset (in elements, not bytes) of an index vector.
    ///
    /// # Panics
    ///
    /// Panics when the index has the wrong dimensionality.
    pub fn element_offset(&self, index: &IntVec) -> i64 {
        let mapped = self
            .transform
            .mul_vec(index)
            .expect("index dimensionality must match the array rank");
        let mut offset = 0i64;
        for d in 0..self.extents.len() {
            offset = offset * self.extents[d] + (mapped[d] - self.minimums[d]);
        }
        offset
    }

    /// The byte offset of an index vector.
    ///
    /// # Panics
    ///
    /// Panics when the index has the wrong dimensionality.
    pub fn byte_offset(&self, index: &IntVec) -> i64 {
        self.element_offset(index) * self.element_size as i64
    }

    /// The map as one affine form `(coefficients, constant)` over the index:
    /// `element_offset(index) = constant + Σ coefficients[d] · index[d]`.
    ///
    /// The form is computed in wrapping arithmetic, so it equals
    /// [`element_offset`](Self::element_offset) modulo 2^64 for every index,
    /// and exactly wherever `element_offset` does not overflow.
    pub fn linear_form(&self) -> (Vec<i64>, i64) {
        let rank = self.extents.len();
        let mut coefficients = vec![0i64; rank];
        let mut constant = 0i64;
        // Horner's rule in `element_offset` gives transformed coordinate `e`
        // the weight of the product of all faster-varying extents.
        let mut weight = 1i64;
        for e in (0..rank).rev() {
            for (d, coefficient) in coefficients.iter_mut().enumerate() {
                *coefficient =
                    coefficient.wrapping_add(self.transform.get(e, d).wrapping_mul(weight));
            }
            constant = constant.wrapping_sub(self.minimums[e].wrapping_mul(weight));
            weight = weight.wrapping_mul(self.extents[e]);
        }
        (coefficients, constant)
    }

    /// Total number of element slots spanned by the map, including padding
    /// introduced by skewed layouts (the data-space expansion of the paper's
    /// footnote 2).
    pub fn span_elements(&self) -> i64 {
        self.extents.iter().product()
    }

    /// Total number of bytes spanned by the map.
    pub fn span_bytes(&self) -> i64 {
        self.span_elements() * self.element_size as i64
    }

    /// The element size in bytes.
    pub fn element_size(&self) -> u32 {
        self.element_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlo_ir::ArrayId;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn array_2d(rows: i64, cols: i64) -> ArrayDecl {
        ArrayDecl::new(ArrayId::new(0), "A", vec![rows, cols], 4)
    }

    #[test]
    fn row_major_matches_c_layout() {
        let a = array_2d(4, 6);
        let map = AddressMap::new(&a, &Layout::row_major(2)).unwrap();
        assert_eq!(map.element_offset(&IntVec::from(vec![0, 0])), 0);
        assert_eq!(map.element_offset(&IntVec::from(vec![0, 5])), 5);
        assert_eq!(map.element_offset(&IntVec::from(vec![1, 0])), 6);
        assert_eq!(map.element_offset(&IntVec::from(vec![3, 5])), 23);
        assert_eq!(map.span_elements(), 24);
        assert_eq!(map.byte_offset(&IntVec::from(vec![1, 0])), 24);
        assert_eq!(map.element_size(), 4);
    }

    #[test]
    fn column_major_matches_fortran_layout() {
        let a = array_2d(4, 6);
        let map = AddressMap::new(&a, &Layout::column_major(2)).unwrap();
        assert_eq!(map.element_offset(&IntVec::from(vec![0, 0])), 0);
        assert_eq!(map.element_offset(&IntVec::from(vec![3, 0])), 3);
        assert_eq!(map.element_offset(&IntVec::from(vec![0, 1])), 4);
        assert_eq!(map.span_elements(), 24);
        // Consecutive elements of a column are adjacent.
        let d = map.element_offset(&IntVec::from(vec![2, 3]))
            - map.element_offset(&IntVec::from(vec![1, 3]));
        assert_eq!(d, 1);
    }

    #[test]
    fn diagonal_layout_makes_diagonal_neighbours_adjacent() {
        let a = array_2d(8, 8);
        let map = AddressMap::new(&a, &Layout::diagonal()).unwrap();
        // Moving along (1, 1) stays within a diagonal: offsets differ by 1.
        let step = map.element_offset(&IntVec::from(vec![4, 4]))
            - map.element_offset(&IntVec::from(vec![3, 3]));
        assert_eq!(step.abs(), 1);
        // Moving along a row leaves the diagonal: offsets jump by at least a
        // full diagonal length.
        let jump = map.element_offset(&IntVec::from(vec![3, 4]))
            - map.element_offset(&IntVec::from(vec![3, 3]));
        assert!(jump.abs() >= 8);
        // The skewed bounding box wastes some space (footnote 2).
        assert!(map.span_elements() > 64);
    }

    #[test]
    fn mappings_are_injective() {
        let a = array_2d(5, 7);
        for layout in [
            Layout::row_major(2),
            Layout::column_major(2),
            Layout::diagonal(),
            Layout::anti_diagonal(),
        ] {
            let map = AddressMap::new(&a, &layout).unwrap();
            let mut seen = HashSet::new();
            for i in 0..5 {
                for j in 0..7 {
                    let off = map.element_offset(&IntVec::from(vec![i, j]));
                    assert!(off >= 0, "negative offset under {layout}");
                    assert!(
                        off < map.span_elements(),
                        "offset beyond span under {layout}"
                    );
                    assert!(seen.insert(off), "duplicate offset under {layout}");
                }
            }
        }
    }

    #[test]
    fn three_dimensional_row_major() {
        let a = ArrayDecl::new(ArrayId::new(0), "T", vec![2, 3, 4], 8);
        let map = AddressMap::new(&a, &Layout::row_major(3)).unwrap();
        assert_eq!(map.element_offset(&IntVec::from(vec![0, 0, 1])), 1);
        assert_eq!(map.element_offset(&IntVec::from(vec![0, 1, 0])), 4);
        assert_eq!(map.element_offset(&IntVec::from(vec![1, 0, 0])), 12);
        assert_eq!(map.span_elements(), 24);
    }

    #[test]
    fn rank_and_degeneracy_errors() {
        let a = array_2d(4, 4);
        assert!(matches!(
            AddressMap::new(&a, &Layout::row_major(3)),
            Err(LayoutError::RankMismatch { .. })
        ));
        let degenerate = Layout::new(vec![
            crate::hyperplane::Hyperplane::new(vec![1, 0]),
            crate::hyperplane::Hyperplane::new(vec![2, 0]),
        ]);
        assert!(matches!(
            AddressMap::new(&a, &degenerate),
            Err(LayoutError::DegenerateLayout(_))
        ));
    }

    #[test]
    fn assignment_basics() {
        let mut asg = LayoutAssignment::new();
        assert!(asg.is_empty());
        asg.set(ArrayId::new(1), Layout::diagonal());
        asg.set(ArrayId::new(0), Layout::row_major(2));
        assert_eq!(asg.len(), 2);
        assert!(asg.contains(ArrayId::new(1)));
        assert_eq!(asg.layout_of(ArrayId::new(1)), Some(&Layout::diagonal()));
        assert_eq!(asg.layout_of(ArrayId::new(5)), None);
        assert_eq!(asg.to_string(), "Q0=[(1 0)], Q1=[(1 -1)]");
        assert_eq!(asg.iter().count(), 2);
    }

    #[test]
    fn all_row_major_covers_every_array() {
        let mut b = mlo_ir::ProgramBuilder::new("p");
        b.array("A", vec![4, 4], 4);
        b.array("B", vec![8], 4);
        let p = b.build();
        let asg = LayoutAssignment::all_row_major(&p);
        assert_eq!(asg.len(), 2);
        assert_eq!(asg.layout_of(ArrayId::new(1)), Some(&Layout::row_major(1)));
    }

    proptest! {
        #[test]
        fn linear_form_matches_element_offset(
            rows in 1i64..9, cols in 1i64..9, depth in 1i64..4,
            i in -3i64..12, j in -3i64..12, k in -3i64..6,
            layout_idx in 0usize..7,
        ) {
            let layouts = [
                Layout::row_major(2),
                Layout::column_major(2),
                Layout::diagonal(),
                Layout::anti_diagonal(),
                Layout::from_vector(vec![1, -2]),
                Layout::row_major(3),
                Layout::column_major(3),
            ];
            let layout = &layouts[layout_idx];
            let (array, index) = if layout.dim() == 3 {
                (
                    ArrayDecl::new(ArrayId::new(0), "T", vec![rows, cols, depth], 8),
                    vec![i, j, k],
                )
            } else {
                (array_2d(rows, cols), vec![i, j])
            };
            let map = AddressMap::new(&array, layout).unwrap();
            let (coefficients, constant) = map.linear_form();
            let folded = coefficients
                .iter()
                .zip(&index)
                .fold(constant, |sum, (c, x)| sum + c * x);
            prop_assert_eq!(folded, map.element_offset(&IntVec::from(index)));
        }

        #[test]
        fn offsets_stay_within_span(
            i in 0i64..6, j in 0i64..5,
            layout_idx in 0usize..4,
        ) {
            let a = array_2d(6, 5);
            let layouts = [
                Layout::row_major(2),
                Layout::column_major(2),
                Layout::diagonal(),
                Layout::anti_diagonal(),
            ];
            let map = AddressMap::new(&a, &layouts[layout_idx]).unwrap();
            let off = map.element_offset(&IntVec::from(vec![i, j]));
            prop_assert!(off >= 0);
            prop_assert!(off < map.span_elements());
        }

        #[test]
        fn contiguity_follows_the_hyperplane(
            i in 1i64..7, j in 1i64..7,
        ) {
            // Under the diagonal layout, (i, j) and (i+1, j+1) are on the
            // same hyperplane and must be closer together than (i, j) and
            // (i, j+1), which are on different hyperplanes.
            let a = array_2d(8, 8);
            let map = AddressMap::new(&a, &Layout::diagonal()).unwrap();
            let here = map.element_offset(&IntVec::from(vec![i, j]));
            let along = map.element_offset(&IntVec::from(vec![i - 1, j - 1]));
            let across = map.element_offset(&IntVec::from(vec![i, j - 1]));
            prop_assert!((here - along).abs() < (here - across).abs());
        }
    }
}
