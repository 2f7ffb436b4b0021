//! Candidate loop transformations (unimodular iteration-space remappings).
//!
//! The constraint network offers, for every nest, one preferred layout
//! combination per *candidate restructuring* of that nest.  The candidate
//! set used here is the set of legal loop permutations (the transformations
//! the paper's example — interchange in Figure 2 — uses), optionally
//! extended with the identity only.

use crate::dependence::DependenceAnalysis;
use crate::nest::LoopNest;
use mlo_linalg::{unimodular_inverse, IntMat};
use std::fmt;

/// What kind of restructuring a transform represents (for reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformKind {
    /// The identity (original loop order).
    Identity,
    /// A permutation of the loops.
    Permutation,
    /// Any other unimodular transformation (skewing, reversal, ...).
    General,
}

impl fmt::Display for TransformKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformKind::Identity => write!(f, "identity"),
            TransformKind::Permutation => write!(f, "permutation"),
            TransformKind::General => write!(f, "general"),
        }
    }
}

/// A unimodular loop transformation `I' = T · I` together with its inverse.
///
/// # Examples
///
/// ```
/// use mlo_ir::LoopTransform;
/// let interchange = LoopTransform::permutation(&[1, 0]);
/// assert_eq!(interchange.kind(), mlo_ir::TransformKind::Permutation);
/// assert!(interchange.describe().contains("j, i") || !interchange.describe().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopTransform {
    matrix: IntMat,
    inverse: IntMat,
    kind: TransformKind,
    /// The permutation realized, when this is a permutation (new position ->
    /// original loop index).
    permutation: Option<Vec<usize>>,
}

impl LoopTransform {
    /// The identity transformation for a nest of the given depth.
    pub fn identity(depth: usize) -> Self {
        LoopTransform {
            matrix: IntMat::identity(depth),
            inverse: IntMat::identity(depth),
            kind: TransformKind::Identity,
            permutation: Some((0..depth).collect()),
        }
    }

    /// A loop permutation: `order[k]` is the original loop that ends up at
    /// position `k` (outermost first).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn permutation(order: &[usize]) -> Self {
        let depth = order.len();
        let mut seen = vec![false; depth];
        for &o in order {
            assert!(o < depth && !seen[o], "order must be a permutation");
            seen[o] = true;
        }
        let mut m = IntMat::zeros(depth, depth);
        for (new_pos, &old_pos) in order.iter().enumerate() {
            m.set(new_pos, old_pos, 1);
        }
        let inverse = m.transpose();
        let kind = if order.iter().enumerate().all(|(i, &o)| i == o) {
            TransformKind::Identity
        } else {
            TransformKind::Permutation
        };
        LoopTransform {
            matrix: m,
            inverse,
            kind,
            permutation: Some(order.to_vec()),
        }
    }

    /// A general unimodular transformation from an explicit matrix.
    ///
    /// # Errors
    ///
    /// Returns [`crate::IrError::InvalidTransform`] if the matrix is not
    /// square unimodular.
    pub fn general(matrix: IntMat) -> crate::Result<Self> {
        let inverse = unimodular_inverse(&matrix)
            .map_err(|e| crate::IrError::InvalidTransform(e.to_string()))?;
        let kind = if matrix.is_identity() {
            TransformKind::Identity
        } else {
            TransformKind::General
        };
        Ok(LoopTransform {
            matrix,
            inverse,
            kind,
            permutation: None,
        })
    }

    /// The transformation matrix `T`.
    pub fn matrix(&self) -> &IntMat {
        &self.matrix
    }

    /// The inverse matrix `T⁻¹` (used to rewrite access functions).
    pub fn inverse(&self) -> &IntMat {
        &self.inverse
    }

    /// The transformation's kind.
    pub fn kind(&self) -> TransformKind {
        self.kind
    }

    /// The permutation order when this transform is a permutation.
    pub fn permutation_order(&self) -> Option<&[usize]> {
        self.permutation.as_deref()
    }

    /// Nest depth this transform applies to.
    pub fn depth(&self) -> usize {
        self.matrix.rows()
    }

    /// Whether this is the identity transformation.
    pub fn is_identity(&self) -> bool {
        self.kind == TransformKind::Identity
    }

    /// A short human-readable description, e.g. `"permute(j, i)"`.
    pub fn describe(&self) -> String {
        match (&self.kind, &self.permutation) {
            (TransformKind::Identity, _) => "identity".to_string(),
            (TransformKind::Permutation, Some(p)) => {
                let names: Vec<String> = p.iter().map(|i| format!("L{i}")).collect();
                format!("permute({})", names.join(", "))
            }
            _ => "unimodular".to_string(),
        }
    }
}

impl fmt::Display for LoopTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

/// Enumerates all loop permutations of `depth` loops.
///
/// The count is `depth!`; benchmark nests are at most 3–4 deep so this stays
/// tiny.
pub fn all_permutations(depth: usize) -> Vec<Vec<usize>> {
    let mut result = Vec::new();
    let mut current: Vec<usize> = Vec::with_capacity(depth);
    let mut used = vec![false; depth];
    fn recurse(
        depth: usize,
        current: &mut Vec<usize>,
        used: &mut Vec<bool>,
        result: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == depth {
            result.push(current.clone());
            return;
        }
        for i in 0..depth {
            if !used[i] {
                used[i] = true;
                current.push(i);
                recurse(depth, current, used, result);
                current.pop();
                used[i] = false;
            }
        }
    }
    recurse(depth, &mut current, &mut used, &mut result);
    result
}

/// Enumerates the *legal* candidate transformations of a nest: every loop
/// permutation that preserves all data dependences (the identity is always
/// included and always first).
pub fn legal_permutations(nest: &LoopNest) -> Vec<LoopTransform> {
    let deps = DependenceAnalysis::of_nest(nest);
    all_permutations(nest.depth())
        .iter()
        .map(|order| LoopTransform::permutation(order))
        .filter(|t| t.is_identity() || deps.is_legal(t.matrix()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessBuilder;
    use crate::ids::{ArrayId, NestId};
    use crate::nest::Loop;
    use crate::reference::AccessKind;

    #[test]
    fn permutation_matrices() {
        let t = LoopTransform::permutation(&[1, 0]);
        assert_eq!(t.matrix(), &IntMat::from_array([[0, 1], [1, 0]]));
        assert_eq!(t.inverse(), &IntMat::from_array([[0, 1], [1, 0]]));
        assert_eq!(t.kind(), TransformKind::Permutation);
        assert_eq!(t.permutation_order(), Some(&[1usize, 0][..]));
        assert_eq!(t.depth(), 2);
        assert!(!t.is_identity());
        assert!(t.describe().starts_with("permute"));

        let id = LoopTransform::permutation(&[0, 1, 2]);
        assert!(id.is_identity());
        assert_eq!(id.describe(), "identity");
        assert_eq!(LoopTransform::identity(3), id);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn invalid_permutation_rejected() {
        let _ = LoopTransform::permutation(&[0, 0]);
    }

    #[test]
    fn general_transform_requires_unimodularity() {
        assert!(LoopTransform::general(IntMat::from_array([[1, 1], [0, 1]])).is_ok());
        assert!(LoopTransform::general(IntMat::from_array([[2, 0], [0, 1]])).is_err());
        let skew = LoopTransform::general(IntMat::from_array([[1, 1], [0, 1]])).unwrap();
        assert_eq!(skew.kind(), TransformKind::General);
        assert_eq!(skew.describe(), "unimodular");
        assert_eq!(
            LoopTransform::general(IntMat::identity(2)).unwrap().kind(),
            TransformKind::Identity
        );
    }

    #[test]
    fn all_permutations_counts() {
        assert_eq!(all_permutations(1).len(), 1);
        assert_eq!(all_permutations(2).len(), 2);
        assert_eq!(all_permutations(3).len(), 6);
        assert_eq!(all_permutations(4).len(), 24);
        assert!(all_permutations(3).contains(&vec![2, 0, 1]));
    }

    #[test]
    fn legal_permutations_respect_dependences() {
        // Dependence-free nest: both orders of a 2-deep nest are legal.
        let mut free = LoopNest::new(
            NestId::new(0),
            "free",
            vec![Loop::new("i", 0, 8), Loop::new("j", 0, 8)],
        );
        free.add_reference(
            ArrayId::new(0),
            AccessBuilder::new(2, 2)
                .row(0, [1, 0])
                .row(1, [0, 1])
                .build(),
            AccessKind::Read,
        );
        let legal = legal_permutations(&free);
        assert_eq!(legal.len(), 2);
        assert!(legal[0].is_identity());

        // Anti-diagonal dependence: interchange becomes illegal.
        let mut constrained = LoopNest::new(
            NestId::new(1),
            "constrained",
            vec![Loop::new("i", 0, 8), Loop::new("j", 0, 8)],
        );
        constrained.add_reference(
            ArrayId::new(0),
            AccessBuilder::new(2, 2)
                .row(0, [1, 0])
                .row(1, [0, 1])
                .build(),
            AccessKind::Write,
        );
        constrained.add_reference(
            ArrayId::new(0),
            AccessBuilder::new(2, 2)
                .row(0, [1, 0])
                .row(1, [0, 1])
                .offset(0, -1)
                .offset(1, 1)
                .build(),
            AccessKind::Read,
        );
        let legal = legal_permutations(&constrained);
        assert_eq!(legal.len(), 1);
        assert!(legal[0].is_identity());
    }

    #[test]
    fn transform_kind_display() {
        assert_eq!(TransformKind::Identity.to_string(), "identity");
        assert_eq!(TransformKind::Permutation.to_string(), "permutation");
        assert_eq!(TransformKind::General.to_string(), "general");
        let t = LoopTransform::permutation(&[1, 0]);
        assert_eq!(t.to_string(), t.describe());
    }
}
