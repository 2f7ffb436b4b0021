//! Building the constraint network of a program (paper, Section 3).
//!
//! Variables are the program's arrays, domains are their candidate layouts
//! and every constraint pair records the preferred layouts of two arrays
//! under one legal restructuring of one nest that references both.

use crate::candidates::{CandidateOptions, CandidateSet};
use crate::hyperplane::Layout;
use mlo_csp::{ConstraintNetwork, VarId};
use mlo_ir::{ArrayId, NestId, Program};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The constraint network derived from a program plus the bookkeeping to map
/// network variables back to arrays.
///
/// Every table — the `Arc`-backed [`ConstraintNetwork`] and the
/// array/variable/contribution bookkeeping — lives behind shared storage, so
/// cloning a `LayoutNetwork` is a handful of reference-count bumps.
/// Sessions (`mlo-core`) cache one per program and hand out clones without
/// re-copying anything.
#[derive(Debug, Clone)]
pub struct LayoutNetwork {
    network: ConstraintNetwork<Layout>,
    variable_of_array: Arc<Vec<Option<VarId>>>,
    array_of_variable: Arc<Vec<ArrayId>>,
    /// For every (nest, transform) considered, the preferred layout pairs it
    /// contributed; useful for weighting constraints (future-work extension).
    contributions: Arc<Vec<Contribution>>,
}

/// One (nest, restructuring) contribution to the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contribution {
    /// The nest that generated the pairs.
    pub nest: NestId,
    /// The loop order: an index into the nest's `legal_permutations`,
    /// where 0 is the original order.
    pub order: usize,
    /// The arrays and layouts preferred under this restructuring.
    pub preferences: Vec<(ArrayId, Layout)>,
}

impl Contribution {
    /// Every unordered pair of this contribution's preferences, in the
    /// canonical `(i, j)` with `i < j` order — the pairs that become allowed
    /// constraint pairs, and that weight derivation accumulates over.
    pub fn preference_pairs(
        &self,
    ) -> impl Iterator<Item = (&(ArrayId, Layout), &(ArrayId, Layout))> {
        self.preferences
            .iter()
            .enumerate()
            .flat_map(|(i, a)| self.preferences[i + 1..].iter().map(move |b| (a, b)))
    }
}

impl LayoutNetwork {
    /// The underlying constraint network.
    pub fn network(&self) -> &ConstraintNetwork<Layout> {
        &self.network
    }

    /// The network's compiled execution kernel (see `mlo_csp::bitset`),
    /// built on first use and cached in the shared storage: every clone of
    /// this layout network — and every weighted network derived from it —
    /// reuses the identical kernel (`Arc::ptr_eq`-verifiable).
    pub fn kernel(&self) -> &std::sync::Arc<mlo_csp::BitKernel> {
        self.network.kernel()
    }

    /// The network variable of an array, when the array appears in the
    /// network (arrays that no nest references with a layout preference may
    /// still get a variable with default candidates).
    pub fn variable_of(&self, array: ArrayId) -> Option<VarId> {
        self.variable_of_array.get(array.index()).copied().flatten()
    }

    /// The array behind a network variable.
    ///
    /// # Panics
    ///
    /// Panics when the variable is out of range.
    pub fn array_of(&self, var: VarId) -> ArrayId {
        self.array_of_variable[var.index()]
    }

    /// All per-nest, per-restructuring contributions.
    pub fn contributions(&self) -> &[Contribution] {
        &self.contributions
    }

    /// The paper's Table 1 "Domain Size": total number of candidate layouts.
    pub fn total_domain_size(&self) -> usize {
        self.network.total_domain_size()
    }

    /// Whether `self` and `other` are clones sharing all storage — the
    /// constraint-network tables and every bookkeeping table (a
    /// structural-sharing assertion for session-cache tests).
    pub fn shares_storage(&self, other: &Self) -> bool {
        self.network.shares_storage(&other.network)
            && Arc::ptr_eq(&self.variable_of_array, &other.variable_of_array)
            && Arc::ptr_eq(&self.array_of_variable, &other.array_of_variable)
            && Arc::ptr_eq(&self.contributions, &other.contributions)
    }
}

/// Builds the constraint network of a program.
///
/// Candidate layouts are enumerated on the spot; callers that build several
/// networks for one program (sessions, weighting experiments) should
/// enumerate a [`CandidateSet`] once and use [`build_network_from`].
pub fn build_network(program: &Program, options: &CandidateOptions) -> LayoutNetwork {
    build_network_from(program, &CandidateSet::enumerate(program, options))
}

/// Builds the constraint network of a program from a borrowed, pre-computed
/// candidate set.
///
/// Every array becomes a variable whose domain is its candidate layouts.
/// Each pair of preferences in one of the set's (nest, legal loop order)
/// contributions is one allowed pair of the constraint between the two
/// arrays (accumulated across nests and restructurings).
pub fn build_network_from(program: &Program, candidates: &CandidateSet) -> LayoutNetwork {
    let mut network: ConstraintNetwork<Layout> = ConstraintNetwork::new();
    let mut variable_of_array: Vec<Option<VarId>> = vec![None; program.arrays().len()];
    let mut array_of_variable: Vec<ArrayId> = Vec::new();

    // Variables and domains.
    for array in program.arrays() {
        let domain = candidates.of(array.id());
        if domain.is_empty() {
            continue;
        }
        let var = network.add_variable(array.name(), domain.to_vec());
        variable_of_array[array.id().index()] = Some(var);
        array_of_variable.push(array.id());
    }

    // Constraints: the allowed value-index pairs of every array pair, in
    // the orientation and order in which the pair first appears.
    let mut scopes: Vec<(VarId, VarId)> = Vec::new();
    let mut allowed: Vec<HashSet<(usize, usize)>> = Vec::new();
    let mut scope_of: HashMap<(VarId, VarId), usize> = HashMap::new();
    let contributions = &candidates.contributions;
    let mut value_indices = candidates.value_indices.iter();
    for contribution in contributions.iter() {
        // Each preference's variable and value index.
        let values: Vec<(Option<VarId>, usize)> = contribution
            .preferences
            .iter()
            .zip(value_indices.by_ref())
            .map(|((array, _), &index)| (variable_of_array[array.index()], index))
            .collect();
        for (i, &(a, index_a)) in values.iter().enumerate() {
            for &(b, index_b) in &values[i + 1..] {
                let (Some(a), Some(b)) = (a, b) else {
                    continue;
                };
                let scope = *scope_of.entry((a.min(b), a.max(b))).or_insert_with(|| {
                    scopes.push((a, b));
                    allowed.push(HashSet::new());
                    scopes.len() - 1
                });
                allowed[scope].insert(if scopes[scope].0 == a {
                    (index_a, index_b)
                } else {
                    (index_b, index_a)
                });
            }
        }
    }
    for ((a, b), pairs) in scopes.into_iter().zip(allowed) {
        network
            .add_constraint_by_index(a, b, pairs)
            .expect("candidate value indices lie inside their domains");
    }

    LayoutNetwork {
        network,
        variable_of_array: Arc::new(variable_of_array),
        array_of_variable: Arc::new(array_of_variable),
        contributions: Arc::clone(contributions),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlo_csp::{Scheme, SearchEngine};
    use mlo_ir::{AccessBuilder, ProgramBuilder};

    /// Two nests that want conflicting layouts for a shared array: the
    /// classic situation the constraint network resolves globally.
    fn two_nest_program() -> Program {
        let n = 16;
        let mut b = ProgramBuilder::new("conflict");
        let a = b.array("A", vec![n, n], 4);
        let c = b.array("C", vec![n, n], 4);
        // Nest 0: A[i][j], C[i][j] with j innermost: both want row-major.
        b.nest("n0", vec![("i", 0, n), ("j", 0, n)], |nest| {
            nest.read(
                a,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
            nest.write(
                c,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
        });
        // Nest 1: A[j][i]: wants column-major for A under the original order.
        b.nest("n1", vec![("i", 0, n), ("j", 0, n)], |nest| {
            nest.read(
                a,
                AccessBuilder::new(2, 2)
                    .row(0, [0, 1])
                    .row(1, [1, 0])
                    .build(),
            );
            nest.write(
                c,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 0])
                    .row(1, [0, 1])
                    .build(),
            );
        });
        b.build()
    }

    #[test]
    fn figure2_network_matches_paper_derivation() {
        let n = 16;
        let mut b = ProgramBuilder::new("figure2");
        let q1 = b.array("Q1", vec![2 * n, n], 4);
        let q2 = b.array("Q2", vec![2 * n, n], 4);
        b.nest("main", vec![("i1", 0, n), ("i2", 0, n)], |nest| {
            nest.read(
                q1,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 1])
                    .row(1, [0, 1])
                    .build(),
            );
            nest.read(
                q2,
                AccessBuilder::new(2, 2)
                    .row(0, [1, 1])
                    .row(1, [1, 0])
                    .build(),
            );
        });
        let p = b.build();
        let ln = build_network(&p, &CandidateOptions::default());
        let net = ln.network();
        assert_eq!(net.variable_count(), 2);
        let va = ln.variable_of(q1).unwrap();
        let vb = ln.variable_of(q2).unwrap();
        assert_eq!(ln.array_of(va), q1);
        let c = net.constraint_between(va, vb).expect("constraint exists");
        // Two legal restructurings (identity + interchange) -> two pairs:
        // [(1 -1), (0 1)] and [(0 1), (1 -1)].
        assert_eq!(c.pair_count(), 2);
        // Solving gives each array one of its preferred layouts.
        let result = SearchEngine::with_scheme(Scheme::Enhanced).solve(net);
        let solution = result.solution.unwrap();
        let la = solution.value(va);
        let lb = solution.value(vb);
        assert!(
            (la == &Layout::diagonal() && lb == &Layout::column_major(2))
                || (la == &Layout::column_major(2) && lb == &Layout::diagonal())
        );
        assert_eq!(ln.contributions().len(), 2);
        assert!(ln.total_domain_size() >= 4);
    }

    #[test]
    fn conflicting_nests_still_have_a_solution() {
        let p = two_nest_program();
        let ln = build_network(&p, &CandidateOptions::default());
        let result = SearchEngine::with_scheme(Scheme::Enhanced).solve(ln.network());
        // Interchanging nest 1 lets A stay row-major program-wide, so the
        // network must be satisfiable.
        assert!(result.is_satisfiable());
        let solution = result.solution.unwrap();
        let a_var = ln.variable_of(mlo_ir::ArrayId::new(0)).unwrap();
        let c_var = ln.variable_of(mlo_ir::ArrayId::new(1)).unwrap();
        assert_eq!(solution.value(c_var), &Layout::row_major(2));
        assert_eq!(solution.value(a_var), &Layout::row_major(2));
    }

    #[test]
    fn unreferenced_arrays_still_become_variables() {
        let mut b = ProgramBuilder::new("p");
        let _u = b.array("Unused", vec![8, 8], 4);
        let p = b.build();
        let ln = build_network(&p, &CandidateOptions::default());
        assert_eq!(ln.network().variable_count(), 1);
        assert_eq!(ln.network().constraint_count(), 0);
        assert!(ln.variable_of(mlo_ir::ArrayId::new(0)).is_some());
    }

    #[test]
    fn contributions_record_their_loop_order() {
        let p = two_nest_program();
        let ln = build_network(&p, &CandidateOptions::default());
        assert!(ln.contributions().iter().any(|c| c.order == 0));
        assert!(ln.contributions().iter().any(|c| c.order > 0));
        // Every contribution references a nest of the program.
        for c in ln.contributions() {
            assert!(c.nest.index() < p.nests().len());
            assert!(!c.preferences.is_empty());
        }
    }
}
