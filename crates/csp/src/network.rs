//! The constraint network itself: variables, domains and constraints.
//!
//! # Shared storage
//!
//! A [`ConstraintNetwork`] is a thin handle over one `Arc`'d storage (names,
//! domains, constraints and adjacency lists): cloning a network is a single
//! reference-count bump, never a deep copy of the tables.  Mutators
//! (`add_variable`, `add_constraint`, ...) mutate in place while the handle
//! is unique (the normal building phase) and copy the storage once when it
//! is shared.  This is what lets the work-stealing scheduler hand the same
//! network to every worker, and batch sessions cache one network per
//! program, without any per-solve cloning.
//!
//! # The execution kernel
//!
//! Solvers do not probe the `HashSet` pair tables: the network lazily
//! compiles itself into a [`BitKernel`] (word-packed bit-matrices plus
//! per-value support counts, see [`crate::bitset`]) cached inside the
//! shared storage.  Clones and session-cached networks all reuse the
//! identical kernel (`Arc::ptr_eq`-verifiable through
//! [`ConstraintNetwork::kernel`]).  A kernel is never patched: every
//! mutation drops the mutated handle's cached kernel, and the next solver
//! run compiles it again.

use crate::assignment::Assignment;
use crate::bitset::BitKernel;
use crate::constraint::BinaryConstraint;
use crate::domain::Domain;
use crate::{CspError, Value};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifies a variable of a [`ConstraintNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VarId(usize);

impl VarId {
    /// Creates an id from a raw index.
    pub const fn new(index: usize) -> Self {
        VarId(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl From<usize> for VarId {
    fn from(index: usize) -> Self {
        VarId(index)
    }
}

/// The shared tables behind a [`ConstraintNetwork`]: names, domains,
/// constraints and the per-variable adjacency lists.
#[derive(Debug, Clone)]
struct NetworkStorage<V> {
    names: Vec<String>,
    domains: Vec<Domain<V>>,
    constraints: Vec<BinaryConstraint>,
    /// For each variable, the indices of the constraints that involve it.
    adjacency: Vec<Vec<usize>>,
    /// The compiled execution form (see [`crate::bitset`]), built lazily at
    /// most once per storage and shared by every handle over it.
    kernel: OnceLock<Arc<BitKernel>>,
}

/// A binary constraint network `<P, M, S>`.
///
/// See the [crate-level documentation](crate) for the correspondence with
/// the paper and a complete example, and the [module docs](self) for the
/// shared-storage representation.
#[derive(Debug, Clone)]
pub struct ConstraintNetwork<V> {
    storage: Arc<NetworkStorage<V>>,
}

impl<V: Value> Default for ConstraintNetwork<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Value> ConstraintNetwork<V> {
    /// Creates an empty network.
    pub fn new() -> Self {
        ConstraintNetwork {
            storage: Arc::new(NetworkStorage {
                names: Vec::new(),
                domains: Vec::new(),
                constraints: Vec::new(),
                adjacency: Vec::new(),
                kernel: OnceLock::new(),
            }),
        }
    }

    /// Whether `self` and `other` share their entire storage (the
    /// post-clone state — no table was copied).
    pub fn shares_storage(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.storage, &other.storage)
    }

    /// Mutable access to the storage, copying it first when it is shared.
    /// Drops the cached kernel: the next solver run compiles the mutated
    /// tables from scratch.
    fn storage_mut(&mut self) -> &mut NetworkStorage<V> {
        let storage = Arc::make_mut(&mut self.storage);
        storage.kernel.take();
        storage
    }

    /// The compiled execution kernel of this network (word-packed
    /// bit-matrices and support counts, see [`crate::bitset`]), building it
    /// on first use and caching it inside the shared storage.
    ///
    /// Every handle over the same storage — clones, session-cached
    /// networks — returns the *same* `Arc` (verify with `Arc::ptr_eq`).
    pub fn kernel(&self) -> &Arc<BitKernel> {
        self.storage.kernel.get_or_init(|| {
            Arc::new(BitKernel::build(
                self.storage.domains.iter().map(|d| d.len()).collect(),
                &self.storage.constraints,
                &self.storage.adjacency,
            ))
        })
    }

    /// Adds a variable with the given name and domain values; returns its id.
    pub fn add_variable(&mut self, name: impl Into<String>, domain: Vec<V>) -> VarId {
        let storage = self.storage_mut();
        let id = VarId::new(storage.domains.len());
        storage.names.push(name.into());
        storage.domains.push(Domain::new(domain));
        storage.adjacency.push(Vec::new());
        id
    }

    /// Adds (or extends) the binary constraint between `a` and `b` with the
    /// given allowed value pairs, each given as `(value of a, value of b)`.
    ///
    /// Adding a second constraint over the same pair of variables merges the
    /// allowed pairs (set union), mirroring how the paper accumulates one
    /// preferred pair per candidate loop restructuring.
    ///
    /// # Errors
    ///
    /// * [`CspError::SelfConstraint`] when `a == b`,
    /// * [`CspError::UnknownVariable`] when either id is out of range,
    /// * [`CspError::ValueNotInDomain`] when a pair mentions a value missing
    ///   from the corresponding domain.
    pub fn add_constraint(&mut self, a: VarId, b: VarId, pairs: Vec<(V, V)>) -> crate::Result<()> {
        if a == b {
            return Err(CspError::SelfConstraint(a));
        }
        self.check_var(a)?;
        self.check_var(b)?;
        let mut index_pairs = HashSet::with_capacity(pairs.len());
        for (va, vb) in pairs {
            let ia = self
                .domain(a)
                .index_of(&va)
                .ok_or_else(|| CspError::ValueNotInDomain {
                    variable: a,
                    value: format!("{va:?}"),
                })?;
            let ib = self
                .domain(b)
                .index_of(&vb)
                .ok_or_else(|| CspError::ValueNotInDomain {
                    variable: b,
                    value: format!("{vb:?}"),
                })?;
            index_pairs.insert((ia, ib));
        }
        self.add_constraint_by_index(a, b, index_pairs)
    }

    /// Adds (or merges) a constraint given directly as value-index pairs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ConstraintNetwork::add_constraint`], with
    /// [`CspError::ValueIndexOutOfRange`] replacing the missing-value error.
    pub fn add_constraint_by_index(
        &mut self,
        a: VarId,
        b: VarId,
        pairs: HashSet<(usize, usize)>,
    ) -> crate::Result<()> {
        if a == b {
            return Err(CspError::SelfConstraint(a));
        }
        self.check_var(a)?;
        self.check_var(b)?;
        for &(ia, ib) in &pairs {
            if ia >= self.domain(a).len() {
                return Err(CspError::ValueIndexOutOfRange {
                    variable: a,
                    index: ia,
                    domain_size: self.domain(a).len(),
                });
            }
            if ib >= self.domain(b).len() {
                return Err(CspError::ValueIndexOutOfRange {
                    variable: b,
                    index: ib,
                    domain_size: self.domain(b).len(),
                });
            }
        }
        // Merge with an existing constraint over the same scope if present.
        if let Some(ci) = self.constraint_index_between(a, b) {
            let existing = &self.storage.constraints[ci];
            let mut merged = existing.allowed_pairs().clone();
            if existing.first() == a {
                merged.extend(pairs);
            } else {
                merged.extend(pairs.into_iter().map(|(x, y)| (y, x)));
            }
            let merged = BinaryConstraint::new(existing.first(), existing.second(), merged);
            self.storage_mut().constraints[ci] = merged;
            return Ok(());
        }
        let storage = self.storage_mut();
        let ci = storage.constraints.len();
        storage.constraints.push(BinaryConstraint::new(a, b, pairs));
        storage.adjacency[a.index()].push(ci);
        storage.adjacency[b.index()].push(ci);
        Ok(())
    }

    pub(crate) fn check_var(&self, v: VarId) -> crate::Result<()> {
        if v.index() >= self.storage.domains.len() {
            Err(CspError::UnknownVariable(v))
        } else {
            Ok(())
        }
    }

    /// Number of variables.
    pub fn variable_count(&self) -> usize {
        self.storage.domains.len()
    }

    /// Iterator over all variable ids.
    pub fn variables(&self) -> impl Iterator<Item = VarId> {
        (0..self.storage.domains.len()).map(VarId::new)
    }

    /// A variable's name.
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range.
    pub fn name(&self, var: VarId) -> &str {
        &self.storage.names[var.index()]
    }

    /// A variable's domain.
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range.
    pub fn domain(&self, var: VarId) -> &Domain<V> {
        &self.storage.domains[var.index()]
    }

    /// All constraints, in index order.
    pub fn constraints(&self) -> &[BinaryConstraint] {
        &self.storage.constraints
    }

    /// The constraint at `index`.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of range.
    pub fn constraint(&self, index: usize) -> &BinaryConstraint {
        &self.storage.constraints[index]
    }

    /// Number of constraints.
    pub fn constraint_count(&self) -> usize {
        self.storage.constraints.len()
    }

    /// The indices (into [`ConstraintNetwork::constraints`]) of the
    /// constraints involving `var`.
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range.
    pub fn constraints_of(&self, var: VarId) -> &[usize] {
        &self.storage.adjacency[var.index()]
    }

    /// The constraint between two variables, if any.
    pub fn constraint_between(&self, a: VarId, b: VarId) -> Option<&BinaryConstraint> {
        self.constraint_index_between(a, b)
            .map(|i| &self.storage.constraints[i])
    }

    /// The index (into [`ConstraintNetwork::constraints`]) of the
    /// constraint between two variables, if any — an adjacency-list scan,
    /// `O(degree)` rather than `O(constraints)`.
    pub fn constraint_index_between(&self, a: VarId, b: VarId) -> Option<usize> {
        let adjacency = &self.storage.adjacency;
        if a == b || a.index() >= adjacency.len() || b.index() >= adjacency.len() {
            return None;
        }
        adjacency[a.index()]
            .iter()
            .copied()
            .find(|&ci| self.storage.constraints[ci].involves(b))
    }

    /// The neighbours of `var` in the constraint graph (variables sharing at
    /// least one constraint with it).
    pub fn neighbours(&self, var: VarId) -> Vec<VarId> {
        let mut out = Vec::new();
        for &ci in self.constraints_of(var) {
            if let Some(o) = self.storage.constraints[ci].other(var) {
                if !out.contains(&o) {
                    out.push(o);
                }
            }
        }
        out
    }

    /// The total search-space measure the paper's Table 1 calls *domain
    /// size*: the sum of the domain sizes of all variables.
    pub fn total_domain_size(&self) -> usize {
        self.storage.domains.iter().map(|d| d.len()).sum()
    }

    /// The number of leaves of the naive search tree (product of domain
    /// sizes), as `f64` because it overflows quickly.
    pub fn search_space_size(&self) -> f64 {
        self.storage
            .domains
            .iter()
            .map(|d| d.len() as f64)
            .product()
    }

    /// Checks whether assigning `value` (an index into the domain of `var`)
    /// is consistent with an existing partial assignment: every constraint
    /// between `var` and an already-assigned variable must allow the pair.
    ///
    /// This is the *consistent partial instantiation* test of the paper's
    /// Section 4.  The returned list contains the already-assigned variables
    /// that reject the value (empty means consistent).
    ///
    /// # Panics
    ///
    /// Panics when `var` is out of range.
    pub fn conflicts_with(
        &self,
        assignment: &Assignment,
        var: VarId,
        value: usize,
        checks: &mut u64,
    ) -> Vec<VarId> {
        let mut conflicts = Vec::new();
        for &ci in self.constraints_of(var) {
            let c = &self.storage.constraints[ci];
            let other = c.other(var).expect("constraint adjacency is consistent");
            if let Some(other_value) = assignment.get(other) {
                *checks += 1;
                if !c.allows(var, value, other, other_value) {
                    conflicts.push(other);
                }
            }
        }
        conflicts
    }

    /// Whether a *complete* assignment satisfies every constraint.
    ///
    /// # Errors
    ///
    /// Returns [`CspError::ValueIndexOutOfRange`] if any assigned index is
    /// outside its domain.
    pub fn is_solution(&self, assignment: &Assignment) -> crate::Result<bool> {
        if assignment.assigned_count() != self.variable_count() {
            return Ok(false);
        }
        for var in self.variables() {
            let value = assignment.get(var).expect("complete assignment");
            if value >= self.domain(var).len() {
                return Err(CspError::ValueIndexOutOfRange {
                    variable: var,
                    index: value,
                    domain_size: self.domain(var).len(),
                });
            }
        }
        for c in &self.storage.constraints {
            let a = assignment.get(c.first()).expect("complete");
            let b = assignment.get(c.second()).expect("complete");
            if !c.allows(c.first(), a, c.second(), b) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Materializes an index assignment into the underlying values.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is incomplete or out of range.
    pub fn materialize(&self, assignment: &Assignment) -> Vec<V> {
        self.variables()
            .map(|v| {
                let idx = assignment
                    .get(v)
                    .expect("assignment must be complete to materialize");
                self.domain(v).value(idx).clone()
            })
            .collect()
    }
}

impl<V: Value + fmt::Display> fmt::Display for ConstraintNetwork<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let storage = &*self.storage;
        writeln!(f, "P = {{{}}}", storage.names.join(", "))?;
        for (i, d) in storage.domains.iter().enumerate() {
            writeln!(f, "M_{} ({}) = {}", i, storage.names[i], d)?;
        }
        for c in &storage.constraints {
            writeln!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example network of the paper's Section 3.
    pub(crate) fn paper_network() -> (ConstraintNetwork<(i64, i64)>, Vec<VarId>) {
        let mut net = ConstraintNetwork::new();
        let q1 = net.add_variable("Q1", vec![(1, 0), (0, 1), (1, 1)]);
        let q2 = net.add_variable("Q2", vec![(1, -1), (1, 1)]);
        let q3 = net.add_variable("Q3", vec![(0, 1), (1, 1), (1, 2)]);
        let q4 = net.add_variable("Q4", vec![(1, 0), (0, 1), (1, 1)]);
        net.add_constraint(q1, q2, vec![((1, 0), (1, 1)), ((0, 1), (1, -1))])
            .unwrap();
        net.add_constraint(
            q1,
            q3,
            vec![((1, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 2))],
        )
        .unwrap();
        net.add_constraint(q1, q4, vec![((1, 0), (1, 0)), ((0, 1), (0, 1))])
            .unwrap();
        net.add_constraint(q2, q3, vec![((1, 1), (0, 1)), ((1, -1), (1, 1))])
            .unwrap();
        // The paper's S24 lists [(1 0), (0 1)], but (1 0) is not in M2 (a typo
        // in the published example); (1 -1) keeps the published solution.
        net.add_constraint(q2, q4, vec![((1, -1), (0, 1)), ((1, 1), (1, 0))])
            .unwrap();
        net.add_constraint(q3, q4, vec![((0, 1), (1, 0))]).unwrap();
        (net, vec![q1, q2, q3, q4])
    }

    #[test]
    fn build_and_query_paper_network() {
        let (net, vars) = paper_network();
        assert_eq!(net.variable_count(), 4);
        assert_eq!(net.constraint_count(), 6);
        assert_eq!(net.total_domain_size(), 3 + 2 + 3 + 3);
        assert_eq!(net.search_space_size(), 54.0);
        assert_eq!(net.name(vars[0]), "Q1");
        assert_eq!(net.domain(vars[1]).len(), 2);
        assert_eq!(net.neighbours(vars[0]).len(), 3);
        assert!(net.constraint_between(vars[0], vars[3]).is_some());
        assert!(net.constraint_between(vars[0], vars[0]).is_none());
    }

    #[test]
    fn display_lists_domains_and_constraints() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("Q1", vec![1, 2]);
        let b = net.add_variable("Q2", vec![3]);
        net.add_constraint(a, b, vec![(1, 3)]).unwrap();
        let s = net.to_string();
        assert!(s.contains("P = {Q1, Q2}"));
        assert!(s.contains("M_0 (Q1) = {1, 2}"));
        assert!(s.contains("S(x0, x1)"));
    }

    #[test]
    fn constraint_errors() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![1, 2]);
        let b = net.add_variable("b", vec![3]);
        assert_eq!(
            net.add_constraint(a, a, vec![(1, 1)]),
            Err(CspError::SelfConstraint(a))
        );
        assert!(matches!(
            net.add_constraint(a, VarId::new(9), vec![(1, 3)]),
            Err(CspError::UnknownVariable(_))
        ));
        assert!(matches!(
            net.add_constraint(a, b, vec![(7, 3)]),
            Err(CspError::ValueNotInDomain { .. })
        ));
        let mut bad = HashSet::new();
        bad.insert((0usize, 5usize));
        assert!(matches!(
            net.add_constraint_by_index(a, b, bad),
            Err(CspError::ValueIndexOutOfRange { .. })
        ));
    }

    #[test]
    fn constraints_merge_on_same_scope() {
        let mut net: ConstraintNetwork<i32> = ConstraintNetwork::new();
        let a = net.add_variable("a", vec![1, 2]);
        let b = net.add_variable("b", vec![3, 4]);
        net.add_constraint(a, b, vec![(1, 3)]).unwrap();
        net.add_constraint(a, b, vec![(2, 4)]).unwrap();
        assert_eq!(net.constraint_count(), 1);
        assert_eq!(net.constraint_between(a, b).unwrap().pair_count(), 2);
        // Adding with the scope reversed also merges (orientation fixed up).
        net.add_constraint(b, a, vec![(3, 2)]).unwrap();
        assert_eq!(net.constraint_count(), 1);
        let c = net.constraint_between(a, b).unwrap();
        assert_eq!(c.pair_count(), 3);
        assert!(c.allows(a, 1, b, 0));
    }

    #[test]
    fn conflict_detection_matches_paper_solution() {
        let (net, vars) = paper_network();
        let mut asg = Assignment::new(net.variable_count());
        let mut checks = 0u64;
        // Assign Q1 = (1 0).
        asg.assign(vars[0], 0);
        // Q2 = (1 1) (index 1) is consistent with Q1=(1 0).
        assert!(net.conflicts_with(&asg, vars[1], 1, &mut checks).is_empty());
        // Q2 = (1 -1) (index 0) conflicts with Q1=(1 0).
        assert_eq!(
            net.conflicts_with(&asg, vars[1], 0, &mut checks),
            vec![vars[0]]
        );
        assert!(checks > 0);
    }

    #[test]
    fn clones_share_storage_until_mutated() {
        let (net, _) = paper_network();
        let clone = net.clone();
        assert!(net.shares_storage(&clone));
        // Mutating the clone detaches it without disturbing the original.
        let mut fork = clone.clone();
        fork.add_variable("Q5", vec![(9, 9)]);
        assert!(!fork.shares_storage(&net));
        assert!(net.shares_storage(&clone));
        assert_eq!(net.variable_count(), 4);
        assert_eq!(fork.variable_count(), 5);
    }

    #[test]
    fn mutation_invalidates_the_cached_kernel() {
        let (net, vars) = paper_network();
        let kernel = Arc::clone(net.kernel());
        // A clone keeps the compiled kernel (same storage).
        let clone = net.clone();
        assert!(Arc::ptr_eq(&kernel, clone.kernel()));
        // Mutating a fork recompiles: the fork's kernel reflects the new
        // tables, the parent keeps the original.
        let mut fork = net.clone();
        fork.add_variable("Q5", vec![(9, 9)]);
        assert!(!Arc::ptr_eq(&kernel, fork.kernel()));
        assert_eq!(fork.kernel().variable_count(), 5);
        assert!(Arc::ptr_eq(&kernel, net.kernel()));
        // The kernel agrees with the constraint tables.
        let c = net.constraint_between(vars[0], vars[1]).unwrap();
        let ci = net
            .constraints_of(vars[0])
            .iter()
            .copied()
            .find(|&i| net.constraint(i).involves(vars[1]))
            .unwrap();
        for a in 0..net.domain(vars[0]).len() {
            for b in 0..net.domain(vars[1]).len() {
                assert_eq!(
                    c.allows(vars[0], a, vars[1], b),
                    net.kernel().allows(ci, vars[0], a, b),
                    "pair ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn full_solution_check_and_materialization() {
        let (net, vars) = paper_network();
        let mut asg = Assignment::new(4);
        // The paper's stated solution.
        asg.assign(vars[0], 0); // (1 0)
        asg.assign(vars[1], 1); // (1 1)
        asg.assign(vars[2], 0); // (0 1)
        asg.assign(vars[3], 0); // (1 0)
        assert_eq!(net.is_solution(&asg), Ok(true));
        assert_eq!(net.materialize(&asg), vec![(1, 0), (1, 1), (0, 1), (1, 0)]);
        // Perturbing one value breaks it.
        asg.assign(vars[2], 1);
        assert_eq!(net.is_solution(&asg), Ok(false));
        // Incomplete assignments are never solutions.
        let partial = Assignment::new(4);
        assert_eq!(net.is_solution(&partial), Ok(false));
    }
}
