//! The constraint network itself: variables, domains and constraints.
//!
//! # Shared storage and copy-on-write
//!
//! A [`ConstraintNetwork`] is a thin handle over an [`Arc`]'d
//! [`NetworkStorage`]: cloning a network is a single reference-count bump,
//! never a deep copy of the domain/constraint tables.  Mutators
//! (`add_variable`, `add_constraint`, ...) are copy-on-write — they mutate
//! in place while the handle is unique (the normal building phase) and make
//! a private copy only when the storage is shared.  This is what lets the
//! work-stealing scheduler hand the same network to every worker, and
//! batch sessions cache one network per program, without any per-solve
//! cloning.
//!
//! [`ConstraintNetwork::restricted`] produces a **mask-based view**: the
//! restricted network shares the *entire* storage with its parent — every
//! name, domain, constraint and adjacency table, by pointer — plus a tiny
//! [`DomainMask`] overlay recording which value indices are live.  Nothing
//! is remapped: a restricted view keeps the original domain indices (dead
//! ones simply never appear in solver iterations), so domain sharding
//! allocates a few mask words per split and **zero pair entries**,
//! independent of the pair-table volume.
//!
//! # The execution kernel
//!
//! Solvers do not probe the `HashSet` pair tables: the network lazily
//! compiles itself into a [`BitKernel`] (word-packed bit-matrices plus
//! per-value support counts, see [`crate::bitset`]) cached inside the
//! shared storage.  Clones, restricted views and session-cached networks
//! all reuse the identical kernel (`Arc::ptr_eq`-verifiable through
//! [`ConstraintNetwork::kernel`]).  Copy-on-write mutations recompile the
//! kernel **incrementally**: adding or extending a constraint rebuilds only
//! that constraint's bit-matrix and support counts (adding a variable
//! rebuilds none), with every untouched compiled matrix reused by pointer —
//! builder-heavy workloads no longer pay a full recompilation per tweak.

use crate::assignment::Assignment;
use crate::bitset::{BitKernel, DomainMask};
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
///
/// Storage is structural-sharing friendly at two granularities: the whole
/// struct lives behind one `Arc` (so network clones are free and
/// [`ConstraintNetwork::shares_storage`] can assert wholesale sharing), and
/// each domain / constraint table is individually `Arc`'d (so restricted
/// views share every entry the restriction does not touch).
#[derive(Debug)]
pub struct NetworkStorage<V> {
    names: Arc<Vec<String>>,
    domains: Vec<Arc<Domain<V>>>,
    constraints: Vec<Arc<BinaryConstraint>>,
    /// For each variable, the indices of the constraints that involve it.
    adjacency: Arc<Vec<Vec<usize>>>,
    /// The compiled execution form (see [`crate::bitset`]), built lazily at
    /// most once per storage and shared by every handle over it.
    kernel: OnceLock<Arc<BitKernel>>,
}

impl<V> NetworkStorage<V> {
    fn empty() -> Self {
        NetworkStorage {
            names: Arc::new(Vec::new()),
            domains: Vec::new(),
            constraints: Vec::new(),
            adjacency: Arc::new(Vec::new()),
            kernel: OnceLock::new(),
        }
    }
}

impl<V: Clone> Clone for NetworkStorage<V> {
    fn clone(&self) -> Self {
        // Cloning storage only happens on the copy-on-write path (a handle
        // about to be mutated): the fork must not inherit a kernel compiled
        // from tables it is about to change.
        NetworkStorage {
            names: Arc::clone(&self.names),
            domains: self.domains.clone(),
            constraints: self.constraints.clone(),
            adjacency: Arc::clone(&self.adjacency),
            kernel: OnceLock::new(),
        }
    }
}

/// A binary constraint network `<P, M, S>`.
///
/// See the [crate-level documentation](crate) for the correspondence with
/// the paper and a complete example, and the [module docs](self) for the
/// shared-storage / copy-on-write representation.
#[derive(Debug, Clone)]
pub struct ConstraintNetwork<V> {
    storage: Arc<NetworkStorage<V>>,
    /// Live-domain overlay of a restricted view (`None` = every value of
    /// every domain is live).
    mask: Option<Arc<DomainMask>>,
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
            storage: Arc::new(NetworkStorage::empty()),
            mask: None,
        }
    }

    /// The shared storage handle.
    ///
    /// Two networks returning pointer-equal handles (`Arc::ptr_eq`) are
    /// guaranteed to be views of the identical tables; tests use this to
    /// verify that clones and cached artifacts share rather than copy.
    pub fn storage(&self) -> &Arc<NetworkStorage<V>> {
        &self.storage
    }

    /// Whether `self` and `other` share their entire storage (the
    /// post-clone state — no table was copied).  Restricted views share
    /// storage with their parent too: only their
    /// [`ConstraintNetwork::mask`] differs.
    pub fn shares_storage(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.storage, &other.storage)
    }

    /// The shared handle of one domain table (for structural-sharing
    /// assertions; use [`ConstraintNetwork::domain`] to read values).
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range.
    pub fn domain_handle(&self, var: VarId) -> &Arc<Domain<V>> {
        &self.storage.domains[var.index()]
    }

    /// The shared handle of one constraint table (for structural-sharing
    /// assertions; use [`ConstraintNetwork::constraint`] to query pairs).
    ///
    /// # Panics
    ///
    /// Panics when the index is out of range.
    pub fn constraint_handle(&self, index: usize) -> &Arc<BinaryConstraint> {
        &self.storage.constraints[index]
    }

    /// Copy-on-write access to the storage: in-place while unique, a
    /// private copy (of the `Arc` spine only — the tables themselves are
    /// still shared until individually touched) once the storage is shared.
    ///
    /// Kernel recompilation is **incremental**: when the pre-mutation
    /// storage had a compiled kernel, the mutator computes a patched kernel
    /// (only the affected constraint's bit-matrix and support counts are
    /// rebuilt — see [`crate::bitset`]) and installs it here; otherwise the
    /// next solver run compiles from scratch as before.
    fn storage_mut_with_kernel(&mut self, patched: Option<BitKernel>) -> &mut NetworkStorage<V> {
        let storage = Arc::make_mut(&mut self.storage);
        storage.kernel.take();
        if let Some(kernel) = patched {
            let _ = storage.kernel.set(Arc::new(kernel));
        }
        storage
    }

    /// The compiled execution kernel of this network (word-packed
    /// bit-matrices and support counts, see [`crate::bitset`]), building it
    /// on first use and caching it inside the shared storage.
    ///
    /// Every handle over the same storage — clones, restricted views,
    /// session-cached networks — returns the *same* `Arc` (verify with
    /// `Arc::ptr_eq`); a restricted view differs from its parent only in
    /// its [`ConstraintNetwork::mask`].
    pub fn kernel(&self) -> &Arc<BitKernel> {
        self.storage.kernel.get_or_init(|| {
            Arc::new(BitKernel::build(
                self.storage.domains.iter().map(|d| d.len()).collect(),
                &self.storage.constraints,
                &self.storage.adjacency,
            ))
        })
    }

    /// The live-domain mask of a restricted view (`None` when every value
    /// is live — the network is not a restriction).
    pub fn mask(&self) -> Option<&Arc<DomainMask>> {
        self.mask.as_ref()
    }

    /// Number of *live* values of `var`: the full domain size unless a
    /// restriction masked some values off.
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range.
    pub fn live_count(&self, var: VarId) -> usize {
        let full = self.storage.domains[var.index()].len();
        match &self.mask {
            Some(mask) => mask.live_count(var, full),
            None => full,
        }
    }

    /// The live value indices of `var` in ascending order (original domain
    /// indices — masks never remap).
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range.
    pub fn live_values(&self, var: VarId) -> Vec<usize> {
        let full = self.storage.domains[var.index()].len();
        match &self.mask {
            Some(mask) => mask.live_values(var, full),
            None => (0..full).collect(),
        }
    }

    /// Whether value `index` of `var` is live under this network's mask.
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range.
    pub fn is_live(&self, var: VarId, index: usize) -> bool {
        index < self.storage.domains[var.index()].len()
            && self.mask.as_ref().is_none_or(|m| m.is_live(var, index))
    }

    /// Adds a variable with the given name and domain values; returns its id.
    pub fn add_variable(&mut self, name: impl Into<String>, domain: Vec<V>) -> VarId {
        let name = name.into();
        let domain = Domain::new(domain);
        // Incremental recompilation: a fresh variable has no constraints,
        // so every compiled bit-matrix is reused — only the word layout and
        // adjacency grow.
        let patched = self
            .storage
            .kernel
            .get()
            .map(|kernel| kernel.with_added_variable(domain.len()));
        let storage = self.storage_mut_with_kernel(patched);
        let id = VarId::new(storage.domains.len());
        Arc::make_mut(&mut storage.names).push(name);
        storage.domains.push(Arc::new(domain));
        Arc::make_mut(&mut storage.adjacency).push(Vec::new());
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
            // Incremental recompilation: only this constraint's bit-matrix
            // and support counts are rebuilt; every other compiled matrix
            // is reused by pointer.
            let patched = self
                .storage
                .kernel
                .get()
                .map(|kernel| kernel.with_patched_constraint(ci, &merged));
            let storage = self.storage_mut_with_kernel(patched);
            storage.constraints[ci] = Arc::new(merged);
            return Ok(());
        }
        let constraint = BinaryConstraint::new(a, b, pairs);
        // Incremental recompilation: compile just the new constraint's
        // matrix and append its two adjacency edges.
        let patched = self
            .storage
            .kernel
            .get()
            .map(|kernel| kernel.with_added_constraint(&constraint));
        let storage = self.storage_mut_with_kernel(patched);
        let ci = storage.constraints.len();
        storage.constraints.push(Arc::new(constraint));
        let adjacency = Arc::make_mut(&mut storage.adjacency);
        adjacency[a.index()].push(ci);
        adjacency[b.index()].push(ci);
        Ok(())
    }

    fn check_var(&self, v: VarId) -> crate::Result<()> {
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

    /// All constraints, as shared table handles (deref to
    /// [`BinaryConstraint`]; indexing and iteration work as before).
    pub fn constraints(&self) -> &[Arc<BinaryConstraint>] {
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
            .map(|i| &*self.storage.constraints[i])
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
    /// size*: the sum of the (live) domain sizes of all variables.
    pub fn total_domain_size(&self) -> usize {
        self.variables().map(|v| self.live_count(v)).sum()
    }

    /// The number of leaves of the naive search tree (product of live
    /// domain sizes), as `f64` because it overflows quickly.
    pub fn search_space_size(&self) -> f64 {
        self.variables()
            .map(|v| self.live_count(v) as f64)
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
            // A masked-off value can never be part of a solution of the
            // restricted view.
            if !self.is_live(var, value) {
                return Ok(false);
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

    /// Builds a **mask-based view** of the network with the domain of `var`
    /// restricted to the given value indices.
    ///
    /// The view shares the *entire* storage with `self` — every domain,
    /// constraint and adjacency table, and the compiled
    /// [`ConstraintNetwork::kernel`] — and carries only a small
    /// [`DomainMask`] overlay.  No pair entry is copied or remapped:
    /// **value indices are preserved**, so `keep` is treated as a set (its
    /// order is irrelevant) of original domain indices, and solutions of
    /// the view report the same indices the parent would.  Restricting an
    /// already-restricted view intersects the masks (again in original
    /// indices).  This is a sharding primitive: partitioning one variable's
    /// live values across views partitions the whole search space at the
    /// cost of a few mask words per shard.
    ///
    /// A restriction that keeps the full domain returns a plain clone
    /// ([`ConstraintNetwork::mask`] stays `None`).
    ///
    /// # Errors
    ///
    /// * [`CspError::UnknownVariable`] when `var` is out of range,
    /// * [`CspError::ValueIndexOutOfRange`] when `keep` mentions an index
    ///   outside the domain of `var`, or mentions the same index twice (a
    ///   duplicate usually indicates a buggy shard split).
    pub fn restricted(&self, var: VarId, keep: &[usize]) -> crate::Result<ConstraintNetwork<V>> {
        self.check_var(var)?;
        let domain_size = self.storage.domains[var.index()].len();
        let mut mask = match &self.mask {
            Some(existing) => (**existing).clone(),
            None => DomainMask::new(),
        };
        mask.restrict(var, domain_size, keep)
            .map_err(|index| CspError::ValueIndexOutOfRange {
                variable: var,
                index,
                domain_size,
            })?;
        // The identity restriction changes nothing: stay mask-free (or keep
        // the existing mask untouched).
        if keep.len() == domain_size && self.mask.is_none() {
            return Ok(self.clone());
        }
        Ok(ConstraintNetwork {
            storage: Arc::clone(&self.storage),
            mask: Some(Arc::new(mask)),
        })
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
    fn restriction_partitions_the_search_space() {
        let (net, vars) = paper_network();
        // Restricting Q1 to its first value keeps the published solution.
        let shard = net.restricted(vars[0], &[0]).unwrap();
        assert_eq!(shard.live_count(vars[0]), 1);
        assert_eq!(shard.live_values(vars[0]), vec![0]);
        assert!(shard.is_live(vars[0], 0));
        assert!(!shard.is_live(vars[0], 1));
        assert_eq!(shard.constraint_count(), net.constraint_count());
        // The full domain is still addressable — masks never remap — and
        // the pair tables are untouched.
        assert_eq!(shard.domain(vars[0]).len(), 3);
        assert_eq!(shard.domain(vars[0]).value(0), &(1, 0));
        let c = shard.constraint_between(vars[0], vars[1]).unwrap();
        assert_eq!(c.pair_count(), 2);
        assert!(c.allows(vars[0], 0, vars[1], 1));
        // Search-space measures follow the live counts.
        assert_eq!(shard.total_domain_size(), 1 + 2 + 3 + 3);
        assert_eq!(shard.search_space_size(), 18.0);
        // Restricting a view intersects masks (original indices).
        let narrower = shard.restricted(vars[1], &[1]).unwrap();
        assert_eq!(narrower.live_values(vars[0]), vec![0]);
        assert_eq!(narrower.live_values(vars[1]), vec![1]);
        // Out-of-range and duplicate restrictions are rejected.
        assert!(matches!(
            net.restricted(vars[0], &[9]),
            Err(CspError::ValueIndexOutOfRange { .. })
        ));
        assert!(matches!(
            net.restricted(vars[0], &[0, 0]),
            Err(CspError::ValueIndexOutOfRange { .. })
        ));
        assert!(matches!(
            net.restricted(VarId::new(99), &[0]),
            Err(CspError::UnknownVariable(_))
        ));
    }

    #[test]
    fn masked_solutions_respect_the_mask() {
        let (net, vars) = paper_network();
        // The published solution assigns Q1 = index 0; masking index 0 off
        // makes that assignment a non-solution of the view.
        let shard = net.restricted(vars[0], &[1, 2]).unwrap();
        let mut asg = Assignment::new(4);
        asg.assign(vars[0], 0);
        asg.assign(vars[1], 1);
        asg.assign(vars[2], 0);
        asg.assign(vars[3], 0);
        assert_eq!(net.is_solution(&asg), Ok(true));
        assert_eq!(shard.is_solution(&asg), Ok(false));
    }

    #[test]
    fn clones_share_storage_until_mutated() {
        let (net, vars) = paper_network();
        let clone = net.clone();
        assert!(net.shares_storage(&clone));
        // Mutating the clone detaches it without disturbing the original.
        let mut fork = clone.clone();
        fork.add_variable("Q5", vec![(9, 9)]);
        assert!(!fork.shares_storage(&net));
        assert!(net.shares_storage(&clone));
        assert_eq!(net.variable_count(), 4);
        assert_eq!(fork.variable_count(), 5);
        // The untouched tables of the fork are still the parent's tables.
        for v in &vars {
            assert!(Arc::ptr_eq(net.domain_handle(*v), fork.domain_handle(*v)));
        }
        for ci in 0..net.constraint_count() {
            assert!(Arc::ptr_eq(
                net.constraint_handle(ci),
                fork.constraint_handle(ci)
            ));
        }
    }

    #[test]
    fn restricted_views_share_all_tables_and_the_kernel() {
        let (net, vars) = paper_network();
        let parent_kernel = Arc::clone(net.kernel());
        let shard = net.restricted(vars[0], &[0, 1]).unwrap();
        // A mask-based view shares the whole storage: every domain table,
        // every constraint table, and the compiled kernel.
        assert!(shard.shares_storage(&net));
        for &v in &vars {
            assert!(Arc::ptr_eq(net.domain_handle(v), shard.domain_handle(v)));
        }
        for ci in 0..net.constraint_count() {
            assert!(Arc::ptr_eq(
                net.constraint_handle(ci),
                shard.constraint_handle(ci)
            ));
        }
        assert!(Arc::ptr_eq(&parent_kernel, shard.kernel()));
        assert!(shard.mask().is_some());
        // An identity restriction is a plain clone: no mask at all.
        let full: Vec<usize> = (0..net.domain(vars[0]).len()).collect();
        let identity = net.restricted(vars[0], &full).unwrap();
        assert!(identity.shares_storage(&net));
        assert!(identity.mask().is_none());
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
