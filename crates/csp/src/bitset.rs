//! The word-packed execution kernel behind every solver hot path.
//!
//! A [`crate::ConstraintNetwork`] is the *builder-facing* form of a network:
//! domains hold real values, constraints are `HashSet`s of allowed index
//! pairs.  That shape is convenient to construct and query one pair at a
//! time, but the solvers ask "does `S_ij` allow `(a, b)`?" millions of times
//! per solve, and a hash probe per query is where nearly all of the solve
//! time goes.
//!
//! The [`BitKernel`] is the *execution* form the network compiles itself
//! into, lazily and at most once per storage (the handle is cached inside
//! the network's shared storage, so clones and session-cached networks all
//! reuse the identical kernel — `Arc::ptr_eq`-verifiable):
//!
//! * every constraint becomes a pair of **bit-matrices** ([`BitConstraint`]):
//!   for each value of one endpoint, a row of `u64` words whose set bits are
//!   the supported values of the other endpoint — both orientations are
//!   precomputed, so `allows` is a shift-and-mask and "revise `x` against
//!   `y`" is a word-AND plus popcount,
//! * per-value **support counts** over the full domains are precomputed,
//!   giving the value-ordering heuristics an O(1) fast path while domains
//!   are unpruned,
//! * live domains become word-packed masks ([`BitDomains`]): forward
//!   checking is `live &= row`, wipeout detection is a zero test, and
//!   saving/restoring a domain is a copy of a handful of words.
//!
//! # The weighted kernel
//!
//! [`WeightKernel`] is the weighted counterpart of [`BitKernel`]: per
//! constraint, a **dense weight matrix** in both orientations
//! ([`WeightTable`], mirroring the bit-matrix layout so "the weight of every
//! partner of one value" is a contiguous row) plus per-value **row-maximum
//! aggregates** over the allowed pairs ([`WeightConstraint`]), which give
//! branch and bound its optimistic upper bounds and the weighted value
//! ordering its O(1) scores.  It is compiled lazily, at most once per
//! weighted spine (see [`crate::WeightedNetwork`]), and shared by clones.
//!
//! # Compiled once, never patched
//!
//! A kernel is never edited after it is built.  Mutating a network (adding
//! a variable or a constraint) or a weight drops the cached kernel of the
//! mutated handle, and the next solver run compiles it again from the
//! tables.  The production pipeline fills every table before the first
//! compile, so it compiles each kernel exactly once.

use crate::assignment::Assignment;
use crate::constraint::BinaryConstraint;
use crate::network::VarId;
use crate::words;
use std::sync::Arc;

/// Bits per mask word.
const WORD_BITS: usize = 64;

/// Number of `u64` words needed to hold `bits` bits.
fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// Number of `u64` words a variable's live span or a bit-matrix row
/// occupies: the bit minimum, and at least one word.  Bits above the
/// domain boundary are never set — [`full_word`] yields zero once the real
/// bits run out — which the phantom-value regression test pins.
fn span_words(bits: usize) -> usize {
    words_for(bits).max(1)
}

/// A full mask for `bits` bits, one valid word at a time.
fn full_word(bits_left: usize) -> u64 {
    if bits_left >= WORD_BITS {
        u64::MAX
    } else {
        (1u64 << bits_left) - 1
    }
}

/// Iterates the set bits of a word slice in ascending order.
fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            f(wi * WORD_BITS + bit);
            w &= w - 1;
        }
    }
}

/// Collects the set bits of a word slice in ascending order.
fn set_bits(words: &[u64]) -> Vec<usize> {
    let mut out = Vec::with_capacity(words.iter().map(|w| w.count_ones() as usize).sum());
    for_each_set_bit(words, |i| out.push(i));
    out
}

/// The per-variable word layout shared by a kernel and every
/// [`BitDomains`] working set derived from it.
#[derive(Debug)]
pub struct DomainShape {
    /// Domain size of each variable.
    sizes: Vec<usize>,
    /// Start word of each variable's mask in the flat word vector.
    offsets: Vec<usize>,
    /// Total number of words across all variables.
    total_words: usize,
}

impl DomainShape {
    fn new(sizes: Vec<usize>) -> Self {
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut total = 0usize;
        for &size in &sizes {
            offsets.push(total);
            total += span_words(size);
        }
        DomainShape {
            sizes,
            offsets,
            total_words: total,
        }
    }

    fn word_range(&self, var: usize) -> std::ops::Range<usize> {
        let start = self.offsets[var];
        start..start + span_words(self.sizes[var])
    }
}

/// One constraint compiled to bit-matrices, both orientations precomputed.
#[derive(Debug)]
pub struct BitConstraint {
    first: VarId,
    second: VarId,
    second_size: usize,
    /// Words per `fwd` row (`span_words(second_size)`).
    fwd_stride: usize,
    /// Words per `rev` row (`span_words(first_size)`).
    rev_stride: usize,
    /// Row `a`: the values of `second` allowed with `first = a`.  Rows are
    /// contiguous in value order, so a revise walks the block block-major.
    fwd: Vec<u64>,
    /// Row `b`: the values of `first` allowed with `second = b`.
    rev: Vec<u64>,
    /// Per-value support counts over the *full* domains: `support_fwd[a]`
    /// is the number of `second` values allowed with `first = a`.
    support_fwd: Vec<u32>,
    /// `support_rev[b]` is the number of `first` values allowed with
    /// `second = b`.
    support_rev: Vec<u32>,
    /// Bit `a` set iff `support_fwd[a] > 0`, as wide as the `first`
    /// endpoint's live span: revising `first` against an unpruned
    /// `second` is a single AND with this mask.
    support_nonzero_fwd: Vec<u64>,
    /// Bit `b` set iff `support_rev[b] > 0` (the `second`-endpoint mask).
    support_nonzero_rev: Vec<u64>,
}

impl BitConstraint {
    fn build(constraint: &BinaryConstraint, first_size: usize, second_size: usize) -> Self {
        let fwd_stride = span_words(second_size);
        let rev_stride = span_words(first_size);
        let mut fwd = vec![0u64; first_size * fwd_stride];
        let mut rev = vec![0u64; second_size * rev_stride];
        let mut support_fwd = vec![0u32; first_size];
        let mut support_rev = vec![0u32; second_size];
        for &(a, b) in constraint.allowed_pairs() {
            fwd[a * fwd_stride + b / WORD_BITS] |= 1 << (b % WORD_BITS);
            rev[b * rev_stride + a / WORD_BITS] |= 1 << (a % WORD_BITS);
            support_fwd[a] += 1;
            support_rev[b] += 1;
        }
        // The endpoint-value masks share their endpoint's live-span width:
        // `first` values are rev-row sized, `second` values fwd-row sized.
        let mut support_nonzero_fwd = vec![0u64; rev_stride];
        for (a, &s) in support_fwd.iter().enumerate() {
            if s > 0 {
                support_nonzero_fwd[a / WORD_BITS] |= 1 << (a % WORD_BITS);
            }
        }
        let mut support_nonzero_rev = vec![0u64; fwd_stride];
        for (b, &s) in support_rev.iter().enumerate() {
            if s > 0 {
                support_nonzero_rev[b / WORD_BITS] |= 1 << (b % WORD_BITS);
            }
        }
        BitConstraint {
            first: constraint.first(),
            second: constraint.second(),
            second_size,
            fwd_stride,
            rev_stride,
            fwd,
            rev,
            support_fwd,
            support_rev,
            support_nonzero_fwd,
            support_nonzero_rev,
        }
    }

    /// The first endpoint.
    pub fn first(&self) -> VarId {
        self.first
    }

    /// The second endpoint.
    pub fn second(&self) -> VarId {
        self.second
    }

    /// The support row of `value` of the endpoint selected by
    /// `var_is_first`: the set bits are the values of the *other* endpoint
    /// compatible with it.
    pub fn row(&self, var_is_first: bool, value: usize) -> &[u64] {
        if var_is_first {
            &self.fwd[value * self.fwd_stride..(value + 1) * self.fwd_stride]
        } else {
            &self.rev[value * self.rev_stride..(value + 1) * self.rev_stride]
        }
    }

    /// Whether the pair `(a, b)` (oriented `first → second`) is allowed.
    pub fn allows(&self, a: usize, b: usize) -> bool {
        debug_assert!(b < self.second_size);
        self.fwd[a * self.fwd_stride + b / WORD_BITS] >> (b % WORD_BITS) & 1 == 1
    }

    /// The number of values of the *other* endpoint supporting `value` of
    /// the endpoint selected by `var_is_first`, over the full domain.
    pub fn full_support(&self, var_is_first: bool, value: usize) -> u32 {
        if var_is_first {
            self.support_fwd[value]
        } else {
            self.support_rev[value]
        }
    }

    /// The values of the endpoint selected by `var_is_first` that have at
    /// least one support over the *full* partner domain, as a word mask as
    /// wide as the endpoint's live span.  While the partner's domain is
    /// unpruned, revising against it degenerates to a single AND with this
    /// mask.
    pub fn support_nonzero(&self, var_is_first: bool) -> &[u64] {
        if var_is_first {
            &self.support_nonzero_fwd
        } else {
            &self.support_nonzero_rev
        }
    }

    /// Block-major kernel revise: clears every live value of the endpoint
    /// selected by `x_is_first` (live words `x_live`, mutated in place)
    /// whose support row shares no bit with `y_live`.  The constraint's
    /// rows are one contiguous block walked in ascending value order, so
    /// `y_live` and the streamed rows stay cache-hot across the whole
    /// revision.  Returns `(removed, bytes_touched)` — the byte count
    /// covers both live spans plus every row probed, feeding the
    /// bytes-touched-per-revision audit in the perf gate.
    pub fn revise_live(&self, x_is_first: bool, x_live: &mut [u64], y_live: &[u64]) -> (u64, u64) {
        let (rows, stride) = if x_is_first {
            (&self.fwd, self.fwd_stride)
        } else {
            (&self.rev, self.rev_stride)
        };
        let mut removed = 0u64;
        let mut probed = 0u64;
        for (wi, slot) in x_live.iter_mut().enumerate() {
            let mut word = *slot;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let value = wi * WORD_BITS + bit;
                probed += 1;
                if !words::and_any(&rows[value * stride..(value + 1) * stride], y_live) {
                    *slot &= !(1u64 << bit);
                    removed += 1;
                }
            }
        }
        let bytes = 8 * (x_live.len() as u64 + y_live.len() as u64 + probed * stride as u64);
        (removed, bytes)
    }
}

/// One entry of a variable's kernel adjacency list: the constraint, the
/// neighbour it leads to, and the orientation of this variable in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelEdge {
    /// Index of the constraint (same indexing as the network's constraint
    /// list).
    pub constraint: usize,
    /// The other endpoint.
    pub other: VarId,
    /// Whether the variable owning this adjacency list is the constraint's
    /// `first` endpoint.
    pub var_is_first: bool,
}

/// The compiled execution form of a constraint network: bit-matrix
/// constraints, per-value support counts and the word layout of the live
/// domains.
///
/// Built once per network storage (see
/// [`crate::ConstraintNetwork::kernel`]) and shared by every clone of the
/// network.
#[derive(Debug)]
pub struct BitKernel {
    shape: Arc<DomainShape>,
    constraints: Vec<BitConstraint>,
    adjacency: Vec<Vec<KernelEdge>>,
}

impl BitKernel {
    /// Compiles a kernel from the storage-level tables.
    pub(crate) fn build(
        domain_sizes: Vec<usize>,
        constraints: &[BinaryConstraint],
        adjacency: &[Vec<usize>],
    ) -> Self {
        let compiled: Vec<BitConstraint> = constraints
            .iter()
            .map(|c| {
                BitConstraint::build(
                    c,
                    domain_sizes[c.first().index()],
                    domain_sizes[c.second().index()],
                )
            })
            .collect();
        // The kernel adjacency mirrors the network's per-variable constraint
        // lists (same order), with the orientation resolved once.
        let edges: Vec<Vec<KernelEdge>> = adjacency
            .iter()
            .enumerate()
            .map(|(v, list)| {
                list.iter()
                    .map(|&ci| {
                        let c = &compiled[ci];
                        let var_is_first = c.first().index() == v;
                        KernelEdge {
                            constraint: ci,
                            other: if var_is_first { c.second() } else { c.first() },
                            var_is_first,
                        }
                    })
                    .collect()
            })
            .collect();
        BitKernel {
            shape: Arc::new(DomainShape::new(domain_sizes)),
            constraints: compiled,
            adjacency: edges,
        }
    }

    /// Number of variables.
    pub fn variable_count(&self) -> usize {
        self.shape.sizes.len()
    }

    /// Full domain size of a variable.
    pub fn domain_size(&self, var: VarId) -> usize {
        self.shape.sizes[var.index()]
    }

    /// Number of constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// The compiled constraint at `index` (same indexing as
    /// [`crate::ConstraintNetwork::constraints`]).
    pub fn constraint(&self, index: usize) -> &BitConstraint {
        &self.constraints[index]
    }

    /// The kernel adjacency of `var`: one edge per constraint involving it,
    /// in the network's adjacency order.
    pub fn edges(&self, var: VarId) -> &[KernelEdge] {
        &self.adjacency[var.index()]
    }

    /// Whether constraint `ci` allows `var = value` together with
    /// `other = other_value` (`var` may be either endpoint).
    pub fn allows(&self, ci: usize, var: VarId, value: usize, other_value: usize) -> bool {
        let c = &self.constraints[ci];
        if var == c.first {
            c.allows(value, other_value)
        } else {
            c.allows(other_value, value)
        }
    }

    /// Whether assigning `value` to `var` violates some constraint against
    /// an already-assigned variable (early exit on the first conflict; one
    /// consistency check is counted per probed neighbour).
    pub fn conflicts_any(
        &self,
        assignment: &Assignment,
        var: VarId,
        value: usize,
        checks: &mut u64,
    ) -> bool {
        for edge in self.edges(var) {
            if let Some(other_value) = assignment.get(edge.other) {
                *checks += 1;
                let c = &self.constraints[edge.constraint];
                let allowed = if edge.var_is_first {
                    c.allows(value, other_value)
                } else {
                    c.allows(other_value, value)
                };
                if !allowed {
                    return true;
                }
            }
        }
        false
    }

    /// The consistent-partial-instantiation test in conflict-set form:
    /// appends every already-assigned variable whose constraint rejects
    /// `var = value` to `conflicts` (no early exit — backjumping needs the
    /// full set); counts one consistency check per probed neighbour.
    pub fn collect_conflicts(
        &self,
        assignment: &Assignment,
        var: VarId,
        value: usize,
        checks: &mut u64,
        conflicts: &mut Vec<VarId>,
    ) {
        for edge in self.edges(var) {
            if let Some(other_value) = assignment.get(edge.other) {
                *checks += 1;
                let c = &self.constraints[edge.constraint];
                let allowed = if edge.var_is_first {
                    c.allows(value, other_value)
                } else {
                    c.allows(other_value, value)
                };
                if !allowed {
                    conflicts.push(edge.other);
                }
            }
        }
    }

    /// A fresh live-domain working set with every value of every variable
    /// present.
    pub fn full_domains(&self) -> BitDomains {
        let mut words = vec![0u64; self.shape.total_words];
        for (v, &size) in self.shape.sizes.iter().enumerate() {
            let range = self.shape.word_range(v);
            let mut left = size;
            for w in &mut words[range] {
                *w = full_word(left);
                left = left.saturating_sub(WORD_BITS);
            }
        }
        BitDomains {
            shape: Arc::clone(&self.shape),
            words,
        }
    }
}

/// Dense per-constraint weight matrix in both orientations, mirroring the
/// bit-matrix layout of [`BitConstraint`]: `fwd` is indexed
/// `a * second_size + b`, `rev` is the transpose — so "the weight of every
/// partner of one value" is a contiguous row scan in either direction, and
/// a weight read is one indexed load instead of a hash probe.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightTable {
    first_size: usize,
    second_size: usize,
    /// `fwd[a * second_size + b]` = weight of pair `(a, b)`.
    fwd: Vec<f64>,
    /// `rev[b * first_size + a]` = weight of pair `(a, b)` (transposed).
    rev: Vec<f64>,
}

impl WeightTable {
    /// A table with every entry at `weight` (the state of a constraint no
    /// `set_weight` has touched, materialized).
    pub fn uniform(first_size: usize, second_size: usize, weight: f64) -> Self {
        WeightTable {
            first_size,
            second_size,
            fwd: vec![weight; first_size * second_size],
            rev: vec![weight; first_size * second_size],
        }
    }

    /// Domain size of the constraint's `first` endpoint.
    pub fn first_size(&self) -> usize {
        self.first_size
    }

    /// Domain size of the constraint's `second` endpoint.
    pub fn second_size(&self) -> usize {
        self.second_size
    }

    /// The weight of pair `(a, b)` (oriented `first → second`).
    ///
    /// Indices must be in range (`a < first_size`, `b < second_size`):
    /// this is the unchecked-shape hot-path read — an out-of-range `b`
    /// would alias another row's entry, so it is a debug assertion.
    pub fn get(&self, a: usize, b: usize) -> f64 {
        debug_assert!(a < self.first_size && b < self.second_size);
        self.fwd[a * self.second_size + b]
    }

    /// Sets the weight of pair `(a, b)`, keeping both orientations in sync.
    pub fn set(&mut self, a: usize, b: usize, weight: f64) {
        debug_assert!(a < self.first_size && b < self.second_size);
        self.fwd[a * self.second_size + b] = weight;
        self.rev[b * self.first_size + a] = weight;
    }

    /// Adds `delta` to the weight of pair `(a, b)` — the accumulation form
    /// weight derivations use (no intermediate map needed).
    pub fn add(&mut self, a: usize, b: usize, delta: f64) {
        debug_assert!(a < self.first_size && b < self.second_size);
        self.fwd[a * self.second_size + b] += delta;
        self.rev[b * self.first_size + a] = self.fwd[a * self.second_size + b];
    }

    /// The dense weight row of `value` of the endpoint selected by
    /// `var_is_first`: entry `i` is the weight of pairing `value` with the
    /// *other* endpoint's value `i` (same row semantics as
    /// [`BitConstraint::row`]).
    pub fn row(&self, var_is_first: bool, value: usize) -> &[f64] {
        if var_is_first {
            &self.fwd[value * self.second_size..(value + 1) * self.second_size]
        } else {
            &self.rev[value * self.first_size..(value + 1) * self.first_size]
        }
    }

    /// Oriented read: the weight of `value` (of the endpoint selected by
    /// `var_is_first`) paired with `other` — a contiguous-row load in either
    /// orientation.
    pub fn oriented(&self, var_is_first: bool, value: usize, other: usize) -> f64 {
        if var_is_first {
            self.fwd[value * self.second_size + other]
        } else {
            self.rev[value * self.first_size + other]
        }
    }
}

/// One constraint of a [`WeightKernel`]: the (shared) dense weight table
/// plus per-value aggregates over the constraint's *allowed* pairs.
///
/// The aggregates are what the weighted solvers lean on: `row_max` answers
/// "the best weight this value can still gain on this constraint" in O(1)
/// while the partner's domain is unpruned, and [`WeightConstraint::max_allowed`]
/// is the per-constraint optimistic bound of branch and bound.
#[derive(Debug)]
pub struct WeightConstraint {
    /// Shared by pointer with the weighted network's spine; `None` when
    /// every pair carries the default weight (nothing was ever set).
    table: Option<Arc<WeightTable>>,
    default_weight: f64,
    /// `row_max_fwd[a]` = max weight among allowed pairs with `first = a`
    /// (`NEG_INFINITY` when the value has no allowed pair).
    row_max_fwd: Vec<f64>,
    /// `row_max_rev[b]` = max weight among allowed pairs with `second = b`.
    row_max_rev: Vec<f64>,
    /// Max over all allowed pairs (`NEG_INFINITY` when the constraint
    /// allows nothing).
    max_allowed: f64,
}

impl WeightConstraint {
    fn build(
        table: Option<&Arc<WeightTable>>,
        bit: &BitConstraint,
        first_size: usize,
        second_size: usize,
        default_weight: f64,
    ) -> Self {
        let mut row_max_fwd = vec![f64::NEG_INFINITY; first_size];
        let mut row_max_rev = vec![f64::NEG_INFINITY; second_size];
        let mut max_allowed = f64::NEG_INFINITY;
        for (a, row_max) in row_max_fwd.iter_mut().enumerate() {
            for_each_set_bit(bit.row(true, a), |b| {
                let weight = table.map_or(default_weight, |t| t.get(a, b));
                *row_max = row_max.max(weight);
                row_max_rev[b] = row_max_rev[b].max(weight);
                max_allowed = max_allowed.max(weight);
            });
        }
        WeightConstraint {
            table: table.cloned(),
            default_weight,
            row_max_fwd,
            row_max_rev,
            max_allowed,
        }
    }

    /// The weight of pair `(a, b)` (oriented `first → second`).
    pub fn get(&self, a: usize, b: usize) -> f64 {
        match &self.table {
            Some(table) => table.get(a, b),
            None => self.default_weight,
        }
    }

    /// Oriented read, mirroring [`WeightTable::oriented`].
    pub fn oriented(&self, var_is_first: bool, value: usize, other: usize) -> f64 {
        match &self.table {
            Some(table) => table.oriented(var_is_first, value, other),
            None => self.default_weight,
        }
    }

    /// The best weight among allowed pairs of `value` of the endpoint
    /// selected by `var_is_first`, over the full partner domain
    /// (`NEG_INFINITY` when the value has no allowed pair).
    pub fn row_max(&self, var_is_first: bool, value: usize) -> f64 {
        if var_is_first {
            self.row_max_fwd[value]
        } else {
            self.row_max_rev[value]
        }
    }

    /// The best weight among all allowed pairs (`NEG_INFINITY` when the
    /// constraint allows nothing).
    pub fn max_allowed(&self) -> f64 {
        self.max_allowed
    }

    /// The best weight among pairs of `value` (of the endpoint selected by
    /// `var_is_first`) whose partner is both allowed by `bit` and set in
    /// `partner_live`, plus the first partner value attaining it —
    /// `(NEG_INFINITY, u32::MAX)` when no live supported partner remains.
    ///
    /// One masked row-maximum word loop over the bit-row for dense tables;
    /// uniform constraints need only the first common bit.
    pub fn live_row_max(
        &self,
        bit: &BitConstraint,
        var_is_first: bool,
        value: usize,
        partner_live: &[u64],
    ) -> (f64, u32) {
        let mask = bit.row(var_is_first, value);
        match &self.table {
            Some(table) => {
                words::masked_row_max(table.row(var_is_first, value), mask, partner_live)
            }
            None => {
                for (wi, (x, y)) in mask.iter().zip(partner_live).enumerate() {
                    let m = x & y;
                    if m != 0 {
                        let first = (wi * 64) as u32 + m.trailing_zeros();
                        return (self.default_weight, first);
                    }
                }
                (f64::NEG_INFINITY, u32::MAX)
            }
        }
    }
}

/// The compiled execution form of a weighted network: one
/// [`WeightConstraint`] per constraint.
///
/// Built lazily at most once per weighted spine (see
/// [`crate::WeightedNetwork::weight_kernel`]) and shared by clones.
#[derive(Debug)]
pub struct WeightKernel {
    default_weight: f64,
    constraints: Vec<WeightConstraint>,
}

impl WeightKernel {
    /// Compiles the kernel from the builder-side dense tables (`None` =
    /// uniform default) against the hard network's compiled [`BitKernel`].
    pub(crate) fn build(
        tables: &[Option<Arc<WeightTable>>],
        kernel: &BitKernel,
        default_weight: f64,
    ) -> Self {
        let constraints = tables
            .iter()
            .enumerate()
            .map(|(ci, table)| {
                let bit = kernel.constraint(ci);
                WeightConstraint::build(
                    table.as_ref(),
                    bit,
                    kernel.domain_size(bit.first()),
                    kernel.domain_size(bit.second()),
                    default_weight,
                )
            })
            .collect();
        WeightKernel {
            default_weight,
            constraints,
        }
    }

    /// The weight every unset pair carries.
    pub fn default_weight(&self) -> f64 {
        self.default_weight
    }

    /// Number of constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// The compiled weight constraint at `index` (same indexing as
    /// [`crate::ConstraintNetwork::constraints`]).
    pub fn constraint(&self, index: usize) -> &WeightConstraint {
        &self.constraints[index]
    }

    /// The weight of pair `(a, b)` of constraint `ci` — the dense read that
    /// replaced the per-pair hash probe on every weighted hot path.
    pub fn weight(&self, ci: usize, a: usize, b: usize) -> f64 {
        self.constraints[ci].get(a, b)
    }

    /// Builds the live-masked row-max working set over `live` (see
    /// [`LiveRowMax`]) — the aggregates the soft-AC-3 propagator maintains
    /// incrementally as search shrinks domains.
    pub fn live_row_max(&self, kernel: &BitKernel, live: &BitDomains) -> LiveRowMax {
        LiveRowMax::build(self, kernel, live)
    }
}

/// Live-masked per-value row maxima for every constraint of a
/// [`WeightKernel`], plus each constraint's max over live allowed pairs.
///
/// Where [`WeightConstraint::row_max`] is a compile-time aggregate over the
/// *full* partner domain, these entries are masked by the current live
/// domains and maintained incrementally as search deletes values: an entry
/// is rescanned (one [`WeightConstraint::live_row_max`] over the bit-row)
/// only when a deletion kills its current argmax.
/// This is the mutable working set of the soft-AC-3 propagator
/// ([`crate::solver::SoftAc3`]).
#[derive(Debug, Clone)]
pub struct LiveRowMax {
    /// Flat per-(constraint, side, value) maxima; each constraint
    /// contributes one block for its first endpoint's values followed by
    /// one for its second's.
    max: Vec<f64>,
    /// Partner value attaining each `max` entry (`u32::MAX` when none —
    /// the entry is `NEG_INFINITY`, or reached it without a live partner).
    arg: Vec<u32>,
    /// `offs[2 * ci]` / `offs[2 * ci + 1]` = base slot of constraint
    /// `ci`'s first/second-endpoint block; `offs[2 * count]` = total.
    offs: Vec<u32>,
    /// Per-constraint max weight over live allowed pairs.
    cmax: Vec<f64>,
}

impl LiveRowMax {
    /// Scans every constraint once against `live` (the root build; search
    /// then maintains the entries incrementally).
    pub fn build(weights: &WeightKernel, kernel: &BitKernel, live: &BitDomains) -> Self {
        let count = kernel.constraint_count();
        let mut offs = Vec::with_capacity(2 * count + 1);
        let mut total = 0u32;
        for ci in 0..count {
            let bit = kernel.constraint(ci);
            offs.push(total);
            total += kernel.domain_size(bit.first()) as u32;
            offs.push(total);
            total += kernel.domain_size(bit.second()) as u32;
        }
        offs.push(total);
        let mut out = LiveRowMax {
            max: vec![f64::NEG_INFINITY; total as usize],
            arg: vec![u32::MAX; total as usize],
            offs,
            cmax: vec![f64::NEG_INFINITY; count],
        };
        for ci in 0..count {
            let bit = kernel.constraint(ci);
            let weight = weights.constraint(ci);
            for var_is_first in [true, false] {
                let (var, partner) = if var_is_first {
                    (bit.first(), bit.second())
                } else {
                    (bit.second(), bit.first())
                };
                for value in 0..kernel.domain_size(var) {
                    let (max, arg) =
                        weight.live_row_max(bit, var_is_first, value, live.words(partner));
                    let slot = out.slot(ci, var_is_first, value);
                    out.max[slot] = max;
                    out.arg[slot] = arg;
                }
            }
            out.cmax[ci] = out.recompute_cmax(ci, kernel, live);
        }
        out
    }

    /// Flat slot of the (constraint, side, value) entry — stable across
    /// mutations, so undo journals can address entries by slot.
    #[inline]
    pub fn slot(&self, ci: usize, var_is_first: bool, value: usize) -> usize {
        self.offs[2 * ci + usize::from(!var_is_first)] as usize + value
    }

    /// The (max, argmax) entry for `value` of the selected endpoint.
    #[inline]
    pub fn get(&self, ci: usize, var_is_first: bool, value: usize) -> (f64, u32) {
        self.get_slot(self.slot(ci, var_is_first, value))
    }

    /// The (max, argmax) entry at a flat slot.
    #[inline]
    pub fn get_slot(&self, slot: usize) -> (f64, u32) {
        (self.max[slot], self.arg[slot])
    }

    /// Overwrites the entry at `slot`, returning the previous (max,
    /// argmax) for the undo journal.
    #[inline]
    pub fn set_slot(&mut self, slot: usize, max: f64, arg: u32) -> (f64, u32) {
        let old = (self.max[slot], self.arg[slot]);
        self.max[slot] = max;
        self.arg[slot] = arg;
        old
    }

    /// The constraint's max weight over live allowed pairs.
    #[inline]
    pub fn cmax(&self, ci: usize) -> f64 {
        self.cmax[ci]
    }

    /// Overwrites a constraint's live-pair max, returning the previous
    /// value for the undo journal.
    #[inline]
    pub fn set_cmax(&mut self, ci: usize, value: f64) -> f64 {
        std::mem::replace(&mut self.cmax[ci], value)
    }

    /// Recomputes a constraint's live-pair max from its first-endpoint row
    /// maxima (a handful of reads; domains are small).
    pub fn recompute_cmax(&self, ci: usize, kernel: &BitKernel, live: &BitDomains) -> f64 {
        let bit = kernel.constraint(ci);
        let base = self.offs[2 * ci] as usize;
        let mut best = f64::NEG_INFINITY;
        live.for_each_live(bit.first(), |a| {
            let v = self.max[base + a];
            if v > best {
                best = v;
            }
        });
        best
    }
}

/// Word-packed live domains: one bit per (variable, value-index), the
/// working set every kernel-based solver prunes and restores.
#[derive(Debug, Clone)]
pub struct BitDomains {
    shape: Arc<DomainShape>,
    words: Vec<u64>,
}

impl BitDomains {
    /// The live-value words of `var`.
    pub fn words(&self, var: VarId) -> &[u64] {
        &self.words[self.shape.word_range(var.index())]
    }

    /// Number of live values of `var`.
    pub fn count(&self, var: VarId) -> usize {
        words::popcount(self.words(var)) as usize
    }

    /// Whether `var` has no live value left (a wipeout).
    pub fn is_empty(&self, var: VarId) -> bool {
        !words::any_set(self.words(var))
    }

    /// Whether value `index` of `var` is live.
    pub fn contains(&self, var: VarId, index: usize) -> bool {
        let words = self.words(var);
        index < self.shape.sizes[var.index()]
            && words[index / WORD_BITS] >> (index % WORD_BITS) & 1 == 1
    }

    /// Removes value `index` of `var`; returns whether it was live.
    pub fn remove(&mut self, var: VarId, index: usize) -> bool {
        let range = self.shape.word_range(var.index());
        let word = &mut self.words[range][index / WORD_BITS];
        let bit = 1u64 << (index % WORD_BITS);
        let was = *word & bit != 0;
        *word &= !bit;
        was
    }

    /// The live values of `var` in ascending index order.
    pub fn live_values(&self, var: VarId) -> Vec<usize> {
        set_bits(self.words(var))
    }

    /// Calls `f` for every live value of `var` in ascending index order.
    pub fn for_each_live(&self, var: VarId, f: impl FnMut(usize)) {
        for_each_set_bit(self.words(var), f);
    }

    /// Copies out the live-word snapshot of `var` (for save/restore around
    /// forward checking).
    pub fn save(&self, var: VarId) -> Vec<u64> {
        self.words(var).to_vec()
    }

    /// Restores a snapshot taken by [`BitDomains::save`].
    ///
    /// # Panics
    ///
    /// Panics when the snapshot width does not match the variable.
    pub fn restore(&mut self, var: VarId, saved: &[u64]) {
        let range = self.shape.word_range(var.index());
        self.words[range].copy_from_slice(saved);
    }

    /// How many live values of `var` the row `row` would remove
    /// (`live & !row`), without modifying anything.
    pub fn would_remove(&self, var: VarId, row: &[u64]) -> usize {
        words::andnot_popcount(self.words(var), row) as usize
    }

    /// Intersects the live values of `var` with `row` (`live &= row`);
    /// returns how many values were removed.
    pub fn intersect(&mut self, var: VarId, row: &[u64]) -> usize {
        let range = self.shape.word_range(var.index());
        words::and_assign_count(&mut self.words[range], row) as usize
    }

    /// Fused forward-check step: when `row` would prune `var`, snapshots
    /// the live words and intersects, touching the span once.  Returns
    /// `None` — and writes nothing — when the row removes no live value,
    /// so the no-op case (the common one) allocates nothing.
    pub fn intersect_with_save(&mut self, var: VarId, row: &[u64]) -> Option<(Vec<u64>, usize)> {
        let range = self.shape.word_range(var.index());
        let live = &mut self.words[range];
        if !words::andnot_any(live, row) {
            return None;
        }
        let saved = live.to_vec();
        let removed = words::and_assign_count(live, row) as usize;
        Some((saved, removed))
    }

    /// AC-3's allocation-free revise: prunes the live values of `x` that
    /// lost all support among the live values of `y` under `constraint`
    /// (see [`BitConstraint::revise_live`] for the block-major walk).
    /// Returns `(removed, bytes_touched)`.
    pub fn revise(
        &mut self,
        x: VarId,
        y: VarId,
        constraint: &BitConstraint,
        x_is_first: bool,
    ) -> (u64, u64) {
        let xr = self.shape.word_range(x.index());
        let yr = self.shape.word_range(y.index());
        debug_assert_ne!(xr.start, yr.start, "constraint endpoints are distinct");
        let (x_words, y_words) = if xr.start < yr.start {
            let (head, tail) = self.words.split_at_mut(yr.start);
            (&mut head[xr], &tail[..yr.end - yr.start])
        } else {
            let (head, tail) = self.words.split_at_mut(xr.start);
            (&mut tail[..xr.end - xr.start], &head[yr])
        };
        constraint.revise_live(x_is_first, x_words, y_words)
    }

    /// Whether `row` has at least one bit in common with the live values of
    /// `var` — the bitset form of "does this value still have support?".
    pub fn intersects(&self, var: VarId, row: &[u64]) -> bool {
        words::and_any(self.words(var), row)
    }

    /// Calls `f` for every live value of `var` that is also set in `row`,
    /// in ascending index order.
    pub fn for_each_common(&self, var: VarId, row: &[u64], mut f: impl FnMut(usize)) {
        for (wi, (&w, &r)) in self.words(var).iter().zip(row).enumerate() {
            let mut common = w & r;
            while common != 0 {
                let bit = common.trailing_zeros() as usize;
                f(wi * WORD_BITS + bit);
                common &= common - 1;
            }
        }
    }

    /// Popcount of `live(var) & row` — the number of live supports.
    pub fn intersection_count(&self, var: VarId, row: &[u64]) -> usize {
        words::and_popcount(self.words(var), row) as usize
    }

    /// Restricts `var` to the given value indices (everything else is
    /// removed; indices outside the current live set stay dead).
    pub fn restrict_to(&mut self, var: VarId, keep: &[usize]) {
        let range = self.shape.word_range(var.index());
        let words = &mut self.words[range];
        let mut mask = vec![0u64; words.len()];
        for &index in keep {
            mask[index / WORD_BITS] |= 1 << (index % WORD_BITS);
        }
        for (w, m) in words.iter_mut().zip(mask) {
            *w &= m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn constraint(pairs: &[(usize, usize)]) -> BinaryConstraint {
        BinaryConstraint::new(
            VarId::new(0),
            VarId::new(1),
            pairs.iter().copied().collect::<HashSet<_>>(),
        )
    }

    fn kernel_2x(sizes: (usize, usize), pairs: &[(usize, usize)]) -> BitKernel {
        BitKernel::build(
            vec![sizes.0, sizes.1],
            &[constraint(pairs)],
            &[vec![0], vec![0]],
        )
    }

    #[test]
    fn bit_constraint_matches_pairs_in_both_orientations() {
        let kernel = kernel_2x((3, 2), &[(0, 1), (1, 0), (2, 1)]);
        let c = kernel.constraint(0);
        assert!(c.allows(0, 1));
        assert!(!c.allows(0, 0));
        assert!(c.allows(2, 1));
        assert!(kernel.allows(0, VarId::new(0), 1, 0));
        assert!(kernel.allows(0, VarId::new(1), 0, 1));
        assert!(!kernel.allows(0, VarId::new(1), 1, 1));
        // Rows agree with the pair list.
        assert_eq!(set_bits(c.row(true, 0)), vec![1]);
        assert_eq!(set_bits(c.row(false, 1)), vec![0, 2]);
        // Full-domain support counts.
        assert_eq!(c.full_support(true, 0), 1);
        assert_eq!(c.full_support(false, 1), 2);
        assert_eq!(c.full_support(false, 0), 1);
    }

    #[test]
    fn full_domains_round_trip_and_prune() {
        let kernel = kernel_2x((70, 3), &[(0, 0)]);
        let mut live = kernel.full_domains();
        let a = VarId::new(0);
        assert_eq!(live.count(a), 70);
        assert!(live.contains(a, 69));
        assert!(!live.contains(a, 70));
        assert!(live.remove(a, 69));
        assert!(!live.remove(a, 69));
        assert_eq!(live.count(a), 69);
        let saved = live.save(a);
        live.restrict_to(a, &[1, 5, 64]);
        assert_eq!(live.live_values(a), vec![1, 5, 64]);
        live.restore(a, &saved);
        assert_eq!(live.count(a), 69);
    }

    #[test]
    fn intersect_counts_removals() {
        let kernel = kernel_2x((5, 5), &[(0, 0), (1, 1), (4, 4)]);
        let mut live = kernel.full_domains();
        let b = VarId::new(1);
        // Row of first=0 supports only second=0.
        let row: Vec<u64> = kernel.constraint(0).row(true, 0).to_vec();
        assert_eq!(live.would_remove(b, &row), 4);
        assert!(live.intersects(b, &row));
        assert_eq!(live.intersection_count(b, &row), 1);
        assert_eq!(live.intersect(b, &row), 4);
        assert_eq!(live.live_values(b), vec![0]);
        assert!(!live.is_empty(b));
        let empty_row = vec![0u64; row.len()];
        live.intersect(b, &empty_row);
        assert!(live.is_empty(b));
    }
}
