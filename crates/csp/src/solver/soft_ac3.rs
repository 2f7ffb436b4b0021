//! Soft AC-3: incumbent-driven weighted bound consistency on the dense
//! [`WeightKernel`].
//!
//! Exact weighted search lives or dies by its lower bound.  The classic
//! cost-based soft-arc-consistency move is to prune *values*, not just
//! nodes: delete value `v` from a live variable `x` whenever even the most
//! optimistic completion through `x = v` cannot strictly beat the
//! incumbent, and propagate those deletions to fixpoint with an AC-3-style
//! worklist (deleting a value lowers its neighbours' optimism, which can
//! delete more values).  [`SoftAc3`] implements that move on top of the
//! bit-rows and dense weight tables from the kernel layer, so each check is
//! a handful of word ops.
//!
//! ## The bound
//!
//! For a prefix of assignments with gained weight `W`, classify every
//! constraint by its endpoints: **open** (both unassigned), **half-open**
//! (exactly one assigned) or **closed** (both assigned; its exact weight is
//! already inside `W`).  The propagator maintains:
//!
//! * per-(constraint, side, value) **live-masked row maxima** (in a
//!   [`LiveRowMax`]): the best weight `value` can still collect from the
//!   constraint, over partners that are both allowed and live;
//! * per half-open constraint the **half max**: the best weight its
//!   assigned value can still collect over the live values of its
//!   unassigned endpoint;
//! * `pot[x][v]` = Σ over `x`'s open constraints of the row max of `v`,
//!   plus Σ over `x`'s half-open constraints of the *exact* weight
//!   `w(v, assigned partner value)`;
//! * `own[x]` = Σ over `x`'s open constraints of their live-pair max
//!   (`cmax`), plus Σ over `x`'s half-open constraints of their half max;
//! * `total` = Σ over open constraints of `cmax` + Σ over half-open
//!   constraints of their half max.
//!
//! Then `ub(x, v) = W + pot[x][v] + (total − own[x])` bounds every
//! completion that assigns `x = v`, and `W + total` bounds the node itself.
//! A value is deleted when `ub(x, v) <= local` or `ub(x, v) < shared`,
//! where `local` is the caller's own best (ties cannot improve it) and
//! `shared` is the cooperative incumbent (strict `<`, preserving the
//! scheduler's tie contract: anything *at* the shared bound is still
//! explored, so the canonical tie-break never depends on propagation
//! timing).
//!
//! ## Incremental maintenance
//!
//! Deleting a value only ever *lowers* aggregates.  A row max is rescanned
//! (one [`WeightConstraint::live_row_max`](crate::bitset::WeightConstraint::live_row_max)
//! over the bit-row)
//! only when the deletion kills its current argmax; `cmax`, half maxima,
//! `pot`, `own` and `total` absorb O(1) float deltas otherwise.  Every
//! mutation is recorded in an undo journal, so backtracking is an exact
//! reverse replay to a [`SoftMark`] — which is also how the work-stealing
//! scheduler rebuilds propagation state deterministically from a stolen
//! frame's trail (clone the root template, replay `assign` per trail entry,
//! propagate once).
//!
//! Assigning `x = value` additionally **forward-checks** every open
//! constraint of `x`: the unassigned partner's live set is intersected with
//! the bit-row of `value`, which removes only values that are hard-
//! incompatible with the assignment (never part of any completion of this
//! subtree) — so search below a propagated node needs no conflict probes.
//!
//! The float deltas are exact for integer-valued weight tables (all bench
//! and test instances); for general floats the deltas can drift within an
//! ulp of the rescanned value, which perturbs only *when* a subtree is cut,
//! never a reported weight — results remain bit-identical to the
//! unpropagated search either way because deletions are restricted to
//! completions that can't (locally) or can't strictly (shared) beat the
//! incumbent.

use crate::bitset::{BitDomains, BitKernel, LiveRowMax, WeightKernel};
use crate::network::VarId;
use crate::solver::SearchStats;
use std::collections::VecDeque;
use std::sync::Arc;

/// A position in the [`SoftAc3`] undo journal; [`SoftAc3::undo_to`] rewinds
/// every mutation made after the mark was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftMark {
    ops: usize,
    words: usize,
}

impl SoftMark {
    /// The committed baseline (what [`SoftAc3::undo_all`] rewinds to).
    pub const ROOT: SoftMark = SoftMark { ops: 0, words: 0 };
}

/// The propagator's only failure: the current subtree is dead — a domain
/// wiped out, or the node bound cannot beat the incumbent.  The caller's
/// move is always the same (count a pruning and rewind to its mark), so
/// the error carries no payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wipeout;

/// One journaled mutation (old values; undo is a reverse replay).
#[derive(Debug, Clone, Copy)]
enum Op {
    Assigned {
        var: u32,
    },
    /// `len` words for `var` sit at the tail of the saved-words stack.
    Words {
        var: u32,
        len: u32,
    },
    RowMax {
        slot: u32,
        max: f64,
        arg: u32,
    },
    Cmax {
        ci: u32,
        max: f64,
    },
    HalfMax {
        ci: u32,
        max: f64,
        arg: u32,
    },
    Pot {
        slot: u32,
        val: f64,
    },
    Own {
        var: u32,
        val: f64,
    },
    Total {
        val: f64,
    },
}

/// The weighted bound-consistency propagator (see the [module
/// docs](self)).
///
/// Cloning copies the whole working set; the searches clone one
/// root-propagated template per worker and then only journal/undo.
#[derive(Debug, Clone)]
pub struct SoftAc3 {
    kernel: Arc<BitKernel>,
    weights: Arc<WeightKernel>,
    /// Live domains under propagation (the searches keep their own static
    /// value lists and skip values dead here).
    domains: BitDomains,
    /// Live-masked row maxima + per-constraint live-pair maxima.
    agg: LiveRowMax,
    /// Per half-open constraint: best weight of its assigned value over
    /// the live values of its unassigned endpoint (+ argmax, `u32::MAX`
    /// when stale/closed — only meaningful while the constraint is
    /// half-open).
    half_max: Vec<f64>,
    half_arg: Vec<u32>,
    /// Flat per-(var, value) optimistic potential (`pot_off` indexes it).
    pot: Vec<f64>,
    pot_off: Vec<u32>,
    /// Per-variable share of `total` contributed by its own constraints.
    own: Vec<f64>,
    /// Optimistic completion weight of the current prefix (Σ open `cmax`
    /// + Σ half-open half maxima).
    total: f64,
    assigned: Vec<bool>,
    assigned_value: Vec<u32>,
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    journal: Vec<Op>,
    saved_words: Vec<u64>,
    /// Reusable live-value scratch for `revise` (no per-node allocation).
    scratch: Vec<usize>,
}

impl SoftAc3 {
    /// Builds the root working set over the full domains.  Call
    /// [`root_propagate`](Self::root_propagate) (then
    /// [`commit`](Self::commit)) before searching.
    pub fn new(kernel: &Arc<BitKernel>, weights: &Arc<WeightKernel>) -> Self {
        let domains = kernel.full_domains();
        let agg = LiveRowMax::build(weights, kernel, &domains);
        let vars = kernel.variable_count();
        let count = kernel.constraint_count();
        let mut pot_off = Vec::with_capacity(vars + 1);
        let mut flat = 0u32;
        for v in 0..vars {
            pot_off.push(flat);
            flat += kernel.domain_size(VarId::new(v)) as u32;
        }
        pot_off.push(flat);
        let mut pot = vec![f64::NEG_INFINITY; flat as usize];
        let mut own = vec![0.0f64; vars];
        let mut total = 0.0f64;
        for ci in 0..count {
            total += agg.cmax(ci);
        }
        for v in 0..vars {
            let var = VarId::new(v);
            for edge in kernel.edges(var) {
                own[v] += agg.cmax(edge.constraint);
            }
            for value in 0..kernel.domain_size(var) {
                if !domains.contains(var, value) {
                    continue;
                }
                let mut p = 0.0;
                for edge in kernel.edges(var) {
                    p += agg.get(edge.constraint, edge.var_is_first, value).0;
                }
                pot[pot_off[v] as usize + value] = p;
            }
        }
        SoftAc3 {
            kernel: Arc::clone(kernel),
            weights: Arc::clone(weights),
            domains,
            agg,
            half_max: vec![f64::NEG_INFINITY; count],
            half_arg: vec![u32::MAX; count],
            pot,
            pot_off,
            own,
            total,
            assigned: vec![false; vars],
            assigned_value: vec![u32::MAX; vars],
            queue: VecDeque::with_capacity(vars),
            in_queue: vec![false; vars],
            journal: Vec::with_capacity(256),
            saved_words: Vec::with_capacity(64),
            scratch: Vec::with_capacity(8),
        }
    }

    /// Runs the root fixpoint with no incumbent: only values with *no*
    /// completion at all (`−inf` potential — hard arc inconsistency) are
    /// deleted, which establishes the invariant that every live value has a
    /// finite potential.  `Err` means the network is arc-inconsistent (no
    /// solution).
    pub fn root_propagate(&mut self, stats: &mut SearchStats) -> Result<(), Wipeout> {
        self.propagate(0.0, f64::NEG_INFINITY, f64::NEG_INFINITY, stats)
    }

    /// Freezes the current state as the committed baseline
    /// ([`SoftMark::ROOT`]): the journal is cleared, so
    /// [`undo_all`](Self::undo_all) rewinds exactly here.
    pub fn commit(&mut self) {
        self.journal.clear();
        self.saved_words.clear();
    }

    /// The current journal position.
    #[inline]
    pub fn mark(&self) -> SoftMark {
        SoftMark {
            ops: self.journal.len(),
            words: self.saved_words.len(),
        }
    }

    /// Rewinds every mutation made after `mark` was taken.
    pub fn undo_to(&mut self, mark: SoftMark) {
        while self.journal.len() > mark.ops {
            match self.journal.pop().expect("journal underflow") {
                Op::Assigned { var } => self.assigned[var as usize] = false,
                Op::Words { var, len } => {
                    let start = self.saved_words.len() - len as usize;
                    self.domains
                        .restore(VarId::new(var as usize), &self.saved_words[start..]);
                    self.saved_words.truncate(start);
                }
                Op::RowMax { slot, max, arg } => {
                    self.agg.set_slot(slot as usize, max, arg);
                }
                Op::Cmax { ci, max } => {
                    self.agg.set_cmax(ci as usize, max);
                }
                Op::HalfMax { ci, max, arg } => {
                    self.half_max[ci as usize] = max;
                    self.half_arg[ci as usize] = arg;
                }
                Op::Pot { slot, val } => self.pot[slot as usize] = val,
                Op::Own { var, val } => self.own[var as usize] = val,
                Op::Total { val } => self.total = val,
            }
        }
        debug_assert_eq!(self.saved_words.len(), mark.words);
    }

    /// Rewinds to the committed baseline (frame cleanup in the stealing
    /// scheduler).
    pub fn undo_all(&mut self) {
        self.undo_to(SoftMark::ROOT);
    }

    /// Whether `value` of `var` is still live under propagation.
    #[inline]
    pub fn is_live(&self, var: VarId, value: usize) -> bool {
        self.domains.contains(var, value)
    }

    /// The optimistic completion weight of the current prefix (`W + total`
    /// bounds the node).
    #[inline]
    pub fn optimistic_total(&self) -> f64 {
        self.total
    }

    #[inline]
    fn pot_slot(&self, var: usize, value: usize) -> usize {
        self.pot_off[var] as usize + value
    }

    #[inline]
    fn node_pruned(&self, prefix: f64, local: f64, shared: f64) -> bool {
        let ub = prefix + self.total;
        ub <= local || ub < shared
    }

    /// Records `var := value` (a live value): reclassifies its constraints
    /// (open → half-open, half-open → closed), forward-checks every open
    /// constraint (removals are hard-incompatible values, never part of any
    /// completion of this subtree) and updates the aggregates.  `Err` means
    /// a partner domain wiped out — the subtree is empty.  All mutations
    /// land in the journal; the caller rewinds with a pre-assign
    /// [`SoftMark`].
    pub fn assign(&mut self, var: VarId, value: usize) -> Result<(), Wipeout> {
        debug_assert!(self.domains.contains(var, value));
        let x = var.index();
        self.journal.push(Op::Assigned { var: x as u32 });
        self.assigned[x] = true;
        self.assigned_value[x] = value as u32;
        let edge_count = self.kernel.edges(var).len();
        for ei in 0..edge_count {
            let edge = self.kernel.edges(var)[ei];
            let ci = edge.constraint;
            let y = edge.other;
            if self.assigned[y.index()] {
                // Half-open (x was the unassigned endpoint) → closed: the
                // realized pair weight is the caller's `gained`; drop the
                // optimistic half from `total`.  `own[x]` is left as-is —
                // it is only read while `x` is unassigned, and not
                // journaling it makes undo restore the then-correct value
                // for free.
                self.journal.push(Op::Total { val: self.total });
                self.total -= self.half_max[ci];
                continue;
            }
            // Open → half-open.
            let yw = self.domains.words(y);
            let row = self.kernel.constraint(ci).row(edge.var_is_first, value);
            let changed = crate::words::andnot_any(yw, row);
            if changed {
                let len = yw.len() as u32;
                self.saved_words.extend_from_slice(yw);
                self.journal.push(Op::Words {
                    var: y.index() as u32,
                    len,
                });
                self.domains.intersect(y, row);
                if self.domains.is_empty(y) {
                    return Err(Wipeout);
                }
            }
            // Swap the constraint's open contribution (cmax) for the half
            // max of the just-assigned value over the forward-checked live
            // partner set.
            let (half, half_arg) = self.weights.constraint(ci).live_row_max(
                self.kernel.constraint(ci),
                edge.var_is_first,
                value,
                self.domains.words(y),
            );
            self.journal.push(Op::HalfMax {
                ci: ci as u32,
                max: self.half_max[ci],
                arg: self.half_arg[ci],
            });
            self.half_max[ci] = half;
            self.half_arg[ci] = half_arg;
            let delta = half - self.agg.cmax(ci);
            if delta != 0.0 {
                self.journal.push(Op::Total { val: self.total });
                self.total += delta;
                self.journal.push(Op::Own {
                    var: y.index() as u32,
                    val: self.own[y.index()],
                });
                self.own[y.index()] += delta;
            }
            // The partner's potentials tighten from "best over x's live
            // values" to the exact weight against `value`.
            let y_side = !edge.var_is_first;
            for w in 0..self.kernel.domain_size(y) {
                if !self.domains.contains(y, w) {
                    continue;
                }
                let entry = self.agg.get(ci, y_side, w).0;
                let exact = self.weights.constraint(ci).oriented(y_side, w, value);
                if exact != entry {
                    let slot = self.pot_slot(y.index(), w);
                    self.journal.push(Op::Pot {
                        slot: slot as u32,
                        val: self.pot[slot],
                    });
                    self.pot[slot] += exact - entry;
                }
            }
            // Aggregate fallout of the forward-check removals (their pot /
            // row-max / cmax effects on y's *other* constraints).
            if changed {
                let len = self.domains.words(y).len();
                let start = self.saved_words.len() - len;
                for wi in 0..len {
                    let mut gone = self.saved_words[start + wi] & !self.domains.words(y)[wi];
                    while gone != 0 {
                        let u = wi * 64 + gone.trailing_zeros() as usize;
                        gone &= gone - 1;
                        self.on_removed(y, u);
                    }
                }
            }
        }
        Ok(())
    }

    /// Propagates to fixpoint under the current thresholds: seeds every
    /// unassigned variable (which also folds in any incumbent improvement
    /// since the last call — `shared` is re-read per node) and revises
    /// until quiescent.  `Err` means the node is pruned: its optimistic
    /// bound cannot beat the incumbent, or a domain wiped out.  The caller
    /// rewinds with a pre-call [`SoftMark`].
    pub fn propagate(
        &mut self,
        prefix: f64,
        local: f64,
        shared: f64,
        stats: &mut SearchStats,
    ) -> Result<(), Wipeout> {
        if self.node_pruned(prefix, local, shared) {
            return Err(Wipeout);
        }
        self.queue.clear();
        for flag in self.in_queue.iter_mut() {
            *flag = false;
        }
        for x in 0..self.assigned.len() {
            if !self.assigned[x] {
                self.queue.push_back(x as u32);
                self.in_queue[x] = true;
            }
        }
        while let Some(x) = self.queue.pop_front() {
            let x = x as usize;
            self.in_queue[x] = false;
            self.revise(x, prefix, local, shared, stats)?;
        }
        if self.node_pruned(prefix, local, shared) {
            return Err(Wipeout);
        }
        Ok(())
    }

    /// Deletes every value of `x` whose optimistic completion cannot beat
    /// the incumbent; `Err` on wipeout (the node is pruned).
    fn revise(
        &mut self,
        x: usize,
        prefix: f64,
        local: f64,
        shared: f64,
        stats: &mut SearchStats,
    ) -> Result<(), Wipeout> {
        crate::fail_point!("soft_ac3.revise");
        stats.soft_revisions += 1;
        let var = VarId::new(x);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        self.domains.for_each_live(var, |v| scratch.push(v));
        let mut outcome = Ok(());
        for &v in &scratch {
            // Aggregates shift as values die; re-read everything per value
            // (deletions can only tighten, so a pass stays sound).
            if !self.domains.contains(var, v) {
                continue;
            }
            let ub = prefix + self.pot[self.pot_slot(x, v)] + (self.total - self.own[x]);
            if ub <= local || ub < shared {
                stats.bound_deletions += 1;
                self.saved_words.extend_from_slice(self.domains.words(var));
                self.journal.push(Op::Words {
                    var: x as u32,
                    len: self.domains.words(var).len() as u32,
                });
                self.domains.remove(var, v);
                if self.domains.is_empty(var) {
                    outcome = Err(Wipeout);
                    break;
                }
                self.on_removed(var, v);
            }
        }
        self.scratch = scratch;
        outcome
    }

    /// Propagates the aggregate fallout of value `u` of `y` having been
    /// removed (bit already cleared and journaled): row maxima whose argmax
    /// died are rescanned, `cmax`/half maxima/`pot`/`own`/`total` absorb
    /// the deltas, and variables whose optimism dropped are re-enqueued.
    fn on_removed(&mut self, y: VarId, u: usize) {
        let edge_count = self.kernel.edges(y).len();
        for ei in 0..edge_count {
            let edge = self.kernel.edges(y)[ei];
            let ci = edge.constraint;
            let z = edge.other;
            if self.assigned[z.index()] {
                // Half-open with `y` the unassigned endpoint: refresh the
                // half max if its argmax died.  `total` and `own[y]` drop
                // together, so `y`'s own bound is unchanged — but every
                // *other* variable tightens via `total`.
                if self.half_arg[ci] == u as u32 {
                    let zv = self.assigned_value[z.index()] as usize;
                    let (half, half_arg) = self.weights.constraint(ci).live_row_max(
                        self.kernel.constraint(ci),
                        !edge.var_is_first,
                        zv,
                        self.domains.words(y),
                    );
                    let delta = half - self.half_max[ci];
                    self.journal.push(Op::HalfMax {
                        ci: ci as u32,
                        max: self.half_max[ci],
                        arg: self.half_arg[ci],
                    });
                    self.half_max[ci] = half;
                    self.half_arg[ci] = half_arg;
                    if delta != 0.0 {
                        self.journal.push(Op::Total { val: self.total });
                        self.total += delta;
                        self.journal.push(Op::Own {
                            var: y.index() as u32,
                            val: self.own[y.index()],
                        });
                        self.own[y.index()] += delta;
                        self.touch_all();
                    }
                }
                continue;
            }
            // Open: rescan the partner-side row maxima whose argmax was
            // `u`, then refresh the constraint's live-pair max.
            let z_side = !edge.var_is_first;
            let mut z_touched = false;
            for w in 0..self.kernel.domain_size(z) {
                if !self.domains.contains(z, w) {
                    continue;
                }
                let slot = self.agg.slot(ci, z_side, w);
                let (old_max, old_arg) = self.agg.get_slot(slot);
                if old_arg != u as u32 {
                    continue;
                }
                let (new_max, new_arg) = self.weights.constraint(ci).live_row_max(
                    self.kernel.constraint(ci),
                    z_side,
                    w,
                    self.domains.words(y),
                );
                self.journal.push(Op::RowMax {
                    slot: slot as u32,
                    max: old_max,
                    arg: old_arg,
                });
                self.agg.set_slot(slot, new_max, new_arg);
                let pot_slot = self.pot_slot(z.index(), w);
                self.journal.push(Op::Pot {
                    slot: pot_slot as u32,
                    val: self.pot[pot_slot],
                });
                self.pot[pot_slot] += new_max - old_max;
                z_touched = true;
            }
            let old_cmax = self.agg.cmax(ci);
            let new_cmax = self.agg.recompute_cmax(ci, &self.kernel, &self.domains);
            if new_cmax != old_cmax {
                self.journal.push(Op::Cmax {
                    ci: ci as u32,
                    max: old_cmax,
                });
                self.agg.set_cmax(ci, new_cmax);
                let delta = new_cmax - old_cmax;
                self.journal.push(Op::Total { val: self.total });
                self.total += delta;
                for end in [y, z] {
                    self.journal.push(Op::Own {
                        var: end.index() as u32,
                        val: self.own[end.index()],
                    });
                    self.own[end.index()] += delta;
                }
                self.touch_all();
            } else if z_touched {
                self.touch(z.index());
            }
        }
    }

    /// Re-enqueues an unassigned variable whose bound may have tightened.
    #[inline]
    fn touch(&mut self, x: usize) {
        if !self.assigned[x] && !self.in_queue[x] {
            self.in_queue[x] = true;
            self.queue.push_back(x as u32);
        }
    }

    /// Re-enqueues every unassigned variable (`total` dropped, which
    /// tightens everyone's bound).
    fn touch_all(&mut self) {
        for x in 0..self.assigned.len() {
            if !self.assigned[x] && !self.in_queue[x] {
                self.in_queue[x] = true;
                self.queue.push_back(x as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{planted_weighted_network, RandomNetworkSpec};
    use crate::solver::SearchStats;

    fn spec(variables: usize, seed: u64) -> RandomNetworkSpec {
        RandomNetworkSpec {
            variables,
            domain_size: 4,
            density: 0.5,
            tightness: 0.2,
            seed,
        }
    }

    fn build(variables: usize, seed: u64) -> SoftAc3 {
        let (weighted, _) = planted_weighted_network(&spec(variables, seed), 4.0, 8);
        SoftAc3::new(weighted.network().kernel(), weighted.weight_kernel())
    }

    /// `total`, `own` and `pot` recomputed from scratch after arbitrary
    /// assign/undo churn must match the incrementally maintained values.
    fn check_invariants(soft: &SoftAc3) {
        let kernel = &soft.kernel;
        let weights = &soft.weights;
        let fresh = LiveRowMax::build(weights, kernel, &soft.domains);
        let mut total = 0.0;
        let mut own = vec![0.0f64; kernel.variable_count()];
        for ci in 0..kernel.constraint_count() {
            let bit = kernel.constraint(ci);
            let (a, b) = (bit.first(), bit.second());
            let open = !soft.assigned[a.index()] && !soft.assigned[b.index()];
            let closed = soft.assigned[a.index()] && soft.assigned[b.index()];
            if open {
                total += fresh.cmax(ci);
                own[a.index()] += fresh.cmax(ci);
                own[b.index()] += fresh.cmax(ci);
                assert_eq!(
                    soft.agg.cmax(ci).to_bits(),
                    fresh.cmax(ci).to_bits(),
                    "cmax {ci}"
                );
            } else if !closed {
                let (assigned, free, assigned_is_first) = if soft.assigned[a.index()] {
                    (a, b, true)
                } else {
                    (b, a, false)
                };
                let value = soft.assigned_value[assigned.index()] as usize;
                let (half, _) = weights.constraint(ci).live_row_max(
                    bit,
                    assigned_is_first,
                    value,
                    soft.domains.words(free),
                );
                total += half;
                own[free.index()] += half;
                assert_eq!(soft.half_max[ci].to_bits(), half.to_bits(), "half {ci}");
            }
        }
        assert_eq!(soft.total.to_bits(), total.to_bits(), "total");
        for (v, expected_own) in own.iter().enumerate() {
            if soft.assigned[v] {
                continue;
            }
            assert_eq!(soft.own[v].to_bits(), expected_own.to_bits(), "own {v}");
            let var = VarId::new(v);
            for value in 0..kernel.domain_size(var) {
                if !soft.domains.contains(var, value) {
                    continue;
                }
                let mut p = 0.0;
                for edge in kernel.edges(var) {
                    let other = edge.other;
                    if soft.assigned[other.index()] {
                        p += weights.constraint(edge.constraint).oriented(
                            edge.var_is_first,
                            value,
                            soft.assigned_value[other.index()] as usize,
                        );
                    } else {
                        p += fresh.get(edge.constraint, edge.var_is_first, value).0;
                    }
                }
                assert_eq!(
                    soft.pot[soft.pot_slot(v, value)].to_bits(),
                    p.to_bits(),
                    "pot {v}={value}"
                );
            }
        }
    }

    #[test]
    fn root_build_matches_scratch_recomputation() {
        for seed in 0..6 {
            let mut soft = build(8, seed);
            let mut stats = SearchStats::default();
            soft.root_propagate(&mut stats)
                .expect("planted instances are arc-consistent");
            soft.commit();
            check_invariants(&soft);
        }
    }

    #[test]
    fn assign_then_undo_restores_everything_exactly() {
        for seed in 0..6 {
            let mut soft = build(9, seed);
            let mut stats = SearchStats::default();
            soft.root_propagate(&mut stats).expect("arc-consistent");
            soft.commit();
            let snapshot = soft.clone();
            // Walk a few assignment prefixes, checking invariants at each
            // depth, then rewind and compare against the snapshot.
            let mut marks = Vec::new();
            for (x, value) in [(0usize, 0usize), (3, 1), (5, 2)] {
                let var = VarId::new(x);
                let Some(&value) = soft
                    .domains
                    .live_values(var)
                    .iter()
                    .find(|&&v| v >= value)
                    .or(soft.domains.live_values(var).first())
                else {
                    continue;
                };
                marks.push(soft.mark());
                if soft.assign(var, value).is_err()
                    || soft
                        .propagate(0.0, f64::NEG_INFINITY, 40.0, &mut stats)
                        .is_err()
                {
                    soft.undo_to(marks.pop().expect("pushed above"));
                    continue;
                }
                check_invariants(&soft);
            }
            while let Some(mark) = marks.pop() {
                soft.undo_to(mark);
            }
            assert_eq!(soft.total.to_bits(), snapshot.total.to_bits());
            assert_eq!(soft.pot.len(), snapshot.pot.len());
            for (a, b) in soft.pot.iter().zip(&snapshot.pot) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in soft.own.iter().zip(&snapshot.own) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for v in 0..soft.assigned.len() {
                let var = VarId::new(v);
                assert_eq!(
                    soft.domains.live_values(var),
                    snapshot.domains.live_values(var)
                );
            }
            assert!(soft.journal.is_empty());
            assert!(soft.saved_words.is_empty());
        }
    }

    #[test]
    fn incumbent_threshold_deletes_and_counts() {
        let mut soft = build(8, 11);
        let mut stats = SearchStats::default();
        soft.root_propagate(&mut stats).expect("arc-consistent");
        soft.commit();
        let live_before: usize = (0..soft.assigned.len())
            .map(|v| soft.domains.count(VarId::new(v)))
            .sum();
        // An unbeatable incumbent prunes the root node outright...
        assert!(soft
            .propagate(0.0, f64::INFINITY, f64::NEG_INFINITY, &mut stats)
            .is_err());
        soft.undo_all();
        // ...and a shared incumbent just below the root bound forces
        // value deletions without (necessarily) pruning the node.
        let tight = soft.total - 0.5;
        let mut stats = SearchStats::default();
        let outcome = soft.propagate(0.0, f64::NEG_INFINITY, tight, &mut stats);
        assert!(stats.soft_revisions > 0, "fixpoint revised something");
        if outcome.is_ok() {
            let live_after: usize = (0..soft.assigned.len())
                .map(|v| soft.domains.count(VarId::new(v)))
                .sum();
            assert!(stats.bound_deletions > 0);
            assert!(live_after < live_before);
        }
        soft.undo_all();
        let live_restored: usize = (0..soft.assigned.len())
            .map(|v| soft.domains.count(VarId::new(v)))
            .sum();
        assert_eq!(live_restored, live_before);
    }

    #[test]
    #[cfg(feature = "failpoints")]
    fn revise_fail_point_panics_are_injected() {
        let plan =
            crate::fault::FaultPlan::parse("soft_ac3.revise=panic@times=1").expect("valid plan");
        let _guard = crate::fault::scoped(plan);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut soft = build(6, 3);
            let mut stats = SearchStats::default();
            let _ = soft.root_propagate(&mut stats);
        }));
        assert!(caught.is_err(), "armed fail point fires inside revise");
    }

    #[test]
    fn revise_fail_point_delay_plan_completes() {
        let plan =
            crate::fault::FaultPlan::parse("soft_ac3.revise=delay(1)@times=2").expect("valid plan");
        let _guard = crate::fault::scoped(plan);
        let mut soft = build(6, 4);
        let mut stats = SearchStats::default();
        soft.root_propagate(&mut stats).expect("arc-consistent");
        assert!(stats.soft_revisions >= 2);
    }
}
