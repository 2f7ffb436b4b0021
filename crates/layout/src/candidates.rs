//! Enumerating the candidate layouts of every array (the domains `M_i`).

use crate::analysis::ProgramAnalysis;
use crate::constraints::Contribution;
use crate::hyperplane::Layout;
use mlo_ir::{ArrayId, Program};
use std::sync::Arc;

/// Options controlling candidate enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CandidateOptions {
    /// Always include the canonical row-major and column-major layouts.
    pub include_canonical: bool,
    /// For two-dimensional arrays, also include the diagonal and
    /// anti-diagonal layouts even when no access pattern asks for them.
    pub include_diagonals: bool,
    /// Cap on the number of loop permutations considered per nest (the
    /// identity is always considered).  Keeps factorially deep nests cheap.
    pub max_transforms_per_nest: usize,
}

impl Default for CandidateOptions {
    fn default() -> Self {
        CandidateOptions {
            include_canonical: true,
            include_diagonals: false,
            max_transforms_per_nest: 8,
        }
    }
}

/// The candidate layouts of every array of one program, enumerated once and
/// reusable across many network builds, with the per-(nest, loop order)
/// preferences they were read from (the network's [`Contribution`]s).
///
/// Sessions (`mlo-core`) enumerate once per program and then build networks
/// from the borrowed set.  Every table lives behind shared `Arc` storage, so
/// cloning a set (e.g. out of a session cache) never copies a layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSet {
    options: CandidateOptions,
    per_array: Arc<Vec<Vec<Layout>>>,
    pub(crate) contributions: Arc<Vec<Contribution>>,
    /// The domain index of every contribution's preferences, in order.
    pub(crate) value_indices: Arc<Vec<usize>>,
}

impl CandidateSet {
    /// Enumerates the candidate layouts of every array of `program`.
    pub fn enumerate(program: &Program, options: &CandidateOptions) -> Self {
        Self::from_analysis(program, &mut ProgramAnalysis::new(program), options)
    }

    /// Enumerates from the analysis of `program`: every layout a nest
    /// prefers under one of its first `max_transforms_per_nest` orders, in
    /// order, then the canonical additions.  Domains hold interned layout
    /// indices until the end, so deduplication compares integers.
    pub(crate) fn from_analysis(
        program: &Program,
        analysis: &mut ProgramAnalysis,
        options: &CandidateOptions,
    ) -> Self {
        let mut per_array: Vec<Vec<usize>> = vec![Vec::new(); program.arrays().len()];
        let mut contributions = Vec::new();
        let mut value_indices = Vec::new();
        for nest in program.nests() {
            let nest_analysis = analysis.nest(nest.id());
            let orders = nest_analysis.order_count();
            for order in 0..orders.min(options.max_transforms_per_nest.max(1)) {
                let preferred = analysis.preferred(nest.id(), order);
                let mut preferences = Vec::with_capacity(preferred.len());
                for (&array, &layout) in nest_analysis.arrays().iter().zip(preferred) {
                    let Some(layout) = layout else {
                        continue;
                    };
                    value_indices.push(index_or_push(&mut per_array[array.index()], layout));
                    preferences.push((array, analysis.layout(layout).clone()));
                }
                if !preferences.is_empty() {
                    contributions.push(Contribution {
                        nest: nest.id(),
                        order,
                        preferences,
                    });
                }
            }
        }
        // The interned canonical additions of each rank met so far.
        let mut additions: Vec<(usize, Vec<usize>)> = Vec::new();
        for (array, layouts) in program.arrays().iter().zip(&mut per_array) {
            let rank = array.rank();
            let known = additions.iter().position(|(known, _)| *known == rank);
            let added = known.unwrap_or_else(|| {
                let mut added = Vec::new();
                if options.include_canonical && rank >= 1 {
                    added.extend([Layout::row_major(rank), Layout::column_major(rank)]);
                }
                if options.include_diagonals && rank == 2 {
                    added.extend([Layout::diagonal(), Layout::anti_diagonal()]);
                }
                let added = added.into_iter().map(|l| analysis.intern(l)).collect();
                additions.push((rank, added));
                additions.len() - 1
            });
            for &layout in &additions[added].1 {
                index_or_push(layouts, layout);
            }
            if layouts.is_empty() && rank >= 1 {
                layouts.push(analysis.intern(Layout::row_major(rank)));
            }
        }
        let per_array = per_array
            .iter()
            .map(|layouts| {
                layouts
                    .iter()
                    .map(|&layout| analysis.layout(layout).clone())
                    .collect()
            })
            .collect();
        CandidateSet {
            options: *options,
            per_array: Arc::new(per_array),
            contributions: Arc::new(contributions),
            value_indices: Arc::new(value_indices),
        }
    }

    /// Whether `self` and `other` share the per-array candidate storage
    /// (clones do; independently enumerated sets do not).
    pub fn shares_storage(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.per_array, &other.per_array)
    }

    /// The options the set was enumerated with.
    pub fn options(&self) -> &CandidateOptions {
        &self.options
    }

    /// The candidate layouts of one array (empty for unknown arrays).
    pub fn of(&self, array: ArrayId) -> &[Layout] {
        self.per_array
            .get(array.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of arrays covered.
    pub fn len(&self) -> usize {
        self.per_array.len()
    }

    /// Whether the set covers no arrays.
    pub fn is_empty(&self) -> bool {
        self.per_array.is_empty()
    }

    /// The paper's Table 1 "Domain Size" over the cached set.
    pub fn total_domain_size(&self) -> usize {
        self.per_array.iter().map(Vec::len).sum()
    }
}

/// The position of interned `layout` in a domain, appending it first when
/// absent.
fn index_or_push(layouts: &mut Vec<usize>, layout: usize) -> usize {
    layouts
        .iter()
        .position(|&l| l == layout)
        .unwrap_or_else(|| {
            layouts.push(layout);
            layouts.len() - 1
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlo_ir::{AccessBuilder, ProgramBuilder};

    fn figure2_program() -> Program {
        let n = 32;
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
        b.build()
    }

    #[test]
    fn figure2_candidates_contain_derived_and_canonical_layouts() {
        let p = figure2_program();
        let set = CandidateSet::enumerate(&p, &CandidateOptions::default());
        let q1 = set.of(ArrayId::new(0));
        // Derived: diagonal (original order) and column-major (interchange);
        // canonical additions: row-major (column-major already present).
        assert!(q1.contains(&Layout::diagonal()));
        assert!(q1.contains(&Layout::column_major(2)));
        assert!(q1.contains(&Layout::row_major(2)));
        assert_eq!(q1.len(), 3);
        let q2 = set.of(ArrayId::new(1));
        assert!(q2.contains(&Layout::column_major(2)));
        assert!(q2.contains(&Layout::diagonal()));
        assert!(q2.contains(&Layout::row_major(2)));
        // Derived layouts come before canonical ones.
        assert_eq!(q1[0], Layout::diagonal());
    }

    #[test]
    fn diagonal_option_extends_domains() {
        let p = figure2_program();
        let opts = CandidateOptions {
            include_diagonals: true,
            ..CandidateOptions::default()
        };
        let set = CandidateSet::enumerate(&p, &opts);
        let q1 = set.of(ArrayId::new(0));
        assert!(q1.contains(&Layout::anti_diagonal()));
        assert_eq!(set.total_domain_size(), q1.len() * 2);
    }

    #[test]
    fn arrays_without_references_get_a_default() {
        let mut b = ProgramBuilder::new("lonely");
        let _unused = b.array("U", vec![16, 16], 4);
        let p = b.build();
        let set = CandidateSet::enumerate(&p, &CandidateOptions::default());
        let c = set.of(ArrayId::new(0));
        assert!(!c.is_empty());
        assert!(c.contains(&Layout::row_major(2)));
        // Unknown arrays produce an empty candidate list.
        assert!(set.of(ArrayId::new(9)).is_empty());
    }

    #[test]
    fn one_dimensional_arrays_have_single_candidate() {
        let mut b = ProgramBuilder::new("vec");
        let v = b.array("V", vec![128], 4);
        b.nest("scan", vec![("i", 0, 128)], |n| {
            n.read(v, AccessBuilder::new(1, 1).row(0, [1]).build());
        });
        let p = b.build();
        let set = CandidateSet::enumerate(&p, &CandidateOptions::default());
        let c = set.of(v);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0], Layout::row_major(1));
    }

    #[test]
    fn contributions_index_their_preferences_into_the_domains() {
        let p = figure2_program();
        let set = CandidateSet::enumerate(&p, &CandidateOptions::default());
        // Identity and interchange both prefer a layout for both arrays.
        assert_eq!(set.contributions.len(), 2);
        assert_eq!(set.value_indices.len(), 4);
        let preferences = set.contributions.iter().flat_map(|c| &c.preferences);
        for ((array, layout), &index) in preferences.zip(set.value_indices.iter()) {
            assert_eq!(&set.of(*array)[index], layout);
        }
        // A cap of one order keeps the identity's preferences only.
        let capped = CandidateSet::enumerate(
            &p,
            &CandidateOptions {
                max_transforms_per_nest: 1,
                include_canonical: false,
                ..CandidateOptions::default()
            },
        );
        assert_eq!(capped.contributions.len(), 1);
        assert_eq!(capped.contributions[0].order, 0);
        assert_eq!(capped.of(ArrayId::new(0)), &[Layout::diagonal()]);
    }

    #[test]
    fn canonical_layouts_can_be_disabled() {
        let p = figure2_program();
        let opts = CandidateOptions {
            include_canonical: false,
            ..CandidateOptions::default()
        };
        let set = CandidateSet::enumerate(&p, &opts);
        // Only the derived layouts remain.
        assert_eq!(set.of(ArrayId::new(0)).len(), 2);
    }
}
