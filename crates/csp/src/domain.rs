//! Variable domains: the ordered set of values a variable may assume.

use crate::Value;
use std::collections::HashSet;
use std::fmt;

/// The domain of one constraint-network variable.
///
/// Values are stored in insertion order and addressed by dense indices; the
/// solvers work on indices and only materialize values when reporting a
/// solution.
///
/// # Examples
///
/// ```
/// use mlo_csp::Domain;
/// let d = Domain::new(vec!["row-major", "column-major", "diagonal"]);
/// assert_eq!(d.len(), 3);
/// assert_eq!(d.index_of(&"diagonal"), Some(2));
/// assert_eq!(d.value(1), &"column-major");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain<V> {
    values: Vec<V>,
}

impl<V: Value> Domain<V> {
    /// Creates a domain from a list of values; duplicates are removed while
    /// preserving first-occurrence order.
    ///
    /// Deduplication hashes references into the caller's vector (`O(n)`
    /// expected) and clones no value.  An already-unique list becomes the
    /// domain as it is, buffer included; otherwise the later copies are
    /// removed in place.
    pub fn new(mut values: Vec<V>) -> Self {
        let duplicates: Vec<usize> = {
            let mut seen = HashSet::with_capacity(values.len());
            (0..values.len())
                .filter(|&i| !seen.insert(&values[i]))
                .collect()
        };
        if !duplicates.is_empty() {
            let mut index = 0;
            let mut duplicates = duplicates.into_iter().peekable();
            values.retain(|_| {
                let keep = duplicates.next_if_eq(&index).is_none();
                index += 1;
                keep
            });
        }
        Domain { values }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the domain is empty (a trivially unsatisfiable variable).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values in order.
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// The value at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn value(&self, index: usize) -> &V {
        &self.values[index]
    }

    /// The value at `index`, or `None` when out of range.
    pub fn get(&self, index: usize) -> Option<&V> {
        self.values.get(index)
    }

    /// The index of a value, if present.
    pub fn index_of(&self, value: &V) -> Option<usize> {
        self.values.iter().position(|v| v == value)
    }

    /// Whether the domain contains a value.
    pub fn contains(&self, value: &V) -> bool {
        self.index_of(value).is_some()
    }

    /// Iterates over `(index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &V)> {
        self.values.iter().enumerate()
    }

    /// Adds a value if not already present and returns its index.
    pub fn insert(&mut self, value: V) -> usize {
        if let Some(i) = self.index_of(&value) {
            i
        } else {
            self.values.push(value);
            self.values.len() - 1
        }
    }
}

impl<V: Value> Default for Domain<V> {
    fn default() -> Self {
        Domain { values: Vec::new() }
    }
}

impl<V: Value> FromIterator<V> for Domain<V> {
    fn from_iter<T: IntoIterator<Item = V>>(iter: T) -> Self {
        Domain::new(iter.into_iter().collect())
    }
}

impl<V: Value + fmt::Display> fmt::Display for Domain<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference dedup for `Domain::new`: every value cloned into a
    /// `HashSet`, the survivors moved into a second vector.
    fn clone_into_set_dedup<V: Value>(values: Vec<V>) -> Vec<V> {
        let mut seen = HashSet::with_capacity(values.len());
        let mut unique = Vec::with_capacity(values.len());
        for v in values {
            if seen.insert(v.clone()) {
                unique.push(v);
            }
        }
        unique
    }

    #[test]
    fn construction_dedupes_preserving_order() {
        let d = Domain::new(vec![3, 1, 3, 2, 1]);
        assert_eq!(d.values(), &[3, 1, 2]);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn unique_values_keep_the_callers_buffer() {
        let values: Vec<String> = ["a", "b", "c"].map(String::from).to_vec();
        let (buffer, first) = (values.as_ptr(), values[0].as_ptr());
        let d = Domain::new(values);
        assert_eq!(d.values().as_ptr(), buffer, "no second vector");
        assert_eq!(d.value(0).as_ptr(), first, "no value was cloned");
        // With duplicates the survivors stay in the same buffer too.
        let values: Vec<String> = ["a", "b", "a", "c", "b"].map(String::from).to_vec();
        let buffer = values.as_ptr();
        let d = Domain::new(values);
        assert_eq!(d.values(), &["a", "b", "c"]);
        assert_eq!(d.values().as_ptr(), buffer);
    }

    proptest! {
        #[test]
        fn dedup_matches_the_clone_into_set_oracle(
            values in proptest::collection::vec(0u8..12, 0..40)
        ) {
            let expected = clone_into_set_dedup(values.clone());
            prop_assert_eq!(Domain::new(values).values(), expected.as_slice());
        }
    }

    #[test]
    fn large_domains_dedupe_in_linear_time() {
        // Regression test for the O(n²) `Vec::contains`-per-insert dedup: a
        // 10k-value domain (every value duplicated once) must build
        // essentially instantly.  The old quadratic path took ~100M
        // comparisons here; the hash-based one takes 20k inserts.
        let n = 10_000usize;
        let values: Vec<usize> = (0..n).chain(0..n).collect();
        let start = std::time::Instant::now();
        let d = Domain::new(values);
        assert_eq!(d.len(), n);
        assert_eq!(d.value(0), &0);
        assert_eq!(d.value(n - 1), &(n - 1));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "dedup took {:?} — quadratic regression?",
            start.elapsed()
        );
    }

    #[test]
    fn lookup() {
        let d = Domain::new(vec!["a", "b"]);
        assert_eq!(d.index_of(&"b"), Some(1));
        assert_eq!(d.index_of(&"c"), None);
        assert!(d.contains(&"a"));
        assert_eq!(d.value(0), &"a");
        assert_eq!(d.get(5), None);
        let pairs: Vec<(usize, &&str)> = d.iter().collect();
        assert_eq!(pairs, vec![(0, &"a"), (1, &"b")]);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut d = Domain::new(vec![1, 2]);
        assert_eq!(d.insert(2), 1);
        assert_eq!(d.insert(7), 2);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn display_and_collect() {
        let d: Domain<i32> = (1..4).collect();
        assert_eq!(d.to_string(), "{1, 2, 3}");
        assert!(Domain::<i32>::default().is_empty());
    }
}
