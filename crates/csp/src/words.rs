//! The word loops behind every bit-kernel hot path.
//!
//! AC-3 revisions, forward checking, enumeration, weighted branch and
//! bound, soft AC-3 and the work-stealing workers all bottom out in a
//! handful of reductions over `u64` slices: AND-test, AND-popcount,
//! ANDNOT-popcount, AND-assign with a removal count, and a masked row
//! maximum.  Each walks one word at a time.  The two-operand loops read the
//! common prefix of their operands and ignore the longer one's tail.
//!
//! Domain spans and bit-matrix rows are `words_for(bits).max(1)` words
//! long (see [`crate::bitset`]), so the paper's programs, with a few
//! candidate layouts per array, run these loops over one word.

/// Whether any word of `a & b` is nonzero.
#[inline]
pub(crate) fn and_any(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// Whether any word of `a` is nonzero.
#[inline]
pub(crate) fn any_set(a: &[u64]) -> bool {
    a.iter().any(|&x| x != 0)
}

/// Total popcount of `a`.
#[inline]
pub(crate) fn popcount(a: &[u64]) -> u64 {
    a.iter().map(|&x| u64::from(x.count_ones())).sum()
}

/// Popcount of `a & b`.
#[inline]
pub(crate) fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x & y).count_ones()))
        .sum()
}

/// Whether any word of `a & !b` is nonzero (an `a &= b` would remove
/// something).
#[inline]
pub(crate) fn andnot_any(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & !y != 0)
}

/// Popcount of `a & !b` (how many bits an `a &= b` would remove).
#[inline]
pub(crate) fn andnot_popcount(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x & !y).count_ones()))
        .sum()
}

/// `dst &= src` word-wise; returns how many bits were cleared.
#[inline]
pub(crate) fn and_assign_count(dst: &mut [u64], src: &[u64]) -> u64 {
    let mut removed = 0u64;
    for (d, s) in dst.iter_mut().zip(src) {
        let before = *d;
        *d &= s;
        removed += u64::from((before ^ *d).count_ones());
    }
    removed
}

/// Max of `row[i]` over the set bits of `a & b`, with the first index
/// attaining it.  Empty mask (or a mask of NaN/`-inf`-only entries)
/// returns `(f64::NEG_INFINITY, u32::MAX)`.  Ties keep the lowest index
/// (strict `>` update) and NaN entries are never selected, so the result is
/// deterministic for any row contents.  Bits at or past `row.len()` are
/// ignored.
#[inline]
pub(crate) fn masked_row_max(row: &[f64], a: &[u64], b: &[u64]) -> (f64, u32) {
    let mut best = f64::NEG_INFINITY;
    let mut arg = u32::MAX;
    for (wi, (x, y)) in a.iter().zip(b).enumerate() {
        let mut m = x & y;
        while m != 0 {
            let i = wi * 64 + m.trailing_zeros() as usize;
            if i >= row.len() {
                return (best, arg);
            }
            let w = row[i];
            if w > best {
                best = w;
                arg = i as u32;
            }
            m &= m - 1;
        }
    }
    (best, arg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic word-stream generator (xorshift; the crate's
    /// proptests cover randomized inputs at the network level).
    fn random_words(seed: u64, len: usize) -> Vec<u64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect()
    }

    /// Operand `a` in one of four densities: dense, sparse (a third of the
    /// words hold one bit each), all zero, all ones.
    fn operand(seed: u64, len: usize) -> Vec<u64> {
        let dense = random_words(seed, len);
        match seed % 4 {
            0 => dense,
            1 => dense
                .iter()
                .map(|&w| if w % 3 == 0 { 1 << (w >> 58) } else { 0 })
                .collect(),
            2 => vec![0; len],
            _ => vec![u64::MAX; len],
        }
    }

    /// Operand `b`, built from `a` so that every relation shows up:
    /// unrelated, disjoint, a superset, equal.
    fn partner(a: &[u64], seed: u64, len: usize) -> Vec<u64> {
        let other = random_words(seed.wrapping_add(100), len);
        let at = |i: usize| a.get(i).copied().unwrap_or(0);
        (0..len)
            .map(|i| match seed % 5 {
                0 | 1 => other[i],
                2 => !at(i),
                3 => at(i) | other[i],
                _ => at(i),
            })
            .collect()
    }

    fn bit(words: &[u64], i: usize) -> bool {
        words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Every bit index of the common prefix of `a` and `b`.
    fn common_bits(a: &[u64], b: &[u64]) -> std::ops::Range<usize> {
        0..64 * a.len().min(b.len())
    }

    /// Bit-by-bit reference for [`masked_row_max`]: the largest non-NaN
    /// entry above `-inf` among the indices set in both masks and inside
    /// the row, and the lowest such index holding it.
    fn reference_row_max(row: &[f64], a: &[u64], b: &[u64]) -> (f64, u32) {
        let selected: Vec<usize> = common_bits(a, b)
            .filter(|&i| i < row.len() && bit(a, i) && bit(b, i))
            .filter(|&i| row[i] > f64::NEG_INFINITY)
            .collect();
        let best = selected
            .iter()
            .map(|&i| row[i])
            .fold(f64::NEG_INFINITY, f64::max);
        match selected.iter().find(|&&i| row[i] == best) {
            Some(&i) => (row[i], i as u32),
            None => (f64::NEG_INFINITY, u32::MAX),
        }
    }

    /// Weight rows of varied lengths: raw bit patterns (NaN, infinities,
    /// signed zeros) and rows of a few repeated values (ties).
    fn rows(seed: u64, mask_bits: usize) -> Vec<Vec<f64>> {
        let lengths = [0, mask_bits / 2, mask_bits, mask_bits + 5];
        lengths
            .iter()
            .flat_map(|&len| {
                let raw = random_words(seed.wrapping_add(7), len);
                let soup: Vec<f64> = raw.iter().map(|&w| f64::from_bits(w)).collect();
                let ties: Vec<f64> = raw
                    .iter()
                    .map(|&w| match w % 5 {
                        0 => f64::NAN,
                        1 => -0.0,
                        2 => 0.0,
                        3 => f64::NEG_INFINITY,
                        _ => 2.0,
                    })
                    .collect();
                [soup, ties]
            })
            .collect()
    }

    #[test]
    fn word_loops_match_a_per_bit_oracle() {
        for la in 0..=23 {
            for lb in [0, 1, la / 2, la, (la + 1) % 24, 23 - la] {
                for seed in 0..20u64 {
                    let a = operand(seed, la);
                    let b = partner(&a, seed / 4, lb);
                    let both = || common_bits(&a, &b).filter(|&i| bit(&a, i) && bit(&b, i));
                    let only_a = || common_bits(&a, &b).filter(|&i| bit(&a, i) && !bit(&b, i));
                    let case = format!("lengths {la}/{lb}, seed {seed}");
                    assert_eq!(and_any(&a, &b), both().next().is_some(), "{case}");
                    assert_eq!(any_set(&a), (0..64 * la).any(|i| bit(&a, i)), "{case}");
                    let set_in_a = (0..64 * la).filter(|&i| bit(&a, i)).count() as u64;
                    assert_eq!(popcount(&a), set_in_a, "{case}");
                    assert_eq!(and_popcount(&a, &b), both().count() as u64, "{case}");
                    assert_eq!(andnot_any(&a, &b), only_a().next().is_some(), "{case}");
                    assert_eq!(andnot_popcount(&a, &b), only_a().count() as u64, "{case}");

                    let mut dst = a.clone();
                    let removed = and_assign_count(&mut dst, &b);
                    assert_eq!(removed, only_a().count() as u64, "{case}");
                    for i in 0..64 * la {
                        let kept = if i < 64 * lb {
                            bit(&a, i) && bit(&b, i)
                        } else {
                            bit(&a, i)
                        };
                        assert_eq!(bit(&dst, i), kept, "{case}, bit {i}");
                    }

                    for row in rows(seed, 64 * la.max(lb)) {
                        let (value, arg) = masked_row_max(&row, &a, &b);
                        let (want, want_arg) = reference_row_max(&row, &a, &b);
                        assert_eq!(
                            (value.to_bits(), arg),
                            (want.to_bits(), want_arg),
                            "{case}, row of {}",
                            row.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn masked_row_max_edge_cases() {
        // Empty mask.
        let row = vec![1.0, 2.0, 3.0];
        let z = vec![0u64; 4];
        let ones = vec![u64::MAX; 4];
        assert_eq!(
            masked_row_max(&row, &z, &ones),
            (f64::NEG_INFINITY, u32::MAX)
        );
        // Ties keep the lowest index.
        let row = vec![5.0, 7.0, 7.0, 1.0];
        let mask = vec![0b1111u64];
        assert_eq!(masked_row_max(&row, &mask, &mask), (7.0, 1));
        // Bits beyond the row length are ignored.
        let wide = vec![u64::MAX; 2];
        assert_eq!(masked_row_max(&row, &wide, &wide), (7.0, 1));
        // NaN entries are never selected; an all-NaN mask yields the
        // empty-mask sentinel.
        let row = vec![f64::NAN, 2.0, f64::NAN];
        let mask = vec![0b111u64];
        assert_eq!(masked_row_max(&row, &mask, &mask), (2.0, 1));
        let nan_only = vec![0b101u64];
        let (v, i) = masked_row_max(&row, &nan_only, &nan_only);
        assert!(v == f64::NEG_INFINITY && i == u32::MAX);
    }

    #[test]
    fn mismatched_lengths_use_the_common_prefix() {
        let a = random_words(3, 11);
        let b = random_words(4, 7);
        assert_eq!(and_popcount(&a, &b), and_popcount(&a[..7], &b));
        assert_eq!(andnot_popcount(&a, &b), andnot_popcount(&a[..7], &b));
        let mut whole = a.clone();
        let mut prefix = a[..7].to_vec();
        assert_eq!(
            and_assign_count(&mut whole, &b),
            and_assign_count(&mut prefix, &b)
        );
        assert_eq!(&whole[..7], &prefix[..]);
        // Words past the common prefix are untouched.
        assert_eq!(&whole[7..], &a[7..]);
    }

    #[test]
    fn zero_vectors_behave() {
        let z = vec![0u64; 8];
        let a = random_words(9, 8);
        assert!(!and_any(&a, &z));
        assert!(!any_set(&z));
        assert_eq!(and_popcount(&a, &z), 0);
        assert_eq!(andnot_popcount(&a, &z), popcount(&a));
        assert!(!andnot_any(&a, &a));
    }
}
