use crate::node::NodeId;
use crate::nodeset::NodeSet;

/// Iterator over the members of a [`NodeSet`] in ascending id order.
///
/// Produced by [`NodeSet::iter`].
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> Iter<'a> {
    pub(crate) fn new(words: &'a [u64]) -> Self {
        Iter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(NodeId::new((self.word_idx * 64 + bit) as u32))
    }
}

/// Iterator over **all** subsets of a [`NodeSet`].
///
/// Produced by [`NodeSet::subsets`]. The enumeration maps a counter
/// `0..2^k` onto the `k` members of the base set, so it starts with the
/// empty set and ends with the base set itself, and subsets with the same
/// low-order members are adjacent.
#[derive(Clone, Debug)]
pub struct Subsets {
    elements: Vec<NodeId>,
    next_mask: u64,
    end_mask: u64,
}

impl Subsets {
    pub(crate) fn new(base: &NodeSet) -> Self {
        let elements = base.to_vec();
        assert!(
            elements.len() <= 62,
            "subset enumeration over {} elements is infeasible (max 62)",
            elements.len()
        );
        Subsets {
            end_mask: 1u64 << elements.len(),
            elements,
            next_mask: 0,
        }
    }
}

impl Iterator for Subsets {
    type Item = NodeSet;

    fn next(&mut self) -> Option<NodeSet> {
        if self.next_mask >= self.end_mask {
            return None;
        }
        let mask = self.next_mask;
        self.next_mask += 1;
        let mut s = NodeSet::new();
        let mut rem = mask;
        while rem != 0 {
            let i = rem.trailing_zeros() as usize;
            rem &= rem - 1;
            s.insert(self.elements[i]);
        }
        Some(s)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end_mask - self.next_mask) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Subsets {}

/// Iterator over the `k`-element subsets of a [`NodeSet`].
///
/// Produced by [`NodeSet::combinations`]. Subsets are produced in
/// lexicographic order of their sorted member lists.
#[derive(Clone, Debug)]
pub struct Combinations {
    elements: Vec<NodeId>,
    indices: Vec<usize>,
    done: bool,
}

impl Combinations {
    pub(crate) fn new(base: &NodeSet, k: usize) -> Self {
        let elements = base.to_vec();
        let done = k > elements.len();
        Combinations {
            indices: (0..k).collect(),
            elements,
            done,
        }
    }
}

impl Iterator for Combinations {
    type Item = NodeSet;

    fn next(&mut self) -> Option<NodeSet> {
        if self.done {
            return None;
        }
        let out: NodeSet = self.indices.iter().map(|&i| self.elements[i]).collect();
        // Advance to the next lexicographic index combination.
        let k = self.indices.len();
        let n = self.elements.len();
        if k == 0 {
            self.done = true;
            return Some(out);
        }
        let mut i = k;
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            if self.indices[i] != i + n - k {
                self.indices[i] += 1;
                for j in i + 1..k {
                    self.indices[j] = self.indices[j - 1] + 1;
                }
                break;
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn subsets_enumerates_the_whole_power_set() {
        let base = set(&[1, 5, 70]);
        let all: Vec<NodeSet> = base.subsets().collect();
        assert_eq!(all.len(), 8);
        assert_eq!(all[0], NodeSet::new());
        assert_eq!(all[7], base);
        // All distinct and all subsets of the base.
        let distinct: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(distinct.len(), 8);
        assert!(all.iter().all(|s| s.is_subset(&base)));
    }

    #[test]
    fn subsets_of_empty_is_just_empty() {
        let all: Vec<NodeSet> = NodeSet::new().subsets().collect();
        assert_eq!(all, vec![NodeSet::new()]);
    }

    #[test]
    fn subsets_size_hint_is_exact() {
        let base = set(&[0, 1, 2, 3]);
        let it = base.subsets();
        assert_eq!(it.len(), 16);
        assert_eq!(base.subset_count(), 16);
        assert_eq!(NodeSet::new().subset_count(), 1);
    }

    #[test]
    fn combinations_counts_binomials() {
        let base = set(&[0, 1, 2, 3, 4]);
        assert_eq!(base.combinations(0).count(), 1);
        assert_eq!(base.combinations(2).count(), 10);
        assert_eq!(base.combinations(5).count(), 1);
        assert_eq!(base.combinations(6).count(), 0);
        assert!(base
            .combinations(2)
            .all(|s| s.len() == 2 && s.is_subset(&base)));
    }

    #[test]
    fn combinations_are_distinct() {
        let base = set(&[2, 3, 64, 65]);
        let all: std::collections::HashSet<_> = base.combinations(2).collect();
        assert_eq!(all.len(), 6);
    }
}
