//! An inline-capacity vector for the simulator's short hot-path lists.
//!
//! An MSHR's waiter list almost always holds one or two entries (one
//! R-stream plus at most its A-stream partner piling onto the same miss),
//! yet a `Vec` heap-allocates for every miss. [`InlineVec`]
//! stores up to `N` elements inline and only spills to a heap `Vec` beyond
//! that, so the common case allocates nothing. No `unsafe` is used: inline
//! slots are `Option<T>`, which for the simulator's small `Copy` waiter
//! records costs a byte of discriminant, not an allocation.

use std::fmt;

/// A vector with inline capacity for `N` elements and a heap spill beyond.
///
/// Elements keep insertion order: the first `N` live inline, the rest in
/// the spill `Vec`. The API is the subset the memory system needs — push,
/// len/is_empty, iteration, and a draining `IntoIterator` (via
/// `std::mem::take`, which is why `Default` is implemented).
#[derive(Clone, PartialEq, Eq)]
pub struct InlineVec<T, const N: usize> {
    inline: [Option<T>; N],
    /// Number of occupied inline slots (`<= N`).
    inline_len: usize,
    spill: Vec<T>,
}

impl<T, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector; allocates nothing.
    pub fn new() -> Self {
        InlineVec { inline: [const { None }; N], inline_len: 0, spill: Vec::new() }
    }

    /// Appends an element, spilling to the heap past `N` entries.
    pub fn push(&mut self, value: T) {
        if self.inline_len < N {
            self.inline[self.inline_len] = Some(value);
            self.inline_len += 1;
        } else {
            self.spill.push(value);
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inline_len + self.spill.len()
    }

    /// Whether the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.inline_len == 0
    }

    /// Iterates the elements in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.inline[..self.inline_len].iter().filter_map(Option::as_ref).chain(self.spill.iter())
    }
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Draining iterator in insertion order: inline slots first, then spill.
pub struct InlineVecIntoIter<T, const N: usize> {
    inline: std::iter::Flatten<std::array::IntoIter<Option<T>, N>>,
    spill: std::vec::IntoIter<T>,
}

impl<T, const N: usize> Iterator for InlineVecIntoIter<T, N> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        // Occupied inline slots form a prefix, so `Flatten` over the whole
        // array yields exactly the live elements in order.
        self.inline.next().or_else(|| self.spill.next())
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = InlineVecIntoIter<T, N>;

    fn into_iter(self) -> Self::IntoIter {
        InlineVecIntoIter {
            inline: self.inline.into_iter().flatten(),
            spill: self.spill.into_iter(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_iter_order_within_inline_capacity() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        assert!(v.is_empty());
        v.push(10);
        v.push(20);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![10, 20]);
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![10, 20]);
    }

    #[test]
    fn spill_preserves_insertion_order() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        for i in 0..7 {
            v.push(i);
        }
        assert_eq!(v.len(), 7);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), (0..7).collect::<Vec<_>>());
        assert_eq!(v.into_iter().collect::<Vec<_>>(), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn take_drains_and_resets() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        v.push(1);
        v.push(2);
        v.push(3);
        let drained: Vec<u32> = std::mem::take(&mut v).into_iter().collect();
        assert_eq!(drained, vec![1, 2, 3]);
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        v.push(9);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn equality_compares_contents() {
        let mut a: InlineVec<u32, 2> = InlineVec::new();
        let mut b: InlineVec<u32, 2> = InlineVec::new();
        a.push(1);
        b.push(1);
        assert_eq!(a, b);
        b.push(2);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_formats_as_list() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        v.push(1);
        v.push(2);
        v.push(3);
        assert_eq!(format!("{v:?}"), "[1, 2, 3]");
    }
}
