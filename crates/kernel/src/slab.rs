//! A slab of reusable slots for protocol state that is only sometimes
//! live.
//!
//! Miss-status holding registers and in-flight directory transactions
//! exist only while a request is outstanding, yet both used to be sized
//! for the worst case (an inline record per hash bucket, or per memory
//! line). [`Slab`] keeps such records in one `Vec` addressed by a `u32`
//! slot index, with a LIFO free list threaded through the free slots:
//! freeing pushes the slot, allocating pops the most recently freed one
//! and appends a new slot only when none is free. The vector is therefore
//! never longer than the peak number of records live at once, and a
//! reused slot keeps whatever its last user left in it, so buffers inside
//! a record keep their capacity and the steady state allocates nothing.

use std::ops::{Index, IndexMut};

/// [`Slot::next`] of an allocated slot.
const LIVE: u32 = u32::MAX;
/// End of the free list.
const NONE: u32 = u32::MAX - 1;

#[derive(Debug, Clone)]
struct Slot<T> {
    value: T,
    /// [`LIVE`] while allocated; otherwise the next free slot, or [`NONE`].
    next: u32,
}

/// Reusable slots of `T`, addressed by `u32` index. See the module docs.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// The most recently freed slot, or [`NONE`].
    free: u32,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab { slots: Vec::new(), free: NONE, len: 0 }
    }
}

impl<T: Default> Slab<T> {
    /// An empty slab; allocates nothing.
    pub fn new() -> Slab<T> {
        Slab::default()
    }

    /// Takes a slot and returns its index: the most recently freed slot if
    /// there is one, with the contents its last user left, else a new
    /// `T::default()` at the end. Callers overwrite the fields they use.
    pub fn alloc(&mut self) -> u32 {
        self.len += 1;
        if self.free != NONE {
            let i = self.free;
            let slot = &mut self.slots[i as usize];
            self.free = slot.next;
            slot.next = LIVE;
            return i;
        }
        let i = u32::try_from(self.slots.len())
            .ok()
            .filter(|&i| i < NONE)
            .expect("slab index fits below the u32 markers");
        self.slots.push(Slot { value: T::default(), next: LIVE });
        i
    }
}

impl<T> Slab<T> {
    /// Returns slot `i` to the free list. Its contents stay in place until
    /// the slot is reused.
    ///
    /// # Panics
    ///
    /// Panics if slot `i` is not allocated.
    pub fn free(&mut self, i: u32) {
        let slot = &mut self.slots[i as usize];
        assert_eq!(slot.next, LIVE, "slab slot {i} freed twice");
        slot.next = self.free;
        self.free = i;
        self.len -= 1;
    }

    /// Number of allocated slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is allocated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots ever built: the peak of [`Slab::len`] so far.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The allocated slots with their indices, in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.next == LIVE)
            .map(|(i, s)| (i as u32, &s.value))
    }
}

impl<T> Index<u32> for Slab<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: u32) -> &T {
        let slot = &self.slots[i as usize];
        debug_assert_eq!(slot.next, LIVE, "slab slot {i} is free");
        &slot.value
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, i: u32) -> &mut T {
        let slot = &mut self.slots[i as usize];
        debug_assert_eq!(slot.next, LIVE, "slab slot {i} is free");
        &mut slot.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_appends_until_a_slot_is_freed() {
        let mut s: Slab<u32> = Slab::new();
        assert!(s.is_empty());
        assert_eq!((s.alloc(), s.alloc(), s.alloc()), (0, 1, 2));
        assert_eq!((s.len(), s.slots()), (3, 3));
    }

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut s: Slab<u32> = Slab::new();
        for _ in 0..4 {
            s.alloc();
        }
        s.free(1);
        s.free(3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.alloc(), 3);
        assert_eq!(s.alloc(), 1);
        assert_eq!(s.alloc(), 4);
        assert_eq!(s.slots(), 5);
    }

    #[test]
    #[should_panic(expected = "freed twice")]
    fn freeing_a_free_slot_panics() {
        let mut s: Slab<u32> = Slab::new();
        let i = s.alloc();
        s.free(i);
        s.free(i);
    }

    #[test]
    fn a_reused_slot_keeps_its_contents() {
        let mut s: Slab<Vec<u8>> = Slab::new();
        let i = s.alloc();
        s[i].reserve(64);
        s[i].push(7);
        s[i].clear();
        s.free(i);
        let j = s.alloc();
        assert_eq!(j, i);
        assert!(s[j].is_empty() && s[j].capacity() >= 64);
    }

    #[test]
    fn slots_never_exceed_the_peak_number_live() {
        let mut s: Slab<u64> = Slab::new();
        let mut live = Vec::new();
        let mut peak = 0;
        // A deterministic churn of allocations and frees.
        for step in 0u32..200 {
            if step % 3 == 2 || live.len() >= 5 {
                s.free(live.remove((step as usize * 7) % live.len()));
            } else {
                live.push(s.alloc());
            }
            peak = peak.max(live.len());
            assert_eq!(s.len(), live.len());
            assert_eq!(s.slots(), peak);
        }
    }

    #[test]
    fn iter_visits_allocated_slots_in_index_order() {
        let mut s: Slab<u32> = Slab::new();
        for v in 0..4 {
            let i = s.alloc();
            s[i] = v * 10;
        }
        s.free(2);
        s.free(0);
        let got: Vec<(u32, u32)> = s.iter().map(|(i, &v)| (i, v)).collect();
        assert_eq!(got, vec![(1, 10), (3, 30)]);
    }
}
