use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::Cycle;

/// Number of single-cycle buckets in the near-future lane (power of two).
///
/// The memory-system latencies cluster event deltas tightly (a contention-
/// free local miss is 170 cycles end to end, a remote miss 290), so almost
/// every push lands within a few hundred cycles of the queue's cursor. 512
/// covers the whole cluster with slack; the rare far event (refork
/// penalties, drained SI queues) falls back to the heap.
const LANE: usize = 512;
const LANE_MASK: u64 = LANE as u64 - 1;
/// Words in the lane's bucket-occupancy bitmap.
const WORDS: usize = LANE / 64;
/// End-of-list link in the slab.
const NIL: u32 = u32::MAX;

/// A deterministic discrete-event queue.
///
/// Events are ordered by timestamp; events with equal timestamps pop in the
/// order they were pushed (FIFO). Together with a single-threaded simulation
/// loop this makes every run bit-for-bit reproducible, which the test suite
/// and the paper-reproduction harness rely on.
///
/// Internally the queue is two lanes with one ordering contract:
///
/// * a **near-future lane** — a ring of [`LANE`] single-cycle buckets
///   covering `[cursor, cursor + LANE)`, where `cursor` is a monotone lower
///   bound on pending bucketed times. All buckets share one slab of slots:
///   each bucket is a FIFO list linked through the slab, and freed slots go
///   on a LIFO free list, so a push reuses the slot the last pop released.
///   A 512-bit occupancy bitmap lets pops jump `cursor` to the next
///   non-empty bucket with `trailing_zeros` instead of walking empty ones.
///   The slab holds at most as many slots as events were ever pending in
///   the lane at once;
/// * a `u128`-keyed [`BinaryHeap`] for the far tail (and for times below
///   `cursor`, which can only arise from out-of-order test usage).
///
/// Every entry carries its global sequence number, and every candidate
/// comparison uses the packed `(time, seq)` key, so the two lanes together
/// preserve the exact total order a single heap would produce — including
/// ties at the same timestamp split across lanes.
///
/// # Example
///
/// ```
/// use slipstream_kernel::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(3), 'x');
/// q.push(Cycle(1), 'y');
/// assert_eq!(q.peek_time(), Some(Cycle(1)));
/// assert_eq!(q.pop(), Some((Cycle(1), 'y')));
/// assert_eq!(q.pop(), Some((Cycle(3), 'x')));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Slots of the near-future lane: linked bucket entries plus freed
    /// slots awaiting reuse.
    slots: Vec<Slot<E>>,
    /// Head of the LIFO free list, threaded through `Slot::next`.
    free: u32,
    /// Bucket `t & LANE_MASK` lists the events at time `t` for `t` in
    /// `[cursor, cursor + LANE)`, in sequence order.
    buckets: Box<[Bucket; LANE]>,
    /// Bit `b` is set iff bucket `b` is non-empty.
    occupied: [u64; WORDS],
    /// Events currently in the lane (all buckets).
    lane_len: usize,
    /// Lower bound on every bucketed event's time; advanced by pops.
    cursor: u64,
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    high_water: usize,
    /// Pushes that fell back to the heap lane (outside the near-future
    /// window). A high fraction means the window is mis-sized for the
    /// workload's event deltas; the host-telemetry layer reports it.
    heap_pushes: u64,
}

/// One slab slot. A linked slot holds its event; a free one holds `None`
/// and links to the next free slot.
#[derive(Debug)]
struct Slot<E> {
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// First and last slab slot of one bucket's FIFO list; `head == NIL` when
/// the bucket is empty (`tail` is then stale).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// `key` packs `(time << 64) | seq`: one `u128` comparison orders by time,
/// then insertion order.
#[derive(Debug)]
struct Entry<E> {
    key: u128,
    event: E,
}

#[inline]
fn pack(time: Cycle, seq: u64) -> u128 {
    ((time.raw() as u128) << 64) | seq as u128
}

#[inline]
fn unpack_time(key: u128) -> Cycle {
    Cycle((key >> 64) as u64)
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq) pops
        // first.
        other.key.cmp(&self.key)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            slots: Vec::new(),
            free: NIL,
            buckets: Box::new([Bucket { head: NIL, tail: NIL }; LANE]),
            occupied: [0; WORDS],
            lane_len: 0,
            cursor: 0,
            heap: BinaryHeap::new(),
            next_seq: 0,
            high_water: 0,
            heap_pushes: 0,
        }
    }

    /// Creates an empty queue with room for `cap` pending near-future
    /// events.
    pub fn with_capacity(cap: usize) -> EventQueue<E> {
        let mut q = EventQueue::new();
        q.slots.reserve(cap);
        q
    }

    /// Reserves room for at least `additional` more near-future events.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }

    /// Schedules `event` to fire at time `at`.
    pub fn push(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let t = at.raw();
        if t >= self.cursor && t - self.cursor < LANE as u64 {
            self.lane_push((t & LANE_MASK) as usize, seq, event);
        } else {
            self.heap_pushes += 1;
            self.heap.push(Entry { key: pack(at, seq), event });
        }
        // Peak-depth tracking for the observability layer. The branch is
        // almost never taken in steady state, so it stays off the critical
        // path's dependency chain.
        let len = self.len();
        if len > self.high_water {
            self.high_water = len;
        }
    }

    /// Appends an event to bucket `b`, reusing the most recently freed
    /// slot when there is one.
    #[inline]
    fn lane_push(&mut self, b: usize, seq: u64, event: E) {
        let slot = Slot { seq, next: NIL, event: Some(event) };
        let i = if self.free != NIL {
            let i = self.free;
            let s = &mut self.slots[i as usize];
            self.free = s.next;
            *s = slot;
            i
        } else {
            let i = u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("near-future lane exceeds u32 slots");
            self.slots.push(slot);
            i
        };
        let bucket = &mut self.buckets[b];
        if bucket.head == NIL {
            bucket.head = i;
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            self.slots[bucket.tail as usize].next = i;
        }
        bucket.tail = i;
        self.lane_len += 1;
    }

    /// Advances `cursor` to the first non-empty bucket. Only called with a
    /// non-empty lane. Every bucketed time lies in `[cursor, cursor +
    /// LANE)`, so the first occupied bit at or after the cursor's bucket,
    /// in ring order, is the earliest bucketed time; finding it reads at
    /// most `WORDS + 1` bitmap words.
    #[inline]
    fn advance_cursor(&mut self) {
        debug_assert!(self.lane_len > 0);
        let p = (self.cursor & LANE_MASK) as usize;
        let (w0, bit) = (p / 64, p % 64);
        let here = self.occupied[w0] >> bit;
        if here != 0 {
            self.cursor += u64::from(here.trailing_zeros());
            return;
        }
        // The following words in ring order; the last step comes back to
        // `w0`, whose bits below `bit` are the ring's farthest buckets.
        let mut dist = (64 - bit) as u64;
        for k in 1..=WORDS {
            let w = self.occupied[(w0 + k) % WORDS];
            if w != 0 {
                self.cursor += dist + u64::from(w.trailing_zeros());
                return;
            }
            dist += 64;
        }
        unreachable!("advance_cursor on an empty lane");
    }

    /// The packed key of the earliest bucketed event, advancing the cursor
    /// to its bucket. `None` when the lane is empty.
    #[inline]
    fn lane_front_key(&mut self) -> Option<u128> {
        if self.lane_len == 0 {
            return None;
        }
        self.advance_cursor();
        let head = self.buckets[(self.cursor & LANE_MASK) as usize].head;
        Some(pack(Cycle(self.cursor), self.slots[head as usize].seq))
    }

    /// Removes and returns the front event of the cursor bucket, putting
    /// its slot on the free list. Caller guarantees the lane is non-empty
    /// and the cursor is advanced.
    #[inline]
    fn lane_pop_front(&mut self) -> (Cycle, E) {
        let b = (self.cursor & LANE_MASK) as usize;
        let i = self.buckets[b].head;
        let slot = &mut self.slots[i as usize];
        let event = slot.event.take().expect("advanced to non-empty bucket");
        let next = std::mem::replace(&mut slot.next, self.free);
        self.free = i;
        self.buckets[b].head = next;
        if next == NIL {
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.lane_len -= 1;
        (Cycle(self.cursor), event)
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let lane_key = self.lane_front_key();
        let heap_key = self.heap.peek().map(|e| e.key);
        match (lane_key, heap_key) {
            (Some(lk), Some(hk)) if hk < lk => self.pop_heap(),
            (None, Some(_)) => self.pop_heap(),
            (Some(_), _) => Some(self.lane_pop_front()),
            (None, None) => None,
        }
    }

    fn pop_heap(&mut self) -> Option<(Cycle, E)> {
        let e = self.heap.pop()?;
        let t = unpack_time(e.key);
        if self.lane_len == 0 {
            // With the lane empty the cursor is unconstrained; keeping it
            // synced to popped (monotone) times keeps the near-future
            // window over "now" so subsequent pushes take the O(1) lane.
            self.cursor = self.cursor.max(t.raw());
        }
        Some((t, e.event))
    }

    /// Removes and returns the earliest event only if it fires at or before
    /// `limit` — the combined peek/pop the simulation loop uses to drain
    /// everything due at the current time with one call per event.
    pub fn pop_if_at(&mut self, limit: Cycle) -> Option<(Cycle, E)> {
        let lane_key = self.lane_front_key();
        // Heap arm: one `PeekMut` access both decides and pops (the old
        // implementation peeked, then `pop()` peeked the heap a second
        // time). `PeekMut` only re-sifts if the entry was mutated, so a
        // fall-through costs nothing.
        if let Some(pm) = self.heap.peek_mut() {
            let hk = pm.key;
            if lane_key.is_none_or(|lk| hk < lk) {
                // The heap holds the earliest event overall.
                let t = unpack_time(hk);
                if t > limit {
                    return None;
                }
                let e = PeekMut::pop(pm);
                if self.lane_len == 0 {
                    self.cursor = self.cursor.max(t.raw());
                }
                return Some((t, e.event));
            }
        }
        // The lane holds the earliest event, or the queue is empty.
        if lane_key.is_some() && Cycle(self.cursor) <= limit {
            return Some(self.lane_pop_front());
        }
        None
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&mut self) -> Option<Cycle> {
        let lane = self.lane_front_key();
        let heap = self.heap.peek().map(|e| e.key);
        match (lane, heap) {
            (Some(a), Some(b)) => Some(unpack_time(a.min(b))),
            (Some(a), None) => Some(unpack_time(a)),
            (None, Some(b)) => Some(unpack_time(b)),
            (None, None) => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane_len + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events pushed over the queue's lifetime.
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }

    /// Maximum number of events ever pending at once (peak queue depth).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Events currently pending in the near-future lane.
    pub fn lane_len(&self) -> usize {
        self.lane_len
    }

    /// Events currently pending in the far-tail heap.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Lifetime count of pushes that fell back to the heap lane.
    pub fn heap_pushes(&self) -> u64 {
        self.heap_pushes
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::SplitMix64;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), 3);
        q.push(Cycle(10), 1);
        q.push(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(7), i)));
        }
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Cycle(1), ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(5), 'a');
        q.push(Cycle(2), 'b');
        assert_eq!(q.pop(), Some((Cycle(2), 'b')));
        q.push(Cycle(1), 'c'); // earlier than remaining event
        assert_eq!(q.pop(), Some((Cycle(1), 'c')));
        assert_eq!(q.pop(), Some((Cycle(5), 'a')));
    }

    #[test]
    fn pop_if_at_respects_the_limit() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), 'a');
        q.push(Cycle(20), 'b');
        assert_eq!(q.pop_if_at(Cycle(5)), None);
        assert_eq!(q.pop_if_at(Cycle(10)), Some((Cycle(10), 'a')));
        assert_eq!(q.pop_if_at(Cycle(10)), None); // 'b' is later
        assert_eq!(q.pop_if_at(Cycle(100)), Some((Cycle(20), 'b')));
        assert_eq!(q.pop_if_at(Cycle(100)), None); // empty
    }

    #[test]
    fn lifetime_counters_track_pushes_and_peak_depth() {
        let mut q = EventQueue::new();
        assert_eq!(q.total_pushed(), 0);
        assert_eq!(q.high_water(), 0);
        q.push(Cycle(1), 'a');
        q.push(Cycle(2), 'b');
        q.push(Cycle(3), 'c');
        q.pop();
        q.pop();
        q.push(Cycle(4), 'd');
        assert_eq!(q.total_pushed(), 4);
        assert_eq!(q.high_water(), 3); // peak was three pending at once
    }

    #[test]
    fn with_capacity_preserves_semantics() {
        let mut q = EventQueue::with_capacity(64);
        q.reserve(100);
        q.push(Cycle(2), 'x');
        q.push(Cycle(1), 'y');
        assert_eq!(q.pop(), Some((Cycle(1), 'y')));
        assert_eq!(q.pop(), Some((Cycle(2), 'x')));
    }

    /// Same-time events split across the two lanes must still pop in push
    /// order: the first push lands in a bucket; once the window slides past
    /// that time, later same-time pushes fall back to the heap, and seq
    /// tie-breaking has to interleave them correctly.
    #[test]
    fn cross_lane_same_time_ties_are_fifo() {
        let mut q = EventQueue::new();
        q.push(Cycle(100), 0); // near-future lane (window starts at 0)
        q.push(Cycle(10_000), 99); // beyond the window → heap
        q.push(Cycle(10_000), 100); // heap, same time, later seq
        assert_eq!(q.pop(), Some((Cycle(100), 0)));
        assert_eq!(q.pop(), Some((Cycle(10_000), 99)));
        // The window re-centered on 10_000, so these same-time pushes land
        // in a bucket while an earlier-seq twin still sits in the heap.
        q.push(Cycle(10_000), 101);
        q.push(Cycle(10_000), 102);
        assert_eq!(q.pop(), Some((Cycle(10_000), 100)));
        assert_eq!(q.pop(), Some((Cycle(10_000), 101)));
        assert_eq!(q.pop(), Some((Cycle(10_000), 102)));
        assert_eq!(q.pop(), None);
    }

    /// Events beyond the near-future window (heap lane) and inside it
    /// (bucket lane) interleave in strict time order.
    #[test]
    fn far_future_and_near_future_interleave() {
        let mut q = EventQueue::new();
        q.push(Cycle(5), 'n'); // bucket lane
        q.push(Cycle(5_000), 'f'); // heap lane (beyond window)
        q.push(Cycle(170), 'm'); // bucket lane
        assert_eq!(q.pop(), Some((Cycle(5), 'n')));
        assert_eq!(q.pop(), Some((Cycle(170), 'm')));
        // After draining the lane, the heap event pops and re-centers the
        // window; a subsequent near-future push must take the bucket lane
        // and still order correctly against a new far event.
        assert_eq!(q.pop(), Some((Cycle(5_000), 'f')));
        q.push(Cycle(5_290), 'p'); // within the re-centered window
        q.push(Cycle(99_999), 'q');
        assert_eq!(q.pop(), Some((Cycle(5_290), 'p')));
        assert_eq!(q.pop(), Some((Cycle(99_999), 'q')));
    }

    /// Pushes at times the window has already slid past (only possible from
    /// out-of-order callers, but part of the contract) still pop in order.
    #[test]
    fn pushes_below_the_cursor_still_order_correctly() {
        let mut q = EventQueue::new();
        q.push(Cycle(1_000_000), 'a');
        assert_eq!(q.pop(), Some((Cycle(1_000_000), 'a'))); // cursor syncs far forward
        q.push(Cycle(3), 'b'); // far below the cursor → heap
        q.push(Cycle(1_000_001), 'c'); // in-window → lane
        assert_eq!(q.peek_time(), Some(Cycle(3)));
        assert_eq!(q.pop(), Some((Cycle(3), 'b')));
        assert_eq!(q.pop(), Some((Cycle(1_000_001), 'c')));
    }

    /// The bucket ring wraps: times more than `LANE` apart reuse the same
    /// bucket index across window generations without mixing.
    #[test]
    fn window_wraparound_reuses_buckets_cleanly() {
        let mut q = EventQueue::new();
        // Step by less than LANE so every push stays in the sliding window
        // (bucket lane); over enough generations the raw times cross many
        // multiples of LANE, so bucket indices wrap and get reused.
        let step = LANE as u64 - 12;
        let mut t = 0u64;
        for gen in 0u64..20 {
            q.push(Cycle(t), gen);
            assert_eq!(q.pop(), Some((Cycle(t), gen)));
            t += step;
        }
        assert!(q.is_empty());
    }

    /// `pop_if_at` with a limit between the two lanes' fronts takes only the
    /// due lane-event, and vice versa when the heap is earlier.
    #[test]
    fn pop_if_at_across_lanes() {
        let mut q = EventQueue::new();
        q.push(Cycle(50), 'n'); // lane
        q.push(Cycle(9_000), 'f'); // heap
        assert_eq!(q.pop_if_at(Cycle(49)), None);
        assert_eq!(q.pop_if_at(Cycle(50)), Some((Cycle(50), 'n')));
        assert_eq!(q.pop_if_at(Cycle(8_999)), None);
        assert_eq!(q.pop_if_at(Cycle(9_000)), Some((Cycle(9_000), 'f')));
        // Heap earlier than lane: push below cursor (heap) + in-window.
        q.push(Cycle(9_100), 'x'); // lane (window re-centered at 9_000)
        q.push(Cycle(100), 'y'); // below cursor → heap
        assert_eq!(q.pop_if_at(Cycle(99)), None);
        assert_eq!(q.pop_if_at(Cycle(100)), Some((Cycle(100), 'y')));
        assert_eq!(q.pop_if_at(Cycle(u64::MAX)), Some((Cycle(9_100), 'x')));
        assert!(q.is_empty());
    }

    /// Property test (seeded, exhaustive over many random schedules):
    /// popping always yields non-decreasing timestamps, and within a
    /// timestamp, increasing push order — the (time, seq) FIFO contract the
    /// whole simulator's determinism rests on.
    #[test]
    fn prop_pop_order() {
        let mut rng = SplitMix64::new(0x0e0e);
        for case in 0..200 {
            let n = 1 + rng.next_below(200) as usize;
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(Cycle(rng.next_below(50)), i);
            }
            let mut last: Option<(Cycle, usize)> = None;
            let mut popped = 0;
            while let Some((t, i)) = q.pop() {
                popped += 1;
                if let Some((lt, li)) = last {
                    assert!(t >= lt, "case {case}: time went backwards");
                    if t == lt {
                        assert!(i > li, "case {case}: FIFO order violated at t={t:?}");
                    }
                }
                last = Some((t, i));
            }
            assert_eq!(popped, n);
        }
    }

    /// Random schedules that straddle the bucket window: deltas span from 0
    /// to several windows ahead, so every push/pop path (bucket append,
    /// heap fallback, cursor re-sync, wraparound) gets exercised while the
    /// (time, seq) contract is checked against pending-event ground truth.
    #[test]
    fn prop_pop_order_across_lanes() {
        let mut rng = SplitMix64::new(0x51ee);
        for case in 0..100 {
            let n = 1 + rng.next_below(300) as usize;
            let mut q = EventQueue::new();
            let mut base = 0u64;
            for i in 0..n {
                // Mostly near-future, occasionally multiple windows out.
                let delta = if rng.next_below(8) == 0 {
                    rng.next_below(4 * LANE as u64)
                } else {
                    rng.next_below(300)
                };
                q.push(Cycle(base + delta), i);
                if rng.next_below(4) == 0 {
                    if let Some((t, _)) = q.pop() {
                        base = base.max(t.raw());
                    }
                }
            }
            let mut last: Option<(Cycle, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((lt, li)) = last {
                    assert!(t >= lt, "case {case}: time went backwards");
                    if t == lt {
                        assert!(i > li, "case {case}: FIFO order violated at t={t:?}");
                    }
                }
                last = Some((t, i));
            }
            assert!(q.is_empty());
        }
    }

    /// Interleaving pushes and pops (including `pop_if_at`) preserves the
    /// same contract relative to the events still pending.
    #[test]
    fn prop_interleaved_pop_if_at() {
        let mut rng = SplitMix64::new(0xabcd);
        for _ in 0..100 {
            let mut q = EventQueue::new();
            let mut seq = 0usize;
            let mut last: Option<(Cycle, usize)> = None;
            for _ in 0..300 {
                if rng.next_below(2) == 0 {
                    // Push strictly increasing-or-equal times so pops stay
                    // monotone even with interleaving.
                    let base = last.map(|(t, _)| t.raw()).unwrap_or(0);
                    q.push(Cycle(base + rng.next_below(20)), seq);
                    seq += 1;
                } else if let Some((t, i)) = q.pop_if_at(Cycle(u64::MAX)) {
                    if let Some((lt, li)) = last {
                        assert!(t > lt || (t == lt && i > li));
                    }
                    last = Some((t, i));
                }
            }
        }
    }

    /// Pops to empty, checking every event against a reference model.
    fn drain_against(q: &mut EventQueue<usize>, model: &mut BTreeSet<(u64, usize)>) {
        while let Some((t, i)) = q.pop() {
            assert_eq!(model.pop_first(), Some((t.raw(), i)));
        }
        assert!(model.is_empty());
    }

    /// A pop frees its slot and the next push takes that same slot, so an
    /// alternating push/pop stream never grows the slab past one slot.
    #[test]
    fn free_list_reuses_the_last_freed_slot() {
        let mut q = EventQueue::new();
        for t in 0..1_000u64 {
            q.push(Cycle(t), t);
            assert_eq!(q.pop(), Some((Cycle(t), t)));
        }
        assert_eq!(q.slots.len(), 1);
        // LIFO: the slot freed last is the first one reused.
        q.push(Cycle(1_000), 0);
        q.push(Cycle(1_001), 1);
        q.push(Cycle(1_002), 2);
        assert_eq!(q.slots.len(), 3);
        let second = q.buckets[1_001 & LANE_MASK as usize].head;
        q.pop();
        q.pop();
        assert_eq!(q.free, second);
        q.push(Cycle(1_003), 3);
        assert_eq!(q.buckets[1_003 & LANE_MASK as usize].head, second);
        assert_eq!(q.slots.len(), 3);
        assert_eq!(q.pop(), Some((Cycle(1_002), 2)));
        assert_eq!(q.pop(), Some((Cycle(1_003), 3)));
    }

    /// A steady push/pop workload never holds more slab slots than events
    /// were ever pending at once.
    #[test]
    fn steady_workload_keeps_the_slab_within_high_water() {
        let mut rng = SplitMix64::new(0x51ab);
        let mut q = EventQueue::new();
        let mut now = 0u64;
        for i in 0..20_000usize {
            q.push(Cycle(now + 1 + rng.next_below(300)), i);
            if q.len() > 64 {
                now = q.pop().expect("non-empty").0.raw();
            }
            assert!(q.slots.len() <= q.high_water());
        }
        assert!(q.high_water() <= 65);
        while q.pop().is_some() {}
        assert!(q.slots.len() <= q.high_water());
    }

    /// The bitmap search crosses bitmap words, wraps from the ring's last
    /// word to its first, and comes back around to the cursor's own word
    /// for a bucket just behind the cursor.
    #[test]
    fn cursor_jumps_across_words_and_the_ring() {
        let mut q = EventQueue::new();
        // Gap of more than 64 buckets: word 0 to word 4.
        q.push(Cycle(3), 'a');
        q.push(Cycle(300), 'b');
        assert_eq!(q.pop(), Some((Cycle(3), 'a')));
        assert_eq!(q.pop(), Some((Cycle(300), 'b')));
        // Cursor in the ring's last word; the next event wraps to bucket 8.
        q.push(Cycle(500), 'c');
        q.push(Cycle(520), 'd');
        assert_eq!(q.pop(), Some((Cycle(500), 'c')));
        assert_eq!(q.peek_time(), Some(Cycle(520)));
        assert_eq!(q.pop(), Some((Cycle(520), 'd')));
        // The farthest in-window bucket sits one below the cursor's bucket,
        // in the cursor's own bitmap word: the search must go round the
        // whole ring.
        q.push(Cycle(612), 'e');
        assert_eq!(q.pop(), Some((Cycle(612), 'e'))); // cursor: bucket 100, word 1
        q.push(Cycle(612 + 511), 'f'); // bucket 99, also word 1
        assert_eq!(q.lane_len(), 1);
        assert_eq!(q.pop_if_at(Cycle(612 + 510)), None);
        assert_eq!(q.pop(), Some((Cycle(612 + 511), 'f')));
        // Gap of more than 512 buckets: heap lane, then the lane again.
        q.push(Cycle(5_000), 'g');
        q.push(Cycle(5_100), 'h');
        assert_eq!(q.pop(), Some((Cycle(5_000), 'g')));
        assert_eq!(q.pop(), Some((Cycle(5_100), 'h')));
        assert!(q.is_empty());
    }

    /// Random schedules whose gaps mix short hops, jumps across bitmap
    /// words (64+), and jumps past the whole ring (512+), with interleaved
    /// `peek_time`/`pop_if_at`, checked against a reference `(time, seq)`
    /// ordering.
    #[test]
    fn prop_gaps_and_pop_if_at_match_a_reference() {
        let mut rng = SplitMix64::new(0x6a95);
        for case in 0..200 {
            let mut q = EventQueue::new();
            let mut model = BTreeSet::new();
            let mut now = 0u64;
            for i in 0..400usize {
                let gap = match rng.next_below(6) {
                    0 => 64 + rng.next_below(LANE as u64 - 64),
                    1 => LANE as u64 + rng.next_below(3 * LANE as u64),
                    _ => rng.next_below(64),
                };
                q.push(Cycle(now + gap), i);
                model.insert((now + gap, i));
                match rng.next_below(3) {
                    0 => {
                        let want = model.first().map(|&(t, _)| Cycle(t));
                        assert_eq!(q.peek_time(), want, "case {case}: peek");
                    }
                    1 => {
                        let limit = now + rng.next_below(2 * LANE as u64);
                        let got = q.pop_if_at(Cycle(limit));
                        let want = match model.first() {
                            Some(&(t, _)) if t <= limit => model.pop_first(),
                            _ => None,
                        };
                        assert_eq!(got.map(|(t, i)| (t.raw(), i)), want, "case {case}");
                        if let Some((t, _)) = want {
                            now = t;
                        }
                    }
                    _ => {}
                }
                assert!(q.slots.len() <= q.high_water());
            }
            drain_against(&mut q, &mut model);
        }
    }
}
