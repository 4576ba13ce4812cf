use std::collections::VecDeque;

use slipstream_kernel::config::CacheGeometry;
use slipstream_kernel::{CpuId, FxHashMap, InlineVec, LineAddr, Slab};

use crate::classify::OpenReq;
use crate::msg::Token;

/// Coherence state of an L2 line as seen by the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum L2State {
    /// Readable copy; other nodes may also hold it.
    Shared,
    /// This node is the exclusive owner (clean or dirty).
    Exclusive,
}

/// One resident L2 line with all slipstream metadata.
#[derive(Debug, Clone)]
pub(crate) struct L2Line {
    pub line: LineAddr,
    pub state: L2State,
    pub dirty: bool,
    /// Filled by a transparent reply: visible to the A-stream only and not
    /// registered in the directory's sharing list (§4.1).
    pub transparent: bool,
    /// Marked for self-invalidation at the next R-stream sync point (§4.2).
    pub si_flag: bool,
    /// A store to this line occurred inside a critical section (the SI
    /// policy then invalidates rather than downgrades: migratory data).
    pub wrote_in_cs: bool,
    /// Which of the two L1s hold a copy (bit per core).
    pub l1_mask: u8,
    /// Which core's L1 holds it Modified, if any.
    pub l1_dirty: Option<u8>,
    /// Whether the line holds shared (coherent application) data — only
    /// such lines participate in Figure 7 classification.
    pub shared_data: bool,
    /// Open read-request classification, if an unclosed read fill exists.
    pub open_read: Option<OpenReq>,
    /// Open exclusive-request classification.
    pub open_excl: Option<OpenReq>,
}

impl L2Line {
    pub(crate) fn new(line: LineAddr, state: L2State, shared_data: bool) -> L2Line {
        L2Line {
            line,
            state,
            dirty: false,
            transparent: false,
            si_flag: false,
            wrote_in_cs: false,
            l1_mask: 0,
            l1_dirty: None,
            shared_data,
            open_read: None,
            open_excl: None,
        }
    }
}

/// What a requester blocked on a miss needs from the fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaiterKind {
    /// An A-stream read: satisfied by a transparent or coherent fill.
    ARead,
    /// A coherent read: satisfied by any coherent fill.
    Read,
    /// A store: needs exclusive ownership. On a shared fill it triggers an
    /// upgrade transaction.
    Store,
}

/// Requester blocked on an outstanding miss.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiter {
    pub cpu: CpuId,
    pub kind: WaiterKind,
    pub token: Token,
}

/// Inline waiter capacity of an [`Mshr`]. A miss almost always has one
/// waiter, two when both streams of a pair (or both cores) pile onto it;
/// a third appears only when a restarted A-stream re-requests a line its
/// killed predecessor is still waiting on. More spill to the heap.
const INLINE_WAITERS: usize = 3;

/// A miss-status holding register: one per line with outstanding requests.
/// Merging of the two processors' requests ("The shared L2 cache ...
/// merges their requests when appropriate", §2) happens here, and is also
/// where `Late` classification outcomes are detected.
#[derive(Debug)]
pub(crate) struct Mshr {
    /// A normal (coherent) read request is in flight.
    pub norm_pending: bool,
    /// An exclusive request (read-exclusive or upgrade) is in flight.
    pub excl_pending: bool,
    /// A transparent read request is in flight.
    pub trans_pending: bool,
    /// Any queued store was inside a critical section.
    pub store_in_cs: bool,
    /// The exclusive request was a non-binding prefetch only (no waiter
    /// needs ownership).
    pub excl_is_prefetch: bool,
    /// Classification for the in-flight read transaction.
    pub open_read: Option<OpenReq>,
    /// Classification for the in-flight exclusive transaction.
    pub open_excl: Option<OpenReq>,
    /// Every blocked requester in arrival order, tagged by what it needs.
    /// [`Mshr::take_waiters`] hands them out in wake order.
    waiters: InlineVec<Waiter, INLINE_WAITERS>,
}

impl Default for Mshr {
    fn default() -> Mshr {
        Mshr::new()
    }
}

impl Mshr {
    pub(crate) fn new() -> Mshr {
        Mshr {
            norm_pending: false,
            excl_pending: false,
            trans_pending: false,
            store_in_cs: false,
            excl_is_prefetch: false,
            open_read: None,
            open_excl: None,
            waiters: InlineVec::new(),
        }
    }

    /// Whether any request is still in flight.
    pub(crate) fn pending(&self) -> bool {
        self.norm_pending || self.excl_pending || self.trans_pending
    }

    /// Queues a requester blocked on this miss.
    pub(crate) fn push_waiter(&mut self, cpu: CpuId, kind: WaiterKind, token: Token) {
        self.waiters.push(Waiter { cpu, kind, token });
    }

    /// Whether some queued requester is of `kind`.
    pub(crate) fn has_waiter(&self, kind: WaiterKind) -> bool {
        self.waiters.iter().any(|w| w.kind == kind)
    }

    /// Removes the waiters of the kinds `wake` selects and returns them in
    /// wake order: A-stream reads, then coherent reads, then stores, each
    /// kind in arrival order. A-stream reads go first because the A-stream
    /// requested first whenever both merged (it runs ahead), and at equal
    /// timestamps it must get to consume its A-R token before the
    /// R-stream's deviation check runs. The rest stay queued.
    pub(crate) fn take_waiters(
        &mut self,
        wake: impl Fn(WaiterKind) -> bool,
    ) -> InlineVec<Waiter, INLINE_WAITERS> {
        if self.waiters.len() <= 1 {
            // The common case: nothing to order.
            if self.waiters.iter().all(|w| wake(w.kind)) {
                return std::mem::take(&mut self.waiters);
            }
            return InlineVec::new();
        }
        let mut woken = InlineVec::new();
        let mut kept = InlineVec::new();
        for kind in [WaiterKind::ARead, WaiterKind::Read, WaiterKind::Store] {
            let into = if wake(kind) { &mut woken } else { &mut kept };
            for w in self.waiters.iter().filter(|w| w.kind == kind) {
                into.push(*w);
            }
        }
        self.waiters = kept;
        woken
    }
}

/// The outstanding misses of one L2, indexed by line.
///
/// MSHRs live in a [`Slab`], and a hash index maps each line with an
/// outstanding miss to its slot. The index holds 4-byte slot numbers, so
/// it stays small however far A-stream prefetches run ahead, and the slab
/// is never longer than the peak number of misses in flight. A fill works
/// on its MSHR in place: it [detaches](MshrTable::detach) the line from
/// the index, so the line has no MSHR while the fill inserts it into the
/// cache (exactly as when fills removed the MSHR from a map), then either
/// [re-attaches](MshrTable::attach) the slot or [frees](MshrTable::free)
/// it. Nothing on this path allocates once the slab has grown to the peak.
#[derive(Debug, Default)]
pub(crate) struct MshrTable {
    index: FxHashMap<LineAddr, u32>,
    slab: Slab<Mshr>,
}

impl MshrTable {
    /// Whether `line` has an outstanding miss. This is the L2's victim pin.
    #[inline]
    pub(crate) fn contains(&self, line: LineAddr) -> bool {
        self.index.contains_key(&line)
    }

    /// The MSHR of `line`, if it has an outstanding miss.
    #[inline]
    pub(crate) fn get_mut(&mut self, line: LineAddr) -> Option<&mut Mshr> {
        let slot = *self.index.get(&line)?;
        Some(&mut self.slab[slot])
    }

    /// Allocates an empty MSHR for `line`, which must have none.
    pub(crate) fn insert(&mut self, line: LineAddr) -> &mut Mshr {
        let slot = self.slab.alloc();
        let prev = self.index.insert(line, slot);
        debug_assert!(prev.is_none(), "second MSHR for line {line:?}");
        let m = &mut self.slab[slot];
        *m = Mshr::new();
        m
    }

    /// Removes `line` from the index and returns its MSHR's slot, which
    /// stays allocated until [`MshrTable::attach`] or
    /// [`MshrTable::free`]. `None` if the line has no outstanding miss.
    #[inline]
    pub(crate) fn detach(&mut self, line: LineAddr) -> Option<u32> {
        self.index.remove(&line)
    }

    /// Re-indexes a detached slot under `line`.
    pub(crate) fn attach(&mut self, line: LineAddr, slot: u32) {
        let prev = self.index.insert(line, slot);
        debug_assert!(prev.is_none(), "second MSHR for line {line:?}");
    }

    /// Frees a detached slot.
    pub(crate) fn free(&mut self, slot: u32) {
        self.slab.free(slot);
    }

    /// The MSHR in `slot` (attached or detached).
    #[inline]
    pub(crate) fn slot_mut(&mut self, slot: u32) -> &mut Mshr {
        &mut self.slab[slot]
    }

    /// Number of outstanding misses.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no miss is outstanding.
    pub(crate) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Frees every MSHR and returns their classifications
    /// `(open_read, open_excl)` in slot order, which depends only on the
    /// order of allocations and frees, never on hashing.
    pub(crate) fn drain_open(&mut self) -> Vec<(Option<OpenReq>, Option<OpenReq>)> {
        let open: Vec<_> = self
            .slab
            .iter()
            .map(|(_, m)| (m.open_read, m.open_excl))
            .collect();
        *self = MshrTable::default();
        open
    }
}

/// A victim evicted to make room for a fill.
#[derive(Debug)]
pub(crate) struct L2Victim {
    pub entry: L2Line,
}

/// The shared unified L2 cache of one CMP node.
///
/// Set-associative, true LRU (per-set ordering, most recent last). Lines
/// with outstanding MSHRs are pinned and never chosen as victims.
///
/// Storage is flat per set: set `s` occupies `ways` consecutive slots, of
/// which the first `lens[s]` hold its lines in LRU order, and promotion/
/// eviction rotate the occupied suffix instead of `Vec::remove` + `push`.
/// Sets are stored in chunks of [`CHUNK_SETS`]; a chunk's slots are built
/// on the first fill into any of its sets, so host memory follows the sets
/// a run touches rather than the modelled capacity. Lookups in an empty
/// set never touch storage. One wrinkle keeps the old semantics exact:
/// when a fill finds every way pinned by an MSHR, the set temporarily
/// holds more than `ways` lines. Flat storage cannot over-allocate, so
/// such a set spills — whole — into `overflow` (the old `Vec`
/// representation, same ordering rules) and migrates back once
/// invalidations shrink it to `ways` lines or fewer. `spilled` counts
/// spilled sets so the hot path pays one predictable branch.
#[derive(Debug)]
pub(crate) struct L2Cache {
    /// Set storage, chunk `s / CHUNK_SETS` at offset
    /// `(s % CHUNK_SETS) * ways`. An empty `Vec` is a chunk no fill has
    /// reached yet.
    chunks: Vec<Vec<L2Line>>,
    /// Occupied ways per set (`<= ways`); slots beyond are placeholders.
    /// For a spilled set this is `SPILLED` and `overflow` holds the lines.
    lens: Vec<u8>,
    /// Whole sets that currently exceed `ways` lines (all ways pinned).
    overflow: FxHashMap<usize, Vec<L2Line>>,
    /// Number of spilled sets (fast guard for the common `== 0` case).
    spilled: usize,
    ways: usize,
    set_mask: u64,
    pub mshrs: MshrTable,
    /// Lines flagged for self-invalidation, processed at sync points.
    pub si_queue: VecDeque<LineAddr>,
    /// An SI drain is currently scheduled.
    pub si_active: bool,
    /// Fills that could not evict a victim because every way was pinned by
    /// an MSHR (the set temporarily over-allocates).
    pub set_overflows: u64,
}

/// `lens` marker for a set living in `overflow`.
const SPILLED: u8 = u8::MAX;

/// Sets per storage chunk.
const CHUNK_SETS: usize = 64;

/// A never-read filler for a free slot.
fn placeholder() -> L2Line {
    L2Line::new(LineAddr(0), L2State::Shared, false)
}

impl L2Cache {
    pub(crate) fn new(geom: CacheGeometry) -> L2Cache {
        let sets = geom.sets() as usize;
        L2Cache {
            chunks: (0..sets.div_ceil(CHUNK_SETS)).map(|_| Vec::new()).collect(),
            lens: vec![0; sets],
            overflow: FxHashMap::default(),
            spilled: 0,
            ways: geom.ways as usize,
            set_mask: sets as u64 - 1,
            mshrs: MshrTable::default(),
            si_queue: VecDeque::new(),
            si_active: false,
            set_overflows: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 & self.set_mask) as usize
    }

    /// `(chunk, offset)` of a set's first slot.
    #[inline]
    fn locate(&self, set_idx: usize) -> (usize, usize) {
        (set_idx / CHUNK_SETS, (set_idx % CHUNK_SETS) * self.ways)
    }

    /// Fills chunk `c` with placeholders if no fill has reached it yet.
    /// Placeholder lines are never read: scans stop at `lens[set]`.
    fn build_chunk(&mut self, c: usize) {
        if self.chunks[c].is_empty() {
            let len = CHUNK_SETS.min(self.lens.len()) * self.ways;
            self.chunks[c] = (0..len).map(|_| placeholder()).collect();
        }
    }

    #[inline]
    fn is_spilled(&self, set_idx: usize) -> bool {
        self.spilled != 0 && self.lens[set_idx] == SPILLED
    }

    /// The occupied flat slice of one (non-spilled) set, LRU order. An
    /// empty set's slice does not touch storage.
    #[inline]
    fn set(&mut self, set_idx: usize) -> &mut [L2Line] {
        debug_assert_ne!(self.lens[set_idx], SPILLED);
        let len = self.lens[set_idx] as usize;
        if len == 0 {
            return &mut [];
        }
        let (c, base) = self.locate(set_idx);
        &mut self.chunks[c][base..base + len]
    }

    /// Moves a flat set into the overflow representation (all ways pinned,
    /// a fill must over-allocate). Order is preserved verbatim.
    fn spill_set(&mut self, set_idx: usize) -> &mut Vec<L2Line> {
        // Room for the over-allocating fill that triggered the spill.
        let mut v = Vec::with_capacity(self.ways + 1);
        v.extend(self.set(set_idx).iter_mut().map(|l| std::mem::replace(l, placeholder())));
        self.lens[set_idx] = SPILLED;
        self.spilled += 1;
        self.overflow.entry(set_idx).or_insert(v)
    }

    /// Migrates a spilled set back to flat storage once it fits again.
    fn unspill_set(&mut self, set_idx: usize, v: Vec<L2Line>) {
        debug_assert!(v.len() <= self.ways);
        let (c, base) = self.locate(set_idx);
        self.build_chunk(c);
        let len = v.len();
        for (slot, entry) in self.chunks[c][base..].iter_mut().zip(v) {
            *slot = entry;
        }
        self.lens[set_idx] = len as u8;
        self.spilled -= 1;
    }

    /// Looks up a line and promotes it to most-recently-used.
    pub(crate) fn touch(&mut self, line: LineAddr) -> Option<&mut L2Line> {
        let set_idx = self.set_of(line);
        if self.is_spilled(set_idx) {
            let set = self.overflow.get_mut(&set_idx).expect("spilled set present");
            if let Some(pos) = set.iter().position(|l| l.line == line) {
                let entry = set.remove(pos);
                set.push(entry);
                return set.last_mut();
            }
            return None;
        }
        let set = self.set(set_idx);
        if let Some(pos) = set.iter().position(|l| l.line == line) {
            set[pos..].rotate_left(1);
            set.last_mut()
        } else {
            None
        }
    }

    /// Looks up a line without touching LRU.
    pub(crate) fn get_mut(&mut self, line: LineAddr) -> Option<&mut L2Line> {
        let set_idx = self.set_of(line);
        if self.is_spilled(set_idx) {
            let set = self.overflow.get_mut(&set_idx).expect("spilled set present");
            return set.iter_mut().find(|l| l.line == line);
        }
        self.set(set_idx).iter_mut().find(|l| l.line == line)
    }

    /// Looks up a line immutably.
    pub(crate) fn get(&self, line: LineAddr) -> Option<&L2Line> {
        let set_idx = self.set_of(line);
        if self.is_spilled(set_idx) {
            let set = self.overflow.get(&set_idx).expect("spilled set present");
            return set.iter().find(|l| l.line == line);
        }
        let len = self.lens[set_idx] as usize;
        if len == 0 {
            return None;
        }
        let (c, base) = self.locate(set_idx);
        self.chunks[c][base..base + len].iter().find(|l| l.line == line)
    }

    /// Inserts a freshly filled line, evicting an unpinned LRU victim if the
    /// set is full. If the line is already resident, the existing entry is
    /// returned instead (fills update in place).
    pub(crate) fn insert(&mut self, entry: L2Line) -> (Option<L2Victim>, &mut L2Line) {
        let set_idx = self.set_of(entry.line);
        let line = entry.line;
        if self.is_spilled(set_idx) {
            return self.insert_spilled(set_idx, entry);
        }
        let ways = self.ways;
        let len = self.lens[set_idx] as usize;
        let (c, base) = self.locate(set_idx);
        self.build_chunk(c);
        let set = &mut self.chunks[c][base..base + len];
        if let Some(pos) = set.iter().position(|l| l.line == line) {
            // Replace in place (e.g. a coherent fill over a transparent line).
            set[pos..].rotate_left(1);
            set[len - 1] = entry;
            return (None, &mut self.chunks[c][base + len - 1]);
        }
        if len >= ways {
            // Evict the least-recently-used line not pinned by an MSHR.
            if let Some(pos) = set.iter().position(|l| !self.mshrs.contains(l.line)) {
                set[pos..].rotate_left(1);
                let victim = std::mem::replace(&mut set[len - 1], entry);
                return (Some(L2Victim { entry: victim }), &mut self.chunks[c][base + len - 1]);
            }
            // Every way is pinned: preserve the old over-allocation
            // semantics by spilling the whole set.
            self.set_overflows += 1;
            let set = self.spill_set(set_idx);
            set.push(entry);
            let r = set.last_mut().expect("just pushed");
            return (None, r);
        }
        let chunk = &mut self.chunks[c];
        chunk[base + len] = entry;
        self.lens[set_idx] += 1;
        (None, &mut chunk[base + len])
    }

    /// `insert` for a set living in the overflow representation.
    fn insert_spilled(
        &mut self,
        set_idx: usize,
        entry: L2Line,
    ) -> (Option<L2Victim>, &mut L2Line) {
        let line = entry.line;
        let mshrs = &self.mshrs;
        let set = self.overflow.get_mut(&set_idx).expect("spilled set present");
        if let Some(pos) = set.iter().position(|l| l.line == line) {
            let _replaced = set.remove(pos);
            set.push(entry);
            let r = set.last_mut().expect("just pushed");
            return (None, r);
        }
        let mut victim = None;
        if set.len() >= self.ways {
            if let Some(pos) = set.iter().position(|l| !mshrs.contains(l.line)) {
                victim = Some(L2Victim { entry: set.remove(pos) });
            } else {
                self.set_overflows += 1;
            }
        }
        set.push(entry);
        // An insert after an eviction cannot shrink the set below `ways`,
        // so the set stays spilled; only `remove` migrates it back.
        let r = set.last_mut().expect("just pushed");
        (victim, r)
    }

    /// Removes a line (invalidation), returning it.
    pub(crate) fn remove(&mut self, line: LineAddr) -> Option<L2Line> {
        let set_idx = self.set_of(line);
        if self.is_spilled(set_idx) {
            let set = self.overflow.get_mut(&set_idx).expect("spilled set present");
            let removed = set.iter().position(|l| l.line == line).map(|pos| set.remove(pos));
            if removed.is_some() && set.len() <= self.ways {
                let v = self.overflow.remove(&set_idx).expect("spilled set present");
                self.unspill_set(set_idx, v);
            }
            return removed;
        }
        let set = self.set(set_idx);
        if let Some(pos) = set.iter().position(|l| l.line == line) {
            let len = set.len();
            set[pos..].rotate_left(1);
            let removed = std::mem::replace(&mut set[len - 1], placeholder());
            self.lens[set_idx] -= 1;
            Some(removed)
        } else {
            None
        }
    }

    /// Flags a resident exclusive line for self-invalidation and queues it.
    pub(crate) fn flag_si(&mut self, line: LineAddr) {
        if let Some(l) = self.get_mut(line) {
            if !l.si_flag {
                l.si_flag = true;
                self.si_queue.push_back(line);
            }
        }
    }

    /// Number of resident lines.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        let flat: usize =
            self.lens.iter().filter(|&&l| l != SPILLED).map(|&l| l as usize).sum();
        flat + self.overflow.values().map(|v| v.len()).sum::<usize>()
    }

    /// Number of storage chunks built so far.
    #[cfg(test)]
    fn built_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| !c.is_empty()).count()
    }

    /// Removes and returns every resident line (for finalization), sets in
    /// index order and each set in LRU order. Only built chunks are
    /// visited: every fill and every spill builds its chunk first, so the
    /// sets of an unbuilt chunk are empty.
    pub(crate) fn drain_all(&mut self) -> Vec<L2Line> {
        let mut out = Vec::new();
        for c in 0..self.chunks.len() {
            if self.chunks[c].is_empty() {
                continue;
            }
            let first = c * CHUNK_SETS;
            for set_idx in first..(first + CHUNK_SETS).min(self.lens.len()) {
                if self.is_spilled(set_idx) {
                    let mut v = self.overflow.remove(&set_idx).expect("spilled set present");
                    self.spilled -= 1;
                    out.append(&mut v);
                } else {
                    let set = self.set(set_idx);
                    out.extend(set.iter_mut().map(|l| std::mem::replace(l, placeholder())));
                }
                self.lens[set_idx] = 0;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::StreamRole;

    fn tiny() -> L2Cache {
        // 2 sets x 2 ways.
        L2Cache::new(CacheGeometry { bytes: 256, ways: 2, line_bytes: 64 })
    }

    #[test]
    fn insert_touch_and_remove() {
        let mut c = tiny();
        let (v, _) = c.insert(L2Line::new(LineAddr(4), L2State::Shared, true));
        assert!(v.is_none());
        assert!(c.touch(LineAddr(4)).is_some());
        assert!(c.get(LineAddr(4)).is_some());
        let removed = c.remove(LineAddr(4)).expect("resident");
        assert_eq!(removed.line, LineAddr(4));
        assert!(c.get(LineAddr(4)).is_none());
    }

    #[test]
    fn lru_eviction_skips_pinned_lines() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0.
        c.insert(L2Line::new(LineAddr(0), L2State::Shared, true));
        c.insert(L2Line::new(LineAddr(2), L2State::Shared, true));
        // Pin the LRU line 0 with an MSHR (e.g. an upgrade in flight).
        c.mshrs.insert(LineAddr(0));
        let (v, _) = c.insert(L2Line::new(LineAddr(4), L2State::Shared, true));
        assert_eq!(v.expect("evicts").entry.line, LineAddr(2));
        assert!(c.get(LineAddr(0)).is_some());
    }

    #[test]
    fn all_pinned_overflows_set() {
        let mut c = tiny();
        c.insert(L2Line::new(LineAddr(0), L2State::Shared, true));
        c.insert(L2Line::new(LineAddr(2), L2State::Shared, true));
        c.mshrs.insert(LineAddr(0));
        c.mshrs.insert(LineAddr(2));
        let (v, _) = c.insert(L2Line::new(LineAddr(4), L2State::Shared, true));
        assert!(v.is_none());
        assert_eq!(c.set_overflows, 1);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut c = tiny();
        let mut first = L2Line::new(LineAddr(0), L2State::Shared, true);
        first.transparent = true;
        c.insert(first);
        let (v, slot) = c.insert(L2Line::new(LineAddr(0), L2State::Exclusive, true));
        assert!(v.is_none());
        assert!(!slot.transparent);
        assert_eq!(slot.state, L2State::Exclusive);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn si_flagging_dedupes() {
        let mut c = tiny();
        c.insert(L2Line::new(LineAddr(8), L2State::Exclusive, true));
        c.flag_si(LineAddr(8));
        c.flag_si(LineAddr(8));
        assert_eq!(c.si_queue.len(), 1);
        assert!(c.get(LineAddr(8)).expect("resident").si_flag);
        // Flagging a non-resident line is a no-op.
        c.flag_si(LineAddr(9));
        assert_eq!(c.si_queue.len(), 1);
    }

    #[test]
    fn overflowed_set_migrates_back_when_it_fits() {
        let mut c = tiny();
        c.insert(L2Line::new(LineAddr(0), L2State::Shared, true));
        c.insert(L2Line::new(LineAddr(2), L2State::Shared, true));
        c.mshrs.insert(LineAddr(0));
        c.mshrs.insert(LineAddr(2));
        // All ways pinned: the set over-allocates (spills).
        c.insert(L2Line::new(LineAddr(4), L2State::Shared, true));
        assert_eq!(c.len(), 3);
        // The over-full set still behaves like one LRU list.
        assert!(c.touch(LineAddr(0)).is_some());
        assert!(c.get(LineAddr(4)).is_some());
        assert!(c.get_mut(LineAddr(2)).is_some());
        // Invalidate one line: the set fits again and migrates back.
        assert!(c.remove(LineAddr(4)).is_some());
        assert_eq!(c.len(), 2);
        assert!(c.get(LineAddr(0)).is_some());
        assert!(c.get(LineAddr(2)).is_some());
        // LRU order survived the round trip: line 2 is now LRU (0 was
        // touched above), so an unpinned insert evicts 2 first.
        c.mshrs.drain_open();
        let (v, _) = c.insert(L2Line::new(LineAddr(6), L2State::Shared, true));
        assert_eq!(v.expect("evicts").entry.line, LineAddr(2));
    }

    #[test]
    fn drain_all_includes_overflowed_sets() {
        let mut c = tiny();
        c.insert(L2Line::new(LineAddr(0), L2State::Shared, true));
        c.insert(L2Line::new(LineAddr(2), L2State::Shared, true));
        c.mshrs.insert(LineAddr(0));
        c.mshrs.insert(LineAddr(2));
        c.insert(L2Line::new(LineAddr(4), L2State::Shared, true));
        c.insert(L2Line::new(LineAddr(1), L2State::Shared, true)); // set 1
        let mut lines: Vec<u64> = c.drain_all().into_iter().map(|l| l.line.0).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 1, 2, 4]);
        assert_eq!(c.len(), 0);
    }

    /// 128 sets x 2 ways: two storage chunks, sets 63 and 64 on either
    /// side of the boundary.
    fn two_chunks() -> L2Cache {
        L2Cache::new(CacheGeometry { bytes: 128 * 2 * 64, ways: 2, line_bytes: 64 })
    }

    fn shared(line: u64) -> L2Line {
        L2Line::new(LineAddr(line), L2State::Shared, true)
    }

    #[test]
    fn new_cache_builds_no_chunk() {
        let c = two_chunks();
        assert_eq!(c.chunks.len(), 2);
        assert_eq!(c.built_chunks(), 0);
    }

    #[test]
    fn untouched_sets_answer_without_building_storage() {
        let mut c = two_chunks();
        assert!(c.get(LineAddr(5)).is_none());
        assert!(c.get_mut(LineAddr(70)).is_none());
        assert!(c.touch(LineAddr(64)).is_none());
        assert!(c.remove(LineAddr(127)).is_none());
        c.flag_si(LineAddr(3));
        assert!(c.si_queue.is_empty());
        assert!(c.drain_all().is_empty());
        assert_eq!(c.built_chunks(), 0);
    }

    #[test]
    fn a_fill_builds_exactly_one_chunk() {
        let mut c = two_chunks();
        c.insert(shared(70));
        assert_eq!(c.built_chunks(), 1);
        assert!(c.chunks[0].is_empty());
        // More fills into the same chunk build nothing new.
        c.insert(shared(71));
        c.insert(shared(70 + 128));
        assert_eq!(c.built_chunks(), 1);
        // Emptying the set keeps its chunk; a lookup then reads nothing.
        c.remove(LineAddr(70));
        c.remove(LineAddr(70 + 128));
        assert!(c.get(LineAddr(70)).is_none());
        assert_eq!(c.built_chunks(), 1);
    }

    /// All-ways-pinned spill and unspill keep LRU order for a set just past
    /// the chunk boundary, and `drain_all` yields sets in index order with
    /// each set in LRU order, across both chunks.
    #[test]
    fn spill_and_drain_keep_lru_order_across_a_chunk_boundary() {
        let mut c = two_chunks();
        // Set 63 (chunk 0): 63 then 191, so 63 is LRU.
        c.insert(shared(63));
        c.insert(shared(191));
        // Set 64 (chunk 1): fill both ways, pin them, over-allocate.
        c.insert(shared(64));
        c.insert(shared(192));
        c.mshrs.insert(LineAddr(64));
        c.mshrs.insert(LineAddr(192));
        c.insert(shared(320));
        assert_eq!(c.set_overflows, 1);
        assert_eq!(c.built_chunks(), 2);
        // Promote 64 inside the spilled set: order is now 192, 320, 64.
        assert!(c.touch(LineAddr(64)).is_some());
        // Removing 320 unspills the set as 192, 64.
        assert!(c.remove(LineAddr(320)).is_some());
        assert!(!c.is_spilled(64));
        c.mshrs.drain_open();
        let (v, _) = c.insert(shared(448));
        assert_eq!(v.expect("evicts the LRU line").entry.line, LineAddr(192));
        // Spill set 64 again (64, 448 pinned) and drain with it spilled.
        c.mshrs.insert(LineAddr(64));
        c.mshrs.insert(LineAddr(448));
        c.insert(shared(576));
        assert!(c.is_spilled(64));
        c.touch(LineAddr(63));
        let lines: Vec<u64> = c.drain_all().into_iter().map(|l| l.line.0).collect();
        assert_eq!(lines, vec![191, 63, 64, 448, 576]);
        assert_eq!(c.len(), 0);
        assert_eq!(c.spilled, 0);
    }

    /// `drain_all` visits built chunks only; with chunks 0 and 2 of four
    /// built and one set of chunk 2 spilled, it still returns every line,
    /// sets in index order and LRU order within each set, and leaves the
    /// cache empty.
    #[test]
    fn drain_all_skips_unbuilt_chunks() {
        // 256 sets x 2 ways: four chunks.
        let mut c = L2Cache::new(CacheGeometry { bytes: 256 * 2 * 64, ways: 2, line_bytes: 64 });
        assert_eq!(c.chunks.len(), 4);
        // Set 3 (chunk 0): 259 then 3, so 259 is LRU.
        c.insert(shared(259));
        c.insert(shared(3));
        // Set 130 (chunk 2): both ways pinned, then an over-allocating fill.
        c.insert(shared(130));
        c.insert(shared(386));
        c.mshrs.insert(LineAddr(130));
        c.mshrs.insert(LineAddr(386));
        c.insert(shared(642));
        assert!(c.is_spilled(130));
        // Set 129 (chunk 2) is filled last but drains before set 130.
        c.insert(shared(129));
        assert_eq!(c.built_chunks(), 2);
        assert!(c.chunks[1].is_empty() && c.chunks[3].is_empty());
        let lines: Vec<u64> = c.drain_all().into_iter().map(|l| l.line.0).collect();
        assert_eq!(lines, vec![259, 3, 129, 130, 386, 642]);
        assert_eq!(c.len(), 0);
        assert_eq!(c.spilled, 0);
        assert!(c.drain_all().is_empty());
    }

    #[test]
    fn mshr_pending_predicate() {
        let mut m = Mshr::new();
        assert!(!m.pending());
        m.trans_pending = true;
        assert!(m.pending());
    }

    /// The slab holds one `Mshr` per miss in flight at the peak, and the
    /// index one `u32` per outstanding line.
    #[test]
    fn mshr_stays_within_128_bytes() {
        assert!(std::mem::size_of::<Mshr>() <= 128, "{}", std::mem::size_of::<Mshr>());
    }

    fn cpu(core: u8) -> CpuId {
        CpuId::new(slipstream_kernel::NodeId(0), core)
    }

    /// Waiters leave in wake order — A-stream reads, coherent reads,
    /// stores, each in arrival order — and the rest stay queued, also past
    /// the inline capacity.
    #[test]
    fn waiters_wake_by_kind_in_arrival_order() {
        let mut m = Mshr::new();
        let arrivals = [
            (WaiterKind::Store, 1),
            (WaiterKind::Read, 2),
            (WaiterKind::ARead, 3),
            (WaiterKind::Store, 4),
            (WaiterKind::ARead, 5),
            (WaiterKind::Read, 6),
        ];
        for (kind, t) in arrivals {
            m.push_waiter(cpu(t as u8 % 2), kind, Token(t));
        }
        let tokens = |v: InlineVec<Waiter, INLINE_WAITERS>| -> Vec<u64> {
            v.into_iter().map(|w| w.token.0).collect()
        };
        assert_eq!(tokens(m.take_waiters(|k| k != WaiterKind::Store)), vec![3, 5, 2, 6]);
        assert!(m.has_waiter(WaiterKind::Store));
        assert!(!m.has_waiter(WaiterKind::Read) && !m.has_waiter(WaiterKind::ARead));
        assert_eq!(tokens(m.take_waiters(|_| true)), vec![1, 4]);
        assert!(!m.has_waiter(WaiterKind::Store));
        assert!(m.take_waiters(|_| true).is_empty());
        // A lone waiter stays unless its kind is woken.
        m.push_waiter(cpu(0), WaiterKind::Read, Token(7));
        assert!(m.take_waiters(|k| k == WaiterKind::Store).is_empty());
        assert_eq!(tokens(m.take_waiters(|k| k == WaiterKind::Read)), vec![7]);
        assert!(!m.has_waiter(WaiterKind::Read));
    }

    #[test]
    fn mshr_table_lookup_detach_attach_and_free() {
        let mut t = MshrTable::default();
        assert!(t.is_empty() && !t.contains(LineAddr(7)));
        t.insert(LineAddr(7)).norm_pending = true;
        assert!(t.contains(LineAddr(7)));
        assert!(t.get_mut(LineAddr(7)).expect("outstanding").norm_pending);
        // A detached MSHR is out of the index but keeps its contents.
        let slot = t.detach(LineAddr(7)).expect("outstanding");
        assert!(!t.contains(LineAddr(7)) && t.get_mut(LineAddr(7)).is_none());
        assert!(t.slot_mut(slot).norm_pending);
        t.attach(LineAddr(7), slot);
        assert_eq!(t.len(), 1);
        let slot = t.detach(LineAddr(7)).expect("outstanding");
        t.free(slot);
        assert!(t.is_empty() && t.get_mut(LineAddr(7)).is_none());
        assert!(t.detach(LineAddr(7)).is_none());
        // The freed slot is reused, reset.
        assert!(!t.insert(LineAddr(9)).norm_pending);
        assert_eq!(t.slab.slots(), 1);
    }

    #[test]
    fn mshr_slots_are_reused_last_in_first_out() {
        let mut t = MshrTable::default();
        for line in [1, 2, 3] {
            t.insert(LineAddr(line));
        }
        let s1 = t.detach(LineAddr(1)).expect("outstanding");
        let s3 = t.detach(LineAddr(3)).expect("outstanding");
        t.free(s1);
        t.free(s3);
        t.insert(LineAddr(4));
        t.insert(LineAddr(5));
        assert_eq!(t.detach(LineAddr(4)), Some(s3));
        assert_eq!(t.detach(LineAddr(5)), Some(s1));
        assert_eq!(t.slab.slots(), 3);
    }

    #[test]
    fn mshr_slab_never_exceeds_the_peak_in_flight() {
        let mut t = MshrTable::default();
        let mut live: Vec<u64> = Vec::new();
        let mut peak = 0;
        for step in 0u64..300 {
            if step % 3 == 2 || live.len() >= 8 {
                let line = live.remove((step as usize * 7) % live.len());
                let slot = t.detach(LineAddr(line)).expect("outstanding");
                t.free(slot);
            } else if !live.contains(&(step * 13 % 64)) {
                t.insert(LineAddr(step * 13 % 64));
                live.push(step * 13 % 64);
            }
            peak = peak.max(live.len());
            assert_eq!(t.len(), live.len());
            assert_eq!(t.slab.slots(), peak);
        }
    }

    /// Outstanding classifications are handed back in slot order, which
    /// follows allocations and frees, not the hash order of the lines.
    #[test]
    fn drain_open_is_in_slot_order() {
        let mut t = MshrTable::default();
        let issuers = [StreamRole::R, StreamRole::A, StreamRole::Solo];
        for (line, issuer) in [900u64, 3, 41].into_iter().zip(issuers) {
            t.insert(LineAddr(line)).open_read = Some(OpenReq::new(issuer));
        }
        // Free the middle slot and reuse it for an exclusive request.
        let s = t.detach(LineAddr(3)).expect("outstanding");
        t.free(s);
        t.insert(LineAddr(12)).open_excl = Some(OpenReq::new(StreamRole::A));
        let open: Vec<(Option<StreamRole>, Option<StreamRole>)> = t
            .drain_open()
            .into_iter()
            .map(|(r, e)| (r.map(|o| o.issuer), e.map(|o| o.issuer)))
            .collect();
        assert_eq!(
            open,
            vec![
                (Some(StreamRole::R), None),
                (None, Some(StreamRole::A)),
                (Some(StreamRole::Solo), None),
            ]
        );
        assert!(t.is_empty() && t.slab.is_empty());
    }

    /// The victim pin answers from the index: a detached MSHR (a fill in
    /// progress) pins nothing, an attached one pins its line, and the line
    /// being filled is never a victim candidate.
    #[test]
    fn victim_pin_follows_the_index() {
        let mut c = tiny();
        c.insert(shared(0));
        c.insert(shared(2));
        // Line 4 is being filled: its MSHR is detached during the insert.
        c.mshrs.insert(LineAddr(4));
        let slot = c.mshrs.detach(LineAddr(4)).expect("outstanding");
        assert!(!c.mshrs.contains(LineAddr(4)));
        // Pin the LRU line 0; line 2 goes.
        c.mshrs.insert(LineAddr(0));
        let (v, _) = c.insert(shared(4));
        assert_eq!(v.expect("evicts").entry.line, LineAddr(2));
        c.mshrs.attach(LineAddr(4), slot);
        // Both resident lines pinned now: the next fill over-allocates.
        let (v, _) = c.insert(shared(6));
        assert!(v.is_none());
        assert_eq!(c.set_overflows, 1);
    }
}
