//! Directory state: one full-map entry per memory line, stored in a table
//! indexed by address.
//!
//! The paper's machine keeps each line's directory entry at its home node,
//! next to that node's memory. [`Directory`] mirrors that layout on the
//! host: entries live in page-sized chunks indexed by page number, so the
//! lines of one page are contiguous and a chunk exists only once a
//! directory message has reached one of its lines. Home interleave is per
//! page, so a single-node PDES partition builds only the pages homed at
//! its node. An entry holds only the line's lasting state; the state of a
//! transaction in flight (the pending request and the requests deferred
//! behind it) lives in a [`Slab`] sized by the number of lines busy at
//! once, and the entry points to its slot. The coherence protocol that
//! reads and writes these entries is [`MemSystem`](crate::MemSystem)'s
//! `handle_dir`.

use std::collections::VecDeque;

use slipstream_kernel::{LineAddr, NodeId, SharerSet, Slab};

use crate::msg::Msg;

/// Directory permission state for one line.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) enum Perm {
    #[default]
    Uncached,
    Shared(SharerSet), // bit per node
    Excl(NodeId),
}

/// What an in-flight directory transaction is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitKind {
    /// Memory data (reply scheduled via `MemReady`).
    Mem,
    /// The exclusive owner's response to an intervention.
    Owner,
    /// Invalidation acks from sharers.
    Acks,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingTxn {
    pub requester: NodeId,
    pub excl: bool,
    pub needs_data: bool,
    pub acks_left: u32,
    pub wait: WaitKind,
    pub owner_gone: bool,
    pub wb_received: bool,
    pub si_hint: bool,
}

/// The directory entry of one line. The default entry — `Uncached`, no
/// transaction in flight — is the state of a line no message has reached.
#[derive(Debug)]
pub(crate) struct DirLine {
    pub perm: Perm,
    /// Future-sharer bits (§4.2), one per node, set by transparent loads.
    /// Always tracked precisely, in every
    /// [`DirScheme`](slipstream_kernel::config::DirScheme).
    pub future: SharerSet,
    /// Limited-pointer overflow: the sharer list stopped tracking new
    /// readers once the pointer budget was exhausted, so the next write
    /// must broadcast invalidations. Always `false` under
    /// [`DirScheme::FullMap`](slipstream_kernel::config::DirScheme::FullMap).
    pub ovfl: bool,
    /// Consecutive exclusive-ownership hand-offs between distinct nodes
    /// (saturating); two or more marks the line migratory.
    pub handoffs: u8,
    /// The last node that held the line exclusively.
    pub last_excl: Option<NodeId>,
    /// Slot of the line's [`InFlight`] state in [`Directory`]'s slab, or
    /// [`IDLE`].
    flight: u32,
}

/// [`DirLine::flight`] of a line with nothing in flight.
const IDLE: u32 = u32::MAX;

impl Default for DirLine {
    fn default() -> DirLine {
        DirLine {
            perm: Perm::Uncached,
            future: SharerSet::new(),
            ovfl: false,
            handoffs: 0,
            last_excl: None,
            flight: IDLE,
        }
    }
}

/// The in-flight state of one busy line: the transaction the directory is
/// waiting on and the messages deferred until it completes. A slot is
/// allocated when a line becomes busy (or a message is deferred) and freed
/// once the transaction is done and nothing is deferred.
#[derive(Debug, Default)]
pub(crate) struct InFlight {
    line: LineAddr,
    busy: Option<PendingTxn>,
    /// Deferred messages, oldest first. A reused slot keeps the queue's
    /// capacity, so deferring allocates only while the peak grows.
    waiters: VecDeque<Msg>,
}

impl DirLine {
    /// Records an exclusive grant to `to`, updating migratory detection.
    pub(crate) fn note_excl_handoff(&mut self, to: NodeId) {
        match self.last_excl {
            Some(prev) if prev != to => self.handoffs = self.handoffs.saturating_add(1),
            Some(_) => {}
            None => {}
        }
        self.last_excl = Some(to);
    }

    /// Whether the line follows a migratory (read-modify-write hand-off)
    /// pattern.
    pub(crate) fn migratory(&self) -> bool {
        self.handoffs >= 2
    }
}

/// Every line's [`DirLine`], indexed by address, plus the in-flight
/// state of the lines that are busy.
///
/// `pages[p]` holds the entries of page `p`'s lines, `p << shift` up to
/// `(p + 1) << shift`, in one chunk built with default entries on the
/// first [`Directory::slot`] into the page. Host memory is one pointer
/// per page up to the highest page touched, plus one chunk
/// (`size_of::<DirLine>()` bytes per line, 5 KiB at the default 64 lines
/// per page) per touched page, plus one [`InFlight`] per line busy at the
/// peak. Layouts allocate pages upward from page 1, so the pointer vector
/// follows the layout's span.
#[derive(Debug)]
pub(crate) struct Directory {
    pages: Vec<Option<Box<[DirLine]>>>,
    /// log2 of the lines per chunk.
    shift: u32,
    /// In-flight state of the busy lines, pointed to by `DirLine::flight`.
    flights: Slab<InFlight>,
}

impl Directory {
    /// An empty table for pages of `page_bytes` holding lines of
    /// `line_bytes`, both powers of two: a chunk holds one page's lines
    /// (at least one line), so it never spans two homes.
    pub(crate) fn new(page_bytes: u64, line_bytes: u64) -> Directory {
        Directory {
            pages: Vec::new(),
            shift: (page_bytes / line_bytes).max(1).ilog2(),
            flights: Slab::new(),
        }
    }

    #[inline]
    fn locate(&self, line: LineAddr) -> (usize, usize) {
        let page = (line.0 >> self.shift) as usize;
        (page, (line.0 & ((1 << self.shift) - 1)) as usize)
    }

    /// The entry of `line`, building its page's chunk if no message has
    /// reached the page yet.
    #[inline]
    fn slot(&mut self, line: LineAddr) -> &mut DirLine {
        let (page, off) = self.locate(line);
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let lines = 1 << self.shift;
        let chunk = self.pages[page].get_or_insert_with(|| {
            (0..lines).map(|_| DirLine::default()).collect()
        });
        &mut chunk[off]
    }

    /// The entry of `line` if its page's chunk exists. Never builds one: a
    /// missing chunk means every entry in it still has the default state.
    #[cfg(test)]
    fn get_mut(&mut self, line: LineAddr) -> Option<&mut DirLine> {
        let (page, off) = self.locate(line);
        match self.pages.get_mut(page) {
            Some(Some(chunk)) => Some(&mut chunk[off]),
            _ => None,
        }
    }

    /// Takes `line`'s entry out of the table (building its page's chunk
    /// if needed) together with the transaction in flight on it, so the
    /// protocol can work on both while calling back into the memory
    /// system. [`Directory::checkin`] puts them back.
    #[inline]
    pub(crate) fn checkout(&mut self, line: LineAddr) -> (DirLine, Option<PendingTxn>) {
        let dl = std::mem::take(self.slot(line));
        let txn = if dl.flight == IDLE { None } else { self.flights[dl.flight].busy };
        (dl, txn)
    }

    /// Puts back an entry taken by [`Directory::checkout`] with the
    /// transaction now in flight on it: allocates the line's in-flight slot
    /// when it becomes busy and frees it once nothing is left in flight.
    #[inline]
    pub(crate) fn checkin(&mut self, line: LineAddr, mut dl: DirLine, txn: Option<PendingTxn>) {
        if dl.flight != IDLE {
            self.flights[dl.flight].busy = txn;
            close_if_idle(&mut self.flights, &mut dl);
        } else if txn.is_some() {
            dl.flight = self.open(line);
            self.flights[dl.flight].busy = txn;
        }
        *self.slot(line) = dl;
    }

    /// Defers `msg` until the transaction in flight on `line` completes,
    /// or hands it back if none is.
    #[inline]
    pub(crate) fn defer_if_busy(&mut self, line: LineAddr, msg: Msg) -> Option<Msg> {
        let (page, off) = self.locate(line);
        let Some(Some(chunk)) = self.pages.get(page) else {
            return Some(msg);
        };
        let flight = chunk[off].flight;
        if flight == IDLE || self.flights[flight].busy.is_none() {
            return Some(msg);
        }
        self.flights[flight].waiters.push_back(msg);
        None
    }

    /// Defers `msg` on a line whose entry `dl` is checked out.
    pub(crate) fn defer(&mut self, line: LineAddr, dl: &mut DirLine, msg: Msg) {
        if dl.flight == IDLE {
            dl.flight = self.open(line);
        }
        self.flights[dl.flight].waiters.push_back(msg);
    }

    /// Takes the oldest request deferred on `line`, unless a transaction
    /// is in flight on it.
    pub(crate) fn next_deferred(&mut self, line: LineAddr) -> Option<Msg> {
        let (page, off) = self.locate(line);
        let dl = &mut self.pages.get_mut(page)?.as_mut()?[off];
        if dl.flight == IDLE || self.flights[dl.flight].busy.is_some() {
            return None;
        }
        let msg = self.flights[dl.flight].waiters.pop_front();
        close_if_idle(&mut self.flights, dl);
        msg
    }

    /// Ends the transaction in flight on `line` if it is waiting for
    /// memory. Returns whether it was.
    pub(crate) fn end_mem_wait(&mut self, line: LineAddr) -> bool {
        let (page, off) = self.locate(line);
        let Some(Some(chunk)) = self.pages.get_mut(page) else {
            return false;
        };
        let dl = &mut chunk[off];
        if dl.flight == IDLE
            || !matches!(self.flights[dl.flight].busy, Some(PendingTxn { wait: WaitKind::Mem, .. }))
        {
            return false;
        }
        self.flights[dl.flight].busy = None;
        close_if_idle(&mut self.flights, dl);
        true
    }

    /// Allocates an empty in-flight slot for `line`.
    fn open(&mut self, line: LineAddr) -> u32 {
        let i = self.flights.alloc();
        let f = &mut self.flights[i];
        debug_assert!(f.waiters.is_empty(), "a freed in-flight slot kept deferred messages");
        f.line = line;
        f.busy = None;
        i
    }

    /// The lowest-addressed line with a transaction in flight or a
    /// deferred request: its address, entry, transaction and deferred
    /// messages. Scans only the in-flight slab.
    pub(crate) fn lowest_in_flight(
        &self,
    ) -> Option<(LineAddr, &DirLine, Option<&PendingTxn>, &VecDeque<Msg>)> {
        let (_, f) = self.flights.iter().min_by_key(|(_, f)| f.line)?;
        let (page, off) = self.locate(f.line);
        let dl = &self.pages[page].as_ref().expect("a busy line's chunk is built")[off];
        Some((f.line, dl, f.busy.as_ref(), &f.waiters))
    }

    /// Number of in-flight slots ever built: the peak number of lines
    /// busy at once.
    #[cfg(test)]
    fn flight_slots(&self) -> usize {
        self.flights.slots()
    }

    /// Number of chunks built so far.
    #[cfg(test)]
    fn built_chunks(&self) -> usize {
        self.pages.iter().filter(|c| c.is_some()).count()
    }
}

/// Frees `dl`'s in-flight slot if its transaction is done and nothing is
/// deferred.
fn close_if_idle(flights: &mut Slab<InFlight>, dl: &mut DirLine) {
    let f = &flights[dl.flight];
    if f.busy.is_none() && f.waiters.is_empty() {
        flights.free(dl.flight);
        dl.flight = IDLE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Default geometry: 4 KiB pages of 64-byte lines, 64 lines per chunk.
    fn table() -> Directory {
        Directory::new(4096, 64)
    }

    #[test]
    fn untouched_line_is_absent_and_builds_nothing() {
        let mut d = table();
        assert!(d.get_mut(LineAddr(5)).is_none());
        assert!(d.get_mut(LineAddr(1 << 20)).is_none());
        assert!(d.next_deferred(LineAddr(5)).is_none());
        assert!(!d.end_mem_wait(LineAddr(5)));
        assert_eq!(d.built_chunks(), 0);
        assert!(d.lowest_in_flight().is_none());
    }

    #[test]
    fn slot_builds_exactly_one_chunk() {
        let mut d = table();
        let dl = d.slot(LineAddr(130));
        assert_eq!(dl.perm, Perm::Uncached);
        assert_eq!(dl.flight, IDLE);
        dl.handoffs = 3;
        assert_eq!(d.built_chunks(), 1);
        // The rest of the page reads through `get_mut` without building.
        assert!(d.get_mut(LineAddr(128)).is_some());
        assert_eq!(d.get_mut(LineAddr(130)).map(|dl| dl.handoffs), Some(3));
        assert!(d.get_mut(LineAddr(64)).is_none());
        d.slot(LineAddr(191));
        assert_eq!(d.built_chunks(), 1);
    }

    #[test]
    fn lines_63_and_64_land_in_different_chunks() {
        let mut d = table();
        d.slot(LineAddr(63));
        assert!(d.get_mut(LineAddr(64)).is_none());
        d.slot(LineAddr(64));
        assert_eq!(d.built_chunks(), 2);
    }

    #[test]
    fn pages_smaller_than_a_line_chunk_one_line() {
        let mut d = Directory::new(32, 64);
        d.slot(LineAddr(7));
        assert!(d.get_mut(LineAddr(7)).is_some());
        assert!(d.get_mut(LineAddr(6)).is_none() && d.get_mut(LineAddr(8)).is_none());
        assert_eq!(d.built_chunks(), 1);
    }

    fn mem_wait(requester: u16) -> Option<PendingTxn> {
        Some(PendingTxn {
            requester: NodeId(requester),
            excl: false,
            needs_data: true,
            acks_left: 0,
            wait: WaitKind::Mem,
            owner_gone: false,
            wb_received: false,
            si_hint: false,
        })
    }

    fn read_req(line: u64, from: u16) -> Msg {
        use crate::msg::{MsgKind, StreamRole};
        let from = NodeId(from);
        Msg {
            src: from,
            dst: NodeId(0),
            kind: MsgKind::ReadReq { line: LineAddr(line), from, role: StreamRole::R },
        }
    }

    /// Marks `line` busy with a memory wait through a checkout/checkin
    /// round trip, as `handle_dir` does.
    fn make_busy(d: &mut Directory, line: u64, requester: u16) {
        let (dl, txn) = d.checkout(LineAddr(line));
        assert!(txn.is_none());
        d.checkin(LineAddr(line), dl, mem_wait(requester));
    }

    #[test]
    fn a_transaction_survives_checkout_and_is_gone_after_it_ends() {
        let mut d = table();
        make_busy(&mut d, 9, 2);
        let (mut dl, txn) = d.checkout(LineAddr(9));
        assert_eq!(txn.map(|t| t.requester), Some(NodeId(2)));
        dl.handoffs = 1;
        d.checkin(LineAddr(9), dl, txn);
        assert!(d.end_mem_wait(LineAddr(9)));
        // The slot is freed: the line reads idle and keeps its state.
        assert!(!d.end_mem_wait(LineAddr(9)));
        assert!(d.lowest_in_flight().is_none());
        let (dl, txn) = d.checkout(LineAddr(9));
        assert!(txn.is_none());
        assert_eq!((dl.handoffs, dl.flight), (1, IDLE));
    }

    #[test]
    fn deferred_requests_wait_for_the_transaction_and_leave_in_order() {
        let mut d = table();
        // An idle line hands a request straight back.
        assert!(d.defer_if_busy(LineAddr(4), read_req(4, 1)).is_some());
        make_busy(&mut d, 4, 1);
        assert!(d.defer_if_busy(LineAddr(4), read_req(4, 2)).is_none());
        assert!(d.defer_if_busy(LineAddr(4), read_req(4, 3)).is_none());
        // Nothing leaves while the transaction is in flight.
        assert!(d.next_deferred(LineAddr(4)).is_none());
        assert!(d.end_mem_wait(LineAddr(4)));
        assert_eq!(d.next_deferred(LineAddr(4)).map(|m| m.src), Some(NodeId(2)));
        assert_eq!(d.next_deferred(LineAddr(4)).map(|m| m.src), Some(NodeId(3)));
        assert!(d.next_deferred(LineAddr(4)).is_none());
        assert!(d.lowest_in_flight().is_none());
        assert_eq!(d.flight_slots(), 1);
    }

    #[test]
    fn freed_in_flight_slots_are_reused_last_in_first_out() {
        let mut d = table();
        for line in [10, 20, 30] {
            make_busy(&mut d, line, 0);
        }
        assert_eq!(d.flight_slots(), 3);
        let slot = |d: &mut Directory, line| d.get_mut(LineAddr(line)).map(|dl| dl.flight);
        let (s10, s30) = (slot(&mut d, 10), slot(&mut d, 30));
        d.end_mem_wait(LineAddr(10));
        d.end_mem_wait(LineAddr(30));
        make_busy(&mut d, 40, 0);
        make_busy(&mut d, 50, 0);
        assert_eq!(slot(&mut d, 40), s30);
        assert_eq!(slot(&mut d, 50), s10);
        assert_eq!(d.flight_slots(), 3);
    }

    /// However many lines pass through, the slab holds no more slots than
    /// the most lines ever busy at once.
    #[test]
    fn in_flight_slab_never_exceeds_the_peak_busy_lines() {
        let mut d = table();
        let mut busy: Vec<u64> = Vec::new();
        let mut peak = 0;
        for step in 0u64..300 {
            if step % 4 == 3 || busy.len() >= 6 {
                let line = busy.remove((step as usize * 5) % busy.len());
                assert!(d.end_mem_wait(LineAddr(line)));
            } else {
                let line = step * 37 % 1000;
                if !busy.contains(&line) {
                    make_busy(&mut d, line, 0);
                    busy.push(line);
                }
            }
            peak = peak.max(busy.len());
            assert_eq!(d.flight_slots(), peak);
        }
    }

    /// The quiescence report names the lowest-addressed stuck line, even
    /// when lines became busy in descending address order.
    #[test]
    fn lowest_in_flight_names_the_lowest_line() {
        let mut d = table();
        make_busy(&mut d, 700, 1);
        make_busy(&mut d, 300, 2);
        let (line, _, txn, deferred) = d.lowest_in_flight().expect("two lines busy");
        assert_eq!(line, LineAddr(300));
        assert_eq!(txn.map(|t| t.requester), Some(NodeId(2)));
        assert!(deferred.is_empty());
    }

    /// Every touched page costs `64 * size_of::<DirLine>()` bytes: growing
    /// the entry grows that cost for every run.
    #[test]
    fn dir_line_stays_within_80_bytes() {
        assert!(std::mem::size_of::<DirLine>() <= 80, "{}", std::mem::size_of::<DirLine>());
    }
}
