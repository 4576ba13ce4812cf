//! Directory state: one full-map entry per memory line, stored in a table
//! indexed by address.
//!
//! The paper's machine keeps each line's directory entry at its home node,
//! next to that node's memory. [`Directory`] mirrors that layout on the
//! host: entries live in page-sized chunks indexed by page number, so the
//! lines of one page are contiguous and a chunk exists only once a
//! directory message has reached one of its lines. Home interleave is per
//! page, so a single-node PDES partition builds only the pages homed at
//! its node. The coherence protocol that reads and writes these entries is
//! [`MemSystem`](crate::MemSystem)'s `handle_dir`.

use std::collections::VecDeque;

use slipstream_kernel::{LineAddr, NodeId, SharerSet};

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

#[derive(Debug)]
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

/// The directory entry of one line. The default entry — `Uncached`, not
/// busy, no waiters — is the state of a line no message has reached.
#[derive(Debug, Default)]
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
    pub busy: Option<PendingTxn>,
    pub waiters: VecDeque<Msg>,
    /// Consecutive exclusive-ownership hand-offs between distinct nodes
    /// (saturating); two or more marks the line migratory.
    pub handoffs: u8,
    /// The last node that held the line exclusively.
    pub last_excl: Option<NodeId>,
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

/// Every line's [`DirLine`], indexed by address.
///
/// `pages[p]` holds the entries of page `p`'s lines, `p << shift` up to
/// `(p + 1) << shift`, in one chunk built with default entries on the
/// first [`Directory::slot`] into the page. Host memory is one pointer
/// per page up to the highest page touched, plus one chunk
/// (`size_of::<DirLine>()` bytes per line, 8 KiB at the default 64 lines
/// per page) per touched page. Layouts allocate pages upward from page 1,
/// so the pointer vector follows the layout's span.
#[derive(Debug)]
pub(crate) struct Directory {
    pages: Vec<Option<Box<[DirLine]>>>,
    /// log2 of the lines per chunk.
    shift: u32,
}

impl Directory {
    /// An empty table for pages of `page_bytes` holding lines of
    /// `line_bytes`, both powers of two: a chunk holds one page's lines
    /// (at least one line), so it never spans two homes.
    pub(crate) fn new(page_bytes: u64, line_bytes: u64) -> Directory {
        Directory { pages: Vec::new(), shift: (page_bytes / line_bytes).max(1).ilog2() }
    }

    #[inline]
    fn locate(&self, line: LineAddr) -> (usize, usize) {
        let page = (line.0 >> self.shift) as usize;
        (page, (line.0 & ((1 << self.shift) - 1)) as usize)
    }

    /// The entry of `line`, building its page's chunk if no message has
    /// reached the page yet.
    #[inline]
    pub(crate) fn slot(&mut self, line: LineAddr) -> &mut DirLine {
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
    #[inline]
    pub(crate) fn get_mut(&mut self, line: LineAddr) -> Option<&mut DirLine> {
        let (page, off) = self.locate(line);
        match self.pages.get_mut(page) {
            Some(Some(chunk)) => Some(&mut chunk[off]),
            _ => None,
        }
    }

    /// Every entry of every built chunk, in ascending line order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (LineAddr, &DirLine)> {
        let shift = self.shift;
        self.pages.iter().enumerate().flat_map(move |(page, chunk)| {
            let first = (page as u64) << shift;
            chunk
                .iter()
                .flat_map(|c| c.iter())
                .enumerate()
                .map(move |(i, dl)| (LineAddr(first + i as u64), dl))
        })
    }

    /// Number of chunks built so far.
    #[cfg(test)]
    fn built_chunks(&self) -> usize {
        self.pages.iter().filter(|c| c.is_some()).count()
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
        assert_eq!(d.built_chunks(), 0);
        assert_eq!(d.iter().count(), 0);
    }

    #[test]
    fn slot_builds_exactly_one_chunk() {
        let mut d = table();
        let dl = d.slot(LineAddr(130));
        assert_eq!(dl.perm, Perm::Uncached);
        assert!(dl.busy.is_none() && dl.waiters.is_empty());
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
    fn iter_is_in_ascending_line_order() {
        let mut d = table();
        for line in [300, 5, 130] {
            d.slot(LineAddr(line)).handoffs = 1;
        }
        let lines: Vec<u64> = d.iter().map(|(l, _)| l.0).collect();
        let expect: Vec<u64> = (0..64).chain(128..192).chain(256..320).collect();
        assert_eq!(lines, expect);
        let marked: Vec<u64> =
            d.iter().filter(|(_, dl)| dl.handoffs == 1).map(|(l, _)| l.0).collect();
        assert_eq!(marked, vec![5, 130, 300]);
    }

    #[test]
    fn pages_smaller_than_a_line_chunk_one_line() {
        let mut d = Directory::new(32, 64);
        d.slot(LineAddr(7));
        assert_eq!(d.iter().map(|(l, _)| l.0).collect::<Vec<_>>(), vec![7]);
    }

    /// Every touched page costs `64 * size_of::<DirLine>()` bytes: growing
    /// the entry grows that cost for every run.
    #[test]
    fn dir_line_stays_within_128_bytes() {
        assert!(std::mem::size_of::<DirLine>() <= 128, "{}", std::mem::size_of::<DirLine>());
    }
}
