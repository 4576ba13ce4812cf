//! Observation of the memory system.
//!
//! Every protocol-level fact the memory system exposes is one [`MemObs`]
//! event: an access and how it resolved, a fill, a directory transition,
//! a coherence message, an SI hint or action, a transparent reply or
//! upgrade, a writeback, a sync operation, an L2 eviction, invalidation or
//! downgrade, and an MSHR allocation or retirement. A [`MemObserver`]
//! attached with [`crate::MemSystem::attach_observer`] receives each event
//! through its one required method, [`MemObserver::observe`], together
//! with the cycle it happened at.
//!
//! With no observer attached the memory system pays exactly one branch
//! per hook site — the event is built only inside that branch, so the
//! default simulation path allocates nothing and makes no virtual call.
//! [`MemObs::Access`] fires once per processor access and dominates the
//! event count; it is built only when some attached observer's
//! [`MemObserver::wants_access`] returns true, and is then delivered to
//! every observer.
//!
//! Observers only *observe*: they receive copies of protocol-level facts
//! (cycle, line, nodes, roles) and cannot feed anything back into the
//! simulation. Determinism therefore holds by construction: a run with
//! observers attached produces bit-identical results to a run without,
//! which `slipstream-core`'s accounting tests assert.

use std::any::Any;
use std::fmt::Debug;

use slipstream_kernel::{CpuId, Cycle, LineAddr, NodeId, SharerSet};

use crate::msg::{AccessKind, StreamRole, SyncOp};

/// How a processor-side access was resolved at issue time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Served by the issuing core's L1.
    L1Hit,
    /// Served by the node's shared L2 (valid, visible copy).
    L2Hit,
    /// Missed the L2 and opened a new directory transaction (MSHR
    /// allocated).
    MissNew,
    /// Missed the L2 and merged into an already-outstanding MSHR.
    MissMerged,
    /// A non-binding exclusive prefetch was issued to the directory.
    PrefetchIssued,
    /// A non-binding exclusive prefetch was dropped (line already owned or
    /// a request is already in flight).
    PrefetchDropped,
}

/// Snapshot of a directory entry's permission state, as exposed to
/// observers. Mirrors the (private) protocol state: uncached, shared with
/// a node bit-vector, or exclusively owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TracePerm {
    /// No cached copies are registered.
    Uncached,
    /// Shared copies exist at the nodes set in `sharers` (bit per node).
    Shared {
        /// Set of sharing nodes.
        sharers: SharerSet,
        /// Limited-pointer overflow: `sharers` is a subset of the true
        /// copy-holders and the next write will broadcast. Always `false`
        /// under the default full-map scheme.
        overflow: bool,
    },
    /// One node holds the line exclusively.
    Excl {
        /// The owning node.
        owner: NodeId,
    },
}

/// One observation of the memory system. The cycle it happened at is
/// passed alongside (see [`MemObserver::observe`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemObs {
    /// A processor-side data access was issued and resolved as `outcome`.
    /// One per [`crate::MemSystem::access`] call, built only when an
    /// observer [wants it](MemObserver::wants_access).
    Access {
        cpu: CpuId,
        role: StreamRole,
        kind: AccessKind,
        line: LineAddr,
        outcome: AccessOutcome,
    },
    /// A fill (coherent or transparent reply) landed in `node`'s L2,
    /// completing the line's outstanding waiters.
    Fill { node: NodeId, line: LineAddr, excl: bool, transparent: bool },
    /// The home directory's permission state for `line` changed while
    /// serving a message from `requester`.
    DirTransition { line: LineAddr, from: TracePerm, to: TracePerm, requester: NodeId },
    /// The directory forwarded an intervention to the exclusive `owner` on
    /// behalf of `requester` (`excl` = ownership transfer vs. downgrade).
    Intervention { line: LineAddr, owner: NodeId, requester: NodeId, excl: bool },
    /// The directory sent an invalidation for `line` to sharer `target`.
    Invalidation { line: LineAddr, target: NodeId },
    /// A self-invalidation hint was sent to the exclusive `owner` (§4.2:
    /// a transparent load recorded a future sharer).
    SiHint { line: LineAddr, owner: NodeId },
    /// `node` processed a flagged line at a sync point: invalidated it
    /// (migratory policy) if `invalidated`, else wrote back and downgraded
    /// (producer-consumer policy).
    SiAction { node: NodeId, line: LineAddr, invalidated: bool },
    /// A transparent load was upgraded to a normal load at the directory.
    TransparentUpgrade { line: LineAddr, from: NodeId },
    /// A transparent load was answered with a (possibly stale) memory copy.
    TransparentReply { line: LineAddr, from: NodeId },
    /// A dirty writeback for `line` arrived at the home from `from`.
    Writeback { line: LineAddr, from: NodeId },
    /// The sync controller handled `op` from `cpu`, releasing `granted`
    /// blocked processors (0 = the requester queued or nothing released).
    Sync { cpu: CpuId, op: SyncOp, granted: u32 },
    /// `node`'s L2 evicted `line` to make room for a fill. `dirty` is true
    /// when the eviction produced a dirty writeback (vs. a replacement
    /// hint); `transparent` marks an evicted transparent copy, which was
    /// never registered in the directory's sharing list.
    L2Evict { node: NodeId, line: LineAddr, dirty: bool, transparent: bool },
    /// `node`'s L2 dropped its copy of `line` in response to the protocol
    /// (an invalidation, an ownership-transfer intervention, or a
    /// migratory self-invalidation). Only when a copy was resident.
    L2Invalidate { node: NodeId, line: LineAddr },
    /// `node`'s L2 downgraded its exclusive copy of `line` to shared (a
    /// read intervention, or a producer-consumer self-invalidation
    /// writeback).
    L2Downgrade { node: NodeId, line: LineAddr },
    /// `node` opened a new MSHR for `line` (merged requests reuse the
    /// existing MSHR and do not fire this event).
    MshrAlloc { node: NodeId, line: LineAddr },
    /// `node` retired the MSHR for `line`: every outstanding request it
    /// tracked has been filled. Balanced against [`MemObs::MshrAlloc`].
    MshrFree { node: NodeId, line: LineAddr },
}

/// Receives the memory system's [`MemObs`] events. See the
/// [module docs](self) for the contract.
///
/// `Any` lets a run hand an observer back to its caller by value after
/// the memory system owned it as a `Box<dyn MemObserver>`.
pub trait MemObserver: Any + Debug {
    /// `ev` happened at cycle `at`.
    fn observe(&mut self, at: Cycle, ev: &MemObs);

    /// Whether this observer needs [`MemObs::Access`]. Returning false
    /// promises to ignore it, letting the memory system (and the parallel
    /// engine's per-node capture) skip building the hottest event when no
    /// observer wants it.
    fn wants_access(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use slipstream_kernel::config::MachineConfig;
    use slipstream_kernel::{Addr, EventQueue};

    use super::*;
    use crate::{HomeMap, MemEvent, MemSystem};

    type Seen = Rc<RefCell<Vec<(usize, Cycle, MemObs)>>>;

    /// Logs every event it sees, tagged with its attach position.
    #[derive(Debug)]
    struct Log(usize, Seen);

    impl MemObserver for Log {
        fn observe(&mut self, at: Cycle, ev: &MemObs) {
            self.1.borrow_mut().push((self.0, at, ev.clone()));
        }
    }

    #[test]
    fn every_observer_sees_every_event_in_attach_order() {
        let cfg = MachineConfig::with_nodes(2);
        let mut mem = MemSystem::new(&cfg, HomeMap::uniform(2, cfg.page_bytes), 2);
        let seen: Seen = Rc::default();
        mem.attach_observer(Box::new(Log(0, seen.clone())));
        mem.attach_observer(Box::new(Log(1, seen.clone())));
        // A write miss from node 1 to a line homed on node 0, driven to
        // quiescence.
        let mut q: EventQueue<MemEvent> = EventQueue::new();
        let cpu = CpuId::new(NodeId(1), 0);
        let (role, kind) = (StreamRole::Solo, AccessKind::Write);
        mem.access(Cycle(1), cpu, role, kind, Addr(0), true, false, &mut q);
        let mut done = Vec::new();
        while let Some((t, ev)) = q.pop() {
            mem.handle_event(t, ev, &mut q, &mut done);
        }
        let seen = seen.borrow();
        // Observer 0 then observer 1, for every single event.
        for pair in seen.chunks(2) {
            assert_eq!((pair[0].0, pair[1].0), (0, 1), "{seen:?}");
            assert_eq!((pair[0].1, &pair[0].2), (pair[1].1, &pair[1].2));
        }
        let events: Vec<&MemObs> = seen.iter().step_by(2).map(|(_, _, ev)| ev).collect();
        assert!(matches!(events[0], MemObs::Access { outcome: AccessOutcome::MissNew, .. }));
        assert!(matches!(events[1], MemObs::MshrAlloc { .. }));
        assert!(events.iter().any(|ev| matches!(ev, MemObs::DirTransition { .. })));
        assert!(events.iter().any(|ev| matches!(ev, MemObs::Fill { excl: true, .. })));
        assert!(matches!(events.last(), Some(MemObs::MshrFree { .. })));
        drop(seen);
        assert_eq!(mem.take_observers().len(), 2);
    }
}
