//! Protocol-level integration tests for the memory system: Table 1
//! latencies, coherence transitions, transparent loads, self-invalidation,
//! synchronization, and request classification.

use slipstream_kernel::config::MachineConfig;
use slipstream_kernel::{Addr, CpuId, Cycle, EventQueue, NodeId};
use slipstream_mem::{
    Access, AccessKind, Completion, HomeMap, MemEvent, MemSystem, StreamRole, SyncOp, Token,
};
use slipstream_prog::{BarrierId, LockId};

/// Tiny deterministic harness: drives the event queue to quiescence and
/// records every completion with its timestamp.
struct Harness {
    mem: MemSystem,
    q: EventQueue<MemEvent>,
    done: Vec<(Cycle, Completion)>,
}

impl Harness {
    fn new(nodes: u16) -> Harness {
        let cfg = MachineConfig::with_nodes(nodes);
        let home = HomeMap::uniform(nodes, cfg.page_bytes);
        Harness {
            mem: MemSystem::new(&cfg, home, nodes as u32),
            q: EventQueue::new(),
            done: Vec::new(),
        }
    }

    fn with_participants(nodes: u16, participants: u32) -> Harness {
        let cfg = MachineConfig::with_nodes(nodes);
        let home = HomeMap::uniform(nodes, cfg.page_bytes);
        Harness {
            mem: MemSystem::new(&cfg, home, participants),
            q: EventQueue::new(),
            done: Vec::new(),
        }
    }

    fn access(
        &mut self,
        now: u64,
        cpu: CpuId,
        role: StreamRole,
        kind: AccessKind,
        addr: u64,
    ) -> Access {
        self.mem.access(
            Cycle(now),
            cpu,
            role,
            kind,
            Addr(addr),
            true,
            false,
            &mut self.q,
        )
    }

    fn run(&mut self) {
        let mut out = Vec::new();
        while let Some((t, ev)) = self.q.pop() {
            out.clear();
            self.mem.handle_event(t, ev, &mut self.q, &mut out);
            for c in &out {
                self.done.push((t, *c));
            }
        }
    }

    /// Handles every event scheduled before `limit`.
    fn run_until(&mut self, limit: Cycle) {
        let mut out = Vec::new();
        while self.q.peek_time().is_some_and(|t| t < limit) {
            let (t, ev) = self.q.pop().expect("peeked");
            self.mem.handle_event(t, ev, &mut self.q, &mut out);
        }
    }

    fn completion_time(&self, token: Token) -> Cycle {
        self.done
            .iter()
            .find(|(_, c)| c.token == token)
            .map(|(t, _)| *t)
            .unwrap_or_else(|| panic!("no completion for {token:?}"))
    }
}

fn cpu(node: u16, core: u8) -> CpuId {
    CpuId::new(NodeId(node), core)
}

/// An address homed at node 0 (page 0 of the uniform interleave).
const LOCAL0: u64 = 0x100;
/// An address homed at node 1 (page 1).
const PAGE: u64 = 4096;

#[test]
fn local_cold_miss_is_170_cycles() {
    let mut h = Harness::new(4);
    let a = h.access(0, cpu(0, 0), StreamRole::Solo, AccessKind::Read, LOCAL0);
    let tok = match a {
        Access::Pending(t) => t,
        other => panic!("expected pending, got {other:?}"),
    };
    h.run();
    assert_eq!(h.completion_time(tok), Cycle(170));
    assert_eq!(h.mem.stats().local_txns, 1);
    h.mem.check_quiescent().expect("quiescent");
}

#[test]
fn remote_cold_miss_is_290_cycles() {
    let mut h = Harness::new(4);
    // Node 0 reads an address homed at node 1.
    let a = h.access(0, cpu(0, 0), StreamRole::Solo, AccessKind::Read, PAGE);
    let tok = match a {
        Access::Pending(t) => t,
        other => panic!("expected pending, got {other:?}"),
    };
    h.run();
    assert_eq!(h.completion_time(tok), Cycle(290));
    assert_eq!(h.mem.stats().remote_txns, 1);
    h.mem.check_quiescent().expect("quiescent");
}

#[test]
fn second_read_hits_l1_and_sibling_hits_l2() {
    let mut h = Harness::new(2);
    let t0 = match h.access(0, cpu(0, 0), StreamRole::Solo, AccessKind::Read, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let fill = h.completion_time(t0);
    // Same CPU: L1 hit.
    let a = h.access(fill.raw(), cpu(0, 0), StreamRole::Solo, AccessKind::Read, LOCAL0);
    assert_eq!(a, Access::HitL1);
    // Sibling CPU on the same CMP: misses L1, hits the shared L2 in 10cyc.
    let t1 = match h.access(fill.raw(), cpu(0, 1), StreamRole::Solo, AccessKind::Read, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    assert_eq!(h.completion_time(t1), fill + Cycle(10));
    assert_eq!(h.mem.stats().l2_hits, 1);
}

#[test]
fn read_to_unowned_line_grants_shared_then_store_upgrades() {
    let mut h = Harness::new(2);
    let t0 = match h.access(0, cpu(0, 0), StreamRole::Solo, AccessKind::Read, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let fill = h.completion_time(t0);
    // MSI: the read was granted shared, so a store needs an upgrade
    // transaction (no data, no invalidations: sole sharer).
    let before = h.mem.stats().excl_txns;
    let t1 = match h.access(fill.raw(), cpu(0, 0), StreamRole::Solo, AccessKind::Write, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    assert!(h.completion_time(t1) > fill + Cycle(10), "upgrade is a directory transaction");
    assert_eq!(h.mem.stats().excl_txns, before + 1);
    // A second store after ownership is granted hits locally.
    let own = h.completion_time(t1).raw();
    let t2 = h.access(own, cpu(0, 0), StreamRole::Solo, AccessKind::Write, LOCAL0);
    assert_eq!(t2, Access::HitL1);
}

#[test]
fn three_hop_read_intervention_downgrades_owner() {
    let mut h = Harness::new(4);
    // Node 1 takes the (node-0-homed) line exclusively.
    let t0 = match h.access(0, cpu(1, 0), StreamRole::Solo, AccessKind::Write, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let own = h.completion_time(t0);
    // Node 2 reads it: 3-hop intervention through home node 0.
    let t1 = match h.access(own.raw(), cpu(2, 0), StreamRole::Solo, AccessKind::Read, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let got = h.completion_time(t1);
    assert!(got > own + Cycle(290), "intervention must cost more than a plain remote miss");
    assert_eq!(h.mem.stats().interventions, 1);
    h.mem.check_quiescent().expect("quiescent");
    // After the downgrade, node 1 writing again needs an upgrade (its copy
    // is now shared).
    let before = h.mem.stats().excl_txns;
    let t2 = match h.access(got.raw(), cpu(1, 0), StreamRole::Solo, AccessKind::Write, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    assert!(h.completion_time(t2) > got + Cycle(100));
    assert_eq!(h.mem.stats().excl_txns, before + 1);
    assert_eq!(h.mem.stats().invalidations_sent, 1, "node 2's shared copy invalidated");
}

#[test]
fn store_to_shared_line_invalidates_all_sharers() {
    let mut h = Harness::new(4);
    // Three nodes read the line (all granted shared).
    let mut last = 0;
    for n in 0..3u16 {
        let t = match h.access(last, cpu(n, 0), StreamRole::Solo, AccessKind::Read, LOCAL0) {
            Access::Pending(t) => t,
            other => panic!("{other:?}"),
        };
        h.run();
        last = h.completion_time(t).raw();
    }
    let invs_before = h.mem.stats().invalidations_sent;
    // Node 3 writes: every copy must be invalidated.
    let t = match h.access(last, cpu(3, 0), StreamRole::Solo, AccessKind::Write, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let done = h.completion_time(t).raw();
    assert!(h.mem.stats().invalidations_sent > invs_before);
    h.mem.check_quiescent().expect("quiescent");
    // All previous sharers now miss.
    let t0 = match h.access(done, cpu(0, 0), StreamRole::Solo, AccessKind::Read, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    // Must be slower than an L2 hit: the copy is gone.
    assert!(h.completion_time(t0) > Cycle(done + 10));
}

#[test]
fn a_stream_prefetch_gives_r_stream_an_l2_hit() {
    let mut h = Harness::new(4);
    // A-stream (core 1) reads a remote line; R-stream (core 0) then hits L2.
    let ta = match h.access(0, cpu(0, 1), StreamRole::A, AccessKind::Read, PAGE) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let fill = h.completion_time(ta);
    assert_eq!(fill, Cycle(290));
    let tr = match h.access(fill.raw(), cpu(0, 0), StreamRole::R, AccessKind::Read, PAGE) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    assert_eq!(h.completion_time(tr), fill + Cycle(10), "prefetched line: L2 hit");
    // Classification: the A request brought data later used by R.
    h.mem.finalize();
    assert_eq!(h.mem.stats().class.reads.a_timely, 1);
}

#[test]
fn r_merging_into_outstanding_a_request_is_a_late() {
    let mut h = Harness::new(4);
    let ta = match h.access(0, cpu(0, 1), StreamRole::A, AccessKind::Read, PAGE) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    // R reads the same line 50 cycles later, while A's request is in
    // flight: the accesses merge in the MSHR.
    let tr = match h.access(50, cpu(0, 0), StreamRole::R, AccessKind::Read, PAGE) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    assert_eq!(h.completion_time(ta), h.completion_time(tr), "merged fills complete together");
    assert_eq!(h.mem.stats().merged_misses, 1);
    h.mem.finalize();
    assert_eq!(h.mem.stats().class.reads.a_late, 1);
    assert_eq!(h.mem.stats().class.reads.a_timely, 0);
}

#[test]
fn unused_a_prefetch_classifies_a_only() {
    let mut h = Harness::new(4);
    let ta = match h.access(0, cpu(0, 1), StreamRole::A, AccessKind::Read, PAGE) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let _ = h.completion_time(ta);
    h.mem.finalize();
    assert_eq!(h.mem.stats().class.reads.a_only, 1);
}

#[test]
fn exclusive_prefetch_is_nonblocking_and_counts() {
    let mut h = Harness::new(4);
    let a = h.access(0, cpu(0, 1), StreamRole::A, AccessKind::ExclPrefetch, PAGE);
    assert_eq!(a, Access::Accepted);
    h.run();
    assert_eq!(h.mem.stats().excl_prefetches, 1);
    // R store afterwards: local grant (the node owns the line exclusively).
    let tr = match h.access(1000, cpu(0, 0), StreamRole::R, AccessKind::Write, PAGE) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    assert_eq!(h.completion_time(tr), Cycle(1010));
    h.mem.finalize();
    assert_eq!(h.mem.stats().class.excl.a_timely, 1);
}

#[test]
fn transparent_load_leaves_owner_exclusive() {
    let mut h = Harness::new(4);
    // Node 1 owns the line (written, dirty).
    let t0 = match h.access(0, cpu(1, 0), StreamRole::R, AccessKind::Write, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let own = h.completion_time(t0).raw();
    // Node 2's A-stream issues a transparent load.
    let ta = match h.access(own, cpu(2, 1), StreamRole::A, AccessKind::TransparentRead, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let ttime = h.completion_time(ta).raw();
    assert_eq!(h.mem.stats().transparent_issued, 1);
    assert_eq!(h.mem.stats().transparent_replies, 1);
    assert_eq!(h.mem.stats().upgraded_replies, 0);
    assert_eq!(h.mem.stats().interventions, 0, "owner keeps its exclusive copy");
    assert_eq!(h.mem.stats().si_hints, 1);
    // Node 1 can still write with a plain L1/L2 hit (no coherence action).
    let t1 = h.access(ttime, cpu(1, 0), StreamRole::R, AccessKind::Write, LOCAL0);
    assert_eq!(t1, Access::HitL1);
    // The transparent copy is invisible to node 2's R-stream: it must fetch
    // a coherent copy (intervention).
    let tr = match h.access(ttime, cpu(2, 0), StreamRole::R, AccessKind::Read, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let _ = h.completion_time(tr);
    assert_eq!(h.mem.stats().interventions, 1);
    h.mem.check_quiescent().expect("quiescent");
}

#[test]
fn transparent_load_on_idle_line_upgrades_to_normal() {
    let mut h = Harness::new(4);
    let ta = match h.access(0, cpu(2, 1), StreamRole::A, AccessKind::TransparentRead, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let fill = h.completion_time(ta).raw();
    assert_eq!(h.mem.stats().upgraded_replies, 1);
    assert_eq!(h.mem.stats().transparent_replies, 0);
    // Upgraded reply is coherent: visible to the R-stream as an L2 hit.
    let tr = match h.access(fill, cpu(2, 0), StreamRole::R, AccessKind::Read, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    assert_eq!(h.completion_time(tr), Cycle(fill + 10));
}

#[test]
fn self_invalidation_downgrades_producer_consumer_line() {
    let mut h = Harness::new(4);
    // Node 1: producer writes the line (outside any critical section).
    let t0 = match h.access(0, cpu(1, 0), StreamRole::R, AccessKind::Write, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let own = h.completion_time(t0).raw();
    // Node 2's A-stream transparent-loads it -> SI hint to node 1.
    let ta = match h.access(own, cpu(2, 1), StreamRole::A, AccessKind::TransparentRead, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let ttime = h.completion_time(ta).raw();
    assert_eq!(h.mem.si_backlog(NodeId(1)), 1, "owner flagged the line");
    // Node 1's R-stream reaches a sync point: SI drains the queue.
    h.mem.kick_si(Cycle(ttime), NodeId(1), &mut h.q);
    h.run();
    assert_eq!(h.mem.stats().si_downgrades, 1);
    assert_eq!(h.mem.stats().si_invalidations, 0);
    h.mem.check_quiescent().expect("quiescent");
    // Now node 2's R-stream read is satisfied from memory (290), not via a
    // 3-hop intervention.
    let t_end = ttime + 10_000;
    let tr = match h.access(t_end, cpu(2, 0), StreamRole::R, AccessKind::Read, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    // Home is node 0; requester node 2: full remote path, no intervention.
    assert_eq!(h.completion_time(tr), Cycle(t_end + 290));
    assert_eq!(h.mem.stats().interventions, 0);
}

#[test]
fn self_invalidation_invalidates_migratory_line() {
    let mut h = Harness::new(4);
    // Node 1 writes the line inside a critical section.
    let t0 = h.mem.access(
        Cycle(0),
        cpu(1, 0),
        StreamRole::R,
        AccessKind::Write,
        Addr(LOCAL0),
        true,
        true, // in_cs
        &mut h.q,
    );
    let t0 = match t0 {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let own = h.completion_time(t0).raw();
    let ta = match h.access(own, cpu(2, 1), StreamRole::A, AccessKind::TransparentRead, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let ttime = h.completion_time(ta).raw();
    h.mem.kick_si(Cycle(ttime), NodeId(1), &mut h.q);
    h.run();
    assert_eq!(h.mem.stats().si_invalidations, 1);
    assert_eq!(h.mem.stats().si_downgrades, 0);
    // The owner's copy is gone: its next read misses.
    let tr = match h.access(ttime + 10_000, cpu(1, 0), StreamRole::R, AccessKind::Read, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    assert!(h.completion_time(tr).raw() > ttime + 10_000 + 100);
    h.mem.check_quiescent().expect("quiescent");
}

#[test]
fn barrier_round_trip_through_network() {
    let mut h = Harness::with_participants(4, 2);
    let b = SyncOp::BarrierArrive(BarrierId(0));
    let t0 = h.mem.sync(Cycle(0), cpu(0, 0), b, &mut h.q);
    let t1 = h.mem.sync(Cycle(500), cpu(1, 0), b, &mut h.q);
    h.run();
    let c0 = h.completion_time(t0);
    let c1 = h.completion_time(t1);
    // Both released after the last arrival, each no earlier than the
    // network round trip allows.
    assert!(c0 > Cycle(500));
    assert!(c1 > Cycle(500));
    assert!(c0.raw() >= 500 + 30, "release includes bus transit");
    h.mem.check_quiescent().expect("quiescent");
}

#[test]
fn lock_transfer_is_serialized() {
    let mut h = Harness::with_participants(4, 2);
    let acq = SyncOp::LockAcquire(LockId(3));
    let rel = SyncOp::LockRelease(LockId(3));
    let t0 = h.mem.sync(Cycle(0), cpu(0, 0), acq, &mut h.q);
    let t1 = h.mem.sync(Cycle(10), cpu(1, 0), acq, &mut h.q);
    h.run();
    let c0 = h.completion_time(t0);
    // cpu1 is still queued.
    assert!(h.done.iter().all(|(_, c)| c.token != t1));
    h.mem.sync(c0 + Cycle(100), cpu(0, 0), rel, &mut h.q);
    h.run();
    let c1 = h.completion_time(t1);
    assert!(c1 > c0 + Cycle(100));
    h.mem.sync(c1 + Cycle(10), cpu(1, 0), rel, &mut h.q);
    h.run();
    h.mem.check_quiescent().expect("quiescent");
}

#[test]
fn dirty_eviction_writes_back_and_reread_is_clean_miss() {
    // Tiny L2 (1 set would break geometry; use a 2-way 128-byte cache with
    // 64-byte lines -> 1 set... use 256B, 2-way = 2 sets).
    let mut cfg = MachineConfig::with_nodes(2);
    cfg.l2 = slipstream_kernel::config::CacheGeometry { bytes: 256, ways: 2, line_bytes: 64 };
    cfg.l1 = slipstream_kernel::config::CacheGeometry { bytes: 128, ways: 2, line_bytes: 64 };
    let home = HomeMap::uniform(2, cfg.page_bytes);
    let mut h = Harness {
        mem: MemSystem::new(&cfg, home, 2),
        q: EventQueue::new(),
        done: Vec::new(),
    };
    // Write line A (homed node 0, set 0), then read two more lines mapping
    // to set 0 to evict it.
    let la = 0x100u64; // line 4, set 0
    let lb = 0x180u64; // line 6, set 0
    let lc = 0x200u64; // line 8, set 0
    let t = match h.access(0, cpu(0, 0), StreamRole::Solo, AccessKind::Write, la) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let mut now = h.completion_time(t).raw();
    for addr in [lb, lc] {
        let t = match h.access(now, cpu(0, 0), StreamRole::Solo, AccessKind::Read, addr) {
            Access::Pending(t) => t,
            other => panic!("{other:?}"),
        };
        h.run();
        now = h.completion_time(t).raw();
    }
    h.run();
    assert_eq!(h.mem.stats().writebacks, 1, "dirty line written back on eviction");
    h.mem.check_quiescent().expect("quiescent");
    // Re-reading line A misses (clean fetch from memory, no intervention).
    let t = match h.access(now + 1000, cpu(0, 0), StreamRole::Solo, AccessKind::Read, la) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    assert_eq!(h.completion_time(t), Cycle(now + 1000 + 170));
    assert_eq!(h.mem.stats().interventions, 0);
}

#[test]
fn contention_queues_at_directory() {
    let mut h = Harness::new(2);
    // Two CPUs on different nodes miss to the same home (different lines,
    // same page) at the same instant: the second is delayed by DC occupancy.
    let t0 = match h.access(0, cpu(0, 0), StreamRole::Solo, AccessKind::Read, LOCAL0) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    let t1 = match h.access(0, cpu(0, 1), StreamRole::Solo, AccessKind::Read, LOCAL0 + 64) {
        Access::Pending(t) => t,
        other => panic!("{other:?}"),
    };
    h.run();
    let c0 = h.completion_time(t0);
    let c1 = h.completion_time(t1);
    assert_eq!(c0, Cycle(170));
    assert!(c1 >= Cycle(170 + 60), "second local miss waits out the DC occupancy");
}

#[test]
fn quiescence_detects_outstanding_transactions() {
    let mut h = Harness::new(2);
    let _ = h.access(0, cpu(0, 0), StreamRole::Solo, AccessKind::Read, LOCAL0);
    // Don't run the queue: an MSHR is outstanding.
    assert!(h.mem.check_quiescent().is_err());
}

#[test]
fn migratory_detection_grants_reads_exclusively() {
    // A migratory pattern: nodes 1, 2, 3 take turns reading then writing
    // the same line. With the optimization on, after two hand-offs the
    // reads themselves receive exclusive ownership, so the writes stop
    // issuing upgrade transactions.
    let mk = |migratory: bool| {
        let mut cfg = MachineConfig::with_nodes(4);
        cfg.migratory_opt = migratory;
        let home = HomeMap::uniform(4, cfg.page_bytes);
        Harness { mem: MemSystem::new(&cfg, home, 4), q: EventQueue::new(), done: Vec::new() }
    };
    let run_pattern = |h: &mut Harness| -> u64 {
        let mut now = 0;
        for round in 0..3 {
            for n in 1..=3u16 {
                let t = match h.access(now, cpu(n, 0), StreamRole::Solo, AccessKind::Read, LOCAL0) {
                    Access::Pending(t) => t,
                    other => panic!("{other:?} in round {round}"),
                };
                h.run();
                now = h.completion_time(t).raw() + 10;
                let t = match h.access(now, cpu(n, 0), StreamRole::Solo, AccessKind::Write, LOCAL0)
                {
                    Access::Pending(t) => t,
                    Access::HitL1 => continue, // already owned: the optimization worked
                    other => panic!("{other:?}"),
                };
                h.run();
                now = h.completion_time(t).raw() + 10;
            }
        }
        now
    };
    let mut base = mk(false);
    let end_base = run_pattern(&mut base);
    let mut opt = mk(true);
    let end_opt = run_pattern(&mut opt);
    assert_eq!(base.mem.stats().migratory_grants, 0);
    assert!(opt.mem.stats().migratory_grants > 0, "pattern must be detected");
    assert!(
        opt.mem.stats().excl_txns < base.mem.stats().excl_txns,
        "migratory grants must save upgrades: {} vs {}",
        opt.mem.stats().excl_txns,
        base.mem.stats().excl_txns
    );
    assert!(end_opt < end_base, "the hand-off chain should be faster: {end_opt} vs {end_base}");
    opt.mem.check_quiescent().expect("quiescent");
}

#[test]
fn quiescence_reports_the_lowest_busy_directory_line() {
    // Remote reads from nodes 1 and 3 to lines on pages 2 and 0 keep both
    // home directories waiting on memory around cycle 180.
    let high = 2 * PAGE + 0x40;
    let busy_at_180 = |addrs: &[u64]| {
        let mut h = Harness::new(4);
        for (&addr, node) in addrs.iter().zip([1, 3]) {
            let _ = h.access(0, cpu(node, 0), StreamRole::Solo, AccessKind::Read, addr);
        }
        h.run_until(Cycle(180));
        h.mem.check_quiescent().expect_err("transactions in flight")
    };
    // Alone, each line is reported busy at that instant.
    assert!(busy_at_180(&[high]).starts_with("directory line L0x81 still busy"));
    assert!(busy_at_180(&[LOCAL0]).starts_with("directory line L0x4 still busy"));
    // Together, the lower line is named whichever request came first.
    for addrs in [[high, LOCAL0], [LOCAL0, high]] {
        let err = busy_at_180(&addrs);
        assert!(err.starts_with("directory line L0x4 still busy"), "{err}");
    }
}

#[test]
fn quiescence_names_the_lower_line_when_the_higher_went_busy_first() {
    // The higher line's request leaves 20 cycles earlier, so its home
    // directory goes busy first; once both are busy the report still
    // names the lower line.
    let high = 2 * PAGE + 0x40;
    let report_at = |until: u64, both: bool| {
        let mut h = Harness::new(4);
        let _ = h.access(0, cpu(1, 0), StreamRole::Solo, AccessKind::Read, high);
        if both {
            let _ = h.access(20, cpu(3, 0), StreamRole::Solo, AccessKind::Read, LOCAL0);
        }
        h.run_until(Cycle(until));
        h.mem.check_quiescent().expect_err("transactions in flight")
    };
    let busy_high = "directory line L0x81 still busy";
    assert!(report_at(170, true).starts_with(busy_high));
    // At 190 the higher line is still busy on its own...
    assert!(report_at(190, false).starts_with(busy_high));
    // ...yet with both busy the lower one is named.
    let err = report_at(190, true);
    assert!(err.starts_with("directory line L0x4 still busy"), "{err}");
}
