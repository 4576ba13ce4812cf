//! Conservative parallel discrete-event execution (PDES) of one run.
//!
//! The simulated machine decomposes naturally by node: each CMP node owns
//! its two processors with their private L1s, the shared L2, the slice of
//! the directory it is home for, and its network ports. The only coupling
//! between nodes is the interconnect, and every message crossing it pays
//! at least the network traversal latency (`Latencies::net`). That fixed
//! minimum is conservative *lookahead* in the classic PDES sense: a node
//! that has processed every event before time `T` cannot receive a new
//! message that fires before `T + net`.
//!
//! The engine therefore partitions the N nodes across K worker threads
//! (one [`Machine`] per *node*, regardless of K — so results are
//! bit-identical for every K by construction) and advances them in
//! epochs:
//!
//! 1. **run** — each node processes its queue and inbox up to the epoch
//!    bound `β`, diverting cross-node `NetOut` sends into a per-node
//!    mailbox instead of the local queue;
//! 2. **merge** — each node folds the messages addressed to it into its
//!    inbox, ordered by the fixed key `(arrival, src, seq)`, and reports
//!    the earliest time it still has work at;
//! 3. **advance** — the leader takes the global minimum `m` of those
//!    times and opens the next epoch at `β' = m + W`, where the window
//!    `W ≤ net` is the lookahead. Every message diverted while running
//!    events at `t ≥ m` arrives at `t + net ≥ m + W = β'`, so no node can
//!    ever receive a message for a time it has already passed.
//!
//! When every queue and inbox is empty the run has terminated (or
//! deadlocked, which the per-node teardown reports exactly like the
//! serial loop). Private work still batches ahead of the bound inside a
//! quantum — only globally visible operations (shared accesses, sync,
//! input) are pinned to exact times, and the inline-resume gate in
//! [`Machine`] refuses to carry one past the epoch bound or past a
//! pending inbox arrival.
//!
//! Tracing and observation ride the same determinism: each node captures
//! its memory system's [`MemObs`] events and its machine-level events as
//! plain data ([`NodeRec`]), and after the run the driver merges all
//! records in `(time, node, capture index)` order and replays them through
//! [`MemObserver::observe`] into the trace recorder and/or the caller's
//! observer on one thread. The replayed stream is identical for every K.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use slipstream_kernel::config::{ArSyncMode, ExecMode, MachineConfig};
use slipstream_kernel::{CpuId, Cycle, NodeId, TaskId};
use slipstream_mem::{HomeMap, MemObs, MemObserver, MemStats, MemSystem, Msg, StreamRole};
use slipstream_prog::{InstanceId, Layout};

use crate::machine::Machine;
use crate::report::{RunResult, StreamReport};
use crate::runner::{RunOutput, RunSpec};
use crate::stream::{PairState, StreamExec};
use crate::telemetry::{
    Heartbeat, Histogram, HostProfileData, QueueStats, WorkerStats,
};
use crate::trace::{IntervalSample, TraceConfig, TraceData, TraceKind, TraceState};
use crate::workload::Workload;

/// A cross-partition message in flight between two node machines.
///
/// `(at, src, seq)` is the deterministic merge key: `at` is the arrival
/// time at the destination's network input port, `src` the sending node,
/// and `seq` the sender's running send counter. Each node is simulated by
/// exactly one machine for every worker count, so the key — and with it
/// the receiver's processing order — is independent of K.
#[derive(Debug, Clone)]
pub(crate) struct WireMsg {
    /// Arrival time at the destination (`NetIn` time).
    pub at: Cycle,
    /// Sending node.
    pub src: u16,
    /// The sender's send counter at the time of the send.
    pub seq: u64,
    /// The protocol message itself.
    pub msg: Msg,
}

/// One record captured on a node during parallel execution: a memory
/// system observation or a machine-level trace event (recovery, session
/// end). Records are merged across nodes in `(time, node, capture index)`
/// order before replay.
#[derive(Debug, Clone)]
pub(crate) enum NodeRec {
    Mem(MemObs),
    Machine(TraceKind),
}

/// The observer a node machine attaches to its memory-system partition:
/// captures every observation as plain data, so it can cross threads and
/// be replayed later. The machine appends its own records to the same
/// list (see `Machine::trace_event`). `access` elides the (very hot)
/// access events when no consumer wants them.
#[derive(Debug)]
pub(crate) struct NodeCapture {
    pub records: Vec<(Cycle, NodeRec)>,
    access: bool,
}

impl MemObserver for NodeCapture {
    fn observe(&mut self, at: Cycle, ev: &MemObs) {
        self.records.push((at, NodeRec::Mem(ev.clone())));
    }

    fn wants_access(&self) -> bool {
        self.access
    }
}

/// One node's share of the run results, produced by
/// [`Machine::pdes_finish`] and merged by the driver in node order.
#[derive(Debug)]
pub(crate) struct NodePart {
    pub streams: Vec<StreamReport>,
    /// Final `(run_ahead, tokens)` per pair on this node.
    pub pairs: Vec<(i64, u32)>,
    pub stats: MemStats,
    pub recoveries: u64,
    pub host_events: u64,
    pub queue_pushed: u64,
    pub queue_high_water: usize,
    pub queue_heap_pushes: u64,
    pub records: Vec<(Cycle, NodeRec)>,
}

/// Per-worker host-profiling state ([`crate::telemetry`]): wall-clock
/// busy/wait split, per-epoch event and outbox histograms, and
/// queue-occupancy samples taken at merge barriers. Exists only when
/// `RunSpec::host` is on; the unprofiled worker loop pays one `Option`
/// check per phase.
struct WorkerProf {
    stats: WorkerStats,
    ring: Histogram,
    heap: Histogram,
    /// Host events across this worker's machines at the last epoch end.
    prev_events: u64,
    /// Wall-clock nanoseconds spent in `build_node_machines`.
    build_ns: u64,
    /// Start of the current busy/wait segment.
    last: Instant,
}

impl WorkerProf {
    fn new() -> WorkerProf {
        WorkerProf {
            stats: WorkerStats::default(),
            ring: Histogram::new(),
            heap: Histogram::new(),
            prev_events: 0,
            build_ns: 0,
            last: Instant::now(),
        }
    }

    /// Closes the current segment as busy (event execution / merging).
    fn mark_busy(&mut self) {
        let now = Instant::now();
        self.stats.busy_ns += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
    }

    /// Closes the current segment as barrier wait.
    fn mark_wait(&mut self) {
        let now = Instant::now();
        self.stats.wait_ns += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
    }
}

/// One node's contribution to an interval sample, snapshotted at an epoch
/// barrier.
#[derive(Debug)]
pub(crate) struct SamplePart {
    pub stats: MemStats,
    /// `(run_ahead, tokens)` per pair on this node.
    pub pairs: Vec<(i64, u32)>,
    pub queue_len: usize,
    pub host_events: u64,
    pub recoveries: u64,
}

/// Builds the per-node machines for nodes `lo..hi` of the run.
///
/// Program construction must replay the *whole* run's allocation sequence
/// — every instance's builder call mutates the shared [`Layout`] — so
/// each worker walks the full placement in the exact order the serial
/// runner uses and keeps only the programs for the nodes it owns. The
/// resulting layout (and with it every address and home assignment) is
/// identical on every worker and identical to a serial run.
fn build_node_machines(
    workload: &dyn Workload,
    spec: &RunSpec,
    cfg: &MachineConfig,
    ntasks: usize,
    lo: usize,
    hi: usize,
) -> Vec<Machine> {
    let mut layout = Layout::with_page_size(cfg.page_bytes);
    let builder = workload.instantiate(ntasks, &mut layout);

    let mut placement: Vec<NodeId> = Vec::new();
    // (streams, pairs) per owned node; pair indices are node-local.
    let mut per_node: Vec<(Vec<StreamExec>, Vec<PairState>)> =
        (lo..hi).map(|_| (Vec::new(), Vec::new())).collect();
    let mut next_inst = 0u32;
    let mut mk = |layout: &mut Layout,
                  placement: &mut Vec<NodeId>,
                  task: usize,
                  cpu: CpuId,
                  role: StreamRole,
                  pair: Option<usize>|
     -> Option<StreamExec> {
        let inst = InstanceId(next_inst);
        next_inst += 1;
        placement.push(cpu.node());
        let prog = builder(layout, inst, task);
        let owned = (lo..hi).contains(&cpu.node().idx());
        owned.then(|| StreamExec::new(cpu, role, TaskId(task as u16), pair, prog.iter()))
    };
    match spec.mode {
        ExecMode::Single => {
            for t in 0..ntasks {
                let cpu = CpuId::new(NodeId(t as u16), 0);
                if let Some(s) = mk(&mut layout, &mut placement, t, cpu, StreamRole::Solo, None) {
                    per_node[t - lo].0.push(s);
                }
            }
        }
        ExecMode::Double => {
            for t in 0..ntasks {
                let node = t / 2;
                let cpu = CpuId::new(NodeId(node as u16), (t % 2) as u8);
                if let Some(s) = mk(&mut layout, &mut placement, t, cpu, StreamRole::Solo, None) {
                    per_node[node - lo].0.push(s);
                }
            }
        }
        ExecMode::Slipstream => {
            for t in 0..ntasks {
                let node = NodeId(t as u16);
                let r = mk(&mut layout, &mut placement, t, CpuId::new(node, 0), StreamRole::R, Some(0));
                let a = mk(&mut layout, &mut placement, t, CpuId::new(node, 1), StreamRole::A, Some(0));
                if let (Some(r), Some(a)) = (r, a) {
                    let (streams, pairs) = &mut per_node[t - lo];
                    streams.push(r);
                    let a_idx = streams.len();
                    streams.push(a);
                    let start = if spec.slip.ar_adaptive {
                        ArSyncMode::ALL[0]
                    } else {
                        spec.slip.ar_sync
                    };
                    pairs.push(PairState::new(a_idx, start, spec.slip.ar_adaptive));
                }
            }
        }
    }

    let mode = spec.mode;
    let task_node = |task: u32| -> NodeId {
        match mode {
            ExecMode::Single | ExecMode::Slipstream => NodeId(task as u16),
            ExecMode::Double => NodeId((task / 2) as u16),
        }
    };
    let home = HomeMap::new(&layout, cfg.nodes, |inst| placement[inst.0 as usize], task_node);

    per_node
        .into_iter()
        .enumerate()
        .map(|(offset, (streams, pairs))| {
            let node = NodeId((lo + offset) as u16);
            assert!(!streams.is_empty(), "every node hosts at least one stream");
            let mut mem = MemSystem::new_partition(cfg, home.clone(), ntasks as u32, node);
            mem.set_si_interval(spec.slip.si_interval.max(1));
            Machine::assemble(
                workload.name().to_string(),
                cfg.clone(),
                spec.slip,
                spec.mode,
                mem,
                streams,
                pairs,
                spec.quantum_cycles,
                spec.input_cycles,
                ntasks,
                TraceConfig::default(),
                spec.fastpath,
                None,
            )
        })
        .collect()
}

/// Merges per-node sample parts (in node order) into one interval sample
/// stamped at `cycle`.
fn merge_sample(cycle: u64, slots: &[Mutex<Option<SamplePart>>]) -> IntervalSample {
    let mut stats = MemStats::default();
    let mut run_ahead = Vec::new();
    let mut tokens = Vec::new();
    let mut queue_len = 0usize;
    let mut host_events = 0u64;
    let mut recoveries = 0u64;
    for slot in slots {
        let guard = slot.lock().unwrap();
        let p = guard.as_ref().expect("every node wrote its sample part");
        stats.accumulate(&p.stats);
        for &(ra, tk) in &p.pairs {
            run_ahead.push(ra);
            tokens.push(tk);
        }
        queue_len += p.queue_len;
        host_events += p.host_events;
        recoveries += p.recoveries;
    }
    IntervalSample { cycle, stats, run_ahead, tokens, queue_len, host_events, recoveries }
}

/// Runs `workload` under `spec` on `spec.threads` worker threads and
/// returns results bit-identical for every thread count (see the module
/// docs for why). Called by the runner when `spec.threads >= 1`; `cfg`
/// and `ntasks` are the resolved machine description and task count.
/// `observer` sees the merged observation stream and is handed back.
pub(crate) fn run_pdes(
    workload: &dyn Workload,
    spec: &RunSpec,
    cfg: MachineConfig,
    ntasks: usize,
    mut observer: Option<Box<dyn MemObserver>>,
) -> (RunOutput, Option<Box<dyn MemObserver>>) {
    let nodes = cfg.nodes as usize;
    assert!(cfg.lat.net >= 1, "parallel execution needs a positive network latency for lookahead");
    // The epoch window: at most the lookahead (network traversal), at
    // least one cycle. Smaller windows mean more barriers but identical
    // results; the override exists for the boundary stress tests.
    let w = spec.epoch_window.unwrap_or(cfg.lat.net).clamp(1, cfg.lat.net);
    let k = (spec.threads as usize).min(nodes).max(1);
    let interval = if spec.trace.enabled() { spec.trace.interval } else { 0 };
    let want_records = spec.trace.enabled() || observer.is_some();
    let capture_access =
        spec.trace.enabled() || observer.as_ref().is_some_and(|o| o.wants_access());

    let profiling = spec.host.is_on();

    let barrier = Barrier::new(k);
    // Mailboxes indexed by destination node; workers append during the run
    // phase and the owner drains at the merge phase.
    let mail: Vec<Mutex<Vec<WireMsg>>> = (0..nodes).map(|_| Mutex::new(Vec::new())).collect();
    // Per-worker minimum next-event time (u64::MAX = idle).
    let next_times: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(u64::MAX)).collect();
    let bound = AtomicU64::new(w);
    let done = AtomicBool::new(false);
    let sample_slots: Vec<Mutex<Option<SamplePart>>> =
        (0..nodes).map(|_| Mutex::new(None)).collect();
    // Global progress counter for the heartbeat (profiled runs only):
    // each worker adds its epoch's event count at the merge phase.
    let events_done = AtomicU64::new(0);

    type WorkerOut = (
        Vec<(usize, NodePart)>,
        Option<Vec<IntervalSample>>,
        Option<Box<WorkerProf>>,
    );
    let sim_started = profiling.then(Instant::now);
    let mut results: Vec<WorkerOut> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..k)
            .map(|wi| {
                let (barrier, mail, next_times, bound, done, sample_slots, events_done) =
                    (&barrier, &mail, &next_times, &bound, &done, &sample_slots, &events_done);
                let cfg = &cfg;
                s.spawn(move || -> WorkerOut {
                    let lo = nodes * wi / k;
                    let hi = nodes * (wi + 1) / k;
                    let mut prof = profiling.then(|| Box::new(WorkerProf::new()));
                    let mut machines = build_node_machines(workload, spec, cfg, ntasks, lo, hi);
                    for m in machines.iter_mut() {
                        m.pdes_start(want_records.then(|| NodeCapture {
                            records: Vec::new(),
                            access: capture_access,
                        }));
                    }
                    if let Some(p) = prof.as_mut() {
                        let now = Instant::now();
                        p.build_ns = now.duration_since(p.last).as_nanos() as u64;
                        p.last = now;
                    }
                    // The leader drives the opt-in heartbeat from the
                    // advance phase, off the shared progress counter.
                    let mut heartbeat = (profiling && wi == 0)
                        .then(|| {
                            Heartbeat::new(
                                workload.name(),
                                spec.host.heartbeat_secs,
                                spec.host.expected_events,
                            )
                        })
                        .flatten();
                    let mut send_seqs = vec![0u64; machines.len()];
                    let mut outbox: Vec<WireMsg> = Vec::new();
                    let mut arrivals: Vec<WireMsg> = Vec::new();
                    let mut my_samples: Vec<IntervalSample> = Vec::new();
                    let mut next_sample = if interval > 0 { interval } else { u64::MAX };
                    let mut b = w;
                    loop {
                        // Run phase: advance every owned node to the bound,
                        // posting diverted sends to the receivers' mailboxes.
                        for (mi, m) in machines.iter_mut().enumerate() {
                            m.pdes_run_until(Cycle(b), &mut outbox, &mut send_seqs[mi]);
                            if let Some(p) = prof.as_mut() {
                                p.stats.outbox_len.record(outbox.len() as u64);
                            }
                            for wmsg in outbox.drain(..) {
                                mail[wmsg.msg.dst.idx()].lock().unwrap().push(wmsg);
                            }
                        }
                        if let Some(p) = prof.as_mut() {
                            let ev: u64 =
                                machines.iter().map(|m| m.host_events_so_far()).sum();
                            let delta = ev - p.prev_events;
                            p.prev_events = ev;
                            p.stats.events_per_epoch.record(delta);
                            p.stats.epochs += 1;
                            events_done.fetch_add(delta, Ordering::Relaxed);
                            p.mark_busy();
                        }
                        barrier.wait();
                        if let Some(p) = prof.as_mut() {
                            p.mark_wait();
                        }
                        // Merge phase: fold arrivals into each owned node's
                        // inbox and report the earliest remaining work time.
                        let mut local_min = u64::MAX;
                        for (mi, m) in machines.iter_mut().enumerate() {
                            let node = lo + mi;
                            std::mem::swap(&mut *mail[node].lock().unwrap(), &mut arrivals);
                            m.pdes_deliver(&mut arrivals);
                            if let Some(t) = m.pdes_next_time() {
                                local_min = local_min.min(t.raw());
                            }
                            if let Some(p) = prof.as_mut() {
                                let (ring, heap) = m.queue_depths();
                                p.ring.record(ring as u64);
                                p.heap.record(heap as u64);
                            }
                            if interval > 0 {
                                *sample_slots[node].lock().unwrap() = Some(m.pdes_sample_part());
                            }
                        }
                        next_times[wi].store(local_min, Ordering::SeqCst);
                        if let Some(p) = prof.as_mut() {
                            p.mark_busy();
                        }
                        barrier.wait();
                        // Advance phase: the leader opens the next epoch (or
                        // declares termination) and emits any interval
                        // samples whose boundary the run just passed.
                        if wi == 0 {
                            let min = next_times
                                .iter()
                                .map(|t| t.load(Ordering::SeqCst))
                                .min()
                                .expect("at least one worker");
                            while next_sample < b {
                                my_samples.push(merge_sample(next_sample, sample_slots));
                                next_sample += interval;
                            }
                            if let Some(hb) = heartbeat.as_mut() {
                                hb.maybe_beat(events_done.load(Ordering::Relaxed));
                            }
                            if min == u64::MAX {
                                done.store(true, Ordering::SeqCst);
                            } else {
                                bound.store(min.saturating_add(w), Ordering::SeqCst);
                            }
                        }
                        barrier.wait();
                        if let Some(p) = prof.as_mut() {
                            p.mark_wait();
                        }
                        if done.load(Ordering::SeqCst) {
                            break;
                        }
                        b = bound.load(Ordering::SeqCst);
                    }
                    if let Some(p) = prof.as_mut() {
                        p.stats.events = p.prev_events;
                    }
                    let parts = machines
                        .into_iter()
                        .enumerate()
                        .map(|(mi, m)| (lo + mi, m.pdes_finish()))
                        .collect();
                    (parts, (wi == 0).then_some(my_samples), prof)
                })
            })
            .collect();
        results = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect();
    });
    let simulate_s = sim_started.map_or(0.0, |t| t.elapsed().as_secs_f64());

    let mut slots: Vec<Option<NodePart>> = (0..nodes).map(|_| None).collect();
    let mut samples: Vec<IntervalSample> = Vec::new();
    let mut profs: Vec<Box<WorkerProf>> = Vec::new();
    for (list, s, p) in results {
        for (node, part) in list {
            slots[node] = Some(part);
        }
        if let Some(s) = s {
            samples = s;
        }
        if let Some(p) = p {
            profs.push(p);
        }
    }
    let mut parts: Vec<NodePart> =
        slots.into_iter().map(|p| p.expect("every node finished")).collect();

    // Merge per-node results in node order — which is exactly the serial
    // runner's stream construction order.
    let mut stats = MemStats::default();
    let mut streams: Vec<StreamReport> = Vec::new();
    let mut recoveries = 0u64;
    let mut host_events = 0u64;
    let mut queue_pushed = 0u64;
    let mut queue_high_water = 0usize;
    let mut queue_heap_pushes = 0u64;
    for p in parts.iter_mut() {
        stats.accumulate(&p.stats);
        streams.append(&mut p.streams);
        recoveries += p.recoveries;
        host_events += p.host_events;
        queue_pushed += p.queue_pushed;
        queue_high_water = queue_high_water.max(p.queue_high_water);
        queue_heap_pushes += p.queue_heap_pushes;
    }
    let exec_cycles = streams
        .iter()
        .filter(|s| s.role != StreamRole::A)
        .map(|s| s.finish)
        .max()
        .unwrap_or(0);

    let mut trace = None;
    if want_records {
        // The deterministic merge: all captured records, ordered by
        // (time, node, per-node capture index). Per-node sequences are
        // K-invariant, so the merged stream is too.
        let mut order: Vec<(u64, u16, u32)> = Vec::new();
        for (node, p) in parts.iter().enumerate() {
            for (idx, (at, _)) in p.records.iter().enumerate() {
                order.push((at.raw(), node as u16, idx as u32));
            }
        }
        order.sort_unstable();
        let mut tracing = spec.trace.enabled().then(|| TraceState::new(spec.trace));
        for &(_, node, idx) in &order {
            let (at, rec) = &parts[node as usize].records[idx as usize];
            match rec {
                NodeRec::Mem(ev) => {
                    if let Some((_, r)) = tracing.as_mut() {
                        r.observe(*at, ev);
                    }
                    if let Some(o) = observer.as_mut() {
                        o.observe(*at, ev);
                    }
                }
                NodeRec::Machine(kind) => {
                    if let Some((_, r)) = tracing.as_mut() {
                        r.buf.push(*at, kind.clone());
                    }
                }
            }
        }
        if let Some((ts, rec)) = tracing {
            if ts.cfg.interval > 0 {
                // Closing sample at the end of the run, as in the serial
                // teardown: the final cumulative state.
                let mut run_ahead = Vec::new();
                let mut tokens = Vec::new();
                for p in &parts {
                    for &(ra, tk) in &p.pairs {
                        run_ahead.push(ra);
                        tokens.push(tk);
                    }
                }
                samples.push(IntervalSample {
                    cycle: exec_cycles,
                    stats: stats.clone(),
                    run_ahead,
                    tokens,
                    queue_len: 0,
                    host_events,
                    recoveries,
                });
            }
            trace = Some(TraceData::assemble(
                ts.cfg,
                rec.buf,
                samples,
                queue_pushed,
                queue_high_water,
                exec_cycles,
            ));
        }
    }

    // Engine-level host profile: per-worker busy/wait plus merged queue
    // traffic. Phase attribution: machine construction happens inside the
    // worker threads, so `build_s` (the slowest worker's build) overlaps
    // `simulate_s` (the wall clock of the whole parallel section). The
    // runner fills in resources afterwards.
    let profile = if profiling {
        let mut queue = QueueStats {
            total_pushed: queue_pushed,
            heap_pushes: queue_heap_pushes,
            high_water: queue_high_water as u64,
            ring_occupancy: Histogram::new(),
            heap_occupancy: Histogram::new(),
        };
        let mut workers = Vec::with_capacity(profs.len());
        let mut build_ns = 0u64;
        for p in profs {
            queue.ring_occupancy.merge(&p.ring);
            queue.heap_occupancy.merge(&p.heap);
            build_ns = build_ns.max(p.build_ns);
            workers.push(p.stats);
        }
        Some(HostProfileData {
            engine: "pdes",
            threads: spec.threads,
            nodes: cfg.nodes,
            events: host_events,
            sim_cycles: exec_cycles,
            phases: crate::telemetry::PhaseTimes {
                build_s: build_ns as f64 / 1e9,
                simulate_s,
                ..Default::default()
            },
            workers,
            queue,
            resources: Vec::new(),
        })
    } else {
        None
    };

    let result = RunResult {
        name: workload.name().to_string(),
        mode: spec.mode,
        nodes: cfg.nodes,
        tasks: ntasks,
        exec_cycles,
        streams,
        mem: stats,
        recoveries,
        host_events,
    };
    (RunOutput { result, trace, profile }, observer)
}
