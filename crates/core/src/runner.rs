use std::any::Any;

use slipstream_kernel::config::{DirScheme, ExecMode, MachineConfig, SlipstreamConfig};
use slipstream_kernel::{CpuId, NodeId, TaskId};
use slipstream_mem::{HomeMap, MemObserver, MemSystem, StreamRole};
use slipstream_prog::{InstanceId, Layout};

use crate::machine::Machine;
use crate::report::RunResult;
use crate::stream::{PairState, StreamExec};
use crate::telemetry::{HostProfile, HostProfileData};
use crate::trace::{TraceConfig, TraceData};
use crate::workload::Workload;

/// Everything needed to run one experiment: machine size, execution mode,
/// and slipstream knobs.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Number of CMP nodes.
    pub nodes: u16,
    /// Execution mode (Figure 2).
    pub mode: ExecMode,
    /// Slipstream configuration (ignored outside slipstream mode).
    pub slip: SlipstreamConfig,
    /// Override the machine description (defaults to Table 1, honoring
    /// the workload's `small_l2` request).
    pub machine: Option<MachineConfig>,
    /// Override the directory sharer-tracking scheme on whatever machine
    /// description the run resolves to. `None` keeps the machine's own
    /// scheme (the full-map default). The default scheme is bit-identical
    /// to the historical protocol; `DirScheme::LimitedPointer` is an
    /// ablation that intentionally changes traffic.
    pub dir_scheme: Option<DirScheme>,
    /// Maximum cycles a processor may batch private work ahead of global
    /// time.
    pub quantum_cycles: u64,
    /// Cost of an `Input` operation (system call / I/O) in the R-stream.
    pub input_cycles: u64,
    /// Observability configuration. Default: everything off, in which case
    /// the run is untraced and pays no collection cost.
    pub trace: TraceConfig,
    /// Batched fast-path execution (default on). When a stream's resume
    /// would be the very next event popped, the round-trip through the
    /// event queue is elided and the stream keeps executing inline. The
    /// result is bit-identical either way; turning this off exists for the
    /// differential tests and debugging.
    pub fastpath: bool,
    /// Worker threads for intra-run parallel simulation (`crate::pdes`).
    /// `0` (the default) runs the classic serial event loop; any `K >= 1`
    /// runs the conservative parallel engine, whose results are
    /// bit-identical for every `K` (but may differ from the serial loop
    /// in host-side accounting such as `host_events` — the simulated
    /// machine's timings and statistics are engine-invariant only within
    /// each engine).
    pub threads: u16,
    /// Override the parallel engine's epoch window in cycles, clamped to
    /// `[1, Latencies::net]` (the conservative lookahead). `None` uses the
    /// full lookahead. Smaller windows add barriers but cannot change
    /// results; the knob exists for the epoch-boundary stress tests.
    pub epoch_window: Option<u64>,
    /// Host-side self-profiling (see [`crate::telemetry`]). Default: off,
    /// zero collection cost; profiled runs are bit-identical to
    /// unprofiled ones.
    pub host: HostProfile,
}

impl RunSpec {
    /// A spec with default slipstream settings (one-token global,
    /// prefetch-only).
    pub fn new(nodes: u16, mode: ExecMode) -> RunSpec {
        RunSpec {
            nodes,
            mode,
            slip: SlipstreamConfig::default(),
            machine: None,
            dir_scheme: None,
            quantum_cycles: 200,
            input_cycles: 500,
            trace: TraceConfig::default(),
            fastpath: true,
            threads: 0,
            epoch_window: None,
            host: HostProfile::default(),
        }
    }

    /// Sets the worker-thread count for intra-run parallel simulation
    /// (`0` = serial event loop).
    pub fn with_threads(mut self, threads: u16) -> RunSpec {
        self.threads = threads;
        self
    }

    /// Overrides the parallel engine's epoch window (see
    /// [`RunSpec::epoch_window`]).
    pub fn with_epoch_window(mut self, window: u64) -> RunSpec {
        self.epoch_window = Some(window);
        self
    }

    /// Sets the slipstream configuration.
    pub fn with_slip(mut self, slip: SlipstreamConfig) -> RunSpec {
        self.slip = slip;
        self
    }

    /// Overrides the machine description.
    pub fn with_machine(mut self, machine: MachineConfig) -> RunSpec {
        self.machine = Some(machine);
        self
    }

    /// Overrides the directory sharer-tracking scheme (see
    /// [`RunSpec::dir_scheme`]).
    pub fn with_dir_scheme(mut self, scheme: DirScheme) -> RunSpec {
        self.dir_scheme = Some(scheme);
        self
    }

    /// Enables observability collection for the run (see [`TraceConfig`]).
    pub fn with_trace(mut self, trace: TraceConfig) -> RunSpec {
        self.trace = trace;
        self
    }

    /// Enables or disables the batched fast path (on by default).
    pub fn with_fastpath(mut self, fastpath: bool) -> RunSpec {
        self.fastpath = fastpath;
        self
    }

    /// Enables host-side self-profiling (see [`crate::telemetry`]).
    pub fn with_host_profile(mut self, host: HostProfile) -> RunSpec {
        self.host = host;
        self
    }
}

/// Runs `workload` under `spec` and returns the measurements.
///
/// Task placement follows Figure 2 of the paper:
/// * **single** — one task per CMP, on core 0; core 1 idles;
/// * **double** — two tasks per CMP (2n tasks total);
/// * **slipstream** — per CMP, the R-stream on core 0 and its reduced
///   A-stream copy (with separate private data) on core 1.
///
/// # Panics
///
/// Panics on deadlock or a protocol invariant violation (these are bugs,
/// not measurements).
pub fn run(workload: &dyn Workload, spec: &RunSpec) -> RunResult {
    run_inner(workload, spec, None).0.result
}

/// Everything one run can produce: the measurements, the optional trace,
/// and the optional host profile ([`crate::telemetry`]). `trace` is
/// `Some` iff `spec.trace` enables collection; `profile` is `Some` iff
/// `spec.host` is on. The [`RunResult`] is bit-identical no matter which
/// of the two observers are attached.
#[derive(Debug)]
pub struct RunOutput {
    /// The run's measurements.
    pub result: RunResult,
    /// Collected trace data, when `spec.trace` enabled any.
    pub trace: Option<TraceData>,
    /// The host profile, when `spec.host` is on.
    pub profile: Option<HostProfileData>,
}

/// Runs `workload` under `spec` and returns measurements, trace, and
/// host profile together (see [`RunOutput`]).
pub fn run_full(workload: &dyn Workload, spec: &RunSpec) -> RunOutput {
    run_inner(workload, spec, None).0
}

/// [`run_full`] with `obs` attached to the memory system for the
/// duration of the run, then handed back with everything it observed.
/// Observers only observe, so the [`RunResult`] is bit-identical to an
/// unobserved run. Every engine delivers the same event stream: the
/// parallel engine replays its merged per-node capture through
/// [`MemObserver::observe`] after the run.
pub fn run_observed<O: MemObserver>(
    workload: &dyn Workload,
    spec: &RunSpec,
    obs: O,
) -> (RunOutput, O) {
    let (out, obs) = run_inner(workload, spec, Some(Box::new(obs)));
    let obs: Box<dyn Any> = obs.expect("the run hands its observer back");
    (out, *obs.downcast::<O>().expect("the observer keeps its type"))
}

fn run_inner(
    workload: &dyn Workload,
    spec: &RunSpec,
    observer: Option<Box<dyn MemObserver>>,
) -> (RunOutput, Option<Box<dyn MemObserver>>) {
    let mut cfg = spec.machine.clone().unwrap_or_else(|| {
        if workload.small_l2() {
            MachineConfig::water(spec.nodes)
        } else {
            MachineConfig::with_nodes(spec.nodes)
        }
    });
    cfg.nodes = spec.nodes;
    if let Some(scheme) = spec.dir_scheme {
        cfg.dir_scheme = scheme;
    }
    let ntasks = match spec.mode {
        ExecMode::Single | ExecMode::Slipstream => spec.nodes as usize,
        ExecMode::Double => spec.nodes as usize * 2,
    };
    if spec.threads >= 1 {
        let (mut out, observer) = crate::pdes::run_pdes(workload, spec, cfg, ntasks, observer);
        if let Some(p) = out.profile.as_mut() {
            p.fill_resources(&out.result);
        }
        return (out, observer);
    }
    // Build-phase wall clock, measured only on profiled runs.
    let build_started = spec.host.is_on().then(std::time::Instant::now);
    let mut layout = Layout::with_page_size(cfg.page_bytes);
    let builder = workload.instantiate(ntasks, &mut layout);

    // (instance -> node) placement, recorded while creating streams.
    let mut placement: Vec<NodeId> = Vec::new();
    let mut streams: Vec<StreamExec> = Vec::new();
    let mut pairs: Vec<PairState> = Vec::new();
    let mut next_inst = 0u32;
    let mut mk = |layout: &mut Layout,
                  placement: &mut Vec<NodeId>,
                  task: usize,
                  cpu: CpuId,
                  role: StreamRole,
                  pair: Option<usize>| {
        let inst = InstanceId(next_inst);
        next_inst += 1;
        placement.push(cpu.node());
        let prog = builder(layout, inst, task);
        StreamExec::new(cpu, role, TaskId(task as u16), pair, prog.iter())
    };
    match spec.mode {
        ExecMode::Single => {
            for t in 0..ntasks {
                let cpu = CpuId::new(NodeId(t as u16), 0);
                streams.push(mk(&mut layout, &mut placement, t, cpu, StreamRole::Solo, None));
            }
        }
        ExecMode::Double => {
            for t in 0..ntasks {
                let cpu = CpuId::new(NodeId((t / 2) as u16), (t % 2) as u8);
                streams.push(mk(&mut layout, &mut placement, t, cpu, StreamRole::Solo, None));
            }
        }
        ExecMode::Slipstream => {
            for t in 0..ntasks {
                let node = NodeId(t as u16);
                
                streams.push(mk(
                    &mut layout,
                    &mut placement,
                    t,
                    CpuId::new(node, 0),
                    StreamRole::R,
                    Some(t),
                ));
                let a_idx = streams.len();
                streams.push(mk(
                    &mut layout,
                    &mut placement,
                    t,
                    CpuId::new(node, 1),
                    StreamRole::A,
                    Some(t),
                ));
                let start = if spec.slip.ar_adaptive {
                    slipstream_kernel::config::ArSyncMode::ALL[0]
                } else {
                    spec.slip.ar_sync
                };
                pairs.push(PairState::new(a_idx, start, spec.slip.ar_adaptive));
            }
        }
    }

    // Task -> node placement for first-touch (shared_owned) pages.
    let task_node = |task: u32| -> NodeId {
        match spec.mode {
            ExecMode::Single | ExecMode::Slipstream => NodeId(task as u16),
            ExecMode::Double => NodeId((task / 2) as u16),
        }
    };
    let home = HomeMap::new(&layout, cfg.nodes, |inst| placement[inst.0 as usize], task_node);
    let mut mem = MemSystem::new(&cfg, home, ntasks as u32);
    mem.set_si_interval(spec.slip.si_interval.max(1));

    let mut machine = Machine::assemble(
        workload.name().to_string(),
        cfg,
        spec.slip,
        spec.mode,
        mem,
        streams,
        pairs,
        spec.quantum_cycles,
        spec.input_cycles,
        ntasks,
        spec.trace,
        spec.fastpath,
        observer,
    );
    if spec.host.is_on() {
        machine.enable_host_profile(crate::telemetry::Heartbeat::new(
            workload.name(),
            spec.host.heartbeat_secs,
            spec.host.expected_events,
        ));
    }
    let build_s = build_started.map_or(0.0, |t| t.elapsed().as_secs_f64());
    let sim_started = spec.host.is_on().then(std::time::Instant::now);
    let (mut out, host_queue, observer) = machine.run_full();
    let result = &out.result;
    out.profile = host_queue.map(|queue| {
        let simulate_s = sim_started.map_or(0.0, |t| t.elapsed().as_secs_f64());
        let simulate_ns = (simulate_s * 1e9) as u64;
        let mut p = HostProfileData {
            engine: "serial",
            threads: 0,
            nodes: spec.nodes,
            events: result.host_events,
            sim_cycles: result.exec_cycles,
            phases: crate::telemetry::PhaseTimes {
                build_s,
                simulate_s,
                ..Default::default()
            },
            workers: vec![crate::telemetry::WorkerStats {
                busy_ns: simulate_ns,
                events: result.host_events,
                ..Default::default()
            }],
            queue,
            resources: Vec::new(),
        };
        p.fill_resources(result);
        p
    });
    (out, observer)
}

/// Runs the sequential baseline: the whole problem as one task on a
/// one-node machine (all memory local, as with first-touch allocation).
/// This is the denominator of the paper's Figure 4.
pub fn run_sequential(workload: &dyn Workload) -> RunResult {
    run(workload, &RunSpec::new(1, ExecMode::Single))
}
